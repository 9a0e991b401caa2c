//! Cycle-for-cycle equivalence of the layer-scoped scheduling pipeline.
//!
//! The memoized simulator ([`pra_core::simulate_layer`]) must be
//! indistinguishable from the retained pre-memoization oracle
//! ([`pra_core::sim::simulate_layer_raw`]) — not just in total cycles
//! but in every counter — across the design space: both encodings,
//! trimming on and off, every first-stage width, every synchronization
//! policy, both representations, ragged geometry and sampled fidelity.
//! (`tests/pallet_parallel.rs` pins the pallet-parallel invariant:
//! simulation is bit-identical at any thread count.)
//!
//! The same obligation holds one level up for the cross-config shared
//! artifacts: [`pra_core::run`] against one shared build — in flight or
//! finished — must equal simulating every layer on its own unshared
//! scheduler ([`pra_core::simulate_layer`]) result-for-result across
//! the grid of encodings, trim settings, sync policies and
//! representations the sweep mixes into one job.

use std::sync::Arc;

use pra_core::sim::simulate_layer_raw;
use pra_core::{
    run, simulate_layer, Encoding, Fidelity, PipelinedBuild, PraConfig, SharedEncodedNetwork,
    SyncPolicy,
};
use pra_fixed::PrecisionWindow;
use pra_tensor::{ConvLayerSpec, Tensor3};
use pra_workloads::cache::ArtifactStore;
use pra_workloads::{ActivationModel, LayerWorkload, Network, NetworkWorkload, Representation};

/// A layer with a ragged pallet row (out_x = 20) and mixed values.
fn toy_layer() -> LayerWorkload {
    let spec = ConvLayerSpec::new("toy", (20, 6, 32), (3, 3), 64, 1, 1).unwrap();
    LayerWorkload {
        neurons: Tensor3::from_fn(spec.input, |x, y, i| {
            ((x * 131 + y * 241 + i * 37) % 4093) as u16
        }),
        spec,
        window: PrecisionWindow::with_width(9, 2),
        stripes_precision: 9,
    }
}

/// Ragged channel depth (24 = 1.5 bricks) and stride 2.
fn ragged_layer() -> LayerWorkload {
    let spec = ConvLayerSpec::new("ragged", (22, 8, 24), (3, 3), 32, 2, 1).unwrap();
    LayerWorkload {
        neurons: Tensor3::from_fn(spec.input, |x, y, i| ((x * 7 + y * 911 + i * 5) % 600) as u16),
        spec,
        window: PrecisionWindow::with_width(11, 1),
        stripes_precision: 11,
    }
}

fn assert_identical(cfg: &PraConfig, layer: &LayerWorkload, what: &str) {
    let memoized = simulate_layer(cfg, layer);
    let raw = simulate_layer_raw(cfg, layer);
    assert_eq!(memoized, raw, "memoized != raw for {what}");
}

#[test]
fn memoized_equals_raw_across_l_and_trim() {
    let layer = toy_layer();
    for l in 0..=4 {
        for trim in [true, false] {
            let cfg = PraConfig::two_stage(l, Representation::Fixed16).with_trim(trim);
            assert_identical(&cfg, &layer, &format!("L={l} trim={trim}"));
        }
    }
}

#[test]
fn memoized_equals_raw_for_csd_encoding() {
    let layer = toy_layer();
    let cfg =
        PraConfig { encoding: Encoding::Csd, ..PraConfig::two_stage(2, Representation::Fixed16) };
    assert_identical(&cfg, &layer, "csd");
}

#[test]
fn memoized_equals_raw_across_sync_policies() {
    let layer = toy_layer();
    for sync in [
        SyncPolicy::PerPallet,
        SyncPolicy::PerColumn { ssrs: 1 },
        SyncPolicy::PerColumn { ssrs: 4 },
        SyncPolicy::PerColumnIdeal,
    ] {
        let cfg = PraConfig { sync, ..PraConfig::two_stage(2, Representation::Fixed16) };
        assert_identical(&cfg, &layer, &format!("{sync}"));
    }
}

#[test]
fn memoized_equals_raw_on_ragged_geometry_and_sampling() {
    let layer = ragged_layer();
    let cfg = PraConfig::two_stage(2, Representation::Fixed16);
    assert_identical(&cfg, &layer, "ragged full");
    let sampled = cfg.with_fidelity(Fidelity::Sampled { max_pallets: 3 });
    assert_identical(&sampled, &layer, "ragged sampled");
}

#[test]
fn memoized_equals_raw_for_quant8() {
    let spec = ConvLayerSpec::new("q8", (18, 5, 16), (3, 3), 32, 1, 1).unwrap();
    let layer = LayerWorkload {
        neurons: Tensor3::from_fn(spec.input, |x, y, i| ((x * 31 + y * 17 + i * 13) % 256) as u16),
        spec,
        window: PrecisionWindow::new(7, 0),
        stripes_precision: 8,
    };
    for l in [0u8, 2, 3] {
        let cfg = PraConfig::two_stage(l, Representation::Quant8);
        assert_identical(&cfg, &layer, &format!("quant8 L={l}"));
    }
}

#[test]
fn msb_first_ablation_still_identical() {
    // MSB-first takes the general scheduler path inside the memo; the
    // pipeline must stay exact there too.
    let layer = toy_layer();
    let cfg = PraConfig {
        scan_order: pra_core::ScanOrder::MsbFirst,
        ..PraConfig::two_stage(1, Representation::Fixed16)
    };
    assert_identical(&cfg, &layer, "msb-first");
}

#[test]
fn throughput_boosted_pip_still_identical() {
    let layer = toy_layer();
    let cfg =
        PraConfig { oneffsets_per_cycle: 2, ..PraConfig::two_stage(2, Representation::Fixed16) };
    assert_identical(&cfg, &layer, "x2 per cycle");
}

/// A small two-layer workload with calibrated-looking values for the
/// cross-config grid (explicit model: no calibration fit in tests).
fn tiny_workload(repr: Representation) -> NetworkWorkload {
    let model = ActivationModel {
        zero_frac: 0.45,
        sigma: 0.12,
        suffix_density: 0.35,
        outlier_prob: 0.008,
        dense_prob: 0.10,
        heavy_share: 0.40,
    };
    let mut w = NetworkWorkload::build_with_model(Network::AlexNet, repr, model, 0x5AED);
    // Keep the two most irregular layers (ragged pallets, padding) and
    // shrink the rest away for test speed.
    w.layers.truncate(2);
    for layer in &mut w.layers {
        layer.spec.num_filters = layer.spec.num_filters.min(64);
    }
    w
}

fn assert_shared_equals_per_config(configs: &[PraConfig], w: &NetworkWorkload, what: &str) {
    // The in-flight build serves every config as its layers arrive; the
    // finished network re-enters the same path for a second pass.
    let w = Arc::new(w.clone());
    let store = ArtifactStore::at_default().no_disk();
    let build = SharedEncodedNetwork::start_pipelined(configs, &w, 0, &store);
    let in_flight: Vec<_> = configs.iter().map(|c| run(c, &w, &build, |_, _| {})).collect();
    let finished = PipelinedBuild::finished(build.finish(&store));
    for (cfg, via_build) in configs.iter().zip(in_flight) {
        let via_finished = run(cfg, &w, &finished, |_, _| {});
        let per_config: Vec<_> = w.layers.iter().map(|l| simulate_layer(cfg, l)).collect();
        for (via, form) in [(&via_build, "in flight"), (&via_finished, "finished")] {
            assert_eq!(
                via.layers,
                per_config,
                "shared ({form}) != per-config for {} ({what})",
                cfg.label()
            );
        }
    }
}

#[test]
fn shared_equals_per_config_for_the_sweep_configs() {
    // The exact configuration mix every sweep job shares artifacts
    // across: PRA-2b and PRA-2b-1R share a schedule memo, PRA-4b only
    // the mask encoding.
    for repr in [Representation::Fixed16, Representation::Quant8] {
        let w = tiny_workload(repr);
        let configs = [
            PraConfig::two_stage(2, repr),
            PraConfig::single_stage(repr),
            PraConfig::per_column(1, repr),
        ];
        assert_shared_equals_per_config(&configs, &w, &format!("{repr}"));
    }
}

#[test]
fn shared_equals_per_config_across_encodings_and_trim() {
    // Mixed encoding keys in one shared network: every (encoding, trim)
    // combination must get its own masks and still match the unshared
    // path result-for-result.
    let w = tiny_workload(Representation::Fixed16);
    let mut configs = Vec::new();
    for encoding in [Encoding::Oneffset, Encoding::Csd] {
        for trim in [true, false] {
            configs.push(PraConfig {
                encoding,
                ..PraConfig::two_stage(2, Representation::Fixed16).with_trim(trim)
            });
        }
    }
    assert_shared_equals_per_config(&configs, &w, "encoding x trim grid");
}

#[test]
fn shared_equals_per_config_across_sync_and_fidelity() {
    // Sync policy and fidelity live outside the shared artifacts; a
    // memo warmed by one config must serve the others unchanged.
    let w = tiny_workload(Representation::Fixed16);
    let base = PraConfig::two_stage(2, Representation::Fixed16);
    let configs = [
        base,
        PraConfig { sync: SyncPolicy::PerColumn { ssrs: 4 }, ..base },
        PraConfig { sync: SyncPolicy::PerColumnIdeal, ..base },
        base.with_fidelity(Fidelity::Sampled { max_pallets: 5 }),
    ];
    assert_shared_equals_per_config(&configs, &w, "sync x fidelity");
}

#[test]
fn shared_equals_per_config_for_scan_order_and_throughput_ablations() {
    let w = tiny_workload(Representation::Fixed16);
    let base = PraConfig::two_stage(1, Representation::Fixed16);
    let configs = [
        base,
        PraConfig { scan_order: pra_core::ScanOrder::MsbFirst, ..base },
        PraConfig { oneffsets_per_cycle: 2, ..base },
    ];
    assert_shared_equals_per_config(&configs, &w, "scan order x per-cycle");
}
