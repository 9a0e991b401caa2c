//! Layer- and network-level Pragmatic simulation.
//!
//! For every (filter group × pallet × brick step) the simulator runs the
//! exact column scheduler over the 16 oneffset lanes of each of the 16
//! window columns, then combines columns according to the configured
//! synchronization policy. Tiles are identical by construction (§V-A3), so
//! one tile is simulated and the filter-group count scales the result.
//!
//! There is one layer kernel, [`simulate_layer_shared`]: neurons are
//! trimmed and encoded once per layer, each unique input brick is
//! scheduled once and memoized (the layer-scoped pipeline of
//! [`crate::schedule`] — overlapping convolution windows reuse the entry
//! instead of re-scheduling, a K×K-fold saving), and pallets fan out
//! across the thread pool with an order-preserving reduction, so a
//! single-layer request scales across cores. [`simulate_layer`] is its
//! one-layer convenience.
//!
//! There is one network entry point, [`run`]: one design point against
//! the artifacts a [`PipelinedBuild`] shares across design points — in
//! flight or already finished, with a per-layer observer for streaming.
//! The sweep, the server, the figure benches and the tests all go
//! through it, so every design point sees the same neuron streams with
//! the same reuse (the paper's §VI-A convention).
//!
//! The pre-memoization implementation is retained as
//! [`simulate_layer_raw`], the cycle-for-cycle oracle that tests and the
//! `micro` bench compare against; it is reachable only through this
//! module, not the crate root.

use pra_engines::shared_traffic;
use pra_sim::{AccessCounters, Dispatcher, LayerResult, NeuronMemory, RunResult};
use pra_tensor::brick::{brick_for, brick_steps, fetch_pallet_step, pallets, BrickStep, PalletRef};
use pra_tensor::{ConvLayerSpec, BRICK, PALLET};
use pra_workloads::{LayerView, LayerWorkload, NetworkWorkload};
use rayon::prelude::*;

use crate::column::{csd_mask, schedule_brick_with, ColumnSchedule};
use crate::config::{Encoding, Fidelity, PraConfig, SyncPolicy};
use crate::schedule::LayerScheduler;
use crate::shared::{layer_scheduler, PipelinedBuild};
use crate::tile::{column_sync, pallet_sync, PalletOutcome};

/// Simulates one layer on the configured Pragmatic design point — the
/// one-layer convenience over [`simulate_layer_shared`], with the
/// layer's scheduler built the way the pipelined builder builds it.
pub fn simulate_layer(cfg: &PraConfig, layer: &LayerWorkload) -> LayerResult {
    let view = layer.view();
    simulate_layer_shared(cfg, view, &layer_scheduler(cfg, &view), None)
}

/// Simulates one borrowed layer against an externally-built (typically
/// shared) [`LayerScheduler`], optionally reusing precomputed NM/SB
/// traffic counters — the one layer kernel every path runs. The
/// scheduler must have been built for `cfg`'s encoding key, scheduler
/// parameters and the layer's window; [`PipelinedBuild::artifacts`]
/// enforces that pairing.
///
/// Pallets fan out across the thread pool in contiguous chunks with an
/// order-preserving reduction, so the result is bit-identical at any
/// thread count (integer sums are associative).
pub fn simulate_layer_shared(
    cfg: &PraConfig,
    layer: LayerView<'_>,
    sched: &LayerScheduler,
    traffic: Option<&AccessCounters>,
) -> LayerResult {
    let spec = layer.spec;
    let dispatcher = layer_dispatcher(cfg);
    let steps = brick_steps(spec);
    let (selected, total, sampled) = select_pallets(cfg, spec);

    // Fan out only when each worker gets a meaningful slice: heavily
    // sampled runs (and tiny layers) stay serial, which avoids paying
    // thread spawn/join per layer for work that fits one core — and keeps
    // thread churn down when layer simulation runs nested inside an
    // already-parallel batch (the sweep driver's jobs).
    const MIN_PALLETS_PER_WORKER: usize = 8;
    let workers = rayon::current_num_threads().min(selected.len() / MIN_PALLETS_PER_WORKER).max(1);
    let totals = if workers > 1 {
        // Contiguous chunks, mapped in input order and summed in chunk
        // order: the same deterministic reduction the sweep driver pins
        // down for its job rows.
        let chunk = selected.len().div_ceil(workers);
        let parts: Vec<Totals> = selected
            .chunks(chunk)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|c| simulate_pallets(cfg, spec, sched, &dispatcher, &steps, c))
            .collect();
        parts.into_iter().fold(Totals::default(), Totals::add)
    } else {
        simulate_pallets(cfg, spec, sched, &dispatcher, &steps, &selected)
    };
    let base = match traffic {
        Some(t) => *t,
        None => shared_traffic(&cfg.chip, spec, &dispatcher),
    };
    finish_layer(cfg, spec, base, totals, total, sampled)
}

/// Per-run accumulator, combined with an order-preserving fold.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    cycles: u64,
    nm_stalls: u64,
    sb_stalls: u64,
    oneffsets: u64,
}

impl Totals {
    fn add(self, o: Totals) -> Totals {
        Totals {
            cycles: self.cycles + o.cycles,
            nm_stalls: self.nm_stalls + o.nm_stalls,
            sb_stalls: self.sb_stalls + o.sb_stalls,
            oneffsets: self.oneffsets + o.oneffsets,
        }
    }
}

fn layer_dispatcher(cfg: &PraConfig) -> Dispatcher {
    let nm = NeuronMemory::new(cfg.nm_layout, cfg.chip.nm_row_neurons(cfg.repr.bits()));
    Dispatcher::new(nm)
}

/// Deterministic pallet selection for bounded simulation time: the full
/// enumeration, or a multiplicatively-spaced sample of it.
fn select_pallets(cfg: &PraConfig, spec: &ConvLayerSpec) -> (Vec<PalletRef>, u64, u64) {
    let all_pallets = pallets(spec);
    match cfg.fidelity {
        Fidelity::Full => {
            let n = all_pallets.len() as u64;
            (all_pallets, n, n)
        }
        Fidelity::Sampled { max_pallets } => {
            let n = all_pallets.len();
            let take = max_pallets.max(1).min(n);
            // Multiplicative sampling with a step coprime to the pallet
            // count: a plain stride correlates with the row structure
            // (e.g. it can hit only the full 16-lane pallet of every row,
            // never the ragged one) and biases the estimate.
            let mut g = (n as f64 * 0.618_033_988) as usize | 1;
            while gcd(g, n) != 1 {
                g += 2;
            }
            let sel: Vec<PalletRef> = (0..take).map(|k| all_pallets[k * g % n]).collect();
            (sel, n as u64, take as u64)
        }
    }
}

/// Simulates a slice of pallets against the shared layer scheduler. The
/// two step-indexed buffers are sized once per call; the loop body itself
/// performs no heap allocation — brick schedules come from the memo and
/// NM fetch rows are counted on the stack.
fn simulate_pallets(
    cfg: &PraConfig,
    spec: &ConvLayerSpec,
    sched: &LayerScheduler,
    dispatcher: &Dispatcher,
    steps: &[BrickStep],
    pallets: &[PalletRef],
) -> Totals {
    let mut col_cycles_buf: Vec<[u32; 16]> = Vec::with_capacity(steps.len());
    let mut nmc_buf: Vec<u64> = Vec::with_capacity(steps.len());
    let mut t = Totals::default();
    for pallet in pallets {
        col_cycles_buf.clear();
        nmc_buf.clear();
        for step in steps {
            let mut per_col = [0u32; 16];
            for (col, slot) in per_col.iter_mut().enumerate().take(pallet.lanes) {
                let (cycles, terms) =
                    sched.brick_cycles_terms(brick_for(spec, *pallet, col, *step));
                *slot = cycles;
                t.oneffsets += u64::from(terms);
            }
            col_cycles_buf.push(per_col);
            nmc_buf.push(dispatcher.fetch_cycles(spec, *pallet, *step));
        }
        let outcome = sync_pallet(cfg, &col_cycles_buf, &nmc_buf, pallet.lanes);
        t.cycles += outcome.cycles;
        t.nm_stalls += outcome.nm_stall_cycles;
        t.sb_stalls += outcome.sb_stall_cycles;
    }
    t
}

fn sync_pallet(
    cfg: &PraConfig,
    col_cycles: &[[u32; 16]],
    nmc: &[u64],
    lanes: usize,
) -> PalletOutcome {
    match cfg.sync {
        SyncPolicy::PerPallet => pallet_sync(col_cycles, nmc),
        SyncPolicy::PerColumn { ssrs } => column_sync(col_cycles, lanes, Some(ssrs)),
        SyncPolicy::PerColumnIdeal => column_sync(col_cycles, lanes, None),
    }
}

/// Scales the accumulated totals from the sampled pallets to the full
/// layer and derives the traffic counters from the engine-independent
/// base — shared verbatim by the memoized and raw paths so they stay
/// cycle-for-cycle identical.
fn finish_layer(
    cfg: &PraConfig,
    spec: &ConvLayerSpec,
    base: AccessCounters,
    t: Totals,
    total: u64,
    sampled: u64,
) -> LayerResult {
    let fg = cfg.chip.filter_groups(spec.num_filters) as u64;
    let scale = |v: u64| (v as u128 * total as u128 / sampled.max(1) as u128) as u64;
    let cycles = scale(t.cycles) * fg;
    let nm_stalls = scale(t.nm_stalls) * fg;
    let sb_stalls = scale(t.sb_stalls) * fg;
    let oneffsets = scale(t.oneffsets);

    let mut counters = base;
    // Each neuron oneffset pairs with every filter's synapse: terms =
    // oneffsets × N (spread across the 16 filter lanes × 16 tiles × groups).
    counters.terms = oneffsets * spec.num_filters as u64;
    counters.stall_cycles = nm_stalls + sb_stalls;
    // Null terms injected: tile lane-cycles not consuming an oneffset
    // (each consumed oneffset occupies one of the tile's 256 lanes for one
    // cycle, repeated per filter group).
    let lane_cycles = cycles * (PALLET * BRICK) as u64;
    counters.idle_lane_cycles = lane_cycles.saturating_sub(oneffsets * fg);
    LayerResult {
        layer: spec.name().to_string(),
        cycles,
        multiplications: spec.multiplications(),
        counters,
    }
}

/// The pre-memoization simulator: fetches and schedules every brick once
/// per overlapping window, exactly as the hardware's dispatcher would
/// stream it. Kept as the oracle for the layer-scoped pipeline — results
/// must be cycle-for-cycle identical to [`simulate_layer`] — and as the
/// `micro` bench's raw baseline; not re-exported at the crate root.
pub fn simulate_layer_raw(cfg: &PraConfig, layer: &LayerWorkload) -> LayerResult {
    let spec = &layer.spec;
    let dispatcher = layer_dispatcher(cfg);
    let steps = brick_steps(spec);
    let (selected, total, sampled) = select_pallets(cfg, spec);

    let mut t = Totals::default();
    let mut col_cycles_buf: Vec<[u32; 16]> = Vec::with_capacity(steps.len());
    let mut nmc_buf: Vec<u64> = Vec::with_capacity(steps.len());
    for pallet in &selected {
        col_cycles_buf.clear();
        nmc_buf.clear();
        for step in &steps {
            let bricks = fetch_pallet_step(spec, &layer.neurons, *pallet, *step);
            let mut per_col = [0u32; 16];
            for (col, brick) in bricks.iter().enumerate().take(pallet.lanes) {
                let sched = schedule_column(cfg, layer, brick);
                per_col[col] = sched.cycles;
                t.oneffsets += u64::from(sched.terms);
            }
            col_cycles_buf.push(per_col);
            nmc_buf.push(dispatcher.fetch_cycles(spec, *pallet, *step));
        }
        let outcome = sync_pallet(cfg, &col_cycles_buf, &nmc_buf, pallet.lanes);
        t.cycles += outcome.cycles;
        t.nm_stalls += outcome.nm_stall_cycles;
        t.sb_stalls += outcome.sb_stall_cycles;
    }
    finish_layer(cfg, spec, shared_traffic(&cfg.chip, spec, &dispatcher), t, total, sampled)
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn schedule_column(cfg: &PraConfig, layer: &LayerWorkload, brick: &[u16; BRICK]) -> ColumnSchedule {
    let mut masks = [0u32; 16];
    for (m, &v) in masks.iter_mut().zip(brick) {
        let v = if cfg.software_trim { layer.window.trim(v) } else { v };
        *m = match cfg.encoding {
            Encoding::Oneffset => u32::from(v),
            Encoding::Csd => csd_mask(v),
        };
    }
    schedule_brick_with(&masks, cfg.scheduler())
}

/// Simulates a network's convolutional layers on one design point,
/// labelled with [`PraConfig::label`], against the build-once artifacts
/// of a [`PipelinedBuild`] — the one network-level entry point. Every
/// layer borrows its shared scheduler (and, when available, the
/// engine-independent traffic counters) and simulates as soon as the
/// build has it: against a build still in flight, layer *n* simulates
/// while the builder thread encodes layer *n + 1*; against
/// [`PipelinedBuild::finished`] every layer is already there.
/// `on_layer(idx, partial)` fires the moment layer `idx` finishes
/// simulating, with the run result accumulated so far — the serving
/// tier's v2 streaming hook (each call becomes one `layer_result` wire
/// frame). Neither the schedule nor the observer changes the result.
///
/// ```
/// use std::sync::Arc;
/// use pra_core::{run, Fidelity, PraConfig, SharedEncodedNetwork};
/// use pra_workloads::cache::ArtifactStore;
/// use pra_workloads::{Network, NetworkWorkload, Representation};
///
/// let repr = Representation::Fixed16;
/// let mut w = NetworkWorkload::build(Network::AlexNet, repr, 7);
/// w.layers.truncate(1);
/// let w = Arc::new(w);
/// let fid = Fidelity::Sampled { max_pallets: 4 };
/// let configs = [
///     PraConfig::two_stage(2, repr).with_fidelity(fid),
///     PraConfig::per_column(1, repr).with_fidelity(fid),
/// ];
/// // One diskless build serves both design points.
/// let store = ArtifactStore::at_default().no_disk();
/// let build = SharedEncodedNetwork::start_pipelined(&configs, &w, 7, &store);
/// let pallet = run(&configs[0], &w, &build, |_, _| {});
/// let column = run(&configs[1], &w, &build, |_, _| {});
/// assert!(column.total_cycles() <= pallet.total_cycles());
/// let shared = build.finish(&store);
/// assert_eq!(shared.layer_count(), 1);
/// ```
///
/// # Panics
///
/// Panics if the configuration and workload representations differ, if
/// the build does not cover `cfg` or the workload shape, or if the
/// builder thread died mid-build.
pub fn run(
    cfg: &PraConfig,
    workload: &NetworkWorkload,
    build: &PipelinedBuild,
    mut on_layer: impl FnMut(usize, &RunResult),
) -> RunResult {
    assert_eq!(cfg.repr, workload.repr, "configuration representation must match the workload");
    assert_eq!(
        build.layer_count(),
        workload.layers.len(),
        "pipelined build must cover every layer of the workload"
    );
    let mut result = RunResult::new(cfg.label());
    for (idx, layer) in workload.layers.iter().enumerate() {
        let (sched, traffic) = build.artifacts(idx, cfg);
        result.layers.push(simulate_layer_shared(cfg, layer.view(), &sched, traffic.as_ref()));
        on_layer(idx, &result);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use pra_fixed::PrecisionWindow;
    use pra_sim::ChipConfig;
    use pra_tensor::{ConvLayerSpec, Tensor3};
    use pra_workloads::Representation;

    fn toy_layer(fill: impl FnMut(usize, usize, usize) -> u16) -> LayerWorkload {
        let spec = ConvLayerSpec::new("toy", (32, 8, 32), (3, 3), 64, 1, 1).unwrap();
        LayerWorkload {
            neurons: Tensor3::from_fn(spec.input, fill),
            spec,
            window: PrecisionWindow::with_width(9, 2),
            stripes_precision: 9,
        }
    }

    fn dadn_cycles(layer: &LayerWorkload) -> u64 {
        pra_engines::dadn::layer_cycles(&ChipConfig::dadn(), layer)
    }

    fn unpadded_layer(fill: impl FnMut(usize, usize, usize) -> u16) -> LayerWorkload {
        let spec = ConvLayerSpec::new("toy", (34, 10, 32), (3, 3), 64, 1, 0).unwrap();
        LayerWorkload {
            neurons: Tensor3::from_fn(spec.input, fill),
            spec,
            window: PrecisionWindow::with_width(9, 2),
            stripes_precision: 9,
        }
    }

    #[test]
    fn worst_case_matches_dadn() {
        // All bits set: every neuron has 16 oneffsets -> every brick step
        // takes 16 cycles, exactly DaDN's per-window rate (16 windows in
        // parallel). Unpadded layer: with padding PRA is *faster* than
        // DaDN even in the worst case, because all-padding brick steps
        // cost one cycle instead of sixteen.
        let layer = unpadded_layer(|_, _, _| u16::MAX);
        let cfg = PraConfig::single_stage(Representation::Fixed16).with_trim(false);
        let r = simulate_layer(&cfg, &layer);
        assert_eq!(r.cycles, dadn_cycles(&layer));
    }

    #[test]
    fn padding_makes_worst_case_strictly_faster_than_dadn() {
        let layer = toy_layer(|_, _, _| u16::MAX);
        let cfg = PraConfig::single_stage(Representation::Fixed16).with_trim(false);
        let r = simulate_layer(&cfg, &layer);
        assert!(r.cycles < dadn_cycles(&layer));
    }

    #[test]
    fn sparse_layers_run_much_faster() {
        let layer = toy_layer(|x, y, i| if (x + y + i) % 8 == 0 { 0b100 } else { 0 });
        let cfg = PraConfig::single_stage(Representation::Fixed16);
        let r = simulate_layer(&cfg, &layer);
        assert!(r.cycles * 8 < dadn_cycles(&layer), "cycles {}", r.cycles);
    }

    #[test]
    fn never_slower_than_dadn_on_aligned_layers() {
        let layer = toy_layer(|x, y, i| (x * 31 + y * 17 + i * 13) as u16);
        for l in 0..=4 {
            let cfg = PraConfig::two_stage(l, Representation::Fixed16).with_trim(false);
            let r = simulate_layer(&cfg, &layer);
            assert!(r.cycles <= dadn_cycles(&layer), "L={l}");
        }
    }

    #[test]
    fn larger_l_never_slower_at_layer_scale() {
        let layer = toy_layer(|x, y, i| ((x * 131 + y * 241 + i * 37) % 4093) as u16);
        let mut prev = u64::MAX;
        for l in 0..=4 {
            let cfg = PraConfig::two_stage(l, Representation::Fixed16);
            let c = simulate_layer(&cfg, &layer).cycles;
            assert!(c <= prev, "L={l}: {c} > {prev}");
            prev = c;
        }
    }

    #[test]
    fn column_sync_not_slower_than_pallet_sync() {
        let layer = toy_layer(|x, y, i| ((x * 7 + y * 3 + i) % 600) as u16);
        let pallet = simulate_layer(&PraConfig::two_stage(2, Representation::Fixed16), &layer);
        for ssrs in [1usize, 4, 16] {
            let col = simulate_layer(&PraConfig::per_column(ssrs, Representation::Fixed16), &layer);
            assert!(
                col.cycles
                    <= pallet.cycles
                        + layer.spec.brick_steps() as u64 * layer.spec.pallets() as u64,
                "{ssrs} SSRs: {} vs pallet {}",
                col.cycles,
                pallet.cycles
            );
        }
        let ideal = simulate_layer(
            &PraConfig {
                sync: SyncPolicy::PerColumnIdeal,
                ..PraConfig::two_stage(2, Representation::Fixed16)
            },
            &layer,
        );
        assert!(ideal.cycles <= pallet.cycles);
    }

    #[test]
    fn trimming_removes_suffix_work() {
        // Values with suffix noise below the window: trimming speeds up.
        let layer = toy_layer(|x, y, i| (0b1_0000 | ((x + y + i) % 4)) as u16);
        let on = simulate_layer(&PraConfig::two_stage(2, Representation::Fixed16), &layer);
        let off = simulate_layer(
            &PraConfig::two_stage(2, Representation::Fixed16).with_trim(false),
            &layer,
        );
        assert!(on.cycles < off.cycles);
    }

    #[test]
    fn terms_match_potential_model() {
        // The cycle simulator's effectual term count equals the ideal
        // potential study's PRA term count (same values, same trimming).
        let layer = toy_layer(|x, y, i| ((x * 5 + y * 11 + i * 3) % 300) as u16);
        let cfg = PraConfig::two_stage(2, Representation::Fixed16).with_trim(false);
        let r = simulate_layer(&cfg, &layer);
        let t = pra_engines::potential::layer_terms(&layer, Representation::Fixed16, 1);
        assert_eq!(r.counters.terms, t.pra);
    }

    #[test]
    fn sampled_fidelity_approximates_full() {
        let layer = toy_layer(|x, y, i| ((x * 97 + y * 53 + i * 29) % 511) as u16);
        let full = simulate_layer(&PraConfig::two_stage(2, Representation::Fixed16), &layer);
        let sampled = simulate_layer(
            &PraConfig::two_stage(2, Representation::Fixed16)
                .with_fidelity(Fidelity::Sampled { max_pallets: 4 }),
            &layer,
        );
        let ratio = sampled.cycles as f64 / full.cycles as f64;
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn csd_encoding_not_slower_on_dense_values() {
        let layer = toy_layer(|_, _, _| 0b0111_1111_0000);
        let one = simulate_layer(&PraConfig::two_stage(2, Representation::Fixed16), &layer);
        let csd = simulate_layer(
            &PraConfig {
                encoding: Encoding::Csd,
                ..PraConfig::two_stage(2, Representation::Fixed16)
            },
            &layer,
        );
        assert!(csd.cycles <= one.cycles);
    }

    #[test]
    fn quant8_worst_case_is_8_cycles_per_step() {
        let spec = ConvLayerSpec::new("q", (34, 10, 32), (3, 3), 64, 1, 0).unwrap();
        let layer = LayerWorkload {
            neurons: Tensor3::from_fn(spec.input, |_, _, _| 0xFF),
            spec,
            window: PrecisionWindow::new(7, 0),
            stripes_precision: 8,
        };
        let cfg = PraConfig::two_stage(3, Representation::Quant8);
        let r = simulate_layer(&cfg, &layer);
        let dadn = dadn_cycles(&layer);
        // 8 oneffsets per neuron vs DaDN's 1 cycle/brick-step/window with
        // 16-way window parallelism -> exactly half of DaDN's 16.
        assert_eq!(r.cycles, dadn / 2);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn run_rejects_mismatched_representation() {
        let w = pra_workloads::NetworkWorkload::build_with_model(
            pra_workloads::Network::AlexNet,
            Representation::Quant8,
            pra_workloads::ActivationModel {
                zero_frac: 0.5,
                sigma: 0.2,
                suffix_density: 0.0,
                outlier_prob: 0.0,
                dense_prob: 0.0,
                heavy_share: 0.0,
            },
            1,
        );
        let w = std::sync::Arc::new(w);
        let store = pra_workloads::cache::ArtifactStore::at_default().no_disk();
        let quant = PraConfig::two_stage(2, Representation::Quant8);
        let build = crate::SharedEncodedNetwork::start_pipelined(&[quant], &w, 1, &store);
        let cfg = PraConfig::two_stage(2, Representation::Fixed16);
        let _ = run(&cfg, &w, &build, |_, _| {});
    }
}
