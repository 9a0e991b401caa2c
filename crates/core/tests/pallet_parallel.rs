//! Pallet-level parallelism is invisible in the results.
//!
//! [`pra_core::simulate_layer_shared`] fans a layer's pallets out over
//! the thread pool in contiguous chunks once every worker gets at least
//! eight of them, and folds the chunk totals back in order. This test
//! pins the thread count through the pool's global configuration — one
//! worker, then four — on a layer large enough that four workers really
//! split it, and requires identical results under every synchronization
//! policy at full and sampled fidelity. It is the only test in its
//! binary because the thread count is process-wide.

use pra_core::{simulate_layer, Fidelity, PraConfig, SyncPolicy};
use pra_fixed::PrecisionWindow;
use pra_sim::LayerResult;
use pra_tensor::{ConvLayerSpec, Tensor3};
use pra_workloads::{LayerWorkload, Representation};

/// Pallets each worker needs before a layer fans out.
const MIN_PALLETS_PER_WORKER: usize = 8;
/// Worker count of the parallel leg.
const WORKERS: usize = 4;
/// Sampled pallets: enough for every worker, and not a multiple of the
/// worker count, so the last chunk is shorter than the others.
const SAMPLED: usize = 37;
const _: () = assert!(SAMPLED >= WORKERS * MIN_PALLETS_PER_WORKER, "every worker gets a slice");

#[test]
fn pallet_parallel_equals_serial() {
    // out_x = 66 (five pallets per row, the last one ragged) × 10 rows.
    let spec = ConvLayerSpec::new("wide", (66, 10, 32), (3, 3), 32, 1, 1).unwrap();
    let layer = LayerWorkload {
        neurons: Tensor3::from_fn(spec.input, |x, y, i| {
            ((x * 131 + y * 241 + i * 37) % 4093) as u16
        }),
        spec,
        window: PrecisionWindow::with_width(9, 2),
        stripes_precision: 9,
    };
    assert_eq!(layer.spec.pallets(), 50);
    assert!(SAMPLED <= layer.spec.pallets());

    let mut configs = Vec::new();
    for sync in [
        SyncPolicy::PerPallet,
        SyncPolicy::PerColumn { ssrs: 1 },
        SyncPolicy::PerColumn { ssrs: 4 },
        SyncPolicy::PerColumnIdeal,
    ] {
        for fidelity in [Fidelity::Full, Fidelity::Sampled { max_pallets: SAMPLED }] {
            let base = PraConfig::two_stage(2, Representation::Fixed16).with_fidelity(fidelity);
            configs.push(PraConfig { sync, ..base });
        }
    }
    let simulate_all = |threads: usize| -> Vec<LayerResult> {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build_global().unwrap();
        assert_eq!(rayon::current_num_threads(), threads);
        configs.iter().map(|cfg| simulate_layer(cfg, &layer)).collect()
    };
    let serial = simulate_all(1);
    let parallel = simulate_all(WORKERS);
    for ((cfg, s), p) in configs.iter().zip(&serial).zip(&parallel) {
        assert_eq!(s, p, "{} at {:?}", cfg.sync, cfg.fidelity);
    }
}
