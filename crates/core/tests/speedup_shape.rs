//! End-to-end speedup shape checks against the paper's headline numbers
//! (Figs. 9, 10, 12 and Table V). Exact paper-vs-measured rows are printed
//! by the bench targets; these tests pin the *shape*: who wins, by roughly
//! what factor, and the orderings that must hold. Every design point of
//! a test runs through one shared build per workload, the path the
//! sweep and the server take.

use std::sync::Arc;

use pra_core::{Fidelity, PraConfig, SharedEncodedNetwork, SyncPolicy};
use pra_engines::{dadn, stripes};
use pra_sim::{geomean, ChipConfig, RunResult};
use pra_workloads::cache::ArtifactStore;
use pra_workloads::{Network, NetworkWorkload, Representation};

const SEED: u64 = 0x51AE;
const FIDELITY: Fidelity = Fidelity::Sampled { max_pallets: 48 };

/// Every config of `cfgs` on `w`, through one diskless shared build.
fn run_all(cfgs: &[PraConfig], w: &Arc<NetworkWorkload>) -> Vec<RunResult> {
    let store = ArtifactStore::at_default().no_disk();
    let build = SharedEncodedNetwork::start_pipelined(cfgs, w, SEED, &store);
    let runs = cfgs.iter().map(|cfg| pra_core::run(cfg, w, &build, |_, _| {})).collect();
    build.finish(&store);
    runs
}

fn speedups_for(repr: Representation, cfgs: &[PraConfig]) -> (Vec<f64>, Vec<Vec<f64>>) {
    let chip = ChipConfig::dadn();
    let mut stripes_all = vec![];
    let mut pra_all = vec![vec![]; cfgs.len()];
    for net in Network::ALL {
        let w = Arc::new(NetworkWorkload::build(net, repr, SEED));
        let base = dadn::run(&chip, &w);
        let s = stripes::run(&chip, &w);
        stripes_all.push(s.speedup_over(&base));
        for (k, r) in run_all(cfgs, &w).iter().enumerate() {
            pra_all[k].push(r.speedup_over(&base));
        }
    }
    (stripes_all, pra_all)
}

#[test]
fn fig9_pallet_sync_shape() {
    let cfgs: Vec<PraConfig> = (0..=4)
        .map(|l| PraConfig::two_stage(l, Representation::Fixed16).with_fidelity(FIDELITY))
        .collect();
    let (stripes, pra) = speedups_for(Representation::Fixed16, &cfgs);
    let sg = geomean(&stripes);
    let geos: Vec<f64> = pra.iter().map(|v| geomean(v)).collect();
    println!("stripes geo {sg:.2}; PRA 0b..4b geo {geos:?}");
    for (net, s) in Network::ALL.iter().zip(&stripes) {
        println!("  {net}: stripes {s:.2}");
    }
    for (net, s) in Network::ALL.iter().zip(&pra[4]) {
        println!("  {net}: PRA-4b {s:.2}");
    }

    // Paper: STR geo 1.85x; PRAsingle 2.59x; PRA-2b/3b within 0.2% of
    // single-stage; PRA-0b outperforms STR by ~20%.
    assert!((1.4..2.4).contains(&sg), "stripes geo {sg} vs paper 1.85");
    assert!((2.0..3.3).contains(&geos[4]), "PRA-4b geo {} vs paper 2.59", geos[4]);
    assert!(geos[4] > sg * 1.2, "PRA must clearly beat Stripes");
    // Monotone in L, and 2b close to single-stage.
    for k in 1..=4 {
        assert!(geos[k] >= geos[k - 1] * 0.999, "L={k} slower than L={}", k - 1);
    }
    assert!(geos[2] > geos[4] * 0.95, "PRA-2b within ~5% of single-stage");
    assert!(geos[0] > sg * 1.05, "PRA-0b should outperform Stripes");
}

#[test]
fn fig10_column_sync_shape() {
    let mk = |sync| PraConfig {
        sync,
        ..PraConfig::two_stage(2, Representation::Fixed16).with_fidelity(FIDELITY)
    };
    let cfgs = vec![
        mk(SyncPolicy::PerPallet),
        mk(SyncPolicy::PerColumn { ssrs: 1 }),
        mk(SyncPolicy::PerColumn { ssrs: 4 }),
        mk(SyncPolicy::PerColumn { ssrs: 16 }),
        mk(SyncPolicy::PerColumnIdeal),
    ];
    let (_, pra) = speedups_for(Representation::Fixed16, &cfgs);
    let geos: Vec<f64> = pra.iter().map(|v| geomean(v)).collect();
    println!(
        "pallet {:.2}, 1R {:.2}, 4R {:.2}, 16R {:.2}, ideal {:.2}",
        geos[0], geos[1], geos[2], geos[3], geos[4]
    );

    // Paper: PRA-2b pallet 2.59x; 1 SSR boosts to 3.1x, ideal 3.45x.
    assert!(geos[1] > geos[0] * 1.08, "column sync should clearly beat pallet sync");
    assert!((2.4..3.9).contains(&geos[1]), "PRA-2b-1R geo {} vs paper 3.1", geos[1]);
    assert!((2.6..4.2).contains(&geos[4]), "ideal geo {} vs paper 3.45", geos[4]);
    // More SSRs monotone, ideal at the top.
    assert!(geos[2] >= geos[1] * 0.999);
    assert!(geos[3] >= geos[2] * 0.999);
    assert!(geos[4] >= geos[3] * 0.999);
    // One SSR already captures most of the benefit (the paper's §VI-C
    // conclusion).
    assert!((geos[1] - geos[0]) / (geos[4] - geos[0]) > 0.5);
}

#[test]
fn table5_software_guidance_benefit() {
    let chip = ChipConfig::dadn();
    let mut benefits = vec![];
    for net in Network::ALL {
        let w = Arc::new(NetworkWorkload::build(net, Representation::Fixed16, SEED));
        let base = dadn::run(&chip, &w);
        let cfg = PraConfig::per_column(1, Representation::Fixed16).with_fidelity(FIDELITY);
        let runs = run_all(&[cfg, cfg.with_trim(false)], &w);
        let (with_trim, without) = (runs[0].speedup_over(&base), runs[1].speedup_over(&base));
        let benefit = with_trim / without - 1.0;
        println!("{net}: trim {with_trim:.2} no-trim {without:.2} benefit {benefit:.2}");
        benefits.push(benefit);
        // PRA outperforms the other architectures even without software
        // guidance (§VI-E conclusion 1).
        let str_speedup = stripes::run(&chip, &w).speedup_over(&base);
        assert!(without > str_speedup, "{net}: no-trim PRA {without} <= STR {str_speedup}");
    }
    let avg = benefits.iter().sum::<f64>() / benefits.len() as f64;
    println!("average software benefit {avg:.3} (paper: 0.19)");
    assert!((0.08..0.35).contains(&avg), "benefit {avg} vs paper 0.19");
}

#[test]
fn fig12_quantized_shape() {
    let mk = |l, sync| PraConfig {
        sync,
        ..PraConfig::two_stage(l, Representation::Quant8).with_fidelity(FIDELITY)
    };
    let cfgs = vec![
        mk(3, SyncPolicy::PerPallet),             // single-stage (8-bit)
        mk(2, SyncPolicy::PerPallet),             // perPall-2bit
        mk(2, SyncPolicy::PerColumn { ssrs: 1 }), // perCol-1reg-2bit
        mk(2, SyncPolicy::PerColumnIdeal),        // perCol-ideal-2bit
    ];
    let (stripes, pra) = speedups_for(Representation::Quant8, &cfgs);
    let sg = geomean(&stripes);
    let geos: Vec<f64> = pra.iter().map(|v| geomean(v)).collect();
    println!(
        "stripes8 {sg:.2}; perPall {:.2}, perPall-2b {:.2}, 1R-2b {:.2}, ideal-2b {:.2}",
        geos[0], geos[1], geos[2], geos[3]
    );

    // Paper: PRA benefits persist with 8-bit quantization; PRA-2b-1R is
    // nearly 3.5x over the 8-bit DaDN while Stripes barely helps (its
    // precisions clamp to <= 8 bits).
    assert!(sg < geos[0], "stripes8 {sg} should trail PRA");
    assert!((1.8..3.2).contains(&geos[1]), "perPall-2b {} vs paper ~2.5", geos[1]);
    assert!((2.4..4.2).contains(&geos[2]), "perCol-1R-2b {} vs paper ~3.5", geos[2]);
    assert!(geos[3] >= geos[2] * 0.999);
}
