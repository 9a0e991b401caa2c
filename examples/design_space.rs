//! Design-space exploration: sweep the first-stage shifter width L and the
//! synchronization policy, and print performance against area and power —
//! the trade-off that makes PRA-2b the paper's configuration of choice
//! (§VI-B2: "PRA2b is particularly appealing").
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use std::sync::Arc;

use pragmatic::core::{Fidelity, PraConfig, SharedEncodedNetwork, SyncPolicy};
use pragmatic::energy::chip::{chip_area_mm2, chip_power_w};
use pragmatic::energy::unit::Design;
use pragmatic::engines::dadn;
use pragmatic::sim::{geomean, ChipConfig};
use pragmatic::workloads::cache::ArtifactStore;
use pragmatic::workloads::{Network, NetworkWorkload, Representation};

fn main() {
    let chip = ChipConfig::dadn();
    let fid = Fidelity::Sampled { max_pallets: 32 };
    // Two representative networks keep the sweep quick.
    let nets = [Network::AlexNet, Network::Vgg19];
    let workloads: Vec<_> = nets
        .iter()
        .map(|&n| Arc::new(NetworkWorkload::build(n, Representation::Fixed16, 3)))
        .collect();
    let bases: Vec<_> = workloads.iter().map(|w| dadn::run(&chip, w)).collect();

    let mut points: Vec<(String, Design, PraConfig)> = Vec::new();
    for l in 0..=4u8 {
        let cfg = PraConfig::two_stage(l, Representation::Fixed16).with_fidelity(fid);
        points.push((cfg.label(), Design::Pra { first_stage_bits: l, ssrs: 0 }, cfg));
    }
    for ssrs in [1usize, 4, 16] {
        let cfg = PraConfig {
            sync: SyncPolicy::PerColumn { ssrs },
            ..PraConfig::two_stage(2, Representation::Fixed16).with_fidelity(fid)
        };
        points.push((cfg.label(), Design::Pra { first_stage_bits: 2, ssrs }, cfg));
    }

    // One in-memory build per network serves every design point.
    let configs: Vec<PraConfig> = points.iter().map(|(_, _, cfg)| *cfg).collect();
    let store = ArtifactStore::at_default().no_disk();
    let builds: Vec<_> = workloads
        .iter()
        .map(|w| SharedEncodedNetwork::start_pipelined(&configs, w, 3, &store))
        .collect();

    let dadn_area = chip_area_mm2(Design::Dadn);
    let dadn_power = chip_power_w(Design::Dadn);
    println!(
        "{:12} {:>8} {:>10} {:>10} {:>12} {:>14}",
        "design", "speedup", "area mm2", "power W", "perf/area", "perf/power"
    );
    for (label, design, cfg) in points {
        let speedups: Vec<f64> = workloads
            .iter()
            .zip(&builds)
            .zip(&bases)
            .map(|((w, build), b)| pragmatic::core::run(&cfg, w, build, |_, _| {}).speedup_over(b))
            .collect();
        let s = geomean(&speedups);
        let a = chip_area_mm2(design);
        let p = chip_power_w(design);
        println!(
            "{:12} {:>7.2}x {:>10.0} {:>10.1} {:>12.2} {:>14.2}",
            label,
            s,
            a,
            p,
            s / (a / dadn_area),
            s / (p / dadn_power),
        );
    }
    for build in builds {
        build.finish(&store);
    }
    println!(
        "\nPRA-2b maximizes performance per area: larger first stages buy\n\
         <1% performance for >10% area; per-column sync with one SSR adds\n\
         ~35% performance for ~1% area."
    );
}
