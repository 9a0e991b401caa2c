//! End-to-end tour of AlexNet's convolutional layers: per-layer cycles,
//! speedups, term counts and chip energy for DaDianNao, Stripes and three
//! Pragmatic variants on the calibrated synthetic activation stream.
//!
//! ```sh
//! cargo run --release --example alexnet_tour
//! ```

use std::sync::Arc;

use pragmatic::core::{Fidelity, PraConfig, SharedEncodedNetwork};
use pragmatic::energy::efficiency::{efficiency, EnergyReport};
use pragmatic::energy::unit::Design;
use pragmatic::engines::{dadn, potential, stripes};
use pragmatic::sim::ChipConfig;
use pragmatic::workloads::cache::ArtifactStore;
use pragmatic::workloads::{Network, NetworkWorkload, Representation};

fn main() {
    let chip = ChipConfig::dadn();
    println!("building calibrated AlexNet workload (Table I statistics)...");
    let w = Arc::new(NetworkWorkload::build(Network::AlexNet, Representation::Fixed16, 42));

    let fidelity = Fidelity::Sampled { max_pallets: 128 };
    let base = dadn::run(&chip, &w);
    let str_r = stripes::run(&chip, &w);
    // Both PRA variants share one encoding and one schedule memo: build
    // the artifacts once (in memory only), then run each design point.
    let configs = [
        PraConfig::two_stage(2, Representation::Fixed16).with_fidelity(fidelity),
        PraConfig::per_column(1, Representation::Fixed16).with_fidelity(fidelity),
    ];
    let store = ArtifactStore::at_default().no_disk();
    let build = SharedEncodedNetwork::start_pipelined(&configs, &w, 42, &store);
    let pra2b = pragmatic::core::run(&configs[0], &w, &build, |_, _| {});
    let pra1r = pragmatic::core::run(&configs[1], &w, &build, |_, _| {});
    build.finish(&store);

    println!("\nper-layer speedup over DaDN:");
    println!(
        "{:8} {:>12} {:>10} {:>10} {:>10} {:>16}",
        "layer", "DaDN cycles", "Stripes", "PRA-2b", "PRA-2b-1R", "essential terms"
    );
    for (((bl, sl), pl), cl) in
        base.layers.iter().zip(&str_r.layers).zip(&pra2b.layers).zip(&pra1r.layers)
    {
        let t = bl.counters.terms;
        println!(
            "{:8} {:>12} {:>9.2}x {:>9.2}x {:>9.2}x {:>15.1}%",
            bl.layer,
            bl.cycles,
            bl.cycles as f64 / sl.cycles as f64,
            bl.cycles as f64 / pl.cycles as f64,
            bl.cycles as f64 / cl.cycles as f64,
            100.0 * pl.counters.terms as f64 / t as f64,
        );
    }

    println!("\nnetwork totals:");
    for (name, r) in [("Stripes", &str_r), ("PRA-2b", &pra2b), ("PRA-2b-1R", &pra1r)] {
        println!("  {name:10} speedup {:>5.2}x", r.speedup_over(&base));
    }

    // Ideal potential (Fig. 2 style) for context.
    let terms = potential::network_terms(&w).normalized();
    println!(
        "\nideal term counts vs DaDN: Stripes {:.0}%, PRA-fp16 {:.0}%, PRA-red {:.0}%",
        100.0 * terms.stripes,
        100.0 * terms.pra,
        100.0 * terms.pra_red
    );

    // Energy.
    let base_e = EnergyReport::new(Design::Dadn, base.total_cycles());
    println!("\nenergy efficiency vs DaDN (power model x measured cycles):");
    for (design, r) in [
        (Design::Stripes, &str_r),
        (Design::Pra { first_stage_bits: 2, ssrs: 0 }, &pra2b),
        (Design::Pra { first_stage_bits: 2, ssrs: 1 }, &pra1r),
    ] {
        let rep = EnergyReport::new(design, r.total_cycles());
        println!(
            "  {:12} power {:>5.1} W  efficiency {:>5.2}x",
            design.label(),
            rep.power_w,
            efficiency(&base_e, &rep)
        );
    }
}
