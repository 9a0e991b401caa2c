//! Ablation A5 — throughput-boosted PIPs: consume 2 oneffsets per lane
//! per cycle through replicated first-stage shifters and a 32-input adder
//! tree. This is the natural next step after CSD encoding (follow-up
//! designs in the Stripes/Pragmatic line took it); the question is whether
//! the extra datapath pays for itself in performance per area.

use pra_bench::{build_workloads, fidelity, per_network, run_pra, times, Table};
use pra_core::PraConfig;
use pra_energy::chip::{chip_area_mm2, chip_power_w};
use pra_energy::unit::Design;
use pra_engines::dadn;
use pra_sim::{geomean, ChipConfig};
use pra_workloads::Representation;

fn main() {
    let chip = ChipConfig::dadn();
    let workloads = build_workloads(Representation::Fixed16);

    let rows = per_network(&workloads, |w| {
        let base = dadn::run(&chip, w);
        let x1 = PraConfig::two_stage(2, Representation::Fixed16).with_fidelity(fidelity());
        let x2 = PraConfig { oneffsets_per_cycle: 2, ..x1 };
        let runs = run_pra(&[x1, x2], w);
        (runs[0].speedup_over(&base), runs[1].speedup_over(&base))
    });

    let mut table = Table::new(["network", "PRA-2b (x1)", "PRA-2b-x2"]);
    let (mut s1, mut s2) = (vec![], vec![]);
    for (w, (a, b)) in workloads.iter().zip(&rows) {
        s1.push(*a);
        s2.push(*b);
        table.row([w.network.name().to_string(), times(*a), times(*b)]);
    }
    table.row(["geomean".to_string(), times(geomean(&s1)), times(geomean(&s2))]);
    table.print("Ablation: one vs two oneffsets per lane per cycle, pallet sync");

    let a1 = chip_area_mm2(Design::Pra { first_stage_bits: 2, ssrs: 0 });
    let a2 = chip_area_mm2(Design::PraBoosted { first_stage_bits: 2, per_cycle: 2 });
    let p1 = chip_power_w(Design::Pra { first_stage_bits: 2, ssrs: 0 });
    let p2 = chip_power_w(Design::PraBoosted { first_stage_bits: 2, per_cycle: 2 });
    let g1 = geomean(&s1);
    let g2 = geomean(&s2);
    println!(
        "chip area: {a1:.0} -> {a2:.0} mm2 (+{:.0}%), power {p1:.1} -> {p2:.1} W (+{:.0}%)",
        100.0 * (a2 / a1 - 1.0),
        100.0 * (p2 / p1 - 1.0)
    );
    println!(
        "performance/area: {:.3} -> {:.3} (relative to DaDN-normalized area)",
        g1 / a1,
        g2 / a2
    );
    println!(
        "Doubling lane throughput buys ~{:.0}% performance for ~{:.0}% more\n\
         chip area — area-efficient in itself, but the one-SSR column-sync\n\
         option (+35% for ~1% area, Fig. 10) dominates it and should be\n\
         spent first; the two compose, which is the direction the follow-up\n\
         bit-serial designs took.",
        100.0 * (g2 / g1 - 1.0),
        100.0 * (a2 / a1 - 1.0)
    );
}
