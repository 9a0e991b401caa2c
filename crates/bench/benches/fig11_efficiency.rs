//! Figure 11 — relative energy efficiency over DaDN for Stripes, PRA-4b,
//! PRA-2b and PRA-2b-1R. Paper geo means: STR 1.16, PRA-4b 0.95 (the
//! single-stage datapath burns its speedup), PRA-2b 1.28, PRA-2b-1R 1.48.

use pra_bench::{build_workloads, fidelity, per_network, run_pra, times, vs, Table};
use pra_core::PraConfig;
use pra_energy::efficiency::{efficiency, EnergyReport};
use pra_energy::unit::Design;
use pra_engines::{dadn, stripes};
use pra_sim::{geomean, ChipConfig};
use pra_workloads::Representation;

fn main() {
    let chip = ChipConfig::dadn();
    let workloads = build_workloads(Representation::Fixed16);

    let configs = [
        (
            PraConfig::single_stage(Representation::Fixed16),
            Design::Pra { first_stage_bits: 4, ssrs: 0 },
        ),
        (
            PraConfig::two_stage(2, Representation::Fixed16),
            Design::Pra { first_stage_bits: 2, ssrs: 0 },
        ),
        (
            PraConfig::per_column(1, Representation::Fixed16),
            Design::Pra { first_stage_bits: 2, ssrs: 1 },
        ),
    ];

    let rows = per_network(&workloads, |w| {
        let base = EnergyReport::new(Design::Dadn, dadn::run(&chip, w).total_cycles());
        let str_rep = EnergyReport::new(Design::Stripes, stripes::run(&chip, w).total_cycles());
        let mut effs = vec![efficiency(&base, &str_rep)];
        let pra: Vec<PraConfig> =
            configs.iter().map(|(c, _)| c.with_fidelity(fidelity())).collect();
        for (run, (_, design)) in run_pra(&pra, w).iter().zip(&configs) {
            effs.push(efficiency(&base, &EnergyReport::new(*design, run.total_cycles())));
        }
        effs
    });

    let mut table = Table::new(["network", "Stripes", "PRA-4b", "PRA-2b", "PRA-2b-1R"]);
    let mut cols: Vec<Vec<f64>> = vec![vec![]; 4];
    for (w, effs) in workloads.iter().zip(&rows) {
        for (c, v) in cols.iter_mut().zip(effs) {
            c.push(*v);
        }
        table.row([
            w.network.name().to_string(),
            times(effs[0]),
            times(effs[1]),
            times(effs[2]),
            times(effs[3]),
        ]);
    }
    table.row([
        "geomean".to_string(),
        vs(&times(geomean(&cols[0])), "1.16x"),
        vs(&times(geomean(&cols[1])), "0.95x"),
        vs(&times(geomean(&cols[2])), "1.28x"),
        vs(&times(geomean(&cols[3])), "1.48x"),
    ]);
    table.print_and_save(
        "Figure 11: energy efficiency relative to DaDN, measured (paper)",
        "fig11_efficiency",
    );
}
