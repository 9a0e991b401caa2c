//! Figure 3 — convolutional-layer computational demands with the 8-bit
//! quantized baseline: equivalent terms relative to the bit-parallel
//! engine for ideal zero skipping and ideal Pragmatic. Paper averages:
//! zero skipping removes ~30% of terms (ZN ≈ 70%), PRA removes up to 71%
//! (PRA ≈ 29%).

use pra_bench::{build_workloads, pct, per_network, vs, Table};
use pra_engines::potential;
use pra_sim::geomean;
use pra_workloads::Representation;

fn main() {
    let workloads = build_workloads(Representation::Quant8);
    let terms = per_network(&workloads, |w| potential::network_terms(w));

    let mut table = Table::new(["network", "ZN", "PRA"]);
    let (mut zs, mut ps) = (vec![], vec![]);
    for (w, t) in workloads.iter().zip(&terms) {
        let n = t.normalized();
        zs.push(n.zn);
        ps.push(n.pra);
        table.row([w.network.name().to_string(), pct(n.zn), pct(n.pra)]);
    }
    table.row([
        "geomean".to_string(),
        vs(&pct(geomean(&zs)), "70.0%"),
        vs(&pct(geomean(&ps)), "29.0%"),
    ]);
    table.print_and_save(
        "Figure 3: terms relative to the 8-bit bit-parallel baseline, measured (paper)",
        "fig3_potential_quant8",
    );
}
