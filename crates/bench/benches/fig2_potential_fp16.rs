//! Figure 2 — convolutional-layer computational demands with the 16-bit
//! fixed-point baseline: equivalent terms relative to DaDN for ZN (ideal
//! zero skip), CVN (Cnvlutin), Stripes, ideal PRA-fp16 and PRA-red.
//! Lower is better. Paper averages: ZN 39%, CVN 63%, STR 53%, PRA 10%,
//! PRA-red 8%.

use pra_bench::{build_workloads, pct, per_network, vs, Table};
use pra_engines::potential;
use pra_sim::geomean;
use pra_workloads::Representation;

fn main() {
    let workloads = build_workloads(Representation::Fixed16);
    let terms = per_network(&workloads, |w| potential::network_terms(w));

    let paper = [
        // Read off Fig. 2 bars per network: (zn, cvn, stripes, pra, pra_red).
        (0.36, 0.58, 0.55, 0.08, 0.05),
        (0.45, 0.70, 0.52, 0.11, 0.09),
        (0.32, 0.56, 0.57, 0.07, 0.06),
        (0.28, 0.61, 0.45, 0.06, 0.04),
        (0.32, 0.59, 0.49, 0.06, 0.05),
        (0.50, 0.79, 0.75, 0.14, 0.11),
    ];

    let mut table =
        Table::new(["network", "ZN", "CVN", "Stripes", "PRA-fp16", "PRA-red", "PRA-csd*"]);
    let mut cols: Vec<Vec<f64>> = vec![vec![]; 6];
    for ((w, t), p) in workloads.iter().zip(&terms).zip(paper) {
        let n = t.normalized();
        for (c, v) in cols.iter_mut().zip([n.zn, n.cvn, n.stripes, n.pra, n.pra_red, n.pra_csd]) {
            c.push(v);
        }
        table.row([
            w.network.name().to_string(),
            vs(&pct(n.zn), &pct(p.0)),
            vs(&pct(n.cvn), &pct(p.1)),
            vs(&pct(n.stripes), &pct(p.2)),
            vs(&pct(n.pra), &pct(p.3)),
            vs(&pct(n.pra_red), &pct(p.4)),
            pct(n.pra_csd),
        ]);
    }
    table.row([
        "geomean".to_string(),
        vs(&pct(geomean(&cols[0])), "39.0%"),
        vs(&pct(geomean(&cols[1])), "63.0%"),
        vs(&pct(geomean(&cols[2])), "53.0%"),
        vs(&pct(geomean(&cols[3])), "10.0%"),
        vs(&pct(geomean(&cols[4])), "8.0%"),
        pct(geomean(&cols[5])),
    ]);
    table.print_and_save("Figure 2: terms relative to DaDN, 16-bit fixed point, measured (paper); * = CSD extension, not in the paper", "fig2_potential_fp16");
}
