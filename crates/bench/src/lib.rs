//! Reproduction harness shared by the per-table/per-figure bench targets.
//!
//! Every quantitative table and figure of the paper's evaluation has a
//! bench target (`cargo bench -p pra-bench --bench <id>`) that regenerates
//! it and prints paper-vs-measured rows; see DESIGN.md §4 for the index.
//! This library provides the shared machinery: deterministic seeds,
//! simulation fidelity, parallel workload construction, and aligned table
//! rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod sweep;

use std::fmt::Write as _;
use std::sync::Arc;

use pra_core::{Fidelity, PraConfig, SharedEncodedNetwork};
use pra_sim::RunResult;
use pra_workloads::cache::ArtifactStore;
use pra_workloads::{Network, NetworkWorkload, Representation};
use rayon::prelude::*;

/// Deterministic seed shared by all reproduction benches.
pub const SEED: u64 = 0x90AD_57EE_1234_5678;

/// Simulation fidelity used by the cycle-level benches: **full** by
/// default — every pallet of every layer is simulated, so the bench
/// tables are the paper-comparable numbers with no sampling error. The
/// escape hatch for constrained machines is `PRA_BENCH_PALLETS=<n>`
/// (deterministically spaced sampling, converges within a couple of
/// percent by 64 pallets/layer); `PRA_BENCH_PALLETS=full` spells the
/// default explicitly.
pub fn fidelity() -> Fidelity {
    match std::env::var("PRA_BENCH_PALLETS").ok().as_deref() {
        None | Some("full") => Fidelity::Full,
        Some(n) => Fidelity::Sampled { max_pallets: n.parse().unwrap_or(64) },
    }
}

/// Builds the workloads for all six networks on the rayon pool (each
/// build additionally fans its row-generation jobs out, so small
/// networks do not serialize behind VGG-19), shared so a
/// [`SharedEncodedNetwork`] build can hold them.
pub fn build_workloads(repr: Representation) -> Vec<Arc<NetworkWorkload>> {
    Network::ALL.par_iter().map(|&net| Arc::new(NetworkWorkload::build(net, repr, SEED))).collect()
}

/// Runs `f` once per network workload, in parallel, preserving order.
pub fn per_network<R: Send>(
    workloads: &[Arc<NetworkWorkload>],
    f: impl Fn(&Arc<NetworkWorkload>) -> R + Sync,
) -> Vec<R> {
    workloads.par_iter().map(&f).collect()
}

/// Simulates every design point of `configs` on `workload`, in order,
/// against one diskless shared build — the sweep's reuse (§VI-A: every
/// design sees the same neuron streams), without touching the artifact
/// store.
pub fn run_pra(configs: &[PraConfig], workload: &Arc<NetworkWorkload>) -> Vec<RunResult> {
    let store = ArtifactStore::at_default().no_disk();
    let build = SharedEncodedNetwork::start_pipelined(configs, workload, SEED, &store);
    let runs = configs.iter().map(|cfg| pra_core::run(cfg, workload, &build, |_, _| {})).collect();
    build.finish(&store);
    runs
}

/// An aligned text table for paper-vs-measured reporting.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one row (stringified cells).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        fn line(out: &mut String, cells: &[String], widths: &[usize]) {
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = *w);
            }
            out.push('\n');
        }
        let mut out = String::new();
        line(&mut out, &self.header, &widths);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row, &widths);
        }
        out
    }

    /// Prints the table to stdout with a title banner.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===\n{}", self.render());
    }

    /// Prints the table and also drops it as `target/pra-reports/<id>.csv`.
    pub fn print_and_save(&self, title: &str, id: &str) {
        self.print(title);
        let header: Vec<&str> = self.header.iter().map(String::as_str).collect();
        let _ = report::write_csv(id, &header, &self.rows);
    }
}

/// Formats a fraction as a percentage with one decimal, e.g. `"12.7%"`.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats a speedup/ratio with two decimals and an `x`, e.g. `"2.59x"`.
pub fn times(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a paper-vs-measured pair as `measured (paper)`.
pub fn vs(measured: &str, paper: &str) -> String {
    format!("{measured} ({paper})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["net", "value"]);
        t.row(["Alexnet", "1.0"]).row(["VGG19", "12.75"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("net"));
        assert!(lines[3].ends_with("12.75"));
        // Columns align right.
        assert_eq!(lines[2].find("1.0").map(|i| i + 3), lines[3].find("12.75").map(|i| i + 5));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        Table::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.127), "12.7%");
        assert_eq!(times(2.591), "2.59x");
        assert_eq!(vs("2.43x", "2.59x"), "2.43x (2.59x)");
    }

    #[test]
    fn fidelity_default_is_full() {
        match fidelity() {
            Fidelity::Full => {}
            // The escape hatch may be active in the environment; it must
            // at least parse to a sane pallet budget.
            Fidelity::Sampled { max_pallets } => assert!(max_pallets >= 1),
        }
    }
}
