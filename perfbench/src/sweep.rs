//! The sweep phase: the cold fill that sets a workload up, the untimed
//! reference rows it leaves behind, and the warm sweeps, untraced
//! (`pra_bench::sweep::run_sweep` itself) and traced (the same job body
//! rebuilt here from the layers' public functions, one span per call).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rayon::prelude::*;

use pra_bench::sweep::{csv_rows, pra_configs, repr_label, run_sweep, SweepConfig, SweepRow};
use pra_core::{simulate_layer_shared, Fidelity, SharedEncodedNetwork};
use pra_engines::{dadn, stripes};
use pra_sim::{ChipConfig, RunResult};
use pra_workloads::cache::{sha256, ArtifactKind, ArtifactStore, CacheOutcome};
use pra_workloads::{LayerView, Network, Representation};

use crate::trace::{ms, now, Recorder, Span};

/// Every tier of the store rooted at `dir`.
pub fn store_at(dir: &Path) -> ArtifactStore {
    ArtifactStore::new(dir)
        .tier(ArtifactKind::Workload)
        .tier(ArtifactKind::Traffic)
        .tier(ArtifactKind::Encoded)
}

/// The full paper sweep at `seed`: all six networks, both
/// representations, full fidelity, on the parallel pool. Fidelity is
/// fixed here, so an inherited `PRA_BENCH_PALLETS` never applies.
pub fn config(store: ArtifactStore, seed: u64) -> SweepConfig {
    SweepConfig {
        networks: Network::ALL.to_vec(),
        representations: vec![Representation::Fixed16, Representation::Quant8],
        seed,
        fidelity: Fidelity::Full,
        parallel: true,
        store,
    }
}

/// The sweep CSV exactly as `pra sweep` writes it.
pub fn csv(rows: &[SweepRow]) -> String {
    let mut out = pra_bench::sweep::CSV_HEADER.join(",");
    out.push('\n');
    for row in csv_rows(rows) {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Hex SHA-256 of `bytes`.
pub fn sha_hex(bytes: &[u8]) -> String {
    sha256(bytes).iter().map(|b| format!("{b:02x}")).collect()
}

/// File the cold fill leaves the rows of `seed` in.
pub fn cold_rows_path(dir: &Path, seed: u64) -> std::path::PathBuf {
    dir.join(format!("cold-{seed:016x}.csv"))
}

/// The cold fill, run in a fresh process so the calibration fit is paid
/// again: sweeps `seed` into the store at `dir`, which must not hold it
/// yet, and leaves the seed's CSV next to it.
///
/// # Errors
///
/// When a job found its artifacts already stored, or the CSV cannot be
/// written.
pub fn fill(dir: &Path, seed: u64) -> Result<(), String> {
    let out = run_sweep(&config(store_at(dir), seed));
    if let Some(t) = out.timings.iter().find(|t| t.cache != "miss" || t.encoded != "miss") {
        return Err(format!(
            "cold fill of seed {seed:#x}: {}/{} was not a miss (workload {}, encoded {})",
            t.network, t.repr, t.cache, t.encoded
        ));
    }
    let path = cold_rows_path(dir, seed);
    std::fs::write(&path, csv(&out.rows)).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One untraced warm sweep.
pub struct Warm {
    /// The rows, for the correctness gate.
    pub rows: Vec<SweepRow>,
    /// Host wall time of the whole sweep, ms.
    pub wall_ms: f64,
    /// Jobs whose workload and encoded artifacts both came off disk.
    pub warm_jobs: usize,
}

/// Runs one untraced warm sweep at `seed` through `run_sweep`.
pub fn warm(store: &ArtifactStore, seed: u64) -> Warm {
    let cfg = config(store.clone(), seed);
    let t = now();
    let out = run_sweep(&cfg);
    let wall_ms = ms(t, now());
    let warm_jobs = out.timings.iter().filter(|t| t.cache == "hit" && t.encoded == "hit").count();
    Warm { rows: out.rows, wall_ms, warm_jobs }
}

/// Host time of one simulated conv layer on one engine in a traced sweep.
pub struct LayerTime {
    /// Network name.
    pub network: &'static str,
    /// Representation label.
    pub repr: &'static str,
    /// Engine label.
    pub engine: String,
    /// Layer index within the network.
    pub layer: usize,
    /// Layer name.
    pub name: String,
    /// Host milliseconds.
    pub ms: f64,
}

/// One traced warm sweep.
pub struct Traced {
    /// The rows, which must equal the untraced sweep's.
    pub rows: Vec<SweepRow>,
    /// Every span of every job.
    pub spans: Vec<Span>,
    /// Host wall time of the whole sweep, ms.
    pub wall_ms: f64,
    /// Per (network, engine, layer) host time.
    pub layers: Vec<LayerTime>,
    /// Jobs whose workload came off disk.
    pub workload_hits: usize,
    /// Jobs whose encoded artifacts came off disk.
    pub encoded_hits: usize,
}

/// One job's traced output.
struct Job {
    rows: Vec<SweepRow>,
    spans: Vec<Span>,
    layers: Vec<LayerTime>,
    workload_hit: bool,
    encoded_hit: bool,
}

/// Runs one warm sweep with a span around every call into `workloads`,
/// `core` and `engines`, fanning the jobs out on the pool as
/// `run_sweep` does. `tag` prefixes each job's span group.
pub fn traced(store: &ArtifactStore, seed: u64, origin: Instant, tag: &str) -> Traced {
    let jobs: Vec<(Network, Representation)> = Network::ALL
        .iter()
        .flat_map(|&n| [Representation::Fixed16, Representation::Quant8].map(|r| (n, r)))
        .collect();
    let t = now();
    let done: Vec<Job> =
        jobs.into_par_iter().map(|(net, repr)| job(store, seed, net, repr, origin, tag)).collect();
    let wall_ms = ms(t, now());
    let mut out = Traced {
        rows: Vec::new(),
        spans: Vec::new(),
        wall_ms,
        layers: Vec::new(),
        workload_hits: 0,
        encoded_hits: 0,
    };
    for j in done {
        out.rows.extend(j.rows);
        crate::trace::merge(&mut out.spans, j.spans);
        out.layers.extend(j.layers);
        out.workload_hits += usize::from(j.workload_hit);
        out.encoded_hits += usize::from(j.encoded_hit);
    }
    out
}

/// One job's recorder plus its per-layer host-time rows.
struct JobTrace {
    rec: Recorder,
    root: usize,
    network: &'static str,
    repr: &'static str,
    layers: Vec<LayerTime>,
}

impl JobTrace {
    /// Times `f` as one conv layer of `engine`, recorded as a `span`
    /// under the job and as a row of the per-layer table.
    fn layer<R>(
        &mut self,
        span: &str,
        engine: &str,
        idx: usize,
        name: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        let t = now();
        let r = f();
        let end = now();
        let (s, e) = (self.rec.at(t), self.rec.at(end));
        self.rec.record_ms(span, Some(self.root), s, e);
        self.layers.push(LayerTime {
            network: self.network,
            repr: self.repr,
            engine: engine.to_string(),
            layer: idx,
            name: name.to_string(),
            ms: ms(t, end),
        });
        r
    }
}

/// The body of one sweep job, call for call as `run_sweep` makes it,
/// except that the baseline engines run one layer per call so each
/// layer's host time shows; their results are the same.
fn job(
    store: &ArtifactStore,
    seed: u64,
    net: Network,
    repr: Representation,
    origin: Instant,
    tag: &str,
) -> Job {
    let repr_name = repr_label(repr);
    let mut rec = Recorder::new(origin, format!("{tag}/{}/{repr_name}", net.name()));
    let root = rec.begin("bench.job", None);
    let mut jt = JobTrace { rec, root, network: net.name(), repr: repr_name, layers: Vec::new() };
    let p = Some(root);
    let (workload, source) = jt.rec.time("workloads.source", p, || store.workload(net, repr, seed));
    let configs = pra_configs(repr, Fidelity::Full);
    let workload = Arc::new(workload);
    let build = jt.rec.time("core.build.start", p, || {
        SharedEncodedNetwork::start_pipelined(&configs, &workload, seed, store)
    });
    let mut pra = Vec::with_capacity(configs.len());
    for cfg in &configs {
        let label = cfg.label();
        let span = format!("core.sim.{label}");
        let mut result = RunResult::new(label.clone());
        for (idx, layer) in workload.layers.iter().enumerate() {
            let (sched, traffic) = jt.rec.time("core.build.wait", p, || build.artifacts(idx, cfg));
            let r = jt.layer(&span, &label, idx, layer.spec.name(), || {
                simulate_layer_shared(cfg, layer.view(), &sched, traffic.as_ref())
            });
            result.layers.push(r);
        }
        pra.push(result);
    }
    let encoded_hit = build.encoded_outcome() == CacheOutcome::Hit;
    let shared = jt.rec.time("core.build.finish", p, || build.finish(store));

    let chip = ChipConfig::dadn();
    let views: Vec<LayerView<'_>> = workload.layers.iter().map(|l| l.view()).collect();
    let traffic = shared.traffic_view(&chip, Default::default(), repr);
    let baselines = ["DaDN", "Stripes"].map(|engine| {
        let span = format!("engines.{}", engine.to_lowercase());
        let mut result = RunResult::new(engine);
        for (idx, view) in views.iter().enumerate() {
            let one = std::slice::from_ref(view);
            let t = traffic.map(|t| &t[idx..=idx]);
            let r = jt.layer(&span, engine, idx, view.spec.name(), || match engine {
                "DaDN" => dadn::run_views(&chip, one, repr, t),
                _ => stripes::run_views(&chip, one, repr, t),
            });
            result.layers.extend(r.layers);
        }
        result
    });

    let base = &baselines[0];
    let row = |r: &RunResult| SweepRow {
        network: net.name().to_string(),
        repr: repr_name.to_string(),
        engine: r.engine.clone(),
        cycles: r.total_cycles(),
        terms: r.total_terms(),
        speedup: r.speedup_over(base),
    };
    let rows: Vec<SweepRow> = baselines.iter().chain(&pra).map(row).collect();
    jt.rec.end(root);
    Job {
        rows,
        spans: jt.rec.into_spans(),
        layers: jt.layers,
        workload_hit: source == CacheOutcome::Hit,
        encoded_hit,
    }
}

/// Sums `f` over the spans named `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::dur_ms).sum()
}

/// Per-engine simulated cycles over `rows`.
pub fn cycles_by_engine(rows: &[SweepRow]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for r in rows {
        *out.entry(r.engine.clone()).or_insert(0) += r.cycles;
    }
    out
}
