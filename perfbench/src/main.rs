//! The repository's benchmark: one command, two workloads, every
//! end-to-end metric by name and unit, every output checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. A run sets its workload up (three
//! cold fills of one seed each, every one in a fresh process; then a
//! server boot and a warm-up pass), times warm sweeps, then drives the
//! server open-loop on a fixed schedule. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Spans, the per-layer host-time
//! table and the environment land under `.bench_out/`. See README.md.

mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use pra_workloads::cache::ArtifactStore;

use pra_bench::sweep::SweepRow;
use pra_serve::StatsSnapshot;

use crate::serve::{Exchange, Expect, Pace};
use crate::stats::{mean, median, pct, ratio};
use crate::trace::{ms, now, Recorder, Span};

/// Cold fills per run, each of one seed in a fresh process; `setup_s`
/// and `peak_rss_mb` take their median.
const FILL_REPS: usize = 3;
/// Requests in the closed-loop warm-up pass (window 8, as
/// `pra bench-serve` runs); the first 64 are what the serve golden pins.
const WARMUP: usize = 96;
/// Requests the serve golden covers.
const GOLDEN_REQUESTS: usize = 64;
/// Seconds of a run set aside for the warm sweeps. Serving gets the rest
/// of `--seconds` at the workload's rate, so every run of the same
/// length sends the same requests, however long its sweeps took.
const SWEEP_ALLOWANCE_S: f64 = 8.0;
/// The highest whole percentile of a pass of `n` requests that leaves at
/// least ten samples beyond it: the tail a run can support (the 98th of
/// `hot`'s 512 requests, the 94th of `churn`'s 192 at `--seconds 40`).
fn tail_quantile(n: usize) -> f64 {
    ((100.0 * (1.0 - 10.0 / n as f64)).floor() / 100.0).max(0.5)
}

/// Timed warm sweeps per run.
const SWEEPS: usize = 4;
/// The generator counts as behind its schedule when the 99th
/// percentile of its send lag exceeds this.
const MAX_LAG_MS: f64 = 20.0;

/// A named traffic regime.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    /// One seed; warm sweeps; v2 requests that all hit the artifact pool.
    Hot,
    /// Three seeds; warm sweeps; v1 requests over 36 workloads that
    /// churn the 16-entry artifact pool.
    Churn,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "hot" => Some(Workload::Hot),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot",
            Workload::Churn => "churn",
        }
    }

    /// The workload seeds a benchmark seed stands for. Benchmark seed 0
    /// maps to the repository's default seed, which the goldens pin.
    fn seeds(self, seed: u64) -> Vec<u64> {
        let derive = |n: u64| pra_bench::SEED.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match self {
            Workload::Hot => vec![derive(seed)],
            Workload::Churn => (0..3).map(|k| derive(3 * seed + k)).collect(),
        }
    }

    /// The `i`-th request of the closed-loop warm-up pass.
    fn warm_up_request(self, i: usize, seeds: &[u64]) -> pra_serve::Request {
        match self {
            Workload::Hot => serve::hot_request(i, seeds[0]),
            Workload::Churn => serve::churn_request(i, seeds),
        }
    }

    /// The `i`-th request of an open-loop pass.
    fn request(self, i: usize, seeds: &[u64]) -> pra_serve::Request {
        match self {
            Workload::Hot => serve::hot_open_request(i, seeds[0]),
            Workload::Churn => serve::churn_request(i, seeds),
        }
    }

    /// Open-loop arrival rate, requests per second. Both open-loop mixes
    /// spread their slow VGG19 requests out, and at these rates two cores
    /// stay well short of saturation, so latency follows the work each
    /// request asks for rather than a queue, which would magnify every
    /// change in the machine's speed.
    fn rate(self) -> f64 {
        match self {
            Workload::Hot => 16.0,
            Workload::Churn => 6.0,
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload} (hot, churn)"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    };
    if kv.len() != 4 || !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err(
            "usage: --workload <hot|churn> --seed <n> --seconds <s> --trace <0|1>".to_string()
        );
    }
    Ok(args)
}

/// Refuses to measure under fault injection or with the cache disabled.
fn check_env() -> Result<(), String> {
    if std::env::var("PRA_CHAOS").is_ok_and(|v| !v.trim().is_empty()) {
        return Err("PRA_CHAOS is armed; refusing to measure under fault injection".to_string());
    }
    if std::env::var("PRA_NO_CACHE").is_ok_and(|v| !v.is_empty() && v != "0") {
        return Err("PRA_NO_CACHE is set; the warm workloads need the artifact store".to_string());
    }
    Ok(())
}

/// What the results depend on besides the code: core count, pool size
/// and compiler.
fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rayon_env = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".to_string());
    let rustc = Command::new("rustc")
        .arg("--version")
        .stderr(Stdio::null())
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let js = pra_bench::report::json_string;
    format!(
        "{{\"nproc\": {nproc}, \"rayon_threads\": {}, \"RAYON_NUM_THREADS\": {}, \"rustc\": {}}}",
        rayon::current_num_threads(),
        js(&rayon_env),
        js(&rustc)
    )
}

/// Removes the run's scratch stores however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Counts operations and remembers why any failed.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failures: Vec<String>,
}

impl Gate {
    fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// A check that is not an operation of its own.
    fn require(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("{what}: {}", detail()));
        }
    }
}

/// A metric value with its unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--fill") {
        std::process::exit(fill_main(&argv[1..]));
    }
    match run(&argv) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// The fill process: `--fill <dir> <seed>`. Prints its peak memory.
fn fill_main(argv: &[String]) -> i32 {
    let filled = match argv {
        [dir, seed] => seed
            .parse()
            .map_err(|e| format!("bad seed {seed}: {e}"))
            .and_then(|seed| sweep::fill(Path::new(dir), seed))
            .and_then(|()| peak_rss_mb()),
        _ => Err("usage: --fill <dir> <seed>".to_string()),
    };
    match filled {
        Ok(rss) => {
            println!("{rss}");
            0
        }
        Err(e) => {
            eprintln!("perfbench --fill: {e}");
            1
        }
    }
}

/// One cold fill of `seed` in a fresh process that inherits no `PRA_*`
/// setting; returns its wall time in ms and its peak resident memory
/// in MiB.
fn cold_fill(dir: &Path, seed: u64) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--fill").arg(dir).arg(seed.to_string());
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("PRA_") {
            cmd.env_remove(k);
        }
    }
    let t = now();
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn fill: {e}"))?;
    let wall = ms(t, now());
    if !out.status.success() {
        return Err(format!("fill process failed: {}", out.status));
    }
    let rss = String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("fill process reported no peak memory: {e}"))?;
    Ok((wall, rss))
}

fn read_golden(name: &str) -> Result<String, String> {
    let path = Path::new("tests/golden").join(name);
    std::fs::read_to_string(&path)
        .map(|s| s.trim().to_string())
        .map_err(|e| format!("reading {}: {e}", path.display()))
}

/// What the checks of a run compare against.
struct Reference {
    /// The workload seeds.
    seeds: Vec<u64>,
    /// Each seed's rows as its cold fill wrote them.
    cold: BTreeMap<u64, String>,
    /// The sweep golden, at the default seed only (it pins that seed).
    golden_sweep: Option<String>,
}

impl Reference {
    /// A warm sweep's rows must equal the cold rows of its seed and, at
    /// the default seed, the golden.
    fn check_sweep(&self, seed: u64, rows: &[SweepRow]) -> Result<(), String> {
        let csv = sweep::csv(rows);
        if self.cold.get(&seed) != Some(&csv) {
            return Err(format!("warm rows differ from cold rows at seed {seed:#x}"));
        }
        match &self.golden_sweep {
            Some(g) if seed == self.seeds[0] && sweep::sha_hex(csv.as_bytes()) != *g => {
                Err("warm sweep CSV differs from the golden".to_string())
            }
            _ => Ok(()),
        }
    }
}

/// The set-up's cold fills and the store the run keeps.
struct Setup {
    /// Wall time of each fill process, ms.
    fill_ms: Vec<f64>,
    /// Peak resident memory of each fill process, MiB.
    fill_rss: Vec<f64>,
    store: ArtifactStore,
    reference: Reference,
}

/// Cold fills of one seed each, every one in a fresh process and into a
/// store that has never seen that seed. The last fills build the store
/// the run keeps, one per workload seed; the ones before them fill
/// throwaway stores.
fn set_up(
    scratch: &Path,
    seeds: &[u64],
    golden_sweep: Option<String>,
    gate: &mut Gate,
) -> Result<Setup, String> {
    let (mut fill_ms, mut fill_rss) = (Vec::new(), Vec::new());
    let mut cold: BTreeMap<u64, String> = BTreeMap::new();
    let store_dir = scratch.join("store");
    for rep in 0..FILL_REPS {
        let seed = seeds[rep % seeds.len()];
        let keep = rep + seeds.len() >= FILL_REPS;
        let dir = if keep { store_dir.clone() } else { scratch.join(format!("fill{rep}")) };
        let (wall, rss) = cold_fill(&dir, seed)?;
        fill_ms.push(wall);
        fill_rss.push(rss);
        let path = sweep::cold_rows_path(&dir, seed);
        let rows = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let first = cold.entry(seed).or_insert_with(|| rows.clone());
        let same = (*first == rows).then_some(());
        gate.op("cold fill", same.ok_or_else(|| format!("seed {seed:#x}: rows differ")));
        if !keep {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    if let Some(g) = &golden_sweep {
        let sha = sweep::sha_hex(cold[&seeds[0]].as_bytes());
        gate.require("cold sweep golden", sha == *g, || sha);
    }
    let reference = Reference { seeds: seeds.to_vec(), cold, golden_sweep };
    Ok(Setup { fill_ms, fill_rss, store: sweep::store_at(&store_dir), reference })
}

/// One untimed warm sweep, then [`SWEEPS`] timed ones rotating over the
/// seeds; returns their wall times in ms.
fn warm_sweeps(store: &ArtifactStore, r: &Reference, gate: &mut Gate) -> Vec<f64> {
    let mut walls = Vec::new();
    for k in 0..=SWEEPS {
        let seed = r.seeds[k.saturating_sub(1) % r.seeds.len()];
        let w = sweep::warm(store, seed);
        gate.op("warm sweep", r.check_sweep(seed, &w.rows));
        gate.require("warm sweep is warm", w.warm_jobs == 12, || {
            format!("{}/12 jobs came off disk", w.warm_jobs)
        });
        if k > 0 {
            walls.push(w.wall_ms);
        }
    }
    walls
}

/// One open-loop pass and the server's counters around it.
struct Pass {
    exs: Vec<Exchange>,
    /// Latency of each request from its due time, ms; a failed request
    /// counts as never answered.
    latency: Vec<f64>,
    /// Time from due to the first line back, ms, on the same terms.
    first: Vec<f64>,
    before: StatsSnapshot,
    after: StatsSnapshot,
}

/// The serving phase of a run.
struct Serving {
    /// Server boot plus the warm-up pass, ms.
    boot_ms: f64,
    untraced: Pass,
    traced: Option<Pass>,
}

/// Boots the server over the warm store, runs the closed-loop warm-up
/// pass (checked, and at the default seed on `hot` held to the serve
/// golden), then one open-loop pass of `n` requests, and a second one
/// when tracing.
fn serve_phase(
    wl: Workload,
    args: &Args,
    setup: &Setup,
    golden_serve: Option<String>,
    n: usize,
    gate: &mut Gate,
) -> Result<Serving, String> {
    let seeds = &setup.reference.seeds;
    let mut expect = Expect::default();
    for (&s, rows) in &setup.reference.cold {
        expect.add_csv(s, rows)?;
    }
    let t_boot = now();
    let server = serve::boot(setup.store.clone())?;
    let mut client = serve::Client::connect(server.addr)?;
    let warm_reqs: Vec<_> = (0..WARMUP).map(|i| wl.warm_up_request(i, seeds)).collect();
    let warm = client.drive(&warm_reqs, &Pace::Closed(8))?;
    let boot_ms = ms(t_boot, now());
    for ex in &warm {
        gate.op("warm-up request", expect.check(ex));
    }
    if let (Workload::Hot, Some(g)) = (wl, &golden_serve) {
        let mut fp = String::new();
        for ex in &warm[..GOLDEN_REQUESTS] {
            fp.push_str(&serve::fingerprint_line(ex.answer()));
            fp.push('\n');
        }
        let sha = sweep::sha_hex(fp.as_bytes());
        gate.require("serve golden", sha == *g, || sha);
    }

    let mut pass = |first_id: usize, gate: &mut Gate| -> Result<Pass, String> {
        let reqs: Vec<_> = (first_id..first_id + n).map(|i| wl.request(i, seeds)).collect();
        let schedule = serve::schedule(n, wl.rate(), args.seed ^ first_id as u64);
        let before = serve::stats(server.addr)?;
        let exs = client.drive(&reqs, &Pace::Open(schedule))?;
        let after = serve::stats(server.addr)?;
        let (mut latency, mut first) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for ex in &exs {
            let checked = expect.check(ex);
            let ok = checked.is_ok();
            gate.op("request", checked);
            let since_due = |t: Option<std::time::Instant>| match t {
                Some(t) if ok => ms(ex.due, t),
                _ => f64::INFINITY,
            };
            latency.push(since_due(ex.done));
            first.push(since_due(ex.first));
        }
        Ok(Pass { exs, latency, first, before, after })
    };
    let untraced = pass(WARMUP, gate)?;
    let traced = if args.trace { Some(pass(WARMUP + n, gate)?) } else { None };
    client.close();
    server.stop()?;
    Ok(Serving { boot_ms, untraced, traced })
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    check_env()?;
    let wl = args.workload;
    let seeds = wl.seeds(args.seed);
    // The goldens pin the repository's default seed, benchmark seed 0.
    let (golden_sweep, golden_serve) = if args.seed == 0 {
        (Some(read_golden("sweep_full.sha256")?), Some(read_golden("serve_responses.sha256")?))
    } else {
        (None, None)
    };
    let env = environment();
    eprintln!(
        "perfbench: workload {} seed {} trace {} env {env}",
        wl.name(),
        args.seed,
        args.trace
    );

    let out_dir = PathBuf::from(".bench_out").join(format!(
        "{}-seed{}-trace{}",
        wl.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let scratch = Scratch(PathBuf::from(".bench_out").join(format!("tmp-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&scratch.0);
    let mut gate = Gate::default();

    let setup = set_up(&scratch.0, &seeds, golden_sweep, &mut gate)?;
    let sweep_ms = warm_sweeps(&setup.store, &setup.reference, &mut gate);
    let n = (wl.rate() * (args.seconds - SWEEP_ALLOWANCE_S)).max(1.0) as usize;

    let origin = now();
    let traced: Vec<sweep::Traced> = if args.trace {
        (0..SWEEPS)
            .map(|k| {
                let seed = seeds[k % seeds.len()];
                let t = sweep::traced(&setup.store, seed, origin, &format!("sweep{k}"));
                gate.op("traced sweep", setup.reference.check_sweep(seed, &t.rows));
                t
            })
            .collect()
    } else {
        Vec::new()
    };

    let serving = serve_phase(wl, &args, &setup, golden_serve, n, &mut gate)?;
    let lag: Vec<f64> = serving.untraced.exs.iter().map(|e| ms(e.due, e.sent)).collect();
    let lag_p99 = pct(&lag, 0.99);
    let behind = lag_p99 > MAX_LAG_MS;
    if behind {
        eprintln!(
            "perfbench: WARNING the generator fell behind its schedule (send lag p99 \
             {lag_p99:.2} ms > {MAX_LAG_MS} ms); latencies still count from due times"
        );
    }

    let metrics = match &serving.traced {
        None => end_to_end(&setup, &sweep_ms, &serving),
        Some(pass) => {
            let mut spans = Vec::new();
            let m = per_layer(&traced, &sweep_ms, pass, &serving.untraced, origin, &mut spans);
            write(&out_dir.join("spans.json"), &trace::spans_json(&spans))?;
            write(&out_dir.join("layers.csv"), &layer_table(&traced))?;
            let mut by_layer = String::from("layer,self_ms\n");
            for (layer, t) in trace::self_time_by_layer(&spans) {
                let _ = writeln!(by_layer, "{layer},{t:.3}");
            }
            write(&out_dir.join("self_time.csv"), &by_layer)?;
            m
        }
    };
    let reported = serving.traced.as_ref().unwrap_or(&serving.untraced);
    write(&out_dir.join("requests.csv"), &request_table(&reported.exs, origin))?;

    let correct = gate.failures.is_empty();
    for f in gate.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            // A failed request counts as never answered; JSON has no
            // infinity, so such a percentile reads as the largest number.
            let v = if v.is_finite() { *v } else { f64::MAX };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.attempted,
        gate.failures.len(),
        body.join(", ")
    );
    let js = pra_bench::report::json_string;
    write(
        &out_dir.join("result.json"),
        &format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"workload_seeds\": [{}], \"env\": {env}, \
             \"fill_ms\": {:?}, \"fill_rss_mb\": {:?}, \"sweep_ms\": {sweep_ms:?}, \
             \"boot_ms\": {}, \"requests\": {n}, \"tail_percentile\": {}, \"ttff_p50_ms\": {}, \
             \"send_lag_p99_ms\": {lag_p99}, \
             \"generator_behind\": {behind}, \"process_peak_rss_mb\": {}, \"failures\": [{}], \
             \"result\": {line}}}\n",
            wl.name(),
            args.seed,
            seeds.iter().map(|s| js(&format!("{s:#x}"))).collect::<Vec<_>>().join(", "),
            setup.fill_ms,
            setup.fill_rss,
            serving.boot_ms,
            100.0 * tail_quantile(n),
            pct(&serving.untraced.first, 0.50),
            peak_rss_mb()?,
            gate.failures.iter().map(|f| js(f)).collect::<Vec<_>>().join(", "),
        ),
    )?;
    drop(scratch);
    println!("{line}");
    Ok(())
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(setup: &Setup, sweep_ms: &[f64], serving: &Serving) -> Metrics {
    let pass = &serving.untraced;
    vec![
        ("setup_s".into(), (median(&setup.fill_ms) + serving.boot_ms) / 1e3, "s"),
        ("sweep_s".into(), median(sweep_ms) / 1e3, "s"),
        ("latency_p50_ms".into(), pct(&pass.latency, 0.50), "ms"),
        ("latency_tail_ms".into(), pct(&pass.latency, tail_quantile(pass.latency.len())), "ms"),
        ("peak_rss_mb".into(), median(&setup.fill_rss), "MB"),
    ]
}

/// The per-layer metrics of a traced run, collecting every span into
/// `spans`.
fn per_layer(
    traced: &[sweep::Traced],
    sweep_ms: &[f64],
    pass: &Pass,
    untraced: &Pass,
    origin: std::time::Instant,
    spans: &mut Vec<Span>,
) -> Metrics {
    let mut m: Metrics = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    let sweeps = traced.len() as f64;
    for t in traced {
        trace::merge(spans, t.spans.clone());
    }
    let jobs = |s: &[Span]| -> Vec<f64> {
        s.iter().filter(|s| s.name == "bench.job").map(Span::dur_ms).collect()
    };
    let crit: Vec<f64> =
        traced.iter().map(|t| jobs(&t.spans).into_iter().fold(0.0, f64::max)).collect();
    let threads = rayon::current_num_threads() as f64;
    let eff: Vec<f64> =
        traced.iter().map(|t| jobs(&t.spans).iter().sum::<f64>() / (threads * t.wall_ms)).collect();
    put("bench.critical_job_ms", median(&crit), "ms");
    put("bench.parallel_eff", mean(&eff), "ratio");

    let per_sweep = |name: &str| sweep::total_ms(spans, name) / sweeps;
    let rows: Vec<SweepRow> = traced.iter().flat_map(|t| t.rows.iter().cloned()).collect();
    let cycles = sweep::cycles_by_engine(&rows);
    for label in ["PRA-2b", "PRA-4b", "PRA-2b-1R"] {
        let sim = per_sweep(&format!("core.sim.{label}"));
        put(&format!("core.sim.ms.{label}"), sim, "ms");
        let c = cycles.get(label).copied().unwrap_or(0) as f64 / sweeps;
        put(&format!("core.sim.ns_per_cycle.{label}"), ratio(sim * 1e6, c), "ns");
    }
    put("engines.dadn_ms", per_sweep("engines.dadn"), "ms");
    put("engines.stripes_ms", per_sweep("engines.stripes"), "ms");
    let n_jobs = jobs(spans).len() as f64;
    put("workloads.source_ms", per_sweep("workloads.source"), "ms");
    let hits: usize = traced.iter().map(|t| t.workload_hits).sum();
    put("workloads.hit_ratio", ratio(hits as f64, n_jobs), "ratio");
    put("core.build.start_ms", per_sweep("core.build.start"), "ms");
    put("core.build.wait_ms", per_sweep("core.build.wait"), "ms");
    put("core.build.finish_ms", per_sweep("core.build.finish"), "ms");
    let enc: usize = traced.iter().map(|t| t.encoded_hits).sum();
    put("core.encoded.hit_ratio", ratio(enc as f64, n_jobs), "ratio");
    let job_ms: f64 = jobs(spans).iter().sum();
    let named_ms: f64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == "bench.job"))
        .map(Span::dur_ms)
        .sum();
    put("trace.sweep_coverage", ratio(named_ms, job_ms), "ratio");
    let traced_ms: Vec<f64> = traced.iter().map(|t| t.wall_ms).collect();
    put("trace.overhead.sweep_ms", median(&traced_ms) - median(sweep_ms), "ms");

    // Serving: the server's own split of each answer, and its counters.
    let (a, b) = (&pass.before, &pass.after);
    put(
        "serve.pool.hit_ratio",
        ratio((b.pool_hits - a.pool_hits) as f64, (b.batches - a.batches) as f64),
        "ratio",
    );
    // Since boot: once warm, `hot` never misses the pool, and the
    // warm-up's misses are the only ones there are.
    let misses = (b.batches - b.pool_hits) as f64;
    put("serve.encode_ms_per_miss", ratio(b.encode_ms as f64, misses), "ms");
    put("serve.encoded.hit_ratio", ratio(b.encoded_hits as f64, misses), "ratio");
    let split = serve_spans(&pass.exs, origin, spans);
    put("serve.enqueue_ms.p99", pct(&split.enqueue, 0.99), "ms");
    put("serve.batch_wait_ms.p50", pct(&split.batch, 0.50), "ms");
    put("serve.batch_size_mean", mean(&split.batch_size), "count");
    put("serve.sim_ms.p50", pct(&split.sim, 0.50), "ms");
    put("serve.sim_ms.p99", pct(&split.sim, 0.99), "ms");
    put("serve.wire_ms.p50", pct(&split.wire, 0.50), "ms");
    put("client.lag_ms.p99", pct(&split.lag, 0.99), "ms");
    put("client.ttff_ms.p50", pct(&pass.first, 0.50), "ms");
    put("trace.serve_coverage", split.coverage, "ratio");
    put(
        "trace.overhead.latency_p50_ms",
        pct(&pass.latency, 0.5) - pct(&untraced.latency, 0.5),
        "ms",
    );
    m
}

/// The serving phases of a traced pass.
struct Split {
    lag: Vec<f64>,
    enqueue: Vec<f64>,
    batch: Vec<f64>,
    sim: Vec<f64>,
    wire: Vec<f64>,
    batch_size: Vec<f64>,
    /// Share of mean client latency the phases account for.
    coverage: f64,
}

/// Records one span tree per answered request: the request from due to
/// answer, the generator's lag, then wire time and the server's own
/// split (enqueue, batch wait, simulation), laid end to end so that the
/// server's phases end when the answer arrives.
fn serve_spans(exs: &[Exchange], origin: std::time::Instant, spans: &mut Vec<Span>) -> Split {
    let mut s = Split {
        lag: Vec::new(),
        enqueue: Vec::new(),
        batch: Vec::new(),
        sim: Vec::new(),
        wire: Vec::new(),
        batch_size: Vec::new(),
        coverage: 0.0,
    };
    let (mut total, mut covered) = (0.0, 0.0);
    for ex in exs {
        let (Some(done), Some(pra_serve::Response::Ok { latency, batch_size, .. })) =
            (ex.done, ex.answer())
        else {
            continue;
        };
        let mut rec = Recorder::new(origin, format!("request{}", ex.req.id));
        let (due, sent, end) = (rec.at(ex.due), rec.at(ex.sent), rec.at(done));
        let root = rec.record_ms("client.request", None, due, end);
        rec.record_ms("client.lag", Some(root), due, sent);
        let wire = (end - sent) - latency.total_ms;
        rec.record_ms("serve.wire", Some(root), sent, sent + wire);
        let mut t = sent + wire;
        for (name, d) in [
            ("serve.enqueue", latency.enqueue_ms),
            ("serve.batch_wait", latency.batch_ms),
            ("serve.sim", latency.sim_ms),
        ] {
            rec.record_ms(name, Some(root), t, t + d);
            t += d;
        }
        s.lag.push(sent - due);
        s.enqueue.push(latency.enqueue_ms);
        s.batch.push(latency.batch_ms);
        s.sim.push(latency.sim_ms);
        s.wire.push(wire);
        s.batch_size.push(*batch_size as f64);
        total += end - due;
        covered += (sent - due) + wire + latency.enqueue_ms + latency.batch_ms + latency.sim_ms;
        trace::merge(spans, rec.into_spans());
    }
    s.coverage = ratio(covered, total);
    s
}

/// Mean host time per (network, representation, engine, conv layer)
/// over the traced sweeps, slowest first.
fn layer_table(traced: &[sweep::Traced]) -> String {
    let mut acc: BTreeMap<(&str, &str, &str, usize, &str), f64> = BTreeMap::new();
    for t in traced {
        for l in &t.layers {
            *acc.entry((l.network, l.repr, &l.engine, l.layer, &l.name)).or_insert(0.0) += l.ms;
        }
    }
    let mut rows: Vec<_> = acc.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = String::from("network,repr,engine,layer,name,host_ms\n");
    for ((net, repr, engine, layer, name), total) in rows {
        let _ = writeln!(
            out,
            "{net},{repr},{engine},{layer},{name},{:.4}",
            total / traced.len() as f64
        );
    }
    out
}

/// One row per traced request: what was asked, when it was due, sent,
/// first answered and finished (ms since the trace origin), and the
/// server's own split of the answer.
fn request_table(exs: &[Exchange], origin: std::time::Instant) -> String {
    let mut out = String::from(
        "id,network,repr,engine,seed,due_ms,sent_ms,first_ms,done_ms,\
         enqueue_ms,batch_ms,sim_ms,total_ms,batch_size\n",
    );
    let at = |t: Option<std::time::Instant>| t.map_or(f64::NAN, |t| ms(origin, t));
    for ex in exs {
        let r = &ex.req;
        let _ = write!(
            out,
            "{},{},{},{},{:#x},{:.3},{:.3},{:.3},{:.3}",
            r.id,
            r.network.name(),
            pra_serve::protocol::repr_label(r.repr),
            r.engine,
            r.seed,
            ms(origin, ex.due),
            ms(origin, ex.sent),
            at(ex.first),
            at(ex.done)
        );
        let _ = match ex.answer() {
            Some(pra_serve::Response::Ok { latency: l, batch_size, .. }) => writeln!(
                out,
                ",{},{},{},{},{batch_size}",
                l.enqueue_ms, l.batch_ms, l.sim_ms, l.total_ms
            ),
            _ => writeln!(out, ",,,,,"),
        };
    }
    out
}

fn write(path: &Path, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
