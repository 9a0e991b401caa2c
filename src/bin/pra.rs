//! `pra` — command-line front end for the Pragmatic reproduction.
//!
//! ```text
//! pra potential <network>              Fig. 2-style term counts
//! pra speedup <network> [--quant8]     DaDN/Stripes/PRA speedups
//! pra capacity <network>               NM/SB footprint audit
//! pra networks                         list the evaluated networks
//! pra sweep [--serial] [--full] [--sampled N] [--seed N] [--no-cache]
//!                                      all networks x engines x representations,
//!                                      parallel, full fidelity by default
//!                                      (--full spells it explicitly, overriding
//!                                      an inherited PRA_BENCH_PALLETS),
//!                                      consolidated CSV + timing reports;
//!                                      workloads come from the content-addressed
//!                                      cache unless --no-cache
//! pra cache stats [--kind K] [--json]  inspect the artifact cache (workload,
//!                                      traffic, and encoded tiers)
//! pra cache clear [--stale] [--kind K] [--json]
//!                                      guarded cache deletion / stale-entry GC,
//!                                      optionally narrowed to one kind
//! pra bench-delta <prev> <cur> [--gate R]
//!                                      per-phase delta between two bench.json;
//!                                      --gate fails on >Rx phase regressions
//! pra serve [--addr A] [--workers N] [--max-batch B] [--queue-depth D]
//!           [--linger-ms L] [--sampled N] [--no-cache] [--once]
//!           [--max-conns C] [--deadline-ms D] [--shard N] [--epoch N]
//!           [--chaos SPEC]
//!                                      batched simulation service over TCP
//!                                      JSON-lines (DESIGN.md §10); --once
//!                                      honors the drain control request,
//!                                      --shard/--epoch identify the process
//!                                      inside a cluster (DESIGN.md §13),
//!                                      --chaos (or PRA_CHAOS) arms seeded
//!                                      fault injection (DESIGN.md §12)
//! pra route --shard ADDR [--shard ADDR ...] [--addr A] [--replicas K]
//!           [--probe-ms P] [--probe-deadline-ms D] [--seed S]
//!           [--max-conns C] [--once] [--chaos SPEC]
//!                                      consistent-hash front end over N shard
//!                                      servers (DESIGN.md §13): health-checked
//!                                      failover onto each key's replica set,
//!                                      drain propagation, exactly-once answers
//!                                      (--listen is an alias for --addr)
//! pra ctl <stats | drain> [--addr A]   send a control request to a running
//!                                      server or router and print its answer
//! pra bench-serve [--addr A] [--requests N] [--batch W] [--seed S]
//!                 [--allow-shed] [--v2] [--retries R] [--backoff-ms B]
//!                 [--cluster T1,T2,... [--sampled N] [--no-cache]
//!                  [--max-conns C] [--deadline-ms D] [--chaos SPEC]]
//!                                      closed-loop load generator: p50/p95/p99
//!                                      + throughput into bench.json, response
//!                                      digest into serve_responses.sha256;
//!                                      --v2 negotiates streaming protocol v2
//!                                      and reports time-to-first-layer-frame;
//!                                      --retries re-issues retryable sheds
//!                                      with jittered exponential backoff;
//!                                      --cluster boots an in-process cluster
//!                                      per listed shard count, benches through
//!                                      the router, and fails unless every
//!                                      topology serves byte-identical bits
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::Arc;

use pra_bench::sweep::{self, SweepConfig};
use pra_bench::Table;
use pragmatic::core::{Fidelity, PraConfig};
use pragmatic::engines::{dadn, potential, stripes};
use pragmatic::sim::{capacity, ChipConfig};
use pragmatic::workloads::cache::{self, ArtifactKind, ArtifactStore, Cache};
use pragmatic::workloads::{Network, NetworkWorkload, Representation};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("networks") => {
            for net in Network::ALL {
                println!(
                    "{:8} {:>2} conv layers, {:>6.1}M multiplications",
                    net.name(),
                    net.conv_layers().len(),
                    net.total_multiplications() as f64 / 1e6
                );
            }
            Ok(())
        }
        Some("potential") => parse_network(&args, 1).map(cmd_potential),
        Some("speedup") => parse_network(&args, 1).map(|n| {
            let repr = if args.iter().any(|a| a == "--quant8") {
                Representation::Quant8
            } else {
                Representation::Fixed16
            };
            cmd_speedup(n, repr)
        }),
        Some("capacity") => parse_network(&args, 1).map(cmd_capacity),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("bench-delta") => cmd_bench_delta(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("ctl") => cmd_ctl(&args[1..]),
        Some("bench-serve") => cmd_bench_serve(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: pra <networks | potential NET | speedup NET [--quant8] | capacity NET | sweep [--serial] [--full] [--sampled N] [--seed N] [--no-cache] | cache <stats [--kind K] [--json] | clear [--stale] [--kind K] [--json]> | bench-delta PREV CUR [--gate R] | serve [--addr A] [--workers N] [--max-batch B] [--queue-depth D] [--linger-ms L] [--sampled N] [--no-cache] [--once] [--max-conns C] [--deadline-ms D] [--shard N] [--epoch N] [--chaos SPEC] | route --shard ADDR [--shard ADDR ...] [--addr A] [--replicas K] [--probe-ms P] [--probe-deadline-ms D] [--seed S] [--max-conns C] [--once] [--chaos SPEC] | ctl <stats | drain> [--addr A] | bench-serve [--addr A] [--requests N] [--batch W] [--seed S] [--allow-shed] [--v2] [--retries R] [--backoff-ms B] [--cluster T1,T2,... [--sampled N] [--no-cache] [--max-conns C] [--deadline-ms D] [--chaos SPEC]]>\n\
                     networks: Alexnet NiN Google VGGM VGGS VGG19";

fn parse_network(args: &[String], idx: usize) -> Result<Network, String> {
    let name = args.get(idx).ok_or(USAGE)?;
    Network::ALL
        .into_iter()
        .find(|n| n.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown network '{name}'\n{USAGE}"))
}

fn cmd_potential(net: Network) {
    let w = NetworkWorkload::build(net, Representation::Fixed16, 0x90AD);
    let t = potential::network_terms(&w).normalized();
    println!("{net}: equivalent terms relative to DaDN (lower is better)");
    println!("  ZN (ideal zero skip)  {:>6.1}%", 100.0 * t.zn);
    println!("  CVN (Cnvlutin)        {:>6.1}%", 100.0 * t.cvn);
    println!("  Stripes               {:>6.1}%", 100.0 * t.stripes);
    println!("  PRA-fp16              {:>6.1}%", 100.0 * t.pra);
    println!("  PRA-red               {:>6.1}%", 100.0 * t.pra_red);
    println!("  PRA-CSD (extension)   {:>6.1}%", 100.0 * t.pra_csd);
}

fn cmd_speedup(net: Network, repr: Representation) {
    let chip = ChipConfig::dadn();
    let w = Arc::new(NetworkWorkload::build(net, repr, 0x90AD));
    let base = dadn::run(&chip, &w);
    let fid = pra_bench::fidelity();
    println!("{net} ({repr}): speedup over the bit-parallel baseline");
    println!("  Stripes    {:>5.2}x", stripes::run(&chip, &w).speedup_over(&base));
    let configs = [
        PraConfig::two_stage(2, repr).with_fidelity(fid),
        PraConfig::single_stage(repr).with_fidelity(fid),
        PraConfig::per_column(1, repr).with_fidelity(fid),
    ];
    for r in pra_bench::run_pra(&configs, &w) {
        println!("  {:10} {:>5.2}x", r.engine, r.speedup_over(&base));
    }
}

/// `pra sweep [--serial] [--full] [--sampled N] [--seed N]`: every
/// network x engine x representation, fanned out over the thread pool,
/// full fidelity by default (`--sampled N` or the `PRA_BENCH_PALLETS`
/// escape hatch trade accuracy for time), with the consolidated CSV and
/// the machine-readable timing report (`bench.json`) dropped under
/// `target/pra-reports/`.
fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let mut cfg = SweepConfig::full();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--serial" => cfg.parallel = false,
            "--full" => cfg.fidelity = Fidelity::Full,
            "--sampled" => {
                let v = it.next().ok_or("--sampled needs a pallet count")?;
                let n: usize = v.parse().map_err(|e| format!("invalid --sampled '{v}': {e}"))?;
                cfg.fidelity = Fidelity::Sampled { max_pallets: n.max(1) };
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cfg.seed = parse_seed(v)?;
            }
            "--no-cache" => {
                cfg.store = ArtifactStore::at_default().no_disk();
            }
            other => {
                return Err(unknown_flag(
                    "sweep",
                    other,
                    &["--serial", "--full", "--sampled", "--seed", "--no-cache"],
                ))
            }
        }
    }

    if cfg.parallel {
        // The jobs are independent, CPU-bound simulations: one worker
        // per core. Oversubscribing a single-core machine only adds
        // context-switch and contention cost (measured ~12% of the
        // sweep), and results are thread-count-independent anyway. An
        // explicit RAYON_NUM_THREADS wins; the pool must be configured
        // before any other rayon call, since on upstream rayon the
        // first use freezes the global pool size.
        let workers = match std::env::var("RAYON_NUM_THREADS").ok().and_then(|v| v.parse().ok()) {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        let _ = rayon::ThreadPoolBuilder::new().num_threads(workers).build_global();
    }
    let mode = if cfg.parallel { "parallel" } else { "serial" };
    println!(
        "sweeping {} networks x {} representations x {} engines ({mode}, seed {:#x})",
        cfg.networks.len(),
        cfg.representations.len(),
        sweep::engine_labels(Representation::Fixed16).len(),
        cfg.seed,
    );
    let out = sweep::run_sweep(&cfg);

    let mut table = Table::new(sweep::CSV_HEADER);
    for row in sweep::csv_rows(&out.rows) {
        table.row(row);
    }
    table.print("Sweep: cycles and speedup over DaDN");

    let mut geo = Table::new(["repr", "engine", "geomean speedup"]);
    for (repr, engine, g) in sweep::geomean_summary(&out.rows) {
        geo.row([repr, engine, format!("{g:.2}x")]);
    }
    geo.print("Cross-network geometric means");

    let mut timing =
        Table::new(["job", "repr", "gen ms", "wall ms", "cache", "encoded", "traffic"]);
    for t in &out.timings {
        timing.row([
            t.network.clone(),
            t.repr.clone(),
            format!("{:.1}", t.gen_ms),
            format!("{:.1}", t.wall_ms),
            t.cache.clone(),
            t.encoded.clone(),
            t.traffic.clone(),
        ]);
    }
    timing.print("Per-job wall-clock");

    match sweep::write_report(&out.rows) {
        Some(path) => println!("consolidated report: {}", path.display()),
        None => eprintln!("warning: consolidated report could not be written"),
    }
    match sweep::write_bench_json(&out) {
        Some(path) => println!("timing report: {}", path.display()),
        None => eprintln!("warning: timing report could not be written"),
    }
    let hits = out.timings.iter().filter(|t| t.cache == "hit").count();
    let encoded_hits = out.timings.iter().filter(|t| t.encoded == "hit").count();
    println!(
        "{} jobs on {} worker thread(s) in {:.1}s ({} workload cache hit(s), \
         {} encoded-artifact hit(s))",
        out.jobs,
        out.threads_used,
        out.total_wall_ms / 1e3,
        hits,
        encoded_hits,
    );
    Ok(())
}

/// The current artifact version each entry kind publishes under — the
/// `(kind tag, version)` pairs `pra cache` reports and GCs against.
fn current_versions() -> [(&'static str, u32); 3] {
    [
        (cache::WORKLOAD_KIND, cache::GENERATOR_VERSION),
        (pragmatic::core::TRAFFIC_KIND, pragmatic::core::TRAFFIC_VERSION),
        (pragmatic::core::ENCODED_KIND, pragmatic::core::ENCODER_VERSION),
    ]
}

/// Escapes a string as a JSON string literal (same rules as the lint
/// and bench reporters).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `pra cache stats|clear [--stale] [--kind K] [--json]`: inspect or
/// prune the content-addressed artifact cache (workload, traffic, and
/// encoded tiers). Deletion is guarded — only regular files matching
/// the cache naming scheme are ever removed, and symlinks are never
/// followed, so a misconfigured `PRA_CACHE_DIR` cannot lose user data.
/// `--kind` narrows either subcommand to one artifact kind (by name or
/// tag: `workload`/`wl`, `traffic`/`tr`, `encoded`/`en`); `--json`
/// emits a stable machine-readable document in the same shape
/// conventions as `pra-lint --json` (fixed key order, 2-space indent).
fn cmd_cache(args: &[String]) -> Result<(), String> {
    let sub = args.first().map(String::as_str);
    let mut stale_only = false;
    let mut kind: Option<ArtifactKind> = None;
    let mut json = false;
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stale" => stale_only = true,
            "--kind" => {
                let v = it.next().ok_or("--kind needs workload | traffic | encoded")?;
                kind = Some(ArtifactKind::parse(v).ok_or_else(|| {
                    format!("unknown --kind '{v}' (expected workload | traffic | encoded)")
                })?);
            }
            "--json" => json = true,
            other => {
                let flags: &[&str] = if sub == Some("clear") {
                    &["--stale", "--kind", "--json"]
                } else {
                    &["--kind", "--json"]
                };
                return Err(unknown_flag("cache", other, flags));
            }
        }
    }
    let cache = Cache::at_default();
    match sub {
        Some("stats") => {
            let mut s = cache.stats();
            if let Some(k) = kind {
                // The totals follow the filter so the summary line (and
                // the JSON document) stay internally consistent.
                s.kinds.retain(|ks| ks.kind == k.tag());
                s.entries = s.kinds.iter().map(|ks| ks.entries).sum();
                s.bytes = s.kinds.iter().map(|ks| ks.bytes).sum();
            }
            if json {
                let versions = current_versions()
                    .iter()
                    .map(|(tag, v)| format!("{{\"kind\": {}, \"version\": {v}}}", json_escape(tag)))
                    .collect::<Vec<_>>()
                    .join(", ");
                let mut kinds = String::new();
                for (i, ks) in s.kinds.iter().enumerate() {
                    if i > 0 {
                        kinds.push(',');
                    }
                    let per_version = ks
                        .versions
                        .iter()
                        .map(|(v, n)| format!("{{\"version\": {v}, \"entries\": {n}}}"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    kinds.push_str(&format!(
                        "\n    {{\"kind\": {}, \"entries\": {}, \"bytes\": {}, \
                         \"versions\": [{per_version}]}}",
                        json_escape(&ks.kind),
                        ks.entries,
                        ks.bytes,
                    ));
                }
                if !s.kinds.is_empty() {
                    kinds.push_str("\n  ");
                }
                println!(
                    "{{\n  \"dir\": {},\n  \"current_versions\": [{versions}],\n  \
                     \"kinds\": [{kinds}],\n  \"entries\": {},\n  \"bytes\": {},\n  \
                     \"temps\": {},\n  \"foreign\": {}\n}}",
                    json_escape(&s.dir.display().to_string()),
                    s.entries,
                    s.bytes,
                    s.temps,
                    s.foreign,
                );
                return Ok(());
            }
            println!("cache directory: {}", s.dir.display());
            println!(
                "current versions: workloads v{} (kind wl), traffic v{} (kind tr), \
                 encoded v{} (kind en)",
                cache::GENERATOR_VERSION,
                pragmatic::core::TRAFFIC_VERSION,
                pragmatic::core::ENCODER_VERSION,
            );
            if s.entries == 0 && s.temps == 0 {
                println!("empty (a cold `pra sweep` will populate it)");
                return Ok(());
            }
            let mut t = Table::new(["kind", "entries", "MB", "versions"]);
            for k in &s.kinds {
                let versions = k
                    .versions
                    .iter()
                    .map(|(v, n)| format!("v{v}: {n}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                t.row([
                    k.kind.clone(),
                    k.entries.to_string(),
                    format!("{:.1}", k.bytes as f64 / 1e6),
                    versions,
                ]);
            }
            t.print("Cache contents");
            println!(
                "{} entries, {:.1} MB total; {} temp file(s); {} foreign file(s) (never touched)",
                s.entries,
                s.bytes as f64 / 1e6,
                s.temps,
                s.foreign,
            );
            Ok(())
        }
        Some("clear") => {
            let report = match (stale_only, kind) {
                // Stale GC over one kind's current version — entries of
                // every other kind are deliberately kept.
                (true, Some(k)) => {
                    let pair = current_versions()
                        .into_iter()
                        .find(|(tag, _)| *tag == k.tag())
                        .unwrap_or_else(|| unreachable!("every ArtifactKind has a version"));
                    cache.gc_stale(&[pair]).map_err(|e| e.to_string())?
                }
                (true, None) => cache.gc_stale(&current_versions()).map_err(|e| e.to_string())?,
                (false, Some(k)) => cache.clear_kind(k.tag()).map_err(|e| e.to_string())?,
                (false, None) => cache.clear().map_err(|e| e.to_string())?,
            };
            if json {
                println!(
                    "{{\n  \"dir\": {},\n  \"removed\": {},\n  \"freed_bytes\": {},\n  \
                     \"kept\": {},\n  \"skipped\": {}\n}}",
                    json_escape(&cache.dir().display().to_string()),
                    report.removed,
                    report.freed_bytes,
                    report.kept,
                    report.skipped,
                );
                return Ok(());
            }
            println!(
                "{}: removed {} entr{} ({:.1} MB), kept {}, skipped {} non-cache file(s)",
                cache.dir().display(),
                report.removed,
                if report.removed == 1 { "y" } else { "ies" },
                report.freed_bytes as f64 / 1e6,
                report.kept,
                report.skipped,
            );
            Ok(())
        }
        _ => Err(format!(
            "cache needs a subcommand: stats [--kind K] [--json] | \
             clear [--stale] [--kind K] [--json]\n{USAGE}"
        )),
    }
}

/// `pra bench-delta <prev.json> <cur.json> [--gate R]`: per-phase
/// timing delta between two `bench.json` reports (CI runs this against
/// the previous main run, and between the cold/warm halves of the
/// identity gate). With `--gate R` the command also fails when any
/// gated phase total regressed beyond `R`x (see
/// [`pra_bench::sweep::bench_gate`] for the noise guardrails); CI skips
/// the gate when the commit message carries `[bench-rebaseline]`.
fn cmd_bench_delta(args: &[String]) -> Result<(), String> {
    let mut paths: Vec<&String> = Vec::new();
    let mut gate: Option<f64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--gate" => {
                let v = it.next().ok_or("--gate needs a max ratio, e.g. 1.25")?;
                let r: f64 = v.parse().map_err(|e| format!("invalid --gate '{v}': {e}"))?;
                if r < 1.0 || r.is_nan() {
                    return Err(format!("--gate ratio must be >= 1.0, got {v}"));
                }
                gate = Some(r);
            }
            _ => paths.push(arg),
        }
    }
    let [prev_path, cur_path] = paths[..] else {
        return Err(format!("bench-delta needs two bench.json paths\n{USAGE}"));
    };
    let read =
        |p: &String| std::fs::read_to_string(p).map_err(|e| format!("could not read {p}: {e}"));
    let (prev, cur) = (read(prev_path)?, read(cur_path)?);
    let delta = pra_bench::sweep::bench_delta(&prev, &cur)?;
    println!("=== Per-phase delta: {prev_path} -> {cur_path} ===");
    println!("{delta}");
    if let Some(max_ratio) = gate {
        let violations = pra_bench::sweep::bench_gate(&prev, &cur, max_ratio)?;
        if !violations.is_empty() {
            return Err(format!(
                "bench gate failed ({} violation(s)):\n  {}\n(rebaseline intentionally with \
                 [bench-rebaseline] in the commit message)",
                violations.len(),
                violations.join("\n  ")
            ));
        }
        println!("bench gate passed (no phase beyond {max_ratio:.2}x)");
    }
    Ok(())
}

/// `pra serve`: the batched simulation service (DESIGN.md §10) —
/// JSON-lines over TCP, admission-controlled queue, coalescing worker
/// pool over the shared-artifact batch path.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use pragmatic::serve::ServeConfig;
    let mut addr = "127.0.0.1:9100".to_string();
    let mut cfg = ServeConfig::default();
    let mut once = false;
    let mut chaos_spec: Option<String> = None;
    let mut epoch: Option<u64> = None;
    let mut shard_set = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs host:port")?.clone(),
            "--workers" => cfg.workers = flag_num(&mut it, "--workers")?.max(1),
            "--max-batch" => cfg.max_batch = flag_num(&mut it, "--max-batch")?.max(1),
            "--queue-depth" => cfg.queue_depth = flag_num(&mut it, "--queue-depth")?.max(1),
            "--linger-ms" => {
                cfg.linger =
                    std::time::Duration::from_millis(flag_num(&mut it, "--linger-ms")? as u64)
            }
            "--sampled" => {
                cfg.fidelity =
                    Fidelity::Sampled { max_pallets: flag_num(&mut it, "--sampled")?.max(1) }
            }
            "--full" => cfg.fidelity = Fidelity::Full,
            "--no-cache" => {
                cfg.store = ArtifactStore::at_default().no_disk();
            }
            "--once" => once = true,
            "--max-conns" => cfg.max_connections = flag_num(&mut it, "--max-conns")?.max(1),
            "--deadline-ms" => {
                cfg.deadline = Some(std::time::Duration::from_millis(
                    flag_num(&mut it, "--deadline-ms")?.max(1) as u64,
                ))
            }
            "--shard" => {
                cfg.shard = flag_num(&mut it, "--shard")? as u64;
                shard_set = true;
            }
            "--epoch" => epoch = Some(flag_num(&mut it, "--epoch")? as u64),
            "--chaos" => {
                chaos_spec = Some(
                    it.next().ok_or("--chaos needs a spec, e.g. seed=7,worker-panic=0.05")?.clone(),
                )
            }
            other => {
                return Err(unknown_flag(
                    "serve",
                    other,
                    &[
                        "--addr",
                        "--workers",
                        "--max-batch",
                        "--queue-depth",
                        "--linger-ms",
                        "--sampled",
                        "--full",
                        "--no-cache",
                        "--once",
                        "--max-conns",
                        "--deadline-ms",
                        "--shard",
                        "--epoch",
                        "--chaos",
                    ],
                ))
            }
        }
    }
    // A cluster member needs a nonzero boot epoch so the router's
    // restart detection is well-defined; the pid is a fine default —
    // any value that changes across restarts works. Standalone servers
    // keep epoch 0 unless asked otherwise.
    if let Some(e) = epoch {
        cfg.epoch = e;
    } else if shard_set {
        cfg.epoch = u64::from(std::process::id()).max(1);
    }
    // Fault injection: an explicit --chaos wins over the PRA_CHAOS
    // environment spec; with neither, the chaos layer stays a no-op.
    match &chaos_spec {
        Some(spec) => pragmatic::chaos::arm_spec(spec).map_err(|e| format!("--chaos: {e}"))?,
        None => {
            pragmatic::chaos::arm_from_env().map_err(|e| format!("PRA_CHAOS: {e}"))?;
        }
    }
    if let Some(plan) = pragmatic::chaos::current() {
        println!("pra-serve CHAOS ARMED: {}", plan.summary());
    }
    let server = pragmatic::serve::Server::bind(&addr, cfg.clone())
        .map_err(|e| format!("could not bind {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "pra-serve listening on {bound} ({} workers, max batch {}, queue depth {}, linger {:?}, \
         cache {}, max conns {}, deadline {}, {})",
        cfg.workers,
        cfg.max_batch,
        cfg.queue_depth,
        cfg.linger,
        if cfg.store.dir().is_some() { "on" } else { "off" },
        cfg.max_connections,
        cfg.deadline.map_or_else(|| "none".to_string(), |d| format!("{d:?}")),
        if once { "once (drain honored)" } else { "always-on" },
    );
    if once {
        server.run_once().map_err(|e| format!("serve: {e}"))?;
        println!("pra-serve drained and stopped");
        Ok(())
    } else {
        server.run().map_err(|e| format!("serve: {e}"))
    }
}

/// `pra route`: the consistent-hash front end (DESIGN.md §13) — hashes
/// each request's workload key onto a replica set of shard servers,
/// health-checks the shards with seeded stats heartbeats, and fails
/// in-flight work over to the fallback replica when a shard dies.
fn cmd_route(args: &[String]) -> Result<(), String> {
    use pragmatic::router::{Router, RouterConfig};
    let mut listen = "127.0.0.1:9200".to_string();
    let mut cfg = RouterConfig::default();
    let mut once = false;
    let mut chaos_spec: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            // `--addr` is the canonical listen-address flag shared with
            // `serve` and `bench-serve`; `--listen` stays as an alias.
            "--addr" | "--listen" => listen = it.next().ok_or("--addr needs host:port")?.clone(),
            "--shard" => cfg.shards.push(it.next().ok_or("--shard needs host:port")?.clone()),
            "--replicas" => cfg.replicas = flag_num(&mut it, "--replicas")?.max(1),
            "--probe-ms" => {
                cfg.probe.interval =
                    std::time::Duration::from_millis(flag_num(&mut it, "--probe-ms")?.max(1) as u64)
            }
            "--probe-deadline-ms" => {
                cfg.probe.deadline = std::time::Duration::from_millis(
                    flag_num(&mut it, "--probe-deadline-ms")?.max(1) as u64,
                )
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cfg.probe.seed = parse_seed(v)?;
            }
            "--max-conns" => cfg.max_connections = flag_num(&mut it, "--max-conns")?.max(1),
            "--once" => once = true,
            "--chaos" => {
                chaos_spec = Some(
                    it.next().ok_or("--chaos needs a spec, e.g. seed=7,shard-kill=0.5")?.clone(),
                )
            }
            other => {
                return Err(unknown_flag(
                    "route",
                    other,
                    &[
                        "--addr",
                        "--listen",
                        "--shard",
                        "--replicas",
                        "--probe-ms",
                        "--probe-deadline-ms",
                        "--seed",
                        "--max-conns",
                        "--once",
                        "--chaos",
                    ],
                ))
            }
        }
    }
    if cfg.shards.is_empty() {
        return Err(format!("route needs at least one --shard host:port\n{USAGE}"));
    }
    match &chaos_spec {
        Some(spec) => pragmatic::chaos::arm_spec(spec).map_err(|e| format!("--chaos: {e}"))?,
        None => {
            pragmatic::chaos::arm_from_env().map_err(|e| format!("PRA_CHAOS: {e}"))?;
        }
    }
    if let Some(plan) = pragmatic::chaos::current() {
        println!("pra-route CHAOS ARMED: {}", plan.summary());
    }
    let router =
        Router::bind(&listen, cfg.clone()).map_err(|e| format!("could not bind {listen}: {e}"))?;
    let bound = router.local_addr().map_err(|e| e.to_string())?;
    println!(
        "pra-route listening on {bound} ({} shard(s), {} replica(s)/key, probe every {:?} with \
         deadline {:?}, max conns {}, {})",
        cfg.shards.len(),
        cfg.replicas.min(cfg.shards.len()),
        cfg.probe.interval,
        cfg.probe.deadline,
        cfg.max_connections,
        if once { "once (drain honored)" } else { "always-on" },
    );
    if once {
        router.run_once().map_err(|e| format!("route: {e}"))?;
        println!("pra-route drained and stopped");
        Ok(())
    } else {
        router.run().map_err(|e| format!("route: {e}"))
    }
}

/// `pra ctl stats|drain [--addr A]`: send one control request over the
/// serving wire and print the server's answer line. `drain` asks a
/// `--once` server to stop accepting, finish open connections, and
/// drain its queue (an always-on server refuses it). Pointed at a
/// router, `stats` prints the router counters instead and `drain`
/// propagates to every shard.
fn cmd_ctl(args: &[String]) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    let verb = match args.first().map(String::as_str) {
        Some("stats") => pragmatic::serve::ControlRequest::Stats,
        Some("drain") => pragmatic::serve::ControlRequest::Drain,
        _ => return Err(format!("ctl needs a subcommand: stats | drain\n{USAGE}")),
    };
    let mut addr = "127.0.0.1:9100".to_string();
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs host:port")?.clone(),
            other => return Err(unknown_flag("ctl", other, &["--addr"])),
        }
    }
    let mut stream = std::net::TcpStream::connect(&addr)
        .map_err(|e| format!("could not connect to {addr}: {e}"))?;
    stream
        .write_all((verb.to_json_line() + "\n").as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send control request: {e}"))?;
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .map_err(|e| format!("read control response: {e}"))?;
    let line = line.trim();
    if line.is_empty() {
        return Err("server closed the connection without answering".to_string());
    }
    println!("{line}");
    if let Ok(snap) = pragmatic::serve::StatsSnapshot::parse(line) {
        let mut t = Table::new(["counter", "value"]);
        t.row(["accepted", &snap.accepted.to_string()]);
        t.row(["answered", &snap.answered.to_string()]);
        t.row(["shed", &snap.shed.to_string()]);
        t.row(["batches", &snap.batches.to_string()]);
        t.row(["pool hits", &snap.pool_hits.to_string()]);
        t.row(["live connections", &snap.live_connections.to_string()]);
        t.row(["connections shed", &snap.connections_shed.to_string()]);
        t.row(["worker restarts", &snap.worker_restarts.to_string()]);
        t.row(["deadline expired", &snap.deadline_expired.to_string()]);
        t.row(["encode ms", &snap.encode_ms.to_string()]);
        t.row(["encoded hits", &snap.encoded_hits.to_string()]);
        t.row(["shard", &snap.shard.to_string()]);
        t.row(["epoch", &snap.epoch.to_string()]);
        t.print("Service counters");
    } else if line.contains("\"status\": \"router_stats\"") {
        let mut t = Table::new(["counter", "value"]);
        for key in [
            "shards",
            "up",
            "degraded",
            "down",
            "routed",
            "answered",
            "failovers",
            "no_shard",
            "stale_drops",
            "restarts_seen",
            "connections_shed",
        ] {
            if let Some(v) = pragmatic::serve::codec::json_num_field(line, key) {
                t.row([key, &format!("{}", v as u64)]);
            }
        }
        t.print("Router counters");
    } else if line.contains("\"error\"") {
        return Err("control request refused (see line above)".to_string());
    }
    Ok(())
}

/// `pra bench-serve`: closed-loop load generator against a running
/// `pra serve`, reporting latency percentiles and throughput into
/// `bench.json` and the combined response digest into
/// `serve_responses.sha256`. Fails when any request was shed (CI's
/// zero-shed gate) unless `--allow-shed`.
fn cmd_bench_serve(args: &[String]) -> Result<(), String> {
    use pragmatic::serve::bench;
    let mut cfg = pragmatic::serve::BenchConfig::default();
    let mut allow_shed = false;
    let mut topologies: Option<Vec<usize>> = None;
    let mut serve_cfg = pragmatic::serve::ServeConfig::default();
    let mut chaos_spec: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = it.next().ok_or("--addr needs host:port")?.clone(),
            "--requests" => cfg.requests = flag_num(&mut it, "--requests")?.max(1),
            "--batch" => cfg.window = flag_num(&mut it, "--batch")?.max(1),
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cfg.seed = parse_seed(v)?;
            }
            "--allow-shed" => allow_shed = true,
            "--v2" => cfg.v2 = true,
            "--retries" => cfg.retries = flag_num(&mut it, "--retries")? as u32,
            "--backoff-ms" => cfg.backoff_ms = flag_num(&mut it, "--backoff-ms")?.max(1) as u64,
            "--cluster" => {
                let v = it.next().ok_or("--cluster needs a shard-count list, e.g. 1,2,4")?;
                let tops = v
                    .split(',')
                    .map(|t| t.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("invalid --cluster '{v}': {e}"))?;
                if tops.is_empty() || tops.contains(&0) {
                    return Err(format!("--cluster needs nonzero shard counts, got '{v}'"));
                }
                topologies = Some(tops);
            }
            "--sampled" => {
                serve_cfg.fidelity =
                    Fidelity::Sampled { max_pallets: flag_num(&mut it, "--sampled")?.max(1) }
            }
            "--no-cache" => {
                serve_cfg.store = ArtifactStore::at_default().no_disk();
            }
            // Shared serve knobs, applied to the shards a --cluster run
            // boots; same names and parsing as `pra serve`.
            "--max-conns" => serve_cfg.max_connections = flag_num(&mut it, "--max-conns")?.max(1),
            "--deadline-ms" => {
                serve_cfg.deadline = Some(std::time::Duration::from_millis(
                    flag_num(&mut it, "--deadline-ms")?.max(1) as u64,
                ))
            }
            "--chaos" => {
                chaos_spec = Some(
                    it.next().ok_or("--chaos needs a spec, e.g. seed=7,shard-kill=0.5")?.clone(),
                )
            }
            other => {
                return Err(unknown_flag(
                    "bench-serve",
                    other,
                    &[
                        "--addr",
                        "--requests",
                        "--batch",
                        "--seed",
                        "--allow-shed",
                        "--v2",
                        "--retries",
                        "--backoff-ms",
                        "--cluster",
                        "--sampled",
                        "--no-cache",
                        "--max-conns",
                        "--deadline-ms",
                        "--chaos",
                    ],
                ))
            }
        }
    }
    if let Some(topologies) = topologies {
        return cmd_bench_cluster(&topologies, &cfg, serve_cfg, chaos_spec.as_deref(), allow_shed);
    }
    if chaos_spec.is_some() {
        return Err("--chaos only applies to --cluster runs (arm the server instead)".to_string());
    }
    println!(
        "bench-serve: {} requests, window {}, retries {}, against {}",
        cfg.requests, cfg.window, cfg.retries, cfg.addr
    );
    let (metrics, _responses) = bench::run_bench(&cfg)?;
    bench::metrics_table(&metrics).print("Serving latency (closed loop)");
    match bench::write_serve_report(&metrics) {
        Some(path) => println!("serve metrics merged into: {}", path.display()),
        None => eprintln!("warning: serve metrics could not be written"),
    }
    if metrics.errors > 0 {
        return Err(format!("{} request(s) answered with errors", metrics.errors));
    }
    if metrics.shed > 0 && !allow_shed {
        return Err(format!(
            "{} request(s) shed (queue depth too small for the offered load); \
             pass --allow-shed to tolerate",
            metrics.shed
        ));
    }
    Ok(())
}

/// `pra bench-serve --cluster T1,T2,...`: boots an in-process cluster
/// (router + shard servers, DESIGN.md §13) per listed shard count, runs
/// the same closed-loop bench through the router each time, and fails
/// unless every topology answers byte-identical response digests. With
/// `--chaos`, the fault plan is armed for every multi-shard topology
/// (see [`pragmatic::router::cluster::run_cluster_bench`]).
fn cmd_bench_cluster(
    topologies: &[usize],
    bench_cfg: &pragmatic::serve::BenchConfig,
    serve_cfg: pragmatic::serve::ServeConfig,
    chaos_spec: Option<&str>,
    allow_shed: bool,
) -> Result<(), String> {
    use pragmatic::router::cluster;
    let cluster_cfg = pragmatic::router::ClusterConfig { serve: serve_cfg, ..Default::default() };
    println!(
        "bench-serve --cluster: {} requests, window {}, retries {}, topologies {topologies:?}{}",
        bench_cfg.requests,
        bench_cfg.window,
        bench_cfg.retries,
        chaos_spec.map_or_else(String::new, |s| format!(", chaos '{s}' on multi-shard runs")),
    );
    let rows = cluster::run_cluster_bench(topologies, bench_cfg, &cluster_cfg, chaos_spec)?;
    cluster::cluster_table(&rows).print("Cluster scaling (closed loop through the router)");
    match cluster::write_cluster_report(&rows) {
        Some(path) => println!("cluster metrics merged into: {}", path.display()),
        None => eprintln!("warning: cluster metrics could not be written"),
    }
    for r in &rows {
        if r.metrics.errors > 0 {
            return Err(format!(
                "{} shard(s): {} request(s) answered with errors",
                r.shards, r.metrics.errors
            ));
        }
        if r.metrics.shed > 0 && !allow_shed {
            return Err(format!(
                "{} shard(s): {} request(s) shed; raise --retries or pass --allow-shed",
                r.shards, r.metrics.shed
            ));
        }
    }
    if !cluster::digests_match(&rows) {
        return Err(
            "cluster digest mismatch: topologies disagree on response bytes (the router must \
             be byte-transparent)"
                .to_string(),
        );
    }
    println!("cluster digests identical across {} topolog(ies)", rows.len());
    Ok(())
}

/// Parses the numeric value following a `--flag` in an argument iterator.
fn flag_num(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<usize, String> {
    let v = it.next().ok_or_else(|| format!("{name} needs a value"))?;
    v.parse().map_err(|e| format!("invalid {name} '{v}': {e}"))
}

/// Plain dynamic-programming edit distance; inputs are flag names, so
/// quadratic cost is irrelevant.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The shared unknown-flag error: names the closest valid flag when one
/// is plausibly intended (edit distance ≤ 3), so `--deadline` points at
/// `--deadline-ms` instead of dumping the whole usage wall alone.
fn unknown_flag(cmd: &str, flag: &str, valid: &[&str]) -> String {
    let best = valid.iter().map(|v| (edit_distance(flag, v), *v)).min().filter(|&(d, _)| d <= 3);
    match best {
        Some((_, v)) => format!("unknown {cmd} flag '{flag}' (did you mean '{v}'?)\n{USAGE}"),
        None => format!("unknown {cmd} flag '{flag}'\n{USAGE}"),
    }
}

fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16)
    } else {
        v.replace('_', "").parse()
    };
    parsed.map_err(|e| format!("invalid --seed '{v}': {e}"))
}

fn cmd_capacity(net: Network) {
    let chip = ChipConfig::dadn();
    println!("{net}: on-chip memory audit (NM 4 MB, SB 16 x 2 MB)");
    println!(
        "{:18} {:>10} {:>10} {:>10} {:>6} {:>6}",
        "layer", "in MB", "out MB", "syn MB", "NM ok", "SB ok"
    );
    for spec in net.conv_layers() {
        let f = capacity::layer_footprint(&chip, &spec, 16);
        println!(
            "{:18} {:>10.2} {:>10.2} {:>10.2} {:>6} {:>6}",
            spec.name(),
            f.input_neuron_bytes as f64 / 1e6,
            f.output_neuron_bytes as f64 / 1e6,
            f.synapse_bytes as f64 / 1e6,
            if f.fits_nm { "yes" } else { "NO" },
            if f.fits_sb { "yes" } else { "NO" },
        );
    }
}
