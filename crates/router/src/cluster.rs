//! The in-process cluster harness: N shard servers plus a router in one
//! process, for `pra bench-serve --cluster` and the cluster chaos tests.
//!
//! This is bench/test scaffolding, not the serving path — it panics on
//! misuse like any harness and is excluded from the `serve-no-panic`
//! lint scope. The property it exists to prove is the acceptance gate:
//! the same bench run against 1, 2 and 4 shards produces byte-identical
//! response digests (responses are forwarded verbatim and the request
//! mix is a pure function of the bench seed), while throughput scales
//! with the shard count.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pra_serve::bench::{merge_bench_json, run_bench, BenchConfig, ServeMetrics};
use pra_serve::{ControlRequest, ServeConfig, Server};
use pra_workloads::cache::{ArtifactKind, ArtifactStore};

use crate::health::ProbeConfig;
use crate::router::{Router, RouterConfig};

/// How long [`Cluster::shutdown`] waits for each thread to stop.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(60);

/// What a cluster looks like.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shard count.
    pub shards: usize,
    /// Replica set size per key.
    pub replicas: usize,
    /// Per-shard service configuration (`shard`/`epoch` are overridden
    /// per shard: shard `s` gets id `s` and epoch `s + 1`).
    pub serve: ServeConfig,
    /// Router probe timing.
    pub probe: ProbeConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            replicas: 2,
            serve: ServeConfig::default(),
            probe: ProbeConfig::default(),
        }
    }
}

/// A running cluster: the router address to aim clients at, plus the
/// join handles shutdown collects.
pub struct Cluster {
    addr: SocketAddr,
    shard_addrs: Vec<SocketAddr>,
    router: JoinHandle<std::io::Result<()>>,
    shards: Vec<JoinHandle<std::io::Result<()>>>,
}

impl Cluster {
    /// Boots `cfg.shards` shard servers on ephemeral loopback ports and
    /// a router in front of them, all on background threads in `--once`
    /// mode (one drain winds everything down).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(cfg: &ClusterConfig) -> std::io::Result<Cluster> {
        let mut shard_addrs = Vec::with_capacity(cfg.shards);
        let mut shards = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards.max(1) {
            let serve_cfg = ServeConfig {
                shard: s as u64,
                // Nonzero so the router's restart detection (epoch
                // change on probe) is well-defined from the first probe.
                epoch: s as u64 + 1,
                store: shard_store(&cfg.serve.store, s),
                ..cfg.serve.clone()
            };
            let server = Server::bind("127.0.0.1:0", serve_cfg)?;
            shard_addrs.push(server.local_addr()?);
            shards.push(std::thread::spawn(move || server.run_once()));
        }
        let router_cfg = RouterConfig {
            shards: shard_addrs.iter().map(|a| a.to_string()).collect(),
            replicas: cfg.replicas,
            probe: cfg.probe.clone(),
            ..RouterConfig::default()
        };
        let router = Router::bind("127.0.0.1:0", router_cfg)?;
        let addr = router.local_addr()?;
        let router = std::thread::spawn(move || router.run_once());
        Ok(Cluster { addr, shard_addrs, router, shards })
    }

    /// The router's client-facing address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shard addresses, in shard-id order.
    pub fn shard_addrs(&self) -> &[SocketAddr] {
        &self.shard_addrs
    }

    /// Drains the router (which propagates the drain to every shard)
    /// and joins every thread within a deadline.
    ///
    /// # Errors
    ///
    /// Reports the first thread that failed or refused to stop. A shard
    /// that died under `shard-kill` chaos joins cleanly (its accept
    /// loop already exited), so chaos runs shut down like healthy ones.
    pub fn shutdown(self) -> Result<(), String> {
        control_line(&self.addr, ControlRequest::Drain)?;
        join_within(self.router, "router", SHUTDOWN_DEADLINE)?;
        for (s, handle) in self.shards.into_iter().enumerate() {
            join_within(handle, &format!("shard {s}"), SHUTDOWN_DEADLINE)?;
        }
        Ok(())
    }
}

/// Derives shard `s`'s private artifact store from the cluster-wide
/// one: the same tier set, rooted at `<dir>/shard-<s>` and pre-seeded
/// with a file copy of every entry the donor directory already holds
/// ([`ArtifactStore::seed_entries_from`]). Per-shard directories keep
/// one shard's corruption or stale entries from poisoning siblings,
/// while the seeding still makes every boot after the first one warm —
/// a shard whose copy fails just starts cold. A diskless store stays
/// diskless.
fn shard_store(parent: &ArtifactStore, s: usize) -> ArtifactStore {
    let Some(dir) = parent.dir() else {
        return parent.clone();
    };
    let mut store = ArtifactStore::new(dir.join(format!("shard-{s}")));
    for kind in ArtifactKind::ALL {
        if parent.tier_enabled(kind) {
            store = store.tier(kind);
        }
    }
    if let Err(e) = store.seed_entries_from(parent) {
        eprintln!("pra-router: shard {s} cache warm-up failed (starting cold): {e}");
    }
    store
}

/// Sends one control request and returns the raw reply line — how the
/// harness and tests talk to a router or shard out of band.
///
/// # Errors
///
/// Connection and read failures, or an empty reply.
pub fn control_line(addr: &SocketAddr, req: ControlRequest) -> Result<String, String> {
    let timeout = Duration::from_secs(10);
    let stream = TcpStream::connect_timeout(addr, timeout)
        .map_err(|e| format!("control connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| format!("control deadline: {e}"))?;
    let mut out = stream.try_clone().map_err(|e| format!("control clone: {e}"))?;
    out.write_all((req.to_json_line() + "\n").as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| format!("control send {addr}: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("control read {addr}: {e}"))?;
    if reply.trim().is_empty() {
        return Err(format!("control {addr}: connection closed without a reply"));
    }
    Ok(reply.trim_end().to_string())
}

fn join_within(
    handle: JoinHandle<std::io::Result<()>>,
    what: &str,
    deadline: Duration,
) -> Result<(), String> {
    let started = Instant::now();
    while !handle.is_finished() {
        if started.elapsed() > deadline {
            return Err(format!("{what} did not stop within {deadline:?}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    match handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("{what}: {e}")),
        Err(_) => Err(format!("{what} panicked")),
    }
}

/// One topology's bench outcome.
#[derive(Debug, Clone)]
pub struct ClusterRow {
    /// Shard count of this topology.
    pub shards: usize,
    /// The closed-loop bench metrics measured through the router.
    pub metrics: ServeMetrics,
}

/// Runs the same closed-loop bench against each topology in
/// `topologies` (e.g. `[1, 2, 4]`), booting and draining a fresh
/// cluster per row. With `chaos_spec`, the fault plan is armed for
/// every topology with more than one shard — a lone shard has no
/// fallback, so a `shard-kill` there would be unrecoverable *by
/// design*, not a failover bug — and disarmed again before the drain.
///
/// # Errors
///
/// The first boot, bench or shutdown failure, with the topology named.
pub fn run_cluster_bench(
    topologies: &[usize],
    bench: &BenchConfig,
    cluster: &ClusterConfig,
    chaos_spec: Option<&str>,
) -> Result<Vec<ClusterRow>, String> {
    let mut rows = Vec::with_capacity(topologies.len());
    for &shards in topologies {
        let cfg = ClusterConfig { shards, ..cluster.clone() };
        let cl = Cluster::start(&cfg).map_err(|e| format!("cluster of {shards}: {e}"))?;
        if let Some(spec) = chaos_spec.filter(|_| shards > 1) {
            pra_chaos::arm_spec(spec).map_err(|e| format!("chaos spec: {e}"))?;
        } else {
            pra_chaos::disarm();
        }
        let bench_cfg = BenchConfig { addr: cl.addr().to_string(), ..bench.clone() };
        let result = run_bench(&bench_cfg);
        // Disarm before the drain: winding the cluster down must not
        // trip further injected faults.
        pra_chaos::disarm();
        let shutdown = cl.shutdown();
        let (metrics, _responses) =
            result.map_err(|e| format!("bench against {shards} shard(s): {e}"))?;
        shutdown.map_err(|e| format!("shutdown of {shards} shard(s): {e}"))?;
        rows.push(ClusterRow { shards, metrics });
    }
    Ok(rows)
}

/// Whether every topology produced the same response digest — the
/// cluster acceptance gate.
pub fn digests_match(rows: &[ClusterRow]) -> bool {
    rows.windows(2).all(|w| w[0].metrics.digest == w[1].metrics.digest)
}

/// Renders the `"cluster"` section as one flat JSON line (no newline),
/// ready for [`merge_bench_json`] next to the `"serve"` section.
pub fn cluster_section(rows: &[ClusterRow]) -> String {
    let topologies: Vec<String> = rows
        .iter()
        .map(|r| {
            let m = &r.metrics;
            format!(
                "{{\"shards\": {}, \"requests\": {}, \"ok\": {}, \"shed\": {}, \"errors\": {}, \
                 \"retries\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"rps\": {:.2}, \
                 \"responses_sha256\": {}}}",
                r.shards,
                m.requests,
                m.ok,
                m.shed,
                m.errors,
                m.retries,
                m.p50_ms,
                m.p95_ms,
                m.rps,
                pra_bench::report::json_string(&m.digest),
            )
        })
        .collect();
    format!(
        "  \"cluster\": {{\"topologies\": [{}], \"digests_match\": {}}},",
        topologies.join(", "),
        digests_match(rows),
    )
}

/// Writes the cluster section into `bench.json` (merged, preserving the
/// sweep and serve sections) and pins `serve_responses.sha256` to the
/// first topology's digest — by the time this is called the CLI has
/// already asserted all topologies agree. Best-effort, like every
/// report; returns the bench.json path on success.
pub fn write_cluster_report(rows: &[ClusterRow]) -> Option<std::path::PathBuf> {
    let first = rows.first()?;
    let dir = pra_bench::report::report_dir();
    let existing = std::fs::read_to_string(dir.join("bench.json")).ok();
    let merged = merge_bench_json(existing.as_deref(), &cluster_section(rows));
    let _ = pra_bench::report::write_text(
        "serve_responses.sha256",
        "digest",
        &(first.metrics.digest.clone() + "\n"),
    );
    pra_bench::report::write_json("bench", &merged)
}

/// The per-topology summary table `pra bench-serve --cluster` prints.
pub fn cluster_table(rows: &[ClusterRow]) -> pra_bench::Table {
    let mut t = pra_bench::Table::new([
        "shards",
        "ok/shed/err",
        "retried",
        "p50 ms",
        "p95 ms",
        "req/s",
        "digest",
    ]);
    for r in rows {
        let m = &r.metrics;
        let digest_prefix: String = m.digest.chars().take(12).collect();
        t.row([
            &r.shards.to_string(),
            &format!("{}/{}/{}", m.ok, m.shed, m.errors),
            &m.retries.to_string(),
            &format!("{:.1}", m.p50_ms),
            &format!("{:.1}", m.p95_ms),
            &format!("{:.1}", m.rps),
            &format!("{digest_prefix}…"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(digest: &str, rps: f64) -> ServeMetrics {
        ServeMetrics {
            requests: 12,
            ok: 12,
            shed: 0,
            errors: 0,
            retries: 0,
            p50_ms: 1.0,
            p95_ms: 2.0,
            p99_ms: 3.0,
            mean_ms: 1.5,
            mean_enqueue_ms: 0.1,
            mean_batch_wait_ms: 0.2,
            mean_sim_ms: 1.0,
            mean_batch: 4.0,
            p50_first_frame_ms: 0.0,
            frames: 0,
            elapsed_ms: 100.0,
            rps,
            window: 4,
            digest: digest.to_string(),
        }
    }

    #[test]
    fn section_reports_identity_and_merges_next_to_serve() {
        let rows = vec![
            ClusterRow { shards: 1, metrics: metrics("aaa", 10.0) },
            ClusterRow { shards: 2, metrics: metrics("aaa", 19.0) },
        ];
        assert!(digests_match(&rows));
        let section = cluster_section(&rows);
        assert!(section.contains("\"digests_match\": true"), "{section}");
        assert!(section.contains("\"shards\": 2"), "{section}");
        let doc = merge_bench_json(None, &section);
        assert_eq!(doc.matches("\"cluster\":").count(), 1);

        let split = vec![
            ClusterRow { shards: 1, metrics: metrics("aaa", 10.0) },
            ClusterRow { shards: 2, metrics: metrics("bbb", 19.0) },
        ];
        assert!(!digests_match(&split));
        assert!(cluster_section(&split).contains("\"digests_match\": false"));
    }

    #[test]
    fn shard_stores_are_isolated_and_pre_seeded() {
        let dir =
            std::env::temp_dir().join(format!("pra-router-shard-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let parent = ArtifactStore::new(&dir).tier(ArtifactKind::Workload);
        let key = pra_workloads::cache::KeyHasher::new("test-shard-seed").finish();
        let cache = parent.cache_for(ArtifactKind::Workload).expect("a disk-backed tier");
        cache.store("wl", 1, &key, b"seed-me").expect("publish donor entry");
        let s0 = shard_store(&parent, 0);
        assert_eq!(s0.dir().unwrap(), dir.join("shard-0"));
        assert!(s0.tier_enabled(ArtifactKind::Workload));
        assert!(!s0.tier_enabled(ArtifactKind::Encoded), "tier set copies, not widens");
        assert_eq!(
            s0.cache_for(ArtifactKind::Workload).unwrap().load("wl", 1, &key).as_deref(),
            Some(b"seed-me".as_slice()),
            "shard store must inherit the donor's entries"
        );
        assert!(
            shard_store(&parent.clone().no_disk(), 1).dir().is_none(),
            "a diskless cluster store derives diskless shard stores"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_has_one_row_per_topology() {
        let rows = vec![
            ClusterRow { shards: 1, metrics: metrics("aaaabbbbccccdddd", 10.0) },
            ClusterRow { shards: 2, metrics: metrics("aaaabbbbccccdddd", 19.0) },
            ClusterRow { shards: 4, metrics: metrics("aaaabbbbccccdddd", 36.0) },
        ];
        let rendered = cluster_table(&rows).render();
        assert_eq!(rendered.matches("aaaabbbbcccc…").count(), 3, "{rendered}");
    }
}
