//! The batched simulation service: a worker pool that drains the
//! admission queue and runs each sealed batch against build-once shared
//! artifacts.
//!
//! A batch is, by construction, one workload (network × representation
//! × seed) plus a set of engine requests over it — exactly the shape of
//! one sweep job (DESIGN.md §8), so the execution path is the same:
//! source the workload once (content-addressed cache when enabled, so a
//! warm service never regenerates), run each *distinct* engine exactly
//! once, and fan the results back out to every request. Two requests
//! for the same engine in one batch cost one simulation — that is the
//! amortization the batching exists for. Responses depend only on the
//! request's own fields, never on batch composition, wire version or
//! scheduling, which is what makes response digests byte-identical
//! across worker counts and batch sizes (pinned by
//! `tests/service_determinism.rs` and the CI `serve-smoke` gate).
//!
//! Every batch with a PRA engine, v1 or v2, pool hit or miss, takes one
//! artifact path: a [`PipelinedBuild`] — the pooled network as
//! [`PipelinedBuild::finished`], or a build freshly started by
//! [`SharedEncodedNetwork::start_pipelined`] — that the lead engine
//! consumes layer by layer through [`pra_core::run`] (streaming
//! `layer_result` frames when the batch has v2 members). A started
//! build is finished and pooled right after the lead run; the other
//! PRA engines run over the finished network. A baselines-only batch
//! never starts a build: it reuses a pool hit's traffic or runs on the
//! bare workload.
//!
//! Degradation (DESIGN.md §12): every batch member is registered in the
//! [`InflightRegistry`] before the batch can fail, and a supervisor
//! thread sweeps the registry for expired deadlines, joins and respawns
//! dead workers (answering their orphaned requests
//! `shed:worker_lost` and evicting the suspect pooled artifacts), and
//! spawns bounded supplemental workers past wedged ones. The chaos
//! sites (`pra-chaos`) sit exactly on the failure paths this machinery
//! defends: worker panic after registration, simulated slowdown, and
//! spawn failure.
//!
//! [`PipelinedBuild`]: pra_core::PipelinedBuild
//! [`PipelinedBuild::finished`]: pra_core::PipelinedBuild::finished
//! [`SharedEncodedNetwork::start_pipelined`]: pra_core::SharedEncodedNetwork::start_pipelined

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pra_core::{ArtifactPool, PipelinedBuild, PraConfig, SharedEncodedNetwork};
use pra_engines::{dadn, stripes};
use pra_sim::{ChipConfig, RunResult};
use pra_workloads::cache::CacheOutcome;
use pra_workloads::LayerView;

use crate::protocol::{
    repr_label, response_digest, Engine, LatencySplit, Request, Response, ShedReason, StatsSnapshot,
};
use crate::queue::{Batch, RequestQueue, ServeConfig};
use crate::supervisor::InflightRegistry;

/// Running counters the front end and the smoke gate read.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Requests admitted to the queue.
    pub accepted: AtomicU64,
    /// Requests shed at admission.
    pub shed: AtomicU64,
    /// Batches simulated.
    pub batches: AtomicU64,
    /// Requests answered with `status: ok`.
    pub answered: AtomicU64,
    /// Batches that reused pooled workload+artifact handles instead of
    /// rebuilding (the [`ArtifactPool`] batch-to-batch reuse).
    pub pool_hits: AtomicU64,
    /// Currently open TCP connections (a gauge, maintained by the
    /// front end).
    pub live_connections: AtomicU64,
    /// Connections refused at the [`ServeConfig::max_connections`] cap.
    pub connections_shed: AtomicU64,
    /// Workers the supervisor (re)spawned after a death, a failed
    /// spawn, or a wedge.
    pub worker_restarts: AtomicU64,
    /// Requests answered `shed:deadline` after their per-request
    /// deadline expired.
    pub deadline_expired: AtomicU64,
    /// Milliseconds of blocking artifact work paid by batch workers:
    /// workload sourcing, starting the pipelined build, and finishing
    /// it (joining the builder, publishing missed entries). The encode
    /// or decode that overlaps the lead simulation is not counted. A
    /// warm disk store collapses this to workload loading — the CI
    /// `warm-start-smoke` gate pins that collapse.
    pub encode_ms: AtomicU64,
    /// Batches whose shared encoded artifacts loaded from the store's
    /// disk tier instead of being rebuilt from the workload.
    pub encoded_hits: AtomicU64,
    /// This process's shard id (copied from [`ServeConfig::shard`] at
    /// start so the snapshot path needs no config handle).
    pub shard: AtomicU64,
    /// This process's boot epoch (copied from [`ServeConfig::epoch`]).
    pub epoch: AtomicU64,
}

impl ServiceStats {
    /// A point-in-time copy, rendered over the wire by the `stats`
    /// control request.
    pub fn snapshot(&self) -> StatsSnapshot {
        // relaxed-ok: independent monotonic counters and a gauge; the
        // snapshot is advisory and needs no cross-counter consistency.
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            accepted: ld(&self.accepted),
            shed: ld(&self.shed),
            batches: ld(&self.batches),
            answered: ld(&self.answered),
            pool_hits: ld(&self.pool_hits),
            live_connections: ld(&self.live_connections),
            connections_shed: ld(&self.connections_shed),
            worker_restarts: ld(&self.worker_restarts),
            deadline_expired: ld(&self.deadline_expired),
            encode_ms: ld(&self.encode_ms),
            encoded_hits: ld(&self.encoded_hits),
            shard: ld(&self.shard),
            epoch: ld(&self.epoch),
        }
    }
}

/// Workload+artifact pool slots. All twelve standard workloads (six
/// networks × two representations) fit with headroom for a few
/// off-seed requests.
const POOL_CAPACITY: usize = 16;

/// Supervisor sweep cadence: short enough that deadline sheds and
/// worker respawns land well inside any client timeout, long enough to
/// stay invisible in profiles.
const SUPERVISOR_TICK: Duration = Duration::from_millis(5);

type WorkerSlots = Mutex<Vec<Option<JoinHandle<()>>>>;

/// The in-process batched simulation service. The TCP front end wraps
/// it; tests and the load generator can also drive it directly.
pub struct SimService {
    queue: Arc<RequestQueue>,
    cfg: ServeConfig,
    stats: Arc<ServiceStats>,
    workers: Arc<WorkerSlots>,
    supervisor: Option<JoinHandle<()>>,
}

impl SimService {
    /// Starts the worker pool described by `cfg`, plus the supervisor
    /// that keeps it healthy.
    pub fn start(cfg: ServeConfig) -> SimService {
        let queue = Arc::new(RequestQueue::new(cfg.queue_depth));
        let stats = Arc::new(ServiceStats::default());
        // relaxed-ok: written once before any reader thread exists;
        // snapshots are advisory anyway.
        stats.shard.store(cfg.shard, Ordering::Relaxed);
        // relaxed-ok: same — written once before any reader exists.
        stats.epoch.store(cfg.epoch, Ordering::Relaxed);
        let pool = Arc::new(ArtifactPool::new(POOL_CAPACITY));
        let want = cfg.workers.max(1);
        let registry = Arc::new(InflightRegistry::new(want));
        let slots: Vec<Option<JoinHandle<()>>> = (0..want)
            .map(|slot| spawn_worker(slot, &queue, &stats, &pool, &registry, &cfg))
            .collect();
        let workers = Arc::new(Mutex::new(slots));
        let supervisor = {
            let cfg = cfg.clone();
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let pool = Arc::clone(&pool);
            let registry = Arc::clone(&registry);
            let workers = Arc::clone(&workers);
            std::thread::Builder::new()
                .name("pra-serve-supervisor".to_string())
                .spawn(move || supervise(&cfg, &queue, &stats, &pool, &registry, &workers))
                .ok()
        };
        if supervisor.is_none() && lock_workers(&workers).iter().all(Option::is_none) {
            // Nothing can run batches and nothing can retry spawning:
            // close so submissions shed with ShuttingDown instead of
            // queueing forever.
            eprintln!("pra-serve: no worker or supervisor thread could be spawned; shedding");
            queue.close();
        }
        SimService { queue, cfg, stats, workers, supervisor }
    }

    /// The service configuration the pool was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Service counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Submits a request; the response arrives on `tx`. Shedding is
    /// returned to the caller *and* counted, but not sent on `tx` — the
    /// caller decides how to surface it (the TCP front end renders a
    /// `shed` response line, an in-process caller just sees the `Err`).
    ///
    /// # Errors
    ///
    /// The typed [`ShedReason`] when the request was refused.
    pub fn submit(&self, req: Request, tx: Sender<Response>) -> Result<(), ShedReason> {
        match self.queue.submit(req, tx) {
            Ok(()) => {
                // relaxed-ok: monotonic stat counter; nothing synchronizes
                // through it.
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(reason) => {
                // relaxed-ok: monotonic stat counter; nothing synchronizes
                // through it.
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                Err(reason)
            }
        }
    }

    /// Convenience for in-process callers: submit and get a dedicated
    /// response receiver.
    ///
    /// # Errors
    ///
    /// The typed [`ShedReason`] when the request was refused.
    pub fn call(&self, req: Request) -> Result<Receiver<Response>, ShedReason> {
        let (tx, rx) = channel();
        self.submit(req, tx)?;
        Ok(rx)
    }

    /// Stops admission without blocking: queued requests still drain
    /// into batches, new submissions shed with
    /// [`ShedReason::ShuttingDown`]. The front end calls this on drain
    /// while it cannot yet consume the service; [`SimService::shutdown`]
    /// (or `Drop`) still does the joining.
    pub fn begin_shutdown(&self) {
        self.queue.close();
    }

    /// Abrupt stop of admission: discards queued (not-yet-batched)
    /// requests *without answering them* and closes the queue — the
    /// shard-kill path, where the clients' connections were already
    /// severed so answers would go nowhere. Batches already in flight
    /// still run to completion against disconnected channels;
    /// [`SimService::shutdown`] (or `Drop`) still joins the threads.
    pub fn abort(&self) {
        let dropped = self.queue.abort();
        // relaxed-ok: monotonic stat counter; nothing synchronizes
        // through it.
        self.stats.shed.fetch_add(dropped as u64, Ordering::Relaxed);
    }

    /// Drains the queue and stops the workers: queued requests still get
    /// answers, new submissions shed with
    /// [`ShedReason::ShuttingDown`].
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Close, then join the supervisor (which joins the workers on its
    /// way out); idempotent so `shutdown` + `Drop` compose.
    fn stop(&mut self) {
        self.queue.close();
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        // Fallback for the no-supervisor degenerate case (and a no-op
        // otherwise: the supervisor exits with every slot joined).
        let handles: Vec<JoinHandle<()>> =
            lock_workers(&self.workers).iter_mut().filter_map(Option::take).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for SimService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Locks the worker slot table, recovering from poisoning: slots are
/// plain handles and the supervisor must keep sweeping after any panic.
fn lock_workers(workers: &WorkerSlots) -> MutexGuard<'_, Vec<Option<JoinHandle<()>>>> {
    workers.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spawns the worker for `slot`. `None` when the OS refuses the thread
/// (or the chaos `spawn-fail` site fires); the supervisor retries on
/// its next sweep.
fn spawn_worker(
    slot: usize,
    queue: &Arc<RequestQueue>,
    stats: &Arc<ServiceStats>,
    pool: &Arc<ArtifactPool>,
    registry: &Arc<InflightRegistry>,
    cfg: &ServeConfig,
) -> Option<JoinHandle<()>> {
    if pra_chaos::fires(pra_chaos::Site::SpawnFail) {
        return None;
    }
    let queue = Arc::clone(queue);
    let stats = Arc::clone(stats);
    let pool = Arc::clone(pool);
    let registry = Arc::clone(registry);
    let cfg = cfg.clone();
    std::thread::Builder::new()
        .name(format!("pra-serve-worker-{slot}"))
        .spawn(move || {
            while let Some(batch) = queue.next_batch(cfg.max_batch, cfg.linger) {
                // relaxed-ok: monotonic stat counter; nothing
                // synchronizes through it.
                stats.batches.fetch_add(1, Ordering::Relaxed);
                run_batch(&cfg, &stats, &pool, &registry, slot, batch);
            }
        })
        .ok()
}

/// Claims every deadline-expired in-flight request and answers it
/// `shed:deadline`. Called from the supervisor sweep and from workers
/// before paying for a simulation; the registry's exactly-once claim
/// makes the two callers race-free.
fn shed_expired(registry: &InflightRegistry, stats: &ServiceStats, now: Instant) {
    for c in registry.claim_expired(now) {
        // relaxed-ok: monotonic stat counter; nothing synchronizes
        // through it.
        stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
        let _ = c.tx.send(Response::Shed { id: c.id, reason: ShedReason::Deadline });
    }
}

/// Answers everything a dead worker still owed (`shed:worker_lost`,
/// retryable) and evicts the pooled artifacts its batch was using — the
/// panic may have happened mid-build, so the cheap safe move is to
/// rebuild that workload on next use.
fn reclaim_dead_slot(
    slot: usize,
    stats: &ServiceStats,
    pool: &ArtifactPool,
    registry: &InflightRegistry,
) {
    let (owed, workload) = registry.claim_dead(slot);
    for c in owed {
        // relaxed-ok: monotonic stat counter; nothing synchronizes
        // through it.
        stats.shed.fetch_add(1, Ordering::Relaxed);
        let _ = c.tx.send(Response::Shed { id: c.id, reason: ShedReason::WorkerLost });
    }
    if let Some((network, repr, seed)) = workload {
        let _ = pool.evict(network, repr, seed);
    }
}

/// The supervisor loop: deadline sweep, dead-worker reclaim + respawn,
/// wedge detection. Exits — with every worker joined — once the queue
/// is closed and fully drained.
fn supervise(
    cfg: &ServeConfig,
    queue: &Arc<RequestQueue>,
    stats: &Arc<ServiceStats>,
    pool: &Arc<ArtifactPool>,
    registry: &Arc<InflightRegistry>,
    workers: &Arc<WorkerSlots>,
) {
    let base_workers = cfg.workers.max(1);
    let max_slots = base_workers * 2;
    loop {
        if cfg.deadline.is_some() {
            shed_expired(registry, stats, Instant::now());
        }
        let all_idle = {
            let mut ws = lock_workers(workers);
            // Dead workers: join, reclaim their batch, free the slot. A
            // clean exit (join Ok) only happens once the queue closed
            // and drained, so an Err is the only reclaim trigger.
            for slot in 0..ws.len() {
                let finished =
                    ws.get(slot).and_then(|w| w.as_ref()).is_some_and(JoinHandle::is_finished);
                if finished {
                    if let Some(h) = ws.get_mut(slot).and_then(Option::take) {
                        if h.join().is_err() {
                            reclaim_dead_slot(slot, stats, pool, registry);
                        }
                    }
                }
            }
            ws.iter().all(Option::is_none)
        };
        let draining = !queue.is_closed() || !queue.is_empty() || registry.owed() > 0;
        if draining {
            let mut ws = lock_workers(workers);
            // Respawn every empty slot (failed spawns, dead workers).
            for slot in 0..ws.len() {
                if ws.get(slot).is_some_and(Option::is_none) {
                    if let Some(h) = respawn(slot, queue, stats, pool, registry, cfg) {
                        if let Some(w) = ws.get_mut(slot) {
                            *w = Some(h);
                        }
                    }
                }
            }
            // Wedge detection: a batch in flight past the wedge timeout
            // means its worker cannot be counted on; if too few healthy
            // workers remain, add a bounded supplemental one (threads
            // cannot be killed — the wedged batch ages out via its
            // deadlines while the pool keeps draining).
            let now = Instant::now();
            let live = ws.iter().filter(|w| w.is_some()).count();
            let wedged = (0..ws.len())
                .filter(|&s| {
                    ws.get(s).is_some_and(Option::is_some)
                        && registry.in_flight_age(s, now).is_some_and(|age| age > cfg.wedge_timeout)
                })
                .count();
            if wedged > 0 && live.saturating_sub(wedged) < base_workers && ws.len() < max_slots {
                let slot = ws.len();
                registry.ensure_slots(slot + 1);
                let h = respawn(slot, queue, stats, pool, registry, cfg);
                ws.push(h);
            }
        } else if all_idle {
            // Closed, drained, nothing owed, every slot joined: done.
            // One defensive final sweep answers anything that slipped in
            // between the checks (there is nothing to slip: submits shed
            // once closed).
            if cfg.deadline.is_some() {
                shed_expired(registry, stats, Instant::now());
            }
            return;
        }
        std::thread::sleep(SUPERVISOR_TICK);
    }
}

/// One supervisor-initiated spawn attempt for `slot`, counted in
/// [`ServiceStats::worker_restarts`] when it succeeds (a `None` — OS
/// refusal or the chaos `spawn-fail` site — is retried next sweep).
fn respawn(
    slot: usize,
    queue: &Arc<RequestQueue>,
    stats: &Arc<ServiceStats>,
    pool: &Arc<ArtifactPool>,
    registry: &Arc<InflightRegistry>,
    cfg: &ServeConfig,
) -> Option<JoinHandle<()>> {
    let h = spawn_worker(slot, queue, stats, pool, registry, cfg)?;
    // relaxed-ok: monotonic stat counter; nothing synchronizes through
    // it.
    stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
    Some(h)
}

/// Executes one sealed batch end to end and answers every member.
fn run_batch(
    cfg: &ServeConfig,
    stats: &ServiceStats,
    pool: &ArtifactPool,
    registry: &InflightRegistry,
    slot: usize,
    batch: Batch,
) {
    let key = batch.key;
    // Register every member before anything on this path can fail: from
    // here on, the registry owns exactly-once answering — the fan-out
    // below claims each id, and whatever this worker never claims (it
    // panicked, the deadline passed) the supervisor claims instead.
    let members: Vec<_> = batch
        .requests
        .iter()
        .map(|p| (p.req.id, p.tx.clone(), cfg.deadline.map(|d| p.submitted + d), p.req.v == 2))
        .collect();
    for c in registry.begin_batch(slot, (key.network, key.repr, key.seed), members) {
        // Unreachable by construction (finish_batch drains the slot);
        // answering beats leaking if that ever regresses.
        let _ = c.tx.send(Response::Shed { id: c.id, reason: ShedReason::WorkerLost });
    }

    if pra_chaos::fires(pra_chaos::Site::WorkerPanic) {
        // pra-lint: allow(serve-no-panic): deliberate chaos fault site —
        // it sits after registration precisely so the soak can prove the
        // supervisor reclaims the batch and respawns the worker.
        panic!("chaos: injected worker panic (site worker-panic)");
    }
    pra_chaos::stall(pra_chaos::Site::SlowSim);

    // Answer already-expired requests before paying for the simulation.
    if cfg.deadline.is_some() {
        shed_expired(registry, stats, Instant::now());
    }

    // Engine resolution failures answer per-request instead of poisoning
    // the batch (parse-time validation makes this unreachable over the
    // wire, but in-process callers construct requests directly).
    let mut engines: Vec<(String, Engine)> = Vec::new();
    for p in &batch.requests {
        if !engines.iter().any(|(l, _)| *l == p.req.engine) {
            if let Some(engine) = Engine::from_label(&p.req.engine, key.repr, cfg.fidelity) {
                engines.push((p.req.engine.clone(), engine));
            }
        }
    }

    // Nothing resolvable: answer every request with an error without
    // paying for a workload build or a baseline simulation.
    if engines.is_empty() {
        for p in &batch.requests {
            if let Some(c) = registry.claim(slot, p.req.id) {
                let resp = Response::Error {
                    id: c.id,
                    message: format!("unknown engine '{}'", p.req.engine),
                };
                // A v2 client still gets its terminal inside a `done`
                // frame — zero layer frames, since nothing simulated.
                let resp = if c.stream {
                    Response::Done { id: c.id, frames: 0, inner: Box::new(resp) }
                } else {
                    resp
                };
                let _ = c.tx.send(resp);
            }
        }
        finish_slot(registry, slot);
        return;
    }

    // One workload and one shared-artifact build per batch, and — via
    // the [`ArtifactPool`] — per *run of batches*: the pool is always
    // keyed on the full standard design-point set, so the first batch
    // of a workload builds artifacts every later batch reuses whatever
    // engine mix it carries. Every PRA batch, v1 or v2, pool hit or
    // miss, takes the same path: a hit is a build that already
    // finished, a miss starts the pipelined build (backed by the tiered
    // [`ArtifactStore`], so a warm boot streams artifacts off disk
    // instead of re-encoding). Baselines-only batches never start a
    // build — they take a pool hit's traffic or the bare workload.
    //
    // [`ArtifactStore`]: pra_workloads::cache::ArtifactStore
    let std_cfgs: Vec<PraConfig> = pra_bench::sweep::pra_configs(key.repr, cfg.fidelity);
    // The lead engine is the batch's first PRA design point: its run is
    // the one that overlaps a pipelined build and drives the frame
    // stream.
    let lead: Option<(&str, PraConfig)> = engines.iter().find_map(|(l, e)| match e {
        Engine::Pra(c) => Some((l.as_str(), *c)),
        _ => None,
    });
    // Blocking artifact work (everything that is not simulation) is
    // accumulated into `encode_ms`; the overlapped portion of a
    // pipelined build is deliberately excluded — it costs no latency.
    let ms_since = |t: Instant| t.elapsed().as_millis() as u64;
    let t = Instant::now();
    let (workload, build, pooled) = match pool.lookup(&std_cfgs, key.network, key.repr, key.seed) {
        Some((workload, shared)) => {
            // relaxed-ok: monotonic stat counter; nothing synchronizes
            // through it.
            stats.pool_hits.fetch_add(1, Ordering::Relaxed);
            (workload, Some(PipelinedBuild::finished(shared)), true)
        }
        None => {
            let (workload, _) = cfg.store.workload(key.network, key.repr, key.seed);
            let workload = Arc::new(workload);
            let build = lead.map(|_| {
                SharedEncodedNetwork::start_pipelined(&std_cfgs, &workload, key.seed, &cfg.store)
            });
            (workload, build, false)
        }
    };
    let mut build_ms = ms_since(t);

    // Any v2 member turns on streaming for the batch: the lead engine's
    // per-layer progress fans out as `layer_result` frames to exactly
    // the still-in-flight v2 members (the registry's `stream` flag
    // keeps v1 channels byte-identical to the old wire). A v1-only
    // batch never touches the registry here: `on_frame` would extend
    // every member's deadline.
    let has_streamers = batch.requests.iter().any(|p| p.req.v == 2);
    let mut frames_sent: BTreeMap<u64, usize> = BTreeMap::new();
    let layers = workload.layers.len();
    let lead_run: Option<(&str, RunResult)> = lead.zip(build.as_ref()).map(|((label, c), b)| {
        let r = pra_core::run(&c, &workload, b, |idx, partial| {
            if has_streamers {
                emit_frames(registry, slot, cfg, &mut frames_sent, idx, layers, partial);
            }
        });
        (label, r)
    });
    // The encoded probe rides the builder thread and settles with the
    // final layer — which the lead sim just consumed, so this read is
    // authoritative (a pool hit reports `Disabled`).
    let encoded_hit = build.as_ref().is_some_and(|b| b.encoded_outcome() == CacheOutcome::Hit);
    // `finish` publishes a missed encoded entry — by now the lead sim
    // warmed its memos in place — and the network joins the pool right
    // away, so the next batch over this workload is a hit.
    let shared = build.map(|b| {
        let t = Instant::now();
        let shared = b.finish(&cfg.store);
        build_ms += ms_since(t);
        if !pooled {
            pool.insert(
                key.network,
                key.repr,
                key.seed,
                &std_cfgs,
                Arc::clone(&workload),
                Arc::clone(&shared),
            );
        }
        shared
    });
    // relaxed-ok: monotonic stat counters; nothing synchronizes
    // through them.
    stats.encode_ms.fetch_add(build_ms, Ordering::Relaxed);
    if encoded_hit {
        // relaxed-ok: monotonic stat counter; nothing synchronizes
        // through it.
        stats.encoded_hits.fetch_add(1, Ordering::Relaxed);
    }
    let views: Vec<LayerView<'_>> = workload.layers.iter().map(|l| l.view()).collect();
    let chip = ChipConfig::dadn();
    let traffic = shared.as_ref().and_then(|s| s.traffic_view(&chip, Default::default(), key.repr));

    // Each distinct engine simulates exactly once; the DaDN baseline is
    // always needed for the speedup field.
    let base = dadn::run_views(&chip, &views, key.repr, traffic);

    // Streaming batches with no PRA engine stream off the baseline run
    // instead: a burst of per-layer frames as soon as it completes (the
    // baseline engines have no incremental hook, but the client still
    // gets layer granularity and the same done-frame terminal).
    if has_streamers && lead_run.is_none() {
        let mut partial = RunResult::new(base.engine.clone());
        for (idx, layer) in base.layers.iter().enumerate() {
            partial.layers.push(layer.clone());
            emit_frames(registry, slot, cfg, &mut frames_sent, idx, base.layers.len(), &partial);
        }
    }

    // The other PRA engines run over the finished artifacts.
    let done = shared.as_ref().map(|s| PipelinedBuild::finished(Arc::clone(s)));
    let totals = |r: &RunResult| (r.total_cycles(), r.total_terms(), r.speedup_over(&base));
    let mut results: BTreeMap<&str, (u64, u64, f64)> = BTreeMap::new();
    for (label, engine) in &engines {
        let answer = match engine {
            Engine::DaDn => (base.total_cycles(), base.total_terms(), 1.0),
            Engine::Stripes => totals(&stripes::run_views(&chip, &views, key.repr, traffic)),
            Engine::Pra(pra_cfg) => match (&lead_run, &done) {
                (Some((lead_label, r)), _) if lead_label == label => totals(r),
                (_, Some(done)) => totals(&pra_core::run(pra_cfg, &workload, done, |_, _| {})),
                // Unreachable: a resolved PRA engine always has a build.
                // Falling through to the per-request unknown-engine
                // error below beats panicking the worker.
                (_, None) => continue,
            },
        };
        results.insert(label.as_str(), answer);
    }

    let batch_size = batch.requests.len();
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    for p in &batch.requests {
        // Claim first: a `None` means the deadline sweep already
        // answered this request — the exactly-once discipline says this
        // worker must stay silent about it.
        let Some(claimed) = registry.claim(slot, p.req.id) else {
            continue;
        };
        let done = Instant::now();
        let joined = p.joined.unwrap_or(batch.sealed);
        let resp = match results.get(p.req.engine.as_str()) {
            Some(&(cycles, terms, speedup)) => {
                let (net, repr) = (p.req.network.name(), repr_label(p.req.repr));
                // relaxed-ok: monotonic stat counter; nothing synchronizes
                // through it.
                stats.answered.fetch_add(1, Ordering::Relaxed);
                Response::Ok {
                    id: p.req.id,
                    network: net.to_string(),
                    repr: repr.to_string(),
                    engine: p.req.engine.clone(),
                    seed: p.req.seed,
                    cycles,
                    terms,
                    speedup,
                    digest: response_digest(
                        net,
                        repr,
                        &p.req.engine,
                        p.req.seed,
                        cycles,
                        terms,
                        speedup,
                    ),
                    batch_size,
                    latency: LatencySplit {
                        enqueue_ms: ms(p.submitted, joined),
                        batch_ms: ms(joined, batch.sealed),
                        sim_ms: ms(batch.sealed, done),
                        total_ms: ms(p.submitted, done),
                    },
                }
            }
            None => Response::Error {
                id: p.req.id,
                message: format!("unknown engine '{}'", p.req.engine),
            },
        };
        // A v2 member's terminal travels inside a `done` frame carrying
        // the frame count; concatenating the done payload after the
        // frames reproduces the v1 bytes (pinned by the protocol tests
        // and the CI streaming smoke).
        let resp = if claimed.stream {
            let frames = frames_sent.get(&p.req.id).copied().unwrap_or(0);
            Response::Done { id: p.req.id, frames, inner: Box::new(resp) }
        } else {
            resp
        };
        // A disconnected client is not the service's problem.
        let _ = claimed.tx.send(resp);
    }
    finish_slot(registry, slot);
}

/// Fans one finished layer out as `layer_result` frames to every
/// still-in-flight streaming (v2) member of `slot`'s batch, counting
/// per-id frames for the terminal `done` frame. Delivering a frame also
/// extends per-request deadlines ([`InflightRegistry::on_frame`]): a
/// deadline under streaming bounds *inactivity*, not total latency —
/// a client watching frames arrive is not stuck.
fn emit_frames(
    registry: &InflightRegistry,
    slot: usize,
    cfg: &ServeConfig,
    frames_sent: &mut BTreeMap<u64, usize>,
    layer: usize,
    layers: usize,
    partial: &RunResult,
) {
    let (cycles, terms) = (partial.total_cycles(), partial.total_terms());
    for (id, tx) in registry.on_frame(slot, cfg.deadline) {
        *frames_sent.entry(id).or_insert(0) += 1;
        let _ = tx.send(Response::LayerResult { id, layer, layers, cycles, terms });
    }
}

/// Ends `slot`'s batch, defensively answering anything the fan-out
/// failed to claim (unreachable by construction).
fn finish_slot(registry: &InflightRegistry, slot: usize) {
    for c in registry.finish_batch(slot) {
        let _ = c.tx.send(Response::Shed { id: c.id, reason: ShedReason::WorkerLost });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{BatchKey, Pending};
    use pra_core::Fidelity;
    use pra_workloads::{Network, Representation};

    fn fast_cfg(workers: usize, max_batch: usize) -> ServeConfig {
        ServeConfig {
            workers,
            max_batch,
            queue_depth: 64,
            linger: Duration::from_millis(5),
            fidelity: Fidelity::Sampled { max_pallets: 2 },
            store: pra_workloads::cache::ArtifactStore::at_default().no_disk(),
            deadline: None,
            max_connections: 64,
            wedge_timeout: Duration::from_secs(30),
            ..ServeConfig::default()
        }
    }

    fn req(id: u64, engine: &str) -> Request {
        Request {
            id,
            network: Network::AlexNet,
            repr: Representation::Fixed16,
            engine: engine.to_string(),
            seed: 0xBEEF,
            v: 1,
        }
    }

    #[test]
    fn answers_every_engine_and_counts_stats() {
        let svc = SimService::start(fast_cfg(2, 8));
        let rxs: Vec<_> = ["DaDN", "Stripes", "PRA-2b", "PRA-4b", "PRA-2b-1R"]
            .iter()
            .enumerate()
            .map(|(i, e)| svc.call(req(i as u64, e)).expect("admitted"))
            .collect();
        let mut speedups = Vec::new();
        for rx in rxs {
            match rx.recv_timeout(Duration::from_secs(120)).expect("response") {
                Response::Ok { cycles, speedup, digest, latency, .. } => {
                    assert!(cycles > 0);
                    assert_eq!(digest.len(), 64, "sha256 hex digest");
                    assert!(latency.total_ms >= latency.sim_ms);
                    speedups.push(speedup);
                }
                other => panic!("expected ok, got {other:?}"),
            }
        }
        assert_eq!(speedups[0], 1.0, "DaDN speedup over itself");
        assert!(speedups[2] > 1.0, "PRA-2b must beat the baseline");
        assert_eq!(svc.stats().accepted.load(Ordering::Relaxed), 5);
        assert_eq!(svc.stats().answered.load(Ordering::Relaxed), 5);
        assert_eq!(svc.stats().shed.load(Ordering::Relaxed), 0);
        let snap = svc.stats().snapshot();
        assert_eq!((snap.accepted, snap.answered, snap.worker_restarts), (5, 5, 0));
        svc.shutdown();
    }

    #[test]
    fn consecutive_batches_reuse_pooled_artifacts() {
        let svc = SimService::start(fast_cfg(1, 1));
        // Three one-request batches over one workload: the first builds,
        // the rest must hit the pool (batch 1 ⇒ no within-batch reuse to
        // confuse the count).
        for id in 0..3 {
            let rx = svc.call(req(id, "PRA-2b")).unwrap();
            assert!(matches!(rx.recv_timeout(Duration::from_secs(120)), Ok(Response::Ok { .. })));
        }
        assert_eq!(svc.stats().batches.load(Ordering::Relaxed), 3);
        assert_eq!(
            svc.stats().pool_hits.load(Ordering::Relaxed),
            2,
            "batches 2 and 3 must reuse the pooled artifacts"
        );
        // A baselines-only batch on the same workload also profits.
        let rx = svc.call(req(9, "DaDN")).unwrap();
        assert!(matches!(rx.recv_timeout(Duration::from_secs(120)), Ok(Response::Ok { .. })));
        assert_eq!(svc.stats().pool_hits.load(Ordering::Relaxed), 3);
        svc.shutdown();
    }

    /// Runs `reqs` as one sealed batch on slot 0 of a hand-built worker
    /// context and returns every response each request received, in
    /// arrival order (`run_batch` answers before it returns).
    fn run_one_batch(
        cfg: &ServeConfig,
        stats: &ServiceStats,
        pool: &ArtifactPool,
        registry: &InflightRegistry,
        reqs: Vec<Request>,
    ) -> Vec<Vec<Response>> {
        let now = Instant::now();
        let key = BatchKey::of(&reqs[0]);
        let mut rxs = Vec::new();
        let requests = reqs
            .into_iter()
            .map(|req| {
                let (tx, rx) = channel();
                rxs.push(rx);
                Pending { key: BatchKey::of(&req), req, tx, submitted: now, joined: Some(now) }
            })
            .collect();
        run_batch(cfg, stats, pool, registry, 0, Batch { key, requests, sealed: now });
        rxs.into_iter().map(|rx| rx.try_iter().collect()).collect()
    }

    fn alexnet_layers() -> usize {
        Network::AlexNet.conv_layers().len()
    }

    #[test]
    fn v1_only_batches_never_fan_out_frames() {
        // A deadline is set: a frame fan-out would extend every
        // member's deadline, turning v1's total-latency bound into an
        // inactivity bound.
        let mut cfg = fast_cfg(1, 8);
        cfg.deadline = Some(Duration::from_secs(600));
        let (stats, pool, registry) =
            (ServiceStats::default(), ArtifactPool::new(4), InflightRegistry::new(1));
        for round in ["pool miss", "pool hit"] {
            let out = run_one_batch(
                &cfg,
                &stats,
                &pool,
                &registry,
                vec![req(1, "PRA-2b"), req(2, "PRA-4b"), req(3, "DaDN")],
            );
            for answers in &out {
                assert!(
                    matches!(answers.as_slice(), [Response::Ok { .. }]),
                    "{round}: {answers:?}"
                );
            }
            assert_eq!(registry.frame_calls(0), 0, "{round}: a v1-only batch fans out no frames");
        }
        assert_eq!(stats.pool_hits.load(Ordering::Relaxed), 1);
        // One v2 member turns on the fan-out: one call per layer, while
        // the v1 member of the same batch still gets one bare answer.
        let mut streaming = req(4, "PRA-2b");
        streaming.v = 2;
        let out =
            run_one_batch(&cfg, &stats, &pool, &registry, vec![streaming, req(5, "PRA-2b-1R")]);
        assert_eq!(registry.frame_calls(0), alexnet_layers());
        assert_eq!(out[0].len(), alexnet_layers() + 1, "one frame per layer, then done");
        assert!(
            matches!(out[0].last(), Some(Response::Done { frames, .. }) if *frames == alexnet_layers())
        );
        assert!(matches!(out[1].as_slice(), [Response::Ok { .. }]));
    }

    #[test]
    fn baselines_only_batches_never_start_a_build() {
        let dir = std::env::temp_dir().join(format!("pra-serve-baselines-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = fast_cfg(1, 8);
        cfg.store = pra_workloads::cache::ArtifactStore::new(&dir)
            .tier(pra_workloads::cache::ArtifactKind::Encoded)
            .tier(pra_workloads::cache::ArtifactKind::Traffic);
        let (stats, pool, registry) =
            (ServiceStats::default(), ArtifactPool::new(4), InflightRegistry::new(1));
        let entries = || std::fs::read_dir(&dir).map_or(0, |rd| rd.count());
        let out =
            run_one_batch(&cfg, &stats, &pool, &registry, vec![req(1, "DaDN"), req(2, "Stripes")]);
        assert!(out.iter().all(|a| matches!(a.as_slice(), [Response::Ok { .. }])));
        assert!(pool.is_empty(), "a baselines-only batch pools nothing");
        assert_eq!(entries(), 0, "a started build would have published at finish");
        // A PRA batch builds, publishes and pools; a baselines-only
        // batch after it reuses the pooled traffic.
        let _ = run_one_batch(&cfg, &stats, &pool, &registry, vec![req(3, "PRA-2b")]);
        assert_eq!(pool.len(), 1);
        assert!(entries() > 0, "the PRA batch's build published its entries");
        let _ = run_one_batch(&cfg, &stats, &pool, &registry, vec![req(4, "Stripes")]);
        assert_eq!(stats.pool_hits.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_requests_stream_layer_frames_then_done() {
        let svc = SimService::start(fast_cfg(1, 2));
        let mut streaming = req(5, "PRA-2b");
        streaming.v = 2;
        let rx = svc.call(streaming).unwrap();
        let mut frames = 0usize;
        let mut last_cycles = 0u64;
        let v2_digest = loop {
            match rx.recv_timeout(Duration::from_secs(120)).expect("frame or terminal") {
                Response::LayerResult { id, layer, layers, cycles, .. } => {
                    assert_eq!(id, 5);
                    assert_eq!(layer, frames, "frames arrive in layer order");
                    assert!(layer < layers);
                    assert!(cycles >= last_cycles, "cycle totals are cumulative");
                    last_cycles = cycles;
                    frames += 1;
                }
                Response::Done { id, frames: reported, inner } => {
                    assert_eq!(id, 5);
                    assert_eq!(reported, frames, "done frame counts the frames sent");
                    assert_eq!(frames, alexnet_layers(), "one frame per conv layer");
                    match *inner {
                        Response::Ok { id, cycles, digest, .. } => {
                            assert_eq!(id, 5);
                            assert!(cycles > 0);
                            break digest;
                        }
                        other => panic!("expected ok terminal, got {other:?}"),
                    }
                }
                other => panic!("unexpected response {other:?}"),
            }
        };
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err(), "done is terminal");
        // A v1 request for the same work gets a bare ok whose digest
        // matches the streamed terminal byte for byte.
        let rx = svc.call(req(6, "PRA-2b")).unwrap();
        match rx.recv_timeout(Duration::from_secs(120)).expect("response") {
            Response::Ok { digest, .. } => {
                assert_eq!(digest, v2_digest, "streaming must not change results");
            }
            other => panic!("expected ok, got {other:?}"),
        }
        // A pool hit streams exactly as the miss did.
        let mut streaming = req(7, "PRA-2b");
        streaming.v = 2;
        let responses: Vec<Response> = svc.call(streaming).unwrap().iter().collect();
        assert_eq!(responses.len(), alexnet_layers() + 1, "one frame per layer, then done");
        match responses.last() {
            Some(Response::Done { frames, inner, .. }) => {
                assert_eq!(*frames, alexnet_layers());
                assert!(matches!(&**inner, Response::Ok { digest, .. } if *digest == v2_digest));
            }
            other => panic!("expected done, got {other:?}"),
        }
        assert_eq!(svc.stats().pool_hits.load(Ordering::Relaxed), 2);
        svc.shutdown();
    }

    #[test]
    fn v2_requests_without_pra_engines_burst_baseline_frames() {
        let svc = SimService::start(fast_cfg(1, 2));
        let mut streaming = req(7, "Stripes");
        streaming.v = 2;
        let rx = svc.call(streaming).unwrap();
        let mut frames = 0usize;
        loop {
            match rx.recv_timeout(Duration::from_secs(120)).expect("frame or terminal") {
                Response::LayerResult { id, .. } => {
                    assert_eq!(id, 7);
                    frames += 1;
                }
                Response::Done { id, frames: reported, inner } => {
                    assert_eq!(id, 7);
                    assert_eq!(reported, frames);
                    assert_eq!(frames, alexnet_layers(), "baseline batches stream per layer too");
                    assert!(matches!(*inner, Response::Ok { .. }));
                    break;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        svc.shutdown();
    }

    #[test]
    fn duplicate_engines_in_one_batch_agree() {
        let svc = SimService::start(fast_cfg(1, 4));
        let a = svc.call(req(1, "PRA-2b")).unwrap();
        let b = svc.call(req(2, "PRA-2b")).unwrap();
        let get = |rx: Receiver<Response>| match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(Response::Ok { cycles, terms, digest, .. }) => (cycles, terms, digest),
            other => panic!("expected ok, got {other:?}"),
        };
        let (ca, ta, da) = get(a);
        let (cb, tb, db) = get(b);
        assert_eq!((ca, ta, &da), (cb, tb, &db), "identical requests, identical answers");
        svc.shutdown();
    }

    #[test]
    fn unknown_engine_answers_with_error_in_process() {
        let svc = SimService::start(fast_cfg(1, 2));
        let rx = svc.call(req(9, "NotAnEngine")).unwrap();
        match rx.recv_timeout(Duration::from_secs(120)).unwrap() {
            Response::Error { id, message } => {
                assert_eq!(id, 9);
                assert!(message.contains("NotAnEngine"));
            }
            other => panic!("expected error, got {other:?}"),
        }
        svc.shutdown();
    }

    #[test]
    fn shutdown_answers_already_queued_work() {
        let svc = SimService::start(fast_cfg(1, 8));
        let rx = svc.call(req(1, "DaDN")).unwrap();
        svc.shutdown();
        assert!(matches!(rx.recv_timeout(Duration::from_secs(120)), Ok(Response::Ok { .. })));
    }

    #[test]
    fn expired_deadline_sheds_instead_of_simulating() {
        // A zero deadline expires at admission: the worker's pre-sim
        // sweep (or the supervisor's) must answer `shed:deadline`, and
        // the fan-out must stay silent about the claimed id.
        let mut cfg = fast_cfg(1, 4);
        cfg.deadline = Some(Duration::ZERO);
        let svc = SimService::start(cfg);
        let rx = svc.call(req(1, "DaDN")).unwrap();
        match rx.recv_timeout(Duration::from_secs(120)).expect("exactly one answer") {
            Response::Shed { id, reason } => {
                assert_eq!(id, 1);
                assert_eq!(reason, ShedReason::Deadline);
                assert!(reason.retryable());
            }
            other => panic!("expected shed:deadline, got {other:?}"),
        }
        assert!(svc.stats().deadline_expired.load(Ordering::Relaxed) >= 1);
        assert_eq!(svc.stats().answered.load(Ordering::Relaxed), 0, "nothing simulated an answer");
        // The channel saw exactly one response.
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err(), "no second answer");
        svc.shutdown();
    }

    #[test]
    fn generous_deadline_does_not_disturb_answers() {
        let mut cfg = fast_cfg(2, 4);
        cfg.deadline = Some(Duration::from_secs(600));
        let svc = SimService::start(cfg);
        let rx = svc.call(req(3, "PRA-2b")).unwrap();
        match rx.recv_timeout(Duration::from_secs(120)).expect("response") {
            Response::Ok { id, cycles, .. } => {
                assert_eq!(id, 3);
                assert!(cycles > 0);
            }
            other => panic!("expected ok, got {other:?}"),
        }
        assert_eq!(svc.stats().deadline_expired.load(Ordering::Relaxed), 0);
        svc.shutdown();
    }
}
