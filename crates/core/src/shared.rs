//! Build-once simulation artifacts shared across design points.
//!
//! A sweep job or a serve batch evaluates one workload under several
//! [`PraConfig`]s, and most of what a per-config simulation builds
//! does not depend on the whole design point:
//!
//! * the encoded mask buffer ([`EncodedLayer`]) depends only on the
//!   layer's neurons, its precision window and the [`EncodingKey`]
//!   (trim + encoding) — identical for every evaluated PRA variant;
//! * the brick-schedule memo ([`LayerScheduler`]) depends only on the
//!   masks and the [`SchedulerConfig`] — synchronization policy, chip
//!   structure and fidelity never reach it, so e.g. `PRA-2b` and
//!   `PRA-2b-1R` share one fully-memoized scheduler;
//! * the NM/SB traffic counters are identical across *all* engines by
//!   the paper's scheduling convention (§VI-A, [`shared_traffic`]) as
//!   long as chip, NM layout and representation agree.
//!
//! These artifacts are built one way and consumed one way.
//! [`SharedEncodedNetwork::start_pipelined`] starts a [`PipelinedBuild`]
//! that materializes each distinct artifact exactly once per layer, in
//! layer order, on a background thread; [`crate::run`] simulates one
//! design point against it, layer *n* while layer *n + 1* is still
//! building; and [`PipelinedBuild::finish`] assembles the layers into a
//! [`SharedEncodedNetwork`] and publishes whatever the store missed. A
//! network that already finished (an [`ArtifactPool`] hit) re-enters
//! the same path as [`PipelinedBuild::finished`]: every layer present,
//! no thread, nothing to publish. Every PRA network simulation in the
//! workspace — sweep, server, figure benches, examples and tests — goes
//! through this path; [`crate::simulate_layer`] builds its one layer
//! with the same per-layer builder. Results are cycle-for-cycle
//! identical to simulating each layer on its own unshared scheduler —
//! pinned by the equivalence grid in `tests/memo_sim.rs`.
//!
//! Two artifact kinds additionally persist across *processes* through
//! the tiered [`ArtifactStore`] (DESIGN.md §9, §15):
//!
//! * the NM/SB traffic table (`"tr"` entries) — geometry + chip view
//!   only, never neuron values, so one entry serves every seed. The
//!   start probes it synchronously (counters are small);
//! * the encoded masks and schedule memos (`"en"` entries,
//!   `crate::artifact`) — neuron-value dependent, keyed over the
//!   workload's content address, shared across fidelities. The builder
//!   thread streams the entry one layer at a time, so a warm start
//!   blocks on nothing heavier than key derivation.
//!
//! `finish` publishes a cold traffic count and a missed encoded entry —
//! memo-warm by then, because the simulations that ran against the
//! build filled the memos in place.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use pra_engines::shared_traffic;
use pra_sim::{AccessCounters, ChipConfig, Dispatcher, NeuronMemory, NmLayout};
use pra_workloads::cache::{ArtifactKind, ArtifactStore, CacheKey, CacheOutcome, KeyHasher};
use pra_workloads::{LayerView, NetworkWorkload, Representation};

use crate::artifact::{LayerDecoder, ENCODED_KIND, ENCODER_VERSION};
use crate::column::SchedulerConfig;
use crate::config::{EncodingKey, PraConfig};
use crate::schedule::{EncodedLayer, LayerScheduler};

/// Version of the persisted traffic-table artifact. Bump whenever the
/// traffic-counting convention changes (`shared_traffic`, the
/// dispatcher's fetch model, [`AccessCounters`] fields or their
/// serialization order): the version is hashed into the cache key, so
/// old entries become unreachable instead of serving stale counts.
pub const TRAFFIC_VERSION: u32 = 1;

/// Cache entry kind for persisted per-layer traffic tables.
pub const TRAFFIC_KIND: &str = "tr";

/// One layer's shared artifacts: every distinct `(EncodingKey,
/// SchedulerConfig)` pair the configuration set needs, each holding an
/// [`Arc`] onto its (possibly further shared) mask buffer.
pub(crate) struct SharedLayer {
    pub(crate) schedulers: Vec<(EncodingKey, SchedulerConfig, Arc<LayerScheduler>)>,
}

impl SharedLayer {
    /// The scheduler built for `cfg`'s encoding key and scheduler
    /// parameters, if the layer covers them.
    fn scheduler_for(&self, cfg: &PraConfig) -> Option<&Arc<LayerScheduler>> {
        let (key, sched_cfg) = (cfg.encoding_key(), cfg.scheduler());
        self.schedulers.iter().find(|(k, s, _)| *k == key && *s == sched_cfg).map(|(_, _, s)| s)
    }
}

/// The chip view NM/SB traffic is counted under. Counters are only
/// handed out to consumers whose view matches, so a
/// chip/layout/representation ablation can never silently borrow
/// mismatched numbers.
#[derive(Clone, Copy, PartialEq)]
struct TrafficView {
    chip: ChipConfig,
    nm_layout: NmLayout,
    repr: Representation,
}

impl TrafficView {
    fn of(cfg: &PraConfig) -> Self {
        Self { chip: cfg.chip, nm_layout: cfg.nm_layout, repr: cfg.repr }
    }

    /// The view every configuration of `configs` shares, or `None` when
    /// they disagree — the single definition behind both the sharing
    /// decision and the cached-table eligibility.
    fn shared_by(configs: &[PraConfig]) -> Option<Self> {
        let lead = Self::of(&configs[0]);
        configs.iter().all(|c| Self::of(c) == lead).then_some(lead)
    }

    /// Counts one layer's NM/SB traffic under this view — the per-layer
    /// unit of the §VI-A shared-traffic convention.
    fn count(&self, layer: &LayerView<'_>) -> AccessCounters {
        let nm = NeuronMemory::new(self.nm_layout, self.chip.nm_row_neurons(self.repr.bits()));
        shared_traffic(&self.chip, layer.spec, &Dispatcher::new(nm))
    }
}

/// Per-layer NM/SB traffic plus the view it was counted under.
struct TrafficTable {
    view: TrafficView,
    per_layer: Vec<AccessCounters>,
}

/// The distinct `(EncodingKey, SchedulerConfig)` pairs of `configs`,
/// preserving first-appearance order — the single definition shared by
/// the builder and the encoded-artifact key/payload, so the persisted
/// pair set can never diverge from what a build constructs.
pub(crate) fn wanted_pairs(configs: &[PraConfig]) -> Vec<(EncodingKey, SchedulerConfig)> {
    let mut wanted: Vec<(EncodingKey, SchedulerConfig)> = Vec::new();
    for cfg in configs {
        let pair = (cfg.encoding_key(), cfg.scheduler());
        if !wanted.contains(&pair) {
            wanted.push(pair);
        }
    }
    wanted
}

/// Encode-once, schedule-once artifacts for one workload under a set of
/// design points: what [`PipelinedBuild::finish`] assembles (see the
/// module docs).
pub struct SharedEncodedNetwork {
    layers: Vec<SharedLayer>,
    /// Shared traffic, present when every built config agrees on chip,
    /// NM layout and representation (`None` otherwise — consumers then
    /// fall back to computing their own).
    traffic: Option<TrafficTable>,
}

impl SharedEncodedNetwork {
    /// Number of layers the artifacts were built for.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The shared scheduler for `layer` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the network was not built for a configuration with
    /// `cfg`'s encoding key and scheduler parameters — sharing silently
    /// mismatched artifacts would corrupt results.
    pub fn scheduler(&self, layer: usize, cfg: &PraConfig) -> &Arc<LayerScheduler> {
        self.layers[layer].scheduler_for(cfg).unwrap_or_else(|| {
            panic!("SharedEncodedNetwork was not built for {} (layer {layer})", cfg.label())
        })
    }

    /// The shared NM/SB traffic counters for `layer` under `cfg`, or
    /// `None` when `cfg`'s chip, NM layout or representation differs
    /// from the view the counters were counted under (the caller then
    /// computes its own) — unlike schedules, traffic is *not* keyed by
    /// the scheduler parameters, so the match is checked here instead.
    pub fn traffic_for(&self, layer: usize, cfg: &PraConfig) -> Option<&AccessCounters> {
        self.traffic
            .as_ref()
            .filter(|t| t.view == TrafficView::of(cfg))
            .map(|t| &t.per_layer[layer])
    }

    /// All per-layer traffic counters — the slice other engines'
    /// `run_views` entry points accept — provided the caller's chip
    /// view matches the one the counters were counted under. `layout`
    /// is the NM layout the caller's dispatcher would use
    /// (`NmLayout::default()` for the baseline engines).
    pub fn traffic_view(
        &self,
        chip: &ChipConfig,
        layout: NmLayout,
        repr: Representation,
    ) -> Option<&[AccessCounters]> {
        let view = TrafficView { chip: *chip, nm_layout: layout, repr };
        self.traffic.as_ref().filter(|t| t.view == view).map(|t| t.per_layer.as_slice())
    }
}

/// Builds one layer's mask buffers and schedulers: every distinct
/// `(EncodingKey, SchedulerConfig)` pair, with pairs that agree on the
/// key sharing one mask buffer `Arc` — the sharing invariant the
/// persisted encoded artifacts reconstruct on load.
fn build_layer_artifacts(
    wanted: &[(EncodingKey, SchedulerConfig)],
    view: &LayerView<'_>,
) -> SharedLayer {
    let mut encodings: Vec<(EncodingKey, Arc<EncodedLayer>)> = Vec::new();
    let mut schedulers = Vec::with_capacity(wanted.len());
    for &(key, sched_cfg) in wanted {
        let encoded = match encodings.iter().find(|(k, _)| *k == key) {
            Some((_, e)) => Arc::clone(e),
            None => {
                let e = Arc::new(EncodedLayer::with_key(key, view.window, view.neurons));
                encodings.push((key, Arc::clone(&e)));
                e
            }
        };
        schedulers.push((
            key,
            sched_cfg,
            Arc::new(LayerScheduler::with_encoded(encoded, sched_cfg)),
        ));
    }
    SharedLayer { schedulers }
}

/// One layer's scheduler for one design point, built exactly as the
/// pipelined builder builds it — the single-layer paths
/// ([`crate::simulate_layer`], the inference driver) share the builder
/// instead of keeping a constructor of their own.
pub(crate) fn layer_scheduler(cfg: &PraConfig, view: &LayerView<'_>) -> Arc<LayerScheduler> {
    let wanted = wanted_pairs(std::slice::from_ref(cfg));
    let (_, _, sched) = build_layer_artifacts(&wanted, view).schedulers.remove(0);
    sched
}

/// Layer slots the pipelined builder fills in index order.
struct PipeState {
    built: Vec<Option<(SharedLayer, AccessCounters)>>,
    /// Set (with a wakeup) when the builder stops, normally or not —
    /// waiters must never block on a slot that will never fill.
    finished: bool,
    /// What the encoded store tier contributed. The builder thread owns
    /// the probe (so a warm start blocks on nothing heavier than key
    /// derivation) and resolves this from its initial value — `Miss`
    /// for a tier-enabled start, `Disabled` otherwise — in the same
    /// critical section that publishes the final layer: any consumer
    /// that has seen every layer reads a settled value.
    encoded_outcome: CacheOutcome,
}

/// Wakes every [`PipelinedBuild`] waiter when the builder thread stops
/// for *any* reason — including an unwind mid-build. Without this, a
/// panicking builder would leave a simulation thread parked on the
/// condvar forever; with it, the waiter observes `finished` with an
/// unfilled slot and raises a diagnosable panic instead of hanging.
struct NotifyOnStop(Arc<(Mutex<PipeState>, Condvar)>);

impl Drop for NotifyOnStop {
    fn drop(&mut self) {
        let (state, cv) = &*self.0;
        let mut g = state.lock().unwrap_or_else(PoisonError::into_inner);
        g.finished = true;
        drop(g);
        cv.notify_all();
    }
}

/// The shared artifacts of one workload, as the simulator consumes
/// them: layer by layer, each layer's artifacts consumable the moment
/// they exist.
///
/// A build started by [`SharedEncodedNetwork::start_pipelined`] builds
/// its layers *sequentially, in index order, on a background thread*,
/// so a simulation thread can run layer *n* while the builder encodes
/// (or streams off disk) layer *n + 1* (DESIGN.md §14);
/// [`PipelinedBuild::finish`] assembles the layers into an ordinary
/// [`SharedEncodedNetwork`]. A build made by [`PipelinedBuild::finished`]
/// wraps a network that already exists. Both forms hand out the same
/// artifacts — per-layer construction is pure, only its schedule moves.
pub struct PipelinedBuild(Build);

enum Build {
    /// Layers still arriving from the builder thread.
    InFlight(InFlight),
    /// Every layer present: no thread, nothing to publish.
    Finished(Arc<SharedEncodedNetwork>),
}

/// The in-flight form of a [`PipelinedBuild`].
struct InFlight {
    state: Arc<(Mutex<PipeState>, Condvar)>,
    /// The builder launches *lazily*, on the first consumer
    /// ([`PipelinedBuild::artifacts`] or [`PipelinedBuild::finish`]):
    /// spawning inside `start_pipelined` would make a runnable thread
    /// whose first act is heavy I/O (the encoded-entry load), and on a
    /// single core the wakeup can preempt the caller before the start
    /// call returns — charging overlapped background work to the
    /// caller's blocking-phase clock. Deferring the spawn keeps the
    /// start cost at key derivation, warm or cold.
    launch: Mutex<Launch>,
    wanted: Vec<(EncodingKey, SchedulerConfig)>,
    /// The view shared traffic is counted under (`None` when the
    /// configuration set disagrees on one).
    traffic_view: Option<TrafficView>,
    layer_count: usize,
    /// The traffic-table cache key, kept so `finish` can publish a
    /// cold count (`None` when uncacheable or the load already hit).
    traffic_key: Option<CacheKey>,
    /// The encoded-artifact key of a tier-enabled start: `finish`
    /// publishes under it unless the builder reports the entry
    /// streamed off disk intact.
    encoded_key: Option<CacheKey>,
    /// What the traffic tier contributed at start; see
    /// [`PipelinedBuild::traffic_outcome`].
    traffic_outcome: CacheOutcome,
}

/// Deferred builder launch state; see [`InFlight::launch`].
enum Launch {
    /// Not yet running: the whole-build closure, callable many times
    /// (all captures are read-only) but called at most once.
    Pending(Arc<dyn Fn() + Send + Sync>),
    /// Running or done; `None` once joined (or after an inline
    /// fallback run, which has no handle).
    Started(Option<std::thread::JoinHandle<()>>),
}

impl PipelinedBuild {
    /// A build that has already finished — how a pooled network
    /// re-enters the one consumption path. It has every layer, starts
    /// no thread, reports both store tiers `Disabled` (nothing touched
    /// disk), and its [`PipelinedBuild::finish`] hands `network` back
    /// without publishing anything.
    pub fn finished(network: Arc<SharedEncodedNetwork>) -> Self {
        Self(Build::Finished(network))
    }

    /// How many layers the build covers.
    pub fn layer_count(&self) -> usize {
        match &self.0 {
            Build::InFlight(b) => b.layer_count,
            Build::Finished(network) => network.layer_count(),
        }
    }

    /// What the encoded store tier contributed: `Hit` when every mask
    /// buffer and memo streamed off disk, `Miss` when a tier-enabled
    /// build (re)encoded and `finish` will publish, `Disabled` when the
    /// tier is off or the build had already finished. The probe runs on
    /// the builder thread, so this settles with the final layer: read
    /// it after the build completes (all layers consumed); earlier
    /// reads see the tier's configuration (`Disabled`/`Miss`), not the
    /// disk's answer.
    pub fn encoded_outcome(&self) -> CacheOutcome {
        match &self.0 {
            Build::InFlight(b) => b.lock().encoded_outcome,
            Build::Finished(_) => CacheOutcome::Disabled,
        }
    }

    /// What the traffic store tier contributed at start (that probe is
    /// cheap — counters, not masks — and stays synchronous): `Hit` when
    /// the table loaded, `Miss` when `finish` will publish a cold
    /// count, `Disabled` when the tier is off, the configuration set
    /// does not share one traffic view, or the build had already
    /// finished.
    pub fn traffic_outcome(&self) -> CacheOutcome {
        match &self.0 {
            Build::InFlight(b) => b.traffic_outcome,
            Build::Finished(_) => CacheOutcome::Disabled,
        }
    }

    /// Blocks until `layer`'s artifacts are built, then returns the
    /// shared scheduler for `cfg` plus the layer's traffic counters
    /// (`None` exactly when [`SharedEncodedNetwork::traffic_for`]
    /// would answer `None`).
    ///
    /// # Panics
    ///
    /// Panics if the build does not cover `cfg` or `layer`, or if the
    /// builder thread died before producing the layer.
    pub fn artifacts(
        &self,
        layer: usize,
        cfg: &PraConfig,
    ) -> (Arc<LayerScheduler>, Option<AccessCounters>) {
        assert!(layer < self.layer_count(), "pipelined build has no layer {layer}");
        match &self.0 {
            Build::InFlight(b) => b.artifacts(layer, cfg),
            Build::Finished(network) => (
                Arc::clone(network.scheduler(layer, cfg)),
                network.traffic_for(layer, cfg).copied(),
            ),
        }
    }

    /// Completes the build: an in-flight build joins its builder,
    /// assembles the layers into a [`SharedEncodedNetwork`] and
    /// publishes through `store` whatever the start missed — a cold
    /// traffic count when one was keyed, and the encoded artifacts
    /// (memo-warm: the sims that ran against the in-flight build filled
    /// them in place). A finished build returns its network untouched.
    ///
    /// # Panics
    ///
    /// Panics if the builder thread panicked (the artifacts would be
    /// incomplete; callers treat it like any worker panic).
    pub fn finish(self, store: &ArtifactStore) -> Arc<SharedEncodedNetwork> {
        match self.0 {
            Build::InFlight(b) => Arc::new(b.finish(store)),
            Build::Finished(network) => network,
        }
    }
}

impl InFlight {
    /// Spawns the builder if no consumer has yet; on thread exhaustion
    /// every layer is built inline here instead (no overlap, same
    /// bytes) — racing consumers park on the launch lock until the
    /// layers exist.
    fn ensure_started(&self) {
        let mut g = self.launch.lock().unwrap_or_else(PoisonError::into_inner);
        let Launch::Pending(build_all) = &*g else {
            return;
        };
        let build_all = Arc::clone(build_all);
        let spawned = std::thread::Builder::new().name("pra-pipeline-build".to_string()).spawn({
            let build_all = Arc::clone(&build_all);
            move || build_all()
        });
        *g = Launch::Started(match spawned {
            Ok(handle) => Some(handle),
            Err(_) => {
                build_all();
                None
            }
        });
    }

    fn lock(&self) -> MutexGuard<'_, PipeState> {
        self.state.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn artifacts(
        &self,
        layer: usize,
        cfg: &PraConfig,
    ) -> (Arc<LayerScheduler>, Option<AccessCounters>) {
        self.ensure_started();
        let mut g = self.lock();
        let (layer_arts, traffic) = loop {
            if let Some((arts, traffic)) = g.built.get(layer).and_then(|slot| slot.as_ref()) {
                break (arts, *traffic);
            }
            assert!(
                !g.finished,
                "pipelined build stopped before producing layer {layer} (builder panicked?)"
            );
            g = self.state.1.wait(g).unwrap_or_else(PoisonError::into_inner);
        };
        let sched = layer_arts.scheduler_for(cfg).cloned().unwrap_or_else(|| {
            panic!("PipelinedBuild was not built for {} (layer {layer})", cfg.label())
        });
        let traffic = (self.traffic_view == Some(TrafficView::of(cfg))).then_some(traffic);
        (sched, traffic)
    }

    fn finish(self, store: &ArtifactStore) -> SharedEncodedNetwork {
        self.ensure_started();
        let handle = match &mut *self.launch.lock().unwrap_or_else(PoisonError::into_inner) {
            Launch::Started(handle) => handle.take(),
            Launch::Pending(_) => unreachable!("ensure_started leaves no Pending launch"),
        };
        if let Some(handle) = handle {
            assert!(handle.join().is_ok(), "pipelined artifact build panicked");
        }
        let mut g = self.lock();
        let built: Option<Vec<(SharedLayer, AccessCounters)>> = g.built.drain(..).collect();
        let encoded_outcome = g.encoded_outcome;
        drop(g);
        let built = built.unwrap_or_else(|| panic!("pipelined build finished with missing layers"));
        let (layers, per_layer): (Vec<SharedLayer>, Vec<AccessCounters>) =
            built.into_iter().unzip();
        // Publication is best-effort, like every cache store.
        if let (Some(key), Some(cache)) =
            (self.traffic_key.as_ref(), store.cache_for(ArtifactKind::Traffic))
        {
            let _ = cache.store(TRAFFIC_KIND, TRAFFIC_VERSION, key, &encode_traffic(&per_layer));
        }
        // An entry that streamed off disk intact has nothing to
        // publish; anything less (miss, corrupt, partial) creates or
        // repairs it.
        if let (Some(key), Some(cache), false) = (
            self.encoded_key.as_ref(),
            store.cache_for(ArtifactKind::Encoded),
            encoded_outcome == CacheOutcome::Hit,
        ) {
            let payload = crate::artifact::encode_layers(&layers, &self.wanted);
            let _ = cache.store(ENCODED_KIND, ENCODER_VERSION, key, &payload);
        }
        SharedEncodedNetwork {
            layers,
            traffic: self.traffic_view.map(|view| TrafficTable { view, per_layer }),
        }
    }
}

impl SharedEncodedNetwork {
    /// Starts a pipelined (layer-at-a-time, background-thread) build of
    /// the shared artifacts for `workload` under `configs` — the only
    /// way these artifacts are built. The traffic tier is probed
    /// synchronously (counters are small); the *encoded* tier's probe —
    /// the entry load and its streamed decode — rides the builder
    /// thread, so this call blocks on nothing heavier than key
    /// derivation and a warm start's layers become consumable one by
    /// one, exactly as a cold encode streams them: warm or cold, the
    /// caller's foreground cost is simulation only. If the build thread
    /// cannot be spawned, the first consumer builds every layer inline
    /// (slower, never wrong). Either tier falls back bit-identically to
    /// a fresh build when disabled, missing, corrupt, truncated or
    /// version-drifted. `seed` is the workload's generator seed — it
    /// reaches the encoded key through the workload's content address,
    /// since masks (unlike traffic) depend on neuron values.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn start_pipelined(
        configs: &[PraConfig],
        workload: &Arc<NetworkWorkload>,
        seed: u64,
        store: &ArtifactStore,
    ) -> PipelinedBuild {
        assert!(!configs.is_empty(), "SharedEncodedNetwork needs at least one configuration");
        let wanted = wanted_pairs(configs);
        let traffic_view = TrafficView::shared_by(configs);
        let layer_count = workload.layers.len();

        // Encoded tier: derive the key now (cheap — it hashes
        // generation inputs, not tensors) and hand the cache handle to
        // the builder.
        let encoded_probe = store
            .cache_for(ArtifactKind::Encoded)
            .map(|cache| (cache.clone(), crate::artifact::encoded_key(workload, seed, &wanted)));
        let encoded_key = encoded_probe.as_ref().map(|(_, key)| key.clone());

        // Traffic tier: only a configuration set sharing one view has a
        // table to cache.
        let traffic_probe = traffic_view
            .zip(store.cache_for(ArtifactKind::Traffic))
            .map(|(view, cache)| (cache, traffic_key(workload, &view)));
        let preloaded = traffic_probe
            .as_ref()
            .and_then(|(cache, key)| cache.load(TRAFFIC_KIND, TRAFFIC_VERSION, key))
            .and_then(|payload| decode_traffic(&payload, layer_count));
        let traffic_outcome = match (&traffic_probe, &preloaded) {
            (None, _) => CacheOutcome::Disabled,
            (Some(_), Some(_)) => CacheOutcome::Hit,
            (Some(_), None) => CacheOutcome::Miss,
        };
        let traffic_key = traffic_probe.map(|(_, key)| key).filter(|_| preloaded.is_none());

        let state = Arc::new((
            Mutex::new(PipeState {
                built: (0..layer_count).map(|_| None).collect(),
                finished: false,
                encoded_outcome: if encoded_probe.is_some() {
                    CacheOutcome::Miss
                } else {
                    CacheOutcome::Disabled
                },
            }),
            Condvar::new(),
        ));
        let thread_state = Arc::clone(&state);
        let thread_workload = Arc::clone(workload);
        let thread_wanted = wanted.clone();
        let build_all = move || {
            let _notify = NotifyOnStop(Arc::clone(&thread_state));
            let last = thread_workload.layers.len().checked_sub(1);
            let mut decoder = encoded_probe.as_ref().and_then(|(cache, key)| {
                let payload = cache.load(ENCODED_KIND, ENCODER_VERSION, key)?;
                let dims: Vec<_> = thread_workload.layers.iter().map(|l| l.neurons.dim()).collect();
                LayerDecoder::new(payload, &thread_wanted, &dims)
            });
            for (idx, layer) in thread_workload.layers.iter().enumerate() {
                let view = layer.view();
                let arts = match decoder.as_mut().and_then(LayerDecoder::next_layer) {
                    Some(arts) => arts,
                    None => {
                        // No usable entry, or a mid-stream decode
                        // failure: drop the decoder (a failed stream
                        // must not misalign later layers) and encode
                        // fresh — bit-identical either way.
                        decoder = None;
                        build_layer_artifacts(&thread_wanted, &view)
                    }
                };
                let traffic = match (preloaded.as_ref(), traffic_view) {
                    (Some(table), _) => table[idx],
                    (None, Some(view_of)) => view_of.count(&view),
                    (None, None) => AccessCounters::new(),
                };
                let streamed = decoder.as_ref().is_some_and(LayerDecoder::fully_consumed);
                let (state, cv) = &*thread_state;
                let mut g = state.lock().unwrap_or_else(PoisonError::into_inner);
                g.built[idx] = Some((arts, traffic));
                if Some(idx) == last && encoded_probe.is_some() {
                    // Settled in the same critical section as the final
                    // layer: consumers that saw every layer read the
                    // disk's true answer, never a racing placeholder.
                    g.encoded_outcome =
                        if streamed { CacheOutcome::Hit } else { CacheOutcome::Miss };
                }
                drop(g);
                cv.notify_all();
            }
        };
        PipelinedBuild(Build::InFlight(InFlight {
            state,
            // Deferred: the first consumer spawns the builder (see the
            // field's doc) — this call stays free of a runnable thread.
            launch: Mutex::new(Launch::Pending(Arc::new(build_all))),
            wanted,
            traffic_view,
            layer_count,
            traffic_key,
            encoded_key,
            traffic_outcome,
        }))
    }
}

/// A bounded, most-recently-used in-memory pool of finished builds,
/// keyed by workload identity (network, representation, seed) plus the
/// exact design-point set — the *batch-to-batch* reuse layer of the
/// serving path (DESIGN.md §10), and the top tier of the pool → disk →
/// generate resolution order: a miss here starts a
/// [`SharedEncodedNetwork::start_pipelined`] build, which consults the
/// [`ArtifactStore`]'s on-disk tiers (§9, §15) before any generation or
/// encoding is paid for. The workload tensor and every
/// mask/schedule/traffic artifact are handed out as shared [`Arc`]s,
/// so a hit costs two pointer clones instead of a rebuild.
///
/// The pool is deliberately small (serving traffic concentrates on few
/// hot workloads; all six networks × both representations are 12
/// entries, so the serving path provisions 16) and drops
/// least-recently-used entries beyond capacity. Reuse never changes
/// results: the keyed workload is
/// bit-identical by the generator's determinism guarantee, and the
/// artifacts are immutable once built.
pub struct ArtifactPool {
    capacity: usize,
    entries: std::sync::Mutex<Vec<PoolEntry>>,
}

struct PoolEntry {
    network: pra_workloads::Network,
    repr: Representation,
    seed: u64,
    configs: Vec<PraConfig>,
    workload: Arc<NetworkWorkload>,
    shared: Arc<SharedEncodedNetwork>,
}

impl ArtifactPool {
    /// A pool holding at most `capacity` workload+artifact pairs.
    pub fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), entries: std::sync::Mutex::new(Vec::new()) }
    }

    /// Locks the entry list, recovering from poisoning. A worker that
    /// panicked while holding the lock cannot leave a half-mutated
    /// entry behind — entries are immutable `Arc` bundles and the list
    /// operations (`remove`/`insert`/`truncate`) never unwind midway —
    /// so the pool keeps serving instead of cascading the panic into
    /// every later batch. Defense in depth for the case a panicking
    /// *build* published something suspect anyway is [`Self::evict`],
    /// which the serve supervisor calls for the dead worker's key.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<PoolEntry>> {
        self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Pooled entries currently held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing is pooled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pooled workload and artifacts for the key (marking the entry
    /// most-recently-used), or `None` without building anything. A
    /// PRA consumer wraps a hit in [`PipelinedBuild::finished`]; a
    /// baselines-only consumer that would never pay for an encode still
    /// profits from the traffic a richer batch already built.
    pub fn lookup(
        &self,
        configs: &[PraConfig],
        network: pra_workloads::Network,
        repr: Representation,
        seed: u64,
    ) -> Option<(Arc<NetworkWorkload>, Arc<SharedEncodedNetwork>)> {
        let mut entries = self.lock();
        let idx = entries.iter().position(|e| {
            e.network == network && e.repr == repr && e.seed == seed && e.configs == configs
        })?;
        let entry = entries.remove(idx);
        let out = (Arc::clone(&entry.workload), Arc::clone(&entry.shared));
        entries.insert(0, entry);
        Some(out)
    }

    /// Pools a finished build ([`PipelinedBuild::finish`]'s network)
    /// so the next batch over the same key is a
    /// [`ArtifactPool::lookup`] hit: inserted most-recently-used,
    /// entries beyond capacity evicted, last racing insert wins.
    pub fn insert(
        &self,
        network: pra_workloads::Network,
        repr: Representation,
        seed: u64,
        configs: &[PraConfig],
        workload: Arc<NetworkWorkload>,
        shared: Arc<SharedEncodedNetwork>,
    ) {
        let mut entries = self.lock();
        entries.insert(
            0,
            PoolEntry { network, repr, seed, configs: configs.to_vec(), workload, shared },
        );
        entries.truncate(self.capacity);
    }

    /// Drops every pooled entry for `(network, repr, seed)`, whatever
    /// design-point set it was built under. The serve supervisor calls
    /// this after reclaiming a dead worker's batch: the pooled
    /// artifacts are immutable and *should* be sound, but a panic
    /// inside a build/simulate path costs one rebuild to rule out,
    /// while trusting a suspect entry could poison every later answer
    /// for that workload. Returns how many entries were dropped.
    pub fn evict(&self, network: pra_workloads::Network, repr: Representation, seed: u64) -> usize {
        let mut entries = self.lock();
        let before = entries.len();
        entries.retain(|e| !(e.network == network && e.repr == repr && e.seed == seed));
        before - entries.len()
    }
}

/// Compile-time fingerprint of the traffic-counting pipeline's sources
/// (this module, `shared_traffic` in pra-engines, the dispatcher/NM
/// model and counters in pra-sim), mixed into every traffic key: a
/// counting change that forgets the [`TRAFFIC_VERSION`] bump makes old
/// entries unreachable locally, matching the workload cache's
/// fail-closed behavior (CI's actions/cache key hashes the same
/// sources).
fn traffic_source_fingerprint() -> u64 {
    static FP: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *FP.get_or_init(|| {
        let sources: [&str; 4] = [
            include_str!("shared.rs"),
            include_str!("../../engines/src/lib.rs"),
            include_str!("../../sim/src/dispatcher.rs"),
            include_str!("../../sim/src/neuron_memory.rs"),
        ];
        let mut h = 0u64;
        for s in sources {
            h = pra_workloads::cache::checksum64(s.as_bytes()) ^ h.rotate_left(9);
        }
        h
    })
}

/// Content-address of a workload's shared traffic table: per-layer
/// geometry plus the full chip view. Traffic never depends on neuron
/// values or the workload seed, so one entry serves every seed and
/// every fidelity.
fn traffic_key(workload: &NetworkWorkload, view: &TrafficView) -> CacheKey {
    let mut h = KeyHasher::new("pra-traffic-v1");
    h.u32(TRAFFIC_VERSION);
    h.u64(traffic_source_fingerprint());
    h.str(workload.network.name());
    h.u64(workload.layers.len() as u64);
    for layer in &workload.layers {
        h.conv_spec(&layer.spec);
    }
    let chip = &view.chip;
    for d in [
        chip.tiles,
        chip.filters_per_tile,
        chip.brick,
        chip.windows_per_pallet,
        chip.nm_bytes,
        chip.nm_row_bytes,
        chip.sb_bytes_per_tile,
    ] {
        h.u64(d as u64);
    }
    h.f64(chip.frequency_ghz);
    h.u32(match view.nm_layout {
        NmLayout::PalletMajor => 0,
        NmLayout::RowMajor => 1,
    });
    h.u32(view.repr.bits());
    h.finish()
}

/// Serializes a per-layer traffic table: layer count, then the seven
/// [`AccessCounters`] fields per layer, all `u64` little-endian.
fn encode_traffic(table: &[AccessCounters]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + table.len() * 56);
    out.extend_from_slice(&(table.len() as u32).to_le_bytes());
    for c in table {
        for v in [
            c.nm_brick_reads,
            c.nm_row_activations,
            c.nm_brick_writes,
            c.sb_set_reads,
            c.terms,
            c.idle_lane_cycles,
            c.stall_cycles,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Inverse of [`encode_traffic`]; `None` unless the payload holds
/// exactly `expected_layers` entries (a geometry change without a key
/// change would be a bug, but stale bytes must still fail closed).
fn decode_traffic(payload: &[u8], expected_layers: usize) -> Option<Vec<AccessCounters>> {
    if payload.len() < 4 {
        return None;
    }
    let n = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
    if n != expected_layers || payload.len() != 4 + n * 56 {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    let mut vals = payload[4..].chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap()));
    for _ in 0..n {
        out.push(AccessCounters {
            nm_brick_reads: vals.next()?,
            nm_row_activations: vals.next()?,
            nm_brick_writes: vals.next()?,
            sb_set_reads: vals.next()?,
            terms: vals.next()?,
            idle_lane_cycles: vals.next()?,
            stall_cycles: vals.next()?,
        });
    }
    Some(out)
}

/// A two-layer toy workload for artifact tests (shared with
/// `crate::artifact`) — deterministic content, real geometry, no
/// generator run.
#[cfg(test)]
pub(crate) fn test_toy_workload() -> NetworkWorkload {
    use pra_fixed::PrecisionWindow;
    use pra_tensor::{ConvLayerSpec, Tensor3};
    let toy_layer = || {
        let spec = ConvLayerSpec::new("toy", (12, 6, 32), (3, 3), 32, 1, 1).unwrap();
        pra_workloads::LayerWorkload {
            neurons: Tensor3::from_fn(spec.input, |x, y, i| ((x * 31 + y * 7 + i) % 777) as u16),
            spec,
            window: PrecisionWindow::with_width(9, 2),
            stripes_precision: 9,
        }
    };
    NetworkWorkload {
        network: pra_workloads::Network::AlexNet,
        repr: Representation::Fixed16,
        model: pra_workloads::ActivationModel {
            zero_frac: 0.5,
            sigma: 0.1,
            suffix_density: 0.3,
            outlier_prob: 0.0,
            dense_prob: 0.05,
            heavy_share: 0.5,
        },
        layers: vec![toy_layer(), toy_layer()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Encoding;
    use crate::sim::run;
    use pra_sim::RunResult;
    use pra_workloads::Representation;
    use proptest::prelude::*;

    fn toy_workload() -> Arc<NetworkWorkload> {
        Arc::new(test_toy_workload())
    }

    fn memless() -> ArtifactStore {
        ArtifactStore::at_default().no_disk()
    }

    /// The single builder, run synchronously over a diskless store.
    fn built(configs: &[PraConfig], workload: &Arc<NetworkWorkload>) -> Arc<SharedEncodedNetwork> {
        let store = memless();
        SharedEncodedNetwork::start_pipelined(configs, workload, 0, &store).finish(&store)
    }

    /// One build as the sweep runs it: every config simulates while the
    /// layers arrive (warming the memos), the tier outcomes are read
    /// once all layers were consumed, then `finish` publishes.
    fn run_build(
        configs: &[PraConfig],
        workload: &Arc<NetworkWorkload>,
        seed: u64,
        store: &ArtifactStore,
    ) -> (Vec<RunResult>, CacheOutcome, CacheOutcome, Arc<SharedEncodedNetwork>) {
        let build = SharedEncodedNetwork::start_pipelined(configs, workload, seed, store);
        let results = configs.iter().map(|c| run(c, workload, &build, |_, _| {})).collect();
        let outcomes = (build.encoded_outcome(), build.traffic_outcome());
        (results, outcomes.0, outcomes.1, build.finish(store))
    }

    /// Every config of `configs` simulated against an already-built
    /// network.
    fn run_finished(
        configs: &[PraConfig],
        workload: &NetworkWorkload,
        network: &Arc<SharedEncodedNetwork>,
    ) -> Vec<RunResult> {
        let done = PipelinedBuild::finished(Arc::clone(network));
        configs.iter().map(|c| run(c, workload, &done, |_, _| {})).collect()
    }

    /// Pool → build resolution as the serving path performs it: a hit
    /// answers from the pool; a miss builds through `store` and pools
    /// the finished network. Returns whether the pool answered.
    fn pooled(
        pool: &ArtifactPool,
        configs: &[PraConfig],
        seed: u64,
        store: &ArtifactStore,
    ) -> (Arc<NetworkWorkload>, Arc<SharedEncodedNetwork>, bool) {
        let (net, repr) = (pra_workloads::Network::AlexNet, Representation::Fixed16);
        if let Some((workload, shared)) = pool.lookup(configs, net, repr, seed) {
            return (workload, shared, true);
        }
        let workload = Arc::new(store.workload(net, repr, seed).0);
        let shared =
            SharedEncodedNetwork::start_pipelined(configs, &workload, seed, store).finish(store);
        pool.insert(net, repr, seed, configs, Arc::clone(&workload), Arc::clone(&shared));
        (workload, shared, false)
    }

    /// A store over a fresh scratch directory (removed on drop misuse
    /// is fine: the names are per-test and per-process).
    fn scratch_store(tag: &str, kinds: &[ArtifactKind]) -> (std::path::PathBuf, ArtifactStore) {
        let dir = std::env::temp_dir().join(format!("pra-shared-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ArtifactStore::new(&dir);
        for &kind in kinds {
            store = store.tier(kind);
        }
        (dir, store)
    }

    /// Removes every `en-*` entry in `dir`, returning how many there
    /// were.
    fn remove_encoded_entries(dir: &std::path::Path) -> usize {
        let Ok(rd) = std::fs::read_dir(dir) else { return 0 };
        let mut n = 0;
        for entry in rd.flatten() {
            if entry.file_name().to_string_lossy().starts_with("en-") {
                std::fs::remove_file(entry.path()).unwrap();
                n += 1;
            }
        }
        n
    }

    #[test]
    fn equal_scheduler_configs_share_one_scheduler() {
        let configs = [
            PraConfig::two_stage(2, Representation::Fixed16),
            PraConfig::per_column(1, Representation::Fixed16),
            PraConfig::single_stage(Representation::Fixed16),
        ];
        let shared = built(&configs, &toy_workload());
        // PRA-2b and PRA-2b-1R agree on (key, scheduler): same Arc.
        let a = shared.scheduler(0, &configs[0]);
        let b = shared.scheduler(0, &configs[1]);
        assert!(Arc::ptr_eq(a, b), "equal scheduler configs must share the memo");
        // PRA-4b differs in L but shares the mask buffer.
        let c = shared.scheduler(0, &configs[2]);
        assert!(!Arc::ptr_eq(a, c));
        assert!(Arc::ptr_eq(a.encoded_arc(), c.encoded_arc()), "same key must share masks");
    }

    #[test]
    fn distinct_encodings_get_distinct_masks() {
        let csd = PraConfig {
            encoding: Encoding::Csd,
            ..PraConfig::two_stage(2, Representation::Fixed16)
        };
        let one = PraConfig::two_stage(2, Representation::Fixed16);
        let shared = built(&[one, csd], &toy_workload());
        let a = shared.scheduler(0, &one);
        let b = shared.scheduler(0, &csd);
        assert!(!Arc::ptr_eq(a.encoded_arc(), b.encoded_arc()));
    }

    #[test]
    fn traffic_shared_only_under_matching_chip_view() {
        let workload = toy_workload();
        let one = PraConfig::two_stage(2, Representation::Fixed16);
        let row_major = PraConfig { nm_layout: NmLayout::RowMajor, ..one };
        let quant = PraConfig::two_stage(2, Representation::Quant8);
        // The in-flight build hands out traffic under the same rule the
        // assembled network applies.
        let store = memless();
        let pipe = SharedEncodedNetwork::start_pipelined(&[one], &workload, 0, &store);
        assert!(pipe.artifacts(0, &one).1.is_some());
        assert!(pipe.artifacts(0, &row_major).1.is_none(), "layout ablation must not reuse");
        let shared = pipe.finish(&store);
        assert!(shared.traffic_for(0, &one).is_some());
        assert!(shared.traffic_view(&one.chip, one.nm_layout, one.repr).is_some());
        // A consumer whose chip view differs gets nothing — even though
        // its scheduler parameters match, it must count its own traffic.
        let _ = shared.scheduler(0, &row_major); // schedules DO match
        assert!(shared.traffic_for(0, &row_major).is_none(), "layout ablation must not reuse");
        assert!(shared.traffic_view(&one.chip, NmLayout::RowMajor, one.repr).is_none());
        assert!(shared.traffic_for(0, &quant).is_none());
        let mixed = built(&[one, quant], &workload);
        assert!(
            mixed.traffic_for(0, &one).is_none(),
            "mixed representations must not share traffic"
        );
    }

    #[test]
    fn traffic_round_trips_and_serves_warm_builds() {
        let table = vec![
            AccessCounters { nm_brick_reads: 3, terms: 9, ..Default::default() },
            AccessCounters { sb_set_reads: 7, stall_cycles: 1, ..Default::default() },
        ];
        let decoded = decode_traffic(&encode_traffic(&table), 2).expect("round trip");
        assert_eq!(decoded, table);
        assert!(decode_traffic(&encode_traffic(&table), 3).is_none(), "layer count checked");
        assert!(decode_traffic(&encode_traffic(&table)[..10], 2).is_none(), "truncation rejected");

        let (dir, store) = scratch_store("traffic", &[ArtifactKind::Traffic]);
        let workload = toy_workload();
        let configs = [PraConfig::two_stage(2, Representation::Fixed16)];
        let (_, encoded, traffic, cold) = run_build(&configs, &workload, 0xA, &store);
        assert_eq!(traffic, CacheOutcome::Miss, "first build must count traffic");
        assert_eq!(encoded, CacheOutcome::Disabled, "encoded tier not enabled here");
        let (_, _, traffic, warm) = run_build(&configs, &workload, 0xA, &store);
        assert_eq!(traffic, CacheOutcome::Hit, "second build must load the table");
        let plain = built(&configs, &workload);
        let chip = configs[0].chip;
        let (layout, repr) = (configs[0].nm_layout, configs[0].repr);
        assert_eq!(
            warm.traffic_view(&chip, layout, repr).expect("warm traffic"),
            plain.traffic_view(&chip, layout, repr).expect("plain traffic"),
            "cached traffic must be byte-identical to a fresh count"
        );
        assert_eq!(
            cold.traffic_view(&chip, layout, repr).unwrap(),
            warm.traffic_view(&chip, layout, repr).unwrap(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mixed_chip_views_skip_the_traffic_cache() {
        let (dir, store) = scratch_store("traffic-mixed", &[ArtifactKind::Traffic]);
        let one = PraConfig::two_stage(2, Representation::Fixed16);
        let row_major = PraConfig { nm_layout: NmLayout::RowMajor, ..one };
        let (_, _, traffic, built) = run_build(&[one, row_major], &toy_workload(), 0xA, &store);
        assert_eq!(
            traffic,
            CacheOutcome::Disabled,
            "disagreeing chip views have no shared table to cache"
        );
        assert!(built.traffic_for(0, &one).is_none());
        assert!(!dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn encoded_artifacts_round_trip_through_the_store() {
        let (dir, store) =
            scratch_store("encoded", &[ArtifactKind::Encoded, ArtifactKind::Traffic]);
        let workload = toy_workload();
        // Three design points, two distinct scheduler configs, one
        // encoding key — the real sweep's sharing shape.
        let configs = [
            PraConfig::two_stage(2, Representation::Fixed16),
            PraConfig::single_stage(Representation::Fixed16),
            PraConfig::per_column(1, Representation::Fixed16),
        ];
        let (cold_results, encoded, _, cold) = run_build(&configs, &workload, 0xE, &store);
        assert_eq!(encoded, CacheOutcome::Miss);
        assert_eq!(remove_encoded_entries(&dir), 1, "a missed build must publish");
        // Publication is once-only: the finished network re-entering
        // the build path publishes nothing.
        let _ = PipelinedBuild::finished(Arc::clone(&cold)).finish(&store);
        assert_eq!(remove_encoded_entries(&dir), 0, "a finished build publishes nothing");
        // Put the entry back (identical bytes: the encode is pure).
        let (_, encoded, _, _) = run_build(&configs, &workload, 0xE, &store);
        assert_eq!(encoded, CacheOutcome::Miss);
        let build = SharedEncodedNetwork::start_pipelined(&configs, &workload, 0xE, &store);
        let warm_results: Vec<RunResult> =
            configs.iter().map(|c| run(c, &workload, &build, |_, _| {})).collect();
        assert_eq!(build.encoded_outcome(), CacheOutcome::Hit, "second build must load the entry");
        assert_eq!(remove_encoded_entries(&dir), 1);
        let warm = build.finish(&store);
        assert_eq!(remove_encoded_entries(&dir), 0, "a hit has nothing to publish");
        // The loaded artifacts reconstruct the sharing invariant …
        let a = warm.scheduler(0, &configs[0]);
        let b = warm.scheduler(0, &configs[2]);
        assert!(Arc::ptr_eq(a, b), "equal scheduler configs must share the memo after a load");
        let c = warm.scheduler(0, &configs[1]);
        assert!(Arc::ptr_eq(a.encoded_arc(), c.encoded_arc()), "same key must share masks");
        // … and produce bit-identical results.
        assert_eq!(warm_results, cold_results, "warm artifacts must be invisible in the results");
        assert_eq!(run_finished(&configs, &workload, &warm), cold_results);
        // A different seed is a different entry (masks depend on values).
        let (_, other_seed, _, _) = run_build(&configs, &workload, 0xF, &store);
        assert_eq!(other_seed, CacheOutcome::Miss, "seed must separate encoded entries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipelined_build_loads_and_publishes_the_encoded_entry() {
        let (dir, store) =
            scratch_store("encoded-pipe", &[ArtifactKind::Encoded, ArtifactKind::Traffic]);
        let workload = toy_workload();
        let configs = [PraConfig::two_stage(2, Representation::Fixed16)];
        let pipe = SharedEncodedNetwork::start_pipelined(&configs, &workload, 0xE, &store);
        let cold = pipe.finish(&store);
        // finish() published even with cold memos: the entry is valid,
        // its memo slots simply stay lazy.
        let (warm_results, encoded, traffic, _) = run_build(&configs, &workload, 0xE, &store);
        assert_eq!(encoded, CacheOutcome::Hit, "finish must have published");
        assert_eq!(traffic, CacheOutcome::Hit, "finish must have published traffic too");
        assert_eq!(
            warm_results,
            run_finished(&configs, &workload, &cold),
            "pipelined-published artifacts must be invisible in the results"
        );
        // And a warm pipelined start consumes the entry.
        let pipe = SharedEncodedNetwork::start_pipelined(&configs, &workload, 0xE, &store);
        let (sched, traffic) = pipe.artifacts(0, &configs[0]);
        assert!(traffic.is_some());
        let reloaded = pipe.finish(&store);
        assert!(Arc::ptr_eq(&sched, reloaded.scheduler(0, &configs[0])));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_finished_build_hands_out_the_networks_own_artifacts() {
        let configs = [PraConfig::two_stage(2, Representation::Fixed16)];
        let network = built(&configs, &toy_workload());
        let done = PipelinedBuild::finished(Arc::clone(&network));
        assert_eq!(done.layer_count(), 2);
        assert_eq!(done.encoded_outcome(), CacheOutcome::Disabled, "nothing touched disk");
        assert_eq!(done.traffic_outcome(), CacheOutcome::Disabled);
        let (sched, traffic) = done.artifacts(1, &configs[0]);
        assert!(Arc::ptr_eq(&sched, network.scheduler(1, &configs[0])));
        assert_eq!(traffic.as_ref(), network.traffic_for(1, &configs[0]));
        assert!(Arc::ptr_eq(&done.finish(&memless()), &network), "finish hands the network back");
    }

    #[test]
    fn artifact_pool_reuses_handles_across_batches() {
        let pool = ArtifactPool::new(2);
        let store = memless();
        let configs = [PraConfig::two_stage(2, Representation::Fixed16)];
        let net = pra_workloads::Network::AlexNet;
        let (w1, s1, hit) = pooled(&pool, &configs, 0xA, &store);
        assert!(!hit, "first batch builds");
        let start = SharedEncodedNetwork::start_pipelined(&configs, &w1, 0xA, &store);
        assert_eq!(
            (start.encoded_outcome(), start.traffic_outcome()),
            (CacheOutcome::Disabled, CacheOutcome::Disabled),
            "a diskless store reports both tiers off"
        );
        let (w2, s2, hit) = pooled(&pool, &configs, 0xA, &store);
        assert!(hit, "second batch reuses");
        assert!(Arc::ptr_eq(&w1, &w2), "the workload handle is shared, not rebuilt");
        assert!(Arc::ptr_eq(&s1, &s2), "the artifact handle is shared, not rebuilt");
        // A different seed is a different workload: no reuse.
        let (_, s3, hit) = pooled(&pool, &configs, 0xB, &store);
        assert!(!hit);
        assert!(!Arc::ptr_eq(&s1, &s3));
        // A different design-point set never borrows mismatched artifacts.
        let other = [PraConfig::single_stage(Representation::Fixed16)];
        assert!(pool.lookup(&other, net, Representation::Fixed16, 0xA).is_none());
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 0xA).is_some());
    }

    #[test]
    fn artifact_pool_evicts_least_recently_used() {
        let pool = ArtifactPool::new(2);
        let store = memless();
        let configs = [PraConfig::two_stage(2, Representation::Fixed16)];
        let net = pra_workloads::Network::AlexNet;
        for seed in [1u64, 2, 3] {
            assert!(!pooled(&pool, &configs, seed, &store).2);
        }
        assert_eq!(pool.len(), 2, "capacity binds");
        // Seed 1 was least recently used and fell out; 2 and 3 remain.
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 1).is_none());
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 2).is_some());
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 3).is_some());
        // The lookup refreshed seed 2: inserting a fourth entry now
        // evicts 3, not 2.
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 2).is_some());
        assert!(!pooled(&pool, &configs, 4, &store).2);
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 2).is_some());
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 3).is_none());
    }

    #[test]
    fn pooled_artifacts_produce_identical_results() {
        let pool = ArtifactPool::new(4);
        let store = memless();
        let configs = [PraConfig::two_stage(2, Representation::Fixed16)
            .with_fidelity(crate::Fidelity::Sampled { max_pallets: 2 })];
        let net = pra_workloads::Network::AlexNet;
        let _ = pooled(&pool, &configs, 0xC, &store);
        let (w, s, hit) = pooled(&pool, &configs, 0xC, &store);
        assert!(hit);
        let pooled = run_finished(&configs, &w, &s);
        let fresh = Arc::new(NetworkWorkload::build(net, Representation::Fixed16, 0xC));
        let (direct, ..) = run_build(&configs, &fresh, 0xC, &store);
        assert_eq!(pooled, direct, "pool reuse must be invisible in the results");
    }

    #[test]
    fn artifact_pool_survives_a_poisoned_lock_and_evicts_on_demand() {
        let pool = Arc::new(ArtifactPool::new(4));
        let store = memless();
        let configs = [PraConfig::two_stage(2, Representation::Fixed16)];
        let net = pra_workloads::Network::AlexNet;
        assert!(!pooled(&pool, &configs, 0xA, &store).2);
        // Poison the pool mutex the way a panicking worker would: die
        // while holding it mid-operation.
        let p2 = Arc::clone(&pool);
        let panicked = std::thread::spawn(move || {
            let _guard = p2.entries.lock().unwrap();
            panic!("injected: worker died holding the pool lock");
        })
        .join();
        assert!(panicked.is_err(), "the poisoning thread must have panicked");
        assert!(pool.entries.is_poisoned(), "the lock must actually be poisoned");
        // Every pool operation keeps working on the recovered state.
        assert_eq!(pool.len(), 1);
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 0xA).is_some());
        assert!(
            pooled(&pool, &configs, 0xA, &store).2,
            "the surviving entry still serves hits after recovery"
        );
        // Supervisor-style eviction drops the suspect workload's entry
        // (and only that one), forcing the next batch to rebuild.
        let _ = pooled(&pool, &configs, 0xB, &store);
        assert_eq!(pool.evict(net, Representation::Fixed16, 0xA), 1);
        assert_eq!(pool.evict(net, Representation::Fixed16, 0xA), 0, "evict is idempotent");
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 0xA).is_none());
        assert!(pool.lookup(&configs, net, Representation::Fixed16, 0xB).is_some());
        assert!(!pooled(&pool, &configs, 0xA, &store).2, "an evicted entry rebuilds");
    }

    #[test]
    #[should_panic(expected = "not built for")]
    fn missing_configuration_panics() {
        let one = PraConfig::two_stage(2, Representation::Fixed16);
        let shared = built(&[one], &toy_workload());
        let _ = shared.scheduler(0, &PraConfig::single_stage(Representation::Fixed16));
    }

    #[test]
    #[should_panic(expected = "not built for")]
    fn missing_configuration_panics_in_flight() {
        let one = PraConfig::two_stage(2, Representation::Fixed16);
        let pipe = SharedEncodedNetwork::start_pipelined(&[one], &toy_workload(), 0, &memless());
        let _ = pipe.artifacts(0, &PraConfig::single_stage(Representation::Fixed16));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Mangled traffic payloads — truncated, extended or
        /// byte-flipped — never panic the decoder, and anything it
        /// accepts has exactly the encoded length.
        #[test]
        fn traffic_decoder_never_panics(
            op in 0u8..3,
            at in any::<usize>(),
            flip in 1u8..=255,
            extra in prop::collection::vec(any::<u8>(), 1..80),
        ) {
            let table: Vec<AccessCounters> = (0..3u64)
                .map(|i| AccessCounters { nm_brick_reads: i, terms: 9 * i, ..Default::default() })
                .collect();
            let mut payload = encode_traffic(&table);
            let len = payload.len();
            match op {
                0 => payload.truncate(at % len),
                1 => payload.extend_from_slice(&extra),
                _ => payload[at % len] ^= flip,
            }
            for expected in [0, 2, 3, 4] {
                if let Some(decoded) = decode_traffic(&payload, expected) {
                    prop_assert_eq!(decoded.len(), expected);
                    prop_assert_eq!(payload.len(), len);
                }
            }
        }
    }
}
