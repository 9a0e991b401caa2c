//! Pragmatic (PRA) — the paper's contribution (§III, §V).
//!
//! Pragmatic processes only the essential (non-zero) bits of input neurons
//! by (1) converting neurons on-the-fly into explicit lists of powers of
//! two (*oneffsets*), (2) processing neurons bit-serially against
//! bit-parallel 16-bit synapses, (3) processing 16 windows (a pallet) per
//! tile concurrently so the worst case still matches DaDianNao, and
//! (4) rearranging shifts into two stages to shrink the datapath (§V-D).
//!
//! Module map:
//!
//! * [`config`] — [`PraConfig`]: first-stage shifter width `L`,
//!   synchronization policy, software trimming, representation, encoding,
//!   simulation fidelity.
//! * [`column`](mod@column) — the per-column oneffset scheduler: the greedy
//!   minimum-oneffset rule of Fig. 7 that decides, each cycle, which lanes
//!   consume an oneffset and which stall.
//! * [`pip`] — the Pragmatic Inner Product unit datapath (Fig. 6): shift,
//!   negate, reduce, second-stage shift; used by the functional model.
//! * [`tile`] — a 16×16 PIP tile under per-pallet (§V-A4) or per-column
//!   (§V-E) synchronization with synapse set registers (SSRs).
//! * [`schedule`] — the layer-scoped scheduling pipeline: encode-once
//!   mask buffers and the brick-schedule memo the simulator's hot path
//!   runs on.
//! * [`artifact`] — the persisted encoded-artifact tier: serialization
//!   of mask buffers and warm schedule memos into the content-addressed
//!   store, keyed over encoding inputs, shared across fidelities.
//! * [`shared`] — build-once artifacts shared across design points:
//!   one encoding per [`EncodingKey`], one schedule memo per
//!   [`SchedulerConfig`], one traffic count per layer, all built by
//!   one pipelined builder (every network run's cross-config reuse).
//! * [`sim`] — the simulation surface: one layer kernel
//!   ([`simulate_layer_shared`], with [`simulate_layer`] as its
//!   one-layer convenience) and one network entry point ([`run`]) over
//!   a [`PipelinedBuild`], producing [`pra_sim::RunResult`]s comparable
//!   with the baseline engines. The pre-memoization oracle stays
//!   reachable as [`sim::simulate_layer_raw`] for tests and benches.
//! * [`functional`] — bit-exact computation of layer outputs through the
//!   oneffset datapath, verified against the reference convolution.
//!
//! Because every tile receives the same broadcast neuron pallet and the
//! columns of every tile stay in lock-step with the corresponding columns
//! of all other tiles, the chip's cycle count equals one tile's cycle
//! count times the number of filter groups; the simulator therefore models
//! one tile exactly and scales (the same argument the paper uses in
//! §V-A3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod column;
pub mod config;
pub mod functional;
pub mod inference;
pub mod pip;
pub mod schedule;
pub mod shared;
pub mod sim;
pub mod tile;

pub use artifact::{ENCODED_KIND, ENCODER_VERSION};
pub use column::{ScanOrder, SchedulerConfig};
pub use config::{Encoding, EncodingKey, Fidelity, PraConfig, SyncPolicy};
pub use schedule::{EncodedLayer, LayerScheduler};
pub use shared::{
    ArtifactPool, PipelinedBuild, SharedEncodedNetwork, TRAFFIC_KIND, TRAFFIC_VERSION,
};
pub use sim::{run, simulate_layer, simulate_layer_shared};
