//! # pra-router — sharded serving front end
//!
//! The cluster tier above `pra-serve` (DESIGN.md §13): a consistent-hash
//! router (`pra route`) that spreads simulation load over N independent
//! shard processes while keeping every guarantee the single-shard path
//! makes — exactly one response per request id, scheduling-independent
//! response bytes, typed sheds, graceful drain.
//!
//! * [`ring`] — the consistent-hash replica ring. Requests hash on the
//!   same workload key the batcher coalesces on ([`BatchKey`]: network
//!   geometry × representation × seed), so every request a shard could
//!   batch together lands on the same shard and
//!   its [`ArtifactPool`] stays hot. Each key owns an ordered replica
//!   set (primary + fallbacks) of distinct shards.
//! * [`health`] — per-shard UP/DEGRADED/DOWN health driven by
//!   `{"ctl": "stats"}` heartbeats under a deadline, with hard
//!   data-path evidence short-circuiting straight to DOWN, boot-epoch
//!   restart detection, and seeded-deterministic probe scheduling.
//! * [`router`] — the front end itself: the per-client claim ledger
//!   (the serve supervisor's exactly-once discipline, applied across
//!   processes), failover that re-issues lost work on the key's
//!   fallback shard, `shed:no_shard` when a whole replica set is down,
//!   and drain propagation so one `{"ctl": "drain"}` winds the whole
//!   cluster down.
//! * [`cluster`] — the in-process cluster harness behind
//!   `pra bench-serve --cluster`: N shards + router in one process,
//!   proving response digests identical to the single-shard golden
//!   across 1/2/4-shard topologies, including under `shard-kill` chaos.
//!
//! Fault injection: the chaos sites `shard-kill` (a shard dies
//! mid-stream, severing every connection with work queued) and
//! `probe-stall` (a heartbeat exceeds its deadline without anything
//! actually failing) exercise exactly the failover and health paths
//! above, seeded and replayable like every other `pra-chaos` site.
//!
//! [`BatchKey`]: pra_serve::BatchKey
//! [`ArtifactPool`]: pra_core::ArtifactPool

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod health;
pub mod ring;
pub mod router;

pub use cluster::{run_cluster_bench, Cluster, ClusterConfig, ClusterRow};
pub use health::{probe_once, HealthBoard, ProbeConfig, ShardHealth};
pub use ring::{key_hash, workload_key, HashRing, DEFAULT_VNODES};
pub use router::{Router, RouterConfig, RouterStats};
