//! The consistent-hash replica ring: workload keys onto shards.
//!
//! Each shard owns `vnodes` points on a 64-bit ring (hashes of
//! `shard/vnode`); a request key hashes to a point and walks clockwise
//! collecting the first `replicas` *distinct* shards — the primary and
//! its fallbacks. Consistent hashing is the right shape here for the
//! same reason the batcher coalesces on [`BatchKey`]: a shard that
//! keeps seeing the same workload keys keeps its [`ArtifactPool`] hot,
//! so routing stability is throughput (the paper's per-tile composition
//! argument, lifted to processes). Adding or removing one shard moves
//! only the keys whose arcs it owned, not the whole keyspace.
//!
//! [`BatchKey`]: pra_serve::BatchKey
//! [`ArtifactPool`]: pra_core::ArtifactPool

use pra_serve::BatchKey;
use pra_workloads::cache::sha256;

/// Virtual nodes per shard: enough that a 2–8 shard ring balances
/// within a few percent, cheap enough that ring construction is
/// negligible.
pub const DEFAULT_VNODES: usize = 64;

/// The ring: sorted (point, shard) pairs.
#[derive(Debug, Clone)]
pub struct HashRing {
    points: Vec<(u64, usize)>,
    shards: usize,
    replicas: usize,
}

/// First eight bytes of the SHA-256 of `canonical`, as the ring's
/// 64-bit point space. A cryptographic hash is overkill for balance but
/// the workspace already carries it, and it makes key placement
/// platform- and process-independent (the cluster bench relies on the
/// same request hitting the same shard across runs).
pub fn key_hash(canonical: &str) -> u64 {
    let digest = sha256(canonical.as_bytes());
    let mut bytes = [0u8; 8];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = digest.get(i).copied().unwrap_or(0);
    }
    u64::from_le_bytes(bytes)
}

/// The canonical routing string for a request's workload key — exactly
/// the coalescing key the batcher uses ([`BatchKey`]: network geometry
/// × representation × seed), so every request a shard could batch
/// together routes to the same shard.
pub fn workload_key(key: &BatchKey) -> u64 {
    key_hash(&format!("{key:?}"))
}

impl HashRing {
    /// A ring over `shards` shards with `replicas` distinct shards per
    /// key (clamped to the shard count) and `vnodes` points per shard.
    pub fn new(shards: usize, replicas: usize, vnodes: usize) -> HashRing {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for vnode in 0..vnodes {
                points.push((key_hash(&format!("shard-{shard}/vnode-{vnode}")), shard));
            }
        }
        points.sort_unstable();
        HashRing { points, shards, replicas: replicas.clamp(1, shards) }
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Replica set size per key.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The replica set for `key`: the first `replicas` distinct shards
    /// clockwise from the key's point, primary first.
    pub fn route(&self, key: u64) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.replicas);
        if self.points.is_empty() {
            return out;
        }
        let start = self.points.partition_point(|(p, _)| *p < key);
        for i in 0..self.points.len() {
            let at = (start + i) % self.points.len();
            if let Some(&(_, shard)) = self.points.get(at) {
                if !out.contains(&shard) {
                    out.push(shard);
                    if out.len() == self.replicas {
                        break;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pra_serve::Request;

    fn ring(shards: usize, replicas: usize) -> HashRing {
        HashRing::new(shards, replicas, DEFAULT_VNODES)
    }

    #[test]
    fn route_returns_distinct_shards_primary_first() {
        let r = ring(4, 2);
        for key in (0..512u64).map(|i| key_hash(&format!("k{i}"))) {
            let set = r.route(key);
            assert_eq!(set.len(), 2);
            assert_ne!(set[0], set[1], "primary and fallback must differ");
            assert!(set.iter().all(|&s| s < 4));
        }
    }

    #[test]
    fn routing_is_deterministic_and_replicas_clamp() {
        let a = ring(3, 2);
        let b = ring(3, 2);
        let key = key_hash("stable");
        assert_eq!(a.route(key), b.route(key), "same ring, same placement");
        assert_eq!(ring(1, 5).route(key).len(), 1, "replicas clamp to shard count");
        assert_eq!(ring(2, 0).replicas(), 1, "at least one replica");
    }

    #[test]
    fn load_spreads_across_shards() {
        let r = ring(4, 1);
        let mut counts = [0usize; 4];
        for i in 0..4096u64 {
            let set = r.route(key_hash(&format!("load{i}")));
            if let Some(c) = set.first().and_then(|&s| counts.get_mut(s)) {
                *c += 1;
            }
        }
        for (shard, &c) in counts.iter().enumerate() {
            // 4096/4 = 1024 expected; vnode balance keeps every shard
            // within a factor of two of fair share.
            assert!((512..=2048).contains(&c), "shard {shard} got {c}/4096 keys");
        }
    }

    #[test]
    fn workload_key_tracks_the_batch_key() {
        let req = |engine: &str, seed: u64| Request {
            id: 0,
            network: pra_workloads::Network::AlexNet,
            repr: pra_workloads::Representation::Fixed16,
            engine: engine.to_string(),
            seed,
            v: 1,
        };
        let k = |engine: &str, seed: u64| workload_key(&BatchKey::of(&req(engine, seed)));
        // The engine never splits a batch, so every engine over one
        // workload must route together.
        assert_eq!(k("DaDN", 1), k("Stripes", 1));
        assert_eq!(k("DaDN", 1), k("PRA-2b-1R", 1));
        assert_ne!(k("DaDN", 1), k("DaDN", 2), "seed splits the key");
    }
}
