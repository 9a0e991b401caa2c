//! Admission-control invariants (ISSUE 5 satellite): queue-full
//! shedding, linger expiry, and — property-tested over random request
//! mixes — that incompatible requests are never coalesced into one
//! batch and every queue invariant survives arbitrary traffic shapes.

use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use pra_serve::queue::{BatchKey, RequestQueue};
use pra_serve::{Request, ShedReason};
use pra_workloads::{Network, Representation};

fn request(id: u64, net: usize, repr: bool, engine: usize, seed: u64) -> Request {
    let repr = if repr { Representation::Fixed16 } else { Representation::Quant8 };
    let labels = pra_serve::protocol::engine_labels(repr);
    Request {
        id,
        network: Network::ALL[net % Network::ALL.len()],
        repr,
        engine: labels[engine % labels.len()].clone(),
        seed,
        v: 1,
    }
}

#[test]
fn queue_full_requests_shed_with_queue_full() {
    let q = RequestQueue::new(4);
    let (tx, _rx) = channel();
    for id in 0..4 {
        assert!(q.submit(request(id, 0, true, 0, 1), tx.clone()).is_ok());
    }
    for id in 4..8 {
        assert_eq!(
            q.submit(request(id, 0, true, 0, 1), tx.clone()),
            Err(ShedReason::QueueFull),
            "request {id} beyond the depth must shed"
        );
    }
    assert_eq!(q.len(), 4, "shed requests leave no residue");
}

#[test]
fn linger_expires_and_seals_a_partial_batch() {
    let q = RequestQueue::new(8);
    let (tx, _rx) = channel();
    q.submit(request(0, 2, true, 1, 9), tx).unwrap();
    let linger = Duration::from_millis(30);
    let start = Instant::now();
    let batch = q.next_batch(4, linger).unwrap();
    assert!(start.elapsed() >= linger, "a non-full batch must wait out the linger");
    assert_eq!(batch.requests.len(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over arbitrary request mixes, drained batches (a) are never
    /// empty, (b) never exceed the batch cap, (c) are key-homogeneous —
    /// incompatible geometry/representation/seed never rides
    /// in one batch — (d) preserve FIFO order within a key, and
    /// (e) together hand back every admitted request exactly once.
    #[test]
    fn random_mixes_batch_soundly(
        mix in prop::collection::vec((0usize..6, any::<bool>(), 0usize..5, 0u64..3), 1..40),
        max_batch in 1usize..10,
    ) {
        let q = RequestQueue::new(mix.len());
        let (tx, _rx) = channel();
        for (id, &(net, repr, engine, seed)) in mix.iter().enumerate() {
            prop_assert!(q.submit(request(id as u64, net, repr, engine, seed), tx.clone()).is_ok());
        }
        q.close();
        let mut seen: Vec<u64> = Vec::new();
        while let Some(batch) = q.next_batch(max_batch, Duration::ZERO) {
            prop_assert!(!batch.requests.is_empty(), "batches are never empty");
            prop_assert!(batch.requests.len() <= max_batch, "the cap binds");
            for p in &batch.requests {
                prop_assert_eq!(
                    BatchKey::of(&p.req), batch.key,
                    "incompatible request coalesced: {:?} into {:?}", p.req, batch.key
                );
            }
            let ids: Vec<u64> = batch.requests.iter().map(|p| p.req.id).collect();
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "FIFO within a key: {:?}", ids);
            seen.extend(ids);
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), seen.len(), "a request was batched twice");
        prop_assert_eq!(seen.len(), mix.len(), "a request was lost");
    }

    /// The compatibility key is exactly (network, repr, seed): two
    /// requests coalesce iff they agree on all three — the engine never
    /// splits a batch key.
    #[test]
    fn batch_key_is_the_workload_identity(
        a in (0usize..6, any::<bool>(), 0usize..5, 0u64..4),
        b in (0usize..6, any::<bool>(), 0usize..5, 0u64..4),
    ) {
        let ra = request(0, a.0, a.1, a.2, a.3);
        let rb = request(1, b.0, b.1, b.2, b.3);
        let same_workload = ra.network == rb.network && ra.repr == rb.repr && ra.seed == rb.seed;
        prop_assert_eq!(BatchKey::of(&ra) == BatchKey::of(&rb), same_workload);
    }
}
