//! Warm boots for both wire versions, in process: the service booted
//! twice against one artifact-store directory. The cold boot encodes
//! and publishes; the warm boot must stream its artifacts off disk
//! (`encoded_hits` > 0) for v1 traffic as well as for v2 traffic, since
//! both run the same pipelined build. Responses never depend on where
//! the artifacts came from: every boot of either version answers the
//! same digests. CI's `warm-start-smoke` job checks the same property
//! for v1 over TCP at full fidelity.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

use pra_core::Fidelity;
use pra_serve::{Request, Response, ServeConfig, SimService};
use pra_workloads::cache::{ArtifactKind, ArtifactStore};
use pra_workloads::{Network, Representation};

const TIMEOUT: Duration = Duration::from_secs(120);
const ENGINES: [&str; 5] = ["DaDN", "Stripes", "PRA-2b", "PRA-4b", "PRA-2b-1R"];
const SEEDS: [u64; 2] = [0xB007, 0xB008];

/// One worker: batches run one after another, so a workload's later
/// batches hit the pool instead of racing its first build to the disk.
fn cfg(dir: &PathBuf) -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: 8,
        queue_depth: 64,
        linger: Duration::from_millis(2),
        fidelity: Fidelity::Sampled { max_pallets: 2 },
        store: ArtifactStore::new(dir)
            .tier(ArtifactKind::Workload)
            .tier(ArtifactKind::Encoded)
            .tier(ArtifactKind::Traffic),
        ..ServeConfig::default()
    }
}

/// Boots the service, sends every engine over both workloads at wire
/// version `v`, and returns `(seed, engine) -> digest` plus the boot's
/// encoded-artifact hits.
fn boot(dir: &PathBuf, v: u32) -> (BTreeMap<(u64, String), String>, u64) {
    let svc = SimService::start(cfg(dir));
    let mut calls = Vec::new();
    for (i, (seed, engine)) in
        SEEDS.iter().flat_map(|s| ENGINES.iter().map(move |e| (*s, *e))).enumerate()
    {
        let req = Request {
            id: i as u64,
            network: Network::AlexNet,
            repr: Representation::Fixed16,
            engine: engine.to_string(),
            seed,
            v,
        };
        calls.push(((seed, engine.to_string()), svc.call(req).expect("admitted")));
    }
    let mut digests = BTreeMap::new();
    for (key, rx) in calls {
        let digest = loop {
            match rx.recv_timeout(TIMEOUT).expect("answer") {
                Response::LayerResult { .. } if v == 2 => continue,
                Response::Ok { digest, .. } if v == 1 => break digest,
                Response::Done { inner, .. } if v == 2 => match *inner {
                    Response::Ok { digest, .. } => break digest,
                    other => panic!("expected ok inside done, got {other:?}"),
                },
                other => panic!("unexpected v{v} answer {other:?}"),
            }
        };
        digests.insert(key, digest);
    }
    let hits = svc.stats().encoded_hits.load(Ordering::Relaxed);
    svc.shutdown();
    (digests, hits)
}

#[test]
fn warm_boots_stream_artifacts_off_disk_for_both_wire_versions() {
    let mut reference: Option<BTreeMap<(u64, String), String>> = None;
    for v in [1, 2] {
        let dir = std::env::temp_dir().join(format!("pra-warm-boot-v{v}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (cold, cold_hits) = boot(&dir, v);
        assert_eq!(cold_hits, 0, "v{v}: a cold boot has nothing on disk to hit");
        let (warm, warm_hits) = boot(&dir, v);
        assert!(warm_hits > 0, "v{v}: the warm boot must load encoded artifacts from disk");
        assert_eq!(warm, cold, "v{v}: warm artifacts must be invisible in the responses");
        let reference = reference.get_or_insert_with(|| cold.clone());
        assert_eq!(&cold, reference, "v{v} answers must match v1 byte for byte");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
