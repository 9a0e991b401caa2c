//! The encoded-artifact store tier (DESIGN.md §15), end to end through
//! the public API —
//!
//!  1. cross-fidelity sharing: the encoded key deliberately excludes
//!     [`Fidelity`], so a Sampled consumer loads the entry a Full build
//!     published and simulates bit-identically to a fresh build;
//!  2. fail-closed integrity: a corrupted or truncated entry is a miss,
//!     never a mangled deserialize, and the rebuild regenerates results
//!     byte-identical to the clean run;
//!  3. racing writers: N threads missing on one key all publish, and
//!     exactly one valid entry exists afterwards (atomic temp+rename).
//!
//! Every build goes through the one builder the sweep and the server
//! use: `start_pipelined`, every config simulated through
//! `run` while the layers arrive, then `finish`, which
//! publishes a missed entry.
//!
//! The toy workload mirrors `shared.rs`'s unit-test fixture: built from
//! public types only, deterministic content, real geometry, no
//! generator run.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pra_core::{run, Fidelity, PipelinedBuild, PraConfig, SharedEncodedNetwork};
use pra_fixed::PrecisionWindow;
use pra_tensor::{ConvLayerSpec, Tensor3};
use pra_workloads::cache::{ArtifactKind, ArtifactStore, CacheOutcome};
use pra_workloads::{ActivationModel, LayerWorkload, Network, NetworkWorkload, Representation};

/// Generator seed fed to the encoded key; the toy workload is
/// hand-built, so any pinned value works — it only has to be the same
/// on both sides of a probe.
const SEED: u64 = 0xF1D0;

fn toy_workload() -> Arc<NetworkWorkload> {
    let toy_layer = || {
        let spec = ConvLayerSpec::new("toy", (12, 6, 32), (3, 3), 32, 1, 1).unwrap();
        LayerWorkload {
            neurons: Tensor3::from_fn(spec.input, |x, y, i| ((x * 31 + y * 7 + i) % 777) as u16),
            spec,
            window: PrecisionWindow::with_width(9, 2),
            stripes_precision: 9,
        }
    };
    Arc::new(NetworkWorkload {
        network: Network::AlexNet,
        repr: Representation::Fixed16,
        model: ActivationModel {
            zero_frac: 0.5,
            sigma: 0.1,
            suffix_density: 0.3,
            outlier_prob: 0.0,
            dense_prob: 0.05,
            heavy_share: 0.5,
        },
        layers: vec![toy_layer(), toy_layer()],
    })
}

/// The sweep's standard config trio at one fidelity. Fidelity is the
/// only axis varied across tests: the encoded key must not see it.
fn configs(fidelity: Fidelity) -> [PraConfig; 3] {
    [
        PraConfig::two_stage(2, Representation::Fixed16).with_fidelity(fidelity),
        PraConfig::single_stage(Representation::Fixed16).with_fidelity(fidelity),
        PraConfig::per_column(1, Representation::Fixed16).with_fidelity(fidelity),
    ]
}

/// A store over a fresh scratch directory with only the encoded tier
/// enabled (the workloads under test never touch the other tiers).
fn scratch_store(tag: &str) -> (PathBuf, ArtifactStore) {
    let dir =
        std::env::temp_dir().join(format!("pra-encoded-artifacts-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = ArtifactStore::new(&dir).tier(ArtifactKind::Encoded);
    (dir, store)
}

/// Every file currently in `dir` (the scratch dirs hold nothing but
/// this test's entries, so listing doubles as a residue check).
fn dir_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("scratch dir exists")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The single `en-*.prac` entry the scratch dir must hold.
fn sole_encoded_entry(dir: &Path) -> PathBuf {
    let names = dir_files(dir);
    let entries: Vec<&String> =
        names.iter().filter(|n| n.starts_with("en-") && n.ends_with(".prac")).collect();
    assert_eq!(entries.len(), 1, "expected exactly one encoded entry, dir holds {names:?}");
    dir.join(entries[0])
}

/// One build as the sweep runs it: every config simulates against the
/// in-flight build (warming the memos the entry will carry), the
/// encoded outcome is read once every layer was consumed, and `finish`
/// publishes a miss.
fn build_and_run(
    cfgs: &[PraConfig],
    workload: &Arc<NetworkWorkload>,
    store: &ArtifactStore,
) -> (Vec<pra_sim::RunResult>, CacheOutcome) {
    let build = SharedEncodedNetwork::start_pipelined(cfgs, workload, SEED, store);
    let results = cfgs.iter().map(|c| run(c, workload, &build, |_, _| {})).collect();
    let outcome = build.encoded_outcome();
    let _ = build.finish(store);
    (results, outcome)
}

/// The same configs over a build that never saw disk.
fn fresh_results(cfgs: &[PraConfig], workload: &Arc<NetworkWorkload>) -> Vec<pra_sim::RunResult> {
    build_and_run(cfgs, workload, &ArtifactStore::at_default().no_disk()).0
}

#[test]
fn sampled_runs_are_bit_identical_off_a_full_built_entry() {
    let (dir, store) = scratch_store("xfid");
    let workload = toy_workload();

    // Cold Full-fidelity build: miss, simulate (warming the memos the
    // entry will carry), publish once at finish.
    let full = configs(Fidelity::Full);
    let (_, out) = build_and_run(&full, &workload, &store);
    assert_eq!(out, CacheOutcome::Miss, "fresh dir must miss");
    let entry = sole_encoded_entry(&dir);
    let published = fs::read(&entry).expect("read published entry");

    // A Sampled consumer hits the Full-built entry (fidelity is not in
    // the key: Sampled visits a subset of Full's bricks)…
    let sampled = configs(Fidelity::Sampled { max_pallets: 1 });
    let build = SharedEncodedNetwork::start_pipelined(&sampled, &workload, SEED, &store);
    let warm_results: Vec<_> =
        sampled.iter().map(|c| run(c, &workload, &build, |_, _| {})).collect();
    assert_eq!(
        build.encoded_outcome(),
        CacheOutcome::Hit,
        "fidelity must not enter the encoded key"
    );

    // …and simulates bit-identically to a build that never saw disk.
    assert_eq!(
        warm_results,
        fresh_results(&sampled, &workload),
        "Sampled results must not depend on where the memos came from"
    );
    // The hit has nothing to publish: with the entry moved aside,
    // `finish` writes nothing back.
    fs::remove_file(&entry).expect("move the entry aside");
    let _ = build.finish(&store);
    assert!(dir_files(&dir).is_empty(), "a hit must not re-publish");
    fs::write(&entry, &published).expect("restore entry");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_or_truncated_entries_fall_back_bit_identically() {
    let (dir, store) = scratch_store("mangle");
    let workload = toy_workload();
    let cfgs = configs(Fidelity::Full);

    let (clean, _) = build_and_run(&cfgs, &workload, &store);
    let entry = sole_encoded_entry(&dir);
    let published = fs::read(&entry).expect("read published entry");
    // Publication is once-only: the finished network re-entering the
    // build path writes nothing.
    fs::remove_file(&entry).expect("remove entry");
    let network = SharedEncodedNetwork::start_pipelined(&cfgs, &workload, SEED, &store)
        .finish(&ArtifactStore::at_default().no_disk());
    let _ = PipelinedBuild::finished(network).finish(&store);
    assert!(dir_files(&dir).is_empty(), "a finished build must publish nothing");
    fs::write(&entry, &published).expect("restore entry");

    // Flip one payload byte: the checksum trailer must reject the
    // entry, the probe reports a miss, and the rebuild matches clean.
    let mut flipped = published.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    fs::write(&entry, &flipped).expect("plant corrupted entry");
    let (rebuilt, out) = build_and_run(&cfgs, &workload, &store);
    assert_eq!(out, CacheOutcome::Miss, "a corrupt entry must fail closed");
    assert_eq!(rebuilt, clean, "rebuild must be bit-identical");
    // The rebuild's publish replaced the bad entry with the same bytes
    // the first publish wrote (the encode is deterministic).
    assert_eq!(
        fs::read(sole_encoded_entry(&dir)).expect("read republished entry"),
        published,
        "republished entry must be byte-identical to the original"
    );

    // Truncate to a third: same contract.
    let entry = sole_encoded_entry(&dir);
    fs::write(&entry, &published[..published.len() / 3]).expect("plant truncated entry");
    let (rebuilt, out) = build_and_run(&cfgs, &workload, &store);
    assert_eq!(out, CacheOutcome::Miss, "a truncated entry must fail closed");
    assert_eq!(rebuilt, clean, "rebuild must be bit-identical");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn racing_writers_publish_exactly_one_valid_entry() {
    let (dir, store) = scratch_store("race");
    let workload = toy_workload();
    let cfgs = configs(Fidelity::Full);

    // Every thread misses cold (nobody published yet when the last
    // probe ran, or some interleaving thereof — all legal), simulates,
    // and publishes. Writes are temp+rename on one content address, so
    // order cannot matter.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                let build = SharedEncodedNetwork::start_pipelined(&cfgs, &workload, SEED, &store);
                let _ = run(&cfgs[0], &workload, &build, |_, _| {});
                let _ = build.finish(&store);
            });
        }
    });

    // Exactly one entry, no temp residue…
    let entry = sole_encoded_entry(&dir);
    assert_eq!(
        dir_files(&dir),
        vec![entry.file_name().unwrap().to_string_lossy().into_owned()],
        "racing publications must leave no temp files behind"
    );
    // …and it is valid: a fresh probe hits and simulates identically to
    // a diskless build.
    let (warm, out) = build_and_run(&cfgs, &workload, &store);
    assert_eq!(out, CacheOutcome::Hit, "the surviving entry must load");
    assert_eq!(warm, fresh_results(&cfgs, &workload));
    let _ = fs::remove_dir_all(&dir);
}
