//! Trace I/O: dump a workload's activation streams to the `PRAT` format
//! and evaluate the simulators on the re-loaded trace — the workflow for
//! users who can extract *real* activations from the original networks.
//!
//! ```sh
//! cargo run --release --example trace_io
//! ```

use std::sync::Arc;

use pragmatic::core::{Fidelity, PraConfig, SharedEncodedNetwork};
use pragmatic::engines::dadn;
use pragmatic::sim::{ChipConfig, RunResult};
use pragmatic::workloads::cache::ArtifactStore;
use pragmatic::workloads::traces::{workload_from_trace, write_trace};
use pragmatic::workloads::{Network, NetworkWorkload, Representation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = Network::AlexNet;
    let original = NetworkWorkload::build(net, Representation::Fixed16, 2024);

    // Dump to disk (a real deployment would write this from a Caffe/TF
    // hook instead).
    let path = std::env::temp_dir().join("alexnet.prat");
    let file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    write_trace(file, &original)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!("wrote {} ({:.1} MB)", path.display(), bytes as f64 / 1e6);

    // Load it back and simulate.
    let file = std::io::BufReader::new(std::fs::File::open(&path)?);
    let traced = workload_from_trace(file, net)?;

    let chip = ChipConfig::dadn();
    let cfg = PraConfig::two_stage(2, Representation::Fixed16)
        .with_fidelity(Fidelity::Sampled { max_pallets: 64 });
    let base = dadn::run(&chip, &traced);
    let pra = simulate(&cfg, traced);
    println!(
        "PRA-2b on the traced workload: {:.2}x over DaDN ({} vs {} cycles)",
        pra.speedup_over(&base),
        pra.total_cycles(),
        base.total_cycles()
    );

    // Identical to simulating the original workload: the trace is lossless.
    let direct = simulate(&cfg, original);
    assert_eq!(direct.total_cycles(), pra.total_cycles());
    println!("trace round-trip is lossless (cycle counts identical)");

    std::fs::remove_file(&path)?;
    Ok(())
}

/// One design point over a workload, through an in-memory shared build.
fn simulate(cfg: &PraConfig, workload: NetworkWorkload) -> RunResult {
    let workload = Arc::new(workload);
    let store = ArtifactStore::at_default().no_disk();
    let build = SharedEncodedNetwork::start_pipelined(&[*cfg], &workload, 2024, &store);
    let result = pragmatic::core::run(cfg, &workload, &build, |_, _| {});
    build.finish(&store);
    result
}
