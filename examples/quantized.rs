//! The 8-bit quantized representation (§VI-F): quantize a real-valued
//! activation distribution TensorFlow-style, inspect its essential-bit
//! content, and compare accelerators under the quantized workload.
//!
//! ```sh
//! cargo run --release --example quantized
//! ```

use std::sync::Arc;

use pragmatic::core::{Fidelity, PraConfig, SharedEncodedNetwork, SyncPolicy};
use pragmatic::engines::{dadn, stripes};
use pragmatic::fixed::QuantParams;
use pragmatic::sim::ChipConfig;
use pragmatic::workloads::cache::ArtifactStore;
use pragmatic::workloads::{Network, NetworkWorkload, Representation};

fn main() {
    // TensorFlow-style linear quantization: arbitrary min/max per layer.
    let q = QuantParams::new(-0.37, 5.81);
    println!("quantization of [-0.37, 5.81] into 8 bits (scale {:.4}):", q.scale());
    for v in [-0.37f32, 0.0, 0.5, 2.7, 5.81] {
        let code = q.quantize(v);
        println!(
            "  value {v:>8.4} -> code {code:>3} ({code:#010b}, {} essential bits) -> {:.4}",
            (code as u16).count_ones(),
            q.dequantize(code)
        );
    }

    println!("\nNiN under the quantized representation:");
    let chip = ChipConfig::dadn();
    let w = Arc::new(NetworkWorkload::build(Network::NiN, Representation::Quant8, 9));
    let base = dadn::run(&chip, &w);
    let fid = Fidelity::Sampled { max_pallets: 64 };
    let configs = [
        ("Stripes (p<=8)", None),
        (
            "PRA perPall-2b",
            Some(PraConfig::two_stage(2, Representation::Quant8).with_fidelity(fid)),
        ),
        (
            "PRA perCol-1R-2b",
            Some(PraConfig::per_column(1, Representation::Quant8).with_fidelity(fid)),
        ),
        (
            "PRA perCol-ideal",
            Some(PraConfig {
                sync: SyncPolicy::PerColumnIdeal,
                ..PraConfig::two_stage(2, Representation::Quant8).with_fidelity(fid)
            }),
        ),
    ];
    // One in-memory build serves every PRA design point.
    let pra: Vec<PraConfig> = configs.iter().filter_map(|(_, cfg)| *cfg).collect();
    let store = ArtifactStore::at_default().no_disk();
    let build = SharedEncodedNetwork::start_pipelined(&pra, &w, 9, &store);
    for (name, cfg) in configs {
        let speedup = match cfg {
            None => stripes::run(&chip, &w).speedup_over(&base),
            Some(cfg) => pragmatic::core::run(&cfg, &w, &build, |_, _| {}).speedup_over(&base),
        };
        println!("  {name:18} {speedup:>5.2}x over the 8-bit bit-parallel baseline");
    }
    build.finish(&store);
    println!(
        "\nPragmatic's benefit persists under quantization because even 8-bit\n\
         codes are mostly zero bits (Table I: 27-37% essential for NiN)."
    );
}
