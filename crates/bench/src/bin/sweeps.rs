//! Sensitivity sweeps: how the paper's headline speedup responds to the
//! quantities the evaluation holds fixed — compression ratio, DRAM
//! bandwidth, and decoder throughput. These curves show *where* the
//! scheme pays off and where it crosses over, which single-point results
//! cannot.
//!
//! ```text
//! cargo run -p bench --release --bin sweeps [-- --image 112]
//! ```

use bench::{arg_u64, TablePrinter};
use bitnn::graph::arch::reactnet_spec;
use bitnn::model::ReActNetConfig;
use simcpu::config::CpuConfig;
use simcpu::run::{run_model, Mode};

fn model_workloads(image: usize) -> Vec<bitnn::model::LayerWorkload> {
    let mut cfg = ReActNetConfig::full();
    cfg.image_size = image;
    reactnet_spec(&cfg).expect("valid sweep config").workloads()
}

fn speedup(cpu: &CpuConfig, wls: &[bitnn::model::LayerWorkload], ratio: f64) -> f64 {
    let base = run_model(cpu, wls, Mode::Baseline, &[1.0]);
    let hw = run_model(cpu, wls, Mode::HardwareDecode, &[ratio]);
    base.total_cycles as f64 / hw.total_cycles as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let image = arg_u64(&args, "--image", 112) as usize;
    let wls = model_workloads(image);

    // --- Sweep 1: compression ratio ---
    println!("Sweep 1 — hardware speedup vs compression ratio ({image}x{image})\n");
    let mut t = TablePrinter::new();
    t.row(vec!["Ratio", "Speedup"]);
    for ratio in [1.0, 1.1, 1.2, 1.32, 1.5, 2.0] {
        let cpu = CpuConfig::default();
        t.row(vec![
            format!("{ratio:.2}"),
            format!("{:.3}x", speedup(&cpu, &wls, ratio)),
        ]);
    }
    print!("{}", t.render());
    println!("(Even at ratio 1.0 the unit helps — fetch/decode overlap hides load");
    println!(" latency — and the curve saturates once the decoder's throughput,");
    println!(" not the stream size, becomes the binding constraint.)\n");

    // --- Sweep 2: DRAM bandwidth ---
    println!("Sweep 2 — hardware speedup vs DRAM bandwidth\n");
    let mut t = TablePrinter::new();
    t.row(vec!["Bytes/cycle", "Speedup"]);
    for bw in [1.0, 2.0, 4.0, 8.0, 16.0] {
        let mut cpu = CpuConfig::default();
        cpu.dram.bytes_per_cycle = bw;
        t.row(vec![
            format!("{bw:.0}"),
            format!("{:.3}x", speedup(&cpu, &wls, 1.33)),
        ]);
    }
    print!("{}", t.render());
    println!("(Scarce bandwidth throttles both modes; the advantage saturates once");
    println!(" the compressed stream moves freely.)\n");

    // --- Sweep 3: decoder throughput ---
    println!("Sweep 3 — hardware speedup vs decoder throughput\n");
    let mut t = TablePrinter::new();
    t.row(vec!["Seq/cycle", "Speedup"]);
    for rate in [0.5, 1.0, 1.55, 2.0, 4.0] {
        let mut cpu = CpuConfig::default();
        cpu.decode_unit.decode_per_cycle = rate;
        t.row(vec![
            format!("{rate:.2}"),
            format!("{:.3}x", speedup(&cpu, &wls, 1.33)),
        ]);
    }
    print!("{}", t.render());
    println!("(Below ~1 seq/cycle the decoder itself becomes the bottleneck and the");
    println!(" scheme loses to the baseline — the risk Sec. III-B's simplification");
    println!(" of the Huffman tree is buying insurance against.)");
}
