//! Regenerate the paper's performance headline numbers:
//!
//! * software-only decoding is **1.47x slower** than the channel-packed
//!   baseline (Sec. IV-B);
//! * with the decoding unit the scheme is **1.35x faster** (Sec. VI).
//!
//! Runs the full ReActNet workload through the cycle model in all three
//! modes, using the measured per-block clustering compression ratios.
//!
//! ```text
//! cargo run -p bench --release --bin speedup [-- --seed 1 --image 224 --scale 0.25]
//! ```
//!
//! `--scale` shrinks the kernels used for measuring compression ratios
//! (not the simulated geometry).

use bench::{arg_f64, arg_u64, block_kernel, headline, vs, TablePrinter};
use bitnn::graph::arch::reactnet_spec;
use bitnn::model::{OpCategory, ReActNetConfig};
use kc_core::codec::KernelCodec;
use simcpu::config::CpuConfig;
use simcpu::run::{run_model, Mode};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = arg_u64(&args, "--seed", 1);
    let image = arg_u64(&args, "--image", 224) as usize;
    let scale = arg_f64(&args, "--scale", 0.25);

    // Measure real per-block compression ratios first.
    let codec = KernelCodec::paper_clustered();
    let ratios: Vec<f64> = (1..=13)
        .map(|b| {
            codec
                .compress(&block_kernel(b, seed, scale))
                .expect("well-formed kernel")
                .ratio()
        })
        .collect();
    println!(
        "Per-block clustering ratios (scale {scale}): {:?}",
        ratios
            .iter()
            .map(|r| (r * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    let mut model_cfg = ReActNetConfig::full();
    model_cfg.image_size = image;
    let wls = reactnet_spec(&model_cfg).expect("valid config").workloads();
    let cpu = CpuConfig::default();
    println!("\n{}", cpu.to_table());

    let base = run_model(&cpu, &wls, Mode::Baseline, &[1.0]);
    let sw = run_model(&cpu, &wls, Mode::SoftwareDecode, &ratios);
    let hw = run_model(&cpu, &wls, Mode::HardwareDecode, &ratios);

    let mut table = TablePrinter::new();
    table.row(vec!["Mode", "Cycles (M)", "Time @1GHz (ms)", "vs baseline"]);
    for (name, run) in [
        ("Baseline (daBNN-style)", &base),
        ("Software decode", &sw),
        ("Hardware decode unit", &hw),
    ] {
        table.row(vec![
            name.to_string(),
            format!("{:.1}", run.total_cycles as f64 / 1e6),
            format!("{:.1}", cpu.cycles_to_ms(run.total_cycles)),
            format!("{:.3}x", base.total_cycles as f64 / run.total_cycles as f64),
        ]);
    }
    print!("{}", table.render());

    let sw_slowdown = sw.total_cycles as f64 / base.total_cycles as f64;
    let hw_speedup = base.total_cycles as f64 / hw.total_cycles as f64;
    println!(
        "\nSoftware slowdown: {}",
        vs(sw_slowdown, headline::SW_SLOWDOWN)
    );
    println!(
        "Hardware speedup:  {}",
        vs(hw_speedup, headline::HW_SPEEDUP)
    );

    let b3 = base.category_cycles(OpCategory::Conv3x3);
    let h3 = hw.category_cycles(OpCategory::Conv3x3);
    println!(
        "Conv3x3-only speedup: {:.2}x (the 3x3 convolutions are {:.1}% of baseline time)",
        b3 as f64 / h3 as f64,
        base.category_pct(OpCategory::Conv3x3)
    );
    println!(
        "DRAM traffic: baseline {:.1} MB -> hardware {:.1} MB",
        base.layers.iter().map(|l| l.mem.dram_bytes).sum::<u64>() as f64 / 1e6,
        hw.layers.iter().map(|l| l.mem.dram_bytes).sum::<u64>() as f64 / 1e6,
    );
}
