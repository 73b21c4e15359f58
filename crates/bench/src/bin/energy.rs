//! Extension experiment: first-order energy comparison of the three
//! execution modes (the paper motivates edge devices but reports only
//! performance/storage; DRAM traffic dominates edge energy).
//!
//! ```text
//! cargo run -p bench --release --bin energy [-- --image 224]
//! ```

use bench::{arg_u64, TablePrinter};
use bitnn::graph::arch::reactnet_spec;
use bitnn::model::{OpCategory, ReActNetConfig};
use simcpu::config::CpuConfig;
use simcpu::energy::EnergyModel;
use simcpu::exec::ExecStats;
use simcpu::mem::MemStats;
use simcpu::run::{run_model, Mode};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let image = arg_u64(&args, "--image", 224) as usize;

    let mut model_cfg = ReActNetConfig::full();
    model_cfg.image_size = image;
    let wls = reactnet_spec(&model_cfg).expect("valid config").workloads();
    let cpu = CpuConfig::default();
    let em = EnergyModel::default();
    let line = cpu.l1.line_bytes as u64;

    // Sequences the decoding unit produces in hardware mode: every 3x3
    // layer re-streams its kernel once per pixel tile.
    let decoded_seqs: u64 = wls
        .iter()
        .filter(|w| w.category == OpCategory::Conv3x3)
        .map(|w| {
            let tiles = ((w.oh * w.ow) as u64).div_ceil(cpu.pixel_tile as u64);
            tiles * w.num_sequences()
        })
        .sum();

    println!("Energy extension — full ReActNet geometry ({image}x{image})\n");
    let mut t = TablePrinter::new();
    t.row(vec![
        "Mode",
        "DRAM (µJ)",
        "cache (µJ)",
        "compute (µJ)",
        "decoder (µJ)",
        "static (µJ)",
        "total (µJ)",
    ]);
    let mut totals = Vec::new();
    for (name, mode, seqs) in [
        ("baseline", Mode::Baseline, 0),
        ("software", Mode::SoftwareDecode, 0),
        ("hardware", Mode::HardwareDecode, decoded_seqs),
    ] {
        let run = run_model(&cpu, &wls, mode, &[1.33]);
        let mem: MemStats = run.layers.iter().fold(MemStats::default(), |mut acc, l| {
            acc.dram_bytes += l.mem.dram_bytes;
            acc.l1_hits += l.mem.l1_hits;
            acc.l2_hits += l.mem.l2_hits;
            acc.dram_accesses += l.mem.dram_accesses;
            acc
        });
        let exec = ExecStats {
            cycles: run.total_cycles,
            ops: run.layers.iter().map(|l| l.exec.ops).sum(),
            ..ExecStats::default()
        };
        let e = em.estimate(&exec, &mem, seqs, line);
        totals.push((name, e.total_uj()));
        t.row(vec![
            name.to_string(),
            format!("{:.1}", e.dram_uj),
            format!("{:.1}", e.cache_uj),
            format!("{:.1}", e.compute_uj),
            format!("{:.1}", e.decoder_uj),
            format!("{:.1}", e.static_uj),
            format!("{:.1}", e.total_uj()),
        ]);
    }
    print!("{}", t.render());
    let base = totals[0].1;
    println!();
    for (name, total) in &totals[1..] {
        println!("{name}: {:.2}x the baseline energy", total / base);
    }
    println!("\nThe hardware scheme saves energy twice: fewer DRAM bytes (compression)");
    println!("and fewer cycles (less static/leakage energy), at the cost of the");
    println!("decoding unit's own lookups.");
}
