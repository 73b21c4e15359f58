//! Hardware simulation walkthrough: configure the decoding unit the way
//! the `lddu` instruction would (paper Table III), then compare the three
//! execution modes on one weight-bound layer and on a whole model.
//!
//! ```text
//! cargo run --release --example hw_sim
//! ```

use bnnkc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The decoder configuration structure (Table III) ---
    let kernel = SeqDistribution::for_block(7, 0).sample_kernel(128, 128, &mut seeded(3));
    let compressed = KernelCodec::paper_clustered().compress(&kernel)?;
    let decoder_cfg = compressed.decoder_config(0x4000_0000);
    println!("Decoder configuration structure (what `lddu` loads, Table III):");
    println!("  number of bit sequences : {}", decoder_cfg.num_sequences);
    println!("  compressed stream ptr   : {:#x}", decoder_cfg.stream_ptr);
    println!(
        "  compressed stream bytes : {}",
        decoder_cfg.stream_len_bytes
    );
    println!(
        "  Huffman node code bits  : {:?}",
        decoder_cfg.node_code_lengths
    );
    println!(
        "  node table entries      : {:?}",
        decoder_cfg.node_table_sizes
    );
    println!(
        "  uncompressed-table usage: {}/512 entries ({} bytes of the 1 KB budget)",
        decoder_cfg.table_entries(),
        decoder_cfg.table_entries() * 2
    );

    // --- One weight-bound layer in all three modes ---
    let cpu = CpuConfig::default();
    println!("\n{}", cpu.to_table());
    // Block 7 of the full model: the first 512-channel 3×3 conv, 14×14.
    let layer = reactnet_spec(&ReActNetConfig::full())?
        .workloads()
        .into_iter()
        .filter(|w| w.category == OpCategory::Conv3x3)
        .nth(6)
        .expect("13 blocks");
    println!("Layer {} ({} binary MACs):", layer.name, layer.macs());
    let base = run_workload(&cpu, &layer, Mode::Baseline, 1.0);
    let sw = run_workload(&cpu, &layer, Mode::SoftwareDecode, compressed.ratio());
    let hw = run_workload(&cpu, &layer, Mode::HardwareDecode, compressed.ratio());
    for (name, st) in [("baseline", &base), ("software", &sw), ("hardware", &hw)] {
        println!(
            "  {name:<9} {:>9} cycles  ({:>6.2} ms @1GHz, {:>6.1} MB DRAM, {:.2}x vs baseline)",
            st.cycles,
            cpu.cycles_to_ms(st.cycles),
            st.mem.dram_bytes as f64 / 1e6,
            base.cycles as f64 / st.cycles as f64,
        );
    }

    // --- Whole tiny model ---
    let wls = reactnet_spec(&ReActNetConfig::tiny())?.workloads();
    let speedup = compare_modes(&cpu, &wls, Mode::HardwareDecode, &[compressed.ratio()]);
    println!(
        "\nWhole tiny model: baseline {} cycles vs hardware {} cycles -> {:.2}x",
        speedup.baseline_cycles,
        speedup.scheme_cycles,
        speedup.factor()
    );
    println!("(Small models fit their kernels in cache, so the gain is modest; run");
    println!(" `cargo run -p bench --release --bin speedup` for the full-geometry 1.35x.)");

    Ok(())
}

fn seeded(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
