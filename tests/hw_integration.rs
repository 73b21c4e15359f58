//! Compression-to-simulator integration: the decoder configuration that
//! `kc-core` derives from a real compressed kernel must drive `simcpu`'s
//! decoding unit consistently.

use bnnkc::prelude::*;
use simcpu::decode_unit::{DecodeUnit, WORDS_PER_GROUP};
use simcpu::mem::Hierarchy;
use simcpu::trace::stream_bytes;

fn compressed_block(channels: usize) -> (CompressedKernel, BitTensor) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let kernel = SeqDistribution::for_block(6, 0).sample_kernel(channels, channels, &mut rng);
    let ck = KernelCodec::paper_clustered()
        .compress(&kernel)
        .expect("compress");
    (ck, kernel)
}

#[test]
fn decoder_config_drives_the_unit_end_to_end() {
    let (ck, _) = compressed_block(128);
    let cfg = ck.decoder_config(0x4000_0000);
    let cpu = CpuConfig::default();
    let mut unit = DecodeUnit::new(cpu.decode_unit);
    let mut mem = Hierarchy::new(&cpu);

    // Arm the unit exactly from the Table III structure.
    let lanes = (128usize).div_ceil(64) as u64;
    let num_groups = ck.filters() as u64 * lanes;
    // No dedup information from the config alone: worst case, every
    // sequence is unique and the table never hits.
    unit.lddu(
        0,
        cfg.stream_ptr,
        cfg.stream_len_bytes,
        cfg.num_sequences,
        cfg.num_sequences,
        num_groups,
    );
    // Drain every packed word the stream yields.
    let mut cycle = 0;
    for _ in 0..num_groups * WORDS_PER_GROUP {
        cycle = unit.ldps(cycle, &mut mem);
    }
    let stats = unit.stats();
    assert_eq!(stats.words_served, num_groups * WORDS_PER_GROUP);
    // The unit fetched at least the whole stream, in input-buffer chunks.
    assert!(stats.stream_bytes >= cfg.stream_len_bytes);
    assert_eq!(
        stats.stream_bytes % cpu.decode_unit.input_buffer_bytes as u64,
        0
    );
}

#[test]
fn estimated_stream_size_matches_real_compression() {
    // The simulator sizes streams analytically from the compression
    // ratio; the analytic size must track the real encoder's output.
    for channels in [64usize, 128, 256] {
        let (ck, _) = compressed_block(channels);
        let analytic = stream_bytes(ck.num_sequences() as u64, ck.ratio());
        let real = ck.stream().len() as u64;
        let rel = (analytic as f64 - real as f64).abs() / real as f64;
        assert!(
            rel < 0.01,
            "{channels} ch: analytic {analytic} vs real {real}"
        );
    }
}

#[test]
fn simulated_speedup_uses_measured_ratio() {
    // End-to-end: compress a real kernel, feed its measured ratio to the
    // simulator, and confirm the weight-bound layer accelerates.
    let (ck, _) = compressed_block(512);
    let layer = bitnn::model::LayerWorkload {
        name: "hw.conv3x3".into(),
        category: OpCategory::Conv3x3,
        in_ch: 512,
        out_ch: 512,
        kh: 3,
        kw: 3,
        oh: 4,
        ow: 4,
        precision_bits: 1,
    };
    let cpu = CpuConfig::default();
    let base = run_workload(&cpu, &layer, Mode::Baseline, 1.0);
    let hw = run_workload(&cpu, &layer, Mode::HardwareDecode, ck.ratio());
    assert!(hw.cycles < base.cycles);
    // Weight traffic shrinks at least ~20% (compression + stream reuse).
    assert!((hw.mem.dram_bytes as f64) < base.mem.dram_bytes as f64 * 0.8);
}

#[test]
fn table_budget_holds_for_every_full_size_block() {
    // The hardware's 1 KB uncompressed table (512 entries) must fit every
    // block's codebook even at full channel counts.
    for (i, spec) in ReActNetConfig::full().blocks.iter().enumerate() {
        use rand::SeedableRng;
        let block = i + 1;
        let c = spec.in_ch.min(256); // statistics saturate well below full width
        let mut rng = rand::rngs::StdRng::seed_from_u64(block as u64);
        let kernel = SeqDistribution::for_block(block, 0).sample_kernel(c, c, &mut rng);
        let ck = KernelCodec::paper_clustered()
            .compress(&kernel)
            .expect("compress");
        let cfg = ck.decoder_config(0);
        assert!(
            cfg.table_entries() <= 512,
            "block {block}: {} entries exceed the 1 KB table",
            cfg.table_entries()
        );
    }
}
