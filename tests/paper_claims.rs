//! The paper's quantitative claims, verified at reduced scale (the bench
//! binaries check them at full scale; these tests guard the shape in CI).

use bitnn::model::{LayerWorkload, OpCategory};
use bnnkc::prelude::*;
use rand::SeedableRng;

/// A fixed-size per-block kernel large enough for stable statistics
/// (128×128 = 16384 sequences) regardless of the block's real width.
fn stat_kernel(block: usize, seed: u64) -> BitTensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ block as u64);
    SeqDistribution::for_block(block, 0).sample_kernel(128, 128, &mut rng)
}

/// Table V shape: clustering beats plain encoding on every block, and
/// both land in plausible bands.
#[test]
fn table5_clustering_beats_encoding_every_block() {
    let encoding = KernelCodec::paper();
    let clustering = KernelCodec::paper_clustered();
    for block in 1..=13 {
        let kernel = stat_kernel(block, 3);
        let enc = encoding.compress(&kernel).expect("encoding").ratio();
        let clu = clustering.compress(&kernel).expect("clustering").ratio();
        assert!(
            clu > enc,
            "block {block}: clustering {clu} <= encoding {enc}"
        );
        assert!((1.05..1.45).contains(&enc), "block {block}: encoding {enc}");
        assert!(
            (1.20..1.55).contains(&clu),
            "block {block}: clustering {clu}"
        );
    }
}

/// Table II shape: the sampled coverage tracks the paper's target bands.
#[test]
fn table2_coverage_bands() {
    for block in 1..=13 {
        let kernel = stat_kernel(block, 4);
        let freq = FreqTable::from_kernel(&kernel).expect("kernel");
        let (t64, t256) = bench::PAPER_TABLE2[block - 1];
        let c64 = freq.top_k_coverage_pct(64);
        let c256 = freq.top_k_coverage_pct(256);
        assert!(
            (c64 - t64).abs() < 12.0,
            "block {block}: top64 {c64} vs paper {t64}"
        );
        assert!(
            (c256 - t256).abs() < 10.0,
            "block {block}: top256 {c256} vs paper {t256}"
        );
    }
}

/// Fig. 3 shape: sequences 0 and 511 dominate and the top-16 carry a
/// large share.
#[test]
fn fig3_extremes_dominate() {
    let kernel = stat_kernel(2, 5);
    let freq = FreqTable::from_kernel(&kernel).expect("kernel");
    let top2: Vec<u16> = freq.top_k(2).iter().map(|(s, _)| s.value()).collect();
    assert!(top2.contains(&0) && top2.contains(&511), "{top2:?}");
    let top16 = freq.top_k_coverage_pct(16);
    assert!((38.0..56.0).contains(&top16), "top16 = {top16}");
}

/// Sec. IV-B / Sec. VI: software decoding loses, the hardware unit wins,
/// on a weight-bound layer.
#[test]
fn speedup_ordering_on_weight_bound_layer() {
    let cpu = CpuConfig::default();
    let layer = LayerWorkload {
        name: "big.conv3x3".into(),
        category: OpCategory::Conv3x3,
        in_ch: 512,
        out_ch: 512,
        kh: 3,
        kw: 3,
        oh: 4,
        ow: 4,
        precision_bits: 1,
    };
    let ratio = 1.33;
    let base = run_workload(&cpu, &layer, Mode::Baseline, 1.0);
    let sw = run_workload(&cpu, &layer, Mode::SoftwareDecode, ratio);
    let hw = run_workload(&cpu, &layer, Mode::HardwareDecode, ratio);
    assert!(sw.cycles > base.cycles, "software decode must be slower");
    assert!(hw.cycles < base.cycles, "hardware decode must be faster");
    let hw_gain = base.cycles as f64 / hw.cycles as f64;
    assert!((1.1..2.5).contains(&hw_gain), "hw gain {hw_gain}");
}

/// Sec. VI: the hardware scheme's DRAM traffic drops by roughly the
/// compression ratio on streaming layers.
#[test]
fn hardware_traffic_tracks_compression_ratio() {
    let cpu = CpuConfig::default();
    let layer = LayerWorkload {
        name: "big.conv3x3".into(),
        category: OpCategory::Conv3x3,
        in_ch: 512,
        out_ch: 512,
        kh: 3,
        kw: 3,
        oh: 4,
        ow: 4,
        precision_bits: 1,
    };
    let ratio = 1.33;
    let base = run_workload(&cpu, &layer, Mode::Baseline, 1.0);
    let hw = run_workload(&cpu, &layer, Mode::HardwareDecode, ratio);
    let traffic_ratio = base.mem.dram_bytes as f64 / hw.mem.dram_bytes as f64;
    assert!(
        traffic_ratio > 1.1,
        "hardware must move less DRAM data: {traffic_ratio}"
    );
}

/// The paper's accuracy claim, as an agreement bound.
#[test]
fn clustering_preserves_predictions_mostly() {
    let original = ReActNetConfig::tiny().model(31).expect("valid config");
    let mut clustered = original.clone();
    for i in 0..clustered.num_conv3() {
        let kernel = clustered.conv3_weights(i).clone();
        let freq = FreqTable::from_kernel(&kernel).expect("kernel");
        let plan = ClusterPlan::build(&freq, &ClusterConfig::default());
        clustered
            .set_conv3_weights(i, plan.apply_to_kernel(&kernel).expect("rewrite"))
            .expect("same shape");
    }
    let batch = synthetic_batch(8, 3, 32, 32);
    let agg = compare_models(&original, &clustered, &batch);
    assert!(agg.top1 >= 0.5, "agreement collapsed: {}", agg.top1);
}

/// The simplified tree never beats full Huffman, and full Huffman never
/// beats the entropy bound — on every block.
#[test]
fn coding_hierarchy_holds_on_all_blocks() {
    for block in 1..=13 {
        let kernel = stat_kernel(block, 6);
        let freq = FreqTable::from_kernel(&kernel).expect("kernel");
        let h = freq.entropy_bits();
        let full = FullHuffman::build(&freq).expect("non-empty");
        let simp = SimplifiedTree::build(&freq, TreeConfig::paper());
        assert!(
            full.avg_bits(&freq) + 1e-9 >= h,
            "block {block}: Huffman beat entropy"
        );
        assert!(
            simp.avg_bits(&freq) + 1e-9 >= full.avg_bits(&freq),
            "block {block}: simplified beat full Huffman"
        );
    }
}
