//! Cross-crate property tests: the pipeline invariants must hold for
//! arbitrary distributions and kernel shapes, not just the calibrated
//! ones.

use bnnkc::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arbitrary_kernel(filters: usize, channels: usize, skew: f64, seed: u64) -> BitTensor {
    // Interpolate from a mild to a very peaked distribution, staying in
    // the head-heavy domain `calibrated` documents (top-64 mass at least
    // a third of the 64..256 mass).
    let t64 = 20.0 + skew * 60.0;
    let t256 = (t64 * 3.2).min(96.0).max(t64 + 5.0);
    let dist = SeqDistribution::calibrated(t64, t256, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    dist.sample_kernel(filters, channels, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encoding round-trips bit-exactly for any kernel.
    #[test]
    fn encoding_roundtrip_any_kernel(
        filters in 1usize..24,
        channels in 1usize..24,
        skew in 0.0f64..0.9,
        seed in any::<u64>()
    ) {
        let kernel = arbitrary_kernel(filters, channels, skew, seed);
        let compressed = KernelCodec::paper().compress(&kernel).unwrap();
        prop_assert_eq!(compressed.decompress().unwrap(), kernel);
    }

    /// The compressed stream is never larger than the fixed 9-bit format
    /// plus the worst-case code inflation (13 bits per sequence after
    /// auto-widening), and positive-skew kernels actually compress.
    #[test]
    fn stream_size_bounds(
        filters in 4usize..24,
        channels in 4usize..24,
        skew in 0.0f64..0.9,
        seed in any::<u64>()
    ) {
        let kernel = arbitrary_kernel(filters, channels, skew, seed);
        let compressed = KernelCodec::paper().compress(&kernel).unwrap();
        let n = compressed.num_sequences();
        prop_assert!(compressed.stream_bits() <= n * 13);
        prop_assert!(compressed.stream_bits() >= n * 6);
    }

    /// Clustering never moves a channel by more than the configured
    /// Hamming radius, for any radius.
    #[test]
    fn clustering_respects_radius(
        radius in 1u32..4,
        n_remove in 0usize..512,
        seed in any::<u64>()
    ) {
        let kernel = arbitrary_kernel(16, 16, 0.7, seed);
        let freq = FreqTable::from_kernel(&kernel).unwrap();
        let plan = ClusterPlan::build(&freq, &ClusterConfig {
            n_remove,
            max_distance: radius,
            ..ClusterConfig::default()
        });
        for s in plan.substitutions() {
            prop_assert!(s.from.hamming(s.to) <= radius);
            prop_assert!(s.from.hamming(s.to) >= 1);
        }
        let rewritten = plan.apply_to_kernel(&kernel).unwrap();
        let f2 = FreqTable::from_kernel(&rewritten).unwrap();
        prop_assert_eq!(f2.total(), freq.total());
    }

    /// Clustering is idempotent at the kernel level: re-planning on the
    /// rewritten kernel with the same budget replaces strictly fewer
    /// sequences' mass (the removed ones are gone).
    #[test]
    fn clustering_reduces_distinct_sequences(seed in any::<u64>()) {
        let kernel = arbitrary_kernel(24, 24, 0.8, seed);
        let freq = FreqTable::from_kernel(&kernel).unwrap();
        let plan = ClusterPlan::build(&freq, &ClusterConfig::default());
        prop_assume!(plan.replaced() > 0);
        let rewritten = plan.apply_to_kernel(&kernel).unwrap();
        let f2 = FreqTable::from_kernel(&rewritten).unwrap();
        prop_assert!(f2.distinct() < freq.distinct());
    }

    /// The whole-model ratio is always consistent with its parts.
    #[test]
    fn model_ratio_consistency(seed in any::<u64>()) {
        let model = ReActNetConfig::tiny().model(seed).unwrap();
        let mr = model_compression_ratio(&model, &KernelCodec::paper()).unwrap();
        prop_assert!(mr.compressed_bits <= mr.original_bits);
        prop_assert!(mr.ratio() >= 1.0);
        prop_assert!(mr.mean_kernel_ratio >= 1.0);
    }

    // The graph-executor-vs-scalar-oracle sweep now lives in
    // tests/backend_conformance.rs.

    /// For the ReActNet family the batch executor must agree with the
    /// scalar oracle (`ModelGraph::forward_scalar`) across strides,
    /// scales and thread counts.
    #[test]
    fn reactnet_graph_matches_scalar_oracle(
        scale_q in 0usize..3,
        threads in 1usize..5,
        seed in any::<u64>()
    ) {
        // Scales where the clamp-to-8 keeps the C/2C block invariant.
        let scale = [0.0625, 0.125, 0.25][scale_q];
        let mut cfg = ReActNetConfig::scaled(scale).unwrap();
        cfg.image_size = 16;
        // Keep it fast: only the first 5 blocks (covers stride-2 and
        // channel-doubling transitions).
        cfg.blocks.truncate(5);
        cfg.num_classes = 10;
        let model = cfg.model(seed).unwrap();
        let inputs = synthetic_batch(2, 3, 16, seed ^ 0x0DD);
        let engine = Engine::with_threads(threads);
        let batched = model.forward_batch(&inputs, &engine).unwrap();
        for (x, via_batch) in inputs.iter().zip(&batched) {
            let oracle = model.forward_scalar(x).unwrap();
            prop_assert_eq!(oracle.data(), via_batch.data());
        }
    }

    /// Compress → stream-decode → deploy into the graph is lossless for
    /// any architecture (the paper's pipeline, end to end, as a property).
    #[test]
    fn compressed_graph_deployment_is_lossless(
        arch_idx in 0usize..3,
        seed in any::<u64>()
    ) {
        let arch = Arch::ALL[arch_idx];
        let mut model = build_model(arch, 0.0625, 12, seed).unwrap();
        let codec = KernelCodec::paper();
        for i in 0..model.num_conv3() {
            let original = model.conv3_weights(i).clone();
            let ck = codec.compress(&original).unwrap();
            let container = read_container(&write_container(&ck)).unwrap();
            model.set_conv3_packed(i, container.decode_packed().unwrap()).unwrap();
            prop_assert_eq!(model.conv3_weights(i), &original, "{} conv {}", arch, i);
        }
    }

    /// The binary convolution substrate agrees with its float oracle for
    /// arbitrary packed inputs (cross-checking bitnn against itself via
    /// the public API).
    #[test]
    fn conv_agrees_with_oracle(
        c in 1usize..40,
        seed in any::<u64>()
    ) {
        use bitnn::ops::conv::{conv2d_binary, Conv2dParams};
        use bitnn::ops::reference::conv2d_reference;
        use bitnn::pack::{PackedActivations, PackedKernel};

        let kernel = arbitrary_kernel(2, c, 0.5, seed);
        let mut rng = StdRng::seed_from_u64(!seed);
        let acts = SeqDistribution::uniform().sample_kernel(1, c, &mut rng);
        // Reuse the 3x3 sampler as a [1, c, 3, 3] activation tensor.
        let pa = PackedActivations::pack(&acts).unwrap();
        let pk = PackedKernel::pack(&kernel).unwrap();
        let params = Conv2dParams { stride: 1, pad: 1 };
        let fast = conv2d_binary(&pa, &pk, params).unwrap();
        let oracle = conv2d_reference(&acts.to_tensor(), &kernel.to_tensor(), params);
        prop_assert_eq!(fast.shape(), oracle.shape());
        for (a, b) in fast.data().iter().zip(oracle.data()) {
            prop_assert_eq!(a, b);
        }
    }
}
