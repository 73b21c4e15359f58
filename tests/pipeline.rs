//! End-to-end pipeline integration: model construction → frequency
//! analysis → compression → decompression → deployment → inference.

use bnnkc::prelude::*;

fn tiny(seed: u64) -> ModelGraph {
    ReActNetConfig::tiny().model(seed).expect("valid config")
}

#[test]
fn full_pipeline_encoding_is_lossless() {
    let model = tiny(21);
    let codec = KernelCodec::paper();
    for i in 0..model.num_conv3() {
        let kernel = model.conv3_weights(i);
        let compressed = codec.compress(kernel).expect("compress");
        let restored = compressed.decompress().expect("decompress");
        assert_eq!(&restored, kernel, "block {i} must round-trip bit-exactly");
    }
}

#[test]
fn deployed_clustered_model_still_infers() {
    let original = tiny(22);
    let codec = KernelCodec::paper_clustered();
    let mut deployed = original.clone();
    for i in 0..original.num_conv3() {
        let compressed = codec.compress(original.conv3_weights(i)).expect("compress");
        deployed
            .set_conv3_weights(i, compressed.decompress().expect("decompress"))
            .expect("same shape");
    }
    let batch = synthetic_batch(4, 3, 32, 23);
    let agreement = compare_models(&original, &deployed, &batch);
    // Logits move a little; predictions should mostly survive and the
    // network must stay finite and functional.
    assert!(agreement.top1 >= 0.5, "top-1 agreement {}", agreement.top1);
    assert!(agreement.mean_abs_dev.is_finite());
}

#[test]
fn clustering_only_moves_channels_by_one_bit() {
    let model = tiny(24);
    let codec = KernelCodec::paper_clustered();
    for i in 0..model.num_conv3() {
        let kernel = model.conv3_weights(i);
        let compressed = codec.compress(kernel).expect("compress");
        let restored = compressed.decompress().expect("decompress");
        let shape = kernel.shape();
        for f in 0..shape[0] {
            for ch in 0..shape[1] {
                let a = bitnn::weightgen::read_sequence(kernel, f, ch);
                let b = bitnn::weightgen::read_sequence(&restored, f, ch);
                assert!(
                    (a ^ b).count_ones() <= 1,
                    "block {i} channel ({f},{ch}) moved more than one bit"
                );
            }
        }
    }
}

#[test]
fn model_ratio_uses_real_streams() {
    let model = tiny(25);
    let codec = KernelCodec::paper_clustered();
    let mr = model_compression_ratio(&model, &codec).expect("model ratio");
    assert!(mr.ratio() > 1.0, "model must shrink: {}", mr.ratio());
    assert!(mr.mean_kernel_ratio > 1.0);
    // Conservation: savings come only from the 3x3 kernels.
    let breakdown = model.storage_breakdown();
    let conv3_bits = breakdown.bits(OpCategory::Conv3x3) as u64;
    let saved = mr.original_bits - mr.compressed_bits;
    assert!(saved < conv3_bits, "cannot save more than the 3x3 storage");
}

#[test]
fn freq_tables_merge_across_blocks() {
    let model = tiny(26);
    let mut merged = FreqTable::new();
    let mut total = 0u64;
    for i in 0..model.num_conv3() {
        let f = FreqTable::from_kernel(model.conv3_weights(i)).expect("kernel");
        total += f.total();
        merged.merge(&f);
    }
    assert_eq!(merged.total(), total);
    // The merged table is dominated by the same extremes.
    let top2: Vec<u16> = merged.top_k(2).iter().map(|(s, _)| s.value()).collect();
    assert!(top2.contains(&0) || top2.contains(&511), "top2 = {top2:?}");
}

#[test]
fn decoder_config_round_trips_through_tree() {
    let model = tiny(27);
    let codec = KernelCodec::paper();
    let compressed = codec.compress(model.conv3_weights(1)).expect("compress");
    let cfg = compressed.decoder_config(0x1234_5678);
    assert_eq!(cfg.stream_ptr, 0x1234_5678);
    assert_eq!(cfg.node_code_lengths, compressed.tree().length_table());
    assert!(cfg.table_entries() <= 512, "hardware table budget");
    assert_eq!(cfg.num_sequences as usize, compressed.num_sequences());
}
