//! Quickstart: build a BNN, inspect its bit-sequence statistics, compress
//! a kernel, and verify the round trip.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bnnkc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A ReActNet-shaped binary network. Weights are synthetic but
    //    calibrated to the bit-sequence statistics the paper published
    //    for the trained ImageNet model (Table II / Fig. 3).
    let cfg = ReActNetConfig::tiny();
    let model = cfg.model(42)?;
    println!(
        "Model: {} basic blocks, {} classes",
        model.num_conv3(),
        cfg.num_classes
    );

    // 2. Run an inference to see the substrate working end to end.
    let input = synthetic_batch(1, 3, 32, 7).remove(0);
    let logits = model.forward(&input)?;
    println!(
        "Forward pass: input {:?} -> logits {:?}, predicted class {}",
        input.shape(),
        logits.shape(),
        logits.argmax().expect("non-empty logits")
    );

    // 3. Look at block 1's 3x3 kernel the way the paper does: as a bag of
    //    9-bit "bit sequences", one per channel (Fig. 2).
    let kernel = model.conv3_weights(0);
    let freq = FreqTable::from_kernel(kernel)?;
    println!(
        "\nBlock 1 kernel: {} sequences, {} distinct",
        freq.total(),
        freq.distinct()
    );
    println!("Top-5 sequences:");
    for (seq, count) in freq.top_k(5) {
        println!(
            "  seq {seq:>3} ({seq:b}): {count} uses ({:.1}%)",
            freq.percent(seq)
        );
    }
    println!(
        "Top-64 coverage: {:.1}%   entropy: {:.2} bits/sequence",
        freq.top_k_coverage_pct(64),
        freq.entropy_bits()
    );

    // 4. Compress it with the paper's pipeline (simplified Huffman tree +
    //    Hamming-1 clustering) and decompress.
    let codec = KernelCodec::paper_clustered();
    let compressed = codec.compress(kernel)?;
    println!(
        "\nCompression: {} bits -> {} bits (ratio {:.2}x, {} sequences substituted)",
        compressed.original_bits(),
        compressed.stream_bits(),
        compressed.ratio(),
        compressed.substitutions().len()
    );
    let restored = compressed.decompress()?;
    assert_eq!(restored.shape(), kernel.shape());
    println!("Round trip OK: decompressed kernel has the original shape and");
    println!("every channel within Hamming distance 1 of the original.");

    Ok(())
}
