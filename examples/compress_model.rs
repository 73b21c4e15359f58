//! Whole-model compression with an accuracy check — the paper's offline
//! pipeline (Sec. IV-A) on a complete network.
//!
//! Compresses every 3×3 kernel of a ReActNet, reports the per-block and
//! whole-model ratios, deploys the clustered weights back into the model,
//! and verifies the substituted network still agrees with the original.
//!
//! ```text
//! cargo run --release --example compress_model
//! ```

use bnnkc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ReActNetConfig::tiny();
    let original = cfg.model(1)?;
    let codec = KernelCodec::paper_clustered();

    // --- Offline: compress each block's 3x3 kernel ---
    println!("Per-block compression (simplified tree 32/64/64/256 + clustering):");
    let mut deployed = original.clone();
    for i in 0..original.num_conv3() {
        let kernel = original.conv3_weights(i);
        let compressed = codec.compress(kernel)?;
        println!(
            "  block {}: {:>6} bits -> {:>6} bits  (x{:.2}, {} substitutions, code lengths {:?})",
            i + 1,
            compressed.original_bits(),
            compressed.stream_bits(),
            compressed.ratio(),
            compressed.substitutions().len(),
            compressed.tree().length_table(),
        );
        // Deploy: the network now runs with the clustered weights, which
        // is what the decoding unit would feed the CPU at runtime.
        deployed.set_conv3_weights(i, compressed.decompress()?)?;
    }

    // --- Whole-model accounting (the paper's 1.2x) ---
    let ratio = model_compression_ratio(&original, &codec)?;
    println!(
        "\nWhole model: {:.2} Mbit -> {:.2} Mbit ({:.3}x; mean kernel ratio {:.2}x)",
        ratio.original_bits as f64 / 1e6,
        ratio.compressed_bits as f64 / 1e6,
        ratio.ratio(),
        ratio.mean_kernel_ratio
    );

    // --- Accuracy proxy: does clustering change predictions? ---
    let batch = synthetic_batch(16, cfg.input_channels, cfg.image_size, 99);
    let agreement = compare_models(&original, &deployed, &batch);
    println!(
        "\nOriginal vs clustered network over {} inputs:",
        agreement.inputs
    );
    println!("  top-1 agreement:    {:.1}%", agreement.top1 * 100.0);
    println!("  mean |logit delta|: {:.4}", agreement.mean_abs_dev);
    println!("  max  |logit delta|: {:.4}", agreement.max_abs_dev);
    println!("\nPaper Sec. III-C: replacing rare sequences with Hamming-1 common ones");
    println!("keeps the network's behaviour — each substituted channel changes one");
    println!("weight, perturbing any single dot product by at most ±2.");

    Ok(())
}
