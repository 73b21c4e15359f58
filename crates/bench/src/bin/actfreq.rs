//! Extension experiment: the paper's Sec. I observation applied to
//! *inputs* — how skewed are the bit sequences of binarized activations?
//!
//! Runs a model forward, captures each block's binarized 3×3-stage input,
//! and reports the per-block activation-sequence statistics next to the
//! kernel-side numbers. The paper compresses only kernels (static,
//! offline tree); this quantifies what an online activation scheme — the
//! natural future-work extension — would have to work with.
//!
//! ```text
//! cargo run -p bench --release --bin actfreq [-- --seed 1 --inputs 4]
//! ```

use bench::{arg_u64, TablePrinter};
use bitnn::infer::synthetic_batch;
use bitnn::model::ReActNetConfig;
use kc_core::actseq::activation_freq;
use kc_core::{FreqTable, TreeConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = arg_u64(&args, "--seed", 1);
    let inputs = arg_u64(&args, "--inputs", 4) as usize;

    let cfg = ReActNetConfig::tiny();
    let model = cfg.model(seed).expect("valid config");
    let batch = synthetic_batch(inputs, cfg.input_channels, cfg.image_size, seed ^ 0xACED);

    // Merge activation frequencies across the batch per block.
    let mut per_block: Vec<FreqTable> = (0..model.num_conv3()).map(|_| FreqTable::new()).collect();
    for input in &batch {
        let (_, traces) = model.forward_traced(input).expect("forward");
        for (i, bits) in traces.iter().enumerate() {
            per_block[i].merge(&activation_freq(bits).expect("3x3-capable activations"));
        }
    }

    println!(
        "Activation bit-sequence statistics ({} inputs, tiny model)\n",
        inputs
    );
    let mut t = TablePrinter::new();
    t.row(vec![
        "Block",
        "Windows",
        "Distinct",
        "Top-64 (%)",
        "Top-256 (%)",
        "Entropy (bits)",
        "Simpl. ratio",
    ]);
    for (i, freq) in per_block.iter().enumerate() {
        let tree = kc_core::SimplifiedTree::build(freq, TreeConfig::paper());
        let ratio = 9.0 / tree.avg_bits(freq);
        // Kernel-side comparison.
        let kfreq = FreqTable::from_kernel(model.conv3_weights(i)).expect("kernel");
        t.row(vec![
            format!("{}", i + 1),
            format!("{}", freq.total()),
            format!("{}", freq.distinct()),
            format!(
                "{:.1} (kernel {:.1})",
                freq.top_k_coverage_pct(64),
                kfreq.top_k_coverage_pct(64)
            ),
            format!("{:.1}", freq.top_k_coverage_pct(256)),
            format!("{:.2}", freq.entropy_bits()),
            format!("{ratio:.3}"),
        ]);
    }
    print!("{}", t.render());
    println!("\nActivations of a randomly-initialized synthetic model are close to");
    println!("spatially white, so their sequence entropy is high; trained models'");
    println!("activations are spatially smooth and compress much better — this");
    println!("harness exists to measure that on real checkpoints.");
}
