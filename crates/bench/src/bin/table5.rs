//! Regenerate paper Table V: per-block compression ratio of the 3×3
//! kernels, Encoding vs Clustering — plus the whole-model 1.2x figure
//! with `--model`.
//!
//! ```text
//! cargo run -p bench --release --bin table5 [-- --scale 0.5 --seed 1 --model]
//! ```

use bench::{arg_f64, arg_flag, arg_u64, block_kernel, headline, vs, TablePrinter, PAPER_TABLE5};
use bitnn::model::ReActNetConfig;
use kc_core::codec::{model_compression_ratio, KernelCodec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = arg_f64(&args, "--scale", 1.0);
    let seed = arg_u64(&args, "--seed", 1);

    println!("Table V — compression ratio of bit sequences per basic block");
    println!("(tree nodes 32/64/64/256 -> 6/8/9/12-bit codes; clustering: N=256, Hamming-1)\n");

    let encoding = KernelCodec::paper();
    let clustering = KernelCodec::paper_clustered();

    let mut table = TablePrinter::new();
    table.row(vec!["Layer", "Encoding", "Clustering"]);
    let (mut enc_sum, mut clu_sum) = (0.0, 0.0);
    for block in 1..=13 {
        let kernel = block_kernel(block, seed, scale);
        let enc = encoding.compress(&kernel).expect("well-formed kernel");
        let clu = clustering.compress(&kernel).expect("well-formed kernel");
        let (p_enc, p_clu) = PAPER_TABLE5[block - 1];
        enc_sum += enc.ratio();
        clu_sum += clu.ratio();
        table.row(vec![
            format!("Block {block}"),
            vs(enc.ratio(), p_enc),
            vs(clu.ratio(), p_clu),
        ]);
    }
    table.row(vec![
        "Mean".to_string(),
        format!("{:6.3}", enc_sum / 13.0),
        vs(clu_sum / 13.0, headline::KERNEL_RATIO),
    ]);
    print!("{}", table.render());

    // Sec. VI prose also quotes per-node usage percentages; print them
    // for one representative block in both modes.
    let kernel = block_kernel(5, seed, scale);
    let freq = kc_core::FreqTable::from_kernel(&kernel).expect("3x3 kernel");
    let enc_tree = kc_core::SimplifiedTree::build(&freq, kc_core::TreeConfig::paper());
    let plan =
        kc_core::cluster::ClusterPlan::build(&freq, &kc_core::cluster::ClusterConfig::default());
    let post = plan.apply_to_freq(&freq);
    let clu_tree = kc_core::SimplifiedTree::build(&post, kc_core::TreeConfig::paper());
    println!("\nPer-node usage, block 5 (paper Sec. VI quotes ~46/24/23/5% before and");
    println!("~66/25/8/0.6% after clustering):");
    println!(
        "  Encoding:   {:?} %",
        enc_tree
            .node_usage_pct(&freq)
            .iter()
            .map(|p| (p * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    println!(
        "  Clustering: {:?} %",
        clu_tree
            .node_usage_pct(&post)
            .iter()
            .map(|p| (p * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );

    if arg_flag(&args, "--model") {
        println!("\nWhole-model compression (all layers; only 3x3 kernels compressed):");
        let model = ReActNetConfig::full().model(seed).expect("valid config");
        let mr = model_compression_ratio(&model, &clustering).expect("model compresses");
        println!(
            "  original {:.2} Mbit -> compressed {:.2} Mbit: ratio {}",
            mr.original_bits as f64 / 1e6,
            mr.compressed_bits as f64 / 1e6,
            vs(mr.ratio(), headline::MODEL_RATIO),
        );
        println!(
            "  mean kernel payload ratio: {}",
            vs(mr.mean_kernel_ratio, headline::KERNEL_RATIO)
        );
    }
}
