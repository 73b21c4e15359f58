//! The accuracy-proxy experiment for the clustering claim (Sec. III-C):
//! "a rarely used bit sequence can be replaced by one employed more
//! frequently without negatively impacting the accuracy".
//!
//! Without ImageNet we measure *agreement*: run the model before and
//! after clustering every 3×3 kernel on the same synthetic inputs and
//! report top-1 agreement and logit deviation. Full agreement upper-
//! bounds any accuracy change at zero.
//!
//! ```text
//! cargo run -p bench --release --bin accuracy [-- --seed 1 --inputs 32 --radius 1]
//! ```

use bench::{arg_u64, TablePrinter};
use bitnn::infer::{compare_models, synthetic_batch};
use bitnn::model::ReActNetConfig;
use kc_core::cluster::{ClusterConfig, ClusterPlan};
use kc_core::FreqTable;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = arg_u64(&args, "--seed", 1);
    let inputs = arg_u64(&args, "--inputs", 32) as usize;
    let radius = arg_u64(&args, "--radius", 1) as u32;

    let cfg = ReActNetConfig::tiny();
    let original = cfg.model(seed).expect("valid config");
    let mut clustered = original.clone();
    let mut total_subs = 0usize;
    for i in 0..clustered.num_conv3() {
        let kernel = clustered.conv3_weights(i).clone();
        let freq = FreqTable::from_kernel(&kernel).expect("3x3 kernel");
        let plan = ClusterPlan::build(
            &freq,
            &ClusterConfig {
                max_distance: radius,
                ..ClusterConfig::default()
            },
        );
        total_subs += plan.replaced();
        let rewritten = plan.apply_to_kernel(&kernel).expect("same shape");
        clustered
            .set_conv3_weights(i, rewritten)
            .expect("same shape");
    }

    let batch = synthetic_batch(inputs, cfg.input_channels, cfg.image_size, seed ^ 0xF00D);
    let agg = compare_models(&original, &clustered, &batch);

    println!("Accuracy proxy — original vs clustered network (Hamming radius {radius})\n");
    let mut t = TablePrinter::new();
    t.row(vec!["Metric", "Value"]);
    t.row(vec![
        "Inputs compared".to_string(),
        format!("{}", agg.inputs),
    ]);
    t.row(vec![
        "Sequences substituted".to_string(),
        format!("{total_subs}"),
    ]);
    t.row(vec![
        "Top-1 agreement".to_string(),
        format!("{:.1}%", agg.top1 * 100.0),
    ]);
    t.row(vec![
        "Mean |logit delta|".to_string(),
        format!("{:.4}", agg.mean_abs_dev),
    ]);
    t.row(vec![
        "Max |logit delta|".to_string(),
        format!("{:.4}", agg.max_abs_dev),
    ]);
    print!("{}", t.render());
    println!("\nPaper claim: Hamming-1 substitution does not negatively affect accuracy.");
    println!("High top-1 agreement means the clustered network is functionally the");
    println!("same classifier; any accuracy change is bounded by the disagreement rate.");
}
