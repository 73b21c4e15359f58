//! Regenerate paper Table I: ReActNet storage and execution-time
//! breakdown by operation category.
//!
//! Storage comes from the model's parameter accounting; execution time
//! from simulating every layer on the baseline machine.
//!
//! ```text
//! cargo run -p bench --release --bin table1 [-- --seed 1 --image 224]
//! ```

use bench::{arg_u64, TablePrinter, PAPER_TABLE1};
use bitnn::model::{OpCategory, ReActNetConfig};
use simcpu::config::CpuConfig;
use simcpu::run::{run_model, Mode};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = arg_u64(&args, "--seed", 1);
    let image = arg_u64(&args, "--image", 224) as usize;

    let mut model_cfg = ReActNetConfig::full();
    model_cfg.image_size = image;
    let model = model_cfg.model(seed).expect("valid config");

    let storage = model.storage_breakdown();
    let cpu = CpuConfig::default();
    let run = run_model(&cpu, &model.workloads(), Mode::Baseline, &[1.0]);

    println!("Table I — ReActNet storage and execution-time breakdown ({image}x{image} input)\n");
    let mut table = TablePrinter::new();
    table.row(vec![
        "Operation",
        "Storage (%)",
        "paper",
        "Precision",
        "Exec time (%)",
        "paper",
    ]);
    for (i, cat) in OpCategory::ALL.iter().enumerate() {
        let (p_storage, p_bits, p_exec) = PAPER_TABLE1[i];
        table.row(vec![
            cat.label().to_string(),
            format!("{:.2}", storage.percent(*cat)),
            format!("{p_storage:.2}"),
            format!("{} bit", p_bits),
            format!("{:.1}", run.category_pct(*cat)),
            format!("{p_exec:.1}"),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nTotal storage: {:.1} Mbit (paper: 29 Mbit)   Simulated cycles: {:.1} M",
        storage.total_bits() as f64 / 1e6,
        run.total_cycles as f64 / 1e6
    );
    println!("\nNote: the paper's 18.7% output-layer execution share is not reachable");
    println!("from its own op counts (a 1024x1000 8-bit FC is ~1M MACs against ~3.4G");
    println!("binary MACs in the 3x3 convolutions); see EXPERIMENTS.md.");
}
