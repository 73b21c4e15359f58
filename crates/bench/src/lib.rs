//! Shared harness utilities: paper reference values and workload builders.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! and prints the published values next to the measured ones. The
//! constants here transcribe the paper so the comparison is explicit.

use bitnn::model::ReActNetConfig;
use bitnn::tensor::BitTensor;
use bitnn::weightgen::SeqDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Paper Table II: (top-64 %, top-256 %) per block.
pub const PAPER_TABLE2: [(f64, f64); 13] = bitnn::weightgen::TABLE2_TARGETS;

/// Paper Table V: (Encoding ratio, Clustering ratio) per block.
pub const PAPER_TABLE5: [(f64, f64); 13] = [
    (1.18, 1.30),
    (1.22, 1.30),
    (1.21, 1.31),
    (1.21, 1.32),
    (1.19, 1.30),
    (1.20, 1.33),
    (1.18, 1.33),
    (1.20, 1.32),
    (1.20, 1.31),
    (1.18, 1.32),
    (1.19, 1.33),
    (1.25, 1.36),
    (1.22, 1.35),
];

/// Paper Table I: (storage %, precision bits, execution %) rows in
/// category order (input, output, conv1x1, conv3x3, others).
pub const PAPER_TABLE1: [(f64, usize, f64); 5] = [
    (0.02, 8, 4.0),
    (22.17, 8, 18.7),
    (8.5, 1, 6.9),
    (68.0, 1, 66.8),
    (1.31, 32, 3.6),
];

/// Paper Fig. 3: the top-16 bit sequences of one basic block, in order.
pub const PAPER_FIG3_TOP16: [u16; 16] = [
    0, 511, 256, 255, 4, 510, 1, 507, 508, 64, 3, 504, 447, 7, 448, 63,
];

/// Paper headline numbers.
pub mod headline {
    /// Software-only decoding slowdown (Sec. IV-B).
    pub const SW_SLOWDOWN: f64 = 1.47;
    /// Hardware scheme speedup (Sec. VI).
    pub const HW_SPEEDUP: f64 = 1.35;
    /// Mean per-block kernel compression with clustering (Sec. VI).
    pub const KERNEL_RATIO: f64 = 1.32;
    /// Whole-model compression (Sec. VI).
    pub const MODEL_RATIO: f64 = 1.2;
}

/// Build block `block`'s 3×3 kernel at its channel count in the full
/// ReActNet ([`ReActNetConfig::full`]) with the calibrated distribution.
/// `scale` (0 < scale <= 1) shrinks the channel count for quick runs;
/// the statistics are scale-invariant.
///
/// # Panics
///
/// Panics if `block` is not 1..=13 or `scale` is out of range.
pub fn block_kernel(block: usize, seed: u64, scale: f64) -> BitTensor {
    assert!((1..=13).contains(&block), "block must be 1..=13");
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let full = ReActNetConfig::full().blocks[block - 1].in_ch;
    let c = ((full as f64 * scale).round() as usize).max(8);
    let mut rng = StdRng::seed_from_u64(seed ^ block as u64);
    SeqDistribution::for_block(block, 0).sample_kernel(c, c, &mut rng)
}

/// Format a measured-vs-paper pair with the relative deviation.
pub fn vs(measured: f64, paper: f64) -> String {
    let dev = (measured - paper) / paper * 100.0;
    format!("{measured:6.3} (paper {paper:5.2}, {dev:+5.1}%)")
}

/// A simple aligned table printer.
#[derive(Debug, Default)]
pub struct TablePrinter {
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Empty printer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a row of cells.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Render with per-column alignment.
    pub fn render(&self) -> String {
        let cols = self.rows.iter().map(Vec::len).max().unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:<width$}", width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

pub mod perfjson;

/// Parse a `--scale X` / `--seed N` style flag list (tiny hand-rolled
/// parser so the harnesses need no CLI dependency).
pub fn arg_f64(args: &[String], flag: &str, default: f64) -> f64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Integer flag variant of [`arg_f64`].
pub fn arg_u64(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Boolean flag presence.
pub fn arg_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_kernel_scales_channels() {
        let k = block_kernel(1, 0, 1.0);
        assert_eq!(k.shape(), &[32, 32, 3, 3]);
        let k = block_kernel(13, 0, 0.25);
        assert_eq!(k.shape(), &[256, 256, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "block must be")]
    fn block_zero_panics() {
        block_kernel(0, 0, 1.0);
    }

    #[test]
    fn table_printer_aligns() {
        let mut t = TablePrinter::new();
        t.row(vec!["a", "bbbb"]);
        t.row(vec!["ccc", "d"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0].find("bbbb"), lines[1].find('d'));
    }

    #[test]
    fn arg_parsers() {
        let args: Vec<String> = ["--scale", "0.5", "--seed", "7", "--model"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_f64(&args, "--scale", 1.0), 0.5);
        assert_eq!(arg_u64(&args, "--seed", 0), 7);
        assert!(arg_flag(&args, "--model"));
        assert!(!arg_flag(&args, "--missing"));
        assert_eq!(arg_f64(&args, "--missing", 2.0), 2.0);
    }

    #[test]
    fn vs_formats_deviation() {
        let s = vs(1.32, 1.32);
        assert!(s.contains("+0.0%"));
    }
}
