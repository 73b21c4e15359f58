//! Layer workload descriptors.
//!
//! A [`LayerWorkload`] captures the loop-nest geometry of one convolution —
//! everything the timing simulator needs to generate a memory/compute trace
//! without re-running inference. The `simcpu` crate consumes these.

use crate::model::storage::OpCategory;

/// Which kernel representation a convolution's trace should model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvMode {
    /// Channel-packed, uncompressed kernels (the daBNN baseline).
    Baseline,
    /// Compressed kernels decoded in software (paper Sec. IV-B: 1.47x
    /// slower than the baseline).
    SoftwareDecode,
    /// Compressed kernels decoded by the hardware decoding unit
    /// (paper Sec. VI: 1.35x faster than the baseline).
    HardwareDecode,
}

/// Geometry of one layer's compute.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWorkload {
    /// Display name, e.g. `"node5.conv3x3"`.
    pub name: String,
    /// Table I category.
    pub category: OpCategory,
    /// Input channels.
    pub in_ch: usize,
    /// Output channels (filters).
    pub out_ch: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Output height.
    pub oh: usize,
    /// Output width.
    pub ow: usize,
    /// Weight precision in bits (1 for binary, 8 for quantized).
    pub precision_bits: usize,
}

impl LayerWorkload {
    /// Number of multiply-accumulate operations in the layer.
    pub fn macs(&self) -> u64 {
        (self.out_ch * self.oh * self.ow * self.in_ch * self.kh * self.kw) as u64
    }

    /// Weight storage in bits.
    #[cfg(test)]
    fn weight_bits(&self) -> u64 {
        (self.out_ch * self.in_ch * self.kh * self.kw * self.precision_bits) as u64
    }

    /// Number of 64-bit weight lanes per kernel position (binary layers).
    #[cfg(test)]
    fn weight_lanes(&self) -> usize {
        self.in_ch.div_ceil(64)
    }

    /// Number of 9-bit bit sequences in the kernel (3×3 binary layers).
    pub fn num_sequences(&self) -> u64 {
        (self.out_ch * self.in_ch) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl() -> LayerWorkload {
        LayerWorkload {
            name: "test".into(),
            category: OpCategory::Conv3x3,
            in_ch: 64,
            out_ch: 64,
            kh: 3,
            kw: 3,
            oh: 56,
            ow: 56,
            precision_bits: 1,
        }
    }

    #[test]
    fn macs_formula() {
        assert_eq!(wl().macs(), 64 * 56 * 56 * 64 * 9);
    }

    #[test]
    fn weight_bits_formula() {
        assert_eq!(wl().weight_bits(), 64 * 64 * 9);
    }

    #[test]
    fn lanes_round_up() {
        let mut w = wl();
        w.in_ch = 65;
        assert_eq!(w.weight_lanes(), 2);
    }

    #[test]
    fn sequences_count_channels_times_filters() {
        assert_eq!(wl().num_sequences(), 64 * 64);
    }
}
