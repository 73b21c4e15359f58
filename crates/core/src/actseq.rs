//! Bit-sequence analysis of *activations* (paper Sec. I: "the number of
//! unique sequences representing a set of weights **or inputs** is
//! typically low").
//!
//! A binarized activation map also decomposes into 9-bit sequences: every
//! 3×3 window of one channel is a sequence under the natural mapping.
//! The paper compresses only kernels (they are static, so the Huffman
//! tree can be built offline), but measuring the activation-side skew
//! validates the broader observation and bounds what an online scheme —
//! the natural future-work extension — could achieve.

use crate::bitseq::BitSeq;
use crate::error::{KcError, Result};
use crate::freq::FreqTable;
use bitnn::tensor::BitTensor;

/// Count the 9-bit sequences of every (overlapping) 3×3 window of every
/// channel of a binarized activation tensor `[N, C, H, W]`.
///
/// Windows are taken at stride 1 without padding, mirroring how a 3×3
/// convolution consumes the activations.
///
/// # Errors
///
/// Returns [`KcError::BadKernelShape`] if `acts` is not 4-D or is
/// spatially smaller than 3×3.
pub fn activation_freq(acts: &BitTensor) -> Result<FreqTable> {
    let shape = acts.shape();
    if shape.len() != 4 || shape[2] < 3 || shape[3] < 3 {
        return Err(KcError::BadKernelShape(shape.to_vec()));
    }
    let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
    let mut freq = FreqTable::new();
    for img in 0..n {
        for ch in 0..c {
            for y in 0..h - 2 {
                for x in 0..w - 2 {
                    let mut seq = 0u16;
                    for p in 0..9 {
                        let (dy, dx) = (p / 3, p % 3);
                        if acts.get(acts.idx4(img, ch, y + dy, x + dx)) {
                            seq |= 1 << (8 - p);
                        }
                    }
                    freq.record(BitSeq::new_unchecked(seq));
                }
            }
        }
    }
    Ok(freq)
}

/// Summary of the activation-side compressibility of one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActSeqReport {
    /// Windows analyzed.
    pub windows: u64,
    /// Distinct sequences observed.
    pub distinct: usize,
    /// Top-64 coverage in percent.
    pub top64_pct: f64,
    /// Top-256 coverage in percent.
    pub top256_pct: f64,
    /// Empirical entropy in bits per sequence (9 = incompressible).
    pub entropy_bits: f64,
}

/// Build the report for a binarized activation tensor.
///
/// # Errors
///
/// Propagates [`activation_freq`] errors.
#[cfg(test)]
fn activation_report(acts: &BitTensor) -> Result<ActSeqReport> {
    let freq = activation_freq(acts)?;
    Ok(ActSeqReport {
        windows: freq.total(),
        distinct: freq.distinct(),
        top64_pct: freq.top_k_coverage_pct(64),
        top256_pct: freq.top_k_coverage_pct(256),
        entropy_bits: freq.entropy_bits(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_activations_are_one_sequence() {
        let mut acts = BitTensor::zeros(&[1, 2, 5, 5]);
        for i in 0..acts.len() {
            acts.set(i, true);
        }
        let freq = activation_freq(&acts).unwrap();
        assert_eq!(freq.total(), 2 * 3 * 3); // (5-2)^2 windows per channel
        assert_eq!(freq.distinct(), 1);
        assert_eq!(freq.count(BitSeq::ONES), 18);
    }

    #[test]
    fn window_extraction_uses_natural_mapping() {
        // Set only pixel (0,0): the window at (0,0) sees it at position
        // (0,0) = MSB -> sequence 256.
        let mut acts = BitTensor::zeros(&[1, 1, 3, 3]);
        let i = acts.idx4(0, 0, 0, 0);
        acts.set(i, true);
        let freq = activation_freq(&acts).unwrap();
        assert_eq!(freq.count(BitSeq::new(256).unwrap()), 1);
        assert_eq!(freq.total(), 1);
    }

    #[test]
    fn overlapping_windows_shift_the_sequence() {
        // A single set pixel at (1,1) of a 4x4 map appears in 4 windows
        // at different positions.
        let mut acts = BitTensor::zeros(&[1, 1, 4, 4]);
        let i = acts.idx4(0, 0, 1, 1);
        acts.set(i, true);
        let freq = activation_freq(&acts).unwrap();
        assert_eq!(freq.total(), 4);
        assert_eq!(freq.distinct(), 4);
        // Window origin (0,0) sees the pixel at (1,1) -> bit position 4.
        assert_eq!(freq.count(BitSeq::new(1 << 4).unwrap()), 1);
    }

    #[test]
    fn rejects_small_or_non_4d() {
        assert!(activation_freq(&BitTensor::zeros(&[1, 1, 2, 5])).is_err());
        assert!(activation_freq(&BitTensor::zeros(&[4, 4])).is_err());
    }

    #[test]
    fn smooth_activations_are_compressible() {
        // Block-structured activations (low spatial frequency) should
        // concentrate on few sequences; that's the paper's observation.
        let mut acts = BitTensor::zeros(&[1, 4, 16, 16]);
        for ch in 0..4 {
            for y in 0..16 {
                for x in 0..16 {
                    if (y / 8 + x / 8 + ch) % 2 == 0 {
                        let i = acts.idx4(0, ch, y, x);
                        acts.set(i, true);
                    }
                }
            }
        }
        let report = activation_report(&acts).unwrap();
        assert!(report.entropy_bits < 4.0, "entropy {}", report.entropy_bits);
        assert!(report.top64_pct > 90.0);
        assert!(report.distinct < 64);
    }
}
