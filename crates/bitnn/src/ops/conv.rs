//! Direct binary convolution over channel-packed operands.
//!
//! For each output pixel and filter the inner product walks the kernel's
//! spatial positions; at each in-bounds position one xnor-popcount over the
//! channel lanes is accumulated (this is the loop the decoding unit feeds in
//! the paper's hardware scheme). Out-of-bounds positions contribute the
//! padding value `-1` for every channel, which has the closed form
//! `agree = C - ones(w_p)` — the weight bits that are `0` (`-1`) agree with
//! the padding.

use crate::error::{BitnnError, Result};
use crate::ops::dot::dot_channels_seed;
use crate::pack::{PackedActivations, PackedKernel};
use crate::tensor::Tensor;

/// Convolution hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Spatial stride (same in both dimensions).
    pub stride: usize,
    /// Spatial zero-padding (pad value is `-1`; same in both dimensions).
    pub pad: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams { stride: 1, pad: 0 }
    }
}

impl Conv2dParams {
    /// Output spatial size for an input of size `n` and kernel size `k`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields no output pixels.
    pub fn out_dim(&self, n: usize, k: usize) -> usize {
        let padded = n + 2 * self.pad;
        assert!(padded >= k, "kernel larger than padded input");
        (padded - k) / self.stride + 1
    }
}

/// Per-filter, per-position popcounts of a kernel's de-interleaved words
/// ([`PackedKernel::filter_rows`], `lanes` words per position), used for
/// the padding closed form. `ones[k * positions + p]` = number of `1`
/// bits among the `C` channels of filter `k` at position `p`.
fn kernel_position_ones(rows: &[u64], lanes: usize, c: usize) -> Vec<u32> {
    let (full, rem) = (c / 64, c % 64);
    rows.chunks_exact(lanes)
        .map(|lanes| {
            let mut acc = 0u32;
            for &lane in &lanes[..full] {
                acc += lane.count_ones();
            }
            if rem > 0 {
                acc += (lanes[full] & crate::bitword::mask(rem)).count_ones();
            }
            acc
        })
        .collect()
}

/// Binary 2-D convolution producing integer dot products as `f32`.
///
/// Output shape is `[N, K, OH, OW]`; each element is the ±1-domain inner
/// product `2 * popcount(xnor) - 9C` (for a 3×3 kernel), i.e. exactly what a
/// full-precision convolution of the ±1 tensors (with `-1` padding) yields.
///
/// This is the seed's scalar direct convolution, frozen (down to the
/// single-accumulator channel dot) as the perf-tracking baseline and
/// correctness oracle; the fast path is [`crate::engine::Engine::conv2d`].
///
/// # Errors
///
/// Returns [`BitnnError::DimMismatch`] when the channel counts disagree.
pub fn conv2d_binary(
    acts: &PackedActivations,
    kernel: &PackedKernel,
    params: Conv2dParams,
) -> Result<Tensor> {
    if acts.channels() != kernel.channels() {
        return Err(BitnnError::DimMismatch {
            op: "conv2d_binary",
            lhs: vec![acts.channels()],
            rhs: vec![kernel.channels()],
        });
    }
    let (n, c, h, w) = (acts.batch(), acts.channels(), acts.height(), acts.width());
    let (kf, kh, kw) = (kernel.filters(), kernel.kh(), kernel.kw());
    let oh = params.out_dim(h, kh);
    let ow = params.out_dim(w, kw);
    let (positions, lanes) = (kh * kw, kernel.lanes());
    let total_bits = (positions * c) as i32;
    // The oracle reads its own position-major copy of the words, and
    // counts its own ones.
    let rows = kernel.filter_rows();
    let position_lanes = |k: usize, p: usize| &rows[(k * positions + p) * lanes..][..lanes];
    let pad_ones = kernel_position_ones(&rows, lanes, c);

    let mut out = Tensor::zeros(&[n, kf, oh, ow]);
    for img in 0..n {
        for k in 0..kf {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut agree = 0u32;
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let iy = (oy * params.stride + ky) as isize - params.pad as isize;
                            let ix = (ox * params.stride + kx) as isize - params.pad as isize;
                            let p = ky * kw + kx;
                            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                agree += dot_channels_seed(
                                    acts.pixel_lanes(img, iy as usize, ix as usize),
                                    position_lanes(k, p),
                                    c,
                                );
                            } else {
                                // Padding: every channel is -1 (bit 0); the
                                // weight bits that are 0 agree.
                                agree += c as u32 - pad_ones[k * positions + p];
                            }
                        }
                    }
                    out.set4(img, k, oy, ox, (2 * agree as i32 - total_bits) as f32);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::reference::conv2d_reference;
    use crate::tensor::BitTensor;
    use proptest::prelude::*;

    fn random_bits(shape: &[usize], seed: u64) -> BitTensor {
        let mut t = BitTensor::zeros(shape);
        let mut s = seed | 1;
        for i in 0..t.len() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if s >> 63 == 1 {
                t.set(i, true);
            }
        }
        t
    }

    #[test]
    fn out_dim_formula() {
        let p = Conv2dParams { stride: 2, pad: 1 };
        assert_eq!(p.out_dim(224, 3), 112);
        let p = Conv2dParams { stride: 1, pad: 1 };
        assert_eq!(p.out_dim(7, 3), 7);
        let p = Conv2dParams { stride: 1, pad: 0 };
        assert_eq!(p.out_dim(3, 3), 1);
    }

    #[test]
    fn all_ones_kernel_counts_input() {
        // Kernel of all +1: output = sum of input signs over the window.
        let a = random_bits(&[1, 8, 4, 4], 3);
        let mut wk = BitTensor::zeros(&[1, 8, 3, 3]);
        for i in 0..wk.len() {
            wk.set(i, true);
        }
        let pa = PackedActivations::pack(&a).unwrap();
        let pk = PackedKernel::pack(&wk).unwrap();
        let out = conv2d_binary(&pa, &pk, Conv2dParams::default()).unwrap();
        // Reference: sum signs in the 3x3x8 window at (0,0).
        let mut expect = 0i32;
        for c in 0..8 {
            for y in 0..3 {
                for x in 0..3 {
                    expect += a.sign_at4(0, c, y, x);
                }
            }
        }
        assert_eq!(out.at4(0, 0, 0, 0), expect as f32);
    }

    #[test]
    fn channel_mismatch_is_error() {
        let a = PackedActivations::pack(&BitTensor::zeros(&[1, 8, 4, 4])).unwrap();
        let k = PackedKernel::pack(&BitTensor::zeros(&[1, 16, 3, 3])).unwrap();
        assert!(conv2d_binary(&a, &k, Conv2dParams::default()).is_err());
    }

    #[test]
    fn padding_counts_as_minus_one() {
        // All-zero input, all-zero kernel (-1 everywhere), pad=1:
        // every bit agrees everywhere including padding -> full positive.
        let a = PackedActivations::pack(&BitTensor::zeros(&[1, 4, 3, 3])).unwrap();
        let k = PackedKernel::pack(&BitTensor::zeros(&[1, 4, 3, 3])).unwrap();
        let out = conv2d_binary(&a, &k, Conv2dParams { stride: 1, pad: 1 }).unwrap();
        // 9 positions * 4 channels = 36 bits, all agree -> +36 at every pixel.
        for &v in out.data() {
            assert_eq!(v, 36.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn conv_matches_float_reference(
            c in 1usize..70,
            h in 3usize..7,
            w in 3usize..7,
            kf in 1usize..3,
            stride in 1usize..3,
            pad in 0usize..2,
            seed in any::<u64>()
        ) {
            let a = random_bits(&[1, c, h, w], seed);
            let wk = random_bits(&[kf, c, 3, 3], seed ^ 0xdead_beef);
            let pa = PackedActivations::pack(&a).unwrap();
            let pk = PackedKernel::pack(&wk).unwrap();
            let params = Conv2dParams { stride, pad };
            let got = conv2d_binary(&pa, &pk, params).unwrap();
            let expect = conv2d_reference(&a.to_tensor(), &wk.to_tensor(), params);
            prop_assert_eq!(got.shape(), expect.shape());
            for (g, e) in got.data().iter().zip(expect.data()) {
                prop_assert_eq!(*g, *e);
            }
        }
    }
}
