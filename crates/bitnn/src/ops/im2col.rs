//! im2col lowering of binary convolution to binary GEMM.
//!
//! Each output pixel's receptive field is flattened into one packed row of
//! `KH*KW*C` bits; the kernel is flattened the same way; the convolution is
//! then a [`gemm_binary`] call. This is the lowering daBNN uses for some
//! shapes. The engine does not run it — its conv kernel reads the windows
//! in place (see [`crate::ops::gemm`]) — so it serves as a second,
//! independent implementation that the direct convolution is
//! cross-checked against.
//!
//! Padding pixels contribute `-1` for every channel, i.e. zero bits, which
//! is what freshly-zeroed rows already contain — but the *bit count* must
//! still include them, so rows are always `KH*KW*C` bits wide.

use crate::bitword::or_bits;
use crate::error::Result;
use crate::ops::conv::Conv2dParams;
use crate::ops::gemm::{gemm_binary, PackedMatrix};
use crate::pack::{PackedActivations, PackedKernel};
use crate::tensor::{BitTensor, Tensor};

/// Lower packed activations to an im2col matrix.
///
/// Returns a matrix with one row per output pixel (row-major over
/// `[N, OH, OW]`) and `KH*KW*C` columns ordered position-major
/// (`p * C + channel`), matching [`im2col_kernel`].
pub fn im2col_pack(
    acts: &PackedActivations,
    kh: usize,
    kw: usize,
    params: Conv2dParams,
) -> PackedMatrix {
    let mut m = PackedMatrix::default();
    im2col_pack_into(acts, kh, kw, params, &mut m);
    m
}

/// [`im2col_pack`] into a reusable matrix (scratch-buffer reuse).
///
/// The matrix is re-shaped and cleared; its allocation is reused across
/// layers by the execution engine.
fn im2col_pack_into(
    acts: &PackedActivations,
    kh: usize,
    kw: usize,
    params: Conv2dParams,
    m: &mut PackedMatrix,
) {
    let (n, c, h, w) = (acts.batch(), acts.channels(), acts.height(), acts.width());
    let oh = params.out_dim(h, kh);
    let ow = params.out_dim(w, kw);
    let rows = n * oh * ow;
    m.reset(rows, kh * kw * c);
    let lanes = m.lanes();
    im2col_rows(
        acts,
        kh,
        kw,
        params,
        0,
        &mut m.words_mut()[..rows * lanes],
        lanes,
    );
}

/// Build a contiguous band of im2col rows starting at `row_start` into
/// `out` (`lanes` words per row; the row count is `out.len() / lanes`).
///
/// Each in-bounds kernel position is copied with one word-level bit blit
/// ([`or_bits`]) of all `C` channel bits instead of per-bit sets; padding
/// positions stay zero (`-1` values).
fn im2col_rows(
    acts: &PackedActivations,
    kh: usize,
    kw: usize,
    params: Conv2dParams,
    row_start: usize,
    out: &mut [u64],
    lanes: usize,
) {
    let (c, h, w) = (acts.channels(), acts.height(), acts.width());
    let oh = params.out_dim(h, kh);
    let ow = params.out_dim(w, kw);
    debug_assert_eq!(out.len() % lanes.max(1), 0);
    for (r, row) in out.chunks_mut(lanes).enumerate() {
        let global = row_start + r;
        let ox = global % ow;
        let oy = (global / ow) % oh;
        let img = global / (ow * oh);
        for ky in 0..kh {
            let iy = (oy * params.stride + ky) as isize - params.pad as isize;
            if iy < 0 || iy >= h as isize {
                continue;
            }
            for kx in 0..kw {
                let ix = (ox * params.stride + kx) as isize - params.pad as isize;
                if ix < 0 || ix >= w as isize {
                    continue;
                }
                let p = ky * kw + kx;
                let px = acts.pixel_lanes(img, iy as usize, ix as usize);
                or_bits(row, p * c, px, c);
            }
        }
    }
}

/// Flatten a binary kernel `[K, C, KH, KW]` into a packed matrix with one
/// row per filter and `KH*KW*C` position-major columns.
pub fn im2col_kernel(weights: &BitTensor) -> PackedMatrix {
    assert_eq!(weights.shape().len(), 4, "kernel must be 4-D");
    im2col_kernel_packed(&PackedKernel::pack(weights).expect("kernel must be 4-D"))
}

/// [`im2col_kernel`] starting from an already channel-packed kernel: each
/// position's channel lanes, read from the kernel's de-interleaved copy
/// ([`PackedKernel::filter_rows`]), are blitted into the row with
/// [`or_bits`].
pub fn im2col_kernel_packed(kernel: &PackedKernel) -> PackedMatrix {
    let (k, c, lanes) = (kernel.filters(), kernel.channels(), kernel.lanes());
    let positions = kernel.kh() * kernel.kw();
    let rows = kernel.filter_rows();
    let mut m = PackedMatrix::zeros(k, positions * c);
    for (f, src) in rows.chunks_exact(positions * lanes).enumerate() {
        let row = m.row_mut(f);
        for (p, lanes) in src.chunks_exact(lanes).enumerate() {
            or_bits(row, p * c, lanes, c);
        }
    }
    m
}

/// Binary convolution via im2col + GEMM.
///
/// Produces the same `[N, K, OH, OW]` tensor as
/// [`crate::ops::conv::conv2d_binary`].
///
/// # Errors
///
/// Propagates GEMM dimension errors (cannot occur for consistent inputs).
pub fn conv2d_im2col(
    acts: &PackedActivations,
    weights: &BitTensor,
    params: Conv2dParams,
) -> Result<Tensor> {
    let shape = weights.shape();
    let (kf, kh, kw) = (shape[0], shape[2], shape[3]);
    let (n, h, w) = (acts.batch(), acts.height(), acts.width());
    let oh = params.out_dim(h, kh);
    let ow = params.out_dim(w, kw);
    let a = im2col_pack(acts, kh, kw, params);
    let b = im2col_kernel(weights);
    let flat = gemm_binary(&a, &b)?; // [n*oh*ow, kf]
    let mut out = Tensor::zeros(&[n, kf, oh, ow]);
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (img * oh + oy) * ow + ox;
                for k in 0..kf {
                    out.set4(img, k, oy, ox, flat[row * kf + k] as f32);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv::conv2d_binary;
    use crate::pack::PackedKernel;
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
    fn im2col_row_width_includes_padding() {
        let a = PackedActivations::pack(&BitTensor::zeros(&[1, 5, 3, 3])).unwrap();
        let m = im2col_pack(&a, 3, 3, Conv2dParams { stride: 1, pad: 1 });
        assert_eq!(m.rows(), 9);
        assert_eq!(m.cols(), 45);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]

        #[test]
        fn im2col_agrees_with_direct_conv(
            c in 1usize..70,
            h in 3usize..6,
            w in 3usize..6,
            kf in 1usize..3,
            stride in 1usize..3,
            pad in 0usize..2,
            seed in any::<u64>()
        ) {
            let a = random_bits(&[1, c, h, w], seed);
            let wk = random_bits(&[kf, c, 3, 3], !seed);
            let pa = PackedActivations::pack(&a).unwrap();
            let pk = PackedKernel::pack(&wk).unwrap();
            let params = Conv2dParams { stride, pad };
            let direct = conv2d_binary(&pa, &pk, params).unwrap();
            let lowered = conv2d_im2col(&pa, &wk, params).unwrap();
            prop_assert_eq!(direct.shape(), lowered.shape());
            for (d, l) in direct.data().iter().zip(lowered.data()) {
                prop_assert_eq!(*d, *l);
            }
        }
    }
}
