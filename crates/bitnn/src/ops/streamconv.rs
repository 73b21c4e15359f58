//! Im2col-free streaming direct binary convolution.
//!
//! The im2col lowering wins on raw GEMM throughput but pays for it twice:
//! a `[OH*OW, C*KH*KW]` bit matrix is materialized per conv, and every
//! output pixel re-reads its window out of that copy. The streaming path
//! keeps the channel-packed activation rows *resident* — each input row is
//! packed into lane words exactly once (by the sign stage) — and derives
//! every 3x3 window on the fly from three resident rows: nine lane-word
//! loads, no staging buffer, no blit.
//!
//! Scheduling is *weight-stationary over a filter block*: one work item is
//! an `(img, filter)` output plane, and up to [`FILTER_BLOCK`] consecutive
//! filters of the same image are computed together so each activation word
//! is loaded once and xnor-popcounted against every filter in the block.
//! This is the CPU analogue of the paper's compute units streaming one
//! activation window past a stationary weight set.
//!
//! The kernel covers exactly one geometry class: 3x3 kernels over at most
//! 64 channels (one lane word per pixel — every ReActNet/VGG-small conv up
//! to 64 channels), at any stride and padding. It hoists the nine weight
//! words per filter into locals and runs the interior columns branch-free
//! with full-word popcounts plus a closed-form tail correction. Wider 3x3
//! convs always run im2col (see [`crate::engine::Engine::conv_path`]).
//!
//! AVX2/AVX-512 instantiations are dispatched at runtime (see
//! [`crate::simd`]); the portable body is the oracle.

use crate::ops::conv::Conv2dParams;
use crate::pack::{PackedActivations, PackedKernel};

/// Filters computed together per image: the weight-stationary block width.
/// Four blocks of nine `u64` weight words fit comfortably in registers on
/// x86-64 while quadrupling the reuse of every loaded activation word.
pub(crate) const FILTER_BLOCK: usize = 4;

/// Streaming convolution of a contiguous band of output planes.
///
/// One "item" is an `(img, filter)` pair — a full `OH*OW` output plane —
/// and the band covers items `item_start ..` for `out.len() / (OH*OW)`
/// items, ordered filter-minor (`item = img * KF + filter`), matching the
/// `[N, KF, OH, OW]` output layout. Computing the whole tensor with
/// `item_start = 0` reproduces [`crate::ops::conv::conv2d_binary`] exactly.
/// This is the worker body [`crate::engine::Engine`] hands to each thread
/// with a disjoint slice of the output tensor. Dispatches to AVX-512 or
/// AVX2+popcnt instantiations when the CPU has them.
///
/// Contract: a 3x3 kernel over single-lane activations
/// (`acts.lanes() == 1`, i.e. at most 64 channels).
#[inline]
pub(crate) fn conv2d_stream_items(
    acts: &PackedActivations,
    kernel: &PackedKernel,
    params: Conv2dParams,
    pad_ones: &[u32],
    item_start: usize,
    out: &mut [f32],
) {
    debug_assert!(
        kernel.kh() == 3 && kernel.kw() == 3 && acts.lanes() == 1,
        "streaming conv takes 3x3 kernels over at most 64 channels"
    );
    #[cfg(target_arch = "x86_64")]
    {
        /// AVX-512 instantiation of [`conv2d_stream_items_portable`]: the
        /// xnor-popcount loops compile to hardware `vpopcntq`.
        #[target_feature(enable = "avx512f,avx512bw,avx512vpopcntdq,popcnt")]
        unsafe fn conv2d_stream_items_avx512(
            acts: &PackedActivations,
            kernel: &PackedKernel,
            params: Conv2dParams,
            pad_ones: &[u32],
            item_start: usize,
            out: &mut [f32],
        ) {
            conv2d_stream_items_portable(acts, kernel, params, pad_ones, item_start, out);
        }
        /// AVX2+popcnt instantiation of [`conv2d_stream_items_portable`].
        #[target_feature(enable = "avx2,popcnt")]
        unsafe fn conv2d_stream_items_avx2(
            acts: &PackedActivations,
            kernel: &PackedKernel,
            params: Conv2dParams,
            pad_ones: &[u32],
            item_start: usize,
            out: &mut [f32],
        ) {
            conv2d_stream_items_portable(acts, kernel, params, pad_ones, item_start, out);
        }
        if crate::simd::avx512() {
            // SAFETY: avx512f/bw/vpopcntdq + popcnt were detected at runtime.
            return unsafe {
                conv2d_stream_items_avx512(acts, kernel, params, pad_ones, item_start, out)
            };
        }
        if crate::simd::avx2() {
            // SAFETY: avx2 + popcnt were detected at runtime.
            return unsafe {
                conv2d_stream_items_avx2(acts, kernel, params, pad_ones, item_start, out)
            };
        }
    }
    conv2d_stream_items_portable(acts, kernel, params, pad_ones, item_start, out);
}

/// Portable body of [`conv2d_stream_items`]: walk the band in filter
/// blocks of at most [`FILTER_BLOCK`] filters.
#[inline(always)]
fn conv2d_stream_items_portable(
    acts: &PackedActivations,
    kernel: &PackedKernel,
    params: Conv2dParams,
    pad_ones: &[u32],
    item_start: usize,
    out: &mut [f32],
) {
    let kf = kernel.filters();
    let ohw = params.out_dim(acts.height(), 3) * params.out_dim(acts.width(), 3);
    let items = out.len() / ohw;
    let mut done = 0usize;
    while done < items {
        let global = item_start + done;
        let k0 = global % kf;
        let img = global / kf;
        // A block never crosses an image boundary: consecutive filters of
        // one image share its resident rows.
        let nb = (kf - k0).min(items - done).min(FILTER_BLOCK);
        let band = &mut out[done * ohw..(done + nb) * ohw];
        match nb {
            1 => stream3_block::<1>(acts, kernel, params, pad_ones, img, k0, band),
            2 => stream3_block::<2>(acts, kernel, params, pad_ones, img, k0, band),
            3 => stream3_block::<3>(acts, kernel, params, pad_ones, img, k0, band),
            _ => stream3_block::<4>(acts, kernel, params, pad_ones, img, k0, band),
        }
        done += nb;
    }
}

/// The streaming kernel over a block of `NB` filters.
///
/// The nine weight words per filter are hoisted into locals; per output
/// row the three input-row bounds are resolved once (with the closed-form
/// padding contribution of any out-of-bounds rows), and the interior
/// columns — where all three window columns are in bounds — run branch
/// free: three resident-row loads per row, `3 * NB` xnor-popcounts, and a
/// single tail correction (clean-tail words xnor to spurious agreements in
/// the unused high bits, `3 * rows_in_bounds * tail_bits` of them).
#[inline(always)]
fn stream3_block<const NB: usize>(
    acts: &PackedActivations,
    kernel: &PackedKernel,
    params: Conv2dParams,
    pad_ones: &[u32],
    img: usize,
    k0: usize,
    band: &mut [f32],
) {
    let (c, h, w) = (acts.channels(), acts.height(), acts.width());
    let oh = params.out_dim(h, 3);
    let ow = params.out_dim(w, 3);
    let ohw = oh * ow;
    let total_bits = (9 * c) as i32;
    let tail = ((64 - (c % 64)) % 64) as u32;
    let cmask = if c % 64 == 0 {
        u64::MAX
    } else {
        crate::bitword::mask(c % 64)
    };
    let (stride, pad) = (params.stride, params.pad);
    let words = acts.words();

    let mut wq = [[0u64; 9]; NB];
    for (j, wf) in wq.iter_mut().enumerate() {
        for (p, wp) in wf.iter_mut().enumerate() {
            *wp = kernel.position_lanes(k0 + j, p)[0];
        }
    }

    // Interior column range: every `ox` in `[x_lo, x_hi)` has all three
    // window columns in bounds (`0 <= ox*stride + kx - pad < w`).
    let x_lo = pad.div_ceil(stride).min(ow);
    let x_hi = if w + pad >= 3 {
        (((w + pad - 3) / stride) + 1).min(ow).max(x_lo)
    } else {
        x_lo
    };

    // Bounds-checked single pixel, used for the edge columns where part
    // of the window hangs over the left/right border. Masked popcounts,
    // so no tail correction applies here.
    let edge_pixel = |oy: usize, ox: usize| -> [u32; NB] {
        let mut agree = [0u32; NB];
        for ky in 0..3 {
            let iy = (oy * stride + ky) as isize - pad as isize;
            for kx in 0..3 {
                let ix = (ox * stride + kx) as isize - pad as isize;
                let p = ky * 3 + kx;
                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                    let a = words[(img * h + iy as usize) * w + ix as usize];
                    for (j, acc) in agree.iter_mut().enumerate() {
                        *acc += ((!(a ^ wq[j][p])) & cmask).count_ones();
                    }
                } else {
                    for (j, acc) in agree.iter_mut().enumerate() {
                        *acc += c as u32 - pad_ones[(k0 + j) * 9 + p];
                    }
                }
            }
        }
        agree
    };

    for oy in 0..oh {
        // Resolve the three input rows once per output row.
        let mut inb = [false; 3];
        let mut iy = [0usize; 3];
        let mut rows_in = 0u32;
        let mut row_pad = [0u32; NB];
        for ky in 0..3 {
            let y = (oy * stride + ky) as isize - pad as isize;
            if y >= 0 && (y as usize) < h {
                inb[ky] = true;
                iy[ky] = y as usize;
                rows_in += 1;
            } else {
                for (j, acc) in row_pad.iter_mut().enumerate() {
                    for kx in 0..3 {
                        *acc += c as u32 - pad_ones[(k0 + j) * 9 + ky * 3 + kx];
                    }
                }
            }
        }
        let corr = 3 * rows_in * tail;

        for ox in 0..x_lo {
            let agree = edge_pixel(oy, ox);
            for (j, &acc) in agree.iter().enumerate() {
                band[j * ohw + oy * ow + ox] = (2 * acc as i32 - total_bits) as f32;
            }
        }
        for ox in x_lo..x_hi {
            let ix0 = ox * stride - pad;
            let mut agree = row_pad;
            for ky in 0..3 {
                if !inb[ky] {
                    continue;
                }
                let base = (img * h + iy[ky]) * w + ix0;
                let (a0, a1, a2) = (words[base], words[base + 1], words[base + 2]);
                for (j, acc) in agree.iter_mut().enumerate() {
                    *acc += (!(a0 ^ wq[j][ky * 3])).count_ones()
                        + (!(a1 ^ wq[j][ky * 3 + 1])).count_ones()
                        + (!(a2 ^ wq[j][ky * 3 + 2])).count_ones();
                }
            }
            for (j, &acc) in agree.iter().enumerate() {
                band[j * ohw + oy * ow + ox] = (2 * (acc - corr) as i32 - total_bits) as f32;
            }
        }
        for ox in x_hi..ow {
            let agree = edge_pixel(oy, ox);
            for (j, &acc) in agree.iter().enumerate() {
                band[j * ohw + oy * ow + ox] = (2 * acc as i32 - total_bits) as f32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv::{conv2d_binary, kernel_position_ones};
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

    fn stream_full(
        acts: &PackedActivations,
        kernel: &PackedKernel,
        params: Conv2dParams,
    ) -> crate::tensor::Tensor {
        let oh = params.out_dim(acts.height(), 3);
        let ow = params.out_dim(acts.width(), 3);
        let pad_ones = kernel_position_ones(kernel);
        let mut out = crate::tensor::Tensor::zeros(&[acts.batch(), kernel.filters(), oh, ow]);
        conv2d_stream_items(acts, kernel, params, &pad_ones, 0, out.data_mut());
        out
    }

    fn assert_stream_matches(
        shape_a: &[usize],
        shape_k: &[usize],
        params: Conv2dParams,
        seed: u64,
    ) {
        let a = random_bits(shape_a, seed);
        let k = random_bits(shape_k, seed ^ 0x5EED);
        let pa = PackedActivations::pack(&a).unwrap();
        let pk = PackedKernel::pack(&k).unwrap();
        let expect = conv2d_binary(&pa, &pk, params).unwrap();
        let got = stream_full(&pa, &pk, params);
        assert_eq!(got.shape(), expect.shape());
        assert_eq!(got.data(), expect.data());
    }

    #[test]
    fn matches_oracle_on_gated_shape() {
        // The perfsuite's gated geometry: 28x28, c=64, 64 filters, pad 1.
        assert_stream_matches(
            &[1, 64, 28, 28],
            &[64, 64, 3, 3],
            Conv2dParams { stride: 1, pad: 1 },
            11,
        );
    }

    #[test]
    fn matches_oracle_on_degenerate_rows_and_cols() {
        // 1-row and 1-col inputs only produce output with pad >= 1.
        let p = Conv2dParams { stride: 1, pad: 1 };
        assert_stream_matches(&[2, 5, 1, 9], &[3, 5, 3, 3], p, 21);
        assert_stream_matches(&[2, 5, 9, 1], &[3, 5, 3, 3], p, 22);
        assert_stream_matches(&[1, 64, 1, 1], &[7, 64, 3, 3], p, 23);
    }

    #[test]
    fn matches_oracle_on_stride_two_no_pad() {
        let p = Conv2dParams { stride: 2, pad: 0 };
        assert_stream_matches(&[2, 64, 11, 13], &[9, 64, 3, 3], p, 31);
        assert_stream_matches(&[1, 33, 8, 8], &[5, 33, 3, 3], p, 32);
    }

    #[test]
    fn band_start_mid_tensor_matches_full_run() {
        // The band contract: starting mid-tensor writes the same values
        // the full run puts there (filter block seams land anywhere).
        let a = random_bits(&[3, 40, 6, 7], 77);
        let k = random_bits(&[6, 40, 3, 3], 78);
        let pa = PackedActivations::pack(&a).unwrap();
        let pk = PackedKernel::pack(&k).unwrap();
        let params = Conv2dParams { stride: 1, pad: 1 };
        let full = stream_full(&pa, &pk, params);
        let ohw = 6 * 7;
        let pad_ones = kernel_position_ones(&pk);
        for start in [1usize, 5, 7, 11, 17] {
            let items = 3 * 6 - start;
            let mut band = vec![0f32; items * ohw];
            conv2d_stream_items(&pa, &pk, params, &pad_ones, start, &mut band);
            assert_eq!(&band[..], &full.data()[start * ohw..], "start={start}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The kernel's whole contract: 3x3 over 1..=64 channels, any
        /// stride, pad, batch and filter-block remainder.
        #[test]
        fn stream_matches_scalar_oracle(
            c in 1usize..=64,
            h in 1usize..8,
            w in 1usize..8,
            n in 1usize..3,
            kf in 1usize..7,
            stride in 1usize..3,
            pad in 0usize..2,
            seed in any::<u64>()
        ) {
            // Keep the geometry valid: the padded input must cover the kernel.
            prop_assume!(h + 2 * pad >= 3 && w + 2 * pad >= 3);
            let a = random_bits(&[n, c, h, w], seed);
            let k = random_bits(&[kf, c, 3, 3], seed ^ 0xF00D);
            let pa = PackedActivations::pack(&a).unwrap();
            let pk = PackedKernel::pack(&k).unwrap();
            let params = Conv2dParams { stride, pad };
            let expect = conv2d_binary(&pa, &pk, params).unwrap();
            let got = stream_full(&pa, &pk, params);
            prop_assert_eq!(got.shape(), expect.shape());
            prop_assert_eq!(got.data(), expect.data());
        }
    }
}
