//! 8-bit quantized layers for the network's full-precision ends.
//!
//! ReActNet's input convolution and output fully-connected layer are not
//! binarized; the paper quantizes both to 8 bits (Sec. II-B, Table I rows
//! "Input Layer" / "Output Layer"). We implement symmetric quantization:
//! weights are `i8` with one per-tensor `f32` scale fixed at
//! construction, inputs are quantized on the fly with one scale *per
//! sample* (per dim-0 row), accumulation is `i32`, and the result is
//! rescaled to `f32`.
//!
//! Both layers run on the int8 kernel in [`crate::ops::int8`]. Their
//! weights are stored once, in that kernel's packed layout
//! ([`Int8Weights`]: 16-column panels of 4-deep K groups, K padded to a
//! multiple of 4, with each output's weight sum beside them), quantized
//! at construction by the same SIMD quantizer that quantizes inputs:
//!
//! * the classifier ([`QuantLinear::forward_2d_with`]) quantizes each
//!   row of its `[N, in]` input and runs one GEMM with the rows as `M`
//!   (weight-stationary over a stacked batch) and the outputs as `N`;
//! * the stem ([`QuantConv2d::forward_fast_with`]) quantizes each image,
//!   lays it out pixel-major (`[H][W][C]`; already so when the input is
//!   an activation of the fused plan), lowers it by im2col to one row of
//!   `KH·KW·C` taps per output pixel — taps ordered `(ky, kx, c)`, so
//!   each kernel row is one contiguous `KW·C`-byte copy — and runs the
//!   GEMM with the pixels as `M` and the filters as `N`. Its
//!   `[pixel][filter]` result dequantizes straight into the plan's
//!   pixel-major `[N, OH, OW, K]` activations.
//!
//! The scalar oracle's paths — [`QuantLinear::forward_2d`] and
//! [`QuantConv2d`]'s [`Layer::forward`] — stay naive loops of their own
//! over the scalar [`quantize_symmetric`]; they only read the weights
//! back through [`Int8Weights::get`], so bit-exact tests of the executor
//! check the kernel instead of sharing it.
//!
//! The per-sample activation scale makes every sample's output depend
//! only on that sample — batch composition never changes a result. The
//! batched executors rely on this: stacking K single-image requests into
//! one `[K, C, H, W]` forward (the weight-stationary batch schedule, the
//! serving daemon's coalesced batches) is bit-exact with K separate
//! forwards.

use crate::layers::Layer;
use crate::ops::conv::Conv2dParams;
use crate::ops::int8::{self, Int8Weights};
use crate::tensor::Tensor;

/// Symmetric 8-bit quantizer: returns `(q, scale)` with
/// `scale = max_abs / 127` (1.0 for an all-zero input) and
/// `q = round(x / scale)` clamped to `[-127, 127]`.
///
/// The scalar oracle's quantizer; [`crate::ops::int8::quantize_into`] is
/// the kernels' bit-identical SIMD version.
pub fn quantize_symmetric(data: &[f32]) -> (Vec<i8>, f32) {
    let max_abs = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = if max_abs == 0.0 { 1.0 } else { max_abs / 127.0 };
    let q = data
        .iter()
        .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
        .collect();
    (q, scale)
}

/// Reusable buffers for the quantized layers' forward passes. Owned by
/// [`crate::engine::Scratch`] so steady-state inference through the graph
/// executor performs no per-forward allocation in the 8-bit ends.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    /// The stem's quantized input image, pixel-major `[H][W][C]`.
    pub(crate) hwc: Vec<i8>,
    /// The GEMM's `A` rows: the classifier's quantized input rows, or the
    /// stem's im2col matrix.
    pub(crate) a: Vec<i8>,
    /// The GEMM's `i32` output `C`.
    pub(crate) acc: Vec<i32>,
    /// The classifier's per-row activation scales.
    pub(crate) scales: Vec<f32>,
}

/// Dequantize a single value.
#[inline]
fn dequantize(q: i32, scale: f32) -> f32 {
    q as f32 * scale
}

/// 8-bit quantized 2-D convolution (the network's input layer).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantConv2d {
    /// `[K = KH·KW·C][N = filters]`, packed for the int8 GEMM, with the
    /// taps in `(ky, kx, c)` order.
    weights: Int8Weights,
    w_scale: f32,
    filters: usize,
    channels: usize,
    kh: usize,
    kw: usize,
    params: Conv2dParams,
}

impl QuantConv2d {
    /// Quantize float weights `[K, C, KH, KW]` to 8 bits and build the layer.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is not 4-D.
    pub fn from_float(weights: &Tensor, params: Conv2dParams) -> Self {
        let shape = weights.shape();
        assert_eq!(shape.len(), 4, "QuantConv2d weights must be 4-D");
        let (kf, c, kh, kw) = (shape[0], shape[1], shape[2], shape[3]);
        // Reorder each filter's taps from `(c, ky, kx)` to `(ky, kx, c)`;
        // the per-tensor scale does not depend on the order.
        let taps = c * kh * kw;
        let mut reordered = vec![0.0; kf * taps];
        for (src, dst) in weights
            .data()
            .chunks_exact(taps)
            .zip(reordered.chunks_exact_mut(taps))
        {
            for (i, &v) in src.iter().enumerate() {
                let (ch, pos) = (i / (kh * kw), i % (kh * kw));
                dst[pos * c + ch] = v;
            }
        }
        let (weights, w_scale) = Int8Weights::quantize(&reordered, kf, taps);
        QuantConv2d {
            weights,
            w_scale,
            filters: kf,
            channels: c,
            kh,
            kw,
            params,
        }
    }

    /// Output filter count.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Input channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Kernel spatial size `(kh, kw)`.
    pub fn kernel_size(&self) -> (usize, usize) {
        (self.kh, self.kw)
    }

    /// Convolution hyper-parameters.
    pub fn params(&self) -> Conv2dParams {
        self.params
    }

    #[inline]
    fn w_at(&self, k: usize, c: usize, y: usize, x: usize) -> i32 {
        self.weights.get(k, (y * self.kw + x) * self.channels + c) as i32
    }

    /// The executor's forward pass over an NCHW `[N, C, H, W]` input
    /// (the graph input), into reusable scratch and a pixel-major
    /// `[N, OH, OW, K]` output (no per-forward allocation once they are
    /// warm): per image, quantize, lower by im2col, and run the int8 GEMM
    /// (see the module docs). Integer accumulation is exact, so the result
    /// is bit-exact with the oracle's [`Layer::forward`], transposed.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D with the layer's channel count.
    pub fn forward_fast_with(&self, input: &Tensor, scratch: &mut QuantScratch, out: &mut Tensor) {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "QuantConv2d expects 4-D input");
        assert_eq!(shape[1], self.channels, "channel mismatch in QuantConv2d");
        self.forward_rows(input, (shape[0], shape[2], shape[3]), false, scratch, out);
    }

    /// [`Self::forward_fast_with`] over a pixel-major `[N, H, W, C]`
    /// input (an activation of the fused plan): the quantized image
    /// already is the im2col's `[H][W][C]` source.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D with the layer's channel count last.
    pub(crate) fn forward_nhwc_with(
        &self,
        input: &Tensor,
        scratch: &mut QuantScratch,
        out: &mut Tensor,
    ) {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "QuantConv2d expects 4-D input");
        assert_eq!(shape[3], self.channels, "channel mismatch in QuantConv2d");
        self.forward_rows(input, (shape[0], shape[1], shape[2]), true, scratch, out);
    }

    /// The body of both executor forwards: `nhwc` says whether each image
    /// of `input` is laid out `[H][W][C]` or `[C][H][W]`.
    fn forward_rows(
        &self,
        input: &Tensor,
        (n, h, w): (usize, usize, usize),
        nhwc: bool,
        scratch: &mut QuantScratch,
        out: &mut Tensor,
    ) {
        let (c, kf) = (self.channels, self.filters);
        let oh = self.params.out_dim(h, self.kh);
        let ow = self.params.out_dim(w, self.kw);
        let (pixels, kp, image) = (oh * ow, self.weights.padded_k(), c * h * w);
        // Every GEMM output cell is dequantized below, so no buffer needs
        // a fill beyond the im2col matrix's per-image reset.
        out.reset_for_overwrite(&[n, oh, ow, kf]);
        let QuantScratch { hwc, a, acc, .. } = scratch;
        hwc.resize(image, 0);
        a.resize(pixels * kp, 0);
        acc.resize(pixels * kf, 0);
        for (img, od) in out
            .data_mut()
            .chunks_exact_mut((pixels * kf).max(1))
            .enumerate()
        {
            // One activation scale per sample (batch-invariant results);
            // the maximum and the rounding do not depend on the order.
            let src = &input.data()[img * image..][..image];
            // Either way the quantized image lands pixel-major, the
            // im2col's source.
            let in_scale = if nhwc {
                int8::quantize_into(src, hwc)
            } else {
                int8::quantize_planes_into(src, c, hwc)
            };
            let out_scale = in_scale * self.w_scale;
            self.im2col(hwc, h, w, a);
            int8::gemm(a, pixels, &self.weights, acc);
            // `[pixel][filter]` is already the output layout.
            for (o, &v) in od.iter_mut().zip(acc.iter()) {
                *o = dequantize(v, out_scale);
            }
        }
    }

    /// Lower one quantized `[H, W, C]` image to the stem GEMM's `A`: row
    /// `oy·OW + ox` holds that output pixel's taps in weight order
    /// (`(ky·KW + kx)·C + ch`), so each kernel row's in-bounds taps are one
    /// contiguous copy. Taps where the window overhangs the padding stay
    /// zero (8-bit layers use conventional zero padding).
    fn im2col(&self, hwc: &[i8], h: usize, w: usize, a: &mut [i8]) {
        let (stride, pad, c) = (self.params.stride, self.params.pad, self.channels);
        let oh = self.params.out_dim(h, self.kh);
        let ow = self.params.out_dim(w, self.kw);
        let kp = self.weights.padded_k();
        a.fill(0);
        for (ox, x0) in (0..ow).map(|ox| (ox, ox * stride)) {
            // The kernel columns whose input column `x0 + kx - pad` exists.
            let kx_lo = pad.saturating_sub(x0).min(self.kw);
            let kx_hi = (w + pad).saturating_sub(x0).min(self.kw);
            if kx_hi <= kx_lo {
                continue;
            }
            let len = (kx_hi - kx_lo) * c;
            for oy in 0..oh {
                let arow = &mut a[(oy * ow + ox) * kp..][..kp];
                for ky in 0..self.kh {
                    let Some(iy) = (oy * stride + ky).checked_sub(pad).filter(|&y| y < h) else {
                        continue;
                    };
                    let src = (iy * w + x0 + kx_lo - pad) * c;
                    copy_taps(
                        &mut arow[(ky * self.kw + kx_lo) * c..][..len],
                        &hwc[src..][..len],
                    );
                }
            }
        }
    }
}

/// `dst.copy_from_slice(src)` for the stem's short kernel rows: a length
/// of 8 to 16 bytes (a 3×3 RGB row is 9) takes two overlapping 8-byte
/// moves instead of a `memcpy` call.
#[inline(always)]
fn copy_taps(dst: &mut [i8], src: &[i8]) {
    let n = src.len();
    if (8..=16).contains(&n) {
        dst[..8].copy_from_slice(&src[..8]);
        dst[n - 8..].copy_from_slice(&src[n - 8..]);
    } else {
        dst.copy_from_slice(src);
    }
}

impl Layer for QuantConv2d {
    fn forward(&self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "QuantConv2d expects 4-D input");
        assert_eq!(shape[1], self.channels, "channel mismatch in QuantConv2d");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let oh = self.params.out_dim(h, self.kh);
        let ow = self.params.out_dim(w, self.kw);
        let mut out = Tensor::zeros(&[n, self.filters, oh, ow]);
        for img in 0..n {
            // One activation scale per sample (batch-invariant results).
            let (input_q, in_scale) =
                quantize_symmetric(&input.data()[img * c * h * w..][..c * h * w]);
            let iq =
                |ch: usize, y: usize, x: usize| -> i32 { input_q[(ch * h + y) * w + x] as i32 };
            let out_scale = in_scale * self.w_scale;
            for k in 0..self.filters {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0i32;
                        for ch in 0..c {
                            for ky in 0..self.kh {
                                for kx in 0..self.kw {
                                    let y = (oy * self.params.stride + ky) as isize
                                        - self.params.pad as isize;
                                    let x = (ox * self.params.stride + kx) as isize
                                        - self.params.pad as isize;
                                    if y >= 0 && y < h as isize && x >= 0 && x < w as isize {
                                        acc += iq(ch, y as usize, x as usize)
                                            * self.w_at(k, ch, ky, kx);
                                    }
                                    // 8-bit layers use conventional zero
                                    // padding (zero is representable here).
                                }
                            }
                        }
                        out.set4(img, k, oy, ox, dequantize(acc, out_scale));
                    }
                }
            }
        }
        out
    }

    fn param_bits(&self) -> usize {
        self.weights.n() * self.weights.k() * 8
    }

    fn describe(&self) -> String {
        format!(
            "QuantConv2d({}x{}, {}->{} ch, 8-bit)",
            self.kh, self.kw, self.channels, self.filters
        )
    }
}

/// 8-bit quantized fully-connected layer (the network's output layer).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantLinear {
    /// `[K = in_features][N = out_features]`, packed for the int8 GEMM.
    weights: Int8Weights,
    w_scale: f32,
    in_features: usize,
    out_features: usize,
}

impl QuantLinear {
    /// Quantize float weights `[out, in]` (row-major) to 8 bits.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != out_features * in_features`.
    pub fn from_float(weights: &[f32], out_features: usize, in_features: usize) -> Self {
        assert_eq!(weights.len(), out_features * in_features);
        let (weights, w_scale) = Int8Weights::quantize(weights, out_features, in_features);
        QuantLinear {
            weights,
            w_scale,
            in_features,
            out_features,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Forward over a flattened `[N, in_features]` tensor, producing
    /// `[N, out_features]`.
    ///
    /// This is the scalar oracle's classifier: a naive loop of its own,
    /// separate from [`Self::forward_2d_with`], so bit-exact tests of the
    /// executor can see a fault in the fast path.
    ///
    /// # Panics
    ///
    /// Panics if the trailing dimension is not `in_features`.
    pub fn forward_2d(&self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 2, "QuantLinear expects a 2-D tensor");
        assert_eq!(
            shape[1], self.in_features,
            "feature mismatch in QuantLinear"
        );
        let n = shape[0];
        let mut out = Tensor::zeros(&[n, self.out_features]);
        for img in 0..n {
            // One activation scale per sample (batch-invariant results).
            let (input_q, in_scale) =
                quantize_symmetric(&input.data()[img * self.in_features..][..self.in_features]);
            let out_scale = in_scale * self.w_scale;
            for o in 0..self.out_features {
                let mut acc = 0i32;
                for (i, &a) in input_q.iter().enumerate() {
                    acc += a as i32 * self.weights.get(o, i) as i32;
                }
                out.data_mut()[img * self.out_features + o] = dequantize(acc, out_scale);
            }
        }
        out
    }

    /// The executor's classifier, into reusable scratch and output
    /// buffers: quantize every row, then one int8 GEMM over all of them
    /// (see the module docs). Bit-exact with [`Self::forward_2d`].
    ///
    /// # Panics
    ///
    /// Panics if the trailing dimension is not `in_features`.
    pub fn forward_2d_with(&self, input: &Tensor, scratch: &mut QuantScratch, out: &mut Tensor) {
        let shape = input.shape();
        assert_eq!(shape.len(), 2, "QuantLinear expects a 2-D tensor");
        assert_eq!(
            shape[1], self.in_features,
            "feature mismatch in QuantLinear"
        );
        let (n, k, o) = (shape[0], self.in_features, self.out_features);
        let kp = self.weights.padded_k();
        out.reset_for_overwrite(&[n, o]);
        let QuantScratch { a, acc, scales, .. } = scratch;
        a.resize(n * kp, 0);
        acc.resize(n * o, 0);
        scales.resize(n, 0.0);
        for (img, scale) in scales.iter_mut().enumerate() {
            // One activation scale per sample (batch-invariant results);
            // the row's pad bytes meet zero weights.
            *scale = int8::quantize_into(&input.data()[img * k..][..k], &mut a[img * kp..][..k]);
        }
        int8::gemm(a, n, &self.weights, acc);
        for (img, &scale) in scales.iter().enumerate() {
            let out_scale = scale * self.w_scale;
            let orow = &mut out.data_mut()[img * o..][..o];
            for (y, &v) in orow.iter_mut().zip(&acc[img * o..][..o]) {
                *y = dequantize(v, out_scale);
            }
        }
    }
}

impl Layer for QuantLinear {
    fn forward(&self, input: &Tensor) -> Tensor {
        self.forward_2d(input)
    }

    fn param_bits(&self) -> usize {
        self.weights.n() * self.weights.k() * 8
    }

    fn describe(&self) -> String {
        format!(
            "QuantLinear({}->{}, 8-bit)",
            self.in_features, self.out_features
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_roundtrip_accuracy() {
        let data = vec![-1.0, -0.5, 0.0, 0.25, 1.0];
        let (q, s) = quantize_symmetric(&data);
        for (&orig, &qi) in data.iter().zip(&q) {
            let back = dequantize(qi as i32, s);
            assert!((orig - back).abs() <= s, "{orig} -> {back} (scale {s})");
        }
    }

    #[test]
    fn quantize_all_zero_is_safe() {
        let (q, s) = quantize_symmetric(&[0.0; 4]);
        assert_eq!(q, vec![0i8; 4]);
        assert!(s > 0.0);
    }

    #[test]
    fn linear_matches_float_within_quant_error() {
        let w = vec![1.0, 2.0, -1.0, 0.5, -0.25, 0.0]; // [2 out, 3 in]
        let lin = QuantLinear::from_float(&w, 2, 3);
        let x = Tensor::from_vec(&[1, 3], vec![1.0, -1.0, 2.0]).unwrap();
        let out = lin.forward(&x);
        // Float reference: [1*1 + 2*-1 + -1*2, 0.5*1 + -0.25*-1 + 0] = [-3, 0.75]
        assert!((out.data()[0] - -3.0).abs() < 0.1);
        assert!((out.data()[1] - 0.75).abs() < 0.1);
    }

    #[test]
    fn conv_matches_float_within_quant_error() {
        let w = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, -1.0, 0.5, 0.25]).unwrap();
        let conv = QuantConv2d::from_float(&w, Conv2dParams::default());
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, -1.0, 0.5]).unwrap();
        let out = conv.forward(&x);
        // Float: 1*1 + 2*-1 + -1*0.5 + 0.5*0.25 = -1.375.
        assert_eq!(out.shape(), &[1, 1, 1, 1]);
        assert!((out.data()[0] - -1.375).abs() < 0.05, "{}", out.data()[0]);
    }

    #[test]
    fn forward_fast_is_bit_exact_with_forward() {
        use crate::weightgen::random_floats;
        // Integer accumulation commutes, so the im2col + int8 GEMM path
        // must reproduce the oracle's loop exactly across
        // strides/pads/kernels, filter counts on both sides of a panel,
        // and K = C·KH·KW on both sides of a group of 4.
        let (mut scratch, mut fast) = (QuantScratch::default(), Tensor::default());
        let shapes = [
            (3, 3, 1, 1),
            (3, 3, 2, 1),
            (1, 1, 1, 0),
            (2, 2, 2, 0),
            (3, 3, 1, 4),
        ];
        for (kh, kw, stride, pad) in shapes {
            for (kf, c) in [(4usize, 3usize), (17, 3), (5, 1), (6, 5)] {
                let w = Tensor::from_vec(
                    &[kf, c, kh, kw],
                    random_floats(kf * c * kh * kw, 1.0, (kh * 10 + stride + kf) as u64),
                )
                .unwrap();
                let conv = QuantConv2d::from_float(&w, Conv2dParams { stride, pad });
                let x =
                    Tensor::from_vec(&[2, c, 8, 7], random_floats(2 * c * 8 * 7, 1.0, 5)).unwrap();
                let a = conv.forward(&x);
                conv.forward_fast_with(&x, &mut scratch, &mut fast);
                let fast = fast.nhwc_to_nchw();
                assert_eq!(a.shape(), fast.shape());
                assert_eq!(
                    a.data(),
                    fast.data(),
                    "k{kh}x{kw} s{stride} p{pad} f{kf} c{c}"
                );
                // A pixel-major input takes the same arithmetic.
                let mut nhwc = Tensor::default();
                conv.forward_nhwc_with(&x.nchw_to_nhwc(), &mut scratch, &mut nhwc);
                assert_eq!(a.data(), nhwc.nhwc_to_nchw().data(), "nhwc input");
            }
        }
    }

    #[test]
    fn stem_weights_read_back_in_tensor_order() {
        // The packed taps are `(ky, kx, c)`-ordered; `w_at` must still
        // read the oracle the quantized `[K, C, KH, KW]` tensor.
        let (kf, c, kh, kw) = (5, 3, 3, 2);
        let data = crate::weightgen::random_floats(kf * c * kh * kw, 1.0, 77);
        let (want, _) = quantize_symmetric(&data);
        let w = Tensor::from_vec(&[kf, c, kh, kw], data).unwrap();
        let conv = QuantConv2d::from_float(&w, Conv2dParams::default());
        for k in 0..kf {
            for ch in 0..c {
                for y in 0..kh {
                    for x in 0..kw {
                        let i = ((k * c + ch) * kh + y) * kw + x;
                        assert_eq!(
                            conv.w_at(k, ch, y, x),
                            i32::from(want[i]),
                            "({k},{ch},{y},{x})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_composition_never_changes_a_sample() {
        use crate::weightgen::random_floats;
        // The per-sample activation scale makes stacking bit-exact: the
        // stacked batch schedule and the serving daemon both rely on it.
        // Eight samples whose dynamic ranges span six decades.
        const ROWS: usize = 8;
        let ranges = [1.0f32, 40.0, 1e-3, 250.0, 0.5, 1e3, 7.0, 1e-2];
        let samples: Vec<Vec<f32>> = ranges
            .iter()
            .enumerate()
            .map(|(i, &r)| random_floats(75, r, i as u64 + 1))
            .collect();
        let stacked_vals: Vec<f32> = samples.concat();
        let (mut scratch, mut one, mut all) = (
            QuantScratch::default(),
            Tensor::default(),
            Tensor::default(),
        );

        let w = Tensor::from_vec(&[4, 3, 3, 3], random_floats(4 * 3 * 9, 1.0, 21)).unwrap();
        let conv = QuantConv2d::from_float(&w, Conv2dParams { stride: 1, pad: 1 });
        let stacked = Tensor::from_vec(&[ROWS, 3, 5, 5], stacked_vals.clone()).unwrap();
        conv.forward_fast_with(&stacked, &mut scratch, &mut all);
        let per = all.data().len() / ROWS;
        for (i, sample) in samples.iter().enumerate() {
            let x = Tensor::from_vec(&[1, 3, 5, 5], sample.clone()).unwrap();
            conv.forward_fast_with(&x, &mut scratch, &mut one);
            assert_eq!(&all.data()[i * per..][..per], one.data(), "conv sample {i}");
        }
        assert_eq!(conv.forward(&stacked).data(), all.nhwc_to_nchw().data());

        let lw: Vec<f32> = random_floats(2 * 75, 1.0, 3);
        let lin = QuantLinear::from_float(&lw, 2, 75);
        let rows = Tensor::from_vec(&[ROWS, 75], stacked_vals).unwrap();
        lin.forward_2d_with(&rows, &mut scratch, &mut all);
        for (i, sample) in samples.iter().enumerate() {
            let x = Tensor::from_vec(&[1, 75], sample.clone()).unwrap();
            lin.forward_2d_with(&x, &mut scratch, &mut one);
            assert_eq!(&all.data()[i * 2..][..2], one.data(), "linear sample {i}");
            assert_eq!(lin.forward_2d(&x).data(), one.data(), "linear oracle {i}");
        }
        assert_eq!(lin.forward_2d(&rows).data(), all.data());
    }

    #[test]
    fn linear_oracle_is_bit_exact_with_forward_2d_with() {
        use crate::weightgen::random_floats;
        // `forward_2d` is the oracle's own loop; the executor's path must
        // reproduce it exactly, K ragged against every vector width.
        let (mut scratch, mut fast) = (QuantScratch::default(), Tensor::default());
        for k in [1usize, 3, 63, 64, 65, 1024] {
            for n in [1usize, 3] {
                let o = 7;
                let w = random_floats(o * k, 1.0, (k * 10 + n) as u64);
                let lin = QuantLinear::from_float(&w, o, k);
                let x = Tensor::from_vec(&[n, k], random_floats(n * k, 3.0, k as u64)).unwrap();
                let oracle = lin.forward_2d(&x);
                lin.forward_2d_with(&x, &mut scratch, &mut fast);
                assert_eq!(oracle.shape(), fast.shape(), "k={k} n={n}");
                assert_eq!(oracle.data(), fast.data(), "k={k} n={n}");
            }
        }
    }

    #[test]
    fn param_bits_are_8_per_weight() {
        let conv = QuantConv2d::from_float(&Tensor::zeros(&[4, 3, 3, 3]), Conv2dParams::default());
        assert_eq!(conv.param_bits(), 4 * 3 * 9 * 8);
        let lin = QuantLinear::from_float(&[0.0; 10 * 4], 10, 4);
        assert_eq!(lin.param_bits(), 40 * 8);
    }
}
