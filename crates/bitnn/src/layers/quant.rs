//! 8-bit quantized layers for the network's full-precision ends.
//!
//! ReActNet's input convolution and output fully-connected layer are not
//! binarized; the paper quantizes both to 8 bits (Sec. II-B, Table I rows
//! "Input Layer" / "Output Layer"). We implement symmetric quantization:
//! weights are stored as `i8` with one per-tensor `f32` scale fixed at
//! construction, inputs are quantized on the fly with one scale *per
//! sample* (per dim-0 row), accumulation is `i32`, and the result is
//! rescaled to `f32`.
//!
//! The per-sample activation scale makes every sample's output depend
//! only on that sample — batch composition never changes a result. The
//! batched executors rely on this: stacking K single-image requests into
//! one `[K, C, H, W]` forward (the weight-stationary batch schedule, the
//! serving daemon's coalesced batches) is bit-exact with K separate
//! forwards.

use crate::layers::Layer;
use crate::ops::conv::Conv2dParams;
use crate::tensor::Tensor;

/// Symmetric 8-bit quantizer: returns `(q, scale)` with
/// `q = round(x / scale)` clamped to `[-127, 127]`.
///
/// `inline(always)` so the ISA-dispatched forward passes get a
/// vectorizable instantiation (max-reduction and round/clamp both map to
/// vector ops under AVX).
#[inline(always)]
pub fn quantize_symmetric(data: &[f32]) -> (Vec<i8>, f32) {
    let mut q = Vec::new();
    let scale = quantize_symmetric_into(data, &mut q);
    (q, scale)
}

/// [`quantize_symmetric`] into a reusable buffer (the arena-reuse forward
/// paths), returning the scale. Bit-exact with the allocating variant.
#[inline(always)]
pub fn quantize_symmetric_into(data: &[f32], q: &mut Vec<i8>) -> f32 {
    let max_abs = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = if max_abs == 0.0 { 1.0 } else { max_abs / 127.0 };
    q.clear();
    q.extend(
        data.iter()
            .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8),
    );
    scale
}

/// Reusable buffers for the quantized layers' forward passes: the
/// quantized-input staging buffer and the pixel-major accumulator. Owned
/// by [`crate::engine::Scratch`] so steady-state inference through the
/// graph executor performs no per-forward allocation in the 8-bit ends.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    /// Quantized input values.
    pub(crate) q: Vec<i8>,
    /// Pixel-major `[OH*OW, KF]` integer accumulator (stem conv only).
    pub(crate) acc: Vec<i32>,
}

/// Dequantize a single value.
#[inline]
pub fn dequantize(q: i32, scale: f32) -> f32 {
    q as f32 * scale
}

/// 8-bit quantized 2-D convolution (the network's input layer).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantConv2d {
    weights_q: Vec<i8>,
    /// Tap-major transposed weights `wt[(ch*kh + ky)*kw + kx][k]`, cached
    /// at construction for [`Self::forward_fast`]'s filter-inner loop.
    weights_t: Vec<i32>,
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
        let (q, w_scale) = quantize_symmetric(weights.data());
        let (kf, c, kh, kw) = (shape[0], shape[1], shape[2], shape[3]);
        let mut weights_t = vec![0i32; kf * c * kh * kw];
        for k in 0..kf {
            for ch in 0..c {
                for ky in 0..kh {
                    for kx in 0..kw {
                        weights_t[(((ch * kh) + ky) * kw + kx) * kf + k] =
                            q[((k * c + ch) * kh + ky) * kw + kx] as i32;
                    }
                }
            }
        }
        QuantConv2d {
            weights_q: q,
            weights_t,
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
        self.weights_q[((k * self.channels + c) * self.kh + y) * self.kw + x] as i32
    }

    /// Forward pass with the accumulation restructured for speed: the
    /// accumulator is laid out pixel-major with the *filter* index
    /// innermost, so each kernel tap broadcasts one input sample against
    /// all filters in a contiguous (vectorizable) run, and the valid
    /// output range per tap is precomputed so the inner loops carry no
    /// bounds branch. Integer accumulation is associative, so the result
    /// is bit-exact with [`Layer::forward`]; the engine's forward path
    /// uses this variant while the trait method stays the scalar seed
    /// baseline. Dispatches to an AVX2 instantiation when available.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D with the layer's channel count.
    pub fn forward_fast(&self, input: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.forward_fast_with(input, &mut QuantScratch::default(), &mut out);
        out
    }

    /// [`Self::forward_fast`] into reusable scratch and output buffers
    /// (the graph executor's arena path): no per-forward allocation once
    /// the buffers are warm. Bit-exact with [`Self::forward_fast`].
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D with the layer's channel count.
    pub fn forward_fast_with(&self, input: &Tensor, scratch: &mut QuantScratch, out: &mut Tensor) {
        #[cfg(target_arch = "x86_64")]
        {
            /// AVX2 instantiation of [`QuantConv2d::forward_fast_impl`].
            #[target_feature(enable = "avx2,popcnt")]
            unsafe fn fast_avx2(
                layer: &QuantConv2d,
                input: &Tensor,
                scratch: &mut QuantScratch,
                out: &mut Tensor,
            ) {
                layer.forward_fast_impl(input, scratch, out);
            }
            if crate::simd::avx2() {
                // SAFETY: avx2 + popcnt were detected at runtime.
                return unsafe { fast_avx2(self, input, scratch, out) };
            }
        }
        self.forward_fast_impl(input, scratch, out)
    }

    /// Portable body of [`Self::forward_fast_with`].
    #[inline(always)]
    fn forward_fast_impl(&self, input: &Tensor, scratch: &mut QuantScratch, out: &mut Tensor) {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "QuantConv2d expects 4-D input");
        assert_eq!(shape[1], self.channels, "channel mismatch in QuantConv2d");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (stride, pad) = (self.params.stride, self.params.pad);
        let kf = self.filters;
        let oh = self.params.out_dim(h, self.kh);
        let ow = self.params.out_dim(w, self.kw);
        let wt = &self.weights_t; // tap-major, cached at construction
                                  // Every (filter, pixel) accumulator cell is dequantized below, so
                                  // neither buffer needs a zero-fill beyond the per-image reset.
        out.reset_for_overwrite(&[n, kf, oh, ow]);
        if scratch.acc.len() != oh * ow * kf {
            scratch.acc.clear();
            scratch.acc.resize(oh * ow * kf, 0);
        }
        let QuantScratch { q, acc } = scratch;
        // Valid output index range for kernel tap offset `t` along an axis
        // of input extent `extent` and output extent `out_extent`: exactly
        // the `o` with `0 <= o*stride + t - pad < extent`.
        let valid = |t: usize, extent: usize, out_extent: usize| -> (usize, usize) {
            let lo = if t >= pad {
                0
            } else {
                (pad - t).div_ceil(stride)
            };
            let hi = if extent + pad > t {
                ((extent - 1 + pad - t) / stride + 1).min(out_extent)
            } else {
                0
            };
            (lo.min(hi), hi)
        };
        for img in 0..n {
            // One activation scale per sample (batch-invariant results).
            let in_scale =
                quantize_symmetric_into(&input.data()[img * c * h * w..][..c * h * w], q);
            let out_scale = in_scale * self.w_scale;
            acc.fill(0);
            for ch in 0..c {
                let plane = &q[ch * h * w..][..h * w];
                for ky in 0..self.kh {
                    let (oy_lo, oy_hi) = valid(ky, h, oh);
                    for kx in 0..self.kw {
                        let wrow = &wt[(((ch * self.kh) + ky) * self.kw + kx) * kf..][..kf];
                        let (ox_lo, ox_hi) = valid(kx, w, ow);
                        for oy in oy_lo..oy_hi {
                            let iy = oy * stride + ky - pad;
                            let irow = &plane[iy * w..][..w];
                            for ox in ox_lo..ox_hi {
                                let v = irow[ox * stride + kx - pad] as i32;
                                let arow = &mut acc[(oy * ow + ox) * kf..][..kf];
                                for (a, &wv) in arow.iter_mut().zip(wrow) {
                                    *a += v * wv;
                                }
                            }
                        }
                    }
                }
            }
            // Dequantize, transposing [pixel][filter] to NCHW.
            let od = &mut out.data_mut()[img * kf * oh * ow..][..kf * oh * ow];
            for pix in 0..oh * ow {
                let arow = &acc[pix * kf..][..kf];
                for (k, &a) in arow.iter().enumerate() {
                    od[k * oh * ow + pix] = dequantize(a, out_scale);
                }
            }
        }
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
        self.weights_q.len() * 8
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
    weights_q: Vec<i8>,
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
        let (q, w_scale) = quantize_symmetric(weights);
        QuantLinear {
            weights_q: q,
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
                let w_row = &self.weights_q[o * self.in_features..][..self.in_features];
                let mut acc = 0i32;
                for (&a, &w) in input_q.iter().zip(w_row) {
                    acc += a as i32 * w as i32;
                }
                out.data_mut()[img * self.out_features + o] = dequantize(acc, out_scale);
            }
        }
        out
    }

    /// [`Self::forward_2d`] into reusable scratch and output buffers (the
    /// graph executor's arena path). Bit-exact with [`Self::forward_2d`].
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
        let n = shape[0];
        out.reset_for_overwrite(&[n, self.out_features]);
        for img in 0..n {
            // One activation scale per sample (batch-invariant results).
            let row = &input.data()[img * self.in_features..][..self.in_features];
            let in_scale = quantize_symmetric_into(row, &mut scratch.q);
            let input_q = &scratch.q;
            let out_scale = in_scale * self.w_scale;
            for o in 0..self.out_features {
                let w_row = &self.weights_q[o * self.in_features..][..self.in_features];
                let acc: i32 = input_q
                    .iter()
                    .zip(w_row)
                    .map(|(&a, &w)| a as i32 * w as i32)
                    .sum();
                out.data_mut()[img * self.out_features + o] = dequantize(acc, out_scale);
            }
        }
    }
}

impl Layer for QuantLinear {
    fn forward(&self, input: &Tensor) -> Tensor {
        self.forward_2d(input)
    }

    fn param_bits(&self) -> usize {
        self.weights_q.len() * 8
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
        // Integer accumulation commutes, so the restructured loop must
        // reproduce the scalar path exactly across strides/pads/kernels.
        for (kh, kw, stride, pad) in [(3, 3, 1, 1), (3, 3, 2, 1), (1, 1, 1, 0), (2, 2, 2, 0)] {
            let w = Tensor::from_vec(
                &[4, 3, kh, kw],
                random_floats(4 * 3 * kh * kw, 1.0, (kh * 10 + stride) as u64),
            )
            .unwrap();
            let conv = QuantConv2d::from_float(&w, Conv2dParams { stride, pad });
            let x = Tensor::from_vec(&[2, 3, 8, 7], random_floats(2 * 3 * 8 * 7, 1.0, 5)).unwrap();
            let a = conv.forward(&x);
            let b = conv.forward_fast(&x);
            assert_eq!(a.shape(), b.shape());
            assert_eq!(a.data(), b.data(), "k{kh}x{kw} s{stride} p{pad}");
        }
    }

    #[test]
    fn batch_composition_never_changes_a_sample() {
        use crate::weightgen::random_floats;
        // The per-sample activation scale makes stacking bit-exact: the
        // stacked batch schedule and the serving daemon both rely on it.
        let w = Tensor::from_vec(&[4, 3, 3, 3], random_floats(4 * 3 * 9, 1.0, 21)).unwrap();
        let conv = QuantConv2d::from_float(&w, Conv2dParams { stride: 1, pad: 1 });
        let a = Tensor::from_vec(&[1, 3, 5, 5], random_floats(75, 1.0, 1)).unwrap();
        // A second sample with a very different dynamic range.
        let b = Tensor::from_vec(&[1, 3, 5, 5], random_floats(75, 40.0, 2)).unwrap();
        let mut stacked_vals = a.data().to_vec();
        stacked_vals.extend_from_slice(b.data());
        let stacked = Tensor::from_vec(&[2, 3, 5, 5], stacked_vals).unwrap();
        let ya = conv.forward_fast(&a);
        let yb = conv.forward_fast(&b);
        let ys = conv.forward_fast(&stacked);
        assert_eq!(&ys.data()[..ya.data().len()], ya.data());
        assert_eq!(&ys.data()[ya.data().len()..], yb.data());
        assert_eq!(conv.forward(&stacked).data(), ys.data());

        let lw: Vec<f32> = random_floats(2 * 75, 1.0, 3);
        let lin = QuantLinear::from_float(&lw, 2, 75);
        let ra = Tensor::from_vec(&[1, 75], a.data().to_vec()).unwrap();
        let rb = Tensor::from_vec(&[1, 75], b.data().to_vec()).unwrap();
        let rs = Tensor::from_vec(&[2, 75], stacked.data().to_vec()).unwrap();
        let la = lin.forward_2d(&ra);
        let lb = lin.forward_2d(&rb);
        let ls = lin.forward_2d(&rs);
        assert_eq!(&ls.data()[..2], la.data());
        assert_eq!(&ls.data()[2..], lb.data());
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
