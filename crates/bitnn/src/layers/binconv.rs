//! Binary convolution layer (the paper's "1-bit 3×3 Conv" / "1-bit 1×1
//! Conv" stages).
//!
//! The layer holds its kernel in the one form the executor runs,
//! channel-packed lane words already in the binary GEMM's panel layout
//! ([`PackedKernel`]), from construction on. Container deploys decode
//! straight into it and the synthetic 1×1 layers of a built-in graph are
//! drawn straight into it ([`crate::weightgen::random_packed_kernel`]);
//! seed-sampled layers pack their flat weights once, at construction.
//! Only the flat view is lazy: it is cold, and only compression reads it.

use crate::layers::sign::RSign;
use crate::layers::Layer;
use crate::ops::conv::{conv2d_binary, Conv2dParams};
use crate::pack::{PackedActivations, PackedKernel};
use crate::tensor::{BitTensor, Tensor};
use std::sync::OnceLock;

/// A 1-bit convolution: binarize input (plain sign), run xnor-popcount conv.
///
/// The packed kernel is built at construction; the flat `[K, C, KH, KW]`
/// tensor is kept when the layer was built from it ([`Self::new`]) and
/// otherwise unpacked on first use, so a packed-deployed layer never
/// builds it.
#[derive(Debug, Clone)]
pub struct BinConv2d {
    params: Conv2dParams,
    /// Flat `[K, C, KH, KW]` bits (cold paths: harvest, serialization).
    weights: OnceLock<BitTensor>,
    /// Channel-packed lane words in the GEMM's panel layout.
    packed: PackedKernel,
}

impl PartialEq for BinConv2d {
    fn eq(&self, other: &Self) -> bool {
        // The packed form determines the weights bijectively; the flat
        // view carries no extra information.
        self.params == other.params && self.packed == other.packed
    }
}

impl Eq for BinConv2d {}

impl BinConv2d {
    /// Build from binary weights `[K, C, KH, KW]`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is not 4-D.
    pub fn new(weights: BitTensor, params: Conv2dParams) -> Self {
        assert_eq!(weights.shape().len(), 4, "weights must be 4-D");
        BinConv2d {
            params,
            packed: PackedKernel::pack(&weights).expect("4-D weights"),
            weights: OnceLock::from(weights),
        }
    }

    /// Build from an already channel-packed kernel — the
    /// compressed-container deployment path: the stream decoder emits
    /// packed lane words and no flat `[K, C, KH, KW]` tensor ever exists.
    pub fn from_packed(packed: PackedKernel, params: Conv2dParams) -> Self {
        BinConv2d {
            params,
            weights: OnceLock::new(),
            packed,
        }
    }

    /// The flat binary weights (unpacked from the packed form on first
    /// use when the layer was deployed without them).
    pub fn weights(&self) -> &BitTensor {
        self.weights.get_or_init(|| self.packed.unpack())
    }

    /// The channel-packed kernel [`crate::engine::Engine::conv2d`] reads.
    pub fn packed(&self) -> &PackedKernel {
        &self.packed
    }

    /// Whether the flat `[K, C, KH, KW]` tensor has been materialized.
    /// Deployment tests assert it stays cold on the packed path.
    pub fn has_dense_weights(&self) -> bool {
        self.weights.get().is_some()
    }

    /// Convolution hyper-parameters.
    pub fn params(&self) -> Conv2dParams {
        self.params
    }

    /// Output filter count.
    pub fn filters(&self) -> usize {
        self.packed.filters()
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.packed.channels()
    }

    /// Kernel spatial size `(kh, kw)`.
    pub fn kernel_size(&self) -> (usize, usize) {
        (self.packed.kh(), self.packed.kw())
    }

    /// `[K, C, KH, KW]`.
    fn shape(&self) -> [usize; 4] {
        let (kh, kw) = self.kernel_size();
        [self.filters(), self.in_channels(), kh, kw]
    }

    /// Replace the weights (used by the compression pipeline after
    /// clustering substitutes bit sequences).
    ///
    /// # Panics
    ///
    /// Panics if the new weights' shape differs from the old.
    pub fn set_weights(&mut self, weights: BitTensor) {
        assert_eq!(
            weights.shape(),
            self.shape(),
            "replacement weights must keep the shape"
        );
        *self = Self::new(weights, self.params);
    }

    /// Replace the weights with an already channel-packed kernel (the
    /// compressed-container deployment path) — no flat tensor is built.
    ///
    /// # Panics
    ///
    /// Panics if the packed kernel's geometry differs from the old.
    pub fn set_packed(&mut self, packed: PackedKernel) {
        assert_eq!(
            [
                packed.filters(),
                packed.channels(),
                packed.kh(),
                packed.kw()
            ],
            self.shape(),
            "replacement packed kernel must keep the geometry"
        );
        *self = Self::from_packed(packed, self.params);
    }

    /// Forward over an already-binarized, already-packed input (the seed's
    /// scalar path, kept as the perf-tracking baseline).
    pub fn forward_packed(&self, acts: &PackedActivations) -> Tensor {
        conv2d_binary(acts, &self.packed, self.params).expect("channel counts validated at build")
    }
}

impl Layer for BinConv2d {
    fn forward(&self, input: &Tensor) -> Tensor {
        let bits = RSign::zero(self.in_channels()).binarize(input);
        let packed = PackedActivations::pack(&bits).expect("4-D input");
        self.forward_packed(&packed)
    }

    fn param_bits(&self) -> usize {
        // One bit per weight (the point of a BNN).
        self.shape().iter().product()
    }

    fn describe(&self) -> String {
        let [filters, channels, kh, kw] = self.shape();
        format!(
            "BinConv2d({kh}x{kw}, {channels}->{filters} ch, stride {}, pad {})",
            self.params.stride, self.params.pad
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ConvScratch, Engine};

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
    fn forward_shape() {
        let w = random_bits(&[8, 16, 3, 3], 1);
        let conv = BinConv2d::new(w, Conv2dParams { stride: 2, pad: 1 });
        let input = Tensor::full(&[1, 16, 8, 8], 1.0);
        let out = conv.forward(&input);
        assert_eq!(out.shape(), &[1, 8, 4, 4]);
    }

    #[test]
    fn param_bits_is_one_per_weight() {
        let w = BitTensor::zeros(&[8, 16, 3, 3]);
        let conv = BinConv2d::new(w, Conv2dParams::default());
        assert_eq!(conv.param_bits(), 8 * 16 * 9);
    }

    #[test]
    fn set_weights_repacks() {
        let w0 = BitTensor::zeros(&[1, 4, 3, 3]);
        let mut conv = BinConv2d::new(w0, Conv2dParams::default());
        let input = Tensor::full(&[1, 4, 3, 3], 1.0);
        // All -1 weights vs all +1 input: full disagreement -> -36.
        assert_eq!(conv.forward(&input).data()[0], -36.0);
        let mut w1 = BitTensor::zeros(&[1, 4, 3, 3]);
        for i in 0..w1.len() {
            w1.set(i, true);
        }
        conv.set_weights(w1);
        assert_eq!(conv.forward(&input).data()[0], 36.0);
    }

    #[test]
    fn from_packed_matches_tensor_construction() {
        let w = random_bits(&[5, 70, 3, 3], 9);
        let via_tensor = BinConv2d::new(w.clone(), Conv2dParams { stride: 2, pad: 1 });
        let packed = PackedKernel::pack(&w).unwrap();
        let via_packed = BinConv2d::from_packed(packed, Conv2dParams { stride: 2, pad: 1 });
        assert_eq!(via_tensor, via_packed);
        let input = Tensor::full(&[1, 70, 8, 8], 1.0);
        assert_eq!(
            via_tensor.forward(&input).data(),
            via_packed.forward(&input).data()
        );
        // The lazy flat view agrees with the original tensor.
        assert_eq!(via_packed.weights(), &w);
        assert_eq!(via_packed.param_bits(), 5 * 70 * 9);
    }

    #[test]
    fn forward_binarized_matches_forward() {
        let w = random_bits(&[7, 12, 3, 3], 23);
        let params = Conv2dParams { stride: 1, pad: 1 };
        let conv = BinConv2d::new(w, params);
        let input = crate::tensor::Tensor::from_vec(
            &[2, 12, 6, 6],
            (0..2 * 12 * 36).map(|i| ((i % 7) as f32) - 3.0).collect(),
        )
        .unwrap();
        let want = conv.forward(&input);
        let acts = PackedActivations::pack(&RSign::zero(12).binarize(&input)).unwrap();
        let mut out = Tensor::default();
        Engine::single_threaded()
            .conv2d_into(
                &acts,
                conv.packed(),
                params,
                &mut ConvScratch::default(),
                &mut out,
            )
            .unwrap();
        assert_eq!(want.data(), out.data());
    }

    #[test]
    fn set_packed_swaps_weights_without_flat_tensor() {
        let w0 = random_bits(&[2, 8, 3, 3], 4);
        let w1 = random_bits(&[2, 8, 3, 3], 5);
        let mut conv = BinConv2d::new(w0, Conv2dParams::default());
        conv.set_packed(PackedKernel::pack(&w1).unwrap());
        assert_eq!(conv, BinConv2d::new(w1.clone(), Conv2dParams::default()));
        assert_eq!(conv.weights(), &w1);
    }

    #[test]
    #[should_panic(expected = "keep the geometry")]
    fn set_packed_rejects_shape_change() {
        let mut conv = BinConv2d::new(BitTensor::zeros(&[1, 4, 3, 3]), Conv2dParams::default());
        conv.set_packed(PackedKernel::pack(&BitTensor::zeros(&[2, 4, 3, 3])).unwrap());
    }

    #[test]
    #[should_panic(expected = "keep the shape")]
    fn set_weights_rejects_shape_change() {
        let mut conv = BinConv2d::new(BitTensor::zeros(&[1, 4, 3, 3]), Conv2dParams::default());
        conv.set_weights(BitTensor::zeros(&[2, 4, 3, 3]));
    }

    #[test]
    fn one_layer_runs_every_live_tap_set() {
        // One layer, three maps under pad 1: a 1×1 map reads the centre
        // tap only, 2×2 and 5×4 maps all nine. Each forward through the
        // engine matches the direct conv, whichever shape ran before it.
        let engine = Engine::single_threaded();
        let params = Conv2dParams { stride: 1, pad: 1 };
        let conv = BinConv2d::new(random_bits(&[4, 70, 3, 3], 6), params);
        let mut scratch = ConvScratch::default();
        let mut out = Tensor::default();
        for (h, w) in [(1, 1), (2, 2), (5, 4), (1, 1)] {
            let acts =
                PackedActivations::pack(&random_bits(&[1, 70, h, w], (h * w) as u64)).unwrap();
            engine
                .conv2d_into(&acts, conv.packed(), params, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out.data(), conv.forward_packed(&acts).data(), "{h}x{w}");
        }
    }

    #[test]
    fn describe_mentions_geometry() {
        let conv = BinConv2d::new(BitTensor::zeros(&[8, 4, 1, 1]), Conv2dParams::default());
        let d = conv.describe();
        assert!(d.contains("1x1") && d.contains("4->8"));
    }
}
