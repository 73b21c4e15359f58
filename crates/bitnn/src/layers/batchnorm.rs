//! Inference-time batch normalization with bias (paper Fig. 1's
//! "BatchNorm / Bias" stage).
//!
//! At inference BN is an affine per-channel transform:
//! `y = gamma * (x - mean) / sqrt(var + eps) + beta`. ReActNet computes
//! this stage in full precision (32-bit), which is why the "Others" row of
//! Table I is 32-bit.

use crate::layers::Layer;
use crate::tensor::Tensor;

/// Per-channel affine batch normalization (inference mode).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNorm {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    mean: Vec<f32>,
    var: Vec<f32>,
    eps: f32,
    // Folded multiplier/offset, precomputed once.
    scale: Vec<f32>,
    offset: Vec<f32>,
}

impl BatchNorm {
    /// Build from raw statistics.
    ///
    /// # Panics
    ///
    /// Panics if the parameter vectors have different lengths or `eps <= 0`.
    pub fn new(gamma: Vec<f32>, beta: Vec<f32>, mean: Vec<f32>, var: Vec<f32>, eps: f32) -> Self {
        let c = gamma.len();
        assert!(
            beta.len() == c && mean.len() == c && var.len() == c,
            "batch-norm parameter length mismatch"
        );
        assert!(eps > 0.0, "eps must be positive");
        let mut scale = Vec::with_capacity(c);
        let mut offset = Vec::with_capacity(c);
        for i in 0..c {
            let s = gamma[i] / (var[i] + eps).sqrt();
            scale.push(s);
            offset.push(beta[i] - s * mean[i]);
        }
        BatchNorm {
            gamma,
            beta,
            mean,
            var,
            eps,
            scale,
            offset,
        }
    }

    /// Identity batch-norm (gamma=1, beta=0, mean=0, var=1).
    pub fn identity(channels: usize) -> Self {
        BatchNorm::new(
            vec![1.0; channels],
            vec![0.0; channels],
            vec![0.0; channels],
            vec![1.0; channels],
            1e-5,
        )
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.gamma.len()
    }

    /// The folded per-channel scale (`gamma / sqrt(var + eps)`).
    pub fn folded_scale(&self) -> &[f32] {
        &self.scale
    }

    /// The folded per-channel offset (`beta - scale * mean`).
    pub fn folded_offset(&self) -> &[f32] {
        &self.offset
    }

    /// [`Layer::forward`] over a pixel-major (`[n, h, w, c]`) tensor into
    /// a reusable output tensor (the graph executor's arena path): same
    /// affine transform, zero allocations once `out` has the right
    /// capacity. Bit-exact with the trait method (same per-element
    /// multiply-add in the same order).
    ///
    /// # Panics
    ///
    /// Panics if `input` is not 4-D with this layer's channel count last.
    pub fn forward_nhwc_into(&self, input: &Tensor, out: &mut Tensor) {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "BatchNorm expects a 4-D tensor");
        assert_eq!(shape[3], self.gamma.len(), "channel mismatch in BatchNorm");
        out.reset_for_overwrite(shape);
        let c = self.gamma.len();
        for (orow, row) in out
            .data_mut()
            .chunks_exact_mut(c)
            .zip(input.data().chunks_exact(c))
        {
            for (((d, &v), &s), &o) in orow.iter_mut().zip(row).zip(&self.scale).zip(&self.offset) {
                *d = s * v + o;
            }
        }
    }
}

impl Layer for BatchNorm {
    fn forward(&self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "BatchNorm expects a 4-D tensor");
        assert_eq!(shape[1], self.gamma.len(), "channel mismatch in BatchNorm");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let mut out = Tensor::zeros(shape);
        for img in 0..n {
            for ch in 0..c {
                let (s, o) = (self.scale[ch], self.offset[ch]);
                for y in 0..h {
                    for x in 0..w {
                        out.set4(img, ch, y, x, s * input.at4(img, ch, y, x) + o);
                    }
                }
            }
        }
        out
    }

    fn param_bits(&self) -> usize {
        // At inference BN is stored folded: one scale and one offset per
        // channel (32 bits each). This matches the paper's Table I
        // accounting, where "Others" is a small sliver of total storage.
        self.gamma.len() * 2 * 32
    }

    fn describe(&self) -> String {
        format!("BatchNorm({} channels)", self.gamma.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_identity() {
        let t = Tensor::from_vec(&[1, 2, 1, 2], vec![1.0, -2.0, 3.5, 0.0]).unwrap();
        let bn = BatchNorm::identity(2);
        let out = bn.forward(&t);
        for (a, b) in t.data().iter().zip(out.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn affine_transform_known_values() {
        // gamma=2, beta=1, mean=3, var=4 (sigma=2): y = 2*(x-3)/2 + 1 = x - 2.
        let bn = BatchNorm::new(vec![2.0], vec![1.0], vec![3.0], vec![4.0], 1e-9);
        let t = Tensor::from_vec(&[1, 1, 1, 3], vec![0.0, 3.0, 5.0]).unwrap();
        let out = bn.forward(&t);
        for (got, expect) in out.data().iter().zip([-2.0, 1.0, 3.0]) {
            assert!((got - expect).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_params_panic() {
        BatchNorm::new(vec![1.0], vec![0.0, 0.0], vec![0.0], vec![1.0], 1e-5);
    }

    #[test]
    fn param_bits_count_folded_form() {
        // Folded inference form: scale + offset per channel.
        assert_eq!(BatchNorm::identity(8).param_bits(), 8 * 2 * 32);
    }
}
