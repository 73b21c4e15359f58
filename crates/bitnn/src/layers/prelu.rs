//! RPReLU — ReActNet's shifted-and-reshaped PReLU.
//!
//! `y = x - γ_c > 0 ? (x - γ_c) + ζ_c : β_c * (x - γ_c) + ζ_c`
//!
//! i.e. a PReLU whose input is shifted by a learnable `γ_c` and whose output
//! is shifted by a learnable `ζ_c`, with a learnable negative slope `β_c`.
//! The paper highlights this transformation as a key accuracy contribution
//! of ReActNet (Sec. II-B).

use crate::layers::Layer;
use crate::tensor::Tensor;

/// Per-channel RPReLU activation.
#[derive(Debug, Clone, PartialEq)]
pub struct RPReLU {
    shift_in: Vec<f32>,
    slope: Vec<f32>,
    shift_out: Vec<f32>,
}

impl RPReLU {
    /// Build from per-channel input shifts, negative slopes, output shifts.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn new(shift_in: Vec<f32>, slope: Vec<f32>, shift_out: Vec<f32>) -> Self {
        assert!(
            shift_in.len() == slope.len() && slope.len() == shift_out.len(),
            "RPReLU parameter length mismatch"
        );
        RPReLU {
            shift_in,
            slope,
            shift_out,
        }
    }

    /// Plain PReLU with a uniform slope and no shifts.
    pub fn plain(channels: usize, slope: f32) -> Self {
        RPReLU::new(
            vec![0.0; channels],
            vec![slope; channels],
            vec![0.0; channels],
        )
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.slope.len()
    }

    /// Apply the activation to one scalar of channel `c`.
    #[inline]
    pub fn apply(&self, c: usize, x: f32) -> f32 {
        let (si, sl, so) = self.channel_params(c);
        apply_params(si, sl, so, x)
    }

    /// The `(shift_in, slope, shift_out)` triple of channel `c`, for
    /// callers that hoist the per-channel loads out of an inner loop and
    /// apply [`apply_params`] per element (the engine's fused block
    /// stages).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[inline]
    fn channel_params(&self, c: usize) -> (f32, f32, f32) {
        (self.shift_in[c], self.slope[c], self.shift_out[c])
    }

    /// Every channel's `(shift_in, slope, shift_out)`, as three slices
    /// (the conv epilogue's vector loads).
    pub(crate) fn params(&self) -> (&[f32], &[f32], &[f32]) {
        (&self.shift_in, &self.slope, &self.shift_out)
    }

    /// [`Layer::forward`] over a pixel-major (`[n, h, w, c]`) tensor into
    /// a reusable output tensor (the graph executor's arena path).
    /// Bit-exact with the trait method: the same [`apply_params`]
    /// arithmetic per element.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not 4-D with this layer's channel count last.
    pub fn forward_nhwc_into(&self, input: &Tensor, out: &mut Tensor) {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "RPReLU expects a 4-D tensor");
        assert_eq!(shape[3], self.slope.len(), "channel mismatch in RPReLU");
        out.reset_for_overwrite(shape);
        let c = self.slope.len();
        for (orow, row) in out
            .data_mut()
            .chunks_exact_mut(c)
            .zip(input.data().chunks_exact(c))
        {
            for (ch, (d, &v)) in orow.iter_mut().zip(row).enumerate() {
                *d = apply_params(self.shift_in[ch], self.slope[ch], self.shift_out[ch], v);
            }
        }
    }
}

/// The RPReLU formula on already-hoisted channel parameters:
/// `y = (x - shift_in) > 0 ? (x - shift_in) : slope * (x - shift_in)`,
/// plus `shift_out`. Exactly [`RPReLU::apply`]'s arithmetic.
#[inline(always)]
pub fn apply_params(shift_in: f32, slope: f32, shift_out: f32, x: f32) -> f32 {
    let t = x - shift_in;
    let y = if t > 0.0 { t } else { slope * t };
    y + shift_out
}

impl Layer for RPReLU {
    fn forward(&self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "RPReLU expects a 4-D tensor");
        assert_eq!(shape[1], self.slope.len(), "channel mismatch in RPReLU");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let mut out = Tensor::zeros(shape);
        for img in 0..n {
            for ch in 0..c {
                for y in 0..h {
                    for x in 0..w {
                        out.set4(img, ch, y, x, self.apply(ch, input.at4(img, ch, y, x)));
                    }
                }
            }
        }
        out
    }

    fn param_bits(&self) -> usize {
        self.slope.len() * 3 * 32
    }

    fn describe(&self) -> String {
        format!("RPReLU({} channels)", self.slope.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_prelu_behaviour() {
        let p = RPReLU::plain(1, 0.25);
        assert_eq!(p.apply(0, 4.0), 4.0);
        assert_eq!(p.apply(0, -4.0), -1.0);
        assert_eq!(p.apply(0, 0.0), 0.0);
    }

    #[test]
    fn shifts_move_the_kink_and_output() {
        // shift_in = 1, slope = 0.5, shift_out = 2.
        let p = RPReLU::new(vec![1.0], vec![0.5], vec![2.0]);
        // x = 3: t = 2 > 0 -> 2 + 2 = 4.
        assert_eq!(p.apply(0, 3.0), 4.0);
        // x = 0: t = -1 -> -0.5 + 2 = 1.5.
        assert_eq!(p.apply(0, 0.0), 1.5);
        // Kink exactly at x = 1 -> t = 0 -> 0 * slope + 2 = 2.
        assert_eq!(p.apply(0, 1.0), 2.0);
    }

    #[test]
    fn forward_applies_per_channel() {
        let p = RPReLU::new(vec![0.0, 0.0], vec![0.0, 1.0], vec![0.0, 0.0]);
        let t = Tensor::from_vec(&[1, 2, 1, 1], vec![-3.0, -3.0]).unwrap();
        let out = p.forward(&t);
        assert_eq!(out.data(), &[0.0, -3.0]); // slope 0 clips, slope 1 passes
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        RPReLU::new(vec![0.0], vec![0.0, 1.0], vec![0.0]);
    }
}
