//! Dense float tensors and flat bit tensors.
//!
//! [`Tensor`] is a minimal row-major `f32` tensor (NCHW for activations,
//! `[K, C, KH, KW]` for kernels) used by the full-precision reference paths
//! (batch-norm, PReLU, the quantized input/output layers, and the oracle
//! implementations that the packed kernels are tested against).
//!
//! [`BitTensor`] stores one bit per element in the same logical order and is
//! the unpacked binary representation from which [`crate::pack`] builds the
//! channel-packed layouts.

use crate::bitword::mask;
use crate::error::{BitnnError, Result};
use crate::lanes_for;

/// A row-major `f32` tensor with runtime shape.
///
/// The [`Default`] tensor is empty (zero dimensions, no data) — a seat for
/// scratch buffers that are shaped on first use.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the shape has a zero-sized dimension product overflow.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Create a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] if `data.len()` does not equal
    /// the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self> {
        let n: usize = shape.iter().product();
        if n != data.len() {
            return Err(BitnnError::ShapeMismatch {
                expected: format!("{n} elements for shape {shape:?}"),
                got: format!("{} elements", data.len()),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor and return its data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Re-shape to `shape` reusing the allocation, leaving the element
    /// values unspecified (stale or zero). Only for callers that overwrite
    /// every element before the tensor is read — skips [`Self::reset`]'s
    /// redundant zero-fill on the hot path.
    pub(crate) fn reset_for_overwrite(&mut self, shape: &[usize]) {
        let n: usize = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        if self.data.len() != n {
            self.data.clear();
            self.data.resize(n, 0.0);
        }
    }

    /// Copy this `[n, c, h, w]` tensor into `out` as pixel-major
    /// `[n, h, w, c]` (the fused plan's activation layout).
    pub(crate) fn nchw_to_nhwc_into(&self, out: &mut Tensor) {
        let &[n, c, h, w] = self.shape.as_slice() else {
            panic!("NCHW → NHWC needs a 4-D tensor, got {:?}", self.shape);
        };
        out.reset_for_overwrite(&[n, h, w, c]);
        let hw = h * w;
        for (src, dst) in self
            .data
            .chunks_exact(c * hw)
            .zip(out.data.chunks_exact_mut(c * hw))
        {
            for (ch, plane) in src.chunks_exact(hw).enumerate() {
                for (pix, &v) in plane.iter().enumerate() {
                    dst[pix * c + ch] = v;
                }
            }
        }
    }

    /// Copy this pixel-major `[n, h, w, c]` tensor into `out` as
    /// `[n, c, h, w]`.
    pub(crate) fn nhwc_to_nchw_into(&self, out: &mut Tensor) {
        let &[n, h, w, c] = self.shape.as_slice() else {
            panic!("NHWC → NCHW needs a 4-D tensor, got {:?}", self.shape);
        };
        out.reset_for_overwrite(&[n, c, h, w]);
        let hw = h * w;
        for (src, dst) in self
            .data
            .chunks_exact(c * hw)
            .zip(out.data.chunks_exact_mut(c * hw))
        {
            for (pix, row) in src.chunks_exact(c).enumerate() {
                for (ch, &v) in row.iter().enumerate() {
                    dst[ch * hw + pix] = v;
                }
            }
        }
    }

    /// [`Self::nhwc_to_nchw_into`] into a new tensor.
    #[cfg(test)]
    pub(crate) fn nhwc_to_nchw(&self) -> Tensor {
        let mut out = Tensor::default();
        self.nhwc_to_nchw_into(&mut out);
        out
    }

    /// [`Self::nchw_to_nhwc_into`] into a new tensor.
    #[cfg(test)]
    pub(crate) fn nchw_to_nhwc(&self) -> Tensor {
        let mut out = Tensor::default();
        self.nchw_to_nhwc_into(&mut out);
        out
    }

    /// Flat index for a 4-D coordinate `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the tensor is not 4-D or the coordinate is
    /// out of bounds.
    #[inline]
    pub fn idx4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 4);
        debug_assert!(
            n < self.shape[0] && c < self.shape[1] && h < self.shape[2] && w < self.shape[3]
        );
        ((n * self.shape[1] + c) * self.shape[2] + h) * self.shape[3] + w
    }

    /// Read element at a 4-D coordinate.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.idx4(n, c, h, w)]
    }

    /// Write element at a 4-D coordinate.
    #[inline]
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let i = self.idx4(n, c, h, w);
        self.data[i] = v;
    }

    /// Reshape in place (same element count).
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] if the element count differs.
    pub fn reshape(&mut self, shape: &[usize]) -> Result<()> {
        let n: usize = shape.iter().product();
        if n != self.data.len() {
            return Err(BitnnError::ShapeMismatch {
                expected: format!("{} elements", self.data.len()),
                got: format!("shape {shape:?} ({n} elements)"),
            });
        }
        self.shape = shape.to_vec();
        Ok(())
    }

    /// Binarize with the paper's Eq. 1: `+1` if `x >= 0`, else `-1`,
    /// producing a [`BitTensor`] with bit `1` for `+1`.
    pub fn binarize(&self) -> BitTensor {
        let mut bt = BitTensor::zeros(&self.shape);
        for (i, &v) in self.data.iter().enumerate() {
            if v >= 0.0 {
                bt.set(i, true);
            }
        }
        bt
    }

    /// Index of the maximum element (ties resolve to the first).
    ///
    /// Returns `None` for an empty tensor.
    pub fn argmax(&self) -> Option<usize> {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.partial_cmp(b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.0.cmp(&a.0))
            })
            .map(|(i, _)| i)
    }
}

/// A flat bit tensor: one bit per logical element, same row-major order as
/// [`Tensor`]. Bit `1` encodes the value `+1`, bit `0` encodes `-1`
/// (paper Sec. II-A).
///
/// The [`Default`] bit tensor is empty — a seat for scratch buffers that
/// are shaped on first use.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitTensor {
    shape: Vec<usize>,
    len: usize,
    words: Vec<u64>,
}

impl BitTensor {
    /// All-zero (all `-1`) bit tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        let len: usize = shape.iter().product();
        BitTensor {
            shape: shape.to_vec(),
            len,
            words: vec![0; lanes_for(len)],
        }
    }

    /// Build from a boolean slice in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] on length mismatch.
    pub fn from_bools(shape: &[usize], bits: &[bool]) -> Result<Self> {
        let len: usize = shape.iter().product();
        if len != bits.len() {
            return Err(BitnnError::ShapeMismatch {
                expected: format!("{len} bits for shape {shape:?}"),
                got: format!("{} bits", bits.len()),
            });
        }
        let mut t = BitTensor::zeros(shape);
        // Word-at-a-time: assemble each 64-bit lane in a register and store
        // it once instead of read-modify-writing per bit.
        for (chunk, word) in bits.chunks(64).zip(t.words.iter_mut()) {
            let mut w = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                w |= (b as u64) << i;
            }
            *word = w;
        }
        Ok(t)
    }

    /// Shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of logical bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Write bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        if v {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
    }

    /// Flat index for a 4-D coordinate.
    #[inline]
    pub fn idx4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 4);
        ((n * self.shape[1] + c) * self.shape[2] + h) * self.shape[3] + w
    }

    /// Read a 4-D coordinate as ±1.
    #[inline]
    pub fn sign_at4(&self, n: usize, c: usize, h: usize, w: usize) -> i32 {
        if self.get(self.idx4(n, c, h, w)) {
            1
        } else {
            -1
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        // The unused tail of the last word is kept at zero by `set`.
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Underlying packed words (tail bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable packed words for crate-internal fast paths. Callers must
    /// keep bits beyond `len` clear (see [`Self::tail_is_clean`]).
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Re-shape to `shape` and clear every bit, reusing the allocation
    /// when possible (scratch-buffer reuse in the execution engine).
    pub(crate) fn reset(&mut self, shape: &[usize]) {
        self.len = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.words.clear();
        self.words.resize(lanes_for(self.len), 0);
    }

    /// Convert back to a ±1 float tensor.
    pub fn to_tensor(&self) -> Tensor {
        let mut t = Tensor::zeros(&self.shape);
        for i in 0..self.len {
            t.data_mut()[i] = if self.get(i) { 1.0 } else { -1.0 };
        }
        t
    }

    /// Check the internal invariant that bits beyond `len` are clear.
    ///
    /// Exposed for tests and fuzzing.
    pub fn tail_is_clean(&self) -> bool {
        let rem = self.len % 64;
        if rem == 0 || self.words.is_empty() {
            return true;
        }
        self.words[self.words.len() - 1] & !mask(rem) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_has_right_len() {
        let t = Tensor::zeros(&[2, 3, 4, 5]);
        assert_eq!(t.len(), 120);
        assert_eq!(t.shape(), &[2, 3, 4, 5]);
        assert!(!t.is_empty());
    }

    #[test]
    fn from_vec_validates() {
        assert!(Tensor::from_vec(&[2, 2], vec![0.0; 4]).is_ok());
        assert!(Tensor::from_vec(&[2, 2], vec![0.0; 5]).is_err());
    }

    #[test]
    fn idx4_row_major() {
        let t = Tensor::zeros(&[2, 3, 4, 5]);
        assert_eq!(t.idx4(0, 0, 0, 0), 0);
        assert_eq!(t.idx4(0, 0, 0, 1), 1);
        assert_eq!(t.idx4(0, 0, 1, 0), 5);
        assert_eq!(t.idx4(0, 1, 0, 0), 20);
        assert_eq!(t.idx4(1, 0, 0, 0), 60);
    }

    #[test]
    fn binarize_matches_eq1() {
        let t = Tensor::from_vec(&[5], vec![-1.5, -0.0, 0.0, 0.1, 2.0]).unwrap();
        let b = t.binarize();
        // Eq. 1: x >= 0 -> +1. Note -0.0 >= 0.0 is true in IEEE-754.
        assert!(!b.get(0));
        assert!(b.get(1));
        assert!(b.get(2));
        assert!(b.get(3));
        assert!(b.get(4));
    }

    #[test]
    fn argmax_ties_and_empty() {
        let t = Tensor::from_vec(&[3], vec![1.0, 3.0, 3.0]).unwrap();
        assert_eq!(t.argmax(), Some(1));
        let e = Tensor::zeros(&[0]);
        assert_eq!(e.argmax(), None);
    }

    #[test]
    fn reshape_checks_count() {
        let mut t = Tensor::zeros(&[4, 4]);
        assert!(t.reshape(&[2, 8]).is_ok());
        assert_eq!(t.shape(), &[2, 8]);
        assert!(t.reshape(&[3, 3]).is_err());
    }

    #[test]
    fn bit_tensor_set_get_roundtrip() {
        let mut b = BitTensor::zeros(&[130]);
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(65) && !b.get(128));
        assert_eq!(b.count_ones(), 3);
        b.set(64, false);
        assert_eq!(b.count_ones(), 2);
        assert!(b.tail_is_clean());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_tensor_oob_panics() {
        let b = BitTensor::zeros(&[8]);
        b.get(8);
    }

    #[test]
    fn sign_roundtrip_through_float() {
        let mut b = BitTensor::zeros(&[2, 1, 2, 2]);
        b.set(0, true);
        b.set(5, true);
        let t = b.to_tensor();
        assert_eq!(t.data()[0], 1.0);
        assert_eq!(t.data()[1], -1.0);
        let b2 = t.binarize();
        assert_eq!(b, b2);
    }

    proptest! {
        #[test]
        fn bools_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
            let shape = [bits.len()];
            let t = BitTensor::from_bools(&shape, &bits).unwrap();
            prop_assert!(t.tail_is_clean());
            for (i, &b) in bits.iter().enumerate() {
                prop_assert_eq!(t.get(i), b);
            }
            prop_assert_eq!(t.count_ones(), bits.iter().filter(|&&b| b).count());
        }

        #[test]
        fn binarize_to_tensor_is_sign(v in proptest::collection::vec(-10.0f32..10.0, 1..100)) {
            let t = Tensor::from_vec(&[v.len()], v.clone()).unwrap();
            let b = t.binarize().to_tensor();
            for (x, y) in v.iter().zip(b.data()) {
                prop_assert_eq!(*y, if *x >= 0.0 { 1.0 } else { -1.0 });
            }
        }
    }
}
