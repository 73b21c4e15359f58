//! RSign — ReActNet's shifted binarization.
//!
//! ReActNet generalizes Eq. 1 with a learnable per-channel shift `α_c`:
//! `sign(x - α_c)`. Shifting before binarization is one of the paper's
//! cited accuracy enablers ("the Prelu activation is biased by shifting and
//! reshaping its input"); the same idea applies to the sign function.

use crate::engine::Engine;
use crate::layers::Layer;
use crate::pack::PackedActivations;
use crate::simd::{self, SimdLevel};
use crate::tensor::{BitTensor, Tensor};
use crate::{lanes_for, LANE_BITS};

/// Per-channel shifted sign activation.
#[derive(Debug, Clone, PartialEq)]
pub struct RSign {
    shifts: Vec<f32>,
}

impl RSign {
    /// RSign with explicit per-channel shifts.
    pub fn new(shifts: Vec<f32>) -> Self {
        RSign { shifts }
    }

    /// RSign with all shifts at zero (plain Eq. 1 sign).
    pub fn zero(channels: usize) -> Self {
        RSign {
            shifts: vec![0.0; channels],
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.shifts.len()
    }

    /// The per-channel shifts.
    pub fn shifts(&self) -> &[f32] {
        &self.shifts
    }

    /// Binarize a `[N, C, H, W]` tensor into a [`BitTensor`] of the same
    /// shape: bit `1` where `x >= shift_c`.
    ///
    /// # Panics
    ///
    /// Panics if the channel dimension does not match the shift count.
    pub fn binarize(&self, input: &Tensor) -> BitTensor {
        let mut out = BitTensor::zeros(&[0]);
        self.binarize_into(input, &mut out);
        out
    }

    /// [`Self::binarize`] into a reusable output buffer.
    ///
    /// `out` is re-shaped and cleared, reusing its allocation — the
    /// execution engine threads one such buffer through the forward pass
    /// so binarization stops allocating per layer. The inner loop walks
    /// each contiguous channel row once and sets bits through the packed
    /// words directly.
    ///
    /// # Panics
    ///
    /// Panics if the channel dimension does not match the shift count.
    pub fn binarize_into(&self, input: &Tensor, out: &mut BitTensor) {
        #[cfg(target_arch = "x86_64")]
        {
            /// AVX2 instantiation of [`RSign::binarize_into_impl`].
            #[target_feature(enable = "avx2")]
            unsafe fn binarize_avx2(layer: &RSign, input: &Tensor, out: &mut BitTensor) {
                layer.binarize_into_impl(input, out);
            }
            if crate::simd::avx2() {
                // SAFETY: avx2 was detected at runtime.
                return unsafe { binarize_avx2(self, input, out) };
            }
        }
        self.binarize_into_impl(input, out);
    }

    /// Portable body of [`Self::binarize_into`]: the channel row is split
    /// at 64-bit boundaries of the flat index so whole output words are
    /// assembled in a register (a vectorizable compare-and-pack) and
    /// stored once; ragged head/tail bits fall back to single-bit ORs.
    #[inline(always)]
    fn binarize_into_impl(&self, input: &Tensor, out: &mut BitTensor) {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "RSign expects a 4-D tensor");
        assert_eq!(shape[1], self.shifts.len(), "channel mismatch in RSign");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let hw = h * w;
        out.reset(shape);
        let data = input.data();
        let words = out.words_mut();
        let mut base = 0usize;
        for _img in 0..n {
            for ch in 0..c {
                let a = self.shifts[ch];
                let row = &data[base..base + hw];
                // Ragged head up to the next word boundary.
                let head = (64 - (base & 63)).min(hw) & 63;
                for (j, &v) in row[..head].iter().enumerate() {
                    let i = base + j;
                    words[i >> 6] |= u64::from(v >= a) << (i & 63);
                }
                // Aligned middle: one packed word per 64 comparisons.
                let mut j = head;
                while j + 64 <= hw {
                    let mut wd = 0u64;
                    for (bit, &v) in row[j..j + 64].iter().enumerate() {
                        wd |= u64::from(v >= a) << bit;
                    }
                    words[(base + j) >> 6] = wd;
                    j += 64;
                }
                // Ragged tail.
                for (off, &v) in row[j..].iter().enumerate() {
                    let i = base + j + off;
                    words[i >> 6] |= u64::from(v >= a) << (i & 63);
                }
                base += hw;
            }
        }
    }

    /// Binarize a pixel-major `[N, H, W, C]` tensor (the fused plan's
    /// activation layout) straight into channel-packed lane words — the
    /// sign half of every conv step. Each pixel's `C` values are one
    /// contiguous row, so a lane word is assembled from vector compares
    /// against the shifts and stored once (see [`pack_rows_at`]); the
    /// pixels are split into bands across `engine`'s workers.
    /// Bit-exact with packing [`Self::binarize`]'s output of the same
    /// values in NCHW order: the predicate per bit is the identical
    /// `x >= shift_c`, and the bits at and above `C` stay zero.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D with the shift count last.
    pub fn binarize_nhwc_packed_with(
        &self,
        input: &Tensor,
        engine: &Engine,
        out: &mut PackedActivations,
    ) {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "RSign expects a 4-D tensor");
        assert_eq!(shape[3], self.shifts.len(), "channel mismatch in RSign");
        out.reset_for_overwrite(shape[0], shape[3], shape[1], shape[2]);
        let (c, lanes, level) = (self.shifts.len(), out.lanes(), simd::level());
        let src = input.data();
        // About half a lane-word operation per compared value.
        let work = (src.len() / 2) as u64;
        engine.parallel_chunks(out.words_mut(), lanes, 64, work, |first, band| {
            let rows = &src[first * c..][..band.len() / lanes * c];
            pack_rows_at(level, &self.shifts, rows, band);
        });
    }
}

/// Pack rows of `shifts.len()` values into lane words: bit `ch` of
/// pixel `p` is `src[p·C + ch] >= shifts[ch]`, each pixel's `⌈C/64⌉`
/// words stored whole into `words` with zero tail bits. Runs at `level`,
/// clamped to what the CPU has: one AVX-512 `vcmpps` to a mask, or two
/// AVX2 compares and `movemask`s, per 16 channels.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn pack_rows_at(level: SimdLevel, shifts: &[f32], src: &[f32], words: &mut [u64]) {
    let c = shifts.len();
    if c == 0 {
        return;
    }
    assert_eq!(src.len() / c * lanes_for(c), words.len(), "sign+pack rows");
    #[cfg(target_arch = "x86_64")]
    {
        let f = simd::detect();
        if level >= SimdLevel::Avx512 && f.avx512 {
            // SAFETY: avx512f was detected at runtime.
            return unsafe { x86::pack_avx512(shifts, src, words) };
        }
        if level >= SimdLevel::Avx2 && f.avx2 {
            // SAFETY: avx2 was detected at runtime.
            return unsafe { x86::pack_avx2(shifts, src, words) };
        }
    }
    // SAFETY: the portable body needs no CPU feature.
    unsafe { pack_rows::<Portable>(shifts, src, words) }
}

/// One dispatch level's 16-channel compare.
trait Compare16 {
    /// Bit `i` is `v[i] >= a[i]`, for the `v.len() == a.len() <= 16`
    /// values; the bits above are zero.
    ///
    /// # Safety
    ///
    /// The CPU must support the level's features, and `v.len() ==
    /// a.len() <= 16` (the wide bodies load both under one mask).
    unsafe fn ge(v: &[f32], a: &[f32]) -> u16;
}

/// The pack walk shared by every level. A channel count dividing 16
/// compares several pixels per step against shifts replicated to 16
/// lanes; any other count walks each pixel row 16 channels at a time.
///
/// # Safety
///
/// The CPU must support `L`'s features. The walk itself keeps every
/// compare's two runs equal and at most 16 long.
#[inline(always)]
unsafe fn pack_rows<L: Compare16>(shifts: &[f32], src: &[f32], words: &mut [u64]) {
    let c = shifts.len();
    if 16 % c == 0 {
        let mut rep = [0.0f32; 16];
        for (j, v) in rep.iter_mut().enumerate() {
            *v = shifts[j % c];
        }
        let per = 16 / c;
        for (vals, out) in src.chunks(16).zip(words.chunks_mut(per)) {
            // SAFETY: the caller enabled `L`'s features.
            let bits = unsafe { L::ge(vals, &rep[..vals.len()]) };
            for (i, word) in out.iter_mut().enumerate() {
                *word = u64::from(bits >> (i * c)) & crate::bitword::mask(c);
            }
        }
        return;
    }
    for (row, out) in src
        .chunks_exact(c)
        .zip(words.chunks_exact_mut(lanes_for(c)))
    {
        for (word, (vals, a)) in out
            .iter_mut()
            .zip(row.chunks(LANE_BITS).zip(shifts.chunks(LANE_BITS)))
        {
            let mut wd = 0u64;
            for (q, (v, a)) in vals.chunks(16).zip(a.chunks(16)).enumerate() {
                // SAFETY: as above.
                wd |= u64::from(unsafe { L::ge(v, a) }) << (16 * q);
            }
            *word = wd;
        }
    }
}

/// The portable compare: one `v >= a` per bit.
struct Portable;

impl Compare16 for Portable {
    unsafe fn ge(v: &[f32], a: &[f32]) -> u16 {
        let mut bits = 0u16;
        for (i, (&v, &a)) in v.iter().zip(a).enumerate() {
            bits |= u16::from(v >= a) << i;
        }
        bits
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{pack_rows, Compare16};
    use crate::simd::lane_mask16;
    use std::arch::x86_64::*;

    /// AVX-512 body of [`super::pack_rows_at`].
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn pack_avx512(shifts: &[f32], src: &[f32], words: &mut [u64]) {
        // SAFETY: the features `Avx512`'s compare needs are enabled here.
        unsafe { pack_rows::<Avx512>(shifts, src, words) }
    }

    /// AVX2 body of [`super::pack_rows_at`].
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pack_avx2(shifts: &[f32], src: &[f32], words: &mut [u64]) {
        // SAFETY: as above, for `Avx2`.
        unsafe { pack_rows::<Avx2>(shifts, src, words) }
    }

    /// One masked `vcmpps` (ordered `>=`: NaN compares false, −0.0 equals
    /// 0.0) to a mask register.
    struct Avx512;

    impl Compare16 for Avx512 {
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn ge(v: &[f32], a: &[f32]) -> u16 {
            let m = lane_mask16(v.len());
            // SAFETY: `m` covers only the `v.len() == a.len()` values.
            unsafe {
                let (v, a) = (
                    _mm512_maskz_loadu_ps(m, v.as_ptr()),
                    _mm512_maskz_loadu_ps(m, a.as_ptr()),
                );
                _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(m, v, a)
            }
        }
    }

    /// Two 8-lane ordered `>=` compares and `movemask`s.
    struct Avx2;

    impl Compare16 for Avx2 {
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn ge(v: &[f32], a: &[f32]) -> u16 {
            const ONES: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
            let mut bits = 0u16;
            for (half, lo) in [0usize, 8].into_iter().enumerate() {
                let n = v.len().saturating_sub(lo).min(8);
                if n == 0 {
                    break;
                }
                // SAFETY: `8 - n` leaves 8 values of `ONES`, and the mask
                // selects only the `n` in-bounds values.
                let k = unsafe {
                    let m = _mm256_loadu_si256(ONES.as_ptr().add(8 - n).cast());
                    let (v, a) = (
                        _mm256_maskload_ps(v.as_ptr().add(lo), m),
                        _mm256_maskload_ps(a.as_ptr().add(lo), m),
                    );
                    _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(v, a)) as u16
                };
                // Masked-off lanes load 0.0 on both sides, which is `>=`.
                bits |= (k & ((1u16 << n) - 1)) << (8 * half);
            }
            bits
        }
    }
}

impl Layer for RSign {
    fn forward(&self, input: &Tensor) -> Tensor {
        self.binarize(input).to_tensor()
    }

    fn param_bits(&self) -> usize {
        self.shifts.len() * 32
    }

    fn describe(&self) -> String {
        format!("RSign({} channels)", self.shifts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shift_matches_plain_binarize() {
        let t = Tensor::from_vec(&[1, 2, 1, 2], vec![-1.0, 0.5, 0.0, -0.1]).unwrap();
        let rs = RSign::zero(2);
        assert_eq!(rs.binarize(&t), t.binarize());
    }

    #[test]
    fn shift_moves_threshold_per_channel() {
        let t = Tensor::from_vec(&[1, 2, 1, 1], vec![0.4, 0.4]).unwrap();
        let rs = RSign::new(vec![0.5, 0.3]);
        let b = rs.binarize(&t);
        assert!(!b.get(0)); // 0.4 < 0.5
        assert!(b.get(1)); // 0.4 >= 0.3
    }

    #[test]
    fn forward_produces_pm_one() {
        let t = Tensor::from_vec(&[1, 1, 1, 3], vec![-2.0, 0.0, 2.0]).unwrap();
        let out = RSign::zero(1).forward(&t);
        assert_eq!(out.data(), &[-1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_panics() {
        let t = Tensor::zeros(&[1, 3, 1, 1]);
        RSign::zero(2).binarize(&t);
    }

    #[test]
    fn layer_metadata() {
        let rs = RSign::zero(16);
        assert_eq!(rs.param_bits(), 512);
        assert!(rs.describe().contains("16"));
    }

    #[test]
    fn packed_binarize_matches_pack_of_binarize() {
        use crate::weightgen::random_floats;
        // Channel counts below, at, and above one lane word; odd spatial.
        for (n, c, h, w) in [(1, 3, 4, 5), (2, 64, 3, 3), (2, 70, 5, 7), (1, 1, 1, 1)] {
            let vals = random_floats(n * c * h * w, 1.0, (c * h) as u64);
            let t = Tensor::from_vec(&[n, c, h, w], vals).unwrap();
            let shifts = random_floats(c, 0.5, c as u64);
            let rs = RSign::new(shifts);
            let expect = PackedActivations::pack(&rs.binarize(&t)).unwrap();
            let mut got = PackedActivations::default();
            rs.binarize_nhwc_packed_with(&t.nchw_to_nhwc(), &Engine::with_threads(2), &mut got);
            assert_eq!(got, expect, "n={n} c={c} h={h} w={w}");
        }
    }

    #[test]
    fn pack_bodies_match_scalar_at_every_level() {
        use crate::weightgen::random_floats;
        let f = simd::detect();
        let mut levels = vec![SimdLevel::Portable];
        for (level, ok) in [(SimdLevel::Avx2, f.avx2), (SimdLevel::Avx512, f.avx512)] {
            if ok {
                levels.push(level);
            } else {
                println!("note: this CPU cannot run the {level} pack body; skipped");
            }
        }
        let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for c in [1usize, 7, 8, 15, 16, 17, 63, 64, 65, 200, 1024] {
            let mut shifts = random_floats(c, 0.5, c as u64);
            shifts[c / 2] = -0.0;
            if c > 2 {
                shifts[1] = f32::NAN;
            }
            for pixels in [1usize, 3, 33] {
                let mut src = random_floats(pixels * c, 1.0, (pixels * c) as u64);
                for (i, v) in src.iter_mut().enumerate() {
                    match i % 7 {
                        // Exactly the channel's shift: `>=` holds.
                        0 => *v = shifts[i % c],
                        3 => *v = specials[(i / 7) % specials.len()],
                        _ => {}
                    }
                }
                let lanes = lanes_for(c);
                let mut want = vec![0u64; pixels * lanes];
                for (i, &v) in src.iter().enumerate() {
                    let (p, ch) = (i / c, i % c);
                    want[p * lanes + ch / 64] |= u64::from(v >= shifts[ch]) << (ch % 64);
                }
                for &level in &levels {
                    let mut got = vec![u64::MAX; pixels * lanes];
                    pack_rows_at(level, &shifts, &src, &mut got);
                    assert_eq!(got, want, "c={c} pixels={pixels} at {level}");
                }
            }
        }
    }
}
