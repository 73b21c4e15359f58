//! Channel packing (paper Fig. 5).
//!
//! daBNN's key layout trick: instead of storing a kernel channel-by-channel,
//! the bit at one *spatial position* of many channels is packed into a
//! single machine word. Loading one word then brings position `(r, c)` of 64
//! channels into a register at once, and the xnor-popcount inner product
//! over channels becomes a loop over lanes with no bit shuffling.
//!
//! Two packed containers are provided:
//!
//! * [`PackedKernel`] — weights `[K, C, KH, KW]` packed as
//!   `kernel[k][position][lane]`,
//! * [`PackedActivations`] — activations `[N, C, H, W]` packed as
//!   `act[n][y][x][lane]`.
//!
//! Both store channels along the lane dimension so that a kernel position
//! word and an activation pixel word line up channel-for-channel.
//! [`pack_group`] is the streaming decoder's packing step: 64 decoded 3×3
//! sequences in, one lane word per kernel position out.

use crate::error::{BitnnError, Result};
use crate::simd::SimdLevel;
use crate::tensor::BitTensor;
use crate::{lanes_for, LANE_BITS};

/// Channel-pack one group of 64 decoded 3×3 sequences into its nine lane
/// words — the paper's packing unit (Fig. 6) as a 9×64 bit transpose.
///
/// Bit `j` of word `p` is bit `8 - p` of `seqs[j]` (the natural mapping:
/// bit 8 of a sequence is position (0,0)); bits above bit 8 are ignored.
/// A tail group leaves its unused sequences zero, so their bits stay
/// clear in every word. Dispatches on [`crate::simd::level`], so
/// `BITNN_SIMD` caps it like every other kernel.
#[inline]
pub fn pack_group(seqs: &[u16; LANE_BITS]) -> [u64; 9] {
    pack_group_at(crate::simd::level(), seqs)
}

/// [`pack_group`] at an explicit dispatch level, clamped to what the CPU
/// has: the AVX-512 body is nine pairs of `vptestmw` (one 32-bit mask per
/// half-group and position), every lower level runs the portable 8×8
/// block transpose.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn pack_group_at(level: SimdLevel, seqs: &[u16; LANE_BITS]) -> [u64; 9] {
    #[cfg(target_arch = "x86_64")]
    {
        /// AVX-512BW body of [`pack_group`].
        ///
        /// # Safety
        ///
        /// The CPU must support `avx512f` and `avx512bw`.
        #[target_feature(enable = "avx512f,avx512bw")]
        unsafe fn pack_group_avx512(seqs: &[u16; LANE_BITS]) -> [u64; 9] {
            use std::arch::x86_64::*;
            // SAFETY: both loads read 32 of the 64 `u16`s in bounds.
            let (lo, hi) = unsafe {
                (
                    _mm512_loadu_si512(seqs.as_ptr().cast()),
                    _mm512_loadu_si512(seqs.as_ptr().add(32).cast()),
                )
            };
            let mut words = [0u64; 9];
            for (p, word) in words.iter_mut().enumerate() {
                let bit = _mm512_set1_epi16(1 << (8 - p));
                let (l, h) = (
                    _mm512_test_epi16_mask(lo, bit),
                    _mm512_test_epi16_mask(hi, bit),
                );
                *word = u64::from(l) | u64::from(h) << 32;
            }
            words
        }
        if level >= SimdLevel::Avx512 && crate::simd::detect().avx512 {
            // SAFETY: avx512f/bw were detected at runtime.
            return unsafe { pack_group_avx512(seqs) };
        }
    }
    pack_group_portable(seqs)
}

/// Portable body of [`pack_group`]: for each block of eight sequences,
/// transpose the 8×8 bit matrix of their low bytes (one byte per
/// position) and gather their ninth bits with a multiply.
#[inline(always)]
fn pack_group_portable(seqs: &[u16; LANE_BITS]) -> [u64; 9] {
    let mut words = [0u64; 9];
    for (block, eight) in seqs.chunks_exact(8).enumerate() {
        // Row k of each matrix is byte k: sequence k's low byte, and its
        // bit 8 as a 0/1 byte.
        let (mut lo, mut hi) = (0u64, 0u64);
        for (k, &s) in eight.iter().enumerate() {
            lo |= u64::from(s & 0xFF) << (8 * k);
            hi |= u64::from((s >> 8) & 1) << (8 * k);
        }
        let t = transpose8x8(lo);
        let shift = 8 * block;
        // Byte i of the transpose is bit i of all eight sequences, which
        // is position 8 - i.
        for (i, word) in words[1..].iter_mut().rev().enumerate() {
            *word |= ((t >> (8 * i)) & 0xFF) << shift;
        }
        // Every product term lands on its own bit, so the top byte is
        // exactly the eight 0/1 bytes' bits, byte k at bit k.
        words[0] |= (hi.wrapping_mul(0x0102_0408_1020_4080) >> 56) << shift;
    }
    words
}

/// Transpose an 8×8 bit matrix held row-per-byte (bit `8r + c` is row
/// `r`, column `c`) with three delta swaps.
#[inline(always)]
fn transpose8x8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Channel-packed binary convolution kernel.
///
/// Layout: `data[((k * positions) + p) * lanes + l]` holds the bits of
/// channels `l*64 .. l*64+64` at spatial position `p = r * kw + c` of output
/// filter `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedKernel {
    filters: usize,
    channels: usize,
    kh: usize,
    kw: usize,
    lanes: usize,
    data: Vec<u64>,
}

impl PackedKernel {
    /// Pack a binary weight tensor of shape `[K, C, KH, KW]`.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] if `weights` is not 4-D.
    pub fn pack(weights: &BitTensor) -> Result<Self> {
        let shape = weights.shape();
        if shape.len() != 4 {
            return Err(BitnnError::ShapeMismatch {
                expected: "4-D kernel [K, C, KH, KW]".into(),
                got: format!("{shape:?}"),
            });
        }
        let (k, c, kh, kw) = (shape[0], shape[1], shape[2], shape[3]);
        let lanes = lanes_for(c);
        let positions = kh * kw;
        let src = weights.words();
        let mut data = vec![0u64; k * positions * lanes];
        // Word-at-a-time packing: each destination lane (64 channels of one
        // filter position) is assembled in a register from the channel-major
        // source — bit (f, ch, p) sits at flat index (f*C + ch)*positions + p,
        // i.e. stride `positions` per channel — and stored with one write.
        for f in 0..k {
            for p in 0..positions {
                let base = f * c * positions + p;
                for (l, word) in data[(f * positions + p) * lanes..][..lanes]
                    .iter_mut()
                    .enumerate()
                {
                    let c0 = l * LANE_BITS;
                    let nb = (c - c0).min(LANE_BITS);
                    let mut w = 0u64;
                    for j in 0..nb {
                        let bit = base + (c0 + j) * positions;
                        w |= ((src[bit / 64] >> (bit % 64)) & 1) << j;
                    }
                    *word = w;
                }
            }
        }
        Ok(PackedKernel {
            filters: k,
            channels: c,
            kh,
            kw,
            lanes,
            data,
        })
    }

    /// Build directly from channel-packed lane words — the layout a
    /// streaming decoder's packing unit emits (paper Fig. 6): for each
    /// filter and spatial position, `lanes_for(channels)` 64-bit words
    /// whose bit `j` of lane `l` is channel `l*64 + j`. This is the
    /// constructor the compressed-container inference path uses so a
    /// kernel goes stream → lane words → engine without ever
    /// materializing a flat `[K, C, KH, KW]` tensor.
    ///
    /// Bits beyond `channels` in the final lane are masked off, so the
    /// xnor-popcount kernels (which assume zero lane padding) stay exact
    /// even for a sloppy producer.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] if any dimension is zero or
    /// `data.len() != filters * kh * kw * lanes_for(channels)`.
    pub fn from_lane_words(
        filters: usize,
        channels: usize,
        kh: usize,
        kw: usize,
        mut data: Vec<u64>,
    ) -> Result<Self> {
        if filters == 0 || channels == 0 || kh == 0 || kw == 0 {
            return Err(BitnnError::ShapeMismatch {
                expected: "non-zero kernel dimensions".into(),
                got: format!("[{filters}, {channels}, {kh}, {kw}]"),
            });
        }
        let lanes = lanes_for(channels);
        let want = filters * kh * kw * lanes;
        if data.len() != want {
            return Err(BitnnError::ShapeMismatch {
                expected: format!("{want} lane words"),
                got: format!("{}", data.len()),
            });
        }
        let tail_bits = channels % LANE_BITS;
        if tail_bits != 0 {
            let mask = (1u64 << tail_bits) - 1;
            for (i, w) in data.iter_mut().enumerate() {
                if i % lanes == lanes - 1 {
                    *w &= mask;
                }
            }
        }
        Ok(PackedKernel {
            filters,
            channels,
            kh,
            kw,
            lanes,
            data,
        })
    }

    /// Number of output filters `K`.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Number of input channels `C`.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Kernel height.
    pub fn kh(&self) -> usize {
        self.kh
    }

    /// Kernel width.
    pub fn kw(&self) -> usize {
        self.kw
    }

    /// Number of 64-bit lanes per position.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane words for filter `k` at position `p` (length = `lanes()`).
    #[inline]
    pub fn position_lanes(&self, k: usize, p: usize) -> &[u64] {
        let base = (k * self.kh * self.kw + p) * self.lanes;
        &self.data[base..base + self.lanes]
    }

    /// Raw packed words.
    pub fn words(&self) -> &[u64] {
        &self.data
    }

    /// Total packed storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * 8
    }

    /// Unpack back to a flat [`BitTensor`] of shape `[K, C, KH, KW]`.
    pub fn unpack(&self) -> BitTensor {
        let mut t = BitTensor::zeros(&[self.filters, self.channels, self.kh, self.kw]);
        for f in 0..self.filters {
            for r in 0..self.kh {
                for col in 0..self.kw {
                    let p = r * self.kw + col;
                    let lanes = self.position_lanes(f, p);
                    for ch in 0..self.channels {
                        if (lanes[ch / LANE_BITS] >> (ch % LANE_BITS)) & 1 == 1 {
                            let i = t.idx4(f, ch, r, col);
                            t.set(i, true);
                        }
                    }
                }
            }
        }
        t
    }
}

/// Channel-packed binary activations.
///
/// Layout: `data[(((n * h) + y) * w + x) * lanes + l]` holds channels
/// `l*64 .. l*64+64` of pixel `(y, x)` in image `n`.
///
/// Because pixels are row-major with `lanes` words each, the container
/// doubles as a packed matrix with one `channels()`-bit row per pixel —
/// the execution engine exploits this to run 1×1 convolutions as a GEMM
/// directly over [`Self::words`] with no re-packing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedActivations {
    n: usize,
    channels: usize,
    h: usize,
    w: usize,
    lanes: usize,
    data: Vec<u64>,
}

impl PackedActivations {
    /// Pack a binary activation tensor of shape `[N, C, H, W]`.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] if `acts` is not 4-D.
    pub fn pack(acts: &BitTensor) -> Result<Self> {
        let mut out = PackedActivations::default();
        out.repack(acts)?;
        Ok(out)
    }

    /// Re-pack `acts` into this container, reusing its allocation.
    ///
    /// This is the scratch-buffer entry point used by the execution
    /// engine's forward pass so each layer stops allocating a fresh packed
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] if `acts` is not 4-D.
    pub fn repack(&mut self, acts: &BitTensor) -> Result<()> {
        let shape = acts.shape();
        if shape.len() != 4 {
            return Err(BitnnError::ShapeMismatch {
                expected: "4-D activations [N, C, H, W]".into(),
                got: format!("{shape:?}"),
            });
        }
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let lanes = lanes_for(c);
        let hw = h * w;
        let src = acts.words();
        self.data.clear();
        self.data.resize(n * hw * lanes, 0);
        // Word-at-a-time packing: bit (img, ch, y, x) sits at flat index
        // img*C*HW + ch*HW + (y*W + x), i.e. stride HW per channel for a
        // fixed pixel; each destination lane is gathered in a register and
        // stored once.
        for img in 0..n {
            for pix in 0..hw {
                let base = img * c * hw + pix;
                for (l, word) in self.data[(img * hw + pix) * lanes..][..lanes]
                    .iter_mut()
                    .enumerate()
                {
                    let c0 = l * LANE_BITS;
                    let nb = (c - c0).min(LANE_BITS);
                    let mut wd = 0u64;
                    for j in 0..nb {
                        let bit = base + (c0 + j) * hw;
                        wd |= ((src[bit / 64] >> (bit % 64)) & 1) << j;
                    }
                    *word = wd;
                }
            }
        }
        self.n = n;
        self.channels = c;
        self.h = h;
        self.w = w;
        self.lanes = lanes;
        Ok(())
    }

    /// Batch size.
    pub fn batch(&self) -> usize {
        self.n
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Height.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Width.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Lanes per pixel.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane words of pixel `(y, x)` in image `n`.
    #[inline]
    pub fn pixel_lanes(&self, n: usize, y: usize, x: usize) -> &[u64] {
        let base = (((n * self.h) + y) * self.w + x) * self.lanes;
        &self.data[base..base + self.lanes]
    }

    /// Raw packed words.
    pub fn words(&self) -> &[u64] {
        &self.data
    }

    /// Re-shape this container for `[n, c, h, w]` reusing the
    /// allocation, leaving the words unspecified — the seat for
    /// [`crate::layers::RSign::binarize_nhwc_packed_with`], which stores
    /// every word whole (tail bits at and above `c` zero).
    pub(crate) fn reset_for_overwrite(&mut self, n: usize, c: usize, h: usize, w: usize) {
        let lanes = lanes_for(c);
        if self.data.len() != n * h * w * lanes {
            self.data.clear();
            self.data.resize(n * h * w * lanes, 0);
        }
        self.n = n;
        self.channels = c;
        self.h = h;
        self.w = w;
        self.lanes = lanes;
    }

    /// Mutable raw packed words, for the fused sign→pack writer.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Unpack back to a flat [`BitTensor`] of shape `[N, C, H, W]`.
    pub fn unpack(&self) -> BitTensor {
        let mut t = BitTensor::zeros(&[self.n, self.channels, self.h, self.w]);
        for img in 0..self.n {
            for y in 0..self.h {
                for x in 0..self.w {
                    let lanes = self.pixel_lanes(img, y, x);
                    for ch in 0..self.channels {
                        if (lanes[ch / LANE_BITS] >> (ch % LANE_BITS)) & 1 == 1 {
                            let i = t.idx4(img, ch, y, x);
                            t.set(i, true);
                        }
                    }
                }
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn random_bits(shape: &[usize], seed: u64) -> BitTensor {
        // Simple deterministic LCG so tests don't need rand here.
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
    fn kernel_pack_unpack_roundtrip() {
        let w = random_bits(&[4, 70, 3, 3], 42);
        let pk = PackedKernel::pack(&w).unwrap();
        assert_eq!(pk.lanes(), 2); // 70 channels -> 2 lanes
        assert_eq!(pk.unpack(), w);
    }

    #[test]
    fn activation_pack_unpack_roundtrip() {
        let a = random_bits(&[2, 130, 5, 4], 7);
        let pa = PackedActivations::pack(&a).unwrap();
        assert_eq!(pa.lanes(), 3);
        assert_eq!(pa.unpack(), a);
    }

    #[test]
    fn pack_rejects_non_4d() {
        let t = BitTensor::zeros(&[4, 4]);
        assert!(PackedKernel::pack(&t).is_err());
        assert!(PackedActivations::pack(&t).is_err());
    }

    #[test]
    fn fig5_example_two_channels() {
        // Paper Fig. 5: a 2-channel 3x3 kernel is packed into nine 2-bit
        // registers, one per position, bit 0 = channel a, bit 1 = channel b.
        let mut w = BitTensor::zeros(&[1, 2, 3, 3]);
        // Channel 0: set position (0,0); channel 1: set positions (0,0),(2,2).
        let i = w.idx4(0, 0, 0, 0);
        w.set(i, true);
        let i = w.idx4(0, 1, 0, 0);
        w.set(i, true);
        let i = w.idx4(0, 1, 2, 2);
        w.set(i, true);
        let pk = PackedKernel::pack(&w).unwrap();
        assert_eq!(pk.lanes(), 1);
        assert_eq!(pk.position_lanes(0, 0)[0], 0b11); // both channels at (0,0)
        assert_eq!(pk.position_lanes(0, 8)[0], 0b10); // only channel 1 at (2,2)
        for p in 1..8 {
            assert_eq!(pk.position_lanes(0, p)[0], 0);
        }
    }

    #[test]
    fn lane_alignment_matches_between_kernel_and_activations() {
        // The same channel index must land in the same lane/bit in both
        // containers, otherwise xnor lanes would be misaligned.
        let c = 100;
        let mut w = BitTensor::zeros(&[1, c, 1, 1]);
        let mut a = BitTensor::zeros(&[1, c, 1, 1]);
        let ch = 77;
        let i = w.idx4(0, ch, 0, 0);
        w.set(i, true);
        let i = a.idx4(0, ch, 0, 0);
        a.set(i, true);
        let pk = PackedKernel::pack(&w).unwrap();
        let pa = PackedActivations::pack(&a).unwrap();
        assert_eq!(pk.position_lanes(0, 0), pa.pixel_lanes(0, 0, 0));
    }

    #[test]
    fn from_lane_words_matches_pack() {
        // Feeding pack()'s own words back through the streaming-side
        // constructor must reproduce the kernel exactly.
        for c in [1usize, 63, 64, 65, 130] {
            let w = random_bits(&[3, c, 3, 3], c as u64 ^ 0x5EED);
            let pk = PackedKernel::pack(&w).unwrap();
            let rebuilt = PackedKernel::from_lane_words(3, c, 3, 3, pk.words().to_vec()).unwrap();
            assert_eq!(rebuilt, pk, "c = {c}");
            assert_eq!(rebuilt.unpack(), w, "c = {c}");
        }
    }

    #[test]
    fn from_lane_words_masks_tail_lane_padding() {
        // 70 channels -> lane 1 holds 6 real bits; garbage above them must
        // be cleared so popcounts stay exact.
        let lanes = crate::lanes_for(70);
        let words = vec![u64::MAX; 9 * lanes];
        let pk = PackedKernel::from_lane_words(1, 70, 3, 3, words).unwrap();
        for p in 0..9 {
            assert_eq!(pk.position_lanes(0, p)[1], (1u64 << 6) - 1);
        }
        let t = pk.unpack();
        assert!((0..t.len()).all(|i| t.get(i)));
    }

    #[test]
    fn from_lane_words_rejects_bad_shapes() {
        assert!(PackedKernel::from_lane_words(0, 4, 3, 3, vec![]).is_err());
        assert!(PackedKernel::from_lane_words(1, 0, 3, 3, vec![]).is_err());
        assert!(PackedKernel::from_lane_words(1, 4, 3, 3, vec![0; 8]).is_err());
        assert!(PackedKernel::from_lane_words(1, 4, 3, 3, vec![0; 10]).is_err());
        assert!(PackedKernel::from_lane_words(1, 4, 3, 3, vec![0; 9]).is_ok());
    }

    #[test]
    fn storage_bytes_counts_lane_padding() {
        let w = BitTensor::zeros(&[2, 65, 3, 3]);
        let pk = PackedKernel::pack(&w).unwrap();
        // 65 channels -> 2 lanes; 2 filters * 9 positions * 2 lanes * 8 bytes.
        assert_eq!(pk.storage_bytes(), 2 * 9 * 2 * 8);
    }

    /// The per-bit scatter [`pack_group`] replaces.
    fn naive_pack_group(seqs: &[u16; LANE_BITS]) -> [u64; 9] {
        let mut words = [0u64; 9];
        for (j, &s) in seqs.iter().enumerate() {
            for (p, word) in words.iter_mut().enumerate() {
                *word |= u64::from((s >> (8 - p)) & 1) << j;
            }
        }
        words
    }

    /// Every dispatch level this CPU can run.
    fn host_levels() -> Vec<SimdLevel> {
        let f = crate::simd::detect();
        [
            (SimdLevel::Portable, true),
            (SimdLevel::Avx2, f.avx2),
            (SimdLevel::Avx512, f.avx512),
        ]
        .into_iter()
        .filter_map(|(level, ok)| ok.then_some(level))
        .collect()
    }

    #[test]
    fn pack_group_fixed_patterns() {
        let mut seqs = [0u16; LANE_BITS];
        seqs[0] = 0b1_0000_0000; // position (0,0) of channel 0
        seqs[63] = 0b0_0000_0001; // position (2,2) of channel 63
        seqs[9] = 0x1FF;
        for level in host_levels() {
            let w = pack_group_at(level, &seqs);
            assert_eq!(w[0], 1 | 1 << 9, "{level}");
            assert_eq!(w[8], 1 << 63 | 1 << 9, "{level}");
            for (p, &word) in w.iter().enumerate().take(8).skip(1) {
                assert_eq!(word, 1 << 9, "{level} position {p}");
            }
            assert_eq!(pack_group_at(level, &[0x1FF; LANE_BITS]), [u64::MAX; 9]);
            assert_eq!(pack_group_at(level, &[0; LANE_BITS]), [0; 9]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pack_group_matches_naive_scatter_at_every_level(
            raw in proptest::collection::vec(0u16..512, LANE_BITS),
            used in 1usize..=LANE_BITS,
        ) {
            // A tail group of `used` sequences leaves the rest zero.
            let mut seqs = [0u16; LANE_BITS];
            seqs[..used].copy_from_slice(&raw[..used]);
            let want = naive_pack_group(&seqs);
            for level in host_levels() {
                prop_assert_eq!(pack_group_at(level, &seqs), want, "{} used {}", level, used);
            }
            prop_assert_eq!(pack_group(&seqs), want);
            if used < LANE_BITS {
                prop_assert!(want.iter().all(|w| w >> used == 0));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn kernel_roundtrip_any_shape(
            k in 1usize..4, c in 1usize..130, kh in 1usize..4, kw in 1usize..4, seed in any::<u64>()
        ) {
            let w = random_bits(&[k, c, kh, kw], seed);
            let pk = PackedKernel::pack(&w).unwrap();
            prop_assert_eq!(pk.unpack(), w);
        }

        #[test]
        fn activations_roundtrip_any_shape(
            n in 1usize..3, c in 1usize..130, h in 1usize..5, w in 1usize..5, seed in any::<u64>()
        ) {
            let a = random_bits(&[n, c, h, w], seed);
            let pa = PackedActivations::pack(&a).unwrap();
            prop_assert_eq!(pa.unpack(), a);
        }
    }
}
