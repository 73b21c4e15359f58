//! Lane-level bit primitives.
//!
//! Everything in the binary fast path reduces to three operations on 64-bit
//! lanes: xnor, popcount, and masked popcount for partially-filled lanes.
//! The paper evaluates on ARMv8 NEON (`veorq`/`vmvnq`/`vcntq`); on x86-64
//! `u64::count_ones` compiles to `popcnt`, so a `u64` lane is the portable
//! equivalent used throughout this crate.

/// Xnor of two lanes: a bit is set where the operands agree.
///
/// In the ±1 domain this is exactly element-wise multiplication
/// (paper Eq. 2): `+1 * +1 = +1`, `-1 * -1 = +1`, otherwise `-1`.
#[inline(always)]
pub fn xnor(a: u64, b: u64) -> u64 {
    !(a ^ b)
}

/// Popcount of a lane.
#[inline(always)]
pub fn popcount(x: u64) -> u32 {
    x.count_ones()
}

/// Xnor + popcount of two full lanes.
#[inline(always)]
pub fn xnor_popcount(a: u64, b: u64) -> u32 {
    xnor(a, b).count_ones()
}

/// Xnor + popcount over the low `n` bits only (`n <= 64`).
///
/// Used for the final, partially-filled lane when the channel count is not
/// a multiple of 64. The high bits of the lane are treated as absent rather
/// than as `-1` values.
///
/// # Panics
///
/// Panics in debug builds if `n > 64`.
#[inline(always)]
#[cfg(test)]
fn xnor_popcount_masked(a: u64, b: u64, n: usize) -> u32 {
    debug_assert!(n <= 64);
    (xnor(a, b) & mask(n)).count_ones()
}

/// A mask with the low `n` bits set (`n <= 64`).
#[inline(always)]
pub fn mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Convert a popcount over `n` bits into the ±1-domain dot product.
///
/// If `p` bits agreed out of `n`, the dot product is `p - (n - p) = 2p - n`.
#[inline(always)]
#[cfg(test)]
fn popcount_to_dot(p: u32, n: usize) -> i32 {
    2 * p as i32 - n as i32
}

/// Software SWAR popcount (no `popcnt` instruction), kept as a reference
/// implementation and for the simulator's cost model of targets without a
/// native popcount.
///
/// This is the classic parallel bit-count; it matches `u64::count_ones`
/// bit-for-bit and is exercised against it by the property tests below.
#[inline]
pub fn popcount_swar(mut x: u64) -> u32 {
    x -= (x >> 1) & 0x5555_5555_5555_5555;
    x = (x & 0x3333_3333_3333_3333) + ((x >> 2) & 0x3333_3333_3333_3333);
    x = (x + (x >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    ((x.wrapping_mul(0x0101_0101_0101_0101)) >> 56) as u32
}

/// Accumulate xnor-popcounts across two lane slices of equal length.
///
/// This is the inner loop of every binary convolution and GEMM in the
/// crate; keeping it in one place lets the benches measure it in isolation.
///
/// Four *independent* accumulators break the `acc += popcount(..)` addition
/// dependency chain, so the CPU can keep several `popcnt`s in flight — the
/// same multi-accumulator trick daBNN's NEON kernel uses across 128-bit
/// registers.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline(always)]
pub fn xnor_popcount_slice(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "lane slices must have equal length");
    let mut acc = [0u32; 4];
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        acc[0] += xnor_popcount(ca[0], cb[0]);
        acc[1] += xnor_popcount(ca[1], cb[1]);
        acc[2] += xnor_popcount(ca[2], cb[2]);
        acc[3] += xnor_popcount(ca[3], cb[3]);
    }
    for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        acc[0] += xnor_popcount(x, y);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// OR the low `nbits` bits of `src` into `dst`, starting at bit offset
/// `off` of `dst`.
///
/// This is the word-at-a-time bit blit used by the reference im2col
/// lowering and kernel flattener: an unaligned copy of a packed bit run without touching
/// individual bits. Bits of `src` beyond `nbits` must be zero (the packed
/// containers guarantee clean tails), and the destination range must
/// already be zero or the result is the OR of both.
///
/// # Panics
///
/// Panics if `dst` is too short to hold bit `off + nbits - 1`.
#[inline]
pub fn or_bits(dst: &mut [u64], off: usize, src: &[u64], nbits: usize) {
    if nbits == 0 {
        return;
    }
    let nw = nbits.div_ceil(64);
    let word = off / 64;
    let shift = off % 64;
    debug_assert!(src[..nw].iter().enumerate().all(|(i, &w)| {
        let used = (nbits - i * 64).min(64);
        used == 64 || w & !mask(used) == 0
    }));
    if shift == 0 {
        for (d, &s) in dst[word..word + nw].iter_mut().zip(&src[..nw]) {
            *d |= s;
        }
    } else {
        for (i, &v) in src[..nw].iter().enumerate() {
            dst[word + i] |= v << shift;
            let hi = v >> (64 - shift);
            if hi != 0 {
                dst[word + i + 1] |= hi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn xnor_agrees_with_sign_multiplication() {
        // bit 1 = +1, bit 0 = -1; xnor bit is 1 iff the product is +1.
        for a in 0..2u64 {
            for b in 0..2u64 {
                let sa = if a == 1 { 1i32 } else { -1 };
                let sb = if b == 1 { 1i32 } else { -1 };
                let x = xnor(a, b) & 1;
                assert_eq!(x == 1, sa * sb == 1);
            }
        }
    }

    #[test]
    fn mask_edges() {
        assert_eq!(mask(0), 0);
        assert_eq!(mask(1), 1);
        assert_eq!(mask(63), u64::MAX >> 1);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    fn popcount_to_dot_known_values() {
        assert_eq!(popcount_to_dot(9, 9), 9); // all agree
        assert_eq!(popcount_to_dot(0, 9), -9); // all disagree
        assert_eq!(popcount_to_dot(5, 9), 1);
    }

    #[test]
    fn slice_accumulator_matches_scalar_loop() {
        let a: Vec<u64> = (0..13)
            .map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1))
            .collect();
        let b: Vec<u64> = (0..13)
            .map(|i| 0xc2b2_ae3d_27d4_eb4fu64.wrapping_mul(i + 3))
            .collect();
        let expect: u32 = a.iter().zip(&b).map(|(&x, &y)| xnor_popcount(x, y)).sum();
        assert_eq!(xnor_popcount_slice(&a, &b), expect);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn slice_accumulator_rejects_mismatched_lengths() {
        xnor_popcount_slice(&[0], &[0, 1]);
    }

    #[test]
    fn or_bits_aligned_and_unaligned() {
        let src = [0b1011u64, 0b1];
        let mut dst = [0u64; 3];
        or_bits(&mut dst, 0, &src, 65);
        assert_eq!(dst, [0b1011, 0b1, 0]);
        let mut dst = [0u64; 3];
        or_bits(&mut dst, 62, &src, 65);
        // bit 0 of src -> bit 62, bit 1 -> 63, bit 3 -> 65, bit 64 -> 126.
        assert_eq!(dst[0], 0b11 << 62);
        assert_eq!(dst[1], 0b10 | (1 << 62));
        assert_eq!(dst[2], 0);
        // Two separate blits compose to the same result.
        let mut dst2 = [0u64; 3];
        or_bits(&mut dst2, 62, &[0b1011], 4);
        or_bits(&mut dst2, 126, &[0b1], 1);
        assert_eq!(dst2, dst);
    }

    proptest! {
        #[test]
        fn or_bits_matches_per_bit_copy(
            bits in proptest::collection::vec(any::<bool>(), 1..150),
            off in 0usize..130
        ) {
            let mut src = vec![0u64; bits.len().div_ceil(64)];
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    src[i / 64] |= 1 << (i % 64);
                }
            }
            let total = off + bits.len();
            let mut dst = vec![0u64; total.div_ceil(64)];
            or_bits(&mut dst, off, &src, bits.len());
            for (i, &b) in bits.iter().enumerate() {
                let j = off + i;
                prop_assert_eq!((dst[j / 64] >> (j % 64)) & 1 == 1, b, "bit {}", i);
            }
            // No stray bits outside the target range.
            let set: u32 = dst.iter().map(|w| w.count_ones()).sum();
            prop_assert_eq!(set as usize, bits.iter().filter(|&&b| b).count());
        }
    }

    proptest! {
        #[test]
        fn swar_matches_native(x in any::<u64>()) {
            prop_assert_eq!(popcount_swar(x), x.count_ones());
        }

        #[test]
        fn masked_popcount_never_exceeds_n(a in any::<u64>(), b in any::<u64>(), n in 0usize..=64) {
            prop_assert!(xnor_popcount_masked(a, b, n) <= n as u32);
        }

        #[test]
        fn slice_accumulator_matches_per_lane_count_ones(
            pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..40)
        ) {
            // Cross-check the unrolled multi-accumulator path against the
            // definitional per-lane xnor + count_ones sum.
            let a: Vec<u64> = pairs.iter().map(|p| p.0).collect();
            let b: Vec<u64> = pairs.iter().map(|p| p.1).collect();
            let expect: u32 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (!(x ^ y)).count_ones())
                .sum();
            prop_assert_eq!(xnor_popcount_slice(&a, &b), expect);
        }

        #[test]
        fn xnor_is_commutative(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(xnor(a, b), xnor(b, a));
        }

        #[test]
        fn xnor_self_is_all_ones(a in any::<u64>()) {
            prop_assert_eq!(xnor(a, a), u64::MAX);
        }
    }
}
