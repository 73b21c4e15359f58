//! Binary GEMM over packed row matrices.
//!
//! Dense layers and 1×1 convolutions reduce to a binary matrix multiply:
//! `out[m][n] = <A_row_m, B_row_n>` in the ±1 domain, computed as
//! `2 * popcount(xnor) - K` (paper Eq. 2).
//!
//! Two implementations are provided:
//!
//! * [`gemm_binary`] — the register-blocked fast path. A 4×4
//!   micro-kernel keeps one tile of 16 output accumulators live across
//!   the whole lane loop, so every loaded activation lane is reused 4
//!   times and every weight lane 4 times, and the independent
//!   accumulators break the popcount addition dependency chain (the daBNN
//!   register-tiling idea on `u64` lanes). Rows of at most two lanes take
//!   a short-row loop instead. The blocking is fixed; only the ISA
//!   instantiation (portable / AVX2 / AVX-512 `vpopcntq`) follows the
//!   detected dispatch level.
//! * [`gemm_binary_naive`] — the seed's scalar row-by-row loop, kept
//!   bit-identical as the perf-tracking baseline and as a second
//!   implementation for cross-checking.
//!
//! # Clean-tail invariant
//!
//! When `cols` is not a multiple of 64, the unused high bits of each row's
//! last lane must be **zero** in both operands. All constructors and
//! [`PackedMatrix::set`] maintain this; the fast path exploits it by
//! counting the tail zeros as agreements and subtracting the constant
//! correction afterwards instead of masking inside the inner loop.

use crate::bitword::xnor_popcount_slice;
use crate::error::{BitnnError, Result};
use crate::ops::dot::dot_channels_seed;
use crate::simd;
use crate::{lanes_for, LANE_BITS};

/// A binary matrix stored row-major with each row packed into `u64` lanes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    lanes: usize,
    data: Vec<u64>,
}

impl PackedMatrix {
    /// All-zero (all `-1`) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let lanes = lanes_for(cols);
        PackedMatrix {
            rows,
            cols,
            lanes,
            data: vec![0; rows * lanes],
        }
    }

    /// Re-shape this matrix to `rows × cols` and clear every bit, reusing
    /// the existing allocation when it is large enough.
    ///
    /// This is the scratch-buffer entry point: the im2col lowering calls it
    /// once per layer instead of allocating a fresh matrix.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.lanes = lanes_for(cols);
        self.data.clear();
        self.data.resize(rows * self.lanes, 0);
    }

    /// Build from booleans in row-major order.
    ///
    /// Bits are packed a word at a time: each group of 64 booleans is
    /// assembled in a register and stored with a single write.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::ShapeMismatch`] on length mismatch.
    pub fn from_bools(rows: usize, cols: usize, bits: &[bool]) -> Result<Self> {
        if bits.len() != rows * cols {
            return Err(BitnnError::ShapeMismatch {
                expected: format!("{} bits", rows * cols),
                got: format!("{}", bits.len()),
            });
        }
        let mut m = PackedMatrix::zeros(rows, cols);
        if cols == 0 {
            return Ok(m);
        }
        for (row_bits, row) in bits.chunks(cols).zip(m.data.chunks_mut(m.lanes)) {
            for (chunk, word) in row_bits.chunks(LANE_BITS).zip(row.iter_mut()) {
                let mut w = 0u64;
                for (i, &b) in chunk.iter().enumerate() {
                    w |= (b as u64) << i;
                }
                *word = w;
            }
        }
        Ok(m)
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column (bit) count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Lanes per row.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Set a bit.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: bool) {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of range");
        let idx = r * self.lanes + c / LANE_BITS;
        if v {
            self.data[idx] |= 1 << (c % LANE_BITS);
        } else {
            self.data[idx] &= !(1 << (c % LANE_BITS));
        }
    }

    /// Read a bit.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of range");
        (self.data[r * self.lanes + c / LANE_BITS] >> (c % LANE_BITS)) & 1 == 1
    }

    /// The packed lanes of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.data[r * self.lanes..(r + 1) * self.lanes]
    }

    /// Mutable packed lanes of row `r`.
    ///
    /// Callers must keep the clean-tail invariant: bits at column indices
    /// `>= cols()` in the last lane must stay zero, or the GEMM fast path
    /// will count them as agreements.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.data[r * self.lanes..(r + 1) * self.lanes]
    }

    /// Raw words.
    pub fn words(&self) -> &[u64] {
        &self.data
    }

    /// Raw words, mutable. Same clean-tail caveat as [`Self::row_mut`].
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Check the clean-tail invariant (used by tests and debug assertions).
    pub fn tails_clean(&self) -> bool {
        let rem = self.cols % LANE_BITS;
        if rem == 0 || self.lanes == 0 {
            return true;
        }
        let tail = !crate::bitword::mask(rem);
        (0..self.rows).all(|r| self.data[(r + 1) * self.lanes - 1] & tail == 0)
    }
}

/// Rows of at most this many lanes (K ≤ 128 bits) take the short-row loop
/// instead of the register-blocked tiles.
const SHORT_ROW_LANES: usize = 2;

/// The register-blocked inner tile: `MR` rows of `a` against `NR` rows of
/// `b`, all lanes, `MR*NR` independent accumulators.
#[inline(always)]
fn microkernel<const MR: usize, const NR: usize>(
    a: &[u64],
    b: &[u64],
    lanes: usize,
) -> [[u32; NR]; MR] {
    // Real (non-debug) asserts so the bounds checks below are elided.
    assert_eq!(a.len(), MR * lanes);
    assert_eq!(b.len(), NR * lanes);
    let mut acc = [[0u32; NR]; MR];
    for l in 0..lanes {
        let mut w = [0u64; NR];
        for (ni, wl) in w.iter_mut().enumerate() {
            *wl = b[ni * lanes + l];
        }
        for (mi, row) in acc.iter_mut().enumerate() {
            let x = a[mi * lanes + l];
            for (ni, cell) in row.iter_mut().enumerate() {
                *cell += (!(x ^ w[ni])).count_ones();
            }
        }
    }
    acc
}

/// The `MR×NR`-blocked tiling loop over a band of `a` rows, with edge
/// tiles falling back to plain slice dots. `corr` is the clean-tail
/// correction already computed by the caller.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_rows_blocked<const MR: usize, const NR: usize>(
    a_words: &[u64],
    b_words: &[u64],
    lanes: usize,
    corr: i32,
    bn: usize,
    m_start: usize,
    m_count: usize,
    out: &mut [i32],
) {
    let mut m = 0;
    while m + MR <= m_count {
        let a_tile = &a_words[(m_start + m) * lanes..(m_start + m + MR) * lanes];
        let mut n = 0;
        while n + NR <= bn {
            let b_tile = &b_words[n * lanes..(n + NR) * lanes];
            let acc = microkernel::<MR, NR>(a_tile, b_tile, lanes);
            for (mi, row) in acc.iter().enumerate() {
                for (ni, &cell) in row.iter().enumerate() {
                    out[(m + mi) * bn + n + ni] = 2 * cell as i32 - corr;
                }
            }
            n += NR;
        }
        while n < bn {
            let rb = &b_words[n * lanes..(n + 1) * lanes];
            for mi in 0..MR {
                let ra = &a_tile[mi * lanes..(mi + 1) * lanes];
                out[(m + mi) * bn + n] = 2 * xnor_popcount_slice(ra, rb) as i32 - corr;
            }
            n += 1;
        }
        m += MR;
    }
    while m < m_count {
        let ra = &a_words[(m_start + m) * lanes..(m_start + m + 1) * lanes];
        for n in 0..bn {
            let rb = &b_words[n * lanes..(n + 1) * lanes];
            out[m * bn + n] = 2 * xnor_popcount_slice(ra, rb) as i32 - corr;
        }
        m += 1;
    }
}

/// Tiled GEMM over raw packed words for a contiguous band of `a` rows.
///
/// `a_words`/`b_words` are row-major with `lanes` words per row and `k`
/// logical bits per row (clean tails required); `bn` is the number of `b`
/// rows (the output width). Writes ±1-domain dot products for `a` rows
/// `m_start ..` into `out`, whose length determines how many rows are
/// computed. This is the worker body the engine hands to each thread
/// with a disjoint output band; the ISA instantiation follows the
/// detected dispatch level.
#[inline]
pub(crate) fn gemm_rows_into(
    a_words: &[u64],
    b_words: &[u64],
    lanes: usize,
    k: usize,
    bn: usize,
    m_start: usize,
    out: &mut [i32],
) {
    #[cfg(target_arch = "x86_64")]
    {
        /// AVX-512 instantiation of [`gemm_rows_portable`]: `count_ones`
        /// loops compile to hardware `vpopcntq` over 512-bit lanes.
        #[target_feature(enable = "avx512f,avx512bw,avx512vpopcntdq,popcnt")]
        unsafe fn gemm_rows_avx512(
            a_words: &[u64],
            b_words: &[u64],
            lanes: usize,
            k: usize,
            bn: usize,
            m_start: usize,
            out: &mut [i32],
        ) {
            gemm_rows_portable(a_words, b_words, lanes, k, bn, m_start, out);
        }
        /// AVX2+popcnt instantiation of [`gemm_rows_portable`].
        #[target_feature(enable = "avx2,popcnt")]
        unsafe fn gemm_rows_avx2(
            a_words: &[u64],
            b_words: &[u64],
            lanes: usize,
            k: usize,
            bn: usize,
            m_start: usize,
            out: &mut [i32],
        ) {
            gemm_rows_portable(a_words, b_words, lanes, k, bn, m_start, out);
        }
        if simd::avx512() {
            // SAFETY: avx512f/bw/vpopcntdq + popcnt were detected at runtime.
            return unsafe { gemm_rows_avx512(a_words, b_words, lanes, k, bn, m_start, out) };
        }
        if simd::avx2() {
            // SAFETY: avx2 + popcnt were detected at runtime.
            return unsafe { gemm_rows_avx2(a_words, b_words, lanes, k, bn, m_start, out) };
        }
    }
    gemm_rows_portable(a_words, b_words, lanes, k, bn, m_start, out);
}

/// Portable body of [`gemm_rows_into`] — the single source every ISA
/// instantiation compiles from.
#[inline(always)]
fn gemm_rows_portable(
    a_words: &[u64],
    b_words: &[u64],
    lanes: usize,
    k: usize,
    bn: usize,
    m_start: usize,
    out: &mut [i32],
) {
    if bn == 0 {
        return;
    }
    debug_assert_eq!(out.len() % bn, 0);
    let m_count = out.len() / bn;
    // Tail zeros xnor to agreements; subtract them once per output.
    let corr = (2 * (lanes * LANE_BITS - k) + k) as i32;
    if lanes == 0 {
        out.fill(0); // zero-width rows: every dot is empty
        return;
    }
    if lanes <= SHORT_ROW_LANES {
        // Short-row fast path (K ≤ 128 bits, e.g. the narrow layers of
        // small models): the MR×NR tile's per-call bookkeeping would cost
        // more than its two-lane dot, so stream each `a` row against all
        // `b` rows with the row lanes held in registers and contiguous
        // writes. The compact trip counts vectorize well.
        for (m, orow) in out.chunks_mut(bn).enumerate() {
            let base = (m_start + m) * lanes;
            let a0 = a_words[base];
            let a1 = if lanes > 1 { a_words[base + 1] } else { 0 };
            for (n, o) in orow.iter_mut().enumerate() {
                let mut p = (!(a0 ^ b_words[n * lanes])).count_ones();
                if lanes > 1 {
                    p += (!(a1 ^ b_words[n * lanes + 1])).count_ones();
                }
                *o = 2 * p as i32 - corr;
            }
        }
        return;
    }
    gemm_rows_blocked::<4, 4>(a_words, b_words, lanes, corr, bn, m_start, m_count, out);
}

/// Kept only for `bnnkc-bench`, which times it as a tuning step; delete
/// it with the bench's next change. The GEMM blocking is fixed, so there
/// is nothing to warm and the list is always empty.
pub fn warm_gemm_tables() -> Vec<simd::GemmChoice> {
    simd::gemm_choices()
}

/// The name of the kernel that serves rows of `lanes` lane words, for
/// measurement labels: `"short-row"` or the fixed `"4x4"` blocking.
pub fn gemm_kernel_name(lanes: usize) -> &'static str {
    if lanes <= SHORT_ROW_LANES {
        "short-row"
    } else {
        "4x4"
    }
}

/// Binary GEMM: `out[m][n] = dot(a.row(m), b.row(n))` in the ±1 domain.
///
/// `b` is interpreted row-wise (i.e. already "transposed"): each row of `b`
/// is one output column's weight vector, which matches how binary dense
/// layers store one packed row per output neuron. This is the
/// register-blocked fast path; see [`gemm_binary_naive`] for the scalar
/// baseline it is cross-checked against.
///
/// # Errors
///
/// Returns [`BitnnError::DimMismatch`] if the inner dimensions differ.
pub fn gemm_binary(a: &PackedMatrix, b: &PackedMatrix) -> Result<Vec<i32>> {
    let mut out = Vec::new();
    gemm_binary_into(a, b, &mut out)?;
    Ok(out)
}

/// [`gemm_binary`] writing into a reusable output buffer.
///
/// The buffer is cleared and resized to `a.rows() * b.rows()`; its
/// allocation is reused across calls.
///
/// # Errors
///
/// Returns [`BitnnError::DimMismatch`] if the inner dimensions differ.
pub fn gemm_binary_into(a: &PackedMatrix, b: &PackedMatrix, out: &mut Vec<i32>) -> Result<()> {
    if a.cols != b.cols {
        return Err(BitnnError::DimMismatch {
            op: "gemm_binary",
            lhs: vec![a.rows, a.cols],
            rhs: vec![b.rows, b.cols],
        });
    }
    debug_assert!(a.tails_clean() && b.tails_clean());
    // Length-only resize: every element is written by the kernel below.
    let n = a.rows * b.rows;
    if out.len() != n {
        out.clear();
        out.resize(n, 0);
    }
    gemm_rows_into(&a.data, &b.data, a.lanes, a.cols, b.rows, 0, out);
    Ok(())
}

/// The seed's scalar binary GEMM: one single-accumulator channel dot per
/// output element, no tiling, no unrolling.
///
/// Kept bit-identical to the original implementation (including the seed's
/// original lane loop) as the perf-tracking baseline that `perfsuite`
/// reports the tiled kernel's speedup against, and as an independent
/// oracle for the property tests.
///
/// # Errors
///
/// Returns [`BitnnError::DimMismatch`] if the inner dimensions differ.
pub fn gemm_binary_naive(a: &PackedMatrix, b: &PackedMatrix) -> Result<Vec<i32>> {
    if a.cols != b.cols {
        return Err(BitnnError::DimMismatch {
            op: "gemm_binary",
            lhs: vec![a.rows, a.cols],
            rhs: vec![b.rows, b.cols],
        });
    }
    let k = a.cols;
    let mut out = vec![0i32; a.rows * b.rows];
    for m in 0..a.rows {
        let ra = a.row(m);
        for n in 0..b.rows {
            let agree = dot_channels_seed(ra, b.row(n), k);
            out[m * b.rows + n] = 2 * agree as i32 - k as i32;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sign(b: bool) -> i32 {
        if b {
            1
        } else {
            -1
        }
    }

    fn reference_gemm(a: &[bool], b: &[bool], m: usize, n: usize, k: usize) -> Vec<i32> {
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = (0..k)
                    .map(|x| sign(a[i * k + x]) * sign(b[j * k + x]))
                    .sum();
            }
        }
        out
    }

    fn random_bits(n: usize, seed: u64) -> Vec<bool> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s >> 63 == 1
            })
            .collect()
    }

    #[test]
    fn identity_like_product() {
        // Row equal to itself -> +k; complement -> -k.
        let k = 100;
        let bits: Vec<bool> = (0..k).map(|i| i % 3 == 0).collect();
        let nbits: Vec<bool> = bits.iter().map(|b| !b).collect();
        let a = PackedMatrix::from_bools(1, k, &bits).unwrap();
        let mut b_bits = bits.clone();
        b_bits.extend_from_slice(&nbits);
        let b = PackedMatrix::from_bools(2, k, &b_bits).unwrap();
        let out = gemm_binary(&a, &b).unwrap();
        assert_eq!(out, vec![k as i32, -(k as i32)]);
    }

    #[test]
    fn dim_mismatch_is_error() {
        let a = PackedMatrix::zeros(2, 10);
        let b = PackedMatrix::zeros(3, 11);
        assert!(matches!(
            gemm_binary(&a, &b),
            Err(BitnnError::DimMismatch { .. })
        ));
        assert!(matches!(
            gemm_binary_naive(&a, &b),
            Err(BitnnError::DimMismatch { .. })
        ));
    }

    #[test]
    fn set_get_roundtrip_cross_lane() {
        let mut m = PackedMatrix::zeros(2, 130);
        m.set(1, 129, true);
        m.set(0, 63, true);
        m.set(0, 64, true);
        assert!(m.get(1, 129) && m.get(0, 63) && m.get(0, 64));
        assert!(!m.get(1, 128));
        m.set(0, 64, false);
        assert!(!m.get(0, 64));
        assert!(m.tails_clean());
    }

    #[test]
    fn from_bools_packs_words_and_keeps_tails_clean() {
        let bits: Vec<bool> = (0..2 * 70).map(|i| i % 7 == 0).collect();
        let m = PackedMatrix::from_bools(2, 70, &bits).unwrap();
        assert!(m.tails_clean());
        for r in 0..2 {
            for c in 0..70 {
                assert_eq!(m.get(r, c), bits[r * 70 + c], "({r},{c})");
            }
        }
    }

    #[test]
    fn reset_reuses_and_clears() {
        let bits = vec![true; 2 * 70];
        let mut m = PackedMatrix::from_bools(2, 70, &bits).unwrap();
        m.reset(3, 40);
        assert_eq!((m.rows(), m.cols(), m.lanes()), (3, 40, 1));
        assert!(m.words().iter().all(|&w| w == 0));
        assert!(m.tails_clean());
    }

    #[test]
    fn tiled_covers_all_tile_edges() {
        // Row/column counts straddling the 4×4 tile boundaries, lane
        // counts either side of the short-row cut, and a ragged K to
        // exercise the tail-correction.
        for &(m, n) in &[
            (1, 1),
            (3, 2),
            (4, 2),
            (4, 4),
            (5, 3),
            (7, 8),
            (8, 7),
            (9, 5),
            (12, 5),
            (13, 13),
        ] {
            for &k in &[1usize, 63, 64, 65, 129, 193, 200, 257, 320, 833] {
                let a_bits = random_bits(m * k, (m * 31 + n * 7 + k) as u64);
                let b_bits = random_bits(n * k, (m * 17 + n * 3 + k) as u64 ^ 0xABCD);
                let a = PackedMatrix::from_bools(m, k, &a_bits).unwrap();
                let b = PackedMatrix::from_bools(n, k, &b_bits).unwrap();
                let tiled = gemm_binary(&a, &b).unwrap();
                let naive = gemm_binary_naive(&a, &b).unwrap();
                assert_eq!(tiled, naive, "m={m} n={n} k={k}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn gemm_matches_reference(
            m in 1usize..7, n in 1usize..7, k in 1usize..150,
            seed in any::<u64>()
        ) {
            let a_bits = random_bits(m * k, seed);
            let b_bits = random_bits(n * k, !seed);
            let a = PackedMatrix::from_bools(m, k, &a_bits).unwrap();
            let b = PackedMatrix::from_bools(n, k, &b_bits).unwrap();
            let expect = reference_gemm(&a_bits, &b_bits, m, n, k);
            prop_assert_eq!(gemm_binary(&a, &b).unwrap(), expect.clone());
            prop_assert_eq!(gemm_binary_naive(&a, &b).unwrap(), expect);
        }
    }
}
