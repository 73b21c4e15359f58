//! Binary GEMM over packed row matrices.
//!
//! Dense layers and 1×1 convolutions reduce to a binary matrix multiply:
//! `out[m][n] = <A_row_m, B_row_n>` in the ±1 domain, computed as
//! `2 * popcount(xnor) - K` (paper Eq. 2).
//!
//! Two implementations are provided:
//!
//! * [`gemm_binary`] — the fast path, one kernel over [`BinaryPanels`].
//! * [`gemm_binary_naive`] — the seed's scalar row-by-row loop, kept
//!   bit-identical as the perf-tracking baseline and as a second
//!   implementation for cross-checking.
//!
//! # Panel layout
//!
//! The weight rows (one per output filter, `lanes` words each) are cut into
//! panels of 8 filters stored `[panel][lane][filter]`: word `l` of filter
//! `8p + j` lives at `(p · lanes + l) · 8 + j`, so one lane of one panel is
//! 64 contiguous bytes — a zmm register, or two ymm. The last panel is
//! zero-padded to 8 filters. The kernel broadcasts one activation word,
//! XORs it with a panel lane and adds the popcounts into a vector
//! accumulator per (pixel, panel) — no horizontal add is ever needed —
//! and stores each pixel's 8-filter result with a mask that drops the
//! padding filters, straight into the `[pixel][filter]` `i32` output.
//! Three bodies follow [`crate::simd::level`]:
//!
//! * AVX-512: `vpopcntq`, register tiles of 4 pixels × 2 panels.
//! * AVX2: `vpshufb` nibble counts summed by `vpsadbw`, tiles of 4
//!   pixels × 1 panel; rows of one or two lanes take the portable walk.
//! * Portable: one pixel against one panel at a time, `count_ones` into
//!   eight independent accumulators.
//!
//! # Tail rule
//!
//! When `cols` is not a multiple of 64, the unused high bits of each row's
//! last lane must be **zero** in both operands. All constructors and
//! [`PackedMatrix::set`] maintain this. Clean tails XOR to zero, so the
//! kernel computes `dot = K − 2·Σ popcount(a ⊕ w)` with no tail
//! correction and no masking inside the lane loop.

use crate::bitword::or_bits;
use crate::error::{BitnnError, Result};
use crate::ops::dot::dot_channels_seed;
use crate::pack::PackedKernel;
use crate::simd::{self, SimdLevel};
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

/// Filters per weight panel: eight `u64` lane words, one 512-bit register.
const PANEL: usize = 8;

/// Binary weight rows cut into panels of 8 filters — the weight
/// form every binary GEMM runs on (see the module docs for the layout).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BinaryPanels {
    filters: usize,
    cols: usize,
    lanes: usize,
    data: Vec<u64>,
}

impl BinaryPanels {
    fn zeroed(filters: usize, cols: usize) -> Self {
        let lanes = lanes_for(cols);
        BinaryPanels {
            filters,
            cols,
            lanes,
            data: vec![0; filters.div_ceil(PANEL) * PANEL * lanes],
        }
    }

    /// Scatter filter `f`'s packed row (clean tail) into its panel.
    fn set_row(&mut self, f: usize, row: &[u64]) {
        let panel = &mut self.data[f / PANEL * self.lanes * PANEL..][..self.lanes * PANEL];
        for (lane, &w) in panel.chunks_exact_mut(PANEL).zip(row) {
            lane[f % PANEL] = w;
        }
    }

    /// Panels over the rows of `b`, one filter per row.
    pub fn from_matrix(b: &PackedMatrix) -> Self {
        let mut panels = Self::zeroed(b.rows(), b.cols());
        for f in 0..b.rows() {
            panels.set_row(f, b.row(f));
        }
        panels
    }

    /// Panels over a conv kernel in im2col order: one row of `KH·KW·C`
    /// position-major bits per filter, the columns
    /// [`crate::ops::im2col::im2col_pack`] lowers activations to (a 1×1
    /// kernel's row is its channel lanes). When `C` is a multiple of 64,
    /// or the kernel is 1×1, a filter's packed `[position][lane]` words
    /// already are that row; otherwise each position is blitted into place.
    pub fn from_kernel(kernel: &PackedKernel) -> Self {
        let (filters, c) = (kernel.filters(), kernel.channels());
        let positions = kernel.kh() * kernel.kw();
        let mut panels = Self::zeroed(filters, positions * c);
        if positions == 1 || c % LANE_BITS == 0 {
            let words = positions * kernel.lanes();
            for f in 0..filters {
                panels.set_row(f, &kernel.words()[f * words..][..words]);
            }
        } else {
            let mut row = vec![0u64; panels.lanes];
            for f in 0..filters {
                row.fill(0);
                for p in 0..positions {
                    or_bits(&mut row, p * c, kernel.position_lanes(f, p), c);
                }
                panels.set_row(f, &row);
            }
        }
        panels
    }

    /// Filter (output column) count.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Bits per filter row (the GEMM's K).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Lane words per filter row.
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

/// Binary GEMM of a band of packed rows against weight panels:
/// `out[r][f] = K − 2·popcount(a_r ⊕ w_f)` for the `a` rows
/// `m_start .. m_start + out.len() / panels.filters()`, each
/// `panels.lanes()` words with a clean tail. This is the body the engine
/// hands each worker with a disjoint output band; it runs at the detected
/// dispatch level.
pub(crate) fn gemm_panels_into(
    a_words: &[u64],
    panels: &BinaryPanels,
    m_start: usize,
    out: &mut [i32],
) {
    gemm_panels_at(simd::level(), a_words, panels, m_start, out);
}

/// [`gemm_panels_into`] at an explicit dispatch level, clamped to what the
/// CPU has.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn gemm_panels_at(
    level: SimdLevel,
    a_words: &[u64],
    b: &BinaryPanels,
    m_start: usize,
    out: &mut [i32],
) {
    if b.filters == 0 {
        return;
    }
    assert_eq!(out.len() % b.filters, 0, "binary GEMM output band");
    let m = out.len() / b.filters;
    let a = &a_words[m_start * b.lanes..][..m * b.lanes];
    #[cfg(target_arch = "x86_64")]
    {
        let f = simd::detect();
        if level >= SimdLevel::Avx512 && f.avx512 {
            // SAFETY: avx512f + avx512vpopcntdq were detected at runtime.
            return unsafe { x86::gemm_avx512(a, b, out, m) };
        }
        if level >= SimdLevel::Avx2 && f.avx2 {
            // SAFETY: avx2 was detected at runtime.
            return unsafe { x86::gemm_avx2(a, b, out, m) };
        }
    }
    gemm_rows(a, b, out);
}

/// The portable body, and the AVX2 body's for rows of at most
/// `x86::SHORT_ROW_LANES` (two) lanes: each `a` row against every panel in turn,
/// `count_ones` into eight independent accumulators, with no register
/// tiling — software popcounts cost more than a tile's setup saves, and
/// so do one- or two-lane rows unless hardware `vpopcntq` counts.
#[inline(always)]
fn gemm_rows(a: &[u64], b: &BinaryPanels, out: &mut [i32]) {
    let (lanes, k) = (b.lanes, b.cols as i32);
    if lanes == 0 {
        return out.fill(0); // K = 0: every dot is empty
    }
    if lanes == 1 {
        // One lane per filter: the panels are the filters' words in order.
        for (&x, orow) in a.iter().zip(out.chunks_exact_mut(b.filters)) {
            for (o, &w) in orow.iter_mut().zip(&b.data) {
                *o = k - 2 * (x ^ w).count_ones() as i32;
            }
        }
        return;
    }
    for (arow, orow) in a.chunks_exact(lanes).zip(out.chunks_exact_mut(b.filters)) {
        for (w, dst) in b
            .data
            .chunks_exact(lanes * PANEL)
            .zip(orow.chunks_mut(PANEL))
        {
            let mut counts = [0u32; PANEL];
            for (lane, &x) in w.chunks_exact(PANEL).zip(arow) {
                for (c, &wv) in counts.iter_mut().zip(lane) {
                    *c += (x ^ wv).count_ones();
                }
            }
            for (o, &c) in dst.iter_mut().zip(&counts) {
                *o = k - 2 * c as i32;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{gemm_rows, BinaryPanels, PANEL};
    use std::arch::x86_64::*;

    /// Weight bytes per cache block (see [`for_each_tile`]).
    const BLOCK_BYTES: usize = 512 << 10;

    /// Rows of at most this many lanes take [`super::gemm_rows`] in the
    /// AVX2 body, where it beats the register tiles.
    const SHORT_ROW_LANES: usize = 2;

    /// Lanes the AVX2 body accumulates in bytes before flushing them to
    /// `u64` sums: each lane adds at most 8 to a byte, and `31 · 8 = 248`
    /// fits.
    const FLUSH_LANES: usize = 31;

    /// Expand one register tile of `rows ≤ 4` pixels × `np ≤ 2` panels into
    /// the matching const-generic instantiation of `$tile`.
    macro_rules! tile_by_shape {
        ($tile:ident($($arg:expr),*), $rows:expr, $np:expr) => {
            match ($rows, $np) {
                (4, 2) => $tile::<4, 2>($($arg),*),
                (4, _) => $tile::<4, 1>($($arg),*),
                (3, 2) => $tile::<3, 2>($($arg),*),
                (3, _) => $tile::<3, 1>($($arg),*),
                (2, 2) => $tile::<2, 2>($($arg),*),
                (2, _) => $tile::<2, 1>($($arg),*),
                (_, 2) => $tile::<1, 2>($($arg),*),
                _ => $tile::<1, 1>($($arg),*),
            }
        };
    }

    /// Walk the `m × panels` output in register tiles of up to `mr` rows ×
    /// `np` panels. Panels are taken in blocks of about [`BLOCK_BYTES`]
    /// outermost, so a layer whose weights overflow the cache is fetched
    /// once per band rather than once per row tile. `tile(row, rows,
    /// panel, np)` computes one tile.
    #[inline(always)]
    fn for_each_tile(
        m: usize,
        b: &BinaryPanels,
        mr: usize,
        np: usize,
        mut tile: impl FnMut(usize, usize, usize, usize),
    ) {
        let panels = b.filters.div_ceil(PANEL);
        let block = (BLOCK_BYTES / (b.lanes.max(1) * PANEL * 8))
            .max(1)
            .next_multiple_of(np);
        for first in (0..panels).step_by(block) {
            let end = (first + block).min(panels);
            for row in (0..m).step_by(mr) {
                for panel in (first..end).step_by(np) {
                    tile(row, (m - row).min(mr), panel, (end - panel).min(np));
                }
            }
        }
    }

    /// AVX-512 body of [`super::gemm_panels_at`] over `m` rows of `a`.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f` and `avx512vpopcntdq`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub(super) unsafe fn gemm_avx512(a: &[u64], b: &BinaryPanels, out: &mut [i32], m: usize) {
        for_each_tile(m, b, 4, 2, |row, rows, panel, np| {
            // SAFETY: the features are enabled here; `for_each_tile`
            // keeps every tile inside `m` rows and the panel count.
            unsafe { tile_by_shape!(tile_avx512(a, b, out, row, panel), rows, np) }
        });
    }

    /// AVX2 body of [`super::gemm_panels_at`] over `m` rows of `a`.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`.
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn gemm_avx2(a: &[u64], b: &BinaryPanels, out: &mut [i32], m: usize) {
        if (1..=SHORT_ROW_LANES).contains(&b.lanes) {
            return gemm_rows(a, b, out);
        }
        for_each_tile(m, b, 4, 1, |row, rows, panel, np| {
            // SAFETY: as in `gemm_avx512`.
            unsafe { tile_by_shape!(tile_avx2(a, b, out, row, panel), rows, np) }
        });
    }

    /// AVX-512 tile: `R` rows × `P` panels, one zmm of eight `u64`
    /// `vpopcntq` sums per (row, panel).
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f` and `avx512vpopcntdq`; rows
    /// `row..row + R` of `a` and `out` and panels `panel..panel + P` must
    /// exist.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn tile_avx512<const R: usize, const P: usize>(
        a: &[u64],
        b: &BinaryPanels,
        out: &mut [i32],
        row: usize,
        panel: usize,
    ) {
        let lanes = b.lanes;
        let arows = &a[row * lanes..][..R * lanes];
        let w = &b.data[panel * lanes * PANEL..][..P * lanes * PANEL];
        let mut acc = [[_mm512_setzero_si512(); P]; R];
        for l in 0..lanes {
            let mut wv = [_mm512_setzero_si512(); P];
            for (p, wv) in wv.iter_mut().enumerate() {
                // SAFETY: lane `l` of panel `p` is 8 in-bounds words.
                *wv = unsafe { _mm512_loadu_si512(w.as_ptr().add((p * lanes + l) * PANEL).cast()) };
            }
            for (r, acc) in acc.iter_mut().enumerate() {
                // SAFETY: row `r`'s lane `l` is in bounds.
                let x = _mm512_set1_epi64(unsafe { *arows.get_unchecked(r * lanes + l) } as i64);
                for (acc, &wv) in acc.iter_mut().zip(&wv) {
                    *acc = _mm512_add_epi64(*acc, _mm512_popcnt_epi64(_mm512_xor_si512(x, wv)));
                }
            }
        }
        let k = _mm512_set1_epi64(b.cols as i64);
        for (r, acc) in acc.iter().enumerate() {
            let orow = &mut out[(row + r) * b.filters..][..b.filters];
            for (p, &acc) in acc.iter().enumerate() {
                let col = (panel + p) * PANEL;
                let valid = (b.filters - col).min(PANEL);
                let dot = _mm512_sub_epi64(k, _mm512_slli_epi64::<1>(acc));
                // SAFETY: the mask covers columns `col..col + valid`, all
                // inside `orow`; `vpmovqd` narrows each exact `i64` dot.
                unsafe {
                    _mm512_mask_cvtepi64_storeu_epi32(
                        orow.as_mut_ptr().add(col).cast(),
                        (0xffu32 >> (PANEL - valid)) as __mmask8,
                        dot,
                    )
                };
            }
        }
    }

    /// AVX2 tile: `R` rows × `P` panels. Each panel's eight filters take
    /// two ymm of `vpshufb` nibble-table byte counts, summed per `u64`
    /// by `vpsadbw` every [`FLUSH_LANES`] lanes, before a byte can
    /// overflow (Muła, Kurz and Lemire, arXiv:1611.07612).
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`; the bounds are as for
    /// [`tile_avx512`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tile_avx2<const R: usize, const P: usize>(
        a: &[u64],
        b: &BinaryPanels,
        out: &mut [i32],
        row: usize,
        panel: usize,
    ) {
        let lanes = b.lanes;
        let arows = &a[row * lanes..][..R * lanes];
        let w = &b.data[panel * lanes * PANEL..][..P * lanes * PANEL];
        let nibble = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let zero = _mm256_setzero_si256();
        let mut acc = [[[zero; 2]; P]; R];
        let mut first = 0;
        while first < lanes {
            let mut bytes = [[[zero; 2]; P]; R];
            let last = (first + FLUSH_LANES).min(lanes);
            for l in first..last {
                let mut wv = [[zero; 2]; P];
                for (p, wv) in wv.iter_mut().enumerate() {
                    for (h, wv) in wv.iter_mut().enumerate() {
                        // SAFETY: half `h` of lane `l` of panel `p` is 4
                        // in-bounds words.
                        *wv = unsafe {
                            _mm256_loadu_si256(
                                w.as_ptr().add((p * lanes + l) * PANEL + 4 * h).cast(),
                            )
                        };
                    }
                }
                for (r, bytes) in bytes.iter_mut().enumerate() {
                    // SAFETY: row `r`'s lane `l` is in bounds.
                    let x =
                        _mm256_set1_epi64x(unsafe { *arows.get_unchecked(r * lanes + l) } as i64);
                    for (bytes, wv) in bytes.iter_mut().zip(&wv) {
                        for (bytes, &wv) in bytes.iter_mut().zip(wv) {
                            let v = _mm256_xor_si256(x, wv);
                            let lo = _mm256_shuffle_epi8(nibble, _mm256_and_si256(v, low));
                            let hi = _mm256_shuffle_epi8(
                                nibble,
                                _mm256_and_si256(_mm256_srli_epi16::<4>(v), low),
                            );
                            *bytes = _mm256_add_epi8(*bytes, _mm256_add_epi8(lo, hi));
                        }
                    }
                }
            }
            for (acc, bytes) in acc.iter_mut().zip(&bytes) {
                for (acc, bytes) in acc.iter_mut().zip(bytes) {
                    for (acc, &bytes) in acc.iter_mut().zip(bytes) {
                        *acc = _mm256_add_epi64(*acc, _mm256_sad_epu8(bytes, zero));
                    }
                }
            }
            first = last;
        }
        let k = _mm256_set1_epi32(b.cols as i32);
        let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        for (r, acc) in acc.iter().enumerate() {
            let orow = &mut out[(row + r) * b.filters..][..b.filters];
            for (p, &[lo, hi]) in acc.iter().enumerate() {
                let col = (panel + p) * PANEL;
                let valid = (b.filters - col).min(PANEL);
                // The low dword of each `u64` count, filters 0..8 in order.
                let pairs = _mm256_shuffle_ps::<0b10_00_10_00>(
                    _mm256_castsi256_ps(lo),
                    _mm256_castsi256_ps(hi),
                );
                let counts = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_castps_si256(pairs));
                let dot = _mm256_sub_epi32(k, _mm256_slli_epi32::<1>(counts));
                let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(valid as i32), iota);
                // SAFETY: the mask covers columns `col..col + valid`, all
                // inside `orow`.
                unsafe { _mm256_maskstore_epi32(orow.as_mut_ptr().add(col), mask, dot) };
            }
        }
    }
}

/// Kept only for `bnnkc-bench`, which times it as a tuning step; delete
/// it with the bench's next change. The GEMM has nothing to tune, so
/// there is nothing to warm and the list is always empty.
pub fn warm_gemm_tables() -> Vec<simd::GemmChoice> {
    simd::gemm_choices()
}

/// The binary GEMM body this host runs: the effective [`simd::level`],
/// as printed by `bnnkc features`.
pub fn kernel() -> SimdLevel {
    simd::level()
}

/// The binary GEMM's measurement label, `<level>/gemm-panel8`.
pub fn gemm_kernel_name() -> String {
    format!("{}/gemm-panel{PANEL}", kernel())
}

/// Binary GEMM: `out[m][n] = dot(a.row(m), b.row(n))` in the ±1 domain.
///
/// `b` is interpreted row-wise (i.e. already "transposed"): each row of `b`
/// is one output column's weight vector, which matches how binary dense
/// layers store one packed row per output neuron. This is the panel
/// kernel (`b` is cut into [`BinaryPanels`] per call); see
/// [`gemm_binary_naive`] for the scalar baseline it is cross-checked
/// against.
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
    debug_assert!(b.tails_clean());
    gemm_binary_panels_into(a, &BinaryPanels::from_matrix(b), out)
}

/// [`gemm_binary_into`] against weights already cut into panels, so
/// repeated products with the same `b` skip the per-call panel build.
///
/// # Errors
///
/// Returns [`BitnnError::DimMismatch`] if the inner dimensions differ.
pub fn gemm_binary_panels_into(
    a: &PackedMatrix,
    panels: &BinaryPanels,
    out: &mut Vec<i32>,
) -> Result<()> {
    if a.cols != panels.cols {
        return Err(BitnnError::DimMismatch {
            op: "gemm_binary",
            lhs: vec![a.rows, a.cols],
            rhs: vec![panels.filters, panels.cols],
        });
    }
    debug_assert!(a.tails_clean());
    // Length-only resize: every element is written by the kernel below.
    let n = a.rows * panels.filters;
    if out.len() != n {
        out.clear();
        out.resize(n, 0);
    }
    gemm_panels_into(&a.data, panels, 0, out);
    Ok(())
}

/// The seed's scalar binary GEMM: one single-accumulator channel dot per
/// output element, no tiling, no unrolling.
///
/// Kept bit-identical to the original implementation (including the seed's
/// original lane loop) as the perf-tracking baseline that `perfsuite`
/// reports the panel kernel's speedup against, and as an independent
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
        // Row counts straddling the 4-row tiles, column counts straddling
        // the 8-filter panels, and ragged K values whose clean tails must
        // XOR to zero.
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

    /// Every binary GEMM body this CPU can run, widest last. Hosts
    /// without AVX-512 VPOPCNTDQ (or AVX2) skip that body with a note.
    fn host_levels() -> Vec<SimdLevel> {
        let f = simd::detect();
        let mut levels = vec![SimdLevel::Portable];
        for (level, ok) in [(SimdLevel::Avx2, f.avx2), (SimdLevel::Avx512, f.avx512)] {
            if ok {
                levels.push(level);
            } else {
                eprintln!("note: no {level} on this host; its panel body is not tested");
            }
        }
        levels
    }

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> PackedMatrix {
        PackedMatrix::from_bools(rows, cols, &random_bits(rows * cols, seed)).unwrap()
    }

    /// Every host body against the naive GEMM: once as one band, and once
    /// split into three bands that start at `m_start > 0`, the way the
    /// engine's parallel chunks call it.
    fn assert_panels_match_naive(a: &PackedMatrix, b: &PackedMatrix) {
        let (m, n, k) = (a.rows(), b.rows(), a.cols());
        let want = gemm_binary_naive(a, b).unwrap();
        let panels = BinaryPanels::from_matrix(b);
        for level in host_levels() {
            let mut out = vec![i32::MIN; m * n];
            gemm_panels_at(level, a.words(), &panels, 0, &mut out);
            assert_eq!(out, want, "{level} m={m} n={n} k={k}");
            let mut banded = vec![i32::MIN; m * n];
            let cuts = [0, m / 3, m / 3 + m.div_ceil(2), m];
            for pair in cuts.windows(2) {
                let band = &mut banded[pair[0] * n..pair[1] * n];
                gemm_panels_at(level, a.words(), &panels, pair[0], band);
            }
            assert_eq!(banded, want, "{level} banded m={m} n={n} k={k}");
        }
    }

    #[test]
    fn panel_bodies_match_naive_at_every_level() {
        // The largest products are skipped by a bit-op budget so the
        // unoptimized test build stays fast; M = 256 still meets N = 1000.
        let ks = [
            1usize, 2, 31, 63, 64, 65, 127, 128, 129, 200, 511, 576, 1000, 1024,
        ];
        let ns = [1usize, 7, 8, 9, 15, 16, 17, 1000];
        let ms = [1usize, 2, 3, 4, 5, 33, 256];
        for &k in &ks {
            for &n in &ns {
                for &m in &ms {
                    if m * n * k > 4_000_000 {
                        continue;
                    }
                    let seed = (k * 1_000_000 + n * 1000 + m) as u64;
                    assert_panels_match_naive(
                        &random_matrix(m, k, seed),
                        &random_matrix(n, k, seed ^ 0xABCD),
                    );
                }
            }
        }
        assert_panels_match_naive(&random_matrix(256, 65, 7), &random_matrix(1000, 65, 8));
        assert_panels_match_naive(&random_matrix(5, 0, 1), &random_matrix(9, 0, 2));
    }

    #[test]
    fn panel_bodies_reach_plus_and_minus_k() {
        // Each `a` row equals one filter (all agree, +K) or its
        // complement (all disagree, −K); clean tails must not count.
        for &k in &[1usize, 63, 64, 65, 130, 1024] {
            let n = 17;
            let b_bits = random_bits(n * k, k as u64);
            let b = PackedMatrix::from_bools(n, k, &b_bits).unwrap();
            let mut a_bits = Vec::new();
            for f in [0, 8, 16] {
                let row = &b_bits[f * k..][..k];
                a_bits.extend_from_slice(row);
                a_bits.extend(row.iter().map(|&x| !x));
            }
            let a = PackedMatrix::from_bools(6, k, &a_bits).unwrap();
            let panels = BinaryPanels::from_matrix(&b);
            for level in host_levels() {
                let mut out = vec![0; 6 * n];
                gemm_panels_at(level, a.words(), &panels, 0, &mut out);
                for (i, f) in [0, 8, 16].into_iter().enumerate() {
                    assert_eq!(out[2 * i * n + f], k as i32, "{level} k={k} f={f}");
                    assert_eq!(out[(2 * i + 1) * n + f], -(k as i32), "{level} k={k} f={f}");
                }
            }
            assert_panels_match_naive(&a, &b);
        }
    }

    #[test]
    fn kernel_panels_equal_the_im2col_rows() {
        // Both the direct copy (1×1, or C a multiple of 64) and the
        // per-position blit give the im2col weight rows.
        for &(c, kh) in &[
            (1usize, 3usize),
            (3, 3),
            (64, 3),
            (70, 3),
            (128, 3),
            (70, 1),
            (5, 2),
        ] {
            let w = crate::weightgen::random_kernel(&[11, c, kh, kh], (c * 10 + kh) as u64);
            let packed = PackedKernel::pack(&w).unwrap();
            let want =
                BinaryPanels::from_matrix(&crate::ops::im2col::im2col_kernel_packed(&packed));
            assert_eq!(BinaryPanels::from_kernel(&packed), want, "c={c} {kh}x{kh}");
        }
    }

    #[test]
    fn binary_gemm_label_names_the_level() {
        assert_eq!(gemm_kernel_name(), format!("{}/gemm-panel8", simd::level()));
        assert_eq!(kernel(), simd::level());
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
