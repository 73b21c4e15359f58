//! Binary GEMM over packed rows: every binary conv and matrix product.
//!
//! Dense layers and convolutions reduce to a binary matrix multiply:
//! `out[m][n] = <A_row_m, B_row_n>` in the ±1 domain, computed as
//! `K − 2 · popcount(a ⊕ w)` (paper Eq. 2).
//!
//! Two implementations are provided:
//!
//! * [`gemm_binary`] — the fast path, one kernel over 8-filter weight
//!   panels.
//! * [`gemm_binary_naive`] — the seed's scalar row-by-row loop, kept
//!   bit-identical as the perf-tracking baseline and as a second
//!   implementation for cross-checking.
//!
//! # Tap-addressed rows
//!
//! The kernel never needs its `A` rows copied into place: row `r` is the
//! concatenation, over the live taps `t`, of the `lanes` words at
//! `base(r) + toff[t]` (a `TapRows`). A conv over bordered packed
//! activations reads each output pixel's window straight out of them —
//! `base(r)` is the window's top-left pixel and `toff` holds each live
//! kernel tap's offset, its `lanes(C)` words following — the indirect
//! convolution of Dukhan
//! (arXiv:1907.02129) over packed bits. A packed matrix is the one-tap
//! case. Padding is the activations' zero border, so it reads as `−1`
//! values with no branch.
//!
//! # Panel layout
//!
//! The weights are a [`PackedKernel`], which is stored in this kernel's
//! operand layout ([`crate::pack::LaneLayout`]): filters in panels of 8,
//! `[f / 8][p · lanes + l][f % 8]`, so one lane of one panel is 64
//! contiguous bytes — a zmm register, or two ymm — and the last panel is
//! zero-padded to 8 filters. A matrix's rows are a 1×1 kernel
//! ([`PackedKernel::from_matrix`]). Each live tap `t` addresses its
//! weights by kernel position, at lane `taps[t] · lanes` of every panel;
//! a dead tap — one every output pixel reads from the padding — is
//! skipped, and its ones fold into the filter's constant `kdot`. The
//! kernel broadcasts one activation word, XORs it with a panel lane and
//! adds the popcounts into a vector accumulator per (pixel, panel) — no
//! horizontal add is ever needed — and stores each pixel's 8-filter
//! result `kdot − 2·acc` with a mask that drops the padding filters,
//! straight into the `[pixel][filter]` `i32` output. Three bodies follow
//! [`crate::simd::level`], each choosing its path by the live row length
//! (the live taps' lanes):
//!
//! * AVX-512: `vpopcntq`, register tiles of 4 pixels × 2 panels.
//! * AVX2: `vpshufb` nibble counts summed by `vpsadbw`, tiles of 4
//!   pixels × 1 panel; rows of one or two live lanes take the portable
//!   walk.
//! * Portable: one pixel against one panel at a time, `count_ones` into
//!   eight independent accumulators.
//!
//! # Tail rule
//!
//! When a tap's `C` (or a matrix's `cols`) is not a multiple of 64, the
//! unused high bits of its last lane must be **zero** in both operands.
//! All constructors, [`PackedMatrix::set`] and the sign+pack writers
//! maintain this. Clean tails XOR to zero, so the kernel needs no tail
//! correction and no masking inside the lane loop.

use crate::error::{BitnnError, Result};
use crate::ops::dot::dot_channels_seed;
use crate::pack::{PackedKernel, PANEL};
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
    /// This is the scratch-buffer entry point: a caller refilling one
    /// matrix per layer calls it instead of allocating a fresh one.
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
    fn tails_clean(&self) -> bool {
        let rem = self.cols % LANE_BITS;
        if rem == 0 || self.lanes == 0 {
            return true;
        }
        let tail = !crate::bitword::mask(rem);
        (0..self.rows).all(|r| self.data[(r + 1) * self.lanes - 1] & tail == 0)
    }
}

/// The weight side of a binary GEMM: a kernel's panels
/// ([`crate::pack::LaneLayout`]) and the constant each filter's dot
/// product starts from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Panels<'a> {
    data: &'a [u64],
    filters: usize,
    lanes: usize,
    /// Words per filter row: every kernel position's lanes.
    row: usize,
    /// Per filter, padded to whole panels: the dot product is
    /// `kdot[f] − 2·Σ popcount(a ⊕ w)` over the live taps' words.
    kdot: &'a [i32],
}

impl<'a> Panels<'a> {
    /// `kernel`'s panels against the per-filter constants `kdot`
    /// ([`fold_dead_taps`]).
    ///
    /// # Panics
    ///
    /// Panics if `kdot` does not cover the kernel's padded filters.
    pub(crate) fn new(kernel: &'a PackedKernel, kdot: &'a [i32]) -> Self {
        let filters = kernel.filters();
        assert!(
            kdot.len() >= filters.div_ceil(PANEL) * PANEL,
            "binary GEMM constants cover every panel"
        );
        Panels {
            data: kernel.words(),
            filters,
            lanes: kernel.lanes(),
            row: kernel.kh() * kernel.kw() * kernel.lanes(),
            kdot,
        }
    }
}

/// The per-filter constants of a GEMM over `kernel`'s live `taps`
/// (positions `ky·KW + kx`, strictly ascending), resized to whole panels
/// in `kdot`. Every other position is dead — its activations are all
/// padding, zero bits — so it adds `popcount(w)` to every
/// `popcount(a ⊕ w)`: `kdot[f]` is the full `KH·KW·C` less twice the
/// filter's ones at the dead taps, and the dot products stay exact
/// integers.
pub(crate) fn fold_dead_taps(kernel: &PackedKernel, taps: &[u32], kdot: &mut Vec<i32>) {
    let positions = kernel.kh() * kernel.kw();
    kdot.clear();
    kdot.resize(
        kernel.filters().div_ceil(PANEL) * PANEL,
        (positions * kernel.channels()) as i32,
    );
    let mut live = taps.iter().peekable();
    for p in 0..positions {
        if live.next_if_eq(&&(p as u32)).is_none() {
            for (k, &ones) in kdot.iter_mut().zip(kernel.position_ones(p)) {
                *k -= 2 * ones as i32;
            }
        }
    }
}

/// Where a binary GEMM reads its `A` rows: row `r` is the concatenation,
/// over the live taps `t`, of the `lanes` words at `base(r) + toff[t]` of
/// `words`, matched against the weights' words at kernel position
/// `taps[t]`. Row `r` is output pixel `(img, oy, ox)` of an `[img][OH][OW]`
/// walk, and `base` steps `col` words per output column, `row` per output
/// row and `img` per image from word 0 — so a conv reads each pixel's
/// window straight out of its bordered packed activations, and a matrix
/// is the one-tap case (`OW` unbounded, `toff = [0]`). `base` grows with
/// `r`, which is what bounds every read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapRows<'a> {
    words: &'a [u64],
    toff: &'a [u32],
    taps: &'a [u32],
    lanes: usize,
    ow: usize,
    oh: usize,
    col: usize,
    row: usize,
    img: usize,
}

impl<'a> TapRows<'a> {
    /// Contiguous rows of `lanes` words.
    pub(crate) fn contiguous(words: &'a [u64], lanes: usize) -> Self {
        TapRows {
            words,
            toff: &[0],
            taps: &[0],
            lanes,
            ow: usize::MAX,
            oh: 1,
            col: lanes,
            row: 0,
            img: 0,
        }
    }

    /// A conv's windows over `words`: the live taps' word offsets from
    /// the first window's corner word (word 0) and their kernel
    /// positions, `lanes` words each; `(oh, ow)` output pixels per image
    /// and the `(col, row, img)` word strides.
    pub(crate) fn windows(
        words: &'a [u64],
        (toff, taps, lanes): (&'a [u32], &'a [u32], usize),
        (oh, ow): (usize, usize),
        (col, row, img): (usize, usize, usize),
    ) -> Self {
        TapRows {
            words,
            toff,
            taps,
            lanes,
            ow,
            oh,
            col,
            row,
            img,
        }
    }

    /// Words of a row that the GEMM reads: the live taps' lanes.
    fn live(&self) -> usize {
        self.toff.len() * self.lanes
    }

    fn base(&self, r: usize) -> usize {
        let (q, ox) = (r / self.ow, r % self.ow);
        q / self.oh * self.img + q % self.oh * self.row + ox * self.col
    }

    /// A walk over the bases of rows `r, r + 1, …`.
    fn walk(&self, r: usize) -> Walk<'_> {
        let (q, ox) = (r / self.ow, r % self.ow);
        Walk {
            rows: self,
            base: self.base(r),
            ox,
            oy: q % self.oh,
            img: q / self.oh * self.img,
        }
    }
}

/// The state of [`TapRows::walk`]: the next row's base and pixel.
struct Walk<'r> {
    rows: &'r TapRows<'r>,
    base: usize,
    ox: usize,
    oy: usize,
    img: usize,
}

impl Walk<'_> {
    /// The next row's base.
    #[inline(always)]
    fn next(&mut self) -> usize {
        let (r, b) = (self.rows, self.base);
        self.ox += 1;
        if self.ox == r.ow {
            (self.ox, self.oy) = (0, self.oy + 1);
            if self.oy == r.oh {
                (self.oy, self.img) = (0, self.img + r.img);
            }
            self.base = self.img + self.oy * r.row;
        } else {
            self.base += r.col;
        }
        b
    }

    /// The bases of the next `n ≤ 4` rows (the rest of the array is
    /// unspecified): one stride apart unless an output row ends among
    /// them.
    #[inline(always)]
    fn next4(&mut self, n: usize) -> [usize; 4] {
        let col = self.rows.col;
        if self.ox + n < self.rows.ow {
            let b = self.base;
            (self.ox, self.base) = (self.ox + n, b + n * col);
            return [b, b + col, b + 2 * col, b + 3 * col];
        }
        let mut bases = [0; 4];
        for base in &mut bases[..n] {
            *base = self.next();
        }
        bases
    }
}

/// Binary GEMM of a band of `A` rows against weight panels:
/// `out[r][f] = kdot[f] − 2·popcount(a_r ⊕ w_f)` for the rows
/// `m_start .. m_start + out.len() / panels.filters`, each read through
/// `a`'s tap offsets. This is the body the engine hands each worker with
/// a disjoint output band; it runs at the detected dispatch level.
pub(crate) fn gemm_panels_into(
    a: &TapRows<'_>,
    panels: &Panels<'_>,
    m_start: usize,
    out: &mut [i32],
) {
    gemm_panels_at(simd::level(), a, panels, m_start, out);
}

/// [`gemm_panels_into`] at an explicit dispatch level, clamped to what the
/// CPU has.
///
/// # Panics
///
/// Panics if `a`'s taps do not address whole lanes of `b`'s rows, or its
/// rows reach past its words.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn gemm_panels_at(
    level: SimdLevel,
    a: &TapRows<'_>,
    b: &Panels<'_>,
    m_start: usize,
    out: &mut [i32],
) {
    if b.filters == 0 {
        return;
    }
    assert_eq!(out.len() % b.filters, 0, "binary GEMM output band");
    assert!(
        a.lanes == b.lanes
            && a.toff.len() == a.taps.len()
            && a.taps.iter().all(|&t| (t as usize + 1) * b.lanes <= b.row),
        "binary GEMM taps address the weight rows"
    );
    let m = out.len() / b.filters;
    if let (Some(&last), true) = (a.toff.iter().max(), m > 0 && b.lanes > 0) {
        // `base` grows with the row, so this bounds every word read.
        assert!(
            a.base(m_start + m - 1) + last as usize + a.lanes <= a.words.len(),
            "binary GEMM rows reach past A"
        );
    }
    #[cfg(target_arch = "x86_64")]
    if a.live() > 0 {
        let f = simd::detect();
        if level >= SimdLevel::Avx512 && f.avx512 {
            // SAFETY: avx512f + avx512vpopcntdq were detected at runtime;
            // the rows and taps were bounds-checked above.
            return unsafe { x86::gemm_avx512(a, m_start, b, out, m) };
        }
        if level >= SimdLevel::Avx2 && f.avx2 {
            // SAFETY: avx2 was detected at runtime; as above.
            return unsafe { x86::gemm_avx2(a, m_start, b, out, m) };
        }
    }
    gemm_rows(a, m_start, b, out);
}

/// The portable body, and the AVX2 body's for rows of at most
/// `x86::SHORT_ROW_LANES` (two) live lanes: each `a` row against every
/// panel in turn, `count_ones` into eight independent accumulators, with
/// no register tiling — software popcounts cost more than a tile's setup
/// saves, and so do one- or two-lane rows unless hardware `vpopcntq`
/// counts.
#[inline(always)]
fn gemm_rows(a: &TapRows<'_>, m_start: usize, b: &Panels<'_>, out: &mut [i32]) {
    let kdot = &b.kdot[..b.filters];
    let mut walk = a.walk(m_start);
    let mut next = || walk.next();
    if a.live() == 0 {
        // Every tap is dead: each dot is its filter's constant.
        return out
            .chunks_exact_mut(b.filters)
            .for_each(|o| o.copy_from_slice(kdot));
    }
    let panels = b.data.chunks_exact(b.row * PANEL);
    if a.live() == 1 {
        // One live word per filter: lane `taps[0]` of each panel.
        let (ko, wo) = (a.toff[0] as usize, a.taps[0] as usize * PANEL);
        for orow in out.chunks_exact_mut(b.filters) {
            let x = a.words[next() + ko];
            for ((dst, w), k) in orow
                .chunks_mut(PANEL)
                .zip(panels.clone())
                .zip(kdot.chunks(PANEL))
            {
                for ((o, &w), &k) in dst.iter_mut().zip(&w[wo..][..PANEL]).zip(k) {
                    *o = k - 2 * (x ^ w).count_ones() as i32;
                }
            }
        }
        return;
    }
    for orow in out.chunks_exact_mut(b.filters) {
        let base = next();
        for ((w, dst), k) in panels
            .clone()
            .zip(orow.chunks_mut(PANEL))
            .zip(kdot.chunks(PANEL))
        {
            let mut counts = [0u32; PANEL];
            for (&off, &t) in a.toff.iter().zip(a.taps) {
                let x = &a.words[base + off as usize..][..a.lanes];
                let wt = &w[t as usize * a.lanes * PANEL..][..a.lanes * PANEL];
                for (&x, lane) in x.iter().zip(wt.chunks_exact(PANEL)) {
                    for (c, &wv) in counts.iter_mut().zip(lane) {
                        *c += (x ^ wv).count_ones();
                    }
                }
            }
            for ((o, &c), &k) in dst.iter_mut().zip(&counts).zip(k) {
                *o = k - 2 * c as i32;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{gemm_rows, Panels, TapRows, PANEL};
    use std::arch::x86_64::*;

    /// Weight bytes per cache block (see [`for_each_tile`]).
    const BLOCK_BYTES: usize = 512 << 10;

    /// Rows of at most this many live lanes take [`super::gemm_rows`] in
    /// the AVX2 body, where it beats the register tiles.
    const SHORT_ROW_LANES: usize = 2;

    /// Lanes the AVX2 body accumulates in bytes before flushing them to
    /// `u64` sums: each lane adds at most 8 to a byte, and `31 · 8 = 248`
    /// fits.
    const FLUSH_LANES: usize = 31;

    /// Add the AVX2 tile's byte counts into its `u64` sums (`vpsadbw`)
    /// and clear them.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn flush<const R: usize, const P: usize>(
        acc: &mut [[[__m256i; 2]; P]; R],
        bytes: &mut [[[__m256i; 2]; P]; R],
    ) {
        let zero = _mm256_setzero_si256();
        for (acc, bytes) in acc.iter_mut().zip(bytes) {
            for (acc, bytes) in acc.iter_mut().zip(bytes) {
                for (acc, bytes) in acc.iter_mut().zip(bytes) {
                    *acc = _mm256_add_epi64(*acc, _mm256_sad_epu8(*bytes, zero));
                    *bytes = zero;
                }
            }
        }
    }

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

    /// Walk the `m × panels` output in register tiles of up to 4 rows ×
    /// `np` panels. Panels are taken in blocks of about [`BLOCK_BYTES`]
    /// outermost, so a layer whose weights overflow the cache is fetched
    /// once per band rather than once per row tile; a block counts the
    /// live taps' words only, the ones the tiles read. `tile(bases, row,
    /// rows, panel, np)` computes one tile whose `A` rows start at
    /// `bases`.
    #[inline(always)]
    fn for_each_tile(
        a: &TapRows<'_>,
        m_start: usize,
        m: usize,
        b: &Panels<'_>,
        np: usize,
        mut tile: impl FnMut([usize; 4], usize, usize, usize, usize),
    ) {
        let panels = b.filters.div_ceil(PANEL);
        let block = (BLOCK_BYTES / (a.live().max(1) * PANEL * 8))
            .max(1)
            .next_multiple_of(np);
        for first in (0..panels).step_by(block) {
            let end = (first + block).min(panels);
            let mut walk = a.walk(m_start);
            for row in (0..m).step_by(4) {
                let rows = (m - row).min(4);
                let bases = walk.next4(rows);
                for panel in (first..end).step_by(np) {
                    tile(bases, row, rows, panel, (end - panel).min(np));
                }
            }
        }
    }

    /// AVX-512 body of [`super::gemm_panels_at`] over `m` rows of `a`.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f` and `avx512vpopcntdq`, and every
    /// row's words must lie inside `a`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub(super) unsafe fn gemm_avx512(
        a: &TapRows<'_>,
        m_start: usize,
        b: &Panels<'_>,
        out: &mut [i32],
        m: usize,
    ) {
        for_each_tile(a, m_start, m, b, 2, |bases, row, rows, panel, np| {
            // SAFETY: the features are enabled here; `for_each_tile`
            // keeps every tile inside `m` rows and the panel count.
            unsafe { tile_by_shape!(tile_avx512(a, bases, b, out, row, panel), rows, np) }
        });
    }

    /// AVX2 body of [`super::gemm_panels_at`] over `m` rows of `a`.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`, and every row's words must lie
    /// inside `a`.
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn gemm_avx2(
        a: &TapRows<'_>,
        m_start: usize,
        b: &Panels<'_>,
        out: &mut [i32],
        m: usize,
    ) {
        if a.live() <= SHORT_ROW_LANES {
            return gemm_rows(a, m_start, b, out);
        }
        for_each_tile(a, m_start, m, b, 1, |bases, row, rows, panel, np| {
            // SAFETY: as in `gemm_avx512`.
            unsafe { tile_by_shape!(tile_avx2(a, bases, b, out, row, panel), rows, np) }
        });
    }

    /// AVX-512 tile: `R` rows × `P` panels, one zmm of eight `u64`
    /// `vpopcntq` sums per (row, panel).
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f` and `avx512vpopcntdq`; the `R` rows
    /// at `bases` must lie inside `a`, and rows `row..row + R` of `out`
    /// and panels `panel..panel + P` must exist.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn tile_avx512<const R: usize, const P: usize>(
        a: &TapRows<'_>,
        bases: [usize; 4],
        b: &Panels<'_>,
        out: &mut [i32],
        row: usize,
        panel: usize,
    ) {
        let stride = b.row;
        let w = &b.data[panel * stride * PANEL..][..P * stride * PANEL];
        let mut acc = [[_mm512_setzero_si512(); P]; R];
        for (&off, &t) in a.toff.iter().zip(a.taps) {
            for j in 0..a.lanes {
                let l = t as usize * a.lanes + j;
                let mut wv = [_mm512_setzero_si512(); P];
                for (p, wv) in wv.iter_mut().enumerate() {
                    // SAFETY: lane `l` of panel `p` is 8 in-bounds words.
                    *wv = unsafe {
                        _mm512_loadu_si512(w.as_ptr().add((p * stride + l) * PANEL).cast())
                    };
                }
                for (acc, &base) in acc.iter_mut().zip(&bases) {
                    // SAFETY: the caller keeps the row's words inside `a`.
                    let x = unsafe { *a.words.get_unchecked(base + off as usize + j) };
                    let x = _mm512_set1_epi64(x as i64);
                    for (acc, &wv) in acc.iter_mut().zip(&wv) {
                        *acc = _mm512_add_epi64(*acc, _mm512_popcnt_epi64(_mm512_xor_si512(x, wv)));
                    }
                }
            }
        }
        // Loaded once: the stores below may alias `kdot` as far as the
        // compiler can tell.
        let mut kdot = [_mm512_setzero_si512(); P];
        for (p, k) in kdot.iter_mut().enumerate() {
            // SAFETY: `kdot` holds whole panels.
            *k = unsafe {
                _mm512_cvtepi32_epi64(_mm256_loadu_si256(
                    b.kdot.as_ptr().add((panel + p) * PANEL).cast(),
                ))
            };
        }
        for (r, acc) in acc.iter().enumerate() {
            let orow = &mut out[(row + r) * b.filters..][..b.filters];
            for (p, (&acc, &k)) in acc.iter().zip(&kdot).enumerate() {
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
        a: &TapRows<'_>,
        bases: [usize; 4],
        b: &Panels<'_>,
        out: &mut [i32],
        row: usize,
        panel: usize,
    ) {
        let stride = b.row;
        let w = &b.data[panel * stride * PANEL..][..P * stride * PANEL];
        let nibble = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let zero = _mm256_setzero_si256();
        let mut acc = [[[zero; 2]; P]; R];
        let mut bytes = [[[zero; 2]; P]; R];
        let mut pending = 0;
        for (&off, &t) in a.toff.iter().zip(a.taps) {
            let mut j = 0;
            while j < a.lanes {
                let run = (a.lanes - j).min(FLUSH_LANES - pending);
                for j in j..j + run {
                    let l = t as usize * a.lanes + j;
                    let mut wv = [[zero; 2]; P];
                    for (p, wv) in wv.iter_mut().enumerate() {
                        for (h, wv) in wv.iter_mut().enumerate() {
                            // SAFETY: half `h` of lane `l` of panel `p` is
                            // 4 in-bounds words.
                            *wv = unsafe {
                                _mm256_loadu_si256(
                                    w.as_ptr().add((p * stride + l) * PANEL + 4 * h).cast(),
                                )
                            };
                        }
                    }
                    for (bytes, &base) in bytes.iter_mut().zip(&bases) {
                        // SAFETY: the caller keeps the row's words inside `a`.
                        let x = unsafe { *a.words.get_unchecked(base + off as usize + j) };
                        let x = _mm256_set1_epi64x(x as i64);
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
                (j, pending) = (j + run, pending + run);
                if pending == FLUSH_LANES {
                    flush(&mut acc, &mut bytes);
                    pending = 0;
                }
            }
        }
        flush(&mut acc, &mut bytes);
        let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        // Loaded once, as in `tile_avx512`.
        let mut kdot = [zero; P];
        for (p, k) in kdot.iter_mut().enumerate() {
            // SAFETY: `kdot` holds whole panels.
            *k = unsafe { _mm256_loadu_si256(b.kdot.as_ptr().add((panel + p) * PANEL).cast()) };
        }
        for (r, acc) in acc.iter().enumerate() {
            let orow = &mut out[(row + r) * b.filters..][..b.filters];
            for (p, (&[lo, hi], &k)) in acc.iter().zip(&kdot).enumerate() {
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

/// The binary conv kernel's label, `<level>/tap-panel8`: the panel GEMM
/// reading its rows through the tap table, as printed by `bnnkc
/// features` and recorded by the perfsuite.
pub fn conv_kernel_name() -> String {
    format!("{}/tap-panel{PANEL}", kernel())
}

/// Binary GEMM: `out[m][n] = dot(a.row(m), b.row(n))` in the ±1 domain.
///
/// `b` is interpreted row-wise (i.e. already "transposed"): each row of `b`
/// is one output column's weight vector, which matches how binary dense
/// layers store one packed row per output neuron. This is the panel
/// kernel (`b` is cut into panels, [`PackedKernel::from_matrix`], per
/// call); see [`gemm_binary_naive`] for the scalar baseline it is
/// cross-checked against.
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
    debug_assert!(b.tails_clean());
    gemm_binary_panels_into(a, &PackedKernel::from_matrix(b), out)
}

/// [`gemm_binary_into`] against weights already cut into panels — the
/// rows of `b` as a `[rows, cols, 1, 1]` kernel — so repeated products
/// with the same `b` skip the per-call panel build.
///
/// # Errors
///
/// Returns [`BitnnError::DimMismatch`] if the inner dimensions differ or
/// `b` is not a 1×1 kernel.
pub fn gemm_binary_panels_into(
    a: &PackedMatrix,
    b: &PackedKernel,
    out: &mut Vec<i32>,
) -> Result<()> {
    if a.cols != b.channels() || b.kh() * b.kw() != 1 {
        return Err(BitnnError::DimMismatch {
            op: "gemm_binary",
            lhs: vec![a.rows, a.cols],
            rhs: vec![b.filters(), b.channels(), b.kh(), b.kw()],
        });
    }
    debug_assert!(a.tails_clean());
    // Length-only resize: every element is written by the kernel below.
    let n = a.rows * b.filters();
    if out.len() != n {
        out.clear();
        out.resize(n, 0);
    }
    let mut kdot = Vec::new();
    fold_dead_taps(b, &[0], &mut kdot);
    let panels = Panels::new(b, &kdot);
    gemm_panels_into(&TapRows::contiguous(&a.data, a.lanes), &panels, 0, out);
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

    /// `b`'s rows as a 1×1 kernel and its all-live constants.
    fn matrix_panels(b: &PackedMatrix) -> (PackedKernel, Vec<i32>) {
        let kernel = PackedKernel::from_matrix(b);
        let mut kdot = Vec::new();
        fold_dead_taps(&kernel, &[0], &mut kdot);
        (kernel, kdot)
    }

    /// Every host body against the naive GEMM: once as one band, and once
    /// split into three bands that start at `m_start > 0`, the way the
    /// engine's parallel chunks call it.
    fn assert_panels_match_naive(a: &PackedMatrix, b: &PackedMatrix) {
        let (m, n, k) = (a.rows(), b.rows(), a.cols());
        let want = gemm_binary_naive(a, b).unwrap();
        let (kernel, kdot) = matrix_panels(b);
        let panels = Panels::new(&kernel, &kdot);
        let rows = TapRows::contiguous(a.words(), a.lanes());
        for level in host_levels() {
            let mut out = vec![i32::MIN; m * n];
            gemm_panels_at(level, &rows, &panels, 0, &mut out);
            assert_eq!(out, want, "{level} m={m} n={n} k={k}");
            let mut banded = vec![i32::MIN; m * n];
            let cuts = [0, m / 3, m / 3 + m.div_ceil(2), m];
            for pair in cuts.windows(2) {
                let band = &mut banded[pair[0] * n..pair[1] * n];
                gemm_panels_at(level, &rows, &panels, pair[0], band);
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
        // 2100 bits are 33 lanes: the AVX2 byte counts flush mid-row.
        for &k in &[1usize, 63, 64, 65, 130, 1024, 2100] {
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
            let (kernel, kdot) = matrix_panels(&b);
            let panels = Panels::new(&kernel, &kdot);
            for level in host_levels() {
                let mut out = vec![0; 6 * n];
                let rows = TapRows::contiguous(a.words(), a.lanes());
                gemm_panels_at(level, &rows, &panels, 0, &mut out);
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
        // When C is a multiple of 64, or the kernel is 1×1, a filter's
        // tap-aligned words are exactly its im2col weight row.
        for &(c, kh) in &[(64usize, 3usize), (128, 3), (70, 1), (5, 1), (64, 2)] {
            let w = crate::weightgen::random_kernel(&[11, c, kh, kh], (c * 10 + kh) as u64);
            let packed = PackedKernel::pack(&w).unwrap();
            let im2col = crate::ops::im2col::im2col_kernel_packed(&packed);
            assert_eq!(
                packed.words(),
                PackedKernel::from_matrix(&im2col).words(),
                "c={c} {kh}x{kh}"
            );
        }
    }

    #[test]
    fn kernel_panels_are_tap_aligned() {
        // A filter's row is its `[position][lane]` words, each tap's last
        // lane zero-padded past C, and with every tap live `kdot` is the
        // full `KH·KW·C`.
        for &(c, kh) in &[(1usize, 3usize), (3, 3), (64, 3), (70, 3), (70, 1), (5, 2)] {
            let w = crate::weightgen::random_kernel(&[11, c, kh, kh], (c * 10 + kh) as u64);
            let packed = PackedKernel::pack(&w).unwrap();
            let words = kh * kh * packed.lanes();
            let rows = PackedMatrix {
                rows: 11,
                cols: words * LANE_BITS,
                lanes: words,
                data: packed.filter_rows(),
            };
            assert_eq!(
                packed.words(),
                PackedKernel::from_matrix(&rows).words(),
                "c={c} {kh}x{kh}"
            );
            let taps: Vec<u32> = (0..(kh * kh) as u32).collect();
            let mut kdot = Vec::new();
            fold_dead_taps(&packed, &taps, &mut kdot);
            assert_eq!(kdot, vec![(kh * kh * c) as i32; 16]);
        }
    }

    #[test]
    fn dead_taps_fold_into_the_filter_constant() {
        // Only the centre tap of a 3×3 kernel kept: each filter's ones at
        // the other eight positions leave `kdot`, twice.
        let (kf, c) = (9usize, 70usize);
        let w = crate::weightgen::random_kernel(&[kf, c, 3, 3], 0xDEAD);
        let packed = PackedKernel::pack(&w).unwrap();
        let rows = packed.filter_rows();
        let mut kdot = Vec::new();
        fold_dead_taps(&packed, &[4], &mut kdot);
        assert_eq!(kdot.len(), 16);
        for f in 0..kf {
            let dead: i32 = (0..9)
                .filter(|&p| p != 4)
                .flat_map(|p| &rows[(f * 9 + p) * 2..][..2])
                .map(|w| w.count_ones() as i32)
                .sum();
            assert_eq!(kdot[f], (9 * c) as i32 - 2 * dead, "filter {f}");
        }
        fold_dead_taps(&packed, &[], &mut kdot);
        // An all-padding window: every activation bit is zero, and no tap
        // is read.
        let mut out = vec![0; 2 * kf];
        let rows = TapRows::windows(&[], (&[], &[], packed.lanes()), (1, 2), (0, 0, 0));
        for level in host_levels() {
            gemm_panels_at(level, &rows, &Panels::new(&packed, &kdot), 0, &mut out);
            let zeros = PackedMatrix::zeros(2, 9 * c);
            let full = PackedMatrix {
                rows: kf,
                cols: 9 * c,
                lanes: lanes_for(9 * c),
                data: crate::ops::im2col::im2col_kernel_packed(&packed)
                    .words()
                    .to_vec(),
            };
            assert_eq!(out, gemm_binary_naive(&zeros, &full).unwrap(), "{level}");
        }
    }

    #[test]
    fn binary_gemm_label_names_the_level() {
        assert_eq!(gemm_kernel_name(), format!("{}/gemm-panel8", simd::level()));
        assert_eq!(conv_kernel_name(), format!("{}/tap-panel8", simd::level()));
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
