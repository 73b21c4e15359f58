//! The int8 kernel behind the network's two 8-bit ends — the stem conv
//! and the classifier (paper Sec. II-B, Table I rows "Input Layer" and
//! "Output Layer"): a symmetric quantizer and one int8 GEMM
//! `C[M][N] = A[M][K] · B[K][N]`. Both are dispatched on
//! [`crate::simd::level`], so `BITNN_SIMD` caps them like every other
//! kernel.
//!
//! # Quantizer
//!
//! [`quantize_into`] is bit-identical to the scalar oracle's
//! [`crate::layers::quant::quantize_symmetric`]: the scale is
//! `max_abs / 127` (1.0 for an all-zero input; NaNs do not count towards
//! the maximum), each value is `v / scale` — a true division, never a
//! reciprocal multiply — clamped to `[-127, 127]` and rounded half away
//! from zero as `trunc(t + copysign(0.49999997, t))`, which is exact for
//! every `|t| < 2^23`. NaN quantizes to 0. The AVX-512F and AVX2 bodies
//! avoid the `roundf` call the portable `f32::round` compiles to on
//! baseline x86-64.
//!
//! # Packed weights
//!
//! `B` is stored once, as [`Int8Weights`]: K is padded to a multiple of 4
//! ([`Int8Weights::padded_k`]) and N to a multiple of 16, and the matrix is cut into
//! panels of 16 columns, each stored as its 4-row groups:
//! `B[4g + i][16p + j]` lives at byte `((p · Kp/4 + g) · 16 + j) · 4 + i`.
//! One group of one panel is 64 bytes — one AVX-512 register whose 16
//! `i32` lanes are the panel's 16 columns. Padding is zero, and each
//! column's `Σw` is kept beside the panels.
//!
//! # GEMM bodies
//!
//! * AVX-512 VNNI: `vpdpbusd` multiplies *unsigned* bytes by signed ones,
//!   so each activation is offset by +128 (an `xor 0x80`) and every
//!   accumulator starts at `-128·Σw`, which is exact in `i32`.
//! * AVX2: `vpmaddwd` on sign-extended `i16`. (`vpmaddubsw` would
//!   saturate: `255·127·2` does not fit an `i16`.)
//! * A portable loop.
//!
//! [`crate::simd::SimdLevel::Avx512`] does not imply VNNI: an AVX-512 host
//! without it runs the AVX2 body ([`kernel`] names the body in use).
//! Every body walks the output weight-stationary: the outer loop takes
//! blocks of four panels and the inner loop every row of `A`, so each
//! weight block is fetched from memory once per call however many rows
//! the batch stacks. Accumulation is exact integer arithmetic, so all
//! three bodies agree bit for bit.

use crate::simd::{self, SimdLevel};

/// Columns per packed panel.
const PANEL: usize = 16;

/// Rows of `B` (the K dimension) per packed group: one `vpdpbusd` step.
const GROUP: usize = 4;

/// Panels per weight-stationary block (see the module docs).
const BLOCK_PANELS: usize = 4;

/// The largest K whose accumulators cannot overflow `i32` in any body:
/// the VNNI body's offset activations reach `255 · 127` per term.
const MAX_K: usize = i32::MAX as usize / (255 * 127);

/// The largest `f32` below 0.5: `trunc(t + copysign(ROUND_BIAS, t))`
/// rounds half away from zero exactly.
const ROUND_BIAS: f32 = 0.499_999_97;

/// The GEMM body a dispatch runs, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Int8Kernel {
    /// The portable loop.
    Portable,
    /// AVX2 `vpmaddwd` on sign-extended `i16`.
    Avx2,
    /// AVX-512 VNNI `vpdpbusd`.
    Avx512Vnni,
}

impl Int8Kernel {
    /// Stable name, as printed by `bnnkc features`.
    pub fn name(self) -> &'static str {
        match self {
            Int8Kernel::Portable => "portable",
            Int8Kernel::Avx2 => "avx2",
            Int8Kernel::Avx512Vnni => "avx512-vnni",
        }
    }
}

/// The GEMM body [`gemm`] runs on this host under the effective
/// [`crate::simd::level`].
pub fn kernel() -> Int8Kernel {
    kernel_at(simd::level())
}

/// The widest GEMM body both `level` and the CPU allow.
fn kernel_at(level: SimdLevel) -> Int8Kernel {
    let f = simd::detect();
    if level >= SimdLevel::Avx512 && f.avx512_vnni {
        Int8Kernel::Avx512Vnni
    } else if level >= SimdLevel::Avx2 && f.avx2 {
        Int8Kernel::Avx2
    } else {
        Int8Kernel::Portable
    }
}

/// Symmetric 8-bit quantization of `data` into `out`, returning the
/// scale: bit-identical to
/// [`crate::layers::quant::quantize_symmetric`] (see the module docs).
///
/// # Panics
///
/// Panics if `out.len() != data.len()`.
pub fn quantize_into(data: &[f32], out: &mut [i8]) -> f32 {
    quantize_at(simd::level(), data, out)
}

/// [`quantize_into`] at an explicit dispatch level, clamped to what the
/// CPU has.
pub(crate) fn quantize_at(level: SimdLevel, data: &[f32], out: &mut [i8]) -> f32 {
    let scale = scale_at(level, data);
    quantize_scaled_at(level, data, scale, out);
    scale
}

/// The quantization scale of `data`: `max_abs / 127`, or 1.0 when every
/// value is zero (or NaN).
fn scale_at(level: SimdLevel, data: &[f32]) -> f32 {
    let max_abs = max_abs_at(level, data);
    if max_abs == 0.0 {
        1.0
    } else {
        max_abs / 127.0
    }
}

#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn max_abs_at(level: SimdLevel, data: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        let f = simd::detect();
        if level >= SimdLevel::Avx512 && f.avx512 {
            // SAFETY: avx512f was detected at runtime.
            return unsafe { x86::max_abs_avx512(data) };
        }
        if level >= SimdLevel::Avx2 && f.avx2 {
            // SAFETY: avx2 was detected at runtime.
            return unsafe { x86::max_abs_avx2(data) };
        }
    }
    max_abs_portable(data)
}

/// Quantize `data` with a given `scale` into `out`.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn quantize_scaled_at(level: SimdLevel, data: &[f32], scale: f32, out: &mut [i8]) {
    assert_eq!(out.len(), data.len(), "quantizer output length");
    #[cfg(target_arch = "x86_64")]
    {
        let f = simd::detect();
        if level >= SimdLevel::Avx512 && f.avx512 {
            // SAFETY: avx512f was detected at runtime; the lengths match.
            return unsafe { x86::quantize_avx512(data, scale, out) };
        }
        if level >= SimdLevel::Avx2 && f.avx2 {
            // SAFETY: avx2 was detected at runtime; the lengths match.
            return unsafe { x86::quantize_avx2(data, scale, out) };
        }
    }
    for (q, &v) in out.iter_mut().zip(data) {
        *q = quantize_one(v, scale);
    }
}

/// The portable maximum: `f32::max` ignores a NaN operand.
fn max_abs_portable(data: &[f32]) -> f32 {
    data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// One value of the quantizer: clamping before rounding equals rounding
/// before clamping (±127 are integers), and `as` maps NaN to 0.
#[inline(always)]
fn quantize_one(v: f32, scale: f32) -> i8 {
    let t = (v / scale).clamp(-127.0, 127.0);
    (t + ROUND_BIAS.copysign(t)) as i8
}

/// K rounded up to the packed group size: the row stride of the `A`
/// operand [`gemm`] reads.
fn padded_k(k: usize) -> usize {
    k.div_ceil(GROUP) * GROUP
}

/// The `B` operand of [`gemm`], packed once at construction (layout in
/// the module docs) with each column's weight sum beside it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Int8Weights {
    n: usize,
    k: usize,
    kp: usize,
    /// `[panel][group][column][4]`, zero-padded in K and N.
    packed: Vec<i8>,
    /// `Σ_k B[k][n]` per column, zero-padded to whole panels.
    wsum: Vec<i32>,
}

impl Int8Weights {
    /// Quantize float weights stored output-major (`w[n][k]`, the layout
    /// of a `[out, in]` linear or a `[K, C, KH, KW]` conv weight) with one
    /// per-tensor scale and pack them, returning the scale. Bit-identical
    /// to packing the output of [`quantize_into`]; each row is quantized
    /// through a `k`-byte buffer, so no full `i8` copy is made.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != n * k` or `k` exceeds 66,311 (the depth at
    /// which an accumulator could overflow).
    pub fn quantize(w: &[f32], n: usize, k: usize) -> (Self, f32) {
        assert_eq!(w.len(), n * k, "weight matrix size");
        let level = simd::level();
        let scale = scale_at(level, w);
        let mut packed = Self::zeroed(n, k);
        let mut row = vec![0i8; k];
        for col in 0..n {
            quantize_scaled_at(level, &w[col * k..][..k], scale, &mut row);
            packed.set_column(col, &row);
        }
        (packed, scale)
    }

    /// Pack already quantized weights stored output-major (`w[n][k]`):
    /// the tests' way to build an operand from an `i8` matrix.
    #[cfg(test)]
    fn pack(w: &[i8], n: usize, k: usize) -> Self {
        assert_eq!(w.len(), n * k, "weight matrix size");
        let mut packed = Self::zeroed(n, k);
        for col in 0..n {
            packed.set_column(col, &w[col * k..][..k]);
        }
        packed
    }

    fn zeroed(n: usize, k: usize) -> Self {
        assert!(k <= MAX_K, "int8 GEMM depth {k} exceeds {MAX_K}");
        let (kp, padded_n) = (padded_k(k), n.div_ceil(PANEL) * PANEL);
        Int8Weights {
            n,
            k,
            kp,
            packed: vec![0; padded_n * kp],
            wsum: vec![0; padded_n],
        }
    }

    /// Store column `col` (`k` weights) and its sum.
    fn set_column(&mut self, col: usize, weights: &[i8]) {
        let (p, j) = (col / PANEL, col % PANEL);
        let panel = &mut self.packed[p * PANEL * self.kp..][..PANEL * self.kp];
        for (g, four) in weights.chunks(GROUP).enumerate() {
            panel[(g * PANEL + j) * GROUP..][..four.len()].copy_from_slice(four);
        }
        self.wsum[col] = weights.iter().map(|&v| i32::from(v)).sum();
    }

    /// Output columns (N).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reduction depth (K).
    pub fn k(&self) -> usize {
        self.k
    }

    /// K padded to the group size: the row stride [`gemm`] expects of `A`.
    pub fn padded_k(&self) -> usize {
        self.kp
    }

    /// The weight `B[k][n]` — `w[n][k]` of the matrix it was built from.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `k` is out of range.
    pub fn get(&self, n: usize, k: usize) -> i8 {
        assert!(n < self.n && k < self.k, "weight ({n}, {k}) out of range");
        let (p, j, g, i) = (n / PANEL, n % PANEL, k / GROUP, k % GROUP);
        self.packed[((p * self.kp / GROUP + g) * PANEL + j) * GROUP + i]
    }
}

/// `c[m][n] = Σ_k a[m][k] · b[k][n]`, exact in `i32`.
///
/// `a` holds `m` rows of [`Int8Weights::padded_k`] bytes; the bytes of
/// each row past [`Int8Weights::k`] meet zero weights, so their values do
/// not matter. `c` holds `m` rows of [`Int8Weights::n`] values, all
/// overwritten.
///
/// # Panics
///
/// Panics if `a.len() != m * b.padded_k()` or `c.len() != m * b.n()`.
pub fn gemm(a: &[i8], m: usize, b: &Int8Weights, c: &mut [i32]) {
    gemm_at(kernel(), a, m, b, c)
}

/// [`gemm`] on an explicit body, clamped to what the CPU has.
pub(crate) fn gemm_at(kernel: Int8Kernel, a: &[i8], m: usize, b: &Int8Weights, c: &mut [i32]) {
    assert_eq!(a.len(), m * b.kp, "int8 GEMM A size");
    assert_eq!(c.len(), m * b.n, "int8 GEMM C size");
    if m == 0 || b.n == 0 {
        return;
    }
    let panels = b.n.div_ceil(PANEL);
    #[cfg(target_arch = "x86_64")]
    {
        let f = simd::detect();
        if kernel >= Int8Kernel::Avx512Vnni && f.avx512_vnni {
            return for_each_tile(m, panels, 4, 4, 4, |row, rows, panel, np| {
                // SAFETY: avx512f + avx512vnni were detected at runtime;
                // `for_each_tile` keeps every tile inside `m` rows and
                // `panels` panels, and the sizes were asserted above.
                unsafe {
                    match (rows, np) {
                        (4, 4) => x86::tile_vnni::<4, 4>(a, b, c, row, panel),
                        (4, _) => x86::tile_vnni::<4, 1>(a, b, c, row, panel),
                        (_, 4) => x86::tile_vnni::<1, 4>(a, b, c, row, panel),
                        _ => x86::tile_vnni::<1, 1>(a, b, c, row, panel),
                    }
                }
            });
        }
        if kernel >= Int8Kernel::Avx2 && f.avx2 {
            return for_each_tile(m, panels, 2, 1, 2, |row, rows, panel, np| {
                // SAFETY: avx2 was detected at runtime; tiles stay in
                // bounds as above.
                unsafe {
                    match (rows, np) {
                        (2, _) => x86::tile_avx2::<2, 1>(a, b, c, row, panel),
                        (_, 2) => x86::tile_avx2::<1, 2>(a, b, c, row, panel),
                        _ => x86::tile_avx2::<1, 1>(a, b, c, row, panel),
                    }
                }
            });
        }
    }
    for_each_tile(m, panels, 1, 1, 1, |row, _, panel, _| {
        tile_portable(a, b, c, row, panel)
    });
}

/// Walk the `m × panels` output weight-stationary: blocks of
/// [`BLOCK_PANELS`] panels outermost, then rows in tiles of `mr` (single
/// rows once fewer than `mr` remain), then the block's panels in tiles of
/// `np_multi` for a multi-row tile or `np_single` for a single row (one
/// panel at a time once fewer remain). `tile(row, rows, panel, np)`
/// computes one tile. [`BLOCK_PANELS`] must be a multiple of both tile
/// widths.
#[inline(always)]
fn for_each_tile(
    m: usize,
    panels: usize,
    mr: usize,
    np_multi: usize,
    np_single: usize,
    mut tile: impl FnMut(usize, usize, usize, usize),
) {
    for block in (0..panels).step_by(BLOCK_PANELS) {
        let block_end = (block + BLOCK_PANELS).min(panels);
        let mut row = 0;
        while row < m {
            let rows = if m - row >= mr { mr } else { 1 };
            let width = if rows > 1 { np_multi } else { np_single };
            let mut panel = block;
            while panel < block_end {
                let np = if block_end - panel >= width { width } else { 1 };
                tile(row, rows, panel, np);
                panel += np;
            }
            row += rows;
        }
    }
}

/// Portable body: one row against one panel. On x86-64 it runs the
/// baseline SSE2 tile (`pmaddwd`, which every x86-64 CPU has); other
/// targets run [`tile_scalar`].
fn tile_portable(a: &[i8], b: &Int8Weights, c: &mut [i32], row: usize, panel: usize) {
    // SAFETY: SSE2 is part of the x86-64 baseline.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        x86::tile_sse2(a, b, c, row, panel)
    };
    #[cfg(not(target_arch = "x86_64"))]
    tile_scalar(a, b, c, row, panel);
}

/// Scalar body: one row against one panel.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn tile_scalar(a: &[i8], b: &Int8Weights, c: &mut [i32], row: usize, panel: usize) {
    let kp = b.kp;
    let arow = &a[row * kp..][..kp];
    let bpanel = &b.packed[panel * PANEL * kp..][..PANEL * kp];
    let mut acc = [0i32; PANEL];
    for (ag, bg) in arow
        .chunks_exact(GROUP)
        .zip(bpanel.chunks_exact(PANEL * GROUP))
    {
        for (acc, w) in acc.iter_mut().zip(bg.chunks_exact(GROUP)) {
            *acc += ag
                .iter()
                .zip(w)
                .map(|(&x, &y)| i32::from(x) * i32::from(y))
                .sum::<i32>();
        }
    }
    let col = panel * PANEL;
    let valid = (b.n - col).min(PANEL);
    c[row * b.n + col..][..valid].copy_from_slice(&acc[..valid]);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Int8Weights, GROUP, PANEL, ROUND_BIAS};
    use crate::simd::lane_mask16 as lane_mask;
    use std::arch::x86_64::*;

    /// AVX-512F body of the quantizer's maximum.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn max_abs_avx512(data: &[f32]) -> f32 {
        let mut vmax = _mm512_setzero_ps();
        for start in (0..data.len()).step_by(16) {
            let mask = lane_mask(data.len() - start);
            // SAFETY: `mask` covers only the in-bounds elements.
            let v = unsafe { _mm512_maskz_loadu_ps(mask, data.as_ptr().add(start)) };
            // `max(a, b)` returns `b` when `a` is NaN: NaNs are skipped.
            vmax = _mm512_max_ps(_mm512_abs_ps(v), vmax);
        }
        let mut lanes = [0.0f32; 16];
        // SAFETY: `lanes` holds 16 floats.
        unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), vmax) };
        lanes.iter().fold(0.0f32, |m, &v| m.max(v))
    }

    /// AVX-512F body of the quantizer's rounding pass.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f`, and `out.len() == data.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn quantize_avx512(data: &[f32], scale: f32, out: &mut [i8]) {
        let vscale = _mm512_set1_ps(scale);
        let (lo, hi) = (_mm512_set1_ps(-127.0), _mm512_set1_ps(127.0));
        let bias = _mm512_castps_si512(_mm512_set1_ps(ROUND_BIAS));
        let sign = _mm512_set1_epi32(i32::MIN);
        for start in (0..data.len()).step_by(16) {
            let mask = lane_mask(data.len() - start);
            // SAFETY: `mask` covers only the in-bounds elements.
            let v = unsafe { _mm512_maskz_loadu_ps(mask, data.as_ptr().add(start)) };
            let t = _mm512_div_ps(v, vscale);
            let ordered = _mm512_cmp_ps_mask::<_CMP_ORD_Q>(t, t);
            let t = _mm512_min_ps(hi, _mm512_max_ps(lo, t));
            let signed_bias = _mm512_or_si512(_mm512_and_si512(_mm512_castps_si512(t), sign), bias);
            let r = _mm512_add_ps(t, _mm512_castsi512_ps(signed_bias));
            // NaN lanes convert to 0.
            let q = _mm512_maskz_cvttps_epi32(ordered, r);
            // SAFETY: `mask` covers only the in-bounds bytes of `out`,
            // which is as long as `data`.
            unsafe {
                _mm512_mask_cvtepi32_storeu_epi8(out.as_mut_ptr().add(start).cast(), mask, q)
            };
        }
    }

    /// AVX2 body of the quantizer's maximum.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn max_abs_avx2(data: &[f32]) -> f32 {
        let abs = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MAX));
        let mut vmax = _mm256_setzero_ps();
        let chunks = data.chunks_exact(8);
        let tail = chunks.remainder();
        for chunk in chunks {
            // SAFETY: `chunk` holds 8 floats.
            let v = unsafe { _mm256_loadu_ps(chunk.as_ptr()) };
            // NaN `a` yields `b`, as above.
            vmax = _mm256_max_ps(_mm256_and_ps(v, abs), vmax);
        }
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` holds 8 floats.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), vmax) };
        lanes
            .iter()
            .chain(tail)
            .fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// AVX2 body of the quantizer's rounding pass: 32 values per step,
    /// the tail through the portable formula.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`, and `out.len() == data.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_avx2(data: &[f32], scale: f32, out: &mut [i8]) {
        let vscale = _mm256_set1_ps(scale);
        let (lo, hi) = (_mm256_set1_ps(-127.0), _mm256_set1_ps(127.0));
        let bias = _mm256_set1_ps(ROUND_BIAS);
        let sign = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
        let one = |v: __m256| -> __m256i {
            let t = _mm256_div_ps(v, vscale);
            let ordered = _mm256_cmp_ps::<_CMP_ORD_Q>(t, t);
            let t = _mm256_min_ps(hi, _mm256_max_ps(lo, t));
            let r = _mm256_add_ps(t, _mm256_or_ps(_mm256_and_ps(t, sign), bias));
            // NaN lanes become +0.0 before the conversion.
            _mm256_cvttps_epi32(_mm256_and_ps(r, ordered))
        };
        // `packs` interleaves 128-bit halves; this restores the order.
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let mut chunks = data.chunks_exact(32);
        let mut outs = out.chunks_exact_mut(32);
        for (chunk, dst) in (&mut chunks).zip(&mut outs) {
            let p = chunk.as_ptr();
            // SAFETY: `chunk` holds 32 floats.
            let [a, b, c, d] = [0, 8, 16, 24].map(|i| one(unsafe { _mm256_loadu_ps(p.add(i)) }));
            let bytes = _mm256_packs_epi16(_mm256_packs_epi32(a, b), _mm256_packs_epi32(c, d));
            let bytes = _mm256_permutevar8x32_epi32(bytes, order);
            // SAFETY: `dst` holds 32 bytes.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), bytes) };
        }
        for (q, &v) in outs.into_remainder().iter_mut().zip(chunks.remainder()) {
            *q = super::quantize_one(v, scale);
        }
    }

    /// AVX-512 VNNI tile: `MR` rows against `NP` panels, `MR × NP` zmm
    /// accumulators of 16 columns each.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f` and `avx512vnni`; rows
    /// `row..row + MR` and panels `panel..panel + NP` must exist, `a`
    /// must hold `m × kp` bytes and `c` `m × n` values.
    #[target_feature(enable = "avx512f,avx512vnni")]
    pub(super) unsafe fn tile_vnni<const MR: usize, const NP: usize>(
        a: &[i8],
        b: &Int8Weights,
        c: &mut [i32],
        row: usize,
        panel: usize,
    ) {
        let kp = b.kp;
        let arows = &a[row * kp..][..MR * kp];
        let bpanels = &b.packed[panel * PANEL * kp..][..NP * PANEL * kp];
        let wsum = &b.wsum[panel * PANEL..][..NP * PANEL];
        let mut acc = [[_mm512_setzero_si512(); NP]; MR];
        for p in 0..NP {
            // SAFETY: `wsum` holds NP panels of 16 sums.
            let s = unsafe { _mm512_loadu_si512(wsum.as_ptr().add(p * PANEL).cast()) };
            // Σ (a + 128)·w − 128·Σw = Σ a·w.
            let init = _mm512_sub_epi32(_mm512_setzero_si512(), _mm512_slli_epi32::<7>(s));
            for acc in acc.iter_mut() {
                acc[p] = init;
            }
        }
        let flip = _mm512_set1_epi32(0x8080_8080u32 as i32);
        for g in 0..kp / GROUP {
            let mut av = [_mm512_setzero_si512(); MR];
            for (r, av) in av.iter_mut().enumerate() {
                // SAFETY: row `r`'s group `g` is 4 in-bounds bytes.
                let four = unsafe {
                    arows
                        .as_ptr()
                        .add(r * kp + g * GROUP)
                        .cast::<i32>()
                        .read_unaligned()
                };
                *av = _mm512_xor_si512(_mm512_set1_epi32(four), flip);
            }
            for p in 0..NP {
                // SAFETY: group `g` of panel `p` is 64 in-bounds bytes.
                let bv = unsafe {
                    _mm512_loadu_si512(bpanels.as_ptr().add((p * kp / GROUP + g) * 64).cast())
                };
                for (acc, &av) in acc.iter_mut().zip(&av) {
                    acc[p] = _mm512_dpbusd_epi32(acc[p], av, bv);
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            let crow = &mut c[(row + r) * b.n..][..b.n];
            for (p, &v) in acc.iter().enumerate() {
                let col = (panel + p) * PANEL;
                let valid = (b.n - col).min(PANEL);
                // SAFETY: the mask covers columns `col..col + valid`,
                // all inside `crow`.
                unsafe {
                    _mm512_mask_storeu_epi32(
                        crow.as_mut_ptr().add(col),
                        ((1u32 << valid) - 1) as __mmask16,
                        v,
                    )
                };
            }
        }
    }

    /// AVX2 tile: `MR` rows against `NP` panels. Each panel takes four
    /// ymm accumulators of four columns × two partial sums (`vpmaddwd`
    /// adds pairs of k), folded together once at the end.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`; the bounds are as for
    /// [`tile_vnni`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile_avx2<const MR: usize, const NP: usize>(
        a: &[i8],
        b: &Int8Weights,
        c: &mut [i32],
        row: usize,
        panel: usize,
    ) {
        let kp = b.kp;
        let arows = &a[row * kp..][..MR * kp];
        let bpanels = &b.packed[panel * PANEL * kp..][..NP * PANEL * kp];
        let mut acc = [[[_mm256_setzero_si256(); 4]; NP]; MR];
        for g in 0..kp / GROUP {
            let mut av = [_mm256_setzero_si256(); MR];
            for (r, av) in av.iter_mut().enumerate() {
                // SAFETY: row `r`'s group `g` is 4 in-bounds bytes.
                let four = unsafe {
                    arows
                        .as_ptr()
                        .add(r * kp + g * GROUP)
                        .cast::<i32>()
                        .read_unaligned()
                };
                *av = _mm256_cvtepi8_epi16(_mm_set1_epi32(four));
            }
            for p in 0..NP {
                for q in 0..4 {
                    // SAFETY: columns 4q..4q+4 of group `g` of panel `p`
                    // are 16 in-bounds bytes.
                    let bw = _mm256_cvtepi8_epi16(unsafe {
                        _mm_loadu_si128(
                            bpanels
                                .as_ptr()
                                .add((p * kp / GROUP + g) * 64 + q * 16)
                                .cast(),
                        )
                    });
                    for (acc, &av) in acc.iter_mut().zip(&av) {
                        acc[p][q] = _mm256_add_epi32(acc[p][q], _mm256_madd_epi16(av, bw));
                    }
                }
            }
        }
        // `hadd` of two accumulators gives columns [0,1,4,5 | 2,3,6,7]
        // of their eight; the permute puts them in order.
        let order = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
        for (r, acc) in acc.iter().enumerate() {
            let crow = &mut c[(row + r) * b.n..][..b.n];
            for (p, q) in acc.iter().enumerate() {
                let mut sums = [0i32; PANEL];
                for (half, pair) in q.chunks_exact(2).enumerate() {
                    let v = _mm256_permutevar8x32_epi32(_mm256_hadd_epi32(pair[0], pair[1]), order);
                    // SAFETY: `sums` holds 16 values; each half writes 8.
                    unsafe { _mm256_storeu_si256(sums.as_mut_ptr().add(half * 8).cast(), v) };
                }
                let col = (panel + p) * PANEL;
                let valid = (b.n - col).min(PANEL);
                crow[col..][..valid].copy_from_slice(&sums[..valid]);
            }
        }
    }

    /// Baseline SSE2 tile: one row against one panel, the portable
    /// tier's body on x86-64. Each group's 16 weight bytes per four
    /// columns are sign-extended to `i16` and `pmaddwd`-ed against the
    /// row's four activations, leaving two partial sums per column that
    /// are added once at the end. Column quads past `n` are skipped.
    ///
    /// # Safety
    ///
    /// The CPU must support `sse2` (every x86-64 CPU does).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn tile_sse2(
        a: &[i8],
        b: &Int8Weights,
        c: &mut [i32],
        row: usize,
        panel: usize,
    ) {
        let kp = b.kp;
        let arow = &a[row * kp..][..kp];
        let bpanel = &b.packed[panel * PANEL * kp..][..PANEL * kp];
        let col = panel * PANEL;
        let valid = (b.n - col).min(PANEL);
        let quads = valid.div_ceil(4);
        let mut acc = [_mm_setzero_si128(); 8];
        for (ag, bg) in arow
            .chunks_exact(GROUP)
            .zip(bpanel.chunks_exact(PANEL * GROUP))
        {
            // [a0, a1, a2, a3] twice, as i16.
            let four = i32::from_ne_bytes([ag[0], ag[1], ag[2], ag[3]].map(|v| v as u8));
            let av = _mm_set1_epi32(four);
            let av = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(av, av));
            for (q, acc) in acc.chunks_exact_mut(2).take(quads).enumerate() {
                // SAFETY: columns 4q..4q+4 of this group are 16
                // in-bounds bytes of `bg`.
                let bv = unsafe { _mm_loadu_si128(bg.as_ptr().add(q * 16).cast()) };
                let lo = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(bv, bv));
                let hi = _mm_srai_epi16::<8>(_mm_unpackhi_epi8(bv, bv));
                acc[0] = _mm_add_epi32(acc[0], _mm_madd_epi16(lo, av));
                acc[1] = _mm_add_epi32(acc[1], _mm_madd_epi16(hi, av));
            }
        }
        let mut pairs = [0i32; 2 * PANEL];
        for (dst, &v) in pairs.chunks_exact_mut(4).zip(&acc) {
            // SAFETY: `dst` holds 4 values.
            unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) };
        }
        for (dst, pair) in c[row * b.n + col..][..valid]
            .iter_mut()
            .zip(pairs.chunks_exact(2))
        {
            *dst = pair[0] + pair[1];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::quant::quantize_symmetric;
    use crate::weightgen::random_floats;

    /// Every quantizer dispatch level this CPU can run.
    fn host_levels() -> Vec<SimdLevel> {
        let f = simd::detect();
        [
            (SimdLevel::Portable, true),
            (SimdLevel::Avx2, f.avx2),
            (SimdLevel::Avx512, f.avx512),
        ]
        .into_iter()
        .filter_map(|(level, ok)| ok.then_some(level))
        .collect()
    }

    /// Every GEMM body this CPU can run.
    fn host_kernels() -> Vec<Int8Kernel> {
        let f = simd::detect();
        [
            (Int8Kernel::Portable, true),
            (Int8Kernel::Avx2, f.avx2),
            (Int8Kernel::Avx512Vnni, f.avx512_vnni),
        ]
        .into_iter()
        .filter_map(|(kernel, ok)| ok.then_some(kernel))
        .collect()
    }

    /// Every level's quantizer against the scalar oracle, bit for bit.
    fn assert_quantizer_matches_oracle(data: &[f32], what: &str) {
        let (want, want_scale) = quantize_symmetric(data);
        for level in host_levels() {
            let mut got = vec![0i8; data.len()];
            let scale = quantize_at(level, data, &mut got);
            assert_eq!(
                scale.to_bits(),
                want_scale.to_bits(),
                "{what}: scale at {level}"
            );
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "{what}: value {} ({i}) at {level}", data[i]);
            }
        }
    }

    #[test]
    fn quantizer_special_values_match_oracle() {
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            f32::MAX,
            f32::MIN,
            1.0,
            -3.5,
        ];
        // Every special alone, every special among finite values, and
        // every pair, so infinities, NaNs and subnormals each set (or
        // fail to set) the scale.
        for &s in &specials {
            assert_quantizer_matches_oracle(&[s], &format!("[{s}]"));
            assert_quantizer_matches_oracle(&[0.25, s, -7.0, 100.0], &format!("with {s}"));
            for &t in &specials {
                assert_quantizer_matches_oracle(&[s, t, s], &format!("[{s}, {t}]"));
            }
        }
        // Subnormal-only inputs: the scale itself underflows to 0 or a
        // subnormal.
        let tiny: Vec<f32> = (1..200).map(|b| f32::from_bits(b * 37)).collect();
        assert_quantizer_matches_oracle(&tiny, "subnormals");
        // All-zero rows of every tail length (scale 1.0).
        for len in 0..70 {
            let zeros = vec![0.0f32; len];
            assert_quantizer_matches_oracle(&zeros, &format!("{len} zeros"));
            let mut out = vec![1i8; len];
            for level in host_levels() {
                assert_eq!(quantize_at(level, &zeros, &mut out), 1.0);
            }
        }
    }

    #[test]
    fn quantizer_rounds_halves_away_from_zero() {
        // Every k + 0.5 in -130..=130, both its 1-ulp neighbours, and k
        // itself hit the rounding and clamping edges. The rounding pass
        // sees them as quotients at scale 1.0 directly: a whole input's
        // quotients never pass ±127 (its maximum maps to 127), so only
        // this reaches the clamp.
        let mut data = Vec::new();
        for k in -130i32..=130 {
            let half = k as f32 + 0.5;
            data.extend([
                half,
                f32::from_bits(half.to_bits() - 1),
                f32::from_bits(half.to_bits() + 1),
                k as f32,
            ]);
        }
        let want: Vec<i8> = data
            .iter()
            .map(|&v| (v / 1.0f32).round().clamp(-127.0, 127.0) as i8)
            .collect();
        for level in host_levels() {
            let mut got = vec![0i8; data.len()];
            quantize_scaled_at(level, &data, 1.0, &mut got);
            assert_eq!(got, want, "{level}");
        }
        // Through the whole quantizer, beside a 127 anchor that makes the
        // scale exactly 1.0.
        let mut anchored = vec![127.0f32];
        anchored.extend(data.iter().copied().filter(|v| v.abs() <= 127.0));
        assert_quantizer_matches_oracle(&anchored, "halves");
        let (q, scale) = quantize_symmetric(&anchored);
        assert_eq!(scale, 1.0);
        // 0.5 -> 1, -0.5 -> -1, 2.5 -> 3 (not banker's rounding).
        let at = |v: f32| q[anchored.iter().position(|&d| d == v).unwrap()];
        assert_eq!((at(0.5), at(-0.5), at(2.5), at(-2.5)), (1, -1, 3, -3));
    }

    #[test]
    fn quantizer_matches_oracle_on_strided_bit_patterns() {
        // A strided sweep of all 2^32 patterns, quantized in windows of
        // ragged lengths (every vector tail), and again restricted to
        // |v| < 130 beside a 127 anchor so the rounding is exercised at
        // scale 1.0 instead of vanishing under a huge maximum.
        let all: Vec<f32> = (0..=u32::MAX).step_by(65_521).map(f32::from_bits).collect();
        let mut start = 0;
        for len in (1..).map(|i| i % 67 + 1) {
            if start >= all.len() {
                break;
            }
            let end = (start + len).min(all.len());
            assert_quantizer_matches_oracle(&all[start..end], &format!("window {start}"));
            start = end;
        }
        let mut small = vec![127.0f32];
        small.extend(all.iter().copied().filter(|v| v.abs() < 130.0));
        for chunk in small.chunks(129) {
            let mut anchored = vec![127.0f32];
            anchored.extend_from_slice(chunk);
            assert_quantizer_matches_oracle(&anchored, "anchored sweep");
        }
    }

    /// Naive `c[m][n] = Σ_k a[m][k] · w[n][k]` on the unpacked matrices.
    fn naive_gemm(a: &[i8], m: usize, w: &[i8], n: usize, k: usize) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for r in 0..m {
            for col in 0..n {
                c[r * n + col] = (0..k)
                    .map(|i| i32::from(a[r * k + i]) * i32::from(w[col * k + i]))
                    .sum();
            }
        }
        c
    }

    fn random_i8(len: usize, seed: u64) -> Vec<i8> {
        random_floats(len, 127.49, seed)
            .into_iter()
            .map(|v| v.round() as i8)
            .collect()
    }

    /// Every host body against the naive loop on `a` (m×k) and `w` (n×k).
    fn assert_gemm_matches_naive(a: &[i8], m: usize, w: &[i8], n: usize, k: usize) {
        let want = naive_gemm(a, m, w, n, k);
        let b = Int8Weights::pack(w, n, k);
        let kp = b.padded_k();
        // Pad bytes meet zero weights: fill them with junk to prove it.
        let mut padded = vec![-128i8; m * kp];
        for r in 0..m {
            padded[r * kp..][..k].copy_from_slice(&a[r * k..][..k]);
        }
        for kernel in host_kernels() {
            let mut c = vec![i32::MIN; m * n];
            gemm_at(kernel, &padded, m, &b, &mut c);
            assert_eq!(c, want, "{} m={m} n={n} k={k}", kernel.name());
        }
        // The scalar body other targets run as their portable tier.
        let mut c = vec![i32::MIN; m * n];
        for_each_tile(m, n.div_ceil(PANEL), 1, 1, 1, |row, _, panel, _| {
            tile_scalar(&padded, &b, &mut c, row, panel)
        });
        assert_eq!(c, want, "scalar m={m} n={n} k={k}");
    }

    #[test]
    fn gemm_matches_naive_at_every_level() {
        // Every M, N and K below is covered; the largest products are
        // skipped by a MAC budget so the unoptimized test build stays
        // fast (M = 256 still meets N = 1000 at the stem's K = 27).
        let ks = [1usize, 3, 4, 27, 31, 32, 33, 63, 64, 65, 255, 256, 1024];
        let ns = [1usize, 5, 8, 16, 17, 1000];
        let ms = [1usize, 3, 8, 256];
        for &k in &ks {
            for &n in &ns {
                for &m in &ms {
                    if m * n * k > 1_100_000 {
                        continue;
                    }
                    let seed = (k * 1_000_000 + n * 1000 + m) as u64;
                    let a = random_i8(m * k, seed);
                    let w = random_i8(n * k, seed + 1);
                    assert_gemm_matches_naive(&a, m, &w, n, k);
                }
            }
        }
        let (a, w) = (random_i8(256 * 27, 7), random_i8(1000 * 27, 8));
        assert_gemm_matches_naive(&a, 256, &w, 1000, 27);
    }

    #[test]
    fn gemm_extremes_cannot_overflow() {
        // All weights -127 against all activations -127 and +127 at
        // K = 1024: the VNNI body's offset activations reach 255·127 per
        // term.
        let (m, n, k) = (5usize, 17usize, 1024usize);
        let w = vec![-127i8; n * k];
        for a_val in [-127i8, 127] {
            let a = vec![a_val; m * k];
            assert_gemm_matches_naive(&a, m, &w, n, k);
        }
        let b = Int8Weights::pack(&w, n, k);
        let mut c = vec![0i32; n];
        gemm(&vec![127i8; k], 1, &b, &mut c);
        assert!(c.iter().all(|&v| v == -127 * 127 * 1024));
    }

    #[test]
    fn packing_round_trips_and_sums_columns() {
        for (n, k) in [(1usize, 1usize), (5, 27), (17, 33), (40, 8)] {
            let w = random_i8(n * k, (n * 100 + k) as u64);
            let b = Int8Weights::pack(&w, n, k);
            assert_eq!((b.n(), b.k(), b.padded_k()), (n, k, padded_k(k)));
            for col in 0..n {
                for i in 0..k {
                    assert_eq!(b.get(col, i), w[col * k + i], "({col}, {i})");
                }
                let sum: i32 = w[col * k..][..k].iter().map(|&v| i32::from(v)).sum();
                assert_eq!(b.wsum[col], sum);
            }
        }
    }

    #[test]
    fn quantized_weights_pack_the_oracle_quantization() {
        let (n, k) = (19usize, 45usize);
        let w = random_floats(n * k, 3.0, 99);
        let (q, scale) = quantize_symmetric(&w);
        let (b, got_scale) = Int8Weights::quantize(&w, n, k);
        assert_eq!(got_scale.to_bits(), scale.to_bits());
        assert_eq!(b, Int8Weights::pack(&q, n, k));
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(Int8Kernel::Portable.name(), "portable");
        assert_eq!(Int8Kernel::Avx2.name(), "avx2");
        assert_eq!(Int8Kernel::Avx512Vnni.name(), "avx512-vnni");
        assert_eq!(kernel_at(SimdLevel::Portable), Int8Kernel::Portable);
        assert!(kernel() <= kernel_at(SimdLevel::Avx512));
    }
}
