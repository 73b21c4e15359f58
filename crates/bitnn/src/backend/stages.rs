//! Element-wise stage kernels over pixel-major (`[n, h, w, c]`)
//! activations: the conv epilogue every conv step of the fused plan runs
//! on its `[pixel][filter]` `i32` rows, the channel duplication the plan's
//! `ChannelDup` step runs, and the shortcut add / NCHW channel
//! duplication the scalar oracle uses.
//!
//! The epilogue ([`epilogue_rows`]) is one kernel with AVX-512, AVX2 and
//! portable bodies on [`crate::simd::level`]. Per output value it
//! computes either `acc as f32` (the unfused `Conv` step) or, for a fused
//! `BatchNorm → (+ shortcut) → RPReLU` step,
//! `apply_params(si, sl, so, (s·acc + o) + r)` — the scalar oracle's
//! operations in its order. The SIMD bodies multiply and add separately
//! (an FMA rounds once, the oracle twice) and select on an ordered
//! `t > 0` compare, so NaN and −0.0 follow the scalar branch. The
//! shortcut `r` is the source value at the same pixel (channel `ch % C_in`,
//! which covers the identity and the `C → 2C` duplication) or the 2×2
//! average pool of the source, accumulated in [`avg_pool_2x2`]'s order.
//!
//! [`avg_pool_2x2`]: crate::layers::avg_pool_2x2

use crate::error::{BitnnError, Result};
use crate::layers::prelu::apply_params;
use crate::layers::{BatchNorm, RPReLU};
use crate::simd::{self, SimdLevel};
use crate::tensor::Tensor;

/// The shortcut operand of a fused conv epilogue.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Residual<'a> {
    /// The source map at the same pixel, `[pixel][c_in]`: output channel
    /// `ch` reads `ch % c_in` (identity when `c_in` equals the conv's
    /// filters, duplication when it is half of them).
    Channels {
        /// Source rows, one per output pixel.
        src: &'a [f32],
        /// Source channels.
        c_in: usize,
    },
    /// The 2×2 average pool of a `[n, h, w, c]` source map, whose
    /// `h.div_ceil(2) × w.div_ceil(2)` output is the conv's map.
    Pool {
        /// Source rows, `[n][h][w][c]`.
        src: &'a [f32],
        /// Source height.
        h: usize,
        /// Source width.
        w: usize,
    },
}

/// What a conv step's epilogue computes from its `i32` rows.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Epilogue<'a> {
    /// `acc as f32` (the unfused `Conv` step).
    Convert,
    /// `act(bn(acc) + residual)`.
    Fused {
        /// Folded batch-norm scale and offset, then the RPReLU's
        /// `(shift_in, slope, shift_out)`, one value per output channel.
        params: Params<'a>,
        /// The shortcut.
        residual: Residual<'a>,
        /// Output channels (the conv's filters).
        c: usize,
        /// Output map height and width (the pool residual's geometry).
        oh: usize,
        /// See `oh`.
        ow: usize,
    },
}

/// Per-channel parameters of a fused epilogue over a run of channels.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Params<'a> {
    s: &'a [f32],
    o: &'a [f32],
    si: &'a [f32],
    sl: &'a [f32],
    so: &'a [f32],
}

impl<'a> Params<'a> {
    /// Channels `range` of every parameter.
    #[inline(always)]
    fn slice(self, range: std::ops::Range<usize>) -> Params<'a> {
        Params {
            s: &self.s[range.clone()],
            o: &self.o[range.clone()],
            si: &self.si[range.clone()],
            sl: &self.sl[range.clone()],
            so: &self.so[range],
        }
    }
}

impl<'a> Epilogue<'a> {
    /// The fused `bn → (+ residual) → act` epilogue of a conv writing a
    /// `[n, oh, ow, c]` map. `residual` must hold `n` images of the
    /// matching geometry.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::Unsupported`] when the shortcut cannot be
    /// added to the conv's output: a channel shortcut whose width is
    /// neither `c` nor `c / 2`, or whose map is not the conv's; a pooled
    /// shortcut whose pooled map or channel count is not the conv's; or
    /// parameters for another channel count.
    pub(crate) fn fused(
        bn: &'a BatchNorm,
        act: &'a RPReLU,
        residual: Residual<'a>,
        (n, oh, ow, c): (usize, usize, usize, usize),
    ) -> Result<Self> {
        let ok = match residual {
            Residual::Channels { src, c_in } => {
                (c_in == c || 2 * c_in == c) && src.len() == n * oh * ow * c_in
            }
            Residual::Pool { src, h, w } => {
                (h.div_ceil(2), w.div_ceil(2)) == (oh, ow) && src.len() == n * h * w * c
            }
        };
        if !ok {
            return Err(BitnnError::Unsupported(format!(
                "shortcut {residual:?} cannot be added to a [{n}, {oh}, {ow}, {c}] conv output",
            )));
        }
        if bn.channels() != c || act.channels() != c {
            return Err(BitnnError::Unsupported(format!(
                "{c}-filter conv epilogue with {}-channel batch-norm and {}-channel RPReLU",
                bn.channels(),
                act.channels()
            )));
        }
        let (si, sl, so) = act.params();
        Ok(Epilogue::Fused {
            params: Params {
                s: bn.folded_scale(),
                o: bn.folded_offset(),
                si,
                sl,
                so,
            },
            residual,
            c,
            oh,
            ow,
        })
    }
}

/// Run `ep` over a band of conv output rows: `acc` and `out` hold the
/// `[pixel][filter]` rows of output pixels `first ..`, at the detected
/// dispatch level.
pub(crate) fn epilogue_rows(ep: &Epilogue<'_>, first: usize, acc: &[i32], out: &mut [f32]) {
    epilogue_at(simd::level(), ep, first, acc, out);
}

/// [`epilogue_rows`] at an explicit dispatch level, clamped to what the
/// CPU has.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn epilogue_at(
    level: SimdLevel,
    ep: &Epilogue<'_>,
    first: usize,
    acc: &[i32],
    out: &mut [f32],
) {
    assert_eq!(acc.len(), out.len(), "epilogue band");
    if let Epilogue::Fused { params: p, c, .. } = *ep {
        // The wide bodies load the parameters under masks sized by `c`.
        assert!(
            [p.s, p.o, p.si, p.sl, p.so].iter().all(|v| v.len() == c),
            "epilogue parameters for {c} channels"
        );
    }
    #[cfg(target_arch = "x86_64")]
    {
        let f = simd::detect();
        if level >= SimdLevel::Avx512 && f.avx512 {
            // SAFETY: avx512f was detected at runtime.
            return unsafe { x86::band_avx512(ep, first, acc, out) };
        }
        if level >= SimdLevel::Avx2 && f.avx2 {
            // SAFETY: avx2 was detected at runtime.
            return unsafe { x86::band_avx2(ep, first, acc, out) };
        }
    }
    // SAFETY: the portable body needs no CPU feature.
    unsafe { walk_band::<Portable>(ep, first, acc, out) }
}

/// The fused conv epilogue with a channel shortcut, on the calling
/// thread at the detected dispatch level: `out = act(bn(rows) +
/// shortcut)` over `[pixel][filter]` `i32` conv rows, where `shortcut`
/// is a pixel-major `[n, h, w, c_in]` map and the output is
/// `[n, h, w, C]` with `C = bn.channels()` (the identity when
/// `c_in = C`, duplication when `2·c_in = C`). This is the kernel the
/// fused plan runs inside each conv's parallel chunks, exposed for
/// benchmarks and diagnostics.
///
/// # Errors
///
/// Returns [`BitnnError::Unsupported`] when the shapes do not fit (see
/// the shortcut rules above), or `rows` is not `n·h·w·C` long.
pub fn fused_epilogue_into(
    rows: &[i32],
    bn: &BatchNorm,
    act: &RPReLU,
    shortcut: &Tensor,
    out: &mut Tensor,
) -> Result<()> {
    let &[n, h, w, c_in] = shortcut.shape() else {
        return Err(BitnnError::Unsupported(format!(
            "shortcut {:?} is not a 4-D map",
            shortcut.shape()
        )));
    };
    let geom = (n, h, w, bn.channels());
    if rows.len() != n * h * w * bn.channels() {
        return Err(BitnnError::Unsupported(format!(
            "{} conv rows for a {geom:?} output",
            rows.len()
        )));
    }
    let residual = Residual::Channels {
        src: shortcut.data(),
        c_in,
    };
    let ep = Epilogue::fused(bn, act, residual, geom)?;
    out.reset_for_overwrite(&[n, h, w, bn.channels()]);
    epilogue_rows(&ep, 0, rows, out.data_mut());
    Ok(())
}

/// One dispatch level's bodies over a run of channels.
///
/// # Safety
///
/// Every method needs the CPU to support the level's features, and
/// `out`, `r`, each tap and each parameter slice to be at least as long
/// as `acc`: the wide bodies load and store them all under masks sized
/// by `acc.len()`.
trait Lanes {
    /// `out = acc as f32`.
    unsafe fn convert(acc: &[i32], out: &mut [f32]);
    /// The fused formula with the residual read directly from `r`.
    unsafe fn fused(acc: &[i32], r: &[f32], p: Params<'_>, out: &mut [f32]);
    /// The fused formula with the residual the average of `taps`
    /// (summed from `0.0` in order, then divided by their count). A 2×2
    /// window has 1, 2 or 4 in-bounds taps, so the wide bodies multiply
    /// by the exact reciprocal: `x · 2⁻ᵏ` and `x / 2ᵏ` round the same
    /// real number, and a vector divide costs several multiplies.
    unsafe fn pooled(acc: &[i32], taps: &[&[f32]], p: Params<'_>, out: &mut [f32]);
}

/// Values per vector step of the wide bodies, and the period of the
/// replicated parameters below.
const STEP: usize = 16;

/// The band walk shared by every level: the unfused conversion is one
/// flat run; an identity shortcut whose `C` divides 16 is a flat run over
/// parameters replicated to 16 lanes (several pixels per vector);
/// otherwise each pixel row is one run per `C_in` channels of output.
///
/// # Safety
///
/// The CPU must support `L`'s features. `ep` must come from
/// [`Epilogue::fused`] (or be `Convert`), whose checks make every run
/// below satisfy [`Lanes`]' length contract, and `acc` and `out` must be
/// equally long whole rows.
#[inline(always)]
unsafe fn walk_band<L: Lanes>(ep: &Epilogue<'_>, first: usize, acc: &[i32], out: &mut [f32]) {
    let Epilogue::Fused {
        params,
        residual,
        c,
        oh,
        ow,
    } = *ep
    else {
        // SAFETY: the caller enabled `L`'s features.
        return unsafe { L::convert(acc, out) };
    };
    match residual {
        Residual::Channels { src, c_in } if c_in == c && STEP.is_multiple_of(c) => {
            let mut rep = [[0.0f32; STEP]; 5];
            for (dst, p) in rep
                .iter_mut()
                .zip([params.s, params.o, params.si, params.sl, params.so])
            {
                for (j, v) in dst.iter_mut().enumerate() {
                    *v = p[j % c];
                }
            }
            let r = &src[first * c..][..acc.len()];
            for ((a, r), o) in acc
                .chunks(STEP)
                .zip(r.chunks(STEP))
                .zip(out.chunks_mut(STEP))
            {
                let n = a.len();
                let p = Params {
                    s: &rep[0][..n],
                    o: &rep[1][..n],
                    si: &rep[2][..n],
                    sl: &rep[3][..n],
                    so: &rep[4][..n],
                };
                // SAFETY: as above.
                unsafe { L::fused(a, r, p, o) };
            }
        }
        Residual::Channels { src, c_in } => {
            for (pix, (a, o)) in acc.chunks_exact(c).zip(out.chunks_exact_mut(c)).enumerate() {
                let r = &src[(first + pix) * c_in..][..c_in];
                for lo in (0..c).step_by(c_in) {
                    let run = lo..lo + c_in;
                    // SAFETY: as above.
                    unsafe { L::fused(&a[run.clone()], r, params.slice(run.clone()), &mut o[run]) };
                }
            }
        }
        Residual::Pool { src, h, w } => {
            // The output pixel `first + pix`, advanced in step.
            let (mut img, mut oy, mut ox) = (first / (oh * ow), first % (oh * ow) / ow, first % ow);
            for (a, o) in acc.chunks_exact(c).zip(out.chunks_exact_mut(c)) {
                // The in-bounds taps of the 2×2 window, in `avg_pool_2x2`'s
                // accumulation order.
                let mut taps: [&[f32]; 4] = [&[]; 4];
                let mut cnt = 0;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let (y, x) = (oy * 2 + dy, ox * 2 + dx);
                        if y < h && x < w {
                            taps[cnt] = &src[((img * h + y) * w + x) * c..][..c];
                            cnt += 1;
                        }
                    }
                }
                // SAFETY: as above.
                unsafe { L::pooled(a, &taps[..cnt], params, o) };
                ox += 1;
                if ox == ow {
                    ox = 0;
                    oy += 1;
                    if oy == oh {
                        oy = 0;
                        img += 1;
                    }
                }
            }
        }
    }
}

/// The portable bodies: the oracle's scalar formula per value.
struct Portable;

impl Lanes for Portable {
    unsafe fn convert(acc: &[i32], out: &mut [f32]) {
        for (o, &a) in out.iter_mut().zip(acc) {
            *o = a as f32;
        }
    }

    unsafe fn fused(acc: &[i32], r: &[f32], p: Params<'_>, out: &mut [f32]) {
        for (j, o) in out.iter_mut().enumerate() {
            let x = (p.s[j] * acc[j] as f32 + p.o[j]) + r[j];
            *o = apply_params(p.si[j], p.sl[j], p.so[j], x);
        }
    }

    unsafe fn pooled(acc: &[i32], taps: &[&[f32]], p: Params<'_>, out: &mut [f32]) {
        for (j, o) in out.iter_mut().enumerate() {
            let mut sum = 0.0f32;
            for t in taps {
                sum += t[j];
            }
            let r = sum / taps.len() as f32;
            let x = (p.s[j] * acc[j] as f32 + p.o[j]) + r;
            *o = apply_params(p.si[j], p.sl[j], p.so[j], x);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{walk_band, Epilogue, Lanes, Params};
    use crate::simd::lane_mask16 as lane_mask;
    use std::arch::x86_64::*;

    /// AVX-512 body of [`super::epilogue_at`].
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn band_avx512(
        ep: &Epilogue<'_>,
        first: usize,
        acc: &[i32],
        out: &mut [f32],
    ) {
        // SAFETY: the features `Avx512`'s bodies need are enabled here.
        unsafe { walk_band::<Avx512>(ep, first, acc, out) }
    }

    /// AVX2 body of [`super::epilogue_at`].
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn band_avx2(ep: &Epilogue<'_>, first: usize, acc: &[i32], out: &mut [f32]) {
        // SAFETY: as above, for `Avx2`.
        unsafe { walk_band::<Avx2>(ep, first, acc, out) }
    }

    /// Masked 16-lane load of `s[j..]`.
    ///
    /// # Safety
    ///
    /// `m` may only select lanes inside `s`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load16(m: __mmask16, s: &[f32], j: usize) -> __m512 {
        // SAFETY: the caller keeps `m` inside `s`.
        unsafe { _mm512_maskz_loadu_ps(m, s.as_ptr().add(j)) }
    }

    /// BN, residual add and RPReLU of 16 lanes, stored under `m`.
    ///
    /// # Safety
    ///
    /// As [`load16`], for `acc`, `p` and `out`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn finish16(
        m: __mmask16,
        j: usize,
        acc: &[i32],
        r: __m512,
        p: &Params<'_>,
        out: &mut [f32],
    ) {
        // SAFETY: the caller keeps `m` inside every slice.
        unsafe {
            let a = _mm512_cvtepi32_ps(_mm512_maskz_loadu_epi32(m, acc.as_ptr().add(j).cast()));
            // `s·a + o`, rounded twice like the oracle (no FMA).
            let x = _mm512_add_ps(_mm512_mul_ps(load16(m, p.s, j), a), load16(m, p.o, j));
            let t = _mm512_sub_ps(_mm512_add_ps(x, r), load16(m, p.si, j));
            // Ordered `t > 0`: NaN and −0.0 take the slope branch.
            let gt = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(t, _mm512_setzero_ps());
            let y = _mm512_mask_blend_ps(gt, _mm512_mul_ps(load16(m, p.sl, j), t), t);
            let y = _mm512_add_ps(y, load16(m, p.so, j));
            _mm512_mask_storeu_ps(out.as_mut_ptr().add(j), m, y);
        }
    }

    /// AVX-512F bodies: 16 lanes per step, masked tails.
    struct Avx512;

    impl Lanes for Avx512 {
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn convert(acc: &[i32], out: &mut [f32]) {
            for j in (0..acc.len()).step_by(16) {
                let m = lane_mask(acc.len() - j);
                // SAFETY: `m` covers only the in-bounds values.
                unsafe {
                    let a = _mm512_maskz_loadu_epi32(m, acc.as_ptr().add(j).cast());
                    _mm512_mask_storeu_ps(out.as_mut_ptr().add(j), m, _mm512_cvtepi32_ps(a));
                }
            }
        }

        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn fused(acc: &[i32], r: &[f32], p: Params<'_>, out: &mut [f32]) {
            for j in (0..acc.len()).step_by(16) {
                let m = lane_mask(acc.len() - j);
                // SAFETY: `m` covers only the in-bounds values.
                unsafe { finish16(m, j, acc, load16(m, r, j), &p, out) };
            }
        }

        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn pooled(acc: &[i32], taps: &[&[f32]], p: Params<'_>, out: &mut [f32]) {
            debug_assert!(taps.len().is_power_of_two());
            let inv = _mm512_set1_ps(1.0 / taps.len() as f32);
            for j in (0..acc.len()).step_by(16) {
                let m = lane_mask(acc.len() - j);
                let mut sum = _mm512_setzero_ps();
                for t in taps {
                    // SAFETY: `m` covers only the in-bounds values.
                    sum = _mm512_add_ps(sum, unsafe { load16(m, t, j) });
                }
                // SAFETY: as above.
                unsafe { finish16(m, j, acc, _mm512_mul_ps(sum, inv), &p, out) };
            }
        }
    }

    /// The `maskload`/`maskstore` mask of an 8-lane step with `remaining`
    /// values left.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn mask8(remaining: usize) -> __m256i {
        const ONES: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
        // SAFETY: `8 - min(remaining, 8)` leaves 8 values of `ONES`.
        unsafe { _mm256_loadu_si256(ONES.as_ptr().add(8 - remaining.min(8)).cast()) }
    }

    /// Masked 8-lane load of `s[j..]`.
    ///
    /// # Safety
    ///
    /// `m` may only select lanes inside `s`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load8(m: __m256i, s: &[f32], j: usize) -> __m256 {
        // SAFETY: the caller keeps `m` inside `s`.
        unsafe { _mm256_maskload_ps(s.as_ptr().add(j), m) }
    }

    /// [`finish16`] on 8 lanes.
    ///
    /// # Safety
    ///
    /// As [`load8`], for `acc`, `p` and `out`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn finish8(
        m: __m256i,
        j: usize,
        acc: &[i32],
        r: __m256,
        p: &Params<'_>,
        out: &mut [f32],
    ) {
        // SAFETY: the caller keeps `m` inside every slice.
        unsafe {
            let a = _mm256_cvtepi32_ps(_mm256_maskload_epi32(acc.as_ptr().add(j), m));
            let x = _mm256_add_ps(_mm256_mul_ps(load8(m, p.s, j), a), load8(m, p.o, j));
            let t = _mm256_sub_ps(_mm256_add_ps(x, r), load8(m, p.si, j));
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(t, _mm256_setzero_ps());
            let y = _mm256_blendv_ps(_mm256_mul_ps(load8(m, p.sl, j), t), t, gt);
            let y = _mm256_add_ps(y, load8(m, p.so, j));
            _mm256_maskstore_ps(out.as_mut_ptr().add(j), m, y);
        }
    }

    /// AVX2 bodies: 8 lanes per step, `maskload` tails.
    struct Avx2;

    impl Lanes for Avx2 {
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn convert(acc: &[i32], out: &mut [f32]) {
            for j in (0..acc.len()).step_by(8) {
                let m = mask8(acc.len() - j);
                // SAFETY: `m` covers only the in-bounds values.
                unsafe {
                    let a = _mm256_maskload_epi32(acc.as_ptr().add(j), m);
                    _mm256_maskstore_ps(out.as_mut_ptr().add(j), m, _mm256_cvtepi32_ps(a));
                }
            }
        }

        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn fused(acc: &[i32], r: &[f32], p: Params<'_>, out: &mut [f32]) {
            for j in (0..acc.len()).step_by(8) {
                let m = mask8(acc.len() - j);
                // SAFETY: `m` covers only the in-bounds values.
                unsafe { finish8(m, j, acc, load8(m, r, j), &p, out) };
            }
        }

        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn pooled(acc: &[i32], taps: &[&[f32]], p: Params<'_>, out: &mut [f32]) {
            debug_assert!(taps.len().is_power_of_two());
            let inv = _mm256_set1_ps(1.0 / taps.len() as f32);
            for j in (0..acc.len()).step_by(8) {
                let m = mask8(acc.len() - j);
                let mut sum = _mm256_setzero_ps();
                for t in taps {
                    // SAFETY: `m` covers only the in-bounds values.
                    sum = _mm256_add_ps(sum, unsafe { load8(m, t, j) });
                }
                // SAFETY: as above.
                unsafe { finish8(m, j, acc, _mm256_mul_ps(sum, inv), &p, out) };
            }
        }
    }
}

/// Channel duplication over pixel-major maps (the plan's `ChannelDup`
/// step): each `[h, w]` pixel's `C` values, then the same `C` again.
///
/// # Errors
///
/// Returns [`BitnnError::Unsupported`] unless `out_ch` is `2C` (the only
/// width a `ChannelDup` node produces) and `x` is 4-D.
pub(crate) fn channel_dup_nhwc_into(x: &Tensor, out_ch: usize, out: &mut Tensor) -> Result<()> {
    let shape = x.shape();
    if shape.len() != 4 || out_ch != 2 * shape[3] {
        return Err(BitnnError::Unsupported(format!(
            "channel duplication of {shape:?} to {out_ch} channels"
        )));
    }
    let c = shape[3];
    out.reset_for_overwrite(&[shape[0], shape[1], shape[2], out_ch]);
    for (src, dst) in x
        .data()
        .chunks_exact(c)
        .zip(out.data_mut().chunks_exact_mut(out_ch))
    {
        dst[..c].copy_from_slice(src);
        dst[c..].copy_from_slice(src);
    }
    Ok(())
}

/// Element-wise sum of same-shape tensors.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    add_into(a, b, &mut out);
    out
}

/// [`add`] into a reusable output tensor (the graph executor's arena
/// path; the sum is layout-agnostic). Bit-exact: the same element-wise
/// sum.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn add_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(a.shape(), b.shape(), "add: shape mismatch");
    out.reset_for_overwrite(a.shape());
    for ((o, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
        *o = x + y;
    }
}

/// Channel shortcut of the scalar oracle (NCHW): identity when counts
/// match, duplication (concat with itself) when the block doubles the
/// channels — the graph's `ChannelDup` node.
///
/// # Panics
///
/// Panics if `out_ch` is neither `C` nor `2C`.
pub(crate) fn shortcut_channels(x: &Tensor, out_ch: usize) -> Tensor {
    let shape = x.shape();
    let c = shape[1];
    if out_ch == c {
        return x.clone();
    }
    assert_eq!(out_ch, 2 * c, "channel shortcut requires C or 2C output");
    let (n, h, w) = (shape[0], shape[2], shape[3]);
    let mut out = Tensor::zeros(&[n, out_ch, h, w]);
    for img in 0..n {
        for ch in 0..c {
            for y in 0..h {
                for xx in 0..w {
                    let v = x.at4(img, ch, y, xx);
                    out.set4(img, ch, y, xx, v);
                    out.set4(img, ch + c, y, xx, v);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weightgen::random_floats;

    #[test]
    fn add_requires_same_shape() {
        let a = Tensor::zeros(&[1, 2, 2, 2]);
        let b = Tensor::zeros(&[1, 2, 2, 2]);
        let c = add(&a, &b);
        assert_eq!(c.shape(), a.shape());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_panics_on_mismatch() {
        add(&Tensor::zeros(&[1, 2, 2, 2]), &Tensor::zeros(&[1, 2, 2, 3]));
    }

    #[test]
    fn unsupported_stride_is_a_typed_error() {
        // A pooled shortcut only fits a stride-2 conv's map: a 6×6 source
        // pools to 3×3, so a 2×2 conv output (stride 3) is rejected.
        let x = vec![0.5; 6 * 6 * 8];
        let (bn, act) = (BatchNorm::identity(8), RPReLU::plain(8, 0.25));
        let pool = Residual::Pool {
            src: &x,
            h: 6,
            w: 6,
        };
        let fused = Epilogue::fused(&bn, &act, pool, (1, 2, 2, 8));
        assert!(matches!(fused, Err(BitnnError::Unsupported(_))));
        assert!(Epilogue::fused(&bn, &act, pool, (1, 3, 3, 8)).is_ok());
    }

    #[test]
    fn channel_shortcut_width_is_a_typed_error() {
        // Neither C nor C/2 input channels.
        let x = vec![0.5; 4 * 3];
        let (bn, act) = (BatchNorm::identity(8), RPReLU::plain(8, 0.25));
        let res = Residual::Channels { src: &x, c_in: 3 };
        let fused = Epilogue::fused(&bn, &act, res, (1, 2, 2, 8));
        assert!(matches!(fused, Err(BitnnError::Unsupported(_))));
        // A map of the wrong size is rejected the same way.
        let res = Residual::Channels { src: &x, c_in: 4 };
        let fused = Epilogue::fused(&bn, &act, res, (1, 2, 2, 8));
        assert!(matches!(fused, Err(BitnnError::Unsupported(_))));
    }

    #[test]
    fn channel_dup_width_is_a_typed_error() {
        let x = Tensor::full(&[1, 2, 2, 3], 1.5);
        let mut out = Tensor::default();
        for bad in [3, 5, 7] {
            let got = channel_dup_nhwc_into(&x, bad, &mut out);
            assert!(matches!(got, Err(BitnnError::Unsupported(_))), "{bad}");
        }
        channel_dup_nhwc_into(&x, 6, &mut out).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2, 6]);
    }

    /// Every epilogue dispatch level this CPU can run, noting the ones it
    /// cannot.
    fn host_levels() -> Vec<SimdLevel> {
        let f = simd::detect();
        let mut levels = vec![SimdLevel::Portable];
        for (level, ok) in [(SimdLevel::Avx2, f.avx2), (SimdLevel::Avx512, f.avx512)] {
            if ok {
                levels.push(level);
            } else {
                println!("note: this CPU cannot run the {level} epilogue body; skipped");
            }
        }
        levels
    }

    /// Values with every special case the epilogue must reproduce: ±0.0,
    /// NaN, ±inf, and values equal to the shifts.
    fn specials(len: usize, seed: u64, shift: f32) -> Vec<f32> {
        let pool = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            shift,
            -shift,
        ];
        random_floats(len, 3.0, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                if i % 5 == 0 {
                    pool[(i / 5) % pool.len()]
                } else {
                    v
                }
            })
            .collect()
    }

    /// The values' bits, with every NaN folded to one pattern: NaN must
    /// stay NaN, but neither the oracle's compiled code nor LLVM pins a
    /// NaN's sign or payload.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// The scalar formula the oracle applies per value.
    fn oracle(p: Params<'_>, ch: usize, acc: i32, r: f32) -> f32 {
        let x = (p.s[ch] * acc as f32 + p.o[ch]) + r;
        apply_params(p.si[ch], p.sl[ch], p.so[ch], x)
    }

    #[test]
    fn epilogue_bodies_match_scalar_at_every_level() {
        let levels = host_levels();
        for c in [1usize, 7, 8, 15, 16, 17, 63, 64, 65, 200, 1024] {
            // Channel values hit the RPReLU's shift_in exactly, and zero
            // scales/offsets make `s·acc + o` a signed zero.
            let mut s = random_floats(c, 1.0, c as u64);
            s[0] = 0.0;
            let o = specials(c, c as u64 ^ 1, 0.0);
            let si = random_floats(c, 0.5, c as u64 ^ 2);
            let sl = random_floats(c, 0.5, c as u64 ^ 3);
            let so = random_floats(c, 0.5, c as u64 ^ 4);
            let bn = BatchNorm::identity(c);
            let act = RPReLU::new(si.clone(), sl.clone(), so.clone());
            let p = Params {
                s: &s,
                o: &o,
                si: &si,
                sl: &sl,
                so: &so,
            };
            for pixels in [1usize, 3, 33] {
                let acc: Vec<i32> = (0..pixels * c).map(|i| (i as i32 % 19) - 9).collect();
                // Residuals equal to `shift_in − (s·acc + o)` would need
                // exact cancellation; equal-to-shift values are in `specials`.
                let check = |ep: Epilogue<'_>, want: &[f32], what: &str| {
                    for level in &levels {
                        // A band that starts mid-map must give the same rows.
                        for first in [0, pixels / 2] {
                            let mut got = vec![f32::MIN; (pixels - first) * c];
                            epilogue_at(*level, &ep, first, &acc[first * c..], &mut got);
                            assert_eq!(
                                bits(&got),
                                bits(&want[first * c..]),
                                "{what} c={c} pixels={pixels} first={first} at {level}"
                            );
                        }
                    }
                };
                // Unfused conversion.
                let want: Vec<f32> = acc.iter().map(|&a| a as f32).collect();
                check(Epilogue::Convert, &want, "convert");
                // Identity shortcut.
                let ep_params = |res| {
                    let mut ep = Epilogue::fused(&bn, &act, res, (1, 1, pixels, c)).unwrap();
                    if let Epilogue::Fused { ref mut params, .. } = ep {
                        *params = p;
                    }
                    ep
                };
                let src = specials(pixels * c, (pixels * c) as u64, si[0]);
                let want: Vec<f32> = (0..pixels * c)
                    .map(|i| oracle(p, i % c, acc[i], src[i]))
                    .collect();
                check(
                    ep_params(Residual::Channels { src: &src, c_in: c }),
                    &want,
                    "identity",
                );
                // Channel duplication (even widths only).
                if c % 2 == 0 {
                    let half = c / 2;
                    let src = specials(pixels * half, pixels as u64 ^ 0xD0, so[0]);
                    let want: Vec<f32> = (0..pixels * c)
                        .map(|i| oracle(p, i % c, acc[i], src[i / c * half + i % c % half]))
                        .collect();
                    let res = Residual::Channels {
                        src: &src,
                        c_in: half,
                    };
                    check(ep_params(res), &want, "dup");
                }
            }
            // Pooled shortcut over odd and even maps, batch 2.
            for (h, w) in [(1usize, 1usize), (3, 5), (4, 4), (5, 2)] {
                let (oh, ow) = (h.div_ceil(2), w.div_ceil(2));
                let pixels = 2 * oh * ow;
                let src = specials(2 * h * w * c, (h * w + c) as u64, si[0]);
                let acc: Vec<i32> = (0..pixels * c).map(|i| (i as i32 % 23) - 11).collect();
                let pooled = crate::layers::avg_pool_2x2(
                    &crate::tensor::Tensor::from_vec(&[2, h, w, c], src.clone())
                        .unwrap()
                        .nhwc_to_nchw(),
                );
                let want: Vec<f32> = (0..pixels * c)
                    .map(|i| {
                        let (q, ch) = (i / c, i % c);
                        let (img, y, x) = (q / (oh * ow), q % (oh * ow) / ow, q % ow);
                        oracle(p, ch, acc[i], pooled.at4(img, ch, y, x))
                    })
                    .collect();
                let mut ep = Epilogue::fused(
                    &bn,
                    &act,
                    Residual::Pool { src: &src, h, w },
                    (2, oh, ow, c),
                )
                .unwrap();
                if let Epilogue::Fused { ref mut params, .. } = ep {
                    *params = p;
                }
                for level in &levels {
                    let mut got = vec![f32::MIN; pixels * c];
                    epilogue_at(*level, &ep, 0, &acc, &mut got);
                    assert_eq!(bits(&got), bits(&want), "pool c={c} {h}x{w} at {level}");
                }
            }
        }
    }
}
