//! Runtime CPU-feature dispatch.
//!
//! The crate builds for the portable x86-64 baseline (SSE2, no `popcnt`),
//! but every band kernel the executor hands to its workers also has wider
//! bodies behind `#[target_feature(enable = ...)]`, picked per call
//! through the cached detection below (the compile-once /
//! dispatch-at-runtime scheme daBNN uses for its NEON kernels). They come
//! in two kinds:
//!
//! * Hand-written intrinsics, one body per level: the binary GEMM
//!   ([`crate::ops::gemm`]: AVX-512 `vpopcntq`, AVX2 `vpshufb` nibble
//!   counts, portable `count_ones`), the int8 kernel
//!   ([`crate::ops::int8`]) and the packing transpose.
//! * One portable `#[inline(always)]` body compiled again inside a
//!   `#[target_feature]` wrapper per level, where LLVM vectorizes its
//!   loops (the NCHW binarize).
//!
//! Either way a thin dispatcher gates each body on [`level()`]. No kernel
//! choice is made at run time: every binary conv and GEMM runs the one
//! panel kernel.
//!
//! # Environment overrides
//!
//! * `BITNN_SIMD` = `portable` | `avx2` | `avx512` | `auto` — caps the
//!   dispatch level. A cap can only *disable* features the CPU has, never
//!   enable ones it lacks, so forcing is always safe; `BITNN_SIMD=portable`
//!   is how CI exercises the fallback kernels on AVX2 hosts.

use std::sync::OnceLock;

/// Raw CPU capability bits relevant to the binary kernels, as detected —
/// before any [`BITNN_SIMD` cap](self#environment-overrides) is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// Hardware scalar `popcnt`.
    pub popcnt: bool,
    /// AVX2 (with `popcnt`): the nibble-LUT vector popcount instantiations.
    pub avx2: bool,
    /// AVX-512 F+BW+VPOPCNTDQ: the native 512-bit vector popcount
    /// instantiations.
    pub avx512: bool,
    /// AVX-512 VNNI on top of `avx512`: the int8 GEMM's `vpdpbusd` body
    /// ([`crate::ops::int8`]). Not implied by `avx512`; without it an
    /// AVX-512 host runs the int8 GEMM's AVX2 body.
    pub avx512_vnni: bool,
}

/// Detected CPU capabilities. Detection runs once and is cached.
pub fn detect() -> CpuFeatures {
    static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();
    *FEATURES.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let popcnt = std::arch::is_x86_feature_detected!("popcnt");
            let avx512 = popcnt
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vpopcntdq");
            CpuFeatures {
                popcnt,
                avx2: popcnt && std::arch::is_x86_feature_detected!("avx2"),
                avx512,
                avx512_vnni: avx512 && std::arch::is_x86_feature_detected!("avx512vnni"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            CpuFeatures {
                popcnt: false,
                avx2: false,
                avx512: false,
                avx512_vnni: false,
            }
        }
    })
}

/// The ISA tier a kernel dispatch runs at, ordered from narrowest to
/// widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Baseline x86-64 (or non-x86): scalar `count_ones` loops.
    Portable,
    /// AVX2 + `popcnt` instantiations.
    Avx2,
    /// AVX-512 F/BW/VPOPCNTDQ instantiations.
    Avx512,
}

impl SimdLevel {
    /// Stable lower-case name, as accepted by `BITNN_SIMD` and printed by
    /// `bnnkc features` / the perfsuite schema.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The effective dispatch level: detected capabilities, capped by
/// `BITNN_SIMD` when set. Resolved once and cached.
///
/// An unrecognized `BITNN_SIMD` value is ignored (full detected level)
/// rather than being an error: the variable is a diagnostic/CI knob, not
/// part of the CLI surface.
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let f = detect();
        let detected = if f.avx512 {
            SimdLevel::Avx512
        } else if f.avx2 {
            SimdLevel::Avx2
        } else {
            SimdLevel::Portable
        };
        let cap = match std::env::var("BITNN_SIMD").as_deref() {
            Ok("portable") => SimdLevel::Portable,
            Ok("avx2") => SimdLevel::Avx2,
            _ => SimdLevel::Avx512, // "avx512", "auto", unset, unrecognized
        };
        detected.min(cap)
    })
}

/// Whether dispatches may use the AVX2+popcnt instantiations.
#[inline]
pub(crate) fn avx2() -> bool {
    level() >= SimdLevel::Avx2
}

/// The `__mmask16` of a 16-lane AVX-512 step with `remaining` values
/// left: every lane when at least 16 remain, else the low `remaining`.
#[inline(always)]
pub(crate) fn lane_mask16(remaining: usize) -> u16 {
    if remaining >= 16 {
        u16::MAX
    } else {
        (1u16 << remaining) - 1
    }
}

/// Kept only so the `bnnkc-bench` fingerprint compiles; delete it with
/// the bench's next change. The GEMM has one register blocking, so no
/// GEMM choice is ever made and this type has no values.
#[derive(Debug, Clone, Copy)]
pub enum ShapeClass {}

impl ShapeClass {
    /// Kept for the bench only (see [`ShapeClass`]).
    pub fn name(self) -> &'static str {
        match self {}
    }
}

/// Kept only so the `bnnkc-bench` fingerprint compiles; delete it with
/// the bench's next change. It has no values (see [`ShapeClass`]).
#[derive(Debug, Clone, Copy)]
pub enum GemmVariant {}

impl GemmVariant {
    /// Kept for the bench only (see [`GemmVariant`]).
    pub fn name(self) -> &'static str {
        match self {}
    }
}

/// Kept only so the `bnnkc-bench` fingerprint compiles; delete it with
/// the bench's next change. No value can exist: both fields are empty
/// types.
#[derive(Debug, Clone, Copy)]
pub struct GemmChoice {
    /// Kept for the bench only.
    pub class: ShapeClass,
    /// Kept for the bench only.
    pub variant: GemmVariant,
}

/// Kept only for `bnnkc-bench`, which counts its length; delete it with
/// the bench's next change. Always empty: the GEMM blocking is fixed.
pub fn gemm_choices() -> Vec<GemmChoice> {
    Vec::new()
}

/// Kept only so the `bnnkc-bench` fingerprint compiles; delete it with
/// the bench's next change. Every conv runs one kernel, so no conv
/// lowering is ever chosen and this type has no values.
#[derive(Debug, Clone, Copy)]
pub enum ConvLowering {}

impl ConvLowering {
    /// Kept for the bench only (see [`ConvLowering`]).
    pub fn name(self) -> &'static str {
        match self {}
    }
}

/// Kept only so the `bnnkc-bench` fingerprint compiles; delete it with
/// the bench's next change.
#[derive(Debug, Clone, Copy)]
pub struct ConvGeom {
    /// Kept for the bench only.
    pub channels: usize,
    /// Kept for the bench only.
    pub filters: usize,
    /// Kept for the bench only.
    pub h: usize,
    /// Kept for the bench only.
    pub w: usize,
    /// Kept for the bench only.
    pub stride: usize,
    /// Kept for the bench only.
    pub pad: usize,
}

/// Kept only so the `bnnkc-bench` fingerprint compiles; delete it with
/// the bench's next change. No value can exist: [`ConvLowering`] is
/// empty.
#[derive(Debug, Clone, Copy)]
pub struct ConvChoice {
    /// Kept for the bench only.
    pub geom: ConvGeom,
    /// Kept for the bench only.
    pub lowering: ConvLowering,
}

/// Kept only for `bnnkc-bench`, which counts its length; delete it with
/// the bench's next change. Always empty: no conv lowering is chosen.
pub fn conv_choices() -> Vec<ConvChoice> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_consistent_with_detection() {
        let f = detect();
        let l = level();
        // The cap can lower the level but never raise it past detection.
        if l >= SimdLevel::Avx2 {
            assert!(f.avx2);
        }
        if l >= SimdLevel::Avx512 {
            assert!(f.avx512);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SimdLevel::Portable.name(), "portable");
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert_eq!(SimdLevel::Avx512.name(), "avx512");
    }
}
