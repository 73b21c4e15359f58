//! Runtime CPU-feature dispatch and the conv-lowering selection table.
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
//!   `count_ones` loops (the streaming conv).
//!
//! Either way a thin dispatcher gates each body on [`level()`].
//!
//! The one runtime kernel choice is the 3×3 conv lowering (streaming
//! direct vs im2col, see `engine`): its per-geometry decisions are cached
//! and recorded here, and exposed through [`conv_choices()`] so
//! `bnnkc features` and the perfsuite can report which path served each
//! measurement. The binary GEMM has one kernel and makes no choice.
//!
//! # Environment overrides
//!
//! * `BITNN_SIMD` = `portable` | `avx2` | `avx512` | `auto` — caps the
//!   dispatch level. A cap can only *disable* features the CPU has, never
//!   enable ones it lacks, so forcing is always safe; `BITNN_SIMD=portable`
//!   is how CI exercises the fallback kernels on AVX2 hosts.

use std::sync::{Mutex, OnceLock};

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

/// Whether dispatches may use the AVX-512 instantiations.
#[inline]
pub(crate) fn avx512() -> bool {
    level() >= SimdLevel::Avx512
}

/// Where a recorded conv lowering selection came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceSource {
    /// Picked by the runtime micro-autotuner.
    Autotuned,
    /// Pinned via `BITNN_CONV` or an explicit [`crate::exec::ConvMode`].
    Forced,
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

/// The 3×3 lowering a conv geometry resolved to under the streaming
/// autotuner: the im2col-free shifted-window path or the im2col+GEMM
/// lowering (see `ops::streamconv` / `ops::im2col`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvLowering {
    /// Streaming shifted-window direct path.
    Stream,
    /// Materialized im2col + tiled GEMM.
    Im2col,
}

impl ConvLowering {
    /// Stable name, as printed by `bnnkc features` / the perfsuite schema.
    pub fn name(self) -> &'static str {
        match self {
            ConvLowering::Stream => "stream",
            ConvLowering::Im2col => "im2col",
        }
    }
}

impl std::fmt::Display for ConvLowering {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The geometry key a 3×3 conv lowering decision is cached under. The
/// batch size is deliberately absent: both candidate paths scale linearly
/// in it, so the per-image winner is the per-batch winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub channels: usize,
    /// Output filters.
    pub filters: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Spatial stride.
    pub stride: usize,
    /// Spatial padding.
    pub pad: usize,
}

/// One recorded conv lowering selection: which path serves a geometry,
/// and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvChoice {
    /// The conv geometry.
    pub geom: ConvGeom,
    /// The selected lowering.
    pub lowering: ConvLowering,
    /// Autotuned or forced (`BITNN_CONV` / a pinned policy).
    pub source: ChoiceSource,
}

/// Decision caches stop growing past this many distinct geometries — a
/// graph with more unique conv shapes than this has the excess tuned
/// again on every dispatch, which costs speed but never correctness.
const CONV_CACHE_CAP: usize = 256;

/// Per-geometry decision cache. Holds *autotuned* entries only: a pinned
/// `BITNN_CONV=stream|im2col` engine must not poison the tuned choice an
/// `auto` engine in the same process would make for the same geometry.
static CONV_TABLE: Mutex<Vec<(ConvGeom, ConvLowering)>> = Mutex::new(Vec::new());

/// Record of every selection (tuned and forced) in decision order, for
/// `bnnkc features` and the perfsuite. Deduplicated by geometry+source.
static CONV_LOG: Mutex<Vec<ConvChoice>> = Mutex::new(Vec::new());

/// The cached autotuned lowering for `geom`, if one has been recorded.
/// A linear scan under the lock — the table is small and the warmed
/// forward path performs no allocation here.
pub(crate) fn conv_choice_cached(geom: ConvGeom) -> Option<ConvLowering> {
    let table = CONV_TABLE.lock().ok()?;
    table.iter().find(|(g, _)| *g == geom).map(|&(_, l)| l)
}

/// Record an autotuned decision for `geom`. First writer wins (a benign
/// double-tune race picks whichever insert lands first); past
/// [`CONV_CACHE_CAP`] the decision is dropped rather than grown.
pub(crate) fn record_conv_choice(geom: ConvGeom, lowering: ConvLowering) {
    if let Ok(mut table) = CONV_TABLE.lock() {
        if table.iter().any(|(g, _)| *g == geom) {
            return;
        }
        if table.len() < CONV_CACHE_CAP {
            table.push((geom, lowering));
        }
    }
    log_conv_choice(ConvChoice {
        geom,
        lowering,
        source: ChoiceSource::Autotuned,
    });
}

/// Record that a pinned policy (`BITNN_CONV` or an explicit
/// [`crate::exec::ConvMode`]) decided a live 3×3 dispatch. Reporting only —
/// never touches the decision cache.
pub(crate) fn record_forced_conv(geom: ConvGeom, lowering: ConvLowering) {
    log_conv_choice(ConvChoice {
        geom,
        lowering,
        source: ChoiceSource::Forced,
    });
}

fn log_conv_choice(choice: ConvChoice) {
    if let Ok(mut log) = CONV_LOG.lock() {
        if log
            .iter()
            .any(|c| c.geom == choice.geom && c.source == choice.source)
        {
            return;
        }
        if log.len() < CONV_CACHE_CAP {
            log.push(choice);
        }
    }
}

/// The conv lowering selections recorded so far, in decision order. Only
/// geometries that have actually been dispatched (or warmed via
/// `engine::warm_conv_table`) appear.
pub fn conv_choices() -> Vec<ConvChoice> {
    CONV_LOG.lock().map(|log| log.clone()).unwrap_or_default()
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

    #[test]
    fn conv_table_caches_and_separates_forced_entries() {
        // A geometry no real dispatch in this test binary will hit.
        let geom = ConvGeom {
            channels: 3,
            filters: 5,
            h: 101,
            w: 7,
            stride: 1,
            pad: 1,
        };
        assert_eq!(conv_choice_cached(geom), None);
        // Forced entries are reporting-only: the decision cache must stay
        // clean for a later auto engine.
        record_forced_conv(geom, ConvLowering::Stream);
        assert_eq!(conv_choice_cached(geom), None);
        record_conv_choice(geom, ConvLowering::Im2col);
        assert_eq!(conv_choice_cached(geom), Some(ConvLowering::Im2col));
        // First insert wins; a benign double-tune cannot flip it.
        record_conv_choice(geom, ConvLowering::Stream);
        assert_eq!(conv_choice_cached(geom), Some(ConvLowering::Im2col));
        let log = conv_choices();
        assert!(log
            .iter()
            .any(|c| c.geom == geom && c.source == ChoiceSource::Forced));
        assert!(log.iter().any(|c| c.geom == geom
            && c.source == ChoiceSource::Autotuned
            && c.lowering == ConvLowering::Im2col));
    }
}
