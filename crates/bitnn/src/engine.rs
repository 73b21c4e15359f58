//! Parallel tiled execution engine for the binary hot path.
//!
//! The paper's premise is that xnor-popcount inference is compute-bound on
//! the binary GEMM/conv substrate; this module is the piece that actually
//! drives that substrate at speed:
//!
//! * **Panel GEMM** — every matrix product goes through the 8-filter
//!   panel kernel in [`crate::ops::gemm`], which broadcasts each
//!   activation word against a vector of filters and keeps up to 4 pixels
//!   × 16 filters of popcount sums in registers.
//! * **Persistent worker pool** — parallel sections run on the process-wide
//!   pool of condvar-parked workers ([`crate::pool`]). Each operation
//!   splits a contiguous output range (GEMM rows, conv output rows, batch
//!   items) into more chunks than workers; workers claim chunks with one
//!   atomic `fetch_add` each, so tail chunks are stolen by whichever
//!   worker finishes first. Every dispatch carries a work estimate, and
//!   ops below [`ExecPolicy::min_work`] run inline on the calling thread —
//!   small dispatches never pay parallel overhead. The requested thread
//!   count is additionally clamped to the hardware parallelism, so asking
//!   for 8 threads on a 1-core host degrades to the inline path instead of
//!   oversubscribing.
//! * **Shape-dependent lowering** — a 3×3 layer over at most 64 channels
//!   (one lane word per pixel) runs either the im2col-free streaming
//!   convolution or the im2col-lowered GEMM, picked per geometry by
//!   [`ExecPolicy::conv`] (autotuned on first dispatch unless
//!   `BITNN_CONV` pins one). Wider 3×3 layers always run im2col: the
//!   streaming kernel only exists for one lane word. 1×1 stride-1 pad-0
//!   convolutions skip lowering entirely: the channel-packed activations
//!   already *are* the GEMM operand. Every other kernel shape is
//!   im2col-lowered.
//! * **Scratch-buffer reuse** — the im2col matrix, the flat GEMM output,
//!   and the packed activations live in a
//!   [`Scratch`] that the model's forward pass threads through every
//!   layer, so steady-state inference stops allocating per layer.
//!
//! Every path is bit-exact against [`crate::ops::reference`]: binary dot
//! products are integers, so the engine's outputs are *identical* to the
//! scalar seed path, and the property tests at the bottom of this module
//! assert exactly that across random shapes, strides, pads, and thread
//! counts.

use crate::error::{BitnnError, Result};
use crate::exec::{ConvMode, ExecPolicy};
use crate::ops::conv::{kernel_position_ones, Conv2dParams};
use crate::ops::gemm::{gemm_panels_into, BinaryPanels, PackedMatrix};
use crate::ops::im2col::im2col_rows;
use crate::ops::streamconv::conv2d_stream_items;
use crate::pack::{PackedActivations, PackedKernel};
use crate::pool::WorkerPool;
use crate::simd::{conv_choice_cached, record_conv_choice, record_forced_conv};
use crate::simd::{ConvChoice, ConvGeom, ConvLowering};
use crate::tensor::Tensor;

/// Set a buffer's length without zero-filling retained elements — for
/// outputs whose every element is written before being read.
fn resize_unfilled(v: &mut Vec<i32>, n: usize) {
    if v.len() != n {
        v.clear();
        v.resize(n, 0);
    }
}

/// Target number of claimable chunks per effective thread: enough that a
/// stalled worker's tail is stolen, few enough that the per-chunk
/// `fetch_add` stays invisible.
const CHUNKS_PER_THREAD: usize = 4;

/// Borrowed kernel representations for [`Engine::conv2d`].
///
/// The channel-packed form is always required; the GEMM weight panels and
/// the per-position ones counts (padding closed form) are optional cached
/// accelerations that layers build once, on their first forward (see
/// [`crate::layers::BinConv2d::forms`]). Forms that are absent are built
/// on the fly by the lowering that needs them.
#[derive(Debug, Clone, Copy)]
pub struct KernelForms<'a> {
    /// Channel-packed kernel.
    pub packed: &'a PackedKernel,
    /// Cached GEMM weight panels in im2col order
    /// ([`BinaryPanels::from_kernel`]), used by the GEMM lowerings.
    pub panels: Option<&'a BinaryPanels>,
    /// Cached per-filter, per-position ones counts, used by the streaming
    /// lowering's `-1`-padding closed form.
    pub pad_ones: Option<&'a [u32]>,
}

impl<'a> From<&'a PackedKernel> for KernelForms<'a> {
    /// A bare packed kernel with no cached forms.
    fn from(packed: &'a PackedKernel) -> Self {
        KernelForms {
            packed,
            panels: None,
            pad_ones: None,
        }
    }
}

/// Reusable buffers for the engine's own lowering steps.
///
/// Owned by [`Scratch`]; split out so a caller can hold `&PackedActivations`
/// from one scratch field while the engine mutates these.
#[derive(Debug, Clone, Default)]
pub struct ConvScratch {
    /// The im2col-lowered activation matrix.
    pub(crate) im2col: PackedMatrix,
    /// Flat `[pixels × filters]` GEMM output before the NCHW scatter.
    pub(crate) flat: Vec<i32>,
}

/// The concrete execution path [`Engine::conv2d_into`] picks for a dense
/// convolution under a given policy and geometry. Exposed so layers can
/// pre-materialize exactly the cached [`KernelForms`] the path will read
/// (and nothing else) — see [`crate::layers::BinConv2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvPath {
    /// 1×1 stride-1 pad-0 GEMM directly over the packed activations;
    /// wants the weight `panels`.
    PointwiseGemm,
    /// im2col lowering + GEMM; wants the weight `panels`.
    Im2col,
    /// Im2col-free streaming shifted-window convolution
    /// ([`crate::ops::streamconv`]); wants `pad_ones`, allocates nothing.
    Stream,
}

/// The CPU step kernels' staging buffers — everything a step of the
/// compiled plan needs besides the liveness-assigned activation arena.
///
/// The graph executor's dispatch loop hands it to every step; callers
/// own it inside a [`Scratch`].
#[derive(Debug, Clone, Default)]
pub struct CpuScratch {
    /// Engine-internal lowering buffers.
    pub(crate) conv: ConvScratch,
    /// Channel-packed binarized activations.
    pub(crate) packed: PackedActivations,
    /// Raw convolution output of the current stage.
    pub(crate) conv_out: Tensor,
    /// Quantized-layer staging buffers (stem conv + classifier).
    pub(crate) quant: crate::layers::QuantScratch,
}

/// Reusable forward-pass buffers threaded through the model so steady-state
/// inference stops allocating per layer: once every buffer (including the
/// graph executor's activation arena) has been sized by a warm-up forward,
/// repeat forwards of the same shape perform zero heap allocation.
///
/// Split in two so the graph dispatcher can hand the step kernels their
/// buffers (`cpu`) while itself mutating the arena — disjoint borrows of
/// one struct.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Step-kernel staging buffers (lowering, binarization, packing,
    /// quantized ends).
    pub(crate) cpu: CpuScratch,
    /// The graph executor's activation arena: one reusable tensor per
    /// liveness-assigned slot of the compiled plan (see
    /// [`crate::graph`]'s executor).
    pub(crate) arena: Vec<Tensor>,
    /// Batch weight-stationary staging: uniform-shape batch items stacked
    /// into one `[B*N, C, H, W]` tensor so the whole plan runs once per
    /// batch — every layer's row packing and window state builds once per
    /// image set instead of once per image (see
    /// [`crate::graph::ModelGraph::forward_batch_into`]).
    pub(crate) stacked_in: Tensor,
    /// The stacked plan output before it is split back into per-item
    /// logits tensors.
    pub(crate) stacked_out: Tensor,
}

/// The parallel tiled executor. Cheap to construct, [`Clone`], and
/// [`Sync`]: it holds no buffers (those live in [`Scratch`]) and no
/// threads of its own — every engine dispatches onto the one process-wide
/// persistent worker pool ([`crate::pool`]), so a single shared `Engine`
/// serves all layers, batches, and concurrent callers without spawning.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    policy: ExecPolicy,
}

impl Engine {
    /// Engine with an explicit policy.
    pub fn new(policy: ExecPolicy) -> Self {
        Engine { policy }
    }

    /// Engine that runs everything inline on the calling thread.
    pub fn single_threaded() -> Self {
        Engine::new(ExecPolicy::single_threaded())
    }

    /// Engine with `threads` workers and automatic lowering.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        Engine::new(ExecPolicy::with_threads(threads))
    }

    /// The policy this engine executes under.
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// A copy of this engine pinned to one thread — used inside already
    /// parallel sections (e.g. per batch item) to avoid oversubscription.
    pub fn inner(&self) -> Engine {
        Engine::new(ExecPolicy {
            threads: 1,
            ..self.policy
        })
    }

    /// Parallel loop over a mutable output slice of `items * width`
    /// elements, dispatched onto the persistent worker pool.
    ///
    /// The items are split into chunks of at least `grain` items — several
    /// chunks per effective thread, so tail chunks are stolen by whichever
    /// worker finishes first. Each chunk invocation gets a disjoint `&mut`
    /// band plus the index of its first item. `work` is the caller's
    /// estimate of the whole dispatch in lane-word operations; dispatches
    /// under [`ExecPolicy::min_work`] (and all single-threaded engines)
    /// run inline on the calling thread without touching the pool.
    pub(crate) fn parallel_chunks<T, F>(
        &self,
        out: &mut [T],
        width: usize,
        grain: usize,
        work: u64,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let threads = self.policy.effective_threads(work);
        dispatch_chunks(WorkerPool::global(), threads, out, width, grain, f);
    }

    /// Binary GEMM under this policy (see [`crate::ops::gemm::gemm_binary`]
    /// for operand semantics): `b` is cut into weight panels once per
    /// call, then rows of `a` are chunked across the worker pool, each
    /// chunk running the panel kernel on its band.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::DimMismatch`] if the inner dimensions differ.
    pub fn gemm(&self, a: &PackedMatrix, b: &PackedMatrix) -> Result<Vec<i32>> {
        let mut out = Vec::new();
        self.gemm_into(a, b, &mut out)?;
        Ok(out)
    }

    /// [`Engine::gemm`] into a reusable output buffer.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::DimMismatch`] if the inner dimensions differ.
    pub fn gemm_into(&self, a: &PackedMatrix, b: &PackedMatrix, out: &mut Vec<i32>) -> Result<()> {
        if a.cols() != b.cols() {
            return Err(BitnnError::DimMismatch {
                op: "gemm_binary",
                lhs: vec![a.rows(), a.cols()],
                rhs: vec![b.rows(), b.cols()],
            });
        }
        resize_unfilled(out, a.rows() * b.rows());
        let (aw, panels) = (a.words(), BinaryPanels::from_matrix(b));
        let work = (a.rows() * b.rows() * a.lanes()) as u64;
        self.parallel_chunks(&mut out[..], b.rows(), 8, work, |first, band| {
            gemm_panels_into(aw, &panels, first, band);
        });
        Ok(())
    }

    /// Binary 2-D convolution under this policy, producing the same
    /// `[N, K, OH, OW]` tensor as [`crate::ops::conv::conv2d_binary`]
    /// bit-for-bit.
    ///
    /// `kernel` carries the packed kernel plus whatever cached forms the
    /// caller has (`KernelForms::from(&packed)` for none); missing forms
    /// are built on the fly by the lowering that needs them.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::DimMismatch`] when the channel counts
    /// disagree.
    pub fn conv2d(
        &self,
        acts: &PackedActivations,
        kernel: KernelForms<'_>,
        params: Conv2dParams,
        scratch: &mut ConvScratch,
    ) -> Result<Tensor> {
        let mut out = Tensor::zeros(&[0]);
        self.conv2d_into(acts, kernel, params, scratch, &mut out)?;
        Ok(out)
    }

    /// [`Engine::conv2d`] into a reusable output tensor.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::DimMismatch`] when the channel counts
    /// disagree.
    pub fn conv2d_into(
        &self,
        acts: &PackedActivations,
        kernel: KernelForms<'_>,
        params: Conv2dParams,
        scratch: &mut ConvScratch,
        out: &mut Tensor,
    ) -> Result<()> {
        let packed = kernel.packed;
        if acts.channels() != packed.channels() {
            return Err(BitnnError::DimMismatch {
                op: "conv2d_binary",
                lhs: vec![acts.channels()],
                rhs: vec![packed.channels()],
            });
        }
        let (kh, kw) = (packed.kh(), packed.kw());
        let path = match self.conv_path(kh, kw, acts.channels(), params) {
            Some(p) => {
                // A streamable geometry only gets a fixed path from a
                // pinned `ConvMode`; that decision is recorded (reporting
                // only) so `bnnkc features` and the perfsuite can label
                // what actually ran.
                if streamable(kh, kw, acts.channels()) {
                    let lowering = match p {
                        ConvPath::Stream => ConvLowering::Stream,
                        _ => ConvLowering::Im2col,
                    };
                    record_forced_conv(conv_geom(acts, packed, params), lowering);
                }
                p
            }
            // `None` means "autotune this streamable geometry": consult the
            // process-wide decision cache, measuring stream-vs-im2col on
            // the live operands the first time the geometry is seen.
            None => {
                let geom = conv_geom(acts, packed, params);
                let lowering = match conv_choice_cached(geom) {
                    Some(l) => l,
                    None => {
                        let l = self.tune_conv(acts, kernel, params, scratch, out);
                        record_conv_choice(geom, l);
                        l
                    }
                };
                match lowering {
                    ConvLowering::Stream => ConvPath::Stream,
                    ConvLowering::Im2col => ConvPath::Im2col,
                }
            }
        };
        self.conv2d_with_path(path, acts, kernel, params, scratch, out);
        Ok(())
    }

    /// Time the streaming path against im2col on the live operands —
    /// min-of-reps each, every rep a full valid compute (both paths are
    /// bit-exact, so `out` holds correct results throughout). Runs once
    /// per conv geometry per process, on the warm-up forward.
    ///
    /// The decision is cached process-wide, so a mis-tune is sticky:
    /// both candidates get an untimed warm-up first (the im2col probe
    /// must not be charged for sizing its staging buffer), the timed
    /// reps alternate between the candidates so frequency drift hits
    /// both equally, and small geometries — where one rep is a handful
    /// of microseconds and a single timer blip flips the outcome — keep
    /// racing until each candidate has accumulated a minimum timed
    /// budget.
    fn tune_conv(
        &self,
        acts: &PackedActivations,
        kernel: KernelForms<'_>,
        params: Conv2dParams,
        scratch: &mut ConvScratch,
        out: &mut Tensor,
    ) -> ConvLowering {
        const MIN_REPS: usize = 3;
        const MAX_REPS: usize = 32;
        const BUDGET_NS: u128 = 200_000;
        let candidates = [ConvPath::Im2col, ConvPath::Stream];
        for path in candidates {
            self.conv2d_with_path(path, acts, kernel, params, scratch, out);
        }
        let mut best = [u128::MAX; 2];
        let mut spent = [0u128; 2];
        let mut reps = 0;
        while reps < MAX_REPS && (reps < MIN_REPS || spent.iter().any(|&s| s < BUDGET_NS)) {
            for (slot, path) in candidates.into_iter().enumerate() {
                let t = std::time::Instant::now();
                self.conv2d_with_path(path, acts, kernel, params, scratch, out);
                let d = t.elapsed().as_nanos();
                best[slot] = best[slot].min(d);
                spent[slot] += d;
            }
            reps += 1;
        }
        // Ties go to streaming: same speed with no im2col staging buffer.
        if best[1] <= best[0] {
            ConvLowering::Stream
        } else {
            ConvLowering::Im2col
        }
    }

    /// Execute one already-resolved lowering. Never consults or writes the
    /// autotune cache — the tuner calls this for its probe runs, and a
    /// probe must not pollute the recorded decisions.
    fn conv2d_with_path(
        &self,
        path: ConvPath,
        acts: &PackedActivations,
        kernel: KernelForms<'_>,
        params: Conv2dParams,
        scratch: &mut ConvScratch,
        out: &mut Tensor,
    ) {
        let packed = kernel.packed;
        let (n, c, h, w) = (acts.batch(), acts.channels(), acts.height(), acts.width());
        let (kf, kh, kw) = (packed.filters(), packed.kh(), packed.kw());
        let oh = params.out_dim(h, kh);
        let ow = params.out_dim(w, kw);
        // Every lowering writes every output element, so skip the zero-fill.
        out.reset_for_overwrite(&[n, kf, oh, ow]);

        if path == ConvPath::Stream {
            let built;
            let pad_ones = match kernel.pad_ones {
                Some(p) => p,
                None => {
                    built = kernel_position_ones(packed);
                    &built
                }
            };
            let work = (n * kf * oh * ow * kh * kw * acts.lanes()) as u64;
            // One item = one (img, filter) output plane; the kernel blocks
            // up to FILTER_BLOCK filters of one image so each resident
            // activation word is loaded once per block.
            self.parallel_chunks(out.data_mut(), oh * ow, 1, work, |first, band| {
                conv2d_stream_items(acts, packed, params, pad_ones, first, band);
            });
            return;
        }

        let pixels = n * oh * ow;
        let aw = if path == ConvPath::PointwiseGemm {
            // The packed activations are already the GEMM operand: one
            // C-bit row per pixel. No lowering, no copies.
            acts.words()
        } else {
            scratch.im2col.reset(pixels, kh * kw * c);
            let lanes = scratch.im2col.lanes();
            // The lowering is a word blit: roughly one lane-word op per
            // output word (bit gathers cost a couple each).
            let blit_work = (pixels * lanes * 2) as u64;
            self.parallel_chunks(
                scratch.im2col.words_mut(),
                lanes,
                16,
                blit_work,
                |first, band| {
                    im2col_rows(acts, kh, kw, params, first, band, lanes);
                },
            );
            scratch.im2col.words()
        };
        let built;
        let panels = match kernel.panels {
            Some(p) => p,
            None => {
                built = BinaryPanels::from_kernel(packed);
                &built
            }
        };
        debug_assert_eq!(panels.cols(), kh * kw * c);
        resize_unfilled(&mut scratch.flat, pixels * kf);
        let work = (pixels * kf * panels.lanes()) as u64;
        self.parallel_chunks(&mut scratch.flat[..], kf, 16, work, |first, band| {
            gemm_panels_into(aw, panels, first, band);
        });

        // Scatter flat [N*OH*OW, KF] to NCHW.
        let ohw = oh * ow;
        let od = out.data_mut();
        for img in 0..n {
            for pix in 0..ohw {
                let src = &scratch.flat[(img * ohw + pix) * kf..][..kf];
                for (k, &v) in src.iter().enumerate() {
                    od[(img * kf + k) * ohw + pix] = v as f32;
                }
            }
        }
    }

    /// The dense lowering [`Engine::conv2d_into`] will run for a
    /// `kh×kw` kernel over `channels` input channels under the current
    /// policy, or `None` when the choice is autotuned at first dispatch
    /// ([`ConvMode::Auto`] on a streamable layer — the streaming-vs-im2col
    /// decision needs live operands). Only a 3×3 kernel over at most 64
    /// channels is streamable; every other 3×3 conv runs im2col under
    /// every mode.
    pub fn conv_path(
        &self,
        kh: usize,
        kw: usize,
        channels: usize,
        params: Conv2dParams,
    ) -> Option<ConvPath> {
        if kh == 1 && kw == 1 && params.stride == 1 && params.pad == 0 {
            return Some(ConvPath::PointwiseGemm);
        }
        if streamable(kh, kw, channels) {
            return match self.policy.conv {
                ConvMode::Auto => None,
                ConvMode::Stream => Some(ConvPath::Stream),
                ConvMode::Im2col => Some(ConvPath::Im2col),
            };
        }
        Some(ConvPath::Im2col)
    }
}

/// Whether the streaming kernel covers this geometry: a 3×3 kernel over
/// exactly one lane word of channels (1 to 64).
fn streamable(kh: usize, kw: usize, channels: usize) -> bool {
    kh == 3 && kw == 3 && (1..=crate::LANE_BITS).contains(&channels)
}

/// The streaming autotuner's cache key for a live dispatch.
fn conv_geom(acts: &PackedActivations, kernel: &PackedKernel, params: Conv2dParams) -> ConvGeom {
    ConvGeom {
        channels: acts.channels(),
        filters: kernel.filters(),
        h: acts.height(),
        w: acts.width(),
        stride: params.stride,
        pad: params.pad,
    }
}

/// Warm the streaming-vs-im2col conv decision on the model zoo's hot
/// geometry (28×28, 64 channels, 64 filters, 3×3 stride-1 pad-1 — the
/// perfsuite's gated shape) and return every conv selection recorded so
/// far. `bnnkc features` calls this so the table has something to show
/// before any real forward has run; under a pinned `BITNN_CONV` the
/// recorded entry is the forced one.
pub fn warm_conv_table() -> Vec<ConvChoice> {
    let engine = Engine::new(ExecPolicy {
        threads: 1,
        ..ExecPolicy::default()
    });
    let bits = crate::weightgen::random_kernel(&[1, 64, 28, 28], 0xC0DE);
    let kernel = crate::weightgen::random_kernel(&[64, 64, 3, 3], 0xFACE);
    if let (Ok(acts), Ok(packed)) = (PackedActivations::pack(&bits), PackedKernel::pack(&kernel)) {
        let mut scratch = ConvScratch::default();
        let mut out = Tensor::default();
        let params = Conv2dParams { stride: 1, pad: 1 };
        let _ = engine.conv2d_into(&acts, (&packed).into(), params, &mut scratch, &mut out);
    }
    crate::simd::conv_choices()
}

/// Band-dispatch body of [`Engine::parallel_chunks`], parameterized over
/// the pool so tests can force a multi-worker pool on any host. `threads`
/// is the already-resolved effective thread count.
fn dispatch_chunks<T, F>(
    pool: &WorkerPool,
    threads: usize,
    out: &mut [T],
    width: usize,
    grain: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if out.is_empty() || width == 0 {
        return;
    }
    debug_assert_eq!(out.len() % width, 0);
    let items = out.len() / width;
    // A few chunks per thread balances steal granularity against the
    // per-chunk claim overhead (one fetch_add each).
    let chunk_items = grain
        .max(1)
        .max(items.div_ceil(threads.max(1) * CHUNKS_PER_THREAD));
    let chunks = items.div_ceil(chunk_items);
    if threads <= 1 || chunks <= 1 {
        f(0, out);
        return;
    }
    let base = out.as_mut_ptr() as usize;
    let runner = |chunk: usize| {
        let start = chunk * chunk_items;
        let end = (start + chunk_items).min(items);
        // SAFETY: chunk indices are claimed exactly once by the pool, and
        // each maps to a disjoint item range of `out`, which outlives the
        // dispatch (the pool blocks until every chunk completes).
        let band = unsafe {
            std::slice::from_raw_parts_mut(
                (base as *mut T).add(start * width),
                (end - start) * width,
            )
        };
        f(start, band);
    };
    pool.dispatch(chunks, threads - 1, &runner);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv::conv2d_binary;
    use crate::tensor::BitTensor;
    use proptest::prelude::*;

    fn random_bits(shape: &[usize], seed: u64) -> BitTensor {
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
    fn engine_policy_plumbing() {
        assert_eq!(Engine::with_threads(5).policy().threads, 5);
        assert_eq!(Engine::with_threads(5).inner().policy().threads, 1);
        assert_eq!(Engine::single_threaded().policy().threads, 1);
    }

    #[test]
    fn parallel_chunks_covers_every_item_once() {
        // Drive the band dispatch directly with a forced 3-worker pool so
        // the chunked path runs with real threads even on 1-core hosts.
        let pool = crate::pool::WorkerPool::with_workers(3, 4);
        for threads in [1usize, 2, 3, 8] {
            for items in [1usize, 2, 7, 64, 257] {
                let mut out = vec![0u32; items * 3];
                dispatch_chunks(&pool, threads, &mut out, 3, 1, |first, band| {
                    for (i, row) in band.chunks_mut(3).enumerate() {
                        for v in row.iter_mut() {
                            *v += (first + i) as u32 + 1;
                        }
                    }
                });
                let expect: Vec<u32> = (0..items).flat_map(|i| [i as u32 + 1; 3]).collect();
                assert_eq!(out, expect, "threads={threads} items={items}");
            }
        }
    }

    #[test]
    fn parallel_chunks_respects_grain() {
        let pool = crate::pool::WorkerPool::with_workers(2, 4);
        let mut out = vec![0u8; 30];
        dispatch_chunks(&pool, 4, &mut out, 1, 8, |_, band| {
            // Bands are at least `grain` items (except possibly the last).
            assert!(band.len() >= 6, "band of {} items", band.len());
            band.fill(1);
        });
        assert!(out.iter().all(|&v| v == 1));
    }

    #[test]
    fn panel_gemm_is_bit_identical_across_threads() {
        // A forced 3-worker pool splits the output rows into bands that
        // start mid-tile, at every thread count from 1 to 4.
        let pool = crate::pool::WorkerPool::with_workers(3, 4);
        for &(m, n, k) in &[
            (1usize, 9usize, 65usize),
            (33, 17, 200),
            (256, 64, 576),
            (37, 1000, 64),
        ] {
            let matrix = |rows: usize, seed: u64| {
                let t = random_bits(&[rows * k], seed);
                let bits: Vec<bool> = (0..rows * k).map(|i| t.get(i)).collect();
                PackedMatrix::from_bools(rows, k, &bits).unwrap()
            };
            let (a, b) = (matrix(m, (m * n + k) as u64), matrix(n, (m + n * k) as u64));
            let want = crate::ops::gemm::gemm_binary_naive(&a, &b).unwrap();
            let panels = BinaryPanels::from_matrix(&b);
            for threads in 1..=4 {
                let mut out = vec![i32::MIN; m * n];
                dispatch_chunks(&pool, threads, &mut out, n, 1, |first, band| {
                    gemm_panels_into(a.words(), &panels, first, band);
                });
                assert_eq!(out, want, "m={m} n={n} k={k} threads={threads}");
            }
            let got = Engine::with_threads(4).gemm(&a, &b).unwrap();
            assert_eq!(got, want, "engine m={m} n={n} k={k}");
        }
    }

    #[test]
    fn gemm_dim_mismatch_is_error() {
        let a = PackedMatrix::zeros(2, 10);
        let b = PackedMatrix::zeros(3, 11);
        assert!(Engine::single_threaded().gemm(&a, &b).is_err());
    }

    #[test]
    fn conv_channel_mismatch_is_error() {
        let a = PackedActivations::pack(&BitTensor::zeros(&[1, 8, 4, 4])).unwrap();
        let k = PackedKernel::pack(&BitTensor::zeros(&[1, 16, 3, 3])).unwrap();
        let mut s = ConvScratch::default();
        assert!(Engine::single_threaded()
            .conv2d(&a, (&k).into(), Conv2dParams::default(), &mut s)
            .is_err());
    }

    #[test]
    fn pointwise_gemm_path_matches_direct() {
        let a = random_bits(&[2, 70, 5, 4], 11);
        let wk = random_bits(&[9, 70, 1, 1], 13);
        let pa = PackedActivations::pack(&a).unwrap();
        let pk = PackedKernel::pack(&wk).unwrap();
        let mut s = ConvScratch::default();
        let fast = Engine::with_threads(4)
            .conv2d(&pa, (&pk).into(), Conv2dParams::default(), &mut s)
            .unwrap();
        let direct = conv2d_binary(&pa, &pk, Conv2dParams::default()).unwrap();
        assert_eq!(fast.shape(), direct.shape());
        assert_eq!(fast.data(), direct.data());
    }

    #[test]
    fn wide_3x3_runs_im2col_without_racing() {
        // Two lane words of channels: no streaming kernel exists, so every
        // mode lowers to im2col and the autotuner never records the shape.
        let a = random_bits(&[1, 128, 6, 7], 17);
        let wk = random_bits(&[5, 128, 3, 3], 19);
        let pa = PackedActivations::pack(&a).unwrap();
        let pk = PackedKernel::pack(&wk).unwrap();
        let params = Conv2dParams { stride: 1, pad: 1 };
        let direct = conv2d_binary(&pa, &pk, params).unwrap();
        for conv in [ConvMode::Auto, ConvMode::Stream, ConvMode::Im2col] {
            let engine = Engine::new(ExecPolicy {
                threads: 2,
                conv,
                ..ExecPolicy::default()
            });
            assert_eq!(engine.conv_path(3, 3, 128, params), Some(ConvPath::Im2col));
            let mut s = ConvScratch::default();
            let got = engine.conv2d(&pa, (&pk).into(), params, &mut s).unwrap();
            assert_eq!(got.data(), direct.data(), "{conv:?}");
        }
        assert!(crate::simd::conv_choices()
            .iter()
            .all(|c| c.geom.channels <= crate::LANE_BITS));
    }

    // The engine-vs-reference conv and GEMM oracle proptests that lived
    // here moved to `tests/backend_conformance.rs`, where one harness
    // sweeps them and the graph executor against the scalar oracle.

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The engine's reusable-scratch conv gives identical results when
        /// the scratch is reused across differently-shaped layers.
        #[test]
        fn scratch_reuse_is_clean_across_shapes(
            c1 in 1usize..40, c2 in 1usize..40, seed in any::<u64>()
        ) {
            let engine = Engine::with_threads(2);
            let mut scratch = ConvScratch::default();
            for (i, &c) in [c1, c2, c1].iter().enumerate() {
                let a = random_bits(&[1, c, 5, 5], seed ^ i as u64);
                let wk = random_bits(&[3, c, 3, 3], !seed ^ i as u64);
                let pa = PackedActivations::pack(&a).unwrap();
                let pk = PackedKernel::pack(&wk).unwrap();
                let params = Conv2dParams { stride: 1, pad: 1 };
                let got = engine.conv2d(&pa, (&pk).into(), params, &mut scratch).unwrap();
                let expect = conv2d_binary(&pa, &pk, params).unwrap();
                prop_assert_eq!(got.data(), expect.data());
            }
        }
    }
}
