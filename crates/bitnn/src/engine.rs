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
//! * **One conv kernel** — every convolution, whatever its kernel size,
//!   stride and padding, is the panel GEMM reading its `A` rows straight
//!   out of the packed activations through a tap-offset table (see
//!   [`crate::ops::gemm`]). The activations carry a zero border as wide
//!   as the padding (the conv step's sign+pack writes it), so a window
//!   over the padding reads `−1` words with no branch and nothing is
//!   copied first. The kernel is already in the GEMM's panel layout
//!   ([`PackedKernel`]), for every tap, so nothing is built per call or
//!   per shape. A tap that every output pixel reads from the border is
//!   dead: the GEMM skips its weights, and its ones (the kernel's ones
//!   table) fold into a per-filter constant in the scratch — a 3×3 conv
//!   over a 1×1 map reads its centre tap only. A 1×1 stride-1 conv is the
//!   one-tap case, the GEMM over contiguous pixel rows.
//! * **Pixel-major output rows** — the conv kernel writes
//!   `[pixel][filter]` `i32` rows. The graph executor's conv entry
//!   (`Engine::conv2d_rows`) runs a caller-supplied epilogue on each
//!   band of rows inside the same parallel chunk that produced it, so
//!   batch-norm, the residual and the activation land straight in the
//!   next layer's pixel-major (`[n, h, w, c]`) `f32` activations. Only
//!   the public NCHW [`Engine::conv2d_into`] scatters the rows into
//!   `[N, K, OH, OW]`.
//! * **Scratch-buffer reuse** — the tap tables, the filters' constants,
//!   the `i32` output rows, and the packed activations live in a
//!   [`Scratch`] that the model's forward pass threads through every
//!   layer, so steady-state inference stops allocating per layer.
//!
//! Every path is bit-exact against [`crate::ops::reference`]: binary dot
//! products are integers, so the engine's outputs are *identical* to the
//! scalar seed path, and the property tests at the bottom of this module
//! assert exactly that across random shapes, strides, pads, and thread
//! counts.

use crate::error::{BitnnError, Result};
use crate::exec::ExecPolicy;
use crate::ops::conv::Conv2dParams;
use crate::ops::gemm::{fold_dead_taps, gemm_panels_at, gemm_panels_into};
use crate::ops::gemm::{PackedMatrix, Panels, TapRows};
use crate::pack::{PackedActivations, PackedKernel};
use crate::pool::WorkerPool;
use crate::simd::{self, SimdLevel};
use crate::tensor::Tensor;
use std::sync::OnceLock;

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

/// Reusable buffers for the engine's conv kernel.
///
/// Owned by [`Scratch`]; split out so a caller can hold `&PackedActivations`
/// from one scratch field while the engine mutates these.
#[derive(Debug, Clone, Default)]
pub struct ConvScratch {
    /// The live kernel taps of the current conv.
    taps: Vec<u32>,
    /// Their word offsets from a window's top-left word.
    toff: Vec<u32>,
    /// Each filter's dot-product constant, the dead taps' ones folded in
    /// ([`fold_dead_taps`]).
    kdot: Vec<i32>,
    /// A bordered copy of activations whose own border is narrower than
    /// the conv's padding (the public [`Engine::conv2d_into`] path).
    bordered: PackedActivations,
    /// The conv's `[pixel][filter]` `i32` output rows, which the
    /// epilogue (or the public NCHW wrapper's scatter) reads.
    pub(crate) flat: Vec<i32>,
}

/// The CPU step kernels' staging buffers — everything a step of the
/// compiled plan needs besides the liveness-assigned activation arena.
///
/// The graph executor's dispatch loop hands it to every step; callers
/// own it inside a [`Scratch`].
#[derive(Debug, Clone, Default)]
pub struct CpuScratch {
    /// The conv kernel's buffers.
    pub(crate) conv: ConvScratch,
    /// Channel-packed binarized activations.
    pub(crate) packed: PackedActivations,
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
    /// Step-kernel staging buffers (tap tables, binarization, packing,
    /// quantized ends).
    pub(crate) cpu: CpuScratch,
    /// The graph executor's activation arena: one reusable tensor per
    /// liveness-assigned slot of the compiled plan (see
    /// [`crate::graph`]'s executor).
    pub(crate) arena: Vec<Tensor>,
    /// Batch weight-stationary staging: a block of same-shape batch items
    /// stacked into one `[B*N, C, H, W]` tensor so the plan runs once per
    /// block — every layer's weights and tap tables are read once per
    /// block instead of once per image (see
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

    /// Engine with `threads` workers.
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
    /// parallel sections (e.g. per batch chunk) to avoid oversubscription.
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

    /// Two-output form of [`Engine::parallel_chunks`]: `a` holds `a_width`
    /// elements per item and `b` holds `b_width`, and every chunk gets the
    /// matching bands of both.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn parallel_chunks2<A, B, F>(
        &self,
        a: &mut [A],
        a_width: usize,
        b: &mut [B],
        b_width: usize,
        grain: usize,
        work: u64,
        f: F,
    ) where
        A: Send,
        B: Send,
        F: Fn(usize, &mut [A], &mut [B]) + Sync,
    {
        let threads = self.policy.effective_threads(work);
        dispatch_chunks2(
            WorkerPool::global(),
            threads,
            a,
            a_width,
            b,
            b_width,
            grain,
            f,
        );
    }

    /// Binary GEMM under this policy (see [`crate::ops::gemm::gemm_binary`]
    /// for operand semantics): `b` is cut into weight panels
    /// ([`PackedKernel::from_matrix`]) once per call, then rows of `a` are
    /// chunked across the worker pool, each chunk running the panel
    /// kernel on its band.
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
        let kernel = PackedKernel::from_matrix(b);
        let mut kdot = Vec::new();
        fold_dead_taps(&kernel, &[0], &mut kdot);
        let panels = Panels::new(&kernel, &kdot);
        let rows = TapRows::contiguous(a.words(), a.lanes());
        let work = (a.rows() * b.rows() * a.lanes()) as u64;
        self.parallel_chunks(&mut out[..], b.rows(), 8, work, |first, band| {
            gemm_panels_into(&rows, &panels, first, band);
        });
        Ok(())
    }

    /// Binary 2-D convolution under this policy, producing the same
    /// `[N, K, OH, OW]` tensor as [`crate::ops::conv::conv2d_binary`]
    /// bit-for-bit.
    ///
    /// `kernel` is already in the GEMM's panel layout, so nothing is cut
    /// per call. Activations with a border narrower than the padding are
    /// first copied into a bordered buffer of `scratch`.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::DimMismatch`] when the channel counts
    /// disagree.
    pub fn conv2d(
        &self,
        acts: &PackedActivations,
        kernel: &PackedKernel,
        params: Conv2dParams,
        scratch: &mut ConvScratch,
    ) -> Result<Tensor> {
        let mut out = Tensor::zeros(&[0]);
        self.conv2d_into(acts, kernel, params, scratch, &mut out)?;
        Ok(out)
    }

    /// [`Engine::conv2d`] into a reusable output tensor: the conv's
    /// `[pixel][filter]` rows, scattered into `[N, K, OH, OW]`.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::DimMismatch`] when the channel counts
    /// disagree.
    pub fn conv2d_into(
        &self,
        acts: &PackedActivations,
        kernel: &PackedKernel,
        params: Conv2dParams,
        scratch: &mut ConvScratch,
        out: &mut Tensor,
    ) -> Result<()> {
        self.conv2d_rows(acts, kernel, params, scratch, &mut [], |_, _, _| {})?;
        let (n, kf) = (acts.batch(), kernel.filters());
        let oh = params.out_dim(acts.height(), kernel.kh());
        let ow = params.out_dim(acts.width(), kernel.kw());
        let ohw = oh * ow;
        // Every element is written by the scatter, so skip the zero-fill.
        out.reset_for_overwrite(&[n, kf, oh, ow]);
        let od = out.data_mut();
        for img in 0..n {
            for pix in 0..ohw {
                let src = &scratch.flat[(img * ohw + pix) * kf..][..kf];
                for (k, &v) in src.iter().enumerate() {
                    od[(img * kf + k) * ohw + pix] = v as f32;
                }
            }
        }
        Ok(())
    }

    /// The graph executor's conv entry: the conv's `[pixel][filter]`
    /// `i32` rows land in `scratch.flat`, and `epilogue(first_pixel,
    /// rows, dst_rows)` runs on every band of them inside the parallel
    /// chunk that computed it. `dst` holds `KF` values per output pixel
    /// (the band handed to the epilogue is the matching slice) or is
    /// empty, in which case the epilogue gets empty bands. The conv
    /// step's activations already carry a border as wide as the padding;
    /// narrower ones are copied into a bordered buffer first.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::DimMismatch`] when the channel counts
    /// disagree.
    pub(crate) fn conv2d_rows<E>(
        &self,
        acts: &PackedActivations,
        kernel: &PackedKernel,
        params: Conv2dParams,
        scratch: &mut ConvScratch,
        dst: &mut [f32],
        epilogue: E,
    ) -> Result<()>
    where
        E: Fn(usize, &[i32], &mut [f32]) + Sync,
    {
        let run = TapRun {
            pool: WorkerPool::global(),
            threads: &|work| self.policy.effective_threads(work),
            level: simd::level(),
        };
        run.conv(acts, kernel, params, scratch, dst, &epilogue)
    }
}

/// The one conv kernel's `[pixel][filter]` `i32` rows at an explicit
/// dispatch `level` (clamped to what the CPU has), split across
/// `threads` threads of a private 3-worker pool with no inline
/// threshold — the conformance sweep's hook into each SIMD body and a
/// multi-worker chunking on any host.
///
/// # Errors
///
/// Returns [`BitnnError::DimMismatch`] when the channel counts disagree.
pub fn conv2d_rows_at(
    level: SimdLevel,
    threads: usize,
    acts: &PackedActivations,
    kernel: &PackedKernel,
    params: Conv2dParams,
) -> Result<Vec<i32>> {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    let run = TapRun {
        pool: POOL.get_or_init(|| WorkerPool::with_workers(3, 4)),
        threads: &|_| threads.clamp(1, 4),
        level,
    };
    let mut scratch = ConvScratch::default();
    run.conv(acts, kernel, params, &mut scratch, &mut [], &|_, _, _| {})?;
    Ok(scratch.flat)
}

/// Where and how the conv kernel runs: the pool its chunks go to, the
/// thread count for a dispatch of a given work estimate, and the SIMD
/// level of its GEMM body.
struct TapRun<'a> {
    pool: &'a WorkerPool,
    threads: &'a (dyn Fn(u64) -> usize + Sync),
    level: SimdLevel,
}

impl TapRun<'_> {
    /// Check the channels, border the activations if their border is
    /// narrower than the conv reads ([`conv_border`]), and run
    /// [`TapRun::taps`].
    fn conv<E>(
        &self,
        acts: &PackedActivations,
        kernel: &PackedKernel,
        params: Conv2dParams,
        scratch: &mut ConvScratch,
        dst: &mut [f32],
        epilogue: &E,
    ) -> Result<()>
    where
        E: Fn(usize, &[i32], &mut [f32]) + Sync,
    {
        if acts.channels() != kernel.channels() {
            return Err(BitnnError::DimMismatch {
                op: "conv2d_binary",
                lhs: vec![acts.channels()],
                rhs: vec![kernel.channels()],
            });
        }
        let (h, w) = (acts.height(), acts.width());
        let need = conv_border(h, w, kernel.kh(), kernel.kw(), params);
        if acts.border() >= need {
            self.taps(acts, kernel, params, scratch, dst, epilogue);
        } else {
            // Taken out and put back so the copy and the other buffers
            // are borrowed apart; moving a `Vec` allocates nothing.
            let mut bordered = std::mem::take(&mut scratch.bordered);
            bordered.copy_bordered(acts, need);
            self.taps(&bordered, kernel, params, scratch, dst, epilogue);
            scratch.bordered = bordered;
        }
        Ok(())
    }

    /// The one conv kernel over activations whose border covers every
    /// live tap's reach: resolve the live taps and fold the dead ones
    /// into the filters' constants, then run the tap-addressed panel GEMM
    /// over bands of output pixels, each band's epilogue inside its
    /// chunk.
    fn taps<E>(
        &self,
        acts: &PackedActivations,
        kernel: &PackedKernel,
        params: Conv2dParams,
        scratch: &mut ConvScratch,
        dst: &mut [f32],
        epilogue: &E,
    ) where
        E: Fn(usize, &[i32], &mut [f32]) + Sync,
    {
        let (n, h, w, lanes) = (acts.batch(), acts.height(), acts.width(), acts.lanes());
        let (kf, kh, kw) = (kernel.filters(), kernel.kh(), kernel.kw());
        let (oh, ow, s) = (params.out_dim(h, kh), params.out_dim(w, kw), params.stride);
        let pixels = n * oh * ow;
        debug_assert!(dst.is_empty() || dst.len() == pixels * kf);
        let dst_width = if dst.is_empty() { 0 } else { kf };
        let ConvScratch {
            taps,
            toff,
            kdot,
            flat,
            ..
        } = scratch;
        // Every output row is written, so skip the zero-fill.
        resize_unfilled(flat, pixels * kf);

        // A window's top-left input pixel `(-pad, -pad)` is word
        // `b - pad` of its frame row and column: each live tap's offset is
        // counted from the frame corner, which the border keeps in reach.
        let (b, wp) = (acts.border(), w + 2 * acts.border());
        taps.clear();
        toff.clear();
        for ky in (0..kh).filter(|&ky| live(ky, h, oh, params)) {
            for kx in (0..kw).filter(|&kx| live(kx, w, ow, params)) {
                taps.push((ky * kw + kx) as u32);
                toff.push((((ky + b - params.pad) * wp + kx + b - params.pad) * lanes) as u32);
            }
        }
        fold_dead_taps(kernel, taps, kdot);
        let panels = Panels::new(kernel, kdot);
        let rows = TapRows::windows(
            acts.words(),
            (toff, taps, lanes),
            (oh, ow),
            (s * lanes, s * wp * lanes, (h + 2 * b) * wp * lanes),
        );
        let work = (pixels * kf * taps.len() * lanes) as u64;
        dispatch_chunks2(
            self.pool,
            (self.threads)(work),
            &mut flat[..],
            kf,
            dst,
            dst_width,
            16,
            |first, rows_out, out| {
                gemm_panels_at(self.level, &rows, &panels, first, rows_out);
                epilogue(first, rows_out, out);
            },
        );
    }
}

/// Whether kernel tap `k` of one axis is live: some of the `n_out`
/// output positions reads it from inside the `n_in` inputs. The first
/// output whose input is not before the map must not be past it either.
fn live(k: usize, n_in: usize, n_out: usize, params: Conv2dParams) -> bool {
    let o = params.pad.saturating_sub(k).div_ceil(params.stride);
    o < n_out && o * params.stride + k - params.pad < n_in
}

/// The zero border a conv's live taps read from its `h × w` input: how
/// far, at most, any output reads past an edge of the map through a
/// live tap. At most the padding; zero when only taps that stay inside
/// the map are live (a 3×3 conv over a 1×1 map reads its centre tap).
pub(crate) fn conv_border(h: usize, w: usize, kh: usize, kw: usize, params: Conv2dParams) -> usize {
    let reach = |k: usize, n_in: usize| {
        let n_out = params.out_dim(n_in, k);
        let mut taps = (0..k).filter(|&t| live(t, n_in, n_out, params));
        let Some(first) = taps.next() else {
            return 0;
        };
        let last = taps.next_back().unwrap_or(first);
        let after = ((n_out - 1) * params.stride + last).saturating_sub(params.pad + n_in - 1);
        params.pad.saturating_sub(first).max(after)
    };
    reach(kh, h).max(reach(kw, w))
}

/// Kept only for `bnnkc-bench`, which times it as a tuning step; delete
/// it with the bench's next change. Every conv runs one kernel, so
/// nothing is warmed and the list is always empty.
pub fn warm_conv_table() -> Vec<crate::simd::ConvChoice> {
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
    dispatch_chunks2(
        pool,
        threads,
        out,
        width,
        &mut [],
        0,
        grain,
        |first, band, _: &mut [()]| f(first, band),
    );
}

/// Two-output form of [`dispatch_chunks`]: `a` holds `a_width` elements
/// per item and `b` holds `b_width` (zero for an empty `b`), and every
/// chunk gets the matching bands of both — e.g. a conv's `i32` rows and
/// the `f32` rows its epilogue writes from them.
#[allow(clippy::too_many_arguments)]
fn dispatch_chunks2<A, B, F>(
    pool: &WorkerPool,
    threads: usize,
    a: &mut [A],
    a_width: usize,
    b: &mut [B],
    b_width: usize,
    grain: usize,
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    if a.is_empty() || a_width == 0 {
        return;
    }
    debug_assert_eq!(a.len() % a_width, 0);
    let items = a.len() / a_width;
    debug_assert_eq!(b.len(), items * b_width);
    // A few chunks per thread balances steal granularity against the
    // per-chunk claim overhead (one fetch_add each).
    let chunk_items = grain
        .max(1)
        .max(items.div_ceil(threads.max(1) * CHUNKS_PER_THREAD));
    let chunks = items.div_ceil(chunk_items);
    if threads <= 1 || chunks <= 1 {
        f(0, a, b);
        return;
    }
    let (a_base, b_base) = (a.as_mut_ptr() as usize, b.as_mut_ptr() as usize);
    let runner = |chunk: usize| {
        let start = chunk * chunk_items;
        let end = (start + chunk_items).min(items);
        // SAFETY: chunk indices are claimed exactly once by the pool, and
        // each maps to disjoint item ranges of `a` and `b`, which outlive
        // the dispatch (the pool blocks until every chunk completes).
        let (band_a, band_b) = unsafe {
            (
                std::slice::from_raw_parts_mut(
                    (a_base as *mut A).add(start * a_width),
                    (end - start) * a_width,
                ),
                std::slice::from_raw_parts_mut(
                    (b_base as *mut B).add(start * b_width),
                    (end - start) * b_width,
                ),
            )
        };
        f(start, band_a, band_b);
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
    fn two_output_chunks_get_matching_bands() {
        // The conv epilogue's contract: each chunk's `b` band holds the
        // same items as its `a` band, under a forced 3-worker pool.
        let pool = crate::pool::WorkerPool::with_workers(3, 4);
        for threads in [1usize, 2, 3, 4] {
            for items in [1usize, 5, 64, 129] {
                let mut a = vec![0u32; items * 3];
                let mut b = vec![0u64; items * 2];
                dispatch_chunks2(&pool, threads, &mut a, 3, &mut b, 2, 1, |first, ba, bb| {
                    assert_eq!(ba.len() / 3, bb.len() / 2);
                    for (i, (ra, rb)) in ba.chunks_mut(3).zip(bb.chunks_mut(2)).enumerate() {
                        ra.fill((first + i) as u32 + 1);
                        rb.fill((first + i) as u64 + 1);
                    }
                });
                let want_a: Vec<u32> = (0..items).flat_map(|i| [i as u32 + 1; 3]).collect();
                let want_b: Vec<u64> = (0..items).flat_map(|i| [i as u64 + 1; 2]).collect();
                assert_eq!((a, b), (want_a, want_b), "threads={threads} items={items}");
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
            let kernel = PackedKernel::from_matrix(&b);
            let mut kdot = Vec::new();
            fold_dead_taps(&kernel, &[0], &mut kdot);
            let panels = Panels::new(&kernel, &kdot);
            let rows = TapRows::contiguous(a.words(), a.lanes());
            for threads in 1..=4 {
                let mut out = vec![i32::MIN; m * n];
                dispatch_chunks(&pool, threads, &mut out, n, 1, |first, band| {
                    gemm_panels_into(&rows, &panels, first, band);
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
            .conv2d(&a, &k, Conv2dParams::default(), &mut s)
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
            .conv2d(&pa, &pk, Conv2dParams::default(), &mut s)
            .unwrap();
        let direct = conv2d_binary(&pa, &pk, Conv2dParams::default()).unwrap();
        assert_eq!(fast.shape(), direct.shape());
        assert_eq!(fast.data(), direct.data());
    }

    #[test]
    fn wide_3x3_runs_the_tap_kernel() {
        // Two lane words of channels, unbordered activations under pad 1:
        // the public entry borders a copy and reads all nine taps, at
        // every thread count.
        let a = random_bits(&[2, 128, 6, 7], 17);
        let wk = random_bits(&[5, 128, 3, 3], 19);
        let pa = PackedActivations::pack(&a).unwrap();
        let pk = PackedKernel::pack(&wk).unwrap();
        let params = Conv2dParams { stride: 1, pad: 1 };
        let direct = conv2d_binary(&pa, &pk, params).unwrap();
        for threads in 1..=4 {
            let engine = Engine::new(ExecPolicy {
                threads,
                min_work: 0,
            });
            let mut s = ConvScratch::default();
            let got = engine.conv2d(&pa, &pk, params, &mut s).unwrap();
            assert_eq!(got.data(), direct.data(), "threads {threads}");
            assert_eq!((s.taps.len(), s.bordered.border()), (9, 1));
        }
    }

    #[test]
    fn border_reaches_only_as_far_as_live_taps() {
        let p = |stride, pad| Conv2dParams { stride, pad };
        // (h = w, k, params, border)
        for (side, k, params, want) in [
            (28, 3, p(1, 1), 1),
            (2, 3, p(1, 1), 1),
            (1, 3, p(1, 1), 0), // the centre tap only
            (2, 3, p(2, 1), 0), // taps 1..=2 of each axis stay inside
            (3, 3, p(2, 1), 1),
            (1, 5, p(1, 2), 0),
            (4, 5, p(1, 2), 2),
            (1, 1, p(2, 1), 0), // every tap dead
            (7, 1, p(2, 0), 0),
        ] {
            assert_eq!(
                conv_border(side, side, k, k, params),
                want,
                "{side} {k} {params:?}"
            );
        }
        assert_eq!(
            conv_border(1, 9, 3, 3, p(1, 1)),
            1,
            "a one-row map reads its columns' border"
        );
    }

    #[test]
    fn dead_taps_are_cropped_bit_exactly() {
        // The c1024 3×3 conv over a 1×1 map reads its centre tap only, and
        // the 2×2 → 1×1 stride-2 conv 4 of 9. Skipping the dead taps must
        // give all nine taps' results over the same bordered windows.
        for (c, side, stride, live) in [(1024usize, 1usize, 1usize, 1usize), (512, 2, 2, 4)] {
            let a = random_bits(&[2, c, side, side], c as u64);
            let wk = random_bits(&[16, c, 3, 3], !(c as u64));
            let pk = PackedKernel::pack(&wk).unwrap();
            let params = Conv2dParams { stride, pad: 1 };
            let mut acts = PackedActivations::default();
            acts.copy_bordered(&PackedActivations::pack(&a).unwrap(), 1);
            let mut s = ConvScratch::default();
            let cropped = Engine::single_threaded()
                .conv2d(&acts, &pk, params, &mut s)
                .unwrap();
            assert_eq!(s.taps.len(), live);
            // Uncropped: all nine taps' words over the same windows.
            let (lanes, wp) = (acts.lanes(), side + 2);
            let taps: Vec<u32> = (0..9).collect();
            let toff: Vec<u32> = (0..9)
                .map(|t| (((t / 3) * wp + t % 3) * lanes) as u32)
                .collect();
            let oh = params.out_dim(side, 3);
            let rows = TapRows::windows(
                acts.words(),
                (&toff, &taps, lanes),
                (oh, oh),
                (stride * lanes, stride * wp * lanes, wp * wp * lanes),
            );
            let mut kdot = Vec::new();
            fold_dead_taps(&pk, &taps, &mut kdot);
            assert!(kdot.iter().all(|&k| k == (9 * c) as i32));
            let mut flat = vec![0; 2 * oh * oh * 16];
            gemm_panels_into(&rows, &Panels::new(&pk, &kdot), 0, &mut flat);
            assert_eq!(&s.flat, &flat, "c{c}: cropped vs uncropped rows");
            let direct = conv2d_binary(&acts, &pk, params).unwrap();
            assert_eq!(cropped.data(), direct.data(), "c{c}");
        }
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
                let got = engine.conv2d(&pa, &pk, params, &mut scratch).unwrap();
                let expect = conv2d_binary(&pa, &pk, params).unwrap();
                prop_assert_eq!(got.data(), expect.data());
            }
        }
    }
}
