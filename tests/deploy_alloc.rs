//! Deployment allocation gate: one `registry::deploy_bytes` of ReActNet
//! ×0.25 allocates each compressible 3×3 kernel's bits once — as the
//! lane words decoded from its record — and never a sampled kernel that
//! the decoded one would replace. The synthetic 1×1 kernels are
//! allocated once too, as the lane words they are drawn into.
//!
//! Asserted with a byte-counting global allocator, so this file holds
//! exactly one test: a sibling test running concurrently would pollute
//! the count.

use bnnkc::prelude::*;
use bnnkc::serve::registry::deploy_bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper that counts every byte requested (fresh
/// allocations in full, reallocations by their growth).
struct CountingAlloc;

static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes one deployment below may allocate. Measured on this exact
/// deployment (x86-64 Linux; the debug profile counts 1,144 bytes more):
///
/// * 8,076,167 bytes when every 3×3 slot was first sampled from its
///   calibrated distribution and then overwritten by the decoded kernel;
/// * 2,029,570 bytes building each slot straight from its record, with
///   the synthetic 1×1 kernels as flat tensors (24,528 bytes of bits);
/// * 2,029,842 bytes with the 1×1 kernels drawn straight into lane words
///   (25,216 bytes: lane padding, but no per-kernel shape vector);
/// * 2,064,418 bytes with every kernel in the GEMM's panel layout: the
///   filters padded to whole 8-filter panels, plus each kernel's
///   per-position ones table.
///
/// The 13 kernels' lane words total 199,872 bytes, so a bound under
/// 2,029,842 + 199,872 also fails if any kernel's bits get a second copy.
const BOUND: usize = 2_200_000;

#[test]
fn deploy_allocates_each_conv3_kernel_once() {
    let spec = build_spec(Arch::ReActNet, 0.25, 32).unwrap();
    let codec = KernelCodec::paper();
    let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, 3)
        .unwrap()
        .iter()
        .map(|k| codec.compress(k).unwrap())
        .collect();
    let bytes = write_model_container_v3(&spec, &kernels).unwrap().to_vec();
    let engine = Engine::single_threaded();

    let before = BYTES.load(Ordering::SeqCst);
    let entry = deploy_bytes(&bytes, &engine, 5, 32, 1).unwrap();
    let allocated = BYTES.load(Ordering::SeqCst) - before;
    assert_eq!(entry.graph.num_conv3(), 13);

    assert!(
        allocated < BOUND,
        "deploy_bytes allocated {allocated} bytes (bound {BOUND})"
    );
}
