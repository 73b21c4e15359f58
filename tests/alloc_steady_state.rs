//! Steady-state allocation gate: a warmed `forward_batch_into` performs
//! ZERO heap allocations — every intermediate activation lives in the
//! plan's liveness-assigned arena, the quantized ends stage through
//! scratch buffers, and the logits land in the caller's reused output
//! tensors.
//!
//! Asserted with a counting global allocator, so this file holds exactly
//! one test: a sibling test running concurrently would pollute the count.

use bitnn::graph::BatchScratch;
use bnnkc::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper that counts every allocation call.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_forward_batch_performs_zero_allocations() {
    let model = ReActNetConfig::tiny().model(7).unwrap();
    let inputs = synthetic_batch(4, 3, 32, 11);
    let expect: Vec<Tensor> = inputs
        .iter()
        .map(|x| model.forward_scalar(x).unwrap())
        .collect();
    let engine = Engine::single_threaded();
    let mut scratch = BatchScratch::default();
    let mut outs = Vec::new();

    // Warm-up: size the arena, the lowering/quantization scratches, and
    // the output tensors (two rounds so the output/arena buffer swap
    // settles too).
    for _ in 0..2 {
        model
            .forward_batch_into(&inputs, &engine, &mut scratch, &mut outs)
            .unwrap();
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..3 {
        model
            .forward_batch_into(&inputs, &engine, &mut scratch, &mut outs)
            .unwrap();
    }
    let allocated = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocated, 0,
        "warmed forward_batch_into allocated {allocated} times"
    );

    // And it still computes the right thing.
    for (o, e) in outs.iter().zip(&expect) {
        assert_eq!(o.data(), e.data());
    }

    // The same gate at two threads, on both parallel paths (same
    // allocator, same test). Batch 16 is split across the worker pool in
    // eight chunks of two stacked images; batch 1 stays on the calling
    // thread and splits its convs and sign+pack passes across the pool.
    // `min_work: 0` keeps the tiny model from falling back to inline
    // dispatch. On a 1-core host both runs fall back to inline execution
    // anyway, and the gate checks only the single-threaded paths.
    let engine = Engine::new(ExecPolicy {
        threads: 2,
        min_work: 0,
    });
    for batch in [16usize, 1] {
        let inputs = synthetic_batch(batch, 3, 32, 17);
        let mut scratch = BatchScratch::default();
        let mut outs = Vec::new();
        for _ in 0..2 {
            model
                .forward_batch_into(&inputs, &engine, &mut scratch, &mut outs)
                .unwrap();
        }
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..5 {
            model
                .forward_batch_into(&inputs, &engine, &mut scratch, &mut outs)
                .unwrap();
        }
        let allocated = ALLOCS.load(Ordering::SeqCst) - before;
        assert_eq!(
            allocated, 0,
            "warmed 2-thread forward_batch_into of {batch} allocated {allocated} times"
        );
        for (o, x) in outs.iter().zip(&inputs) {
            assert_eq!(o.data(), model.forward_scalar(x).unwrap().data());
        }
    }

    // The single-input path shares the property: repeat forwards
    // through one Scratch allocate nothing either.
    let mut s = bitnn::Scratch::default();
    let mut out = Tensor::default();
    for _ in 0..2 {
        model
            .forward_into(&inputs[0], &engine, &mut s, &mut out)
            .unwrap();
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..3 {
        model
            .forward_into(&inputs[0], &engine, &mut s, &mut out)
            .unwrap();
    }
    let allocated = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocated, 0,
        "warmed forward_into allocated {allocated} times"
    );
    assert_eq!(out.data(), expect[0].data());

    // Shape-switch gate (same allocator, same test): the model warmed at
    // image 32, where every 3×3 conv reads all nine taps, then run at
    // image 8, where its last stride-2 conv (2×2 → 1×1) reads four. Once
    // the arena has settled at the second shape, repeat forwards there
    // allocate nothing — the layer's one kernel form serves every live-tap
    // set — and both shapes stay bit-exact against the oracle.
    {
        let engine = Engine::single_threaded();
        let first = synthetic_batch(1, 3, 32, 19).remove(0);
        let second = synthetic_batch(1, 3, 8, 23).remove(0);
        let mut s = bitnn::Scratch::default();
        let mut out = Tensor::default();
        for _ in 0..2 {
            model
                .forward_into(&first, &engine, &mut s, &mut out)
                .unwrap();
        }
        assert_eq!(out.data(), model.forward_scalar(&first).unwrap().data());
        for _ in 0..2 {
            model
                .forward_into(&second, &engine, &mut s, &mut out)
                .unwrap();
        }
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..3 {
            model
                .forward_into(&second, &engine, &mut s, &mut out)
                .unwrap();
        }
        let allocated = ALLOCS.load(Ordering::SeqCst) - before;
        assert_eq!(
            allocated, 0,
            "forward_into at a second image size allocated {allocated} times"
        );
        assert_eq!(out.data(), model.forward_scalar(&second).unwrap().data());
    }

    // Deployment-path representation gate (same allocator, same test —
    // a sibling test would pollute the count): a packed-only layer must
    // never derive the flat [K, C, 3, 3] tensor, and its warmed forward
    // stays allocation-free.
    use bitnn::engine::ConvScratch;
    use bitnn::layers::BinConv2d;
    use bitnn::ops::conv::Conv2dParams;
    use bitnn::pack::PackedActivations;
    use bitnn::weightgen::random_kernel;

    let params = Conv2dParams { stride: 1, pad: 1 };
    let kernel = random_kernel(&[9, 70, 3, 3], 0xA110C);
    let bits = random_kernel(&[2, 70, 8, 8], 0xB17);
    let oracle = {
        let acts = PackedActivations::pack(&bits).unwrap();
        BinConv2d::new(kernel.clone(), params).forward_packed(&acts)
    };
    {
        let conv = BinConv2d::from_packed(PackedKernel::pack(&kernel).unwrap(), params);
        let engine = Engine::single_threaded();
        let acts = PackedActivations::pack(&bits).unwrap();
        let mut conv_scratch = ConvScratch::default();
        let mut y = Tensor::default();
        for _ in 0..2 {
            engine
                .conv2d_into(&acts, conv.packed(), params, &mut conv_scratch, &mut y)
                .unwrap();
        }
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..3 {
            engine
                .conv2d_into(&acts, conv.packed(), params, &mut conv_scratch, &mut y)
                .unwrap();
        }
        let allocated = ALLOCS.load(Ordering::SeqCst) - before;
        assert_eq!(
            allocated, 0,
            "warmed packed-only forward allocated {allocated} times"
        );
        assert_eq!(y.data(), oracle.data(), "packed-only forward diverged");
        assert!(
            !conv.has_dense_weights(),
            "packed-only deployment must never derive the flat weight tensor"
        );
    }

    // Public-conv gate (same allocator, same test): on the
    // perfsuite-gated 28×28/c64/k64 geometry, unbordered activations
    // under pad 1 are copied into the scratch's bordered buffer before the
    // tap kernel reads them; once warm, that copy, the tap tables and the
    // layer's cached panels add zero heap allocations.
    {
        use bitnn::ops::conv::conv2d_binary;
        let gated = PackedKernel::pack(&random_kernel(&[64, 64, 3, 3], 0x57E3A)).unwrap();
        let acts = PackedActivations::pack(&random_kernel(&[1, 64, 28, 28], 0xAC7)).unwrap();
        let direct = conv2d_binary(&acts, &gated, params).unwrap();
        let conv = BinConv2d::from_packed(gated, params);
        let engine = Engine::single_threaded();
        let mut conv_scratch = ConvScratch::default();
        let mut y = Tensor::default();
        for _ in 0..2 {
            engine
                .conv2d_into(&acts, conv.packed(), params, &mut conv_scratch, &mut y)
                .unwrap();
        }
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..3 {
            engine
                .conv2d_into(&acts, conv.packed(), params, &mut conv_scratch, &mut y)
                .unwrap();
        }
        let allocated = ALLOCS.load(Ordering::SeqCst) - before;
        assert_eq!(
            allocated, 0,
            "warmed public conv allocated {allocated} times"
        );
        assert_eq!(
            y.data(),
            direct.data(),
            "tap kernel vs direct conv diverged"
        );
    }

    // Serving-path gate (same allocator, same test): a warmed
    // `Server::infer_blocking` round trip — submit, coalesce, batch
    // forward, respond — performs zero heap allocations. The request
    // cell, queue storage, worker batch buffers, and batch scratch are
    // all reused; only the client-side submit path runs on this thread,
    // the rest is proven by the worker thread making progress without
    // bumping the shared counter.
    let container = {
        let codec = KernelCodec::paper();
        let spec = build_spec(Arch::VggSmall, 0.0625, 32).unwrap();
        let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, 7)
            .unwrap()
            .iter()
            .map(|k| codec.compress(k).unwrap())
            .collect();
        write_model_container_v2(&spec, &kernels).unwrap().to_vec()
    };
    let server = Server::new(ServeConfig {
        policy: ExecPolicy::single_threaded(),
        image: 32,
        ..Default::default()
    });
    server.register_bytes("m", &container).unwrap();
    let x = synthetic_batch(1, 3, 32, 13).remove(0);
    let mut slot = InferSlot::new();
    let mut served = Tensor::default();
    for _ in 0..4 {
        server
            .infer_blocking("m", &mut slot, &x, &mut served)
            .unwrap();
    }
    let warmed: Vec<f32> = served.data().to_vec();
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..6 {
        server
            .infer_blocking("m", &mut slot, &x, &mut served)
            .unwrap();
    }
    let allocated = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocated, 0,
        "warmed serve path allocated {allocated} times per 6 requests"
    );
    assert_eq!(
        served.data(),
        &warmed[..],
        "serve path diverged after warmup"
    );
    server.shutdown();
}
