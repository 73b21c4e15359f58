//! Concurrency stress: a single shared [`Engine`] (and its process-wide
//! persistent worker pool) serves batched forwards from many OS threads at
//! once, and every result stays bit-exact with the scalar oracle.
//!
//! The engine holds no per-call state — scratches and arenas are
//! caller-owned — so concurrent `forward_batch` calls must neither corrupt
//! each other nor deadlock the pool, whichever thread's job drains first.

use bitnn::graph::BatchScratch;
use bitnn::ExecPolicy;
use bnnkc::prelude::*;
use std::thread;

fn engine(threads: usize) -> Engine {
    Engine::new(ExecPolicy {
        threads,
        // Force the parallel path even on the tiny test workloads so the
        // pool sees concurrent jobs wherever the hardware allows.
        min_work: 0,
    })
}

#[test]
fn concurrent_forward_batch_on_one_engine_is_bit_exact() {
    let model = ReActNetConfig::tiny().model(21).unwrap();
    let engine = engine(4);
    // Per-thread input sets with precomputed scalar-oracle logits.
    let cases: Vec<(Vec<Tensor>, Vec<Tensor>)> = (0..4u64)
        .map(|t| {
            let inputs = synthetic_batch(3, 3, 32, 100 + t);
            let expect = inputs
                .iter()
                .map(|x| model.forward_scalar(x).unwrap())
                .collect();
            (inputs, expect)
        })
        .collect();

    thread::scope(|s| {
        for (inputs, expect) in &cases {
            let model = &model;
            let engine = &engine;
            s.spawn(move || {
                let mut scratch = BatchScratch::default();
                let mut outs = Vec::new();
                for round in 0..8 {
                    model
                        .forward_batch_into(inputs, engine, &mut scratch, &mut outs)
                        .unwrap();
                    assert_eq!(outs.len(), expect.len());
                    for (o, e) in outs.iter().zip(expect) {
                        assert_eq!(o.data(), e.data(), "round {round}");
                    }
                }
            });
        }
    });
}

#[test]
fn concurrent_graph_archs_share_one_engine() {
    // Different architectures, one engine, all threads at once.
    let engine = engine(4);
    let models: Vec<_> = [Arch::ReActNet, Arch::VggSmall, Arch::ResNetLite]
        .iter()
        .map(|&a| build_model(a, 0.0625, 16, 5).unwrap())
        .collect();
    let inputs = synthetic_batch(4, 3, 16, 77);
    let expect: Vec<Vec<Tensor>> = models
        .iter()
        .map(|m| {
            inputs
                .iter()
                .map(|x| m.forward_scalar(x).unwrap())
                .collect()
        })
        .collect();

    thread::scope(|s| {
        for (model, expect) in models.iter().zip(&expect) {
            let engine = &engine;
            let inputs = &inputs;
            s.spawn(move || {
                for _ in 0..6 {
                    let outs = model.forward_batch(inputs, engine).unwrap();
                    for (o, e) in outs.iter().zip(expect) {
                        assert_eq!(o.data(), e.data());
                    }
                }
            });
        }
    });
}
