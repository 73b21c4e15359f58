//! Executor conformance: the fused plan must be bit-exact with the scalar
//! oracle (`ModelGraph::forward_scalar`, the frozen naive-reference node
//! walk) on random graphs, strides, pads, batch sizes, conv lowerings and
//! thread counts, through both of its entry points — the per-item
//! `forward_into` and the batch-parallel `forward_batch_into`, each on
//! reused scratch. The oracle's own entry points are pinned against each
//! other as well. The op-level section keeps the kernel substrate honest
//! underneath the graph sweep: the engine's conv and GEMM (through
//! whatever SIMD level and GEMM body the host dispatches to —
//! portable, AVX2, or AVX-512; see the CI legs that pin
//! `BITNN_SIMD=portable`) against the float references.

use bnnkc::prelude::*;
use proptest::prelude::*;

use bitnn::exec::ConvMode;
use bitnn::layers::{BatchNorm, BinConv2d, QuantConv2d, QuantLinear, RPReLU, RSign};
use bitnn::ops::conv::Conv2dParams;
use bitnn::pack::PackedActivations;
use bitnn::weightgen::{random_floats, random_kernel};
use bitnn::{BatchScratch, Scratch};

/// Build a random-but-valid graph: a chain of bn/act/conv/pool ops with
/// occasional skip-connection adds to random earlier same-shape values,
/// plus stride-2 convolutions. Multi-consumer values, reconvergent adds,
/// and mixed strides are exactly what stresses fusion detection and the
/// liveness-driven slot recycling.
fn random_chain_graph(ops: &[usize], picks: &[usize], seed: u64) -> ModelGraph {
    let c = 8;
    let stem_w = Tensor::from_vec(&[c, 3, 3, 3], random_floats(c * 27, 1.0, seed)).unwrap();
    let mut b = GraphBuilder::new("conformance", 3, 8);
    let mut x = b.push(
        "stem",
        NodeOp::StemConv(QuantConv2d::from_float(
            &stem_w,
            Conv2dParams { stride: 1, pad: 1 },
        )),
        &[0],
    );
    let mut size = 8usize; // stride-1 stem keeps the input size
    let mut avail: Vec<(usize, usize)> = vec![(x, size)];
    for (i, (&op, &pick)) in ops.iter().zip(picks).enumerate() {
        x = match op {
            0 => b.push(
                format!("bn{i}"),
                NodeOp::BatchNorm(BatchNorm::identity(c)),
                &[x],
            ),
            1 => b.push(format!("act{i}"), NodeOp::Act(RPReLU::plain(c, 0.25)), &[x]),
            2 => {
                // Skip add with a random earlier same-shape value (falls
                // back to self-add when none exists).
                let same: Vec<usize> = avail
                    .iter()
                    .filter(|&&(_, s)| s == size)
                    .map(|&(id, _)| id)
                    .collect();
                let other = same[pick % same.len()];
                b.push(format!("add{i}"), NodeOp::Add, &[x, other])
            }
            3 => {
                let sign = b.push(format!("sign{i}"), NodeOp::Sign(RSign::zero(c)), &[x]);
                b.push(
                    format!("conv{i}"),
                    NodeOp::BinConv(BinConv2d::new(
                        random_kernel(&[c, c, 3, 3], seed ^ i as u64),
                        Conv2dParams { stride: 1, pad: 1 },
                    )),
                    &[sign],
                )
            }
            4 => {
                // Stride-2 conv: halves the spatial size like the pool.
                if size < 3 {
                    continue;
                }
                size = (size + 2 - 3) / 2 + 1; // pad 1, k 3, stride 2
                let sign = b.push(format!("sign{i}"), NodeOp::Sign(RSign::zero(c)), &[x]);
                b.push(
                    format!("sconv{i}"),
                    NodeOp::BinConv(BinConv2d::new(
                        random_kernel(&[c, c, 3, 3], seed ^ (0x51 + i as u64)),
                        Conv2dParams { stride: 2, pad: 1 },
                    )),
                    &[sign],
                )
            }
            _ => {
                if size < 2 {
                    continue; // too small to pool again
                }
                size = size.div_ceil(2);
                b.push(format!("pool{i}"), NodeOp::AvgPool2x2, &[x])
            }
        };
        avail.push((x, size));
    }
    let gap = b.push("gap", NodeOp::GlobalAvgPool, &[x]);
    b.push(
        "fc",
        NodeOp::Classifier(QuantLinear::from_float(
            &random_floats(10 * c, 0.5, seed ^ 0xFC),
            10,
            c,
        )),
        &[gap],
    );
    b.finish().unwrap()
}

/// Assert the executor is bit-exact with the scalar oracle on `inputs`
/// under `engine`: `forward_into` for two rounds on one `Scratch` (the
/// second runs on a warmed arena), then `forward_batch_into` for two
/// rounds on one reused `BatchScratch`.
fn assert_matches_oracle(model: &ModelGraph, inputs: &[Tensor], engine: &Engine, what: &str) {
    let expect: Vec<Tensor> = inputs
        .iter()
        .map(|x| model.forward_scalar(x).unwrap())
        .collect();
    let mut scratch = Scratch::default();
    let mut y = Tensor::default();
    for round in 0..2 {
        for (x, e) in inputs.iter().zip(&expect) {
            model.forward_into(x, engine, &mut scratch, &mut y).unwrap();
            assert_eq!(
                y.data(),
                e.data(),
                "{what}: forward_into diverged from the scalar oracle (round {round})"
            );
        }
    }
    let mut batch = BatchScratch::default();
    let mut outs = Vec::new();
    for round in 0..2 {
        model
            .forward_batch_into(inputs, engine, &mut batch, &mut outs)
            .unwrap();
        assert_eq!(outs.len(), inputs.len());
        for (y, e) in outs.iter().zip(&expect) {
            assert_eq!(
                y.data(),
                e.data(),
                "{what}: forward_batch_into diverged from the scalar oracle (round {round})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The executor is bit-exact with the scalar oracle on random graphs
    /// — skip adds, stride-2 convs, pools, reconvergence — across thread
    /// counts and repeated (arena-reusing) forwards.
    #[test]
    fn backends_match_scalar_on_random_graphs(
        ops in proptest::collection::vec(0usize..6, 1..20),
        picks in proptest::collection::vec(0usize..64, 20),
        threads in 1usize..5,
        seed in any::<u64>()
    ) {
        let model = random_chain_graph(&ops, &picks, seed);
        let x = Tensor::from_vec(&[1, 3, 8, 8], random_floats(3 * 64, 1.0, seed ^ 9)).unwrap();
        assert_matches_oracle(&model, &[x], &Engine::with_threads(threads), "random graph");
    }

    /// The executor is bit-exact with the oracle on the built-in
    /// architecture families across image sizes, batch sizes, and thread
    /// counts — strides and shortcut forms vary per family (identity,
    /// stride-2 pool, channel duplication), so this sweeps all fused
    /// paths through both entry points.
    #[test]
    fn backends_match_scalar_across_architectures(
        arch_idx in 0usize..3,
        image in 12usize..24,
        batch in 1usize..4,
        threads in 1usize..5,
        seed in any::<u64>()
    ) {
        let arch = Arch::ALL[arch_idx];
        let model = build_model(arch, 0.0625, image, seed).unwrap();
        let inputs = synthetic_batch(batch, 3, image, seed ^ 0x6A17);
        let engine = Engine::with_threads(threads);
        assert_matches_oracle(&model, &inputs, &engine, &format!("{arch} threads {threads}"));
    }

    /// A `ConvMode::Stream` pin is bit-exact with the float reference
    /// across random 3×3 geometries: strides 1–2, pads 0–1, degenerate
    /// one-row and one-column planes, batches, and filter counts spanning
    /// the filter-block remainders. Channel counts span one and two lane
    /// words, so the pin covers both the streaming kernel (C ≤ 64) and
    /// the im2col fallback every wider 3×3 conv takes.
    #[test]
    fn streaming_conv_matches_scalar_oracle(
        c in 1usize..70,
        h in 1usize..8,
        w in 1usize..8,
        n in 1usize..4,
        kf in 1usize..7,
        stride in 1usize..3,
        pad in 0usize..2,
        threads in 1usize..5,
        seed in any::<u64>()
    ) {
        use bitnn::engine::ConvScratch;
        use bitnn::ops::reference::conv2d_reference;

        prop_assume!(h + 2 * pad >= 3 && w + 2 * pad >= 3);
        let a = random_kernel(&[n, c, h, w], seed);
        let wk = random_kernel(&[kf, c, 3, 3], !seed);
        let pa = PackedActivations::pack(&a).unwrap();
        let pk = PackedKernel::pack(&wk).unwrap();
        let params = Conv2dParams { stride, pad };
        let engine = Engine::new(ExecPolicy {
            threads,
            conv: ConvMode::Stream,
            // Exercise the parallel band split even on tiny shapes.
            min_work: 0,
        });
        let mut scratch = ConvScratch::default();
        let got = engine.conv2d(&pa, (&pk).into(), params, &mut scratch).unwrap();
        let expect = conv2d_reference(&a.to_tensor(), &wk.to_tensor(), params);
        prop_assert_eq!(got.shape(), expect.shape());
        for (g, e) in got.data().iter().zip(expect.data()) {
            prop_assert_eq!(*g, *e);
        }
    }

    /// Whole-model conformance with the streaming lowering pinned: the
    /// packed binary-domain edges, the stacked weight-stationary batch
    /// schedule, and the streaming conv kernels compose to results
    /// bit-exact with the scalar oracle across architecture families.
    #[test]
    fn streaming_conv_matches_scalar_across_architectures(
        arch_idx in 0usize..3,
        image in 12usize..20,
        batch in 2usize..4,
        threads in 1usize..5,
        seed in any::<u64>()
    ) {
        let arch = Arch::ALL[arch_idx];
        let model = build_model(arch, 0.0625, image, seed).unwrap();
        let inputs = synthetic_batch(batch, 3, image, seed ^ 0x57E4);
        let engine = Engine::new(ExecPolicy {
            threads,
            conv: ConvMode::Stream,
            ..ExecPolicy::default()
        });
        // The batch entry point takes the stacked weight-stationary
        // schedule on the intra-op split, the same streaming kernels.
        assert_matches_oracle(&model, &inputs, &engine, &format!("{arch} stream pin"));
    }

    /// Op-level floor under the graph sweep: the engine conv is bit-exact
    /// vs `ops::reference` across random shapes, strides, pads, thread
    /// counts, and every conv mode — through whatever SIMD path the host
    /// dispatches (portable, AVX2, AVX-512).
    #[test]
    fn engine_conv_matches_reference(
        c in 1usize..70,
        h in 3usize..7,
        w in 3usize..7,
        n in 1usize..3,
        kf in 1usize..4,
        ks in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        threads in 1usize..5,
        conv_pick in 0usize..3,
        seed in any::<u64>()
    ) {
        use bitnn::engine::ConvScratch;
        use bitnn::ops::reference::conv2d_reference;

        let conv = [ConvMode::Auto, ConvMode::Stream, ConvMode::Im2col][conv_pick];
        let a = random_kernel(&[n, c, h, w], seed);
        let wk = random_kernel(&[kf, c, ks, ks], !seed);
        let pa = PackedActivations::pack(&a).unwrap();
        let pk = PackedKernel::pack(&wk).unwrap();
        let params = Conv2dParams { stride, pad };
        let engine = Engine::new(ExecPolicy {
            threads,
            conv,
            // Exercise the parallel path even on tiny shapes.
            min_work: 0,
        });
        let mut scratch = ConvScratch::default();
        let got = engine.conv2d(&pa, (&pk).into(), params, &mut scratch).unwrap();
        let expect = conv2d_reference(&a.to_tensor(), &wk.to_tensor(), params);
        prop_assert_eq!(got.shape(), expect.shape());
        for (g, e) in got.data().iter().zip(expect.data()) {
            prop_assert_eq!(*g, *e);
        }
    }

    /// The engine GEMM is bit-exact vs the naive loop and the float
    /// reference for any thread count. `k` spans one-lane rows through
    /// 19 lanes, with ragged tails, so the panel kernel's row walk and
    /// register tiles at the dispatched level are both validated here.
    #[test]
    fn engine_gemm_matches_reference(
        m in 1usize..9, kn in 1usize..7, k in 1usize..1200,
        threads in 1usize..5,
        seed in any::<u64>()
    ) {
        use bitnn::ops::gemm::PackedMatrix;
        use bitnn::ops::reference::matmul_reference;

        let ak = random_kernel(&[1, 1, m, k], seed);
        let bk = random_kernel(&[1, 1, kn, k], !seed);
        let a_bits: Vec<bool> = (0..ak.len()).map(|i| ak.get(i)).collect();
        let b_bits: Vec<bool> = (0..bk.len()).map(|i| bk.get(i)).collect();
        let a = PackedMatrix::from_bools(m, k, &a_bits).unwrap();
        let b = PackedMatrix::from_bools(kn, k, &b_bits).unwrap();
        let engine = Engine::with_threads(threads);
        let got = engine.gemm(&a, &b).unwrap();
        prop_assert_eq!(&got, &bitnn::ops::gemm::gemm_binary_naive(&a, &b).unwrap());
        let sgn = |v: bool| if v { 1.0f32 } else { -1.0 };
        let af: Vec<f32> = a_bits.iter().map(|&v| sgn(v)).collect();
        let bf: Vec<f32> = b_bits.iter().map(|&v| sgn(v)).collect();
        let reference = matmul_reference(&af, &bf, m, kn, k);
        for (g, e) in got.iter().zip(&reference) {
            prop_assert_eq!(*g as f32, *e);
        }
    }
}

/// Whole-model multi-core sweep: every conv mode at every thread count
/// from 1 to 4, with `min_work: 0` so even these tiny models take the
/// parallel split, on every built-in architecture. Both the per-item
/// entry point and the batch entry point must be bit-exact with the
/// oracle.
#[test]
fn conv_modes_match_scalar_across_threads_and_architectures() {
    let image = 16;
    for arch in Arch::ALL {
        let model = build_model(arch, 0.0625, image, 0x5EED).unwrap();
        let inputs = synthetic_batch(2, 3, image, 0xD3D0);
        for conv in [ConvMode::Auto, ConvMode::Stream, ConvMode::Im2col] {
            for threads in 1..5 {
                let engine = Engine::new(ExecPolicy {
                    threads,
                    conv,
                    min_work: 0,
                });
                let what = format!("{arch} {conv:?} threads {threads}");
                assert_matches_oracle(&model, &inputs, &engine, &what);
            }
        }
    }
}

/// The oracle's entry points agree bit for bit on every built-in family:
/// `forward_on(&ScalarBackend)` (what the benchmark's scalar digest
/// calls), `forward_scalar` and `forward_traced`. `forward_on` must also
/// replace a reused output tensor of another shape.
#[test]
fn oracle_entry_points_agree() {
    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }
    let image = 16;
    for arch in Arch::ALL {
        let model = build_model(arch, 0.0625, image, 0x0AC1).unwrap();
        let mut state = model.state_for(&ScalarBackend);
        let mut out = Tensor::full(&[3, 7, 5, 5], 1.5);
        for x in &synthetic_batch(2, 3, image, 0x0AC2) {
            let scalar = model.forward_scalar(x).unwrap();
            let (traced, _) = model.forward_traced(x).unwrap();
            model
                .forward_on(&ScalarBackend, &mut state, x, &mut out)
                .unwrap();
            assert_eq!(out.shape(), scalar.shape(), "{arch}: forward_on shape");
            assert_eq!(bits(&out), bits(&scalar), "{arch}: forward_on bits");
            assert_eq!(bits(&traced), bits(&scalar), "{arch}: forward_traced bits");
        }
    }
}

/// Deterministic streaming-conv edge geometries, always exercised even
/// when the property sweep's generator skirts them: one-row and
/// one-column planes (every window row out of bounds on one side), a 1×1
/// plane under pad 1 (pad-only windows), stride 2 without padding, and
/// the perfsuite-gated 28×28/c64/k64 shape batched.
#[test]
fn streaming_conv_degenerate_geometries_match_oracle() {
    use bitnn::engine::ConvScratch;
    use bitnn::ops::reference::conv2d_reference;

    let engine = Engine::new(ExecPolicy {
        threads: 1,
        conv: ConvMode::Stream,
        ..ExecPolicy::default()
    });
    let mut scratch = ConvScratch::default();
    for (shape, kf, stride, pad) in [
        ([2, 5, 1, 9], 4, 1, 1),     // single row
        ([2, 5, 9, 1], 4, 1, 1),     // single column
        ([1, 64, 1, 1], 3, 1, 1),    // pad-only windows
        ([3, 70, 6, 7], 5, 2, 0),    // stride 2, no padding, 2 lanes
        ([2, 64, 28, 28], 64, 1, 1), // the perfsuite-gated geometry
    ] {
        let a = random_kernel(&shape, 0xDE6E ^ (shape[1] * shape[3]) as u64);
        let wk = random_kernel(&[kf, shape[1], 3, 3], 0xF117 ^ kf as u64);
        let pa = PackedActivations::pack(&a).unwrap();
        let pk = PackedKernel::pack(&wk).unwrap();
        let params = Conv2dParams { stride, pad };
        let got = engine
            .conv2d(&pa, (&pk).into(), params, &mut scratch)
            .unwrap();
        let expect = conv2d_reference(&a.to_tensor(), &wk.to_tensor(), params);
        assert_eq!(got.shape(), expect.shape());
        assert_eq!(
            got.data(),
            expect.data(),
            "stream diverged at {shape:?} kf={kf} s={stride} p={pad}"
        );
    }
}

/// The fused plan carries pixel-major activations and fuses its conv
/// epilogues into the conv's parallel chunks, so every chunking must give
/// the oracle's logits: all three families, threads 1–4 with
/// `min_work: 0` (every dispatch splits), batches of 1, 2 and 33 (33
/// crosses the stacked schedule's block of 8 and leaves a ragged tail),
/// and both pinned conv lowerings.
#[test]
fn fused_plan_matches_oracle_across_batches_threads_and_lowerings() {
    let image = 12;
    for arch in Arch::ALL {
        let model = build_model(arch, 0.0625, image, 0xB47C).unwrap();
        for batch in [1usize, 2, 33] {
            let inputs = synthetic_batch(batch, 3, image, 0xE91 ^ batch as u64);
            let expect: Vec<Tensor> = inputs
                .iter()
                .map(|x| model.forward_scalar(x).unwrap())
                .collect();
            for conv in [ConvMode::Stream, ConvMode::Im2col] {
                for threads in 1..5 {
                    let engine = Engine::new(ExecPolicy {
                        threads,
                        conv,
                        min_work: 0,
                    });
                    let what = format!("{arch} batch {batch} {conv:?} threads {threads}");
                    let mut outs = Vec::new();
                    model
                        .forward_batch_into(
                            &inputs,
                            &engine,
                            &mut BatchScratch::default(),
                            &mut outs,
                        )
                        .unwrap();
                    for (i, (y, e)) in outs.iter().zip(&expect).enumerate() {
                        assert_eq!(y.data(), e.data(), "{what}: item {i} (batch)");
                    }
                    let mut y = Tensor::default();
                    let mut scratch = Scratch::default();
                    for (i, (x, e)) in inputs.iter().zip(&expect).enumerate().take(2) {
                        model
                            .forward_into(x, &engine, &mut scratch, &mut y)
                            .unwrap();
                        assert_eq!(y.data(), e.data(), "{what}: item {i} (per item)");
                    }
                }
            }
        }
    }
}

/// Run a hand-built graph through the fused plan at several thread
/// counts and batch sizes and compare it with the oracle, shape and bits.
fn assert_graph_matches_oracle(model: &ModelGraph, channels: usize, image: usize, what: &str) {
    for batch in [1usize, 3] {
        let x = Tensor::from_vec(
            &[batch, channels, image, image],
            random_floats(batch * channels * image * image, 1.0, batch as u64 ^ 0x0E),
        )
        .unwrap();
        let expect = model.forward_scalar(&x).unwrap();
        for threads in 1..5 {
            let engine = Engine::new(ExecPolicy {
                threads,
                min_work: 0,
                ..ExecPolicy::default()
            });
            let (mut scratch, mut y) = (Scratch::default(), Tensor::default());
            for round in 0..2 {
                model
                    .forward_into(&x, &engine, &mut scratch, &mut y)
                    .unwrap();
                assert_eq!(y.shape(), expect.shape(), "{what}: shape");
                assert_eq!(
                    y.data(),
                    expect.data(),
                    "{what}: batch {batch} threads {threads} round {round}"
                );
            }
        }
    }
}

/// A graph whose output is a 4-D activation: the plan's pixel-major
/// value must come back as `[N, C, H, W]`, bit for bit. It ends in a
/// fused stride-2 block (pooled shortcut) behind a fused channel block.
#[test]
fn four_d_graph_output_comes_back_nchw() {
    let c = 8;
    let stem_w = Tensor::from_vec(&[c, 3, 3, 3], random_floats(c * 27, 1.0, 1)).unwrap();
    let mut b = GraphBuilder::new("map-out", 3, 9);
    let stem = b.push(
        "stem",
        NodeOp::StemConv(QuantConv2d::from_float(
            &stem_w,
            Conv2dParams { stride: 1, pad: 1 },
        )),
        &[0],
    );
    let block = |b: &mut GraphBuilder, x: usize, stride: usize, tag: &str| {
        let sign = b.push(
            format!("sign{tag}"),
            NodeOp::Sign(RSign::new(random_floats(c, 0.3, 2))),
            &[x],
        );
        let conv = b.push(
            format!("conv{tag}"),
            NodeOp::BinConv(BinConv2d::new(
                random_kernel(&[c, c, 3, 3], 3 + stride as u64),
                Conv2dParams { stride, pad: 1 },
            )),
            &[sign],
        );
        let bn = b.push(
            format!("bn{tag}"),
            NodeOp::BatchNorm(BatchNorm::new(
                random_floats(c, 1.0, 4),
                random_floats(c, 0.5, 5),
                random_floats(c, 0.5, 6),
                vec![1.0; c],
                1e-5,
            )),
            &[conv],
        );
        let short = if stride == 2 {
            b.push(format!("pool{tag}"), NodeOp::AvgPool2x2, &[x])
        } else {
            x
        };
        let add = b.push(format!("add{tag}"), NodeOp::Add, &[bn, short]);
        let act = RPReLU::new(
            random_floats(c, 0.2, 7),
            random_floats(c, 0.5, 8),
            random_floats(c, 0.2, 9),
        );
        b.push(format!("act{tag}"), NodeOp::Act(act), &[add])
    };
    let x = block(&mut b, stem, 1, "a");
    block(&mut b, x, 2, "b");
    let model = b.finish().unwrap();
    assert_graph_matches_oracle(&model, 3, 9, "4-D output");
}

/// A graph whose input feeds a sign directly (and an add), so the plan
/// converts the NCHW input to its pixel-major layout once, while the stem
/// beside it still reads the NCHW input itself.
#[test]
fn graph_input_feeding_a_sign_is_converted_once() {
    let c = 5;
    let mut b = GraphBuilder::new("input-sign", c, 7);
    let stem_w = Tensor::from_vec(&[c, c, 3, 3], random_floats(c * c * 9, 1.0, 11)).unwrap();
    let stem = b.push(
        "stem",
        NodeOp::StemConv(QuantConv2d::from_float(
            &stem_w,
            Conv2dParams { stride: 1, pad: 1 },
        )),
        &[0],
    );
    let mixed = b.push("mix", NodeOp::Add, &[stem, 0]);
    let sign = b.push(
        "sign",
        NodeOp::Sign(RSign::new(random_floats(c, 0.3, 12))),
        &[0],
    );
    let conv = b.push(
        "conv",
        NodeOp::BinConv(BinConv2d::new(
            random_kernel(&[c, c, 3, 3], 13),
            Conv2dParams { stride: 1, pad: 1 },
        )),
        &[sign],
    );
    let sum = b.push("sum", NodeOp::Add, &[conv, mixed]);
    let gap = b.push("gap", NodeOp::GlobalAvgPool, &[sum]);
    b.push(
        "fc",
        NodeOp::Classifier(QuantLinear::from_float(
            &random_floats(4 * c, 0.5, 14),
            4,
            c,
        )),
        &[gap],
    );
    let model = b.finish().unwrap();
    assert_graph_matches_oracle(&model, c, 7, "input feeds a sign");
}
