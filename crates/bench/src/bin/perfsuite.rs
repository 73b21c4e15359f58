//! perfsuite — the tracked performance suite for the binary hot path.
//!
//! Times the tiers the execution engine accelerates, each against the
//! seed's scalar baseline which is kept bit-identical in-tree:
//!
//! 1. **GEMM** — `gemm_binary_naive` (seed scalar) vs the 8-filter panel
//!    kernel vs the parallel [`Engine`] across the thread ladder.
//! 2. **Conv 3×3** — `conv2d_binary` (seed direct scalar) vs the engine's
//!    one conv kernel (the tap-addressed panel GEMM) across the thread
//!    ladder; its 1-thread row feeds the enforced
//!    `conv_engine_1t_speedup` criterion.
//! 3. **End-to-end** — the tiny ReActNet forward over a batch: the graph's
//!    `forward_scalar` per image vs `forward_batch` across the ladder.
//! 4. **Compressed e2e** — deploy a wide graph-IR ReActNet container
//!    (at scale 1.0 the late blocks are 512-channel 3×3 convs, so the
//!    records dominate the container and decode cost is real) and run
//!    the batch forward two ways, asserted bit-exact first: offline
//!    decompress→pack→forward and the streaming decode path (stream →
//!    packed lane words → engine, no intermediate `[K, C, 3, 3]`
//!    tensor). The section records the deployed records' cross-filter
//!    dedup ratio and the decode-table hit rate `1 - unique/total` the
//!    skew buys a hardware decode unit, both from one histogram pass
//!    over each record's stream.
//! 5. **Arch e2e** — every built-in graph-IR architecture
//!    (`reactnet`/`vggsmall`/`resnetlite`) through the graph executor,
//!    each asserted bit-exact against its scalar walk before timing.
//! 6. **Integrity** — `read_model_container` (verifies the v3 record,
//!    graph, and container digests) vs `read_model_container_unverified`
//!    on the same bytes, plus the raw `bkh128` digest throughput for
//!    attribution. The derived criterion is enforced: a verified load
//!    may cost at most 1.10x the unverified load, which is what makes
//!    mandatory-by-default verification tenable.
//! 7. **Parallel scaling** — the engine against *itself*: representative
//!    GEMM / conv / batched-forward workloads timed at every ladder
//!    thread count against the same engine at 1 thread. The persistent
//!    worker pool plus the `min_work` inline fallback must make
//!    multi-thread configurations no slower than single-thread on any
//!    host (1-core containers included), and the derived
//!    `parallel_scaling` criteria gate on exactly that: if any
//!    multi-thread ratio falls below its floor, perfsuite exits nonzero,
//!    failing CI.
//! 8. **Serving** — the `bnnkc serve` daemon core (in process, no
//!    socket): closed-loop client threads calling `infer_blocking`
//!    against the coalescing batch queue, versus the same server forced
//!    to batch 1. Served logits are asserted bit-exact against the
//!    offline oracle before timing. The derived criteria are enforced:
//!    coalescing must win at the top concurrency when the resolved
//!    batch capacity is ≥ 2 (on a host whose capacity clamps to 1 the
//!    two configurations run byte-identical code, so the measurement is
//!    reused and the gate is the parity floor, exactly like the
//!    thread-ladder reuse), and the p99/p50 latency tail must stay
//!    under its ceiling — coalescing may not starve single requests.
//!
//! Every engine configuration is asserted bit-exact against its baseline
//! before being timed. Thread-ladder entries whose *effective* thread
//! count (requested, clamped by the hardware parallelism — the same clamp
//! `ExecPolicy::effective_threads` applies) matches an already-measured
//! entry reuse its measurement: the two configurations run byte-identical
//! code, and re-timing identical code minutes apart would record ambient
//! scheduler drift as a phantom thread-scaling difference. On a host with
//! at least 8 cores every ladder entry is a genuine measurement.
//! Results are printed as a table and written to
//! `BENCH_perf.json` (schema `bnnkc-perfsuite/v8`; override the path with
//! `--out PATH`), then the file is re-read through [`bench::perfjson`] and
//! structurally validated, so CI's `--smoke` run proves the tracked
//! artifact stays parseable.
//!
//! `bnnkc-perfsuite/v8` drops the top-level `conv_selection` array and
//! the conv section's `engine_im2col` and `engine_stream` rows: every
//! conv runs one kernel (`<level>/tap-panel8`), so there is no lowering
//! to choose or record. `conv_stream_1t_speedup` is replaced by the
//! enforced `conv_engine_1t_speedup` (the one kernel against the seed's
//! direct conv on the same 28×28/c64/k64 geometry).
//!
//! `bnnkc-perfsuite/v8` drops the top-level `gemm_selection` array: the
//! binary GEMM has one kernel, so there is no per-shape-class choice to
//! record. GEMM entries are labeled `<level>/gemm-panel8` (the 8-filter
//! weight-panel kernel of `bitnn::ops::gemm`).
//!
//! `bnnkc-perfsuite/v6` adds the streaming direct-conv lowering to the
//! conv section (`engine_stream`, pinned via `ConvMode::Stream`), labels
//! the auto `engine` rows with the lowering the conv autotuner chose,
//! records every conv selection in a top-level `conv_selection` array
//! (geometry → stream/im2col, autotuned or forced), and adds two
//! enforced criteria: `conv_stream_1t_speedup` (streaming ≥ 1.0x im2col
//! on the gated 28×28/c64/k64 shape) and `e2e_1t_speedup` (the 1-thread
//! batch-32 floor the packed binary-domain edges and the stacked
//! weight-stationary batch schedule raised).
//!
//! `bnnkc-perfsuite/v5` adds the `serving` section (the `thr` column
//! there counts closed-loop client connections, not engine threads), its
//! `serving` stats object (`batch_capacity`, `concurrency`, `p50_ns`,
//! `p99_ns`), and the two enforced serving criteria.
//!
//! `bnnkc-perfsuite/v4` added the `dedup` object on `compressed_e2e`
//! (`ratio`, `table_hit_rate`) and raised the enforced
//! `compressed_stream_1t_speedup` floor to 1.15.
//!
//! Since `bnnkc-perfsuite/v3` every measurement records *which* backend
//! and kernel variant produced it: each entry carries a `backend` field
//! (`cpu` for the engine paths; the baselines are the frozen `scalar`
//! reference) and a `kernel` field naming the dispatched code path —
//! SIMD level plus the GEMM kernel (`avx512/gemm-panel8`), the
//! streaming conv (`avx2/conv-stream`), or the fused graph walk
//! (`avx512/fused-graph`). The document also records the effective SIMD
//! level (v3–v6 also recorded an autotuned per-shape-class GEMM
//! blocking), so a perf delta between two committed runs can be
//! attributed to a dispatch change instead of guessed at.
//!
//! Flags: `--smoke` (tiny shapes, CI-fast), `--out PATH`, `--seed N`,
//! `--threads N|auto` (cap the thread ladder at N — or at the hardware
//! parallelism with `auto`; the cap itself is always measured, and 0 is
//! rejected).

use bench::{arg_flag, arg_u64, perfjson, TablePrinter};
use bitnn::engine::Engine;
use bitnn::exec::ExecPolicy;
use bitnn::graph::arch::{attach_weights, build_model, Arch};
use bitnn::graph::arch::{build_spec, sample_conv3_kernels};
use bitnn::infer::synthetic_batch;
use bitnn::model::ReActNetConfig;
use bitnn::ops::conv::{conv2d_binary, Conv2dParams};
use bitnn::ops::gemm::{
    conv_kernel_name, gemm_binary, gemm_binary_naive, gemm_kernel_name, PackedMatrix,
};
use bitnn::pack::{PackedActivations, PackedKernel};
use bitnn::simd;
use bitnn::tensor::{BitTensor, Tensor};
use bnnkc_serve::{InferSlot, ServeConfig, Server};
use kc_core::codec::KernelCodec;
use kc_core::container::{
    read_model_container, read_model_container_unverified, write_model_container_v3, Container,
};
use kc_core::digest::Digest;
use std::hint::black_box;
use std::time::Instant;

/// The default thread ladder (`--threads` caps it and appends the cap).
const DEFAULT_LADDER: [usize; 4] = [1, 2, 4, 8];

/// Floor for the parallel-scaling criteria: a multi-thread engine entry
/// may not be slower than 1/FLOOR of the 1-thread entry. The slack over
/// 1.0 absorbs timer noise on identical code paths (the 1-core inline
/// fallback), not real regressions.
const SCALING_FLOOR: f64 = 0.9;

/// Floor for the enforced integrity criterion: a digest-verified v3 load
/// may cost at most 1.10x the unverified load of the same bytes, i.e.
/// `unverified_ns / verified_ns` must stay at or above `1/1.10`. This is
/// the budget that keeps verification on by default.
const INTEGRITY_FLOOR: f64 = 1.0 / 1.10;

/// Floor for the enforced 1-thread end-to-end criterion: the batch-32
/// `forward_batch` speedup over the scalar walk at one thread. Raised
/// past the pre-v6 5.861x figure by the packed binary-domain edges (sign
/// writes lane words directly, no flat bit tensor and no per-conv
/// re-pack) and the blocked weight-stationary batch schedule (one plan
/// walk per cache-sized image block instead of one per image). Measured
/// 6.19x at the bump; the floor leaves ~5% headroom for host frequency
/// drift between full runs.
const E2E_1T_FLOOR: f64 = 5.9;

/// Floor for the enforced 1-thread conv criterion: the seed's direct
/// conv over the one conv kernel on the 28×28/c64/k64 geometry. It is
/// the speedup the im2col lowering (blit, then the panel GEMM) reached
/// over the same baseline before the tap-addressed kernel replaced it:
/// the median of three full runs on a 2-vCPU AVX-512 host.
const CONV_1T_FLOOR: f64 = 32.1;

/// Ceiling for the enforced serving tail criterion: at the top client
/// concurrency, coalescing may stretch p99 latency to at most this
/// multiple of p50. Closed-loop queueing on a saturated host already
/// costs every request one batch of head-of-line wait, so the ceiling
/// bounds *starvation* (a request stranded across many flushes), not
/// ordinary queueing.
const TAIL_CEILING: f64 = 8.0;

/// Smoke-mode serving tail ceiling: smoke forwards are microseconds, so
/// a single scheduler preemption is many multiples of p50. The gate
/// still catches a stranded request (hundreds of multiples) without
/// tracking timer noise.
const TAIL_CEILING_SMOKE: f64 = 40.0;

/// One timed configuration. `backend`/`kernel` record which execution
/// backend and which dispatched kernel variant produced the number —
/// the v3 schema fields that let a perf delta between two committed
/// runs be attributed to a dispatch change.
struct Entry {
    name: &'static str,
    threads: usize,
    ns: f64,
    backend: &'static str,
    kernel: String,
}

/// Kernel label for whole-model forwards through the graph executor's
/// fused plan (mixed conv/GEMM/fusion kernels under one SIMD level).
fn fused_graph_kernel() -> String {
    format!("{}/fused-graph", simd::level())
}

/// Sequence-skew statistics of a deployed container (schema v4): the
/// cross-filter dedup ratio of its records and the fraction of all
/// sequences a hardware decode unit would serve from its uncompressed
/// table (`1 - unique/total`).
struct DedupStats {
    ratio: f64,
    table_hit_rate: f64,
}

/// Serving-tier statistics (schema v5): the server's resolved coalescing
/// batch capacity and the per-request latency distribution tail at the
/// top client concurrency, which the enforced tail criterion gates on.
struct ServingStats {
    capacity: usize,
    concurrency: usize,
    p50_ns: f64,
    p99_ns: f64,
}

/// One benchmark tier.
struct Section {
    name: &'static str,
    config: String,
    baseline_name: &'static str,
    baseline_ns: f64,
    entries: Vec<Entry>,
    /// Dedup statistics, recorded by `compressed_e2e` only.
    dedup: Option<DedupStats>,
    /// Serving statistics, recorded by `serving` only.
    serving: Option<ServingStats>,
}

impl Section {
    fn entry_ns(&self, name: &str, threads: usize) -> f64 {
        self.entries
            .iter()
            .find(|e| e.name == name && e.threads == threads)
            .map(|e| e.ns)
            .unwrap_or(f64::NAN)
    }

    /// Worst multi-thread ratio `ns(name, 1) / ns(name, N)` over the
    /// ladder (`1.0` when the ladder has no multi-thread entry).
    fn scaling_floor_of(&self, name: &str) -> f64 {
        let t1 = self.entry_ns(name, 1);
        self.entries
            .iter()
            .filter(|e| e.name == name && e.threads > 1)
            .map(|e| t1 / e.ns)
            .fold(1.0f64, f64::min)
    }
}

/// One pass/fail criterion derived from the sections.
struct Criterion {
    name: &'static str,
    target: f64,
    measured: f64,
    /// Criteria that hard-fail the run when `measured < target` (the
    /// parallel-scaling gates).
    enforced: bool,
}

/// Build a ladder entry, reusing an earlier measurement whose *effective*
/// thread count — the requested count clamped by the hardware parallelism,
/// exactly as [`ExecPolicy::effective_threads`] clamps it — is the same.
/// Two such configurations run byte-identical code (the inline fallback),
/// so re-timing the second would only record scheduler drift as a phantom
/// difference between them. On a runner with ≥ 8 cores nothing is ever
/// reused: every ladder entry is a genuine measurement.
fn entry_reusing(
    entries: &[Entry],
    name: &'static str,
    threads: usize,
    kernel: String,
    measure: impl FnOnce() -> f64,
) -> Entry {
    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    let ns = entries
        .iter()
        .find(|e| e.name == name && e.threads.min(hw) == threads.min(hw))
        .map(|e| e.ns)
        .unwrap_or_else(measure);
    Entry {
        name,
        threads,
        ns,
        backend: "cpu",
        kernel,
    }
}

/// Best-of-three mean wall time per iteration, with one warmup call.
fn time_ns<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

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

fn random_bools(n: usize, seed: u64) -> Vec<bool> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 63 == 1
        })
        .collect()
}

/// An engine with `threads` workers.
fn engine(threads: usize) -> Engine {
    Engine::with_threads(threads)
}

fn bench_gemm(smoke: bool, seed: u64, ladder: &[usize]) -> Section {
    let (m, n, k, iters) = if smoke {
        (8usize, 6usize, 96usize, 3usize)
    } else {
        (96, 64, 1024, 30)
    };
    let a = PackedMatrix::from_bools(m, k, &random_bools(m * k, seed)).unwrap();
    let b = PackedMatrix::from_bools(n, k, &random_bools(n * k, seed ^ 0xBEEF)).unwrap();

    let expect = gemm_binary_naive(&a, &b).unwrap();
    assert_eq!(gemm_binary(&a, &b).unwrap(), expect, "tiled GEMM mismatch");

    let baseline_ns = time_ns(iters, || {
        black_box(gemm_binary_naive(black_box(&a), black_box(&b)).unwrap());
    });
    let mut entries = vec![Entry {
        name: "tiled",
        threads: 1,
        ns: time_ns(iters, || {
            black_box(gemm_binary(black_box(&a), black_box(&b)).unwrap());
        }),
        backend: "cpu",
        kernel: gemm_kernel_name(),
    }];
    for &t in ladder {
        let eng = engine(t);
        assert_eq!(eng.gemm(&a, &b).unwrap(), expect, "engine GEMM mismatch");
        let mut out = Vec::new();
        let entry = entry_reusing(&entries, "engine", t, gemm_kernel_name(), || {
            time_ns(iters, || {
                eng.gemm_into(black_box(&a), black_box(&b), &mut out)
                    .unwrap();
                black_box(&out);
            })
        });
        entries.push(entry);
    }
    Section {
        name: "gemm_binary",
        config: format!("m={m} n={n} k={k}"),
        baseline_name: "naive_scalar",
        baseline_ns,
        entries,
        dedup: None,
        serving: None,
    }
}

fn bench_conv(smoke: bool, seed: u64, ladder: &[usize]) -> Section {
    let (c, hw, kf, iters) = if smoke {
        (8usize, 6usize, 8usize, 3usize)
    } else {
        (64, 28, 64, 20)
    };
    let params = Conv2dParams { stride: 1, pad: 1 };
    let acts = PackedActivations::pack(&random_bits(&[1, c, hw, hw], seed)).unwrap();
    let kernel = PackedKernel::pack(&random_bits(&[kf, c, 3, 3], seed ^ 0xF00D)).unwrap();

    let expect = conv2d_binary(&acts, &kernel, params).unwrap();
    let baseline_ns = time_ns(iters, || {
        black_box(conv2d_binary(black_box(&acts), black_box(&kernel), params).unwrap());
    });

    let mut entries: Vec<Entry> = Vec::new();
    let measure = |name: &'static str, eng: &Engine| {
        let mut scratch = bitnn::engine::ConvScratch::default();
        let got = eng.conv2d(&acts, &kernel, params, &mut scratch).unwrap();
        assert_eq!(got.data(), expect.data(), "engine conv mismatch ({name})");
        time_ns(iters, || {
            black_box(
                eng.conv2d(black_box(&acts), black_box(&kernel), params, &mut scratch)
                    .unwrap(),
            );
        })
    };
    for &t in ladder {
        let entry = entry_reusing(&entries, "engine", t, conv_kernel_name(), || {
            measure("engine", &engine(t))
        });
        entries.push(entry);
    }
    Section {
        name: "conv2d_3x3",
        config: format!("c={c} h=w={hw} kf={kf} stride=1 pad=1"),
        baseline_name: "direct_scalar",
        baseline_ns,
        entries,
        dedup: None,
        serving: None,
    }
}

fn bench_e2e(smoke: bool, seed: u64, ladder: &[usize]) -> Section {
    // Batch 32 is the serving shape: large enough that batch-level
    // parallelism amortizes the way it would under sustained traffic.
    let (batch, iters) = if smoke { (2usize, 1usize) } else { (32, 4) };
    let model = ReActNetConfig::tiny().model(seed).expect("valid config");
    let inputs = synthetic_batch(batch, 3, 32, seed ^ 0xACE);

    let expect: Vec<_> = inputs
        .iter()
        .map(|x| model.forward_scalar(x).expect("scalar walk"))
        .collect();
    let baseline_ns = time_ns(iters, || {
        for x in &inputs {
            black_box(model.forward_scalar(black_box(x)).unwrap());
        }
    });

    let mut entries: Vec<Entry> = Vec::new();
    for &t in ladder {
        let eng = engine(t);
        let got = model.forward_batch(&inputs, &eng).expect("batch forward");
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g.data(), e.data(), "engine forward mismatch at {t} threads");
        }
        let entry = entry_reusing(&entries, "engine_batch", t, fused_graph_kernel(), || {
            time_ns(iters, || {
                black_box(model.forward_batch(black_box(&inputs), &eng).unwrap());
            })
        });
        entries.push(entry);
    }
    Section {
        name: "reactnet_tiny_forward",
        config: format!("batch={batch} image=32x32"),
        baseline_name: "forward_scalar",
        baseline_ns,
        entries,
        dedup: None,
        serving: None,
    }
}

fn bench_compressed(smoke: bool, seed: u64, ladder: &[usize]) -> Section {
    // Wide geometry on full runs: at scale 1.0 the late ReActNet blocks
    // are 512-channel 3×3 convs, so the records dominate the container
    // (megabytes, not kilobytes), decode cost is real, and the sequence
    // table is at its paper-like skew.
    let (scale, image, batch, iters) = if smoke {
        (0.0625f64, 16usize, 1usize, 1usize)
    } else {
        (1.0, 32, 4, 3)
    };
    let codec = KernelCodec::paper_clustered();
    let spec = build_spec(Arch::ReActNet, scale, image).expect("build spec");
    let compressed: Vec<_> = sample_conv3_kernels(&spec, seed ^ 0xC0DE)
        .expect("sample kernels")
        .iter()
        .map(|k| codec.compress(k).expect("compress"))
        .collect();
    let bytes = write_model_container_v3(&spec, &compressed).expect("write v3");
    let containers = read_model_container(&bytes)
        .expect("parse model container")
        .kernels;
    let inputs = synthetic_batch(batch, 3, image, seed ^ 0xFEED);
    let template = build_model(Arch::ReActNet, scale, image, seed ^ 0xA11C).expect("build model");

    // Sequence-skew statistics of the deployed records: a hardware
    // decode unit serves `1 - unique/total` of all sequences from its
    // uncompressed table instead of re-decoding them.
    let hists: Vec<_> = containers
        .iter()
        .map(|c| c.decode_histogram().expect("histogram decode"))
        .collect();
    let total: u64 = hists.iter().map(|h| h.freq().total()).sum();
    let unique: u64 = hists.iter().map(|h| h.freq().distinct() as u64).sum();
    let dedup = DedupStats {
        ratio: total as f64 / unique as f64,
        table_hit_rate: 1.0 - unique as f64 / total as f64,
    };

    // Deploy closures: the baseline decompresses each kernel to a flat
    // tensor and re-packs it; the streaming path goes stream → packed
    // lane words → engine with no intermediate tensor.
    let deploy_offline = |containers: &[Container]| {
        let mut m = template.clone();
        for (i, c) in containers.iter().enumerate() {
            m.set_conv3_weights(i, c.decode_kernel().expect("offline decode"))
                .expect("container matches spec");
        }
        m
    };
    let deploy_streamed = |containers: &[Container]| {
        let mut m = template.clone();
        for (i, c) in containers.iter().enumerate() {
            m.set_conv3_packed(i, c.decode_packed().expect("stream decode"))
                .expect("container matches spec");
        }
        m
    };

    let eng1 = engine(1);
    let expect = deploy_offline(&containers)
        .forward_batch(&inputs, &eng1)
        .expect("offline forward");
    let got = deploy_streamed(&containers)
        .forward_batch(&inputs, &eng1)
        .expect("streamed forward");
    for (g, e) in got.iter().zip(&expect) {
        assert_eq!(g.data(), e.data(), "streamed deployment logits mismatch");
    }

    let baseline_ns = time_ns(iters, || {
        let m = deploy_offline(&containers);
        black_box(m.forward_batch(black_box(&inputs), &eng1).unwrap());
    });
    // Deploy-only pair: these entries are each other's like-for-like
    // comparison (their speedup_vs_baseline fields are against the
    // deploy+forward baseline, so compare them to each other instead).
    let mut entries = vec![
        Entry {
            name: "offline_deploy",
            threads: 1,
            ns: time_ns(iters, || {
                black_box(deploy_offline(black_box(&containers)));
            }),
            backend: "cpu",
            kernel: "container-decode".into(),
        },
        Entry {
            name: "stream_deploy",
            threads: 1,
            ns: time_ns(iters, || {
                black_box(deploy_streamed(black_box(&containers)));
            }),
            backend: "cpu",
            kernel: "container-stream-decode".into(),
        },
    ];
    for &t in ladder {
        let eng_t = engine(t);
        let entry = entry_reusing(
            &entries,
            "stream_deploy_forward",
            t,
            fused_graph_kernel(),
            || {
                time_ns(iters, || {
                    let m = deploy_streamed(black_box(&containers));
                    black_box(m.forward_batch(black_box(&inputs), &eng_t).unwrap());
                })
            },
        );
        entries.push(entry);
    }
    Section {
        name: "compressed_e2e",
        config: format!(
            "reactnet scale={scale} image={image} batch={batch}, {} kernels, {} B v3",
            containers.len(),
            bytes.len()
        ),
        baseline_name: "offline_decode_forward",
        baseline_ns,
        entries,
        dedup: Some(dedup),
        serving: None,
    }
}

/// Per-architecture graph-executor end-to-end: each built-in family's
/// batch forward at 1/4 threads, against the summed scalar-walk baseline.
fn bench_arch_e2e(smoke: bool, seed: u64) -> Section {
    let (image, batch, iters) = if smoke {
        (16usize, 2usize, 1usize)
    } else {
        (32, 8, 3)
    };
    let scale = 0.0625;
    let mut baseline_ns = 0.0;
    let mut entries = Vec::new();
    for arch in Arch::ALL {
        let model = build_model(arch, scale, image, seed ^ 0xA2C4).expect("build model");
        let inputs = synthetic_batch(batch, 3, image, seed ^ 0x11E);
        let expect: Vec<_> = inputs
            .iter()
            .map(|x| model.forward_scalar(x).expect("scalar walk"))
            .collect();
        baseline_ns += time_ns(iters, || {
            for x in &inputs {
                black_box(model.forward_scalar(black_box(x)).unwrap());
            }
        });
        for t in [1usize, 4] {
            let eng = engine(t);
            let got = model.forward_batch(&inputs, &eng).expect("batch forward");
            for (g, e) in got.iter().zip(&expect) {
                assert_eq!(
                    g.data(),
                    e.data(),
                    "{arch} executor mismatch at {t} threads"
                );
            }
            let entry = entry_reusing(&entries, arch.name(), t, fused_graph_kernel(), || {
                time_ns(iters, || {
                    black_box(model.forward_batch(black_box(&inputs), &eng).unwrap());
                })
            });
            entries.push(entry);
        }
    }
    Section {
        name: "arch_e2e",
        config: format!("scale={scale} image={image}x{image} batch={batch}"),
        baseline_name: "forward_scalar_all_archs",
        baseline_ns,
        entries,
        dedup: None,
        serving: None,
    }
}

/// Verified vs unverified v3 container loads on the same byte image,
/// plus the raw `bkh128` throughput over those bytes so a regression can
/// be attributed to the hash itself vs the read path around it. The
/// derived `integrity_verified_load` criterion is enforced on full runs:
/// verification may cost at most 1.10x the unverified load.
fn bench_integrity(smoke: bool, seed: u64) -> Section {
    let (scale, image, iters) = if smoke {
        (0.0625, 16usize, 50usize)
    } else {
        (0.25, 32, 200)
    };
    let codec = KernelCodec::paper_clustered();
    let spec = build_spec(Arch::ReActNet, scale, image).expect("build spec");
    let compressed: Vec<_> = sample_conv3_kernels(&spec, seed ^ 0xD16E)
        .expect("sample kernels")
        .iter()
        .map(|k| codec.compress(k).expect("compress"))
        .collect();
    let bytes = write_model_container_v3(&spec, &compressed).expect("write v3");

    // The two paths must agree on the model before either is timed.
    let verified = read_model_container(&bytes).expect("verified load");
    let unverified = read_model_container_unverified(&bytes).expect("unverified load");
    assert_eq!(verified.spec, unverified.spec, "load paths disagree");
    assert_eq!(
        verified.record_digests(),
        unverified.record_digests(),
        "load paths disagree on records"
    );

    let baseline_ns = time_ns(iters, || {
        black_box(read_model_container_unverified(black_box(&bytes)).unwrap());
    });
    let entries = vec![
        Entry {
            name: "verified_read",
            threads: 1,
            ns: time_ns(iters, || {
                black_box(read_model_container(black_box(&bytes)).unwrap());
            }),
            backend: "cpu",
            kernel: "container-read/bkh128".into(),
        },
        Entry {
            name: "digest_only",
            threads: 1,
            ns: time_ns(iters, || {
                black_box(Digest::of(black_box(&bytes)));
            }),
            backend: "cpu",
            kernel: "bkh128".into(),
        },
    ];
    Section {
        name: "integrity",
        config: format!("reactnet scale={scale} image={image}, {} B v3", bytes.len()),
        baseline_name: "unverified_read",
        baseline_ns,
        entries,
        dedup: None,
        serving: None,
    }
}

/// Engine-vs-itself thread scaling on workloads big enough to cross the
/// `min_work` threshold: the persistent worker pool (or, on hosts with
/// fewer cores than requested threads, the inline fallback) must keep
/// every multi-thread configuration at or above [`SCALING_FLOOR`] of the
/// 1-thread wall time. These are the entries the enforced
/// `parallel_scaling` criteria are derived from.
fn bench_parallel_scaling(smoke: bool, seed: u64, ladder: &[usize]) -> Section {
    // Iteration counts are higher than the other sections': the criteria
    // derived here compare near-identical times, so the readings must be
    // stable to a couple percent.
    let (gm, gn, gk, giters) = if smoke {
        (48usize, 32usize, 1024usize, 40usize)
    } else {
        (128, 96, 2048, 12)
    };
    let (cc, chw, ckf, citers) = if smoke {
        (32usize, 14usize, 32usize, 30usize)
    } else {
        (96, 28, 96, 8)
    };
    let (batch, eiters) = if smoke { (4usize, 5usize) } else { (16, 4) };

    let a = PackedMatrix::from_bools(gm, gk, &random_bools(gm * gk, seed ^ 0x5CA1)).unwrap();
    let b = PackedMatrix::from_bools(gn, gk, &random_bools(gn * gk, seed ^ 0x5CA2)).unwrap();
    let gemm_expect = gemm_binary_naive(&a, &b).unwrap();

    let params = Conv2dParams { stride: 1, pad: 1 };
    let acts = PackedActivations::pack(&random_bits(&[1, cc, chw, chw], seed ^ 0x5CA3)).unwrap();
    let kernel = PackedKernel::pack(&random_bits(&[ckf, cc, 3, 3], seed ^ 0x5CA4)).unwrap();
    let conv_expect = conv2d_binary(&acts, &kernel, params).unwrap();

    let model = ReActNetConfig::tiny()
        .model(seed ^ 0x5CA5)
        .expect("valid config");
    let inputs = synthetic_batch(batch, 3, 32, seed ^ 0x5CA6);
    let e2e_expect: Vec<_> = inputs
        .iter()
        .map(|x| model.forward_scalar(x).expect("scalar walk"))
        .collect();

    let mut entries: Vec<Entry> = Vec::new();
    for &t in ladder {
        let eng = engine(t);

        assert_eq!(eng.gemm(&a, &b).unwrap(), gemm_expect, "gemm @ {t}t");
        let mut out = Vec::new();
        let entry = entry_reusing(&entries, "gemm", t, gemm_kernel_name(), || {
            time_ns(giters, || {
                eng.gemm_into(black_box(&a), black_box(&b), &mut out)
                    .unwrap();
                black_box(&out);
            })
        });
        entries.push(entry);

        let mut scratch = bitnn::engine::ConvScratch::default();
        let got = eng.conv2d(&acts, &kernel, params, &mut scratch).unwrap();
        assert_eq!(got.data(), conv_expect.data(), "conv @ {t}t");
        let entry = entry_reusing(&entries, "conv3x3", t, conv_kernel_name(), || {
            time_ns(citers, || {
                black_box(
                    eng.conv2d(black_box(&acts), black_box(&kernel), params, &mut scratch)
                        .unwrap(),
                );
            })
        });
        entries.push(entry);

        let got = model.forward_batch(&inputs, &eng).expect("batch forward");
        for (g, e) in got.iter().zip(&e2e_expect) {
            assert_eq!(g.data(), e.data(), "e2e @ {t}t");
        }
        let entry = entry_reusing(&entries, "e2e", t, fused_graph_kernel(), || {
            time_ns(eiters, || {
                black_box(model.forward_batch(black_box(&inputs), &eng).unwrap());
            })
        });
        entries.push(entry);
    }
    let baseline_ns = entries
        .iter()
        .filter(|e| e.threads == 1)
        .map(|e| e.ns)
        .sum();
    Section {
        name: "parallel_scaling",
        config: format!(
            "gemm {gm}x{gn} k={gk}; conv c={cc} hw={chw} kf={ckf}; e2e tiny batch={batch}"
        ),
        baseline_name: "engine_1t_total",
        baseline_ns,
        entries,
        dedup: None,
        serving: None,
    }
}

/// One closed-loop serving measurement: throughput as wall-clock
/// ns/request over every request issued, plus the merged per-request
/// latency percentiles the tail criterion gates on.
#[derive(Clone, Copy)]
struct ServeRun {
    ns_per_req: f64,
    p50_ns: f64,
    p99_ns: f64,
}

/// Drive `server` with `conns` closed-loop client threads, each issuing
/// `per_conn` blocking requests (after a one-request-per-connection
/// warmup that sizes the request cells, queue storage, and worker batch
/// scratch). Inputs are striped across connections so concurrent
/// batches mix images, the way real traffic would.
fn run_serve_load(server: &Server, conns: usize, per_conn: usize, inputs: &[Tensor]) -> ServeRun {
    std::thread::scope(|s| {
        for c in 0..conns {
            let x = &inputs[c % inputs.len()];
            s.spawn(move || {
                let mut slot = InferSlot::new();
                let mut out = Tensor::default();
                server
                    .infer_blocking("m", &mut slot, x, &mut out)
                    .expect("warmup infer");
            });
        }
    });
    let t0 = Instant::now();
    let mut lats: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut slot = InferSlot::new();
                    let mut out = Tensor::default();
                    let mut lats = Vec::with_capacity(per_conn);
                    for i in 0..per_conn {
                        let x = &inputs[(c + i * conns) % inputs.len()];
                        let t = Instant::now();
                        server
                            .infer_blocking("m", &mut slot, x, &mut out)
                            .expect("timed infer");
                        lats.push(t.elapsed().as_nanos() as u64);
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed().as_nanos() as f64;
    lats.sort_unstable();
    let pct = |p: f64| lats[((lats.len() - 1) as f64 * p) as usize] as f64;
    ServeRun {
        ns_per_req: wall / (conns * per_conn) as f64,
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
    }
}

/// The serving tier: the daemon core under closed-loop concurrent load —
/// the coalescing batch queue versus the same server forced to batch 1,
/// both asserted bit-exact against the offline decode oracle before any
/// timing. The `threads` column of these entries counts client
/// connections, not engine threads (the engine runs the default policy
/// in both configurations). When the server's resolved batch capacity is
/// 1 — a 1-core host, where `preferred_batch` clamps to the hardware —
/// the coalesced top-concurrency configuration runs byte-identical code
/// to the forced-batch-1 baseline, so its measurement is reused exactly
/// like the thread-ladder entries reuse theirs.
fn bench_serving(smoke: bool, seed: u64) -> Section {
    let (image, per_conn) = if smoke { (16usize, 8usize) } else { (32, 48) };
    const TOP_CONCURRENCY: usize = 16;
    let scale = 0.0625;
    let codec = KernelCodec::paper_clustered();
    let spec = build_spec(Arch::VggSmall, scale, image).expect("build spec");
    let compressed: Vec<_> = sample_conv3_kernels(&spec, seed ^ 0x5E12)
        .expect("sample kernels")
        .iter()
        .map(|k| codec.compress(k).expect("compress"))
        .collect();
    let bytes = write_model_container_v3(&spec, &compressed).expect("write v3");
    let inputs = synthetic_batch(16, 3, image, seed ^ 0x10AD);

    // The independent oracle: offline decompress-and-pack deployment,
    // forwarded on a single-threaded engine (the `bnnkc run --offline`
    // reference path).
    let expect: Vec<Vec<u32>> = {
        let parsed = read_model_container(&bytes).expect("parse container");
        let mut graph = attach_weights(&spec, seed).expect("attach weights");
        for (i, c) in parsed.kernels.iter().enumerate() {
            graph
                .set_conv3_weights(i, c.decode_kernel().expect("decode kernel"))
                .expect("container matches spec");
        }
        graph
            .forward_batch(&inputs, &Engine::single_threaded())
            .expect("oracle forward")
            .iter()
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    };

    // Both configurations must serve bit-exact logits before timing.
    let mk_server = |max_batch: usize| {
        let server = Server::new(ServeConfig {
            policy: ExecPolicy::default(),
            max_batch,
            seed,
            image,
            ..Default::default()
        });
        server.register_bytes("m", &bytes).expect("register model");
        let mut slot = InferSlot::new();
        let mut out = Tensor::default();
        for (x, want) in inputs.iter().zip(&expect) {
            server
                .infer_blocking("m", &mut slot, x, &mut out)
                .expect("serve infer");
            let got: Vec<u32> = out.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(&got, want, "served logits diverge from the oracle");
        }
        server
    };
    let coalesced = mk_server(0); // auto: the per-plan preferred batch
    let batch1 = mk_server(1);
    let capacity = coalesced.stats_report().models[0].max_batch as usize;
    let serve_kernel = || format!("{}/fused-graph+coalesce", simd::level());

    let base = run_serve_load(&batch1, TOP_CONCURRENCY, per_conn, &inputs);
    let mut entries = Vec::new();
    for conns in [1usize, 4] {
        let run = run_serve_load(&coalesced, conns, per_conn, &inputs);
        entries.push(Entry {
            name: "serve_coalesced",
            threads: conns,
            ns: run.ns_per_req,
            backend: "cpu",
            kernel: serve_kernel(),
        });
    }
    let top = if capacity == 1 {
        // Byte-identical to the baseline at capacity 1: reuse it rather
        // than recording scheduler drift as a phantom coalescing delta.
        base
    } else {
        run_serve_load(&coalesced, TOP_CONCURRENCY, per_conn, &inputs)
    };
    entries.push(Entry {
        name: "serve_coalesced",
        threads: TOP_CONCURRENCY,
        ns: top.ns_per_req,
        backend: "cpu",
        kernel: serve_kernel(),
    });
    coalesced.shutdown();
    batch1.shutdown();

    Section {
        name: "serving",
        config: format!(
            "vggsmall scale={scale} image={image}, {per_conn} reqs/conn, \
             batch capacity {capacity}, thr = client connections"
        ),
        baseline_name: "serve_batch1_c16",
        baseline_ns: base.ns_per_req,
        entries,
        dedup: None,
        serving: Some(ServingStats {
            capacity,
            concurrency: TOP_CONCURRENCY,
            p50_ns: top.p50_ns,
            p99_ns: top.p99_ns,
        }),
    }
}

/// Combined 4-thread arch_e2e wall time: the sum of the three real
/// per-architecture measurements (the criteria denominator).
fn arch_e2e_total_4t(archs: &Section) -> f64 {
    Arch::ALL.iter().map(|a| archs.entry_ns(a.name(), 4)).sum()
}

/// Derive every tracked criterion from the measured sections. The
/// parallel-scaling ones are enforced: perfsuite exits nonzero when any
/// of them misses its floor. The GEMM floors are enforced on full runs
/// only — smoke shapes are too small to reflect the tuned kernels, so
/// gating them there would track noise, not dispatch quality.
fn criteria(sections: &[Section], smoke: bool) -> Vec<Criterion> {
    let gemm = &sections[0];
    let conv = &sections[1];
    let e2e = &sections[2];
    let comp = &sections[3];
    let archs = &sections[4];
    let integrity = &sections[5];
    let scaling = &sections[6];
    let serving = &sections[7];
    let sv = serving
        .serving
        .as_ref()
        .expect("serving section records its stats");
    let c = |name, target, measured| Criterion {
        name,
        target,
        measured,
        enforced: false,
    };
    let gate = |name, measured| Criterion {
        name,
        target: SCALING_FLOOR,
        measured,
        enforced: true,
    };
    let e2e_top = e2e.entries.iter().map(|e| e.threads).max().unwrap_or(1);
    vec![
        // GEMM floors, gated on full runs: raised from the pre-backend
        // 1.5 once the per-shape SIMD dispatch + autotuner landed. The
        // engine floor sits above the 2.33x the old single-variant
        // kernel measured, so a dispatch regression to it fails the run.
        Criterion {
            name: "gemm_tiled_1t_speedup",
            target: 1.8,
            measured: gemm.baseline_ns / gemm.entry_ns("tiled", 1),
            enforced: !smoke,
        },
        Criterion {
            name: "gemm_engine_1t_speedup",
            target: 2.4,
            measured: gemm.baseline_ns / gemm.entry_ns("engine", 1),
            enforced: !smoke,
        },
        // Enforced: the one conv kernel against the seed's direct conv
        // on the gated 28×28/c64→k64 geometry, full runs only (smoke
        // shapes are dispatch-bound).
        Criterion {
            name: "conv_engine_1t_speedup",
            target: CONV_1T_FLOOR,
            measured: conv.baseline_ns / conv.entry_ns("engine", 1),
            enforced: !smoke,
        },
        // Best-ladder engine batch forward vs the scalar walk.
        c(
            "e2e_max_threads_speedup",
            4.0,
            e2e.baseline_ns / e2e.entry_ns("engine_batch", e2e_top),
        ),
        // Enforced: the single-thread batch forward (per-sample
        // quantization + packed binary edges + the weight-stationary
        // stacked schedule) must hold the floor the streaming PR
        // raised it past. Full runs only: smoke models are too small
        // for the packed-edge savings to dominate dispatch overhead.
        Criterion {
            name: "e2e_1t_speedup",
            target: E2E_1T_FLOOR,
            measured: e2e.baseline_ns / e2e.entry_ns("engine_batch", 1),
            enforced: !smoke,
        },
        // Enforced: compression must pay for itself end-to-end. On the
        // wide container the streamed deploy+forward beats the offline
        // decompress-then-pack deployment by well over the 1.15 floor;
        // smoke containers are kilobytes, too small to gate on.
        Criterion {
            name: "compressed_stream_1t_speedup",
            target: 1.15,
            measured: comp.baseline_ns / comp.entry_ns("stream_deploy_forward", 1),
            enforced: !smoke,
        },
        // Like-for-like deployment: stream decode vs offline
        // decompress+pack.
        c(
            "stream_deploy_vs_offline_deploy",
            1.5,
            comp.entry_ns("offline_deploy", 1) / comp.entry_ns("stream_deploy", 1),
        ),
        // The graph executor must beat the scalar walk across every
        // built-in architecture combined.
        c(
            "arch_e2e_4t_speedup",
            1.5,
            archs.baseline_ns / arch_e2e_total_4t(archs),
        ),
        // Enforced: digest verification on load must stay within its
        // 1.10x budget of the unverified read — the cost of making v3
        // integrity checks mandatory by default. Smoke containers are a
        // few KB, where fixed parse overhead hides the hash; only full
        // runs measure a container big enough to gate on.
        Criterion {
            name: "integrity_verified_load",
            target: INTEGRITY_FLOOR,
            measured: integrity.baseline_ns / integrity.entry_ns("verified_read", 1),
            enforced: !smoke,
        },
        // Enforced: N threads may never lose to 1 thread. The persistent
        // pool earns the wins on multi-core hosts; the min_work inline
        // fallback and the hardware clamp keep 1-core hosts at parity.
        gate("parallel_scaling_gemm", scaling.scaling_floor_of("gemm")),
        gate(
            "parallel_scaling_conv3x3",
            scaling.scaling_floor_of("conv3x3"),
        ),
        gate("parallel_scaling_e2e", scaling.scaling_floor_of("e2e")),
        // Enforced: batch coalescing must pay for itself under
        // concurrent load. The 1.5x floor applies when the server's
        // resolved batch capacity is ≥ 2 (smoke shapes are too small to
        // demand the full factor); on a host whose capacity clamps to 1
        // the coalesced and forced-batch-1 configurations run
        // byte-identical code and the measurement is reused, so the
        // gate is the parity floor, same as the parallel-scaling gates.
        Criterion {
            name: "serving_batch_throughput_gain",
            target: if sv.capacity >= 2 {
                if smoke {
                    1.2
                } else {
                    1.5
                }
            } else {
                SCALING_FLOOR
            },
            measured: serving.baseline_ns / serving.entry_ns("serve_coalesced", 16),
            enforced: true,
        },
        // Enforced: the latency tail at the top client concurrency.
        // Floor-style like the integrity budget: p50/p99 must stay at
        // or above 1/ceiling, i.e. coalescing may not strand a request
        // across many flush windows.
        Criterion {
            name: "serving_tail_ratio",
            target: 1.0
                / if smoke {
                    TAIL_CEILING_SMOKE
                } else {
                    TAIL_CEILING
                },
            measured: sv.p50_ns / sv.p99_ns,
            enforced: true,
        },
    ]
}

fn emit_json(sections: &[Section], crits: &[Criterion], mode: &str, out_path: &str) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"bnnkc-perfsuite/v8\",\n");
    s.push_str(&format!("  \"mode\": \"{}\",\n", perfjson::escape(mode)));
    s.push_str(&format!(
        "  \"threads_available\": {},\n",
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    // v3: the SIMD level every measurement below ran under.
    s.push_str(&format!(
        "  \"simd_level\": \"{}\",\n",
        perfjson::escape(simd::level().name())
    ));
    s.push_str("  \"sections\": [\n");
    for (i, sec) in sections.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!(
            "      \"name\": \"{}\",\n",
            perfjson::escape(sec.name)
        ));
        s.push_str(&format!(
            "      \"config\": \"{}\",\n",
            perfjson::escape(&sec.config)
        ));
        s.push_str(&format!(
            "      \"baseline\": {{\"name\": \"{}\", \"backend\": \"scalar\", \"ns_per_iter\": {:.1}}},\n",
            perfjson::escape(sec.baseline_name),
            sec.baseline_ns
        ));
        // v4: the compressed section records its container's sequence
        // skew alongside the timings it explains.
        if let Some(d) = &sec.dedup {
            s.push_str(&format!(
                "      \"dedup\": {{\"ratio\": {:.3}, \"table_hit_rate\": {:.3}}},\n",
                d.ratio, d.table_hit_rate
            ));
        }
        // v5: the serving section records its resolved batch capacity
        // and the latency tail the enforced criteria gate on.
        if let Some(sv) = &sec.serving {
            s.push_str(&format!(
                "      \"serving\": {{\"batch_capacity\": {}, \"concurrency\": {}, \"p50_ns\": {:.1}, \"p99_ns\": {:.1}}},\n",
                sv.capacity, sv.concurrency, sv.p50_ns, sv.p99_ns
            ));
        }
        s.push_str("      \"entries\": [\n");
        for (j, e) in sec.entries.iter().enumerate() {
            s.push_str(&format!(
                "        {{\"name\": \"{}\", \"backend\": \"{}\", \"kernel\": \"{}\", \"threads\": {}, \"ns_per_iter\": {:.1}, \"speedup_vs_baseline\": {:.3}}}{}\n",
                perfjson::escape(e.name),
                perfjson::escape(e.backend),
                perfjson::escape(&e.kernel),
                e.threads,
                e.ns,
                sec.baseline_ns / e.ns,
                if j + 1 == sec.entries.len() { "" } else { "," }
            ));
        }
        s.push_str("      ]\n");
        s.push_str(&format!(
            "    }}{}\n",
            if i + 1 == sections.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"criteria\": [\n");
    for (i, c) in crits.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"target\": {}, \"measured\": {:.3}}}{}\n",
            perfjson::escape(c.name),
            c.target,
            c.measured,
            if i + 1 == crits.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    std::fs::write(out_path, &s).expect("write BENCH_perf.json");
    s
}

/// Structural validation of the emitted document (CI's `--smoke` gate).
fn validate(doc: &perfjson::Value) -> Result<(), String> {
    if doc.get("schema").and_then(|v| v.as_str()) != Some("bnnkc-perfsuite/v8") {
        return Err("missing or wrong schema tag".into());
    }
    if doc
        .get("simd_level")
        .and_then(|v| v.as_str())
        .is_none_or(str::is_empty)
    {
        return Err("missing simd_level".into());
    }
    // v8: no conv lowering is chosen, so none is recorded.
    if doc.get("conv_selection").is_some() {
        return Err("conv_selection was dropped in v8".into());
    }
    let sections = doc
        .get("sections")
        .and_then(|v| v.as_arr())
        .ok_or("sections must be an array")?;
    if sections.len() != 8 {
        return Err(format!("expected 8 sections, found {}", sections.len()));
    }
    for sec in sections {
        let name = sec
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or("section without a name")?;
        // v4: the compressed section must carry its dedup statistics.
        if name == "compressed_e2e" {
            let d = sec
                .get("dedup")
                .ok_or("compressed_e2e: missing dedup stats (v4)")?;
            let ratio = d.get("ratio").and_then(|v| v.as_f64()).unwrap_or(-1.0);
            let hit = d
                .get("table_hit_rate")
                .and_then(|v| v.as_f64())
                .unwrap_or(-1.0);
            if !(ratio.is_finite() && ratio >= 1.0) {
                return Err(format!("compressed_e2e: bad dedup ratio {ratio}"));
            }
            if !(0.0..=1.0).contains(&hit) {
                return Err(format!("compressed_e2e: bad table_hit_rate {hit}"));
            }
        }
        // v5: the serving section must carry its stats, and the tail
        // must be ordered (0 < p50 <= p99) with a real batch capacity.
        if name == "serving" {
            let sv = sec
                .get("serving")
                .ok_or("serving: missing serving stats (v5)")?;
            let cap = sv
                .get("batch_capacity")
                .and_then(|v| v.as_f64())
                .unwrap_or(-1.0);
            if cap < 1.0 {
                return Err(format!("serving: bad batch_capacity {cap}"));
            }
            let p50 = sv.get("p50_ns").and_then(|v| v.as_f64()).unwrap_or(-1.0);
            let p99 = sv.get("p99_ns").and_then(|v| v.as_f64()).unwrap_or(-1.0);
            if !(p50.is_finite() && p50 > 0.0 && p99 >= p50) {
                return Err(format!("serving: bad latency tail p50={p50} p99={p99}"));
            }
        }
        let base = sec
            .get("baseline")
            .and_then(|b| b.get("ns_per_iter"))
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("section {name}: missing baseline ns"))?;
        if !(base.is_finite() && base > 0.0) {
            return Err(format!("section {name}: non-positive baseline ns"));
        }
        let entries = sec
            .get("entries")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| format!("section {name}: entries must be an array"))?;
        if entries.is_empty() {
            return Err(format!("section {name}: no entries"));
        }
        for e in entries {
            let ns = e
                .get("ns_per_iter")
                .and_then(|v| v.as_f64())
                .unwrap_or(-1.0);
            let sp = e
                .get("speedup_vs_baseline")
                .and_then(|v| v.as_f64())
                .unwrap_or(-1.0);
            if !(ns.is_finite() && ns > 0.0 && sp.is_finite() && sp > 0.0) {
                return Err(format!("section {name}: malformed entry"));
            }
            // v3: every measurement names its backend and kernel path.
            for field in ["backend", "kernel"] {
                if e.get(field)
                    .and_then(|v| v.as_str())
                    .is_none_or(str::is_empty)
                {
                    return Err(format!("section {name}: entry without a {field}"));
                }
            }
        }
    }
    let criteria = doc
        .get("criteria")
        .and_then(|v| v.as_arr())
        .ok_or("criteria must be an array")?;
    if criteria.len() != 14 {
        return Err(format!("expected 14 criteria, found {}", criteria.len()));
    }
    Ok(())
}

/// Resolve `--threads N|auto` into the measured thread ladder: the
/// default ladder capped at the requested count, which is itself always
/// included. Exits with an error on `--threads 0` or garbage (same
/// grammar and messages as `bnnkc run`, via the engine's shared parser).
fn thread_ladder(args: &[String]) -> Vec<usize> {
    let requested = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1));
    if requested.is_none() {
        return DEFAULT_LADDER.to_vec();
    }
    let cap = match bitnn::exec::parse_thread_count(requested.map(String::as_str)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut ladder: Vec<usize> = DEFAULT_LADDER
        .iter()
        .copied()
        .filter(|&n| n <= cap)
        .collect();
    if !ladder.contains(&cap) {
        ladder.push(cap);
    }
    ladder.sort_unstable();
    ladder
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = arg_flag(&args, "--smoke");
    let seed = arg_u64(&args, "--seed", 0xBEEF);
    let ladder = thread_ladder(&args);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_perf.json".to_string());
    let mode = if smoke { "smoke" } else { "full" };

    println!("perfsuite ({mode}), seed {seed:#x}, thread ladder {ladder:?}");
    let sections = vec![
        bench_gemm(smoke, seed, &ladder),
        bench_conv(smoke, seed, &ladder),
        bench_e2e(smoke, seed, &ladder),
        bench_compressed(smoke, seed, &ladder),
        bench_arch_e2e(smoke, seed),
        bench_integrity(smoke, seed),
        bench_parallel_scaling(smoke, seed, &ladder),
        bench_serving(smoke, seed),
    ];
    let crits = criteria(&sections, smoke);

    let mut table = TablePrinter::new();
    table.row(vec![
        "section", "config", "impl", "kernel", "thr", "ns/iter", "speedup",
    ]);
    for sec in &sections {
        table.row(vec![
            sec.name.to_string(),
            sec.config.clone(),
            sec.baseline_name.to_string(),
            "scalar/reference".into(),
            "1".into(),
            format!("{:.0}", sec.baseline_ns),
            "1.00x".into(),
        ]);
        for e in &sec.entries {
            table.row(vec![
                String::new(),
                String::new(),
                e.name.to_string(),
                format!("{}:{}", e.backend, e.kernel),
                e.threads.to_string(),
                format!("{:.0}", e.ns),
                format!("{:.2}x", sec.baseline_ns / e.ns),
            ]);
        }
    }
    print!("{}", table.render());

    let written = emit_json(&sections, &crits, mode, &out_path);
    let parsed = match perfjson::parse(&written) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("FAIL: emitted {out_path} does not parse: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = validate(&parsed) {
        eprintln!("FAIL: emitted {out_path} is malformed: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path} (validated, schema bnnkc-perfsuite/v8)");

    let mut failed = false;
    for c in &crits {
        let gate = if c.enforced { " [enforced]" } else { "" };
        println!(
            "criterion {:<32} target {:>5.2} measured {:>7.3}{gate}",
            c.name, c.target, c.measured
        );
        if c.enforced && c.measured < c.target {
            eprintln!(
                "FAIL: {} = {:.3} below its floor {:.2}",
                c.name, c.measured, c.target
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
