//! The traced run's extra measurements: the rate ladder behind
//! `max_rps`, and one probe per layer of the program, each calling that
//! layer's public entry points inside spans.

use crate::daemon::{self, Daemon};
use crate::gen::{self, Phase, Status};
use crate::model::{self, BinConvGeom, Compressed, Result};
use crate::report::Values;
use crate::stats::{self, Rung};
use crate::trace::{Profile, Tracer};
use crate::workload::{Deployed, Run, POOL};
use bitnn::engine::ConvScratch;
use bitnn::exec::hardware_threads;
use bitnn::graph::BatchScratch;
use bitnn::infer::logits_digest;
use bitnn::ops::{Conv2dParams, PackedMatrix};
use bitnn::pack::{PackedActivations, PackedKernel};
use bitnn::weightgen::random_kernel;
use bitnn::{BitTensor, Engine, ExecPolicy, GraphSpec, ModelGraph, Tensor};
use bnnkc_serve::{Client, InferSlot, ServeConfig, Server};
use kc_core::cluster::{ClusterConfig, ClusterPlan};
use kc_core::container::{read_model_container, read_model_container_unverified};
use kc_core::wire::{decode_request, decode_response, encode_request, encode_response, Response};
use kc_core::FreqTable;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Share of `--seconds` per ladder rung.
const RUNG_SHARE: f64 = 0.05;
/// Repetitions of the codec and deploy probes.
const REPS: usize = 4;

/// A duration in ms.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time (ms) of `reps` calls of `f`.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        v.push(ms(t.elapsed()));
    }
    stats::median(&v)
}

/// Median µs of one call of `f`, over batches of calls.
fn time_us(mut f: impl FnMut()) -> f64 {
    const CALLS: usize = 200;
    time_ms(9, || {
        for _ in 0..CALLS {
            f();
        }
    }) * 1e3
        / CALLS as f64
}

/// Record a phase's sent/ok/failed counts.
pub fn gen_counts(values: &mut Values, phase: &str, p: &Phase) {
    let names: [&'static str; 3] = match phase {
        "closed" => ["gen.closed.sent", "gen.closed.ok", "gen.closed.failed"],
        "low" => ["gen.low.sent", "gen.low.ok", "gen.low.failed"],
        _ => ["gen.high.sent", "gen.high.ok", "gen.high.failed"],
    };
    values.set(names[0], p.sent() as f64);
    values.set(names[1], p.ok() as f64);
    values.set(names[2], p.failed() as f64);
}

/// Walk the rate ladder (past `high`, stopping at the first failing
/// rung) and record `max_rps`.
pub(crate) fn ladder(run: &mut Run<'_>, dep: &mut Deployed) -> Result<()> {
    let w = run.w;
    let rung_dur = Duration::from_secs_f64((run.args.seconds * RUNG_SHARE).max(1.0));
    let (limit_ms, high) = (w.limit_ms(), w.high());
    let mut rungs = Vec::new();
    for rate in w.ladder() {
        let p = run.phase(&dep.graph, &mut dep.workers, Some(rate), rung_dur);
        run.tally.phase(&p);
        let rung = Rung {
            rate,
            failed: p.failed(),
            p99_ms: p.latency().p99,
            growing: stats::lateness_growing(&p.lateness_series(), limit_ms),
        };
        rungs.push(rung);
        if rate >= high && !rung.passes(limit_ms) {
            break;
        }
    }
    let max_rps = stats::ladder_max(&rungs, limit_ms).unwrap_or(0.0);
    run.values.set("max_rps", max_rps);
    let rungs_json: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{{\"rate\": {:?}, \"failed\": {}, \"p99_ms\": {:?}, \"growing\": {}, \"passes\": {}}}",
                r.rate,
                r.failed,
                r.p99_ms,
                r.growing,
                r.passes(limit_ms)
            )
        })
        .collect();
    run.detail.push(format!(
        "\"ladder\": {{\"limit_ms\": {:?}, \"rungs\": [{}]}}",
        limit_ms,
        rungs_json.join(", ")
    ));
    Ok(())
}

/// Autotuner timings, taken before any other forward in the process.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tune {
    warm_ms: f64,
    first_ms: f64,
    steady_ms: f64,
}

/// Warm both autotuners, then time the first forward (which tunes the
/// model's own geometries) against a steady one.
pub(crate) fn tune(
    tr: &Tracer,
    graph: &ModelGraph,
    engine: &Engine,
    inputs: &[Tensor],
) -> Result<Tune> {
    let t = Instant::now();
    tr.scope(
        "engine.warm_gemm_tables",
        0,
        bitnn::ops::gemm::warm_gemm_tables,
    );
    tr.scope("engine.warm_conv_table", 0, bitnn::engine::warm_conv_table);
    let warm_ms = ms(t.elapsed());
    let (mut scratch, mut outs) = (BatchScratch::default(), Vec::new());
    let t = Instant::now();
    tr.scope("graph.first_forward", 0, || {
        graph.forward_batch_into(inputs, engine, &mut scratch, &mut outs)
    })?;
    let first_ms = ms(t.elapsed());
    let steady_ms = forward_ms(graph, engine, inputs, 5)?;
    Ok(Tune {
        warm_ms,
        first_ms,
        steady_ms,
    })
}

/// Median forward time (ms) of `inputs` on `engine`, after one warm-up.
fn forward_ms(graph: &ModelGraph, engine: &Engine, inputs: &[Tensor], reps: usize) -> Result<f64> {
    let (mut scratch, mut outs) = (BatchScratch::default(), Vec::new());
    graph.forward_batch_into(inputs, engine, &mut scratch, &mut outs)?;
    let mut err = None;
    let t = time_ms(reps, || {
        if let Err(e) = graph.forward_batch_into(inputs, engine, &mut scratch, &mut outs) {
            err = Some(e);
        }
    });
    match err {
        Some(e) => Err(e.into()),
        None => Ok(t),
    }
}

/// `len` pseudo-random bits from a non-zero seed (xorshift64).
fn bits(len: usize, mut x: u64) -> Vec<bool> {
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 1 == 1
        })
        .collect()
}

/// Standalone `Engine::conv2d` (3×3) and `Engine::gemm` (1×1) calls on
/// the model's own binary-conv geometries, `n` images each. Returns the
/// summed medians (ms) of the 3×3 and of the 1×1 layers.
fn ops(engine: &Engine, convs: &[BinConvGeom], n: usize) -> Result<(f64, f64)> {
    let (mut conv3, mut conv1) = (0.0, 0.0);
    for (i, g) in convs.iter().enumerate() {
        let salt = 0xB17 + i as u64;
        let mut err = None;
        if g.k == 3 {
            let acts = PackedActivations::pack(&random_kernel(&[n, g.channels, g.h, g.w], salt))?;
            let kernel = PackedKernel::pack(&random_kernel(&[g.filters, g.channels, 3, 3], !salt))?;
            let params = Conv2dParams {
                stride: g.stride,
                pad: g.pad,
            };
            let mut scratch = ConvScratch::default();
            conv3 += time_ms(5, || {
                match engine.conv2d(&acts, (&kernel).into(), params, &mut scratch) {
                    Ok(out) => drop(black_box(out)),
                    Err(e) => err = Some(e),
                }
            });
        } else {
            let rows = n * g.out_dim(g.h) * g.out_dim(g.w);
            let a = PackedMatrix::from_bools(rows, g.channels, &bits(rows * g.channels, salt))?;
            let b = PackedMatrix::from_bools(
                g.filters,
                g.channels,
                &bits(g.filters * g.channels, !salt),
            )?;
            let mut out = Vec::new();
            conv1 += time_ms(5, || {
                if let Err(e) = engine.gemm_into(&a, &b, &mut out) {
                    err = Some(e);
                }
                black_box(&out);
            });
        }
        if let Some(e) = err {
            return Err(e.into());
        }
    }
    Ok((conv3, conv1))
}

/// Every per-layer probe, then the per-layer metrics from the spans.
pub(crate) fn layers(
    run: &mut Run<'_>,
    dep: &mut Deployed,
    container: &Path,
    base: &Compressed,
    model_parts: (&GraphSpec, &[BitTensor]),
    tune: Tune,
) -> Result<()> {
    let (w, tr, seed) = (run.w, run.tr, run.args.seed);
    let (spec, kernels) = model_parts;
    let engine = &run.engine.clone();

    // Codec sub-steps, as standalone calls on the same kernels.
    let cluster_cfg = ClusterConfig::default();
    for _ in 0..REPS {
        for (i, k) in kernels.iter().enumerate() {
            let freq = tr.scope("freq.count", i as u64, || FreqTable::from_kernel(k))?;
            let plan = tr.scope("cluster.build", i as u64, || {
                ClusterPlan::build(&freq, &cluster_cfg)
            });
            black_box(plan);
        }
    }
    // Deploy, step by step against the registry's one call, alternating
    // which goes first; and the verified read against the unverified one.
    let (mut verified, mut unverified, mut whole) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..REPS {
        if rep % 2 == 1 {
            black_box(model::deploy_steps(tr, &base.bytes, seed)?);
        }
        let t = Instant::now();
        black_box(model::deploy(
            &Tracer::new(false),
            &base.bytes,
            engine,
            seed,
        )?);
        whole.push(ms(t.elapsed()));
        if rep % 2 == 0 {
            black_box(model::deploy_steps(tr, &base.bytes, seed)?);
        }
        let t = Instant::now();
        black_box(read_model_container(&base.bytes)?);
        verified.push(ms(t.elapsed()));
        let t = Instant::now();
        black_box(read_model_container_unverified(&base.bytes)?);
        unverified.push(ms(t.elapsed()));
    }

    // Executor: forward, standalone ops, thread scaling.
    let graph = &dep.graph;
    let inputs = &run.pool[..w.unit];
    let fwd = forward_ms(graph, engine, inputs, 20)?;
    let fwd_1t = forward_ms(graph, &Engine::with_threads(1), inputs, 10)?;
    let convs = model::bin_convs(spec)?;
    let (conv3, conv1) = tr.scope("ops.probe", 0, || ops(engine, &convs, w.unit))?;
    let binops: u64 = convs.iter().map(|g| g.binops(w.unit)).sum();
    let weight_bytes: u64 = convs.iter().map(BinConvGeom::weight_bytes).sum();

    // Wire codec on this workload's frames.
    let mut buf = Vec::new();
    let req = &run.reqs[0];
    let logits = Response::Logits {
        seq: 0,
        version: 1,
        data: vec![0.5; 1000],
    };
    let enc_req = time_us(|| encode_request(black_box(req), &mut buf));
    encode_request(req, &mut buf);
    let dec_req = time_us(|| {
        black_box(decode_request(black_box(&buf)).is_ok());
    });
    let enc_resp = time_us(|| encode_response(black_box(&logits), &mut buf));
    encode_response(&logits, &mut buf);
    let dec_resp = time_us(|| {
        black_box(decode_response(black_box(&buf)).is_ok());
    });

    // Serving core: the probe schedule replayed in-process, then over TCP.
    let server = Server::new(ServeConfig {
        policy: ExecPolicy::with_threads(hardware_threads()),
        seed,
        ..ServeConfig::default()
    });
    server.register_bytes(daemon::MODEL, &base.bytes)?;
    let probe_dur = Duration::from_secs_f64((run.args.seconds * 0.1).max(1.0));
    let before = server.stats_report();
    let mut slots: Vec<(InferSlot, Tensor)> = (0..hardware_threads())
        .map(|_| (InferSlot::new(), Tensor::default()))
        .collect();
    let core = gen::run(
        &mut slots,
        Some(w.probe_rate()),
        probe_dur,
        |(slot, out), idx| {
            let i = idx as usize % POOL;
            let _op = tr.span("op", idx);
            match tr.scope("server.infer_blocking", idx, || {
                server.infer_blocking(daemon::MODEL, slot, &run.pool[i], out)
            }) {
                Ok(_) => Status::matches(logits_digest(out.data()) == run.expected[i]),
                Err(_) => Status::Failed,
            }
        },
    );
    let after = server.stats_report();
    server.shutdown();
    run.tally.phase(&core);
    let batches = after.batches - before.batches;
    let items = |s: &kc_core::wire::StatsReport| -> u64 {
        s.batch_hist.iter().map(|&(size, n)| size as u64 * n).sum()
    };
    let batch_mean = (items(&after) - items(&before)) as f64 / batches.max(1) as f64;
    let at_mean = (batch_mean.round() as usize).clamp(1, POOL);
    let fwd_at_mean = forward_ms(graph, engine, &run.pool[..at_mean], 10)?;
    let spawned = match dep.daemon {
        Some(_) => None,
        None => Some(Daemon::spawn(&run.args.bnnkc, container, seed)?),
    };
    let served_by = dep
        .daemon
        .as_ref()
        .or(spawned.as_ref())
        .ok_or("no daemon")?;
    let mut clients = (0..hardware_threads())
        .map(|_| served_by.client())
        .collect::<Result<Vec<Client>>>()?;
    let tcp = gen::run(
        &mut clients,
        Some(w.probe_rate()),
        probe_dur,
        |client, idx| {
            let i = idx as usize % POOL;
            match client.call(&run.reqs[i]) {
                Ok(Response::Logits { data, .. }) => {
                    Status::matches(logits_digest(&data) == run.expected[i])
                }
                _ => Status::Failed,
            }
        },
    );
    drop(clients);
    if let Some(d) = spawned {
        d.shutdown()?;
    }
    run.tally.phase(&tcp);
    run.note("serve_core", &core);
    run.note("serve_tcp", &tcp);

    // Tracing overhead: closed-loop segments alternately untraced and
    // traced.
    let seg = Duration::from_secs_f64((run.args.seconds * 0.02).max(0.25));
    let (mut off, mut on) = (Phase::default(), Phase::default());
    for _ in 0..3 {
        tr.set_enabled(false);
        off.extend(run.phase(&dep.graph, &mut dep.workers, None, seg));
        tr.set_enabled(true);
        on.extend(run.phase(&dep.graph, &mut dep.workers, None, seg));
    }
    run.tally.phase(&off);
    run.tally.phase(&on);

    let spans = tr.spans();
    let p = Profile::new(&spans);
    let cycles = (w.rounds * w.updates) as f64;
    let reps = REPS as f64;
    let v = &mut run.values;
    v.set("freq.count_ms", p.total_ms("freq.count") / reps);
    v.set("cluster.build_ms", p.total_ms("cluster.build") / reps);
    let compress_ms = p.total_ms("codec.compress") / cycles;
    v.set("codec.compress_ms", compress_ms);
    v.set("codec.seqs_per_us", base.seqs as f64 / (compress_ms * 1e3));
    v.set("codec.stream_bytes", base.stream_bytes as f64);
    v.set("container.write_ms", p.total_ms("container.write") / cycles);
    let read = p.total_ms("container.read") / reps;
    let attach = p.total_ms("graph.attach") / reps;
    let decode = p.total_ms("stream_decode.decode") / reps;
    let set_packed = p.total_ms("graph.set_packed") / reps;
    v.set("container.read_ms", read);
    v.set(
        "digest.verify_ms",
        stats::median(&verified) - stats::median(&unverified),
    );
    v.set("graph.attach_ms", attach);
    v.set("stream_decode.decode_ms", decode);
    v.set(
        "stream_decode.mb_per_s",
        base.stream_bytes as f64 / 1e6 / (decode / 1e3),
    );
    v.set("graph.set_packed_ms", set_packed);
    let whole_ms = whole.iter().sum::<f64>() / reps;
    v.set(
        "deploy.accounted",
        (read + attach + decode + set_packed) / whole_ms,
    );
    v.set(
        "engine.tune_ms",
        tune.warm_ms + (tune.first_ms - tune.steady_ms).max(0.0),
    );
    let choices = bitnn::simd::gemm_choices().len() + bitnn::simd::conv_choices().len();
    v.set("engine.tune_choices", choices as f64);
    v.set("graph.first_forward_ms", tune.first_ms);
    v.set("graph.forward_ms", fwd);
    v.set("ops.conv3x3_ms", conv3);
    v.set("ops.conv1x1_ms", conv1);
    v.set("ops.other_ms", fwd - conv3 - conv1);
    v.set("ops.binops_per_s", binops as f64 / (fwd / 1e3));
    v.set("ops.weight_mb", weight_bytes as f64 / 1e6);
    v.set("pool.speedup", fwd_1t / fwd);
    let (core_lat, tcp_lat) = (core.latency(), tcp.latency());
    v.set("serve.core_p50_ms", core_lat.p50);
    v.set("serve.core_p99_ms", core_lat.p99);
    v.set("serve.queue_wait_ms", core_lat.p50 - fwd_at_mean);
    v.set("serve.batch_mean", batch_mean);
    v.set("serve.batches", batches as f64);
    v.set("serve.rejected", (after.rejected - before.rejected) as f64);
    v.set("net.overhead_ms", tcp_lat.p50 - core_lat.p50);
    v.set("wire.encode_us", enc_req + enc_resp);
    v.set("wire.decode_us", dec_req + dec_resp);
    v.set("trace.overhead", on.latency().p50 / off.latency().p50);
    let self_ms: Vec<String> = p
        .names()
        .iter()
        .map(|n| format!("\"{n}\": {:?}", p.self_ms(n)))
        .collect();
    run.detail
        .push(format!("\"span_self_ms\": {{{}}}", self_ms.join(", ")));
    run.detail.push(format!(
        "\"computed_from_tensor_sizes\": [\"ops.binops_per_s\", \"ops.weight_mb\"], \
         \"deploy_parts_ms\": {{\"read\": {read:?}, \"attach\": {attach:?}, \"decode\": {decode:?}, \
         \"set_packed\": {set_packed:?}, \"deploy_bytes\": {whole_ms:?}}}"
    ));
    Ok(())
}
