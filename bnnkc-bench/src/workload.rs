//! The three workloads and the run that measures them.
//!
//! Every workload runs the same pipeline on its own model and traffic,
//! so every metric has a value on every workload:
//!
//! 1. generate the model from the seed, compress it to v3 bytes, deploy
//!    it, and check its outputs against the scalar oracle and the offline
//!    decode path; the checked logits digests become the expected output
//!    of every later operation;
//! 2. `rounds` rounds, each in a fresh process: a cold set-up (deploy and
//!    first forward, or daemon start to first answer), one update cycle
//!    (compress, then deploy or hot-swap), then a closed-loop segment and
//!    open-loop segments at the `low` and `high` rates. Fresh processes
//!    give every round its own autotuner draw and its own set-up, and
//!    spreading the segments over the run keeps a passing host slowdown
//!    from landing on one metric only;
//! 3. the traced run does the rounds in-process with spans on, then the
//!    rate ladder behind `max_rps` and the per-layer probes.

use crate::daemon::{self, Daemon};
use crate::gen::{self, Op, Phase, Status};
use crate::model::{self, Result};
use crate::probes::{self, ms};
use crate::report::Values;
use crate::stats;
use crate::trace::Tracer;
use bitnn::exec::hardware_threads;
use bitnn::graph::BatchScratch;
use bitnn::infer::logits_digest;
use bitnn::{BitTensor, Engine, GraphSpec, ModelGraph, Tensor};
use bnnkc_serve::Client;
use kc_core::wire::{Request, Response};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One workload: a model, a unit of work, and the traffic it sees.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// ReActNet channel scale.
    pub scale: f64,
    /// Images per operation (one `forward_batch_into` call or one wire
    /// request).
    pub unit: usize,
    /// Whether operations go to a `bnnkc serve` child over TCP instead of
    /// an in-process engine.
    pub served: bool,
    /// Closed-loop capacity, operations per second, as this benchmark's
    /// closed-loop segment measured it when the benchmark was written, on
    /// a 2-vCPU Intel Xeon VM with AVX-512. Every rate of the workload is
    /// a fixed share of it, so the rates stay put when the program gets
    /// faster.
    pub capacity: f64,
    /// Closed-loop median latency, ms, measured with `capacity`.
    pub service_ms: f64,
    /// Closed-loop capacity of single-image requests on the same model,
    /// operations per second (the serving probe's unit).
    pub single_capacity: f64,
    /// Rounds per run (see the module docs).
    pub rounds: usize,
    /// Update cycles per round; the round reports their median. A single
    /// ~20 ms compress or deploy of the x0.25 model is too short to
    /// repeat within the bound from run to run.
    pub updates: usize,
}

/// `low` as a share of capacity: every operation meets an idle engine.
const LOW_SHARE_OF_CAPACITY: f64 = 0.12;
/// `high` as a share of capacity: a loaded engine, where an operation
/// often arrives while another runs. Not higher: the host's speed swings
/// by up to half, and at 0.6 the single `batch` caller already grew a
/// backlog in a slow spell, after which the median measures the backlog.
const HIGH_SHARE_OF_CAPACITY: f64 = 0.5;
/// The rate ladder behind `max_rps`, as shares of capacity.
const LADDER_SHARES: &[f64] = &[
    LOW_SHARE_OF_CAPACITY,
    0.3,
    HIGH_SHARE_OF_CAPACITY,
    0.75,
    1.0,
    1.25,
];
/// A ladder rung's p99 limit as a multiple of the closed-loop median,
/// the tail ratio the repository's serving perfsuite enforces.
const TAIL_LIMIT: f64 = 8.0;
/// Floor of the p99 limit, ms: at idle rates the p99 of a sub-ms request
/// is the host's thread wake-up tail, measured at 2–11 ms here.
const TAIL_FLOOR_MS: f64 = 10.0;

impl Workload {
    /// The `low` rate, operations per second.
    pub fn low(&self) -> f64 {
        LOW_SHARE_OF_CAPACITY * self.capacity
    }

    /// The `high` rate, operations per second.
    pub fn high(&self) -> f64 {
        HIGH_SHARE_OF_CAPACITY * self.capacity
    }

    /// The rate ladder of the traced run, ascending.
    pub fn ladder(&self) -> Vec<f64> {
        LADDER_SHARES.iter().map(|s| s * self.capacity).collect()
    }

    /// The p99 latency limit of a passing ladder rung, ms.
    pub fn limit_ms(&self) -> f64 {
        (TAIL_LIMIT * self.service_ms).max(TAIL_FLOOR_MS)
    }

    /// Single-image request rate of the traced serving probe: the `low`
    /// share of the model's single-image capacity.
    pub fn probe_rate(&self) -> f64 {
        LOW_SHARE_OF_CAPACITY * self.single_capacity
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "batch",
        scale: 0.25,
        unit: 32,
        served: false,
        capacity: 172.0,
        service_ms: 5.6,
        single_capacity: 3300.0,
        rounds: 12,
        updates: 5,
    },
    Workload {
        name: "edge",
        scale: 1.0,
        unit: 1,
        served: false,
        capacity: 570.0,
        service_ms: 1.8,
        single_capacity: 570.0,
        rounds: 10,
        updates: 1,
    },
    Workload {
        name: "serve",
        scale: 0.25,
        unit: 1,
        served: true,
        capacity: 3300.0,
        service_ms: 0.59,
        single_capacity: 3300.0,
        rounds: 12,
        updates: 3,
    },
];

/// Images in a run's input pool (a multiple of every `unit`).
pub const POOL: usize = 64;
/// Pool items checked against the scalar oracle before timing.
const SCALAR_CHECKS: usize = 2;
/// Share of each round's time in the closed-loop segment.
const CLOSED_SHARE: f64 = 0.4;
/// Share of each round's time at the `low` rate (the rest is `high`).
const LOW_SHARE: f64 = 0.3;

/// Command-line parameters of a run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, s.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `bnnkc` binary (for `serve`).
    pub bnnkc: PathBuf,
    /// Scratch directory for containers, digests and the trace file.
    pub work: PathBuf,
}

/// Success and failure counts over every operation of a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (checks, compressions, deploys, requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced wrong outputs.
    pub failed: u64,
    /// Outputs that differed from their oracle, checked or timed (a
    /// subset of `failed`).
    pub mismatches: u64,
}

impl Tally {
    pub(crate) fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches += 1;
            eprintln!("bnnkc-bench: output mismatch: {what}");
        }
    }

    /// Count a timed phase. A wrong output makes the run incorrect; an
    /// error or refusal only counts as failed.
    pub(crate) fn phase(&mut self, p: &Phase) {
        self.attempted += p.sent();
        self.failed += p.failed();
        if p.wrong() > 0 {
            self.mismatches += p.wrong();
            eprintln!(
                "bnnkc-bench: {} timed outputs differed from their oracle",
                p.wrong()
            );
        }
    }

    /// Whether every output matched its oracle.
    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every metric measured.
    pub values: Values,
    /// Counts behind `correct`, `attempted` and `failed`.
    pub tally: Tally,
    /// Host fingerprint as a JSON object.
    pub fingerprint: String,
    /// Per-metric sample counts and tails, as a JSON object.
    pub detail: String,
}

/// Per-worker state of the timed phases, kept across phases so buffers
/// and connections stay warm.
pub(crate) enum Workers {
    /// In-process: one caller thread driving `forward_batch_into`.
    Local(Vec<(BatchScratch, Vec<Tensor>)>),
    /// A `bnnkc serve` child: one client connection per hardware thread.
    Served(Vec<Client>),
}

/// The model as the timed rounds see it.
pub(crate) struct Deployed {
    /// The in-process model (also kept by served workloads, for probes).
    pub graph: ModelGraph,
    /// The daemon serving the model, for served workloads.
    pub daemon: Option<Daemon>,
    /// Phase workers.
    pub workers: Workers,
    /// The connection hot-swaps go through.
    swapper: Option<Client>,
    /// The model version the daemon serves.
    version: u32,
}

/// The state every phase of a run shares.
pub(crate) struct Run<'a> {
    pub w: Workload,
    pub args: &'a Args,
    pub tr: &'a Tracer,
    pub engine: Engine,
    pub pool: Vec<Tensor>,
    pub reqs: Vec<Request>,
    /// Checked logits digest of every pool image.
    pub expected: Vec<u64>,
    pub tally: Tally,
    pub values: Values,
    pub detail: Vec<String>,
}

/// Samples collected over a run's rounds: one value per round for each
/// scalar, and every operation of each phase.
#[derive(Debug, Default)]
struct Samples {
    setup_s: Vec<f64>,
    compress_s: Vec<f64>,
    deploy_ms: Vec<f64>,
    closed_rate: Vec<f64>,
    /// Per-round latency medians of the three phases.
    p50_ms: [Vec<f64>; 3],
    closed: Phase,
    low: Phase,
    high: Phase,
}

impl Samples {
    /// Add one round's samples.
    fn merge(&mut self, other: Samples) {
        self.setup_s.extend(other.setup_s);
        self.compress_s.extend(other.compress_s);
        self.deploy_ms.extend(other.deploy_ms);
        self.closed_rate.extend(other.closed_rate);
        for (p50, p) in self
            .p50_ms
            .iter_mut()
            .zip([&other.closed, &other.low, &other.high])
        {
            p50.push(p.latency().p50);
        }
        self.closed.extend(other.closed);
        self.low.extend(other.low);
        self.high.extend(other.high);
    }

    /// Line format a round process hands to its parent.
    fn encode(&self, tally: &Tally) -> String {
        let list = |v: &[f64]| v.iter().map(|x| format!(" {x:?}")).collect::<String>();
        let phase = |p: &Phase| {
            let lat: Vec<f64> = p
                .ops
                .iter()
                .filter(|o| o.status == Status::Ok)
                .map(|o| o.latency_ms)
                .collect();
            format!("{:?} {} {}{}", p.wall_s, p.sent(), p.ok(), list(&lat))
        };
        format!(
            "setup_s{}\ncompress_s{}\ndeploy_ms{}\nclosed_rate{}\nclosed {}\nlow {}\nhigh {}\ntally {} {} {}\n",
            list(&self.setup_s),
            list(&self.compress_s),
            list(&self.deploy_ms),
            list(&self.closed_rate),
            phase(&self.closed),
            phase(&self.low),
            phase(&self.high),
            tally.attempted,
            tally.failed,
            tally.mismatches
        )
    }

    /// Parse [`Samples::encode`] output.
    fn decode(text: &str, tally: &mut Tally) -> Result<Samples> {
        let mut s = Samples::default();
        let num = |x: &str| {
            x.parse::<f64>()
                .map_err(|_| format!("bad number `{x}` from a round"))
        };
        for line in text.lines() {
            let mut it = line.split_whitespace();
            let key = it.next().unwrap_or("");
            let nums = it
                .map(num)
                .collect::<std::result::Result<Vec<f64>, String>>()?;
            let phase = |n: &[f64]| -> Result<Phase> {
                if n.len() < 3 || n.len() - 3 != n[2] as usize {
                    return Err(format!("malformed phase line from a round: {line}").into());
                }
                let (wall_s, sent, lat) = (n[0], n[1] as usize, &n[3..]);
                // Wrong outputs travel in the tally line, so every
                // unsuccessful operation comes back as failed.
                let op = |latency_ms, status| Op {
                    idx: 0,
                    lateness_ms: 0.0,
                    latency_ms,
                    status,
                };
                let mut ops: Vec<Op> = lat.iter().map(|&l| op(l, Status::Ok)).collect();
                ops.resize(sent.max(lat.len()), op(0.0, Status::Failed));
                for (i, o) in ops.iter_mut().enumerate() {
                    o.idx = i as u64;
                }
                Ok(Phase { ops, wall_s })
            };
            match key {
                "setup_s" => s.setup_s = nums,
                "compress_s" => s.compress_s = nums,
                "deploy_ms" => s.deploy_ms = nums,
                "closed_rate" => s.closed_rate = nums,
                "closed" => s.closed = phase(&nums)?,
                "low" => s.low = phase(&nums)?,
                "high" => s.high = phase(&nums)?,
                "tally" if nums.len() == 3 => {
                    tally.attempted += nums[0] as u64;
                    tally.failed += nums[1] as u64;
                    tally.mismatches += nums[2] as u64;
                }
                _ => return Err(format!("unexpected line from a round: {line}").into()),
            }
        }
        Ok(s)
    }
}

/// Write `bytes` to `path`.
fn write(path: &Path, bytes: &[u8]) -> Result<()> {
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()).into())
}

impl<'a> Run<'a> {
    fn new(args: &'a Args, tr: &'a Tracer) -> Self {
        let pool = model::inputs(POOL, args.seed);
        let reqs = pool
            .iter()
            .enumerate()
            .map(|(i, x)| daemon::infer_request(i as u64, x))
            .collect();
        Run {
            w: args.workload,
            args,
            tr,
            engine: Engine::with_threads(hardware_threads()),
            pool,
            reqs,
            expected: Vec::new(),
            tally: Tally::default(),
            values: Values::default(),
            detail: Vec::new(),
        }
    }

    /// One timed phase on `graph` (in-process) or on the daemon behind
    /// `workers`: closed loop without a rate, open loop with one.
    pub(crate) fn phase(
        &self,
        graph: &ModelGraph,
        workers: &mut Workers,
        rate: Option<f64>,
        dur: Duration,
    ) -> Phase {
        let (unit, tr, engine) = (self.w.unit, self.tr, &self.engine);
        match workers {
            Workers::Local(states) => gen::run(states, rate, dur, |(scratch, outs), idx| {
                let _op = tr.span("op", idx);
                let first = (idx as usize * unit) % POOL;
                let inputs = &self.pool[first..first + unit];
                let ran = tr.scope("graph.forward_batch_into", idx, || {
                    graph.forward_batch_into(inputs, engine, scratch, outs)
                });
                match ran {
                    Ok(()) => Status::matches(
                        outs.iter()
                            .enumerate()
                            .all(|(j, o)| logits_digest(o.data()) == self.expected[first + j]),
                    ),
                    Err(_) => Status::Failed,
                }
            }),
            Workers::Served(clients) => gen::run(clients, rate, dur, |client, idx| {
                let _op = tr.span("op", idx);
                let i = idx as usize % POOL;
                match tr.scope("client.call", idx, || client.call(&self.reqs[i])) {
                    Ok(Response::Logits { data, .. }) => {
                        Status::matches(logits_digest(&data) == self.expected[i])
                    }
                    _ => Status::Failed,
                }
            }),
        }
    }

    /// Record a phase's latency summary in the detail line.
    pub(crate) fn note(&mut self, label: &str, p: &Phase) {
        let s = p.latency();
        self.detail.push(format!(
            "\"{label}\": {{\"n\": {}, \"p50_ms\": {:?}, \"p99_ms\": {:?}, \"tail_pct\": {}, \
             \"tail_ms\": {}, \"sent\": {}, \"ok\": {}, \"failed\": {}}}",
            s.n,
            s.p50,
            s.p99,
            s.tail_pct.map_or("null".into(), |v| format!("{v:?}")),
            s.tail.map_or("null".into(), |v| format!("{v:?}")),
            p.sent(),
            p.ok(),
            p.failed()
        ));
    }

    /// Check a deployed model against the oracles and fix the expected
    /// output digest of every pool image.
    fn check_outputs(&mut self, graph: &ModelGraph, bytes: &[u8]) -> Result<()> {
        self.expected = model::digests(graph, &self.engine, &self.pool)?;
        for i in 0..SCALAR_CHECKS {
            let d = model::scalar_digest(graph, &self.pool[i])?;
            self.tally
                .check("engine vs ScalarBackend", d == self.expected[i]);
        }
        let offline = model::deploy_offline(bytes, self.args.seed)?;
        let d = model::digests(&offline, &self.engine, &self.pool[..self.w.unit])?;
        self.tally.check(
            "stream-decoded vs offline decode_kernel deploy",
            d[..] == self.expected[..self.w.unit],
        );
        // Item-by-item forwards must agree with the batch forward.
        let single = model::digests(graph, &self.engine, &self.pool[..1])?;
        self.tally
            .check("batch vs single forward", single[0] == self.expected[0]);
        Ok(())
    }

    /// Bring the model up from container bytes until its first answer:
    /// deploy and forward once in-process, or start a daemon and send it
    /// one request. Returns the model and this cold set-up's seconds.
    fn start(&mut self, bytes: &[u8], container: &Path) -> Result<(Deployed, f64)> {
        let (w, seed) = (self.w, self.args.seed);
        let t = Instant::now();
        if !w.served {
            let graph = model::deploy(self.tr, bytes, &self.engine, seed)?;
            let mut workers = vec![(BatchScratch::default(), Vec::new())];
            let (scratch, outs) = &mut workers[0];
            graph.forward_batch_into(&self.pool[..w.unit], &self.engine, scratch, outs)?;
            let setup_s = t.elapsed().as_secs_f64();
            let first = outs
                .iter()
                .map(|o| logits_digest(o.data()))
                .collect::<Vec<_>>();
            self.tally
                .check("first forward", first[..] == self.expected[..w.unit]);
            let dep = Deployed {
                graph,
                daemon: None,
                workers: Workers::Local(workers),
                swapper: None,
                version: 1,
            };
            return Ok((dep, setup_s));
        }
        let d = Daemon::spawn(&self.args.bnnkc, container, seed)?;
        let mut clients = (0..hardware_threads())
            .map(|_| d.client())
            .collect::<Result<Vec<Client>>>()?;
        let first = clients[0].call(&self.reqs[0])?;
        let setup_s = t.elapsed().as_secs_f64();
        self.tally.check(
            "first served answer",
            matches!(first, Response::Logits { data, .. } if logits_digest(&data) == self.expected[0]),
        );
        let dep = Deployed {
            graph: model::deploy(self.tr, bytes, &self.engine, seed)?,
            swapper: Some(d.client()?),
            daemon: Some(d),
            workers: Workers::Served(clients),
            version: 1,
        };
        Ok((dep, setup_s))
    }

    /// Served logits of every pool image against the checked digests.
    fn check_served(&mut self, dep: &mut Deployed) -> Result<()> {
        if let Workers::Served(clients) = &mut dep.workers {
            for i in 0..POOL {
                let ok = matches!(clients[0].call(&self.reqs[i])?,
                    Response::Logits { data, .. } if logits_digest(&data) == self.expected[i]);
                self.tally.check("served vs offline logits_digest", ok);
            }
        }
        Ok(())
    }

    /// Deploy freshly compressed bytes: in-process, or as a hot-swap into
    /// the daemon. Returns the deploy's ms.
    fn update(&mut self, dep: &mut Deployed, id: u64, bytes: &[u8]) -> Result<f64> {
        let (w, tr, seed) = (self.w, self.tr, self.args.seed);
        if let (Some(d), Some(client)) = (&dep.daemon, dep.swapper.as_mut()) {
            let path = self
                .args
                .work
                .join(format!("{}-{seed}-{id}-swap.bkcm", w.name));
            write(&path, bytes)?;
            let t = Instant::now();
            let version = tr.scope("cycle.swap", id, || d.swap(client, &path))?;
            let deploy_ms = ms(t.elapsed());
            dep.version += 1;
            self.tally
                .check("swap bumps the version", version == dep.version);
            let _ = std::fs::remove_file(&path);
            return Ok(deploy_ms);
        }
        let t = Instant::now();
        dep.graph = tr.scope("cycle.deploy", id, || {
            model::deploy(tr, bytes, &self.engine, seed)
        })?;
        let deploy_ms = ms(t.elapsed());
        let d = model::digests(&dep.graph, &self.engine, &self.pool[..w.unit])?;
        self.tally
            .check("redeployed model outputs", d[..] == self.expected[..w.unit]);
        Ok(deploy_ms)
    }

    /// One round after set-up: `updates` update cycles (compress, then
    /// deploy), then the closed, `low` and `high` segments.
    fn round(
        &mut self,
        dep: &mut Deployed,
        r: usize,
        parts: (&GraphSpec, &[BitTensor], &[u8]),
        round_s: f64,
    ) -> Result<Samples> {
        let (w, tr) = (self.w, self.tr);
        let (spec, kernels, base) = parts;
        let mut s = Samples::default();
        let (mut compress_s, mut deploy_ms) = (Vec::new(), Vec::new());
        for u in 0..w.updates {
            let id = (r * w.updates + u) as u64;
            let t = Instant::now();
            let fresh = tr.scope("cycle.compress", id, || model::compress(tr, spec, kernels))?;
            compress_s.push(t.elapsed().as_secs_f64());
            self.tally
                .check("compressed bytes repeat", fresh.bytes == base);
            deploy_ms.push(self.update(dep, id, &fresh.bytes)?);
        }
        s.compress_s.push(stats::median(&compress_s));
        s.deploy_ms.push(stats::median(&deploy_ms));
        let secs = |share: f64| Duration::from_secs_f64(round_s * share);
        let closed = self.phase(&dep.graph, &mut dep.workers, None, secs(CLOSED_SHARE));
        s.closed_rate.push(closed.rate() * w.unit as f64);
        s.closed = closed;
        s.low = self.phase(&dep.graph, &mut dep.workers, Some(w.low()), secs(LOW_SHARE));
        let high_share = 1.0 - CLOSED_SHARE - LOW_SHARE;
        s.high = self.phase(
            &dep.graph,
            &mut dep.workers,
            Some(w.high()),
            secs(high_share),
        );
        for p in [&s.closed, &s.low, &s.high] {
            self.tally.phase(p);
        }
        Ok(s)
    }
}

fn digests_path(args: &Args) -> PathBuf {
    args.work
        .join(format!("{}-{}.digests", args.workload.name, args.seed))
}

fn container_path(args: &Args) -> PathBuf {
    args.work
        .join(format!("{}-{}.bkcm", args.workload.name, args.seed))
}

/// One round in this fresh process (the `--round` mode): cold set-up,
/// update cycle and segments, against the container and the checked
/// digests the parent left in the work directory. Returns the
/// [`Samples::encode`] text.
///
/// # Errors
///
/// Fails when the model cannot be brought up or measured.
pub fn round_main(args: &Args, r: usize) -> Result<String> {
    let tr = Tracer::new(false);
    let mut run = Run::new(args, &tr);
    let bytes = std::fs::read(container_path(args))?;
    run.expected = std::fs::read_to_string(digests_path(args))?
        .lines()
        .map(|l| u64::from_str_radix(l, 16))
        .collect::<std::result::Result<_, _>>()?;
    let spec = model::spec(run.w.scale)?;
    let kernels = model::kernels(&spec, args.seed)?;
    let (mut dep, setup_s) = run.start(&bytes, &container_path(args))?;
    run.check_served(&mut dep)?;
    let mut s = run.round(&mut dep, r, (&spec, &kernels, &bytes), args.seconds)?;
    s.setup_s.push(setup_s);
    if let Some(d) = dep.daemon.take() {
        drop(dep);
        d.shutdown()?;
    }
    Ok(format!("{}#choices {}\n", s.encode(&run.tally), choices()))
}

/// Run one round in a fresh process of this binary.
fn round_process(args: &Args, r: usize, round_s: f64) -> Result<(String, Samples, Tally)> {
    let out = std::process::Command::new(std::env::current_exe()?)
        .args(["--round", &r.to_string(), "--workload", args.workload.name])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &format!("{round_s:?}"),
        ])
        .arg("--bnnkc")
        .arg(&args.bnnkc)
        .arg("--work")
        .arg(&args.work)
        .stderr(std::process::Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("round {r} failed ({})", out.status).into());
    }
    let (body, choices) = text
        .split_once("#choices ")
        .ok_or("round output without choices")?;
    let mut tally = Tally::default();
    let samples = Samples::decode(body, &mut tally)?;
    Ok((choices.trim().to_string(), samples, tally))
}

/// Run one workload.
///
/// # Errors
///
/// Fails on any error that prevents measuring (I/O, a daemon that does
/// not start, a model that does not deploy). Wrong outputs are not
/// errors: they are counted in the returned tally.
pub fn run(args: &Args) -> Result<Outcome> {
    let (w, seed) = (args.workload, args.seed);
    let tr = Tracer::new(args.trace);
    let mut run = Run::new(args, &tr);

    // The model, its container, and the checked expected outputs.
    let spec = model::spec(w.scale)?;
    let kernels = model::kernels(&spec, seed)?;
    let base = model::compress(&Tracer::new(false), &spec, &kernels)?;
    std::fs::create_dir_all(&args.work)?;
    let container = container_path(args);
    write(&container, &base.bytes)?;
    let graph = model::deploy(&tr, &base.bytes, &run.engine, seed)?;
    // In a traced run the autotuners are timed first, before any other
    // forward in this process could tune them.
    let tune = match args.trace {
        true => Some(probes::tune(&tr, &graph, &run.engine, &run.pool[..w.unit])?),
        false => None,
    };
    run.check_outputs(&graph, &base.bytes)?;
    drop(graph);
    let digests: String = run.expected.iter().map(|d| format!("{d:016x}\n")).collect();
    write(&digests_path(args), digests.as_bytes())?;

    let round_s = args.seconds / w.rounds as f64;
    let mut samples = Samples::default();
    let mut round_choices = Vec::new();
    let mut traced = None;
    if args.trace {
        let (mut dep, _) = run.start(&base.bytes, &container)?;
        run.check_served(&mut dep)?;
        for r in 0..w.rounds {
            let s = run.round(&mut dep, r, (&spec, &kernels, &base.bytes), round_s)?;
            samples.merge(s);
        }
        round_choices.push(choices());
        traced = Some(dep);
    } else {
        for r in 0..w.rounds {
            let (choices, s, tally) = round_process(args, r, round_s)?;
            samples.merge(s);
            round_choices.push(choices);
            run.tally.attempted += tally.attempted;
            run.tally.failed += tally.failed;
            run.tally.mismatches += tally.mismatches;
        }
    }

    // End-to-end figures: the trimmed mean over rounds of each round's
    // value (see `stats::trimmed_mean`); tails pool every round's samples.
    let v = &mut run.values;
    if !samples.setup_s.is_empty() {
        v.set("setup_s", stats::trimmed_mean(&samples.setup_s));
    }
    v.set("compress_s", stats::trimmed_mean(&samples.compress_s));
    v.set("deploy_ms", stats::trimmed_mean(&samples.deploy_ms));
    v.set("kernel_ratio", base.ratio);
    v.set("img_per_s", stats::trimmed_mean(&samples.closed_rate));
    let phases = [
        (
            "closed",
            &samples.closed,
            "latency_p50_ms",
            "latency_p99_ms",
        ),
        ("low", &samples.low, "low_p50_ms", "low_p99_ms"),
        ("high", &samples.high, "high_p50_ms", "high_p99_ms"),
    ];
    for ((label, p, p50, p99), round_p50) in phases.into_iter().zip(&samples.p50_ms) {
        run.values.set(p50, stats::trimmed_mean(round_p50));
        run.values.set(p99, p.latency().p99);
        probes::gen_counts(&mut run.values, label, p);
        run.note(label, p);
    }
    if let (Some(tune), Some(mut dep)) = (tune, traced) {
        for (name, p) in [
            ("gen.low.lateness_p99_ms", &samples.low),
            ("gen.high.lateness_p99_ms", &samples.high),
        ] {
            run.values.set(name, p.lateness().p99);
        }
        probes::ladder(&mut run, &mut dep)?;
        probes::layers(
            &mut run,
            &mut dep,
            &container,
            &base,
            (&spec, &kernels),
            tune,
        )?;
        tr.set_enabled(false);
        let trace_path = args.work.join(format!("trace-{}-{seed}.jsonl", w.name));
        tr.write_jsonl(&trace_path)?;
        eprintln!("bnnkc-bench: spans written to {}", trace_path.display());
        if let Some(d) = dep.daemon.take() {
            drop(dep);
            d.shutdown()?;
        }
    }
    let (attempted, failed) = (run.tally.attempted.max(1), run.tally.failed);
    run.values
        .set("failed_frac", failed as f64 / attempted as f64);
    let detail = format!("{{{}}}", run.detail.join(", "));
    Ok(Outcome {
        values: run.values,
        tally: run.tally,
        fingerprint: fingerprint(args, &run.engine, &round_choices),
        detail,
    })
}

/// The autotuners' choices so far in this process, as a JSON object.
fn choices() -> String {
    use bitnn::simd::{conv_choices, gemm_choices};
    let gemm: Vec<String> = gemm_choices()
        .iter()
        .map(|c| format!("\"{}:{}\"", c.class.name(), c.variant.name()))
        .collect();
    let conv: Vec<String> = conv_choices()
        .iter()
        .map(|c| {
            let g = c.geom;
            format!(
                "\"c{}k{}h{}w{}s{}p{}:{}\"",
                g.channels,
                g.filters,
                g.h,
                g.w,
                g.stride,
                g.pad,
                c.lowering.name()
            )
        })
        .collect();
    format!(
        "{{\"gemm\": [{}], \"conv\": [{}]}}",
        gemm.join(", "),
        conv.join(", ")
    )
}

/// The host fingerprint: SIMD level, hardware and effective threads, the
/// autotuners' choices of every measuring process, and the workload seed.
fn fingerprint(args: &Args, engine: &Engine, round_choices: &[String]) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {:?}, \"trace\": {}, \"simd_level\": \"{}\", \
         \"hardware_threads\": {}, \"effective_threads\": {}, \"autotuner_choices\": [{}]}}",
        args.workload.name,
        args.seed,
        args.seconds,
        args.trace,
        bitnn::simd::level().name(),
        hardware_threads(),
        engine.policy().effective_threads(u64::MAX),
        round_choices.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitnn::graph::arch::attach_weights;

    #[test]
    fn a_wrong_timed_output_makes_the_run_incorrect() {
        let w = Workload {
            unit: 1,
            ..WORKLOADS[0]
        };
        let args = Args {
            workload: w,
            seed: 7,
            seconds: 1.0,
            trace: false,
            bnnkc: PathBuf::new(),
            work: PathBuf::new(),
        };
        let tr = Tracer::new(false);
        let mut run = Run::new(&args, &tr);
        let graph = attach_weights(&model::spec(w.scale).unwrap(), args.seed).unwrap();
        run.expected = model::digests(&graph, &run.engine, &run.pool).unwrap();
        let mut workers = Workers::Local(vec![(BatchScratch::default(), Vec::new())]);
        let dur = Duration::from_millis(50);
        let good = run.phase(&graph, &mut workers, None, dur);
        run.tally.phase(&good);
        assert!(good.sent() > 0 && good.ok() == good.sent());
        assert!(run.tally.correct());
        for d in &mut run.expected {
            *d ^= 1;
        }
        let bad = run.phase(&graph, &mut workers, Some(1000.0), dur);
        run.tally.phase(&bad);
        assert!(bad.sent() > 0 && bad.wrong() == bad.sent());
        assert_eq!(run.tally.mismatches, bad.sent());
        assert!(!run.tally.correct());
    }

    #[test]
    fn rates_are_shares_of_capacity() {
        for w in WORKLOADS {
            let ladder = w.ladder();
            assert!(ladder.windows(2).all(|p| p[0] < p[1]), "{}", w.name);
            assert!(ladder.contains(&w.low()) && ladder.contains(&w.high()));
            assert!(w.low() < w.high() && w.high() < w.capacity);
            assert!(w.limit_ms() >= TAIL_FLOOR_MS.max(w.service_ms));
            assert_eq!(POOL % w.unit, 0);
        }
    }

    #[test]
    fn round_samples_survive_the_process_boundary() {
        let phase = |lat: &[f64], failed: usize| {
            let mut ops: Vec<Op> = lat
                .iter()
                .map(|&latency_ms| Op {
                    idx: 0,
                    lateness_ms: 0.0,
                    latency_ms,
                    status: Status::Ok,
                })
                .collect();
            ops.extend((0..failed).map(|_| Op {
                idx: 0,
                lateness_ms: 0.0,
                latency_ms: 0.0,
                status: Status::Wrong,
            }));
            Phase { ops, wall_s: 0.5 }
        };
        let s = Samples {
            setup_s: vec![0.25],
            compress_s: vec![0.125],
            deploy_ms: vec![30.5],
            closed_rate: vec![1000.0 / 3.0],
            closed: phase(&[1.0, 2.0, 3.0], 0),
            low: phase(&[0.5], 1),
            high: phase(&[], 0),
            ..Samples::default()
        };
        let mut tally = Tally::default();
        for p in [&s.closed, &s.low, &s.high] {
            tally.phase(p);
        }
        assert_eq!((tally.attempted, tally.failed, tally.mismatches), (5, 1, 1));
        let mut back_tally = Tally::default();
        let back = Samples::decode(&s.encode(&tally), &mut back_tally).unwrap();
        assert_eq!(back.setup_s, s.setup_s);
        assert_eq!(back.closed_rate, s.closed_rate);
        assert_eq!(back.closed.latency(), s.closed.latency());
        assert_eq!((back.low.sent(), back.low.ok()), (2, 1));
        assert_eq!(back.high.sent(), 0);
        assert_eq!(
            (
                back_tally.attempted,
                back_tally.failed,
                back_tally.mismatches
            ),
            (5, 1, 1)
        );
        assert!(!back_tally.correct());
        assert!(Samples::decode("bogus 1", &mut back_tally).is_err());
    }
}
