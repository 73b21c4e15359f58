//! The serving core: a model registry with per-entry batching queues.
//!
//! One [`Server`] owns a shared [`Engine`] and a registry of named
//! models. Each entry gets a **batch worker** thread and a bounded
//! request queue:
//!
//! * **Coalescing** — the worker drains up to `max_batch` queued
//!   requests into one [`ModelGraph::forward_batch_into`] call. The cap
//!   comes from the per-plan workload model
//!   ([`ModelGraph::preferred_batch`]) unless pinned in
//!   [`ServeConfig::max_batch`]; the flush rule is size-or-deadline
//!   (a partial batch flushes after [`ServeConfig::flush`]).
//! * **Backpressure** — a submit finding `queue_depth` requests already
//!   queued is rejected immediately with the typed
//!   [`ServeError::QueueFull`]; the queue never grows without bound.
//! * **Zero-allocation warm path** — request cells, queue storage, the
//!   worker's batch buffers, and the [`BatchScratch`] slots are all
//!   reused, so a warmed request (submit → coalesce → forward →
//!   respond) performs no heap allocation end to end. The counting-
//!   allocator gate in `tests/alloc_steady_state.rs` enforces this.
//! * **Hot-swap** — [`Server::swap_bytes`] atomically replaces an
//!   entry's current [`ModelEntry`]; batches in flight keep their `Arc`
//!   to the old version, queued requests are served by the new one, and
//!   every response reports the version that actually served it.
//! * **Graceful drain** — [`Server::shutdown`] rejects new submits,
//!   lets the workers flush everything already queued, and joins them;
//!   no accepted request is ever dropped.

use crate::error::{Result, ServeError};
use crate::registry::{check_swap_compatible, deploy_bytes, shape_of, ModelEntry, ModelShape};
use bitnn::graph::BatchScratch;
use bitnn::{Engine, ExecPolicy, Tensor};
use kc_core::wire::{ModelInfo, StatsReport};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest batch the coalescer will ever form (matches the cap in
/// [`bitnn::ModelGraph::preferred_batch`]); also sizes the batch
/// histogram.
pub const MAX_BATCH: usize = 64;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Execution policy for the shared engine (threads, `min_work`).
    pub policy: ExecPolicy,
    /// Backpressure threshold: submits beyond this many *queued*
    /// requests are rejected with [`ServeError::QueueFull`].
    pub queue_depth: usize,
    /// Coalescing cap; `0` derives it from the per-plan workload model
    /// ([`bitnn::ModelGraph::preferred_batch`]).
    pub max_batch: usize,
    /// How long a partial batch may wait for more requests before the
    /// worker flushes it anyway.
    pub flush: Duration,
    /// Seed the non-compressed layer weights are regenerated from (the
    /// same convention as `bnnkc run --seed`).
    pub seed: u64,
    /// Input image side for spec-less v1 containers (v2/v3 embed it).
    pub image: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            policy: ExecPolicy::default(),
            queue_depth: 256,
            max_batch: 0,
            flush: Duration::from_micros(200),
            seed: 1,
            image: 32,
        }
    }
}

/// What a request cell is currently doing. The transitions are
/// `Idle → Queued → Done|Failed → Idle`, always under the cell mutex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Queued,
    Done,
    Failed,
}

/// Shared request state: the client writes `input`, the batch worker
/// writes `output`/`version`, both reused across requests.
#[derive(Debug)]
struct CellState {
    input: Tensor,
    output: Tensor,
    version: u32,
    phase: Phase,
}

#[derive(Debug)]
struct Cell {
    m: Mutex<CellState>,
    cv: Condvar,
}

/// A client-owned, reusable request slot. Create one per client thread
/// and pass it to every [`Server::infer_blocking`] call: after the first
/// warm-up request its tensors are sized and the per-request path stops
/// allocating.
#[derive(Debug)]
pub struct InferSlot {
    cell: Arc<Cell>,
}

impl InferSlot {
    /// A fresh slot (unsized until its first request).
    pub fn new() -> Self {
        InferSlot {
            cell: Arc::new(Cell {
                m: Mutex::new(CellState {
                    input: Tensor::default(),
                    output: Tensor::default(),
                    version: 0,
                    phase: Phase::Idle,
                }),
                cv: Condvar::new(),
            }),
        }
    }
}

impl Default for InferSlot {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Debug)]
struct SlotQueue {
    q: VecDeque<Arc<Cell>>,
    /// When the oldest queued request arrived (the flush deadline base).
    first_at: Instant,
    draining: bool,
}

/// One registry entry: its queue, its batch worker's wakeup, and the
/// atomically swappable current model version.
#[derive(Debug)]
struct Slot {
    name: String,
    queue: Mutex<SlotQueue>,
    cv: Condvar,
    current: RwLock<Arc<ModelEntry>>,
    shape: ModelShape,
    max_batch: usize,
    queue_depth: usize,
    /// Maintenance hold: a paused worker keeps queueing requests (up to
    /// the backpressure limit) but does not flush batches.
    paused: AtomicBool,
}

#[derive(Debug)]
struct Counters {
    served: AtomicU64,
    batches: AtomicU64,
    rejected: AtomicU64,
    swaps: AtomicU64,
    hist: [AtomicU64; MAX_BATCH + 1],
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            served: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

#[derive(Debug)]
struct Inner {
    cfg: ServeConfig,
    engine: Engine,
    models: RwLock<HashMap<String, Arc<Slot>>>,
    stats: Counters,
}

/// The serving daemon core (transport-agnostic; see [`crate::net`] for
/// the wire front end).
#[derive(Debug)]
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Copy `src` into `dst`, reusing `dst`'s buffer when the shapes
/// already match (the steady-state case on the serve path).
fn copy_tensor(src: &Tensor, dst: &mut Tensor) {
    if dst.shape() == src.shape() {
        dst.data_mut().copy_from_slice(src.data());
    } else {
        *dst = src.clone();
    }
}

impl Server {
    /// A server with no models registered yet.
    pub fn new(cfg: ServeConfig) -> Self {
        let engine = Engine::new(cfg.policy);
        Server {
            inner: Arc::new(Inner {
                cfg,
                engine,
                models: RwLock::new(HashMap::new()),
                stats: Counters::default(),
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// The engine all entries execute on.
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// Register a model from container bytes under `name` and start its
    /// batch worker.
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateModel`] if the name is taken,
    /// [`ServeError::Container`] for undecodable/tampered containers.
    pub fn register_bytes(&self, name: &str, bytes: &[u8]) -> Result<ModelShape> {
        let cfg = &self.inner.cfg;
        let entry = deploy_bytes(bytes, &self.inner.engine, cfg.seed, cfg.image, 1)?;
        let shape = shape_of(&entry.graph)?;
        let max_batch = match cfg.max_batch {
            0 => entry.graph.preferred_batch(&cfg.policy),
            n => n.min(MAX_BATCH),
        }
        .max(1);
        let slot = Arc::new(Slot {
            name: name.to_string(),
            queue: Mutex::new(SlotQueue {
                q: VecDeque::with_capacity(cfg.queue_depth + 1),
                first_at: Instant::now(),
                draining: false,
            }),
            cv: Condvar::new(),
            current: RwLock::new(Arc::new(entry)),
            shape,
            max_batch,
            queue_depth: cfg.queue_depth.max(1),
            paused: AtomicBool::new(false),
        });
        {
            let mut models = self.inner.models.write().expect("registry lock");
            if models.contains_key(name) {
                return Err(ServeError::DuplicateModel(name.to_string()));
            }
            models.insert(name.to_string(), slot.clone());
        }
        let inner = self.inner.clone();
        let handle = std::thread::Builder::new()
            .name(format!("bnnkc-serve:{name}"))
            .spawn(move || batch_worker(&inner, &slot))
            .expect("spawn batch worker");
        self.workers.lock().expect("workers lock").push(handle);
        Ok(shape)
    }

    /// Register a model from a container file.
    ///
    /// # Errors
    ///
    /// As [`Self::register_bytes`], plus [`ServeError::Io`].
    pub fn register_path(&self, name: &str, path: &std::path::Path) -> Result<ModelShape> {
        let bytes = std::fs::read(path)?;
        self.register_bytes(name, &bytes)
    }

    fn slot(&self, model: &str) -> Result<Arc<Slot>> {
        self.inner
            .models
            .read()
            .expect("registry lock")
            .get(model)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))
    }

    /// Requests queued (not yet batched) for `model` right now.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`].
    pub fn queue_len(&self, model: &str) -> Result<usize> {
        let slot = self.slot(model)?;
        let g = slot.queue.lock().expect("queue lock");
        Ok(g.q.len())
    }

    /// Submit one input and block until its response. `slot` is the
    /// caller's reusable request cell; the logits land in `out` (also
    /// reused). Returns the version of the model that served the
    /// request.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] under backpressure,
    /// [`ServeError::ShuttingDown`] during drain,
    /// [`ServeError::UnknownModel`] / [`ServeError::ShapeMismatch`] for
    /// bad requests, [`ServeError::Internal`] if the batch forward
    /// failed.
    pub fn infer_blocking(
        &self,
        model: &str,
        slot: &mut InferSlot,
        input: &Tensor,
        out: &mut Tensor,
    ) -> Result<u32> {
        let mslot = self.slot(model)?;
        let expected = mslot.shape.input_shape();
        if input.shape() != expected {
            return Err(ServeError::ShapeMismatch {
                expected,
                got: input.shape().to_vec(),
            });
        }
        let cell = &slot.cell;
        {
            let mut cs = cell.m.lock().expect("cell lock");
            copy_tensor(input, &mut cs.input);
            cs.phase = Phase::Queued;
        }
        {
            let mut g = mslot.queue.lock().expect("queue lock");
            if g.draining {
                cell.m.lock().expect("cell lock").phase = Phase::Idle;
                return Err(ServeError::ShuttingDown);
            }
            if g.q.len() >= mslot.queue_depth {
                cell.m.lock().expect("cell lock").phase = Phase::Idle;
                self.inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::QueueFull);
            }
            if g.q.is_empty() {
                g.first_at = Instant::now();
            }
            g.q.push_back(cell.clone());
            mslot.cv.notify_one();
        }
        let mut cs = cell.m.lock().expect("cell lock");
        while cs.phase == Phase::Queued {
            cs = cell.cv.wait(cs).expect("cell wait");
        }
        let result = match cs.phase {
            Phase::Done => {
                copy_tensor(&cs.output, out);
                Ok(cs.version)
            }
            _ => Err(ServeError::Internal("batch forward failed")),
        };
        cs.phase = Phase::Idle;
        result
    }

    /// Atomically replace `model`'s entry with a new container version.
    /// Queued requests and batches in flight are unaffected: in-flight
    /// batches finish on the version they started with, queued requests
    /// are served by the new one, and no request is dropped. The new
    /// monotonic version is returned.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`], [`ServeError::Container`] — the
    /// latter with [`kc_core::KcError::IncompatibleModel`] for
    /// arch/scale-incompatible candidates.
    pub fn swap_bytes(&self, model: &str, bytes: &[u8]) -> Result<u32> {
        let slot = self.slot(model)?;
        let cfg = &self.inner.cfg;
        let current = slot.current.read().expect("current lock").clone();
        let next_version = current.version + 1;
        let entry = deploy_bytes(
            bytes,
            &self.inner.engine,
            cfg.seed,
            slot.shape.image,
            next_version,
        )?;
        check_swap_compatible(&current.graph, &entry.graph)?;
        *slot.current.write().expect("current lock") = Arc::new(entry);
        self.inner.stats.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(next_version)
    }

    /// [`Self::swap_bytes`] from a container file.
    ///
    /// # Errors
    ///
    /// As [`Self::swap_bytes`], plus [`ServeError::Io`].
    pub fn swap_path(&self, model: &str, path: &std::path::Path) -> Result<u32> {
        let bytes = std::fs::read(path)?;
        self.swap_bytes(model, &bytes)
    }

    /// Hold `model`'s batch worker: requests keep queueing (up to the
    /// backpressure limit) but no batch flushes until [`Self::resume`].
    /// A maintenance window primitive; the backpressure tests use it to
    /// fill queues deterministically.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`].
    pub fn pause(&self, model: &str) -> Result<()> {
        self.slot(model)?.paused.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Release a [`Self::pause`]d worker.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`].
    pub fn resume(&self, model: &str) -> Result<()> {
        let slot = self.slot(model)?;
        slot.paused.store(false, Ordering::SeqCst);
        slot.cv.notify_all();
        Ok(())
    }

    /// Daemon counters and the registry contents, in the wire report
    /// shape.
    pub fn stats_report(&self) -> StatsReport {
        let s = &self.inner.stats;
        let mut models: Vec<ModelInfo> = self
            .inner
            .models
            .read()
            .expect("registry lock")
            .values()
            .map(|slot| {
                let queued = slot.queue.lock().expect("queue lock").q.len();
                let version = slot.current.read().expect("current lock").version;
                ModelInfo {
                    name: slot.name.clone(),
                    version,
                    channels: slot.shape.channels as u32,
                    image: slot.shape.image as u32,
                    classes: slot.shape.classes as u32,
                    queued: queued as u32,
                    queue_depth: slot.queue_depth as u32,
                    max_batch: slot.max_batch as u32,
                }
            })
            .collect();
        models.sort_by(|a, b| a.name.cmp(&b.name));
        let batch_hist = s
            .hist
            .iter()
            .enumerate()
            .filter_map(|(size, c)| match c.load(Ordering::Relaxed) {
                0 => None,
                n => Some((size as u32, n)),
            })
            .collect();
        StatsReport {
            served: s.served.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            swaps: s.swaps.load(Ordering::Relaxed),
            models,
            batch_hist,
        }
    }

    /// Begin a graceful drain: new submits are rejected with
    /// [`ServeError::ShuttingDown`], every already-queued request is
    /// still served, and the batch workers exit once their queues are
    /// empty. Blocks until all workers have been joined. Idempotent.
    pub fn begin_drain(&self) {
        let slots: Vec<Arc<Slot>> = self
            .inner
            .models
            .read()
            .expect("registry lock")
            .values()
            .cloned()
            .collect();
        for slot in &slots {
            let mut g = slot.queue.lock().expect("queue lock");
            g.draining = true;
            // Drain overrides pause: a paused worker must still flush.
            slot.paused.store(false, Ordering::SeqCst);
            slot.cv.notify_all();
        }
        let handles: Vec<JoinHandle<()>> = self
            .workers
            .lock()
            .expect("workers lock")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Consume the server after a graceful drain (see
    /// [`Self::begin_drain`]).
    pub fn shutdown(self) {
        self.begin_drain();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_drain();
    }
}

/// The per-entry batch worker: gather-coalesce-forward-respond until
/// drained.
fn batch_worker(inner: &Inner, slot: &Slot) {
    let engine = &inner.engine;
    let flush = inner.cfg.flush;
    let mut scratch = BatchScratch::default();
    let mut cells: Vec<Arc<Cell>> = Vec::with_capacity(slot.max_batch);
    let mut inputs: Vec<Tensor> = Vec::with_capacity(slot.max_batch);
    let mut outs: Vec<Tensor> = Vec::new();
    loop {
        // Gather one batch (or learn that the drain is complete).
        {
            let mut g = slot.queue.lock().expect("queue lock");
            loop {
                if g.draining {
                    if g.q.is_empty() {
                        return;
                    }
                    break; // flush immediately during drain
                }
                let paused = slot.paused.load(Ordering::SeqCst);
                if !paused && g.q.len() >= slot.max_batch {
                    break;
                }
                if !paused && !g.q.is_empty() {
                    let elapsed = g.first_at.elapsed();
                    if elapsed >= flush {
                        break;
                    }
                    let (g2, _) = slot
                        .cv
                        .wait_timeout(g, flush - elapsed)
                        .expect("worker wait");
                    g = g2;
                } else {
                    g = slot.cv.wait(g).expect("worker wait");
                }
            }
            let n = g.q.len().min(slot.max_batch);
            cells.clear();
            cells.extend(g.q.drain(..n));
            if !g.q.is_empty() {
                g.first_at = Instant::now();
            }
        }
        let n = cells.len();
        if n == 0 {
            continue;
        }
        // The whole batch runs on one version: snapshot it before the
        // forward so a concurrent swap cannot tear the batch.
        let entry = slot.current.read().expect("current lock").clone();
        if inputs.len() < n {
            inputs.resize_with(n, Tensor::default);
        }
        for (cell, dst) in cells.iter().zip(inputs.iter_mut()) {
            let cs = cell.m.lock().expect("cell lock");
            copy_tensor(&cs.input, dst);
        }
        let result = entry
            .graph
            .forward_batch_into(&inputs[..n], engine, &mut scratch, &mut outs);
        // Stats go first: by the time a client sees its response, the
        // counters already include it.
        let stats = &inner.stats;
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats.hist[n.min(MAX_BATCH)].fetch_add(1, Ordering::Relaxed);
        if result.is_ok() {
            stats.served.fetch_add(n as u64, Ordering::Relaxed);
        }
        for (i, cell) in cells.iter().enumerate() {
            let mut cs = cell.m.lock().expect("cell lock");
            match &result {
                Ok(()) => {
                    copy_tensor(&outs[i], &mut cs.output);
                    cs.version = entry.version;
                    cs.phase = Phase::Done;
                }
                Err(_) => cs.phase = Phase::Failed,
            }
            cell.cv.notify_one();
        }
        cells.clear();
    }
}
