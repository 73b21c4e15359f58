//! The persistent worker pool behind [`crate::engine::Engine`].
//!
//! The engine's first thread pool forked and joined scoped OS threads on
//! every dispatch; at µs-scale op granularity the spawn/join cost dwarfed
//! the compute and every multi-thread configuration *regressed* versus one
//! thread. This module replaces it with a process-wide pool:
//!
//! * **Persistent workers, parked on a condvar** — one pool of
//!   `available_parallelism() - 1` workers is spawned on first use and
//!   lives for the process. Between jobs the workers sleep in
//!   [`Condvar::wait`]; waking one costs a futex wake, not a `clone(2)`.
//! * **Chunked jobs with atomic tail-stealing** — a job is a contiguous
//!   index range pre-split into more chunks than workers. Workers (and the
//!   dispatching thread, which always participates) claim chunks with one
//!   `fetch_add` each, so a slow worker's tail chunks are stolen by fast
//!   ones and no chunk is ever run twice.
//! * **Shared by everything** — the pool is global, so one set of workers
//!   serves every [`crate::engine::Engine`], every layer, every batch, and
//!   any number of concurrent callers. Jobs from concurrent dispatchers
//!   queue up and drain in submission order; a dispatcher only blocks on
//!   *its own* job's completion.
//! * **No allocation per dispatch** — a job lives in its dispatcher's
//!   stack frame, and the queue holds only its address, so a warmed
//!   forward performs no heap allocation at any thread count.
//!
//! The pool intentionally has no unpark/shutdown API: workers are idle
//! (parked) whenever no job is queued, and the process exit tears them
//! down. Dispatch from inside a worker is not supported (the engine never
//! nests parallel sections — the chunks of a split batch run
//! single-threaded engines), and would merely run inline if attempted,
//! because workers are not counted as dispatchers.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Stack size for pool workers: the band kernels are flat loops with a few
/// KB of locals, so 512 KiB leaves two orders of magnitude of headroom.
const WORKER_STACK_BYTES: usize = 512 * 1024;

/// Lock a pool mutex, ignoring poisoning. Chunk panics are caught before
/// they can reach a pool lock, and every update under one (a queue push
/// or retain, a counter increment, a first panic payload stored) leaves
/// the data valid; ignoring poisoning keeps the dispatcher from ever
/// unwinding while its job is still queued.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One submitted parallel job: `chunks` indices handed out by `fetch_add`
/// on `next`, run through the type-erased `run` pointer.
///
/// The job lives in its dispatcher's stack frame, so a dispatch allocates
/// nothing. The queue and the workers reach it through a raw pointer,
/// which the completion protocol keeps valid: a worker can only join
/// while the job is queued, the dispatcher retires the job before it
/// waits, and it returns only once every joined worker has left.
struct Job {
    /// Type-erased pointer to the dispatcher's chunk closure.
    run: *const (dyn Fn(usize) + Sync),
    /// Total number of chunks.
    chunks: usize,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Workers that have joined this job (capped at `max_workers`). Only
    /// changed under the queue lock, so it is final once the job is
    /// retired from the queue.
    joined: AtomicUsize,
    /// Maximum number of *pool workers* that may join (the dispatcher is
    /// always an extra participant on top).
    max_workers: usize,
    /// First panic payload caught in a chunk closure. A panicking chunk
    /// still counts as run (so the dispatcher never deadlocks and the
    /// worker thread survives); the dispatcher rethrows the payload once
    /// no worker references the job any more.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Joined workers that are done with the job: every chunk they
    /// claimed has run, and they never touch the job again.
    left: Mutex<usize>,
    left_cv: Condvar,
}

// SAFETY: `run` points at a `Sync` closure and is only called through
// `drain` for claimed chunks, while the dispatcher waits in `dispatch`
// (see `Job`); every other field is an atomic, a plain value set before
// the job is queued, or a `Mutex`/`Condvar`.
unsafe impl Sync for Job {}

impl Job {
    /// Whether every chunk has been claimed (not necessarily completed).
    fn drained(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.chunks
    }

    /// Try to reserve a worker slot on this job.
    fn try_join(&self) -> bool {
        let mut cur = self.joined.load(Ordering::Relaxed);
        while cur < self.max_workers {
            match self.joined.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
        false
    }

    /// Claim and run chunks until none are left to claim.
    ///
    /// # Safety
    ///
    /// The dispatcher must still be inside [`WorkerPool::dispatch`] for
    /// this job: it is the caller itself, or the caller joined the job
    /// while it was queued and has not yet [left](Self::leave).
    unsafe fn drain(&self) {
        loop {
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.chunks {
                return;
            }
            // SAFETY: `chunk` was claimed exactly once and the dispatcher
            // is still parked in `dispatch`, so the closure is alive.
            // A panic is contained here — never unwound through the pool —
            // so a panicking chunk can neither kill a worker nor let the
            // dispatcher unwind out of `dispatch` while a worker still
            // references its stack frame.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| unsafe { (*self.run)(chunk) })) {
                lock(&self.panic).get_or_insert(payload);
            }
        }
    }

    /// A joined worker's last touch of the job, after its [`Self::drain`].
    fn leave(&self) {
        let mut left = lock(&self.left);
        *left += 1;
        self.left_cv.notify_one();
    }
}

/// A queued job's address.
#[derive(Clone, Copy)]
struct JobRef(*const Job);

// SAFETY: the one field is the address of a `Sync` job, and a `JobRef`
// is only dereferenced while that job is queued (under the queue lock)
// or joined (see `Job`).
unsafe impl Send for JobRef {}

/// Queue state shared between dispatchers and workers.
#[derive(Default)]
struct Queue {
    jobs: Vec<JobRef>,
}

/// The shared pool: job queue plus the condvar workers park on.
struct Shared {
    queue: Mutex<Queue>,
    work_cv: Condvar,
}

/// A persistent pool of parked worker threads (see the module docs).
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    /// Spawned worker count (`hw_threads - 1`, possibly zero).
    workers: usize,
    /// Cached `available_parallelism()`.
    hw_threads: usize,
}

impl WorkerPool {
    /// The process-wide pool, spawned on first use: one worker per
    /// hardware thread beyond the callers' own.
    pub(crate) fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let hw_threads = thread::available_parallelism().map_or(1, usize::from);
            WorkerPool::with_workers(hw_threads - 1, hw_threads)
        })
    }

    /// A pool with an explicit worker count (tests force real workers even
    /// on single-core machines; production code uses [`Self::global`]).
    pub(crate) fn with_workers(workers: usize, hw_threads: usize) -> WorkerPool {
        // Room for a few concurrent dispatchers up front; the queue keeps
        // whatever capacity it grows to, so queueing never allocates once
        // the process has seen its peak concurrency.
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: Vec::with_capacity(8),
            }),
            work_cv: Condvar::new(),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("bitnn-pool-{i}"))
                .stack_size(WORKER_STACK_BYTES)
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
        }
        WorkerPool {
            shared,
            workers,
            hw_threads,
        }
    }

    /// Hardware parallelism observed at pool creation.
    pub(crate) fn hw_threads(&self) -> usize {
        self.hw_threads
    }

    /// Run `run(chunk)` for every `chunk in 0..chunks`, each exactly once,
    /// using up to `max_workers` pool workers alongside the calling thread.
    /// Blocks until every chunk has completed. With no workers to enlist
    /// (or a single chunk) everything runs inline on the calling thread.
    /// Performs no heap allocation.
    pub(crate) fn dispatch(&self, chunks: usize, max_workers: usize, run: &(dyn Fn(usize) + Sync)) {
        let max_workers = max_workers.min(self.workers);
        if chunks <= 1 || max_workers == 0 {
            for chunk in 0..chunks {
                run(chunk);
            }
            return;
        }
        let job = Job {
            // Erase the borrow's lifetime so parked workers can reach the
            // closure; see `Job` — every dereference happens before this
            // function returns. SAFETY: only the lifetime changes.
            run: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(run)
            },
            chunks,
            next: AtomicUsize::new(0),
            joined: AtomicUsize::new(0),
            max_workers,
            panic: Mutex::new(None),
            left: Mutex::new(0),
            left_cv: Condvar::new(),
        };
        let this = JobRef(&job);
        lock(&self.shared.queue).jobs.push(this);
        if max_workers == 1 {
            self.shared.work_cv.notify_one();
        } else {
            self.shared.work_cv.notify_all();
        }
        // The dispatcher always participates; with tail-stealing it
        // typically claims the lion's share and never parks at all.
        // SAFETY: we are the dispatcher.
        unsafe { job.drain() };
        // Every chunk is claimed. Retire the job so no further worker can
        // join; `joined` is final from here on.
        let joined = {
            let mut queue = lock(&self.shared.queue);
            queue.jobs.retain(|j| !std::ptr::eq(j.0, this.0));
            job.joined.load(Ordering::Relaxed)
        };
        // Each joined worker leaves only after the chunks it claimed have
        // run, so once all have left every chunk is complete and nothing
        // references this stack frame — then rethrow the first chunk
        // panic on the dispatcher.
        let mut left = lock(&job.left);
        while *left < joined {
            left = job
                .left_cv
                .wait(left)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(left);
        let payload = lock(&job.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// Body of one pool worker: park until a joinable job appears, drain it,
/// repeat forever (the process exit reaps the thread).
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                // SAFETY: a queued job's dispatcher has not retired it, so
                // it is alive; joining happens under the same lock.
                if let Some(job) = queue
                    .jobs
                    .iter()
                    .find(|j| unsafe { !(*j.0).drained() && (*j.0).try_join() })
                {
                    break *job;
                }
                queue = shared
                    .work_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: this worker joined the job while it was queued, and its
        // dispatcher waits for it to leave before returning.
        let job = unsafe { &*job.0 };
        unsafe { job.drain() };
        job.leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A test pool with real workers regardless of the host's core count,
    /// so the claim/steal/park paths are exercised even on 1-core CI.
    fn test_pool() -> WorkerPool {
        WorkerPool::with_workers(3, 4)
    }

    #[test]
    fn dispatch_runs_every_chunk_exactly_once() {
        let pool = test_pool();
        for chunks in [0usize, 1, 2, 7, 64, 257] {
            let counts: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
            pool.dispatch(chunks, 8, &|c| {
                counts[c].fetch_add(1, Ordering::Relaxed);
            });
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "chunk {i} of {chunks}");
            }
        }
    }

    #[test]
    fn dispatch_with_zero_workers_runs_inline() {
        let pool = WorkerPool::with_workers(0, 1);
        let sum = AtomicU64::new(0);
        pool.dispatch(16, 8, &|c| {
            sum.fetch_add(c as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..16).sum::<u64>());
        assert_eq!(pool.hw_threads(), 1);
    }

    #[test]
    fn concurrent_dispatchers_share_the_pool() {
        let pool = &test_pool();
        thread::scope(|s| {
            for t in 0..4usize {
                s.spawn(move || {
                    for round in 0..50 {
                        let chunks = 1 + (t * 7 + round) % 23;
                        let hits = AtomicUsize::new(0);
                        pool.dispatch(chunks, 4, &|_| {
                            hits.fetch_add(1, Ordering::Relaxed);
                        });
                        assert_eq!(hits.load(Ordering::Relaxed), chunks);
                    }
                });
            }
        });
    }

    #[test]
    fn back_to_back_jobs_in_one_stack_slot_stay_separate() {
        // Every dispatch from this loop builds its job at the same stack
        // address. A dispatcher returning before its workers are done
        // would miss their chunks, and a worker still touching the
        // previous job would claim chunks of the next one, so some chunk
        // would run twice or never. The worker's chunk and the
        // dispatcher's wait for each other to start, and the worker's
        // then runs on a while, so the dispatcher runs out of chunks first.
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let wait_for = |flag: &AtomicBool| {
            let t = Instant::now();
            while !flag.load(Ordering::Acquire) && t.elapsed() < Duration::from_millis(5) {}
        };
        let pool = WorkerPool::with_workers(1, 2);
        let mut on_worker = 0;
        for round in 0..300usize {
            let chunks = 2 + round % 5;
            let counts: [AtomicUsize; 6] = Default::default();
            let (worker_ran, dispatcher_ran) = (AtomicBool::new(false), AtomicBool::new(false));
            pool.dispatch(chunks, 1, &|c| {
                if thread::current().name() == Some("bitnn-pool-0") {
                    worker_ran.store(true, Ordering::Release);
                    wait_for(&dispatcher_ran);
                    let t = Instant::now();
                    while t.elapsed() < Duration::from_micros(100) {}
                } else {
                    wait_for(&worker_ran);
                    dispatcher_ran.store(true, Ordering::Release);
                }
                counts[c].fetch_add(1, Ordering::Relaxed);
            });
            for (c, n) in counts.iter().enumerate() {
                let want = usize::from(c < chunks);
                assert_eq!(n.load(Ordering::Relaxed), want, "round {round} chunk {c}");
            }
            on_worker += usize::from(worker_ran.into_inner());
        }
        assert!(on_worker > 0, "the pool worker never joined");
    }

    #[test]
    fn max_workers_caps_pool_participation() {
        // With max_workers = 1 at most one pool worker joins; the job
        // still completes because the dispatcher always participates.
        let pool = test_pool();
        let hits = AtomicUsize::new(0);
        pool.dispatch(32, 1, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn chunk_panic_propagates_to_dispatcher_and_pool_survives() {
        let pool = test_pool();
        // A panicking chunk must surface on the dispatcher as a normal
        // panic — not a deadlock, not a dead worker, not a dangling job.
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(16, 3, &|c| {
                if c == 7 {
                    panic!("chunk 7 exploded");
                }
            });
        }));
        let payload = result.expect_err("chunk panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("chunk 7"), "wrong payload: {msg}");
        // Every worker survived containment: the pool still drains full
        // jobs afterwards.
        for _ in 0..3 {
            let hits = AtomicUsize::new(0);
            pool.dispatch(32, 3, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 32);
        }
    }

    #[test]
    fn heavy_chunks_complete_before_dispatch_returns() {
        // Chunks that actually compute: the dispatcher must observe every
        // write made by workers (completion is an AcqRel handshake).
        let pool = test_pool();
        let mut out = vec![0u64; 1024];
        let base = out.as_mut_ptr() as usize;
        pool.dispatch(64, 3, &|c| {
            for i in 0..16 {
                // SAFETY: disjoint 16-element bands per chunk index.
                unsafe { *(base as *mut u64).add(c * 16 + i) = (c * 16 + i) as u64 + 1 };
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1);
        }
    }
}
