//! Execution policy and thread-count grammar.
//!
//! Everything here is shared by the executor and by the
//! binaries (`bnnkc`, `perfsuite`): how many workers a dispatch may use
//! and when an op is too small to parallelize. None of it depends on the CPU
//! engine's internals, so the CLI and bench crates import this module
//! instead of [`crate::engine`].

use crate::pool::WorkerPool;
use std::thread;

/// Default [`ExecPolicy::min_work`]: roughly 15 µs of lane-word operations
/// on a current core. Below this, waking even one parked worker costs a
/// measurable fraction of the op itself, so the dispatch runs inline.
pub const DEFAULT_MIN_WORK: u64 = 32 * 1024;

/// Execution policy: worker count and per-dispatch inline threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Number of threads parallel sections may use (≥ 1), counting the
    /// calling thread. `1` means everything runs inline. The effective
    /// count is clamped to the hardware parallelism at dispatch time —
    /// requesting more threads than cores never oversubscribes.
    pub threads: usize,
    /// Minimum estimated work (in lane-word operations) an op must carry
    /// before it is split across workers; smaller dispatches run inline on
    /// the calling thread regardless of `threads`. This is what keeps
    /// tiny ops (short GEMMs, 1×1 convs on small maps) from losing to
    /// their own parallel overhead.
    pub min_work: u64,
}

impl Default for ExecPolicy {
    /// All available hardware parallelism, default inline threshold.
    fn default() -> Self {
        ExecPolicy {
            threads: thread::available_parallelism().map_or(1, usize::from),
            min_work: DEFAULT_MIN_WORK,
        }
    }
}

impl ExecPolicy {
    /// Everything inline on the calling thread.
    pub fn single_threaded() -> Self {
        ExecPolicy {
            threads: 1,
            ..Default::default()
        }
    }

    /// `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        ExecPolicy {
            threads,
            ..Default::default()
        }
    }

    /// The thread count a dispatch of `work` estimated lane-word
    /// operations actually uses: `threads`, clamped by the hardware
    /// parallelism, or 1 when the op is too small to amortize a wakeup.
    pub fn effective_threads(&self, work: u64) -> usize {
        if self.threads <= 1 || work < self.min_work {
            return 1;
        }
        self.threads.min(WorkerPool::global().hw_threads())
    }
}

/// The hardware parallelism dispatches are clamped to: the persistent
/// worker pool's thread budget (the calling thread plus its workers).
pub fn hardware_threads() -> usize {
    WorkerPool::global().hw_threads()
}

/// Parse a `--threads`-style CLI value into a thread count: a positive
/// integer, or `auto` (also the meaning of an absent flag), which
/// resolves to the hardware parallelism. Zero and unparseable values are
/// errors pointing the user at `auto` — never a silent single-threaded
/// run. Shared by every binary exposing a thread flag (`bnnkc run`,
/// `perfsuite`) so the grammar and messages cannot drift apart.
///
/// # Errors
///
/// Returns the user-facing message for `0` or a non-numeric value.
pub fn parse_thread_count(value: Option<&str>) -> std::result::Result<usize, String> {
    match value {
        None | Some("auto") => Ok(thread::available_parallelism().map_or(1, usize::from)),
        Some(v) => match v.parse::<usize>() {
            Ok(0) => Err(
                "--threads must be at least 1; use `--threads auto` to match the hardware".into(),
            ),
            Ok(n) => Ok(n),
            Err(_) => Err(format!(
                "invalid value `{v}` for --threads (a count or `auto`)"
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_constructors() {
        assert_eq!(ExecPolicy::single_threaded().threads, 1);
        assert_eq!(ExecPolicy::with_threads(3).threads, 3);
        assert!(ExecPolicy::default().threads >= 1);
        assert_eq!(ExecPolicy::default().min_work, DEFAULT_MIN_WORK);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        ExecPolicy::with_threads(0);
    }

    #[test]
    fn small_work_runs_inline() {
        // Below min_work the dispatch is pinned to one thread no matter
        // how many threads the policy asks for.
        let policy = ExecPolicy::with_threads(8);
        assert_eq!(policy.effective_threads(0), 1);
        assert_eq!(policy.effective_threads(policy.min_work - 1), 1);
        // At or above the threshold the count is the requested one clamped
        // by hardware parallelism.
        let eff = policy.effective_threads(policy.min_work);
        assert!((1..=8).contains(&eff));
        assert_eq!(ExecPolicy::single_threaded().effective_threads(u64::MAX), 1);
    }

    #[test]
    fn thread_count_grammar() {
        assert!(parse_thread_count(None).unwrap() >= 1);
        assert!(parse_thread_count(Some("auto")).unwrap() >= 1);
        assert_eq!(parse_thread_count(Some("3")).unwrap(), 3);
        assert!(parse_thread_count(Some("0")).is_err());
        assert!(parse_thread_count(Some("lots")).is_err());
    }
}
