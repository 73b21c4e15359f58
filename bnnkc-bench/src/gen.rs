//! The load generator: closed loops and open-loop arrival schedules
//! over a fixed set of workers (never more than the host's hardware
//! threads).
//!
//! In an open loop, operation `i` is due at `start + i / rate` whatever
//! happened before it. A free worker takes the next operation, sleeps
//! until it is due, and runs it; each operation is timed from when it was
//! *due*, so a stall counts against every operation it delays, and the
//! generator reports how late it sent (`lateness`).

use crate::stats::{self, Summary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Answered with the expected output.
    Ok,
    /// Answered, but the output differs from its oracle.
    Wrong,
    /// Errored or was refused: no output to check.
    Failed,
}

impl Status {
    /// `Ok` when the output matches, `Wrong` when it does not.
    pub fn matches(ok: bool) -> Status {
        if ok {
            Status::Ok
        } else {
            Status::Wrong
        }
    }
}

/// One timed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Index in the phase's schedule.
    pub idx: u64,
    /// Send time minus due time, ms (0 in a closed loop).
    pub lateness_ms: f64,
    /// Completion time minus due time (open loop) or send time (closed
    /// loop), ms.
    pub latency_ms: f64,
    /// How the operation ended.
    pub status: Status,
}

/// All operations of one phase.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Operations, in schedule order.
    pub ops: Vec<Op>,
    /// Wall time of the phase, s.
    pub wall_s: f64,
}

impl Phase {
    /// Operations attempted.
    pub fn sent(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Operations that succeeded.
    pub fn ok(&self) -> u64 {
        self.count(Status::Ok)
    }

    /// Operations that answered with a wrong output.
    pub fn wrong(&self) -> u64 {
        self.count(Status::Wrong)
    }

    fn count(&self, status: Status) -> u64 {
        self.ops.iter().filter(|o| o.status == status).count() as u64
    }

    /// Operations that failed, were refused, or answered wrongly.
    pub fn failed(&self) -> u64 {
        self.sent() - self.ok()
    }

    /// Latency summary over the successful operations.
    pub fn latency(&self) -> Summary {
        let v: Vec<f64> = self
            .ops
            .iter()
            .filter(|o| o.status == Status::Ok)
            .map(|o| o.latency_ms)
            .collect();
        stats::summarize(&v)
    }

    /// Lateness summary over every operation.
    pub fn lateness(&self) -> Summary {
        let v: Vec<f64> = self.ops.iter().map(|o| o.lateness_ms).collect();
        stats::summarize(&v)
    }

    /// Lateness in schedule order, for the backlog test.
    pub fn lateness_series(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.lateness_ms).collect()
    }

    /// Successful operations per second of wall time.
    pub fn rate(&self) -> f64 {
        self.ok() as f64 / self.wall_s
    }

    /// Append another phase's operations (re-indexed after this one's).
    pub fn extend(&mut self, other: Phase) {
        let base = self.ops.len() as u64;
        self.ops.extend(other.ops.into_iter().map(|o| Op {
            idx: base + o.idx,
            ..o
        }));
        self.wall_s += other.wall_s;
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `call` over `states.len()` workers, one per state (states persist
/// across phases, so buffers and connections stay warm). With a `rate`
/// the schedule is open-loop at that aggregate rate; without one every
/// worker sends its next operation as soon as its last one completes.
/// Either way no operation is started after `duration`.
pub fn run<S, F>(states: &mut [S], rate: Option<f64>, duration: Duration, call: F) -> Phase
where
    S: Send,
    F: Fn(&mut S, u64) -> Status + Sync,
{
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let end = start + duration;
    let interval = rate.map(|r| Duration::from_secs_f64(1.0 / r));
    let mut ops: Vec<Op> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                let (next, call) = (&next, &call);
                scope.spawn(move || {
                    let mut ops = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let due = match interval {
                            Some(step) => start + step.mul_f64(idx as f64),
                            None => Instant::now(),
                        };
                        if due >= end {
                            break;
                        }
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let status = call(state, idx);
                        let done = Instant::now();
                        ops.push(Op {
                            idx,
                            lateness_ms: ms(sent.saturating_duration_since(due)),
                            latency_ms: ms(done.saturating_duration_since(due)),
                            status,
                        });
                    }
                    ops
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator worker panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    ops.sort_by_key(|o| o.idx);
    Phase { ops, wall_s }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_the_due_time() {
        // One worker, 200 ops/s, each op takes 20 ms: the worker falls
        // behind, and latency from the due time grows with the backlog
        // while the service time stays 20 ms.
        let phase = run(
            &mut [()],
            Some(200.0),
            Duration::from_millis(100),
            |_, _| {
                std::thread::sleep(Duration::from_millis(20));
                Status::Ok
            },
        );
        assert!(phase.sent() >= 4);
        let last = phase.ops.last().unwrap();
        assert!(last.lateness_ms > 20.0, "{last:?}");
        assert!(last.latency_ms >= last.lateness_ms + 19.0);
        assert!(stats::lateness_growing(&phase.lateness_series(), 10.0) || phase.sent() < 5);
    }

    #[test]
    fn closed_loop_counts_failures() {
        let mut counts = [0u64, 0];
        let mut phase = run(&mut counts, None, Duration::from_millis(30), |n, idx| {
            *n += 1;
            std::thread::sleep(Duration::from_millis(1));
            [Status::Ok, Status::Failed, Status::Wrong][idx as usize % 3]
        });
        assert!(phase.sent() >= 10);
        assert_eq!(counts.iter().sum::<u64>(), phase.sent());
        assert_eq!(phase.ok() + phase.failed(), phase.sent());
        assert!(phase.failed() > phase.wrong() && phase.wrong() > 0);
        assert!(phase.ops.iter().all(|o| o.lateness_ms < 1.0));
        let sent = phase.sent();
        phase.extend(phase.clone());
        assert_eq!(phase.sent(), 2 * sent);
        assert!(phase.ops.windows(2).all(|w| w[0].idx < w[1].idx));
    }
}
