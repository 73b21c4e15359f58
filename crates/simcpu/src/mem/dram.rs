//! Main-memory timing: a latency + occupied-channel bandwidth model.
//!
//! Each transfer sees the access latency once and then occupies the
//! channel for `bytes / bandwidth` cycles; concurrent requesters (the CPU
//! and the decoding unit's streaming engine share the channel) queue
//! behind each other's occupancy, which is what throttles the hardware
//! scheme when the compressed stream and the activation traffic collide.

use crate::config::DramConfig;

/// The DRAM channel.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    /// Cycle at which the channel becomes free.
    next_free: u64,
    bytes_transferred: u64,
    accesses: u64,
}

impl Dram {
    /// A fresh channel.
    pub fn new(cfg: DramConfig) -> Self {
        Dram {
            cfg,
            next_free: 0,
            bytes_transferred: 0,
            accesses: 0,
        }
    }

    /// Issue a transfer of `bytes` at `cycle`; returns the completion
    /// cycle of the *first* critical word (latency) — the channel stays
    /// occupied until the whole transfer drains.
    pub fn access_at(&mut self, cycle: u64, bytes: u64) -> u64 {
        let start = cycle.max(self.next_free);
        let occupancy = (bytes as f64 / self.cfg.bytes_per_cycle).ceil() as u64;
        self.next_free = start + occupancy;
        self.accesses += 1;
        self.bytes_transferred += bytes;
        start + self.cfg.latency
    }

    /// Cycle at which the channel is next free.
    #[cfg(test)]
    fn next_free(&self) -> u64 {
        self.next_free
    }

    /// Total bytes moved.
    #[cfg(test)]
    fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Total transfers.
    #[cfg(test)]
    fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Reset statistics and queue state.
    pub fn reset(&mut self) {
        self.next_free = 0;
        self.bytes_transferred = 0;
        self.accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig {
            latency: 100,
            bytes_per_cycle: 4.0,
        })
    }

    #[test]
    fn single_access_sees_latency() {
        let mut d = dram();
        assert_eq!(d.access_at(0, 64), 100);
        assert_eq!(d.next_free(), 16); // 64 B / 4 B-per-cycle
    }

    #[test]
    fn back_to_back_accesses_queue_on_bandwidth() {
        let mut d = dram();
        let a = d.access_at(0, 64);
        let b = d.access_at(0, 64); // queues behind the first transfer
        assert_eq!(a, 100);
        assert_eq!(b, 16 + 100);
        assert_eq!(d.accesses(), 2);
        assert_eq!(d.bytes_transferred(), 128);
    }

    #[test]
    fn idle_channel_does_not_queue() {
        let mut d = dram();
        d.access_at(0, 64);
        // Long after the channel drained: no queueing.
        assert_eq!(d.access_at(1000, 64), 1100);
    }

    #[test]
    fn reset_clears_state() {
        let mut d = dram();
        d.access_at(0, 4096);
        d.reset();
        assert_eq!(d.next_free(), 0);
        assert_eq!(d.bytes_transferred(), 0);
    }
}
