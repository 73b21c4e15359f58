//! The decoding unit (paper Fig. 6): streaming unit + packing unit.
//!
//! Timing model. `lddu` loads the configuration structure (Table III) and
//! arms the unit; from then on the streaming unit fetches the compressed
//! stream from DRAM in input-buffer-sized chunks (256 B, Table IV),
//! bypassing the caches, while the decoder drains the buffer at
//! `decode_per_cycle` sequences per cycle (the banked uncompressed table
//! allows multiple lookups per cycle). The packing unit channel-packs each
//! group of 64 decoded sequences into nine 64-bit words; `ldps` pops the
//! next packed word, stalling the pipeline only if the unit has not
//! produced it yet.
//!
//! The register file bounds how far the unit can run ahead of the
//! consumer; the model tracks the lead and clamps production to the
//! configured capacity.

use crate::config::DecodeUnitConfig;
use crate::mem::Hierarchy;

/// Packed words produced per group: one channel group fills nine lane
/// words (one per 3×3 position). When the layer has 64 or more channels a
/// group is 64 sequences; narrower layers pack fewer sequences per word.
pub const WORDS_PER_GROUP: u64 = 9;

/// Statistics for one armed stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitStats {
    /// `lddu` executions.
    pub configs: u64,
    /// `ldps` words served.
    pub words_served: u64,
    /// Cycles the consumer waited on the unit.
    pub consumer_stall_cycles: u64,
    /// Stream bytes fetched from DRAM.
    pub stream_bytes: u64,
    /// Sequences served from the uncompressed table without a Huffman
    /// walk (repeated codewords in a deduplicated stream).
    pub table_hits: u64,
}

#[derive(Debug, Clone)]
struct StreamState {
    /// Cycle decoding may begin (lddu done + config latency).
    start: u64,
    /// Stream base address (Table III's compressed-sequences pointer).
    stream_addr: u64,
    num_seqs: u64,
    /// Distinct sequence values; `num_seqs - unique_seqs` of the decodes
    /// are table hits.
    unique_seqs: u64,
    stream_bytes: u64,
    /// Packed channel groups the stream yields (9 words each).
    num_groups: u64,
    /// Sequences decoded so far.
    decoded: u64,
    /// Completion time of the most recently decoded sequence.
    decode_clock: f64,
    /// Stream chunks fetched so far.
    chunks_fetched: u64,
    /// Completion time of the last chunk fetch.
    last_chunk_done: u64,
    /// Packed words consumed so far.
    words_consumed: u64,
    /// Ready times of groups already decoded (index = group).
    group_ready: Vec<u64>,
}

/// The decoding unit attached to the LSU.
#[derive(Debug, Clone)]
pub struct DecodeUnit {
    cfg: DecodeUnitConfig,
    state: Option<StreamState>,
    stats: UnitStats,
}

impl DecodeUnit {
    /// An idle unit.
    pub fn new(cfg: DecodeUnitConfig) -> Self {
        DecodeUnit {
            cfg,
            state: None,
            stats: UnitStats::default(),
        }
    }

    /// `lddu`: load a configuration and start decoding a stream of
    /// `num_seqs` sequences occupying `stream_bytes` bytes at
    /// `stream_addr`, packed into `num_groups` channel groups of nine
    /// words each. `unique_seqs` is the number of distinct sequence
    /// values — the remaining `num_seqs - unique_seqs` decodes repeat a
    /// value already resident in the uncompressed table and drain at the
    /// faster table-hit rate. Pass `unique_seqs == num_seqs` for a stream
    /// with no measured dedup information.
    ///
    /// Any previously armed stream is discarded (the paper requires the
    /// programmer to configure the unit before use).
    ///
    /// # Panics
    ///
    /// Panics if `num_groups` is zero.
    pub fn lddu(
        &mut self,
        cycle: u64,
        stream_addr: u64,
        stream_bytes: u64,
        num_seqs: u64,
        unique_seqs: u64,
        num_groups: u64,
    ) {
        assert!(num_groups > 0, "a stream must contain at least one group");
        self.stats.configs += 1;
        self.state = Some(StreamState {
            start: cycle + self.cfg.config_latency,
            stream_addr,
            num_seqs,
            unique_seqs: unique_seqs.min(num_seqs),
            stream_bytes,
            num_groups,
            decoded: 0,
            decode_clock: 0.0,
            chunks_fetched: 0,
            last_chunk_done: 0,
            words_consumed: 0,
            group_ready: Vec::new(),
        });
    }

    /// `ldps`: pop the next packed word. Returns the cycle the destination
    /// register is ready.
    ///
    /// # Panics
    ///
    /// Panics if no stream is armed or the stream is exhausted — both are
    /// programming errors the paper assigns to the programmer ("the
    /// programmer is responsible for setting this unit before using
    /// `ldps`").
    pub fn ldps(&mut self, cycle: u64, mem: &mut Hierarchy) -> u64 {
        let cfg = self.cfg;
        let state = self.state.as_mut().expect("ldps without lddu");
        let group = state.words_consumed / WORDS_PER_GROUP;
        assert!(group < state.num_groups, "ldps past the end of the stream");
        state.words_consumed += 1;
        self.stats.words_served += 1;

        // Decode up to the end of this group if not already done.
        while (state.group_ready.len() as u64) <= group {
            let g = state.group_ready.len() as u64;
            let last_seq = (g + 1) * state.num_seqs / state.num_groups;
            while state.decoded < last_seq {
                // Ensure the chunk holding this sequence is fetched.
                let byte_off = state.decoded * state.stream_bytes / state.num_seqs.max(1);
                let chunk = byte_off / cfg.input_buffer_bytes as u64;
                while state.chunks_fetched <= chunk {
                    let bytes = cfg
                        .input_buffer_bytes
                        .min(state.stream_bytes as usize)
                        .max(1) as u64;
                    let issue = state.start.max(state.last_chunk_done);
                    let addr = state.stream_addr + state.chunks_fetched * bytes;
                    state.last_chunk_done = mem.stream_fetch_at(issue, addr, bytes);
                    self.stats.stream_bytes += bytes;
                    state.chunks_fetched += 1;
                }
                // Decode pace: a cold codeword costs 1/decode_per_cycle,
                // a repeat of a table-resident value drains at the
                // table-hit rate; neither starts before the chunk lands.
                // `num_seqs - unique_seqs` hits are spread evenly across
                // the stream (Bresenham), matching a frequency-skewed
                // stream where repeats interleave with first sightings.
                let hits = state.num_seqs - state.unique_seqs;
                let i = state.decoded;
                let is_hit =
                    (i + 1) * hits / state.num_seqs.max(1) > i * hits / state.num_seqs.max(1);
                let pace = if is_hit {
                    self.stats.table_hits += 1;
                    1.0 / cfg.table_hits_per_cycle
                } else {
                    1.0 / cfg.decode_per_cycle
                };
                let earliest = state.last_chunk_done.max(state.start) as f64;
                state.decode_clock = state.decode_clock.max(earliest) + pace;
                state.decoded += 1;
            }
            state.group_ready.push(state.decode_clock.ceil() as u64);
        }
        let ready = state.group_ready[group as usize];
        if ready > cycle {
            self.stats.consumer_stall_cycles += ready - cycle;
        }
        ready.max(cycle) + 1
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> UnitStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;

    fn setup() -> (DecodeUnit, Hierarchy) {
        let cfg = CpuConfig::default();
        (DecodeUnit::new(cfg.decode_unit), Hierarchy::new(&cfg))
    }

    #[test]
    fn first_word_waits_for_config_fetch_and_decode() {
        let (mut u, mut mem) = setup();
        u.lddu(0, 0x4000_0000, 1024, 1024, 1024, 16);
        let ready = u.ldps(1, &mut mem);
        // config latency (40) + DRAM chunk fetch (~120+) + 64 seqs at
        // 2/cycle (32) — the first word cannot be early.
        assert!(ready > 150, "first word at {ready}");
    }

    #[test]
    fn later_words_of_same_group_are_free() {
        let (mut u, mut mem) = setup();
        u.lddu(0, 0x4000_0000, 1024, 1024, 1024, 16);
        let first = u.ldps(0, &mut mem);
        // Words 2..9 of group 0 are already in the register file.
        for _ in 1..9 {
            let r = u.ldps(first, &mut mem);
            assert_eq!(r, first + 1);
        }
    }

    #[test]
    fn consumer_running_behind_never_stalls() {
        let (mut u, mut mem) = setup();
        u.lddu(0, 0x4000_0000, 1024, 1024, 1024, 16);
        let mut cycle = 100_000; // consumer arrives very late
        for _ in 0..9 * (1024 / 64) {
            let r = u.ldps(cycle, &mut mem);
            assert_eq!(r, cycle + 1, "late consumer gets data immediately");
            cycle = r;
        }
        assert_eq!(u.stats().consumer_stall_cycles, 0);
    }

    #[test]
    fn stall_cycles_accumulate_for_eager_consumer() {
        let (mut u, mut mem) = setup();
        u.lddu(0, 0x4000_0000, 4096, 4096, 4096, 64);
        let mut cycle = 0;
        for _ in 0..9 * 4 {
            cycle = u.ldps(cycle, &mut mem);
        }
        assert!(u.stats().consumer_stall_cycles > 0);
    }

    #[test]
    fn stream_bytes_fetched_in_chunks() {
        let (mut u, mut mem) = setup();
        u.lddu(0, 0x4000_0000, 1000, 1024, 1024, 16);
        // Consume everything.
        let mut cycle = 0;
        for _ in 0..9 * (1024 / 64) {
            cycle = u.ldps(cycle, &mut mem);
        }
        // Fetched in 256-byte chunks covering the 1000-byte stream.
        assert!(u.stats().stream_bytes >= 1000);
        assert_eq!(u.stats().stream_bytes % 256, 0);
    }

    #[test]
    #[should_panic(expected = "ldps without lddu")]
    fn ldps_unconfigured_panics() {
        let (mut u, mut mem) = setup();
        u.ldps(0, &mut mem);
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn ldps_past_stream_panics() {
        let (mut u, mut mem) = setup();
        u.lddu(0, 0x4000_0000, 72, 64, 64, 1); // one group -> 9 words
        for _ in 0..9 {
            u.ldps(0, &mut mem);
        }
        u.ldps(0, &mut mem);
    }

    #[test]
    fn rearming_resets_the_stream() {
        let (mut u, mut mem) = setup();
        u.lddu(0, 0x4000_0000, 72, 64, 64, 1);
        for _ in 0..9 {
            u.ldps(0, &mut mem);
        }
        u.lddu(1000, 0x4000_0000, 72, 64, 64, 1);
        // A fresh 9 words are available again.
        for _ in 0..9 {
            u.ldps(1000, &mut mem);
        }
        assert_eq!(u.stats().configs, 2);
        assert_eq!(u.stats().words_served, 18);
    }

    /// Drain a whole stream with an eager consumer and report
    /// (stall cycles, table hits).
    fn drain(num_seqs: u64, unique_seqs: u64) -> (u64, u64) {
        let (mut u, mut mem) = setup();
        u.lddu(0, 0x4000_0000, 4096, num_seqs, unique_seqs, 64);
        let mut cycle = 0;
        for _ in 0..9 * 64 {
            cycle = u.ldps(cycle, &mut mem);
        }
        (u.stats().consumer_stall_cycles, u.stats().table_hits)
    }

    #[test]
    fn no_dedup_means_no_table_hits() {
        let (_, hits) = drain(4096, 4096);
        assert_eq!(hits, 0);
    }

    #[test]
    fn table_hits_count_the_repeats() {
        let (_, hits) = drain(4096, 1000);
        assert_eq!(hits, 4096 - 1000);
    }

    #[test]
    fn dedup_reduces_consumer_stalls() {
        let (stall_cold, _) = drain(4096, 4096);
        let (stall_dedup, _) = drain(4096, 512);
        assert!(
            stall_dedup < stall_cold,
            "dedup {stall_dedup} must stall less than cold {stall_cold}"
        );
    }

    #[test]
    fn unique_seqs_is_clamped_to_num_seqs() {
        let (mut u, mut mem) = setup();
        u.lddu(0, 0x4000_0000, 72, 64, 9999, 1);
        for _ in 0..9 {
            u.ldps(0, &mut mem);
        }
        assert_eq!(u.stats().table_hits, 0);
    }
}
