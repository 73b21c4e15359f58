//! Set-associative cache with true-LRU replacement.

use crate::config::CacheConfig;

/// One cache level's tag array.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    line_shift: u32,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// Monotonic use stamps for LRU.
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two or the geometry does
    /// not divide evenly.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be 2^n");
        let sets = cfg.sets();
        Cache {
            cfg,
            sets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; sets * cfg.ways],
            stamps: vec![0; sets * cfg.ways],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Look up the line containing `addr`; fills on miss. Returns `true`
    /// on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr >> self.line_shift;
        let set = (line as usize) % self.sets;
        let base = set * self.cfg.ways;
        // Hit?
        for way in 0..self.cfg.ways {
            if self.tags[base + way] == line {
                self.stamps[base + way] = self.clock;
                self.hits += 1;
                return true;
            }
        }
        // Miss: evict LRU.
        self.misses += 1;
        let victim = (0..self.cfg.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("ways >= 1");
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Probe without filling or touching LRU state.
    pub fn contains(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line as usize) % self.sets;
        let base = set * self.cfg.ways;
        (0..self.cfg.ways).any(|w| self.tags[base + w] == line)
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Reset statistics (contents are kept).
    #[cfg(test)]
    fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines of 64 B, 2-way => 2 sets.
        Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            ways: 2,
            hit_latency: 1,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with even line index (2 sets).
        c.access(0); // line 0 -> set 0
        c.access(128); // line 2 -> set 0
        assert!(c.access(0)); // refresh line 0
        c.access(256); // line 4 -> set 0, evicts line 2 (LRU)
        assert!(c.contains(0));
        assert!(!c.contains(128));
        assert!(c.contains(256));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0); // set 0
        c.access(64); // set 1
        c.access(128); // set 0
        c.access(192); // set 1
        assert!(c.contains(0) && c.contains(64) && c.contains(128) && c.contains(192));
    }

    #[test]
    fn contains_does_not_fill() {
        let c = tiny();
        assert!(!c.contains(0));
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        c.access(0);
        c.reset_stats();
        assert_eq!(c.misses(), 0);
        assert!(c.access(0), "contents survive a stats reset");
    }

    #[test]
    fn default_l1_geometry_works() {
        let mut c = Cache::new(crate::config::CpuConfig::default().l1);
        // Fill more than the cache and ensure it still functions.
        for i in 0..2048u64 {
            c.access(i * 64);
        }
        assert_eq!(c.misses(), 2048);
        // Recent lines should still be resident.
        assert!(c.contains(2047 * 64));
    }
}
