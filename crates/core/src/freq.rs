//! Frequency analysis of bit sequences (paper Sec. III-A).
//!
//! A [`FreqTable`] counts how often each of the 512 sequences occurs in a
//! kernel (or a whole block's kernels) and answers the questions behind
//! Fig. 3 ("what are the top-16 sequences and their shares?") and Table II
//! ("what fraction do the top-64 / top-256 cover?").

use crate::bitseq::{BitSeq, NUM_SEQUENCES};
use crate::error::{KcError, Result};
use bitnn::tensor::BitTensor;
use bitnn::weightgen::count_sequences;

/// Occurrence counts over the 512 bit sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreqTable {
    counts: Vec<u64>,
    total: u64,
}

impl Default for FreqTable {
    fn default() -> Self {
        Self::new()
    }
}

impl FreqTable {
    /// Empty table.
    pub fn new() -> Self {
        FreqTable {
            counts: vec![0; NUM_SEQUENCES],
            total: 0,
        }
    }

    /// Count the sequences of a `[K, C, 3, 3]` binary kernel.
    ///
    /// # Errors
    ///
    /// Returns [`KcError::BadKernelShape`] for other shapes.
    pub fn from_kernel(kernel: &BitTensor) -> Result<Self> {
        let shape = kernel.shape();
        if shape.len() != 4 || shape[2] != 3 || shape[3] != 3 {
            return Err(KcError::BadKernelShape(shape.to_vec()));
        }
        let counts = count_sequences(kernel);
        let total = counts.iter().sum();
        Ok(FreqTable { counts, total })
    }

    /// Count a list of sequence values (each below 512), such as
    /// [`bitnn::weightgen::read_sequences`] returns.
    pub(crate) fn from_sequences(seqs: &[u16]) -> Self {
        let mut counts = vec![0u64; NUM_SEQUENCES];
        for &s in seqs {
            counts[s as usize] += 1;
        }
        FreqTable {
            counts,
            total: seqs.len() as u64,
        }
    }

    /// Build from raw counts (index = sequence value).
    ///
    /// # Errors
    ///
    /// Returns [`KcError::InvalidSequence`] if `counts.len() != 512`.
    pub fn from_counts(counts: Vec<u64>) -> Result<Self> {
        if counts.len() != NUM_SEQUENCES {
            return Err(KcError::InvalidSequence(counts.len() as u16));
        }
        let total = counts.iter().sum();
        Ok(FreqTable { counts, total })
    }

    /// Record one occurrence.
    pub fn record(&mut self, seq: BitSeq) {
        self.counts[seq.value() as usize] += 1;
        self.total += 1;
    }

    /// Merge another table into this one (e.g. all kernels of a block).
    pub fn merge(&mut self, other: &FreqTable) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Occurrences of `seq`.
    pub fn count(&self, seq: BitSeq) -> u64 {
        self.counts[seq.value() as usize]
    }

    /// Total occurrences.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Relative frequency of `seq` in percent.
    pub fn percent(&self, seq: BitSeq) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(seq) as f64 / self.total as f64 * 100.0
        }
    }

    /// Number of sequences with a nonzero count.
    pub fn distinct(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Sequences sorted by descending count (ties by ascending value, so
    /// the order is deterministic).
    pub fn sorted_desc(&self) -> Vec<(BitSeq, u64)> {
        let mut v: Vec<(BitSeq, u64)> = (0..NUM_SEQUENCES as u16)
            .map(|s| (BitSeq::new_unchecked(s), self.counts[s as usize]))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// The `k` most frequent sequences (Fig. 3 uses `k = 16`).
    pub fn top_k(&self, k: usize) -> Vec<(BitSeq, u64)> {
        self.sorted_desc().into_iter().take(k).collect()
    }

    /// The `k` least frequent sequences **among those that occur**,
    /// rarest first (the clustering algorithm's `su` set).
    pub fn bottom_k_present(&self, k: usize) -> Vec<(BitSeq, u64)> {
        let mut v: Vec<(BitSeq, u64)> = self
            .sorted_desc()
            .into_iter()
            .filter(|&(_, c)| c > 0)
            .collect();
        v.reverse();
        v.truncate(k);
        v
    }

    /// Fraction (in percent) of occurrences covered by the `k` most
    /// frequent sequences — the Table II statistic.
    pub fn top_k_coverage_pct(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let covered: u64 = self.sorted_desc().iter().take(k).map(|&(_, c)| c).sum();
        covered as f64 / self.total as f64 * 100.0
    }

    /// Shannon entropy of the empirical distribution in bits per sequence —
    /// the information-theoretic lower bound any code is judged against.
    pub fn entropy_bits(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let total = self.total as f64;
        -self
            .counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total;
                p * p.log2()
            })
            .sum::<f64>()
    }

    /// Raw counts, indexed by sequence value.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// One kernel record's sequence-skew statistics (paper §III): the
/// 512-bin histogram plus the number of Hamming-1 cluster roots, both
/// built online as sequences arrive in stream order — the numbers behind
/// `bnnkc inspect --stats` and the decode-table model's unique counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeqHistogram {
    freq: FreqTable,
    h1_roots: usize,
}

impl SeqHistogram {
    /// Record the next sequence in stream order. A sequence starts a new
    /// Hamming-1 cluster (is a root) iff it is new and none of its 9
    /// Hamming-1 neighbours appeared earlier.
    pub fn record(&mut self, seq: BitSeq) {
        if self.freq.count(seq) == 0 && seq.neighbors().all(|n| self.freq.count(n) == 0) {
            self.h1_roots += 1;
        }
        self.freq.record(seq);
    }

    /// The underlying occurrence counts.
    pub fn freq(&self) -> &FreqTable {
        &self.freq
    }

    /// Cross-filter dedup ratio: total / distinct sequences (≥ 1).
    pub fn dedup_ratio(&self) -> f64 {
        self.freq.total() as f64 / self.freq.distinct().max(1) as f64
    }

    /// Number of Hamming-1 cluster roots.
    pub fn h1_roots(&self) -> usize {
        self.h1_roots
    }

    /// The `k` most frequent sequences that occur, count descending, ties
    /// toward the smaller value.
    pub fn top_k(&self, k: usize) -> Vec<(BitSeq, u64)> {
        let mut top = self.freq.top_k(k);
        top.retain(|&(_, c)| c > 0);
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitnn::weightgen::SeqDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn skewed_table() -> FreqTable {
        let mut rng = StdRng::seed_from_u64(3);
        let kernel = SeqDistribution::for_block(1, 0).sample_kernel(64, 64, &mut rng);
        FreqTable::from_kernel(&kernel).unwrap()
    }

    #[test]
    fn from_kernel_counts_all_channels() {
        let t = skewed_table();
        assert_eq!(t.total(), 64 * 64);
        assert!(t.distinct() > 100);
    }

    #[test]
    fn rejects_non_3x3() {
        let k = BitTensor::zeros(&[2, 2, 1, 1]);
        assert!(matches!(
            FreqTable::from_kernel(&k),
            Err(KcError::BadKernelShape(_))
        ));
    }

    #[test]
    fn record_and_percent() {
        let mut t = FreqTable::new();
        for _ in 0..3 {
            t.record(BitSeq::ZEROS);
        }
        t.record(BitSeq::ONES);
        assert_eq!(t.count(BitSeq::ZEROS), 3);
        assert_eq!(t.total(), 4);
        assert_eq!(t.percent(BitSeq::ZEROS), 75.0);
        assert_eq!(t.percent(BitSeq::new(5).unwrap()), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = FreqTable::new();
        a.record(BitSeq::ZEROS);
        let mut b = FreqTable::new();
        b.record(BitSeq::ZEROS);
        b.record(BitSeq::ONES);
        a.merge(&b);
        assert_eq!(a.count(BitSeq::ZEROS), 2);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn sorted_desc_is_deterministic_and_sorted() {
        let t = skewed_table();
        let s = t.sorted_desc();
        assert_eq!(s.len(), 512);
        for w in s.windows(2) {
            assert!(w[0].1 >= w[1].1);
            if w[0].1 == w[1].1 {
                assert!(w[0].0 < w[1].0);
            }
        }
    }

    #[test]
    fn skewed_kernel_tops_are_extremes() {
        // The calibrated distribution puts sequences 0 and 511 on top.
        let t = skewed_table();
        let top2: Vec<u16> = t.top_k(2).iter().map(|&(s, _)| s.value()).collect();
        assert!(top2.contains(&0) && top2.contains(&511), "{top2:?}");
    }

    #[test]
    fn coverage_is_monotone_in_k() {
        let t = skewed_table();
        let c64 = t.top_k_coverage_pct(64);
        let c256 = t.top_k_coverage_pct(256);
        assert!(c64 > 40.0, "top64 = {c64}");
        assert!(c256 > c64);
        assert!((t.top_k_coverage_pct(512) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn bottom_k_present_excludes_zeros() {
        let mut t = FreqTable::new();
        t.record(BitSeq::ZEROS);
        t.record(BitSeq::ZEROS);
        t.record(BitSeq::ONES);
        let b = t.bottom_k_present(5);
        assert_eq!(b.len(), 2); // only two sequences occur
        assert_eq!(b[0].0, BitSeq::ONES); // rarest first
    }

    #[test]
    fn entropy_bounds() {
        // Uniform over 512 -> 9 bits; single symbol -> 0 bits.
        let t = FreqTable::from_counts(vec![1; 512]).unwrap();
        assert!((t.entropy_bits() - 9.0).abs() < 1e-9);
        let mut single = vec![0u64; 512];
        single[7] = 100;
        let t = FreqTable::from_counts(single).unwrap();
        assert_eq!(t.entropy_bits(), 0.0);
        // Skewed tables sit strictly between.
        let t = skewed_table();
        let h = t.entropy_bits();
        assert!(h > 0.0 && h < 9.0, "entropy = {h}");
    }

    #[test]
    fn empty_table_is_safe() {
        let t = FreqTable::new();
        assert_eq!(t.top_k_coverage_pct(64), 0.0);
        assert_eq!(t.entropy_bits(), 0.0);
        assert_eq!(t.percent(BitSeq::ZEROS), 0.0);
    }
}
