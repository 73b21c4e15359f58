//! Clustering: removing less frequent bit sequences (paper Sec. III-C).
//!
//! The algorithm: collect the `M` most common sequences of a block into a
//! set `st` and the `N` least common into `su`. For each `sa` in `su`, look
//! for a `sb` in `st` at Hamming distance 1 (at most one of the nine
//! weights flips, keeping the error introduced per inner product bounded by
//! ±2); when several qualify, pick the most frequent. Replace every
//! occurrence of `sa` by `sb`. Sequences with no qualifying neighbour stay
//! untouched — which is why the paper's post-clustering 12-bit node usage
//! drops to 0.6% rather than zero.

use crate::bitseq::BitSeq;
use crate::error::Result;
use crate::freq::FreqTable;
use bitnn::tensor::BitTensor;
use bitnn::weightgen::{read_sequence, write_sequence};

/// Parameters of the clustering pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// `M`: size of the most-common candidate set `st`.
    pub m_common: usize,
    /// `N`: how many of the least common sequences to try to replace.
    pub n_remove: usize,
    /// Maximum Hamming distance for a substitution (the paper uses 1; the
    /// radius-2 ablation loosens it).
    pub max_distance: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            m_common: 64,
            n_remove: 256,
            max_distance: 1,
        }
    }
}

/// One planned substitution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Substitution {
    /// The rare sequence being removed.
    pub from: BitSeq,
    /// The common sequence replacing it.
    pub to: BitSeq,
    /// Hamming distance between the two.
    pub distance: u32,
}

/// A computed substitution plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterPlan {
    substitutions: Vec<Substitution>,
    /// `map[s]` = the sequence `s` is rewritten to (identity when kept).
    map: Vec<u16>,
}

impl ClusterPlan {
    /// Compute the plan for a frequency table.
    pub fn build(freq: &FreqTable, config: &ClusterConfig) -> Self {
        let st: Vec<(BitSeq, u64)> = freq.top_k(config.m_common);
        let su = freq.bottom_k_present(config.n_remove);
        let st_set: Vec<BitSeq> = st.iter().map(|&(s, _)| s).collect();

        let mut map: Vec<u16> = (0..512).collect();
        let mut substitutions = Vec::new();
        for &(sa, _) in &su {
            // Never remove a sequence that is itself in the common set
            // (possible when fewer than M + N distinct sequences occur).
            if st_set.contains(&sa) {
                continue;
            }
            // Among candidates within the distance budget, prefer the
            // smallest distance, then the highest frequency (paper: "we
            // employ the bit sequence with the highest frequency").
            let mut best: Option<(u32, u64, BitSeq)> = None;
            for &(sb, count) in &st {
                let d = sa.hamming(sb);
                if d == 0 || d > config.max_distance {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bd, bc, _)) => d < bd || (d == bd && count > bc),
                };
                if better {
                    best = Some((d, count, sb));
                }
            }
            if let Some((d, _, sb)) = best {
                map[sa.value() as usize] = sb.value();
                substitutions.push(Substitution {
                    from: sa,
                    to: sb,
                    distance: d,
                });
            }
        }
        ClusterPlan { substitutions, map }
    }

    /// The substitutions in the order they were decided (rarest first).
    pub fn substitutions(&self) -> &[Substitution] {
        &self.substitutions
    }

    /// Number of sequences that will be rewritten.
    pub fn replaced(&self) -> usize {
        self.substitutions.len()
    }

    /// Where `seq` maps to under the plan (identity if kept).
    pub fn map(&self, seq: BitSeq) -> BitSeq {
        BitSeq::new_unchecked(self.map[seq.value() as usize])
    }

    /// Rewrite a list of sequence values (each below 512) in place.
    pub(crate) fn apply_to_sequences(&self, seqs: &mut [u16]) {
        for s in seqs {
            *s = self.map[*s as usize];
        }
    }

    /// Rewrite a `[K, C, 3, 3]` kernel under the plan.
    ///
    /// # Errors
    ///
    /// Returns [`crate::KcError::BadKernelShape`] for other shapes.
    pub fn apply_to_kernel(&self, kernel: &BitTensor) -> Result<BitTensor> {
        let shape = kernel.shape();
        if shape.len() != 4 || shape[2] != 3 || shape[3] != 3 {
            return Err(crate::KcError::BadKernelShape(shape.to_vec()));
        }
        let mut out = kernel.clone();
        for f in 0..shape[0] {
            for ch in 0..shape[1] {
                let seq = BitSeq::new_unchecked(read_sequence(kernel, f, ch));
                let mapped = self.map(seq);
                if mapped != seq {
                    write_sequence(&mut out, f, ch, mapped.value());
                }
            }
        }
        Ok(out)
    }

    /// Rewrite a frequency table under the plan (what the counts become
    /// after applying it to the kernel that produced `freq`).
    pub fn apply_to_freq(&self, freq: &FreqTable) -> FreqTable {
        let mut counts = vec![0u64; 512];
        for s in BitSeq::all() {
            counts[self.map(s).value() as usize] += freq.count(s);
        }
        FreqTable::from_counts(counts).expect("512 counts")
    }

    /// Fraction (percent) of total occurrences that get rewritten.
    #[cfg(test)]
    fn moved_mass_pct(&self, freq: &FreqTable) -> f64 {
        if freq.total() == 0 {
            return 0.0;
        }
        let moved: u64 = self.substitutions.iter().map(|s| freq.count(s.from)).sum();
        moved as f64 / freq.total() as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitnn::weightgen::SeqDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn kernel_and_freq() -> (BitTensor, FreqTable) {
        let mut rng = StdRng::seed_from_u64(5);
        let kernel = SeqDistribution::for_block(1, 0).sample_kernel(64, 64, &mut rng);
        let freq = FreqTable::from_kernel(&kernel).unwrap();
        (kernel, freq)
    }

    #[test]
    fn substitutions_respect_distance_budget() {
        let (_, freq) = kernel_and_freq();
        let plan = ClusterPlan::build(&freq, &ClusterConfig::default());
        assert!(
            plan.replaced() > 0,
            "skewed table should yield substitutions"
        );
        for s in plan.substitutions() {
            assert_eq!(s.from.hamming(s.to), s.distance);
            assert!(s.distance == 1);
        }
    }

    #[test]
    fn targets_come_from_the_common_set() {
        let (_, freq) = kernel_and_freq();
        let cfg = ClusterConfig::default();
        let plan = ClusterPlan::build(&freq, &cfg);
        let st: Vec<BitSeq> = freq.top_k(cfg.m_common).iter().map(|&(s, _)| s).collect();
        for s in plan.substitutions() {
            assert!(st.contains(&s.to), "{} not in top-M", s.to);
        }
    }

    #[test]
    fn clustering_increases_top_coverage() {
        // The whole point: post-clustering, the top-64 cover more mass.
        let (_, freq) = kernel_and_freq();
        let plan = ClusterPlan::build(&freq, &ClusterConfig::default());
        let after = plan.apply_to_freq(&freq);
        assert_eq!(after.total(), freq.total());
        assert!(
            after.top_k_coverage_pct(64) > freq.top_k_coverage_pct(64),
            "{} vs {}",
            after.top_k_coverage_pct(64),
            freq.top_k_coverage_pct(64)
        );
        assert!(after.distinct() < freq.distinct());
    }

    #[test]
    fn kernel_rewrite_matches_freq_rewrite() {
        let (kernel, freq) = kernel_and_freq();
        let plan = ClusterPlan::build(&freq, &ClusterConfig::default());
        let rewritten = plan.apply_to_kernel(&kernel).unwrap();
        let freq2 = FreqTable::from_kernel(&rewritten).unwrap();
        assert_eq!(freq2, plan.apply_to_freq(&freq));
    }

    #[test]
    fn rewritten_channels_are_within_distance_one() {
        let (kernel, freq) = kernel_and_freq();
        let plan = ClusterPlan::build(&freq, &ClusterConfig::default());
        let rewritten = plan.apply_to_kernel(&kernel).unwrap();
        let shape = kernel.shape().to_vec();
        let mut changed = 0u64;
        for f in 0..shape[0] {
            for ch in 0..shape[1] {
                let a = BitSeq::new_unchecked(read_sequence(&kernel, f, ch));
                let b = BitSeq::new_unchecked(read_sequence(&rewritten, f, ch));
                assert!(a.hamming(b) <= 1, "channel moved {} bits", a.hamming(b));
                if a != b {
                    changed += 1;
                }
            }
        }
        assert!(changed > 0);
    }

    #[test]
    fn no_removals_when_n_is_zero() {
        let (_, freq) = kernel_and_freq();
        let plan = ClusterPlan::build(
            &freq,
            &ClusterConfig {
                n_remove: 0,
                ..ClusterConfig::default()
            },
        );
        assert_eq!(plan.replaced(), 0);
        for s in BitSeq::all() {
            assert_eq!(plan.map(s), s);
        }
    }

    #[test]
    fn radius_two_replaces_at_least_as_many() {
        let (_, freq) = kernel_and_freq();
        let base = ClusterPlan::build(&freq, &ClusterConfig::default());
        let wide = ClusterPlan::build(
            &freq,
            &ClusterConfig {
                max_distance: 2,
                ..ClusterConfig::default()
            },
        );
        assert!(wide.replaced() >= base.replaced());
    }

    #[test]
    fn moved_mass_is_bounded_by_tail_mass() {
        // The N removed sequences are the rarest present ones; with the
        // trained-kernel support (~352 distinct) "remove 256" reaches into
        // the mid ranks, moving roughly the mass outside the top ~100
        // (paper Sec. VI: the 9-bit node usage collapses from 23% to 8%).
        let (_, freq) = kernel_and_freq();
        let plan = ClusterPlan::build(&freq, &ClusterConfig::default());
        let moved = plan.moved_mass_pct(&freq);
        let top_m = freq.top_k_coverage_pct(ClusterConfig::default().m_common);
        assert!(moved > 0.0, "nothing moved");
        assert!(
            moved <= 100.0 - top_m + 1e-9,
            "moved {moved}% exceeds non-common mass {}%",
            100.0 - top_m
        );
        assert!((10.0..45.0).contains(&moved), "moved = {moved}%");
    }

    #[test]
    fn common_set_members_are_never_removed() {
        // Degenerate table where fewer than M + N sequences occur.
        let mut counts = vec![0u64; 512];
        counts[0] = 100;
        counts[256] = 1; // Hamming-1 from 0
        let freq = FreqTable::from_counts(counts).unwrap();
        let plan = ClusterPlan::build(
            &freq,
            &ClusterConfig {
                m_common: 8,
                n_remove: 8,
                max_distance: 1,
            },
        );
        // 256 is in the top-8 (only two present), so nothing is replaced.
        assert_eq!(plan.replaced(), 0);
    }
}
