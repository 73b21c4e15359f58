//! Calibrated synthetic binary kernels.
//!
//! The paper's experiments depend only on the *frequency distribution* of
//! 9-bit channel "bit sequences" in ReActNet's trained 3×3 kernels
//! (Fig. 3 / Table II), not on what the weights classify. Since the trained
//! ImageNet checkpoint is not available offline, this module generates
//! kernels whose empirical sequence distribution is calibrated to the
//! published statistics:
//!
//! * sequences are *ranked* by "naturalness" — distance to the all-zeros /
//!   all-ones sequences dominates, which reproduces the paper's observation
//!   that sequences `0`, `511` and their Hamming-1 neighbours (`256`, `255`,
//!   `4`, `510`, `1`, …) top the list (Fig. 3);
//! * rank masses are assigned in three segments so that the **top-64 and
//!   top-256 coverage exactly match a target pair** — the per-block targets
//!   are taken from Table II ([`TABLE2_TARGETS`]);
//! * within each segment the mass decays like a Zipf law, tuned so the
//!   top-16 coverage and the ~12–13% share of sequences 0/511 match Fig. 3.
//!
//! # Natural mapping (paper Fig. 2)
//!
//! A 3×3 channel maps to the integer whose **most significant bit is
//! position (0,0)** and least significant bit is position (2,2). The
//! all-`-1` channel is sequence 0; the all-`+1` channel is sequence 511.
//!
//! # Draw order
//!
//! [`SeqDistribution::sample_kernel`] draws one sequence per channel in
//! `(filter, channel)` order and writes it as a 9-bit field in place
//! ([`write_sequence`]). The uniform kernels of every other size
//! ([`random_kernel`], [`random_packed_kernel`]) draw one `next_u64` per
//! bit in flat `[K, C, KH, KW]` order and keep its top bit, whichever
//! layout they write it into, so the flat and the lane-word forms of a
//! seed are the same weights.

use crate::pack::{LaneLayout, PackedKernel};
use crate::tensor::BitTensor;
use crate::LANE_BITS;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Number of distinct 9-bit sequences.
pub const NUM_SEQUENCES: usize = 512;

/// Bits per sequence (a 3×3 channel).
pub const SEQ_BITS: usize = 9;

/// Per-block (top-64 %, top-256 %) coverage targets from paper Table II.
pub const TABLE2_TARGETS: [(f64, f64); 13] = [
    (53.4, 90.6),
    (64.5, 95.1),
    (56.3, 87.11),
    (64.8, 92.7),
    (63.2, 88.3),
    (63.1, 90.86),
    (62.4, 91.64),
    (60.8, 90.24),
    (55.2, 92.9),
    (62.2, 89.9),
    (67.97, 92.0),
    (75.3, 93.4),
    (58.3, 86.9),
];

/// Write a 9-bit sequence into channel `ch` of filter `f` of a 3×3 kernel,
/// using the natural mapping (bit 8 = position (0,0), bit 0 = (2,2)).
///
/// The channel is the 9-bit field at flat bit `9 * (f * C + ch)`, written
/// in place as the sequence with its bits reversed — the inverse of
/// [`read_sequences`].
///
/// # Panics
///
/// Panics if the kernel is not `[K, C, 3, 3]`, `(f, ch)` is out of range,
/// or `seq >= 512`.
pub fn write_sequence(kernel: &mut BitTensor, f: usize, ch: usize, seq: u16) {
    assert!(seq < 512, "sequence out of range");
    let shape = kernel.shape();
    assert_eq!(shape.len(), 4);
    assert_eq!((shape[2], shape[3]), (3, 3), "3x3 kernels only");
    assert!(f < shape[0] && ch < shape[1], "channel out of range");
    let bit = (f * shape[1] + ch) * SEQ_BITS;
    let (w, shift) = (bit / 64, bit % 64);
    let field = u64::from(REVERSE9[seq as usize]);
    let mask = (NUM_SEQUENCES - 1) as u64;
    let words = kernel.words_mut();
    words[w] = (words[w] & !(mask << shift)) | field << shift;
    // The field straddles into the next word.
    if shift > 64 - SEQ_BITS {
        let spill = 64 - shift;
        words[w + 1] = (words[w + 1] & !(mask >> spill)) | field >> spill;
    }
}

/// Read the 9-bit sequence of channel `ch` of filter `f` (natural mapping).
///
/// # Panics
///
/// Panics if the kernel is not `[K, C, 3, 3]`.
pub fn read_sequence(kernel: &BitTensor, f: usize, ch: usize) -> u16 {
    let shape = kernel.shape();
    assert_eq!(shape.len(), 4);
    assert_eq!((shape[2], shape[3]), (3, 3), "3x3 kernels only");
    let mut seq = 0u16;
    for p in 0..SEQ_BITS {
        if kernel.get(kernel.idx4(f, ch, p / 3, p % 3)) {
            seq |= 1 << (SEQ_BITS - 1 - p);
        }
    }
    seq
}

/// `REVERSE9[v]` is the 9-bit value `v` with its bits reversed.
static REVERSE9: [u16; NUM_SEQUENCES] = {
    let mut table = [0u16; NUM_SEQUENCES];
    let mut v = 0;
    while v < NUM_SEQUENCES {
        table[v] = (v as u16).reverse_bits() >> (16 - SEQ_BITS);
        v += 1;
    }
    table
};

/// Every channel's 9-bit sequence of a `[K, C, 3, 3]` kernel, in
/// `(filter, channel)` row-major order (natural mapping), read straight
/// from the packed words: entry `f * C + ch` equals
/// `read_sequence(kernel, f, ch)`.
///
/// Channel `i` is the 9-bit field at flat bit `9 * i`, with position
/// `p = 3h + w` at field bit `p`. The natural mapping puts `p` at bit
/// `8 - p`, so each sequence is its field with the 9 bits reversed.
///
/// # Panics
///
/// Panics if the kernel is not `[K, C, 3, 3]`.
pub fn read_sequences(kernel: &BitTensor) -> Vec<u16> {
    let shape = kernel.shape();
    assert_eq!(shape.len(), 4);
    assert_eq!((shape[2], shape[3]), (3, 3), "3x3 kernels only");
    let words = kernel.words();
    (0..shape[0] * shape[1])
        .map(|i| {
            let bit = i * SEQ_BITS;
            let (w, shift) = (bit / 64, bit % 64);
            let mut field = words[w] >> shift;
            // The field straddles into the next word.
            if shift > 64 - SEQ_BITS {
                field |= words[w + 1] << (64 - shift);
            }
            REVERSE9[field as usize & (NUM_SEQUENCES - 1)]
        })
        .collect()
}

/// Count sequence occurrences across all channels of a `[K, C, 3, 3]`
/// kernel. Index = sequence value, entry = count.
///
/// # Panics
///
/// Panics if the kernel is not `[K, C, 3, 3]`.
pub fn count_sequences(kernel: &BitTensor) -> Vec<u64> {
    let mut counts = vec![0u64; NUM_SEQUENCES];
    for s in read_sequences(kernel) {
        counts[s as usize] += 1;
    }
    counts
}

/// A probability distribution over the 512 bit sequences, with sampling.
#[derive(Debug, Clone)]
pub struct SeqDistribution {
    /// Sequences ordered by descending probability.
    order: Vec<u16>,
    /// Cumulative probabilities aligned with `order`, for sampling.
    cumulative: Vec<f64>,
}

impl SeqDistribution {
    /// Build from explicit per-sequence probabilities (normalized here).
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 512`, any entry is negative, or all are 0.
    fn from_probs(probs: &[f64]) -> Self {
        assert_eq!(probs.len(), NUM_SEQUENCES);
        assert!(probs.iter().all(|&p| p >= 0.0), "negative probability");
        let total: f64 = probs.iter().sum();
        assert!(total > 0.0, "distribution has no mass");
        let probs: Vec<f64> = probs.iter().map(|p| p / total).collect();
        let mut order: Vec<u16> = (0..NUM_SEQUENCES as u16).collect();
        order.sort_by(|&a, &b| {
            probs[b as usize]
                .partial_cmp(&probs[a as usize])
                .unwrap()
                .then(a.cmp(&b))
        });
        let mut cumulative = Vec::with_capacity(NUM_SEQUENCES);
        let mut acc = 0.0;
        for &s in &order {
            acc += probs[s as usize];
            cumulative.push(acc);
        }
        // Guard against rounding: force the last entry to 1.
        *cumulative.last_mut().unwrap() = 1.0;
        SeqDistribution { order, cumulative }
    }

    /// Uniform distribution (the "no skew" baseline for ablations).
    pub fn uniform() -> Self {
        SeqDistribution::from_probs(&vec![1.0; NUM_SEQUENCES])
    }

    /// Calibrated distribution hitting `(top64_pct, top256_pct)` coverage.
    ///
    /// The construction is a globally **monotone non-increasing** sequence
    /// of probabilities along the naturalness ranking, built in three
    /// segments whose masses are the targets by construction:
    ///
    /// * ranks 0..64 — a Zipf body (exponent [`HEAD_ALPHA`], first two
    ///   ranks tied per Fig. 3) on top of a floor that keeps the segment's
    ///   tail above the next segment's average;
    /// * ranks 64..256 — a geometric decay from the previous tail down to a
    ///   floor above the last segment's average;
    /// * ranks 256..512 — a geometric decay from the previous tail.
    ///
    /// Monotonicity makes "top-k coverage" well-defined: the k most likely
    /// sequences are exactly the first k ranks, so `coverage(64)` and
    /// `coverage(256)` equal the targets up to float rounding.
    ///
    /// `seed` controls the pseudo-random tie-breaking in the naturalness
    /// ranking so different blocks get different (but statistically alike)
    /// tails.
    ///
    /// All 512 sequences receive nonzero probability; see
    /// `SeqDistribution::calibrated_with_support` for the trained-kernel
    /// variant with a truncated support.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < top64_pct < top256_pct <= 100` and the targets
    /// describe a head-heavy distribution (top-64 mass at least a third of
    /// the 64..256 mass, as all Table II rows do).
    pub fn calibrated(top64_pct: f64, top256_pct: f64, seed: u64) -> Self {
        Self::calibrated_with_support(top64_pct, top256_pct, NUM_SEQUENCES, seed)
    }

    /// Calibrated distribution whose support is limited to the `support`
    /// most natural sequences.
    ///
    /// Trained kernels do not exercise all 512 sequences; the paper's
    /// Sec. VI statistics (pre-clustering 12-bit node usage of 5%, and the
    /// 9-bit node usage collapsing from 23% to 8% once the 256 least
    /// common sequences are removed) are only consistent with a support of
    /// roughly 350 distinct sequences per block — with full support,
    /// "remove the 256 most uncommon" would only touch the ≈9% tail mass,
    /// not the mid ranks. [`DEFAULT_SUPPORT`] encodes this; `EXPERIMENTS.md`
    /// documents the calibration.
    ///
    /// # Panics
    ///
    /// Panics unless `256 < support <= 512` (Table II's top-256 coverage
    /// being below 100% requires more than 256 present sequences) and the
    /// targets satisfy the same conditions as [`SeqDistribution::calibrated`].
    fn calibrated_with_support(top64_pct: f64, top256_pct: f64, support: usize, seed: u64) -> Self {
        assert!(
            0.0 < top64_pct && top64_pct < top256_pct && top256_pct <= 100.0,
            "coverage targets must satisfy 0 < top64 < top256 <= 100"
        );
        assert!(
            (257..=NUM_SEQUENCES).contains(&support),
            "support must be in 257..=512"
        );
        let ranking = naturalness_ranking(seed);
        let m_a = top64_pct / 100.0;
        let m_b = top256_pct / 100.0 - m_a;
        let m_c = 1.0 - top256_pct / 100.0;

        // Floors keep each segment's tail above the next segment's needs.
        let floor_a = 1.02 * m_b / 192.0;
        let floor_b = 1.02 * m_c / (support - 256) as f64;
        assert!(
            64.0 * floor_a < m_a && 192.0 * floor_b < m_b + f64::EPSILON,
            "targets are not head-heavy enough for the monotone construction"
        );

        // --- Segment A: floor + Zipf body over 64 ranks, mass m_a ---
        let mut seg_a = vec![floor_a; 64];
        let mut body: Vec<f64> = (0..64)
            .map(|i| 1.0 / ((i + 1) as f64).powf(HEAD_ALPHA))
            .collect();
        body[1] = body[0] * 0.99; // sequences 0 and 511 nearly tied (Fig. 3)
        let body_sum: f64 = body.iter().sum();
        let body_mass = m_a - 64.0 * floor_a;
        for (p, w) in seg_a.iter_mut().zip(&body) {
            *p += body_mass * w / body_sum;
        }
        let tail_a = seg_a[63];

        // --- Segment B: floor + geometric decay from tail_a, mass m_b ---
        let seg_b = geometric_segment(192, tail_a, floor_b, m_b);
        let tail_b = *seg_b.last().unwrap();

        // --- Segment C: geometric decay from tail_b over the remaining
        //     support, mass m_c; ranks beyond the support get zero ---
        let mut seg_c = if m_c > 0.0 {
            geometric_segment(support - 256, tail_b, 0.0, m_c)
        } else {
            vec![0.0; support - 256]
        };
        seg_c.resize(256, 0.0);

        let mut probs = vec![0.0f64; NUM_SEQUENCES];
        for (rank, p) in seg_a.iter().chain(&seg_b).chain(&seg_c).enumerate() {
            probs[ranking[rank] as usize] = *p;
        }
        SeqDistribution::from_probs(&probs)
    }

    /// Calibrated distribution for paper block `block` (1-based, 1..=13),
    /// using the Table II targets and the trained-kernel support
    /// ([`DEFAULT_SUPPORT`]).
    ///
    /// # Panics
    ///
    /// Panics if `block` is not in `1..=13`.
    pub fn for_block(block: usize, seed: u64) -> Self {
        assert!((1..=13).contains(&block), "block must be 1..=13");
        let (t64, t256) = TABLE2_TARGETS[block - 1];
        SeqDistribution::calibrated_with_support(
            t64,
            t256,
            DEFAULT_SUPPORT,
            seed ^ (block as u64).wrapping_mul(0x9e37_79b9),
        )
    }

    /// Probability of sequence `s`: its step of the cumulative table.
    #[cfg(test)]
    fn prob(&self, s: u16) -> f64 {
        let rank = self.order.iter().position(|&o| o == s).unwrap();
        self.cumulative[rank] - rank.checked_sub(1).map_or(0.0, |r| self.cumulative[r])
    }

    /// Sequences in descending probability order.
    pub fn order(&self) -> &[u16] {
        &self.order
    }

    /// Total probability mass of the `k` most likely sequences.
    pub fn coverage(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cumulative[k.min(NUM_SEQUENCES) - 1]
        }
    }

    /// Draw one sequence.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u16 {
        let u: f64 = rng.random();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).unwrap())
        {
            Ok(i) | Err(i) => self.order[i.min(NUM_SEQUENCES - 1)],
        }
    }

    /// Sample a `[filters, channels, 3, 3]` binary kernel.
    pub fn sample_kernel<R: Rng + ?Sized>(
        &self,
        filters: usize,
        channels: usize,
        rng: &mut R,
    ) -> BitTensor {
        let mut kernel = BitTensor::zeros(&[filters, channels, 3, 3]);
        for f in 0..filters {
            for ch in 0..channels {
                write_sequence(&mut kernel, f, ch, self.sample(rng));
            }
        }
        kernel
    }
}

/// Default number of distinct sequences a trained block's kernels
/// exercise. See `SeqDistribution::calibrated_with_support` for how this
/// is pinned by the paper's Sec. VI node-usage statistics.
pub const DEFAULT_SUPPORT: usize = 352;

/// Zipf exponent of the top-64 body in [`SeqDistribution::calibrated`].
///
/// Chosen so the within-top-64 shape matches Fig. 3: the head sequence
/// holds ~20% of the segment mass and the top-16 hold ~70%.
pub const HEAD_ALPHA: f64 = 1.25;

/// A monotone segment `p_i = floor + (start - floor) * r^(i+1)` of length
/// `n` whose sum equals `mass`, with `r` found by bisection. The first
/// element is strictly below `start`, so appending this segment after a
/// tail of value `start` keeps the whole sequence non-increasing.
///
/// # Panics
///
/// Panics if the mass is not achievable (`mass` outside
/// `(n*floor, n*start)`), which the calibration floors rule out.
fn geometric_segment(n: usize, start: f64, floor: f64, mass: f64) -> Vec<f64> {
    assert!(start > floor, "segment start must exceed its floor");
    let target = mass - n as f64 * floor;
    let span = start - floor;
    assert!(
        target > 0.0 && target < span * n as f64,
        "segment mass {mass} infeasible for start {start}, floor {floor}, n {n}"
    );
    // sum_{k=1..n} r^k is increasing in r; bisect.
    let sum_pow = |r: f64| -> f64 {
        let mut acc = 0.0;
        let mut p = 1.0;
        for _ in 0..n {
            p *= r;
            acc += p;
        }
        acc
    };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if span * sum_pow(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let r = 0.5 * (lo + hi);
    let mut out = Vec::with_capacity(n);
    let mut p = 1.0;
    for _ in 0..n {
        p *= r;
        out.push(floor + span * p);
    }
    out
}

/// The "anchor" patterns trained binary kernels gravitate towards: the
/// uniform channels plus horizontal/vertical edge patterns (cumulative row
/// and column fills under the natural mapping).
///
/// Fig. 3's published top-16 list (0, 511, 256, 255, 4, 510, 1, 507, 508,
/// 64, 3, 504, 447, 7, 448, 63) consists exactly of these anchors and
/// their Hamming-1 neighbours: 448/504/7/63 are row fills, and the rest
/// are within one bit of all-zeros or all-ones.
pub const ANCHOR_SEQUENCES: [u16; 10] = [
    0b000000000, // all -1
    0b111111111, // all +1
    0b111000000, // top row        (448)
    0b111111000, // top two rows   (504)
    0b000000111, // bottom row     (7)
    0b000111111, // bottom two     (63)
    0b100100100, // left column    (292)
    0b110110110, // left two       (438)
    0b001001001, // right column   (73)
    0b011011011, // right two      (219)
];

/// Rank all 512 sequences by "naturalness": primary key is the Hamming
/// distance to the nearest anchor pattern ([`ANCHOR_SEQUENCES`]), with the
/// uniform sequences 0 and 511 pinned to ranks 0 and 1; the secondary key
/// is a seeded hash so ties break differently per block.
///
/// Ranking by anchor distance (rather than plain Hamming weight) matters
/// for the clustering experiment: it spreads the common set across Hamming
/// weights the way trained kernels do, so rare sequences usually *have* a
/// Hamming-1 neighbour among the common ones — the property the paper's
/// Sec. III-C algorithm relies on.
fn naturalness_ranking(seed: u64) -> Vec<u16> {
    let mut seqs: Vec<u16> = (0..NUM_SEQUENCES as u16).collect();
    let key = |s: u16| -> (u32, u64) {
        let dist = if s == 0 || s == 511 {
            0
        } else {
            1 + ANCHOR_SEQUENCES
                .iter()
                .map(|&a| ((s ^ a) as u32).count_ones())
                .min()
                .expect("anchors are non-empty")
        };
        // Deterministic per-seed tie-break hash (splitmix64).
        let mut h = seed ^ ((s as u64) << 17).wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (dist, h)
    };
    seqs.sort_by_key(|&s| key(s));
    seqs
}

/// Sample uniformly random binary weights of any shape (used for the
/// 1×1 kernels, which the paper does not compress).
///
/// Draw order: bit `i` of the flat row-major tensor is the top bit of the
/// `i`-th `next_u64` of `StdRng::seed_from_u64(seed)` — one draw per bit,
/// the stream `rng.random::<bool>()` reads. [`random_packed_kernel`] draws
/// the same stream straight into lane words.
pub fn random_kernel(shape: &[usize], seed: u64) -> BitTensor {
    let mut t = BitTensor::zeros(shape);
    let len = t.len();
    draw_bits(seed, [1, 1, len], (|_| 0, |_| 0), 1, t.words_mut());
    t
}

/// [`random_kernel`] of shape `[filters, channels, kh, kw]`, drawn
/// straight into channel-packed lane words: it equals
/// `PackedKernel::pack(&random_kernel(&shape, seed))` without building
/// the flat tensor or gathering it. Draw `(f, c, p)` — flat order, `p`
/// the kernel position — lands at bit `c % 64` of lane `c / 64` of filter
/// `f` at position `p`, wherever [`LaneLayout::index`] puts that word.
/// The layout is separable: the word's index is filter `f`'s first word
/// plus lane `c / 64`'s offset plus `p` position strides.
///
/// # Panics
///
/// Panics if any dimension is zero.
pub fn random_packed_kernel(shape: [usize; 4], seed: u64) -> PackedKernel {
    let [filters, channels, kh, kw] = shape;
    let layout = LaneLayout::new(filters, channels, kh, kw);
    let mut words = vec![0u64; layout.words()];
    draw_bits(
        seed,
        [filters, channels, kh * kw],
        (
            |f| layout.index(f, 0, 0) * LANE_BITS,
            |ch| layout.index(0, 0, ch / LANE_BITS) * LANE_BITS + ch % LANE_BITS,
        ),
        layout.index(0, 1, 0) * LANE_BITS,
        &mut words,
    );
    PackedKernel::from_lane_words(filters, channels, kh, kw, words)
        .expect("non-zero kernel dimensions")
}

/// The one draw loop of the uniform generators: walk a `[K, C, P]` index
/// space in row-major order, draw one `next_u64` per index, and set its
/// top bit at bit `fo(f) + co(c) + p * ps` of `words` (which start zero).
/// Bits bound for the same word gather in a register, so a run of
/// consecutive destinations costs one store per word.
fn draw_bits(
    seed: u64,
    [k, c, p]: [usize; 3],
    (fo, co): (impl Fn(usize) -> usize, impl Fn(usize) -> usize),
    ps: usize,
    words: &mut [u64],
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut word, mut acc) = (0usize, 0u64);
    for f in 0..k {
        let first = fo(f);
        for ch in 0..c {
            let base = first + co(ch);
            for q in 0..p {
                let at = base + q * ps;
                if at / 64 != word {
                    words[word] |= acc;
                    (word, acc) = (at / 64, 0);
                }
                acc |= (rng.next_u64() >> 63) << (at % 64);
            }
        }
    }
    if let Some(w) = words.get_mut(word) {
        *w |= acc;
    }
}

/// Sample float weights uniform in `[-bound, bound]` (for the 8-bit layers).
pub fn random_floats(n: usize, bound: f32, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(-bound..bound)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_mapping_roundtrip_all_sequences() {
        let mut kernel = BitTensor::zeros(&[1, 1, 3, 3]);
        for s in 0..512u16 {
            write_sequence(&mut kernel, 0, 0, s);
            assert_eq!(read_sequence(&kernel, 0, 0), s);
        }
    }

    #[test]
    fn natural_mapping_msb_is_position_00() {
        // Paper Fig. 2: value at (0,0) is the most significant bit.
        let mut kernel = BitTensor::zeros(&[1, 1, 3, 3]);
        write_sequence(&mut kernel, 0, 0, 0b100_000_000);
        assert_eq!(kernel.sign_at4(0, 0, 0, 0), 1);
        for p in 1..9 {
            assert_eq!(kernel.sign_at4(0, 0, p / 3, p % 3), -1);
        }
        // All ones -> 511; all minus-ones -> 0.
        write_sequence(&mut kernel, 0, 0, 511);
        assert!((0..9).all(|p| kernel.sign_at4(0, 0, p / 3, p % 3) == 1));
    }

    #[test]
    fn fig2_example_sequence_369() {
        // Fig. 2 channel 1: rows (1,-1,1),(1,1,-1),(-1,-1,1) -> bits
        // 101110001 = 369.
        let bits = [true, false, true, true, true, false, false, false, true];
        let mut kernel = BitTensor::zeros(&[1, 1, 3, 3]);
        for (p, &b) in bits.iter().enumerate() {
            let i = kernel.idx4(0, 0, p / 3, p % 3);
            kernel.set(i, b);
        }
        assert_eq!(read_sequence(&kernel, 0, 0), 369);
    }

    #[test]
    fn ranking_starts_with_extremes() {
        let r = naturalness_ranking(7);
        assert!(r[0] == 0 || r[0] == 511);
        assert!(r[1] == 0 || r[1] == 511);
        assert_ne!(r[0], r[1]);
        // The next ranks are anchors or their Hamming-1 neighbours.
        let near_anchor = |s: u16| {
            ANCHOR_SEQUENCES
                .iter()
                .map(|&a| ((s ^ a) as u32).count_ones())
                .min()
                .unwrap()
        };
        for &s in &r[2..20] {
            assert!(near_anchor(s) <= 1, "sequence {s} ranks too early");
        }
        // It is a permutation.
        let mut sorted = r.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..512).collect::<Vec<u16>>());
    }

    #[test]
    fn fig3_published_top16_rank_early() {
        // The paper's observed top-16 should all live in the head of our
        // ranking (they are anchors or one bit away from one).
        let fig3 = [
            0u16, 511, 256, 255, 4, 510, 1, 507, 508, 64, 3, 504, 447, 7, 448, 63,
        ];
        let r = naturalness_ranking(0);
        let pos = |s: u16| r.iter().position(|&x| x == s).unwrap();
        for &s in &fig3 {
            assert!(pos(s) < 120, "sequence {s} at rank {}", pos(s));
        }
    }

    #[test]
    fn calibrated_hits_coverage_targets_exactly() {
        for &(t64, t256) in TABLE2_TARGETS.iter() {
            let d = SeqDistribution::calibrated(t64, t256, 3);
            assert!(
                (d.coverage(64) * 100.0 - t64).abs() < 1e-6,
                "top64: {} vs {t64}",
                d.coverage(64) * 100.0
            );
            assert!(
                (d.coverage(256) * 100.0 - t256).abs() < 1e-6,
                "top256: {} vs {t256}",
                d.coverage(256) * 100.0
            );
        }
    }

    #[test]
    fn calibrated_head_matches_fig3_shape() {
        // Fig. 3 shows a block where sequences 0 and 511 are ~12.8%/12.7%
        // and the top-16 cover ~46% while the top-64 cover ~64.5%
        // (= block 2's Table II row). Check the within-segment shape: the
        // head pair holds ~like the figure and top16/top64 ≈ 46/64.5 ≈ 0.71.
        let d = SeqDistribution::for_block(2, 0);
        let p0 = d.prob(0) * 100.0;
        let p511 = d.prob(511) * 100.0;
        assert!((10.0..16.0).contains(&p0), "p(0) = {p0}");
        assert!((10.0..16.0).contains(&p511), "p(511) = {p511}");
        let top16 = d.coverage(16) * 100.0;
        assert!((41.0..51.0).contains(&top16), "top16 = {top16}");
        // The ratio holds across blocks, not just the one in the figure.
        for block in 1..=13 {
            let d = SeqDistribution::for_block(block, 0);
            let ratio = d.coverage(16) / d.coverage(64);
            assert!((0.6..0.85).contains(&ratio), "block {block}: ratio {ratio}");
        }
    }

    #[test]
    fn sampling_converges_to_distribution() {
        let d = SeqDistribution::for_block(2, 1);
        let mut rng = StdRng::seed_from_u64(99);
        let kernel = d.sample_kernel(64, 64, &mut rng); // 4096 draws
        let counts = count_sequences(&kernel);
        let total: u64 = counts.iter().sum();
        assert_eq!(total, 64 * 64);
        // Empirical top-64 coverage should be near the 64.5% target.
        let mut c: Vec<u64> = counts.clone();
        c.sort_unstable_by(|a, b| b.cmp(a));
        let top64: u64 = c.iter().take(64).sum();
        let pct = top64 as f64 / total as f64 * 100.0;
        assert!((pct - 64.5).abs() < 6.0, "empirical top64 = {pct}");
    }

    #[test]
    fn uniform_coverage_is_linear() {
        let d = SeqDistribution::uniform();
        assert!((d.coverage(256) - 0.5).abs() < 1e-9);
        assert!((d.coverage(64) - 0.125).abs() < 1e-9);
    }

    #[test]
    fn count_sequences_totals_channels() {
        let d = SeqDistribution::uniform();
        let mut rng = StdRng::seed_from_u64(5);
        let k = d.sample_kernel(3, 7, &mut rng);
        let counts = count_sequences(&k);
        assert_eq!(counts.iter().sum::<u64>(), 21);
    }

    #[test]
    #[should_panic(expected = "3x3 kernels only")]
    fn read_sequences_rejects_non_3x3() {
        read_sequences(&BitTensor::zeros(&[2, 2, 1, 1]));
    }

    #[test]
    #[should_panic(expected = "coverage targets")]
    fn bad_targets_panic() {
        SeqDistribution::calibrated(90.0, 50.0, 0);
    }

    /// The per-bit generator [`random_kernel`] replaced.
    fn random_kernel_reference(shape: &[usize], seed: u64) -> BitTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = BitTensor::zeros(shape);
        for i in 0..t.len() {
            if rng.random::<bool>() {
                t.set(i, true);
            }
        }
        t
    }

    #[test]
    fn uniform_kernels_draw_one_stream_in_either_layout() {
        // K = 3 keeps K·C off a multiple of 64 for every C below; the
        // other filter counts sit on and off the 8-filter panels.
        let filters = [1usize, 3, 7, 9, 200];
        for (kh, kw) in [(1, 1), (1, 3), (3, 3)] {
            for (k, c) in filters
                .iter()
                .flat_map(|&k| [1usize, 8, 63, 64, 65, 200].map(|c| (k, c)))
            {
                for seed in [0u64, 11, 0x9E37_79B9_7F4A_7C15] {
                    let shape = [k, c, kh, kw];
                    let flat = random_kernel(&shape, seed);
                    let what = format!("{shape:?} seed {seed}");
                    assert_eq!(flat, random_kernel_reference(&shape, seed), "{what}");
                    assert!(flat.tail_is_clean(), "{what}");
                    assert_eq!(
                        random_packed_kernel(shape, seed),
                        PackedKernel::pack(&flat).unwrap(),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn write_sequence_matches_per_bit_writes() {
        // Odd C puts fields across word boundaries; the noisy start
        // checks that a write clears the bits it replaces.
        let (k, c) = (5, 13);
        let mut kernel = random_kernel(&[k, c, 3, 3], 3);
        let mut want = kernel.clone();
        let mut rng = StdRng::seed_from_u64(4);
        for f in 0..k {
            for ch in 0..c {
                let seq = rng.random_range(0u16..512);
                write_sequence(&mut kernel, f, ch, seq);
                for p in 0..SEQ_BITS {
                    let i = want.idx4(f, ch, p / 3, p % 3);
                    want.set(i, (seq >> (SEQ_BITS - 1 - p)) & 1 == 1);
                }
            }
        }
        assert_eq!(kernel, want);
        assert!(kernel.tail_is_clean());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = StdRng::seed_from_u64(11);
        let mut r2 = StdRng::seed_from_u64(11);
        let d = SeqDistribution::for_block(3, 4);
        assert_eq!(
            d.sample_kernel(2, 8, &mut r1),
            d.sample_kernel(2, 8, &mut r2)
        );
    }
}
