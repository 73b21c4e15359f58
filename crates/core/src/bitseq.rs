//! The 9-bit bit sequence (paper Fig. 2).
//!
//! A binary 3×3 kernel channel has nine ±1 values; stored as bits they form
//! a 9-bit integer under the *natural mapping*: position (0,0) is the most
//! significant bit, position (2,2) the least significant. The all-`-1`
//! channel is sequence 0, the all-`+1` channel is sequence 511.

use crate::error::{KcError, Result};
use std::fmt;

/// Number of distinct bit sequences for a 3×3 channel.
pub const NUM_SEQUENCES: usize = 512;

/// Bits per sequence.
pub const SEQ_BITS: u32 = 9;

/// A validated 9-bit bit sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BitSeq(u16);

impl BitSeq {
    /// The all-`-1` channel.
    pub const ZEROS: BitSeq = BitSeq(0);
    /// The all-`+1` channel.
    pub const ONES: BitSeq = BitSeq(511);

    /// Construct from a raw value.
    ///
    /// # Errors
    ///
    /// Returns [`KcError::InvalidSequence`] if `v >= 512`.
    pub fn new(v: u16) -> Result<Self> {
        if v < NUM_SEQUENCES as u16 {
            Ok(BitSeq(v))
        } else {
            Err(KcError::InvalidSequence(v))
        }
    }

    /// Construct without validation.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v >= 512`.
    #[inline]
    pub fn new_unchecked(v: u16) -> Self {
        debug_assert!(v < NUM_SEQUENCES as u16);
        BitSeq(v)
    }

    /// The raw 9-bit value.
    #[inline]
    pub fn value(self) -> u16 {
        self.0
    }

    /// The ±1 value at kernel position `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` exceed 2.
    #[cfg(test)]
    fn sign_at(self, row: usize, col: usize) -> i32 {
        assert!(row < 3 && col < 3, "position out of 3x3 range");
        let p = row * 3 + col;
        if (self.0 >> (8 - p)) & 1 == 1 {
            1
        } else {
            -1
        }
    }

    /// Number of `+1` positions.
    #[inline]
    pub fn popcount(self) -> u32 {
        (self.0 as u32).count_ones()
    }

    /// Hamming distance to another sequence (number of differing
    /// positions; the clustering algorithm constrains this to 1).
    #[inline]
    pub fn hamming(self, other: BitSeq) -> u32 {
        ((self.0 ^ other.0) as u32).count_ones()
    }

    /// The 9 sequences at Hamming distance exactly 1.
    pub fn neighbors(self) -> impl Iterator<Item = BitSeq> {
        let v = self.0;
        (0..SEQ_BITS).map(move |b| BitSeq(v ^ (1 << b)))
    }

    /// All sequences within Hamming distance `radius` (excluding self),
    /// used by the Hamming-radius ablation.
    #[cfg(test)]
    fn ball(self, radius: u32) -> Vec<BitSeq> {
        (0..NUM_SEQUENCES as u16)
            .map(BitSeq)
            .filter(|&s| s != self && self.hamming(s) <= radius)
            .collect()
    }

    /// Iterate over all 512 sequences.
    pub fn all() -> impl Iterator<Item = BitSeq> {
        (0..NUM_SEQUENCES as u16).map(BitSeq)
    }
}

impl fmt::Display for BitSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Binary for BitSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:09b}", self.0)
    }
}

impl From<BitSeq> for u16 {
    fn from(s: BitSeq) -> u16 {
        s.0
    }
}

impl TryFrom<u16> for BitSeq {
    type Error = KcError;

    fn try_from(v: u16) -> Result<Self> {
        BitSeq::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(BitSeq::ZEROS.value(), 0);
        assert_eq!(BitSeq::ONES.value(), 511);
        assert_eq!(BitSeq::ZEROS.popcount(), 0);
        assert_eq!(BitSeq::ONES.popcount(), 9);
    }

    #[test]
    fn validation() {
        assert!(BitSeq::new(511).is_ok());
        assert_eq!(BitSeq::new(512), Err(KcError::InvalidSequence(512)));
        assert!(BitSeq::try_from(700u16).is_err());
    }

    #[test]
    fn sign_at_natural_mapping() {
        // Sequence 256 = 100000000: only position (0,0) is +1.
        let s = BitSeq::new(256).unwrap();
        assert_eq!(s.sign_at(0, 0), 1);
        assert_eq!(s.sign_at(2, 2), -1);
        // Sequence 1: only position (2,2) is +1.
        let s = BitSeq::new(1).unwrap();
        assert_eq!(s.sign_at(2, 2), 1);
        assert_eq!(s.sign_at(0, 0), -1);
    }

    #[test]
    fn fig2_example() {
        // Fig. 2: 101110001 -> 369.
        let s = BitSeq::new(369).unwrap();
        let expect = [1, -1, 1, 1, 1, -1, -1, -1, 1];
        for (p, &e) in expect.iter().enumerate() {
            assert_eq!(s.sign_at(p / 3, p % 3), e);
        }
    }

    #[test]
    fn neighbors_are_distance_one() {
        let s = BitSeq::new(0b101010101).unwrap();
        let n: Vec<BitSeq> = s.neighbors().collect();
        assert_eq!(n.len(), 9);
        for x in &n {
            assert_eq!(s.hamming(*x), 1);
        }
        // All distinct.
        let mut vals: Vec<u16> = n.iter().map(|b| b.value()).collect();
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len(), 9);
    }

    #[test]
    fn ball_sizes() {
        let s = BitSeq::ZEROS;
        assert_eq!(s.ball(1).len(), 9); // C(9,1)
        assert_eq!(s.ball(2).len(), 9 + 36); // + C(9,2)
        assert_eq!(s.ball(9).len(), 511); // everything else
    }

    #[test]
    fn all_iterates_512() {
        assert_eq!(BitSeq::all().count(), 512);
    }

    #[test]
    fn display_and_binary_formats() {
        let s = BitSeq::new(5).unwrap();
        assert_eq!(s.to_string(), "5");
        assert_eq!(format!("{s:b}"), "000000101");
    }

    proptest! {
        #[test]
        fn hamming_is_metric(a in 0u16..512, b in 0u16..512, c in 0u16..512) {
            let (a, b, c) = (BitSeq(a), BitSeq(b), BitSeq(c));
            prop_assert_eq!(a.hamming(b), b.hamming(a));
            prop_assert_eq!(a.hamming(a), 0);
            prop_assert!(a.hamming(c) <= a.hamming(b) + b.hamming(c));
        }

        #[test]
        fn popcount_equals_positive_positions(v in 0u16..512) {
            let s = BitSeq(v);
            let positives = (0..3)
                .flat_map(|r| (0..3).map(move |c| (r, c)))
                .filter(|&(r, c)| s.sign_at(r, c) == 1)
                .count() as u32;
            prop_assert_eq!(s.popcount(), positives);
        }
    }
}
