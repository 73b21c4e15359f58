//! Channel-wise binary dot products with tail-lane masking.

use crate::bitword::{mask, xnor};
use crate::LANE_BITS;

/// The seed's original channel dot: one accumulator, one lane at a time.
///
/// Frozen bit-for-bit as the scalar baseline that `perfsuite` tracks the
/// engine against — [`crate::ops::conv::conv2d_binary`] and
/// [`crate::ops::gemm::gemm_binary_naive`] call this so their timings keep
/// meaning the seed code path. Their proptests against the float
/// reference (tail lanes included) are its tests.
///
/// The final lane is masked when `c` is not a multiple of 64 so that the
/// undefined tail bits (which are zero in both operands and would otherwise
/// xnor to *agreements*) do not contribute.
#[inline]
pub(crate) fn dot_channels_seed(a: &[u64], w: &[u64], c: usize) -> u32 {
    let full = c / LANE_BITS;
    let rem = c % LANE_BITS;
    debug_assert!(a.len() >= full + usize::from(rem > 0));
    debug_assert!(w.len() >= full + usize::from(rem > 0));
    let mut acc = 0u32;
    for l in 0..full {
        acc += crate::bitword::xnor_popcount(a[l], w[l]);
    }
    if rem > 0 {
        acc += (xnor(a[full], w[full]) & mask(rem)).count_ones();
    }
    acc
}
