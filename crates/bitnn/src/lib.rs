//! # bitnn — Binary Neural Network inference substrate
//!
//! This crate is the software baseline of the kernel-compression study: a
//! pure-Rust re-implementation of the parts of [daBNN] that the paper
//! relies on, namely
//!
//! * **bit-packed tensors** for weights and activations where each value is
//!   one bit (`1` encodes `+1`, `0` encodes `-1`),
//! * **channel packing** (paper Fig. 5): the bit at one spatial position of
//!   many channels is packed into machine words so a single register load
//!   brings in one position of up to 64 channels,
//! * **xnor + popcount** convolution and GEMM kernels (paper Eq. 2),
//! * the **ReActNet** layer set (paper Fig. 1 / Table I): `RSign`,
//!   binary 3×3 / 1×1 convolutions, batch-norm, `RPReLU`, 8-bit
//!   quantized input and output layers,
//! * one model type, the layer graph [`ModelGraph`]: ReActNet and the
//!   other built-in families are graph specs weighted by one generator
//!   ([`graph::arch`]), and
//! * a **calibrated synthetic weight generator** reproducing the published
//!   bit-sequence frequency statistics (paper Fig. 3 / Table II), used in
//!   place of the trained ImageNet checkpoint.
//!
//! # Quick example
//!
//! ```
//! use bitnn::model::ReActNetConfig;
//! use bitnn::tensor::Tensor;
//!
//! // A small ReActNet-shaped model (scaled-down channel schedule).
//! let model = ReActNetConfig::tiny().model(0xBEEF)?;
//! let input = Tensor::zeros(&[1, 3, 32, 32]);
//! let logits = model.forward(&input)?;
//! assert_eq!(logits.shape(), &[1, 10]);
//! # Ok::<(), bitnn::BitnnError>(())
//! ```
//!
//! [daBNN]: https://arxiv.org/abs/1908.05858

#![warn(missing_docs)]

pub mod backend;
pub mod bitword;
pub mod engine;
pub mod error;
pub mod exec;
pub mod graph;
pub mod infer;
pub mod layers;
pub mod model;
pub mod ops;
pub mod pack;
mod pool;
pub mod simd;
pub mod tensor;
pub mod weightgen;

pub use engine::{Engine, Scratch};
pub use error::{BitnnError, Result};
pub use exec::ExecPolicy;
pub use graph::arch::Arch;
pub use graph::{BatchScratch, GraphBuilder, GraphSpec, ModelGraph};
pub use pack::{PackedActivations, PackedKernel};
pub use tensor::{BitTensor, Tensor};

/// Number of bits in one packed lane word.
///
/// The paper's target (ARMv8 NEON) uses 128-bit vector registers built from
/// 64-bit lanes; we use `u64` as the lane type everywhere, which is both the
/// widest native integer with a hardware `popcnt` on common targets and the
/// granularity daBNN packs at.
pub const LANE_BITS: usize = 64;

/// Compute how many `u64` lanes are needed to hold `bits` bits.
#[inline]
pub const fn lanes_for(bits: usize) -> usize {
    bits.div_ceil(LANE_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_for_exact_and_partial() {
        assert_eq!(lanes_for(0), 0);
        assert_eq!(lanes_for(1), 1);
        assert_eq!(lanes_for(64), 1);
        assert_eq!(lanes_for(65), 2);
        assert_eq!(lanes_for(128), 2);
        assert_eq!(lanes_for(129), 3);
    }
}
