//! The ReActNet layer set (paper Fig. 1).
//!
//! A basic block is `Sign → 1-bit 3×3 Conv → BatchNorm(+bias) → RPReLU`
//! followed by `Sign → 1-bit 1×1 Conv → BatchNorm(+bias) → RPReLU`, with an
//! identity shortcut around each half. The input layer is an 8-bit
//! quantized convolution and the output layer an 8-bit quantized
//! fully-connected layer (paper Sec. II-B: "Both layers are computed using
//! full-precision values, and in this work, we quantize them using 8 bits").
//!
//! All layers implement [`Layer`], a simple `Tensor -> Tensor` forward
//! trait; binary convolutions additionally expose their packed kernels so
//! the compression crate can harvest bit sequences from them.

use crate::tensor::Tensor;

pub mod batchnorm;
pub mod binconv;
pub mod pool;
pub mod prelu;
pub mod quant;
pub mod sign;

pub use batchnorm::BatchNorm;
pub use binconv::BinConv2d;
pub use pool::{avg_pool_2x2, avg_pool_2x2_nhwc_into, global_avg_pool, global_avg_pool_nhwc_into};
pub use prelu::RPReLU;
pub use quant::{QuantConv2d, QuantLinear, QuantScratch};
pub use sign::RSign;

/// A forward-only layer over `f32` tensors.
pub trait Layer {
    /// Run the layer.
    fn forward(&self, input: &Tensor) -> Tensor;

    /// Parameter storage in bits (used for the Table I breakdown).
    fn param_bits(&self) -> usize;

    /// Short human-readable description.
    fn describe(&self) -> String;
}
