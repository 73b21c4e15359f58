//! Binary compute kernels: dot products, GEMM, and convolutions, plus the
//! int8 kernel of the network's two 8-bit ends ([`mod@int8`]).
//!
//! Every packed kernel here has a full-precision oracle in [`mod@reference`]
//! that operates on ±1 floats; the test suites assert bit-exact agreement
//! (the binary dot product is an integer, so "bit-exact" is meaningful).
//!
//! Padding semantics: spatial padding inserts the value `-1` (bit `0`).
//! This is the convention used by binary inference frameworks since a `0`
//! bit already decodes to `-1`, and both the packed and reference paths
//! implement it identically (see `DESIGN.md`).

pub mod conv;
mod dot;
pub mod gemm;
pub mod im2col;
pub mod int8;
pub mod reference;

pub use conv::{conv2d_binary, Conv2dParams};
pub use gemm::{gemm_binary, gemm_binary_into, gemm_binary_naive, PackedMatrix};
pub use im2col::{conv2d_im2col, im2col_kernel, im2col_kernel_packed, im2col_pack};
