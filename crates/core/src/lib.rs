//! # kc-core — Kernel Compression for Binary Neural Networks
//!
//! The primary contribution of *"Exploiting Kernel Compression on BNNs"*
//! (DATE 2023): in a binary 3×3 kernel each channel is a 9-bit **bit
//! sequence** (512 possible values), their use frequency is heavily skewed,
//! and this can be exploited with:
//!
//! * [`freq::FreqTable`] — frequency analysis over the 512 sequences
//!   (paper Fig. 3 / Table II);
//! * [`huffman::SimplifiedTree`] — the paper's simplified Huffman code: a
//!   small chain-shaped tree whose leaves are *tables* of sequences, giving
//!   code lengths 6/8/9/12 bits for the default 32/64/64/256 node
//!   capacities (paper Fig. 4, Sec. VI);
//! * [`huffman::full`] — a canonical full Huffman coder used as the
//!   ablation baseline the simplified tree trades against;
//! * [`cluster`] — the Hamming-1 substitution that replaces rare sequences
//!   with frequent look-alikes before encoding (paper Sec. III-C), lifting
//!   the per-block compression ratio from ≈1.20x to ≈1.32x (Table V);
//! * [`codec`] — end-to-end kernel/model compression with ratio accounting
//!   (Table V and the 1.2x whole-model figure);
//! * [`config`] — the decoding unit's configuration structure (Table III);
//! * [`stream_decode`] — the software analogue of the paper's streaming
//!   decode + packing unit (Fig. 6): walks a container's Huffman stream
//!   and emits channel-packed 64-bit lane words the execution engine
//!   consumes directly.
//!
//! # Quick example
//!
//! ```
//! use bitnn::weightgen::SeqDistribution;
//! use kc_core::codec::KernelCodec;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let kernel = SeqDistribution::for_block(1, 0).sample_kernel(32, 32, &mut rng);
//! let codec = KernelCodec::paper();
//! let compressed = codec.compress(&kernel)?;
//! assert!(compressed.ratio() > 1.0);
//! let restored = compressed.decompress()?;
//! assert_eq!(restored, kernel);
//! # Ok::<(), kc_core::KcError>(())
//! ```

#![warn(missing_docs)]

pub mod actseq;
pub mod bitseq;
pub mod bitstream;
pub mod cluster;
pub mod codec;
pub mod config;
pub mod container;
pub mod delta;
pub mod digest;
pub mod error;
pub mod freq;
pub mod huffman;
pub mod stream_decode;
pub mod wire;

pub use bitseq::BitSeq;
pub use error::{KcError, Result};
pub use freq::{FreqTable, SeqHistogram};
pub use huffman::{SimplifiedTree, TreeConfig};
