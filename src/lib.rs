//! # bnnkc — Exploiting Kernel Compression on BNNs
//!
//! An open-source reproduction of *"Exploiting Kernel Compression on
//! BNNs"* (F. Silfa, J. M. Arnau, A. González — DATE 2023,
//! [arXiv:2212.00608](https://arxiv.org/abs/2212.00608)).
//!
//! The paper observes that the 9-bit channel patterns ("bit sequences")
//! of binary 3×3 kernels are heavily skewed in frequency, compresses them
//! with a table-based simplified Huffman code plus a Hamming-1 clustering
//! pass, and adds a small decoding unit to a mobile CPU so the compressed
//! kernels also run *faster* (loads stream and overlap) instead of slower
//! (software decoding overhead).
//!
//! This crate re-exports the building blocks:
//!
//! * [`bitnn`] — the BNN inference substrate (bit-packed tensors, channel
//!   packing, xnor-popcount kernels, the layer-graph model type that
//!   ReActNet and the other built-in families are built as, calibrated
//!   synthetic weights);
//! * [`kc_core`] — the compression scheme itself (frequency analysis,
//!   simplified + full Huffman coding, clustering, codecs);
//! * [`simcpu`] — a cycle-approximate CPU model with the paper's decoding
//!   unit (`lddu` / `ldps`);
//! * [`serve`] — the batch-coalescing inference daemon (`bnnkc serve`):
//!   model registry, backpressure, hot-swap, wire protocol.
//!
//! # Quickstart
//!
//! ```
//! use bnnkc::prelude::*;
//!
//! // A ReActNet-shaped model with weights calibrated to the paper's
//! // published bit-sequence statistics.
//! let model = ReActNetConfig::tiny().model(42)?;
//!
//! // Compress every 3x3 kernel: encoding + Hamming-1 clustering.
//! let codec = KernelCodec::paper_clustered();
//! let ratio = model_compression_ratio(&model, &codec)?;
//! assert!(ratio.ratio() > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! harnesses that regenerate every table and figure of the paper.

#![warn(missing_docs)]

pub use bitnn;
pub use bnnkc_serve as serve;
pub use kc_core;
pub use simcpu;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use bitnn::backend::ScalarBackend;
    pub use bitnn::engine::Engine;
    pub use bitnn::exec::ExecPolicy;
    pub use bitnn::graph::arch::{
        attach_weights, attach_weights_with, build_model, build_spec, reactnet_spec,
        sample_conv3_kernels, Arch, Conv3Slot,
    };
    pub use bitnn::graph::{
        ConvGeometry, GraphBuilder, GraphNode, GraphSpec, ModelGraph, NodeOp, NodeSpec, OpSpec,
    };
    pub use bitnn::infer::{
        compare_models, logits_digest, synthetic_batch, Agreement, RUN_INPUT_SALT,
    };
    pub use bitnn::model::{BlockSpec, OpCategory, ReActNetConfig};
    pub use bitnn::pack::PackedKernel;
    pub use bitnn::tensor::{BitTensor, Tensor};
    pub use bitnn::weightgen::SeqDistribution;
    pub use bnnkc_serve::{
        serve_listener, Client, InferSlot, ModelShape, ServeConfig, ServeError, Server,
    };
    pub use kc_core::cluster::{ClusterConfig, ClusterPlan};
    pub use kc_core::codec::{model_compression_ratio, CompressedKernel, KernelCodec};
    pub use kc_core::container::{
        read_container, read_model_container, read_model_container_unverified, write_atomic,
        write_container, write_model_container, write_model_container_v2, write_model_container_v3,
        Container, ModelContainer, MODEL_VERSION_V2, MODEL_VERSION_V3,
    };
    pub use kc_core::delta::{apply_patch, diff_containers, inspect_patch, PatchInfo, PatchStats};
    pub use kc_core::digest::{Digest, DIGEST_LEN};
    pub use kc_core::huffman::{FullHuffman, SimplifiedTree, TreeConfig};
    pub use kc_core::stream_decode::GroupDecoder;
    pub use kc_core::wire::{ErrorCode, Request, Response};
    pub use kc_core::{BitSeq, FreqTable};
    pub use simcpu::config::CpuConfig;
    pub use simcpu::run::{
        compare_modes, run_model, run_model_streams, run_spec_streams, run_workload, Mode,
    };
    pub use simcpu::trace::KernelStream;
}
