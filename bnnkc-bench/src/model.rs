//! The benchmark's model: generated from the workload seed through
//! `graph::arch`, compressed with the paper's clustered codec into v3
//! container bytes, and deployed through the daemon's own registry path.
//! Also the correctness oracles every workload checks before timing.

use crate::trace::Tracer;
use bitnn::backend::ScalarBackend;
use bitnn::graph::arch::{attach_weights, build_spec, sample_conv3_kernels};
use bitnn::graph::{BatchScratch, OpSpec, ShapeInfo};
use bitnn::infer::{logits_digest, synthetic_batch, RUN_INPUT_SALT};
use bitnn::{Arch, BitTensor, Engine, GraphSpec, ModelGraph, Tensor};
use bnnkc_serve::registry::deploy_bytes;
use kc_core::codec::KernelCodec;
use kc_core::container::{read_model_container, write_model_container_v3};

/// Boxed error for the benchmark's own plumbing.
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;
/// Result with [`BoxError`].
pub type Result<T> = std::result::Result<T, BoxError>;

/// Input image side of every workload.
pub const IMAGE: usize = 32;
/// Input channels of the ReActNet stem.
pub const CHANNELS: usize = 3;

/// The weight-free spec of the workload model.
pub fn spec(scale: f64) -> Result<GraphSpec> {
    Ok(build_spec(Arch::ReActNet, scale, IMAGE)?)
}

/// The model's compressible 3×3 kernels, sampled from the seed.
pub fn kernels(spec: &GraphSpec, seed: u64) -> Result<Vec<BitTensor>> {
    Ok(sample_conv3_kernels(spec, seed)?)
}

/// One compression of the model.
#[derive(Debug, Clone)]
pub struct Compressed {
    /// v3 container bytes.
    pub bytes: Vec<u8>,
    /// Aggregate 3×3 kernel ratio: original bits over stream bits.
    pub ratio: f64,
    /// Sequences encoded (filters × channels, summed).
    pub seqs: usize,
    /// Huffman stream bytes, summed over kernels.
    pub stream_bytes: usize,
}

/// Compress every kernel with the paper's clustered codec and write the
/// v3 container.
///
/// # Errors
///
/// Propagates codec and container errors.
pub fn compress(tr: &Tracer, spec: &GraphSpec, kernels: &[BitTensor]) -> Result<Compressed> {
    let codec = KernelCodec::paper_clustered();
    let mut compressed = Vec::with_capacity(kernels.len());
    let (mut orig_bits, mut stream_bits, mut seqs, mut stream_bytes) = (0, 0, 0, 0);
    for (i, k) in kernels.iter().enumerate() {
        let ck = tr.scope("codec.compress", i as u64, || codec.compress(k))?;
        orig_bits += ck.original_bits();
        stream_bits += ck.stream_bits();
        seqs += ck.num_sequences();
        stream_bytes += ck.stream().len();
        compressed.push(ck);
    }
    let bytes = tr.scope("container.write", 0, || {
        write_model_container_v3(spec, &compressed)
    })?;
    Ok(Compressed {
        bytes: bytes.to_vec(),
        ratio: orig_bits as f64 / stream_bits as f64,
        seqs,
        stream_bytes,
    })
}

/// Deploy container bytes through the daemon's registry path (read →
/// verify → attach → stream-decode).
///
/// # Errors
///
/// Propagates container and graph errors.
pub fn deploy(tr: &Tracer, bytes: &[u8], engine: &Engine, seed: u64) -> Result<ModelGraph> {
    let entry = tr.scope("registry.deploy_bytes", 0, || {
        deploy_bytes(bytes, engine, seed, IMAGE, 1)
    })?;
    Ok(entry.graph)
}

/// The same deployment as [`deploy`], step by step through the public
/// calls it is made of, each in its own span under a `deploy` parent.
///
/// `registry::deploy` also checks the kernel count against the topology,
/// and decodes into a sequence bank instead when the engine asks for one
/// (`BITNN_DEDUP=on`). `run.py` clears the `BITNN_*` knobs, so the
/// registry takes the packed path mirrored here.
///
/// # Errors
///
/// Propagates container and graph errors.
pub fn deploy_steps(tr: &Tracer, bytes: &[u8], seed: u64) -> Result<ModelGraph> {
    let _deploy = tr.span("deploy", 0);
    let container = tr.scope("container.read", 0, || read_model_container(bytes))?;
    let spec = container.spec_or_reactnet(IMAGE)?;
    let mut graph = tr.scope("graph.attach", 0, || attach_weights(&spec, seed))?;
    for (i, c) in container.kernels.iter().enumerate() {
        let packed = tr.scope("stream_decode.decode", i as u64, || c.decode_packed())?;
        tr.scope("graph.set_packed", i as u64, || {
            graph.set_conv3_packed(i, packed)
        })?;
    }
    Ok(graph)
}

/// The offline reference deployment: decompress each kernel to a flat
/// tensor, then let the graph re-pack it.
///
/// # Errors
///
/// Propagates container and graph errors.
pub fn deploy_offline(bytes: &[u8], seed: u64) -> Result<ModelGraph> {
    let container = read_model_container(bytes)?;
    let mut graph = attach_weights(&container.spec_or_reactnet(IMAGE)?, seed)?;
    for (i, c) in container.kernels.iter().enumerate() {
        graph.set_conv3_weights(i, c.decode_kernel()?)?;
    }
    Ok(graph)
}

/// The deterministic input pool of a run: `n` images from the seed.
pub fn inputs(n: usize, seed: u64) -> Vec<Tensor> {
    synthetic_batch(n, CHANNELS, IMAGE, seed ^ RUN_INPUT_SALT)
}

/// Logits digests of `inputs` through the engine's batch entry point.
///
/// # Errors
///
/// Propagates forward errors.
pub fn digests(graph: &ModelGraph, engine: &Engine, inputs: &[Tensor]) -> Result<Vec<u64>> {
    let mut outs = Vec::new();
    graph.forward_batch_into(inputs, engine, &mut BatchScratch::default(), &mut outs)?;
    Ok(outs.iter().map(|t| logits_digest(t.data())).collect())
}

/// Logits digest of one input through the scalar oracle backend.
///
/// # Errors
///
/// Propagates forward errors.
pub fn scalar_digest(graph: &ModelGraph, input: &Tensor) -> Result<u64> {
    let mut state = graph.state_for(&ScalarBackend);
    let mut out = Tensor::default();
    graph.forward_on(&ScalarBackend, &mut state, input, &mut out)?;
    Ok(logits_digest(out.data()))
}

/// One binary convolution of the model, with its input geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinConvGeom {
    /// Input channels.
    pub channels: usize,
    /// Output filters.
    pub filters: usize,
    /// Kernel side (1 or 3).
    pub k: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Stride.
    pub stride: usize,
    /// Padding.
    pub pad: usize,
}

impl BinConvGeom {
    /// Output side length.
    pub fn out_dim(&self, d: usize) -> usize {
        (d + 2 * self.pad - self.k) / self.stride + 1
    }

    /// XNOR-popcount bit operations for `n` images: one per weight bit
    /// per output position.
    pub fn binops(&self, n: usize) -> u64 {
        (n * self.filters
            * self.channels
            * self.k
            * self.k
            * self.out_dim(self.h)
            * self.out_dim(self.w)) as u64
    }

    /// Packed weight bytes (one bit per weight).
    pub fn weight_bytes(&self) -> u64 {
        (self.filters * self.channels * self.k * self.k).div_ceil(8) as u64
    }
}

/// Every binary convolution of a spec, in topological order, read off the
/// spec's nodes and inferred shapes.
///
/// # Errors
///
/// Propagates spec validation errors.
pub fn bin_convs(spec: &GraphSpec) -> Result<Vec<BinConvGeom>> {
    let shapes = spec.shapes()?;
    let mut out = Vec::new();
    for node in &spec.nodes {
        if let OpSpec::BinConv {
            out_ch,
            kh,
            stride,
            pad,
            ..
        } = node.op
        {
            if let Some(&ShapeInfo::Map { ch, h, w }) = node.inputs.first().map(|&i| &shapes[i]) {
                out.push(BinConvGeom {
                    channels: ch,
                    filters: out_ch,
                    k: kh,
                    h,
                    w,
                    stride,
                    pad,
                });
            }
        }
    }
    Ok(out)
}
