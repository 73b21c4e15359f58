//! On-disk container format for compressed kernels.
//!
//! The paper stores compressed kernels "consecutively in memory as a
//! sequence of encoded words" preceded by the decoder configuration
//! (Table III). This module defines a self-describing byte container so a
//! compressed model can be written to a file and reloaded without the
//! original kernel:
//!
//! ```text
//! +--------+---------+----------------+------------------+-------------+
//! | magic  | version | kernel header  | tree section     | stream      |
//! | "BKCK" |  u16    | K, C (u32 ea.) | nodes, tables    | byte stream |
//! +--------+---------+----------------+------------------+-------------+
//! ```
//!
//! All integers are little-endian. The tree section stores each node's
//! capacity and its table of 16-bit sequence values, which is exactly
//! what the hardware's uncompressed table holds (2 bytes per entry,
//! Table IV).

use crate::bitseq::BitSeq;
use crate::codec::CompressedKernel;
use crate::digest::{Digest, DIGEST_LEN};
use crate::error::{KcError, Result};
use crate::huffman::{SimplifiedTree, TreeConfig};
use bitnn::graph::{GraphSpec, NodeSpec, OpSpec};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Container magic bytes.
pub const MAGIC: &[u8; 4] = b"BKCK";

/// Current container version.
pub const VERSION: u16 = 1;

/// Serialize one kernel record from its parts — the canonical encoding
/// shared by [`write_container`] (fresh compression output) and
/// [`Container::to_bytes`] (re-serializing a parsed record), so a record
/// always round-trips byte-identically through parse → serialize.
fn write_record(
    filters: usize,
    channels: usize,
    tree: &SimplifiedTree,
    stream_bits: usize,
    stream: &[u8],
) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(filters as u32);
    buf.put_u32_le(channels as u32);
    // Tree section.
    let nodes = tree.config().nodes();
    buf.put_u8(nodes as u8);
    for i in 0..nodes {
        buf.put_u16_le(tree.config().capacities()[i] as u16);
    }
    for i in 0..nodes {
        let table = tree.table(i);
        buf.put_u16_le(table.len() as u16);
        for &seq in table {
            buf.put_u16_le(seq.value());
        }
    }
    // Stream section.
    buf.put_u64_le(stream_bits as u64);
    buf.put_u32_le(stream.len() as u32);
    buf.put_slice(stream);
    buf.freeze()
}

/// Serialize a compressed kernel into a standalone byte container.
pub fn write_container(kernel: &CompressedKernel) -> Bytes {
    write_record(
        kernel.filters(),
        kernel.channels(),
        kernel.tree(),
        kernel.stream_bits(),
        kernel.stream(),
    )
}

/// Parsed container contents, sufficient to decode the kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Container {
    /// Output filters.
    pub filters: usize,
    /// Input channels.
    pub channels: usize,
    /// The reconstructed codebook.
    pub tree: SimplifiedTree,
    /// Exact stream length in bits.
    pub stream_bits: usize,
    /// The encoded stream.
    pub stream: Bytes,
}

impl Container {
    /// Decode the contained kernel.
    ///
    /// # Errors
    ///
    /// Returns [`KcError::CorruptStream`] if the stream does not decode
    /// to exactly `filters * channels` sequences.
    pub fn decode_kernel(&self) -> Result<bitnn::tensor::BitTensor> {
        let (kernel, left) = crate::stream_decode::decode_tensor(
            &self.tree,
            &self.stream,
            self.stream_bits,
            self.filters,
            self.channels,
        )?;
        if left != 0 {
            return Err(KcError::CorruptStream(format!("{left} bits left over")));
        }
        Ok(kernel)
    }

    /// Stream-decode the contained kernel directly into its channel-packed
    /// form: Huffman stream → groups of up to 64 sequences → nine 64-bit
    /// lane words per group (the paper's decode + packing unit, Fig. 6) —
    /// with no intermediate `[K, C, 3, 3]` tensor. Bit-exact with packing
    /// the output of [`Container::decode_kernel`].
    ///
    /// # Errors
    ///
    /// Returns [`KcError::CorruptStream`] if the stream does not decode
    /// to exactly `filters * channels` sequences.
    pub fn decode_packed(&self) -> Result<bitnn::pack::PackedKernel> {
        crate::stream_decode::GroupDecoder::new(self).collect_packed()
    }

    /// Stream the contained kernel into its sequence-skew statistics
    /// ([`crate::freq::SeqHistogram`]) without materializing any kernel
    /// form.
    ///
    /// # Errors
    ///
    /// Returns [`KcError::CorruptStream`] if the stream does not decode
    /// to exactly `filters * channels` sequences.
    pub fn decode_histogram(&self) -> Result<crate::freq::SeqHistogram> {
        crate::stream_decode::GroupDecoder::new(self).collect_histogram()
    }

    /// Re-serialize this parsed record to its canonical byte form —
    /// byte-identical to the [`write_container`] output it was parsed
    /// from (the strict reader admits exactly one encoding per record).
    /// This is what record content digests are computed over.
    pub fn to_bytes(&self) -> Bytes {
        write_record(
            self.filters,
            self.channels,
            &self.tree,
            self.stream_bits,
            &self.stream,
        )
    }

    /// Content digest of this record's canonical byte form.
    pub fn digest(&self) -> Digest {
        Digest::of(&self.to_bytes())
    }

    /// The decoding unit configuration (paper Table III) for this
    /// container's stream placed at `stream_ptr`.
    pub fn decoder_config(&self, stream_ptr: u64) -> crate::config::DecoderConfig {
        crate::config::DecoderConfig::for_tree(
            &self.tree,
            (self.filters * self.channels) as u64,
            stream_ptr,
            self.stream.len() as u64,
        )
    }
}

/// Parse a container produced by [`write_container`].
///
/// # Errors
///
/// Returns [`KcError::CorruptStream`] for any structural damage: bad
/// magic, unknown version, truncated sections, or inconsistent sizes.
pub fn read_container(bytes: &[u8]) -> Result<Container> {
    let mut buf = bytes;
    let need = |buf: &[u8], n: usize, what: &str| -> Result<()> {
        if buf.remaining() < n {
            Err(KcError::CorruptStream(format!("truncated {what}")))
        } else {
            Ok(())
        }
    };
    need(buf, 6, "header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(KcError::CorruptStream("bad magic".into()));
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(KcError::CorruptStream(format!(
            "unsupported version {version}"
        )));
    }
    need(buf, 8, "kernel header")?;
    let filters = buf.get_u32_le() as usize;
    let channels = buf.get_u32_le() as usize;
    if filters == 0 || channels == 0 || filters > 1 << 20 || channels > 1 << 20 {
        return Err(KcError::CorruptStream(format!(
            "implausible kernel geometry {filters}x{channels}"
        )));
    }

    need(buf, 1, "tree header")?;
    let nodes = buf.get_u8() as usize;
    if !(2..=8).contains(&nodes) {
        return Err(KcError::CorruptStream(format!("bad node count {nodes}")));
    }
    need(buf, 2 * nodes, "capacities")?;
    let mut capacities = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        capacities.push(buf.get_u16_le() as usize);
    }
    let config = TreeConfig::with_capacities(capacities)
        .map_err(|e| KcError::CorruptStream(format!("bad tree config: {e}")))?;

    // Rebuild the assignment from the stored tables: the ranked order is
    // simply the concatenation of the tables.
    let mut ranked = Vec::new();
    let mut seen = [false; 512];
    for i in 0..nodes {
        need(buf, 2, "table length")?;
        let len = buf.get_u16_le() as usize;
        if i + 1 < nodes && len > config.capacities()[i] {
            return Err(KcError::CorruptStream(format!(
                "node {i} overflows its capacity"
            )));
        }
        need(buf, 2 * len, "table entries")?;
        for _ in 0..len {
            let v = buf.get_u16_le();
            let seq = BitSeq::new(v)
                .map_err(|_| KcError::CorruptStream(format!("invalid sequence {v}")))?;
            if seen[v as usize] {
                return Err(KcError::CorruptStream(format!("duplicate sequence {v}")));
            }
            seen[v as usize] = true;
            ranked.push(seq);
        }
    }
    let tree = SimplifiedTree::from_ranked(&ranked, config);

    need(buf, 12, "stream header")?;
    let stream_bits = buf.get_u64_le() as usize;
    let stream_len = buf.get_u32_le() as usize;
    // The writer emits exactly ceil(stream_bits / 8) bytes: anything
    // longer smuggles unparsed trailing garbage, anything shorter cannot
    // hold the payload.
    if stream_len != stream_bits.div_ceil(8) {
        return Err(KcError::CorruptStream(format!(
            "stream length {stream_len} bytes inconsistent with {stream_bits} bits"
        )));
    }
    need(buf, stream_len, "stream body")?;
    let stream = Bytes::copy_from_slice(&buf[..stream_len]);
    buf.advance(stream_len);
    if buf.remaining() != 0 {
        return Err(KcError::CorruptStream(format!(
            "{} trailing bytes after the stream",
            buf.remaining()
        )));
    }
    // The final byte's padding bits (below the last payload bit,
    // MSB-first layout) must be zero, exactly as the writer left them.
    if !stream_bits.is_multiple_of(8) {
        let pad_bits = 8 - stream_bits % 8;
        let last = stream[stream.len() - 1];
        if last & ((1u8 << pad_bits) - 1) != 0 {
            return Err(KcError::CorruptStream(
                "nonzero padding bits in the final stream byte".into(),
            ));
        }
    }
    // The stream holds exactly one code per sequence, each as long as a
    // non-empty node's code: a payload outside that span cannot decode,
    // and rejecting it here keeps a forged geometry from sizing the
    // decode buffers.
    let codes = filters as u64 * channels as u64;
    let lens = (0..nodes)
        .filter(|&i| !tree.table(i).is_empty())
        .map(|i| u64::from(tree.code_len(i)));
    match lens.clone().min().zip(lens.max()) {
        Some((short, long)) if (codes * short..=codes * long).contains(&(stream_bits as u64)) => {}
        span => {
            let lens = span.map_or("no codes".into(), |(s, l)| {
                format!("codes of {s}..={l} bits")
            });
            return Err(KcError::CorruptStream(format!(
                "{stream_bits} stream bits cannot hold {codes} sequences as {lens}"
            )));
        }
    }
    Ok(Container {
        filters,
        channels,
        tree,
        stream_bits,
        stream,
    })
}

/// Multi-kernel model container magic.
pub const MODEL_MAGIC: &[u8; 4] = b"BKCM";

/// Model container version that carries a serialized graph topology
/// alongside the kernel streams.
pub const MODEL_VERSION_V2: u16 = 2;

/// Model container version with mandatory integrity records: every
/// kernel record and the graph section carry a content digest, and a
/// whole-container digest trailer closes the file. Reading a v3
/// container verifies all of them, so any single-byte corruption is
/// reported as [`KcError::IntegrityViolation`] instead of silently
/// decoding to a different model.
pub const MODEL_VERSION_V3: u16 = 3;

/// A parsed model container: the compressed kernel records plus, for
/// v2/v3 containers, the model-graph topology they belong to.
///
/// v1 containers (13 anonymous ReActNet kernels) still parse — `spec` is
/// `None` and [`ModelContainer::spec_or_reactnet`] reconstructs the
/// scaled ReActNet schedule from the kernel dimensions, so every v1 file
/// auto-upgrades to the graph world on load.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelContainer {
    /// The format version the file was read with (1, 2, or 3).
    pub version: u16,
    /// The serialized graph topology (v2/v3), or `None` for v1.
    pub spec: Option<GraphSpec>,
    /// Per-kernel records, in the spec's compressible-conv order.
    pub kernels: Vec<Container>,
}

impl ModelContainer {
    /// Per-kernel `(filters, channels)` dimensions.
    fn kernel_dims(&self) -> Vec<(usize, usize)> {
        self.kernels
            .iter()
            .map(|c| (c.filters, c.channels))
            .collect()
    }

    /// The graph topology of this container: the stored spec for v2/v3,
    /// or the ReActNet schedule reconstructed from the kernel dimensions
    /// for v1 (`image` sizes the reconstructed input node).
    ///
    /// # Errors
    ///
    /// Returns [`KcError::IncompatibleModel`] when a v1 kernel list
    /// cannot be a ReActNet schedule.
    pub fn spec_or_reactnet(&self, image: usize) -> Result<GraphSpec> {
        match &self.spec {
            Some(spec) => Ok(spec.clone()),
            None => {
                let cfg =
                    bitnn::graph::arch::reactnet_config_from_kernels(&self.kernel_dims(), image)
                        .map_err(|e| KcError::IncompatibleModel(e.to_string()))?;
                bitnn::graph::arch::reactnet_spec(&cfg)
                    .map_err(|e| KcError::IncompatibleModel(e.to_string()))
            }
        }
    }

    /// Per-record content digests, in record order (recomputed from the
    /// canonical record bytes — identical to the digests a v3 file
    /// stores).
    pub fn record_digests(&self) -> Vec<Digest> {
        self.kernels.iter().map(Container::digest).collect()
    }
}

/// Serialize a whole model's compressed 3×3 kernels into a **v1**
/// container: `MODEL_MAGIC`, version 1, kernel count, then
/// length-prefixed [`write_container`] records. Kept for compatibility;
/// new files should use [`write_model_container_v2`].
pub fn write_model_container(kernels: &[CompressedKernel]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MODEL_MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(kernels.len() as u32);
    for k in kernels {
        let record = write_container(k);
        buf.put_u32_le(record.len() as u32);
        buf.put_slice(&record);
    }
    buf.freeze()
}

/// Serialize a model's graph topology plus its compressed kernels into a
/// **v2** container:
///
/// ```text
/// +--------+-----------+---------------+---------+-------------------+
/// | magic  | version 2 | graph section | count   | kernel records    |
/// | "BKCM" |  u16      | arch + nodes  | u32     | len-prefixed v1   |
/// +--------+-----------+---------------+---------+-------------------+
/// ```
///
/// The kernel records must line up one-to-one with the spec's
/// compressible 3×3 convolutions ([`GraphSpec::conv3_geometries`]), in
/// topological order.
///
/// # Errors
///
/// Returns [`KcError::CorruptStream`] if the spec does not validate or
/// the kernels disagree with its conv geometry.
pub fn write_model_container_v2(spec: &GraphSpec, kernels: &[CompressedKernel]) -> Result<Bytes> {
    spec.validate()
        .map_err(|e| KcError::CorruptStream(format!("invalid graph spec: {e}")))?;
    check_spec_kernels(
        spec,
        kernels.iter().map(|k| (k.filters(), k.channels())),
        kernels.len(),
    )?;
    let mut buf = BytesMut::new();
    buf.put_slice(MODEL_MAGIC);
    buf.put_u16_le(MODEL_VERSION_V2);
    write_graph_spec(&mut buf, spec)?;
    buf.put_u32_le(kernels.len() as u32);
    for k in kernels {
        let record = write_container(k);
        buf.put_u32_le(record.len() as u32);
        buf.put_slice(&record);
    }
    Ok(buf.freeze())
}

/// Serialize a model into a **v3** container — the v2 layout plus
/// mandatory integrity records:
///
/// ```text
/// +--------+-----------+-------+--------+-------+--------------------+-----------+
/// | magic  | version 3 | graph | graph  | count | records, each:     | container |
/// | "BKCM" |  u16      | sect. | digest |  u32  | len u32 + body +   | digest    |
/// |        |           |       |  16 B  |       | record digest 16 B |   16 B    |
/// +--------+-----------+-------+--------+-------+--------------------+-----------+
/// ```
///
/// Each record digest covers that record's bytes, the graph digest
/// covers the graph section, and the trailing container digest covers
/// the *digest transcript* (magic, version, graph digest, count, and
/// every record's length + digest) — so every payload byte is hashed
/// exactly once, yet a single-byte change anywhere in the file (digest
/// fields and trailer included) breaks at least one comparison.
///
/// # Errors
///
/// Same conditions as [`write_model_container_v2`].
pub fn write_model_container_v3(spec: &GraphSpec, kernels: &[CompressedKernel]) -> Result<Bytes> {
    spec.validate()
        .map_err(|e| KcError::CorruptStream(format!("invalid graph spec: {e}")))?;
    check_spec_kernels(
        spec,
        kernels.iter().map(|k| (k.filters(), k.channels())),
        kernels.len(),
    )?;
    let records: Vec<Bytes> = kernels.iter().map(write_container).collect();
    assemble_v3(spec, &records)
}

/// Assemble v3 bytes from a graph spec plus already-serialized record
/// bytes — the shared back end of [`write_model_container_v3`] and the
/// patch applier (which rebuilds records rather than recompressing
/// kernels). Callers are responsible for the spec/kernel cross-check.
pub(crate) fn assemble_v3(spec: &GraphSpec, records: &[Bytes]) -> Result<Bytes> {
    let mut graph = BytesMut::new();
    write_graph_spec(&mut graph, spec)?;
    let graph_digest = Digest::of(&graph);

    let mut buf = BytesMut::new();
    let mut transcript = BytesMut::new();
    buf.put_slice(MODEL_MAGIC);
    buf.put_u16_le(MODEL_VERSION_V3);
    transcript.put_slice(MODEL_MAGIC);
    transcript.put_u16_le(MODEL_VERSION_V3);
    buf.put_slice(&graph);
    buf.put_slice(graph_digest.as_bytes());
    transcript.put_slice(graph_digest.as_bytes());
    buf.put_u32_le(records.len() as u32);
    transcript.put_u32_le(records.len() as u32);
    for r in records {
        let d = Digest::of(r);
        buf.put_u32_le(r.len() as u32);
        buf.put_slice(r);
        buf.put_slice(d.as_bytes());
        transcript.put_u32_le(r.len() as u32);
        transcript.put_slice(d.as_bytes());
    }
    buf.put_slice(Digest::of(&transcript).as_bytes());
    Ok(buf.freeze())
}

/// Cross-check a spec's compressible-conv geometry against a kernel
/// list's `(filters, channels)` dimensions — shared by the v2 writer and
/// reader so the two sides can never drift apart.
pub(crate) fn check_spec_kernels<'a, I>(spec: &GraphSpec, dims: I, count: usize) -> Result<()>
where
    I: Iterator<Item = (usize, usize)> + 'a,
{
    let convs = spec.conv3_geometries();
    if convs.len() != count {
        return Err(KcError::CorruptStream(format!(
            "graph spec has {} compressible convs, got {} kernels",
            convs.len(),
            count
        )));
    }
    for (i, (g, (filters, channels))) in convs.iter().zip(dims).enumerate() {
        if (g.filters, g.channels) != (filters, channels) {
            return Err(KcError::CorruptStream(format!(
                "kernel {i} is {filters}x{channels}, the graph's conv {i} needs {}x{}",
                g.filters, g.channels
            )));
        }
    }
    Ok(())
}

/// Graph-section op tags (one byte each).
mod op_tag {
    pub const INPUT: u8 = 0;
    pub const STEM_CONV: u8 = 1;
    pub const SIGN: u8 = 2;
    pub const BIN_CONV: u8 = 3;
    pub const BATCH_NORM: u8 = 4;
    pub const ACT: u8 = 5;
    pub const AVG_POOL: u8 = 6;
    pub const CHANNEL_DUP: u8 = 7;
    pub const ADD: u8 = 8;
    pub const GLOBAL_AVG_POOL: u8 = 9;
    pub const CLASSIFIER: u8 = 10;
}

/// Serialize the graph section: arch string, node count, then per node a
/// one-byte op tag, op parameters, and the input edge list.
pub(crate) fn write_graph_spec(buf: &mut BytesMut, spec: &GraphSpec) -> Result<()> {
    // Every field is range-checked before casting: a value that does not
    // fit its wire field is a write-time error, never a silent
    // truncation that would round-trip to a different topology.
    fn fit_u8(v: usize, what: &str) -> Result<u8> {
        u8::try_from(v)
            .map_err(|_| KcError::CorruptStream(format!("{what} {v} exceeds its 8-bit field")))
    }
    fn fit_u32(v: usize, what: &str) -> Result<u32> {
        u32::try_from(v)
            .map_err(|_| KcError::CorruptStream(format!("{what} {v} exceeds its 32-bit field")))
    }
    if spec.arch.len() > u16::MAX as usize {
        return Err(KcError::CorruptStream("arch name too long".into()));
    }
    buf.put_u16_le(spec.arch.len() as u16);
    buf.put_slice(spec.arch.as_bytes());
    if spec.nodes.len() > 65_536 {
        // Mirror of the read-side cap: anything larger could never load.
        return Err(KcError::CorruptStream(format!(
            "implausible node count {}",
            spec.nodes.len()
        )));
    }
    buf.put_u32_le(spec.nodes.len() as u32);
    for node in &spec.nodes {
        match node.op {
            OpSpec::Input { channels, image } => {
                buf.put_u8(op_tag::INPUT);
                buf.put_u32_le(fit_u32(channels, "input channels")?);
                buf.put_u32_le(fit_u32(image, "image size")?);
            }
            OpSpec::StemConv { out_ch, stride } => {
                buf.put_u8(op_tag::STEM_CONV);
                buf.put_u32_le(fit_u32(out_ch, "stem out_ch")?);
                buf.put_u8(fit_u8(stride, "stem stride")?);
            }
            OpSpec::Sign => buf.put_u8(op_tag::SIGN),
            OpSpec::BinConv {
                out_ch,
                kh,
                kw,
                stride,
                pad,
            } => {
                buf.put_u8(op_tag::BIN_CONV);
                buf.put_u32_le(fit_u32(out_ch, "conv out_ch")?);
                buf.put_u8(fit_u8(kh, "conv kh")?);
                buf.put_u8(fit_u8(kw, "conv kw")?);
                buf.put_u8(fit_u8(stride, "conv stride")?);
                buf.put_u8(fit_u8(pad, "conv pad")?);
            }
            OpSpec::BatchNorm => buf.put_u8(op_tag::BATCH_NORM),
            OpSpec::Act => buf.put_u8(op_tag::ACT),
            OpSpec::AvgPool2x2 => buf.put_u8(op_tag::AVG_POOL),
            OpSpec::ChannelDup => buf.put_u8(op_tag::CHANNEL_DUP),
            OpSpec::Add => buf.put_u8(op_tag::ADD),
            OpSpec::GlobalAvgPool => buf.put_u8(op_tag::GLOBAL_AVG_POOL),
            OpSpec::Classifier { classes } => {
                buf.put_u8(op_tag::CLASSIFIER);
                buf.put_u32_le(fit_u32(classes, "classifier classes")?);
            }
        }
        buf.put_u8(fit_u8(node.inputs.len(), "input arity")?);
        for &src in &node.inputs {
            buf.put_u32_le(fit_u32(src, "input edge")?);
        }
    }
    Ok(())
}

/// Parse the graph section written by [`write_graph_spec`]. Structural
/// bounds are checked here; full topology/shape validation runs through
/// [`GraphSpec::validate`] afterwards.
pub(crate) fn read_graph_spec(buf: &mut &[u8]) -> Result<GraphSpec> {
    let need = |buf: &&[u8], n: usize, what: &str| -> Result<()> {
        if buf.remaining() < n {
            Err(KcError::CorruptStream(format!("truncated {what}")))
        } else {
            Ok(())
        }
    };
    need(buf, 2, "arch length")?;
    let arch_len = buf.get_u16_le() as usize;
    need(buf, arch_len, "arch name")?;
    let arch = std::str::from_utf8(&buf[..arch_len])
        .map_err(|_| KcError::CorruptStream("arch name is not UTF-8".into()))?
        .to_string();
    buf.advance(arch_len);
    need(buf, 4, "node count")?;
    let count = buf.get_u32_le() as usize;
    if count == 0 || count > 65_536 {
        return Err(KcError::CorruptStream(format!(
            "implausible node count {count}"
        )));
    }
    let mut nodes = Vec::with_capacity(count);
    for i in 0..count {
        need(buf, 1, "op tag")?;
        let tag = buf.get_u8();
        let op = match tag {
            op_tag::INPUT => {
                need(buf, 8, "input params")?;
                OpSpec::Input {
                    channels: buf.get_u32_le() as usize,
                    image: buf.get_u32_le() as usize,
                }
            }
            op_tag::STEM_CONV => {
                need(buf, 5, "stem params")?;
                OpSpec::StemConv {
                    out_ch: buf.get_u32_le() as usize,
                    stride: buf.get_u8() as usize,
                }
            }
            op_tag::SIGN => OpSpec::Sign,
            op_tag::BIN_CONV => {
                need(buf, 8, "conv params")?;
                OpSpec::BinConv {
                    out_ch: buf.get_u32_le() as usize,
                    kh: buf.get_u8() as usize,
                    kw: buf.get_u8() as usize,
                    stride: buf.get_u8() as usize,
                    pad: buf.get_u8() as usize,
                }
            }
            op_tag::BATCH_NORM => OpSpec::BatchNorm,
            op_tag::ACT => OpSpec::Act,
            op_tag::AVG_POOL => OpSpec::AvgPool2x2,
            op_tag::CHANNEL_DUP => OpSpec::ChannelDup,
            op_tag::ADD => OpSpec::Add,
            op_tag::GLOBAL_AVG_POOL => OpSpec::GlobalAvgPool,
            op_tag::CLASSIFIER => {
                need(buf, 4, "classifier params")?;
                OpSpec::Classifier {
                    classes: buf.get_u32_le() as usize,
                }
            }
            other => {
                return Err(KcError::CorruptStream(format!(
                    "node {i}: unknown op tag {other}"
                )))
            }
        };
        need(buf, 1, "input count")?;
        let arity = buf.get_u8() as usize;
        need(buf, 4 * arity, "input edges")?;
        let inputs = (0..arity).map(|_| buf.get_u32_le() as usize).collect();
        nodes.push(NodeSpec { op, inputs });
    }
    Ok(GraphSpec { arch, nodes })
}

/// Parse a model container (v1, v2, or v3) back into a
/// [`ModelContainer`].
///
/// For v2/v3 the embedded graph spec is fully validated
/// ([`GraphSpec::validate`]) and the kernel records are cross-checked
/// against its compressible-conv geometry, so a successfully parsed
/// container is always deployable. For v3 every integrity record is
/// verified: the per-record digests, the graph-section digest, and the
/// whole-container digest trailer — any mismatch is a
/// [`KcError::IntegrityViolation`] naming the damaged record with the
/// stored and computed digests.
///
/// # Errors
///
/// Returns [`KcError::CorruptStream`] on structural damage and
/// [`KcError::IntegrityViolation`] on digest mismatches.
pub fn read_model_container(bytes: &[u8]) -> Result<ModelContainer> {
    read_model_container_impl(bytes, true)
}

/// Parse a model container *without* verifying v3 digests (the fields
/// are still parsed and skipped; structure checks all run). This exists
/// so the integrity-verification overhead on load can be measured — the
/// perfsuite `container_integrity` criterion compares this path against
/// [`read_model_container`]. Deployment code must use the verifying
/// reader.
pub fn read_model_container_unverified(bytes: &[u8]) -> Result<ModelContainer> {
    read_model_container_impl(bytes, false)
}

fn read_model_container_impl(bytes: &[u8], verify: bool) -> Result<ModelContainer> {
    let mut buf = bytes;
    if buf.remaining() < 10 {
        return Err(KcError::CorruptStream("truncated model header".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MODEL_MAGIC {
        return Err(KcError::CorruptStream("bad model magic".into()));
    }
    let version = buf.get_u16_le();
    let integrity = version == MODEL_VERSION_V3;
    // The digest transcript a v3 trailer covers: magic, version, graph
    // digest, then every record's length + digest (payload bytes reach
    // the trailer through their digests, so verification hashes each
    // byte exactly once).
    let mut transcript = BytesMut::new();
    transcript.put_slice(MODEL_MAGIC);
    transcript.put_u16_le(version);
    let read_digest = |buf: &mut &[u8], what: &str| -> Result<Digest> {
        if buf.remaining() < DIGEST_LEN {
            return Err(KcError::CorruptStream(format!("truncated {what} digest")));
        }
        let mut d = [0u8; DIGEST_LEN];
        buf.copy_to_slice(&mut d);
        Ok(Digest::from_bytes(d))
    };
    let check = |record: String, stored: Digest, computed: Digest| -> Result<()> {
        if verify && stored != computed {
            return Err(KcError::IntegrityViolation {
                record,
                expected: stored.to_hex(),
                found: computed.to_hex(),
            });
        }
        Ok(())
    };
    let spec = match version {
        VERSION => None,
        MODEL_VERSION_V2 | MODEL_VERSION_V3 => {
            let graph_start = buf;
            let spec = read_graph_spec(&mut buf)?;
            if integrity {
                let graph_bytes = &graph_start[..graph_start.len() - buf.len()];
                let stored = read_digest(&mut buf, "graph")?;
                transcript.put_slice(stored.as_bytes());
                check("graph".into(), stored, Digest::of(graph_bytes))?;
            }
            spec.validate()
                .map_err(|e| KcError::CorruptStream(format!("invalid graph section: {e}")))?;
            Some(spec)
        }
        other => {
            return Err(KcError::CorruptStream(format!(
                "unsupported model version {other}"
            )))
        }
    };
    if buf.remaining() < 4 {
        return Err(KcError::CorruptStream("truncated kernel count".into()));
    }
    let count = buf.get_u32_le() as usize;
    transcript.put_u32_le(count as u32);
    if count > 4096 {
        return Err(KcError::CorruptStream(format!(
            "implausible kernel count {count}"
        )));
    }
    let mut kernels = Vec::with_capacity(count);
    for i in 0..count {
        if buf.remaining() < 4 {
            return Err(KcError::CorruptStream(format!(
                "truncated record {i} length"
            )));
        }
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return Err(KcError::CorruptStream(format!("truncated record {i} body")));
        }
        let body = &buf[..len];
        buf.advance(len);
        if integrity {
            let stored = read_digest(&mut buf, "record")?;
            transcript.put_u32_le(len as u32);
            transcript.put_slice(stored.as_bytes());
            check(format!("kernel {}", i + 1), stored, Digest::of(body))?;
        }
        // read_container rejects a record whose declared length exceeds
        // its actual content (trailing bytes) or whose stream section is
        // padded with garbage, so a record length can neither hide data
        // nor swallow the next record's header.
        kernels.push(read_container(body)?);
    }
    if integrity {
        let stored = read_digest(&mut buf, "container")?;
        check("container".into(), stored, Digest::of(&transcript))?;
    }
    if buf.remaining() != 0 {
        return Err(KcError::CorruptStream(format!(
            "{} trailing bytes after the last record",
            buf.remaining()
        )));
    }
    if let Some(spec) = &spec {
        check_spec_kernels(
            spec,
            kernels.iter().map(|k| (k.filters, k.channels)),
            kernels.len(),
        )?;
    }
    Ok(ModelContainer {
        version,
        spec,
        kernels,
    })
}

/// Write `bytes` to `path` atomically: the content lands in a temporary
/// file in the same directory, is fsynced, and is renamed over the
/// destination — so a crash, power cut, or interrupted process at any
/// point leaves either the previous file or the complete new one at
/// `path`, never a torn container. The directory entry is fsynced too,
/// making the rename itself durable.
///
/// # Errors
///
/// Propagates I/O errors; the temporary file is removed on failure.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("output path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp-{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // Persist the rename: fsync the containing directory.
        if let Ok(d) = std::fs::File::open(&dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::KernelCodec;
    use bitnn::weightgen::SeqDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn compressed() -> CompressedKernel {
        let mut rng = StdRng::seed_from_u64(8);
        let kernel = SeqDistribution::for_block(3, 0).sample_kernel(48, 48, &mut rng);
        KernelCodec::paper().compress(&kernel).unwrap()
    }

    #[test]
    fn container_roundtrip_is_lossless() {
        let ck = compressed();
        let original = ck.decompress().unwrap();
        let bytes = write_container(&ck);
        let parsed = read_container(&bytes).unwrap();
        assert_eq!(parsed.filters, 48);
        assert_eq!(parsed.channels, 48);
        assert_eq!(parsed.decode_kernel().unwrap(), original);
    }

    #[test]
    fn bad_magic_rejected() {
        let ck = compressed();
        let mut bytes = write_container(&ck).to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            read_container(&bytes),
            Err(KcError::CorruptStream(_))
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let ck = compressed();
        let mut bytes = write_container(&ck).to_vec();
        bytes[4] = 0xFF;
        assert!(read_container(&bytes).is_err());
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let ck = compressed();
        let bytes = write_container(&ck);
        // Cut at a spread of offsets including section boundaries.
        for cut in [
            0usize,
            3,
            5,
            9,
            13,
            14,
            20,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            let r = read_container(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn flipped_stream_bits_fail_or_differ() {
        // Corrupting the stream body must never panic: it either errors
        // out (invalid prefix / leftover bits) or decodes to a different,
        // well-formed kernel.
        let ck = compressed();
        let original = ck.decompress().unwrap();
        let clean = write_container(&ck);
        let stream_start = clean.len() - ck.stream().len();
        for i in 0..32.min(ck.stream().len()) {
            let mut bytes = clean.to_vec();
            bytes[stream_start + i] ^= 0x55;
            match read_container(&bytes) {
                Err(_) => {}
                Ok(c) => match c.decode_kernel() {
                    Err(_) => {}
                    Ok(k) => assert_ne!(k, original, "flip at stream byte {i} went unnoticed"),
                },
            }
        }
    }

    #[test]
    fn duplicate_table_entries_rejected() {
        let ck = compressed();
        let mut bytes = write_container(&ck).to_vec();
        // First table entry sits after: 4 magic + 2 ver + 8 kc + 1 nodes +
        // 8 caps + 2 len = 25; duplicate it into the second entry.
        let (a, b) = (25usize, 27usize);
        bytes[b] = bytes[a];
        bytes[b + 1] = bytes[a + 1];
        assert!(read_container(&bytes).is_err());
    }

    #[test]
    fn implausible_geometry_rejected() {
        let ck = compressed();
        let mut bytes = write_container(&ck).to_vec();
        // Zero filters.
        bytes[6..10].copy_from_slice(&0u32.to_le_bytes());
        assert!(read_container(&bytes).is_err());
    }

    #[test]
    fn stream_too_short_for_its_geometry_is_rejected_before_decoding() {
        // 38 bytes declaring a 1,048,576 × 1,048,576 kernel with one
        // 1-bit code and an 8-bit stream: decoding it used to request a
        // 1.2 TB packed buffer and abort the process.
        let mut rec = Vec::new();
        rec.extend_from_slice(MAGIC);
        rec.extend_from_slice(&VERSION.to_le_bytes());
        rec.extend_from_slice(&(1u32 << 20).to_le_bytes());
        rec.extend_from_slice(&(1u32 << 20).to_le_bytes());
        rec.push(2); // nodes
        rec.extend_from_slice(&[1, 0, 1, 0]); // capacities 1, 1
        rec.extend_from_slice(&[1, 0, 0, 0, 0, 0]); // tables [[0], []]
        rec.extend_from_slice(&8u64.to_le_bytes()); // stream_bits
        rec.extend_from_slice(&1u32.to_le_bytes()); // stream_len
        rec.push(0);
        assert_eq!(rec.len(), 38);
        match read_container(&rec) {
            Err(KcError::CorruptStream(m)) => assert_eq!(
                m,
                "8 stream bits cannot hold 1099511627776 sequences as codes of 1..=1 bits"
            ),
            other => panic!("expected a corrupt stream, got {other:?}"),
        }
        // The same record at a 2 × 4 geometry holds exactly its eight
        // 1-bit codes and decodes.
        rec[6..10].copy_from_slice(&2u32.to_le_bytes());
        rec[10..14].copy_from_slice(&4u32.to_le_bytes());
        let c = read_container(&rec).unwrap();
        let zeros = bitnn::tensor::BitTensor::zeros(&[2, 4, 3, 3]);
        assert_eq!(c.decode_kernel().unwrap(), zeros);
        // One sequence too many or too few leaves the span.
        for (f, ch) in [(3u32, 4u32), (1, 7)] {
            rec[6..10].copy_from_slice(&f.to_le_bytes());
            rec[10..14].copy_from_slice(&ch.to_le_bytes());
            assert!(
                matches!(read_container(&rec), Err(KcError::CorruptStream(m)) if m.contains("cannot hold")),
                "{f}x{ch}"
            );
        }
    }

    #[test]
    fn empty_tree_holds_no_stream() {
        let ck = compressed();
        let valid = write_container(&ck);
        // The same header and stream behind a tree of two empty nodes.
        let mut rec = valid[..14].to_vec();
        rec.extend_from_slice(&[2, 1, 0, 1, 0, 0, 0, 0, 0]);
        rec.extend_from_slice(&valid[valid.len() - ck.stream().len() - 12..]);
        match read_container(&rec) {
            Err(KcError::CorruptStream(m)) => assert!(m.ends_with("as no codes"), "{m}"),
            other => panic!("expected a corrupt stream, got {other:?}"),
        }
    }

    #[test]
    fn model_container_roundtrip() {
        let codec = KernelCodec::paper_clustered();
        let mut kernels = Vec::new();
        let mut originals = Vec::new();
        for block in 1..=3 {
            let mut rng = StdRng::seed_from_u64(block as u64);
            let k = SeqDistribution::for_block(block, 0).sample_kernel(
                16 * block,
                16 * block,
                &mut rng,
            );
            let ck = codec.compress(&k).unwrap();
            originals.push(ck.decompress().unwrap());
            kernels.push(ck);
        }
        let bytes = write_model_container(&kernels);
        let parsed = read_model_container(&bytes).unwrap();
        assert!(parsed.spec.is_none(), "v1 containers carry no topology");
        assert_eq!(parsed.kernels.len(), 3);
        for (c, orig) in parsed.kernels.iter().zip(&originals) {
            assert_eq!(&c.decode_kernel().unwrap(), orig);
        }
    }

    /// v2: topology + kernels round-trip, and the embedded spec is
    /// cross-checked against the kernel records.
    #[test]
    fn model_container_v2_roundtrip_and_validation() {
        use bitnn::graph::arch::{build_spec, sample_conv3_kernels, Arch};
        let codec = KernelCodec::paper();
        for arch in [Arch::VggSmall, Arch::ResNetLite] {
            let spec = build_spec(arch, 0.0625, 32).unwrap();
            let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, 5)
                .unwrap()
                .iter()
                .map(|k| codec.compress(k).unwrap())
                .collect();
            let bytes = write_model_container_v2(&spec, &kernels).unwrap();
            let parsed = read_model_container(&bytes).unwrap();
            assert_eq!(parsed.spec.as_ref(), Some(&spec));
            assert_eq!(parsed.kernels.len(), kernels.len());
            assert_eq!(parsed.spec_or_reactnet(32).unwrap(), spec);
            for (c, k) in parsed.kernels.iter().zip(&kernels) {
                assert_eq!(c.decode_kernel().unwrap(), k.decompress().unwrap());
            }
            // Dropping a kernel breaks the spec cross-check on write.
            assert!(write_model_container_v2(&spec, &kernels[1..]).is_err());
        }
    }

    #[test]
    fn model_container_v2_detects_damage() {
        use bitnn::graph::arch::{build_spec, sample_conv3_kernels, Arch};
        let codec = KernelCodec::paper();
        let spec = build_spec(Arch::VggSmall, 0.0625, 32).unwrap();
        let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, 9)
            .unwrap()
            .iter()
            .map(|k| codec.compress(k).unwrap())
            .collect();
        let clean = write_model_container_v2(&spec, &kernels).unwrap().to_vec();
        assert!(read_model_container(&clean).is_ok());
        // Truncations across the graph section and records.
        for cut in [5usize, 7, 9, 15, 40, clean.len() / 2, clean.len() - 1] {
            assert!(read_model_container(&clean[..cut]).is_err(), "cut {cut}");
        }
        // An unknown op tag in the graph section.
        let mut bad = clean.clone();
        // arch len (2) + arch + node count (4) puts the first op tag at:
        let first_tag = 4 + 2 + 2 + spec.arch.len() + 4;
        bad[first_tag] = 0xEE;
        assert!(read_model_container(&bad).is_err());
        // Trailing garbage.
        let mut bad = clean.clone();
        bad.push(0);
        assert!(read_model_container(&bad).is_err());
    }

    /// Wire fields that cannot hold a spec value are write-time errors,
    /// never silent truncations that round-trip to a different topology.
    #[test]
    fn v2_rejects_fields_that_overflow_the_wire_format() {
        use bitnn::graph::arch::{build_spec, sample_conv3_kernels, Arch};
        use bitnn::graph::OpSpec;
        let codec = KernelCodec::paper();
        let spec = build_spec(Arch::VggSmall, 0.0625, 32).unwrap();
        let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, 2)
            .unwrap()
            .iter()
            .map(|k| codec.compress(k).unwrap())
            .collect();
        // A conv pad of 300 validates (it only grows the feature map) but
        // cannot be represented in the u8 wire field.
        let mut bad = spec.clone();
        for node in &mut bad.nodes {
            if let OpSpec::BinConv { pad, .. } = &mut node.op {
                *pad = 300;
            }
        }
        if bad.validate().is_ok() {
            let err = write_model_container_v2(&bad, &kernels).unwrap_err();
            assert!(err.to_string().contains("exceeds its 8-bit field"), "{err}");
        }
    }

    /// A v1 container of ReActNet-shaped kernels auto-upgrades to a
    /// validated ReActNet graph spec.
    #[test]
    fn v1_container_auto_upgrades_to_reactnet_spec() {
        use bitnn::graph::arch::{build_spec, sample_conv3_kernels, Arch};
        let codec = KernelCodec::paper();
        let spec = build_spec(Arch::ReActNet, 0.125, 32).unwrap();
        let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, 1)
            .unwrap()
            .iter()
            .map(|k| codec.compress(k).unwrap())
            .collect();
        let parsed = read_model_container(&write_model_container(&kernels)).unwrap();
        assert!(parsed.spec.is_none());
        let upgraded = parsed.spec_or_reactnet(32).unwrap();
        assert_eq!(upgraded, spec);
        // Non-ReActNet kernel lists refuse to masquerade as ReActNet.
        let parsed = read_model_container(&write_model_container(&kernels[..3])).unwrap();
        assert!(parsed.spec_or_reactnet(32).is_err());
    }

    #[test]
    fn model_container_detects_damage() {
        let codec = KernelCodec::paper();
        let mut rng = StdRng::seed_from_u64(1);
        let k = SeqDistribution::for_block(1, 0).sample_kernel(16, 16, &mut rng);
        let ck = codec.compress(&k).unwrap();
        let bytes = write_model_container(&[ck]).to_vec();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'Z';
        assert!(read_model_container(&bad).is_err());
        // Truncations.
        for cut in [5, 9, 12, bytes.len() - 1] {
            assert!(read_model_container(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Oversized record length.
        let mut bad = bytes.clone();
        bad[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_model_container(&bad).is_err());
    }

    #[test]
    fn stream_bits_exceeding_bytes_rejected() {
        let ck = compressed();
        let bytes = write_container(&ck).to_vec();
        let stream_len_off = bytes.len() - ck.stream().len() - 4 - 8;
        let mut bad = bytes.clone();
        bad[stream_len_off..stream_len_off + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(read_container(&bad).is_err());
    }

    #[test]
    fn oversized_stream_len_with_garbage_rejected() {
        // A stream_len larger than ceil(stream_bits / 8) used to parse
        // fine with trailing garbage bytes; both must now be rejected.
        let ck = compressed();
        let clean = write_container(&ck).to_vec();
        let len_off = clean.len() - ck.stream().len() - 4;
        let mut bad = clean.clone();
        let inflated = (ck.stream().len() + 3) as u32;
        bad[len_off..len_off + 4].copy_from_slice(&inflated.to_le_bytes());
        bad.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
        assert!(matches!(
            read_container(&bad),
            Err(KcError::CorruptStream(_))
        ));
        // Trailing bytes after a correctly-sized stream are also rejected.
        let mut trailing = clean.clone();
        trailing.push(0x00);
        assert!(read_container(&trailing).is_err());
    }

    #[test]
    fn nonzero_padding_bits_rejected() {
        let ck = compressed();
        if ck.stream_bits().is_multiple_of(8) {
            // This seed always yields a padded final byte; guard anyway.
            return;
        }
        let mut bytes = write_container(&ck).to_vec();
        let last = bytes.len() - 1;
        bytes[last] |= 1; // lowest bit is padding under the MSB-first layout
        assert!(matches!(
            read_container(&bytes),
            Err(KcError::CorruptStream(_))
        ));
    }

    #[test]
    fn model_container_rejects_trailing_bytes_and_padded_records() {
        let codec = KernelCodec::paper();
        let mut rng = StdRng::seed_from_u64(3);
        let k = SeqDistribution::for_block(1, 0).sample_kernel(16, 16, &mut rng);
        let ck = codec.compress(&k).unwrap();
        let clean = write_model_container(std::slice::from_ref(&ck)).to_vec();
        assert!(read_model_container(&clean).is_ok());
        // Trailing garbage after the last record.
        let mut bad = clean.clone();
        bad.extend_from_slice(&[0u8; 2]);
        assert!(read_model_container(&bad).is_err());
        // A record whose length claims extra padding bytes.
        let record = write_container(&ck);
        let mut padded = Vec::new();
        padded.extend_from_slice(MODEL_MAGIC);
        padded.extend_from_slice(&VERSION.to_le_bytes());
        padded.extend_from_slice(&1u32.to_le_bytes());
        padded.extend_from_slice(&((record.len() + 1) as u32).to_le_bytes());
        padded.extend_from_slice(&record);
        padded.push(0);
        assert!(read_model_container(&padded).is_err());
    }

    fn v3_fixture() -> (GraphSpec, Vec<CompressedKernel>, Vec<u8>) {
        use bitnn::graph::arch::{build_spec, sample_conv3_kernels, Arch};
        let codec = KernelCodec::paper();
        let spec = build_spec(Arch::VggSmall, 0.0625, 32).unwrap();
        let kernels: Vec<CompressedKernel> = sample_conv3_kernels(&spec, 21)
            .unwrap()
            .iter()
            .map(|k| codec.compress(k).unwrap())
            .collect();
        let bytes = write_model_container_v3(&spec, &kernels).unwrap().to_vec();
        (spec, kernels, bytes)
    }

    #[test]
    fn model_container_v3_roundtrip_with_verification() {
        let (spec, kernels, bytes) = v3_fixture();
        let parsed = read_model_container(&bytes).unwrap();
        assert_eq!(parsed.version, MODEL_VERSION_V3);
        assert_eq!(parsed.spec.as_ref(), Some(&spec));
        assert_eq!(parsed.kernels.len(), kernels.len());
        for (c, k) in parsed.kernels.iter().zip(&kernels) {
            assert_eq!(c.decode_kernel().unwrap(), k.decompress().unwrap());
        }
        // The unverified reader parses the same structure.
        let unverified = read_model_container_unverified(&bytes).unwrap();
        assert_eq!(unverified, parsed);
        // Digest recomputation matches what the file stores.
        assert_eq!(
            parsed.record_digests(),
            kernels
                .iter()
                .map(|k| Digest::of(&write_container(k)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn v3_record_roundtrips_to_identical_bytes() {
        // to_bytes must reproduce the written record exactly — the digest
        // scheme and SAME-entry patch dedup both stand on this identity.
        let ck = compressed();
        let record = write_container(&ck);
        let parsed = read_container(&record).unwrap();
        assert_eq!(parsed.to_bytes(), record);
        assert_eq!(parsed.digest(), Digest::of(&record));
    }

    #[test]
    fn v3_detects_tampering_with_a_typed_error() {
        let (_, _, clean) = v3_fixture();
        assert!(read_model_container(&clean).is_ok());
        // Corrupt a byte in every region: graph section, a record body,
        // a stored digest, and the container trailer.
        let probes = [
            12usize,                      // graph section
            clean.len() / 2,              // some record body
            clean.len() - 1,              // container digest trailer
            clean.len() - DIGEST_LEN - 3, // last record digest area
        ];
        for &pos in &probes {
            let mut bad = clean.clone();
            bad[pos] ^= 0x01;
            let err = read_model_container(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    KcError::IntegrityViolation { .. } | KcError::CorruptStream(_)
                ),
                "byte {pos}: {err}"
            );
        }
        // The error is the typed integrity variant when structure survives:
        // flipping the final trailer byte can only be a digest mismatch.
        let mut bad = clean.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            read_model_container(&bad),
            Err(KcError::IntegrityViolation { ref record, .. }) if record == "container"
        ));
        // The unverified reader skips digest comparisons (same flip parses).
        assert!(read_model_container_unverified(&bad).is_ok());
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("bkcm-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bkcm");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name() != "model.bkcm")
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decode_packed_matches_decode_kernel() {
        let ck = compressed();
        let bytes = write_container(&ck);
        let parsed = read_container(&bytes).unwrap();
        let streamed = parsed.decode_packed().unwrap();
        let offline = bitnn::pack::PackedKernel::pack(&parsed.decode_kernel().unwrap()).unwrap();
        assert_eq!(streamed, offline);
    }

    #[test]
    fn container_decoder_config_reflects_stream() {
        let ck = compressed();
        let parsed = read_container(&write_container(&ck)).unwrap();
        let cfg = parsed.decoder_config(0x4000);
        assert_eq!(cfg.stream_ptr, 0x4000);
        assert_eq!(cfg.num_sequences, 48 * 48);
        assert_eq!(cfg.stream_len_bytes as usize, parsed.stream.len());
        assert_eq!(cfg.node_code_lengths, ck.tree().length_table());
    }
}
