//! End-to-end kernel and model compression (paper Sec. IV-A, Table V).
//!
//! [`KernelCodec`] bundles a tree configuration and an optional clustering
//! pass. `compress` computes the kernel's frequency table (offline step),
//! optionally applies clustering, builds the simplified tree, and encodes
//! every channel's bit sequence consecutively into one stream — exactly
//! the in-memory layout the paper describes ("we store them consecutively
//! in memory as a sequence of encoded words").
//!
//! [`model_compression_ratio`] applies the codec to every 3×3 kernel of a
//! [`ModelGraph`] and accounts the whole-model ratio (the paper's 1.2x).

use crate::bitseq::{BitSeq, NUM_SEQUENCES};
use crate::bitstream::BitWriter;
use crate::cluster::{ClusterConfig, ClusterPlan, Substitution};
use crate::config::DecoderConfig;
use crate::error::{KcError, Result};
use crate::freq::FreqTable;
use crate::huffman::{SimplifiedTree, TreeConfig};
use bitnn::graph::ModelGraph;
use bitnn::model::OpCategory;
use bitnn::tensor::BitTensor;
use bitnn::weightgen::read_sequences;
use bytes::Bytes;

/// A compression pipeline: simplified tree + optional clustering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelCodec {
    tree_config: TreeConfig,
    cluster: Option<ClusterConfig>,
}

impl KernelCodec {
    /// The paper's "Encoding" pipeline: 4-node tree, no clustering.
    pub fn paper() -> Self {
        KernelCodec {
            tree_config: TreeConfig::paper(),
            cluster: None,
        }
    }

    /// The paper's "Clustering" pipeline: 4-node tree plus Hamming-1
    /// substitution of the 256 least common sequences.
    pub fn paper_clustered() -> Self {
        KernelCodec {
            tree_config: TreeConfig::paper(),
            cluster: Some(ClusterConfig::default()),
        }
    }

    /// Custom tree configuration, no clustering.
    pub fn new(tree_config: TreeConfig) -> Self {
        KernelCodec {
            tree_config,
            cluster: None,
        }
    }

    /// Add a clustering pass.
    pub fn with_clustering(mut self, config: ClusterConfig) -> Self {
        self.cluster = Some(config);
        self
    }

    /// The tree configuration in use.
    pub fn tree_config(&self) -> &TreeConfig {
        &self.tree_config
    }

    /// The clustering configuration, if any.
    pub fn cluster_config(&self) -> Option<&ClusterConfig> {
        self.cluster.as_ref()
    }

    /// Compress a `[K, C, 3, 3]` binary kernel.
    ///
    /// One pass reads every channel's sequence from the packed words;
    /// counting, clustering and encoding all work on that list, so the
    /// kernel itself is never copied or rewritten.
    ///
    /// # Errors
    ///
    /// Returns [`KcError::BadKernelShape`] for other shapes.
    pub fn compress(&self, kernel: &BitTensor) -> Result<CompressedKernel> {
        let shape = kernel.shape();
        if shape.len() != 4 || shape[2] != 3 || shape[3] != 3 {
            return Err(KcError::BadKernelShape(shape.to_vec()));
        }
        let mut seqs = read_sequences(kernel);
        let freq = FreqTable::from_sequences(&seqs);

        let (substitutions, freq) = match &self.cluster {
            Some(cfg) => {
                let plan = ClusterPlan::build(&freq, cfg);
                plan.apply_to_sequences(&mut seqs);
                (plan.substitutions().to_vec(), plan.apply_to_freq(&freq))
            }
            None => (Vec::new(), freq),
        };

        let tree = SimplifiedTree::build(&freq, self.tree_config.clone());
        let codes = code_table(&tree);
        let mut writer = BitWriter::new();
        for &s in &seqs {
            let (code, len) = codes[s as usize];
            if len == 0 {
                return Err(KcError::Unencodable(s));
            }
            writer.write_bits(code, len);
        }
        let stream_bits = writer.bits_written();
        Ok(CompressedKernel {
            filters: shape[0],
            channels: shape[1],
            tree,
            stream: writer.into_bytes(),
            stream_bits,
            substitutions,
        })
    }
}

/// [`SimplifiedTree::code_for`] evaluated once per sequence value, as
/// `(bits, length)`; length 0 marks a sequence with no code.
fn code_table(tree: &SimplifiedTree) -> [(u32, u8); NUM_SEQUENCES] {
    std::array::from_fn(|s| {
        tree.code_for(BitSeq::new_unchecked(s as u16))
            .unwrap_or((0, 0))
    })
}

impl Default for KernelCodec {
    fn default() -> Self {
        KernelCodec::paper()
    }
}

/// A compressed 3×3 binary kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedKernel {
    filters: usize,
    channels: usize,
    tree: SimplifiedTree,
    stream: Bytes,
    stream_bits: usize,
    substitutions: Vec<Substitution>,
}

impl CompressedKernel {
    /// Output filter count of the original kernel.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Input channel count of the original kernel.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The simplified tree used for this kernel.
    pub fn tree(&self) -> &SimplifiedTree {
        &self.tree
    }

    /// The encoded stream (final byte zero-padded).
    pub fn stream(&self) -> &Bytes {
        &self.stream
    }

    /// Exact payload size in bits.
    pub fn stream_bits(&self) -> usize {
        self.stream_bits
    }

    /// Number of codewords (one per kernel channel).
    pub fn num_sequences(&self) -> usize {
        self.filters * self.channels
    }

    /// Substitutions performed by the clustering pass (empty without one).
    pub fn substitutions(&self) -> &[Substitution] {
        &self.substitutions
    }

    /// Uncompressed payload size in bits (9 bits per sequence — the
    /// paper's baseline, which stores kernels bit-packed).
    pub fn original_bits(&self) -> usize {
        self.num_sequences() * 9
    }

    /// Payload compression ratio (Table V's metric).
    pub fn ratio(&self) -> f64 {
        self.original_bits() as f64 / self.stream_bits as f64
    }

    /// Compression ratio including the decoder side tables (each table
    /// entry is a 2-byte word in the hardware's uncompressed table, plus
    /// one length byte per node).
    #[cfg(test)]
    fn ratio_with_tables(&self) -> f64 {
        let table_bits = self.tree.assigned() * 16 + self.tree.config().nodes() * 8;
        self.original_bits() as f64 / (self.stream_bits + table_bits) as f64
    }

    /// Decode the stream back into a `[K, C, 3, 3]` kernel.
    ///
    /// With clustering, this equals the *rewritten* kernel (the paper
    /// deploys the substituted weights); without clustering it is
    /// bit-exact with the input.
    ///
    /// # Errors
    ///
    /// Returns [`KcError::CorruptStream`] if the stream is damaged.
    pub fn decompress(&self) -> Result<BitTensor> {
        let (kernel, left) = crate::stream_decode::decode_tensor(
            &self.tree,
            &self.stream,
            self.stream_bits,
            self.filters,
            self.channels,
        )?;
        if left != 0 {
            return Err(KcError::CorruptStream(format!(
                "{left} bits left over after decoding"
            )));
        }
        Ok(kernel)
    }

    /// The decoding unit configuration for this kernel, with the stream
    /// placed at `stream_ptr` (Table III).
    pub fn decoder_config(&self, stream_ptr: u64) -> DecoderConfig {
        DecoderConfig::for_tree(
            &self.tree,
            self.num_sequences() as u64,
            stream_ptr,
            self.stream.len() as u64,
        )
    }
}

/// Whole-model compression accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelRatio {
    /// Model bits before compression.
    pub original_bits: u64,
    /// Model bits after compressing every 3×3 kernel.
    pub compressed_bits: u64,
    /// Average per-kernel payload ratio.
    pub mean_kernel_ratio: f64,
}

impl ModelRatio {
    /// Whole-model compression ratio (the paper's 1.2x).
    pub fn ratio(&self) -> f64 {
        self.original_bits as f64 / self.compressed_bits as f64
    }
}

/// Compress every 3×3 kernel of `model` with `codec` and account the
/// whole-model ratio: all other storage (input/output layers, 1×1 convs,
/// batch-norm, activations) is left untouched, which is what limits the
/// model-level ratio to ≈1.2x when kernels compress by ≈1.32x.
///
/// # Errors
///
/// Propagates compression errors (cannot occur for well-formed models).
pub fn model_compression_ratio(model: &ModelGraph, codec: &KernelCodec) -> Result<ModelRatio> {
    let breakdown = model.storage_breakdown();
    let original_bits = breakdown.total_bits() as u64;
    let mut compressed_bits = original_bits;
    let mut ratios = Vec::new();
    for i in 0..model.num_conv3() {
        let kernel = model.conv3_weights(i);
        let ck = codec.compress(kernel)?;
        // Replace this kernel's 9-bit-per-sequence storage by the stream.
        compressed_bits -= ck.original_bits() as u64;
        compressed_bits += ck.stream_bits() as u64;
        ratios.push(ck.ratio());
    }
    // Sanity: the conv3x3 category is exactly what we swapped out.
    debug_assert_eq!(
        breakdown.bits(OpCategory::Conv3x3) as u64,
        (0..model.num_conv3())
            .map(|i| model.conv3_weights(i).len() as u64)
            .sum::<u64>()
    );
    Ok(ModelRatio {
        original_bits,
        compressed_bits,
        mean_kernel_ratio: ratios.iter().sum::<f64>() / ratios.len() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitnn::weightgen::SeqDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn kernel(block: usize, seed: u64) -> BitTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        SeqDistribution::for_block(block, 0).sample_kernel(64, 64, &mut rng)
    }

    #[test]
    fn encoding_roundtrip_is_bit_exact() {
        let k = kernel(1, 3);
        let ck = KernelCodec::paper().compress(&k).unwrap();
        assert_eq!(ck.decompress().unwrap(), k);
    }

    #[test]
    fn encoding_ratio_in_paper_range() {
        // Table V "Encoding": 1.18x - 1.25x.
        for block in [1, 5, 12] {
            let k = kernel(block, block as u64);
            let ck = KernelCodec::paper().compress(&k).unwrap();
            let r = ck.ratio();
            assert!((1.10..1.40).contains(&r), "block {block}: ratio {r}");
        }
    }

    #[test]
    fn clustering_improves_ratio() {
        // Table V: Clustering beats Encoding on every block.
        let k = kernel(1, 7);
        let plain = KernelCodec::paper().compress(&k).unwrap();
        let clustered = KernelCodec::paper_clustered().compress(&k).unwrap();
        assert!(
            clustered.ratio() > plain.ratio(),
            "{} vs {}",
            clustered.ratio(),
            plain.ratio()
        );
    }

    #[test]
    fn clustered_decompress_is_the_rewritten_kernel() {
        let k = kernel(2, 9);
        let codec = KernelCodec::paper_clustered();
        let ck = codec.compress(&k).unwrap();
        assert!(!ck.substitutions().is_empty());
        let restored = ck.decompress().unwrap();
        assert_ne!(restored, k, "clustering must change some channels");
        // Every channel moved by at most one bit.
        for (a, b) in read_sequences(&k)
            .into_iter()
            .zip(read_sequences(&restored))
        {
            assert!((a ^ b).count_ones() <= 1);
        }
    }

    #[test]
    fn rejects_non_3x3_kernels() {
        let k = BitTensor::zeros(&[4, 4, 1, 1]);
        assert!(matches!(
            KernelCodec::paper().compress(&k),
            Err(KcError::BadKernelShape(_))
        ));
    }

    #[test]
    fn stream_bits_match_tree_accounting() {
        let k = kernel(3, 11);
        let ck = KernelCodec::paper().compress(&k).unwrap();
        let freq = FreqTable::from_kernel(&k).unwrap();
        assert_eq!(ck.stream_bits() as u64, ck.tree().compressed_bits(&freq));
        assert_eq!(ck.num_sequences(), 64 * 64);
        assert_eq!(ck.original_bits(), 64 * 64 * 9);
    }

    #[test]
    fn decoder_config_reflects_stream() {
        let k = kernel(4, 13);
        let ck = KernelCodec::paper().compress(&k).unwrap();
        let cfg = ck.decoder_config(0xABCD);
        assert_eq!(cfg.stream_ptr, 0xABCD);
        assert_eq!(cfg.num_sequences, 64 * 64);
        assert_eq!(cfg.stream_len_bytes as usize, ck.stream().len());
        assert_eq!(cfg.nodes(), 4);
    }

    #[test]
    fn ratio_with_tables_is_lower_but_positive() {
        // Use a realistically-sized kernel (128 channels): the decoder
        // tables are a fixed cost, negligible against a large stream but
        // dominant for toy kernels.
        let mut rng = StdRng::seed_from_u64(17);
        let k = SeqDistribution::for_block(5, 0).sample_kernel(128, 128, &mut rng);
        let ck = KernelCodec::paper().compress(&k).unwrap();
        assert!(ck.ratio_with_tables() < ck.ratio());
        assert!(ck.ratio_with_tables() > 1.0, "{}", ck.ratio_with_tables());
    }

    #[test]
    fn model_ratio_near_paper_value() {
        // The paper reports 1.2x for the whole model; our synthetic tiny
        // model has different layer proportions, so use the full model.
        let model = bitnn::model::ReActNetConfig::full().model(1).unwrap();
        let mr = model_compression_ratio(&model, &KernelCodec::paper_clustered()).unwrap();
        assert!(
            (1.10..1.35).contains(&mr.ratio()),
            "model ratio = {}",
            mr.ratio()
        );
        assert!(
            (1.25..1.45).contains(&mr.mean_kernel_ratio),
            "kernel ratio = {}",
            mr.mean_kernel_ratio
        );
        assert!(mr.compressed_bits < mr.original_bits);
    }

    #[test]
    fn custom_two_node_tree_works_end_to_end() {
        let k = kernel(7, 23);
        let codec = KernelCodec::new(crate::TreeConfig::with_capacities(vec![64, 256]).unwrap());
        let ck = codec.compress(&k).unwrap();
        // Code lengths: 1+6 = 7 and 2+8 = 10 (or widened).
        assert_eq!(ck.tree().code_len(0), 7);
        assert!(ck.tree().code_len(1) >= 10);
        assert_eq!(ck.decompress().unwrap(), k);
    }

    #[test]
    fn clustering_config_is_visible() {
        let codec = KernelCodec::paper_clustered();
        assert!(codec.cluster_config().is_some());
        assert_eq!(codec.cluster_config().unwrap().max_distance, 1);
        assert!(KernelCodec::paper().cluster_config().is_none());
        assert_eq!(codec.tree_config().nodes(), 4);
    }

    #[test]
    fn default_codec_is_paper_encoding() {
        assert_eq!(KernelCodec::default(), KernelCodec::paper());
    }

    #[test]
    fn single_filter_kernel_compresses() {
        let mut rng = StdRng::seed_from_u64(31);
        let k = SeqDistribution::for_block(1, 0).sample_kernel(1, 8, &mut rng);
        let ck = KernelCodec::paper().compress(&k).unwrap();
        assert_eq!(ck.num_sequences(), 8);
        assert_eq!(ck.decompress().unwrap(), k);
    }

    #[test]
    fn corrupt_stream_detected() {
        let k = kernel(6, 19);
        let ck = KernelCodec::paper().compress(&k).unwrap();
        // Truncate the stream by rebuilding with fewer bits.
        let mut broken = ck.clone();
        broken.stream_bits -= 3;
        assert!(broken.decompress().is_err());
    }
}
