//! The full ReActNet model (paper Sec. II-B).
//!
//! 15 layers: one 8-bit input convolution, 13 basic blocks
//! ([`crate::model::block::BasicBlock`]), and one 8-bit fully-connected
//! output layer, with a global average pool before the classifier. The
//! channel/stride schedule follows the MobileNet backbone that ReActNet is
//! derived from; with it, the storage breakdown reproduces paper Table I
//! (3×3 convolutions ≈ 68% of all bits).

use crate::engine::{Engine, Scratch};
use crate::error::{BitnnError, Result};
use crate::graph::{GraphNode, ModelGraph, NodeOp};
use crate::layers::{
    global_avg_pool, BatchNorm, BinConv2d, Layer, QuantConv2d, QuantLinear, RPReLU, RSign,
};
use crate::model::block::BasicBlock;
use crate::model::storage::{OpCategory, StorageBreakdown};
use crate::model::workload::LayerWorkload;
use crate::ops::conv::Conv2dParams;
use crate::tensor::{BitTensor, Tensor};
use crate::weightgen::{random_floats, random_kernel, SeqDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Channel/stride specification of one basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpec {
    /// Input channels of the 3×3 stage.
    pub in_ch: usize,
    /// Output channels of the 1×1 stage (must be `in_ch` or `2 * in_ch`).
    pub out_ch: usize,
    /// Stride of the 3×3 stage (1 or 2).
    pub stride: usize,
}

/// Model hyper-parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReActNetConfig {
    /// Input image side length (square inputs).
    pub image_size: usize,
    /// Input image channels (3 for RGB).
    pub input_channels: usize,
    /// Stem (input convolution) output channels.
    pub stem_channels: usize,
    /// The 13-block (or fewer, for scaled-down models) schedule.
    pub blocks: Vec<BlockSpec>,
    /// Classifier output count.
    pub num_classes: usize,
}

impl ReActNetConfig {
    /// The paper's full configuration: 224×224 input, MobileNet schedule,
    /// 1000 classes.
    pub fn full() -> Self {
        let s = |in_ch, out_ch, stride| BlockSpec {
            in_ch,
            out_ch,
            stride,
        };
        ReActNetConfig {
            image_size: 224,
            input_channels: 3,
            stem_channels: 32,
            blocks: vec![
                s(32, 64, 1),
                s(64, 128, 2),
                s(128, 128, 1),
                s(128, 256, 2),
                s(256, 256, 1),
                s(256, 512, 2),
                s(512, 512, 1),
                s(512, 512, 1),
                s(512, 512, 1),
                s(512, 512, 1),
                s(512, 512, 1),
                s(512, 1024, 2),
                s(1024, 1024, 1),
            ],
            num_classes: 1000,
        }
    }

    /// The full 13-block schedule with every channel count scaled by
    /// `scale` (rounded, clamped to at least 8 channels) — the geometry
    /// the `bnnkc` CLI compresses and runs. The stem and each block's
    /// input channels use the same formula, so a container written by
    /// `bnnkc compress --scale S` always matches `ReActNetConfig::scaled(S)`.
    ///
    /// # Errors
    ///
    /// Returns a description of the inconsistency when the clamping
    /// breaks the `out_ch ∈ {C, 2C}` block invariant (very small scales).
    pub fn scaled(scale: f64) -> std::result::Result<Self, String> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err("scale must be positive".into());
        }
        let full = Self::full();
        let ch = |c: usize| ((c as f64 * scale).round() as usize).max(8);
        let mut cfg = full.clone();
        cfg.stem_channels = ch(full.blocks[0].in_ch);
        for (i, b) in cfg.blocks.iter_mut().enumerate() {
            b.in_ch = ch(full.blocks[i].in_ch);
            b.out_ch = if i + 1 < full.blocks.len() {
                ch(full.blocks[i + 1].in_ch)
            } else {
                // The full schedule's last block keeps its channel count.
                ch(full.blocks[i].in_ch)
            };
        }
        cfg.validate()
            .map_err(|e| format!("scale {scale} produces an inconsistent schedule: {e}"))?;
        Ok(cfg)
    }

    /// A scaled-down configuration for tests and examples: 32×32 input,
    /// three blocks, 10 classes.
    pub fn tiny() -> Self {
        let s = |in_ch, out_ch, stride| BlockSpec {
            in_ch,
            out_ch,
            stride,
        };
        ReActNetConfig {
            image_size: 32,
            input_channels: 3,
            stem_channels: 8,
            blocks: vec![s(8, 16, 1), s(16, 16, 2), s(16, 32, 2)],
            num_classes: 10,
        }
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.blocks.is_empty() {
            return Err("at least one block is required".into());
        }
        let mut c = self.stem_channels;
        for (i, b) in self.blocks.iter().enumerate() {
            if b.in_ch != c {
                return Err(format!(
                    "block {i}: expects {c} input channels, spec says {}",
                    b.in_ch
                ));
            }
            if b.out_ch != b.in_ch && b.out_ch != 2 * b.in_ch {
                return Err(format!("block {i}: out_ch must be C or 2C"));
            }
            if b.stride != 1 && b.stride != 2 {
                return Err(format!("block {i}: stride must be 1 or 2"));
            }
            c = b.out_ch;
        }
        Ok(())
    }

    /// Per-layer workload descriptors (geometry for the timing simulator),
    /// walking the same spatial arithmetic as [`ReActNet::forward`].
    /// Available on the bare configuration so callers driving the
    /// simulator from a compressed container never build weights.
    pub fn workloads(&self) -> Vec<LayerWorkload> {
        let mut out = Vec::new();
        let mut size = Conv2dParams { stride: 2, pad: 1 }.out_dim(self.image_size, 3);
        out.push(LayerWorkload {
            name: "input.conv".into(),
            category: OpCategory::InputLayer,
            in_ch: self.input_channels,
            out_ch: self.stem_channels,
            kh: 3,
            kw: 3,
            oh: size,
            ow: size,
            precision_bits: 8,
        });
        for (i, spec) in self.blocks.iter().enumerate() {
            let conv3_out = Conv2dParams {
                stride: spec.stride,
                pad: 1,
            }
            .out_dim(size, 3);
            out.push(LayerWorkload {
                name: format!("block{}.conv3x3", i + 1),
                category: OpCategory::Conv3x3,
                in_ch: spec.in_ch,
                out_ch: spec.in_ch,
                kh: 3,
                kw: 3,
                oh: conv3_out,
                ow: conv3_out,
                precision_bits: 1,
            });
            out.push(LayerWorkload {
                name: format!("block{}.conv1x1", i + 1),
                category: OpCategory::Conv1x1,
                in_ch: spec.in_ch,
                out_ch: spec.out_ch,
                kh: 1,
                kw: 1,
                oh: conv3_out,
                ow: conv3_out,
                precision_bits: 1,
            });
            size = conv3_out;
        }
        let final_ch = self.blocks.last().unwrap().out_ch;
        out.push(LayerWorkload {
            name: "output.fc".into(),
            category: OpCategory::OutputLayer,
            in_ch: final_ch,
            out_ch: self.num_classes,
            kh: 1,
            kw: 1,
            oh: 1,
            ow: 1,
            precision_bits: 8,
        });
        out
    }
}

/// The assembled network.
///
/// The blocks are the primary storage and the frozen scalar oracle
/// ([`Self::forward_scalar`]); construction also assembles the layer-graph
/// IR twin ([`crate::graph::ModelGraph`], holding clones of the layers),
/// and every engine-path forward runs through the graph executor. Kernel
/// mutations keep both views in sync.
#[derive(Debug, Clone)]
pub struct ReActNet {
    config: ReActNetConfig,
    input_conv: QuantConv2d,
    blocks: Vec<BasicBlock>,
    classifier: QuantLinear,
    graph: ModelGraph,
}

impl ReActNet {
    /// Build a network with calibrated synthetic weights.
    ///
    /// Each block's 3×3 kernel is sampled from
    /// [`SeqDistribution::for_block`] so that the bit-sequence statistics
    /// reproduce paper Table II; 1×1 kernels are uniform random (the paper
    /// does not compress them); the 8-bit layers get uniform float weights.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::InvalidConfig`] if the configuration fails
    /// [`ReActNetConfig::validate`].
    pub fn new(config: ReActNetConfig, seed: u64) -> Result<Self> {
        config
            .validate()
            .map_err(|e| BitnnError::InvalidConfig(format!("invalid ReActNet config: {e}")))?;
        let mut rng = StdRng::seed_from_u64(seed);
        let stem = config.stem_channels;

        let input_weights = Tensor::from_vec(
            &[stem, config.input_channels, 3, 3],
            random_floats(stem * config.input_channels * 9, 1.0, seed ^ 0xA11CE),
        )
        .expect("consistent stem shape");
        let input_conv =
            QuantConv2d::from_float(&input_weights, Conv2dParams { stride: 2, pad: 1 });

        let mut blocks = Vec::with_capacity(config.blocks.len());
        for (i, spec) in config.blocks.iter().enumerate() {
            let paper_block = i % 13 + 1;
            let dist = SeqDistribution::for_block(paper_block, seed);
            let w3 = dist.sample_kernel(spec.in_ch, spec.in_ch, &mut rng);
            let w1 = random_kernel(&[spec.out_ch, spec.in_ch, 1, 1], seed ^ (i as u64) << 8);
            blocks.push(BasicBlock {
                sign1: RSign::new(small_params(spec.in_ch, seed ^ (i as u64), 0.05)),
                conv3: BinConv2d::new(
                    w3,
                    Conv2dParams {
                        stride: spec.stride,
                        pad: 1,
                    },
                ),
                bn1: varied_bn(spec.in_ch, seed ^ (i as u64) << 1),
                act1: RPReLU::new(
                    small_params(spec.in_ch, seed ^ (i as u64) << 2, 0.05),
                    vec![0.25; spec.in_ch],
                    small_params(spec.in_ch, seed ^ (i as u64) << 3, 0.05),
                ),
                sign2: RSign::new(small_params(spec.in_ch, seed ^ (i as u64) << 4, 0.05)),
                conv1: BinConv2d::new(w1, Conv2dParams::default()),
                bn2: varied_bn(spec.out_ch, seed ^ (i as u64) << 5),
                act2: RPReLU::new(
                    small_params(spec.out_ch, seed ^ (i as u64) << 6, 0.05),
                    vec![0.25; spec.out_ch],
                    small_params(spec.out_ch, seed ^ (i as u64) << 7, 0.05),
                ),
            });
        }

        let final_ch = config.blocks.last().unwrap().out_ch;
        let classifier = QuantLinear::from_float(
            &random_floats(config.num_classes * final_ch, 0.5, seed ^ 0xC1A55),
            config.num_classes,
            final_ch,
        );

        let graph = build_graph(&config, &input_conv, &blocks, &classifier);
        Ok(ReActNet {
            config,
            input_conv,
            blocks,
            classifier,
            graph,
        })
    }

    /// The paper's full model.
    pub fn full(seed: u64) -> Self {
        ReActNet::new(ReActNetConfig::full(), seed).expect("built-in config is valid")
    }

    /// A small model for tests and quick examples.
    pub fn tiny(seed: u64) -> Self {
        ReActNet::new(ReActNetConfig::tiny(), seed).expect("built-in config is valid")
    }

    /// The layer-graph IR view of this network (same weights; the graph
    /// holds its own clones, kept in sync by the kernel setters).
    pub fn graph(&self) -> &ModelGraph {
        &self.graph
    }

    /// Convert into the graph representation, dropping the block view.
    pub fn into_graph(self) -> ModelGraph {
        self.graph
    }

    /// The configuration.
    pub fn config(&self) -> &ReActNetConfig {
        &self.config
    }

    /// The basic blocks.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The binary 3×3 kernel of block `i` (the object of compression).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn conv3_weights(&self, i: usize) -> &BitTensor {
        self.blocks[i].conv3.weights()
    }

    /// Replace block `i`'s 3×3 kernel (used after clustering).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the shape changes.
    pub fn set_conv3_weights(&mut self, i: usize, weights: BitTensor) {
        self.blocks[i].conv3.set_weights(weights.clone());
        self.graph
            .set_conv3_weights(i, weights)
            .expect("graph mirrors the block schedule");
    }

    /// Replace block `i`'s 3×3 kernel with an already channel-packed
    /// kernel — the compressed-container deployment path: a streaming
    /// decoder's lane words go straight into the engine's weight forms
    /// with no intermediate `[K, C, 3, 3]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the packed geometry changes.
    pub fn set_conv3_packed(&mut self, i: usize, packed: crate::pack::PackedKernel) {
        self.blocks[i].conv3.set_packed(packed.clone());
        self.graph
            .set_conv3_packed(i, packed)
            .expect("graph mirrors the block schedule");
    }

    /// Full forward pass: `[N, 3, S, S]` image → `[N, num_classes]` logits.
    ///
    /// Runs through the graph executor's fast path (tiled kernels,
    /// fused block stages, scratch-buffer reuse) on the calling thread;
    /// bit-exact with the scalar seed path ([`Self::forward_scalar`]).
    /// Use [`Self::forward_with`] to supply a policy and a long-lived
    /// scratch, or [`Self::forward_batch`] for multi-image parallelism.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the configuration.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        self.forward_with(input, &Engine::single_threaded(), &mut Scratch::default())
    }

    /// Forward pass under an explicit [`Engine`] policy with caller-owned
    /// scratch buffers (reused across calls, so steady-state inference
    /// stops allocating per layer).
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the configuration.
    pub fn forward_with(&self, input: &Tensor, engine: &Engine, scratch: &mut Scratch) -> Tensor {
        self.graph
            .forward_with(input, engine, scratch)
            .expect("strides validated at construction")
    }

    /// [`Self::forward_with`] into a reusable output tensor: zero heap
    /// allocation once the scratch (arena included) is warm.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the configuration.
    pub fn forward_into(
        &self,
        input: &Tensor,
        engine: &Engine,
        scratch: &mut Scratch,
        out: &mut Tensor,
    ) {
        self.graph
            .forward_into(input, engine, scratch, out)
            .expect("strides validated at construction")
    }

    /// Forward a batch of independent inputs through the plan-level
    /// batch executor (batch-level chunking across the persistent worker
    /// pool when there are enough items, intra-op parallelism otherwise).
    /// Results are in input order and bit-exact with per-item
    /// [`Self::forward`].
    ///
    /// # Panics
    ///
    /// Panics if any input shape does not match the configuration.
    pub fn forward_batch(&self, inputs: &[Tensor], engine: &Engine) -> Vec<Tensor> {
        self.graph
            .forward_batch(inputs, engine)
            .expect("strides validated at construction")
    }

    /// [`Self::forward_batch`] into reusable output and scratch state
    /// (see [`crate::graph::ModelGraph::forward_batch_into`]).
    ///
    /// # Panics
    ///
    /// Panics if any input shape does not match the configuration.
    pub fn forward_batch_into(
        &self,
        inputs: &[Tensor],
        engine: &Engine,
        scratch: &mut crate::graph::BatchScratch,
        outs: &mut Vec<Tensor>,
    ) {
        self.graph
            .forward_batch_into(inputs, engine, scratch, outs)
            .expect("strides validated at construction")
    }

    /// The seed's scalar forward pass: per-position dot products, no
    /// tiling, no fusion, fresh allocations per layer. Kept bit-identical
    /// as the perf-tracking baseline that `perfsuite` measures the engine
    /// against, and as an oracle for the equivalence tests.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the configuration.
    pub fn forward_scalar(&self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "input must be [N, C, H, W]");
        assert_eq!(
            shape[1], self.config.input_channels,
            "input channel mismatch"
        );
        let mut x = self.input_conv.forward(input);
        for b in &self.blocks {
            x = b.forward(&x).expect("strides validated at construction");
        }
        let pooled = global_avg_pool(&x);
        self.classifier.forward_2d(&pooled)
    }

    /// Forward pass that also returns each block's binarized 3×3-stage
    /// input — the activation bit tensors whose 3×3 windows form the
    /// "input" bit sequences of the paper's Sec. I observation.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the configuration.
    pub fn forward_traced(&self, input: &Tensor) -> (Tensor, Vec<BitTensor>) {
        self.graph
            .forward_traced(input)
            .expect("strides validated at construction")
    }

    /// Storage breakdown by Table I category.
    pub fn storage_breakdown(&self) -> StorageBreakdown {
        let mut b = StorageBreakdown::new();
        b.add(OpCategory::InputLayer, self.input_conv.param_bits());
        b.add(OpCategory::OutputLayer, self.classifier.param_bits());
        for blk in &self.blocks {
            b.add(OpCategory::Conv3x3, blk.conv3.param_bits());
            b.add(OpCategory::Conv1x1, blk.conv1.param_bits());
            b.add(
                OpCategory::Others,
                blk.sign1.param_bits()
                    + blk.bn1.param_bits()
                    + blk.act1.param_bits()
                    + blk.sign2.param_bits()
                    + blk.bn2.param_bits()
                    + blk.act2.param_bits(),
            );
        }
        b
    }

    /// Per-layer workload descriptors (geometry for the timing simulator),
    /// walking the same spatial arithmetic as [`ReActNet::forward`].
    pub fn workloads(&self) -> Vec<LayerWorkload> {
        self.config.workloads()
    }
}

/// Assemble the layer-graph IR for a validated configuration, cloning the
/// layers into typed nodes. Node order mirrors
/// [`crate::graph::arch::reactnet_spec`] exactly (a unit test pins them
/// together), so a weight-free spec built from the same configuration is
/// structurally identical to `graph().spec()`.
fn build_graph(
    config: &ReActNetConfig,
    input_conv: &QuantConv2d,
    blocks: &[BasicBlock],
    classifier: &QuantLinear,
) -> ModelGraph {
    let mut nodes = vec![GraphNode {
        name: "input".into(),
        op: NodeOp::Input {
            channels: config.input_channels,
            image: config.image_size,
        },
        inputs: vec![],
    }];
    let push = |nodes: &mut Vec<GraphNode>, name: String, op: NodeOp, inputs: &[usize]| {
        nodes.push(GraphNode {
            name,
            op,
            inputs: inputs.to_vec(),
        });
        nodes.len() - 1
    };
    let mut x = push(
        &mut nodes,
        "input.conv".into(),
        NodeOp::StemConv(input_conv.clone()),
        &[0],
    );
    for (i, (spec, b)) in config.blocks.iter().zip(blocks).enumerate() {
        let p = format!("block{}", i + 1);
        let sign = push(
            &mut nodes,
            format!("{p}.sign1"),
            NodeOp::Sign(b.sign1.clone()),
            &[x],
        );
        let conv = push(
            &mut nodes,
            format!("{p}.conv3x3"),
            NodeOp::BinConv(b.conv3.clone()),
            &[sign],
        );
        let bn = push(
            &mut nodes,
            format!("{p}.bn1"),
            NodeOp::BatchNorm(b.bn1.clone()),
            &[conv],
        );
        let sc = if spec.stride == 2 {
            push(&mut nodes, format!("{p}.pool"), NodeOp::AvgPool2x2, &[x])
        } else {
            x
        };
        let addn = push(&mut nodes, format!("{p}.add1"), NodeOp::Add, &[bn, sc]);
        let mid = push(
            &mut nodes,
            format!("{p}.act1"),
            NodeOp::Act(b.act1.clone()),
            &[addn],
        );
        let sign = push(
            &mut nodes,
            format!("{p}.sign2"),
            NodeOp::Sign(b.sign2.clone()),
            &[mid],
        );
        let conv = push(
            &mut nodes,
            format!("{p}.conv1x1"),
            NodeOp::BinConv(b.conv1.clone()),
            &[sign],
        );
        let bn = push(
            &mut nodes,
            format!("{p}.bn2"),
            NodeOp::BatchNorm(b.bn2.clone()),
            &[conv],
        );
        let sc = if spec.out_ch == 2 * spec.in_ch {
            push(&mut nodes, format!("{p}.dup"), NodeOp::ChannelDup, &[mid])
        } else {
            mid
        };
        let addn = push(&mut nodes, format!("{p}.add2"), NodeOp::Add, &[bn, sc]);
        x = push(
            &mut nodes,
            format!("{p}.act2"),
            NodeOp::Act(b.act2.clone()),
            &[addn],
        );
    }
    let gap = push(&mut nodes, "gap".into(), NodeOp::GlobalAvgPool, &[x]);
    push(
        &mut nodes,
        "output.fc".into(),
        NodeOp::Classifier(classifier.clone()),
        &[gap],
    );
    ModelGraph::new("reactnet", nodes).expect("a validated config builds a valid graph")
}

/// Small deterministic per-channel parameters in `[-bound, bound]`.
pub(crate) fn small_params(channels: usize, seed: u64, bound: f32) -> Vec<f32> {
    random_floats(channels, bound, seed)
}

/// A batch-norm with mild per-channel variation around identity, so the
/// synthetic network's activations neither explode nor collapse.
pub(crate) fn varied_bn(channels: usize, seed: u64) -> BatchNorm {
    let g = random_floats(channels, 0.2, seed ^ 1);
    let b = random_floats(channels, 0.2, seed ^ 2);
    let gamma: Vec<f32> = g.iter().map(|v| 0.1 + v.abs()).collect();
    let beta = b;
    // Normalize roughly by fan-in scale: binary conv outputs are O(C * 9);
    // use mean 0, var (C*9/4)^2-ish folded into gamma instead. Keep BN
    // statistics simple: mean 0, var 1, and let gamma carry the scale-down.
    let scale = 1.0 / (channels as f32 * 3.0);
    let gamma = gamma.iter().map(|v| v * scale).collect();
    BatchNorm::new(gamma, beta, vec![0.0; channels], vec![1.0; channels], 1e-5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_forward_shape() {
        let m = ReActNet::tiny(1);
        let x = Tensor::from_vec(&[2, 3, 32, 32], random_floats(2 * 3 * 32 * 32, 1.0, 7)).unwrap();
        let y = m.forward(&x);
        assert_eq!(y.shape(), &[2, 10]);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn engine_forward_matches_scalar_and_batch() {
        let m = ReActNet::tiny(4);
        let inputs: Vec<Tensor> = (0..3)
            .map(|i| {
                Tensor::from_vec(
                    &[1, 3, 32, 32],
                    random_floats(3 * 32 * 32, 1.0, 11 + i as u64),
                )
                .unwrap()
            })
            .collect();
        let engine = Engine::with_threads(4);
        let batched = m.forward_batch(&inputs, &engine);
        assert_eq!(batched.len(), 3);
        let mut scratch = Scratch::default();
        for (x, via_batch) in inputs.iter().zip(&batched) {
            let scalar = m.forward_scalar(x);
            let fast = m.forward(x);
            let with = m.forward_with(x, &engine, &mut scratch);
            assert_eq!(scalar.data(), fast.data());
            assert_eq!(scalar.data(), with.data());
            assert_eq!(scalar.data(), via_batch.data());
        }
    }

    #[test]
    fn full_config_validates() {
        assert!(ReActNetConfig::full().validate().is_ok());
        assert!(ReActNetConfig::tiny().validate().is_ok());
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let mut c = ReActNetConfig::tiny();
        c.blocks[0].stride = 3;
        assert!(matches!(
            ReActNet::new(c, 1),
            Err(BitnnError::InvalidConfig(_))
        ));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = ReActNetConfig::tiny();
        c.blocks[0].in_ch = 99;
        assert!(c.validate().is_err());
        let mut c = ReActNetConfig::tiny();
        c.blocks[0].out_ch = c.blocks[0].in_ch * 3;
        assert!(c.validate().is_err());
        let mut c = ReActNetConfig::tiny();
        c.blocks[0].stride = 3;
        assert!(c.validate().is_err());
        let mut c = ReActNetConfig::tiny();
        c.blocks.clear();
        assert!(c.validate().is_err());
    }

    #[test]
    fn full_storage_breakdown_matches_table1_shape() {
        // Build only the breakdown-relevant structure; full model weights
        // are large, so this is the one full-size construction in tests.
        let m = ReActNet::full(0);
        let b = m.storage_breakdown();
        let conv3 = b.percent(OpCategory::Conv3x3);
        let conv1 = b.percent(OpCategory::Conv1x1);
        let output = b.percent(OpCategory::OutputLayer);
        let input = b.percent(OpCategory::InputLayer);
        // Paper Table I: 68.0 / 8.5 / 22.17 / 0.02.
        assert!((60.0..75.0).contains(&conv3), "conv3x3 = {conv3}%");
        assert!((5.0..12.0).contains(&conv1), "conv1x1 = {conv1}%");
        assert!((15.0..30.0).contains(&output), "output = {output}%");
        assert!(input < 1.0, "input = {input}%");
    }

    #[test]
    fn workloads_cover_all_layers() {
        let m = ReActNet::tiny(2);
        let w = m.workloads();
        // input + 2 per block + output.
        assert_eq!(w.len(), 1 + 2 * 3 + 1);
        assert_eq!(w[0].category, OpCategory::InputLayer);
        assert_eq!(w.last().unwrap().category, OpCategory::OutputLayer);
    }

    #[test]
    fn workload_geometry_tracks_strides() {
        let m = ReActNet::tiny(2);
        let w = m.workloads();
        // 32x32 input, stem stride 2 -> 16; block1 stride 1 -> 16;
        // block2 stride 2 -> 8; block3 stride 2 -> 4.
        assert_eq!(w[1].oh, 16);
        assert_eq!(w[3].oh, 8);
        assert_eq!(w[5].oh, 4);
    }

    #[test]
    fn deterministic_construction() {
        let a = ReActNet::tiny(5);
        let b = ReActNet::tiny(5);
        assert_eq!(a.conv3_weights(0), b.conv3_weights(0));
        let c = ReActNet::tiny(6);
        assert_ne!(a.conv3_weights(0), c.conv3_weights(0));
    }

    #[test]
    fn scaled_config_tracks_the_full_schedule() {
        let cfg = ReActNetConfig::scaled(0.25).unwrap();
        assert_eq!(cfg.stem_channels, 8);
        assert_eq!(cfg.blocks.len(), 13);
        let full = ReActNetConfig::full();
        for (s, f) in cfg.blocks.iter().zip(&full.blocks) {
            assert_eq!(s.stride, f.stride);
            assert_eq!(s.in_ch, ((f.in_ch as f64 * 0.25).round() as usize).max(8));
        }
        // Unit scale reproduces the full schedule's channels.
        let unit = ReActNetConfig::scaled(1.0).unwrap();
        assert_eq!(unit.blocks, full.blocks);
        // Degenerate scales are rejected cleanly.
        assert!(ReActNetConfig::scaled(0.0).is_err());
        assert!(ReActNetConfig::scaled(f64::NAN).is_err());
    }

    #[test]
    fn set_conv3_packed_matches_set_weights() {
        let x = Tensor::from_vec(&[1, 3, 32, 32], random_floats(3 * 32 * 32, 1.0, 13)).unwrap();
        let mut w = ReActNet::tiny(7).conv3_weights(1).clone();
        for i in 0..w.len() {
            w.set(i, !w.get(i));
        }
        let mut via_tensor = ReActNet::tiny(7);
        via_tensor.set_conv3_weights(1, w.clone());
        let mut via_packed = ReActNet::tiny(7);
        via_packed.set_conv3_packed(1, crate::pack::PackedKernel::pack(&w).unwrap());
        assert_eq!(via_tensor.forward(&x).data(), via_packed.forward(&x).data());
        assert_eq!(via_packed.conv3_weights(1), &w);
    }

    #[test]
    fn set_conv3_weights_changes_output() {
        let mut m = ReActNet::tiny(3);
        let x = Tensor::from_vec(&[1, 3, 32, 32], random_floats(3 * 32 * 32, 1.0, 9)).unwrap();
        let y0 = m.forward(&x);
        let mut w = m.conv3_weights(0).clone();
        for i in 0..w.len() {
            w.set(i, !w.get(i));
        }
        m.set_conv3_weights(0, w);
        let y1 = m.forward(&x);
        assert_ne!(y0.data(), y1.data());
    }
}
