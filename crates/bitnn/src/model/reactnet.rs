//! The full ReActNet model (paper Sec. II-B).
//!
//! 15 layers: one 8-bit input convolution, 13 basic blocks (paper Fig. 1:
//! `RSign → 1-bit 3×3 conv → BatchNorm → (+ shortcut) → RPReLU`, then the
//! same around a 1-bit 1×1 conv), and one 8-bit fully-connected output
//! layer, with a global average pool before the classifier. The
//! channel/stride schedule follows the MobileNet backbone that ReActNet is
//! derived from; with it, the storage breakdown reproduces paper Table I
//! (3×3 convolutions ≈ 68% of all bits).
//!
//! A [`ReActNet`] is its configuration plus the layer graph
//! [`crate::graph::arch::reactnet_spec`] describes, weighted by the same
//! generator every built-in family uses
//! ([`crate::graph::arch::attach_weights`]).

use crate::engine::{Engine, Scratch};
use crate::error::Result;
use crate::graph::arch::{attach_weights, reactnet_spec};
use crate::graph::{ModelGraph, NodeOp};
use crate::layers::Layer;
use crate::model::storage::{OpCategory, StorageBreakdown};
use crate::model::workload::LayerWorkload;
use crate::ops::conv::Conv2dParams;
use crate::tensor::{BitTensor, Tensor};

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

/// The assembled network: its configuration and the weighted layer graph.
#[derive(Debug, Clone)]
pub struct ReActNet {
    config: ReActNetConfig,
    graph: ModelGraph,
}

impl ReActNet {
    /// Build a network with calibrated synthetic weights: the graph of
    /// [`reactnet_spec`] under [`attach_weights`]. Each 3×3 kernel is
    /// sampled from its block's calibrated distribution so that the
    /// bit-sequence statistics reproduce paper Table II; 1×1 kernels are
    /// uniform random (the paper does not compress them); the 8-bit
    /// layers get uniform float weights.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::BitnnError::InvalidConfig`] if the
    /// configuration fails [`ReActNetConfig::validate`].
    pub fn new(config: ReActNetConfig, seed: u64) -> Result<Self> {
        let graph = attach_weights(&reactnet_spec(&config)?, seed)?;
        Ok(ReActNet { config, graph })
    }

    /// The paper's full model.
    pub fn full(seed: u64) -> Self {
        ReActNet::new(ReActNetConfig::full(), seed).expect("built-in config is valid")
    }

    /// A small model for tests and quick examples.
    pub fn tiny(seed: u64) -> Self {
        ReActNet::new(ReActNetConfig::tiny(), seed).expect("built-in config is valid")
    }

    /// The layer graph holding the weights.
    pub fn graph(&self) -> &ModelGraph {
        &self.graph
    }

    /// The configuration.
    pub fn config(&self) -> &ReActNetConfig {
        &self.config
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.config.blocks.len()
    }

    /// The binary 3×3 kernel of block `i` (the object of compression).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn conv3_weights(&self, i: usize) -> &BitTensor {
        self.graph.conv3_weights(i)
    }

    /// Replace block `i`'s 3×3 kernel (used after clustering).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the shape changes.
    pub fn set_conv3_weights(&mut self, i: usize, weights: BitTensor) {
        self.graph
            .set_conv3_weights(i, weights)
            .expect("block index in range");
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
        self.graph
            .set_conv3_packed(i, packed)
            .expect("block index in range");
    }

    /// Full forward pass: `[N, 3, S, S]` image → `[N, num_classes]` logits.
    ///
    /// Runs through the graph executor's fast path (tiled kernels,
    /// fused block stages, scratch-buffer reuse) on the calling thread;
    /// bit-exact with the scalar oracle
    /// ([`crate::graph::ModelGraph::forward_scalar`]).
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

    /// Storage breakdown by Table I category, summed over the graph's
    /// weighted nodes.
    pub fn storage_breakdown(&self) -> StorageBreakdown {
        let mut b = StorageBreakdown::new();
        for node in self.graph.nodes() {
            let (category, bits) = match &node.op {
                NodeOp::StemConv(q) => (OpCategory::InputLayer, q.param_bits()),
                NodeOp::Classifier(l) => (OpCategory::OutputLayer, l.param_bits()),
                NodeOp::BinConv(c) if c.kernel_size() == (3, 3) => {
                    (OpCategory::Conv3x3, c.param_bits())
                }
                NodeOp::BinConv(c) => (OpCategory::Conv1x1, c.param_bits()),
                NodeOp::Sign(l) => (OpCategory::Others, l.param_bits()),
                NodeOp::BatchNorm(l) => (OpCategory::Others, l.param_bits()),
                NodeOp::Act(l) => (OpCategory::Others, l.param_bits()),
                _ => continue,
            };
            b.add(category, bits);
        }
        b
    }

    /// Per-layer workload descriptors (geometry for the timing simulator),
    /// walking the same spatial arithmetic as [`ReActNet::forward`].
    pub fn workloads(&self) -> Vec<LayerWorkload> {
        self.config.workloads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BitnnError;
    use crate::graph::ShapeInfo;
    use crate::weightgen::random_floats;

    /// A one-block network whose block sees `hw × hw` maps (the stem
    /// halves its `2hw` input).
    fn one_block(in_ch: usize, out_ch: usize, stride: usize, hw: usize) -> ReActNet {
        let cfg = ReActNetConfig {
            image_size: 2 * hw,
            input_channels: 3,
            stem_channels: in_ch,
            blocks: vec![BlockSpec {
                in_ch,
                out_ch,
                stride,
            }],
            num_classes: 10,
        };
        ReActNet::new(cfg, 40 + (out_ch + stride) as u64).unwrap()
    }

    fn input(batch: usize, image: usize, seed: u64) -> Tensor {
        let len = batch * 3 * image * image;
        Tensor::from_vec(&[batch, 3, image, image], random_floats(len, 1.0, seed)).unwrap()
    }

    /// The inferred shape of the block's output map, after checking that
    /// the network forwards to finite logits.
    fn block_output(in_ch: usize, out_ch: usize, stride: usize, hw: usize) -> ShapeInfo {
        let m = one_block(in_ch, out_ch, stride, hw);
        let y = m.forward(&input(1, 2 * hw, 5));
        assert_eq!(y.shape(), &[1, 10]);
        assert!(y.data().iter().all(|v| v.is_finite()));
        let shapes = m.graph().spec().shapes().unwrap();
        // ... → block act2 → global pool → classifier.
        shapes[shapes.len() - 3]
    }

    #[test]
    fn stride1_same_channels_preserves_shape() {
        let got = block_output(8, 8, 1, 6);
        assert_eq!(got, ShapeInfo::Map { ch: 8, h: 6, w: 6 });
    }

    #[test]
    fn stride2_halves_spatial() {
        let got = block_output(8, 8, 2, 8);
        assert_eq!(got, ShapeInfo::Map { ch: 8, h: 4, w: 4 });
    }

    #[test]
    fn channel_doubling_block() {
        let got = block_output(8, 16, 1, 4);
        assert_eq!(got, ShapeInfo::Map { ch: 16, h: 4, w: 4 });
    }

    #[test]
    fn stride2_and_doubling_together() {
        // Odd input; pad 1, k 3, stride 2: out = (7 + 2 - 3)/2 + 1 = 4.
        let got = block_output(8, 16, 2, 7);
        assert_eq!(got, ShapeInfo::Map { ch: 16, h: 4, w: 4 });
    }

    #[test]
    fn engine_forward_is_bit_exact_with_scalar() {
        // Every block shape class: identity, stride-2, channel-doubling,
        // and both combined — the fused engine path must match the scalar
        // oracle bit-for-bit.
        for (c_in, c_out, stride, hw) in [(8, 8, 1, 6), (8, 8, 2, 8), (8, 16, 1, 4), (8, 16, 2, 7)]
        {
            let m = one_block(c_in, c_out, stride, hw);
            let x = input(2, 2 * hw, 99);
            let scalar = m.graph().forward_scalar(&x).unwrap();
            for threads in [1, 4] {
                let engine = Engine::with_threads(threads);
                let fused = m.forward_with(&x, &engine, &mut Scratch::default());
                assert_eq!(
                    scalar.data(),
                    fused.data(),
                    "c_in={c_in} c_out={c_out} stride={stride} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn param_bits_dominated_by_conv3() {
        let b = one_block(64, 64, 1, 4).storage_breakdown();
        // conv3 = 64*64*9 bits, conv1 = 64*64 bits; 3x3 should dominate.
        assert!(b.bits(OpCategory::Conv3x3) > b.bits(OpCategory::Conv1x1) * 8);
        assert!(b.bits(OpCategory::Others) > 0);
    }

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
            let scalar = m.graph().forward_scalar(x).unwrap();
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
