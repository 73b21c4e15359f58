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
//! A [`ReActNetConfig`] describes the schedule; the network itself is a
//! [`ModelGraph`]: the layer graph [`crate::graph::arch::reactnet_spec`]
//! describes, weighted by the same generator every built-in family uses
//! ([`crate::graph::arch::attach_weights`]). [`ReActNetConfig::model`]
//! builds it in one call.

use crate::error::Result;
use crate::graph::arch::{attach_weights, reactnet_spec};
use crate::graph::ModelGraph;

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

    /// The weighted network: the graph of [`reactnet_spec`] under
    /// [`attach_weights`]. Each 3×3 kernel is sampled from its block's
    /// calibrated distribution so that the bit-sequence statistics
    /// reproduce paper Table II; 1×1 kernels are uniform random (the
    /// paper does not compress them); the 8-bit layers get uniform float
    /// weights.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::BitnnError::InvalidConfig`] if the
    /// configuration fails [`ReActNetConfig::validate`].
    pub fn model(&self, seed: u64) -> Result<ModelGraph> {
        attach_weights(&reactnet_spec(self)?, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Scratch};
    use crate::error::BitnnError;
    use crate::graph::ShapeInfo;
    use crate::model::OpCategory;
    use crate::tensor::Tensor;
    use crate::weightgen::random_floats;

    /// A one-block network whose block sees `hw × hw` maps (the stem
    /// halves its `2hw` input).
    fn one_block(in_ch: usize, out_ch: usize, stride: usize, hw: usize) -> ModelGraph {
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
        cfg.model(40 + (out_ch + stride) as u64).unwrap()
    }

    fn tiny(seed: u64) -> ModelGraph {
        ReActNetConfig::tiny().model(seed).unwrap()
    }

    fn input(batch: usize, image: usize, seed: u64) -> Tensor {
        let len = batch * 3 * image * image;
        Tensor::from_vec(&[batch, 3, image, image], random_floats(len, 1.0, seed)).unwrap()
    }

    /// The inferred shape of the block's output map, after checking that
    /// the network forwards to finite logits.
    fn block_output(in_ch: usize, out_ch: usize, stride: usize, hw: usize) -> ShapeInfo {
        let m = one_block(in_ch, out_ch, stride, hw);
        let y = m.forward(&input(1, 2 * hw, 5)).unwrap();
        assert_eq!(y.shape(), &[1, 10]);
        assert!(y.data().iter().all(|v| v.is_finite()));
        let shapes = m.spec().shapes().unwrap();
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
            let scalar = m.forward_scalar(&x).unwrap();
            for threads in [1, 4] {
                let engine = Engine::with_threads(threads);
                let fused = m
                    .forward_with(&x, &engine, &mut Scratch::default())
                    .unwrap();
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
        let y = tiny(1).forward(&input(2, 32, 7)).unwrap();
        assert_eq!(y.shape(), &[2, 10]);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn engine_forward_matches_scalar_and_batch() {
        let m = tiny(4);
        let inputs: Vec<Tensor> = (0..3).map(|i| input(1, 32, 11 + i)).collect();
        let engine = Engine::with_threads(4);
        let batched = m.forward_batch(&inputs, &engine).unwrap();
        assert_eq!(batched.len(), 3);
        let mut scratch = Scratch::default();
        for (x, via_batch) in inputs.iter().zip(&batched) {
            let scalar = m.forward_scalar(x).unwrap();
            let fast = m.forward(x).unwrap();
            let with = m.forward_with(x, &engine, &mut scratch).unwrap();
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
        assert!(matches!(c.model(1), Err(BitnnError::InvalidConfig(_))));
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
        // Full model weights are large, so this is the one full-size
        // construction in tests.
        let b = ReActNetConfig::full().model(0).unwrap().storage_breakdown();
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
        let w = reactnet_spec(&ReActNetConfig::tiny()).unwrap().workloads();
        // input + 2 per block + output.
        assert_eq!(w.len(), 1 + 2 * 3 + 1);
        assert_eq!(w[0].category, OpCategory::InputLayer);
        assert_eq!(w.last().unwrap().category, OpCategory::OutputLayer);
    }

    #[test]
    fn workload_geometry_tracks_strides() {
        let w = reactnet_spec(&ReActNetConfig::tiny()).unwrap().workloads();
        // 32x32 input, stem stride 2 -> 16; block1 stride 1 -> 16;
        // block2 stride 2 -> 8; block3 stride 2 -> 4.
        assert_eq!(w[1].oh, 16);
        assert_eq!(w[3].oh, 8);
        assert_eq!(w[5].oh, 4);
    }

    #[test]
    fn deterministic_construction() {
        let a = tiny(5);
        let b = tiny(5);
        assert_eq!(a.conv3_weights(0), b.conv3_weights(0));
        let c = tiny(6);
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
    fn set_conv3_weights_changes_output() {
        let mut m = tiny(3);
        let x = input(1, 32, 9);
        let y0 = m.forward(&x).unwrap();
        let mut w = m.conv3_weights(0).clone();
        for i in 0..w.len() {
            w.set(i, !w.get(i));
        }
        m.set_conv3_weights(0, w).unwrap();
        let y1 = m.forward(&x).unwrap();
        assert_ne!(y0.data(), y1.data());
    }
}
