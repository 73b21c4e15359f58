//! The weight-free layer-graph IR: topology, shape inference, validation.
//!
//! A [`GraphSpec`] is the pure geometry of a model — typed operator nodes
//! with explicit edges and no weights. It is what the v2 model container
//! serializes next to the compressed kernel streams, what the timing
//! simulator derives its [`LayerWorkload`]s from, and what the CLI checks
//! a container against before deploying kernels into a weighted
//! [`crate::graph::ModelGraph`].

use crate::error::{BitnnError, Result};
use crate::model::storage::OpCategory;
use crate::model::workload::LayerWorkload;
use crate::ops::conv::Conv2dParams;

/// One typed operator in the IR. Parameters describe geometry only; the
/// weighted twin of each op lives in [`crate::graph::NodeOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpSpec {
    /// The network input: `[N, channels, image, image]`.
    Input {
        /// Input channels (3 for RGB).
        channels: usize,
        /// Nominal square input side length. Advisory: the executor
        /// accepts any spatial size; shapes here feed validation and the
        /// simulator's workloads.
        image: usize,
    },
    /// The 8-bit quantized stem convolution (3×3, pad 1).
    StemConv {
        /// Output channels.
        out_ch: usize,
        /// Stride (1 or 2).
        stride: usize,
    },
    /// Shifted sign binarization. Its output may only feed [`OpSpec::BinConv`].
    Sign,
    /// A 1-bit convolution over a preceding sign's bits.
    BinConv {
        /// Output channels (filters).
        out_ch: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Per-channel batch normalization.
    BatchNorm,
    /// RPReLU activation.
    Act,
    /// 2×2 average pool, stride 2 (spatial downsample / shortcut pool).
    AvgPool2x2,
    /// Channel duplication `C → 2C` (the widening shortcut).
    ChannelDup,
    /// Element-wise sum of two same-shape inputs.
    Add,
    /// Global average pool `[N, C, H, W] → [N, C]`.
    GlobalAvgPool,
    /// The 8-bit quantized fully-connected classifier.
    Classifier {
        /// Output class count.
        classes: usize,
    },
}

impl OpSpec {
    /// Required input edge count.
    pub fn arity(&self) -> usize {
        match self {
            OpSpec::Input { .. } => 0,
            OpSpec::Add => 2,
            _ => 1,
        }
    }

    /// Short lowercase tag used in error messages and serialization docs.
    pub fn tag(&self) -> &'static str {
        match self {
            OpSpec::Input { .. } => "input",
            OpSpec::StemConv { .. } => "stem_conv",
            OpSpec::Sign => "sign",
            OpSpec::BinConv { .. } => "bin_conv",
            OpSpec::BatchNorm => "batch_norm",
            OpSpec::Act => "act",
            OpSpec::AvgPool2x2 => "avg_pool_2x2",
            OpSpec::ChannelDup => "channel_dup",
            OpSpec::Add => "add",
            OpSpec::GlobalAvgPool => "global_avg_pool",
            OpSpec::Classifier { .. } => "classifier",
        }
    }
}

/// One node of the IR: an op plus its input edges (indices of earlier
/// nodes — the node list is in topological order by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// The operator.
    pub op: OpSpec,
    /// Producer nodes, each strictly smaller than this node's index.
    pub inputs: Vec<usize>,
}

/// Inferred value shape of one node (batch dimension elided).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeInfo {
    /// A `[N, ch, h, w]` feature map.
    Map {
        /// Channels.
        ch: usize,
        /// Height.
        h: usize,
        /// Width.
        w: usize,
    },
    /// A `[N, features]` flat vector (after global pooling).
    Flat {
        /// Feature count.
        features: usize,
    },
}

/// Geometry of one compressible binary 3×3 convolution in a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Node index in the spec.
    pub node: usize,
    /// Output filters.
    pub filters: usize,
    /// Input channels.
    pub channels: usize,
}

/// A validated-on-demand, weight-free model graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSpec {
    /// Architecture tag (`"reactnet"`, `"vggsmall"`, `"resnetlite"`, or a
    /// free-form name for custom graphs).
    pub arch: String,
    /// Nodes in topological order; node 0 is the input.
    pub nodes: Vec<NodeSpec>,
}

impl GraphSpec {
    /// Validate topology and infer every node's shape.
    ///
    /// Checks, in order: non-empty; node 0 is the single [`OpSpec::Input`];
    /// edges point strictly backwards; arity per op; every [`OpSpec::Sign`]
    /// output feeds only binary convolutions and every binary convolution
    /// reads a sign; shape rules per op (matching `Add` operands, channel
    /// continuity, spatial feasibility); every non-terminal node is
    /// consumed.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::InvalidConfig`] describing the first
    /// violation found.
    pub fn shapes(&self) -> Result<Vec<ShapeInfo>> {
        let bad = |msg: String| Err(BitnnError::InvalidConfig(msg));
        if self.nodes.is_empty() {
            return bad("graph has no nodes".into());
        }
        let mut shapes: Vec<ShapeInfo> = Vec::with_capacity(self.nodes.len());
        let mut consumed = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if node.inputs.len() != node.op.arity() {
                return bad(format!(
                    "node {i} ({}): expects {} inputs, has {}",
                    node.op.tag(),
                    node.op.arity(),
                    node.inputs.len()
                ));
            }
            for &src in &node.inputs {
                if src >= i {
                    return bad(format!(
                        "node {i} ({}): input {src} is not an earlier node",
                        node.op.tag()
                    ));
                }
                consumed[src] = true;
                // Sign bits are an internal representation: only a binary
                // conv knows how to consume them.
                if matches!(self.nodes[src].op, OpSpec::Sign)
                    && !matches!(node.op, OpSpec::BinConv { .. })
                {
                    return bad(format!(
                        "node {i} ({}): sign output {src} may only feed a binary conv",
                        node.op.tag()
                    ));
                }
            }
            if matches!(node.op, OpSpec::Input { .. }) != (i == 0) {
                return bad(format!(
                    "node {i}: exactly one input node is allowed and it must be node 0"
                ));
            }
            let map_input = |what: &str| -> Result<(usize, usize, usize)> {
                match shapes[node.inputs[0]] {
                    ShapeInfo::Map { ch, h, w } => Ok((ch, h, w)),
                    ShapeInfo::Flat { .. } => Err(BitnnError::InvalidConfig(format!(
                        "node {i} ({what}): needs a 4-D feature map input"
                    ))),
                }
            };
            let shape = match node.op {
                OpSpec::Input { channels, image } => {
                    if channels == 0 || image == 0 {
                        return bad(format!("node {i} (input): zero channels or image size"));
                    }
                    ShapeInfo::Map {
                        ch: channels,
                        h: image,
                        w: image,
                    }
                }
                OpSpec::StemConv { out_ch, stride } => {
                    let (_, h, w) = map_input("stem_conv")?;
                    if out_ch == 0 || !(1..=2).contains(&stride) {
                        return bad(format!("node {i} (stem_conv): bad out_ch or stride"));
                    }
                    let p = Conv2dParams { stride, pad: 1 };
                    ShapeInfo::Map {
                        ch: out_ch,
                        h: p.out_dim(h, 3),
                        w: p.out_dim(w, 3),
                    }
                }
                OpSpec::Sign => {
                    let (ch, h, w) = map_input("sign")?;
                    ShapeInfo::Map { ch, h, w }
                }
                OpSpec::BinConv {
                    out_ch,
                    kh,
                    kw,
                    stride,
                    pad,
                } => {
                    if !matches!(self.nodes[node.inputs[0]].op, OpSpec::Sign) {
                        return bad(format!(
                            "node {i} (bin_conv): input must be a sign node (got {})",
                            self.nodes[node.inputs[0]].op.tag()
                        ));
                    }
                    let (_, h, w) = map_input("bin_conv")?;
                    if out_ch == 0 || kh == 0 || kw == 0 || stride == 0 {
                        return bad(format!("node {i} (bin_conv): degenerate geometry"));
                    }
                    if h + 2 * pad < kh || w + 2 * pad < kw {
                        return bad(format!(
                            "node {i} (bin_conv): {kh}x{kw} kernel does not fit {h}x{w} input"
                        ));
                    }
                    let p = Conv2dParams { stride, pad };
                    ShapeInfo::Map {
                        ch: out_ch,
                        h: p.out_dim(h, kh),
                        w: p.out_dim(w, kw),
                    }
                }
                OpSpec::BatchNorm | OpSpec::Act => {
                    let (ch, h, w) = map_input(node.op.tag())?;
                    ShapeInfo::Map { ch, h, w }
                }
                OpSpec::AvgPool2x2 => {
                    let (ch, h, w) = map_input("avg_pool_2x2")?;
                    ShapeInfo::Map {
                        ch,
                        h: h.div_ceil(2),
                        w: w.div_ceil(2),
                    }
                }
                OpSpec::ChannelDup => {
                    let (ch, h, w) = map_input("channel_dup")?;
                    ShapeInfo::Map { ch: 2 * ch, h, w }
                }
                OpSpec::Add => {
                    let (a, b) = (shapes[node.inputs[0]], shapes[node.inputs[1]]);
                    if a != b {
                        return bad(format!("node {i} (add): operand shapes {a:?} vs {b:?}"));
                    }
                    if matches!(a, ShapeInfo::Flat { .. }) {
                        return bad(format!("node {i} (add): needs 4-D feature maps"));
                    }
                    a
                }
                OpSpec::GlobalAvgPool => {
                    let (ch, _, _) = map_input("global_avg_pool")?;
                    ShapeInfo::Flat { features: ch }
                }
                OpSpec::Classifier { classes } => {
                    if classes == 0 {
                        return bad(format!("node {i} (classifier): zero classes"));
                    }
                    match shapes[node.inputs[0]] {
                        ShapeInfo::Flat { .. } => {}
                        ShapeInfo::Map { .. } => {
                            return bad(format!("node {i} (classifier): needs a pooled 2-D input"))
                        }
                    }
                    ShapeInfo::Flat { features: classes }
                }
            };
            shapes.push(shape);
        }
        // A sign node whose bits nothing consumes, or any dangling
        // intermediate, is a wiring mistake — reject rather than silently
        // compute dead values.
        for (i, used) in consumed.iter().enumerate().take(self.nodes.len() - 1) {
            if !used {
                return bad(format!(
                    "node {i} ({}): unused (only the final node may be unconsumed)",
                    self.nodes[i].op.tag()
                ));
            }
        }
        Ok(shapes)
    }

    /// [`Self::shapes`] discarding the inferred shapes.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::InvalidConfig`] on the first violation.
    pub fn validate(&self) -> Result<()> {
        self.shapes().map(|_| ())
    }

    /// The compressible binary 3×3 convolutions, in topological order —
    /// the nodes whose kernels the paper's scheme compresses and the v2
    /// container stores streams for.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not validate (call [`Self::validate`] first
    /// on untrusted specs).
    pub fn conv3_geometries(&self) -> Vec<ConvGeometry> {
        let shapes = self.shapes().expect("spec must validate");
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n.op {
                OpSpec::BinConv {
                    out_ch,
                    kh: 3,
                    kw: 3,
                    ..
                } => {
                    let ch = match shapes[n.inputs[0]] {
                        ShapeInfo::Map { ch, .. } => ch,
                        ShapeInfo::Flat { .. } => unreachable!("validated"),
                    };
                    Some(ConvGeometry {
                        node: i,
                        filters: out_ch,
                        channels: ch,
                    })
                }
                _ => None,
            })
            .collect()
    }

    /// Per-layer workload descriptors (geometry for the timing simulator),
    /// walking the same spatial arithmetic as the graph executor. One
    /// entry per stem / binary conv / classifier node; the simulator
    /// synthesizes the element-wise "Others" passes itself.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not validate.
    pub fn workloads(&self) -> Vec<LayerWorkload> {
        let shapes = self.shapes().expect("spec must validate");
        let ch_of = |n: usize| match shapes[n] {
            ShapeInfo::Map { ch, .. } => ch,
            ShapeInfo::Flat { features } => features,
        };
        let mut out = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            match node.op {
                OpSpec::StemConv { out_ch, .. } => {
                    let (h, w) = match shapes[i] {
                        ShapeInfo::Map { h, w, .. } => (h, w),
                        ShapeInfo::Flat { .. } => unreachable!("validated"),
                    };
                    out.push(LayerWorkload {
                        name: "input.conv".into(),
                        category: OpCategory::InputLayer,
                        in_ch: ch_of(node.inputs[0]),
                        out_ch,
                        kh: 3,
                        kw: 3,
                        oh: h,
                        ow: w,
                        precision_bits: 8,
                    });
                }
                OpSpec::BinConv { out_ch, kh, kw, .. } => {
                    let (h, w) = match shapes[i] {
                        ShapeInfo::Map { h, w, .. } => (h, w),
                        ShapeInfo::Flat { .. } => unreachable!("validated"),
                    };
                    let conv1 = kh == 1 && kw == 1;
                    out.push(LayerWorkload {
                        name: format!("node{i}.conv{}", if conv1 { "1x1" } else { "3x3" }),
                        category: if conv1 {
                            OpCategory::Conv1x1
                        } else {
                            OpCategory::Conv3x3
                        },
                        in_ch: ch_of(node.inputs[0]),
                        out_ch,
                        kh,
                        kw,
                        oh: h,
                        ow: w,
                        precision_bits: 1,
                    });
                }
                OpSpec::Classifier { classes } => {
                    out.push(LayerWorkload {
                        name: "output.fc".into(),
                        category: OpCategory::OutputLayer,
                        in_ch: ch_of(node.inputs[0]),
                        out_ch: classes,
                        kh: 1,
                        kw: 1,
                        oh: 1,
                        ow: 1,
                        precision_bits: 8,
                    });
                }
                _ => {}
            }
        }
        out
    }

    /// Structural equality ignoring the advisory input image size — the
    /// check `bnnkc run --image N` uses to confirm a container's topology
    /// matches the model it is about to deploy into.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    pub fn same_topology_ignoring_image(
        &self,
        other: &GraphSpec,
    ) -> std::result::Result<(), String> {
        if self.nodes.len() != other.nodes.len() {
            return Err(format!(
                "{} nodes vs {} nodes",
                self.nodes.len(),
                other.nodes.len()
            ));
        }
        for (i, (a, b)) in self.nodes.iter().zip(&other.nodes).enumerate() {
            if a.inputs != b.inputs {
                return Err(format!("node {i}: edges {:?} vs {:?}", a.inputs, b.inputs));
            }
            let ops_match = match (a.op, b.op) {
                (OpSpec::Input { channels: ca, .. }, OpSpec::Input { channels: cb, .. }) => {
                    ca == cb
                }
                (x, y) => x == y,
            };
            if !ops_match {
                return Err(format!("node {i}: {:?} vs {:?}", a.op, b.op));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// input → stem → sign → conv3x3 → bn → act → gap → classifier.
    fn plain_spec() -> GraphSpec {
        GraphSpec {
            arch: "test".into(),
            nodes: vec![
                NodeSpec {
                    op: OpSpec::Input {
                        channels: 3,
                        image: 16,
                    },
                    inputs: vec![],
                },
                NodeSpec {
                    op: OpSpec::StemConv {
                        out_ch: 8,
                        stride: 2,
                    },
                    inputs: vec![0],
                },
                NodeSpec {
                    op: OpSpec::Sign,
                    inputs: vec![1],
                },
                NodeSpec {
                    op: OpSpec::BinConv {
                        out_ch: 8,
                        kh: 3,
                        kw: 3,
                        stride: 1,
                        pad: 1,
                    },
                    inputs: vec![2],
                },
                NodeSpec {
                    op: OpSpec::BatchNorm,
                    inputs: vec![3],
                },
                NodeSpec {
                    op: OpSpec::Act,
                    inputs: vec![4],
                },
                NodeSpec {
                    op: OpSpec::GlobalAvgPool,
                    inputs: vec![5],
                },
                NodeSpec {
                    op: OpSpec::Classifier { classes: 10 },
                    inputs: vec![6],
                },
            ],
        }
    }

    #[test]
    fn plain_spec_validates_and_infers_shapes() {
        let s = plain_spec();
        let shapes = s.shapes().unwrap();
        assert_eq!(shapes[1], ShapeInfo::Map { ch: 8, h: 8, w: 8 });
        assert_eq!(shapes[3], ShapeInfo::Map { ch: 8, h: 8, w: 8 });
        assert_eq!(*shapes.last().unwrap(), ShapeInfo::Flat { features: 10 });
    }

    #[test]
    fn conv3_geometries_and_workloads() {
        let s = plain_spec();
        let convs = s.conv3_geometries();
        assert_eq!(convs.len(), 1);
        assert_eq!((convs[0].filters, convs[0].channels), (8, 8));
        let wls = s.workloads();
        assert_eq!(wls.len(), 3);
        assert_eq!(wls[0].category, OpCategory::InputLayer);
        assert_eq!(wls[1].category, OpCategory::Conv3x3);
        assert_eq!(wls[2].category, OpCategory::OutputLayer);
    }

    /// The simulator geometry of the paper's full ReActNet (224×224,
    /// MobileNet schedule), pinned entry by entry: the 224→112 stem, each
    /// block's 3×3 then 1×1 stage, and the 1024→1000 classifier.
    #[test]
    fn full_reactnet_workloads_are_pinned() {
        use crate::graph::arch::reactnet_spec;
        use crate::model::ReActNetConfig;
        use OpCategory::{Conv1x1 as C1, Conv3x3 as C3, InputLayer, OutputLayer};
        #[rustfmt::skip]
        let want: [(OpCategory, usize, usize, usize, usize, usize); 28] = [
            (InputLayer, 3, 32, 3, 112, 8),
            (C3, 32, 32, 3, 112, 1), (C1, 32, 64, 1, 112, 1),
            (C3, 64, 64, 3, 56, 1), (C1, 64, 128, 1, 56, 1),
            (C3, 128, 128, 3, 56, 1), (C1, 128, 128, 1, 56, 1),
            (C3, 128, 128, 3, 28, 1), (C1, 128, 256, 1, 28, 1),
            (C3, 256, 256, 3, 28, 1), (C1, 256, 256, 1, 28, 1),
            (C3, 256, 256, 3, 14, 1), (C1, 256, 512, 1, 14, 1),
            (C3, 512, 512, 3, 14, 1), (C1, 512, 512, 1, 14, 1),
            (C3, 512, 512, 3, 14, 1), (C1, 512, 512, 1, 14, 1),
            (C3, 512, 512, 3, 14, 1), (C1, 512, 512, 1, 14, 1),
            (C3, 512, 512, 3, 14, 1), (C1, 512, 512, 1, 14, 1),
            (C3, 512, 512, 3, 14, 1), (C1, 512, 512, 1, 14, 1),
            (C3, 512, 512, 3, 7, 1), (C1, 512, 1024, 1, 7, 1),
            (C3, 1024, 1024, 3, 7, 1), (C1, 1024, 1024, 1, 7, 1),
            (OutputLayer, 1024, 1000, 1, 1, 8),
        ];
        let got: Vec<_> = reactnet_spec(&ReActNetConfig::full())
            .unwrap()
            .workloads()
            .iter()
            .map(|w| {
                assert_eq!((w.kw, w.ow), (w.kh, w.oh), "{} is square", w.name);
                (w.category, w.in_ch, w.out_ch, w.kh, w.oh, w.precision_bits)
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sign_must_feed_a_conv() {
        let mut s = plain_spec();
        s.nodes[4].inputs = vec![2]; // batch-norm reading sign bits
        assert!(s.validate().is_err());
    }

    #[test]
    fn conv_must_read_a_sign() {
        let mut s = plain_spec();
        s.nodes[3].inputs = vec![1];
        // Node 2 (the sign) becomes dangling AND the conv reads a non-sign;
        // either way this must fail.
        assert!(s.validate().is_err());
    }

    #[test]
    fn add_shape_mismatch_rejected() {
        let mut s = plain_spec();
        // act(5) + stem(1) have different spatial sizes only if strides
        // differ; here they match (both 8x8 ch8), so build a genuine
        // mismatch via ChannelDup.
        s.nodes.insert(
            6,
            NodeSpec {
                op: OpSpec::ChannelDup,
                inputs: vec![1],
            },
        );
        s.nodes.insert(
            7,
            NodeSpec {
                op: OpSpec::Add,
                inputs: vec![5, 6],
            },
        );
        // Rewire pool onto the add.
        s.nodes[8].inputs = vec![7];
        assert!(s.validate().is_err());
    }

    #[test]
    fn dangling_node_rejected() {
        let mut s = plain_spec();
        s.nodes.insert(
            6,
            NodeSpec {
                op: OpSpec::AvgPool2x2,
                inputs: vec![5],
            },
        );
        // Old pool/classifier indices shift by one; keep their original
        // sources so node 6 dangles.
        s.nodes[7].inputs = vec![5];
        s.nodes[8].inputs = vec![7];
        assert!(s.validate().is_err());
    }

    #[test]
    fn topology_comparison_ignores_image() {
        let a = plain_spec();
        let mut b = plain_spec();
        b.nodes[0].op = OpSpec::Input {
            channels: 3,
            image: 64,
        };
        assert!(a.same_topology_ignoring_image(&b).is_ok());
        b.nodes[0].op = OpSpec::Input {
            channels: 1,
            image: 64,
        };
        assert!(a.same_topology_ignoring_image(&b).is_err());
        let mut c = plain_spec();
        c.nodes[3].op = OpSpec::BinConv {
            out_ch: 16,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        assert!(a.same_topology_ignoring_image(&c).is_err());
    }
}
