//! Built-in architecture families and generic weight attachment.
//!
//! Three BNN topologies ship as data, all flowing through the same graph
//! IR, executor, compression pipeline, and simulator:
//!
//! * **`reactnet`** — the paper's 13-block MobileNet-backbone ReActNet
//!   ([`reactnet_spec`], also behind [`ReActNetConfig::model`]);
//! * **`vggsmall`** — a VGG-Small-style plain stack: five binary 3×3
//!   convolutions with batch-norm + RPReLU between average-pool
//!   downsamples, no shortcuts;
//! * **`resnetlite`** — a ResNet-style stack of residual binary 3×3
//!   blocks exercising all three shortcut forms (identity, stride-2
//!   average pool, channel duplication).
//!
//! Every family takes a channel `scale` (the `bnnkc --scale` flag): each
//! base channel count is multiplied and clamped to at least 8, exactly as
//! [`ReActNetConfig::scaled`] does.

use super::spec::{ConvGeometry, GraphSpec, NodeSpec, OpSpec};
use super::{GraphNode, ModelGraph, NodeOp};
use crate::engine::Engine;
use crate::error::{BitnnError, Result};
use crate::layers::{BatchNorm, BinConv2d, QuantConv2d, QuantLinear, RPReLU, RSign};
use crate::model::ReActNetConfig;
use crate::ops::conv::Conv2dParams;
use crate::pool::WorkerPool;
use crate::tensor::{BitTensor, Tensor};
use crate::weightgen::{random_floats, random_packed_kernel, SeqDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, PoisonError};

/// A built-in architecture family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// The paper's ReActNet (13 basic blocks, two-stage shortcuts).
    ReActNet,
    /// VGG-Small-style plain stack (no shortcuts).
    VggSmall,
    /// ResNet-style residual stack of binary 3×3 blocks.
    ResNetLite,
}

impl Arch {
    /// Every built-in family, in CLI listing order.
    pub const ALL: [Arch; 3] = [Arch::ReActNet, Arch::VggSmall, Arch::ResNetLite];

    /// The lowercase tag used by the CLI and stored in v2 containers.
    pub fn name(self) -> &'static str {
        match self {
            Arch::ReActNet => "reactnet",
            Arch::VggSmall => "vggsmall",
            Arch::ResNetLite => "resnetlite",
        }
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Arch {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        Arch::ALL
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown architecture `{s}` (known: {})",
                    Arch::ALL.map(Arch::name).join(", ")
                )
            })
    }
}

/// Scale a base channel count: multiply, round, clamp to at least 8 —
/// the same formula as [`ReActNetConfig::scaled`].
fn ch(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(8)
}

fn check_scale(scale: f64) -> Result<()> {
    if !scale.is_finite() || scale <= 0.0 {
        return Err(BitnnError::InvalidConfig("scale must be positive".into()));
    }
    Ok(())
}

/// The weight-free spec of a built-in family at a channel scale and
/// input size. This is what `bnnkc compress --arch` samples kernels for
/// and serializes into the v2 container.
///
/// # Errors
///
/// Returns [`BitnnError::InvalidConfig`] for a non-positive scale, a
/// zero image, or a scale that breaks the family's invariants.
pub fn build_spec(arch: Arch, scale: f64, image: usize) -> Result<GraphSpec> {
    check_scale(scale)?;
    if image == 0 {
        return Err(BitnnError::InvalidConfig("image size must be >= 1".into()));
    }
    let spec = match arch {
        Arch::ReActNet => {
            let mut cfg = ReActNetConfig::scaled(scale).map_err(BitnnError::InvalidConfig)?;
            cfg.image_size = image;
            reactnet_spec(&cfg)?
        }
        Arch::VggSmall => vggsmall_spec(scale, image),
        Arch::ResNetLite => resnetlite_spec(scale, image),
    };
    spec.validate()?;
    Ok(spec)
}

/// Build a weighted, executable model of a built-in family with
/// deterministic synthetic weights: [`attach_weights`] over
/// [`build_spec`].
///
/// # Errors
///
/// Returns [`BitnnError::InvalidConfig`] under the same conditions as
/// [`build_spec`].
pub fn build_model(arch: Arch, scale: f64, image: usize, seed: u64) -> Result<ModelGraph> {
    attach_weights(&build_spec(arch, scale, image)?, seed)
}

/// Attach deterministic synthetic weights to a weight-free spec,
/// producing an executable [`ModelGraph`]. Binary 3×3 kernels are sampled
/// from the calibrated per-block bit-sequence distributions (paper
/// Table II, cycled every 13 convolutions, see [`Conv3Slot::sample`]);
/// the other binary kernels are uniform, drawn straight into lane words
/// ([`random_packed_kernel`]); the 8-bit stem/classifier get uniform float
/// weights; batch-norms carry a mild fan-in-scaled variation around
/// identity. The nodes are built on every core ([`Engine::default`]);
/// the weights are the same at any thread count.
///
/// # Errors
///
/// Returns [`BitnnError::InvalidConfig`] if the spec does not validate.
pub fn attach_weights(spec: &GraphSpec, seed: u64) -> Result<ModelGraph> {
    attach_weights_with(spec, seed, &Engine::default(), |slot| Ok(slot.sample()))
}

/// One compressible 3×3 convolution of a spec, as handed to the kernel
/// provider of [`attach_weights_with`].
#[derive(Debug, Clone, Copy)]
pub struct Conv3Slot {
    /// Position among the spec's compressible convolutions — the index
    /// of its record in a model container.
    pub index: usize,
    /// Output filters.
    pub filters: usize,
    /// Input channels.
    pub channels: usize,
    /// Stride and padding.
    pub params: Conv2dParams,
    /// Per-node seed salt of the synthetic sampler.
    salt: u64,
}

impl Conv3Slot {
    /// The synthetic layer [`attach_weights`] puts in this slot: a kernel
    /// sampled from block `index % 13 + 1`'s calibrated distribution.
    pub fn sample(&self) -> BinConv2d {
        let mut rng = StdRng::seed_from_u64(self.salt);
        let kernel = SeqDistribution::for_block(self.index % 13 + 1, 0).sample_kernel(
            self.filters,
            self.channels,
            &mut rng,
        );
        BinConv2d::new(kernel, self.params)
    }
}

/// [`attach_weights`] with the compressible 3×3 convolutions supplied by
/// `conv3` instead of the sampler: every other layer gets the same
/// synthetic weights, and each 3×3 slot gets whatever layer the provider
/// builds for it — e.g. one decoded straight from a container record.
///
/// Each node's weights are one job: every synthetic node draws from its
/// own seed salt and every slot's provider call stands alone, so under a
/// multi-threaded `engine` the jobs run on the worker pool, largest
/// estimated cost first, and the nodes are assembled in spec order
/// afterwards. The weights do not depend on the thread count. A
/// single-threaded engine (or a spec too small to split, see
/// [`ExecPolicy::min_work`](crate::exec::ExecPolicy::min_work)) runs
/// every job on the caller and enlists no pool worker.
///
/// # Errors
///
/// Returns [`BitnnError::InvalidConfig`] if the spec does not validate or
/// a provided layer does not fit its slot, and passes on the provider's
/// own errors. When several nodes fail, the error is the first failing
/// node's in spec order, at any thread count.
///
/// # Panics
///
/// A panic in the provider is re-raised on the caller.
pub fn attach_weights_with<E, F>(
    spec: &GraphSpec,
    seed: u64,
    engine: &Engine,
    conv3: F,
) -> std::result::Result<ModelGraph, E>
where
    E: From<BitnnError> + Send,
    F: Fn(&Conv3Slot) -> std::result::Result<BinConv2d, E> + Sync,
{
    let jobs = node_jobs(spec, seed)?;
    let threads = engine.policy().effective_threads(total_cost(&jobs));
    attach_on(WorkerPool::global(), threads, spec, &jobs, &conv3)
}

/// One node's weight-building job: its op and what its build reads of
/// the rest of the spec.
#[derive(Debug, Clone, Copy)]
struct NodeJob {
    op: OpSpec,
    /// Channels (or features) of the node's first input, 0 for none.
    in_ch: usize,
    /// Seed salt of the node's synthetic weights.
    salt: u64,
    /// Position among the spec's compressible 3×3 convolutions.
    conv3: Option<usize>,
}

/// Every node's job, in spec order.
fn node_jobs(spec: &GraphSpec, seed: u64) -> Result<Vec<NodeJob>> {
    use super::spec::ShapeInfo;
    let shapes = spec.shapes()?;
    let mut conv3_seen = 0usize;
    Ok(spec
        .nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let in_ch = match node.inputs.first().map(|&s| shapes[s]) {
                Some(ShapeInfo::Map { ch, .. }) => ch,
                Some(ShapeInfo::Flat { features }) => features,
                None => 0,
            };
            let conv3 = matches!(node.op, OpSpec::BinConv { kh: 3, kw: 3, .. }).then(|| {
                conv3_seen += 1;
                conv3_seen - 1
            });
            NodeJob {
                op: node.op,
                in_ch,
                salt: seed ^ ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                conv3,
            }
        })
        .collect())
}

/// The whole spec's estimated build cost.
fn total_cost(jobs: &[NodeJob]) -> u64 {
    jobs.iter().map(NodeJob::cost).sum()
}

impl NodeJob {
    /// Estimated build time, in the ~0.5 ns lane-word operations
    /// [`ExecPolicy::min_work`](crate::exec::ExecPolicy::min_work)
    /// counts: a 3×3 record decodes at about 0.5 ns per bit, a synthetic
    /// binary kernel draws one `u64` per bit (about 2 ns), and each
    /// synthetic float costs a few ns (the 8-bit layers quantize theirs
    /// too). The job order and the thread count depend on it, never the
    /// weights.
    fn cost(&self) -> u64 {
        let n = |x: usize| x as u64;
        match self.op {
            OpSpec::BinConv { out_ch, kh, kw, .. } => {
                let bits = n(out_ch * self.in_ch * kh * kw);
                if self.conv3.is_some() {
                    bits
                } else {
                    4 * bits
                }
            }
            OpSpec::StemConv { out_ch, .. } => 8 * n(out_ch * self.in_ch * 9),
            OpSpec::Classifier { classes } => 8 * n(classes * self.in_ch),
            OpSpec::Sign | OpSpec::BatchNorm | OpSpec::Act => 16 * n(self.in_ch),
            _ => 0,
        }
    }

    /// Build the node's weighted op.
    fn build<E, F>(&self, conv3: &F) -> std::result::Result<NodeOp, E>
    where
        E: From<BitnnError>,
        F: Fn(&Conv3Slot) -> std::result::Result<BinConv2d, E>,
    {
        let (in_ch, salt) = (self.in_ch, self.salt);
        Ok(match self.op {
            OpSpec::Input { channels, image } => NodeOp::Input { channels, image },
            OpSpec::StemConv { out_ch, stride } => {
                let w = Tensor::from_vec(
                    &[out_ch, in_ch, 3, 3],
                    random_floats(out_ch * in_ch * 9, 1.0, salt),
                )
                .expect("consistent stem shape");
                NodeOp::StemConv(QuantConv2d::from_float(&w, Conv2dParams { stride, pad: 1 }))
            }
            OpSpec::Sign => NodeOp::Sign(RSign::new(small_params(in_ch, salt, 0.05))),
            OpSpec::BinConv {
                out_ch,
                kh,
                kw,
                stride,
                pad,
            } => {
                let params = Conv2dParams { stride, pad };
                let Some(index) = self.conv3 else {
                    return Ok(NodeOp::BinConv(BinConv2d::from_packed(
                        random_packed_kernel([out_ch, in_ch, kh, kw], salt),
                        params,
                    )));
                };
                let slot = Conv3Slot {
                    index,
                    filters: out_ch,
                    channels: in_ch,
                    params,
                    salt,
                };
                let conv = conv3(&slot)?;
                let got = (conv.filters(), conv.in_channels(), conv.kernel_size());
                if got != (out_ch, in_ch, (3, 3)) || conv.params() != params {
                    return Err(BitnnError::InvalidConfig(format!(
                        "conv {index}: provided {got:?} layer does not fit the {out_ch}x{in_ch} 3x3 slot"
                    ))
                    .into());
                }
                NodeOp::BinConv(conv)
            }
            OpSpec::BatchNorm => NodeOp::BatchNorm(varied_bn(in_ch, salt)),
            OpSpec::Act => NodeOp::Act(RPReLU::new(
                small_params(in_ch, salt ^ 1, 0.05),
                vec![0.25; in_ch],
                small_params(in_ch, salt ^ 2, 0.05),
            )),
            OpSpec::AvgPool2x2 => NodeOp::AvgPool2x2,
            OpSpec::ChannelDup => NodeOp::ChannelDup,
            OpSpec::Add => NodeOp::Add,
            OpSpec::GlobalAvgPool => NodeOp::GlobalAvgPool,
            OpSpec::Classifier { classes } => NodeOp::Classifier(QuantLinear::from_float(
                &random_floats(classes * in_ch, 0.5, salt),
                classes,
                in_ch,
            )),
        })
    }
}

/// Build every job's op on the caller and up to `threads - 1` workers
/// of `pool` (all on the caller when `threads <= 1`), largest estimated
/// job first, then assemble the graph in spec order.
fn attach_on<E, F>(
    pool: &WorkerPool,
    threads: usize,
    spec: &GraphSpec,
    jobs: &[NodeJob],
    conv3: &F,
) -> std::result::Result<ModelGraph, E>
where
    E: From<BitnnError> + Send,
    F: Fn(&Conv3Slot) -> std::result::Result<BinConv2d, E> + Sync,
{
    // A stable sort: equal costs keep spec order.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(jobs[i].cost()));
    let built: Vec<Mutex<Option<std::result::Result<NodeOp, E>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    pool.dispatch(order.len(), threads.saturating_sub(1), &|c| {
        let i = order[c];
        let op = jobs[i].build(conv3);
        *built[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(op);
    });
    // Every job ran (a panic would have been re-raised above), so the
    // error is the first failing node's in spec order at any thread
    // count.
    let ops: Vec<NodeOp> = built
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every node job ran")
        })
        .collect::<std::result::Result<_, E>>()?;
    let nodes = spec
        .nodes
        .iter()
        .zip(ops)
        .enumerate()
        .map(|(i, (node, op))| GraphNode {
            name: format!("n{i}.{}", node.op.tag()),
            op,
            inputs: node.inputs.clone(),
        })
        .collect();
    Ok(ModelGraph::new(spec.arch.clone(), nodes)?)
}

/// Small deterministic per-channel parameters in `[-bound, bound]`.
fn small_params(channels: usize, seed: u64, bound: f32) -> Vec<f32> {
    random_floats(channels, bound, seed)
}

/// A batch-norm with mild per-channel variation around identity, so the
/// synthetic network's activations neither explode nor collapse.
fn varied_bn(channels: usize, seed: u64) -> BatchNorm {
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

/// Sample the calibrated kernel of every compressible 3×3 convolution of
/// a spec — the kernels `bnnkc compress` encodes and `bnnkc verify`
/// regenerates. Seeding is stable per conv index (and matches the
/// pre-graph CLI exactly for the 13-block ReActNet schedule, so v1
/// containers keep verifying).
///
/// # Errors
///
/// Returns [`BitnnError::InvalidConfig`] if the spec does not validate.
pub fn sample_conv3_kernels(spec: &GraphSpec, seed: u64) -> Result<Vec<BitTensor>> {
    spec.validate()?;
    Ok(spec
        .conv3_geometries()
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let block = i % 13 + 1;
            let mut rng = StdRng::seed_from_u64(seed ^ (i as u64 + 1));
            SeqDistribution::for_block(block, 0).sample_kernel(g.filters, g.channels, &mut rng)
        })
        .collect())
}

/// Append a spec node, returning its id.
fn push_spec(nodes: &mut Vec<NodeSpec>, op: OpSpec, inputs: &[usize]) -> usize {
    nodes.push(NodeSpec {
        op,
        inputs: inputs.to_vec(),
    });
    nodes.len() - 1
}

/// The ReActNet graph topology for a configuration: the stem, each
/// block's 3×3 stage (pooled identity shortcut at stride 2) and 1×1 stage
/// (duplicated shortcut when the channels double), then the pool and
/// classifier. [`ReActNetConfig::model`] is this spec under
/// [`attach_weights`]; on its own it lets a container be validated
/// without constructing any weights.
///
/// # Errors
///
/// Returns [`BitnnError::InvalidConfig`] if the configuration fails
/// [`ReActNetConfig::validate`].
pub fn reactnet_spec(cfg: &ReActNetConfig) -> Result<GraphSpec> {
    cfg.validate()
        .map_err(|e| BitnnError::InvalidConfig(format!("invalid ReActNet config: {e}")))?;
    let mut nodes = vec![NodeSpec {
        op: OpSpec::Input {
            channels: cfg.input_channels,
            image: cfg.image_size,
        },
        inputs: vec![],
    }];
    let mut x = push_spec(
        &mut nodes,
        OpSpec::StemConv {
            out_ch: cfg.stem_channels,
            stride: 2,
        },
        &[0],
    );
    for spec in &cfg.blocks {
        // 3x3 stage.
        let sign = push_spec(&mut nodes, OpSpec::Sign, &[x]);
        let conv = push_spec(
            &mut nodes,
            OpSpec::BinConv {
                out_ch: spec.in_ch,
                kh: 3,
                kw: 3,
                stride: spec.stride,
                pad: 1,
            },
            &[sign],
        );
        let bn = push_spec(&mut nodes, OpSpec::BatchNorm, &[conv]);
        let sc = if spec.stride == 2 {
            push_spec(&mut nodes, OpSpec::AvgPool2x2, &[x])
        } else {
            x
        };
        let addn = push_spec(&mut nodes, OpSpec::Add, &[bn, sc]);
        let mid = push_spec(&mut nodes, OpSpec::Act, &[addn]);
        // 1x1 stage.
        let sign = push_spec(&mut nodes, OpSpec::Sign, &[mid]);
        let conv = push_spec(
            &mut nodes,
            OpSpec::BinConv {
                out_ch: spec.out_ch,
                kh: 1,
                kw: 1,
                stride: 1,
                pad: 0,
            },
            &[sign],
        );
        let bn = push_spec(&mut nodes, OpSpec::BatchNorm, &[conv]);
        let sc = if spec.out_ch == 2 * spec.in_ch {
            push_spec(&mut nodes, OpSpec::ChannelDup, &[mid])
        } else {
            mid
        };
        let addn = push_spec(&mut nodes, OpSpec::Add, &[bn, sc]);
        x = push_spec(&mut nodes, OpSpec::Act, &[addn]);
    }
    let gap = push_spec(&mut nodes, OpSpec::GlobalAvgPool, &[x]);
    push_spec(
        &mut nodes,
        OpSpec::Classifier {
            classes: cfg.num_classes,
        },
        &[gap],
    );
    Ok(GraphSpec {
        arch: Arch::ReActNet.name().into(),
        nodes,
    })
}

/// VGG-Small-style plain stack: base channels 128/256/512, five binary
/// 3×3 convolutions, average-pool downsamples, 10 classes.
fn vggsmall_spec(scale: f64, image: usize) -> GraphSpec {
    let (c1, c2, c3) = (ch(128, scale), ch(256, scale), ch(512, scale));
    let mut nodes = vec![NodeSpec {
        op: OpSpec::Input { channels: 3, image },
        inputs: vec![],
    }];
    let mut x = push_spec(
        &mut nodes,
        OpSpec::StemConv {
            out_ch: c1,
            stride: 2,
        },
        &[0],
    );
    let conv_bn_act = |nodes: &mut Vec<NodeSpec>, x: usize, out_ch: usize| -> usize {
        let sign = push_spec(nodes, OpSpec::Sign, &[x]);
        let conv = push_spec(
            nodes,
            OpSpec::BinConv {
                out_ch,
                kh: 3,
                kw: 3,
                stride: 1,
                pad: 1,
            },
            &[sign],
        );
        let bn = push_spec(nodes, OpSpec::BatchNorm, &[conv]);
        push_spec(nodes, OpSpec::Act, &[bn])
    };
    x = conv_bn_act(&mut nodes, x, c1);
    x = conv_bn_act(&mut nodes, x, c2);
    x = push_spec(&mut nodes, OpSpec::AvgPool2x2, &[x]);
    x = conv_bn_act(&mut nodes, x, c2);
    x = conv_bn_act(&mut nodes, x, c3);
    x = push_spec(&mut nodes, OpSpec::AvgPool2x2, &[x]);
    x = conv_bn_act(&mut nodes, x, c3);
    let gap = push_spec(&mut nodes, OpSpec::GlobalAvgPool, &[x]);
    push_spec(&mut nodes, OpSpec::Classifier { classes: 10 }, &[gap]);
    GraphSpec {
        arch: Arch::VggSmall.name().into(),
        nodes,
    }
}

/// ResNet-style residual stack: base channels 64/128/256, eight binary
/// 3×3 blocks covering the identity, stride-2 pool, and channel-dup
/// shortcuts, 10 classes.
fn resnetlite_spec(scale: f64, image: usize) -> GraphSpec {
    // Widening is by exact channel duplication, so the deeper stages are
    // pinned to 2x and 4x the (clamped) base rather than independently
    // clamped base-128/base-256 counts.
    let c1 = ch(64, scale);
    let mut nodes = vec![NodeSpec {
        op: OpSpec::Input { channels: 3, image },
        inputs: vec![],
    }];
    let mut x = push_spec(
        &mut nodes,
        OpSpec::StemConv {
            out_ch: c1,
            stride: 2,
        },
        &[0],
    );
    // One residual block: sign → conv3x3 → bn → (+shortcut) → act.
    // `widen` doubles channels via the duplication shortcut (stride 1);
    // `stride` 2 pools the identity.
    let block =
        |nodes: &mut Vec<NodeSpec>, x: usize, in_ch: usize, stride: usize, widen: bool| -> usize {
            let out_ch = if widen { 2 * in_ch } else { in_ch };
            let sign = push_spec(nodes, OpSpec::Sign, &[x]);
            let conv = push_spec(
                nodes,
                OpSpec::BinConv {
                    out_ch,
                    kh: 3,
                    kw: 3,
                    stride,
                    pad: 1,
                },
                &[sign],
            );
            let bn = push_spec(nodes, OpSpec::BatchNorm, &[conv]);
            let sc = if widen {
                push_spec(nodes, OpSpec::ChannelDup, &[x])
            } else if stride == 2 {
                push_spec(nodes, OpSpec::AvgPool2x2, &[x])
            } else {
                x
            };
            let addn = push_spec(nodes, OpSpec::Add, &[bn, sc]);
            push_spec(nodes, OpSpec::Act, &[addn])
        };
    x = block(&mut nodes, x, c1, 1, false);
    x = block(&mut nodes, x, c1, 1, false);
    x = block(&mut nodes, x, c1, 1, true); // c1 -> 2*c1
    let mid = 2 * c1;
    x = block(&mut nodes, x, mid, 2, false);
    x = block(&mut nodes, x, mid, 1, false);
    x = block(&mut nodes, x, mid, 1, true); // 2*c1 -> 4*c1
    let wide = 2 * mid;
    x = block(&mut nodes, x, wide, 2, false);
    x = block(&mut nodes, x, wide, 1, false);
    let gap = push_spec(&mut nodes, OpSpec::GlobalAvgPool, &[x]);
    push_spec(&mut nodes, OpSpec::Classifier { classes: 10 }, &[gap]);
    GraphSpec {
        arch: Arch::ResNetLite.name().into(),
        nodes,
    }
}

/// Auto-upgrade path for v1 model containers (which carry no topology):
/// reconstruct the scaled ReActNet schedule from the per-kernel
/// `(filters, channels)` dimensions exactly as the pre-graph CLI did —
/// strides follow the full 13-block schedule, each block's output
/// channels are the next kernel's input channels.
///
/// # Errors
///
/// Returns [`BitnnError::InvalidConfig`] when the kernel list cannot be
/// a ReActNet schedule (wrong count, non-square kernels, broken channel
/// chain).
pub fn reactnet_config_from_kernels(
    dims: &[(usize, usize)],
    image: usize,
) -> Result<ReActNetConfig> {
    let full = ReActNetConfig::full();
    if dims.len() != full.blocks.len() {
        return Err(BitnnError::InvalidConfig(format!(
            "container holds {} kernels; the ReActNet schedule needs {}",
            dims.len(),
            full.blocks.len()
        )));
    }
    let mut cfg = full;
    cfg.image_size = image;
    for (i, &(filters, channels)) in dims.iter().enumerate() {
        if filters != channels {
            return Err(BitnnError::InvalidConfig(format!(
                "kernel {}: {filters}x{channels} is not square; 3x3 block kernels are CxC",
                i + 1
            )));
        }
        cfg.blocks[i].in_ch = filters;
        cfg.blocks[i].out_ch = if i + 1 < dims.len() {
            dims[i + 1].0
        } else {
            filters
        };
    }
    cfg.stem_channels = dims[0].0;
    cfg.validate().map_err(|e| {
        BitnnError::InvalidConfig(format!(
            "container geometry is not a ReActNet schedule: {e}"
        ))
    })?;
    Ok(cfg)
}

/// Convenience: the compressible conv geometries of a built-in family.
///
/// # Errors
///
/// Same conditions as [`build_spec`].
pub fn conv3_geometries(arch: Arch, scale: f64, image: usize) -> Result<Vec<ConvGeometry>> {
    Ok(build_spec(arch, scale, image)?.conv3_geometries())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Scratch;
    use crate::pack::PackedKernel;

    #[test]
    fn arch_parses_and_prints() {
        for a in Arch::ALL {
            assert_eq!(a.name().parse::<Arch>().unwrap(), a);
        }
        assert!("mobilenet".parse::<Arch>().is_err());
    }

    #[test]
    fn built_in_specs_validate_and_have_conv3s() {
        for a in Arch::ALL {
            let spec = build_spec(a, 0.0625, 32).unwrap();
            spec.validate().unwrap();
            let convs = spec.conv3_geometries();
            assert!(!convs.is_empty(), "{a} has no compressible convs");
            match a {
                Arch::ReActNet => assert_eq!(convs.len(), 13),
                Arch::VggSmall => assert_eq!(convs.len(), 5),
                Arch::ResNetLite => assert_eq!(convs.len(), 8),
            }
        }
    }

    #[test]
    fn reactnet_spec_matches_the_model_graph() {
        let cfg = ReActNetConfig::tiny();
        let spec = reactnet_spec(&cfg).unwrap();
        let model = cfg.model(3).unwrap();
        assert_eq!(model.spec(), &spec);
    }

    #[test]
    fn non_reactnet_models_execute_bit_exactly() {
        for a in [Arch::VggSmall, Arch::ResNetLite] {
            let m = build_model(a, 0.0625, 16, 5).unwrap();
            let x =
                Tensor::from_vec(&[2, 3, 16, 16], random_floats(2 * 3 * 16 * 16, 1.0, 9)).unwrap();
            let scalar = m.forward_scalar(&x).unwrap();
            let engine = Engine::with_threads(2);
            let fast = m
                .forward_with(&x, &engine, &mut Scratch::default())
                .unwrap();
            assert_eq!(scalar.data(), fast.data(), "{a}");
            assert_eq!(scalar.shape(), &[2, 10]);
        }
    }

    #[test]
    fn sample_kernels_match_legacy_reactnet_seeding() {
        // The pre-graph CLI sampled block kernels with
        // `StdRng::seed_from_u64(seed ^ block)` and
        // `SeqDistribution::for_block(block, 0)`; v1 containers depend on
        // this staying stable.
        let spec = build_spec(Arch::ReActNet, 0.125, 224).unwrap();
        let kernels = sample_conv3_kernels(&spec, 7).unwrap();
        assert_eq!(kernels.len(), 13);
        let cfg = ReActNetConfig::scaled(0.125).unwrap();
        for (i, spec_block) in cfg.blocks.iter().enumerate() {
            let block = i + 1;
            let mut rng = StdRng::seed_from_u64(7 ^ block as u64);
            let legacy = SeqDistribution::for_block(block, 0).sample_kernel(
                spec_block.in_ch,
                spec_block.in_ch,
                &mut rng,
            );
            assert_eq!(kernels[i], legacy, "block {block}");
        }
    }

    #[test]
    fn v1_fallback_reconstructs_scaled_schedules() {
        let cfg = ReActNetConfig::scaled(0.125).unwrap();
        let dims: Vec<(usize, usize)> = cfg.blocks.iter().map(|b| (b.in_ch, b.in_ch)).collect();
        let rebuilt = reactnet_config_from_kernels(&dims, 32).unwrap();
        assert_eq!(rebuilt.blocks, cfg.blocks);
        assert_eq!(rebuilt.stem_channels, cfg.stem_channels);
        assert!(reactnet_config_from_kernels(&dims[..5], 32).is_err());
        let mut bad = dims.clone();
        bad[0] = (8, 16);
        assert!(reactnet_config_from_kernels(&bad, 32).is_err());
    }

    /// [`attach_on`] with up to four threads on `pool`.
    fn attach_pooled<E, F>(
        pool: &WorkerPool,
        spec: &GraphSpec,
        seed: u64,
        conv3: F,
    ) -> std::result::Result<ModelGraph, E>
    where
        E: From<BitnnError> + Send,
        F: Fn(&Conv3Slot) -> std::result::Result<BinConv2d, E> + Sync,
    {
        attach_on(pool, 4, spec, &node_jobs(spec, seed)?, &conv3)
    }

    #[test]
    fn pooled_attach_builds_the_inline_weights() {
        // A forced 3-worker pool, so the jobs really spread over threads
        // even on a 1-core host.
        let pool = WorkerPool::with_workers(3, 3);
        let inline = Engine::single_threaded();
        for arch in Arch::ALL {
            let spec = build_spec(arch, 0.125, 32).unwrap();
            // The sampling provider, and one that builds each slot from
            // ready lane words the way a container deploy does.
            let packed: Vec<PackedKernel> = sample_conv3_kernels(&spec, 3)
                .unwrap()
                .iter()
                .map(|k| PackedKernel::pack(k).unwrap())
                .collect();
            let sampled = |slot: &Conv3Slot| Ok::<_, BitnnError>(slot.sample());
            let decoded = |slot: &Conv3Slot| {
                Ok::<_, BitnnError>(BinConv2d::from_packed(
                    packed[slot.index].clone(),
                    slot.params,
                ))
            };
            let pairs = [
                (
                    attach_pooled(&pool, &spec, 7, sampled).unwrap(),
                    attach_weights_with(&spec, 7, &inline, sampled).unwrap(),
                ),
                (
                    attach_pooled(&pool, &spec, 7, decoded).unwrap(),
                    attach_weights_with(&spec, 7, &inline, decoded).unwrap(),
                ),
            ];
            for (pooled, inline) in pairs {
                assert_eq!(pooled.spec(), inline.spec(), "{arch}");
                for (p, i) in pooled.nodes().iter().zip(inline.nodes()) {
                    assert_eq!(p.name, i.name, "{arch}");
                    assert!(p.op == i.op, "{arch}: node {} differs", p.name);
                }
            }
        }
    }

    #[test]
    fn the_first_failing_slot_in_spec_order_is_reported() {
        // Slot 7 is wider than slot 2, so its job is claimed first; the
        // error is still slot 2's, pooled and inline alike.
        let pool = WorkerPool::with_workers(3, 3);
        let spec = build_spec(Arch::ReActNet, 0.125, 32).unwrap();
        let failing = |slot: &Conv3Slot| match slot.index {
            2 | 7 => Err(BitnnError::InvalidConfig(format!("slot {}", slot.index))),
            _ => Ok(slot.sample()),
        };
        let pooled = attach_pooled(&pool, &spec, 1, failing).unwrap_err();
        let inline = attach_weights_with(&spec, 1, &Engine::single_threaded(), failing);
        for err in [pooled, inline.unwrap_err()] {
            assert_eq!(err.to_string(), "invalid configuration: slot 2");
        }
    }

    #[test]
    fn a_provider_panic_reaches_the_caller_and_the_pool_survives() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let pool = WorkerPool::with_workers(3, 3);
        let spec = build_spec(Arch::VggSmall, 0.125, 32).unwrap();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            attach_pooled(&pool, &spec, 1, |slot: &Conv3Slot| {
                assert_ne!(slot.index, 3, "record 3 is corrupt");
                Ok::<_, BitnnError>(slot.sample())
            })
        }));
        let payload = caught.expect_err("the provider panic must be re-raised");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("record 3 is corrupt"), "wrong payload: {msg}");
        let again = attach_pooled(&pool, &spec, 1, |s: &Conv3Slot| {
            Ok::<_, BitnnError>(s.sample())
        });
        assert_eq!(again.unwrap().num_conv3(), 5);
    }

    #[test]
    fn a_single_threaded_attach_stays_on_the_caller() {
        let spec = build_spec(Arch::ResNetLite, 0.125, 32).unwrap();
        let caller = std::thread::current().id();
        let engine = Engine::single_threaded();
        let model = attach_weights_with(&spec, 1, &engine, |slot| {
            assert_eq!(std::thread::current().id(), caller, "slot {}", slot.index);
            Ok::<_, BitnnError>(slot.sample())
        })
        .unwrap();
        assert_eq!(model.num_conv3(), 8);
    }

    #[test]
    fn scale_and_image_are_validated() {
        assert!(build_spec(Arch::VggSmall, 0.0, 32).is_err());
        assert!(build_spec(Arch::VggSmall, f64::NAN, 32).is_err());
        assert!(build_spec(Arch::VggSmall, 0.25, 0).is_err());
        assert!(build_model(Arch::ReActNet, -1.0, 32, 0).is_err());
    }
}
