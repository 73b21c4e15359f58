//! The scalar reference backend: naive per-node forwards, fresh
//! allocations, no fusion, no engine. Slow and obvious by design — this
//! is the bit-exactness oracle every other backend is verified against.

use std::any::Any;

use super::stages::{add, fuse_channel_stage, fuse_spatial_stage, shortcut_channels};
use super::{layer, Backend, StepCtx};
use crate::error::{BitnnError, Result};
use crate::exec::ExecPolicy;
use crate::graph::{unfused_steps, CompiledPlan, GraphNode, Step};
use crate::layers::{avg_pool_2x2, global_avg_pool, Layer};
use crate::pack::PackedActivations;
use crate::tensor::{BitTensor, Tensor};

use crate::graph::NodeOp;

/// The reference backend. Stateless: its scratch is `()`, every step
/// allocates its own intermediates, and execution is always inline on the
/// calling thread.
///
/// It compiles the *unfused* step list — one step per node, only the
/// mandatory sign-into-conv folding — so each node's value is observable
/// and nothing hides behind a fused kernel. It can nevertheless execute
/// fused steps (another backend's plan) by running the same per-element
/// operations unfused-equivalently, which the conformance suite relies
/// on.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn compile(&self, nodes: &[GraphNode]) -> CompiledPlan {
        CompiledPlan::from_steps(nodes.len(), unfused_steps(nodes))
    }

    fn new_scratch(&self) -> Box<dyn Any + Send> {
        Box::new(())
    }

    fn execute_step(
        &self,
        ctx: StepCtx<'_>,
        _scratch: &mut (dyn Any + Send),
        dst: &mut Tensor,
    ) -> Result<()> {
        let nodes = ctx.nodes;
        match *ctx.step {
            Step::Input { .. } => unreachable!("the dispatch loop skips input steps"),
            Step::Stem { node, .. } => {
                *dst = layer!(nodes, node, NodeOp::StemConv).forward(ctx.a);
            }
            Step::Conv { node, sign, .. } => {
                let bits = layer!(nodes, sign, NodeOp::Sign).binarize(ctx.a);
                let packed = PackedActivations::pack(&bits).expect("4-D input");
                *dst = layer!(nodes, node, NodeOp::BinConv).forward_packed(&packed);
            }
            Step::Bn { node, .. } => {
                *dst = layer!(nodes, node, NodeOp::BatchNorm).forward(ctx.a);
            }
            Step::Act { node, .. } => {
                *dst = layer!(nodes, node, NodeOp::Act).forward(ctx.a);
            }
            Step::AvgPool { .. } => {
                *dst = avg_pool_2x2(ctx.a);
            }
            Step::ChannelDup { .. } => {
                *dst = shortcut_channels(ctx.a, 2 * ctx.a.shape()[1]);
            }
            Step::Add { .. } => {
                *dst = add(ctx.a, ctx.b.expect("add step has two operands"));
            }
            Step::GlobalPool { .. } => {
                *dst = global_avg_pool(ctx.a);
            }
            Step::Classifier { node, .. } => {
                *dst = layer!(nodes, node, NodeOp::Classifier).forward_2d(ctx.a);
            }
            Step::FusedSpatial {
                act,
                sign,
                conv,
                bn,
                ..
            } => {
                let conv_out = conv_chain(nodes, sign, conv, ctx.a);
                return fuse_spatial_stage(
                    &conv_out,
                    ctx.a,
                    2,
                    layer!(nodes, bn, NodeOp::BatchNorm),
                    layer!(nodes, act, NodeOp::Act),
                    dst,
                );
            }
            Step::FusedChannel {
                act,
                sign,
                conv,
                bn,
                ..
            } => {
                let conv_out = conv_chain(nodes, sign, conv, ctx.a);
                fuse_channel_stage(
                    &conv_out,
                    ctx.a,
                    layer!(nodes, bn, NodeOp::BatchNorm),
                    layer!(nodes, act, NodeOp::Act),
                    dst,
                );
            }
        }
        Ok(())
    }

    fn policy(&self) -> ExecPolicy {
        ExecPolicy::single_threaded()
    }
}

/// The naive `sign → binary conv` prefix of a fused step.
fn conv_chain(nodes: &[GraphNode], sign: usize, conv: usize, x: &Tensor) -> Tensor {
    let bits = layer!(nodes, sign, NodeOp::Sign).binarize(x);
    let packed = PackedActivations::pack(&bits).expect("4-D input");
    layer!(nodes, conv, NodeOp::BinConv).forward_packed(&packed)
}

/// The scalar reference walk: per-node naive forwards, fresh allocations,
/// no fusion, no engine — the oracle behind
/// [`crate::graph::ModelGraph::forward_scalar`]. When `traces` is `Some`, the
/// binarized input of every 3×3 binary convolution is appended in
/// topological order (the bit sequences of the paper's Sec. I
/// observation).
pub(crate) fn run_scalar(
    nodes: &[GraphNode],
    input: &Tensor,
    mut traces: Option<&mut Vec<BitTensor>>,
) -> Result<Tensor> {
    fn get(values: &[Option<Tensor>], v: usize) -> &Tensor {
        values[v].as_ref().expect("topological order")
    }
    let mut values: Vec<Option<Tensor>> = (0..nodes.len()).map(|_| None).collect();
    for (i, node) in nodes.iter().enumerate() {
        let out = match node.op {
            NodeOp::Input { .. } => input.clone(),
            NodeOp::StemConv(ref stem) => stem.forward(get(&values, node.inputs[0])),
            NodeOp::Sign(_) => continue, // folded into the consuming conv
            NodeOp::BinConv(ref conv) => {
                let sign = node.inputs[0];
                let sg = layer!(nodes, sign, NodeOp::Sign);
                let bits = sg.binarize(get(&values, nodes[sign].inputs[0]));
                let packed = PackedActivations::pack(&bits).expect("4-D input");
                let y = conv.forward_packed(&packed);
                if let Some(ref mut t) = traces {
                    if conv.kernel_size() == (3, 3) {
                        t.push(bits);
                    }
                }
                y
            }
            NodeOp::BatchNorm(ref bn) => bn.forward(get(&values, node.inputs[0])),
            NodeOp::Act(ref act) => act.forward(get(&values, node.inputs[0])),
            NodeOp::AvgPool2x2 => avg_pool_2x2(get(&values, node.inputs[0])),
            NodeOp::ChannelDup => {
                let x = get(&values, node.inputs[0]);
                shortcut_channels(x, 2 * x.shape()[1])
            }
            NodeOp::Add => add(get(&values, node.inputs[0]), get(&values, node.inputs[1])),
            NodeOp::GlobalAvgPool => global_avg_pool(get(&values, node.inputs[0])),
            NodeOp::Classifier(ref fc) => fc.forward_2d(get(&values, node.inputs[0])),
        };
        values[i] = Some(out);
    }
    values
        .pop()
        .flatten()
        .ok_or_else(|| BitnnError::InvalidConfig("graph produced no output value".into()))
}
