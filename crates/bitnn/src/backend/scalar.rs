//! The scalar reference oracle: naive per-node forwards, fresh
//! allocations, no fusion, no engine. Slow and obvious by design — this
//! is the bit-exactness oracle the fused executor is verified against.

use super::layer;
use super::stages::{add, shortcut_channels};
use crate::error::{BitnnError, Result};
use crate::graph::{GraphNode, NodeOp};
use crate::layers::{avg_pool_2x2, global_avg_pool, Layer};
use crate::pack::PackedActivations;
use crate::tensor::{BitTensor, Tensor};

/// Names the scalar oracle (the node walk behind
/// [`crate::graph::ModelGraph::forward_scalar`]) at the
/// [`crate::graph::ModelGraph::state_for`] /
/// [`crate::graph::ModelGraph::forward_on`] entry points. Stateless:
/// the oracle allocates its own intermediates and always runs inline on
/// the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

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
