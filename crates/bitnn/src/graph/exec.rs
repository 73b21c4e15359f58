//! Plan structure and the dispatch loop of the graph executor.
//!
//! This module owns the plan: the [`Step`] record, the fused step-list
//! builder ([`fused_steps`]), the liveness pass that assigns every
//! intermediate value an arena slot ([`CompiledPlan::from_steps`]), and
//! the one dispatch loop ([`run_plan`]) that resolves each step's operand
//! tensors and hands the step to the CPU step kernels
//! (`crate::backend::cpu`). How a step is computed — which engine
//! kernel, which SIMD level, which scratch buffers — lives there.
//!
//! A step is one flat record: the node whose value it produces, the
//! values it reads, and, for a fused chain, the chain's batch-norm. What
//! it computes is the op of its node, so a step's kind is
//! `nodes[step.node].op.tag()` plus whether it is fused.
//!
//! Planning happens once, at [`crate::graph::ModelGraph`] construction:
//! the node list is walked, sign nodes are folded into their consuming
//! convolutions, and every `sign → BinConv → BatchNorm → Add → Act` chain
//! whose intermediates are single-use is collapsed into one fused step.
//! A chain without a shortcut add (`vggsmall`'s) runs as three steps:
//! conv, batch-norm, act. The fused plan is bit-exact with the scalar
//! oracle's node walk (`crate::backend::scalar::run_scalar`): the
//! convolutions are integer, and the fused float stages apply the same
//! per-element operations in the same order.

use crate::backend::cpu;
use crate::engine::{CpuScratch, Engine};
use crate::error::Result;
use crate::tensor::Tensor;

use super::{GraphNode, NodeOp};

/// One planned execution step: it produces the value of node `node` from
/// the values it reads, and runs the kernel of `node`'s own op. Node
/// indices refer to the graph's node list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    /// The node whose value this step produces.
    pub(crate) node: usize,
    /// The value the step reads; `None` only for the graph input. A
    /// binary conv reads its folded sign's input, and so does a fused
    /// chain.
    pub(crate) src: Option<usize>,
    /// The second value an add reads.
    pub(crate) rhs: Option<usize>,
    /// The batch-norm of a fused `sign → conv → bn → + shortcut → act`
    /// chain; `node` is then the chain's act.
    pub(crate) fused: Option<usize>,
}

/// Arena slot marker for values that live outside the arena (the borrowed
/// graph input when only stems read it) or are never produced (folded
/// sign nodes).
pub(crate) const NO_SLOT: usize = usize::MAX;

/// A compiled execution plan: the fused step list, per-value lifetimes,
/// and the liveness-derived arena slot assignment.
///
/// The plan is pure topology — it says *what* runs in *which order*
/// against *which arena slots*, never *how*. It is built by
/// [`CompiledPlan::from_steps`] from [`fused_steps`], and `run_plan`
/// drives it.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompiledPlan {
    pub(crate) steps: Vec<Step>,
    /// `last_read[v]` = index of the last step that reads node `v`'s
    /// value (`usize::MAX` when never read).
    pub(crate) last_read: Vec<usize>,
    /// The node whose value is the graph output.
    pub(crate) output: usize,
    /// The graph's input node (its value is the caller's borrowed tensor).
    input_node: usize,
    /// Arena slot holding each node's value ([`NO_SLOT`] for nodes that
    /// produce no value, and for the input unless a step other than a
    /// stem reads it — that step reads the input's pixel-major copy, which
    /// the input step writes into its slot). Slots are assigned by a liveness
    /// pass: a slot is recycled only for values whose lifetimes are
    /// disjoint, and a step's output slot never aliases any of its input
    /// slots, so every forward runs against a fixed small set of reusable
    /// tensors instead of allocating per node.
    pub(crate) slot: Vec<usize>,
    /// Number of arena slots the plan needs.
    pub(crate) slots: usize,
}

/// Build the fused step list: sign nodes folded into their consuming
/// convolutions, and every `sign → BinConv → BatchNorm → Add → Act` chain
/// whose intermediates are single-use collapsed into one fused step. The
/// shortcut operand must be the chain's source (identity, stride 1), its
/// channel duplication (stride 1) or its 2×2 average pool (stride 2),
/// each single-use. A chain without a shortcut is not fused.
///
/// The graph must already be validated (see
/// [`crate::graph::spec::GraphSpec::validate`]).
pub(crate) fn fused_steps(nodes: &[GraphNode]) -> Vec<Step> {
    let mut consumers = vec![0usize; nodes.len()];
    for node in nodes {
        for &src in &node.inputs {
            consumers[src] += 1;
        }
    }
    let single = |v: usize| consumers[v] == 1;
    let mut fused_at: Vec<Option<Step>> = vec![None; nodes.len()];
    let mut covered = vec![false; nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        let NodeOp::Act(_) = node.op else { continue };
        let ad = node.inputs[0];
        if !matches!(nodes[ad].op, NodeOp::Add) || !single(ad) {
            continue;
        }
        let (p, q) = (nodes[ad].inputs[0], nodes[ad].inputs[1]);
        // Identify which operand is the bn → conv chain.
        let (bn, sc) = if matches!(nodes[p].op, NodeOp::BatchNorm(_)) {
            (p, q)
        } else if matches!(nodes[q].op, NodeOp::BatchNorm(_)) {
            (q, p)
        } else {
            continue;
        };
        let conv = nodes[bn].inputs[0];
        let NodeOp::BinConv(ref c) = nodes[conv].op else {
            continue;
        };
        if !single(bn) || !single(conv) {
            continue;
        }
        let src = nodes[nodes[conv].inputs[0]].inputs[0];
        // The conv stride each shortcut form fits; the fused kernel adds
        // the pool on the fly and indexes a duplication as `ch % C`.
        let shortcut_stride = if sc == src {
            Some(1)
        } else if nodes[sc].inputs.first() == Some(&src) && single(sc) {
            match nodes[sc].op {
                NodeOp::ChannelDup => Some(1),
                NodeOp::AvgPool2x2 => Some(2),
                _ => None,
            }
        } else {
            None
        };
        if shortcut_stride != Some(c.params().stride) {
            continue;
        }
        for v in [conv, bn, ad] {
            covered[v] = true;
        }
        covered[sc] |= sc != src;
        fused_at[i] = Some(Step {
            node: i,
            src: Some(src),
            rhs: None,
            fused: Some(bn),
        });
    }

    (0..nodes.len())
        .filter(|&i| !covered[i])
        .filter_map(|i| fused_at[i].or_else(|| node_step(nodes, i)))
        .collect()
}

/// The plain (unfused) step for node `i`; `None` for a folded sign node.
fn node_step(nodes: &[GraphNode], i: usize) -> Option<Step> {
    let inputs = &nodes[i].inputs;
    let src = match nodes[i].op {
        NodeOp::Sign(_) => return None,
        NodeOp::BinConv(_) => Some(nodes[inputs[0]].inputs[0]),
        _ => inputs.first().copied(),
    };
    Some(Step {
        node: i,
        src,
        rhs: inputs.get(1).copied(),
        fused: None,
    })
}

impl CompiledPlan {
    /// Compile a step list over the graph `nodes` into a plan: derive
    /// per-value lifetimes and run the liveness pass that assigns arena
    /// slots. This is the one constructor, so the aliasing guarantees
    /// hold for any step list.
    pub(crate) fn from_steps(nodes: &[GraphNode], steps: Vec<Step>) -> CompiledPlan {
        let n_nodes = nodes.len();
        let mut last_read = vec![usize::MAX; n_nodes];
        for (si, step) in steps.iter().enumerate() {
            for v in [step.src, step.rhs].into_iter().flatten() {
                last_read[v] = si;
            }
        }
        let output = n_nodes - 1;
        let input_node = steps.iter().find(|s| s.src.is_none()).map_or(0, |s| s.node);

        // Liveness-driven arena allocation: walk the steps assigning each
        // produced value the lowest free slot, then release the slots of
        // values whose last reader just ran. Releasing *after* assigning
        // the output keeps a step's output slot disjoint from all of its
        // inputs (no in-place aliasing), and the graph output's slot is
        // never released so it survives to the end of the plan.
        let input_converted = steps.iter().any(|s| {
            !matches!(nodes[s.node].op, NodeOp::StemConv(_))
                && (s.src == Some(input_node) || s.rhs == Some(input_node))
        });
        let mut slot = vec![NO_SLOT; n_nodes];
        let mut free: Vec<usize> = Vec::new();
        let mut slots = 0usize;
        for (si, step) in steps.iter().enumerate() {
            if step.src.is_some() || input_converted {
                slot[step.node] = free.pop().unwrap_or_else(|| {
                    slots += 1;
                    slots - 1
                });
            }
            // Deduplicate (a step may read one value twice, e.g.
            // add(x, x)) so a slot is never pushed onto the free list
            // twice.
            let reads = [step.src, step.rhs.filter(|&b| Some(b) != step.src)];
            for v in reads.into_iter().flatten() {
                if last_read[v] == si && v != output && slot[v] != NO_SLOT {
                    free.push(slot[v]);
                }
            }
        }

        let plan = CompiledPlan {
            steps,
            last_read,
            output,
            input_node,
            slot,
            slots,
        };
        debug_assert!(
            plan.check_no_aliasing().is_ok(),
            "slot allocator produced aliasing: {:?}",
            plan.check_no_aliasing()
        );
        plan
    }

    /// Verify the arena slot assignment: values sharing a slot must have
    /// strictly disjoint lifetimes (one's producing step comes after the
    /// other's last reader), which also implies a step's output slot never
    /// aliases any of its inputs. Debug builds assert this after every
    /// compile; the property tests sweep it across random graphs.
    pub(crate) fn check_no_aliasing(&self) -> std::result::Result<(), String> {
        let horizon = self.steps.len();
        // Per value: the step producing it and the last step reading it
        // (the graph output stays live to the end of the plan).
        let mut produced = vec![usize::MAX; self.slot.len()];
        for (si, step) in self.steps.iter().enumerate() {
            produced[step.node] = si;
        }
        let life = |v: usize| -> (usize, usize) {
            let end = if v == self.output || self.last_read[v] == usize::MAX {
                horizon
            } else {
                self.last_read[v]
            };
            (produced[v], end)
        };
        for u in 0..self.slot.len() {
            if self.slot[u] == NO_SLOT {
                continue;
            }
            for v in u + 1..self.slot.len() {
                if self.slot[v] != self.slot[u] {
                    continue;
                }
                let (pu, eu) = life(u);
                let (pv, ev) = life(v);
                let disjoint = if pu < pv { pv > eu } else { pu > ev };
                if !disjoint {
                    return Err(format!(
                        "values {u} (steps {pu}..={eu}) and {v} (steps {pv}..={ev}) \
                         share slot {}",
                        self.slot[u]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Run a compiled plan into a reusable output tensor.
///
/// This is the whole dispatch loop: per step, resolve the operand values
/// (the borrowed graph input or arena slots), detach the liveness-assigned
/// output slot, and run the step's CPU kernel with `engine` and the
/// staging buffers in `scratch`. Every intermediate value lives in
/// `arena` at the slot the liveness pass assigned, pixel-major; the input
/// step copies the NCHW input into its slot pixel-major when a non-stem
/// step reads it, and a 4-D output is copied back to NCHW into `out`. On
/// a warmed arena and scratch (same shapes as the last call) the whole
/// forward performs zero heap allocation.
pub(crate) fn run_plan(
    nodes: &[GraphNode],
    plan: &CompiledPlan,
    engine: &Engine,
    input: &Tensor,
    arena: &mut Vec<Tensor>,
    scratch: &mut CpuScratch,
    out: &mut Tensor,
) -> Result<()> {
    if arena.len() < plan.slots {
        arena.resize_with(plan.slots, Tensor::default);
    }
    for step in &plan.steps {
        let Some(src) = step.src else {
            // The input step: its value is the caller's borrowed tensor,
            // plus a pixel-major copy when a non-stem step reads it.
            if plan.slot[step.node] != NO_SLOT {
                input.nchw_to_nhwc_into(&mut arena[plan.slot[step.node]]);
            }
            continue;
        };
        // Detach the output slot so the arena stays immutably readable;
        // the slot allocator guarantees it aliases none of the inputs.
        let mut dst = std::mem::take(&mut arena[plan.slot[step.node]]);
        // Read a node's value: its arena slot, or the borrowed NCHW input
        // (which only a stem reads; see `CompiledPlan::slot`). The
        // liveness pass guarantees a live value's slot is not recycled,
        // so reading through `plan.slot` always yields the value
        // produced for it.
        let stem = matches!(nodes[step.node].op, NodeOp::StemConv(_));
        let resolve = |v: usize| -> &Tensor {
            if v == plan.input_node && (stem || plan.slot[v] == NO_SLOT) {
                input
            } else {
                &arena[plan.slot[v]]
            }
        };
        let result = cpu::run_step(
            nodes,
            step,
            resolve(src),
            step.rhs.map(resolve),
            stem && src == plan.input_node,
            engine,
            scratch,
            &mut dst,
        );
        arena[plan.slot[step.node]] = dst;
        result?;
    }
    if plan.output == plan.input_node {
        out.clone_from(input);
    } else if arena[plan.slot[plan.output]].shape().len() == 4 {
        arena[plan.slot[plan.output]].nhwc_to_nchw_into(out);
    } else {
        // Hand the output slot's buffer to the caller and keep the
        // caller's old buffer as the slot's next scratch (capacity
        // ping-pongs once, then stabilizes — no steady-state allocation).
        std::mem::swap(out, &mut arena[plan.slot[plan.output]]);
    }
    Ok(())
}
