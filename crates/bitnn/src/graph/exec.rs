//! Plan structure and the dispatch loop of the graph executor.
//!
//! This module owns the plan: the [`Step`] vocabulary, the fused
//! step-list builder ([`fused_steps`]), the liveness pass that assigns
//! every intermediate value an arena slot ([`CompiledPlan::from_steps`]),
//! and the one dispatch loop ([`run_plan`]) that resolves each step's
//! operand tensors and hands the step to the CPU step kernels
//! (`crate::backend::cpu`). How a step is computed — which engine
//! kernel, which SIMD level, which scratch buffers — lives there.
//!
//! Planning happens once, at [`crate::graph::ModelGraph`] construction:
//! the node list is walked, sign nodes are folded into their consuming
//! convolutions, and every `BinConv → BatchNorm → Add → Act` chain whose
//! intermediates are single-use is collapsed into one fused step. The
//! fused plan is bit-exact with the scalar oracle's node walk
//! (`crate::backend::scalar::run_scalar`): the convolutions are integer,
//! and the fused float stages apply the same per-element operations in
//! the same order.

use crate::backend::cpu;
use crate::engine::{CpuScratch, Engine};
use crate::error::Result;
use crate::tensor::Tensor;

use super::{GraphNode, NodeOp};

/// One planned execution step. Node indices refer to the graph's node
/// list; each step produces the value of its [`Step::output`] node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// The graph input.
    Input {
        /// The input node.
        node: usize,
    },
    /// 8-bit stem convolution.
    Stem {
        /// Producing node.
        node: usize,
        /// Value read.
        src: usize,
    },
    /// Sign + binary convolution (the sign node is folded in).
    Conv {
        /// The convolution node.
        node: usize,
        /// The folded sign node.
        sign: usize,
        /// Value read (the sign node's input).
        src: usize,
    },
    /// Stand-alone batch-norm.
    Bn {
        /// Producing node.
        node: usize,
        /// Value read.
        src: usize,
    },
    /// Stand-alone RPReLU.
    Act {
        /// Producing node.
        node: usize,
        /// Value read.
        src: usize,
    },
    /// 2×2 average pool.
    AvgPool {
        /// Producing node.
        node: usize,
        /// Value read.
        src: usize,
    },
    /// Channel duplication.
    ChannelDup {
        /// Producing node.
        node: usize,
        /// Value read.
        src: usize,
    },
    /// Element-wise add.
    Add {
        /// Producing node.
        node: usize,
        /// Left operand value.
        a: usize,
        /// Right operand value.
        b: usize,
    },
    /// Global average pool.
    GlobalPool {
        /// Producing node.
        node: usize,
        /// Value read.
        src: usize,
    },
    /// 8-bit classifier.
    Classifier {
        /// Producing node.
        node: usize,
        /// Value read.
        src: usize,
    },
    /// `sign(src) → conv(stride 2) → bn → (+ avg_pool(src)) → act`,
    /// with the pool computed on the fly inside the fused kernel.
    /// Produces the value of `act`.
    FusedSpatial {
        /// The activation node whose value this step produces.
        act: usize,
        /// The folded sign node.
        sign: usize,
        /// The convolution node.
        conv: usize,
        /// The batch-norm node.
        bn: usize,
        /// Value read.
        src: usize,
    },
    /// `sign(src) → conv(stride 1) → bn → (+ src or channel_dup(src)) →
    /// act`. Produces the value of `act`.
    FusedChannel {
        /// The activation node whose value this step produces.
        act: usize,
        /// The folded sign node.
        sign: usize,
        /// The convolution node.
        conv: usize,
        /// The batch-norm node.
        bn: usize,
        /// Value read.
        src: usize,
    },
}

impl Step {
    /// The node whose value this step produces.
    pub fn output(&self) -> usize {
        match *self {
            Step::Input { node }
            | Step::Stem { node, .. }
            | Step::Conv { node, .. }
            | Step::Bn { node, .. }
            | Step::Act { node, .. }
            | Step::AvgPool { node, .. }
            | Step::ChannelDup { node, .. }
            | Step::Add { node, .. }
            | Step::GlobalPool { node, .. }
            | Step::Classifier { node, .. } => node,
            Step::FusedSpatial { act, .. } | Step::FusedChannel { act, .. } => act,
        }
    }

    /// Node values this step reads, as an allocation-free pair: the first
    /// operand (absent only for [`Step::Input`]) and the second (present
    /// only for [`Step::Add`]).
    pub fn read_pair(&self) -> (Option<usize>, Option<usize>) {
        match *self {
            Step::Input { .. } => (None, None),
            Step::Stem { src, .. }
            | Step::Conv { src, .. }
            | Step::Bn { src, .. }
            | Step::Act { src, .. }
            | Step::AvgPool { src, .. }
            | Step::ChannelDup { src, .. }
            | Step::GlobalPool { src, .. }
            | Step::Classifier { src, .. }
            | Step::FusedSpatial { src, .. }
            | Step::FusedChannel { src, .. } => (Some(src), None),
            Step::Add { a, b, .. } => (Some(a), Some(b)),
        }
    }
}

/// Arena slot marker for values that live outside the arena (the borrowed
/// graph input) or are never produced (folded sign nodes).
pub(crate) const NO_SLOT: usize = usize::MAX;

/// A compiled execution plan: the fused step list, per-value lifetimes,
/// and the liveness-derived arena slot assignment.
///
/// The plan is pure topology — it says *what* runs in *which order*
/// against *which arena slots*, never *how*. It is built by
/// [`CompiledPlan::from_steps`] from [`fused_steps`], and `run_plan`
/// drives it.
#[derive(Debug, Clone, Default)]
pub struct CompiledPlan {
    pub(crate) steps: Vec<Step>,
    /// `last_read[v]` = index of the last step that reads node `v`'s
    /// value (`usize::MAX` when never read).
    pub(crate) last_read: Vec<usize>,
    /// The node whose value is the graph output.
    pub(crate) output: usize,
    /// The graph's input node (its value is the caller's borrowed tensor).
    input_node: usize,
    /// Arena slot holding each node's value ([`NO_SLOT`] for the input and
    /// for nodes that produce no value). Slots are assigned by a liveness
    /// pass: a slot is recycled only for values whose lifetimes are
    /// disjoint, and a step's output slot never aliases any of its input
    /// slots, so every forward runs against a fixed small set of reusable
    /// tensors instead of allocating per node.
    pub(crate) slot: Vec<usize>,
    /// Number of arena slots the plan needs.
    pub(crate) slots: usize,
}

/// Build the fused step list: sign nodes folded into their consuming
/// convolutions, and every `BinConv → BatchNorm → Add → Act` chain whose
/// intermediates are single-use collapsed into a fused step. The shortcut
/// operand must be the conv chain's source (identity), its 2×2 average
/// pool (stride-2 convs), or its channel duplication — each single-use.
///
/// The graph must already be validated (see
/// [`crate::graph::spec::GraphSpec::validate`]).
pub fn fused_steps(nodes: &[GraphNode]) -> Vec<Step> {
    let n = nodes.len();
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in nodes.iter().enumerate() {
        for &src in &node.inputs {
            consumers[src].push(i);
        }
    }
    // Detect fusion roots: an Act node fed by a single-use Add of a
    // single-use BatchNorm of a single-use BinConv of a Sign, where the
    // other Add operand is the conv chain's source (identity), its 2x2
    // average pool, or its channel duplication (each single-use).
    let mut fused_at: Vec<Option<Step>> = vec![None; n];
    let mut covered = vec![false; n];
    for (i, node) in nodes.iter().enumerate() {
        let NodeOp::Act(_) = node.op else { continue };
        let ad = node.inputs[0];
        if !matches!(nodes[ad].op, NodeOp::Add) || consumers[ad].len() != 1 {
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
        if consumers[bn].len() != 1 {
            continue;
        }
        let conv = nodes[bn].inputs[0];
        let NodeOp::BinConv(ref c) = nodes[conv].op else {
            continue;
        };
        if consumers[conv].len() != 1 {
            continue;
        }
        let sign = nodes[conv].inputs[0];
        let src = nodes[sign].inputs[0];
        let stride = c.params().stride;
        let step = if sc == src && stride == 1 {
            // Identity shortcut; the fused channel kernel's `ch % C`
            // indexing degenerates to the identity when C_out == C_in.
            Some(Step::FusedChannel {
                act: i,
                sign,
                conv,
                bn,
                src,
            })
        } else if matches!(nodes[sc].op, NodeOp::ChannelDup)
            && nodes[sc].inputs[0] == src
            && consumers[sc].len() == 1
            && stride == 1
        {
            covered[sc] = true;
            Some(Step::FusedChannel {
                act: i,
                sign,
                conv,
                bn,
                src,
            })
        } else if matches!(nodes[sc].op, NodeOp::AvgPool2x2)
            && nodes[sc].inputs[0] == src
            && consumers[sc].len() == 1
            && stride == 2
        {
            covered[sc] = true;
            Some(Step::FusedSpatial {
                act: i,
                sign,
                conv,
                bn,
                src,
            })
        } else {
            None
        };
        if let Some(step) = step {
            covered[conv] = true;
            covered[bn] = true;
            covered[ad] = true;
            fused_at[i] = Some(step);
        }
    }

    let mut steps = Vec::with_capacity(n);
    for (i, node) in nodes.iter().enumerate() {
        if covered[i] {
            continue;
        }
        if let Some(step) = fused_at[i].take() {
            steps.push(step);
            continue;
        }
        if let Some(step) = node_step(nodes, i, node) {
            steps.push(step);
        }
    }
    steps
}

/// The plain (unfused) step for one node; `None` for folded sign nodes.
fn node_step(nodes: &[GraphNode], i: usize, node: &GraphNode) -> Option<Step> {
    Some(match node.op {
        NodeOp::Input { .. } => Step::Input { node: i },
        NodeOp::StemConv(_) => Step::Stem {
            node: i,
            src: node.inputs[0],
        },
        // Sign nodes are folded into their consuming convolutions.
        NodeOp::Sign(_) => return None,
        NodeOp::BinConv(_) => Step::Conv {
            node: i,
            sign: node.inputs[0],
            src: nodes[node.inputs[0]].inputs[0],
        },
        NodeOp::BatchNorm(_) => Step::Bn {
            node: i,
            src: node.inputs[0],
        },
        NodeOp::Act(_) => Step::Act {
            node: i,
            src: node.inputs[0],
        },
        NodeOp::AvgPool2x2 => Step::AvgPool {
            node: i,
            src: node.inputs[0],
        },
        NodeOp::ChannelDup => Step::ChannelDup {
            node: i,
            src: node.inputs[0],
        },
        NodeOp::Add => Step::Add {
            node: i,
            a: node.inputs[0],
            b: node.inputs[1],
        },
        NodeOp::GlobalAvgPool => Step::GlobalPool {
            node: i,
            src: node.inputs[0],
        },
        NodeOp::Classifier(_) => Step::Classifier {
            node: i,
            src: node.inputs[0],
        },
    })
}

impl CompiledPlan {
    /// Compile a step list over a graph of `n_nodes` nodes into a plan:
    /// derive per-value lifetimes and run the liveness pass that assigns
    /// arena slots. This is the one constructor, so the aliasing
    /// guarantees hold for any step list.
    pub fn from_steps(n_nodes: usize, steps: Vec<Step>) -> CompiledPlan {
        let mut last_read = vec![usize::MAX; n_nodes];
        for (si, step) in steps.iter().enumerate() {
            let (a, b) = step.read_pair();
            for v in [a, b].into_iter().flatten() {
                last_read[v] = si;
            }
        }
        let output = n_nodes - 1;
        let input_node = steps
            .iter()
            .find_map(|s| match *s {
                Step::Input { node } => Some(node),
                _ => None,
            })
            .unwrap_or(0);

        // Liveness-driven arena allocation: walk the steps assigning each
        // produced value the lowest free slot, then release the slots of
        // values whose last reader just ran. Releasing *after* assigning
        // the output keeps a step's output slot disjoint from all of its
        // inputs (no in-place aliasing), and the graph output's slot is
        // never released so it survives to the end of the plan.
        let mut slot = vec![NO_SLOT; n_nodes];
        let mut free: Vec<usize> = Vec::new();
        let mut slots = 0usize;
        for (si, step) in steps.iter().enumerate() {
            let out_node = step.output();
            if !matches!(step, Step::Input { .. }) {
                slot[out_node] = free.pop().unwrap_or_else(|| {
                    slots += 1;
                    slots - 1
                });
            }
            let (a, b) = step.read_pair();
            // Deduplicate (a step may read one value twice, e.g.
            // add(x, x)) so a slot is never pushed onto the free list
            // twice.
            let reads = [a, if b == a { None } else { b }];
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

    /// The planned steps, in execution order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of arena slots this plan needs.
    pub fn slots(&self) -> usize {
        self.slots
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
            produced[step.output()] = si;
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
/// `arena` at the slot the liveness pass assigned; on a warmed arena and
/// scratch (same shapes as the last call) the whole forward performs
/// zero heap allocation.
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
        let (first, second) = step.read_pair();
        let Some(first) = first else {
            continue; // the input's value is the caller's borrowed tensor
        };
        let out_node = step.output();
        // Detach the output slot so the arena stays immutably readable;
        // the slot allocator guarantees it aliases none of the inputs.
        let mut dst = std::mem::take(&mut arena[plan.slot[out_node]]);
        // Read a node's value: the borrowed graph input or its arena
        // slot. The liveness pass guarantees a live value's slot is not
        // recycled, so reading through `plan.slot` always yields the
        // value produced for it.
        let resolve = |v: usize| -> &Tensor {
            if v == plan.input_node {
                input
            } else {
                &arena[plan.slot[v]]
            }
        };
        let result = cpu::run_step(
            nodes,
            step,
            resolve(first),
            second.map(resolve),
            engine,
            scratch,
            &mut dst,
        );
        arena[plan.slot[out_node]] = dst;
        result?;
    }
    if plan.output == plan.input_node {
        out.clone_from(input);
    } else {
        // Hand the output slot's buffer to the caller and keep the
        // caller's old buffer as the slot's next scratch (capacity
        // ping-pongs once, then stabilizes — no steady-state allocation).
        std::mem::swap(out, &mut arena[plan.slot[plan.output]]);
    }
    Ok(())
}
