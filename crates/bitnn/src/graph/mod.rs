//! Layer-graph model IR: typed operator nodes, explicit edges, shape
//! inference, and a fused graph executor.
//!
//! The paper's decode+packing unit and compression scheme are
//! architecture-agnostic — they operate on binary 3×3 kernels regardless
//! of which network produced them. This module makes the *execution* side
//! equally agnostic: a [`ModelGraph`] is a DAG of typed nodes (stem conv,
//! sign, binary conv, batch-norm, RPReLU, pools, shortcut add, channel
//! duplication, classifier) that the executor lowers onto the
//! [`crate::engine`] machinery. The executor runs a plan of flat step
//! records, each computing its node's own op; a
//! `sign → conv → bn → + shortcut → act` chain whose shortcut is the
//! chain's input, its channel duplication or its 2×2 average pool
//! becomes one step whose conv epilogue applies bn, shortcut and act. A
//! chain without a shortcut (`vggsmall`'s) runs conv, bn and act as
//! three steps. New BNN topologies become data, not code: see [`arch`]
//! for the built-in families
//! (`reactnet`/`vggsmall`/`resnetlite`) and [`GraphBuilder`] for
//! assembling custom ones.
//!
//! The weight-free twin of a `ModelGraph` is its [`GraphSpec`]: pure
//! topology plus geometry, which the v2 model container serializes next
//! to the compressed kernel streams and the timing simulator turns into
//! [`crate::model::LayerWorkload`]s.
//!
//! ```
//! use bitnn::graph::arch::{build_model, Arch};
//! use bitnn::tensor::Tensor;
//!
//! let model = build_model(Arch::VggSmall, 0.0625, 16, 7).unwrap();
//! let input = Tensor::zeros(&[1, 3, 16, 16]);
//! let logits = model.forward(&input).unwrap();
//! assert_eq!(logits.shape(), &[1, 10]);
//! // The engine path is bit-exact with the scalar oracle.
//! assert_eq!(logits.data(), model.forward_scalar(&input).unwrap().data());
//! ```

pub mod arch;
mod exec;
pub mod spec;

pub(crate) use exec::Step;
pub use spec::{ConvGeometry, GraphSpec, NodeSpec, OpSpec, ShapeInfo};

use crate::backend::scalar::run_scalar;
use crate::backend::ScalarBackend;
use crate::engine::{Engine, Scratch};
use crate::error::{BitnnError, Result};
use crate::exec::ExecPolicy;
use crate::layers::{BatchNorm, BinConv2d, Layer, QuantConv2d, QuantLinear, RPReLU, RSign};
use crate::model::storage::{OpCategory, StorageBreakdown};
use crate::model::workload::LayerWorkload;
use crate::pack::PackedKernel;
use crate::tensor::{BitTensor, Tensor};

/// A weighted graph operator: the layer object behind one [`OpSpec`].
// `BinConv2d` carries its lazily-derived weight forms (flat / packed /
// panels), which dwarfs the other variants; graphs hold tens of nodes, so
// the per-node slack is irrelevant and boxing would only add indirection
// on the hot dispatch path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum NodeOp {
    /// The network input placeholder.
    Input {
        /// Input channels.
        channels: usize,
        /// Nominal square input side length (advisory; see
        /// [`OpSpec::Input`]).
        image: usize,
    },
    /// 8-bit quantized stem convolution (3×3, pad 1).
    StemConv(QuantConv2d),
    /// Shifted sign binarization; may only feed [`NodeOp::BinConv`].
    Sign(RSign),
    /// 1-bit convolution.
    BinConv(BinConv2d),
    /// Batch normalization.
    BatchNorm(BatchNorm),
    /// RPReLU activation.
    Act(RPReLU),
    /// 2×2 average pool, stride 2.
    AvgPool2x2,
    /// Channel duplication `C → 2C`.
    ChannelDup,
    /// Element-wise sum.
    Add,
    /// Global average pool.
    GlobalAvgPool,
    /// 8-bit quantized classifier.
    Classifier(QuantLinear),
}

impl NodeOp {
    /// The weight-free spec of this op.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::InvalidConfig`] for a stem conv that is not
    /// 3×3 pad 1 (the only stem geometry the IR defines).
    pub fn spec(&self) -> Result<OpSpec> {
        Ok(match *self {
            NodeOp::Input { channels, image } => OpSpec::Input { channels, image },
            NodeOp::StemConv(ref q) => {
                if q.kernel_size() != (3, 3) || q.params().pad != 1 {
                    return Err(BitnnError::InvalidConfig(format!(
                        "stem conv must be 3x3 pad 1, got {:?} pad {}",
                        q.kernel_size(),
                        q.params().pad
                    )));
                }
                OpSpec::StemConv {
                    out_ch: q.filters(),
                    stride: q.params().stride,
                }
            }
            NodeOp::Sign(_) => OpSpec::Sign,
            NodeOp::BinConv(ref c) => {
                let (kh, kw) = c.kernel_size();
                OpSpec::BinConv {
                    out_ch: c.filters(),
                    kh,
                    kw,
                    stride: c.params().stride,
                    pad: c.params().pad,
                }
            }
            NodeOp::BatchNorm(_) => OpSpec::BatchNorm,
            NodeOp::Act(_) => OpSpec::Act,
            NodeOp::AvgPool2x2 => OpSpec::AvgPool2x2,
            NodeOp::ChannelDup => OpSpec::ChannelDup,
            NodeOp::Add => OpSpec::Add,
            NodeOp::GlobalAvgPool => OpSpec::GlobalAvgPool,
            NodeOp::Classifier(ref l) => OpSpec::Classifier {
                classes: l.out_features(),
            },
        })
    }

    /// Short lowercase tag (mirrors [`OpSpec::tag`]).
    pub fn tag(&self) -> &'static str {
        match self {
            NodeOp::Input { .. } => "input",
            NodeOp::StemConv(_) => "stem_conv",
            NodeOp::Sign(_) => "sign",
            NodeOp::BinConv(_) => "bin_conv",
            NodeOp::BatchNorm(_) => "batch_norm",
            NodeOp::Act(_) => "act",
            NodeOp::AvgPool2x2 => "avg_pool_2x2",
            NodeOp::ChannelDup => "channel_dup",
            NodeOp::Add => "add",
            NodeOp::GlobalAvgPool => "global_avg_pool",
            NodeOp::Classifier(_) => "classifier",
        }
    }

    /// Per-channel parameter count of the owned layer, if any — used by
    /// the weight cross-check in [`ModelGraph::new`].
    fn channel_count(&self) -> Option<usize> {
        match self {
            NodeOp::Sign(s) => Some(s.channels()),
            NodeOp::BatchNorm(b) => Some(b.channels()),
            NodeOp::Act(a) => Some(a.channels()),
            _ => None,
        }
    }
}

/// One node of a weighted model graph.
#[derive(Debug, Clone)]
pub struct GraphNode {
    /// Display name (e.g. `"n5.bin_conv"`).
    pub name: String,
    /// The weighted operator.
    pub op: NodeOp,
    /// Producer nodes (topologically earlier).
    pub inputs: Vec<usize>,
}

/// Incrementally assemble a [`ModelGraph`]. `push` returns the new node's
/// id for wiring later nodes; `finish` validates and compiles the
/// execution plan.
#[derive(Debug)]
pub struct GraphBuilder {
    arch: String,
    nodes: Vec<GraphNode>,
}

impl GraphBuilder {
    /// Start a graph for `arch` with its input node (`[N, channels,
    /// image, image]`); the input's id is 0.
    pub fn new(arch: impl Into<String>, channels: usize, image: usize) -> Self {
        GraphBuilder {
            arch: arch.into(),
            nodes: vec![GraphNode {
                name: "input".into(),
                op: NodeOp::Input { channels, image },
                inputs: Vec::new(),
            }],
        }
    }

    /// Append a node reading from `inputs`; returns its id.
    pub fn push(&mut self, name: impl Into<String>, op: NodeOp, inputs: &[usize]) -> usize {
        self.nodes.push(GraphNode {
            name: name.into(),
            op,
            inputs: inputs.to_vec(),
        });
        self.nodes.len() - 1
    }

    /// Validate and compile.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::InvalidConfig`] for any topology, shape, or
    /// layer-geometry inconsistency (see [`GraphSpec::validate`]).
    pub fn finish(self) -> Result<ModelGraph> {
        ModelGraph::new(self.arch, self.nodes)
    }
}

/// Reusable state for [`ModelGraph::forward_batch_into`]: one [`Scratch`]
/// (with its own activation arena) per item slot of the largest batch
/// seen. Each chunk of a batch runs on the scratch of its first item, and
/// the chunk boundaries follow from the batch size and thread count
/// alone, so once one batch of a given size has run, later batches of
/// that size perform zero heap allocation whichever worker takes which
/// chunk.
#[derive(Debug, Default)]
pub struct BatchScratch {
    items: Vec<Scratch>,
}

/// The (empty) forward state of the scalar oracle's
/// [`ModelGraph::forward_on`] entry point, built by
/// [`ModelGraph::state_for`]. The oracle allocates per node, so there is
/// nothing to reuse.
#[derive(Debug)]
pub struct ForwardState;

/// A weighted, validated, executable model graph.
///
/// Construction validates the topology (via the derived [`GraphSpec`]),
/// cross-checks every layer's geometry against the inferred shapes, and
/// compiles the fused execution plan once (including the liveness pass
/// that assigns every intermediate activation an arena slot); forwards
/// then run against the plan. All forward paths are bit-exact with each
/// other.
#[derive(Debug, Clone)]
pub struct ModelGraph {
    nodes: Vec<GraphNode>,
    spec: GraphSpec,
    plan: exec::CompiledPlan,
    /// Compressible (3×3 binary conv) node ids, topological order.
    conv3: Vec<usize>,
    /// Estimated lane-word operations per input element (from the spec's
    /// workloads at its nominal image size) — the batch executor's
    /// workload model for picking batch-level vs intra-op parallelism.
    work_per_elem: u64,
}

impl ModelGraph {
    /// Build from a node list (see [`GraphBuilder`]).
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::InvalidConfig`] for any topology or shape
    /// violation, or when a layer's channel/feature counts disagree with
    /// the shapes inferred from the graph.
    pub fn new(arch: impl Into<String>, nodes: Vec<GraphNode>) -> Result<Self> {
        let spec = GraphSpec {
            arch: arch.into(),
            nodes: nodes
                .iter()
                .map(|n| {
                    Ok(NodeSpec {
                        op: n.op.spec()?,
                        inputs: n.inputs.clone(),
                    })
                })
                .collect::<Result<_>>()?,
        };
        let shapes = spec.shapes()?;
        // Cross-check owned layer geometry against the inferred shapes.
        for (i, node) in nodes.iter().enumerate() {
            let in_ch = node.inputs.first().map(|&src| match shapes[src] {
                ShapeInfo::Map { ch, .. } => ch,
                ShapeInfo::Flat { features } => features,
            });
            let mismatch = |what: &str, got: usize| {
                Err(BitnnError::InvalidConfig(format!(
                    "node {i} ({}): {what} is {got}, the graph feeds it {}",
                    node.name,
                    in_ch.unwrap_or(0)
                )))
            };
            match &node.op {
                NodeOp::StemConv(q) if Some(q.channels()) != in_ch => {
                    return mismatch("stem input channels", q.channels())
                }
                NodeOp::BinConv(c) if Some(c.in_channels()) != in_ch => {
                    return mismatch("conv input channels", c.in_channels())
                }
                NodeOp::Classifier(l) if Some(l.in_features()) != in_ch => {
                    return mismatch("classifier input features", l.in_features())
                }
                op => {
                    if let Some(ch) = op.channel_count() {
                        if Some(ch) != in_ch {
                            return mismatch("layer channel count", ch);
                        }
                    }
                }
            }
        }
        // The one plan: the fused step list every `forward*` runs.
        let plan = exec::CompiledPlan::from_steps(&nodes, exec::fused_steps(&nodes));
        let conv3 = spec.conv3_geometries().iter().map(|g| g.node).collect();
        // Workload model: total multiply-accumulates at the nominal image
        // size, weighted by precision (1-bit ops pack 64 to a lane word),
        // normalized per input element. Convolution work scales linearly
        // with the input pixel count, so this transfers to other runtime
        // image sizes well enough for a split heuristic.
        let nominal_elems = match spec.nodes.first().map(|n| &n.op) {
            Some(&OpSpec::Input { channels, image }) => (channels * image * image).max(1),
            _ => 1,
        };
        let word_ops: u64 = spec
            .workloads()
            .iter()
            .map(|w| {
                let macs = (w.in_ch * w.out_ch * w.kh * w.kw * w.oh * w.ow) as u64;
                (macs * w.precision_bits as u64).div_ceil(64)
            })
            .sum();
        let work_per_elem = (word_ops / nominal_elems as u64).max(1);
        Ok(ModelGraph {
            nodes,
            spec,
            plan,
            conv3,
            work_per_elem,
        })
    }

    /// Architecture tag.
    pub fn arch(&self) -> &str {
        &self.spec.arch
    }

    /// The weight-free IR of this graph.
    pub fn spec(&self) -> &GraphSpec {
        &self.spec
    }

    /// The nodes, in topological order.
    pub fn nodes(&self) -> &[GraphNode] {
        &self.nodes
    }

    /// Number of compressible binary 3×3 convolutions.
    pub fn num_conv3(&self) -> usize {
        self.conv3.len()
    }

    /// The binary 3×3 kernel of compressible conv `i` (the object of
    /// compression).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn conv3_weights(&self, i: usize) -> &BitTensor {
        match &self.nodes[self.conv3[i]].op {
            NodeOp::BinConv(c) => c.weights(),
            _ => unreachable!("conv3 ids index BinConv nodes"),
        }
    }

    fn conv3_mut(&mut self, i: usize) -> Result<&mut BinConv2d> {
        let node = *self.conv3.get(i).ok_or_else(|| {
            BitnnError::InvalidConfig(format!(
                "conv index {i} out of range ({} compressible convs)",
                self.conv3.len()
            ))
        })?;
        match &mut self.nodes[node].op {
            NodeOp::BinConv(c) => Ok(c),
            _ => unreachable!("conv3 ids index BinConv nodes"),
        }
    }

    /// Replace compressible conv `i`'s kernel from a flat tensor (the
    /// offline decompress path).
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::InvalidConfig`] if `i` is out of range or
    /// the shape changes.
    pub fn set_conv3_weights(&mut self, i: usize, weights: BitTensor) -> Result<()> {
        let conv = self.conv3_mut(i)?;
        let want = [
            conv.filters(),
            conv.in_channels(),
            conv.kernel_size().0,
            conv.kernel_size().1,
        ];
        if weights.shape() != want {
            return Err(BitnnError::InvalidConfig(format!(
                "conv {i}: replacement kernel is {:?}, the graph needs {want:?}",
                weights.shape()
            )));
        }
        conv.set_weights(weights);
        Ok(())
    }

    /// Replace compressible conv `i`'s kernel with already channel-packed
    /// lane words (the streaming decode path — no intermediate flat
    /// tensor).
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError::InvalidConfig`] if `i` is out of range or
    /// the packed geometry changes.
    pub fn set_conv3_packed(&mut self, i: usize, packed: PackedKernel) -> Result<()> {
        let conv = self.conv3_mut(i)?;
        let want = (
            conv.filters(),
            conv.in_channels(),
            conv.kernel_size().0,
            conv.kernel_size().1,
        );
        let got = (
            packed.filters(),
            packed.channels(),
            packed.kh(),
            packed.kw(),
        );
        if got != want {
            return Err(BitnnError::InvalidConfig(format!(
                "conv {i}: replacement packed kernel is {got:?}, the graph needs {want:?}"
            )));
        }
        conv.set_packed(packed);
        Ok(())
    }

    /// Per-layer workload descriptors for the timing simulator.
    pub fn workloads(&self) -> Vec<LayerWorkload> {
        self.spec.workloads()
    }

    /// Storage breakdown by Table I category, summed over the weighted
    /// nodes.
    pub fn storage_breakdown(&self) -> StorageBreakdown {
        let mut b = StorageBreakdown::new();
        for node in &self.nodes {
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

    /// Forward pass on the calling thread through the engine's fast path.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError`] for unsupported runtime geometry.
    ///
    /// # Panics
    ///
    /// Panics if the input is not `[N, C, H, W]` with the graph's input
    /// channel count.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.forward_with(input, &Engine::single_threaded(), &mut Scratch::default())
    }

    /// Forward pass under an explicit engine policy with caller-owned
    /// scratch buffers. Bit-exact with [`Self::forward_scalar`].
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError`] for unsupported runtime geometry.
    ///
    /// # Panics
    ///
    /// Panics if the input is not `[N, C, H, W]` with the graph's input
    /// channel count.
    pub fn forward_with(
        &self,
        input: &Tensor,
        engine: &Engine,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let mut out = Tensor::default();
        self.forward_into(input, engine, scratch, &mut out)?;
        Ok(out)
    }

    /// [`Self::forward_with`] into a reusable output tensor: on a warmed
    /// scratch (same input shape as the previous call) the entire forward
    /// performs zero heap allocation — every intermediate activation lives
    /// in the scratch's arena at a slot assigned by the plan's liveness
    /// pass, and the logits land in `out`'s existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError`] for unsupported runtime geometry.
    ///
    /// # Panics
    ///
    /// Panics if the input is not `[N, C, H, W]` with the graph's input
    /// channel count.
    pub fn forward_into(
        &self,
        input: &Tensor,
        engine: &Engine,
        scratch: &mut Scratch,
        out: &mut Tensor,
    ) -> Result<()> {
        self.check_input(input);
        let Scratch { cpu, arena, .. } = scratch;
        exec::run_plan(&self.nodes, &self.plan, engine, input, arena, cpu, out)
    }

    /// Forward state for [`Self::forward_on`] through the scalar oracle.
    pub fn state_for(&self, _oracle: &ScalarBackend) -> ForwardState {
        ForwardState
    }

    /// [`Self::forward_scalar`] into `out`, replacing whatever it held
    /// (any shape).
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError`] for unsupported runtime geometry.
    ///
    /// # Panics
    ///
    /// Panics if the input is not `[N, C, H, W]` with the graph's input
    /// channel count.
    pub fn forward_on(
        &self,
        _oracle: &ScalarBackend,
        _state: &mut ForwardState,
        input: &Tensor,
        out: &mut Tensor,
    ) -> Result<()> {
        *out = self.forward_scalar(input)?;
        Ok(())
    }

    /// Estimated lane-word operations for one forward of `input`.
    fn item_work(&self, input: &Tensor) -> u64 {
        (input.len() as u64).saturating_mul(self.work_per_elem)
    }

    /// The batch size a serving-style request coalescer should flush at
    /// under `policy` — the per-plan workload model applied in reverse:
    /// enough items for [`Self::forward_batch_into`]'s batch-level split
    /// to hand every effective worker a chunk whose estimated work
    /// clears the `min_work` inline threshold, capped at 64 so queueing
    /// latency stays bounded.
    ///
    /// On a host (or policy) without usable parallelism this is 1:
    /// coalescing cannot beat per-item dispatch there, and a larger
    /// batch would only add queueing latency.
    pub fn preferred_batch(&self, policy: &ExecPolicy) -> usize {
        const MAX_COALESCE: usize = 64;
        let elems = match self.spec.shapes().ok().and_then(|s| s.first().copied()) {
            Some(ShapeInfo::Map { ch, h, w }) => (ch * h * w) as u64,
            _ => 1,
        };
        let item_work = elems.saturating_mul(self.work_per_elem).max(1);
        let ways = policy.effective_threads(u64::MAX);
        if ways <= 1 {
            return 1;
        }
        let per_worker = (policy.min_work.div_ceil(item_work).max(1) as usize).min(MAX_COALESCE);
        (ways.saturating_mul(per_worker)).min(MAX_COALESCE)
    }

    /// Forward a batch of independent inputs. Results are in input order
    /// and bit-exact with per-item [`Self::forward`].
    ///
    /// # Errors
    ///
    /// Returns the first item error, if any.
    ///
    /// # Panics
    ///
    /// Panics if any input shape does not match the graph.
    pub fn forward_batch(&self, inputs: &[Tensor], engine: &Engine) -> Result<Vec<Tensor>> {
        // Thread-local scratch so repeat callers of the convenience
        // wrapper get the same steady-state (zero-allocation) forward as
        // `forward_batch_into` with persistent scratch. The buffers are
        // shape-agnostic and resize on demand, so sharing across graphs
        // is safe; the cost is scratch memory retained per thread.
        thread_local! {
            static SCRATCH: std::cell::RefCell<BatchScratch> =
                std::cell::RefCell::new(BatchScratch::default());
        }
        let mut outs = Vec::new();
        SCRATCH
            .with(|s| self.forward_batch_into(inputs, engine, &mut s.borrow_mut(), &mut outs))?;
        Ok(outs)
    }

    /// [`Self::forward_batch`] into reusable output and scratch state —
    /// the plan-level parallel entry point.
    ///
    /// One schedule serves every batch. When there are at least as many
    /// items as effective threads (the engine's policy clamped by
    /// hardware and by the batch's total estimated work), the items are
    /// cut into several chunks per thread and spread over the persistent
    /// worker pool, each chunk running the plan on one thread. Otherwise
    /// the whole batch is one chunk on the calling thread under the
    /// caller's engine, so the parallelism moves *inside* each op. Either
    /// way a chunk stacks each run of same-shape items into blocks of up
    /// to `STACK_BLOCK` images and runs the plan once per block, reading
    /// every layer's weights once per block instead of once per image;
    /// an item whose shape differs from its neighbours' runs alone.
    ///
    /// Results are bit-exact with per-item [`Self::forward`], and a
    /// forward of a batch size `scratch` has run before performs zero
    /// heap allocation.
    ///
    /// # Errors
    ///
    /// Returns the first item error, if any.
    ///
    /// # Panics
    ///
    /// Panics if any input shape does not match the graph.
    pub fn forward_batch_into(
        &self,
        inputs: &[Tensor],
        engine: &Engine,
        scratch: &mut BatchScratch,
        outs: &mut Vec<Tensor>,
    ) -> Result<()> {
        let n = inputs.len();
        outs.resize_with(n, Tensor::default);
        if scratch.items.len() < n {
            scratch.items.resize_with(n, Scratch::default);
        }
        let total_work = inputs
            .iter()
            .fold(0u64, |w, x| w.saturating_add(self.item_work(x)));
        let threads = engine.policy().effective_threads(total_work);
        let split = threads > 1 && n >= threads;
        // A split batch runs its chunks on one thread each; one chunk
        // (grain = the whole batch) keeps the caller's intra-op engine.
        let inner = engine.inner();
        let (grain, chunk_engine) = if split { (1, &inner) } else { (n, engine) };
        let error = std::sync::Mutex::new(None);
        engine.parallel_chunks2(
            &mut outs[..],
            1,
            &mut scratch.items[..n],
            1,
            grain,
            total_work,
            |first, outs, s| {
                let inputs = &inputs[first..first + outs.len()];
                if let Err(e) = self.forward_chunk(inputs, chunk_engine, &mut s[0], outs) {
                    error.lock().expect("batch error mutex").get_or_insert(e);
                }
            },
        );
        match error.into_inner().expect("batch error mutex") {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// One chunk of [`Self::forward_batch_into`] on the calling thread:
    /// each run of same-shape items goes through the plan in stacked
    /// blocks of at most `STACK_BLOCK`; a lone item runs by itself.
    fn forward_chunk(
        &self,
        inputs: &[Tensor],
        engine: &Engine,
        s: &mut Scratch,
        outs: &mut [Tensor],
    ) -> Result<()> {
        // Stacking cuts the weight traffic; the block bounds the
        // activation working set, which grows with every stacked image.
        // ×0.25, 32 images of 32×32, one thread, 2-vCPU AVX-512 host
        // (median p50 of six runs): one image at a time 1.39 ms, blocks
        // of 4 / 8 / 16 / 32 1.15 / 1.21 / 1.19 / 1.24 ms.
        const STACK_BLOCK: usize = 8;
        let mut start = 0;
        while start < inputs.len() {
            let shape = inputs[start].shape();
            let len = if shape.len() == 4 {
                inputs[start..]
                    .iter()
                    .take(STACK_BLOCK)
                    .take_while(|x| x.shape() == shape)
                    .count()
            } else {
                1
            };
            let (ins, os) = (&inputs[start..start + len], &mut outs[start..start + len]);
            if len == 1 {
                self.forward_into(&ins[0], engine, s, &mut os[0])?;
            } else {
                self.forward_stacked(ins, engine, s, os)?;
            }
            start += len;
        }
        Ok(())
    }

    /// Batch weight-stationary scheduling: stack same-shape items into
    /// one `[B*N, C, H, W]` input, run the compiled plan once for the
    /// whole set, and split the stacked logits back into per-item output
    /// tensors. Every op in the graph is batch-independent (convolutions
    /// and pools act per image, elementwise stages per element, the
    /// classifier per row), so this is bit-exact with per-item forwards
    /// while each layer's weights, tap tables and dispatch are paid once
    /// per block. On warmed scratch the whole path performs zero heap
    /// allocation.
    fn forward_stacked(
        &self,
        inputs: &[Tensor],
        engine: &Engine,
        s: &mut Scratch,
        outs: &mut [Tensor],
    ) -> Result<()> {
        let shape = inputs[0].shape();
        let mut stacked_shape = [0usize; 4];
        stacked_shape.copy_from_slice(shape);
        stacked_shape[0] = shape[0] * inputs.len();
        let Scratch {
            cpu,
            arena,
            stacked_in,
            stacked_out,
        } = s;
        stacked_in.reset_for_overwrite(&stacked_shape);
        let item_len = inputs[0].data().len();
        for (i, input) in inputs.iter().enumerate() {
            stacked_in.data_mut()[i * item_len..(i + 1) * item_len].copy_from_slice(input.data());
        }
        self.check_input(stacked_in);
        exec::run_plan(
            &self.nodes,
            &self.plan,
            engine,
            stacked_in,
            arena,
            cpu,
            stacked_out,
        )?;
        // Split dim 0 of the stacked output back into per-item tensors.
        // Fixed-size shape staging keeps the warm path allocation-free.
        let mut item_shape = [0usize; 8];
        let dims = stacked_out.shape().len();
        item_shape[..dims].copy_from_slice(stacked_out.shape());
        item_shape[0] = stacked_out.shape()[0] / inputs.len();
        let per = stacked_out.data().len() / inputs.len();
        for (i, out) in outs.iter_mut().enumerate() {
            out.reset_for_overwrite(&item_shape[..dims]);
            out.data_mut()
                .copy_from_slice(&stacked_out.data()[i * per..(i + 1) * per]);
        }
        Ok(())
    }

    /// The scalar reference walk: naive per-node forwards, fresh
    /// allocations, no fusion — the graph-level bit-exactness oracle.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError`] for unsupported runtime geometry.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the graph.
    pub fn forward_scalar(&self, input: &Tensor) -> Result<Tensor> {
        self.check_input(input);
        run_scalar(&self.nodes, input, None)
    }

    /// Scalar forward that also returns the binarized input of every
    /// 3×3 binary convolution, in topological order — the activation bit
    /// tensors of the paper's Sec. I observation.
    ///
    /// # Errors
    ///
    /// Returns [`BitnnError`] for unsupported runtime geometry.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the graph.
    pub fn forward_traced(&self, input: &Tensor) -> Result<(Tensor, Vec<BitTensor>)> {
        self.check_input(input);
        let mut traces = Vec::with_capacity(self.conv3.len());
        let out = run_scalar(&self.nodes, input, Some(&mut traces))?;
        Ok((out, traces))
    }

    fn check_input(&self, input: &Tensor) {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "input must be [N, C, H, W]");
        if let NodeOp::Input { channels, .. } = self.nodes[0].op {
            assert_eq!(shape[1], channels, "input channel mismatch");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv::Conv2dParams;
    use crate::weightgen::{random_floats, random_kernel};

    /// A tiny hand-built plain graph:
    /// input → stem → sign → conv3x3 → bn → act → gap → fc.
    fn plain_graph(seed: u64) -> ModelGraph {
        let c = 8;
        let stem_w = Tensor::from_vec(&[c, 3, 3, 3], random_floats(c * 3 * 9, 1.0, seed)).unwrap();
        let mut b = GraphBuilder::new("test-plain", 3, 16);
        let stem = b.push(
            "stem",
            NodeOp::StemConv(QuantConv2d::from_float(
                &stem_w,
                Conv2dParams { stride: 2, pad: 1 },
            )),
            &[0],
        );
        let sign = b.push("sign", NodeOp::Sign(RSign::zero(c)), &[stem]);
        let conv = b.push(
            "conv",
            NodeOp::BinConv(BinConv2d::new(
                random_kernel(&[c, c, 3, 3], seed ^ 1),
                Conv2dParams { stride: 1, pad: 1 },
            )),
            &[sign],
        );
        let bn = b.push("bn", NodeOp::BatchNorm(BatchNorm::identity(c)), &[conv]);
        let act = b.push("act", NodeOp::Act(RPReLU::plain(c, 0.25)), &[bn]);
        let gap = b.push("gap", NodeOp::GlobalAvgPool, &[act]);
        b.push(
            "fc",
            NodeOp::Classifier(QuantLinear::from_float(
                &random_floats(10 * c, 0.5, seed ^ 2),
                10,
                c,
            )),
            &[gap],
        );
        b.finish().unwrap()
    }

    /// A residual graph exercising all three fused shortcut forms.
    fn residual_graph(seed: u64) -> ModelGraph {
        let c = 8;
        let stem_w = Tensor::from_vec(&[c, 3, 3, 3], random_floats(c * 3 * 9, 1.0, seed)).unwrap();
        let mut b = GraphBuilder::new("test-residual", 3, 16);
        let mut x = b.push(
            "stem",
            NodeOp::StemConv(QuantConv2d::from_float(
                &stem_w,
                Conv2dParams { stride: 2, pad: 1 },
            )),
            &[0],
        );
        // Identity-shortcut block (stride 1).
        let sign = b.push("b1.sign", NodeOp::Sign(RSign::zero(c)), &[x]);
        let conv = b.push(
            "b1.conv",
            NodeOp::BinConv(BinConv2d::new(
                random_kernel(&[c, c, 3, 3], seed ^ 3),
                Conv2dParams { stride: 1, pad: 1 },
            )),
            &[sign],
        );
        let bn = b.push("b1.bn", NodeOp::BatchNorm(BatchNorm::identity(c)), &[conv]);
        let addn = b.push("b1.add", NodeOp::Add, &[bn, x]);
        x = b.push("b1.act", NodeOp::Act(RPReLU::plain(c, 0.25)), &[addn]);
        // Pool-shortcut block (stride 2).
        let sign = b.push("b2.sign", NodeOp::Sign(RSign::zero(c)), &[x]);
        let conv = b.push(
            "b2.conv",
            NodeOp::BinConv(BinConv2d::new(
                random_kernel(&[c, c, 3, 3], seed ^ 4),
                Conv2dParams { stride: 2, pad: 1 },
            )),
            &[sign],
        );
        let bn = b.push("b2.bn", NodeOp::BatchNorm(BatchNorm::identity(c)), &[conv]);
        let pool = b.push("b2.pool", NodeOp::AvgPool2x2, &[x]);
        let addn = b.push("b2.add", NodeOp::Add, &[bn, pool]);
        x = b.push("b2.act", NodeOp::Act(RPReLU::plain(c, 0.25)), &[addn]);
        // Channel-duplication block (C → 2C).
        let sign = b.push("b3.sign", NodeOp::Sign(RSign::zero(c)), &[x]);
        let conv = b.push(
            "b3.conv",
            NodeOp::BinConv(BinConv2d::new(
                random_kernel(&[2 * c, c, 3, 3], seed ^ 5),
                Conv2dParams { stride: 1, pad: 1 },
            )),
            &[sign],
        );
        let bn = b.push(
            "b3.bn",
            NodeOp::BatchNorm(BatchNorm::identity(2 * c)),
            &[conv],
        );
        let dup = b.push("b3.dup", NodeOp::ChannelDup, &[x]);
        let addn = b.push("b3.add", NodeOp::Add, &[bn, dup]);
        x = b.push("b3.act", NodeOp::Act(RPReLU::plain(2 * c, 0.25)), &[addn]);
        let gap = b.push("gap", NodeOp::GlobalAvgPool, &[x]);
        b.push(
            "fc",
            NodeOp::Classifier(QuantLinear::from_float(
                &random_floats(10 * 2 * c, 0.5, seed ^ 6),
                10,
                2 * c,
            )),
            &[gap],
        );
        b.finish().unwrap()
    }

    #[test]
    fn engine_paths_match_scalar_on_plain_and_residual_graphs() {
        for g in [plain_graph(11), residual_graph(12)] {
            let inputs: Vec<Tensor> = (0..3)
                .map(|i| {
                    Tensor::from_vec(&[1, 3, 16, 16], random_floats(3 * 256, 1.0, 40 + i)).unwrap()
                })
                .collect();
            let expect: Vec<Tensor> = inputs
                .iter()
                .map(|x| g.forward_scalar(x).unwrap())
                .collect();
            for threads in [1usize, 4] {
                let engine = Engine::with_threads(threads);
                let mut scratch = Scratch::default();
                for (x, e) in inputs.iter().zip(&expect) {
                    let y = g.forward_with(x, &engine, &mut scratch).unwrap();
                    assert_eq!(y.data(), e.data(), "{} threads {threads}", g.arch());
                }
                let batched = g.forward_batch(&inputs, &engine).unwrap();
                for (y, e) in batched.iter().zip(&expect) {
                    assert_eq!(y.data(), e.data(), "batch, {} threads", threads);
                }
            }
        }
    }

    #[test]
    fn residual_fusion_covers_all_blocks() {
        // All three shortcut forms must compile to fused steps, not
        // node-by-node evaluation.
        let g = residual_graph(13);
        let fused = g.plan.steps.iter().filter(|s| s.fused.is_some()).count();
        assert_eq!(fused, 3, "expected every block fused: {:?}", g.plan.steps);
    }

    #[test]
    fn traced_returns_conv3_inputs() {
        let g = residual_graph(14);
        let x = Tensor::from_vec(&[1, 3, 16, 16], random_floats(3 * 256, 1.0, 50)).unwrap();
        let (logits, traces) = g.forward_traced(&x).unwrap();
        assert_eq!(logits.shape(), &[1, 10]);
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[0].shape(), &[1, 8, 8, 8]);
    }

    #[test]
    fn kernel_replacement_roundtrip() {
        let mut g = plain_graph(15);
        let x = Tensor::from_vec(&[1, 3, 16, 16], random_floats(3 * 256, 1.0, 51)).unwrap();
        let y0 = g.forward(&x).unwrap();
        let mut w = g.conv3_weights(0).clone();
        for i in 0..w.len() {
            w.set(i, !w.get(i));
        }
        // Tensor and packed deployment agree.
        let mut via_packed = g.clone();
        via_packed
            .set_conv3_packed(0, PackedKernel::pack(&w).unwrap())
            .unwrap();
        g.set_conv3_weights(0, w).unwrap();
        let y1 = g.forward(&x).unwrap();
        assert_ne!(y0.data(), y1.data());
        assert_eq!(y1.data(), via_packed.forward(&x).unwrap().data());
        // Shape changes are typed errors, not panics.
        assert!(g
            .set_conv3_weights(0, BitTensor::zeros(&[1, 8, 3, 3]))
            .is_err());
        assert!(g
            .set_conv3_packed(
                9,
                PackedKernel::pack(&BitTensor::zeros(&[8, 8, 3, 3])).unwrap()
            )
            .is_err());
    }

    #[test]
    fn layer_geometry_cross_check() {
        // A bn whose channel count disagrees with the graph must be
        // rejected at construction.
        let c = 8;
        let stem_w = Tensor::from_vec(&[c, 3, 3, 3], random_floats(c * 27, 1.0, 1)).unwrap();
        let mut b = GraphBuilder::new("bad", 3, 16);
        let stem = b.push(
            "stem",
            NodeOp::StemConv(QuantConv2d::from_float(
                &stem_w,
                Conv2dParams { stride: 2, pad: 1 },
            )),
            &[0],
        );
        let bn = b.push("bn", NodeOp::BatchNorm(BatchNorm::identity(c + 1)), &[stem]);
        let gap = b.push("gap", NodeOp::GlobalAvgPool, &[bn]);
        b.push(
            "fc",
            NodeOp::Classifier(QuantLinear::from_float(
                &random_floats(10 * c, 0.5, 2),
                10,
                c,
            )),
            &[gap],
        );
        assert!(matches!(b.finish(), Err(BitnnError::InvalidConfig(_))));
    }

    #[test]
    fn arena_assignment_is_compact_and_alias_free_on_builtins() {
        for arch in crate::graph::arch::Arch::ALL {
            let g = crate::graph::arch::build_model(arch, 0.0625, 16, 3).unwrap();
            g.plan.check_no_aliasing().unwrap();
            // Liveness compaction: the arena must be much smaller than one
            // slot per node (the whole point of the liveness pass).
            assert!(
                g.plan.slots < g.nodes.len() / 2,
                "{arch}: {} slots for {} nodes",
                g.plan.slots,
                g.nodes.len()
            );
        }
    }

    /// Build a random-but-valid graph: a chain of bn/act/conv/pool ops
    /// with occasional skip-connection adds to random earlier same-shape
    /// values. Multi-consumer values and reconvergent adds are exactly
    /// what stresses the liveness-driven slot recycling.
    fn random_chain_graph(ops: &[usize], picks: &[usize], seed: u64) -> ModelGraph {
        let c = 8;
        let stem_w = Tensor::from_vec(&[c, 3, 3, 3], random_floats(c * 27, 1.0, seed)).unwrap();
        let mut b = GraphBuilder::new("test-random", 3, 8);
        let mut x = b.push(
            "stem",
            NodeOp::StemConv(QuantConv2d::from_float(
                &stem_w,
                Conv2dParams { stride: 1, pad: 1 },
            )),
            &[0],
        );
        let mut size = 8usize; // stride-1 stem keeps the input size
                               // Every produced map-shaped value with its spatial size, for
                               // skip-add shape matching.
        let mut avail: Vec<(usize, usize)> = vec![(x, size)];
        for (i, (&op, &pick)) in ops.iter().zip(picks).enumerate() {
            x = match op {
                0 => b.push(
                    format!("bn{i}"),
                    NodeOp::BatchNorm(BatchNorm::identity(c)),
                    &[x],
                ),
                1 => b.push(format!("act{i}"), NodeOp::Act(RPReLU::plain(c, 0.25)), &[x]),
                2 => {
                    // Skip add with a random earlier same-shape value
                    // (falls back to self-add when none exists).
                    let same: Vec<usize> = avail
                        .iter()
                        .filter(|&&(_, s)| s == size)
                        .map(|&(id, _)| id)
                        .collect();
                    let other = same[pick % same.len()];
                    b.push(format!("add{i}"), NodeOp::Add, &[x, other])
                }
                3 => {
                    let sign = b.push(format!("sign{i}"), NodeOp::Sign(RSign::zero(c)), &[x]);
                    b.push(
                        format!("conv{i}"),
                        NodeOp::BinConv(BinConv2d::new(
                            random_kernel(&[c, c, 3, 3], seed ^ i as u64),
                            Conv2dParams { stride: 1, pad: 1 },
                        )),
                        &[sign],
                    )
                }
                _ => {
                    if size < 2 {
                        continue; // too small to pool again
                    }
                    size = size.div_ceil(2);
                    b.push(format!("pool{i}"), NodeOp::AvgPool2x2, &[x])
                }
            };
            avail.push((x, size));
        }
        let gap = b.push("gap", NodeOp::GlobalAvgPool, &[x]);
        b.push(
            "fc",
            NodeOp::Classifier(QuantLinear::from_float(
                &random_floats(10 * c, 0.5, seed ^ 0xFC),
                10,
                c,
            )),
            &[gap],
        );
        b.finish().unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Satellite: arena-reused buffers never alias across plan steps —
        /// for random graphs with skip connections, every pair of values
        /// sharing an arena slot has strictly disjoint lifetimes, and the
        /// arena executor stays bit-exact with the scalar walk.
        #[test]
        fn arena_slots_never_alias_live_values(
            ops in proptest::collection::vec(0usize..5, 1..24),
            picks in proptest::collection::vec(0usize..64, 24),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let g = random_chain_graph(&ops, &picks, seed);
            g.plan.check_no_aliasing().unwrap();
            let x = Tensor::from_vec(&[1, 3, 8, 8], random_floats(3 * 64, 1.0, seed ^ 9)).unwrap();
            let scalar = g.forward_scalar(&x).unwrap();
            let mut scratch = Scratch::default();
            let engine = Engine::single_threaded();
            // Two consecutive forwards through the same arena: the second
            // run reuses every slot buffer and must stay bit-exact.
            for _ in 0..2 {
                let y = g.forward_with(&x, &engine, &mut scratch).unwrap();
                proptest::prop_assert_eq!(y.data(), scalar.data());
            }
        }
    }

    /// A built-in arch's plan, one word per step (`fused` for a fused
    /// conv chain, else the op tag of the node the step produces), and
    /// the arch's binary conv count.
    fn plan_words(arch: arch::Arch) -> (Vec<&'static str>, usize) {
        let g = arch::build_model(arch, 0.0625, 16, 7).unwrap();
        let words = g
            .plan
            .steps
            .iter()
            .map(|s| match s.fused {
                Some(_) => "fused",
                None => g.nodes[s.node].op.tag(),
            })
            .collect();
        let convs = g.nodes.iter().filter(|n| n.op.tag() == "bin_conv").count();
        (words, convs)
    }

    #[test]
    fn builtin_arch_plans_are_pinned() {
        // A planner that stops fusing stays bit-exact and only gets
        // slower, so each built-in arch's fused plan is pinned here.
        let count = |plan: &[&str], word: &str| plan.iter().filter(|w| **w == word).count();
        let unfused = ["batch_norm", "act", "add", "avg_pool_2x2", "channel_dup"];

        // ReActNet: every block's 3×3 and 1×1 stage is one fused step.
        let (rn, convs) = plan_words(arch::Arch::ReActNet);
        assert_eq!(count(&rn, "fused"), convs, "{rn:?}");
        for word in unfused.iter().chain(&["bin_conv"]) {
            assert_eq!(count(&rn, word), 0, "stand-alone {word}: {rn:?}");
        }
        assert_eq!(rn.len(), convs + 4, "{rn:?}");

        // ResNet-lite: eight fused blocks, nothing left unfused.
        let (rl, convs) = plan_words(arch::Arch::ResNetLite);
        assert_eq!((count(&rl, "fused"), convs), (8, 8), "{rl:?}");
        for word in unfused.iter().chain(&["bin_conv"]) {
            assert_eq!(count(&rl, word), 0, "stand-alone {word}: {rl:?}");
        }

        // VGG-small has no shortcut, so nothing fuses: five plain
        // conv → bn → act runs.
        let (vgg, convs) = plan_words(arch::Arch::VggSmall);
        assert_eq!(count(&vgg, "fused"), 0, "{vgg:?}");
        let runs = vgg
            .windows(3)
            .filter(|w| *w == ["bin_conv", "batch_norm", "act"])
            .count();
        assert_eq!((runs, count(&vgg, "bin_conv"), convs), (5, 5, 5), "{vgg:?}");
    }

    #[test]
    fn workloads_follow_the_graph() {
        let g = residual_graph(16);
        let wls = g.workloads();
        // stem + 3 convs + fc.
        assert_eq!(wls.len(), 5);
        assert_eq!(wls[0].name, "input.conv");
        assert_eq!(wls[4].name, "output.fc");
        // Stride-2 block halves the spatial dims: 16 → stem 8 → b2 4.
        assert_eq!(wls[2].oh, 4);
    }
}
