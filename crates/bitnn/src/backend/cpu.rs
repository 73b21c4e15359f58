//! The production CPU backend: fused steps lowered onto the
//! tiled/parallel [`Engine`] kernels, with binarization and channel
//! packing staged through reused scratch buffers. On a warmed scratch the
//! whole forward performs zero heap allocation.

use std::any::Any;

use super::stages::{add_into, fuse_channel_stage, fuse_spatial_stage, shortcut_channels_into};
use super::{layer, Backend, StepCtx};
use crate::engine::{ConvScratch, CpuScratch, Engine};
use crate::error::Result;
use crate::exec::ExecPolicy;
use crate::graph::{fused_steps, CompiledPlan, GraphNode, NodeOp, Step};
use crate::layers::{avg_pool_2x2_into, global_avg_pool_into, BinConv2d, RSign};
use crate::pack::PackedActivations;
use crate::tensor::Tensor;

/// The engine-accelerated backend. Compiles the *fused* step list —
/// sign folded into conv, every single-use `conv → bn → (+shortcut) →
/// act` chain collapsed onto one fused element-wise kernel — and executes
/// it through [`Engine`]'s tiled, SIMD-dispatched, optionally parallel
/// kernels with a [`CpuScratch`] of reused staging buffers.
#[derive(Debug, Clone)]
pub struct CpuBackend {
    engine: Engine,
}

impl CpuBackend {
    /// Backend running on `engine`'s policy (threads, lowering).
    pub fn new(engine: Engine) -> Self {
        CpuBackend { engine }
    }

    /// The engine this backend dispatches kernels through.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl Backend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn compile(&self, nodes: &[GraphNode]) -> CompiledPlan {
        CompiledPlan::from_steps(nodes.len(), fused_steps(nodes))
    }

    fn new_scratch(&self) -> Box<dyn Any + Send> {
        Box::new(CpuScratch::default())
    }

    fn execute_step(
        &self,
        ctx: StepCtx<'_>,
        scratch: &mut (dyn Any + Send),
        dst: &mut Tensor,
    ) -> Result<()> {
        let s = scratch
            .downcast_mut::<CpuScratch>()
            .expect("CpuBackend scratch is CpuScratch");
        let nodes = ctx.nodes;
        match *ctx.step {
            Step::Input { .. } => unreachable!("the dispatch loop skips input steps"),
            Step::Stem { node, .. } => {
                let stem = layer!(nodes, node, NodeOp::StemConv);
                stem.forward_fast_with(ctx.a, &mut s.quant, dst);
            }
            Step::Conv { node, sign, .. } => {
                let sg = layer!(nodes, sign, NodeOp::Sign);
                let cv = layer!(nodes, node, NodeOp::BinConv);
                self.sign_conv_stage(sg, cv, ctx.a, &mut s.packed, &mut s.conv, dst);
            }
            Step::Bn { node, .. } => {
                layer!(nodes, node, NodeOp::BatchNorm).forward_into(ctx.a, dst);
            }
            Step::Act { node, .. } => {
                layer!(nodes, node, NodeOp::Act).forward_into(ctx.a, dst);
            }
            Step::AvgPool { .. } => {
                avg_pool_2x2_into(ctx.a, dst);
            }
            Step::ChannelDup { .. } => {
                shortcut_channels_into(ctx.a, 2 * ctx.a.shape()[1], dst);
            }
            Step::Add { .. } => {
                add_into(ctx.a, ctx.b.expect("add step has two operands"), dst);
            }
            Step::GlobalPool { .. } => {
                global_avg_pool_into(ctx.a, dst);
            }
            Step::Classifier { node, .. } => {
                let fc = layer!(nodes, node, NodeOp::Classifier);
                fc.forward_2d_with(ctx.a, &mut s.quant, dst);
            }
            Step::FusedSpatial {
                act,
                sign,
                conv,
                bn,
                ..
            } => {
                self.conv_chain_into(nodes, sign, conv, ctx.a, s);
                return fuse_spatial_stage(
                    &s.conv_out,
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
                self.conv_chain_into(nodes, sign, conv, ctx.a, s);
                fuse_channel_stage(
                    &s.conv_out,
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
        self.engine.policy()
    }
}

impl CpuBackend {
    /// The staged `sign → binary conv` prefix shared by every
    /// conv-bearing step.
    ///
    /// The sign writes channel-packed lane words straight into `packed`
    /// and the conv consumes them — the flat bit tensor is never
    /// materialized and the per-conv re-pack (64 strided single-bit
    /// gathers per lane word) disappears.
    fn sign_conv_stage(
        &self,
        sg: &RSign,
        cv: &BinConv2d,
        x: &Tensor,
        packed: &mut PackedActivations,
        conv: &mut ConvScratch,
        dst: &mut Tensor,
    ) {
        sg.binarize_packed_into(x, packed);
        cv.forward_packed_with(packed, &self.engine, conv, dst);
    }

    /// The staged `sign → binary conv` prefix of a fused step, landing
    /// in `scratch.conv_out`.
    fn conv_chain_into(
        &self,
        nodes: &[GraphNode],
        sign: usize,
        conv: usize,
        x: &Tensor,
        s: &mut CpuScratch,
    ) {
        let sg = layer!(nodes, sign, NodeOp::Sign);
        let cv = layer!(nodes, conv, NodeOp::BinConv);
        let CpuScratch {
            packed,
            conv: conv_scratch,
            conv_out,
            ..
        } = s;
        self.sign_conv_stage(sg, cv, x, packed, conv_scratch, conv_out);
    }
}
