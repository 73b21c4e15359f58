//! The CPU step kernels: each step of the fused plan lowered onto the
//! tiled/parallel [`Engine`] kernels, with binarization and channel
//! packing staged through reused scratch buffers. On a warmed scratch the
//! whole forward performs zero heap allocation.

use super::layer;
use super::stages::{add_into, fuse_channel_stage, fuse_spatial_stage, shortcut_channels_into};
use crate::engine::{ConvScratch, CpuScratch, Engine};
use crate::error::Result;
use crate::graph::{GraphNode, NodeOp, Step};
use crate::layers::{avg_pool_2x2_into, global_avg_pool_into, BinConv2d, RSign};
use crate::pack::PackedActivations;
use crate::tensor::Tensor;

/// Execute one plan step into `dst` (a recycled arena buffer whose
/// previous contents are unspecified). `a` and `b` are the operand
/// values the dispatch loop resolved: every non-input step reads `a`,
/// and only [`Step::Add`] reads `b`.
///
/// # Errors
///
/// Returns [`crate::BitnnError`] for unsupported runtime geometry
/// (e.g. a fused shortcut stride other than 1 or 2).
pub(crate) fn run_step(
    nodes: &[GraphNode],
    step: &Step,
    a: &Tensor,
    b: Option<&Tensor>,
    engine: &Engine,
    s: &mut CpuScratch,
    dst: &mut Tensor,
) -> Result<()> {
    match *step {
        Step::Input { .. } => unreachable!("the dispatch loop skips input steps"),
        Step::Stem { node, .. } => {
            let stem = layer!(nodes, node, NodeOp::StemConv);
            stem.forward_fast_with(a, &mut s.quant, dst);
        }
        Step::Conv { node, sign, .. } => {
            let sg = layer!(nodes, sign, NodeOp::Sign);
            let cv = layer!(nodes, node, NodeOp::BinConv);
            sign_conv_stage(sg, cv, a, engine, &mut s.packed, &mut s.conv, dst);
        }
        Step::Bn { node, .. } => {
            layer!(nodes, node, NodeOp::BatchNorm).forward_into(a, dst);
        }
        Step::Act { node, .. } => {
            layer!(nodes, node, NodeOp::Act).forward_into(a, dst);
        }
        Step::AvgPool { .. } => {
            avg_pool_2x2_into(a, dst);
        }
        Step::ChannelDup { .. } => {
            shortcut_channels_into(a, 2 * a.shape()[1], dst);
        }
        Step::Add { .. } => {
            add_into(a, b.expect("add step has two operands"), dst);
        }
        Step::GlobalPool { .. } => {
            global_avg_pool_into(a, dst);
        }
        Step::Classifier { node, .. } => {
            let fc = layer!(nodes, node, NodeOp::Classifier);
            fc.forward_2d_with(a, &mut s.quant, dst);
        }
        Step::FusedSpatial {
            act,
            sign,
            conv,
            bn,
            ..
        } => {
            conv_chain_into(nodes, sign, conv, a, engine, s);
            return fuse_spatial_stage(
                &s.conv_out,
                a,
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
            conv_chain_into(nodes, sign, conv, a, engine, s);
            fuse_channel_stage(
                &s.conv_out,
                a,
                layer!(nodes, bn, NodeOp::BatchNorm),
                layer!(nodes, act, NodeOp::Act),
                dst,
            );
        }
    }
    Ok(())
}

/// The staged `sign → binary conv` prefix shared by every conv-bearing
/// step.
///
/// The sign writes channel-packed lane words straight into `packed` and
/// the conv consumes them — the flat bit tensor is never materialized and
/// the per-conv re-pack (64 strided single-bit gathers per lane word)
/// disappears.
fn sign_conv_stage(
    sg: &RSign,
    cv: &BinConv2d,
    x: &Tensor,
    engine: &Engine,
    packed: &mut PackedActivations,
    conv: &mut ConvScratch,
    dst: &mut Tensor,
) {
    sg.binarize_packed_into(x, packed);
    cv.forward_packed_with(packed, engine, conv, dst);
}

/// The staged `sign → binary conv` prefix of a fused step, landing in
/// `s.conv_out`.
fn conv_chain_into(
    nodes: &[GraphNode],
    sign: usize,
    conv: usize,
    x: &Tensor,
    engine: &Engine,
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
    sign_conv_stage(sg, cv, x, engine, packed, conv_scratch, conv_out);
}
