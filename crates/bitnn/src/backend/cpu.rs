//! The CPU step kernels: each step of the fused plan lowered onto the
//! tiled/parallel [`Engine`] kernels, over pixel-major (`[n, h, w, c]`)
//! `f32` activations. A conv step binarizes its input rows straight into
//! channel-packed lane words, and the conv's `[pixel][filter]` `i32` rows
//! become the output activations through one epilogue that runs inside
//! the conv's parallel chunks. On a warmed scratch the whole forward
//! performs zero heap allocation.

use super::layer;
use super::stages::{add_into, channel_dup_nhwc_into, epilogue_rows, Epilogue, Residual};
use crate::engine::{conv_border, CpuScratch, Engine};
use crate::error::{BitnnError, Result};
use crate::graph::{GraphNode, NodeOp, Step};
use crate::layers::{avg_pool_2x2_nhwc_into, global_avg_pool_nhwc_into};
use crate::tensor::Tensor;

/// Execute one plan step into `dst` (a recycled arena buffer whose
/// previous contents are unspecified) by the kernel of the step node's
/// op. `a` and `b` are the step's `src` and `rhs` values, as the
/// dispatch loop resolved them. Every 4-D value is pixel-major
/// `[n, h, w, c]`, except that a stem reading the graph input gets it as
/// given, `[n, c, h, w]` (`a_is_nchw`).
///
/// A fused step is its act's arm: it reaches the conv through the
/// batch-norm's input, and adds `a` as the 2×2-pooled shortcut of a
/// stride-2 conv or the identity (or duplicated) shortcut otherwise —
/// the forms [`crate::graph`]'s planner fuses.
///
/// # Errors
///
/// Returns [`BitnnError::Unsupported`] for runtime geometry the step
/// kernels cannot apply (e.g. a shortcut that does not fit its conv's
/// output) and for an add step without its second operand.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_step(
    nodes: &[GraphNode],
    step: &Step,
    a: &Tensor,
    b: Option<&Tensor>,
    a_is_nchw: bool,
    engine: &Engine,
    s: &mut CpuScratch,
    dst: &mut Tensor,
) -> Result<()> {
    match nodes[step.node].op {
        NodeOp::Input { .. } | NodeOp::Sign(_) => {
            unreachable!("the dispatch loop skips input steps, and signs are folded")
        }
        NodeOp::StemConv(ref stem) if a_is_nchw => stem.forward_fast_with(a, &mut s.quant, dst),
        NodeOp::StemConv(ref stem) => stem.forward_nhwc_with(a, &mut s.quant, dst),
        NodeOp::BinConv(_) => {
            conv_step(nodes, step.node, a, engine, s, dst, |_| {
                Ok(Epilogue::Convert)
            })?;
        }
        NodeOp::BatchNorm(ref bn) => bn.forward_nhwc_into(a, dst),
        NodeOp::Act(ref act) => match step.fused {
            None => act.forward_nhwc_into(a, dst),
            Some(bn) => {
                let conv = nodes[bn].inputs[0];
                let residual = if layer!(nodes, conv, NodeOp::BinConv).params().stride == 2 {
                    let (h, w) = (a.shape()[1], a.shape()[2]);
                    Residual::Pool {
                        src: a.data(),
                        h,
                        w,
                    }
                } else {
                    Residual::Channels {
                        src: a.data(),
                        c_in: a.shape()[3],
                    }
                };
                let bn = layer!(nodes, bn, NodeOp::BatchNorm);
                conv_step(nodes, conv, a, engine, s, dst, |geom| {
                    Epilogue::fused(bn, act, residual, geom)
                })?;
            }
        },
        NodeOp::AvgPool2x2 => avg_pool_2x2_nhwc_into(a, dst),
        NodeOp::ChannelDup => channel_dup_nhwc_into(a, 2 * a.shape()[3], dst)?,
        NodeOp::Add => {
            // The planner gives every add two operands; a step list
            // built some other way is rejected rather than trusted.
            let b = b.ok_or_else(|| {
                BitnnError::Unsupported("add step without its second operand".into())
            })?;
            add_into(a, b, dst);
        }
        NodeOp::GlobalAvgPool => global_avg_pool_nhwc_into(a, dst),
        NodeOp::Classifier(ref fc) => fc.forward_2d_with(a, &mut s.quant, dst),
    }
    Ok(())
}

/// The `sign → binary conv → epilogue` body of every conv-bearing step:
/// the conv's folded sign packs `x`'s pixel rows into `s.packed`
/// (zero-bordered as far as the conv's live taps reach), the conv
/// computes its `[pixel][filter]` rows, and the epilogue `epilogue(geom)`
/// builds for the output geometry `(n, oh, ow, filters)` turns each band
/// of them into `dst`'s rows inside the conv's parallel chunk.
fn conv_step<'a>(
    nodes: &[GraphNode],
    conv: usize,
    x: &Tensor,
    engine: &Engine,
    s: &mut CpuScratch,
    dst: &mut Tensor,
    epilogue: impl FnOnce((usize, usize, usize, usize)) -> Result<Epilogue<'a>>,
) -> Result<()> {
    let sg = layer!(nodes, nodes[conv].inputs[0], NodeOp::Sign);
    let cv = layer!(nodes, conv, NodeOp::BinConv);
    let ((kh, kw), params) = (cv.kernel_size(), cv.params());
    // The packed rows carry the zero border the conv's live taps reach
    // into, so it reads every window in place.
    let border = conv_border(x.shape()[1], x.shape()[2], kh, kw, params);
    sg.binarize_nhwc_packed_with(x, border, engine, &mut s.packed);
    let geom = (
        s.packed.batch(),
        params.out_dim(s.packed.height(), kh),
        params.out_dim(s.packed.width(), kw),
        cv.filters(),
    );
    let ep = epilogue(geom)?;
    dst.reset_for_overwrite(&[geom.0, geom.1, geom.2, geom.3]);
    engine.conv2d_rows(
        &s.packed,
        cv.packed(),
        params,
        &mut s.conv,
        dst.data_mut(),
        |first, acc, out| epilogue_rows(&ep, first, acc, out),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_without_second_operand_is_a_typed_error() {
        let a = Tensor::full(&[1, 2, 2, 3], 1.0);
        let nodes = [GraphNode {
            name: "add".into(),
            op: NodeOp::Add,
            inputs: vec![0, 0],
        }];
        let step = Step {
            node: 0,
            src: Some(0),
            rhs: Some(0),
            fused: None,
        };
        let mut dst = Tensor::default();
        let got = run_step(
            &nodes,
            &step,
            &a,
            None,
            false,
            &Engine::single_threaded(),
            &mut CpuScratch::default(),
            &mut dst,
        );
        assert!(matches!(got, Err(BitnnError::Unsupported(_))));
    }
}
