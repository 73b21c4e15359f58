//! The CPU step kernels: each step of the fused plan lowered onto the
//! tiled/parallel [`Engine`] kernels, over pixel-major (`[n, h, w, c]`)
//! `f32` activations. A conv step binarizes its input rows straight into
//! channel-packed lane words, and the conv's `[pixel][filter]` `i32` rows
//! become the output activations through one epilogue that runs inside
//! the conv's parallel chunks. On a warmed scratch the whole forward
//! performs zero heap allocation.

use super::layer;
use super::stages::{add_into, channel_dup_nhwc_into, epilogue_rows, Epilogue, Residual};
use crate::engine::{CpuScratch, Engine};
use crate::error::{BitnnError, Result};
use crate::graph::{GraphNode, NodeOp, Step};
use crate::layers::{avg_pool_2x2_nhwc_into, global_avg_pool_nhwc_into};
use crate::tensor::Tensor;

/// Execute one plan step into `dst` (a recycled arena buffer whose
/// previous contents are unspecified). `a` and `b` are the operand
/// values the dispatch loop resolved: every non-input step reads `a`,
/// and only [`Step::Add`] reads `b`. Every 4-D value is pixel-major
/// `[n, h, w, c]`, except that a stem reading the graph input gets it as
/// given, `[n, c, h, w]` (`a_is_nchw`).
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
    match *step {
        Step::Input { .. } => unreachable!("the dispatch loop skips input steps"),
        Step::Stem { node, .. } => {
            let stem = layer!(nodes, node, NodeOp::StemConv);
            if a_is_nchw {
                stem.forward_fast_with(a, &mut s.quant, dst);
            } else {
                stem.forward_nhwc_with(a, &mut s.quant, dst);
            }
        }
        Step::Conv { node, sign, .. } => {
            conv_step(nodes, sign, node, a, engine, s, dst, |_| {
                Ok(Epilogue::Convert)
            })?;
        }
        Step::Bn { node, .. } => {
            layer!(nodes, node, NodeOp::BatchNorm).forward_nhwc_into(a, dst);
        }
        Step::Act { node, .. } => {
            layer!(nodes, node, NodeOp::Act).forward_nhwc_into(a, dst);
        }
        Step::AvgPool { .. } => {
            avg_pool_2x2_nhwc_into(a, dst);
        }
        Step::ChannelDup { .. } => {
            channel_dup_nhwc_into(a, 2 * a.shape()[3], dst)?;
        }
        Step::Add { .. } => {
            // `Step::read_pair` gives every add two operands; a step list
            // built some other way is rejected rather than trusted.
            let b = b.ok_or_else(|| {
                BitnnError::Unsupported("add step without its second operand".into())
            })?;
            add_into(a, b, dst);
        }
        Step::GlobalPool { .. } => {
            global_avg_pool_nhwc_into(a, dst);
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
            let (bn, act) = (
                layer!(nodes, bn, NodeOp::BatchNorm),
                layer!(nodes, act, NodeOp::Act),
            );
            let (h, w) = (a.shape()[1], a.shape()[2]);
            let residual = Residual::Pool {
                src: a.data(),
                h,
                w,
            };
            conv_step(nodes, sign, conv, a, engine, s, dst, |geom| {
                Epilogue::fused(bn, act, residual, geom)
            })?;
        }
        Step::FusedChannel {
            act,
            sign,
            conv,
            bn,
            ..
        } => {
            let (bn, act) = (
                layer!(nodes, bn, NodeOp::BatchNorm),
                layer!(nodes, act, NodeOp::Act),
            );
            let residual = Residual::Channels {
                src: a.data(),
                c_in: a.shape()[3],
            };
            conv_step(nodes, sign, conv, a, engine, s, dst, |geom| {
                Epilogue::fused(bn, act, residual, geom)
            })?;
        }
    }
    Ok(())
}

/// The `sign → binary conv → epilogue` body of every conv-bearing step:
/// the sign packs `x`'s pixel rows into `s.packed`, the conv computes its
/// `[pixel][filter]` rows, and the epilogue `epilogue(geom)` builds for
/// the output geometry `(n, oh, ow, filters)` turns each band of them
/// into `dst`'s rows inside the conv's parallel chunk.
#[allow(clippy::too_many_arguments)]
fn conv_step<'a>(
    nodes: &[GraphNode],
    sign: usize,
    conv: usize,
    x: &Tensor,
    engine: &Engine,
    s: &mut CpuScratch,
    dst: &mut Tensor,
    epilogue: impl FnOnce((usize, usize, usize, usize)) -> Result<Epilogue<'a>>,
) -> Result<()> {
    let sg = layer!(nodes, sign, NodeOp::Sign);
    let cv = layer!(nodes, conv, NodeOp::BinConv);
    sg.binarize_nhwc_packed_with(x, engine, &mut s.packed);
    let ((kh, kw), params) = (cv.kernel_size(), cv.params());
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
        cv.forms_for(engine),
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
        let step = Step::Add {
            node: 2,
            a: 0,
            b: 1,
        };
        let mut dst = Tensor::default();
        let got = run_step(
            &[],
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
