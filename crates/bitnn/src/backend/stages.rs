//! Element-wise stage kernels: the fused `BatchNorm → (+ shortcut) →
//! RPReLU` passes the plan's fused steps lower onto, and the shortcut
//! add / channel duplication that both the CPU steps and the scalar
//! oracle use.

use crate::error::{BitnnError, Result};
use crate::layers::prelu::apply_params;
use crate::layers::{BatchNorm, RPReLU};
use crate::tensor::Tensor;

/// Fused `BatchNorm → (+ spatial shortcut) → RPReLU` for the 3×3 stage:
/// one pass over the conv output instead of three tensor-sized passes and
/// two intermediate allocations. Applies, per element, exactly
/// `act(bn(conv) + shortcut)` in the scalar path's operation order, with
/// the stride-2 average-pool shortcut computed on the fly. Dispatches to
/// an AVX2 instantiation when available (see [`crate::simd`]). The plan's
/// fused steps ([`crate::graph`]) lower this pattern onto it wherever it
/// appears in a model graph.
#[inline]
pub(crate) fn fuse_spatial_stage(
    conv: &Tensor,
    x: &Tensor,
    stride: usize,
    bn: &BatchNorm,
    act: &RPReLU,
    out: &mut Tensor,
) -> Result<()> {
    #[cfg(target_arch = "x86_64")]
    {
        /// AVX2 instantiation of [`fuse_spatial_portable`].
        #[target_feature(enable = "avx2")]
        unsafe fn fuse_spatial_avx2(
            conv: &Tensor,
            x: &Tensor,
            stride: usize,
            bn: &BatchNorm,
            act: &RPReLU,
            out: &mut Tensor,
        ) -> Result<()> {
            fuse_spatial_portable(conv, x, stride, bn, act, out)
        }
        if crate::simd::avx2() {
            // SAFETY: avx2 was detected at runtime.
            return unsafe { fuse_spatial_avx2(conv, x, stride, bn, act, out) };
        }
    }
    fuse_spatial_portable(conv, x, stride, bn, act, out)
}

/// Portable body of [`fuse_spatial_stage`].
#[inline(always)]
fn fuse_spatial_portable(
    conv: &Tensor,
    x: &Tensor,
    stride: usize,
    bn: &BatchNorm,
    act: &RPReLU,
    out: &mut Tensor,
) -> Result<()> {
    if stride != 1 && stride != 2 {
        return Err(BitnnError::Unsupported(format!(
            "shortcut stride {stride} (only 1 and 2 are defined)"
        )));
    }
    let shape = conv.shape();
    let (n, c, oh, ow) = (shape[0], shape[1], shape[2], shape[3]);
    let (h, w) = (x.shape()[2], x.shape()[3]);
    // Every element is written below, so skip the zero-fill.
    out.reset_for_overwrite(shape);
    let scale = bn.folded_scale();
    let offset = bn.folded_offset();
    let cd = conv.data();
    let xd = x.data();
    let od = out.data_mut();
    let ohw = oh * ow;
    let hw = h * w;
    for img in 0..n {
        for ch in 0..c {
            let (s, o) = (scale[ch], offset[ch]);
            let (si, sl, so) = act.channel_params(ch);
            let crow = &cd[(img * c + ch) * ohw..][..ohw];
            let xrow = &xd[(img * c + ch) * hw..][..hw];
            let orow = &mut od[(img * c + ch) * ohw..][..ohw];
            match stride {
                1 => {
                    for ((ov, &cv), &xv) in orow.iter_mut().zip(crow).zip(xrow) {
                        *ov = apply_params(si, sl, so, (s * cv + o) + xv);
                    }
                }
                _ => {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            // 2×2 average pool with the trailing odd
                            // row/column dropped — same accumulation order
                            // as `avg_pool_2x2`.
                            let mut acc = 0.0f32;
                            let mut cnt = 0;
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    let y = oy * 2 + dy;
                                    let xx = ox * 2 + dx;
                                    if y < h && xx < w {
                                        acc += xrow[y * w + xx];
                                        cnt += 1;
                                    }
                                }
                            }
                            let sc = acc / cnt as f32;
                            let i = oy * ow + ox;
                            orow[i] = apply_params(si, sl, so, (s * crow[i] + o) + sc);
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Fused `BatchNorm → (+ channel shortcut) → RPReLU` for the 1×1 stage,
/// written into a reusable output tensor. The channel-duplication
/// shortcut (`C → 2C` blocks) reads channel `ch % C` of `mid` on the fly
/// instead of materializing the widened tensor. Dispatches to an AVX2
/// instantiation when available.
#[inline]
pub(crate) fn fuse_channel_stage(
    conv: &Tensor,
    mid: &Tensor,
    bn: &BatchNorm,
    act: &RPReLU,
    out: &mut Tensor,
) {
    #[cfg(target_arch = "x86_64")]
    {
        /// AVX2 instantiation of [`fuse_channel_portable`].
        #[target_feature(enable = "avx2")]
        unsafe fn fuse_channel_avx2(
            conv: &Tensor,
            mid: &Tensor,
            bn: &BatchNorm,
            act: &RPReLU,
            out: &mut Tensor,
        ) {
            fuse_channel_portable(conv, mid, bn, act, out);
        }
        if crate::simd::avx2() {
            // SAFETY: avx2 was detected at runtime.
            return unsafe { fuse_channel_avx2(conv, mid, bn, act, out) };
        }
    }
    fuse_channel_portable(conv, mid, bn, act, out)
}

/// Portable body of [`fuse_channel_stage`].
#[inline(always)]
fn fuse_channel_portable(
    conv: &Tensor,
    mid: &Tensor,
    bn: &BatchNorm,
    act: &RPReLU,
    out: &mut Tensor,
) {
    let shape = conv.shape();
    let (n, c_out, oh, ow) = (shape[0], shape[1], shape[2], shape[3]);
    let c_in = mid.shape()[1];
    assert!(
        c_out == c_in || c_out == 2 * c_in,
        "channel shortcut requires C or 2C output"
    );
    // Every element is written below, so skip the zero-fill.
    out.reset_for_overwrite(shape);
    let scale = bn.folded_scale();
    let offset = bn.folded_offset();
    let cd = conv.data();
    let md = mid.data();
    let od = out.data_mut();
    let ohw = oh * ow;
    for img in 0..n {
        for ch in 0..c_out {
            let (s, o) = (scale[ch], offset[ch]);
            let (si, sl, so) = act.channel_params(ch);
            let crow = &cd[(img * c_out + ch) * ohw..][..ohw];
            let mrow = &md[(img * c_in + ch % c_in) * ohw..][..ohw];
            let orow = &mut od[(img * c_out + ch) * ohw..][..ohw];
            for ((ov, &cv), &mv) in orow.iter_mut().zip(crow).zip(mrow) {
                *ov = apply_params(si, sl, so, (s * cv + o) + mv);
            }
        }
    }
}

/// Element-wise sum of same-shape tensors.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    add_into(a, b, &mut out);
    out
}

/// [`add`] into a reusable output tensor (the graph executor's arena
/// path). Bit-exact: the same element-wise sum.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn add_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(a.shape(), b.shape(), "add: shape mismatch");
    out.reset_for_overwrite(a.shape());
    for ((o, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
        *o = x + y;
    }
}

/// Channel shortcut: identity when counts match, duplication (concat with
/// itself) when the block doubles the channels — the graph's
/// `ChannelDup` node.
///
/// # Panics
///
/// Panics if `out_ch` is neither `C` nor `2C`.
pub(crate) fn shortcut_channels(x: &Tensor, out_ch: usize) -> Tensor {
    let mut out = Tensor::default();
    shortcut_channels_into(x, out_ch, &mut out);
    out
}

/// [`shortcut_channels`] into a reusable output tensor (the graph
/// executor's arena path).
///
/// # Panics
///
/// Panics if `out_ch` is neither `C` nor `2C`.
pub(crate) fn shortcut_channels_into(x: &Tensor, out_ch: usize, out: &mut Tensor) {
    let shape = x.shape();
    let c = shape[1];
    if out_ch == c {
        out.clone_from(x);
        return;
    }
    assert_eq!(out_ch, 2 * c, "channel shortcut requires C or 2C output");
    let (n, h, w) = (shape[0], shape[2], shape[3]);
    out.reset_for_overwrite(&[n, out_ch, h, w]);
    for img in 0..n {
        for ch in 0..c {
            for y in 0..h {
                for xx in 0..w {
                    let v = x.at4(img, ch, y, xx);
                    out.set4(img, ch, y, xx, v);
                    out.set4(img, ch + c, y, xx, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_requires_same_shape() {
        let a = Tensor::zeros(&[1, 2, 2, 2]);
        let b = Tensor::zeros(&[1, 2, 2, 2]);
        let c = add(&a, &b);
        assert_eq!(c.shape(), a.shape());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_panics_on_mismatch() {
        add(&Tensor::zeros(&[1, 2, 2, 2]), &Tensor::zeros(&[1, 2, 2, 3]));
    }

    #[test]
    fn unsupported_stride_is_a_typed_error() {
        let conv = Tensor::zeros(&[1, 8, 2, 2]);
        let x = Tensor::full(&[1, 8, 6, 6], 0.5);
        let mut out = Tensor::default();
        let fused = fuse_spatial_stage(
            &conv,
            &x,
            3,
            &BatchNorm::identity(8),
            &RPReLU::plain(8, 0.25),
            &mut out,
        );
        assert!(matches!(fused, Err(BitnnError::Unsupported(_))));
    }
}
