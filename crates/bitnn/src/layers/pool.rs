//! Pooling. ReActNet ends with a global average pool before the classifier.

use crate::tensor::Tensor;

/// Global average pooling: `[N, C, H, W]` → `[N, C]`.
///
/// # Panics
///
/// Panics if the input is not 4-D or has empty spatial dimensions.
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    let shape = input.shape();
    assert_eq!(shape.len(), 4, "global_avg_pool expects a 4-D tensor");
    let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
    assert!(h > 0 && w > 0, "empty spatial dimensions");
    let inv = 1.0 / (h * w) as f32;
    let mut out = Tensor::zeros(&[n, c]);
    for img in 0..n {
        for ch in 0..c {
            let mut acc = 0.0f32;
            for y in 0..h {
                for x in 0..w {
                    acc += input.at4(img, ch, y, x);
                }
            }
            out.data_mut()[img * c + ch] = acc * inv;
        }
    }
    out
}

/// [`global_avg_pool`] of a pixel-major `[N, H, W, C]` tensor into a
/// reusable `[N, C]` output (the graph executor's arena path). Bit-exact:
/// each channel sums its pixels in row-major pixel order from `0.0`, the
/// NCHW loop's order of additions.
///
/// # Panics
///
/// Panics if the input is not 4-D or has empty spatial dimensions.
pub fn global_avg_pool_nhwc_into(input: &Tensor, out: &mut Tensor) {
    let shape = input.shape();
    assert_eq!(shape.len(), 4, "global_avg_pool expects a 4-D tensor");
    let (n, h, w, c) = (shape[0], shape[1], shape[2], shape[3]);
    assert!(h > 0 && w > 0, "empty spatial dimensions");
    let inv = 1.0 / (h * w) as f32;
    out.reset_for_overwrite(&[n, c]);
    for (img, acc) in input
        .data()
        .chunks_exact(h * w * c)
        .zip(out.data_mut().chunks_exact_mut(c))
    {
        acc.fill(0.0);
        for row in img.chunks_exact(c) {
            for (a, &v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
        for a in acc.iter_mut() {
            *a *= inv;
        }
    }
}

/// 2×2 average pooling with stride 2 (odd trailing row/column averaged
/// over the in-bounds window, matching the convolution's floor semantics
/// for stride-2 output size with pad 1 on odd inputs handled by the
/// caller's geometry). This is the spatial-shortcut pool of the ReActNet
/// basic block and the downsampling stage of the plain-stack
/// architectures.
///
/// # Panics
///
/// Panics if the input is not 4-D.
pub fn avg_pool_2x2(x: &Tensor) -> Tensor {
    let shape = x.shape();
    assert_eq!(shape.len(), 4, "avg_pool_2x2 expects a 4-D tensor");
    let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
    let oh = h.div_ceil(2);
    let ow = w.div_ceil(2);
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    for img in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    let mut cnt = 0;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let y = oy * 2 + dy;
                            let xx = ox * 2 + dx;
                            if y < h && xx < w {
                                acc += x.at4(img, ch, y, xx);
                                cnt += 1;
                            }
                        }
                    }
                    out.set4(img, ch, oy, ox, acc / cnt as f32);
                }
            }
        }
    }
    out
}

/// [`avg_pool_2x2`] of a pixel-major `[N, H, W, C]` tensor into a
/// reusable `[N, OH, OW, C]` output (the graph executor's arena path).
/// Bit-exact: each window sums its in-bounds pixels from `0.0` in
/// [`avg_pool_2x2`]'s order, then divides by their count.
///
/// # Panics
///
/// Panics if the input is not 4-D.
pub fn avg_pool_2x2_nhwc_into(x: &Tensor, out: &mut Tensor) {
    let shape = x.shape();
    assert_eq!(shape.len(), 4, "avg_pool_2x2 expects a 4-D tensor");
    let (n, h, w, c) = (shape[0], shape[1], shape[2], shape[3]);
    let (oh, ow) = (h.div_ceil(2), w.div_ceil(2));
    out.reset_for_overwrite(&[n, oh, ow, c]);
    let src = x.data();
    for (q, row) in out.data_mut().chunks_exact_mut(c).enumerate() {
        let (img, oy, ox) = (q / (oh * ow), q % (oh * ow) / ow, q % ow);
        row.fill(0.0);
        let mut cnt = 0;
        for dy in 0..2 {
            for dx in 0..2 {
                let (y, xx) = (oy * 2 + dy, ox * 2 + dx);
                if y < h && xx < w {
                    let tap = &src[((img * h + y) * w + xx) * c..][..c];
                    for (a, &v) in row.iter_mut().zip(tap) {
                        *a += v;
                    }
                    cnt += 1;
                }
            }
        }
        for a in row.iter_mut() {
            *a /= cnt as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_each_channel() {
        let t = Tensor::from_vec(&[1, 2, 1, 2], vec![1.0, 3.0, -2.0, 2.0]).unwrap();
        let out = global_avg_pool(&t);
        assert_eq!(out.shape(), &[1, 2]);
        assert_eq!(out.data(), &[2.0, 0.0]);
    }

    #[test]
    fn batch_dimension_is_preserved() {
        let t = Tensor::full(&[3, 4, 2, 2], 5.0);
        let out = global_avg_pool(&t);
        assert_eq!(out.shape(), &[3, 4]);
        assert!(out.data().iter().all(|&v| v == 5.0));
    }

    #[test]
    #[should_panic(expected = "4-D")]
    fn rejects_non_4d() {
        global_avg_pool(&Tensor::zeros(&[2, 2]));
    }

    #[test]
    fn avg_pool_2x2_averages_windows() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = avg_pool_2x2(&x);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 2.5);
    }

    #[test]
    fn nhwc_forms_match_the_nchw_pools() {
        use crate::weightgen::random_floats;
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (n, c, h, w) in [(1, 1, 1, 1), (2, 3, 5, 4), (1, 17, 4, 7), (3, 8, 2, 2)] {
            let mut vals = random_floats(n * c * h * w, 2.0, (c * h + w) as u64);
            vals[0] = -0.0;
            let x = Tensor::from_vec(&[n, c, h, w], vals).unwrap();
            let nhwc = x.nchw_to_nhwc();
            let mut out = Tensor::default();
            avg_pool_2x2_nhwc_into(&nhwc, &mut out);
            assert_eq!(
                bits(&out.nhwc_to_nchw()),
                bits(&avg_pool_2x2(&x)),
                "pool {c} {h}x{w}"
            );
            global_avg_pool_nhwc_into(&nhwc, &mut out);
            assert_eq!(bits(&out), bits(&global_avg_pool(&x)), "gap {c} {h}x{w}");
        }
    }

    #[test]
    fn avg_pool_2x2_odd_tail_uses_in_bounds_window() {
        let x = Tensor::from_vec(&[1, 1, 1, 3], vec![1.0, 3.0, 5.0]).unwrap();
        let y = avg_pool_2x2(&x);
        assert_eq!(y.shape(), &[1, 1, 1, 2]);
        assert_eq!(y.data(), &[2.0, 5.0]);
    }
}
