//! Criterion bench: the float work between two binary convs — the fused
//! conv epilogue (`act(bn(rows) + shortcut)` from the conv's
//! `[pixel][filter]` `i32` rows into pixel-major `f32` activations) plus
//! the next conv's sign+pack of those activations into lane words. One
//! thread, identity shortcut, at the `edge` widths (batch 1, 16×16×64 →
//! 1×1×1024) and the `batch` widths (batch 32, 16×16×8, 8×8×32,
//! 2×2×128). Runs at the effective `BITNN_SIMD` level.
//!
//! `sign` times the sign+pack alone, per value, at every channel count
//! the models use (batch 32, at the map size each width has in the
//! `batch` model, 1×1 for C = 1024), unframed (`b0`) and with the
//! one-pixel zero frame a padded 3×3 conv reads (`b1`).

use bitnn::backend::fused_epilogue_into;
use bitnn::layers::{BatchNorm, RPReLU, RSign};
use bitnn::pack::PackedActivations;
use bitnn::tensor::Tensor;
use bitnn::weightgen::random_floats;
use bitnn::Engine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_epilogue(c: &mut Criterion) {
    let mut g = c.benchmark_group("epilogue");
    let shapes = [
        (1usize, 16usize, 64usize),
        (1, 8, 128),
        (1, 4, 256),
        (1, 2, 512),
        (1, 1, 1024),
        (32, 16, 8),
        (32, 8, 32),
        (32, 2, 128),
    ];
    for &(n, side, ch) in &shapes {
        let len = n * side * side * ch;
        // Conv rows in the range a K = 9·C dot product spans.
        let k = 9 * ch as i32;
        let rows: Vec<i32> = random_floats(len, 1.0, 1)
            .iter()
            .map(|v| (v * k as f32) as i32)
            .collect();
        let bn = BatchNorm::new(
            random_floats(ch, 0.05, 2),
            random_floats(ch, 0.5, 3),
            random_floats(ch, 1.0, 4),
            vec![1.0; ch],
            1e-5,
        );
        let act = RPReLU::new(
            random_floats(ch, 0.2, 5),
            random_floats(ch, 0.5, 6),
            random_floats(ch, 0.2, 7),
        );
        let sign = RSign::new(random_floats(ch, 0.3, 8));
        let shortcut = Tensor::from_vec(&[n, side, side, ch], random_floats(len, 1.0, 9)).unwrap();
        let (mut out, mut packed) = (Tensor::default(), PackedActivations::default());
        let engine = Engine::single_threaded();
        g.throughput(Throughput::Elements(len as u64));
        g.bench_with_input(
            BenchmarkId::new(format!("b{n}"), format!("{side}x{side}x{ch}")),
            &len,
            |b, _| {
                b.iter(|| {
                    fused_epilogue_into(black_box(&rows), &bn, &act, &shortcut, &mut out).unwrap();
                    sign.binarize_nhwc_packed_with(&out, 0, &engine, &mut packed);
                    black_box(&packed);
                })
            },
        );
    }
    g.finish();
}

fn bench_sign(c: &mut Criterion) {
    let mut g = c.benchmark_group("sign");
    let engine = Engine::single_threaded();
    for (side, ch) in [
        (16usize, 8usize),
        (16, 16),
        (8, 32),
        (8, 64),
        (4, 128),
        (2, 256),
        (1, 1024),
    ] {
        let len = 32 * side * side * ch;
        let x = Tensor::from_vec(&[32, side, side, ch], random_floats(len, 1.0, 11)).unwrap();
        let sign = RSign::new(random_floats(ch, 0.3, 12));
        let mut packed = PackedActivations::default();
        g.throughput(Throughput::Elements(len as u64));
        for border in [0usize, 1] {
            g.bench_with_input(
                BenchmarkId::new(format!("b{border}"), format!("{side}x{side}x{ch}")),
                &len,
                |b, _| {
                    b.iter(|| {
                        sign.binarize_nhwc_packed_with(black_box(&x), border, &engine, &mut packed);
                        black_box(&packed);
                    })
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_epilogue, bench_sign);
criterion_main!(benches);
