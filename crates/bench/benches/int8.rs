//! Criterion bench: the two 8-bit ends on the int8 kernel — the
//! classifier at the `batch` (256 → 1000) and `edge` (1024 → 1000)
//! widths with 1 and 8 stacked rows, and the stem conv (3 → 8 and
//! 3 → 32 filters, 3×3 stride 2 on a 32×32 image). Times the executor's
//! arena paths (`forward_2d_with`, `forward_fast_with`) on warm scratch,
//! so `BITNN_SIMD=avx2|portable` compares the kernel's bodies.

use bitnn::layers::{QuantConv2d, QuantLinear, QuantScratch};
use bitnn::ops::conv::Conv2dParams;
use bitnn::tensor::Tensor;
use bitnn::weightgen::random_floats;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_classifier(c: &mut Criterion) {
    let mut g = c.benchmark_group("int8_classifier");
    for in_features in [256usize, 1024] {
        let lin = QuantLinear::from_float(
            &random_floats(1000 * in_features, 0.1, 1),
            1000,
            in_features,
        );
        for rows in [1usize, 8] {
            let x = Tensor::from_vec(
                &[rows, in_features],
                random_floats(rows * in_features, 2.0, 2),
            )
            .unwrap();
            let (mut scratch, mut out) = (QuantScratch::default(), Tensor::default());
            g.throughput(Throughput::Elements((rows * in_features * 1000) as u64));
            g.bench_with_input(
                BenchmarkId::new(format!("{in_features}x1000"), format!("{rows}row")),
                &rows,
                |b, _| b.iter(|| lin.forward_2d_with(black_box(&x), &mut scratch, &mut out)),
            );
        }
    }
    g.finish();
}

fn bench_stem(c: &mut Criterion) {
    let mut g = c.benchmark_group("int8_stem");
    let params = Conv2dParams { stride: 2, pad: 1 };
    let x = Tensor::from_vec(&[1, 3, 32, 32], random_floats(3 * 32 * 32, 2.0, 3)).unwrap();
    for filters in [8usize, 32] {
        let w = Tensor::from_vec(&[filters, 3, 3, 3], random_floats(filters * 27, 0.5, 4)).unwrap();
        let stem = QuantConv2d::from_float(&w, params);
        let (mut scratch, mut out) = (QuantScratch::default(), Tensor::default());
        g.throughput(Throughput::Elements((16 * 16 * 27 * filters) as u64));
        g.bench_with_input(
            BenchmarkId::new("3x32x32_s2", format!("k{filters}")),
            &filters,
            |b, _| b.iter(|| stem.forward_fast_with(black_box(&x), &mut scratch, &mut out)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_classifier, bench_stem);
criterion_main!(benches);
