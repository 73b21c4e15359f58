//! Criterion bench: the xnor-popcount primitives and binary GEMM — the
//! compute substrate every experiment runs on.

use bitnn::bitword::{popcount_swar, xnor_popcount_slice};
use bitnn::ops::gemm::{gemm_binary, gemm_binary_naive, gemm_binary_panels_into, PackedMatrix};
use bitnn::pack::PackedKernel;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn lanes(n: usize, seed: u64) -> Vec<u64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s
        })
        .collect()
}

fn bench_xnor_popcount(c: &mut Criterion) {
    let mut g = c.benchmark_group("xnor_popcount_slice");
    for &n in &[8usize, 64, 512] {
        let a = lanes(n, 1);
        let b = lanes(n, 2);
        g.throughput(Throughput::Bytes((n * 8) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| xnor_popcount_slice(black_box(&a), black_box(&b)))
        });
    }
    g.finish();
}

fn bench_swar(c: &mut Criterion) {
    let xs = lanes(1024, 3);
    c.bench_function("popcount_swar_1k", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &x in &xs {
                acc += popcount_swar(black_box(x));
            }
            acc
        })
    });
    c.bench_function("popcount_native_1k", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &x in &xs {
                acc += black_box(x).count_ones();
            }
            acc
        })
    });
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_binary");
    for &k in &[256usize, 1024] {
        let bits_a: Vec<bool> = (0..32 * k).map(|i| i % 3 == 0).collect();
        let bits_b: Vec<bool> = (0..32 * k).map(|i| i % 5 == 0).collect();
        let a = PackedMatrix::from_bools(32, k, &bits_a).unwrap();
        let b = PackedMatrix::from_bools(32, k, &bits_b).unwrap();
        g.throughput(Throughput::Elements((32 * 32 * k) as u64));
        g.bench_with_input(BenchmarkId::new("32x32", k), &k, |bench, _| {
            bench.iter(|| gemm_binary(black_box(&a), black_box(&b)).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("32x32_naive", k), &k, |bench, _| {
            bench.iter(|| gemm_binary_naive(black_box(&a), black_box(&b)).unwrap())
        });
    }
    g.finish();
}

/// The panel kernel on prebuilt weight panels (as a layer caches them),
/// at `M pixels × N filters × K bits` shapes from the models: a 1-pixel
/// 3×3 tail layer, 1×1 and 3×3 layers along the ReActNet widths, and the
/// one- and two-lane rows of narrow 1×1 convs. Runs at the effective
/// `BITNN_SIMD` level.
fn bench_panels(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_panels");
    let shapes = [
        (1usize, 1024usize, 9216usize),
        (4, 512, 512),
        (4, 512, 4608),
        (16, 256, 2304),
        (64, 128, 1152),
        (256, 64, 576),
        (1024, 32, 288),
        (256, 64, 64),
        (64, 128, 128),
    ];
    for &(m, n, k) in &shapes {
        let bits = |rows: usize, seed: u64| {
            let words = lanes(rows * k.div_ceil(64), seed);
            let bools: Vec<bool> = (0..rows * k)
                .map(|i| words[i / 64] >> (i % 64) & 1 == 1)
                .collect();
            PackedMatrix::from_bools(rows, k, &bools).unwrap()
        };
        let a = bits(m, 4);
        let panels = PackedKernel::from_matrix(&bits(n, 5));
        let mut out = Vec::new();
        g.throughput(Throughput::Elements((m * n * k) as u64));
        g.bench_with_input(BenchmarkId::new(format!("{m}x{n}"), k), &k, |bench, _| {
            bench.iter(|| {
                gemm_binary_panels_into(black_box(&a), black_box(&panels), &mut out).unwrap();
                black_box(&out);
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_xnor_popcount,
    bench_swar,
    bench_gemm,
    bench_panels
);
criterion_main!(benches);
