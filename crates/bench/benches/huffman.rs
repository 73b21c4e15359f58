//! Criterion bench: encode/decode throughput of the simplified tree vs
//! full canonical Huffman — the software cost the paper's hardware unit
//! eliminates (Sec. III-B / IV-B) — the whole container decode of one
//! kernel into packed lane words, and the whole offline compression of
//! one kernel (count, cluster, encode).

use bench::block_kernel;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use kc_core::bitstream::{BitReader, BitWriter};
use kc_core::codec::KernelCodec;
use kc_core::container::{read_container, write_container};
use kc_core::huffman::{FullHuffman, SimplifiedTree, TreeConfig};
use kc_core::{BitSeq, FreqTable};
use std::hint::black_box;

fn payload(freq: &FreqTable, n: usize) -> Vec<BitSeq> {
    // A deterministic payload drawn proportionally to the counts.
    let mut seqs = Vec::with_capacity(n);
    let sorted: Vec<(BitSeq, u64)> = freq
        .sorted_desc()
        .into_iter()
        .filter(|&(_, c)| c > 0)
        .collect();
    let total = freq.total();
    let mut acc = 0u64;
    let mut cursor = 0usize;
    for i in 0..n {
        let target = (i as u64 * total) / n as u64;
        while acc < target && cursor < sorted.len() {
            acc += sorted[cursor].1;
            cursor += 1;
        }
        seqs.push(sorted[cursor.min(sorted.len() - 1)].0);
    }
    seqs
}

fn bench_huffman(c: &mut Criterion) {
    let kernel = block_kernel(5, 1, 0.5);
    let freq = FreqTable::from_kernel(&kernel).unwrap();
    let simp = SimplifiedTree::build(&freq, TreeConfig::paper());
    let full = FullHuffman::build(&freq).unwrap();
    let seqs = payload(&freq, 4096);

    let mut g = c.benchmark_group("encode");
    g.throughput(Throughput::Elements(seqs.len() as u64));
    g.bench_function("simplified", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for &s in &seqs {
                simp.encode(black_box(s), &mut w).unwrap();
            }
            w.bits_written()
        })
    });
    g.bench_function("full", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for &s in &seqs {
                full.encode(black_box(s), &mut w).unwrap();
            }
            w.bits_written()
        })
    });
    g.finish();

    // Pre-encode for decode benches.
    let mut w = BitWriter::new();
    for &s in &seqs {
        simp.encode(s, &mut w).unwrap();
    }
    let simp_bits = w.bits_written();
    let simp_bytes = w.into_bytes();
    let mut w = BitWriter::new();
    for &s in &seqs {
        full.encode(s, &mut w).unwrap();
    }
    let full_bits = w.bits_written();
    let full_bytes = w.into_bytes();

    let mut g = c.benchmark_group("decode");
    g.throughput(Throughput::Elements(seqs.len() as u64));
    g.bench_function("simplified", |b| {
        b.iter(|| {
            let mut r = BitReader::with_limit(&simp_bytes, simp_bits);
            let mut acc = 0u32;
            for _ in 0..seqs.len() {
                acc += simp.decode(&mut r).unwrap().value() as u32;
            }
            acc
        })
    });
    g.bench_function("full", |b| {
        b.iter(|| {
            let mut r = BitReader::with_limit(&full_bytes, full_bits);
            let mut acc = 0u32;
            for _ in 0..seqs.len() {
                acc += full.decode(&mut r).unwrap().value() as u32;
            }
            acc
        })
    });
    // Block 7 is ReActNet's first 512 x 512 3x3 kernel: the table-driven
    // sequence loop plus the 9x64 packing transpose, per sequence.
    let record = read_container(&write_container(
        &KernelCodec::paper_clustered()
            .compress(&block_kernel(7, 1, 1.0))
            .unwrap(),
    ))
    .unwrap();
    g.throughput(Throughput::Elements(
        (record.filters * record.channels) as u64,
    ));
    g.bench_function("packed", |b| {
        b.iter(|| black_box(&record).decode_packed().unwrap().words().len())
    });
    g.finish();
}

fn bench_compress(c: &mut Criterion) {
    // Block 7 is ReActNet's first 512 x 512 3x3 kernel.
    let kernel = block_kernel(7, 1, 1.0);
    let codec = KernelCodec::paper_clustered();
    let seqs = kernel.shape()[0] * kernel.shape()[1];

    let mut g = c.benchmark_group("compress");
    g.throughput(Throughput::Elements(seqs as u64));
    g.bench_function("paper_clustered", |b| {
        b.iter(|| codec.compress(black_box(&kernel)).unwrap().stream_bits())
    });
    g.finish();
}

criterion_group!(benches, bench_huffman, bench_compress);
criterion_main!(benches);
