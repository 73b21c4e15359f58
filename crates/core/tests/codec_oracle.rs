//! Oracle tests for the word-level kernel codec.
//!
//! `KernelCodec::compress` reads every channel's sequence from the packed
//! words once, clusters that list in place and encodes it through a
//! per-sequence code table and a 64-bit accumulator writer. Each test
//! here pins one of those steps to the straightforward form it replaced:
//! per-channel `read_sequence`, the bit-serial writer loop, and the
//! three-pass count → rewrite kernel → encode pipeline.

use bitnn::tensor::BitTensor;
use bitnn::weightgen::{read_sequence, read_sequences, SeqDistribution};
use kc_core::bitstream::BitWriter;
use kc_core::cluster::{ClusterConfig, ClusterPlan, Substitution};
use kc_core::codec::KernelCodec;
use kc_core::{BitSeq, FreqTable, SimplifiedTree, TreeConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shapes whose fields start at every bit offset mod 64 (9 and 64 are
/// coprime, so 64 consecutive fields cover all of them) and whose last
/// word is ragged.
const SHAPES: [[usize; 2]; 5] = [[1, 64], [3, 7], [5, 29], [1, 1], [2, 71]];

fn random_kernel(filters: usize, channels: usize, seed: u64) -> BitTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let bits: Vec<bool> = (0..filters * channels * 9).map(|_| rng.random()).collect();
    BitTensor::from_bools(&[filters, channels, 3, 3], &bits).expect("bit count matches shape")
}

/// The writer loop `BitWriter::write_bits` used before the accumulator:
/// one read-modify-write per bit, ignoring bits of `code` above `len`.
fn serial_write(codes: &[(u32, u8)]) -> (Vec<u8>, usize) {
    let (mut bytes, mut used, mut bits) = (Vec::new(), 0u8, 0usize);
    for &(code, len) in codes {
        for i in (0..len).rev() {
            let bit = (code >> i) & 1;
            if used == 0 {
                bytes.push(0);
            }
            let last = bytes.len() - 1;
            bytes[last] |= (bit as u8) << (7 - used);
            used = (used + 1) % 8;
            bits += 1;
        }
    }
    (bytes, bits)
}

/// The three-pass compression pipeline, from public parts: count, rewrite
/// the kernel under the cluster plan, then encode channel by channel.
fn three_pass(
    codec: &KernelCodec,
    kernel: &BitTensor,
) -> (SimplifiedTree, Vec<u8>, usize, Vec<Substitution>) {
    let freq = FreqTable::from_kernel(kernel).unwrap();
    let (kernel, substitutions, freq) = match codec.cluster_config() {
        Some(cfg) => {
            let plan = ClusterPlan::build(&freq, cfg);
            let rewritten = plan.apply_to_kernel(kernel).unwrap();
            (
                rewritten,
                plan.substitutions().to_vec(),
                plan.apply_to_freq(&freq),
            )
        }
        None => (kernel.clone(), Vec::new(), freq),
    };
    let tree = SimplifiedTree::build(&freq, codec.tree_config().clone());
    let shape = kernel.shape();
    let mut w = BitWriter::new();
    for f in 0..shape[0] {
        for ch in 0..shape[1] {
            let seq = BitSeq::new(read_sequence(&kernel, f, ch)).unwrap();
            tree.encode(seq, &mut w).unwrap();
        }
    }
    let bits = w.bits_written();
    (tree, w.into_bytes().to_vec(), bits, substitutions)
}

fn codecs() -> Vec<KernelCodec> {
    vec![
        KernelCodec::paper(),
        KernelCodec::paper_clustered(),
        KernelCodec::paper().with_clustering(ClusterConfig {
            max_distance: 2,
            ..ClusterConfig::default()
        }),
        KernelCodec::new(TreeConfig::with_capacities(vec![64, 256]).unwrap()),
    ]
}

fn assert_matches_three_pass(codec: &KernelCodec, kernel: &BitTensor) {
    let ck = codec.compress(kernel).unwrap();
    let (tree, stream, bits, substitutions) = three_pass(codec, kernel);
    assert_eq!(ck.tree(), &tree, "{codec:?}");
    assert_eq!(ck.stream().as_ref(), stream.as_slice(), "{codec:?}");
    assert_eq!(ck.stream_bits(), bits, "{codec:?}");
    assert_eq!(ck.substitutions(), substitutions.as_slice(), "{codec:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn word_reader_matches_per_channel_reads(shape in 0usize..SHAPES.len(), seed in any::<u64>()) {
        let [filters, channels] = SHAPES[shape];
        let kernel = random_kernel(filters, channels, seed);
        let seqs = read_sequences(&kernel);
        prop_assert_eq!(seqs.len(), filters * channels);
        for f in 0..filters {
            for ch in 0..channels {
                prop_assert_eq!(seqs[f * channels + ch], read_sequence(&kernel, f, ch));
            }
        }
    }

    #[test]
    fn accumulator_writer_matches_bit_serial_loop(
        codes in collection::vec((any::<u32>(), 0u8..=32), 0..300)
    ) {
        let mut w = BitWriter::new();
        for &(code, len) in &codes {
            w.write_bits(code, len);
        }
        let (want, want_bits) = serial_write(&codes);
        prop_assert_eq!(w.bits_written(), want_bits);
        prop_assert_eq!(w.into_bytes().to_vec(), want);
    }

    #[test]
    fn compress_matches_three_pass_pipeline(
        block in 1usize..=13,
        filters in 1usize..=9,
        channels in 1usize..=80,
        seed in any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kernel = SeqDistribution::for_block(block, seed).sample_kernel(filters, channels, &mut rng);
        for codec in codecs() {
            assert_matches_three_pass(&codec, &kernel);
        }
    }
}

#[test]
fn compress_matches_three_pass_when_the_last_node_widens() {
    // Uniform bits over 4096 channels exercise nearly all 512 sequences,
    // more than the paper tree's 416 slots.
    let kernel = random_kernel(64, 64, 3);
    let distinct = FreqTable::from_kernel(&kernel)
        .unwrap()
        .sorted_desc()
        .iter()
        .filter(|&&(_, c)| c > 0)
        .count();
    assert!(distinct > 416, "{distinct} distinct sequences");
    let paper = KernelCodec::paper().compress(&kernel).unwrap();
    assert!(paper.tree().code_len(3) > 12, "last node did not widen");
    for codec in codecs() {
        assert_matches_three_pass(&codec, &kernel);
    }
}
