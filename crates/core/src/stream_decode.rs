//! Streaming group decoder: the software analogue of the paper's decode
//! unit (Fig. 6, streaming unit + packing unit).
//!
//! The hardware walks the compressed stream front-to-back, decodes one
//! 9-bit sequence at a time against the banked uncompressed table, and
//! channel-packs each group of up to 64 decoded sequences into **nine
//! 64-bit lane words** (one per 3×3 position) that the xnor-popcount
//! pipeline consumes directly. This module does exactly that in software:
//! [`GroupDecoder`] yields [`PackedGroup`]s whose words drop straight into
//! [`bitnn::pack::PackedKernel`]'s layout, so a compressed container can
//! feed the execution engine without ever materializing the intermediate
//! `[K, C, 3, 3]` bit tensor ([`crate::container::Container::decode_packed`]).
//!
//! A *group* is one `(filter, lane)` pair: the sequences of channels
//! `lane*64 .. lane*64+64` (fewer for the tail lane) of one output filter.
//! Groups are emitted in stream order — filter-major, lanes ascending —
//! which is the exact order [`crate::codec::KernelCodec::compress`] wrote
//! the codewords, so decoding is a single forward pass over the stream.

use crate::bitstream::BitReader;
use crate::container::Container;
use crate::error::{KcError, Result};
use crate::freq::SeqHistogram;
use crate::huffman::SimplifiedTree;
use bitnn::pack::PackedKernel;
use bitnn::{lanes_for, LANE_BITS};

/// Sequences per full group — one 64-bit lane word's worth of channels.
pub const SEQS_PER_GROUP: usize = LANE_BITS;

/// Packed words per group: one per 3×3 kernel position.
pub const WORDS_PER_GROUP: usize = 9;

/// One channel-packed group of decoded sequences: the nine lane words the
/// paper's packing unit hands the compute pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedGroup {
    /// Output filter this group belongs to.
    pub filter: usize,
    /// Lane index within the filter (channels `lane*64 ..`).
    pub lane: usize,
    /// Sequences packed into this group (64, or fewer for a tail lane).
    pub seqs: usize,
    /// The nine packed lane words; bit `j` of word `p` is bit `p` (under
    /// the natural mapping, MSB = position (0,0)) of channel
    /// `lane*64 + j`'s sequence.
    pub words: [u64; WORDS_PER_GROUP],
}

/// A forward-only decoder that walks a container's Huffman stream and
/// emits channel-packed groups.
#[derive(Debug, Clone)]
pub struct GroupDecoder<'a> {
    tree: &'a SimplifiedTree,
    reader: BitReader<'a>,
    filters: usize,
    channels: usize,
    lanes: usize,
    /// Next group index in `0 .. filters * lanes`.
    next: usize,
}

impl<'a> GroupDecoder<'a> {
    /// Decoder over a parsed container's stream.
    pub fn new(container: &'a Container) -> Self {
        Self::from_parts(
            &container.tree,
            &container.stream,
            container.stream_bits,
            container.filters,
            container.channels,
        )
    }

    /// Decoder over raw parts (tree + stream + kernel geometry).
    ///
    /// # Panics
    ///
    /// Panics if `stream_bits` exceeds the stream's length in bits.
    pub fn from_parts(
        tree: &'a SimplifiedTree,
        stream: &'a [u8],
        stream_bits: usize,
        filters: usize,
        channels: usize,
    ) -> Self {
        GroupDecoder {
            tree,
            reader: BitReader::with_limit(stream, stream_bits),
            filters,
            channels,
            lanes: lanes_for(channels),
            next: 0,
        }
    }

    /// Total groups the stream yields (`filters * lanes_for(channels)`).
    pub fn num_groups(&self) -> usize {
        self.filters * self.lanes
    }

    /// Groups decoded so far.
    pub fn groups_decoded(&self) -> usize {
        self.next
    }

    /// Decode the next group, or `Ok(None)` once the kernel is complete.
    ///
    /// On completion the decoder verifies the stream was consumed exactly
    /// (no leftover payload bits — zero padding to the final byte boundary
    /// is checked by [`crate::container::read_container`]).
    ///
    /// # Errors
    ///
    /// Returns [`KcError::CorruptStream`] on a truncated stream, an
    /// invalid prefix, an index beyond a node table, or leftover bits
    /// after the final group.
    pub fn decode_next(&mut self) -> Result<Option<PackedGroup>> {
        if self.next == self.num_groups() {
            self.check_consumed()?;
            return Ok(None);
        }
        let (filter, lane) = (self.next / self.lanes, self.next % self.lanes);
        let seqs = (self.channels - lane * LANE_BITS).min(SEQS_PER_GROUP);
        let mut words = [0u64; WORDS_PER_GROUP];
        for j in 0..seqs {
            let seq = self.tree.decode(&mut self.reader)?.value();
            // Natural mapping: bit 8 of the sequence is position (0,0).
            for (p, word) in words.iter_mut().enumerate() {
                *word |= (((seq >> (WORDS_PER_GROUP - 1 - p)) & 1) as u64) << j;
            }
        }
        self.next += 1;
        Ok(Some(PackedGroup {
            filter,
            lane,
            seqs,
            words,
        }))
    }

    /// Drain the remaining groups into a channel-packed kernel. The words
    /// of each group are scattered to `PackedKernel`'s
    /// `[(filter * 9 + position) * lanes + lane]` layout — no intermediate
    /// flat tensor exists at any point.
    ///
    /// # Errors
    ///
    /// Returns [`KcError::CorruptStream`] if the stream is damaged or
    /// decoding was already past the first group.
    pub fn collect_packed(mut self) -> Result<PackedKernel> {
        if self.next != 0 {
            return Err(KcError::CorruptStream(
                "collect_packed needs a fresh decoder".into(),
            ));
        }
        let lanes = self.lanes;
        let mut data = vec![0u64; self.filters * WORDS_PER_GROUP * lanes];
        while let Some(g) = self.decode_next()? {
            for (p, &w) in g.words.iter().enumerate() {
                data[(g.filter * WORDS_PER_GROUP + p) * lanes + g.lane] = w;
            }
        }
        PackedKernel::from_lane_words(self.filters, self.channels, 3, 3, data)
            .map_err(|e| KcError::CorruptStream(format!("packing decoded groups: {e}")))
    }

    /// Drain the stream into its sequence histogram and Hamming-1 root
    /// count ([`SeqHistogram`]) in one forward pass, materializing no
    /// kernel form at all. Stream order is filter-major with lanes
    /// ascending, i.e. exactly `(filter, channel)` row-major, so the
    /// online root test sees sequences in first-appearance order.
    ///
    /// # Errors
    ///
    /// Returns [`KcError::CorruptStream`] if the stream is damaged or
    /// decoding was already past the first group.
    pub fn collect_histogram(mut self) -> Result<SeqHistogram> {
        if self.next != 0 {
            return Err(KcError::CorruptStream(
                "collect_histogram needs a fresh decoder".into(),
            ));
        }
        let mut hist = SeqHistogram::default();
        for _ in 0..self.filters * self.channels {
            hist.record(self.tree.decode(&mut self.reader)?);
        }
        self.next = self.num_groups();
        self.check_consumed()?;
        Ok(hist)
    }

    /// Fail unless every payload bit was consumed.
    fn check_consumed(&self) -> Result<()> {
        match self.reader.remaining() {
            0 => Ok(()),
            left => Err(KcError::CorruptStream(format!(
                "{left} bits left over after the final group"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CompressedKernel, KernelCodec};
    use bitnn::weightgen::SeqDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn compressed(filters: usize, channels: usize) -> CompressedKernel {
        let mut rng = StdRng::seed_from_u64((filters * 1000 + channels) as u64);
        let kernel = SeqDistribution::for_block(2, 0).sample_kernel(filters, channels, &mut rng);
        KernelCodec::paper().compress(&kernel).unwrap()
    }

    fn decoder_for(ck: &CompressedKernel) -> GroupDecoder<'_> {
        GroupDecoder::from_parts(
            ck.tree(),
            ck.stream(),
            ck.stream_bits(),
            ck.filters(),
            ck.channels(),
        )
    }

    #[test]
    fn groups_match_offline_packed_kernel() {
        // Streamed groups must be the exact words PackedKernel::pack
        // derives from the offline-decompressed tensor.
        for (f, c) in [(4usize, 16usize), (3, 64), (2, 70), (5, 130)] {
            let ck = compressed(f, c);
            let offline = bitnn::pack::PackedKernel::pack(&ck.decompress().unwrap()).unwrap();
            let mut dec = decoder_for(&ck);
            assert_eq!(dec.num_groups(), f * lanes_for(c));
            let mut seen = 0;
            while let Some(g) = dec.decode_next().unwrap() {
                for (p, &w) in g.words.iter().enumerate() {
                    let lanes = offline.position_lanes(g.filter, p);
                    assert_eq!(w, lanes[g.lane], "({f},{c}) group {seen} pos {p}");
                }
                seen += 1;
            }
            assert_eq!(seen, dec.num_groups());
        }
    }

    #[test]
    fn collect_packed_equals_pack_of_decompress() {
        for (f, c) in [(4usize, 16usize), (2, 70)] {
            let ck = compressed(f, c);
            let streamed = decoder_for(&ck).collect_packed().unwrap();
            let offline = bitnn::pack::PackedKernel::pack(&ck.decompress().unwrap()).unwrap();
            assert_eq!(streamed, offline);
        }
    }

    #[test]
    fn tail_lane_groups_are_partial() {
        let ck = compressed(2, 70);
        let mut dec = decoder_for(&ck);
        let g0 = dec.decode_next().unwrap().unwrap();
        assert_eq!((g0.filter, g0.lane, g0.seqs), (0, 0, 64));
        let g1 = dec.decode_next().unwrap().unwrap();
        assert_eq!((g1.filter, g1.lane, g1.seqs), (0, 1, 6));
        // Tail-lane words never set bits above the real channels.
        for w in g1.words {
            assert_eq!(w >> 6, 0);
        }
    }

    #[test]
    fn truncated_stream_errors_not_panics() {
        let ck = compressed(4, 16);
        let tree = ck.tree().clone();
        for cut_bits in [0usize, 1, 5, ck.stream_bits() / 2, ck.stream_bits() - 1] {
            let mut dec = GroupDecoder::from_parts(&tree, ck.stream(), cut_bits, 4, 16);
            let mut r = Ok(Some(PackedGroup {
                filter: 0,
                lane: 0,
                seqs: 0,
                words: [0; WORDS_PER_GROUP],
            }));
            while let Ok(Some(_)) = r {
                r = dec.decode_next();
            }
            assert!(r.is_err(), "cut at {cut_bits} bits must error");
            let dec = GroupDecoder::from_parts(&tree, ck.stream(), cut_bits, 4, 16);
            assert!(
                dec.collect_histogram().is_err(),
                "histogram cut at {cut_bits}"
            );
        }
    }

    #[test]
    fn leftover_bits_after_final_group_error() {
        let ck = compressed(4, 16);
        // Claim fewer filters than the stream encodes: the final-group
        // check must notice the surplus payload.
        let mut dec = GroupDecoder::from_parts(ck.tree(), ck.stream(), ck.stream_bits(), 3, 16);
        let mut last = dec.decode_next();
        while let Ok(Some(_)) = last {
            last = dec.decode_next();
        }
        assert!(last.is_err(), "surplus bits must be rejected");
        let dec = GroupDecoder::from_parts(ck.tree(), ck.stream(), ck.stream_bits(), 3, 16);
        assert!(dec.collect_histogram().is_err(), "histogram surplus bits");
    }

    #[test]
    fn collect_packed_rejects_partially_drained_decoder() {
        let ck = compressed(4, 16);
        let mut dec = decoder_for(&ck);
        dec.decode_next().unwrap();
        assert!(dec.collect_packed().is_err());
    }

    #[test]
    fn histogram_stats_are_exact() {
        use crate::freq::FreqTable;
        use bitnn::weightgen::read_sequence;
        for (f, c) in [(4usize, 16usize), (2, 70), (5, 130)] {
            let ck = compressed(f, c);
            let hist = decoder_for(&ck).collect_histogram().unwrap();
            let offline = ck.decompress().unwrap();
            let want = FreqTable::from_kernel(&offline).unwrap();
            assert_eq!(hist.freq(), &want);
            assert_eq!(want.total(), (f * c) as u64);
            assert_eq!(hist.top_k(5), want.top_k(5), "({f},{c}) top-5");
            // Brute force: a root is a first appearance with no Hamming-1
            // neighbour among the sequences seen before it.
            let mut seen: Vec<u16> = Vec::new();
            let mut roots = 0;
            for fi in 0..f {
                for ch in 0..c {
                    let s = read_sequence(&offline, fi, ch);
                    if !seen.contains(&s) {
                        if seen.iter().all(|&p| (p ^ s).count_ones() != 1) {
                            roots += 1;
                        }
                        seen.push(s);
                    }
                }
            }
            assert_eq!(hist.h1_roots(), roots, "({f},{c}) H1 roots");
            assert!(hist.dedup_ratio() >= 1.0);
        }
    }

    #[test]
    fn collect_histogram_rejects_partially_drained_decoder() {
        let ck = compressed(4, 16);
        let mut dec = decoder_for(&ck);
        dec.decode_next().unwrap();
        assert!(dec.collect_histogram().is_err());
    }
}
