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
//!
//! # One table-driven sequence loop
//!
//! Every container decode — packed lane words, the histogram pass, and
//! the `[K, C, 3, 3]` tensor behind
//! [`crate::container::Container::decode_kernel`] and
//! [`crate::codec::CompressedKernel::decompress`] — reads its sequences
//! through one loop. Per record it folds the hardware's length table and
//! indirection table into a single 4,096-entry lookup indexed by the next
//! 12 stream bits. Each entry holds the decoded sequence and its code
//! length, or 0 for a prefix of all ones, an index past its node's
//! table, or a code longer than 12 bits. The loop loads 8 whole stream
//! bytes into a 64-bit window and resolves from it as many codes as the
//! window always holds — six when the record's longest code is 9 bits
//! (clustered paper records), four at 12 — one table load each. A zero
//! entry, the stream's last 8 bytes, and every code of a tree with no
//! sequences go to [`SimplifiedTree::decode`] at the same bit position,
//! so a corrupt stream fails with exactly that parser's errors.
//!
//! Each decoded group of up to 64 sequences is then channel-packed by
//! [`bitnn::pack::pack_group`], a 9×64 bit transpose (AVX-512BW mask
//! tests, or a portable 8×8 block transpose) — the packing unit.

use crate::bitseq::BitSeq;
use crate::bitstream::BitReader;
use crate::container::Container;
use crate::error::{KcError, Result};
use crate::freq::SeqHistogram;
use crate::huffman::SimplifiedTree;
use bitnn::pack::{pack_group, LaneLayout, PackedKernel};
use bitnn::tensor::BitTensor;
use bitnn::weightgen::write_sequence;
use bitnn::{lanes_for, LANE_BITS};

/// Sequences per full group — one 64-bit lane word's worth of channels.
pub const SEQS_PER_GROUP: usize = LANE_BITS;

/// Packed words per group: one per 3×3 kernel position.
pub const WORDS_PER_GROUP: usize = 9;

/// Lookup window in bits: codes longer than this always take the
/// [`SimplifiedTree::decode`] path.
const TABLE_BITS: u32 = 12;

/// Low bits of a lookup entry holding the code length (the sequence sits
/// above them). Six bits is exactly what a `u64` shift reads of its
/// count, so the entry itself shifts the window past its code.
const ENTRY_LEN_BITS: u32 = 6;

/// Payload bits one 8-byte load always holds: at most 7 of its 64 bits
/// were consumed before the window's first code.
const WINDOW_BITS: u32 = 64 - 7;

/// Forward-only reader of one record's sequences: the table-driven loop
/// every container decode shares (see the [module docs](self)).
#[derive(Clone)]
pub(crate) struct SeqReader<'a> {
    tree: &'a SimplifiedTree,
    stream: &'a [u8],
    /// Payload bits (the rest of the final byte is padding).
    limit: usize,
    /// Next bit position.
    pos: usize,
    /// Whole payload bytes the fast path may load; 0 turns it off.
    fast_bytes: usize,
    /// Codes resolved per 8-byte load: as many of the record's longest
    /// table code as one load always holds.
    per_load: usize,
    /// `table[w]` for the next 12 stream bits `w`: `len | seq << 6` of
    /// the code they start with, or 0 where the slow path must decide.
    table: [u16; 1 << TABLE_BITS],
}

impl<'a> SeqReader<'a> {
    /// Reader over the first `limit` bits of `stream`, with the lookup
    /// table built from `tree`.
    ///
    /// # Panics
    ///
    /// Panics if `limit` exceeds the stream's length in bits.
    pub(crate) fn new(tree: &'a SimplifiedTree, stream: &'a [u8], limit: usize) -> Self {
        assert!(limit <= stream.len() * 8, "limit beyond buffer");
        let mut table = [0u16; 1 << TABLE_BITS];
        let mut longest = 0;
        for node in 0..tree.config().nodes() {
            let len = u32::from(tree.code_len(node));
            if len > TABLE_BITS || tree.table(node).is_empty() {
                continue;
            }
            longest = longest.max(len);
            // A code fills every window it is a prefix of.
            let span = 1usize << (TABLE_BITS - len);
            for (idx, seq) in tree.table(node).iter().enumerate() {
                let (code, _) = tree.code_at(node, idx as u16);
                let start = (code as usize) << (TABLE_BITS - len);
                table[start..start + span].fill(len as u16 | seq.value() << ENTRY_LEN_BITS);
            }
        }
        SeqReader {
            tree,
            stream,
            limit,
            pos: 0,
            fast_bytes: if longest == 0 { 0 } else { limit / 8 },
            per_load: (WINDOW_BITS / longest.max(1)) as usize,
            table,
        }
    }

    /// Payload bits not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.limit - self.pos
    }

    /// Decode the next `out.len()` sequences into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`SimplifiedTree::decode`]'s [`KcError::CorruptStream`] for
    /// the first code that does not decode.
    pub(crate) fn read_into(&mut self, out: &mut [u16]) -> Result<()> {
        let mut i = 0;
        while i < out.len() {
            let byte = self.pos / 8;
            if byte + 8 <= self.fast_bytes {
                let word: [u8; 8] = self.stream[byte..byte + 8]
                    .try_into()
                    .expect("8-byte slice");
                // Every table code the loop can meet ends inside the
                // load's 57 guaranteed payload bits; bits shifted in past
                // the load are zero and only ever pad a window beyond the
                // end of its code.
                let mut window = u64::from_be_bytes(word) << (self.pos % 8);
                let end = out.len().min(i + self.per_load);
                let codes = &mut out[i..end];
                // A zero entry has length 0, so every lookup after it
                // repeats it: the nonzero entries form a prefix.
                let mut taken = 0;
                for slot in codes.iter_mut() {
                    let entry = self.table[(window >> (64 - TABLE_BITS)) as usize];
                    *slot = entry >> ENTRY_LEN_BITS;
                    // The shift count is the entry's low six bits: its length.
                    window = window.wrapping_shl(u32::from(entry));
                    self.pos += usize::from(entry & ((1 << ENTRY_LEN_BITS) - 1));
                    taken += usize::from(entry != 0);
                }
                let whole = taken == codes.len();
                i += taken;
                if whole {
                    continue;
                }
            }
            out[i] = self.decode_one()?;
            i += 1;
        }
        Ok(())
    }

    /// Decode the next `n` sequences, handing each to `f` in stream order.
    ///
    /// # Errors
    ///
    /// As [`Self::read_into`].
    pub(crate) fn for_each(&mut self, n: usize, mut f: impl FnMut(u16)) -> Result<()> {
        let mut buf = [0u16; SEQS_PER_GROUP];
        let mut left = n;
        while left > 0 {
            let chunk = &mut buf[..left.min(SEQS_PER_GROUP)];
            self.read_into(chunk)?;
            chunk.iter().for_each(|&s| f(s));
            left -= chunk.len();
        }
        Ok(())
    }

    /// The slow path: one code through the tree's own parser.
    fn decode_one(&mut self) -> Result<u16> {
        let mut reader = BitReader::with_limit(self.stream, self.limit);
        reader.skip(self.pos);
        let seq = self.tree.decode(&mut reader)?;
        self.pos = reader.position();
        Ok(seq.value())
    }
}

impl std::fmt::Debug for SeqReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqReader")
            .field("pos", &self.pos)
            .field("limit", &self.limit)
            .field("per_load", &self.per_load)
            .finish_non_exhaustive()
    }
}

/// Decode `filters × channels` sequences from `stream` into a
/// `[K, C, 3, 3]` tensor, returning it with the count of payload bits
/// left unread (each caller words its own leftover error).
///
/// # Errors
///
/// Returns [`KcError::CorruptStream`] if a code does not decode.
pub(crate) fn decode_tensor(
    tree: &SimplifiedTree,
    stream: &[u8],
    stream_bits: usize,
    filters: usize,
    channels: usize,
) -> Result<(BitTensor, usize)> {
    let mut kernel = BitTensor::zeros(&[filters, channels, 3, 3]);
    let mut seqs = SeqReader::new(tree, stream, stream_bits);
    let (mut f, mut ch) = (0, 0);
    seqs.for_each(filters * channels, |seq| {
        write_sequence(&mut kernel, f, ch, seq);
        ch += 1;
        if ch == channels {
            (f, ch) = (f + 1, 0);
        }
    })?;
    Ok((kernel, seqs.remaining()))
}

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
    seqs: SeqReader<'a>,
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
    fn from_parts(
        tree: &'a SimplifiedTree,
        stream: &'a [u8],
        stream_bits: usize,
        filters: usize,
        channels: usize,
    ) -> Self {
        GroupDecoder {
            seqs: SeqReader::new(tree, stream, stream_bits),
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
    fn decode_next(&mut self) -> Result<Option<PackedGroup>> {
        if self.next == self.num_groups() {
            self.check_consumed()?;
            return Ok(None);
        }
        let (filter, lane) = (self.next / self.lanes, self.next % self.lanes);
        let seqs = (self.channels - lane * LANE_BITS).min(SEQS_PER_GROUP);
        // A tail group's unused slots stay zero, so its words do too.
        let mut group = [0u16; SEQS_PER_GROUP];
        self.seqs.read_into(&mut group[..seqs])?;
        self.next += 1;
        Ok(Some(PackedGroup {
            filter,
            lane,
            seqs,
            words: pack_group(&group),
        }))
    }

    /// Drain the remaining groups into a channel-packed kernel. The words
    /// of each group are scattered straight to their places in the
    /// kernel's panel layout ([`LaneLayout::index`]) — no intermediate
    /// flat tensor or second copy of the words exists at any point.
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
        let layout = LaneLayout::new(self.filters, self.channels, 3, 3);
        let mut data = vec![0u64; layout.words()];
        while let Some(g) = self.decode_next()? {
            for (p, &w) in g.words.iter().enumerate() {
                data[layout.index(g.filter, p, g.lane)] = w;
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
        self.seqs.for_each(self.filters * self.channels, |seq| {
            hist.record(BitSeq::new_unchecked(seq));
        })?;
        self.next = self.num_groups();
        self.check_consumed()?;
        Ok(hist)
    }

    /// Fail unless every payload bit was consumed.
    fn check_consumed(&self) -> Result<()> {
        match self.seqs.remaining() {
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
                    let want = offline.lane_word(g.filter, p, g.lane);
                    assert_eq!(w, want, "({f},{c}) group {seen} pos {p}");
                }
                seen += 1;
            }
            assert_eq!(seen, dec.num_groups());
        }
    }

    #[test]
    fn collect_packed_equals_pack_of_decompress() {
        // Filter counts on and off the 8-filter panels, channel counts on
        // and off the 64-bit lanes.
        let shapes = [1usize, 7, 9, 200]
            .into_iter()
            .flat_map(|f| [1usize, 63, 64, 65, 200].map(|c| (f, c)));
        for (f, c) in shapes.chain([(4, 16), (2, 70)]) {
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

    /// Differential tests: every container decode against the
    /// per-codeword parse the table loop replaced.
    mod differential {
        use super::*;
        use crate::bitstream::BitWriter;
        use crate::huffman::TreeConfig;
        use bitnn::pack::PackedKernel;
        use proptest::prelude::*;
        use rand::Rng;

        /// The four tree shapes: the paper's, a 2-node, an 8-node (codes
        /// up to 17 bits once widened), and the paper's with all 512
        /// sequences (a widened 13-bit last node). `shape` picks one.
        fn tree(shape: usize, rng: &mut StdRng) -> SimplifiedTree {
            let mut ranked: Vec<BitSeq> = BitSeq::all().collect();
            for i in (1..ranked.len()).rev() {
                ranked.swap(i, rng.random_range(0..=i));
            }
            let (caps, assigned) = match shape {
                0 => (vec![32, 64, 64, 256], rng.random_range(1..=416)),
                1 => (vec![256, 256], rng.random_range(1..=512)),
                2 => (vec![1, 1, 2, 4, 8, 16, 32, 64], rng.random_range(1..=512)),
                _ => (vec![32, 64, 64, 256], 512),
            };
            ranked.truncate(assigned);
            SimplifiedTree::from_ranked(&ranked, TreeConfig::with_capacities(caps).unwrap())
        }

        /// A valid stream of `n` sequences drawn from the tree's tables.
        fn valid_stream(tree: &SimplifiedTree, n: usize, rng: &mut StdRng) -> (Vec<u8>, usize) {
            let seqs: Vec<BitSeq> = (0..tree.config().nodes())
                .flat_map(|i| tree.table(i).iter().copied())
                .collect();
            let mut w = BitWriter::new();
            for _ in 0..n {
                tree.encode(seqs[rng.random_range(0..seqs.len())], &mut w)
                    .unwrap();
            }
            let bits = w.bits_written();
            (w.into_bytes().to_vec(), bits)
        }

        fn container(
            tree: &SimplifiedTree,
            stream: &[u8],
            stream_bits: usize,
            filters: usize,
            channels: usize,
        ) -> Container {
            Container {
                filters,
                channels,
                tree: tree.clone(),
                stream_bits,
                stream: bytes::Bytes::copy_from_slice(stream),
            }
        }

        /// The reference: one `SimplifiedTree::decode` per sequence, then
        /// the unread payload bits.
        fn reference_seqs(c: &Container) -> Result<(Vec<u16>, usize)> {
            let mut r = BitReader::with_limit(&c.stream, c.stream_bits);
            let seqs = (0..c.filters * c.channels)
                .map(|_| c.tree.decode(&mut r).map(BitSeq::value))
                .collect::<Result<Vec<u16>>>()?;
            Ok((seqs, r.remaining()))
        }

        fn leftover(left: usize, suffix: &str) -> Result<()> {
            match left {
                0 => Ok(()),
                _ => Err(KcError::CorruptStream(format!(
                    "{left} bits left over{suffix}"
                ))),
            }
        }

        fn reference_kernel(c: &Container) -> Result<BitTensor> {
            let (seqs, left) = reference_seqs(c)?;
            leftover(left, "")?;
            let mut t = BitTensor::zeros(&[c.filters, c.channels, 3, 3]);
            for (i, &s) in seqs.iter().enumerate() {
                write_sequence(&mut t, i / c.channels, i % c.channels, s);
            }
            Ok(t)
        }

        fn reference_packed(c: &Container) -> Result<PackedKernel> {
            let (seqs, left) = reference_seqs(c)?;
            leftover(left, " after the final group")?;
            let layout = LaneLayout::new(c.filters, c.channels, 3, 3);
            let mut words = vec![0u64; layout.words()];
            for (i, &s) in seqs.iter().enumerate() {
                let (f, ch) = (i / c.channels, i % c.channels);
                for p in 0..9 {
                    let bit = u64::from((s >> (8 - p)) & 1);
                    words[layout.index(f, p, ch / 64)] |= bit << (ch % 64);
                }
            }
            Ok(PackedKernel::from_lane_words(c.filters, c.channels, 3, 3, words).unwrap())
        }

        fn reference_histogram(c: &Container) -> Result<SeqHistogram> {
            let (seqs, left) = reference_seqs(c)?;
            leftover(left, " after the final group")?;
            let mut hist = SeqHistogram::default();
            for s in seqs {
                hist.record(BitSeq::new_unchecked(s));
            }
            Ok(hist)
        }

        /// All three decodes equal the reference, values and errors alike.
        fn assert_matches_reference(c: &Container, what: &str) {
            assert_eq!(c.decode_packed(), reference_packed(c), "packed, {what}");
            assert_eq!(c.decode_kernel(), reference_kernel(c), "kernel, {what}");
            assert_eq!(
                c.decode_histogram(),
                reference_histogram(c),
                "histogram, {what}"
            );
        }

        const CHANNELS: [usize; 5] = [1, 63, 64, 65, 130];

        #[test]
        fn truncation_at_every_bit_offset_matches_the_reference() {
            let mut rng = StdRng::seed_from_u64(0x7AB1E);
            for shape in 0..4 {
                for channels in CHANNELS {
                    let tree = tree(shape, &mut rng);
                    let (stream, bits) = valid_stream(&tree, channels, &mut rng);
                    let whole = container(&tree, &stream, bits, 1, channels);
                    assert!(whole.decode_packed().is_ok(), "shape {shape} c {channels}");
                    for cut in 0..=bits {
                        let c = container(&tree, &stream[..cut.div_ceil(8)], cut, 1, channels);
                        assert_matches_reference(
                            &c,
                            &format!("shape {shape} c {channels} cut {cut}"),
                        );
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn valid_streams_decode_like_the_reference(
                shape in 0usize..4,
                pick in 0usize..5,
                filters in 1usize..4,
                seed in any::<u64>(),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let channels = CHANNELS[pick];
                let tree = tree(shape, &mut rng);
                let (stream, bits) = valid_stream(&tree, filters * channels, &mut rng);
                let c = container(&tree, &stream, bits, filters, channels);
                prop_assert!(c.decode_packed().is_ok());
                assert_matches_reference(&c, &format!("shape {shape} {filters}x{channels}"));
            }

            #[test]
            fn random_bytes_fail_like_the_reference(
                shape in 0usize..4,
                pick in 0usize..5,
                filters in 1usize..4,
                stream in proptest::collection::vec(any::<u8>(), 0..240),
                cut in 0usize..8,
                seed in any::<u64>(),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let tree = tree(shape, &mut rng);
                // Any limit inside the last byte, down to an empty stream.
                let bits = (stream.len() * 8).saturating_sub(cut);
                let c = container(&tree, &stream, bits, filters, CHANNELS[pick]);
                assert_matches_reference(&c, &format!("shape {shape} {} bits", bits));
            }
        }
    }
}
