//! The simplified Huffman tree (paper Fig. 4 and Sec. VI).
//!
//! The tree is a chain: node `i` has the prefix `1…1 0` (`i` ones then a
//! zero), so prefixes have lengths 1, 2, 3, 4 for four nodes. Each node
//! owns a table of up to `capacity` sequences; a codeword is the node
//! prefix followed by a fixed-width index into that table. With the
//! paper's capacities (32, 64, 64, 256) the code lengths are
//! `1+5 = 6`, `2+6 = 8`, `3+6 = 9`, `4+8 = 12` bits — the values in
//! Sec. VI.
//!
//! Sequences are assigned to nodes by descending frequency: the 32 most
//! common go into node 0 (6-bit codes) and so on. If more distinct
//! sequences occur than the configured capacity (512 can occur but the
//! paper's tables only hold 416), the last node's index widens by however
//! many bits are needed — the hardware's 1 KB uncompressed table
//! (Table IV) holds all 512 two-byte entries, so this costs no extra
//! hardware.

use crate::bitseq::{BitSeq, NUM_SEQUENCES};
use crate::bitstream::{BitReader, BitWriter};
use crate::error::{KcError, Result};
use crate::freq::FreqTable;

/// Node capacities of the simplified tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeConfig {
    capacities: Vec<usize>,
}

impl TreeConfig {
    /// The paper's configuration: 4 nodes of 32, 64, 64, 256 sequences.
    pub fn paper() -> Self {
        TreeConfig {
            capacities: vec![32, 64, 64, 256],
        }
    }

    /// Custom node capacities.
    ///
    /// # Errors
    ///
    /// Returns [`KcError::InvalidTreeConfig`] unless there are 2..=8 nodes
    /// and every capacity is a power of two.
    pub fn with_capacities(capacities: Vec<usize>) -> Result<Self> {
        if !(2..=8).contains(&capacities.len()) {
            return Err(KcError::InvalidTreeConfig(format!(
                "need 2..=8 nodes, got {}",
                capacities.len()
            )));
        }
        for &c in &capacities {
            if c == 0 || !c.is_power_of_two() {
                return Err(KcError::InvalidTreeConfig(format!(
                    "capacity {c} is not a power of two"
                )));
            }
        }
        Ok(TreeConfig { capacities })
    }

    /// Node capacities.
    pub fn capacities(&self) -> &[usize] {
        &self.capacities
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.capacities.len()
    }

    /// Prefix length of node `i` (the chain shape: `i` ones + one zero).
    fn prefix_len(&self, i: usize) -> u8 {
        (i + 1) as u8
    }

    /// Index width of node `i` at its configured capacity.
    fn index_bits(&self, i: usize) -> u8 {
        self.capacities[i].trailing_zeros() as u8
    }

    /// Code length of node `i` at its configured capacity.
    pub fn code_len(&self, i: usize) -> u8 {
        self.prefix_len(i) + self.index_bits(i)
    }

    /// Total configured capacity.
    #[cfg(test)]
    fn total_capacity(&self) -> usize {
        self.capacities.iter().sum()
    }
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig::paper()
    }
}

/// A built simplified-Huffman codebook.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimplifiedTree {
    config: TreeConfig,
    /// Per node: the sequences stored in its table, in index order.
    tables: Vec<Vec<BitSeq>>,
    /// Actual index width per node (the last node may be widened).
    index_bits: Vec<u8>,
    /// `lookup[seq] = Some((node, index))`.
    lookup: Vec<Option<(u8, u16)>>,
}

impl SimplifiedTree {
    /// Assign sequences to nodes by descending frequency.
    ///
    /// Every sequence with a nonzero count receives a code. Sequences that
    /// never occur receive none (encoding one of them later yields
    /// [`KcError::Unencodable`]).
    pub fn build(freq: &FreqTable, config: TreeConfig) -> Self {
        let present: Vec<BitSeq> = freq
            .sorted_desc()
            .into_iter()
            .filter(|&(_, c)| c > 0)
            .map(|(s, _)| s)
            .collect();
        Self::from_ranked(&present, config)
    }

    /// Build from an explicit descending-frequency ranking (the first
    /// entries get the shortest codes).
    pub fn from_ranked(ranked: &[BitSeq], config: TreeConfig) -> Self {
        let n = config.nodes();
        let mut tables: Vec<Vec<BitSeq>> = vec![Vec::new(); n];
        let mut it = ranked.iter().copied();
        for (i, table) in tables.iter_mut().enumerate() {
            let cap = config.capacities[i];
            if i + 1 < n {
                table.extend(it.by_ref().take(cap));
            } else {
                // Last node absorbs everything left (auto-widening).
                table.extend(it.by_ref());
            }
        }
        let mut index_bits: Vec<u8> = (0..n).map(|i| config.index_bits(i)).collect();
        let last = n - 1;
        if tables[last].len() > config.capacities[last] {
            index_bits[last] = (tables[last].len() as u32)
                .next_power_of_two()
                .trailing_zeros() as u8;
        }
        let mut lookup = vec![None; NUM_SEQUENCES];
        for (node, table) in tables.iter().enumerate() {
            for (idx, seq) in table.iter().enumerate() {
                lookup[seq.value() as usize] = Some((node as u8, idx as u16));
            }
        }
        SimplifiedTree {
            config,
            tables,
            index_bits,
            lookup,
        }
    }

    /// The configuration this tree was built with.
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// The sequences stored in node `i`'s table.
    pub fn table(&self, i: usize) -> &[BitSeq] {
        &self.tables[i]
    }

    /// Actual code length of node `i` (prefix + possibly widened index).
    pub fn code_len(&self, i: usize) -> u8 {
        self.config.prefix_len(i) + self.index_bits[i]
    }

    /// The per-node code lengths — the hardware length table (Fig. 6).
    pub fn length_table(&self) -> Vec<u8> {
        (0..self.config.nodes()).map(|i| self.code_len(i)).collect()
    }

    /// Total sequences holding a code.
    pub fn assigned(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }

    /// The node and table index of `seq`, if assigned.
    pub fn assignment(&self, seq: BitSeq) -> Option<(u8, u16)> {
        self.lookup[seq.value() as usize]
    }

    /// The codeword for `seq` as `(bits, length)`.
    ///
    /// # Errors
    ///
    /// Returns [`KcError::Unencodable`] if the sequence has no code.
    pub fn code_for(&self, seq: BitSeq) -> Result<(u32, u8)> {
        let (node, idx) = self
            .assignment(seq)
            .ok_or(KcError::Unencodable(seq.value()))?;
        Ok(self.code_at(node as usize, idx))
    }

    /// The codeword `(bits, length)` addressing entry `idx` of node
    /// `node`'s table.
    pub(crate) fn code_at(&self, node: usize, idx: u16) -> (u32, u8) {
        let prefix_len = self.config.prefix_len(node);
        // Prefix: `node` ones followed by a zero.
        let prefix: u32 = ((1u32 << node) - 1) << 1; // e.g. node 2 -> 0b110
        let ibits = self.index_bits[node];
        let code = (prefix << ibits) | idx as u32;
        (code, prefix_len + ibits)
    }

    /// Append the code for `seq` to a bit stream.
    ///
    /// # Errors
    ///
    /// Returns [`KcError::Unencodable`] if the sequence has no code.
    pub fn encode(&self, seq: BitSeq, out: &mut BitWriter) -> Result<()> {
        let (code, len) = self.code_for(seq)?;
        out.write_bits(code, len);
        Ok(())
    }

    /// Decode one sequence from a bit stream.
    ///
    /// This is the hardware stream parser's length-table lookup (Fig. 6)
    /// done one codeword at a time: peek a 32-bit window, count its
    /// leading ones to find the node, take the node's index bits from the
    /// same window to address the uncompressed table, then advance by
    /// the node's code length. A code is at most 8 prefix bits plus a
    /// 16-bit index, so one window always holds it. Container decodes
    /// run the table-driven loop of [`crate::stream_decode`], which hands
    /// this parser only the codes its lookup cannot settle and the
    /// stream's tail, so its errors are theirs.
    ///
    /// # Errors
    ///
    /// Returns [`KcError::CorruptStream`] on a truncated stream, an
    /// invalid prefix, or an index beyond the node's table.
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Result<BitSeq> {
        // Bits past the end peek as zero, so the ones counted are real.
        let window = reader.peek32();
        let node = window.leading_ones() as usize;
        let Some(&ibits) = self.index_bits.get(node) else {
            return Err(KcError::CorruptStream(
                "prefix of all ones matches no node".into(),
            ));
        };
        let (prefix, ibits) = (node + 1, ibits as usize);
        let remaining = reader.remaining();
        if remaining < prefix + ibits {
            return Err(KcError::CorruptStream(if remaining < prefix {
                "unexpected end of stream".into()
            } else {
                format!("wanted {ibits} bits, {} remaining", remaining - prefix)
            }));
        }
        let idx = ((u64::from(window) << prefix) & u64::from(u32::MAX)) >> (32 - ibits);
        reader.skip(prefix + ibits);
        self.tables[node]
            .get(idx as usize)
            .copied()
            .ok_or_else(|| KcError::CorruptStream(format!("index {idx} beyond node {node} table")))
    }

    /// Total compressed size in bits of a payload with the given counts.
    pub fn compressed_bits(&self, freq: &FreqTable) -> u64 {
        let mut bits = 0u64;
        for (node, table) in self.tables.iter().enumerate() {
            let len = self.code_len(node) as u64;
            for &seq in table {
                bits += freq.count(seq) * len;
            }
        }
        bits
    }

    /// Expected code length in bits per sequence under `freq`.
    pub fn avg_bits(&self, freq: &FreqTable) -> f64 {
        if freq.total() == 0 {
            0.0
        } else {
            self.compressed_bits(freq) as f64 / freq.total() as f64
        }
    }

    /// Mass (in percent) encoded by each node under `freq` — the paper
    /// quotes these as "frequency of use of the stored sequences using
    /// 6/8/9/12 bits".
    pub fn node_usage_pct(&self, freq: &FreqTable) -> Vec<f64> {
        let total = freq.total();
        self.tables
            .iter()
            .map(|table| {
                if total == 0 {
                    0.0
                } else {
                    table.iter().map(|&s| freq.count(s)).sum::<u64>() as f64 / total as f64 * 100.0
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitnn::weightgen::SeqDistribution;
    use bytes::Bytes;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn skewed_freq() -> FreqTable {
        let mut rng = StdRng::seed_from_u64(1);
        let kernel = SeqDistribution::for_block(1, 0).sample_kernel(64, 64, &mut rng);
        FreqTable::from_kernel(&kernel).unwrap()
    }

    #[test]
    fn paper_config_code_lengths() {
        let c = TreeConfig::paper();
        assert_eq!(c.nodes(), 4);
        // Sec. VI: 6, 8, 9, 12 bits.
        assert_eq!(c.code_len(0), 6);
        assert_eq!(c.code_len(1), 8);
        assert_eq!(c.code_len(2), 9);
        assert_eq!(c.code_len(3), 12);
        assert_eq!(c.total_capacity(), 416);
    }

    #[test]
    fn config_validation() {
        assert!(TreeConfig::with_capacities(vec![32, 64]).is_ok());
        assert!(TreeConfig::with_capacities(vec![32]).is_err());
        assert!(TreeConfig::with_capacities(vec![3, 64]).is_err());
        assert!(TreeConfig::with_capacities(vec![0, 64]).is_err());
        assert!(TreeConfig::with_capacities(vec![2; 9]).is_err());
    }

    #[test]
    fn most_frequent_gets_shortest_code() {
        let freq = skewed_freq();
        let tree = SimplifiedTree::build(&freq, TreeConfig::paper());
        let top = freq.top_k(1)[0].0;
        let (_, len) = tree.code_for(top).unwrap();
        assert_eq!(len, 6);
        // A rare-but-present sequence lands in a later node.
        let rare = freq.bottom_k_present(1)[0].0;
        let (_, rare_len) = tree.code_for(rare).unwrap();
        assert!(rare_len > 6);
    }

    #[test]
    fn prefixes_match_chain_shape() {
        let freq = skewed_freq();
        let tree = SimplifiedTree::build(&freq, TreeConfig::paper());
        // Node 0 codes start with 0; node 1 with 10; etc.
        for node in 0..4 {
            if tree.table(node).is_empty() {
                continue;
            }
            let seq = tree.table(node)[0];
            let (code, len) = tree.code_for(seq).unwrap();
            let prefix_len = node + 1;
            let prefix = code >> (len - prefix_len as u8);
            let expect = ((1u32 << node) - 1) << 1;
            assert_eq!(prefix, expect, "node {node}");
        }
    }

    #[test]
    fn roundtrip_every_assigned_sequence() {
        let freq = skewed_freq();
        let tree = SimplifiedTree::build(&freq, TreeConfig::paper());
        let mut w = BitWriter::new();
        let present: Vec<BitSeq> = freq
            .sorted_desc()
            .into_iter()
            .filter(|&(_, c)| c > 0)
            .map(|(s, _)| s)
            .collect();
        for &s in &present {
            tree.encode(s, &mut w).unwrap();
        }
        let total = w.bits_written();
        let bytes = w.into_bytes();
        let mut r = BitReader::with_limit(&bytes, total);
        for &s in &present {
            assert_eq!(tree.decode(&mut r).unwrap(), s);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn auto_widening_when_all_512_present() {
        let freq = FreqTable::from_counts((1..=512u64).collect()).unwrap();
        let tree = SimplifiedTree::build(&freq, TreeConfig::paper());
        assert_eq!(tree.assigned(), 512);
        // Last node holds 512 - 160 = 352 entries -> 9 index bits -> 13.
        assert_eq!(tree.table(3).len(), 352);
        assert_eq!(tree.code_len(3), 4 + 9);
        // All other nodes keep their configured lengths.
        assert_eq!(tree.length_table(), vec![6, 8, 9, 13]);
        // Round-trip still works across the widened node.
        let mut w = BitWriter::new();
        for s in BitSeq::all() {
            tree.encode(s, &mut w).unwrap();
        }
        let total = w.bits_written();
        let bytes = w.into_bytes();
        let mut r = BitReader::with_limit(&bytes, total);
        for s in BitSeq::all() {
            assert_eq!(tree.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn unassigned_sequence_is_unencodable() {
        let mut freq = FreqTable::new();
        freq.record(BitSeq::ZEROS);
        let tree = SimplifiedTree::build(&freq, TreeConfig::paper());
        assert!(matches!(
            tree.code_for(BitSeq::ONES),
            Err(KcError::Unencodable(511))
        ));
    }

    #[test]
    fn all_ones_prefix_is_corrupt() {
        let freq = skewed_freq();
        let tree = SimplifiedTree::build(&freq, TreeConfig::paper());
        let bytes = [0xFFu8, 0xFF];
        let mut r = BitReader::new(&bytes);
        assert!(matches!(
            tree.decode(&mut r),
            Err(KcError::CorruptStream(_))
        ));
    }

    #[test]
    fn truncated_stream_is_corrupt() {
        let freq = skewed_freq();
        let tree = SimplifiedTree::build(&freq, TreeConfig::paper());
        let top = freq.top_k(1)[0].0;
        let mut w = BitWriter::new();
        tree.encode(top, &mut w).unwrap();
        let bytes = w.into_bytes();
        // Cut the stream one bit short of the 6-bit code.
        let mut r = BitReader::with_limit(&bytes, 5);
        assert!(matches!(
            tree.decode(&mut r),
            Err(KcError::CorruptStream(_))
        ));
    }

    /// A tree over all 512 sequences, ranked by value (so the last node
    /// is auto-widened whenever the capacities hold fewer than 512).
    fn full_tree(capacities: Vec<usize>) -> SimplifiedTree {
        let ranked: Vec<BitSeq> = BitSeq::all().collect();
        SimplifiedTree::from_ranked(&ranked, TreeConfig::with_capacities(capacities).unwrap())
    }

    /// Encode `seqs`, returning the bytes, the exact bit count, and the
    /// end offset of every codeword.
    fn encode_all(tree: &SimplifiedTree, seqs: &[BitSeq]) -> (Bytes, usize, Vec<usize>) {
        let mut w = BitWriter::new();
        let mut ends = Vec::with_capacity(seqs.len());
        for &s in seqs {
            tree.encode(s, &mut w).unwrap();
            ends.push(w.bits_written());
        }
        let bits = w.bits_written();
        (w.into_bytes(), bits, ends)
    }

    fn is_corrupt(r: Result<BitSeq>, needle: &str) -> bool {
        matches!(r, Err(KcError::CorruptStream(m)) if m.contains(needle))
    }

    /// Every sequence in a scrambled order, so codes of every node
    /// length interleave and straddle byte and window boundaries.
    fn scrambled() -> Vec<BitSeq> {
        (0..512u32)
            .map(|i| BitSeq::new_unchecked(((i * 167 + 31) % 512) as u16))
            .collect()
    }

    #[test]
    fn truncation_at_every_bit_offset_is_a_typed_error() {
        let tree = full_tree(vec![32, 64, 64, 256]);
        let seqs: Vec<BitSeq> = scrambled().into_iter().take(24).collect();
        let (bytes, bits, ends) = encode_all(&tree, &seqs);
        for cut in 0..bits {
            let mut r = BitReader::with_limit(&bytes, cut);
            let whole = ends.iter().take_while(|&&e| e <= cut).count();
            for &s in &seqs[..whole] {
                assert_eq!(tree.decode(&mut r).unwrap(), s, "cut {cut}");
            }
            assert!(
                matches!(tree.decode(&mut r), Err(KcError::CorruptStream(_))),
                "cut at bit {cut} must be a corrupt stream"
            );
        }
    }

    #[test]
    fn all_ones_prefix_near_the_end_is_corrupt() {
        let tree = full_tree(vec![32, 64, 64, 256]);
        let head: Vec<BitSeq> = scrambled().into_iter().take(5).collect();
        // Valid codes, then four ones (no node), then a few more bits so
        // the bad prefix sits inside the last 32-bit window.
        let mut w = BitWriter::new();
        for &s in &head {
            tree.encode(s, &mut w).unwrap();
        }
        w.write_bits(0b1111, 4);
        w.write_bits(0b010, 3);
        let bits = w.bits_written();
        let bytes = w.into_bytes();
        let mut r = BitReader::with_limit(&bytes, bits);
        for &s in &head {
            assert_eq!(tree.decode(&mut r).unwrap(), s);
        }
        assert!(is_corrupt(tree.decode(&mut r), "all ones"));
        // Ending on the bad prefix itself is still a bad prefix; ending
        // one bit short of it is a truncation instead.
        let mut r = BitReader::with_limit(&bytes, bits - 3);
        for _ in &head {
            tree.decode(&mut r).unwrap();
        }
        assert!(is_corrupt(tree.decode(&mut r), "all ones"));
        let mut r = BitReader::with_limit(&bytes, bits - 4);
        for _ in &head {
            tree.decode(&mut r).unwrap();
        }
        assert!(is_corrupt(tree.decode(&mut r), "end of stream"));
    }

    #[test]
    fn widened_last_node_decodes_and_rejects_unused_indices() {
        let tree = full_tree(vec![32, 64, 64, 256]);
        assert_eq!(tree.code_len(3), 13);
        let last = *tree.table(3).last().unwrap();
        let (bytes, bits, _) = encode_all(&tree, &[last]);
        assert_eq!(bits, 13);
        let mut r = BitReader::with_limit(&bytes, bits);
        assert_eq!(tree.decode(&mut r).unwrap(), last);
        assert_eq!(r.remaining(), 0);
        for cut in 4..13 {
            let mut r = BitReader::with_limit(&bytes, cut);
            assert!(
                is_corrupt(tree.decode(&mut r), "wanted 9 bits"),
                "cut {cut}"
            );
        }
        // 352 entries behind a 9-bit index: 352..512 address nothing.
        let mut w = BitWriter::new();
        w.write_bits((0b1110 << 9) | 511, 13);
        let bytes = w.into_bytes();
        let mut r = BitReader::with_limit(&bytes, 13);
        assert!(is_corrupt(tree.decode(&mut r), "index 511 beyond node 3"));
    }

    #[test]
    fn two_and_eight_node_trees_roundtrip_and_reject_bad_prefixes() {
        for caps in [vec![256, 256], vec![1, 1, 2, 4, 8, 16, 32, 64]] {
            let tree = full_tree(caps.clone());
            let n = caps.len();
            let seqs = scrambled();
            let (bytes, bits, _) = encode_all(&tree, &seqs);
            let mut r = BitReader::with_limit(&bytes, bits);
            for &s in &seqs {
                assert_eq!(tree.decode(&mut r).unwrap(), s, "{caps:?}");
            }
            assert_eq!(r.remaining(), 0);
            let ones = [0xFFu8, 0xFF];
            let mut r = BitReader::with_limit(&ones, n);
            assert!(is_corrupt(tree.decode(&mut r), "all ones"), "{caps:?}");
            let mut r = BitReader::with_limit(&ones, n - 1);
            assert!(is_corrupt(tree.decode(&mut r), "end of stream"), "{caps:?}");
        }
    }

    proptest! {
        #[test]
        fn ragged_stream_lengths_roundtrip(
            picks in proptest::collection::vec(0u16..512, 1..80),
            caps in 0usize..3,
        ) {
            let caps = match caps {
                0 => vec![32, 64, 64, 256],
                1 => vec![256, 256],
                _ => vec![1, 1, 2, 4, 8, 16, 32, 64],
            };
            let tree = full_tree(caps);
            let seqs: Vec<BitSeq> = picks.into_iter().map(BitSeq::new_unchecked).collect();
            let (bytes, bits, _) = encode_all(&tree, &seqs);
            let mut r = BitReader::with_limit(&bytes, bits);
            for &s in &seqs {
                prop_assert_eq!(tree.decode(&mut r).unwrap(), s);
            }
            prop_assert_eq!(r.remaining(), 0);
            prop_assert!(tree.decode(&mut r).is_err());
        }
    }

    #[test]
    fn avg_bits_below_9_for_skewed_input() {
        let freq = skewed_freq();
        let tree = SimplifiedTree::build(&freq, TreeConfig::paper());
        let avg = tree.avg_bits(&freq);
        assert!(avg < 9.0, "avg = {avg}");
        assert!(avg > freq.entropy_bits(), "cannot beat entropy");
        // Paper: Encoding ratio 1.18-1.25 -> avg bits 7.2-7.6.
        let ratio = 9.0 / avg;
        assert!((1.1..1.4).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn node_usage_sums_to_100_when_all_assigned() {
        let freq = skewed_freq();
        let tree = SimplifiedTree::build(&freq, TreeConfig::paper());
        let usage = tree.node_usage_pct(&freq);
        let sum: f64 = usage.iter().sum();
        assert!((sum - 100.0).abs() < 1e-9, "sum = {sum}");
        // Node 0 (top-32) should carry the largest share (paper: ~46%).
        assert!(usage[0] > usage[3], "{usage:?}");
    }

    #[test]
    fn compressed_bits_consistent_with_encoding() {
        let freq = skewed_freq();
        let tree = SimplifiedTree::build(&freq, TreeConfig::paper());
        // Encode every occurrence (not just distinct): simulate by value.
        let mut w = BitWriter::new();
        for (seq, count) in freq.sorted_desc() {
            for _ in 0..count {
                tree.encode(seq, &mut w).unwrap();
            }
        }
        assert_eq!(w.bits_written() as u64, tree.compressed_bits(&freq));
    }
}
