//! The decoding unit's configuration structure (paper Table III).
//!
//! Before a compressed kernel is evaluated, the `lddu` instruction loads
//! this structure from memory into the decoding unit: how many sequences
//! the stream holds, where it lives, how long it is, and the Huffman tree
//! (node code lengths + table sizes). The `simcpu` crate consumes this
//! when it models `lddu`.

use crate::huffman::SimplifiedTree;
use serde::{Deserialize, Serialize};

/// Table III: the values `lddu` loads.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecoderConfig {
    /// "Number of bit sequences" — codewords in the stream.
    pub num_sequences: u64,
    /// "Compressed sequences pointer" — simulated byte address of the
    /// stream in main memory.
    pub stream_ptr: u64,
    /// "Compressed sequences length" — stream length in bytes.
    pub stream_len_bytes: u64,
    /// "Huffman tree nodes" — per-node total code length in bits.
    pub node_code_lengths: Vec<u8>,
    /// Entries held in each node's table (needed to size the banked
    /// uncompressed table).
    pub node_table_sizes: Vec<u16>,
}

impl DecoderConfig {
    /// Derive the configuration for a built tree and a stream placed at
    /// `stream_ptr`.
    pub fn for_tree(
        tree: &SimplifiedTree,
        num_sequences: u64,
        stream_ptr: u64,
        stream_len_bytes: u64,
    ) -> Self {
        DecoderConfig {
            num_sequences,
            stream_ptr,
            stream_len_bytes,
            node_code_lengths: tree.length_table(),
            node_table_sizes: (0..tree.config().nodes())
                .map(|i| tree.table(i).len() as u16)
                .collect(),
        }
    }

    /// Number of tree nodes.
    pub fn nodes(&self) -> usize {
        self.node_code_lengths.len()
    }

    /// Total uncompressed-table entries (hardware budget: 512 entries =
    /// 1 KB at 2 bytes per sequence, paper Table IV).
    pub fn table_entries(&self) -> usize {
        self.node_table_sizes.iter().map(|&n| n as usize).sum()
    }

    /// Size of this structure in memory (what `lddu`'s pointer load
    /// fetches): three 8-byte words plus two bytes-ish vectors; modeled as
    /// packed fields.
    #[cfg(test)]
    fn struct_bytes(&self) -> usize {
        8 + 8 + 8 + self.node_code_lengths.len() + 2 * self.node_table_sizes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::FreqTable;
    use crate::huffman::TreeConfig;
    use crate::SimplifiedTree;

    fn tree() -> SimplifiedTree {
        let freq = FreqTable::from_counts((1..=512u64).collect()).unwrap();
        SimplifiedTree::build(&freq, TreeConfig::paper())
    }

    #[test]
    fn for_tree_copies_lengths() {
        let t = tree();
        let cfg = DecoderConfig::for_tree(&t, 4096, 0x1000, 3456);
        assert_eq!(cfg.nodes(), 4);
        assert_eq!(cfg.node_code_lengths, t.length_table());
        assert_eq!(cfg.table_entries(), 512);
        assert_eq!(cfg.num_sequences, 4096);
        assert_eq!(cfg.stream_ptr, 0x1000);
    }

    #[test]
    fn table_fits_hardware_budget() {
        // Paper Table IV: 1 KB uncompressed table = 512 entries of 2 bytes.
        let cfg = DecoderConfig::for_tree(&tree(), 1, 0, 1);
        assert!(cfg.table_entries() <= 512);
    }

    #[test]
    fn struct_bytes_counts_fields() {
        let cfg = DecoderConfig::for_tree(&tree(), 1, 0, 1);
        assert_eq!(cfg.struct_bytes(), 24 + 4 + 8);
    }

    #[test]
    fn clone_and_eq() {
        let cfg = DecoderConfig::for_tree(&tree(), 7, 42, 9);
        assert_eq!(cfg.clone(), cfg);
    }
}
