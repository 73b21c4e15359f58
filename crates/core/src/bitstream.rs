//! MSB-first bit streams.
//!
//! Variable-length codes are written most-significant-bit first so that a
//! decoder reading the stream front-to-back sees each codeword's prefix
//! bits before its index bits — exactly how the hardware stream parser
//! consumes its input buffer (paper Fig. 6).

use crate::error::{KcError, Result};
use bytes::Bytes;

/// Write bits MSB-first into a growable byte buffer.
///
/// Codes collect in a 64-bit accumulator that is flushed four whole
/// bytes at a time, so a codeword costs a shift and an OR, not one
/// read-modify-write per bit.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned: the low `pending` bits are the next
    /// ones to reach `bytes`.
    acc: u64,
    /// Bits held in `acc` (always below 32 between calls).
    pending: u32,
    bits_written: usize,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `len` bits of `code`, most significant first. Bits
    /// of `code` above `len` are ignored; `len == 0` writes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    #[inline]
    pub fn write_bits(&mut self, code: u32, len: u8) {
        assert!(len <= 32, "codes longer than 32 bits are unsupported");
        let len = u32::from(len);
        let code = u64::from(code) & ((1u64 << len) - 1);
        // pending < 32 and len <= 32, so nothing pending shifts out.
        self.acc = (self.acc << len) | code;
        self.pending += len;
        self.bits_written += len as usize;
        if self.pending >= 32 {
            self.pending -= 32;
            let word = (self.acc >> self.pending) as u32;
            self.bytes.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Total bits written so far.
    pub fn bits_written(&self) -> usize {
        self.bits_written
    }

    /// Finish and return the backing bytes (final byte zero-padded).
    pub fn into_bytes(mut self) -> Bytes {
        // Left-align the pending bits in a 32-bit word and keep the bytes
        // they touch.
        let word = ((self.acc << (32 - self.pending)) as u32).to_be_bytes();
        self.bytes
            .extend_from_slice(&word[..self.pending.div_ceil(8) as usize]);
        Bytes::from(self.bytes)
    }
}

/// Read bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit position.
    pos: usize,
    /// Total readable bits (callers may cap below `bytes.len() * 8` to
    /// exclude the final byte's padding).
    limit: usize,
}

impl<'a> BitReader<'a> {
    /// Reader over all bits of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            limit: bytes.len() * 8,
        }
    }

    /// Reader over the first `limit` bits of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `limit` exceeds the available bits.
    pub fn with_limit(bytes: &'a [u8], limit: usize) -> Self {
        assert!(limit <= bytes.len() * 8, "limit beyond buffer");
        BitReader {
            bytes,
            pos: 0,
            limit,
        }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.limit - self.pos
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Read one bit.
    ///
    /// # Errors
    ///
    /// Returns [`KcError::CorruptStream`] at end of stream.
    pub fn read_bit(&mut self) -> Result<u32> {
        if self.pos >= self.limit {
            return Err(KcError::CorruptStream("unexpected end of stream".into()));
        }
        let byte = self.bytes[self.pos / 8];
        let bit = (byte >> (7 - self.pos % 8)) & 1;
        self.pos += 1;
        Ok(bit as u32)
    }

    /// The next 32 bits MSB-first without consuming them. Bits past the
    /// limit read as zero, and no byte past the slice is touched.
    pub fn peek32(&self) -> u32 {
        let byte = self.pos / 8;
        let word = match self.bytes.get(byte..byte + 8) {
            Some(b) => u64::from_be_bytes(b.try_into().expect("8-byte slice")),
            None => self.bytes[byte.min(self.bytes.len())..]
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &b)| w | ((b as u64) << (56 - 8 * i))),
        };
        // At most 7 bits are skipped, so the top 32 of the shifted word
        // are all loaded bits.
        let window = ((word << (self.pos % 8)) >> 32) as u32;
        match self.remaining() {
            r if r >= 32 => window,
            r => window & !(u32::MAX >> r),
        }
    }

    /// Consume `len` bits already inspected through [`Self::peek32`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than `len` bits remain.
    pub fn skip(&mut self, len: usize) {
        assert!(len <= self.remaining(), "skip past the end of stream");
        self.pos += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Read `len` (1..=32) bits MSB-first through the decoder's window.
    fn take(r: &mut BitReader<'_>, len: usize) -> u32 {
        let v = (u64::from(r.peek32()) >> (32 - len)) as u32;
        r.skip(len);
        v
    }

    #[test]
    fn roundtrip_single_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        assert_eq!(w.bits_written(), 4);
        let bytes = w.into_bytes();
        let mut r = BitReader::with_limit(&bytes, 4);
        assert_eq!(r.read_bit().unwrap(), 1);
        assert_eq!(r.read_bit().unwrap(), 0);
        assert_eq!(r.read_bit().unwrap(), 1);
        assert_eq!(r.read_bit().unwrap(), 1);
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn msb_first_byte_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b0000000, 7);
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 0b1000_0000);
    }

    #[test]
    fn cross_byte_codes() {
        let mut w = BitWriter::new();
        w.write_bits(0b11111, 5);
        w.write_bits(0b000001111, 9); // spans bytes
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(take(&mut r, 5), 0b11111);
        assert_eq!(take(&mut r, 9), 0b000001111);
    }

    #[test]
    fn limit_excludes_padding() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let n = w.bits_written();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1); // padded to a byte
        let mut r = BitReader::with_limit(&bytes, n);
        assert_eq!(take(&mut r, 3), 0b101);
        assert_eq!(r.remaining(), 0);
    }

    /// Write `lead` zero bits, then `code`/`len`, then a one-bit marker.
    fn framed(lead: u8, code: u32, len: u8) -> (Vec<u8>, usize) {
        let mut w = BitWriter::new();
        w.write_bits(0, lead);
        w.write_bits(code, len);
        w.write_bits(1, 1);
        let n = w.bits_written();
        (w.into_bytes().to_vec(), n)
    }

    #[test]
    fn bits_above_len_are_ignored() {
        for lead in 0..8u8 {
            for len in 1..32u8 {
                let garbage = u32::MAX << len;
                let clean = 0x5555_5555 & !garbage;
                assert_eq!(
                    framed(lead, garbage | clean, len),
                    framed(lead, clean, len),
                    "lead {lead} len {len}"
                );
            }
        }
    }

    #[test]
    fn zero_length_writes_nothing_at_every_offset() {
        for lead in 0..8u8 {
            let (bytes, n) = framed(lead, u32::MAX, 0);
            assert_eq!(n, lead as usize + 1);
            // Only the marker bit is set; the rest of the byte is padding.
            assert_eq!(bytes, [0x80 >> lead], "lead {lead}");
        }
    }

    #[test]
    fn full_32_bit_codes_at_every_offset() {
        for lead in 0..8u8 {
            for code in [0u32, u32::MAX, 0x8000_0001, 0xDEAD_BEEF] {
                let (bytes, n) = framed(lead, code, 32);
                assert_eq!(n, lead as usize + 33);
                assert_eq!(bytes.len(), n.div_ceil(8));
                let mut r = BitReader::with_limit(&bytes, n);
                assert_eq!(take(&mut r, lead as usize), 0);
                assert_eq!(take(&mut r, 32), code, "lead {lead}");
                assert_eq!(take(&mut r, 1), 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "longer than 32 bits")]
    fn codes_over_32_bits_panic() {
        BitWriter::new().write_bits(0, 33);
    }

    #[test]
    fn peek32_matches_bitwise_reads_and_zero_fills_past_the_limit() {
        let bytes: Vec<u8> = (0..12u8).map(|i| i.wrapping_mul(0x9D) ^ 0x5A).collect();
        for len in 0..=bytes.len() {
            let slice = &bytes[..len];
            for limit in 0..=len * 8 {
                for pos in 0..=limit {
                    let mut r = BitReader::with_limit(slice, limit);
                    r.skip(pos);
                    let mut want = 0u32;
                    let mut bitwise = r.clone();
                    for i in 0..32 {
                        let bit = bitwise.read_bit().unwrap_or(0);
                        want |= bit << (31 - i);
                    }
                    assert_eq!(r.peek32(), want, "len {len} limit {limit} pos {pos}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn arbitrary_code_roundtrip(codes in proptest::collection::vec((any::<u32>(), 1u8..=32), 1..100)) {
            let mut w = BitWriter::new();
            for &(c, l) in &codes {
                let c = if l == 32 { c } else { c & ((1 << l) - 1) };
                w.write_bits(c, l);
            }
            let total = w.bits_written();
            let bytes = w.into_bytes();
            let mut r = BitReader::with_limit(&bytes, total);
            for &(c, l) in &codes {
                let c = if l == 32 { c } else { c & ((1 << l) - 1) };
                prop_assert_eq!(take(&mut r, l as usize), c);
            }
            prop_assert_eq!(r.remaining(), 0);
        }
    }
}
