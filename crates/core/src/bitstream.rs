//! MSB-first bit streams.
//!
//! Variable-length codes are written most-significant-bit first so that a
//! decoder reading the stream front-to-back sees each codeword's prefix
//! bits before its index bits — exactly how the hardware stream parser
//! consumes its input buffer (paper Fig. 6).

use crate::error::{KcError, Result};
use bytes::Bytes;

/// Write bits MSB-first into a growable byte buffer.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the trailing partial byte (0..8).
    used: u8,
    bits_written: usize,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `len` bits of `code`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn write_bits(&mut self, code: u32, len: u8) {
        assert!(len <= 32, "codes longer than 32 bits are unsupported");
        for i in (0..len).rev() {
            let bit = (code >> i) & 1;
            if self.used == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.len() - 1;
            self.bytes[last] |= (bit as u8) << (7 - self.used);
            self.used = (self.used + 1) % 8;
            self.bits_written += 1;
        }
    }

    /// Total bits written so far.
    pub fn bits_written(&self) -> usize {
        self.bits_written
    }

    /// Finish and return the backing bytes (final byte zero-padded).
    pub fn into_bytes(self) -> Bytes {
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
