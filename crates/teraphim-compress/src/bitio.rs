//! MSB-first bit-granular readers and writers.
//!
//! All integer codes in [`crate::codes`] and the Huffman coder in
//! [`crate::huffman`] are defined over these two types. Bits are packed
//! most-significant-bit first within each byte, which makes canonical
//! Huffman decoding by numeric comparison straightforward and matches the
//! conventions of the MG system.

use crate::{CodeError, Result};

/// An append-only bit sink backed by a growable byte buffer.
///
/// Bits are written MSB-first. The final byte is zero-padded when the
/// writer is converted into bytes.
///
/// # Examples
///
/// ```
/// use teraphim_compress::bitio::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bit(true);
/// w.write_bits(0b101, 3);
/// assert_eq!(w.bit_len(), 4);
/// assert_eq!(w.into_bytes(), vec![0b1101_0000]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of valid bits in the final partial byte (0..=7). When zero,
    /// `bytes` contains only complete bytes.
    partial_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with capacity for `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bits / 8 + 1),
            partial_bits: 0,
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        if self.partial_bits == 0 {
            self.bytes.len() as u64 * 8
        } else {
            (self.bytes.len() as u64 - 1) * 8 + u64::from(self.partial_bits)
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        if self.partial_bits == 0 {
            self.bytes.push(0);
        }
        if bit {
            let last = self.bytes.last_mut().expect("buffer non-empty");
            *last |= 1 << (7 - self.partial_bits);
        }
        self.partial_bits = (self.partial_bits + 1) % 8;
    }

    /// Appends the `count` low-order bits of `value`, most significant
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`, or if `value` has bits set above `count`
    /// (debug builds only).
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        debug_assert!(
            count == 64 || value < (1u64 << count),
            "value {value} does not fit in {count} bits"
        );
        // Simple loop: correctness first; the hot paths (gamma/delta) write
        // short runs where this is competitive.
        for i in (0..count).rev() {
            self.write_bit((value >> i) & 1 == 1);
        }
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        self.partial_bits = 0;
    }

    /// Appends a whole byte, aligning first.
    pub fn write_aligned_byte(&mut self, byte: u8) {
        self.align_to_byte();
        self.bytes.push(byte);
    }

    /// Consumes the writer and returns the packed bytes (final byte
    /// zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Borrowed view of the packed bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// A bit-granular cursor over a byte slice, MSB-first.
///
/// Reads go a word at a time: a *window* holds the 64 bits at the cursor
/// as one big-endian word, so a whole codeword is read with a shift (or a
/// `leading_zeros`) instead of one call per bit. A window starting at an
/// unaligned cursor holds at least 57 valid bits (64 minus up to 7 already
/// consumed from its first byte) unless it reaches the end of the buffer;
/// codes wider than the window are read in two steps.
///
/// # Examples
///
/// ```
/// use teraphim_compress::bitio::BitReader;
///
/// # fn main() -> Result<(), teraphim_compress::CodeError> {
/// let mut r = BitReader::new(&[0b1101_0000]);
/// assert!(r.read_bit()?);
/// assert_eq!(r.read_bits(3)?, 0b101);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit position of the cursor.
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Current absolute bit position.
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Total number of bits available in the underlying buffer.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// Number of bits remaining from the cursor to the end of the buffer.
    pub fn remaining_bits(&self) -> u64 {
        self.bit_len().saturating_sub(self.pos)
    }

    /// Repositions the cursor at an absolute bit offset.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::UnexpectedEof`] if `pos` is beyond the end of
    /// the buffer.
    pub fn seek_to_bit(&mut self, pos: u64) -> Result<()> {
        if pos > self.bit_len() {
            return Err(CodeError::UnexpectedEof);
        }
        self.pos = pos;
        Ok(())
    }

    /// The bits at the cursor, left-aligned in a word, and how many of
    /// them are valid: `min(64 - pos % 8, remaining_bits())`, so at least
    /// 57 unless the window reaches the end of the buffer. Bits past the
    /// valid ones are zero. The cursor does not move.
    #[inline]
    pub(crate) fn window(&self) -> (u64, u32) {
        let byte = (self.pos / 8) as usize;
        let shift = (self.pos % 8) as u32;
        match self.bytes.get(byte..byte + 8) {
            Some(word) => {
                let word = u64::from_be_bytes(word.try_into().expect("8 bytes"));
                (word << shift, 64 - shift)
            }
            None => {
                let tail = self.bytes.get(byte..).unwrap_or_default();
                let mut word = [0u8; 8];
                word[..tail.len()].copy_from_slice(tail);
                let valid = (tail.len() as u32 * 8).saturating_sub(shift);
                (u64::from_be_bytes(word) << shift, valid)
            }
        }
    }

    /// Moves the cursor `bits` forward; the caller has checked that the
    /// bits were valid in [`BitReader::window`].
    #[inline]
    pub(crate) fn advance(&mut self, bits: u32) {
        self.pos += u64::from(bits);
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::UnexpectedEof`] at end of buffer.
    pub fn read_bit(&mut self) -> Result<bool> {
        let byte_idx = (self.pos / 8) as usize;
        if byte_idx >= self.bytes.len() {
            return Err(CodeError::UnexpectedEof);
        }
        let bit_idx = (self.pos % 8) as u32;
        self.pos += 1;
        Ok((self.bytes[byte_idx] >> (7 - bit_idx)) & 1 == 1)
    }

    /// Reads `count` bits into the low-order bits of a `u64`, MSB-first.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::UnexpectedEof`] if fewer than `count` bits
    /// remain; the cursor does not move.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if self.remaining_bits() < u64::from(count) {
            return Err(CodeError::UnexpectedEof);
        }
        if count == 0 {
            return Ok(0);
        }
        let (word, valid) = self.window();
        if count <= valid {
            self.advance(count);
            return Ok(word >> (64 - count));
        }
        // Only a full window (>= 57 valid bits) can be too narrow, so
        // `count` is 58..=64 here and both halves fit a fresh window.
        let high = self.read_bits(count - 32)?;
        let low = self.read_bits(32)?;
        Ok((high << 32) | low)
    }

    /// Skips forward to the next byte boundary (no-op if already aligned).
    pub fn align_to_byte(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_writer_produces_no_bytes() {
        let w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn single_bits_pack_msb_first() {
        let mut w = BitWriter::new();
        for bit in [true, false, true, true, false, false, false, true, true] {
            w.write_bit(bit);
        }
        assert_eq!(w.bit_len(), 9);
        assert_eq!(w.into_bytes(), vec![0b1011_0001, 0b1000_0000]);
    }

    #[test]
    fn write_bits_matches_single_bit_writes() {
        let mut a = BitWriter::new();
        a.write_bits(0b1_0110, 5);
        let mut b = BitWriter::new();
        for bit in [true, false, true, true, false] {
            b.write_bit(bit);
        }
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn write_and_read_64_bit_values() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(64).unwrap(), 0);
    }

    #[test]
    fn reader_eof_is_detected() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bit(), Err(CodeError::UnexpectedEof));
        assert_eq!(r.read_bits(1), Err(CodeError::UnexpectedEof));
    }

    #[test]
    fn read_bits_zero_is_empty() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn alignment_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.align_to_byte();
        w.write_aligned_byte(0xAB);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1000_0000, 0xAB]);

        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().unwrap());
        r.align_to_byte();
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
    }

    #[test]
    fn align_when_already_aligned_is_noop() {
        let mut r = BitReader::new(&[0x01, 0x02]);
        r.read_bits(8).unwrap();
        r.align_to_byte();
        assert_eq!(r.bit_pos(), 8);
    }

    #[test]
    fn seek_to_bit_round_trips() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD_BEEF, 32);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        r.seek_to_bit(16).unwrap();
        assert_eq!(r.read_bits(16).unwrap(), 0xBEEF);
        r.seek_to_bit(0).unwrap();
        assert_eq!(r.read_bits(16).unwrap(), 0xDEAD);
        assert!(r.seek_to_bit(33).is_err());
        assert!(r.seek_to_bit(32).is_ok());
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bit(false);
        assert_eq!(w.bit_len(), 1);
        w.write_bits(0, 7);
        assert_eq!(w.bit_len(), 8);
        w.write_bits(0, 3);
        assert_eq!(w.bit_len(), 11);
    }
}
