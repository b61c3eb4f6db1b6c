//! Differential tests of the word-at-a-time decoders.
//!
//! [`SerialReader`] is the plainest correct decoder: every code is
//! assembled one `read_bit` at a time, and canonical Huffman codewords are
//! matched against a table built here from the code lengths alone. On any
//! byte string, starting at any bit, the real decoders must return the
//! same value or the same error as this reference and leave the cursor on
//! the same bit.

use std::collections::HashMap;

use crate::bitio::{BitReader, BitWriter};
use crate::codes::{read_delta, read_gamma, read_unary};
use crate::huffman::HuffmanCode;
use crate::{CodeError, Result};

/// The bit-at-a-time reference reader.
struct SerialReader<'a> {
    bytes: &'a [u8],
    pos: u64,
}

impl SerialReader<'_> {
    fn read_bit(&mut self) -> Result<bool> {
        let byte = (self.pos / 8) as usize;
        if byte >= self.bytes.len() {
            return Err(CodeError::UnexpectedEof);
        }
        let bit = (self.bytes[byte] >> (7 - self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    fn read_bits(&mut self, count: u32) -> Result<u64> {
        if (self.bytes.len() as u64 * 8).saturating_sub(self.pos) < u64::from(count) {
            return Err(CodeError::UnexpectedEof);
        }
        let mut value = 0u64;
        for _ in 0..count {
            value = (value << 1) | u64::from(self.read_bit()?);
        }
        Ok(value)
    }

    fn read_unary(&mut self) -> Result<u64> {
        let mut n = 1u64;
        while !self.read_bit()? {
            n += 1;
        }
        Ok(n)
    }

    fn read_elias(&mut self, width: u64, what: &'static str) -> Result<u64> {
        if width > 64 {
            return Err(CodeError::Corrupt(what));
        }
        let width = width as u32;
        if width == 1 {
            return Ok(1);
        }
        Ok((1u64 << (width - 1)) | self.read_bits(width - 1)?)
    }

    fn read_gamma(&mut self) -> Result<u64> {
        let width = self.read_unary()?;
        self.read_elias(width, "gamma width exceeds 64 bits")
    }

    fn read_delta(&mut self) -> Result<u64> {
        let width = self.read_gamma()?;
        self.read_elias(width, "delta width exceeds 64 bits")
    }

    fn decode(&mut self, code: &SerialCode) -> Result<u32> {
        if code.max_len == 0 {
            return Err(CodeError::Corrupt("empty huffman code"));
        }
        let mut bits = 0u64;
        for len in 1..=code.max_len {
            bits = (bits << 1) | u64::from(self.read_bit()?);
            if let Some(&symbol) = code.table.get(&(len, bits)) {
                return Ok(symbol);
            }
        }
        Err(CodeError::Corrupt("bits match no huffman codeword"))
    }
}

/// A canonical code rebuilt from lengths alone: `(length, codeword) →
/// symbol`, codewords assigned in (length, symbol) order, each one the
/// previous plus one, shifted left when the length grows.
struct SerialCode {
    table: HashMap<(u8, u64), u32>,
    max_len: u8,
}

impl SerialCode {
    fn new(lengths: &[u8]) -> Self {
        let mut symbols: Vec<u32> = (0..lengths.len() as u32)
            .filter(|&s| lengths[s as usize] > 0)
            .collect();
        symbols.sort_by_key(|&s| (lengths[s as usize], s));
        let mut table = HashMap::new();
        let mut next = 0u64;
        let mut prev_len = 0u8;
        for &symbol in &symbols {
            let len = lengths[symbol as usize];
            if prev_len > 0 {
                next <<= len - prev_len;
            }
            table.entry((len, next)).or_insert(symbol);
            next += 1;
            prev_len = len;
        }
        SerialCode {
            table,
            max_len: lengths.iter().copied().max().unwrap_or(0),
        }
    }
}

/// Fibonacci frequencies make Huffman's merges a chain, so the two
/// rarest symbols get codewords `symbols - 1` bits long.
fn fibonacci_code(symbols: usize) -> HuffmanCode {
    let mut freqs = vec![1u64, 1];
    while freqs.len() < symbols {
        let next = freqs[freqs.len() - 1] + freqs[freqs.len() - 2];
        freqs.push(next);
    }
    HuffmanCode::from_frequencies(&freqs).expect("non-empty alphabet")
}

/// One decoder call, applied to both readers.
#[derive(Debug, Clone, Copy)]
enum Op {
    Bits(u32),
    Unary,
    Gamma,
    Delta,
    Huffman,
    Fibonacci,
}

impl Op {
    fn from_raw(kind: u32, count: u32) -> Op {
        match kind {
            0 => Op::Bits(count),
            1 => Op::Unary,
            2 => Op::Gamma,
            3 => Op::Delta,
            4 => Op::Huffman,
            _ => Op::Fibonacci,
        }
    }
}

/// Runs `ops` from `start` on both readers, asserting agreement after
/// every call (errors included: the readers keep going from wherever the
/// error left them).
fn assert_agree(
    bytes: &[u8],
    start: u64,
    ops: &[Op],
    huffman: &HuffmanCode,
    fibonacci: &HuffmanCode,
) {
    let serial_huffman = SerialCode::new(huffman.lengths());
    let serial_fibonacci = SerialCode::new(fibonacci.lengths());
    let mut fast = BitReader::new(bytes);
    fast.seek_to_bit(start).unwrap();
    let mut slow = SerialReader { bytes, pos: start };
    for (i, &op) in ops.iter().enumerate() {
        let (got, want) = match op {
            Op::Bits(count) => (fast.read_bits(count), slow.read_bits(count)),
            Op::Unary => (read_unary(&mut fast), slow.read_unary()),
            Op::Gamma => (read_gamma(&mut fast), slow.read_gamma()),
            Op::Delta => (read_delta(&mut fast), slow.read_delta()),
            Op::Huffman => (
                huffman.decode(&mut fast).map(u64::from),
                slow.decode(&serial_huffman).map(u64::from),
            ),
            Op::Fibonacci => (
                fibonacci.decode(&mut fast).map(u64::from),
                slow.decode(&serial_fibonacci).map(u64::from),
            ),
        };
        assert_eq!(got, want, "op {i} {op:?} from bit {start} of {bytes:02x?}");
        assert_eq!(
            fast.bit_pos(),
            slow.pos,
            "cursor after op {i} {op:?} from bit {start} of {bytes:02x?}"
        );
    }
}

#[test]
fn fibonacci_code_is_wider_than_a_window_and_round_trips() {
    let code = fibonacci_code(62);
    let max_len = code.lengths().iter().copied().max().unwrap();
    assert!(max_len > 56, "max_len {max_len}");
    // Every symbol, the deepest ones repeatedly, at every alignment.
    let deepest: Vec<u32> = (0..62u32).filter(|&s| code.length(s) == max_len).collect();
    for lead in 0..8u32 {
        let mut message: Vec<u32> = (0..62).collect();
        message.extend(deepest.iter().cycle().take(9));
        message.extend((0..62).rev());
        let mut w = BitWriter::new();
        w.write_bits(0, lead);
        for &s in &message {
            code.encode(&mut w, s);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        r.seek_to_bit(u64::from(lead)).unwrap();
        for &s in &message {
            assert_eq!(code.decode(&mut r).unwrap(), s, "lead {lead}");
        }
        assert!(r.remaining_bits() < 8);
    }
}

#[test]
fn codes_ending_at_the_buffer_end_agree() {
    // Values whose codewords end exactly on the last bit, at every
    // starting alignment, and the same streams cut one byte short.
    let fib = fibonacci_code(62);
    let huffman = HuffmanCode::from_frequencies(&[5, 3, 2, 1, 1]).unwrap();
    for value in [1u64, 2, 3, 255, 1 << 28, (1 << 29) + 7, 1 << 40, u64::MAX] {
        for lead in 0..8u32 {
            let mut w = BitWriter::new();
            w.write_bits(0, lead);
            crate::codes::write_gamma(&mut w, value);
            crate::codes::write_delta(&mut w, value);
            let bytes = w.into_bytes();
            let ops = [Op::Gamma, Op::Delta, Op::Gamma, Op::Unary];
            for cut in [bytes.len(), bytes.len().saturating_sub(1)] {
                let start = u64::from(lead).min(cut as u64 * 8);
                assert_agree(&bytes[..cut], start, &ops, &huffman, &fib);
            }
        }
    }
    // 58..=64-bit reads from every alignment.
    let bytes = [0xA5u8; 17];
    for start in 0..8u64 {
        let ops: Vec<Op> = (56..=64).map(Op::Bits).collect();
        assert_agree(&bytes, start, &ops, &huffman, &fib);
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Byte strings where a third of the bytes are zero, so long unary
    /// runs, wide γ/δ codes and deep Huffman paths all occur.
    fn stream() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec((any::<u8>(), 0u32..3), 0..48).prop_map(|raw| {
            raw.into_iter()
                .map(|(b, k)| if k == 0 { 0 } else { b })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn decoders_agree_with_the_bit_serial_reference(
            bytes in stream(),
            start_seed in any::<u64>(),
            raw_ops in proptest::collection::vec((0u32..6, 0u32..=64), 1..32),
            lengths in proptest::collection::vec(0u8..=24, 1..40),
        ) {
            let start = start_seed % (bytes.len() as u64 * 8 + 1);
            let ops: Vec<Op> = raw_ops.iter().map(|&(k, c)| Op::from_raw(k, c)).collect();
            let huffman = HuffmanCode::from_lengths(lengths);
            assert_agree(&bytes, start, &ops, &huffman, &fibonacci_code(62));
        }

        #[test]
        fn trained_codes_agree_with_the_bit_serial_reference(
            bytes in stream(),
            start_seed in any::<u64>(),
            freqs in proptest::collection::vec(1u64..1_000, 1..64),
        ) {
            let start = start_seed % (bytes.len() as u64 * 8 + 1);
            let huffman = HuffmanCode::from_frequencies(&freqs).unwrap();
            let ops = [Op::Huffman; 24];
            assert_agree(&bytes, start, &ops, &huffman, &fibonacci_code(62));
        }
    }
}
