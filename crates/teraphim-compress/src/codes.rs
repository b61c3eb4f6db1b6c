//! Integer codes for inverted-file compression.
//!
//! The codes implemented here are the standard repertoire used by MG-style
//! compressed inverted files (Witten, Moffat & Bell, *Managing
//! Gigabytes*):
//!
//! * **Unary** — optimal for geometrically distributed values with p = ½.
//! * **Elias γ** — parameterless; good for small values such as
//!   in-document frequencies `f_dt`.
//! * **Elias δ** — parameterless; better than γ for larger magnitudes.
//! * **Golomb / Rice** — parameterised; with `b ≈ 0.69 · N/f_t` this is the
//!   near-optimal code for d-gaps of a Bernoulli-distributed term.
//! * **v-byte** — byte-aligned variable-length code, used where byte
//!   alignment matters more than density (e.g. wire headers).
//!
//! All codes operate on `u64` values ≥ 1, matching their classical
//! definitions (d-gaps and term frequencies are always ≥ 1). Use
//! [`write_gamma0`]/[`read_gamma0`] for values that may be zero.

use crate::bitio::{BitReader, BitWriter};
use crate::{CodeError, Result};

// ---------------------------------------------------------------------------
// Unary
// ---------------------------------------------------------------------------

/// Writes `n ≥ 1` in unary: `n - 1` zero bits followed by a one bit.
///
/// # Panics
///
/// Panics in debug builds if `n == 0`.
pub fn write_unary(w: &mut BitWriter, n: u64) {
    debug_assert!(n >= 1, "unary codes values >= 1");
    for _ in 1..n {
        w.write_bit(false);
    }
    w.write_bit(true);
}

/// Reads a unary codeword written by [`write_unary`].
///
/// The run of zeros is counted a window at a time with `leading_zeros`.
///
/// # Errors
///
/// Returns [`CodeError::UnexpectedEof`] on a truncated stream, with the
/// cursor at the end of the buffer.
pub fn read_unary(r: &mut BitReader<'_>) -> Result<u64> {
    let mut n = 1u64;
    loop {
        let (word, valid) = r.window();
        let zeros = word.leading_zeros();
        if zeros < valid {
            r.advance(zeros + 1);
            return Ok(n + u64::from(zeros));
        }
        if valid == 0 {
            return Err(CodeError::UnexpectedEof);
        }
        r.advance(valid);
        n += u64::from(valid);
    }
}

// ---------------------------------------------------------------------------
// Elias gamma
// ---------------------------------------------------------------------------

/// Number of bits in the binary representation of `n ≥ 1`.
fn bit_width(n: u64) -> u32 {
    64 - n.leading_zeros()
}

/// Writes `n ≥ 1` in Elias γ: unary length prefix then the value's low
/// bits.
///
/// # Panics
///
/// Panics in debug builds if `n == 0`.
pub fn write_gamma(w: &mut BitWriter, n: u64) {
    debug_assert!(n >= 1, "gamma codes values >= 1");
    let width = bit_width(n);
    write_unary(w, u64::from(width));
    if width > 1 {
        // Drop the leading 1 bit, it is implied by the length prefix.
        w.write_bits(n & !(1u64 << (width - 1)), width - 1);
    }
}

/// Reads an Elias γ codeword written by [`write_gamma`].
///
/// A codeword of `2z + 1` bits whose `z` leading zeros and value both sit
/// inside one window (every value below 2^28) is read with one
/// `leading_zeros` and one shift: the window's top `2z + 1` bits *are*
/// the value, its leading one being the unary terminator.
///
/// # Errors
///
/// Returns [`CodeError::UnexpectedEof`] on truncation and
/// [`CodeError::Corrupt`] if the decoded width exceeds 64 bits.
#[inline]
pub fn read_gamma(r: &mut BitReader<'_>) -> Result<u64> {
    let (word, valid) = r.window();
    let len = 2 * word.leading_zeros() + 1;
    if len <= valid {
        r.advance(len);
        return Ok(word >> (64 - len));
    }
    let width = read_unary(r)?;
    if width > 64 {
        return Err(CodeError::Corrupt("gamma width exceeds 64 bits"));
    }
    let width = width as u32;
    if width == 1 {
        return Ok(1);
    }
    let low = r.read_bits(width - 1)?;
    Ok((1u64 << (width - 1)) | low)
}

/// Writes a possibly-zero value by γ-coding `n + 1`.
pub fn write_gamma0(w: &mut BitWriter, n: u64) {
    debug_assert!(n < u64::MAX);
    write_gamma(w, n + 1);
}

/// Reads a value written by [`write_gamma0`].
///
/// # Errors
///
/// Propagates errors from [`read_gamma`].
pub fn read_gamma0(r: &mut BitReader<'_>) -> Result<u64> {
    Ok(read_gamma(r)? - 1)
}

// ---------------------------------------------------------------------------
// Elias delta
// ---------------------------------------------------------------------------

/// Writes `n ≥ 1` in Elias δ: γ-coded length then the value's low bits.
///
/// # Panics
///
/// Panics in debug builds if `n == 0`.
pub fn write_delta(w: &mut BitWriter, n: u64) {
    debug_assert!(n >= 1, "delta codes values >= 1");
    let width = bit_width(n);
    write_gamma(w, u64::from(width));
    if width > 1 {
        w.write_bits(n & !(1u64 << (width - 1)), width - 1);
    }
}

/// Reads an Elias δ codeword written by [`write_delta`].
///
/// # Errors
///
/// Returns [`CodeError::UnexpectedEof`] on truncation and
/// [`CodeError::Corrupt`] if the decoded width exceeds 64 bits.
pub fn read_delta(r: &mut BitReader<'_>) -> Result<u64> {
    let width = read_gamma(r)?;
    if width > 64 {
        return Err(CodeError::Corrupt("delta width exceeds 64 bits"));
    }
    let width = width as u32;
    if width == 1 {
        return Ok(1);
    }
    let low = r.read_bits(width - 1)?;
    Ok((1u64 << (width - 1)) | low)
}

// ---------------------------------------------------------------------------
// Golomb / Rice
// ---------------------------------------------------------------------------

/// Computes the Golomb parameter `b ≈ 0.69 · (n / f)` recommended for
/// coding the d-gaps of a term appearing in `f` of `n` documents.
///
/// Returns at least 1. This is the classical choice of Gallager & Van
/// Voorhis applied by Witten, Moffat & Bell to inverted files.
pub fn golomb_parameter(n_docs: u64, f_t: u64) -> u64 {
    if f_t == 0 {
        return 1;
    }
    let b = (0.69 * (n_docs as f64 / f_t as f64)).ceil() as u64;
    b.max(1)
}

/// Writes `n ≥ 1` with the Golomb code of parameter `b ≥ 1`.
///
/// The quotient `(n-1)/b` is coded in unary and the remainder with a
/// truncated binary code.
///
/// # Panics
///
/// Panics in debug builds if `n == 0` or `b == 0`.
pub fn write_golomb(w: &mut BitWriter, n: u64, b: u64) {
    debug_assert!(n >= 1, "golomb codes values >= 1");
    debug_assert!(b >= 1, "golomb parameter must be >= 1");
    let v = n - 1;
    let q = v / b;
    let rem = v % b;
    write_unary(w, q + 1);
    if b == 1 {
        return;
    }
    // Truncated binary coding of rem in [0, b).
    let width = bit_width(b - 1).max(1);
    let threshold = (1u64 << width) - b; // count of short codewords
    if rem < threshold {
        w.write_bits(rem, width - 1);
    } else {
        w.write_bits(rem + threshold, width);
    }
}

/// Reads a Golomb codeword of parameter `b` written by [`write_golomb`].
///
/// # Errors
///
/// Returns [`CodeError::UnexpectedEof`] on truncation.
///
/// # Panics
///
/// Panics in debug builds if `b == 0`.
pub fn read_golomb(r: &mut BitReader<'_>, b: u64) -> Result<u64> {
    debug_assert!(b >= 1, "golomb parameter must be >= 1");
    let q = read_unary(r)? - 1;
    if b == 1 {
        return Ok(q + 1);
    }
    let width = bit_width(b - 1).max(1);
    let threshold = (1u64 << width) - b;
    let mut rem = r.read_bits(width - 1)?;
    if rem >= threshold {
        rem = (rem << 1) | u64::from(r.read_bit()?);
        rem -= threshold;
    }
    Ok(q * b + rem + 1)
}

/// Writes `n ≥ 1` with the Rice code of parameter `k` (Golomb with
/// `b = 2^k`).
pub fn write_rice(w: &mut BitWriter, n: u64, k: u32) {
    debug_assert!(n >= 1, "rice codes values >= 1");
    let v = n - 1;
    write_unary(w, (v >> k) + 1);
    if k > 0 {
        w.write_bits(v & ((1u64 << k) - 1), k);
    }
}

/// Reads a Rice codeword of parameter `k` written by [`write_rice`].
///
/// # Errors
///
/// Returns [`CodeError::UnexpectedEof`] on truncation.
pub fn read_rice(r: &mut BitReader<'_>, k: u32) -> Result<u64> {
    let q = read_unary(r)? - 1;
    let low = if k > 0 { r.read_bits(k)? } else { 0 };
    Ok((q << k) + low + 1)
}

// ---------------------------------------------------------------------------
// v-byte (byte-aligned)
// ---------------------------------------------------------------------------

/// Appends `n` to `out` as a v-byte code: seven payload bits per byte, the
/// high bit set on the final byte.
pub fn write_vbyte(out: &mut Vec<u8>, mut n: u64) {
    loop {
        let low = (n & 0x7F) as u8;
        n >>= 7;
        if n == 0 {
            out.push(low | 0x80);
            return;
        }
        out.push(low);
    }
}

/// Reads a v-byte code from `input` starting at `*pos`, advancing `*pos`.
///
/// # Errors
///
/// Returns [`CodeError::UnexpectedEof`] if the terminator byte is missing
/// and [`CodeError::Corrupt`] if the value overflows a `u64`.
pub fn read_vbyte(input: &[u8], pos: &mut usize) -> Result<u64> {
    let mut n = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *input.get(*pos).ok_or(CodeError::UnexpectedEof)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte & 0x7F > 1) {
            return Err(CodeError::Corrupt("v-byte value overflows u64"));
        }
        n |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 != 0 {
            return Ok(n);
        }
        shift += 7;
    }
}

/// Number of bytes the v-byte code of `n` occupies.
pub fn vbyte_len(n: u64) -> usize {
    let bits = bit_width(n.max(1));
    bits.div_ceil(7) as usize
}

// ---------------------------------------------------------------------------
// Code length helpers (used for index-size accounting without encoding)
// ---------------------------------------------------------------------------

/// Bit length of the γ code of `n ≥ 1`.
pub fn gamma_len(n: u64) -> u64 {
    debug_assert!(n >= 1);
    u64::from(2 * bit_width(n) - 1)
}

/// Bit length of the δ code of `n ≥ 1`.
pub fn delta_len(n: u64) -> u64 {
    debug_assert!(n >= 1);
    let width = u64::from(bit_width(n));
    gamma_len(width) + width - 1
}

/// Bit length of the Golomb code of `n ≥ 1` with parameter `b ≥ 1`.
pub fn golomb_len(n: u64, b: u64) -> u64 {
    debug_assert!(n >= 1 && b >= 1);
    let v = n - 1;
    let q = v / b;
    if b == 1 {
        return q + 1;
    }
    let rem = v % b;
    let width = u64::from(bit_width(b - 1).max(1));
    let threshold = (1u64 << width) - b;
    q + 1 + if rem < threshold { width - 1 } else { width }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<W, R>(values: &[u64], write: W, read: R)
    where
        W: Fn(&mut BitWriter, u64),
        R: Fn(&mut BitReader<'_>) -> Result<u64>,
    {
        let mut w = BitWriter::new();
        for &v in values {
            write(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in values {
            assert_eq!(read(&mut r).unwrap(), v);
        }
    }

    const SAMPLE: &[u64] = &[
        1,
        2,
        3,
        4,
        5,
        7,
        8,
        15,
        16,
        100,
        1_000,
        65_535,
        65_536,
        1 << 32,
        (1 << 40) + 12345,
        u64::MAX / 2,
    ];

    #[test]
    fn unary_roundtrip_small() {
        roundtrip(&[1, 2, 3, 10, 33], write_unary, read_unary);
    }

    #[test]
    fn unary_known_encoding() {
        let mut w = BitWriter::new();
        write_unary(&mut w, 3);
        assert_eq!(w.into_bytes(), vec![0b0010_0000]);
    }

    #[test]
    fn gamma_roundtrip() {
        roundtrip(SAMPLE, write_gamma, read_gamma);
    }

    #[test]
    fn gamma_known_encodings() {
        // gamma(1) = "1", gamma(2) = "010", gamma(3) = "011", gamma(4) = "00100"
        let mut w = BitWriter::new();
        write_gamma(&mut w, 1);
        write_gamma(&mut w, 2);
        write_gamma(&mut w, 3);
        write_gamma(&mut w, 4);
        // 1 010 011 00100 -> 1010 0110 0100....
        assert_eq!(w.into_bytes(), vec![0b1010_0110, 0b0100_0000]);
    }

    #[test]
    fn gamma_max_value() {
        roundtrip(&[u64::MAX], write_gamma, read_gamma);
    }

    #[test]
    fn gamma0_codes_zero() {
        let mut w = BitWriter::new();
        write_gamma0(&mut w, 0);
        write_gamma0(&mut w, 5);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(read_gamma0(&mut r).unwrap(), 0);
        assert_eq!(read_gamma0(&mut r).unwrap(), 5);
    }

    #[test]
    fn delta_roundtrip() {
        roundtrip(SAMPLE, write_delta, read_delta);
    }

    #[test]
    fn delta_shorter_than_gamma_for_large_values() {
        assert!(delta_len(1 << 40) < gamma_len(1 << 40));
    }

    #[test]
    fn delta_max_value() {
        roundtrip(&[u64::MAX], write_delta, read_delta);
    }

    #[test]
    fn golomb_roundtrip_various_parameters() {
        // Keep quotients bounded: Golomb codes the quotient in unary, so
        // values far above the parameter would write enormous runs (in
        // real use b is tuned to the gap distribution).
        for b in [1u64, 2, 3, 5, 7, 8, 100, 1_000_000] {
            let values: Vec<u64> = SAMPLE
                .iter()
                .copied()
                .filter(|&n| (n - 1) / b < 100_000)
                .collect();
            roundtrip(&values, |w, n| write_golomb(w, n, b), |r| read_golomb(r, b));
        }
    }

    #[test]
    fn golomb_parameter_formula() {
        assert_eq!(golomb_parameter(1_000_000, 1_000), 690);
        assert_eq!(golomb_parameter(100, 100), 1);
        assert_eq!(golomb_parameter(100, 0), 1);
        assert!(golomb_parameter(10, 9) >= 1);
    }

    #[test]
    fn rice_roundtrip_various_parameters() {
        for k in [0u32, 1, 3, 7, 16] {
            let values: Vec<u64> = SAMPLE
                .iter()
                .copied()
                .filter(|&n| (n - 1) >> k < 100_000)
                .collect();
            roundtrip(&values, |w, n| write_rice(w, n, k), |r| read_rice(r, k));
        }
    }

    #[test]
    fn rice_equals_golomb_power_of_two() {
        for k in [0u32, 2, 5] {
            let b = 1u64 << k;
            for &n in SAMPLE.iter().filter(|&&n| (n - 1) >> k < 100_000) {
                let mut wr = BitWriter::new();
                write_rice(&mut wr, n, k);
                let mut wg = BitWriter::new();
                write_golomb(&mut wg, n, b);
                assert_eq!(wr.bit_len(), wg.bit_len(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn vbyte_roundtrip() {
        let mut out = Vec::new();
        for &v in SAMPLE {
            write_vbyte(&mut out, v);
        }
        write_vbyte(&mut out, 0);
        write_vbyte(&mut out, u64::MAX);
        let mut pos = 0;
        for &v in SAMPLE {
            assert_eq!(read_vbyte(&out, &mut pos).unwrap(), v);
        }
        assert_eq!(read_vbyte(&out, &mut pos).unwrap(), 0);
        assert_eq!(read_vbyte(&out, &mut pos).unwrap(), u64::MAX);
        assert_eq!(pos, out.len());
    }

    #[test]
    fn vbyte_len_matches_encoding() {
        for &v in SAMPLE {
            let mut out = Vec::new();
            write_vbyte(&mut out, v);
            assert_eq!(out.len(), vbyte_len(v), "value {v}");
        }
    }

    #[test]
    fn vbyte_truncated_stream_errors() {
        let out = vec![0x01u8]; // continuation bit never terminated
        let mut pos = 0;
        assert_eq!(read_vbyte(&out, &mut pos), Err(CodeError::UnexpectedEof));
    }

    #[test]
    fn length_helpers_match_actual_encodings() {
        for &v in SAMPLE {
            let mut w = BitWriter::new();
            write_gamma(&mut w, v);
            assert_eq!(w.bit_len(), gamma_len(v), "gamma {v}");

            let mut w = BitWriter::new();
            write_delta(&mut w, v);
            assert_eq!(w.bit_len(), delta_len(v), "delta {v}");

            for b in [1u64, 3, 8, 1000] {
                if (v - 1) / b > 100_000 {
                    continue; // avoid pathological unary quotients
                }
                let mut w = BitWriter::new();
                write_golomb(&mut w, v, b);
                assert_eq!(w.bit_len(), golomb_len(v, b), "golomb {v} b={b}");
            }
        }
    }

    #[test]
    fn truncated_gamma_errors() {
        let mut w = BitWriter::new();
        write_gamma(&mut w, 1_000_000);
        let bytes = w.into_bytes();
        let cut = &bytes[..bytes.len() - 1];
        let mut r = BitReader::new(cut);
        assert!(read_gamma(&mut r).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn gamma_roundtrips(values in proptest::collection::vec(1u64..u64::MAX, 0..200)) {
            let mut w = BitWriter::new();
            for &v in &values { write_gamma(&mut w, v); }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values { prop_assert_eq!(read_gamma(&mut r).unwrap(), v); }
        }

        #[test]
        fn delta_roundtrips(values in proptest::collection::vec(1u64..u64::MAX, 0..200)) {
            let mut w = BitWriter::new();
            for &v in &values { write_delta(&mut w, v); }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values { prop_assert_eq!(read_delta(&mut r).unwrap(), v); }
        }

        #[test]
        fn golomb_roundtrips(
            values in proptest::collection::vec(1u64..1u64 << 20, 0..200),
            b in 1u64..10_000,
        ) {
            let mut w = BitWriter::new();
            for &v in &values { write_golomb(&mut w, v, b); }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values { prop_assert_eq!(read_golomb(&mut r, b).unwrap(), v); }
        }

        #[test]
        fn rice_roundtrips(
            values in proptest::collection::vec(1u64..1u64 << 20, 0..200),
            k in 4u32..20,
        ) {
            let mut w = BitWriter::new();
            for &v in &values { write_rice(&mut w, v, k); }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values { prop_assert_eq!(read_rice(&mut r, k).unwrap(), v); }
        }

        #[test]
        fn vbyte_roundtrips(values in proptest::collection::vec(0u64..u64::MAX, 0..200)) {
            let mut out = Vec::new();
            for &v in &values { write_vbyte(&mut out, v); }
            let mut pos = 0;
            for &v in &values { prop_assert_eq!(read_vbyte(&out, &mut pos).unwrap(), v); }
            prop_assert_eq!(pos, out.len());
        }

        #[test]
        fn mixed_codes_share_a_stream(values in proptest::collection::vec(1u64..1u64 << 18, 1..100)) {
            // Interleave gamma/delta/golomb in one stream: positional decode
            // must stay in lockstep.
            let mut w = BitWriter::new();
            for (i, &v) in values.iter().enumerate() {
                match i % 3 {
                    0 => write_gamma(&mut w, v),
                    1 => write_delta(&mut w, v),
                    _ => write_golomb(&mut w, v, 7),
                }
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for (i, &v) in values.iter().enumerate() {
                let got = match i % 3 {
                    0 => read_gamma(&mut r).unwrap(),
                    1 => read_delta(&mut r).unwrap(),
                    _ => read_golomb(&mut r, 7).unwrap(),
                };
                prop_assert_eq!(got, v);
            }
        }
    }
}
