//! Base-128 varints, ZigZag, and wire tags.
//!
//! Varint decoding dominates the CPU cost of protobuf deserialization for
//! integer-heavy messages (§V), so the decoder is written as a tight loop
//! with an explicit one-byte fast path — mirroring how the paper's custom
//! deserializer consists of "numerous small specialized functions" that
//! benefit from aggressive inlining.

use crate::error::DecodeError;

/// Proto wire types (the low 3 bits of a tag).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum WireType {
    /// Varint-encoded scalar.
    Varint = 0,
    /// Little-endian 8-byte scalar.
    Fixed64 = 1,
    /// Length-delimited: strings, bytes, sub-messages, packed repeated.
    LengthDelimited = 2,
    /// Little-endian 4-byte scalar.
    Fixed32 = 5,
}

impl WireType {
    /// Parses the low 3 bits of a tag. Groups (3, 4) are rejected: proto3
    /// removed them and the paper's deserializer does not support them.
    pub fn from_bits(bits: u8) -> Result<Self, DecodeError> {
        match bits {
            0 => Ok(WireType::Varint),
            1 => Ok(WireType::Fixed64),
            2 => Ok(WireType::LengthDelimited),
            5 => Ok(WireType::Fixed32),
            other => Err(DecodeError::BadWireType(other)),
        }
    }
}

/// Maximum bytes a 64-bit varint can occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Returns the encoded length of `v` as a varint (1..=10).
#[inline]
pub fn varint_len(v: u64) -> usize {
    // ⌈bits/7⌉ with bits >= 1.
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Appends `v` to `out` as a varint; returns the number of bytes written.
#[inline]
pub fn encode_varint(mut v: u64, out: &mut Vec<u8>) -> usize {
    let mut n = 0;
    loop {
        n += 1;
        if v < 0x80 {
            out.push(v as u8);
            return n;
        }
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
}

/// Writes `v` as a varint into `buf`, returning the bytes written.
///
/// # Panics
/// Panics if `buf` is shorter than [`varint_len`]`(v)`.
#[inline]
pub fn write_varint(mut v: u64, buf: &mut [u8]) -> usize {
    let mut i = 0;
    loop {
        if v < 0x80 {
            buf[i] = v as u8;
            return i + 1;
        }
        buf[i] = (v as u8 & 0x7f) | 0x80;
        v >>= 7;
        i += 1;
    }
}

/// Decodes a varint from the front of `buf`, returning `(value, length)`.
#[inline]
pub fn decode_varint(buf: &[u8]) -> Result<(u64, usize), DecodeError> {
    // One-byte fast path: the overwhelmingly common case for tags and small
    // field values (the paper's int-array workload stores most elements in
    // 1–2 bytes).
    match buf.first() {
        Some(&b) if b < 0x80 => return Ok((b as u64, 1)),
        None => return Err(DecodeError::Truncated { what: "varint" }),
        _ => {}
    }
    let mut value: u64 = 0;
    for (i, &b) in buf.iter().take(MAX_VARINT_LEN).enumerate() {
        let payload = (b & 0x7f) as u64;
        // The 10th byte may only contribute 1 bit (64 = 9*7 + 1).
        if i == MAX_VARINT_LEN - 1 && payload > 1 {
            return Err(DecodeError::VarintOverflow);
        }
        value |= payload << (7 * i);
        if b < 0x80 {
            return Ok((value, i + 1));
        }
    }
    if buf.len() < MAX_VARINT_LEN {
        Err(DecodeError::Truncated { what: "varint" })
    } else {
        Err(DecodeError::VarintOverflow)
    }
}

/// ZigZag-encodes a signed 64-bit integer (sint32/sint64 encoding).
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// ZigZag-decodes to a signed 64-bit integer.
#[inline]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Builds a tag from field number and wire type.
#[inline]
pub fn make_tag(field: u32, wt: WireType) -> u64 {
    ((field as u64) << 3) | wt as u64
}

/// Splits a decoded tag value into `(field_number, wire_type)`.
#[inline]
pub fn split_tag(tag: u64) -> Result<(u32, WireType), DecodeError> {
    let field = (tag >> 3) as u32;
    if field == 0 {
        return Err(DecodeError::ZeroFieldNumber);
    }
    let wt = WireType::from_bits((tag & 0x7) as u8)?;
    Ok((field, wt))
}

/// Decodes a little-endian fixed 32-bit value.
#[inline]
pub fn decode_fixed32(buf: &[u8]) -> Result<(u32, usize), DecodeError> {
    if buf.len() < 4 {
        return Err(DecodeError::Truncated { what: "fixed32" });
    }
    Ok((u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]), 4))
}

/// Decodes a little-endian fixed 64-bit value.
#[inline]
pub fn decode_fixed64(buf: &[u8]) -> Result<(u64, usize), DecodeError> {
    if buf.len() < 8 {
        return Err(DecodeError::Truncated { what: "fixed64" });
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[..8]);
    Ok((u64::from_le_bytes(b), 8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_encodings() {
        const U64_MAX_VARINT: [u8; 10] =
            [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let cases: &[(u64, &[u8])] = &[
            (0, &[0x00]),
            (1, &[0x01]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (300, &[0xac, 0x02]),
            (16383, &[0xff, 0x7f]),
            (16384, &[0x80, 0x80, 0x01]),
            (u64::MAX, &U64_MAX_VARINT),
        ];
        for (v, bytes) in cases {
            let mut out = Vec::new();
            encode_varint(*v, &mut out);
            assert_eq!(&out, bytes, "encoding {v}");
            assert_eq!(varint_len(*v), bytes.len());
            let (dec, n) = decode_varint(bytes).unwrap();
            assert_eq!(dec, *v);
            assert_eq!(n, bytes.len());
        }
    }

    #[test]
    fn truncated_varint_detected() {
        assert_eq!(
            decode_varint(&[0x80]),
            Err(DecodeError::Truncated { what: "varint" })
        );
        assert_eq!(
            decode_varint(&[]),
            Err(DecodeError::Truncated { what: "varint" })
        );
    }

    #[test]
    fn overlong_varint_rejected() {
        // 11 continuation bytes.
        let bad = [0x80u8; 10];
        assert_eq!(decode_varint(&bad), Err(DecodeError::VarintOverflow));
        // 10 bytes but 10th contributes more than 1 bit.
        let mut b = [0xffu8; 10];
        b[9] = 0x02;
        assert_eq!(decode_varint(&b), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn zigzag_known_values() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_encode(i64::MAX), u64::MAX - 1);
        assert_eq!(zigzag_encode(i64::MIN), u64::MAX);
    }

    #[test]
    fn tag_roundtrip() {
        let tag = make_tag(5, WireType::LengthDelimited);
        assert_eq!(tag, 0x2a);
        let (f, wt) = split_tag(tag).unwrap();
        assert_eq!(f, 5);
        assert_eq!(wt, WireType::LengthDelimited);
    }

    #[test]
    fn group_wire_types_rejected() {
        assert!(matches!(
            split_tag(make_tag(1, WireType::Varint) | 3),
            Err(DecodeError::BadWireType(3))
        ));
        assert_eq!(WireType::from_bits(4), Err(DecodeError::BadWireType(4)));
    }

    #[test]
    fn zero_field_number_rejected() {
        assert_eq!(split_tag(0), Err(DecodeError::ZeroFieldNumber));
    }

    #[test]
    fn fixed_decoding() {
        assert_eq!(decode_fixed32(&[1, 0, 0, 0]).unwrap(), (1, 4));
        assert_eq!(
            decode_fixed64(&[0, 0, 0, 0, 0, 0, 0, 0x80]).unwrap(),
            (0x8000_0000_0000_0000, 8)
        );
        assert!(decode_fixed32(&[1, 2]).is_err());
        assert!(decode_fixed64(&[1, 2, 3, 4, 5]).is_err());
    }

    #[test]
    fn write_varint_matches_encode() {
        for v in [0u64, 1, 127, 128, 300, 1 << 21, u64::MAX] {
            let mut vec_out = Vec::new();
            encode_varint(v, &mut vec_out);
            let mut buf = [0u8; MAX_VARINT_LEN];
            let n = write_varint(v, &mut buf);
            assert_eq!(&buf[..n], &vec_out[..]);
        }
    }

    proptest! {
        #[test]
        fn roundtrip_any_u64(v in any::<u64>()) {
            let mut out = Vec::new();
            let n = encode_varint(v, &mut out);
            prop_assert_eq!(n, varint_len(v));
            let (dec, len) = decode_varint(&out).unwrap();
            prop_assert_eq!(dec, v);
            prop_assert_eq!(len, n);
        }

        #[test]
        fn zigzag_roundtrip(v in any::<i64>()) {
            prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }

        #[test]
        fn zigzag_small_magnitude_small_encoding(v in -64i64..64) {
            // |v| < 64 must encode in one byte: the whole point of ZigZag.
            prop_assert_eq!(varint_len(zigzag_encode(v)), 1);
        }

        #[test]
        fn tag_roundtrip_prop(field in 1u32..=0x1fff_ffff) {
            for wt in [WireType::Varint, WireType::Fixed64, WireType::LengthDelimited, WireType::Fixed32] {
                let (f, w) = split_tag(make_tag(field, wt)).unwrap();
                prop_assert_eq!(f, field);
                prop_assert_eq!(w, wt);
            }
        }
    }
}
