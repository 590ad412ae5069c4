//! The codec core: [`Encoder`], [`Decoder`], the [`Persist`] trait and
//! the structured [`DecodeError`].
//!
//! Wire conventions, shared by every impl in the workspace:
//!
//! * integers are fixed-width little-endian; `usize` travels as `u64` so
//!   snapshots are portable across word sizes,
//! * `f64` travels as its IEEE-754 bit pattern (`to_bits`) — restored
//!   values are bit-identical,
//! * variable-length data (strings, byte buffers, `Vec`s) is
//!   length-prefixed with a `u64`, and every length is validated against
//!   the bytes actually remaining *before* any allocation, so a corrupt
//!   length cannot trigger a multi-gigabyte `Vec::with_capacity`,
//! * enums encode a `u32` tag; unknown tags decode to
//!   [`DecodeError::InvalidTag`].

use std::fmt;

/// A structured decode failure. Every way a snapshot can be malformed —
/// truncation, corruption, version skew, nonsense values — maps to one of
/// these variants; decoding never panics on untrusted input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before a fixed-width read completed.
    UnexpectedEof {
        /// Byte offset the read started at.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The frame does not start with the expected magic bytes.
    BadMagic {
        /// What the input led with.
        found: [u8; 8],
        /// What the reader expected.
        expected: [u8; 8],
    },
    /// The frame's format version is not supported by this build.
    UnsupportedVersion {
        /// Version stored in the frame.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// The payload checksum does not match the stored one (bit rot,
    /// truncated rewrite, torn copy).
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        stored: u64,
        /// Checksum of the payload as read.
        computed: u64,
    },
    /// An enum tag outside the known range.
    InvalidTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u32,
    },
    /// A value that decoded structurally but is semantically impossible
    /// (non-UTF-8 string bytes, a bool that is neither 0 nor 1, …).
    InvalidValue {
        /// The field or type being decoded.
        what: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A length prefix larger than the bytes that remain — the tell-tale
    /// of corruption, caught before allocating.
    LengthOverflow {
        /// The collection being decoded.
        what: &'static str,
        /// The claimed length.
        len: u64,
        /// An upper bound on what could possibly be present.
        limit: u64,
    },
    /// Decoding finished but input bytes remain.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof {
                offset,
                needed,
                available,
            } => write!(
                f,
                "unexpected end of input at byte {offset}: needed {needed} bytes, {available} available (truncated snapshot?)"
            ),
            DecodeError::BadMagic { found, expected } => write!(
                f,
                "bad magic {found:02x?} (expected {expected:02x?}): not a snapshot file"
            ),
            DecodeError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            DecodeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x} (corrupted snapshot)"
            ),
            DecodeError::InvalidTag { what, tag } => {
                write!(f, "invalid tag {tag} while decoding {what}")
            }
            DecodeError::InvalidValue { what, detail } => {
                write!(f, "invalid value while decoding {what}: {detail}")
            }
            DecodeError::LengthOverflow { what, len, limit } => write!(
                f,
                "length {len} for {what} exceeds the {limit} bytes remaining (corrupted length prefix)"
            ),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete decode")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// An append-only byte sink for the wire format.
#[derive(Clone, Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True before the first write.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `i64` (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` as `u64` — word-size portable.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// IEEE-754 bit pattern: the round trip is bit-identical.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// One byte, 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// A bounds-checked cursor over encoded bytes.
#[derive(Clone, Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current byte offset (for error reporting).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Requires the input to be fully consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                offset: self.pos,
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `u64` narrowed to the host `usize`.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError::LengthOverflow {
            what: "usize",
            len: v,
            limit: usize::MAX as u64,
        })
    }

    /// `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A strict bool: 0 or 1 only.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::InvalidValue {
                what: "bool",
                detail: format!("byte {other} is neither 0 nor 1"),
            }),
        }
    }

    /// A length prefix for `what`, validated against the bytes remaining
    /// (each element must occupy at least `min_elem_size` bytes).
    pub fn len_prefix(
        &mut self,
        what: &'static str,
        min_elem_size: usize,
    ) -> Result<usize, DecodeError> {
        let len = self.u64()?;
        let limit = (self.remaining() / min_elem_size.max(1)) as u64;
        if len > limit {
            return Err(DecodeError::LengthOverflow { what, len, limit });
        }
        Ok(len as usize)
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.len_prefix("bytes", 1)?;
        self.take(len)
    }

    /// Length-prefixed UTF-8, owned.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let b = self.bytes()?;
        std::str::from_utf8(b)
            .map(str::to_owned)
            .map_err(|e| DecodeError::InvalidValue {
                what: "string",
                detail: e.to_string(),
            })
    }
}

/// A type with a stable wire format. Implementations must be exact
/// inverses: `decode(encode(x)) == x`, with no dependence on host
/// endianness or word size.
pub trait Persist: Sized {
    /// Appends the wire representation.
    fn encode(&self, enc: &mut Encoder);
    /// Reads one value back, validating as it goes.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

macro_rules! persist_prim {
    ($($t:ty => $enc:ident / $dec:ident),* $(,)?) => {$(
        impl Persist for $t {
            fn encode(&self, enc: &mut Encoder) {
                enc.$enc(*self);
            }
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                dec.$dec()
            }
        }
    )*};
}

persist_prim! {
    u8 => u8 / u8,
    u16 => u16 / u16,
    u32 => u32 / u32,
    u64 => u64 / u64,
    i64 => i64 / i64,
    usize => usize / usize,
    f64 => f64 / f64,
    bool => bool / bool,
}

impl Persist for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.str(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.string()
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.len());
        for v in self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        // Every element encodes at least one byte, so the prefix check
        // bounds the pre-allocation even on corrupt input.
        let len = dec.len_prefix("Vec", 1)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(dec)?);
        }
        Ok(v)
    }
}

impl<T: Persist> Persist for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.u8(0),
            Some(v) => {
                enc.u8(1);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            tag => Err(DecodeError::InvalidTag {
                what: "Option",
                tag: tag as u32,
            }),
        }
    }
}

impl Persist for [u64; 4] {
    fn encode(&self, enc: &mut Encoder) {
        for v in self {
            enc.u64(*v);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok([dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?])
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(dec)?, B::decode(dec)?, C::decode(dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: T) {
        let mut enc = Encoder::new();
        v.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(T::decode(&mut dec).unwrap(), v);
        dec.finish().unwrap();
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(i64::MIN);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(String::from("dcache"));
        round_trip(String::new());
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(42u64));
        round_trip(None::<u64>);
        round_trip([1u64, 2, 3, 4]);
        round_trip((1u64, String::from("x")));
        round_trip((1u64, 2u32, false));
    }

    #[test]
    fn floats_round_trip_bit_identically() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::INFINITY, f64::NAN] {
            let mut enc = Encoder::new();
            v.encode(&mut enc);
            let bytes = enc.into_bytes();
            let back = f64::decode(&mut Decoder::new(&bytes)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn encoding_is_little_endian() {
        let mut enc = Encoder::new();
        enc.u32(0x0403_0201);
        assert_eq!(enc.into_bytes(), [1, 2, 3, 4]);
    }

    #[test]
    fn truncated_input_is_a_structured_eof() {
        let mut enc = Encoder::new();
        enc.u64(7);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[..5]);
        assert_eq!(
            u64::decode(&mut dec),
            Err(DecodeError::UnexpectedEof {
                offset: 0,
                needed: 8,
                available: 5
            })
        );
    }

    #[test]
    fn corrupt_length_prefix_fails_before_allocating() {
        let mut enc = Encoder::new();
        enc.u64(u64::MAX); // an absurd Vec length with no elements behind it
        let bytes = enc.into_bytes();
        match Vec::<u64>::decode(&mut Decoder::new(&bytes)) {
            Err(DecodeError::LengthOverflow {
                what: "Vec", len, ..
            }) => {
                assert_eq!(len, u64::MAX);
            }
            other => panic!("expected LengthOverflow, got {other:?}"),
        }
    }

    #[test]
    fn invalid_bool_and_option_tags_are_rejected() {
        assert!(matches!(
            bool::decode(&mut Decoder::new(&[2])),
            Err(DecodeError::InvalidValue { what: "bool", .. })
        ));
        assert_eq!(
            Option::<u64>::decode(&mut Decoder::new(&[9])),
            Err(DecodeError::InvalidTag {
                what: "Option",
                tag: 9
            })
        );
    }

    #[test]
    fn non_utf8_string_is_invalid_value() {
        let mut enc = Encoder::new();
        enc.bytes(&[0xFF, 0xFE]);
        let bytes = enc.into_bytes();
        assert!(matches!(
            String::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue { what: "string", .. })
        ));
    }

    #[test]
    fn errors_display_helpfully() {
        let e = DecodeError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum mismatch"));
        let e = DecodeError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
    }
}
