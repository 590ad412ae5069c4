//! Campaign persistence primitives: a hand-rolled, versioned,
//! endian-stable binary codec plus the framing and file plumbing the
//! snapshot/resume and shard-merge workflows build on.
//!
//! The build environment is registry-less (see ROADMAP "Registry-less
//! vendoring"), so there is no serde here: every persisted type spells
//! out its wire format through the [`Persist`] trait over the
//! [`codec::Encoder`]/[`codec::Decoder`] primitives. All integers are
//! little-endian; floats travel as IEEE-754 bit patterns so restored
//! running averages are *bit-identical*, not merely close.
//!
//! Layers, bottom to top:
//!
//! * [`codec`] — `Encoder`, `Decoder`, the [`Persist`] trait, impls for
//!   primitives and containers, and the structured [`DecodeError`] every
//!   malformed input maps to (truncation, bad tags, overflow — never a
//!   panic).
//! * [`frame`] — the snapshot envelope: magic, format version and an
//!   FNV-1a checksum around an opaque payload, so a wrong-version or
//!   bit-flipped file fails loudly *before* payload decoding starts.
//! * [`io`] — atomic write-rename saves and a [`io::LoadError`] that
//!   separates filesystem failures from decode failures.

pub mod codec;
pub mod frame;
pub mod io;

pub use codec::{DecodeError, Decoder, Encoder, Persist};
pub use frame::{fnv1a64, framed_len, open, seal, HEADER_LEN, MAX_FRAME};
pub use io::{load_bytes, prune_rotated, rotated_path, save_atomic, LoadError};

/// Encodes a value to a bare (unframed) byte buffer.
pub fn to_bytes<T: Persist>(value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    enc.into_bytes()
}

/// Decodes a value from a bare (unframed) byte buffer, requiring the
/// buffer to be fully consumed.
pub fn from_bytes<T: Persist>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let value = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_round_trip_requires_full_consumption() {
        let bytes = to_bytes(&(7u64, String::from("rob")));
        let back: (u64, String) = from_bytes(&bytes).unwrap();
        assert_eq!(back, (7, "rob".to_string()));
        // A trailing byte is a structured error, not silence.
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(matches!(
            from_bytes::<(u64, String)>(&longer),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        ));
    }
}
