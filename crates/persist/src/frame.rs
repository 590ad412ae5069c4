//! The snapshot envelope: magic + version + checksum around an opaque
//! payload.
//!
//! Layout (all little-endian):
//!
//! ```text
//! [magic: 8 bytes][version: u32][payload_len: u64][checksum: u64][payload]
//! ```
//!
//! The checksum is FNV-1a 64 over the payload bytes. [`open`] validates
//! the envelope in order — magic first (is this even ours?), then
//! version (can this build read it?), then length and checksum (did it
//! survive the disk?) — so the caller gets the most specific
//! [`DecodeError`] for whatever went wrong, and payload decoding only
//! ever runs over bytes that already passed integrity checks.

use crate::codec::{DecodeError, Decoder, Encoder};

/// Envelope header size: magic (8) + version (4) + payload length (8) +
/// checksum (8). A complete frame is `HEADER_LEN + payload_len` bytes.
pub const HEADER_LEN: usize = 28;

/// Upper bound on one frame (header + payload) a stream reader accepts:
/// the worker-process RPC stream. Its frames are far smaller; a larger
/// declared length is a corrupt or hostile length field, and rejecting
/// it beats allocating, or waiting for, its body.
pub const MAX_FRAME: usize = 256 << 20;

/// Stream reassembly: the total size of the frame starting at `bytes[0]`,
/// or `None` while the header is still incomplete. Lets a socket reader
/// split a byte stream into whole frames before handing each to [`open`]
/// (which rejects trailing bytes by design). Performs no validation
/// beyond reading the length field — [`open`] still checks magic,
/// version and checksum on the complete frame — and saturates at
/// `usize::MAX` instead of overflowing on a hostile length, so a reader
/// comparing against [`MAX_FRAME`] rejects it.
pub fn framed_len(bytes: &[u8]) -> Option<usize> {
    if bytes.len() < HEADER_LEN {
        return None;
    }
    let mut len = [0u8; 8];
    len.copy_from_slice(&bytes[12..20]);
    let payload = usize::try_from(u64::from_le_bytes(len)).unwrap_or(usize::MAX);
    Some(HEADER_LEN.saturating_add(payload))
}

/// FNV-1a 64-bit over a byte slice: cheap, dependency-free, and stable
/// across platforms. Not cryptographic — it guards against bit rot and
/// truncation, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a folded over four independent word lanes, for high-rate frame
/// streams (the per-run RPC traffic of a worker-process pool). Plain
/// [`fnv1a64`] is a serial multiply chain per *byte* — fine for
/// occasional snapshot files, a measurable per-RPC tax at thousands of
/// frames per second. The striped variant consumes 32 bytes per step
/// with the four multiplies overlapping, roughly an order of magnitude
/// faster, with the same guarantees (every single-bit flip changes the
/// sum; not cryptographic). The value differs from [`fnv1a64`], so a
/// format must pick one checksum and stay with it.
pub fn fnv1a64_x4(bytes: &[u8]) -> u64 {
    let mut lanes = [
        FNV_SEED,
        FNV_SEED.rotate_left(16),
        FNV_SEED.rotate_left(32),
        FNV_SEED.rotate_left(48),
    ];
    let mut chunks = bytes.chunks_exact(32);
    for chunk in &mut chunks {
        for (lane, word) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
        }
    }
    let mut h = FNV_SEED ^ bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Wraps a payload in a framed envelope.
pub fn seal(magic: [u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    seal_with(magic, version, payload, fnv1a64)
}

/// [`seal`] with a caller-chosen checksum (e.g. [`fnv1a64_x4`] for
/// high-rate streams). The envelope layout is identical; [`open_with`]
/// must be given the same function.
pub fn seal_with(
    magic: [u8; 8],
    version: u32,
    payload: &[u8],
    checksum: fn(&[u8]) -> u64,
) -> Vec<u8> {
    let mut enc = Encoder::new();
    for b in magic {
        enc.u8(b);
    }
    enc.u32(version);
    enc.u64(payload.len() as u64);
    enc.u64(checksum(payload));
    let mut out = enc.into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Validates an envelope and returns the payload slice. `supported` is
/// the single version this build reads; older or newer frames fail with
/// [`DecodeError::UnsupportedVersion`].
pub fn open(magic: [u8; 8], supported: u32, bytes: &[u8]) -> Result<&[u8], DecodeError> {
    open_with(magic, supported, bytes, fnv1a64)
}

/// [`open`] for frames sealed with [`seal_with`]: validates with the
/// caller's checksum function instead of [`fnv1a64`].
pub fn open_with(
    magic: [u8; 8],
    supported: u32,
    bytes: &[u8],
    checksum: fn(&[u8]) -> u64,
) -> Result<&[u8], DecodeError> {
    let mut dec = Decoder::new(bytes);
    let mut found = [0u8; 8];
    for slot in &mut found {
        *slot = dec.u8()?;
    }
    if found != magic {
        return Err(DecodeError::BadMagic {
            found,
            expected: magic,
        });
    }
    let version = dec.u32()?;
    if version != supported {
        return Err(DecodeError::UnsupportedVersion {
            found: version,
            supported,
        });
    }
    let len = dec.u64()?;
    let stored = dec.u64()?;
    let start = dec.offset();
    let remaining = dec.remaining() as u64;
    if len > remaining {
        return Err(DecodeError::UnexpectedEof {
            offset: start,
            needed: len as usize,
            available: remaining as usize,
        });
    }
    if len < remaining {
        return Err(DecodeError::TrailingBytes {
            remaining: (remaining - len) as usize,
        });
    }
    let payload = &bytes[start..start + len as usize];
    let computed = checksum(payload);
    if computed != stored {
        return Err(DecodeError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"TESTMAG1";

    #[test]
    fn seal_open_round_trip() {
        let framed = seal(MAGIC, 3, b"hello");
        assert_eq!(open(MAGIC, 3, &framed).unwrap(), b"hello");
    }

    #[test]
    fn empty_payload_is_fine() {
        let framed = seal(MAGIC, 1, b"");
        assert_eq!(open(MAGIC, 1, &framed).unwrap(), b"");
    }

    #[test]
    fn wrong_magic_is_rejected_first() {
        let framed = seal(*b"OTHERMAG", 1, b"hello");
        assert!(matches!(
            open(MAGIC, 1, &framed),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn version_skew_is_rejected() {
        let framed = seal(MAGIC, 2, b"hello");
        assert_eq!(
            open(MAGIC, 1, &framed),
            Err(DecodeError::UnsupportedVersion {
                found: 2,
                supported: 1
            })
        );
    }

    #[test]
    fn every_truncation_point_is_a_structured_error() {
        let framed = seal(MAGIC, 1, b"payload bytes");
        for cut in 0..framed.len() {
            let err = open(MAGIC, 1, &framed[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    DecodeError::UnexpectedEof { .. } | DecodeError::BadMagic { .. }
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_in_payload_is_caught() {
        let framed = seal(MAGIC, 1, b"abcdef");
        let payload_start = framed.len() - 6;
        for byte in payload_start..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    matches!(
                        open(MAGIC, 1, &bad),
                        Err(DecodeError::ChecksumMismatch { .. })
                    ),
                    "flip at byte {byte} bit {bit} slipped through"
                );
            }
        }
    }

    #[test]
    fn framed_len_saturates_on_hostile_lengths() {
        for len in [u64::MAX, u64::MAX - 3] {
            let mut header = seal(MAGIC, 1, b"");
            header[12..20].copy_from_slice(&len.to_le_bytes());
            assert_eq!(framed_len(&header), Some(usize::MAX), "length {len}");
        }
    }

    #[test]
    fn framed_len_splits_streams_into_whole_frames() {
        let a = seal(MAGIC, 1, b"first");
        let b = seal(MAGIC, 1, b"the second frame");
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        // Header incomplete: no length yet.
        assert_eq!(framed_len(&stream[..HEADER_LEN - 1]), None);
        // Complete header: the first frame's exact extent.
        let la = framed_len(&stream).unwrap();
        assert_eq!(la, a.len());
        assert_eq!(open(MAGIC, 1, &stream[..la]).unwrap(), b"first");
        let lb = framed_len(&stream[la..]).unwrap();
        assert_eq!(la + lb, stream.len());
        assert_eq!(open(MAGIC, 1, &stream[la..]).unwrap(), b"the second frame");
    }

    #[test]
    fn striped_checksum_catches_every_single_bit_flip() {
        // Long enough to cover whole 32-byte steps plus a remainder tail.
        let payload: Vec<u8> = (0..77u8).collect();
        let framed = seal_with(MAGIC, 1, &payload, fnv1a64_x4);
        assert_eq!(
            open_with(MAGIC, 1, &framed, fnv1a64_x4).unwrap(),
            &payload[..]
        );
        let start = framed.len() - payload.len();
        for byte in start..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    matches!(
                        open_with(MAGIC, 1, &bad, fnv1a64_x4),
                        Err(DecodeError::ChecksumMismatch { .. })
                    ),
                    "flip at byte {byte} bit {bit} slipped through"
                );
            }
        }
    }

    #[test]
    fn striped_checksum_separates_lengths_and_lane_swaps() {
        // Same bytes, different lengths (trailing zeros) must differ, and
        // swapping two 8-byte lane words within a step must differ.
        assert_ne!(fnv1a64_x4(&[0u8; 32]), fnv1a64_x4(&[0u8; 40]));
        let mut a = vec![0u8; 32];
        a[0] = 1;
        let mut b = vec![0u8; 32];
        b[8] = 1;
        assert_ne!(fnv1a64_x4(&a), fnv1a64_x4(&b));
        // And it is not the plain checksum: formats must pick one.
        assert_ne!(fnv1a64_x4(b"payload"), fnv1a64(b"payload"));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut framed = seal(MAGIC, 1, b"hello");
        framed.extend_from_slice(b"junk");
        assert_eq!(
            open(MAGIC, 1, &framed),
            Err(DecodeError::TrailingBytes { remaining: 4 })
        );
    }
}
