//! [`Persist`] wire formats for the coverage types.
//!
//! A [`Module`] travels as its name and decodes by lookup: an unknown
//! name is a [`DecodeError::InvalidValue`], and nothing outlives the
//! call. A [`CoverageMatrix`] encodes its points
//! *sorted*, so equal sets produce byte-identical encodings regardless
//! of `HashSet` iteration order — snapshot files are reproducible
//! artifacts, diffable across runs.

use dejavuzz_persist::{DecodeError, Decoder, Encoder, Persist};

use crate::coverage::{CoverageMatrix, CoveragePoint};
use crate::module::Module;
use crate::policy::IftMode;

impl Persist for IftMode {
    fn encode(&self, enc: &mut Encoder) {
        enc.u32(match self {
            IftMode::Base => 0,
            IftMode::CellIft => 1,
            IftMode::DiffIft => 2,
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.u32()? {
            0 => Ok(IftMode::Base),
            1 => Ok(IftMode::CellIft),
            2 => Ok(IftMode::DiffIft),
            tag => Err(DecodeError::InvalidTag {
                what: "IftMode",
                tag,
            }),
        }
    }
}

impl Persist for Module {
    fn encode(&self, enc: &mut Encoder) {
        enc.str(self.name());
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let name = dec.bytes()?;
        let known = Module::ALL
            .into_iter()
            .find(|m| m.name().as_bytes() == name);
        known.ok_or_else(|| DecodeError::InvalidValue {
            what: "Module",
            detail: format!("unknown module {:?}", String::from_utf8_lossy(name)),
        })
    }
}

impl Persist for CoveragePoint {
    fn encode(&self, enc: &mut Encoder) {
        self.module.encode(enc);
        enc.u64(u64::from(self.index));
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let module = Module::decode(dec)?;
        let index = dec.u64()?;
        let index = u32::try_from(index).map_err(|_| DecodeError::InvalidValue {
            what: "CoveragePoint.index",
            detail: format!("{index} exceeds u32::MAX"),
        })?;
        Ok(CoveragePoint { module, index })
    }
}

impl Persist for CoverageMatrix {
    fn encode(&self, enc: &mut Encoder) {
        self.sorted_points().encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let points = Vec::<CoveragePoint>::decode(dec)?;
        let mut m = CoverageMatrix::new();
        for p in points {
            m.insert(p);
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::Census;

    fn matrix(counts: &[(Module, usize)]) -> CoverageMatrix {
        let mut c = Census::new();
        for &(m, tainted) in counts {
            c.report_counts(m, tainted, 64);
        }
        let mut m = CoverageMatrix::new();
        m.observe(&c);
        m
    }

    #[test]
    fn coverage_matrix_round_trips_exactly() {
        let m = matrix(&[(Module::Rob, 3), (Module::Lsu, 1), (Module::Dcache, 7)]);
        let bytes = dejavuzz_persist::to_bytes(&m);
        let back: CoverageMatrix = dejavuzz_persist::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.sorted_points(), m.sorted_points());
        assert!(back.contains(Module::Dcache, 7));
    }

    #[test]
    fn empty_matrix_round_trips() {
        let bytes = dejavuzz_persist::to_bytes(&CoverageMatrix::new());
        let back: CoverageMatrix = dejavuzz_persist::from_bytes(&bytes).unwrap();
        assert_eq!(back.points(), 0);
    }

    #[test]
    fn encoding_is_canonical_regardless_of_insertion_order() {
        let a = matrix(&[(Module::Rob, 3), (Module::Lsu, 1), (Module::Dcache, 7)]);
        let b = matrix(&[(Module::Dcache, 7), (Module::Rob, 3), (Module::Lsu, 1)]);
        assert_eq!(
            dejavuzz_persist::to_bytes(&a),
            dejavuzz_persist::to_bytes(&b),
            "equal sets must encode byte-identically"
        );
    }

    #[test]
    fn decoded_points_interoperate_with_live_ones() {
        let m = matrix(&[(Module::Rob, 2)]);
        let bytes = dejavuzz_persist::to_bytes(&m);
        let back: CoverageMatrix = dejavuzz_persist::from_bytes(&bytes).unwrap();
        // A live observation of the same (module, count) must deduplicate
        // against the decoded point.
        let mut merged = back;
        let mut c = Census::new();
        c.report_counts(Module::Rob, 2, 64);
        assert_eq!(merged.observe(&c), 0, "decoded point dedups live census");
    }

    #[test]
    fn unknown_modules_and_oversized_indices_are_invalid_values() {
        let point = |module: &str, index: u64| {
            let mut enc = Encoder::new();
            enc.str(module);
            enc.u64(index);
            dejavuzz_persist::from_bytes::<CoveragePoint>(&enc.into_bytes())
        };
        for module in Module::ALL {
            assert_eq!(
                point(module.name(), 7),
                Ok(CoveragePoint { module, index: 7 })
            );
        }
        for (module, index, what) in [
            ("pipeline", 1, "Module"),
            ("\u{ff}rob", 1, "Module"),
            ("rob", 1 << 32, "CoveragePoint.index"),
        ] {
            match point(module, index) {
                Err(DecodeError::InvalidValue { what: w, .. }) => assert_eq!(w, what),
                other => panic!("{module:?}/{index} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_matrix_fails_structurally() {
        let m = matrix(&[(Module::Rob, 3), (Module::Lsu, 1)]);
        let bytes = dejavuzz_persist::to_bytes(&m);
        for cut in 0..bytes.len() {
            assert!(
                dejavuzz_persist::from_bytes::<CoverageMatrix>(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }
}
