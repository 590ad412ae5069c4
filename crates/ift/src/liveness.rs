//! Taint liveness annotations (§4.3.2).
//!
//! "The taints produced by diffIFT only indicate reachability. […] not all
//! encoded secrets are exploitable." A buffer such as BOOM's line-fill
//! buffer keeps stale secret bytes after its MSHR invalidates them; matching
//! those bytes (IntroSpectre/TEESec) or hashing them (SpecDoctor) yields
//! false positives.
//!
//! DejaVuzz's answer is the `liveness_mask` annotation: a register array is
//! bound to a *liveness signal vector* whose bit *i* says whether slot *i*
//! currently holds architecturally reachable data. A tainted sink is
//! reported as exploitable only when its liveness bit is high.

use crate::module::Module;

/// A liveness annotation: binds a register array (the sink) to a liveness
/// signal vector, one bit per slot.
///
/// This mirrors the paper's Verilog attribute:
///
/// ```text
/// (* liveness_mask = "mshr_valid_vec" *)
/// reg [63:0] lb [15:0];
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LivenessMask {
    /// Module that owns the sink array.
    pub module: Module,
    /// Name of the annotated register array.
    pub array: &'static str,
    /// Name of the liveness signal the annotation references.
    pub signal: &'static str,
}

impl LivenessMask {
    /// Creates an annotation binding `module.array` to `signal`.
    pub const fn new(module: Module, array: &'static str, signal: &'static str) -> Self {
        LivenessMask {
            module,
            array,
            signal,
        }
    }
}

/// One tainted-sink observation produced during the final analysis sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SinkReport {
    /// Module that owns the sink.
    pub module: Module,
    /// Annotated array name.
    pub array: String,
    /// Slot index within the array.
    pub index: usize,
    /// The slot's shadow mask.
    pub taint: u64,
    /// The slot's liveness bit at sweep time.
    pub live: bool,
}

impl SinkReport {
    /// True if this sink is tainted *and* live — the paper's definition of
    /// an exploitable leakage sink.
    pub fn exploitable(&self) -> bool {
        self.taint != 0 && self.live
    }

    /// True if tainted but dead — the residue class that causes the false
    /// positives of §6.3 (e.g. stale LFB data under an invalid MSHR).
    pub fn residue(&self) -> bool {
        self.taint != 0 && !self.live
    }
}

/// Sweeps a register array against its liveness vector, producing one
/// [`SinkReport`] per slot that carries taint.
///
/// `taints` yields each slot's shadow mask; `live` yields the corresponding
/// liveness bit. The two iterators are zipped, so a mismatched length simply
/// truncates to the shorter one (mirroring a hardware vector width
/// mismatch, which the annotation interface forbids but a sweep tolerates).
/// Only a tainted slot allocates, for its report's array name.
pub fn sweep_sinks(
    module: Module,
    array: &str,
    taints: impl IntoIterator<Item = u64>,
    live: impl IntoIterator<Item = bool>,
    out: &mut Vec<SinkReport>,
) {
    for (index, (taint, live)) in taints.into_iter().zip(live).enumerate() {
        if taint != 0 {
            out.push(SinkReport {
                module,
                array: array.to_owned(),
                index,
                taint,
                live,
            });
        }
    }
}

/// Filters a sweep down to the exploitable sinks.
pub fn exploitable(reports: &[SinkReport]) -> Vec<&SinkReport> {
    reports.iter().filter(|r| r.exploitable()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_carries_binding() {
        let a = LivenessMask::new(Module::Lfb, "lb", "mshr_valid_vec");
        assert_eq!(a.module, Module::Lfb);
        assert_eq!(a.signal, "mshr_valid_vec");
    }

    #[test]
    fn sweep_reports_only_tainted_slots() {
        let mut out = Vec::new();
        sweep_sinks(
            Module::Lfb,
            "lb",
            [0u64, 0xFF, 0, 0x1],
            [true, true, true, false],
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].index, 1);
        assert_eq!(out[1].index, 3);
    }

    #[test]
    fn lfb_stale_data_is_residue_not_exploitable() {
        // The paper's MSHR/LFB example: refill completed, MSHR switched to
        // invalid, secret bytes remain in the LFB. Tainted but dead.
        let mut out = Vec::new();
        sweep_sinks(Module::Lfb, "lb", [0xDEAD_u64], [false], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].residue());
        assert!(!out[0].exploitable());
        assert!(exploitable(&out).is_empty());
    }

    #[test]
    fn live_tainted_sink_is_exploitable() {
        let mut out = Vec::new();
        sweep_sinks(
            Module::Dcache,
            "data",
            [0u64, 0xBEEF],
            [true, true],
            &mut out,
        );
        let ex = exploitable(&out);
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].index, 1);
    }

    #[test]
    fn generic_vector_interface_composes_from_submodules() {
        // Lines 2-3 of the paper's listing: lower 8 entries managed by
        // mshrs_0, upper 8 by mshrs_1 — the liveness vector is built by
        // concatenation before the sweep.
        let mshrs_0_valid = false;
        let mshrs_1_valid = true;
        let live_vec: Vec<bool> = std::iter::repeat_n(mshrs_0_valid, 8)
            .chain(std::iter::repeat_n(mshrs_1_valid, 8))
            .collect();
        let taints = vec![0xAAu64; 16];
        let mut out = Vec::new();
        sweep_sinks(Module::Lfb, "lb", taints, live_vec, &mut out);
        assert_eq!(out.len(), 16);
        assert_eq!(out.iter().filter(|r| r.exploitable()).count(), 8);
        assert_eq!(out.iter().filter(|r| r.residue()).count(), 8);
    }
}
