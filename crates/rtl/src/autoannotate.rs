//! Automatic taint-liveness annotation — the paper's stated future work.
//!
//! §7: "Limited by the loss of semantic information during the design
//! synthesis to RTL, DejaVuzz currently relies on manual taint liveness
//! annotations. We leave the automatic taint liveness annotation (such as
//! using type-safe hardware description languages or large language
//! models) for future work."
//!
//! This pass implements the structural half of that future work on the
//! netlist IR: for every memory (a candidate sink array), it searches the
//! design for a register vector that *behaves like* the array's validity
//! state — a register (or register set) whose value gates writes to the
//! memory (its write-enable cone) or whose name matches the `*_valid`
//! naming convention real designs overwhelmingly follow. Matches become
//! `liveness_mask` annotations identical to hand-written ones.

use crate::ir::{CellKind, MemId, Netlist, SignalId};

/// Why a liveness signal was matched to a sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchReason {
    /// The signal's name ends in `_valid`/`_valids`/`valid_vec` and shares
    /// a name stem with the array.
    NamingConvention,
    /// The signal drives the array's write-enable cone (writes to the
    /// array are gated by it).
    WriteEnableCone,
}

/// One inferred annotation.
#[derive(Clone, Debug)]
pub struct InferredAnnotation {
    /// The annotated memory.
    pub mem: MemId,
    /// Memory name (diagnostics).
    pub mem_name: String,
    /// The liveness signal.
    pub signal: SignalId,
    /// Signal name if present.
    pub signal_name: Option<String>,
    /// Why it matched.
    pub reason: MatchReason,
}

/// Infers `liveness_mask` annotations for every memory in the netlist.
///
/// Returns the inferred annotations; call [`apply`] to install them
/// (flat masks: every slot guarded by the same scalar signal — the
/// per-slot generic vector interface of §4.3.2 needs designer intent that
/// structure alone cannot recover, which is exactly why the paper calls
/// the general problem future work).
pub fn infer(netlist: &Netlist) -> Vec<InferredAnnotation> {
    let mut out = Vec::new();
    for (mi, mem) in netlist.mems.iter().enumerate() {
        let mem_name = mem.name.clone().unwrap_or_else(|| format!("mem{mi}"));
        // 1. Naming convention: a register named like "<stem>_valid*".
        let stem = mem_name.split('_').next().unwrap_or(&mem_name);
        let by_name = netlist.cells.iter().enumerate().find(|(_, c)| {
            matches!(c.kind, CellKind::Reg { .. })
                && c.name.as_deref().is_some_and(|n| {
                    (n.ends_with("_valid") || n.ends_with("_valids") || n.ends_with("valid_vec"))
                        && (n.contains(stem) || c.module == mem.module)
                })
        });
        if let Some((sig, c)) = by_name {
            out.push(InferredAnnotation {
                mem: MemId(mi),
                mem_name,
                signal: sig,
                signal_name: c.name.clone(),
                reason: MatchReason::NamingConvention,
            });
            continue;
        }
        // 2. Write-enable cone: a register feeding (possibly through AND
        // gates) the memory's write-enable.
        if let Some((wen, _, _)) = mem.write_port {
            if let Some(sig) = find_reg_in_cone(netlist, wen, 4) {
                out.push(InferredAnnotation {
                    mem: MemId(mi),
                    mem_name,
                    signal: sig,
                    signal_name: netlist.cells[sig].name.clone(),
                    reason: MatchReason::WriteEnableCone,
                });
            }
        }
    }
    out
}

/// Walks backwards through AND/OR/NOT/MUX-select cells from `sig`, looking
/// for a register within `depth` steps.
fn find_reg_in_cone(netlist: &Netlist, sig: SignalId, depth: usize) -> Option<SignalId> {
    if depth == 0 {
        return None;
    }
    match netlist.cells[sig].kind {
        CellKind::Reg { .. } => Some(sig),
        CellKind::And(a, b) | CellKind::Or(a, b) => find_reg_in_cone(netlist, a, depth - 1)
            .or_else(|| find_reg_in_cone(netlist, b, depth - 1)),
        CellKind::Not(a) => find_reg_in_cone(netlist, a, depth - 1),
        CellKind::Mux { sel, .. } => find_reg_in_cone(netlist, sel, depth - 1),
        CellKind::Eq(a, b) | CellKind::Lt(a, b) => find_reg_in_cone(netlist, a, depth - 1)
            .or_else(|| find_reg_in_cone(netlist, b, depth - 1)),
        _ => None,
    }
}

/// Installs the inferred annotations into the netlist (flat masks).
pub fn apply(netlist: &mut Netlist, annotations: &[InferredAnnotation]) {
    for a in annotations {
        let words = netlist.mems[a.mem.0].words;
        netlist.mems[a.mem.0].liveness = vec![a.signal; words];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::sim::NetlistSim;
    use dejavuzz_ift::{IftMode, Module, TWord};

    /// An LFB-shaped design: a data memory guarded by an `mshr_valid`
    /// register.
    fn lfb_netlist(named: bool) -> Netlist {
        let mut b = NetlistBuilder::new();
        b.module(Module::Lfb);
        let valid = b.reg(0);
        if named {
            b.name(valid, "lfb_mshr_valid");
        }
        let set = b.input(0);
        b.connect_reg(valid, set, None);
        let m = b.mem(8, "lfb_data");
        let addr = b.input(1);
        let data = b.input(2);
        // Write-enable gated by the valid register.
        let wen_in = b.input(3);
        let wen = b.and(wen_in, valid);
        b.connect_mem_write(m, wen, addr, data);
        b.finish()
    }

    #[test]
    fn naming_convention_match() {
        let n = lfb_netlist(true);
        let anns = infer(&n);
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].reason, MatchReason::NamingConvention);
        assert_eq!(anns[0].signal_name.as_deref(), Some("lfb_mshr_valid"));
    }

    #[test]
    fn write_enable_cone_fallback() {
        let n = lfb_netlist(false);
        let anns = infer(&n);
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].reason, MatchReason::WriteEnableCone);
    }

    #[test]
    fn applied_annotation_drives_sink_liveness() {
        let mut n = lfb_netlist(true);
        let anns = infer(&n);
        apply(&mut n, &anns);
        let mut sim = NetlistSim::new(n, IftMode::DiffIft);
        // Plant a tainted secret into the buffer while valid = 0.
        sim.mem_poke(0, 3, TWord::secret(0xAA, 0x55));
        sim.set_input(0, TWord::lit(0)); // valid register input low
        sim.step();
        let reports = sim.sink_reports();
        assert_eq!(reports.len(), 1);
        assert!(
            reports[0].residue(),
            "invalid buffer => residue, not exploitable"
        );
        // Raise valid: the same taint becomes exploitable.
        sim.set_input(0, TWord::lit(1));
        sim.step();
        let reports = sim.sink_reports();
        assert!(reports[0].exploitable());
    }

    #[test]
    fn memory_without_state_register_gets_no_annotation() {
        let mut b = NetlistBuilder::new();
        let m = b.mem(4, "scratch");
        let wen = b.input(0);
        let addr = b.input(1);
        let data = b.input(2);
        b.connect_mem_write(m, wen, addr, data);
        let n = b.finish();
        assert!(infer(&n).is_empty(), "inputs are not state registers");
    }
}
