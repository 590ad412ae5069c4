//! Reference circuits: the Figure 2 RoB-entry circuit and synthetic
//! core-scale netlists for the Table 4 compile-overhead rows.

use dejavuzz_ift::Module;

use crate::builder::NetlistBuilder;
use crate::ir::{Netlist, SignalId};

/// Handles into the [`rob_entry_circuit`] netlist.
#[derive(Clone, Debug)]
pub struct RobEntryCircuit {
    /// The netlist itself.
    pub netlist: Netlist,
    /// Input index for `enq_uopc`.
    pub in_enq_uopc: usize,
    /// Input index for `enq_valid`.
    pub in_enq_valid: usize,
    /// Input index for `rob_tail_idx`.
    pub in_rob_tail_idx: usize,
    /// The per-entry `uopc` field registers.
    pub uopc_regs: Vec<SignalId>,
}

/// Builds the Figure 2 circuit, generalised to `entries` RoB entries:
/// entry *k* updates its `rob_k_uopc` register with `enq_uopc` when
/// `enq_valid` is high and `rob_tail_idx == k`.
///
/// The paper walks through how a RoB rollback taints `rob_tail_idx` and
/// `enq_valid`, whereupon CellIFT's Policy 2 suddenly taints every entry
/// field ("all 736 RoB entry field registers … are all suddenly tainted
/// when the RoB rolls back"), while diffIFT's `S_diff` gate keeps them
/// clean when the variants agree on the control signals.
pub fn rob_entry_circuit(entries: usize) -> RobEntryCircuit {
    let mut b = NetlistBuilder::new();
    b.module(Module::Rob);
    let uopc_regs: Vec<SignalId> = (0..entries).map(|_| b.reg(0)).collect();
    let enq_uopc = b.input(0);
    let enq_valid = b.input(1);
    let rob_tail_idx = b.input(2);
    for (k, &reg) in uopc_regs.iter().enumerate() {
        let kc = b.constant(k as u64);
        let match_k = b.eq(rob_tail_idx, kc);
        let update_k = b.and(enq_valid, match_k);
        // The Figure 2 mux: update ? enq_uopc : rob_k_uopc, registered.
        let next = b.mux(update_k, enq_uopc, reg);
        b.connect_reg(reg, next, None);
        b.name(reg, format!("rob_{k}_uopc"));
    }
    for (k, &reg) in uopc_regs.iter().enumerate() {
        b.output(format!("rob_{k}_uopc"), reg);
    }
    RobEntryCircuit {
        netlist: b.finish(),
        in_enq_uopc: 0,
        in_enq_valid: 1,
        in_rob_tail_idx: 2,
        uopc_regs,
    }
}

/// Parameters of a synthetic core-scale netlist, sized to mimic a real
/// design's instrumentation workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreScale {
    /// Human-readable design name.
    pub name: &'static str,
    /// Approximate Verilog LoC of the real design (Table 2).
    pub verilog_loc: usize,
    /// Combinational cells to generate.
    pub comb_cells: usize,
    /// Registers to generate.
    pub regs: usize,
    /// Memories to generate (as `(count, words)`).
    pub mems: (usize, usize),
}

/// A deliberately small synthetic scale: big enough to exercise every
/// cell kind and carry taint through registers and memories, small
/// enough that a fuzzing campaign driving it cycle-by-cycle (the
/// `netlist:small` backend, CI smoke runs) stays fast.
pub const SMALL_SCALE: CoreScale = CoreScale {
    name: "SynthSmall",
    verilog_loc: 0,
    comb_cells: 600,
    regs: 96,
    mems: (4, 64),
};

/// A SmallBOOM-scale workload (Table 2: 171K Verilog LoC).
pub const BOOM_SCALE: CoreScale = CoreScale {
    name: "BOOM",
    verilog_loc: 171_000,
    comb_cells: 40_000,
    regs: 6_000,
    mems: (24, 512),
};

/// A XiangShan-MinimalConfig-scale workload (Table 2: 893K Verilog LoC).
pub const XIANGSHAN_SCALE: CoreScale = CoreScale {
    name: "XiangShan",
    verilog_loc: 893_000,
    comb_cells: 200_000,
    regs: 30_000,
    mems: (96, 1024),
};

/// Generates a synthetic netlist with the given scale: chains of mixed
/// combinational cells feeding registers, plus write/read-ported memories.
/// The structure is generic but the *instrumentation workload* (cell count,
/// memory words) matches the corresponding real design's order of
/// magnitude, which is all the Table 4 compile rows measure.
pub fn synthetic_core(scale: CoreScale) -> Netlist {
    let mut b = NetlistBuilder::new();
    b.module(Module::Core);
    let x = b.input(0);
    let y = b.input(1);
    let wen = b.input(2);
    let waddr = b.input(3);
    let wdata = b.input(4);
    let mut regs = Vec::new();
    for i in 0..scale.regs {
        let r = b.reg(i as u64);
        regs.push(r);
    }
    // One combinational chain with the memory read ports interleaved
    // through it and register taps sampled along it: taint entering at an
    // SRAM surfaces at a chain depth, reaches the registers tapping
    // deeper points first, and circulates back through the `other`
    // operands cycle by cycle — so the per-cycle tainted-register count
    // (the coverage matrix index) moves through many distinct values
    // instead of jumping straight to saturation.
    let mem_every = (scale.comb_cells / scale.mems.0.max(1)).max(1);
    let tap_every = (scale.comb_cells / scale.regs.max(1)).max(1);
    let mut mems_made = 0;
    let mut prev = b.xor(x, y);
    // Seed the taps with the chain head so degenerate scales (zero comb
    // cells) still connect every register.
    let mut taps = vec![prev];
    for i in 0..scale.comb_cells {
        let other = regs[i % regs.len()];
        prev = match i % 6 {
            0 => b.and(prev, other),
            1 => b.or(prev, other),
            2 => b.add(prev, other),
            3 => b.xor(prev, other),
            4 => {
                let s = b.eq(prev, other);
                b.mux(s, prev, other)
            }
            _ => b.sub(prev, other),
        };
        if i % mem_every == 0 && mems_made < scale.mems.0 {
            let mem = b.mem(scale.mems.1, format!("sram_{mems_made}"));
            b.connect_mem_write(mem, wen, waddr, wdata);
            let rd = b.mem_read(mem, waddr);
            prev = b.xor(prev, rd);
            mems_made += 1;
        }
        if i % tap_every == 0 {
            taps.push(prev);
        }
    }
    while mems_made < scale.mems.0 {
        // Degenerate scales (fewer comb cells than memories) append the
        // remaining SRAMs at the end of the chain.
        let mem = b.mem(scale.mems.1, format!("sram_{mems_made}"));
        b.connect_mem_write(mem, wen, waddr, wdata);
        let rd = b.mem_read(mem, waddr);
        prev = b.xor(prev, rd);
        mems_made += 1;
    }
    for (i, r) in regs.clone().into_iter().enumerate() {
        // Even registers sample the chain at spread depths; odd registers
        // shift their neighbour, giving taint a second, slower route.
        let d = if i % 2 == 0 {
            taps[(i / 2) % taps.len()]
        } else {
            regs[(i + 1) % scale.regs]
        };
        b.connect_reg(r, d, None);
    }
    b.output("tap", prev);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::instrument;
    use crate::sim::NetlistSim;
    use dejavuzz_ift::{IftMode, TWord};

    fn run_rollback(mode: IftMode, entries: usize) -> usize {
        // Reproduce §2.2's scenario: one entry holds tainted data (a secret
        // wrote back), then the RoB rolls back: the tail pointer — and with
        // it enq_valid — become tainted, but their *values* are identical in
        // both variants (rollback depth did not depend on the secret).
        let c = rob_entry_circuit(entries);
        let mut sim = NetlistSim::new(c.netlist.clone(), mode);
        // Cycle 1: normally enqueue a tainted uopc into entry 1.
        sim.set_input(c.in_enq_uopc, TWord::secret(0x13, 0x37));
        sim.set_input(c.in_enq_valid, TWord::lit(1));
        sim.set_input(c.in_rob_tail_idx, TWord::lit(1));
        sim.step();
        // Cycle 2: rollback. Control signals tainted but equal across
        // variants; the frontend presents a fresh (untainted) uopc that
        // differs from the entries' contents, so Policy 2's (A ^ B) term is
        // non-zero everywhere.
        sim.set_input(c.in_enq_uopc, TWord::lit(0x55));
        sim.set_input(c.in_enq_valid, TWord::with_taint(1, 1, 1));
        sim.set_input(c.in_rob_tail_idx, TWord::with_taint(2, 2, u64::MAX));
        sim.step();
        sim.census().taint_sum()
    }

    #[test]
    fn figure2_cellift_taints_every_entry_on_rollback() {
        let entries = 16;
        let tainted = run_rollback(IftMode::CellIft, entries);
        assert_eq!(
            tainted, entries,
            "CellIFT: all RoB entry field registers suddenly tainted on rollback"
        );
    }

    #[test]
    fn figure2_diffift_keeps_entries_clean() {
        let tainted = run_rollback(IftMode::DiffIft, 16);
        // Only the originally tainted entry (and the entry the tainted-but-
        // equal tail actually updated with untainted data) may carry taint.
        assert!(tainted <= 2, "diffIFT must not explode: {tainted} tainted");
        assert!(tainted >= 1, "the secret uopc stays tainted");
    }

    #[test]
    fn figure2_diffift_propagates_real_divergence() {
        // If the secret actually changes the tail pointer between variants
        // (a secret-dependent rollback depth), diffIFT *must* taint.
        let c = rob_entry_circuit(8);
        let mut sim = NetlistSim::new(c.netlist.clone(), IftMode::DiffIft);
        sim.set_input(c.in_enq_uopc, TWord::lit(0x42));
        sim.set_input(c.in_enq_valid, TWord::lit(1));
        sim.set_input(c.in_rob_tail_idx, TWord::secret(2, 5));
        sim.step();
        let census = sim.census();
        assert!(
            census.taint_sum() >= 2,
            "both candidate entries become tainted"
        );
    }

    #[test]
    fn functional_behaviour_of_rob_entry() {
        let c = rob_entry_circuit(4);
        let mut sim = NetlistSim::new(c.netlist.clone(), IftMode::Base);
        sim.set_input(c.in_enq_uopc, TWord::lit(0x33));
        sim.set_input(c.in_enq_valid, TWord::lit(1));
        sim.set_input(c.in_rob_tail_idx, TWord::lit(3));
        sim.step();
        assert_eq!(sim.output("rob_3_uopc").a, 0x33);
        assert_eq!(sim.output("rob_2_uopc").a, 0);
        // Disabled: nothing changes.
        sim.set_input(c.in_enq_valid, TWord::lit(0));
        sim.set_input(c.in_enq_uopc, TWord::lit(0x44));
        sim.step();
        assert_eq!(sim.output("rob_3_uopc").a, 0x33);
    }

    #[test]
    fn synthetic_scales_are_ordered() {
        // Keep the scales tiny here; the bench exercises the real ones.
        let small = CoreScale {
            name: "s",
            verilog_loc: 0,
            comb_cells: 100,
            regs: 20,
            mems: (2, 16),
        };
        let big = CoreScale {
            name: "b",
            verilog_loc: 0,
            comb_cells: 400,
            regs: 60,
            mems: (4, 64),
        };
        let ns = synthetic_core(small);
        let nb = synthetic_core(big);
        assert!(nb.cell_count() > ns.cell_count());
        assert!(nb.mem_words() > ns.mem_words());
        // Both instrument and simulate.
        for mode in [IftMode::DiffIft, IftMode::CellIft] {
            let (inst, _) = instrument(&ns, mode);
            let mut sim = NetlistSim::new(inst, mode);
            sim.set_input(0, TWord::lit(1));
            sim.step();
        }
    }

    #[test]
    fn small_scale_simulates_all_modes() {
        let n = synthetic_core(SMALL_SCALE);
        assert!(n.cell_count() < synthetic_core(BOOM_SCALE).cell_count() / 10);
        for mode in [IftMode::Base, IftMode::DiffIft, IftMode::CellIft] {
            let mut sim = NetlistSim::new(n.clone(), mode);
            sim.set_input(0, TWord::lit(3));
            sim.step();
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants ARE the subject
    fn scale_constants_reflect_table2() {
        assert_eq!(BOOM_SCALE.verilog_loc, 171_000);
        assert_eq!(XIANGSHAN_SCALE.verilog_loc, 893_000);
        assert!(XIANGSHAN_SCALE.comb_cells > BOOM_SCALE.comb_cells);
        assert!(
            XIANGSHAN_SCALE.mems.0 * XIANGSHAN_SCALE.mems.1 > BOOM_SCALE.mems.0 * BOOM_SCALE.mems.1
        );
    }
}
