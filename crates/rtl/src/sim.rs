//! Compiled two-phase cycle simulator over (instrumented) netlists.
//!
//! Signals carry [`TWord`] two-plane values, so a single simulation run *is*
//! the paper's differential testbench: plane `a` is DUT variant 1, plane `b`
//! variant 2, and the policy's control-taint gates see cross-instance
//! differences immediately.
//!
//! Each cycle has two phases: [`NetlistSim::eval_comb`] settles the
//! combinational cells, then the clock edge commits every register at
//! once, then every memory write port.
//!
//! * **Compile.** [`NetlistSim::try_new`] validates the netlist once and
//!   lowers it. The combinational cells become a flat op tape with dense
//!   `u32` operands; the cells are already in SSA order, so the tape runs
//!   front to back with no levelization. The connected registers become a
//!   `(q, d, en, module)` list and the write ports a `(mem, wen, addr,
//!   data)` list. Every phase runs one loop monomorphised per IFT mode, so
//!   the policy's mode checks fold away instead of running per cell.
//! * **Census.** Register modules get dense ids in first-seen order. The
//!   clock edge computes all next states into a reused buffer, then
//!   commits them, adjusting a module's tainted-register count whenever
//!   one of its registers gains or loses taint. [`NetlistSim::census`]
//!   reads those counts, then scans each memory's taint plane.
//! * **Reset.** [`NetlistSim::reset`] restores the initial state in place
//!   (registers at their init values, all other signals, memories and
//!   inputs zero, cycle 0) in any mode, so one compiled simulator serves
//!   every run of a campaign.
//! * **Checkpoint.** [`NetlistSim::save`] copies the sequential state
//!   into a reusable [`SimState`]: every register, every memory (through
//!   [`TMem`]'s buffer-reusing `clone_from`), the per-module taint
//!   counts, the inputs, the cycle and the IFT mode.
//!   [`NetlistSim::restore`] copies it back. Combinational values are not
//!   saved, because the next [`NetlistSim::eval_comb`] recomputes every
//!   one of them: a tape op reads only constants, inputs, memories,
//!   registers and cells earlier on the tape. Between a restore and that
//!   evaluation they read stale, left over from whatever the simulator
//!   evaluated last, and so do [`NetlistSim::signal`], the outputs and
//!   the liveness bits of [`NetlistSim::sink_reports`].

use std::collections::HashMap;

use dejavuzz_ift::{Census, IftMode, Policy, SinkReport, TMem, TWord};

use crate::ir::{CellKind, Netlist, NetlistError, SignalId};

/// One combinational cell, lowered: the operands are dense signal
/// indices, in [`CellKind`]'s order. The tape pairs each op with the
/// signal it drives.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A constant, split into low and high halves to keep ops 4-byte
    /// aligned.
    Const(u32, u32),
    Input(u32),
    And(u32, u32),
    Or(u32, u32),
    Xor(u32, u32),
    Not(u32),
    Add(u32, u32),
    Sub(u32, u32),
    Eq(u32, u32),
    Lt(u32, u32),
    Mux(u32, u32, u32),
    MemRead(u32, u32),
}

/// A connected register: its output `q`, next-state inputs and module id.
#[derive(Clone, Copy, Debug)]
struct RegEdge {
    q: u32,
    d: u32,
    en: Option<u32>,
    module: u32,
}

/// A memory write port.
#[derive(Clone, Copy, Debug)]
struct WritePort {
    mem: u32,
    wen: u32,
    addr: u32,
    data: u32,
}

/// Everything [`NetlistSim`] precomputes from a validated netlist.
#[derive(Clone, Debug, Default)]
struct Program {
    /// The combinational cells in SSA order, each with its signal.
    tape: Vec<(u32, Op)>,
    /// Registers with a `d` connection (unconnected ones hold forever).
    edges: Vec<RegEdge>,
    /// Every register, connected or not: the signals a [`SimState`] saves.
    regs: Vec<u32>,
    /// Every register with a non-zero initial value.
    inits: Vec<(u32, u64)>,
    writes: Vec<WritePort>,
    /// Register modules in first-seen order.
    modules: Vec<&'static str>,
    /// Registers per module.
    totals: Vec<usize>,
    /// Input ports the netlist declares.
    inputs: usize,
}

impl Program {
    /// Lowers a netlist that passed [`Netlist::validate`], which bounds
    /// every index by `u32::MAX`.
    fn compile(netlist: &Netlist) -> Program {
        let ix = |s: SignalId| s as u32;
        let mut p = Program {
            inputs: netlist.input_count(),
            ..Program::default()
        };
        let mut module_ids: HashMap<&'static str, u32> = HashMap::new();
        for (i, cell) in netlist.cells.iter().enumerate() {
            let dst = ix(i);
            let op = match cell.kind {
                CellKind::Const(v) => Op::Const(v as u32, (v >> 32) as u32),
                CellKind::Input(port) => Op::Input(ix(port)),
                CellKind::And(a, b) => Op::And(ix(a), ix(b)),
                CellKind::Or(a, b) => Op::Or(ix(a), ix(b)),
                CellKind::Xor(a, b) => Op::Xor(ix(a), ix(b)),
                CellKind::Not(a) => Op::Not(ix(a)),
                CellKind::Add(a, b) => Op::Add(ix(a), ix(b)),
                CellKind::Sub(a, b) => Op::Sub(ix(a), ix(b)),
                CellKind::Eq(a, b) => Op::Eq(ix(a), ix(b)),
                CellKind::Lt(a, b) => Op::Lt(ix(a), ix(b)),
                CellKind::Mux {
                    sel,
                    then_v,
                    else_v,
                } => Op::Mux(ix(sel), ix(then_v), ix(else_v)),
                CellKind::MemRead { mem, addr } => Op::MemRead(ix(mem.0), ix(addr)),
                CellKind::Reg { d, en, init } => {
                    let module = *module_ids.entry(cell.module).or_insert_with(|| {
                        p.modules.push(cell.module);
                        p.totals.push(0);
                        (p.modules.len() - 1) as u32
                    });
                    p.totals[module as usize] += 1;
                    p.regs.push(dst);
                    if init != 0 {
                        p.inits.push((dst, init));
                    }
                    if let Some(d) = d {
                        p.edges.push(RegEdge {
                            q: dst,
                            d: ix(d),
                            en: en.map(ix),
                            module,
                        });
                    }
                    continue; // a register holds Q through the comb phase
                }
            };
            p.tape.push((dst, op));
        }
        p.writes = netlist
            .mems
            .iter()
            .enumerate()
            .filter_map(|(m, decl)| {
                let (wen, addr, data) = decl.write_port?;
                Some(WritePort {
                    mem: ix(m),
                    wen: ix(wen),
                    addr: ix(addr),
                    data: ix(data),
                })
            })
            .collect();
        p
    }
}

/// An IFT mode fixed at compile time, so each phase loop is
/// monomorphised with the policy's mode checks folded away.
trait Regime {
    const POLICY: Policy;

    /// Data-flow cells always compute taint; Base mode strips it.
    #[inline(always)]
    fn data(w: TWord) -> TWord {
        if Self::POLICY.mode() == IftMode::Base {
            w.untainted()
        } else {
            w
        }
    }
}

struct BaseRegime;
struct CellIftRegime;
struct DiffIftRegime;

impl Regime for BaseRegime {
    const POLICY: Policy = Policy::new(IftMode::Base);
}

impl Regime for CellIftRegime {
    const POLICY: Policy = Policy::new(IftMode::CellIft);
}

impl Regime for DiffIftRegime {
    const POLICY: Policy = Policy::new(IftMode::DiffIft);
}

/// A saved copy of a [`NetlistSim`]'s sequential state; see
/// [`NetlistSim::save`]. Saving into the same `SimState` again reuses its
/// buffers, so one state can be overwritten any number of times without
/// allocating.
#[derive(Clone, Debug, Default)]
pub struct SimState {
    /// Register values, in the compiled program's register order.
    regs: Vec<TWord>,
    mems: Vec<TMem>,
    tainted: Vec<usize>,
    inputs: Vec<TWord>,
    cycle: u64,
    mode: IftMode,
}

impl SimState {
    /// The cycle count at which the state was saved.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The IFT mode the state was saved in.
    pub fn mode(&self) -> IftMode {
        self.mode
    }
}

/// Simulates a netlist cycle by cycle.
#[derive(Clone, Debug)]
pub struct NetlistSim {
    netlist: Netlist,
    program: Program,
    policy: Policy,
    values: Vec<TWord>,
    /// The clock edge's next-state buffer, one slot per [`RegEdge`].
    next: Vec<TWord>,
    /// Tainted registers per module, kept current by every register write.
    tainted: Vec<usize>,
    mems: Vec<TMem>,
    inputs: Vec<TWord>,
    cycle: u64,
}

impl NetlistSim {
    /// Creates a simulator in the given IFT mode.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails [`Netlist::validate`]. Backend-style
    /// callers that must survive a bad netlist use
    /// [`NetlistSim::try_new`].
    pub fn new(netlist: Netlist, mode: IftMode) -> Self {
        Self::try_new(netlist, mode).unwrap_or_else(|e| panic!("invalid netlist ({e})"))
    }

    /// Validates and compiles the netlist into a simulator, returning the
    /// offending cell or memory instead of panicking when the netlist
    /// fails [`Netlist::validate`].
    pub fn try_new(netlist: Netlist, mode: IftMode) -> Result<Self, NetlistError> {
        netlist.validate()?;
        let program = Program::compile(&netlist);
        let mut sim = NetlistSim {
            values: vec![TWord::lit(0); netlist.cells.len()],
            next: Vec::with_capacity(program.edges.len()),
            tainted: vec![0; program.modules.len()],
            mems: netlist.mems.iter().map(|m| TMem::new(m.words)).collect(),
            inputs: vec![TWord::lit(0); program.inputs],
            netlist,
            program,
            policy: Policy::new(mode),
            cycle: 0,
        };
        sim.reset(mode);
        Ok(sim)
    }

    /// Restores the state [`NetlistSim::try_new`] starts from, in place
    /// and in `mode`: registers at their initial values, every other
    /// signal, memory slot and input zero, cycle 0. The compiled program
    /// is kept, so a simulator serves any number of runs.
    pub fn reset(&mut self, mode: IftMode) {
        self.policy = Policy::new(mode);
        self.values.fill(TWord::lit(0));
        for &(q, init) in &self.program.inits {
            self.values[q as usize] = TWord::lit(init);
        }
        self.tainted.fill(0);
        self.mems.iter_mut().for_each(TMem::reset);
        self.inputs.clear();
        self.inputs.resize(self.program.inputs, TWord::lit(0));
        self.cycle = 0;
    }

    /// Copies the sequential state into `state`, overwriting it in place:
    /// every register, every memory, the per-module taint counts, the
    /// inputs, the cycle and the IFT mode. Combinational values are left
    /// out; see [`NetlistSim::restore`].
    pub fn save(&self, state: &mut SimState) {
        state.regs.clear();
        let regs = self.program.regs.iter().map(|&q| self.values[q as usize]);
        state.regs.extend(regs);
        state.mems.clone_from(&self.mems);
        state.tainted.clone_from(&self.tainted);
        state.inputs.clone_from(&self.inputs);
        state.cycle = self.cycle;
        state.mode = self.policy.mode();
    }

    /// Returns to a state [`NetlistSim::save`] took from a simulator of
    /// the same netlist. Combinational signals are stale until the next
    /// [`NetlistSim::eval_comb`] or [`NetlistSim::step`] recomputes them
    /// from the restored state, so evaluate at least once before reading
    /// a signal, an output or [`NetlistSim::sink_reports`].
    ///
    /// # Panics
    ///
    /// Panics if `state` does not match this netlist's registers and
    /// memories (it was saved from another netlist, or never saved).
    pub fn restore(&mut self, state: &SimState) {
        let fits = state.regs.len() == self.program.regs.len()
            && state.mems.len() == self.mems.len()
            && state
                .mems
                .iter()
                .zip(&self.mems)
                .all(|(s, m)| s.len() == m.len());
        assert!(fits, "state was not saved from this netlist");
        for (&q, &w) in self.program.regs.iter().zip(&state.regs) {
            self.values[q as usize] = w;
        }
        self.mems.clone_from(&state.mems);
        self.tainted.clone_from(&state.tainted);
        self.inputs.clone_from(&state.inputs);
        self.cycle = state.cycle;
        self.policy = Policy::new(state.mode);
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Number of input ports the netlist declares.
    pub fn input_count(&self) -> usize {
        self.program.inputs
    }

    /// The IFT mode in force.
    pub fn mode(&self) -> IftMode {
        self.policy.mode()
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Drives input port `index` for subsequent cycles.
    pub fn set_input(&mut self, index: usize, v: TWord) {
        if index >= self.inputs.len() {
            self.inputs.resize(index + 1, TWord::lit(0));
        }
        self.inputs[index] = v;
    }

    /// Reads the current value of a signal.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range signal; see [`NetlistSim::try_signal`].
    pub fn signal(&self, sig: usize) -> TWord {
        self.values[sig]
    }

    /// Reads the current value of a signal, or `None` if it is out of
    /// range — the non-panicking accessor backend boundaries use.
    pub fn try_signal(&self, sig: usize) -> Option<TWord> {
        self.values.get(sig).copied()
    }

    /// Reads a named output.
    ///
    /// # Panics
    ///
    /// Panics if the output does not exist; see
    /// [`NetlistSim::try_output`].
    pub fn output(&self, name: &str) -> TWord {
        self.try_output(name)
            .unwrap_or_else(|| panic!("no output named {name:?}"))
    }

    /// Reads a named output, or `None` if no such output exists.
    pub fn try_output(&self, name: &str) -> Option<TWord> {
        self.netlist
            .output(name)
            .and_then(|sig| self.try_signal(sig))
    }

    /// Testbench access to a memory slot.
    ///
    /// # Panics
    ///
    /// Panics on a bad memory index or slot; see
    /// [`NetlistSim::try_mem_peek`].
    pub fn mem_peek(&self, mem: usize, idx: usize) -> TWord {
        self.mems[mem].peek(idx)
    }

    /// Testbench access to a memory slot, or `None` when either index is
    /// out of range.
    pub fn try_mem_peek(&self, mem: usize, idx: usize) -> Option<TWord> {
        let m = self.mems.get(mem)?;
        if idx < m.len() {
            Some(m.peek(idx))
        } else {
            None
        }
    }

    /// Testbench store to a memory slot (image loading, secret planting).
    pub fn mem_poke(&mut self, mem: usize, idx: usize, w: TWord) {
        self.mems[mem].poke(idx, w);
    }

    /// Directly taints a register (marks it as holding sensitive data).
    pub fn taint_reg(&mut self, sig: usize) {
        let cell = &self.netlist.cells[sig];
        assert!(
            cell.kind.is_sequential(),
            "taint_reg target must be a register"
        );
        if !self.values[sig].is_tainted() {
            let module = self.program.modules.iter().position(|m| *m == cell.module);
            self.tainted[module.expect("every register has a module id")] += 1;
        }
        self.values[sig] = self.values[sig].fully_tainted();
    }

    /// Evaluates combinational logic, then advances the clock one edge.
    pub fn step(&mut self) {
        self.eval_comb();
        match self.policy.mode() {
            IftMode::Base => self.clock_edge::<BaseRegime>(),
            IftMode::CellIft => self.clock_edge::<CellIftRegime>(),
            IftMode::DiffIft => self.clock_edge::<DiffIftRegime>(),
        }
        self.cycle += 1;
    }

    /// Evaluates combinational logic without clocking (for inspecting
    /// same-cycle outputs).
    pub fn eval_comb(&mut self) {
        match self.policy.mode() {
            IftMode::Base => self.run_tape::<BaseRegime>(),
            IftMode::CellIft => self.run_tape::<CellIftRegime>(),
            IftMode::DiffIft => self.run_tape::<DiffIftRegime>(),
        }
    }

    fn run_tape<R: Regime>(&mut self) {
        let p = R::POLICY;
        let v = &mut self.values;
        for &(dst, op) in &self.program.tape {
            let x = |i: u32| v[i as usize];
            v[dst as usize] = match op {
                Op::Const(lo, hi) => TWord::lit((hi as u64) << 32 | lo as u64),
                Op::Input(port) => self.inputs[port as usize],
                Op::And(a, b) => R::data(x(a).and(x(b))),
                Op::Or(a, b) => R::data(x(a).or(x(b))),
                Op::Xor(a, b) => R::data(x(a).xor(x(b))),
                Op::Not(a) => R::data(x(a).not()),
                Op::Add(a, b) => R::data(x(a).add(x(b))),
                Op::Sub(a, b) => R::data(x(a).sub(x(b))),
                Op::Eq(a, b) => p.eq(x(a), x(b)),
                Op::Lt(a, b) => p.lt(x(a), x(b)),
                Op::Mux(sel, then_v, else_v) => p.mux(x(sel), x(then_v), x(else_v)),
                Op::MemRead(mem, addr) => self.mems[mem as usize].read(p, x(addr)),
            };
        }
    }

    /// Registers: compute all next states, then commit (no intra-cycle
    /// ordering artefacts), keeping the census counts current. Write ports
    /// then see the committed register values.
    fn clock_edge<R: Regime>(&mut self) {
        let p = R::POLICY;
        let v = &mut self.values;
        self.next.clear();
        for r in &self.program.edges {
            let d = v[r.d as usize];
            self.next.push(match r.en {
                Some(en) => p.reg_en(v[en as usize], d, v[r.q as usize]),
                None => R::data(d),
            });
        }
        for (r, &nv) in self.program.edges.iter().zip(&self.next) {
            let q = &mut v[r.q as usize];
            match (q.is_tainted(), nv.is_tainted()) {
                (false, true) => self.tainted[r.module as usize] += 1,
                (true, false) => self.tainted[r.module as usize] -= 1,
                _ => {}
            }
            *q = nv;
        }
        for w in &self.program.writes {
            let (wen, addr, data) = (v[w.wen as usize], v[w.addr as usize], v[w.data as usize]);
            self.mems[w.mem as usize].write(p, wen, addr, data);
        }
    }

    /// Taint census over all registers and memory slots, grouped by module:
    /// register modules in first-seen order, then one entry per memory.
    pub fn census(&self) -> Census {
        let mut census = Census::new();
        self.census_into(&mut census);
        census
    }

    /// Refills `census` with [`NetlistSim::census`], reusing its buffer.
    pub fn census_into(&self, census: &mut Census) {
        census.clear();
        let regs = self.program.modules.iter().zip(&self.program.totals);
        for ((module, &total), &tainted) in regs.zip(&self.tainted) {
            census.report_counts(module, tainted, total);
        }
        for (decl, mem) in self.netlist.mems.iter().zip(&self.mems) {
            census.report_counts(decl.module, mem.tainted_slots(), mem.len());
        }
    }

    /// Sweeps all `liveness_mask`-annotated memories, producing sink
    /// reports for tainted slots (§4.3.2). Slots beyond the liveness vector
    /// are treated as always-live (unannotated sinks stay conservative).
    pub fn sink_reports(&self) -> Vec<SinkReport> {
        let mut out = Vec::new();
        for (mi, m) in self.netlist.mems.iter().enumerate() {
            let mem = &self.mems[mi];
            for idx in 0..mem.len() {
                let t = mem.peek(idx).t;
                if t == 0 {
                    continue;
                }
                let live = match m.liveness.get(idx) {
                    Some(&sig) => self.values[sig].either(),
                    None => true,
                };
                out.push(SinkReport {
                    module: m.module,
                    array: m.name.clone().unwrap_or_else(|| format!("mem{mi}")),
                    index: idx,
                    taint: t,
                    live,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn counter_counts() {
        let mut b = NetlistBuilder::new();
        let r = b.reg(0);
        let one = b.constant(1);
        let next = b.add(r, one);
        b.connect_reg(r, next, None);
        b.output("count", r);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        for _ in 0..5 {
            sim.step();
        }
        assert_eq!(sim.output("count").a, 5);
        assert_eq!(sim.cycle(), 5);
    }

    #[test]
    fn enabled_register_holds_without_enable() {
        let mut b = NetlistBuilder::new();
        let r = b.reg(3);
        let d = b.input(0);
        let en = b.input(1);
        b.connect_reg(r, d, Some(en));
        b.output("q", r);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        sim.set_input(0, TWord::lit(9));
        sim.set_input(1, TWord::lit(0));
        sim.step();
        assert_eq!(sim.output("q").a, 3, "disabled register holds");
        sim.set_input(1, TWord::lit(1));
        sim.step();
        assert_eq!(sim.output("q").a, 9, "enabled register loads");
    }

    #[test]
    fn taint_flows_through_comb_logic() {
        let mut b = NetlistBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let s = b.xor(x, y);
        b.output("s", s);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        sim.set_input(0, TWord::secret(1, 2));
        sim.set_input(1, TWord::lit(4));
        sim.eval_comb();
        assert!(sim.output("s").is_tainted());
        assert_eq!(sim.output("s").a, 5);
        assert_eq!(sim.output("s").b, 6);
    }

    #[test]
    fn base_mode_strips_taint() {
        let mut b = NetlistBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let s = b.add(x, y);
        b.output("s", s);
        let mut sim = NetlistSim::new(b.finish(), IftMode::Base);
        sim.set_input(0, TWord::secret(1, 2));
        sim.set_input(1, TWord::lit(4));
        sim.eval_comb();
        assert!(!sim.output("s").is_tainted());
    }

    #[test]
    fn memory_write_then_read() {
        let mut b = NetlistBuilder::new();
        let m = b.mem(8, "buf");
        let wen = b.input(0);
        let addr = b.input(1);
        let data = b.input(2);
        b.connect_mem_write(m, wen, addr, data);
        let rd = b.mem_read(m, addr);
        b.output("rd", rd);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        sim.set_input(0, TWord::lit(1));
        sim.set_input(1, TWord::lit(5));
        sim.set_input(2, TWord::lit(77));
        sim.step(); // write at edge
        sim.set_input(0, TWord::lit(0));
        sim.eval_comb();
        assert_eq!(sim.output("rd").a, 77);
        assert_eq!(sim.mem_peek(0, 5).a, 77);
    }

    #[test]
    fn census_groups_by_module() {
        let mut b = NetlistBuilder::new();
        b.module("rob");
        let r1 = b.reg(0);
        b.module("lsu");
        let r2 = b.reg(0);
        let c = b.constant(0);
        b.connect_reg(r1, c, None);
        b.connect_reg(r2, c, None);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        sim.taint_reg(r2);
        let census = sim.census();
        assert_eq!(census.module_tainted("rob"), Some(0));
        assert_eq!(census.module_tainted("lsu"), Some(1));
        assert_eq!(census.taint_sum(), 1);
    }

    #[test]
    fn sink_reports_respect_liveness() {
        let mut b = NetlistBuilder::new();
        let m = b.mem(2, "lb");
        let live0 = b.input(0);
        let live1 = b.input(1);
        b.liveness_mask(m, vec![live0, live1]);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        sim.mem_poke(0, 0, TWord::secret(1, 2));
        sim.mem_poke(0, 1, TWord::secret(3, 4));
        sim.set_input(0, TWord::lit(1)); // slot 0 live
        sim.set_input(1, TWord::lit(0)); // slot 1 dead
        sim.eval_comb();
        let reports = sim.sink_reports();
        assert_eq!(reports.len(), 2);
        assert!(reports[0].exploitable());
        assert!(reports[1].residue());
    }

    #[test]
    #[should_panic(expected = "no output named")]
    fn missing_output_panics() {
        let b = NetlistBuilder::new();
        let sim = NetlistSim::new(b.finish(), IftMode::Base);
        sim.output("nope");
    }

    #[test]
    fn try_accessors_return_none_instead_of_panicking() {
        let mut b = NetlistBuilder::new();
        let m = b.mem(4, "buf");
        let r = b.reg(7);
        let c = b.constant(0);
        b.connect_reg(r, c, None);
        b.output("q", r);
        let _ = m;
        let sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        assert_eq!(sim.try_output("q").map(|w| w.a), Some(7));
        assert!(sim.try_output("nope").is_none());
        assert!(sim.try_signal(0).is_some());
        assert!(sim.try_signal(999).is_none());
        assert!(sim.try_mem_peek(0, 3).is_some());
        assert!(sim.try_mem_peek(0, 4).is_none(), "slot out of range");
        assert!(sim.try_mem_peek(5, 0).is_none(), "mem out of range");
    }

    #[test]
    fn try_new_reports_offending_cell() {
        use crate::ir::{Cell, CellKind, Netlist};
        let bad = Netlist {
            cells: vec![
                Cell {
                    kind: CellKind::Not(1),
                    name: None,
                    module: "top",
                },
                Cell {
                    kind: CellKind::Const(0),
                    name: None,
                    module: "top",
                },
            ],
            mems: vec![],
            outputs: vec![],
        };
        assert_eq!(
            NetlistSim::try_new(bad, IftMode::Base).err(),
            Some(NetlistError::Cell(0))
        );

        // A memory with no words used to validate, then panic on `% 0`
        // in the first step that read it.
        let mut b = NetlistBuilder::new();
        let m = b.mem(4, "buf");
        let addr = b.input(0);
        b.mem_read(m, addr);
        let mut empty = b.finish();
        empty.mems[0].words = 0;
        assert_eq!(
            NetlistSim::try_new(empty, IftMode::DiffIft).err(),
            Some(NetlistError::Mem(m))
        );
    }

    #[test]
    fn census_counts_follow_register_writes() {
        let mut b = NetlistBuilder::new();
        b.module("rob");
        let r1 = b.reg(0);
        let r2 = b.reg(0);
        let x = b.input(0);
        b.connect_reg(r1, x, None);
        b.connect_reg(r2, r1, None);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        let tainted = |sim: &NetlistSim| sim.census().module_tainted("rob");
        sim.set_input(0, TWord::secret(1, 2));
        sim.step();
        assert_eq!(tainted(&sim), Some(1), "the secret reaches r1");
        sim.set_input(0, TWord::lit(0));
        sim.step();
        assert_eq!(tainted(&sim), Some(1), "r1 clears as r2 picks it up");
        sim.step();
        assert_eq!(tainted(&sim), Some(0), "both clean again");
        sim.taint_reg(r2);
        sim.taint_reg(r2);
        assert_eq!(tainted(&sim), Some(1), "re-tainting counts once");
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let mut b = NetlistBuilder::new();
        let m = b.mem(4, "buf");
        let r = b.reg(7);
        let wen = b.input(0);
        let addr = b.input(1);
        let data = b.input(2);
        b.connect_reg(r, data, None);
        b.connect_mem_write(m, wen, addr, data);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        sim.set_input(0, TWord::lit(1));
        sim.set_input(1, TWord::lit(2));
        sim.set_input(2, TWord::secret(5, 6));
        sim.set_input(9, TWord::lit(1));
        sim.step();
        sim.reset(IftMode::Base);
        assert_eq!(sim.mode(), IftMode::Base);
        assert_eq!(sim.cycle(), 0);
        assert_eq!(sim.signal(r), TWord::lit(7));
        assert_eq!(sim.mem_peek(0, 2), TWord::lit(0));
        assert_eq!(sim.census().taint_sum(), 0);
        assert_eq!(sim.input_count(), 3);
        sim.eval_comb();
        assert_eq!(sim.signal(data), TWord::lit(0), "inputs are undriven");
    }

    #[test]
    fn restore_returns_to_the_saved_state() {
        let mut b = NetlistBuilder::new();
        b.module("rob");
        let m = b.mem(4, "buf");
        let r = b.reg(7);
        let held = b.reg(4); // unconnected: only the testbench changes it
        let wen = b.input(0);
        let addr = b.input(1);
        let data = b.input(2);
        b.connect_reg(r, data, None);
        b.connect_mem_write(m, wen, addr, data);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        sim.set_input(0, TWord::lit(1));
        sim.set_input(1, TWord::lit(2));
        sim.set_input(2, TWord::secret(5, 6));
        sim.step();
        let mut state = SimState::default();
        sim.save(&mut state);
        let census = sim.census();

        sim.set_input(1, TWord::lit(3));
        sim.set_input(2, TWord::lit(9));
        sim.step();
        sim.reset(IftMode::Base);
        sim.taint_reg(held);
        sim.restore(&state);
        assert_eq!((sim.cycle(), sim.mode()), (1, IftMode::DiffIft));
        assert_eq!(sim.signal(r), TWord::secret(5, 6));
        assert_eq!(sim.signal(held), TWord::lit(4));
        assert_eq!(sim.mem_peek(0, 2), TWord::secret(5, 6));
        assert_eq!(sim.mem_peek(0, 3), TWord::lit(0));
        assert_eq!(sim.census(), census);
        sim.eval_comb();
        assert_eq!(sim.signal(data), TWord::secret(5, 6), "inputs are restored");
    }

    #[test]
    #[should_panic(expected = "not saved from this netlist")]
    fn restore_rejects_a_foreign_state() {
        let mut b = NetlistBuilder::new();
        let r = b.reg(0);
        let c = b.constant(0);
        b.connect_reg(r, c, None);
        let mut sim = NetlistSim::new(b.finish(), IftMode::DiffIft);
        sim.restore(&SimState::default());
    }
}
