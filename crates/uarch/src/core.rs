//! The out-of-order core model.
//!
//! A cycle-level speculative engine: instructions are fetched down the
//! *predicted* path, executed immediately against a speculative register
//! file (so wrong-path data effects — cache pollution, predictor updates,
//! buffer residue — happen exactly as on the RTL), and timed with per-unit
//! latencies. Mispredictions redirect at their resolve cycle and squash
//! younger entries by restoring checkpointed state; exceptions trap at
//! commit. All values are two-plane [`TWord`]s flowing through the
//! [`Policy`] operators, so CellIFT / diffIFT taint behaviour comes out of
//! the same simulation that produces the timing observables.
//!
//! ## Structural clock and plane-2 skew
//!
//! Event *ordering* (fetch, squash, commit) follows variant 1's timing; the
//! model accumulates a signed `skew_b` whenever an event's latency differs
//! between the variants (cache hit vs miss, port contention). Since the
//! committed paths of the two variants are identical programs, any non-zero
//! skew traces back to secret-dependent microarchitectural divergence —
//! which is precisely what Phase 3's constant-time analysis looks for.

use dejavuzz_ift::{Census, IftMode, Policy, SinkReport, TWord, TaintLog};
use dejavuzz_isa::instr::{AluOp, Instr, Reg};
use dejavuzz_isa::{decode, Exception};
use dejavuzz_swapmem::{SwapMem, TrapAction};

use crate::cache::{Cache, LineFillBuffer, Tlb};
use crate::config::CoreConfig;
use crate::predict::{Bht, Btb, LoopPredictor, Ras, RasCheckpoint};
use crate::trace::{RobEvent, Trace, WindowInfo};

/// Execution unit classes (port/latency selection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Single-cycle integer ALU.
    Alu,
    /// Multi-cycle integer multiply/divide.
    MulDiv,
    /// Floating-point unit (one port; `fdiv` occupies it for a long time).
    Fpu,
    /// Load/store unit.
    Lsu,
    /// Control transfer.
    Branch,
    /// System (ecall/ebreak/fence/illegal).
    Sys,
}

/// Why a redirect (squash) was scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedirectKind {
    /// Conditional branch direction mispredicted.
    Branch,
    /// Indirect jump target mispredicted (BTB).
    IndirectJump,
    /// Return address mispredicted (RAS).
    Return,
    /// Memory disambiguation violation (load bypassed a conflicting older
    /// store).
    Disambiguation,
}

impl RedirectKind {
    /// Mnemonic used by reports (Table 3 / Table 5 window types).
    pub fn mnemonic(self) -> &'static str {
        match self {
            RedirectKind::Branch => "branch-mispredict",
            RedirectKind::IndirectJump => "jump-mispredict",
            RedirectKind::Return => "return-mispredict",
            RedirectKind::Disambiguation => "mem-disambiguation",
        }
    }
}

/// A scheduled control-flow correction.
#[derive(Clone, Debug)]
struct Redirect {
    kind: RedirectKind,
    resolve_at: u64,
    /// Correct continuation (two-plane; transient secrets can diverge it).
    target: TWord,
    /// Resolved branch outcome for predictor training.
    taken: Option<TWord>,
}

/// Snapshot for squash recovery.
#[derive(Clone, Debug)]
struct Snapshot {
    regs: [TWord; 32],
    fregs: [TWord; 32],
    reg_ready: [u64; 32],
    freg_ready: [u64; 32],
    ras: RasCheckpoint,
}

/// A pending (uncommitted) store carried by a RoB entry.
#[derive(Clone, Copy, Debug)]
struct PendingStore {
    addr: TWord,
    size: u64,
    data: TWord,
    /// Cycle the store address/data become known to the LSU.
    resolve_at: u64,
}

/// One reorder-buffer entry (append-only per run; `head` walks forward).
#[derive(Clone, Debug)]
struct RobEntry {
    pc: TWord,
    instr: Instr,
    packet: usize,
    unit: Unit,
    done_at: u64,
    exception: Option<Exception>,
    squashed: bool,
    committed: bool,
    /// Destination result (census/sink inspection).
    result: TWord,
    store: Option<PendingStore>,
    redirect: Option<Redirect>,
    snapshot: Option<Box<Snapshot>>,
}

impl RobEntry {
    /// Neither squashed nor committed.
    fn in_flight(&self) -> bool {
        !self.squashed && !self.committed
    }

    /// A store's address and data taint; `None` for any other entry.
    fn store_taint(&self) -> Option<u64> {
        self.store.map(|s| s.data.t | s.addr.t)
    }
}

/// Counts over the in-flight RoB entries, kept current where entries
/// enter and leave flight so neither the fetch stage nor the census has
/// to scan the RoB for them: the entries, those with a tainted result,
/// the stores and those with a tainted address or data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct InFlight {
    entries: usize,
    tainted: usize,
    stores: usize,
    tainted_stores: usize,
}

impl InFlight {
    /// The counts a scan of `rob` finds.
    fn scan(rob: &[RobEntry]) -> InFlight {
        let mut counts = InFlight::default();
        for e in rob.iter().filter(|e| e.in_flight()) {
            counts.enter(e);
        }
        counts
    }

    /// Counts `e` into flight.
    fn enter(&mut self, e: &RobEntry) {
        self.entries += 1;
        self.tainted += usize::from(e.result.t != 0);
        if let Some(t) = e.store_taint() {
            self.stores += 1;
            self.tainted_stores += usize::from(t != 0);
        }
    }

    /// Counts `e` out of flight.
    fn leave(&mut self, e: &RobEntry) {
        self.entries -= 1;
        self.tainted -= usize::from(e.result.t != 0);
        if let Some(t) = e.store_taint() {
            self.stores -= 1;
            self.tainted_stores -= usize::from(t != 0);
        }
    }
}

/// A divergent-latency observation on a contended resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingEvent {
    /// Structural cycle of the access.
    pub cycle: u64,
    /// The contended resource (Table 5's "encoded timing component").
    pub resource: &'static str,
    /// Plane-1 stall cycles.
    pub wait_a: u64,
    /// Plane-2 stall cycles.
    pub wait_b: u64,
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EndReason {
    /// The swap schedule completed.
    Done,
    /// The cycle budget ran out (hang / runaway stimulus).
    CycleLimit,
}

/// Everything a fuzzing phase needs to know about one simulation.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// RoB IO events.
    pub trace: Trace,
    /// Per-cycle taint census (empty in `Base` mode).
    pub taint_log: TaintLog,
    /// Final-state tainted-sink sweep with liveness bits.
    pub sinks: Vec<SinkReport>,
    /// Divergent contention observations.
    pub timing_events: Vec<TimingEvent>,
    /// Total cycles, per plane.
    pub total_cycles: (u64, u64),
    /// Final-state hash of the timing components, per plane — the oracle
    /// SpecDoctor compares across variants ("hashing the final state of the
    /// timing components after transient execution").
    pub uarch_hash: (u64, u64),
    /// Why the run ended.
    pub end: EndReason,
    /// Number of packets that ran.
    pub packets_run: usize,
}

impl RunResult {
    /// The transient window of the last packet that produced one.
    pub fn window(&self) -> Option<WindowInfo> {
        self.trace.last_window()
    }

    /// The transient window inside a specific packet.
    pub fn window_in_packet(&self, packet: usize) -> Option<WindowInfo> {
        self.trace.window_in_packet(packet)
    }

    /// Phase 3.1: did the variants take different time overall?
    pub fn timing_diverged(&self) -> bool {
        self.total_cycles.0 != self.total_cycles.1
    }

    /// Sinks that are tainted *and* live (§4.3.2 exploitable leakages).
    pub fn exploitable_sinks(&self) -> Vec<&SinkReport> {
        self.sinks.iter().filter(|s| s.exploitable()).collect()
    }

    /// Tainted-but-dead residue (the false-positive class liveness rejects).
    pub fn residue_sinks(&self) -> Vec<&SinkReport> {
        self.sinks.iter().filter(|s| s.residue()).collect()
    }
}

/// Per-plane busy-until bookkeeping for a contended port.
#[derive(Clone, Copy, Debug, Default)]
struct PortState {
    busy_a: u64,
    busy_b: i64, // in plane-2 virtual time
}

/// The core model.
#[derive(Clone, Debug)]
pub struct Core {
    cfg: CoreConfig,
    policy: Policy,

    pc: TWord,
    cycle: u64,
    skew_b: i64,
    fetch_stall_until: u64,

    bht: Bht,
    btb: Btb,
    ras: Ras,
    loopp: LoopPredictor,
    icache: Cache,
    dcache: Cache,
    lfb: LineFillBuffer,
    tlb: Tlb,

    regs: [TWord; 32],
    fregs: [TWord; 32],
    reg_ready: [u64; 32],
    freg_ready: [u64; 32],

    rob: Vec<RobEntry>,
    head: usize,
    /// Counts over `rob`'s in-flight entries, all of which sit at or
    /// after `head`.
    in_flight: InFlight,
    packet: usize,

    fpu_port: PortState,
    lsu_port: PortState,
    wb_port: PortState,

    trace: Trace,
    taint_log: TaintLog,
    /// The census buffer every cycle refills before logging it.
    census: Census,
    timing_events: Vec<TimingEvent>,
    /// Indirect-jump correction that resolved this cycle (B3 race input).
    jump_resolved_this_cycle: Option<TWord>,
    /// CellIFT taint explosion latch (§2.2): once a rollback happens with
    /// tainted RoB contents, the tail-pointer movement taints every entry
    /// field register and the design never recovers ("taint propagation
    /// policies only generate taints without eliminating them").
    cellift_exploded: bool,
    done: bool,
}

impl Core {
    /// A fresh core in the given IFT mode.
    pub fn new(cfg: CoreConfig, mode: IftMode) -> Self {
        Core {
            policy: Policy::new(mode),
            pc: TWord::lit(0),
            cycle: 0,
            skew_b: 0,
            fetch_stall_until: 0,
            bht: Bht::new(cfg.bht_entries),
            btb: Btb::new(cfg.btb_entries),
            ras: Ras::new(cfg.ras_entries, !cfg.bugs.phantom_rsb),
            loopp: LoopPredictor::new(cfg.loop_entries),
            icache: Cache::new(
                "icache",
                cfg.icache_lines,
                cfg.line_bytes,
                cfg.cache_hit_latency,
                cfg.cache_miss_latency,
            ),
            dcache: Cache::new(
                "dcache",
                cfg.dcache_lines,
                cfg.line_bytes,
                cfg.cache_hit_latency,
                cfg.cache_miss_latency,
            ),
            lfb: LineFillBuffer::new(cfg.mshr_entries),
            tlb: Tlb::new(
                cfg.tlb_entries,
                cfg.l2tlb_entries,
                cfg.page_bytes,
                cfg.tlb_miss_latency,
            ),
            regs: [TWord::lit(0); 32],
            fregs: [TWord::lit(0); 32],
            reg_ready: [0; 32],
            freg_ready: [0; 32],
            rob: Vec::new(),
            head: 0,
            in_flight: InFlight::default(),
            packet: 0,
            fpu_port: PortState::default(),
            lsu_port: PortState::default(),
            wb_port: PortState::default(),
            trace: Trace::new(),
            taint_log: TaintLog::new(),
            census: Census::new(),
            timing_events: Vec::new(),
            jump_resolved_this_cycle: None,
            cellift_exploded: false,
            cfg,
            done: false,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// The IFT mode in force.
    pub fn mode(&self) -> IftMode {
        self.policy.mode()
    }

    /// Current structural cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Runs the swap schedule already installed in `mem` to completion (or
    /// until `max_cycles`), consuming the core.
    pub fn run(mut self, mem: &mut SwapMem, max_cycles: u64) -> RunResult {
        self.start(mem);
        while !self.done && self.cycle < max_cycles {
            self.step(mem);
        }
        let end = if self.done {
            EndReason::Done
        } else {
            EndReason::CycleLimit
        };
        self.finish(end)
    }

    /// Swaps in the schedule's first packet and points fetch at it.
    fn start(&mut self, mem: &mut SwapMem) {
        let entry = mem.begin();
        if mem.take_icache_flush() {
            self.icache.flush();
        }
        self.pc = TWord::lit(entry);
    }

    fn finish(self, end: EndReason) -> RunResult {
        let sinks = self.sink_reports();
        let uarch_hash = (
            self.hash_timing_components(0),
            self.hash_timing_components(1),
        );
        RunResult {
            trace: self.trace,
            taint_log: self.taint_log,
            sinks,
            timing_events: self.timing_events,
            total_cycles: (self.cycle, (self.cycle as i64 + self.skew_b).max(0) as u64),
            uarch_hash,
            end,
            packets_run: self.packet + 1,
        }
    }

    /// Hashes one variant's view of the timing components (caches,
    /// predictors) — SpecDoctor's differential oracle.
    fn hash_timing_components(&self, plane: usize) -> u64 {
        let mut h = self.icache.hash_plane(plane) ^ self.dcache.hash_plane(plane).rotate_left(17);
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for t in self.btb.targets() {
            mix(t.plane(plane));
        }
        for s in self.ras.slots() {
            mix(s.plane(plane));
        }
        // Buffer *contents* too: stale secrets resident in the fill buffer
        // hash differently per variant even when nothing was positionally
        // encoded — exactly SpecDoctor's false-positive class (§3.1/§6.3).
        for d in self.lfb.data_plane(plane) {
            mix(d);
        }
        h
    }

    /// One structural clock cycle: resolve → commit → fetch → observe.
    fn step(&mut self, mem: &mut SwapMem) {
        self.jump_resolved_this_cycle = None;
        self.lfb.tick(self.cycle);
        self.resolve_redirects();
        self.commit(mem);
        if !self.done {
            self.fetch(mem);
        }
        if self.policy.mode().tracks_taint() {
            let mut census = std::mem::take(&mut self.census);
            self.census_into(&mut census);
            if self.policy.mode() == IftMode::CellIft {
                // CellIFT instruments at the cell (bit) level: its shadow
                // circuit evaluates 64 shadow bits per word register every
                // cycle. Pay that cost honestly so Table 4's simulation
                // rows keep the paper's shape.
                let mut bit_work = 0u64;
                for m in census.modules() {
                    for _ in 0..(m.total * 64) {
                        bit_work = bit_work.wrapping_add(0x9E37_79B9).rotate_left(7);
                    }
                }
                std::hint::black_box(bit_work);
            }
            self.taint_log.push_ref(&census);
            self.census = census;
        }
        self.cycle += 1;
    }

    // ---- resolve ----

    fn resolve_redirects(&mut self) {
        // Oldest unresolved redirect whose time has come.
        let mut idx = None;
        for i in self.head..self.rob.len() {
            let e = &self.rob[i];
            if e.squashed || e.committed {
                continue;
            }
            if let Some(r) = &e.redirect {
                if r.resolve_at <= self.cycle {
                    idx = Some(i);
                    break;
                }
            }
        }
        let Some(i) = idx else { return };
        let redirect = self.rob[i].redirect.clone().expect("checked above");
        let pc = self.rob[i].pc;
        // Train predictors with the resolved outcome.
        match redirect.kind {
            RedirectKind::Branch => {
                if let Some(taken) = redirect.taken {
                    self.bht.update(self.policy, pc.a, taken);
                    self.loopp.update(pc.a, taken);
                }
            }
            RedirectKind::IndirectJump | RedirectKind::Return => {
                self.btb.update(pc.a, redirect.target);
                if redirect.kind == RedirectKind::IndirectJump {
                    self.jump_resolved_this_cycle = Some(redirect.target);
                }
            }
            RedirectKind::Disambiguation => {}
        }
        // A disambiguation violation kills the offending load too — it is
        // re-fetched and re-executed once the conflicting store resolved.
        let include_self = redirect.kind == RedirectKind::Disambiguation;
        self.squash_after(i, redirect.target, include_self, redirect.kind.mnemonic());
        self.rob[i].redirect = None;
    }

    /// Squashes every in-flight entry younger than `i` (and `i` itself when
    /// `include_self`), restores the snapshot attached to entry `i`, and
    /// redirects fetch to `target`.
    fn squash_after(&mut self, i: usize, target: TWord, include_self: bool, cause: &'static str) {
        let start = if include_self { i } else { i + 1 };
        let snap = self.rob[i].snapshot.take();
        let mut killed = 0;
        let mut killed_taint = 0u64;
        for j in start..self.rob.len() {
            let e = &mut self.rob[j];
            if e.in_flight() {
                self.in_flight.leave(e);
                e.squashed = true;
                e.result = e.result.taint_union(TWord::lit(0)); // keep as-is
                killed_taint |= e.result.t;
                killed += 1;
            }
        }
        // §2.2: under CellIFT the rollback's tail-pointer movement is a
        // tainted control signal whenever tainted data was in flight, and
        // Policy 2 then taints every RoB entry field register (and, through
        // the frontend's shared indices, everything downstream). diffIFT's
        // cross-instance gate stays closed because both variants roll back
        // identically (the structural squash is plane-shared).
        if self.policy.mode() == IftMode::CellIft && killed_taint != 0 {
            self.cellift_exploded = true;
            for r in self.regs.iter_mut().chain(self.fregs.iter_mut()) {
                *r = r.fully_tainted();
            }
            for e in &mut self.rob {
                e.result = e.result.fully_tainted();
            }
            self.in_flight = InFlight::scan(&self.rob[self.head..]);
        }
        if let Some(snap) = snap {
            self.regs = snap.regs;
            self.fregs = snap.fregs;
            self.reg_ready = snap.reg_ready;
            self.freg_ready = snap.freg_ready;
            self.ras.restore(&snap.ras);
        }
        self.pc = target;
        // B4 Spectre-Refetch: the fetch port stays occupied by the transient
        // icache miss unless the design cancels outstanding fetches.
        if !self.cfg.bugs.refetch_contention {
            self.fetch_stall_until = self.cycle;
        }
        self.trace.push(RobEvent::Squash {
            cycle: self.cycle,
            skew_b: self.skew_b,
            after_idx: if include_self { i.saturating_sub(1) } else { i },
            killed,
            cause,
        });
    }

    // ---- commit ----

    fn commit(&mut self, mem: &mut SwapMem) {
        for _ in 0..self.cfg.commit_width {
            // Skip over squashed entries.
            while self.head < self.rob.len() && self.rob[self.head].squashed {
                self.head += 1;
            }
            if self.head >= self.rob.len() {
                return;
            }
            let i = self.head;
            if self.rob[i].done_at > self.cycle {
                return;
            }
            // An unresolved redirect blocks its own and younger commits.
            if self.rob[i].redirect.is_some() {
                return;
            }
            if let Some(e) = self.rob[i].exception {
                self.trap(mem, i, e);
                return;
            }
            // Apply the architectural store.
            if let Some(st) = self.rob[i].store {
                // Committed stores cannot fault here: faults were detected
                // at execute and recorded as exceptions.
                let _ = mem.store_t(st.addr, st.size, st.data);
            }
            self.in_flight.leave(&self.rob[i]);
            self.rob[i].committed = true;
            self.trace.push(RobEvent::Commit {
                cycle: self.cycle,
                skew_b: self.skew_b,
                idx: i,
            });
            self.head += 1;
        }
    }

    fn trap(&mut self, mem: &mut SwapMem, i: usize, cause: Exception) {
        // B3 Phantom-BTB: an indirect-jump misprediction resolving in the
        // same cycle as this exception commit updates the *excepting PC's*
        // BTB entry with the jump's correction target.
        if self.cfg.bugs.phantom_btb {
            if let Some(correction) = self.jump_resolved_this_cycle {
                self.btb.update(self.rob[i].pc.a, correction);
            }
        }
        self.trace.push(RobEvent::Trap {
            cycle: self.cycle,
            skew_b: self.skew_b,
            cause: cause.mnemonic(),
        });
        // Architectural squash of everything younger (the faulting entry's
        // snapshot holds pre-execution state, undoing forwarded values).
        let target = self.pc; // placeholder; the trap action sets the real PC
        self.squash_after(i, target, false, cause.mnemonic());
        self.in_flight.leave(&self.rob[i]);
        self.rob[i].committed = true;
        self.head = i + 1;
        match mem.handle_trap(cause) {
            TrapAction::NextPacket { entry, index } => {
                if mem.take_icache_flush() {
                    self.icache.flush();
                }
                self.pc = TWord::lit(entry);
                self.packet = index;
            }
            TrapAction::Done => {
                self.done = true;
            }
        }
    }

    // ---- fetch + speculative execute ----

    fn in_flight(&self) -> usize {
        debug_assert_eq!(self.in_flight, InFlight::scan(&self.rob[self.head..]));
        self.in_flight.entries
    }

    fn fetch(&mut self, mem: &mut SwapMem) {
        for _ in 0..self.cfg.fetch_width {
            if self.cycle < self.fetch_stall_until {
                return;
            }
            if self.in_flight() >= self.cfg.rob_entries {
                return;
            }
            let pc = self.pc;
            // Instruction cache probe (the fetch port).
            let probe = self.icache.access(pc, 0);
            if !probe.hit_a {
                self.fetch_stall_until = self.cycle + probe.lat_a;
                self.bump_skew("icache", probe.lat_a, probe.lat_b);
                return;
            } else if probe.lat_a != probe.lat_b {
                self.bump_skew("icache", probe.lat_a, probe.lat_b);
            }
            let word = match mem.fetch_t(pc) {
                Ok(w) => w,
                Err(e) => {
                    // Fetch fault: enqueue a faulting placeholder.
                    self.enqueue_exception(pc, Instr::Illegal(0), e);
                    self.pc = pc.add(TWord::lit(4));
                    continue;
                }
            };
            let instr = decode(word.a as u32);
            self.execute_and_enqueue(mem, pc, instr, word);
            if self.done {
                return;
            }
        }
    }

    fn snapshot(&self) -> Box<Snapshot> {
        Box::new(Snapshot {
            regs: self.regs,
            fregs: self.fregs,
            reg_ready: self.reg_ready,
            freg_ready: self.freg_ready,
            ras: self.ras.checkpoint(),
        })
    }

    fn enqueue_exception(&mut self, pc: TWord, instr: Instr, e: Exception) {
        let snapshot = Some(self.snapshot());
        self.push_entry(RobEntry {
            pc,
            instr,
            packet: self.packet,
            unit: Unit::Sys,
            done_at: self.cycle + self.cfg.exception_commit_delay,
            exception: Some(e),
            squashed: false,
            committed: false,
            result: TWord::lit(0),
            store: None,
            redirect: None,
            snapshot,
        });
    }

    fn push_entry(&mut self, e: RobEntry) {
        self.trace.push(RobEvent::Enq {
            cycle: self.cycle,
            skew_b: self.skew_b,
            idx: self.rob.len(),
            pc: e.pc.a,
            packet: e.packet,
        });
        self.in_flight.enter(&e);
        self.rob.push(e);
    }

    fn bump_skew(&mut self, resource: &'static str, lat_a: u64, lat_b: u64) {
        if lat_a != lat_b {
            self.skew_b += lat_b as i64 - lat_a as i64;
            self.timing_events.push(TimingEvent {
                cycle: self.cycle,
                resource,
                wait_a: lat_a,
                wait_b: lat_b,
            });
        }
    }

    /// Claims a contended port at the current cycle for `(occ_a, occ_b)`
    /// cycles, returning the per-plane waits.
    fn claim_port(
        &mut self,
        port: fn(&mut Core) -> &mut PortState,
        occ_a: u64,
        occ_b: u64,
    ) -> (u64, u64) {
        let now_a = self.cycle;
        let now_b = self.cycle as i64 + self.skew_b;
        let p = port(self);
        let wait_a = p.busy_a.saturating_sub(now_a);
        let wait_b = (p.busy_b - now_b).max(0) as u64;
        p.busy_a = now_a + wait_a + occ_a;
        p.busy_b = now_b + wait_b as i64 + occ_b as i64;
        (wait_a, wait_b)
    }

    fn reg(&self, r: Reg) -> TWord {
        if r == Reg::ZERO {
            TWord::lit(0)
        } else {
            self.regs[r.index()]
        }
    }

    fn set_reg(&mut self, r: Reg, v: TWord, ready: u64) {
        if r != Reg::ZERO {
            self.regs[r.index()] = v;
            self.reg_ready[r.index()] = ready;
        }
    }

    fn src_ready(&self, instr: Instr) -> u64 {
        let mut t = 0;
        for r in instr.sources() {
            t = t.max(self.reg_ready[r.index()]);
        }
        match instr {
            Instr::Fp { rs1, rs2, .. } => {
                t = t
                    .max(self.freg_ready[rs1.index()])
                    .max(self.freg_ready[rs2.index()]);
            }
            Instr::FStore { rs2, .. } => t = t.max(self.freg_ready[rs2.index()]),
            Instr::FmvXD { rs1, .. } => t = t.max(self.freg_ready[rs1.index()]),
            _ => {}
        }
        t
    }

    #[allow(clippy::too_many_lines)]
    fn execute_and_enqueue(&mut self, mem: &mut SwapMem, pc: TWord, instr: Instr, word: TWord) {
        let policy = self.policy;
        let issue_at = self.cycle.max(self.src_ready(instr));
        let next_pc = pc.add(TWord::lit(4));
        // Pre-execution snapshot: used for exception/disambiguation
        // recovery (state *without* this instruction's effects).
        let pre_snapshot = self.snapshot();
        // Taint the result stream if the fetched words diverge (transient
        // PC divergence fetched different code per variant).
        let instr_taint = if word.is_tainted() { u64::MAX } else { 0 };

        let mut entry = RobEntry {
            pc,
            instr,
            packet: self.packet,
            unit: Unit::Alu,
            done_at: issue_at + 1,
            exception: None,
            squashed: false,
            committed: false,
            result: TWord::lit(0),
            store: None,
            redirect: None,
            snapshot: None,
        };

        match instr {
            Instr::Lui { rd, imm } => {
                let v = TWord::with_taint(imm as u64, imm as u64, instr_taint);
                self.set_reg(rd, v, issue_at + 1);
                entry.result = v;
                self.pc = next_pc;
            }
            Instr::Auipc { rd, imm } => {
                let v = pc
                    .add(TWord::lit(imm as u64))
                    .taint_union(TWord::with_taint(0, 0, instr_taint));
                self.set_reg(rd, v, issue_at + 1);
                entry.result = v;
                self.pc = next_pc;
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let v = alu_eval(policy, op, self.reg(rs1), TWord::lit(imm as u64))
                    .taint_union(TWord::with_taint(0, 0, instr_taint));
                let lat = if op.is_muldiv() {
                    self.cfg.mul_latency
                } else {
                    1
                };
                entry.unit = if op.is_muldiv() {
                    Unit::MulDiv
                } else {
                    Unit::Alu
                };
                entry.done_at = issue_at + lat;
                self.set_reg(rd, v, entry.done_at);
                entry.result = v;
                self.pc = next_pc;
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let v = alu_eval(policy, op, self.reg(rs1), self.reg(rs2))
                    .taint_union(TWord::with_taint(0, 0, instr_taint));
                let lat = if op.is_muldiv() {
                    if matches!(
                        op,
                        AluOp::Div
                            | AluOp::Divu
                            | AluOp::Rem
                            | AluOp::Remu
                            | AluOp::DivW
                            | AluOp::DivuW
                            | AluOp::RemW
                            | AluOp::RemuW
                    ) {
                        self.cfg.div_latency
                    } else {
                        self.cfg.mul_latency
                    }
                } else {
                    1
                };
                entry.unit = if op.is_muldiv() {
                    Unit::MulDiv
                } else {
                    Unit::Alu
                };
                entry.done_at = issue_at + lat;
                self.set_reg(rd, v, entry.done_at);
                entry.result = v;
                self.pc = next_pc;
            }
            Instr::Fp { op, rd, rs1, rs2 } => {
                let x = self.fregs[rs1.index()];
                let y = self.fregs[rs2.index()];
                let v = TWord {
                    a: op.eval(x.a, y.a),
                    b: op.eval(x.b, y.b),
                    t: if (x.t | y.t | instr_taint) != 0 {
                        u64::MAX
                    } else {
                        0
                    },
                };
                let occ = if op.is_div() {
                    self.cfg.fdiv_latency
                } else {
                    self.cfg.fpu_latency
                };
                // The FPU has one port: a long divide starves later FP ops
                // (Spectre-Rewind's contention resource).
                let (wait_a, wait_b) = self.claim_port(|c| &mut c.fpu_port, occ, occ);
                if wait_a != wait_b {
                    self.bump_skew("fpu", wait_a, wait_b);
                }
                entry.unit = Unit::Fpu;
                entry.done_at = issue_at + wait_a + occ;
                self.fregs[rd.index()] = v;
                self.freg_ready[rd.index()] = entry.done_at;
                entry.result = v;
                self.pc = next_pc;
            }
            Instr::FmvDX { rd, rs1 } => {
                let v = self.reg(rs1);
                self.fregs[rd.index()] = v;
                self.freg_ready[rd.index()] = issue_at + 1;
                entry.result = v;
                self.pc = next_pc;
            }
            Instr::FmvXD { rd, rs1 } => {
                let v = self.fregs[rs1.index()];
                self.set_reg(rd, v, issue_at + 1);
                entry.result = v;
                self.pc = next_pc;
            }
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr_full = self.reg(rs1).add(TWord::lit(offset as u64));
                self.exec_load(
                    mem,
                    &mut entry,
                    issue_at,
                    addr_full,
                    op,
                    rd,
                    false,
                    instr_taint,
                );
                self.pc = next_pc;
            }
            Instr::FLoad { rd, rs1, offset } => {
                let addr_full = self.reg(rs1).add(TWord::lit(offset as u64));
                let op = dejavuzz_isa::LoadOp::Ld;
                self.exec_load(
                    mem,
                    &mut entry,
                    issue_at,
                    addr_full,
                    op,
                    rd,
                    true,
                    instr_taint,
                );
                self.pc = next_pc;
            }
            Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).add(TWord::lit(offset as u64));
                let data = self.reg(rs2);
                self.exec_store(mem, &mut entry, issue_at, addr, op.size(), data);
                self.pc = next_pc;
            }
            Instr::FStore { rs2, rs1, offset } => {
                let addr = self.reg(rs1).add(TWord::lit(offset as u64));
                let data = self.fregs[rs2.index()];
                self.exec_store(mem, &mut entry, issue_at, addr, 8, data);
                self.pc = next_pc;
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let x = self.reg(rs1);
                let y = self.reg(rs2);
                let taken = branch_eval(policy, op, x, y);
                let target_taken = pc.add(TWord::lit(offset as u64));
                // Prediction: loop predictor if confident, else bimodal.
                let (pred_a, _pred_b) = self
                    .loopp
                    .predict(pc.a)
                    .unwrap_or_else(|| self.bht.predict(pc.a));
                let actual_a = taken.a != 0;
                entry.unit = Unit::Branch;
                entry.done_at = issue_at + 1;
                let resolve_at = entry.done_at + self.cfg.branch_resolve_delay;
                let actual_target = policy.mux(taken, target_taken, next_pc);
                if pred_a != actual_a {
                    // Mispredict: fetch continues down the predicted path,
                    // squash at resolve.
                    entry.redirect = Some(Redirect {
                        kind: RedirectKind::Branch,
                        resolve_at,
                        target: actual_target,
                        taken: Some(taken),
                    });
                    entry.snapshot = Some(self.snapshot());
                    self.pc = if pred_a { target_taken } else { next_pc };
                } else {
                    // Correct prediction: train immediately (speculative
                    // update) and follow the real path.
                    self.bht.update(policy, pc.a, taken);
                    self.loopp.update(pc.a, taken);
                    self.pc = actual_target;
                }
            }
            Instr::Jal { rd, offset } => {
                let target = pc.add(TWord::lit(offset as u64));
                if rd == Reg::RA {
                    self.ras.push(next_pc);
                }
                if rd != Reg::ZERO {
                    self.set_reg(rd, next_pc, issue_at + 1);
                    entry.result = next_pc;
                }
                entry.unit = Unit::Branch;
                self.pc = target;
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).add(TWord::lit(offset as u64)).map(|a| a & !1);
                entry.unit = Unit::Branch;
                entry.done_at = issue_at + 1;
                let resolve_at = entry.done_at + self.cfg.branch_resolve_delay;
                let is_ret = instr.is_ret();
                let predicted = if is_ret {
                    self.ras.pop()
                } else {
                    self.btb.predict(pc.a)
                };
                if rd == Reg::RA {
                    self.ras.push(next_pc);
                }
                if rd != Reg::ZERO {
                    self.set_reg(rd, next_pc, issue_at + 1);
                    entry.result = next_pc;
                }
                match predicted {
                    Some(p) if p.a == target.a => {
                        // Correct prediction; plane b may still diverge
                        // (tainted prediction → tainted fetch path).
                        self.pc = p.taint_union(target);
                    }
                    Some(p) => {
                        entry.redirect = Some(Redirect {
                            kind: if is_ret {
                                RedirectKind::Return
                            } else {
                                RedirectKind::IndirectJump
                            },
                            resolve_at,
                            target,
                            taken: None,
                        });
                        entry.snapshot = Some(self.snapshot());
                        self.pc = p; // fetch down the wrong path
                    }
                    None => {
                        // No prediction: the frontend stalls until resolve
                        // (modelled as a redirect from a bubble path).
                        entry.redirect = Some(Redirect {
                            kind: if is_ret {
                                RedirectKind::Return
                            } else {
                                RedirectKind::IndirectJump
                            },
                            resolve_at,
                            target,
                            taken: None,
                        });
                        entry.snapshot = Some(self.snapshot());
                        self.fetch_stall_until = resolve_at;
                        self.pc = next_pc;
                    }
                }
            }
            Instr::Fence => {
                entry.unit = Unit::Sys;
                self.pc = next_pc;
            }
            Instr::Ecall => {
                entry.unit = Unit::Sys;
                entry.exception = Some(Exception::Ecall);
                self.pc = next_pc;
            }
            Instr::Ebreak => {
                entry.unit = Unit::Sys;
                entry.exception = Some(Exception::Ebreak);
                self.pc = next_pc;
            }
            Instr::Illegal(w) => {
                entry.unit = Unit::Sys;
                entry.exception = Some(Exception::IllegalInstruction(w));
                self.pc = next_pc;
            }
        }
        // Faulting entries restore *pre-execution* state at the trap: the
        // squash undoes any speculatively forwarded destination write
        // (Meltdown data never becomes architectural).
        if entry.exception.is_some() {
            if entry.snapshot.is_none() {
                entry.snapshot = Some(pre_snapshot);
            }
            // The writeback-to-commit flush depth: younger instructions
            // keep executing transiently until the trap sequence fires.
            entry.done_at = entry
                .done_at
                .max(issue_at + self.cfg.exception_commit_delay);
        }
        self.push_entry(entry);
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_load(
        &mut self,
        mem: &mut SwapMem,
        entry: &mut RobEntry,
        issue_at: u64,
        addr_full: TWord,
        op: dejavuzz_isa::LoadOp,
        rd: Reg,
        is_fp: bool,
        instr_taint: u64,
    ) {
        entry.unit = Unit::Lsu;
        // B1 MeltDown-Sampling: the pipeline hands the load unit a physical
        // address wire narrower than the datapath — high (illegal) mask
        // bits are silently truncated.
        let addr = if self.cfg.bugs.mds_addr_truncate {
            addr_full.truncate(self.cfg.paddr_bits)
        } else {
            addr_full
        };
        let truncated_alias =
            self.cfg.bugs.mds_addr_truncate && (addr.a != addr_full.a || addr.b != addr_full.b);

        // Store-queue search: youngest older store with a matching address.
        let mut forwarded: Option<TWord> = None;
        let mut disamb_conflict: Option<u64> = None; // store resolve_at
        for j in (self.head..self.rob.len()).rev() {
            let e = &self.rob[j];
            if e.squashed || e.committed {
                continue;
            }
            let Some(st) = e.store else { continue };
            let overlap = ranges_overlap(st.addr.a, st.size, addr.a, op.size());
            if !overlap {
                continue;
            }
            if st.resolve_at <= issue_at {
                forwarded = Some(st.data);
            } else {
                // Memory disambiguation speculation: predict no conflict,
                // read stale memory now; violation squashes at the store's
                // resolve time (the Spectre-V4 window).
                disamb_conflict = Some(st.resolve_at);
            }
            break;
        }

        // TLB + D-cache timing.
        let tprobe = self.tlb.translate(addr, 0);
        let dprobe = self.dcache.peek(addr);
        let lat_a = self.cfg.cache_hit_latency
            + tprobe.lat_a
            + if dprobe.hit_a {
                0
            } else {
                self.cfg.cache_miss_latency
            };
        let lat_b = self.cfg.cache_hit_latency
            + tprobe.lat_b
            + if dprobe.hit_b {
                0
            } else {
                self.cfg.cache_miss_latency
            };

        // The architectural fault is raised on the *full* address (the
        // pipeline checks it); the bug is that data flows on the truncated
        // one anyway.
        let arch_fault = if truncated_alias {
            Some(Exception::LoadAccessFault(addr_full.a))
        } else {
            mem.load_fault(addr, op.size())
        };

        let mut value = TWord::lit(0);
        let mut got_data = false;
        if arch_fault.is_none() {
            value = mem.load_t(addr, op.size()).expect("fault check passed");
            got_data = true;
        } else if self.cfg.bugs.meltdown_forward || truncated_alias {
            // Forward faulting data to dependents (Meltdown) or sample the
            // aliased address (B1). In-flight LFB data wins if present
            // (MDS-style).
            if let Some(fwd) = self.lfb.forward(addr.a, self.cfg.line_bytes) {
                value = fwd;
                got_data = true;
            } else if let Some(v) = mem.load_t_nocheck(addr, op.size()) {
                value = v;
                got_data = true;
            }
        }
        if let Some(st) = forwarded {
            value = st;
            got_data = true;
        }
        if got_data {
            value = TWord {
                a: op.extend(value.a),
                b: op.extend(value.b),
                t: value.t | instr_taint,
            };
        }

        // Microarchitectural side effects happen even for faulting loads:
        // line allocation, MSHR/LFB fill, TLB fill.
        let done_data = issue_at + lat_a;
        let probe = self.dcache.access(addr, value.t);
        if !probe.hit_a || !probe.hit_b {
            self.lfb.allocate(addr.a, value, done_data);
        }
        if lat_a != lat_b {
            self.bump_skew("dcache", lat_a, lat_b);
        }
        if tprobe.lat_a != tprobe.lat_b {
            self.bump_skew("tlb", tprobe.lat_a, tprobe.lat_b);
        }

        // LSU + write-back port contention.
        let (lsu_wait_a, lsu_wait_b) = self.claim_port(|c| &mut c.lsu_port, 1, 1);
        if lsu_wait_a != lsu_wait_b {
            self.bump_skew("lsu", lsu_wait_a, lsu_wait_b);
        }
        let mut done_at = done_data + lsu_wait_a;
        if self.cfg.bugs.reload_contention {
            // B5 Spectre-Reload: cache-hit loads (pipeline path) and
            // cache-miss completions (load-queue path) share one write-back
            // port; the later writer waits.
            let (wb_a, wb_b) = self.claim_port(|c| &mut c.wb_port, 1, 1);
            if wb_a != wb_b {
                self.bump_skew("lsu-wb", wb_a, wb_b);
            }
            done_at += wb_a;
        }

        entry.done_at = done_at;
        if let Some(e) = arch_fault {
            entry.exception = Some(e);
        }
        if got_data {
            if is_fp {
                self.fregs[rd.index()] = value;
                self.freg_ready[rd.index()] = done_at;
            } else {
                self.set_reg(rd, value, done_at);
            }
            entry.result = value;
        }
        if let Some(store_resolve) = disamb_conflict {
            entry.redirect = Some(Redirect {
                kind: RedirectKind::Disambiguation,
                resolve_at: store_resolve,
                target: entry.pc, // refetch the load itself
                taken: None,
            });
            // Recovery restores pre-load state, so the reload sees the
            // forwarded store.
            entry.snapshot = Some(self.snapshot_for_disamb());
        }
    }

    /// Disambiguation recovery snapshot: pre-state *without* the load's own
    /// register write. Taken before `exec_load` mutated anything is not
    /// possible at this call site, so reconstruct by re-checkpointing the
    /// caller-provided pre-state. (The caller passes the pre-snapshot via
    /// `snapshot_pre` for exceptions; disambiguation uses the same trick.)
    fn snapshot_for_disamb(&self) -> Box<Snapshot> {
        self.snapshot()
    }

    fn exec_store(
        &mut self,
        mem: &mut SwapMem,
        entry: &mut RobEntry,
        issue_at: u64,
        addr: TWord,
        size: u64,
        data: TWord,
    ) {
        entry.unit = Unit::Lsu;
        // Fault checks at execute; the store itself applies at commit.
        let fault = mem.store_fault(addr, size);
        let tprobe = self.tlb.translate(addr, 0);
        if tprobe.lat_a != tprobe.lat_b {
            self.bump_skew("tlb", tprobe.lat_a, tprobe.lat_b);
        }
        // Stores touch the cache line (write-allocate) speculatively.
        let probe = self.dcache.access(addr, data.t);
        if probe.lat_a != probe.lat_b {
            self.bump_skew("dcache", probe.lat_a, probe.lat_b);
        }
        let resolve_at = issue_at + 1 + tprobe.lat_a;
        entry.done_at = resolve_at;
        entry.exception = fault;
        if fault.is_none() {
            entry.store = Some(PendingStore {
                addr,
                size,
                data,
                resolve_at,
            });
        }
        entry.result = data;
    }

    // ---- observation ----

    /// Per-cycle taint census across every module (§4.2.2's per-module
    /// bitmap source). (The backing memory is not a DUT module; its taints
    /// surface via the dcache/LFB censuses, as on the RTL.)
    pub fn census(&self, _mem: &SwapMem) -> Census {
        let mut c = Census::new();
        self.census_into(&mut c);
        c
    }

    /// Refills `c` with this cycle's census. The register files are
    /// scanned; every other module reports a count kept current as it is
    /// written.
    fn census_into(&self, c: &mut Census) {
        c.clear();
        if self.cellift_exploded {
            // Every register of every module is tainted — the taint
            // explosion plateau of Figure 6's CellIFT curve.
            for (module, regs) in [
                ("frontend", 1),
                ("regfile", 32),
                ("fpregfile", 32),
                ("rob", self.cfg.rob_entries),
                ("lsu", self.cfg.sq_entries),
                ("bht", self.cfg.bht_entries),
                ("btb", self.cfg.btb_entries),
                ("ras", self.cfg.ras_entries),
                ("loop", self.cfg.loop_entries),
                ("icache", self.cfg.icache_lines),
                ("dcache", self.cfg.dcache_lines),
                ("lfb", self.cfg.mshr_entries),
                ("tlb", self.cfg.tlb_entries),
                ("l2tlb", self.cfg.l2tlb_entries),
                ("mem", 64),
            ] {
                c.report_counts(module, regs, regs);
            }
            return;
        }
        c.report("frontend", [self.pc.t]);
        c.report("regfile", self.regs.iter().map(|r| r.t));
        c.report("fpregfile", self.fregs.iter().map(|r| r.t));
        // In-flight RoB results in the first `rob_entries` slots from the
        // head; retired/squashed slots report as clean (the hardware reuses
        // them, our append-only list models the occupancy window). The
        // store queue reports its oldest `sq_entries` in-flight stores.
        // Every in-flight entry sits at or after the head, so the kept
        // counts answer unless squashed entries push some past the RoB
        // window or more stores are in flight than the queue shows.
        let window = &self.rob[self.head.min(self.rob.len())..];
        let (rob, sq) = (self.cfg.rob_entries, self.cfg.sq_entries);
        let tainted = if window.len() <= rob {
            self.in_flight.tainted
        } else {
            rob_census(window, rob)
        };
        debug_assert_eq!(tainted, rob_census(window, rob), "rob count");
        c.report_counts("rob", tainted, rob);
        let tainted = if self.in_flight.stores <= sq {
            self.in_flight.tainted_stores
        } else {
            lsu_census(window, sq)
        };
        debug_assert_eq!(tainted, lsu_census(window, sq), "lsu count");
        c.report_counts("lsu", tainted, sq);
        self.bht.census(c);
        self.btb.census(c);
        self.ras.census(c);
        self.loopp.census(c);
        self.icache.census(c);
        self.dcache.census(c);
        self.lfb.census(c);
        self.tlb.census(c);
    }

    /// Disassembles the reorder buffer for bug reports and debugging:
    /// one line per entry with its lifecycle state.
    pub fn rob_disassembly(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, e) in self.rob.iter().enumerate() {
            let state = if e.squashed {
                "squashed"
            } else if e.committed {
                "committed"
            } else {
                "in-flight"
            };
            let _ = writeln!(
                out,
                "[{i:>4}] {:#010x} {:<28} {:<9} done@{} pkt{}{}",
                e.pc.a,
                e.instr.to_string(),
                state,
                e.done_at,
                e.packet,
                e.exception
                    .map(|x| format!(" !{}", x.mnemonic()))
                    .unwrap_or_default(),
            );
        }
        out
    }

    /// Final tainted-sink sweep with liveness annotations (§4.3.2).
    pub fn sink_reports(&self) -> Vec<SinkReport> {
        use dejavuzz_ift::liveness::sweep_sinks;
        let mut out = Vec::new();
        sweep_sinks(
            "lfb",
            "lb",
            self.lfb.taints(),
            self.lfb.mshr_valid_vec(),
            &mut out,
        );
        sweep_sinks(
            "dcache",
            "data_array",
            self.dcache.taints(),
            self.dcache.valid_vec(),
            &mut out,
        );
        sweep_sinks(
            "icache",
            "data_array",
            self.icache.taints(),
            self.icache.valid_vec(),
            &mut out,
        );
        sweep_sinks(
            "ras",
            "stack",
            self.ras.taints(),
            self.ras.in_stack_vec(),
            &mut out,
        );
        sweep_sinks(
            "btb",
            "targets",
            self.btb.taints(),
            self.btb.valid_vec(),
            &mut out,
        );
        sweep_sinks(
            "bht",
            "counters",
            self.bht.taints(),
            self.bht.trained_vec(),
            &mut out,
        );
        sweep_sinks(
            "loop",
            "entries",
            self.loopp.taints(),
            self.loopp.conf_vec(),
            &mut out,
        );
        sweep_sinks(
            "tlb",
            "entries",
            self.tlb.taints(),
            self.tlb.valid_vec(),
            &mut out,
        );
        sweep_sinks(
            "l2tlb",
            "entries",
            self.tlb.l2_taints(),
            self.tlb.l2_valid_vec(),
            &mut out,
        );
        // RoB residue: squashed tainted results are dead; in-flight tainted
        // results are live. ("54 cases are misclassified due to residual
        // invalid taints in physical registers or RoB" without liveness.)
        let rob_taints: Vec<u64> = self.rob.iter().map(|e| e.result.t).collect();
        let rob_live: Vec<bool> = self
            .rob
            .iter()
            .map(|e| !e.squashed && !e.committed)
            .collect();
        sweep_sinks("rob", "results", rob_taints, rob_live, &mut out);
        // Architectural register file: always live.
        sweep_sinks(
            "regfile",
            "regs",
            self.regs.iter().map(|r| r.t),
            std::iter::repeat_n(true, 32),
            &mut out,
        );
        out
    }
}

/// The RoB census scan: in-flight entries with a tainted result among the
/// first `slots` entries from the head.
fn rob_census(window: &[RobEntry], slots: usize) -> usize {
    window
        .iter()
        .take(slots)
        .filter(|e| e.in_flight() && e.result.t != 0)
        .count()
}

/// The LSU census scan: tainted stores among the oldest `slots` in-flight
/// stores.
fn lsu_census(window: &[RobEntry], slots: usize) -> usize {
    window
        .iter()
        .filter(|e| e.in_flight())
        .filter_map(RobEntry::store_taint)
        .take(slots)
        .filter(|&t| t != 0)
        .count()
}

/// ALU evaluation routed through the taint policies: comparisons use the
/// comparison-cell rule, everything else the data-flow rules.
fn alu_eval(policy: Policy, op: AluOp, x: TWord, y: TWord) -> TWord {
    match op {
        AluOp::Add => x.add(y),
        AluOp::Sub => x.sub(y),
        AluOp::And => x.and(y),
        AluOp::Or => x.or(y),
        AluOp::Xor => x.xor(y),
        AluOp::Sll => x.shl(y),
        AluOp::Srl => x.shr(y),
        AluOp::Sra => x.sra(y),
        AluOp::Slt => policy.lt_signed(x, y),
        AluOp::Sltu => policy.lt(x, y),
        _ => {
            // Width-changing and mul/div ops: evaluate per plane, smear
            // taint upward (data rule).
            let t = if (x.t | y.t) != 0 { u64::MAX } else { 0 };
            TWord {
                a: op.eval(x.a, y.a),
                b: op.eval(x.b, y.b),
                t,
            }
        }
    }
}

/// Branch condition through the comparison-cell policy.
fn branch_eval(policy: Policy, op: dejavuzz_isa::BranchOp, x: TWord, y: TWord) -> TWord {
    use dejavuzz_isa::BranchOp as B;
    match op {
        B::Beq => policy.eq(x, y),
        B::Bne => policy.ne(x, y),
        B::Blt => policy.lt_signed(x, y),
        B::Bltu => policy.lt(x, y),
        B::Bge => policy.bool_not(policy.lt_signed(x, y)),
        B::Bgeu => policy.ge(x, y),
    }
}

fn ranges_overlap(a: u64, asz: u64, b: u64, bsz: u64) -> bool {
    a < b + bsz && b < a + asz
}

#[cfg(test)]
mod tests {
    use dejavuzz_isa::asm::ProgramBuilder;
    use dejavuzz_isa::instr::{BranchOp, StoreOp};
    use dejavuzz_swapmem::{PacketKind, SecretPolicy, SwapPacket, DEFAULT_LAYOUT};

    use super::*;
    use crate::{attacks, boom_small, xiangshan_minimal};

    /// A packet that over-fills the RoB and the store queue: divides on
    /// the secret block commit while 16 tainted stores and a branch
    /// mispredicted behind a cache miss enter the RoB, so more stores are
    /// in flight than the queue reports, and squashed entries push
    /// in-flight ones past the RoB window.
    fn pressure_mem() -> SwapMem {
        let l = DEFAULT_LAYOUT;
        let mut b = ProgramBuilder::new(l.swappable);
        b.label_at("secret", l.secret);
        b.label_at("data", l.data);
        b.la(Reg::T0, "secret");
        b.la(Reg::T1, "data");
        b.push(Instr::ld(Reg::S1, Reg::T0, 0));
        b.push(Instr::addi(Reg::A2, Reg::ZERO, 1));
        for _ in 0..4 {
            b.push(Instr::Op {
                op: AluOp::Div,
                rd: Reg::S1,
                rs1: Reg::S1,
                rs2: Reg::A2,
            });
        }
        for i in 0..16 {
            b.push(Instr::Store {
                op: StoreOp::Sd,
                rs2: Reg::S1,
                rs1: Reg::T1,
                offset: 8 * i,
            });
        }
        // A cold, zero word: the branch is taken, predicted not taken.
        b.push(Instr::ld(Reg::A3, Reg::T1, 0x400));
        let beq = Instr::Branch {
            op: BranchOp::Beq,
            rs1: Reg::A3,
            rs2: Reg::ZERO,
            offset: 0,
        };
        b.branch_to(beq, "exit");
        b.nops(48);
        b.label("exit");
        b.nops(48);
        b.push(Instr::Ecall);
        let mut mem = SwapMem::new(l);
        mem.plant_secret(&[0x5A; 8]);
        mem.set_secret_policy(SecretPolicy::AlwaysReadable);
        let packet = SwapPacket::new("pressure", PacketKind::Transient, b.assemble());
        mem.set_schedule(vec![packet]);
        mem
    }

    /// After every cycle of every attack benchmark and of the pressure
    /// packet, on both cores and in every IFT mode, the kept in-flight
    /// counts equal a scan of the RoB, and the census reports what the RoB
    /// and store-queue scans count, on the kept-count path and on the
    /// fallback scans alike. Unlike the census's debug assertions, this
    /// check also runs in a release build.
    #[test]
    fn in_flight_counts_equal_scans() {
        let (mut rob_fallbacks, mut lsu_fallbacks) = (0, 0);
        for cfg in [boom_small(), xiangshan_minimal()] {
            let runs = attacks::all()
                .into_iter()
                .map(|case| (case.name, case.build_mem(&[0x5A])))
                .chain([("pressure", pressure_mem())]);
            for (name, mem) in runs {
                for mode in IftMode::ALL {
                    let mut mem = mem.clone();
                    let mut core = Core::new(cfg, mode);
                    core.start(&mut mem);
                    while !core.done && core.cycle < 20_000 {
                        core.step(&mut mem);
                        let window = &core.rob[core.head..];
                        let what = format!("{name} {mode:?} cycle {}", core.cycle);
                        assert_eq!(core.in_flight, InFlight::scan(window), "{what}");
                        if core.cellift_exploded {
                            continue;
                        }
                        let census = core.census(&mem);
                        let rob = rob_census(window, cfg.rob_entries);
                        let lsu = lsu_census(window, cfg.sq_entries);
                        assert_eq!(census.module_tainted("rob"), Some(rob), "{what}");
                        assert_eq!(census.module_tainted("lsu"), Some(lsu), "{what}");
                        rob_fallbacks += usize::from(window.len() > cfg.rob_entries && rob > 0);
                        lsu_fallbacks +=
                            usize::from(core.in_flight.stores > cfg.sq_entries && lsu > 0);
                    }
                }
            }
        }
        assert!(
            rob_fallbacks > 0 && lsu_fallbacks > 0,
            "{rob_fallbacks} {lsu_fallbacks}"
        );
    }
}
