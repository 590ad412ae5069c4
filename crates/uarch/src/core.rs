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

use dejavuzz_ift::liveness::sweep_sinks;
use dejavuzz_ift::{Census, IftMode, Module, Policy, SinkReport, TWord, TaintLog};
use dejavuzz_isa::instr::{AluOp, Instr, Reg};
use dejavuzz_isa::{decode, Exception};
use dejavuzz_swapmem::{SwapMem, TrapAction};

use crate::cache::{recount, scan, Cache, LineFillBuffer, Tlb};
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Redirect {
    kind: RedirectKind,
    resolve_at: u64,
    /// Correct continuation (two-plane; transient secrets can diverge it).
    target: TWord,
    /// Resolved branch outcome for predictor training.
    taken: Option<TWord>,
}

/// A register file and its count of tainted registers, kept current at
/// every write so the census never scans the file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RegFile {
    regs: [TWord; 32],
    tainted: usize,
}

impl RegFile {
    fn set(&mut self, i: usize, v: TWord) {
        self.tainted = recount(self.tainted, self.regs[i].t, v.t);
        self.regs[i] = v;
    }

    /// CellIFT's taint explosion: every register fully tainted.
    fn taint_all(&mut self) {
        for r in &mut self.regs {
            *r = r.fully_tainted();
        }
        self.tainted = self.regs.len();
    }

    fn taints(&self) -> impl Iterator<Item = u64> + '_ {
        self.regs.iter().map(|r| r.t)
    }
}

impl std::ops::Index<usize> for RegFile {
    type Output = TWord;

    fn index(&self, i: usize) -> &TWord {
        &self.regs[i]
    }
}

/// Snapshot for squash recovery.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Snapshot {
    regs: RegFile,
    fregs: RegFile,
    reg_ready: [u64; 32],
    freg_ready: [u64; 32],
    ras: RasCheckpoint,
}

/// Recovery snapshots no RoB entry holds, kept to be overwritten by the
/// next ones taken. Storage, not state: equality ignores it, as `Vec`
/// equality ignores capacity. Boxed because snapshots move between here
/// and RoB entries, which then copies a pointer, not 2 KB.
#[derive(Clone, Debug, Default)]
#[allow(clippy::vec_box)]
struct SpareSnapshots(Vec<Box<Snapshot>>);

impl PartialEq for SpareSnapshots {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for SpareSnapshots {}

/// A pending (uncommitted) store carried by a RoB entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PendingStore {
    addr: TWord,
    size: u64,
    data: TWord,
    /// Cycle the store address/data become known to the LSU.
    resolve_at: u64,
}

/// What a RoB entry still has to do besides writing its result: a store
/// applies at commit, a redirect squashes at resolve. No entry has both,
/// since only loads and control transfers redirect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Effect {
    None,
    Store(PendingStore),
    Redirect(Redirect),
}

/// One reorder-buffer entry (append-only per run; `head` walks forward).
#[derive(Clone, Debug, PartialEq, Eq)]
struct RobEntry {
    pc: TWord,
    packet: usize,
    unit: Unit,
    done_at: u64,
    exception: Option<Exception>,
    squashed: bool,
    committed: bool,
    /// Destination result (census/sink inspection).
    result: TWord,
    effect: Effect,
    /// What a squash at this entry restores: taken only for entries that
    /// redirect (mispredicts, disambiguation) or can trap (they raise an
    /// exception and no older in-flight entry squashes them first), and
    /// handed back to the core's spares when restored or when the entry is
    /// squashed.
    snapshot: Option<Box<Snapshot>>,
}

impl RobEntry {
    /// Neither squashed nor committed.
    fn in_flight(&self) -> bool {
        !self.squashed && !self.committed
    }

    /// The store this entry applies at commit, if it is one.
    fn store(&self) -> Option<PendingStore> {
        match self.effect {
            Effect::Store(st) => Some(st),
            _ => None,
        }
    }

    /// The redirect this entry has yet to resolve, if any.
    fn redirect(&self) -> Option<Redirect> {
        match self.effect {
            Effect::Redirect(r) => Some(r),
            _ => None,
        }
    }

    /// A store's address and data taint; `None` for any other entry.
    fn store_taint(&self) -> Option<u64> {
        self.store().map(|s| s.data.t | s.addr.t)
    }

    /// Whether this entry, while in flight, is sure to squash every
    /// younger one: an unresolved redirect squashes them when it resolves,
    /// an exception when it traps, and commit cannot pass either first.
    fn squashes_younger(&self) -> bool {
        self.exception.is_some() || self.redirect().is_some()
    }
}

/// Counts over the in-flight RoB entries, kept current where entries
/// enter and leave flight so neither the fetch stage nor the census has
/// to scan the RoB for them: the entries, those with a tainted result,
/// the stores, those with a tainted address or data, and those that will
/// squash every younger entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct InFlight {
    entries: usize,
    tainted: usize,
    stores: usize,
    tainted_stores: usize,
    squashing: usize,
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
        self.squashing += usize::from(e.squashes_younger());
        if let Some(t) = e.store_taint() {
            self.stores += 1;
            self.tainted_stores += usize::from(t != 0);
        }
    }

    /// Counts `e` out of flight.
    fn leave(&mut self, e: &RobEntry) {
        self.entries -= 1;
        self.tainted -= usize::from(e.result.t != 0);
        self.squashing -= usize::from(e.squashes_younger());
        if let Some(t) = e.store_taint() {
            self.stores -= 1;
            self.tainted_stores -= usize::from(t != 0);
        }
    }
}

/// The tainted count of every module a census reports, in report order
/// (see [`Core::taint_counts`]).
type TaintCounts = [usize; 14];

/// A divergent-latency observation on a contended resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingEvent {
    /// Structural cycle of the access.
    pub cycle: u64,
    /// The contended resource (Table 5's "encoded timing component").
    pub resource: Module,
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
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct PortState {
    busy_a: u64,
    busy_b: i64, // in plane-2 virtual time
}

/// The core model.
///
/// A core runs one schedule; [`Core::reset`] returns a used core to the
/// state [`Core::new`] builds, so one core can serve run after run
/// without reallocating its tables, its RoB or its recovery snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
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

    regs: RegFile,
    fregs: RegFile,
    reg_ready: [u64; 32],
    freg_ready: [u64; 32],

    rob: Vec<RobEntry>,
    /// Recovery snapshots released by restores and squashes.
    spare_snapshots: SpareSnapshots,
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
    /// The census buffer a cycle refills before logging it.
    census: Census,
    /// The counts of the census a diffIFT cycle last logged: a cycle
    /// whose counts equal them logs a repeat of that census.
    logged: TaintCounts,
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
                Module::Icache,
                cfg.icache_lines,
                cfg.line_bytes,
                cfg.cache_hit_latency,
                cfg.cache_miss_latency,
            ),
            dcache: Cache::new(
                Module::Dcache,
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
            regs: RegFile::default(),
            fregs: RegFile::default(),
            reg_ready: [0; 32],
            freg_ready: [0; 32],
            rob: Vec::new(),
            spare_snapshots: SpareSnapshots::default(),
            head: 0,
            in_flight: InFlight::default(),
            packet: 0,
            fpu_port: PortState::default(),
            lsu_port: PortState::default(),
            wb_port: PortState::default(),
            trace: Trace::new(),
            taint_log: TaintLog::new(),
            census: Census::new(),
            logged: TaintCounts::default(),
            timing_events: Vec::new(),
            jump_resolved_this_cycle: None,
            cellift_exploded: false,
            cfg,
            done: false,
        }
    }

    /// Returns a used core to exactly the state [`Core::new`] builds for
    /// its configuration and `mode`, keeping its allocations: the tables,
    /// the RoB's capacity, the recovery snapshots, which go back to the
    /// spares, and the trace and taint-log buffers.
    pub fn reset(&mut self, mode: IftMode) {
        // Every field is named, so a new one does not compile until it is
        // restored here.
        let Core {
            cfg: _,
            policy,
            pc,
            cycle,
            skew_b,
            fetch_stall_until,
            bht,
            btb,
            ras,
            loopp,
            icache,
            dcache,
            lfb,
            tlb,
            regs,
            fregs,
            reg_ready,
            freg_ready,
            rob,
            spare_snapshots,
            head,
            in_flight,
            packet,
            fpu_port,
            lsu_port,
            wb_port,
            trace,
            taint_log,
            census,
            logged,
            timing_events,
            jump_resolved_this_cycle,
            cellift_exploded,
            done,
        } = self;
        *policy = Policy::new(mode);
        *pc = TWord::lit(0);
        (*cycle, *skew_b, *fetch_stall_until) = (0, 0, 0);
        bht.reset();
        btb.reset();
        ras.reset();
        loopp.reset();
        icache.reset();
        dcache.reset();
        lfb.reset();
        tlb.reset();
        *regs = RegFile::default();
        *fregs = RegFile::default();
        *reg_ready = [0; 32];
        *freg_ready = [0; 32];
        spare_snapshots
            .0
            .extend(rob.drain(..).filter_map(|e| e.snapshot));
        (*head, *packet) = (0, 0);
        *in_flight = InFlight::default();
        *fpu_port = PortState::default();
        *lsu_port = PortState::default();
        *wb_port = PortState::default();
        trace.clear();
        taint_log.clear();
        census.clear();
        *logged = TaintCounts::default();
        timing_events.clear();
        *jump_resolved_this_cycle = None;
        (*cellift_exploded, *done) = (false, false);
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
    /// until `max_cycles`). The core is then used: [`Core::reset`] readies
    /// it for another run.
    pub fn run(&mut self, mem: &mut SwapMem, max_cycles: u64) -> RunResult {
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

    fn finish(&mut self, end: EndReason) -> RunResult {
        let sinks = self.sink_reports();
        let uarch_hash = (
            self.hash_timing_components(0),
            self.hash_timing_components(1),
        );
        // The next run starts its trace and log at this run's size.
        let (trace, taint_log) = (self.trace.empty_like(), self.taint_log.empty_like());
        RunResult {
            trace: std::mem::replace(&mut self.trace, trace),
            taint_log: std::mem::replace(&mut self.taint_log, taint_log),
            sinks,
            timing_events: std::mem::take(&mut self.timing_events),
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
        match self.policy.mode() {
            IftMode::Base => {}
            IftMode::DiffIft => {
                // The census changes only when a count does, so a cycle
                // that moves none repeats the last one unbuilt.
                let counts = self.taint_counts();
                if counts == self.logged && !self.taint_log.is_empty() {
                    self.taint_log.repeat_last();
                } else {
                    self.log_census();
                    self.logged = counts;
                }
            }
            IftMode::CellIft => self.log_census(),
        }
        debug_assert_eq!(self.regs.tainted, scan(self.regs.taints()), "regfile");
        debug_assert_eq!(self.fregs.tainted, scan(self.fregs.taints()), "fpregfile");
        if cfg!(debug_assertions) && self.policy.mode().tracks_taint() {
            // Debug builds check every logged cycle against a census
            // rebuilt now, whose counts are themselves checked by scans.
            let mut census = std::mem::take(&mut self.census);
            self.census_into(&mut census);
            let logged = self.taint_log.cycle(self.taint_log.len() - 1);
            assert_eq!(logged, Some(&census), "census at cycle {}", self.cycle);
            self.census = census;
        }
        self.cycle += 1;
    }

    /// Builds this cycle's census and logs it.
    fn log_census(&mut self) {
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

    // ---- resolve ----

    fn resolve_redirects(&mut self) {
        // Oldest unresolved redirect whose time has come.
        let mut idx = None;
        for i in self.head..self.rob.len() {
            let e = &self.rob[i];
            if e.squashed || e.committed {
                continue;
            }
            if let Some(r) = e.redirect() {
                if r.resolve_at <= self.cycle {
                    idx = Some(i);
                    break;
                }
            }
        }
        let Some(i) = idx else { return };
        let redirect = self.rob[i].redirect().expect("checked above");
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
        if include_self {
            self.rob[i].effect = Effect::None;
        } else {
            // The entry stays in flight with its redirect resolved.
            self.in_flight.leave(&self.rob[i]);
            self.rob[i].effect = Effect::None;
            self.in_flight.enter(&self.rob[i]);
        }
    }

    /// Squashes every in-flight entry younger than `i` (and `i` itself when
    /// `include_self`), restores the snapshot attached to entry `i`, and
    /// redirects fetch to `target`. The restored snapshot and those of the
    /// squashed entries go back to the spares.
    fn squash_after(&mut self, i: usize, target: TWord, include_self: bool, cause: &'static str) {
        let start = if include_self { i } else { i + 1 };
        let snap = self.rob[i]
            .snapshot
            .take()
            .expect("a squashing entry holds the snapshot it restores");
        let mut killed = 0;
        let mut killed_taint = 0u64;
        for j in start..self.rob.len() {
            let e = &mut self.rob[j];
            if e.in_flight() {
                self.in_flight.leave(e);
                e.squashed = true;
                self.spare_snapshots.0.extend(e.snapshot.take());
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
            self.regs.taint_all();
            self.fregs.taint_all();
            for e in &mut self.rob {
                e.result = e.result.fully_tainted();
            }
            self.in_flight = InFlight::scan(&self.rob[self.head..]);
        }
        self.regs = snap.regs;
        self.fregs = snap.fregs;
        self.reg_ready = snap.reg_ready;
        self.freg_ready = snap.freg_ready;
        self.ras.restore(&snap.ras);
        self.spare_snapshots.0.push(snap);
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
            if self.rob[i].redirect().is_some() {
                return;
            }
            if let Some(e) = self.rob[i].exception {
                self.trap(mem, i, e);
                return;
            }
            // Apply the architectural store.
            if let Some(st) = self.rob[i].store() {
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
                self.bump_skew(Module::Icache, probe.lat_a, probe.lat_b);
                return;
            } else if probe.lat_a != probe.lat_b {
                self.bump_skew(Module::Icache, probe.lat_a, probe.lat_b);
            }
            let word = match mem.fetch_t(pc) {
                Ok(w) => w,
                Err(e) => {
                    // Fetch fault: enqueue a faulting placeholder.
                    self.enqueue_exception(pc, e);
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

    /// Takes a recovery snapshot into `slot`, overwriting in place the one
    /// it holds, else a spare; only when neither exists is one allocated.
    fn snapshot_into(&mut self, slot: &mut Option<Box<Snapshot>>) {
        let spares = &mut self.spare_snapshots.0;
        let snap = slot.get_or_insert_with(|| spares.pop().unwrap_or_default());
        snap.regs = self.regs;
        snap.fregs = self.fregs;
        snap.reg_ready = self.reg_ready;
        snap.freg_ready = self.freg_ready;
        self.ras.checkpoint_into(&mut snap.ras);
    }

    /// Takes the snapshot a trap at the entry being enqueued restores,
    /// unless an older in-flight entry squashes every younger one: that
    /// entry squashes this one before it can reach commit and trap, so its
    /// snapshot could never be restored.
    fn trap_snapshot_into(&mut self, slot: &mut Option<Box<Snapshot>>) {
        if self.in_flight.squashing == 0 {
            self.snapshot_into(slot);
        }
    }

    fn enqueue_exception(&mut self, pc: TWord, e: Exception) {
        let mut snapshot = None;
        self.trap_snapshot_into(&mut snapshot);
        self.push_entry(RobEntry {
            pc,
            packet: self.packet,
            unit: Unit::Sys,
            done_at: self.cycle + self.cfg.exception_commit_delay,
            exception: Some(e),
            squashed: false,
            committed: false,
            result: TWord::lit(0),
            effect: Effect::None,
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

    fn bump_skew(&mut self, resource: Module, lat_a: u64, lat_b: u64) {
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
            self.regs.set(r.index(), v);
            self.reg_ready[r.index()] = ready;
        }
    }

    fn set_freg(&mut self, r: Reg, v: TWord, ready: u64) {
        self.fregs.set(r.index(), v);
        self.freg_ready[r.index()] = ready;
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
        // Taint the result stream if the fetched words diverge (transient
        // PC divergence fetched different code per variant).
        let instr_taint = if word.is_tainted() { u64::MAX } else { 0 };

        let mut entry = RobEntry {
            pc,
            packet: self.packet,
            unit: Unit::Alu,
            done_at: issue_at + 1,
            exception: None,
            squashed: false,
            committed: false,
            result: TWord::lit(0),
            effect: Effect::None,
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
                    self.bump_skew(Module::Fpu, wait_a, wait_b);
                }
                entry.unit = Unit::Fpu;
                entry.done_at = issue_at + wait_a + occ;
                self.set_freg(rd, v, entry.done_at);
                entry.result = v;
                self.pc = next_pc;
            }
            Instr::FmvDX { rd, rs1 } => {
                let v = self.reg(rs1);
                self.set_freg(rd, v, issue_at + 1);
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
                    entry.effect = Effect::Redirect(Redirect {
                        kind: RedirectKind::Branch,
                        resolve_at,
                        target: actual_target,
                        taken: Some(taken),
                    });
                    self.snapshot_into(&mut entry.snapshot);
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
                        entry.effect = Effect::Redirect(Redirect {
                            kind: if is_ret {
                                RedirectKind::Return
                            } else {
                                RedirectKind::IndirectJump
                            },
                            resolve_at,
                            target,
                            taken: None,
                        });
                        self.snapshot_into(&mut entry.snapshot);
                        self.pc = p; // fetch down the wrong path
                    }
                    None => {
                        // No prediction: the frontend stalls until resolve
                        // (modelled as a redirect from a bubble path).
                        entry.effect = Effect::Redirect(Redirect {
                            kind: if is_ret {
                                RedirectKind::Return
                            } else {
                                RedirectKind::IndirectJump
                            },
                            resolve_at,
                            target,
                            taken: None,
                        });
                        self.snapshot_into(&mut entry.snapshot);
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
        // Faulting entries restore *pre-execution* state at the trap. A
        // faulting load took its snapshot before its forwarded write; a
        // faulting store, ecall, ebreak or illegal instruction writes no
        // register, ready time or RAS slot, so its snapshot taken now still
        // holds the state from before it executed.
        if entry.exception.is_some() {
            if entry.snapshot.is_none() {
                self.trap_snapshot_into(&mut entry.snapshot);
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
            let Some(st) = e.store() else { continue };
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
            self.bump_skew(Module::Dcache, lat_a, lat_b);
        }
        if tprobe.lat_a != tprobe.lat_b {
            self.bump_skew(Module::Tlb, tprobe.lat_a, tprobe.lat_b);
        }

        // LSU + write-back port contention.
        let (lsu_wait_a, lsu_wait_b) = self.claim_port(|c| &mut c.lsu_port, 1, 1);
        if lsu_wait_a != lsu_wait_b {
            self.bump_skew(Module::Lsu, lsu_wait_a, lsu_wait_b);
        }
        let mut done_at = done_data + lsu_wait_a;
        if self.cfg.bugs.reload_contention {
            // B5 Spectre-Reload: cache-hit loads (pipeline path) and
            // cache-miss completions (load-queue path) share one write-back
            // port; the later writer waits.
            let (wb_a, wb_b) = self.claim_port(|c| &mut c.wb_port, 1, 1);
            if wb_a != wb_b {
                self.bump_skew(Module::LsuWb, wb_a, wb_b);
            }
            done_at += wb_a;
        }

        entry.done_at = done_at;
        if let Some(e) = arch_fault {
            entry.exception = Some(e);
            // Taken before the forwarded write below, so the trap's squash
            // undoes it (Meltdown data never becomes architectural).
            self.trap_snapshot_into(&mut entry.snapshot);
        }
        if got_data {
            if is_fp {
                self.set_freg(rd, value, done_at);
            } else {
                self.set_reg(rd, value, done_at);
            }
            entry.result = value;
        }
        if let Some(store_resolve) = disamb_conflict {
            entry.effect = Effect::Redirect(Redirect {
                kind: RedirectKind::Disambiguation,
                resolve_at: store_resolve,
                target: entry.pc, // refetch the load itself
                taken: None,
            });
            // Taken after the load's own register write, so it replaces a
            // fault's pre-write snapshot: the squash restores the stale
            // value the load read, and the refetched load then overwrites
            // it with the forwarded store.
            self.snapshot_into(&mut entry.snapshot);
        }
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
            self.bump_skew(Module::Tlb, tprobe.lat_a, tprobe.lat_b);
        }
        // Stores touch the cache line (write-allocate) speculatively.
        let probe = self.dcache.access(addr, data.t);
        if probe.lat_a != probe.lat_b {
            self.bump_skew(Module::Dcache, probe.lat_a, probe.lat_b);
        }
        let resolve_at = issue_at + 1 + tprobe.lat_a;
        entry.done_at = resolve_at;
        entry.exception = fault;
        if fault.is_none() {
            entry.effect = Effect::Store(PendingStore {
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

    /// Refills `c` with this cycle's census. Every module reports a count
    /// kept current as it is written.
    fn census_into(&self, c: &mut Census) {
        c.clear();
        if self.cellift_exploded {
            // Every register of every module is tainted — the taint
            // explosion plateau of Figure 6's CellIFT curve.
            for (module, regs) in [
                (Module::Frontend, 1),
                (Module::Regfile, 32),
                (Module::Fpregfile, 32),
                (Module::Rob, self.cfg.rob_entries),
                (Module::Lsu, self.cfg.sq_entries),
                (Module::Bht, self.cfg.bht_entries),
                (Module::Btb, self.cfg.btb_entries),
                (Module::Ras, self.cfg.ras_entries),
                (Module::Loop, self.cfg.loop_entries),
                (Module::Icache, self.cfg.icache_lines),
                (Module::Dcache, self.cfg.dcache_lines),
                (Module::Lfb, self.cfg.mshr_entries),
                (Module::Tlb, self.cfg.tlb_entries),
                (Module::L2tlb, self.cfg.l2tlb_entries),
                (Module::Mem, 64),
            ] {
                c.report_counts(module, regs, regs);
            }
            return;
        }
        c.report_counts(Module::Frontend, self.frontend_tainted(), 1);
        c.report_counts(Module::Regfile, self.regs.tainted, 32);
        c.report_counts(Module::Fpregfile, self.fregs.tainted, 32);
        c.report_counts(Module::Rob, self.rob_tainted(), self.cfg.rob_entries);
        c.report_counts(Module::Lsu, self.lsu_tainted(), self.cfg.sq_entries);
        self.bht.census(c);
        self.btb.census(c);
        self.ras.census(c);
        self.loopp.census(c);
        self.icache.census(c);
        self.dcache.census(c);
        self.lfb.census(c);
        self.tlb.census(c);
    }

    /// Every count [`Core::census_into`] reports outside CellIFT's
    /// explosion. A module's register total is fixed by the
    /// configuration, so the census changes only when one of these does.
    fn taint_counts(&self) -> TaintCounts {
        [
            self.frontend_tainted(),
            self.regs.tainted,
            self.fregs.tainted,
            self.rob_tainted(),
            self.lsu_tainted(),
            self.bht.tainted(),
            self.btb.tainted(),
            self.ras.tainted(),
            self.loopp.tainted(),
            self.icache.tainted(),
            self.dcache.tainted(),
            self.lfb.tainted(),
            self.tlb.tainted(),
            self.tlb.l2_tainted(),
        ]
    }

    /// The frontend's one register is the PC.
    fn frontend_tainted(&self) -> usize {
        usize::from(self.pc.t != 0)
    }

    /// In-flight RoB results in the first `rob_entries` slots from the
    /// head; retired/squashed slots report as clean (the hardware reuses
    /// them, our append-only list models the occupancy window). Every
    /// in-flight entry sits at or after the head, so the kept count
    /// answers unless squashed entries push some past the window.
    fn rob_tainted(&self) -> usize {
        let window = &self.rob[self.head.min(self.rob.len())..];
        let rob = self.cfg.rob_entries;
        let tainted = if window.len() <= rob {
            self.in_flight.tainted
        } else {
            rob_census(window, rob)
        };
        debug_assert_eq!(tainted, rob_census(window, rob), "rob count");
        tainted
    }

    /// Tainted stores among the oldest `sq_entries` in flight: the kept
    /// count answers unless more stores are in flight than the queue
    /// shows.
    fn lsu_tainted(&self) -> usize {
        let window = &self.rob[self.head.min(self.rob.len())..];
        let sq = self.cfg.sq_entries;
        let tainted = if self.in_flight.stores <= sq {
            self.in_flight.tainted_stores
        } else {
            lsu_census(window, sq)
        };
        debug_assert_eq!(tainted, lsu_census(window, sq), "lsu count");
        tainted
    }

    /// Final tainted-sink sweep with liveness annotations (§4.3.2).
    pub fn sink_reports(&self) -> Vec<SinkReport> {
        let mut out = Vec::new();
        sweep_kept(
            Module::Lfb,
            "lb",
            self.lfb.tainted(),
            self.lfb.taints(),
            self.lfb.mshr_valid(),
            &mut out,
        );
        sweep_kept(
            Module::Dcache,
            "data_array",
            self.dcache.tainted(),
            self.dcache.taints(),
            self.dcache.valid(),
            &mut out,
        );
        sweep_kept(
            Module::Icache,
            "data_array",
            self.icache.tainted(),
            self.icache.taints(),
            self.icache.valid(),
            &mut out,
        );
        sweep_kept(
            Module::Ras,
            "stack",
            self.ras.tainted(),
            self.ras.taints(),
            self.ras.in_stack(),
            &mut out,
        );
        sweep_kept(
            Module::Btb,
            "targets",
            self.btb.tainted(),
            self.btb.taints(),
            self.btb.valid(),
            &mut out,
        );
        sweep_kept(
            Module::Bht,
            "counters",
            self.bht.tainted(),
            self.bht.taints(),
            self.bht.trained(),
            &mut out,
        );
        sweep_kept(
            Module::Loop,
            "entries",
            self.loopp.tainted(),
            self.loopp.taints(),
            self.loopp.confident(),
            &mut out,
        );
        sweep_kept(
            Module::Tlb,
            "entries",
            self.tlb.tainted(),
            self.tlb.taints(),
            self.tlb.valid(),
            &mut out,
        );
        sweep_kept(
            Module::L2tlb,
            "entries",
            self.tlb.l2_tainted(),
            self.tlb.l2_taints(),
            self.tlb.l2_valid(),
            &mut out,
        );
        // RoB residue: squashed tainted results are dead; in-flight tainted
        // results are live. ("54 cases are misclassified due to residual
        // invalid taints in physical registers or RoB" without liveness.)
        sweep_sinks(
            Module::Rob,
            "results",
            self.rob.iter().map(|e| e.result.t),
            self.rob.iter().map(RobEntry::in_flight),
            &mut out,
        );
        // Architectural register file: always live.
        sweep_sinks(
            Module::Regfile,
            "regs",
            self.regs.taints(),
            std::iter::repeat_n(true, 32),
            &mut out,
        );
        out
    }
}

/// Sweeps a structure's sink array unless its kept count of tainted
/// entries, `tainted`, says there is nothing to report.
fn sweep_kept(
    module: Module,
    array: &str,
    tainted: usize,
    taints: impl Iterator<Item = u64>,
    live: impl Iterator<Item = bool>,
    out: &mut Vec<SinkReport>,
) {
    if tainted != 0 {
        sweep_sinks(module, array, taints, live, out);
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
    use dejavuzz_isa::sim::Perms;
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
    /// fallback scans alike. An in-flight entry that raises an exception
    /// without redirecting holds a recovery snapshot exactly when no older
    /// in-flight entry will squash it first. Unlike the census's debug
    /// assertions, this check also runs in a release build.
    #[test]
    fn in_flight_counts_equal_scans() {
        let (mut rob_fallbacks, mut lsu_fallbacks, mut elided) = (0, 0, 0);
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
                        let mut older_squashes = false;
                        for e in window.iter().filter(|e| e.in_flight()) {
                            if e.exception.is_some() && e.redirect().is_none() {
                                assert_eq!(e.snapshot.is_some(), !older_squashes, "{what}");
                                elided += usize::from(older_squashes);
                            }
                            older_squashes |= e.squashes_younger();
                        }
                        if core.cellift_exploded {
                            continue;
                        }
                        let census = core.census(&mem);
                        let rob = rob_census(window, cfg.rob_entries);
                        let lsu = lsu_census(window, cfg.sq_entries);
                        assert_eq!(census.module_tainted(Module::Rob), Some(rob), "{what}");
                        assert_eq!(census.module_tainted(Module::Lsu), Some(lsu), "{what}");
                        rob_fallbacks += usize::from(window.len() > cfg.rob_entries && rob > 0);
                        lsu_fallbacks +=
                            usize::from(core.in_flight.stores > cfg.sq_entries && lsu > 0);
                    }
                }
            }
        }
        assert!(
            rob_fallbacks > 0 && lsu_fallbacks > 0 && elided > 0,
            "{rob_fallbacks} {lsu_fallbacks} {elided}"
        );
    }

    /// Every attack benchmark and the pressure packet, on both cores,
    /// under diffIFT and CellIFT, run to completion and cut at 40 and 150
    /// cycles: the taint log a run hands back equals the one a reference
    /// loop builds by calling `Core::census` after every cycle, so each
    /// diffIFT cycle that logs a repeat logs the census it would have
    /// built, and the kept register counts equal a scan of the register
    /// files. Unlike the debug checks in `step`, this also runs in a
    /// release build.
    #[test]
    fn census_on_change_equals_census_every_cycle() {
        let mut repeats = 0;
        for cfg in [boom_small(), xiangshan_minimal()] {
            let mems = attacks::all()
                .into_iter()
                .map(|case| (case.name, case.build_mem(&[0x5A])))
                .chain([("pressure", pressure_mem())]);
            for (name, mem) in mems {
                for mode in [IftMode::DiffIft, IftMode::CellIft] {
                    for max_cycles in [20_000, 40, 150] {
                        let what = format!("{} {name} {mode:?} {max_cycles}", cfg.name);
                        let run = Core::new(cfg, mode).run(&mut mem.clone(), max_cycles);
                        let (mut core, mut mem) = (Core::new(cfg, mode), mem.clone());
                        let mut reference = TaintLog::new();
                        core.start(&mut mem);
                        while !core.done && core.cycle < max_cycles {
                            core.step(&mut mem);
                            reference.push(core.census(&mem));
                            assert_eq!(core.regs.tainted, scan(core.regs.taints()), "{what}");
                            assert_eq!(core.fregs.tainted, scan(core.fregs.taints()), "{what}");
                        }
                        assert!(run.taint_log == reference, "{what}");
                        if mode == IftMode::DiffIft {
                            repeats += reference.len() - reference.runs().count();
                        }
                    }
                }
            }
        }
        assert!(repeats > 0);
    }

    /// One core serving every attack benchmark and the pressure packet,
    /// on both cores, in every IFT mode, run to completion and cut short
    /// by `max_cycles`: each `reset` leaves it equal to a new core in the
    /// next run's mode, field by field, and each run answers exactly as a
    /// new core's does. The runs include CellIFT's taint explosion and
    /// cut-short runs whose RoB still holds recovery snapshots.
    #[test]
    fn reset_equals_new() {
        let (mut exploded, mut cut_with_snapshots) = (false, false);
        for cfg in [boom_small(), xiangshan_minimal()] {
            let mems = attacks::all()
                .into_iter()
                .map(|case| (case.name, case.build_mem(&[0x5A])))
                .chain([("pressure", pressure_mem())]);
            let mut core = Core::new(cfg, IftMode::Base);
            for (name, mem) in mems {
                for mode in IftMode::ALL {
                    for max_cycles in [20_000, 40, 150] {
                        let what = format!("{} {name} {mode:?} {max_cycles}", cfg.name);
                        core.reset(mode);
                        assert!(core == Core::new(cfg, mode), "{what}: reset core");
                        let used = core.run(&mut mem.clone(), max_cycles);
                        let fresh = Core::new(cfg, mode).run(&mut mem.clone(), max_cycles);
                        assert!(used == fresh, "{what}: run");
                        exploded |= core.cellift_exploded;
                        cut_with_snapshots |= used.end == EndReason::CycleLimit
                            && core.rob.iter().any(|e| e.snapshot.is_some());
                    }
                }
            }
        }
        assert!(exploded && cut_with_snapshots);
    }

    /// Both register files and their ready times: what a trap's recovery
    /// snapshot restores apart from the RAS.
    type RegState = (RegFile, RegFile, [u64; 32], [u64; 32]);

    fn reg_state(core: &Core) -> RegState {
        (core.regs, core.fregs, core.reg_ready, core.freg_ready)
    }

    /// A one-packet schedule: set-up writes, then `trapping`, then younger
    /// instructions that write both register files while the trap waits
    /// to commit. With `no_exec`, the trapping instruction's word may not
    /// be fetched.
    fn trap_mem(trapping: Instr, no_exec: bool) -> SwapMem {
        let l = DEFAULT_LAYOUT;
        let mut b = ProgramBuilder::new(l.swappable);
        b.label_at("secret", l.secret);
        b.label_at("data", l.data);
        b.label_at("unmapped", l.base + l.size as u64);
        b.la(Reg::T0, "secret");
        b.la(Reg::T1, "data");
        b.la(Reg::T2, "unmapped");
        b.push(Instr::addi(Reg::A0, Reg::ZERO, 11));
        b.push(Instr::FmvDX {
            rd: Reg(1),
            rs1: Reg::A0,
        });
        let at = b.here();
        b.push(trapping);
        b.push(Instr::addi(Reg::A0, Reg::A0, 100));
        b.push(Instr::addi(Reg::A1, Reg::ZERO, 22));
        b.push(Instr::FmvDX {
            rd: Reg(2),
            rs1: Reg::A1,
        });
        b.nops(8);
        b.push(Instr::Ecall);
        let mut mem = SwapMem::new(l);
        mem.plant_secret(&[0x5A; 8]);
        if no_exec {
            mem.set_perms(at, at + 4, Perms::RW);
        }
        let packet = SwapPacket::new("trap", PacketKind::Transient, b.assemble());
        mem.set_schedule(vec![packet]);
        mem
    }

    /// Steps a copy of `core` one cycle with fetch cut to its first
    /// `width` instructions, and returns the copy's register state.
    fn replay(core: &Core, mem: &SwapMem, width: usize) -> RegState {
        let (mut core, mut mem) = (core.clone(), mem.clone());
        core.cfg.fetch_width = width;
        core.step(&mut mem);
        reg_state(&core)
    }

    /// One packet per exception the core raises, on both cores and in
    /// every IFT mode: when the packet's trap has committed, the register
    /// files and ready times equal their values just before the trapping
    /// instruction executed, so the younger instructions' writes (and a
    /// faulting load's forwarded write) are undone. The secret is
    /// protected before the packet runs, so loads and stores of it raise
    /// page faults; Meltdown forwarding hands the faulting data to the
    /// load's destination unless the case turns it off.
    #[test]
    fn traps_restore_the_state_before_the_trapping_instruction() {
        let store = |rs1, offset| Instr::Store {
            op: StoreOp::Sd,
            rs2: Reg::A0,
            rs1,
            offset,
        };
        // (expected cause, trapping instruction, forwarding on, the
        // trapping instruction itself writes a register, fetch forbidden)
        let cases = [
            (
                "load-misalign",
                Instr::ld(Reg::A0, Reg::T1, 1),
                true,
                true,
                false,
            ),
            (
                "load-access-fault",
                Instr::ld(Reg::A0, Reg::T2, 0),
                true,
                false,
                false,
            ),
            (
                "load-page-fault",
                Instr::ld(Reg::A0, Reg::T0, 0),
                true,
                true,
                false,
            ),
            (
                "load-page-fault",
                Instr::ld(Reg::A0, Reg::T0, 0),
                false,
                false,
                false,
            ),
            ("store-misalign", store(Reg::T1, 1), true, false, false),
            ("store-access-fault", store(Reg::T2, 0), true, false, false),
            ("store-page-fault", store(Reg::T0, 0), true, false, false),
            (
                "fetch-access-fault",
                Instr::addi(Reg::A0, Reg::ZERO, 7),
                true,
                false,
                true,
            ),
            ("ecall", Instr::Ecall, true, false, false),
            ("ebreak", Instr::Ebreak, true, false, false),
            ("illegal-instruction", Instr::Illegal(0), true, false, false),
        ];
        let mut causes: Vec<_> = cases.iter().map(|c| c.0).collect();
        causes.dedup();
        assert_eq!(causes.len(), 10, "one case per exception kind");
        for mut cfg in [boom_small(), xiangshan_minimal()] {
            for (cause, trapping, forward, forwards, no_exec) in cases {
                cfg.bugs.meltdown_forward = forward;
                let mem0 = trap_mem(trapping, no_exec);
                for mode in IftMode::ALL {
                    let what = format!("{} {cause} forward={forward} {mode:?}", cfg.name);
                    let (mut core, mut mem) = (Core::new(cfg, mode), mem0.clone());
                    core.start(&mut mem);
                    let mut before_trap = reg_state(&core);
                    while !core.done && core.cycle < 2_000 {
                        before_trap = reg_state(&core);
                        core.step(&mut mem);
                    }
                    assert!(core.done, "{what}: no trap");
                    let i = (0..core.rob.len())
                        .find(|&i| core.rob[i].committed && core.rob[i].exception.is_some())
                        .expect("the trapping entry");
                    let trap = core.rob[i].exception.expect("checked above");
                    assert_eq!(trap.mnemonic(), cause, "{what}");
                    let enq_cycle = core.trace.events().iter().find_map(|e| match *e {
                        RobEvent::Enq { cycle, idx, .. } if idx == i => Some(cycle),
                        _ => None,
                    });
                    // Run again to the trapping entry's fetch cycle, then
                    // replay that cycle up to and through the entry.
                    let (mut again, mut mem) = (Core::new(cfg, mode), mem0.clone());
                    again.start(&mut mem);
                    while again.cycle < enq_cycle.expect("enqueued") {
                        again.step(&mut mem);
                    }
                    let k = i - again.rob.len();
                    let before = replay(&again, &mem, k);
                    let after = replay(&again, &mem, k + 1);
                    assert!(reg_state(&core) == before, "{what}: restored state");
                    assert!(before_trap != before, "{what}: no younger write to undo");
                    assert_eq!(after != before, forwards, "{what}: trapping write");
                }
            }
        }
    }
}
