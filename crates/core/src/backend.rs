//! Pluggable simulation backends: the seam between the three-phase
//! pipeline and whatever actually simulates a stimulus.
//!
//! The paper's pipeline (Figure 5) is backend-agnostic in principle —
//! DejaVuzz drives RTL simulation of real cores — but the reproduction
//! historically hardwired the phases to the behavioural
//! [`dejavuzz_uarch::core::Core`]. [`SimBackend`] makes the seam a
//! first-class API:
//!
//! * [`BehaviouralBackend`] wraps the out-of-order core models,
//!   bit-for-bit identical to the old direct call (the pipeline
//!   determinism tests of `tests/pipeline.rs` hold unchanged);
//! * [`NetlistBackend`] drives the DIFT-instrumented compiled netlist
//!   simulator [`dejavuzz_rtl::sim::NetlistSim`] over the `synthetic_core` scales
//!   (or any custom netlist, e.g. the Figure 2 RoB-entry circuit),
//!   mapping [`SwapPacket`] stimulus onto netlist input ports and the
//!   per-cycle [`dejavuzz_ift::Census`] / final
//!   [`dejavuzz_ift::SinkReport`] sweep onto the shared
//!   [`dejavuzz_ift::TaintCoverage`] machinery.
//!
//! Both lower their observations into the backend-neutral [`RunOutcome`],
//! which is all `phases::{phase1, phase2, phase3}` consume. Backends are
//! selected by a cloneable [`BackendSpec`] so the executor can build one
//! simulator instance per worker thread; a misconfigured backend returns
//! a [`BackendError`] from [`SimBackend::run`], which fails that *run*
//! (counted in `CampaignStats::failed_runs`), never the whole campaign.
//!
//! A future external-RTL-simulator-process backend only has to implement
//! [`SimBackend`]; no further pipeline refactor is needed.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use dejavuzz_ift::{Census, IftMode, SinkReport, TWord, TaintLog};
use dejavuzz_isa::decode;
use dejavuzz_isa::instr::{Instr, Reg};
use dejavuzz_rtl::examples::{
    rob_entry_circuit, synthetic_core, CoreScale, BOOM_SCALE, SMALL_SCALE, XIANGSHAN_SCALE,
};
use dejavuzz_rtl::ir::{Netlist, NetlistError};
use dejavuzz_rtl::sim::{NetlistSim, SimState};
use dejavuzz_swapmem::{PacketKind, SwapMem, SwapPacket};
use dejavuzz_uarch::core::{Core, RunResult, TimingEvent};
use dejavuzz_uarch::trace::{RobEvent, Trace, WindowInfo};
use dejavuzz_uarch::{boom_small, CoreConfig};

use crate::gen::{TransientPlan, WindowType};
use crate::phases::{build_mem, load_mem, DEFAULT_SECRET};

/// Why a backend could not simulate a run.
///
/// Errors are *per-run*: the executor records them on the iteration
/// outcome and keeps fuzzing, so one bad configuration (or a transiently
/// broken external simulator, once one exists) cannot take down a
/// campaign. Variants are added as backends need them — an external
/// simulator backend will bring process/protocol errors of its own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// The netlist failed validation at a cell; carries the offending
    /// cell.
    InvalidNetlist {
        /// Index of the first invalid cell.
        cell: usize,
    },
    /// The netlist failed validation at a memory (no words, or a write
    /// port or liveness signal that does not exist).
    InvalidMemory {
        /// Index of the first invalid memory.
        mem: usize,
    },
    /// An I/O mapping names an input port the netlist does not have.
    NoSuchInput {
        /// Which stimulus role was mapped onto the missing port.
        role: &'static str,
        /// The mapped input index.
        index: usize,
        /// Number of input ports the netlist declares.
        inputs: usize,
    },
    /// A worker process of a [`crate::procbackend::ProcBackend`] pool failed this run after
    /// crash recovery was exhausted (the process died twice in a row, or
    /// kept replying with malformed frames).
    Worker {
        /// The transport's diagnosis, including the worker's exit status
        /// when it died.
        detail: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::InvalidNetlist { cell } => {
                write!(f, "netlist fails validation at cell {cell}")
            }
            BackendError::InvalidMemory { mem } => {
                write!(f, "netlist fails validation at memory {mem}")
            }
            BackendError::NoSuchInput {
                role,
                index,
                inputs,
            } => write!(
                f,
                "stimulus role {role:?} mapped to input {index}, but the netlist has {inputs} input port(s)"
            ),
            BackendError::Worker { detail } => {
                write!(f, "worker process failed: {detail}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

impl From<NetlistError> for BackendError {
    fn from(e: NetlistError) -> Self {
        match e {
            NetlistError::Cell(cell) => BackendError::InvalidNetlist { cell },
            NetlistError::Mem(mem) => BackendError::InvalidMemory { mem: mem.0 },
        }
    }
}

/// Backend-neutral result of one simulation: everything the three phases
/// consume, with no reference to which simulator produced it.
///
/// The behavioural [`RunResult`] lowers losslessly (the conversion is a
/// field move, keeping the old direct-call path bit-for-bit identical);
/// the netlist backend synthesises the trace from its stimulus protocol
/// and takes the taint log / sink sweep straight off the netlist state.
#[derive(Clone, Debug, Default)]
pub struct RunOutcome {
    /// RoB IO trace (window detection, Phase 1 trigger evaluation).
    pub trace: Trace,
    /// Per-cycle taint census (empty in [`IftMode::Base`]).
    pub taint_log: TaintLog,
    /// Final-state tainted-sink sweep with liveness bits.
    pub sinks: Vec<SinkReport>,
    /// Divergent contention observations (empty for backends without a
    /// two-plane timing model).
    pub timing_events: Vec<TimingEvent>,
    /// Total cycles, per plane.
    pub total_cycles: (u64, u64),
    /// Number of packets that ran.
    pub packets_run: usize,
}

impl RunOutcome {
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

impl From<RunResult> for RunOutcome {
    fn from(r: RunResult) -> Self {
        RunOutcome {
            trace: r.trace,
            taint_log: r.taint_log,
            sinks: r.sinks,
            timing_events: r.timing_events,
            total_cycles: r.total_cycles,
            packets_run: r.packets_run,
        }
    }
}

/// A simulation backend the phase pipeline can drive.
///
/// `Send` because the executor builds one backend per worker thread;
/// `Debug` so campaign types holding a boxed backend stay debuggable.
pub trait SimBackend: Send + fmt::Debug {
    /// Backend family name (`"behavioural"`, `"netlist"`).
    fn name(&self) -> &'static str;

    /// Name of the simulated design, used to attribute
    /// [`crate::report::BugReport`]s.
    fn dut_name(&self) -> &'static str;

    /// Whether non-[`IftMode::Base`] modes produce a meaningful taint log
    /// (all in-tree backends do; an external trace-replay backend might
    /// not).
    fn supports_taint(&self) -> bool;

    /// Whether the executor may answer a run a corpus pick repeats from
    /// a digest of an earlier answer instead of calling [`Self::run`]
    /// again. Returning true promises that a successful `run` is a pure
    /// function of `(plan, schedule, mode, max_cycles)`: it may not
    /// depend on which runs this or any other instance served before, on
    /// their order or on the host (a backend error is never reused).
    /// State an implementation keeps between runs, such as
    /// [`NetlistBackend`]'s checkpoint, must be invisible in its answers;
    /// `tests/backends.rs` checks this on the in-tree backends, which all
    /// return true.
    ///
    /// The default is false: every simulation the pipeline consumes then
    /// calls `run`, which a backend that is not pure, or that counts or
    /// times its calls, relies on.
    fn replayable(&self) -> bool {
        false
    }

    /// Simulates one schedule under `mode` with a `max_cycles` budget.
    /// A backend that is [`Self::replayable`] must answer as a pure
    /// function of `(plan, schedule, mode, max_cycles)`: the executor may
    /// answer a repeated request from a digest of its first answer.
    fn run(
        &mut self,
        plan: &TransientPlan,
        schedule: &[SwapPacket],
        mode: IftMode,
        max_cycles: u64,
    ) -> Result<RunOutcome, BackendError>;
}

/// The behavioural backend: the out-of-order core models of
/// `dejavuzz-uarch`, exactly as the phases called them before the seam
/// existed.
///
/// The backend builds its swap memory and its core on its first run and
/// resets them before every later one (the memory reloaded, the core in
/// the run's mode), which leaves each run's answer exactly what a fresh
/// [`build_mem`] and [`Core::new`] give.
#[derive(Clone)]
pub struct BehaviouralBackend {
    cfg: CoreConfig,
    /// The memory and core of the last run, if any ran.
    sim: Option<(SwapMem, Core)>,
}

impl fmt::Debug for BehaviouralBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BehaviouralBackend")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl BehaviouralBackend {
    /// A backend over one core configuration. Construction does no work:
    /// the swap memory and the core are built on the first run.
    pub fn new(cfg: CoreConfig) -> Self {
        BehaviouralBackend { cfg, sim: None }
    }

    /// The wrapped core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// The memory and core for a run of `schedule` in `mode`: built on
    /// the first run, reset (the memory reloaded) on every later one.
    fn reload(
        &mut self,
        plan: &TransientPlan,
        schedule: &[SwapPacket],
        mode: IftMode,
    ) -> (&mut SwapMem, &mut Core) {
        match &mut self.sim {
            Some((mem, core)) => {
                mem.reset_with_schedule(schedule);
                load_mem(mem, plan, &DEFAULT_SECRET);
                core.reset(mode);
            }
            None => {
                let mem = build_mem(plan, schedule, &DEFAULT_SECRET);
                self.sim = Some((mem, Core::new(self.cfg, mode)));
            }
        }
        let (mem, core) = self.sim.as_mut().expect("built above");
        (mem, core)
    }
}

impl SimBackend for BehaviouralBackend {
    fn name(&self) -> &'static str {
        "behavioural"
    }

    fn dut_name(&self) -> &'static str {
        self.cfg.name
    }

    fn supports_taint(&self) -> bool {
        true
    }

    fn replayable(&self) -> bool {
        true
    }

    fn run(
        &mut self,
        plan: &TransientPlan,
        schedule: &[SwapPacket],
        mode: IftMode,
        max_cycles: u64,
    ) -> Result<RunOutcome, BackendError> {
        let (mem, core) = self.reload(plan, schedule, mode);
        Ok(core.run(mem, max_cycles).into())
    }
}

/// Maps the stimulus protocol's roles onto a netlist's input ports.
///
/// The netlist backend reduces every instruction to three driven roles —
/// a *data* word (secret values enter here), a *control* bit (register /
/// memory write enable, e.g. `enq_valid` or `wen`) and an *index* word
/// (entry selector / write address, e.g. `rob_tail_idx` or `waddr`) —
/// plus auxiliary ports fed derived background words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetlistIo {
    /// Data input (secret enqueue / write data).
    pub data: usize,
    /// Control / write-enable input.
    pub control: usize,
    /// Index / address input.
    pub index: usize,
    /// Other inputs, driven with derived (untainted) words.
    pub aux: Vec<usize>,
}

impl NetlistIo {
    /// The roles, as [`BackendError::NoSuchInput`] names them.
    pub const ROLES: [&'static str; 4] = ["data", "control", "index", "aux"];

    /// Drives derived, untainted background stimulus for one instruction
    /// into a cycle's input vector `v`.
    fn drive_background(&self, v: &mut [TWord], word: u32, cycle: u64) {
        for (k, &a) in self.aux.iter().enumerate() {
            v[a] = TWord::lit(mix(word, cycle ^ ((k as u64) << 8)));
        }
        v[self.data] = TWord::lit(mix(word, 0xDA7A));
        v[self.control] = TWord::lit(0);
        v[self.index] = TWord::lit(mix(word, 0x1D) % 8);
    }

    /// Drives one speculative window instruction. Returns whether this
    /// instruction injected the secret (the access block).
    fn drive_window(&self, v: &mut [TWord], instr: Instr, word: u32, injected: &mut bool) {
        for &a in &self.aux {
            v[a] = TWord::lit(mix(word, 0x77));
        }
        let (sa, sb) = (secret_a(), !secret_a());
        let (data, control, index) = match instr {
            // The first load of the window is the secret access: the
            // two-plane secret enters the design at index 0.
            Instr::Load { .. } | Instr::FLoad { .. } if !*injected => {
                *injected = true;
                (TWord::secret(sa, sb), 1, 0)
            }
            // Encode stores persist secret-derived data at index 1 (kept
            // distinct from the access slot so sanitization can tell the
            // two apart).
            Instr::Store { .. } | Instr::FStore { .. } => {
                let m = mix(word, 0xEC0D);
                (TWord::with_taint(sa ^ m, sb ^ m, u64::MAX), 1, 1)
            }
            _ => (TWord::lit(mix(word, 0xDA7A)), 0, mix(word, 0x1D) % 8),
        };
        v[self.data] = data;
        v[self.control] = TWord::lit(control);
        v[self.index] = TWord::lit(index);
    }

    /// Drives the Figure 2 rollback cycle: control signals tainted but
    /// equal across variants, fresh untainted data.
    fn drive_rollback(&self, v: &mut [TWord]) {
        for &a in &self.aux {
            v[a] = TWord::lit(0);
        }
        v[self.data] = TWord::lit(0x55);
        v[self.control] = TWord::with_taint(1, 1, 1);
        v[self.index] = TWord::with_taint(2, 2, u64::MAX);
    }
}

/// Variant-1 plane of the planted secret.
fn secret_a() -> u64 {
    u64::from_le_bytes(DEFAULT_SECRET)
}

/// SplitMix64-style derivation of a deterministic stimulus word from an
/// instruction encoding. No RNG: the executor's determinism guarantee
/// (`same (seed, workers) ⇒ same results`) must hold for every backend.
fn mix(word: u32, salt: u64) -> u64 {
    let mut z = (word as u64 ^ salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The netlist backend: drives a [`NetlistSim`] with a stimulus protocol
/// derived from the swap schedule.
///
/// # Stimulus protocol
///
/// The netlist has no instruction decoder, so the backend *interprets*
/// the schedule at the harness level, one cycle per (non-padding)
/// instruction, and synthesises the RoB IO trace the phases analyse:
///
/// * Training packets and the transient packet's prologue drive derived,
///   untainted words (enqueue + commit events).
/// * Whether the transient window triggers is decided from the schedule
///   the way Phase 1 derives it: exception-class windows always trigger;
///   misprediction windows trigger only when a trigger-training packet
///   places the matching control-transfer instruction at the trained
///   address (so training reduction and the DejaVuzz* ablation keep their
///   semantics on this backend).
/// * Inside a triggered window the secret enters: the first load drives
///   `data` with the two-plane secret into index 0 (the access block);
///   stores drive secret-derived tainted data into index 1 (the encode
///   block — a sanitized re-run, whose encode block is `nop`s, leaves
///   index 1 clean, which is exactly what Phase 3's sanitization diff
///   needs). Window instructions enqueue without committing.
/// * The window closes with one *rollback* cycle reproducing Figure 2:
///   `control` and `index` go tainted-but-equal while `data` carries a
///   fresh untainted word — CellIFT's Policy 2 taints every selected
///   register, diffIFT's cross-instance gate keeps them clean — followed
///   by a squash event with the window type's expected cause.
///
/// The per-cycle [`NetlistSim::census`] forms the taint log (coverage),
/// and the final [`NetlistSim::sink_reports`] sweep forms the sinks. The
/// first run compiles the netlist into a [`NetlistSim`]; every later run
/// reuses that simulator instead of rebuilding it. The netlist simulator
/// has no two-plane timing model, so `total_cycles` is equal per plane
/// and `timing_events` stays empty (no Phase 3 timing violations —
/// leakage on this backend is found through encoded sinks).
///
/// # Lower, then simulate
///
/// The protocol reads no simulator state, so a run first lowers the
/// schedule into every cycle's full input vector plus the trace, then
/// simulates those vectors. The backend keeps one checkpoint: the
/// simulator state at a run's *clean point*, just before its first input
/// that is tainted or differs between the two planes, keyed by the run's
/// IFT mode and the exact input vectors of every cycle before it. A later
/// run in the same mode whose stimulus starts with exactly those vectors
/// and runs at least one cycle past them restores the checkpoint, replays
/// the prefix's taint-log entries and simulates only the rest; every
/// other run resets the simulator and starts from cycle 0. Each run then
/// saves its own clean point over the checkpoint, in place, unless it
/// restored exactly that point or has no clean cycle at all.
///
/// Between a slot's runs only the transient window changes — Phase 2's
/// mutation retries regenerate it, Phase 3's sanitized re-run replaces
/// its encode block — so those runs skip the shared training-and-prologue
/// prefix. A restored state is bit-identical to simulating the prefix
/// again, so an outcome never depends on which runs came before it.
/// [`NetlistBackend::restored_cycles`] counts the cycles skipped.
#[derive(Clone, Debug)]
pub struct NetlistBackend {
    dut: &'static str,
    io: NetlistIo,
    /// The design until the first run moves it into `sim`.
    netlist: Netlist,
    /// The compiled simulator, reused by every run after the first.
    sim: Option<NetlistSim>,
    checkpoint: Checkpoint,
    restored_cycles: u64,
}

/// A schedule lowered for the simulator: each cycle's full input vector,
/// plus the RoB trace the protocol synthesises alongside it.
#[derive(Debug, Default)]
struct Stimulus {
    /// Input ports per cycle (at least one: the I/O mapping is checked
    /// against the netlist first).
    width: usize,
    /// `width` words per simulated cycle, cycle by cycle.
    inputs: Vec<TWord>,
    trace: Trace,
    packets_run: usize,
}

impl Stimulus {
    /// Lowers a schedule under a `max_cycles` budget.
    fn lower(
        io: &NetlistIo,
        width: usize,
        plan: &TransientPlan,
        schedule: &[SwapPacket],
        max_cycles: u64,
    ) -> Stimulus {
        let mut stim = Stimulus {
            width,
            ..Stimulus::default()
        };
        // Ports hold their value until driven again, from reset's zero.
        let mut v = vec![TWord::lit(0); width];
        let trace = &mut stim.trace;
        let mut cycle: u64 = 0;
        let mut idx: usize = 0;
        let triggered = NetlistBackend::schedule_triggers(plan, schedule);
        let win_lo = plan.window_addr;
        let win_hi = plan.window_addr + 4 * plan.window_slots as u64;
        let cause = plan.window_type.expected_cause();

        'packets: for (pi, packet) in schedule.iter().enumerate() {
            stim.packets_run += 1;
            let transient = packet.kind == PacketKind::Transient;
            let mut injected = false;
            let mut window_after_idx = None;
            let mut window_enqueued = 0usize;
            for (wi, &word) in packet.program.words.iter().enumerate() {
                let addr = packet.program.base + 4 * wi as u64;
                let instr = decode(word);
                let in_window = transient && (win_lo..win_hi).contains(&addr);
                // Compress alignment padding outside the window; inside it
                // every slot is a (possibly dummy) speculative instruction.
                if !in_window && instr == Instr::NOP {
                    continue;
                }
                if transient && !triggered && addr >= win_lo {
                    break; // the untrained trigger falls through; the
                           // window body is never fetched
                }
                if cycle >= max_cycles {
                    break 'packets; // budget exhausted: no squash, so the
                                    // run reads as untriggered
                }
                if in_window {
                    if window_after_idx.is_none() {
                        window_after_idx = Some(idx.saturating_sub(1));
                    }
                    io.drive_window(&mut v, instr, word, &mut injected);
                    trace.push(RobEvent::Enq {
                        cycle,
                        skew_b: 0,
                        idx,
                        pc: addr,
                        packet: pi,
                    });
                    window_enqueued += 1;
                } else {
                    io.drive_background(&mut v, word, cycle);
                    trace.push(RobEvent::Enq {
                        cycle,
                        skew_b: 0,
                        idx,
                        pc: addr,
                        packet: pi,
                    });
                    trace.push(RobEvent::Commit {
                        cycle,
                        skew_b: 0,
                        idx,
                    });
                }
                idx += 1;
                stim.inputs.extend_from_slice(&v);
                cycle += 1;
            }
            // Close a triggered window with the rollback + squash.
            if let Some(after_idx) = window_after_idx {
                if window_enqueued > 0 && cycle < max_cycles {
                    io.drive_rollback(&mut v);
                    stim.inputs.extend_from_slice(&v);
                    trace.push(RobEvent::Squash {
                        cycle,
                        skew_b: 0,
                        after_idx,
                        killed: window_enqueued,
                        cause,
                    });
                    cycle += 1;
                }
            }
        }
        stim
    }

    /// Simulated cycles.
    fn cycles(&self) -> usize {
        self.inputs.len() / self.width
    }

    /// The input vectors of cycles `range`.
    fn vectors(&self, range: Range<usize>) -> &[TWord] {
        &self.inputs[range.start * self.width..range.end * self.width]
    }

    /// The clean point: how many cycles pass before the first
    /// secret-dependent input, one that is tainted or differs between the
    /// two planes. A stimulus that never drives one is clean throughout.
    fn clean_cycles(&self) -> usize {
        let dirty = |v: &[TWord]| v.iter().any(|w| w.is_tainted() || w.a != w.b);
        let mut vectors = self.inputs.chunks_exact(self.width);
        vectors.position(dirty).unwrap_or(self.cycles())
    }

    /// Drives and clocks cycles `range` on `sim`, logging each cycle's
    /// census outside Base mode.
    fn simulate(&self, sim: &mut NetlistSim, range: Range<usize>, taint_log: &mut TaintLog) {
        let mode = sim.mode();
        let mut census = Census::new();
        for v in self.vectors(range).chunks_exact(self.width) {
            for (port, &w) in v.iter().enumerate() {
                sim.set_input(port, w);
            }
            sim.step();
            if mode != IftMode::Base {
                sim.census_into(&mut census);
                taint_log.push_ref(&census);
            }
        }
    }
}

/// A [`NetlistBackend`]'s one checkpoint: the simulator state at some
/// run's clean point, with the key a later run must match exactly — the
/// state's IFT mode and the input vectors of every cycle before it.
#[derive(Clone, Debug, Default)]
struct Checkpoint {
    /// Saved after `state.cycle()` cycles of its run (0 while nothing is
    /// saved), in `state.mode()`.
    state: SimState,
    /// The input vectors of those cycles.
    prefix: Vec<TWord>,
    /// Their taint-log entries (none in Base mode).
    taint_log: TaintLog,
}

impl Checkpoint {
    /// Cycles before the saved state.
    fn cycles(&self) -> usize {
        self.state.cycle() as usize
    }

    /// Whether a run of `stim` in `mode` may resume here: it starts with
    /// exactly this prefix and simulates at least one cycle past it, since
    /// sink liveness reads combinational values a checkpoint does not
    /// carry.
    fn fits(&self, stim: &Stimulus, mode: IftMode) -> bool {
        let cycles = self.cycles();
        cycles > 0
            && self.state.mode() == mode
            && stim.cycles() > cycles
            && stim.vectors(0..cycles) == self.prefix
    }

    /// Overwrites the checkpoint with `sim`'s state, which has simulated
    /// the first `sim.cycle()` cycles of `stim`.
    fn save(&mut self, sim: &NetlistSim, stim: &Stimulus, taint_log: &TaintLog) {
        sim.save(&mut self.state);
        let cycles = self.cycles();
        self.prefix.clear();
        self.prefix.extend_from_slice(stim.vectors(0..cycles));
        self.taint_log.clone_from(taint_log);
    }
}

impl NetlistBackend {
    /// A backend over an arbitrary netlist with an explicit I/O mapping.
    ///
    /// The netlist and the mapping are validated lazily at
    /// [`SimBackend::run`], so a misconfiguration fails runs (reported
    /// per-iteration) rather than construction, and construction does no
    /// work: the netlist is compiled on the first run.
    pub fn new(dut: &'static str, netlist: Netlist, io: NetlistIo) -> Self {
        NetlistBackend {
            dut,
            io,
            netlist,
            sim: None,
            checkpoint: Checkpoint::default(),
            restored_cycles: 0,
        }
    }

    /// A backend over a [`synthetic_core`] scale: `data`→`wdata`,
    /// `control`→`wen`, `index`→`waddr`, aux→the comb-cloud inputs.
    pub fn synthetic(scale: CoreScale) -> Self {
        NetlistBackend::new(
            scale.name,
            synthetic_core(scale),
            NetlistIo {
                data: 4,
                control: 2,
                index: 3,
                aux: vec![0, 1],
            },
        )
    }

    /// A backend over the Figure 2 RoB-entry circuit: `data`→`enq_uopc`,
    /// `control`→`enq_valid`, `index`→`rob_tail_idx`.
    pub fn rob_entry(entries: usize) -> Self {
        NetlistBackend::new(
            "rob-entry",
            rob_entry_circuit(entries).netlist,
            NetlistIo {
                data: 0,
                control: 1,
                index: 2,
                aux: vec![],
            },
        )
    }

    /// The wrapped netlist.
    pub fn netlist(&self) -> &Netlist {
        self.sim.as_ref().map_or(&self.netlist, NetlistSim::netlist)
    }

    /// Cycles this backend's runs restored from its checkpoint instead of
    /// simulating, summed over every run so far.
    pub fn restored_cycles(&self) -> u64 {
        self.restored_cycles
    }

    /// Decodes the instruction at `addr` in a packet, if it is in range.
    fn instr_at(p: &SwapPacket, addr: u64) -> Option<Instr> {
        if addr < p.program.base || !addr.is_multiple_of(4) {
            return None;
        }
        let i = ((addr - p.program.base) / 4) as usize;
        p.program.words.get(i).map(|&w| decode(w))
    }

    /// Whether a training packet trains this plan's trigger: the matching
    /// control-transfer instruction sits at the trained address (derived
    /// trainings always do; DejaVuzz*'s random packets only by luck).
    fn trains(plan: &TransientPlan, p: &SwapPacket) -> bool {
        match plan.window_type.base() {
            WindowType::BranchMispredict => {
                matches!(
                    Self::instr_at(p, plan.trigger_addr),
                    Some(Instr::Branch { .. })
                )
            }
            WindowType::IndirectMispredict => {
                matches!(
                    Self::instr_at(p, plan.trigger_addr),
                    Some(Instr::Jalr { .. })
                )
            }
            WindowType::ReturnMispredict => matches!(
                Self::instr_at(p, plan.window_addr - 4),
                Some(Instr::Jal { rd: Reg::RA, .. })
            ),
            _ => true,
        }
    }

    /// Phase-1 semantics of the protocol: does this schedule open the
    /// transient window?
    fn schedule_triggers(plan: &TransientPlan, schedule: &[SwapPacket]) -> bool {
        if !plan.window_type.is_mispredict() {
            return true; // exceptions/disambiguation need no training
        }
        schedule
            .iter()
            .any(|p| p.kind == PacketKind::TriggerTraining && Self::trains(plan, p))
    }
}

impl SimBackend for NetlistBackend {
    fn name(&self) -> &'static str {
        "netlist"
    }

    fn dut_name(&self) -> &'static str {
        self.dut
    }

    fn supports_taint(&self) -> bool {
        true
    }

    fn replayable(&self) -> bool {
        true
    }

    fn run(
        &mut self,
        plan: &TransientPlan,
        schedule: &[SwapPacket],
        mode: IftMode,
        max_cycles: u64,
    ) -> Result<RunOutcome, BackendError> {
        // Fail a misconfigured backend per-run, not per-campaign.
        let inputs = match &self.sim {
            Some(sim) => sim.input_count(),
            None => self.netlist.input_count(),
        };
        let ports = [self.io.data, self.io.control, self.io.index];
        let aux = self.io.aux.iter().map(|&a| (a, NetlistIo::ROLES[3]));
        for (index, role) in ports.into_iter().zip(NetlistIo::ROLES).chain(aux) {
            if index >= inputs {
                return Err(BackendError::NoSuchInput {
                    role,
                    index,
                    inputs,
                });
            }
        }
        let NetlistBackend {
            io,
            netlist,
            sim,
            checkpoint,
            restored_cycles,
            ..
        } = self;
        let sim = match sim {
            Some(sim) => sim,
            None => {
                // A netlist that fails stays put, so every run fails alike.
                netlist.validate()?;
                sim.insert(NetlistSim::try_new(std::mem::take(netlist), mode)?)
            }
        };

        let stim = Stimulus::lower(io, sim.input_count(), plan, schedule, max_cycles);
        let mut taint_log = TaintLog::new();
        let mut start = 0;
        if checkpoint.fits(&stim, mode) {
            sim.restore(&checkpoint.state);
            taint_log.clone_from(&checkpoint.taint_log);
            start = checkpoint.cycles();
            *restored_cycles += start as u64;
        } else {
            sim.reset(mode);
        }
        // A restored run's clean point is never before the checkpoint's:
        // the prefix it matched is clean.
        let clean = stim.clean_cycles().max(start);
        stim.simulate(sim, start..clean, &mut taint_log);
        if clean > start {
            checkpoint.save(sim, &stim, &taint_log);
        }
        stim.simulate(sim, clean..stim.cycles(), &mut taint_log);

        let cycles = stim.cycles() as u64;
        Ok(RunOutcome {
            trace: stim.trace,
            taint_log,
            sinks: sim.sink_reports(),
            timing_events: Vec::new(),
            total_cycles: (cycles, cycles),
            packets_run: stim.packets_run,
        })
    }
}

/// Cloneable backend configuration: what campaign/executor constructors
/// accept, and what each worker thread builds its own simulator from.
///
/// `Default` is the behavioural SmallBOOM model, so existing
/// `CoreConfig`-positional call sites keep their behaviour through the
/// thin compatibility constructors.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::large_enum_variant)] // a handful of specs per campaign; boxing buys nothing
pub enum BackendSpec {
    /// Behavioural out-of-order core model.
    Behavioural(CoreConfig),
    /// DIFT-instrumented compiled netlist simulator over a synthetic core
    /// scale.
    Netlist(CoreScale),
    /// A custom backend supplied through
    /// [`crate::builder::CampaignBuilder::backend_ctor`], labelled
    /// `ext:<id>`. Snapshots echo the label, so a campaign run on a custom
    /// backend resumes only under a builder given a constructor with the
    /// same id.
    Extension {
        /// The id the label and snapshots carry.
        id: String,
        /// Builds one simulator per worker thread.
        ctor: BackendCtor,
    },
    /// A crash-isolated pool of `dejavuzz-simd` worker processes, each
    /// serving the *inner* backend over the framed stdio protocol of
    /// [`crate::procproto`]. Labelled `proc:<inner>:<M>`, so snapshots
    /// echo the pool geometry.
    Proc(ProcSpec),
}

/// A custom backend's constructor ([`BackendSpec::Extension`]). All
/// constructors compare equal: an extension spec is identified by its
/// id.
#[derive(Clone)]
pub struct BackendCtor(pub(crate) Arc<dyn Fn() -> Box<dyn SimBackend> + Send + Sync>);

impl fmt::Debug for BackendCtor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BackendCtor")
    }
}

impl PartialEq for BackendCtor {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Configuration of a [`BackendSpec::Proc`] worker pool.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcSpec {
    /// The inner backend argument as the worker will re-parse it
    /// (e.g. `"netlist:boom"`).
    pub inner_arg: String,
    /// The locally-parsed inner spec (validates the argument up front;
    /// the worker parses `inner_arg` itself and must agree).
    pub inner: Box<BackendSpec>,
    /// Worker process count `M` (>= 1).
    pub pool: usize,
    /// Behavioural core configuration name sent in the handshake, so a
    /// `proc:behavioural:M` worker builds the same core the embedder
    /// would have built in-process.
    pub core: String,
}

impl Default for BackendSpec {
    fn default() -> Self {
        BackendSpec::Behavioural(boom_small())
    }
}

impl BackendSpec {
    /// A behavioural spec.
    pub fn behavioural(cfg: CoreConfig) -> Self {
        BackendSpec::Behavioural(cfg)
    }

    /// A netlist spec over a synthetic core scale.
    pub fn netlist(scale: CoreScale) -> Self {
        BackendSpec::Netlist(scale)
    }

    /// Parses a `--backend` CLI value: `behavioural` (using
    /// `behavioural_cfg`), `netlist[:small|boom|xiangshan]`, or
    /// `proc:<inner>:<M>` for a worker-process pool of `M` processes each
    /// serving `<inner>`.
    pub fn parse(s: &str, behavioural_cfg: CoreConfig) -> Result<Self, String> {
        if let Some(rest) = s.strip_prefix("proc:") {
            let Some((inner_arg, pool_str)) = rest.rsplit_once(':') else {
                return Err(format!(
                    "unknown proc backend {s:?} (expected proc:<inner>:<M>, e.g. proc:netlist:small:4)"
                ));
            };
            let pool: usize = pool_str
                .parse()
                .map_err(|_| format!("invalid proc pool size {pool_str:?} in {s:?}"))?;
            if pool == 0 {
                return Err(format!("proc pool size must be >= 1 in {s:?}"));
            }
            if inner_arg.starts_with("proc:") {
                return Err(format!("proc pools do not nest: {s:?}"));
            }
            let inner = BackendSpec::parse(inner_arg, behavioural_cfg)?;
            return Ok(BackendSpec::Proc(ProcSpec {
                inner_arg: inner_arg.to_string(),
                inner: Box::new(inner),
                pool,
                core: behavioural_cfg.name.to_string(),
            }));
        }
        match s {
            "behavioural" | "behavioral" => Ok(BackendSpec::Behavioural(behavioural_cfg)),
            "netlist" => Ok(BackendSpec::Netlist(SMALL_SCALE)),
            _ => match s.strip_prefix("netlist:") {
                Some("small") => Ok(BackendSpec::Netlist(SMALL_SCALE)),
                Some("boom") => Ok(BackendSpec::Netlist(BOOM_SCALE)),
                Some("xiangshan") => Ok(BackendSpec::Netlist(XIANGSHAN_SCALE)),
                Some(other) => Err(format!(
                    "unknown netlist scale {other:?} (expected small|boom|xiangshan)"
                )),
                None => Err(format!(
                    "unknown backend {s:?} (expected behavioural, netlist:<scale> or proc:<inner>:<M>)"
                )),
            },
        }
    }

    /// Human-readable label (`behavioural:BOOM`, `netlist:SynthSmall`,
    /// `ext:<id>`) — also the backend-identity echo campaign snapshots
    /// validate on resume.
    pub fn label(&self) -> String {
        match self {
            BackendSpec::Behavioural(cfg) => format!("behavioural:{}", cfg.name),
            BackendSpec::Netlist(scale) => format!("netlist:{}", scale.name),
            BackendSpec::Extension { id, .. } => format!("ext:{id}"),
            BackendSpec::Proc(spec) => format!("proc:{}:{}", spec.inner_arg, spec.pool),
        }
    }

    /// Builds a fresh backend instance (one per worker thread).
    ///
    /// # Panics
    ///
    /// Panics if this is a [`BackendSpec::Proc`] whose pool cannot start
    /// — go through [`crate::builder::CampaignBuilder`] (or
    /// [`BackendSpec::try_build`]) for a structured
    /// [`crate::builder::BuildError`] instead.
    pub fn build(&self) -> Box<dyn SimBackend> {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`BackendSpec::build`], with a pool that cannot start reported as
    /// a [`crate::builder::BuildError::ProcPool`].
    pub fn try_build(&self) -> Result<Box<dyn SimBackend>, crate::builder::BuildError> {
        match self {
            BackendSpec::Behavioural(cfg) => Ok(Box::new(BehaviouralBackend::new(*cfg))),
            BackendSpec::Netlist(scale) => Ok(Box::new(NetlistBackend::synthetic(*scale))),
            BackendSpec::Extension { ctor, .. } => Ok((ctor.0)()),
            // Direct embedding path: a dedicated pool owned by this one
            // backend value. Campaigns built through the
            // `CampaignBuilder` instead spawn one pool at `build()` and
            // share it across all worker threads.
            BackendSpec::Proc(spec) => {
                let shared = crate::procbackend::spawn_shared(spec).map_err(|detail| {
                    crate::builder::BuildError::ProcPool {
                        spec: self.label(),
                        detail,
                    }
                })?;
                Ok(Box::new(crate::procbackend::ProcBackend::from_shared(
                    shared,
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Seed, WindowFill};
    use crate::phases::PhaseOptions;

    #[test]
    fn proc_specs_parse_with_pinned_errors() {
        let spec = BackendSpec::parse("proc:netlist:boom:4", boom_small()).unwrap();
        match &spec {
            BackendSpec::Proc(p) => {
                assert_eq!(p.inner_arg, "netlist:boom");
                assert_eq!(*p.inner, BackendSpec::Netlist(BOOM_SCALE));
                assert_eq!(p.pool, 4);
                assert_eq!(p.core, "BOOM");
            }
            other => panic!("parsed {other:?}"),
        }
        assert_eq!(spec.label(), "proc:netlist:boom:4");

        // The behavioural core config threads through to the inner spec.
        let spec = BackendSpec::parse("proc:behavioural:2", boom_small()).unwrap();
        assert_eq!(spec.label(), "proc:behavioural:2");

        let err = BackendSpec::parse("proc:netlist", boom_small()).unwrap_err();
        assert!(err.contains("expected proc:<inner>:<M>"), "{err}");
        let err = BackendSpec::parse("proc:netlist:boom:0", boom_small()).unwrap_err();
        assert_eq!(
            err,
            "proc pool size must be >= 1 in \"proc:netlist:boom:0\""
        );
        let err = BackendSpec::parse("proc:netlist:boom:x", boom_small()).unwrap_err();
        assert_eq!(
            err,
            "invalid proc pool size \"x\" in \"proc:netlist:boom:x\""
        );
        let err = BackendSpec::parse("proc:bogus:2", boom_small()).unwrap_err();
        assert!(err.contains("unknown backend \"bogus\""), "{err}");
        let err = BackendSpec::parse("proc:proc:netlist:small:2:2", boom_small()).unwrap_err();
        assert_eq!(
            err,
            "proc pools do not nest: \"proc:proc:netlist:small:2:2\""
        );
    }

    fn schedule_for(seed: &Seed) -> (TransientPlan, Vec<SwapPacket>) {
        let plan = gen::plan(seed);
        let mut schedule = gen::derive_trainings(seed, &plan, 1);
        schedule.push(gen::build_transient(&plan, &WindowFill::Dummy));
        (plan, schedule)
    }

    #[test]
    fn behavioural_backend_matches_direct_core_run() {
        let seed = Seed::new(WindowType::MemPageFault, 3);
        let (plan, schedule) = schedule_for(&seed);
        let opts = PhaseOptions::default();
        let mut backend = BehaviouralBackend::new(boom_small());
        let out = backend
            .run(&plan, &schedule, IftMode::DiffIft, opts.max_cycles)
            .unwrap();
        let mut mem = build_mem(&plan, &schedule, &DEFAULT_SECRET);
        let direct: RunOutcome = Core::new(boom_small(), IftMode::DiffIft)
            .run(&mut mem, opts.max_cycles)
            .into();
        assert_eq!(out.total_cycles, direct.total_cycles);
        assert_eq!(out.trace.events(), direct.trace.events());
        assert_eq!(out.taint_log.taint_sums(), direct.taint_log.taint_sums());
        assert_eq!(backend.name(), "behavioural");
        assert_eq!(backend.dut_name(), "BOOM");
        assert!(backend.supports_taint());
    }

    /// After runs of every window type, each with a full window body that
    /// stores, in every IFT mode, the backend's reloaded memory is exactly
    /// the memory `build_mem` builds for the next request, and its reset
    /// core a new core in the next request's mode.
    #[test]
    fn behavioural_backend_reloads_a_fresh_memory() {
        let requests: Vec<(TransientPlan, Vec<SwapPacket>)> = WindowType::ALL
            .iter()
            .map(|&window_type| {
                let seed = Seed::new(window_type, 2);
                let plan = gen::plan(&seed);
                let body = gen::complete_window(&seed, &plan);
                let mut schedule = gen::derive_trainings(&seed, &plan, 1);
                schedule.push(gen::build_transient(&plan, &WindowFill::Body(body.full())));
                (plan, schedule)
            })
            .collect();
        let mut backend = BehaviouralBackend::new(boom_small());
        let mode = |i: usize| IftMode::ALL[i % IftMode::ALL.len()];
        for (i, (plan, schedule)) in requests.iter().enumerate() {
            backend.run(plan, schedule, mode(i), 20_000).unwrap();
            let (plan, schedule) = &requests[(i + 1) % requests.len()];
            let fresh = build_mem(plan, schedule, &DEFAULT_SECRET);
            let (mem, core) = backend.reload(plan, schedule, mode(i + 1));
            assert!(*mem == fresh, "memory after run {i}");
            assert!(
                *core == Core::new(boom_small(), mode(i + 1)),
                "core after run {i}"
            );
        }
    }

    #[test]
    fn netlist_backend_triggers_exception_windows_untrained() {
        let seed = Seed::new(WindowType::MemPageFault, 1);
        let plan = gen::plan(&seed);
        let schedule = vec![gen::build_transient(&plan, &WindowFill::Dummy)];
        let mut backend = NetlistBackend::synthetic(SMALL_SCALE);
        let out = backend
            .run(&plan, &schedule, IftMode::Base, 20_000)
            .unwrap();
        let w = out
            .trace
            .window_in_packet_caused(0, Some(plan.window_type.expected_cause()))
            .expect("window detected");
        assert!(w.triggered());
        assert!(out.taint_log.is_empty(), "Base mode logs no census");
    }

    #[test]
    fn netlist_backend_mispredict_needs_matching_training() {
        let seed = Seed::new(WindowType::BranchMispredict, 5);
        let (plan, schedule) = schedule_for(&seed);
        let mut backend = NetlistBackend::synthetic(SMALL_SCALE);
        let trained = backend
            .run(&plan, &schedule, IftMode::Base, 20_000)
            .unwrap();
        assert!(trained
            .trace
            .window_in_packet_caused(schedule.len() - 1, Some("branch-mispredict"))
            .is_some_and(|w| w.triggered()));
        // Remove every targeted training packet: the window must close.
        let untrained: Vec<SwapPacket> = schedule
            .iter()
            .filter(|p| !NetlistBackend::trains(&plan, p))
            .cloned()
            .collect();
        let out = backend
            .run(&plan, &untrained, IftMode::Base, 20_000)
            .unwrap();
        assert!(out
            .trace
            .window_in_packet_caused(untrained.len() - 1, Some("branch-mispredict"))
            .is_none());
    }

    #[test]
    fn netlist_backend_window_taints_and_sinks() {
        let seed = Seed::new(WindowType::MemPageFault, 2);
        let plan = gen::plan(&seed);
        let body = gen::complete_window(&seed, &plan);
        let schedule = vec![gen::build_transient(&plan, &WindowFill::Body(body.full()))];
        let mut backend = NetlistBackend::synthetic(SMALL_SCALE);
        let out = backend
            .run(&plan, &schedule, IftMode::DiffIft, 20_000)
            .unwrap();
        let w = out.window_in_packet(0).expect("window");
        assert!(out
            .taint_log
            .taint_increased_in(w.start_cycle as usize, w.end_cycle as usize + 1));
        assert!(!out.timing_diverged(), "no two-plane timing model");
    }

    /// Asserts a reused backend's outcome equals a fresh backend's.
    fn assert_same_outcome(reused: &RunOutcome, fresh: &RunOutcome, what: &str) {
        assert_eq!(reused.trace.events(), fresh.trace.events(), "{what}");
        assert!(reused.taint_log.iter().eq(fresh.taint_log.iter()), "{what}");
        assert_eq!(reused.sinks, fresh.sinks, "{what}");
        assert_eq!(reused.total_cycles, fresh.total_cycles, "{what}");
        assert_eq!(reused.packets_run, fresh.packets_run, "{what}");
    }

    #[test]
    fn netlist_backend_reuse_matches_fresh_backends() {
        let seed = Seed::new(WindowType::MemPageFault, 2);
        let plan = gen::plan(&seed);
        let body = gen::complete_window(&seed, &plan);
        let schedule = vec![gen::build_transient(&plan, &WindowFill::Body(body.full()))];
        let mut reused = NetlistBackend::synthetic(SMALL_SCALE);
        for mode in [
            IftMode::Base,
            IftMode::DiffIft,
            IftMode::Base,
            IftMode::CellIft,
        ] {
            let a = reused.run(&plan, &schedule, mode, 20_000).unwrap();
            let b = NetlistBackend::synthetic(SMALL_SCALE)
                .run(&plan, &schedule, mode, 20_000)
                .unwrap();
            assert_same_outcome(&a, &b, &format!("{mode:?}"));
        }
        assert_eq!(
            reused.netlist().cell_count(),
            synthetic_core(SMALL_SCALE).cell_count(),
            "the compiled simulator still exposes its netlist"
        );

        // Runs that share a clean prefix restore the checkpoint; each
        // outcome still equals a fresh backend's.
        let seed = Seed::new(WindowType::BranchMispredict, 5);
        let (plan, trainings) = schedule_for(&seed);
        let trainings = &trainings[..trainings.len() - 1];
        let with = |trainings: &[SwapPacket], fill: WindowFill| {
            let mut schedule = trainings.to_vec();
            schedule.push(gen::build_transient(&plan, &fill));
            schedule
        };
        let body = |seed: &Seed| gen::complete_window(seed, &plan);
        let (once, twice) = (seed.mutate(), seed.mutate().mutate());
        let full = with(trainings, WindowFill::Body(body(&seed).full()));
        let mutated = with(trainings, WindowFill::Body(body(&once).full()));
        let mutated_twice = with(trainings, WindowFill::Body(body(&twice).full()));
        let sanitized = with(trainings, WindowFill::Sanitized(body(&seed).sanitized()));
        let fewer = gen::derive_trainings(&seed, &plan, 0);
        let other_set = with(&fewer, WindowFill::Body(body(&seed).full()));
        let other_set_mutated = with(&fewer, WindowFill::Body(body(&once).full()));
        let small = NetlistBackend::synthetic(SMALL_SCALE);
        let width = small.netlist.input_count();
        let clean = Stimulus::lower(&small.io, width, &plan, &full, 20_000).clean_cycles() as u64;
        assert!(clean > 1, "the schedule has a clean prefix to skip");
        let (base, cell, diff, all) = (IftMode::Base, IftMode::CellIft, IftMode::DiffIft, 20_000);
        // (what, schedule, mode, max_cycles, restores the checkpoint)
        let steps = [
            ("first body", &full, diff, all, false),
            ("mutated body", &mutated, diff, all, true),
            ("twice-mutated body", &mutated_twice, diff, all, true),
            ("sanitized body", &sanitized, diff, all, true),
            ("Base run in between", &full, base, all, false),
            ("Base mutated body", &mutated, base, all, true),
            ("diffIFT after Base", &full, diff, all, false),
            ("different training set", &other_set, diff, all, false),
            ("its mutated body", &other_set_mutated, diff, all, true),
            ("back to the first set", &full, diff, all, false),
            ("budget ends at the clean point", &full, diff, clean, false),
            ("budget ends before it", &full, diff, clean - 1, false),
            ("whole run after a short one", &full, diff, all, true),
            ("CellIFT, same prefix", &full, cell, all, false),
            ("CellIFT mutated body", &mutated, cell, all, true),
        ];
        let mut reused = NetlistBackend::synthetic(SMALL_SCALE);
        for (what, schedule, mode, max_cycles, restores) in steps {
            let before = reused.restored_cycles();
            let a = reused.run(&plan, schedule, mode, max_cycles).unwrap();
            let b = NetlistBackend::synthetic(SMALL_SCALE)
                .run(&plan, schedule, mode, max_cycles)
                .unwrap();
            assert_same_outcome(&a, &b, what);
            assert_eq!(reused.restored_cycles() > before, restores, "{what}");
        }
    }

    #[test]
    fn clean_point_is_the_first_secret_dependent_input() {
        let clean = |cycles: &[TWord]| {
            let stim = Stimulus {
                width: 2,
                inputs: cycles.iter().flat_map(|&w| [TWord::lit(7), w]).collect(),
                ..Stimulus::default()
            };
            stim.clean_cycles()
        };
        let lit = TWord::lit(1);
        let tainted = TWord::with_taint(1, 1, 1);
        let differs = TWord { a: 1, b: 2, t: 0 };
        assert_eq!(clean(&[lit, lit, tainted, lit]), 2, "tainted, equal planes");
        assert_eq!(clean(&[lit, differs, lit]), 1, "untainted, planes differ");
        assert_eq!(clean(&[tainted]), 0);
        assert_eq!(clean(&[lit, lit, lit]), 3, "clean throughout");
    }

    #[test]
    fn misconfigured_io_fails_the_run_not_the_process() {
        let seed = Seed::new(WindowType::IllegalInstr, 0);
        let (plan, schedule) = schedule_for(&seed);
        let mut backend = NetlistBackend::new(
            "broken",
            synthetic_core(SMALL_SCALE),
            NetlistIo {
                data: 99,
                control: 2,
                index: 3,
                aux: vec![],
            },
        );
        let err = backend
            .run(&plan, &schedule, IftMode::Base, 1_000)
            .unwrap_err();
        assert!(matches!(
            err,
            BackendError::NoSuchInput { role: "data", .. }
        ));
        assert!(err.to_string().contains("input 99"));
    }

    #[test]
    fn backend_spec_parses_and_builds() {
        let cfg = boom_small();
        assert_eq!(
            BackendSpec::parse("behavioural", cfg).unwrap(),
            BackendSpec::Behavioural(cfg)
        );
        assert_eq!(
            BackendSpec::parse("netlist:small", cfg).unwrap(),
            BackendSpec::Netlist(SMALL_SCALE)
        );
        assert_eq!(
            BackendSpec::parse("netlist:xiangshan", cfg).unwrap(),
            BackendSpec::Netlist(XIANGSHAN_SCALE)
        );
        assert!(BackendSpec::parse("netlist:huge", cfg).is_err());
        assert!(BackendSpec::parse("verilator", cfg).is_err());
        for bad in ["ext:my-sim", "proc:ext:my-sim:2"] {
            assert_eq!(
                BackendSpec::parse(bad, cfg).unwrap_err(),
                "unknown backend \"ext:my-sim\" (expected behavioural, netlist:<scale> or proc:<inner>:<M>)"
            );
        }
        let ext = BackendSpec::Extension {
            id: "my-sim".into(),
            ctor: BackendCtor(Arc::new(|| BackendSpec::default().build())),
        };
        assert_eq!(ext.label(), "ext:my-sim");
        assert_eq!(ext.build().name(), "behavioural");
        assert_eq!(BackendSpec::default().build().name(), "behavioural");
        assert_eq!(BackendSpec::netlist(BOOM_SCALE).build().dut_name(), "BOOM");
        assert_eq!(
            BackendSpec::netlist(SMALL_SCALE).label(),
            "netlist:SynthSmall"
        );
    }
}
