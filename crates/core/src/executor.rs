//! The shared-corpus pipeline executor: a channel-based worker pool
//! replacing the old thread-per-campaign manager (§5's "multiple RTL
//! simulation instances in parallel").
//!
//! # Architecture
//!
//! An [`Orchestrator`] owns the [`Corpus`], the scheduling RNG, the
//! running-average mutation-gain threshold and the exact global coverage;
//! `Worker` threads own the simulators. Work flows in *rounds* of
//! pre-drawn slots — see the [`crate::scheduler`] module for the
//! deterministic work stealing that plans them and the seed policies
//! (energy decay vs. favoured-quota corpus picks):
//!
//! 1. The orchestrator plans a round: for each slot the seed policy
//!    decides between a retained corpus seed and fresh exploration, and
//!    fresh seeds are drawn from the slot's logical stream. The round
//!    ships to every worker thread as one shared claim queue, together
//!    with the round-start gain threshold and the round's *view*: one
//!    frozen copy of the committed coverage union, which every thread
//!    reads.
//! 2. Each worker claims slots until the queue drains, running the
//!    three-phase pipeline for each. A slot folds every observation
//!    through one [`RecordingCoverage`], which keeps the slot's distinct
//!    points (for the exactness invariant) and, when the round view lacks
//!    a point, records it as fresh and commits it to the live
//!    [`SharedCoverage`] union. Mutation-gain feedback reads only the
//!    view, so worker decisions never race on shared state. The
//!    *canonical* union is the orchestrator's deterministic replay below;
//!    the shared union is a concurrent copy of the same set and a runtime
//!    cross-check that the two accounting paths agree.
//! 3. Workers send one reply per slot the moment it finishes. The
//!    orchestrator commits outcomes in global slot order: stats, the
//!    per-iteration exact coverage curve, bug dedup, gain-threshold
//!    samples, per-stream accounting and corpus retention all replay
//!    deterministically, whichever thread claimed which slot.
//!
//! # Replayed runs
//!
//! Every pick of a corpus entry repeats its lineage's Phase 1, the
//! Phase-2 attempts earlier picks of the entry ran and, when it stops at
//! the same attempt, their Phase-3 run. The workers of a run share one
//! lineage memo that answers those repeats from compact run digests
//! instead of calling the backend, when the backend promises pure runs
//! ([`crate::backend::SimBackend::replayable`]); the orchestrator prunes
//! it at every round boundary to the lineages the corpus holds. A
//! replay is accounted exactly like the simulation it stands for, so no
//! report, event or snapshot can tell the two apart, and a resumed run
//! starting with an empty memo only simulates more.
//!
//! # One commit loop
//!
//! [`Orchestrator::run_observed`] is the only loop that dispatches
//! rounds. It keeps `depth` rounds in flight ahead of the round it is
//! committing: depth 0 is the barrier (a round is planned only once its
//! predecessor fully committed), depth 1 the cross-round pipeline a
//! `pipelined` campaign runs (the next round is already dispatched while
//! the current one's stragglers finish; see the [`crate::scheduler`]
//! docs for its feedback lag). The moment a round's last slot commits,
//! its boundary runs: checkpoint capture, halt check, then the
//! next round is planned and shipped. Only then is the captured
//! checkpoint written, so its fsync overlaps the round the workers are
//! already running; observers still hear `snapshot_written` before that
//! round's `round_started`. Every blocking wait for the next contiguous
//! slot is timed as a commit stall — at depth 0 that is the barrier
//! wait.
//!
//! The consequence is the property the old end-of-run merge could not
//! offer: a campaign is **deterministic for a fixed worker count**
//! (thread timing only changes who commits a shared point first, which
//! nothing reads back), and its final coverage is the **exact union** of
//! what the workers observed — never the pointwise sum the old
//! `CampaignStats::merge` approximated.
//!
//! # Configuration
//!
//! An [`Orchestrator`] is built exclusively by
//! [`crate::builder::CampaignBuilder`], which validates the whole
//! configuration up front (one structured
//! [`crate::builder::BuildError`], no scattered panics). The orchestrator
//! itself only *runs* campaigns: [`Orchestrator::run`],
//! [`Orchestrator::run_snapshotting`], and
//! [`Orchestrator::run_observed`] — the latter streaming the typed
//! [`crate::observer::CampaignObserver`] events from the deterministic
//! commit points described above.
//!
//! # Checkpointing and resume
//!
//! Workers keep no campaign state between rounds, so the campaign
//! serialises at any round boundary into a [`CampaignSnapshot`]: corpus,
//! global coverage, gain threshold, scheduler RNG position and
//! per-stream `(RNG position, iteration count, observed matrix)`. Every
//! round's view is the committed union at its dispatch, so the next
//! round's view is the snapshot's coverage (a pipelined snapshot's pending
//! round ran against that coverage minus its `view_behind`), and a run
//! resumed via [`crate::builder::CampaignBuilder::resume`] replays the
//! remaining rounds **bit-identically** to one that never stopped — same
//! curve, same bugs, same corpus, same per-stream accounting (asserted
//! by `tests/persist.rs` and the resume tests of `tests/cli.rs`).
//! [`crate::builder::CampaignBuilder::snapshot_every`] +
//! [`crate::builder::CampaignBuilder::snapshot_path`] write periodic
//! atomic checkpoints;
//! [`crate::builder::CampaignBuilder::halt_after`] stops gracefully at
//! the next round boundary, emulating a planned interruption.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dejavuzz_ift::{
    CoverageLog, CoverageMatrix, CoveragePoint, IftMode, RecordingCoverage, SharedCoverage,
};

use crate::backend::{BackendSpec, SimBackend};
use crate::campaign::{CampaignStats, FuzzerOptions};
use crate::corpus::Corpus;
use crate::gen::{Seed, WindowType};
use crate::memo::{LineageMemo, Replays};
use crate::observer::{
    BugFound, CampaignFinished, CampaignObserver, CoverageGained, RoundStarted, SlotCommitted,
    SnapshotWritten,
};
use crate::scheduler::{
    plan_round, PlanCtx, PlannedSlot, PolicySpec, PolicyState, SchedulerSpec, SeedPolicy,
    SlotFeedback,
};
use crate::snapshot::{CampaignSnapshot, PendingRound, WorkerState};

/// Iteration slots per logical stream per round: a round spans
/// `workers x batch` slots. Large enough to amortise the channel
/// round-trip, small enough that corpus feedback and the gain threshold
/// stay fresh.
pub const DEFAULT_BATCH: usize = 4;

/// The running-average mutation-gain threshold of §4.2.2, shared across
/// all workers of a pool.
#[derive(Clone, Copy, Debug, Default)]
struct GainAverage {
    pub avg: f64,
    pub samples: usize,
}

impl GainAverage {
    /// Folds one sample into the running average.
    pub fn push(&mut self, gain: f64) {
        self.samples += 1;
        self.avg += (gain - self.avg) / self.samples as f64;
    }
}

/// Everything one pipeline iteration produced, sent to the orchestrator
/// the moment its slot finishes.
#[derive(Clone, Debug)]
struct IterationOutcome {
    /// Global iteration index.
    pub slot: usize,
    /// Logical stream this slot is accounted to: the planned stream,
    /// independent of which thread claimed the slot.
    pub stream: usize,
    /// Wall-clock the iteration took, for scheduling models and
    /// throughput reporting only — never fed back into decisions.
    pub elapsed_nanos: u64,
    /// Wall-clock spent building this slot's coverage sink. Reporting
    /// only, like `elapsed_nanos`.
    pub view_setup_nanos: u64,
    /// The executed seed (after window mutations).
    pub seed: Seed,
    pub window_type: WindowType,
    pub triggered: bool,
    pub to: usize,
    pub eto: usize,
    pub sim_runs: usize,
    pub sim_cycles: u64,
    /// The part of `sim_runs` the lineage memo answered, by phase.
    pub replays: Replays,
    /// Per-mutation-attempt coverage gains, in execution order (the
    /// orchestrator replays these into the global threshold).
    pub gains: Vec<f64>,
    /// Coverage gain of the selected attempt (corpus retention energy).
    pub final_gain: usize,
    /// Points fresh against the round view, in observation order.
    pub fresh_points: Vec<CoveragePoint>,
    /// The slot's distinct observed points: what the orchestrator folds
    /// into its stream's `observed` matrix (which snapshots persist).
    pub observed_fresh: Vec<CoveragePoint>,
    pub bugs: Vec<crate::report::BugReport>,
    /// A backend failure that aborted this iteration
    /// ([`crate::backend::BackendError`], stringified for the channel).
    /// The iteration still counts; the campaign keeps running.
    pub error: Option<String>,
}

/// Models the run's wall-clock on dedicated cores from the measured
/// per-slot costs, folded one committed slot at a time. Purely a
/// reporting model — scheduling decisions never read it.
///
/// Per-core clocks persist across rounds, and a round's slots may not
/// start before the modelled finish of the round `depth + 1` behind it
/// (the commit that dispatched it): at depth 0 each round waits for its
/// predecessor, the barrier; at depth 1 consecutive rounds overlap.
/// Slots go to the earliest-free core (greedy claim order). The state is
/// O(workers): the clocks plus the last `depth + 1` round finishes.
///
/// Two invariants the scheduling-model tests rely on: every start time
/// is bounded by the current maximum clock (the gate is itself an
/// earlier clock value), so the makespan never exceeds the serial sum of
/// costs; and `workers x makespan >= busy`, since each core's clock
/// bounds its own work.
struct MakespanModel {
    clocks: Vec<u64>,
    depth: usize,
    /// Modelled finishes of the last `depth + 1` folded rounds, oldest
    /// first.
    finishes: VecDeque<u64>,
    /// Modelled finish of the round being folded, so far.
    round_finish: u64,
}

impl MakespanModel {
    fn new(workers: usize, depth: usize) -> Self {
        MakespanModel {
            clocks: vec![0; workers],
            depth,
            finishes: VecDeque::with_capacity(depth + 2),
            round_finish: 0,
        }
    }

    /// Folds one slot, claimed by the earliest-free core.
    fn slot(&mut self, cost: u64) {
        // Rounds dispatched at the start of the run wait for nothing.
        let gate = if self.finishes.len() > self.depth {
            self.finishes[0]
        } else {
            0
        };
        let core = (0..self.clocks.len())
            .min_by_key(|&w| self.clocks[w])
            .expect("workers >= 1");
        self.clocks[core] = self.clocks[core].max(gate) + cost;
        self.round_finish = self.round_finish.max(self.clocks[core]);
    }

    /// Closes the round being folded.
    fn end_round(&mut self) {
        self.finishes
            .push_back(std::mem::take(&mut self.round_finish));
        if self.finishes.len() > self.depth + 1 {
            self.finishes.pop_front();
        }
    }

    fn makespan(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }
}

/// One three-phase pipeline iteration, as a [`Worker`] runs it for a
/// slot. Dyn-dispatched on the backend: one virtual call per
/// *simulation*, noise against the simulation itself (measured by the
/// `overheads` bench's `backends` group). Every simulation goes through the
/// campaign's [`LineageMemo`], which answers the ones a corpus pick
/// repeats without calling a replayable backend. The caller moves the
/// sink's point lists into the outcome.
fn run_iteration(
    backend: &mut dyn SimBackend,
    opts: &FuzzerOptions,
    slot: usize,
    planned: &Seed,
    coverage: &mut RecordingCoverage<'_>,
    gain: &mut GainAverage,
    memo: &LineageMemo,
) -> IterationOutcome {
    // The planned seed is borrowed for as long as it stays unmutated,
    // keeping a per-slot clone off this hot path: the outcome takes
    // ownership exactly once, at whichever return point it leaves
    // through.
    let mut seed = Cow::Borrowed(planned);
    let mut out = IterationOutcome {
        slot,
        stream: 0,
        elapsed_nanos: 0,
        view_setup_nanos: 0,
        // Placeholder until a return point takes ownership of the real
        // seed (the corpus policy reads it back from every outcome).
        seed: Seed::new(seed.window_type, 0),
        window_type: seed.window_type,
        triggered: false,
        to: 0,
        eto: 0,
        sim_runs: 0,
        sim_cycles: 0,
        replays: Replays::default(),
        gains: Vec::new(),
        final_gain: 0,
        fresh_points: Vec::new(),
        observed_fresh: Vec::new(),
        bugs: Vec::new(),
        error: None,
    };

    let p1 = match memo.phase1(backend, &seed, &opts.phases, &mut out.replays) {
        Ok(p1) => p1,
        Err(e) => {
            out.error = Some(e.to_string());
            out.seed = seed.into_owned();
            return out;
        }
    };
    out.sim_runs += p1.sim_runs;
    if !p1.triggered {
        out.seed = seed.into_owned();
        return out;
    }
    out.triggered = true;
    out.to = p1.to;
    out.eto = p1.eto;

    // Phase 2 with coverage feedback: mutate the window section while the
    // gain stays below the shared running average. Only a corpus pick
    // (whose mutation counter starts above 0) has runs worth digesting:
    // a fresh seed's attempts end at the mutation its corpus entry would
    // keep, and every pick of that entry starts one past it.
    let pick = seed.mutation > 0;
    let mut last = None;
    for attempt in 0..=opts.mutation_attempts {
        let answer = memo.phase2(
            backend,
            &seed,
            &p1,
            coverage,
            &opts.phases,
            pick,
            &mut out.replays,
        );
        let p2 = match answer {
            Ok(p2) => p2,
            Err(e) => {
                out.error = Some(e.to_string());
                out.seed = seed.into_owned();
                return out;
            }
        };
        out.sim_runs += 1;
        out.sim_cycles += p2.cycles;
        let g = p2.gain as f64;
        let below_avg = g < gain.avg;
        let propagated = p2.taints_increased;
        gain.push(g);
        out.gains.push(g);
        out.final_gain = p2.gain;
        last = Some(p2);
        if !opts.coverage_feedback {
            break; // DejaVuzz⁻ takes whatever the first roll produced
        }
        if propagated && !below_avg {
            break;
        }
        if attempt < opts.mutation_attempts {
            seed = Cow::Owned(seed.mutate());
        }
    }
    let p2 = last.expect("at least one phase-2 attempt ran");
    out.seed = seed.into_owned();

    // Phase 3 only for cases that accessed and propagated the secret.
    if p2.taints_increased || opts.phases.mode == IftMode::Base {
        let leaks = memo.phase3(
            backend,
            &out.seed,
            &p1,
            p2,
            &opts.phases,
            slot,
            &mut out.replays,
        );
        match leaks {
            Ok(leaks) => {
                out.sim_runs += 1;
                out.bugs = leaks;
            }
            Err(e) => out.error = Some(e.to_string()),
        }
    }
    out
}

/// Folds an outcome's counters into campaign stats (curve, bugs, gain and
/// corpus handling stay with the caller, which knows the global ordering).
fn fold_outcome(stats: &mut CampaignStats, o: &IterationOutcome) {
    stats.iterations += 1;
    stats.sim_runs += o.sim_runs;
    stats.sim_cycles += o.sim_cycles;
    if o.error.is_some() {
        stats.failed_runs += 1;
    }
    let e = stats.windows.entry(o.window_type).or_default();
    e.attempted += 1;
    if o.triggered {
        e.triggered += 1;
        e.to_sum += o.to;
        e.eto_sum += o.eto;
    }
    for b in &o.bugs {
        if stats.first_bug_iteration.is_none() {
            stats.first_bug_iteration = Some(o.slot);
        }
        if !stats.bugs.iter().any(|x| x.dedup_key() == b.dedup_key()) {
            stats.bugs.push(b.clone());
        }
    }
}

/// Commits one outcome into the session, in global slot order: threshold,
/// corpus, curve, worker mirrors and observer events all update
/// deterministically regardless of arrival or claim order.
#[allow(clippy::too_many_arguments)] // the commit's full context, spelled out
fn commit_outcome(
    s: &mut Session,
    busy_nanos: &mut u64,
    view_setup_nanos: &mut u64,
    feedback: bool,
    o: IterationOutcome,
    observers: &mut [Box<dyn CampaignObserver>],
) {
    *busy_nanos += o.elapsed_nanos;
    *view_setup_nanos += o.view_setup_nanos;
    // Telemetry re-uses the durations the report already measured — no
    // clock reads on the commit path, and the instruments are write-only
    // from the campaign's perspective (the off-commit-path contract).
    let metrics = crate::metrics::handles();
    metrics.slot_run_nanos.observe(o.elapsed_nanos);
    if o.view_setup_nanos > 0 {
        metrics.view_setup_nanos.observe(o.view_setup_nanos);
    }
    metrics.iterations_total.inc();
    metrics.sim_runs_total.add(o.sim_runs as u64);
    for (counter, replays) in metrics.sim_replays_total.iter().zip(o.replays) {
        counter.add(replays);
    }
    if matches!(o.window_type, WindowType::Scenario(_)) {
        metrics.scenario_slots_total.inc();
    }
    s.worker_iterations[o.stream] += 1;
    for p in &o.observed_fresh {
        s.worker_observed[o.stream].insert(*p);
    }
    let bugs_before = s.stats.bugs.len();
    fold_outcome(&mut s.stats, &o);
    for g in &o.gains {
        s.gain.push(*g);
    }
    let mut global_fresh = Vec::new();
    for p in &o.fresh_points {
        // The log behind `global` is the delta source of `view_behind`:
        // every globally fresh point lands there in commit order.
        if s.global.insert(*p) {
            global_fresh.push(*p);
        }
    }
    s.stats.coverage_curve.push(s.global.points());
    metrics.coverage_points.set(s.global.points() as u64);
    if feedback {
        s.policy.record(
            &mut s.corpus,
            &SlotFeedback {
                seed: &o.seed,
                window_type: o.window_type,
                gain: o.final_gain,
                global_fresh: &global_fresh,
                cost: o.to as u64,
            },
        );
    }
    if !observers.is_empty() {
        let total_points = s.global.points();
        let slot_ev = SlotCommitted {
            slot: o.slot,
            stream: o.stream,
            window_type: o.window_type,
            triggered: o.triggered,
            to: o.to,
            eto: o.eto,
            sim_runs: o.sim_runs,
            final_gain: o.final_gain,
            fresh_points: global_fresh.len(),
            total_points,
            error: o.error.clone(),
        };
        for obs in observers.iter_mut() {
            obs.slot_committed(&slot_ev);
        }
        if !global_fresh.is_empty() {
            let cov_ev = CoverageGained {
                slot: o.slot,
                points: &global_fresh,
                total_points,
            };
            for obs in observers.iter_mut() {
                obs.coverage_gained(&cov_ev);
            }
        }
        for bug in &s.stats.bugs[bugs_before..] {
            let bug_ev = BugFound {
                slot: o.slot,
                bug: bug.clone(),
            };
            for obs in observers.iter_mut() {
                obs.bug_found(&bug_ev);
            }
        }
    }
}

/// The shared claim queue of a round: pre-drawn slots, claimed in index
/// order by whichever worker is idle.
struct StealQueue {
    slots: Vec<PlannedSlot>,
    next: AtomicUsize,
}

/// A round as shipped to every worker thread.
struct StealRound {
    queue: Arc<StealQueue>,
    /// Round-start global gain threshold (per-slot frozen).
    avg: f64,
    samples: usize,
    /// The committed union at the round's dispatch, which every slot of
    /// the round judges freshness against.
    view: Arc<CoverageMatrix>,
}

/// One slot's result, sent the moment the slot finishes, so the
/// orchestrator commits the contiguous slot prefix while later slots
/// still run. Boxed: the channel and the commit buffer allocate
/// per-message space in blocks, which then stay small.
type SlotReply = Box<IterationOutcome>;

/// A logical worker stream's end-of-run accounting.
#[derive(Clone, Debug)]
pub struct WorkerSummary {
    /// Stream index within the pool.
    pub worker: usize,
    /// Iterations committed to this stream (including, on resumed runs,
    /// the iterations committed before the snapshot).
    pub iterations: usize,
    /// Every coverage point this stream's slots observed (the union of
    /// these matrices across streams is exactly the pool's final
    /// coverage — asserted by the pipeline tests).
    pub observed: CoverageMatrix,
}

/// A pipeline worker thread: owns its simulator backend and keeps no
/// campaign state from one round to the next.
struct Worker {
    backend: Box<dyn SimBackend>,
    opts: FuzzerOptions,
    shared: Arc<SharedCoverage>,
    /// The campaign's lineage memo, shared by every worker.
    memo: Arc<LineageMemo>,
}

impl Worker {
    /// Runs rounds until the orchestrator closes the channel or stops
    /// listening.
    fn run(mut self, rx: mpsc::Receiver<StealRound>, tx: mpsc::Sender<SlotReply>) {
        while let Ok(round) = rx.recv() {
            if !self.run_round(round, &tx) {
                return; // orchestrator went away
            }
        }
    }

    /// One round: claim pre-drawn slots from the shared queue until it
    /// drains. Every slot runs against the frozen round view, its own
    /// sink and a per-slot gain threshold, so its outcome is independent
    /// of what any concurrent slot — on this worker or another — is doing
    /// (see the `scheduler` module docs for the determinism argument).
    /// False once the orchestrator hung up (the worker then stops
    /// claiming).
    fn run_round(&mut self, round: StealRound, tx: &mpsc::Sender<SlotReply>) -> bool {
        loop {
            let claim = round.queue.next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = round.queue.slots.get(claim) else {
                return true;
            };
            // The sink starts empty per slot: its `observed` list is the
            // slot's full distinct point set, which the orchestrator
            // replays into the *logical* stream's matrix (physical claim
            // attribution is timing-dependent and must not leak into any
            // persisted or reported state).
            let setup = Instant::now();
            let mut sink = RecordingCoverage::new(&round.view, &self.shared);
            let view_setup_nanos = setup.elapsed().as_nanos() as u64;
            let mut gain = GainAverage {
                avg: round.avg,
                samples: round.samples,
            };
            let start = Instant::now();
            let mut out = run_iteration(
                self.backend.as_mut(),
                &self.opts,
                item.slot,
                &item.seed,
                &mut sink,
                &mut gain,
                &self.memo,
            );
            out.stream = item.stream;
            out.elapsed_nanos = start.elapsed().as_nanos() as u64;
            out.view_setup_nanos = view_setup_nanos;
            out.fresh_points = sink.fresh;
            out.observed_fresh = sink.observed;
            if tx.send(Box::new(out)).is_err() {
                return false;
            }
        }
    }
}

/// Results of a pool run.
#[derive(Clone, Debug)]
pub struct ExecutorReport {
    /// Merged campaign stats with the *exact* global coverage curve.
    pub stats: CampaignStats,
    /// The final global coverage (union of all observations).
    pub coverage: CoverageMatrix,
    /// Final point count of the concurrent [`SharedCoverage`], reported
    /// separately so tests can assert the two accounting paths agree. It
    /// equals `coverage.points()` when the run committed every round it
    /// dispatched. A halted pipelined run can read more: the in-flight
    /// round the halt discards has already committed its fresh points to
    /// the shared union, and how many depends on thread timing.
    pub shared_points: usize,
    /// Per-stream accounting.
    pub workers: Vec<WorkerSummary>,
    /// Seeds the corpus retained over the run.
    pub corpus_retained: usize,
    /// Seeds the corpus evicted for capacity.
    pub corpus_evicted: usize,
    /// Sum of per-iteration wall-clock across all workers (the run's
    /// total simulation work).
    pub busy_nanos: u64,
    /// Modelled wall-clock of the run on `workers` dedicated cores: the
    /// makespan of greedy slot claiming over the measured per-slot costs,
    /// with round k's slots gated on round k-1's modelled finish when
    /// barriered and on round k-2's when pipelined.
    /// Machine-load-independent: on an oversubscribed host the wall clock
    /// cannot show barrier idling. For the same slot costs the pipelined
    /// makespan never exceeds the barriered one
    /// (`pipelined_makespan_never_exceeds_barriered`).
    pub modelled_makespan_nanos: u64,
    /// Modelled core-idle time: `workers x modelled_makespan - busy`.
    /// Under barriered rounds this is dominated by workers waiting at the
    /// round barrier for the straggler slot; the cross-round pipeline
    /// exists to drive it towards zero.
    pub barrier_idle_nanos: u64,
    /// Total wall-clock spent constructing per-slot coverage sinks. A
    /// sink starts empty over the shared round view, so this is
    /// independent of the coverage size.
    pub view_setup_nanos: u64,
}

/// The orchestrator's mutable mid-run state: everything a
/// [`CampaignSnapshot`] captures and a resume restores.
struct Session {
    corpus: Corpus,
    policy: SeedPolicy,
    sched_rng: StdRng,
    gain: GainAverage,
    global: CoverageLog,
    stats: CampaignStats,
    worker_rngs: Vec<[u64; 4]>,
    worker_iterations: Vec<usize>,
    worker_observed: Vec<CoverageMatrix>,
}

/// One run's worker threads and their channels.
struct Pool {
    to_workers: Vec<mpsc::Sender<StealRound>>,
    from_rx: mpsc::Receiver<SlotReply>,
    handles: Vec<thread::JoinHandle<()>>,
}

/// One dispatched round, not yet fully committed.
struct InFlight {
    first_slot: usize,
    /// The dispatch-time gain threshold.
    gain: GainAverage,
    /// The round's claim queue.
    queue: Arc<StealQueue>,
    /// The global log watermark at dispatch: the delta from here is what
    /// a checkpoint must record as `view_behind`.
    log_mark: usize,
}

impl InFlight {
    /// Tells every observer the round started (its slots may already be
    /// running).
    fn announce(&self, observers: &mut [Box<dyn CampaignObserver>]) {
        let ev = RoundStarted {
            first_slot: self.first_slot,
            slots: self.queue.slots.len(),
            gain_threshold_samples: self.gain.samples,
        };
        for obs in observers.iter_mut() {
            obs.round_started(&ev);
        }
    }

    /// The snapshot form of this round.
    fn pending(&self, log: &CoverageLog) -> PendingRound {
        PendingRound {
            first_slot: self.first_slot,
            slots: self.queue.slots.clone(),
            avg: self.gain.avg,
            samples: self.gain.samples,
            view_behind: log.delta_since(self.log_mark).to_vec(),
        }
    }
}

/// A checkpoint captured and encoded at a round boundary, not yet on
/// disk.
struct Checkpoint {
    target: PathBuf,
    bytes: Vec<u8>,
    iterations: usize,
    periodic: bool,
    /// Encoding time, counted into the write's span (0 when telemetry is
    /// not recording).
    encode_nanos: u64,
}

/// The pool coordinator: a fully validated campaign, ready to run. Built
/// exclusively by [`crate::builder::CampaignBuilder`] (which owns all
/// configuration and validation); see the module docs for the round
/// protocol and the determinism/resume contracts.
///
/// Cloneable: the persistence tests re-run one configuration with
/// different halt points by cloning the orchestrator (a custom backend's
/// constructor is shared).
#[derive(Clone)]
pub struct Orchestrator {
    pub(crate) backend: BackendSpec,
    /// The worker-process pool a `proc:<inner>:<M>` backend's threads
    /// share, spawned (and handshaked) once by the builder. `None` for
    /// in-process backends.
    pub(crate) proc: Option<crate::procbackend::ProcShared>,
    pub(crate) opts: FuzzerOptions,
    pub(crate) workers: usize,
    pub(crate) seed: u64,
    pub(crate) batch: usize,
    pub(crate) pipelined: bool,
    pub(crate) policy: PolicySpec,
    pub(crate) corpus_capacity: usize,
    pub(crate) corpus_exploit: f64,
    pub(crate) shard_id: u32,
    pub(crate) snapshot_every: usize,
    /// Active scenario specs, canonical and sorted (the cross-process
    /// identity persisted in snapshots), and their process-local intern
    /// indices in the same order (what the hot paths carry).
    pub(crate) scenario_specs: Vec<String>,
    pub(crate) scenarios: Vec<u16>,
    pub(crate) snapshot_path: Option<PathBuf>,
    pub(crate) snapshot_keep: usize,
    pub(crate) halt_after: Option<usize>,
    pub(crate) resume: Option<Box<CampaignSnapshot>>,
}

impl fmt::Debug for Orchestrator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Orchestrator")
            .field("backend", &self.backend.label())
            .field("workers", &self.workers)
            .field("seed", &self.seed)
            .field("batch", &self.batch)
            .field("pipelined", &self.pipelined)
            .field("policy", &self.policy)
            .field("shard_id", &self.shard_id)
            .finish_non_exhaustive()
    }
}

impl Orchestrator {
    /// SplitMix64: decorrelates the per-worker and scheduler RNG streams
    /// from the user seed.
    fn stream_seed(&self, stream: u64) -> u64 {
        let mut z = self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One simulator instance (one per worker thread). For proc
    /// backends every instance is a cheap handle onto the one shared
    /// worker-process pool — `BackendSpec::build` would spawn a fresh
    /// pool per thread.
    fn build_backend(&self) -> Box<dyn SimBackend> {
        match &self.proc {
            Some(shared) => Box::new(crate::procbackend::ProcBackend::from_shared(shared.clone())),
            None => self.backend.build(),
        }
    }

    /// How many executor threads to spawn: at least the logical worker
    /// count, and for a proc backend at least the pool size, so `M`
    /// worker processes all get a claiming thread even when the campaign
    /// geometry says fewer logical workers. Threads only claim pre-drawn
    /// slots, so results stay those of the *logical* geometry.
    fn physical_workers(&self) -> usize {
        match &self.backend {
            BackendSpec::Proc(spec) => self.workers.max(spec.pool),
            _ => self.workers,
        }
    }

    /// Fresh session state, or the snapshot's if this is a resume.
    fn session(&self) -> (Session, usize) {
        if let Some(snap) = &self.resume {
            let s = Session {
                corpus: snap.corpus.clone(),
                policy: SeedPolicy::new(&self.policy, &snap.policy_state),
                sched_rng: StdRng::from_raw_state(snap.sched_rng),
                gain: GainAverage {
                    avg: snap.gain_avg,
                    samples: snap.gain_samples,
                },
                global: CoverageLog::seeded(snap.coverage.clone()),
                stats: snap.stats.clone(),
                worker_rngs: snap.worker_states.iter().map(|w| w.rng).collect(),
                worker_iterations: snap.worker_states.iter().map(|w| w.iterations).collect(),
                worker_observed: snap
                    .worker_states
                    .iter()
                    .map(|w| w.observed.clone())
                    .collect(),
            };
            (s, snap.completed)
        } else {
            // Corpus retention/scheduling IS coverage feedback: the
            // DejaVuzz⁻ ablation (coverage_feedback = false) must run
            // without any coverage-driven state, so its corpus explores
            // unconditionally and retains nothing.
            let exploit = if self.opts.coverage_feedback {
                self.corpus_exploit
            } else {
                0.0
            };
            let s = Session {
                corpus: Corpus::new(self.corpus_capacity).with_exploit_probability(exploit),
                policy: SeedPolicy::new(&self.policy, &PolicyState::Stateless),
                sched_rng: StdRng::seed_from_u64(self.stream_seed(0)),
                gain: GainAverage::default(),
                global: CoverageLog::new(),
                stats: CampaignStats::default(),
                worker_rngs: (0..self.workers)
                    .map(|id| StdRng::seed_from_u64(self.stream_seed(1 + id as u64)).state())
                    .collect(),
                worker_iterations: vec![0; self.workers],
                worker_observed: vec![CoverageMatrix::new(); self.workers],
            };
            (s, 0)
        }
    }

    /// Captures the session at a commit boundary. `pending` is the
    /// pipelined round already dispatched but not yet committed (if any):
    /// it ships with the snapshot so a resume re-dispatches exactly the
    /// same pre-drawn plan instead of re-planning (which would double-draw
    /// the scheduler RNG and double-decay the corpus).
    fn snapshot_of(&self, s: &Session, pending: Option<PendingRound>) -> CampaignSnapshot {
        CampaignSnapshot {
            shard_id: self.shard_id,
            backend: self.backend.label(),
            workers: self.workers,
            seed: self.seed,
            batch: self.batch,
            pipelined: self.pipelined,
            pending,
            scenarios: self.scenario_specs.clone(),
            scheduler: SchedulerSpec::WorkStealing,
            policy: self.policy.clone(),
            policy_state: s.policy.state(),
            opts: self.opts,
            completed: s.stats.iterations,
            gain_avg: s.gain.avg,
            gain_samples: s.gain.samples,
            sched_rng: s.sched_rng.state(),
            corpus: s.corpus.clone(),
            coverage: s.global.matrix().clone(),
            stats: s.stats.clone(),
            worker_states: (0..self.workers)
                .map(|i| WorkerState {
                    rng: s.worker_rngs[i],
                    iterations: s.worker_iterations[i],
                    observed: s.worker_observed[i].clone(),
                })
                .collect(),
        }
    }

    /// Encodes `snap` as a checkpoint for the configured path (none
    /// without one). Periodic checkpoints rotate into
    /// `<path>.<iterations>` siblings when [`Orchestrator::snapshot_keep`]
    /// is set.
    fn encode_checkpoint(&self, snap: &CampaignSnapshot, periodic: bool) -> Option<Checkpoint> {
        let path = self.snapshot_path.as_ref()?;
        let target = if periodic && self.snapshot_keep > 0 {
            dejavuzz_persist::rotated_path(path, snap.completed as u64)
        } else {
            path.clone()
        };
        let started = dejavuzz_telemetry::recording().then(Instant::now);
        let bytes = snap.to_bytes();
        Some(Checkpoint {
            target,
            bytes,
            iterations: snap.completed,
            periodic,
            encode_nanos: started.map_or(0, |t| t.elapsed().as_nanos() as u64),
        })
    }

    /// Writes an encoded checkpoint atomically, then prunes rotated
    /// rounds past [`Orchestrator::snapshot_keep`] (only after the new
    /// file landed), so a multi-day campaign keeps a bounded trail of
    /// resumable round checkpoints instead of one overwritten file or an
    /// unbounded pile.
    fn write_checkpoint(&self, cp: Checkpoint, observers: &mut [Box<dyn CampaignObserver>]) {
        let metrics = crate::metrics::handles();
        let started = dejavuzz_telemetry::recording().then(Instant::now);
        let written = dejavuzz_persist::save_atomic(&cp.target, &cp.bytes);
        if let Some(t) = started {
            metrics
                .snapshot_write_nanos
                .observe(cp.encode_nanos + t.elapsed().as_nanos() as u64);
        }
        if let Err(e) = written {
            // A failed checkpoint must not kill a running campaign:
            // warn and fuzz on; the next interval retries.
            eprintln!(
                "dejavuzz: checkpoint write to {} failed: {e}",
                cp.target.display()
            );
            return;
        }
        metrics.snapshots_total.inc();
        if cp.periodic && self.snapshot_keep > 0 {
            let path = self
                .snapshot_path
                .as_ref()
                .expect("a checkpoint has a path");
            if let Err(e) = dejavuzz_persist::prune_rotated(path, self.snapshot_keep) {
                eprintln!(
                    "dejavuzz: pruning rotated checkpoints of {} failed: {e}",
                    path.display()
                );
            }
        }
        let ev = SnapshotWritten {
            path: &cp.target,
            iterations: cp.iterations,
            periodic: cp.periodic,
        };
        for obs in observers.iter_mut() {
            obs.snapshot_written(&ev);
        }
    }

    /// Runs the pool until `iterations` total campaign iterations have
    /// completed (on resumed runs that *includes* the snapshot's
    /// iterations), returning the report. See the module docs for the
    /// determinism and resume-equivalence contracts.
    pub fn run(&self, iterations: usize) -> ExecutorReport {
        self.run_observed(iterations, &mut []).0
    }

    /// [`Orchestrator::run`], also returning the end-of-run
    /// [`CampaignSnapshot`] (the state a later
    /// [`crate::builder::CampaignBuilder::resume`] continues from). This
    /// is the in-memory checkpointing path; file-based checkpointing
    /// goes through [`crate::builder::CampaignBuilder::snapshot_path`].
    pub fn run_snapshotting(&self, iterations: usize) -> (ExecutorReport, CampaignSnapshot) {
        self.run_observed(iterations, &mut [])
    }

    /// [`Orchestrator::run_snapshotting`] with a
    /// [`CampaignObserver`] event stream: every observer is invoked at
    /// the orchestrator's deterministic commit points (never from worker
    /// threads), so for a fixed configuration the full event sequence —
    /// kinds and payloads — is reproducible run over run and
    /// concatenates seamlessly across a halt/resume boundary (asserted
    /// by `tests/observer.rs`). Wall-clock appears only in
    /// [`CampaignFinished::elapsed`].
    ///
    /// This is the one commit loop of the module docs, at depth 1 when
    /// pipelined and 0 otherwise. At either depth results are a pure
    /// function of `(seed, workers, batch, pipelined)`: commit order is slot
    /// order, plans are drawn from committed state only, and claim
    /// interleavings never leak (asserted by `tests/scheduler.rs`).
    /// Pipelined checkpoints carry the in-flight round's pre-drawn plan
    /// ([`PendingRound`]), so a resume re-dispatches exactly that plan
    /// and splices bit-identically (asserted by `tests/persist.rs`).
    pub fn run_observed(
        &self,
        iterations: usize,
        observers: &mut [Box<dyn CampaignObserver>],
    ) -> (ExecutorReport, CampaignSnapshot) {
        let run_start = Instant::now();
        let (mut s, start) = self.session();
        // One round in flight ahead of the committing one is the minimum
        // that removes the barrier.
        let depth = usize::from(self.pipelined);
        let resumed_pending = self.resume.as_ref().and_then(|snap| snap.pending.clone());

        // The live concurrent union starts from the restored global so
        // the cross-check invariant (shared == canonical) spans resumes.
        // Write-only from the workers' perspective, so over-seeding it
        // with points a pending round has not observed yet is harmless.
        let shared = Arc::new(SharedCoverage::default());
        for p in s.global.iter() {
            shared.observe_point(*p);
        }

        let memo = Arc::new(LineageMemo::default());
        let pool = self.spawn_pool(&shared, &memo);

        let mut in_flight: VecDeque<InFlight> = VecDeque::new();
        let mut next_slot = start;
        if let Some(p) = resumed_pending {
            debug_assert_eq!(p.first_slot, next_slot, "pending resumes at the frontier");
            next_slot += p.slots.len();
            // Re-dispatch verbatim: same pre-drawn slots, same
            // dispatch-time threshold, and the view it was dispatched
            // with: the restored union minus the points committed after
            // its dispatch (`view_behind`, which decoding checked are all
            // in the union).
            let gain = GainAverage {
                avg: p.avg,
                samples: p.samples,
            };
            let mut view = s.global.matrix().clone();
            for point in &p.view_behind {
                view.remove(point);
            }
            let round = self.ship(&pool, &s.global, view, p.first_slot, p.slots, gain);
            round.announce(observers);
            in_flight.push_back(round);
        }
        let metrics = crate::metrics::handles();
        let halt = self.halt_after.unwrap_or(usize::MAX);
        let feedback = self.opts.coverage_feedback;
        let mut model = MakespanModel::new(self.workers, depth);
        let mut busy_nanos = 0u64;
        let mut view_setup_nanos = 0u64;
        let mut buffered: BTreeMap<usize, Box<IterationOutcome>> = BTreeMap::new();
        let mut committed = start;
        let mut rounds = 0usize;
        // The barrier checks the halt before it plans each round, the
        // first included. The pipeline fills first and checks at each
        // commit boundary, so a pipelined halt always leaves the next
        // round pending.
        let mut halted = depth == 0 && s.stats.iterations >= halt;
        // The periodic checkpoint captured at the last boundary, written
        // once the next round is on its way to the workers.
        let mut checkpoint: Option<Checkpoint> = None;
        while !halted {
            // Keep `depth` rounds in flight ahead of the one committing.
            let shipped = in_flight.len();
            while in_flight.len() <= depth && next_slot < iterations {
                let span = (iterations - next_slot).min(self.workers * self.batch);
                let plan = self.plan(&mut s, next_slot..next_slot + span);
                let view = s.global.matrix().clone();
                let round = self.ship(&pool, &s.global, view, next_slot, plan, s.gain);
                in_flight.push_back(round);
                next_slot += span;
            }
            // The checkpoint's fsync overlaps the rounds just shipped; its
            // event still precedes theirs.
            if let Some(cp) = checkpoint.take() {
                self.write_checkpoint(cp, observers);
            }
            for round in in_flight.range(shipped..) {
                round.announce(observers);
            }
            let Some(front) = in_flight.front() else {
                break;
            };
            // Commit the front round in slot order; outcomes of the round
            // behind it buffer until the front's boundary has run.
            let end = front.first_slot + front.queue.slots.len();
            while committed < end {
                if let Some(o) = buffered.remove(&committed) {
                    model.slot(o.elapsed_nanos);
                    commit_outcome(
                        &mut s,
                        &mut busy_nanos,
                        &mut view_setup_nanos,
                        feedback,
                        *o,
                        observers,
                    );
                    committed += 1;
                    continue;
                }
                // Commit cannot pass a gap in the slot order: this wait is
                // the barrier at depth 0 and the pipeline's stall at 1.
                let stall = dejavuzz_telemetry::Timer::start(&metrics.commit_stall_nanos);
                let reply = pool.from_rx.recv().expect("worker hung up mid-run");
                stall.finish();
                buffered.insert(reply.slot, reply);
                metrics.commit_queue_depth.set(buffered.len() as u64);
            }

            // Boundary: the front round is fully committed, in order.
            in_flight.pop_front();
            model.end_round();
            rounds += 1;
            memo.prune(&s.corpus);
            if self.snapshot_path.is_some()
                && self.snapshot_every > 0
                && rounds.is_multiple_of(self.snapshot_every)
            {
                let pending = in_flight.front().map(|f| f.pending(&s.global));
                checkpoint = self.encode_checkpoint(&self.snapshot_of(&s, pending), true);
            }
            halted = s.stats.iterations >= halt;
        }
        if let Some(cp) = checkpoint {
            self.write_checkpoint(cp, observers);
        }

        // Stop the workers: closing their channels ends their loops, and
        // dropping the receiver cuts a halted run's in-flight round
        // short. Its outcomes are discarded anyway, since its pre-drawn
        // plan rides in the snapshot and a resume re-executes it
        // deterministically.
        drop(pool.to_workers);
        drop(pool.from_rx);
        for h in pool.handles {
            h.join().expect("worker panicked");
        }
        drop(memo);

        if in_flight.is_empty() {
            debug_assert_eq!(shared.points(), s.global.points(), "both unions must agree");
        }
        let pending = in_flight.front().map(|f| f.pending(&s.global));
        let snapshot = self.snapshot_of(&s, pending);
        // Always leave a final checkpoint behind: a halted run's snapshot
        // is exactly what `--resume` continues from.
        if let Some(cp) = self.encode_checkpoint(&snapshot, false) {
            self.write_checkpoint(cp, observers);
        }

        let makespan_nanos = model.makespan();
        let workers = (0..self.workers)
            .map(|i| WorkerSummary {
                worker: i,
                iterations: s.worker_iterations[i],
                observed: s.worker_observed[i].clone(),
            })
            .collect();
        let report = ExecutorReport {
            stats: s.stats,
            coverage: s.global.into_matrix(),
            shared_points: shared.points(),
            workers,
            corpus_retained: s.corpus.retained(),
            corpus_evicted: s.corpus.evicted(),
            busy_nanos,
            modelled_makespan_nanos: makespan_nanos,
            barrier_idle_nanos: (self.workers as u64 * makespan_nanos).saturating_sub(busy_nanos),
            view_setup_nanos,
        };
        crate::metrics::record_report(&report);
        let finished = CampaignFinished {
            report: &report,
            elapsed: run_start.elapsed(),
        };
        for obs in observers.iter_mut() {
            obs.campaign_finished(&finished);
        }
        (report, snapshot)
    }

    /// Spawns the run's worker threads.
    fn spawn_pool(&self, shared: &Arc<SharedCoverage>, memo: &Arc<LineageMemo>) -> Pool {
        let (from_tx, from_rx) = mpsc::channel();
        let physical = self.physical_workers();
        let mut to_workers = Vec::with_capacity(physical);
        let mut handles = Vec::with_capacity(physical);
        for _ in 0..physical {
            let (to_tx, to_rx) = mpsc::channel();
            let worker = Worker {
                backend: self.build_backend(),
                opts: self.opts,
                shared: Arc::clone(shared),
                memo: Arc::clone(memo),
            };
            let from_tx = from_tx.clone();
            handles.push(thread::spawn(move || worker.run(to_rx, from_tx)));
            to_workers.push(to_tx);
        }
        Pool {
            to_workers,
            from_rx,
            handles,
        }
    }

    /// Plans the round over `slots` from the committed session state.
    fn plan(&self, s: &mut Session, slots: Range<usize>) -> Vec<PlannedSlot> {
        let _plan_span = dejavuzz_telemetry::Timer::start(&crate::metrics::handles().plan_nanos);
        let mut ctx = PlanCtx {
            corpus: &mut s.corpus,
            policy: &mut s.policy,
            sched_rng: &mut s.sched_rng,
            worker_rngs: &mut s.worker_rngs,
            batch: self.batch,
            scenarios: &self.scenarios,
        };
        plan_round(slots, &mut ctx)
    }

    /// Ships a planned round's claim queue and its frozen `view` to every
    /// thread. Observers hear of it through [`InFlight::announce`].
    fn ship(
        &self,
        pool: &Pool,
        log: &CoverageLog,
        view: CoverageMatrix,
        first_slot: usize,
        slots: Vec<PlannedSlot>,
        gain: GainAverage,
    ) -> InFlight {
        let queue = Arc::new(StealQueue {
            slots,
            next: AtomicUsize::new(0),
        });
        let view = Arc::new(view);
        for to_worker in &pool.to_workers {
            let round = StealRound {
                queue: Arc::clone(&queue),
                avg: gain.avg,
                samples: gain.samples,
                view: Arc::clone(&view),
            };
            to_worker.send(round).expect("worker hung up mid-run");
        }
        InFlight {
            first_slot,
            gain,
            queue,
            log_mark: log.watermark(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CampaignBuilder;
    use dejavuzz_uarch::boom_small;

    fn boom() -> BackendSpec {
        BackendSpec::behavioural(boom_small())
    }

    fn pool(workers: usize, seed: u64) -> Orchestrator {
        CampaignBuilder::new()
            .backend(boom())
            .workers(workers)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn pool_runs_exactly_the_requested_iterations() {
        let r = pool(3, 7).run(10);
        assert_eq!(r.stats.iterations, 10);
        assert_eq!(r.stats.coverage_curve.len(), 10);
        assert_eq!(r.workers.iter().map(|w| w.iterations).sum::<usize>(), 10);
        assert_eq!(r.workers.len(), 3);
    }

    #[test]
    fn curve_is_monotone_and_exact() {
        let r = pool(2, 3).run(12);
        assert!(r.stats.coverage_curve.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.stats.coverage(), r.coverage.points());
        assert_eq!(r.coverage.points(), r.shared_points);
    }

    /// The shared union equals the committed one when every dispatched
    /// round committed. A halted pipelined run discards its in-flight
    /// round, whose slots may already have committed fresh points to the
    /// shared union, so it can only read more.
    #[test]
    fn shared_points_equal_a_completed_run_and_bound_a_halted_one() {
        for pipelined in [false, true] {
            let b = CampaignBuilder::new()
                .backend(boom())
                .workers(2)
                .seed(0)
                .pipelined(pipelined);
            let done = b.clone().build().unwrap().run(32);
            assert_eq!(done.shared_points, done.coverage.points());
            let (halted, snap) = b.halt_after(8).build().unwrap().run_snapshotting(32);
            assert_eq!(halted.stats.iterations, 8);
            assert_eq!(snap.pending.is_some(), pipelined);
            if pipelined {
                assert!(halted.shared_points >= halted.coverage.points());
            } else {
                assert_eq!(halted.shared_points, halted.coverage.points());
            }
        }
    }

    #[test]
    fn zero_iterations_is_a_clean_noop() {
        let r = pool(2, 1).run(0);
        assert_eq!(r.stats.iterations, 0);
        assert_eq!(r.coverage.points(), 0);
        assert_eq!(r.workers.len(), 2);
    }

    /// Folds per-round slot costs on `workers` cores.
    fn modelled<'a>(
        workers: usize,
        depth: usize,
        rounds: impl IntoIterator<Item = &'a [u64]>,
    ) -> u64 {
        let mut model = MakespanModel::new(workers, depth);
        for round in rounds {
            for &cost in round {
                model.slot(cost);
            }
            model.end_round();
        }
        model.makespan()
    }

    /// The makespan model at exact values on a hand-built cost table.
    /// Barriered, a round costs its own greedy-claim makespan and the run
    /// their sum; pipelined, round k waits only for round k-2.
    #[test]
    fn makespan_model_pins_exact_values() {
        let stolen: [&[u64]; 5] = [
            &[5, 3, 2, 9],
            &[7, 1, 4, 6],
            &[10, 2, 2],
            &[3, 3, 8],
            &[1, 12],
        ];
        assert_eq!(modelled(2, 0, stolen), 14 + 11 + 10 + 11 + 12);
        assert_eq!(modelled(2, 1, stolen), 43);
    }

    /// Pipelining only removes barrier waits: over seeded random cost
    /// sequences cut into rounds of `workers x batch` slots (the last
    /// round may be short), the depth-1 makespan never exceeds the
    /// depth-0 one. A case's costs are all zero, uniform, or heavy-tailed
    /// (log-uniform up to 2^30, a quarter of them zero).
    #[test]
    fn pipelined_makespan_never_exceeds_barriered() {
        use rand::Rng;

        let mut rng = StdRng::seed_from_u64(0x6D61_6B65_7370_616E);
        for case in 0..10_000 {
            let workers = rng.gen_range(1..9usize);
            let batch = rng.gen_range(1..7usize);
            let regime = rng.gen_range(0..3u8);
            let slots = rng.gen_range(1..301usize);
            let costs: Vec<u64> = (0..slots)
                .map(|_| match regime {
                    0 => 0,
                    1 => rng.gen_range(0..1_000u64),
                    _ => {
                        let bits = rng.gen_range(0..31u32);
                        let cost = rng.gen_range(0..(1u64 << bits) + 1);
                        if rng.gen_range(0..4u8) == 0 {
                            0
                        } else {
                            cost
                        }
                    }
                })
                .collect();
            let round = workers * batch;
            let barriered = modelled(workers, 0, costs.chunks(round));
            let pipelined = modelled(workers, 1, costs.chunks(round));
            assert!(
                pipelined <= barriered,
                "case {case}: {workers} workers x batch {batch}, {slots} slots: \
                 pipelined {pipelined} > barriered {barriered}"
            );
        }
    }

    #[test]
    fn gain_average_matches_incremental_mean() {
        let mut g = GainAverage::default();
        for (i, x) in [4.0, 0.0, 8.0].iter().enumerate() {
            g.push(*x);
            assert_eq!(g.samples, i + 1);
        }
        assert!((g.avg - 4.0).abs() < 1e-12);
    }

    /// Backend calls plus the replays a slot reports equal the
    /// simulations it consumed in a release build; a debug build also
    /// simulates every replay. Four picks of one lineage: the first two
    /// face a threshold no gain reaches, so they run every attempt and
    /// analyse the last; the next two stop at the first attempt, which
    /// the third must simulate again because no pick analysed it yet.
    #[test]
    fn backend_calls_plus_replays_equal_consumed_sims() {
        use crate::memo::tests::{skipped, triggering, Counting};

        let opts = FuzzerOptions::default();
        let mut b = Counting::new(true);
        let pick = triggering(&mut b, &opts.phases).mutate();
        let memo = LineageMemo::default();
        let shared = SharedCoverage::default();
        let view = CoverageMatrix::new();
        let mut replays = Vec::new();
        for (slot, avg) in [1e9, 1e9, 0.0, 0.0].into_iter().enumerate() {
            b.calls = 0;
            let mut gain = GainAverage {
                avg,
                samples: 1 << 20,
            };
            let out = run_iteration(
                &mut b,
                &opts,
                slot,
                &pick,
                &mut RecordingCoverage::new(&view, &shared),
                &mut gain,
                &memo,
            );
            assert!(out.error.is_none() && out.triggered);
            let attempts = if avg > 0.0 {
                opts.mutation_attempts + 1
            } else {
                1
            };
            assert_eq!(out.gains.len(), attempts, "slot {slot}");
            let saved = skipped(out.replays.iter().sum());
            assert_eq!(b.calls as u64 + saved, out.sim_runs as u64, "slot {slot}");
            replays.push(out.replays);
        }
        let p1 = replays[1][0];
        assert!(p1 > 0);
        let every = opts.mutation_attempts as u64 + 1;
        assert_eq!(replays, [[0, 0, 0], [p1, every, 1], [p1, 0, 0], [p1, 1, 1]]);
    }

    #[test]
    fn halt_after_stops_at_a_round_boundary() {
        let orch = CampaignBuilder::new()
            .backend(boom())
            .workers(2)
            .seed(5)
            .halt_after(3)
            .build()
            .unwrap();
        let (report, snap) = orch.run_snapshotting(24);
        // 2 workers x batch 4 = 8 slots per round; the first boundary at
        // or past 3 completed iterations is 8.
        assert_eq!(report.stats.iterations, 8);
        assert_eq!(snap.completed, 8);
        assert_eq!(snap.worker_states.len(), 2);
    }

    #[test]
    fn debug_format_names_the_configuration() {
        let orch = CampaignBuilder::new()
            .backend(boom())
            .workers(2)
            .seed(5)
            .build()
            .unwrap();
        let dbg = format!("{orch:?}");
        assert!(dbg.contains("behavioural:BOOM"), "{dbg}");
        assert!(dbg.contains("EnergyDecay"), "{dbg}");
    }
}
