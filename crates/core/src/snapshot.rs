//! Campaign snapshots: the persisted form of everything the
//! [`crate::executor::Orchestrator`] needs to continue a run as if it had
//! never stopped, plus the cross-machine shard merge.
//!
//! A [`CampaignSnapshot`] is taken at a *round boundary* of the executor,
//! where the next round's coverage view is the global union (every round
//! ships a frozen copy of the committed union — see the executor module
//! docs). That is what makes the restored state small and the resume
//! *exact*: the snapshot stores one global coverage
//! matrix, the corpus, the running gain threshold, the scheduler RNG
//! position and per-stream `(rng position, iteration count, observed
//! matrix)` triples — and a resumed run replays the remaining rounds
//! bit-identically to an uninterrupted one (asserted by
//! `tests/persist.rs`).
//!
//! On disk a snapshot is a [`dejavuzz_persist::frame`] envelope
//! ([`SNAPSHOT_MAGIC`], [`SNAPSHOT_VERSION`], FNV-1a checksum) around the
//! [`Persist`]-encoded state; truncated, corrupted, internally
//! inconsistent or wrong-version files fail decoding with a structured
//! [`DecodeError`], never a panic. This build reads and writes v7 only.
//! The v7 payload is, in order: the campaign's replay identity (shard
//! id, backend label, workers, seed, batch, the pipelined flag, enabled
//! scenario specs, scheduler and seed-policy selectors with their
//! persisted state, campaign options), then its progress (completed
//! iterations, gain threshold, scheduler RNG, corpus and its scheduling
//! mass, global coverage, stats, per-stream states), then the pending
//! round, if any.
//!
//! Modules travel as their names, and a name outside the vocabulary
//! fails decoding. v7 differs from v6 only in bug reports: an encoded
//! channel keeps its sink's raw module ([`BugReport::component`] applies
//! the scenario label on read), and a timing resource is optional.
//!
//! A pipelined campaign's checkpoint lands while the next round is
//! already dispatched, so the snapshot carries that round's pre-drawn
//! plan, its dispatch-time gain threshold and the coverage points
//! committed since its dispatch ([`PendingRound`]): a resume
//! re-dispatches it verbatim and splices bit-identically, where
//! re-planning would double-draw the scheduler RNG and double-decay the
//! corpus.
//!
//! [`merge_snapshots`] is the multi-machine story: shards run
//! independently with disjoint seeds, snapshot locally, and merge into
//! one report whose coverage is the **exact union** of per-shard
//! observations (distinct points, never a pointwise sum) and
//! whose bug list deduplicates by [`BugReport::dedup_key`].

use std::path::Path;

use dejavuzz_ift::{CoverageMatrix, IftMode, Module};
use dejavuzz_persist::{frame, DecodeError, Decoder, Encoder, LoadError, Persist};

use crate::campaign::{CampaignStats, FuzzerOptions, WindowStats};
use crate::corpus::{Corpus, CorpusEntry};
use crate::gen::{Seed, WindowType};
use crate::phases::PhaseOptions;
use crate::report::{AttackType, BugReport, LeakChannel};
use crate::scheduler::{check_plan, Favour, PlannedSlot, PolicySpec, PolicyState, SchedulerSpec};

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"DJVZSNAP";

/// Snapshot format version this build writes, and the only one it
/// reads.
pub const SNAPSHOT_VERSION: u32 = 7;

impl Persist for WindowType {
    fn encode(&self, enc: &mut Encoder) {
        // Base windows keep their historical fixed u32 position in ALL;
        // scenario windows travel as tag 8 plus the instance's canonical
        // spec string — the intern index is process-local and means
        // nothing on the wire.
        match self {
            WindowType::Scenario(i) => {
                enc.u32(WindowType::ALL.len() as u32);
                enc.str(dejavuzz_scenarios::instance_spec(*i));
            }
            base => {
                let tag = WindowType::ALL
                    .iter()
                    .position(|w| w == base)
                    .expect("every base WindowType is in ALL") as u32;
                enc.u32(tag);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let tag = dec.u32()?;
        if tag as usize == WindowType::ALL.len() {
            let spec = dec.string()?;
            return match dejavuzz_scenarios::intern_spec(&spec) {
                Ok(idx) => Ok(WindowType::Scenario(idx)),
                Err(e) => Err(DecodeError::InvalidValue {
                    what: "WindowType::scenario",
                    detail: e.to_string(),
                }),
            };
        }
        WindowType::ALL
            .get(tag as usize)
            .copied()
            .ok_or(DecodeError::InvalidTag {
                what: "WindowType",
                tag,
            })
    }
}

impl Persist for Seed {
    fn encode(&self, enc: &mut Encoder) {
        self.window_type.encode(enc);
        enc.u64(self.entropy);
        enc.u64(self.mutation);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Seed {
            window_type: WindowType::decode(dec)?,
            entropy: dec.u64()?,
            mutation: dec.u64()?,
        })
    }
}

impl Persist for CorpusEntry {
    fn encode(&self, enc: &mut Encoder) {
        self.seed.encode(enc);
        enc.usize(self.gain);
        enc.usize(self.schedules);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(CorpusEntry {
            seed: Seed::decode(dec)?,
            gain: dec.usize()?,
            schedules: dec.usize()?,
        })
    }
}

impl Persist for Corpus {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.capacity());
        enc.f64(self.exploit_probability());
        enc.usize(self.retained());
        enc.usize(self.evicted());
        // `Vec<CorpusEntry>`'s encoding, without cloning the entries.
        enc.usize(self.entries().len());
        for entry in self.entries() {
            entry.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let capacity = dec.usize()?;
        let exploit = dec.f64()?;
        if !(0.0..=1.0).contains(&exploit) {
            return Err(DecodeError::InvalidValue {
                what: "Corpus::exploit_probability",
                detail: format!("{exploit} is outside [0, 1]"),
            });
        }
        let retained = dec.usize()?;
        let evicted = dec.usize()?;
        let entries = Vec::<CorpusEntry>::decode(dec)?;
        // The energy cache travels as a separate snapshot field; a fresh
        // scan here keeps bare round trips correct.
        Ok(Corpus::restore(
            entries, capacity, exploit, retained, evicted,
        ))
    }
}

impl Persist for SchedulerSpec {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            SchedulerSpec::WorkStealing => enc.u32(0),
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.u32()? {
            0 => Ok(SchedulerSpec::WorkStealing),
            tag => Err(DecodeError::InvalidTag {
                what: "SchedulerSpec",
                tag,
            }),
        }
    }
}

impl Persist for PolicySpec {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            PolicySpec::EnergyDecay => enc.u32(0),
            PolicySpec::FavouredQuota => enc.u32(1),
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.u32()? {
            0 => Ok(PolicySpec::EnergyDecay),
            1 => Ok(PolicySpec::FavouredQuota),
            tag => Err(DecodeError::InvalidTag {
                what: "PolicySpec",
                tag,
            }),
        }
    }
}

impl Persist for Favour {
    fn encode(&self, enc: &mut Encoder) {
        self.window_type.encode(enc);
        enc.u64(self.entropy);
        enc.u64(self.cost);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Favour {
            window_type: WindowType::decode(dec)?,
            entropy: dec.u64()?,
            cost: dec.u64()?,
        })
    }
}

impl Persist for PolicyState {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            PolicyState::Stateless => enc.u32(0),
            PolicyState::Favoured { favours, picks } => {
                enc.u32(1);
                favours.encode(enc);
                picks.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.u32()? {
            0 => Ok(PolicyState::Stateless),
            1 => Ok(PolicyState::Favoured {
                favours: Vec::<(dejavuzz_ift::CoveragePoint, Favour)>::decode(dec)?,
                picks: Vec::<(WindowType, usize)>::decode(dec)?,
            }),
            tag => Err(DecodeError::InvalidTag {
                what: "PolicyState",
                tag,
            }),
        }
    }
}

impl Persist for AttackType {
    fn encode(&self, enc: &mut Encoder) {
        enc.u32(match self {
            AttackType::Meltdown => 0,
            AttackType::Spectre => 1,
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.u32()? {
            0 => Ok(AttackType::Meltdown),
            1 => Ok(AttackType::Spectre),
            tag => Err(DecodeError::InvalidTag {
                what: "AttackType",
                tag,
            }),
        }
    }
}

impl Persist for LeakChannel {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            LeakChannel::Encoded { module } => {
                enc.u32(0);
                module.encode(enc);
            }
            LeakChannel::Timing { resource } => {
                enc.u32(1);
                resource.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.u32()? {
            0 => Ok(LeakChannel::Encoded {
                module: Module::decode(dec)?,
            }),
            1 => Ok(LeakChannel::Timing {
                resource: Option::decode(dec)?,
            }),
            tag => Err(DecodeError::InvalidTag {
                what: "LeakChannel",
                tag,
            }),
        }
    }
}

impl Persist for BugReport {
    fn encode(&self, enc: &mut Encoder) {
        enc.str(&self.core);
        self.attack.encode(enc);
        self.window_type.encode(enc);
        self.channel.encode(enc);
        enc.usize(self.iteration);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(BugReport {
            core: dec.string()?.into(),
            attack: AttackType::decode(dec)?,
            window_type: WindowType::decode(dec)?,
            channel: LeakChannel::decode(dec)?,
            iteration: dec.usize()?,
        })
    }
}

impl Persist for WindowStats {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.triggered);
        enc.usize(self.attempted);
        enc.usize(self.to_sum);
        enc.usize(self.eto_sum);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(WindowStats {
            triggered: dec.usize()?,
            attempted: dec.usize()?,
            to_sum: dec.usize()?,
            eto_sum: dec.usize()?,
        })
    }
}

impl Persist for CampaignStats {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.iterations);
        self.coverage_curve.encode(enc);
        // BTreeMap iterates sorted, so the encoding is canonical.
        let windows: Vec<(WindowType, WindowStats)> =
            self.windows.iter().map(|(k, v)| (*k, *v)).collect();
        windows.encode(enc);
        self.bugs.encode(enc);
        self.first_bug_iteration.encode(enc);
        enc.usize(self.sim_runs);
        enc.u64(self.sim_cycles);
        enc.usize(self.failed_runs);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(CampaignStats {
            iterations: dec.usize()?,
            coverage_curve: Vec::<usize>::decode(dec)?,
            windows: Vec::<(WindowType, WindowStats)>::decode(dec)?
                .into_iter()
                .collect(),
            bugs: Vec::<BugReport>::decode(dec)?,
            first_bug_iteration: Option::<usize>::decode(dec)?,
            sim_runs: dec.usize()?,
            sim_cycles: dec.u64()?,
            failed_runs: dec.usize()?,
        })
    }
}

impl Persist for PhaseOptions {
    fn encode(&self, enc: &mut Encoder) {
        self.mode.encode(enc);
        enc.bool(self.training_derivation);
        enc.bool(self.training_reduction);
        enc.bool(self.liveness_filter);
        enc.usize(self.decoy_trainings);
        enc.u64(self.max_cycles);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(PhaseOptions {
            mode: IftMode::decode(dec)?,
            training_derivation: dec.bool()?,
            training_reduction: dec.bool()?,
            liveness_filter: dec.bool()?,
            decoy_trainings: dec.usize()?,
            max_cycles: dec.u64()?,
        })
    }
}

impl Persist for FuzzerOptions {
    fn encode(&self, enc: &mut Encoder) {
        self.phases.encode(enc);
        enc.bool(self.coverage_feedback);
        enc.usize(self.mutation_attempts);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(FuzzerOptions {
            phases: PhaseOptions::decode(dec)?,
            coverage_feedback: dec.bool()?,
            mutation_attempts: dec.usize()?,
        })
    }
}

/// One logical stream's persisted state.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerState {
    /// Raw RNG stream position (xoshiro state, see the vendored `rand`)
    /// that fresh seeds of this stream are drawn from.
    pub rng: [u64; 4],
    /// Iterations committed to this stream so far.
    pub iterations: usize,
    /// Everything this stream's slots observed (the exactness-invariant
    /// matrices of [`crate::executor::WorkerSummary`]).
    pub observed: CoverageMatrix,
}

impl Persist for WorkerState {
    fn encode(&self, enc: &mut Encoder) {
        self.rng.encode(enc);
        enc.usize(self.iterations);
        self.observed.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(WorkerState {
            rng: <[u64; 4]>::decode(dec)?,
            iterations: dec.usize()?,
            observed: CoverageMatrix::decode(dec)?,
        })
    }
}

impl Persist for PlannedSlot {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.slot);
        enc.usize(self.stream);
        self.seed.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(PlannedSlot {
            slot: dec.usize()?,
            stream: dec.usize()?,
            seed: Seed::decode(dec)?,
        })
    }
}

/// A pipelined round that was dispatched but not fully committed when the
/// checkpoint landed: its pre-drawn plan, the gain threshold it was
/// dispatched with, and the coverage points committed *after* its dispatch
/// (`view_behind`). The resumed orchestrator ships the round the snapshot's
/// coverage minus `view_behind`, the view the uninterrupted run shipped it,
/// so every point in `view_behind` must be in the coverage.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingRound {
    /// First global slot index of the round (always the snapshot's
    /// `completed` frontier).
    pub first_slot: usize,
    /// The round's pre-drawn slots, in slot order.
    pub slots: Vec<PlannedSlot>,
    /// Gain-threshold average at the round's dispatch.
    pub avg: f64,
    /// Gain-threshold sample count at the round's dispatch.
    pub samples: usize,
    /// Globally fresh points committed since the round's dispatch, in
    /// commit order.
    pub view_behind: Vec<dejavuzz_ift::CoveragePoint>,
}

impl Persist for PendingRound {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.first_slot);
        self.slots.encode(enc);
        enc.f64(self.avg);
        enc.usize(self.samples);
        self.view_behind.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(PendingRound {
            first_slot: dec.usize()?,
            slots: Vec::<PlannedSlot>::decode(dec)?,
            avg: dec.f64()?,
            samples: dec.usize()?,
            view_behind: Vec::<dejavuzz_ift::CoveragePoint>::decode(dec)?,
        })
    }
}

/// The complete persisted state of a fuzzing campaign at a round
/// boundary. See the module docs for the resume-equivalence contract.
/// Fields are declared in wire order.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSnapshot {
    /// Which shard of a multi-machine campaign this is (0 for unsharded
    /// runs; merge keys reports by it).
    pub shard_id: u32,
    /// Backend label echo ([`crate::backend::BackendSpec::label`]) —
    /// resume validates it so a snapshot taken against one DUT is never
    /// silently continued against another.
    pub backend: String,
    /// Worker count the campaign was (and must be resumed) running with.
    pub workers: usize,
    /// The user seed.
    pub seed: u64,
    /// Per-round batch size.
    pub batch: usize,
    /// Whether the campaign runs the cross-round pipeline (part of the
    /// replay identity like the scheduler; resume adopts it).
    pub pipelined: bool,
    /// The campaign's enabled scenario-template specs, canonical and
    /// sorted (part of the replay identity — resume adopts them and
    /// fails the build if a named family is not registered). Empty for
    /// campaigns that never enabled scenarios.
    pub scenarios: Vec<String>,
    /// Slot scheduler the campaign ran with. The wire format follows it
    /// with a scheduler state blob, always empty: work stealing keeps no
    /// state.
    pub scheduler: SchedulerSpec,
    /// Corpus seed policy — likewise adopted on resume.
    pub policy: PolicySpec,
    /// The policy's scheduling state beyond the corpus itself (favoured
    /// map, quota counters), restored into the rebuilt policy.
    pub policy_state: PolicyState,
    /// Campaign options echo — resume validates equality.
    pub opts: FuzzerOptions,
    /// Iterations completed when the snapshot was taken.
    pub completed: usize,
    /// Running-average mutation-gain threshold (§4.2.2): (average,
    /// sample count). The average restores bit-identically.
    pub gain_avg: f64,
    /// Samples folded into `gain_avg`.
    pub gain_samples: usize,
    /// Scheduler RNG stream position.
    pub sched_rng: [u64; 4],
    /// The seed corpus. Its cached scheduling mass travels right after
    /// it, so resumed roulette draws replay bit-identically against the
    /// incrementally maintained total.
    pub corpus: Corpus,
    /// The exact global coverage union.
    pub coverage: CoverageMatrix,
    /// Campaign statistics, including the exact coverage curve and
    /// deduplicated bug reports.
    pub stats: CampaignStats,
    /// Per-stream state, indexed by stream.
    pub worker_states: Vec<WorkerState>,
    /// The in-flight pipelined round at checkpoint time, if any.
    pub pending: Option<PendingRound>,
}

/// A structured rejection of a snapshot field that decoded but
/// contradicts the rest of the file.
fn invalid(what: &'static str, detail: String) -> DecodeError {
    DecodeError::InvalidValue { what, detail }
}

impl Persist for CampaignSnapshot {
    fn encode(&self, enc: &mut Encoder) {
        enc.u32(self.shard_id);
        enc.str(&self.backend);
        enc.usize(self.workers);
        enc.u64(self.seed);
        enc.usize(self.batch);
        enc.bool(self.pipelined);
        self.scenarios.encode(enc);
        self.scheduler.encode(enc);
        enc.bytes(&[]);
        self.policy.encode(enc);
        self.policy_state.encode(enc);
        self.opts.encode(enc);
        enc.usize(self.completed);
        enc.f64(self.gain_avg);
        enc.usize(self.gain_samples);
        self.sched_rng.encode(enc);
        self.corpus.encode(enc);
        enc.f64(self.corpus.energy_cache());
        self.coverage.encode(enc);
        self.stats.encode(enc);
        self.worker_states.encode(enc);
        self.pending.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        // Struct fields evaluate in the order written: wire order.
        let snap = CampaignSnapshot {
            shard_id: dec.u32()?,
            backend: dec.string()?,
            workers: dec.usize()?,
            seed: dec.u64()?,
            batch: dec.usize()?,
            pipelined: dec.bool()?,
            scenarios: Vec::<String>::decode(dec)?,
            scheduler: {
                let scheduler = SchedulerSpec::decode(dec)?;
                let state = dec.bytes()?;
                if !state.is_empty() {
                    return Err(invalid(
                        "CampaignSnapshot::scheduler",
                        format!(
                            "a {}-byte state blob for a stateless scheduler",
                            state.len()
                        ),
                    ));
                }
                scheduler
            },
            policy: PolicySpec::decode(dec)?,
            policy_state: PolicyState::decode(dec)?,
            opts: FuzzerOptions::decode(dec)?,
            completed: dec.usize()?,
            gain_avg: dec.f64()?,
            gain_samples: dec.usize()?,
            sched_rng: <[u64; 4]>::decode(dec)?,
            corpus: {
                let mut corpus = Corpus::decode(dec)?;
                let energy = dec.f64()?;
                // `Corpus::decode` restored the cache from a fresh scan;
                // the persisted value may differ from it only by the
                // incremental-update float drift the cache exists to make
                // reproducible. Anything further off is a corrupt or
                // crafted file — accepting it would skew every roulette
                // pick (and trip the debug cross-check as a panic instead
                // of a structured error).
                let scan = corpus.energy_cache();
                if !energy.is_finite()
                    || energy < 0.0
                    || (energy - scan).abs() > 1e-6 * scan.abs().max(1.0)
                {
                    return Err(invalid(
                        "CampaignSnapshot::corpus_energy",
                        format!(
                            "{energy} is not a valid scheduling mass for entries summing to {scan}"
                        ),
                    ));
                }
                corpus.set_energy_cache(energy);
                corpus
            },
            coverage: CoverageMatrix::decode(dec)?,
            stats: CampaignStats::decode(dec)?,
            worker_states: Vec::<WorkerState>::decode(dec)?,
            pending: Option::<PendingRound>::decode(dec)?,
        };
        if snap.workers == 0 {
            return Err(invalid("CampaignSnapshot::workers", "zero workers".into()));
        }
        if snap.worker_states.len() != snap.workers {
            return Err(invalid(
                "CampaignSnapshot::worker_states",
                format!(
                    "{} states for {} workers",
                    snap.worker_states.len(),
                    snap.workers
                ),
            ));
        }
        if snap.completed != snap.stats.iterations {
            return Err(invalid(
                "CampaignSnapshot::completed",
                format!(
                    "completed {} != stats.iterations {}",
                    snap.completed, snap.stats.iterations
                ),
            ));
        }
        if let Some(p) = &snap.pending {
            // A pending round is the in-flight round at the committed
            // frontier, a plan the commit loop can finish: a barriered
            // campaign can never have one, its first slot must be exactly
            // `completed`, and its slots must follow on, in order, on the
            // campaign's streams.
            if !snap.pipelined {
                return Err(invalid(
                    "CampaignSnapshot::pending",
                    "a pending round without pipelining".into(),
                ));
            }
            if p.first_slot != snap.completed {
                return Err(invalid(
                    "CampaignSnapshot::pending",
                    format!(
                        "pending round starts at {} but the snapshot completed {}",
                        p.first_slot, snap.completed
                    ),
                ));
            }
            check_plan(&p.slots, p.first_slot, snap.workers)
                .map_err(|detail| invalid("CampaignSnapshot::pending", detail))?;
            // The round's view is the coverage minus `view_behind`, so a
            // point the coverage lacks names a view no run ever had.
            if let Some(point) = p
                .view_behind
                .iter()
                .find(|point| !snap.coverage.contains_point(point))
            {
                return Err(invalid(
                    "CampaignSnapshot::pending",
                    format!(
                        "view_behind names {}/{}, which the coverage lacks",
                        point.module, point.index
                    ),
                ));
            }
        }
        Ok(snap)
    }
}

impl CampaignSnapshot {
    /// Serialises to the framed on-disk format (magic + version +
    /// checksum around the encoded state).
    pub fn to_bytes(&self) -> Vec<u8> {
        frame::seal(
            SNAPSHOT_MAGIC,
            SNAPSHOT_VERSION,
            &dejavuzz_persist::to_bytes(self),
        )
    }

    /// Decodes a framed snapshot, validating magic, version and checksum
    /// before any state decoding. Any version but [`SNAPSHOT_VERSION`] is
    /// a [`DecodeError::UnsupportedVersion`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        dejavuzz_persist::from_bytes(frame::open(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, bytes)?)
    }

    /// Writes the snapshot to `path` atomically (write-rename).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        dejavuzz_persist::save_atomic(path, &self.to_bytes())
    }

    /// Loads and validates a snapshot file.
    pub fn load(path: &Path) -> Result<Self, LoadError> {
        Ok(Self::from_bytes(&dejavuzz_persist::load_bytes(path)?)?)
    }
}

/// Why [`crate::builder::CampaignBuilder::resume`] refused a snapshot
/// (surfaced as [`crate::builder::BuildError::Resume`] at build time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResumeError {
    /// The snapshot was taken against a different DUT/backend.
    BackendMismatch {
        /// Backend label recorded in the snapshot.
        snapshot: String,
        /// Backend label of the resuming orchestrator.
        current: String,
    },
    /// The snapshot was taken with different campaign options (variant,
    /// IFT mode, mutation budget, …) — continuing would silently mix two
    /// different experiments.
    OptionsMismatch,
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::BackendMismatch { snapshot, current } => write!(
                f,
                "snapshot was taken on backend {snapshot:?} but this campaign runs {current:?}"
            ),
            ResumeError::OptionsMismatch => {
                write!(f, "snapshot was taken with different campaign options")
            }
        }
    }
}

impl std::error::Error for ResumeError {}

/// The result of merging shard snapshots: exact coverage union plus
/// summed/deduplicated stats.
#[derive(Clone, Debug)]
pub struct MergeReport {
    /// Shard ids in input order.
    pub shards: Vec<u32>,
    /// Merged stats: counters summed, bugs deduplicated by
    /// [`BugReport::dedup_key`], curve merged by pointwise max (the
    /// tightest after-the-fact lower bound — see
    /// [`CampaignStats::merge`]).
    pub stats: CampaignStats,
    /// The **exact union** of per-shard coverage: distinct points, never
    /// a pointwise sum.
    pub coverage: CoverageMatrix,
    /// Sum of per-shard point counts — the figure a naive merge would
    /// have (over-)reported; kept so reports can show the delta.
    pub summed_points: usize,
}

/// Merges shard snapshots into one report. Shards are typically runs
/// with disjoint seeds on different machines; the union is exact because
/// coverage points are value-equal across processes (module name +
/// count), not pointer- or process-local.
pub fn merge_snapshots(snaps: &[CampaignSnapshot]) -> MergeReport {
    let mut stats = CampaignStats::default();
    let mut coverage = CoverageMatrix::new();
    let mut summed_points = 0;
    let mut shards = Vec::with_capacity(snaps.len());
    for s in snaps {
        shards.push(s.shard_id);
        stats.merge(&s.stats);
        summed_points += s.coverage.points();
        coverage.merge(&s.coverage);
    }
    MergeReport {
        shards,
        stats,
        coverage,
        summed_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WindowType;

    fn sample_stats() -> CampaignStats {
        let mut stats = CampaignStats {
            iterations: 5,
            coverage_curve: vec![1, 2, 2, 4, 6],
            sim_runs: 17,
            sim_cycles: 12_345,
            failed_runs: 1,
            first_bug_iteration: Some(3),
            ..CampaignStats::default()
        };
        stats.windows.insert(
            WindowType::BranchMispredict,
            WindowStats {
                triggered: 3,
                attempted: 5,
                to_sum: 40,
                eto_sum: 9,
            },
        );
        stats.bugs.push(BugReport {
            core: "BOOM".into(),
            attack: AttackType::Spectre,
            window_type: WindowType::BranchMispredict,
            channel: LeakChannel::Encoded {
                module: Module::Dcache,
            },
            iteration: 3,
        });
        stats
    }

    #[test]
    fn stats_round_trip_including_bugs_and_windows() {
        let stats = sample_stats();
        let bytes = dejavuzz_persist::to_bytes(&stats);
        let back: CampaignStats = dejavuzz_persist::from_bytes(&bytes).unwrap();
        assert_eq!(back, stats);
        assert_eq!(back.bugs[0].dedup_key(), stats.bugs[0].dedup_key());
    }

    #[test]
    fn all_window_types_and_modes_round_trip() {
        for wt in WindowType::ALL {
            let bytes = dejavuzz_persist::to_bytes(&wt);
            assert_eq!(
                dejavuzz_persist::from_bytes::<WindowType>(&bytes).unwrap(),
                wt
            );
        }
        for mode in [IftMode::Base, IftMode::CellIft, IftMode::DiffIft] {
            let bytes = dejavuzz_persist::to_bytes(&mode);
            assert_eq!(
                dejavuzz_persist::from_bytes::<IftMode>(&bytes).unwrap(),
                mode
            );
        }
    }

    #[test]
    fn unknown_window_tag_is_invalid() {
        let bytes = dejavuzz_persist::to_bytes(&99u32);
        assert_eq!(
            dejavuzz_persist::from_bytes::<WindowType>(&bytes),
            Err(DecodeError::InvalidTag {
                what: "WindowType",
                tag: 99
            })
        );
    }

    #[test]
    fn corpus_round_trip_preserves_order_and_counters() {
        let mut c = Corpus::new(4).with_exploit_probability(0.25);
        for e in [9u64, 4, 7] {
            c.record(&Seed::new(WindowType::MemPageFault, e), (e + 1) as usize);
        }
        let bytes = dejavuzz_persist::to_bytes(&c);
        let back: Corpus = dejavuzz_persist::from_bytes(&bytes).unwrap();
        assert_eq!(back, c, "entries, order, counters and config all equal");
    }

    #[test]
    fn corpus_with_invalid_probability_fails_decode_not_panic() {
        let mut c = Corpus::new(4);
        c.record(&Seed::new(WindowType::IllegalInstr, 1), 3);
        let mut bytes = dejavuzz_persist::to_bytes(&c);
        // The exploit probability is the f64 right after the capacity u64.
        bytes[8..16].copy_from_slice(&7.5f64.to_bits().to_le_bytes());
        assert!(matches!(
            dejavuzz_persist::from_bytes::<Corpus>(&bytes),
            Err(DecodeError::InvalidValue {
                what: "Corpus::exploit_probability",
                ..
            })
        ));
    }

    fn sample_snapshot() -> CampaignSnapshot {
        CampaignSnapshot {
            shard_id: 2,
            backend: "behavioural:BOOM".into(),
            workers: 2,
            seed: 42,
            batch: 4,
            scheduler: SchedulerSpec::WorkStealing,
            policy: PolicySpec::FavouredQuota,
            policy_state: PolicyState::Favoured {
                favours: vec![(
                    dejavuzz_ift::CoveragePoint {
                        module: Module::Rob,
                        index: 3,
                    },
                    Favour {
                        window_type: WindowType::BranchMispredict,
                        entropy: 7,
                        cost: 12,
                    },
                )],
                picks: vec![(WindowType::BranchMispredict, 4)],
            },
            opts: FuzzerOptions::default(),
            completed: 5,
            gain_avg: 1.75,
            gain_samples: 11,
            sched_rng: [1, 2, 3, 4],
            corpus: Corpus::new(8),
            coverage: CoverageMatrix::new(),
            stats: sample_stats(),
            worker_states: vec![
                WorkerState {
                    rng: [5, 6, 7, 8],
                    iterations: 3,
                    observed: CoverageMatrix::new(),
                },
                WorkerState {
                    rng: [9, 10, 11, 12],
                    iterations: 2,
                    observed: CoverageMatrix::new(),
                },
            ],
            pipelined: false,
            pending: None,
            scenarios: Vec::new(),
        }
    }

    /// Scenario windows round-trip by canonical spec string: the decoded
    /// variant compares equal (same interned instance) even though the
    /// index itself is process-local, and the same family spelled with
    /// explicit default parameters lands on the same instance.
    #[test]
    fn scenario_window_types_round_trip_by_spec() {
        let idx = dejavuzz_scenarios::intern_spec("nested-spec:depth=4").unwrap();
        let wt = WindowType::Scenario(idx);
        let bytes = dejavuzz_persist::to_bytes(&wt);
        assert_eq!(
            dejavuzz_persist::from_bytes::<WindowType>(&bytes).unwrap(),
            wt
        );
        // A Seed carrying a scenario window survives too (the corpus and
        // planned-slot paths both go through Seed).
        let seed = Seed::new(wt, 77);
        let bytes = dejavuzz_persist::to_bytes(&seed);
        assert_eq!(dejavuzz_persist::from_bytes::<Seed>(&bytes).unwrap(), seed);
    }

    /// A snapshot naming a scenario family this build has never heard of
    /// must fail structurally with the registry's diagnosis — resuming
    /// it would draw windows no template can generate.
    #[test]
    fn unknown_scenario_family_fails_decode_structurally() {
        let mut enc = Encoder::new();
        enc.u32(WindowType::ALL.len() as u32);
        enc.str("ghost-fam");
        let bytes = enc.into_bytes();
        let err = {
            let mut dec = Decoder::new(&bytes);
            WindowType::decode(&mut dec).unwrap_err()
        };
        match err {
            DecodeError::InvalidValue { what, detail } => {
                assert_eq!(what, "WindowType::scenario");
                assert_eq!(detail, "unknown scenario family \"ghost-fam\"");
            }
            other => panic!("expected InvalidValue, got {other:?}"),
        }
    }

    /// Enabled scenario specs survive the wire format, and a snapshot
    /// whose corpus carries scenario seeds round-trips value-equal.
    #[test]
    fn v5_scenarios_survive_a_round_trip() {
        let mut snap = sample_snapshot();
        snap.scenarios = vec![
            "double-fetch:gap=2".to_string(),
            "nested-spec:depth=3".to_string(),
        ];
        let idx = dejavuzz_scenarios::intern_spec("double-fetch:gap=2").unwrap();
        snap.corpus
            .record(&Seed::new(WindowType::Scenario(idx), 21), 4);
        let decoded = CampaignSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded, snap, "scenario specs and seeds survive");
    }

    fn sample_pending(first_slot: usize) -> PendingRound {
        PendingRound {
            first_slot,
            slots: vec![
                PlannedSlot {
                    slot: first_slot,
                    stream: 0,
                    seed: Seed::new(WindowType::BranchMispredict, 77),
                },
                PlannedSlot {
                    slot: first_slot + 1,
                    stream: 1,
                    seed: Seed::new(WindowType::MemPageFault, 78),
                },
            ],
            avg: 2.5,
            samples: 9,
            view_behind: vec![dejavuzz_ift::CoveragePoint {
                module: Module::Lsu,
                index: 3,
            }],
        }
    }

    /// An in-flight pipelined round (its pre-drawn plan, dispatch-time
    /// gain state and the points committed behind it) survives the wire
    /// format exactly.
    #[test]
    fn v4_pending_round_survives_a_round_trip() {
        let mut snap = sample_snapshot();
        snap.pipelined = true;
        snap.pending = Some(sample_pending(snap.completed));
        snap.coverage.insert(dejavuzz_ift::CoveragePoint {
            module: Module::Lsu,
            index: 3,
        });
        let decoded = CampaignSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded, snap, "pipelining and pending round survive");
    }

    /// A pending round in a barriered snapshot is self-contradictory and
    /// must fail decode structurally.
    #[test]
    fn pending_round_without_pipelining_fails_decode() {
        let mut snap = sample_snapshot();
        snap.pending = Some(sample_pending(snap.completed));
        assert!(matches!(
            CampaignSnapshot::from_bytes(&snap.to_bytes()),
            Err(DecodeError::InvalidValue {
                what: "CampaignSnapshot::pending",
                ..
            })
        ));
    }

    /// A pending round must sit exactly at the committed frontier; any
    /// other first slot means the file is internally inconsistent.
    #[test]
    fn pending_round_off_the_committed_frontier_fails_decode() {
        let mut snap = sample_snapshot();
        snap.pipelined = true;
        snap.pending = Some(sample_pending(snap.completed + 2));
        assert!(matches!(
            CampaignSnapshot::from_bytes(&snap.to_bytes()),
            Err(DecodeError::InvalidValue {
                what: "CampaignSnapshot::pending",
                ..
            })
        ));
    }

    /// A pending round's view is the coverage minus its `view_behind`, so
    /// each of those points must be in the coverage: a point outside it
    /// would sit in no union the resumed run keeps.
    #[test]
    fn pending_round_behind_points_outside_the_coverage_fail_decode() {
        let mut snap = sample_snapshot();
        snap.pipelined = true;
        snap.pending = Some(sample_pending(snap.completed));
        assert_eq!(
            CampaignSnapshot::from_bytes(&snap.to_bytes()),
            Err(DecodeError::InvalidValue {
                what: "CampaignSnapshot::pending",
                detail: "view_behind names lsu/3, which the coverage lacks".into(),
            })
        );
    }

    /// A pending round that skips a slot number would hang the resumed
    /// commit loop, which waits for every slot in turn: decode refuses it.
    #[test]
    fn pending_round_skipping_a_slot_fails_decode() {
        let mut snap = sample_snapshot();
        snap.pipelined = true;
        let mut pending = sample_pending(snap.completed);
        pending.slots[1].slot += 1;
        snap.pending = Some(pending);
        assert_eq!(
            CampaignSnapshot::from_bytes(&snap.to_bytes()),
            Err(DecodeError::InvalidValue {
                what: "CampaignSnapshot::pending",
                detail: "slot 7 at position 1 of a round starting at 5".into(),
            })
        );
    }

    /// A pending slot on a stream past the worker count would index past
    /// the resumed run's stream accounting: decode refuses it.
    #[test]
    fn pending_round_on_a_missing_stream_fails_decode() {
        let mut snap = sample_snapshot();
        snap.pipelined = true;
        let mut pending = sample_pending(snap.completed);
        pending.slots[1].stream = 9;
        snap.pending = Some(pending);
        assert_eq!(
            CampaignSnapshot::from_bytes(&snap.to_bytes()),
            Err(DecodeError::InvalidValue {
                what: "CampaignSnapshot::pending",
                detail: "slot 6 on stream 9 of 2 workers".into(),
            })
        );
    }

    /// Every other format version fails before any payload decoding —
    /// v1 to v6 included — with the version named.
    #[test]
    fn other_snapshot_versions_are_unsupported() {
        let payload = dejavuzz_persist::to_bytes(&sample_snapshot());
        for found in [0, 1, 6, 8] {
            let bytes = frame::seal(SNAPSHOT_MAGIC, found, &payload);
            assert_eq!(
                CampaignSnapshot::from_bytes(&bytes),
                Err(DecodeError::UnsupportedVersion {
                    found,
                    supported: SNAPSHOT_VERSION
                })
            );
        }
    }

    /// A checksum-valid file whose persisted energy disagrees with its
    /// own corpus entries must fail decode structurally — not panic the
    /// debug cross-check or silently skew release-build scheduling.
    #[test]
    fn inconsistent_corpus_energy_fails_decode_not_panic() {
        let mut snap = sample_snapshot();
        snap.corpus
            .record(&Seed::new(WindowType::BranchMispredict, 3), 5);
        let honest = snap.to_bytes();
        assert_eq!(CampaignSnapshot::from_bytes(&honest).unwrap(), snap);

        // Re-encode with a bogus energy (the f64 right after the corpus,
        // followed by the coverage, stats, per-stream states and pending
        // round).
        let payload_start = 8 + 4 + 8 + 8; // magic + version + len + checksum
        let mut payload = honest[payload_start..].to_vec();
        let tail = dejavuzz_persist::to_bytes(&snap.coverage).len()
            + dejavuzz_persist::to_bytes(&snap.stats).len()
            + dejavuzz_persist::to_bytes(&snap.worker_states).len()
            + dejavuzz_persist::to_bytes(&snap.pending).len();
        let energy_at = payload.len() - tail - 8;
        payload[energy_at..energy_at + 8].copy_from_slice(&1e9f64.to_bits().to_le_bytes());
        let forged = frame::seal(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &payload);
        assert!(matches!(
            CampaignSnapshot::from_bytes(&forged),
            Err(DecodeError::InvalidValue {
                what: "CampaignSnapshot::corpus_energy",
                ..
            })
        ));
    }

    #[test]
    fn scheduling_specs_and_state_round_trip() {
        let bytes = dejavuzz_persist::to_bytes(&SchedulerSpec::WorkStealing);
        assert_eq!(
            dejavuzz_persist::from_bytes::<SchedulerSpec>(&bytes).unwrap(),
            SchedulerSpec::WorkStealing
        );
        for spec in [PolicySpec::EnergyDecay, PolicySpec::FavouredQuota] {
            let bytes = dejavuzz_persist::to_bytes(&spec);
            assert_eq!(
                dejavuzz_persist::from_bytes::<PolicySpec>(&bytes).unwrap(),
                spec
            );
        }
        for state in [sample_snapshot().policy_state, PolicyState::Stateless] {
            let bytes = dejavuzz_persist::to_bytes(&state);
            assert_eq!(
                dejavuzz_persist::from_bytes::<PolicyState>(&bytes).unwrap(),
                state
            );
        }
        // Unknown tags fail structurally, never panic, and so do the tags
        // v7 once gave extension schedulers and policies (an id) and
        // opaque policy state (a blob).
        let tagged = |tag: u32| {
            let mut enc = Encoder::new();
            enc.u32(tag);
            enc.str("x");
            enc.into_bytes()
        };
        let invalid = |what, tag| Some(DecodeError::InvalidTag { what, tag });
        for tag in [1, 9] {
            assert_eq!(
                dejavuzz_persist::from_bytes::<SchedulerSpec>(&tagged(tag)).err(),
                invalid("SchedulerSpec", tag)
            );
        }
        for tag in [2, 9] {
            assert_eq!(
                dejavuzz_persist::from_bytes::<PolicySpec>(&tagged(tag)).err(),
                invalid("PolicySpec", tag)
            );
            assert_eq!(
                dejavuzz_persist::from_bytes::<PolicyState>(&tagged(tag)).err(),
                invalid("PolicyState", tag)
            );
        }
    }

    /// v7 keeps a scheduler state blob after the scheduler tag: it is
    /// written empty, and decode refuses a snapshot whose blob is not.
    #[test]
    fn a_non_empty_scheduler_blob_fails_decode() {
        let snap = sample_snapshot();
        let mut enc = Encoder::new();
        enc.u32(snap.shard_id);
        enc.str(&snap.backend);
        enc.usize(snap.workers);
        enc.u64(snap.seed);
        enc.usize(snap.batch);
        enc.bool(snap.pipelined);
        snap.scenarios.encode(&mut enc);
        snap.scheduler.encode(&mut enc);
        let honest = dejavuzz_persist::to_bytes(&snap);
        let at = enc.into_bytes().len();
        // The empty blob is a zero length; splice in a two-byte one.
        assert_eq!(honest[at..at + 8], [0; 8]);
        let mut forged = honest[..at].to_vec();
        forged.extend_from_slice(&2u64.to_le_bytes());
        forged.extend_from_slice(&[0xA5, 0x5A]);
        forged.extend_from_slice(&honest[at + 8..]);
        assert_eq!(
            dejavuzz_persist::from_bytes::<CampaignSnapshot>(&forged),
            Err(DecodeError::InvalidValue {
                what: "CampaignSnapshot::scheduler",
                detail: "a 2-byte state blob for a stateless scheduler".into(),
            })
        );
    }

    #[test]
    fn framed_snapshot_round_trips() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes();
        assert_eq!(CampaignSnapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn every_truncation_of_a_real_snapshot_fails_structurally() {
        let bytes = sample_snapshot().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                CampaignSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn wrong_version_and_magic_fail_before_payload_decode() {
        let bytes = sample_snapshot().to_bytes();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            CampaignSnapshot::from_bytes(&wrong_magic),
            Err(DecodeError::BadMagic { .. })
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 99;
        assert!(matches!(
            CampaignSnapshot::from_bytes(&wrong_version),
            Err(DecodeError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn payload_corruption_is_caught_by_the_checksum() {
        let mut bytes = sample_snapshot().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        assert!(matches!(
            CampaignSnapshot::from_bytes(&bytes),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn inconsistent_worker_states_fail_decode() {
        let mut snap = sample_snapshot();
        snap.worker_states.pop();
        // Re-frame the inconsistent payload with a valid checksum so the
        // *semantic* validation is what trips.
        let bytes = frame::seal(
            SNAPSHOT_MAGIC,
            SNAPSHOT_VERSION,
            &dejavuzz_persist::to_bytes(&snap),
        );
        assert!(matches!(
            CampaignSnapshot::from_bytes(&bytes),
            Err(DecodeError::InvalidValue {
                what: "CampaignSnapshot::worker_states",
                ..
            })
        ));
    }

    #[test]
    fn save_load_round_trips_on_disk() {
        let snap = sample_snapshot();
        let path = std::env::temp_dir().join(format!(
            "dejavuzz-snapshot-test-{}.snap",
            std::process::id()
        ));
        snap.save(&path).unwrap();
        assert_eq!(CampaignSnapshot::load(&path).unwrap(), snap);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn merge_unions_coverage_and_dedups_bugs() {
        let mut a = sample_snapshot();
        let mut b = sample_snapshot();
        b.shard_id = 3;
        use dejavuzz_ift::CoveragePoint;
        for (m, i) in [(Module::Rob, 1), (Module::Rob, 2), (Module::Lsu, 1)] {
            a.coverage.insert(CoveragePoint {
                module: m,
                index: i,
            });
        }
        for (m, i) in [(Module::Rob, 2), (Module::Dcache, 4)] {
            b.coverage.insert(CoveragePoint {
                module: m,
                index: i,
            });
        }
        let merged = merge_snapshots(&[a.clone(), b.clone()]);
        assert_eq!(merged.shards, vec![2, 3]);
        assert_eq!(merged.coverage.points(), 4, "exact union, rob/2 once");
        assert_eq!(merged.summed_points, 5, "the naive sum inflates");
        assert_eq!(merged.stats.iterations, 10);
        assert_eq!(
            merged.stats.bugs.len(),
            1,
            "identical dedup keys collapse across shards"
        );
    }
}
