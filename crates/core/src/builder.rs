//! [`CampaignBuilder`]: the single typed entry point for configuring and
//! launching fuzzing campaigns.
//!
//! Historically a campaign was assembled from ~15 loose
//! `Orchestrator` setters plus `CoreConfig`-positional compatibility
//! constructors, each validating (or panicking) on its own. The builder
//! subsumes all of them: one value describes the whole campaign, `build`
//! validates the whole configuration *up front* into one structured
//! [`BuildError`] (never a panic), and the returned
//! [`crate::executor::Orchestrator`] only ever runs configurations that
//! already passed validation.
//!
//! Beyond the built-in backends ([`BackendSpec`]), the builder accepts a
//! custom [`SimBackend`] as a constructor
//! ([`CampaignBuilder::backend_ctor`]) under an id: the campaign's
//! snapshots echo the id, and a resume continues them under a builder
//! given a constructor with the same id.
//!
//! # Embedding example
//!
//! ```
//! use dejavuzz::builder::CampaignBuilder;
//! use dejavuzz::observer::{CampaignObserver, BugFound};
//!
//! // An observer that collects bug reports as they are committed.
//! #[derive(Default)]
//! struct BugLog(Vec<String>);
//! impl CampaignObserver for BugLog {
//!     fn bug_found(&mut self, ev: &BugFound) {
//!         self.0.push(ev.bug.to_string());
//!     }
//! }
//!
//! let orch = CampaignBuilder::new() // behavioural SmallBOOM by default
//!     .workers(2)
//!     .seed(7)
//!     .pipelined(true)
//!     .build()
//!     .expect("a valid configuration");
//! let mut observers: Vec<Box<dyn CampaignObserver>> = vec![Box::new(BugLog::default())];
//! let (report, _snapshot) = orch.run_observed(16, &mut observers);
//! assert_eq!(report.stats.iterations, 16);
//! ```

use std::fmt;
use std::path::PathBuf;

use crate::backend::{BackendCtor, BackendSpec, SimBackend};
use crate::campaign::FuzzerOptions;
use crate::executor::Orchestrator;
use crate::scheduler::{PolicySpec, SchedulerSpec};
use crate::snapshot::{CampaignSnapshot, ResumeError};

/// Why [`CampaignBuilder::build`] refused a configuration. Every variant
/// is a misconfiguration the old setter-based API either panicked on or
/// silently clamped; the builder reports them all structurally, before
/// any worker thread or simulator is created.
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// The corpus exploit probability is NaN or outside `[0, 1]`.
    InvalidExploitProbability {
        /// The offending value.
        value: f64,
    },
    /// A pool needs at least one worker.
    ZeroWorkers,
    /// A round needs at least one slot per worker.
    ZeroBatch,
    /// The corpus must be able to hold at least one seed.
    ZeroCorpusCapacity,
    /// A `proc:<inner>:<M>` backend's worker pool could not be started:
    /// missing `dejavuzz-simd` binary, spawn failure, or the workers
    /// refused the configuration at handshake.
    ProcPool {
        /// The backend label (`proc:<inner>:<M>`).
        spec: String,
        /// The spawn or handshake diagnosis.
        detail: String,
    },
    /// A scenario spec handed to [`CampaignBuilder::scenarios`] (or
    /// adopted from a resumed snapshot) does not parse: unknown family,
    /// malformed or out-of-range parameter. Wraps the scenario
    /// registry's diagnosis verbatim.
    InvalidScenario {
        /// The offending spec as supplied.
        spec: String,
        /// The scenario registry's diagnosis.
        detail: String,
    },
    /// The snapshot handed to [`CampaignBuilder::resume`] cannot continue
    /// under this configuration.
    Resume(ResumeError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InvalidExploitProbability { value } => {
                write!(f, "exploit probability must be in [0, 1], got {value}")
            }
            BuildError::ZeroWorkers => write!(f, "workers must be at least 1"),
            BuildError::ZeroBatch => write!(f, "batch size must be at least 1"),
            BuildError::ZeroCorpusCapacity => write!(f, "corpus capacity must be at least 1"),
            BuildError::ProcPool { spec, detail } => {
                write!(f, "cannot start worker pool for backend {spec:?}: {detail}")
            }
            BuildError::InvalidScenario { spec, detail } => {
                write!(f, "invalid scenario spec {spec:?}: {detail}")
            }
            BuildError::Resume(e) => write!(f, "cannot resume: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ResumeError> for BuildError {
    fn from(e: ResumeError) -> Self {
        BuildError::Resume(e)
    }
}

/// Interns a list of scenario specs and returns the campaign's canonical
/// scenario set: `(canonical specs, intern indices)`, both sorted by the
/// canonical spec *string* and deduplicated. Sorting by string (not by
/// process-local intern index) is what makes the k-th fresh-seed draw
/// map to the same scenario instance in every process — intern order
/// differs between a fresh build and a resume.
pub(crate) fn intern_scenarios<S: AsRef<str>>(
    specs: &[S],
) -> Result<(Vec<String>, Vec<u16>), BuildError> {
    let mut interned: Vec<(String, u16)> = Vec::with_capacity(specs.len());
    for spec in specs {
        let spec = spec.as_ref();
        let idx =
            dejavuzz_scenarios::intern_spec(spec).map_err(|e| BuildError::InvalidScenario {
                spec: spec.to_string(),
                detail: e.to_string(),
            })?;
        interned.push((dejavuzz_scenarios::instance_spec(idx).to_string(), idx));
    }
    interned.sort_by(|a, b| a.0.cmp(&b.0));
    interned.dedup_by(|a, b| a.0 == b.0);
    Ok(interned.into_iter().unzip())
}

/// The typed campaign entry point. See the module docs; every method is
/// chainable, the builder is `Clone` (re-run the same configuration with
/// different halt points, as the persistence tests do) and
/// [`CampaignBuilder::build`] is where all validation happens.
#[derive(Clone, Default)]
pub struct CampaignBuilder {
    backend: BackendSpec,
    opts: FuzzerOptions,
    workers: usize,
    seed: u64,
    batch: Option<usize>,
    pipelined: bool,
    policy: PolicySpec,
    corpus_capacity: usize,
    corpus_exploit: f64,
    shard_id: u32,
    snapshot_every: usize,
    snapshot_path: Option<PathBuf>,
    snapshot_keep: usize,
    halt_after: Option<usize>,
    resume: Option<Box<CampaignSnapshot>>,
    scenarios: Vec<String>,
}

// Manual: a resume snapshot would print its whole corpus and coverage;
// everything a failing configuration needs to name is here.
impl fmt::Debug for CampaignBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignBuilder")
            .field("backend", &self.backend.label())
            .field("workers", &self.workers)
            .field("seed", &self.seed)
            .field("batch", &self.batch)
            .field("pipelined", &self.pipelined)
            .field("policy", &self.policy)
            .field("shard_id", &self.shard_id)
            .field("scenarios", &self.scenarios)
            .finish_non_exhaustive()
    }
}

impl CampaignBuilder {
    /// A fresh builder with the library defaults: the behavioural
    /// SmallBOOM backend, default [`FuzzerOptions`], one worker, seed 0,
    /// barriered work-stealing rounds, energy-decay corpus picks.
    pub fn new() -> Self {
        CampaignBuilder {
            backend: BackendSpec::default(),
            opts: FuzzerOptions::default(),
            workers: 1,
            seed: 0,
            batch: None,
            pipelined: false,
            policy: PolicySpec::default(),
            corpus_capacity: crate::corpus::DEFAULT_CAPACITY,
            corpus_exploit: crate::corpus::EXPLOIT_PROBABILITY,
            shard_id: 0,
            snapshot_every: 0,
            snapshot_path: None,
            snapshot_keep: 0,
            halt_after: None,
            resume: None,
            scenarios: Vec::new(),
        }
    }

    /// Selects the simulation backend (default: behavioural SmallBOOM).
    /// Each worker thread builds its own simulator from the spec.
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Supplies a custom [`SimBackend`] as a constructor trait object,
    /// selecting [`BackendSpec::Extension`] with `id` and `ctor`. The
    /// constructor runs once per worker thread. Snapshots echo the label
    /// `ext:<id>`, so resuming needs a builder given a constructor with
    /// the same id.
    pub fn backend_ctor(
        mut self,
        id: &str,
        ctor: impl Fn() -> Box<dyn SimBackend> + Send + Sync + 'static,
    ) -> Self {
        self.backend = BackendSpec::Extension {
            id: id.to_string(),
            ctor: BackendCtor(std::sync::Arc::new(ctor)),
        };
        self
    }

    /// Campaign options (variant, IFT mode, mutation budget).
    pub fn options(mut self, opts: FuzzerOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Pipeline workers sharing one corpus (default 1; zero is a
    /// [`BuildError::ZeroWorkers`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The campaign RNG seed (default 0). Together with `workers` and
    /// `batch` this is the campaign's replay identity.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Iteration slots per logical stream per round (default
    /// [`crate::executor::DEFAULT_BATCH`]; zero is a
    /// [`BuildError::ZeroBatch`]). Part of the replay identity: a round
    /// spans `workers x batch` slots.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Runs the cross-round pipeline (default `false`: barriered rounds).
    /// The executor's one commit loop then keeps one round in flight
    /// ahead of the round it commits: the orchestrator pre-draws the
    /// next round while the current one's stragglers finish, so round
    /// `k` is planned from the state committed through round `k - 2`,
    /// killing the end-of-round barrier idle. Part of the campaign's
    /// replay identity: results are identical per `(seed, workers,
    /// batch, pipelined)`.
    pub fn pipelined(mut self, pipelined: bool) -> Self {
        self.pipelined = pipelined;
        self
    }

    /// Selects the slot scheduler. [`SchedulerSpec::WorkStealing`] is
    /// the only one, so every campaign already runs it.
    pub fn scheduler(self, _scheduler: SchedulerSpec) -> Self {
        self
    }

    /// Selects the corpus seed policy (default
    /// [`PolicySpec::EnergyDecay`]).
    pub fn seed_policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the corpus capacity (default
    /// [`crate::corpus::DEFAULT_CAPACITY`]; zero is a
    /// [`BuildError::ZeroCorpusCapacity`]).
    pub fn corpus_capacity(mut self, capacity: usize) -> Self {
        self.corpus_capacity = capacity;
        self
    }

    /// Overrides the corpus exploit probability (default
    /// [`crate::corpus::EXPLOIT_PROBABILITY`]); `0.0` disables corpus
    /// scheduling so every iteration samples a fresh uniform seed
    /// (measurements like Table 3 need unskewed per-window-type counts).
    ///
    /// NaN or out-of-`[0, 1]` values are *not* panics here (the
    /// historical setter asymmetry): they surface as
    /// [`BuildError::InvalidExploitProbability`] from
    /// [`CampaignBuilder::build`].
    pub fn exploit_probability(mut self, p: f64) -> Self {
        self.corpus_exploit = p;
        self
    }

    /// Tags snapshots from this campaign with a shard id (multi-machine
    /// campaigns give each machine a distinct id; `dejavuzz-merge` keys
    /// reports by it).
    pub fn shard_id(mut self, shard: u32) -> Self {
        self.shard_id = shard;
        self
    }

    /// Checkpoint destination. Each write is atomic (write-rename), so a
    /// crash mid-checkpoint leaves the previous snapshot intact; a final
    /// checkpoint is always written at run end when a path is set.
    pub fn snapshot_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot_path = Some(path.into());
        self
    }

    /// Writes a checkpoint every `rounds` rounds (0 — the default —
    /// disables periodic checkpoints; the end-of-run snapshot is still
    /// written when a [`CampaignBuilder::snapshot_path`] is set). A
    /// periodic checkpoint holds the campaign as its round boundary left
    /// it, but lands while the next round runs: the workers do not wait
    /// for its fsync. A crash before it lands leaves the previous
    /// checkpoint, which resumes just as deterministically.
    pub fn snapshot_every(mut self, rounds: usize) -> Self {
        self.snapshot_every = rounds;
        self
    }

    /// Keeps the last `keep` *periodic* checkpoints as rotated
    /// `<path>.<iterations>` siblings instead of overwriting one file,
    /// pruning older rounds after each successful atomic write (0 — the
    /// default — keeps the single-file overwrite behaviour). The
    /// end-of-run checkpoint always lands on the plain path either way.
    pub fn snapshot_keep(mut self, keep: usize) -> Self {
        self.snapshot_keep = keep;
        self
    }

    /// Halts the run gracefully at the first round boundary where at
    /// least `iterations` iterations have completed — the controlled
    /// form of an interruption, used with checkpointing to exercise
    /// stop/resume workflows. The run's total-iteration target is
    /// unchanged, so slot scheduling (and therefore the resumed
    /// continuation) stays bit-identical to an uninterrupted run.
    pub fn halt_after(mut self, iterations: usize) -> Self {
        self.halt_after = Some(iterations);
        self
    }

    /// Enables scenario-template window families on top of the eight
    /// built-in [`crate::gen::WindowType`]s. Each spec names a family
    /// registered in [`crate::scenarios`] (`dejavuzz-scenarios`),
    /// optionally with `name=value` parameter overrides:
    /// `"nested-spec:depth=5"`. Specs are canonicalised (every declared
    /// parameter spelled out in declaration order) and deduplicated, so
    /// `"nested-spec"` and `"nested-spec:depth=3"` select the same
    /// instance. The enabled set is part of the campaign's replay
    /// identity: it is persisted in snapshots and adopted back on
    /// resume. Unknown families and malformed parameters surface from
    /// [`CampaignBuilder::build`] as [`BuildError::InvalidScenario`].
    pub fn scenarios<S: AsRef<str>>(mut self, specs: &[S]) -> Self {
        self.scenarios = specs.iter().map(|s| s.as_ref().to_string()).collect();
        self
    }

    /// Continues a snapshotted campaign: the built orchestrator's next
    /// run picks up where the snapshot stopped, bit-identically to a run
    /// that was never interrupted.
    ///
    /// The snapshot's geometry (`workers`, `seed`, `batch`, `shard_id`)
    /// and its seed policy (with the policy's persisted state) are
    /// *adopted* — they are part of the campaign's replay identity. The
    /// backend label and campaign options must match this builder's;
    /// mismatches are a [`BuildError::Resume`]. A snapshot of a
    /// [`CampaignBuilder::backend_ctor`] campaign therefore resumes only
    /// under a constructor with the same id.
    pub fn resume(mut self, snapshot: CampaignSnapshot) -> Self {
        self.resume = Some(Box::new(snapshot));
        self
    }

    /// Validates the whole configuration and builds the runnable
    /// [`Orchestrator`]. This is the only place campaign configuration is
    /// validated — every error any combination of settings can produce
    /// surfaces here as a [`BuildError`], before a single worker thread
    /// or simulator instance exists.
    pub fn build(mut self) -> Result<Orchestrator, BuildError> {
        // Resume adoption first: the snapshot's replay identity overrides
        // whatever the builder was configured with.
        if let Some(snap) = &self.resume {
            let current = self.backend.label();
            if snap.backend != current {
                return Err(ResumeError::BackendMismatch {
                    snapshot: snap.backend.clone(),
                    current,
                }
                .into());
            }
            if snap.opts != self.opts {
                return Err(ResumeError::OptionsMismatch.into());
            }
            self.workers = snap.workers;
            self.seed = snap.seed;
            self.batch = Some(snap.batch);
            self.shard_id = snap.shard_id;
            self.policy = snap.policy.clone();
            self.pipelined = snap.pipelined;
            self.scenarios = snap.scenarios.clone();
        }
        let (scenario_specs, scenarios) = intern_scenarios(&self.scenarios)?;
        if self.workers == 0 {
            return Err(BuildError::ZeroWorkers);
        }
        let batch = self.batch.unwrap_or(crate::executor::DEFAULT_BATCH);
        if batch == 0 {
            return Err(BuildError::ZeroBatch);
        }
        if self.corpus_capacity == 0 {
            return Err(BuildError::ZeroCorpusCapacity);
        }
        if !(0.0..=1.0).contains(&self.corpus_exploit) {
            return Err(BuildError::InvalidExploitProbability {
                value: self.corpus_exploit,
            });
        }
        // Spawn (and handshake) the worker-process pool last, after all
        // cheap validation: every other misconfiguration is reported
        // without ever forking. The one pool is shared by every executor
        // worker thread of this orchestrator.
        let proc = match &self.backend {
            BackendSpec::Proc(spec) => {
                Some(crate::procbackend::spawn_shared(spec).map_err(|detail| {
                    BuildError::ProcPool {
                        spec: self.backend.label(),
                        detail,
                    }
                })?)
            }
            _ => None,
        };
        Ok(Orchestrator {
            backend: self.backend,
            proc,
            opts: self.opts,
            workers: self.workers,
            seed: self.seed,
            batch,
            pipelined: self.pipelined,
            policy: self.policy,
            corpus_capacity: self.corpus_capacity,
            corpus_exploit: self.corpus_exploit,
            shard_id: self.shard_id,
            snapshot_every: self.snapshot_every,
            snapshot_path: self.snapshot_path,
            snapshot_keep: self.snapshot_keep,
            halt_after: self.halt_after,
            resume: self.resume,
            scenario_specs,
            scenarios,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavuzz_uarch::boom_small;

    fn base() -> CampaignBuilder {
        CampaignBuilder::new()
            .backend(BackendSpec::behavioural(boom_small()))
            .seed(5)
    }

    /// The builder-path validation contract of the
    /// `with_exploit_probability` asymmetry fix: NaN and out-of-range
    /// values are structured errors with pinned messages, never panics.
    #[test]
    fn invalid_probabilities_are_build_errors_with_pinned_messages() {
        for bad in [f64::NAN, -0.1, 1.01, f64::INFINITY] {
            let err = base().exploit_probability(bad).build().unwrap_err();
            assert!(
                matches!(err, BuildError::InvalidExploitProbability { value }
                    if value.to_bits() == bad.to_bits()),
                "{bad} gave {err:?}"
            );
            assert_eq!(
                err.to_string(),
                format!("exploit probability must be in [0, 1], got {bad}")
            );
        }
        // The boundary values are valid.
        for ok in [0.0, 1.0, 0.35] {
            assert!(base().exploit_probability(ok).build().is_ok());
        }
    }

    #[test]
    fn zero_geometry_is_rejected_with_pinned_messages() {
        let err = base().workers(0).build().unwrap_err();
        assert_eq!(err, BuildError::ZeroWorkers);
        assert_eq!(err.to_string(), "workers must be at least 1");

        let err = base().batch(0).build().unwrap_err();
        assert_eq!(err, BuildError::ZeroBatch);
        assert_eq!(err.to_string(), "batch size must be at least 1");

        let err = base().corpus_capacity(0).build().unwrap_err();
        assert_eq!(err, BuildError::ZeroCorpusCapacity);
        assert_eq!(err.to_string(), "corpus capacity must be at least 1");
    }

    /// Pipelining is replay identity, so a resume adopts the snapshot's
    /// setting over whatever the builder was configured with.
    #[test]
    fn resume_adopts_the_snapshot_pipeline_lag() {
        let (_, snap) = base()
            .workers(2)
            .scheduler(SchedulerSpec::WorkStealing)
            .pipelined(true)
            .build()
            .unwrap()
            .run_snapshotting(8);
        assert!(snap.pipelined);
        let orch = base().resume(snap).build().unwrap();
        assert!(orch.pipelined, "snapshot setting overrides the default");
    }

    #[test]
    fn resume_mismatches_are_build_errors() {
        let (_, snap) = base().workers(2).build().unwrap().run_snapshotting(8);
        let err = base()
            .backend(BackendSpec::netlist(dejavuzz_rtl::examples::SMALL_SCALE))
            .resume(snap.clone())
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            BuildError::Resume(ResumeError::BackendMismatch { .. })
        ));
        assert!(err.to_string().starts_with("cannot resume:"));

        let err = base()
            .options(FuzzerOptions::dejavuzz_minus())
            .resume(snap)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::Resume(ResumeError::OptionsMismatch));
    }
}
