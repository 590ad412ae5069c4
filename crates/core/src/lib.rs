//! DejaVuzz — a pre-silicon processor fuzzer for transient execution
//! vulnerabilities (reproduction of Xu et al., ASPLOS 2025).
//!
//! The fuzzer drives the out-of-order core models of `dejavuzz-uarch`
//! through the three-phase workflow of the paper's Figure 5:
//!
//! 1. **Phase 1 — Transient window triggering** ([`phases::phase1`]):
//!    generate a trigger and a dummy window ([`gen`]), *derive* targeted
//!    trigger-training packets from the transient-execution information
//!    (§4.1.1), evaluate triggering from the RoB IO trace, and *reduce*
//!    training by removing one packet at a time (§4.1.2).
//! 2. **Phase 2 — Transient execution exploration** ([`phases::phase2`]):
//!    complete the window with a secret-access block (with optional
//!    MDS-style address masks) and a secret-encoding block, derive window
//!    training, simulate under diffIFT and measure the taint coverage
//!    matrix (§4.2.2) to guide mutation.
//! 3. **Phase 3 — Transient leakage analysis** ([`phases::phase3`]): check
//!    transient-window constant-time execution, sanitize the encode block
//!    (nop it out and diff the taint logs) and run the tainted-sink
//!    liveness analysis (§4.3.2) to report exploitable leakages only.
//!
//! The phases are generic over a pluggable simulation backend
//! ([`backend::SimBackend`]): the behavioural out-of-order cores
//! ([`backend::BehaviouralBackend`]) or the DIFT-instrumented compiled
//! netlist simulator ([`backend::NetlistBackend`] over `dejavuzz-rtl`), selected
//! by a cloneable [`backend::BackendSpec`]. Around the phases sits the
//! fuzzing pipeline of §5:
//!
//! * [`corpus::Corpus`] — interesting-seed retention with energy-based
//!   scheduling (a pick keeps the entry's trigger configuration and runs
//!   the next window mutation; energy decays per reschedule),
//! * [`scheduler`] — the pluggable scheduling layer: a
//!   [`scheduler::Scheduler`] pre-draws each round's slots into a claim
//!   queue (the built-in deterministic work stealing, or an extension),
//!   and a [`scheduler::SeedPolicy`] decides which corpus entry each slot
//!   mutates (energy decay, or AFL-style favoured culling with
//!   per-window-type quotas),
//! * [`executor`] — the shared-corpus worker pool: an `Orchestrator`
//!   ships each round's claim queue over channels to `Worker` threads
//!   that share one exact concurrent coverage union
//!   ([`dejavuzz_ift::SharedCoverage`]), one global mutation-gain
//!   threshold, and one lineage
//!   memo that answers the simulations corpus picks repeat from compact
//!   run digests when the backend is
//!   [`backend::SimBackend::replayable`],
//! * [`campaign`] — campaign options and results; the ablation variants
//!   used in the evaluation are [`campaign::FuzzerOptions`] constructors
//!   run through [`builder::CampaignBuilder::options`]: `DejaVuzz*`
//!   (random training, no derivation), `DejaVuzz⁻` (no coverage feedback)
//!   and the no-liveness variant of §6.3,
//! * [`snapshot`] — campaign persistence over the `dejavuzz-persist`
//!   codec: [`snapshot::CampaignSnapshot`] checkpoints a run at any round
//!   boundary (corpus, exact coverage, gain threshold, every RNG stream
//!   position), [`builder::CampaignBuilder::resume`] continues it
//!   bit-identically, and [`snapshot::merge_snapshots`] / the
//!   `dejavuzz-merge` binary union shard snapshots from independent
//!   machines into one report.
//!
//! # Embedding API
//!
//! The crate is an *engine with an API*, not a CLI with internals; three
//! pieces make it embeddable:
//!
//! * [`builder::CampaignBuilder`] — the single typed entry point: one
//!   chainable value configures backend, geometry, scheduling,
//!   checkpointing and resume, and `build()` validates everything up
//!   front into one structured [`builder::BuildError`] (no scattered
//!   panics, no silent clamping);
//! * [`observer::CampaignObserver`] — a typed event stream
//!   (`round_started`, `slot_committed`, `coverage_gained`, `bug_found`,
//!   `snapshot_written`, `campaign_finished`) invoked at the executor's
//!   deterministic commit points; [`observer::TextObserver`] is the CLI's
//!   historical stdout report, [`observer::JsonLinesObserver`] powers
//!   `dejavuzz-fuzz --telemetry json`;
//! * [`registry`] — named registration of custom
//!   scheduler/seed-policy/backend constructors, so user-supplied
//!   implementations are selectable by id *and* survive
//!   snapshot→resume (the snapshot persists the id plus an opaque state
//!   blob); [`registry::list_schedulers`] and friends enumerate
//!   everything selectable (`dejavuzz-fuzz --list-extensions`);
//! * [`scenarios`] (the `dejavuzz-scenarios` crate) — templated
//!   attack-experiment window families: a
//!   [`scenarios::ScenarioTemplate`] contributes a parameterised
//!   secret-access block, an encode-side mutation bias and a sink
//!   classification hook, and enabled families
//!   ([`builder::CampaignBuilder::scenarios`], `--scenarios`) join the
//!   eight built-in [`gen::WindowType`]s in fresh-seed draws, scheduler
//!   quotas, per-family stats and snapshots.
//!
//! # Scenario templates
//!
//! Registering a custom family makes it selectable by id next to the
//! shipped templates (Zenbleed-shaped register-file leak, double-fetch
//! TOCTOU, nested-speculation depth stress, sibling-unit contention):
//!
//! ```
//! use std::sync::Arc;
//! use dejavuzz::builder::CampaignBuilder;
//! use dejavuzz::scenarios::{self, Mechanism, Params, ScenarioTemplate};
//! use dejavuzz_isa::{Instr, LoadOp, Reg};
//!
//! struct PrefetchProbe;
//! impl ScenarioTemplate for PrefetchProbe {
//!     fn family(&self) -> &'static str { "prefetch-probe" }
//!     fn describe(&self) -> &'static str { "prefetcher side-channel probe" }
//!     fn mechanism(&self, _p: &Params) -> Mechanism { Mechanism::BranchMispredict }
//!     fn access_block(&self, _p: &Params, _rng: &mut dejavuzz::rand::rngs::StdRng) -> Vec<Instr> {
//!         // T0 holds the secret address; S0 is the secret destination.
//!         vec![Instr::Load { op: LoadOp::Lb, rd: Reg::S0, rs1: Reg::T0, offset: 0 }]
//!     }
//! }
//!
//! scenarios::register_template(Arc::new(PrefetchProbe)).unwrap();
//! let orch = CampaignBuilder::new()
//!     .seed(7)
//!     .scenarios(&["prefetch-probe", "nested-spec:depth=2"])
//!     .build()
//!     .expect("registered families build");
//! let report = orch.run(12);
//! assert_eq!(report.stats.iterations, 12);
//! ```
//!
//! # Quickstart
//!
//! ```
//! use dejavuzz::builder::CampaignBuilder;
//!
//! // Defaults: behavioural SmallBOOM, 1 worker, barriered work stealing.
//! let orch = CampaignBuilder::new().seed(42).build().expect("valid config");
//! let report = orch.run(25);
//! assert!(report.stats.iterations == 25);
//! // Windows were triggered and coverage accumulated.
//! assert!(report.stats.coverage() > 0);
//! ```
//!
//! # Worker-process pools
//!
//! `--backend proc:<inner>:<M>` (or [`backend::ProcSpec`] through the
//! builder) runs the inner simulator in `M` crash-isolated
//! `dejavuzz-simd` worker processes ([`procbackend::ProcBackend`] over
//! the `dejavuzz-procsim` transport): a worker segfault or corrupt
//! reply is a per-run [`backend::BackendError::Worker`] — the pool
//! respawns with bounded backoff and the campaign keeps its
//! byte-determinism contract (pool-of-1 equals in-process, pool-of-M
//! equals pool-of-1). Embedders parse the same spec string; the worker
//! binary is discovered next to the current executable or pinned via
//! `DEJAVUZZ_SIMD_BIN`:
//!
//! ```no_run
//! use dejavuzz::builder::CampaignBuilder;
//! use dejavuzz::BackendSpec;
//! use dejavuzz_uarch::boom_small;
//!
//! let spec = BackendSpec::parse("proc:netlist:small:4", boom_small())
//!     .expect("a valid pool spec");
//! let orch = CampaignBuilder::new()
//!     .backend(spec)
//!     .workers(4)
//!     .seed(42)
//!     .build() // spawns + handshakes the pool; missing binary fails here
//!     .expect("worker pool started");
//! let report = orch.run(100);
//! assert_eq!(report.stats.iterations, 100);
//! ```

/// The (vendored) `rand` crate, re-exported because trait signatures in
/// the embedding API name its types (`StdRng` in
/// [`scheduler::SeedPolicy::schedule`]): custom implementations outside
/// this workspace must be able to spell them without depending on the
/// vendored crate directly.
pub use rand;

/// The scenario-template library (the `dejavuzz-scenarios` crate),
/// re-exported so embedders can register custom
/// [`scenarios::ScenarioTemplate`]s without naming a second dependency.
pub use dejavuzz_scenarios as scenarios;

pub mod backend;
pub mod builder;
pub mod campaign;
pub mod corpus;
pub mod executor;
pub mod gen;
mod memo;
pub mod metrics;
pub mod observer;
pub mod phases;
pub mod procbackend;
pub mod procproto;
pub mod registry;
pub mod report;
pub mod scheduler;
pub mod snapshot;

pub use backend::{
    BackendError, BackendSpec, BehaviouralBackend, NetlistBackend, ProcSpec, RunOutcome, SimBackend,
};
pub use builder::{BuildError, CampaignBuilder};
pub use campaign::{CampaignStats, FuzzerOptions};
pub use corpus::Corpus;
pub use executor::{ExecutorReport, Orchestrator, WorkerSummary};
pub use gen::{Seed, TransientPlan, WindowType};
pub use observer::{
    BugFound, CampaignFinished, CampaignObserver, CoverageGained, JsonLinesObserver, RoundStarted,
    SlotCommitted, SnapshotWritten, TextObserver,
};
pub use procbackend::ProcBackend;
pub use registry::{BackendCtor, PolicyCtor, RegistryError, SchedulerCtor};
pub use report::{AttackType, BugReport, LeakChannel};
pub use scheduler::{
    EnergyDecay, FavouredQuota, PolicySpec, PolicyState, Scheduler, SchedulerSpec, SeedPolicy,
    SlotFeedback, WorkStealing,
};
pub use snapshot::{merge_snapshots, CampaignSnapshot, MergeReport, ResumeError, WorkerState};
