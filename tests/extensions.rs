//! Extension-registry acceptance: custom `Scheduler`/`SeedPolicy`/
//! `SimBackend` implementations registered by id must drive campaigns
//! deterministically and **survive snapshot→resume bit-identically** —
//! including their own state blobs — and resuming without the ids
//! registered must fail structurally at build time.

use std::ops::Range;

use dejavuzz::backend::{BackendSpec, BehaviouralBackend};
use dejavuzz::builder::{BuildError, CampaignBuilder};
use dejavuzz::corpus::Corpus;
use dejavuzz::executor::ExecutorReport;
use dejavuzz::rand::rngs::StdRng;
use dejavuzz::scheduler::{
    PlanCtx, PlannedSlot, PolicySpec, PolicyState, Scheduler, SchedulerSpec, SeedPolicy,
    SlotFeedback, WorkStealing,
};
use dejavuzz::snapshot::CampaignSnapshot;
use dejavuzz::Seed;
use dejavuzz_uarch::boom_small;

/// The `custom_extension` example, compiled in so its two modes can be
/// compared here; its `main` only runs as the example.
#[path = "../examples/custom_extension.rs"]
#[allow(dead_code)]
mod custom_extension;

/// A stateful custom scheduler: rounds alternate between full span and a
/// single batch, keyed off a round counter that MUST survive the
/// snapshot (a resume that reset it would plan different spans and
/// diverge — which is exactly what the bit-identity assertions below
/// would catch).
#[derive(Debug, Default)]
struct Pulse {
    rounds: u64,
}

impl Pulse {
    fn from_state(state: Option<&[u8]>) -> Self {
        let rounds = state
            .and_then(|b| <[u8; 8]>::try_from(b).ok())
            .map(u64::from_le_bytes)
            .unwrap_or(0);
        Pulse { rounds }
    }
}

impl Scheduler for Pulse {
    fn name(&self) -> &'static str {
        "pulse"
    }

    fn round_span(&self, workers: usize, batch: usize, remaining: usize) -> usize {
        let span = if self.rounds.is_multiple_of(2) {
            workers * batch
        } else {
            batch
        };
        remaining.min(span.max(1))
    }

    fn plan_round(&mut self, slots: Range<usize>, ctx: &mut PlanCtx<'_>) -> Vec<PlannedSlot> {
        self.rounds += 1;
        WorkStealing.plan_round(slots, ctx)
    }

    fn state(&self) -> Vec<u8> {
        self.rounds.to_le_bytes().to_vec()
    }
}

/// A stateful custom policy: every third call greedily reschedules the
/// strongest corpus entry; the call counter persists as an opaque blob.
#[derive(Debug, Default)]
struct GreedyThirds {
    calls: u64,
}

impl GreedyThirds {
    fn from_state(state: Option<&[u8]>) -> Self {
        let calls = state
            .and_then(|b| <[u8; 8]>::try_from(b).ok())
            .map(u64::from_le_bytes)
            .unwrap_or(0);
        GreedyThirds { calls }
    }
}

impl SeedPolicy for GreedyThirds {
    fn name(&self) -> &'static str {
        "greedy-thirds"
    }

    fn schedule(&mut self, corpus: &mut Corpus, _rng: &mut StdRng) -> Option<Seed> {
        self.calls += 1;
        if corpus.is_empty() || !self.calls.is_multiple_of(3) {
            return None;
        }
        let best = corpus
            .entries()
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.energy()
                    .partial_cmp(&b.energy())
                    .expect("energy is finite")
            })
            .map(|(i, _)| i)?;
        Some(corpus.schedule_entry(best))
    }

    fn record(&mut self, corpus: &mut Corpus, feedback: &SlotFeedback<'_>) {
        corpus.record(feedback.seed, feedback.gain);
    }

    fn state(&self) -> PolicyState {
        PolicyState::Opaque(self.calls.to_le_bytes().to_vec())
    }
}

/// The fully customised campaign, as a fresh process would assemble it
/// (the `*_ctor` conveniences register into the process-global registry
/// and select the extension specs).
fn custom_campaign(seed: u64) -> CampaignBuilder {
    CampaignBuilder::new()
        .backend_ctor("ext-test-boom", || {
            Box::new(BehaviouralBackend::new(boom_small()))
        })
        .scheduler_ctor("ext-test-pulse", |state| Box::new(Pulse::from_state(state)))
        .seed_policy_ctor("ext-test-greedy", |state| {
            Box::new(GreedyThirds::from_state(state))
        })
        .workers(2)
        .seed(seed)
}

fn assert_reports_identical(a: &ExecutorReport, b: &ExecutorReport) {
    assert_eq!(a.stats, b.stats, "stats (curve, windows, bugs, counters)");
    assert_eq!(a.coverage.sorted_points(), b.coverage.sorted_points());
    assert_eq!(a.corpus_retained, b.corpus_retained);
    assert_eq!(a.corpus_evicted, b.corpus_evicted);
    for (wa, wb) in a.workers.iter().zip(&b.workers) {
        assert_eq!(wa.iterations, wb.iterations, "worker {}", wa.worker);
        assert_eq!(wa.observed.sorted_points(), wb.observed.sorted_points());
    }
}

/// Custom extensions drive a deterministic campaign, and their ids +
/// state blobs land in the snapshot.
#[test]
fn custom_campaign_is_deterministic_and_snapshots_extension_identity() {
    let a = custom_campaign(0xE57).build().unwrap().run(20);
    let b = custom_campaign(0xE57).build().unwrap().run(20);
    assert_reports_identical(&a, &b);
    assert!(
        a.stats.coverage() > 0,
        "the custom campaign actually fuzzes"
    );

    let (_, snap) = custom_campaign(0xE57).build().unwrap().run_snapshotting(20);
    assert_eq!(snap.backend, "ext:ext-test-boom");
    assert_eq!(
        snap.scheduler,
        SchedulerSpec::Extension("ext-test-pulse".into())
    );
    assert_eq!(snap.policy, PolicySpec::Extension("ext-test-greedy".into()));
    // 20 iterations over pulse spans 8,4,8,... -> 3 rounds.
    assert_eq!(snap.scheduler_state, 3u64.to_le_bytes().to_vec());
    assert!(matches!(&snap.policy_state, PolicyState::Opaque(b) if !b.is_empty()));
}

/// The headline acceptance property: a campaign on registered custom
/// implementations, halted at any boundary and resumed through the wire
/// format, replays bit-identically to the uninterrupted run — the
/// custom state blobs round-trip through the snapshot.
#[test]
fn custom_extensions_survive_snapshot_resume_bit_identically() {
    const TOTAL: usize = 24;
    let full = custom_campaign(0xCAFE).build().unwrap().run(TOTAL);
    let mut interrupted = 0;
    for halt in [1, 9, 14] {
        let (partial, snap) = custom_campaign(0xCAFE)
            .halt_after(halt)
            .build()
            .unwrap()
            .run_snapshotting(TOTAL);
        if partial.stats.iterations < TOTAL {
            interrupted += 1;
        }
        let snap = CampaignSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        let resumed = custom_campaign(0xCAFE)
            .resume(snap)
            .build()
            .expect("extensions re-registered")
            .run(TOTAL);
        assert_reports_identical(&full, &resumed);
    }
    assert!(interrupted >= 2, "most halt points must truly interrupt");
}

/// Resuming a custom-extension snapshot without the ids registered fails
/// at build time with the ids named — never mid-campaign.
#[test]
fn resuming_unregistered_extensions_fails_structurally() {
    let (_, snap) = custom_campaign(0x0FF).build().unwrap().run_snapshotting(8);

    // A builder with the matching custom backend but no scheduler/policy
    // registrations beyond the global registry: fake the miss by naming
    // ids nobody registered.
    let mut missing_sched = snap.clone();
    missing_sched.scheduler = SchedulerSpec::Extension("never-registered-sched".into());
    let err = custom_campaign(0x0FF)
        .resume(missing_sched)
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        BuildError::UnknownScheduler {
            id: "never-registered-sched".into()
        }
    );

    let mut missing_pol = snap.clone();
    missing_pol.policy = PolicySpec::Extension("never-registered-pol".into());
    let err = custom_campaign(0x0FF)
        .resume(missing_pol)
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        BuildError::UnknownSeedPolicy {
            id: "never-registered-pol".into()
        }
    );

    // And a backend-label mismatch (built-in vs extension) is the usual
    // resume validation error.
    let err = CampaignBuilder::new()
        .backend(BackendSpec::behavioural(boom_small()))
        .resume(snap)
        .build()
        .unwrap_err();
    assert!(matches!(err, BuildError::Resume(_)), "{err:?}");
}

/// The `custom_extension` example's `resume` mode (halt after 9, write
/// a snapshot file, resume it with fresh registrations) prints the same
/// digest as its uninterrupted `full` mode.
#[test]
fn custom_extension_example_resume_prints_the_full_digest() {
    let full = custom_extension::run("full").expect("a known mode");
    assert!(full.contains("iterations:      24"), "{full}");
    assert_eq!(custom_extension::run("resume").as_ref(), Some(&full));
    assert_eq!(custom_extension::run("bogus"), None);
}
