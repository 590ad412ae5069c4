//! Custom extensions end to end: a user-supplied `Scheduler`,
//! `SeedPolicy` *and* `SimBackend` plugged into the campaign through the
//! extension registry, snapshotted mid-run, and resumed bit-identically
//! — persistence is open to custom implementations, not only the
//! built-ins.
//!
//! ```sh
//! cargo run --release --example custom_extension -- --mode full   > a.txt
//! cargo run --release --example custom_extension -- --mode resume > b.txt
//! diff a.txt b.txt   # identical: the resumed custom campaign replays exactly
//! ```
//!
//! Both modes print the same campaign digest: `full` runs 24 iterations
//! uninterrupted; `resume` halts after 9, writes a snapshot file, loads
//! it back in a *fresh* builder (re-registering the extension ids, as a
//! restarted process would), and finishes the run. The stateful custom
//! scheduler makes this a real test — if its round counter were not
//! persisted and restored, the resumed half would plan different round
//! spans and the digests would diverge.

use dejavuzz::backend::BehaviouralBackend;
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::corpus::Corpus;
use dejavuzz::executor::ExecutorReport;
use dejavuzz::rand::rngs::StdRng;
use dejavuzz::scheduler::{
    PlanCtx, PlannedSlot, PolicyState, Scheduler, SeedPolicy, SlotFeedback, WorkStealing,
};
use dejavuzz::Seed;
use dejavuzz_uarch::boom_small;
use std::ops::Range;

/// A custom scheduler with *state that matters*: even-numbered rounds
/// span the full `workers x batch` slots, odd-numbered rounds span a
/// single batch. The round counter is the campaign-replay-critical state
/// the snapshot must carry — [`Scheduler::state`] persists it,
/// the registered constructor restores it.
#[derive(Debug, Default)]
struct PulseScheduler {
    rounds: u64,
}

impl PulseScheduler {
    fn from_state(state: Option<&[u8]>) -> Self {
        let rounds = state
            .and_then(|b| <[u8; 8]>::try_from(b).ok())
            .map(u64::from_le_bytes)
            .unwrap_or(0);
        PulseScheduler { rounds }
    }
}

impl Scheduler for PulseScheduler {
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
        // The slots themselves are drawn by the built-in work stealing;
        // only the pulse-shaped span is custom.
        WorkStealing.plan_round(slots, ctx)
    }

    fn state(&self) -> Vec<u8> {
        self.rounds.to_le_bytes().to_vec()
    }
}

/// A custom seed policy, also stateful: every third pick greedily
/// reschedules the highest-energy corpus entry (no roulette), everything
/// else explores fresh. The call counter persists as an opaque blob
/// ([`PolicyState::Opaque`]).
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

/// One builder with all three extensions registered and selected — the
/// resume path constructs this *again*, exactly like a fresh process
/// re-registering its extensions before loading a snapshot.
fn campaign() -> CampaignBuilder {
    CampaignBuilder::new()
        .backend_ctor("tutorial-boom", || {
            Box::new(BehaviouralBackend::new(boom_small()))
        })
        .scheduler_ctor("pulse", |state| Box::new(PulseScheduler::from_state(state)))
        .seed_policy_ctor("greedy-thirds", |state| {
            Box::new(GreedyThirds::from_state(state))
        })
        .workers(2)
        .seed(0xE57)
}

/// A timing-free campaign digest: identical digests mean identical
/// campaigns (coverage curve included).
fn digest(report: &ExecutorReport) -> String {
    use std::fmt::Write;

    let stats = &report.stats;
    let mut out = String::new();
    let _ = writeln!(out, "iterations:      {}", stats.iterations);
    let _ = writeln!(out, "coverage points: {}", stats.coverage());
    let _ = writeln!(out, "coverage curve:  {:?}", stats.coverage_curve);
    let _ = writeln!(
        out,
        "corpus:          retained {} evicted {}",
        report.corpus_retained, report.corpus_evicted
    );
    for w in &report.workers {
        let _ = writeln!(
            out,
            "worker #{}:       {} iterations, {} points",
            w.worker,
            w.iterations,
            w.observed.points()
        );
    }
    let _ = writeln!(out, "bugs ({}):", stats.bugs.len());
    for b in &stats.bugs {
        let _ = writeln!(out, "  {b}");
    }
    out
}

/// Runs the campaign in `mode` (`full` or `resume`, see the module docs)
/// and returns its digest; `None` for any other mode.
pub fn run(mode: &str) -> Option<String> {
    const TOTAL: usize = 24;
    let report = match mode {
        "full" => campaign()
            .build()
            .expect("extensions registered")
            .run(TOTAL),
        "resume" => {
            let path = std::env::temp_dir().join(format!(
                "dejavuzz-custom-extension-{}.snap",
                std::process::id()
            ));
            // Halt mid-campaign and checkpoint to disk.
            let (partial, _) = campaign()
                .snapshot_path(&path)
                .halt_after(9)
                .build()
                .expect("extensions registered")
                .run_snapshotting(TOTAL);
            assert!(
                partial.stats.iterations < TOTAL,
                "the halt must interrupt the run"
            );
            // A fresh builder (fresh registrations) rehydrates the custom
            // scheduler/policy/backend from the snapshot's extension ids
            // and state blobs.
            let snap =
                dejavuzz::snapshot::CampaignSnapshot::load(&path).expect("the checkpoint loads");
            assert_eq!(snap.backend, "ext:tutorial-boom");
            let report = campaign()
                .resume(snap)
                .build()
                .expect("same extensions registered on resume")
                .run(TOTAL);
            let _ = std::fs::remove_file(&path);
            report
        }
        _ => return None,
    };
    Some(digest(&report))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mode = args
        .iter()
        .position(|a| a == "--mode")
        .and_then(|i| args.get(i + 1))
        .map_or("full", String::as_str);
    match run(mode) {
        Some(digest) => print!("{digest}"),
        None => {
            eprintln!("custom_extension: unknown --mode {mode:?} (expected full|resume)");
            std::process::exit(2);
        }
    }
}
