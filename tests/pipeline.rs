//! Integration tests for the shared-corpus pipeline executor: the
//! determinism, exact-union and public-behaviour guarantees the
//! refactor is specified against.

use dejavuzz::backend::BackendSpec;
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::campaign::FuzzerOptions;
use dejavuzz::executor::ExecutorReport;
use dejavuzz_ift::CoverageMatrix;
use dejavuzz_uarch::boom_small;

/// A behavioural-BOOM campaign of `iterations` on `workers` threads.
fn run(opts: FuzzerOptions, workers: usize, iterations: usize, seed: u64) -> ExecutorReport {
    CampaignBuilder::new()
        .backend(BackendSpec::behavioural(boom_small()))
        .options(opts)
        .workers(workers)
        .seed(seed)
        .build()
        .unwrap()
        .run(iterations)
}

/// Same seed + same worker count ⇒ identical bug set (and identical
/// everything else that feeds it). Thread timing must not leak into
/// results.
#[test]
fn executor_is_deterministic_per_seed_and_worker_count() {
    let a = run(FuzzerOptions::default(), 2, 20, 0xD15C0);
    let b = run(FuzzerOptions::default(), 2, 20, 0xD15C0);
    assert_eq!(a.stats.bugs, b.stats.bugs, "identical bug set");
    assert_eq!(
        a.stats.coverage_curve, b.stats.coverage_curve,
        "identical exact curve"
    );
    assert_eq!(a.stats.first_bug_iteration, b.stats.first_bug_iteration);
    assert_eq!(a.coverage.sorted_points(), b.coverage.sorted_points());
    assert_eq!(a.stats.sim_runs, b.stats.sim_runs);
    assert_eq!(a.corpus_retained, b.corpus_retained);
    for (wa, wb) in a.workers.iter().zip(&b.workers) {
        assert_eq!(wa.iterations, wb.iterations);
        assert_eq!(wa.observed.sorted_points(), wb.observed.sorted_points());
    }
}

/// The parallel final coverage is the *exact union* of what the workers
/// observed — never the inflated pointwise sum the old end-of-run merge
/// approximated.
#[test]
fn parallel_coverage_is_exact_union_of_worker_observations() {
    let report = run(FuzzerOptions::default(), 3, 24, 42);

    let mut union = CoverageMatrix::new();
    let mut inflated_sum = 0;
    for w in &report.workers {
        union.merge(&w.observed);
        inflated_sum += w.observed.points();
    }

    assert_eq!(
        report.coverage.sorted_points(),
        union.sorted_points(),
        "final coverage == union of per-worker observations"
    );
    assert_eq!(
        report.shared_points,
        union.points(),
        "concurrent union agrees"
    );
    assert_eq!(report.stats.coverage(), union.points(), "curve tail agrees");
    assert!(
        inflated_sum > union.points(),
        "workers overlap ({inflated_sum} summed vs {} distinct), so a pointwise \
         sum would have over-reported",
        union.points()
    );
}

/// More workers on the same total budget keep finding the bugs the
/// single-worker pipeline finds (the pool changes scheduling, not the
/// oracle).
#[test]
fn pool_still_finds_bugs_on_vulnerable_boom() {
    let report = run(FuzzerOptions::default(), 4, 40, 3);
    assert!(
        !report.stats.bugs.is_empty(),
        "40 pooled iterations must surface a leak"
    );
    assert!(report.stats.first_bug_iteration.is_some());
}

/// A single-worker campaign and the ablation constructors keep their
/// public behaviour through the builder.
#[test]
fn campaign_facade_keeps_public_behaviour() {
    let report = run(FuzzerOptions::default(), 1, 12, 9);
    let stats = &report.stats;
    assert_eq!(stats.iterations, 12);
    assert_eq!(stats.coverage_curve.len(), 12);
    assert_eq!(stats.coverage(), report.coverage.points());

    for opts in [
        FuzzerOptions::dejavuzz_star(),
        FuzzerOptions::dejavuzz_minus(),
        FuzzerOptions::no_liveness(),
    ] {
        let stats = run(opts, 1, 6, 9).stats;
        assert_eq!(stats.iterations, 6, "ablation variants run unchanged");
    }
}

/// DejaVuzz⁻ means *no* coverage feedback — including through the corpus:
/// the ablation must not retain or reschedule gain-keyed seeds, or
/// Figure 7's middle curve stops isolating the mutation feedback.
#[test]
fn dejavuzz_minus_runs_without_coverage_driven_scheduling() {
    let report = run(FuzzerOptions::dejavuzz_minus(), 1, 20, 5);
    assert_eq!(report.corpus_retained, 0, "the ablation retains nothing");

    let report = run(FuzzerOptions::dejavuzz_minus(), 2, 16, 5);
    assert_eq!(report.corpus_retained, 0, "pooled ablation retains nothing");
}

/// The corpus visibly feeds back into the campaign: interesting seeds are
/// retained and rescheduled.
#[test]
fn campaign_retains_interesting_seeds() {
    let report = run(FuzzerOptions::default(), 1, 25, 5);
    assert!(
        report.corpus_retained > 0,
        "25 iterations on vulnerable BOOM must retain at least one gaining seed"
    );
}
