//! Integration tests for the pluggable scheduling layer: the
//! work-stealing determinism contract, steal-mode snapshot/resume, the
//! cross-round pipeline, and the favoured-quota seed policy end to end.

use dejavuzz::backend::BackendSpec;
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::executor::ExecutorReport;
use dejavuzz::scheduler::{PolicySpec, SchedulerSpec};
use dejavuzz::snapshot::CampaignSnapshot;
use dejavuzz_uarch::boom_small;

fn orch(workers: usize, seed: u64) -> CampaignBuilder {
    CampaignBuilder::new()
        .backend(BackendSpec::behavioural(boom_small()))
        .workers(workers)
        .seed(seed)
}

/// Field-by-field deep equality for executor reports (timing fields —
/// `busy_nanos`, `modelled_makespan_nanos` — are intentionally excluded:
/// they are measurements, not results).
fn assert_reports_identical(a: &ExecutorReport, b: &ExecutorReport) {
    assert_eq!(a.stats, b.stats, "stats (curve, windows, bugs, counters)");
    assert_eq!(a.coverage.sorted_points(), b.coverage.sorted_points());
    assert_eq!(a.shared_points, b.shared_points);
    assert_eq!(a.corpus_retained, b.corpus_retained);
    assert_eq!(a.corpus_evicted, b.corpus_evicted);
    assert_eq!(a.workers.len(), b.workers.len());
    for (wa, wb) in a.workers.iter().zip(&b.workers) {
        assert_eq!(wa.iterations, wb.iterations, "worker {}", wa.worker);
        assert_eq!(
            wa.observed.sorted_points(),
            wb.observed.sorted_points(),
            "worker {}",
            wa.worker
        );
    }
}

/// The headline work-stealing contract: thread timing (who claimed which
/// slot) must never leak into results. Two runs at the default batch
/// size, with real claim contention, must agree exactly.
#[test]
fn work_stealing_is_deterministic_regardless_of_interleaving() {
    for workers in [2, 4] {
        let run = || {
            orch(workers, 0xD15C0)
                .scheduler(SchedulerSpec::WorkStealing)
                .build()
                .unwrap()
                .run(24)
        };
        let a = run();
        let b = run();
        assert_reports_identical(&a, &b);
        assert!(a.stats.coverage() > 0, "the campaign actually fuzzes");
    }
}

/// Work stealing under halt/resume: a snapshot taken at any boundary
/// resumes bit-identically.
#[test]
fn steal_resume_is_bit_identical() {
    const TOTAL: usize = 24;
    let steal = orch(2, 0xCAFE)
        .batch(1)
        .scheduler(SchedulerSpec::WorkStealing);
    let full_steal = steal.clone().build().unwrap().run(TOTAL);

    let mut interrupted = 0;
    for halt in [1, 9, 14] {
        let (partial, snap) = steal
            .clone()
            .halt_after(halt)
            .build()
            .unwrap()
            .run_snapshotting(TOTAL);
        if partial.stats.iterations < TOTAL {
            interrupted += 1;
        }
        // Through the wire format, as a real restart would.
        let snap = CampaignSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap.scheduler, SchedulerSpec::WorkStealing);
        let resumed = steal
            .clone()
            .resume(snap)
            .build()
            .expect("same backend + options")
            .run(TOTAL);
        assert_reports_identical(&full_steal, &resumed);
    }
    assert!(interrupted >= 2, "most halt points must truly interrupt");
}

/// Resuming adopts the snapshot's scheduler and policy: a default
/// (energy-decay) orchestrator handed a favoured-policy snapshot
/// continues the favoured campaign, not a mixed one.
#[test]
fn resume_adopts_scheduler_and_policy_from_the_snapshot() {
    let steal = orch(2, 0xA207)
        .scheduler(SchedulerSpec::WorkStealing)
        .seed_policy(PolicySpec::FavouredQuota);
    let full = steal.clone().build().unwrap().run(16);
    let (_, snap) = steal.halt_after(6).build().unwrap().run_snapshotting(16);
    assert_eq!(snap.policy, PolicySpec::FavouredQuota);

    // A vanilla builder — no scheduler/policy configured — resumes it.
    let resumed = orch(2, 0xA207).resume(snap).build().unwrap().run(16);
    assert_reports_identical(&full, &resumed);
}

/// The favoured-quota policy drives a real campaign deterministically,
/// snapshots its favours map, and resumes bit-identically.
#[test]
fn favoured_policy_campaign_is_deterministic_and_resumable() {
    let favoured = orch(2, 0xFA40).seed_policy(PolicySpec::FavouredQuota);
    let a = favoured.clone().build().unwrap().run(20);
    let b = favoured.clone().build().unwrap().run(20);
    assert_reports_identical(&a, &b);
    assert!(a.stats.coverage() > 0);

    let (_, snap) = favoured
        .clone()
        .halt_after(8)
        .build()
        .unwrap()
        .run_snapshotting(20);
    // 8+ feedback iterations on vulnerable BOOM retain gaining seeds, so
    // the policy has favours worth persisting.
    let snap = CampaignSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    let resumed = favoured.resume(snap).build().unwrap().run(20);
    assert_reports_identical(&a, &resumed);

    // And the two policies genuinely schedule differently: the corpus
    // retention trajectory is a campaign result, so any divergence shows
    // up as differing stats (they share the seed, so identical stats
    // would mean the policy had no effect at all).
    let energy = orch(2, 0xFA40)
        .seed_policy(PolicySpec::EnergyDecay)
        .build()
        .unwrap()
        .run(20);
    assert!(
        energy.stats != a.stats || energy.corpus_retained != a.corpus_retained,
        "favoured-quota scheduling must actually change the campaign"
    );
}

/// Work stealing composes with the favoured policy (the full non-default
/// configuration) and still honours the determinism contract.
#[test]
fn steal_with_favoured_policy_is_deterministic() {
    let run = || {
        orch(3, 0xB007)
            .scheduler(SchedulerSpec::WorkStealing)
            .seed_policy(PolicySpec::FavouredQuota)
            .build()
            .unwrap()
            .run(18)
    };
    let a = run();
    let b = run();
    assert_reports_identical(&a, &b);
}

/// Snapshot rotation: periodic checkpoints rotate into numbered siblings
/// pruned to the keep budget, the final checkpoint still lands on the
/// plain path, and every kept rotation is a loadable, resumable snapshot.
#[test]
fn snapshot_rotation_keeps_a_bounded_resumable_trail() {
    let dir = std::env::temp_dir().join(format!("dejavuzz-rotate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("camp.snap");

    let o = orch(2, 0x4074)
        .snapshot_path(&path)
        .snapshot_every(1)
        .snapshot_keep(2)
        .build()
        .unwrap();
    let report = o.run(32);
    assert_eq!(report.stats.iterations, 32);

    let mut rotated: Vec<u64> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            e.unwrap()
                .file_name()
                .to_str()
                .and_then(|n| n.strip_prefix("camp.snap.").map(str::to_string))
        })
        .filter_map(|suffix| suffix.parse().ok())
        .collect();
    rotated.sort_unstable();
    assert_eq!(rotated.len(), 2, "pruned to the keep budget: {rotated:?}");
    // 2 workers x batch 4 = 8 slots per round; the last two periodic
    // rounds are the ones kept.
    assert_eq!(rotated, vec![24, 32]);

    // The plain path carries the end-of-run checkpoint.
    let last = CampaignSnapshot::load(&path).unwrap();
    assert_eq!(last.completed, 32);

    // A kept rotation resumes exactly like any other checkpoint.
    let mid = CampaignSnapshot::load(&dir.join("camp.snap.24")).unwrap();
    assert_eq!(mid.completed, 24);
    let resumed = orch(2, 0x4074).resume(mid).build().unwrap().run(32);
    assert_reports_identical(&report, &resumed);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Pipelining off (`--pipeline-lag 0`, the default) IS the barriered
/// steal mode: same code path, same results, and the snapshots agree
/// **byte for byte** on the wire — the strongest form of the "lag 0
/// changes nothing" acceptance gate.
#[test]
fn lag_zero_is_byte_identical_to_plain_steal() {
    for workers in 1..=3 {
        let plain = orch(workers, 0x1A60)
            .scheduler(SchedulerSpec::WorkStealing)
            .build()
            .unwrap();
        let lagged = orch(workers, 0x1A60)
            .scheduler(SchedulerSpec::WorkStealing)
            .pipelined(false)
            .build()
            .unwrap();
        let (plain_report, plain_snap) = plain.run_snapshotting(16);
        let (lag_report, lag_snap) = lagged.run_snapshotting(16);
        assert_reports_identical(&plain_report, &lag_report);
        assert_eq!(
            plain_snap.to_bytes(),
            lag_snap.to_bytes(),
            "{workers} workers: lag 0 must not perturb a single byte"
        );
    }
}

/// The pipelined determinism contract: for a fixed `(seed, workers,
/// batch)` repeated pipelined runs compute identical results and
/// identical snapshots despite real claim contention.
#[test]
fn pipelined_runs_compute_identical_results() {
    for workers in [2, 3] {
        let run = || {
            orch(workers, 0x9199)
                .scheduler(SchedulerSpec::WorkStealing)
                .pipelined(true)
                .build()
                .unwrap()
                .run_snapshotting(24)
        };
        let (base_report, base_snap) = run();
        assert!(base_report.stats.coverage() > 0, "the campaign fuzzes");
        for run_index in 1..3 {
            let (report, snap) = run();
            assert_reports_identical(&base_report, &report);
            assert_eq!(
                snap, base_snap,
                "{workers} workers, run {run_index}: identical state"
            );
        }
    }
}

/// The pipelined makespan model stays within the same physical bounds
/// as the barriered one, and the reported barrier idle is exactly the
/// model's worker-time surplus.
#[test]
fn pipelined_scheduling_model_bounds_hold() {
    for lag in [0, 2] {
        let r = orch(3, 1)
            .scheduler(SchedulerSpec::WorkStealing)
            .pipelined(lag > 0)
            .build()
            .unwrap()
            .run(18);
        assert!(r.busy_nanos > 0, "lag {lag}: iterations were timed");
        assert!(r.modelled_makespan_nanos > 0);
        assert!(
            r.modelled_makespan_nanos <= r.busy_nanos,
            "lag {lag}: makespan can never exceed the serial sum"
        );
        assert!(
            3 * r.modelled_makespan_nanos >= r.busy_nanos,
            "lag {lag}: three workers cannot beat 3x parallelism"
        );
        assert_eq!(
            r.barrier_idle_nanos,
            3 * r.modelled_makespan_nanos - r.busy_nanos,
            "lag {lag}: idle is the modelled worker-time surplus"
        );
    }
}

/// The scheduling model in the report is populated and consistent: total
/// busy time is bounded by `workers x` the modelled makespan (the model
/// cannot be better than perfectly parallel) and is at least the
/// makespan itself (the model cannot beat serial work).
#[test]
fn scheduling_model_bounds_hold() {
    let r = orch(3, 1).build().unwrap().run(18);
    assert!(r.busy_nanos > 0, "iterations were timed");
    assert!(r.modelled_makespan_nanos > 0);
    assert!(
        r.modelled_makespan_nanos <= r.busy_nanos,
        "makespan can never exceed the serial sum"
    );
    assert!(
        3 * r.modelled_makespan_nanos >= r.busy_nanos,
        "three workers cannot beat 3x parallelism"
    );
}
