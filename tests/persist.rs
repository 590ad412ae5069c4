//! Integration tests for campaign persistence: the resume-equivalence
//! property (a snapshotted-then-resumed run is bit-identical to an
//! uninterrupted one), the shard-merge union semantics, and end-to-end
//! codec robustness against truncation/corruption/version skew.

use dejavuzz::backend::BackendSpec;
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::campaign::FuzzerOptions;
use dejavuzz::executor::ExecutorReport;
use dejavuzz::snapshot::{merge_snapshots, CampaignSnapshot};
use dejavuzz_ift::CoverageMatrix;
use dejavuzz_uarch::boom_small;

/// The shared builder baseline of this suite: behavioural BOOM with the
/// given pool geometry; individual tests chain halt/snapshot/resume on
/// clones.
fn campaign(opts: FuzzerOptions, workers: usize, seed: u64) -> CampaignBuilder {
    CampaignBuilder::new()
        .backend(BackendSpec::behavioural(boom_small()))
        .options(opts)
        .workers(workers)
        .seed(seed)
}

/// Field-by-field deep equality for executor reports (the struct has no
/// `PartialEq` because `WorkerSummary` matrices want order-insensitive
/// comparison).
fn assert_reports_identical(a: &ExecutorReport, b: &ExecutorReport) {
    assert_eq!(a.stats, b.stats, "stats (curve, windows, bugs, counters)");
    assert_eq!(a.coverage.sorted_points(), b.coverage.sorted_points());
    assert_eq!(a.shared_points, b.shared_points);
    assert_eq!(a.corpus_retained, b.corpus_retained);
    assert_eq!(a.corpus_evicted, b.corpus_evicted);
    assert_eq!(a.workers.len(), b.workers.len());
    for (wa, wb) in a.workers.iter().zip(&b.workers) {
        assert_eq!(wa.worker, wb.worker);
        assert_eq!(wa.iterations, wb.iterations, "worker {}", wa.worker);
        assert_eq!(
            wa.observed.sorted_points(),
            wb.observed.sorted_points(),
            "worker {}",
            wa.worker
        );
    }
}

/// The headline acceptance property: for fixed `(seed, workers)`, halting
/// at round k (any k — aligned or not with the batch geometry) and
/// resuming from the snapshot reproduces the uninterrupted run exactly:
/// same coverage, same curve, same bugs, same per-worker accounting.
#[test]
fn resume_is_bit_identical_to_uninterrupted_run() {
    const TOTAL: usize = 24;
    for workers in [1, 3] {
        let orch = campaign(FuzzerOptions::default(), workers, 0xCAFE);
        let full = orch.clone().build().unwrap().run(TOTAL);
        let mut interrupted = 0;
        for halt in [1, 9, 14] {
            let (partial, snap) = orch
                .clone()
                .halt_after(halt)
                .build()
                .unwrap()
                .run_snapshotting(TOTAL);
            // halt lands on the next round boundary; boundaries past the
            // budget mean the run completed instead — resume must then be
            // an exact no-op, so the equivalence check below still bites.
            if partial.stats.iterations < TOTAL {
                interrupted += 1;
            }
            assert_eq!(snap.completed, partial.stats.iterations);

            // Round-trip the snapshot through the wire format, as a real
            // restart would.
            let snap = CampaignSnapshot::from_bytes(&snap.to_bytes()).unwrap();
            let resumed = orch
                .clone()
                .resume(snap)
                .build()
                .expect("same backend + options")
                .run(TOTAL);
            assert_reports_identical(&full, &resumed);
        }
        assert!(
            interrupted >= 2,
            "{workers} workers: most halt points must truly interrupt"
        );
    }
}

/// Resuming with a target the snapshot already reached is a clean no-op:
/// the report is exactly the snapshot state.
#[test]
fn resume_past_target_reports_snapshot_state() {
    let orch = campaign(FuzzerOptions::default(), 2, 7);
    let (report, snap) = orch.clone().build().unwrap().run_snapshotting(16);
    let resumed = orch.resume(snap).build().unwrap().run(16);
    assert_reports_identical(&report, &resumed);
}

/// Chained resume: snapshot, resume to a later snapshot, resume again —
/// persistence composes across arbitrarily many restarts.
#[test]
fn chained_resumes_compose() {
    let orch = campaign(FuzzerOptions::default(), 2, 11);
    let full = orch.clone().build().unwrap().run(24);

    let (_, snap1) = orch
        .clone()
        .halt_after(5)
        .build()
        .unwrap()
        .run_snapshotting(24);
    let (_, snap2) = orch
        .clone()
        .resume(snap1)
        .halt_after(17)
        .build()
        .unwrap()
        .run_snapshotting(24);
    let resumed = orch.resume(snap2).build().unwrap().run(24);
    assert_reports_identical(&full, &resumed);
}

/// The ablation variants snapshot/resume too (the DejaVuzz⁻ corpus is
/// disabled state that must survive the round trip).
#[test]
fn ablation_variant_resumes_identically() {
    let orch = campaign(FuzzerOptions::dejavuzz_minus(), 2, 3);
    let full = orch.clone().build().unwrap().run(16);
    let (_, snap) = orch
        .clone()
        .halt_after(6)
        .build()
        .unwrap()
        .run_snapshotting(16);
    let resumed = orch.resume(snap).build().unwrap().run(16);
    assert_reports_identical(&full, &resumed);
    assert_eq!(resumed.corpus_retained, 0, "the ablation retains nothing");
}

/// The merge acceptance property: merging per-shard snapshots yields
/// exactly the union (`SharedCoverage` semantics) of per-shard
/// observations, with bug reports deduplicated by `dedup_key()` and
/// counters summed.
#[test]
fn shard_merge_equals_exact_union_with_deduped_bugs() {
    let shard = |id: u32, seed: u64| {
        campaign(FuzzerOptions::default(), 2, seed)
            .shard_id(id)
            .build()
            .unwrap()
            .run_snapshotting(20)
    };
    let (report0, snap0) = shard(0, 101);
    let (report1, snap1) = shard(1, 202);
    let merged = merge_snapshots(&[snap0, snap1]);

    let mut union = CoverageMatrix::new();
    union.merge(&report0.coverage);
    union.merge(&report1.coverage);
    assert_eq!(
        merged.coverage.sorted_points(),
        union.sorted_points(),
        "merged coverage is the exact union of shard observations"
    );
    assert!(
        merged.summed_points >= merged.coverage.points(),
        "the naive per-shard sum can only over-count"
    );
    assert_eq!(
        merged.stats.iterations,
        report0.stats.iterations + report1.stats.iterations
    );
    assert_eq!(
        merged.stats.sim_runs,
        report0.stats.sim_runs + report1.stats.sim_runs
    );

    // Bug dedup: every merged key appears in some shard, no key twice.
    let mut keys: Vec<_> = merged.stats.bugs.iter().map(|b| b.dedup_key()).collect();
    keys.sort();
    let before = keys.len();
    keys.dedup();
    assert_eq!(keys.len(), before, "no duplicate dedup keys after merge");
    let shard_keys: Vec<_> = report0
        .stats
        .bugs
        .iter()
        .chain(&report1.stats.bugs)
        .map(|b| b.dedup_key())
        .collect();
    for k in &keys {
        assert!(shard_keys.contains(k), "merged bug {k:?} came from a shard");
    }
    let mut expected = shard_keys.clone();
    expected.sort();
    expected.dedup();
    assert_eq!(
        keys, expected,
        "merge keeps exactly the distinct shard keys"
    );
}

/// Codec robustness, end to end on a real campaign snapshot: truncations
/// and corruptions decode to structured errors — never a panic, never a
/// silently wrong snapshot.
#[test]
fn real_snapshot_survives_hostile_bytes() {
    let (_, snap) = campaign(FuzzerOptions::default(), 2, 9)
        .build()
        .unwrap()
        .run_snapshotting(12);
    let bytes = snap.to_bytes();
    assert_eq!(CampaignSnapshot::from_bytes(&bytes).unwrap(), snap);

    // Every possible truncation point.
    for cut in 0..bytes.len() {
        assert!(
            CampaignSnapshot::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }
    // Byte corruption at a spread of offsets (checksum catches payload
    // flips; header flips hit magic/version/length validation).
    for i in (0..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x5A;
        assert!(
            CampaignSnapshot::from_bytes(&bad).is_err(),
            "corruption at {i} must fail"
        );
    }
    // Empty and garbage inputs.
    assert!(CampaignSnapshot::from_bytes(&[]).is_err());
    assert!(CampaignSnapshot::from_bytes(b"not a snapshot at all").is_err());
}

/// File-level round trip through the atomic save path.
#[test]
fn snapshot_files_round_trip_on_disk() {
    let (_, snap) = campaign(FuzzerOptions::default(), 1, 5)
        .build()
        .unwrap()
        .run_snapshotting(8);
    let path =
        std::env::temp_dir().join(format!("dejavuzz-persist-e2e-{}.snap", std::process::id()));
    snap.save(&path).unwrap();
    let loaded = CampaignSnapshot::load(&path).unwrap();
    assert_eq!(loaded, snap);
    std::fs::remove_file(&path).unwrap();
}

/// The cross-round pipeline's persistence property: a halt taken while
/// a pre-drawn round is still in flight persists that round verbatim
/// (its plan, dispatch-time gain state and the coverage committed
/// behind it), and a resume re-dispatches it instead of re-planning —
/// splicing bit-identically into the uninterrupted pipelined run,
/// through the wire format as a real restart would.
#[test]
fn pipelined_halt_resume_splices_bit_identically() {
    use dejavuzz::scheduler::SchedulerSpec;

    const TOTAL: usize = 24;
    for workers in [1, 3] {
        let orch = campaign(FuzzerOptions::default(), workers, 0x717E)
            .scheduler(SchedulerSpec::WorkStealing)
            .pipelined(true);
        let full = orch.clone().build().unwrap().run(TOTAL);
        let mut interrupted = 0;
        let mut pending_seen = 0;
        for halt in [1, 9, 14] {
            let (partial, snap) = orch
                .clone()
                .halt_after(halt)
                .build()
                .unwrap()
                .run_snapshotting(TOTAL);
            if partial.stats.iterations < TOTAL {
                interrupted += 1;
            }
            assert_eq!(snap.completed, partial.stats.iterations);
            let snap = CampaignSnapshot::from_bytes(&snap.to_bytes()).unwrap();
            if let Some(p) = &snap.pending {
                pending_seen += 1;
                assert_eq!(p.first_slot, snap.completed);
                assert!(!p.slots.is_empty(), "a pending round has slots");
            }
            let resumed = orch
                .clone()
                .resume(snap)
                .build()
                .expect("same backend + options")
                .run(TOTAL);
            assert_reports_identical(&full, &resumed);
        }
        assert!(
            interrupted >= 2,
            "{workers} workers: most halt points must truly interrupt"
        );
        assert!(
            pending_seen >= 2,
            "{workers} workers: mid-run halts must capture an in-flight round"
        );
    }
}

/// Pipelined persistence composes: snapshot mid-pipeline, resume to a
/// later mid-pipeline snapshot, resume again — every splice lands on
/// the uninterrupted run.
#[test]
fn chained_pipelined_resumes_compose() {
    use dejavuzz::scheduler::SchedulerSpec;

    let orch = campaign(FuzzerOptions::default(), 2, 0xC4A1)
        .scheduler(SchedulerSpec::WorkStealing)
        .pipelined(true);
    let full = orch.clone().build().unwrap().run(24);

    let (_, snap1) = orch
        .clone()
        .halt_after(5)
        .build()
        .unwrap()
        .run_snapshotting(24);
    let snap1 = CampaignSnapshot::from_bytes(&snap1.to_bytes()).unwrap();
    let (_, snap2) = orch
        .clone()
        .resume(snap1)
        .halt_after(17)
        .build()
        .unwrap()
        .run_snapshotting(24);
    let snap2 = CampaignSnapshot::from_bytes(&snap2.to_bytes()).unwrap();
    let resumed = orch.resume(snap2).build().unwrap().run(24);
    assert_reports_identical(&full, &resumed);
}

/// Halting at or below the run's start point, at both depths of the
/// commit loop. The barrier (lag 0) checks the halt before it plans each
/// round, the first included, so it runs no round. The pipeline (lag 1)
/// dispatches its first two rounds (or the resumed pending round plus
/// one) before its first halt check, so it commits exactly one round
/// and snapshots the next as pending. Every halted snapshot resumes to
/// the uninterrupted run.
#[test]
fn halt_at_or_below_the_start_point() {
    use dejavuzz::scheduler::SchedulerSpec;

    // 2 workers x batch 4 = 8 slots per round; four rounds in the budget.
    const TOTAL: usize = 32;
    for lag in [0, 1] {
        let orch = campaign(FuzzerOptions::default(), 2, 0x4A17)
            .scheduler(SchedulerSpec::WorkStealing)
            .pipelined(lag > 0);
        let full = orch.clone().build().unwrap().run(TOTAL);
        let resumes_to_full = |snap: CampaignSnapshot| {
            let snap = CampaignSnapshot::from_bytes(&snap.to_bytes()).unwrap();
            let resumed = orch.clone().resume(snap).build().unwrap().run(TOTAL);
            assert_reports_identical(&full, &resumed);
        };

        // A fresh campaign halted at 0.
        let (report, snap) = orch
            .clone()
            .halt_after(0)
            .build()
            .unwrap()
            .run_snapshotting(TOTAL);
        let (iterations, pending) = if lag == 0 { (0, None) } else { (8, Some(8)) };
        assert_eq!(report.stats.iterations, iterations, "lag {lag}, fresh");
        assert_eq!(snap.completed, iterations, "lag {lag}, fresh");
        assert_eq!(
            snap.pending.as_ref().map(|p| p.first_slot),
            pending,
            "lag {lag}, fresh"
        );
        resumes_to_full(snap);

        // A resumed campaign whose halt is at, then below, its
        // snapshot's `completed` (8, with three rounds left).
        let (_, mid) = orch
            .clone()
            .halt_after(8)
            .build()
            .unwrap()
            .run_snapshotting(TOTAL);
        assert_eq!(mid.completed, 8);
        for halt in [8, 3] {
            let (report, snap) = orch
                .clone()
                .resume(mid.clone())
                .halt_after(halt)
                .build()
                .unwrap()
                .run_snapshotting(TOTAL);
            let (iterations, pending) = if lag == 0 { (8, None) } else { (16, Some(16)) };
            assert_eq!(
                report.stats.iterations, iterations,
                "lag {lag}, halt {halt}"
            );
            assert_eq!(snap.completed, iterations, "lag {lag}, halt {halt}");
            assert_eq!(
                snap.pending.as_ref().map(|p| p.first_slot),
                pending,
                "lag {lag}, halt {halt}"
            );
            resumes_to_full(snap);
        }
    }
}

/// A periodic checkpoint holds the state of its own round boundary,
/// although it is written while the next round runs. With a checkpoint
/// every round and a rotation trail long enough to keep them all, each
/// rotated checkpoint of an uninterrupted run is byte-identical to the
/// final checkpoint of a run halted after the same iteration count,
/// barriered and pipelined. A checkpoint captured after the next round
/// was planned would carry that plan's scheduler, corpus and stream
/// draws, and differ.
#[test]
fn periodic_checkpoints_equal_halted_final_checkpoints() {
    // 2 workers x batch 4 = 8 slots per round; four rounds in the budget.
    const TOTAL: usize = 32;
    let dir = std::env::temp_dir().join(format!("dejavuzz-periodic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for pipelined in [false, true] {
        let orch = campaign(FuzzerOptions::default(), 2, 0x5EED).pipelined(pipelined);
        let trail = dir.join(format!("trail-{pipelined}.snap"));
        orch.clone()
            .snapshot_path(&trail)
            .snapshot_every(1)
            .snapshot_keep(TOTAL)
            .build()
            .unwrap()
            .run(TOTAL);
        for completed in (8..=TOTAL).step_by(8) {
            let halted = dir.join(format!("halted-{pipelined}-{completed}.snap"));
            orch.clone()
                .snapshot_path(&halted)
                .halt_after(completed)
                .build()
                .unwrap()
                .run(TOTAL);
            let rotated = dejavuzz_persist::rotated_path(&trail, completed as u64);
            assert!(
                std::fs::read(rotated).unwrap() == std::fs::read(&halted).unwrap(),
                "pipelined {pipelined}: checkpoint at {completed} iterations"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
