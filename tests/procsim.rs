//! Crash-injection and determinism suite for the process-pool backend:
//!
//! * a pool-of-1 campaign must equal the in-process campaign it wraps
//!   (same stats, same coverage, same bugs),
//! * a pool-of-M campaign must equal pool-of-1 regardless of how its
//!   racing workers interleave, and write byte-identical snapshots,
//! * a worker crash mid-campaign (injected at several different request
//!   ordinals) must never kill the campaign: with the retry landing on a
//!   respawned worker the results are *identical* to the uncrashed run,
//! * a worker that fails every attempt turns each affected run into a
//!   counted `failed_runs` entry — and the campaign still completes,
//! * a malformed reply frame is a structured [`BackendError::Worker`].
//!
//! Crash injection travels by environment variable into the spawned
//! `dejavuzz-simd` workers; tests that set process env serialize on a
//! local mutex so parallel test threads never see each other's knobs.

use std::sync::{Mutex, MutexGuard};

use dejavuzz::backend::{BackendError, BackendSpec, SimBackend};
use dejavuzz::campaign::CampaignStats;
use dejavuzz::gen::{self, Seed, WindowFill, WindowType};
use dejavuzz::procbackend::{
    worker_binary, ProcBackend, ABORT_AFTER_ENV, ABORT_UNLESS_RESPAWN_ENV, CORRUPT_AFTER_ENV,
};
use dejavuzz::CampaignBuilder;
use dejavuzz_ift::IftMode;
use dejavuzz_uarch::boom_small;

/// Serializes every test that spawns worker processes: the crash knobs
/// are process-global env, inherited by children at spawn time.
fn env_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct EnvKnob(&'static str);

impl EnvKnob {
    fn set(var: &'static str, value: impl ToString) -> Self {
        std::env::set_var(var, value.to_string());
        EnvKnob(var)
    }
}

impl Drop for EnvKnob {
    fn drop(&mut self) {
        std::env::remove_var(self.0);
    }
}

fn spec(s: &str) -> BackendSpec {
    BackendSpec::parse(s, boom_small()).expect("a valid backend spec")
}

fn campaign(backend: BackendSpec, seed: u64, iters: usize) -> CampaignStats {
    let report = CampaignBuilder::new()
        .backend(backend)
        .workers(2)
        .seed(seed)
        .build()
        .expect("a valid campaign configuration")
        .run(iters);
    report.stats
}

#[test]
fn worker_binary_is_discovered_next_to_the_test_target() {
    // `cargo test` builds every workspace binary before running tests,
    // so discovery (deps/ dir -> parent target dir) must succeed. Every
    // other test here relies on this.
    let _guard = env_lock();
    let bin = worker_binary().expect("dejavuzz-simd next to the test binary");
    assert!(bin.is_file(), "{} is not a file", bin.display());
}

#[test]
fn pool_of_one_equals_in_process() {
    let _guard = env_lock();
    let baseline = campaign(spec("netlist:small"), 0xD15C0, 10);
    let pooled = campaign(spec("proc:netlist:small:1"), 0xD15C0, 10);
    assert_eq!(baseline, pooled);
    assert!(pooled.iterations == 10 && pooled.failed_runs == 0);
}

#[test]
fn pool_of_m_is_deterministic_and_equals_pool_of_one() {
    let _guard = env_lock();
    let one = campaign(spec("proc:netlist:small:1"), 0xFEED, 12);
    let four_a = campaign(spec("proc:netlist:small:4"), 0xFEED, 12);
    let four_b = campaign(spec("proc:netlist:small:4"), 0xFEED, 12);
    assert_eq!(four_a, four_b, "racing completions must not change results");
    assert_eq!(one, four_a, "pool size must not change results");
}

/// Two racing pool-of-4 campaigns write byte-identical snapshot files:
/// nothing of the interleaving reaches the persisted state.
#[test]
fn pool_of_m_writes_byte_identical_snapshots() {
    let _guard = env_lock();
    let dir = std::env::temp_dir().join(format!("djvz-pool-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = |name: &str| {
        let path = dir.join(name);
        CampaignBuilder::new()
            .backend(spec("proc:netlist:small:4"))
            .workers(2)
            .seed(7)
            .snapshot_path(&path)
            .build()
            .expect("a valid campaign configuration")
            .run(12);
        std::fs::read(&path).expect("the campaign wrote its snapshot")
    };
    let (a, b) = (snapshot("a.snap"), snapshot("b.snap"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(a == b, "racing pools wrote different snapshots");
}

/// The crash-isolation property, swept across crash points: kill the
/// worker before its N-th reply (first incarnation only), for several N.
/// Every campaign must complete crash-free from the caller's view —
/// stats identical to the uncrashed baseline, zero failed runs.
#[test]
fn a_crashing_worker_never_kills_or_perturbs_the_campaign() {
    let _guard = env_lock();
    let baseline = campaign(spec("proc:netlist:small:2"), 0xABAD, 8);
    assert_eq!(baseline.failed_runs, 0);
    for crash_at in [1, 2, 3, 7, 20] {
        let _arm = EnvKnob::set(ABORT_AFTER_ENV, crash_at);
        let _disarm = EnvKnob::set(ABORT_UNLESS_RESPAWN_ENV, 1);
        let crashed = campaign(spec("proc:netlist:small:2"), 0xABAD, 8);
        assert_eq!(baseline, crashed, "crash point {crash_at} changed results");
    }
}

/// A worker that aborts on *every* first request (respawns inherit the
/// knob) fails both the attempt and the retry: each run becomes a
/// counted backend failure, and the campaign still completes.
#[test]
fn persistent_crashes_count_failed_runs_and_complete() {
    let _guard = env_lock();
    let _arm = EnvKnob::set(ABORT_AFTER_ENV, 1);
    let stats = campaign(spec("proc:netlist:small:1"), 0xC0DE, 4);
    assert_eq!(stats.iterations, 4, "the campaign ran to completion");
    assert_eq!(stats.failed_runs, 4, "every run failed, none vanished");
    assert!(stats.bugs.is_empty() && stats.coverage() == 0);
}

/// Direct [`SimBackend`] probe: a corrupt reply frame (checksum
/// mismatch) on both the attempt and the respawn-retry surfaces as a
/// structured [`BackendError::Worker`] naming the malformed frame, and
/// the backend remains usable for the next request.
#[test]
fn malformed_reply_frames_are_structured_worker_errors() {
    let _guard = env_lock();
    let proc_spec = match spec("proc:netlist:small:1") {
        BackendSpec::Proc(p) => p,
        other => panic!("parsed {other:?}"),
    };
    let seed = Seed::new(WindowType::BranchMispredict, 1);
    let plan = gen::plan(&seed);
    let mut schedule = gen::derive_trainings(&seed, &plan, 1);
    schedule.push(gen::build_transient(&plan, &WindowFill::Dummy));

    // The knob stays set through the first run: the respawn-retry's
    // fresh worker inherits it too and corrupts *its* first reply, so
    // both attempts fail and the error surfaces.
    let corrupt = EnvKnob::set(CORRUPT_AFTER_ENV, 1);
    let mut backend = ProcBackend::spawn(&proc_spec).expect("spawn pool");
    let err = backend
        .run(&plan, &schedule, IftMode::DiffIft, 4096)
        .expect_err("the corrupted first reply must fail the run");
    drop(corrupt);
    match &err {
        BackendError::Worker { detail } => assert!(
            detail.contains("checksum") || detail.contains("frame") || detail.contains("magic"),
            "diagnosis names the malformed frame: {detail}"
        ),
        other => panic!("expected a Worker error, got {other:?}"),
    }
    assert!(
        backend.shared().respawns() >= 1,
        "the pool tried a fresh worker"
    );
    // The corrupting incarnations are gone; the pool serves again.
    backend
        .run(&plan, &schedule, IftMode::DiffIft, 4096)
        .expect("a clean respawned worker serves the next run");
}

/// Every first-incarnation reply is corrupted, so only the very first
/// run fails (both its attempts hit corrupting workers); the respawned
/// worker serves the rest, and the campaign completes.
#[test]
fn corrupt_replies_fail_exactly_the_first_run() {
    let _guard = env_lock();
    let _corrupt = EnvKnob::set(CORRUPT_AFTER_ENV, 1);
    let stats = CampaignBuilder::new()
        .backend(spec("proc:netlist:small:1"))
        .workers(1)
        .seed(3)
        .build()
        .expect("a valid campaign configuration")
        .run(4)
        .stats;
    assert_eq!(stats.iterations, 4);
    assert_eq!(stats.failed_runs, 1);
}

/// The snapshot echo carries the pool geometry, and resuming under a
/// different backend label is refused — pool geometry is part of the
/// campaign identity a snapshot pins.
#[test]
fn snapshots_echo_pool_geometry() {
    let _guard = env_lock();
    let orch = CampaignBuilder::new()
        .backend(spec("proc:netlist:small:2"))
        .workers(2)
        .seed(3)
        .build()
        .expect("a valid campaign configuration");
    let mut observers: Vec<Box<dyn dejavuzz::observer::CampaignObserver>> = Vec::new();
    let (_, snapshot) = orch.run_observed(4, &mut observers);
    assert_eq!(snapshot.backend, "proc:netlist:small:2");
}
