//! Backend parity suite for the `SimBackend` seam:
//!
//! * the behavioural backend must reproduce the PR-1 pipeline executor's
//!   determinism results exactly (the seam adds dispatch, never
//!   behaviour),
//! * the netlist backend must reproduce the Figure 2 CellIFT-vs-diffIFT
//!   taint split (unit-tested in `crates/rtl/src/examples.rs` against the
//!   raw circuit) through the *full `phase2` path*, and complete
//!   campaigns end-to-end with nonzero taint coverage,
//! * the netlist backend's campaign reports must stay those recorded
//!   with the per-cell interpreter the compiled simulator replaced,
//! * a misconfigured backend or an invalid netlist must fail its runs,
//!   not the campaign,
//! * a campaign on a `backend_ctor` backend resumes bit-identically under
//!   a constructor with the same id, and under no other,
//! * every in-tree backend is replayable: a run answers as a pure
//!   function of its request, the contract the executor's lineage memo
//!   replays on.

use dejavuzz::backend::{
    BackendError, BackendSpec, BehaviouralBackend, NetlistBackend, NetlistIo, SimBackend,
};
use dejavuzz::builder::{BuildError, CampaignBuilder};
use dejavuzz::campaign::CampaignStats;
use dejavuzz::executor::ExecutorReport;
use dejavuzz::gen::{self, WindowFill, WindowType};
use dejavuzz::phases::{phase1, phase2, PhaseOptions};
use dejavuzz::rand::rngs::StdRng;
use dejavuzz::rand::{Rng, SeedableRng};
use dejavuzz::snapshot::{CampaignSnapshot, ResumeError};
use dejavuzz::{Seed, TransientPlan};
use dejavuzz_ift::{CoverageMatrix, IftMode};
use dejavuzz_rtl::examples::{synthetic_core, BOOM_SCALE, SMALL_SCALE};
use dejavuzz_rtl::ir::{CellKind, Netlist};
use dejavuzz_swapmem::SwapPacket;
use dejavuzz_uarch::boom_small;

/// A default-options campaign of `iterations` on `workers` threads.
fn run(backend: BackendSpec, workers: usize, iterations: usize, seed: u64) -> ExecutorReport {
    CampaignBuilder::new()
        .backend(backend)
        .workers(workers)
        .seed(seed)
        .build()
        .unwrap()
        .run(iterations)
}

/// A single-worker campaign (seed 3) over backend instances from `ctor`.
fn run_instances(
    ctor: impl Fn() -> Box<dyn SimBackend> + Send + Sync + 'static,
    iterations: usize,
) -> CampaignStats {
    CampaignBuilder::new()
        .backend_ctor("broken", ctor)
        .seed(3)
        .build()
        .unwrap()
        .run(iterations)
        .stats
}

/// (a) The explicit behavioural spec and the historical
/// `CoreConfig`-positional entry points are the same campaign, bit for
/// bit: bugs, exact coverage curve, per-worker observations, corpus.
#[test]
fn behavioural_backend_reproduces_pipeline_determinism() {
    let legacy = run(BackendSpec::behavioural(boom_small()), 2, 20, 0xD15C0);
    let spec = run(BackendSpec::behavioural(boom_small()), 2, 20, 0xD15C0);
    assert_eq!(legacy.stats.bugs, spec.stats.bugs);
    assert_eq!(legacy.stats.coverage_curve, spec.stats.coverage_curve);
    assert_eq!(legacy.stats.sim_runs, spec.stats.sim_runs);
    assert_eq!(legacy.stats.sim_cycles, spec.stats.sim_cycles);
    assert_eq!(legacy.stats.failed_runs, 0);
    assert_eq!(spec.stats.failed_runs, 0);
    assert_eq!(
        legacy.coverage.sorted_points(),
        spec.coverage.sorted_points()
    );
    assert_eq!(legacy.corpus_retained, spec.corpus_retained);
    for (a, b) in legacy.workers.iter().zip(&spec.workers) {
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.observed.sorted_points(), b.observed.sorted_points());
    }

    // A single-worker campaign agrees with itself run over run too.
    let old = run(BackendSpec::behavioural(boom_small()), 1, 10, 9).stats;
    let new = run(BackendSpec::behavioural(boom_small()), 1, 10, 9).stats;
    assert_eq!(old.coverage_curve, new.coverage_curve);
    assert_eq!(old.bugs, new.bugs);
}

/// (b) Figure 2 through the full phase-2 path: on the RoB-entry circuit a
/// rollback with tainted-but-equal control signals taints *every* entry
/// field register under CellIFT and stays bounded under diffIFT.
#[test]
fn netlist_rob_entry_reproduces_figure2_split_through_phase2() {
    const ENTRIES: usize = 16;
    let mut peaks = Vec::new();
    for mode in [IftMode::CellIft, IftMode::DiffIft] {
        let mut backend = NetlistBackend::rob_entry(ENTRIES);
        let opts = PhaseOptions {
            mode,
            ..PhaseOptions::default()
        };
        // Page-fault windows need no training, so phase 1 triggers on the
        // first seed and phase 2 runs the real taint-mode simulation.
        let seed = Seed::new(WindowType::MemPageFault, 4);
        let p1 = phase1(&mut backend, &seed, &opts).unwrap();
        assert!(p1.triggered, "{mode:?}: page-fault window must trigger");
        let mut cov = CoverageMatrix::new();
        let p2 = phase2(&mut backend, &seed, &p1, &mut cov, &opts).unwrap();
        assert!(
            p2.taints_increased,
            "{mode:?}: the secret enters inside the window"
        );
        assert!(p2.coverage_gain > 0, "{mode:?}: fresh coverage");
        peaks.push(p2.run.taint_log.peak_taint());
    }
    let (cellift, diffift) = (peaks[0], peaks[1]);
    assert_eq!(
        cellift, ENTRIES,
        "CellIFT: all RoB entry field registers suddenly tainted on rollback"
    );
    assert!(
        diffift <= 2,
        "diffIFT must not explode through phase 2: {diffift} tainted"
    );
    assert!(diffift >= 1, "the secret uopc stays tainted");
}

/// The acceptance campaign: `netlist:small` completes end-to-end on the
/// pooled executor with nonzero taint coverage through the shared
/// `TaintCoverage` sink, and stays deterministic per (seed, workers).
#[test]
fn netlist_backend_campaign_end_to_end() {
    let spec = BackendSpec::netlist(SMALL_SCALE);
    let a = run(spec.clone(), 2, 16, 11);
    assert_eq!(a.stats.iterations, 16);
    assert_eq!(a.stats.failed_runs, 0);
    assert!(
        a.stats.coverage() > 0,
        "netlist campaign must report taint coverage"
    );
    assert_eq!(
        a.stats.coverage(),
        a.coverage.points(),
        "curve tail equals the exact union"
    );
    assert_eq!(a.coverage.points(), a.shared_points, "both unions agree");
    assert!(
        a.stats.windows.values().any(|w| w.triggered > 0),
        "windows trigger on the netlist backend"
    );

    let b = run(spec, 2, 16, 11);
    assert_eq!(a.stats.coverage_curve, b.stats.coverage_curve);
    assert_eq!(a.stats.bugs, b.stats.bugs);
}

/// A misconfigured backend (I/O mapped onto missing input ports) fails
/// every run but never the campaign: iterations complete, errors are
/// counted, nothing panics.
#[test]
fn misconfigured_backend_fails_runs_not_the_campaign() {
    let broken = || {
        let io = NetlistIo {
            data: 640,
            control: 2,
            index: 3,
            aux: vec![],
        };
        Box::new(NetlistBackend::new(
            "broken",
            synthetic_core(SMALL_SCALE),
            io,
        )) as Box<_>
    };
    let stats = run_instances(broken, 6);
    assert_eq!(stats.iterations, 6, "the campaign keeps running");
    assert_eq!(stats.failed_runs, 6, "every run failed cleanly");
    assert!(stats.bugs.is_empty());
    assert_eq!(stats.coverage(), 0);
}

/// Netlists that pass the I/O mapping but fail validation, one per gap
/// the simulator would otherwise trip on mid-step: a register `d`, a
/// write-port signal and a liveness signal naming missing signals, and a
/// memory with no words. Each fails every run with a structured error;
/// the campaign completes.
#[test]
fn invalid_netlists_fail_runs_not_the_campaign() {
    let io = NetlistIo {
        data: 4,
        control: 2,
        index: 3,
        aux: vec![0, 1],
    };
    let base = synthetic_core(SMALL_SCALE);
    let missing = base.cell_count() + 7;
    let reg = base
        .cells
        .iter()
        .position(|c| c.kind.is_sequential())
        .expect("synthetic cores have registers");
    let broken = |edit: &dyn Fn(&mut Netlist)| {
        let mut n = base.clone();
        edit(&mut n);
        n
    };
    let cases = [
        (
            broken(&|n| {
                n.cells[reg].kind = CellKind::Reg {
                    d: Some(missing),
                    en: None,
                    init: 0,
                }
            }),
            BackendError::InvalidNetlist { cell: reg },
        ),
        (
            broken(&|n| n.mems[1].write_port = Some((2, missing, 4))),
            BackendError::InvalidMemory { mem: 1 },
        ),
        (
            broken(&|n| n.mems[2].liveness = vec![0, missing]),
            BackendError::InvalidMemory { mem: 2 },
        ),
        (
            broken(&|n| n.mems[3].words = 0),
            BackendError::InvalidMemory { mem: 3 },
        ),
    ];
    for (netlist, expected) in cases {
        let mut backend = NetlistBackend::new("broken", netlist.clone(), io.clone());
        let seed = Seed::new(WindowType::MemPageFault, 1);
        let err = phase1(&mut backend, &seed, &PhaseOptions::default()).unwrap_err();
        assert_eq!(err, expected);
        // A campaign over the same netlist fails every run alike.
        let io = io.clone();
        let broken =
            move || Box::new(NetlistBackend::new("broken", netlist.clone(), io.clone())) as Box<_>;
        let stats = run_instances(broken, 4);
        assert_eq!(
            stats.iterations, 4,
            "{expected}: the campaign keeps running"
        );
        assert_eq!(stats.failed_runs, 4, "{expected}: every run failed cleanly");
    }
}

/// A two-worker campaign on the behavioural BOOM core, built by a
/// `backend_ctor` constructor under `id`.
fn ctor_campaign(id: &str, seed: u64) -> CampaignBuilder {
    CampaignBuilder::new()
        .backend_ctor(id, || Box::new(BehaviouralBackend::new(boom_small())))
        .workers(2)
        .seed(seed)
}

fn assert_reports_identical(a: &ExecutorReport, b: &ExecutorReport) {
    assert_eq!(a.stats, b.stats, "stats (curve, windows, bugs, counters)");
    assert_eq!(a.coverage.sorted_points(), b.coverage.sorted_points());
    assert_eq!(
        (a.corpus_retained, a.corpus_evicted),
        (b.corpus_retained, b.corpus_evicted)
    );
    for (wa, wb) in a.workers.iter().zip(&b.workers) {
        assert_eq!(wa.iterations, wb.iterations, "worker {}", wa.worker);
        assert_eq!(wa.observed.sorted_points(), wb.observed.sorted_points());
    }
}

/// A campaign on a `backend_ctor` backend is deterministic, and its
/// snapshot names the backend `ext:<id>`.
#[test]
fn backend_ctor_campaign_is_deterministic_and_snapshots_its_id() {
    let a = ctor_campaign("boom-ctor", 0xE57).build().unwrap().run(20);
    let b = ctor_campaign("boom-ctor", 0xE57).build().unwrap().run(20);
    assert_reports_identical(&a, &b);
    assert!(a.stats.coverage() > 0, "the campaign actually fuzzes");

    let (c, snap) = ctor_campaign("boom-ctor", 0xE57)
        .build()
        .unwrap()
        .run_snapshotting(20);
    assert_reports_identical(&a, &c);
    assert_eq!(snap.backend, "ext:boom-ctor");
    assert_eq!(snap.completed, 20);
}

/// A campaign on a `backend_ctor` backend, halted and resumed through
/// the snapshot bytes under a constructor with the same id, replays
/// bit-identically to the uninterrupted run.
#[test]
fn backend_ctor_campaigns_resume_bit_identically() {
    const TOTAL: usize = 24;
    let full = ctor_campaign("boom-ctor", 0xCAFE)
        .build()
        .unwrap()
        .run(TOTAL);
    assert!(full.stats.coverage() > 0, "the campaign actually fuzzes");
    // Rounds span 8 slots: the halts land at 8 and 16 iterations.
    for halt in [1, 9] {
        let (partial, snap) = ctor_campaign("boom-ctor", 0xCAFE)
            .halt_after(halt)
            .build()
            .unwrap()
            .run_snapshotting(TOTAL);
        assert!(partial.stats.iterations < TOTAL, "halt {halt} interrupts");
        assert_eq!(snap.backend, "ext:boom-ctor");
        let snap = CampaignSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        let resumed = ctor_campaign("boom-ctor", 0xCAFE)
            .resume(snap)
            .build()
            .unwrap()
            .run(TOTAL);
        assert_reports_identical(&full, &resumed);
    }
}

/// A `backend_ctor` snapshot resumed by a builder with no constructor,
/// or with one under another id, is refused at build time.
#[test]
fn backend_ctor_resume_under_no_or_another_id_is_a_backend_mismatch() {
    let (_, snap) = ctor_campaign("boom-ctor", 0x0FF)
        .halt_after(1)
        .build()
        .unwrap()
        .run_snapshotting(24);
    for (builder, current) in [
        (CampaignBuilder::new(), "behavioural:BOOM"),
        (ctor_campaign("other-id", 0x0FF), "ext:other-id"),
    ] {
        assert_eq!(
            builder.resume(snap.clone()).build().unwrap_err(),
            BuildError::Resume(ResumeError::BackendMismatch {
                snapshot: "ext:boom-ctor".into(),
                current: current.into(),
            })
        );
    }
}

/// Capability flags of the in-tree backends.
#[test]
fn backend_capability_flags() {
    let behavioural = BackendSpec::behavioural(boom_small()).build();
    assert_eq!(behavioural.name(), "behavioural");
    assert_eq!(behavioural.dut_name(), "BOOM");
    assert!(behavioural.supports_taint());

    let netlist = BackendSpec::netlist(SMALL_SCALE).build();
    assert_eq!(netlist.name(), "netlist");
    assert_eq!(netlist.dut_name(), "SynthSmall");
    assert!(netlist.supports_taint());
}

/// What a campaign report pins: the work done, the coverage curve (as
/// the iterations where it steps), the bugs with the iteration that
/// found each, and corpus retention.
#[derive(Debug, PartialEq, Eq)]
struct ReportPin {
    iterations: usize,
    sim_runs: usize,
    sim_cycles: u64,
    curve_steps: Vec<(usize, usize)>,
    bugs: Vec<String>,
    corpus: (usize, usize),
}

fn pin_of(r: &ExecutorReport) -> ReportPin {
    let mut curve_steps = Vec::new();
    let mut last = 0;
    for (i, &points) in r.stats.coverage_curve.iter().enumerate() {
        if points != last {
            curve_steps.push((i, points));
            last = points;
        }
    }
    ReportPin {
        iterations: r.stats.iterations,
        sim_runs: r.stats.sim_runs,
        sim_cycles: r.stats.sim_cycles,
        curve_steps,
        bugs: r
            .stats
            .bugs
            .iter()
            .map(|b| format!("{b} @{}", b.iteration))
            .collect(),
        corpus: (r.corpus_retained, r.corpus_evicted),
    }
}

/// Netlist campaign reports of `netlist:small` at 300 iterations x 2
/// workers (seed 1) and `netlist:boom` at 12 iterations (seed 3), the
/// `dejavuzz-fuzz` defaults otherwise. Recorded with the per-cell
/// interpreter that the compiled simulator replaced, under the
/// work-stealing scheduler that became the only one.
#[test]
fn netlist_campaign_reports_are_pinned() {
    let small = run(BackendSpec::netlist(SMALL_SCALE), 2, 600, 1);
    let boom = run(BackendSpec::netlist(BOOM_SCALE), 1, 12, 3);
    assert_eq!(small.stats.failed_runs, 0);
    assert_eq!(boom.stats.failed_runs, 0);
    assert_eq!(
        pin_of(&small),
        ReportPin {
            iterations: 600,
            sim_runs: 5098,
            sim_cycles: 69829,
            curve_steps: vec![(0, 2), (6, 3)],
            bugs: vec![
                "[SynthSmall] Spectre via illegal window -> core @0".into(),
                "[SynthSmall] Spectre via mispred window -> core @3".into(),
                "[SynthSmall] Spectre via mem-disamb window -> core @5".into(),
                "[SynthSmall] Spectre via mem-excp window -> core @17".into(),
                "[SynthSmall] Meltdown via mem-excp window -> core @20".into(),
            ],
            corpus: (8, 0),
        }
    );
    assert_eq!(
        pin_of(&boom),
        ReportPin {
            iterations: 12,
            sim_runs: 88,
            sim_cycles: 832,
            curve_steps: vec![(0, 2), (1, 5), (2, 6), (6, 8), (9, 12)],
            bugs: vec![
                "[BOOM] Meltdown via mem-excp window -> core @0".into(),
                "[BOOM] Spectre via mispred window -> core @2".into(),
                "[BOOM] Spectre via illegal window -> core @6".into(),
            ],
            corpus: (7, 0),
        }
    );
}

/// One backend request, as the phases send them.
struct Request {
    plan: TransientPlan,
    schedule: Vec<SwapPacket>,
    mode: IftMode,
    max_cycles: u64,
}

/// Every request shape the phases send, over three window types (two
/// exceptions and an indirect misprediction): a phase-1 trigger schedule, a
/// phase-2 window roll (window training first) and its phase-3
/// sanitized re-run, each in every IFT mode, at the default budget and
/// at one that cuts the run short.
fn phase_requests() -> Vec<Request> {
    let mut out = Vec::new();
    for (i, wt) in WindowType::ALL.into_iter().enumerate().step_by(3) {
        let seed = Seed::new(wt, i as u64);
        let plan = gen::plan(&seed);
        let trainings = gen::derive_trainings(&seed, &plan, 2);
        let body = gen::complete_window(&seed.mutate(), &plan);
        for fill in [
            WindowFill::Dummy,
            WindowFill::Body(body.full()),
            WindowFill::Sanitized(body.sanitized()),
        ] {
            let mut schedule: Vec<SwapPacket> = gen::derive_window_training(&plan)
                .filter(|_| fill != WindowFill::Dummy)
                .into_iter()
                .collect();
            schedule.extend(trainings.iter().cloned());
            schedule.push(gen::build_transient(&plan, &fill));
            for mode in IftMode::ALL {
                for max_cycles in [20_000, 40] {
                    out.push(Request {
                        plan: plan.clone(),
                        schedule: schedule.clone(),
                        mode,
                        max_cycles,
                    });
                }
            }
        }
    }
    out
}

/// A `SimBackend::replayable` backend's `run` must be a pure function of
/// `(plan, schedule, mode, max_cycles)`: the executor answers a corpus
/// pick's repeated runs from digests of the first ones. One backend
/// instance serves every phase request once, then twice more each in a
/// shuffled order that mixes modes and shapes; every repeat must answer
/// exactly as the first time did.
#[test]
fn repeated_requests_get_identical_answers() {
    let requests = phase_requests();
    for spec in ["behavioural", "netlist:small", "proc:netlist:small:2"] {
        let mut backend = BackendSpec::parse(spec, boom_small()).unwrap().build();
        assert!(backend.replayable(), "{spec}");
        let mut answer = |r: &Request| {
            let outcome = backend
                .run(&r.plan, &r.schedule, r.mode, r.max_cycles)
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            format!("{outcome:?}")
        };
        let first: Vec<String> = requests.iter().map(&mut answer).collect();
        let mut order: Vec<usize> = (0..2).flat_map(|_| 0..requests.len()).collect();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        for i in order {
            let r = &requests[i];
            assert!(
                answer(r) == first[i],
                "{spec}: request {i} ({:?}, {} cycles) answered differently on repeat",
                r.mode,
                r.max_cycles
            );
        }
    }
}
