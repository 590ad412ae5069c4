//! The three fuzzing phases of Figure 5, generic over the simulation
//! backend ([`crate::backend::SimBackend`]).
//!
//! Every phase drives the backend through [`simulate`] and analyses the
//! backend-neutral [`RunOutcome`]; backend failures propagate as
//! [`BackendError`] so a misconfigured backend fails the *run* (the
//! executor records it and keeps fuzzing), never the campaign.

use dejavuzz_ift::{CoveragePoint, IftMode, TaintCoverage};
use dejavuzz_swapmem::{SwapMem, SwapPacket, DEFAULT_LAYOUT};

use crate::backend::{BackendError, RunOutcome, SimBackend};
use crate::gen::{self, Seed, TransientPlan, WindowBody, WindowFill};
use crate::report::{AttackType, BugReport, LeakChannel};

/// Tunables shared by the phases (a subset of
/// [`crate::campaign::FuzzerOptions`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseOptions {
    /// IFT mode for Phase 2/3 simulations (Phase 1 always runs without
    /// taint tracking — triggering is a value-domain question).
    pub mode: IftMode,
    /// Derive targeted trainings (false = the DejaVuzz* variant).
    pub training_derivation: bool,
    /// Run the training-reduction pass.
    pub training_reduction: bool,
    /// Apply the taint-liveness filter in Phase 3 (false = the §6.3
    /// ablation that misclassifies RoB/regfile residue).
    pub liveness_filter: bool,
    /// Decoy (random) training packets generated per seed.
    pub decoy_trainings: usize,
    /// Simulation cycle budget per run.
    pub max_cycles: u64,
}

impl Default for PhaseOptions {
    fn default() -> Self {
        PhaseOptions {
            mode: IftMode::DiffIft,
            training_derivation: true,
            training_reduction: true,
            liveness_filter: true,
            decoy_trainings: 2,
            max_cycles: 20_000,
        }
    }
}

/// The secret pair planted in every generated stimulus (variant 2 is the
/// bit-flip). 0x5A has bits in both halves, exercising bit-dependent
/// gadgets in both planes.
pub const DEFAULT_SECRET: [u8; 8] = [0x5A, 0xC3, 0x01, 0xFE, 0x77, 0x88, 0x10, 0xEF];

/// Builds a ready-to-run [`SwapMem`] for a plan + schedule.
pub fn build_mem(plan: &TransientPlan, schedule: &[SwapPacket], secret: &[u8]) -> SwapMem {
    let mut mem = SwapMem::new(DEFAULT_LAYOUT);
    load_mem(&mut mem, plan, schedule, secret);
    mem
}

/// Loads a plan + schedule into a fresh or freshly [`SwapMem::reset`]
/// memory of the default layout, making it what [`build_mem`] returns.
pub(crate) fn load_mem(
    mem: &mut SwapMem,
    plan: &TransientPlan,
    schedule: &[SwapPacket],
    secret: &[u8],
) {
    for (addr, bytes) in gen::data_init() {
        mem.write_bytes(addr, &bytes);
    }
    mem.plant_secret(secret);
    mem.set_secret_policy(plan.secret_policy);
    mem.set_schedule(schedule.to_vec());
}

/// Runs one simulation of a schedule on the given backend.
pub fn simulate<B: SimBackend + ?Sized>(
    backend: &mut B,
    plan: &TransientPlan,
    schedule: &[SwapPacket],
    mode: IftMode,
    max_cycles: u64,
) -> Result<RunOutcome, BackendError> {
    backend.run(plan, schedule, mode, max_cycles)
}

/// Phase 1 output.
#[derive(Clone, Debug)]
pub struct Phase1Result {
    /// The transient plan.
    pub plan: TransientPlan,
    /// The reduced schedule: surviving trigger trainings + the dummy
    /// transient packet (last).
    pub schedule: Vec<SwapPacket>,
    /// Whether the transient window triggered.
    pub triggered: bool,
    /// Training overhead after reduction (Table 3 TO).
    pub to: usize,
    /// Effective training overhead (Table 3 ETO, excludes alignment nops).
    pub eto: usize,
    /// RTL simulations spent (trigger evaluation + reduction passes).
    pub sim_runs: usize,
}

/// The plan and candidate training packets Phase 1 starts from: a pure
/// function of the seed's trigger configuration.
fn phase1_candidates(seed: &Seed, opts: &PhaseOptions) -> (TransientPlan, Vec<SwapPacket>) {
    let plan = gen::plan(seed);
    let trainings = if opts.training_derivation {
        gen::derive_trainings(seed, &plan, opts.decoy_trainings)
    } else {
        gen::random_trainings(seed, opts.decoy_trainings + 2)
    };
    (plan, trainings)
}

/// Phase 1: transient window triggering (§4.1).
pub fn phase1<B: SimBackend + ?Sized>(
    backend: &mut B,
    seed: &Seed,
    opts: &PhaseOptions,
) -> Result<Phase1Result, BackendError> {
    phase1_kept(backend, seed, opts).map(|(p1, _)| p1)
}

/// [`phase1`], also returning the indices of the candidate trainings
/// that survived reduction: with them, [`phase1_rebuild`] restores the
/// result without simulating.
pub(crate) fn phase1_kept<B: SimBackend + ?Sized>(
    backend: &mut B,
    seed: &Seed,
    opts: &PhaseOptions,
) -> Result<(Phase1Result, Vec<usize>), BackendError> {
    let (plan, trainings) = phase1_candidates(seed, opts);
    let mut kept: Vec<usize> = (0..trainings.len()).collect();
    let mut schedule: Vec<SwapPacket> = trainings;
    schedule.push(gen::build_transient(&plan, &WindowFill::Dummy));
    let mut sim_runs = 0;

    let expected = plan.window_type.expected_cause();
    let mut triggers =
        |schedule: &[SwapPacket], sim_runs: &mut usize| -> Result<bool, BackendError> {
            *sim_runs += 1;
            let r = simulate(backend, &plan, schedule, IftMode::Base, opts.max_cycles)?;
            Ok(r.trace
                .window_in_packet_caused(schedule.len() - 1, Some(expected))
                .is_some_and(|w| w.triggered()))
        };

    let triggered = triggers(&schedule, &mut sim_runs)?;
    if triggered && opts.training_reduction {
        // Step 1.2 training reduction: remove one packet at a time and
        // re-simulate; discard packets whose removal keeps the window.
        let mut i = 0;
        while i + 1 < schedule.len() {
            let mut trial = schedule.clone();
            trial.remove(i);
            if triggers(&trial, &mut sim_runs)? {
                schedule = trial;
                kept.remove(i);
            } else {
                i += 1;
            }
        }
    }
    let (to, eto) = gen::training_overhead(&schedule[..schedule.len() - 1]);
    let p1 = Phase1Result {
        plan,
        schedule,
        triggered,
        to,
        eto,
        sim_runs,
    };
    Ok((p1, kept))
}

/// The [`phase1`] result of a `seed` that triggered after `sim_runs`
/// simulations with its candidate trainings `kept`, rebuilt without
/// simulating.
pub(crate) fn phase1_rebuild(
    seed: &Seed,
    opts: &PhaseOptions,
    kept: &[usize],
    sim_runs: usize,
) -> Phase1Result {
    let (plan, trainings) = phase1_candidates(seed, opts);
    let mut schedule: Vec<SwapPacket> = kept.iter().map(|&i| trainings[i].clone()).collect();
    let (to, eto) = gen::training_overhead(&schedule);
    schedule.push(gen::build_transient(&plan, &WindowFill::Dummy));
    Phase1Result {
        plan,
        schedule,
        triggered: true,
        to,
        eto,
        sim_runs,
    }
}

/// Phase 2 output.
#[derive(Clone, Debug)]
pub struct Phase2Result {
    /// The completed window body.
    pub body: WindowBody,
    /// Full schedule (window training + trigger trainings + transient).
    pub schedule: Vec<SwapPacket>,
    /// The diffIFT simulation.
    pub run: RunOutcome,
    /// The run's distinct coverage points in first-seen order
    /// ([`dejavuzz_ift::TaintLog::distinct_points`]): what the census
    /// folded. Empty on a backend without taint tracking.
    pub points: Vec<CoveragePoint>,
    /// New coverage points this run contributed.
    pub coverage_gain: usize,
    /// Whether taints increased inside the transient window (Phase 2's
    /// propagation check).
    pub taints_increased: bool,
}

/// Phase 2: transient execution exploration (§4.2) for one window body.
///
/// Generic over the coverage sink so the same code path serves a private
/// [`dejavuzz_ift::CoverageMatrix`], the concurrent
/// [`dejavuzz_ift::SharedCoverage`] union, or the executor's
/// [`dejavuzz_ift::RecordingCoverage`] fan-out — and over the simulation
/// backend, so the behavioural cores and the netlist simulator share one
/// exploration path.
pub fn phase2<B: SimBackend + ?Sized, C: TaintCoverage + ?Sized>(
    backend: &mut B,
    seed: &Seed,
    p1: &Phase1Result,
    coverage: &mut C,
    opts: &PhaseOptions,
) -> Result<Phase2Result, BackendError> {
    let mut p2 = explore(backend, seed, p1, opts)?;
    if backend.supports_taint() {
        // The DIFT census: the run's distinct points, folded into the
        // coverage matrix. Timed off the commit path — the gain value
        // itself never depends on the instrument.
        let _census_span =
            dejavuzz_telemetry::Timer::start(&crate::metrics::handles().census_nanos);
        p2.points = p2.run.taint_log.distinct_points();
        p2.coverage_gain = coverage.observe_points(&p2.points);
    } else if opts.mode != IftMode::Base {
        // A backend without taint tracking produces an empty log; folding
        // it would silently report zero gain forever, so say why once.
        warn_taintless(backend.name());
    }
    Ok(p2)
}

/// Simulates Phase 2's run for one window body, folding no coverage
/// (`points` empty, `coverage_gain` 0).
pub(crate) fn explore<B: SimBackend + ?Sized>(
    backend: &mut B,
    seed: &Seed,
    p1: &Phase1Result,
    opts: &PhaseOptions,
) -> Result<Phase2Result, BackendError> {
    let body = gen::complete_window(seed, &p1.plan);
    let transient = gen::build_transient(&p1.plan, &WindowFill::Body(body.full()));
    // Window training packets are scheduled *before* the trigger trainings
    // "to avoid invalidating the transient window" (§4.2.1).
    let mut schedule = Vec::new();
    if let Some(warm) = gen::derive_window_training(&p1.plan) {
        schedule.push(warm);
    }
    schedule.extend_from_slice(&p1.schedule[..p1.schedule.len() - 1]);
    schedule.push(transient);

    let run = simulate(backend, &p1.plan, &schedule, opts.mode, opts.max_cycles)?;
    let window = run.window_in_packet(schedule.len() - 1);
    let taints_increased = window
        .map(|w| {
            run.taint_log
                .taint_increased_in(w.start_cycle as usize, w.end_cycle as usize + 1)
        })
        .unwrap_or(false);
    Ok(Phase2Result {
        body,
        schedule,
        run,
        points: Vec::new(),
        coverage_gain: 0,
        taints_increased,
    })
}

/// The structured warning [`phase2`] emits when a DIFT-capable mode runs
/// on a backend whose [`SimBackend::supports_taint`] is false: the
/// campaign proceeds, but coverage feedback is inert. Exposed so tests
/// (and log scrapers) can pin the exact text.
pub fn taintless_warning(backend: &'static str) -> String {
    format!(
        "warning: backend {backend:?} does not support taint tracking; \
         skipping the DIFT census (coverage feedback is inert for this campaign)"
    )
}

/// Emits [`taintless_warning`] on stderr, once per process — every slot
/// of every worker hits this path, and one line says it all.
fn warn_taintless(backend: &'static str) {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| eprintln!("{}", taintless_warning(backend)));
}

/// Phase 3 output.
#[derive(Clone, Debug)]
pub struct Phase3Result {
    /// Constant-time violation of the transient window (Phase 3.1).
    pub timing_violation: bool,
    /// Reported leaks (after sanitization + liveness filtering).
    pub leaks: Vec<BugReport>,
    /// Sinks rejected by the liveness filter (tainted but dead).
    pub rejected_residue: usize,
    /// Sinks rejected by encode sanitization (taints not attributable to
    /// the encoding block, e.g. the warm-up's secret line).
    pub rejected_sanitized: usize,
}

/// Phase 3: transient leakage analysis (§4.3).
pub fn phase3<B: SimBackend + ?Sized>(
    backend: &mut B,
    p1: &Phase1Result,
    p2: &Phase2Result,
    iteration: usize,
    opts: &PhaseOptions,
) -> Result<Phase3Result, BackendError> {
    let attack = match p1.plan.secret_policy {
        dejavuzz_swapmem::SecretPolicy::ProtectBeforeTransient => AttackType::Meltdown,
        dejavuzz_swapmem::SecretPolicy::AlwaysReadable => AttackType::Spectre,
    };
    let core = backend.dut_name();
    let mut leaks = Vec::new();

    // Step 3.1: constant-time execution analysis — window timing first,
    // then whole-run divergence (post-window effects like B4's refetch).
    let window = p2.run.window_in_packet(p2.schedule.len() - 1);
    let window_diverged = window.is_some_and(|w| w.timing_diverged());
    let timing_violation = window_diverged || p2.run.timing_diverged();
    if timing_violation {
        // Attribute to the contended resource with the largest divergence.
        let resource = p2
            .run
            .timing_events
            .iter()
            .max_by_key(|t| t.wait_a.abs_diff(t.wait_b))
            .map(|t| t.resource)
            .unwrap_or("pipeline");
        leaks.push(BugReport {
            core,
            attack,
            window_type: p1.plan.window_type,
            channel: LeakChannel::Timing { resource },
            iteration,
        });
    }

    // Step 3.1 encode sanitization: nop the encode block, re-run, and keep
    // only taints the encoding block caused.
    let sanitized_pkt = gen::build_transient(&p1.plan, &WindowFill::Sanitized(p2.body.sanitized()));
    let mut schedule = p2.schedule.clone();
    let last = schedule.len() - 1;
    schedule[last] = sanitized_pkt;
    let sanitized = simulate(backend, &p1.plan, &schedule, opts.mode, opts.max_cycles)?;
    let sanitized_tainted: std::collections::HashSet<(&'static str, String, usize)> = sanitized
        .sinks
        .iter()
        .map(|s| (s.module, s.array.clone(), s.index))
        .collect();

    // Step 3.2 tainted sink liveness analysis.
    let mut rejected_residue = 0;
    let mut rejected_sanitized = 0;
    for sink in &p2.run.sinks {
        if sanitized_tainted.contains(&(sink.module, sink.array.clone(), sink.index)) {
            rejected_sanitized += 1;
            continue;
        }
        if opts.liveness_filter && !sink.live {
            rejected_residue += 1;
            continue;
        }
        // Scenario windows may refine the raw sink module into a
        // family-specific channel label (e.g. `regfile` under the
        // Zenbleed template is stale-register readout, not a generic
        // regfile taint) — the template's classification hook decides.
        let mut module = sink.module;
        if let gen::WindowType::Scenario(i) = p1.plan.window_type {
            if let Some(label) = dejavuzz_scenarios::instance_classify_sink(i, module) {
                module = label;
            }
        }
        leaks.push(BugReport {
            core,
            attack,
            window_type: p1.plan.window_type,
            channel: LeakChannel::Encoded { module },
            iteration,
        });
    }
    // Deduplicate per Table 5 aggregation key.
    leaks.sort_by_key(|l| l.dedup_key());
    leaks.dedup_by_key(|l| l.dedup_key());
    Ok(Phase3Result {
        timing_violation,
        leaks,
        rejected_residue,
        rejected_sanitized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BehaviouralBackend;
    use crate::gen::WindowType;
    use dejavuzz_ift::CoverageMatrix;
    use dejavuzz_uarch::boom_small;

    fn first_triggering_seed(
        backend: &mut BehaviouralBackend,
        wt: WindowType,
        opts: &PhaseOptions,
    ) -> (Seed, Phase1Result) {
        for e in 0..50 {
            let seed = Seed::new(wt, e);
            let p1 = phase1(backend, &seed, opts).unwrap();
            if p1.triggered {
                return (seed, p1);
            }
        }
        panic!("no {wt:?} window triggered in 50 seeds");
    }

    #[test]
    fn phase1_triggers_every_window_type() {
        let mut backend = BehaviouralBackend::new(boom_small());
        let opts = PhaseOptions::default();
        for wt in WindowType::ALL {
            let (_, p1) = first_triggering_seed(&mut backend, wt, &opts);
            assert!(p1.triggered, "{wt:?}");
        }
    }

    #[test]
    fn training_reduction_eliminates_decoys() {
        let mut backend = BehaviouralBackend::new(boom_small());
        let opts = PhaseOptions::default();
        let (_, p1) = first_triggering_seed(&mut backend, WindowType::BranchMispredict, &opts);
        // Decoy arithmetic packets never survive reduction; at least one
        // targeted branch-training packet must remain.
        assert!(p1.schedule.len() >= 2, "training + transient");
        assert!(
            p1.schedule[..p1.schedule.len() - 1]
                .iter()
                .all(|p| p.name.starts_with("trigger_train")),
            "only trigger trainings precede the transient packet"
        );
        assert!(p1.eto > 0, "mispredict windows need effective training");
        assert!(p1.sim_runs > 1, "reduction re-simulates");
    }

    #[test]
    fn exception_windows_need_zero_training() {
        let mut backend = BehaviouralBackend::new(boom_small());
        let opts = PhaseOptions::default();
        for wt in [
            WindowType::MemMisalign,
            WindowType::IllegalInstr,
            WindowType::MemPageFault,
        ] {
            let (_, p1) = first_triggering_seed(&mut backend, wt, &opts);
            assert_eq!(p1.eto, 0, "{wt:?}: reduction removes all training");
        }
    }

    #[test]
    fn phase2_propagates_taints_and_gains_coverage() {
        let mut backend = BehaviouralBackend::new(boom_small());
        let opts = PhaseOptions::default();
        let (seed, p1) = first_triggering_seed(&mut backend, WindowType::BranchMispredict, &opts);
        let mut cov = CoverageMatrix::new();
        let p2 = phase2(&mut backend, &seed, &p1, &mut cov, &opts).unwrap();
        assert!(p2.coverage_gain > 0, "fresh coverage from the first run");
        assert!(p2.taints_increased, "the window must propagate the secret");
        assert!(cov.points() > 0);
    }

    /// A backend that simulates normally but reports no taint support —
    /// the external trace-replay shape `SimBackend::supports_taint`
    /// exists for.
    #[derive(Debug)]
    struct Taintless(BehaviouralBackend);

    impl SimBackend for Taintless {
        fn name(&self) -> &'static str {
            "taintless-test"
        }
        fn dut_name(&self) -> &'static str {
            self.0.dut_name()
        }
        fn supports_taint(&self) -> bool {
            false
        }
        fn run(
            &mut self,
            plan: &TransientPlan,
            schedule: &[SwapPacket],
            mode: IftMode,
            max_cycles: u64,
        ) -> Result<RunOutcome, BackendError> {
            self.0.run(plan, schedule, mode, max_cycles)
        }
    }

    #[test]
    fn phase2_skips_the_census_for_taintless_backends() {
        let mut probe = BehaviouralBackend::new(boom_small());
        let opts = PhaseOptions::default();
        let (seed, p1) = first_triggering_seed(&mut probe, WindowType::BranchMispredict, &opts);
        let mut backend = Taintless(BehaviouralBackend::new(boom_small()));
        let mut cov = CoverageMatrix::new();
        let p2 = phase2(&mut backend, &seed, &p1, &mut cov, &opts).unwrap();
        // The census is skipped wholesale: no gain, nothing folded into
        // the matrix, and downstream phase 3 is therefore never entered
        // (the campaign loop gates it on taints having increased).
        assert_eq!(p2.coverage_gain, 0);
        assert_eq!(cov.points(), 0);
        // The structured warning has pinned text.
        assert_eq!(
            taintless_warning("taintless-test"),
            "warning: backend \"taintless-test\" does not support taint tracking; \
             skipping the DIFT census (coverage feedback is inert for this campaign)"
        );
    }

    #[test]
    fn phase3_reports_leak_for_meltdown_window() {
        // Not every window body contains a persistent-sink encode gadget
        // (an arithmetic-only body leaks nothing) — scan a few seeds, as
        // the fuzzer would, and require a Meltdown-classified leak.
        let mut backend = BehaviouralBackend::new(boom_small());
        let opts = PhaseOptions::default();
        let mut cov = CoverageMatrix::new();
        let mut found = None;
        for e in 0..30 {
            let seed = Seed::new(WindowType::MemPageFault, e);
            let p1 = phase1(&mut backend, &seed, &opts).unwrap();
            if !p1.triggered {
                continue;
            }
            let p2 = phase2(&mut backend, &seed, &p1, &mut cov, &opts).unwrap();
            let p3 = phase3(&mut backend, &p1, &p2, 0, &opts).unwrap();
            if let Some(l) = p3.leaks.first() {
                found = Some(l.clone());
                break;
            }
        }
        let leak = found.expect("some Meltdown window on vulnerable BOOM must leak");
        assert_eq!(leak.attack, AttackType::Meltdown);
    }

    #[test]
    fn phase3_liveness_filter_rejects_residue() {
        let mut backend = BehaviouralBackend::new(boom_small());
        let opts = PhaseOptions::default();
        let (seed, p1) = first_triggering_seed(&mut backend, WindowType::BranchMispredict, &opts);
        let mut cov = CoverageMatrix::new();
        let p2 = phase2(&mut backend, &seed, &p1, &mut cov, &opts).unwrap();
        let with = phase3(&mut backend, &p1, &p2, 0, &opts).unwrap();
        let without = phase3(
            &mut backend,
            &p1,
            &p2,
            0,
            &PhaseOptions {
                liveness_filter: false,
                ..opts
            },
        )
        .unwrap();
        assert!(
            without.leaks.len() >= with.leaks.len(),
            "disabling liveness can only add (mis)classifications"
        );
        // Residue rejected by the filter reappears as leaks without it.
        assert_eq!(without.rejected_residue, 0);
    }

    #[test]
    fn phase1_no_derivation_struggles_with_mispredicts() {
        // DejaVuzz*: random trainings rarely align with the trigger.
        let mut backend = BehaviouralBackend::new(boom_small());
        let opts = PhaseOptions {
            training_derivation: false,
            ..PhaseOptions::default()
        };
        let derived = PhaseOptions::default();
        let mut star_hits = 0;
        let mut full_hits = 0;
        for e in 0..30 {
            let seed = Seed::new(WindowType::IndirectMispredict, e);
            if phase1(&mut backend, &seed, &opts).unwrap().triggered {
                star_hits += 1;
            }
            if phase1(&mut backend, &seed, &derived).unwrap().triggered {
                full_hits += 1;
            }
        }
        assert!(
            full_hits > star_hits,
            "derivation must out-trigger random training: {full_hits} vs {star_hits}"
        );
        assert!(full_hits >= 25, "derived training triggers almost always");
    }
}
