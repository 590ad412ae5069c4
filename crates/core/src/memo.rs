//! The lineage memo: a campaign answers the simulations its corpus picks
//! repeat from compact digests of earlier runs instead of simulating them
//! again.
//!
//! A corpus pick keeps its lineage's trigger configuration and re-rolls
//! only the window (§4.2.2, §5), and [`crate::corpus::Corpus::schedule_entry`]
//! returns the same mutation on every pick of an entry. So every pick of
//! a lineage `(window_type, entropy)` re-runs the same Phase 1, the
//! Phase-2 attempts an earlier pick already ran and, when it stops at the
//! same attempt, the same Phase-3 sanitized run. A backend whose
//! [`SimBackend::replayable`] is true promises that `run` is a pure
//! function of its request, so those answers can be replayed; any other
//! backend is called for every simulation and the memo stays empty.
//!
//! Per lineage the memo keeps:
//!
//! * the Phase-1 verdict of a lineage that triggered: which candidate
//!   trainings survived reduction and how many simulations that took
//!   (the plan, the packets and TO/ETO are rebuilt from the seed); a
//!   lineage that did not trigger gains nothing, so the corpus never
//!   retains it and nothing would replay it;
//! * one [`RunDigest`] per Phase-2 mutation a corpus pick ran: the run's
//!   distinct coverage points, whether taints increased in the window,
//!   its cycle count and, once computed, its Phase-3 leaks. Never the
//!   [`crate::backend::RunOutcome`] itself, which is larger by orders of
//!   magnitude. A fresh seed's own attempts are not digested: they end
//!   at the mutation its corpus entry keeps, and picks start one past it.
//!
//! Backend errors are never stored. A replay is accounted exactly as the
//! simulation it stands for (`sim_runs`, `sim_cycles`, observer events and
//! snapshots cannot tell the two apart). Each slot counts its replays by
//! phase ([`Replays`]) and the orchestrator adds them to the write-only
//! `dejavuzz_sim_replays_total{phase}` counter when it commits the slot,
//! beside `dejavuzz_sim_runs_total`; in a release build backend calls
//! plus replays equal consumed simulations (backend errors aside). Debug
//! builds simulate every replay as well and assert that both answers
//! agree, so there every consumed simulation is also a backend call.
//!
//! Workers share one memo per campaign run. At every round boundary the
//! orchestrator prunes it to the lineages the corpus holds
//! ([`LineageMemo::prune`]). A resumed campaign starts with an empty
//! memo, which only costs simulations.

use std::collections::HashMap;
use std::sync::Mutex;

use dejavuzz_ift::{CoveragePoint, TaintCoverage};

use crate::backend::{BackendError, SimBackend};
use crate::corpus::Corpus;
use crate::gen::{Seed, WindowType};
use crate::phases::{self, Phase1Result, Phase2Result, PhaseOptions};
use crate::report::BugReport;

/// Consumed simulations a slot answered from the memo, by phase (index 0
/// is phase 1). In a release build, backend calls plus replays equal the
/// slot's `sim_runs` unless a backend error cut the slot short.
pub(crate) type Replays = [u64; 3];

/// What the executor reads from one Phase-2 simulation, and all the memo
/// keeps of it.
#[derive(Debug)]
struct RunDigest {
    /// Distinct coverage points, in first-seen order.
    points: Box<[CoveragePoint]>,
    /// Whether taints increased inside the transient window.
    taints_increased: bool,
    /// Simulated cycles (first plane).
    cycles: u64,
    /// Phase 3's leaks for this run, once a slot computed them. Their
    /// `iteration` is the computing slot's; a replay restamps it.
    leaks: Option<Box<[BugReport]>>,
}

/// A Phase-1 verdict of a lineage that triggered.
#[derive(Clone, Debug)]
struct Phase1Verdict {
    /// Indices of the candidate trainings that survived reduction.
    kept: Box<[usize]>,
    /// Simulations Phase 1 spent.
    sim_runs: usize,
}

/// Everything remembered about one lineage.
#[derive(Debug, Default)]
struct Lineage {
    phase1: Option<Phase1Verdict>,
    /// Digests by mutation counter.
    runs: Vec<(u64, RunDigest)>,
}

impl Lineage {
    fn run(&mut self, mutation: u64) -> Option<&mut RunDigest> {
        self.runs
            .iter_mut()
            .find(|(m, _)| *m == mutation)
            .map(|(_, d)| d)
    }
}

type Key = (WindowType, u64);

fn key(seed: &Seed) -> Key {
    (seed.window_type, seed.entropy)
}

/// One Phase-2 attempt as the mutation loop sees it.
#[derive(Debug)]
pub(crate) struct Attempt {
    /// Points fresh against the coverage the attempt folded into.
    pub gain: usize,
    /// Whether taints increased inside the transient window.
    pub taints_increased: bool,
    /// Simulated cycles (first plane).
    pub cycles: u64,
    /// Whether the memo answered the attempt.
    replayed: bool,
    /// The simulated run, which Phase 3 analyses. `None` when replayed,
    /// except in debug builds, which simulate every replay to check it.
    run: Option<Phase2Result>,
}

/// The per-campaign memo of lineage answers. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct LineageMemo {
    lineages: Mutex<HashMap<Key, Lineage>>,
}

impl LineageMemo {
    /// Runs `f` on the lineage of `seed`, if remembered and `backend`
    /// lets its runs be replayed.
    fn get<R>(
        &self,
        backend: &dyn SimBackend,
        seed: &Seed,
        f: impl FnOnce(&mut Lineage) -> Option<R>,
    ) -> Option<R> {
        if !backend.replayable() {
            return None;
        }
        let mut lineages = self.lineages.lock().expect("lineage memo poisoned");
        f(lineages.get_mut(&key(seed))?)
    }

    /// Runs `f` on the lineage of `seed`, remembering it if new, when
    /// `backend` lets its runs be replayed.
    fn insert(&self, backend: &dyn SimBackend, seed: &Seed, f: impl FnOnce(&mut Lineage)) {
        if !backend.replayable() {
            return;
        }
        let mut lineages = self.lineages.lock().expect("lineage memo poisoned");
        f(lineages.entry(key(seed)).or_default())
    }

    /// Phase 1 for `seed`: replayed when its lineage triggered before.
    pub(crate) fn phase1(
        &self,
        backend: &mut dyn SimBackend,
        seed: &Seed,
        opts: &PhaseOptions,
        replays: &mut Replays,
    ) -> Result<Phase1Result, BackendError> {
        if let Some(v) = self.get(backend, seed, |l| l.phase1.clone()) {
            let p1 = phases::phase1_rebuild(seed, opts, &v.kept, v.sim_runs);
            replays[0] += v.sim_runs as u64;
            if cfg!(debug_assertions) {
                if let Ok(fresh) = phases::phase1(backend, seed, opts) {
                    assert!(
                        fresh.triggered
                            && (fresh.sim_runs, fresh.to, fresh.eto)
                                == (p1.sim_runs, p1.to, p1.eto)
                            && fresh.schedule == p1.schedule,
                        "phase-1 replay of {seed:?} differs from its simulation"
                    );
                }
            }
            return Ok(p1);
        }
        let (p1, kept) = phases::phase1_kept(backend, seed, opts)?;
        if p1.triggered {
            let verdict = Phase1Verdict {
                kept: kept.into_boxed_slice(),
                sim_runs: p1.sim_runs,
            };
            self.insert(backend, seed, |l| l.phase1 = Some(verdict));
        }
        Ok(p1)
    }

    /// One Phase-2 attempt for `seed`, folded into `coverage`: replayed
    /// from the digest of an earlier run of the same mutation, or
    /// simulated and, if `remember`, digested for later slots.
    #[allow(clippy::too_many_arguments)] // the attempt's full context, spelled out
    pub(crate) fn phase2<C: TaintCoverage + ?Sized>(
        &self,
        backend: &mut dyn SimBackend,
        seed: &Seed,
        p1: &Phase1Result,
        coverage: &mut C,
        opts: &PhaseOptions,
        remember: bool,
        replays: &mut Replays,
    ) -> Result<Attempt, BackendError> {
        let known = self.get(backend, seed, |l| {
            l.run(seed.mutation)
                .map(|d| (d.points.clone(), d.taints_increased, d.cycles))
        });
        if let Some((points, taints_increased, cycles)) = known {
            replays[1] += 1;
            let mut run = None;
            if cfg!(debug_assertions) {
                if let Ok(fresh) = phases::explore(backend, seed, p1, opts) {
                    let fresh_points = if backend.supports_taint() {
                        fresh.run.taint_log.distinct_points()
                    } else {
                        Vec::new()
                    };
                    assert_eq!(
                        (
                            &fresh_points[..],
                            fresh.taints_increased,
                            fresh.run.total_cycles.0
                        ),
                        (&points[..], taints_increased, cycles),
                        "phase-2 replay of {seed:?} differs from its simulation"
                    );
                    run = Some(fresh);
                }
            }
            let _census_span =
                dejavuzz_telemetry::Timer::start(&crate::metrics::handles().census_nanos);
            return Ok(Attempt {
                gain: coverage.observe_points(&points),
                taints_increased,
                cycles,
                replayed: true,
                run,
            });
        }
        let mut p2 = phases::phase2(backend, seed, p1, coverage, opts)?;
        if remember {
            let digest = RunDigest {
                points: std::mem::take(&mut p2.points).into_boxed_slice(),
                taints_increased: p2.taints_increased,
                cycles: p2.run.total_cycles.0,
                leaks: None,
            };
            // Two picks of one entry may run the same mutation
            // concurrently; the first digest stands.
            self.insert(backend, seed, |l| {
                if l.run(seed.mutation).is_none() {
                    l.runs.push((seed.mutation, digest));
                }
            });
        }
        Ok(Attempt {
            gain: p2.coverage_gain,
            taints_increased: p2.taints_increased,
            cycles: p2.run.total_cycles.0,
            replayed: false,
            run: Some(p2),
        })
    }

    /// Phase 3's leaks for `seed`'s last Phase-2 attempt, stamped with
    /// `slot`: replayed when an earlier slot analysed the same run,
    /// otherwise computed and recorded. A replayed attempt without a
    /// recorded verdict is simulated again for the analysis, so it no
    /// longer counts as a replay.
    #[allow(clippy::too_many_arguments)] // the analysis's full context, spelled out
    pub(crate) fn phase3(
        &self,
        backend: &mut dyn SimBackend,
        seed: &Seed,
        p1: &Phase1Result,
        attempt: Attempt,
        opts: &PhaseOptions,
        slot: usize,
        replays: &mut Replays,
    ) -> Result<Vec<BugReport>, BackendError> {
        let known = self.get(backend, seed, |l| {
            l.run(seed.mutation).and_then(|d| d.leaks.clone())
        });
        if let Some(leaks) = known {
            let mut leaks = leaks.into_vec();
            for leak in &mut leaks {
                leak.iteration = slot;
            }
            replays[2] += 1;
            if cfg!(debug_assertions) {
                if let Some(p2) = attempt.run {
                    if let Ok(fresh) = phases::phase3(backend, p1, &p2, slot, opts) {
                        assert_eq!(
                            fresh.leaks, leaks,
                            "phase-3 replay of {seed:?} differs from its simulation"
                        );
                    }
                }
            }
            return Ok(leaks);
        }
        if attempt.replayed {
            replays[1] -= 1;
        }
        let p2 = match attempt.run {
            Some(p2) => p2,
            None => phases::explore(backend, seed, p1, opts)?,
        };
        let leaks = phases::phase3(backend, p1, &p2, slot, opts)?.leaks;
        self.get(backend, seed, |l| {
            l.run(seed.mutation)
                .map(|d| d.leaks = Some(leaks.clone().into_boxed_slice()))
        });
        Ok(leaks)
    }

    /// Drops what no later pick can replay: lineages the corpus no longer
    /// holds and, of those it holds, the digests of mutations at or below
    /// the entry's own (a pick starts one past it). A slot still in
    /// flight keeps working; at worst it re-simulates what was dropped.
    pub(crate) fn prune(&self, corpus: &Corpus) {
        let entries: HashMap<Key, u64> = corpus
            .entries()
            .iter()
            .map(|e| (key(&e.seed), e.seed.mutation))
            .collect();
        let mut lineages = self.lineages.lock().expect("lineage memo poisoned");
        lineages.retain(|k, l| {
            let Some(&mutation) = entries.get(k) else {
                return false;
            };
            l.runs.retain(|(m, _)| *m > mutation);
            l.phase1.is_some() || !l.runs.is_empty()
        });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::{BehaviouralBackend, RunOutcome};
    use crate::gen::TransientPlan;
    use dejavuzz_ift::{CoverageMatrix, IftMode};
    use dejavuzz_swapmem::SwapPacket;
    use dejavuzz_uarch::boom_small;

    /// The behavioural backend, counting the runs it serves.
    #[derive(Debug)]
    pub(crate) struct Counting {
        inner: BehaviouralBackend,
        /// Runs served.
        pub(crate) calls: usize,
        replayable: bool,
    }

    impl Counting {
        /// A counting BOOM backend, `replayable` as given.
        pub(crate) fn new(replayable: bool) -> Self {
            Counting {
                inner: BehaviouralBackend::new(boom_small()),
                calls: 0,
                replayable,
            }
        }
    }

    impl SimBackend for Counting {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn dut_name(&self) -> &'static str {
            self.inner.dut_name()
        }
        fn supports_taint(&self) -> bool {
            true
        }
        fn replayable(&self) -> bool {
            self.replayable
        }
        fn run(
            &mut self,
            plan: &TransientPlan,
            schedule: &[SwapPacket],
            mode: IftMode,
            max_cycles: u64,
        ) -> Result<RunOutcome, BackendError> {
            self.calls += 1;
            self.inner.run(plan, schedule, mode, max_cycles)
        }
    }

    /// A branch-misprediction lineage that triggers, so reduction runs,
    /// and whose first mutation propagates the secret.
    pub(crate) fn triggering(b: &mut Counting, opts: &PhaseOptions) -> Seed {
        (0..50)
            .map(|e| Seed::new(WindowType::BranchMispredict, e))
            .find(|s| phases::phase1(b, s, opts).unwrap().triggered)
            .expect("a mispredict window triggers within 50 seeds")
    }

    /// Replays a release build answers without calling the backend:
    /// debug builds simulate every replay too, to check it.
    pub(crate) fn skipped(replays: u64) -> u64 {
        if cfg!(debug_assertions) {
            0
        } else {
            replays
        }
    }

    /// One pick of `seed`'s lineage: Phase 1, one attempt and Phase 3.
    /// Returns the consumed simulations.
    fn pick(
        memo: &LineageMemo,
        b: &mut Counting,
        seed: &Seed,
        slot: usize,
        replays: &mut Replays,
    ) -> (usize, CoverageMatrix, Vec<BugReport>) {
        let opts = PhaseOptions::default();
        let mut cov = CoverageMatrix::new();
        let p1 = memo.phase1(b, seed, &opts, replays).unwrap();
        let a = memo
            .phase2(b, seed, &p1, &mut cov, &opts, true, replays)
            .unwrap();
        assert!(a.taints_increased, "the window propagates the secret");
        let leaks = memo.phase3(b, seed, &p1, a, &opts, slot, replays).unwrap();
        (p1.sim_runs + 2, cov, leaks)
    }

    #[test]
    fn a_lineage_replays_every_phase_it_ran_before() {
        let mut b = Counting::new(true);
        let seed = triggering(&mut b, &PhaseOptions::default()).mutate();
        let memo = LineageMemo::default();

        b.calls = 0;
        let mut replays = Replays::default();
        let (consumed, cov, leaks) = pick(&memo, &mut b, &seed, 0, &mut replays);
        assert_eq!((b.calls, replays), (consumed, [0, 0, 0]));

        b.calls = 0;
        let (again, again_cov, again_leaks) = pick(&memo, &mut b, &seed, 1, &mut replays);
        assert_eq!(again, consumed, "phase 1 rebuilt with its sim count");
        assert_eq!(replays, [consumed as u64 - 2, 1, 1]);
        assert_eq!(again_cov, cov, "the digest folds the same points");
        assert_eq!(again_leaks.len(), leaks.len());
        assert!(again_leaks.iter().all(|l| l.iteration == 1), "restamped");
        let saved = skipped(replays.iter().sum());
        assert_eq!(b.calls as u64 + saved, again as u64);
    }

    #[test]
    fn a_replayed_attempt_without_a_verdict_is_simulated_for_phase3() {
        let opts = PhaseOptions::default();
        let mut b = Counting::new(true);
        let seed = triggering(&mut b, &opts).mutate();
        let memo = LineageMemo::default();
        let mut replays = Replays::default();
        let p1 = memo.phase1(&mut b, &seed, &opts, &mut replays).unwrap();
        let mut cov = CoverageMatrix::new();
        memo.phase2(&mut b, &seed, &p1, &mut cov, &opts, true, &mut replays)
            .unwrap();

        b.calls = 0;
        let replayed = memo
            .phase2(&mut b, &seed, &p1, &mut cov, &opts, true, &mut replays)
            .unwrap();
        assert_eq!(replays, [0, 1, 0]);
        memo.phase3(&mut b, &seed, &p1, replayed, &opts, 1, &mut replays)
            .unwrap();
        assert_eq!(replays, [0, 0, 0], "the attempt was simulated after all");
        assert_eq!(b.calls, 2, "the attempt's run, then the sanitized run");
    }

    #[test]
    fn a_backend_that_is_not_replayable_serves_every_run() {
        let mut b = Counting::new(false);
        let seed = triggering(&mut b, &PhaseOptions::default()).mutate();
        let memo = LineageMemo::default();
        let mut replays = Replays::default();
        b.calls = 0;
        let (first, ..) = pick(&memo, &mut b, &seed, 0, &mut replays);
        let (second, ..) = pick(&memo, &mut b, &seed, 1, &mut replays);
        assert_eq!((b.calls, replays), (first + second, [0, 0, 0]));
        assert!(memo.lineages.lock().unwrap().is_empty());
    }

    #[test]
    fn prune_keeps_what_a_later_pick_can_replay() {
        let opts = PhaseOptions::default();
        let mut b = Counting::new(true);
        let seed = triggering(&mut b, &opts);
        let memo = LineageMemo::default();
        let mut replays = Replays::default();
        let p1 = memo.phase1(&mut b, &seed, &opts, &mut replays).unwrap();
        let mut cov = CoverageMatrix::new();
        let mut s = seed.clone();
        for _ in 0..3 {
            s = s.mutate();
            memo.phase2(&mut b, &s, &p1, &mut cov, &opts, true, &mut replays)
                .unwrap();
        }
        let digests = |memo: &LineageMemo| -> Vec<u64> {
            let lineages = memo.lineages.lock().unwrap();
            lineages
                .values()
                .flat_map(|l| l.runs.iter().map(|r| r.0))
                .collect()
        };
        assert_eq!(digests(&memo), [1, 2, 3]);

        // Retained at mutation 1: picks start at mutation 2.
        let mut corpus = Corpus::new(8);
        corpus.record(&seed.mutate(), 5);
        memo.prune(&corpus);
        assert_eq!(digests(&memo), [2, 3]);
        memo.phase1(&mut b, &seed, &opts, &mut replays).unwrap();
        assert_eq!(replays[0], p1.sim_runs as u64, "phase 1 still replays");

        // Evicted: nothing can pick the lineage again.
        memo.prune(&Corpus::new(8));
        assert!(memo.lineages.lock().unwrap().is_empty());
    }

    #[test]
    fn only_triggering_lineages_and_remembered_runs_are_kept() {
        let opts = PhaseOptions::default();
        let star = PhaseOptions {
            training_derivation: false,
            ..opts
        };
        let mut b = Counting::new(true);
        let memo = LineageMemo::default();
        let mut replays = Replays::default();
        let quiet = (0..200)
            .map(|e| Seed::new(WindowType::BranchMispredict, e))
            .find(|s| !phases::phase1(&mut b, s, &star).unwrap().triggered)
            .expect("random training misses some mispredict window");
        memo.phase1(&mut b, &quiet, &star, &mut replays).unwrap();
        assert!(memo.lineages.lock().unwrap().is_empty());

        let seed = triggering(&mut b, &opts);
        let p1 = memo.phase1(&mut b, &seed, &opts, &mut replays).unwrap();
        let mut cov = CoverageMatrix::new();
        memo.phase2(&mut b, &seed, &p1, &mut cov, &opts, false, &mut replays)
            .unwrap();
        let lineages = memo.lineages.lock().unwrap();
        assert_eq!(lineages.len(), 1);
        assert!(lineages.values().all(|l| l.runs.is_empty()));
    }
}
