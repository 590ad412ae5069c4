//! Campaign configuration and results: [`FuzzerOptions`] with the
//! ablation variants of the evaluation, and the [`CampaignStats`] a run
//! reports. Campaigns themselves run through
//! [`crate::builder::CampaignBuilder`] and the [`crate::executor`]'s one
//! commit loop, single-worker ones (the paper's sequential Figure 7
//! curves) included.

use std::collections::BTreeMap;

use dejavuzz_ift::IftMode;

use crate::gen::WindowType;
use crate::phases::PhaseOptions;
use crate::report::BugReport;

/// Campaign-level configuration. The ablation variants of the evaluation
/// are spelled as constructors: [`FuzzerOptions::dejavuzz_star`] (random
/// training, §6.2), [`FuzzerOptions::dejavuzz_minus`] (no coverage
/// feedback, §6.3) and [`FuzzerOptions::no_liveness`] (§6.3); run one
/// through [`crate::builder::CampaignBuilder::options`].
///
/// The system under test is *not* part of these options: pass a
/// [`crate::BackendSpec`] to [`crate::builder::CampaignBuilder::backend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuzzerOptions {
    /// Phase tunables.
    pub phases: PhaseOptions,
    /// Use taint coverage to guide window mutation (false = DejaVuzz⁻:
    /// "randomly updates the secret encoding block or regenerates a new
    /// transient window for each round").
    pub coverage_feedback: bool,
    /// Window-mutation attempts per seed before discarding it.
    pub mutation_attempts: usize,
}

impl Default for FuzzerOptions {
    fn default() -> Self {
        FuzzerOptions {
            phases: PhaseOptions::default(),
            coverage_feedback: true,
            mutation_attempts: 3,
        }
    }
}

impl FuzzerOptions {
    /// The DejaVuzz* variant: swapMem kept, training derivation replaced by
    /// random instructions (Table 3's middle rows).
    pub fn dejavuzz_star() -> Self {
        FuzzerOptions {
            phases: PhaseOptions {
                training_derivation: false,
                ..PhaseOptions::default()
            },
            ..FuzzerOptions::default()
        }
    }

    /// The DejaVuzz⁻ variant: no taint-coverage feedback (Figure 7's
    /// middle curve).
    pub fn dejavuzz_minus() -> Self {
        FuzzerOptions {
            coverage_feedback: false,
            ..FuzzerOptions::default()
        }
    }

    /// The no-liveness variant of §6.3's liveness evaluation.
    pub fn no_liveness() -> Self {
        FuzzerOptions {
            phases: PhaseOptions {
                liveness_filter: false,
                ..PhaseOptions::default()
            },
            ..FuzzerOptions::default()
        }
    }

    /// Overrides the IFT mode (e.g. CellIFT for overhead studies).
    pub fn with_mode(mut self, mode: IftMode) -> Self {
        self.phases.mode = mode;
        self
    }
}

/// Per-window-type statistics (Table 3 rows).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Windows of this type successfully triggered.
    pub triggered: usize,
    /// Seeds of this type attempted.
    pub attempted: usize,
    /// Sum of training overhead over triggered windows.
    pub to_sum: usize,
    /// Sum of effective training overhead.
    pub eto_sum: usize,
}

impl WindowStats {
    /// Mean TO per triggered window.
    pub fn mean_to(&self) -> f64 {
        if self.triggered == 0 {
            f64::NAN
        } else {
            self.to_sum as f64 / self.triggered as f64
        }
    }

    /// Mean ETO per triggered window.
    pub fn mean_eto(&self) -> f64 {
        if self.triggered == 0 {
            f64::NAN
        } else {
            self.eto_sum as f64 / self.triggered as f64
        }
    }
}

/// Aggregate results of a campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Cumulative coverage after each iteration (Figure 7's y series).
    pub coverage_curve: Vec<usize>,
    /// Per-window-type triggering and training overhead (Table 3).
    pub windows: BTreeMap<WindowType, WindowStats>,
    /// Deduplicated bug reports (Table 5).
    pub bugs: Vec<BugReport>,
    /// Iteration of the first bug, if any.
    pub first_bug_iteration: Option<usize>,
    /// Simulations the pipeline consumed: Phase 1's trigger and
    /// reduction runs, every Phase-2 attempt and Phase 3's sanitized
    /// re-run. A run the executor replayed from its lineage memo counts
    /// like a simulated one.
    pub sim_runs: usize,
    /// Simulated cycles (first plane) of the Phase-2 attempts the
    /// pipeline consumed, replays included; Phase-1 and Phase-3 runs are
    /// not counted. A proxy for simulation work.
    pub sim_cycles: u64,
    /// Iterations aborted by a backend failure
    /// ([`crate::backend::BackendError`]); always 0 on the in-tree
    /// backends when correctly configured.
    pub failed_runs: usize,
}

impl CampaignStats {
    /// Final coverage points.
    pub fn coverage(&self) -> usize {
        self.coverage_curve.last().copied().unwrap_or(0)
    }

    /// Merges another campaign's stats.
    ///
    /// Counters add; bugs deduplicate. Coverage curves merge by pointwise
    /// **maximum** over the overlap (keeping the longer tail): with
    /// disjoint matrices the true union curve is unknowable after the
    /// fact, and the max is the tightest *lower bound* that never
    /// over-reports. (An earlier revision documented a pointwise *sum*
    /// but never implemented any curve merge at all, leaving
    /// `coverage_curve` empty after a parallel merge.) For the **exact**
    /// union curve, run one multi-worker campaign, whose executor
    /// maintains shared coverage while the workers execute instead of
    /// approximating afterwards.
    pub fn merge(&mut self, other: &CampaignStats) {
        self.iterations += other.iterations;
        self.sim_runs += other.sim_runs;
        self.sim_cycles += other.sim_cycles;
        self.failed_runs += other.failed_runs;
        for (i, &c) in other.coverage_curve.iter().enumerate() {
            if i < self.coverage_curve.len() {
                self.coverage_curve[i] = self.coverage_curve[i].max(c);
            } else {
                self.coverage_curve.push(c);
            }
        }
        for (wt, ws) in &other.windows {
            let e = self.windows.entry(*wt).or_default();
            e.triggered += ws.triggered;
            e.attempted += ws.attempted;
            e.to_sum += ws.to_sum;
            e.eto_sum += ws.eto_sum;
        }
        for b in &other.bugs {
            if !self.bugs.iter().any(|x| x.dedup_key() == b.dedup_key()) {
                self.bugs.push(b.clone());
            }
        }
        self.first_bug_iteration = match (self.first_bug_iteration, other.first_bug_iteration) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CampaignBuilder;
    use crate::BackendSpec;
    use dejavuzz_uarch::boom_small;

    /// A single-worker campaign on behavioural BOOM.
    fn campaign(seed: u64, iterations: usize) -> CampaignStats {
        CampaignBuilder::new()
            .backend(BackendSpec::behavioural(boom_small()))
            .seed(seed)
            .build()
            .unwrap()
            .run(iterations)
            .stats
    }

    #[test]
    fn campaign_accumulates_coverage_monotonically() {
        let stats = campaign(1, 15);
        assert_eq!(stats.iterations, 15);
        assert_eq!(stats.coverage_curve.len(), 15);
        assert!(
            stats.coverage_curve.windows(2).all(|w| w[0] <= w[1]),
            "monotone"
        );
        assert!(stats.coverage() > 0);
    }

    #[test]
    fn campaign_finds_bugs_on_vulnerable_boom() {
        let stats = campaign(3, 30);
        assert!(
            !stats.bugs.is_empty(),
            "30 iterations must surface at least one leak"
        );
        assert!(stats.first_bug_iteration.is_some());
    }

    #[test]
    fn campaign_is_deterministic_per_rng_seed() {
        let s1 = campaign(9, 8);
        let s2 = campaign(9, 8);
        assert_eq!(s1.coverage_curve, s2.coverage_curve);
        assert_eq!(s1.bugs, s2.bugs);
    }

    #[test]
    fn variants_have_expected_knobs() {
        assert!(!FuzzerOptions::dejavuzz_star().phases.training_derivation);
        assert!(!FuzzerOptions::dejavuzz_minus().coverage_feedback);
        assert!(!FuzzerOptions::no_liveness().phases.liveness_filter);
        assert_eq!(
            FuzzerOptions::default()
                .with_mode(IftMode::CellIft)
                .phases
                .mode,
            IftMode::CellIft
        );
    }

    #[test]
    fn stats_merge_is_consistent() {
        let a = campaign(1, 5);
        let b = campaign(2, 5);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.iterations, 10);
        assert!(m.sim_runs >= a.sim_runs + b.sim_runs);
        assert!(m.bugs.len() <= a.bugs.len() + b.bugs.len(), "dedup applies");
        // The curve merge: pointwise max over the overlap — never the
        // inflated sum.
        assert_eq!(m.coverage_curve.len(), 5);
        for (i, &c) in m.coverage_curve.iter().enumerate() {
            assert_eq!(c, a.coverage_curve[i].max(b.coverage_curve[i]));
            assert!(c <= a.coverage_curve[i] + b.coverage_curve[i]);
        }
    }

    #[test]
    fn merge_keeps_longer_curve_tail() {
        let a = campaign(1, 3);
        let b = campaign(2, 6);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.coverage_curve.len(), 6, "longer tail survives");
        assert_eq!(m.coverage_curve[5], b.coverage_curve[5]);
    }

    #[test]
    fn window_stats_means() {
        let ws = WindowStats {
            triggered: 4,
            attempted: 5,
            to_sum: 40,
            eto_sum: 8,
        };
        assert_eq!(ws.mean_to(), 10.0);
        assert_eq!(ws.mean_eto(), 2.0);
        assert!(WindowStats::default().mean_to().is_nan());
    }
}
