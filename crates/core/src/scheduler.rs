//! Campaign scheduling: which pre-drawn slots a round holds, and which
//! corpus entry each slot mutates.
//!
//! # Rounds are queues of pre-drawn slots
//!
//! Work stealing ([`SchedulerSpec::WorkStealing`], the one scheduler)
//! fully pre-draws every slot of a round at planning time (corpus picks
//! and fresh seeds alike), so slots are mutually independent: idle
//! workers claim the next unclaimed slot from a shared queue instead of
//! idling behind a slow sibling. Results are committed in slot order, so
//! the final coverage, corpus, bug list and coverage curve are
//! deterministic for fixed `(seed, workers, batch)` **regardless of
//! steal interleaving** — which physical thread ran a slot can never
//! change what the slot computed.
//!
//! # Work-stealing determinism, precisely
//!
//! A stolen slot's computation reads only state frozen at round start:
//!
//! 1. its seed, pre-drawn in global slot order — corpus picks from the
//!    scheduler RNG via the seed policy, fresh seeds from the RNG of the
//!    slot's logical *stream* (`batch` consecutive slots share a
//!    stream);
//! 2. the round's coverage view, one frozen copy of the committed global
//!    union shipped with the round — each slot judges freshness against
//!    it with its own sink, so no slot sees a concurrent slot's
//!    observations;
//! 3. the round-start gain threshold — each slot folds only its own
//!    mutation-attempt gains.
//!
//! The orchestrator then replays outcomes in slot order, so the campaign
//! state evolution is a pure function of `(seed, workers, batch,
//! pipelined)`.
//!
//! # Cross-round pipelining
//!
//! Because every slot of a round reads only round-start state, the
//! orchestrator can plan and dispatch round k+2 the moment round k's
//! last slot *commits* — while round k+1's stragglers are still running
//! — instead of idling every worker at a barrier. The price is an
//! explicit, deterministic **feedback lag** of one round: a pipelined
//! round is planned from (and its view copies) the committed
//! coverage/corpus/threshold state as of one round behind the frontier.
//! Both schedules are the executor's one commit loop: it keeps one round
//! in flight ahead of the round it commits when the campaign is
//! pipelined, and none — the barrier, the default — otherwise.
//!
//! # Seed policies
//!
//! * [`PolicySpec::EnergyDecay`] — energy-weighted roulette over
//!   retained entries, energy decaying per reschedule
//!   ([`Corpus::schedule`]).
//! * [`PolicySpec::FavouredQuota`] — AFL-style favoured-entry culling:
//!   the cheapest seed (smallest post-reduction training overhead)
//!   covering each coverage point is *favoured*; non-favoured entries
//!   keep only [`FAVOURED_CULL`] of their scheduling weight. Picks are
//!   additionally subject to per-[`WindowType`] quotas — the represented
//!   window type with the fewest picks so far is served first — so cheap
//!   branch-mispredict lineages cannot starve exception windows.
//!
//! Policy state that influences scheduling (the favours map, the quota
//! counters) is captured as a [`PolicyState`] and persisted inside
//! campaign snapshots, so resumed campaigns replay policy decisions
//! bit-identically.

use std::collections::BTreeMap;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::Rng;

use dejavuzz_ift::CoveragePoint;

use crate::corpus::Corpus;
use crate::gen::{Seed, WindowType};

/// Weight multiplier for non-favoured corpus entries under
/// [`PolicySpec::FavouredQuota`]: favoured entries keep their full
/// energy, non-favoured entries are culled to a quarter of theirs.
pub const FAVOURED_CULL: f64 = 0.25;

/// One fully pre-drawn iteration slot of a round: any worker may claim
/// it, and the outcome is attributed to its logical `stream` for
/// deterministic accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedSlot {
    /// Global iteration index.
    pub slot: usize,
    /// Logical stream this slot's fresh entropy was drawn from (slot
    /// position in the round divided by the batch size), and the stream
    /// its observations are attributed to.
    pub stream: usize,
    /// The concrete seed to run: a policy pick's mutation or a
    /// pre-drawn fresh seed.
    pub seed: Seed,
}

/// Checks that `slots` is a committable round for a pool of `workers`
/// streams: numbered exactly `first_slot..first_slot + slots.len()`, in
/// order, each on a stream below `workers`. The commit loop waits for
/// every slot number in turn and indexes its stream accounting by
/// `stream`, so a decoded pending round that is anything else would hang
/// or panic it.
pub(crate) fn check_plan(
    slots: &[PlannedSlot],
    first_slot: usize,
    workers: usize,
) -> Result<(), String> {
    if first_slot.checked_add(slots.len()).is_none() {
        return Err(format!(
            "a round of {} slots at {first_slot} overflows",
            slots.len()
        ));
    }
    for (i, p) in slots.iter().enumerate() {
        if p.slot != first_slot + i {
            return Err(format!(
                "slot {} at position {i} of a round starting at {first_slot}",
                p.slot
            ));
        }
        if p.stream >= workers {
            return Err(format!(
                "slot {} on stream {} of {workers} workers",
                p.slot, p.stream
            ));
        }
    }
    Ok(())
}

/// Everything planning a round consults. All randomness flows through
/// the scheduler RNG and the per-stream RNGs, so planning is
/// deterministic and snapshot-restorable.
pub(crate) struct PlanCtx<'a> {
    /// The shared seed corpus.
    pub corpus: &'a mut Corpus,
    /// The seed policy deciding corpus picks.
    pub policy: &'a mut SeedPolicy,
    /// The central scheduling RNG stream.
    pub sched_rng: &'a mut StdRng,
    /// Raw per-stream RNG positions: plans draw fresh seeds from these
    /// and advance them.
    pub worker_rngs: &'a mut [[u64; 4]],
    /// Slots per stream per round.
    pub batch: usize,
    /// Active scenario-instance indices (sorted by canonical spec,
    /// deduped). Fresh-seed draws sample uniformly over
    /// `WindowType::ALL` plus these; empty keeps the historical
    /// base-only draw byte-identical.
    pub scenarios: &'a [u16],
}

/// Plans one work-stealing round over `slots`, drawing each slot's seed
/// in global slot order: the policy's corpus pick, or a fresh seed from
/// the slot's stream. The plan lists every slot of the range once, in
/// order, slot `pos` of the round on stream `pos / batch`.
pub(crate) fn plan_round(slots: Range<usize>, ctx: &mut PlanCtx<'_>) -> Vec<PlannedSlot> {
    let mut queue = Vec::with_capacity(slots.len());
    for (pos, slot) in slots.enumerate() {
        // Contiguous-chunk stream mapping: `batch` consecutive slots
        // draw their fresh entropy from one stream.
        let stream = pos / ctx.batch;
        let seed = match ctx.policy.schedule(ctx.corpus, ctx.sched_rng) {
            Some(seed) => seed,
            None => {
                // Fresh seeds are drawn here and nowhere else.
                let mut rng = StdRng::from_raw_state(ctx.worker_rngs[stream]);
                let window_type = crate::gen::draw_window_type(&mut rng, ctx.scenarios);
                let seed = Seed::new(window_type, rng.gen());
                ctx.worker_rngs[stream] = rng.state();
                seed
            }
        };
        queue.push(PlannedSlot { slot, stream, seed });
    }
    queue
}

/// Cloneable scheduler selector — the configuration-level handle the
/// [`crate::executor::Orchestrator`] stores and campaign snapshots
/// persist (resume adopts the snapshot's scheduler: it is part of the
/// campaign's replay identity, like its seed and worker count).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// Deterministic work stealing (see the module docs), the default
    /// and only scheduler.
    #[default]
    WorkStealing,
}

impl SchedulerSpec {
    /// Parses a CLI-style scheduler name (`steal`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "steal" | "work-stealing" => Ok(SchedulerSpec::WorkStealing),
            other => Err(format!("unknown scheduler {other:?} (expected steal)")),
        }
    }

    /// Short CLI-facing label (`steal`).
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerSpec::WorkStealing => "steal",
        }
    }
}

/// What one committed slot fed back to the corpus: the executed seed,
/// its selected-attempt coverage gain, the points it contributed to the
/// *global* union (deduplicated, in commit order), and a cost proxy for
/// favoured-entry selection.
pub(crate) struct SlotFeedback<'a> {
    /// The executed seed (post-mutation).
    pub seed: &'a Seed,
    /// Its window category.
    pub window_type: WindowType,
    /// Coverage gain of the selected phase-2 attempt (retention energy).
    pub gain: usize,
    /// Points this slot newly contributed to the global coverage union.
    pub global_fresh: &'a [CoveragePoint],
    /// Cost proxy: post-reduction training overhead (smaller = cheaper
    /// seed — the "smallest seed covering each point" of AFL-style
    /// favoured culling).
    pub cost: u64,
}

/// The persistable scheduling state of a seed policy: whatever beyond
/// the corpus itself influences future picks. Stored in
/// [`crate::snapshot::CampaignSnapshot`] so resumed campaigns replay
/// policy decisions bit-identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum PolicyState {
    /// The policy keeps no state outside the corpus.
    #[default]
    Stateless,
    /// [`PolicySpec::FavouredQuota`] state: the favours map (canonically
    /// sorted by coverage point) and the per-window-type pick counters.
    Favoured {
        /// `(point, favoured lineage)` pairs, sorted by point.
        favours: Vec<(CoveragePoint, Favour)>,
        /// `(window type, picks so far)` pairs, sorted by type.
        picks: Vec<(WindowType, usize)>,
    },
}

/// The favoured lineage for one coverage point: the cheapest seed that
/// covered it, identified by its corpus lineage key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Favour {
    /// Lineage window type.
    pub window_type: WindowType,
    /// Lineage entropy (trigger configuration identity).
    pub entropy: u64,
    /// The post-reduction training overhead at which the point was
    /// covered.
    pub cost: u64,
}

/// A campaign's live seed policy: which corpus entry each slot mutates.
/// Draws all randomness from the caller-supplied RNG, so it is
/// deterministic for a fixed `(corpus, state, RNG)` triple.
#[derive(Debug)]
pub(crate) enum SeedPolicy {
    /// Energy-weighted roulette with per-reschedule decay, gain-keyed
    /// retention (see [`Corpus`]).
    EnergyDecay,
    /// Favoured culling with per-window-type quotas.
    FavouredQuota(FavouredQuota),
}

impl SeedPolicy {
    /// The policy `spec` selects, restoring persisted `state` (a fresh
    /// campaign passes [`PolicyState::Stateless`]).
    pub(crate) fn new(spec: &PolicySpec, state: &PolicyState) -> Self {
        match spec {
            PolicySpec::EnergyDecay => SeedPolicy::EnergyDecay,
            PolicySpec::FavouredQuota => {
                SeedPolicy::FavouredQuota(FavouredQuota::from_state(state))
            }
        }
    }

    /// Draws the next slot's seed, or `None` for fresh exploration.
    pub(crate) fn schedule(&mut self, corpus: &mut Corpus, rng: &mut StdRng) -> Option<Seed> {
        match self {
            SeedPolicy::EnergyDecay => corpus.schedule(rng),
            SeedPolicy::FavouredQuota(f) => f.schedule(corpus, rng),
        }
    }

    /// Folds one committed slot's feedback into the corpus (retention)
    /// and the policy's own state.
    pub(crate) fn record(&mut self, corpus: &mut Corpus, feedback: &SlotFeedback<'_>) {
        match self {
            SeedPolicy::EnergyDecay => corpus.record(feedback.seed, feedback.gain),
            SeedPolicy::FavouredQuota(f) => f.record(corpus, feedback),
        }
    }

    /// Captures the policy's persistable state for a campaign snapshot.
    pub(crate) fn state(&self) -> PolicyState {
        match self {
            SeedPolicy::EnergyDecay => PolicyState::Stateless,
            SeedPolicy::FavouredQuota(f) => f.state(),
        }
    }
}

/// AFL-style favoured-entry culling with per-window-type quotas (see the
/// module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct FavouredQuota {
    /// Per coverage point: the cheapest lineage that covered it.
    favours: BTreeMap<CoveragePoint, Favour>,
    /// How many points favour each lineage — the incrementally
    /// maintained index behind [`FavouredQuota::is_favoured`], so the
    /// per-slot roulette never scans the whole favours map. Derived
    /// state: rebuilt from `favours` on restore, not persisted.
    favoured_lineages: BTreeMap<(WindowType, u64), usize>,
    /// Per window type: exploit picks served so far.
    picks: BTreeMap<WindowType, usize>,
}

impl FavouredQuota {
    /// Rebuilds the policy from persisted state ([`PolicyState::Favoured`];
    /// [`PolicyState::Stateless`] restores an empty policy).
    fn from_state(state: &PolicyState) -> Self {
        match state {
            PolicyState::Favoured { favours, picks } => {
                let mut lineages: BTreeMap<(WindowType, u64), usize> = BTreeMap::new();
                for (_, f) in favours {
                    *lineages.entry((f.window_type, f.entropy)).or_insert(0) += 1;
                }
                FavouredQuota {
                    favours: favours.iter().map(|(p, f)| (*p, *f)).collect(),
                    favoured_lineages: lineages,
                    picks: picks.iter().copied().collect(),
                }
            }
            PolicyState::Stateless => FavouredQuota::default(),
        }
    }

    /// True if the corpus entry's lineage is favoured for some point.
    fn is_favoured(&self, window_type: WindowType, entropy: u64) -> bool {
        self.favoured_lineages.contains_key(&(window_type, entropy))
    }

    /// Adjusts the lineage refcount index when a favour is granted or
    /// taken away.
    fn count_lineage(&mut self, favour: &Favour, delta: isize) {
        let key = (favour.window_type, favour.entropy);
        match self.favoured_lineages.get_mut(&key) {
            Some(n) if delta < 0 => {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    self.favoured_lineages.remove(&key);
                }
            }
            Some(n) => *n += 1,
            None if delta > 0 => {
                self.favoured_lineages.insert(key, 1);
            }
            None => {}
        }
    }

    fn schedule(&mut self, corpus: &mut Corpus, rng: &mut StdRng) -> Option<Seed> {
        let p = corpus.exploit_probability();
        if corpus.is_empty() || p <= 0.0 || !rng.gen_bool(p) {
            return None;
        }
        // Quota: serve the represented window type with the fewest
        // exploit picks so far (ties resolve in `WindowType` order: base
        // families first, then scenario families by canonical spec), so
        // cheap mispredict lineages cannot starve exception windows —
        // and scenario families get the same fairness guarantee.
        let mut represented: Vec<WindowType> = corpus
            .entries()
            .iter()
            .map(|e| e.seed.window_type)
            .collect();
        represented.sort_unstable();
        represented.dedup();
        let target = represented
            .into_iter()
            .min_by_key(|wt| self.picks.get(wt).copied().unwrap_or(0))?;
        // Energy-weighted roulette over the target type's entries, with
        // non-favoured entries culled to a fraction of their weight.
        // Weights are computed once per candidate (the favoured probe is
        // an O(log n) index lookup) — this runs on the orchestrator's
        // planning path ahead of every worker, so it must stay cheap as
        // the corpus and favours map grow.
        let candidates: Vec<(usize, f64)> = corpus
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.seed.window_type == target)
            .map(|(i, e)| {
                let w = e.energy();
                if self.is_favoured(e.seed.window_type, e.seed.entropy) {
                    (i, w)
                } else {
                    (i, w * FAVOURED_CULL)
                }
            })
            .collect();
        let total: f64 = candidates.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            return None;
        }
        let mut roll = (rng.gen::<u64>() as f64 / u64::MAX as f64) * total;
        let mut pick = candidates.last().expect("candidates nonempty").0;
        for (i, w) in &candidates {
            roll -= w;
            if roll <= 0.0 {
                pick = *i;
                break;
            }
        }
        *self.picks.entry(target).or_insert(0) += 1;
        Some(corpus.schedule_entry(pick))
    }

    fn record(&mut self, corpus: &mut Corpus, feedback: &SlotFeedback<'_>) {
        corpus.record(feedback.seed, feedback.gain);
        for point in feedback.global_fresh {
            let challenger = Favour {
                window_type: feedback.window_type,
                entropy: feedback.seed.entropy,
                cost: feedback.cost,
            };
            match self.favours.get(point).copied() {
                // First cover, or a strictly cheaper one, takes the
                // favour; ties keep the incumbent (earliest in commit
                // order — deterministic).
                Some(incumbent) if incumbent.cost <= challenger.cost => {}
                incumbent => {
                    if let Some(loser) = incumbent {
                        self.count_lineage(&loser, -1);
                    }
                    self.count_lineage(&challenger, 1);
                    self.favours.insert(*point, challenger);
                }
            }
        }
    }

    fn state(&self) -> PolicyState {
        PolicyState::Favoured {
            favours: self.favours.iter().map(|(p, f)| (*p, *f)).collect(),
            picks: self.picks.iter().map(|(w, n)| (*w, *n)).collect(),
        }
    }
}

/// Cloneable seed-policy selector, mirroring [`SchedulerSpec`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum PolicySpec {
    /// Energy-decay roulette (the default).
    #[default]
    EnergyDecay,
    /// Favoured culling with per-window-type quotas.
    FavouredQuota,
}

impl PolicySpec {
    /// Parses a CLI-style policy name (`energy` or `favoured`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "energy" | "energy-decay" => Ok(PolicySpec::EnergyDecay),
            "favoured" | "favored" | "favoured-quota" => Ok(PolicySpec::FavouredQuota),
            other => Err(format!(
                "unknown seed policy {other:?} (expected energy|favoured)"
            )),
        }
    }

    /// Short CLI-facing label (`energy`, `favoured`).
    pub fn label(&self) -> &'static str {
        match self {
            PolicySpec::EnergyDecay => "energy",
            PolicySpec::FavouredQuota => "favoured",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavuzz_ift::Module;
    use rand::SeedableRng;

    fn seeded_corpus(entries: &[(WindowType, u64, usize)]) -> Corpus {
        let mut c = Corpus::new(32);
        for &(wt, entropy, gain) in entries {
            c.record(&Seed::new(wt, entropy), gain);
        }
        c
    }

    #[test]
    fn specs_parse_and_label() {
        assert!(SchedulerSpec::parse("round").is_err());
        assert_eq!(
            SchedulerSpec::parse("steal").unwrap(),
            SchedulerSpec::WorkStealing
        );
        assert!(SchedulerSpec::parse("fifo").is_err());
        assert_eq!(
            SchedulerSpec::parse("ext:x").unwrap_err(),
            "unknown scheduler \"ext:x\" (expected steal)"
        );
        assert_eq!(
            PolicySpec::parse("ext:x").unwrap_err(),
            "unknown seed policy \"ext:x\" (expected energy|favoured)"
        );
        assert_eq!(SchedulerSpec::WorkStealing.label(), "steal");
        assert_eq!(
            PolicySpec::parse("energy").unwrap(),
            PolicySpec::EnergyDecay
        );
        assert_eq!(
            PolicySpec::parse("favoured").unwrap(),
            PolicySpec::FavouredQuota
        );
        assert!(PolicySpec::parse("rarest").is_err());
        assert_eq!(PolicySpec::FavouredQuota.label(), "favoured");
        assert_eq!(SchedulerSpec::default(), SchedulerSpec::WorkStealing);
        assert_eq!(PolicySpec::default(), PolicySpec::EnergyDecay);
    }

    #[test]
    fn energy_decay_matches_legacy_corpus_scheduling() {
        let mut policy_corpus = seeded_corpus(&[
            (WindowType::BranchMispredict, 1, 5),
            (WindowType::MemPageFault, 2, 9),
        ]);
        let mut legacy_corpus = policy_corpus.clone();
        let mut policy = SeedPolicy::EnergyDecay;
        let mut ra = StdRng::seed_from_u64(11);
        let mut rb = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            assert_eq!(
                policy.schedule(&mut policy_corpus, &mut ra),
                legacy_corpus.schedule(&mut rb),
                "the extracted policy is the legacy behaviour, draw for draw"
            );
        }
        assert_eq!(ra, rb, "identical entropy consumption");
    }

    #[test]
    fn work_stealing_predraws_fresh_seeds_from_the_owning_stream() {
        let mut corpus = Corpus::new(8); // empty: every slot is fresh
        let mut policy = SeedPolicy::EnergyDecay;
        let mut sched_rng = StdRng::seed_from_u64(3);
        let stream0 = StdRng::seed_from_u64(100).state();
        let stream1 = StdRng::seed_from_u64(200).state();
        let mut worker_rngs = [stream0, stream1];
        let mut ctx = PlanCtx {
            corpus: &mut corpus,
            policy: &mut policy,
            sched_rng: &mut sched_rng,
            worker_rngs: &mut worker_rngs,
            batch: 2,
            scenarios: &[],
        };
        let queue = plan_round(0..4, &mut ctx);
        assert_eq!(queue.len(), 4);
        assert_eq!(
            queue.iter().map(|s| s.stream).collect::<Vec<_>>(),
            vec![0, 0, 1, 1],
            "contiguous-chunk stream map"
        );
        // The pre-drawn seeds are consecutive draws from the stream.
        let mut expect = StdRng::seed_from_u64(100);
        for planned in &queue[..2] {
            let wt = WindowType::ALL[expect.gen_range(0..WindowType::ALL.len())];
            let entropy: u64 = expect.gen();
            assert_eq!(planned.seed, Seed::new(wt, entropy));
        }
        assert_eq!(worker_rngs[0], expect.state(), "stream mirror advanced");
        assert_ne!(worker_rngs[1], stream1, "second stream advanced too");
    }

    #[test]
    fn favoured_quota_serves_the_starved_window_type() {
        // A corpus dominated by high-energy mispredict lineages plus one
        // weak exception lineage: bare energy roulette would almost never
        // pick the exception entry; the quota must alternate.
        let mut corpus = seeded_corpus(&[
            (WindowType::BranchMispredict, 1, 50),
            (WindowType::BranchMispredict, 2, 40),
            (WindowType::MemPageFault, 3, 1),
        ]);
        let mut policy = FavouredQuota::default();
        let mut rng = StdRng::seed_from_u64(5);
        let mut by_type: BTreeMap<WindowType, usize> = BTreeMap::new();
        for _ in 0..400 {
            if let Some(s) = policy.schedule(&mut corpus, &mut rng) {
                *by_type.entry(s.window_type).or_insert(0) += 1;
            }
        }
        let mispredict = by_type
            .get(&WindowType::BranchMispredict)
            .copied()
            .unwrap_or(0);
        let exception = by_type.get(&WindowType::MemPageFault).copied().unwrap_or(0);
        assert!(exception > 0, "the weak exception lineage must be served");
        assert!(
            exception.abs_diff(mispredict) <= 1,
            "quotas equalise picks across represented types: {by_type:?}"
        );
    }

    #[test]
    fn favoured_quota_favours_the_cheapest_cover() {
        let mut corpus = Corpus::new(8);
        let mut policy = FavouredQuota::default();
        let point = CoveragePoint {
            module: Module::Rob,
            index: 3,
        };
        let expensive = Seed::new(WindowType::BranchMispredict, 1);
        let cheap = Seed::new(WindowType::BranchMispredict, 2);
        policy.record(
            &mut corpus,
            &SlotFeedback {
                seed: &expensive,
                window_type: expensive.window_type,
                gain: 4,
                global_fresh: &[point],
                cost: 9,
            },
        );
        assert!(policy.is_favoured(WindowType::BranchMispredict, 1));
        policy.record(
            &mut corpus,
            &SlotFeedback {
                seed: &cheap,
                window_type: cheap.window_type,
                gain: 4,
                global_fresh: &[point],
                cost: 2,
            },
        );
        assert!(
            policy.is_favoured(WindowType::BranchMispredict, 2),
            "the cheaper cover takes the favour"
        );
        assert!(
            !policy.is_favoured(WindowType::BranchMispredict, 1),
            "the expensive cover loses it"
        );
        // Equal cost keeps the incumbent.
        let rival = Seed::new(WindowType::BranchMispredict, 7);
        policy.record(
            &mut corpus,
            &SlotFeedback {
                seed: &rival,
                window_type: rival.window_type,
                gain: 4,
                global_fresh: &[point],
                cost: 2,
            },
        );
        assert!(policy.is_favoured(WindowType::BranchMispredict, 2));
        assert!(!policy.is_favoured(WindowType::BranchMispredict, 7));
    }

    #[test]
    fn favoured_quota_state_round_trips() {
        let mut corpus = Corpus::new(8);
        let mut policy = FavouredQuota::default();
        let seed = Seed::new(WindowType::IllegalInstr, 9);
        policy.record(
            &mut corpus,
            &SlotFeedback {
                seed: &seed,
                window_type: seed.window_type,
                gain: 3,
                global_fresh: &[CoveragePoint {
                    module: Module::Lsu,
                    index: 2,
                }],
                cost: 0,
            },
        );
        let mut rng = StdRng::seed_from_u64(1);
        let _ = policy.schedule(&mut corpus, &mut rng);
        let state = policy.state();
        let restored = FavouredQuota::from_state(&state);
        assert_eq!(restored.state(), state, "state survives the round trip");
        assert_eq!(
            SeedPolicy::EnergyDecay.state(),
            PolicyState::Stateless,
            "the stateless policy stays stateless"
        );
    }

    #[test]
    fn favoured_quota_is_deterministic() {
        let run = || {
            let mut corpus = seeded_corpus(&[
                (WindowType::BranchMispredict, 1, 5),
                (WindowType::MemMisalign, 2, 3),
                (WindowType::IllegalInstr, 3, 8),
            ]);
            let mut policy = FavouredQuota::default();
            let mut rng = StdRng::seed_from_u64(0xFA40);
            (0..300)
                .filter_map(|_| policy.schedule(&mut corpus, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
