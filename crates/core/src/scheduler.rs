//! Pluggable campaign scheduling: which pre-drawn slots a round holds
//! ([`Scheduler`]), and which corpus entry each slot mutates
//! ([`SeedPolicy`]).
//!
//! # Why a scheduling layer
//!
//! The executor's round protocol used to hardwire both decisions: fixed
//! per-worker batches (a slow seed — e.g. a long mispredict
//! training-reduction loop — idled every sibling at the round barrier)
//! and bare energy-decay corpus picks. This module keeps them behind two
//! traits so the planning strategy and the corpus cross-pollination
//! policy evolve independently of the executor's transport.
//!
//! # Rounds are queues of pre-drawn slots
//!
//! [`WorkStealing`], the one built-in scheduler, fully pre-draws every
//! slot of a round at planning time (corpus picks and fresh seeds
//! alike), so slots are mutually independent: idle workers claim the
//! next unclaimed slot from a shared queue instead of idling behind a
//! slow sibling. Results are committed in slot order, so the final
//! coverage, corpus, bug list and coverage curve are deterministic for
//! fixed `(seed, workers, batch)` **regardless of steal interleaving** —
//! which physical thread ran a slot can never change what the slot
//! computed. Extensions plan through the same [`PlannedSlot`] queue.
//!
//! # Work-stealing determinism, precisely
//!
//! A stolen slot's computation reads only state frozen at round start:
//!
//! 1. its seed, pre-drawn by [`WorkStealing::plan_round`] in global slot
//!    order — corpus picks from the scheduler RNG via the
//!    [`SeedPolicy`], fresh seeds from the RNG of the slot's logical
//!    *stream* (`batch` consecutive slots share a stream);
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
//! * [`EnergyDecay`] — the extracted legacy behaviour: energy-weighted
//!   roulette over retained entries, energy decaying per reschedule
//!   ([`Corpus::schedule`]).
//! * [`FavouredQuota`] — AFL-style favoured-entry culling: the
//!   cheapest seed (smallest post-reduction training overhead) covering
//!   each coverage point is *favoured*; non-favoured entries keep only
//!   [`FAVOURED_CULL`] of their scheduling weight. Picks are additionally
//!   subject to per-[`WindowType`] quotas — the represented window type
//!   with the fewest picks so far is served first — so cheap
//!   branch-mispredict lineages cannot starve exception windows.
//!
//! Policy state that influences scheduling (the favours map, the quota
//! counters) is captured by [`SeedPolicy::state`] and persisted inside
//! campaign snapshots, so resumed campaigns replay policy decisions
//! bit-identically.

use std::collections::BTreeMap;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::Rng;

use dejavuzz_ift::CoveragePoint;

use crate::builder::BuildError;
use crate::corpus::Corpus;
use crate::gen::{Seed, WindowType};

/// Weight multiplier for non-favoured corpus entries under
/// [`FavouredQuota`]: favoured entries keep their full energy,
/// non-favoured entries are culled to a quarter of theirs.
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
/// `stream`, so any other plan would hang or panic it.
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

/// Everything a scheduler consults while planning a round. All
/// randomness flows through the scheduler RNG and the per-stream RNGs,
/// so planning is deterministic and snapshot-restorable.
pub struct PlanCtx<'a> {
    /// The shared seed corpus.
    pub corpus: &'a mut Corpus,
    /// The seed policy deciding corpus picks.
    pub policy: &'a mut dyn SeedPolicy,
    /// The central scheduling RNG stream.
    pub sched_rng: &'a mut StdRng,
    /// Raw per-stream RNG positions: plans draw fresh seeds from these
    /// and advance them.
    pub worker_rngs: &'a mut [[u64; 4]],
    /// Pool size.
    pub workers: usize,
    /// Slots per stream per round.
    pub batch: usize,
    /// Active scenario-instance indices (sorted by canonical spec,
    /// deduped). Fresh-seed draws sample uniformly over
    /// `WindowType::ALL` plus these; empty keeps the historical
    /// base-only draw byte-identical.
    pub scenarios: &'a [u16],
}

/// How each round's iteration slots are pre-drawn. Implementations must
/// be deterministic: a plan may depend only on the [`PlanCtx`] state,
/// never on wall-clock or thread timing.
///
/// Custom implementations plug in through the extension registry
/// ([`crate::registry::register_scheduler`] or
/// [`crate::builder::CampaignBuilder::scheduler_ctor`]) and are selected
/// by [`SchedulerSpec::Extension`]. A stateful custom scheduler persists
/// whatever influences future plans through [`Scheduler::state`]; the
/// blob is stored in campaign snapshots and handed back to the
/// registered constructor on resume, so custom scheduling replays
/// bit-identically across a halt/resume boundary.
pub trait Scheduler: std::fmt::Debug + Send {
    /// Human-readable scheduler name.
    fn name(&self) -> &'static str;

    /// Number of slots the next round spans, given the pool geometry and
    /// the remaining iteration budget.
    fn round_span(&self, workers: usize, batch: usize, remaining: usize) -> usize {
        remaining.min(workers * batch)
    }

    /// Plans one round over `slots`, drawing per-slot scheduling
    /// decisions in global slot order. The plan lists every slot of the
    /// range exactly once, in order, each on a stream below
    /// `ctx.workers`.
    fn plan_round(&mut self, slots: Range<usize>, ctx: &mut PlanCtx<'_>) -> Vec<PlannedSlot>;

    /// The scheduler's persistable state: an opaque blob the snapshot
    /// stores and the extension constructor restores on resume. Stateless
    /// schedulers (the built-in included) return an empty blob.
    fn state(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// The deterministic work-stealing scheduler (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkStealing;

impl Scheduler for WorkStealing {
    fn name(&self) -> &'static str {
        "work-stealing"
    }

    fn plan_round(&mut self, slots: Range<usize>, ctx: &mut PlanCtx<'_>) -> Vec<PlannedSlot> {
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
}

/// Cloneable scheduler selector — the configuration-level handle the
/// [`crate::executor::Orchestrator`] stores and campaign snapshots
/// persist (resume adopts the snapshot's scheduler: it is part of the
/// campaign's replay identity, like its seed and worker count).
///
/// [`SchedulerSpec::Extension`] names a custom implementation registered
/// with [`crate::registry::register_scheduler`] (or supplied directly via
/// [`crate::builder::CampaignBuilder::scheduler_ctor`]); snapshots
/// persist the id, so a resumed campaign rebuilds the same custom
/// scheduler — provided the resuming process registered it too.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// [`WorkStealing`] (the default).
    #[default]
    WorkStealing,
    /// A registered extension, by id (labelled `ext:<id>`).
    Extension(String),
}

impl SchedulerSpec {
    /// Parses a CLI-style scheduler name (`steal`, or `ext:<id>` for a
    /// registered extension). Extension ids are
    /// validated here against the registry's id rules, so a structurally
    /// unregistrable id (empty, whitespace, embedded `:`) is diagnosed
    /// as invalid rather than later as "not registered".
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "steal" | "work-stealing" => Ok(SchedulerSpec::WorkStealing),
            other => match other.strip_prefix("ext:") {
                Some(id) => match crate::registry::validate_id(id) {
                    Ok(()) => Ok(SchedulerSpec::Extension(id.to_string())),
                    Err(e) => Err(e.to_string()),
                },
                None => Err(format!(
                    "unknown scheduler {other:?} (expected steal|ext:<id>)"
                )),
            },
        }
    }

    /// Short CLI-facing label (`steal`, `ext:<id>`).
    pub fn label(&self) -> String {
        match self {
            SchedulerSpec::WorkStealing => "steal".into(),
            SchedulerSpec::Extension(id) => format!("ext:{id}"),
        }
    }

    /// Builds the scheduler instance, restoring the opaque extension
    /// state blob when resuming. Extensions resolve through the global
    /// [`crate::registry`]; an unregistered id is a
    /// [`BuildError::UnknownScheduler`] (the
    /// [`crate::builder::CampaignBuilder`] reports this at build time,
    /// before any campaign work starts).
    pub fn build(&self, state: Option<&[u8]>) -> Result<Box<dyn Scheduler>, BuildError> {
        match self {
            SchedulerSpec::WorkStealing => Ok(Box::new(WorkStealing)),
            SchedulerSpec::Extension(id) => match crate::registry::scheduler_ctor(id) {
                Some(ctor) => Ok(ctor(state)),
                None => Err(BuildError::UnknownScheduler { id: id.clone() }),
            },
        }
    }
}

/// What one committed slot fed back to the corpus: the executed seed,
/// its selected-attempt coverage gain, the points it contributed to the
/// *global* union (deduplicated, in commit order), and a cost proxy for
/// favoured-entry selection.
pub struct SlotFeedback<'a> {
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

/// Opaque-but-persistable scheduling state of a [`SeedPolicy`]: whatever
/// beyond the corpus itself influences future picks. Stored in
/// [`crate::snapshot::CampaignSnapshot`] so resumed campaigns replay
/// policy decisions bit-identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum PolicyState {
    /// The policy keeps no state outside the corpus.
    #[default]
    Stateless,
    /// [`FavouredQuota`] state: the favours map (canonically sorted by
    /// coverage point) and the per-window-type pick counters.
    Favoured {
        /// `(point, favoured lineage)` pairs, sorted by point.
        favours: Vec<(CoveragePoint, Favour)>,
        /// `(window type, picks so far)` pairs, sorted by type.
        picks: Vec<(WindowType, usize)>,
    },
    /// A custom policy's state: an opaque blob only the registered
    /// extension constructor can interpret. Persisted verbatim in
    /// snapshots and handed back on resume.
    Opaque(Vec<u8>),
}

/// The favoured lineage for one coverage point: the cheapest seed that
/// covered it, identified by its corpus lineage key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Favour {
    /// Lineage window type.
    pub window_type: WindowType,
    /// Lineage entropy (trigger configuration identity).
    pub entropy: u64,
    /// The cost ([`SlotFeedback::cost`]) at which the point was covered.
    pub cost: u64,
}

/// Which corpus entry each slot mutates. Implementations draw all
/// randomness from the caller-supplied RNG and must be deterministic for
/// a fixed `(corpus, state, RNG)` triple.
pub trait SeedPolicy: std::fmt::Debug + Send {
    /// Human-readable policy name.
    fn name(&self) -> &'static str;

    /// Draws the next slot's seed, or `None` for fresh exploration.
    fn schedule(&mut self, corpus: &mut Corpus, rng: &mut StdRng) -> Option<Seed>;

    /// Folds one committed slot's feedback into the corpus (retention)
    /// and the policy's own state.
    fn record(&mut self, corpus: &mut Corpus, feedback: &SlotFeedback<'_>);

    /// Captures the policy's persistable state for a campaign snapshot.
    fn state(&self) -> PolicyState;
}

/// The extracted legacy policy: energy-weighted roulette with
/// per-reschedule decay, gain-keyed retention (see [`Corpus`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct EnergyDecay;

impl SeedPolicy for EnergyDecay {
    fn name(&self) -> &'static str {
        "energy-decay"
    }

    fn schedule(&mut self, corpus: &mut Corpus, rng: &mut StdRng) -> Option<Seed> {
        corpus.schedule(rng)
    }

    fn record(&mut self, corpus: &mut Corpus, feedback: &SlotFeedback<'_>) {
        corpus.record(feedback.seed, feedback.gain);
    }

    fn state(&self) -> PolicyState {
        PolicyState::Stateless
    }
}

/// AFL-style favoured-entry culling with per-window-type quotas (see the
/// module docs).
#[derive(Clone, Debug, Default)]
pub struct FavouredQuota {
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
    /// any other state restores an empty policy).
    pub fn from_state(state: &PolicyState) -> Self {
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
            PolicyState::Stateless | PolicyState::Opaque(_) => FavouredQuota::default(),
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
}

impl SeedPolicy for FavouredQuota {
    fn name(&self) -> &'static str {
        "favoured-quota"
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
    /// [`EnergyDecay`] (the default).
    #[default]
    EnergyDecay,
    /// [`FavouredQuota`].
    FavouredQuota,
    /// A registered extension, by id (labelled `ext:<id>`); see
    /// [`crate::registry::register_seed_policy`].
    Extension(String),
}

impl PolicySpec {
    /// Parses a CLI-style policy name (`energy`, `favoured`, or
    /// `ext:<id>` for a registered extension; ids are validated against
    /// the registry's id rules, as in [`SchedulerSpec::parse`]).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "energy" | "energy-decay" => Ok(PolicySpec::EnergyDecay),
            "favoured" | "favored" | "favoured-quota" => Ok(PolicySpec::FavouredQuota),
            other => match other.strip_prefix("ext:") {
                Some(id) => match crate::registry::validate_id(id) {
                    Ok(()) => Ok(PolicySpec::Extension(id.to_string())),
                    Err(e) => Err(e.to_string()),
                },
                None => Err(format!(
                    "unknown seed policy {other:?} (expected energy|favoured|ext:<id>)"
                )),
            },
        }
    }

    /// Short CLI-facing label (`energy`, `favoured`, `ext:<id>`).
    pub fn label(&self) -> String {
        match self {
            PolicySpec::EnergyDecay => "energy".into(),
            PolicySpec::FavouredQuota => "favoured".into(),
            PolicySpec::Extension(id) => format!("ext:{id}"),
        }
    }

    /// Builds the policy, restoring persisted state when given.
    /// Extensions resolve through the global [`crate::registry`] and
    /// receive the raw blob of a [`PolicyState::Opaque`]; an unregistered
    /// id is a [`BuildError::UnknownSeedPolicy`].
    pub fn build(&self, state: Option<&PolicyState>) -> Result<Box<dyn SeedPolicy>, BuildError> {
        match self {
            PolicySpec::EnergyDecay => Ok(Box::new(EnergyDecay)),
            PolicySpec::FavouredQuota => Ok(Box::new(match state {
                Some(s) => FavouredQuota::from_state(s),
                None => FavouredQuota::default(),
            })),
            PolicySpec::Extension(id) => match crate::registry::seed_policy_ctor(id) {
                Some(ctor) => {
                    let blob = match state {
                        Some(PolicyState::Opaque(b)) => Some(b.as_slice()),
                        _ => None,
                    };
                    Ok(ctor(blob))
                }
                None => Err(BuildError::UnknownSeedPolicy { id: id.clone() }),
            },
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
            SchedulerSpec::parse("ext:my-sched").unwrap(),
            SchedulerSpec::Extension("my-sched".into())
        );
        assert!(SchedulerSpec::parse("ext:").is_err(), "empty id rejected");
        assert!(
            SchedulerSpec::parse("ext:a:b")
                .unwrap_err()
                .contains("invalid extension id"),
            "unregistrable ids are diagnosed at parse time"
        );
        assert_eq!(
            SchedulerSpec::Extension("my-sched".into()).label(),
            "ext:my-sched"
        );
        assert_eq!(
            PolicySpec::parse("ext:my-pol").unwrap(),
            PolicySpec::Extension("my-pol".into())
        );
        assert!(PolicySpec::parse("ext:").is_err());
        assert_eq!(PolicySpec::Extension("my-pol".into()).label(), "ext:my-pol");
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
        let mut policy = EnergyDecay;
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
        let mut policy = EnergyDecay;
        let mut sched_rng = StdRng::seed_from_u64(3);
        let stream0 = StdRng::seed_from_u64(100).state();
        let stream1 = StdRng::seed_from_u64(200).state();
        let mut worker_rngs = [stream0, stream1];
        let mut ctx = PlanCtx {
            corpus: &mut corpus,
            policy: &mut policy,
            sched_rng: &mut sched_rng,
            worker_rngs: &mut worker_rngs,
            workers: 2,
            batch: 2,
            scenarios: &[],
        };
        let queue = WorkStealing.plan_round(0..4, &mut ctx);
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
            EnergyDecay.state(),
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
