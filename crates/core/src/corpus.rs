//! The shared seed corpus: interesting-seed retention and energy-based
//! scheduling for the fuzzing pipeline (§5).
//!
//! The seed fuzzer regenerated a fresh random seed every iteration and
//! threw it away afterwards, so a window that uncovered new taint coverage
//! contributed nothing beyond its own run. The corpus closes that loop:
//! seeds whose Phase-2 exploration gained coverage are *retained*, carry
//! *energy* proportional to their gain, and are rescheduled with
//! probability proportional to their remaining energy. A pick keeps the
//! entry's trigger configuration and starts one mutation past the
//! entry's window: every pick of an entry returns that same mutated
//! seed until a higher gain replaces the entry, so picks repeat their
//! lineage's Phase 1 and Phase-2 mutation chain (which the executor
//! replays rather than re-simulates). Energy decays with every
//! reschedule, so a once-interesting seed cannot monopolise the
//! pipeline; capacity eviction drops the lowest-energy entry first.
//!
//! Scheduling draws all randomness from a caller-supplied RNG — the
//! [`crate::executor`] schedules centrally from the orchestrator — so
//! campaigns are exactly reproducible at any worker count.
//!
//! # Plan-time vs. commit-time reads under the cross-round pipeline
//!
//! Energies (and the retained-entry set) are read at **plan time** —
//! when a scheduler pre-draws a round's slots — and written at **commit
//! time**, when outcomes retire in slot order. Under the barriered
//! executor the two coincide at every round boundary. Under the
//! cross-round pipeline (a `pipelined` campaign) they deliberately do
//! not: round `k` is planned after round `k-1` has fully committed but
//! while round `k`'s predecessor may still be executing elsewhere in the
//! pipe, so every energy read a plan makes is *exactly one round* of
//! feedback behind execution — never a torn or interleaving-dependent
//! view. That lag-consistency is what keeps pipelined campaigns
//! deterministic per `(seed, workers, batch)`: the corpus state a
//! plan observes is a pure function of committed rounds, not of worker
//! timing.

use rand::rngs::StdRng;
use rand::Rng;

use crate::gen::Seed;

/// Default number of retained seeds.
pub const DEFAULT_CAPACITY: usize = 256;

/// Probability of scheduling a retained seed instead of generating a
/// fresh one. Exploration-heavy on purpose: the window/trigger space is
/// enormous and a retained seed only varies its window section.
pub const EXPLOIT_PROBABILITY: f64 = 0.35;

/// One retained seed plus its scheduling state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The exact seed (including its mutation counter) that produced the
    /// coverage gain.
    pub seed: Seed,
    /// Coverage points the seed gained when it was retained.
    pub gain: usize,
    /// Times this entry has been rescheduled since retention.
    pub schedules: usize,
}

impl CorpusEntry {
    /// Scheduling energy: the retention gain, decayed by every reschedule.
    pub fn energy(&self) -> f64 {
        self.gain as f64 / (1.0 + self.schedules as f64)
    }
}

/// The seed pool. See the module docs.
#[derive(Clone, Debug)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    capacity: usize,
    exploit_probability: f64,
    retained: usize,
    evicted: usize,
    /// Cached sum of entry energies, maintained incrementally on
    /// retain/decay/evict so [`Corpus::total_energy`] never re-scans the
    /// pool on the scheduling hot path. Floating-point increments can
    /// drift from a fresh scan by a few ulps (the decay update is not
    /// order-preserving), so the cache — not the scan — is the
    /// *semantics* of the scheduling mass: it is what the roulette uses,
    /// it is deterministic for a fixed operation sequence, and campaign
    /// snapshots persist it so resumed runs replay bit-identically.
    energy: f64,
}

/// Equality ignores the energy cache: two corpora with the same entries
/// are the same pool even when their caches took different incremental
/// paths to (almost exactly) the same sum.
impl PartialEq for Corpus {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
            && self.capacity == other.capacity
            && self.exploit_probability == other.exploit_probability
            && self.retained == other.retained
            && self.evicted == other.evicted
    }
}

impl Default for Corpus {
    fn default() -> Self {
        Corpus::new(DEFAULT_CAPACITY)
    }
}

impl Corpus {
    /// An empty corpus holding at most `capacity` seeds.
    pub fn new(capacity: usize) -> Self {
        Corpus {
            entries: Vec::new(),
            capacity: capacity.max(1),
            exploit_probability: EXPLOIT_PROBABILITY,
            retained: 0,
            evicted: 0,
            energy: 0.0,
        }
    }

    /// Overrides the exploit probability. `0.0` makes every
    /// [`Corpus::schedule`] call explore — uniform fresh sampling, used by
    /// measurements that must not be skewed toward coverage-gaining
    /// lineages (e.g. Table 3's training overheads).
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or outside `[0, 1]`. A probability outside the
    /// unit interval has no meaning for [`Corpus::schedule`]'s Bernoulli
    /// draw, and silently clamping it (as an earlier revision did) hides
    /// the caller's bug.
    pub fn with_exploit_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "exploit probability must be in [0, 1], got {p}"
        );
        self.exploit_probability = p;
        self
    }

    /// The configured capacity (maximum retained seeds).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured exploit probability.
    pub fn exploit_probability(&self) -> f64 {
        self.exploit_probability
    }

    /// Rebuilds a corpus from snapshot state, entry order preserved
    /// (scheduling iterates entries in order, so order is part of the
    /// resume-equivalence contract). The energy cache starts as a fresh
    /// scan; a snapshot then sets its persisted scheduling mass.
    pub(crate) fn restore(
        entries: Vec<CorpusEntry>,
        capacity: usize,
        exploit_probability: f64,
        retained: usize,
        evicted: usize,
    ) -> Self {
        let energy = entries.iter().map(|e| e.energy()).sum();
        Corpus {
            entries,
            capacity: capacity.max(1),
            exploit_probability,
            retained,
            evicted,
            energy,
        }
    }

    /// Retained seeds currently in the pool.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total seeds ever retained (monotone; eviction does not decrement).
    pub fn retained(&self) -> usize {
        self.retained
    }

    /// Seeds dropped by capacity eviction.
    pub fn evicted(&self) -> usize {
        self.evicted
    }

    /// Sum of entry energies (the scheduling mass). O(1): returns the
    /// incrementally maintained cache, which a debug build cross-checks
    /// against the O(n) scan it replaced.
    pub fn total_energy(&self) -> f64 {
        debug_assert!(
            {
                let scan: f64 = self.entries.iter().map(|e| e.energy()).sum();
                (self.energy - scan).abs() <= 1e-6 * scan.abs().max(1.0)
            },
            "energy cache {} diverged from scan {}",
            self.energy,
            self.entries.iter().map(|e| e.energy()).sum::<f64>(),
        );
        self.energy
    }

    /// The raw cache value, persisted by campaign snapshots so resumed
    /// roulette draws replay against bit-identical scheduling mass.
    /// Public read-only: external persistence tooling (and the snapshot
    /// version-skew tests) re-encode it verbatim.
    pub fn energy_cache(&self) -> f64 {
        self.energy
    }

    /// Restores a persisted cache value (snapshot decode).
    pub(crate) fn set_energy_cache(&mut self, energy: f64) {
        self.energy = energy;
    }

    /// The retained entries, for inspection (and for [`crate::scheduler::
    /// SeedPolicy`] implementations that pick by their own weighting —
    /// pair with [`Corpus::schedule_entry`]).
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Draws the next seed to run, or `None` when the scheduler chooses
    /// exploration (the caller then generates a fresh random seed).
    ///
    /// A retained pick is returned as [`Corpus::schedule_entry`] returns
    /// it: the entry's seed mutated once, the same seed on every pick of
    /// the entry until the entry is replaced.
    pub fn schedule(&mut self, rng: &mut StdRng) -> Option<Seed> {
        if self.entries.is_empty()
            || self.exploit_probability <= 0.0
            || !rng.gen_bool(self.exploit_probability)
        {
            return None;
        }
        let total = self.total_energy();
        if total <= 0.0 {
            return None;
        }
        // Energy-weighted roulette pick.
        let mut roll = (rng.gen::<u64>() as f64 / u64::MAX as f64) * total;
        let mut pick = self.entries.len() - 1;
        for (i, e) in self.entries.iter().enumerate() {
            roll -= e.energy();
            if roll <= 0.0 {
                pick = i;
                break;
            }
        }
        Some(self.schedule_entry(pick))
    }

    /// Schedules the entry at `index` directly: bumps its reschedule
    /// count (decaying its energy) and returns its seed mutated once,
    /// which keeps the trigger configuration and moves the window one
    /// mutation on. The result depends only on the entry's seed, so every
    /// pick of an entry returns the same seed until [`Corpus::record`]
    /// replaces the entry. This is the primitive custom
    /// [`crate::scheduler::SeedPolicy`] implementations build on after
    /// making their own pick over [`Corpus::entries`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn schedule_entry(&mut self, index: usize) -> Seed {
        let entry = &mut self.entries[index];
        let before = entry.energy();
        entry.schedules += 1;
        self.energy += entry.energy() - before;
        entry.seed.mutate()
    }

    /// Reports an executed seed's coverage gain; retains it when the gain
    /// is positive, evicting the lowest-energy entry on overflow.
    pub fn record(&mut self, seed: &Seed, gain: usize) {
        if gain == 0 {
            return;
        }
        // The same lineage scoring again replaces its entry if the new
        // gain is higher (re-energise), otherwise it is left alone — a
        // duplicate entry would double its scheduling mass.
        if let Some(existing) = self
            .entries
            .iter_mut()
            .find(|e| e.seed.window_type == seed.window_type && e.seed.entropy == seed.entropy)
        {
            if gain > existing.gain {
                let before = existing.energy();
                existing.seed = seed.clone();
                existing.gain = gain;
                existing.schedules = 0;
                self.energy += existing.energy() - before;
            }
            return;
        }
        self.retained += 1;
        self.entries.push(CorpusEntry {
            seed: seed.clone(),
            gain,
            schedules: 0,
        });
        self.energy += self.entries.last().expect("just pushed").energy();
        if self.entries.len() > self.capacity {
            let weakest = self
                .entries
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.energy()
                        .partial_cmp(&b.energy())
                        .expect("energy is finite")
                })
                .map(|(i, _)| i)
                .expect("non-empty");
            self.energy -= self.entries[weakest].energy();
            self.entries.swap_remove(weakest);
            self.evicted += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WindowType;
    use rand::SeedableRng;

    fn seed(e: u64) -> Seed {
        Seed::new(WindowType::BranchMispredict, e)
    }

    #[test]
    fn zero_gain_is_not_retained() {
        let mut c = Corpus::new(8);
        c.record(&seed(1), 0);
        assert!(c.is_empty());
        assert_eq!(c.retained(), 0);
    }

    #[test]
    fn empty_corpus_always_explores() {
        let mut c = Corpus::new(8);
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..100).all(|_| c.schedule(&mut rng).is_none()));
    }

    #[test]
    fn zero_exploit_probability_disables_scheduling_without_rng_draws() {
        let mut c = Corpus::new(8).with_exploit_probability(0.0);
        c.record(&seed(1), 10);
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..50).all(|_| c.schedule(&mut rng).is_none()));
        // The disabled scheduler consumes no entropy, so the fresh-seed
        // stream matches a corpus that never retained anything.
        assert_eq!(rng, StdRng::seed_from_u64(1), "no rng draws while disabled");
    }

    #[test]
    fn retained_seeds_are_scheduled_as_mutations() {
        let mut c = Corpus::new(8);
        c.record(&seed(42), 5);
        let mut rng = StdRng::seed_from_u64(1);
        let picked = (0..200)
            .filter_map(|_| c.schedule(&mut rng))
            .collect::<Vec<_>>();
        assert!(
            !picked.is_empty(),
            "exploit probability must fire in 200 draws"
        );
        for s in &picked {
            assert_eq!(s.entropy, 42, "trigger configuration preserved");
            assert!(s.mutation > 0, "window section re-rolled");
        }
        // Exploration still dominates (p = 0.35).
        assert!(
            picked.len() < 150,
            "{} exploit draws out of 200",
            picked.len()
        );
    }

    #[test]
    fn energy_weights_favor_high_gain_seeds() {
        let mut c = Corpus::new(8);
        c.record(&seed(1), 1);
        c.record(&seed(2), 40);
        let mut rng = StdRng::seed_from_u64(7);
        let mut by_entropy = [0usize; 2];
        for _ in 0..2000 {
            if let Some(s) = c.schedule(&mut rng) {
                by_entropy[(s.entropy - 1) as usize] += 1;
            }
        }
        assert!(
            by_entropy[1] > 3 * by_entropy[0],
            "gain-40 seed must dominate gain-1 seed: {by_entropy:?}"
        );
    }

    #[test]
    fn energy_decays_with_reschedules() {
        let e0 = CorpusEntry {
            seed: seed(1),
            gain: 10,
            schedules: 0,
        };
        let e3 = CorpusEntry {
            seed: seed(1),
            gain: 10,
            schedules: 3,
        };
        assert!(e0.energy() > e3.energy());
        assert_eq!(e0.energy(), 10.0);
        assert_eq!(e3.energy(), 2.5);
    }

    #[test]
    fn capacity_evicts_lowest_energy() {
        let mut c = Corpus::new(2);
        c.record(&seed(1), 1); // weakest
        c.record(&seed(2), 10);
        c.record(&seed(3), 5);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evicted(), 1);
        assert!(
            c.entries().iter().all(|e| e.seed.entropy != 1),
            "weakest evicted"
        );
    }

    #[test]
    fn re_recording_same_lineage_reenergises_instead_of_duplicating() {
        let mut c = Corpus::new(8);
        c.record(&seed(5), 3);
        let mutated = seed(5).mutate();
        c.record(&mutated, 9);
        assert_eq!(c.len(), 1, "same lineage keeps one entry");
        assert_eq!(c.entries()[0].gain, 9, "higher gain re-energises");
        c.record(&seed(5), 2);
        assert_eq!(c.entries()[0].gain, 9, "lower gain leaves the entry alone");
    }

    #[test]
    #[should_panic(expected = "exploit probability must be in [0, 1]")]
    fn out_of_range_exploit_probability_panics() {
        let _ = Corpus::new(8).with_exploit_probability(1.5);
    }

    #[test]
    #[should_panic(expected = "exploit probability must be in [0, 1]")]
    fn negative_exploit_probability_panics() {
        let _ = Corpus::new(8).with_exploit_probability(-0.1);
    }

    #[test]
    #[should_panic(expected = "exploit probability must be in [0, 1]")]
    fn nan_exploit_probability_panics() {
        let _ = Corpus::new(8).with_exploit_probability(f64::NAN);
    }

    /// Eviction order is load-bearing for resume equivalence: `record`
    /// uses `swap_remove`, so *which* entry is weakest and *where* the
    /// last entry lands must replay identically from equal inputs —
    /// otherwise a resumed corpus's roulette iteration order diverges.
    #[test]
    fn eviction_order_is_deterministic_under_fixed_seed() {
        let run = || {
            let mut c = Corpus::new(4);
            let mut rng = StdRng::seed_from_u64(0xE71C);
            for e in 0..32u64 {
                let gain = rng.gen_range(1..20usize);
                c.record(&seed(e), gain);
                // Interleave scheduling so energies decay mid-stream.
                let _ = c.schedule(&mut rng);
            }
            (
                c.entries()
                    .iter()
                    .map(|e| (e.seed.clone(), e.gain, e.schedules))
                    .collect::<Vec<_>>(),
                c.retained(),
                c.evicted(),
            )
        };
        let (entries_a, retained_a, evicted_a) = run();
        let (entries_b, retained_b, evicted_b) = run();
        assert_eq!(entries_a, entries_b, "entry order must replay exactly");
        assert_eq!(retained_a, retained_b);
        assert_eq!(evicted_a, evicted_b);
        assert!(evicted_a > 0, "the scenario must actually evict");
    }

    /// The cached scheduling mass must track the scan through every kind
    /// of mutation: retention, re-energising, decay and eviction. (Debug
    /// builds also assert this inside every `total_energy` call; this
    /// test makes the property explicit and release-checkable.)
    #[test]
    fn energy_cache_tracks_scan_through_churn() {
        let mut c = Corpus::new(4);
        let mut rng = StdRng::seed_from_u64(0xCAC4E);
        for e in 0..64u64 {
            c.record(&seed(e % 12), rng.gen_range(1..25usize));
            let _ = c.schedule(&mut rng);
            let scan: f64 = c.entries().iter().map(|en| en.energy()).sum();
            assert!(
                (c.total_energy() - scan).abs() <= 1e-9 * scan.max(1.0),
                "cache {} vs scan {scan} after {e} ops",
                c.total_energy()
            );
        }
        assert!(c.evicted() > 0, "the scenario must exercise eviction");
    }

    #[test]
    fn schedule_entry_decays_and_mutates() {
        let mut c = Corpus::new(8);
        c.record(&seed(3), 10);
        let before = c.total_energy();
        let s = c.schedule_entry(0);
        assert_eq!(s.entropy, 3, "lineage preserved");
        assert!(s.mutation > 0, "window re-rolled");
        assert_eq!(c.entries()[0].schedules, 1);
        assert!(c.total_energy() < before, "decay shrinks the mass");
    }

    #[test]
    fn scheduling_is_deterministic_per_rng_seed() {
        let mut a = Corpus::new(8);
        let mut b = Corpus::new(8);
        for c in [&mut a, &mut b] {
            c.record(&seed(1), 3);
            c.record(&seed(2), 7);
        }
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(a.schedule(&mut ra), b.schedule(&mut rb));
        }
    }
}
