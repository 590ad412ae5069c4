//! Branch prediction structures: bimodal BHT, BTB, RAS and loop predictor.
//!
//! All tables are two-plane ([`TWord`]) because transient, secret-dependent
//! control flow trains them *differently per DUT variant* — that divergence
//! is both a taint source (diffIFT control rules) and a timing side channel
//! (Table 5's `(fau)btb`, `ras`, `loop` components).
//!
//! Like the caches, every table keeps its census count current where it
//! writes entry taints, and debug builds check the count against a full
//! scan whenever it is reported.

use dejavuzz_ift::{Census, Policy, TWord};

use crate::cache::{recount, scan};

/// A bimodal branch history table of 2-bit saturating counters.
#[derive(Clone, Debug)]
pub struct Bht {
    counters: Vec<TWord>,
    /// Counters with a tainted value.
    tainted: usize,
}

impl Bht {
    /// A table of `entries` counters, initialised weakly-not-taken (01).
    pub fn new(entries: usize) -> Self {
        Bht {
            counters: vec![TWord::lit(1); entries],
            tainted: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.counters.len()
    }

    /// Predicts the branch at `pc`: `(taken_plane_a, taken_plane_b)`.
    pub fn predict(&self, pc: u64) -> (bool, bool) {
        let c = self.counters[self.index(pc)];
        (c.a >= 2, c.b >= 2)
    }

    /// Updates the counter with the resolved outcome (per plane).
    ///
    /// In hardware the update is a multiplexer selecting increment or
    /// decrement with `taken` on the select pin, so the taint rule is
    /// exactly the MUX policy: CellIFT taints the counter whenever the
    /// outcome is tainted; diffIFT only when the variants' outcomes differ.
    pub fn update(&mut self, policy: Policy, pc: u64, taken: TWord) {
        let i = self.index(pc);
        let c = self.counters[i];
        let inc = TWord {
            a: (c.a + 1).min(3),
            b: (c.b + 1).min(3),
            t: c.t,
        };
        let dec = TWord {
            a: c.a.saturating_sub(1),
            b: c.b.saturating_sub(1),
            t: c.t,
        };
        let next = policy.mux(taken, inc, dec);
        self.tainted = recount(self.tainted, c.t, next.t);
        self.counters[i] = next;
    }

    /// Whether a counter is away from its reset value (the "trained"
    /// liveness signal).
    pub fn trained_vec(&self) -> Vec<bool> {
        self.counters.iter().map(|c| c.a != 1 || c.b != 1).collect()
    }

    /// Taints of all counters (census/sinks).
    pub fn taints(&self) -> impl Iterator<Item = u64> + '_ {
        self.counters.iter().map(|c| c.t)
    }

    /// Resets every counter (new fuzzing iteration).
    pub fn reset(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = TWord::lit(1));
        self.tainted = 0;
    }

    /// Reports into a census sweep.
    pub fn census(&self, census: &mut Census) {
        debug_assert_eq!(self.tainted, scan(self.taints()), "bht count");
        census.report_counts("bht", self.tainted, self.counters.len());
    }
}

/// A direct-mapped branch target buffer.
#[derive(Clone, Debug)]
pub struct Btb {
    tags: Vec<Option<u64>>,
    targets: Vec<TWord>,
    /// Entries with a tainted target.
    tainted: usize,
}

impl Btb {
    /// A BTB of `entries` entries.
    pub fn new(entries: usize) -> Self {
        Btb {
            tags: vec![None; entries],
            targets: vec![TWord::lit(0); entries],
            tainted: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.tags.len()
    }

    /// Predicted target for the jump at `pc`, if the entry is valid.
    pub fn predict(&self, pc: u64) -> Option<TWord> {
        let i = self.index(pc);
        (self.tags[i] == Some(pc)).then(|| self.targets[i])
    }

    /// Installs/corrects the target for `pc` (resolution-time update;
    /// speculative, like BOOM's).
    pub fn update(&mut self, pc: u64, target: TWord) {
        let i = self.index(pc);
        self.tags[i] = Some(pc);
        self.tainted = recount(self.tainted, self.targets[i].t, target.t);
        self.targets[i] = target;
    }

    /// Per-entry validity (liveness vector).
    pub fn valid_vec(&self) -> Vec<bool> {
        self.tags.iter().map(Option::is_some).collect()
    }

    /// Per-entry target taints.
    pub fn taints(&self) -> impl Iterator<Item = u64> + '_ {
        self.targets.iter().map(|t| t.t)
    }

    /// Per-entry targets (sink values).
    pub fn targets(&self) -> &[TWord] {
        &self.targets
    }

    /// Clears all entries.
    pub fn reset(&mut self) {
        self.tags.iter_mut().for_each(|t| *t = None);
        self.targets.iter_mut().for_each(|t| *t = TWord::lit(0));
        self.tainted = 0;
    }

    /// Reports into a census sweep.
    pub fn census(&self, census: &mut Census) {
        debug_assert_eq!(self.tainted, scan(self.taints()), "btb count");
        census.report_counts("btb", self.tainted, self.targets.len());
    }
}

/// Snapshot of the RAS state taken at a speculation checkpoint.
///
/// BOOM's mitigation — and bug B2 — live here: the checkpoint captures only
/// the TOS pointer and the *top* entry; deeper entries overwritten by
/// transient calls are not restored (`full` = false). The XiangShan-like
/// model checkpoints the full stack.
#[derive(Clone, Debug)]
pub struct RasCheckpoint {
    tos: usize,
    top_entry: TWord,
    full_stack: Option<Vec<TWord>>,
}

/// The return address stack.
#[derive(Clone, Debug)]
pub struct Ras {
    stack: Vec<TWord>,
    tos: usize, // number of live entries; top is stack[tos-1]
    /// When true (B2 fixed / XiangShan), checkpoints capture the whole
    /// stack; when false (BOOM), only TOS + top entry are restored.
    full_restore: bool,
    /// Slots with a tainted value.
    tainted: usize,
}

impl Ras {
    /// A RAS of `entries` slots. `full_restore` selects the recovery
    /// behaviour (see [`RasCheckpoint`]).
    pub fn new(entries: usize, full_restore: bool) -> Self {
        Ras {
            stack: vec![TWord::lit(0); entries],
            tos: 0,
            full_restore,
            tainted: 0,
        }
    }

    /// Pushes a return address (speculative, at fetch of a call).
    pub fn push(&mut self, ra: TWord) {
        let top = self.stack.len().checked_sub(1);
        // Saturating stack: a push onto a full stack overwrites the top
        // (simple overflow policy).
        let slot = self.tos.min(top.expect("RAS has at least one slot"));
        self.tainted = recount(self.tainted, self.stack[slot].t, ra.t);
        self.stack[slot] = ra;
        self.tos = slot + 1;
    }

    /// Pops the predicted return address (speculative, at fetch of a ret).
    pub fn pop(&mut self) -> Option<TWord> {
        if self.tos == 0 {
            return None;
        }
        self.tos -= 1;
        Some(self.stack[self.tos])
    }

    /// Number of live entries.
    pub fn depth(&self) -> usize {
        self.tos
    }

    /// Takes a speculation checkpoint.
    pub fn checkpoint(&self) -> RasCheckpoint {
        RasCheckpoint {
            tos: self.tos,
            top_entry: if self.tos > 0 {
                self.stack[self.tos - 1]
            } else {
                TWord::lit(0)
            },
            full_stack: self.full_restore.then(|| self.stack.clone()),
        }
    }

    /// Restores a checkpoint on squash.
    ///
    /// BOOM flavour (B2): "restores the Top-Of-Stack pointer and the return
    /// address in the top entry after mispredictions \[but\] does not restore
    /// entries below the TOS pointer."
    pub fn restore(&mut self, cp: &RasCheckpoint) {
        self.tos = cp.tos;
        match &cp.full_stack {
            Some(full) => self.stack.clone_from(full),
            None => {
                if cp.tos > 0 {
                    self.stack[cp.tos - 1] = cp.top_entry;
                }
            }
        }
        self.tainted = scan(self.taints());
    }

    /// In-stack liveness vector: entries below TOS will be consumed by
    /// future returns.
    pub fn in_stack_vec(&self) -> Vec<bool> {
        (0..self.stack.len()).map(|i| i < self.tos).collect()
    }

    /// Per-slot taints.
    pub fn taints(&self) -> impl Iterator<Item = u64> + '_ {
        self.stack.iter().map(|e| e.t)
    }

    /// Raw slots (sink inspection).
    pub fn slots(&self) -> &[TWord] {
        &self.stack
    }

    /// Empties the stack.
    pub fn reset(&mut self) {
        self.tos = 0;
        self.stack.iter_mut().for_each(|e| *e = TWord::lit(0));
        self.tainted = 0;
    }

    /// Reports into a census sweep.
    pub fn census(&self, census: &mut Census) {
        debug_assert_eq!(self.tainted, scan(self.taints()), "ras count");
        census.report_counts("ras", self.tainted, self.stack.len());
    }
}

/// One loop-predictor entry.
#[derive(Clone, Copy, Debug, Default)]
struct LoopEntry {
    tag: Option<u64>,
    /// Learned trip count (two-plane: a secret could skew it transiently).
    limit: TWord,
    /// Current iteration counter.
    count: TWord,
    /// Confidence: number of consistent observations; predicts only when
    /// `conf >= CONF_THRESHOLD`.
    conf: u8,
}

impl LoopEntry {
    /// The entry's census taint: its limit's or its count's.
    fn taint(&self) -> u64 {
        self.limit.t | self.count.t
    }
}

/// A loop predictor: learns a branch's trip count and predicts the exit
/// iteration. Training it takes *much longer* than training the bimodal
/// table — the paper's "Training Preference" discussion (§7) notes the
/// reduction strategy therefore prefers the cheaper predictor.
#[derive(Clone, Debug)]
pub struct LoopPredictor {
    entries: Vec<LoopEntry>,
    /// Entries whose limit or count is tainted.
    tainted: usize,
}

/// Observations of the same trip count before the loop predictor engages.
pub const CONF_THRESHOLD: u8 = 3;

impl LoopPredictor {
    /// A predictor with `entries` entries.
    pub fn new(entries: usize) -> Self {
        LoopPredictor {
            entries: vec![LoopEntry::default(); entries],
            tainted: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.entries.len()
    }

    /// If confident about the loop at `pc`, predicts whether the *next*
    /// iteration's branch is taken (true while `count < limit`).
    pub fn predict(&self, pc: u64) -> Option<(bool, bool)> {
        let e = &self.entries[self.index(pc)];
        if e.tag != Some(pc) || e.conf < CONF_THRESHOLD {
            return None;
        }
        Some((e.count.a + 1 < e.limit.a, e.count.b + 1 < e.limit.b))
    }

    /// Observes a resolved loop-branch outcome. A taken back-edge bumps the
    /// iteration counter; a not-taken exit closes one trip and updates the
    /// learned limit/confidence.
    pub fn update(&mut self, pc: u64, taken: TWord) {
        let i = self.index(pc);
        let e = &mut self.entries[i];
        let old = e.taint();
        if e.tag != Some(pc) {
            *e = LoopEntry {
                tag: Some(pc),
                ..LoopEntry::default()
            };
        }
        if taken.a != 0 {
            e.count = e.count.add(TWord::lit(1)).taint_union(taken);
        } else {
            let trip = e.count.add(TWord::lit(1));
            if trip.a == e.limit.a && trip.a > 1 {
                e.conf = (e.conf + 1).min(CONF_THRESHOLD + 1);
            } else {
                e.limit = trip;
                e.conf = 1;
            }
            e.count = TWord::lit(0);
        }
        self.tainted = recount(self.tainted, old, e.taint());
    }

    /// Confidence-based liveness vector.
    pub fn conf_vec(&self) -> Vec<bool> {
        self.entries.iter().map(|e| e.conf > 0).collect()
    }

    /// Per-entry taints (limit or count tainted).
    pub fn taints(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(LoopEntry::taint)
    }

    /// Clears the table.
    pub fn reset(&mut self) {
        self.entries
            .iter_mut()
            .for_each(|e| *e = LoopEntry::default());
        self.tainted = 0;
    }

    /// Reports into a census sweep.
    pub fn census(&self, census: &mut Census) {
        debug_assert_eq!(self.tainted, scan(self.taints()), "loop count");
        census.report_counts("loop", self.tainted, self.entries.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavuzz_ift::IftMode;

    const DIFF: Policy = Policy::new(IftMode::DiffIft);

    #[test]
    fn bht_trains_towards_taken() {
        let mut bht = Bht::new(16);
        assert_eq!(
            bht.predict(0x1010),
            (false, false),
            "reset state predicts not-taken"
        );
        bht.update(DIFF, 0x1010, TWord::lit(1));
        assert_eq!(
            bht.predict(0x1010),
            (true, true),
            "one taken moves 1 -> 2: predict taken"
        );
        bht.update(DIFF, 0x1010, TWord::lit(0));
        bht.update(DIFF, 0x1010, TWord::lit(0));
        assert_eq!(bht.predict(0x1010), (false, false));
    }

    #[test]
    fn bht_counters_saturate() {
        let mut bht = Bht::new(4);
        for _ in 0..10 {
            bht.update(DIFF, 0x4, TWord::lit(1));
        }
        bht.update(DIFF, 0x4, TWord::lit(0));
        assert_eq!(
            bht.predict(0x4),
            (true, true),
            "3 -> 2 still predicts taken"
        );
    }

    #[test]
    fn bht_diverged_outcome_taints_counter() {
        let mut bht = Bht::new(16);
        // Secret-dependent transient branch: taken in variant 1 only.
        bht.update(DIFF, 0x20, TWord::with_taint(1, 0, 1));
        let mut c = Census::new();
        bht.census(&mut c);
        assert_eq!(c.module_tainted("bht"), Some(1));
        let (pa, pb) = bht.predict(0x20);
        assert!(pa && !pb, "plane predictions diverge — a timing channel");
    }

    #[test]
    fn bht_equal_tainted_outcome_stays_clean_under_diffift() {
        // A tainted branch outcome that is identical in both variants
        // cannot select a different counter update — diffIFT suppresses the
        // control taint (the paper's core insight), CellIFT does not.
        let mut bht = Bht::new(16);
        bht.update(DIFF, 0x20, TWord::with_taint(1, 1, 1));
        let mut c = Census::new();
        bht.census(&mut c);
        assert_eq!(
            c.module_tainted("bht"),
            Some(0),
            "diffIFT: no divergence, no taint"
        );

        let mut bht2 = Bht::new(16);
        bht2.update(
            Policy::new(IftMode::CellIft),
            0x20,
            TWord::with_taint(1, 1, 1),
        );
        let mut c2 = Census::new();
        bht2.census(&mut c2);
        assert_eq!(
            c2.module_tainted("bht"),
            Some(1),
            "CellIFT over-taints the counter"
        );
    }

    #[test]
    fn bht_trained_vec_tracks_reset_state() {
        let mut bht = Bht::new(4);
        assert!(bht.trained_vec().iter().all(|&t| !t));
        bht.update(DIFF, 0x0, TWord::lit(1));
        assert!(bht.trained_vec()[0]);
        bht.reset();
        assert!(!bht.trained_vec()[0]);
    }

    #[test]
    fn btb_predicts_after_update() {
        let mut btb = Btb::new(8);
        assert!(btb.predict(0x1010).is_none());
        btb.update(0x1010, TWord::lit(0x2000));
        assert_eq!(btb.predict(0x1010).map(|t| t.a), Some(0x2000));
        // Different PC mapping to the same set but different tag misses.
        assert!(btb.predict(0x1010 + 8 * 4).is_none());
    }

    #[test]
    fn btb_tainted_target_is_a_sink() {
        let mut btb = Btb::new(8);
        btb.update(0x1010, TWord::secret(0x2000, 0x3000));
        assert_eq!(btb.taints().filter(|&t| t != 0).count(), 1);
        assert!(btb.valid_vec()[btb.index(0x1010)]);
    }

    #[test]
    fn ras_push_pop_lifo() {
        let mut ras = Ras::new(4, true);
        ras.push(TWord::lit(0x100));
        ras.push(TWord::lit(0x200));
        assert_eq!(ras.depth(), 2);
        assert_eq!(ras.pop().map(|w| w.a), Some(0x200));
        assert_eq!(ras.pop().map(|w| w.a), Some(0x100));
        assert!(ras.pop().is_none());
    }

    #[test]
    fn ras_overflow_saturates_at_top() {
        let mut ras = Ras::new(2, true);
        ras.push(TWord::lit(1));
        ras.push(TWord::lit(2));
        ras.push(TWord::lit(3)); // overwrites top
        assert_eq!(ras.depth(), 2);
        assert_eq!(ras.pop().map(|w| w.a), Some(3));
    }

    #[test]
    fn phantom_rsb_partial_restore_leaves_corruption() {
        // B2: transient calls overwrite entries below TOS; BOOM's recovery
        // restores TOS + top only.
        let mut ras = Ras::new(8, /*full_restore=*/ false);
        ras.push(TWord::lit(0x100)); // X-2
        ras.push(TWord::lit(0x200)); // X-1
        ras.push(TWord::lit(0x300)); // X (top)
        let cp = ras.checkpoint();
        // Transient: two rets pop to X-2, then two calls overwrite X-1, X.
        ras.pop();
        ras.pop();
        ras.push(TWord::secret(0xBAD0, 0xBAD8)); // overwrites slot of 0x200
        ras.push(TWord::secret(0xBAD0, 0xBAD8)); // overwrites slot of 0x300
        ras.restore(&cp);
        assert_eq!(ras.depth(), 3);
        assert_eq!(ras.slots()[2].a, 0x300, "top entry restored");
        assert_eq!(
            ras.slots()[1].a,
            0xBAD0,
            "entry below TOS NOT restored (B2)"
        );
        assert!(ras.slots()[1].is_tainted());
        assert!(
            ras.in_stack_vec()[1],
            "corrupted entry is live -> exploitable"
        );
    }

    #[test]
    fn full_restore_fixes_phantom_rsb() {
        let mut ras = Ras::new(8, /*full_restore=*/ true);
        ras.push(TWord::lit(0x100));
        ras.push(TWord::lit(0x200));
        ras.push(TWord::lit(0x300));
        let cp = ras.checkpoint();
        ras.pop();
        ras.pop();
        ras.push(TWord::secret(0xBAD0, 0xBAD8));
        ras.restore(&cp);
        assert_eq!(
            ras.slots()[1].a,
            0x200,
            "full checkpoint restores deep entries"
        );
        assert!(!ras.slots()[1].is_tainted());
    }

    #[test]
    fn loop_predictor_needs_long_training() {
        let mut lp = LoopPredictor::new(8);
        let pc = 0x40;
        // One full trip of 5 iterations: 4 taken + 1 exit.
        let trip = |lp: &mut LoopPredictor| {
            for _ in 0..4 {
                lp.update(pc, TWord::lit(1));
            }
            lp.update(pc, TWord::lit(0));
        };
        trip(&mut lp);
        assert!(lp.predict(pc).is_none(), "one trip is not confident");
        trip(&mut lp);
        trip(&mut lp);
        trip(&mut lp);
        assert!(
            lp.predict(pc).is_some(),
            "consistent trips build confidence"
        );
        assert!(lp.conf_vec()[lp.index(pc)]);
    }

    #[test]
    fn loop_predictor_predicts_exit() {
        let mut lp = LoopPredictor::new(8);
        let pc = 0x40;
        for _ in 0..4 {
            for _ in 0..2 {
                lp.update(pc, TWord::lit(1));
            }
            lp.update(pc, TWord::lit(0));
        }
        // Fresh trip: iterations 1..2 predicted taken, exit predicted after.
        let (t, _) = lp.predict(pc).expect("confident");
        assert!(t, "first iteration predicted taken");
        lp.update(pc, TWord::lit(1));
        lp.update(pc, TWord::lit(1));
        let (t, _) = lp.predict(pc).expect("confident");
        assert!(!t, "at the learned limit the exit is predicted");
    }
}
