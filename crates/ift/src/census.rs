//! Per-cycle taint observation: the census (who is tainted, per module) and
//! the taint log (Figure 6's "taint sum over cycles").

use crate::coverage::CoveragePoint;
use crate::module::Module;

/// Tainted-register statistics for one hardware module in one cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleCensus {
    /// The module.
    pub module: Module,
    /// Number of registers in the module with at least one tainted bit.
    pub tainted: usize,
    /// Total number of registers the module reported.
    pub total: usize,
}

impl ModuleCensus {
    /// This entry's coverage point, `(module, tainted)`. A count past
    /// `u32::MAX` (which only a corrupt decode could carry) saturates.
    pub fn point(&self) -> CoveragePoint {
        CoveragePoint {
            module: self.module,
            index: u32::try_from(self.tainted).unwrap_or(u32::MAX),
        }
    }
}

/// A single cycle's taint census across all modules of a DUT.
///
/// Modules report themselves during a census sweep; the fuzzer then derives
/// the global taint sum (Figure 6) and feeds the per-module counts into the
/// [`crate::coverage::CoverageMatrix`] (§4.2.2).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Census {
    modules: Vec<ModuleCensus>,
}

impl Census {
    /// An empty census.
    pub fn new() -> Self {
        Census::default()
    }

    /// Reports one module's counts. `taints` yields the shadow mask of each
    /// register in the module.
    pub fn report(&mut self, module: Module, taints: impl IntoIterator<Item = u64>) {
        let mut tainted = 0;
        let mut total = 0;
        for t in taints {
            total += 1;
            if t != 0 {
                tainted += 1;
            }
        }
        self.modules.push(ModuleCensus {
            module,
            tainted,
            total,
        });
    }

    /// Forgets every reported module, keeping the buffer, so one census
    /// can be refilled cycle after cycle without allocating.
    pub fn clear(&mut self) {
        self.modules.clear();
    }

    /// Reports a module with precomputed counts.
    pub fn report_counts(&mut self, module: Module, tainted: usize, total: usize) {
        self.modules.push(ModuleCensus {
            module,
            tainted,
            total,
        });
    }

    /// The modules reported this cycle, in report order.
    pub fn modules(&self) -> &[ModuleCensus] {
        &self.modules
    }

    /// This cycle's coverage points, in report order: one
    /// `(module, tainted-count)` per module with a tainted register. A
    /// count of zero is no point (see [`CoverageMatrix::observe`]).
    ///
    /// [`CoverageMatrix::observe`]: crate::coverage::CoverageMatrix::observe
    pub fn points(&self) -> impl Iterator<Item = CoveragePoint> + '_ {
        self.modules
            .iter()
            .filter(|m| m.tainted != 0)
            .map(ModuleCensus::point)
    }

    /// Total number of tainted registers across all modules — the y-axis of
    /// Figure 6.
    pub fn taint_sum(&self) -> usize {
        self.modules.iter().map(|m| m.tainted).sum()
    }

    /// Total number of registers across all modules.
    pub fn register_count(&self) -> usize {
        self.modules.iter().map(|m| m.total).sum()
    }

    /// The tainted count for a specific module, if it reported.
    pub fn module_tainted(&self, module: Module) -> Option<usize> {
        self.modules
            .iter()
            .find(|m| m.module == module)
            .map(|m| m.tainted)
    }
}

/// The taint log: one census per simulated cycle.
///
/// This is the paper's "taint log" artifact — Phase 2 reads taint increases
/// inside the transient window from it, Phase 3 diffs it against the
/// sanitized re-run, and Figure 6 plots its taint sums.
///
/// # Storage
///
/// A diffIFT log runs to hundreds of cycles, but taint state changes in a
/// handful of them, so consecutive cycles mostly repeat the same census.
/// The log is change-coded: each run of equal consecutive censuses is
/// stored once, and every cycle holds a `u32` index into those runs. The
/// accessors answer per cycle exactly as a plain `Vec<Census>` would; the
/// ones that only need each distinct census once (the taint sum's peak,
/// [`TaintLog::distinct_points`], the sum comparisons of
/// [`TaintLog::taint_increased_in`]) look at each run once.
/// [`TaintLog::push_ref`] lets a simulator fill one reused [`Census`] per
/// cycle and have it cloned only when it differs from the last cycle's;
/// a simulator that knows nothing changed logs the cycle with
/// [`TaintLog::repeat_last`] without building its census at all.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaintLog {
    /// Each run of equal consecutive censuses, once, in cycle order.
    /// Consecutive runs differ.
    runs: Vec<Census>,
    /// Per cycle, the index of its census in `runs`.
    cycles: Vec<u32>,
}

impl TaintLog {
    /// An empty log.
    pub fn new() -> Self {
        TaintLog::default()
    }

    /// Appends the census for the next cycle.
    pub fn push(&mut self, census: Census) {
        if self.runs.last() != Some(&census) {
            self.runs.push(census);
        }
        self.cycles.push(self.last_run());
    }

    /// Appends a copy of `census` for the next cycle, cloning it only when
    /// it differs from the previous cycle's census.
    pub fn push_ref(&mut self, census: &Census) {
        self.push_run(1, census);
    }

    /// Appends `cycles` cycles of `census` (none for 0), cloning it only
    /// when it differs from the previous cycle's census.
    pub fn push_run(&mut self, cycles: usize, census: &Census) {
        if cycles == 0 {
            return;
        }
        if self.runs.last() != Some(census) {
            self.runs.push(census.clone());
        }
        self.cycles
            .extend(std::iter::repeat_n(self.last_run(), cycles));
    }

    /// Appends one more cycle of the last cycle's census: what
    /// [`TaintLog::push_ref`] stores for a census equal to it, without
    /// comparing one.
    ///
    /// # Panics
    ///
    /// If the log is empty.
    pub fn repeat_last(&mut self) {
        let run = *self.cycles.last().expect("a logged cycle to repeat");
        self.cycles.push(run);
    }

    fn last_run(&self) -> u32 {
        u32::try_from(self.runs.len() - 1).expect("fewer than 2^32 taint-log runs")
    }

    /// An empty log with room for as many runs and cycles as this one
    /// holds: a simulator handing this log back starts its next one at
    /// about the size it will need instead of regrowing it from empty.
    pub fn empty_like(&self) -> TaintLog {
        TaintLog {
            runs: Vec::with_capacity(self.runs.len()),
            cycles: Vec::with_capacity(self.cycles.len()),
        }
    }

    /// Forgets every cycle, keeping the buffers.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.cycles.clear();
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// True if no cycle has been recorded.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// The census of cycle `c`.
    pub fn cycle(&self, c: usize) -> Option<&Census> {
        self.cycles.get(c).map(|&run| &self.runs[run as usize])
    }

    /// Iterates over (cycle, census).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Census)> {
        self.cycles
            .iter()
            .map(|&run| &self.runs[run as usize])
            .enumerate()
    }

    /// Iterates over the runs of equal consecutive censuses as (cycles,
    /// census), in cycle order: every run spans at least one cycle, and
    /// consecutive runs differ. [`TaintLog::push_run`] rebuilds the log
    /// from them.
    pub fn runs(&self) -> impl Iterator<Item = (usize, &Census)> {
        self.cycles
            .chunk_by(|a, b| a == b)
            .map(|cycles| (cycles.len(), &self.runs[cycles[0] as usize]))
    }

    /// Every distinct coverage point of the log, in the order a cycle-by-
    /// cycle fold first meets it. Folding these through
    /// [`TaintCoverage::observe_points`] has exactly the effect of folding
    /// the whole log, at the cost of its distinct points: a diffIFT log
    /// runs to hundreds of cycles but holds a handful of distinct points.
    ///
    /// A repeated census adds nothing to the fold, so only the runs are
    /// visited, and a module reporting the same count as it did at the
    /// same position in the run before cannot be a first occurrence: only
    /// changed modules are looked up among the points found so far.
    ///
    /// [`TaintCoverage::observe_points`]: crate::coverage::TaintCoverage::observe_points
    pub fn distinct_points(&self) -> Vec<CoveragePoint> {
        let mut points: Vec<CoveragePoint> = Vec::new();
        let mut prev: &[ModuleCensus] = &[];
        for census in &self.runs {
            for (i, m) in census.modules.iter().enumerate() {
                let unchanged = prev
                    .get(i)
                    .is_some_and(|p| p.tainted == m.tainted && p.module == m.module);
                if m.tainted == 0 || unchanged {
                    continue;
                }
                let point = m.point();
                if !points.contains(&point) {
                    points.push(point);
                }
            }
            prev = &census.modules;
        }
        points
    }

    /// The taint-sum series (Figure 6 curve).
    pub fn taint_sums(&self) -> Vec<usize> {
        let sums: Vec<usize> = self.runs.iter().map(Census::taint_sum).collect();
        self.cycles.iter().map(|&run| sums[run as usize]).collect()
    }

    /// Whether the taint sum strictly increases anywhere inside
    /// `[from, to)` — Phase 2's "if taints increase, sensitive data has been
    /// successfully propagated" check.
    pub fn taint_increased_in(&self, from: usize, to: usize) -> bool {
        let to = to.min(self.cycles.len());
        if from >= to {
            return false;
        }
        // Cycles of one run share a sum, so only run changes can rise.
        let mut run = from.checked_sub(1).map(|c| self.cycles[c]);
        let mut prev = run.map_or(0, |r| self.runs[r as usize].taint_sum());
        for &r in &self.cycles[from..to] {
            if run == Some(r) {
                continue;
            }
            run = Some(r);
            let s = self.runs[r as usize].taint_sum();
            if s > prev {
                return true;
            }
            prev = s;
        }
        false
    }

    /// The maximum taint sum over the whole log.
    pub fn peak_taint(&self) -> usize {
        self.runs.iter().map(Census::taint_sum).max().unwrap_or(0)
    }

    /// The final cycle's taint sum (0 for an empty log).
    pub fn final_taint(&self) -> usize {
        self.runs.last().map(Census::taint_sum).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn census(counts: &[(Module, usize, usize)]) -> Census {
        let mut c = Census::new();
        for &(m, tainted, total) in counts {
            c.report_counts(m, tainted, total);
        }
        c
    }

    #[test]
    fn report_counts_tainted_registers() {
        let mut c = Census::new();
        c.report(Module::Rob, [0u64, 3, 0, 7]);
        assert_eq!(c.taint_sum(), 2);
        assert_eq!(c.register_count(), 4);
        assert_eq!(c.module_tainted(Module::Rob), Some(2));
        assert_eq!(c.module_tainted(Module::Lsu), None);
    }

    #[test]
    fn taint_sum_spans_modules() {
        let c = census(&[
            (Module::Rob, 2, 10),
            (Module::Lsu, 3, 8),
            (Module::Dcache, 0, 64),
        ]);
        assert_eq!(c.taint_sum(), 5);
        assert_eq!(c.register_count(), 82);
        assert_eq!(c.modules().len(), 3);
    }

    #[test]
    fn log_taint_sums_series() {
        let mut log = TaintLog::new();
        for s in [0usize, 0, 4, 9, 9] {
            log.push(census(&[(Module::Rob, s, 10)]));
        }
        assert_eq!(log.taint_sums(), vec![0, 0, 4, 9, 9]);
        assert_eq!(log.peak_taint(), 9);
        assert_eq!(log.final_taint(), 9);
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn taint_increase_detection() {
        let mut log = TaintLog::new();
        for s in [0usize, 0, 4, 9, 9] {
            log.push(census(&[(Module::Rob, s, 10)]));
        }
        assert!(
            log.taint_increased_in(1, 4),
            "taint rises inside the window"
        );
        assert!(!log.taint_increased_in(4, 5), "flat tail shows no increase");
        assert!(!log.taint_increased_in(4, 4), "empty range");
        assert!(!log.taint_increased_in(10, 20), "out of range");
    }

    #[test]
    fn distinct_points_keep_first_seen_order() {
        let mut log = TaintLog::new();
        for counts in [
            &[(Module::Rob, 0, 8), (Module::Lsu, 2, 8)][..],
            &[(Module::Rob, 1, 8), (Module::Lsu, 2, 8)],
            &[(Module::Rob, 1, 8), (Module::Lsu, 2, 8)],
            &[(Module::Rob, 3, 8), (Module::Lsu, 0, 8)],
            &[(Module::Lsu, 1, 8)],
            &[(Module::Rob, 1, 8), (Module::Lsu, 2, 8)],
        ] {
            log.push(census(counts));
        }
        let pt = |module, index| CoveragePoint { module, index };
        assert_eq!(
            log.distinct_points(),
            vec![
                pt(Module::Lsu, 2),
                pt(Module::Rob, 1),
                pt(Module::Rob, 3),
                pt(Module::Lsu, 1)
            ]
        );
        assert!(TaintLog::new().distinct_points().is_empty());
    }

    #[test]
    fn repeat_last_equals_pushing_the_last_census_again() {
        let (mut pushed, mut repeated) = (TaintLog::new(), TaintLog::new());
        for s in [0usize, 4, 4, 4, 9] {
            let c = census(&[(Module::Rob, s, 10)]);
            pushed.push_ref(&c);
            match repeated.cycle(repeated.len().wrapping_sub(1)) {
                Some(last) if *last == c => repeated.repeat_last(),
                _ => repeated.push_ref(&c),
            }
        }
        assert_eq!(repeated, pushed);
        assert_eq!(
            repeated.runs().map(|(n, _)| n).collect::<Vec<_>>(),
            [1, 3, 1]
        );
        let mut cleared = repeated.clone();
        cleared.clear();
        assert_eq!(cleared, TaintLog::new());
        assert_eq!(repeated.empty_like(), TaintLog::new());
    }

    #[test]
    fn empty_log_is_sane() {
        let log = TaintLog::new();
        assert!(log.is_empty());
        assert_eq!(log.peak_taint(), 0);
        assert_eq!(log.final_taint(), 0);
        assert!(log.cycle(0).is_none());
    }
}
