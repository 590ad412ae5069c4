//! Per-cycle taint observation: the census (who is tainted, per module) and
//! the taint log (Figure 6's "taint sum over cycles").

use crate::coverage::CoveragePoint;

/// Tainted-register statistics for one hardware module in one cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleCensus {
    /// Module instance name (e.g. `"rob"`, `"dcache"`, `"ras"`).
    pub module: &'static str,
    /// Number of registers in the module with at least one tainted bit.
    pub tainted: usize,
    /// Total number of registers the module reported.
    pub total: usize,
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
    pub fn report(&mut self, module: &'static str, taints: impl IntoIterator<Item = u64>) {
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

    /// Reports a module with precomputed counts.
    pub fn report_counts(&mut self, module: &'static str, tainted: usize, total: usize) {
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
            .map(|m| CoveragePoint {
                module: m.module,
                index: m.tainted,
            })
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
    pub fn module_tainted(&self, module: &str) -> Option<usize> {
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
#[derive(Clone, Debug, Default)]
pub struct TaintLog {
    cycles: Vec<Census>,
}

impl TaintLog {
    /// An empty log.
    pub fn new() -> Self {
        TaintLog::default()
    }

    /// Appends the census for the next cycle.
    pub fn push(&mut self, census: Census) {
        self.cycles.push(census);
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
        self.cycles.get(c)
    }

    /// Iterates over (cycle, census).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Census)> {
        self.cycles.iter().enumerate()
    }

    /// Every distinct coverage point of the log, in the order a cycle-by-
    /// cycle fold first meets it. Folding these through
    /// [`TaintCoverage::observe_points`] has exactly the effect of folding
    /// the whole log, at the cost of its distinct points: a diffIFT log
    /// runs to hundreds of cycles but holds a handful of distinct points.
    ///
    /// A module reporting the same count as it did at the same position
    /// the cycle before cannot be a first occurrence, so only changed
    /// modules are looked up among the points found so far.
    ///
    /// [`TaintCoverage::observe_points`]: crate::coverage::TaintCoverage::observe_points
    pub fn distinct_points(&self) -> Vec<CoveragePoint> {
        let mut points: Vec<CoveragePoint> = Vec::new();
        let mut prev: &[ModuleCensus] = &[];
        for census in &self.cycles {
            for (i, m) in census.modules.iter().enumerate() {
                let unchanged = prev
                    .get(i)
                    .is_some_and(|p| p.tainted == m.tainted && p.module == m.module);
                if m.tainted == 0 || unchanged {
                    continue;
                }
                let point = CoveragePoint {
                    module: m.module,
                    index: m.tainted,
                };
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
        self.cycles.iter().map(Census::taint_sum).collect()
    }

    /// Whether the taint sum strictly increases anywhere inside
    /// `[from, to)` — Phase 2's "if taints increase, sensitive data has been
    /// successfully propagated" check.
    pub fn taint_increased_in(&self, from: usize, to: usize) -> bool {
        let to = to.min(self.cycles.len());
        if from >= to {
            return false;
        }
        let mut prev = if from == 0 {
            0
        } else {
            self.cycles[from - 1].taint_sum()
        };
        for c in &self.cycles[from..to] {
            let s = c.taint_sum();
            if s > prev {
                return true;
            }
            prev = s;
        }
        false
    }

    /// The maximum taint sum over the whole log.
    pub fn peak_taint(&self) -> usize {
        self.cycles.iter().map(Census::taint_sum).max().unwrap_or(0)
    }

    /// The final cycle's taint sum (0 for an empty log).
    pub fn final_taint(&self) -> usize {
        self.cycles.last().map(Census::taint_sum).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn census(counts: &[(&'static str, usize, usize)]) -> Census {
        let mut c = Census::new();
        for &(m, tainted, total) in counts {
            c.report_counts(m, tainted, total);
        }
        c
    }

    #[test]
    fn report_counts_tainted_registers() {
        let mut c = Census::new();
        c.report("rob", [0u64, 3, 0, 7]);
        assert_eq!(c.taint_sum(), 2);
        assert_eq!(c.register_count(), 4);
        assert_eq!(c.module_tainted("rob"), Some(2));
        assert_eq!(c.module_tainted("lsu"), None);
    }

    #[test]
    fn taint_sum_spans_modules() {
        let c = census(&[("rob", 2, 10), ("lsu", 3, 8), ("dcache", 0, 64)]);
        assert_eq!(c.taint_sum(), 5);
        assert_eq!(c.register_count(), 82);
        assert_eq!(c.modules().len(), 3);
    }

    #[test]
    fn log_taint_sums_series() {
        let mut log = TaintLog::new();
        for s in [0usize, 0, 4, 9, 9] {
            log.push(census(&[("rob", s, 10)]));
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
            log.push(census(&[("rob", s, 10)]));
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
            &[("rob", 0, 8), ("lsu", 2, 8)][..],
            &[("rob", 1, 8), ("lsu", 2, 8)],
            &[("rob", 1, 8), ("lsu", 2, 8)],
            &[("rob", 3, 8), ("lsu", 0, 8)],
            &[("lsu", 1, 8)],
            &[("rob", 1, 8), ("lsu", 2, 8)],
        ] {
            log.push(census(counts));
        }
        let pt = |module, index| CoveragePoint { module, index };
        assert_eq!(
            log.distinct_points(),
            vec![pt("lsu", 2), pt("rob", 1), pt("rob", 3), pt("lsu", 1)]
        );
        assert!(TaintLog::new().distinct_points().is_empty());
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
