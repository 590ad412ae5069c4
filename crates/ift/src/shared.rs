//! Concurrent taint coverage: the shared, exact union of every worker's
//! observations in a parallel fuzzing campaign, and the sink one campaign
//! slot folds its observations through.
//!
//! The paper's §5 pipeline runs "multiple RTL simulation instances in
//! parallel". A naive parallelisation gives each worker a private
//! [`CoverageMatrix`] and sums the point counts at the end — an *inflated*
//! union whenever two workers discover the same `(module, tainted-count)`
//! tuple. [`SharedCoverage`] is instead one mutex-guarded matrix: workers
//! commit points as they find them, and duplicates deduplicate under the
//! lock. A slot commits only the points its round's view lacks, so the
//! lock is taken about once per slot.

use std::sync::{Mutex, MutexGuard};

use crate::coverage::{CoverageMatrix, CoveragePoint, TaintCoverage};

/// A concurrent, exact coverage union. See the module docs.
#[derive(Debug, Default)]
pub struct SharedCoverage {
    union: Mutex<CoverageMatrix>,
}

impl SharedCoverage {
    /// Commits one point; true if it was globally new. Under contention
    /// another worker may commit the same point first: the *union* is
    /// exact, the attribution of freshness is first-come-first-served.
    pub fn observe_point(&self, point: CoveragePoint) -> bool {
        self.lock().insert(point)
    }

    /// Exact global point count.
    pub fn points(&self) -> usize {
        self.lock().points()
    }

    /// A point-in-time copy of the union.
    pub fn snapshot(&self) -> CoverageMatrix {
        self.lock().clone()
    }

    fn lock(&self) -> MutexGuard<'_, CoverageMatrix> {
        self.union.lock().expect("coverage union poisoned")
    }
}

/// The coverage sink one campaign slot threads through Phase 2.
///
/// It reads the slot's round view (the committed union its round was
/// shipped with, shared by every slot of the round) and owns one seen-set,
/// empty when the slot starts. A point new to the slot is appended to
/// [`RecordingCoverage::observed`]. When the view lacks it too, the point
/// is *fresh*: it is committed to the [`SharedCoverage`] union and
/// appended to [`RecordingCoverage::fresh`]. Freshness is judged against
/// the frozen view, never the live union, so mutation-gain feedback never
/// races on what concurrent slots commit. The orchestrator folds `fresh`
/// into the global union and `observed` into the slot's stream matrix,
/// both in slot order.
pub struct RecordingCoverage<'a> {
    view: &'a CoverageMatrix,
    shared: &'a SharedCoverage,
    seen: CoverageMatrix,
    /// Points new to the slot, in observation order.
    pub observed: Vec<CoveragePoint>,
    /// Points new to the slot that the view lacks, in observation order.
    pub fresh: Vec<CoveragePoint>,
}

impl<'a> RecordingCoverage<'a> {
    /// An empty slot sink over a round view.
    pub fn new(view: &'a CoverageMatrix, shared: &'a SharedCoverage) -> Self {
        RecordingCoverage {
            view,
            shared,
            seen: CoverageMatrix::new(),
            observed: Vec::new(),
            fresh: Vec::new(),
        }
    }
}

impl TaintCoverage for RecordingCoverage<'_> {
    fn observe_point(&mut self, p: CoveragePoint) -> bool {
        if !self.seen.insert(p) {
            return false;
        }
        self.observed.push(p);
        if self.view.contains_point(&p) {
            return false;
        }
        self.shared.observe_point(p);
        self.fresh.push(p);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::Census;
    use crate::module::Module;
    use std::sync::Arc;

    fn census(counts: &[(Module, usize)]) -> Census {
        let mut c = Census::new();
        for &(m, tainted) in counts {
            c.report_counts(m, tainted, 64);
        }
        c
    }

    fn pt(module: Module, index: u32) -> CoveragePoint {
        CoveragePoint { module, index }
    }

    #[test]
    fn observe_point_dedups_and_counts() {
        let s = SharedCoverage::default();
        assert!(s.observe_point(pt(Module::Rob, 3)));
        assert!(!s.observe_point(pt(Module::Rob, 3)));
        assert!(s.observe_point(pt(Module::Rob, 4)));
        assert_eq!(s.points(), 2);
        assert!(s.snapshot().contains(Module::Rob, 3));
        assert!(!s.snapshot().contains(Module::Lsu, 1));
    }

    #[test]
    fn snapshot_equals_committed_set() {
        let s = SharedCoverage::default();
        for p in census(&[(Module::Rob, 3), (Module::Lsu, 1), (Module::Dcache, 7)]).points() {
            s.observe_point(p);
        }
        let snap = s.snapshot();
        assert_eq!(snap.points(), 3);
        assert_eq!(snap.points(), s.points());
        assert!(snap.contains(Module::Dcache, 7));
    }

    #[test]
    fn concurrent_union_is_exact_not_summed() {
        // 8 threads all observe overlapping point sets; the union must be
        // the distinct count, never the inflated per-thread sum.
        let s = Arc::new(SharedCoverage::default());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut mine = 0;
                    for i in 1..=64 {
                        // Every thread shares points 1..=32; points above
                        // are spread over the threads.
                        if i <= 32 || i % 8 == t {
                            s.observe_point(pt(Module::Rob, i));
                            mine += 1;
                        }
                    }
                    mine
                })
            })
            .collect();
        let per_thread_sum: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(s.points(), 64, "exact union of 1..=64");
        assert_eq!(s.snapshot().points(), 64);
        assert!(per_thread_sum > s.points(), "the naive sum would inflate");
    }

    /// Each thread's delta (the points it was first to commit) is disjoint
    /// from every other's, and together they are the union.
    #[test]
    fn concurrent_deltas_cover_the_union_exactly_once() {
        let s = Arc::new(SharedCoverage::default());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    (1..=32)
                        .filter(|i| i % 4 == t || *i <= 16)
                        .map(|i| pt(Module::Rob, i))
                        .filter(|&p| s.observe_point(p))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut deltas: Vec<CoveragePoint> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(
            deltas.len(),
            32,
            "each point is fresh to exactly one thread"
        );
        deltas.sort();
        deltas.dedup();
        assert_eq!(deltas.len(), 32);
        assert_eq!(s.snapshot().sorted_points(), deltas);
    }

    #[test]
    fn recording_coverage_fans_out() {
        let shared = SharedCoverage::default();
        // The round view already holds rob/3, as if an earlier round found
        // it.
        let mut view = CoverageMatrix::new();
        view.insert(pt(Module::Rob, 3));
        let mut rec = RecordingCoverage::new(&view, &shared);
        let fresh = rec.observe(&census(&[(Module::Rob, 3), (Module::Lsu, 1)]));
        assert_eq!(fresh, 1, "rob/3 was already in the view");
        assert_eq!(
            rec.observe(&census(&[(Module::Lsu, 1), (Module::Rob, 3)])),
            0,
            "a point is fresh once per slot"
        );
        assert_eq!(rec.fresh, vec![pt(Module::Lsu, 1)]);
        assert_eq!(
            rec.observed,
            vec![pt(Module::Rob, 3), pt(Module::Lsu, 1)],
            "observed lists every distinct point, in first-seen order"
        );
        assert_eq!(
            shared.points(),
            1,
            "shared commits only view-fresh points (rob/3's discoverer \
             already committed it)"
        );
    }

    /// Resume equivalence leans on this: seeding a fresh [`SharedCoverage`]
    /// from a snapshot matrix must reproduce the committed set exactly —
    /// same point count, same membership, same snapshot back out.
    #[test]
    fn snapshot_restore_round_trip_is_faithful() {
        let original = SharedCoverage::default();
        for c in [
            census(&[(Module::Rob, 3), (Module::Lsu, 1), (Module::Dcache, 7)]),
            census(&[(Module::Rob, 5), (Module::Btb, 2)]),
        ] {
            for p in c.points() {
                original.observe_point(p);
            }
        }
        let snap = original.snapshot();

        let restored = SharedCoverage::default();
        for p in snap.iter() {
            restored.observe_point(*p);
        }

        assert_eq!(restored.points(), original.points());
        assert_eq!(
            restored.snapshot().sorted_points(),
            snap.sorted_points(),
            "snapshot of the restore equals the original snapshot"
        );
        // And restored state dedups exactly like the original would.
        assert!(!restored.observe_point(pt(Module::Rob, 3)));
        assert_eq!(restored.points(), original.points());
    }
}
