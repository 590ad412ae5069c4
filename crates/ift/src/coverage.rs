//! The taint coverage matrix of §4.2.2.
//!
//! "The taint coverage treats the total number of taints within a local
//! range as an independent coverage point. […] DejaVuzz inserts a new
//! register array bitmap into each RTL module. During each clock cycle,
//! DejaVuzz uses the number of tainted registers within the module as the
//! index and writes 1 to the corresponding slot in the bitmap."
//!
//! Coverage points are therefore `(module, tainted-register-count)` tuples.
//! The matrix has the two properties the paper highlights: it is *local*
//! (module-granular, reflecting propagation across hierarchies) and
//! *position-insensitive* (which slot of a cache data array holds the secret
//! does not matter, only how many slots do).

use std::collections::HashSet;

use crate::census::{Census, TaintLog};
use crate::module::Module;

/// One coverage point: a (module, tainted-count) tuple, in 8 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoveragePoint {
    /// The module.
    pub module: Module,
    /// Number of simultaneously tainted registers observed in the module.
    pub index: u32,
}

/// Anything that can accumulate taint-coverage observations: the plain
/// [`CoverageMatrix`] or the executor's per-slot
/// [`crate::RecordingCoverage`]. Phase 2 of the fuzzing pipeline is
/// generic over this trait, so the same code path runs on a plain matrix
/// or on a campaign slot.
pub trait TaintCoverage {
    /// Observes one coverage point; true if it was new.
    fn observe_point(&mut self, point: CoveragePoint) -> bool;

    /// Observes one cycle's census; returns the number of *new* points.
    fn observe(&mut self, census: &Census) -> usize {
        census.points().filter(|&p| self.observe_point(p)).count()
    }

    /// Observes every cycle of a taint log, returning the new points found.
    fn observe_log(&mut self, log: &TaintLog) -> usize {
        log.iter().map(|(_, c)| self.observe(c)).sum()
    }

    /// Observes a run's distinct points, as [`TaintLog::distinct_points`]
    /// lists them, returning the new points found. Observing a point
    /// again changes nothing, so this has exactly the effect of
    /// [`TaintCoverage::observe_log`] on the log the points came from:
    /// the same count, and the same points newly observed, in the same
    /// order.
    fn observe_points(&mut self, points: &[CoveragePoint]) -> usize {
        points.iter().filter(|&&p| self.observe_point(p)).count()
    }
}

/// The accumulated taint coverage of a fuzzing campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoverageMatrix {
    points: HashSet<CoveragePoint>,
}

impl CoverageMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        CoverageMatrix::default()
    }

    /// Inserts one point directly; true if it was new.
    pub fn insert(&mut self, point: CoveragePoint) -> bool {
        self.points.insert(point)
    }

    /// True if `point` has been set (the `(module, index)` overload is
    /// [`CoverageMatrix::contains`]).
    pub fn contains_point(&self, point: &CoveragePoint) -> bool {
        self.points.contains(point)
    }

    /// Iterates all points in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &CoveragePoint> {
        self.points.iter()
    }

    /// Observes one cycle's census, setting the bitmap slot of every module.
    /// Returns the number of *new* coverage points this census contributed.
    ///
    /// A count of zero tainted registers is not a coverage point: the paper
    /// indexes the bitmap by the number of taints explored, and "no taint"
    /// carries no information about propagation.
    pub fn observe(&mut self, census: &Census) -> usize {
        census.points().filter(|&p| self.points.insert(p)).count()
    }

    /// Observes every cycle of a taint log, returning the new points found.
    pub fn observe_log(&mut self, log: &TaintLog) -> usize {
        log.iter().map(|(_, c)| self.observe(c)).sum()
    }

    /// Number of distinct coverage points collected so far — the y-axis of
    /// Figure 7.
    pub fn points(&self) -> usize {
        self.points.len()
    }

    /// True if the (module, index) slot has been set.
    pub fn contains(&self, module: Module, index: u32) -> bool {
        self.points.contains(&CoveragePoint { module, index })
    }

    /// Merges another matrix into this one (multi-threaded campaigns).
    pub fn merge(&mut self, other: &CoverageMatrix) {
        self.points.extend(other.points.iter().copied());
    }

    /// Removes one point; true if it was present. Used when resuming
    /// mid-pipeline: the snapshot's coverage minus the points committed
    /// after the pending round's dispatch is the view that round ran
    /// against.
    pub fn remove(&mut self, point: &CoveragePoint) -> bool {
        self.points.remove(point)
    }

    /// True if no point has been collected yet. Callers that only need the
    /// count should use [`CoverageMatrix::points`] — both are O(1) against
    /// the backing set, no sort or collect involved.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All points, sorted for deterministic reporting. The vector is
    /// pre-sized to the (cached, O(1)) point count so snapshot encoding
    /// pays one allocation, not a doubling series.
    pub fn sorted_points(&self) -> Vec<CoveragePoint> {
        let mut v = Vec::with_capacity(self.points.len());
        v.extend(self.points.iter().copied());
        v.sort();
        v
    }
}

impl TaintCoverage for CoverageMatrix {
    fn observe_point(&mut self, point: CoveragePoint) -> bool {
        self.insert(point)
    }
}

/// A coverage union with an append-only discovery log: the campaign's
/// committed union, plus "every point it gained since a cursor", in
/// discovery order.
///
/// The executor reads one delta from it: a checkpoint records the points
/// committed since the in-flight round's dispatch (its `view_behind`).
/// A consumer holds a [`CoverageLog::watermark`] cursor and reads
/// [`CoverageLog::delta_since`]; each delta is O(points gained), never
/// O(coverage space).
///
/// Points present at construction ([`CoverageLog::seeded`], the
/// snapshot-resume path) are deliberately *not* in the log: they were
/// committed before the snapshot, so only post-restore discoveries
/// appear in a delta.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoverageLog {
    matrix: CoverageMatrix,
    log: Vec<CoveragePoint>,
}

impl CoverageLog {
    /// An empty union with an empty log.
    pub fn new() -> Self {
        CoverageLog::default()
    }

    /// A log over an already-populated union (snapshot restore): the
    /// seeded points are in the matrix but not in the log, so
    /// `delta_since(0)` yields only what is inserted after this call.
    pub fn seeded(matrix: CoverageMatrix) -> Self {
        CoverageLog {
            matrix,
            log: Vec::new(),
        }
    }

    /// Inserts one point; true (and appended to the log) if it was new.
    pub fn insert(&mut self, point: CoveragePoint) -> bool {
        let fresh = self.matrix.insert(point);
        if fresh {
            self.log.push(point);
        }
        fresh
    }

    /// The current log position. A consumer that stores this and later
    /// calls [`CoverageLog::delta_since`] with it sees exactly the points
    /// inserted in between, in discovery order.
    pub fn watermark(&self) -> usize {
        self.log.len()
    }

    /// Every point inserted since `watermark`, in order.
    pub fn delta_since(&self, watermark: usize) -> &[CoveragePoint] {
        &self.log[watermark.min(self.log.len())..]
    }

    /// The underlying union.
    pub fn matrix(&self) -> &CoverageMatrix {
        &self.matrix
    }

    /// Consumes the log, returning the union.
    pub fn into_matrix(self) -> CoverageMatrix {
        self.matrix
    }

    /// Distinct points in the union (seeded + inserted).
    pub fn points(&self) -> usize {
        self.matrix.points()
    }

    /// True if the union holds `point`.
    pub fn contains_point(&self, point: &CoveragePoint) -> bool {
        self.matrix.contains_point(point)
    }

    /// Iterates the union in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &CoveragePoint> {
        self.matrix.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn census(counts: &[(Module, usize)]) -> Census {
        let mut c = Census::new();
        for &(m, tainted) in counts {
            c.report_counts(m, tainted, 64);
        }
        c
    }

    #[test]
    fn a_point_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<CoveragePoint>(), 8);
    }

    #[test]
    fn observe_inserts_module_count_tuples() {
        let mut m = CoverageMatrix::new();
        assert_eq!(m.observe(&census(&[(Module::Rob, 3), (Module::Lsu, 1)])), 2);
        assert!(m.contains(Module::Rob, 3));
        assert!(m.contains(Module::Lsu, 1));
        assert!(!m.contains(Module::Rob, 1));
        assert_eq!(m.points(), 2);
    }

    #[test]
    fn repeated_observation_adds_nothing() {
        let mut m = CoverageMatrix::new();
        m.observe(&census(&[(Module::Rob, 3)]));
        assert_eq!(m.observe(&census(&[(Module::Rob, 3)])), 0);
        assert_eq!(m.points(), 1);
    }

    #[test]
    fn zero_taint_is_not_coverage() {
        let mut m = CoverageMatrix::new();
        assert_eq!(m.observe(&census(&[(Module::Rob, 0)])), 0);
        assert_eq!(m.points(), 0);
    }

    #[test]
    fn position_insensitivity_is_inherent() {
        // Secret in cache slot 0 vs slot 7 produces the same tainted count,
        // hence the same coverage point — the paper's redundancy filter.
        let mut m = CoverageMatrix::new();
        m.observe(&census(&[(Module::Dcache, 1)])); // slot 0 tainted
        let gain = m.observe(&census(&[(Module::Dcache, 1)])); // slot 7 tainted
        assert_eq!(gain, 0);
    }

    #[test]
    fn merge_unions_points() {
        let mut m1 = CoverageMatrix::new();
        m1.observe(&census(&[(Module::Rob, 3)]));
        let mut m2 = CoverageMatrix::new();
        m2.observe(&census(&[(Module::Rob, 3), (Module::Lsu, 2)]));
        m1.merge(&m2);
        assert_eq!(m1.points(), 2);
    }

    #[test]
    fn observe_log_sums_new_points() {
        use crate::census::TaintLog;
        let mut log = TaintLog::new();
        log.push(census(&[(Module::Rob, 1)]));
        log.push(census(&[(Module::Rob, 2)]));
        log.push(census(&[(Module::Rob, 2)]));
        let mut m = CoverageMatrix::new();
        assert_eq!(m.observe_log(&log), 2);
    }

    #[test]
    fn sorted_points_are_deterministic() {
        let mut m = CoverageMatrix::new();
        m.observe(&census(&[
            (Module::Rob, 3),
            (Module::Lsu, 1),
            (Module::Dcache, 2),
        ]));
        let pts = m.sorted_points();
        assert_eq!(pts.len(), 3);
        assert!(pts.windows(2).all(|w| w[0] <= w[1]));
        // Pin the exact order: lexicographic by module, then by index —
        // the canonical order the snapshot codec relies on.
        assert_eq!(
            pts,
            vec![
                CoveragePoint {
                    module: Module::Dcache,
                    index: 2
                },
                CoveragePoint {
                    module: Module::Lsu,
                    index: 1
                },
                CoveragePoint {
                    module: Module::Rob,
                    index: 3
                },
            ]
        );
    }

    #[test]
    fn remove_round_trips_with_insert() {
        let mut m = CoverageMatrix::new();
        let p = CoveragePoint {
            module: Module::Rob,
            index: 3,
        };
        assert!(!m.remove(&p), "removing an absent point is a no-op");
        assert!(m.insert(p));
        assert!(!m.is_empty());
        assert!(m.remove(&p));
        assert!(!m.remove(&p));
        assert!(m.is_empty());
        assert_eq!(m.points(), 0);
    }

    fn pt(module: Module, index: u32) -> CoveragePoint {
        CoveragePoint { module, index }
    }

    #[test]
    fn coverage_log_deltas_are_ordered_and_watermarked() {
        let mut log = CoverageLog::new();
        assert_eq!(log.watermark(), 0);
        assert!(log.insert(pt(Module::Rob, 3)));
        assert!(log.insert(pt(Module::Lsu, 1)));
        assert!(
            !log.insert(pt(Module::Rob, 3)),
            "duplicates never enter the log"
        );
        let mark = log.watermark();
        assert_eq!(mark, 2);
        assert_eq!(
            log.delta_since(0),
            &[pt(Module::Rob, 3), pt(Module::Lsu, 1)]
        );
        assert!(log.delta_since(mark).is_empty());
        assert!(log.insert(pt(Module::Dcache, 7)));
        assert_eq!(log.delta_since(mark), &[pt(Module::Dcache, 7)]);
        assert_eq!(log.points(), 3);
        assert_eq!(log.matrix().points(), 3);
    }

    #[test]
    fn seeded_points_are_in_the_union_but_not_the_log() {
        let mut base = CoverageMatrix::new();
        base.insert(pt(Module::Rob, 3));
        let mut log = CoverageLog::seeded(base);
        assert_eq!(log.points(), 1);
        assert_eq!(log.watermark(), 0, "seeded points owe no delta");
        assert!(log.delta_since(0).is_empty());
        assert!(
            !log.insert(pt(Module::Rob, 3)),
            "the union still dedups them"
        );
        assert!(log.insert(pt(Module::Lsu, 1)));
        assert_eq!(log.delta_since(0), &[pt(Module::Lsu, 1)]);
    }

    #[test]
    fn delta_since_a_future_watermark_is_empty() {
        let mut log = CoverageLog::new();
        log.insert(pt(Module::Rob, 3));
        assert!(log.delta_since(99).is_empty());
    }
}
