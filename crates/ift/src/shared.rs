//! Concurrent taint coverage: the shared, exact union of every worker's
//! observations in a parallel fuzzing campaign.
//!
//! The paper's §5 pipeline runs "multiple RTL simulation instances in
//! parallel". A naive parallelisation gives each worker a private
//! [`CoverageMatrix`] and sums the point counts at the end — an *inflated*
//! union whenever two workers discover the same `(module, tainted-count)`
//! tuple. [`SharedCoverage`] instead stripes the point set over a fixed
//! array of mutex-guarded shards: workers commit observations as they
//! happen, duplicates deduplicate under the shard lock, and a relaxed
//! atomic counter exposes the exact global point count without taking any
//! lock.
//!
//! Striping keys on the hash of the whole `(module, index)` tuple, not the
//! module alone, so a hot module (the RoB appears in nearly every census)
//! still spreads its points across shards instead of serialising every
//! worker behind one mutex.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::census::{Census, TaintLog};
use crate::coverage::{CoverageMatrix, CoveragePoint, CoverageView, TaintCoverage};
use crate::module::Module;

/// Default shard count: enough stripes that 8–16 workers rarely collide,
/// small enough that a snapshot stays cheap.
pub const DEFAULT_SHARDS: usize = 32;

/// A sharded, lock-striped concurrent coverage set. See the module docs.
#[derive(Debug)]
pub struct SharedCoverage {
    shards: Box<[Mutex<CoverageMatrix>]>,
    /// Exact global point count, maintained on successful inserts.
    points: AtomicUsize,
    /// Append-only discovery log, in commit order: the delta-since-
    /// watermark view of the union (see [`SharedCoverage::delta_since`]).
    /// Locked only when a point is globally fresh, so the duplicate-heavy
    /// hot path never touches it.
    log: Mutex<Vec<CoveragePoint>>,
}

impl Default for SharedCoverage {
    fn default() -> Self {
        SharedCoverage::new(DEFAULT_SHARDS)
    }
}

impl SharedCoverage {
    /// A new empty set striped over `shards` locks (rounded up to a power
    /// of two, minimum 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        SharedCoverage {
            shards: (0..n).map(|_| Mutex::new(CoverageMatrix::new())).collect(),
            points: AtomicUsize::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, point: &CoveragePoint) -> usize {
        // FNV-1a over the module name and index: cheap, deterministic, and
        // independent of the HashMap hasher so the stripe distribution is
        // stable across runs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in point.module.name().bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h = (h ^ u64::from(point.index)).wrapping_mul(0x0000_0100_0000_01B3);
        (h as usize) & (self.shards.len() - 1)
    }

    /// Commits one point; true if it was globally new.
    pub fn observe_point(&self, point: CoveragePoint) -> bool {
        let mut shard = self.shards[self.shard_of(&point)]
            .lock()
            .expect("shard poisoned");
        let fresh = shard.insert(point);
        drop(shard);
        if fresh {
            self.log.lock().expect("log poisoned").push(point);
            self.points.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Commits one cycle's census; returns the number of globally new
    /// points this call inserted. Note that under contention another worker
    /// may commit the same point first — the *union* is exact, the
    /// attribution of freshness is first-come-first-served.
    pub fn observe(&self, census: &Census) -> usize {
        census.points().filter(|&p| self.observe_point(p)).count()
    }

    /// Commits every cycle of a taint log.
    pub fn observe_log(&self, log: &TaintLog) -> usize {
        log.iter().map(|(_, c)| self.observe(c)).sum()
    }

    /// Exact global point count (lock-free).
    pub fn points(&self) -> usize {
        self.points.load(Ordering::Relaxed)
    }

    /// True if the `(module, index)` slot has been committed. The probe
    /// hashes straight to its owning shard — one lock, one set probe.
    pub fn contains(&self, module: Module, index: u32) -> bool {
        let p = CoveragePoint { module, index };
        self.shards[self.shard_of(&p)]
            .lock()
            .expect("shard poisoned")
            .contains_point(&p)
    }

    /// The current position of the discovery log. Store it, keep
    /// observing, then ask [`SharedCoverage::delta_since`] for exactly
    /// the points committed in between — the O(delta) sync primitive
    /// shard gossip and live telemetry build on.
    pub fn watermark(&self) -> usize {
        self.log.lock().expect("log poisoned").len()
    }

    /// Every point committed since `watermark`, in commit order. Under
    /// concurrent writers the order reflects who committed first (the
    /// union is exact, attribution is first-come-first-served — same
    /// contract as [`SharedCoverage::observe`]).
    pub fn delta_since(&self, watermark: usize) -> Vec<CoveragePoint> {
        let log = self.log.lock().expect("log poisoned");
        log[watermark.min(log.len())..].to_vec()
    }

    /// A point-in-time union of all shards as a plain matrix.
    pub fn snapshot(&self) -> CoverageMatrix {
        let mut out = CoverageMatrix::new();
        for shard in self.shards.iter() {
            out.merge(&shard.lock().expect("shard poisoned"));
        }
        out
    }
}

/// A shared reference observes concurrently, so the `&mut self` of the
/// trait is trivially satisfiable from many workers at once.
impl TaintCoverage for &SharedCoverage {
    fn observe_point(&mut self, point: CoveragePoint) -> bool {
        SharedCoverage::observe_point(self, point)
    }
}

/// The coverage sink a pipeline worker threads through Phase 2.
///
/// One observation fans out three ways:
///
/// * `view` — the worker's deterministic local union (round-start global
///   state plus its own in-round observations). *Freshness against the
///   view* is what drives mutation-gain feedback, so worker decisions
///   never race on shared state.
/// * `observed` — everything this worker ever saw (the per-worker
///   matrices whose union the orchestrator's exactness invariant is
///   stated over).
/// * `shared` — the live concurrent union.
///
/// Points that are fresh against the view are appended to `recorded`, in
/// observation order, so the orchestrator can replay them into the global
/// matrix deterministically. Points fresh against `observed` are likewise
/// appended to `observed_recorded`: the orchestrator mirrors each worker's
/// lifetime observation matrix from these deltas, which is what lets a
/// campaign snapshot carry exact per-worker state without ever shipping
/// whole matrices over the channel.
/// The view is generic over [`CoverageView`] so a work-stealing slot can
/// plug in a cheap [`crate::OverlayCoverage`] (frozen round-start base +
/// per-slot overlay) where a batch worker keeps its plain long-lived
/// matrix (the default).
pub struct RecordingCoverage<'a, V: CoverageView = CoverageMatrix> {
    /// Worker-local deterministic view.
    pub view: &'a mut V,
    /// Fresh-against-view points, in observation order.
    pub recorded: &'a mut Vec<CoveragePoint>,
    /// Everything observed (exactness accounting).
    pub observed: &'a mut CoverageMatrix,
    /// Fresh-against-`observed` points, in observation order.
    pub observed_recorded: &'a mut Vec<CoveragePoint>,
    /// Live concurrent union.
    pub shared: &'a SharedCoverage,
}

impl<V: CoverageView> TaintCoverage for RecordingCoverage<'_, V> {
    fn observe_point(&mut self, p: CoveragePoint) -> bool {
        if self.observed.insert(p) {
            self.observed_recorded.push(p);
        }
        if !self.view.insert_point(p) {
            return false;
        }
        // Commit to the shared union only on view-freshness: a point
        // already in the view was committed by whichever worker first
        // recorded it (own points on their fresh observation, broadcast
        // points by their discoverer), so the union stays exact while the
        // phase-2 hot loop skips a shard lock round-trip per duplicate
        // point.
        self.shared.observe_point(p);
        self.recorded.push(p);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn census(counts: &[(Module, usize)]) -> Census {
        let mut c = Census::new();
        for &(m, tainted) in counts {
            c.report_counts(m, tainted, 64);
        }
        c
    }

    #[test]
    fn observe_point_dedups_and_counts() {
        let s = SharedCoverage::new(4);
        assert!(s.observe_point(CoveragePoint {
            module: Module::Rob,
            index: 3
        }));
        assert!(!s.observe_point(CoveragePoint {
            module: Module::Rob,
            index: 3
        }));
        assert!(s.observe_point(CoveragePoint {
            module: Module::Rob,
            index: 4
        }));
        assert_eq!(s.points(), 2);
        assert!(s.contains(Module::Rob, 3));
        assert!(!s.contains(Module::Lsu, 1));
    }

    #[test]
    fn snapshot_equals_committed_set() {
        let s = SharedCoverage::new(8);
        s.observe(&census(&[
            (Module::Rob, 3),
            (Module::Lsu, 1),
            (Module::Dcache, 7),
        ]));
        let snap = s.snapshot();
        assert_eq!(snap.points(), 3);
        assert_eq!(snap.points(), s.points());
        assert!(snap.contains(Module::Dcache, 7));
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(SharedCoverage::new(0).shards(), 1);
        assert_eq!(SharedCoverage::new(5).shards(), 8);
        assert_eq!(SharedCoverage::new(32).shards(), 32);
    }

    #[test]
    fn concurrent_union_is_exact_not_summed() {
        // 8 threads all observe overlapping point sets; the union must be
        // the distinct count, never the inflated per-thread sum.
        let s = Arc::new(SharedCoverage::new(8));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut mine = 0;
                    for i in 1..=64 {
                        // Every thread shares points 1..=32; points above
                        // are striped per thread.
                        if i <= 32 || i % 8 == t {
                            s.observe_point(CoveragePoint {
                                module: Module::Rob,
                                index: i,
                            });
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

    #[test]
    fn watermark_deltas_track_commit_order() {
        let s = SharedCoverage::new(4);
        let rob3 = CoveragePoint {
            module: Module::Rob,
            index: 3,
        };
        let lsu1 = CoveragePoint {
            module: Module::Lsu,
            index: 1,
        };
        assert_eq!(s.watermark(), 0);
        s.observe_point(rob3);
        s.observe_point(rob3); // duplicate: no log entry
        let mark = s.watermark();
        assert_eq!(mark, 1);
        assert_eq!(s.delta_since(0), vec![rob3]);
        s.observe_point(lsu1);
        assert_eq!(s.delta_since(mark), vec![lsu1]);
        assert!(s.delta_since(s.watermark()).is_empty());
        assert!(s.delta_since(99).is_empty(), "future watermark is empty");
        assert_eq!(s.watermark(), s.points(), "one log entry per fresh point");
    }

    #[test]
    fn concurrent_deltas_cover_the_union_exactly_once() {
        let s = Arc::new(SharedCoverage::new(8));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 1..=32 {
                        if i % 4 == t || i <= 16 {
                            s.observe_point(CoveragePoint {
                                module: Module::Rob,
                                index: i,
                            });
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let delta = s.delta_since(0);
        assert_eq!(delta.len(), 32, "each fresh point logged exactly once");
        let mut sorted = delta.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 32);
        assert_eq!(s.snapshot().sorted_points(), sorted);
    }

    #[test]
    fn recording_coverage_fans_out() {
        let shared = SharedCoverage::new(4);
        let mut view = CoverageMatrix::new();
        // Pre-populate the view as if another worker had found rob/3.
        view.insert(CoveragePoint {
            module: Module::Rob,
            index: 3,
        });
        let mut observed = CoverageMatrix::new();
        let mut recorded = Vec::new();
        let mut observed_recorded = Vec::new();
        let mut rec = RecordingCoverage {
            view: &mut view,
            recorded: &mut recorded,
            observed: &mut observed,
            observed_recorded: &mut observed_recorded,
            shared: &shared,
        };
        let fresh = rec.observe(&census(&[(Module::Rob, 3), (Module::Lsu, 1)]));
        assert_eq!(fresh, 1, "rob/3 was already in the view");
        assert_eq!(
            recorded,
            vec![CoveragePoint {
                module: Module::Lsu,
                index: 1
            }]
        );
        assert_eq!(observed.points(), 2, "observed tracks everything seen");
        assert_eq!(
            observed_recorded.len(),
            2,
            "both points were observed-fresh — the delta a snapshot mirror replays"
        );
        assert_eq!(
            shared.points(),
            1,
            "shared commits only view-fresh points (rob/3's discoverer \
             already committed it — no duplicate lock traffic)"
        );
    }

    /// Resume equivalence leans on this: seeding a fresh [`SharedCoverage`]
    /// from a snapshot matrix must reproduce the committed set exactly —
    /// same point count, same membership, same snapshot back out.
    #[test]
    fn snapshot_restore_round_trip_is_faithful() {
        let original = SharedCoverage::new(8);
        original.observe(&census(&[
            (Module::Rob, 3),
            (Module::Lsu, 1),
            (Module::Dcache, 7),
        ]));
        original.observe(&census(&[(Module::Rob, 5), (Module::Btb, 2)]));
        let snap = original.snapshot();

        // Restore into a *differently sharded* set: the stripe layout is an
        // implementation detail, the committed set is the contract.
        let restored = SharedCoverage::new(2);
        for p in snap.iter() {
            restored.observe_point(*p);
        }

        assert_eq!(restored.points(), original.points());
        for p in snap.iter() {
            assert!(
                restored.contains(p.module, p.index),
                "{p:?} lost in restore"
            );
        }
        assert_eq!(
            restored.snapshot().sorted_points(),
            snap.sorted_points(),
            "snapshot of the restore equals the original snapshot"
        );
        // And restored state dedups exactly like the original would.
        assert_eq!(restored.observe(&census(&[(Module::Rob, 3)])), 0);
        assert_eq!(restored.points(), original.points());
    }

    #[test]
    fn trait_impl_through_shared_ref() {
        let s = SharedCoverage::new(2);
        let mut sink: &SharedCoverage = &s;
        let n = TaintCoverage::observe(&mut sink, &census(&[(Module::Rob, 2)]));
        assert_eq!(n, 1);
        assert_eq!(s.points(), 1);
    }
}
