//! Fleet gossip acceptance properties (the `crates/fleet` + core gossip
//! contract):
//!
//! * **Exact union** — for a 2-shard fleet gossiping over the in-process
//!   bus, the union of the two final coverage matrices equals the union
//!   of every point either shard discovered through a commit
//!   (`coverage_gained`): gossip moves points between shards but never
//!   invents or loses one.
//! * **Boundary-exact imports** — every `peer_delta_imported` /
//!   `seed_imported` event fires at a round boundary (its `boundary`
//!   equals the committed-slot count at that moment, a multiple of the
//!   gossip cadence in slots) and never inside a round; exports carry
//!   disjoint deltas drawn only from the shard's own discoveries.
//! * **Exact finish summary** — an import at the final round boundary
//!   counts in `campaign_finished.coverage_points` and the text report's
//!   "exact union" line, although no slot commits after it.
//! * **Zero-peer identity** — a campaign gossiping through a
//!   [`NullLink`] emits byte-for-byte the event stream (and final
//!   report) of a campaign with no gossip configured, across random
//!   geometries (property test).

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use dejavuzz::backend::BackendSpec;
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::gossip::{shared_link, GossipFrame, GossipLink, NullLink};
use dejavuzz::observer::CampaignObserver;
use dejavuzz_fleet::gossip::mesh;
use dejavuzz_fleet::transport::{CampaignEvent, ChannelObserver};
use dejavuzz_ift::{CoveragePoint, Module};
use dejavuzz_uarch::boom_small;
use proptest::prelude::*;

fn base(seed: u64) -> CampaignBuilder {
    CampaignBuilder::new()
        .backend(BackendSpec::behavioural(boom_small()))
        .seed(seed)
}

/// Runs a campaign collecting its full owned event stream.
fn run_collecting(
    builder: CampaignBuilder,
    iterations: usize,
) -> (dejavuzz::ExecutorReport, Vec<CampaignEvent>) {
    let (observer, events) = ChannelObserver::channel(4096);
    let mut observers: Vec<Box<dyn CampaignObserver>> = vec![Box::new(observer)];
    let (report, _) = builder
        .build()
        .expect("valid configuration")
        .run_observed(iterations, &mut observers);
    drop(observers);
    (report, events.iter().collect())
}

fn gained_points(events: &[CampaignEvent]) -> HashSet<CoveragePoint> {
    events
        .iter()
        .filter_map(|e| match e {
            CampaignEvent::CoverageGained { points, .. } => Some(points.iter().copied()),
            _ => None,
        })
        .flatten()
        .collect()
}

#[test]
fn two_gossiping_shards_cover_the_exact_fleet_union() {
    let links = mesh(2);
    let mut handles = Vec::new();
    for (shard, link) in links.into_iter().enumerate() {
        let builder = base(100 + shard as u64)
            .workers(2)
            .shard_id(shard as u32)
            .gossip_every(1)
            .gossip(link);
        handles.push(std::thread::spawn(move || run_collecting(builder, 32)));
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Every point in either final matrix was discovered by a commit
    // somewhere in the fleet, and every discovered point is in the
    // fleet union: coverage neither appears from nowhere nor vanishes.
    let mut fleet_union: HashSet<CoveragePoint> = HashSet::new();
    let mut fleet_gained: HashSet<CoveragePoint> = HashSet::new();
    for (report, events) in &results {
        fleet_union.extend(report.coverage.iter().copied());
        fleet_gained.extend(gained_points(events));
        // The coverage curve records commits only, so a final-boundary
        // import can grow the matrix past it; the last total_points any
        // event reported (commit *or* import) is the matrix count.
        let last_total = events
            .iter()
            .rev()
            .find_map(|e| match e {
                CampaignEvent::SlotCommitted(ev) => Some(ev.total_points),
                CampaignEvent::PeerDeltaImported(ev) => Some(ev.total_points),
                _ => None,
            })
            .expect("the stream carries totals");
        assert_eq!(
            report.coverage.points(),
            last_total,
            "every point in the final matrix is accounted for by an event"
        );
    }
    assert_eq!(
        fleet_union, fleet_gained,
        "the fleet union is exactly the union of committed discoveries"
    );

    // The exchange actually happened, and each import's accounting is
    // internally consistent (fresh <= carried, every import is a peer's).
    for (shard, (_, events)) in results.iter().enumerate() {
        let imports: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::PeerDeltaImported(ev) => Some(*ev),
                _ => None,
            })
            .collect();
        assert!(
            !imports.is_empty(),
            "shard {shard} imported at least one peer delta"
        );
        for ev in imports {
            assert_ne!(ev.from_shard, shard as u32, "no self-imports");
            assert!(ev.fresh_points <= ev.points);
        }
    }
}

/// A link that delivers one preloaded peer frame per drain and records
/// everything published through it.
struct ScriptedLink {
    pending: Vec<GossipFrame>,
    published: Arc<Mutex<Vec<GossipFrame>>>,
}

impl GossipLink for ScriptedLink {
    fn publish(&mut self, frame: &GossipFrame) {
        self.published.lock().unwrap().push(frame.clone());
    }

    fn drain(&mut self) -> Vec<GossipFrame> {
        if self.pending.is_empty() {
            Vec::new()
        } else {
            vec![self.pending.remove(0)]
        }
    }
}

#[test]
fn imports_fire_exactly_at_round_boundaries() {
    const WORKERS: usize = 2;
    const BATCH: usize = 4;
    const EVERY: usize = 2;
    const TOTAL: usize = 32;
    let peer_points: Vec<CoveragePoint> = (1..=6)
        .map(|index| CoveragePoint {
            module: Module::Top,
            index,
        })
        .collect();
    let frames: Vec<GossipFrame> = peer_points
        .chunks(3)
        .enumerate()
        .map(|(i, chunk)| GossipFrame {
            shard: 99,
            iterations: 10 * (i + 1),
            delta: chunk.to_vec(),
            favoured: Vec::new(),
        })
        .collect();
    let published = Arc::new(Mutex::new(Vec::new()));
    let link = ScriptedLink {
        pending: frames,
        published: Arc::clone(&published),
    };

    let (report, events) = run_collecting(
        base(0xF1EE7)
            .workers(WORKERS)
            .batch(BATCH)
            .gossip_every(EVERY)
            .gossip(shared_link(link)),
        TOTAL,
    );

    // Walk the stream: imports are legal only between the last commit of
    // a gossip-boundary round and the next round's start.
    let round_slots = WORKERS * BATCH;
    let mut committed = 0usize;
    let mut saw_import = false;
    let mut imports = 0;
    for ev in &events {
        match ev {
            CampaignEvent::SlotCommitted(_) => {
                assert!(
                    !saw_import,
                    "a slot committed after an import without a round_started between"
                );
                committed += 1;
            }
            CampaignEvent::RoundStarted(_) => saw_import = false,
            CampaignEvent::PeerDeltaImported(e) => {
                saw_import = true;
                imports += 1;
                assert_eq!(
                    e.boundary, committed,
                    "the import's boundary is the committed-slot count at that moment"
                );
                assert_eq!(
                    e.boundary % (round_slots * EVERY),
                    0,
                    "imports land only at gossip-cadence round boundaries"
                );
                assert_eq!(e.from_shard, 99);
            }
            _ => {}
        }
    }
    assert_eq!(imports, 2, "both scripted frames were imported");
    for p in &peer_points {
        assert!(
            report.coverage.contains_point(p),
            "imported point {p:?} reached the final union"
        );
    }

    // Exports: disjoint deltas, drawn from the shard's own discoveries
    // only (imported peer points are echo-suppressed).
    let own = gained_points(&events);
    let published = published.lock().unwrap();
    assert!(!published.is_empty(), "the shard exported frames");
    let mut exported: HashSet<CoveragePoint> = HashSet::new();
    for frame in published.iter() {
        assert_eq!(frame.shard, 0, "exports carry the configured shard id");
        for p in &frame.delta {
            assert!(exported.insert(*p), "export deltas never overlap");
            assert!(own.contains(p), "exports carry only own discoveries");
            assert!(
                !peer_points.contains(p),
                "imported peer points are never re-exported"
            );
        }
        assert!(
            frame.favoured.len() <= dejavuzz::gossip::FAVOURED_PER_FRAME,
            "favoured exports are capped"
        );
    }
}

/// A write sink several owners can read back after the run.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A peer point imported at the *last* round boundary raises the union
/// without committing a slot, so the coverage curve ends one point
/// short. The finish summary's `coverage_points` and the text report's
/// "exact union" line must still print the union.
#[test]
fn final_boundary_import_counts_in_the_finish_summary() {
    let frame = |delta: Vec<CoveragePoint>| GossipFrame {
        shard: 99,
        iterations: 8,
        delta,
        favoured: Vec::new(),
    };
    let late = CoveragePoint {
        module: Module::Top,
        index: 1,
    };
    let link = ScriptedLink {
        // 2 workers x batch 4 over 16 iterations: two boundaries, and
        // only the second (final) one delivers a point.
        pending: vec![frame(Vec::new()), frame(vec![late])],
        published: Arc::default(),
    };
    let (observer, events) = ChannelObserver::channel(4096);
    let text = Shared::default();
    let mut observers: Vec<Box<dyn CampaignObserver>> = vec![
        Box::new(observer),
        Box::new(dejavuzz::observer::TextObserver::new(text.clone())),
    ];
    let (report, _) = base(0x1A7E)
        .workers(2)
        .batch(4)
        .gossip_every(1)
        .gossip(shared_link(link))
        .build()
        .expect("valid configuration")
        .run_observed(16, &mut observers);
    drop(observers);
    let events: Vec<CampaignEvent> = events.iter().collect();

    let union = report.coverage.points();
    let last_import = events
        .iter()
        .rev()
        .find_map(|e| match e {
            CampaignEvent::PeerDeltaImported(ev) => Some(*ev),
            _ => None,
        })
        .expect("the final boundary imported");
    assert_eq!((last_import.boundary, last_import.fresh_points), (16, 1));
    assert_eq!(
        report.stats.coverage() + 1,
        union,
        "the curve misses the import"
    );

    let finish = events.last().expect("a finish event").to_json();
    assert!(
        finish.contains(&format!("\"coverage_points\":{union},")),
        "finish summary: {finish}"
    );
    let text = String::from_utf8(text.0.lock().unwrap().clone()).unwrap();
    assert!(
        text.contains(&format!("coverage points:  {union} (exact union)\n")),
        "text report: {text}"
    );
}

/// Strips wall-clock-free event streams down to comparable form (they
/// already are — `CampaignEvent` carries no clock — so this is just the
/// collected stream).
fn null_link_vs_plain(seed: u64, workers: usize, every: usize, iterations: usize) {
    let plain = run_collecting(base(seed).workers(workers), iterations);
    let nulled = run_collecting(
        base(seed)
            .workers(workers)
            .gossip_every(every)
            .gossip(shared_link(NullLink)),
        iterations,
    );
    assert_eq!(
        plain.1, nulled.1,
        "seed {seed}, {workers} workers, every {every}: event streams must be identical"
    );
    assert_eq!(plain.0.stats, nulled.0.stats, "reports must be identical");
    assert_eq!(plain.0.coverage, nulled.0.coverage);
}

#[test]
fn null_link_gossip_is_identical_to_no_gossip() {
    null_link_vs_plain(0xD15C0, 2, 1, 24);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The zero-peer identity holds across geometries: a silent link at
    /// any cadence never perturbs a single event.
    #[test]
    fn null_link_identity_holds_for_any_geometry(
        seed in 0u64..1024,
        workers in 1usize..3,
        every in 1usize..4,
    ) {
        null_link_vs_plain(seed, workers, every, 8 * workers);
    }
}
