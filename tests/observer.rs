//! Observer-stream determinism: the acceptance properties of the
//! `CampaignObserver` event stream.
//!
//! * For a fixed `(seed, workers)` the full event sequence —
//!   kinds *and* payloads — is identical run over run, for every worker
//!   count 1–4 (thread timing must never leak into events).
//! * Across a halt/resume boundary the streams concatenate: the halted
//!   run's events followed by the resumed run's events are exactly the
//!   uninterrupted run's events (`campaign_finished` aside, which fires
//!   once per run by design).
//! * The JSON-lines telemetry rendering is byte-deterministic and every
//!   line is well-formed JSON.

use std::sync::{Arc, Mutex};

use dejavuzz::backend::BackendSpec;
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::observer::{
    BugFound, CampaignFinished, CampaignObserver, CoverageGained, JsonLinesObserver, RoundStarted,
    SlotCommitted, SnapshotWritten,
};
use dejavuzz_ift::CoveragePoint;
use dejavuzz_uarch::boom_small;

/// An owned mirror of every event payload (borrowed payloads copied
/// out), so whole streams compare with `==`. Wall-clock is excluded on
/// purpose: `CampaignFinished::elapsed` is the one nondeterministic
/// field of the stream.
#[derive(Clone, Debug, PartialEq)]
enum Event {
    Round(RoundStarted),
    Slot(SlotCommitted),
    Coverage {
        slot: usize,
        points: Vec<CoveragePoint>,
        total_points: usize,
    },
    Bug(BugFound),
    Snapshot {
        iterations: usize,
        periodic: bool,
    },
    Finished {
        iterations: usize,
        coverage: usize,
        bugs: usize,
        corpus_retained: usize,
        corpus_evicted: usize,
    },
}

/// Records the stream through a shared handle (the observer box moves
/// into the run; the handle stays with the test).
#[derive(Clone, Default)]
struct Recorder(Arc<Mutex<Vec<Event>>>);

impl Recorder {
    fn events(&self) -> Vec<Event> {
        self.0.lock().unwrap().clone()
    }
}

impl CampaignObserver for Recorder {
    fn round_started(&mut self, ev: &RoundStarted) {
        self.0.lock().unwrap().push(Event::Round(*ev));
    }
    fn slot_committed(&mut self, ev: &SlotCommitted) {
        self.0.lock().unwrap().push(Event::Slot(ev.clone()));
    }
    fn coverage_gained(&mut self, ev: &CoverageGained<'_>) {
        self.0.lock().unwrap().push(Event::Coverage {
            slot: ev.slot,
            points: ev.points.to_vec(),
            total_points: ev.total_points,
        });
    }
    fn bug_found(&mut self, ev: &BugFound) {
        self.0.lock().unwrap().push(Event::Bug(ev.clone()));
    }
    fn snapshot_written(&mut self, ev: &SnapshotWritten<'_>) {
        self.0.lock().unwrap().push(Event::Snapshot {
            iterations: ev.iterations,
            periodic: ev.periodic,
        });
    }
    fn campaign_finished(&mut self, ev: &CampaignFinished<'_>) {
        self.0.lock().unwrap().push(Event::Finished {
            iterations: ev.report.stats.iterations,
            coverage: ev.report.stats.coverage(),
            bugs: ev.report.stats.bugs.len(),
            corpus_retained: ev.report.corpus_retained,
            corpus_evicted: ev.report.corpus_evicted,
        });
    }
}

fn campaign(workers: usize, seed: u64) -> CampaignBuilder {
    CampaignBuilder::new()
        .backend(BackendSpec::behavioural(boom_small()))
        .workers(workers)
        .seed(seed)
}

fn record(builder: CampaignBuilder, iterations: usize) -> Vec<Event> {
    let recorder = Recorder::default();
    let mut observers: Vec<Box<dyn CampaignObserver>> = vec![Box::new(recorder.clone())];
    builder
        .build()
        .unwrap()
        .run_observed(iterations, &mut observers);
    recorder.events()
}

/// The headline property: the full event sequence (kinds + payloads) is
/// identical across repeated runs for worker counts 1–4 under the
/// built-in scheduler — events fire on the orchestrator's deterministic
/// commit path, so claim racing and thread timing cannot reach them.
#[test]
fn event_stream_is_deterministic_per_seed_and_workers() {
    for workers in 1..=4 {
        let a = record(campaign(workers, 0x0B5E), 16);
        let b = record(campaign(workers, 0x0B5E), 16);
        assert_eq!(a, b, "{workers} workers: streams must be identical");
        assert!(
            a.iter().any(|e| matches!(e, Event::Slot(_))),
            "slots were committed"
        );
        assert!(
            a.iter().any(|e| matches!(e, Event::Coverage { .. })),
            "coverage was gained"
        );
        assert!(
            matches!(a.last(), Some(Event::Finished { .. })),
            "the stream ends with campaign_finished"
        );
    }
}

/// Same seed, different worker counts: the streams must *differ* (the
/// pool geometry is part of the replay identity) — determinism is per
/// `(seed, workers)`, not magic seed-only reproducibility.
#[test]
fn event_stream_depends_on_worker_count() {
    let one = record(campaign(1, 0x0B5E), 16);
    let four = record(campaign(4, 0x0B5E), 16);
    assert_ne!(one, four);
}

/// Halt/resume: the halted stream plus the resumed stream equals the
/// uninterrupted stream (minus the per-run `campaign_finished`), and the
/// resumed run's final event equals the uninterrupted one's, through the
/// on-disk wire format.
#[test]
fn event_stream_concatenates_across_a_halt_resume_boundary() {
    const TOTAL: usize = 24;
    let not_finished = |e: &Event| !matches!(e, Event::Finished { .. });
    let base = campaign(2, 0xCAFE);
    let full = record(base.clone(), TOTAL);

    let halted_rec = Recorder::default();
    let mut observers: Vec<Box<dyn CampaignObserver>> = vec![Box::new(halted_rec.clone())];
    let (partial, snap) = base
        .clone()
        .halt_after(9)
        .build()
        .unwrap()
        .run_observed(TOTAL, &mut observers);
    assert!(partial.stats.iterations < TOTAL, "the halt must interrupt");
    let snap = dejavuzz::snapshot::CampaignSnapshot::from_bytes(&snap.to_bytes()).unwrap();

    let resumed_rec = Recorder::default();
    let mut observers: Vec<Box<dyn CampaignObserver>> = vec![Box::new(resumed_rec.clone())];
    base.resume(snap)
        .build()
        .unwrap()
        .run_observed(TOTAL, &mut observers);

    let mut spliced: Vec<Event> = halted_rec
        .events()
        .into_iter()
        .filter(not_finished)
        .collect();
    spliced.extend(
        resumed_rec
            .events()
            .iter()
            .filter(|e| not_finished(e))
            .cloned(),
    );
    let full_body: Vec<Event> = full.iter().filter(|e| not_finished(e)).cloned().collect();
    assert_eq!(
        spliced, full_body,
        "halted + resumed events splice into the uninterrupted stream"
    );
    assert_eq!(
        resumed_rec.events().last(),
        full.last(),
        "the resumed finale equals the uninterrupted one"
    );
}

/// A permissive-enough JSON well-formedness check (no serde in the build
/// environment): balanced braces/brackets outside strings, valid string
/// escapes, non-empty.
fn assert_wellformed_json(line: &str) {
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    assert!(line.starts_with('{'), "not an object: {line}");
    for c in line.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced close in {line}");
    }
    assert!(!in_string, "unterminated string in {line}");
    assert_eq!(depth, 0, "unbalanced braces in {line}");
}

/// The JSON-lines telemetry of `builder`'s campaign over `iterations`.
fn json_lines(builder: CampaignBuilder, iterations: usize) -> String {
    // The observer owns its sink, so capture bytes through a shared Vec.
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
    let shared = Shared::default();
    let mut observers: Vec<Box<dyn CampaignObserver>> =
        vec![Box::new(JsonLinesObserver::new(shared.clone()))];
    builder
        .build()
        .unwrap()
        .run_observed(iterations, &mut observers);
    let bytes = shared.0.lock().unwrap().clone();
    String::from_utf8(bytes).expect("telemetry is UTF-8")
}

/// The event kind a JSON-lines telemetry line leads with.
fn kind(line: &str) -> &str {
    line.strip_prefix("{\"event\":\"")
        .and_then(|r| r.split('"').next())
        .expect("every line leads with its event kind")
}

/// The `--telemetry json` contract: one JSON object per line, every line
/// well-formed, and the rendered bytes deterministic per
/// `(seed, workers)`.
#[test]
fn json_lines_telemetry_is_wellformed_and_byte_deterministic() {
    let a = json_lines(campaign(2, 7), 12);
    let b = json_lines(campaign(2, 7), 12);
    assert_eq!(a, b, "telemetry bytes are deterministic");
    assert!(!a.is_empty());
    let mut kinds = std::collections::BTreeSet::new();
    for line in a.lines() {
        assert_wellformed_json(line);
        kinds.insert(kind(line).to_string());
    }
    for expected in [
        "round_started",
        "slot_committed",
        "coverage_gained",
        "campaign_finished",
    ] {
        assert!(kinds.contains(expected), "missing {expected} in {kinds:?}");
    }
    assert!(
        a.lines()
            .last()
            .unwrap()
            .starts_with("{\"event\":\"campaign_finished\""),
        "the stream ends with the finale"
    );
}

/// The `--telemetry json` bytes are pinned, not only compared with
/// themselves: the stream of a campaign that finds bugs and writes
/// periodic checkpoints hashes to a recorded digest, with the checkpoint
/// path (a per-process temp file) replaced by a placeholder first. A
/// serialiser change that moves one byte of any event kind fails here.
#[test]
fn json_lines_telemetry_bytes_are_pinned() {
    let path = std::env::temp_dir().join(format!(
        "dejavuzz-observer-pinned-{}.snap",
        std::process::id()
    ));
    let builder = campaign(2, 7).snapshot_path(&path).snapshot_every(1);
    let text = json_lines(builder, 24);
    std::fs::remove_file(&path).unwrap();
    let text = text.replace(&path.display().to_string(), "<snapshot>");
    for expected in ["bug_found", "snapshot_written", "coverage_gained"] {
        assert!(
            text.lines().any(|l| kind(l) == expected),
            "the pinned stream carries {expected}"
        );
    }
    assert!(text.contains("\"path\":\"<snapshot>\",\"iterations\":8,\"periodic\":true"));
    assert_eq!(text.lines().count(), 67, "line count");
    assert_eq!(
        dejavuzz_persist::frame::fnv1a64(text.as_bytes()),
        0x86ef_f875_dfa6_8139,
        "telemetry digest"
    );
}

/// A periodic checkpoint lands while the next round runs, but its event
/// keeps its place: in a snapshotting campaign's JSON telemetry,
/// barriered and pipelined, each periodic `snapshot_written` directly
/// follows the commit of its boundary's last slot, so it precedes the
/// `round_started` of the round shipped at that boundary.
#[test]
fn snapshot_written_precedes_the_next_round_started() {
    // 2 workers x batch 4 = 8 slots per round; three rounds.
    const TOTAL: usize = 24;
    for pipelined in [false, true] {
        let path = std::env::temp_dir().join(format!(
            "dejavuzz-observer-order-{pipelined}-{}.snap",
            std::process::id()
        ));
        let builder = campaign(2, 7)
            .pipelined(pipelined)
            .snapshot_path(&path)
            .snapshot_every(1);
        let text = json_lines(builder, TOTAL);
        std::fs::remove_file(&path).unwrap();
        let order: Vec<&str> = text
            .lines()
            .filter(|l| !l.contains("\"periodic\":false"))
            .map(kind)
            .filter(|k| ["round_started", "slot_committed", "snapshot_written"].contains(k))
            .collect();
        let (mut periodic, mut then_round) = (0, 0);
        for (i, k) in order.iter().enumerate() {
            if *k != "snapshot_written" {
                continue;
            }
            periodic += 1;
            assert_eq!(
                order[i - 1],
                "slot_committed",
                "pipelined {pipelined}: {order:?}"
            );
            then_round += usize::from(order.get(i + 1) == Some(&"round_started"));
        }
        assert_eq!(periodic, TOTAL / 8, "pipelined {pipelined}: one per round");
        assert!(then_round > 0, "pipelined {pipelined}: {order:?}");
    }
}
