//! The `dejavuzz-serve` engine: fleet-wide aggregation and the query /
//! relay socket.
//!
//! [`FleetState`] folds every shard's [`CampaignEvent`] stream into one
//! queryable view: per-shard progress counters, a bounded telemetry
//! ring of recent JSON lines, and the fleet-wide coverage union (built
//! from [`CampaignEvent::CoverageGained`] points — every point any
//! shard ever discovered was fresh *somewhere*, so the union over all
//! shards' gained points is exactly the union `dejavuzz-merge` would
//! compute over their snapshots; cross-shard imports only re-observe
//! points already counted at their source).
//!
//! [`FleetHub`] serves it over a Unix socket with a line protocol:
//!
//! | request              | response                                   |
//! |----------------------|--------------------------------------------|
//! | `status`             | one JSON object, fleet totals              |
//! | `shards`             | one JSON object, per-shard summaries       |
//! | `coverage`           | one JSON object, union vs summed points    |
//! | `metrics`            | Prometheus text exposition, whole fleet    |
//! | `telemetry <shard>`  | the shard's recent JSON event lines        |
//! | `series <shard>`     | the shard's coverage-over-time series      |
//! | `shutdown`           | `{"ok":"shutting down"}`, then the hub exits |
//! | `gossip <shard>`     | switches the connection into relay mode    |
//!
//! `metrics` concatenates the process-global
//! [`dejavuzz_telemetry::global`] registry (every instrument the
//! in-process shards' executors wrote) with fleet-level
//! `dejavuzz_fleet_*` families rendered from [`FleetState`] — the
//! distinct prefix guarantees the two sections can never emit duplicate
//! families. `series <shard>` answers from a fixed-budget
//! [`CoverageSeries`] ring per shard that halves its resolution as the
//! campaign grows (ROADMAP item 5's downsampled telemetry series); its
//! final point is always the shard's exact latest reported coverage.
//!
//! `gossip <shard>` is the handshake
//! [`dejavuzz::gossip::UnixGossipLink::connect`] sends: the connection
//! stops being a query and becomes a frame relay — wire frames from the
//! external peer are republished on the in-process [`Bus`], and bus
//! frames flow back out — so `dejavuzz-fuzz --peers unix:PATH`
//! processes join the served fleet's mesh as equals.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dejavuzz::gossip::{GossipLink, UnixGossipLink};
use dejavuzz_ift::CoverageMatrix;
use dejavuzz_telemetry::{json_string, CoverageSeries};

use crate::gossip::Bus;
use crate::transport::CampaignEvent;

/// Telemetry lines retained per shard (oldest evicted first).
pub const TELEMETRY_RING: usize = 256;

/// Point budget of each per-shard coverage-over-time series: beyond
/// this many kept samples the ring halves its resolution (and keeps
/// halving), so a shard's series costs O(budget) memory for any
/// campaign length.
pub const SERIES_BUDGET: usize = 128;

/// One shard's aggregated progress.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStatus {
    /// Iterations committed so far.
    pub iterations: usize,
    /// The shard's own coverage union (its `total_points`).
    pub points: usize,
    /// Deduplicated bugs the shard reported.
    pub bugs: usize,
    /// Peer coverage deltas imported at round boundaries.
    pub peer_imports: usize,
    /// Peer corpus entries imported at round boundaries.
    pub seed_imports: usize,
    /// The campaign completed.
    pub finished: bool,
}

/// The fleet-wide aggregate: per-shard [`ShardStatus`], per-shard
/// telemetry rings, and the exact union coverage. See the module docs
/// for why the union is built from gained points only.
#[derive(Default)]
pub struct FleetState {
    shards: BTreeMap<u32, ShardStatus>,
    telemetry: BTreeMap<u32, VecDeque<String>>,
    series: BTreeMap<u32, CoverageSeries>,
    union: CoverageMatrix,
}

impl FleetState {
    /// An empty aggregate.
    pub fn new() -> Self {
        FleetState::default()
    }

    /// Pre-registers a shard so `status`/`shards` report it before its
    /// first event arrives.
    pub fn register(&mut self, shard: u32) {
        self.shards.entry(shard).or_default();
        self.telemetry.entry(shard).or_default();
        self.series
            .entry(shard)
            .or_insert_with(|| CoverageSeries::new(SERIES_BUDGET));
    }

    /// Folds one shard event into the aggregate.
    pub fn apply(&mut self, shard: u32, ev: &CampaignEvent) {
        let status = self.shards.entry(shard).or_default();
        match ev {
            CampaignEvent::RoundStarted(_) | CampaignEvent::SnapshotWritten { .. } => {}
            CampaignEvent::SlotCommitted(e) => {
                status.iterations = status.iterations.max(e.slot + 1);
                status.points = e.total_points;
            }
            CampaignEvent::CoverageGained {
                points,
                total_points,
                ..
            } => {
                status.points = *total_points;
                for p in points {
                    self.union.insert(*p);
                }
            }
            CampaignEvent::BugFound(_) => status.bugs += 1,
            CampaignEvent::PeerDeltaImported(e) => {
                status.peer_imports += 1;
                status.points = e.total_points;
            }
            CampaignEvent::SeedImported(_) => status.seed_imports += 1,
            CampaignEvent::CampaignFinished {
                stats,
                coverage_points,
                ..
            } => {
                status.iterations = stats.iterations;
                status.points = *coverage_points;
                status.bugs = stats.bugs.len();
                status.finished = true;
            }
        }
        let points = status.points;
        let ring = self.telemetry.entry(shard).or_default();
        if ring.len() == TELEMETRY_RING {
            ring.pop_front();
        }
        ring.push_back(ev.to_json());
        // Coverage-over-time: every event that reports the shard's total
        // coverage next to a progress coordinate extends the series. The
        // coordinate is committed iterations, which never decreases, so
        // the series stays monotone in x; y is the shard status total
        // updated above, monotone across commits, imports and the finish
        // summary alike.
        let sample = match ev {
            CampaignEvent::SlotCommitted(e) => Some(e.slot as u64 + 1),
            CampaignEvent::PeerDeltaImported(e) => Some(e.boundary as u64),
            CampaignEvent::CampaignFinished { stats, .. } => Some(stats.iterations as u64),
            _ => None,
        };
        if let Some(x) = sample {
            self.series
                .entry(shard)
                .or_insert_with(|| CoverageSeries::new(SERIES_BUDGET))
                .push(x, points as u64);
        }
    }

    /// The fleet-wide coverage union.
    pub fn union(&self) -> &CoverageMatrix {
        &self.union
    }

    /// The per-shard summaries, keyed (and therefore rendered) in shard
    /// order.
    pub fn shards(&self) -> &BTreeMap<u32, ShardStatus> {
        &self.shards
    }

    /// The `status` response: one JSON object of fleet totals.
    pub fn render_status(&self) -> String {
        format!(
            "{{\"shards\":{},\"finished\":{},\"iterations\":{},\"union_points\":{},\"bugs\":{}}}",
            self.shards.len(),
            self.shards.values().filter(|s| s.finished).count(),
            self.shards.values().map(|s| s.iterations).sum::<usize>(),
            self.union.points(),
            self.shards.values().map(|s| s.bugs).sum::<usize>(),
        )
    }

    /// The `shards` response: one JSON object with per-shard summaries.
    pub fn render_shards(&self) -> String {
        let shards: Vec<String> = self
            .shards
            .iter()
            .map(|(id, s)| {
                format!(
                    "{{\"shard\":{id},\"iterations\":{},\"points\":{},\"bugs\":{},\
                     \"peer_imports\":{},\"seed_imports\":{},\"finished\":{}}}",
                    s.iterations, s.points, s.bugs, s.peer_imports, s.seed_imports, s.finished
                )
            })
            .collect();
        format!("{{\"shards\":[{}]}}", shards.join(","))
    }

    /// The `coverage` response: the exact union next to the per-shard
    /// counts it deduplicates (their sum double-counts shared points —
    /// the same distinction `dejavuzz-merge` reports).
    pub fn render_coverage(&self) -> String {
        let per_shard: Vec<String> = self
            .shards
            .iter()
            .map(|(id, s)| format!("{{\"shard\":{id},\"points\":{}}}", s.points))
            .collect();
        format!(
            "{{\"union_points\":{},\"summed_points\":{},\"per_shard\":[{}]}}",
            self.union.points(),
            self.shards.values().map(|s| s.points).sum::<usize>(),
            per_shard.join(",")
        )
    }

    /// The `telemetry <shard>` response: the shard's retained JSON
    /// lines, newest last. An unknown shard gets a structured
    /// `{"error":...}` like every other malformed query — not an empty
    /// response a client cannot tell apart from "registered but quiet".
    pub fn render_telemetry(&self, shard: u32) -> String {
        match self.telemetry.get(&shard) {
            Some(ring) => ring.iter().cloned().collect::<Vec<_>>().join("\n"),
            None => format!(
                "{{\"error\":{}}}",
                json_string(&format!("unknown shard {shard}"))
            ),
        }
    }

    /// The `series <shard>` response: the shard's downsampled
    /// coverage-over-time points as
    /// `{"shard":N,"samples":S,"points":[[iterations,coverage],…]}`
    /// (`samples` is how many raw observations the ring folded). The
    /// final point is the shard's exact latest reported coverage.
    /// Unknown shards get `{"error":...}`, like `telemetry`.
    pub fn render_series(&self, shard: u32) -> String {
        match self.series.get(&shard) {
            Some(series) => format!(
                "{{\"shard\":{shard},\"samples\":{},\"points\":{}}}",
                series.seen(),
                series.render_json_points()
            ),
            None => format!(
                "{{\"error\":{}}}",
                json_string(&format!("unknown shard {shard}"))
            ),
        }
    }

    /// The `metrics` response: Prometheus text exposition for the whole
    /// fleet — the process-global registry (executor, gossip and
    /// transport instruments of every in-process shard) followed by
    /// fleet-level `dejavuzz_fleet_*` families aggregated here from the
    /// shards' event streams, with per-shard samples labelled
    /// `{shard="N"}`. The distinct prefix keeps the two sections from
    /// ever emitting a duplicate family.
    pub fn render_metrics(&self) -> String {
        fn family(out: &mut String, name: &str, help: &str) {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
        }
        let mut out = dejavuzz_telemetry::global().render_prometheus();
        family(&mut out, "dejavuzz_fleet_shards", "Shards known to the hub");
        out.push_str(&format!("dejavuzz_fleet_shards {}\n", self.shards.len()));
        family(
            &mut out,
            "dejavuzz_fleet_union_points",
            "Exact fleet-wide coverage union",
        );
        out.push_str(&format!(
            "dejavuzz_fleet_union_points {}\n",
            self.union.points()
        ));
        family(
            &mut out,
            "dejavuzz_fleet_shard_iterations",
            "Iterations committed per shard",
        );
        for (id, s) in &self.shards {
            out.push_str(&format!(
                "dejavuzz_fleet_shard_iterations{{shard=\"{id}\"}} {}\n",
                s.iterations
            ));
        }
        family(
            &mut out,
            "dejavuzz_fleet_shard_points",
            "Coverage points per shard",
        );
        for (id, s) in &self.shards {
            out.push_str(&format!(
                "dejavuzz_fleet_shard_points{{shard=\"{id}\"}} {}\n",
                s.points
            ));
        }
        family(
            &mut out,
            "dejavuzz_fleet_shard_bugs",
            "Bugs found per shard",
        );
        for (id, s) in &self.shards {
            out.push_str(&format!(
                "dejavuzz_fleet_shard_bugs{{shard=\"{id}\"}} {}\n",
                s.bugs
            ));
        }
        family(
            &mut out,
            "dejavuzz_fleet_shards_finished",
            "Shards whose campaign completed",
        );
        out.push_str(&format!(
            "dejavuzz_fleet_shards_finished {}\n",
            self.shards.values().filter(|s| s.finished).count()
        ));
        out
    }
}

/// The query/relay socket server. Bind with [`FleetHub::bind`], run the
/// accept loop with [`FleetHub::run`] (it returns once a `shutdown`
/// query arrives or the flag from [`FleetHub::shutdown_flag`] is set
/// externally).
pub struct FleetHub {
    listener: UnixListener,
    state: Arc<Mutex<FleetState>>,
    bus: Bus,
    shutdown: Arc<AtomicBool>,
}

impl FleetHub {
    /// Binds the hub socket. A stale socket file from a previous run is
    /// removed first (only if it actually is a socket — a regular file
    /// at the path is an error, not a casualty).
    pub fn bind(path: &Path, state: Arc<Mutex<FleetState>>, bus: Bus) -> io::Result<FleetHub> {
        if let Ok(md) = std::fs::symlink_metadata(path) {
            use std::os::unix::fs::FileTypeExt;
            if md.file_type().is_socket() {
                let _ = std::fs::remove_file(path);
            }
        }
        Ok(FleetHub {
            listener: UnixListener::bind(path)?,
            state,
            bus,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The flag that stops [`FleetHub::run`]; share it to shut the hub
    /// down from outside the socket protocol.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Accepts and serves connections until shutdown. Each connection
    /// gets its own thread: queries answer-and-close, `gossip` relays
    /// run until their peer disconnects (or shutdown).
    pub fn run(&self) {
        if let Err(e) = self.listener.set_nonblocking(true) {
            eprintln!("dejavuzz-serve: cannot poll the hub socket: {e}");
            return;
        }
        while !self.shutdown.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let state = Arc::clone(&self.state);
                    let bus = self.bus.clone();
                    let shutdown = Arc::clone(&self.shutdown);
                    std::thread::spawn(move || handle_connection(stream, state, bus, shutdown));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    eprintln!("dejavuzz-serve: accept failed: {e}");
                    break;
                }
            }
        }
    }
}

/// Reads one `\n`-terminated line byte-by-byte, so no bytes beyond the
/// newline are consumed — the relay handshake precedes binary frames on
/// the same stream, and a buffered reader would swallow their start.
fn read_line_raw(stream: &mut UnixStream) -> io::Result<String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => {
                if line.len() >= 256 {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        "request line over 256 bytes",
                    ));
                }
                line.push(byte[0]);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(String::from_utf8_lossy(&line).into_owned())
}

fn handle_connection(
    mut stream: UnixStream,
    state: Arc<Mutex<FleetState>>,
    bus: Bus,
    shutdown: Arc<AtomicBool>,
) {
    // A client that connects and never writes must not pin this thread
    // forever; relays reset the timeout once the handshake is in.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let line = match read_line_raw(&mut stream) {
        Ok(line) => line,
        Err(_) => return,
    };
    let line = line.trim();
    if let Some(shard) = line.strip_prefix("gossip ") {
        if shard.trim().parse::<u32>().is_ok() {
            let _ = stream.set_read_timeout(None);
            relay(stream, bus, shutdown);
        } else {
            let _ = writeln!(
                stream,
                "{{\"error\":{}}}",
                json_string(&format!("bad gossip handshake {line:?}"))
            );
        }
        return;
    }
    let response = match line {
        "status" => state.lock().expect("fleet state poisoned").render_status(),
        "shards" => state.lock().expect("fleet state poisoned").render_shards(),
        "coverage" => state
            .lock()
            .expect("fleet state poisoned")
            .render_coverage(),
        "metrics" => state.lock().expect("fleet state poisoned").render_metrics(),
        "shutdown" => {
            shutdown.store(true, Ordering::Relaxed);
            "{\"ok\":\"shutting down\"}".to_string()
        }
        _ => match line.split_once(' ') {
            Some(("telemetry", shard)) => match shard.trim().parse::<u32>() {
                Ok(shard) => state
                    .lock()
                    .expect("fleet state poisoned")
                    .render_telemetry(shard),
                Err(_) => format!(
                    "{{\"error\":{}}}",
                    json_string("telemetry needs a shard id")
                ),
            },
            Some(("series", shard)) => match shard.trim().parse::<u32>() {
                Ok(shard) => state
                    .lock()
                    .expect("fleet state poisoned")
                    .render_series(shard),
                Err(_) => format!("{{\"error\":{}}}", json_string("series needs a shard id")),
            },
            _ => format!(
                "{{\"error\":{}}}",
                json_string(&format!(
                    "unknown request {line:?} (expected status|shards|coverage|metrics|\
                     telemetry <shard>|series <shard>|shutdown|gossip <shard>)"
                ))
            ),
        },
    };
    let _ = writeln!(stream, "{response}");
}

/// Bridges one external socket peer onto the in-process bus: frames the
/// peer ships are republished to every bus subscriber, frames any bus
/// subscriber publishes flow back to the peer. Dropping out (peer
/// disconnect, shutdown) unsubscribes the relay's bus link.
fn relay(stream: UnixStream, bus: Bus, shutdown: Arc<AtomicBool>) {
    let mut sock = UnixGossipLink::from_stream(stream);
    let mut bus_link = bus.link();
    while !shutdown.load(Ordering::Relaxed) {
        for frame in sock.drain() {
            bus_link.publish(&frame);
        }
        for frame in bus_link.drain() {
            sock.publish(&frame);
        }
        if sock.is_dead() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavuzz::campaign::CampaignStats;
    use dejavuzz::gossip::GossipFrame;
    use dejavuzz::observer::{PeerDeltaImported, RoundStarted, SlotCommitted};
    use dejavuzz::{AttackType, BugReport, LeakChannel, WindowType};
    use dejavuzz_ift::{CoveragePoint, Module};

    fn pt(module: Module, index: u32) -> CoveragePoint {
        CoveragePoint { module, index }
    }

    /// A finish summary whose coverage curve ends at `curve` and whose
    /// exact union is `coverage`.
    fn finished(iterations: usize, curve: usize, coverage: usize, bugs: usize) -> CampaignEvent {
        let bug = BugReport {
            core: "BOOM".into(),
            attack: AttackType::Spectre,
            window_type: WindowType::BranchMispredict,
            channel: LeakChannel::Encoded {
                module: Module::Dcache,
            },
            iteration: 1,
        };
        CampaignEvent::CampaignFinished {
            stats: CampaignStats {
                iterations,
                coverage_curve: vec![curve],
                bugs: vec![bug; bugs],
                ..CampaignStats::default()
            },
            coverage_points: coverage,
            corpus_retained: 3,
            corpus_evicted: 0,
        }
    }

    fn gained(slot: usize, points: Vec<CoveragePoint>, total: usize) -> CampaignEvent {
        CampaignEvent::CoverageGained {
            slot,
            points,
            total_points: total,
        }
    }

    #[test]
    fn state_builds_the_exact_union_from_gained_points() {
        let mut state = FleetState::new();
        state.register(0);
        state.register(1);
        state.apply(
            0,
            &gained(0, vec![pt(Module::Rob, 1), pt(Module::Rob, 2)], 2),
        );
        state.apply(
            1,
            &gained(0, vec![pt(Module::Rob, 2), pt(Module::Lsu, 1)], 2),
        );
        assert_eq!(state.union().points(), 3, "shared points deduplicate");
        assert_eq!(
            state.render_coverage(),
            "{\"union_points\":3,\"summed_points\":4,\
             \"per_shard\":[{\"shard\":0,\"points\":2},{\"shard\":1,\"points\":2}]}"
        );
    }

    #[test]
    fn state_tracks_progress_imports_and_completion() {
        let mut state = FleetState::new();
        state.register(0);
        state.apply(
            0,
            &CampaignEvent::SlotCommitted(SlotCommitted {
                slot: 3,
                stream: 0,
                window_type: WindowType::ALL[0],
                triggered: false,
                to: 0,
                eto: 0,
                sim_runs: 1,
                final_gain: 0,
                fresh_points: 0,
                total_points: 5,
                error: None,
            }),
        );
        state.apply(
            0,
            &CampaignEvent::PeerDeltaImported(PeerDeltaImported {
                from_shard: 1,
                peer_iterations: 8,
                boundary: 4,
                points: 3,
                fresh_points: 2,
                total_points: 7,
            }),
        );
        let s = &state.shards()[&0];
        assert_eq!((s.iterations, s.points, s.peer_imports), (4, 7, 1));
        assert!(!s.finished);
        state.apply(0, &finished(8, 9, 9, 2));
        let s = &state.shards()[&0];
        assert!(s.finished);
        assert_eq!((s.iterations, s.points, s.bugs), (8, 9, 2));
        assert_eq!(
            state.render_status(),
            "{\"shards\":1,\"finished\":1,\"iterations\":8,\"union_points\":0,\"bugs\":2}"
        );
    }

    /// A gossip import at the *final* round boundary postdates the
    /// coverage curve, so the curve's last value is stale; the shard
    /// total and the series end on the finish summary's exact union.
    #[test]
    fn stale_finish_summary_never_regresses_points_or_series() {
        let mut state = FleetState::new();
        state.register(0);
        state.apply(
            0,
            &CampaignEvent::PeerDeltaImported(PeerDeltaImported {
                from_shard: 1,
                peer_iterations: 8,
                boundary: 4,
                points: 3,
                fresh_points: 2,
                total_points: 7,
            }),
        );
        // The curve ends at 5, before the import; the union is 7.
        state.apply(0, &finished(4, 5, 7, 0));
        assert_eq!(state.shards()[&0].points, 7, "import is not walked back");
        // The summary alone sets the exact union, not the curve's value.
        state.apply(1, &finished(4, 5, 7, 0));
        assert_eq!(
            state.shards()[&1].points,
            7,
            "the exact union, not the curve"
        );
        assert!(
            state.render_series(0).contains("\"points\":[[4,7],[4,7]]"),
            "series ends on the import total: {}",
            state.render_series(0)
        );
    }

    #[test]
    fn telemetry_ring_is_bounded() {
        let mut state = FleetState::new();
        for i in 0..TELEMETRY_RING + 10 {
            state.apply(
                0,
                &CampaignEvent::RoundStarted(RoundStarted {
                    first_slot: i,
                    slots: 1,
                    gain_threshold_samples: 0,
                }),
            );
        }
        let rendered = state.render_telemetry(0);
        assert_eq!(rendered.lines().count(), TELEMETRY_RING);
        assert!(
            rendered
                .lines()
                .last()
                .unwrap()
                .contains(&format!("\"first_slot\":{}", TELEMETRY_RING + 9)),
            "newest line retained"
        );
    }

    /// Both shard-addressed queries answer an unknown shard with the
    /// same structured error a malformed id gets — never an empty
    /// string a client cannot tell apart from "registered but quiet".
    #[test]
    fn unknown_shard_is_a_structured_error() {
        let mut state = FleetState::new();
        state.register(0);
        assert_eq!(state.render_telemetry(9), "{\"error\":\"unknown shard 9\"}");
        assert_eq!(state.render_series(9), "{\"error\":\"unknown shard 9\"}");
        // A registered-but-quiet shard is distinguishable: empty data,
        // not an error.
        assert_eq!(state.render_telemetry(0), "");
        assert_eq!(
            state.render_series(0),
            "{\"shard\":0,\"samples\":0,\"points\":[]}"
        );
    }

    #[test]
    fn series_tracks_coverage_over_time_and_ends_exact() {
        let mut state = FleetState::new();
        state.register(0);
        let mut total = 0usize;
        for slot in 0..1000usize {
            if slot % 7 == 0 {
                total += 1;
            }
            state.apply(
                0,
                &CampaignEvent::SlotCommitted(SlotCommitted {
                    slot,
                    stream: 0,
                    window_type: WindowType::ALL[0],
                    triggered: false,
                    to: 0,
                    eto: 0,
                    sim_runs: 1,
                    final_gain: 0,
                    fresh_points: 0,
                    total_points: total,
                    error: None,
                }),
            );
        }
        let rendered = state.render_series(0);
        assert!(
            rendered.starts_with("{\"shard\":0,\"samples\":1000,\"points\":[["),
            "{rendered}"
        );
        // Parse the [[x,y],...] pairs back out and check the acceptance
        // properties: bounded, monotone, exact final value.
        let points: Vec<(u64, u64)> = rendered
            .split_once("\"points\":[")
            .unwrap()
            .1
            .trim_end_matches("]}")
            .trim_matches(|c| c == '[' || c == ']')
            .split("],[")
            .map(|pair| {
                let (x, y) = pair.split_once(',').unwrap();
                (x.parse().unwrap(), y.parse().unwrap())
            })
            .collect();
        assert!(points.len() <= SERIES_BUDGET + 1, "got {}", points.len());
        assert!(points.len() >= SERIES_BUDGET / 2, "got {}", points.len());
        assert!(points.windows(2).all(|w| w[0].0 < w[1].0), "x monotone");
        assert!(points.windows(2).all(|w| w[0].1 <= w[1].1), "y monotone");
        assert_eq!(
            *points.last().unwrap(),
            (1000, total as u64),
            "final point is the shard's exact latest total"
        );
    }

    #[test]
    fn metrics_exposition_covers_registry_and_fleet_families() {
        let mut state = FleetState::new();
        state.register(0);
        state.register(3);
        state.apply(0, &gained(0, vec![pt(Module::Rob, 1)], 1));
        // Touch the core engine's instruments so the registry section is
        // provably present alongside the fleet section.
        let _ = dejavuzz::metrics::handles();
        let text = state.render_metrics();
        // Registry families (executor + gossip instruments).
        assert!(text.contains("# TYPE dejavuzz_iterations_total counter"));
        assert!(text.contains("# TYPE dejavuzz_plan_nanos histogram"));
        assert!(text.contains("# TYPE dejavuzz_gossip_exchange_nanos histogram"));
        // Fleet families with per-shard labels.
        assert!(text.contains("# TYPE dejavuzz_fleet_shards gauge\ndejavuzz_fleet_shards 2\n"));
        assert!(text.contains("dejavuzz_fleet_union_points 1\n"));
        assert!(text.contains("dejavuzz_fleet_shard_points{shard=\"0\"} 1\n"));
        assert!(text.contains("dejavuzz_fleet_shard_points{shard=\"3\"} 0\n"));
        // Exposition validity: every family has exactly one TYPE line
        // (no duplicates across the two sections), and every sample line
        // belongs to a declared family.
        let mut seen = std::collections::BTreeSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let family = rest.split(' ').next().unwrap();
                assert!(seen.insert(family.to_string()), "duplicate family {family}");
            }
        }
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line
                .split(['{', ' '])
                .next()
                .unwrap()
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            assert!(
                seen.contains(name) || seen.contains(&format!("{name}_count")),
                "sample {line:?} has no family"
            );
        }
    }

    fn temp_socket(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("djvz-hub-{tag}-{}.sock", std::process::id()))
    }

    fn query(path: &Path, request: &str) -> String {
        let mut stream = UnixStream::connect(path).unwrap();
        stream.write_all(format!("{request}\n").as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn hub_answers_queries_and_shuts_down() {
        let path = temp_socket("query");
        let state = Arc::new(Mutex::new(FleetState::new()));
        state.lock().unwrap().register(0);
        let hub = FleetHub::bind(&path, Arc::clone(&state), Bus::new()).unwrap();
        let server = std::thread::spawn(move || hub.run());
        assert_eq!(
            query(&path, "status"),
            "{\"shards\":1,\"finished\":0,\"iterations\":0,\"union_points\":0,\"bugs\":0}\n"
        );
        assert!(query(&path, "bogus").starts_with("{\"error\":"));
        assert_eq!(query(&path, "shutdown"), "{\"ok\":\"shutting down\"}\n");
        server.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// An external `UnixGossipLink` (the `dejavuzz-fuzz --peers` client)
    /// joins the in-process bus through the relay: frames flow both
    /// ways.
    #[test]
    fn relay_bridges_external_peers_onto_the_bus() {
        let path = temp_socket("relay");
        let state = Arc::new(Mutex::new(FleetState::new()));
        let bus = Bus::new();
        let mut local = bus.link();
        let hub = FleetHub::bind(&path, state, bus.clone()).unwrap();
        let flag = hub.shutdown_flag();
        let server = std::thread::spawn(move || hub.run());

        let mut external = UnixGossipLink::connect(&path, 7).unwrap();
        let frame = GossipFrame {
            shard: 7,
            iterations: 12,
            delta: vec![pt(Module::Top, 1)],
            favoured: Vec::new(),
        };
        external.publish(&frame);
        let inbound = wait_for(|| {
            let got = local.drain();
            (!got.is_empty()).then_some(got)
        });
        assert_eq!(inbound, vec![frame.clone()]);

        let reply = GossipFrame {
            shard: 0,
            iterations: 4,
            delta: vec![pt(Module::Top, 2)],
            favoured: Vec::new(),
        };
        local.publish(&reply);
        let outbound = wait_for(|| {
            let got = external.drain();
            (!got.is_empty()).then_some(got)
        });
        assert_eq!(outbound, vec![reply]);

        flag.store(true, Ordering::Relaxed);
        server.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// Polls until `probe` yields, panicking after ~5s — relay delivery
    /// crosses threads, so assertions need a deadline, not a sleep.
    fn wait_for<T>(mut probe: impl FnMut() -> Option<T>) -> T {
        for _ in 0..1000 {
            if let Some(v) = probe() {
                return v;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("relay delivery timed out");
    }
}
