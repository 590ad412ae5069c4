//! [`CampaignObserver`]: the typed event stream of a running campaign.
//!
//! Historically the only way to consume campaign progress was scraping
//! `dejavuzz-fuzz` stdout. This module turns the campaign into an
//! *engine with an event stream*: the executor invokes observers at its
//! deterministic commit points — never from worker threads — so for a
//! fixed `(seed, workers, batch, scheduler, policy)` the full sequence of
//! events (kinds *and* payloads) is reproducible run over run,
//! regardless of thread timing, and a halted-then-resumed campaign emits
//! exactly the tail of the uninterrupted campaign's sequence (asserted
//! by `tests/observer.rs`).
//!
//! Events and when they fire:
//!
//! * [`CampaignObserver::round_started`] — after a round is planned and
//!   shipped, before any of its slots commits (workers may already be
//!   running it);
//! * [`CampaignObserver::slot_committed`] — once per iteration, in
//!   global slot order, after the outcome folded into campaign state;
//! * [`CampaignObserver::coverage_gained`] — after a committed slot
//!   grew the global coverage union;
//! * [`CampaignObserver::bug_found`] — once per *newly deduplicated*
//!   bug report (re-discoveries of a known dedup key stay silent);
//! * [`CampaignObserver::snapshot_written`] — after a checkpoint landed
//!   on disk (atomic write-rename already done). A periodic checkpoint
//!   holds the state of its round boundary but lands while the next
//!   round runs, before that round's `round_started`;
//! * [`CampaignObserver::campaign_finished`] — once, with the final
//!   [`ExecutorReport`].
//!
//! [`CampaignEvent`] is the owned form of every event, and an
//! [`EventSink`] consumes events in that form: a blanket impl makes every
//! sink an observer, and [`CampaignEvent::to_json`] is the one JSON
//! serialiser (of [`JsonLinesObserver`] and of the fleet transport).
//!
//! Two built-ins cover the CLI's needs: [`TextObserver`] reimplements
//! the historical `dejavuzz-fuzz` stdout report (byte-identical for the
//! default run, pinned by `crates/core/tests/cli.rs`), and
//! [`JsonLinesObserver`] emits one JSON object per event for
//! `dejavuzz-fuzz --telemetry json` (and any embedder that wants
//! machine-readable progress without scraping).
//! Wall-clock only appears in [`CampaignFinished::elapsed`] and is
//! deliberately *excluded* from the JSON stream, so telemetry is
//! byte-deterministic per `(seed, workers)`.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use dejavuzz_ift::CoveragePoint;
use dejavuzz_telemetry::json_string;

use crate::campaign::CampaignStats;
use crate::executor::ExecutorReport;
use crate::gen::WindowType;
use crate::report::BugReport;

/// A round was planned and shipped to the workers; none of its slots
/// has committed yet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundStarted {
    /// First global iteration slot of the round. Continues across a
    /// halt/resume boundary (unlike a per-run round ordinal would), so
    /// resumed streams concatenate seamlessly onto halted ones.
    pub first_slot: usize,
    /// Slots the round spans.
    pub slots: usize,
    /// The shared mutation-gain threshold entering the round (§4.2.2).
    pub gain_threshold_samples: usize,
}

/// One iteration committed, in global slot order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotCommitted {
    /// Global iteration slot.
    pub slot: usize,
    /// Logical worker stream the slot is accounted to.
    pub stream: usize,
    /// The transient-window category the seed targeted.
    pub window_type: WindowType,
    /// Whether the transient window actually opened.
    pub triggered: bool,
    /// Training overhead of the triggered window (0 if untriggered).
    pub to: usize,
    /// Effective training overhead.
    pub eto: usize,
    /// Simulator runs this iteration spent.
    pub sim_runs: usize,
    /// Coverage gain of the selected phase-2 attempt.
    pub final_gain: usize,
    /// Points this slot contributed to the global union.
    pub fresh_points: usize,
    /// Global coverage after this commit.
    pub total_points: usize,
    /// A backend failure that aborted the iteration, if any.
    pub error: Option<String>,
}

/// A committed slot grew the global coverage union.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoverageGained<'a> {
    /// The contributing slot.
    pub slot: usize,
    /// The newly covered points, in commit order.
    pub points: &'a [dejavuzz_ift::CoveragePoint],
    /// Global coverage after folding them in.
    pub total_points: usize,
}

/// A new (deduplicated) bug report was committed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BugFound {
    /// The slot that found it.
    pub slot: usize,
    /// The report (already deduplicated by
    /// [`BugReport::dedup_key`]).
    pub bug: BugReport,
}

/// A checkpoint landed on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotWritten<'a> {
    /// Where the checkpoint was written (the rotated sibling path when
    /// rotation is on).
    pub path: &'a Path,
    /// Iterations completed at the checkpoint.
    pub iterations: usize,
    /// Periodic mid-run checkpoint (true) or the end-of-run one (false).
    pub periodic: bool,
}

/// A gossiping peer's coverage delta was imported at a round boundary.
///
/// Cross-shard imports are the one way coverage can grow outside a
/// [`SlotCommitted`] commit, so every import is an explicit event: a
/// gossiping campaign's coverage trajectory stays fully auditable from
/// its telemetry stream alone (fired between the final commit of a round
/// and the next [`RoundStarted`] — asserted by `tests/fleet.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerDeltaImported {
    /// Shard id of the exporting peer.
    pub from_shard: u32,
    /// Iterations the peer had committed when it exported the frame.
    pub peer_iterations: usize,
    /// Local iterations committed when the import was applied (the round
    /// boundary).
    pub boundary: usize,
    /// Points carried by the frame's delta.
    pub points: usize,
    /// Points that were new to this shard's union.
    pub fresh_points: usize,
    /// Global coverage after folding the delta in.
    pub total_points: usize,
}

/// A gossiping peer's favoured corpus entry was offered to the corpus at
/// a round boundary (same auditability contract as
/// [`PeerDeltaImported`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedImported {
    /// Shard id of the exporting peer.
    pub from_shard: u32,
    /// Local iterations committed when the import was applied.
    pub boundary: usize,
    /// The imported seed's transient-window category.
    pub window_type: WindowType,
    /// The imported seed's entropy (its lineage key, with the window).
    pub entropy: u64,
    /// The coverage gain the peer retained the seed with.
    pub gain: usize,
}

/// The campaign completed.
#[derive(Clone, Copy, Debug)]
pub struct CampaignFinished<'a> {
    /// The final report (stats, exact coverage, per-worker accounting).
    pub report: &'a ExecutorReport,
    /// Wall-clock of this run (the resumed portion only, on resumed
    /// campaigns). The only wall-clock in the event stream — everything
    /// else is deterministic per `(seed, workers)`.
    pub elapsed: Duration,
}

/// The campaign event stream. Every method has a no-op default, so an
/// observer implements only what it consumes. Invoked exclusively from
/// the orchestrator's commit path — implementations may hold `&mut`
/// state without any synchronisation.
pub trait CampaignObserver {
    /// See [`RoundStarted`].
    fn round_started(&mut self, _ev: &RoundStarted) {}
    /// See [`SlotCommitted`].
    fn slot_committed(&mut self, _ev: &SlotCommitted) {}
    /// See [`CoverageGained`].
    fn coverage_gained(&mut self, _ev: &CoverageGained<'_>) {}
    /// See [`BugFound`].
    fn bug_found(&mut self, _ev: &BugFound) {}
    /// See [`SnapshotWritten`].
    fn snapshot_written(&mut self, _ev: &SnapshotWritten<'_>) {}
    /// See [`PeerDeltaImported`].
    fn peer_delta_imported(&mut self, _ev: &PeerDeltaImported) {}
    /// See [`SeedImported`].
    fn seed_imported(&mut self, _ev: &SeedImported) {}
    /// See [`CampaignFinished`].
    fn campaign_finished(&mut self, _ev: &CampaignFinished<'_>) {}
}

/// An owned campaign event: every [`CampaignObserver`] callback's
/// payload, detached from the executor's borrows so it can cross
/// threads or be serialised later. The borrowed-slice events
/// ([`CoverageGained`], [`SnapshotWritten`], [`CampaignFinished`]) are
/// flattened to owned fields; the already-owned event structs embed
/// directly.
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignEvent {
    /// See [`RoundStarted`].
    RoundStarted(RoundStarted),
    /// See [`SlotCommitted`].
    SlotCommitted(SlotCommitted),
    /// See [`CoverageGained`] — with the fresh points owned.
    CoverageGained {
        /// The contributing slot.
        slot: usize,
        /// The newly covered points, in commit order.
        points: Vec<CoveragePoint>,
        /// Global coverage after folding them in.
        total_points: usize,
    },
    /// See [`BugFound`].
    BugFound(BugFound),
    /// See [`SnapshotWritten`] — with the path owned.
    SnapshotWritten {
        /// Where the checkpoint was written.
        path: PathBuf,
        /// Iterations completed at the checkpoint.
        iterations: usize,
        /// Periodic mid-run checkpoint or the end-of-run one.
        periodic: bool,
    },
    /// See [`PeerDeltaImported`].
    PeerDeltaImported(PeerDeltaImported),
    /// See [`SeedImported`].
    SeedImported(SeedImported),
    /// See [`CampaignFinished`] — its report's stats, exact coverage and
    /// corpus counts, without the wall-clock.
    CampaignFinished {
        /// The final campaign stats.
        stats: CampaignStats,
        /// The final coverage union, `report.coverage.points()`. A gossip
        /// import at the last round boundary raises it without committing
        /// a slot, so it can exceed the coverage curve's last value.
        coverage_points: usize,
        /// Seeds the corpus retained.
        corpus_retained: usize,
        /// Seeds the corpus evicted for capacity.
        corpus_evicted: usize,
    },
}

/// A consumer of owned [`CampaignEvent`]s. Every sink is a
/// [`CampaignObserver`]: the blanket impl below turns each borrowed
/// event into one owned event, so a sink implements one method where an
/// observer implements eight.
pub trait EventSink {
    /// Consumes one event.
    fn event(&mut self, ev: CampaignEvent);
}

impl<S: EventSink> CampaignObserver for S {
    fn round_started(&mut self, ev: &RoundStarted) {
        self.event(CampaignEvent::RoundStarted(*ev));
    }

    fn slot_committed(&mut self, ev: &SlotCommitted) {
        self.event(CampaignEvent::SlotCommitted(ev.clone()));
    }

    fn coverage_gained(&mut self, ev: &CoverageGained<'_>) {
        self.event(CampaignEvent::CoverageGained {
            slot: ev.slot,
            points: ev.points.to_vec(),
            total_points: ev.total_points,
        });
    }

    fn bug_found(&mut self, ev: &BugFound) {
        self.event(CampaignEvent::BugFound(ev.clone()));
    }

    fn snapshot_written(&mut self, ev: &SnapshotWritten<'_>) {
        self.event(CampaignEvent::SnapshotWritten {
            path: ev.path.to_path_buf(),
            iterations: ev.iterations,
            periodic: ev.periodic,
        });
    }

    fn peer_delta_imported(&mut self, ev: &PeerDeltaImported) {
        self.event(CampaignEvent::PeerDeltaImported(*ev));
    }

    fn seed_imported(&mut self, ev: &SeedImported) {
        self.event(CampaignEvent::SeedImported(*ev));
    }

    fn campaign_finished(&mut self, ev: &CampaignFinished<'_>) {
        self.event(CampaignEvent::CampaignFinished {
            stats: ev.report.stats.clone(),
            coverage_points: ev.report.coverage.points(),
            corpus_retained: ev.report.corpus_retained,
            corpus_evicted: ev.report.corpus_evicted,
        });
    }
}

/// The historical `dejavuzz-fuzz` stdout report as an observer: an
/// optional banner on the first event, the full campaign report on
/// [`CampaignFinished`]. The default CLI run's stdout through this
/// observer is byte-identical to the pre-observer CLI (diffed by CI).
pub struct TextObserver<W: Write> {
    out: W,
    banner: Option<String>,
    banner_pending: bool,
}

impl TextObserver<io::Stdout> {
    /// A text reporter on stdout.
    pub fn stdout() -> Self {
        TextObserver::new(io::stdout())
    }
}

impl<W: Write> TextObserver<W> {
    /// A text reporter on any sink.
    pub fn new(out: W) -> Self {
        TextObserver {
            out,
            banner: None,
            banner_pending: false,
        }
    }

    /// Prints `line` before any other output (the CLI's "fuzzing …"
    /// announcement).
    pub fn with_banner(mut self, line: impl Into<String>) -> Self {
        self.banner = Some(line.into());
        self.banner_pending = true;
        self
    }

    fn flush_banner(&mut self) {
        if self.banner_pending {
            self.banner_pending = false;
            if let Some(banner) = &self.banner {
                let _ = writeln!(self.out, "{banner}");
            }
        }
    }
}

impl<W: Write> CampaignObserver for TextObserver<W> {
    fn round_started(&mut self, _ev: &RoundStarted) {
        self.flush_banner();
    }

    fn campaign_finished(&mut self, ev: &CampaignFinished<'_>) {
        self.flush_banner();
        let report = ev.report;
        let stats = &report.stats;
        let elapsed = ev.elapsed.as_secs_f64();
        let out = &mut self.out;
        let _ = writeln!(out, "elapsed:          {elapsed:.1}s");
        let _ = writeln!(
            out,
            "throughput:       {:.1} seeds/sec",
            stats.iterations as f64 / elapsed.max(1e-9)
        );
        let _ = writeln!(out, "iterations:       {}", stats.iterations);
        if stats.failed_runs > 0 {
            let _ = writeln!(
                out,
                "failed runs:      {} (backend errors)",
                stats.failed_runs
            );
        }
        let _ = writeln!(out, "simulations:      {}", stats.sim_runs);
        let _ = writeln!(out, "simulated cycles: {}", stats.sim_cycles);
        let _ = writeln!(
            out,
            "coverage points:  {} (exact union)",
            report.coverage.points()
        );
        let _ = writeln!(
            out,
            "corpus retained:  {} (evicted {})",
            report.corpus_retained, report.corpus_evicted
        );
        let _ = writeln!(out, "first bug:        {:?}", stats.first_bug_iteration);
        let _ = writeln!(out, "\nworkers:");
        for w in &report.workers {
            let _ = writeln!(
                out,
                "  #{:<3} {:>5} iterations, {:>5} points observed",
                w.worker,
                w.iterations,
                w.observed.points()
            );
        }
        let _ = writeln!(out, "\nwindows:");
        for (wt, ws) in &stats.windows {
            let _ = writeln!(
                out,
                "  {:<28} {:>3}/{:<3}  TO {:>6.1}  ETO {:>5.1}",
                wt.name(),
                ws.triggered,
                ws.attempted,
                ws.mean_to(),
                ws.mean_eto()
            );
        }
        let _ = writeln!(out, "\nbugs ({}):", stats.bugs.len());
        for b in &stats.bugs {
            let _ = writeln!(out, "  {b}");
        }
        let _ = out.flush();
    }
}

/// Machine-readable telemetry: one JSON object per event, one event per
/// line (`dejavuzz-fuzz --telemetry json`). The stream contains no
/// wall-clock, so its bytes are deterministic per `(seed, workers,
/// batch, scheduler, policy)` — asserted by `tests/observer.rs` and
/// `crates/core/tests/cli.rs`'s `json_telemetry_is_deterministic_and_valid`.
pub struct JsonLinesObserver<W: Write> {
    out: W,
}

impl JsonLinesObserver<io::Stdout> {
    /// A JSON-lines telemetry stream on stdout.
    pub fn stdout() -> Self {
        JsonLinesObserver::new(io::stdout())
    }
}

impl<W: Write> JsonLinesObserver<W> {
    /// A JSON-lines telemetry stream on any sink.
    pub fn new(out: W) -> Self {
        JsonLinesObserver { out }
    }
}

impl<W: Write> EventSink for JsonLinesObserver<W> {
    fn event(&mut self, ev: CampaignEvent) {
        let _ = writeln!(self.out, "{}", ev.to_json());
        if matches!(ev, CampaignEvent::CampaignFinished { .. }) {
            let _ = self.out.flush();
        }
    }
}

impl CampaignEvent {
    /// The event as one JSON object, without a newline: the line
    /// [`JsonLinesObserver`] writes, and the one serialiser of every
    /// JSON event stream.
    pub fn to_json(&self) -> String {
        match self {
            CampaignEvent::RoundStarted(ev) => format!(
                "{{\"event\":\"round_started\",\"first_slot\":{},\"slots\":{},\"gain_samples\":{}}}",
                ev.first_slot, ev.slots, ev.gain_threshold_samples
            ),
            CampaignEvent::SlotCommitted(ev) => {
                let error = match &ev.error {
                    Some(e) => json_string(e),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"event\":\"slot_committed\",\"slot\":{},\"stream\":{},\"window\":{},\
                     \"triggered\":{},\"to\":{},\"eto\":{},\"sim_runs\":{},\"final_gain\":{},\
                     \"fresh_points\":{},\"total_points\":{},\"error\":{}}}",
                    ev.slot,
                    ev.stream,
                    json_string(ev.window_type.name()),
                    ev.triggered,
                    ev.to,
                    ev.eto,
                    ev.sim_runs,
                    ev.final_gain,
                    ev.fresh_points,
                    ev.total_points,
                    error
                )
            }
            CampaignEvent::CoverageGained {
                slot,
                points,
                total_points,
            } => format!(
                "{{\"event\":\"coverage_gained\",\"slot\":{},\"gained\":{},\"total_points\":{}}}",
                slot,
                points.len(),
                total_points
            ),
            CampaignEvent::BugFound(ev) => format!(
                "{{\"event\":\"bug_found\",\"slot\":{},\"core\":{},\"attack\":{},\
                 \"window_class\":{},\"component\":{},\"iteration\":{}}}",
                ev.slot,
                json_string(&ev.bug.core),
                json_string(ev.bug.attack.name()),
                json_string(ev.bug.window_type.table5_class()),
                json_string(ev.bug.component()),
                ev.bug.iteration
            ),
            CampaignEvent::SnapshotWritten {
                path,
                iterations,
                periodic,
            } => format!(
                "{{\"event\":\"snapshot_written\",\"path\":{},\"iterations\":{},\"periodic\":{}}}",
                json_string(&path.display().to_string()),
                iterations,
                periodic
            ),
            CampaignEvent::PeerDeltaImported(ev) => format!(
                "{{\"event\":\"peer_delta_imported\",\"from_shard\":{},\"peer_iterations\":{},\
                 \"boundary\":{},\"points\":{},\"fresh_points\":{},\"total_points\":{}}}",
                ev.from_shard,
                ev.peer_iterations,
                ev.boundary,
                ev.points,
                ev.fresh_points,
                ev.total_points
            ),
            CampaignEvent::SeedImported(ev) => format!(
                "{{\"event\":\"seed_imported\",\"from_shard\":{},\"boundary\":{},\"window\":{},\
                 \"entropy\":{},\"gain\":{}}}",
                ev.from_shard,
                ev.boundary,
                json_string(ev.window_type.name()),
                ev.entropy,
                ev.gain
            ),
            CampaignEvent::CampaignFinished {
                stats,
                coverage_points,
                corpus_retained,
                corpus_evicted,
            } => format!(
                "{{\"event\":\"campaign_finished\",\"iterations\":{},\"sim_runs\":{},\
                 \"sim_cycles\":{},\"coverage_points\":{},\"corpus_retained\":{},\
                 \"corpus_evicted\":{},\"failed_runs\":{},\"bugs\":{},\"first_bug\":{}}}",
                stats.iterations,
                stats.sim_runs,
                stats.sim_cycles,
                coverage_points,
                corpus_retained,
                corpus_evicted,
                stats.failed_runs,
                stats.bugs.len(),
                match stats.first_bug_iteration {
                    Some(i) => i.to_string(),
                    None => "null".to_string(),
                }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_control_and_quote_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn text_observer_banner_prints_once_before_anything() {
        let mut obs = TextObserver::new(Vec::new()).with_banner("fuzzing TEST\n");
        obs.round_started(&RoundStarted {
            first_slot: 0,
            slots: 4,
            gain_threshold_samples: 0,
        });
        obs.round_started(&RoundStarted {
            first_slot: 4,
            slots: 4,
            gain_threshold_samples: 3,
        });
        assert_eq!(
            String::from_utf8(obs.out).unwrap(),
            "fuzzing TEST\n\n",
            "the banner (with its embedded blank line) prints exactly once"
        );
    }
}
