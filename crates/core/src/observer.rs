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
use std::path::Path;
use std::time::Duration;

use dejavuzz_telemetry::json_string;

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
    /// See [`CampaignFinished`].
    fn campaign_finished(&mut self, _ev: &CampaignFinished<'_>) {}
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
/// batch, scheduler, policy)` — asserted by `tests/observer.rs` (which
/// also pins one campaign's bytes) and `crates/core/tests/cli.rs`'s
/// `json_telemetry_is_deterministic_and_valid`.
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

impl<W: Write> CampaignObserver for JsonLinesObserver<W> {
    fn round_started(&mut self, ev: &RoundStarted) {
        let _ = writeln!(
            self.out,
            "{{\"event\":\"round_started\",\"first_slot\":{},\"slots\":{},\"gain_samples\":{}}}",
            ev.first_slot, ev.slots, ev.gain_threshold_samples
        );
    }

    fn slot_committed(&mut self, ev: &SlotCommitted) {
        let error = match &ev.error {
            Some(e) => json_string(e),
            None => "null".to_string(),
        };
        let _ = writeln!(
            self.out,
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
        );
    }

    fn coverage_gained(&mut self, ev: &CoverageGained<'_>) {
        let _ = writeln!(
            self.out,
            "{{\"event\":\"coverage_gained\",\"slot\":{},\"gained\":{},\"total_points\":{}}}",
            ev.slot,
            ev.points.len(),
            ev.total_points
        );
    }

    fn bug_found(&mut self, ev: &BugFound) {
        let _ = writeln!(
            self.out,
            "{{\"event\":\"bug_found\",\"slot\":{},\"core\":{},\"attack\":{},\
             \"window_class\":{},\"component\":{},\"iteration\":{}}}",
            ev.slot,
            json_string(&ev.bug.core),
            json_string(ev.bug.attack.name()),
            json_string(ev.bug.window_type.table5_class()),
            json_string(ev.bug.component()),
            ev.bug.iteration
        );
    }

    fn snapshot_written(&mut self, ev: &SnapshotWritten<'_>) {
        let _ = writeln!(
            self.out,
            "{{\"event\":\"snapshot_written\",\"path\":{},\"iterations\":{},\"periodic\":{}}}",
            json_string(&ev.path.display().to_string()),
            ev.iterations,
            ev.periodic
        );
    }

    /// The finale reports the final union, `report.coverage.points()`,
    /// like the text report's `coverage points` line.
    fn campaign_finished(&mut self, ev: &CampaignFinished<'_>) {
        let report = ev.report;
        let stats = &report.stats;
        let first_bug = match stats.first_bug_iteration {
            Some(i) => i.to_string(),
            None => "null".to_string(),
        };
        let _ = writeln!(
            self.out,
            "{{\"event\":\"campaign_finished\",\"iterations\":{},\"sim_runs\":{},\
             \"sim_cycles\":{},\"coverage_points\":{},\"corpus_retained\":{},\
             \"corpus_evicted\":{},\"failed_runs\":{},\"bugs\":{},\"first_bug\":{}}}",
            stats.iterations,
            stats.sim_runs,
            stats.sim_cycles,
            report.coverage.points(),
            report.corpus_retained,
            report.corpus_evicted,
            stats.failed_runs,
            stats.bugs.len(),
            first_bug
        );
        let _ = self.out.flush();
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

    /// The two JSON shapes the pinned stream of `tests/observer.rs` (a
    /// bug-finding campaign without backend errors) does not reach: a
    /// failed slot's error string and a finale with no bug.
    #[test]
    fn json_lines_render_a_slot_error_and_a_null_first_bug() {
        use crate::campaign::CampaignStats;
        use crate::gen::WindowType;
        use dejavuzz_ift::{CoverageMatrix, CoveragePoint, Module};

        let mut coverage = CoverageMatrix::new();
        for index in 0..2 {
            coverage.insert(CoveragePoint {
                module: Module::Rob,
                index,
            });
        }
        let report = ExecutorReport {
            stats: CampaignStats {
                iterations: 16,
                sim_runs: 64,
                sim_cycles: 4096,
                coverage_curve: vec![2],
                ..CampaignStats::default()
            },
            coverage,
            shared_points: 2,
            workers: Vec::new(),
            corpus_retained: 5,
            corpus_evicted: 1,
            busy_nanos: 0,
            modelled_makespan_nanos: 0,
            barrier_idle_nanos: 0,
            view_setup_nanos: 0,
        };
        let mut obs = JsonLinesObserver::new(Vec::new());
        obs.slot_committed(&SlotCommitted {
            slot: 0,
            stream: 1,
            window_type: WindowType::ALL[0],
            triggered: true,
            to: 5,
            eto: 2,
            sim_runs: 4,
            final_gain: 3,
            fresh_points: 2,
            total_points: 2,
            error: Some("i/o \"late\"".into()),
        });
        obs.campaign_finished(&CampaignFinished {
            report: &report,
            elapsed: Duration::ZERO,
        });
        assert_eq!(
            String::from_utf8(obs.out).unwrap(),
            "{\"event\":\"slot_committed\",\"slot\":0,\"stream\":1,\
             \"window\":\"Load/Store Access Fault\",\"triggered\":true,\"to\":5,\"eto\":2,\
             \"sim_runs\":4,\"final_gain\":3,\"fresh_points\":2,\"total_points\":2,\
             \"error\":\"i/o \\\"late\\\"\"}\n\
             {\"event\":\"campaign_finished\",\"iterations\":16,\"sim_runs\":64,\
             \"sim_cycles\":4096,\"coverage_points\":2,\"corpus_retained\":5,\
             \"corpus_evicted\":1,\"failed_runs\":0,\"bugs\":0,\"first_bug\":null}\n"
        );
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
