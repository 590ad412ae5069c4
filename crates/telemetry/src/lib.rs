//! `dejavuzz-telemetry` — process-wide metrics for the campaign engine.
//!
//! The engine's headline claims are observability claims: coverage-over-
//! time curves (the paper's Figures 6–7) and per-phase throughput tables
//! are what demonstrate the fuzzer works. This crate is the always-on,
//! off-the-commit-path instrumentation layer behind them — hand-rolled,
//! because the build environment has no registry access:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free atomic
//!   instruments. Histograms are log₂-bucketed (values land in the
//!   bucket of their bit width), sized for nanosecond latencies.
//! * [`Registry`] — a process-global named instrument table
//!   ([`global()`]) rendering a JSON dump ([`Registry::render_json`], the
//!   `dejavuzz-fuzz --metrics-out` format).
//!
//! # The determinism contract
//!
//! Metrics live entirely **off the commit path**: instruments are
//! write-only from the campaign's perspective, and no campaign decision,
//! report field, stdout byte or snapshot byte ever reads one back.
//! Wall-clock readings therefore never enter campaign state — a run with
//! metrics recording on, off ([`set_recording`]), or scraped mid-run
//! from another thread is byte-identical to any other (asserted by
//! `tests/metrics.rs` and by `crates/core/tests/cli.rs`'s
//! `metrics_out_writes_json_and_leaves_stdout_untouched`).

#![warn(missing_docs)]

mod instruments;
mod registry;

pub use instruments::{Counter, Gauge, Histogram, Timer, HISTOGRAM_BUCKETS};
pub use registry::{json_string, Registry};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The process-wide recording switch. On (the default) instruments
/// record; off they are no-ops — [`Timer`]s skip even the clock read, so
/// the disabled cost of a span is one relaxed atomic load.
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Turns metric recording on or off process-wide. Recording is on by
/// default; turning it off is for overhead measurement (the EXPERIMENTS
/// "Observability" bar) — campaign results are byte-identical either
/// way, so there is never a *correctness* reason to disable it.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether instruments currently record. Checked by every instrument
/// write and by [`Timer`] creation.
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// The process-global registry every DejaVuzz subsystem registers its
/// instruments in: the executor's spans and counters, the phase
/// pipeline's census timer, the worker pool's RPC instruments. One
/// registry per process keeps a `--metrics-out` dump a single pass over
/// everything the campaign did.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Serialises this crate's unit tests around the process-wide
/// [`RECORDING`] flag: any test that writes instruments (or toggles the
/// flag) holds this lock, so the parallel test harness cannot interleave
/// a disabled window into another test's recording.
#[cfg(test)]
pub(crate) fn recording_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_toggle_gates_instrument_writes() {
        let _serial = recording_test_lock();
        let c = Counter::new();
        c.inc();
        set_recording(false);
        c.inc();
        c.add(10);
        set_recording(true);
        c.inc();
        assert_eq!(c.get(), 2, "writes while disabled are dropped");
    }

    #[test]
    fn global_registry_is_one_instance() {
        let _serial = recording_test_lock();
        let a = global().counter("test_global_total");
        let b = global().counter("test_global_total");
        a.inc();
        assert_eq!(b.get(), 1, "same name resolves to the same instrument");
    }
}
