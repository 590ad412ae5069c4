//! The core engine's instrument handles in the process-global
//! [`dejavuzz_telemetry`] registry.
//!
//! Everything here is **off the commit path**: the executor writes these
//! instruments at its phase boundaries, but no campaign decision, report
//! field, stdout byte or snapshot byte ever reads one back, so recording
//! (on, off, or scraped mid-run) cannot perturb results — the byte-
//! identity contract `tests/metrics.rs` pins. Durations already measured
//! for the report (slot elapsed, view setup) are *re-used* here rather
//! than re-measured; the extra instruments (plan, census, stall,
//! snapshot) read the clock only when recording is on.
//!
//! Handles resolve lazily through a `OnceLock` so the first instrumented
//! operation pays the registration walk and every later one is a field
//! load.

use std::sync::Arc;
use std::sync::OnceLock;

use dejavuzz_telemetry::{global, Counter, Gauge, Histogram};

/// The engine's registered instruments. Obtain via [`handles`]; fields
/// are shared handles into [`dejavuzz_telemetry::global`].
#[derive(Debug)]
pub struct CoreMetrics {
    /// Time to plan (and for steal schedulers, pre-draw) one round.
    pub plan_nanos: Arc<Histogram>,
    /// Per-slot backend run time (the worker's measured `elapsed_nanos`,
    /// observed at commit — no extra clock read).
    pub slot_run_nanos: Arc<Histogram>,
    /// Per-slot coverage sink construction time.
    pub view_setup_nanos: Arc<Histogram>,
    /// DIFT taint-census time in phase 2: digesting a simulated run's
    /// taint log into its distinct points and folding them into the
    /// coverage sink, or folding a replayed digest's points.
    pub census_nanos: Arc<Histogram>,
    /// Time the commit loop spent blocked on `recv` waiting for the next
    /// contiguous slot — the contiguous-prefix stall, which in barriered
    /// runs is the barrier wait.
    pub commit_stall_nanos: Arc<Histogram>,
    /// Out-of-order outcomes buffered ahead of the contiguous commit
    /// prefix, sampled after each arrival.
    pub commit_queue_depth: Arc<Gauge>,
    /// Checkpoint serialisation + write time.
    pub snapshot_write_nanos: Arc<Histogram>,
    /// Checkpoints written.
    pub snapshots_total: Arc<Counter>,
    /// Slots committed whose window was a scenario-template family
    /// ([`crate::gen::WindowType::Scenario`]).
    pub scenario_slots_total: Arc<Counter>,
    /// Slots committed.
    pub iterations_total: Arc<Counter>,
    /// Simulations the slots consumed (a slot runs several), replays
    /// included.
    pub sim_runs_total: Arc<Counter>,
    /// `dejavuzz_sim_replays_total{phase="1"|"2"|"3"}`: consumed
    /// simulations the executor answered from its lineage memo instead
    /// of calling the backend, by phase (index 0 is phase 1), added when
    /// their slot commits, like `sim_runs_total`. Phase 1 counts every
    /// trigger and reduction run a replayed verdict stands for. In a
    /// release build without backend errors, backend calls plus replays
    /// equal `sim_runs_total`; debug builds also simulate every replay,
    /// to check it.
    pub sim_replays_total: [Arc<Counter>; 3],
    /// Current global coverage points (last committing run wins).
    pub coverage_points: Arc<Gauge>,
    /// Sum of per-slot backend run time across completed runs — the
    /// `ExecutorReport::busy_nanos` fold, accumulated per run so a
    /// process that runs several campaigns reports their total.
    pub busy_nanos: Arc<Gauge>,
    /// `ExecutorReport::barrier_idle_nanos`, accumulated per run.
    pub barrier_idle_nanos: Arc<Gauge>,
    /// `ExecutorReport::view_setup_nanos`, accumulated per run.
    pub report_view_setup_nanos: Arc<Gauge>,
    /// `ExecutorReport::modelled_makespan_nanos`, accumulated per run.
    pub modelled_makespan_nanos: Arc<Gauge>,
    /// Campaign runs completed in this process.
    pub runs_total: Arc<Counter>,
    /// One worker-pool RPC round trip (encode + queue + worker simulate
    /// + decode), as seen by the calling worker thread.
    pub pool_rpc_nanos: Arc<Histogram>,
    /// Worker-pool RPCs currently issued and not yet answered.
    pub pool_in_flight: Arc<Gauge>,
    /// Worker processes respawned after a crash or protocol error.
    pub pool_respawns_total: Arc<Counter>,
}

/// The engine's instruments, registered on first use.
pub fn handles() -> &'static CoreMetrics {
    static HANDLES: OnceLock<CoreMetrics> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let r = global();
        CoreMetrics {
            plan_nanos: r.histogram(
                "dejavuzz_plan_nanos",
                "Round planning (and pre-draw) time in nanoseconds",
            ),
            slot_run_nanos: r.histogram(
                "dejavuzz_slot_run_nanos",
                "Per-slot backend run time in nanoseconds",
            ),
            view_setup_nanos: r.histogram(
                "dejavuzz_view_setup_nanos",
                "Per-slot coverage sink setup time in nanoseconds",
            ),
            census_nanos: r.histogram(
                "dejavuzz_census_nanos",
                "DIFT taint census (digest and coverage fold of one phase-2 run) time in nanoseconds",
            ),
            commit_stall_nanos: r.histogram(
                "dejavuzz_commit_stall_nanos",
                "Commit loop blocked waiting for the next contiguous slot (the barrier wait when barriered), nanoseconds",
            ),
            commit_queue_depth: r.gauge(
                "dejavuzz_commit_queue_depth",
                "Outcomes buffered ahead of the contiguous commit prefix",
            ),
            snapshot_write_nanos: r.histogram(
                "dejavuzz_snapshot_write_nanos",
                "Campaign checkpoint serialisation and write time in nanoseconds",
            ),
            snapshots_total: r.counter("dejavuzz_snapshots_total", "Checkpoints written"),
            scenario_slots_total: r.counter(
                "dejavuzz_scenario_slots_total",
                "Slots committed under a scenario-template window family",
            ),
            iterations_total: r.counter("dejavuzz_iterations_total", "Slots committed"),
            sim_runs_total: r.counter(
                "dejavuzz_sim_runs_total",
                "Simulations consumed by committed slots, replays included",
            ),
            sim_replays_total: ["1", "2", "3"].map(|phase| {
                r.labelled_counter(
                    "dejavuzz_sim_replays_total",
                    "Consumed simulations answered from the lineage memo instead of the backend, by phase",
                    "phase",
                    phase,
                )
            }),
            coverage_points: r.gauge(
                "dejavuzz_coverage_points",
                "Global coverage points (last committing run wins)",
            ),
            busy_nanos: r.gauge(
                "dejavuzz_busy_nanos",
                "Sum of per-slot backend run time across completed runs, nanoseconds",
            ),
            barrier_idle_nanos: r.gauge(
                "dejavuzz_barrier_idle_nanos",
                "Modelled worker idle time at round barriers across completed runs, nanoseconds",
            ),
            report_view_setup_nanos: r.gauge(
                "dejavuzz_report_view_setup_nanos",
                "Per-slot view setup time across completed runs, nanoseconds",
            ),
            modelled_makespan_nanos: r.gauge(
                "dejavuzz_modelled_makespan_nanos",
                "Modelled campaign makespan across completed runs, nanoseconds",
            ),
            runs_total: r.counter("dejavuzz_runs_total", "Campaign runs completed"),
            pool_rpc_nanos: r.histogram(
                "dejavuzz_pool_rpc_nanos",
                "Worker-pool RPC round trip time in nanoseconds",
            ),
            pool_in_flight: r.gauge(
                "dejavuzz_pool_in_flight",
                "Worker-pool RPCs issued and not yet answered",
            ),
            pool_respawns_total: r.counter(
                "dejavuzz_pool_respawns_total",
                "Worker processes respawned after a crash or protocol error",
            ),
        }
    })
}

/// The process registry rendered as the `dejavuzz-fuzz --metrics-out`
/// JSON dump: one object, newline-terminated. The engine's instruments
/// are registered first so the dump's family set is stable even for a
/// campaign that never exercised some of them.
pub fn registry_json() -> String {
    let _ = handles();
    format!("{}\n", global().render_json())
}

/// Folds a finished run's [`crate::ExecutorReport`] timing fields into
/// the registry, so `/metrics` and the report read the same source of
/// truth (the report's accumulators). Accumulating
/// (`Gauge::add`) rather than last-write-wins: every campaign a process
/// runs shares its one registry, so the totals sum over the campaigns.
pub fn record_report(report: &crate::ExecutorReport) {
    let m = handles();
    m.busy_nanos.add(report.busy_nanos);
    m.barrier_idle_nanos.add(report.barrier_idle_nanos);
    m.report_view_setup_nanos.add(report.view_setup_nanos);
    m.modelled_makespan_nanos
        .add(report.modelled_makespan_nanos);
    m.runs_total.inc();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_register_once_and_render() {
        let a = handles();
        let b = handles();
        assert!(std::ptr::eq(a, b));
        let text = global().render_prometheus();
        assert!(text.contains("# TYPE dejavuzz_plan_nanos histogram"));
        assert!(text.contains("# TYPE dejavuzz_iterations_total counter"));
        assert!(text.contains("# TYPE dejavuzz_busy_nanos gauge"));
        assert!(text.contains("# TYPE dejavuzz_sim_replays_total counter"));
        assert!(text.contains("dejavuzz_sim_replays_total{phase=\"3\"} "));
    }
}
