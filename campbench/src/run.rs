//! Trials: one campaign at a fixed seed and budget, timed from outside,
//! plain (end-to-end) or traced (per-layer).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dejavuzz::procbackend::{spawn_shared, worker_binary};
use dejavuzz::{
    BackendSpec, CampaignBuilder, ExecutorReport, NetlistBackend, Orchestrator, ProcBackend,
    SimBackend,
};
use dejavuzz_rtl::examples::CoreScale;

use crate::digest::campaign_digest;
use crate::sys::cpu_seconds;
use crate::trace::{fingerprint, ModeTally, Recorded, SharedTally, TracingBackend};
use crate::workload::Workload;

/// The registry id the traced run installs its wrapper under.
pub const TRACE_ID: &str = "campbench-trace";

/// One finished trial campaign.
#[derive(Debug)]
pub struct Trial {
    /// Wall seconds of `Orchestrator::run`.
    pub wall_s: f64,
    /// CPU seconds of the process and its reaped pool children, from just
    /// before the run until the orchestrator (and any pool) dropped.
    pub cpu_s: f64,
    /// The engine's report.
    pub report: ExecutorReport,
    /// [`campaign_digest`] of the report.
    pub digest: u64,
}

/// Fails with a clear message when the process-pool workload cannot find
/// its `dejavuzz-simd` worker binary.
pub fn require_worker_binary(w: Workload) -> Result<(), String> {
    if w.proc_spec().is_none() || worker_binary().is_some() {
        return Ok(());
    }
    let exe = std::env::current_exe()
        .map(|p| p.display().to_string())
        .unwrap_or_else(|_| "the campbench binary".into());
    Err(format!(
        "{}: the dejavuzz-simd worker binary is not next to {exe}; build both binaries \
         with `cargo build --release --manifest-path campbench/Cargo.toml` (or set \
         DEJAVUZZ_SIMD_BIN)",
        w.name()
    ))
}

fn build(w: Workload, builder: CampaignBuilder) -> Result<Orchestrator, String> {
    builder
        .build()
        .map_err(|e| format!("{}: campaign build failed: {e}", w.name()))
}

/// One set-up, in seconds: `CampaignBuilder::build()` (for the pool,
/// its spawn and handshake) plus a zero-iteration run, which constructs
/// every worker's backend (netlist synthesis) and does the run's fixed
/// start and finish work (threads, the final checkpoint) with no seeds.
pub fn setup_once(w: Workload, seed: u64, scratch: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let orch = build(w, w.builder(seed, scratch))?;
    orch.run(0);
    // Measured before `orch` (and a pool's teardown) drops.
    Ok(start.elapsed().as_secs_f64())
}

fn timed_run(orch: Orchestrator, iterations: usize) -> Result<Trial, String> {
    let cpu0 = cpu_seconds()?;
    let start = Instant::now();
    let report = orch.run(iterations);
    let wall_s = start.elapsed().as_secs_f64();
    // A pool's worker processes are killed and reaped here, so their CPU
    // time lands in this process's cutime/cstime.
    drop(orch);
    let cpu_s = cpu_seconds()? - cpu0;
    let digest = campaign_digest(&report);
    Ok(Trial {
        wall_s,
        cpu_s,
        report,
        digest,
    })
}

/// One end-to-end trial: the plain backend spec, recording as set by
/// the caller.
pub fn plain_trial(w: Workload, seed: u64, scratch: &Path) -> Result<Trial, String> {
    timed_run(build(w, w.builder(seed, scratch))?, w.iterations())
}

/// One traced trial: the same campaign with every backend instance
/// wrapped in a [`TracingBackend`] that records into `tally`. A process
/// pool is spawned once and shared by the wrappers, so the pool geometry
/// matches the plain run. Also returns the pool's worker respawns.
pub fn traced_trial(
    w: Workload,
    seed: u64,
    scratch: &Path,
    tally: &SharedTally,
) -> Result<(Trial, u64), String> {
    let t = Arc::clone(tally);
    let builder = w.builder(seed, scratch);
    let (builder, pool) = match w.spec() {
        BackendSpec::Behavioural(cfg) => (
            builder.backend_ctor(TRACE_ID, move || {
                Box::new(TracingBackend::behavioural(cfg, Arc::clone(&t)))
            }),
            None,
        ),
        BackendSpec::Proc(spec) => {
            let pool = Arc::new(
                spawn_shared(&spec).map_err(|e| format!("{}: pool spawn failed: {e}", w.name()))?,
            );
            // The registry keeps the constructor after the trial; a weak
            // handle lets the pool drop when the trial ends.
            let weak = Arc::downgrade(&pool);
            let ctor = move || -> Box<dyn SimBackend> {
                let shared = weak.upgrade().expect("the pool outlives its campaign");
                Box::new(TracingBackend::proc(
                    ProcBackend::from_shared((*shared).clone()),
                    Arc::clone(&t),
                ))
            };
            (builder.backend_ctor(TRACE_ID, ctor), Some(pool))
        }
        spec => (
            builder.backend_ctor(TRACE_ID, move || {
                Box::new(TracingBackend::plain(spec.build(), Arc::clone(&t)))
            }),
            None,
        ),
    };
    let trial = timed_run(build(w, builder)?, w.iterations())?;
    let respawns = pool.as_ref().map_or(0, |p| p.respawns());
    Ok((trial, respawns))
}

/// The in-process replay of recorded pool requests.
#[derive(Debug, Default)]
pub struct Replay {
    /// `IftMode::Base` replays.
    pub base: ModeTally,
    /// Taint-mode replays.
    pub taint: ModeTally,
    /// Replies that differ from the pool's.
    pub mismatches: usize,
}

impl Replay {
    /// Requests replayed.
    pub fn sims(&self) -> u64 {
        self.base.sims + self.taint.sims
    }

    /// Host nanoseconds of all replays.
    pub fn nanos(&self) -> u64 {
        self.base.nanos + self.taint.nanos
    }
}

/// Runs `recorded` through an in-process `NetlistBackend::run` on
/// `scale`, timing each run and checking each reply against the pool's.
pub fn replay(recorded: &[Recorded], scale: CoreScale) -> Replay {
    let mut backend = NetlistBackend::synthetic(scale);
    let mut out = Replay::default();
    for r in recorded {
        let start = Instant::now();
        let result = backend.run(&r.plan, &r.schedule, r.mode, r.max_cycles);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let class = if r.mode == dejavuzz_ift::IftMode::Base {
            &mut out.base
        } else {
            &mut out.taint
        };
        class.sims += 1;
        class.nanos += nanos;
        match result {
            Ok(o) => {
                class.cycles += o.total_cycles.0;
                if fingerprint(&o) != r.fingerprint {
                    out.mismatches += 1;
                }
            }
            Err(_) => out.mismatches += 1,
        }
    }
    out
}
