//! The tracing [`SimBackend`] wrapper the traced run installs through
//! `CampaignBuilder::backend_ctor`. It times every `run` by IFT mode and
//! counts cycles and taint-log length per sim. For the behavioural core it
//! re-runs the backend's two steps itself, timing `build_mem` apart from
//! `Core::run`; for a process pool it keeps a sample of the requests so
//! they can be replayed in-process afterwards.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dejavuzz::phases::{build_mem, DEFAULT_SECRET};
use dejavuzz::{BackendError, ProcBackend, RunOutcome, SimBackend, TransientPlan};
use dejavuzz_ift::IftMode;
use dejavuzz_swapmem::SwapPacket;
use dejavuzz_uarch::core::Core;
use dejavuzz_uarch::CoreConfig;

use crate::digest::Fnv;

/// Requests a proc wrapper keeps for the in-process replay.
pub const REPLAY_SAMPLE: usize = 3000;

/// Sims of one IFT-mode class.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModeTally {
    /// Backend runs.
    pub sims: u64,
    /// Host time inside `run`.
    pub nanos: u64,
    /// Simulated cycles (first plane).
    pub cycles: u64,
}

/// One proc request kept for replay, with what the pool answered.
#[derive(Debug)]
pub struct Recorded {
    /// The request.
    pub plan: TransientPlan,
    /// Its swap schedule.
    pub schedule: Vec<SwapPacket>,
    /// Its IFT mode.
    pub mode: IftMode,
    /// Its cycle budget.
    pub max_cycles: u64,
    /// [`fingerprint`] of the pool's reply.
    pub fingerprint: u64,
}

/// Everything the wrappers of a traced run's campaigns record.
#[derive(Debug, Default)]
pub struct Tally {
    /// `IftMode::Base` sims: phase 1 trigger evaluation and reduction.
    pub base: ModeTally,
    /// Taint-tracking sims: phase 2 exploration and mutation retries,
    /// phase 3 sanitized re-runs.
    pub taint: ModeTally,
    /// Census entries (cycles) in the returned taint logs.
    pub taint_log_cycles: u64,
    /// Behavioural only: time building the swap memory.
    pub build_mem_nanos: u64,
    /// Behavioural only: each `Core::run`.
    pub core_run_nanos: Vec<u64>,
    /// Proc only: the first [`REPLAY_SAMPLE`] requests.
    pub recorded: Vec<Recorded>,
    /// Runs that returned an error.
    pub errors: u64,
}

impl Tally {
    /// All sims, either mode.
    pub fn sims(&self) -> u64 {
        self.base.sims + self.taint.sims
    }
}

/// The tally every wrapper of a traced run records into.
pub type SharedTally = Arc<Mutex<Tally>>;

/// A digest of what the phases read from an outcome: cycles, packets,
/// taint sums, sinks and the RoB trace length.
pub fn fingerprint(o: &RunOutcome) -> u64 {
    let mut h = Fnv::new();
    h.debug(&(o.total_cycles, o.packets_run, o.trace.events().len()));
    h.debug(&o.taint_log.taint_sums());
    h.debug(&o.sinks);
    h.finish()
}

#[derive(Debug)]
enum Inner {
    /// The behavioural core, run in two timed steps.
    Behavioural(Box<CoreConfig>),
    /// A process pool; requests are recorded for replay.
    Proc(ProcBackend),
    /// Any other backend, timed as a whole.
    Plain(Box<dyn SimBackend>),
}

/// The wrapper. Results are the inner backend's, unchanged.
#[derive(Debug)]
pub struct TracingBackend {
    inner: Inner,
    tally: SharedTally,
}

impl TracingBackend {
    /// Wraps the behavioural core `cfg`.
    pub fn behavioural(cfg: CoreConfig, tally: SharedTally) -> Self {
        TracingBackend {
            inner: Inner::Behavioural(Box::new(cfg)),
            tally,
        }
    }

    /// Wraps a handle onto a shared process pool.
    pub fn proc(backend: ProcBackend, tally: SharedTally) -> Self {
        TracingBackend {
            inner: Inner::Proc(backend),
            tally,
        }
    }

    /// Wraps any other backend.
    pub fn plain(backend: Box<dyn SimBackend>, tally: SharedTally) -> Self {
        TracingBackend {
            inner: Inner::Plain(backend),
            tally,
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl SimBackend for TracingBackend {
    fn name(&self) -> &'static str {
        match &self.inner {
            Inner::Behavioural(_) => "behavioural",
            Inner::Proc(b) => b.name(),
            Inner::Plain(b) => b.name(),
        }
    }

    fn dut_name(&self) -> &'static str {
        match &self.inner {
            Inner::Behavioural(cfg) => cfg.name,
            Inner::Proc(b) => b.dut_name(),
            Inner::Plain(b) => b.dut_name(),
        }
    }

    fn supports_taint(&self) -> bool {
        match &self.inner {
            Inner::Behavioural(_) => true,
            Inner::Proc(b) => b.supports_taint(),
            Inner::Plain(b) => b.supports_taint(),
        }
    }

    fn run(
        &mut self,
        plan: &TransientPlan,
        schedule: &[SwapPacket],
        mode: IftMode,
        max_cycles: u64,
    ) -> Result<RunOutcome, BackendError> {
        let start = Instant::now();
        let mut split = None;
        let result = match &mut self.inner {
            Inner::Behavioural(cfg) => {
                let mut mem = build_mem(plan, schedule, &DEFAULT_SECRET);
                let built = start.elapsed();
                let core = Instant::now();
                let out: RunOutcome = Core::new(**cfg, mode).run(&mut mem, max_cycles).into();
                split = Some((nanos(built), nanos(core.elapsed())));
                Ok(out)
            }
            Inner::Proc(b) => b.run(plan, schedule, mode, max_cycles),
            Inner::Plain(b) => b.run(plan, schedule, mode, max_cycles),
        };
        let elapsed = nanos(start.elapsed());

        let mut t = self.tally.lock().expect("tally lock poisoned");
        let out = match &result {
            Ok(out) => out,
            Err(_) => {
                t.errors += 1;
                return result;
            }
        };
        let class = if mode == IftMode::Base {
            &mut t.base
        } else {
            &mut t.taint
        };
        class.sims += 1;
        class.nanos += elapsed;
        class.cycles += out.total_cycles.0;
        t.taint_log_cycles += out.taint_log.len() as u64;
        if let Some((build, core)) = split {
            t.build_mem_nanos += build;
            t.core_run_nanos.push(core);
        }
        if matches!(self.inner, Inner::Proc(_)) && t.recorded.len() < REPLAY_SAMPLE {
            t.recorded.push(Recorded {
                plan: plan.clone(),
                schedule: schedule.to_vec(),
                mode,
                max_cycles,
                fingerprint: fingerprint(out),
            });
        }
        drop(t);
        result
    }
}
