//! Campaign benchmark for the DejaVuzz engine.
//!
//! Three workloads ([`Workload`]) each run a fixed-budget campaign at a
//! seed given on the command line, repeatedly, timed from outside the
//! engine. [`end_to_end`] reports what a user of the fuzzer sees, with
//! metric recording off and the plain backend spec. [`traced`] wraps the
//! backend, turns recording on, probes the netlist simulator and splits
//! each workload's time into the engine's layers. Both check the
//! campaign's outputs. See README.md for the metric map.

pub mod digest;
pub mod heap;
pub mod probe;
pub mod run;
pub mod sys;
pub mod trace;
pub mod workload;

use std::path::Path;
use std::time::{Duration, Instant};

use dejavuzz::metrics::handles;
use dejavuzz_ift::CoverageMatrix;
use dejavuzz_telemetry::{set_recording, Histogram};

use crate::run::{plain_trial, replay, require_worker_binary, setup_once, traced_trial, Trial};
use crate::sys::{median, quartiles};
use crate::trace::SharedTally;
pub use crate::workload::Workload;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the value is taken over (samples, spread, base).
    pub basis: String,
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Campaign iterations attempted across every trial.
    pub attempted: usize,
    /// Iterations that failed on a backend error.
    pub failed: usize,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
}

impl Outcome {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, basis: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            basis,
        });
    }

    /// A median-of-samples metric, with its quartiles and sample count.
    fn push_median(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        let (q1, q3) = quartiles(samples);
        let basis = format!("median of {}, IQR [{q1:.4}, {q3:.4}]", samples.len());
        self.push(name, median(samples), unit, basis);
    }

    /// Applies the per-trial output checks and counts the trial.
    fn check(&mut self, w: Workload, label: &str, trial: &Trial, expect_digest: u64) {
        let stats = &trial.report.stats;
        self.attempted += stats.iterations;
        self.failed += stats.failed_runs;
        let mut fail = |what: String| self.failures.push(format!("{label}: {what}"));
        if stats.iterations != w.iterations() {
            fail(format!(
                "ran {} iterations, budget {}",
                stats.iterations,
                w.iterations()
            ));
        }
        if stats.failed_runs != 0 {
            fail(format!("{} failed runs", stats.failed_runs));
        }
        if trial.report.shared_points != trial.report.coverage.points() {
            fail("concurrent and canonical coverage disagree".into());
        }
        if trial.digest != expect_digest {
            fail(format!(
                "digest {:016x} differs from the first trial's {expect_digest:016x}",
                trial.digest
            ));
        }
    }
}

/// A scratch directory for one process, removed when dropped.
#[derive(Debug)]
pub struct Scratch(std::path::PathBuf);

impl Scratch {
    /// Creates `<root>/<pid>`.
    pub fn new(root: &Path) -> Result<Self, String> {
        let dir = root.join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create scratch dir {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set-ups measured per run: at least this many, and more while they
/// take less than a tenth of the run.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 10_000;
/// Timed rounds per end-to-end run: at least this many, and more while
/// the next one is expected to finish within the run's seconds.
const MIN_ROUNDS: usize = 2;

/// Totals of one round: every campaign of the run, once.
#[derive(Debug, Default)]
struct Round {
    seeds: f64,
    sims: f64,
    wall_s: f64,
    cpu_s: f64,
}

/// The end-to-end run. A first, untimed round runs every campaign once
/// with the heap counted: it warms caches and the allocator, fixes each
/// campaign's digest and gives its peak heap. Timed rounds follow for
/// nine tenths of `seconds` (each round's totals are one sample), then
/// set-ups for the rest.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64, scratch: &Path) -> Result<Outcome, String> {
    require_worker_binary(w)?;
    set_recording(false);
    let mut out = Outcome::default();
    let campaigns = w.campaign_seeds(seed);

    let started = Instant::now();
    let mut first: Vec<Trial> = Vec::new();
    let mut heaps: Vec<f64> = Vec::new();
    for &campaign in &campaigns {
        heap::start();
        let trial = plain_trial(w, campaign, scratch);
        heaps.push(heap::stop());
        let trial = trial?;
        let label = format!("campaign {campaign}, warm-up");
        out.check(w, &label, &trial, trial.digest);
        first.push(trial);
    }

    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let mut round = Round::default();
        for (warm, &campaign) in first.iter().zip(&campaigns) {
            let trial = plain_trial(w, campaign, scratch)?;
            let label = format!("campaign {campaign}, round {}", rounds.len() + 1);
            out.check(w, &label, &trial, warm.digest);
            round.seeds += trial.report.stats.iterations as f64;
            round.sims += trial.report.stats.sim_runs as f64;
            round.wall_s += trial.wall_s;
            round.cpu_s += trial.cpu_s;
        }
        rounds.push(round);
        let spent = started.elapsed().as_secs_f64();
        let per_round = spent / (rounds.len() + 1) as f64;
        if rounds.len() >= MIN_ROUNDS && spent + per_round > 0.9 * seconds {
            break;
        }
    }

    let mut setups = Vec::new();
    let started = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < seconds / 10.0)
    {
        let campaign = campaigns[setups.len() % campaigns.len()];
        setups.push(setup_once(w, campaign, scratch)?);
    }

    let per = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    out.push_median("seeds_per_s", &per(&|r| r.seeds / r.wall_s), "1/s");
    out.push_median("sims_per_s", &per(&|r| r.sims / r.wall_s), "1/s");
    out.push_median("cpu_ms_per_seed", &per(&|r| r.cpu_s * 1e3 / r.seeds), "ms");
    out.push_median("setup_s", &setups, "s");
    out.push_median("peak_heap_mb", &heaps, "MiB");
    let mut union = CoverageMatrix::new();
    for t in &first {
        union.merge(&t.report.coverage);
    }
    out.push(
        "coverage_points",
        union.points() as f64,
        "count",
        format!(
            "union over {} campaigns of {} seeds",
            first.len(),
            w.iterations()
        ),
    );
    Ok(out)
}

/// Sum and count of a histogram, to take deltas across a traced trial.
fn hist(h: &Histogram) -> (f64, f64) {
    (h.sum() as f64, h.count() as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `q`-quantile (nearest rank) of `v`, or 0 when empty.
fn percentile(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// The traced run: plain and traced trials alternate for most of
/// `seconds` (their wall-time ratio is the tracing overhead, their
/// digests must agree), then the netlist probe and, for the pool, the
/// in-process replay of recorded requests.
pub fn traced(w: Workload, seed: u64, seconds: f64, scratch: &Path) -> Result<Outcome, String> {
    require_worker_binary(w)?;
    set_recording(false);
    let mut out = Outcome::default();
    let m = handles();
    let hists = [
        &m.plan_nanos,
        &m.slot_run_nanos,
        &m.census_nanos,
        &m.snapshot_write_nanos,
        &m.pool_rpc_nanos,
    ];
    let before: Vec<(f64, f64)> = hists.iter().map(|h| hist(h)).collect();

    let campaigns = w.campaign_seeds(seed);
    let mut overheads: Vec<f64> = Vec::new();
    let mut traced: Vec<Trial> = Vec::new();
    let shared_tally = SharedTally::default();
    let mut respawns = 0;
    let started = Instant::now();
    loop {
        let campaign = campaigns[traced.len() % campaigns.len()];
        let plain = plain_trial(w, campaign, scratch)?;
        out.check(
            w,
            &format!("campaign {campaign}, plain"),
            &plain,
            plain.digest,
        );

        set_recording(true);
        let result = traced_trial(w, campaign, scratch, &shared_tally);
        set_recording(false);
        let (trial, trial_respawns) = result?;
        out.check(
            w,
            &format!("campaign {campaign}, traced"),
            &trial,
            plain.digest,
        );
        overheads.push(trial.wall_s / plain.wall_s - 1.0);
        traced.push(trial);
        respawns += trial_respawns;

        let spent = started.elapsed().as_secs_f64();
        let per_pair = spent / traced.len() as f64;
        if spent + per_pair > 0.8 * seconds {
            break;
        }
    }
    let after: Vec<(f64, f64)> = hists.iter().map(|h| hist(h)).collect();
    let tally = std::mem::take(&mut *shared_tally.lock().expect("tally lock poisoned"));
    if tally.errors > 0 {
        out.failures
            .push(format!("traced trials: {} backend errors", tally.errors));
    }
    let delta = |i: usize| (after[i].0 - before[i].0, after[i].1 - before[i].1);
    let (plan, slot, census, snap, rpc) = (delta(0), delta(1), delta(2), delta(3), delta(4));

    let n = traced.len() as f64;
    let seeds: f64 = traced
        .iter()
        .map(|t| t.report.stats.iterations as f64)
        .sum();
    let wall: f64 = traced.iter().map(|t| t.wall_s).sum();
    let busy: f64 = traced.iter().map(|t| t.report.busy_nanos as f64).sum();
    let sum = |f: &dyn Fn(&Trial) -> u64| traced.iter().map(|t| f(t) as f64).sum::<f64>();
    let sims = tally.sims() as f64;
    let sim_nanos = (tally.base.nanos + tally.taint.nanos) as f64;
    let per_trial = format!("per trial of {} seeds, {} traced trials", w.iterations(), n);
    let per_seed = format!("over {seeds} traced seeds");
    let per_sim = format!("over {sims} traced sims");

    out.push(
        "executor.busy_share",
        ratio(busy, w.workers() as f64 * wall * 1e9),
        "share",
        format!("busy_nanos / ({} workers x wall)", w.workers()),
    );
    out.push(
        "executor.barrier_idle_ms",
        sum(&|t| t.report.barrier_idle_nanos) / n / 1e6,
        "ms",
        per_trial.clone(),
    );
    out.push(
        "executor.view_setup_ms",
        sum(&|t| t.report.view_setup_nanos) / n / 1e6,
        "ms",
        per_trial.clone(),
    );
    out.push(
        "executor.plan_ms",
        plan.0 / n / 1e6,
        "ms",
        per_trial.clone(),
    );
    out.push(
        "executor.slot_ms_mean",
        ratio(slot.0, slot.1) / 1e6,
        "ms",
        format!("over {} slots", slot.1),
    );

    out.push(
        "phase1.sims_per_seed",
        tally.base.sims as f64 / seeds,
        "count",
        per_seed.clone(),
    );
    out.push(
        "phase1.ms_per_seed",
        tally.base.nanos as f64 / seeds / 1e6,
        "ms",
        per_seed.clone(),
    );
    out.push(
        "phase23.sims_per_seed",
        tally.taint.sims as f64 / seeds,
        "count",
        per_seed.clone(),
    );
    out.push(
        "phase23.ms_per_seed",
        tally.taint.nanos as f64 / seeds / 1e6,
        "ms",
        per_seed.clone(),
    );
    out.push(
        "phases.self_ms_per_seed",
        (busy - sim_nanos) / seeds / 1e6,
        "ms",
        "busy minus backend time, ".to_string() + &per_seed,
    );

    out.push(
        "ift.census_fold_ms_per_seed",
        census.0 / seeds / 1e6,
        "ms",
        per_seed.clone(),
    );
    out.push(
        "ift.taint_log_cycles_per_sim",
        ratio(tally.taint_log_cycles as f64, sims),
        "count",
        per_sim.clone(),
    );

    let core_runs = tally.core_run_nanos.len() as f64;
    out.push(
        "uarch.build_mem_us",
        ratio(tally.build_mem_nanos as f64, core_runs) / 1e3,
        "us",
        format!("mean over {core_runs} behavioural sims"),
    );
    out.push(
        "uarch.core_run_us_p50",
        percentile(&tally.core_run_nanos, 0.5) / 1e3,
        "us",
        format!("over {core_runs} behavioural sims"),
    );
    out.push(
        "uarch.core_run_us_p99",
        percentile(&tally.core_run_nanos, 0.99) / 1e3,
        "us",
        format!("over {core_runs} behavioural sims"),
    );

    // The pool's requests, replayed in-process on the same netlist.
    let replayed = match w.netlist_scale() {
        Some(scale) if !tally.recorded.is_empty() => {
            let r = replay(&tally.recorded, scale);
            if r.mismatches > 0 {
                out.failures.push(format!(
                    "{} of {} replayed pool requests answered differently in-process",
                    r.mismatches,
                    r.sims()
                ));
            }
            Some(r)
        }
        _ => None,
    };

    // The netlist sub-layers, priced at the campaign's cycles per sim and
    // compared with the measured netlist time: the wrapper's for the
    // in-process netlist, the replay's for the pool.
    let (base, taint, measured) = match (&replayed, w.netlist_scale()) {
        (Some(r), _) => (r.base, r.taint, r.nanos() as f64),
        (None, Some(_)) => (tally.base, tally.taint, sim_nanos),
        (None, None) => Default::default(),
    };
    let netlist_sims = (base.sims + taint.sims) as f64;
    let cycles = (base.cycles + taint.cycles) as f64;
    let cycles_per_sim = ratio(cycles, netlist_sims);
    let budget = Duration::from_secs_f64((0.1 * seconds).max(0.5));
    let probed = w
        .netlist_scale()
        .map(|scale| probe::probe(scale, cycles_per_sim.round() as u64, budget));
    let costs = probed.unwrap_or_default();
    let by_sims =
        |b: f64, t: f64| ratio(b * base.sims as f64 + t * taint.sims as f64, netlist_sims);
    let by_cycles =
        |b: f64, t: f64| ratio(b * base.cycles as f64 + t * taint.cycles as f64, cycles);
    let rtl_basis = format!("probe at {cycles_per_sim:.1} cycles/sim over {netlist_sims} sims");
    out.push(
        "rtl.setup_ms",
        by_sims(costs.base.setup, costs.taint.setup) / 1e6,
        "ms",
        rtl_basis.clone(),
    );
    out.push(
        "rtl.eval_comb_us_per_cycle",
        by_cycles(costs.base.eval_comb, costs.taint.eval_comb) / 1e3,
        "us",
        rtl_basis.clone(),
    );
    out.push(
        "rtl.clock_edge_us_per_cycle",
        by_cycles(costs.base.clock_edge, costs.taint.clock_edge) / 1e3,
        "us",
        rtl_basis.clone(),
    );
    out.push(
        "rtl.census_us_per_cycle",
        costs.taint.census / 1e3,
        "us",
        "taint-mode cycles only".into(),
    );
    out.push(
        "rtl.sink_sweep_us",
        by_sims(costs.base.sink_sweep, costs.taint.sink_sweep) / 1e3,
        "us",
        rtl_basis.clone(),
    );
    out.push("rtl.cycles_per_sim", cycles_per_sim, "count", rtl_basis);
    let attributed = if probed.is_some() {
        ratio(costs.model(&base, &taint), measured)
    } else {
        0.0
    };
    out.push(
        "rtl.attributed_share",
        attributed,
        "share",
        format!("probe model / {measured:.0} ns measured netlist time"),
    );

    let rpc_mean = ratio(rpc.0, rpc.1);
    let inproc_mean = replayed
        .as_ref()
        .map_or(0.0, |r| ratio(r.nanos() as f64, r.sims() as f64));
    out.push(
        "procsim.rpc_us_mean",
        rpc_mean / 1e3,
        "us",
        format!("over {} RPCs", rpc.1),
    );
    out.push(
        "procsim.rpc_overhead_us",
        if rpc.1 > 0.0 {
            (rpc_mean - inproc_mean) / 1e3
        } else {
            0.0
        },
        "us",
        format!(
            "RPC mean minus in-process run mean over {} replayed requests",
            replayed.as_ref().map_or(0, |r| r.sims())
        ),
    );
    out.push(
        "procsim.rpcs_per_seed",
        rpc.1 / seeds,
        "count",
        per_seed.clone(),
    );
    out.push(
        "procsim.respawns",
        respawns as f64,
        "count",
        format!("over {n} traced trials"),
    );

    out.push(
        "snapshot.write_ms_mean",
        ratio(snap.0, snap.1) / 1e6,
        "ms",
        format!("over {} checkpoints", snap.1),
    );
    let snap_bytes = std::fs::read_dir(scratch)
        .map(|d| {
            d.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0);
    out.push(
        "snapshot.bytes",
        snap_bytes as f64,
        "B",
        "final checkpoint file".into(),
    );

    let per_campaign = format!("mean of {n} campaigns of {} seeds", w.iterations());
    out.push(
        "corpus.retained",
        sum(&|t| t.report.corpus_retained as u64) / n,
        "count",
        per_campaign.clone(),
    );
    out.push(
        "corpus.evicted",
        sum(&|t| t.report.corpus_evicted as u64) / n,
        "count",
        per_campaign.clone(),
    );
    out.push(
        "bugs",
        sum(&|t| t.report.stats.bugs.len() as u64) / n,
        "count",
        format!("deduplicated, {per_campaign}"),
    );
    out.push(
        "failed_share",
        ratio(out.failed as f64, out.attempted as f64),
        "share",
        format!("over {} attempted seeds", out.attempted),
    );
    out.push(
        "tracing.overhead_share",
        median(&overheads),
        "share",
        format!("median of traced / plain wall - 1 over {n} campaign pairs"),
    );
    Ok(out)
}
