//! The netlist-simulator sub-layer probe: drives a workload's netlist
//! through `NetlistSim::try_new`, `eval_comb`, `step`, `census` and
//! `sink_reports` for the measured cycles per sim, and prices each call.
//! Its model of a sim (setup + cycles x per-cycle costs + sink sweep) is
//! compared with the wrapper-measured run time to give the share of
//! netlist time the sub-layers account for.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dejavuzz_ift::{IftMode, TWord};
use dejavuzz_rtl::examples::{synthetic_core, CoreScale};
use dejavuzz_rtl::sim::NetlistSim;

use crate::trace::ModeTally;

/// Per-call costs of one IFT mode, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModeCosts {
    /// Netlist clone + `NetlistSim::try_new` + drop, per sim.
    pub setup: f64,
    /// `eval_comb`, per cycle.
    pub eval_comb: f64,
    /// `step` minus `eval_comb`: the clock edge, per cycle.
    pub clock_edge: f64,
    /// `census`, per cycle (taint modes only; the backend skips it in
    /// `IftMode::Base`).
    pub census: f64,
    /// `sink_reports`, per sim.
    pub sink_sweep: f64,
}

impl ModeCosts {
    /// Modelled host time of `t`'s sims, in nanoseconds.
    pub fn model(&self, t: &ModeTally) -> f64 {
        t.sims as f64 * (self.setup + self.sink_sweep)
            + t.cycles as f64 * (self.eval_comb + self.clock_edge + self.census)
    }
}

/// Probe results for both IFT-mode classes of the campaign.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtlCosts {
    /// `IftMode::Base` sims.
    pub base: ModeCosts,
    /// `IftMode::DiffIft` sims.
    pub taint: ModeCosts,
}

impl RtlCosts {
    /// Modelled host time of a campaign's sims, in nanoseconds.
    pub fn model(&self, base: &ModeTally, taint: &ModeTally) -> f64 {
        self.base.model(base) + self.taint.model(taint)
    }
}

/// Drives the inputs the way the netlist backend's stimulus protocol
/// does for synthetic cores (aux 0/1, control 2, index 3, data 4): mostly
/// untainted background words, with a secret access and a tainted store
/// every few cycles so registers, memories and sinks carry taint.
fn drive(sim: &mut NetlistSim, cycle: u64) {
    let word = cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    sim.set_input(0, TWord::lit(word));
    sim.set_input(1, TWord::lit(word.rotate_left(17)));
    let (data, control, index) = match cycle % 5 {
        2 => (TWord::secret(0x5AC3, !0x5AC3), 1, 0),
        3 => (TWord::with_taint(word, !word, u64::MAX), 1, 1),
        _ => (TWord::lit(word >> 3), 0, word % 8),
    };
    sim.set_input(4, data);
    sim.set_input(2, TWord::lit(control));
    sim.set_input(3, TWord::lit(index));
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Prices one mode: whole probe sims of `cycles` cycles each, until
/// `budget` is spent (at least three sims).
fn probe_mode(scale: CoreScale, mode: IftMode, cycles: u64, budget: Duration) -> ModeCosts {
    let netlist = synthetic_core(scale);
    let (mut setup, mut eval, mut step, mut census, mut sweep) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let cycles = cycles.max(1);
    let start = Instant::now();
    let mut sims = 0u64;
    while sims < 3 || start.elapsed() < budget {
        let t = Instant::now();
        let mut sim = NetlistSim::try_new(netlist.clone(), mode).expect("synthetic cores validate");
        setup += ns(t.elapsed());
        for c in 0..cycles {
            drive(&mut sim, c + sims);
            let t0 = Instant::now();
            sim.eval_comb();
            let t1 = Instant::now();
            sim.step();
            let t2 = Instant::now();
            if mode != IftMode::Base {
                black_box(sim.census());
            }
            let t3 = Instant::now();
            eval += ns(t1 - t0);
            step += ns(t2 - t1);
            census += ns(t3 - t2);
        }
        let t = Instant::now();
        black_box(sim.sink_reports());
        sweep += ns(t.elapsed());
        let t = Instant::now();
        drop(black_box(sim));
        setup += ns(t.elapsed());
        sims += 1;
    }
    let per_cycle = (sims * cycles) as f64;
    ModeCosts {
        setup: setup / sims as f64,
        eval_comb: eval / per_cycle,
        clock_edge: ((step - eval) / per_cycle).max(0.0),
        census: census / per_cycle,
        sink_sweep: sweep / sims as f64,
    }
}

/// Prices the sub-layers of `scale`'s netlist at `cycles` cycles per sim,
/// spending about `budget` of host time.
pub fn probe(scale: CoreScale, cycles: u64, budget: Duration) -> RtlCosts {
    RtlCosts {
        base: probe_mode(scale, IftMode::Base, cycles, budget / 2),
        taint: probe_mode(scale, IftMode::DiffIft, cycles, budget / 2),
    }
}
