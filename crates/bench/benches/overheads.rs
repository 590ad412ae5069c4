//! Criterion micro-benchmarks backing Table 4's per-mode costs: attack
//! simulation under Base / CellIFT / diffIFT, instrumentation passes, the
//! `SimBackend` dispatch seam, and a short single-worker campaign end to
//! end. Campaign throughput is campbench's (`campbench/`).

use criterion::{criterion_group, criterion_main, Criterion};
use dejavuzz::backend::{BackendSpec, BehaviouralBackend, SimBackend};
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::gen::WindowType;
use dejavuzz::phases::{phase1, PhaseOptions};
use dejavuzz::Seed;
use dejavuzz_ift::IftMode;
use dejavuzz_rtl::examples::{synthetic_core, CoreScale};
use dejavuzz_rtl::instrument;
use dejavuzz_uarch::core::Core;
use dejavuzz_uarch::{attacks, boom_small};

fn sim_modes(c: &mut Criterion) {
    let case = attacks::spectre_v1();
    let mut g = c.benchmark_group("spectre_v1_simulation");
    for mode in IftMode::ALL {
        g.bench_function(mode.name(), |b| {
            b.iter(|| {
                let mut mem = case.build_mem(&dejavuzz_specdoctor::SECRET);
                Core::new(boom_small(), mode).run(&mut mem, 20_000)
            })
        });
    }
    g.finish();
}

fn instrument_passes(c: &mut Criterion) {
    let scale = CoreScale {
        name: "bench",
        verilog_loc: 0,
        comb_cells: 2_000,
        regs: 400,
        mems: (4, 128),
    };
    let netlist = synthetic_core(scale);
    let mut g = c.benchmark_group("instrumentation");
    for mode in [IftMode::DiffIft, IftMode::CellIft] {
        g.bench_function(mode.name(), |b| b.iter(|| instrument(&netlist, mode)));
    }
    g.finish();
}

/// The `SimBackend` seam: one phase-1 workload statically dispatched on
/// `BehaviouralBackend` and dyn-dispatched through `Box<dyn SimBackend>`,
/// as a pool worker runs it. One virtual call per simulation should be
/// noise against the simulation (under 2% on the behavioural path).
fn backend_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("backends");
    let seed = Seed::new(WindowType::BranchMispredict, 7);
    let opts = PhaseOptions::default();
    g.bench_function("phase1_behavioural_static", |b| {
        let mut backend = BehaviouralBackend::new(boom_small());
        b.iter(|| phase1(&mut backend, &seed, &opts).unwrap())
    });
    g.bench_function("phase1_behavioural_dyn", |b| {
        let mut backend: Box<dyn SimBackend> = BackendSpec::default().build();
        b.iter(|| phase1(backend.as_mut(), &seed, &opts).unwrap())
    });
    g.finish();
}

/// Eight iterations of a prebuilt single-worker campaign per sample: the
/// run spawns its worker thread and simulator, so per-iteration cost is
/// the sample over 8.
fn fuzz_iteration(c: &mut Criterion) {
    c.bench_function("fuzz_iteration", |b| {
        let orch = CampaignBuilder::new()
            .backend(BackendSpec::behavioural(boom_small()))
            .seed(1)
            .build()
            .expect("a valid bench configuration");
        b.iter(|| orch.run(8))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = sim_modes, instrument_passes, backend_dispatch, fuzz_iteration
}
criterion_main!(benches);
