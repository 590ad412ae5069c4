//! End-to-end fuzzing throughput: the same iteration budget on a
//! single-worker pool vs. multi-worker shared-corpus pools. The
//! acceptance bar for the executor refactor is that N ≥ 2 workers beat
//! one worker's wall-clock on a multicore host.
//!
//! The `backends` group measures the `SimBackend` seam itself: the same
//! phase-1 workload statically dispatched on `BehaviouralBackend` vs.
//! dyn-dispatched through `Box<dyn SimBackend>` (the acceptance bar for
//! the seam is <2% overhead on the behavioural path — one virtual call
//! per simulation is noise against the simulation), plus one
//! netlist-backend campaign round for the CI smoke.

use criterion::{criterion_group, criterion_main, Criterion};
use dejavuzz::backend::{BackendSpec, BehaviouralBackend, SimBackend};
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::gen::WindowType;
use dejavuzz::phases::{phase1, PhaseOptions};
use dejavuzz::Seed;
use dejavuzz_rtl::examples::SMALL_SCALE;
use dejavuzz_uarch::boom_small;

/// Enough work per measurement that thread startup and channel traffic
/// are noise, small enough to keep the bench quick.
const ITERATIONS: usize = 24;

fn pool_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor_throughput");
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    // Always bench 1 vs 2 so the scaling row exists even on small hosts
    // (on a single hardware thread the 2-worker pool is work-conserving
    // and lands within noise of 1 worker); wider pools only where the
    // cores exist to back them.
    for workers in [1, 2, 4, 8] {
        if workers > 2 && workers > available {
            continue;
        }
        g.bench_function(&format!("{ITERATIONS}_iters_{workers}_workers"), |b| {
            b.iter(|| {
                CampaignBuilder::new()
                    .backend(BackendSpec::behavioural(boom_small()))
                    .workers(workers)
                    .seed(7)
                    .build()
                    .expect("a valid bench configuration")
                    .run(ITERATIONS)
            })
        });
    }
    g.finish();
}

fn backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("backends");
    let seed = Seed::new(WindowType::BranchMispredict, 7);
    let opts = PhaseOptions::default();

    // Static dispatch: the monomorphised generic call, equivalent to the
    // old direct phases-on-Core path.
    g.bench_function("phase1_behavioural_static", |b| {
        let mut backend = BehaviouralBackend::new(boom_small());
        b.iter(|| phase1(&mut backend, &seed, &opts).unwrap())
    });
    // Dyn dispatch: what a pool worker actually does.
    g.bench_function("phase1_behavioural_dyn", |b| {
        let mut backend: Box<dyn SimBackend> = BackendSpec::default().build();
        b.iter(|| phase1(backend.as_mut(), &seed, &opts).unwrap())
    });
    // One netlist-backend campaign round (the CI bench-smoke netlist run).
    g.bench_function("campaign_netlist_small", |b| {
        b.iter(|| {
            CampaignBuilder::new()
                .backend(BackendSpec::netlist(SMALL_SCALE))
                .seed(7)
                .build()
                .expect("a valid bench configuration")
                .run(8)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = pool_scaling, backends
}
criterion_main!(benches);
