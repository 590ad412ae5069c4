//! Emits `BENCH_throughput.json`: seeds/s per backend, barriered and
//! pipelined, wall clock and modelled dedicated-core makespan, for the CI
//! artifact that tracks the perf trajectory across PRs.
//!
//! ```sh
//! cargo run --release -p dejavuzz-bench --bin throughput_json -- \
//!     --iters 48 --workers 4 --out BENCH_throughput.json
//! ```
//!
//! The modelled makespan is the comparison number for the pipeline: it
//! replays each round's measured per-slot costs over `workers` dedicated
//! cores with greedy claiming, so the barrier idle the pipeline removes
//! shows even on a one-core CI runner where wall clock is work-bound
//! either way.

use dejavuzz_bench::{arg_or, throughput_json, throughput_sample};
use dejavuzz_rtl::examples::SMALL_SCALE;
use dejavuzz_uarch::boom_small;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let iters = arg_or(&args, "--iters", 48);
    let workers = arg_or(&args, "--workers", 4);
    let seed = arg_or(&args, "--seed", 7) as u64;
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_throughput.json".to_string());

    let backends = [
        dejavuzz::BackendSpec::behavioural(boom_small()),
        dejavuzz::BackendSpec::netlist(SMALL_SCALE),
    ];
    // Process-pool rows: pool sizes 1/2/4 against the same inner backend,
    // so the artifact tracks protocol overhead (M=1 vs in-process) and
    // scaling (M=2, M=4). Skipped with a note when the worker binary is
    // not built alongside (`cargo build --release` first).
    let pool_backends: Vec<dejavuzz::BackendSpec> =
        if dejavuzz::procbackend::worker_binary().is_some() {
            [1usize, 2, 4]
                .iter()
                .map(|m| {
                    dejavuzz::BackendSpec::parse(&format!("proc:netlist:small:{m}"), boom_small())
                        .expect("a valid proc spec")
                })
                .collect()
        } else {
            eprintln!(
                "throughput_json: dejavuzz-simd not found next to this binary; \
                 skipping the process-pool rows"
            );
            Vec::new()
        };

    let mut samples = Vec::new();
    for backend in backends.iter().chain(&pool_backends) {
        // Barriered rounds, then the cross-round pipeline.
        for pipelined in [false, true] {
            let s = throughput_sample(backend, workers, iters, seed, pipelined);
            eprintln!(
                "{:<24} lag {} {} workers: {:>8.1} seeds/s wall, {:>8.1} seeds/s modelled \
                 ({:.3}s busy over {:.3}s modelled makespan, {:.3}s barrier idle)",
                s.backend,
                u8::from(s.pipelined),
                s.workers,
                s.seeds_per_sec,
                s.modelled_seeds_per_sec,
                s.busy.as_secs_f64(),
                s.modelled_makespan.as_secs_f64(),
                s.barrier_idle_nanos as f64 / 1e9,
            );
            samples.push(s);
        }
    }

    let json = throughput_json(&samples);
    print!("{json}");
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("throughput_json: cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("throughput_json: wrote {out}");
}
