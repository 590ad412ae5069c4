//! The benchmark's own output contracts: a process pool computes the
//! same campaign as the in-process backend it wraps, and tracing changes
//! no result.

use std::path::PathBuf;

use campbench::digest::campaign_digest;
use campbench::run::{plain_trial, traced_trial};
use campbench::trace::SharedTally;
use campbench::Workload;
use dejavuzz::BackendSpec;
use dejavuzz_rtl::examples::SMALL_SCALE;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn proc_netlist_small_digest_equals_in_process_netlist_small() {
    let dir = scratch("proc-vs-in-process");
    let w = Workload::ProcNetlistSmall;
    for seed in [3, 7000] {
        let pooled = plain_trial(w, seed, &dir).expect("pool trial runs");
        let in_process = w
            .builder(seed, &dir)
            .backend(BackendSpec::netlist(SMALL_SCALE))
            .build()
            .expect("in-process campaign builds")
            .run(w.iterations());
        assert_eq!(in_process.stats.iterations, w.iterations());
        assert_eq!(
            pooled.digest,
            campaign_digest(&in_process),
            "seed {seed}: pool and in-process campaigns differ"
        );
    }
}

/// One test, not one per workload: the trace wrapper is registered
/// under one process-global id.
#[test]
fn traced_trials_reproduce_plain_trials() {
    let dir = scratch("traced-vs-plain");
    for w in [Workload::BehaviouralBoom, Workload::ProcNetlistSmall] {
        let plain = plain_trial(w, 11, &dir).expect("plain trial runs");
        let tally = SharedTally::default();
        let (traced, _) = traced_trial(w, 11, &dir, &tally).expect("traced trial runs");
        assert_eq!(plain.digest, traced.digest, "{}", w.name());
        let tally = tally.lock().unwrap();
        assert_eq!(
            tally.sims() as usize,
            traced.report.stats.sim_runs,
            "{}: the wrapper saw every sim",
            w.name()
        );
        assert_eq!(tally.errors, 0);
    }
}
