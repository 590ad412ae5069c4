//! The DejaVuzz command-line fuzzer: the paper's fuzzing-pipeline entry
//! point (§5), wrapping the shared-corpus [`dejavuzz::executor`].
//!
//! ```sh
//! cargo run --release -p dejavuzz --bin dejavuzz-fuzz -- \
//!     --core xiangshan --iters 100 --workers 4 --seed 7
//! cargo run --release -p dejavuzz --bin dejavuzz-fuzz -- \
//!     --backend netlist:small --iters 20
//! # Checkpointed campaign, halted early, then resumed to completion:
//! cargo run --release -p dejavuzz --bin dejavuzz-fuzz -- \
//!     --iters 50 --workers 4 --snapshot camp.snap --snapshot-every 1 --halt-after 80
//! cargo run --release -p dejavuzz --bin dejavuzz-fuzz -- \
//!     --resume camp.snap --iters 50
//! ```
//!
//! All persistence chatter (checkpoint/resume notes) goes to stderr;
//! stdout carries only the campaign report — rendered by the library's
//! [`TextObserver`] (byte-identical to the historical inline report;
//! the resume tests of `tests/cli.rs` diff exactly this) or, under
//! `--telemetry json`, by
//! [`JsonLinesObserver`] as one JSON object per campaign event.

use dejavuzz::backend::BackendSpec;
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::campaign::FuzzerOptions;
use dejavuzz::observer::{CampaignObserver, JsonLinesObserver, TextObserver};
use dejavuzz::scheduler::{PolicySpec, SchedulerSpec};
use dejavuzz::snapshot::CampaignSnapshot;
use dejavuzz_uarch::{boom_small, xiangshan_minimal};

fn die(msg: std::fmt::Arguments<'_>) -> ! {
    eprintln!("dejavuzz-fuzz: {msg}");
    eprintln!("dejavuzz-fuzz: run with --help for usage");
    std::process::exit(2);
}

/// Strict optional flag lookup: a present flag must have a parseable
/// value — `--iters abc` is an error naming the flag, never a silent
/// fall-through to the default. A following `--flag` token is a missing
/// value, not a value: `--snapshot --halt-after 80` must not write a
/// snapshot to a file literally named "--halt-after".
fn opt_arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(v) = args.get(i + 1).filter(|v| !v.starts_with("--")) else {
        die(format_args!("{flag} requires a value"));
    };
    match v.parse() {
        Ok(v) => Some(v),
        Err(_) => die(format_args!("invalid value {v:?} for {flag}")),
    }
}

fn arg<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    opt_arg(args, flag).unwrap_or(default)
}

/// Every flag `main` reads that takes a value.
const VALUE_FLAGS: &[&str] = &[
    "--core",
    "--backend",
    "--iters",
    "--workers",
    "--seed",
    "--variant",
    "--scheduler",
    "--policy",
    "--scenarios",
    "--batch",
    "--pipeline-lag",
    "--snapshot",
    "--snapshot-every",
    "--snapshot-keep",
    "--halt-after",
    "--resume",
    "--shard",
    "--telemetry",
    "--metrics-out",
];

/// Every flag `main` reads that takes none.
const SWITCHES: &[&str] = &["--help", "-h", "--list-extensions"];

/// Exits 2 on the first argument `main` does not read: an unknown flag,
/// a repeated one, or a word that is not the value of the flag before it.
/// A typo must never run the default (`--sead 5` would otherwise fuzz seed
/// 42), and an appended override must never be dropped for the first
/// value (`--iters 1 --iters 3` would otherwise run 1). A value flag
/// followed by another flag has no value; `opt_arg` reports that.
fn check_args(args: &[String]) {
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        let takes_value = VALUE_FLAGS.contains(&a);
        if !takes_value && !SWITCHES.contains(&a) {
            if a.starts_with("--") {
                die(format_args!("unknown flag {a:?}"));
            }
            die(format_args!("unexpected argument {a:?}"));
        }
        if seen.contains(&a) {
            die(format_args!("repeated flag {a:?}"));
        }
        seen.push(a);
        let has_value = takes_value && args.get(i + 1).is_some_and(|v| !v.starts_with("--"));
        i += 1 + usize::from(has_value);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(&args[1..]);
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "dejavuzz-fuzz — transient-execution-bug fuzzing campaign\n\n\
             --core boom|xiangshan   behavioural DUT model (default boom)\n\
             --backend behavioural|netlist[:small|boom|xiangshan]|proc:<inner>:<M>\n\
             \u{20}                        simulation backend (default behavioural).\n\
             \u{20}                        proc:<inner>:<M> runs <inner> (e.g.\n\
             \u{20}                        netlist:boom) in a crash-isolated pool of M\n\
             \u{20}                        dejavuzz-simd worker processes; results stay\n\
             \u{20}                        byte-identical to in-process per (seed,\n\
             \u{20}                        workers, batch, pipelining), and a worker\n\
             \u{20}                        crash fails one run, never the campaign\n\
             --iters N               iterations per worker (default 50)\n\
             --workers N             pipeline workers sharing one corpus (default 1)\n\
             --seed N                RNG seed (default 42)\n\
             --variant full|star|minus|noliveness\n\n\
             scheduling (see EXPERIMENTS.md \"Schedulers & seed policies\"):\n\
             --scheduler steal       idle workers claim pre-drawn slots from a shared\n\
             \u{20}                        queue — deterministic per (seed, workers, batch)\n\
             \u{20}                        regardless of interleaving (the default and only\n\
             \u{20}                        scheduler)\n\
             --policy energy|favoured\n\
             \u{20}                        corpus pick policy: energy-decay roulette\n\
             \u{20}                        (default) or AFL-style favoured culling with\n\
             \u{20}                        per-window-type quotas\n\
             --scenarios F[,F]       enable scenario-template window families next to\n\
             \u{20}                        the eight built-in window types, each\n\
             \u{20}                        optionally parameterised:\n\
             \u{20}                        --scenarios zenbleed,nested-spec:depth=5\n\
             \u{20}                        (see EXPERIMENTS.md \"Scenario library\" and\n\
             \u{20}                        --list-extensions for the shipped families).\n\
             \u{20}                        Part of the replay identity: persisted in\n\
             \u{20}                        snapshots and adopted on --resume\n\
             --list-extensions       print every selectable scheduler, seed policy,\n\
             \u{20}                        backend and scenario family, then exit\n\
             --batch N               iteration slots per worker per round (default 4)\n\
             --pipeline-lag N        cross-round pipeline (default 0 = barriered\n\
             \u{20}                        rounds). Any N >= 1 pre-draws the next round\n\
             \u{20}                        from feedback lagging one round behind, so\n\
             \u{20}                        stragglers never idle the pool; every N >= 1\n\
             \u{20}                        gives the same results, deterministic per\n\
             \u{20}                        (seed, workers, batch)\n\n\
             checkpointing & sharding (see EXPERIMENTS.md):\n\
             --snapshot PATH         write campaign checkpoints to PATH (atomic\n\
             \u{20}                        write-rename; always written at run end)\n\
             --snapshot-every N      also checkpoint every N scheduler rounds (0 = off;\n\
             \u{20}                        needs --snapshot)\n\
             --snapshot-keep N       rotate periodic checkpoints into PATH.<iters>\n\
             \u{20}                        siblings, pruning all but the newest N (0 =\n\
             \u{20}                        overwrite one file; the end-of-run checkpoint\n\
             \u{20}                        always lands on PATH itself; needs --snapshot)\n\
             --halt-after N          stop gracefully at the first round boundary with\n\
             \u{20}                        >= N iterations done (pairs with --snapshot to\n\
             \u{20}                        emulate an interruption; resume finishes the run)\n\
             --resume PATH           continue a snapshot; adopts its workers/seed/batch,\n\
             \u{20}                        validates backend+variant, and reproduces the\n\
             \u{20}                        uninterrupted run bit-identically\n\
             --shard N               tag snapshots with a shard id for dejavuzz-merge\n\
             \u{20}                        (default 0)\n\n\
             telemetry (see EXPERIMENTS.md \"Embedding & telemetry\"):\n\
             --telemetry text|json   text = the classic campaign report (default);\n\
             \u{20}                        json = one JSON object per campaign event\n\
             \u{20}                        (round_started, slot_committed, coverage_gained,\n\
             \u{20}                        bug_found, snapshot_written, campaign_finished) —\n\
             \u{20}                        byte-deterministic per (seed, workers)\n\
             --metrics-out PATH      write a JSON dump of the process metrics registry\n\
             \u{20}                        (counters, gauges, log-bucketed latency\n\
             \u{20}                        histograms — see EXPERIMENTS.md \"Observability\")\n\
             \u{20}                        at campaign end. Metrics live off the commit\n\
             \u{20}                        path: campaign stdout, results and snapshots\n\
             \u{20}                        are byte-identical with or without this flag\n\n\
             Flag values that fail to parse, unknown or repeated flags and stray\n\
             arguments are an error (exit 2), never a silent fallback to the default.\n"
        );
        return;
    }
    if args.iter().any(|a| a == "--list-extensions") {
        // One line per selectable implementation, grouped; scenario
        // families carry their description and parameter space. The
        // format is pinned by tests/cli.rs — machine-grepable, stable.
        println!("schedulers:\n  steal");
        println!("seed policies:\n  energy\n  favoured");
        println!("backends:");
        for b in [
            "behavioural",
            "netlist:small",
            "netlist:boom",
            "netlist:xiangshan",
            "proc:<inner>:<M>",
        ] {
            println!("  {b}");
        }
        println!("scenarios:");
        for t in dejavuzz::scenarios::list_templates() {
            let params: Vec<String> = t
                .params
                .iter()
                .map(|p| format!("{}={} in [{}, {}]", p.name, p.default, p.min, p.max))
                .collect();
            if params.is_empty() {
                println!("  {} — {}", t.family, t.describe);
            } else {
                println!("  {} — {} ({})", t.family, t.describe, params.join(", "));
            }
        }
        return;
    }
    let core = arg::<String>(&args, "--core", "boom".into());
    let cfg = match core.as_str() {
        "xiangshan" => xiangshan_minimal(),
        "boom" => boom_small(),
        other => die(format_args!(
            "unknown core {other:?} (expected boom|xiangshan)"
        )),
    };
    let backend = arg::<String>(&args, "--backend", "behavioural".into());
    let backend = match BackendSpec::parse(&backend, cfg) {
        Ok(spec) => spec,
        Err(e) => die(format_args!("{e}")),
    };
    let variant = arg::<String>(&args, "--variant", "full".into());
    let opts = match variant.as_str() {
        "full" => FuzzerOptions::default(),
        "star" => FuzzerOptions::dejavuzz_star(),
        "minus" => FuzzerOptions::dejavuzz_minus(),
        "noliveness" => FuzzerOptions::no_liveness(),
        other => die(format_args!(
            "unknown variant {other:?} (expected full|star|minus|noliveness)"
        )),
    };
    let iters = arg(&args, "--iters", 50usize);
    let mut workers = arg(&args, "--workers", 1usize);
    let mut seed = arg(&args, "--seed", 42u64);
    let batch = arg(&args, "--batch", 4usize);
    let scheduler = match SchedulerSpec::parse(&arg::<String>(&args, "--scheduler", "steal".into()))
    {
        Ok(s) => s,
        Err(e) => die(format_args!("{e}")),
    };
    let policy = match PolicySpec::parse(&arg::<String>(&args, "--policy", "energy".into())) {
        Ok(p) => p,
        Err(e) => die(format_args!("{e}")),
    };
    let scenarios: Vec<String> = match opt_arg::<String>(&args, "--scenarios") {
        Some(list) => {
            let specs: Vec<String> = list
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if specs.is_empty() {
                die(format_args!(
                    "--scenarios requires at least one scenario family"
                ));
            }
            specs
        }
        None => Vec::new(),
    };
    // Any positive lag is the one-round pipeline.
    let pipelined = arg(&args, "--pipeline-lag", 0usize) > 0;
    let shard = arg(&args, "--shard", 0u32);
    let snapshot_path = opt_arg::<String>(&args, "--snapshot");
    let snapshot_every = arg(&args, "--snapshot-every", 0usize);
    let snapshot_keep = arg(&args, "--snapshot-keep", 0usize);
    // A checkpoint cadence with nowhere to write would run without one.
    if snapshot_path.is_none() {
        for flag in ["--snapshot-every", "--snapshot-keep"] {
            if args.iter().any(|a| a == flag) {
                die(format_args!("{flag} requires --snapshot PATH"));
            }
        }
    }
    let halt_after = opt_arg::<usize>(&args, "--halt-after");
    let resume_path = opt_arg::<String>(&args, "--resume");
    let metrics_out = opt_arg::<String>(&args, "--metrics-out");
    let telemetry = arg::<String>(&args, "--telemetry", "text".into());
    if telemetry != "text" && telemetry != "json" {
        die(format_args!(
            "unknown telemetry mode {telemetry:?} (expected text|json)"
        ));
    }

    // A resumed campaign's geometry and scheduling configuration come
    // from the snapshot: workers, seed, batch, scheduler and policy are
    // all part of its replay identity.
    let resume = resume_path.map(|p| {
        let path = std::path::Path::new(&p);
        match CampaignSnapshot::load(path) {
            Ok(snap) => {
                eprintln!(
                    "dejavuzz-fuzz: resuming shard {} at iteration {} from {p} \
                     ({} worker(s), seed {}, scheduler {}, policy {})",
                    snap.shard_id,
                    snap.completed,
                    snap.workers,
                    snap.seed,
                    snap.scheduler.label(),
                    snap.policy.label(),
                );
                workers = snap.workers;
                seed = snap.seed;
                snap
            }
            Err(e) => die(format_args!("cannot resume from {p}: {e}")),
        }
    });

    // Scheduling chatter goes to stderr like the persistence notes, so
    // the default run's stdout stays byte-identical across flags. A
    // resumed campaign adopts the snapshot's policy (already reported by
    // the resume note above) — announcing the flag values here would
    // claim a configuration the run does not use, so instead warn when
    // explicit flags are being overridden.
    if let Some(snap) = &resume {
        let explicit = |flag: &str| opt_arg::<String>(&args, flag).is_some();
        if explicit("--policy") && policy != snap.policy {
            eprintln!(
                "dejavuzz-fuzz: warning: --policy {} ignored; resume adopts the \
                 snapshot's policy ({})",
                policy.label(),
                snap.policy.label()
            );
        }
        if explicit("--batch") && batch != snap.batch {
            eprintln!(
                "dejavuzz-fuzz: warning: --batch {batch} ignored; resume adopts the \
                 snapshot's batch size ({})",
                snap.batch
            );
        }
        if explicit("--pipeline-lag") && pipelined != snap.pipelined {
            eprintln!(
                "dejavuzz-fuzz: warning: --pipeline-lag ignored; resume adopts the \
                 snapshot's pipeline lag ({})",
                u8::from(snap.pipelined)
            );
        }
        if explicit("--scenarios") && scenarios != snap.scenarios {
            eprintln!(
                "dejavuzz-fuzz: warning: --scenarios {} ignored; resume adopts the \
                 snapshot's scenarios ({})",
                scenarios.join(","),
                if snap.scenarios.is_empty() {
                    "none".to_string()
                } else {
                    snap.scenarios.join(",")
                }
            );
        }
    } else if policy != PolicySpec::default() || pipelined {
        let lag_note = if pipelined { ", pipeline lag 1" } else { "" };
        eprintln!(
            "dejavuzz-fuzz: scheduler {}, seed policy {}{lag_note}",
            scheduler.label(),
            policy.label()
        );
    }
    // Scenario chatter likewise goes to stderr: a scenarios-off run's
    // stdout stays byte-identical to one that never saw the flag.
    if resume.is_none() && !scenarios.is_empty() {
        eprintln!("dejavuzz-fuzz: scenarios {}", scenarios.join(","));
    }
    let Some(total) = iters.checked_mul(workers) else {
        die(format_args!(
            "--iters {iters} x --workers {workers} overflows the iteration count"
        ));
    };

    let mut builder = CampaignBuilder::new()
        .backend(backend.clone())
        .options(opts)
        .workers(workers)
        .seed(seed)
        .batch(batch)
        .pipelined(pipelined)
        .scheduler(scheduler)
        .seed_policy(policy)
        .shard_id(shard)
        .scenarios(&scenarios)
        .snapshot_every(snapshot_every)
        .snapshot_keep(snapshot_keep);
    if let Some(path) = &snapshot_path {
        builder = builder.snapshot_path(path);
    }
    if let Some(halt) = halt_after {
        builder = builder.halt_after(halt);
    }
    if let Some(snap) = resume {
        builder = builder.resume(snap);
    }
    let orch = match builder.build() {
        Ok(orch) => orch,
        Err(e) => die(format_args!("{e}")),
    };

    // The behavioural banner keeps its historical form so default-path
    // output stays byte-identical across the backend refactor.
    let banner = match &backend {
        BackendSpec::Behavioural(cfg) => cfg.name.to_string(),
        other => other.label(),
    };
    let mut observers: Vec<Box<dyn CampaignObserver>> = match telemetry.as_str() {
        "json" => vec![Box::new(JsonLinesObserver::stdout())],
        _ => vec![Box::new(TextObserver::stdout().with_banner(format!(
            "fuzzing {banner} ({variant}) — {iters} iters x {workers} worker(s), \
             shared corpus, seed {seed}\n"
        )))],
    };
    let (report, _) = orch.run_observed(total, &mut observers);
    let stats = &report.stats;
    // Report what is actually on disk, not what we hoped to write: a
    // failed checkpoint (disk full, unwritable path) already warned on
    // stderr mid-run, and claiming success here would contradict it.
    if let Some(path) = &snapshot_path {
        match CampaignSnapshot::load(std::path::Path::new(path)) {
            Ok(s) if s.completed == stats.iterations => eprintln!(
                "dejavuzz-fuzz: snapshot at iteration {} written to {path}",
                s.completed
            ),
            Ok(s) => eprintln!(
                "dejavuzz-fuzz: warning: snapshot at {path} is stale (iteration {} of {}) — \
                 the final checkpoint write failed",
                s.completed, stats.iterations
            ),
            Err(e) => eprintln!("dejavuzz-fuzz: warning: snapshot at {path} is unusable: {e}"),
        }
    }
    // The metrics dump is observability output, not campaign state: it
    // is written after the run, its chatter goes to stderr, and a failed
    // write warns rather than failing the campaign (the results above
    // are already complete and correct).
    if let Some(path) = &metrics_out {
        let json = dejavuzz::metrics::registry_json();
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("dejavuzz-fuzz: metrics written to {path}"),
            Err(e) => {
                eprintln!("dejavuzz-fuzz: warning: cannot write metrics to {path}: {e}")
            }
        }
    }
}
