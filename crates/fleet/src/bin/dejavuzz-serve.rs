//! `dejavuzz-serve` — the fleet daemon: N gossiping campaigns in one
//! process, aggregated telemetry, and a Unix query socket.
//!
//! ```sh
//! # Serve a 2-shard gossiping fleet:
//! dejavuzz-serve --shards 2 --iters 50 --socket /tmp/fleet.sock &
//! # Query it (from anywhere):
//! dejavuzz-serve --socket /tmp/fleet.sock --query status
//! dejavuzz-serve --socket /tmp/fleet.sock --query coverage
//! dejavuzz-serve --socket /tmp/fleet.sock --query metrics     # Prometheus text
//! dejavuzz-serve --socket /tmp/fleet.sock --query 'series 0'  # coverage over time
//! dejavuzz-serve --socket /tmp/fleet.sock --query shutdown
//! # External shards join the same mesh over the socket:
//! dejavuzz-fuzz --shard 9 --peers unix:/tmp/fleet.sock --iters 50
//! ```
//!
//! Every served shard runs the same campaign engine as `dejavuzz-fuzz`
//! (shard `i` uses `seed + i`), wired to the in-process gossip bus and
//! observed through a bounded channel; the aggregate is served until a
//! `shutdown` query arrives. All daemon chatter goes to stderr; stdout
//! carries only `--query` responses.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dejavuzz::backend::BackendSpec;
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::gossip::shared_link;
use dejavuzz::observer::CampaignObserver;
use dejavuzz_fleet::gossip::Bus;
use dejavuzz_fleet::serve::{FleetHub, FleetState};
use dejavuzz_fleet::transport::ChannelObserver;
use dejavuzz_uarch::{boom_small, xiangshan_minimal};

fn die(msg: std::fmt::Arguments<'_>) -> ! {
    eprintln!("dejavuzz-serve: {msg}");
    eprintln!("dejavuzz-serve: run with --help for usage");
    std::process::exit(2);
}

/// Strict optional flag lookup, same contract as `dejavuzz-fuzz`: a
/// present flag must have a parseable value, and a following `--flag`
/// token is a missing value, not a value.
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "dejavuzz-serve — fleet daemon: N gossiping campaigns, one query socket\n\n\
             --socket PATH           Unix socket to serve on (required). Queries,\n\
             \u{20}                        telemetry and external gossip peers\n\
             \u{20}                        (dejavuzz-fuzz --peers unix:PATH) all use it\n\
             --shards N              campaigns to own (default 2; shard i runs seed+i)\n\
             --iters N               iterations per worker per shard (default 50)\n\
             --workers N             workers per shard (default 1)\n\
             --seed N                base RNG seed (default 42)\n\
             --core boom|xiangshan   behavioural DUT model (default boom)\n\
             --gossip-every N        rounds between gossip exchanges (default 1;\n\
             \u{20}                        0 = isolated shards, no bus wiring)\n\
             --snapshot-dir DIR      write each shard's end-of-run snapshot to\n\
             \u{20}                        DIR/shard<i>.snap (mergeable by dejavuzz-merge)\n\
             --query CMD             client mode: send CMD to --socket, print the\n\
             \u{20}                        response on stdout and exit. CMD is one of\n\
             \u{20}                        status | shards | coverage | metrics |\n\
             \u{20}                        'telemetry <shard>' | 'series <shard>' |\n\
             \u{20}                        shutdown\n\
             \u{20}                        metrics = Prometheus text exposition for the\n\
             \u{20}                        whole fleet (executor, gossip and transport\n\
             \u{20}                        instruments plus dejavuzz_fleet_* aggregates);\n\
             \u{20}                        series = the shard's downsampled coverage-over-\n\
             \u{20}                        time curve, final point exact (EXPERIMENTS.md\n\
             \u{20}                        \"Observability\")\n\n\
             The daemon serves until a shutdown query arrives; campaigns that\n\
             are still running finish first. Flag values that fail to parse\n\
             are an error (exit 2), never a silent fallback to the default.\n"
        );
        return;
    }
    let socket = opt_arg::<String>(&args, "--socket");
    let query = opt_arg::<String>(&args, "--query");

    if let Some(request) = query {
        let Some(socket) = socket else {
            die(format_args!("--query requires --socket"));
        };
        let mut stream = match UnixStream::connect(Path::new(&socket)) {
            Ok(s) => s,
            Err(e) => die(format_args!("cannot connect to {socket}: {e}")),
        };
        if let Err(e) = stream.write_all(format!("{request}\n").as_bytes()) {
            die(format_args!("cannot send query: {e}"));
        }
        let mut response = String::new();
        if let Err(e) = stream.read_to_string(&mut response) {
            die(format_args!("cannot read response: {e}"));
        }
        print!("{response}");
        return;
    }

    let Some(socket) = socket else {
        die(format_args!("--socket is required (or --query CMD)"));
    };
    let shards = arg(&args, "--shards", 2usize);
    if shards == 0 {
        die(format_args!("--shards must be at least 1"));
    }
    let iters = arg(&args, "--iters", 50usize);
    let workers = arg(&args, "--workers", 1usize).max(1);
    let seed = arg(&args, "--seed", 42u64);
    let core = arg::<String>(&args, "--core", "boom".into());
    if core != "boom" && core != "xiangshan" {
        die(format_args!(
            "unknown core {core:?} (expected boom|xiangshan)"
        ));
    }
    let gossip_every = arg(&args, "--gossip-every", 1usize);
    let snapshot_dir = opt_arg::<String>(&args, "--snapshot-dir").map(PathBuf::from);
    if let Some(dir) = &snapshot_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(format_args!(
                "cannot create snapshot dir {}: {e}",
                dir.display()
            ));
        }
    }

    let state = Arc::new(Mutex::new(FleetState::new()));
    let bus = Bus::new();
    let gossip = gossip_every > 0 && shards > 1;

    let mut campaigns = Vec::new();
    for i in 0..shards {
        let shard = i as u32;
        state.lock().expect("fleet state poisoned").register(shard);
        let cfg = match core.as_str() {
            "xiangshan" => xiangshan_minimal(),
            _ => boom_small(),
        };
        let mut builder = CampaignBuilder::new()
            .backend(BackendSpec::behavioural(cfg))
            .workers(workers)
            .seed(seed + i as u64)
            .shard_id(shard);
        if gossip {
            builder = builder
                .gossip(shared_link(bus.link()))
                .gossip_every(gossip_every);
        }
        if let Some(dir) = &snapshot_dir {
            builder = builder.snapshot_path(dir.join(format!("shard{i}.snap")));
        }
        let orch = match builder.build() {
            Ok(orch) => orch,
            Err(e) => die(format_args!("shard {shard}: {e}")),
        };
        let (observer, events) = ChannelObserver::channel(1024);
        let agg_state = Arc::clone(&state);
        let aggregator = std::thread::spawn(move || {
            while let Ok(ev) = events.recv() {
                agg_state
                    .lock()
                    .expect("fleet state poisoned")
                    .apply(shard, &ev);
            }
        });
        let campaign = std::thread::spawn(move || {
            let mut observers: Vec<Box<dyn CampaignObserver>> = vec![Box::new(observer)];
            let (report, _) = orch.run_observed(iters * workers, &mut observers);
            drop(observers); // closes the channel; the aggregator drains and exits
            eprintln!(
                "dejavuzz-serve: shard {shard} finished: {} iterations, {} points, {} bug(s)",
                report.stats.iterations,
                report.coverage.points(),
                report.stats.bugs.len()
            );
        });
        campaigns.push((campaign, aggregator));
    }

    let hub = match FleetHub::bind(Path::new(&socket), Arc::clone(&state), bus) {
        Ok(hub) => hub,
        Err(e) => die(format_args!("cannot bind {socket}: {e}")),
    };
    eprintln!(
        "dejavuzz-serve: serving {shards} shard(s) on {socket} \
         ({iters} iters x {workers} worker(s) each, base seed {seed}, {})",
        if gossip {
            format!("gossip every {gossip_every} round(s)")
        } else {
            "no gossip".to_string()
        }
    );
    hub.run();

    eprintln!("dejavuzz-serve: shutdown requested; waiting for campaigns");
    for (campaign, aggregator) in campaigns {
        let _ = campaign.join();
        let _ = aggregator.join();
    }
    let state = state.lock().expect("fleet state poisoned");
    eprintln!(
        "dejavuzz-serve: fleet done: {} union point(s) across {shards} shard(s)",
        state.union().points()
    );
    let _ = std::fs::remove_file(&socket);
}
