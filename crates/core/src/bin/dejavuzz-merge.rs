//! `dejavuzz-merge` — unions shard snapshots from a multi-machine
//! campaign into one report.
//!
//! Each machine runs `dejavuzz-fuzz --shard N --seed <distinct> --snapshot
//! shardN.snap`; this tool merges the snapshot files: coverage is the
//! **exact union** of per-shard observations (distinct points, never a
//! pointwise sum), bug reports deduplicate by `dedup_key()`, and
//! plain counters (iterations, simulations, cycles) sum.
//!
//! ```sh
//! cargo run --release -p dejavuzz --bin dejavuzz-merge -- shard0.snap shard1.snap
//! ```

use dejavuzz::snapshot::{merge_snapshots, CampaignSnapshot};
use dejavuzz_telemetry::json_string;

/// Per-family rollup of the merged window stats: the Table-5 class of
/// each window type (which for scenario windows is the scenario family
/// id) with summed triggered/attempted counts and the deduplicated bugs
/// attributed to that class.
fn family_rollup(
    stats: &dejavuzz::campaign::CampaignStats,
) -> std::collections::BTreeMap<String, (usize, usize, usize)> {
    let mut families: std::collections::BTreeMap<String, (usize, usize, usize)> =
        std::collections::BTreeMap::new();
    for (wt, ws) in &stats.windows {
        let e = families.entry(wt.table5_class().to_string()).or_default();
        e.0 += ws.triggered;
        e.1 += ws.attempted;
    }
    for b in &stats.bugs {
        // Bugs key by the same class; count them even when no shard's
        // window table carries the class (merged heterogeneous runs).
        families
            .entry(b.window_type.table5_class().to_string())
            .or_default()
            .2 += 1;
    }
    families
}

fn die(msg: std::fmt::Arguments<'_>) -> ! {
    eprintln!("dejavuzz-merge: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "dejavuzz-merge — merge shard snapshots into one campaign report\n\n\
             usage: dejavuzz-merge [--json] SNAPSHOT [SNAPSHOT ...]\n\n\
             Coverage merges as the exact union of per-shard points (never a\n\
             pointwise sum), bugs deduplicate by (attack, window class,\n\
             component), counters sum, and the coverage curve is the pointwise\n\
             max over shards (a lower bound; the union curve is unknowable\n\
             after the fact). Decode failures (truncated, corrupted or\n\
             wrong-version snapshots) exit non-zero naming the file.\n\n\
             The report breaks windows down twice: per window type, and per\n\
             family (the Table-5 class — for scenario-template windows, the\n\
             scenario family id) with triggered/attempted/bug counts.\n\n\
             Shards fuzzed on a worker-process pool echo the pool geometry\n\
             in their backend label (proc:<inner>:<M>); shards differing\n\
             only in M merge with the usual backend-mismatch warning, since\n\
             pool size never changes results.\n\n\
             --json   one machine-readable JSON object on stdout (per-shard\n\
             \u{20}        summaries plus the merged report) instead of the text\n\
             \u{20}        report\n"
        );
        return;
    }
    // `--json` is consumed before the strict unknown-flag check so the
    // text path's behaviour (and output) is untouched by its existence.
    let json = match args.iter().position(|a| a == "--json") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    if let Some(unknown) = args.iter().find(|a| a.starts_with("--")) {
        die(format_args!("unknown flag {unknown:?}"));
    }
    if args.is_empty() {
        die(format_args!("no snapshot files given"));
    }

    let mut snaps = Vec::with_capacity(args.len());
    for p in &args {
        match CampaignSnapshot::load(std::path::Path::new(p)) {
            Ok(s) => snaps.push(s),
            Err(e) => die(format_args!("cannot load {p}: {e}")),
        }
    }
    let backend = snaps[0].backend.clone();
    let mut seen_shards = std::collections::HashSet::new();
    for (p, s) in args.iter().zip(&snaps) {
        if s.backend != backend {
            eprintln!(
                "dejavuzz-merge: warning: {p} was fuzzed on {} (first shard on {backend}) — \
                 merging coverage across different DUTs",
                s.backend
            );
        }
        if !seen_shards.insert(s.shard_id) {
            eprintln!(
                "dejavuzz-merge: warning: duplicate shard id {} ({p}) — summed counters \
                 (iterations, simulations, windows) will double-count",
                s.shard_id
            );
        }
    }

    if json {
        let merged = merge_snapshots(&snaps);
        let stats = &merged.stats;
        let shards: Vec<String> = args
            .iter()
            .zip(&snaps)
            .map(|(p, s)| {
                format!(
                    "{{\"shard\":{},\"path\":{},\"iterations\":{},\"points\":{},\
                     \"bugs\":{},\"backend\":{},\"seed\":{},\"workers\":{}}}",
                    s.shard_id,
                    json_string(p),
                    s.stats.iterations,
                    s.coverage.points(),
                    s.stats.bugs.len(),
                    json_string(&s.backend),
                    s.seed,
                    s.workers
                )
            })
            .collect();
        // NaN (no window triggered) is not a JSON number: emit null.
        let num = |v: f64| {
            if v.is_finite() {
                v.to_string()
            } else {
                "null".to_string()
            }
        };
        let windows: Vec<String> = stats
            .windows
            .iter()
            .map(|(wt, ws)| {
                format!(
                    "{{\"window\":{},\"triggered\":{},\"attempted\":{},\
                     \"mean_to\":{},\"mean_eto\":{}}}",
                    json_string(wt.name()),
                    ws.triggered,
                    ws.attempted,
                    num(ws.mean_to()),
                    num(ws.mean_eto())
                )
            })
            .collect();
        let families: Vec<String> = family_rollup(stats)
            .iter()
            .map(|(fam, (triggered, attempted, bugs))| {
                format!(
                    "{{\"family\":{},\"triggered\":{},\"attempted\":{},\"bugs\":{}}}",
                    json_string(fam),
                    triggered,
                    attempted,
                    bugs
                )
            })
            .collect();
        let bugs: Vec<String> = stats
            .bugs
            .iter()
            .map(|b| json_string(&b.to_string()))
            .collect();
        println!(
            "{{\"shards\":[{}],\"merged\":{{\"iterations\":{},\"failed_runs\":{},\
             \"simulations\":{},\"simulated_cycles\":{},\"coverage_points\":{},\
             \"summed_points\":{},\"windows\":[{}],\"families\":[{}],\"bugs\":[{}]}}}}",
            shards.join(","),
            stats.iterations,
            stats.failed_runs,
            stats.sim_runs,
            stats.sim_cycles,
            merged.coverage.points(),
            merged.summed_points,
            windows.join(","),
            families.join(","),
            bugs.join(",")
        );
        return;
    }

    println!("merging {} shard snapshot(s)\n", snaps.len());
    for (p, s) in args.iter().zip(&snaps) {
        println!(
            "  shard {:<3} {p}: {} iterations, {} points, {} bug(s) ({}, seed {}, {} worker(s))",
            s.shard_id,
            s.stats.iterations,
            s.coverage.points(),
            s.stats.bugs.len(),
            s.backend,
            s.seed,
            s.workers
        );
    }

    let merged = merge_snapshots(&snaps);
    let stats = &merged.stats;
    println!("\nmerged:");
    println!("iterations:       {}", stats.iterations);
    if stats.failed_runs > 0 {
        println!("failed runs:      {} (backend errors)", stats.failed_runs);
    }
    println!("simulations:      {}", stats.sim_runs);
    println!("simulated cycles: {}", stats.sim_cycles);
    println!(
        "coverage points:  {} (exact union; per-shard counts sum to {})",
        merged.coverage.points(),
        merged.summed_points
    );
    println!("\nwindows:");
    for (wt, ws) in &stats.windows {
        println!(
            "  {:<28} {:>3}/{:<3}  TO {:>6.1}  ETO {:>5.1}",
            wt.name(),
            ws.triggered,
            ws.attempted,
            ws.mean_to(),
            ws.mean_eto()
        );
    }
    println!("\nfamilies:");
    for (fam, (triggered, attempted, bugs)) in &family_rollup(stats) {
        println!("  {fam:<16} {triggered:>3}/{attempted:<3}  bugs {bugs:>2}");
    }
    println!("\nbugs ({}, deduplicated across shards):", stats.bugs.len());
    for b in &stats.bugs {
        println!("  {b}");
    }
}
