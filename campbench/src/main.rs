//! `campbench` — runs one benchmark workload and prints its metrics.
//!
//! ```sh
//! campbench --workload netlist-boom --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. A table goes to stdout first; the last stdout line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. The exit
//! code is 1 when an output check fails and 2 on a usage or set-up error.

use std::path::PathBuf;

use campbench::heap::CountingAlloc;
use campbench::{end_to_end, traced, Outcome, Scratch, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    value(args, flag)?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid value {v:?} for {flag}"))
        })
        .transpose()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let name = value(args, "--workload")?
        .ok_or_else(|| format!("--workload is required ({})", names.join("|")))?;
    let workload = Workload::parse(name)
        .ok_or_else(|| format!("unknown workload {name:?} (expected {})", names.join("|")))?;
    let seconds: u64 = parse(args, "--seconds")?.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value(args, "--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: parse(args, "--seed")?.unwrap_or(1),
        seconds: seconds as f64,
        trace,
        scratch: value(args, "--scratch")?
            .map_or_else(|| PathBuf::from("campbench-scratch"), PathBuf::from),
    })
}

fn report(w: Workload, seed: u64, out: &Outcome) -> String {
    let campaigns = w.campaign_seeds(seed);
    let mut table = format!(
        "campbench {} (backend {}, {} worker(s); {} campaigns of {} seeds, seeds {}..={})\n",
        w.name(),
        w.backend_arg(),
        w.workers(),
        campaigns.len(),
        w.iterations(),
        campaigns[0],
        campaigns[campaigns.len() - 1],
    );
    for m in &out.metrics {
        table.push_str(&format!(
            "  {:<30} {:>14.4} {:<6} {}\n",
            m.name, m.value, m.unit, m.basis
        ));
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{table}{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campbench: {e}");
            std::process::exit(2);
        }
    };
    let result = Scratch::new(&args.scratch).and_then(|scratch| {
        let run = if args.trace { traced } else { end_to_end };
        run(args.workload, args.seed, args.seconds, scratch.path())
    });
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("campbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("campbench: metric {} is not a finite number", m.name);
        std::process::exit(2);
    }
    for f in &out.failures {
        eprintln!("campbench: output check failed: {f}");
    }
    println!("{}", report(args.workload, args.seed, &out));
    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}
