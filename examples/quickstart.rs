//! Quickstart: fuzz the BOOM-like core on the shared-corpus pipeline
//! executor through the embedding API — `CampaignBuilder` to configure,
//! a custom `CampaignObserver` to stream progress — and print what
//! DejaVuzz finds.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dejavuzz::builder::CampaignBuilder;
use dejavuzz::observer::{BugFound, CampaignObserver, CoverageGained};
use dejavuzz_uarch::boom_small;

/// A minimal embedder-side observer: tally coverage jumps and print bug
/// reports the moment they commit (no stdout scraping required).
#[derive(Default)]
struct Progress {
    coverage_events: usize,
}

impl CampaignObserver for Progress {
    fn coverage_gained(&mut self, ev: &CoverageGained<'_>) {
        self.coverage_events += 1;
        if self.coverage_events <= 3 {
            println!(
                "  [slot {:>2}] +{} coverage points (total {})",
                ev.slot,
                ev.points.len(),
                ev.total_points
            );
        }
    }

    fn bug_found(&mut self, ev: &BugFound) {
        println!("  [slot {:>2}] BUG {}", ev.slot, ev.bug);
    }
}

fn main() {
    let iterations = 40;
    let workers = 2;
    println!(
        "DejaVuzz quickstart: {iterations} iterations on {}, {workers} workers, shared corpus\n",
        boom_small().name
    );

    // The builder validates the whole configuration up front; defaults
    // are the behavioural SmallBOOM backend and barriered work stealing.
    let orch = CampaignBuilder::new()
        .workers(workers)
        .seed(0xC0FFEE)
        .build()
        .expect("a valid campaign configuration");
    let mut observers: Vec<Box<dyn CampaignObserver>> = vec![Box::new(Progress::default())];
    let (report, _snapshot) = orch.run_observed(iterations, &mut observers);
    let stats = &report.stats;

    println!("\niterations:      {}", stats.iterations);
    println!("simulations:     {}", stats.sim_runs);
    println!(
        "coverage points: {} (exact union across workers)",
        stats.coverage()
    );
    println!("corpus retained: {}", report.corpus_retained);
    println!("first bug at:    {:?}", stats.first_bug_iteration);
    for w in &report.workers {
        println!(
            "worker #{}:       {} iterations, {} points observed",
            w.worker,
            w.iterations,
            w.observed.points()
        );
    }
    println!("\ntriggered transient windows (TO = training overhead, ETO = effective):");
    for (wt, ws) in &stats.windows {
        if ws.triggered > 0 {
            println!(
                "  {:<28} {:>2}/{:<2}  TO {:>6.1}  ETO {:>5.1}",
                wt.name(),
                ws.triggered,
                ws.attempted,
                ws.mean_to(),
                ws.mean_eto()
            );
        }
    }
    println!("\nreported leaks:");
    for bug in &stats.bugs {
        println!("  {bug}");
    }
    if stats.bugs.is_empty() {
        println!("  (none in this short run — try more iterations)");
    }

    // The same pipeline over a different system under test: swap the
    // simulation backend, keep everything else (see `dejavuzz::backend`).
    let netlist = CampaignBuilder::new()
        .backend(dejavuzz::BackendSpec::netlist(
            dejavuzz_rtl::examples::SMALL_SCALE,
        ))
        .workers(workers)
        .seed(0xC0FFEE)
        .build()
        .expect("a valid netlist campaign")
        .run(iterations);
    println!(
        "\nsame campaign on the netlist backend (netlist:SynthSmall): \
         {} coverage points, {} bug(s)",
        netlist.stats.coverage(),
        netlist.stats.bugs.len()
    );
}
