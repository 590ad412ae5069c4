//! The observability determinism contract (ISSUE 8's hard constraint):
//! metrics live entirely off the commit path, so a campaign's stdout
//! telemetry and final snapshot bytes are identical per
//! `(seed, workers, batch, pipelined)` whether metric recording is on, off,
//! or being scraped concurrently from another thread mid-run.
//!
//! The exhaustive matrix covers workers 1–4 × {barriered, pipelined};
//! the property test then samples seeds across the same
//! geometry space. Everything asserts on *campaign output bytes* only —
//! instrument contents are wall-clock derived and legitimately differ
//! run over run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use dejavuzz::backend::BackendSpec;
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::observer::{CampaignObserver, JsonLinesObserver};
use dejavuzz::scheduler::SchedulerSpec;
use dejavuzz_uarch::boom_small;
use proptest::prelude::*;

/// Serialises tests around the process-wide recording flag: this
/// binary's tests run in parallel, and a concurrent `set_recording`
/// toggle from another test would turn a deliberate on/off comparison
/// into a race.
fn recording_serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores recording to its default (on) even if an assertion panics
/// mid-test, so one failure cannot cascade into the other tests.
struct RecordingGuard;
impl Drop for RecordingGuard {
    fn drop(&mut self) {
        dejavuzz_telemetry::set_recording(true);
    }
}

#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);
impl std::io::Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The campaign modes of the matrix: barriered and pipelined rounds.
const MODES: [bool; 2] = [false, true];

/// Runs one campaign and returns the bytes that must be invariant under
/// recording state: the full JSON telemetry stream and the final
/// snapshot encoding.
fn run_campaign(
    seed: u64,
    workers: usize,
    pipelined: bool,
    iterations: usize,
) -> (Vec<u8>, Vec<u8>) {
    let sink = Shared::default();
    let mut observers: Vec<Box<dyn CampaignObserver>> =
        vec![Box::new(JsonLinesObserver::new(sink.clone()))];
    let (_, snapshot) = CampaignBuilder::new()
        .backend(BackendSpec::behavioural(boom_small()))
        .workers(workers)
        .seed(seed)
        .pipelined(pipelined)
        .build()
        .unwrap()
        .run_observed(iterations, &mut observers);
    drop(observers);
    let stdout = sink.0.lock().unwrap().clone();
    (stdout, snapshot.to_bytes())
}

/// The exhaustive matrix: for every worker count 1–4 and every mode,
/// a metrics-recording run, a recording-disabled run and a run scraped
/// mid-flight by a concurrent scraping thread all produce identical
/// stdout and snapshot bytes.
#[test]
fn recording_on_off_and_scraped_runs_are_byte_identical() {
    let _serial = recording_serial();
    let _restore = RecordingGuard;
    for workers in 1..=4usize {
        for pipelined in MODES {
            let iterations = 6 * workers;
            dejavuzz_telemetry::set_recording(true);
            let baseline = run_campaign(0xDECAF, workers, pipelined, iterations);

            dejavuzz_telemetry::set_recording(false);
            let disabled = run_campaign(0xDECAF, workers, pipelined, iterations);
            assert_eq!(
                baseline, disabled,
                "recording off perturbed {workers} worker(s), pipelined {pipelined}"
            );

            // Scrape mid-run: a thread hammering the JSON dump while the
            // campaign executes — the render path only reads atomics, so
            // it must never perturb (or deadlock with) the commit path.
            dejavuzz_telemetry::set_recording(true);
            let stop = Arc::new(AtomicBool::new(false));
            let scraper = {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut scrapes = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let json = dejavuzz_telemetry::global().render_json();
                        assert!(json.starts_with("{\"counters\":{"));
                        assert!(json.contains("\"dejavuzz_iterations_total\":"));
                        scrapes += 1;
                    }
                    scrapes
                })
            };
            let scraped = run_campaign(0xDECAF, workers, pipelined, iterations);
            stop.store(true, Ordering::Relaxed);
            let scrapes = scraper.join().expect("scraper panicked");
            assert!(scrapes > 0, "the scraper actually ran mid-campaign");
            assert_eq!(
                baseline, scraped,
                "concurrent scraping perturbed {workers} worker(s), pipelined {pipelined}"
            );
        }
    }
}

/// Recording a campaign populates the engine's instruments: committed
/// slots land in the iterations counter and the slot-run histogram, and
/// the end-of-run report folds into the gauges — while the instruments
/// stay invisible to campaign output (asserted above).
#[test]
fn recorded_campaign_populates_the_registry() {
    let _serial = recording_serial();
    let _restore = RecordingGuard;
    dejavuzz_telemetry::set_recording(true);
    let m = dejavuzz::metrics::handles();
    let iters_before = m.iterations_total.get();
    let slots_before = m.slot_run_nanos.count();
    let runs_before = m.runs_total.get();
    run_campaign(7, 2, true, 12);
    assert_eq!(m.iterations_total.get(), iters_before + 12);
    assert_eq!(m.slot_run_nanos.count(), slots_before + 12);
    assert_eq!(m.runs_total.get(), runs_before + 1);
    assert!(m.busy_nanos.get() > 0, "report gauges were folded in");
    let json = dejavuzz::metrics::registry_json();
    assert!(json.contains("\"dejavuzz_iterations_total\""), "{json}");
}

/// Corpus picks repeat their lineage's runs, and the executor answers
/// the repeats from its lineage memo: a 200-iteration, 2-worker stealing
/// campaign replays some, and says so on the replay counters. (Debug
/// builds simulate every replay too and assert both answers agree.)
#[test]
fn stealing_campaign_replays_repeated_runs() {
    let _serial = recording_serial();
    let _restore = RecordingGuard;
    dejavuzz_telemetry::set_recording(true);
    let m = dejavuzz::metrics::handles();
    let replays = || m.sim_replays_total.iter().map(|c| c.get()).sum::<u64>();
    let (replays_before, runs_before) = (replays(), m.sim_runs_total.get());
    let report = CampaignBuilder::new()
        .backend(BackendSpec::behavioural(boom_small()))
        .workers(2)
        .seed(11)
        .scheduler(SchedulerSpec::WorkStealing)
        .build()
        .unwrap()
        .run(200);
    let replayed = replays() - replays_before;
    assert_eq!(
        m.sim_runs_total.get() - runs_before,
        report.stats.sim_runs as u64,
        "sim_runs counts consumed runs, replays included"
    );
    assert!(replayed > 0, "no repeated run was replayed");
    assert!(replayed < report.stats.sim_runs as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The on/off identity holds across sampled seeds and geometries,
    /// not just the pinned matrix seed.
    #[test]
    fn recording_toggle_never_perturbs_results(
        seed in 0u64..1024,
        workers in 1usize..4,
        mode_ix in 0usize..2,
    ) {
        let _serial = recording_serial();
        let _restore = RecordingGuard;
        let pipelined = MODES[mode_ix];
        dejavuzz_telemetry::set_recording(true);
        let on = run_campaign(seed, workers, pipelined, 4 * workers);
        dejavuzz_telemetry::set_recording(false);
        let off = run_campaign(seed, workers, pipelined, 4 * workers);
        prop_assert_eq!(on, off);
    }
}
