//! How often one behavioural simulation calls the allocator.
//!
//! A warmed `BehaviouralBackend` keeps its swap memory, its core, the
//! core's RoB and its recovery snapshots between runs, so a run allocates
//! a handful of times for what it hands back (the trace and taint log,
//! each allocated once at the previous run's size, the log's distinct
//! censuses, the sinks) whatever its instruction count. This test
//! drives phases 1–3 the way a campaign slot does and pins the mean number
//! of allocations per `run` call, per IFT mode, with bounds that a
//! per-instruction or per-redirect allocation would break.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dejavuzz::backend::{BackendError, BehaviouralBackend, RunOutcome, SimBackend};
use dejavuzz::gen::{Seed, TransientPlan, WindowType};
use dejavuzz::phases::{phase1, phase2, phase3, PhaseOptions};
use dejavuzz_ift::{CoverageMatrix, IftMode};
use dejavuzz_swapmem::SwapPacket;
use dejavuzz_uarch::boom_small;

/// This test binary's allocator: the system allocator, counting per
/// thread the calls that allocate or grow a block, so a test measures its
/// own allocations while other tests run on other threads.
struct ThreadCounting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocation calls this thread has made.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result unchanged, so `System` upholds the `GlobalAlloc`
// contract; the counter's const-initialised thread-local never allocates.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` meets the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: ThreadCounting = ThreadCounting;

/// Runs and allocations of one IFT mode.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    runs: u64,
    allocations: u64,
}

impl Tally {
    fn mean(self) -> f64 {
        self.allocations as f64 / self.runs as f64
    }
}

/// A behavioural backend that counts the allocations of each `run` call,
/// per mode (`IftMode::ALL` order).
#[derive(Debug)]
struct Counted {
    inner: BehaviouralBackend,
    tallies: [Tally; 3],
}

impl SimBackend for Counted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dut_name(&self) -> &'static str {
        self.inner.dut_name()
    }

    fn supports_taint(&self) -> bool {
        self.inner.supports_taint()
    }

    fn run(
        &mut self,
        plan: &TransientPlan,
        schedule: &[SwapPacket],
        mode: IftMode,
        max_cycles: u64,
    ) -> Result<RunOutcome, BackendError> {
        let before = allocations();
        let out = self.inner.run(plan, schedule, mode, max_cycles);
        let tally = &mut self.tallies[IftMode::ALL.iter().position(|&m| m == mode).unwrap()];
        tally.runs += 1;
        tally.allocations += allocations() - before;
        out
    }
}

/// Phases 1–3 over every window type and `entropies`, as a campaign slot
/// runs them on a fresh draw.
fn drive(backend: &mut Counted, entropies: std::ops::Range<u64>) {
    let opts = PhaseOptions::default();
    let mut coverage = CoverageMatrix::new();
    for window_type in WindowType::ALL {
        for entropy in entropies.clone() {
            let seed = Seed::new(window_type, entropy);
            let p1 = phase1(backend, &seed, &opts).unwrap();
            if p1.triggered {
                let p2 = phase2(backend, &seed, &p1, &mut coverage, &opts).unwrap();
                phase3(backend, &p1, &p2, 0, &opts).unwrap();
            }
        }
    }
}

/// Over 8 window types × 40 entropies, a warmed backend's Base runs (the
/// phase-1 trigger and reduction runs) and diffIFT runs (phase 2 and the
/// phase-3 sanitized re-run) allocate a few times each: 3.5 and 32.4 per
/// run on average. Allocating again per instruction, per recovery
/// snapshot (3.4 per Base run) or per sink sweep adds at least 3.4 per
/// Base run and breaks a bound, and so does regrowing the trace from
/// empty (9.2 per Base run).
#[test]
fn warmed_behavioural_runs_allocate_a_handful_of_times() {
    let mut backend = Counted {
        inner: BehaviouralBackend::new(boom_small()),
        tallies: [Tally::default(); 3],
    };
    drive(&mut backend, 1000..1002);
    backend.tallies = [Tally::default(); 3];
    drive(&mut backend, 0..40);
    let [base, cellift, diffift] = backend.tallies;
    assert_eq!(cellift.runs, 0, "the phases never run CellIFT");
    assert!(
        base.runs > 1000 && diffift.runs > 200,
        "{base:?} {diffift:?}"
    );
    let (base, diffift) = (base.mean(), diffift.mean());
    let what = format!("Base {base:.1}, diffIFT {diffift:.1} per run");
    assert!(base < 4.5 && diffift < 36.0, "{what}");
}
