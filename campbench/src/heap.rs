//! Peak live heap of a campaign: the system allocator, counting the bytes
//! allocated and not yet freed while a measurement is open.
//!
//! The process's VmHWM is not a steady memory figure: the allocator keeps
//! freed memory (in per-thread arenas, among others) in amounts that vary
//! from run to run, so on `netlist-boom` one campaign's VmHWM reads from
//! 14 to 19 MiB. Live heap bytes do not depend on that. Counting is off
//! outside a measurement, when each allocation pays one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// The counting allocator; the `campbench` binary installs it as the
/// global allocator.
#[derive(Debug)]
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let bytes = bytes as isize;
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result unchanged, so `System` upholds the `GlobalAlloc`
// contract; the counters only read the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` meets the caller's contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Opens a measurement: live bytes count from zero.
pub fn start() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
}

/// Closes the measurement and returns its peak of bytes allocated and
/// not yet freed since [`start`], in MiB (0 unless the binary installed
/// [`CountingAlloc`]).
pub fn stop() -> f64 {
    COUNTING.store(false, Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}
