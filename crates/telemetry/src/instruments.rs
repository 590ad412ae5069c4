//! The atomic instruments: counters, gauges, log₂-bucketed histograms
//! and the [`Timer`] span guard that feeds them.
//!
//! Every write checks the process-wide recording flag first
//! ([`crate::recording`]); when recording is off an instrument write is
//! a single relaxed load and nothing else — no clock read, no RMW.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::recording;

/// A monotonically increasing atomic counter. Rendered to Prometheus as
/// a `counter` family; by convention names end in `_total`.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. Saturates at `u64::MAX` rather than wrapping: a pinned
    /// counter is an obvious artefact, a wrapped one silently lies.
    #[inline]
    pub fn add(&self, n: u64) {
        if !recording() {
            return;
        }
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self
                .value
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins atomic gauge, with an accumulate mode ([`Gauge::add`])
/// for per-run totals that several campaigns in one process contribute to
/// (e.g. busy nanoseconds summed over every run).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        if !recording() {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
    }

    /// Accumulates `n` into the gauge, saturating. Used for process-wide
    /// totals where each campaign run adds its share.
    #[inline]
    pub fn add(&self, n: u64) {
        if !recording() {
            return;
        }
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self
                .value
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucket count for [`Histogram`]: bucket `i` (for `i ≥ 1`) holds values
/// whose bit width is `i`, i.e. the range `[2^(i-1), 2^i - 1]`; bucket 0
/// holds exactly the value 0. 64 bit-width buckets + the zero bucket
/// cover every `u64`, so there is no overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A lock-free latency histogram with log₂ buckets.
///
/// Values (by convention, nanoseconds) land in the bucket of their bit
/// width: 0 → bucket 0, 1 → bucket 1, 2..=3 → bucket 2, 4..=7 → bucket
/// 3, and so on. That trades per-bucket precision (each bucket spans a
/// 2× range) for a constant-time, allocation-free `observe` — the right
/// trade for spans on a fuzzing hot path, where the interesting signal
/// is order-of-magnitude shifts, not microsecond deltas.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Sum of observed values, saturating.
    sum: AtomicU64,
    /// Number of observations, saturating.
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value lands in: its bit width (0 for 0).
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The inclusive upper bound of bucket `i` (the Prometheus `le`
    /// label): `2^i - 1`, with the last bucket's bound being `u64::MAX`.
    pub fn bucket_bound(i: usize) -> u64 {
        debug_assert!(i < HISTOGRAM_BUCKETS);
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation. Saturating on both sum and count.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !recording() {
            return;
        }
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.sum, v);
        saturating_fetch_add(&self.count, 1);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (not cumulative), indexed by bit width.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// The highest bucket index with a nonzero count, if any sample has
    /// been observed. Rendering stops here (plus `+Inf`) to keep the
    /// exposition short.
    pub fn highest_nonzero_bucket(&self) -> Option<usize> {
        (0..HISTOGRAM_BUCKETS)
            .rev()
            .find(|&i| self.buckets[i].load(Ordering::Relaxed) != 0)
    }
}

/// `fetch_add` that pins at `u64::MAX` instead of wrapping.
fn saturating_fetch_add(cell: &AtomicU64, n: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(n);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A span guard: created at the start of a phase, records the elapsed
/// nanoseconds into a [`Histogram`] when dropped.
///
/// When recording is off at creation time the guard holds no start
/// instant and the drop is free — the *entire* disabled cost of a span
/// is one relaxed atomic load, which is what keeps always-on
/// instrumentation viable on the per-slot hot path.
#[must_use = "a Timer records on drop; binding it to _ drops it immediately"]
#[derive(Debug)]
pub struct Timer<'h> {
    histogram: &'h Histogram,
    start: Option<Instant>,
}

impl<'h> Timer<'h> {
    /// Starts a span against `histogram`. Reads the clock only if
    /// recording is on.
    #[inline]
    pub fn start(histogram: &'h Histogram) -> Self {
        let start = if recording() {
            Some(Instant::now())
        } else {
            None
        };
        Self { histogram, start }
    }

    /// Ends the span early (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.histogram.observe(nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{recording_test_lock, set_recording};

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let _serial = recording_test_lock();
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_set_and_accumulate() {
        let _serial = recording_test_lock();
        let g = Gauge::new();
        g.set(42);
        assert_eq!(g.get(), 42);
        g.add(8);
        assert_eq!(g.get(), 50);
        g.set(7);
        assert_eq!(g.get(), 7);
        set_recording(false);
        g.set(99);
        g.add(99);
        set_recording(true);
        assert_eq!(g.get(), 7, "writes while disabled are dropped");
    }

    #[test]
    fn histogram_zero_samples() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.highest_nonzero_bucket(), None);
        assert!(h.bucket_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn histogram_single_sample() {
        let _serial = recording_test_lock();
        let h = Histogram::new();
        h.observe(1000);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 1000);
        // 1000 has bit width 10 (512..=1023).
        assert_eq!(h.highest_nonzero_bucket(), Some(10));
        assert_eq!(h.bucket_counts()[10], 1);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Value 0 is its own bucket; powers of two open a new bucket;
        // 2^i - 1 closes bucket i.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Bounds are inclusive: bucket_index(bound(i)) == i for nonzero
        // buckets, and bound(i) + 1 lands in bucket i + 1.
        for i in 1..HISTOGRAM_BUCKETS {
            let bound = Histogram::bucket_bound(i);
            assert_eq!(Histogram::bucket_index(bound), i, "bound of bucket {i}");
            if i < 64 {
                assert_eq!(
                    Histogram::bucket_index(bound + 1),
                    i + 1,
                    "first value past bucket {i}"
                );
            }
        }
        assert_eq!(Histogram::bucket_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_saturating_counts() {
        let _serial = recording_test_lock();
        let h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum pins at MAX instead of wrapping");
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket_counts()[64], 2);
    }

    #[test]
    fn histogram_disabled_recording_drops_observations() {
        let _serial = recording_test_lock();
        let h = Histogram::new();
        set_recording(false);
        h.observe(123);
        set_recording(true);
        assert_eq!(h.count(), 0);
        h.observe(123);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn timer_records_elapsed_nanos_on_drop() {
        let _serial = recording_test_lock();
        let h = Histogram::new();
        {
            let t = Timer::start(&h);
            t.finish();
        }
        assert_eq!(h.count(), 1);
        // Elapsed is at least zero and the histogram recorded it.
        assert!(h.highest_nonzero_bucket().is_some() || h.bucket_counts()[0] == 1);
    }

    #[test]
    fn timer_disabled_reads_no_clock_and_records_nothing() {
        let _serial = recording_test_lock();
        let h = Histogram::new();
        set_recording(false);
        let t = Timer::start(&h);
        assert!(t.start.is_none(), "disabled timer holds no start instant");
        drop(t);
        set_recording(true);
        assert_eq!(h.count(), 0);
    }
}
