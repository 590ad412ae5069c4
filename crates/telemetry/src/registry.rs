//! The named instrument table and its JSON dump.
//!
//! A [`Registry`] maps metric names to shared instrument handles.
//! Registration is idempotent — `counter("x_total")` twice returns the
//! same [`Counter`] — so call sites resolve their handles lazily without
//! coordination. Rendering walks the table in name order, which makes the
//! dump deterministic in *structure* (name set, ordering, no
//! duplicates); the sampled values are wall-clock derived and of course
//! vary run to run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::instruments::{Counter, Gauge, Histogram};

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named table of instruments with a JSON dump.
///
/// Most code uses the process-global instance ([`crate::global`]);
/// separate registries exist for tests and for embedders that want
/// isolated metric namespaces.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Instrument>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The instrument registered under `name`, registering `new()` on
    /// first use.
    fn instrument(&self, name: &str, new: impl FnOnce() -> Instrument) -> Instrument {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.entry(name.to_string()).or_insert_with(new).clone()
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind —
    /// that is a programming error (two subsystems disagreeing on a
    /// metric's type), not a runtime condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.instrument(name, || Instrument::Counter(Arc::default())) {
            Instrument::Counter(c) => c,
            _ => panic!("metric {name:?} already registered as another kind, requested counter"),
        }
    }

    /// One labelled series of the counter family `family`: the counter
    /// registered under `family{label="value"}`, which the JSON dump keys
    /// by that full name. Panics on a kind mismatch, like
    /// [`Registry::counter`].
    pub fn labelled_counter(&self, family: &str, label: &str, value: &str) -> Arc<Counter> {
        self.counter(&format!("{family}{{{label}=\"{value}\"}}"))
    }

    /// The gauge registered under `name`, creating it on first use.
    /// Panics on a kind mismatch, like [`Registry::counter`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.instrument(name, || Instrument::Gauge(Arc::default())) {
            Instrument::Gauge(g) => g,
            _ => panic!("metric {name:?} already registered as another kind, requested gauge"),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    /// Panics on a kind mismatch, like [`Registry::counter`].
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.instrument(name, || Instrument::Histogram(Arc::default())) {
            Instrument::Histogram(h) => h,
            _ => panic!("metric {name:?} already registered as another kind, requested histogram"),
        }
    }

    /// Renders the registry as a JSON object — the `dejavuzz-fuzz
    /// --metrics-out` dump format:
    ///
    /// ```json
    /// {"counters":{"name":N,...},
    ///  "gauges":{"name":N,...},
    ///  "histograms":{"name":{"count":N,"sum":N,"buckets":[[le,cum],..]},...}}
    /// ```
    ///
    /// Bucket entries are `[inclusive_bound, cumulative_count]` pairs up
    /// to the highest populated bucket; an empty histogram has
    /// `"buckets":[]`.
    pub fn render_json(&self) -> String {
        // Snapshot the instrument handles, then render outside the lock:
        // rendering reads atomics only, and holding the table lock across
        // it would stall concurrent first-use registrations for no
        // consistency gain (samples are racy reads by design).
        let snapshot: Vec<(String, Instrument)> = {
            let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            entries
                .iter()
                .map(|(name, i)| (name.clone(), i.clone()))
                .collect()
        };
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for (name, instrument) in &snapshot {
            match instrument {
                Instrument::Counter(c) => {
                    if !counters.is_empty() {
                        counters.push(',');
                    }
                    let _ = write!(counters, "{}:{}", json_string(name), c.get());
                }
                Instrument::Gauge(g) => {
                    if !gauges.is_empty() {
                        gauges.push(',');
                    }
                    let _ = write!(gauges, "{}:{}", json_string(name), g.get());
                }
                Instrument::Histogram(h) => {
                    if !histograms.is_empty() {
                        histograms.push(',');
                    }
                    let counts = h.bucket_counts();
                    let mut buckets = String::new();
                    let mut cumulative = 0u64;
                    if let Some(top) = h.highest_nonzero_bucket() {
                        for (i, &count) in counts.iter().enumerate().take(top + 1) {
                            cumulative = cumulative.saturating_add(count);
                            if !buckets.is_empty() {
                                buckets.push(',');
                            }
                            let _ =
                                write!(buckets, "[{},{cumulative}]", Histogram::bucket_bound(i));
                        }
                    }
                    let _ = write!(
                        histograms,
                        "{}:{{\"count\":{},\"sum\":{},\"buckets\":[{buckets}]}}",
                        json_string(name),
                        h.count(),
                        h.sum()
                    );
                }
            }
        }
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}"
        )
    }
}

/// Escapes a string into a JSON string literal (hand-rolled: the build
/// environment has no serde). The workspace's one escaper: metric names
/// here, and every JSON document `dejavuzz` writes.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recording_test_lock;

    #[test]
    fn registration_is_idempotent_per_kind() {
        let _serial = recording_test_lock();
        let r = Registry::new();
        let a = r.counter("a_total");
        let b = r.counter("a_total");
        a.add(3);
        assert_eq!(b.get(), 3);
        assert!(Arc::ptr_eq(&a, &b), "one instrument per name");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x_total");
        let _ = r.gauge("x_total");
    }

    /// Each labelled series is its own counter, keyed in the dump by its
    /// full labelled name, in name order.
    #[test]
    fn labelled_series_are_keyed_by_their_full_name() {
        let _serial = recording_test_lock();
        let r = Registry::new();
        r.labelled_counter("b_total", "phase", "2").add(5);
        r.labelled_counter("b_total", "phase", "1").inc();
        r.counter("a_total").inc();
        assert_eq!(
            r.render_json(),
            "{\"counters\":{\"a_total\":1,\
             \"b_total{phase=\\\"1\\\"}\":1,\
             \"b_total{phase=\\\"2\\\"}\":5},\
             \"gauges\":{},\"histograms\":{}}"
        );
    }

    #[test]
    fn json_dump_shape() {
        let _serial = recording_test_lock();
        let r = Registry::new();
        r.counter("iters_total").add(4);
        r.gauge("depth").set(9);
        let h = r.histogram("lat_nanos");
        h.observe(2);
        let json = r.render_json();
        assert_eq!(
            json,
            "{\"counters\":{\"iters_total\":4},\
             \"gauges\":{\"depth\":9},\
             \"histograms\":{\"lat_nanos\":{\"count\":1,\"sum\":2,\
             \"buckets\":[[0,0],[1,0],[3,1]]}}}"
        );
    }

    /// A histogram that never observed a value dumps zero count and sum
    /// and no buckets.
    #[test]
    fn json_dump_empty_histogram_has_no_buckets() {
        let _serial = recording_test_lock();
        let r = Registry::new();
        let _ = r.histogram("empty_nanos");
        assert_eq!(
            r.render_json(),
            "{\"counters\":{},\"gauges\":{},\
             \"histograms\":{\"empty_nanos\":{\"count\":0,\"sum\":0,\"buckets\":[]}}}"
        );
    }

    #[test]
    fn json_dump_empty_registry() {
        let r = Registry::new();
        assert_eq!(
            r.render_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }
}
