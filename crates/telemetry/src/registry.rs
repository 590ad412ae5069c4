//! The named instrument table and its two exposition formats.
//!
//! A [`Registry`] maps metric family names to shared instrument handles.
//! Registration is idempotent — `counter("x_total", ...)` twice returns
//! the same [`Counter`] — so call sites resolve their handles lazily
//! without coordination. Rendering walks the table in name order, which
//! makes both expositions deterministic in *structure* (family set,
//! ordering, no duplicates); the sampled values are wall-clock derived
//! and of course vary run to run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::instruments::{Counter, Gauge, Histogram};

/// What a registered metric family is. Mostly for introspection and
/// exposition tests; the typed accessors on [`Registry`] are the normal
/// way in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrumentKind {
    /// A monotonically increasing count ([`Counter`]).
    Counter,
    /// A point-in-time value ([`Gauge`]).
    Gauge,
    /// A log₂-bucketed latency distribution ([`Histogram`]).
    Histogram,
}

impl InstrumentKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    fn prometheus_type(self) -> &'static str {
        match self {
            InstrumentKind::Counter => "counter",
            InstrumentKind::Gauge => "gauge",
            InstrumentKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> InstrumentKind {
        match self {
            Instrument::Counter(_) => InstrumentKind::Counter,
            Instrument::Gauge(_) => InstrumentKind::Gauge,
            Instrument::Histogram(_) => InstrumentKind::Histogram,
        }
    }
}

#[derive(Debug)]
struct Entry {
    help: String,
    instrument: Instrument,
}

/// A named table of instruments with Prometheus and JSON exposition.
///
/// Most code uses the process-global instance ([`crate::global`]);
/// separate registries exist for tests and for embedders that want
/// isolated metric namespaces.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it with `help` on
    /// first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind —
    /// that is a programming error (two subsystems disagreeing on a
    /// family's type), not a runtime condition.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let entry = entries.entry(name.to_string()).or_insert_with(|| Entry {
            help: help.to_string(),
            instrument: Instrument::Counter(Arc::new(Counter::new())),
        });
        match &entry.instrument {
            Instrument::Counter(c) => Arc::clone(c),
            other => panic!(
                "metric {name:?} already registered as {:?}, requested counter",
                other.kind()
            ),
        }
    }

    /// One labelled series of the counter family `family`: the counter
    /// registered under `family{label="value"}`, created with `help` on
    /// first use. The Prometheus exposition declares the family once and
    /// renders each series as its own sample line; the JSON dump keys
    /// each series by its full labelled name. Panics on a kind mismatch,
    /// like [`Registry::counter`].
    pub fn labelled_counter(
        &self,
        family: &str,
        help: &str,
        label: &str,
        value: &str,
    ) -> Arc<Counter> {
        self.counter(&format!("{family}{{{label}=\"{value}\"}}"), help)
    }

    /// The gauge registered under `name`, creating it with `help` on
    /// first use. Panics on a kind mismatch, like [`Registry::counter`].
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let entry = entries.entry(name.to_string()).or_insert_with(|| Entry {
            help: help.to_string(),
            instrument: Instrument::Gauge(Arc::new(Gauge::new())),
        });
        match &entry.instrument {
            Instrument::Gauge(g) => Arc::clone(g),
            other => panic!(
                "metric {name:?} already registered as {:?}, requested gauge",
                other.kind()
            ),
        }
    }

    /// The histogram registered under `name`, creating it with `help` on
    /// first use. Panics on a kind mismatch, like [`Registry::counter`].
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let entry = entries.entry(name.to_string()).or_insert_with(|| Entry {
            help: help.to_string(),
            instrument: Instrument::Histogram(Arc::new(Histogram::new())),
        });
        match &entry.instrument {
            Instrument::Histogram(h) => Arc::clone(h),
            other => panic!(
                "metric {name:?} already registered as {:?}, requested histogram",
                other.kind()
            ),
        }
    }

    /// The kind registered under `name`, if any.
    pub fn kind(&self, name: &str) -> Option<InstrumentKind> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.get(name).map(|e| e.instrument.kind())
    }

    /// Registered family names, sorted.
    pub fn names(&self) -> Vec<String> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.keys().cloned().collect()
    }

    /// Renders the whole registry in Prometheus text exposition format:
    /// one `# HELP` + `# TYPE` pair per family, families in name order,
    /// histograms as cumulative `_bucket{le="..."}` samples up to their
    /// highest populated bucket plus `+Inf`, then `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        // Snapshot the instrument handles, then render outside the lock:
        // rendering reads atomics only, and holding the table lock across
        // it would stall concurrent first-use registrations for no
        // consistency gain (samples are racy reads by design).
        let mut snapshot: Vec<(String, String, Instrument)> = {
            let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            entries
                .iter()
                .map(|(name, e)| (name.clone(), e.help.clone(), e.instrument.clone()))
                .collect()
        };
        // Labelled series sort next to their family, which is declared
        // once, before its first series.
        snapshot.sort_by(|a, b| family(&a.0).cmp(family(&b.0)).then(a.0.cmp(&b.0)));
        let mut out = String::new();
        let mut declared = None;
        for (name, help, instrument) in &snapshot {
            let family = family(name);
            if declared != Some(family) {
                declared = Some(family);
                let _ = writeln!(out, "# HELP {family} {}", escape_help(help));
                let _ = writeln!(
                    out,
                    "# TYPE {family} {}",
                    instrument.kind().prometheus_type()
                );
            }
            match instrument {
                Instrument::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Instrument::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let top = h.highest_nonzero_bucket();
                    let mut cumulative = 0u64;
                    if let Some(top) = top {
                        for (i, &count) in counts.iter().enumerate().take(top + 1) {
                            cumulative = cumulative.saturating_add(count);
                            let _ = writeln!(
                                out,
                                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                                Histogram::bucket_bound(i)
                            );
                        }
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
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
        let snapshot: Vec<(String, Instrument)> = {
            let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            entries
                .iter()
                .map(|(name, e)| (name.clone(), e.instrument.clone()))
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

/// The metric family of a registered name: the name up to its label set.
fn family(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Escapes a help string for a `# HELP` line: Prometheus requires `\\`
/// and newline escaping there (and our help strings are single-line
/// ASCII anyway — this is belt and braces).
fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
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
        let a = r.counter("a_total", "first help wins");
        let b = r.counter("a_total", "ignored on re-registration");
        a.add(3);
        assert_eq!(b.get(), 3);
        assert_eq!(r.kind("a_total"), Some(InstrumentKind::Counter));
        assert_eq!(r.kind("missing"), None);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x_total", "a counter");
        let _ = r.gauge("x_total", "now a gauge?");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let _serial = recording_test_lock();
        let r = Registry::new();
        r.counter("b_iters_total", "iterations").add(7);
        r.gauge("a_depth", "queue depth").set(2);
        let h = r.histogram("c_lat_nanos", "latency");
        h.observe(0);
        h.observe(3);
        h.observe(3);
        let text = r.render_prometheus();
        // Families in name order, each with exactly one HELP/TYPE pair.
        let a = text.find("# HELP a_depth queue depth").expect("gauge help");
        let b = text
            .find("# HELP b_iters_total iterations")
            .expect("counter help");
        let c = text
            .find("# HELP c_lat_nanos latency")
            .expect("histogram help");
        assert!(a < b && b < c, "families render in name order");
        assert!(text.contains("# TYPE a_depth gauge\na_depth 2\n"));
        assert!(text.contains("# TYPE b_iters_total counter\nb_iters_total 7\n"));
        assert!(text.contains("# TYPE c_lat_nanos histogram\n"));
        // 0 → bucket 0 (le=0), two 3s → bucket 2 (le=3); cumulative.
        assert!(text.contains("c_lat_nanos_bucket{le=\"0\"} 1\n"), "{text}");
        assert!(text.contains("c_lat_nanos_bucket{le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("c_lat_nanos_bucket{le=\"3\"} 3\n"), "{text}");
        assert!(text.contains("c_lat_nanos_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("c_lat_nanos_sum 6\n"));
        assert!(text.contains("c_lat_nanos_count 3\n"));
        // No duplicate families.
        assert_eq!(text.matches("# TYPE c_lat_nanos ").count(), 1);
    }

    #[test]
    fn labelled_series_share_one_family_declaration() {
        let _serial = recording_test_lock();
        let r = Registry::new();
        r.labelled_counter("b_total", "per phase", "phase", "2")
            .add(5);
        r.labelled_counter("b_total", "per phase", "phase", "1")
            .inc();
        r.counter("b_total_extra", "another family").add(2);
        r.counter("a_total", "before").inc();
        let text = r.render_prometheus();
        assert_eq!(
            text.matches("# TYPE b_total counter\n").count(),
            1,
            "{text}"
        );
        assert!(
            text.contains(
                "# HELP b_total per phase\n# TYPE b_total counter\n\
                 b_total{phase=\"1\"} 1\nb_total{phase=\"2\"} 5\n"
            ),
            "{text}"
        );
        assert!(text.contains("# TYPE b_total_extra counter\nb_total_extra 2\n"));
        let json = r.render_json();
        assert!(json.contains("\"b_total{phase=\\\"2\\\"}\":5"), "{json}");
    }

    #[test]
    fn prometheus_empty_histogram_renders_inf_only() {
        let r = Registry::new();
        let _ = r.histogram("empty_nanos", "never observed");
        let text = r.render_prometheus();
        assert!(text.contains("empty_nanos_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("empty_nanos_sum 0\n"));
        assert!(text.contains("empty_nanos_count 0\n"));
        assert!(!text.contains("le=\"0\""), "no finite buckets when empty");
    }

    #[test]
    fn json_dump_shape() {
        let _serial = recording_test_lock();
        let r = Registry::new();
        r.counter("iters_total", "iterations").add(4);
        r.gauge("depth", "queue depth").set(9);
        let h = r.histogram("lat_nanos", "latency");
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

    #[test]
    fn json_dump_empty_registry() {
        let r = Registry::new();
        assert_eq!(
            r.render_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }
}
