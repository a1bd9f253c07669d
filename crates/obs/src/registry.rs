//! The name → metric registry and its Prometheus-text exposition.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::metrics::{bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot};

#[derive(Debug, Clone)]
enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Slot {
    fn value(&self) -> MetricValue {
        match self {
            Slot::Counter(c) => MetricValue::Counter(c.value()),
            Slot::Gauge(g) => MetricValue::Gauge(g.value()),
            Slot::Histogram(h) => MetricValue::Histogram(h.snapshot()),
        }
    }
}

/// A point-in-time value of one registered metric, from
/// [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter total.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram's owned bucket copy.
    Histogram(HistogramSnapshot),
}

/// A registry of named metrics: one map behind one lock.
///
/// Names follow Prometheus conventions: `snake_case`, `_total` suffix
/// for counters, optional labels in braces (`lag_ns{conn="1"}`).
/// Handles are `Arc`s — instrumented code registers once, caches the
/// handle, and records lock-free thereafter, so the lock is only taken
/// to register and to render.
///
/// A metric has one owner, and the owner's registry is where it lives:
/// a server, a fleet or a store ledger creates its books in a registry
/// it holds, so two instances in one process never share or shadow a
/// name. Process-wide layers record into the installed
/// [`Observer`](crate::Observer)'s registry.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Slot>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The `Slot` under `name`, created by `make` on first use.
    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Slot) -> Slot {
        let mut metrics = self.metrics.lock().expect("registry lock");
        metrics.entry(name.to_owned()).or_insert_with(make).clone()
    }

    /// The counter registered under `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a different metric kind —
    /// that is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Slot::Counter(Arc::new(Counter::new()))) {
            Slot::Counter(c) => c,
            _ => panic!("metric `{name}` is registered as a different kind"),
        }
    }

    /// The gauge registered under `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Slot::Gauge(Arc::new(Gauge::new()))) {
            Slot::Gauge(g) => g,
            _ => panic!("metric `{name}` is registered as a different kind"),
        }
    }

    /// The histogram registered under `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Slot::Histogram(Arc::new(Histogram::new()))) {
            Slot::Histogram(h) => h,
            _ => panic!("metric `{name}` is registered as a different kind"),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.lock().expect("registry lock").len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current value of the metric registered under `name`.
    pub fn value(&self, name: &str) -> Option<MetricValue> {
        let metrics = self.metrics.lock().expect("registry lock");
        metrics.get(name).map(Slot::value)
    }

    /// Point-in-time values of every registered metric, sorted by
    /// name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let metrics = self.metrics.lock().expect("registry lock");
        metrics
            .iter()
            .map(|(name, slot)| (name.clone(), slot.value()))
            .collect()
    }

    /// Renders every metric in the Prometheus text exposition format,
    /// sorted by name: `# TYPE` comments, plain `name value` samples
    /// for counters and gauges, and cumulative `_bucket{le="..."}` /
    /// `_sum` / `_count` series for histograms (empty trailing buckets
    /// elided).
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.lock().expect("registry lock");
        let mut out = String::new();
        let mut last_base = "";
        for (name, slot) in metrics.iter() {
            let (base, labels) = split_name(name);
            let kind = match slot {
                Slot::Counter(_) => "counter",
                Slot::Gauge(_) => "gauge",
                Slot::Histogram(_) => "histogram",
            };
            if base != last_base {
                let _ = writeln!(out, "# TYPE {base} {kind}");
                last_base = base;
            }
            match slot {
                Slot::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.value());
                }
                Slot::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.value());
                }
                Slot::Histogram(h) => {
                    let h = h.snapshot();
                    let top = h.buckets.iter().rposition(|&b| b > 0).unwrap_or(0);
                    let mut cum = 0u64;
                    for (i, &b) in h.buckets.iter().enumerate().take(top + 1) {
                        cum = cum.saturating_add(b);
                        let le = bucket_upper_bound(i).to_string();
                        let _ =
                            writeln!(out, "{} {cum}", series(base, labels, "_bucket", Some(&le)));
                    }
                    let _ = writeln!(
                        out,
                        "{} {}",
                        series(base, labels, "_bucket", Some("+Inf")),
                        h.count
                    );
                    let _ = writeln!(out, "{} {}", series(base, labels, "_sum", None), h.sum);
                    let _ = writeln!(out, "{} {}", series(base, labels, "_count", None), h.count);
                }
            }
        }
        out
    }
}

/// Splits `name{label="x"}` into the base name and the label body
/// (without braces), if any.
fn split_name(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(open) => {
            let rest = &name[open + 1..];
            let labels = rest.strip_suffix('}').unwrap_or(rest);
            (&name[..open], Some(labels))
        }
        None => (name, None),
    }
}

/// Builds a histogram series name: base + suffix, with existing labels
/// and an optional `le` merged into one brace set.
fn series(base: &str, labels: Option<&str>, suffix: &str, le: Option<&str>) -> String {
    let mut s = String::with_capacity(base.len() + suffix.len() + 24);
    s.push_str(base);
    s.push_str(suffix);
    match (labels, le) {
        (None, None) => {}
        (Some(l), None) => {
            let _ = write!(s, "{{{l}}}");
        }
        (None, Some(le)) => {
            let _ = write!(s, "{{le=\"{le}\"}}");
        }
        (Some(l), Some(le)) => {
            let _ = write!(s, "{{{l},le=\"{le}\"}}");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_handle() {
        let r = Registry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.add(2);
        b.inc();
        assert_eq!(a.value(), 3);
        assert_eq!(r.len(), 1);
        assert_eq!(r.value("x_total"), Some(MetricValue::Counter(3)));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("m");
        let _ = r.gauge("m");
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        for name in ["zeta", "alpha", "mid{device=\"4\"}", "mid{device=\"11\"}"] {
            let _ = r.counter(name);
        }
        let names: Vec<String> = r.snapshot().into_iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn prometheus_rendering_has_types_samples_and_buckets() {
        let r = Registry::new();
        r.counter("reqs_total").add(5);
        r.gauge("depth").set(-2);
        let h = r.histogram("lat_ns");
        h.record(0);
        h.record(3);
        h.record(100);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE reqs_total counter"));
        assert!(text.contains("reqs_total 5"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth -2"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"0\"} 1"));
        assert!(text.contains("lat_ns_bucket{le=\"3\"} 2"));
        assert!(text.contains("lat_ns_bucket{le=\"127\"} 3"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ns_sum 103"));
        assert!(text.contains("lat_ns_count 3"));
    }

    #[test]
    fn labeled_metrics_render_with_merged_labels() {
        let r = Registry::new();
        r.gauge("q{device=\"3\"}").set(4);
        let h = r.histogram("lag_ns{conn=\"1\"}");
        h.record(2);
        let text = r.render_prometheus();
        assert!(text.contains("q{device=\"3\"} 4"));
        assert!(text.contains("lag_ns_bucket{conn=\"1\",le=\"3\"} 1"));
        assert!(text.contains("lag_ns_sum{conn=\"1\"} 2"));
        assert!(text.contains("lag_ns_count{conn=\"1\"} 1"));
    }
}
