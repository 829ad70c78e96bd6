//! A deterministic metrics registry: the simulator observing itself.
//!
//! The engines in this workspace measure a *simulated* system — but after
//! the event-queue and worker-pool rework the simulator's own machinery
//! is worth watching too. This module provides the registry those
//! subsystems publish into: monotonic [counters](Registry::set_counter),
//! [gauges](Registry::set_gauge), and the existing log-bucketed
//! [`Histogram`] as registrable instruments, each optionally carrying a
//! small set of labels, rendered as a byte-deterministic Prometheus text
//! exposition or JSON snapshot.
//!
//! # The determinism split
//!
//! Every metric declares a [`MetricClass`]:
//!
//! * [`Deterministic`](MetricClass::Deterministic) metrics derive purely
//!   from the simulated event stream — queue pops, resize counts, request
//!   waits. Two runs of the same scenario produce byte-identical values on
//!   any machine and at any `MCLOUD_WORKERS` setting, so these metrics can
//!   be committed as goldens and gated in CI.
//! * [`WallClock`](MetricClass::WallClock) metrics time the host — worker
//!   lane busy time, items per lane. They vary run to run and are
//!   **excluded by default** from both renderings; callers opt in with
//!   [`Registry::prometheus_text_all`] / [`Registry::json_all`].
//!
//! The split is structural, not advisory: a golden produced from the
//! default rendering can never be contaminated by a timing metric.
//!
//! # Collect-at-snapshot
//!
//! The registry is *not* on the hot path. Subsystems keep their own plain
//! counters ([`crate::QueueStats`], pool accessors, lane stats); a snapshot
//! routine samples them into a `Registry` only when an exposition is
//! requested. The simulation hot loop therefore pays nothing — the
//! zero-warm-allocation benchmark gate is unaffected by telemetry.
//!
//! ```
//! use mcloud_simkit::{Histogram, MetricClass, Registry};
//!
//! let mut reg = Registry::new();
//! reg.set_counter(
//!     "sim_events_total",
//!     "Events delivered by the kernel queue.",
//!     MetricClass::Deterministic,
//!     &[],
//!     1234,
//! );
//! let mut waits = Histogram::new();
//! waits.record(0.5);
//! reg.set_histogram(
//!     "sim_wait_seconds",
//!     "Task queue-wait distribution.",
//!     MetricClass::Deterministic,
//!     &[("venue", "local")],
//!     &waits,
//! );
//! let text = reg.prometheus_text();
//! assert!(text.contains("sim_events_total 1234"));
//! assert!(text.contains("sim_wait_seconds_count{venue=\"local\"} 1"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::Histogram;
use crate::json::escape;

/// Whether a metric is reproducible across runs, machines, and worker
/// counts — the property that decides if it may appear in a golden.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MetricClass {
    /// Derived purely from simulated events: byte-identical everywhere.
    Deterministic,
    /// Host timing: varies run to run, excluded from default renderings.
    WallClock,
}

impl MetricClass {
    fn as_str(self) -> &'static str {
        match self {
            MetricClass::Deterministic => "deterministic",
            MetricClass::WallClock => "wall_clock",
        }
    }
}

/// One registered series value.
#[derive(Debug, Clone)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram(_) => "histogram",
        }
    }
}

/// A metric family: one name, one type, one determinism class, and one or
/// more labeled series.
#[derive(Debug, Clone)]
struct Family {
    help: String,
    class: MetricClass,
    /// Series keyed by their canonical label rendering (labels sorted by
    /// key), so iteration — and therefore every exposition — is ordered.
    series: BTreeMap<String, Value>,
}

/// A deterministic metrics registry.
///
/// Metric families are kept sorted by name and series sorted by their
/// canonical label rendering, so the Prometheus text and JSON snapshots are
/// byte-deterministic functions of the registered values.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: BTreeMap<String, Family>,
}

/// Renders labels canonically: sorted by key, `{k="v",...}`, empty string
/// for no labels.
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

/// Escapes a label value per the Prometheus text format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn assert_name(name: &str) {
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !name.starts_with(|c: char| c.is_ascii_digit()),
        "invalid metric name: {name:?}"
    );
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn upsert(
        &mut self,
        name: &str,
        help: &str,
        class: MetricClass,
        labels: &[(&str, &str)],
        value: Value,
    ) {
        assert_name(name);
        let family = self.families.entry(name.to_string()).or_insert(Family {
            help: help.to_string(),
            class,
            series: BTreeMap::new(),
        });
        assert!(
            family.class == class,
            "metric {name} registered with conflicting determinism classes"
        );
        if let Some(existing) = family.series.values().next() {
            assert!(
                existing.kind() == value.kind(),
                "metric {name} registered with conflicting kinds"
            );
        }
        family.series.insert(label_key(labels), value);
    }

    /// Registers (or overwrites) a monotonic counter series.
    pub fn set_counter(
        &mut self,
        name: &str,
        help: &str,
        class: MetricClass,
        labels: &[(&str, &str)],
        value: u64,
    ) {
        self.upsert(name, help, class, labels, Value::Counter(value));
    }

    /// Registers (or overwrites) a gauge series.
    ///
    /// # Panics
    /// Panics if `value` is NaN or infinite — a non-finite reading is a
    /// bug in the instrument, and would also break the byte-deterministic
    /// rendering contract.
    pub fn set_gauge(
        &mut self,
        name: &str,
        help: &str,
        class: MetricClass,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        assert!(value.is_finite(), "gauge {name} must be finite: {value}");
        self.upsert(name, help, class, labels, Value::Gauge(value));
    }

    /// Registers (or overwrites) a histogram series (cloning the
    /// histogram's sparse buckets).
    pub fn set_histogram(
        &mut self,
        name: &str,
        help: &str,
        class: MetricClass,
        labels: &[(&str, &str)],
        hist: &Histogram,
    ) {
        self.upsert(name, help, class, labels, Value::Histogram(hist.clone()));
    }

    /// Number of registered metric families.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// The Prometheus text exposition of the **deterministic** metrics —
    /// the golden-safe rendering.
    pub fn prometheus_text(&self) -> String {
        self.render_prometheus(false)
    }

    /// The Prometheus text exposition of every metric, wall-clock timings
    /// included. Not for goldens.
    pub fn prometheus_text_all(&self) -> String {
        self.render_prometheus(true)
    }

    /// The JSON snapshot of the **deterministic** metrics.
    pub fn json(&self) -> String {
        self.render_json(false)
    }

    /// The JSON snapshot of every metric, wall-clock timings included.
    pub fn json_all(&self) -> String {
        self.render_json(true)
    }

    fn render_prometheus(&self, include_wall_clock: bool) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            if family.class == MetricClass::WallClock && !include_wall_clock {
                continue;
            }
            let kind = match family.series.values().next() {
                Some(v) => v.kind(),
                None => continue,
            };
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, value) in &family.series {
                match value {
                    Value::Counter(v) => {
                        let _ = writeln!(out, "{name}{labels} {v}");
                    }
                    Value::Gauge(v) => {
                        let _ = writeln!(out, "{name}{labels} {v}");
                    }
                    Value::Histogram(h) => {
                        for (le, cum) in h.cumulative_buckets() {
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cum}",
                                splice_label(labels, &format!("le=\"{le}\""))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}",
                            splice_label(labels, "le=\"+Inf\""),
                            h.count()
                        );
                        let _ = writeln!(out, "{name}_sum{labels} {}", h.sum());
                        let _ = writeln!(out, "{name}_count{labels} {}", h.count());
                    }
                }
            }
        }
        out
    }

    fn render_json(&self, include_wall_clock: bool) -> String {
        let mut out = String::from("{\n  \"metrics\": [");
        let mut first_family = true;
        for (name, family) in &self.families {
            if family.class == MetricClass::WallClock && !include_wall_clock {
                continue;
            }
            let kind = match family.series.values().next() {
                Some(v) => v.kind(),
                None => continue,
            };
            if !first_family {
                out.push(',');
            }
            first_family = false;
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"kind\": \"{kind}\", \"class\": \"{}\", \"help\": \"{}\", \"series\": [",
                escape(name),
                family.class.as_str(),
                escape(&family.help),
            );
            let mut first_series = true;
            for (labels, value) in &family.series {
                if !first_series {
                    out.push_str(", ");
                }
                first_series = false;
                let _ = write!(out, "{{\"labels\": \"{}\", ", escape(labels));
                match value {
                    Value::Counter(v) => {
                        let _ = write!(out, "\"value\": {v}}}");
                    }
                    Value::Gauge(v) => {
                        let _ = write!(out, "\"value\": {v}}}");
                    }
                    Value::Histogram(h) => {
                        let _ = write!(
                            out,
                            "\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                            h.count(),
                            h.sum(),
                            h.min(),
                            h.max()
                        );
                        for (i, (le, cum)) in h.cumulative_buckets().iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            let _ = write!(out, "[{le}, {cum}]");
                        }
                        out.push_str("]}");
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Splices an extra label into an already-rendered label set: `{a="b"}` +
/// `le="5"` → `{a="b",le="5"}`; `""` + `le="5"` → `{le="5"}`.
fn splice_label(rendered: &str, extra: &str) -> String {
    if rendered.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &rendered[..rendered.len() - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        let mut reg = Registry::new();
        reg.set_counter(
            "zebra_total",
            "Registered last, rendered last.",
            MetricClass::Deterministic,
            &[],
            9,
        );
        reg.set_counter(
            "alpha_total",
            "Registered second, rendered first.",
            MetricClass::Deterministic,
            &[("b", "2"), ("a", "1")],
            3,
        );
        reg.set_gauge(
            "occupancy",
            "A gauge.",
            MetricClass::Deterministic,
            &[],
            0.5,
        );
        reg.set_counter(
            "lane_items_total",
            "Wall-clock lane stats.",
            MetricClass::WallClock,
            &[("lane", "0")],
            41,
        );
        let mut h = Histogram::new();
        for v in [0.0, 0.5, 2.0] {
            h.record(v);
        }
        reg.set_histogram("waits", "A histogram.", MetricClass::Deterministic, &[], &h);
        reg
    }

    #[test]
    fn prometheus_text_is_sorted_and_complete() {
        let text = sample().prometheus_text();
        let alpha = text.find("alpha_total").unwrap();
        let occ = text.find("occupancy").unwrap();
        let waits = text.find("waits").unwrap();
        let zebra = text.find("zebra_total").unwrap();
        assert!(alpha < occ && occ < waits && waits < zebra, "{text}");
        // Labels render sorted by key regardless of registration order.
        assert!(text.contains("alpha_total{a=\"1\",b=\"2\"} 3"), "{text}");
        assert!(text.contains("# TYPE occupancy gauge"), "{text}");
        assert!(text.contains("occupancy 0.5"), "{text}");
        // Histogram exposition: le-buckets, +Inf, sum, count.
        assert!(text.contains("waits_bucket{le=\"0\"} 1"), "{text}");
        assert!(text.contains("waits_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("waits_sum 2.5"), "{text}");
        assert!(text.contains("waits_count 3"), "{text}");
    }

    #[test]
    fn wall_clock_metrics_are_fenced_out_of_the_default_renderings() {
        let reg = sample();
        assert!(!reg.prometheus_text().contains("lane_items_total"));
        assert!(!reg.json().contains("lane_items_total"));
        assert!(reg
            .prometheus_text_all()
            .contains("lane_items_total{lane=\"0\"} 41"));
        assert!(reg.json_all().contains("lane_items_total"));
    }

    #[test]
    fn renderings_are_byte_deterministic() {
        let (a, b) = (sample(), sample());
        assert_eq!(a.prometheus_text(), b.prometheus_text());
        assert_eq!(a.json(), b.json());
        assert_eq!(a.prometheus_text_all(), b.prometheus_text_all());
    }

    #[test]
    fn overwriting_a_series_keeps_one_entry() {
        let mut reg = Registry::new();
        for v in [1, 2, 3] {
            reg.set_counter("c_total", "h", MetricClass::Deterministic, &[], v);
        }
        let text = reg.prometheus_text();
        let samples = text.lines().filter(|l| l.starts_with("c_total ")).count();
        assert_eq!(samples, 1, "{text}");
        assert!(text.contains("c_total 3"));
    }

    #[test]
    fn json_snapshot_is_well_formed_enough_to_eyeball() {
        let json = sample().json();
        assert!(json.starts_with("{\n  \"metrics\": ["));
        assert!(json.ends_with("\n  ]\n}\n"));
        assert!(json.contains("\"name\": \"waits\""));
        assert!(json.contains("\"class\": \"deterministic\""));
        assert!(json.contains("\"count\": 3"));
        // Balanced braces and brackets (no nested strings contain them here).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    #[should_panic(expected = "conflicting determinism classes")]
    fn class_conflicts_panic() {
        let mut reg = Registry::new();
        reg.set_counter("c", "h", MetricClass::Deterministic, &[], 1);
        reg.set_counter("c", "h", MetricClass::WallClock, &[], 2);
    }

    #[test]
    #[should_panic(expected = "conflicting kinds")]
    fn kind_conflicts_panic() {
        let mut reg = Registry::new();
        reg.set_counter("c", "h", MetricClass::Deterministic, &[], 1);
        reg.set_gauge("c", "h", MetricClass::Deterministic, &[], 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_panic() {
        Registry::new().set_counter("9lives", "h", MetricClass::Deterministic, &[], 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let mut reg = Registry::new();
        reg.set_counter(
            "c_total",
            "h",
            MetricClass::Deterministic,
            &[("path", "a\"b\\c")],
            1,
        );
        assert!(reg
            .prometheus_text()
            .contains("c_total{path=\"a\\\"b\\\\c\"} 1"));
    }
}
