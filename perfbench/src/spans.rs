//! In-memory spans for the traced run. Spans wrap only the benchmark's
//! own calls into each layer's public functions; nothing inside the
//! program is instrumented. They are kept in memory and written out when
//! the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store of one traced run. A disabled store records nothing,
/// so the untraced run shares the traced run's code.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    pub fn disabled() -> Self {
        Spans {
            enabled: false,
            ..Spans::new()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`]. Returns an id that
    /// names no span when the store is disabled.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span and returns its result and the span id.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let id = self.open(name, op, parent);
        let r = f();
        self.close(id);
        (r, id)
    }

    /// Duration of span `id` (0 when the store is disabled).
    pub fn ns(&self, id: usize) -> u64 {
        self.spans.get(id).map_or(0, Span::ns)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Count and total nanoseconds of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.ns()))
    }

    /// Mean microseconds of the spans named `name` (0 when none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, ns) = self.total(name);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    }

    /// Per-name count, total and self time (a span's duration minus the
    /// part its direct children cover), as a fixed-width table.
    pub fn layer_table(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.ns();
            row.2 += s.ns().saturating_sub(child_ns[i]);
        }
        let mut out = format!(
            "{:<34} {:>9} {:>12} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms", "mean_us"
        );
        for (name, (n, total, own)) in rows {
            let _ = writeln!(
                out,
                "{:<34} {:>9} {:>12.3} {:>12.3} {:>12.2}",
                name,
                n,
                total as f64 / 1e6,
                own as f64 / 1e6,
                total as f64 / n as f64 / 1e3
            );
        }
        out
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new();
        let outer = s.open("outer", 0, None);
        let (_, inner) = s.time("inner", 0, Some(outer), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.close(outer);
        assert!(s.ns(outer) >= s.ns(inner));
        let table = s.layer_table();
        assert!(
            table.contains("outer") && table.contains("inner"),
            "{table}"
        );
        assert_eq!(s.to_jsonl().lines().count(), 2);
        assert_eq!(s.total("inner").0, 1);
    }

    #[test]
    fn disabled_store_records_nothing() {
        let mut s = Spans::disabled();
        let (v, id) = s.time("x", 0, None, || 7);
        assert_eq!(v, 7);
        assert_eq!((s.len(), s.ns(id)), (0, 0));
    }
}
