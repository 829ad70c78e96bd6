//! The per-layer metrics of the traced run, in the order BENCHMARK.json
//! lists them. Counts are per op unless noted (`montage.generate.calls`
//! counts every traced generation, `simkit.queue.peak_pending` is a
//! maximum); a layer a workload does not reach reads 0.

use std::collections::BTreeMap;
use std::time::Instant;

use mcloud_core::Report;
use mcloud_simkit::WorkerPool;

/// Name and unit of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("montage.generate.calls", "count"),
    ("montage.generate.ms", "ms"),
    ("montage.generate.us_per_task", "us"),
    ("core.engine.sims", "count"),
    ("core.engine.events", "count"),
    ("core.engine.events_per_s", "1/s"),
    ("simkit.queue.pops", "count"),
    ("simkit.queue.cancelled", "count"),
    ("simkit.queue.resizes", "count"),
    ("simkit.queue.cursor_jumps", "count"),
    ("simkit.queue.peak_pending", "count"),
    ("core.transfer.count", "count"),
    ("core.transfer.bytes", "B"),
    ("core.engine.pool_grants", "count"),
    ("core.engine.retries", "count"),
    ("sweep.incremental.points", "count"),
    ("sweep.incremental.resumed", "count"),
    ("sweep.incremental.reused_event_share", "ratio"),
    (
        "sweep.incremental.speedup_vs_scratch.processors_regular",
        "ratio",
    ),
    (
        "sweep.incremental.speedup_vs_scratch.processors_remote_io",
        "ratio",
    ),
    ("sweep.incremental.speedup_vs_scratch.bandwidth", "ratio"),
    ("simkit.worker.lanes", "count"),
    ("simkit.worker.items", "count"),
    ("simkit.worker.chunks", "count"),
    ("simkit.worker.busy_share", "ratio"),
    ("simkit.worker.imbalance", "ratio"),
    ("service.arrivals.count", "count"),
    ("service.arrivals.ms", "ms"),
    ("service.profile.warm_ms", "ms"),
    ("service.autoscale.ms_per_candidate", "ms"),
    ("service.autoscale.requests_per_s", "1/s"),
    ("service.autoscale.rejected", "count"),
    ("service.autoscale.deflected", "count"),
    ("cache.store.hits", "count"),
    ("cache.store.misses", "count"),
    ("cache.store.inserts", "count"),
    ("cache.store.evictions", "count"),
    ("cache.store.hit_share", "ratio"),
    ("cache.store.probe_us", "us"),
    ("cache.codec.encode_us", "us"),
    ("cache.codec.decode_us", "us"),
    ("core.scenario.digest_us", "us"),
    ("core.report.json_us", "us"),
    ("cli.serve.floor_us", "us"),
    ("cli.serve.self_share", "ratio"),
    ("cli.serve.response_bytes", "B"),
    ("bench.requests.miss_share", "ratio"),
    ("bench.trace.overhead_share", "ratio"),
    ("bench.trace.spans", "count"),
];

/// Per-layer values of one traced run.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`] (a bug in this crate).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        *slot = value;
    }

    /// Name, unit and value of every metric, in [`PER_LAYER`] order.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, self.0[name]))
            .collect()
    }

    /// The `montage.generate.*` metrics from `calls` generations that took
    /// `ns` in total and produced `tasks` tasks.
    pub fn generate(&mut self, calls: u64, ns: u64, tasks: u64) {
        self.set("montage.generate.calls", calls as f64);
        self.set("montage.generate.ms", ratio(ns as f64 / 1e6, calls));
        self.set(
            "montage.generate.us_per_task",
            ratio(ns as f64 / 1e3, tasks),
        );
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Engine, calendar-queue and transfer counts summed over reports.
#[derive(Debug, Default)]
pub struct EngineTally {
    sims: u64,
    events: u64,
    pops: u64,
    cancelled: u64,
    resizes: u64,
    cursor_jumps: u64,
    peak_pending: u64,
    transfers: u64,
    bytes: u64,
    grants: u64,
    retries: u64,
}

impl EngineTally {
    pub fn add(&mut self, r: &Report) {
        let q = &r.kernel.queue;
        self.sims += 1;
        self.events += r.events_processed;
        self.pops += q.popped;
        self.cancelled += q.cancelled;
        self.resizes += q.resizes;
        self.cursor_jumps += q.cursor_jumps;
        self.peak_pending = self.peak_pending.max(q.peak_pending);
        self.transfers += r.transfers_in + r.transfers_out;
        self.bytes += r.bytes_in + r.bytes_out;
        self.grants += r.kernel.pool_grants;
        self.retries += r.retries;
    }

    /// Writes per-op counts. `replayed_events` is the work the engine
    /// actually did (incremental runs skip reused events) over `engine_ns`.
    pub fn write(&self, layers: &mut Layers, ops: u64, replayed_events: u64, engine_ns: u64) {
        let per_op = |v: u64| ratio(v as f64, ops);
        layers.set("core.engine.sims", per_op(self.sims));
        layers.set("core.engine.events", per_op(self.events));
        layers.set(
            "core.engine.events_per_s",
            ratio(replayed_events as f64 * 1e9, engine_ns),
        );
        layers.set("simkit.queue.pops", per_op(self.pops));
        layers.set("simkit.queue.cancelled", per_op(self.cancelled));
        layers.set("simkit.queue.resizes", per_op(self.resizes));
        layers.set("simkit.queue.cursor_jumps", per_op(self.cursor_jumps));
        layers.set("simkit.queue.peak_pending", self.peak_pending as f64);
        layers.set("core.transfer.count", per_op(self.transfers));
        layers.set("core.transfer.bytes", per_op(self.bytes));
        layers.set("core.engine.pool_grants", per_op(self.grants));
        layers.set("core.engine.retries", per_op(self.retries));
    }

    pub fn events(&self) -> u64 {
        self.events
    }
}

/// Worker-pool lane counters accumulated over the intervals passed to
/// [`PoolTally::around`].
#[derive(Debug, Default)]
pub struct PoolTally {
    busy_ns: Vec<u64>,
    items: u64,
    chunks: u64,
    window_ns: u64,
}

impl PoolTally {
    /// Runs `f`, adding the pool's lane-counter deltas over it.
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let pool = WorkerPool::global();
        let before = pool.lane_stats();
        let t = Instant::now();
        let r = f();
        self.window_ns += t.elapsed().as_nanos() as u64;
        let after = pool.lane_stats();
        self.busy_ns.resize(after.len(), 0);
        for (b, a) in before.iter().zip(&after) {
            self.items += a.items - b.items;
            self.chunks += a.chunks - b.chunks;
            self.busy_ns[a.lane] += a.busy_ns - b.busy_ns;
        }
        r
    }

    /// Busy nanoseconds summed over lanes.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }

    pub fn write(&self, layers: &mut Layers, ops: u64) {
        let lanes = self.busy_ns.len() as u64;
        let busy = self.busy_ns();
        layers.set("simkit.worker.lanes", lanes as f64);
        layers.set("simkit.worker.items", ratio(self.items as f64, ops));
        layers.set("simkit.worker.chunks", ratio(self.chunks as f64, ops));
        layers.set(
            "simkit.worker.busy_share",
            ratio(busy as f64, lanes * self.window_ns),
        );
        let max = self.busy_ns.iter().copied().max().unwrap_or(0);
        layers.set(
            "simkit.worker.imbalance",
            ratio(max as f64 * lanes as f64, busy),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// The table above and the repository's BENCHMARK.json name the same
    /// per-layer metrics with the same units, in the same order.
    #[test]
    fn matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let Some(Value::Arr(rows)) = doc.get("per_layer") else {
            panic!("no per_layer array");
        };
        let listed: Vec<(String, String)> = rows
            .iter()
            .map(|r| match (r.get("name"), r.get("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("malformed per_layer row {r:?}"),
            })
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }
}
