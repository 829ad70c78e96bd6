//! Simulation output: the paper's four metrics (Section 5) plus the cost
//! breakdown they imply.

use mcloud_cost::{CostBreakdown, Money, BYTES_PER_GB};
use mcloud_simkit::{Histogram, MetricClass, QueueStats, Registry, SimDuration};

/// Deterministic self-telemetry from the simulation kernel for one run:
/// how the event queue, ready set, and processor pool actually behaved
/// while producing the report.
///
/// Every field is a pure function of the simulated event sequence, so the
/// stats are byte-identical across runs, machines, and `MCLOUD_WORKERS`
/// settings — they can appear in committed goldens and strict benchmark
/// baselines. Wall-clock timings (worker-lane busy time and the like) are
/// deliberately *not* here; those live with the worker pool and carry the
/// wall-clock metric class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelStats {
    /// Event-queue lifetime counters: pops, cancellations, peak pending
    /// events.
    pub queue: QueueStats,
    /// Time-weighted mean number of ready-queued tasks over the makespan.
    pub ready_mean: f64,
    /// Peak number of simultaneously ready tasks.
    pub ready_peak: f64,
    /// Time-weighted mean number of busy processors over the makespan
    /// (completed occupations; equals utilization times capacity for
    /// fixed plans).
    pub pool_busy_mean: f64,
    /// Processor acquisitions granted over the run.
    pub pool_grants: u64,
}

/// The result of simulating one execution plan.
///
/// Mirrors the metrics of interest listed in Section 5 of the paper:
/// workflow execution time, data transferred in/out, and the storage
/// integral ("area under the curve"), plus the monetary costs those imply
/// under the configured rate card.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Workflow execution time: from request start to the last stage-out.
    pub makespan: SimDuration,
    /// Total bytes moved from the user/archive into cloud storage.
    pub bytes_in: u64,
    /// Total bytes moved from cloud storage out to the user.
    pub bytes_out: u64,
    /// Number of individual inbound transfers.
    pub transfers_in: u64,
    /// Number of individual outbound transfers.
    pub transfers_out: u64,
    /// Storage occupancy integral over the run, in byte-seconds.
    pub storage_byte_seconds: f64,
    /// Peak storage occupancy, bytes.
    pub storage_peak_bytes: f64,
    /// CPU-seconds billed (P x makespan for fixed plans, the sum of task
    /// runtimes for on-demand).
    pub cpu_seconds_billed: f64,
    /// Sum of task runtimes (invariant across modes and plans).
    pub task_runtime_seconds: f64,
    /// Dollar costs under the configured pricing and granularity.
    pub costs: CostBreakdown,
    /// Processors held, for fixed provisioning.
    pub processors: Option<u32>,
    /// Peak number of simultaneously running tasks.
    pub peak_concurrency: u32,
    /// Mean processor utilization (fixed plans only; 1.0 means always busy).
    pub cpu_utilization: f64,
    /// Total execution attempts, including failed ones (equals the task
    /// count when fault injection is off).
    pub task_executions: u64,
    /// Discrete events the engine processed to produce this report — the
    /// benchmark baseline's throughput denominator. Deterministic for a
    /// given workflow + configuration.
    pub events_processed: u64,
    /// Execution attempts that failed (injected fault, timeout, or
    /// preemption).
    pub failed_attempts: u64,
    /// False when the run aborted after a task or transfer exhausted its
    /// retry budget; the rest of the report then describes the partial
    /// run up to the abort.
    pub completed: bool,
    /// Tasks that finished successfully (equals the workflow's task count
    /// when [`Report::completed`] is true).
    pub tasks_completed: u64,
    /// Failed attempts that were granted another try under the retry
    /// policy.
    pub retries: u64,
    /// Whole-processor preemptions that struck the pool (busy or idle).
    pub preemptions: u64,
    /// Transfers that failed on completion and were re-billed.
    pub transfer_failures: u64,
    /// Billed CPU-seconds consumed by failed attempts (wasted work).
    pub wasted_cpu_seconds: f64,
    /// Billed inbound bytes carried by failed transfers.
    pub wasted_bytes_in: u64,
    /// Billed outbound bytes carried by failed transfers.
    pub wasted_bytes_out: u64,
    /// Mean seconds a runnable task waited for a processor (and, under a
    /// storage cap, for space).
    pub queue_wait_mean_s: f64,
    /// Longest such wait, seconds.
    pub queue_wait_max_s: f64,
    /// Distribution of those waits; `quantile(1.0)` equals
    /// [`Report::queue_wait_max_s`] exactly.
    pub queue_wait_hist: Histogram,
    /// Deterministic kernel self-telemetry (event queue, ready set,
    /// processor pool) for this run.
    pub kernel: KernelStats,
}

/// Renders a run report as deterministic single-document JSON
/// (hand-rolled, fixed key order — the same convention as the profile
/// and plan emitters). This is what `mcloud serve` answers a `simulate`
/// query with; because every field comes straight off the [`Report`],
/// a cache-served report emits byte-identically to a fresh one.
pub fn report_json(r: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"mcloud-report/v1\",\n");
    out.push_str(&format!(
        "  \"makespan_hours\": {:.6},\n  \"completed\": {},\n  \"tasks_completed\": {},\n",
        r.makespan_hours(),
        r.completed,
        r.tasks_completed
    ));
    out.push_str(&format!(
        "  \"cost\": {{\"total_dollars\": {:.6}, \"cpu_dollars\": {:.6}, \
         \"storage_dollars\": {:.6}, \"transfer_in_dollars\": {:.6}, \
         \"transfer_out_dollars\": {:.6}}},\n",
        r.total_cost().dollars(),
        r.costs.cpu.dollars(),
        r.costs.storage.dollars(),
        r.costs.transfer_in.dollars(),
        r.costs.transfer_out.dollars()
    ));
    out.push_str(&format!(
        "  \"data\": {{\"gb_in\": {:.6}, \"gb_out\": {:.6}, \"transfers_in\": {}, \
         \"transfers_out\": {}, \"storage_gb_hours\": {:.6}, \"storage_peak_gb\": {:.6}}},\n",
        r.gb_in(),
        r.gb_out(),
        r.transfers_in,
        r.transfers_out,
        r.storage_gb_hours(),
        r.storage_peak_bytes / BYTES_PER_GB
    ));
    out.push_str(&format!(
        "  \"compute\": {{\"processors\": {}, \"peak_concurrency\": {}, \
         \"cpu_utilization\": {:.6}, \"cpu_seconds_billed\": {:.6}, \
         \"task_executions\": {}, \"events_processed\": {}}},\n",
        r.processors.map_or("null".to_string(), |p| p.to_string()),
        r.peak_concurrency,
        r.cpu_utilization,
        r.cpu_seconds_billed,
        r.task_executions,
        r.events_processed
    ));
    out.push_str(&format!(
        "  \"faults\": {{\"failed_attempts\": {}, \"retries\": {}, \"preemptions\": {}, \
         \"transfer_failures\": {}, \"wasted_cpu_seconds\": {:.6}}},\n",
        r.failed_attempts, r.retries, r.preemptions, r.transfer_failures, r.wasted_cpu_seconds
    ));
    out.push_str(&format!(
        "  \"queue_wait\": {{\"mean_s\": {:.6}, \"max_s\": {:.6}}}\n",
        r.queue_wait_mean_s, r.queue_wait_max_s
    ));
    out.push_str("}\n");
    out
}

impl Report {
    /// Total cost of the run.
    pub fn total_cost(&self) -> Money {
        self.costs.total()
    }

    /// The paper's Figure 7-9 "storage used" metric, in GB-hours.
    pub fn storage_gb_hours(&self) -> f64 {
        self.storage_byte_seconds / BYTES_PER_GB / 3600.0
    }

    /// Makespan in hours (the unit of the paper's runtime plots).
    pub fn makespan_hours(&self) -> f64 {
        self.makespan.as_hours_f64()
    }

    /// Data staged in, in GB.
    pub fn gb_in(&self) -> f64 {
        self.bytes_in as f64 / BYTES_PER_GB
    }

    /// Data staged out, in GB.
    pub fn gb_out(&self) -> f64 {
        self.bytes_out as f64 / BYTES_PER_GB
    }

    /// This run as a metrics [`Registry`]: the paper's headline numbers
    /// plus the kernel self-telemetry, every metric
    /// [`MetricClass::Deterministic`]. Rendering it with
    /// [`Registry::prometheus_text`] is byte-identical across runs,
    /// machines, and `MCLOUD_WORKERS` settings — this is what
    /// `mcloud simulate --metrics-out` writes and what the committed
    /// telemetry golden pins.
    pub fn registry(&self) -> Registry {
        const D: MetricClass = MetricClass::Deterministic;
        let mut r = Registry::new();

        // Headline run metrics (the paper's Section 5 axes).
        r.set_gauge(
            "mcloud_run_makespan_hours",
            "Workflow execution time, hours.",
            D,
            &[],
            self.makespan_hours(),
        );
        r.set_gauge(
            "mcloud_run_cost_dollars",
            "Total run cost under the configured rate card.",
            D,
            &[],
            self.total_cost().dollars(),
        );
        r.set_counter(
            "mcloud_run_bytes_total",
            "Bytes staged between the archive and cloud storage.",
            D,
            &[("direction", "in")],
            self.bytes_in,
        );
        r.set_counter(
            "mcloud_run_bytes_total",
            "Bytes staged between the archive and cloud storage.",
            D,
            &[("direction", "out")],
            self.bytes_out,
        );
        r.set_gauge(
            "mcloud_run_storage_gb_hours",
            "Storage occupancy integral, GB-hours.",
            D,
            &[],
            self.storage_gb_hours(),
        );
        r.set_counter(
            "mcloud_run_events_total",
            "Discrete events the engine processed.",
            D,
            &[],
            self.events_processed,
        );
        r.set_counter(
            "mcloud_run_task_executions_total",
            "Execution attempts, failed ones included.",
            D,
            &[],
            self.task_executions,
        );
        r.set_counter(
            "mcloud_run_failed_attempts_total",
            "Execution attempts that failed.",
            D,
            &[],
            self.failed_attempts,
        );
        r.set_counter(
            "mcloud_run_retries_total",
            "Failed attempts granted another try.",
            D,
            &[],
            self.retries,
        );
        r.set_histogram(
            "mcloud_run_queue_wait_seconds",
            "Seconds runnable tasks waited for a processor.",
            D,
            &[],
            &self.queue_wait_hist,
        );

        // Kernel self-telemetry: event queue, ready set, processor pool.
        let q = &self.kernel.queue;
        r.set_counter(
            "mcloud_kernel_queue_pops_total",
            "Events taken off the event queue, payload-free transfer markers included.",
            D,
            &[],
            q.popped,
        );
        r.set_counter(
            "mcloud_kernel_queue_cancellations_total",
            "Cancellations that removed a still-pending event.",
            D,
            &[],
            q.cancelled,
        );
        r.set_gauge(
            "mcloud_kernel_queue_peak_pending",
            "High-water mark of simultaneously pending events.",
            D,
            &[],
            q.peak_pending as f64,
        );
        r.set_gauge(
            "mcloud_kernel_ready_mean",
            "Time-weighted mean ready-queued tasks over the makespan.",
            D,
            &[],
            self.kernel.ready_mean,
        );
        r.set_gauge(
            "mcloud_kernel_ready_peak",
            "Peak simultaneously ready tasks.",
            D,
            &[],
            self.kernel.ready_peak,
        );
        r.set_gauge(
            "mcloud_kernel_pool_busy_mean",
            "Time-weighted mean busy processors over the makespan.",
            D,
            &[],
            self.kernel.pool_busy_mean,
        );
        r.set_counter(
            "mcloud_kernel_pool_grants_total",
            "Processor acquisitions granted over the run.",
            D,
            &[],
            self.kernel.pool_grants,
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcloud_cost::CostBreakdown;

    fn sample() -> Report {
        Report {
            makespan: SimDuration::from_secs(7200),
            bytes_in: 2_000_000_000,
            bytes_out: 500_000_000,
            transfers_in: 50,
            transfers_out: 2,
            storage_byte_seconds: 3.6e12,
            storage_peak_bytes: 1e9,
            cpu_seconds_billed: 7200.0,
            task_runtime_seconds: 7000.0,
            costs: CostBreakdown {
                cpu: Money::from_dollars(0.2),
                storage: Money::from_dollars(0.01),
                transfer_in: Money::from_dollars(0.2),
                transfer_out: Money::from_dollars(0.08),
            },
            processors: Some(1),
            peak_concurrency: 1,
            cpu_utilization: 0.97,
            task_executions: 10,
            events_processed: 100,
            failed_attempts: 0,
            completed: true,
            tasks_completed: 10,
            retries: 0,
            preemptions: 0,
            transfer_failures: 0,
            wasted_cpu_seconds: 0.0,
            wasted_bytes_in: 0,
            wasted_bytes_out: 0,
            queue_wait_mean_s: 1.0,
            queue_wait_max_s: 5.0,
            queue_wait_hist: Histogram::new(),
            kernel: KernelStats {
                queue: QueueStats::default(),
                ready_mean: 0.5,
                ready_peak: 4.0,
                pool_busy_mean: 0.9,
                pool_grants: 10,
            },
        }
    }

    #[test]
    fn registry_exposes_headline_and_kernel_metrics() {
        let text = sample().registry().prometheus_text();
        assert!(text.contains("mcloud_run_makespan_hours 2\n"), "{text}");
        assert!(
            text.contains("mcloud_run_bytes_total{direction=\"in\"} 2000000000\n"),
            "{text}"
        );
        assert!(
            text.contains("mcloud_kernel_pool_grants_total 10\n"),
            "{text}"
        );
        assert!(text.contains("mcloud_kernel_ready_peak 4\n"), "{text}");
        assert!(
            text.contains("mcloud_run_queue_wait_seconds_count 0\n"),
            "{text}"
        );
        // All deterministic: the wall-clock-inclusive render is identical.
        assert_eq!(text, sample().registry().prometheus_text_all());
    }

    #[test]
    fn unit_conversions() {
        let r = sample();
        assert!((r.makespan_hours() - 2.0).abs() < 1e-12);
        assert!((r.gb_in() - 2.0).abs() < 1e-12);
        assert!((r.gb_out() - 0.5).abs() < 1e-12);
        // 3.6e12 byte-seconds = 1 GB for 1 hour.
        assert!((r.storage_gb_hours() - 1.0).abs() < 1e-12);
        assert!(r.total_cost().approx_eq(Money::from_dollars(0.49), 1e-12));
    }
}
