//! # montage-cloud
//!
//! A Rust reproduction of *"The Cost of Doing Science on the Cloud: The
//! Montage Example"* (Deelman, Singh, Livny, Berriman, Good — SC 2008).
//!
//! The paper asks: given pay-per-use cloud resources (Amazon EC2/S3, 2008
//! rates), how should a data-intensive science application like the
//! Montage mosaic service plan its execution — how many processors to
//! provision, which data-management mode to run, and when hosting data in
//! the cloud pays for itself. This workspace rebuilds the whole study:
//!
//! * [`simkit`] — deterministic discrete-event kernel (the GridSim
//!   substitute),
//! * [`dag`] — workflow graphs, analyses (levels, CCR, critical path), and
//!   DAX-subset XML,
//! * [`montage`] — calibrated synthetic Montage workloads
//!   (203 / 731 / 3,027 tasks),
//! * [`cost`] — the Amazon 2008 rate card, billing granularity, archival
//!   economics,
//! * [`core`] — the execution-plan simulator (3 data modes x 2
//!   provisioning plans),
//! * [`sweep`] — parallel parameter sweeps, Pareto analysis, tables.
//!
//! ## Quickstart
//!
//! ```
//! use montage_cloud::prelude::*;
//!
//! // Build the paper's 1-degree M17 mosaic workflow (203 tasks)...
//! let wf = montage_1_degree();
//! // ...and price it on 16 provisioned processors at Amazon 2008 rates.
//! let report = simulate(&wf, &ExecConfig::fixed(16));
//! println!(
//!     "16 procs: {} for {:.2} h",
//!     report.total_cost(),
//!     report.makespan_hours()
//! );
//! assert!(report.total_cost().dollars() < 1.5);
//! ```

pub use mcloud_cache as cache;
pub use mcloud_core as core;
pub use mcloud_cost as cost;
pub use mcloud_dag as dag;
pub use mcloud_montage as montage;
pub use mcloud_service as service;
pub use mcloud_simkit as simkit;
pub use mcloud_sweep as sweep;

/// The names most programs need, in one import.
pub mod prelude {
    pub use mcloud_core::{
        attribute_profile_costs, profile_json, profile_svg, profile_text, profile_trace, simulate,
        simulate_traced, simulate_with_sink, trace_from_jsonl, trace_to_chrome, trace_to_jsonl,
        ClassProfile, CostAttribution, DataMode, ExecConfig, Provisioning, Report, WorkflowProfile,
    };
    pub use mcloud_cost::{
        attribute_costs, attributed_total, residual_row, ArchiveOrRecompute, AttributedCost,
        Campaign, ChargeGranularity, CostBreakdown, DatasetHosting, Money, Pricing, ResourceUsage,
    };
    pub use mcloud_dag::{DagError, FileId, TaskId, Workflow, WorkflowBuilder};
    pub use mcloud_montage::{
        generate, montage_1_degree, montage_2_degree, montage_4_degree, paper_figure3, Band,
        MosaicConfig, MONTAGE_PIPELINE,
    };
    pub use mcloud_service::{
        bursty, bursty_stream, class_stream, mixed, mixed_stream, periodic, plan_capacity,
        plan_json, plan_text, poisson, service_trace_jsonl, simulate_pool, AdmissionPolicy,
        Arrival, ArrivalStream, CapacityPlan, FlashCrowd, MergedStream, PlanCandidate, PlanSpec,
        PoolConfig, PoolReport, PoolSizing, RateProfile, RequestClass, RequestOutcome, Slots,
        Venue,
    };
    pub use mcloud_simkit::{
        Channel, EventSink, Histogram, MetricClass, NullSink, RecordingSink, Registry, TimedEvent,
        TraceCounters, TraceEvent, WorkerPool,
    };
    pub use mcloud_sweep::{
        ccr_sweep, cheapest_within_deadline, geometric_processors, mode_matrix, pareto_frontier,
        processor_sweep, processor_sweep_progress, scale_to_ccr, CostTimePoint, Table,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_a_working_pipeline() {
        let wf = paper_figure3();
        let report = simulate(&wf, &ExecConfig::paper_default());
        assert!(report.total_cost() > Money::ZERO);
    }
}
