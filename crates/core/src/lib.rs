//! # mcloud-core
//!
//! The paper's core contribution, rebuilt: a deterministic discrete-event
//! simulator that prices workflow execution plans on a pay-per-use cloud.
//!
//! Given a [`Workflow`](mcloud_dag::Workflow) (e.g. a Montage mosaic from
//! `mcloud-montage`) and an [`ExecConfig`] — a data-management mode
//! (remote I/O, regular, or dynamic cleanup), a provisioning plan (fixed
//! `P` processors or on-demand), a link bandwidth, and a rate card — the
//! engine reproduces the paper's metrics: makespan, bytes in/out, the
//! storage occupancy integral, and the dollar cost breakdown.
//!
//! ```
//! use mcloud_core::{simulate, DataMode, ExecConfig};
//! use mcloud_montage::montage_1_degree;
//!
//! let wf = montage_1_degree();
//! // Question 1: provision 8 processors for the whole run.
//! let report = simulate(&wf, &ExecConfig::fixed(8));
//! assert!(report.makespan_hours() < 1.5);
//! assert!(report.total_cost().dollars() < 1.5);
//!
//! // Question 2a: on-demand billing, dynamic cleanup.
//! let report = simulate(&wf, &ExecConfig::on_demand(DataMode::DynamicCleanup));
//! assert!(report.costs.cpu.dollars() > 0.4); // the paper's ~$0.56
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod checkpoint;
mod config;
mod engine;
mod gantt;
mod profile;
mod report;
mod scenario;
mod soa;
mod trace;

pub use batch::{
    simulate_batch, simulate_batch_on, simulate_batch_progress, simulate_batch_workflows,
    BatchScratch,
};
pub use checkpoint::{IncrementalChain, IncrementalStats};
pub use config::{
    DataMode, ExecConfig, FaultModel, Provisioning, RetryPolicy, SchedulePolicy, VmOverhead,
    PAPER_BANDWIDTH_BPS,
};
pub use engine::{
    simulate, simulate_traced, simulate_with_scratch, simulate_with_sink,
    simulate_with_sink_scratch, SimCheckpoint, SimScratch,
};
pub use gantt::{gantt_csv, gantt_text};
pub use profile::{
    attribute_profile_costs, profile_json, profile_svg, profile_text, profile_trace, ClassProfile,
    CostAttribution, LevelProfile, TaskProfile, WorkflowProfile, RESIDUAL_LABEL, SHARED_IN_LABEL,
    SHARED_OUT_LABEL, STORAGE_LABEL, WASTED_LABEL,
};
pub use report::{report_json, KernelStats, Report, TaskSpan};
pub use scenario::{
    encode_exec_config, fingerprint_workflow, norm_f64_bits, workflow_exec_digest, Canon, Digest,
    Scenario, ScenarioRecipe, DOMAIN_PLAN, DOMAIN_SCENARIO, DOMAIN_WORKFLOW, DOMAIN_WORKFLOW_EXEC,
    SCENARIO_SCHEMA_VERSION,
};
pub use trace::{trace_from_jsonl, trace_to_chrome, trace_to_jsonl};
