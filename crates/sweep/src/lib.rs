//! # mcloud-sweep
//!
//! Parallel experiment harness for the SC'08 reproduction: processor-count
//! sweeps (Figures 4–6), data-management-mode matrices (Figures 7–10), CCR
//! sweeps (Figure 11), Pareto analysis of the cost/makespan trade-off, and
//! table/CSV emitters for the results.
//!
//! Sweeps fan out over the kernel's persistent worker pool through the
//! batch simulation API; each point is an independent deterministic
//! simulation and results are returned in input order, so parallel and
//! sequential execution produce identical results (asserted in this
//! crate's tests). Set `MCLOUD_WORKERS` to pin
//! the lane count (`MCLOUD_WORKERS=1` forces fully inline execution).
//!
//! ```
//! use mcloud_core::ExecConfig;
//! use mcloud_montage::paper_figure3;
//! use mcloud_sweep::{geometric_processors, processor_sweep};
//!
//! let wf = paper_figure3();
//! let points = processor_sweep(&wf, &ExecConfig::paper_default(), &geometric_processors(4));
//! assert_eq!(points.len(), 3); // P = 1, 2, 4
//! // Cost rises with processors, makespan falls (the paper's trade-off).
//! assert!(points[2].report.total_cost() > points[0].report.total_cost());
//! assert!(points[2].report.makespan < points[0].report.makespan);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod crossover;
mod incremental;
mod pareto;
mod plot;
mod sweeps;
mod table;

pub use crossover::find_crossover;
pub use incremental::{
    bandwidth_sweep_incremental, bandwidth_sweep_incremental_stats,
    processor_sweep_incremental_stats,
};
pub use pareto::{cheapest_within_deadline, pareto_frontier, CostTimePoint};
pub use plot::{LinePlot, Series};
pub use sweeps::{
    bandwidth_sweep, ccr_sweep, fault_rate_sweep, geometric_processors, mode_matrix,
    processor_sweep, processor_sweep_progress, scale_to_ccr, BandwidthPoint, CcrPoint,
    FaultRatePoint, ModePoint, ProcessorPoint,
};
pub use table::Table;
