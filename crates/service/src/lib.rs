//! # mcloud-service
//!
//! Service-level simulation for the paper's motivating scenario: a
//! community mosaic service (the Montage portal) that owns a small local
//! cluster and "reaches out to the cloud from time to time" when request
//! traffic overloads it.
//!
//! The workflow engine (`mcloud-core`) prices a *single* request; this
//! crate composes those per-request profiles into a month of traffic:
//! seeded Poisson/bursty arrival streams, a FIFO queue over local slots,
//! a cloud-burst policy, and per-request cost/turnaround attribution.
//!
//! ```
//! use mcloud_service::{periodic, simulate_service, ServiceConfig};
//!
//! // One 1-degree request every 2 hours for a day, on the default
//! // 2-slot local cluster with cloud bursting.
//! let arrivals = periodic(2.0, 24.0, 1.0);
//! let report = simulate_service(&arrivals, &ServiceConfig::default_burst());
//! assert_eq!(report.requests(), 11);
//! // Light traffic never bursts: everything fits locally.
//! assert_eq!(report.cloud_requests(), 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arrivals;
mod autoscale;
mod calendar;
pub mod planner;
mod profile;
mod simulator;

pub use arrivals::{
    bursty, bursty_stream, class_stream, mixed, mixed_stream, periodic, poisson, Arrival,
    ArrivalStream, FlashCrowd, MergedStream, ModulatedPoissonStream, PeriodicStream, PoissonStream,
    RateProfile, RequestClass,
};
pub use autoscale::{
    simulate_autoscale, simulate_autoscale_stream, AutoScaleConfig, AutoScaleReport,
};
pub use planner::{
    plan_capacity, plan_capacity_with, plan_capacity_with_cache, plan_json, plan_text,
    CapacityPlan, PlanCandidate, PlanSpec,
};
pub use profile::{ProfileTable, RequestProfile};
pub use simulator::{
    service_trace_jsonl, simulate_service, simulate_service_stream, AdmissionPolicy,
    RequestOutcome, ServiceConfig, ServiceReport, Venue,
};
