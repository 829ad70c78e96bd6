//! # mcloud-service
//!
//! Service-level simulation for the paper's motivating scenario: a
//! community mosaic service (the Montage portal) that owns a small local
//! cluster and "reaches out to the cloud from time to time" when request
//! traffic overloads it (Question 1), or that rents an auto-scaled pool
//! "over a period of time" (Question 2).
//!
//! The workflow engine (`mcloud-core`) prices a *single* request; this
//! crate composes those per-request profiles into a month of traffic:
//! seeded Poisson/bursty arrival streams, a FIFO queue over a pool of
//! owned or rented slots ([`PoolConfig`], [`Slots`]), a cloud-burst and
//! admission policy, and per-request cost/turnaround attribution folded
//! into one [`PoolReport`] by one [`simulate_pool`].
//!
//! ```
//! use mcloud_service::{periodic, simulate_pool, PoolConfig, Slots};
//! use mcloud_simkit::NullSink;
//!
//! // One 1-degree request every 2 hours for a day, on the default
//! // 2-slot local cluster with cloud bursting.
//! let arrivals = periodic(2.0, 24.0, 1.0);
//! let owned = PoolConfig::default_owned();
//! let report = simulate_pool(arrivals.iter().copied(), &owned, &mut NullSink, |_| {});
//! assert_eq!(report.requests(), 11);
//! // Light traffic never bursts: everything fits locally.
//! assert_eq!(report.served_cloud, 0);
//!
//! // The same day on the default rented pool: its floor slot serves it
//! // all, and the slot bills for the whole span it is held.
//! let rented = PoolConfig::default_rented();
//! let report = simulate_pool(arrivals.iter().copied(), &rented, &mut NullSink, |_| {});
//! assert_eq!((report.served_local, report.served_cloud), (0, 11));
//! assert!(matches!(rented.slots, Slots::Rented { min: 1, .. }));
//! assert!(report.slot_hours > 20.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arrivals;
mod calendar;
pub mod planner;
mod profile;
mod simulator;

pub use arrivals::{
    bursty, bursty_stream, class_stream, mixed, mixed_stream, periodic, poisson, Arrival,
    ArrivalStream, FlashCrowd, MergedStream, ModulatedPoissonStream, PeriodicStream, PoissonStream,
    RateProfile, RequestClass,
};
pub use planner::{
    plan_capacity, plan_capacity_with_cache, plan_json, plan_text, CapacityPlan, PlanCandidate,
    PlanSpec, PoolSizing,
};
pub use profile::{ProfileTable, RequestProfile};
pub use simulator::{
    service_trace_jsonl, simulate_pool, AdmissionPolicy, PoolConfig, PoolReport, RequestOutcome,
    Slots, Venue,
};
