//! # mcloud-simkit
//!
//! A small, deterministic discrete-event simulation (DES) kernel — the
//! substrate this project builds in place of the GridSim toolkit used by
//! *"The Cost of Doing Science on the Cloud: The Montage Example"*
//! (Deelman et al., SC 2008).
//!
//! The kernel provides exactly the modeling primitives the paper's
//! simulator needs, with reproducibility as a hard requirement:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond clock, so event
//!   ordering is total and platform-independent.
//! * [`EventQueue`] — O(1) FIFO lanes for serial-link completions plus a
//!   binary heap for everything else, with FIFO tie-breaking for
//!   same-instant events and lazy cancellation.
//! * [`FcfsChannel`] — the serial fixed-bandwidth link between the
//!   user/archive and cloud storage (10 Mbps in the paper).
//! * [`ProcessorPool`] — a `P`-slot compute resource with deterministic
//!   lowest-index allocation and utilization accounting.
//! * [`TimeWeighted`] — step-function integration ("area under the storage
//!   curve", the paper's GB-hours metric) and [`RunningStats`] for scalar
//!   summaries.
//! * [`Histogram`] — deterministic log-bucketed latency histograms (exact
//!   min/max, mergeable, bit-pattern bucketing) for the profiling layer.
//! * [`EventSink`] / [`TraceEvent`] — structured event tracing: engines
//!   narrate execution into a sink ([`NullSink`] when disabled at zero
//!   cost, [`RecordingSink`] for counters and derived timeseries).
//! * [`SimRng`] — a seeded xoshiro256++ generator so every stochastic
//!   model input is reproducible across platforms.
//! * [`FaultInjector`] / [`Backoff`] — deterministic fault injection
//!   (task failures, transfer failures, processor preemptions) and
//!   jittered exponential-backoff retry delays, all driven by [`SimRng`].
//! * [`WorkerPool`] / [`pool_map`] — a persistent chunk-stealing worker
//!   pool for fanning *independent* simulations across cores. Results are
//!   slotted by input index, so parallel output is byte-identical to a
//!   sequential run.
//! * [`Registry`] — a deterministic metrics registry (counters, gauges,
//!   registrable [`Histogram`]s) with byte-deterministic Prometheus text
//!   and JSON renderings, split by [`MetricClass`] into golden-safe
//!   event-derived metrics and wall-clock timings.
//! * [`json`] — the workspace's one JSON reader ([`json::parse`] into a
//!   [`json::Value`] tree, depth-bounded) and string escaper
//!   ([`json::escape`]), shared by every emitter and parser above it.
//!
//! The kernel is engine-agnostic: simulation logic lives in the crates that
//! use it (see `mcloud-core`). The simulation primitives never spawn threads
//! or consult wall clocks; a simulation is a pure function of its inputs.
//! The one concession to the host machine is the [`WorkerPool`], which runs
//! many such pure functions concurrently without affecting any result.
//!
//! ## Example: a two-server M/D/1-ish toy
//!
//! ```
//! use mcloud_simkit::{EventQueue, FcfsChannel, SimTime, TimeWeighted};
//!
//! #[derive(Debug)]
//! enum Ev { Arrive(u64), Done }
//!
//! let mut q = EventQueue::new();
//! let mut link = FcfsChannel::new(8.0); // 1 byte/s
//! let mut occupancy = TimeWeighted::new();
//!
//! q.push(SimTime::ZERO, Ev::Arrive(3));
//! q.push(SimTime::from_secs_f64(1.0), Ev::Arrive(5));
//! while let Some((now, ev)) = q.pop() {
//!     match ev {
//!         Ev::Arrive(bytes) => {
//!             occupancy.add(now, bytes as f64);
//!             let grant = link.submit(now, bytes);
//!             q.push(grant.finish, Ev::Done);
//!         }
//!         Ev::Done => occupancy.add(now, -occupancy.value()),
//!     }
//! }
//! assert_eq!(link.total_bytes(), 8);
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: every module except `worker` is unsafe-free, and
// `worker` carries a scoped `allow` for the two pointer shims its
// completion barrier makes sound (see that module's safety comments).
#![deny(unsafe_code)]

mod channel;
mod fault;
mod hist;
pub mod json;
mod pool;
mod queue;
mod rng;
mod stats;
mod telemetry;
mod time;
mod tracer;
mod worker;

pub use channel::{FcfsChannel, TransferGrant};
pub use fault::{Backoff, FaultInjector, FaultSpec};
pub use hist::Histogram;
pub use pool::{ProcId, ProcessorPool};
pub use queue::{EventId, EventQueue, QueueStats};
pub use rng::SimRng;
pub use stats::{RunningStats, TimeWeighted};
pub use telemetry::{MetricClass, Registry};
pub use time::{SimDuration, SimTime};
pub use tracer::{
    Channel, EventSink, FailureKind, NullSink, RecordingSink, TimedEvent, TraceCounters, TraceEvent,
};
pub use worker::{configured_lanes, pool_map, LaneStats, WorkerPool};
