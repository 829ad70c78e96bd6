//! The service-level pool simulator.
//!
//! A mosaic service serves each request on one *slot* (a share of
//! processors big enough for one request) of its pool. The slots come
//! from one of the paper's two provisioning questions:
//!
//! * **Owned** ([`Slots::Owned`], Question 1): a small local cluster,
//!   idle from time zero, never rented or released, billed per busy hour
//!   (zero for sunk hardware). The service "reaches out to the cloud from
//!   time to time": with a [`PoolConfig::burst_threshold`], an arrival
//!   that finds that many requests waiting is served on per-request cloud
//!   resources instead.
//! * **Rented** ([`Slots::Rented`], Question 2): the application
//!   "provisions a certain amount of resources over a period of time".
//!   Slots are rented when the backlog grows, boot before they serve,
//!   bill by the hour while held, and are released when idle above a
//!   floor.
//!
//! Both are one resumable state machine ([`PoolSim`]) that the caller
//! feeds one arrival at a time, resolved into a [`Job`] (its clock
//! instant, attempts, service time and charges), in three steps: fire the
//! pool events before the arrival, ask a [`Policy`] what to do with it (a
//! [`Decision`]: serve, queue, burst, reject or deflect), carry the
//! decision out. [`simulate_pool`] runs one pool over one stream; the
//! capacity planner instead generates the stream once per worker lane and
//! lets candidates that decide alike share one simulation.
//!
//! # Streaming aggregation
//!
//! The simulator never materializes a per-request result vector: outcomes
//! are folded into [`Histogram`]s and a time-weighted backlog integrator
//! as requests start, so simulating a month — or a decade — of traffic
//! takes memory proportional to the *peak backlog*, not the request
//! count. Callers that do want every [`RequestOutcome`] (tests, trace
//! tooling) pass [`simulate_pool`] a visitor, which sees them in arrival
//! order. It consumes any
//! [`ArrivalStream`](crate::arrivals::ArrivalStream), so the demand side
//! never has to exist as a `Vec` either: generator + simulator together
//! run 10^6–10^8-request campaigns in backlog-bounded memory.
//!
//! # Admission control
//!
//! A planet-scale service cannot queue unboundedly. With
//! [`PoolConfig::queue_bound`] set, an arrival that finds the backlog
//! full is handled by the [`AdmissionPolicy`]: `Reject` turns it away
//! (counted in [`PoolReport::rejected`], narrated as
//! [`TraceEvent::RequestRejected`]), `Deflect` serves it on per-request
//! cloud resources at the cloud price. Either way the waiting queue — and
//! with it the simulator's memory, and the money spent chasing it — stays
//! bounded.

use std::collections::VecDeque;

use mcloud_core::ExecConfig;
use mcloud_cost::Money;
use mcloud_simkit::{
    EventSink, Histogram, MetricClass, Registry, SimDuration, SimRng, SimTime, TimeWeighted,
    TraceEvent,
};

use crate::arrivals::Arrival;
use crate::calendar::Calendar;
use crate::profile::{ProfileTable, RequestProfile};

/// Where a request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Venue {
    /// An owned local cluster slot.
    Local,
    /// Cloud resources: a rented slot, or resources provisioned for this
    /// request alone.
    Cloud,
}

/// What happens to an arrival that finds a bounded waiting queue full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit everything. Only valid with an unbounded queue — a bound
    /// with no overflow policy would strand arrivals forever, so
    /// validation rejects that combination up front.
    AdmitAll,
    /// Turn the request away: it is counted as rejected, never served.
    Reject,
    /// Serve it on per-request cloud resources at the cloud price
    /// instead of queueing (load shedding that costs money, not users).
    Deflect,
}

/// Where a pool's slots come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slots {
    /// An owned cluster: `count` slots, idle from time zero, never rented
    /// or released, serving as [`Venue::Local`].
    Owned {
        /// Number of requests the cluster can run concurrently.
        count: u32,
        /// Amortized cost of one busy slot-hour (zero for sunk hardware).
        cost_per_busy_hour: Money,
    },
    /// An auto-scaled pool of rented slots (VM groups that each serve one
    /// request), serving as [`Venue::Cloud`].
    Rented {
        /// Slots kept rented at all times; they boot at time zero.
        min: u32,
        /// Hard ceiling on rented slots.
        max: u32,
        /// Rent another slot when this many requests are waiting.
        scale_up_queue: usize,
        /// Seconds from renting a slot until it can serve (VM boot).
        boot_s: f64,
        /// Seconds a slot may sit idle above the floor before it is
        /// released; 0 releases immediately. A grace window trades rental
        /// dollars for boot latency on the next burst.
        idle_release_s: f64,
        /// $ per slot-hour while rented.
        cost_per_hour: Money,
    },
}

impl Slots {
    /// `count` owned slots on sunk hardware, free to run.
    pub fn owned(count: u32) -> Slots {
        Slots::Owned {
            count,
            cost_per_busy_hour: Money::ZERO,
        }
    }

    /// `min..=max` rented slots, one more rented when `scale_up_queue`
    /// requests wait: 2-minute boots, immediate release, 16 processors'
    /// worth at $0.10 each per slot-hour.
    pub fn rented(min: u32, max: u32, scale_up_queue: usize) -> Slots {
        Slots::Rented {
            min,
            max,
            scale_up_queue,
            boot_s: 120.0,
            idle_release_s: 0.0,
            cost_per_hour: Money::from_dollars(1.6),
        }
    }
}

/// A service pool: its slot source, how requests are served on slots and
/// off them, and the admission rules.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Where the slots come from, and what they cost.
    pub slots: Slots,
    /// Processors each slot provides (sets each request's service time).
    pub procs_per_slot: u32,
    /// Processors provisioned per request served off the pool (a burst or
    /// a deflection).
    pub cloud_procs: u32,
    /// Burst to the cloud when a request arrives and at least this many
    /// requests are already waiting; `None` never bursts.
    pub burst_threshold: Option<usize>,
    /// Probability that a request's run fails and must be rerun from
    /// scratch (0 disables the fault model entirely — no RNG draws).
    pub request_failure_prob: f64,
    /// Reruns granted per request beyond the first attempt; a request
    /// occupies its venue (and bills) once per attempt.
    pub request_retry_max: u32,
    /// Seed for the request-level fault stream.
    pub fault_seed: u64,
    /// Cap on the number of waiting requests; `None` is unbounded. The
    /// cap also bounds the simulator's memory.
    pub queue_bound: Option<usize>,
    /// Overflow policy applied when `queue_bound` is reached.
    pub admission: AdmissionPolicy,
    /// Execution model used to profile requests (mode, bandwidth, rates).
    pub exec: ExecConfig,
}

impl PoolConfig {
    /// A paper-flavoured owned cluster: 2 free slots of 8 processors,
    /// bursting 16-processor cloud runs when 2+ requests wait.
    pub fn default_owned() -> Self {
        PoolConfig {
            slots: Slots::owned(2),
            procs_per_slot: 8,
            cloud_procs: 16,
            burst_threshold: Some(2),
            request_failure_prob: 0.0,
            request_retry_max: 0,
            fault_seed: 0,
            queue_bound: None,
            admission: AdmissionPolicy::AdmitAll,
            exec: ExecConfig::paper_default(),
        }
    }

    /// A sensible rented pool: 1..8 slots of 16 processors, scale up at 2
    /// waiting, 2-minute boots, 16 x $0.10 per slot-hour.
    pub fn default_rented() -> Self {
        PoolConfig {
            slots: Slots::rented(1, 8, 2),
            procs_per_slot: 16,
            cloud_procs: 16,
            burst_threshold: None,
            ..PoolConfig::default_owned()
        }
    }

    /// Validates counts, rates and durations, and rejects combinations
    /// that would strand arrivals forever — such a pool is a
    /// configuration error, not a simulation result.
    pub fn validate(&self) -> Result<(), String> {
        match self.slots {
            Slots::Owned {
                count,
                cost_per_busy_hour,
            } => {
                if count == 0 && self.burst_threshold != Some(0) {
                    return Err("a pool with no owned slots must burst everything \
                         (burst_threshold = Some(0))"
                        .to_string());
                }
                check_rate("cost_per_busy_hour", cost_per_busy_hour)?;
            }
            Slots::Rented {
                min,
                max,
                scale_up_queue,
                boot_s,
                idle_release_s,
                cost_per_hour,
            } => {
                if max == 0 || max < min {
                    return Err(format!("need 0 < max ({max}) >= min ({min}) rented slots"));
                }
                if !(boot_s.is_finite() && boot_s >= 0.0) {
                    return Err(format!("invalid boot_s {boot_s}"));
                }
                if !(idle_release_s.is_finite() && idle_release_s >= 0.0) {
                    return Err(format!("invalid idle_release_s {idle_release_s}"));
                }
                if min == 0 && scale_up_queue > 1 {
                    return Err("with min = 0 the scale-up trigger must be a single \
                         waiting request, or the first arrival waits forever"
                        .into());
                }
                if let Some(bound) = self.queue_bound.filter(|&b| b < scale_up_queue && min == 0) {
                    return Err(format!(
                        "queue_bound ({bound}) below scale_up_queue ({scale_up_queue}) with \
                         min = 0: the backlog can never reach the scale-up trigger, so the \
                         pool would never rent its first slot and every request would \
                         overflow"
                    ));
                }
                check_rate("cost_per_hour", cost_per_hour)?;
            }
        }
        if self.procs_per_slot == 0 || self.cloud_procs == 0 {
            return Err("per-request processor counts must be positive".to_string());
        }
        if !(0.0..1.0).contains(&self.request_failure_prob) {
            return Err("request_failure_prob must be in [0, 1)".to_string());
        }
        match (self.queue_bound, self.admission) {
            (Some(bound), AdmissionPolicy::AdmitAll) => {
                return Err(format!(
                    "a bounded queue (queue_bound = {bound}) needs an overflow policy: \
                     with admission = AdmitAll a full queue would strand arrivals \
                     forever — use Reject or Deflect"
                ))
            }
            (None, AdmissionPolicy::Reject | AdmissionPolicy::Deflect) => {
                return Err(
                    "an overflow policy (Reject/Deflect) requires a queue_bound; \
                     an unbounded queue never overflows"
                        .to_string(),
                )
            }
            _ => {}
        }
        self.exec.validate()
    }
}

/// Refuses a negative price, which would otherwise rank as the cheapest
/// pool. `Money` is finite by construction.
pub(crate) fn check_rate(name: &str, rate: Money) -> Result<(), String> {
    let dollars = rate.dollars();
    if dollars >= 0.0 {
        Ok(())
    } else {
        Err(format!(
            "{name} must be a finite, non-negative rate, got {dollars}"
        ))
    }
}

/// One served request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// Index into the arrival stream.
    pub index: usize,
    /// Requested mosaic size.
    pub degrees: f64,
    /// Arrival time, hours, read off the simulation clock like the start
    /// and finish, so a request served on arrival waits exactly 0.
    pub arrival_hours: f64,
    /// Service start time, hours.
    pub start_hours: f64,
    /// Completion time, hours.
    pub finish_hours: f64,
    /// Where it ran.
    pub venue: Venue,
    /// What it cost.
    pub cost: Money,
    /// Runs the request needed (1 unless the fault model rerolled it).
    pub attempts: u32,
}

impl RequestOutcome {
    /// Hours spent waiting for a slot.
    pub fn wait_hours(&self) -> f64 {
        self.start_hours - self.arrival_hours
    }

    /// Hours from arrival to completion (what the user experiences).
    pub fn turnaround_hours(&self) -> f64 {
        self.finish_hours - self.arrival_hours
    }
}

/// Aggregate result of a pool simulation: streaming folds over every
/// request, in constant memory.
///
/// Per-request detail is not retained; the distributions here are folded
/// in arrival order as requests are served, so the summary statistics
/// (means, maxima, counts, costs) are bit-identical to what a
/// materialized outcome vector would yield. Callers that need individual
/// outcomes stream them through [`simulate_pool`]'s visitor.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolReport {
    /// Requests served on owned slots.
    pub served_local: u64,
    /// Requests served on cloud resources: rented slots, bursts and
    /// deflections.
    pub served_cloud: u64,
    /// Requests turned away by admission control (never served).
    pub rejected: u64,
    /// Requests deflected to per-request cloud resources by admission
    /// control (a subset of `served_cloud`).
    pub deflected: u64,
    /// Distribution of per-request slot waits, hours, folded in arrival
    /// order.
    pub wait_hist: Histogram,
    /// Distribution of per-request turnarounds, hours, folded in arrival
    /// order.
    pub turnaround_hist: Histogram,
    /// Hours from time zero to the last arrival or pool event: the span
    /// the backlog and the held slot-hours are taken over.
    pub span_hours: f64,
    /// Time-weighted mean number of requests waiting for a slot over the
    /// simulated span.
    pub backlog_mean: f64,
    /// Peak number of simultaneously waiting requests.
    pub backlog_peak: f64,
    /// Slot-hours held over the span.
    pub slot_hours: f64,
    /// Most slots simultaneously held.
    pub peak_slots: u32,
    /// Number of slots acquired, the owned slots or the floor included.
    pub rentals: u32,
    /// Slot spend: owned slots' busy hours, or rented slots' held hours,
    /// at the configured rate.
    pub slot_cost: Money,
    /// Data-management spend (transfers + storage) of requests served on
    /// rented slots, whose rental covers the CPU.
    pub dm_cost: Money,
    /// Spend on requests served on per-request cloud resources (bursts
    /// and deflections, at the full cloud price).
    pub cloud_cost: Money,
}

impl PoolReport {
    /// Total requests served.
    pub fn requests(&self) -> u64 {
        self.served_local + self.served_cloud
    }

    /// Total demand offered to the pool: served plus rejected.
    pub fn offered(&self) -> u64 {
        self.requests() + self.rejected
    }

    /// Slot, data-management and cloud spend, summed in that order.
    pub fn total_cost(&self) -> Money {
        self.slot_cost + self.dm_cost + self.cloud_cost
    }

    /// Mean wait for a slot, hours.
    pub fn mean_wait_hours(&self) -> f64 {
        self.wait_hist.mean()
    }

    /// Longest wait, hours.
    pub fn max_wait_hours(&self) -> f64 {
        self.wait_hist.max()
    }

    /// Mean turnaround (arrival to completion), hours.
    pub fn mean_turnaround_hours(&self) -> f64 {
        self.turnaround_hist.mean()
    }

    /// Empirical `q`-quantile of turnaround, `0 <= q <= 1`. `q = 0`
    /// returns the smallest observation and `q = 1` the largest, exactly;
    /// interior quantiles are log-bucket midpoints (≤ ~9% relative
    /// error). An empty report returns 0.
    pub fn turnaround_quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        self.turnaround_hist.quantile(q)
    }

    /// Empirical `q`-quantile of slot wait, same conventions as
    /// [`turnaround_quantile`](Self::turnaround_quantile).
    pub fn wait_quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        self.wait_hist.quantile(q)
    }

    /// The report as a deterministic metrics [`Registry`]: the request
    /// latency histograms, venue counters, spend gauges, and backlog
    /// occupancy. Everything is event-derived, so the registry renders
    /// byte-identically for a deterministic report.
    pub fn registry(&self) -> Registry {
        let det = MetricClass::Deterministic;
        let mut reg = Registry::new();
        reg.set_histogram(
            "mcloud_request_wait_hours",
            "Hours each request waited for a slot.",
            det,
            &[],
            &self.wait_hist,
        );
        reg.set_histogram(
            "mcloud_request_turnaround_hours",
            "Hours from request arrival to completion.",
            det,
            &[],
            &self.turnaround_hist,
        );
        for (venue, served) in [("local", self.served_local), ("cloud", self.served_cloud)] {
            reg.set_counter(
                "mcloud_requests_total",
                "Requests served, by venue.",
                det,
                &[("venue", venue)],
                served,
            );
        }
        reg.set_counter(
            "mcloud_requests_admitted_total",
            "Requests admitted (served locally or in the cloud).",
            det,
            &[],
            self.requests(),
        );
        reg.set_counter(
            "mcloud_requests_rejected_total",
            "Requests turned away by admission control.",
            det,
            &[],
            self.rejected,
        );
        reg.set_counter(
            "mcloud_requests_deflected_total",
            "Requests deflected to per-request cloud resources.",
            det,
            &[],
            self.deflected,
        );
        reg.set_gauge(
            "mcloud_spend_dollars",
            "Total service spend in dollars.",
            det,
            &[],
            self.total_cost().dollars(),
        );
        reg.set_gauge(
            "mcloud_service_backlog_mean",
            "Time-weighted mean number of requests waiting for a slot.",
            det,
            &[],
            self.backlog_mean,
        );
        reg.set_gauge(
            "mcloud_service_backlog_peak",
            "Peak number of simultaneously waiting requests.",
            det,
            &[],
            self.backlog_peak,
        );
        reg
    }

    /// Prometheus text-format exposition of [`PoolReport::registry`]:
    /// two cumulative histograms (`mcloud_request_wait_hours`,
    /// `mcloud_request_turnaround_hours`) plus request/venue counters,
    /// the spend gauge, and backlog occupancy. Deterministic for a
    /// deterministic report.
    pub fn prometheus_text(&self) -> String {
        self.registry().prometheus_text()
    }
}

/// Simulates the pool over a time-sorted
/// [`ArrivalStream`](crate::arrivals::ArrivalStream), consumed lazily,
/// narrates each request's lifecycle into `sink` as
/// [`TraceEvent::RequestQueued`] / [`TraceEvent::RequestStarted`] (with
/// its venue) / [`TraceEvent::RequestFinished`] (or
/// [`TraceEvent::RequestRejected`]) — the service-level spans that sit
/// above the engine's per-task events — and hands every
/// [`RequestOutcome`] to `on_outcome` in arrival-index order as soon as
/// it (and all its predecessors) are decided; rejected requests are
/// counted, not visited. Nothing is materialized — neither the demand nor
/// the outcomes — so memory stays proportional to the peak backlog even
/// for 10^8-request campaigns. A sink only listens: traced and untraced
/// runs report the same.
///
/// # Panics
/// Panics if the configuration fails validation or the arrivals are not
/// sorted by time.
pub fn simulate_pool<S: EventSink>(
    arrivals: impl IntoIterator<Item = Arrival>,
    cfg: &PoolConfig,
    sink: &mut S,
    on_outcome: impl FnMut(&RequestOutcome),
) -> PoolReport {
    let mut sim = PoolSim::new(cfg, on_outcome);
    let policy = Policy::of(cfg);
    let mut profiles = ProfileTable::new(cfg.exec.clone());
    // Each request's attempt count is drawn when it arrives, rejected
    // ones included — arrivals are resolved in index order, so the draw
    // stream is identical to pre-rolling the whole vector. A zero rate
    // draws nothing, so fault-free configurations replay historic
    // byte-identical results.
    let mut rng = (cfg.request_failure_prob > 0.0).then(|| SimRng::new(cfg.fault_seed));
    let unserved = RequestProfile {
        makespan_hours: 0.0,
        cost: Money::ZERO,
        dm_cost: Money::ZERO,
    };
    let mut last_hours = f64::NEG_INFINITY;
    for a in arrivals {
        assert!(last_hours <= a.at_hours, "arrivals must be sorted by time");
        last_hours = a.at_hours;
        sim.advance(clock(a.at_hours), sink);
        let decision = sim.decide(&policy);
        let mut attempts = 1u32;
        if let Some(rng) = rng.as_mut() {
            while attempts <= cfg.request_retry_max && rng.chance(cfg.request_failure_prob) {
                attempts += 1;
            }
        }
        // Only the venue the request runs at is profiled.
        let job = match (decision, cfg.slots) {
            (Decision::Reject, _) => Job::new(a, attempts, unserved),
            (Decision::Burst | Decision::Deflect, _) => {
                Job::new(a, attempts, profiles.fixed(a.degrees, cfg.cloud_procs))
            }
            (
                Decision::Serve | Decision::Queue { .. },
                Slots::Owned {
                    cost_per_busy_hour, ..
                },
            ) => Job::new(a, attempts, profiles.owned(a.degrees, cfg.procs_per_slot))
                .billed_per_hour(cost_per_busy_hour),
            (Decision::Serve | Decision::Queue { .. }, Slots::Rented { .. }) => {
                Job::new(a, attempts, profiles.fixed(a.degrees, cfg.procs_per_slot))
            }
        };
        sim.apply(job, decision, sink);
    }
    sim.drain(sink);
    sim.tally().report(cfg, sim.end())
}

/// An arrival's instant on the simulation clock.
fn clock(at_hours: f64) -> SimTime {
    SimTime::from_secs_f64(at_hours * 3600.0)
}

/// One arrival resolved for one venue: everything a pool needs to admit,
/// queue and serve it. Profiles are memoized pure functions of
/// `(degrees, procs)`, so a job built once can be fed to every pool with
/// that slot size, and results do not depend on the profile cache's
/// warmth.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    degrees: f64,
    /// The arrival instant on the simulation clock.
    pub(crate) at: SimTime,
    /// Runs the request needs (1 unless a fault model rerolled it); each
    /// run occupies the venue and bills again.
    attempts: u32,
    /// Hours the request occupies its venue, all attempts included.
    run_hours: f64,
    /// `run_hours` on the clock: a slot's occupancy.
    service: SimDuration,
    /// What the request is charged when a pool slot serves it.
    slot_cost: Money,
    /// What serving it on per-request cloud resources costs.
    cloud_cost: Money,
}

impl Job {
    /// `arrival` run `attempts` times at `profile`'s venue; a slot serving
    /// it charges the data-management share of every attempt, as a rented
    /// slot's rental covers the CPU.
    pub(crate) fn new(arrival: Arrival, attempts: u32, profile: RequestProfile) -> Job {
        let run_hours = profile.makespan_hours * attempts as f64;
        Job {
            degrees: arrival.degrees,
            at: clock(arrival.at_hours),
            attempts,
            run_hours,
            service: SimDuration::from_hours_f64(run_hours),
            slot_cost: profile.dm_cost * attempts as f64,
            cloud_cost: profile.cost * attempts as f64,
        }
    }

    /// The job on an owned slot that bills `rate` per busy hour.
    fn billed_per_hour(self, rate: Money) -> Job {
        Job {
            slot_cost: rate * self.run_hours,
            ..self
        }
    }
}

/// What a pool does with the next arrival: the only point where a
/// [`Policy`] acts. Two pools in the same state that reach the same
/// decision stay in the same state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// Turned away by admission control.
    Reject,
    /// Served on per-request cloud resources by admission control.
    Deflect,
    /// Served on per-request cloud resources because the backlog reached
    /// the burst threshold.
    Burst,
    /// Served at once on an idle slot.
    Serve,
    /// Queued in the backlog; `rent` also rents one more slot.
    Queue { rent: bool },
}

/// The configuration fields [`PoolSim::decide`] reads: everything that
/// acts only through the decision.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Policy {
    /// Ceiling on held slots.
    max_slots: u32,
    /// Rent another slot when the backlog, this arrival included, reaches
    /// this length.
    scale_up_queue: usize,
    /// Burst to the cloud when at least this many requests wait.
    burst_at: Option<usize>,
    queue_bound: Option<usize>,
    admission: AdmissionPolicy,
}

impl Policy {
    /// `cfg`'s policy. Owned slots are their own ceiling, so an owned
    /// pool never rents.
    pub(crate) fn of(cfg: &PoolConfig) -> Policy {
        let (max_slots, scale_up_queue) = match cfg.slots {
            Slots::Owned { count, .. } => (count, 1),
            Slots::Rented {
                max,
                scale_up_queue,
                ..
            } => (max, scale_up_queue),
        };
        Policy {
            max_slots,
            scale_up_queue,
            burst_at: cfg.burst_threshold,
            queue_bound: cfg.queue_bound,
            admission: cfg.admission,
        }
    }
}

/// The slot source as the pool's event handling reads it (boots,
/// completions, idle release): everything two configurations must share
/// before one pool simulation can stand for both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pool {
    /// Slots held at all times.
    min_slots: u32,
    /// A rented slot's boot delay.
    boot: SimDuration,
    /// How long a slot above the floor may idle before it is released;
    /// `None` releases it at once.
    idle_release: Option<SimDuration>,
    /// Where a slot serves: [`Venue::Local`] for owned slots.
    venue: Venue,
}

impl Pool {
    pub(crate) fn of(cfg: &PoolConfig) -> Pool {
        match cfg.slots {
            Slots::Owned { count, .. } => Pool {
                min_slots: count,
                boot: SimDuration::ZERO,
                idle_release: None,
                venue: Venue::Local,
            },
            Slots::Rented {
                min,
                boot_s,
                idle_release_s,
                ..
            } => Pool {
                min_slots: min,
                boot: SimDuration::from_secs_f64(boot_s),
                idle_release: (idle_release_s != 0.0)
                    .then(|| SimDuration::from_secs_f64(idle_release_s)),
                venue: Venue::Cloud,
            },
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// A rented slot finished booting.
    SlotReady,
    /// A slot finished serving request `.0`.
    ServiceDone(u32),
    /// An idle-release grace window expired; release one idle slot above
    /// the floor if any remains idle.
    IdleExpire,
    /// Request `.0` finished on per-request cloud resources. Scheduled
    /// only when a sink listens, to narrate the finish; it moves no
    /// accounting, so a traced run reports what an untraced one does.
    CloudDone(u32),
}

/// A request a slot takes: what starting it needs, and no more (the
/// backlog's peak length sets the planner's memory).
#[derive(Debug, Clone, Copy)]
struct Waiting {
    index: usize,
    degrees: f64,
    /// The arrival instant on the simulation clock, so the wait is
    /// measured on one clock (exactly 0 for a request served on arrival).
    at: SimTime,
    service: SimDuration,
    cost: Money,
    attempts: u32,
}

/// One pool simulation as a resumable state machine. The caller owns the
/// arrival loop: for each resolved arrival it fires the pool events
/// before it ([`PoolSim::advance`]), asks a [`Policy`] what to do with it
/// ([`PoolSim::decide`]) and carries that out ([`PoolSim::apply`]); then
/// it drains the pool ([`PoolSim::drain`]) and reads a report.
///
/// A simulation is two parts: the pool's dynamic state, which events and
/// decisions move, and one [`Tally`] per decision history, which sums
/// what a report reads. The state holds no configuration, only its
/// [`Pool`], so configurations that share one and decide alike share one
/// simulation (the capacity planner's cohorts). Where their decisions
/// part, [`fork`](PoolSim::fork) copies the state; when two pools fall
/// quiet, [`absorb`](PoolSim::absorb) lets one state go on for both, each
/// history keeping its tally. Every tally receives every update, in
/// order, so each sums exactly what its history run alone sums. Trace
/// events go to the sink each step is handed.
pub(crate) struct PoolSim<F: FnMut(&RequestOutcome)> {
    state: PoolState,
    tallies: Vec<Tally>,
    visit: F,
}

/// What a pool's events and decisions move: its calendar, slot counts,
/// backlog, outcome reorder window and clock.
#[derive(Clone)]
struct PoolState {
    pool: Pool,
    events: Calendar<Ev>,
    // Slots are fungible: we track counts, not identities.
    idle_slots: u32, // held, booted, not serving
    booting: u32,
    busy: u32,
    rented: u32, // idle + booting + busy
    /// The last instant accounted for: the previous arrival or pool event.
    last_accrual: SimTime,
    /// FIFO backlog; the request rides along because a stream cannot be
    /// re-indexed.
    waiting: VecDeque<Waiting>,
    /// Fates decided ahead of an earlier request's, from request `folded`
    /// on: buffered until every predecessor is decided, so the tallies
    /// fold outcomes in arrival order. Bounded by the peak backlog, not
    /// the request count.
    window: VecDeque<Fate>,
    /// Index of the first request not yet folded.
    folded: usize,
    next_index: usize,
}

impl PoolState {
    /// Makes this state a copy of `src`, reusing its own buffers.
    fn copy_from(&mut self, src: &PoolState) {
        let PoolState {
            pool,
            events,
            idle_slots,
            booting,
            busy,
            rented,
            last_accrual,
            waiting,
            window,
            folded,
            next_index,
        } = src;
        self.pool = *pool;
        self.events.clone_from(events);
        self.idle_slots = *idle_slots;
        self.booting = *booting;
        self.busy = *busy;
        self.rented = *rented;
        self.last_accrual = *last_accrual;
        self.waiting.clone_from(waiting);
        self.window.clone_from(window);
        self.folded = *folded;
        self.next_index = *next_index;
    }
}

/// What one decision history sums: everything a report reads.
#[derive(Debug, Clone)]
pub(crate) struct Tally {
    /// The planner's candidates that made this history's decisions; empty
    /// outside the planner.
    pub(crate) members: Vec<usize>,
    /// Slot-hours held, accrued at every arrival and pool event.
    slot_hours: f64,
    /// Hours slots spend serving the requests taken so far.
    busy_hours: f64,
    /// Charges of the requests slots took.
    slot_charges: Money,
    /// Spend on requests served on per-request cloud resources.
    cloud_cost: Money,
    deflected: u64,
    peak_slots: u32,
    rentals: u32,
    wait_hist: Histogram,
    turnaround_hist: Histogram,
    /// The backlog's length over time, set where this history's backlog
    /// grows or shrinks; a merged history keeps its own integral.
    backlog: TimeWeighted,
    served_local: u64,
    served_cloud: u64,
    rejected: u64,
}

impl Tally {
    /// A history that has only taken `pool`'s floor.
    fn new(pool: Pool) -> Tally {
        Tally {
            members: Vec::new(),
            slot_hours: 0.0,
            busy_hours: 0.0,
            slot_charges: Money::ZERO,
            cloud_cost: Money::ZERO,
            deflected: 0,
            peak_slots: pool.min_slots,
            rentals: pool.min_slots,
            wait_hist: Histogram::new(),
            turnaround_hist: Histogram::new(),
            backlog: TimeWeighted::new(),
            served_local: 0,
            served_cloud: 0,
            rejected: 0,
        }
    }

    /// A copy of this history for `members`, whose decisions part here
    /// from its other members'.
    pub(crate) fn fork(&self, members: Vec<usize>) -> Tally {
        Tally {
            members,
            wait_hist: self.wait_hist.clone(),
            turnaround_hist: self.turnaround_hist.clone(),
            backlog: self.backlog.clone(),
            ..*self
        }
    }

    /// The report of this history of a pool drained at `end`, priced by
    /// `cfg`'s slot rate: owned slots bill their busy hours, rented slots
    /// their held hours plus the data management of what they served.
    pub(crate) fn report(&self, cfg: &PoolConfig, end: SimTime) -> PoolReport {
        let (slot_cost, dm_cost) = match cfg.slots {
            Slots::Owned {
                cost_per_busy_hour, ..
            } => (cost_per_busy_hour * self.busy_hours, Money::ZERO),
            Slots::Rented { cost_per_hour, .. } => {
                (cost_per_hour * self.slot_hours, self.slot_charges)
            }
        };
        PoolReport {
            served_local: self.served_local,
            served_cloud: self.served_cloud,
            rejected: self.rejected,
            deflected: self.deflected,
            wait_hist: self.wait_hist.clone(),
            turnaround_hist: self.turnaround_hist.clone(),
            span_hours: end.as_hours_f64(),
            backlog_mean: self.backlog.mean(end),
            backlog_peak: self.backlog.peak(),
            slot_hours: self.slot_hours,
            peak_slots: self.peak_slots,
            rentals: self.rentals,
            slot_cost,
            dm_cost,
            cloud_cost: self.cloud_cost,
        }
    }
}

// The per-arrival steps are forced inline: the planner runs them once
// per candidate cohort and arrival, and left to the compiler's choice
// they cost cold plans ~4% (EXPERIMENTS.md, *One service simulator*).
impl<F: FnMut(&RequestOutcome)> PoolSim<F> {
    /// `cfg`'s pool with one history: owned slots all idle at time zero,
    /// or the rented floor booting at time zero.
    ///
    /// # Panics
    /// Panics on invalid configuration.
    pub(crate) fn new(cfg: &PoolConfig, on_outcome: F) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid pool configuration: {e}");
        }
        let pool = Pool::of(cfg);
        let mut state = PoolState {
            pool,
            events: Calendar::new(),
            idle_slots: 0,
            booting: 0,
            busy: 0,
            rented: pool.min_slots,
            last_accrual: SimTime::ZERO,
            waiting: VecDeque::new(),
            window: VecDeque::new(),
            folded: 0,
            next_index: 0,
        };
        match cfg.slots {
            Slots::Owned { .. } => state.idle_slots = pool.min_slots,
            Slots::Rented { .. } => {
                state.booting = pool.min_slots;
                for _ in 0..pool.min_slots {
                    state.events.push(SimTime::ZERO + pool.boot, Ev::SlotReady);
                }
            }
        }
        PoolSim {
            state,
            tallies: vec![Tally::new(pool)],
            visit: on_outcome,
        }
    }

    /// The slot source this pool simulates.
    pub(crate) fn pool(&self) -> Pool {
        self.state.pool
    }

    /// The last instant accounted for; once drained, the end of the run.
    pub(crate) fn end(&self) -> SimTime {
        self.state.last_accrual
    }

    /// The histories this simulation stands for.
    pub(crate) fn tallies(&self) -> &[Tally] {
        &self.tallies
    }

    /// The histories, for the planner to name members and deal them out.
    pub(crate) fn tallies_mut(&mut self) -> &mut Vec<Tally> {
        &mut self.tallies
    }

    /// The one history of a run alone.
    fn tally(&self) -> &Tally {
        debug_assert_eq!(self.tallies.len(), 1, "a run alone has one history");
        &self.tallies[0]
    }

    /// Whether the pool has fallen quiet: nothing in its calendar (so
    /// nothing busy, booting or due for release), nobody waiting, and only
    /// its floor held. Every quiescent state of one [`Pool`] advanced to
    /// one instant is the same state: calendars with no events behave
    /// alike whatever their sequence counters read, and the outcome window
    /// is empty once everyone is decided.
    #[inline(always)]
    pub(crate) fn quiescent(&self) -> bool {
        let s = &self.state;
        let quiet = s.events.is_empty() && s.waiting.is_empty() && s.rented == s.pool.min_slots;
        debug_assert!(!quiet || (s.busy, s.booting, s.window.len()) == (0, 0, 0));
        quiet
    }

    /// Goes on for `other`'s histories too: moves every tally of `other`,
    /// a quiescent pool of the same [`Pool`] advanced to the same arrival
    /// as this quiescent one, into this simulation. `other` is left with
    /// no tally, its buffers kept for a [`fork`](Self::fork).
    pub(crate) fn absorb(&mut self, other: &mut Self) {
        let (s, o) = (&self.state, &other.state);
        debug_assert!(self.quiescent() && other.quiescent());
        debug_assert!(s.pool == o.pool);
        debug_assert_eq!(
            (s.last_accrual, s.next_index, s.folded),
            (o.last_accrual, o.next_index, o.folded)
        );
        self.tallies.append(&mut other.tallies);
    }

    /// A copy of this pool's dynamic state with no tally, for histories
    /// whose decisions part here from the others'. `spare`, a simulation
    /// left with no tally by [`absorb`](Self::absorb), lends its buffers,
    /// so a fork of a spare does not allocate.
    pub(crate) fn fork(&self, spare: Option<Self>) -> Self
    where
        F: Clone,
    {
        match spare {
            Some(mut fork) => {
                debug_assert!(fork.tallies.is_empty());
                fork.state.copy_from(&self.state);
                fork
            }
            None => PoolSim {
                state: self.state.clone(),
                tallies: Vec::new(),
                visit: self.visit.clone(),
            },
        }
    }

    /// Fires the pool events strictly before `now`, the next arrival's
    /// instant; an event at that instant fires after the arrival, so an
    /// arrival ties ahead of any pool event (the historical
    /// all-events-upfront order).
    #[inline(always)]
    pub(crate) fn advance<S: EventSink>(&mut self, now: SimTime, sink: &mut S) {
        while self.state.events.peek_time().is_some_and(|t| t < now) {
            let (t, ev) = self.state.events.pop().expect("peeked event");
            self.fire(t, ev, sink);
        }
        self.accrue(now);
    }

    /// What `policy` does with the next arrival in the current state.
    /// Overflow rules act only when no slot is idle, in order: the burst
    /// threshold, then the queue bound, then the backlog.
    #[inline(always)]
    pub(crate) fn decide(&self, policy: &Policy) -> Decision {
        let s = &self.state;
        if s.idle_slots > 0 {
            // A slot only idles once the backlog is empty, so nobody is
            // waiting ahead of this request.
            return Decision::Serve;
        }
        let waiting = s.waiting.len();
        if policy.burst_at.is_some_and(|k| waiting >= k) {
            return Decision::Burst;
        }
        if policy.queue_bound.is_some_and(|b| waiting >= b) {
            return match policy.admission {
                AdmissionPolicy::Reject => Decision::Reject,
                AdmissionPolicy::Deflect => Decision::Deflect,
                // validate() rejects a bound without a policy.
                AdmissionPolicy::AdmitAll => unreachable!("bounded queue without a policy"),
            };
        }
        // The trigger counts the backlog with this request in it.
        Decision::Queue {
            rent: waiting + 1 >= policy.scale_up_queue && s.rented < policy.max_slots,
        }
    }

    /// Carries out `decision` for `job`, which must be the arrival the
    /// last [`advance`](Self::advance) ran up to.
    #[inline(always)]
    pub(crate) fn apply<S: EventSink>(&mut self, job: Job, decision: Decision, sink: &mut S) {
        let now = job.at;
        let i = self.state.next_index;
        self.state.next_index += 1;
        let req = i as u32;
        sink.emit(now, TraceEvent::RequestQueued { req });
        match decision {
            Decision::Reject => {
                sink.emit(now, TraceEvent::RequestRejected { req });
                self.settle(i, Fate::Rejected);
            }
            Decision::Burst | Decision::Deflect => {
                // Full per-request cloud price: CPU plus data management.
                let deflected = u64::from(decision == Decision::Deflect);
                for t in &mut self.tallies {
                    t.deflected += deflected;
                    t.cloud_cost += job.cloud_cost;
                }
                sink.emit(now, TraceEvent::RequestStarted { req, cloud: true });
                // Served on arrival: arrival and start are one instant of
                // the simulation clock.
                let start_h = now.as_hours_f64();
                self.settle(
                    i,
                    Fate::Served(RequestOutcome {
                        index: i,
                        degrees: job.degrees,
                        arrival_hours: start_h,
                        start_hours: start_h,
                        finish_hours: start_h + job.run_hours,
                        venue: Venue::Cloud,
                        cost: job.cloud_cost,
                        attempts: job.attempts,
                    }),
                );
                if sink.enabled() {
                    self.state
                        .events
                        .push(now + job.service, Ev::CloudDone(req));
                }
            }
            Decision::Serve => {
                debug_assert!(self.state.waiting.is_empty());
                self.state.idle_slots -= 1;
                let request = self.take(i, job);
                self.start_service(request, now, sink);
            }
            Decision::Queue { rent } => {
                let request = self.take(i, job);
                self.state.waiting.push_back(request);
                self.backlog_changed(now);
                if rent {
                    let s = &mut self.state;
                    s.rented += 1;
                    s.booting += 1;
                    for t in &mut self.tallies {
                        t.rentals += 1;
                        t.peak_slots = t.peak_slots.max(s.rented);
                    }
                    s.events.push(now + s.pool.boot, Ev::SlotReady);
                }
            }
        }
    }

    /// Fires every pending pool event: every request is then decided.
    pub(crate) fn drain<S: EventSink>(&mut self, sink: &mut S) {
        while let Some((t, ev)) = self.state.events.pop() {
            self.fire(t, ev, sink);
        }
        let s = &self.state;
        debug_assert_eq!(s.busy, 0);
        debug_assert_eq!(s.booting, 0);
        debug_assert_eq!(s.folded, s.next_index, "every request is decided");
    }

    #[inline(always)]
    fn fire<S: EventSink>(&mut self, now: SimTime, ev: Ev, sink: &mut S) {
        match ev {
            Ev::CloudDone(req) => sink.emit(now, TraceEvent::RequestFinished { req }),
            Ev::SlotReady => {
                self.accrue(now);
                self.state.booting -= 1;
                self.slot_freed(now, sink);
            }
            Ev::ServiceDone(req) => {
                self.accrue(now);
                sink.emit(now, TraceEvent::RequestFinished { req });
                self.state.busy -= 1;
                self.slot_freed(now, sink);
            }
            Ev::IdleExpire => {
                self.accrue(now);
                // Slots are fungible, so the grace window is approximate:
                // the slot that scheduled this check may have been reused
                // since. Release one slot only if some slot is still idle
                // and the pool sits above its floor.
                let s = &mut self.state;
                if s.idle_slots > 0 && s.rented > s.pool.min_slots {
                    s.idle_slots -= 1;
                    s.rented -= 1;
                }
            }
        }
    }

    /// A slot just booted or finished a request: it takes the head of the
    /// backlog, or goes idle, honouring the floor and the idle-release
    /// grace window.
    #[inline(always)]
    fn slot_freed<S: EventSink>(&mut self, now: SimTime, sink: &mut S) {
        let s = &mut self.state;
        if let Some(request) = s.waiting.pop_front() {
            self.backlog_changed(now);
            self.start_service(request, now, sink);
        } else if s.rented <= s.pool.min_slots {
            s.idle_slots += 1; // the floor stays held
        } else if let Some(grace) = s.pool.idle_release {
            s.idle_slots += 1;
            s.events.push(now + grace, Ev::IdleExpire);
        } else {
            s.rented -= 1; // idle above the floor: release immediately
        }
    }

    fn backlog_changed(&mut self, now: SimTime) {
        let waiting = self.state.waiting.len() as f64;
        for t in &mut self.tallies {
            t.backlog.set(now, waiting);
        }
    }

    fn accrue(&mut self, now: SimTime) {
        let s = &mut self.state;
        let held = s.rented as f64 * now.since(s.last_accrual).as_hours_f64();
        for t in &mut self.tallies {
            t.slot_hours += held;
        }
        s.last_accrual = now;
    }

    /// Books request `index`'s slot hours and charge as the pool takes
    /// it. Slots start requests in the order the pool takes them (it
    /// serves on arrival only with the backlog empty), so the sums run in
    /// start order.
    #[inline(always)]
    fn take(&mut self, index: usize, job: Job) -> Waiting {
        for t in &mut self.tallies {
            t.busy_hours += job.run_hours;
            t.slot_charges += job.slot_cost;
        }
        Waiting {
            index,
            degrees: job.degrees,
            at: job.at,
            service: job.service,
            cost: job.slot_cost,
            attempts: job.attempts,
        }
    }

    /// Puts `request` on a slot at `now`.
    #[inline(always)]
    fn start_service<S: EventSink>(&mut self, request: Waiting, now: SimTime, sink: &mut S) {
        let index = request.index;
        let venue = self.state.pool.venue;
        self.state.busy += 1;
        let finish = now + request.service;
        let req = index as u32;
        let cloud = venue == Venue::Cloud;
        sink.emit(now, TraceEvent::RequestStarted { req, cloud });
        self.settle(
            index,
            Fate::Served(RequestOutcome {
                index,
                degrees: request.degrees,
                arrival_hours: request.at.as_hours_f64(),
                start_hours: now.as_hours_f64(),
                finish_hours: finish.as_hours_f64(),
                venue,
                cost: request.cost,
                attempts: request.attempts,
            }),
        );
        self.state.events.push(finish, Ev::ServiceDone(req));
    }

    /// Records request `index`'s fate, then folds every outcome whose
    /// predecessors are all decided into each tally and hands it to the
    /// visitor, in arrival order. A rejection holds its place in the
    /// window (it *is* a decision) but is only counted, never visited.
    #[inline(always)]
    fn settle(&mut self, index: usize, fate: Fate) {
        let s = &mut self.state;
        debug_assert!(index >= s.folded, "request {index} decided twice");
        let at = index - s.folded;
        if at >= s.window.len() {
            s.window.resize(at + 1, Fate::Pending);
        }
        s.window[at] = fate;
        while let Some(&front) = s.window.front() {
            match front {
                Fate::Pending => break,
                Fate::Served(o) => {
                    let (wait, turnaround) = (o.wait_hours(), o.turnaround_hours());
                    for t in &mut self.tallies {
                        t.wait_hist.record(wait);
                        t.turnaround_hist.record(turnaround);
                        match o.venue {
                            Venue::Local => t.served_local += 1,
                            Venue::Cloud => t.served_cloud += 1,
                        }
                    }
                    (self.visit)(&o);
                }
                Fate::Rejected => {
                    for t in &mut self.tallies {
                        t.rejected += 1;
                    }
                }
            }
            s.window.pop_front();
            s.folded += 1;
        }
    }
}

/// A request's decided fate, buffered until all its predecessors are
/// decided too.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Pending,
    Served(RequestOutcome),
    Rejected,
}

/// Serializes a service-level event stream as JSON Lines, one request
/// lifecycle event per line — the service counterpart of
/// `mcloud_core::trace_to_jsonl`. Integer microsecond timestamps and a
/// fixed key order keep the output byte-deterministic; non-request events
/// are skipped.
pub fn service_trace_jsonl(events: &[mcloud_simkit::TimedEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let t = e.at.as_micros();
        let line = match e.event {
            TraceEvent::RequestQueued { req } => {
                format!(r#"{{"t_us":{t},"ev":"request_queued","req":{req}}}"#)
            }
            TraceEvent::RequestStarted { req, cloud } => {
                format!(r#"{{"t_us":{t},"ev":"request_started","req":{req},"cloud":{cloud}}}"#)
            }
            TraceEvent::RequestFinished { req } => {
                format!(r#"{{"t_us":{t},"ev":"request_finished","req":{req}}}"#)
            }
            TraceEvent::RequestRejected { req } => {
                format!(r#"{{"t_us":{t},"ev":"request_rejected","req":{req}}}"#)
            }
            _ => continue,
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::periodic;
    use mcloud_simkit::{NullSink, RecordingSink};

    fn run(arrivals: &[Arrival], cfg: &PoolConfig) -> PoolReport {
        simulate_pool(arrivals.iter().copied(), cfg, &mut NullSink, |_| {})
    }

    fn outcomes_of(arrivals: &[Arrival], cfg: &PoolConfig) -> Vec<RequestOutcome> {
        let mut v = Vec::new();
        simulate_pool(arrivals.iter().copied(), cfg, &mut NullSink, |o| v.push(*o));
        v
    }

    /// The default owned cluster cut to one slot, bursting at `threshold`.
    fn one_slot(threshold: Option<usize>) -> PoolConfig {
        PoolConfig {
            slots: Slots::owned(1),
            burst_threshold: threshold,
            ..PoolConfig::default_owned()
        }
    }

    #[test]
    fn traced_service_run_matches_untraced() {
        let arrivals = periodic(2.0, 24.0, 1.0);
        let cfg = PoolConfig::default_owned();
        let mut sink = RecordingSink::new();
        let traced = simulate_pool(arrivals.iter().copied(), &cfg, &mut sink, |_| {});
        assert_eq!(traced, run(&arrivals, &cfg));
    }

    #[test]
    fn visitor_streams_every_outcome_in_arrival_order() {
        // Heavy traffic on one slot with bursting: cloud outcomes are
        // decided out of order (a burst starts instantly while earlier
        // arrivals still wait), so the reorder window is exercised.
        let arrivals = periodic(0.25, 12.0, 1.0);
        let cfg = one_slot(Some(1));
        let outcomes = outcomes_of(&arrivals, &cfg);
        let report = run(&arrivals, &cfg);
        assert_eq!(outcomes.len(), arrivals.len());
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.index, i, "visitor must see arrival order");
        }
        assert!(outcomes.iter().any(|o| o.venue == Venue::Cloud));
        // The folded report agrees with the streamed outcomes, bit for
        // bit: the fold accumulates in the same order a materialized
        // vector would have been reduced.
        assert_eq!(
            report.served_local as usize,
            outcomes.iter().filter(|o| o.venue == Venue::Local).count()
        );
        let naive_mean: f64 =
            outcomes.iter().map(RequestOutcome::wait_hours).sum::<f64>() / outcomes.len() as f64;
        assert_eq!(report.mean_wait_hours().to_bits(), naive_mean.to_bits());
        let naive_max = outcomes
            .iter()
            .map(RequestOutcome::wait_hours)
            .fold(0.0f64, f64::max);
        assert_eq!(report.max_wait_hours().to_bits(), naive_max.to_bits());
    }

    #[test]
    fn request_spans_mirror_outcomes() {
        // Heavy periodic traffic on one slot with bursting: both venues.
        let arrivals = periodic(0.25, 12.0, 1.0);
        let cfg = one_slot(Some(1));
        let mut sink = RecordingSink::new();
        let mut outcomes = Vec::new();
        let report = simulate_pool(arrivals.iter().copied(), &cfg, &mut sink, |o| {
            outcomes.push(*o)
        });
        assert!(report.served_cloud > 0 && report.served_local > 0);

        let c = sink.counters();
        let n = arrivals.len() as u64;
        assert_eq!(c.requests_queued, n);
        assert_eq!(c.requests_started, n);

        // Each outcome's queued/started/finished events appear at exactly
        // the times the report says, with the right venue.
        for o in &outcomes {
            let req = o.index as u32;
            let mut queued = None;
            let mut started = None;
            let mut finished = None;
            for e in sink.events() {
                match e.event {
                    TraceEvent::RequestQueued { req: r } if r == req => queued = Some(e.at),
                    TraceEvent::RequestStarted { req: r, cloud } if r == req => {
                        started = Some((e.at, cloud));
                    }
                    TraceEvent::RequestFinished { req: r } if r == req => finished = Some(e.at),
                    _ => {}
                }
            }
            let queued = queued.expect("queued event");
            let (started, cloud) = started.expect("started event");
            let finished = finished.expect("finished event");
            assert_eq!(cloud, o.venue == Venue::Cloud, "req {req}");
            assert!((queued.as_hours_f64() - o.arrival_hours).abs() < 1e-9);
            assert!((started.as_hours_f64() - o.start_hours).abs() < 1e-9);
            assert!(
                (finished.as_hours_f64() - o.finish_hours).abs() < 1e-6,
                "req {req}"
            );
        }
    }

    fn report_with_turnarounds(ts: &[f64]) -> PoolReport {
        let mut wait_hist = Histogram::new();
        let mut turnaround_hist = Histogram::new();
        for &t in ts {
            wait_hist.record(t / 2.0);
            turnaround_hist.record(t);
        }
        PoolReport {
            served_local: ts.len() as u64,
            served_cloud: 0,
            rejected: 0,
            deflected: 0,
            wait_hist,
            turnaround_hist,
            span_hours: 0.0,
            backlog_mean: 0.0,
            backlog_peak: 0.0,
            slot_hours: 0.0,
            peak_slots: 0,
            rentals: 0,
            slot_cost: Money::ZERO,
            dm_cost: Money::ZERO,
            cloud_cost: Money::ZERO,
        }
    }

    #[test]
    fn quantiles_cover_the_documented_edge_cases() {
        let empty = report_with_turnarounds(&[]);
        assert_eq!(empty.turnaround_quantile(0.0), 0.0);
        assert_eq!(empty.turnaround_quantile(0.5), 0.0);
        assert_eq!(empty.turnaround_quantile(1.0), 0.0);
        assert_eq!(empty.wait_quantile(0.5), 0.0);

        let single = report_with_turnarounds(&[3.0]);
        for q in [0.0, 0.25, 1.0] {
            assert_eq!(single.turnaround_quantile(q), 3.0);
        }

        let r = report_with_turnarounds(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(r.turnaround_quantile(0.0), 1.0); // q = 0 is the minimum
        assert_eq!(r.turnaround_quantile(0.25), 1.0); // rank 1: still exact
        assert_eq!(r.turnaround_quantile(1.0), 4.0); // q = 1 is the maximum
        assert_eq!(r.wait_quantile(1.0), 2.0); // waits are half of these

        // Interior quantiles are log-bucket midpoints: rank 2 lands on the
        // sample 2.0, whose 1/8-octave bucket [2.0, 2.25) reports 2.125.
        let q50 = r.turnaround_quantile(0.5);
        assert!((q50 - 2.125).abs() < 1e-12, "got {q50}");
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn quantile_rejects_out_of_range() {
        report_with_turnarounds(&[1.0]).turnaround_quantile(1.5);
    }

    #[test]
    fn histograms_agree_with_the_scalar_statistics() {
        let arrivals = periodic(0.25, 12.0, 1.0);
        let report = run(&arrivals, &one_slot(Some(2)));
        let w = &report.wait_hist;
        let t = &report.turnaround_hist;
        assert_eq!(w.count(), report.requests());
        assert_eq!(t.count(), report.requests());
        assert!((w.mean() - report.mean_wait_hours()).abs() < 1e-9);
        assert!((t.mean() - report.mean_turnaround_hours()).abs() < 1e-9);
        assert_eq!(w.quantile(1.0).to_bits(), report.max_wait_hours().to_bits());
    }

    #[test]
    fn backlog_occupancy_tracks_the_waiting_queue() {
        // No bursting on one slot: heavy traffic must build a backlog, on
        // an owned slot and on a rented one alike.
        let arrivals = periodic(0.25, 12.0, 1.0);
        let rented = PoolConfig {
            slots: Slots::Rented {
                min: 1,
                max: 1,
                scale_up_queue: 1,
                boot_s: 0.0,
                idle_release_s: 0.0,
                cost_per_hour: Money::ZERO,
            },
            ..PoolConfig::default_rented()
        };
        for cfg in [one_slot(None), rented] {
            let report = run(&arrivals, &cfg);
            assert!(report.backlog_peak >= 1.0, "{}", report.backlog_peak);
            assert!(report.backlog_mean > 0.0);
            assert!(report.backlog_mean <= report.backlog_peak);
            // Spaced-out traffic never queues.
            let light = run(&periodic(2.0, 20.0, 1.0), &cfg);
            assert_eq!(light.backlog_peak, 0.0);
            assert_eq!(light.backlog_mean, 0.0);
        }
    }

    #[test]
    fn prometheus_exposition_is_deterministic_and_well_formed() {
        let arrivals = periodic(0.5, 24.0, 1.0);
        let cfg = PoolConfig::default_owned();
        let a = run(&arrivals, &cfg).prometheus_text();
        let b = run(&arrivals, &cfg).prometheus_text();
        assert_eq!(a, b);
        assert!(a.contains("# TYPE mcloud_request_wait_hours histogram"));
        assert!(a.contains("mcloud_request_turnaround_hours_bucket{le=\"+Inf\"}"));
        assert!(a.contains("mcloud_requests_total{venue=\"local\"}"));
        assert!(a.contains("mcloud_spend_dollars "));
        assert!(a.contains("mcloud_service_backlog_mean "));
        // Cumulative bucket counts are monotonically non-decreasing.
        let mut last = 0u64;
        for line in a.lines() {
            if let Some(rest) = line.strip_prefix("mcloud_request_wait_hours_bucket{le=\"") {
                let n: u64 = rest.split("} ").nth(1).unwrap().parse().unwrap();
                assert!(n >= last, "{line}");
                last = n;
            }
        }
    }

    #[test]
    fn request_retries_inflate_turnaround_and_cost_deterministically() {
        let arrivals = periodic(0.5, 24.0, 1.0);
        let base = PoolConfig {
            slots: Slots::Owned {
                count: 1,
                cost_per_busy_hour: Money::from_dollars(0.10),
            },
            burst_threshold: Some(1),
            ..PoolConfig::default_owned()
        };
        let faulty = PoolConfig {
            request_failure_prob: 0.5,
            request_retry_max: 3,
            fault_seed: 2008,
            ..base.clone()
        };
        let clean = outcomes_of(&arrivals, &base);
        let a = outcomes_of(&arrivals, &faulty);
        let b = outcomes_of(&arrivals, &faulty);
        // Same seed, same stream: identical outcomes.
        assert_eq!(a, b);
        // At a 50% rate across 48 requests some retries must land, each
        // within the configured budget.
        assert!(a.iter().any(|o| o.attempts > 1));
        assert!(a.iter().all(|o| o.attempts <= 4));
        assert!(clean.iter().all(|o| o.attempts == 1));
        let clean_report = run(&arrivals, &base);
        let faulty_report = run(&arrivals, &faulty);
        assert!(faulty_report.total_cost() > clean_report.total_cost());
        assert!(faulty_report.mean_turnaround_hours() > clean_report.mean_turnaround_hours());
        // Billing and service time scale with the rerolled attempts: a
        // request's occupancy is its single-run span times its attempts.
        for o in &a {
            let span = o.finish_hours - o.start_hours;
            assert!(span > 0.0 && o.cost > Money::ZERO, "req {}", o.index);
            let per_run = span / o.attempts as f64;
            assert!(per_run > 0.0, "req {}", o.index);
        }
    }

    #[test]
    fn zero_failure_rate_is_byte_identical_to_the_legacy_model() {
        let arrivals = periodic(0.5, 24.0, 1.0);
        let base = PoolConfig::default_owned();
        // A nonzero seed with a zero rate must not perturb anything.
        let seeded = PoolConfig {
            fault_seed: 99,
            request_retry_max: 5,
            ..base.clone()
        };
        assert_eq!(run(&arrivals, &base), run(&arrivals, &seeded));
    }

    #[test]
    fn validate_rejects_a_full_failure_rate() {
        let cfg = PoolConfig {
            request_failure_prob: 1.0,
            ..PoolConfig::default_owned()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn service_jsonl_is_deterministic_and_ordered() {
        let arrivals = periodic(0.5, 10.0, 1.0);
        let cfg = PoolConfig::default_owned();
        let mut a = RecordingSink::new();
        simulate_pool(arrivals.iter().copied(), &cfg, &mut a, |_| {});
        let mut b = RecordingSink::new();
        simulate_pool(arrivals.iter().copied(), &cfg, &mut b, |_| {});
        let ja = service_trace_jsonl(a.events());
        assert_eq!(ja, service_trace_jsonl(b.events()));
        assert_eq!(ja.lines().count(), a.events().len());
        let mut last = 0i64;
        for line in ja.lines() {
            assert!(line.starts_with(r#"{"t_us":"#), "{line}");
            let t: i64 = line["{\"t_us\":".len()..line.find(',').unwrap()]
                .parse()
                .unwrap();
            assert!(t >= last, "timestamps out of order: {line}");
            last = t;
        }
    }
}
