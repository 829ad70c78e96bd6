//! The service-level queueing simulator.
//!
//! A mosaic service owns a small local cluster (divided into request
//! slots) and may burst overload to the cloud. Requests arrive, wait in a
//! FIFO queue for a local slot, or — when the backlog crosses a threshold
//! — are shipped to the cloud, which has effectively unlimited capacity
//! but bills per request. This is the decision problem behind the paper's
//! Question 1: "sometimes it needs more resources than it has, so it
//! reaches out to the cloud from time to time".
//!
//! The service is the auto-scaled pool's state machine
//! ([`crate::autoscale`]) over owned slots: they are idle from time zero,
//! never rented or released, and bill per busy hour; a burst is an
//! overflow served on the cloud.
//!
//! # Streaming aggregation
//!
//! The simulator never materializes a per-request result vector: outcomes
//! are folded into [`Histogram`]s and a time-weighted backlog integrator
//! as requests start, so simulating a month — or a decade — of traffic
//! takes memory proportional to the *peak backlog*, not the request
//! count. Callers that do want every [`RequestOutcome`] (tests, trace
//! tooling) pass [`simulate_service_stream`] a visitor, which sees them
//! in arrival order. It consumes any
//! [`ArrivalStream`](crate::arrivals::ArrivalStream), so the demand side
//! never has to exist as a `Vec` either: generator + simulator together
//! run 10^6–10^8-request campaigns in backlog-bounded memory.
//!
//! # Admission control
//!
//! A planet-scale service cannot queue unboundedly. With
//! [`ServiceConfig::queue_bound`] set, an arrival that finds the backlog
//! full is handled by the [`AdmissionPolicy`]: `Reject` turns it away
//! (counted in [`ServiceReport::rejected`], narrated as
//! [`TraceEvent::RequestRejected`]), `Deflect` serves it on per-request
//! cloud resources at the cloud price. Either way the waiting queue — and
//! with it the simulator's memory — stays bounded.

use mcloud_core::ExecConfig;
use mcloud_cost::Money;
use mcloud_simkit::{EventSink, Histogram, MetricClass, NullSink, Registry, SimRng, TraceEvent};

use crate::arrivals::Arrival;
use crate::autoscale::{drive, AutoScaleReport, Decision, Job, Policy, PoolSim};
use crate::profile::{ProfileTable, RequestProfile};

/// Where a request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Venue {
    /// An owned local cluster slot.
    Local,
    /// Cloud resources provisioned for this request.
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

/// The `queue_bound`/`admission` pairing rule shared by the service and
/// the auto-scaled pool: a bound needs an overflow policy, and a policy
/// needs a bound. `admit_all` is how the error names the no-policy setting.
pub(crate) fn check_admission(
    queue_bound: Option<usize>,
    admission: AdmissionPolicy,
    admit_all: &str,
) -> Result<(), String> {
    match (queue_bound, admission) {
        (Some(bound), AdmissionPolicy::AdmitAll) => Err(format!(
            "a bounded queue (queue_bound = {bound}) needs an overflow policy: \
             with admission = {admit_all} a full queue would strand arrivals \
             forever — use Reject or Deflect"
        )),
        (None, AdmissionPolicy::Reject | AdmissionPolicy::Deflect) => Err(
            "an overflow policy (Reject/Deflect) requires a queue_bound; \
             an unbounded queue never overflows"
                .to_string(),
        ),
        _ => Ok(()),
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of requests the local cluster can run concurrently.
    pub local_slots: u32,
    /// Processors each local request slot provides.
    pub local_procs_per_request: u32,
    /// Processors provisioned per cloud-burst request.
    pub cloud_procs_per_request: u32,
    /// Burst to the cloud when a request arrives and at least this many
    /// requests are already waiting; `None` never bursts.
    pub burst_threshold: Option<usize>,
    /// Execution model used to profile requests (mode, bandwidth, rates).
    pub exec: ExecConfig,
    /// Amortized cost of one busy local slot-hour (defaults to free,
    /// i.e. sunk hardware).
    pub local_cost_per_slot_hour: Money,
    /// Probability that a request's run fails and must be rerun from
    /// scratch (0 disables the fault model entirely — no RNG draws).
    pub request_failure_prob: f64,
    /// Reruns granted per request beyond the first attempt; a request
    /// occupies its slot (and bills) once per attempt.
    pub request_retry_max: u32,
    /// Seed for the request-level fault stream.
    pub fault_seed: u64,
    /// Cap on the number of waiting requests; `None` is the legacy
    /// unbounded FIFO. The cap also bounds the simulator's memory.
    pub queue_bound: Option<usize>,
    /// Overflow policy applied when `queue_bound` is reached.
    pub admission: AdmissionPolicy,
}

impl ServiceConfig {
    /// A paper-flavoured default: a 2-slot local cluster of 8-processor
    /// shares, bursting 16-processor cloud runs when 2+ requests wait.
    pub fn default_burst() -> Self {
        ServiceConfig {
            local_slots: 2,
            local_procs_per_request: 8,
            cloud_procs_per_request: 16,
            burst_threshold: Some(2),
            exec: ExecConfig::paper_default(),
            local_cost_per_slot_hour: Money::ZERO,
            request_failure_prob: 0.0,
            request_retry_max: 0,
            fault_seed: 0,
            queue_bound: None,
            admission: AdmissionPolicy::AdmitAll,
        }
    }

    /// Validates slot counts and threshold sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.local_slots == 0 && self.burst_threshold != Some(0) {
            return Err("a service with no local slots must burst everything \
                 (burst_threshold = Some(0))"
                .to_string());
        }
        if self.local_procs_per_request == 0 || self.cloud_procs_per_request == 0 {
            return Err("per-request processor counts must be positive".to_string());
        }
        if !(0.0..1.0).contains(&self.request_failure_prob) {
            return Err("request_failure_prob must be in [0, 1)".to_string());
        }
        check_admission(self.queue_bound, self.admission, "AdmitAll")?;
        self.exec.validate()
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

/// Aggregate result of a service simulation: streaming folds over every
/// request, in constant memory.
///
/// Per-request detail is not retained; the distributions here are folded
/// in arrival order as requests are served, so the summary statistics
/// (means, maxima, counts, costs) are bit-identical to what a
/// materialized outcome vector would yield. Callers that need individual
/// outcomes stream them through [`simulate_service_stream`]'s visitor.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Requests served on local slots.
    pub served_local: u64,
    /// Requests burst to the cloud.
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
    /// Time-weighted mean number of requests waiting for a slot over the
    /// simulated span.
    pub backlog_mean: f64,
    /// Peak number of simultaneously waiting requests.
    pub backlog_peak: f64,
    /// Dollars spent on cloud bursts.
    pub cloud_cost: Money,
    /// Amortized local cost (zero unless configured).
    pub local_cost: Money,
}

impl ServiceReport {
    /// Total requests served.
    pub fn requests(&self) -> usize {
        (self.served_local + self.served_cloud) as usize
    }

    /// Requests served locally.
    pub fn local_requests(&self) -> usize {
        self.served_local as usize
    }

    /// Requests burst to the cloud.
    pub fn cloud_requests(&self) -> usize {
        self.served_cloud as usize
    }

    /// Total demand offered to the service: served plus rejected.
    pub fn offered(&self) -> usize {
        (self.served_local + self.served_cloud + self.rejected) as usize
    }

    /// Requests turned away by admission control.
    pub fn rejected_requests(&self) -> usize {
        self.rejected as usize
    }

    /// Requests deflected to per-request cloud resources.
    pub fn deflected_requests(&self) -> usize {
        self.deflected as usize
    }

    /// Total spend.
    pub fn total_cost(&self) -> Money {
        self.cloud_cost + self.local_cost
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
        reg.set_counter(
            "mcloud_requests_total",
            "Requests served, by venue.",
            det,
            &[("venue", "local")],
            self.served_local,
        );
        reg.set_counter(
            "mcloud_requests_total",
            "Requests served, by venue.",
            det,
            &[("venue", "cloud")],
            self.served_cloud,
        );
        reg.set_counter(
            "mcloud_requests_admitted_total",
            "Requests admitted (served locally or in the cloud).",
            det,
            &[],
            self.served_local + self.served_cloud,
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

    /// Prometheus text-format exposition of [`ServiceReport::registry`]:
    /// two cumulative histograms (`mcloud_request_wait_hours`,
    /// `mcloud_request_turnaround_hours`) plus request/venue counters,
    /// the spend gauge, and backlog occupancy. Deterministic for a
    /// deterministic report.
    pub fn prometheus_text(&self) -> String {
        self.registry().prometheus_text()
    }
}

/// The latency accessors every report type shares, over its `wait_hist`
/// and `turnaround_hist` fields.
macro_rules! latency_accessors {
    ($($report:ty),*) => {$(
        impl $report {
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
            /// returns the smallest observation and `q = 1` the largest,
            /// exactly; interior quantiles are log-bucket midpoints (≤ ~9%
            /// relative error). An empty report returns 0.
            pub fn turnaround_quantile(&self, q: f64) -> f64 {
                assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
                self.turnaround_hist.quantile(q)
            }

            /// Empirical `q`-quantile of slot wait, same conventions as
            /// `turnaround_quantile`.
            pub fn wait_quantile(&self, q: f64) -> f64 {
                assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
                self.wait_hist.quantile(q)
            }

            /// Distribution of per-request slot waits, in hours.
            pub fn wait_histogram(&self) -> &Histogram {
                &self.wait_hist
            }

            /// Distribution of per-request turnarounds, in hours.
            pub fn turnaround_histogram(&self) -> &Histogram {
                &self.turnaround_hist
            }
        }
    )*};
}

latency_accessors!(ServiceReport, AutoScaleReport);

/// Simulates the service over an arrival stream.
///
/// # Panics
/// Panics if the configuration fails validation.
pub fn simulate_service(arrivals: &[Arrival], cfg: &ServiceConfig) -> ServiceReport {
    simulate_service_stream(arrivals.iter().copied(), cfg, &mut NullSink, |_| {})
}

/// The streaming core: consumes any time-sorted
/// [`ArrivalStream`](crate::arrivals::ArrivalStream), narrates each
/// request's lifecycle into `sink` as [`TraceEvent::RequestQueued`] /
/// [`TraceEvent::RequestStarted`] (with its venue) /
/// [`TraceEvent::RequestFinished`] (or [`TraceEvent::RequestRejected`]) —
/// the service-level spans that sit above the engine's per-task events —
/// and hands every [`RequestOutcome`] to `on_outcome` in arrival-index
/// order as soon as it (and all its predecessors) are decided. Nothing is
/// materialized — neither the demand nor the outcomes — so memory stays
/// proportional to the peak backlog even for 10^8-request campaigns. A
/// sink only listens: traced and untraced runs report the same.
///
/// # Panics
/// Panics if the configuration fails validation or the arrivals are not
/// sorted by time.
pub fn simulate_service_stream<S: EventSink>(
    arrivals: impl IntoIterator<Item = Arrival>,
    cfg: &ServiceConfig,
    sink: &mut S,
    on_outcome: impl FnMut(&RequestOutcome),
) -> ServiceReport {
    let mut sim = PoolSim::owned(cfg, on_outcome);
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
    drive(
        &mut sim,
        arrivals,
        &Policy::service(cfg),
        sink,
        |a, decision| {
            let mut attempts = 1u32;
            if let Some(rng) = rng.as_mut() {
                while attempts <= cfg.request_retry_max && rng.chance(cfg.request_failure_prob) {
                    attempts += 1;
                }
            }
            // Only the venue the request runs at is profiled.
            match decision {
                Decision::Serve | Decision::Queue { .. } => {
                    let profile = profiles.owned(a.degrees, cfg.local_procs_per_request);
                    Job::new(a, attempts, profile).billed_per_hour(cfg.local_cost_per_slot_hour)
                }
                Decision::Burst | Decision::Deflect => {
                    let profile = profiles.fixed(a.degrees, cfg.cloud_procs_per_request);
                    Job::new(a, attempts, profile)
                }
                Decision::Reject => Job::new(a, attempts, unserved),
            }
        },
    );
    sim.service_report(cfg.local_cost_per_slot_hour)
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
    use mcloud_simkit::RecordingSink;

    fn outcomes_of(arrivals: &[Arrival], cfg: &ServiceConfig) -> Vec<RequestOutcome> {
        let mut v = Vec::new();
        simulate_service_stream(arrivals.iter().copied(), cfg, &mut NullSink, |o| v.push(*o));
        v
    }

    #[test]
    fn traced_service_run_matches_untraced() {
        let arrivals = periodic(2.0, 24.0, 1.0);
        let cfg = ServiceConfig::default_burst();
        let mut sink = RecordingSink::new();
        let traced = simulate_service_stream(arrivals.iter().copied(), &cfg, &mut sink, |_| {});
        assert_eq!(traced, simulate_service(&arrivals, &cfg));
    }

    #[test]
    fn visitor_streams_every_outcome_in_arrival_order() {
        // Heavy traffic on one slot with bursting: cloud outcomes are
        // decided out of order (a burst starts instantly while earlier
        // arrivals still wait), so the reorder window is exercised.
        let arrivals = periodic(0.25, 12.0, 1.0);
        let cfg = ServiceConfig {
            local_slots: 1,
            burst_threshold: Some(1),
            ..ServiceConfig::default_burst()
        };
        let outcomes = outcomes_of(&arrivals, &cfg);
        let report = simulate_service(&arrivals, &cfg);
        assert_eq!(outcomes.len(), arrivals.len());
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.index, i, "visitor must see arrival order");
        }
        assert!(outcomes.iter().any(|o| o.venue == Venue::Cloud));
        // The folded report agrees with the streamed outcomes, bit for
        // bit: the fold accumulates in the same order a materialized
        // vector would have been reduced.
        assert_eq!(
            report.local_requests(),
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
        let cfg = ServiceConfig {
            local_slots: 1,
            burst_threshold: Some(1),
            ..ServiceConfig::default_burst()
        };
        let mut sink = RecordingSink::new();
        let mut outcomes = Vec::new();
        let report = simulate_service_stream(arrivals.iter().copied(), &cfg, &mut sink, |o| {
            outcomes.push(*o)
        });
        assert!(report.cloud_requests() > 0 && report.local_requests() > 0);

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

    fn report_with_turnarounds(ts: &[f64]) -> ServiceReport {
        let mut wait_hist = Histogram::new();
        let mut turnaround_hist = Histogram::new();
        for &t in ts {
            wait_hist.record(t / 2.0);
            turnaround_hist.record(t);
        }
        ServiceReport {
            served_local: ts.len() as u64,
            served_cloud: 0,
            rejected: 0,
            deflected: 0,
            wait_hist,
            turnaround_hist,
            backlog_mean: 0.0,
            backlog_peak: 0.0,
            cloud_cost: Money::ZERO,
            local_cost: Money::ZERO,
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
        let cfg = ServiceConfig {
            local_slots: 1,
            burst_threshold: Some(2),
            ..ServiceConfig::default_burst()
        };
        let report = simulate_service(&arrivals, &cfg);
        let w = report.wait_histogram();
        let t = report.turnaround_histogram();
        assert_eq!(w.count() as usize, report.requests());
        assert_eq!(t.count() as usize, report.requests());
        assert!((w.mean() - report.mean_wait_hours()).abs() < 1e-9);
        assert!((t.mean() - report.mean_turnaround_hours()).abs() < 1e-9);
        assert_eq!(w.quantile(1.0).to_bits(), report.max_wait_hours().to_bits());
    }

    #[test]
    fn backlog_occupancy_tracks_the_waiting_queue() {
        // No bursting on one slot: heavy traffic must build a backlog.
        let arrivals = periodic(0.25, 12.0, 1.0);
        let cfg = ServiceConfig {
            local_slots: 1,
            burst_threshold: None,
            ..ServiceConfig::default_burst()
        };
        let report = simulate_service(&arrivals, &cfg);
        assert!(report.backlog_peak >= 1.0, "{}", report.backlog_peak);
        assert!(report.backlog_mean > 0.0);
        assert!(report.backlog_mean <= report.backlog_peak);
        // Spaced-out traffic never queues.
        let light = simulate_service(&periodic(2.0, 20.0, 1.0), &cfg);
        assert_eq!(light.backlog_peak, 0.0);
        assert_eq!(light.backlog_mean, 0.0);
    }

    #[test]
    fn prometheus_exposition_is_deterministic_and_well_formed() {
        let arrivals = periodic(0.5, 24.0, 1.0);
        let cfg = ServiceConfig::default_burst();
        let a = simulate_service(&arrivals, &cfg).prometheus_text();
        let b = simulate_service(&arrivals, &cfg).prometheus_text();
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
        let base = ServiceConfig {
            local_slots: 1,
            burst_threshold: Some(1),
            local_cost_per_slot_hour: Money::from_dollars(0.10),
            ..ServiceConfig::default_burst()
        };
        let faulty = ServiceConfig {
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
        let clean_report = simulate_service(&arrivals, &base);
        let faulty_report = simulate_service(&arrivals, &faulty);
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
        let base = ServiceConfig::default_burst();
        // A nonzero seed with a zero rate must not perturb anything.
        let seeded = ServiceConfig {
            fault_seed: 99,
            request_retry_max: 5,
            ..base.clone()
        };
        assert_eq!(
            simulate_service(&arrivals, &base),
            simulate_service(&arrivals, &seeded)
        );
    }

    #[test]
    fn validate_rejects_a_full_failure_rate() {
        let cfg = ServiceConfig {
            request_failure_prob: 1.0,
            ..ServiceConfig::default_burst()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn service_jsonl_is_deterministic_and_ordered() {
        let arrivals = periodic(0.5, 10.0, 1.0);
        let cfg = ServiceConfig::default_burst();
        let mut a = RecordingSink::new();
        simulate_service_stream(arrivals.iter().copied(), &cfg, &mut a, |_| {});
        let mut b = RecordingSink::new();
        simulate_service_stream(arrivals.iter().copied(), &cfg, &mut b, |_| {});
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
