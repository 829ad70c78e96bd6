//! Auto-scaled standing pools.
//!
//! Question 2 assumes the application "provisions a certain amount of
//! resources over a period of time to sustain the expected computational
//! load". A fixed standing pool wastes money at night and queues during
//! overloads; this module simulates the dynamic version: slots (VM groups
//! that each serve one request) are rented when the backlog grows, carry a
//! boot delay, bill by the hour while held, and are released when idle.
//!
//! Like the service simulator, the pool consumes its arrivals as a lazy
//! stream and folds outcomes into histograms, so memory stays bounded by
//! the peak backlog. Admission control ([`AutoScaleConfig::queue_bound`]
//! plus an [`AdmissionPolicy`]) keeps that backlog — and the money spent
//! chasing it — finite even under sustained overload.
//!
//! The simulation is a resumable state machine ([`AutoScaleSim`]) that
//! the caller feeds one arrival at a time, resolved into a [`Job`] (its
//! clock instant, profile and service time), in three steps: fire the
//! pool events before the arrival, ask a configuration what to do with
//! it (a [`Decision`]), carry the decision out. The public entry points
//! run one pool over one stream; the capacity planner instead generates
//! the stream once per worker lane and lets candidates that decide alike
//! share one simulation.

use std::collections::VecDeque;

use mcloud_cost::Money;
use mcloud_simkit::{Histogram, SimDuration, SimTime};

use crate::arrivals::Arrival;
use crate::calendar::Calendar;
use crate::profile::{ProfileTable, RequestProfile};
use crate::simulator::{check_admission, AdmissionPolicy, OutcomeFold, RequestOutcome, Venue};

/// Auto-scaler configuration.
#[derive(Debug, Clone)]
pub struct AutoScaleConfig {
    /// Slots kept rented at all times.
    pub min_slots: u32,
    /// Hard ceiling on rented slots.
    pub max_slots: u32,
    /// Rent another slot when this many requests are waiting.
    pub scale_up_queue: usize,
    /// Seconds from renting a slot until it can serve (VM boot).
    pub boot_s: f64,
    /// Seconds a slot may sit idle above the floor before it is released;
    /// 0 releases immediately (the historical behavior). A grace window
    /// trades rental dollars for boot-latency on the next burst.
    pub idle_release_s: f64,
    /// Processors per slot (sets each request's service time).
    pub procs_per_slot: u32,
    /// $ per slot-hour while rented.
    pub slot_cost_per_hour: Money,
    /// Cap on the number of waiting requests; `None` is unbounded.
    pub queue_bound: Option<usize>,
    /// Overflow policy applied when `queue_bound` is reached.
    pub admission: AdmissionPolicy,
    /// Execution model used to profile request service times and
    /// per-request data-management costs.
    pub exec: mcloud_core::ExecConfig,
}

impl AutoScaleConfig {
    /// A sensible default: 1..8 slots of 16 processors, scale up at 2
    /// waiting, 2-minute boots, 16 x $0.10 per slot-hour.
    pub fn default_pool() -> Self {
        AutoScaleConfig {
            min_slots: 1,
            max_slots: 8,
            scale_up_queue: 2,
            boot_s: 120.0,
            idle_release_s: 0.0,
            procs_per_slot: 16,
            slot_cost_per_hour: Money::from_dollars(1.6),
            queue_bound: None,
            admission: AdmissionPolicy::AdmitAll,
            exec: mcloud_core::ExecConfig::paper_default(),
        }
    }

    /// Validates bounds, and rejects combinations that could never meet
    /// any SLO — a pool that can strand arrivals forever is a
    /// configuration error, not a simulation result.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_slots == 0 || self.max_slots < self.min_slots {
            return Err(format!(
                "need 0 < max_slots ({}) >= min_slots ({})",
                self.max_slots, self.min_slots
            ));
        }
        if self.procs_per_slot == 0 {
            return Err("procs_per_slot must be positive".into());
        }
        if !(self.boot_s.is_finite() && self.boot_s >= 0.0) {
            return Err(format!("invalid boot_s {}", self.boot_s));
        }
        if !(self.idle_release_s.is_finite() && self.idle_release_s >= 0.0) {
            return Err(format!("invalid idle_release_s {}", self.idle_release_s));
        }
        if self.min_slots == 0 && self.scale_up_queue > 1 {
            return Err("with min_slots = 0 the scale-up trigger must be a single \
                 waiting request, or the first arrival waits forever"
                .into());
        }
        check_admission(
            self.queue_bound,
            self.admission,
            "AdmitAll (rejects and deflects disabled)",
        )?;
        if self
            .queue_bound
            .is_some_and(|b| b < self.scale_up_queue && self.min_slots == 0)
        {
            return Err(format!(
                "queue_bound ({}) below scale_up_queue ({}) with min_slots = 0: \
                 the backlog can never reach the scale-up trigger, so the pool \
                 would never rent its first slot and every request would \
                 overflow",
                self.queue_bound.unwrap_or(0),
                self.scale_up_queue
            ));
        }
        self.exec.validate()
    }
}

/// Result of an auto-scaled pool simulation: streaming folds, constant
/// memory. Per-request detail streams through
/// [`simulate_autoscale_each`].
#[derive(Debug, Clone, PartialEq)]
pub struct AutoScaleReport {
    /// Requests served in the pool.
    pub requests: u64,
    /// Requests turned away by admission control.
    pub rejected: u64,
    /// Requests deflected to per-request cloud resources (served, but
    /// outside the pool; billed in `deflect_cost`).
    pub deflected: u64,
    /// Distribution of per-request slot waits, hours, folded in arrival
    /// order.
    pub wait_hist: Histogram,
    /// Distribution of per-request turnarounds, hours, folded in arrival
    /// order.
    pub turnaround_hist: Histogram,
    /// Total slot-hours rented.
    pub slot_hours: f64,
    /// Rental spend (`slot_hours x rate`).
    pub rental_cost: Money,
    /// Per-request data-management spend (transfers + storage).
    pub dm_cost: Money,
    /// Spend on deflected requests (full per-request cloud price).
    pub deflect_cost: Money,
    /// Most slots simultaneously rented.
    pub peak_slots: u32,
    /// Number of rent operations (including the initial `min_slots`).
    pub rentals: u32,
}

impl AutoScaleReport {
    /// Rental plus data-management plus deflection spend.
    pub fn total_cost(&self) -> Money {
        self.rental_cost + self.dm_cost + self.deflect_cost
    }

    /// Total demand offered to the pool: served plus rejected.
    pub fn offered(&self) -> u64 {
        self.requests + self.rejected
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

    /// Empirical `q`-quantile of turnaround, `0 <= q <= 1`; same
    /// conventions as `ServiceReport::turnaround_quantile`.
    pub fn turnaround_quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        self.turnaround_hist.quantile(q)
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// A rented slot finished booting.
    SlotReady,
    /// A slot finished serving a request.
    ServiceDone,
    /// An idle-release grace window expired; release one idle slot above
    /// the floor if any remains idle.
    IdleExpire,
}

/// Simulates the auto-scaled pool over a materialized arrival slice.
///
/// # Panics
/// Panics on invalid configuration or unsorted arrivals.
pub fn simulate_autoscale(arrivals: &[Arrival], cfg: &AutoScaleConfig) -> AutoScaleReport {
    simulate_autoscale_stream(arrivals.iter().copied(), cfg, |_| {})
}

/// Like [`simulate_autoscale`], but streams every [`RequestOutcome`] to
/// `on_outcome` in arrival-index order (rejected requests are counted,
/// not visited).
///
/// # Panics
/// Panics on invalid configuration or unsorted arrivals.
pub fn simulate_autoscale_each(
    arrivals: &[Arrival],
    cfg: &AutoScaleConfig,
    on_outcome: impl FnMut(&RequestOutcome),
) -> AutoScaleReport {
    simulate_autoscale_stream(arrivals.iter().copied(), cfg, on_outcome)
}

/// The streaming front-end: consumes any time-sorted
/// [`ArrivalStream`](crate::arrivals::ArrivalStream) lazily, one arrival
/// at a time, so campaign memory is bounded by the peak backlog, not the
/// request count.
///
/// # Panics
/// Panics on invalid configuration or unsorted arrivals.
pub fn simulate_autoscale_stream(
    arrivals: impl IntoIterator<Item = Arrival>,
    cfg: &AutoScaleConfig,
    on_outcome: impl FnMut(&RequestOutcome),
) -> AutoScaleReport {
    let mut profiles = ProfileTable::new(cfg.exec.clone());
    let mut sim = AutoScaleSim::new(cfg, on_outcome);
    for a in arrivals {
        sim.arrive(cfg, Job::new(a, cfg.procs_per_slot, &mut profiles));
    }
    sim.drain();
    sim.report(cfg.slot_cost_per_hour)
}

/// One arrival resolved for pools of one slot size: everything a pool
/// needs to admit, queue and serve it. Profiles are memoized pure
/// functions of `(degrees, procs)`, so a job built once can be fed to
/// every pool with that `procs_per_slot`, and results do not depend on
/// the profile cache's warmth.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    arrival: Arrival,
    /// The arrival instant on the simulation clock.
    pub(crate) at: SimTime,
    profile: RequestProfile,
    /// The request's slot occupancy, `profile.makespan_hours` on the clock.
    service: SimDuration,
}

impl Job {
    /// Resolves `arrival` for slots of `procs_per_slot` processors.
    pub(crate) fn new(arrival: Arrival, procs_per_slot: u32, profiles: &mut ProfileTable) -> Job {
        let profile = profiles.fixed(arrival.degrees, procs_per_slot);
        Job {
            arrival,
            at: SimTime::from_secs_f64(arrival.at_hours * 3600.0),
            profile,
            service: SimDuration::from_hours_f64(profile.makespan_hours),
        }
    }
}

/// What a pool does with the next arrival: the only point where the
/// policy fields of an [`AutoScaleConfig`] (`max_slots`,
/// `scale_up_queue`, `queue_bound`, `admission`) act. Two pools in the
/// same state that reach the same decision stay in the same state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// Turned away by admission control.
    Reject,
    /// Served on per-request cloud resources, outside the pool.
    Deflect,
    /// Served at once on an idle slot.
    Serve,
    /// Queued in the backlog; `rent` also rents one more slot.
    Queue { rent: bool },
}

/// The configuration fields the pool's event handling reads (boots,
/// completions, idle release): everything two configurations must share
/// before one pool simulation can stand for both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pool {
    /// Slots kept rented at all times.
    min_slots: u32,
    /// A rented slot's boot delay.
    boot: SimDuration,
    /// How long a slot above the floor may idle before it is released;
    /// `None` releases it at once (`idle_release_s == 0`).
    idle_release: Option<SimDuration>,
}

impl Pool {
    pub(crate) fn of(cfg: &AutoScaleConfig) -> Pool {
        Pool {
            min_slots: cfg.min_slots,
            boot: SimDuration::from_secs_f64(cfg.boot_s),
            idle_release: (cfg.idle_release_s != 0.0)
                .then(|| SimDuration::from_secs_f64(cfg.idle_release_s)),
        }
    }
}

/// A request in the backlog: what starting it needs, and no more (the
/// backlog's peak length sets the planner's memory).
#[derive(Debug, Clone, Copy)]
struct Waiting {
    index: usize,
    degrees: f64,
    /// The arrival instant on the simulation clock, so the wait is
    /// measured on one clock (exactly 0 for a request served on arrival).
    at: SimTime,
    dm_cost: Money,
    service: SimDuration,
}

/// One auto-scaled pool simulation as a resumable state machine. The
/// caller owns the arrival loop: for each resolved arrival it fires the
/// pool events before it ([`AutoScaleSim::advance`]), asks a
/// configuration what to do with it ([`AutoScaleSim::decide`]) and
/// carries that out ([`AutoScaleSim::apply`]); then it drains the pool
/// ([`AutoScaleSim::drain`]) and reads the report. The state holds no
/// configuration, only its [`Pool`] fields, so configurations that share
/// those and decide alike share one simulation (the capacity planner's
/// cohorts), and a clone forks it where their decisions part.
#[derive(Clone)]
pub(crate) struct AutoScaleSim<F: FnMut(&RequestOutcome)> {
    pool: Pool,
    events: Calendar<Ev>,
    // Pool state. Slots are fungible: we track counts, not identities.
    idle_slots: u32, // rented, booted, not serving
    booting: u32,
    busy: u32,
    rented: u32, // idle + booting + busy
    peak_slots: u32,
    rentals: u32,
    slot_hours: f64,
    last_accrual: SimTime,
    /// FIFO backlog; the request rides along because a stream cannot be
    /// re-indexed.
    waiting: VecDeque<Waiting>,
    fold: OutcomeFold<F>,
    next_index: usize,
    last_arrival_hours: f64,
    dm_cost: Money,
    deflected: u64,
    deflect_cost: Money,
}

impl<F: FnMut(&RequestOutcome)> AutoScaleSim<F> {
    /// A pool with `cfg`'s floor rented (booting) at time zero.
    ///
    /// # Panics
    /// Panics on invalid configuration.
    pub(crate) fn new(cfg: &AutoScaleConfig, on_outcome: F) -> Self {
        cfg.validate().expect("invalid autoscale configuration");
        let pool = Pool::of(cfg);
        let mut events = Calendar::new();
        for _ in 0..pool.min_slots {
            events.push(SimTime::ZERO + pool.boot, Ev::SlotReady);
        }
        AutoScaleSim {
            pool,
            events,
            idle_slots: 0,
            booting: pool.min_slots,
            busy: 0,
            rented: pool.min_slots,
            peak_slots: pool.min_slots,
            rentals: pool.min_slots,
            slot_hours: 0.0,
            last_accrual: SimTime::ZERO,
            waiting: VecDeque::new(),
            fold: OutcomeFold::new(on_outcome),
            next_index: 0,
            last_arrival_hours: f64::NEG_INFINITY,
            dm_cost: Money::ZERO,
            deflected: 0,
            deflect_cost: Money::ZERO,
        }
    }

    /// The configuration fields this pool's event handling reads.
    pub(crate) fn pool(&self) -> Pool {
        self.pool
    }

    /// Handles the next arrival, resolved for `cfg`'s `procs_per_slot`,
    /// as `cfg` would: [`advance`](Self::advance),
    /// [`decide`](Self::decide), [`apply`](Self::apply).
    ///
    /// # Panics
    /// Panics if `job` arrives earlier than the previous arrival.
    pub(crate) fn arrive(&mut self, cfg: &AutoScaleConfig, job: Job) {
        self.advance(job.at);
        let decision = self.decide(cfg);
        self.apply(job, decision);
    }

    /// Fires the pool events strictly before `now`, the next arrival's
    /// instant; an event at that instant fires after the arrival, so an
    /// arrival ties ahead of any pool event (the historical
    /// all-events-upfront order).
    pub(crate) fn advance(&mut self, now: SimTime) {
        while self.events.peek_time().is_some_and(|t| t < now) {
            let (t, ev) = self.events.pop().expect("peeked event");
            self.fire(t, ev);
        }
        self.accrue(now);
    }

    /// What `cfg` does with the next arrival in the current state.
    pub(crate) fn decide(&self, cfg: &AutoScaleConfig) -> Decision {
        if self.idle_slots > 0 {
            // A slot only idles once the backlog is empty, so nobody is
            // waiting ahead of this request.
            return Decision::Serve;
        }
        // Admission control fires only when no slot could serve the
        // request immediately and the backlog is at its bound.
        if cfg.queue_bound.is_some_and(|b| self.waiting.len() >= b) {
            return match cfg.admission {
                AdmissionPolicy::Reject => Decision::Reject,
                AdmissionPolicy::Deflect => Decision::Deflect,
                // validate() rejects a bound without a policy.
                AdmissionPolicy::AdmitAll => unreachable!("bounded queue without a policy"),
            };
        }
        // The trigger counts the backlog with this request in it.
        let backlog = self.waiting.len() + 1;
        Decision::Queue {
            rent: backlog >= cfg.scale_up_queue && self.rented < cfg.max_slots,
        }
    }

    /// Carries out `decision` for `job`, which must be the arrival the
    /// last [`advance`](Self::advance) ran up to.
    ///
    /// # Panics
    /// Panics if `job` arrives earlier than the previous arrival.
    pub(crate) fn apply(&mut self, job: Job, decision: Decision) {
        let (a, now, profile) = (job.arrival, job.at, job.profile);
        let i = self.next_index;
        self.next_index += 1;
        assert!(
            self.last_arrival_hours <= a.at_hours,
            "arrivals must be sorted by time"
        );
        self.last_arrival_hours = a.at_hours;
        let request = Waiting {
            index: i,
            degrees: a.degrees,
            at: now,
            dm_cost: profile.dm_cost,
            service: job.service,
        };
        match decision {
            Decision::Reject => self.fold.push_rejected(i),
            Decision::Deflect => {
                // Full per-request cloud price: CPU plus data management,
                // same as a service cloud burst.
                self.deflected += 1;
                self.deflect_cost += profile.cost;
                // Served on arrival: arrival and start are one instant of
                // the simulation clock.
                let start_h = now.as_hours_f64();
                self.fold.push(RequestOutcome {
                    index: i,
                    degrees: a.degrees,
                    arrival_hours: start_h,
                    start_hours: start_h,
                    finish_hours: start_h + profile.makespan_hours,
                    venue: Venue::Cloud,
                    cost: profile.cost,
                    attempts: 1,
                });
            }
            Decision::Serve => {
                debug_assert!(self.waiting.is_empty());
                self.idle_slots -= 1;
                self.start_service(request, now);
            }
            Decision::Queue { rent } => {
                self.waiting.push_back(request);
                if rent {
                    self.rented += 1;
                    self.rentals += 1;
                    self.booting += 1;
                    self.peak_slots = self.peak_slots.max(self.rented);
                    self.events.push(now + self.pool.boot, Ev::SlotReady);
                }
            }
        }
    }

    /// Fires every pending pool event: every request is then decided.
    pub(crate) fn drain(&mut self) {
        while let Some((t, ev)) = self.events.pop() {
            self.fire(t, ev);
        }
        debug_assert_eq!(self.busy, 0);
        debug_assert_eq!(self.booting, 0);
        debug_assert_eq!(self.fold.next, self.next_index, "every request is decided");
    }

    /// The report of a drained pool, its rented slot-hours priced at
    /// `slot_cost_per_hour`.
    pub(crate) fn report(&self, slot_cost_per_hour: Money) -> AutoScaleReport {
        let fold = &self.fold;
        AutoScaleReport {
            requests: fold.served_local + fold.served_cloud,
            rejected: fold.rejected,
            deflected: self.deflected,
            wait_hist: fold.wait_hist.clone(),
            turnaround_hist: fold.turnaround_hist.clone(),
            slot_hours: self.slot_hours,
            rental_cost: slot_cost_per_hour * self.slot_hours,
            dm_cost: self.dm_cost,
            deflect_cost: self.deflect_cost,
            peak_slots: self.peak_slots,
            rentals: self.rentals,
        }
    }

    fn fire(&mut self, now: SimTime, ev: Ev) {
        self.accrue(now);
        match ev {
            Ev::SlotReady => {
                self.booting -= 1;
                self.slot_freed(now);
            }
            Ev::ServiceDone => {
                self.busy -= 1;
                self.slot_freed(now);
            }
            Ev::IdleExpire => {
                // Slots are fungible, so the grace window is approximate:
                // the slot that scheduled this check may have been reused
                // since. Release one slot only if some slot is still idle
                // and the pool sits above its floor.
                if self.idle_slots > 0 && self.rented > self.pool.min_slots {
                    self.idle_slots -= 1;
                    self.rented -= 1;
                }
            }
        }
    }

    /// A slot just booted or finished a request: it takes the head of the
    /// backlog, or goes idle, honouring the floor and the idle-release
    /// grace window.
    fn slot_freed(&mut self, now: SimTime) {
        if let Some(request) = self.waiting.pop_front() {
            self.start_service(request, now);
        } else if self.rented <= self.pool.min_slots {
            self.idle_slots += 1; // the floor stays rented
        } else if let Some(grace) = self.pool.idle_release {
            self.idle_slots += 1;
            self.events.push(now + grace, Ev::IdleExpire);
        } else {
            self.rented -= 1; // idle above the floor: release immediately
        }
    }

    fn accrue(&mut self, now: SimTime) {
        self.slot_hours += self.rented as f64 * now.since(self.last_accrual).as_hours_f64();
        self.last_accrual = now;
    }

    /// Puts `request` on a slot at `now`. The slot rental covers CPU, so
    /// the request itself is charged only its data-management share.
    fn start_service(&mut self, request: Waiting, now: SimTime) {
        self.busy += 1;
        self.dm_cost += request.dm_cost;
        let finish = now + request.service;
        self.fold.push(RequestOutcome {
            index: request.index,
            degrees: request.degrees,
            arrival_hours: request.at.as_hours_f64(),
            start_hours: now.as_hours_f64(),
            finish_hours: finish.as_hours_f64(),
            venue: Venue::Cloud,
            cost: request.dm_cost,
            attempts: 1,
        });
        self.events.push(finish, Ev::ServiceDone);
    }
}
