//! Auto-scaled standing pools, and the pool state machine every
//! service-layer simulation runs on.
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
//! Both simulators are one resumable state machine ([`PoolSim`]) over a
//! slot source ([`Pool`]: owned slots idle from the start, or rented
//! slots with a floor, a boot delay and idle release) that the caller
//! feeds one arrival at a time, resolved into a [`Job`] (its clock
//! instant, attempts, service time and charges), in three steps: fire the
//! pool events before the arrival, ask a [`Policy`] what to do with it (a
//! [`Decision`]: serve, queue, burst, reject or deflect), carry the
//! decision out. The public entry points run one pool over one stream
//! ([`drive`]); the capacity planner instead generates the stream once
//! per worker lane and lets candidates that decide alike share one
//! simulation.

use std::collections::VecDeque;

use mcloud_cost::Money;
use mcloud_simkit::{
    EventSink, Histogram, NullSink, SimDuration, SimTime, TimeWeighted, TraceEvent,
};

use crate::arrivals::Arrival;
use crate::calendar::Calendar;
use crate::profile::{ProfileTable, RequestProfile};
use crate::simulator::{
    check_admission, AdmissionPolicy, RequestOutcome, ServiceConfig, ServiceReport, Venue,
};

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
/// [`simulate_autoscale_stream`]'s visitor.
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
}

/// Simulates the auto-scaled pool over a materialized arrival slice.
///
/// # Panics
/// Panics on invalid configuration or unsorted arrivals.
pub fn simulate_autoscale(arrivals: &[Arrival], cfg: &AutoScaleConfig) -> AutoScaleReport {
    simulate_autoscale_stream(arrivals.iter().copied(), cfg, |_| {})
}

/// The streaming front-end: consumes any time-sorted
/// [`ArrivalStream`](crate::arrivals::ArrivalStream) lazily, one arrival
/// at a time, so campaign memory is bounded by the peak backlog, not the
/// request count, and streams every [`RequestOutcome`] to `on_outcome`
/// in arrival-index order (rejected requests are counted, not visited).
///
/// # Panics
/// Panics on invalid configuration or unsorted arrivals.
pub fn simulate_autoscale_stream(
    arrivals: impl IntoIterator<Item = Arrival>,
    cfg: &AutoScaleConfig,
    on_outcome: impl FnMut(&RequestOutcome),
) -> AutoScaleReport {
    let mut sim = PoolSim::rented(cfg, on_outcome);
    let mut profiles = ProfileTable::new(cfg.exec.clone());
    drive(
        &mut sim,
        arrivals,
        &Policy::of(cfg),
        &mut NullSink,
        |a, _| Job::new(a, 1, profiles.fixed(a.degrees, cfg.procs_per_slot)),
    );
    sim.autoscale_report(cfg.slot_cost_per_hour)
}

/// Runs `sim` over `arrivals` to the end, deciding each arrival by
/// `policy` and narrating into `sink`. `resolve` turns an arrival and its
/// decision into the [`Job`] that carries it out; it is called once per
/// arrival, in index order.
///
/// # Panics
/// Panics if the arrivals are not sorted by time.
pub(crate) fn drive<F: FnMut(&RequestOutcome), S: EventSink>(
    sim: &mut PoolSim<F>,
    arrivals: impl IntoIterator<Item = Arrival>,
    policy: &Policy,
    sink: &mut S,
    mut resolve: impl FnMut(Arrival, Decision) -> Job,
) {
    let mut last_hours = f64::NEG_INFINITY;
    for a in arrivals {
        assert!(last_hours <= a.at_hours, "arrivals must be sorted by time");
        last_hours = a.at_hours;
        sim.advance(clock(a.at_hours), sink);
        let decision = sim.decide(policy);
        sim.apply(resolve(a, decision), decision, sink);
    }
    sim.drain(sink);
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
    /// it charges the data-management share, as a rented slot's rental
    /// covers the CPU.
    pub(crate) fn new(arrival: Arrival, attempts: u32, profile: RequestProfile) -> Job {
        let run_hours = profile.makespan_hours * attempts as f64;
        Job {
            degrees: arrival.degrees,
            at: clock(arrival.at_hours),
            attempts,
            run_hours,
            service: SimDuration::from_hours_f64(run_hours),
            slot_cost: profile.dm_cost,
            cloud_cost: profile.cost * attempts as f64,
        }
    }

    /// The job on an owned slot that bills `rate` per busy hour.
    pub(crate) fn billed_per_hour(self, rate: Money) -> Job {
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
    /// Ceiling on rented slots.
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
    /// An auto-scaled pool's policy: it rents, and never bursts.
    pub(crate) fn of(cfg: &AutoScaleConfig) -> Policy {
        Policy {
            max_slots: cfg.max_slots,
            scale_up_queue: cfg.scale_up_queue,
            burst_at: None,
            queue_bound: cfg.queue_bound,
            admission: cfg.admission,
        }
    }

    /// A service's policy: its slot count is its ceiling, so it never
    /// rents.
    pub(crate) fn service(cfg: &ServiceConfig) -> Policy {
        Policy {
            max_slots: cfg.local_slots,
            scale_up_queue: 1,
            burst_at: cfg.burst_threshold,
            queue_bound: cfg.queue_bound,
            admission: cfg.admission,
        }
    }
}

/// The slot source: the configuration fields the pool's event handling
/// reads (boots, completions, idle release), everything two
/// configurations must share before one pool simulation can stand for
/// both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pool {
    /// Slots held at all times.
    min_slots: u32,
    /// A rented slot's boot delay.
    boot: SimDuration,
    /// How long a slot above the floor may idle before it is released;
    /// `None` releases it at once (`idle_release_s == 0`).
    idle_release: Option<SimDuration>,
    /// Owned slots: idle from time zero, never rented or released, and
    /// serving as [`Venue::Local`]; rented slots serve as
    /// [`Venue::Cloud`].
    owned: bool,
}

impl Pool {
    pub(crate) fn of(cfg: &AutoScaleConfig) -> Pool {
        Pool {
            min_slots: cfg.min_slots,
            boot: SimDuration::from_secs_f64(cfg.boot_s),
            idle_release: (cfg.idle_release_s != 0.0)
                .then(|| SimDuration::from_secs_f64(cfg.idle_release_s)),
            owned: false,
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
    /// The backlog's length over time; kept only for an owned cluster,
    /// whose report carries it.
    backlog: Option<TimeWeighted>,
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
            backlog,
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
        self.backlog.clone_from(backlog);
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
            ..*self
        }
    }

    /// The report of a drained rented pool's history, its slot-hours
    /// priced at `slot_cost_per_hour`.
    pub(crate) fn autoscale_report(&self, slot_cost_per_hour: Money) -> AutoScaleReport {
        AutoScaleReport {
            requests: self.served_local + self.served_cloud,
            rejected: self.rejected,
            deflected: self.deflected,
            wait_hist: self.wait_hist.clone(),
            turnaround_hist: self.turnaround_hist.clone(),
            slot_hours: self.slot_hours,
            rental_cost: slot_cost_per_hour * self.slot_hours,
            dm_cost: self.slot_charges,
            deflect_cost: self.cloud_cost,
            peak_slots: self.peak_slots,
            rentals: self.rentals,
        }
    }
}

// The per-arrival steps are forced inline: the planner runs them once
// per candidate cohort and arrival, and left to the compiler's choice
// they cost cold plans ~4% (EXPERIMENTS.md, *One service simulator*).
impl<F: FnMut(&RequestOutcome)> PoolSim<F> {
    /// An owned cluster of `cfg.local_slots` slots, all idle at time zero.
    ///
    /// # Panics
    /// Panics on invalid configuration.
    pub(crate) fn owned(cfg: &ServiceConfig, on_outcome: F) -> Self {
        cfg.validate().expect("invalid service configuration");
        let pool = Pool {
            min_slots: cfg.local_slots,
            boot: SimDuration::ZERO,
            idle_release: None,
            owned: true,
        };
        let mut sim = Self::empty(pool, on_outcome);
        sim.state.idle_slots = pool.min_slots;
        sim
    }

    /// A rented pool with `cfg`'s floor booting at time zero.
    ///
    /// # Panics
    /// Panics on invalid configuration.
    pub(crate) fn rented(cfg: &AutoScaleConfig, on_outcome: F) -> Self {
        cfg.validate().expect("invalid autoscale configuration");
        let mut sim = Self::empty(Pool::of(cfg), on_outcome);
        let state = &mut sim.state;
        state.booting = state.pool.min_slots;
        for _ in 0..state.booting {
            state
                .events
                .push(SimTime::ZERO + state.pool.boot, Ev::SlotReady);
        }
        sim
    }

    /// A pool holding its floor of slots, none of them idle or booting,
    /// with one history.
    fn empty(pool: Pool, on_outcome: F) -> Self {
        PoolSim {
            state: PoolState {
                pool,
                events: Calendar::new(),
                idle_slots: 0,
                booting: 0,
                busy: 0,
                rented: pool.min_slots,
                last_accrual: SimTime::ZERO,
                waiting: VecDeque::new(),
                backlog: pool.owned.then(TimeWeighted::new),
                window: VecDeque::new(),
                folded: 0,
                next_index: 0,
            },
            tallies: vec![Tally::new(pool)],
            visit: on_outcome,
        }
    }

    /// The slot source this pool simulates.
    pub(crate) fn pool(&self) -> Pool {
        self.state.pool
    }

    /// The histories this simulation stands for.
    pub(crate) fn tallies(&self) -> &[Tally] {
        &self.tallies
    }

    /// The histories, for the planner to name members and deal them out.
    pub(crate) fn tallies_mut(&mut self) -> &mut Vec<Tally> {
        &mut self.tallies
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

    /// The one history of a run alone.
    fn tally(&self) -> &Tally {
        debug_assert_eq!(self.tallies.len(), 1, "a run alone has one history");
        &self.tallies[0]
    }

    /// The report of a drained rented pool run alone, its slot-hours
    /// priced at `slot_cost_per_hour`.
    pub(crate) fn autoscale_report(&self, slot_cost_per_hour: Money) -> AutoScaleReport {
        self.tally().autoscale_report(slot_cost_per_hour)
    }

    /// The report of a drained owned cluster, its busy hours priced at
    /// `cost_per_slot_hour`.
    pub(crate) fn service_report(self, cost_per_slot_hour: Money) -> ServiceReport {
        let tally = self.tally();
        let backlog = (self.state.backlog.as_ref()).expect("an owned cluster tracks its backlog");
        ServiceReport {
            served_local: tally.served_local,
            served_cloud: tally.served_cloud,
            rejected: tally.rejected,
            deflected: tally.deflected,
            wait_hist: tally.wait_hist.clone(),
            turnaround_hist: tally.turnaround_hist.clone(),
            backlog_mean: backlog.mean(self.state.last_accrual),
            backlog_peak: backlog.peak(),
            cloud_cost: tally.cloud_cost,
            local_cost: cost_per_slot_hour * tally.busy_hours,
        }
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
        let s = &mut self.state;
        if let Some(backlog) = &mut s.backlog {
            backlog.set(now, s.waiting.len() as f64);
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
        let owned = self.state.pool.owned;
        self.state.busy += 1;
        let finish = now + request.service;
        let req = index as u32;
        sink.emit(now, TraceEvent::RequestStarted { req, cloud: !owned });
        self.settle(
            index,
            Fate::Served(RequestOutcome {
                index,
                degrees: request.degrees,
                arrival_hours: request.at.as_hours_f64(),
                start_hours: now.as_hours_f64(),
                finish_hours: finish.as_hours_f64(),
                venue: if owned { Venue::Local } else { Venue::Cloud },
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
