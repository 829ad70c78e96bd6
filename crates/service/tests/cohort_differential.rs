//! Pins the capacity planner's cohorts to one pool per candidate.
//!
//! `simulate_grouped` lets candidates that decide alike share one pool
//! simulation, forks it where their decisions part, and merges two
//! cohorts again once both pools have fallen quiet, each decision history
//! keeping its own tally. On drawn specs and candidate lists, at 1, 2, 3
//! and 5 groups, and for the candidates with boot delays and idle release
//! on their own, every whole report it returns, backlog and span
//! included, must equal `simulate_pool` for that candidate alone, and
//! that must equal the reference below: the pool as it was before the
//! planner shared simulations, one per candidate, deciding and acting in
//! one step. Its event calendar and in-order outcome fold are private to
//! the crate, so they are rebuilt here from public parts; the rest is the
//! old `AutoScaleSim::arrive` line for line. The reference kept no
//! backlog or span, so those lines are left out of its comparison.
//!
//! Specs and candidates are `draws::draw_spec` and
//! `draws::draw_candidates`. A spec fixes the slots every candidate
//! rents (boot delay, slot size, price, execution model); some boots
//! outlast a request, so a pool can sit at its floor with a slot still
//! booting. A candidate list is a few pool families (floor and idle
//! release), each family after the first one field away from another,
//! varying every other field: ceiling, scale-up trigger, queue bound and
//! admission policy; near twins of earlier candidates put members that
//! differ in one field into one cohort, or into cohorts one field apart.
//! Debug builds check a few short specs; `--release` checks the full
//! draw.

mod draws;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use mcloud_cost::Money;
use mcloud_service::planner::simulate_grouped;
use mcloud_service::{
    simulate_pool, AdmissionPolicy, Arrival, PlanSpec, PoolReport, PoolSizing, ProfileTable,
    RequestOutcome, Venue,
};
use mcloud_simkit::{Histogram, NullSink, SimDuration, SimRng, SimTime};

use draws::{draw_candidates, draw_spec, full, RENTED_SEED};

/// `report` without the lines the reference did not keep.
fn kept(report: &PoolReport) -> PoolReport {
    PoolReport {
        span_hours: 0.0,
        backlog_mean: 0.0,
        backlog_peak: 0.0,
        ..report.clone()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    SlotReady,
    ServiceDone,
    IdleExpire,
}

#[derive(Debug, Clone, Copy)]
struct Waiting {
    index: usize,
    degrees: f64,
    at: SimTime,
    dm_cost: Money,
    service: SimDuration,
}

/// One pool per configuration, as it was before cohorts.
struct Reference<'s> {
    spec: &'s PlanSpec,
    cfg: PoolSizing,
    /// Pending events by (time, push order).
    events: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
    pushed: u64,
    idle_slots: u32,
    booting: u32,
    busy: u32,
    rented: u32,
    peak_slots: u32,
    rentals: u32,
    slot_hours: f64,
    last_accrual: SimTime,
    waiting: VecDeque<Waiting>,
    /// Each arrival's outcome by index; `None` once drained is a reject.
    outcomes: Vec<Option<RequestOutcome>>,
    dm_cost: Money,
    deflected: u64,
    deflect_cost: Money,
}

impl<'s> Reference<'s> {
    fn run(spec: &'s PlanSpec, cfg: PoolSizing, profiles: &mut ProfileTable) -> PoolReport {
        spec.pool(&cfg)
            .validate()
            .expect("drawn candidates are valid");
        let mut sim = Reference {
            spec,
            cfg,
            events: BinaryHeap::new(),
            pushed: 0,
            idle_slots: 0,
            booting: cfg.min_slots,
            busy: 0,
            rented: cfg.min_slots,
            peak_slots: cfg.min_slots,
            rentals: cfg.min_slots,
            slot_hours: 0.0,
            last_accrual: SimTime::ZERO,
            waiting: VecDeque::new(),
            outcomes: Vec::new(),
            dm_cost: Money::ZERO,
            deflected: 0,
            deflect_cost: Money::ZERO,
        };
        let boot = SimTime::ZERO + SimDuration::from_secs_f64(spec.boot_s);
        for _ in 0..cfg.min_slots {
            sim.push(boot, Ev::SlotReady);
        }
        for a in spec.stream() {
            sim.arrive(a, profiles);
        }
        while let Some(Reverse((t, _, ev))) = sim.events.pop() {
            sim.fire(t, ev);
        }
        sim.report()
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        self.events.push(Reverse((at, self.pushed, ev)));
        self.pushed += 1;
    }

    fn arrive(&mut self, a: Arrival, profiles: &mut ProfileTable) {
        let now = SimTime::from_secs_f64(a.at_hours * 3600.0);
        let profile = profiles.fixed(a.degrees, self.spec.procs_per_slot);
        let service = SimDuration::from_hours_f64(profile.makespan_hours);
        while let Some(&Reverse((t, _, ev))) = self.events.peek() {
            if t >= now {
                break;
            }
            self.events.pop();
            self.fire(t, ev);
        }
        let i = self.outcomes.len();
        self.outcomes.push(None);
        self.accrue(now);
        let cfg = self.cfg;
        if self.idle_slots == 0 && cfg.queue_bound.is_some_and(|b| self.waiting.len() >= b) {
            match cfg.admission {
                AdmissionPolicy::Reject => {}
                AdmissionPolicy::Deflect => {
                    self.deflected += 1;
                    self.deflect_cost += profile.cost;
                    let start_h = now.as_hours_f64();
                    self.outcomes[i] = Some(RequestOutcome {
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
                AdmissionPolicy::AdmitAll => unreachable!("bounded queue without a policy"),
            }
            return;
        }
        let request = Waiting {
            index: i,
            degrees: a.degrees,
            at: now,
            dm_cost: profile.dm_cost,
            service,
        };
        if self.idle_slots > 0 {
            self.idle_slots -= 1;
            self.start_service(request, now);
        } else {
            self.waiting.push_back(request);
            if self.waiting.len() >= cfg.scale_up_queue && self.rented < cfg.max_slots {
                self.rented += 1;
                self.rentals += 1;
                self.booting += 1;
                self.peak_slots = self.peak_slots.max(self.rented);
                let boot = SimDuration::from_secs_f64(self.spec.boot_s);
                self.push(now + boot, Ev::SlotReady);
            }
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
                if self.idle_slots > 0 && self.rented > self.cfg.min_slots {
                    self.idle_slots -= 1;
                    self.rented -= 1;
                }
            }
        }
    }

    fn slot_freed(&mut self, now: SimTime) {
        let cfg = self.cfg;
        if let Some(request) = self.waiting.pop_front() {
            self.start_service(request, now);
        } else if self.rented > cfg.min_slots && cfg.idle_release_s == 0.0 {
            self.rented -= 1;
        } else {
            self.idle_slots += 1;
            if self.rented > cfg.min_slots {
                self.push(
                    now + SimDuration::from_secs_f64(cfg.idle_release_s),
                    Ev::IdleExpire,
                );
            }
        }
    }

    fn accrue(&mut self, now: SimTime) {
        self.slot_hours += self.rented as f64 * now.since(self.last_accrual).as_hours_f64();
        self.last_accrual = now;
    }

    fn start_service(&mut self, request: Waiting, now: SimTime) {
        self.busy += 1;
        self.dm_cost += request.dm_cost;
        let finish = now + request.service;
        self.outcomes[request.index] = Some(RequestOutcome {
            index: request.index,
            degrees: request.degrees,
            arrival_hours: request.at.as_hours_f64(),
            start_hours: now.as_hours_f64(),
            finish_hours: finish.as_hours_f64(),
            venue: Venue::Cloud,
            cost: request.dm_cost,
            attempts: 1,
        });
        self.push(finish, Ev::ServiceDone);
    }

    /// Folds the outcomes in arrival order, as the report's histograms
    /// are folded.
    fn report(self) -> PoolReport {
        assert_eq!((self.busy, self.booting), (0, 0), "the pool drained");
        let (mut wait_hist, mut turnaround_hist) = (Histogram::new(), Histogram::new());
        let (mut requests, mut rejected) = (0, 0);
        for outcome in &self.outcomes {
            match outcome {
                Some(o) => {
                    requests += 1;
                    wait_hist.record(o.wait_hours());
                    turnaround_hist.record(o.turnaround_hours());
                }
                None => rejected += 1,
            }
        }
        PoolReport {
            served_local: 0,
            served_cloud: requests,
            rejected,
            deflected: self.deflected,
            wait_hist,
            turnaround_hist,
            span_hours: 0.0,
            backlog_mean: 0.0,
            backlog_peak: 0.0,
            slot_hours: self.slot_hours,
            peak_slots: self.peak_slots,
            rentals: self.rentals,
            slot_cost: self.spec.slot_cost_per_hour * self.slot_hours,
            dm_cost: self.dm_cost,
            cloud_cost: self.deflect_cost,
        }
    }
}

#[test]
fn cohorts_report_what_each_candidate_reports_alone() {
    let draws = if full() { 24 } else { 10 };
    let mut rng = SimRng::new(RENTED_SEED);
    let (mut rejected, mut deflected, mut released, mut shared) = (0, 0, 0, 0);
    let (mut merged, mut slow_merged) = (0, 0);
    for draw in 0..draws {
        let spec = draw_spec(&mut rng);
        let sizings = draw_candidates(&mut rng, &spec);
        // One table for the reference runs: profiles are pure functions
        // of (degrees, slot size, execution model).
        let mut table = ProfileTable::new(spec.exec.clone());
        let reference: Vec<PoolReport> = sizings
            .iter()
            .map(|&sizing| Reference::run(&spec, sizing, &mut table))
            .collect();
        let alone: Vec<PoolReport> = sizings
            .iter()
            .map(|sizing| simulate_pool(spec.stream(), &spec.pool(sizing), &mut NullSink, |_| {}))
            .collect();
        for (i, (alone, expected)) in alone.iter().zip(&reference).enumerate() {
            assert_eq!(&kept(alone), expected, "draw {draw}: candidate {i} alone");
            rejected += expected.rejected;
            deflected += expected.deflected;
            released += u64::from(expected.rentals > expected.peak_slots);
        }
        let profiles = ProfileTable::new(spec.exec.clone());
        for groups in [1, 2, 3, 5] {
            let (grouped, stats) = simulate_grouped(&spec, &sizings, &profiles, groups);
            assert_eq!(grouped.len(), sizings.len());
            for (i, (g, expected)) in grouped.iter().zip(&alone).enumerate() {
                assert_eq!(g, expected, "draw {draw}: candidate {i} at {groups} groups");
            }
            assert!(
                stats.histories <= sizings.len() as u64,
                "draw {draw}: {stats:?}"
            );
            merged += stats.merges;
        }
        // The candidates whose pools boot and release after a grace
        // window, on their own: their cohorts re-merge only once every
        // boot and every pending release has fired.
        let (slow, slow_alone): (Vec<PoolSizing>, Vec<&PoolReport>) = sizings
            .iter()
            .zip(&alone)
            .filter(|(sizing, _)| spec.boot_s > 0.0 && sizing.idle_release_s > 0.0)
            .unzip();
        let (grouped, stats) = simulate_grouped(&spec, &slow, &profiles, 1);
        for (i, (g, expected)) in grouped.iter().zip(slow_alone).enumerate() {
            assert_eq!(g, expected, "draw {draw}: slow candidate {i}");
        }
        slow_merged += stats.merges;
        // Candidates that end alike were one cohort's members.
        shared += (0..sizings.len())
            .filter(|&i| {
                (0..i).any(|j| {
                    reference[j].slot_hours == reference[i].slot_hours
                        && reference[j].wait_hist == reference[i].wait_hist
                })
            })
            .count();
    }
    // The draw exercises every path it is meant to check.
    assert!(
        rejected > 0 && deflected > 0,
        "{rejected} rejects, {deflected} deflects"
    );
    assert!(released > 0, "no candidate released and re-rented a slot");
    assert!(shared > 0, "no two candidates shared a pool history");
    assert!(merged > 0, "no two cohorts re-merged");
    assert!(
        slow_merged > 0,
        "no two cohorts with boot delays and idle release re-merged"
    );
}
