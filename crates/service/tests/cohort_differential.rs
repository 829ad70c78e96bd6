//! Pins the capacity planner's cohorts to one pool per candidate.
//!
//! `simulate_grouped` lets candidates that decide alike share one pool
//! simulation, forks it where their decisions part, and merges two
//! cohorts again once both pools have fallen quiet, each decision history
//! keeping its own tally. On drawn specs and candidate lists, at 1, 2, 3
//! and 5 groups, and for the candidates with boot delays and idle release
//! on their own, every report it returns must equal
//! `simulate_autoscale_stream` for that candidate alone, and that must
//! equal the reference below: the pool as it was before the planner
//! shared simulations, one per candidate, deciding and acting in one
//! step. Its event calendar and in-order outcome fold are private to the
//! crate, so they are rebuilt here from public parts; the rest is the old
//! `AutoScaleSim::arrive` line for line.
//!
//! Candidates are drawn from a few pool families (floor, boot delay, idle
//! release, slot size, execution model), each family after the first one
//! field away from another, and vary every other field: ceiling,
//! scale-up trigger, queue bound, admission policy and slot price; near
//! twins of earlier candidates put members that differ in one field into
//! one cohort, or into cohorts one field apart. Some boots outlast a
//! request, so a pool can sit at its floor with a slot still booting.
//! Debug builds check a few short specs; `--release` checks the full
//! draw.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use mcloud_core::ExecConfig;
use mcloud_cost::Money;
use mcloud_service::planner::simulate_grouped;
use mcloud_service::{
    simulate_autoscale_stream, AdmissionPolicy, Arrival, AutoScaleConfig, AutoScaleReport,
    FlashCrowd, PlanSpec, ProfileTable, RequestOutcome, Venue,
};
use mcloud_simkit::{Histogram, SimDuration, SimRng, SimTime};

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
struct Reference<'c> {
    cfg: &'c AutoScaleConfig,
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

impl<'c> Reference<'c> {
    fn run(
        cfg: &'c AutoScaleConfig,
        arrivals: impl Iterator<Item = Arrival>,
        profiles: &mut ProfileTable,
    ) -> AutoScaleReport {
        cfg.validate().expect("drawn candidates are valid");
        let mut sim = Reference {
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
        let boot = SimTime::ZERO + SimDuration::from_secs_f64(cfg.boot_s);
        for _ in 0..cfg.min_slots {
            sim.push(boot, Ev::SlotReady);
        }
        for a in arrivals {
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
        let profile = profiles.fixed(a.degrees, self.cfg.procs_per_slot);
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
                self.push(now + SimDuration::from_secs_f64(cfg.boot_s), Ev::SlotReady);
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
    fn report(self) -> AutoScaleReport {
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
        AutoScaleReport {
            requests,
            rejected,
            deflected: self.deflected,
            wait_hist,
            turnaround_hist,
            slot_hours: self.slot_hours,
            rental_cost: self.cfg.slot_cost_per_hour * self.slot_hours,
            dm_cost: self.dm_cost,
            deflect_cost: self.deflect_cost,
            peak_slots: self.peak_slots,
            rentals: self.rentals,
        }
    }
}

/// Full draw in release builds; a few short specs in debug builds, where
/// the engine profiles behind each execution model dominate.
fn full() -> bool {
    !cfg!(debug_assertions)
}

/// A seeded demand: quarter-long or shorter horizons, jittered class
/// rates, up to three flash crowds.
fn draw_spec(rng: &mut SimRng) -> PlanSpec {
    let horizon = if full() {
        rng.f64_in(24.0, 24.0 * 91.0)
    } else {
        rng.f64_in(24.0, 240.0)
    };
    let mut spec = PlanSpec::new(7.0, rng.f64_in(0.5, 6.0), horizon);
    spec.seed = rng.next_u64();
    for class in &mut spec.classes {
        class.rate_per_hour *= rng.f64_in(0.5, 1.5);
    }
    for _ in 0..rng.below(4) {
        spec.modulation.flash_crowds.push(FlashCrowd {
            start_hour: rng.f64_in(0.0, horizon),
            duration_hours: rng.f64_in(1.0, 24.0),
            multiplier: rng.f64_in(1.0, 8.0),
        });
    }
    spec
}

/// The fields a pool's event handling reads.
#[derive(Clone)]
struct Family {
    min_slots: u32,
    boot_s: f64,
    idle_release_s: f64,
    procs_per_slot: u32,
    exec: ExecConfig,
}

fn pick<T: Clone>(rng: &mut SimRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize].clone()
}

/// A candidate list: one to four families, each after the first a copy
/// of an earlier one with one field redrawn, and candidates of those
/// families with every policy field and the slot price drawn. Some
/// candidates are near twins of earlier ones: a copy with at most one
/// field redrawn, so that a cohort holds members that differ only there.
fn draw_candidates(rng: &mut SimRng, spec: &PlanSpec) -> Vec<AutoScaleConfig> {
    let execs = [spec.exec.clone(), spec.exec.clone().prestaged(true)];
    let mins = [0u32, 1, 2, 4];
    let boots = [0.0, 120.0, 300.0, 7200.0];
    let idles = [0.0, 900.0, 3600.0];
    let procs = [8u32, 16];
    let prices = [0.8, 1.6, 2.4, 3.2];
    let mut families = vec![Family {
        min_slots: pick(rng, &mins),
        boot_s: pick(rng, &boots),
        idle_release_s: pick(rng, &idles),
        procs_per_slot: pick(rng, &procs),
        exec: pick(rng, &execs),
    }];
    for _ in 0..rng.below(4) {
        let mut f = pick(rng, &families);
        match rng.below(5) {
            0 => f.min_slots = pick(rng, &mins),
            1 => f.boot_s = pick(rng, &boots),
            2 => f.idle_release_s = pick(rng, &idles),
            3 => f.procs_per_slot = pick(rng, &procs),
            _ => f.exec = pick(rng, &execs),
        }
        families.push(f);
    }
    let count = 8 + rng.below(if full() { 40 } else { 16 }) as usize;
    let mut out: Vec<AutoScaleConfig> = Vec::with_capacity(count);
    while out.len() < count {
        let cfg = if !out.is_empty() && rng.chance(0.3) {
            let mut twin = pick(rng, &out);
            match rng.below(8) {
                0 => twin.slot_cost_per_hour = Money::from_dollars(pick(rng, &prices)),
                1 => twin.idle_release_s = pick(rng, &idles),
                2 => twin.boot_s = pick(rng, &boots),
                3 => twin.procs_per_slot = pick(rng, &procs),
                4 => twin.exec = pick(rng, &execs),
                5 => twin.max_slots = twin.min_slots.max(1) + rng.below(12) as u32,
                6 => twin.min_slots = pick(rng, &mins),
                _ => {}
            }
            twin
        } else {
            let f = pick(rng, &families);
            let (queue_bound, admission) = match rng.below(3) {
                0 => (None, AdmissionPolicy::AdmitAll),
                1 => (Some(rng.below(12) as usize), AdmissionPolicy::Reject),
                _ => (Some(rng.below(24) as usize), AdmissionPolicy::Deflect),
            };
            AutoScaleConfig {
                min_slots: f.min_slots,
                max_slots: f.min_slots.max(1) + rng.below(12) as u32,
                scale_up_queue: 1 + rng.below(6) as usize,
                boot_s: f.boot_s,
                idle_release_s: f.idle_release_s,
                procs_per_slot: f.procs_per_slot,
                slot_cost_per_hour: Money::from_dollars(pick(rng, &prices)),
                queue_bound,
                admission,
                exec: f.exec,
            }
        };
        if cfg.validate().is_ok() {
            out.push(cfg);
        }
    }
    out
}

#[test]
fn cohorts_report_what_each_candidate_reports_alone() {
    let draws = if full() { 24 } else { 10 };
    let mut rng = SimRng::new(0x0c0f_0127);
    let (mut rejected, mut deflected, mut released, mut shared) = (0, 0, 0, 0);
    let (mut merged, mut slow_merged) = (0, 0);
    for draw in 0..draws {
        let spec = draw_spec(&mut rng);
        let cfgs = draw_candidates(&mut rng, &spec);
        // One table per execution model, shared by the reference runs:
        // profiles are pure functions of (degrees, slot size, model).
        let mut tables: Vec<(ExecConfig, ProfileTable)> = Vec::new();
        let reference: Vec<AutoScaleReport> = cfgs
            .iter()
            .map(|cfg| {
                let t = match tables.iter().position(|(exec, _)| exec == &cfg.exec) {
                    Some(t) => t,
                    None => {
                        let table = ProfileTable::new(cfg.exec.clone());
                        tables.push((cfg.exec.clone(), table));
                        tables.len() - 1
                    }
                };
                Reference::run(cfg, spec.stream(), &mut tables[t].1)
            })
            .collect();
        for (i, (cfg, expected)) in cfgs.iter().zip(&reference).enumerate() {
            let alone = simulate_autoscale_stream(spec.stream(), cfg, |_| {});
            assert_eq!(&alone, expected, "draw {draw}: candidate {i} alone");
            rejected += expected.rejected;
            deflected += expected.deflected;
            released += u64::from(expected.rentals > expected.peak_slots);
        }
        let profiles = ProfileTable::new(spec.exec.clone());
        for groups in [1, 2, 3, 5] {
            let (grouped, stats) = simulate_grouped(&spec, &cfgs, &profiles, groups);
            assert_eq!(grouped.len(), cfgs.len());
            for (i, (g, expected)) in grouped.iter().zip(&reference).enumerate() {
                assert_eq!(g, expected, "draw {draw}: candidate {i} at {groups} groups");
            }
            assert!(
                stats.histories <= cfgs.len() as u64,
                "draw {draw}: {stats:?}"
            );
            merged += stats.merges;
        }
        // The candidates whose pools boot and release after a grace
        // window, on their own: their cohorts re-merge only once every
        // boot and every pending release has fired.
        let (slow, slow_reference): (Vec<AutoScaleConfig>, Vec<&AutoScaleReport>) = cfgs
            .iter()
            .zip(&reference)
            .filter(|(cfg, _)| cfg.boot_s > 0.0 && cfg.idle_release_s > 0.0)
            .map(|(cfg, r)| (cfg.clone(), r))
            .unzip();
        let (grouped, stats) = simulate_grouped(&spec, &slow, &profiles, 1);
        for (i, (g, expected)) in grouped.iter().zip(slow_reference).enumerate() {
            assert_eq!(g, expected, "draw {draw}: slow candidate {i}");
        }
        slow_merged += stats.merges;
        // Candidates that end alike were one cohort's members.
        shared += (0..cfgs.len())
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
