//! Pins the service simulator to its own event loop as it was before it
//! ran on the shared pool state machine.
//!
//! `simulate_pool` over owned slots is the pool machine with slots idle
//! from time zero, never rented, billed per busy hour, with a burst
//! threshold checked before the queue bound. The reference below is the
//! service's former hand-written loop; its event calendar and in-order
//! outcome fold are private to the crate, so they are rebuilt here from
//! public parts, and its slot and cloud starts return what they used to
//! write through references. On drawn configurations and arrival
//! streams, the whole report must match bit for bit, and so must the
//! streamed outcomes and the recorded trace events. The former loop kept
//! no span, held slot-hours or slot counts, so those lines are left out
//! of the comparison.
//!
//! The reference schedules its cloud finishes only when traced, and
//! those moved the backlog's time horizon, so a traced reference run
//! reported a different `backlog_mean`. The simulator's traced run must
//! therefore report what the reference reports untraced.
//!
//! Configurations and streams are `draws::draw_owned` and
//! `draws::draw_arrivals`. Debug builds check a few short draws;
//! `--release` checks the full draw.

mod draws;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use mcloud_cost::Money;
use mcloud_service::{
    simulate_pool, AdmissionPolicy, Arrival, PoolConfig, PoolReport, ProfileTable, RequestOutcome,
    Slots, Venue,
};
use mcloud_simkit::{
    EventSink, Histogram, NullSink, RecordingSink, SimDuration, SimRng, SimTime, TimeWeighted,
    TimedEvent, TraceEvent,
};

use draws::{draw_arrivals, draw_owned, full, OWNED_SEED};

/// The owned slots' count and busy-hour price.
fn owned(cfg: &PoolConfig) -> (u32, Money) {
    match cfg.slots {
        Slots::Owned {
            count,
            cost_per_busy_hour,
        } => (count, cost_per_busy_hour),
        Slots::Rented { .. } => panic!("the former loop ran owned slots"),
    }
}

/// `report` without the lines the former loop did not keep.
fn kept(report: &PoolReport) -> PoolReport {
    PoolReport {
        span_hours: 0.0,
        slot_hours: 0.0,
        peak_slots: 0,
        rentals: 0,
        ..report.clone()
    }
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    LocalDone(usize),
    CloudDone(usize),
}

/// The former service loop. Outcomes are kept by index and folded in
/// arrival order at the end, as the in-order fold does while running.
fn reference<S: EventSink>(
    arrivals: &[Arrival],
    cfg: &PoolConfig,
    sink: &mut S,
) -> (PoolReport, Vec<RequestOutcome>) {
    cfg.validate().expect("drawn configurations are valid");
    let mut profiles = ProfileTable::new(cfg.exec.clone());
    let mut rng = (cfg.request_failure_prob > 0.0).then(|| SimRng::new(cfg.fault_seed));
    let mut draw_attempts = || -> u32 {
        let mut runs = 1u32;
        if let Some(rng) = rng.as_mut() {
            while runs <= cfg.request_retry_max && rng.chance(cfg.request_failure_prob) {
                runs += 1;
            }
        }
        runs
    };

    let mut events: BinaryHeap<Reverse<(SimTime, u64, Ev)>> = BinaryHeap::new();
    let mut pushed = 0u64;
    let mut push = |events: &mut BinaryHeap<_>, at: SimTime, ev: Ev| {
        events.push(Reverse((at, pushed, ev)));
        pushed += 1;
    };
    let mut next = 0usize;
    let mut free_slots = owned(cfg).0;
    let mut waiting: VecDeque<(usize, Arrival, u32)> = VecDeque::new();
    let mut outcomes: Vec<Option<RequestOutcome>> = Vec::new();
    let mut backlog = TimeWeighted::new();
    let mut cloud_cost = Money::ZERO;
    let mut deflected = 0u64;
    let mut local_busy_hours = 0.0f64;
    let mut last_now = SimTime::ZERO;

    loop {
        let arrival_due = match (arrivals.get(next), events.peek()) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(a), Some(Reverse((t, _, _)))) => hours(a.at_hours) <= *t,
        };
        if arrival_due {
            let a = arrivals[next];
            let i = next;
            next += 1;
            outcomes.push(None);
            let now = hours(a.at_hours);
            last_now = now;
            let attempts = draw_attempts();
            sink.emit(now, TraceEvent::RequestQueued { req: i as u32 });
            if free_slots > 0 {
                free_slots -= 1;
                let finish = start_local(i, a, attempts, now, cfg, &mut profiles, sink);
                local_busy_hours += finish.1;
                outcomes[i] = Some(finish.0);
                push(&mut events, finish.2, Ev::LocalDone(i));
            } else if cfg.burst_threshold.is_some_and(|k| waiting.len() >= k) {
                let (o, done) = start_cloud(i, a, attempts, now, cfg, &mut profiles, sink);
                cloud_cost += o.cost;
                outcomes[i] = Some(o);
                if let Some(done) = done {
                    push(&mut events, done, Ev::CloudDone(i));
                }
            } else if cfg.queue_bound.is_some_and(|b| waiting.len() >= b) {
                match cfg.admission {
                    AdmissionPolicy::Reject => {
                        sink.emit(now, TraceEvent::RequestRejected { req: i as u32 });
                    }
                    AdmissionPolicy::Deflect => {
                        deflected += 1;
                        let (o, done) = start_cloud(i, a, attempts, now, cfg, &mut profiles, sink);
                        cloud_cost += o.cost;
                        outcomes[i] = Some(o);
                        if let Some(done) = done {
                            push(&mut events, done, Ev::CloudDone(i));
                        }
                    }
                    AdmissionPolicy::AdmitAll => unreachable!("bounded queue without a policy"),
                }
            } else {
                waiting.push_back((i, a, attempts));
                backlog.set(now, waiting.len() as f64);
            }
            continue;
        }
        let Some(Reverse((now, _, ev))) = events.pop() else {
            break;
        };
        last_now = now;
        match ev {
            Ev::LocalDone(done) => {
                sink.emit(now, TraceEvent::RequestFinished { req: done as u32 });
                if let Some((i, a, attempts)) = waiting.pop_front() {
                    backlog.set(now, waiting.len() as f64);
                    let finish = start_local(i, a, attempts, now, cfg, &mut profiles, sink);
                    local_busy_hours += finish.1;
                    outcomes[i] = Some(finish.0);
                    push(&mut events, finish.2, Ev::LocalDone(i));
                } else {
                    free_slots += 1;
                }
            }
            Ev::CloudDone(done) => {
                sink.emit(now, TraceEvent::RequestFinished { req: done as u32 });
            }
        }
    }

    let (mut wait_hist, mut turnaround_hist) = (Histogram::new(), Histogram::new());
    let (mut served_local, mut served_cloud, mut rejected) = (0, 0, 0);
    for o in &outcomes {
        match o {
            Some(o) => {
                wait_hist.record(o.wait_hours());
                turnaround_hist.record(o.turnaround_hours());
                match o.venue {
                    Venue::Local => served_local += 1,
                    Venue::Cloud => served_cloud += 1,
                }
            }
            None => rejected += 1,
        }
    }
    let report = PoolReport {
        served_local,
        served_cloud,
        rejected,
        deflected,
        wait_hist,
        turnaround_hist,
        span_hours: 0.0,
        backlog_mean: backlog.mean(last_now),
        backlog_peak: backlog.peak(),
        slot_hours: 0.0,
        peak_slots: 0,
        rentals: 0,
        slot_cost: owned(cfg).1 * local_busy_hours,
        dm_cost: Money::ZERO,
        cloud_cost,
    };
    (report, outcomes.into_iter().flatten().collect())
}

/// Starts a request on a local slot: its outcome, its run hours and its
/// finish.
fn start_local<S: EventSink>(
    i: usize,
    a: Arrival,
    attempts: u32,
    now: SimTime,
    cfg: &PoolConfig,
    profiles: &mut ProfileTable,
    sink: &mut S,
) -> (RequestOutcome, f64, SimTime) {
    let profile = profiles.owned(a.degrees, cfg.procs_per_slot);
    let run_hours = profile.makespan_hours * attempts as f64;
    let start_h = now.as_hours_f64();
    let finish = now + SimDuration::from_hours_f64(run_hours);
    sink.emit(
        now,
        TraceEvent::RequestStarted {
            req: i as u32,
            cloud: false,
        },
    );
    let outcome = RequestOutcome {
        index: i,
        degrees: a.degrees,
        arrival_hours: hours(a.at_hours).as_hours_f64(),
        start_hours: start_h,
        finish_hours: finish.as_hours_f64(),
        venue: Venue::Local,
        cost: owned(cfg).1 * run_hours,
        attempts,
    };
    (outcome, run_hours, finish)
}

/// Serves a request on per-request cloud resources: its outcome, and its
/// finish instant when a sink listens.
fn start_cloud<S: EventSink>(
    i: usize,
    a: Arrival,
    attempts: u32,
    now: SimTime,
    cfg: &PoolConfig,
    profiles: &mut ProfileTable,
    sink: &mut S,
) -> (RequestOutcome, Option<SimTime>) {
    let profile = profiles.fixed(a.degrees, cfg.cloud_procs);
    let cost = profile.cost * attempts as f64;
    let run_hours = profile.makespan_hours * attempts as f64;
    let start_h = now.as_hours_f64();
    sink.emit(
        now,
        TraceEvent::RequestStarted {
            req: i as u32,
            cloud: true,
        },
    );
    let outcome = RequestOutcome {
        index: i,
        degrees: a.degrees,
        arrival_hours: hours(a.at_hours).as_hours_f64(),
        start_hours: start_h,
        finish_hours: start_h + run_hours,
        venue: Venue::Cloud,
        cost,
        attempts,
    };
    let done = sink
        .enabled()
        .then(|| now + SimDuration::from_hours_f64(run_hours));
    (outcome, done)
}

fn hours(h: f64) -> SimTime {
    SimTime::from_secs_f64(h * 3600.0)
}

/// Bit-exact text of a value: `Debug` prints every float in its shortest
/// round-trip form.
fn bits<T: std::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

#[test]
fn the_service_matches_its_former_event_loop() {
    let draws = if full() { 400 } else { 24 };
    let mut rng = SimRng::new(OWNED_SEED);
    let (mut bursts, mut rejects, mut deflects, mut retries, mut queued) = (0, 0, 0, 0, 0);
    for draw in 0..draws {
        let cfg = draw_owned(&mut rng);
        let arrivals = draw_arrivals(&mut rng);

        let (expected, expected_outcomes) = reference(&arrivals, &cfg, &mut NullSink);
        let mut outcomes = Vec::new();
        let report = simulate_pool(arrivals.iter().copied(), &cfg, &mut NullSink, |o| {
            outcomes.push(*o)
        });
        assert_eq!(
            bits(&kept(&report)),
            bits(&expected),
            "draw {draw}: {cfg:?}"
        );
        assert_eq!(bits(&outcomes), bits(&expected_outcomes), "draw {draw}");

        let mut expected_trace = RecordingSink::new();
        reference(&arrivals, &cfg, &mut expected_trace);
        let mut trace = RecordingSink::new();
        let traced = simulate_pool(arrivals.iter().copied(), &cfg, &mut trace, |_| {});
        assert_eq!(bits(&traced), bits(&report), "draw {draw}: traced");
        let events: &[TimedEvent] = trace.events();
        assert_eq!(events, expected_trace.events(), "draw {draw}: trace");

        bursts += expected.served_cloud - expected.deflected;
        rejects += expected.rejected;
        deflects += expected.deflected;
        retries += expected_outcomes.iter().filter(|o| o.attempts > 1).count();
        queued += u64::from(expected.backlog_peak > 0.0);
    }
    // The draw exercises every path it is meant to check.
    assert!(
        bursts > 0 && rejects > 0 && deflects > 0 && retries > 0 && queued > 0,
        "{bursts} bursts, {rejects} rejects, {deflects} deflects, {retries} retries, \
         {queued} runs that queued"
    );
}
