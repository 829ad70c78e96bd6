//! Pins the service simulator to its own event loop as it was before it
//! ran on the shared pool state machine.
//!
//! `simulate_service_stream` is the pool machine over owned slots: idle
//! from time zero, never rented, billed per busy hour, with a burst
//! threshold checked before the queue bound. The reference below is the
//! service's former hand-written loop; its event calendar and in-order
//! outcome fold are private to the crate, so they are rebuilt here from
//! public parts, and its slot and cloud starts return what they used to
//! write through references. On drawn configurations and arrival
//! streams, the whole report must match bit for bit, and so must the
//! streamed outcomes and the recorded trace events.
//!
//! The reference schedules its cloud finishes only when traced, and
//! those moved the backlog's time horizon, so a traced reference run
//! reported a different `backlog_mean`. The simulator's traced run must
//! therefore report what the reference reports untraced.
//!
//! Configurations cover 0-4 local slots (0 bursting everything), burst
//! thresholds `None` and 0-3, queue bounds with `Reject` and `Deflect`,
//! request faults with retries, local and cloud slot sizes that differ,
//! and a nonzero local slot-hour price. Streams start with an arrival at
//! exactly t = 0 and hold same-instant ties. Debug builds check a few
//! short draws; `--release` checks the full draw.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use mcloud_core::ExecConfig;
use mcloud_cost::Money;
use mcloud_service::{
    simulate_service_stream, AdmissionPolicy, Arrival, ProfileTable, RequestOutcome, ServiceConfig,
    ServiceReport, Venue,
};
use mcloud_simkit::{
    EventSink, Histogram, NullSink, RecordingSink, SimDuration, SimRng, SimTime, TimeWeighted,
    TimedEvent, TraceEvent,
};

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    LocalDone(usize),
    CloudDone(usize),
}

/// The former service loop. Outcomes are kept by index and folded in
/// arrival order at the end, as the in-order fold does while running.
fn reference<S: EventSink>(
    arrivals: &[Arrival],
    cfg: &ServiceConfig,
    sink: &mut S,
) -> (ServiceReport, Vec<RequestOutcome>) {
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
    let mut free_slots = cfg.local_slots;
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
    let report = ServiceReport {
        served_local,
        served_cloud,
        rejected,
        deflected,
        wait_hist,
        turnaround_hist,
        backlog_mean: backlog.mean(last_now),
        backlog_peak: backlog.peak(),
        cloud_cost,
        local_cost: cfg.local_cost_per_slot_hour * local_busy_hours,
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
    cfg: &ServiceConfig,
    profiles: &mut ProfileTable,
    sink: &mut S,
) -> (RequestOutcome, f64, SimTime) {
    let profile = profiles.owned(a.degrees, cfg.local_procs_per_request);
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
        cost: cfg.local_cost_per_slot_hour * run_hours,
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
    cfg: &ServiceConfig,
    profiles: &mut ProfileTable,
    sink: &mut S,
) -> (RequestOutcome, Option<SimTime>) {
    let profile = profiles.fixed(a.degrees, cfg.cloud_procs_per_request);
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

/// Full draw in release builds; a few short streams in debug builds.
fn full() -> bool {
    !cfg!(debug_assertions)
}

fn pick<T: Copy>(rng: &mut SimRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

fn draw_config(rng: &mut SimRng) -> ServiceConfig {
    let local_slots = rng.below(5) as u32;
    let burst_threshold = if local_slots == 0 {
        Some(0)
    } else {
        pick(rng, &[None, None, None, Some(0), Some(1), Some(2), Some(3)])
    };
    let (queue_bound, admission) = match rng.below(3) {
        0 => (None, AdmissionPolicy::AdmitAll),
        1 => (Some(rng.below(4) as usize), AdmissionPolicy::Reject),
        _ => (Some(rng.below(4) as usize), AdmissionPolicy::Deflect),
    };
    let faulty = rng.chance(0.5);
    ServiceConfig {
        local_slots,
        local_procs_per_request: pick(rng, &[4, 8, 16]),
        cloud_procs_per_request: pick(rng, &[4, 8, 16]),
        burst_threshold,
        exec: ExecConfig::paper_default(),
        local_cost_per_slot_hour: Money::from_dollars(pick(rng, &[0.0, 0.1, 0.4])),
        request_failure_prob: if faulty { rng.f64_in(0.05, 0.6) } else { 0.0 },
        request_retry_max: if faulty { 1 + rng.below(3) as u32 } else { 0 },
        fault_seed: rng.next_u64(),
        queue_bound,
        admission,
    }
}

/// A stream opening at exactly t = 0, with same-instant ties, short gaps
/// that build a backlog and long ones that drain it.
fn draw_arrivals(rng: &mut SimRng) -> Vec<Arrival> {
    let n = if full() {
        20 + rng.below(400)
    } else {
        10 + rng.below(40)
    };
    let mut t = 0.0;
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        out.push(Arrival {
            at_hours: t,
            degrees: pick(rng, &[0.5, 1.0, 1.0, 2.0]),
        });
        t += match rng.below(5) {
            0 => 0.0,
            1 | 2 => rng.f64_in(0.0, 0.05),
            3 => rng.f64_in(0.05, 0.3),
            _ => rng.f64_in(0.3, 2.0),
        };
    }
    out
}

/// Bit-exact text of a value: `Debug` prints every float in its shortest
/// round-trip form.
fn bits<T: std::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

#[test]
fn the_service_matches_its_former_event_loop() {
    let draws = if full() { 400 } else { 24 };
    let mut rng = SimRng::new(0x5e7_1ce);
    let (mut bursts, mut rejects, mut deflects, mut retries, mut queued) = (0, 0, 0, 0, 0);
    for draw in 0..draws {
        let cfg = draw_config(&mut rng);
        let arrivals = draw_arrivals(&mut rng);

        let (expected, expected_outcomes) = reference(&arrivals, &cfg, &mut NullSink);
        let mut outcomes = Vec::new();
        let report = simulate_service_stream(arrivals.iter().copied(), &cfg, &mut NullSink, |o| {
            outcomes.push(*o)
        });
        assert_eq!(bits(&report), bits(&expected), "draw {draw}: {cfg:?}");
        assert_eq!(bits(&outcomes), bits(&expected_outcomes), "draw {draw}");

        let mut expected_trace = RecordingSink::new();
        reference(&arrivals, &cfg, &mut expected_trace);
        let mut trace = RecordingSink::new();
        let traced = simulate_service_stream(arrivals.iter().copied(), &cfg, &mut trace, |_| {});
        assert_eq!(bits(&traced), bits(&expected), "draw {draw}: traced");
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
