//! Hand-checkable semantics of the service queueing simulator: a pool of
//! owned slots that bursts to the cloud.

use mcloud_cost::Money;
use mcloud_service::{
    bursty, periodic, poisson, simulate_pool, Arrival, PoolConfig, PoolReport, RequestOutcome,
    Slots, Venue,
};
use mcloud_simkit::{NullSink, RecordingSink};

fn run(arrivals: &[Arrival], cfg: &PoolConfig) -> PoolReport {
    simulate_pool(arrivals.iter().copied(), cfg, &mut NullSink, |_| {})
}

fn at(hours: f64) -> Arrival {
    Arrival {
        at_hours: hours,
        degrees: 1.0,
    }
}

/// Streams every outcome out of the constant-memory simulator.
fn outcomes_of(arrivals: &[Arrival], cfg: &PoolConfig) -> Vec<RequestOutcome> {
    let mut v = Vec::new();
    simulate_pool(arrivals.iter().copied(), cfg, &mut NullSink, |o| v.push(*o));
    v
}

/// Config with one local slot and no bursting: a pure FIFO M/D/1-style
/// queue over the 1-degree profile (~0.83 h on 8 processors).
fn single_slot_no_burst() -> PoolConfig {
    PoolConfig {
        slots: Slots::owned(1),
        burst_threshold: None,
        ..PoolConfig::default_owned()
    }
}

#[test]
fn fifo_queue_on_one_slot() {
    // Three requests at t=0,0,0: they serialize on the single slot.
    let arrivals = vec![at(0.0), at(0.0), at(0.0)];
    let report = run(&arrivals, &single_slot_no_burst());
    assert_eq!(report.served_cloud, 0);
    let outcomes = outcomes_of(&arrivals, &single_slot_no_burst());
    let m = outcomes[0].turnaround_hours();
    assert!((outcomes[0].start_hours - 0.0).abs() < 1e-9);
    assert!((outcomes[1].start_hours - m).abs() < 1e-9);
    assert!((outcomes[2].start_hours - 2.0 * m).abs() < 1e-9);
    assert!((report.max_wait_hours() - 2.0 * m).abs() < 1e-9);
    assert_eq!(report.total_cost(), Money::ZERO);
}

#[test]
fn spaced_requests_never_wait() {
    // Period longer than the service time: no queueing at all.
    let arrivals = periodic(2.0, 20.0, 1.0);
    let report = run(&arrivals, &single_slot_no_burst());
    assert!(report.mean_wait_hours() < 1e-9);
    assert_eq!(report.served_local, report.requests());
}

#[test]
fn burst_threshold_routes_overflow_to_cloud() {
    // Four simultaneous requests, one slot, burst when >=1 waiting:
    // r0 local, r1 queues (0 waiting at its arrival), r2 and r3 burst.
    let arrivals = vec![at(0.0), at(0.0), at(0.0), at(0.0)];
    let cfg = PoolConfig {
        slots: Slots::owned(1),
        burst_threshold: Some(1),
        ..PoolConfig::default_owned()
    };
    let report = run(&arrivals, &cfg);
    assert_eq!(report.served_local, 2);
    assert_eq!(report.served_cloud, 2);
    let outcomes = outcomes_of(&arrivals, &cfg);
    assert_eq!(outcomes[0].venue, Venue::Local);
    assert_eq!(outcomes[1].venue, Venue::Local);
    assert_eq!(outcomes[2].venue, Venue::Cloud);
    assert_eq!(outcomes[3].venue, Venue::Cloud);
    // Cloud requests start instantly and pay the 16-processor price.
    assert!(outcomes[2].wait_hours() < 1e-9);
    assert!(report.cloud_cost > Money::ZERO);
    assert!(report
        .cloud_cost
        .approx_eq(outcomes[2].cost + outcomes[3].cost, 1e-12));
}

#[test]
fn burst_everything_when_no_local_cluster() {
    let arrivals = vec![at(0.0), at(0.5), at(1.0)];
    let cfg = PoolConfig {
        slots: Slots::owned(0),
        burst_threshold: Some(0),
        ..PoolConfig::default_owned()
    };
    let report = run(&arrivals, &cfg);
    assert_eq!(report.served_cloud, 3);
    assert!(report.mean_wait_hours() < 1e-9);
}

#[test]
fn cloud_bursting_bounds_turnaround_under_overload() {
    // A heavy burst over a small cluster: without bursting turnaround
    // degrades linearly with backlog; with bursting it stays bounded.
    let arrivals = bursty(0.5, 100.0, 1.0, &[(10.0, 5.0, 20.0)], 99);
    let no_burst = run(&arrivals, &single_slot_no_burst());
    let with_burst = run(
        &arrivals,
        &PoolConfig {
            slots: Slots::owned(1),
            burst_threshold: Some(2),
            ..PoolConfig::default_owned()
        },
    );
    assert!(with_burst.served_cloud > 0);
    assert!(
        with_burst.turnaround_quantile(0.95) < no_burst.turnaround_quantile(0.95) / 2.0,
        "bursting must slash tail latency: {} vs {}",
        with_burst.turnaround_quantile(0.95),
        no_burst.turnaround_quantile(0.95)
    );
    // And it costs money where the local-only service was free.
    assert!(with_burst.total_cost() > no_burst.total_cost());
}

#[test]
fn amortized_local_cost_is_accounted() {
    let arrivals = vec![at(0.0), at(5.0)];
    let cfg = PoolConfig {
        slots: Slots::Owned {
            count: 1,
            cost_per_busy_hour: Money::from_dollars(1.0),
        },
        burst_threshold: None,
        ..PoolConfig::default_owned()
    };
    let report = run(&arrivals, &cfg);
    let busy: f64 = outcomes_of(&arrivals, &cfg)
        .iter()
        .map(|o| o.finish_hours - o.start_hours)
        .sum();
    assert!(report.slot_cost.approx_eq(Money::from_dollars(busy), 1e-9));
    assert!(report.total_cost().approx_eq(report.slot_cost, 1e-12));
}

#[test]
fn service_simulation_is_deterministic() {
    let arrivals = poisson(3.0, 50.0, 1.0, 11);
    let cfg = PoolConfig::default_owned();
    assert_eq!(run(&arrivals, &cfg), run(&arrivals, &cfg));
}

#[test]
fn every_request_is_served_exactly_once() {
    let arrivals = poisson(4.0, 100.0, 1.0, 3);
    let report = run(&arrivals, &PoolConfig::default_owned());
    let outcomes = outcomes_of(&arrivals, &PoolConfig::default_owned());
    assert_eq!(outcomes.len(), arrivals.len());
    assert_eq!(report.requests(), arrivals.len() as u64);
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.index, i);
        assert!(o.start_hours >= o.arrival_hours - 1e-9);
        assert!(o.finish_hours > o.start_hours);
    }
    assert_eq!(report.served_local + report.served_cloud, report.requests());
}

#[test]
fn quantiles_are_sane() {
    let arrivals = poisson(2.0, 100.0, 1.0, 5);
    let report = run(&arrivals, &single_slot_no_burst());
    let q50 = report.turnaround_quantile(0.5);
    let q95 = report.turnaround_quantile(0.95);
    let q100 = report.turnaround_quantile(1.0);
    assert!(q50 <= q95 && q95 <= q100);
    assert!(report.mean_turnaround_hours() > 0.0);
}

#[test]
#[should_panic(expected = "invalid pool configuration")]
fn zero_slots_without_full_burst_rejected() {
    let cfg = PoolConfig {
        slots: Slots::owned(0),
        burst_threshold: None,
        ..PoolConfig::default_owned()
    };
    run(&[at(0.0)], &cfg);
}

#[test]
#[should_panic(expected = "sorted")]
fn unsorted_arrivals_rejected() {
    let arrivals = vec![at(5.0), at(1.0)];
    run(&arrivals, &PoolConfig::default_owned());
}

/// A request served on arrival, on the idle local slot or burst to the
/// cloud, waits exactly 0 h: arrival and start are read off the same
/// clock, at instants that are not whole microseconds. The Prometheus
/// `le="0"` bucket counts every one of them.
#[test]
fn a_request_served_on_arrival_waits_exactly_zero() {
    // Triples: the first takes the slot, the second waits behind it, the
    // third finds one waiting and bursts.
    let arrivals: Vec<Arrival> = (0..40)
        .flat_map(|i| {
            let t = 1.0 + 3.0 * f64::from(i) + 1.0 / 3.0;
            [at(t), at(t + 1e-4 / 7.0), at(t + 2e-4 / 7.0)]
        })
        .collect();
    let cfg = PoolConfig {
        burst_threshold: Some(1),
        ..single_slot_no_burst()
    };
    let outcomes = outcomes_of(&arrivals, &cfg);
    let zero = outcomes.iter().filter(|o| o.wait_hours() == 0.0).count();
    assert_eq!(zero, 80);
    assert!(outcomes
        .iter()
        .all(|o| o.wait_hours() == 0.0 || o.wait_hours() > 1e-3));
    let report = run(&arrivals, &cfg);
    assert_eq!(report.served_cloud, 40);
    let text = report.prometheus_text();
    assert!(
        text.contains("mcloud_request_wait_hours_bucket{le=\"0\"} 80\n"),
        "{text}"
    );
}

/// A trace sink only listens. Request 1 waits behind request 0 on the
/// one slot, and request 2 finds it waiting and bursts a 4-degree mosaic
/// that runs for hours after the last local finish; narrating that cloud
/// finish must not stretch the span the backlog is averaged over.
#[test]
fn a_trace_sink_leaves_the_backlog_mean_alone() {
    let cfg = PoolConfig {
        slots: Slots::owned(1),
        burst_threshold: Some(1),
        ..PoolConfig::default_owned()
    };
    let arrivals = [
        at(0.0),
        at(0.1),
        Arrival {
            at_hours: 0.2,
            degrees: 4.0,
        },
    ];
    let untraced = run(&arrivals, &cfg);
    assert_eq!((untraced.served_local, untraced.served_cloud), (2, 1));
    assert!(
        (untraced.backlog_mean - 0.4407).abs() < 1e-4,
        "{}",
        untraced.backlog_mean
    );
    let mut sink = RecordingSink::new();
    let traced = simulate_pool(arrivals.iter().copied(), &cfg, &mut sink, |_| {});
    assert_eq!(sink.counters().requests_started, 3);
    assert_eq!(
        traced.backlog_mean.to_bits(),
        untraced.backlog_mean.to_bits(),
        "traced {} vs untraced {}",
        traced.backlog_mean,
        untraced.backlog_mean
    );
    assert_eq!(traced, untraced);
}

#[test]
fn a_non_finite_or_negative_busy_hour_rate_is_refused() {
    // Non-finite rates cannot be written down: money arithmetic refuses
    // them (the two tests below).
    let cfg = PoolConfig {
        slots: Slots::Owned {
            count: 2,
            cost_per_busy_hour: Money::from_dollars(1.0) * -0.5,
        },
        ..PoolConfig::default_owned()
    };
    let err = cfg.validate().unwrap_err();
    assert!(err.contains("cost_per_busy_hour must be a finite"), "{err}");
}

#[test]
#[should_panic(expected = "finite")]
fn a_nan_busy_hour_rate_cannot_be_computed() {
    let _ = Slots::Owned {
        count: 2,
        cost_per_busy_hour: Money::from_dollars(1.0) * f64::NAN,
    };
}

#[test]
#[should_panic(expected = "finite")]
fn an_infinite_busy_hour_rate_cannot_be_computed() {
    let _ = Slots::Owned {
        count: 2,
        cost_per_busy_hour: Money::from_dollars(1.0) / 0.0,
    };
}
