//! Semantics of the auto-scaled standing pool.

use mcloud_cost::Money;
use mcloud_service::{
    bursty, periodic, poisson, simulate_autoscale, simulate_autoscale_stream, AdmissionPolicy,
    Arrival, AutoScaleConfig, AutoScaleReport, ProfileTable, ServiceConfig,
};
use mcloud_simkit::{MetricClass, Registry, SimDuration, SimTime};

fn at(hours: f64) -> Arrival {
    Arrival {
        at_hours: hours,
        degrees: 1.0,
    }
}

fn base() -> AutoScaleConfig {
    AutoScaleConfig::default_pool()
}

/// Run the pool and also sum the per-request busy time (finish - start)
/// via the streaming visitor, since the report keeps only aggregates.
fn run_with_busy(arrivals: &[Arrival], cfg: &AutoScaleConfig) -> (AutoScaleReport, f64) {
    let mut busy = 0.0;
    let report = simulate_autoscale_stream(arrivals.iter().copied(), cfg, |o| {
        busy += o.finish_hours - o.start_hours
    });
    (report, busy)
}

#[test]
fn light_traffic_stays_at_the_floor() {
    // One request every 2 h against a ~0.55 h service time: one slot is
    // plenty, the scaler never grows the pool.
    let arrivals = periodic(2.0, 24.0, 1.0);
    let report = simulate_autoscale(&arrivals, &base());
    assert_eq!(report.peak_slots, 1);
    assert_eq!(report.rentals, 1);
    assert_eq!(report.requests, arrivals.len() as u64);
    assert_eq!(report.offered(), arrivals.len() as u64);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.deflected, 0);
    // The floor slot is rented for the whole horizon (until events drain).
    assert!(report.slot_hours > 20.0);
}

#[test]
fn overload_scales_up_then_back_down() {
    // Eight simultaneous arrivals against a 1-slot floor: the scaler
    // rents more slots and the backlog drains in parallel.
    let arrivals: Vec<Arrival> = (0..8).map(|_| at(0.0)).collect();
    let scaled = simulate_autoscale(&arrivals, &base());
    assert!(scaled.peak_slots > 1, "must scale up");
    assert!(scaled.peak_slots <= 8);

    let fixed_one = simulate_autoscale(
        &arrivals,
        &AutoScaleConfig {
            max_slots: 1,
            ..base()
        },
    );
    assert!(
        scaled.max_wait_hours() < fixed_one.max_wait_hours() / 2.0,
        "scaling must slash the backlog: {} vs {}",
        scaled.max_wait_hours(),
        fixed_one.max_wait_hours()
    );
    // And pay for it.
    assert!(scaled.rentals > fixed_one.rentals);
}

#[test]
fn an_arrival_ties_ahead_of_a_completion_at_the_same_instant() {
    // A one-slot floor that rents on the first waiting request. Request
    // A starts on the booted floor slot at 1 h; request B arrives at the
    // exact microsecond A's service ends.
    let cfg = AutoScaleConfig {
        max_slots: 2,
        scale_up_queue: 1,
        ..base()
    };
    let service_h = ProfileTable::new(cfg.exec.clone())
        .fixed(1.0, cfg.procs_per_slot)
        .makespan_hours;
    let a_done = SimTime::from_secs_f64(3600.0) + SimDuration::from_hours_f64(service_h);
    let b = a_done.as_hours_f64();
    assert_eq!(
        SimTime::from_secs_f64(b * 3600.0),
        a_done,
        "B lands on A's finish"
    );

    let mut starts = Vec::new();
    let report = simulate_autoscale_stream([at(1.0), at(b)].iter().copied(), &cfg, |o| {
        starts.push(o.start_hours)
    });
    // B is handled before A's completion: it finds the only slot busy,
    // waits, and rents a second slot. A's completion then hands the
    // floor slot to B, and the second slot boots into an empty queue and
    // is released. Completion-first would instead serve B on the freed
    // floor slot without renting (rentals 1, peak 1).
    assert_eq!(report.rentals, 2);
    assert_eq!(report.peak_slots, 2);
    assert_eq!(report.requests, 2);
    assert_eq!(starts[1].to_bits(), a_done.as_hours_f64().to_bits());
}

#[test]
fn boot_delay_is_visible_in_waits() {
    let arrivals: Vec<Arrival> = (0..4).map(|_| at(0.0)).collect();
    let fast = simulate_autoscale(
        &arrivals,
        &AutoScaleConfig {
            boot_s: 0.0,
            ..base()
        },
    );
    let slow = simulate_autoscale(
        &arrivals,
        &AutoScaleConfig {
            boot_s: 1800.0,
            ..base()
        },
    );
    assert!(slow.mean_wait_hours() > fast.mean_wait_hours());
}

#[test]
fn rental_accounting_is_consistent() {
    let arrivals = poisson(2.0, 48.0, 1.0, 5);
    let cfg = base();
    let (report, busy) = run_with_busy(&arrivals, &cfg);
    assert!(report
        .rental_cost
        .approx_eq(cfg.slot_cost_per_hour * report.slot_hours, 1e-9));
    assert_eq!(report.deflect_cost, Money::ZERO);
    assert!(report
        .total_cost()
        .approx_eq(report.rental_cost + report.dm_cost, 1e-12));
    // Slot-hours at least cover the served work.
    assert!(report.slot_hours + 1e-9 >= busy);
    // DM costs are small but nonzero (transfers happen per request).
    assert!(report.dm_cost > Money::ZERO);
}

#[test]
fn zero_floor_pools_rent_on_demand() {
    let cfg = AutoScaleConfig {
        min_slots: 0,
        scale_up_queue: 1,
        ..base()
    };
    let arrivals = vec![at(0.0), at(10.0)];
    let (report, busy) = run_with_busy(&arrivals, &cfg);
    assert_eq!(report.requests, 2);
    assert_eq!(report.peak_slots, 1);
    assert_eq!(report.rentals, 2, "slot released between distant requests");
    // Rented time is near the service time, not the horizon: the point of
    // scaling to zero.
    assert!(report.slot_hours < busy + 0.5);
}

#[test]
fn idle_grace_keeps_the_slot_warm() {
    // Same two distant requests; a generous idle grace period keeps the
    // slot rented across the gap, trading rental hours for one fewer
    // boot.
    let eager = AutoScaleConfig {
        min_slots: 0,
        scale_up_queue: 1,
        ..base()
    };
    let patient = AutoScaleConfig {
        idle_release_s: 12.0 * 3600.0,
        ..eager.clone()
    };
    let arrivals = vec![at(0.0), at(10.0)];
    let eager_report = simulate_autoscale(&arrivals, &eager);
    let patient_report = simulate_autoscale(&arrivals, &patient);
    assert_eq!(eager_report.rentals, 2);
    assert_eq!(patient_report.rentals, 1, "grace period spans the gap");
    assert!(patient_report.slot_hours > eager_report.slot_hours);
    // The warm slot skips the second boot, so the second request waits
    // less overall.
    assert!(patient_report.mean_wait_hours() <= eager_report.mean_wait_hours());
}

#[test]
fn bounded_queue_rejects_overflow() {
    let cfg = AutoScaleConfig {
        min_slots: 1,
        max_slots: 1,
        queue_bound: Some(2),
        admission: AdmissionPolicy::Reject,
        ..base()
    };
    // Six simultaneous arrivals (after the floor slot's 2-minute boot)
    // against one slot and a 2-deep queue: one in service, two queued,
    // three turned away.
    let arrivals: Vec<Arrival> = (0..6).map(|_| at(0.1)).collect();
    let report = simulate_autoscale(&arrivals, &cfg);
    assert_eq!(report.offered(), 6);
    assert_eq!(report.rejected, 3);
    assert_eq!(report.requests, 3);
    assert_eq!(report.deflected, 0);
}

#[test]
fn deflected_overflow_is_served_and_priced() {
    let cfg = AutoScaleConfig {
        min_slots: 1,
        max_slots: 1,
        queue_bound: Some(2),
        admission: AdmissionPolicy::Deflect,
        ..base()
    };
    let arrivals: Vec<Arrival> = (0..6).map(|_| at(0.1)).collect();
    let report = simulate_autoscale(&arrivals, &cfg);
    assert_eq!(report.offered(), 6);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.deflected, 3);
    assert_eq!(report.requests, 6, "deflected requests are still served");
    assert!(report.deflect_cost > Money::ZERO);
    assert!(report.total_cost().approx_eq(
        report.rental_cost + report.dm_cost + report.deflect_cost,
        1e-9
    ));
}

#[test]
fn autoscale_is_deterministic() {
    let arrivals = bursty(1.0, 72.0, 1.0, &[(10.0, 6.0, 8.0)], 11);
    let cfg = base();
    assert_eq!(
        simulate_autoscale(&arrivals, &cfg),
        simulate_autoscale(&arrivals, &cfg)
    );
}

#[test]
fn wider_ceilings_never_hurt_latency() {
    let arrivals = bursty(1.0, 72.0, 1.0, &[(10.0, 6.0, 10.0)], 3);
    let narrow = simulate_autoscale(
        &arrivals,
        &AutoScaleConfig {
            max_slots: 2,
            ..base()
        },
    );
    let wide = simulate_autoscale(
        &arrivals,
        &AutoScaleConfig {
            max_slots: 16,
            ..base()
        },
    );
    assert!(wide.max_wait_hours() <= narrow.max_wait_hours() + 1e-9);
}

#[test]
#[should_panic(expected = "invalid autoscale configuration")]
fn zero_floor_with_lazy_trigger_rejected() {
    let cfg = AutoScaleConfig {
        min_slots: 0,
        scale_up_queue: 3,
        ..base()
    };
    simulate_autoscale(&[at(0.0)], &cfg);
}

#[test]
#[should_panic(expected = "max_slots")]
fn ceiling_below_floor_rejected() {
    let cfg = AutoScaleConfig {
        min_slots: 4,
        max_slots: 2,
        ..base()
    };
    simulate_autoscale(&[at(0.0)], &cfg);
}

#[test]
#[should_panic(expected = "needs an overflow policy")]
fn bounded_queue_without_policy_rejected() {
    let cfg = AutoScaleConfig {
        queue_bound: Some(4),
        admission: AdmissionPolicy::AdmitAll,
        ..base()
    };
    simulate_autoscale(&[at(0.0)], &cfg);
}

#[test]
#[should_panic(expected = "requires a queue_bound")]
fn policy_without_bound_rejected() {
    let cfg = AutoScaleConfig {
        queue_bound: None,
        admission: AdmissionPolicy::Reject,
        ..base()
    };
    simulate_autoscale(&[at(0.0)], &cfg);
}

#[test]
#[should_panic(expected = "never rent its first slot")]
fn unreachable_scale_up_trigger_rejected() {
    // A zero floor scales up at queue depth 1, but a queue bound of 0
    // means the backlog can never reach depth 1: every request would
    // overflow forever. The validator must refuse this up front.
    let cfg = AutoScaleConfig {
        min_slots: 0,
        scale_up_queue: 1,
        queue_bound: Some(0),
        admission: AdmissionPolicy::Reject,
        ..base()
    };
    simulate_autoscale(&[at(0.0)], &cfg);
}

#[test]
fn both_pool_models_word_the_admission_errors_alike() {
    // One rule, checked in one place, for the service and the pool; only
    // the pool's name for the no-policy setting differs.
    let bounded = "a bounded queue (queue_bound = 4) needs an overflow policy: with admission = ";
    let stranded = " a full queue would strand arrivals forever — use Reject or Deflect";
    let unbounded = "an overflow policy (Reject/Deflect) requires a queue_bound; \
                     an unbounded queue never overflows";
    let pool = |queue_bound, admission| AutoScaleConfig {
        queue_bound,
        admission,
        ..base()
    };
    let service = |queue_bound, admission| ServiceConfig {
        queue_bound,
        admission,
        ..ServiceConfig::default_burst()
    };
    assert_eq!(
        pool(Some(4), AdmissionPolicy::AdmitAll).validate(),
        Err(format!(
            "{bounded}AdmitAll (rejects and deflects disabled){stranded}"
        ))
    );
    assert_eq!(
        service(Some(4), AdmissionPolicy::AdmitAll).validate(),
        Err(format!("{bounded}AdmitAll{stranded}"))
    );
    for policy in [AdmissionPolicy::Reject, AdmissionPolicy::Deflect] {
        assert_eq!(pool(None, policy).validate(), Err(unbounded.to_string()));
        assert_eq!(service(None, policy).validate(), Err(unbounded.to_string()));
        assert_eq!(pool(Some(4), policy).validate(), Ok(()));
        assert_eq!(service(Some(4), policy).validate(), Ok(()));
    }
}

/// Arrival triples at instants that are not whole microseconds: on one
/// slot with a backlog bound of 1, the first of each takes the idle slot,
/// the second waits behind it, and the third is served on arrival
/// elsewhere (deflected, or burst to the cloud).
fn unaligned_triples() -> Vec<Arrival> {
    (0..40)
        .flat_map(|i| {
            let t = 1.0 + 3.0 * f64::from(i) + 1.0 / 3.0;
            [at(t), at(t + 1e-4 / 7.0), at(t + 2e-4 / 7.0)]
        })
        .collect()
}

/// A request served on arrival, on an idle slot or deflected, waits
/// exactly 0 h: its arrival and start are read off the same clock. The
/// Prometheus `le="0"` bucket counts every one of them.
#[test]
fn a_request_served_on_arrival_waits_exactly_zero() {
    let cfg = AutoScaleConfig {
        max_slots: 1,
        queue_bound: Some(1),
        admission: AdmissionPolicy::Deflect,
        ..base()
    };
    let mut waits = Vec::new();
    let report = simulate_autoscale_stream(unaligned_triples().iter().copied(), &cfg, |o| {
        waits.push(o.wait_hours())
    });
    assert_eq!(report.deflected, 40);
    assert_eq!(waits.iter().filter(|&&w| w == 0.0).count(), 80);
    assert!(waits.iter().all(|&w| w == 0.0 || w > 1e-3), "{waits:?}");
    let mut reg = Registry::new();
    reg.set_histogram(
        "waits",
        "Request waits, hours.",
        MetricClass::Deterministic,
        &[],
        &report.wait_hist,
    );
    let text = reg.prometheus_text();
    assert!(text.contains("waits_bucket{le=\"0\"} 80\n"), "{text}");
}
