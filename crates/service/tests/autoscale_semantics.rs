//! Semantics of the auto-scaled standing pool: a pool of rented slots.

use mcloud_cost::Money;
use mcloud_service::{
    bursty, periodic, poisson, simulate_pool, AdmissionPolicy, Arrival, PoolConfig, PoolReport,
    ProfileTable, Slots,
};
use mcloud_simkit::{MetricClass, NullSink, Registry, SimDuration, SimTime};

fn at(hours: f64) -> Arrival {
    Arrival {
        at_hours: hours,
        degrees: 1.0,
    }
}

/// The rented-slot fields the tests vary; the rate stays the default
/// pool's $1.6 per slot-hour.
struct Rent {
    min: u32,
    max: u32,
    up: usize,
    boot_s: f64,
    idle_s: f64,
}

/// The default pool's slots: 1..8, scale up at 2 waiting, 2-minute
/// boots, immediate release.
const BASE: Rent = Rent {
    min: 1,
    max: 8,
    up: 2,
    boot_s: 120.0,
    idle_s: 0.0,
};

const RATE: f64 = 1.6;

/// The default rented pool on `r`'s slots.
fn pool(r: Rent) -> PoolConfig {
    PoolConfig {
        slots: Slots::Rented {
            min: r.min,
            max: r.max,
            scale_up_queue: r.up,
            boot_s: r.boot_s,
            idle_release_s: r.idle_s,
            cost_per_hour: Money::from_dollars(RATE),
        },
        ..PoolConfig::default_rented()
    }
}

fn base() -> PoolConfig {
    pool(BASE)
}

fn run(arrivals: &[Arrival], cfg: &PoolConfig) -> PoolReport {
    simulate_pool(arrivals.iter().copied(), cfg, &mut NullSink, |_| {})
}

/// Run the pool and also sum the per-request busy time (finish - start)
/// via the streaming visitor, since the report keeps only aggregates.
fn run_with_busy(arrivals: &[Arrival], cfg: &PoolConfig) -> (PoolReport, f64) {
    let mut busy = 0.0;
    let report = simulate_pool(arrivals.iter().copied(), cfg, &mut NullSink, |o| {
        busy += o.finish_hours - o.start_hours
    });
    (report, busy)
}

#[test]
fn light_traffic_stays_at_the_floor() {
    // One request every 2 h against a ~0.55 h service time: one slot is
    // plenty, the scaler never grows the pool.
    let arrivals = periodic(2.0, 24.0, 1.0);
    let report = run(&arrivals, &base());
    assert_eq!(report.peak_slots, 1);
    assert_eq!(report.rentals, 1);
    assert_eq!(report.requests(), arrivals.len() as u64);
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
    let scaled = run(&arrivals, &base());
    assert!(scaled.peak_slots > 1, "must scale up");
    assert!(scaled.peak_slots <= 8);

    let fixed_one = run(&arrivals, &pool(Rent { max: 1, ..BASE }));
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
    let cfg = pool(Rent {
        max: 2,
        up: 1,
        ..BASE
    });
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
    let report = simulate_pool([at(1.0), at(b)], &cfg, &mut NullSink, |o| {
        starts.push(o.start_hours)
    });
    // B is handled before A's completion: it finds the only slot busy,
    // waits, and rents a second slot. A's completion then hands the
    // floor slot to B, and the second slot boots into an empty queue and
    // is released. Completion-first would instead serve B on the freed
    // floor slot without renting (rentals 1, peak 1).
    assert_eq!(report.rentals, 2);
    assert_eq!(report.peak_slots, 2);
    assert_eq!(report.requests(), 2);
    assert_eq!(starts[1].to_bits(), a_done.as_hours_f64().to_bits());
}

#[test]
fn boot_delay_is_visible_in_waits() {
    let arrivals: Vec<Arrival> = (0..4).map(|_| at(0.0)).collect();
    let fast = run(
        &arrivals,
        &pool(Rent {
            boot_s: 0.0,
            ..BASE
        }),
    );
    let slow = run(
        &arrivals,
        &pool(Rent {
            boot_s: 1800.0,
            ..BASE
        }),
    );
    assert!(slow.mean_wait_hours() > fast.mean_wait_hours());
}

#[test]
fn rental_accounting_is_consistent() {
    let arrivals = poisson(2.0, 48.0, 1.0, 5);
    let cfg = base();
    let (report, busy) = run_with_busy(&arrivals, &cfg);
    assert!(report
        .slot_cost
        .approx_eq(Money::from_dollars(RATE) * report.slot_hours, 1e-9));
    assert_eq!(report.cloud_cost, Money::ZERO);
    assert!(report
        .total_cost()
        .approx_eq(report.slot_cost + report.dm_cost, 1e-12));
    // Slot-hours at least cover the served work.
    assert!(report.slot_hours + 1e-9 >= busy);
    // DM costs are small but nonzero (transfers happen per request).
    assert!(report.dm_cost > Money::ZERO);
}

#[test]
fn zero_floor_pools_rent_on_demand() {
    let cfg = pool(Rent {
        min: 0,
        up: 1,
        ..BASE
    });
    let arrivals = vec![at(0.0), at(10.0)];
    let (report, busy) = run_with_busy(&arrivals, &cfg);
    assert_eq!(report.requests(), 2);
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
    let eager = pool(Rent {
        min: 0,
        up: 1,
        ..BASE
    });
    let patient = pool(Rent {
        min: 0,
        up: 1,
        idle_s: 12.0 * 3600.0,
        ..BASE
    });
    let arrivals = vec![at(0.0), at(10.0)];
    let eager_report = run(&arrivals, &eager);
    let patient_report = run(&arrivals, &patient);
    assert_eq!(eager_report.rentals, 2);
    assert_eq!(patient_report.rentals, 1, "grace period spans the gap");
    assert!(patient_report.slot_hours > eager_report.slot_hours);
    // The warm slot skips the second boot, so the second request waits
    // less overall.
    assert!(patient_report.mean_wait_hours() <= eager_report.mean_wait_hours());
}

#[test]
fn bounded_queue_rejects_overflow() {
    let cfg = PoolConfig {
        queue_bound: Some(2),
        admission: AdmissionPolicy::Reject,
        ..pool(Rent { max: 1, ..BASE })
    };
    // Six simultaneous arrivals (after the floor slot's 2-minute boot)
    // against one slot and a 2-deep queue: one in service, two queued,
    // three turned away.
    let arrivals: Vec<Arrival> = (0..6).map(|_| at(0.1)).collect();
    let report = run(&arrivals, &cfg);
    assert_eq!(report.offered(), 6);
    assert_eq!(report.rejected, 3);
    assert_eq!(report.requests(), 3);
    assert_eq!(report.deflected, 0);
}

#[test]
fn deflected_overflow_is_served_and_priced() {
    let cfg = PoolConfig {
        queue_bound: Some(2),
        admission: AdmissionPolicy::Deflect,
        ..pool(Rent { max: 1, ..BASE })
    };
    let arrivals: Vec<Arrival> = (0..6).map(|_| at(0.1)).collect();
    let report = run(&arrivals, &cfg);
    assert_eq!(report.offered(), 6);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.deflected, 3);
    assert_eq!(report.requests(), 6, "deflected requests are still served");
    assert!(report.cloud_cost > Money::ZERO);
    assert!(report
        .total_cost()
        .approx_eq(report.slot_cost + report.dm_cost + report.cloud_cost, 1e-9));
}

#[test]
fn autoscale_is_deterministic() {
    let arrivals = bursty(1.0, 72.0, 1.0, &[(10.0, 6.0, 8.0)], 11);
    let cfg = base();
    assert_eq!(run(&arrivals, &cfg), run(&arrivals, &cfg));
}

#[test]
fn wider_ceilings_never_hurt_latency() {
    let arrivals = bursty(1.0, 72.0, 1.0, &[(10.0, 6.0, 10.0)], 3);
    let narrow = run(&arrivals, &pool(Rent { max: 2, ..BASE }));
    let wide = run(&arrivals, &pool(Rent { max: 16, ..BASE }));
    assert!(wide.max_wait_hours() <= narrow.max_wait_hours() + 1e-9);
}

#[test]
#[should_panic(expected = "invalid pool configuration")]
fn zero_floor_with_lazy_trigger_rejected() {
    let cfg = pool(Rent {
        min: 0,
        up: 3,
        ..BASE
    });
    run(&[at(0.0)], &cfg);
}

#[test]
#[should_panic(expected = "need 0 < max (2) >= min (4)")]
fn ceiling_below_floor_rejected() {
    let cfg = pool(Rent {
        min: 4,
        max: 2,
        ..BASE
    });
    run(&[at(0.0)], &cfg);
}

#[test]
#[should_panic(expected = "needs an overflow policy")]
fn bounded_queue_without_policy_rejected() {
    let cfg = PoolConfig {
        queue_bound: Some(4),
        admission: AdmissionPolicy::AdmitAll,
        ..base()
    };
    run(&[at(0.0)], &cfg);
}

#[test]
#[should_panic(expected = "requires a queue_bound")]
fn policy_without_bound_rejected() {
    let cfg = PoolConfig {
        queue_bound: None,
        admission: AdmissionPolicy::Reject,
        ..base()
    };
    run(&[at(0.0)], &cfg);
}

#[test]
#[should_panic(expected = "never rent its first slot")]
fn unreachable_scale_up_trigger_rejected() {
    // A zero floor scales up at queue depth 1, but a queue bound of 0
    // means the backlog can never reach depth 1: every request would
    // overflow forever. The validator must refuse this up front.
    let cfg = PoolConfig {
        queue_bound: Some(0),
        admission: AdmissionPolicy::Reject,
        ..pool(Rent {
            min: 0,
            up: 1,
            ..BASE
        })
    };
    run(&[at(0.0)], &cfg);
}

#[test]
fn both_pool_models_word_the_admission_errors_alike() {
    // One rule, checked in one place, worded once, for owned and rented
    // slots alike.
    let bounded = "a bounded queue (queue_bound = 4) needs an overflow policy: with admission = \
                   AdmitAll a full queue would strand arrivals forever — use Reject or Deflect";
    let unbounded = "an overflow policy (Reject/Deflect) requires a queue_bound; \
                     an unbounded queue never overflows";
    for base in [base(), PoolConfig::default_owned()] {
        let cfg = |queue_bound, admission| PoolConfig {
            queue_bound,
            admission,
            ..base.clone()
        };
        let admit_all = cfg(Some(4), AdmissionPolicy::AdmitAll).validate();
        assert_eq!(admit_all, Err(bounded.to_string()));
        for policy in [AdmissionPolicy::Reject, AdmissionPolicy::Deflect] {
            assert_eq!(cfg(None, policy).validate(), Err(unbounded.to_string()));
            assert_eq!(cfg(Some(4), policy).validate(), Ok(()));
        }
    }
}

#[test]
fn a_non_finite_or_negative_rental_rate_is_refused() {
    // A negative rate would rank as the cheapest pool. Non-finite rates
    // cannot be written down: money arithmetic refuses them (the two
    // tests below).
    let mut cfg = base();
    if let Slots::Rented { cost_per_hour, .. } = &mut cfg.slots {
        *cost_per_hour = Money::from_dollars(1.0) * -0.5;
    }
    let err = cfg.validate().unwrap_err();
    assert!(err.contains("cost_per_hour must be a finite"), "{err}");
}

#[test]
#[should_panic(expected = "finite")]
fn a_nan_rental_rate_cannot_be_computed() {
    let mut cfg = base();
    if let Slots::Rented { cost_per_hour, .. } = &mut cfg.slots {
        *cost_per_hour = Money::from_dollars(1.0) * f64::NAN;
    }
}

#[test]
#[should_panic(expected = "finite")]
fn an_infinite_rental_rate_cannot_be_computed() {
    let mut cfg = base();
    if let Slots::Rented { cost_per_hour, .. } = &mut cfg.slots {
        *cost_per_hour = Money::from_dollars(1.0) * f64::INFINITY;
    }
}

#[test]
fn data_management_is_charged_per_attempt() {
    // The rental covers the CPU of every run; each rerun of a failed
    // request moves its data again, so a slot charges the data
    // management of every attempt.
    let cfg = PoolConfig {
        request_failure_prob: 0.5,
        request_retry_max: 3,
        fault_seed: 7,
        ..PoolConfig::default_rented()
    };
    let arrivals = periodic(2.0, 32.0, 1.0);
    assert_eq!(arrivals.len(), 15);
    let dm = ProfileTable::new(cfg.exec.clone())
        .fixed(1.0, cfg.procs_per_slot)
        .dm_cost;
    assert!(dm > Money::ZERO);
    // Slots take requests in arrival order, so the outcomes visit them in
    // the order the report sums them.
    let (mut expected, mut retried) = (Money::ZERO, 0);
    let report = simulate_pool(arrivals.iter().copied(), &cfg, &mut NullSink, |o| {
        expected += dm * f64::from(o.attempts);
        retried += u32::from(o.attempts > 1);
    });
    assert_eq!(report.requests(), 15);
    assert!(retried > 0, "no request was rerun");
    assert_eq!(report.dm_cost, expected);
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
    let cfg = PoolConfig {
        queue_bound: Some(1),
        admission: AdmissionPolicy::Deflect,
        ..pool(Rent { max: 1, ..BASE })
    };
    let mut waits = Vec::new();
    let report = simulate_pool(unaligned_triples(), &cfg, &mut NullSink, |o| {
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
