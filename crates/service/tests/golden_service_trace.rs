//! Goldens for the service layer: two scenarios' event narration, the
//! same way the engine's 1-degree traces are pinned in `mcloud-core`,
//! plus bit-level pins of service reports and capacity plans.
//! Regenerate after an *intentional* semantic change with
//! `MCLOUD_UPDATE_GOLDEN=1` and review the diff.

use std::path::PathBuf;

use mcloud_cache::{ResultCache, DEFAULT_BUDGET_BYTES};
use mcloud_cost::Money;
use mcloud_service::{
    mixed, periodic, plan_capacity_with_cache, plan_json, service_trace_jsonl, simulate_pool,
    AdmissionPolicy, Arrival, CapacityPlan, FlashCrowd, PlanSpec, PoolConfig, PoolSizing, Slots,
};
use mcloud_simkit::{Histogram, NullSink, RecordingSink};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("MCLOUD_UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with MCLOUD_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if expected != actual {
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(e, a, "golden {name} diverges at line {}", i + 1);
        }
        assert_eq!(
            expected.lines().count(),
            actual.lines().count(),
            "golden {name}: line count changed"
        );
        panic!("golden {name} differs only in trailing bytes");
    }
}

#[test]
fn golden_service_trace_burst_profile() {
    // One local slot under heavy periodic traffic with a shallow burst
    // threshold: the stream exercises queueing, local service, and cloud
    // bursts — every service-layer event kind.
    let arrivals = periodic(0.25, 12.0, 1.0);
    let cfg = PoolConfig {
        slots: Slots::owned(1),
        burst_threshold: Some(2),
        ..PoolConfig::default_owned()
    };
    let mut sink = RecordingSink::new();
    let report = simulate_pool(arrivals.iter().copied(), &cfg, &mut sink, |_| {});
    assert!(report.served_cloud > 0 && report.served_local > 0);
    check_golden(
        "service_trace_burst.jsonl",
        &service_trace_jsonl(sink.events()),
    );
}

// --- Bit-level pins ---------------------------------------------------------
//
// The service simulators and the planner are pinned below to the bit, so
// a change to their event calendar or their evaluation order must leave
// every number where it was.

/// A float's IEEE-754 bit pattern, so pins compare values exactly.
fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Every field of a histogram, floats as bit patterns.
fn hist_pin(name: &str, h: &Histogram) -> String {
    let (buckets, zeros, count, sum, min, max) = h.raw_parts();
    let buckets: Vec<String> = buckets.iter().map(|(k, n)| format!("{k}:{n}")).collect();
    format!(
        "  {name}: count={count} zeros={zeros} sum={} min={} max={} buckets=[{}]\n",
        bits(sum),
        bits(min),
        bits(max),
        buckets.join(",")
    )
}

/// Three seeded flash-crowd plan specs: two weeks of the default class
/// mix with one 4x crowd each, at different rates, seeds and windows.
fn flash_specs() -> Vec<PlanSpec> {
    [(2.0, 11u64, 50.0), (3.0, 12, 170.0), (4.0, 13, 290.0)]
        .into_iter()
        .map(|(rate, seed, start_hour)| {
            let mut spec = PlanSpec::new(7.0, rate, 336.0);
            spec.seed = seed;
            spec.modulation.flash_crowds.push(FlashCrowd {
                start_hour,
                duration_hours: 6.0,
                multiplier: 4.0,
            });
            spec
        })
        .collect()
}

/// `plan_json` plus every scorecard field as bits, the frontier and the
/// recommendation.
fn plan_pin(spec: &PlanSpec, plan: &CapacityPlan) -> String {
    let mut out = plan_json(spec, plan);
    for (i, c) in plan.candidates.iter().enumerate() {
        out.push_str(&format!(
            "{i}: requests={} rejected={} deflected={} p99={} mean={} peak={} cost={} meets={}\n",
            c.requests,
            c.rejected,
            c.deflected,
            bits(c.p99_turnaround_hours),
            bits(c.mean_turnaround_hours),
            c.peak_slots,
            bits(c.total_cost.dollars()),
            c.meets_slo
        ));
    }
    out.push_str(&format!(
        "frontier={:?} best={:?}\n",
        plan.frontier, plan.best
    ));
    out
}

/// A fresh private cache per plan, so every pin is a cold evaluation.
fn cold_plan(spec: &PlanSpec, candidates: Vec<PoolSizing>) -> CapacityPlan {
    let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
    plan_capacity_with_cache(spec, candidates, &cache).expect("plan")
}

#[test]
fn golden_plans_of_seeded_flash_crowds() {
    for (i, spec) in flash_specs().iter().enumerate() {
        let plan = cold_plan(spec, spec.default_candidates());
        check_golden(&format!("plan_flash_{i}.txt"), &plan_pin(spec, &plan));
    }
}

/// Pools the default grid never builds: an idle-release grace window
/// (the `IdleExpire` path), `Reject` admission, and a zero floor that
/// rents on the first waiting request.
fn custom_candidates() -> Vec<PoolSizing> {
    // `PoolSizing::new(min, max, up)`, its slots released after `idle_s`.
    let idle = |min, max, up, idle_s| PoolSizing {
        idle_release_s: idle_s,
        ..PoolSizing::new(min, max, up)
    };
    vec![
        idle(1, 8, 2, 1800.0),
        idle(0, 8, 1, 3600.0),
        PoolSizing::new(0, 4, 1),
        PoolSizing {
            queue_bound: Some(3),
            admission: AdmissionPolicy::Reject,
            ..PoolSizing::new(1, 2, 2)
        },
        PoolSizing {
            queue_bound: Some(1),
            admission: AdmissionPolicy::Reject,
            ..idle(0, 2, 1, 600.0)
        },
    ]
}

#[test]
fn golden_plan_of_custom_candidates() {
    let spec = &flash_specs()[2];
    let candidates = custom_candidates();
    let plan = cold_plan(spec, candidates.clone());
    let mut out = plan_pin(spec, &plan);
    // The scorecards omit rentals and slot-hours; pin each candidate's
    // whole report too.
    for (i, sizing) in candidates.iter().enumerate() {
        let r = simulate_pool(spec.stream(), &spec.pool(sizing), &mut NullSink, |_| {});
        out.push_str(&format!(
            "report {i}: requests={} rejected={} deflected={} slot_hours={} rental={} dm={} \
             deflect={} peak={} rentals={}\n",
            r.requests(),
            r.rejected,
            r.deflected,
            bits(r.slot_hours),
            bits(r.slot_cost.dollars()),
            bits(r.dm_cost.dollars()),
            bits(r.cloud_cost.dollars()),
            r.peak_slots,
            r.rentals
        ));
        out.push_str(&hist_pin("wait", &r.wait_hist));
        out.push_str(&hist_pin("turnaround", &r.turnaround_hist));
    }
    check_golden("plan_custom.txt", &out);
}

/// Service scenarios over one seeded week of mixed traffic: cloud
/// bursting, `Deflect` and `Reject` admission, and retries under a fault
/// model.
fn service_scenarios() -> Vec<(&'static str, PoolConfig)> {
    let base = PoolConfig::default_owned();
    let billed = |dollars| Slots::Owned {
        count: 2,
        cost_per_busy_hour: Money::from_dollars(dollars),
    };
    vec![
        (
            "burst",
            PoolConfig {
                slots: Slots::owned(1),
                burst_threshold: Some(2),
                ..base.clone()
            },
        ),
        (
            "deflect",
            PoolConfig {
                burst_threshold: None,
                queue_bound: Some(2),
                admission: AdmissionPolicy::Deflect,
                ..base.clone()
            },
        ),
        (
            "reject",
            PoolConfig {
                slots: billed(0.4),
                burst_threshold: None,
                queue_bound: Some(2),
                admission: AdmissionPolicy::Reject,
                ..base.clone()
            },
        ),
        (
            "retries",
            PoolConfig {
                slots: billed(0.1),
                request_failure_prob: 0.3,
                request_retry_max: 2,
                fault_seed: 2008,
                ..base
            },
        ),
    ]
}

fn service_arrivals() -> Vec<Arrival> {
    mixed(&[(3.0, 1.0), (1.0, 2.0), (0.2, 4.0)], 168.0, 77)
}

#[test]
fn golden_service_reports() {
    let arrivals = service_arrivals();
    let mut out = String::new();
    for (name, cfg) in service_scenarios() {
        let r = simulate_pool(arrivals.iter().copied(), &cfg, &mut NullSink, |_| {});
        out.push_str(&format!(
            "{name}: local={} cloud={} rejected={} deflected={} backlog_mean={} \
             backlog_peak={} cloud_cost={} local_cost={}\n",
            r.served_local,
            r.served_cloud,
            r.rejected,
            r.deflected,
            bits(r.backlog_mean),
            bits(r.backlog_peak),
            bits(r.cloud_cost.dollars()),
            bits(r.slot_cost.dollars())
        ));
        out.push_str(&hist_pin("wait", &r.wait_hist));
        out.push_str(&hist_pin("turnaround", &r.turnaround_hist));
        out.push_str(&r.prometheus_text());
    }
    check_golden("service_reports.txt", &out);
}

#[test]
fn golden_service_trace_deflect_with_retries() {
    // Two days of deflections under a fault model: local and cloud
    // completions (cloud finishes are scheduled only when traced)
    // interleave with retried local runs.
    let cfg = PoolConfig {
        request_failure_prob: 0.3,
        request_retry_max: 2,
        fault_seed: 7,
        ..service_scenarios()[1].1.clone()
    };
    let arrivals: Vec<Arrival> = service_arrivals()
        .into_iter()
        .take_while(|a| a.at_hours < 48.0)
        .collect();
    let mut sink = RecordingSink::new();
    let report = simulate_pool(arrivals.iter().copied(), &cfg, &mut sink, |_| {});
    assert!(report.deflected > 0 && report.served_local > 0);
    check_golden(
        "service_trace_deflect_retries.jsonl",
        &service_trace_jsonl(sink.events()),
    );
}
