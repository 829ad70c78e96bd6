//! Randomized-property tests of the service queue over random traffic.

use mcloud_service::{
    poisson, simulate_pool, Arrival, PoolConfig, PoolReport, RequestOutcome, Slots, Venue,
};
use mcloud_simkit::NullSink;

fn run(arrivals: &[Arrival], cfg: &PoolConfig) -> PoolReport {
    simulate_pool(arrivals.iter().copied(), cfg, &mut NullSink, |_| {})
}

const CASES: u64 = 24;

/// Streams every outcome out of the constant-memory simulator.
fn outcomes_of(arrivals: &[Arrival], cfg: &PoolConfig) -> Vec<RequestOutcome> {
    let mut v = Vec::new();
    simulate_pool(arrivals.iter().copied(), cfg, &mut NullSink, |o| v.push(*o));
    v
}

fn cfg(slots: u32, threshold: Option<usize>) -> PoolConfig {
    PoolConfig {
        slots: Slots::owned(slots),
        burst_threshold: threshold,
        ..PoolConfig::default_owned()
    }
}

/// Deterministic per-case parameters in `[lo, hi)`.
fn param(case: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (case as f64 + 0.5) / CASES as f64
}

/// Local concurrency never exceeds the slot count, waits are
/// non-negative, and queued requests start in FIFO order.
#[test]
fn queue_invariants() {
    for case in 0..CASES {
        let rate = param(case, 0.5, 6.0);
        let slots = 1 + (case % 3) as u32;
        let arrivals = poisson(rate, 50.0, 1.0, 0x5E_0001 ^ case);
        assert!(!arrivals.is_empty(), "case {case}: no arrivals");
        let outcomes = outcomes_of(&arrivals, &cfg(slots, None));

        // Sweep local busy intervals.
        let mut events: Vec<(f64, i32)> = Vec::new();
        for o in &outcomes {
            assert!(o.wait_hours() >= -1e-9, "case {case}");
            if o.venue == Venue::Local {
                events.push((o.start_hours, 1));
                events.push((o.finish_hours, -1));
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut cur = 0i64;
        for (_, d) in events {
            cur += d as i64;
            assert!(cur <= slots as i64, "case {case}: slots exceeded");
        }

        // FIFO: local requests start in arrival order.
        let starts: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.venue == Venue::Local)
            .map(|o| o.start_hours)
            .collect();
        for w in starts.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "case {case}: FIFO violated");
        }
    }
}

/// Without bursting everything is local and free; with a zero threshold
/// and zero slots everything is cloud.
#[test]
fn venue_extremes() {
    for case in 0..CASES {
        let rate = param(case, 0.5, 4.0);
        let arrivals = poisson(rate, 30.0, 1.0, 0x5E_0002 ^ case);
        assert!(!arrivals.is_empty(), "case {case}: no arrivals");
        let local_only = run(&arrivals, &cfg(2, None));
        assert_eq!(local_only.served_cloud, 0, "case {case}");
        assert_eq!(local_only.total_cost().dollars(), 0.0, "case {case}");

        let cloud_only = run(&arrivals, &cfg(0, Some(0)));
        assert_eq!(cloud_only.served_local, 0, "case {case}");
        assert!(cloud_only.total_cost().dollars() > 0.0, "case {case}");
        // Cloud has unlimited capacity: nobody ever waits.
        assert!(cloud_only.mean_wait_hours() < 1e-9, "case {case}");
    }
}

/// Lowering the burst threshold can only push more requests to the cloud,
/// and never worsens the maximum wait.
#[test]
fn threshold_monotonicity() {
    for case in 0..CASES {
        let rate = param(case, 1.0, 6.0);
        let arrivals = poisson(rate, 40.0, 1.0, 0x5E_0003 ^ case);
        assert!(arrivals.len() >= 4, "case {case}: too few arrivals");
        let tight = run(&arrivals, &cfg(1, Some(1)));
        let loose = run(&arrivals, &cfg(1, Some(4)));
        assert!(tight.served_cloud >= loose.served_cloud, "case {case}");
        assert!(
            tight.max_wait_hours() <= loose.max_wait_hours() + 1e-9,
            "case {case}"
        );
        assert!(tight.cloud_cost >= loose.cloud_cost, "case {case}");
    }
}

/// Turnaround always includes the service time: no request finishes
/// faster than its venue's profile.
#[test]
fn turnaround_lower_bound() {
    for case in 0..CASES {
        let rate = param(case, 0.5, 4.0);
        let arrivals = poisson(rate, 30.0, 2.0, 0x5E_0004 ^ case);
        assert!(!arrivals.is_empty(), "case {case}: no arrivals");
        let outcomes = outcomes_of(&arrivals, &cfg(2, Some(2)));
        let min_service = outcomes
            .iter()
            .map(|o| o.finish_hours - o.start_hours)
            .fold(f64::INFINITY, f64::min);
        for o in &outcomes {
            assert!(o.turnaround_hours() + 1e-9 >= min_service, "case {case}");
        }
    }
}
