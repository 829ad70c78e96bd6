//! Acceptance gate for the streaming service layer: peak memory must not
//! scale with the request count.
//!
//! The pre-streaming service simulator materialized one `RequestOutcome`
//! per arrival, so a month-scale stream held the whole campaign in memory
//! at once. The streaming fold replaces that vector with registered
//! histograms plus a reorder buffer bounded by the *backlog*, so a 10x
//! longer arrival stream must cost (almost) no extra peak heap inside the
//! simulation. This is measured exactly with the crate's counting global
//! allocator — the same instrument the benchmark baseline gates on.

use mcloud_bench::alloc;
use mcloud_cache::{ResultCache, DEFAULT_BUDGET_BYTES};
use mcloud_service::{
    class_stream, plan_capacity_with_cache, poisson, simulate_pool, AdmissionPolicy, Arrival,
    PlanSpec, PoolConfig, PoolReport, PoolSizing, RateProfile, RequestClass, Slots,
};
use mcloud_simkit::NullSink;

fn run(arrivals: &[Arrival], cfg: &PoolConfig) -> PoolReport {
    simulate_pool(arrivals.iter().copied(), cfg, &mut NullSink, |_| {})
}

fn arrivals(horizon_hours: f64) -> Vec<Arrival> {
    // ~2 requests/hour of 1-degree mosaics: a steady stream with enough
    // contention that the backlog (and thus the reorder buffer) is
    // regularly non-empty.
    poisson(2.0, horizon_hours, 1.0, 0xBEEF)
}

/// The allocation counters are per-thread, so the measured regions see
/// only this test's own allocations.
#[test]
fn service_peak_memory_is_backlog_bounded_not_request_bounded() {
    let cfg = PoolConfig::default_owned();
    let small = arrivals(1_000.0);
    let large = arrivals(10_000.0);
    assert!(
        large.len() >= 9 * small.len(),
        "stream sizes too close: {} vs {}",
        small.len(),
        large.len()
    );

    // Warm-up so lazily initialized runtime structures (allocator arenas,
    // profile caches) don't bill to the measured runs.
    std::hint::black_box(run(&small, &cfg));

    let (report_small, delta_small) = alloc::measure(|| std::hint::black_box(run(&small, &cfg)));
    let (report_large, delta_large) = alloc::measure(|| std::hint::black_box(run(&large, &cfg)));
    assert_eq!(report_small.requests(), small.len() as u64);
    assert_eq!(report_large.requests(), large.len() as u64);

    // The old materializing implementation held one ~88-byte outcome per
    // request, so 10x the requests meant ~10x the peak. Streaming keeps
    // the peak at the event queue + backlog working set: allow 2x for
    // backlog wobble between the two streams, nowhere near 10x.
    assert!(
        delta_large.peak_above_start <= 2 * delta_small.peak_above_start.max(16 * 1024),
        "service peak memory scaled with request count: \
         {} requests -> {} peak bytes, {} requests -> {} peak bytes",
        small.len(),
        delta_small.peak_above_start,
        large.len(),
        delta_large.peak_above_start
    );

    // Allocation *count* must not scale with requests either: the fold
    // reuses its buffers, so 10x arrivals may not cost 10x allocations.
    assert!(
        delta_large.allocs <= delta_small.allocs + delta_small.allocs / 2 + 64,
        "service allocations scaled with request count: {} -> {}",
        delta_small.allocs,
        delta_large.allocs
    );

    // --- The full streaming campaign: generator + simulator, no Vec ----
    //
    // Above, the arrivals were pre-materialized to isolate the
    // simulator's own working set. The year-long campaign of the golden
    // table (crates/cli/tests/goldens.rs) runs the composed pipeline: a
    // seeded class stream feeding simulate_pool directly,
    // arrivals never collected. A 10x longer campaign must hold the same
    // peak heap. Default sizing keeps the test fast in debug builds;
    // MCLOUD_SERVICE_SCALE=full (set by CI's release `perf` job) runs the
    // 10^6-request year.
    let full = std::env::var("MCLOUD_SERVICE_SCALE").as_deref() == Ok("full");
    let classes = [
        RequestClass {
            rate_per_hour: 84.0,
            degrees: 1.0,
            priority: 2,
        },
        RequestClass {
            rate_per_hour: 28.0,
            degrees: 2.0,
            priority: 1,
        },
        RequestClass {
            rate_per_hour: 6.0,
            degrees: 4.0,
            priority: 0,
        },
    ];
    let profile = RateProfile {
        base_rate_per_hour: 1.0,
        diurnal_amplitude: 0.6,
        seasonal_amplitude: 0.25,
        flash_crowds: Vec::new(),
    };
    let stream_cfg = PoolConfig {
        slots: Slots::owned(64),
        burst_threshold: None,
        queue_bound: Some(32),
        admission: AdmissionPolicy::Reject,
        ..PoolConfig::default_owned()
    };
    let (short_h, long_h) = if full { (876.0, 8760.0) } else { (87.6, 876.0) };
    let campaign = |horizon: f64| {
        simulate_pool(
            class_stream(&classes, &profile, horizon, 2008),
            &stream_cfg,
            &mut NullSink,
            |_| {},
        )
    };
    std::hint::black_box(campaign(short_h)); // warm-up

    let (report_short, delta_short) = alloc::measure(|| std::hint::black_box(campaign(short_h)));
    let (report_long, delta_long) = alloc::measure(|| std::hint::black_box(campaign(long_h)));
    assert!(
        report_long.offered() >= 9 * report_short.offered(),
        "campaign sizes too close: {} vs {}",
        report_short.offered(),
        report_long.offered()
    );
    if full {
        assert!(
            report_long.offered() >= 1_000_000,
            "the full campaign must offer >= 10^6 requests, got {}",
            report_long.offered()
        );
    }
    assert!(
        delta_long.peak_above_start <= 2 * delta_short.peak_above_start.max(16 * 1024),
        "streaming campaign peak memory scaled with request count: \
         {} requests -> {} peak bytes, {} requests -> {} peak bytes",
        report_short.offered(),
        delta_short.peak_above_start,
        report_long.offered(),
        delta_long.peak_above_start
    );
    assert!(
        delta_long.allocs <= delta_short.allocs + delta_short.allocs / 2 + 64,
        "streaming campaign allocations scaled with request count: {} -> {}",
        delta_short.allocs,
        delta_long.allocs
    );
}

/// The capacity planner streams its demand too: a plan over a 10x longer
/// horizon must hold the same peak heap, which a planner that collected
/// the arrivals into a `Vec` could not.
#[test]
fn planner_peak_memory_is_backlog_bounded_not_request_bounded() {
    let mut spec = PlanSpec::new(7.0, 10.0, 1.0);
    // One small request class keeps the profile warming (an engine run
    // per class) from dominating the measured peak.
    spec.classes = vec![RequestClass {
        rate_per_hour: 10.0,
        degrees: 1.0,
        priority: 0,
    }];
    // A bounded queue keeps the backlog, and with it the simulation's
    // working set, the same size over any horizon.
    let candidate = PoolSizing {
        queue_bound: Some(16),
        admission: AdmissionPolicy::Deflect,
        ..PoolSizing::new(2, 8, 2)
    };
    // One candidate is one work item, which the worker pool runs inline
    // on this thread, where the per-thread counters see it. A fresh
    // cache per plan keeps every plan cold.
    let plan = |horizon_hours: f64| {
        let spec = PlanSpec {
            horizon_hours,
            ..spec.clone()
        };
        let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
        alloc::measure(|| plan_capacity_with_cache(&spec, vec![candidate], &cache).expect("plan"))
    };
    let (short_h, long_h) = (1_000.0, 10_000.0);
    std::hint::black_box(plan(short_h)); // warm-up

    let (short, delta_short) = plan(short_h);
    let (long, delta_long) = plan(long_h);
    let (short_n, long_n) = (short.candidates[0].requests, long.candidates[0].requests);
    assert!(
        long_n >= 9 * short_n,
        "plan sizes too close: {short_n} vs {long_n}"
    );
    let bound = 2 * delta_short.peak_above_start.max(16 * 1024);
    assert!(
        delta_long.peak_above_start <= bound,
        "planner peak memory scaled with request count: \
         {short_n} requests -> {} peak bytes, {long_n} requests -> {} peak bytes",
        delta_short.peak_above_start,
        delta_long.peak_above_start
    );
    // The sizing has teeth: the long plan's arrivals alone, collected,
    // would overshoot the bound at least 4x.
    let collected = long_n * std::mem::size_of::<Arrival>() as u64;
    assert!(
        collected >= 4 * bound,
        "horizon too short to tell: {collected} collected bytes vs a {bound}-byte bound"
    );
}
