//! Little's law as an exact oracle of the pool simulator, on both slot
//! sources.
//!
//! Every request that waits for a slot is in the backlog from its arrival
//! to its start, and nobody else ever is. So the area under the backlog
//! curve, `backlog_mean × span_hours`, must equal the sum of the waits
//! over the served requests. The waits are summed here in whole
//! microseconds, the simulation clock's unit, read back off the streamed
//! outcomes, so the only slack is the rounding of the report's own
//! floating-point integral: 1e-12 relative.
//!
//! The pools and streams are the ones the differential suites draw:
//! owned pools over `draws::draw_arrivals` (as `service_differential`),
//! and rented pools over seeded plan specs (as `cohort_differential`),
//! with boot delays on and off. Debug builds check a few short draws;
//! `--release` checks the full draw.

mod draws;

use mcloud_service::{simulate_pool, Arrival, PoolConfig, PoolReport};
use mcloud_simkit::{NullSink, SimRng};

use draws::{draw_arrivals, draw_candidates, draw_owned, draw_spec, full, OWNED_SEED, RENTED_SEED};

/// An outcome's clock instant in whole microseconds.
fn micros(hours: f64) -> i64 {
    (hours * 3.6e9).round() as i64
}

/// Runs `cfg` over `arrivals` and checks the backlog's area against the
/// summed waits; returns the report.
fn check(arrivals: impl IntoIterator<Item = Arrival>, cfg: &PoolConfig, what: &str) -> PoolReport {
    let mut waits_us = 0i64;
    let report = simulate_pool(arrivals, cfg, &mut NullSink, |o| {
        waits_us += micros(o.start_hours) - micros(o.arrival_hours)
    });
    let waits = waits_us as f64 / 3.6e9;
    let area = report.backlog_mean * report.span_hours;
    assert!(
        (area - waits).abs() <= 1e-12 * waits,
        "{what}: backlog area {area} h vs summed waits {waits} h ({cfg:?})"
    );
    report
}

#[test]
fn owned_pools_obey_littles_law() {
    let draws = if full() { 400 } else { 24 };
    let mut rng = SimRng::new(OWNED_SEED);
    let mut queued = 0;
    for draw in 0..draws {
        let cfg = draw_owned(&mut rng);
        let arrivals = draw_arrivals(&mut rng);
        let report = check(arrivals, &cfg, &format!("owned draw {draw}"));
        queued += u64::from(report.backlog_peak > 0.0);
    }
    assert!(queued > 0, "no drawn pool ever queued");
}

#[test]
fn rented_pools_obey_littles_law() {
    let draws = if full() { 24 } else { 10 };
    let mut rng = SimRng::new(RENTED_SEED);
    let (mut booted, mut instant) = (0, 0);
    for draw in 0..draws {
        let spec = draw_spec(&mut rng);
        for (i, sizing) in draw_candidates(&mut rng, &spec).iter().enumerate() {
            let what = format!("rented draw {draw}: {i}");
            let report = check(spec.stream(), &spec.pool(sizing), &what);
            if report.backlog_peak > 0.0 {
                if spec.boot_s > 0.0 {
                    booted += 1;
                } else {
                    instant += 1;
                }
            }
        }
    }
    assert!(
        booted > 0 && instant > 0,
        "{booted} queueing pools with a boot delay, {instant} without"
    );
}
