//! The seeded configurations and demand the differential and oracle
//! suites draw, shared so that every suite checks the same draws.
//!
//! Debug builds draw a few short cases; release builds (`--release`)
//! draw the full set.

#![allow(dead_code)] // each suite uses the draws of its own pool model

use mcloud_core::ExecConfig;
use mcloud_cost::Money;
use mcloud_service::{
    AdmissionPolicy, Arrival, FlashCrowd, PlanSpec, PoolConfig, PoolSizing, Slots,
};
use mcloud_simkit::SimRng;

/// The seed of the owned-pool draw.
pub const OWNED_SEED: u64 = 0x5e7_1ce;
/// The seed of the rented-pool (planner) draw.
pub const RENTED_SEED: u64 = 0x0c0f_0127;

/// Full draw in release builds; a few short draws in debug builds, where
/// the engine profiles behind each execution model dominate.
pub fn full() -> bool {
    !cfg!(debug_assertions)
}

pub fn pick<T: Clone>(rng: &mut SimRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize].clone()
}

/// Owned pools of 0-4 slots (0 bursting everything), burst thresholds
/// `None` and 0-3, queue bounds with `Reject` and `Deflect`, request
/// faults with retries, slot and cloud sizes that differ, and a nonzero
/// busy-hour price.
pub fn draw_owned(rng: &mut SimRng) -> PoolConfig {
    let count = rng.below(5) as u32;
    let burst_threshold = if count == 0 {
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
    // Drawn in this order, so every draw stays what it has been.
    let procs_per_slot = pick(rng, &[4, 8, 16]);
    let cloud_procs = pick(rng, &[4, 8, 16]);
    let cost_per_busy_hour = Money::from_dollars(pick(rng, &[0.0, 0.1, 0.4]));
    let request_failure_prob = if faulty { rng.f64_in(0.05, 0.6) } else { 0.0 };
    let request_retry_max = if faulty { 1 + rng.below(3) as u32 } else { 0 };
    PoolConfig {
        slots: Slots::Owned {
            count,
            cost_per_busy_hour,
        },
        procs_per_slot,
        cloud_procs,
        burst_threshold,
        request_failure_prob,
        request_retry_max,
        fault_seed: rng.next_u64(),
        queue_bound,
        admission,
        exec: ExecConfig::paper_default(),
    }
}

/// A stream opening at exactly t = 0, with same-instant ties, short gaps
/// that build a backlog and long ones that drain it.
pub fn draw_arrivals(rng: &mut SimRng) -> Vec<Arrival> {
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

/// A seeded demand and the slots every candidate rents: quarter-long or
/// shorter horizons, jittered class rates, up to three flash crowds; a
/// boot delay (from none to one that outlasts a request), slot size,
/// price and execution model.
pub fn draw_spec(rng: &mut SimRng) -> PlanSpec {
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
    // Drawn after the demand, so every demand stays what it has been.
    spec.boot_s = pick(rng, &[0.0, 120.0, 300.0, 7200.0]);
    spec.procs_per_slot = pick(rng, &[8, 16]);
    spec.slot_cost_per_hour = Money::from_dollars(pick(rng, &[0.8, 1.6, 2.4, 3.2]));
    spec.exec = pick(rng, &[spec.exec.clone(), spec.exec.clone().prestaged(true)]);
    spec
}

/// The candidate fields a pool's event handling reads.
#[derive(Clone, Copy)]
struct Family {
    min_slots: u32,
    idle_release_s: f64,
}

/// A candidate list for `spec`: one to four families (floor and idle
/// release), each after the first a copy of an earlier one with one field
/// redrawn, and candidates of those families with every policy field
/// drawn. Some candidates are near twins of earlier ones: a copy with at
/// most one field redrawn, so that a cohort holds members that differ
/// only there.
pub fn draw_candidates(rng: &mut SimRng, spec: &PlanSpec) -> Vec<PoolSizing> {
    let mins = [0u32, 1, 2, 4];
    let idles = [0.0, 900.0, 3600.0];
    let mut families = vec![Family {
        min_slots: pick(rng, &mins),
        idle_release_s: pick(rng, &idles),
    }];
    for _ in 0..rng.below(4) {
        let mut f = pick(rng, &families);
        if rng.chance(0.5) {
            f.min_slots = pick(rng, &mins);
        } else {
            f.idle_release_s = pick(rng, &idles);
        }
        families.push(f);
    }
    let count = 8 + rng.below(if full() { 40 } else { 16 }) as usize;
    let mut out: Vec<PoolSizing> = Vec::with_capacity(count);
    while out.len() < count {
        let sizing = if !out.is_empty() && rng.chance(0.3) {
            let mut twin = pick(rng, &out);
            match rng.below(4) {
                0 => twin.idle_release_s = pick(rng, &idles),
                1 => twin.max_slots = twin.min_slots.max(1) + rng.below(12) as u32,
                2 => twin.min_slots = pick(rng, &mins),
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
            PoolSizing {
                min_slots: f.min_slots,
                max_slots: f.min_slots.max(1) + rng.below(12) as u32,
                scale_up_queue: 1 + rng.below(6) as usize,
                idle_release_s: f.idle_release_s,
                queue_bound,
                admission,
            }
        };
        if spec.pool(&sizing).validate().is_ok() {
            out.push(sizing);
        }
    }
    out
}
