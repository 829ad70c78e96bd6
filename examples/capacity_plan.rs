//! The inverse of the paper's question: instead of pricing a given plan,
//! find the cheapest auto-scale pool that *meets a promise* — a p99
//! turnaround SLO against a seeded, diurnally-modulated demand forecast.
//!
//! The planner replays the identical arrival stream against a grid of
//! pool configurations (floor, ceiling, scale-up trigger, overflow
//! policy), evaluated in parallel on the worker pool, and recommends the
//! cheapest one that serves every request within the SLO.
//!
//! ```text
//! cargo run --release --example capacity_plan
//! ```

use montage_cloud::prelude::*;

fn main() {
    // A week of mixed demand: mostly 1-degree mosaics, some 2-degree,
    // the occasional 4-degree survey, swinging 30% over the day.
    let spec = PlanSpec::new(
        /* p99 SLO, hours */ 7.0, /* req/h */ 3.0, /* horizon */ 168.0,
    );
    let plan = plan_capacity(&spec).expect("valid spec");

    print!("{}", plan_text(&spec, &plan));

    // The frontier is the menu: every point is a cost/latency trade the
    // operator could defensibly pick.
    println!("\ncost-vs-p99 frontier:");
    for &i in &plan.frontier {
        let c = &plan.candidates[i];
        let s = &c.sizing;
        println!(
            "  min={} max={} up={} {:?} p99={:.2} h for ${:.2}",
            s.min_slots,
            s.max_slots,
            s.scale_up_queue,
            s.admission,
            c.p99_turnaround_hours,
            c.total_cost.dollars()
        );
    }
    if let Some(best) = plan.best_candidate() {
        println!(
            "\nthe SLO costs ${:.2} for the week; the cheapest grid point \
             (ignoring the promise) runs ${:.2} — the gap is the price of \
             the guarantee.",
            best.total_cost.dollars(),
            plan.candidates
                .iter()
                .map(|c| c.total_cost.dollars())
                .fold(f64::INFINITY, f64::min)
        );
    }
}
