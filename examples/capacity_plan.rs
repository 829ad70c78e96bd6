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
        let Slots::Rented {
            min,
            max,
            scale_up_queue,
            ..
        } = c.cfg.slots
        else {
            unreachable!("the planner sizes rented pools")
        };
        println!(
            "  min={min} max={max} up={scale_up_queue} policy p99={:.2} h for ${:.2}",
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
