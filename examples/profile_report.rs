//! Trace-driven profiling: where did the time — and the dollars — go?
//!
//! Simulates the paper's 1-degree mosaic under all three data-management
//! modes, reconstructs per-task spans from each run's event trace, and
//! prints the phase breakdown (queue-wait / execution / transfer-in /
//! transfer-out / storage-wait) and the cost attribution side by side.
//! Every total reconciles with the engine's own `Report`, which the
//! example asserts as it goes.
//!
//! ```text
//! cargo run --release --example profile_report
//! ```

use montage_cloud::prelude::*;

fn main() {
    let wf = montage_1_degree();
    let mut profiles = Vec::new();
    for mode in DataMode::ALL {
        let cfg = ExecConfig::on_demand(mode);
        let (report, sink) = simulate_traced(&wf, &cfg);
        let p = profile_trace(&wf, sink.events());
        let attr = attribute_profile_costs(&p, &report, &cfg.pricing);

        // The profiler is accounting, not estimation: its sums match the
        // engine's billing to rounding.
        let exec: f64 = p.classes.iter().map(|c| c.exec_s).sum();
        assert!((exec - report.task_runtime_seconds).abs() < 1e-3);
        assert!(attr.attributed().approx_eq(&report.costs, 1e-6));

        profiles.push((mode, p, attr));
    }

    // Phase breakdown per class, modes side by side.
    println!("phase totals per class, seconds (1-degree mosaic, on-demand)\n");
    println!(
        "{:<14}{:>24}{:>24}{:>24}",
        "",
        DataMode::ALL[0].label(),
        DataMode::ALL[1].label(),
        DataMode::ALL[2].label()
    );
    println!(
        "{:<14}{}",
        "class",
        format!("{:>12}{:>12}", "exec", "wait").repeat(3)
    );
    let classes = profiles[0].1.classes.len();
    for i in 0..classes {
        let mut row = format!("{:<14}", profiles[0].1.classes[i].class);
        for (_, p, _) in &profiles {
            let c = &p.classes[i];
            let wait = c.queue_wait_s + c.transfer_in_s + c.transfer_out_s + c.storage_wait_s;
            row.push_str(&format!("{:>12.1}{:>12.1}", c.exec_s, wait));
        }
        println!("{row}");
    }

    // Where each mode's money went, by attribution row.
    println!("\ncost attribution, dollars\n");
    for (mode, _, attr) in &profiles {
        println!("{}:", mode.label());
        for r in &attr.rows {
            let d = r.cost.total().dollars();
            if d > 5e-7 {
                println!("  {:<20}{d:>10.6}", r.label);
            }
        }
        println!("  {:<20}{:>10.6}", "billed", attr.billed.total().dollars());
    }

    // The observed critical path: what actually gated the makespan.
    let (_, p, _) = &profiles[0];
    println!(
        "\nobserved critical path ({} tasks, {:.1} s of execution; graph bound {:.1} s):",
        p.observed_critical_path.len(),
        p.observed_critical_exec_s,
        p.graph_critical_path_s
    );
    let names: Vec<&str> = p
        .observed_critical_path
        .iter()
        .map(|&t| wf.task(t).name)
        .collect();
    println!("  {}", names.join(" -> "));

    println!(
        "\nqueue wait p50/p95/max: {:.1} / {:.1} / {:.1} s over {} dispatches",
        p.queue_wait_hist.quantile(0.5),
        p.queue_wait_hist.quantile(0.95),
        p.queue_wait_hist.max(),
        p.queue_wait_hist.count()
    );
}
