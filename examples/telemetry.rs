//! Self-telemetry: every layer of the simulator as a metrics registry.
//!
//! Runs the canonical 1-degree fault scenario and prints three
//! expositions:
//!
//! 1. the **kernel's** deterministic counters (event queue, ready set,
//!    processor pool) from `Report::registry` — byte-identical across
//!    runs, machines, and `MCLOUD_WORKERS` settings, so CI pins them as a
//!    golden file;
//! 2. the **service layer's** streamed request statistics from
//!    `ServiceReport::registry` — histograms folded as requests complete,
//!    never materialized;
//! 3. the **worker pool's** wall-clock lane counters — scheduling-
//!    dependent by design, so they carry the wall-clock metric class and
//!    only render through `prometheus_text_all`.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```

use montage_cloud::prelude::*;

fn main() {
    // Layer 1: the engine kernel. Same scenario as the committed golden
    // exposition (crates/cli/tests/golden/metrics_faults_1deg.prom).
    let wf = montage_1_degree();
    let cfg = ExecConfig::fixed(8)
        .with_fault_model(montage_cloud::core::FaultModel {
            task_failure_prob: 0.05,
            transfer_failure_prob: 0.05,
            proc_mttf_s: 5000.0,
            seed: 2008,
        })
        .with_retry(montage_cloud::core::RetryPolicy::bounded(3));
    let report = simulate(&wf, &cfg);
    println!("=== kernel (deterministic; golden-stable) ===");
    print!("{}", report.registry().prometheus_text());

    // Layer 3: the service queue, statistics folded in constant memory.
    let arrivals = poisson(2.0, 200.0, 1.0, 7);
    let svc = simulate_service(&arrivals, &ServiceConfig::default_burst());
    println!("\n=== service (deterministic; streamed folds) ===");
    print!("{}", svc.prometheus_text());
    println!(
        "\n(p95 turnaround {:.2} h over {} requests, backlog peak {:.0})",
        svc.turnaround_quantile(0.95),
        svc.requests(),
        svc.backlog_peak
    );

    // Layer 2: the worker pool. Fan a sweep out, then read the lanes.
    // Which lane did what is a race — hence the wall-clock class, which
    // the deterministic render refuses to show.
    let ladder = geometric_processors(32);
    let points =
        processor_sweep_progress(&wf, &ExecConfig::paper_default(), &ladder, &|done, n| {
            eprint!("\rsweep {done}/{n}");
        });
    eprintln!();
    assert_eq!(points.len(), ladder.len());
    let pool = WorkerPool::global();
    let wall = pool.registry();
    assert_eq!(wall.prometheus_text(), ""); // wall-clock never in goldens
    println!("=== worker pool (wall-clock; never in goldens) ===");
    print!("{}", wall.prometheus_text_all());

    // The JSON snapshot carries the same numbers for dashboards.
    let json = report.registry().json();
    assert!(json.contains("mcloud_kernel_queue_pops_total"));
    println!("\nkernel JSON snapshot: {} bytes", json.len());
}
