//! Event tracing: watch a simulation run, event by event.
//!
//! Runs the paper's 1-degree mosaic through the engine with a recording
//! sink attached, cross-checks the event-derived aggregates against the
//! `Report`, derives utilization/occupancy timeseries, and writes both
//! trace exports (JSON Lines and Chrome `trace_event` for Perfetto).
//!
//! ```text
//! cargo run --release --example event_trace
//! ```

use montage_cloud::prelude::*;

fn main() {
    let wf = montage_1_degree();
    let cfg = ExecConfig::fixed(8);
    let (report, sink) = simulate_traced(&wf, &cfg);

    // The counters are running sums over the event stream; they agree
    // exactly with the aggregates the engine reports.
    let c = sink.counters();
    println!("events        {}", c.events);
    println!(
        "tasks         {} started, {} ok, {} failed",
        c.tasks_started, c.tasks_succeeded, c.tasks_failed
    );
    println!(
        "transfers in  {} carrying {} B (report: {} / {} B)",
        c.transfers_in, c.bytes_in, report.transfers_in, report.bytes_in
    );
    println!(
        "transfers out {} carrying {} B (report: {} / {} B)",
        c.transfers_out, c.bytes_out, report.transfers_out, report.bytes_out
    );
    assert_eq!(c.bytes_in, report.bytes_in);
    assert_eq!(c.bytes_out, report.bytes_out);

    // Derived timeseries: peak concurrency and the storage-occupancy
    // curve whose integral is what Amazon bills for.
    let peak_tasks = sink
        .concurrency_series()
        .iter()
        .map(|&(_, n)| n)
        .max()
        .unwrap_or(0);
    println!(
        "peak          {} concurrent tasks, {:.3} GB storage",
        peak_tasks,
        sink.storage_peak_bytes() / 1e9
    );
    println!(
        "storage       {:.3} GB-h from events (report: {:.3} GB-h)",
        sink.storage_byte_seconds(sink.end_time()) / 1e9 / 3600.0,
        report.storage_gb_hours()
    );
    println!(
        "utilization   {:.0}% from events (report: {:.0}%)",
        sink.cpu_utilization(8, sink.end_time()) * 100.0,
        report.cpu_utilization * 100.0
    );

    // Exports: JSONL for grep/jq pipelines, Chrome JSON for Perfetto.
    let dir = std::env::temp_dir();
    let jsonl_path = dir.join("montage_1deg.trace.jsonl");
    let chrome_path = dir.join("montage_1deg.trace.json");
    std::fs::write(&jsonl_path, trace_to_jsonl(&wf, sink.events())).unwrap();
    std::fs::write(&chrome_path, trace_to_chrome(&wf, sink.events())).unwrap();
    println!("\nwrote {}", jsonl_path.display());
    println!("wrote {} (open in ui.perfetto.dev)", chrome_path.display());

    // The service layer narrates request lifecycles through the same
    // sink type: queued -> started (venue) -> finished.
    let arrivals = periodic(0.5, 24.0, 1.0);
    let mut svc_sink = RecordingSink::new();
    let svc = simulate_pool(
        arrivals.iter().copied(),
        &PoolConfig::default_owned(),
        &mut svc_sink,
        |_| {},
    );
    println!(
        "\nservice day   {} requests ({} local, {} cloud), {} span events",
        svc.requests(),
        svc.served_local,
        svc.served_cloud,
        svc_sink.events().len()
    );
    print!(
        "{}",
        service_trace_jsonl(&svc_sink.events()[..6.min(svc_sink.events().len())])
    );
}
