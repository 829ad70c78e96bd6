//! Hand-checked semantics of the execution engine, mode by mode.
//!
//! The single-task scenario is fully computable by hand at the paper's
//! 10 Mbps (1.25 MB/s): a 10 MB file takes exactly 8 s to move.

use mcloud_core::{simulate, simulate_traced, DataMode, ExecConfig, Provisioning};
use mcloud_dag::{Workflow, WorkflowBuilder};
use mcloud_montage::paper_figure3;
use mcloud_simkit::{SimTime, TimedEvent, TraceEvent};

const MB: u64 = 1_000_000;

/// One task: 10 MB in, 100 s compute, 10 MB out.
fn single_task() -> Workflow {
    let mut b = WorkflowBuilder::new("single");
    let input = b.file("in", 10 * MB);
    let output = b.file("out", 10 * MB);
    b.add_task("t", "m", 100.0, &[input], &[output]).unwrap();
    b.build().unwrap()
}

#[test]
fn regular_mode_single_task_timeline() {
    let r = simulate(&single_task(), &ExecConfig::on_demand(DataMode::Regular));
    // Stage-in 8 s, compute 100 s, stage-out 8 s.
    assert!(
        (r.makespan.as_secs_f64() - 116.0).abs() < 1e-3,
        "{}",
        r.makespan
    );
    assert_eq!(r.bytes_in, 10 * MB);
    assert_eq!(r.bytes_out, 10 * MB);
    assert_eq!(r.transfers_in, 1);
    assert_eq!(r.transfers_out, 1);
    // Input held 8..116 (108 s), output 108..116 (8 s).
    let expect = 10e6 * 108.0 + 10e6 * 8.0;
    assert!(
        (r.storage_byte_seconds - expect).abs() / expect < 1e-4,
        "storage {} vs {expect}",
        r.storage_byte_seconds
    );
    assert_eq!(r.peak_concurrency, 1);
}

#[test]
fn cleanup_mode_frees_input_at_task_finish() {
    let r = simulate(
        &single_task(),
        &ExecConfig::on_demand(DataMode::DynamicCleanup),
    );
    assert!((r.makespan.as_secs_f64() - 116.0).abs() < 1e-3);
    // Input held 8..108 (100 s), output 108..116 (8 s).
    let expect = 10e6 * 100.0 + 10e6 * 8.0;
    assert!(
        (r.storage_byte_seconds - expect).abs() / expect < 1e-4,
        "storage {} vs {expect}",
        r.storage_byte_seconds
    );
}

#[test]
fn remote_io_single_task_timeline() {
    // With one task there is no sharing, so remote I/O moves the same
    // bytes as Regular, but the input occupies storage only while the task
    // executes ("files are present on the resource only during the
    // execution of the current task").
    let reg = simulate(&single_task(), &ExecConfig::on_demand(DataMode::Regular));
    let rio = simulate(&single_task(), &ExecConfig::on_demand(DataMode::RemoteIo));
    assert_eq!(rio.bytes_in, reg.bytes_in);
    assert_eq!(rio.bytes_out, reg.bytes_out);
    assert_eq!(rio.makespan, reg.makespan);
    // The staged 10 MB input is held for the 100 s execution; outputs
    // stream straight to the outbound link.
    let expect = 10e6 * 100.0;
    assert!(
        (rio.storage_byte_seconds - expect).abs() / expect < 1e-4,
        "storage {} vs {expect}",
        rio.storage_byte_seconds
    );
}

#[test]
fn figure3_transfer_accounting_per_mode() {
    // Figure 3 of the paper: Regular stages in {a} and out {g, h}; remote
    // I/O re-stages every task input (9 x 10 MB) and stages out every task
    // output (8 x 10 MB).
    let wf = paper_figure3();
    let reg = simulate(&wf, &ExecConfig::on_demand(DataMode::Regular));
    assert_eq!(reg.bytes_in, 10 * MB);
    assert_eq!(reg.bytes_out, 20 * MB);

    let clean = simulate(&wf, &ExecConfig::on_demand(DataMode::DynamicCleanup));
    // "The amount of data transfer in the Regular and the Cleanup mode are
    // the same."
    assert_eq!(clean.bytes_in, reg.bytes_in);
    assert_eq!(clean.bytes_out, reg.bytes_out);

    let rio = simulate(&wf, &ExecConfig::on_demand(DataMode::RemoteIo));
    assert_eq!(
        rio.bytes_in,
        90 * MB,
        "t0:a t1:b t2:b t3:c1 t4:c1 t5:c2 t6:d,e,f"
    );
    assert_eq!(rio.bytes_out, 80 * MB, "b c1 c2 d e f h g");
    assert!(rio.bytes_out > reg.bytes_out);
}

#[test]
fn montage_storage_ordering_matches_figure7() {
    // Figure 7 (top): "The least storage used is in the remote I/O mode
    // ... The most storage is used in the regular mode"; cleanup sits in
    // between. (This holds for Montage's shape; degenerate toy DAGs with
    // heavy input duplication need not obey it.)
    let wf = mcloud_montage::montage_1_degree();
    let reg = simulate(&wf, &ExecConfig::on_demand(DataMode::Regular));
    let clean = simulate(&wf, &ExecConfig::on_demand(DataMode::DynamicCleanup));
    let rio = simulate(&wf, &ExecConfig::on_demand(DataMode::RemoteIo));
    assert!(clean.storage_byte_seconds < reg.storage_byte_seconds);
    assert!(rio.storage_byte_seconds < clean.storage_byte_seconds);
    // The paper's companion claim: cleanup cuts the footprint by ~50%
    // ("dynamic cleanup can reduce the amount of storage needed by a
    // workflow by almost 50%").
    let ratio = clean.storage_byte_seconds / reg.storage_byte_seconds;
    assert!((0.3..=0.7).contains(&ratio), "cleanup/regular = {ratio}");
}

#[test]
fn cpu_cost_is_invariant_across_modes() {
    // "The CPU cost is invariant between the three execution modes."
    let wf = paper_figure3();
    let costs: Vec<f64> = DataMode::ALL
        .iter()
        .map(|m| {
            simulate(&wf, &ExecConfig::on_demand(*m))
                .costs
                .cpu
                .dollars()
        })
        .collect();
    assert!((costs[0] - costs[1]).abs() < 1e-12);
    assert!((costs[1] - costs[2]).abs() < 1e-12);
    // And equals sum-of-runtimes at $0.10/CPU-hour: 7 x 60 s.
    let expect = 7.0 * 60.0 / 3600.0 * 0.10;
    assert!((costs[0] - expect).abs() < 1e-9);
}

#[test]
fn fixed_provisioning_bills_all_processors_for_the_makespan() {
    let wf = paper_figure3();
    let r = simulate(&wf, &ExecConfig::fixed(4));
    let expect = 4.0 * r.makespan.as_secs_f64() / 3600.0 * 0.10;
    assert!((r.costs.cpu.dollars() - expect).abs() < 1e-9);
    assert_eq!(r.processors, Some(4));
    assert!(r.cpu_utilization > 0.0 && r.cpu_utilization <= 1.0);
}

#[test]
fn one_processor_serializes_execution() {
    let wf = paper_figure3();
    let r = simulate(&wf, &ExecConfig::fixed(1));
    // 7 x 60 s of compute plus 8 s stage-in and 16 s stage-out.
    assert!((r.makespan.as_secs_f64() - (420.0 + 8.0 + 16.0)).abs() < 1e-3);
    assert_eq!(r.peak_concurrency, 1);
    // One processor is fully busy from first task start to last finish.
    assert!(r.cpu_utilization > 0.9);
}

#[test]
fn more_processors_shorten_figure3() {
    let wf = paper_figure3();
    let m1 = simulate(&wf, &ExecConfig::fixed(1)).makespan;
    let m3 = simulate(&wf, &ExecConfig::fixed(3)).makespan;
    // Figure 3 has 3-wide level 3: with 3 procs the DAG runs in 4 waves.
    assert!(m3 < m1);
    assert!((m3.as_secs_f64() - (240.0 + 8.0 + 16.0)).abs() < 1e-3);
}

#[test]
fn on_demand_runs_at_full_parallelism() {
    let wf = paper_figure3();
    let r = simulate(&wf, &ExecConfig::on_demand(DataMode::Regular));
    assert_eq!(r.peak_concurrency, 3);
    assert_eq!(r.processors, None);
}

#[test]
fn prestaged_inputs_remove_stage_in_cost_and_time() {
    let wf = single_task();
    let normal = simulate(&wf, &ExecConfig::on_demand(DataMode::Regular));
    let pre = simulate(
        &wf,
        &ExecConfig::on_demand(DataMode::Regular).prestaged(true),
    );
    assert_eq!(pre.bytes_in, 0);
    assert_eq!(pre.transfers_in, 0);
    assert!((pre.makespan.as_secs_f64() - 108.0).abs() < 1e-3);
    assert!(pre.total_cost() < normal.total_cost());
    assert_eq!(pre.bytes_out, normal.bytes_out);
}

#[test]
fn prestaged_remote_io_still_restages_intermediates() {
    let wf = paper_figure3();
    let pre = simulate(
        &wf,
        &ExecConfig::on_demand(DataMode::RemoteIo).prestaged(true),
    );
    // `a` is free (in-cloud archive) but b,b,c1,c1,c2,d,e,f still move in.
    assert_eq!(pre.bytes_in, 80 * MB);
    assert_eq!(pre.bytes_out, 80 * MB);
}

#[test]
fn simulation_is_deterministic() {
    let wf = mcloud_montage::montage_1_degree();
    let cfg = ExecConfig::fixed(16).mode(DataMode::DynamicCleanup);
    let a = simulate(&wf, &cfg);
    let b = simulate(&wf, &cfg);
    assert_eq!(a, b);
}

#[test]
fn trace_records_every_task_without_overlap() {
    let wf = paper_figure3();
    let (r, sink) = simulate_traced(&wf, &ExecConfig::fixed(2));
    let trace = spans(sink.events());
    assert_eq!(trace.len(), wf.num_tasks());
    // Spans on the same processor never overlap.
    for a in &trace {
        for b in &trace {
            if a.task != b.task && a.proc == b.proc {
                assert!(a.finish <= b.start || b.finish <= a.start);
            }
        }
    }
    // Every span sits within the makespan.
    for s in &trace {
        assert!(s.finish.as_secs_f64() <= r.makespan.as_secs_f64() + 1e-9);
    }
}

/// One task attempt, from its `TaskStarted` to its `TaskFinished`.
struct Span {
    task: u32,
    proc: u32,
    start: SimTime,
    finish: SimTime,
}

/// Every attempt's span, in finish order.
fn spans(events: &[TimedEvent]) -> Vec<Span> {
    let mut starts = std::collections::HashMap::new();
    events
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::TaskStarted { task, .. } => {
                starts.insert(task, e.at);
                None
            }
            TraceEvent::TaskFinished { task, proc, .. } => Some(Span {
                task,
                proc,
                start: starts[&task],
                finish: e.at,
            }),
            _ => None,
        })
        .collect()
}

#[test]
fn hourly_granularity_raises_fixed_costs() {
    use mcloud_cost::ChargeGranularity;
    let wf = paper_figure3();
    let exact = simulate(&wf, &ExecConfig::fixed(4));
    let hourly = simulate(
        &wf,
        &ExecConfig::fixed(4).with_granularity(ChargeGranularity::HourlyCpu),
    );
    // A ~3-minute run on 4 nodes bills 4 whole node-hours.
    assert!((hourly.costs.cpu.dollars() - 0.40).abs() < 1e-9);
    assert!(hourly.costs.cpu > exact.costs.cpu);
    // Everything except CPU is unchanged.
    assert_eq!(hourly.makespan, exact.makespan);
    assert_eq!(hourly.bytes_in, exact.bytes_in);
}

#[test]
fn makespan_respects_lower_bounds() {
    let wf = mcloud_montage::montage_1_degree();
    for p in [1u32, 4, 32] {
        let r = simulate(&wf, &ExecConfig::fixed(p));
        let work_bound = wf.total_runtime_s() / p as f64;
        let cp_bound = wf.critical_path_s();
        let m = r.makespan.as_secs_f64();
        assert!(m >= work_bound - 1e-6, "P={p}: {m} < {work_bound}");
        assert!(m >= cp_bound - 1e-6, "P={p}: {m} < {cp_bound}");
    }
}

#[test]
fn zero_cost_pricing_yields_zero_dollars() {
    use mcloud_cost::Pricing;
    let mut cfg = ExecConfig::on_demand(DataMode::Regular);
    cfg.pricing = Pricing {
        storage_per_gb_month: 0.0,
        transfer_in_per_gb: 0.0,
        transfer_out_per_gb: 0.0,
        cpu_per_hour: 0.0,
    };
    let r = simulate(&paper_figure3(), &cfg);
    assert_eq!(r.total_cost().dollars(), 0.0);
    assert!(r.makespan.as_secs_f64() > 0.0);
}

#[test]
fn provisioning_enum_is_exposed() {
    // Smoke-test the public provisioning API shape.
    match (Provisioning::Fixed { processors: 2 }) {
        Provisioning::Fixed { processors } => assert_eq!(processors, 2),
        Provisioning::OnDemand => unreachable!(),
    }
}

#[test]
#[should_panic(expected = "invalid execution configuration")]
fn invalid_config_panics() {
    simulate(&single_task(), &ExecConfig::fixed(0));
}
