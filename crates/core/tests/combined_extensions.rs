//! The engine extensions composed together: faults + outages + VM
//! overhead + hourly billing + duplex links + scheduling policy in one
//! run. No pairwise feature interaction may violate the accounting
//! invariants.

use mcloud_core::{simulate, simulate_traced, DataMode, ExecConfig, SchedulePolicy, VmOverhead};
use mcloud_cost::ChargeGranularity;
use mcloud_montage::montage_1_degree;
use mcloud_simkit::TraceEvent;

fn kitchen_sink(mode: DataMode) -> ExecConfig {
    ExecConfig::fixed(8)
        .mode(mode)
        .with_vm_overhead(VmOverhead {
            startup_s: 120.0,
            teardown_s: 30.0,
        })
        .with_faults(0.1, 99)
        .with_outage(300.0, 120.0)
        .with_outage(2_000.0, 60.0)
        .with_granularity(ChargeGranularity::HourlyCpu)
        .with_policy(SchedulePolicy::CriticalPathFirst)
        .with_duplex_link()
}

#[test]
fn all_extensions_compose_without_breaking_invariants() {
    let wf = montage_1_degree();
    for mode in DataMode::ALL {
        let (r, sink) = simulate_traced(&wf, &kitchen_sink(mode));
        // Work completes.
        assert_eq!(
            r.task_executions,
            wf.num_tasks() as u64 + r.failed_attempts,
            "{}",
            mode.label()
        );
        // Accounting is internally consistent.
        let total = r.costs.cpu + r.costs.storage + r.costs.transfer_in + r.costs.transfer_out;
        assert!(r.total_cost().approx_eq(total, 1e-9));
        assert!(r.storage_byte_seconds >= 0.0);
        assert!(r.storage_peak_bytes >= 0.0);
        assert!(r.queue_wait_max_s >= r.queue_wait_mean_s);
        // The trace covers every execution attempt.
        let starts: Vec<f64> = sink
            .events()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::TaskStarted { .. }))
            .map(|e| e.at.as_secs_f64())
            .collect();
        assert_eq!(starts.len() as u64, r.task_executions);
        // VM boot delays the first start past 120 s.
        let earliest = starts.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            earliest >= 120.0 - 1e-9,
            "{}: first start {earliest}",
            mode.label()
        );
        // Hourly CPU billing: a whole number of node-hours.
        let hours = r.costs.cpu.dollars() / 0.10;
        assert!((hours - hours.round()).abs() < 1e-9, "{hours} node-hours");
    }
}

#[test]
fn kitchen_sink_is_deterministic() {
    let wf = montage_1_degree();
    let cfg = kitchen_sink(DataMode::DynamicCleanup);
    assert_eq!(simulate(&wf, &cfg), simulate(&wf, &cfg));
}

#[test]
fn extensions_degrade_gracefully_to_baseline() {
    // Turning every extension off must reproduce the plain run exactly.
    let wf = montage_1_degree();
    let plain = simulate(&wf, &ExecConfig::fixed(8));
    let explicit = ExecConfig::fixed(8)
        .with_vm_overhead(VmOverhead::NONE)
        .with_policy(SchedulePolicy::FifoById)
        .with_granularity(ChargeGranularity::Exact);
    assert_eq!(plain, simulate(&wf, &explicit));
}
