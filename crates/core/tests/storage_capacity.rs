//! Storage-constrained execution: the setting that motivates dynamic
//! cleanup (the paper's "Scheduling Data-Intensive Workflows onto
//! Storage-Constrained Distributed Resources" lineage).

use mcloud_core::{simulate, DataMode, ExecConfig, FaultModel};
use mcloud_dag::{Workflow, WorkflowBuilder};
use mcloud_montage::montage_1_degree;

const MB: u64 = 1_000_000;

/// Two independent 2-task chains; every file 10 MB.
fn two_chains() -> Workflow {
    let mut b = WorkflowBuilder::new("chains");
    for c in 0..2 {
        let input = b.file(format!("in{c}"), 10 * MB);
        let mid = b.file(format!("mid{c}"), 10 * MB);
        let out = b.file(format!("out{c}"), 10 * MB);
        b.add_task(format!("a{c}"), "m", 100.0, &[input], &[mid])
            .unwrap();
        b.add_task(format!("b{c}"), "m", 100.0, &[mid], &[out])
            .unwrap();
    }
    b.build().unwrap()
}

#[test]
fn unlimited_capacity_is_the_default_baseline() {
    let wf = two_chains();
    let plain = simulate(&wf, &ExecConfig::on_demand(DataMode::DynamicCleanup));
    let roomy = simulate(
        &wf,
        &ExecConfig::on_demand(DataMode::DynamicCleanup).with_storage_capacity(1_000 * MB),
    );
    assert_eq!(plain.makespan, roomy.makespan);
    assert_eq!(plain.bytes_in, roomy.bytes_in);
}

#[test]
fn tight_capacity_serializes_under_cleanup() {
    // Peak demand with everything parallel: 2 inputs + 2 mids + 2 outs.
    // Cap the store so only one chain's worth of files fits at a time:
    // cleanup mode can still finish by freeing files as it goes.
    let wf = two_chains();
    let cfg = ExecConfig::on_demand(DataMode::DynamicCleanup).with_storage_capacity(35 * MB);
    let constrained = simulate(&wf, &cfg);
    let free = simulate(&wf, &ExecConfig::on_demand(DataMode::DynamicCleanup));
    assert!(constrained.makespan >= free.makespan);
    assert!(constrained.storage_peak_bytes <= 35e6 + 1.0);
    // Same work gets done.
    assert_eq!(constrained.bytes_in, free.bytes_in);
    assert_eq!(constrained.bytes_out, free.bytes_out);
}

#[test]
#[should_panic(expected = "storage capacity")]
fn regular_mode_deadlocks_where_cleanup_survives() {
    // Regular mode never frees anything mid-run, so a cap below its total
    // footprint (6 files x 10 MB) cannot complete...
    let wf = two_chains();
    simulate(
        &wf,
        &ExecConfig::on_demand(DataMode::Regular).with_storage_capacity(45 * MB),
    );
}

#[test]
#[should_panic(expected = "raise the capacity; DynamicCleanup already frees")]
fn a_deadlocked_cleanup_run_is_not_told_to_use_cleanup() {
    // One chain's input plus its first output (20 MB) exceeds the cap, so
    // no task can start even though cleanup frees files as it goes.
    let wf = two_chains();
    simulate(
        &wf,
        &ExecConfig::on_demand(DataMode::DynamicCleanup).with_storage_capacity(15 * MB),
    );
}

#[test]
fn cleanup_completes_at_the_same_cap_where_regular_deadlocks() {
    // ...while cleanup completes comfortably at the same cap — the whole
    // argument for the mode, made executable.
    let wf = two_chains();
    let r = simulate(
        &wf,
        &ExecConfig::on_demand(DataMode::DynamicCleanup).with_storage_capacity(45 * MB),
    );
    assert!(r.storage_peak_bytes <= 45e6 + 1.0);
    assert_eq!(r.bytes_out, 20 * MB);
}

#[test]
fn montage_minimum_footprint_gap() {
    // On the real 1-degree workload: find caps between the two modes'
    // peaks and check cleanup fits where regular cannot.
    let wf = montage_1_degree();
    let reg = simulate(&wf, &ExecConfig::on_demand(DataMode::Regular));
    let clean = simulate(&wf, &ExecConfig::on_demand(DataMode::DynamicCleanup));
    assert!(clean.storage_peak_bytes < reg.storage_peak_bytes);
    let cap = ((clean.storage_peak_bytes + reg.storage_peak_bytes) / 2.0) as u64;
    let constrained = simulate(
        &wf,
        &ExecConfig::on_demand(DataMode::DynamicCleanup).with_storage_capacity(cap),
    );
    assert!(constrained.storage_peak_bytes <= cap as f64 + 1.0);
    let res = std::panic::catch_unwind(|| {
        simulate(
            &wf,
            &ExecConfig::on_demand(DataMode::Regular).with_storage_capacity(cap),
        )
    });
    assert!(
        res.is_err(),
        "regular mode must fail below its peak footprint"
    );
}

#[test]
fn capacity_is_ignored_for_remote_io() {
    // Remote I/O working sets live on node-local scratch in this model;
    // the shared-store cap does not bind.
    let wf = two_chains();
    let r = simulate(
        &wf,
        &ExecConfig::on_demand(DataMode::RemoteIo).with_storage_capacity(1),
    );
    // Every task output bounces through the user site: 2 chains x 2 files.
    assert_eq!(r.bytes_out, 40 * MB);
}

/// A cap that blocks every remaining task ends the run with the capacity
/// error even while preemptions are armed: with nothing else pending, the
/// preemption chain dies out instead of striking idle processors forever.
#[test]
#[should_panic(expected = "is insufficient")]
fn a_deadlocked_cap_ends_the_run_under_preemptions() {
    let wf = two_chains();
    let faults = FaultModel {
        task_failure_prob: 0.0,
        transfer_failure_prob: 0.0,
        proc_mttf_s: 5_000.0,
        seed: 7,
    };
    // Each first task's output fits; the chains' second outputs never do.
    let cfg = ExecConfig::fixed(2)
        .with_storage_capacity(45 * MB)
        .with_fault_model(faults);
    simulate(&wf, &cfg);
}
