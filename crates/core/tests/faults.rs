//! Recovery semantics under injected faults: dead-lettering, retry
//! budgets, jittered backoff determinism, and preemption striking while
//! transfers are in flight.

use mcloud_core::{
    simulate, simulate_traced, trace_from_jsonl, trace_to_jsonl, DataMode, ExecConfig, FaultModel,
    RetryPolicy,
};
use mcloud_montage::{generate, MosaicConfig};
use mcloud_simkit::json;

fn half_degree() -> mcloud_dag::Workflow {
    generate(&MosaicConfig::new(0.5))
}

/// Integer member `key` of one JSONL trace line.
fn field(line: &str, key: &str) -> Option<u64> {
    json::parse(line).ok()?.get(key)?.as_u64()
}

#[test]
fn zero_retry_budget_dead_letters_on_the_first_fault() {
    let wf = half_degree();
    let cfg = ExecConfig::fixed(4)
        .with_fault_model(FaultModel::tasks_only(0.3, 2008))
        .with_retry(RetryPolicy::bounded(0));
    let r = simulate(&wf, &cfg);
    assert!(!r.completed, "a 30% rate must strike this DAG");
    assert_eq!(r.retries, 0, "Some(0) means no second chances");
    assert!(r.failed_attempts >= 1);
    assert!(r.tasks_completed < wf.num_tasks() as u64);
    assert!(r.wasted_cpu_seconds > 0.0, "the doomed attempt was billed");
    // The partial report still carries the bill for what did run.
    assert!(r.total_cost().dollars() > 0.0);
    assert!(r.makespan_hours() > 0.0);
}

#[test]
fn retry_budget_exhausts_mid_dag_and_reports_partial_progress() {
    let wf = half_degree();
    let cfg = ExecConfig::fixed(4)
        .with_fault_model(FaultModel::tasks_only(0.6, 11))
        .with_retry(RetryPolicy::bounded(1));
    let r = simulate(&wf, &cfg);
    assert!(!r.completed);
    // The abort happened mid-DAG: real progress on both sides of it.
    assert!(r.tasks_completed > 0, "some tasks finished first");
    assert!(r.tasks_completed < wf.num_tasks() as u64);
    assert!(r.retries >= 1, "the budget was spent before the abort");
    // Partial runs reconcile like complete ones: every attempt billed.
    assert!(r.wasted_cpu_seconds > 0.0);
    assert!(r.task_executions >= r.tasks_completed + r.failed_attempts);
}

#[test]
fn jittered_backoff_is_deterministic_across_engines_with_one_seed() {
    let wf = half_degree();
    let cfg = ExecConfig::fixed(4)
        .with_fault_model(FaultModel::tasks_only(0.2, 7))
        .with_retry(RetryPolicy::bounded(5));
    let (ra, sa) = simulate_traced(&wf, &cfg);
    let (rb, sb) = simulate_traced(&wf, &cfg);
    assert_eq!(ra, rb, "two engines, one seed: identical reports");
    let jsonl = trace_to_jsonl(&wf, sa.events());
    assert_eq!(jsonl, trace_to_jsonl(&wf, sb.events()), "identical traces");

    // Jitter draws stay inside the policy envelope: base 30 s doubling to
    // a 300 s cap, +/-50% jitter, so any delay lies in [15 s, 450 s].
    let delays: Vec<u64> = jsonl
        .lines()
        .filter(|l| l.contains(r#""ev":"task_retried""#))
        .map(|l| field(l, "delay_us").unwrap())
        .collect();
    assert!(!delays.is_empty(), "a 20% rate must trigger retries");
    for d in &delays {
        assert!((15_000_000..=450_000_000).contains(d), "delay {d} us");
    }
    // The jitter is real: not every delay collapses to one value.
    assert!(delays.iter().any(|d| d != &delays[0]), "{delays:?}");

    // A different seed moves the draws.
    let other = ExecConfig::fixed(4)
        .with_fault_model(FaultModel::tasks_only(0.2, 8))
        .with_retry(RetryPolicy::bounded(5));
    let (_, sc) = simulate_traced(&wf, &other);
    assert_ne!(jsonl, trace_to_jsonl(&wf, sc.events()));
}

#[test]
fn preemption_strikes_during_an_in_flight_transfer_without_corruption() {
    let wf = half_degree();
    // Preemption only, in remote-io mode on a slow link: every task reads
    // and writes over the wire while it runs, so the link carries traffic
    // for most of the makespan and strikes land mid-transfer.
    let cfg = ExecConfig {
        faults: Some(FaultModel {
            task_failure_prob: 0.0,
            transfer_failure_prob: 0.0,
            proc_mttf_s: 500.0,
            seed: 2008,
        }),
        ..ExecConfig::fixed(2)
            .mode(DataMode::RemoteIo)
            .bandwidth(2e6)
            .with_retry(RetryPolicy::bounded(50))
    };
    let (r, sink) = simulate_traced(&wf, &cfg);
    assert!(r.completed, "preemptions delay, not doom, this run");
    assert!(r.preemptions > 0, "MTTF 500 s must strike");
    assert_eq!(r.transfer_failures, 0, "transfer faults are off");

    let jsonl = trace_to_jsonl(&wf, sink.events());
    // At least one preemption lands strictly inside a granted transfer's
    // (start, finish) window.
    let windows: Vec<(u64, u64)> = jsonl
        .lines()
        .filter(|l| l.contains(r#""ev":"transfer_granted""#))
        .map(|l| {
            (
                field(l, "start_us").unwrap(),
                field(l, "finish_us").unwrap(),
            )
        })
        .collect();
    let strikes: Vec<u64> = jsonl
        .lines()
        .filter(|l| l.contains(r#""ev":"processor_preempted""#))
        .map(|l| field(l, "t_us").unwrap())
        .collect();
    assert_eq!(strikes.len() as u64, r.preemptions);
    assert!(
        strikes
            .iter()
            .any(|t| windows.iter().any(|(s, f)| s < t && t < f)),
        "no preemption landed inside a transfer window"
    );

    // The stream stays balanced and parseable: every started task closes,
    // and the transfer ledger matches the report byte for byte.
    let parsed = trace_from_jsonl(&jsonl).expect("trace must round-trip");
    assert_eq!(parsed.len(), sink.events().len());
    let c = sink.counters();
    assert_eq!(c.tasks_started, r.task_executions);
    assert_eq!(c.tasks_failed, r.failed_attempts);
    assert_eq!(c.bytes_in, r.bytes_in);
    assert_eq!(c.bytes_out, r.bytes_out);
    // Tracing did not perturb the run.
    assert_eq!(r, simulate(&wf, &cfg));
}
