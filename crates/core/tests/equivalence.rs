//! Output-equivalence guarantees behind the hot-path optimisations.
//!
//! The engine's allocation-free event loop (CSR adjacency walks, sink-gated
//! trace construction, the bytes-keyed storage-blocked heap) must be
//! invisible from the outside: the same workflow and config always produce
//! the same report and the same full event trace, traced or untraced,
//! rebuilt or reused, in every data mode, with faults striking mid-run.

use mcloud_core::{
    simulate, simulate_traced, trace_to_jsonl, DataMode, ExecConfig, FaultModel, RetryPolicy,
};
use mcloud_dag::{FileId, Workflow, WorkflowBuilder};
use mcloud_montage::{generate, MosaicConfig};
use mcloud_simkit::SimRng;

fn workflow() -> Workflow {
    generate(&MosaicConfig::new(0.5))
}

/// A config that exercises retries and fault bookkeeping in `mode`.
fn faulty(mode: DataMode) -> ExecConfig {
    ExecConfig::on_demand(mode)
        .with_fault_model(FaultModel::tasks_only(0.2, 0xEC_2008))
        .with_retry(RetryPolicy::bounded(8))
}

/// Repeated runs are bit-identical in every mode: same report, same trace.
#[test]
fn repeated_runs_are_identical_in_all_modes_with_faults() {
    let wf = workflow();
    for mode in DataMode::ALL {
        let cfg = faulty(mode);
        let (report_a, sink_a) = simulate_traced(&wf, &cfg);
        let (report_b, sink_b) = simulate_traced(&wf, &cfg);
        assert_eq!(report_a, report_b, "{mode:?}: report drifted across runs");
        assert_eq!(
            trace_to_jsonl(&wf, sink_a.events()),
            trace_to_jsonl(&wf, sink_b.events()),
            "{mode:?}: trace drifted across runs"
        );
        assert!(report_a.events_processed > 0, "{mode:?}: counter dead");
    }
}

/// The untraced fast path (NullSink, trace construction compiled away by
/// the sink gate) reports exactly what the traced run reports.
#[test]
fn untraced_and_traced_runs_agree_in_all_modes_with_faults() {
    let wf = workflow();
    for mode in DataMode::ALL {
        let cfg = faulty(mode);
        let untraced = simulate(&wf, &cfg);
        let (traced, sink) = simulate_traced(&wf, &cfg);
        assert_eq!(untraced, traced, "{mode:?}: sink gating changed results");
        assert!(
            !sink.events().is_empty(),
            "{mode:?}: traced run recorded nothing"
        );
    }
}

/// Regenerating the workflow from the same spec yields the same outputs:
/// nothing in the report depends on allocation addresses or construction
/// history.
#[test]
fn rebuilt_workflow_simulates_identically() {
    let wf_a = workflow();
    let wf_b = workflow();
    for mode in DataMode::ALL {
        let cfg = faulty(mode);
        let (report_a, sink_a) = simulate_traced(&wf_a, &cfg);
        let (report_b, sink_b) = simulate_traced(&wf_b, &cfg);
        assert_eq!(report_a, report_b, "{mode:?}: rebuild changed the report");
        assert_eq!(
            trace_to_jsonl(&wf_a, sink_a.events()),
            trace_to_jsonl(&wf_b, sink_b.events()),
            "{mode:?}: rebuild changed the trace"
        );
    }
}

/// The fault settings the batch-path matrix crosses with every plan.
#[derive(Debug, Clone, Copy)]
enum Faults {
    None,
    TasksOnly,
    Transfers,
}

/// Every plan of the batch-path matrix for `mode` under `faults`: fixed
/// or on-demand provisioning, prestaged inputs, a duplex link, storage
/// outages, and retries with or without backoff, each on and off.
fn batch_matrix(mode: DataMode, faults: Faults) -> Vec<ExecConfig> {
    let mut plans = Vec::new();
    for bits in 0..32u32 {
        let on = |i: u32| bits >> i & 1 == 1;
        let mut cfg = if on(0) {
            ExecConfig::fixed(4).mode(mode)
        } else {
            ExecConfig::on_demand(mode)
        };
        cfg = cfg.prestaged(on(1));
        if on(2) {
            cfg = cfg.with_duplex_link();
        }
        if on(3) {
            cfg = cfg.with_outage(120.0, 900.0).with_outage(4_000.0, 300.0);
        }
        if on(4) {
            cfg = cfg.with_retry(RetryPolicy::bounded(6));
        }
        let seed = 0xBA7C_0000 ^ u64::from(bits);
        cfg.faults = match faults {
            Faults::None => None,
            Faults::TasksOnly => Some(FaultModel::tasks_only(0.15, seed)),
            Faults::Transfers => Some(FaultModel {
                task_failure_prob: 0.05,
                transfer_failure_prob: 0.1,
                proc_mttf_s: 0.0,
                seed,
            }),
        };
        plans.push(cfg);
    }
    plans
}

/// A seeded random layered DAG whose tasks read one to four files (shared
/// intermediates and external inputs mixed) and write one to three, so
/// remote-I/O batches of every small size occur.
fn random_workflow(seed: u64) -> Workflow {
    let mut rng = SimRng::new(seed);
    let mut b = WorkflowBuilder::new("batch");
    let mut produced: Vec<FileId> = Vec::new();
    let mut n = 0u64;
    for layer in 0..1 + rng.below(4) {
        let mut outputs_of_layer = Vec::new();
        for _ in 0..1 + rng.below(5) {
            let mut inputs: Vec<FileId> = Vec::new();
            for _ in 0..1 + rng.below(4) {
                let f = if produced.is_empty() || rng.chance(0.3) {
                    n += 1;
                    b.file(format!("ext{n}"), rng.below(40_000_000))
                } else {
                    produced[rng.below(produced.len() as u64) as usize]
                };
                if !inputs.contains(&f) {
                    inputs.push(f);
                }
            }
            let outputs: Vec<FileId> = (0..1 + rng.below(3))
                .map(|_| {
                    n += 1;
                    b.file(format!("out{n}"), rng.below(30_000_000))
                })
                .collect();
            let runtime = 1.0 + rng.below(2_000) as f64 / 10.0;
            b.add_task(format!("t{layer}_{n}"), "m", runtime, &inputs, &outputs)
                .unwrap();
            outputs_of_layer.extend(outputs);
        }
        produced.extend(outputs_of_layer);
    }
    b.build().unwrap()
}

/// Untraced remote-I/O runs whose transfers draw no fault numbers deliver
/// one completion event per task stage-in and stage-out (payload-free
/// queue markers stand in for the rest); traced runs, and runs with
/// transfer faults, deliver one per transfer. Both must report exactly
/// the same, kernel queue counters and `events_processed` included, in
/// every mode and across the plan matrix. (The fault-injecting test above
/// only covers unbatched runs.)
#[test]
fn batched_and_per_transfer_runs_report_the_same() {
    let mut workflows: Vec<(String, Workflow)> = [0.5, 1.0, 2.0]
        .iter()
        .map(|&deg| (format!("{deg} deg"), generate(&MosaicConfig::new(deg))))
        .collect();
    for case in 0..12u64 {
        let seed = 0xBA7C_0DA6 ^ case;
        workflows.push((format!("random dag {seed:#x}"), random_workflow(seed)));
    }
    for (name, wf) in &workflows {
        for mode in DataMode::ALL {
            for faults in [Faults::None, Faults::TasksOnly, Faults::Transfers] {
                for cfg in batch_matrix(mode, faults) {
                    let batched = simulate(wf, &cfg);
                    let (per_transfer, _) = simulate_traced(wf, &cfg);
                    assert_eq!(
                        batched, per_transfer,
                        "{name}, {mode:?}, {faults:?}: batching changed the report of {cfg:?}"
                    );
                }
            }
        }
    }
}
