//! Warm-scratch, prepared-workflow and batch simulation are
//! byte-identical to fresh runs.
//!
//! The batch-throughput machinery (`SimScratch` reuse, one
//! `PreparedWorkflow` shared by many runs, `BatchScratch` lanes, the
//! persistent worker pool) must be invisible from the outside: every data
//! mode, every paper-sized mosaic, with and without faults, produces the
//! same report and the same JSONL event trace whether the engine runs on
//! fresh buffers and tables, a warm scratch that just finished a different
//! workload, a prepared workflow that already served other configurations,
//! or a pool lane of any width.

use mcloud_core::{
    simulate, simulate_batch, simulate_batch_on, simulate_batch_workflows, simulate_prepared,
    simulate_prepared_with_sink, simulate_traced, simulate_with_sink, trace_to_jsonl, BatchScratch,
    DataMode, ExecConfig, FaultModel, IncrementalChain, PreparedWorkflow, RetryPolicy,
    SchedulePolicy, SimScratch, VmOverhead,
};
use std::panic::{self, AssertUnwindSafe};

use mcloud_dag::Workflow;
use mcloud_montage::{generate, MosaicConfig};
use mcloud_simkit::{RecordingSink, SimRng, WorkerPool};

fn config(mode: DataMode, faults: bool) -> ExecConfig {
    let cfg = ExecConfig::on_demand(mode);
    if faults {
        cfg.with_fault_model(FaultModel::tasks_only(0.2, 0xEC_2008))
            .with_retry(RetryPolicy::bounded(8))
    } else {
        cfg
    }
}

/// Every combination this file sweeps: all three data modes, faults off
/// and on.
fn all_configs() -> Vec<ExecConfig> {
    let mut out = Vec::new();
    for faults in [false, true] {
        for mode in DataMode::ALL {
            out.push(config(mode, faults));
        }
    }
    out
}

/// One scratch carried across every mode x size x fault combination: each
/// reset must leave no residue from the previous (different-shaped) run,
/// and the warm report and full JSONL trace must equal the fresh ones
/// byte for byte.
#[test]
fn warm_scratch_matches_fresh_runs_across_modes_sizes_and_faults() {
    let mut scratch = SimScratch::new();
    for degrees in [1.0, 2.0, 4.0] {
        let wf = generate(&MosaicConfig::new(degrees));
        for cfg in all_configs() {
            let fresh = simulate(&wf, &cfg);
            let prep = PreparedWorkflow::new(&wf);
            let warm = simulate_prepared(&prep, &cfg, &mut scratch);
            assert_eq!(fresh, warm, "{degrees}deg {cfg:?}: warm report drifted");

            let mut fresh_sink = RecordingSink::new();
            let fresh_traced = simulate_with_sink(&wf, &cfg, &mut fresh_sink);
            let mut warm_sink = RecordingSink::new();
            let warm_traced =
                simulate_prepared_with_sink(&prep, &cfg, &mut warm_sink, &mut scratch);
            assert_eq!(fresh_traced, warm_traced, "{degrees}deg: traced report");
            assert_eq!(
                trace_to_jsonl(&wf, fresh_sink.events()),
                trace_to_jsonl(&wf, warm_sink.events()),
                "{degrees}deg {cfg:?}: warm trace drifted"
            );
        }
    }
}

/// `simulate_batch` returns exactly what a sequential loop of fresh
/// `simulate` calls returns, in input order.
#[test]
fn batch_matches_sequential_simulation() {
    let wf = generate(&MosaicConfig::new(1.0));
    let cfgs = all_configs();
    let expected: Vec<_> = cfgs.iter().map(|c| simulate(&wf, c)).collect();
    let got = simulate_batch(&wf, &cfgs, &mut BatchScratch::new());
    assert_eq!(expected, got);
}

/// Batch output is independent of the pool width (and therefore of the
/// chunking, which varies with the lane count): 1 through 4 lanes all
/// reproduce the inline result, cold and warm.
#[test]
fn batch_output_is_independent_of_worker_count_and_chunking() {
    let wf = generate(&MosaicConfig::new(1.0));
    // Seven configs: not a multiple of any lane count, so chunk boundaries
    // land differently at every pool width.
    let mut cfgs = all_configs();
    cfgs.push(config(DataMode::Regular, true).with_retry(RetryPolicy::bounded(3)));
    assert_eq!(cfgs.len(), 7);

    let reference = simulate_batch_on(&WorkerPool::new(1), &wf, &cfgs, &mut BatchScratch::new());
    for lanes in 2..=4 {
        let pool = WorkerPool::new(lanes);
        let mut scratch = BatchScratch::new();
        let cold = simulate_batch_on(&pool, &wf, &cfgs, &mut scratch);
        assert_eq!(reference, cold, "{lanes} lanes, cold scratch");
        let warm = simulate_batch_on(&pool, &wf, &cfgs, &mut scratch);
        assert_eq!(reference, warm, "{lanes} lanes, warm scratch");
    }
}

/// The one-config-many-workflows form agrees with sequential simulation
/// too (the CCR sweep rides on it).
#[test]
fn workflow_batch_matches_sequential_simulation() {
    let wfs: Vec<Workflow> = [0.5, 1.0, 2.0]
        .iter()
        .map(|&d| generate(&MosaicConfig::new(d)))
        .collect();
    let cfg = config(DataMode::Regular, true);
    let expected: Vec<_> = wfs.iter().map(|wf| simulate(wf, &cfg)).collect();
    let got = simulate_batch_workflows(&wfs, &cfg, &mut BatchScratch::new());
    assert_eq!(expected, got);
}

/// Link bandwidths the differential draws from, Mbps: a drawn sequence
/// changes bandwidth often, so link-time tables kept for one bandwidth
/// must never serve another.
const DRAW_MBPS: [f64; 5] = [2.0, 5.0, 10.0, 40.0, 100.0];

/// Draws one configuration: any mode, policy and provisioning, and each
/// of prestaged inputs, a duplex link, a storage outage, VM overhead,
/// task faults, transfer faults, preemptions and task timeouts
/// independently on or off. (Storage caps are drawn by the caller, which
/// needs the uncapped peak.)
fn draw_config(rng: &mut SimRng) -> ExecConfig {
    let mode = DataMode::ALL[rng.below(3) as usize];
    let mut cfg = if rng.chance(0.7) {
        ExecConfig::fixed(1 + rng.below(24) as u32).mode(mode)
    } else {
        ExecConfig::on_demand(mode)
    };
    cfg = cfg
        .bandwidth(DRAW_MBPS[rng.below(DRAW_MBPS.len() as u64) as usize] * 1e6)
        .prestaged(rng.chance(0.3));
    if rng.chance(0.5) {
        cfg = cfg.with_policy(SchedulePolicy::CriticalPathFirst);
    }
    if rng.chance(0.25) {
        cfg = cfg.with_duplex_link();
    }
    if rng.chance(0.2) {
        cfg = cfg.with_outage(rng.f64_in(0.0, 600.0), rng.f64_in(10.0, 300.0));
    }
    if rng.chance(0.2) {
        cfg = cfg.with_vm_overhead(VmOverhead {
            startup_s: rng.f64_in(0.0, 120.0),
            teardown_s: rng.f64_in(0.0, 60.0),
        });
    }
    let mut draw_if_on = |lo: f64, hi: f64| {
        if rng.chance(0.3) {
            rng.f64_in(lo, hi)
        } else {
            0.0
        }
    };
    let faults = FaultModel {
        task_failure_prob: draw_if_on(0.01, 0.2),
        transfer_failure_prob: draw_if_on(0.01, 0.2),
        proc_mttf_s: draw_if_on(2_000.0, 100_000.0),
        seed: rng.next_u64(),
    };
    let timeout = rng.chance(0.2);
    if faults.task_failure_prob + faults.transfer_failure_prob + faults.proc_mttf_s > 0.0 {
        cfg = cfg.with_fault_model(faults);
    }
    if cfg.faults.is_some() || timeout {
        // Small budgets run out now and then: aborted runs must match too.
        let mut retry = RetryPolicy::bounded(1 + rng.below(8) as u32);
        if timeout {
            retry.task_timeout_s = rng.f64_in(5.0, 120.0);
        }
        cfg = cfg.with_retry(retry);
    }
    cfg
}

/// Full draw in release builds; a short one in debug builds.
fn draws() -> usize {
    if cfg!(debug_assertions) {
        40
    } else {
        2000
    }
}

/// `f`'s result, or `None` if it panicked (a storage cap too small for
/// the run's schedule is refused with a panic).
fn outcome<T>(f: impl FnOnce() -> T) -> Option<T> {
    panic::catch_unwind(AssertUnwindSafe(f)).ok()
}

/// The differential for the prepared-workflow split: each workflow is
/// prepared once and driven, with one warm scratch shared by both
/// workflows, through configurations drawn in seeded order. Every run is
/// compared with a fresh traced `simulate` (new tables, new buffers, one
/// completion event per transfer): the prepared run untraced (where
/// remote-I/O transfers are batched) must report exactly the same, and
/// traced it must also emit the same JSONL. Some draws add a storage cap
/// (a run its cap deadlocks must be refused both ways) or run as a
/// bandwidth pair through an `IncrementalChain` on the same prepared
/// workflow, so a checkpoint resume is compared as well.
#[test]
fn prepared_workflow_runs_match_fresh_runs_over_drawn_configs() {
    let wfs: Vec<Workflow> = [0.5, 1.0]
        .iter()
        .map(|&d| generate(&MosaicConfig::new(d)))
        .collect();
    let preps: Vec<PreparedWorkflow> = wfs.iter().map(PreparedWorkflow::new).collect();
    let mut chains: Vec<IncrementalChain> = wfs.iter().map(|_| IncrementalChain::new()).collect();
    let mut scratch = SimScratch::new();
    let mut rng = SimRng::new(0x9E9A_2008);
    let (mut capped, mut refused, mut aborted) = (0, 0, 0);
    for draw in 0..draws() {
        let w = rng.below(wfs.len() as u64) as usize;
        let (wf, prep) = (&wfs[w], &preps[w]);
        let mut cfg = draw_config(&mut rng);
        if cfg.mode != DataMode::RemoteIo && rng.chance(0.2) {
            // A little above the uncapped peak: dynamic cleanup blocks
            // now and then, and a changed schedule may still deadlock.
            let peak = simulate(wf, &cfg).storage_peak_bytes;
            cfg = cfg.with_storage_capacity((peak * rng.f64_in(1.0, 1.2)) as u64);
            capped += 1;
        }
        let label = format!("draw {draw} ({} tasks): {cfg:?}", wf.num_tasks());
        let want = outcome(|| {
            let (report, sink) = simulate_traced(wf, &cfg);
            (report, trace_to_jsonl(wf, sink.events()))
        });
        let got = outcome(|| simulate_prepared(prep, &cfg, &mut scratch));
        assert_eq!(
            got.as_ref(),
            want.as_ref().map(|(r, _)| r),
            "{label}: untraced prepared run drifted"
        );
        let got = outcome(|| {
            let mut sink = RecordingSink::new();
            let report = simulate_prepared_with_sink(prep, &cfg, &mut sink, &mut scratch);
            (report, trace_to_jsonl(wf, sink.events()))
        });
        match (&got, &want) {
            (Some((got, got_jsonl)), Some((want, want_jsonl))) => {
                assert_eq!(got, want, "{label}: traced prepared run drifted");
                assert!(got_jsonl == want_jsonl, "{label}: prepared trace drifted");
                aborted += u32::from(!want.completed);
            }
            (None, None) => refused += 1,
            _ => panic!("{label}: only one of the traced runs was refused"),
        }

        if rng.chance(0.3) {
            // A bandwidth pair with prestaged inputs: the second point
            // resumes from the first point's checkpoint.
            let first = cfg.clone().prestaged(true);
            let second = first
                .clone()
                .bandwidth(DRAW_MBPS[rng.below(DRAW_MBPS.len() as u64) as usize] * 1e6);
            let chain = &mut chains[w];
            let a = outcome(|| chain.run_point(prep, &first, Some(&second)));
            assert_eq!(
                a,
                outcome(|| simulate(wf, &first)),
                "{label}: chain point drifted"
            );
            let b = outcome(|| chain.run_point(prep, &second, None));
            assert_eq!(
                b,
                outcome(|| simulate(wf, &second)),
                "{label}: resumed point drifted"
            );
        }
    }
    let resumed: u64 = chains.iter().map(|c| c.stats().resumed).sum();
    assert!(resumed > 0, "no drawn pair resumed from a checkpoint");
    assert!(capped > 0, "no draw had a storage cap");
    if !cfg!(debug_assertions) {
        assert!(aborted > 0, "no drawn run exhausted its retry budget");
        assert!(refused > 0, "no drawn storage cap deadlocked");
    }
}
