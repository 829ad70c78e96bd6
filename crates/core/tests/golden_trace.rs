//! Golden-trace tests: the engine's event narration is part of its
//! contract.
//!
//! The JSONL export of the paper's 1-degree workflow is pinned to the
//! byte under each data-management mode (`tests/golden/*.jsonl`). Any
//! engine change that moves an event, a timestamp, or a byte count shows
//! up here as a diff. These tests derive the goldens through the library;
//! the golden table in `crates/cli/tests/goldens.rs` derives the same
//! files through the `mcloud` binary at one and four worker lanes. To
//! regenerate after an *intentional* semantic change, run with
//! `MCLOUD_UPDATE_GOLDEN=1` and review the diff.

use std::path::PathBuf;

use mcloud_core::{
    simulate, simulate_traced, trace_to_chrome, trace_to_jsonl, DataMode, ExecConfig, FaultModel,
    RetryPolicy,
};
use mcloud_montage::montage_1_degree;
use mcloud_simkit::{json, SimTime};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("MCLOUD_UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with MCLOUD_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if expected != actual {
        // Locate the first differing line for a readable failure.
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(e, a, "golden {name} diverges at line {}", i + 1);
        }
        assert_eq!(
            expected.lines().count(),
            actual.lines().count(),
            "golden {name}: line count changed"
        );
        panic!("golden {name} differs only in trailing bytes");
    }
}

fn mode_file(mode: DataMode) -> String {
    format!("trace_1deg_{}.jsonl", mode.label().replace('-', "_"))
}

#[test]
fn golden_jsonl_1deg_per_mode() {
    let wf = montage_1_degree();
    for mode in DataMode::ALL {
        let (_, sink) = simulate_traced(&wf, &ExecConfig::on_demand(mode));
        check_golden(&mode_file(mode), &trace_to_jsonl(&wf, sink.events()));
    }
}

/// The CI reliability gate's scenario: all three fault axes on, bounded
/// retries, seed 2008 (`mcloud simulate --fault-rate 0.05
/// --transfer-fault-rate 0.05 --mttf 5000 --retry-max 3 --fault-seed 2008`).
fn fault_scenario() -> ExecConfig {
    ExecConfig {
        faults: Some(FaultModel {
            task_failure_prob: 0.05,
            transfer_failure_prob: 0.05,
            proc_mttf_s: 5_000.0,
            seed: 2008,
        }),
        ..ExecConfig::fixed(8).with_retry(RetryPolicy::bounded(3))
    }
}

#[test]
fn golden_jsonl_1deg_faults() {
    let wf = montage_1_degree();
    let (report, sink) = simulate_traced(&wf, &fault_scenario());
    assert!(report.completed, "the golden scenario survives its budget");
    let jsonl = trace_to_jsonl(&wf, sink.events());
    // Every fault-event kind appears in the pinned narration.
    for needle in [
        r#""ev":"task_failed""#,
        r#""ev":"task_retried""#,
        r#""ev":"processor_preempted""#,
        r#""ev":"transfer_failed""#,
    ] {
        assert!(jsonl.contains(needle), "golden trace lacks {needle}");
    }
    check_golden("trace_1deg_faults.jsonl", &jsonl);
}

#[test]
fn exports_are_byte_identical_across_runs() {
    let wf = montage_1_degree();
    for mode in DataMode::ALL {
        let cfg = ExecConfig::on_demand(mode);
        let (ra, a) = simulate_traced(&wf, &cfg);
        let (rb, b) = simulate_traced(&wf, &cfg);
        assert_eq!(ra, rb);
        assert_eq!(
            trace_to_jsonl(&wf, a.events()),
            trace_to_jsonl(&wf, b.events()),
            "{mode:?} jsonl"
        );
        assert_eq!(
            trace_to_chrome(&wf, a.events()),
            trace_to_chrome(&wf, b.events()),
            "{mode:?} chrome"
        );
    }
}

#[test]
fn counters_reproduce_report_aggregates_exactly() {
    let wf = montage_1_degree();
    let configs = [
        ExecConfig::on_demand(DataMode::RemoteIo),
        ExecConfig::on_demand(DataMode::Regular),
        ExecConfig::on_demand(DataMode::DynamicCleanup),
        ExecConfig::fixed(1),
        ExecConfig::fixed(8).mode(DataMode::DynamicCleanup),
        ExecConfig::fixed(128),
    ];
    for cfg in &configs {
        let (report, sink) = simulate_traced(&wf, cfg);
        let c = sink.counters();
        // Transfer aggregates: exact integer equality.
        assert_eq!(c.bytes_in, report.bytes_in, "{cfg:?}");
        assert_eq!(c.bytes_out, report.bytes_out, "{cfg:?}");
        assert_eq!(c.transfers_in, report.transfers_in, "{cfg:?}");
        assert_eq!(c.transfers_out, report.transfers_out, "{cfg:?}");
        // Task counts.
        assert_eq!(c.tasks_started, report.task_executions, "{cfg:?}");
        assert_eq!(c.tasks_failed, report.failed_attempts, "{cfg:?}");
        // Storage byte-seconds: the sink replays alloc/free deltas through
        // the same integrator the engine uses, so the integral is
        // bit-identical, not just close.
        let end = SimTime::ZERO + report.makespan;
        assert_eq!(
            sink.storage_byte_seconds(end).to_bits(),
            report.storage_byte_seconds.to_bits(),
            "{cfg:?}"
        );
        // Peak occupancy, also bit-exact.
        assert_eq!(
            sink.storage_peak_bytes().to_bits(),
            report.storage_peak_bytes.to_bits(),
            "{cfg:?}"
        );
    }
}

#[test]
fn jsonl_event_sums_reproduce_report() {
    // Independent of the counters: parse the exported text itself and sum
    // per-event fields, proving the *serialized* trace carries the full
    // story. Covers bytes in/out, transfer counts, and task executions.
    let wf = montage_1_degree();
    let (report, sink) = simulate_traced(&wf, &ExecConfig::on_demand(DataMode::Regular));
    let jsonl = trace_to_jsonl(&wf, sink.events());

    let field = |line: &str, key: &str| json::parse(line).ok()?.get(key)?.as_u64();

    let (mut bytes_in, mut bytes_out, mut n_in, mut n_out, mut execs) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for line in jsonl.lines() {
        if line.contains(r#""ev":"transfer_completed""#) {
            let b = field(line, "bytes").unwrap();
            if line.contains(r#""chan":"in""#) {
                bytes_in += b;
                n_in += 1;
            } else {
                bytes_out += b;
                n_out += 1;
            }
        } else if line.contains(r#""ev":"task_finished""#) {
            execs += 1;
        }
    }
    assert_eq!(bytes_in, report.bytes_in);
    assert_eq!(bytes_out, report.bytes_out);
    assert_eq!(n_in, report.transfers_in);
    assert_eq!(n_out, report.transfers_out);
    assert_eq!(execs, report.task_executions);
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // The sink is an observer: a traced run and a silent run produce the
    // same report (modulo the legacy span recording, which neither uses).
    let wf = montage_1_degree();
    for mode in DataMode::ALL {
        let cfg = ExecConfig::on_demand(mode);
        let (traced, _) = simulate_traced(&wf, &cfg);
        let silent = simulate(&wf, &cfg);
        assert_eq!(traced, silent, "{mode:?}");
    }
}
