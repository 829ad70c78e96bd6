//! Golden telemetry exposition: the canonical 1-degree fault scenario's
//! `--metrics-out` dump is pinned to the byte. Every metric in it is
//! event-derived ([`MetricClass::Deterministic`]), so the file must be
//! identical across runs, machines, and `MCLOUD_WORKERS` settings. The
//! tests here derive it in-process through [`run`]; the golden table in
//! `tests/goldens.rs` derives it through the `mcloud` binary at one and
//! four worker lanes. Regenerate after an *intentional* telemetry change
//! with `MCLOUD_UPDATE_GOLDEN=1` and review the diff.
//!
//! [`MetricClass::Deterministic`]: mcloud_simkit::MetricClass::Deterministic

use std::path::PathBuf;

use mcloud_cli::run;

/// The fault scenario pinned by the engine's own golden trace
/// (`trace_1deg_faults.jsonl` in mcloud-core): every fault axis enabled,
/// paper-era seed.
const SCENARIO: &str = "--degrees 1 --procs 8 --fault-rate 0.05 \
     --transfer-fault-rate 0.05 --mttf 5000 --retry-max 3 --fault-seed 2008";

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn run_str(cmdline: &str) -> Result<String, String> {
    let argv: Vec<String> = cmdline.split_whitespace().map(String::from).collect();
    run(&argv)
}

fn metrics_of(scenario: &str, file: &str) -> String {
    let out = std::env::temp_dir().join(file);
    let summary = run_str(&format!(
        "simulate {scenario} --metrics-out {}",
        out.display()
    ))
    .unwrap();
    assert!(summary.contains("metrics"), "{summary}");
    let doc = std::fs::read_to_string(&out).unwrap();
    std::fs::remove_file(&out).ok();
    doc
}

#[test]
fn golden_metrics_exposition_for_the_fault_scenario() {
    let actual = metrics_of(SCENARIO, "mcloud_golden_metrics.prom");
    let path = golden_path("metrics_faults_1deg.prom");
    if std::env::var_os("MCLOUD_UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with MCLOUD_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if expected != actual {
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(e, a, "golden metrics diverge at line {}", i + 1);
        }
        assert_eq!(
            expected.lines().count(),
            actual.lines().count(),
            "golden metrics: line count changed"
        );
        panic!("golden metrics differ only in trailing bytes");
    }
}

#[test]
fn metrics_exposition_is_deterministic_across_runs() {
    assert_eq!(
        metrics_of(SCENARIO, "mcloud_metrics_a.prom"),
        metrics_of(SCENARIO, "mcloud_metrics_b.prom")
    );
}

#[test]
fn metrics_out_supports_the_json_snapshot() {
    let doc = metrics_of(SCENARIO, "mcloud_metrics.json");
    assert!(doc.starts_with('{'), "{doc}");
    assert!(doc.contains("\"mcloud_kernel_queue_pops_total\""), "{doc}");
    assert!(doc.contains("\"mcloud_run_makespan_hours\""), "{doc}");
}

#[test]
fn sweep_table_carries_kernel_counters() {
    let out = run_str("sweep --degrees 0.5 --max-procs 8").unwrap();
    assert!(out.contains("pops"), "{out}");
    assert!(out.contains("peak-pend"), "{out}");
    // One ladder row per power of two, header + rule included.
    assert_eq!(out.lines().count(), 2 + 4, "{out}");
    // And the sweep is deterministic.
    assert_eq!(out, run_str("sweep --degrees 0.5 --max-procs 8").unwrap());
}
