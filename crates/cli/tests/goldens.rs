//! The golden table: every committed output the `mcloud` binary
//! reproduces, re-derived byte for byte at one and at four worker lanes.
//!
//! Each [`Row`] runs one or more `mcloud` argument lists, in order, in one
//! fresh directory (so a later run sees an earlier run's files, such as
//! the serve row's disk tier), and checks the files every run produces
//! against the committed golden named for each. A file with no golden
//! must come out identical in every run of its row at both lane counts.
//! Adding a golden is adding a row.
//!
//! Regenerate after an *intentional* output change with
//! `MCLOUD_UPDATE_GOLDEN=1 cargo test -p mcloud-cli --test goldens` and
//! review the diff: the one-lane run rewrites each golden, and the
//! four-lane run must still reproduce it.

use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// One table entry. Paths in `runs` and `stdin` that start with `@` are
/// relative to the workspace root; every other path is relative to the
/// row's own directory.
struct Row {
    /// Names the row in failures and in its directory name.
    name: &'static str,
    /// Argument lists, whitespace-separated, run in order.
    runs: &'static [&'static str],
    /// Fed to every run's stdin.
    stdin: Option<&'static str>,
    /// Files each run produces (`-` is stdout), each with the workspace
    /// path of the golden it must equal, if it has one.
    files: &'static [(&'static str, Option<&'static str>)],
}

/// A trace row: the engine's event narration for one data mode, pinned
/// in `trace_1deg_$stem.jsonl`.
macro_rules! trace_row {
    ($mode:literal, $stem:literal) => {
        Row {
            name: concat!("trace-", $mode),
            runs: &[concat!(
                "trace --degrees 1 --mode ",
                $mode,
                " --out t.jsonl"
            )],
            stdin: None,
            files: &[(
                "t.jsonl",
                Some(concat!(
                    "@crates/core/tests/golden/trace_1deg_",
                    $stem,
                    ".jsonl"
                )),
            )],
        }
    };
}

/// A profile row: a fresh run and a replay of the mode's golden trace
/// must profile to the same report and chart, and to the goldens if
/// given.
macro_rules! profile_row {
    ($mode:literal, $stem:literal, $format:literal, $file:literal, $report:expr, $svg:expr) => {
        Row {
            name: concat!("profile-", $mode, "-", $format),
            runs: &[
                concat!(
                    "profile --degrees 1 --mode ",
                    $mode,
                    " --format ",
                    $format,
                    " --out ",
                    $file,
                    " --svg p.svg"
                ),
                concat!(
                    "profile --degrees 1 --mode ",
                    $mode,
                    " --trace @crates/core/tests/golden/trace_1deg_",
                    $stem,
                    ".jsonl",
                    " --format ",
                    $format,
                    " --out ",
                    $file,
                    " --svg p.svg"
                ),
            ],
            stdin: None,
            files: &[($file, $report), ("p.svg", $svg)],
        }
    };
}

/// A capacity-plan row in one rendering.
macro_rules! plan_row {
    ($format:literal, $file:literal, $golden:literal) => {
        Row {
            name: concat!("plan-", $format),
            runs: &[concat!(
                "plan --slo-p99 7 --rate 3 --horizon 168 --format ",
                $format,
                " --out ",
                $file
            )],
            stdin: None,
            files: &[($file, Some($golden))],
        }
    };
}

const PROFILE_TXT: Option<&str> = Some("@results/profile_1deg.txt");
const PROFILE_JSON: Option<&str> = Some("@results/profile_1deg.json");
const PROFILE_SVG: Option<&str> = Some("@results/profile_1deg.svg");

/// The table. Trace rows come first, so under `MCLOUD_UPDATE_GOLDEN=1`
/// the profile rows replay the traces just rewritten.
const ROWS: &[Row] = &[
    trace_row!("regular", "regular"),
    trace_row!("remote-io", "remote_io"),
    trace_row!("cleanup", "cleanup"),
    Row {
        // Every fault axis on, bounded retries, paper-era seed.
        name: "simulate-faults",
        runs: &[
            "simulate --degrees 1 --procs 8 --fault-rate 0.05 --transfer-fault-rate 0.05 \
                 --mttf 5000 --retry-max 3 --fault-seed 2008 \
                 --trace-out t.jsonl --profile-out p.txt --metrics-out m.prom",
        ],
        stdin: None,
        files: &[
            (
                "t.jsonl",
                Some("@crates/core/tests/golden/trace_1deg_faults.jsonl"),
            ),
            (
                "m.prom",
                Some("@crates/cli/tests/golden/metrics_faults_1deg.prom"),
            ),
            ("-", None),
            ("p.txt", None),
        ],
    },
    // Traced and untraced remote-I/O runs report the same metrics, kernel
    // queue counters included. Untraced, each stage-in and stage-out is
    // one delivered event (queue markers stand in for the rest); traced,
    // every transfer is. The plain run books each batch as one run on the
    // link, the outage run takes the per-transfer fallback, and the
    // prestaged run filters the archive inputs out of each batch.
    Row {
        name: "parity-remote-io",
        runs: &[
            "simulate --degrees 2 --mode remote-io --procs 8 --metrics-out m.prom",
            "simulate --degrees 2 --mode remote-io --procs 8 --metrics-out m.prom \
                 --trace-out t.jsonl",
        ],
        stdin: None,
        files: &[("m.prom", None)],
    },
    Row {
        name: "parity-remote-io-outage",
        runs: &[
            "simulate --degrees 2 --mode remote-io --procs 8 --outage 120:900 \
                 --metrics-out m.prom",
            "simulate --degrees 2 --mode remote-io --procs 8 --outage 120:900 \
                 --metrics-out m.prom --trace-out t.jsonl",
        ],
        stdin: None,
        files: &[("m.prom", None)],
    },
    Row {
        name: "parity-remote-io-prestaged",
        runs: &[
            "simulate --degrees 2 --mode remote-io --procs 8 --prestaged --metrics-out m.prom",
            "simulate --degrees 2 --mode remote-io --procs 8 --prestaged --metrics-out m.prom \
                 --trace-out t.jsonl",
        ],
        stdin: None,
        files: &[("m.prom", None)],
    },
    profile_row!(
        "regular",
        "regular",
        "text",
        "p.txt",
        PROFILE_TXT,
        PROFILE_SVG
    ),
    profile_row!(
        "regular",
        "regular",
        "json",
        "p.json",
        PROFILE_JSON,
        PROFILE_SVG
    ),
    profile_row!("remote-io", "remote_io", "text", "p.txt", None, None),
    profile_row!("remote-io", "remote_io", "json", "p.json", None, None),
    profile_row!("cleanup", "cleanup", "text", "p.txt", None, None),
    profile_row!("cleanup", "cleanup", "json", "p.json", None, None),
    plan_row!("text", "plan.txt", "@results/plan_slo.txt"),
    plan_row!("json", "plan.json", "@results/plan_slo.json"),
    Row {
        // A year of mixed diurnal and seasonal demand, ~1.03M requests,
        // in backlog-bounded memory.
        name: "service-year",
        runs: &[
            "service --horizon-hours 8760 --class 1:84:2 --class 2:28:1 --class 4:6:0 \
                 --diurnal 0.6 --seasonal 0.25 --slots 208 --queue-bound 48 \
                 --admission reject --seed 2008 --metrics-out c.prom",
        ],
        stdin: None,
        files: &[
            (
                "-",
                Some("@crates/cli/tests/golden/service_campaign_year.txt"),
            ),
            (
                "c.prom",
                Some("@crates/cli/tests/golden/service_campaign_year.prom"),
            ),
        ],
    },
    Row {
        // Progress goes to stderr, which is never compared.
        name: "sweep-progress",
        runs: &["sweep --degrees 1 --max-procs 32 --progress"],
        stdin: None,
        files: &[("-", None)],
    },
    Row {
        // Cold, then warm from the first run's disk tier. The session has
        // no `metrics` op, whose counters differ between the two.
        name: "serve-cold-then-disk-warm",
        runs: &["serve --cache-dir tier", "serve --cache-dir tier"],
        stdin: Some("@crates/cli/tests/golden/serve_session.txt"),
        files: &[("-", Some("@crates/cli/tests/golden/serve_session.out"))],
    },
];

/// Resolves an `@`-prefixed path against the workspace root.
fn resolve(arg: &str) -> String {
    match arg.strip_prefix('@') {
        Some(path) => format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR")),
        None => arg.to_string(),
    }
}

/// Runs `args` in `dir` at `lanes` worker lanes and returns its stdout.
fn run_mcloud(dir: &Path, args: &str, stdin: Option<&str>, lanes: usize) -> Vec<u8> {
    let input = match stdin {
        Some(path) => Stdio::from(std::fs::File::open(resolve(path)).expect("open stdin")),
        None => Stdio::null(),
    };
    let out = Command::new(env!("CARGO_BIN_EXE_mcloud"))
        .args(args.split_whitespace().map(resolve))
        .current_dir(dir)
        .env("MCLOUD_WORKERS", lanes.to_string())
        .env_remove("MCLOUD_CACHE_DIR")
        .env_remove("MCLOUD_CACHE_BYTES")
        .stdin(input)
        .output()
        .expect("spawn mcloud");
    assert!(
        out.status.success(),
        "mcloud {args:?} at {lanes} lanes: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Compares `actual` with `expected`, recording a failure that names
/// `what` (row, run, lane count and file) and the first differing line,
/// with the bytes around the first difference.
fn check_golden(failures: &mut Vec<String>, what: String, expected: &[u8], actual: &[u8]) {
    if expected == actual {
        return;
    }
    let at = expected
        .iter()
        .zip(actual)
        .take_while(|(e, a)| e == a)
        .count();
    let line = 1 + expected[..at].iter().filter(|&&b| b == b'\n').count();
    let near = |bytes: &[u8]| {
        let window = &bytes[at.saturating_sub(40)..(at + 40).min(bytes.len())];
        format!("{:?}", String::from_utf8_lossy(window))
    };
    failures.push(format!(
        "{what}: first difference on line {line}: expected {}, got {}",
        near(expected),
        near(actual)
    ));
}

#[test]
fn every_golden_reproduces_at_one_and_four_lanes() {
    let update = std::env::var_os("MCLOUD_UPDATE_GOLDEN").is_some_and(|v| v == "1");
    // The first output of every golden-less file, which later runs match.
    let mut first: HashMap<(&str, &str), Vec<u8>> = HashMap::new();
    let mut failures = Vec::new();
    for lanes in [1, 4] {
        for row in ROWS {
            let dir = std::env::temp_dir().join(format!(
                "mcloud-goldens-{}-{}-{lanes}",
                std::process::id(),
                row.name
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create row directory");
            for (run, args) in row.runs.iter().enumerate() {
                for (file, _) in row.files.iter().filter(|(f, _)| *f != "-") {
                    let _ = std::fs::remove_file(dir.join(file));
                }
                let stdout = run_mcloud(&dir, args, row.stdin, lanes);
                for &(file, golden) in row.files {
                    let what = format!("row {} run {run} at {lanes} lanes: {file}", row.name);
                    let actual = if file == "-" {
                        stdout.clone()
                    } else {
                        std::fs::read(dir.join(file))
                            .unwrap_or_else(|e| panic!("{what} was not written: {e}"))
                    };
                    let expected = match golden {
                        Some(golden) => {
                            let path = resolve(golden);
                            if update && lanes == 1 && run == 0 {
                                std::fs::write(&path, &actual).expect("rewrite golden");
                            }
                            std::fs::read(&path)
                                .unwrap_or_else(|e| panic!("golden {path} unreadable: {e}"))
                        }
                        None => first
                            .entry((row.name, file))
                            .or_insert(actual.clone())
                            .clone(),
                    };
                    check_golden(&mut failures, what, &expected, &actual);
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
