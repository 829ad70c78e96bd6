//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all              # everything
//! repro fig4 fig10 q3    # a subset
//! repro --list           # enumerate experiment ids
//! repro bench-json       # (re)write BENCH_baseline.json at the repo root
//! repro bench-json --check BENCH_baseline.json   # CI regression gate
//! ```
//!
//! Each experiment of `mcloud_bench::registry` prints its series as an
//! aligned table and writes `results/<id>.csv` (and its other files) at
//! the workspace root; `all` also renders the paper's claims against
//! those tables to `results/claims.md` (see `mcloud_bench::claims`).
//!
//! The `bench-json` subcommand instead measures the engine-throughput
//! baseline (see `mcloud_bench::baseline`): `--out <path>` overrides
//! where the JSON is written; `--check <path>` measures and compares
//! against a committed baseline, exiting nonzero when a rule over a
//! timing (tolerant) column fails. `cargo test` gates the exact columns.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mcloud_bench::registry::{self, Experiment, EXPERIMENTS};
use mcloud_bench::{baseline, claims, results_dir};

/// Per-workload timing budget for `bench-json`, in milliseconds
/// (`MCLOUD_BENCH_TARGET_MS`, default 300).
fn bench_budget_ms() -> u64 {
    std::env::var("MCLOUD_BENCH_TARGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// `repro bench-json [--out <path>] [--check <path>]`.
fn bench_json(args: &[String]) -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut check: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" | "--check" => {
                let Some(path) = it.next() else {
                    eprintln!("{a} requires a path argument");
                    return ExitCode::FAILURE;
                };
                let slot = if a == "--out" { &mut out } else { &mut check };
                *slot = Some(PathBuf::from(path));
            }
            other => {
                eprintln!("unknown bench-json argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }

    let budget = bench_budget_ms();
    println!(
        "measuring engine baseline ({budget} ms/workload budget, {} worker lanes)...",
        mcloud_simkit::configured_lanes()
    );
    let measured = baseline::measure_all(budget, |row| println!("  {row}"));

    if let Some(path) = check {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(err) => {
                eprintln!("failed to read {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let committed = match baseline::from_json(&text) {
            Ok(b) => b,
            Err(err) => {
                eprintln!("failed to parse {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        };
        // Timing cells only: `cargo test` gates the exact ones
        // (`crates/bench/tests/baseline_exact.rs`), and the table below
        // still shows them.
        let violations = baseline::compare(&measured, &committed, baseline::Columns::Tolerant);
        // Notes, not failures: a NoIncrease pin above what the tree
        // measures lets a regression up to it pass unseen.
        for line in baseline::stale_pins(&measured, &committed) {
            println!("note: {line}");
        }
        // The delta table prints on *both* verdicts: a green CI log should
        // still show how far each metric sits from its committed value, so
        // drift is visible before it crosses a tolerance.
        if violations.is_empty() {
            println!("per-row deltas (committed -> current):");
            for line in baseline::delta_summary(&measured, &committed) {
                println!("  {line}");
            }
            println!(
                "baseline check passed against {} ({} rows)",
                path.display(),
                committed.rows.len()
            );
            return ExitCode::SUCCESS;
        }
        eprintln!("baseline check FAILED against {}:", path.display());
        for v in &violations {
            eprintln!("  - {v}");
        }
        eprintln!();
        eprintln!("per-row deltas (committed -> current):");
        for line in baseline::delta_summary(&measured, &committed) {
            eprintln!("  {line}");
        }
        return ExitCode::FAILURE;
    }

    let path = out.unwrap_or_else(|| results_dir().join("..").join("BENCH_baseline.json"));
    if wrote(&path, std::fs::write(&path, baseline::to_json(&measured))) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reports one written output; false (after printing why) on failure.
fn wrote(path: &Path, result: std::io::Result<()>) -> bool {
    match result {
        Ok(()) => println!("   -> wrote {}", path.display()),
        Err(ref err) => eprintln!("failed to write {}: {err}", path.display()),
    }
    result.is_ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "bench-json") {
        return bench_json(&args[1..]);
    }
    if args.iter().any(|a| a == "--list") {
        for e in EXPERIMENTS {
            println!("{:<12} {}", e.id, e.description);
        }
        return ExitCode::SUCCESS;
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let selected: Vec<&Experiment> = if all {
        EXPERIMENTS.iter().collect()
    } else {
        let mut picked = Vec::new();
        for a in &args {
            match registry::find(a) {
                Some(e) => picked.push(e),
                None => {
                    eprintln!("unknown experiment '{a}'; try --list");
                    return ExitCode::FAILURE;
                }
            }
        }
        picked
    };

    let out_dir = results_dir();
    if let Err(err) = std::fs::create_dir_all(&out_dir) {
        eprintln!("failed to create {}: {err}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let measured = claims::Measured::default();
    for e in selected {
        println!("== {} - {}", e.id, e.description);
        let table = (e.run)();
        print!("{}", table.to_ascii());
        for (name, bytes) in e.files(&table) {
            let path = out_dir.join(name);
            if !wrote(&path, std::fs::write(&path, bytes)) {
                return ExitCode::FAILURE;
            }
        }
        println!();
        measured.insert(e.id, table);
    }
    if all {
        // Rendered from the tables above, so the file equals what
        // `registry::render_all` renders.
        println!("== claims - the paper's claims against the tables above");
        let path = out_dir.join("claims.md");
        if !wrote(&path, std::fs::write(&path, claims::render(&measured))) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
