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
//! Each experiment prints its series as an aligned table and writes
//! `results/<id>.csv` at the workspace root; `all` also renders the
//! paper's claims against those tables to `results/claims.md` (see
//! `mcloud_bench::claims`). The `bench-json` subcommand
//! instead measures the engine-throughput baseline (see
//! `mcloud_bench::baseline`): `--out <path>` overrides where the JSON is
//! written; `--check <path>` measures and compares against a committed
//! baseline, exiting nonzero on allocation or throughput regressions.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mcloud_bench::{baseline, claims, experiments as ex, results_dir};
use mcloud_sweep::{LinePlot, Table};

struct Experiment {
    id: &'static str,
    description: &'static str,
    run: fn() -> Table,
    /// Optional SVG renderings of the series (written as `<id><suffix>.svg`).
    plots: Option<PlotFn>,
}

/// Builds named SVG panels from an experiment's table.
type PlotFn = fn(&Table) -> Vec<(&'static str, LinePlot)>;

/// Experiments whose tables are also written as aligned text
/// (`results/<id>.txt`) so the artifact can be diffed byte-for-byte by CI.
const TEXT_IDS: &[&str] = &["faults_1deg"];

/// Cost + runtime pair for Figures 4-6.
fn plots_processor_sweep(t: &Table) -> Vec<(&'static str, LinePlot)> {
    vec![
        ("", plot_processor_costs(t)),
        ("_runtime", plot_processor_runtime(t)),
    ]
}

/// Cost panel for Figure 11.
fn plots_ccr(t: &Table) -> Vec<(&'static str, LinePlot)> {
    vec![("", plot_ccr_costs(t))]
}

/// Figures 4-6 shape: cost series over processors, log-log like the paper.
fn plot_processor_costs(t: &Table) -> LinePlot {
    let x = t.numeric_column("processors").expect("processors column");
    let mut plot = LinePlot::new(
        "Execution costs vs provisioned processors",
        "processors",
        "dollars",
    )
    .with_log_x()
    .with_log_y();
    for (col, label) in [
        ("total_cost", "total"),
        ("cpu_cost", "cpu"),
        ("transfer_cost", "transfer"),
        ("storage_cost", "storage"),
        ("storage_cost_cleanup", "storage (cleanup)"),
    ] {
        let y = t.numeric_column(col).expect(col);
        // Log scale cannot show zeros; clamp to a display floor.
        let pts: Vec<(f64, f64)> = x.iter().zip(&y).map(|(&x, &y)| (x, y.max(1e-5))).collect();
        plot = plot.series(label, pts);
    }
    plot
}

/// Figure 11 shape: cost series over the CCR, log-y.
fn plot_ccr_costs(t: &Table) -> LinePlot {
    let x = t.numeric_column("actual_ccr").expect("actual_ccr column");
    let mut plot = LinePlot::new(
        "Execution costs vs communication-to-computation ratio (8 procs)",
        "CCR",
        "dollars",
    )
    .with_log_x()
    .with_log_y();
    for (col, label) in [
        ("total_cost", "total"),
        ("cpu_cost", "cpu"),
        ("transfer_cost", "transfer"),
        ("storage_cost", "storage"),
        ("storage_cost_cleanup", "storage (cleanup)"),
    ] {
        let y = t.numeric_column(col).expect(col);
        let pts: Vec<(f64, f64)> = x.iter().zip(&y).map(|(&x, &y)| (x, y.max(1e-5))).collect();
        plot = plot.series(label, pts);
    }
    plot
}

/// Runtime-vs-processors companion curve (bottom panels of Figures 4-6).
fn plot_processor_runtime(t: &Table) -> LinePlot {
    let x = t.numeric_column("processors").expect("processors column");
    let y = t
        .numeric_column("runtime_hours")
        .expect("runtime_hours column");
    LinePlot::new(
        "Execution time vs provisioned processors",
        "processors",
        "hours",
    )
    .with_log_x()
    .series("makespan", x.into_iter().zip(y).collect())
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig4",
        description: "Montage 1 deg: costs & runtime vs provisioned processors",
        plots: Some(plots_processor_sweep),
        run: || ex::fig_processor_sweep(1.0),
    },
    Experiment {
        id: "fig5",
        description: "Montage 2 deg: costs & runtime vs provisioned processors",
        plots: Some(plots_processor_sweep),
        run: || ex::fig_processor_sweep(2.0),
    },
    Experiment {
        id: "fig6",
        description: "Montage 4 deg: costs & runtime vs provisioned processors",
        plots: Some(plots_processor_sweep),
        run: || ex::fig_processor_sweep(4.0),
    },
    Experiment {
        id: "fig7",
        description: "Montage 1 deg: data-management metrics per mode",
        plots: None,
        run: || ex::fig_mode_metrics(1.0),
    },
    Experiment {
        id: "fig8",
        description: "Montage 2 deg: data-management metrics per mode",
        plots: None,
        run: || ex::fig_mode_metrics(2.0),
    },
    Experiment {
        id: "fig9",
        description: "Montage 4 deg: data-management metrics per mode",
        plots: None,
        run: || ex::fig_mode_metrics(4.0),
    },
    Experiment {
        id: "fig10",
        description: "CPU vs data-management cost, all workflows x modes",
        plots: None,
        run: ex::fig10_cpu_vs_dm,
    },
    Experiment {
        id: "ccr",
        description: "CCR of the three Montage workflows at 10 Mbps",
        plots: None,
        run: ex::ccr_table,
    },
    Experiment {
        id: "fig11",
        description: "Montage 1 deg on 8 procs: costs vs CCR",
        plots: Some(plots_ccr),
        run: ex::fig11_ccr_sweep,
    },
    Experiment {
        id: "q2b",
        description: "2MASS hosting economics (break-even requests/month)",
        plots: None,
        run: ex::q2b_hosting,
    },
    Experiment {
        id: "q3",
        description: "Whole-sky campaign cost & mosaic archival break-evens",
        plots: None,
        run: ex::q3_whole_sky,
    },
    Experiment {
        id: "granularity",
        description: "EXTENSION: hourly vs per-second billing overcharge",
        plots: None,
        run: || ex::granularity_ablation(1.0),
    },
    Experiment {
        id: "pareto",
        description: "EXTENSION: cost/makespan Pareto frontier, 4 deg",
        plots: None,
        run: || ex::pareto_table(4.0),
    },
    Experiment {
        id: "policy",
        description: "EXTENSION: FIFO vs critical-path-first scheduling, 1 deg",
        plots: None,
        run: || ex::policy_ablation(1.0),
    },
    Experiment {
        id: "failures",
        description: "EXTENSION: cost/turnaround vs task failure rate, 1 deg",
        plots: None,
        run: || ex::failure_sweep(1.0),
    },
    Experiment {
        id: "faults_1deg",
        description: "EXTENSION: seeded fault injection under bounded retry, 1 deg",
        plots: None,
        run: ex::fault_reliability_table,
    },
    Experiment {
        id: "vm",
        description: "EXTENSION: VM boot overhead vs provisioning level, 1 deg",
        plots: None,
        run: || ex::vm_overhead_table(1.0),
    },
    Experiment {
        id: "batch",
        description: "EXTENSION: batched DAG vs sequential requests on 16 procs",
        plots: None,
        run: || ex::batch_vs_sequential(1.0, 4, 16),
    },
    Experiment {
        id: "crossover",
        description: "EXTENSION: rate crossover where remote I/O becomes cheapest",
        plots: None,
        run: || ex::storage_rate_crossover(1.0),
    },
    Experiment {
        id: "service",
        description: "EXTENSION: cloud-burst policies over a month of bursty traffic",
        plots: None,
        run: ex::burst_policy_table,
    },
    Experiment {
        id: "tiered",
        description: "EXTENSION: flat vs tiered 2008 S3 egress pricing at scale",
        plots: None,
        run: ex::tiered_egress_table,
    },
    Experiment {
        id: "q2b_service",
        description: "EXTENSION: Q2b at service level - monthly totals by volume",
        plots: None,
        run: ex::hosted_service_month,
    },
    Experiment {
        id: "bandwidth",
        description: "EXTENSION: 4-deg on 128 procs vs link speed (wire-bound?)",
        plots: None,
        run: || ex::bandwidth_sweep(4.0, 128),
    },
    Experiment {
        id: "autoscale",
        description: "EXTENSION: fixed vs auto-scaled standing pools, bursty month",
        plots: None,
        run: ex::autoscale_table,
    },
    Experiment {
        id: "variability",
        description: "EXTENSION: reproduction error bars across 20 generator seeds",
        plots: None,
        run: ex::variability_table,
    },
    Experiment {
        id: "duplex",
        description: "EXTENSION: shared vs per-direction link channels, by mode",
        plots: None,
        run: || ex::duplex_ablation(1.0),
    },
];

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
        let violations = baseline::compare(&measured, &committed);
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
            match EXPERIMENTS.iter().find(|e| e.id == *a) {
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
    for e in selected {
        println!("== {} - {}", e.id, e.description);
        let table = (e.run)();
        print!("{}", table.to_ascii());
        let path = out_dir.join(format!("{}.csv", e.id));
        if !wrote(&path, table.write_csv(&path)) {
            return ExitCode::FAILURE;
        }
        if TEXT_IDS.contains(&e.id) {
            let path = out_dir.join(format!("{}.txt", e.id));
            if !wrote(&path, std::fs::write(&path, table.to_ascii())) {
                return ExitCode::FAILURE;
            }
        }
        for (suffix, plot) in e.plots.map_or(Vec::new(), |plots| plots(&table)) {
            let path = out_dir.join(format!("{}{suffix}.svg", e.id));
            if !wrote(&path, plot.write_svg(&path)) {
                return ExitCode::FAILURE;
            }
        }
        println!();
    }
    if all {
        // The claims recompute their source tables, so the file equals
        // what `crates/bench/tests/claims.rs` renders.
        println!("== claims - the paper's claims against the tables above");
        let path = out_dir.join("claims.md");
        let render = claims::render(&claims::Measured::compute());
        if !wrote(&path, std::fs::write(&path, render)) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
