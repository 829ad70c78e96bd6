//! The experiment registry: every experiment `repro` runs, once, with
//! the files it writes under `results/`.
//!
//! Each [`Experiment`] names its id, what it shows and the function that
//! computes its table; [`Experiment::files`] renders that table to the
//! bytes `repro` writes. [`render_all`] renders every file `repro all`
//! writes, `results/claims.md` included, from one computation of each
//! table: the results tests compare it with the committed files, and the
//! claims read their tables through [`find`].

use mcloud_sweep::{LinePlot, Table};

use crate::claims;
use crate::experiments as ex;

/// One experiment: an id, what it shows, the function computing its
/// table and how the table is drawn.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// `repro`'s name for it, and the stem of its files.
    pub id: &'static str,
    /// One line for `repro --list` and the run's header.
    pub description: &'static str,
    /// Computes the table.
    pub run: fn() -> Table,
    /// Optional SVG renderings of the series (written as `<id><suffix>.svg`).
    plots: Option<PlotFn>,
}

/// Builds named SVG panels from an experiment's table.
type PlotFn = fn(&Table) -> Vec<(&'static str, LinePlot)>;

/// Experiments whose tables are also written as aligned text
/// (`results/<id>.txt`).
const TEXT_IDS: &[&str] = &["faults_1deg"];

const fn experiment(id: &'static str, description: &'static str, run: fn() -> Table) -> Experiment {
    Experiment {
        id,
        description,
        run,
        plots: None,
    }
}

/// Every experiment, in `repro all` order.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    experiment("fig4", "Montage 1 deg: costs & runtime vs provisioned processors", || ex::fig_processor_sweep(1.0)).plots(plots_processor_sweep),
    experiment("fig5", "Montage 2 deg: costs & runtime vs provisioned processors", || ex::fig_processor_sweep(2.0)).plots(plots_processor_sweep),
    experiment("fig6", "Montage 4 deg: costs & runtime vs provisioned processors", || ex::fig_processor_sweep(4.0)).plots(plots_processor_sweep),
    experiment("fig7", "Montage 1 deg: data-management metrics per mode", || ex::fig_mode_metrics(1.0)),
    experiment("fig8", "Montage 2 deg: data-management metrics per mode", || ex::fig_mode_metrics(2.0)),
    experiment("fig9", "Montage 4 deg: data-management metrics per mode", || ex::fig_mode_metrics(4.0)),
    experiment("fig10", "CPU vs data-management cost, all workflows x modes", ex::fig10_cpu_vs_dm),
    experiment("ccr", "CCR of the three Montage workflows at 10 Mbps", ex::ccr_table),
    experiment("fig11", "Montage 1 deg on 8 procs: costs vs CCR", ex::fig11_ccr_sweep).plots(plots_ccr),
    experiment("q2b", "2MASS hosting economics (break-even requests/month)", ex::q2b_hosting),
    experiment("q3", "Whole-sky campaign cost & mosaic archival break-evens", ex::q3_whole_sky),
    experiment("granularity", "EXTENSION: hourly vs per-second billing overcharge", || ex::granularity_ablation(1.0)),
    experiment("pareto", "EXTENSION: cost/makespan Pareto frontier, 4 deg", || ex::pareto_table(4.0)),
    experiment("policy", "EXTENSION: FIFO vs critical-path-first scheduling, 1 deg", || ex::policy_ablation(1.0)),
    experiment("failures", "EXTENSION: cost/turnaround vs task failure rate, 1 deg", || ex::failure_sweep(1.0)),
    experiment("faults_1deg", "EXTENSION: seeded fault injection under bounded retry, 1 deg", ex::fault_reliability_table),
    experiment("vm", "EXTENSION: VM boot overhead vs provisioning level, 1 deg", || ex::vm_overhead_table(1.0)),
    experiment("batch", "EXTENSION: batched DAG vs sequential requests on 16 procs", || ex::batch_vs_sequential(1.0, 4, 16)),
    experiment("crossover", "EXTENSION: rate crossover where remote I/O becomes cheapest", || ex::storage_rate_crossover(1.0)),
    experiment("service", "EXTENSION: cloud-burst policies over a month of bursty traffic", ex::burst_policy_table),
    experiment("tiered", "EXTENSION: flat vs tiered 2008 S3 egress pricing at scale", ex::tiered_egress_table),
    experiment("q2b_service", "EXTENSION: Q2b at service level - monthly totals by volume", ex::hosted_service_month),
    experiment("bandwidth", "EXTENSION: 4-deg on 128 procs vs link speed (wire-bound?)", || ex::bandwidth_sweep(4.0, 128)),
    experiment("autoscale", "EXTENSION: fixed vs auto-scaled standing pools, bursty month", ex::autoscale_table),
    experiment("variability", "EXTENSION: reproduction error bars across 20 generator seeds", ex::variability_table),
    experiment("duplex", "EXTENSION: shared vs per-direction link channels, by mode", || ex::duplex_ablation(1.0)),
];

/// Cost and runtime panels for Figures 4-6, log-log like the paper.
fn plots_processor_sweep(t: &Table) -> Vec<(&'static str, LinePlot)> {
    let x = t.numeric_column("processors").expect("processors column");
    let y = t
        .numeric_column("runtime_hours")
        .expect("runtime_hours column");
    let runtime = LinePlot::new(
        "Execution time vs provisioned processors",
        "processors",
        "hours",
    )
    .with_log_x()
    .series("makespan", x.into_iter().zip(y).collect());
    let costs = "Execution costs vs provisioned processors";
    vec![
        ("", plot_costs(t, "processors", costs, "processors")),
        ("_runtime", runtime),
    ]
}

/// Cost panel for Figure 11.
fn plots_ccr(t: &Table) -> Vec<(&'static str, LinePlot)> {
    let costs = "Execution costs vs communication-to-computation ratio (8 procs)";
    vec![("", plot_costs(t, "actual_ccr", costs, "CCR"))]
}

/// The five cost series over column `x`, log-log.
fn plot_costs(t: &Table, x: &str, title: &str, x_label: &str) -> LinePlot {
    let xs = t.numeric_column(x).expect(x);
    let mut plot = LinePlot::new(title, x_label, "dollars")
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
        let pts = xs.iter().zip(&y).map(|(&x, &y)| (x, y.max(1e-5))).collect();
        plot = plot.series(label, pts);
    }
    plot
}

impl Experiment {
    const fn plots(self, plots: PlotFn) -> Experiment {
        Experiment {
            plots: Some(plots),
            ..self
        }
    }

    /// The files `table` is written as, by name under `results/`, in the
    /// order `repro` writes them: `<id>.csv`, `<id>.txt` when it is in
    /// `TEXT_IDS`, then each plot's `<id><suffix>.svg`.
    pub fn files(&self, table: &Table) -> Vec<(String, String)> {
        let mut files = vec![(format!("{}.csv", self.id), table.to_csv())];
        if TEXT_IDS.contains(&self.id) {
            files.push((format!("{}.txt", self.id), table.to_ascii()));
        }
        for (suffix, plot) in self.plots.map_or(Vec::new(), |plots| plots(table)) {
            files.push((format!("{}{suffix}.svg", self.id), plot.to_svg()));
        }
        files
    }
}

/// The experiment called `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Every file `repro all` writes, by name under `results/`, in its order:
/// each experiment's [`Experiment::files`], then `claims.md` rendered from
/// the same tables.
pub fn render_all() -> Vec<(String, String)> {
    let measured = claims::Measured::default();
    let mut files = Vec::new();
    for e in EXPERIMENTS {
        let table = (e.run)();
        files.extend(e.files(&table));
        measured.insert(e.id, table);
    }
    files.push(("claims.md".to_string(), claims::render(&measured)));
    files
}
