//! One function per table/figure of the paper's evaluation.
//!
//! Every function returns a [`Table`] whose rows are the series the paper
//! plots, so the reproduction can be compared line by line (see
//! `EXPERIMENTS.md` at the workspace root for the paper-vs-measured log).

use mcloud_core::{simulate, DataMode, ExecConfig, Report};
use mcloud_cost::{ArchiveOrRecompute, Campaign, DatasetHosting, Money, Pricing};
use mcloud_dag::Workflow;
use mcloud_montage::{generate, MosaicConfig};
use mcloud_sweep::{
    ccr_sweep, fault_rate_sweep, geometric_processors, mode_matrix, pareto_frontier,
    processor_sweep, CostTimePoint, Table,
};

/// The paper's three canonical mosaic sizes.
pub const CANONICAL_DEGREES: [f64; 3] = [1.0, 2.0, 4.0];

fn canonical(degrees: f64) -> Workflow {
    generate(&MosaicConfig::new(degrees))
}

fn d3(m: Money) -> String {
    format!("{:.3}", m.dollars())
}

fn d4(m: Money) -> String {
    format!("{:.4}", m.dollars())
}

/// Figures 4-6: execution costs and execution time of the `degrees`-square
/// Montage workflow versus provisioned processors (1..128, geometric).
///
/// Matches the paper's series: CPU cost, storage cost with and without
/// cleanup, transfer cost, total cost (using the no-cleanup storage), and
/// the makespan in hours. Fixed provisioning, Regular data mode.
pub fn fig_processor_sweep(degrees: f64) -> Table {
    let wf = canonical(degrees);
    let base_regular = ExecConfig::paper_default().mode(DataMode::Regular);
    let base_cleanup = ExecConfig::paper_default().mode(DataMode::DynamicCleanup);
    let procs = geometric_processors(128);
    let regular = processor_sweep(&wf, &base_regular, &procs);
    let cleanup = processor_sweep(&wf, &base_cleanup, &procs);

    let mut t = Table::new(vec![
        "processors",
        "cpu_cost",
        "storage_cost",
        "storage_cost_cleanup",
        "transfer_cost",
        "total_cost",
        "runtime_hours",
    ]);
    for (r, c) in regular.iter().zip(&cleanup) {
        assert_eq!(r.processors, c.processors);
        let costs = &r.report.costs;
        t.push_row(vec![
            r.processors.to_string(),
            d3(costs.cpu),
            d4(costs.storage),
            d4(c.report.costs.storage),
            d3(costs.transfer()),
            d3(costs.total()),
            format!("{:.3}", r.report.makespan_hours()),
        ]);
    }
    t
}

/// Figures 7-9: data-management metrics of the `degrees`-square workflow
/// under the three modes with on-demand compute: storage space-time,
/// data transferred in/out, and the per-category dollar costs (the paper's
/// "total" in these figures excludes CPU).
pub fn fig_mode_metrics(degrees: f64) -> Table {
    let wf = canonical(degrees);
    let points = mode_matrix(&wf, &ExecConfig::paper_default());
    let mut t = Table::new(vec![
        "mode",
        "storage_gb_hours",
        "gb_in",
        "gb_out",
        "storage_cost",
        "transfer_in_cost",
        "transfer_out_cost",
        "dm_total_cost",
    ]);
    for p in &points {
        let r = &p.report;
        t.push_row(vec![
            p.mode.label().to_string(),
            format!("{:.4}", r.storage_gb_hours()),
            format!("{:.4}", r.gb_in()),
            format!("{:.4}", r.gb_out()),
            d4(r.costs.storage),
            d4(r.costs.transfer_in),
            d4(r.costs.transfer_out),
            d4(r.costs.data_management()),
        ]);
    }
    t
}

/// Figure 10: CPU cost versus aggregated data-management cost for all
/// three workflows under each execution mode (on-demand compute).
pub fn fig10_cpu_vs_dm() -> Table {
    let mut t = Table::new(vec![
        "workflow",
        "mode",
        "cpu_cost",
        "dm_cost",
        "total_cost",
    ]);
    for degrees in CANONICAL_DEGREES {
        let wf = canonical(degrees);
        for p in mode_matrix(&wf, &ExecConfig::paper_default()) {
            let r = &p.report;
            t.push_row(vec![
                format!("{degrees}deg"),
                p.mode.label().to_string(),
                d3(r.costs.cpu),
                d3(r.costs.data_management()),
                d3(r.total_cost()),
            ]);
        }
    }
    t
}

/// The CCR table of Section 6 (Question 2a): the communication-to-
/// computation ratio of the three workflows at the 10 Mbps reference link
/// (paper: 0.053 / 0.053 / 0.045).
pub fn ccr_table() -> Table {
    let mut t = Table::new(vec!["workflow", "ccr"]);
    for degrees in CANONICAL_DEGREES {
        let wf = canonical(degrees);
        t.push_row(vec![
            format!("Montage {degrees} Degree"),
            format!("{:.4}", wf.ccr_at_link(10e6)),
        ]);
    }
    t
}

/// Figure 11: execution costs of the 1-degree workflow as its CCR is
/// scaled up (file sizes multiplied by `CCR_d / CCR_r`), on 8 provisioned
/// processors — "8 processors were chosen since they represent a
/// reasonable compromise".
pub fn fig11_ccr_sweep() -> Table {
    let wf = canonical(1.0);
    let targets = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2];
    let regular = ccr_sweep(&wf, &ExecConfig::fixed(8), &targets);
    let cleanup = ccr_sweep(
        &wf,
        &ExecConfig::fixed(8).mode(DataMode::DynamicCleanup),
        &targets,
    );
    let mut t = Table::new(vec![
        "target_ccr",
        "actual_ccr",
        "cpu_cost",
        "storage_cost",
        "storage_cost_cleanup",
        "transfer_cost",
        "total_cost",
        "runtime_hours",
    ]);
    for (r, c) in regular.iter().zip(&cleanup) {
        let costs = &r.report.costs;
        t.push_row(vec![
            format!("{:.3}", r.target_ccr),
            format!("{:.4}", r.actual_ccr),
            d3(costs.cpu),
            d4(costs.storage),
            d4(c.report.costs.storage),
            d3(costs.transfer()),
            d3(costs.total()),
            format!("{:.3}", r.report.makespan_hours()),
        ]);
    }
    t
}

/// Question 2b: the economics of hosting the 12 TB 2MASS archive in the
/// cloud versus staging inputs per request, anchored by simulated 2-degree
/// request costs with and without pre-staged data.
pub fn q2b_hosting() -> Table {
    let wf = canonical(2.0);
    let staged = simulate(&wf, &ExecConfig::paper_default());
    let hosted = simulate(&wf, &ExecConfig::paper_default().prestaged(true));
    let pricing = Pricing::amazon_2008();
    let dataset_bytes = 12_000 * 1_000_000_000u64;
    let hosting = DatasetHosting {
        dataset_bytes,
        request_cost_staged: staged.total_cost(),
        request_cost_hosted: hosted.total_cost(),
    };
    let mut t = Table::new(vec!["quantity", "value"]);
    t.push_row(vec![
        "2deg request cost, staged ($)".to_string(),
        d3(staged.total_cost()),
    ]);
    t.push_row(vec![
        "2deg request cost, hosted ($)".to_string(),
        d3(hosted.total_cost()),
    ]);
    t.push_row(vec![
        "saving per request ($)".to_string(),
        d4(hosting.saving_per_request()),
    ]);
    t.push_row(vec![
        "2MASS monthly storage ($/month)".to_string(),
        format!(
            "{:.0}",
            pricing.monthly_storage_cost(dataset_bytes).dollars()
        ),
    ]);
    t.push_row(vec![
        "break-even requests/month".to_string(),
        format!("{:.0}", hosting.break_even_requests_per_month(&pricing)),
    ]);
    t.push_row(vec![
        "one-time ingest cost ($)".to_string(),
        format!("{:.0}", hosting.ingest_cost(&pricing).dollars()),
    ]);
    t
}

/// Question 3: the whole-sky campaign (3,900 4-degree plates per band
/// set) and the archive-vs-recompute break-even for each mosaic size.
pub fn q3_whole_sky() -> Table {
    let pricing = Pricing::amazon_2008();
    let wf4 = canonical(4.0);
    let staged = simulate(&wf4, &ExecConfig::paper_default());
    let hosted = simulate(&wf4, &ExecConfig::paper_default().prestaged(true));
    let mut t = Table::new(vec!["quantity", "value"]);
    t.push_row(vec![
        "4deg request cost, staged ($)".to_string(),
        d3(staged.total_cost()),
    ]);
    t.push_row(vec![
        "4deg request cost, hosted ($)".to_string(),
        d3(hosted.total_cost()),
    ]);
    for (label, report) in [("staged", &staged), ("hosted", &hosted)] {
        let campaign = Campaign {
            requests: 3_900,
            cost_per_request: report.total_cost(),
        };
        t.push_row(vec![
            format!("whole sky, 3900 plates, {label} ($)"),
            format!("{:.0}", campaign.total().dollars()),
        ]);
    }
    // Archive-or-recompute break-even per mosaic size.
    for degrees in CANONICAL_DEGREES {
        let wf = canonical(degrees);
        let report = simulate(&wf, &ExecConfig::paper_default());
        let mosaic = wf
            .staged_out_files()
            .iter()
            .map(|&f| wf.file(f))
            .find(|f| f.name.ends_with(".fits"))
            .expect("every mosaic workflow delivers a FITS mosaic");
        let archive = ArchiveOrRecompute {
            recompute_cost: report.costs.cpu,
            product_bytes: mosaic.bytes,
        };
        t.push_row(vec![
            format!("{degrees}deg mosaic archival break-even (months)"),
            format!("{:.2}", archive.break_even_months(&pricing)),
        ]);
    }
    t
}

/// Extension (not in the paper, which assumed idealized per-second
/// billing): how much the paper's conclusions shift under real 2008 EC2
/// hour-granular billing, per provisioned processor count.
pub fn granularity_ablation(degrees: f64) -> Table {
    use mcloud_cost::ChargeGranularity;
    let wf = canonical(degrees);
    let procs = geometric_processors(128);
    let exact = processor_sweep(&wf, &ExecConfig::paper_default(), &procs);
    let hourly = processor_sweep(
        &wf,
        &ExecConfig::paper_default().with_granularity(ChargeGranularity::HourlyCpu),
        &procs,
    );
    let mut t = Table::new(vec![
        "processors",
        "total_exact",
        "total_hourly",
        "overcharge_pct",
    ]);
    for (e, h) in exact.iter().zip(&hourly) {
        let te = e.report.total_cost().dollars();
        let th = h.report.total_cost().dollars();
        t.push_row(vec![
            e.processors.to_string(),
            format!("{te:.3}"),
            format!("{th:.3}"),
            format!("{:.1}", (th - te) / te * 100.0),
        ]);
    }
    t
}

/// Extension: the Pareto frontier of the cost/makespan trade-off across
/// provisioning levels (the decision the paper walks through by hand for
/// the 4-degree workflow).
pub fn pareto_table(degrees: f64) -> Table {
    let wf = canonical(degrees);
    let procs = geometric_processors(128);
    let points = processor_sweep(&wf, &ExecConfig::paper_default(), &procs);
    let ct: Vec<CostTimePoint> = points
        .iter()
        .map(|p| CostTimePoint {
            cost: p.report.total_cost().dollars(),
            time: p.report.makespan.as_secs_f64(),
        })
        .collect();
    let frontier = pareto_frontier(&ct);
    let mut t = Table::new(vec![
        "processors",
        "total_cost",
        "runtime_hours",
        "on_frontier",
    ]);
    for (i, p) in points.iter().enumerate() {
        t.push_row(vec![
            p.processors.to_string(),
            format!("{:.3}", p.report.total_cost().dollars()),
            format!("{:.3}", p.report.makespan_hours()),
            if frontier.contains(&i) {
                "yes".to_string()
            } else {
                "no".to_string()
            },
        ]);
    }
    t
}

/// Convenience: one simulated report for a canonical workflow under the
/// paper-default on-demand Regular plan.
pub fn baseline_report(degrees: f64) -> Report {
    simulate(&canonical(degrees), &ExecConfig::paper_default())
}

/// Extension: FIFO-by-id versus critical-path-first list scheduling across
/// provisioning levels. Montage is level-structured, so the gap is small —
/// which is itself a result worth pinning down.
pub fn policy_ablation(degrees: f64) -> Table {
    use mcloud_core::SchedulePolicy;
    let wf = canonical(degrees);
    let procs = geometric_processors(128);
    let fifo = processor_sweep(&wf, &ExecConfig::paper_default(), &procs);
    let cp = processor_sweep(
        &wf,
        &ExecConfig::paper_default().with_policy(SchedulePolicy::CriticalPathFirst),
        &procs,
    );
    let mut t = Table::new(vec![
        "processors",
        "fifo_hours",
        "cp_first_hours",
        "gap_pct",
    ]);
    for (f, c) in fifo.iter().zip(&cp) {
        let (a, b) = (f.report.makespan_hours(), c.report.makespan_hours());
        t.push_row(vec![
            f.processors.to_string(),
            format!("{a:.4}"),
            format!("{b:.4}"),
            format!("{:.2}", (a - b) / a * 100.0),
        ]);
    }
    t
}

/// Extension: how task-failure rates inflate cost and turnaround (the
/// paper flags reliability as an open concern). On-demand billing, so
/// every retried attempt is paid for.
pub fn failure_sweep(degrees: f64) -> Table {
    let wf = canonical(degrees);
    let mut t = Table::new(vec![
        "failure_prob",
        "attempts",
        "failed",
        "total_cost",
        "cost_overhead_pct",
        "runtime_hours",
    ]);
    // The zero-rate point doubles as the overhead baseline; the sweep
    // builds the same per-rate configs `with_faults` would.
    let points = fault_rate_sweep(
        &wf,
        &ExecConfig::paper_default(),
        &[0.0, 0.02, 0.05, 0.1, 0.2, 0.3],
        2008,
    );
    let base = &points[0].report;
    for p in &points {
        let r = &p.report;
        let overhead = (r.total_cost().dollars() - base.total_cost().dollars())
            / base.total_cost().dollars()
            * 100.0;
        t.push_row(vec![
            format!("{:.2}", p.failure_prob),
            r.task_executions.to_string(),
            r.failed_attempts.to_string(),
            format!("{:.3}", r.total_cost().dollars()),
            format!("{overhead:.1}"),
            format!("{:.3}", r.makespan_hours()),
        ]);
    }
    t
}

/// Extension: the reliability economics of the 1-degree mosaic under the
/// full fault model — seeded task faults swept across rates on a bounded
/// retry-with-backoff policy, with transfer faults and preemptions held
/// fixed. Shows retry-inflated makespan/cost, the wasted-work bill, and
/// (at brutal rates) the graceful dead-letter abort.
pub fn fault_reliability_table() -> Table {
    use mcloud_core::{FaultModel, RetryPolicy};
    let wf = canonical(1.0);
    let base = ExecConfig {
        faults: Some(FaultModel {
            task_failure_prob: 0.0,
            transfer_failure_prob: 0.05,
            proc_mttf_s: 20_000.0,
            seed: 2008,
        }),
        ..ExecConfig::fixed(8).with_retry(RetryPolicy::bounded(3))
    };
    let points = fault_rate_sweep(&wf, &base, &[0.0, 0.01, 0.02, 0.05, 0.1, 0.2], 2008);
    let mut t = Table::new(vec![
        "failure_prob",
        "attempts",
        "failed",
        "retries",
        "preemptions",
        "transfer_failures",
        "completed",
        "makespan_hours",
        "total_cost",
        "wasted_cpu_s",
    ]);
    for p in &points {
        let r = &p.report;
        t.push_row(vec![
            format!("{:.2}", p.failure_prob),
            r.task_executions.to_string(),
            r.failed_attempts.to_string(),
            r.retries.to_string(),
            r.preemptions.to_string(),
            r.transfer_failures.to_string(),
            if r.completed { "yes" } else { "no" }.to_string(),
            format!("{:.3}", r.makespan_hours()),
            format!("{:.3}", r.total_cost().dollars()),
            format!("{:.1}", r.wasted_cpu_seconds),
        ]);
    }
    t
}

/// Extension: VM startup overhead versus provisioning level — boot time is
/// paid on every node, so it punishes wide provisioning of short runs.
pub fn vm_overhead_table(degrees: f64) -> Table {
    use mcloud_core::VmOverhead;
    let wf = canonical(degrees);
    let procs = geometric_processors(128);
    let mut t = Table::new(vec![
        "processors",
        "cost_no_overhead",
        "cost_300s_boot",
        "cost_900s_boot",
        "hours_900s_boot",
    ]);
    let none = processor_sweep(&wf, &ExecConfig::paper_default(), &procs);
    let mid = processor_sweep(
        &wf,
        &ExecConfig::paper_default().with_vm_overhead(VmOverhead {
            startup_s: 300.0,
            teardown_s: 60.0,
        }),
        &procs,
    );
    let big = processor_sweep(
        &wf,
        &ExecConfig::paper_default().with_vm_overhead(VmOverhead {
            startup_s: 900.0,
            teardown_s: 60.0,
        }),
        &procs,
    );
    for ((a, b), c) in none.iter().zip(&mid).zip(&big) {
        t.push_row(vec![
            a.processors.to_string(),
            format!("{:.3}", a.report.total_cost().dollars()),
            format!("{:.3}", b.report.total_cost().dollars()),
            format!("{:.3}", c.report.total_cost().dollars()),
            format!("{:.3}", c.report.makespan_hours()),
        ]);
    }
    t
}

/// Extension: batching `k` requests into one DAG on a shared pool versus
/// running them one after another on the same pool — the utilization win
/// the paper's per-request arithmetic leaves on the table.
pub fn batch_vs_sequential(degrees: f64, k: usize, processors: u32) -> Table {
    use mcloud_dag::replicate_workflow;
    let one = canonical(degrees);
    let batch = replicate_workflow(format!("batch{k}"), &one, k).expect("batch builds");
    let cfg = ExecConfig::fixed(processors);
    let single = simulate(&one, &cfg);
    let merged = simulate(&batch, &cfg);
    let mut t = Table::new(vec![
        "plan",
        "makespan_hours",
        "total_cost",
        "utilization_pct",
    ]);
    t.push_row(vec![
        format!("{k} x sequential"),
        format!("{:.3}", single.makespan_hours() * k as f64),
        format!("{:.3}", single.total_cost().dollars() * k as f64),
        format!("{:.1}", single.cpu_utilization * 100.0),
    ]);
    t.push_row(vec![
        "batched DAG".to_string(),
        format!("{:.3}", merged.makespan_hours()),
        format!("{:.3}", merged.total_cost().dollars()),
        format!("{:.1}", merged.cpu_utilization * 100.0),
    ]);
    t
}

/// Extension: the rate crossover the paper hypothesizes — scale the
/// storage price up by `theta` while scaling both transfer prices down by
/// `1/theta`; find the theta where remote I/O and Regular cost the same.
pub fn storage_rate_crossover(degrees: f64) -> Table {
    use mcloud_sweep::find_crossover;
    let wf = canonical(degrees);
    let cost_at = |theta: f64, mode: DataMode| -> f64 {
        let mut cfg = ExecConfig::on_demand(mode);
        cfg.pricing.storage_per_gb_month *= theta;
        cfg.pricing.transfer_in_per_gb /= theta;
        cfg.pricing.transfer_out_per_gb /= theta;
        simulate(&wf, &cfg).total_cost().dollars()
    };
    let diff = |theta: f64| cost_at(theta, DataMode::RemoteIo) - cost_at(theta, DataMode::Regular);
    let theta = find_crossover(1.0, 10_000.0, 0.5, diff);
    let mut t = Table::new(vec!["quantity", "value"]);
    match theta {
        Some(theta) => {
            t.push_row(vec!["crossover_theta".to_string(), format!("{theta:.1}")]);
            t.push_row(vec![
                "storage_rate_at_crossover ($/GB-month)".to_string(),
                format!("{:.2}", 0.15 * theta),
            ]);
            t.push_row(vec![
                "transfer_out_rate_at_crossover ($/GB)".to_string(),
                format!("{:.5}", 0.16 / theta),
            ]);
            t.push_row(vec![
                "remote_io_total_at_crossover".to_string(),
                format!("{:.3}", cost_at(theta, DataMode::RemoteIo)),
            ]);
        }
        None => {
            t.push_row(vec![
                "crossover_theta".to_string(),
                "none in [1, 1e4]".to_string(),
            ]);
        }
    }
    t
}

/// Extension: sensitivity to the link speed the paper fixes at 10 Mbps.
/// On 128 processors the 4-degree run is wire-bound; this sweep shows the
/// paper's ~1 h figure needs roughly a 4x faster link.
pub fn bandwidth_sweep(degrees: f64, processors: u32) -> Table {
    use mcloud_core::Provisioning;
    let wf = canonical(degrees);
    let mut t = Table::new(vec![
        "bandwidth_mbps",
        "runtime_hours",
        "total_cost",
        "wire_share_pct",
    ]);
    let mbps_axis = [5.0, 10.0, 20.0, 40.0, 100.0, 1000.0];
    let bps: Vec<f64> = mbps_axis.iter().map(|m| m * 1e6).collect();
    let base = ExecConfig {
        provisioning: Provisioning::Fixed { processors },
        ..ExecConfig::paper_default()
    };
    for (point, mbps) in mcloud_sweep::bandwidth_sweep_incremental(&wf, &base, &bps)
        .iter()
        .zip(mbps_axis)
    {
        let r = &point.report;
        let wire_s = (r.bytes_in + r.bytes_out) as f64 * 8.0 / point.bandwidth_bps;
        t.push_row(vec![
            format!("{mbps:.0}"),
            format!("{:.3}", r.makespan_hours()),
            format!("{:.3}", r.total_cost().dollars()),
            format!("{:.1}", wire_s / r.makespan.as_secs_f64() * 100.0),
        ]);
    }
    t
}

/// Extension: fixed standing pools versus an auto-scaled pool over a month
/// of bursty traffic — the dynamic version of Question 2's "provisions a
/// certain amount of resources over a period of time".
pub fn autoscale_table() -> Table {
    use mcloud_service::{bursty, simulate_autoscale, AutoScaleConfig};
    let arrivals = bursty(
        0.5,
        720.0,
        1.0,
        &[(120.0, 24.0, 12.0), (480.0, 24.0, 12.0)],
        2008,
    );
    let mut t = Table::new(vec![
        "pool",
        "peak_slots",
        "slot_hours",
        "total_cost",
        "mean_wait_h",
        "max_wait_h",
    ]);
    let base = AutoScaleConfig::default_pool();
    let plans: Vec<(&str, AutoScaleConfig)> = vec![
        (
            "fixed 1 slot",
            AutoScaleConfig {
                min_slots: 1,
                max_slots: 1,
                ..base.clone()
            },
        ),
        (
            "fixed 4 slots",
            AutoScaleConfig {
                min_slots: 4,
                max_slots: 4,
                ..base.clone()
            },
        ),
        (
            "autoscale 1..8",
            AutoScaleConfig {
                min_slots: 1,
                max_slots: 8,
                ..base.clone()
            },
        ),
        (
            "autoscale 0..8",
            AutoScaleConfig {
                min_slots: 0,
                max_slots: 8,
                scale_up_queue: 1,
                ..base
            },
        ),
    ];
    for (label, cfg) in plans {
        let r = simulate_autoscale(&arrivals, &cfg);
        t.push_row(vec![
            label.to_string(),
            r.peak_slots.to_string(),
            format!("{:.0}", r.slot_hours),
            format!("{:.2}", r.total_cost().dollars()),
            format!("{:.2}", r.mean_wait_hours()),
            format!("{:.2}", r.max_wait_hours()),
        ]);
    }
    t
}

/// Extension: reproduction error bars — the headline metrics across many
/// generator seeds (the jitter the synthetic traces carry), per workflow.
pub fn variability_table() -> Table {
    use mcloud_simkit::RunningStats;
    let mut t = Table::new(vec!["workflow", "metric", "mean", "std_dev", "rel_sd_pct"]);
    for degrees in CANONICAL_DEGREES {
        let mut cost = RunningStats::new();
        let mut hours = RunningStats::new();
        for seed in 0..20u64 {
            let wf = generate(&MosaicConfig::new(degrees).seed(seed));
            let r = simulate(&wf, &ExecConfig::paper_default());
            cost.push(r.total_cost().dollars());
            hours.push(r.makespan_hours());
        }
        for (metric, stats) in [("total_cost", &cost), ("makespan_hours", &hours)] {
            t.push_row(vec![
                format!("{degrees}deg"),
                metric.to_string(),
                format!("{:.4}", stats.mean()),
                format!("{:.4}", stats.std_dev()),
                format!("{:.2}", stats.std_dev() / stats.mean() * 100.0),
            ]);
        }
    }
    t
}

/// Extension: Question 2b at the service level — monthly totals for a
/// mosaic service at different request volumes, with inputs staged per
/// request versus the 2MASS archive hosted in the cloud.
pub fn hosted_service_month() -> Table {
    let wf = canonical(2.0);
    let staged = simulate(&wf, &ExecConfig::paper_default()).total_cost();
    let hosted = simulate(&wf, &ExecConfig::paper_default().prestaged(true)).total_cost();
    let pricing = Pricing::amazon_2008();
    let hosting = DatasetHosting {
        dataset_bytes: 12_000 * 1_000_000_000,
        request_cost_staged: staged,
        request_cost_hosted: hosted,
    };
    let break_even = hosting.break_even_requests_per_month(&pricing);
    let mut t = Table::new(vec![
        "requests_per_month",
        "monthly_staged",
        "monthly_hosted",
        "winner",
    ]);
    for volume in [100.0, 1_000.0, 10_000.0, break_even, 100_000.0, 500_000.0] {
        let s = hosting.monthly_cost_staged(volume);
        let h = hosting.monthly_cost_hosted(&pricing, volume);
        t.push_row(vec![
            format!("{volume:.0}"),
            format!("{:.0}", s.dollars()),
            format!("{:.0}", h.dollars()),
            if (s.dollars() - h.dollars()).abs() < 1.0 {
                "tie".to_string()
            } else if s < h {
                "stage per request".to_string()
            } else {
                "host the archive".to_string()
            },
        ]);
    }
    t
}

/// Extension: shared serial link versus independent per-direction
/// channels, across modes — quantifies how much the paper's single-link
/// reading of "bandwidth ... fixed at 10 Mbps" matters.
pub fn duplex_ablation(degrees: f64) -> Table {
    let wf = canonical(degrees);
    let mut t = Table::new(vec!["mode", "shared_hours", "duplex_hours", "speedup_pct"]);
    for mode in DataMode::ALL {
        let shared = simulate(&wf, &ExecConfig::on_demand(mode));
        let duplex = simulate(&wf, &ExecConfig::on_demand(mode).with_duplex_link());
        let (a, b) = (shared.makespan_hours(), duplex.makespan_hours());
        t.push_row(vec![
            mode.label().to_string(),
            format!("{a:.4}"),
            format!("{b:.4}"),
            format!("{:.1}", (a - b) / a * 100.0),
        ]);
    }
    t
}

/// Extension: flat (the paper's assumption) versus real tiered 2008 S3
/// egress pricing at campaign scale.
pub fn tiered_egress_table() -> Table {
    use mcloud_cost::RateSchedule;
    let flat = RateSchedule::flat(0.16);
    let tiered = RateSchedule::s3_2008_transfer_out();
    let mosaic_bytes = 2_229_000_000u64; // the paper's 4-degree mosaic
    let mut t = Table::new(vec![
        "plates",
        "egress_tb",
        "flat_cost",
        "tiered_cost",
        "tiered_effective_rate",
    ]);
    for plates in [100u64, 3_900, 39_000, 100_000] {
        let bytes = mosaic_bytes * plates;
        t.push_row(vec![
            plates.to_string(),
            format!("{:.2}", bytes as f64 / 1e12),
            format!("{:.0}", flat.cost(bytes).dollars()),
            format!("{:.0}", tiered.cost(bytes).dollars()),
            format!("{:.4}", tiered.effective_rate(bytes)),
        ]);
    }
    t
}

/// Extension: service-level burst policies over a month of bursty traffic
/// (the paper's motivating "sporadic overloads" scenario, quantified).
pub fn burst_policy_table() -> Table {
    use mcloud_service::{bursty, simulate_service, ServiceConfig};
    let horizon = 30.0 * 24.0;
    let arrivals = bursty(
        0.5,
        horizon,
        1.0,
        &[(120.0, 24.0, 12.0), (480.0, 24.0, 12.0)],
        2008,
    );
    let mut t = Table::new(vec![
        "policy",
        "local",
        "cloud",
        "cloud_cost",
        "mean_wait_h",
        "p95_turnaround_h",
    ]);
    for (label, threshold) in [
        ("never", None),
        ("at_8_waiting", Some(8)),
        ("at_2_waiting", Some(2)),
        ("immediately", Some(0usize)),
    ] {
        let cfg = ServiceConfig {
            local_slots: 2,
            burst_threshold: threshold,
            ..ServiceConfig::default_burst()
        };
        let r = simulate_service(&arrivals, &cfg);
        t.push_row(vec![
            label.to_string(),
            r.local_requests().to_string(),
            r.cloud_requests().to_string(),
            format!("{:.2}", r.cloud_cost.dollars()),
            format!("{:.2}", r.mean_wait_hours()),
            format!("{:.2}", r.turnaround_quantile(0.95)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape_matches_paper() {
        let t = fig_processor_sweep(1.0);
        assert_eq!(t.len(), 8); // P = 1..128
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let cell = |row: &str, i: usize| -> f64 { row.split(',').nth(i).unwrap().parse().unwrap() };
        // Total cost increases with processors; runtime decreases.
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(cell(last, 5) > cell(first, 5), "total cost must rise");
        assert!(cell(last, 6) < cell(first, 6), "runtime must fall");
        // Paper headline: ~$0.60 and ~5.5 h on 1 proc; ~ $4 and ~0.3 h on 128.
        assert!(
            (cell(first, 5) - 0.60).abs() < 0.10,
            "1-proc cost {}",
            cell(first, 5)
        );
        assert!(
            (cell(first, 6) - 5.5).abs() < 0.5,
            "1-proc hours {}",
            cell(first, 6)
        );
        assert!(
            (cell(last, 5) - 4.0).abs() < 0.8,
            "128-proc cost {}",
            cell(last, 5)
        );
        // Cleanup storage never exceeds regular storage.
        for row in &rows {
            assert!(cell(row, 3) <= cell(row, 2) + 1e-9);
        }
    }

    #[test]
    fn fig7_mode_ordering() {
        let t = fig_mode_metrics(1.0);
        let csv = t.to_csv();
        let rows: Vec<Vec<String>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        assert_eq!(rows.len(), 3);
        let get = |mode: &str, col: usize| -> f64 {
            rows.iter().find(|r| r[0] == mode).unwrap()[col]
                .parse()
                .unwrap()
        };
        // Storage space-time: remote-io < cleanup < regular (Fig 7 top).
        assert!(get("remote-io", 1) < get("cleanup", 1));
        assert!(get("cleanup", 1) < get("regular", 1));
        // Transfers: remote-io moves the most, regular == cleanup (middle).
        assert!(get("remote-io", 2) > get("regular", 2));
        assert!((get("regular", 2) - get("cleanup", 2)).abs() < 1e-9);
        assert!(get("remote-io", 3) > get("regular", 3));
        // DM cost: remote-io highest, cleanup lowest (Fig 7 bottom).
        assert!(get("remote-io", 7) > get("regular", 7));
        assert!(get("cleanup", 7) <= get("regular", 7));
    }

    #[test]
    fn fig10_cpu_exceeds_dm_only_for_shared_storage_modes() {
        let t = fig10_cpu_vs_dm();
        assert_eq!(t.len(), 9);
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let cpu: f64 = cells[2].parse().unwrap();
            let dm: f64 = cells[3].parse().unwrap();
            match cells[1] {
                // "CPU cost is slightly higher than the data management
                // costs for the remote I/O execution mode" - same order of
                // magnitude; for regular/cleanup CPU dominates clearly.
                "remote-io" => assert!(dm > 0.3 * cpu && dm < 3.0 * cpu, "{line}"),
                _ => assert!(cpu > 5.0 * dm, "{line}"),
            }
        }
    }

    #[test]
    fn ccr_table_is_in_band() {
        let t = ccr_table();
        for line in t.to_csv().lines().skip(1) {
            let ccr: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
            assert!((0.04..=0.06).contains(&ccr), "{line}");
        }
    }

    #[test]
    fn fig11_costs_rise_with_ccr() {
        let t = fig11_ccr_sweep();
        let csv = t.to_csv();
        let rows: Vec<Vec<f64>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
            .collect();
        for w in rows.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            assert!(b[3] > a[3], "storage cost must rise with CCR");
            assert!(b[5] > a[5], "transfer cost must rise with CCR");
            assert!(b[6] > a[6], "total cost must rise with CCR");
            assert!(b[7] >= a[7] - 1e-9, "runtime must not fall with CCR");
            assert!(b[4] <= b[3] + 1e-12, "cleanup storage <= regular storage");
        }
    }

    #[test]
    fn q2b_break_even_is_tens_of_thousands() {
        let t = q2b_hosting();
        let csv = t.to_csv();
        let value = |key: &str| -> f64 {
            csv.lines()
                .find(|l| l.starts_with(key) || l.contains(key))
                .unwrap()
                .rsplit(',')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert_eq!(value("2MASS monthly storage"), 1800.0);
        assert_eq!(value("one-time ingest"), 1200.0);
        // Paper got 18,000 with a $0.10 saving; our simulated saving is
        // smaller (~$0.034), so the break-even is larger - same order.
        let be = value("break-even requests/month");
        assert!((10_000.0..200_000.0).contains(&be), "break-even {be}");
    }

    #[test]
    fn q3_matches_paper_magnitudes() {
        let t = q3_whole_sky();
        let csv = t.to_csv();
        let value = |key: &str| -> f64 {
            csv.lines()
                .find(|l| l.contains(key))
                .unwrap()
                .rsplit(',')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        // Paper: $34,632 staged / ~$34,125 hosted.
        let staged = value("whole sky, 3900 plates, staged");
        let hosted = value("whole sky, 3900 plates, hosted");
        assert!((30_000.0..40_000.0).contains(&staged), "staged {staged}");
        assert!(hosted < staged);
        // Paper: 21.52 / 24.25 / 25.12 months.
        for (deg, months) in [(1.0, 21.52), (2.0, 24.25), (4.0, 25.12)] {
            let got = value(&format!("{deg}deg mosaic archival"));
            assert!(
                (got - months).abs() / months < 0.15,
                "{deg}deg: {got} vs {months}"
            );
        }
    }

    #[test]
    fn granularity_ablation_shows_overcharge() {
        let t = granularity_ablation(1.0);
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            let cells: Vec<f64> = line.split(',').map(|c| c.parse().unwrap()).collect();
            assert!(cells[2] >= cells[1] - 1e-9, "hourly >= exact: {line}");
            assert!(cells[3] >= -1e-9);
        }
    }

    #[test]
    fn pareto_marks_extremes() {
        let t = pareto_table(1.0);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        // The cheapest plan (1 proc) is always on the frontier.
        assert!(rows.first().unwrap().ends_with("yes"));
        // Some minimum-runtime row is on the frontier. (128 processors can
        // legitimately be dominated: past the link bottleneck, extra nodes
        // only add cost - exactly the paper's over-provisioning lesson.)
        let time = |row: &str| -> f64 { row.split(',').nth(2).unwrap().parse().unwrap() };
        let min_time = rows.iter().map(|r| time(r)).fold(f64::INFINITY, f64::min);
        assert!(rows
            .iter()
            .any(|r| (time(r) - min_time).abs() < 1e-9 && r.ends_with("yes")));
    }

    #[test]
    fn baseline_reports_are_consistent() {
        let r = baseline_report(1.0);
        assert!(r.total_cost().dollars() > 0.5 && r.total_cost().dollars() < 0.8);
    }

    #[test]
    fn policy_ablation_gap_is_small_on_montage() {
        let t = policy_ablation(1.0);
        for line in t.to_csv().lines().skip(1) {
            let gap: f64 = line.rsplit(',').next().unwrap().parse().unwrap();
            assert!(gap.abs() < 15.0, "policy gap too large: {line}");
        }
    }

    #[test]
    fn failure_sweep_is_monotone_in_cost() {
        let t = failure_sweep(1.0);
        let costs: Vec<f64> = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(3).unwrap().parse().unwrap())
            .collect();
        for w in costs.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "{costs:?}");
        }
        // 30% failures cost dramatically more than none.
        assert!(costs.last().unwrap() > &(costs[0] * 1.2));
    }

    #[test]
    fn fault_reliability_table_is_deterministic_and_charges_for_waste() {
        let t = fault_reliability_table();
        let csv = t.to_csv();
        // Deterministic: the whole table reproduces byte for byte.
        assert_eq!(csv, fault_reliability_table().to_csv());
        let rows: Vec<Vec<String>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        assert_eq!(rows.len(), 6);
        // The zero-rate point injects task faults nowhere, but the held
        // transfer-fault/preemption axes may still charge waste; rising
        // task rates can only add failed attempts.
        let failed: Vec<u64> = rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(failed.last().unwrap() > &failed[0], "{failed:?}");
        let wasted: Vec<f64> = rows.iter().map(|r| r[9].parse().unwrap()).collect();
        assert!(wasted.last().unwrap() > &0.0);
        // Every row reports whether the retry budget survived the DAG.
        for r in &rows {
            assert!(r[6] == "yes" || r[6] == "no", "{r:?}");
        }
    }

    #[test]
    fn vm_overhead_punishes_wide_provisioning() {
        let t = vm_overhead_table(1.0);
        let rows: Vec<Vec<f64>> = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
            .collect();
        for r in &rows {
            assert!(r[2] >= r[1] - 1e-9, "boot overhead must not reduce cost");
            assert!(r[3] >= r[2] - 1e-9);
        }
        // The absolute penalty grows with processor count.
        let first_penalty = rows[0][3] - rows[0][1];
        let last_penalty = rows.last().unwrap()[3] - rows.last().unwrap()[1];
        assert!(last_penalty > first_penalty * 10.0);
    }

    #[test]
    fn batching_beats_sequential_on_shared_pool() {
        let t = batch_vs_sequential(0.5, 4, 16);
        let rows: Vec<Vec<String>> = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        let seq_hours: f64 = rows[0][1].parse().unwrap();
        let batch_hours: f64 = rows[1][1].parse().unwrap();
        let seq_cost: f64 = rows[0][2].parse().unwrap();
        let batch_cost: f64 = rows[1][2].parse().unwrap();
        assert!(batch_hours < seq_hours, "batching must pipeline");
        assert!(batch_cost < seq_cost, "higher utilization must cut cost");
    }

    #[test]
    fn storage_crossover_exists_and_is_large() {
        let t = storage_rate_crossover(1.0);
        let csv = t.to_csv();
        assert!(
            !csv.contains("none in"),
            "a crossover must exist once storage dwarfs transfer: {csv}"
        );
        let theta: f64 = csv
            .lines()
            .find(|l| l.starts_with("crossover_theta"))
            .unwrap()
            .rsplit(',')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        // At 2008 rates remote I/O loses by ~15x on DM cost; the flip
        // needs a substantially distorted rate card.
        assert!(theta > 2.0, "theta {theta}");
    }

    #[test]
    fn fast_links_recover_the_papers_128proc_point() {
        // At 10 Mbps the 4-degree/128-processor run is wire-bound and
        // costs ~$21; with the link bottleneck removed it converges to the
        // paper's printed $13.92 / ~1 h — strong evidence the paper's
        // figure reflects an unconstrained link at that point.
        let t = bandwidth_sweep(4.0, 128);
        let rows: Vec<Vec<f64>> = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
            .collect();
        for w in rows.windows(2) {
            assert!(w[1][1] <= w[0][1] + 1e-9, "runtime monotone in bandwidth");
            assert!(w[1][2] <= w[0][2] + 1e-9, "cost monotone in bandwidth");
        }
        let fastest = rows.last().unwrap();
        assert!(
            (fastest[1] - 1.05).abs() < 0.15,
            "runtime -> ~1 h: {}",
            fastest[1]
        );
        assert!(
            (fastest[2] - 13.92).abs() < 1.5,
            "cost -> ~$14: {}",
            fastest[2]
        );
    }

    #[test]
    fn autoscaling_dominates_fixed_pools() {
        let t = autoscale_table();
        let rows: Vec<Vec<String>> = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        let cost = |i: usize| -> f64 { rows[i][3].parse().unwrap() };
        let max_wait = |i: usize| -> f64 { rows[i][5].parse().unwrap() };
        // Rows: fixed1, fixed4, auto 1..8, auto 0..8.
        assert!(max_wait(0) > 10.0, "one slot must drown in the burst");
        assert!(
            cost(2) < cost(1),
            "autoscaling beats the big fixed pool on cost"
        );
        assert!(max_wait(2) < max_wait(1) + 1.0, "without losing latency");
        assert!(cost(3) < cost(2), "scale-to-zero is cheapest");
    }

    #[test]
    fn seed_variability_is_small() {
        let t = variability_table();
        for line in t.to_csv().lines().skip(1) {
            let rel: f64 = line.rsplit(',').next().unwrap().parse().unwrap();
            assert!(rel < 3.0, "relative sd too large: {line}");
        }
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn q2b_service_has_a_volume_crossover() {
        let t = hosted_service_month();
        let csv = t.to_csv();
        assert!(csv.contains("stage per request"));
        assert!(csv.contains("host the archive"));
        assert!(csv.contains("tie"));
    }

    #[test]
    fn duplex_only_helps_remote_io() {
        let t = duplex_ablation(1.0);
        for line in t.to_csv().lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let speedup: f64 = cells[3].parse().unwrap();
            match cells[0] {
                "remote-io" => assert!(speedup > 5.0, "{line}"),
                _ => assert!(speedup.abs() < 1.0, "{line}"),
            }
        }
    }

    #[test]
    fn tiered_pricing_discounts_at_scale() {
        let t = tiered_egress_table();
        let rows: Vec<Vec<f64>> = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
            .collect();
        // Small campaigns: tiered ($0.17) is pricier than the paper's flat
        // $0.16; huge campaigns: tiered wins on volume discounts.
        assert!(rows[0][3] > rows[0][2]);
        let last = rows.last().unwrap();
        assert!(last[3] < last[2]);
        // Effective rate declines monotonically.
        for w in rows.windows(2) {
            assert!(w[1][4] <= w[0][4] + 1e-12);
        }
    }

    #[test]
    fn burst_policies_trade_money_for_latency() {
        let t = burst_policy_table();
        let rows: Vec<Vec<String>> = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        assert_eq!(rows.len(), 4);
        let cost = |i: usize| -> f64 { rows[i][3].parse().unwrap() };
        let p95 = |i: usize| -> f64 { rows[i][5].parse().unwrap() };
        // Never-burst is free but slow; immediate burst is the dearest and
        // fastest.
        assert_eq!(cost(0), 0.0);
        assert!(cost(3) > cost(1));
        assert!(p95(0) > p95(3) * 2.0);
    }
}
