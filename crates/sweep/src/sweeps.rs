//! The parameter sweeps behind the paper's figures, run in parallel.
//!
//! Each sweep point is an independent deterministic simulation. A sweep
//! builds its full `ExecConfig` list up front and hands it to
//! [`simulate_batch`], which fans the points across the persistent worker
//! pool with one warm scratch per lane (the simulations themselves stay
//! single-threaded and reproducible, so the batch output is byte-identical
//! to a sequential loop).

use mcloud_core::{
    simulate_batch, simulate_batch_progress, simulate_batch_workflows, BatchScratch, DataMode,
    ExecConfig, FaultModel, Provisioning, Report,
};
use mcloud_dag::Workflow;

/// One point of a processor-count sweep (Figures 4–6).
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorPoint {
    /// Processors provisioned.
    pub processors: u32,
    /// Simulation result.
    pub report: Report,
}

/// One point of a data-management-mode comparison (Figures 7–10).
#[derive(Debug, Clone, PartialEq)]
pub struct ModePoint {
    /// The data-management mode.
    pub mode: DataMode,
    /// Simulation result.
    pub report: Report,
}

/// One point of a CCR sweep (Figure 11).
#[derive(Debug, Clone, PartialEq)]
pub struct CcrPoint {
    /// The CCR the workflow was rescaled to.
    pub target_ccr: f64,
    /// The CCR actually achieved after integer-byte rounding.
    pub actual_ccr: f64,
    /// Simulation result.
    pub report: Report,
}

/// One point of a failure-rate sweep: the same plan re-simulated with
/// task faults injected at `failure_prob` per attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRatePoint {
    /// Per-attempt task failure probability injected at this point.
    pub failure_prob: f64,
    /// Simulation result (check [`Report::completed`]: points whose retry
    /// budget was exhausted carry a partial report).
    pub report: Report,
}

/// One point of a link-bandwidth sweep: the same plan re-simulated with a
/// different user↔storage link speed.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthPoint {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// Simulation result.
    pub report: Report,
}

/// Per-point configurations of a task-failure-rate axis. Shared by the
/// from-scratch and cached drivers so the two paths cannot drift.
pub(crate) fn fault_rate_configs(base: &ExecConfig, probs: &[f64], seed: u64) -> Vec<ExecConfig> {
    probs
        .iter()
        .map(|&p| {
            // A zero-rate point keeps the base configuration untouched, so
            // it reproduces the fault-free baseline byte for byte.
            let faults = if p > 0.0 {
                let mut fm = base.faults.unwrap_or(FaultModel::tasks_only(0.0, seed));
                fm.task_failure_prob = p;
                fm.seed = seed;
                Some(fm)
            } else {
                base.faults
            };
            ExecConfig {
                faults,
                ..base.clone()
            }
        })
        .collect()
}

/// Per-point configurations of a processor axis (fixed provisioning).
pub(crate) fn processor_configs(base: &ExecConfig, processors: &[u32]) -> Vec<ExecConfig> {
    processors
        .iter()
        .map(|&p| ExecConfig {
            provisioning: Provisioning::Fixed { processors: p },
            ..base.clone()
        })
        .collect()
}

/// Per-point configurations of a link-bandwidth axis.
pub(crate) fn bandwidth_configs(base: &ExecConfig, bandwidths_bps: &[f64]) -> Vec<ExecConfig> {
    bandwidths_bps
        .iter()
        .map(|&bps| ExecConfig {
            bandwidth_bps: bps,
            ..base.clone()
        })
        .collect()
}

/// Simulates the workflow at each task-failure rate, in parallel. Every
/// point uses the same `seed`, so the sweep isolates the rate axis; the
/// retry policy comes from `base`.
pub fn fault_rate_sweep(
    wf: &Workflow,
    base: &ExecConfig,
    probs: &[f64],
    seed: u64,
) -> Vec<FaultRatePoint> {
    let cfgs = fault_rate_configs(base, probs, seed);
    let reports = simulate_batch(wf, &cfgs, &mut BatchScratch::new());
    probs
        .iter()
        .zip(reports)
        .map(|(&p, report)| FaultRatePoint {
            failure_prob: p,
            report,
        })
        .collect()
}

/// The paper's processor axis: 1, 2, 4, ... up to `max` ("from 1 to 128 in
/// a geometric progression").
pub fn geometric_processors(max: u32) -> Vec<u32> {
    assert!(max >= 1);
    let mut out = Vec::new();
    let mut p = 1u32;
    while p <= max {
        out.push(p);
        match p.checked_mul(2) {
            Some(next) => p = next,
            None => break,
        }
    }
    out
}

/// Simulates the workflow under fixed provisioning for every processor
/// count, in parallel.
pub fn processor_sweep(
    wf: &Workflow,
    base: &ExecConfig,
    processors: &[u32],
) -> Vec<ProcessorPoint> {
    let cfgs = processor_configs(base, processors);
    let reports = simulate_batch(wf, &cfgs, &mut BatchScratch::new());
    processors
        .iter()
        .zip(reports)
        .map(|(&p, report)| ProcessorPoint {
            processors: p,
            report,
        })
        .collect()
}

/// [`processor_sweep`] with a live progress callback: `on_progress(done,
/// total)` fires after each completed point, in completion order, from
/// whichever pool lane finished it. The sweep's results are byte-identical
/// to [`processor_sweep`] — the callback observes, it cannot perturb.
/// This is the heartbeat behind `mcloud sweep --progress`.
pub fn processor_sweep_progress(
    wf: &Workflow,
    base: &ExecConfig,
    processors: &[u32],
    on_progress: &(dyn Fn(usize, usize) + Sync),
) -> Vec<ProcessorPoint> {
    let cfgs = processor_configs(base, processors);
    let reports = simulate_batch_progress(wf, &cfgs, &mut BatchScratch::new(), on_progress);
    processors
        .iter()
        .zip(reports)
        .map(|(&p, report)| ProcessorPoint {
            processors: p,
            report,
        })
        .collect()
}

/// Simulates the workflow under each of the three data-management modes,
/// in parallel.
pub fn mode_matrix(wf: &Workflow, base: &ExecConfig) -> Vec<ModePoint> {
    let cfgs: Vec<ExecConfig> = DataMode::ALL
        .iter()
        .map(|&mode| ExecConfig {
            mode,
            ..base.clone()
        })
        .collect();
    let reports = simulate_batch(wf, &cfgs, &mut BatchScratch::new());
    DataMode::ALL
        .iter()
        .zip(reports)
        .map(|(&mode, report)| ModePoint { mode, report })
        .collect()
}

/// Simulates the workflow at each link bandwidth, in parallel — the axis
/// behind the "what does a faster link buy" analyses.
pub fn bandwidth_sweep(
    wf: &Workflow,
    base: &ExecConfig,
    bandwidths_bps: &[f64],
) -> Vec<BandwidthPoint> {
    let cfgs = bandwidth_configs(base, bandwidths_bps);
    let reports = simulate_batch(wf, &cfgs, &mut BatchScratch::new());
    bandwidths_bps
        .iter()
        .zip(reports)
        .map(|(&bps, report)| BandwidthPoint {
            bandwidth_bps: bps,
            report,
        })
        .collect()
}

/// Rescales every file size so the workflow's CCR at the given link equals
/// `desired_ccr` — the paper's transformation: "we multiply each file size
/// by `CCR_d / CCR_r` to get the desired CCR".
///
/// # Panics
/// Panics if `desired_ccr` is not positive and finite.
pub fn scale_to_ccr(wf: &Workflow, desired_ccr: f64, link_bps: f64) -> Workflow {
    assert!(
        desired_ccr.is_finite() && desired_ccr > 0.0,
        "desired CCR must be positive, got {desired_ccr}"
    );
    let real = wf.ccr_at_link(link_bps);
    let mut scaled = wf.clone();
    scaled.scale_file_sizes(desired_ccr / real);
    scaled
}

/// Simulates the workflow rescaled to each target CCR, in parallel
/// (Figure 11 uses 8 fixed processors on the 1-degree workflow). The
/// rescaled workflows are built up front; the batch varies the *workflow*
/// under one shared configuration.
pub fn ccr_sweep(wf: &Workflow, base: &ExecConfig, targets: &[f64]) -> Vec<CcrPoint> {
    let scaled: Vec<Workflow> = targets
        .iter()
        .map(|&ccr| scale_to_ccr(wf, ccr, base.bandwidth_bps))
        .collect();
    let reports = simulate_batch_workflows(&scaled, base, &mut BatchScratch::new());
    targets
        .iter()
        .zip(scaled.iter())
        .zip(reports)
        .map(|((&ccr, sw), report)| CcrPoint {
            target_ccr: ccr,
            actual_ccr: sw.ccr_at_link(base.bandwidth_bps),
            report,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcloud_core::simulate;
    use mcloud_montage::{montage_1_degree, paper_figure3};

    #[test]
    fn geometric_progression_matches_paper_axis() {
        assert_eq!(geometric_processors(128), vec![1, 2, 4, 8, 16, 32, 64, 128]);
        assert_eq!(geometric_processors(1), vec![1]);
        assert_eq!(geometric_processors(100), vec![1, 2, 4, 8, 16, 32, 64]);
    }

    #[test]
    fn processor_sweep_covers_every_count_in_order() {
        let wf = paper_figure3();
        let points = processor_sweep(&wf, &ExecConfig::paper_default(), &[1, 2, 4]);
        let procs: Vec<u32> = points.iter().map(|p| p.processors).collect();
        assert_eq!(procs, vec![1, 2, 4]);
        for p in &points {
            assert_eq!(p.report.processors, Some(p.processors));
        }
    }

    #[test]
    fn processor_sweep_equals_sequential_simulation() {
        // Parallel execution must not perturb results.
        let wf = paper_figure3();
        let base = ExecConfig::paper_default();
        let points = processor_sweep(&wf, &base, &[1, 3]);
        for p in &points {
            let direct = simulate(&wf, &ExecConfig::fixed(p.processors));
            assert_eq!(p.report, direct);
        }
    }

    #[test]
    fn progress_callback_counts_every_point_without_perturbing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let wf = montage_1_degree();
        let base = ExecConfig::paper_default();
        let procs = [1, 2, 4, 8, 12, 16, 24, 32];
        let fired = AtomicUsize::new(0);
        let points = processor_sweep_progress(&wf, &base, &procs, &|done, total| {
            assert!(done >= 1 && done <= total);
            assert_eq!(total, procs.len());
            fired.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(fired.load(Ordering::Relaxed), procs.len());
        assert_eq!(points, processor_sweep(&wf, &base, &procs));
    }

    #[test]
    fn mode_matrix_covers_all_three_modes() {
        let wf = paper_figure3();
        let points = mode_matrix(&wf, &ExecConfig::paper_default());
        let modes: Vec<DataMode> = points.iter().map(|p| p.mode).collect();
        assert_eq!(modes, DataMode::ALL.to_vec());
    }

    #[test]
    fn scale_to_ccr_hits_the_target() {
        let wf = montage_1_degree();
        for target in [0.01, 0.053, 0.2, 1.0] {
            let scaled = scale_to_ccr(&wf, target, 10e6);
            let got = scaled.ccr_at_link(10e6);
            assert!(
                (got - target).abs() / target < 0.01,
                "target {target}, got {got}"
            );
            // Structure untouched.
            assert_eq!(scaled.num_tasks(), wf.num_tasks());
            assert!((scaled.total_runtime_s() - wf.total_runtime_s()).abs() < 1e-9);
        }
    }

    #[test]
    fn ccr_sweep_reports_actuals() {
        let wf = paper_figure3();
        let points = ccr_sweep(&wf, &ExecConfig::fixed(2), &[0.05, 0.5]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!((p.actual_ccr - p.target_ccr).abs() / p.target_ccr < 0.01);
        }
        // More data-intensive means more transfer spend.
        assert!(points[1].report.costs.transfer() > points[0].report.costs.transfer());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn scale_to_ccr_rejects_zero() {
        scale_to_ccr(&paper_figure3(), 0.0, 10e6);
    }

    #[test]
    fn bandwidth_sweep_equals_sequential_simulation() {
        let wf = paper_figure3();
        let base = ExecConfig::paper_default();
        let bws = [5e6, 10e6, 100e6];
        let points = bandwidth_sweep(&wf, &base, &bws);
        assert_eq!(points.len(), 3);
        for (point, &bps) in points.iter().zip(&bws) {
            let direct = simulate(
                &wf,
                &ExecConfig {
                    bandwidth_bps: bps,
                    ..base.clone()
                },
            );
            assert_eq!(point.report, direct, "bandwidth {bps}");
        }
        // A faster link can only shorten the makespan.
        assert!(points[2].report.makespan <= points[0].report.makespan);
    }

    #[test]
    fn fault_rate_sweep_inflates_attempts_monotonically() {
        use mcloud_core::RetryPolicy;
        let wf = paper_figure3();
        let base = ExecConfig::fixed(2).with_retry(RetryPolicy::bounded(20));
        let probs = [0.0, 0.1, 0.4];
        let points = fault_rate_sweep(&wf, &base, &probs, 2008);
        assert_eq!(points.len(), 3);
        // The zero point is byte-identical to the fault-free baseline.
        assert_eq!(points[0].report, simulate(&wf, &base));
        assert_eq!(points[0].report.failed_attempts, 0);
        for p in &points {
            assert!(p.report.completed, "rate {}", p.failure_prob);
        }
        // Higher rates can only add failed attempts and cost (same seed,
        // same workflow; the draw streams differ but the trend holds at
        // these rates on this DAG).
        assert!(points[2].report.failed_attempts > points[0].report.failed_attempts);
        assert!(points[2].report.total_cost() >= points[0].report.total_cost());
        // Parallel fan-out equals sequential simulation.
        let seq = fault_rate_sweep(&wf, &base, &[probs[2]], 2008);
        assert_eq!(seq[0].report, points[2].report);
    }
}
