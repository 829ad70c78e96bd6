//! Incremental bandwidth sweeps: checkpoint/fork re-simulation.
//!
//! With prestaged inputs, runs that differ only in link bandwidth share
//! everything up to their first transfer — the final stage-out. The
//! drivers here walk a bandwidth axis through an [`IncrementalChain`],
//! which snapshots the full deterministic state during each run and forks
//! the next point off the latest checkpoint its divergence witness proved
//! sound, replaying only the divergent suffix.
//!
//! Results are **byte-identical** to [`crate::bandwidth_sweep`] at every
//! point (both build their configurations from the same shared helper);
//! points the witness cannot bound silently fall back to `t = 0`. Under
//! more than one worker lane the axis is split into contiguous chunks —
//! one chain per lane — so parallel speedup composes with within-chunk
//! reuse without perturbing a single output byte.

use mcloud_core::{ExecConfig, IncrementalChain, IncrementalStats, Report};
use mcloud_dag::Workflow;
use mcloud_simkit::configured_lanes;

use crate::sweeps::{bandwidth_configs, processor_sweep, BandwidthPoint, ProcessorPoint};

/// Runs `cfgs` through per-lane [`IncrementalChain`]s: the axis is split
/// into `lanes` contiguous, balanced chunks, each walked in order by its
/// own chain on its own thread. Reports come back in input order and are
/// byte-identical to sequential from-scratch simulation regardless of
/// `lanes` (each chunk's first point simply falls back to `t = 0`).
pub(crate) fn run_chunked(
    wf: &Workflow,
    cfgs: &[ExecConfig],
    lanes: usize,
) -> (Vec<Report>, IncrementalStats) {
    let total = cfgs.len();
    let lanes = lanes.clamp(1, total.max(1));
    let run_chunk = |chunk: &[ExecConfig]| {
        let mut chain = IncrementalChain::new();
        let reports: Vec<Report> = chunk
            .iter()
            .enumerate()
            .map(|(i, cfg)| chain.run_point(wf, cfg, chunk.get(i + 1)))
            .collect();
        (reports, chain.stats())
    };
    if lanes == 1 {
        return run_chunk(cfgs);
    }
    // Contiguous balanced split: the first `total % lanes` chunks take one
    // extra point. Chunk order is input order, so concatenation restores it.
    let base = total / lanes;
    let rem = total % lanes;
    let mut chunks = Vec::with_capacity(lanes);
    let mut start = 0;
    for lane in 0..lanes {
        let end = start + base + usize::from(lane < rem);
        chunks.push(&cfgs[start..end]);
        start = end;
    }
    let per_lane: Vec<(Vec<Report>, IncrementalStats)> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| s.spawn(|| run_chunk(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut reports = Vec::with_capacity(total);
    let mut stats = IncrementalStats::default();
    for (lane_reports, lane_stats) in per_lane {
        reports.extend(lane_reports);
        stats.points += lane_stats.points;
        stats.resumed += lane_stats.resumed;
        stats.reused_events += lane_stats.reused_events;
        stats.total_events += lane_stats.total_events;
    }
    (reports, stats)
}

/// [`crate::processor_sweep`] plus [`IncrementalStats`] filled from the
/// reports: `points` and `total_events` count the sweep, and `resumed` and
/// `reused_events` are zero because processor axes always simulate from
/// scratch. Kept only for the end-to-end benchmark in `perfbench/`, which
/// links it.
pub fn processor_sweep_incremental_stats(
    wf: &Workflow,
    base: &ExecConfig,
    processors: &[u32],
) -> (Vec<ProcessorPoint>, IncrementalStats) {
    let points = processor_sweep(wf, base, processors);
    let stats = IncrementalStats {
        points: points.len() as u64,
        total_events: points.iter().map(|p| p.report.events_processed).sum(),
        ..IncrementalStats::default()
    };
    (points, stats)
}

/// [`crate::bandwidth_sweep`] via checkpoint/fork re-simulation. With
/// prestaged inputs almost the whole run precedes the first transfer, so
/// nearly everything is reused; cold-staged points fall back (their first
/// transfer is at `t = 0`) and match from-scratch output exactly.
pub fn bandwidth_sweep_incremental(
    wf: &Workflow,
    base: &ExecConfig,
    bandwidths_bps: &[f64],
) -> Vec<BandwidthPoint> {
    bandwidth_sweep_incremental_stats(wf, base, bandwidths_bps).0
}

/// [`bandwidth_sweep_incremental`] plus the chain's reuse counters.
pub fn bandwidth_sweep_incremental_stats(
    wf: &Workflow,
    base: &ExecConfig,
    bandwidths_bps: &[f64],
) -> (Vec<BandwidthPoint>, IncrementalStats) {
    let cfgs = bandwidth_configs(base, bandwidths_bps);
    let (reports, stats) = run_chunked(wf, &cfgs, configured_lanes());
    let points = bandwidths_bps
        .iter()
        .zip(reports)
        .map(|(&bps, report)| BandwidthPoint {
            bandwidth_bps: bps,
            report,
        })
        .collect();
    (points, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweeps::bandwidth_sweep;
    use mcloud_core::{DataMode, FaultModel, Provisioning, RetryPolicy};
    use mcloud_montage::{generate, MosaicConfig};
    use mcloud_simkit::SimRng;

    const MBPS: [f64; 5] = [5.0, 10.0, 20.0, 40.0, 100.0];

    /// Draws one base configuration: any mode, fixed or on-demand
    /// provisioning, prestaged inputs on or off, and each of task faults,
    /// transfer faults and preemption independently on or off.
    fn draw_base(rng: &mut SimRng) -> ExecConfig {
        let mode = DataMode::ALL[rng.below(3) as usize];
        let mut cfg = if rng.chance(0.5) {
            ExecConfig::fixed(1 + rng.below(64) as u32).mode(mode)
        } else {
            ExecConfig::on_demand(mode)
        };
        cfg = cfg.prestaged(rng.chance(0.5));
        let mut draw_if_on = |lo: f64, hi: f64| {
            if rng.chance(0.5) {
                rng.f64_in(lo, hi)
            } else {
                0.0
            }
        };
        let faults = FaultModel {
            task_failure_prob: draw_if_on(0.01, 0.2),
            transfer_failure_prob: draw_if_on(0.01, 0.2),
            proc_mttf_s: draw_if_on(5_000.0, 200_000.0),
            seed: rng.next_u64(),
        };
        if faults.task_failure_prob + faults.transfer_failure_prob + faults.proc_mttf_s > 0.0 {
            // Small budgets exhaust now and then: aborted runs must match
            // their from-scratch twins too.
            cfg = cfg
                .with_fault_model(faults)
                .with_retry(RetryPolicy::bounded(1 + rng.below(8) as u32));
        }
        cfg
    }

    #[test]
    fn bandwidth_axis_matches_scratch_at_one_and_four_lanes() {
        // Seeded differential test over 100 drawn configurations, six
        // bandwidths each in drawn (unsorted) order, checked at one lane
        // and at four lanes (chunks of one and two points).
        let mut rng = SimRng::new(0xBA0D_2008);
        let mut resumed = 0;
        for case in 0..100 {
            let degrees = rng.f64_in(0.5, 2.0);
            let wf = generate(&MosaicConfig::new(degrees));
            let base = draw_base(&mut rng);
            let bws: Vec<f64> = (0..6).map(|_| rng.f64_in(1.0, 1_000.0) * 1e6).collect();
            let scratch = bandwidth_sweep(&wf, &base, &bws);
            let cfgs = bandwidth_configs(&base, &bws);
            for lanes in [1, 4] {
                let (reports, stats) = run_chunked(&wf, &cfgs, lanes);
                resumed += stats.resumed;
                for (point, report) in scratch.iter().zip(reports) {
                    assert_eq!(
                        point.report, report,
                        "case {case} ({degrees:.3} deg, {base:?}): {} bps drifted at {lanes} lanes",
                        point.bandwidth_bps
                    );
                }
            }
        }
        assert!(resumed > 0, "no drawn configuration ever resumed");
    }

    #[test]
    fn public_drivers_agree_with_their_scratch_twins() {
        let wf = generate(&MosaicConfig::new(1.0));
        let base = ExecConfig::paper_default().prestaged(true);
        let bws: Vec<f64> = MBPS.iter().map(|m| m * 1e6).collect();
        assert_eq!(
            bandwidth_sweep_incremental(&wf, &base, &bws),
            bandwidth_sweep(&wf, &base, &bws),
        );
        let procs = [1, 2, 4, 8];
        let (points, stats) = processor_sweep_incremental_stats(&wf, &base, &procs);
        assert_eq!(points, processor_sweep(&wf, &base, &procs));
        let events: u64 = points.iter().map(|p| p.report.events_processed).sum();
        assert_eq!(
            stats,
            IncrementalStats {
                points: 4,
                resumed: 0,
                reused_events: 0,
                total_events: events,
            }
        );
    }

    #[test]
    fn lane_counts_beyond_the_axis_are_clamped() {
        let wf = generate(&MosaicConfig::new(1.0));
        let base = ExecConfig {
            provisioning: Provisioning::Fixed { processors: 8 },
            ..ExecConfig::paper_default()
        };
        let cfgs = bandwidth_configs(&base, &[5e6, 10e6]);
        let (reports, stats) = run_chunked(&wf, &cfgs, 64);
        assert_eq!(reports.len(), 2);
        assert_eq!(stats.points, 2);
    }
}
