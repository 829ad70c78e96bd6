//! Cross-crate pipeline tests: generator -> DAX -> parser -> simulator ->
//! sweeps, plus mode-semantics orderings on all three canonical workloads.

use montage_cloud::dag::{from_dax, to_dax, to_dot, DotStyle};
use montage_cloud::prelude::*;

#[test]
fn dax_roundtripped_workflow_simulates_equivalently() {
    // Parsing re-numbers files (inputs-first per job), which permutes the
    // FCFS stage-in order, so the timeline may shift by a hair — but every
    // order-invariant quantity must match exactly, and the time-dependent
    // ones within a fraction of a percent.
    let wf = montage_1_degree();
    let back = from_dax(&to_dax(&wf)).expect("generated DAX parses");
    for mode in DataMode::ALL {
        let cfg = ExecConfig::on_demand(mode);
        let a = simulate(&wf, &cfg);
        let b = simulate(&back, &cfg);
        assert_eq!(a.bytes_in, b.bytes_in, "{}", mode.label());
        assert_eq!(a.bytes_out, b.bytes_out);
        assert_eq!(a.transfers_in, b.transfers_in);
        assert!(a.costs.cpu.approx_eq(b.costs.cpu, 1e-12));
        let (ma, mb) = (a.makespan.as_secs_f64(), b.makespan.as_secs_f64());
        assert!((ma - mb).abs() / ma < 0.01, "makespan {ma} vs {mb}");
        let (sa, sb) = (a.storage_byte_seconds, b.storage_byte_seconds);
        assert!((sa - sb).abs() / sa < 0.02, "storage {sa} vs {sb}");
        assert!(a.total_cost().approx_eq(b.total_cost(), 0.01));
    }
}

#[test]
fn mode_orderings_hold_for_all_canonical_sizes() {
    // Figures 7-9: "The cost distributions are similar for all the
    // workflows and differ only in magnitude."
    for wf in [montage_1_degree(), montage_2_degree(), montage_4_degree()] {
        let points = mode_matrix(&wf, &ExecConfig::paper_default());
        let by = |m: DataMode| points.iter().find(|p| p.mode == m).unwrap();
        let (rio, reg, clean) = (
            &by(DataMode::RemoteIo).report,
            &by(DataMode::Regular).report,
            &by(DataMode::DynamicCleanup).report,
        );
        // Storage space-time: remote < cleanup < regular.
        assert!(
            rio.storage_byte_seconds < clean.storage_byte_seconds,
            "{}",
            wf.name()
        );
        assert!(
            clean.storage_byte_seconds < reg.storage_byte_seconds,
            "{}",
            wf.name()
        );
        // Transfers: remote moves the most both ways; regular == cleanup.
        assert!(rio.bytes_in > reg.bytes_in);
        assert!(rio.bytes_out > reg.bytes_out);
        assert_eq!(reg.bytes_in, clean.bytes_in);
        assert_eq!(reg.bytes_out, clean.bytes_out);
        // Total cost: remote I/O highest, cleanup lowest.
        assert!(rio.total_cost() > reg.total_cost());
        assert!(clean.total_cost() <= reg.total_cost());
        // CPU identical everywhere.
        assert!(rio.costs.cpu.approx_eq(reg.costs.cpu, 1e-12));
        assert!(reg.costs.cpu.approx_eq(clean.costs.cpu, 1e-12));
    }
}

#[test]
fn rate_sensitivity_flips_the_mode_choice() {
    // "If the storage charges were higher and transfer costs were lower,
    // it is possible that the Remote I/O mode would have resulted in the
    // least total cost of the three." Verify that sensitivity: crank
    // storage way up, make transfers free.
    let wf = montage_1_degree();
    let mut cfg = ExecConfig::paper_default();
    cfg.pricing = Pricing {
        storage_per_gb_month: 50_000.0,
        transfer_in_per_gb: 0.0,
        transfer_out_per_gb: 0.0,
        cpu_per_hour: 0.10,
    };
    let points = mode_matrix(&wf, &cfg);
    let by = |m: DataMode| points.iter().find(|p| p.mode == m).unwrap();
    let rio = by(DataMode::RemoteIo).report.total_cost();
    let reg = by(DataMode::Regular).report.total_cost();
    let clean = by(DataMode::DynamicCleanup).report.total_cost();
    assert!(rio < reg, "remote I/O must win under storage-heavy pricing");
    assert!(rio < clean);
}

#[test]
fn ccr_scaled_workflows_price_monotonically() {
    let wf = montage_1_degree();
    let points = ccr_sweep(&wf, &ExecConfig::fixed(8), &[0.05, 0.2, 0.8]);
    for w in points.windows(2) {
        assert!(w[1].report.total_cost() > w[0].report.total_cost());
        assert!(w[1].report.makespan >= w[0].report.makespan);
    }
}

#[test]
fn generated_workflows_export_dot() {
    let wf = generate(&MosaicConfig::new(0.5));
    let dot = to_dot(&wf, DotStyle::Tasks);
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("->"));
    let dot2 = to_dot(&wf, DotStyle::Bipartite);
    assert!(dot2.contains("shape=ellipse"));
}

#[test]
fn arbitrary_degree_requests_work_end_to_end() {
    for degrees in [0.5, 1.5, 3.0] {
        let wf = generate(&MosaicConfig::new(degrees).region("NGC7000").band(Band::H));
        let r = simulate(&wf, &ExecConfig::paper_default());
        assert!(r.total_cost() > Money::ZERO, "{degrees} deg");
        assert!(r.makespan_hours() > 0.0);
        // Bigger requests cost more.
        if degrees > 1.0 {
            let small = simulate(&montage_1_degree(), &ExecConfig::paper_default());
            assert!(r.total_cost() > small.total_cost());
        }
    }
}

#[test]
fn provisioning_advice_is_consistent_with_sweep() {
    let wf = montage_2_degree();
    let points = processor_sweep(
        &wf,
        &ExecConfig::paper_default(),
        &geometric_processors(128),
    );
    let ct: Vec<CostTimePoint> = points
        .iter()
        .map(|p| CostTimePoint {
            cost: p.report.total_cost().dollars(),
            time: p.report.makespan.as_secs_f64(),
        })
        .collect();
    // A generous deadline picks the cheapest plan; a tight one picks more
    // processors and costs more.
    let lax = cheapest_within_deadline(&ct, 100.0 * 3600.0).unwrap();
    let tight = cheapest_within_deadline(&ct, 1.0 * 3600.0).unwrap();
    assert_eq!(points[lax].processors, 1);
    assert!(points[tight].processors > points[lax].processors);
    assert!(ct[tight].cost > ct[lax].cost);
    // Every frontier point is feasible for its own makespan (sanity).
    for i in pareto_frontier(&ct) {
        assert_eq!(cheapest_within_deadline(&ct, ct[i].time), Some(i));
    }
}

#[test]
fn trace_reconstructs_utilization() {
    // The Gantt trace must account exactly for the busy time that the
    // utilization figure reports.
    let wf = montage_1_degree();
    let (r, sink) = simulate_traced(&wf, &ExecConfig::fixed(4));
    let mut starts = std::collections::HashMap::new();
    let busy: f64 = sink
        .events()
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::TaskStarted { task, .. } => {
                starts.insert(task, e.at);
                None
            }
            TraceEvent::TaskFinished { task, .. } => {
                Some(e.at.as_secs_f64() - starts[&task].as_secs_f64())
            }
            _ => None,
        })
        .sum();
    let expect = r.cpu_utilization * 4.0 * r.makespan.as_secs_f64();
    assert!(
        (busy - expect).abs() / expect < 1e-6,
        "busy {busy} vs utilization-implied {expect}"
    );
    // The trace runtimes are exactly the task runtimes.
    assert!((busy - wf.total_runtime_s()).abs() < 1e-3);
}
