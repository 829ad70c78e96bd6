//! `sweep`: one op is a study of four axis sweeps over the 8-degree
//! workflow generated during set-up. Three run through the default
//! incremental entry points; the fault-rate axis runs from scratch,
//! because its incremental entry point returns reports that differ from
//! `fault_rate_sweep` once one chain covers rates 0.02 to 0.04 of this
//! study (as it does on a single lane). Cache, CLI and service are
//! bypassed.

use std::time::Instant;

use mcloud_core::{DataMode, IncrementalStats, Report};
use mcloud_dag::Workflow;
use mcloud_montage::{generate, MosaicConfig};
use mcloud_sweep::{
    bandwidth_sweep, bandwidth_sweep_incremental_stats, fault_rate_sweep, processor_sweep,
    processor_sweep_incremental_stats, BandwidthPoint, FaultRatePoint, ProcessorPoint,
};

use crate::inputs::{sweep_study, SweepStudy};
use crate::layers::{ratio, EngineTally, Layers, PoolTally};
use crate::spans::Spans;
use crate::stats::proc_usage;
use crate::{Ctx, HostProbe, Phase};

/// Workflow generations during set-up; the median is reported.
const SETUP_REPS: usize = 11;

/// Names of the incremental axes, in study order.
const AXES: [&str; 3] = ["processors_regular", "processors_remote_io", "bandwidth"];
const INCREMENTAL_SPANS: [&str; 3] = [
    "sweep.incremental.processors_regular",
    "sweep.incremental.processors_remote_io",
    "sweep.incremental.bandwidth",
];
const SCRATCH_SPANS: [&str; 3] = [
    "sweep.scratch.processors_regular",
    "sweep.scratch.processors_remote_io",
    "sweep.scratch.bandwidth",
];
const FAULT_SPAN: &str = "sweep.scratch.fault_rate";

/// Everything one study produces.
#[derive(Debug, PartialEq)]
struct Study {
    regular: Vec<ProcessorPoint>,
    remote_io: Vec<ProcessorPoint>,
    bandwidth: Vec<BandwidthPoint>,
    fault_rate: Vec<FaultRatePoint>,
}

impl Study {
    fn reports(&self) -> impl Iterator<Item = &Report> {
        let procs = self
            .regular
            .iter()
            .chain(&self.remote_io)
            .map(|p| &p.report);
        let bws = self.bandwidth.iter().map(|p| &p.report);
        procs
            .chain(bws)
            .chain(self.fault_rate.iter().map(|p| &p.report))
    }
}

/// One study, each axis in a span: three through the incremental entry
/// points, the fault-rate axis from scratch.
/// The `_stats` twins do the same work as the plain entry points (each
/// plain one returns its twin's points) and add the chains' reuse
/// counters; a disabled `sp` records nothing.
fn study(
    wf: &Workflow,
    s: &SweepStudy,
    sp: &mut Spans,
    op: u64,
    inc: &mut IncrementalStats,
) -> Study {
    let root = sp.open("sweep.study", op, None);
    let parent = Some(root);
    let ((regular, a), _) = sp.time(INCREMENTAL_SPANS[0], op, parent, || {
        processor_sweep_incremental_stats(wf, &s.processor_base(DataMode::Regular), &s.processors)
    });
    let ((remote_io, b), _) = sp.time(INCREMENTAL_SPANS[1], op, parent, || {
        processor_sweep_incremental_stats(wf, &s.processor_base(DataMode::RemoteIo), &s.processors)
    });
    let ((bandwidth, c), _) = sp.time(INCREMENTAL_SPANS[2], op, parent, || {
        bandwidth_sweep_incremental_stats(wf, &s.bandwidth_base(), &s.bandwidths_bps)
    });
    let (fault_rate, _) = sp.time(FAULT_SPAN, op, parent, || {
        fault_rate_sweep(wf, &s.fault_base(), &s.fault_probs, s.fault_seed)
    });
    sp.close(root);
    for st in [a, b, c] {
        inc.points += st.points;
        inc.resumed += st.resumed;
        inc.reused_events += st.reused_events;
        inc.total_events += st.total_events;
    }
    Study {
        regular,
        remote_io,
        bandwidth,
        fault_rate,
    }
}

/// The study through the from-scratch entry points: the reference every
/// study must equal.
fn study_scratch(wf: &Workflow, s: &SweepStudy, sp: &mut Spans) -> Study {
    let (regular, _) = sp.time(SCRATCH_SPANS[0], 0, None, || {
        processor_sweep(wf, &s.processor_base(DataMode::Regular), &s.processors)
    });
    let (remote_io, _) = sp.time(SCRATCH_SPANS[1], 0, None, || {
        processor_sweep(wf, &s.processor_base(DataMode::RemoteIo), &s.processors)
    });
    let (bandwidth, _) = sp.time(SCRATCH_SPANS[2], 0, None, || {
        bandwidth_sweep(wf, &s.bandwidth_base(), &s.bandwidths_bps)
    });
    let fault_rate = fault_rate_sweep(wf, &s.fault_base(), &s.fault_probs, s.fault_seed);
    Study {
        regular,
        remote_io,
        bandwidth,
        fault_rate,
    }
}

pub fn run(ctx: &Ctx, sp: &mut Spans, layers: &mut Layers) -> Result<Phase, String> {
    let s = sweep_study(ctx.seed);
    let cfg = MosaicConfig::new(s.degrees).seed(s.workflow_seed);
    let mut phase = Phase::default();
    let mut probe = HostProbe::new();
    let mut workflow = None;
    for _ in 0..SETUP_REPS {
        let wf = phase.time_setup(&mut probe, || {
            Ok(sp.time("montage.generate", 0, None, || generate(&cfg)).0)
        })?;
        workflow = Some(wf);
    }
    let wf = workflow.expect("SETUP_REPS > 0");

    let mut inc = IncrementalStats::default();
    let mut engine = EngineTally::default();
    let mut pool = PoolTally::default();
    let mut first: Option<Study> = None;
    let usage0 = proc_usage("self")?;
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed() < ctx.run_for {
        phase.probe(&mut probe);
        let t = Instant::now();
        let result = pool.around(|| study(&wf, &s, sp, op, &mut inc));
        phase.record(t.elapsed());
        if sp.enabled() {
            result.reports().for_each(|r| engine.add(r));
        }
        match &first {
            None => first = Some(result),
            Some(f) if *f != result => phase.failed += 1,
            Some(_) => {}
        }
        op += 1;
    }
    let usage1 = proc_usage("self")?;
    phase.cpu = phase.cpu_less_probes(usage1.cpu.saturating_sub(usage0.cpu));
    phase.peak_rss_kb = usage1.peak_rss_kb;

    // Output check, outside the timed region: every study equalled the
    // first, and the first equals the from-scratch sweeps.
    let scratch = study_scratch(&wf, &s, sp);
    match &first {
        None => phase.check_errors.push("no study completed".to_string()),
        Some(f) if *f != scratch => phase
            .check_errors
            .push("incremental study differs from the from-scratch sweeps".to_string()),
        Some(_) => {}
    }
    phase.notes.push(format!(
        "study: {} degrees ({} tasks), dense P = 1..={} in regular and remote-io mode, \
         {} bandwidths, {} fault rates (from scratch)",
        s.degrees,
        wf.num_tasks(),
        s.processors.len(),
        s.bandwidths_bps.len(),
        s.fault_probs.len()
    ));

    if sp.enabled() {
        let ops = op.max(1);
        let (calls, gen_ns) = sp.total("montage.generate");
        layers.generate(calls, gen_ns, calls * wf.num_tasks() as u64);
        let inc_ns: u64 = INCREMENTAL_SPANS.iter().map(|n| sp.total(n).1).sum();
        engine.write(layers, ops, inc.total_events - inc.reused_events, inc_ns);
        layers.set("sweep.incremental.points", ratio(inc.points as f64, ops));
        layers.set("sweep.incremental.resumed", ratio(inc.resumed as f64, ops));
        layers.set(
            "sweep.incremental.reused_event_share",
            ratio(inc.reused_events as f64, inc.total_events),
        );
        for (i, axis) in AXES.iter().enumerate() {
            let per_op_ns = ratio(sp.total(INCREMENTAL_SPANS[i]).1 as f64, ops);
            let scratch_ns = sp.total(SCRATCH_SPANS[i]).1 as f64;
            let name = format!("sweep.incremental.speedup_vs_scratch.{axis}");
            layers.set(
                &name,
                if per_op_ns > 0.0 {
                    scratch_ns / per_op_ns
                } else {
                    0.0
                },
            );
        }
        pool.write(layers, ops);
    }
    Ok(phase)
}
