//! `plan`: one op is a cold quarter-long capacity plan over the default
//! 74-candidate grid. Each op has a fresh arrival seed and a fresh cache,
//! so no op can hit the planner's cache.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use mcloud_cache::{ResultCache, DEFAULT_BUDGET_BYTES};
use mcloud_core::{simulate, ExecConfig, Provisioning};
use mcloud_montage::{generate, MosaicConfig};
use mcloud_service::{plan_capacity_with_cache, CapacityPlan, PlanSpec, ProfileTable};
use mcloud_simkit::{configured_lanes, WorkerPool};

use crate::inputs::plan_spec;
use crate::layers::{ratio, EngineTally, Layers, PoolTally};
use crate::spans::Spans;
use crate::stats::proc_usage;
use crate::{Ctx, HostProbe, Phase};

/// Worker-pool starts during set-up; the median is reported. A start
/// takes tens of microseconds, so many are cheap and steady the median.
const SETUP_REPS: usize = 51;
/// Op index of the warm-up spec, far from any timed op's index.
const WARMUP_OP: u64 = 1 << 40;

/// One cold plan: the default grid against a fresh, private cache — what
/// a first `plan_capacity` call on this spec runs. A private cache keeps
/// the untraced and traced phases of one process from sharing entries.
fn plan_cold(spec: &PlanSpec) -> Result<CapacityPlan, String> {
    let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
    plan_capacity_with_cache(spec, spec.default_candidates(), &cache)
}

/// A digest of every scorecard field, the frontier and the
/// recommendation: equal digests mean an identical plan.
fn fingerprint(plan: &CapacityPlan) -> u64 {
    let mut h = DefaultHasher::new();
    for c in &plan.candidates {
        c.requests.hash(&mut h);
        c.rejected.hash(&mut h);
        c.deflected.hash(&mut h);
        c.p99_turnaround_hours.to_bits().hash(&mut h);
        c.mean_turnaround_hours.to_bits().hash(&mut h);
        c.peak_slots.hash(&mut h);
        c.total_cost.dollars().to_bits().hash(&mut h);
        c.meets_slo.hash(&mut h);
    }
    plan.frontier.hash(&mut h);
    plan.best.hash(&mut h);
    h.finish()
}

/// Traced-run replay of what a plan does besides the candidate fan-out:
/// drain the demand stream, warm the profile table, and simulate each
/// class's profile through the engine.
fn replay(
    spec: &PlanSpec,
    sp: &mut Spans,
    op: u64,
    engine: &mut EngineTally,
    tasks: &mut u64,
) -> u64 {
    let (arrivals, _) = sp.time("service.arrivals", op, None, || spec.stream().count());
    let degrees: Vec<f64> = spec.classes.iter().map(|c| c.degrees).collect();
    sp.time("service.profile.warm", op, None, || {
        let mut table = ProfileTable::new(spec.exec.clone());
        table.warm_fixed(&degrees, &[spec.procs_per_slot]);
        table.cached()
    });
    let exec = ExecConfig {
        provisioning: Provisioning::Fixed {
            processors: spec.procs_per_slot,
        },
        ..spec.exec.clone()
    };
    for &d in &degrees {
        let (wf, _) = sp.time("montage.generate", op, None, || {
            generate(&MosaicConfig::new(d))
        });
        *tasks += wf.num_tasks() as u64;
        let (report, _) = sp.time("core.engine.simulate", op, None, || simulate(&wf, &exec));
        engine.add(&report);
    }
    arrivals as u64
}

pub fn run(ctx: &Ctx, sp: &mut Spans, layers: &mut Layers) -> Result<Phase, String> {
    let mut phase = Phase::default();
    // Set-up is starting the worker pool plans fan out on (spawning its
    // lanes' threads); plans preload nothing. The process-wide pool starts
    // once per process, so set-up is timed on private pools of the same
    // width. The timed interval ends when the threads are spawned, not
    // when they first run: waking an idle virtual CPU on a shared host
    // takes a varying time that is not the program's. One warm-up plan
    // then runs untimed, so lazy initialization is paid before timing.
    let mut probe = HostProbe::new();
    for _ in 0..SETUP_REPS {
        let pool = phase.time_setup(&mut probe, || Ok(WorkerPool::new(configured_lanes())))?;
        drop(pool);
    }
    plan_cold(&plan_spec(ctx.seed, WARMUP_OP))?;

    let mut engine = EngineTally::default();
    let mut pool = PoolTally::default();
    let (mut arrivals, mut tasks) = (0u64, 0u64);
    let (mut offered, mut rejected, mut deflected, mut candidates) = (0u64, 0u64, 0u64, 0u64);
    let mut prints: Vec<u64> = Vec::new();
    let usage0 = proc_usage("self")?;
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed() < ctx.run_for {
        let spec = plan_spec(ctx.seed, op);
        if sp.enabled() {
            arrivals += replay(&spec, sp, op, &mut engine, &mut tasks);
        }
        phase.probe(&mut probe);
        let t = Instant::now();
        let outcome = pool.around(|| sp.time("service.plan", op, None, || plan_cold(&spec)).0);
        phase.record(t.elapsed());
        match outcome {
            Ok(plan) if plan.candidates.iter().all(|c| c.requests > 0) => {
                prints.push(fingerprint(&plan));
                candidates += plan.candidates.len() as u64;
                for c in &plan.candidates {
                    offered += c.requests + c.rejected;
                    rejected += c.rejected;
                    deflected += c.deflected;
                }
            }
            Ok(_) => {
                phase.failed += 1;
                prints.push(0);
            }
            Err(e) => {
                phase.failed += 1;
                prints.push(0);
                phase.notes.push(format!("op {op} failed: {e}"));
            }
        }
        op += 1;
    }
    let usage1 = proc_usage("self")?;
    phase.cpu = phase.cpu_less_probes(usage1.cpu.saturating_sub(usage0.cpu));
    phase.peak_rss_kb = usage1.peak_rss_kb;

    // Output check, outside the timed region: re-plan the first and last
    // specs; the scorecards and the recommendation must be identical.
    for check_op in [0, op.saturating_sub(1)] {
        let again = plan_cold(&plan_spec(ctx.seed, check_op))?;
        if prints.get(check_op as usize) != Some(&fingerprint(&again)) {
            phase
                .check_errors
                .push(format!("plan of op {check_op} is not stable across runs"));
        }
    }
    phase.notes.push(format!(
        "{} candidates per plan; {} offered, {} rejected, {} deflected requests per plan",
        ratio(candidates as f64, op),
        ratio(offered as f64, op),
        ratio(rejected as f64, op),
        ratio(deflected as f64, op)
    ));

    if sp.enabled() {
        let ops = op.max(1);
        let (calls, gen_ns) = sp.total("montage.generate");
        layers.generate(calls, gen_ns, tasks);
        let sim_ns = sp.total("core.engine.simulate").1;
        engine.write(layers, ops, engine.events(), sim_ns);
        layers.set("service.arrivals.count", ratio(arrivals as f64, ops));
        layers.set("service.arrivals.ms", sp.mean_us("service.arrivals") / 1e3);
        layers.set(
            "service.profile.warm_ms",
            sp.mean_us("service.profile.warm") / 1e3,
        );
        let busy_ns = pool.busy_ns();
        layers.set(
            "service.autoscale.ms_per_candidate",
            ratio(busy_ns as f64 / 1e6, candidates),
        );
        layers.set(
            "service.autoscale.requests_per_s",
            ratio(offered as f64 * 1e9, busy_ns),
        );
        layers.set("service.autoscale.rejected", ratio(rejected as f64, ops));
        layers.set("service.autoscale.deflected", ratio(deflected as f64, ops));
        pool.write(layers, ops);
    }
    Ok(phase)
}
