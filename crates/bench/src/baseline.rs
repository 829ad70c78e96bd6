//! The committed performance baseline: machine-readable engine throughput
//! and allocation budgets, plus the two regression gates against them.
//!
//! `repro bench-json` measures the rows below and writes
//! `BENCH_baseline.json` at the workspace root.
//!
//! Every measurement is one [`Row`]: a name whose first segment is the
//! row's family, *exact* columns (deterministic counters, identical on
//! every machine for a given source tree, so gated strictly) and
//! *tolerant* columns (wall-clock rates and same-run quotients, which move
//! with the host, so gated only against collapses or within one run).
//! Each [`Pass`] measures one kind: the exact pass from counted runs, the
//! timing pass best-of. `crates/bench/tests/baseline_exact.rs` runs the
//! exact pass in `cargo test` and gates the exact columns;
//! `repro bench-json --check` runs both and gates the tolerant ones.
//! The families:
//!
//! * `workload/<D>deg/<mode>` — one per [`workloads`] entry (the paper's
//!   1°/2°/4° mosaics and the 8°/16° scale-up presets, each in all three
//!   data modes): events, allocations, warm-scratch allocations and
//!   event-queue counters per simulation, plus single-simulation and
//!   [`simulate_batch`] throughput.
//! * `scaling/<lanes>` — `1deg/regular` batch throughput on pools of 1, 2
//!   and 4 lanes. Informational: throughput at a lane count the host
//!   cannot supply is meaningless.
//! * `flatness/<mode>` — the 1°/16° events/sec ratio. The paper's
//!   experiment is a size sweep, so the engine must not get slower per
//!   event as the mosaic grows.
//! * `service/<scenario>` — a seeded streaming service campaign through
//!   the bounded-queue admission path.
//! * `plan/<scenario>` — one cold capacity plan over the default
//!   candidate grid ([`mcloud_service::plan_capacity_with_cache`] against
//!   a fresh cache): summed request counters and candidates evaluated per
//!   second.
//! * `sweep/bandwidth/<D>deg-prestaged` — a dense link-bandwidth axis
//!   with prestaged inputs, walked once from scratch and once through the
//!   checkpoint/fork chain ([`mcloud_core::IncrementalChain`]), both on
//!   one thread.
//! * `cache/<scenario>` — the content-addressed result cache
//!   ([`mcloud_cache::ResultCache`]) probed the way its hot consumers use
//!   it.
//! * `generate/<D>deg` — building the 1°/4°/16° Montage workflow with
//!   [`generate`], the first step of every cache-missing `mcloud serve`
//!   request: task and file counts, allocations per build and build
//!   throughput in tasks/sec. The shape memo already holds the shape, so
//!   this times drawing the seeded values. `generate/<D>deg/cold` gives
//!   every build a region the memo has not seen, so it times the
//!   `WorkflowBuilder` path behind the memo.
//!
//! [`RULES`] says how each column is gated. [`delta_summary`] walks it
//! once per row, one cell per rule, and [`compare`] returns exactly the
//! cells of one [`Columns`] kind whose verdict is `FAIL`, so the table
//! and the gates cannot disagree. The JSON (schema v8) is hand-emitted
//! with a fixed key order, so a re-run on identical hardware diffs
//! minimally, and read back with [`mcloud_simkit::json`]; re-emitting a
//! parsed file reproduces it.

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mcloud_core::{
    simulate, simulate_batch, simulate_batch_on, simulate_prepared, BatchScratch, DataMode,
    ExecConfig, IncrementalChain, PreparedWorkflow, Provisioning, SimScratch,
};
use mcloud_dag::Workflow;
use mcloud_montage::{generate, MosaicConfig};
use mcloud_simkit::json::{self, Value};
use mcloud_simkit::{configured_lanes, WorkerPool};

use crate::alloc;

/// Mosaic sizes measured by the baseline: the paper's three canonical
/// workflows plus the scale-up presets from the follow-on literature
/// (Juve et al. / Berriman et al. run Montage at far larger scales).
pub const BASELINE_DEGREES: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// One workload measured by the baseline: a mosaic size and a data mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Mosaic side length in degrees.
    pub degrees: f64,
    /// Data-management mode.
    pub mode: DataMode,
}

impl Workload {
    /// Stable workload identifier, e.g. `4deg/regular`.
    pub fn name(&self) -> String {
        format!("{}deg/{}", self.degrees, self.mode.label())
    }

    /// The workflow this workload simulates.
    pub fn workflow(&self) -> Workflow {
        generate(&MosaicConfig::new(self.degrees))
    }

    /// The execution plan: the paper's on-demand provisioning (ample
    /// processors), which exercises the engine's peak event rate.
    pub fn config(&self) -> ExecConfig {
        ExecConfig::on_demand(self.mode)
    }
}

/// Every workload the baseline measures, in a fixed order.
pub fn workloads() -> Vec<Workload> {
    BASELINE_DEGREES
        .into_iter()
        .flat_map(|degrees| DataMode::ALL.map(|mode| Workload { degrees, mode }))
        .collect()
}

/// One baseline row: a name and its columns, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `<family>/<id>`, e.g. `workload/4deg/regular`.
    pub name: String,
    /// Deterministic counters.
    pub exact: Vec<(String, u64)>,
    /// Wall-clock rates and same-run quotients, rounded to the decimals
    /// they are committed with.
    pub tolerant: Vec<(String, f64)>,
}

impl Row {
    /// A row with no columns yet.
    pub fn new(name: impl Into<String>) -> Row {
        Row {
            name: name.into(),
            exact: Vec::new(),
            tolerant: Vec::new(),
        }
    }

    /// Appends an exact column.
    pub fn exact(mut self, key: &str, value: u64) -> Row {
        self.exact.push((key.to_string(), value));
        self
    }

    /// Appends a tolerant column, rounded to `decimals` places.
    pub fn tolerant(mut self, key: &str, value: f64, decimals: i32) -> Row {
        let scale = 10f64.powi(decimals);
        self.tolerant
            .push((key.to_string(), (value * scale).round() / scale));
        self
    }

    /// An exact column's value.
    pub fn count(&self, key: &str) -> Option<u64> {
        self.exact.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Any column's value; exact columns convert losslessly (they stay
    /// below 2^53).
    pub fn get(&self, key: &str) -> Option<f64> {
        self.count(key).map(|v| v as f64).or_else(|| {
            self.tolerant
                .iter()
                .find(|(k, _)| k == key)
                .map(|&(_, v)| v)
        })
    }
}

impl fmt::Display for Row {
    /// `name key=value ...`, the progress line `repro bench-json` prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<34}", self.name)?;
        for (k, v) in &self.exact {
            write!(f, " {k}={v}")?;
        }
        for (k, v) in &self.tolerant {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// A full baseline: the measuring machine's parallelism and every row.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Worker lanes the batch columns were measured with
    /// (`MCLOUD_WORKERS` or all cores).
    pub workers: usize,
    /// Cores the measuring machine reported (`available_parallelism`).
    pub host_parallelism: usize,
    /// Every row, workloads first, in measurement order.
    pub rows: Vec<Row>,
}

impl Baseline {
    /// The row called `name`.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

// --- measurement -----------------------------------------------------------

/// What one measurement pass records. Every row is measured in both: the
/// exact pass reads its counters off counted runs and never loops, so
/// `crates/bench/tests/baseline_exact.rs` runs it under `cargo test`; the
/// timing pass times the tolerant columns best-of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pass {
    /// The exact columns only.
    Exact,
    /// The tolerant columns only, each timed within this budget in
    /// milliseconds.
    Timing(u64),
}

/// Minimum whole-batch timing samples per workload, even past the budget.
///
/// Measurement rule for the batch column: the slow (8°/16°) workloads fit
/// at most one whole batch inside the budget, so the sample floor — not
/// the budget — decides how many observations the best-of sees. At 3
/// samples the committed 8°/cleanup row once recorded batch throughput
/// 33% *below* the single-sim rate on a 1-lane pool (132.69 vs 198.85
/// sims/s), which is physically impossible at steady state: the single-sim
/// column got 12+ samples to find the fast envelope while the batch
/// column got 3, at least one of them polluted by cold per-lane scratch
/// growth. Two warm-up batches (the first grows every lane's scratch, the
/// second settles the allocator) plus a floor of 6 timed samples pins the
/// best-of near the true envelope for both columns.
const MIN_BATCH_RUNS: u32 = 6;

/// Minimum single-run timing samples, even past the budget. The 16°
/// workloads fit only ~4 runs in the default budget, which makes their
/// best-of swing well past the gate's tolerance between a quiet and a
/// loaded machine; a floor of samples pins it near the true fast envelope
/// on both.
const MIN_TIMED_RUNS: u32 = 12;

/// Minimum timed whole-axis walks per side of a sweep row.
const MIN_SWEEP_RUNS: u32 = 3;

/// Simulations per [`simulate_batch`] call in the batch timing loops —
/// enough to keep every lane busy through a few chunks without making the
/// 16° workloads take minutes.
const BATCH_SIMS: usize = 8;

/// Times `run` at least `min_runs` times and until `budget_ms` is spent
/// (never more than 10,000 times) and returns the fastest run in seconds.
/// The best-observed time measures what the machine can do; unlike an
/// average it is insensitive to scheduler noise and frequency dips, which
/// keeps same-machine re-measurements inside the gate's tolerance band.
fn best_of(min_runs: u32, budget_ms: u64, mut run: impl FnMut()) -> f64 {
    let budget_s = budget_ms as f64 / 1e3;
    let mut best_s = f64::INFINITY;
    let all = Instant::now();
    for runs in 1..=10_000u32 {
        let start = Instant::now();
        run();
        best_s = best_s.min(start.elapsed().as_secs_f64());
        if runs >= min_runs && all.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    best_s.max(1e-9)
}

/// A dense `1..=max_procs` fixed-provisioning axis over the paper's
/// default plan.
fn processor_axis(max_procs: u32) -> Vec<ExecConfig> {
    let base = ExecConfig::paper_default();
    (1..=max_procs)
        .map(|p| ExecConfig {
            provisioning: Provisioning::Fixed { processors: p },
            ..base.clone()
        })
        .collect()
}

/// Measures one workload row: a warm-up run, then in the exact pass one
/// counted run for the deterministic columns, in the timing pass best-of
/// timed runs for the single-simulation and batch throughput.
pub fn measure_workload(w: &Workload, pass: Pass) -> Row {
    let wf = w.workflow();
    let cfg = w.config();
    // Warm-up: touches every code path and lets the allocator's internal
    // arenas settle so the counted run sees steady-state behaviour.
    let warm = simulate(&wf, &cfg);
    let events = warm.events_processed;
    let row = Row::new(format!("workload/{}", w.name()));
    let Pass::Timing(budget_ms) = pass else {
        let (_, delta) = alloc::measure(|| std::hint::black_box(simulate(&wf, &cfg)));

        // Warm-scratch allocations: one simulation of the batch's prepared
        // workflow on buffers a previous run already grew — the
        // steady-state cost a batch lane pays per run.
        let prep = PreparedWorkflow::new(&wf);
        let mut scratch = SimScratch::new();
        std::hint::black_box(simulate_prepared(&prep, &cfg, &mut scratch));
        let (_, warm_delta) =
            alloc::measure(|| std::hint::black_box(simulate_prepared(&prep, &cfg, &mut scratch)));
        return row
            .exact("tasks", wf.num_tasks() as u64)
            .exact("events", events)
            .exact("allocs_per_sim", delta.allocs)
            .exact("alloc_bytes_per_sim", delta.alloc_bytes)
            .exact("peak_live_bytes", delta.peak_above_start)
            .exact("batch_allocs_per_sim", warm_delta.allocs)
            .exact("queue_pops", warm.kernel.queue.popped)
            .exact("queue_cancellations", warm.kernel.queue.cancelled)
            .exact("queue_peak_pending", warm.kernel.queue.peak_pending);
    };

    // Timer overhead is negligible: even the smallest workload runs for
    // ~100 us.
    let per_sim_s = best_of(MIN_TIMED_RUNS, budget_ms, || {
        std::hint::black_box(simulate(&wf, &cfg));
    });

    // Batch throughput: whole [`simulate_batch`] calls over identical
    // configs on the global pool (all lanes inline when
    // `MCLOUD_WORKERS=1`), after two warm-up batches — see
    // [`MIN_BATCH_RUNS`] for the measurement rule.
    let cfgs = vec![cfg.clone(); BATCH_SIMS];
    let mut batch_scratch = BatchScratch::new();
    for _ in 0..2 {
        std::hint::black_box(simulate_batch(&wf, &cfgs, &mut batch_scratch));
    }
    let batch_s = best_of(MIN_BATCH_RUNS, budget_ms, || {
        std::hint::black_box(simulate_batch(&wf, &cfgs, &mut batch_scratch));
    });

    row.tolerant("sims_per_sec", 1.0 / per_sim_s, 2)
        .tolerant("events_per_sec", events as f64 / per_sim_s, 0)
        .tolerant("batch_sims_per_sec", BATCH_SIMS as f64 / batch_s, 2)
}

/// Measures the informational `1deg/regular` scaling rows on dedicated
/// pools of 1, 2 and 4 lanes.
pub fn measure_scaling(pass: Pass) -> Vec<Row> {
    let w = Workload {
        degrees: 1.0,
        mode: DataMode::Regular,
    };
    let wf = w.workflow();
    let cfgs = vec![w.config(); BATCH_SIMS];
    [1usize, 2, 4]
        .into_iter()
        .map(|lanes| {
            let row = Row::new(format!("scaling/{lanes}"));
            let Pass::Timing(budget_ms) = pass else {
                return row.exact("workers", lanes as u64);
            };
            let pool = WorkerPool::new(lanes);
            let mut scratch = BatchScratch::new();
            std::hint::black_box(simulate_batch_on(&pool, &wf, &cfgs, &mut scratch));
            let best_s = best_of(MIN_BATCH_RUNS, budget_ms, || {
                std::hint::black_box(simulate_batch_on(&pool, &wf, &cfgs, &mut scratch));
            });
            row.tolerant("batch_sims_per_sec", BATCH_SIMS as f64 / best_s, 2)
        })
        .collect()
}

/// Derives the per-mode flatness rows from the workload rows; a mode
/// whose `1deg` or `16deg` row is missing gets no flatness row.
pub fn flatness_rows(workloads: &[Row]) -> Vec<Row> {
    DataMode::ALL
        .iter()
        .filter_map(|mode| {
            let eps = |deg: &str| {
                let name = format!("workload/{deg}deg/{}", mode.label());
                workloads
                    .iter()
                    .find(|w| w.name == name)?
                    .get("events_per_sec")
            };
            let (small, large) = (eps("1")?, eps("16")?);
            Some(
                Row::new(format!("flatness/{}", mode.label()))
                    .tolerant("small_events_per_sec", small, 0)
                    .tolerant("large_events_per_sec", large, 0)
                    .tolerant("ratio", small / large.max(1e-9), 3),
            )
        })
        .collect()
}

/// The service-scale campaign: a quarter of diurnally/seasonally
/// modulated mixed traffic with one flash crowd, against a 4-slot local
/// cluster with a bounded queue that rejects overflow. Sized (~25k
/// requests) to finish in well under a second in release builds while
/// still exercising every admission path.
fn service_scale_scenario() -> (
    &'static str,
    Vec<mcloud_service::RequestClass>,
    mcloud_service::RateProfile,
    f64,
    u64,
    mcloud_service::PoolConfig,
) {
    use mcloud_service::{
        AdmissionPolicy, FlashCrowd, PoolConfig, RateProfile, RequestClass, Slots,
    };
    let class = |rate_per_hour, degrees, priority| RequestClass {
        rate_per_hour,
        degrees,
        priority,
    };
    let classes = vec![class(8.0, 1.0, 2), class(3.0, 2.0, 1), class(0.5, 4.0, 0)];
    let profile = RateProfile {
        base_rate_per_hour: 1.0, // per-class rates substitute for this
        diurnal_amplitude: 0.4,
        seasonal_amplitude: 0.2,
        flash_crowds: vec![FlashCrowd {
            start_hour: 400.0,
            duration_hours: 24.0,
            multiplier: 5.0,
        }],
    };
    // A cluster sized right at the mean offered load (no cloud bursting,
    // or the burst path would drain the queue before it ever reached the
    // bound): the diurnal peak and the flash crowd overflow the 24-deep
    // queue, so the row pins real rejected counts.
    let cfg = PoolConfig {
        slots: Slots::owned(12),
        burst_threshold: None,
        queue_bound: Some(24),
        admission: AdmissionPolicy::Reject,
        ..PoolConfig::default_owned()
    };
    ("quarter-mixed-reject", classes, profile, 2190.0, 2008, cfg)
}

/// Measures the service-scale row: one counted streaming campaign for the
/// deterministic request counters (the timing pass's warm-up), then timed
/// replays (best-of) for the throughput column.
pub fn measure_service_scale(pass: Pass) -> Vec<Row> {
    use mcloud_service::{class_stream, simulate_pool};
    use mcloud_simkit::NullSink;

    let (scenario, classes, profile, horizon, seed, cfg) = service_scale_scenario();
    let run = || {
        simulate_pool(
            class_stream(&classes, &profile, horizon, seed),
            &cfg,
            &mut NullSink,
            |_| {},
        )
    };
    let report = run();
    let row = Row::new(format!("service/{scenario}"));
    let Pass::Timing(budget_ms) = pass else {
        return vec![row
            .exact("offered", report.offered())
            .exact("admitted", report.requests())
            .exact("rejected", report.rejected)
            .exact("deflected", report.deflected)];
    };
    let best_s = best_of(MIN_TIMED_RUNS, budget_ms, || {
        std::hint::black_box(run());
    });
    vec![row.tolerant(
        "service_requests_per_sec",
        report.offered() as f64 / best_s,
        0,
    )]
}

/// Measures the plan row: a quarter of the default 2 req/h class mix with
/// one 4x flash crowd, the shape of the end-to-end benchmark's `plan`
/// workload, planned cold over the default grid. One counted plan for
/// the summed request counters (the timing pass's warm-up), then timed
/// cold plans (best-of) for the throughput column.
pub fn measure_plan_scale(pass: Pass) -> Vec<Row> {
    use mcloud_cache::{ResultCache, DEFAULT_BUDGET_BYTES};
    use mcloud_service::{plan_capacity_with_cache, FlashCrowd, PlanSpec};

    let mut spec = PlanSpec::new(7.0, 2.0, 2190.0);
    spec.modulation.flash_crowds.push(FlashCrowd {
        start_hour: 1000.0,
        duration_hours: 6.0,
        multiplier: 4.0,
    });
    let candidates = spec.default_candidates();
    let plan = || {
        let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
        plan_capacity_with_cache(&spec, candidates.clone(), &cache)
            .expect("the committed plan spec validates")
    };
    let counted = plan();
    let row = Row::new("plan/quarter-flash");
    let Pass::Timing(budget_ms) = pass else {
        let sum =
            |f: fn(&mcloud_service::PlanCandidate) -> u64| counted.candidates.iter().map(f).sum();
        return vec![row
            .exact("candidates", candidates.len() as u64)
            .exact("requests", sum(|c| c.requests))
            .exact("rejected", sum(|c| c.rejected))
            .exact("deflected", sum(|c| c.deflected))];
    };
    let best_s = best_of(MIN_TIMED_RUNS, budget_ms, || {
        std::hint::black_box(plan());
    });
    vec![row.tolerant(
        "plan_candidates_per_sec",
        candidates.len() as f64 / best_s,
        0,
    )]
}

/// The sweep row's mosaic: the paper's largest canonical size.
const SWEEP_DEGREES: f64 = 4.0;

/// Points on the sweep row's bandwidth axis.
const SWEEP_POINTS: usize = 16;

/// A geometric link-bandwidth axis of `points` steps from 1 Mbps to
/// 1 Gbps, 16 processors, prestaged inputs: every run's first transfer is
/// its final stage-out, so each point's whole schedule is shared with its
/// neighbours and the chain resumes every point after the first.
fn bandwidth_axis(points: usize) -> Vec<ExecConfig> {
    let base = ExecConfig::fixed(16).prestaged(true);
    let steps = points.saturating_sub(1).max(1) as f64;
    (0..points)
        .map(|i| base.clone().bandwidth(1e6 * 1000f64.powf(i as f64 / steps)))
        .collect()
}

/// Measures one sweep row on the `points`-step bandwidth axis of the
/// `degrees` mosaic: one counted chain walk for the exact resume and
/// reuse counters (the timing pass's warm-up), then timed whole-axis
/// walks (best-of) for both sides. Everything runs inline on this thread
/// — lane settings do not move these numbers.
pub fn measure_sweep_row(degrees: f64, points: usize, pass: Pass) -> Row {
    let wf = generate(&MosaicConfig::new(degrees));
    let cfgs = bandwidth_axis(points);
    let prep = PreparedWorkflow::new(&wf);
    let chain_walk = || {
        let mut chain = IncrementalChain::new();
        for (i, cfg) in cfgs.iter().enumerate() {
            std::hint::black_box(chain.run_point(&prep, cfg, cfgs.get(i + 1)));
        }
        chain.stats()
    };
    let stats = chain_walk();
    let row = Row::new(format!("sweep/bandwidth/{degrees}deg-prestaged"));
    let Pass::Timing(budget_ms) = pass else {
        return row
            .exact("points", stats.points)
            .exact("resumed", stats.resumed)
            .exact("reused_events", stats.reused_events)
            .exact("total_events", stats.total_events);
    };

    let mut scratch = SimScratch::new();
    std::hint::black_box(simulate_prepared(&prep, &cfgs[0], &mut scratch)); // warm
    let scratch_s = best_of(MIN_SWEEP_RUNS, budget_ms, || {
        for cfg in &cfgs {
            std::hint::black_box(simulate_prepared(&prep, cfg, &mut scratch));
        }
    });
    let incremental_s = best_of(MIN_SWEEP_RUNS, budget_ms, || {
        std::hint::black_box(chain_walk());
    });

    let points = cfgs.len() as f64;
    row.tolerant("scratch_points_per_sec", points / scratch_s, 2)
        .tolerant("incremental_points_per_sec", points / incremental_s, 2)
        .tolerant("speedup", scratch_s / incremental_s, 2)
}

/// Measures the committed sweep row: the 16-point bandwidth axis on the
/// 4° mosaic, which must clear [`BANDWIDTH_SPEEDUP_GATE`].
pub fn measure_sweep_scale(pass: Pass) -> Vec<Row> {
    vec![measure_sweep_row(SWEEP_DEGREES, SWEEP_POINTS, pass)]
}

/// Top of the dense `1..=N` processor grid the cache row probes.
const CACHE_GRID_PROCS: u32 = 16;

/// Measures the cache row against *local* [`mcloud_cache::ResultCache`]s
/// (never the process-wide one, so the counters are exact and isolated):
/// a cold and a warm batch pass over a dense 1° processor grid of
/// scenarios, keyed by [`Scenario::digest`](mcloud_core::Scenario::digest)
/// as `mcloud serve` keys them, a four-thread single-flight race on one
/// cold key and a capacity-planner double-run in the exact pass; timed
/// whole-grid warm passes (best-of) in the timing pass.
pub fn measure_cache(pass: Pass) -> Vec<Row> {
    use mcloud_cache::{simulate_batch_cached, simulate_cached, ResultCache, DEFAULT_BUDGET_BYTES};
    use mcloud_core::{Scenario, ScenarioRecipe};
    use mcloud_service::{plan_capacity_with_cache, PlanSpec};

    // Every scenario of the grid shares the 1° default recipe, so the
    // cold pass asks for one workflow: this one.
    let recipe = ScenarioRecipe::new(1.0);
    let wf = generate(&MosaicConfig::new(recipe.degrees));
    let workflow_of = |r: &ScenarioRecipe| {
        assert_eq!(*r, recipe, "the grid has one recipe");
        wf.clone()
    };
    let scenarios: Vec<Scenario> = processor_axis(CACHE_GRID_PROCS)
        .into_iter()
        .map(|exec| Scenario {
            recipe: recipe.clone(),
            exec,
        })
        .collect();
    let batch = |cache: &ResultCache, scratch: &mut BatchScratch| {
        std::hint::black_box(simulate_batch_cached(
            &scenarios,
            workflow_of,
            scratch,
            cache,
        ));
    };

    // Cold then warm batch pass: the miss and hit counters are exact.
    let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
    let mut scratch = BatchScratch::new();
    batch(&cache, &mut scratch);
    let cold_misses = cache.counters().misses;
    batch(&cache, &mut scratch);
    let warm_hits = cache.counters().hits_mem;
    let row = Row::new("cache/1deg-procs-grid+plan-replay");
    let Pass::Timing(budget_ms) = pass else {
        // Single-flight: four threads race the same cold key on a fresh
        // cache. Whatever the interleaving — all coalesced behind one
        // compute, or serialized into hits — exactly one simulation runs.
        let race = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    std::hint::black_box(simulate_cached(&scenarios[0], workflow_of, &race));
                });
            }
        });

        // Planner double-run: the second pass over an unchanged spec must
        // replay the candidate grid from lookups.
        let spec = PlanSpec::new(7.0, 3.0, 72.0);
        let candidates = spec.default_candidates();
        let plan_cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
        let plan = || {
            plan_capacity_with_cache(&spec, candidates.clone(), &plan_cache)
                .expect("the committed plan spec validates")
        };
        let _ = plan();
        let before = plan_cache.counters().hits_mem;
        let _ = plan();
        return vec![row
            .exact("cold_misses", cold_misses)
            .exact("warm_hits", warm_hits)
            .exact("single_flight_computes", race.counters().computes)
            .exact("plan_candidates", candidates.len() as u64)
            .exact("plan_warm_hits", plan_cache.counters().hits_mem - before)];
    };
    let best_s = best_of(MIN_TIMED_RUNS, budget_ms, || batch(&cache, &mut scratch));
    vec![row.tolerant("warm_hits_per_sec", scenarios.len() as f64 / best_s, 0)]
}

/// Mosaic sizes of the `generate/` rows: the paper's smallest and largest
/// mosaics plus the 16° scale-up preset, where a builder that is not
/// linear in the workflow's size shows first.
const GENERATE_DEGREES: [f64; 3] = [1.0, 4.0, 16.0];

/// Regions [`measure_generate`] has named so far in this process, so no
/// build of either pass finds its shape in the memo.
static FRESH_REGIONS: AtomicU64 = AtomicU64::new(0);

/// Measures the `generate/` rows. `generate/<D>deg` times the usual
/// request, whose shape the memo already holds: one warm-up build, then
/// one counted build for the allocation columns in the exact pass, or
/// best-of timed builds in the timing pass. `generate/<D>deg/cold` times
/// the builder behind the memo: every build names a region the memo has
/// not seen. Its allocation columns are the fewer of two counted builds,
/// since either may be the one that grows the memo's table.
pub fn measure_generate(pass: Pass) -> Vec<Row> {
    let fresh = |degrees: f64| {
        let n = FRESH_REGIONS.fetch_add(1, Ordering::Relaxed) + 1;
        // Fixed width, so every label costs the same bytes, and short
        // like the paper's "M17". `best_of` stops at 10,000 runs a row.
        MosaicConfig::new(degrees).region(format!("{n:05x}"))
    };
    let mut rows = Vec::new();
    for degrees in GENERATE_DEGREES {
        let cfg = MosaicConfig::new(degrees);
        let wf = generate(&cfg);
        let warm = Row::new(format!("generate/{degrees}deg"));
        let cold = Row::new(format!("generate/{degrees}deg/cold"));
        let Pass::Timing(budget_ms) = pass else {
            let (_, delta) = alloc::measure(|| std::hint::black_box(generate(&cfg)));
            let deltas = [fresh(degrees), fresh(degrees)]
                .map(|cold| alloc::measure(|| std::hint::black_box(generate(&cold))).1);
            let cold_delta = deltas
                .into_iter()
                .min_by_key(|d| (d.allocs, d.alloc_bytes))
                .expect("two counted builds");
            rows.push(generate_counts(warm, &wf, delta));
            rows.push(generate_counts(cold, &wf, cold_delta));
            continue;
        };
        let warm_s = best_of(MIN_TIMED_RUNS, budget_ms, || {
            std::hint::black_box(generate(&cfg));
        });
        let cold_s = best_of(MIN_TIMED_RUNS, budget_ms, || {
            std::hint::black_box(generate(&fresh(degrees)));
        });
        let tasks = wf.num_tasks() as f64;
        rows.push(warm.tolerant("tasks_per_sec", tasks / warm_s, 0));
        rows.push(cold.tolerant("tasks_per_sec", tasks / cold_s, 0));
    }
    rows
}

fn generate_counts(row: Row, wf: &Workflow, delta: alloc::AllocDelta) -> Row {
    row.exact("tasks", wf.num_tasks() as u64)
        .exact("files", wf.num_files() as u64)
        .exact("allocs_per_generate", delta.allocs)
        .exact("alloc_bytes_per_generate", delta.alloc_bytes)
}

/// Cores the current machine reports; 1 when the query fails.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Measures every row in one pass, in file order. `progress` sees each
/// workload row as it completes.
pub fn measure_rows(pass: Pass, mut progress: impl FnMut(&Row)) -> Vec<Row> {
    let mut rows: Vec<Row> = workloads()
        .iter()
        .map(|w| {
            let row = measure_workload(w, pass);
            progress(&row);
            row
        })
        .collect();
    let flatness = flatness_rows(&rows);
    rows.extend(measure_scaling(pass));
    rows.extend(flatness);
    rows.extend(measure_service_scale(pass));
    rows.extend(measure_plan_scale(pass));
    rows.extend(measure_sweep_scale(pass));
    rows.extend(measure_cache(pass));
    rows.extend(measure_generate(pass));
    rows
}

fn baseline(rows: Vec<Row>) -> Baseline {
    Baseline {
        workers: configured_lanes(),
        host_parallelism: host_parallelism(),
        rows,
    }
}

/// The exact pass alone: every row that has exact columns, with only
/// those.
pub fn measure_exact() -> Baseline {
    baseline(measure_rows(Pass::Exact, |_| {}))
}

/// Measures every row: the exact pass, then the timing pass with
/// `budget_ms` per row, each row holding the columns of both. `progress`
/// sees each workload row as its timing completes.
pub fn measure_all(budget_ms: u64, mut progress: impl FnMut(&Row)) -> Baseline {
    let exact = measure_rows(Pass::Exact, |_| {});
    let join = |mut row: Row| {
        if let Some(e) = exact.iter().find(|e| e.name == row.name) {
            row.exact.clone_from(&e.exact);
        }
        row
    };
    let rows = measure_rows(Pass::Timing(budget_ms), |row| progress(&join(row.clone())));
    baseline(rows.into_iter().map(join).collect())
}

// --- JSON ------------------------------------------------------------------

/// Schema tag written into (and required from) the baseline file.
pub const SCHEMA: &str = "mcloud-bench-baseline/v8";

/// Serializes a baseline as JSON with a fixed key order: one row per
/// line, columns in the row's own order.
pub fn to_json(b: &Baseline) -> String {
    fn columns<T: fmt::Display>(cols: &[(String, T)]) -> String {
        let cols: Vec<String> = cols
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", json::escape(k)))
            .collect();
        cols.join(", ")
    }
    let mut s = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"workers\": {},\n  \"host_parallelism\": {},\n  \"rows\": [\n",
        b.workers, b.host_parallelism
    );
    for (i, r) in b.rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"exact\": {{{}}}, \"tolerant\": {{{}}}}}{}",
            json::escape(&r.name),
            columns(&r.exact),
            columns(&r.tolerant),
            if i + 1 < b.rows.len() { "," } else { "" },
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parses a baseline file produced by [`to_json`].
///
/// # Errors
/// Returns a message when the document is not JSON, the schema tag is
/// missing or different, or a row is malformed — an exact column must
/// hold an exact non-negative integer.
pub fn from_json(text: &str) -> Result<Baseline, String> {
    let doc = json::parse(text)?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("baseline file does not carry schema {SCHEMA:?}"));
    }
    let count = |key: &str| {
        doc.get(key)
            .and_then(Value::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("baseline file lacks a top-level integer {key:?}"))
    };
    let rows = doc
        .get("rows")
        .and_then(Value::as_array)
        .ok_or("baseline file lacks a \"rows\" array")?
        .iter()
        .map(row_from_json)
        .collect::<Result<Vec<Row>, String>>()?;
    if rows.is_empty() {
        return Err("baseline file contains no rows".into());
    }
    Ok(Baseline {
        workers: count("workers")?,
        host_parallelism: count("host_parallelism")?,
        rows,
    })
}

fn row_from_json(v: &Value) -> Result<Row, String> {
    let name = v
        .get("name")
        .and_then(Value::as_str)
        .ok_or("a row lacks a string \"name\"")?;
    let columns = |kind: &str| {
        v.get(kind)
            .and_then(Value::as_object)
            .ok_or_else(|| format!("row {name:?} lacks an {kind:?} object"))
    };
    let bad = |kind: &str, key: &str| format!("row {name:?}: {kind} column {key:?} is malformed");
    let mut row = Row::new(name);
    for (k, x) in columns("exact")? {
        row.exact
            .push((k.clone(), x.as_u64().ok_or_else(|| bad("exact", k))?));
    }
    for (k, x) in columns("tolerant")? {
        row.tolerant
            .push((k.clone(), x.as_f64().ok_or_else(|| bad("tolerant", k))?));
    }
    Ok(row)
}

// --- the regression gate ---------------------------------------------------

/// Fractional throughput loss tolerated before a [`Check::Floor`] fails
/// (70%). Empirically a shared host swings ~1.7x between quiet and loaded
/// periods, and over 2.5x when a parallel compile owns the core, even
/// with the sample floors above — a tighter band flakes. The throughput
/// columns are a backstop against order-of-magnitude collapses (the
/// pool serializing, an accidental O(n^2)); the exact allocation and
/// event-count columns carry the strict, machine-independent gating
/// (reverting the allocation-free hot path shows up there as 35 -> ~6,800
/// allocs/sim long before timing moves).
pub const THROUGHPUT_TOLERANCE: f64 = 0.70;

/// Tolerance for the batch sims/sec column — same band, same rationale,
/// plus whole-batch timings yield far fewer samples than the single-sim
/// best-of.
pub const BATCH_THROUGHPUT_TOLERANCE: f64 = 0.70;

/// Hard ceiling on warm-scratch allocations per simulation for the
/// paper-sized (1–4°) workloads. A lane running thousands of simulations
/// must not grow the heap per run.
pub const WARM_ALLOC_BUDGET: u64 = 5;

/// Minimum batch-over-single throughput ratio required on the headline
/// `1deg/regular` and `4deg/regular` rows when the measuring machine has
/// real parallelism.
pub const BATCH_SPEEDUP_GATE: f64 = 1.5;

/// Minimum incremental-over-scratch points/sec quotient on the bandwidth
/// sweep row: checkpoint/fork re-simulation stays only while it earns at
/// least this much over simulating every point from scratch.
pub const BANDWIDTH_SPEEDUP_GATE: f64 = 1.5;

/// Minimum share of the capacity-planner candidate grid the second run
/// over an unchanged spec must replay from cache, in percent — the
/// "re-planning an unchanged spec replays the grid from lookups" claim.
pub const PLAN_REPLAY_GATE_PCT: u64 = 90;

/// Growth factor tolerated on a per-mode 1°/16° events/sec ratio before
/// the flatness gate fails. The ratio is a same-run quotient, so absolute
/// machine speed cancels out of it; what remains is the cache-hierarchy
/// shape, which still varies between hosts. The committed cache-native
/// kernel holds ~1.7–2.0x, while the binary-heap/pointer-chasing kernel it
/// replaced measured ~12x on the original baseline machine and ~3x even on
/// a host with a very large last-level cache — a 2x growth allowance
/// (fail above ~4x) separates the two regimes with margin on both sides.
pub const FLATNESS_TOLERANCE: f64 = 2.0;

/// How a rule judges one column, given its committed (`old`) and current
/// (`new`) values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Any change fails: the column is a pure function of the simulated
    /// event sequence, so drift in either direction is semantic.
    Exact,
    /// An increase fails; a decrease is an improvement, shown as a
    /// [`STALE_PIN`] note until a re-baseline locks it in: a pin left
    /// above what the tree measures lets that much regression through.
    NoIncrease,
    /// `new` above the cap fails, whatever the committed value.
    Cap(f64),
    /// `new` more than this fraction below `old` fails.
    Floor(f64),
    /// `new` above this factor times `old` fails.
    Ceiling(f64),
    /// `RatioFloor(of, min)`: `new` below `min` times the current row's
    /// `of` column fails. Both sides come from the same run, so machine
    /// speed cancels out.
    RatioFloor(&'static str, f64),
    /// Recorded and shown, never gated.
    Info,
}

/// Which runs a rule is in force for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum When {
    /// Every run.
    Always,
    /// Runs with as many worker lanes as the committed file: batch
    /// throughput at different `MCLOUD_WORKERS` settings is not comparable.
    SameLanes,
    /// Runs with more than one lane on more than one core.
    Parallel,
}

/// One gate: `check` applied to column `metric` of every row whose name
/// starts with `rows`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Row-name prefix.
    pub rows: &'static str,
    /// Column key.
    pub metric: &'static str,
    /// The verdict rule.
    pub check: Check,
    /// When the rule is in force.
    pub when: When,
}

const fn rule(rows: &'static str, metric: &'static str, check: Check, when: When) -> Rule {
    Rule {
        rows,
        metric,
        check,
        when,
    }
}

/// Every gate, in delta-table order. Improvements never fail; re-baseline
/// to lock them in.
#[rustfmt::skip]
pub const RULES: &[Rule] = &[
    rule("workload/",              "tasks",                      Check::Info,        When::Always),
    rule("workload/",              "events",                     Check::Exact,       When::Always),
    rule("workload/",              "allocs_per_sim",             Check::NoIncrease,  When::Always),
    rule("workload/",              "alloc_bytes_per_sim",        Check::NoIncrease,  When::Always),
    rule("workload/",              "peak_live_bytes",            Check::Info,        When::Always),
    rule("workload/",              "batch_allocs_per_sim",       Check::NoIncrease,  When::Always),
    rule("workload/1deg/",         "batch_allocs_per_sim",       WARM_CAP,           When::Always),
    rule("workload/2deg/",         "batch_allocs_per_sim",       WARM_CAP,           When::Always),
    rule("workload/4deg/",         "batch_allocs_per_sim",       WARM_CAP,           When::Always),
    rule("workload/",              "queue_pops",                 Check::Exact,       When::Always),
    rule("workload/",              "queue_cancellations",        Check::Exact,       When::Always),
    rule("workload/",              "queue_peak_pending",         Check::Exact,       When::Always),
    rule("workload/",              "sims_per_sec",               Check::Info,        When::Always),
    rule("workload/",              "events_per_sec",             TPUT_FLOOR,         When::Always),
    rule("workload/",              "batch_sims_per_sec",         BATCH_FLOOR,        When::SameLanes),
    rule("workload/1deg/regular",  "batch_sims_per_sec",         BATCH_SPEEDUP,      When::Parallel),
    rule("workload/4deg/regular",  "batch_sims_per_sec",         BATCH_SPEEDUP,      When::Parallel),
    rule("scaling/",               "workers",                    Check::Info,        When::Always),
    rule("scaling/",               "batch_sims_per_sec",         Check::Info,        When::Always),
    rule("flatness/",              "small_events_per_sec",       Check::Info,        When::Always),
    rule("flatness/",              "large_events_per_sec",       Check::Info,        When::Always),
    rule("flatness/",              "ratio",                      FLATNESS_CEILING,   When::Always),
    rule("service/",               "offered",                    Check::Exact,       When::Always),
    rule("service/",               "admitted",                   Check::Exact,       When::Always),
    rule("service/",               "rejected",                   Check::Exact,       When::Always),
    rule("service/",               "deflected",                  Check::Exact,       When::Always),
    rule("service/",               "service_requests_per_sec",   TPUT_FLOOR,         When::Always),
    rule("plan/",                  "candidates",                 Check::Exact,       When::Always),
    rule("plan/",                  "requests",                   Check::Exact,       When::Always),
    rule("plan/",                  "rejected",                   Check::Exact,       When::Always),
    rule("plan/",                  "deflected",                  Check::Exact,       When::Always),
    rule("plan/",                  "plan_candidates_per_sec",    TPUT_FLOOR,         When::Always),
    rule("sweep/",                 "points",                     Check::Exact,       When::Always),
    rule("sweep/",                 "resumed",                    Check::Exact,       When::Always),
    rule("sweep/",                 "reused_events",              Check::Exact,       When::Always),
    rule("sweep/",                 "total_events",               Check::Exact,       When::Always),
    rule("sweep/",                 "scratch_points_per_sec",     TPUT_FLOOR,         When::Always),
    rule("sweep/",                 "incremental_points_per_sec", TPUT_FLOOR,         When::Always),
    rule("sweep/bandwidth/",       "incremental_points_per_sec", BANDWIDTH_SPEEDUP,  When::Always),
    rule("sweep/",                 "speedup",                    Check::Info,        When::Always),
    rule("cache/",                 "cold_misses",                Check::Exact,       When::Always),
    rule("cache/",                 "warm_hits",                  Check::Exact,       When::Always),
    rule("cache/",                 "single_flight_computes",     Check::Exact,       When::Always),
    rule("cache/",                 "plan_candidates",            Check::Exact,       When::Always),
    rule("cache/",                 "plan_warm_hits",             PLAN_REPLAY,        When::Always),
    rule("cache/",                 "warm_hits_per_sec",          TPUT_FLOOR,         When::Always),
    rule("generate/",              "tasks",                      Check::Exact,       When::Always),
    rule("generate/",              "files",                      Check::Exact,       When::Always),
    rule("generate/",              "allocs_per_generate",        Check::NoIncrease,  When::Always),
    rule("generate/",              "alloc_bytes_per_generate",   Check::NoIncrease,  When::Always),
    rule("generate/",              "tasks_per_sec",              TPUT_FLOOR,         When::Always),
];

const TPUT_FLOOR: Check = Check::Floor(THROUGHPUT_TOLERANCE);
const BATCH_FLOOR: Check = Check::Floor(BATCH_THROUGHPUT_TOLERANCE);
const WARM_CAP: Check = Check::Cap(WARM_ALLOC_BUDGET as f64);
const FLATNESS_CEILING: Check = Check::Ceiling(FLATNESS_TOLERANCE);
const BATCH_SPEEDUP: Check = Check::RatioFloor("sims_per_sec", BATCH_SPEEDUP_GATE);
const BANDWIDTH_SPEEDUP: Check =
    Check::RatioFloor("scratch_points_per_sec", BANDWIDTH_SPEEDUP_GATE);
const PLAN_REPLAY: Check =
    Check::RatioFloor("plan_candidates", PLAN_REPLAY_GATE_PCT as f64 / 100.0);

/// The verdict of a [`Check::NoIncrease`] cell that measures below its
/// committed value: it passes, and [`stale_pins`] lists it.
pub const STALE_PIN: &str = "ok (below the pin: re-pin it)";

/// The columns one gate judges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Columns {
    /// Rules over exact columns, and rows with exact columns: the gate
    /// `cargo test` runs (`crates/bench/tests/baseline_exact.rs`).
    Exact,
    /// Rules over tolerant columns, and rows without exact columns: the
    /// gate of `repro bench-json --check`.
    Tolerant,
}

/// One cell of the delta table: a rule applied to one row.
struct Cell {
    row: String,
    metric: &'static str,
    old: String,
    new: String,
    /// Which gate judges it.
    columns: Columns,
    /// `ok`, `info` or `skip`; or why the cell fails.
    verdict: Result<&'static str, String>,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (row, metric, old, new) = (&self.row, self.metric, &self.old, &self.new);
        write!(f, "{row:<34} {metric:<26} {old:>14} -> {new:<14} ")?;
        match &self.verdict {
            Ok(pass) => f.write_str(pass),
            Err(why) => write!(f, "FAIL: {why}"),
        }
    }
}

/// The verdict of `rule` on one column: `Err` names the failure.
fn judge(
    rule: &Rule,
    old: f64,
    new: f64,
    row: &Row,
    lanes_match: bool,
    parallel: bool,
) -> Result<&'static str, String> {
    let in_force = match rule.when {
        When::Always => true,
        When::SameLanes => lanes_match,
        When::Parallel => parallel,
    };
    let fail = |bad: bool, why: String| if bad { Err(why) } else { Ok("ok") };
    match rule.check {
        Check::Info => Ok("info"),
        _ if !in_force => Ok("skip"),
        Check::Exact => fail(new != old, "changed (semantics drift?)".into()),
        Check::NoIncrease if new < old => Ok(STALE_PIN),
        Check::NoIncrease => fail(new > old, "increased".into()),
        Check::Cap(cap) => fail(new > cap, format!("above the absolute cap of {cap}")),
        Check::Floor(tol) => fail(
            new < old * (1.0 - tol),
            format!("more than {:.0}% below the committed value", tol * 100.0),
        ),
        Check::Ceiling(factor) => fail(
            new > old * factor,
            format!("above {factor}x the committed value"),
        ),
        Check::RatioFloor(of, min) => {
            let base = row.get(of).ok_or_else(|| format!("no {of} column"))?;
            fail(
                new < min * base,
                format!(
                    "{:.2}x {of} ({base}), below the {min}x floor",
                    new / base.max(1e-9)
                ),
            )
        }
    }
}

/// Every cell of the delta table: each committed row against its current
/// namesake, one cell per applicable rule, then a whole-row cell for each
/// row only one side has.
fn cells(current: &Baseline, committed: &Baseline) -> Vec<Cell> {
    let lanes_match = current.workers == committed.workers;
    let parallel = current.workers > 1 && current.host_parallelism > 1;
    let kind = |exact: bool| {
        if exact {
            Columns::Exact
        } else {
            Columns::Tolerant
        }
    };
    let whole_row = |row: &Row, old: &str, new: &str| Cell {
        row: row.name.clone(),
        metric: "(whole row)",
        old: old.to_string(),
        new: new.to_string(),
        columns: kind(!row.exact.is_empty()),
        verdict: Err("row missing on one side (re-run `repro bench-json --out`)".into()),
    };
    let mut out = Vec::new();
    for b in &committed.rows {
        let Some(c) = current.row(&b.name) else {
            out.push(whole_row(b, "present", "absent"));
            continue;
        };
        for rule in RULES.iter().filter(|r| b.name.starts_with(r.rows)) {
            let (old, new) = (b.get(rule.metric), c.get(rule.metric));
            let show = |v: Option<f64>| v.map_or("absent".to_string(), |v| v.to_string());
            let verdict = match (old, new) {
                (Some(old), Some(new)) => judge(rule, old, new, c, lanes_match, parallel),
                _ => Err("column missing on one side".to_string()),
            };
            out.push(Cell {
                row: b.name.clone(),
                metric: rule.metric,
                old: show(old),
                new: show(new),
                columns: kind(b.count(rule.metric).or(c.count(rule.metric)).is_some()),
                verdict,
            });
        }
    }
    for c in &current.rows {
        if committed.row(&c.name).is_none() {
            out.push(whole_row(c, "absent", "present"));
        }
    }
    out
}

/// Renders the delta table between a fresh measurement and the committed
/// baseline: one line per rule per row, each with its verdict (`ok`,
/// `info`, `skip` or `FAIL: why`). `repro bench-json --check` prints it
/// on both verdicts, so the log names the row, the metric and the
/// old/new values directly.
pub fn delta_summary(current: &Baseline, committed: &Baseline) -> Vec<String> {
    cells(current, committed)
        .iter()
        .map(Cell::to_string)
        .collect()
}

/// The [`delta_summary`] lines of the [`Check::NoIncrease`] cells that
/// measure below their committed values: pins that no longer catch a
/// regression back up to them. `repro bench-json --check` prints them as
/// notes; they never fail the gate.
pub fn stale_pins(current: &Baseline, committed: &Baseline) -> Vec<String> {
    cells(current, committed)
        .iter()
        .filter(|c| c.verdict == Ok(STALE_PIN))
        .map(Cell::to_string)
        .collect()
}

/// Gates a fresh measurement against the committed baseline: the
/// [`delta_summary`] lines of `columns` whose verdict is `FAIL` (empty =
/// pass).
pub fn compare(current: &Baseline, committed: &Baseline, columns: Columns) -> Vec<String> {
    cells(current, committed)
        .iter()
        .filter(|c| c.verdict.is_err() && c.columns == columns)
        .map(Cell::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const W1: &str = "workload/1deg/regular";
    const FLAT: &str = "flatness/regular";
    const SERVICE: &str = "service/quarter-mixed-reject";
    const PLAN: &str = "plan/quarter-flash";
    const SWEEP: &str = "sweep/bandwidth/4deg-prestaged";
    const CACHE: &str = "cache/1deg-procs-grid+plan-replay";
    const GEN: &str = "generate/4deg";

    /// A small baseline in the committed format, one row per family.
    const SAMPLE: &str = r#"{
  "schema": "mcloud-bench-baseline/v8",
  "workers": 1,
  "host_parallelism": 1,
  "rows": [
    {"name": "workload/1deg/regular", "exact": {"tasks": 203, "events": 1000, "allocs_per_sim": 42, "alloc_bytes_per_sim": 4096, "peak_live_bytes": 2048, "batch_allocs_per_sim": 2, "queue_pops": 900, "queue_cancellations": 12, "queue_peak_pending": 64}, "tolerant": {"sims_per_sec": 1234.5, "events_per_sec": 1234500, "batch_sims_per_sec": 1300}},
    {"name": "scaling/1", "exact": {"workers": 1}, "tolerant": {"batch_sims_per_sec": 1300}},
    {"name": "scaling/2", "exact": {"workers": 2}, "tolerant": {"batch_sims_per_sec": 2500.25}},
    {"name": "flatness/regular", "exact": {}, "tolerant": {"small_events_per_sec": 1234500, "large_events_per_sec": 600000, "ratio": 2.058}},
    {"name": "service/quarter-mixed-reject", "exact": {"offered": 25000, "admitted": 24000, "rejected": 1000, "deflected": 0}, "tolerant": {"service_requests_per_sec": 50000}},
    {"name": "plan/quarter-flash", "exact": {"candidates": 74, "requests": 330000, "rejected": 0, "deflected": 1500}, "tolerant": {"plan_candidates_per_sec": 1000}},
    {"name": "sweep/bandwidth/4deg-prestaged", "exact": {"points": 16, "resumed": 15, "reused_events": 200000, "total_events": 240000}, "tolerant": {"scratch_points_per_sec": 200, "incremental_points_per_sec": 700, "speedup": 3.5}},
    {"name": "cache/1deg-procs-grid+plan-replay", "exact": {"cold_misses": 16, "warm_hits": 16, "single_flight_computes": 1, "plan_candidates": 74, "plan_warm_hits": 74}, "tolerant": {"warm_hits_per_sec": 90000}},
    {"name": "generate/4deg", "exact": {"tasks": 3027, "files": 5056, "allocs_per_generate": 25375, "alloc_bytes_per_generate": 3265951}, "tolerant": {"tasks_per_sec": 1000000}}
  ]
}
"#;

    fn sample() -> Baseline {
        from_json(SAMPLE).expect("the sample parses")
    }

    /// Overwrites one column of one row, exact or tolerant.
    fn set(b: &mut Baseline, row: &str, key: &str, value: f64) {
        let row = b.rows.iter_mut().find(|r| r.name == row).expect("row");
        match row.exact.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value as u64,
            None => {
                row.tolerant
                    .iter_mut()
                    .find(|(k, _)| k == key)
                    .expect("column")
                    .1 = value
            }
        }
    }

    fn scale(b: &mut Baseline, row: &str, key: &str, factor: f64) {
        let v = b.row(row).and_then(|r| r.get(key)).expect("column");
        set(b, row, key, v * factor);
    }

    fn drop_rows(b: &mut Baseline, prefix: &str) {
        b.rows.retain(|r| !r.name.starts_with(prefix));
    }

    /// The FAIL lines of [`delta_summary`], checking on the way that each
    /// is reported by [`compare`] under exactly one gate.
    fn all_failures(current: &Baseline, committed: &Baseline) -> Vec<String> {
        let exact = compare(current, committed, Columns::Exact);
        let tolerant = compare(current, committed, Columns::Tolerant);
        let fails: Vec<String> = delta_summary(current, committed)
            .into_iter()
            .filter(|l| l.contains(" FAIL: "))
            .collect();
        assert_eq!(fails.len(), exact.len() + tolerant.len());
        assert!(fails
            .iter()
            .all(|l| exact.contains(l) != tolerant.contains(l)));
        fails
    }

    /// The failing cells of one gate as `row metric`.
    fn failing(current: &Baseline, committed: &Baseline, columns: Columns) -> Vec<String> {
        all_failures(current, committed);
        cells(current, committed)
            .into_iter()
            .filter(|c| c.verdict.is_err() && c.columns == columns)
            .map(|c| format!("{} {}", c.row, c.metric))
            .collect()
    }

    /// The `(row, metric)` cells that must fail under one gate.
    type Fails = &'static [(&'static str, &'static str)];

    /// What a case changes in the current run and the committed file, and
    /// the cells the exact gate (`cargo test`) and the `--check` timing
    /// gate fail.
    type GateCase = (&'static str, fn(&mut Baseline, &mut Baseline), Fails, Fails);

    /// One gate case per row: what changes in the current run (and, where
    /// the case needs it, in the committed file), which exact cells fail,
    /// and which tolerant ones.
    #[rustfmt::skip]
    const GATE_CASES: &[GateCase] = &[
        ("identical baselines pass", |_, _| {}, &[], &[]),
        ("an allocation increase fails strictly",
            |c, _| set(c, W1, "allocs_per_sim", 43.0), &[(W1, "allocs_per_sim")], &[]),
        ("allocation decreases pass",
            |c, _| { set(c, W1, "allocs_per_sim", 32.0); set(c, W1, "alloc_bytes_per_sim", 3996.0) }, &[], &[]),
        ("events/sec 50% slower is within tolerance", |c, _| scale(c, W1, "events_per_sec", 0.5), &[], &[]),
        ("events/sec 80% slower fails",
            |c, _| scale(c, W1, "events_per_sec", 0.2), &[], &[(W1, "events_per_sec")]),
        ("event-count drift fails", |c, _| set(c, W1, "events", 999.0), &[(W1, "events")], &[]),
        ("--check gates a throughput collapse and cargo test an exact cell, not both",
            |c, _| { set(c, W1, "allocs_per_sim", 43.0); scale(c, W1, "events_per_sec", 0.2) },
            &[(W1, "allocs_per_sim")], &[(W1, "events_per_sec")]),
        ("kernel counters drift in both directions",
            |c, _| { set(c, W1, "queue_pops", 899.0); set(c, W1, "queue_peak_pending", 69.0) },
            &[(W1, "queue_pops"), (W1, "queue_peak_pending")], &[]),
        ("cancellation drift fails",
            |c, _| set(c, W1, "queue_cancellations", 13.0), &[(W1, "queue_cancellations")], &[]),
        ("a warm-scratch allocation increase fails strictly",
            |c, _| set(c, W1, "batch_allocs_per_sim", 3.0), &[(W1, "batch_allocs_per_sim")], &[]),
        ("the warm-scratch budget is absolute on paper-sized workloads",
            |c, b| { set(b, W1, "batch_allocs_per_sim", 8.0); set(c, W1, "batch_allocs_per_sim", 6.0) },
            &[(W1, "batch_allocs_per_sim")], &[]),
        ("scale-up rows are exempt from the warm-scratch cap",
            |c, b| {
                for x in [&mut *c, &mut *b] { x.rows[0].name = "workload/16deg/regular".into() }
                set(b, "workload/16deg/regular", "batch_allocs_per_sim", 8.0);
                set(c, "workload/16deg/regular", "batch_allocs_per_sim", 6.0);
            }, &[], &[]),
        ("batch sims/sec 80% slower fails at the same lane count",
            |c, _| scale(c, W1, "batch_sims_per_sec", 0.2), &[], &[(W1, "batch_sims_per_sec")]),
        ("batch sims/sec is not compared across lane counts",
            |c, _| { scale(c, W1, "batch_sims_per_sec", 0.2); c.workers = 4 }, &[], &[]),
        ("the speedup gate stays off on one lane", |c, _| set(c, W1, "batch_sims_per_sec", 1234.5), &[], &[]),
        ("the speedup gate fires with lanes and cores",
            |c, _| { set(c, W1, "batch_sims_per_sec", 1234.5); (c.workers, c.host_parallelism) = (4, 4) },
            &[], &[(W1, "batch_sims_per_sec")]),
        ("meeting the batch speedup clears the gate",
            |c, _| { set(c, W1, "batch_sims_per_sec", BATCH_SPEEDUP_GATE * 1234.5); (c.workers, c.host_parallelism) = (4, 4) },
            &[], &[]),
        ("a flatness ratio past the ceiling fails",
            |c, _| scale(c, FLAT, "ratio", FLATNESS_TOLERANCE * 1.01), &[], &[(FLAT, "ratio")]),
        ("a flatness ratio at the ceiling passes", |c, _| scale(c, FLAT, "ratio", FLATNESS_TOLERANCE), &[], &[]),
        ("a flatter ratio is an improvement", |c, _| scale(c, FLAT, "ratio", 0.5), &[], &[]),
        ("a missing flatness row fails", |c, _| drop_rows(c, FLAT), &[], &[(FLAT, "(whole row)")]),
        ("service counters drift in both directions",
            |c, _| { set(c, SERVICE, "admitted", 24_001.0); set(c, SERVICE, "rejected", 999.0) },
            &[(SERVICE, "admitted"), (SERVICE, "rejected")], &[]),
        ("service throughput 50% slower is within tolerance",
            |c, _| scale(c, SERVICE, "service_requests_per_sec", 0.5), &[], &[]),
        ("service throughput 80% slower fails",
            |c, _| scale(c, SERVICE, "service_requests_per_sec", 0.2), &[], &[(SERVICE, "service_requests_per_sec")]),
        ("a missing service row fails", |c, _| drop_rows(c, SERVICE), &[(SERVICE, "(whole row)")], &[]),
        ("plan counters drift in both directions",
            |c, _| { set(c, PLAN, "requests", 330_001.0); set(c, PLAN, "deflected", 1499.0) },
            &[(PLAN, "requests"), (PLAN, "deflected")], &[]),
        ("plan throughput 50% slower is within tolerance",
            |c, _| scale(c, PLAN, "plan_candidates_per_sec", 0.5), &[], &[]),
        ("plan throughput 80% slower fails",
            |c, _| scale(c, PLAN, "plan_candidates_per_sec", 0.2), &[], &[(PLAN, "plan_candidates_per_sec")]),
        ("a missing plan row fails", |c, _| drop_rows(c, PLAN), &[(PLAN, "(whole row)")], &[]),
        ("sweep counters drift in both directions",
            |c, _| { set(c, SWEEP, "resumed", 14.0); set(c, SWEEP, "reused_events", 210_000.0) },
            &[(SWEEP, "resumed"), (SWEEP, "reused_events")], &[]),
        ("the bandwidth sweep speedup floor is hard",
            |c, _| { set(c, SWEEP, "incremental_points_per_sec", 290.0); set(c, SWEEP, "speedup", 1.45) },
            &[], &[(SWEEP, "incremental_points_per_sec")]),
        ("the bandwidth sweep passes at the floor",
            |c, _| { set(c, SWEEP, "incremental_points_per_sec", 300.0); set(c, SWEEP, "speedup", 1.5) },
            &[], &[]),
        ("the sweep quotient column is informational", |c, _| set(c, SWEEP, "speedup", 0.9), &[], &[]),
        ("scratch points/sec 80% slower fails",
            |c, _| scale(c, SWEEP, "scratch_points_per_sec", 0.2), &[], &[(SWEEP, "scratch_points_per_sec")]),
        ("a missing sweep row fails", |c, _| drop_rows(c, "sweep/"), &[(SWEEP, "(whole row)")], &[]),
        ("cache counters drift in both directions",
            |c, _| { set(c, CACHE, "cold_misses", 17.0); set(c, CACHE, "warm_hits", 15.0) },
            &[(CACHE, "cold_misses"), (CACHE, "warm_hits")], &[]),
        ("a second simulation through single-flight fails",
            |c, _| set(c, CACHE, "single_flight_computes", 2.0), &[(CACHE, "single_flight_computes")], &[]),
        ("replaying 66 of 74 plans is below the 90% floor",
            |c, _| set(c, CACHE, "plan_warm_hits", 66.0), &[(CACHE, "plan_warm_hits")], &[]),
        ("replaying 67 of 74 plans clears the floor", |c, _| set(c, CACHE, "plan_warm_hits", 67.0), &[], &[]),
        ("cache throughput 50% slower is within tolerance", |c, _| scale(c, CACHE, "warm_hits_per_sec", 0.5), &[], &[]),
        ("cache throughput 80% slower fails",
            |c, _| scale(c, CACHE, "warm_hits_per_sec", 0.2), &[], &[(CACHE, "warm_hits_per_sec")]),
        ("a missing cache row fails", |c, _| drop_rows(c, CACHE), &[(CACHE, "(whole row)")], &[]),
        ("generated task and file counts drift in both directions",
            |c, _| { set(c, GEN, "tasks", 3028.0); set(c, GEN, "files", 5055.0) },
            &[(GEN, "tasks"), (GEN, "files")], &[]),
        ("an allocation increase per generate fails strictly",
            |c, _| { set(c, GEN, "allocs_per_generate", 25_376.0); set(c, GEN, "alloc_bytes_per_generate", 3_265_952.0) },
            &[(GEN, "allocs_per_generate"), (GEN, "alloc_bytes_per_generate")], &[]),
        ("fewer allocations per generate pass", |c, _| set(c, GEN, "allocs_per_generate", 12_000.0), &[], &[]),
        ("generate throughput 50% slower is within tolerance", |c, _| scale(c, GEN, "tasks_per_sec", 0.5), &[], &[]),
        ("generate throughput 80% slower fails",
            |c, _| scale(c, GEN, "tasks_per_sec", 0.2), &[], &[(GEN, "tasks_per_sec")]),
        ("a missing generate row fails", |c, _| drop_rows(c, "generate/"), &[(GEN, "(whole row)")], &[]),
        ("a workload the committed file lacks fails",
            |_, b| drop_rows(b, "workload/"), &[(W1, "(whole row)")], &[]),
        ("a column missing from the current run fails",
            |c, _| c.rows[0].exact.retain(|(k, _)| k != "events"), &[(W1, "events")], &[]),
    ];

    #[test]
    fn the_gate_fails_exactly_the_expected_cells() {
        let names = |cells: Fails| -> Vec<String> {
            cells.iter().map(|(r, m)| format!("{r} {m}")).collect()
        };
        for (what, mutate, exact, tolerant) in GATE_CASES {
            let (mut current, mut committed) = (sample(), sample());
            mutate(&mut current, &mut committed);
            assert_eq!(
                failing(&current, &committed, Columns::Exact),
                names(exact),
                "{what}"
            );
            let timing = failing(&current, &committed, Columns::Tolerant);
            assert_eq!(timing, names(tolerant), "{what}");
        }
    }

    #[test]
    fn a_measurement_below_a_no_increase_pin_is_a_note_not_a_failure() {
        let committed = sample();
        let mut current = sample();
        assert!(stale_pins(&current, &committed).is_empty());
        set(&mut current, W1, "allocs_per_sim", 32.0);
        set(&mut current, GEN, "alloc_bytes_per_generate", 3_000_000.0);
        // Exact and tolerant columns below their values are not pins.
        set(&mut current, W1, "events_per_sec", 1.0e9);
        assert!(all_failures(&current, &committed).is_empty());
        let notes = stale_pins(&current, &committed);
        assert_eq!(notes.len(), 2, "{notes:#?}");
        assert!(
            notes[0].contains(W1) && notes[0].contains("42 -> 32"),
            "{notes:?}"
        );
        assert!(
            notes[1].contains(GEN) && notes[1].ends_with(STALE_PIN),
            "{notes:?}"
        );
        let summary = delta_summary(&current, &committed);
        assert!(notes.iter().all(|n| summary.contains(n)));
    }

    #[test]
    fn delta_summary_fails_exactly_the_cells_compare_reports() {
        // The gates that compare a current value with something other
        // than its committed twin — the batch speedup, the warm-allocation
        // cap — and a floor on a column no other rule reads.
        let mut speedup = sample();
        set(&mut speedup, W1, "batch_sims_per_sec", 1234.5);
        (speedup.workers, speedup.host_parallelism) = (4, 4);
        let (mut budget, mut committed_budget) = (sample(), sample());
        set(&mut budget, W1, "batch_allocs_per_sim", 6.0);
        set(&mut committed_budget, W1, "batch_allocs_per_sim", 8.0);
        let mut scratch = sample();
        scale(&mut scratch, SWEEP, "scratch_points_per_sec", 0.2);
        for (current, committed, metric, columns) in [
            (&speedup, &sample(), "batch_sims_per_sec", Columns::Tolerant),
            (
                &budget,
                &committed_budget,
                "batch_allocs_per_sim",
                Columns::Exact,
            ),
            (
                &scratch,
                &sample(),
                "scratch_points_per_sec",
                Columns::Tolerant,
            ),
        ] {
            let violations = compare(current, committed, columns);
            assert_eq!(all_failures(current, committed), violations);
            assert_eq!(violations.len(), 1, "{violations:?}");
            assert!(violations[0].contains(metric), "{violations:?}");
            let fails: Vec<String> = delta_summary(current, committed)
                .into_iter()
                .filter(|l| l.contains("FAIL"))
                .collect();
            assert_eq!(fails, violations);
        }
    }

    #[test]
    fn delta_summary_names_the_failing_metric() {
        let committed = sample();
        let mut current = sample();
        set(&mut current, W1, "allocs_per_sim", 49.0);
        scale(&mut current, FLAT, "ratio", 3.0);
        let lines = delta_summary(&current, &committed);
        // One line per rule per row: 14 workload (12 columns, the cap and
        // the speedup gate), 2x2 scaling, 3 flatness, 5 service, 5 plan,
        // 7+1 sweep, 6 cache, 5 generate.
        assert_eq!(lines.len(), 14 + 4 + 3 + 5 + 5 + 8 + 6 + 5, "{lines:#?}");
        let failing: Vec<&String> = lines.iter().filter(|l| l.contains("FAIL")).collect();
        assert_eq!(failing.len(), 2, "{lines:#?}");
        assert!(failing[0].contains("allocs_per_sim") && failing[0].contains("42 -> 49"));
        assert!(failing[0].ends_with("FAIL: increased"), "{failing:?}");
        assert!(
            failing[1].contains(FLAT) && failing[1].contains("ratio"),
            "{failing:?}"
        );
        // Passing cells carry a verdict too, not silence.
        for (metric, verdict) in [
            ("events_per_sec", "ok"),
            ("sims_per_sec", "info"),
            ("batch_sims_per_sec", "skip"),
        ] {
            let cell = |l: &&String| l.contains(&format!(" {metric} ")) && l.ends_with(verdict);
            assert!(lines.iter().any(|l| cell(&l)), "{metric}: {lines:#?}");
        }
    }

    #[test]
    fn every_column_has_a_rule() {
        let committed = from_json(include_str!("../../../BENCH_baseline.json")).expect("parse");
        for row in sample().rows.iter().chain(&committed.rows) {
            let keys = row
                .exact
                .iter()
                .map(|c| &c.0)
                .chain(row.tolerant.iter().map(|c| &c.0));
            for key in keys {
                let ruled = RULES
                    .iter()
                    .any(|r| row.name.starts_with(r.rows) && r.metric == key);
                assert!(ruled, "{} {key} has no rule", row.name);
            }
        }
    }

    #[test]
    fn json_roundtrip_is_byte_identical() {
        let b = sample();
        assert_eq!(to_json(&b), SAMPLE);
        assert_eq!(
            b.row(SWEEP).and_then(|r| r.count("total_events")),
            Some(240_000)
        );
        assert_eq!(b.row(FLAT).and_then(|r| r.get("ratio")), Some(2.058));
        let text = include_str!("../../../BENCH_baseline.json");
        let committed = from_json(text).expect("parse");
        assert_eq!(to_json(&committed), text);
        assert_eq!(committed.rows.len(), 15 + 3 + 3 + 1 + 1 + 1 + 1 + 2 * 3);
        assert!(all_failures(&committed, &committed).is_empty());
    }

    #[test]
    fn rejects_wrong_schema_empty_files_and_inexact_counters() {
        assert!(from_json("{}").is_err());
        assert!(from_json("not json").is_err());
        assert!(from_json("{\"schema\": \"other/v9\", \"rows\": []}").is_err());
        let mut b = sample();
        b.rows.clear();
        assert!(from_json(&to_json(&b)).is_err());
        let text = SAMPLE.replace("\"events\": 1000", "\"events\": 1000.5");
        let err = from_json(&text).unwrap_err();
        assert!(err.contains("exact column \"events\""), "{err}");
    }

    #[test]
    fn tolerant_columns_round_to_their_committed_decimals() {
        let row = Row::new("x")
            .tolerant("a", 1234.5678, 2)
            .tolerant("b", 7_499_771.6, 0)
            .tolerant("c", 0.85849, 3);
        let line = to_json(&Baseline {
            workers: 1,
            host_parallelism: 1,
            rows: vec![row],
        });
        assert!(line.contains("\"tolerant\": {\"a\": 1234.57, \"b\": 7499772, \"c\": 0.858}"));
    }

    #[test]
    fn workload_list_covers_all_sizes_and_modes() {
        let ws = workloads();
        assert_eq!(ws.len(), BASELINE_DEGREES.len() * DataMode::ALL.len());
        let names: Vec<String> = ws.iter().map(Workload::name).collect();
        assert!(names.contains(&"4deg/regular".to_string()));
        assert!(names.contains(&"16deg/remote-io".to_string()));
    }

    #[test]
    fn tiny_workload_measures_deterministically() {
        // The smallest workload twice over: the exact pass must agree
        // between independent measurements, and each pass measures only
        // its own columns.
        let w = Workload {
            degrees: 1.0,
            mode: DataMode::Regular,
        };
        let (a, b) = (
            measure_workload(&w, Pass::Exact),
            measure_workload(&w, Pass::Exact),
        );
        assert_eq!(a.name, W1);
        assert_eq!(a, b);
        assert!(a.tolerant.is_empty(), "{a}");
        assert_eq!(a.count("tasks"), Some(203));
        assert!(
            a.count("events") > Some(0) && a.count("queue_pops") > Some(0),
            "{a}"
        );
        let warm = a.count("batch_allocs_per_sim").unwrap();
        assert!(
            warm <= WARM_ALLOC_BUDGET,
            "warm scratch must not allocate: {warm} allocs/sim"
        );
        let timed = measure_workload(&w, Pass::Timing(1));
        assert!(timed.exact.is_empty(), "{timed}");
        let tolerant: Vec<&str> = timed.tolerant.iter().map(|c| c.0.as_str()).collect();
        assert_eq!(
            tolerant,
            ["sims_per_sec", "events_per_sec", "batch_sims_per_sec"]
        );
    }

    #[test]
    fn flatness_rows_pair_small_and_large_workloads_per_mode() {
        let mk = |name: &str, eps: f64| Row::new(name).tolerant("events_per_sec", eps, 0);
        let rows = flatness_rows(&[
            mk("workload/1deg/regular", 9_000_000.0),
            mk("workload/16deg/regular", 4_500_000.0),
            mk("workload/1deg/cleanup", 8_000_000.0),
            // No 16deg/cleanup row: the cleanup mode must be skipped, not
            // fabricated.
        ]);
        let expected = Row::new(FLAT)
            .tolerant("small_events_per_sec", 9_000_000.0, 0)
            .tolerant("large_events_per_sec", 4_500_000.0, 0)
            .tolerant("ratio", 2.0, 3);
        assert_eq!(rows, [expected]);
    }

    #[test]
    fn tiny_sweep_row_measures_deterministically_and_reuses_events() {
        // A small axis in debug builds: the chain counters must agree
        // between independent measurements, and with prestaged inputs
        // every point after the first must resume.
        let (a, b) = (
            measure_sweep_row(1.0, 8, Pass::Exact),
            measure_sweep_row(1.0, 8, Pass::Exact),
        );
        assert_eq!(a.name, "sweep/bandwidth/1deg-prestaged");
        assert_eq!(a.exact, b.exact);
        assert_eq!(a.count("points"), Some(8));
        assert_eq!(a.count("resumed"), Some(7), "{a}");
        assert!(a.count("reused_events") > Some(0), "{a}");
        assert!(a.count("total_events") > a.count("reused_events"), "{a}");
    }

    #[test]
    fn service_scale_measurement_is_deterministic() {
        // The counted campaign twice over: the counters must agree
        // exactly, and the scenario must actually exercise the admission
        // path (some requests rejected, none lost).
        let (a, b) = (
            measure_service_scale(Pass::Exact),
            measure_service_scale(Pass::Exact),
        );
        assert_eq!(
            (a.len(), &a[0].name, &a[0].exact),
            (1, &b[0].name, &b[0].exact)
        );
        let n = |k: &str| a[0].count(k).unwrap();
        assert!(n("offered") > 10_000, "{}", a[0]);
        assert!(n("rejected") > 0, "the flash crowd must overflow the queue");
        assert_eq!(n("admitted") + n("rejected"), n("offered"));
    }

    #[test]
    fn scaling_rows_cover_one_two_and_four_lanes() {
        let rows = measure_scaling(Pass::Timing(1));
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["scaling/1", "scaling/2", "scaling/4"]);
        assert!(rows.iter().all(|r| r.get("batch_sims_per_sec") > Some(0.0)));
    }

    #[test]
    fn tiny_cache_row_measures_deterministically() {
        // The cache row twice over: every counter is a pure function of
        // the cache and digest semantics, so independent measurements
        // must agree exactly — and the row must show the shape the gate
        // relies on (full warm coverage, one compute through the race,
        // a ≥90% planner replay).
        let (a, b) = (measure_cache(Pass::Exact), measure_cache(Pass::Exact));
        assert_eq!(
            (a.len(), &a[0].name, &a[0].exact),
            (1, &b[0].name, &b[0].exact)
        );
        let a = &a[0];
        assert_eq!(a.name, CACHE);
        let n = |k: &str| a.count(k).unwrap();
        assert_eq!(n("cold_misses"), CACHE_GRID_PROCS as u64);
        assert_eq!(n("warm_hits"), CACHE_GRID_PROCS as u64);
        assert_eq!(n("single_flight_computes"), 1);
        assert!(
            n("plan_warm_hits") * 100 >= n("plan_candidates") * PLAN_REPLAY_GATE_PCT,
            "{a}"
        );
        assert!(n("plan_candidates") > 0, "{a}");
        let timed = &measure_cache(Pass::Timing(1))[0];
        assert!(timed.get("warm_hits_per_sec") > Some(0.0), "{timed}");
    }

    /// A `Workflow` is a fixed set of flat buffers: cloning one allocates
    /// as often at 4° as at 0.5°, so nothing in it is allocated per task or
    /// per file (the `generate/` rows' allocation counts rest on this).
    /// A clone copies the two value columns and shares the shape.
    #[test]
    fn a_workflow_is_a_fixed_number_of_buffers() {
        let clone_allocs = |degrees| {
            let wf = generate(&MosaicConfig::new(degrees));
            alloc::measure(|| std::hint::black_box(wf.clone())).1.allocs
        };
        let small = clone_allocs(0.5);
        assert_eq!(small, clone_allocs(4.0));
        assert_eq!(small, 2, "a workflow clone allocates {small} buffers");
    }
}
