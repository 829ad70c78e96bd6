//! Batch simulation: many configurations (or workflows) through warm,
//! lane-owned scratches on the persistent worker pool.
//!
//! The paper's experiments are sweeps — processor counts 1→128, three
//! data modes, three mosaic sizes — so the real workload is *many*
//! simulations. [`simulate_batch`] amortizes all per-simulation setup:
//! each pool lane owns one long-lived [`SimScratch`], so steady-state
//! batch work allocates (almost) nothing per run, and the pool itself is
//! created once per process. The workflow is prepared once per call
//! ([`PreparedWorkflow`]) and its tables are shared by every lane.
//!
//! ## Determinism
//!
//! Every result is produced by `simulate_prepared`, which is a pure
//! function of `(workflow, config)` — the scratch contributes capacity,
//! never values, and the prepared tables only what the workflow
//! determines (asserted by the scratch-equivalence tests). Results
//! are slotted by input index inside the pool. Which *lane* computes which
//! item is scheduling-dependent; what the item's result is, and where it
//! lands, is not. Hence batch output is byte-identical across worker
//! counts and chunk sizes, including the single-threaded inline path.

use std::sync::atomic::{AtomicUsize, Ordering};

use mcloud_dag::Workflow;
use mcloud_simkit::WorkerPool;

use crate::config::ExecConfig;
use crate::engine::{simulate_prepared, SimScratch};
use crate::prepared::PreparedWorkflow;
use crate::report::Report;

/// Per-lane scratch storage for batch simulation. Create once, pass to
/// every [`simulate_batch`] call; lanes are grown on demand and their
/// buffers stay warm across calls.
#[derive(Debug, Default)]
pub struct BatchScratch {
    lanes: Vec<SimScratch>,
}

impl BatchScratch {
    /// Creates an empty batch scratch (lanes materialize on first use).
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// Number of lane scratches materialized so far.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    fn ensure(&mut self, n: usize) -> &mut [SimScratch] {
        if self.lanes.len() < n {
            self.lanes.resize_with(n, SimScratch::new);
        }
        &mut self.lanes
    }
}

/// Simulates `wf` under every configuration in `cfgs`, in input order,
/// fanning across the process-wide [`WorkerPool`]. Equivalent to (and
/// byte-identical with) `cfgs.iter().map(|c| simulate(wf, c)).collect()`.
///
/// Degenerate inputs (≤ 1 config, or a one-lane configuration) run inline
/// on the caller thread and never create the pool.
///
/// # Panics
/// Panics if any configuration fails validation, as [`simulate`] would.
///
/// [`simulate`]: crate::simulate
pub fn simulate_batch(
    wf: &Workflow,
    cfgs: &[ExecConfig],
    scratch: &mut BatchScratch,
) -> Vec<Report> {
    let prep = PreparedWorkflow::new(wf);
    fan_out(cfgs, scratch, |scr, cfg| simulate_prepared(&prep, cfg, scr))
}

/// [`simulate_batch`] on an explicit pool — the worker-count-independence
/// tests and scaling benchmarks drive this directly with pools of
/// different widths.
pub fn simulate_batch_on(
    pool: &WorkerPool,
    wf: &Workflow,
    cfgs: &[ExecConfig],
    scratch: &mut BatchScratch,
) -> Vec<Report> {
    let prep = PreparedWorkflow::new(wf);
    let lanes = scratch.ensure(pool.lanes().max(1));
    pool.map_with_state(lanes, cfgs, |scr, cfg| simulate_prepared(&prep, cfg, scr))
}

/// [`simulate_batch`] with a live progress callback: `on_progress(done,
/// total)` fires after every completed simulation, from whichever thread
/// finished it, with `done` counting completions in *completion* order
/// (not input order). The results are byte-identical to
/// [`simulate_batch`] — the callback observes progress, it cannot affect
/// scheduling or output.
///
/// This is what drives `mcloud sweep --progress` and any other
/// long-running fan-out that wants a heartbeat without giving up the
/// warm-scratch batch path.
pub fn simulate_batch_progress(
    wf: &Workflow,
    cfgs: &[ExecConfig],
    scratch: &mut BatchScratch,
    on_progress: &(dyn Fn(usize, usize) + Sync),
) -> Vec<Report> {
    let total = cfgs.len();
    let done = AtomicUsize::new(0);
    let tick = |report: Report| {
        on_progress(done.fetch_add(1, Ordering::Relaxed) + 1, total);
        report
    };
    let prep = PreparedWorkflow::new(wf);
    fan_out(cfgs, scratch, |scr, cfg| {
        tick(simulate_prepared(&prep, cfg, scr))
    })
}

/// Simulates every workflow in `wfs` under one configuration, in input
/// order, with the same pooling and determinism contract as
/// [`simulate_batch`]. This is the shape CCR-style sweeps need, where the
/// *workflow* varies instead of the configuration (so each is prepared
/// for its one run).
pub fn simulate_batch_workflows(
    wfs: &[Workflow],
    cfg: &ExecConfig,
    scratch: &mut BatchScratch,
) -> Vec<Report> {
    fan_out(wfs, scratch, |scr, wf| {
        simulate_prepared(&PreparedWorkflow::new(wf), cfg, scr)
    })
}

/// Maps `f` over `items` with one warm scratch per lane: inline on the
/// caller thread for degenerate inputs (≤ 1 item, or a one-lane
/// configuration), which never create the pool; else on the global pool.
fn fan_out<T: Sync>(
    items: &[T],
    scratch: &mut BatchScratch,
    f: impl Fn(&mut SimScratch, &T) -> Report + Sync,
) -> Vec<Report> {
    if items.len() <= 1 || mcloud_simkit::configured_lanes() == 1 {
        let scr = &mut scratch.ensure(1)[0];
        return items.iter().map(|item| f(scr, item)).collect();
    }
    let pool = WorkerPool::global();
    pool.map_with_state(scratch.ensure(pool.lanes()), items, f)
}
