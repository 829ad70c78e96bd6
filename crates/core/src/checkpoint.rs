//! Incremental re-simulation along a link-bandwidth axis.
//!
//! With prestaged inputs a run submits its first transfer only at the
//! final stage-out, so runs that differ only in link bandwidth are
//! event-for-event identical until then. This module makes that
//! observation operational. Each run records a **divergence witness** —
//! the first transfer submission, the first event at which the *next*
//! point's bandwidth becomes observable — plus periodic [`SimCheckpoint`]
//! snapshots of the full deterministic state. The next point then
//! restores the latest snapshot (always strictly before the witness, by
//! construction), swaps in links at its own bandwidth, and replays only
//! the divergent suffix.
//!
//! The contract is byte-identity: a resumed point produces exactly the
//! [`Report`] a from-scratch run would, or the chain falls back to `t = 0`
//! whenever the witness cannot bound divergence (any difference besides
//! the bandwidth, trace recording, or a first transfer at `t = 0` as with
//! cold-staged inputs). Seeded differential tests hold the line.
//!
//! Processor-count and fault-rate axes are not chained: measured at 8°
//! and 16° they gained at most 1.11x, so those points always run from
//! scratch.

use mcloud_dag::Workflow;

use crate::config::ExecConfig;
use crate::engine::{
    run_probed, run_resumed, simulate_with_scratch, IncCtl, SimCheckpoint, SimScratch,
};
use crate::report::Report;

/// Counters an incremental sweep accumulates, for speedup accounting and
/// the fallback-visibility the drivers report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Sweep points executed through the chain.
    pub points: u64,
    /// Points that resumed from a checkpoint instead of replaying from
    /// `t = 0`.
    pub resumed: u64,
    /// Events skipped by restores (work a from-scratch sweep would redo).
    pub reused_events: u64,
    /// Events a from-scratch sweep would process in total (reused +
    /// replayed).
    pub total_events: u64,
}

impl IncrementalStats {
    /// Points that could not be resumed (first point, missing witness, or
    /// unchainable configuration pair).
    pub fn fallbacks(&self) -> u64 {
        self.points - self.resumed
    }
}

/// Runs the points of a bandwidth axis in order, forking each run off the
/// previous point's checkpoint when the divergence witness proves it
/// sound, and from `t = 0` otherwise.
///
/// Feed points with [`IncrementalChain::run_point`], passing the *next*
/// point's configuration so the run can arm its witness. Reports are
/// byte-identical to [`crate::simulate`] on every point.
#[derive(Debug, Default)]
pub struct IncrementalChain {
    scratch: SimScratch,
    /// Checkpoint from the previous run, valid for `armed_for`.
    restore: Option<Box<SimCheckpoint>>,
    /// The configuration `restore` was armed toward.
    armed_for: Option<ExecConfig>,
    /// A retired checkpoint kept purely so the next recording reuses its
    /// buffers.
    spare: Option<Box<SimCheckpoint>>,
    stats: IncrementalStats,
}

impl IncrementalChain {
    /// A fresh chain.
    pub fn new() -> Self {
        IncrementalChain::default()
    }

    /// Accumulated reuse counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Simulates one sweep point, resuming from the previous point's
    /// checkpoint when its witness proved that sound. `next` is the
    /// configuration of the following point (or `None` at the end of the
    /// axis); it arms this run's witness so the *next* call can resume.
    ///
    /// The returned [`Report`] is byte-identical to
    /// [`crate::simulate`]`(wf, cfg)` — traced configurations simply fall
    /// back to a full-fidelity run per point.
    ///
    /// # Panics
    /// Panics if the configuration fails [`ExecConfig::validate`].
    pub fn run_point(
        &mut self,
        wf: &Workflow,
        cfg: &ExecConfig,
        next: Option<&ExecConfig>,
    ) -> Report {
        // Trace recording bypasses the witness entirely so traces
        // (and their span ordering) stay bit-for-bit what `simulate`
        // produces.
        if cfg.record_trace {
            self.restore = None;
            self.armed_for = None;
            self.stats.points += 1;
            let report = simulate_with_scratch(wf, cfg, &mut self.scratch);
            self.stats.total_events += report.events_processed;
            return report;
        }
        let armed = next.is_some_and(|n| chainable(cfg, n));
        let mut ctl = IncCtl::new(armed, self.spare.take());
        let restore = self
            .restore
            .take()
            .filter(|_| self.armed_for.as_ref() == Some(cfg));
        let report = match restore {
            Some(ck) => {
                let r = run_resumed(wf, cfg, &mut self.scratch, &ck, &mut ctl);
                self.stats.resumed += 1;
                self.stats.reused_events += ck.pops;
                self.spare = Some(ck);
                r
            }
            None => run_probed(wf, cfg, &mut self.scratch, &mut ctl),
        };
        if ctl.snapshot_fresh {
            // The snapshot was recorded with the witness armed toward
            // `next`, strictly before any witness: valid for `next`.
            self.restore = ctl.snapshot.take();
            self.armed_for = next.cloned();
        } else {
            self.armed_for = None;
            if self.spare.is_none() {
                self.spare = ctl.snapshot.take(); // stale buffer, recycle
            }
        }
        self.stats.points += 1;
        self.stats.total_events += report.events_processed;
        report
    }
}

/// Whether a witness recorded while running `cur` can soundly bound the
/// divergence of `next` — i.e. the two runs are provably event-identical
/// until the first transfer submission. They must be equal in every field
/// but the bandwidth (`record_trace` included), because any other
/// difference could change behavior before the witness.
fn chainable(cur: &ExecConfig, next: &ExecConfig) -> bool {
    let mut norm = next.clone();
    norm.bandwidth_bps = cur.bandwidth_bps;
    norm == *cur
}
