//! A workflow prepared for simulation: every engine table that depends
//! only on the workflow, derived once and borrowed by every run of it.
//!
//! The paper's questions re-simulate one mosaic under many plans — a
//! processor sweep, a fault-rate axis, a batch of configurations, the
//! points of an incremental chain. Everything such runs share lives here
//! and is read-only; the per-run state in [`SimScratch`] holds only what a
//! run mutates, resets by memset, and counts up toward totals read once
//! from the workflow's shape (parents per task, consumers per file), so
//! no pristine copy of any column is kept beside it.
//!
//! Tables only some runs read — critical-path ranks, external-input
//! counts, output-byte sums, cleanup thresholds and per-bandwidth link
//! times — are built on first use. A one-shot [`simulate`] therefore
//! derives no more than its one run reads.
//!
//! [`SimScratch`]: crate::SimScratch
//! [`simulate`]: crate::simulate

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mcloud_dag::{TaskId, Workflow};
use mcloud_simkit::SimDuration;

use crate::config::SchedulePolicy;

/// Link-time tables kept per prepared workflow, most recently used last.
/// A processor or fault axis runs at one bandwidth; a bandwidth axis
/// misses on every point whatever the bound, and rebuilds each table as
/// the former per-run memo did.
const LINK_TABLES_KEPT: usize = 2;

/// A [`PreparedWorkflow::cleanup_after`] threshold no consumer count
/// reaches: the file stays until the final stage-out.
const KEEP: u32 = u32::MAX;

/// One workflow's engine tables, shared read-only by every run of it.
///
/// Build it once with [`PreparedWorkflow::new`] and pass it to
/// [`simulate_prepared`](crate::simulate_prepared) (or an
/// [`IncrementalChain`](crate::IncrementalChain)) for each configuration;
/// the batch entry points prepare their workflow themselves. Results are
/// byte-identical to [`simulate`](crate::simulate) of the workflow. The
/// lazily built tables are thread-safe, so worker lanes share one
/// prepared workflow by reference.
#[derive(Debug)]
pub struct PreparedWorkflow<'w> {
    wf: &'w Workflow,
    /// Per task, its runtime as the engine schedules it.
    runtime: Vec<SimDuration>,
    /// Sum of every task's runtime in seconds, summed in id order.
    total_runtime_s: f64,
    /// Per task, its parents: the run's `parents_done` counter reaches
    /// this when the last one finishes. (A column, not `wf.parents(t)`:
    /// readiness checks read it for every child of every finished task.)
    num_parents: Vec<u32>,
    /// Per task, its inputs that no task produces (shared-storage modes
    /// without prestaged inputs wait on these).
    external_inputs: OnceLock<Vec<u32>>,
    /// Per task, its outputs' total bytes (the storage-capacity check).
    output_bytes: OnceLock<Vec<u64>>,
    /// Per file, how many of its consumers finish before dynamic cleanup
    /// deletes it: all of them, or never ([`KEEP`]) for a staged-out file.
    cleanup_after: OnceLock<Vec<u32>>,
    /// Scheduling ranks under [`SchedulePolicy::CriticalPathFirst`].
    critical_path: OnceLock<Ranks>,
    /// Per bandwidth (as `f64` bits), each file's link time in
    /// microseconds; remote-I/O runs move most files several times.
    link_times: Mutex<Vec<(u64, Arc<[u64]>)>>,
}

/// A scheduling order as a permutation of task ids: the lower rank runs
/// first. Ranks are unique, which is what lets the engine's ready set be
/// a bitmap over them.
#[derive(Debug)]
pub(crate) struct Ranks {
    /// Per task, its rank.
    pub rank: Vec<u32>,
    /// Per rank, its task (the inverse permutation).
    pub task: Vec<u32>,
}

impl<'w> PreparedWorkflow<'w> {
    /// Derives the tables every run of `wf` reads; the rest are built when
    /// a run first needs them.
    pub fn new(wf: &'w Workflow) -> Self {
        PreparedWorkflow {
            wf,
            runtime: wf
                .task_ids()
                .map(|t| SimDuration::from_secs_f64(wf.runtime_s(t)))
                .collect(),
            total_runtime_s: wf.total_runtime_s(),
            num_parents: wf.task_ids().map(|t| wf.parents(t).len() as u32).collect(),
            external_inputs: OnceLock::new(),
            output_bytes: OnceLock::new(),
            cleanup_after: OnceLock::new(),
            critical_path: OnceLock::new(),
            link_times: Mutex::new(Vec::new()),
        }
    }

    /// The workflow these tables describe.
    pub fn workflow(&self) -> &'w Workflow {
        self.wf
    }

    /// Task `t`'s runtime as a simulated span.
    #[inline]
    pub(crate) fn runtime(&self, t: TaskId) -> SimDuration {
        self.runtime[t.index()]
    }

    pub(crate) fn total_runtime_s(&self) -> f64 {
        self.total_runtime_s
    }

    /// How many parents task `t` has.
    #[inline]
    pub(crate) fn num_parents(&self, t: TaskId) -> u32 {
        self.num_parents[t.index()]
    }

    /// Per task, how many of its inputs are staged in from outside.
    pub(crate) fn external_inputs(&self) -> &[u32] {
        self.external_inputs.get_or_init(|| {
            let wf = self.wf;
            wf.task_ids()
                .map(|t| {
                    let external = wf.inputs(t).iter().filter(|&&f| wf.producer(f).is_none());
                    external.count() as u32
                })
                .collect()
        })
    }

    /// Per task, the total bytes of its outputs.
    pub(crate) fn output_bytes(&self) -> &[u64] {
        self.output_bytes.get_or_init(|| {
            let wf = self.wf;
            wf.task_ids()
                .map(|t| wf.outputs(t).iter().map(|&f| wf.bytes(f)).sum())
                .collect()
        })
    }

    /// Per file, the number of finished consumers at which dynamic
    /// cleanup deletes it: its consumer count, or [`KEEP`] for one of the
    /// workflow's staged-out files.
    pub(crate) fn cleanup_after(&self) -> &[u32] {
        self.cleanup_after.get_or_init(|| {
            let wf = self.wf;
            let mut after: Vec<u32> = wf
                .file_ids()
                .map(|f| wf.consumers(f).len() as u32)
                .collect();
            for f in wf.staged_out_files() {
                after[f.index()] = KEEP;
            }
            after
        })
    }

    /// The ranks `policy` schedules by, or `None` for
    /// [`SchedulePolicy::FifoById`], whose rank of a task is its id.
    pub(crate) fn ranks(&self, policy: SchedulePolicy) -> Option<&Ranks> {
        match policy {
            SchedulePolicy::FifoById => None,
            // Descending bottom level, ties by id.
            SchedulePolicy::CriticalPathFirst => Some(self.critical_path.get_or_init(|| {
                let bl = self.wf.bottom_levels();
                let mut task: Vec<u32> = (0..self.wf.num_tasks() as u32).collect();
                task.sort_by(|&a, &b| bl[b as usize].total_cmp(&bl[a as usize]).then(a.cmp(&b)));
                let mut rank = vec![0; task.len()];
                for (r, &t) in task.iter().enumerate() {
                    rank[t as usize] = r as u32;
                }
                Ranks { rank, task }
            })),
        }
    }

    /// Each file's link time in microseconds at `bandwidth_bps`: what
    /// `SimDuration::transfer_time` returns for its bytes.
    pub(crate) fn link_times(&self, bandwidth_bps: f64) -> Arc<[u64]> {
        let key = bandwidth_bps.to_bits();
        // A table is inserted whole, so a poisoned memo is still
        // consistent and stays in use.
        let memo = || {
            self.link_times
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        };
        {
            let mut kept = memo();
            if let Some(i) = kept.iter().position(|&(k, _)| k == key) {
                let hit = kept.remove(i);
                let table = Arc::clone(&hit.1);
                kept.push(hit);
                return table;
            }
        }
        // Built unlocked, so lanes at other bandwidths do not wait on it.
        let wf = self.wf;
        let table: Arc<[u64]> = wf
            .file_ids()
            .map(|f| SimDuration::transfer_time(wf.bytes(f), bandwidth_bps).as_micros())
            .collect();
        let mut kept = memo();
        if !kept.iter().any(|&(k, _)| k == key) {
            if kept.len() == LINK_TABLES_KEPT {
                kept.remove(0);
            }
            kept.push((key, Arc::clone(&table)));
        }
        table
    }
}
