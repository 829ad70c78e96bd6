//! Trace-driven profiling: per-task phase attribution, per-class and
//! per-level aggregation, the observed critical path, and cost
//! attribution joined against the rate card.
//!
//! The event stream ([`simulate_traced`](crate::simulate_traced), or a
//! JSONL trace re-read with [`trace_from_jsonl`](crate::trace_from_jsonl))
//! already contains everything the paper's successor studies profile by
//! hand: when each task became runnable, waited, ran, and moved data.
//! [`profile_trace`] reconstructs that per task and attributes each task's
//! wall time to five phases:
//!
//! * **queue-wait** — between readiness and dispatch (the engine's own
//!   `waited` measurements, so sums reconcile with the report);
//! * **execution** — dispatch to finish, over every attempt;
//! * **transfer-in** — waiting on inbound staging: the task's private
//!   stage-in window under remote I/O, or the wait on shared bulk staging
//!   beyond DAG readiness in the shared-storage modes;
//! * **transfer-out** — the task's private stage-out window (remote I/O;
//!   the shared modes stage out once per workflow, reported separately);
//! * **storage-wait** — blocked on storage capacity before re-admission.
//!
//! Phases are per-task accounting, not a partition of the makespan: two
//! tasks can wait on the link simultaneously, so phase sums can exceed the
//! wall clock — exactly like CPU-seconds versus elapsed time in any
//! profiler.
//!
//! [`attribute_profile_costs`] then joins the per-class usage with a
//! [`Pricing`], answering the Figure-10 question — *which task class spent
//! the dollars, and on what resource* — with a residual row so the sum
//! reconciles with the engine's billed [`Report::costs`].

use mcloud_cost::{
    attribute_costs, attributed_total, residual_row, AttributedCost, CostBreakdown, Pricing,
    ResourceUsage,
};
use mcloud_dag::{TaskId, Workflow};
use mcloud_simkit::json::escape;
use mcloud_simkit::{Histogram, SimTime, TimedEvent, TraceEvent};

use crate::report::Report;

/// Phase attribution for one task, reconstructed from the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskProfile {
    /// The task.
    pub task: TaskId,
    /// Execution attempts observed (1 unless fault injection retried it).
    pub attempts: u32,
    /// When the task first became runnable, seconds.
    pub first_ready_s: f64,
    /// When its first attempt was dispatched, seconds.
    pub first_start_s: f64,
    /// When its successful attempt finished, seconds.
    pub finish_s: f64,
    /// Total readiness-to-dispatch wait over all attempts, seconds.
    pub queue_wait_s: f64,
    /// Total execution time over all attempts, seconds.
    pub exec_s: f64,
    /// Inbound staging wait attributable to this task, seconds.
    pub transfer_in_s: f64,
    /// Private outbound staging window (remote I/O), seconds.
    pub transfer_out_s: f64,
    /// Time blocked on storage capacity, seconds.
    pub storage_wait_s: f64,
    /// Bytes staged in privately for this task (remote I/O).
    pub bytes_in: u64,
    /// Bytes staged out privately by this task (remote I/O).
    pub bytes_out: u64,
    /// Execution seconds consumed by failed attempts (billed but wasted).
    pub wasted_s: f64,
    /// Privately staged inbound bytes carried by failed transfers.
    pub wasted_bytes_in: u64,
    /// Privately staged outbound bytes carried by failed transfers.
    pub wasted_bytes_out: u64,
}

/// Phase totals for one task class (all invocations of one Montage
/// module), in workflow first-appearance order.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassProfile {
    /// Module name (`mProject`, `mDiffFit`, ...).
    pub class: String,
    /// Invocations.
    pub tasks: usize,
    /// Execution attempts (> `tasks` under fault injection).
    pub attempts: u64,
    /// Summed queue-wait, seconds.
    pub queue_wait_s: f64,
    /// Summed execution time over all attempts, seconds.
    pub exec_s: f64,
    /// Summed inbound staging wait, seconds.
    pub transfer_in_s: f64,
    /// Summed private outbound staging, seconds.
    pub transfer_out_s: f64,
    /// Summed storage-capacity wait, seconds.
    pub storage_wait_s: f64,
    /// Bytes staged in privately.
    pub bytes_in: u64,
    /// Bytes staged out privately.
    pub bytes_out: u64,
    /// Summed execution seconds consumed by failed attempts.
    pub wasted_s: f64,
    /// Summed inbound bytes carried by failed private transfers.
    pub wasted_bytes_in: u64,
    /// Summed outbound bytes carried by failed private transfers.
    pub wasted_bytes_out: u64,
}

impl ClassProfile {
    /// Sum of the five attributed phases, seconds.
    pub fn attributed_s(&self) -> f64 {
        self.queue_wait_s
            + self.exec_s
            + self.transfer_in_s
            + self.transfer_out_s
            + self.storage_wait_s
    }
}

/// Phase totals for one workflow level (pipeline stage).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelProfile {
    /// 1-based level.
    pub level: u32,
    /// Tasks on the level.
    pub tasks: usize,
    /// Summed execution time, seconds.
    pub exec_s: f64,
    /// Summed queue-wait, seconds.
    pub queue_wait_s: f64,
    /// Earliest dispatch on the level, seconds.
    pub window_start_s: f64,
    /// Latest successful finish on the level, seconds.
    pub window_finish_s: f64,
}

/// Everything [`profile_trace`] extracts from one recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowProfile {
    /// Per-task phase attribution, by task id.
    pub tasks: Vec<TaskProfile>,
    /// Per-class aggregation, in first-appearance order.
    pub classes: Vec<ClassProfile>,
    /// Per-level aggregation, level 1 first.
    pub levels: Vec<LevelProfile>,
    /// The observed critical path: walking back from the last-finishing
    /// task through whichever parent gated each start.
    pub observed_critical_path: Vec<TaskId>,
    /// Summed execution time along that path, seconds.
    pub observed_critical_exec_s: f64,
    /// The graph-theoretic critical path length of the same workflow
    /// ([`Workflow::critical_path_s`]), for comparison.
    pub graph_critical_path_s: f64,
    /// Timestamp of the last event, seconds.
    pub makespan_s: f64,
    /// Duration of the shared bulk stage-in window (shared modes), seconds.
    pub stage_in_window_s: f64,
    /// Duration of the final shared stage-out window, seconds.
    pub stage_out_window_s: f64,
    /// Bytes moved inbound by shared (unattributed) staging.
    pub shared_bytes_in: u64,
    /// Bytes moved outbound by shared (unattributed) staging.
    pub shared_bytes_out: u64,
    /// Failed execution attempts observed in the trace.
    pub failed_attempts: u64,
    /// Whole-processor preemptions observed in the trace.
    pub preemptions: u64,
    /// Transfer failures observed in the trace.
    pub transfer_failures: u64,
    /// Shared (unattributed) inbound bytes carried by failed transfers.
    pub shared_wasted_bytes_in: u64,
    /// Shared (unattributed) outbound bytes carried by failed transfers.
    pub shared_wasted_bytes_out: u64,
    /// Distribution of per-attempt queue waits, seconds.
    pub queue_wait_hist: Histogram,
    /// Distribution of per-attempt execution times, seconds.
    pub exec_hist: Histogram,
}

/// Attribution label for the residual (billed but not class-attributable)
/// row: idle provisioned processors, billing round-up, float rounding.
pub const RESIDUAL_LABEL: &str = "(idle/overhead)";
/// Attribution label for shared bulk stage-in transfers.
pub const SHARED_IN_LABEL: &str = "(shared stage-in)";
/// Attribution label for the final shared stage-out transfers.
pub const SHARED_OUT_LABEL: &str = "(shared stage-out)";
/// Attribution label for the storage resource (shared by construction).
pub const STORAGE_LABEL: &str = "(storage)";
/// Attribution label for wasted work: billed CPU-seconds and transfer
/// bytes consumed by failed attempts under fault injection. Present only
/// when the trace contains failures.
pub const WASTED_LABEL: &str = "(wasted)";

/// Per-class cost attribution with its reconciliation target.
#[derive(Debug, Clone, PartialEq)]
pub struct CostAttribution {
    /// One row per class (profile order) followed by the synthetic rows:
    /// shared stage-in/out, storage, and the residual. Rows sum to
    /// [`CostAttribution::billed`] up to float rounding.
    pub rows: Vec<AttributedCost>,
    /// What the engine actually billed (`Report::costs`).
    pub billed: CostBreakdown,
}

impl CostAttribution {
    /// Sum of all attribution rows.
    pub fn attributed(&self) -> CostBreakdown {
        attributed_total(&self.rows)
    }
}

/// Internal per-task scan state.
#[derive(Clone)]
struct Scan {
    first_ready: Option<SimTime>,
    last_start: SimTime,
    first_start: Option<SimTime>,
    finish_ok: Option<SimTime>,
    attempts: u32,
    queue_wait_s: f64,
    exec_s: f64,
    storage_wait_s: f64,
    blocked_at: Option<SimTime>,
    in_first_grant: Option<SimTime>,
    in_last_done: Option<SimTime>,
    out_first_grant: Option<SimTime>,
    out_last_done: Option<SimTime>,
    bytes_in: u64,
    bytes_out: u64,
    wasted_s: f64,
    wasted_bytes_in: u64,
    wasted_bytes_out: u64,
}

/// Reconstructs per-task spans and phase attribution from a recorded event
/// stream.
///
/// # Panics
/// Panics if the trace references a task index outside `wf` — i.e. the
/// trace belongs to a different workflow.
pub fn profile_trace(wf: &Workflow, events: &[TimedEvent]) -> WorkflowProfile {
    let n = wf.num_tasks();
    let mut scan = vec![
        Scan {
            first_ready: None,
            last_start: SimTime::ZERO,
            first_start: None,
            finish_ok: None,
            attempts: 0,
            queue_wait_s: 0.0,
            exec_s: 0.0,
            storage_wait_s: 0.0,
            blocked_at: None,
            in_first_grant: None,
            in_last_done: None,
            out_first_grant: None,
            out_last_done: None,
            bytes_in: 0,
            bytes_out: 0,
            wasted_s: 0.0,
            wasted_bytes_in: 0,
            wasted_bytes_out: 0,
        };
        n
    ];
    let idx = |task: u32| {
        assert!(
            (task as usize) < n,
            "trace references task {task} but the workflow has {n} tasks; \
             profile the trace against the workflow that produced it"
        );
        task as usize
    };

    let mut shared_bytes_in = 0u64;
    let mut shared_bytes_out = 0u64;
    let mut shared_in_window: Option<(SimTime, SimTime)> = None;
    let mut shared_out_window: Option<(SimTime, SimTime)> = None;
    let mut makespan = SimTime::ZERO;
    let mut queue_wait_hist = Histogram::new();
    let mut exec_hist = Histogram::new();
    let mut failed_attempts = 0u64;
    let mut preemptions = 0u64;
    let mut transfer_failures = 0u64;
    let mut shared_wasted_bytes_in = 0u64;
    let mut shared_wasted_bytes_out = 0u64;

    for e in events {
        makespan = makespan.max(e.at);
        match e.event {
            TraceEvent::TaskReady { task } => {
                let s = &mut scan[idx(task)];
                if s.first_ready.is_none() {
                    s.first_ready = Some(e.at);
                }
                if let Some(b) = s.blocked_at.take() {
                    s.storage_wait_s += e.at.since(b).as_secs_f64();
                }
            }
            TraceEvent::TaskStarted { task, waited, .. } => {
                let s = &mut scan[idx(task)];
                s.attempts += 1;
                s.last_start = e.at;
                if s.first_start.is_none() {
                    s.first_start = Some(e.at);
                }
                s.queue_wait_s += waited.as_secs_f64();
                queue_wait_hist.record(waited.as_secs_f64());
            }
            TraceEvent::TaskFinished { task, ok, .. } => {
                let s = &mut scan[idx(task)];
                let dur = e.at.since(s.last_start).as_secs_f64();
                s.exec_s += dur;
                exec_hist.record(dur);
                if ok {
                    s.finish_ok = Some(e.at);
                } else {
                    s.wasted_s += dur;
                }
            }
            TraceEvent::TaskFailed { .. } => {
                failed_attempts += 1;
            }
            TraceEvent::ProcessorPreempted { .. } => {
                preemptions += 1;
            }
            TraceEvent::TransferFailed { chan, bytes, task } => {
                transfer_failures += 1;
                match (task, chan) {
                    (Some(t), mcloud_simkit::Channel::In) => {
                        scan[idx(t)].wasted_bytes_in += bytes;
                    }
                    (Some(t), mcloud_simkit::Channel::Out) => {
                        scan[idx(t)].wasted_bytes_out += bytes;
                    }
                    (None, mcloud_simkit::Channel::In) => shared_wasted_bytes_in += bytes,
                    (None, mcloud_simkit::Channel::Out) => shared_wasted_bytes_out += bytes,
                }
            }
            TraceEvent::TaskBlockedOnStorage { task } => {
                let s = &mut scan[idx(task)];
                // Consecutive blocks without an intervening re-ready keep
                // the original block instant.
                if s.blocked_at.is_none() {
                    s.blocked_at = Some(e.at);
                }
            }
            TraceEvent::TransferGranted {
                chan, bytes, task, ..
            } => match (task, chan) {
                (Some(t), mcloud_simkit::Channel::In) => {
                    let s = &mut scan[idx(t)];
                    if s.in_first_grant.is_none() {
                        s.in_first_grant = Some(e.at);
                    }
                    s.bytes_in += bytes;
                }
                (Some(t), mcloud_simkit::Channel::Out) => {
                    let s = &mut scan[idx(t)];
                    if s.out_first_grant.is_none() {
                        s.out_first_grant = Some(e.at);
                    }
                    s.bytes_out += bytes;
                }
                (None, mcloud_simkit::Channel::In) => {
                    shared_bytes_in += bytes;
                    let w = shared_in_window.get_or_insert((e.at, e.at));
                    w.0 = w.0.min(e.at);
                }
                (None, mcloud_simkit::Channel::Out) => {
                    shared_bytes_out += bytes;
                    let w = shared_out_window.get_or_insert((e.at, e.at));
                    w.0 = w.0.min(e.at);
                }
            },
            TraceEvent::TransferCompleted { chan, task, .. } => match (task, chan) {
                (Some(t), mcloud_simkit::Channel::In) => {
                    scan[idx(t)].in_last_done = Some(e.at);
                }
                (Some(t), mcloud_simkit::Channel::Out) => {
                    scan[idx(t)].out_last_done = Some(e.at);
                }
                (None, mcloud_simkit::Channel::In) => {
                    if let Some(w) = shared_in_window.as_mut() {
                        w.1 = w.1.max(e.at);
                    }
                }
                (None, mcloud_simkit::Channel::Out) => {
                    if let Some(w) = shared_out_window.as_mut() {
                        w.1 = w.1.max(e.at);
                    }
                }
            },
            _ => {}
        }
    }

    // Successful-finish times drive DAG-readiness and the observed path.
    let finish_of: Vec<Option<SimTime>> = scan.iter().map(|s| s.finish_ok).collect();

    let mut tasks = Vec::with_capacity(n);
    for (i, s) in scan.iter().enumerate() {
        let t = TaskId(i as u32);
        // When the task's parents (in DAG terms) were all done. For
        // remote I/O the gating instant per parent is its last private
        // stage-out completion, not its execution finish.
        let dag_ready = wf
            .parents(t)
            .iter()
            .filter_map(|p| {
                let ps = &scan[p.index()];
                match (ps.out_last_done, finish_of[p.index()]) {
                    (Some(out), Some(fin)) => Some(out.max(fin)),
                    (Some(out), None) => Some(out),
                    (None, fin) => fin,
                }
            })
            .max()
            .unwrap_or(SimTime::ZERO);
        let transfer_in_s = match (s.in_first_grant, s.in_last_done) {
            // Private stage-in window (remote I/O).
            (Some(first), Some(last)) => last.since(first).as_secs_f64(),
            // Shared staging: readiness delayed beyond DAG readiness means
            // the task sat waiting for external inputs on the link.
            _ => match s.first_ready {
                Some(r) if r > dag_ready => r.since(dag_ready).as_secs_f64(),
                _ => 0.0,
            },
        };
        let transfer_out_s = match (s.out_first_grant, s.out_last_done) {
            (Some(first), Some(last)) => last.since(first).as_secs_f64(),
            _ => 0.0,
        };
        tasks.push(TaskProfile {
            task: t,
            attempts: s.attempts,
            first_ready_s: s.first_ready.unwrap_or(SimTime::ZERO).as_secs_f64(),
            first_start_s: s.first_start.unwrap_or(SimTime::ZERO).as_secs_f64(),
            finish_s: s.finish_ok.unwrap_or(SimTime::ZERO).as_secs_f64(),
            queue_wait_s: s.queue_wait_s,
            exec_s: s.exec_s,
            transfer_in_s,
            transfer_out_s,
            storage_wait_s: s.storage_wait_s,
            bytes_in: s.bytes_in,
            bytes_out: s.bytes_out,
            wasted_s: s.wasted_s,
            wasted_bytes_in: s.wasted_bytes_in,
            wasted_bytes_out: s.wasted_bytes_out,
        });
    }

    // Per-class aggregation, first-appearance order (the Montage pipeline).
    let mut class_order: Vec<String> = Vec::new();
    let mut class_index: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    let mut classes: Vec<ClassProfile> = Vec::new();
    for tp in &tasks {
        let module = wf.task(tp.task).module;
        let ci = *class_index.entry(module).or_insert_with(|| {
            class_order.push(module.to_string());
            classes.push(ClassProfile {
                class: module.to_string(),
                tasks: 0,
                attempts: 0,
                queue_wait_s: 0.0,
                exec_s: 0.0,
                transfer_in_s: 0.0,
                transfer_out_s: 0.0,
                storage_wait_s: 0.0,
                bytes_in: 0,
                bytes_out: 0,
                wasted_s: 0.0,
                wasted_bytes_in: 0,
                wasted_bytes_out: 0,
            });
            classes.len() - 1
        });
        let c = &mut classes[ci];
        c.tasks += 1;
        c.attempts += tp.attempts as u64;
        c.queue_wait_s += tp.queue_wait_s;
        c.exec_s += tp.exec_s;
        c.transfer_in_s += tp.transfer_in_s;
        c.transfer_out_s += tp.transfer_out_s;
        c.storage_wait_s += tp.storage_wait_s;
        c.bytes_in += tp.bytes_in;
        c.bytes_out += tp.bytes_out;
        c.wasted_s += tp.wasted_s;
        c.wasted_bytes_in += tp.wasted_bytes_in;
        c.wasted_bytes_out += tp.wasted_bytes_out;
    }

    // Per-level aggregation.
    let level_of = wf.levels();
    let depth = level_of.iter().copied().max().unwrap_or(0) as usize;
    let mut levels: Vec<LevelProfile> = (1..=depth as u32)
        .map(|level| LevelProfile {
            level,
            tasks: 0,
            exec_s: 0.0,
            queue_wait_s: 0.0,
            window_start_s: f64::INFINITY,
            window_finish_s: 0.0,
        })
        .collect();
    for tp in &tasks {
        let l = &mut levels[(level_of[tp.task.index()] - 1) as usize];
        l.tasks += 1;
        l.exec_s += tp.exec_s;
        l.queue_wait_s += tp.queue_wait_s;
        l.window_start_s = l.window_start_s.min(tp.first_start_s);
        l.window_finish_s = l.window_finish_s.max(tp.finish_s);
    }
    for l in &mut levels {
        if l.tasks == 0 {
            l.window_start_s = 0.0;
        }
    }

    // Observed critical path: start from the latest successful finish
    // (lowest id on ties) and walk back through the parent whose
    // availability gated each task, mirroring
    // [`Workflow::critical_path_tasks`].
    let constraint = |p: TaskId| -> SimTime {
        let ps = &scan[p.index()];
        match (ps.out_last_done, finish_of[p.index()]) {
            (Some(out), Some(fin)) => out.max(fin),
            (Some(out), None) => out,
            (None, Some(fin)) => fin,
            (None, None) => SimTime::ZERO,
        }
    };
    let mut observed_critical_path = Vec::new();
    let mut exit: Option<TaskId> = None;
    for t in wf.task_ids() {
        if finish_of[t.index()].is_some()
            && exit.is_none_or(|e| finish_of[t.index()] > finish_of[e.index()])
        {
            exit = Some(t);
        }
    }
    if let Some(mut cur) = exit {
        observed_critical_path.push(cur);
        loop {
            let parents = wf.parents(cur);
            let Some(&first) = parents.first() else { break };
            let mut binding = first;
            for &p in &parents[1..] {
                if constraint(p) > constraint(binding) {
                    binding = p;
                }
            }
            observed_critical_path.push(binding);
            cur = binding;
        }
        observed_critical_path.reverse();
    }
    let observed_critical_exec_s = observed_critical_path
        .iter()
        .map(|t| tasks[t.index()].exec_s)
        .sum();

    WorkflowProfile {
        tasks,
        classes,
        levels,
        observed_critical_path,
        observed_critical_exec_s,
        graph_critical_path_s: wf.critical_path_s(),
        makespan_s: makespan.as_secs_f64(),
        stage_in_window_s: shared_in_window
            .map(|(a, b)| b.since(a).as_secs_f64())
            .unwrap_or(0.0),
        stage_out_window_s: shared_out_window
            .map(|(a, b)| b.since(a).as_secs_f64())
            .unwrap_or(0.0),
        shared_bytes_in,
        shared_bytes_out,
        failed_attempts,
        preemptions,
        transfer_failures,
        shared_wasted_bytes_in,
        shared_wasted_bytes_out,
        queue_wait_hist,
        exec_hist,
    }
}

/// Joins a [`WorkflowProfile`] with the rate card: one cost row per task
/// class (CPU from executed seconds, transfers from privately staged
/// bytes), synthetic rows for shared staging and the storage resource, and
/// a residual row capturing whatever the engine billed beyond that (idle
/// provisioned processors, hourly round-up). Row sums reconcile with
/// `report.costs` to float rounding.
pub fn attribute_profile_costs(
    profile: &WorkflowProfile,
    report: &Report,
    pricing: &Pricing,
) -> CostAttribution {
    // Wasted work (failed attempts and failed transfers) is carved out of
    // the class and shared rows into its own row, so the dollars lost to
    // faults are visible without disturbing the overall reconciliation.
    let wasted_s: f64 = profile.classes.iter().map(|c| c.wasted_s).sum();
    let wasted_in: u64 = profile
        .classes
        .iter()
        .map(|c| c.wasted_bytes_in)
        .sum::<u64>()
        + profile.shared_wasted_bytes_in;
    let wasted_out: u64 = profile
        .classes
        .iter()
        .map(|c| c.wasted_bytes_out)
        .sum::<u64>()
        + profile.shared_wasted_bytes_out;
    let any_waste = wasted_s > 0.0 || wasted_in > 0 || wasted_out > 0;
    let mut usage: Vec<ResourceUsage> = profile
        .classes
        .iter()
        .map(|c| ResourceUsage {
            label: c.class.clone(),
            cpu_seconds: c.exec_s - c.wasted_s,
            bytes_in: c.bytes_in - c.wasted_bytes_in,
            bytes_out: c.bytes_out - c.wasted_bytes_out,
            storage_byte_seconds: 0.0,
        })
        .collect();
    if any_waste {
        usage.push(ResourceUsage {
            label: WASTED_LABEL.to_string(),
            cpu_seconds: wasted_s,
            bytes_in: wasted_in,
            bytes_out: wasted_out,
            storage_byte_seconds: 0.0,
        });
    }
    usage.push(ResourceUsage {
        label: SHARED_IN_LABEL.to_string(),
        bytes_in: profile.shared_bytes_in - profile.shared_wasted_bytes_in,
        ..ResourceUsage::new(SHARED_IN_LABEL)
    });
    usage.push(ResourceUsage {
        label: SHARED_OUT_LABEL.to_string(),
        bytes_out: profile.shared_bytes_out - profile.shared_wasted_bytes_out,
        ..ResourceUsage::new(SHARED_OUT_LABEL)
    });
    usage.push(ResourceUsage {
        label: STORAGE_LABEL.to_string(),
        storage_byte_seconds: report.storage_byte_seconds,
        ..ResourceUsage::new(STORAGE_LABEL)
    });
    let mut rows = attribute_costs(pricing, &usage);
    rows.push(residual_row(RESIDUAL_LABEL, report.costs, &rows));
    CostAttribution {
        rows,
        billed: report.costs,
    }
}

// --- rendering -------------------------------------------------------------

/// Escapes XML/SVG text content.
fn xml_esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders the deterministic plain-text profile report.
pub fn profile_text(
    wf: &Workflow,
    title: &str,
    profile: &WorkflowProfile,
    attribution: &CostAttribution,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let attempts: u64 = profile.classes.iter().map(|c| c.attempts).sum();
    writeln!(out, "profile: {title}").unwrap();
    writeln!(
        out,
        "makespan {:.3} h | {} tasks, {} attempts | observed critical path {} tasks, {:.1} s exec (graph: {:.1} s)",
        profile.makespan_s / 3600.0,
        profile.tasks.len(),
        attempts,
        profile.observed_critical_path.len(),
        profile.observed_critical_exec_s,
        profile.graph_critical_path_s,
    )
    .unwrap();
    let h = &profile.queue_wait_hist;
    writeln!(
        out,
        "queue wait [s]: mean {:.3} p50 {:.3} p95 {:.3} p99 {:.3} max {:.3}",
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.95),
        h.quantile(0.99),
        h.max(),
    )
    .unwrap();
    let e = &profile.exec_hist;
    writeln!(
        out,
        "execution [s]: mean {:.3} p50 {:.3} p95 {:.3} p99 {:.3} max {:.3}",
        e.mean(),
        e.quantile(0.5),
        e.quantile(0.95),
        e.quantile(0.99),
        e.max(),
    )
    .unwrap();
    writeln!(
        out,
        "shared staging: in {:.4} GB over {:.1} s | out {:.4} GB over {:.1} s",
        profile.shared_bytes_in as f64 / 1e9,
        profile.stage_in_window_s,
        profile.shared_bytes_out as f64 / 1e9,
        profile.stage_out_window_s,
    )
    .unwrap();
    // Only narrated when the trace contains failures, so fault-free
    // profiles render byte-identically to older versions.
    if profile.failed_attempts > 0 || profile.preemptions > 0 || profile.transfer_failures > 0 {
        let wasted_s: f64 = profile.classes.iter().map(|c| c.wasted_s).sum();
        let wasted_in: u64 = profile
            .classes
            .iter()
            .map(|c| c.wasted_bytes_in)
            .sum::<u64>()
            + profile.shared_wasted_bytes_in;
        let wasted_out: u64 = profile
            .classes
            .iter()
            .map(|c| c.wasted_bytes_out)
            .sum::<u64>()
            + profile.shared_wasted_bytes_out;
        writeln!(
            out,
            "faults: {} failed attempts, {} preemptions, {} failed transfers | wasted {:.1} s cpu, {:.4} GB in, {:.4} GB out",
            profile.failed_attempts,
            profile.preemptions,
            profile.transfer_failures,
            wasted_s,
            wasted_in as f64 / 1e9,
            wasted_out as f64 / 1e9,
        )
        .unwrap();
    }

    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<14}{:>6}{:>5}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "class", "tasks", "att", "exec_s", "queue_s", "xfer_in_s", "xfer_out_s", "stor_s"
    )
    .unwrap();
    for c in &profile.classes {
        writeln!(
            out,
            "{:<14}{:>6}{:>5}{:>12.1}{:>12.1}{:>12.1}{:>12.1}{:>10.1}",
            c.class,
            c.tasks,
            c.attempts,
            c.exec_s,
            c.queue_wait_s,
            c.transfer_in_s,
            c.transfer_out_s,
            c.storage_wait_s
        )
        .unwrap();
    }

    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<20}{:>11}{:>11}{:>11}{:>11}{:>11}",
        "cost [$]", "cpu", "storage", "xfer_in", "xfer_out", "total"
    )
    .unwrap();
    for r in &attribution.rows {
        writeln!(
            out,
            "{:<20}{:>11.6}{:>11.6}{:>11.6}{:>11.6}{:>11.6}",
            r.label,
            r.cost.cpu.dollars(),
            r.cost.storage.dollars(),
            r.cost.transfer_in.dollars(),
            r.cost.transfer_out.dollars(),
            r.cost.total().dollars()
        )
        .unwrap();
    }
    let billed = attribution.billed;
    writeln!(
        out,
        "{:<20}{:>11.6}{:>11.6}{:>11.6}{:>11.6}{:>11.6}",
        "billed",
        billed.cpu.dollars(),
        billed.storage.dollars(),
        billed.transfer_in.dollars(),
        billed.transfer_out.dollars(),
        billed.total().dollars()
    )
    .unwrap();

    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<7}{:>6}{:>12}{:>12}{:>12}{:>12}",
        "level", "tasks", "exec_s", "queue_s", "start_s", "finish_s"
    )
    .unwrap();
    for l in &profile.levels {
        writeln!(
            out,
            "{:<7}{:>6}{:>12.1}{:>12.1}{:>12.1}{:>12.1}",
            l.level, l.tasks, l.exec_s, l.queue_wait_s, l.window_start_s, l.window_finish_s
        )
        .unwrap();
    }

    writeln!(out).unwrap();
    let path_names: Vec<&str> = profile
        .observed_critical_path
        .iter()
        .map(|&t| wf.task(t).name)
        .collect();
    writeln!(out, "observed critical path: {}", path_names.join(" -> ")).unwrap();
    out
}

/// Renders the deterministic JSON profile report (one object, fixed key
/// order, fixed float formatting).
pub fn profile_json(
    wf: &Workflow,
    title: &str,
    profile: &WorkflowProfile,
    attribution: &CostAttribution,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    write!(
        out,
        r#"{{"workflow":"{}","tasks":{},"makespan_s":{:.6},"observed_critical_exec_s":{:.6},"graph_critical_path_s":{:.6},"stage_in_window_s":{:.6},"stage_out_window_s":{:.6},"shared_bytes_in":{},"shared_bytes_out":{}"#,
        escape(title),
        profile.tasks.len(),
        profile.makespan_s,
        profile.observed_critical_exec_s,
        profile.graph_critical_path_s,
        profile.stage_in_window_s,
        profile.stage_out_window_s,
        profile.shared_bytes_in,
        profile.shared_bytes_out,
    )
    .unwrap();
    write!(
        out,
        r#","queue_wait_s":{{"mean":{:.6},"p50":{:.6},"p95":{:.6},"p99":{:.6},"max":{:.6}}}"#,
        profile.queue_wait_hist.mean(),
        profile.queue_wait_hist.quantile(0.5),
        profile.queue_wait_hist.quantile(0.95),
        profile.queue_wait_hist.quantile(0.99),
        profile.queue_wait_hist.max(),
    )
    .unwrap();
    // Conditional so fault-free profiles stay byte-identical.
    if profile.failed_attempts > 0 || profile.preemptions > 0 || profile.transfer_failures > 0 {
        let wasted_s: f64 = profile.classes.iter().map(|c| c.wasted_s).sum();
        let wasted_in: u64 = profile
            .classes
            .iter()
            .map(|c| c.wasted_bytes_in)
            .sum::<u64>()
            + profile.shared_wasted_bytes_in;
        let wasted_out: u64 = profile
            .classes
            .iter()
            .map(|c| c.wasted_bytes_out)
            .sum::<u64>()
            + profile.shared_wasted_bytes_out;
        write!(
            out,
            r#","faults":{{"failed_attempts":{},"preemptions":{},"transfer_failures":{},"wasted_cpu_s":{:.6},"wasted_bytes_in":{},"wasted_bytes_out":{}}}"#,
            profile.failed_attempts,
            profile.preemptions,
            profile.transfer_failures,
            wasted_s,
            wasted_in,
            wasted_out,
        )
        .unwrap();
    }
    out.push_str(r#","classes":["#);
    for (i, c) in profile.classes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            r#"{{"class":"{}","tasks":{},"attempts":{},"exec_s":{:.6},"queue_wait_s":{:.6},"transfer_in_s":{:.6},"transfer_out_s":{:.6},"storage_wait_s":{:.6},"bytes_in":{},"bytes_out":{}}}"#,
            escape(&c.class),
            c.tasks,
            c.attempts,
            c.exec_s,
            c.queue_wait_s,
            c.transfer_in_s,
            c.transfer_out_s,
            c.storage_wait_s,
            c.bytes_in,
            c.bytes_out,
        )
        .unwrap();
    }
    out.push_str(r#"],"levels":["#);
    for (i, l) in profile.levels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            r#"{{"level":{},"tasks":{},"exec_s":{:.6},"queue_wait_s":{:.6},"window_start_s":{:.6},"window_finish_s":{:.6}}}"#,
            l.level, l.tasks, l.exec_s, l.queue_wait_s, l.window_start_s, l.window_finish_s
        )
        .unwrap();
    }
    out.push_str(r#"],"cost_rows":["#);
    for (i, r) in attribution.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            r#"{{"label":"{}","cpu":{:.9},"storage":{:.9},"transfer_in":{:.9},"transfer_out":{:.9},"total":{:.9}}}"#,
            escape(&r.label),
            r.cost.cpu.dollars(),
            r.cost.storage.dollars(),
            r.cost.transfer_in.dollars(),
            r.cost.transfer_out.dollars(),
            r.cost.total().dollars(),
        )
        .unwrap();
    }
    write!(
        out,
        r#"],"billed":{{"cpu":{:.9},"storage":{:.9},"transfer_in":{:.9},"transfer_out":{:.9},"total":{:.9}}}"#,
        attribution.billed.cpu.dollars(),
        attribution.billed.storage.dollars(),
        attribution.billed.transfer_in.dollars(),
        attribution.billed.transfer_out.dollars(),
        attribution.billed.total().dollars(),
    )
    .unwrap();
    out.push_str(r#","observed_critical_path":["#);
    for (i, &t) in profile.observed_critical_path.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, r#""{}""#, escape(wf.task(t).name)).unwrap();
    }
    out.push_str("]}\n");
    out
}

/// Phase colors for the SVG breakdown, in phase order (execution,
/// queue-wait, transfer-in, transfer-out, storage-wait). Follows the
/// workspace's validated categorical palette.
const PHASE_COLORS: [&str; 5] = ["#2a78d6", "#eda100", "#1baf7a", "#4a3aa7", "#e34948"];
const PHASE_NAMES: [&str; 5] = [
    "execution",
    "queue-wait",
    "transfer-in",
    "transfer-out",
    "storage-wait",
];
const SURFACE: &str = "#fcfcfb";
const INK: &str = "#0b0b0b";
const INK_SECONDARY: &str = "#52514e";
const GRID: &str = "#e5e4e0";

/// Renders a self-contained SVG: one stacked horizontal bar per task
/// class showing where its wall time went, with the class's attributed
/// cost printed at the bar end. Byte-deterministic like the text and JSON
/// reports.
pub fn profile_svg(
    title: &str,
    profile: &WorkflowProfile,
    attribution: &CostAttribution,
) -> String {
    use std::fmt::Write as _;
    let classes = &profile.classes;
    let row_h = 26.0;
    let ml = 120.0; // label margin
    let mr = 110.0; // cost margin
    let mt = 64.0;
    let mb = 46.0;
    let bar_w = 560.0;
    let w = ml + bar_w + mr;
    let h = mt + classes.len() as f64 * row_h + mb;
    let max_s = classes
        .iter()
        .map(|c| c.attributed_s())
        .fold(0.0f64, f64::max)
        .max(1e-9);

    let cost_of = |class: &str| -> f64 {
        attribution
            .rows
            .iter()
            .find(|r| r.label == class)
            .map(|r| r.cost.total().dollars())
            .unwrap_or(0.0)
    };

    let mut s = String::new();
    write!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0}" height="{h:.0}" viewBox="0 0 {w:.0} {h:.0}" font-family="system-ui, sans-serif">"#
    )
    .unwrap();
    write!(
        s,
        r#"<rect width="{w:.0}" height="{h:.0}" fill="{SURFACE}"/>"#
    )
    .unwrap();
    write!(
        s,
        r#"<text x="{ml:.0}" y="24" font-size="15" fill="{INK}">{}</text>"#,
        xml_esc(title)
    )
    .unwrap();
    // Legend on one line under the title.
    let mut lx = ml;
    for (i, name) in PHASE_NAMES.iter().enumerate() {
        write!(
            s,
            r#"<rect x="{lx:.1}" y="36" width="10" height="10" fill="{}"/><text x="{:.1}" y="45" font-size="11" fill="{INK_SECONDARY}">{name}</text>"#,
            PHASE_COLORS[i],
            lx + 14.0
        )
        .unwrap();
        lx += 14.0 + 7.0 * name.len() as f64 + 16.0;
    }
    // Vertical grid: quarters of the max.
    for q in 1..=4 {
        let x = ml + bar_w * q as f64 / 4.0;
        write!(
            s,
            r#"<line x1="{x:.1}" y1="{mt:.0}" x2="{x:.1}" y2="{:.1}" stroke="{GRID}" stroke-width="1"/>"#,
            h - mb
        )
        .unwrap();
        write!(
            s,
            r#"<text x="{x:.1}" y="{:.1}" font-size="10" fill="{INK_SECONDARY}" text-anchor="middle">{:.0}s</text>"#,
            h - mb + 16.0,
            max_s * q as f64 / 4.0
        )
        .unwrap();
    }
    for (i, c) in classes.iter().enumerate() {
        let y = mt + i as f64 * row_h;
        write!(
            s,
            r#"<text x="{:.1}" y="{:.1}" font-size="12" fill="{INK}" text-anchor="end">{}</text>"#,
            ml - 8.0,
            y + row_h * 0.62,
            xml_esc(&c.class)
        )
        .unwrap();
        let phases = [
            c.exec_s,
            c.queue_wait_s,
            c.transfer_in_s,
            c.transfer_out_s,
            c.storage_wait_s,
        ];
        let mut x = ml;
        for (p, &v) in phases.iter().enumerate() {
            if v <= 0.0 {
                continue;
            }
            let seg = v / max_s * bar_w;
            write!(
                s,
                r#"<rect x="{x:.2}" y="{:.1}" width="{seg:.2}" height="{:.1}" fill="{}"/>"#,
                y + 4.0,
                row_h - 8.0,
                PHASE_COLORS[p]
            )
            .unwrap();
            x += seg;
        }
        write!(
            s,
            r#"<text x="{:.2}" y="{:.1}" font-size="11" fill="{INK_SECONDARY}">${:.4}</text>"#,
            x + 6.0,
            y + row_h * 0.62,
            cost_of(&c.class)
        )
        .unwrap();
    }
    s.push_str("</svg>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DataMode, ExecConfig};
    use crate::engine::simulate_traced;
    use mcloud_dag::WorkflowBuilder;

    fn diamond() -> Workflow {
        // in -> a -> {b, c} -> d -> out, with distinct runtimes so the
        // critical path is unambiguous.
        let mut b = WorkflowBuilder::new("diamond");
        let input = b.file("in.fits", 2_000_000);
        let fa = b.file("a.fits", 1_000_000);
        let fb = b.file("b.fits", 1_000_000);
        let fc = b.file("c.fits", 1_000_000);
        let fd = b.file("mosaic.fits", 3_000_000);
        b.add_task("a", "mProject", 10.0, &[input], &[fa]).unwrap();
        b.add_task("b", "mDiffFit", 20.0, &[fa], &[fb]).unwrap();
        b.add_task("c", "mDiffFit", 5.0, &[fa], &[fc]).unwrap();
        b.add_task("d", "mAdd", 8.0, &[fb, fc], &[fd]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn phases_reconcile_with_the_report() {
        let wf = diamond();
        for mode in DataMode::ALL {
            let cfg = ExecConfig::on_demand(mode);
            let (report, sink) = simulate_traced(&wf, &cfg);
            let p = profile_trace(&wf, sink.events());
            // Executed seconds match the billed CPU (micro-quantized spans).
            let exec: f64 = p.classes.iter().map(|c| c.exec_s).sum();
            assert!(
                (exec - report.cpu_seconds_billed).abs() < 1e-4,
                "{mode:?}: {exec} vs {}",
                report.cpu_seconds_billed
            );
            // Bytes partition exactly between attributed and shared.
            let bin: u64 = p.classes.iter().map(|c| c.bytes_in).sum();
            let bout: u64 = p.classes.iter().map(|c| c.bytes_out).sum();
            assert_eq!(bin + p.shared_bytes_in, report.bytes_in, "{mode:?}");
            assert_eq!(bout + p.shared_bytes_out, report.bytes_out, "{mode:?}");
            // Queue waits match the report's own statistics.
            let qsum: f64 = p.classes.iter().map(|c| c.queue_wait_s).sum();
            let n = p.queue_wait_hist.count();
            assert_eq!(n, report.task_executions);
            assert!((qsum / n as f64 - report.queue_wait_mean_s).abs() < 1e-9);
            assert_eq!(
                p.queue_wait_hist.quantile(1.0).to_bits(),
                report.queue_wait_max_s.to_bits()
            );
            assert!((p.makespan_s - report.makespan.as_secs_f64()).abs() < 1e-9);
        }
    }

    #[test]
    fn observed_path_follows_the_slow_branch() {
        let wf = diamond();
        // Plenty of processors, no staging contention at all.
        let cfg = ExecConfig::fixed(8).prestaged(true);
        let (_, sink) = simulate_traced(&wf, &cfg);
        let p = profile_trace(&wf, sink.events());
        let names: Vec<&str> = p
            .observed_critical_path
            .iter()
            .map(|&t| wf.task(t).name)
            .collect();
        assert_eq!(names, vec!["a", "b", "d"]); // through the 20 s branch
        assert!((p.observed_critical_exec_s - 38.0).abs() < 1e-3);
        assert_eq!(p.observed_critical_path, wf.critical_path_tasks());
    }

    #[test]
    fn remote_io_attributes_transfers_to_tasks() {
        let wf = diamond();
        let (report, sink) = simulate_traced(&wf, &ExecConfig::on_demand(DataMode::RemoteIo));
        let p = profile_trace(&wf, sink.events());
        // Every transfer is private in remote I/O.
        assert_eq!(p.shared_bytes_in, 0);
        assert_eq!(p.shared_bytes_out, 0);
        let bin: u64 = p.tasks.iter().map(|t| t.bytes_in).sum();
        assert_eq!(bin, report.bytes_in);
        // Tasks with inputs show a stage-in window.
        assert!(p.tasks[0].transfer_in_s > 0.0);
        // Tasks with outputs show a stage-out window.
        assert!(p.tasks[3].transfer_out_s > 0.0);
    }

    #[test]
    fn cost_attribution_reconciles_per_mode() {
        let wf = diamond();
        for mode in DataMode::ALL {
            for cfg in [ExecConfig::on_demand(mode), ExecConfig::fixed(2).mode(mode)] {
                let (report, sink) = simulate_traced(&wf, &cfg);
                let p = profile_trace(&wf, sink.events());
                let attr = attribute_profile_costs(&p, &report, &cfg.pricing);
                assert!(
                    attr.attributed().approx_eq(&report.costs, 1e-6),
                    "{mode:?}: attributed {:?} vs billed {:?}",
                    attr.attributed(),
                    report.costs
                );
                // Row order is deterministic: classes then synthetics.
                let labels: Vec<&str> = attr.rows.iter().map(|r| r.label.as_str()).collect();
                assert_eq!(
                    &labels[labels.len() - 4..],
                    &[
                        SHARED_IN_LABEL,
                        SHARED_OUT_LABEL,
                        STORAGE_LABEL,
                        RESIDUAL_LABEL
                    ]
                );
            }
        }
    }

    #[test]
    fn renders_are_deterministic() {
        let wf = diamond();
        let cfg = ExecConfig::on_demand(DataMode::Regular);
        let render = || {
            let (report, sink) = simulate_traced(&wf, &cfg);
            let p = profile_trace(&wf, sink.events());
            let attr = attribute_profile_costs(&p, &report, &cfg.pricing);
            (
                profile_text(&wf, "diamond", &p, &attr),
                profile_json(&wf, "diamond", &p, &attr),
                profile_svg("diamond", &p, &attr),
            )
        };
        let (t1, j1, s1) = render();
        let (t2, j2, s2) = render();
        assert_eq!(t1, t2);
        assert_eq!(j1, j2);
        assert_eq!(s1, s2);
        assert!(t1.contains("mProject"));
        assert!(j1.starts_with(r#"{"workflow":"diamond""#));
        assert!(s1.starts_with("<svg "));
        assert!(s1.ends_with("</svg>\n"));
    }

    #[test]
    fn wasted_work_is_carved_into_its_own_row_and_reconciles() {
        use crate::config::{FaultModel, RetryPolicy};
        let wf = diamond();
        let cfg = ExecConfig::fixed(2)
            .with_fault_model(FaultModel::tasks_only(0.5, 7))
            .with_retry(RetryPolicy::bounded(10));
        let (report, sink) = simulate_traced(&wf, &cfg);
        assert!(report.completed);
        assert!(
            report.failed_attempts > 0,
            "the seed should trip at least one fault"
        );
        let p = profile_trace(&wf, sink.events());
        assert_eq!(p.failed_attempts, report.failed_attempts);
        let wasted: f64 = p.classes.iter().map(|c| c.wasted_s).sum();
        assert!(
            (wasted - report.wasted_cpu_seconds).abs() < 1e-4,
            "profiled waste {wasted} vs billed {}",
            report.wasted_cpu_seconds
        );
        let attr = attribute_profile_costs(&p, &report, &cfg.pricing);
        assert!(
            attr.attributed().approx_eq(&report.costs, 1e-6),
            "attributed {:?} vs billed {:?}",
            attr.attributed(),
            report.costs
        );
        let labels: Vec<&str> = attr.rows.iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&WASTED_LABEL));
        // The synthetic tail keeps its order with the wasted row added.
        assert_eq!(
            &labels[labels.len() - 4..],
            &[
                SHARED_IN_LABEL,
                SHARED_OUT_LABEL,
                STORAGE_LABEL,
                RESIDUAL_LABEL
            ]
        );
        // The renders narrate the faults; fault-free runs never do.
        let text = profile_text(&wf, "diamond-faults", &p, &attr);
        assert!(text.contains("faults: "));
        let json = profile_json(&wf, "diamond-faults", &p, &attr);
        assert!(json.contains(r#""faults":{"#));
        let clean = {
            let cfg = ExecConfig::fixed(2);
            let (report, sink) = simulate_traced(&wf, &cfg);
            let p = profile_trace(&wf, sink.events());
            let attr = attribute_profile_costs(&p, &report, &cfg.pricing);
            profile_text(&wf, "diamond", &p, &attr)
        };
        assert!(!clean.contains("faults: "));
    }

    #[test]
    fn storage_wait_is_attributed_when_capped() {
        // Two independent tasks; the cap forces `b` to wait until `a`
        // finishes and cleanup reclaims its (large) input.
        let mut bld = WorkflowBuilder::new("capped");
        let x1 = bld.file("x1.fits", 3_000_000);
        let x2 = bld.file("x2.fits", 1_000_000);
        let oa = bld.file("oa.fits", 100_000);
        let ob = bld.file("ob.fits", 2_000_000);
        bld.add_task("a", "mProject", 10.0, &[x1], &[oa]).unwrap();
        bld.add_task("b", "mProject", 5.0, &[x2], &[ob]).unwrap();
        let wf = bld.build().unwrap();
        let cfg = ExecConfig::fixed(2)
            .mode(DataMode::DynamicCleanup)
            .with_storage_capacity(5_500_000);
        let (_, sink) = simulate_traced(&wf, &cfg);
        assert!(
            sink.events()
                .iter()
                .any(|e| matches!(e.event, TraceEvent::TaskBlockedOnStorage { .. })),
            "the cap should transiently block task b"
        );
        let p = profile_trace(&wf, sink.events());
        assert!(p.tasks[1].storage_wait_s > 0.0);
        assert_eq!(p.tasks[0].storage_wait_s, 0.0);
    }
}
