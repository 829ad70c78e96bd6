//! Gantt-chart rendering of a recorded event stream.
//!
//! Turns the task start/finish events of a traced run (see
//! [`simulate_traced`](crate::simulate_traced)) into a text timeline, one
//! row per processor slot. Useful for eyeballing why a provisioning level
//! is underutilized — the paper's "CPU utilization can be low in the
//! provisioned case" made visible.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mcloud_dag::{TaskId, Workflow};
use mcloud_simkit::{SimTime, TimedEvent, TraceEvent};

use crate::report::Report;

/// Renders a text Gantt chart, one row per processor, `width` columns
/// spanning `[0, makespan]`. Each `TaskStarted` → `TaskFinished` attempt
/// (failed ones included) is one span; busy cells show the first letter
/// of the running task's module (e.g. `m` for every Montage stage, so
/// custom modules are distinguishable); idle cells show `.`.
///
/// # Panics
/// Panics if `width` is zero or `events` name a task outside `wf`.
pub fn gantt_text(wf: &Workflow, report: &Report, events: &[TimedEvent], width: usize) -> String {
    assert!(width > 0, "gantt width must be positive");
    let horizon = report.makespan.as_secs_f64().max(f64::MIN_POSITIVE);

    let mut starts = vec![SimTime::ZERO; wf.num_tasks()];
    let mut spans = 0usize;
    let mut rows: BTreeMap<u32, Vec<char>> = BTreeMap::new();
    for e in events {
        let (task, proc) = match e.event {
            TraceEvent::TaskStarted { task, .. } => {
                starts[task as usize] = e.at;
                continue;
            }
            TraceEvent::TaskFinished { task, proc, .. } => (task, proc),
            _ => continue,
        };
        spans += 1;
        let row = rows.entry(proc).or_insert_with(|| vec!['.'; width]);
        let glyph = wf
            .task(TaskId(task))
            .module
            .chars()
            .next()
            .unwrap_or('#')
            .to_ascii_lowercase();
        let a = (starts[task as usize].as_secs_f64() / horizon * width as f64).floor() as usize;
        let b = (e.at.as_secs_f64() / horizon * width as f64).ceil() as usize;
        for cell in row
            .iter_mut()
            .take(b.min(width))
            .skip(a.min(width.saturating_sub(1)))
        {
            *cell = glyph;
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "gantt: {} over {:.1}s ({} tasks, {} procs shown)",
        wf.name(),
        horizon,
        spans,
        rows.len()
    );
    for (proc, row) in rows {
        let _ = writeln!(out, "p{proc:<4} |{}|", row.iter().collect::<String>());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_traced, ExecConfig, RetryPolicy};
    use mcloud_dag::WorkflowBuilder;

    fn two_task_workflow() -> Workflow {
        let mut b = WorkflowBuilder::new("two");
        let a = b.file("a", 0);
        let x = b.file("x", 0);
        let y = b.file("y", 0);
        b.add_task("first", "alpha", 10.0, &[a], &[x]).unwrap();
        b.add_task("second", "beta", 10.0, &[x], &[y]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn text_gantt_shows_both_modules() {
        let wf = two_task_workflow();
        let (r, sink) = simulate_traced(&wf, &ExecConfig::fixed(1));
        let g = gantt_text(&wf, &r, sink.events(), 20);
        assert!(g.contains("p0"));
        assert!(g.contains('a'), "{g}"); // alpha
        assert!(g.contains('b'), "{g}"); // beta
                                         // One processor: exactly one row.
        assert_eq!(g.lines().count(), 2);
    }

    #[test]
    fn rows_match_processors_used() {
        let wf = mcloud_montage::paper_figure3();
        let (r, sink) = simulate_traced(&wf, &ExecConfig::fixed(3));
        let g = gantt_text(&wf, &r, sink.events(), 40);
        // Three procs busy at level 3.
        assert_eq!(g.lines().count(), 4, "{g}");
    }

    #[test]
    fn failed_attempts_are_painted_as_spans() {
        let wf = mcloud_montage::paper_figure3();
        let cfg = ExecConfig::fixed(4)
            .with_faults(0.1, 7)
            .with_retry(RetryPolicy::bounded(8));
        let (r, sink) = simulate_traced(&wf, &cfg);
        assert!(r.failed_attempts > 0, "the seed must inject a failure");
        let g = gantt_text(&wf, &r, sink.events(), 40);
        let header = g.lines().next().unwrap();
        let want = format!("({} tasks,", r.task_executions);
        assert!(header.contains(&want), "{header} vs {want}");
    }
}
