//! Workflow composition: batching independent workflows into one DAG.
//!
//! The paper prices a service by multiplying one request's cost by the
//! request count (e.g. 500 x 4° mosaics). Batching the requests into a
//! single DAG instead lets the engine schedule them *together* on a shared
//! provisioned pool — which exposes the utilization gains the
//! one-at-a-time arithmetic misses.

use crate::error::DagError;
use crate::workflow::{Workflow, WorkflowBuilder};

/// Merges independent workflows into one batch DAG. Every file and task
/// name is prefixed with `b<i>__` (its batch index) so the namespaces
/// cannot collide; deliverable flags are preserved.
///
/// # Panics
/// Panics if `parts` is empty.
pub fn merge_workflows(name: impl Into<String>, parts: &[&Workflow]) -> Result<Workflow, DagError> {
    assert!(!parts.is_empty(), "cannot merge zero workflows");
    let mut b = WorkflowBuilder::new(name);
    for (i, wf) in parts.iter().enumerate() {
        let prefix = format!("b{i}__");
        // Register this part's files under the prefixed namespace.
        let ids: Vec<_> = wf
            .files()
            .map(|f| b.file(format!("{prefix}{}", f.name), f.bytes))
            .collect();
        for (fid, meta) in ids.iter().zip(wf.files()) {
            if meta.deliverable {
                b.mark_deliverable(*fid);
            }
        }
        for t in wf.task_ids() {
            let task = wf.task(t);
            let inputs: Vec<_> = task.inputs.iter().map(|f| ids[f.index()]).collect();
            let outputs: Vec<_> = task.outputs.iter().map(|f| ids[f.index()]).collect();
            b.add_task(
                format!("{prefix}{}", task.name),
                task.module,
                task.runtime_s,
                &inputs,
                &outputs,
            )?;
        }
    }
    b.build()
}

/// Batches `copies` instances of the same workflow (convenience wrapper).
pub fn replicate_workflow(
    name: impl Into<String>,
    wf: &Workflow,
    copies: usize,
) -> Result<Workflow, DagError> {
    let parts: Vec<&Workflow> = std::iter::repeat_n(wf, copies).collect();
    merge_workflows(name, &parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn merge_preserves_structure_per_part() {
        let a = fixtures::figure3();
        // Runtime 6 s so the chain is still running while figure3's
        // 3-wide level executes (20..30 s) and the parallelism truly adds.
        let c = fixtures::chain(4, 6.0, 100);
        let merged = merge_workflows("batch", &[&a, &c]).unwrap();
        assert_eq!(merged.num_tasks(), a.num_tasks() + c.num_tasks());
        assert_eq!(merged.num_files(), a.num_files() + c.num_files());
        assert!(
            (merged.total_runtime_s() - a.total_runtime_s() - c.total_runtime_s()).abs() < 1e-9
        );
        assert_eq!(merged.total_bytes(), a.total_bytes() + c.total_bytes());
        // Depth is the max of the parts (they are independent).
        assert_eq!(merged.depth(), a.depth().max(c.depth()));
        // Parallelism adds up.
        assert_eq!(
            merged.max_parallelism(),
            a.max_parallelism() + c.max_parallelism()
        );
    }

    #[test]
    fn replicate_scales_linearly() {
        let wf = fixtures::mini_montage();
        let batch = replicate_workflow("batch", &wf, 5).unwrap();
        assert_eq!(batch.num_tasks(), 5 * wf.num_tasks());
        assert_eq!(
            batch.external_inputs().len(),
            5 * wf.external_inputs().len()
        );
        assert_eq!(
            batch.staged_out_files().len(),
            5 * wf.staged_out_files().len()
        );
        // Deliverable flags carried over: 5 mosaics flagged.
        let deliverables = batch.files().filter(|f| f.deliverable).count();
        assert_eq!(deliverables, 5);
    }

    #[test]
    fn merged_names_are_prefixed_and_unique() {
        let wf = fixtures::chain(2, 1.0, 10);
        let batch = replicate_workflow("batch", &wf, 3).unwrap();
        assert!(batch.tasks().any(|t| t.name == "b0__t0"));
        assert!(batch.tasks().any(|t| t.name == "b2__t1"));
        let mut names: Vec<&str> = batch.files().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), batch.num_files());
    }

    #[test]
    fn parts_stay_independent() {
        let wf = fixtures::chain(3, 1.0, 10);
        let batch = replicate_workflow("batch", &wf, 2).unwrap();
        // No cross-part dependency edges exist: each part's first task has
        // no parents.
        let roots = batch
            .task_ids()
            .filter(|t| batch.parents(*t).is_empty())
            .count();
        assert_eq!(roots, 2);
    }

    #[test]
    #[should_panic(expected = "zero workflows")]
    fn empty_merge_panics() {
        let _ = merge_workflows("empty", &[]);
    }
}
