//! The workflow graph: tasks connected by write-once data files.
//!
//! Dependencies are expressed exactly as in the paper (and in Pegasus): a
//! task that reads file `b` depends on the task that produced `b`. Files
//! with no producer are *external inputs* that must be staged in from the
//! user/archive; files nobody consumes (or files explicitly marked
//! *deliverable*, like the final mosaic) are staged out to the user at the
//! end of the run.

use std::collections::HashMap;

use crate::error::DagError;
use crate::ids::{FileId, TaskId};

/// A data product moved through the workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Unique logical file name (e.g. `proj_2_3.fits`).
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Marked for stage-out to the user even if some task consumes it
    /// (e.g. the final mosaic, which `mShrink` also reads).
    pub deliverable: bool,
}

/// One invocation of an application routine.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Unique task name (e.g. `mProject_12`).
    pub name: String,
    /// The routine this task invokes (e.g. `mProject`); the paper calls all
    /// same-level Montage tasks invocations of the same routine.
    pub module: String,
    /// Runtime on the reference CPU, in seconds.
    pub runtime_s: f64,
    /// Files read (deduplicated, in registration order).
    pub inputs: Vec<FileId>,
    /// Files written (deduplicated, in registration order).
    pub outputs: Vec<FileId>,
}

/// Adjacency lists flattened into compressed-sparse-row form: the list for
/// row `i` lives at `ids[offsets[i]..offsets[i + 1]]`. One offsets array
/// plus one flat ids array replaces a `Vec<Vec<_>>`, so looking up a row is
/// two loads with no pointer chase per row and the whole structure is two
/// allocations regardless of row count.
#[derive(Debug, Clone)]
struct Csr {
    offsets: Vec<u32>,
    ids: Vec<TaskId>,
}

impl Csr {
    /// Groups `(row, id)` pairs into `rows` rows with a counting sort: one
    /// pass sizes the rows, a second places the ids. Within a row, ids keep
    /// the order `pairs` yields them in, so `pairs` must yield the same
    /// sequence on both calls.
    fn group<I>(rows: usize, pairs: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (usize, TaskId)>,
    {
        // `offsets[r + 1]` holds row r's length, then its start, then (as
        // the fill cursor runs off its end) its end, which is row r + 1's
        // start.
        let mut offsets = vec![0u32; rows + 1];
        for (r, _) in pairs() {
            offsets[r + 1] += 1;
        }
        let mut start = 0u32;
        for slot in &mut offsets[1..] {
            let len = *slot;
            *slot = start;
            start = start
                .checked_add(len)
                .expect("adjacency exceeds the u32 offset range");
        }
        let mut ids = vec![TaskId(0); start as usize];
        for (r, id) in pairs() {
            ids[offsets[r + 1] as usize] = id;
            offsets[r + 1] += 1;
        }
        Csr { offsets, ids }
    }

    fn row(&self, i: usize) -> &[TaskId] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// An immutable, validated workflow DAG.
///
/// Construct via [`WorkflowBuilder`]; validation guarantees the graph is
/// non-empty, acyclic, and that every file has at most one producer.
///
/// All adjacency (file consumers, task parents/children) is stored in CSR
/// form and every derived file set (external inputs, staged-out files) is
/// computed once at construction, so the accessors used by the simulation
/// engine's event loop are allocation-free slice borrows.
#[derive(Debug, Clone)]
pub struct Workflow {
    name: String,
    tasks: Vec<Task>,
    files: Vec<FileMeta>,
    producer: Vec<Option<TaskId>>,
    consumers: Csr,
    parents: Csr,
    children: Csr,
    external_inputs: Vec<FileId>,
    staged_out: Vec<FileId>,
}

impl Workflow {
    /// The workflow's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of distinct files.
    pub fn num_files(&self) -> usize {
        self.files.len()
    }

    /// All tasks, indexable by [`TaskId`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All files, indexable by [`FileId`].
    pub fn files(&self) -> &[FileMeta] {
        &self.files
    }

    /// A single task.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// A single file.
    pub fn file(&self, id: FileId) -> &FileMeta {
        &self.files[id.index()]
    }

    /// Iterator over all task ids in index order.
    pub fn task_ids(&self) -> impl ExactSizeIterator<Item = TaskId> {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Iterator over all file ids in index order.
    pub fn file_ids(&self) -> impl ExactSizeIterator<Item = FileId> {
        (0..self.files.len() as u32).map(FileId)
    }

    /// The task that writes `file`, or `None` for an external input.
    pub fn producer(&self, file: FileId) -> Option<TaskId> {
        self.producer[file.index()]
    }

    /// Tasks that read `file`, sorted by id.
    pub fn consumers(&self, file: FileId) -> &[TaskId] {
        self.consumers.row(file.index())
    }

    /// Distinct tasks whose outputs this task reads, sorted by id.
    pub fn parents(&self, task: TaskId) -> &[TaskId] {
        self.parents.row(task.index())
    }

    /// Distinct tasks that read this task's outputs, sorted by id.
    pub fn children(&self, task: TaskId) -> &[TaskId] {
        self.children.row(task.index())
    }

    /// Files with no producer: they are staged in from the user/archive.
    /// Computed once at construction; sorted by file id.
    pub fn external_inputs(&self) -> &[FileId] {
        &self.external_inputs
    }

    /// Files that are staged out to the user at the end of the workflow:
    /// produced files that either nobody consumes or that are explicitly
    /// marked deliverable (the paper's "net output of the workflow").
    /// Computed once at construction; sorted by file id.
    pub fn staged_out_files(&self) -> &[FileId] {
        &self.staged_out
    }

    /// Multiplies every file size by `factor`, rounding to the nearest byte
    /// (sizes of at least one byte never round to zero). Used by the
    /// paper's CCR experiments, which rescale all data to hit a desired
    /// communication-to-computation ratio.
    ///
    /// # Panics
    /// Panics if `factor` is not finite and positive.
    pub fn scale_file_sizes(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive and finite, got {factor}"
        );
        for f in &mut self.files {
            if f.bytes > 0 {
                f.bytes = ((f.bytes as f64 * factor).round() as u64).max(1);
            }
        }
    }
}

/// Incremental, validating constructor for [`Workflow`].
///
/// ```
/// use mcloud_dag::WorkflowBuilder;
///
/// // The paper's Figure 3 skeleton: task 0 produces `b`, read by 1 and 2.
/// let mut b = WorkflowBuilder::new("example");
/// let fa = b.file("a", 100);
/// let fb = b.file("b", 200);
/// let fc = b.file("c", 50);
/// let fd = b.file("d", 50);
/// b.add_task("t0", "gen", 10.0, &[fa], &[fb]).unwrap();
/// b.add_task("t1", "use", 5.0, &[fb], &[fc]).unwrap();
/// b.add_task("t2", "use", 5.0, &[fb], &[fd]).unwrap();
/// let wf = b.build().unwrap();
/// assert_eq!(wf.num_tasks(), 3);
/// assert_eq!(wf.consumers(fb).len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct WorkflowBuilder {
    name: String,
    tasks: Vec<Task>,
    files: Vec<FileMeta>,
    by_file_name: HashMap<String, FileId>,
    by_task_name: HashMap<String, TaskId>,
    producer: Vec<Option<TaskId>>,
    /// Per file, the last stamp `add_task` gave it (see `epoch`), so one
    /// pass over a task's file lists dedups them and spots a file that is
    /// both read and written.
    stamp: Vec<u32>,
    /// Advances by two per `add_task` call: inputs of that call are
    /// stamped `epoch - 1`, outputs `epoch`. Zero marks "never stamped".
    /// Not derived from the task index, which a failed call leaves stamps
    /// behind for and the next call reuses.
    epoch: u32,
    /// Explicit `(parent, child)` control edges (Pegasus DAX
    /// `<child>/<parent>`), merged with the file-derived edges at build.
    control_edges: Vec<(TaskId, TaskId)>,
}

impl WorkflowBuilder {
    /// Starts an empty workflow with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        WorkflowBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Registers (or looks up) a file by name. Registration is idempotent.
    ///
    /// # Panics
    /// Panics if the name was already registered with a *different* size —
    /// that is always a bug in the calling generator.
    pub fn file(&mut self, name: impl Into<String>, bytes: u64) -> FileId {
        let name = name.into();
        if let Some(&id) = self.by_file_name.get(&name) {
            assert_eq!(
                self.files[id.index()].bytes,
                bytes,
                "file '{name}' re-registered with a different size"
            );
            return id;
        }
        let id = FileId(self.files.len() as u32);
        self.files.push(FileMeta {
            name: name.clone(),
            bytes,
            deliverable: false,
        });
        self.producer.push(None);
        self.stamp.push(0);
        self.by_file_name.insert(name, id);
        id
    }

    /// Looks up a previously registered file by name.
    pub fn find_file(&self, name: &str) -> Option<FileId> {
        self.by_file_name.get(name).copied()
    }

    /// Size of a registered file, for callers that must turn a size
    /// conflict into an error rather than the panic in [`file`](Self::file).
    pub(crate) fn file_bytes(&self, file: FileId) -> u64 {
        self.files[file.index()].bytes
    }

    /// Marks a file for stage-out to the user even if tasks consume it.
    pub fn mark_deliverable(&mut self, file: FileId) {
        self.files[file.index()].deliverable = true;
    }

    /// Adds a task. Input/output file lists are deduplicated preserving
    /// order. Fails on duplicate task names, invalid runtimes, a file that
    /// is both input and output, or a second producer for a file; a failed
    /// call leaves the builder unchanged.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        module: impl Into<String>,
        runtime_s: f64,
        inputs: &[FileId],
        outputs: &[FileId],
    ) -> Result<TaskId, DagError> {
        let name = name.into();
        if self.by_task_name.contains_key(&name) {
            return Err(DagError::DuplicateTaskName(name));
        }
        if !runtime_s.is_finite() || runtime_s < 0.0 {
            return Err(DagError::InvalidRuntime {
                task: name,
                runtime: runtime_s,
            });
        }
        self.epoch = self
            .epoch
            .checked_add(2)
            .expect("more add_task calls than file stamps can tell apart");
        let (as_input, as_output) = (self.epoch - 1, self.epoch);
        let mut deduped_inputs = Vec::with_capacity(inputs.len());
        for &f in inputs {
            let stamp = &mut self.stamp[f.index()];
            if *stamp != as_input {
                *stamp = as_input;
                deduped_inputs.push(f);
            }
        }
        // Outputs are checked against the input stamp before being stamped
        // themselves, so the self-loop reported is the first output (in
        // list order) that is also an input.
        let mut deduped_outputs = Vec::with_capacity(outputs.len());
        for &f in outputs {
            let stamp = &mut self.stamp[f.index()];
            if *stamp == as_input {
                return Err(DagError::SelfLoop {
                    task: name,
                    file: self.files[f.index()].name.clone(),
                });
            }
            if *stamp != as_output {
                *stamp = as_output;
                deduped_outputs.push(f);
            }
        }
        if let Some((f, first)) = deduped_outputs
            .iter()
            .find_map(|&f| self.producer[f.index()].map(|first| (f, first)))
        {
            return Err(DagError::DuplicateProducer {
                file: self.files[f.index()].name.clone(),
                first: self.tasks[first.index()].name.clone(),
                second: name,
            });
        }
        let id = TaskId(self.tasks.len() as u32);
        for &f in &deduped_outputs {
            self.producer[f.index()] = Some(id);
        }
        self.by_task_name.insert(name.clone(), id);
        self.tasks.push(Task {
            name,
            module: module.into(),
            runtime_s,
            inputs: deduped_inputs,
            outputs: deduped_outputs,
        });
        Ok(id)
    }

    /// Adds an explicit control dependency: `child` cannot start before
    /// `parent` finishes, even with no file between them (Pegasus DAX
    /// `<child ref=..><parent ref=..>` edges). Self-edges are rejected at
    /// build time via cycle detection.
    ///
    /// # Panics
    /// Panics if either id has not been created by this builder.
    pub fn add_control_edge(&mut self, parent: TaskId, child: TaskId) {
        assert!(
            parent.index() < self.tasks.len() && child.index() < self.tasks.len(),
            "control edge references unknown task(s) {parent} -> {child}"
        );
        self.control_edges.push((parent, child));
    }

    /// Looks up a previously added task by name.
    pub fn find_task(&self, name: &str) -> Option<TaskId> {
        self.by_task_name.get(name).copied()
    }

    /// Validates the accumulated graph and freezes it into a [`Workflow`].
    ///
    /// Linear in tasks + files + edges, up to sorting each task's parents:
    /// every adjacency is built straight into CSR form.
    pub fn build(self) -> Result<Workflow, DagError> {
        if self.tasks.is_empty() {
            return Err(DagError::Empty);
        }
        let n = self.tasks.len();
        let tasks = &self.tasks;
        let producer = &self.producer;
        // Consumers, visiting tasks in id order so each row comes out sorted
        // (inputs are already deduplicated).
        let consumers = Csr::group(self.files.len(), || {
            tasks.iter().enumerate().flat_map(|(t, task)| {
                task.inputs
                    .iter()
                    .map(move |f| (f.index(), TaskId(t as u32)))
            })
        });
        // Parents, row by row: the producers of a task's inputs plus its
        // control-edge parents, deduplicated by stamping each parent with
        // the child that last listed it, then sorted.
        let control_parents = Csr::group(n, || {
            self.control_edges.iter().map(|&(p, c)| (c.index(), p))
        });
        let mut parents = Csr {
            offsets: Vec::with_capacity(n + 1),
            ids: Vec::new(),
        };
        parents.offsets.push(0);
        let mut listed_by = vec![u32::MAX; n];
        for (c, task) in tasks.iter().enumerate() {
            let row_start = parents.ids.len();
            let file_parents = task.inputs.iter().filter_map(|f| producer[f.index()]);
            for p in file_parents.chain(control_parents.row(c).iter().copied()) {
                if listed_by[p.index()] != c as u32 {
                    listed_by[p.index()] = c as u32;
                    parents.ids.push(p);
                }
            }
            parents.ids[row_start..].sort_unstable();
            parents.offsets.push(
                u32::try_from(parents.ids.len()).expect("adjacency exceeds the u32 offset range"),
            );
        }
        // Children: the transpose of parents. Visiting children in id order
        // leaves every row sorted and unique.
        let children = Csr::group(n, || {
            (0..n).flat_map(|c| {
                parents
                    .row(c)
                    .iter()
                    .map(move |p| (p.index(), TaskId(c as u32)))
            })
        });
        // Kahn's algorithm to reject cycles. (A cycle is impossible when
        // tasks can only consume files registered before them *if* callers
        // always produce before consuming, but the builder allows forward
        // file references, so check explicitly.)
        let mut indeg: Vec<u32> = (0..n).map(|t| parents.row(t).len() as u32).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&t| indeg[t] == 0).collect();
        let mut seen = 0usize;
        while let Some(i) = ready.pop() {
            seen += 1;
            for c in children.row(i) {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    ready.push(c.index());
                }
            }
        }
        if seen != n {
            let on_cycle = indeg.iter().position(|&d| d > 0).expect("cycle exists");
            return Err(DagError::Cycle {
                task: self.tasks[on_cycle].name.clone(),
            });
        }
        let external_inputs: Vec<FileId> = (0..self.files.len() as u32)
            .map(FileId)
            .filter(|f| producer[f.index()].is_none())
            .collect();
        let staged_out: Vec<FileId> = (0..self.files.len() as u32)
            .map(FileId)
            .filter(|f| {
                producer[f.index()].is_some()
                    && (self.files[f.index()].deliverable || consumers.row(f.index()).is_empty())
            })
            .collect();
        Ok(Workflow {
            name: self.name,
            tasks: self.tasks,
            files: self.files,
            producer: self.producer,
            consumers,
            parents,
            children,
            external_inputs,
            staged_out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure3;

    #[test]
    fn figure3_shape() {
        let wf = figure3();
        assert_eq!(wf.num_tasks(), 7);
        assert_eq!(wf.num_files(), 9);
        let fb = FileId(1);
        assert_eq!(wf.producer(fb), Some(TaskId(0)));
        assert_eq!(wf.consumers(fb), &[TaskId(1), TaskId(2)]);
        assert_eq!(wf.parents(TaskId(6)), &[TaskId(3), TaskId(4), TaskId(5)]);
        assert_eq!(wf.children(TaskId(0)), &[TaskId(1), TaskId(2)]);
    }

    #[test]
    fn external_and_staged_out() {
        let wf = figure3();
        let names = |ids: &[FileId]| -> Vec<String> {
            ids.iter().map(|f| wf.file(*f).name.clone()).collect()
        };
        assert_eq!(names(wf.external_inputs()), vec!["a"]);
        // g (unconsumed, from t6) and h (unconsumed, from t5).
        let mut out = names(wf.staged_out_files());
        out.sort();
        assert_eq!(out, vec!["g", "h"]);
    }

    #[test]
    fn deliverable_flag_adds_to_stage_out() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        let m = b.file("mosaic", 10);
        let s = b.file("shrunk", 1);
        b.add_task("add", "mAdd", 1.0, &[a], &[m]).unwrap();
        b.add_task("shrink", "mShrink", 1.0, &[m], &[s]).unwrap();
        b.mark_deliverable(m);
        let wf = b.build().unwrap();
        let mut out = wf.staged_out_files().to_vec();
        out.sort();
        assert_eq!(out, vec![m, s]);
    }

    #[test]
    fn rejects_duplicate_producer() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        let x = b.file("x", 1);
        b.add_task("t0", "m", 1.0, &[a], &[x]).unwrap();
        let err = b.add_task("t1", "m", 1.0, &[a], &[x]).unwrap_err();
        assert!(matches!(err, DagError::DuplicateProducer { .. }));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        let err = b.add_task("t0", "m", 1.0, &[a], &[a]).unwrap_err();
        assert!(matches!(err, DagError::SelfLoop { .. }));
    }

    #[test]
    fn a_failed_add_task_leaves_no_trace() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        let x = b.file("x", 1);
        let y = b.file("y", 1);
        b.add_task("t0", "m", 1.0, &[], &[y]).unwrap();
        // Fails on `y` after `x` was seen: `x` must stay unproduced.
        let err = b.add_task("t1", "m", 1.0, &[a], &[x, y]).unwrap_err();
        assert!(matches!(err, DagError::DuplicateProducer { .. }));
        // Fails after stamping `a` as an input of the failed call.
        let err = b.add_task("t1", "m", 1.0, &[a], &[a]).unwrap_err();
        assert!(matches!(err, DagError::SelfLoop { .. }));
        let t1 = b.add_task("t1", "m", 1.0, &[a, a], &[x]).unwrap();
        let wf = b.build().unwrap();
        assert_eq!(wf.task(t1).inputs, vec![a]);
        assert_eq!(wf.producer(x), Some(t1));
    }

    #[test]
    fn rejects_duplicate_task_name() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        let x = b.file("x", 1);
        b.add_task("t", "m", 1.0, &[a], &[x]).unwrap();
        let err = b.add_task("t", "m", 1.0, &[x], &[]).unwrap_err();
        assert_eq!(err, DagError::DuplicateTaskName("t".into()));
    }

    #[test]
    fn rejects_bad_runtime() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        assert!(matches!(
            b.add_task("t", "m", -1.0, &[a], &[]),
            Err(DagError::InvalidRuntime { .. })
        ));
        assert!(matches!(
            b.add_task("t", "m", f64::NAN, &[a], &[]),
            Err(DagError::InvalidRuntime { .. })
        ));
    }

    #[test]
    fn rejects_empty_workflow() {
        assert_eq!(
            WorkflowBuilder::new("w").build().unwrap_err(),
            DagError::Empty
        );
    }

    #[test]
    fn detects_cycles_with_forward_references() {
        // t0 consumes y (produced later by t1) and produces x; t1 consumes x.
        let mut b = WorkflowBuilder::new("w");
        let x = b.file("x", 1);
        let y = b.file("y", 1);
        b.add_task("t0", "m", 1.0, &[y], &[x]).unwrap();
        b.add_task("t1", "m", 1.0, &[x], &[y]).unwrap();
        assert!(matches!(b.build(), Err(DagError::Cycle { .. })));
    }

    #[test]
    fn file_registration_is_idempotent() {
        let mut b = WorkflowBuilder::new("w");
        let a1 = b.file("a", 42);
        let a2 = b.file("a", 42);
        assert_eq!(a1, a2);
        assert_eq!(b.find_file("a"), Some(a1));
        assert_eq!(b.find_file("zzz"), None);
    }

    #[test]
    #[should_panic(expected = "different size")]
    fn file_size_conflict_panics() {
        let mut b = WorkflowBuilder::new("w");
        b.file("a", 42);
        b.file("a", 43);
    }

    #[test]
    fn duplicate_io_entries_are_deduped() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        let x = b.file("x", 1);
        let t = b.add_task("t", "m", 1.0, &[a, a, a], &[x, x]).unwrap();
        let wf = b.build().unwrap();
        assert_eq!(wf.task(t).inputs, vec![a]);
        assert_eq!(wf.task(t).outputs, vec![x]);
    }

    #[test]
    fn scale_file_sizes_scales_and_floors() {
        let mut wf = figure3();
        let before: u64 = wf.files().iter().map(|f| f.bytes).sum();
        wf.scale_file_sizes(2.5);
        let after: u64 = wf.files().iter().map(|f| f.bytes).sum();
        assert_eq!(after, (before as f64 * 2.5).round() as u64);
        // Tiny factors never produce zero-size files.
        wf.scale_file_sizes(1e-9);
        assert!(wf.files().iter().all(|f| f.bytes >= 1));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn scale_rejects_nonpositive() {
        figure3().scale_file_sizes(0.0);
    }

    #[test]
    fn control_edges_add_dependencies_without_files() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        let x = b.file("x", 1);
        let y = b.file("y", 1);
        let t0 = b.add_task("t0", "m", 1.0, &[a], &[x]).unwrap();
        let t1 = b.add_task("t1", "m", 1.0, &[], &[y]).unwrap();
        b.add_control_edge(t0, t1);
        let wf = b.build().unwrap();
        assert_eq!(wf.parents(t1), &[t0]);
        assert_eq!(wf.children(t0), &[t1]);
        assert_eq!(wf.levels(), vec![1, 2]);
    }

    #[test]
    fn control_edges_participate_in_cycle_detection() {
        let mut b = WorkflowBuilder::new("w");
        let x = b.file("x", 1);
        let y = b.file("y", 1);
        let t0 = b.add_task("t0", "m", 1.0, &[], &[x]).unwrap();
        let t1 = b.add_task("t1", "m", 1.0, &[x], &[y]).unwrap();
        b.add_control_edge(t1, t0); // closes a cycle with the file edge
        assert!(matches!(b.build(), Err(DagError::Cycle { .. })));
    }

    #[test]
    fn duplicate_control_and_file_edges_dedup() {
        let mut b = WorkflowBuilder::new("w");
        let x = b.file("x", 1);
        let y = b.file("y", 1);
        let t0 = b.add_task("t0", "m", 1.0, &[], &[x]).unwrap();
        let t1 = b.add_task("t1", "m", 1.0, &[x], &[y]).unwrap();
        b.add_control_edge(t0, t1); // redundant with the file edge
        let wf = b.build().unwrap();
        assert_eq!(wf.parents(t1), &[t0]); // still a single parent entry
    }

    #[test]
    fn find_task_by_name() {
        let mut b = WorkflowBuilder::new("w");
        let x = b.file("x", 1);
        let t = b.add_task("only", "m", 1.0, &[], &[x]).unwrap();
        assert_eq!(b.find_task("only"), Some(t));
        assert_eq!(b.find_task("missing"), None);
    }

    #[test]
    fn zero_input_source_tasks_allowed() {
        let mut b = WorkflowBuilder::new("w");
        let x = b.file("x", 1);
        b.add_task("gen", "m", 1.0, &[], &[x]).unwrap();
        let wf = b.build().unwrap();
        assert!(wf.parents(TaskId(0)).is_empty());
        assert!(wf.external_inputs().is_empty());
    }
}
