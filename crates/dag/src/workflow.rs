//! The workflow graph: tasks connected by write-once data files.
//!
//! Dependencies are expressed exactly as in the paper (and in Pegasus): a
//! task that reads file `b` depends on the task that produced `b`. Files
//! with no producer are *external inputs* that must be staged in from the
//! user/archive; files nobody consumes (or files explicitly marked
//! *deliverable*, like the final mosaic) are staged out to the user at the
//! end of the run.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use crate::error::DagError;
use crate::ids::{FileId, TaskId};

/// A data product moved through the workflow: a borrowed view of one row
/// of the [`Workflow`]'s file columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileMeta<'a> {
    /// Unique logical file name (e.g. `proj_2_3.fits`).
    pub name: &'a str,
    /// Size in bytes.
    pub bytes: u64,
    /// Marked for stage-out to the user even if some task consumes it
    /// (e.g. the final mosaic, which `mShrink` also reads).
    pub deliverable: bool,
}

/// One invocation of an application routine: a borrowed view of one row
/// of the [`Workflow`]'s task columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task<'a> {
    /// Unique task name (e.g. `mProject_12`).
    pub name: &'a str,
    /// The routine this task invokes (e.g. `mProject`); the paper calls all
    /// same-level Montage tasks invocations of the same routine.
    pub module: &'a str,
    /// Runtime on the reference CPU, in seconds.
    pub runtime_s: f64,
    /// Files read (deduplicated, in registration order).
    pub inputs: &'a [FileId],
    /// Files written (deduplicated, in registration order).
    pub outputs: &'a [FileId],
}

/// Lists flattened into compressed-sparse-row form: the list for row `i`
/// lives at `ids[offsets[i]..offsets[i + 1]]`. One offsets array plus one
/// flat ids array replaces a `Vec<Vec<_>>`, so looking up a row is two
/// loads with no pointer chase per row and the whole structure is two
/// allocations regardless of row count.
#[derive(Debug, Clone)]
struct Csr<T> {
    offsets: Vec<u32>,
    ids: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// An empty CSR ready for [`push_row`](Self::push_row), with room for
    /// `rows` rows' offsets.
    fn with_rows(rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Csr {
            offsets,
            ids: Vec::new(),
        }
    }

    /// Closes the row holding every id pushed since the last call.
    fn push_row(&mut self) {
        self.offsets
            .push(u32::try_from(self.ids.len()).expect("adjacency exceeds the u32 offset range"));
    }

    /// Where the row [`push_row`](Self::push_row) will close starts.
    fn open_start(&self) -> usize {
        *self.offsets.last().expect("offsets start at zero") as usize
    }

    /// Ids pushed since the last [`push_row`](Self::push_row).
    fn open_row(&self) -> &[T] {
        &self.ids[self.open_start()..]
    }

    /// Drops the ids pushed since the last [`push_row`](Self::push_row).
    fn discard_open_row(&mut self) {
        self.ids.truncate(self.open_start());
    }

    fn row(&self, i: usize) -> &[T] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Groups `(row, id)` pairs into `rows` rows with a counting sort: one
    /// pass sizes the rows, a second places the ids. Within a row, ids keep
    /// the order `pairs` yields them in, so `pairs` must yield the same
    /// sequence on both calls. `fill` is a placeholder every slot
    /// overwrites.
    fn group<I>(rows: usize, fill: T, pairs: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (usize, T)>,
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
        let mut ids = vec![fill; start as usize];
        for (r, id) in pairs() {
            ids[offsets[r + 1] as usize] = id;
            offsets[r + 1] += 1;
        }
        Csr { offsets, ids }
    }
}

/// Where a name lives in the shared name arena: `arena[start..end]`.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn of(self, arena: &str) -> &str {
        &arena[self.start as usize..self.end as usize]
    }
}

/// Appends `name` to `arena` and returns where it landed.
fn push_name(arena: &mut String, name: &str) -> Span {
    let start = arena.len();
    arena.push_str(name);
    let offset = |n: usize| u32::try_from(n).expect("names exceed the u32 arena range");
    Span {
        start: offset(start),
        end: offset(arena.len()),
    }
}

/// An immutable, validated workflow DAG.
///
/// Construct via [`WorkflowBuilder`]; validation guarantees the graph is
/// non-empty, acyclic, and that every file has at most one producer.
///
/// Storage is columnar, so a workflow of any size is a fixed number of
/// allocations: every task and file name lives in one string arena, module
/// names are interned once, per-task file lists and all adjacency (file
/// consumers, task parents/children) are in CSR form, and runtimes, sizes
/// and flags are plain columns. Every derived file set (external inputs,
/// staged-out files) is computed once at construction, so the accessors
/// used by the simulation engine's event loop are allocation-free.
#[derive(Debug, Clone)]
pub struct Workflow {
    name: String,
    tables: Tables,
    consumers: Csr<TaskId>,
    parents: Csr<TaskId>,
    children: Csr<TaskId>,
    external_inputs: Vec<FileId>,
    staged_out: Vec<FileId>,
}

/// The per-task and per-file columns: the builder appends to them and
/// [`WorkflowBuilder::build`] moves them into the [`Workflow`] as they are.
#[derive(Debug, Clone)]
struct Tables {
    /// Every task, module and file name, back to back.
    names: String,
    task_names: Vec<Span>,
    /// Per task, its index into `modules`.
    task_module: Vec<u32>,
    modules: Vec<Span>,
    runtime_s: Vec<f64>,
    inputs: Csr<FileId>,
    outputs: Csr<FileId>,
    file_names: Vec<Span>,
    bytes: Vec<u64>,
    deliverable: Vec<bool>,
    producer: Vec<Option<TaskId>>,
}

impl Tables {
    fn task_name(&self, task: TaskId) -> &str {
        self.task_names[task.index()].of(&self.names)
    }

    fn file_name(&self, file: FileId) -> &str {
        self.file_names[file.index()].of(&self.names)
    }
}

impl Workflow {
    /// The workflow's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.tables.task_names.len()
    }

    /// Number of distinct files.
    pub fn num_files(&self) -> usize {
        self.tables.file_names.len()
    }

    /// All tasks, in [`TaskId`] order.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = Task<'_>> + '_ {
        self.task_ids().map(move |t| self.task(t))
    }

    /// All files, in [`FileId`] order.
    pub fn files(&self) -> impl ExactSizeIterator<Item = FileMeta<'_>> + '_ {
        self.file_ids().map(move |f| self.file(f))
    }

    /// A single task.
    pub fn task(&self, id: TaskId) -> Task<'_> {
        let t = &self.tables;
        Task {
            name: t.task_name(id),
            module: t.modules[t.task_module[id.index()] as usize].of(&t.names),
            runtime_s: self.runtime_s(id),
            inputs: self.inputs(id),
            outputs: self.outputs(id),
        }
    }

    /// A single file.
    pub fn file(&self, id: FileId) -> FileMeta<'_> {
        FileMeta {
            name: self.tables.file_name(id),
            bytes: self.bytes(id),
            deliverable: self.tables.deliverable[id.index()],
        }
    }

    /// A task's runtime on the reference CPU, in seconds: `task(t).runtime_s`
    /// without resolving the task's names.
    pub fn runtime_s(&self, task: TaskId) -> f64 {
        self.tables.runtime_s[task.index()]
    }

    /// Files a task reads: `task(t).inputs` without resolving its names.
    pub fn inputs(&self, task: TaskId) -> &[FileId] {
        self.tables.inputs.row(task.index())
    }

    /// Files a task writes: `task(t).outputs` without resolving its names.
    pub fn outputs(&self, task: TaskId) -> &[FileId] {
        self.tables.outputs.row(task.index())
    }

    /// A file's size in bytes: `file(f).bytes` without resolving its name.
    pub fn bytes(&self, file: FileId) -> u64 {
        self.tables.bytes[file.index()]
    }

    /// Iterator over all task ids in index order.
    pub fn task_ids(&self) -> impl ExactSizeIterator<Item = TaskId> {
        (0..self.num_tasks() as u32).map(TaskId)
    }

    /// Iterator over all file ids in index order.
    pub fn file_ids(&self) -> impl ExactSizeIterator<Item = FileId> {
        (0..self.num_files() as u32).map(FileId)
    }

    /// The task that writes `file`, or `None` for an external input.
    pub fn producer(&self, file: FileId) -> Option<TaskId> {
        self.tables.producer[file.index()]
    }

    /// Tasks that read `file`, sorted by id.
    pub fn consumers(&self, file: FileId) -> &[TaskId] {
        self.consumers.row(file.index())
    }

    /// Distinct tasks whose outputs this task reads, plus its control-edge
    /// parents, sorted by id.
    pub fn parents(&self, task: TaskId) -> &[TaskId] {
        self.parents.row(task.index())
    }

    /// The parents of `task` that none of its input files implies: its
    /// control-only (DAX `<child>/<parent>`) edges, sorted by id.
    pub fn control_parents(&self, task: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        let implied: std::collections::HashSet<TaskId> = self
            .inputs(task)
            .iter()
            .filter_map(|&f| self.producer(f))
            .collect();
        self.parents(task)
            .iter()
            .copied()
            .filter(move |p| !implied.contains(p))
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
        for b in &mut self.tables.bytes {
            if *b > 0 {
                *b = ((*b as f64 * factor).round() as u64).max(1);
            }
        }
    }
}

/// Id of an empty [`NameIndex`] slot.
const VACANT: u32 = u32::MAX;

/// An open-addressing hash set of ids, each standing for the name its
/// [`Span`] covers in the name arena. Slots hold only the id and 32 bits
/// of the name's hash: a probe compares hashes first and reads the arena
/// only on a hash match, and growing rehashes without touching a name.
/// The hash is the caller's keyed SipHash, so names chosen to collide
/// (a hostile DAX document) cannot degrade lookups to a linear scan.
#[derive(Debug, Clone)]
struct NameIndex {
    /// `(id, hash)` pairs; linear probing from `hash & mask`.
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl NameIndex {
    /// An index sized to hold `n` names without growing.
    fn with_capacity(n: usize) -> Self {
        NameIndex {
            slots: vec![(VACANT, 0); (2 * n).next_power_of_two().max(16)],
            len: 0,
        }
    }

    /// The id whose name is `name`.
    fn find(&self, hash: u32, name: &str, spans: &[Span], arena: &str) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (id, h) = self.slots[i];
            if id == VACANT {
                return None;
            }
            if h == hash && spans[id as usize].of(arena) == name {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds `id`, whose name hashes to `hash` and is not yet present.
    fn insert(&mut self, hash: u32, id: u32) {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![(VACANT, 0); 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            for (id, h) in old.into_iter().filter(|&(id, _)| id != VACANT) {
                self.place(h, id);
            }
        }
        self.place(hash, id);
        self.len += 1;
    }

    fn place(&mut self, hash: u32, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].0 != VACANT {
            i = (i + 1) & mask;
        }
        self.slots[i] = (id, hash);
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
#[derive(Debug)]
pub struct WorkflowBuilder {
    name: String,
    tables: Tables,
    /// Keys the name hash, so each builder hashes differently.
    hasher: RandomState,
    task_index: NameIndex,
    file_index: NameIndex,
    module_index: NameIndex,
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

/// Name bytes reserved per task and file by
/// [`WorkflowBuilder::with_capacity`]: Montage names run 8-25 bytes.
const NAME_BYTES_HINT: usize = 20;

impl WorkflowBuilder {
    /// Starts an empty workflow with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_capacity(name, 0, 0)
    }

    /// Starts an empty workflow sized for `tasks` tasks and `files` files,
    /// so building one that size grows no table.
    pub fn with_capacity(name: impl Into<String>, tasks: usize, files: usize) -> Self {
        WorkflowBuilder {
            name: name.into(),
            tables: Tables {
                names: String::with_capacity(NAME_BYTES_HINT * (tasks + files)),
                task_names: Vec::with_capacity(tasks),
                task_module: Vec::with_capacity(tasks),
                modules: Vec::new(),
                runtime_s: Vec::with_capacity(tasks),
                inputs: Csr::with_rows(tasks),
                outputs: Csr::with_rows(tasks),
                file_names: Vec::with_capacity(files),
                bytes: Vec::with_capacity(files),
                deliverable: Vec::with_capacity(files),
                producer: Vec::with_capacity(files),
            },
            hasher: RandomState::new(),
            task_index: NameIndex::with_capacity(tasks),
            file_index: NameIndex::with_capacity(files),
            module_index: NameIndex::with_capacity(0),
            stamp: Vec::with_capacity(files),
            epoch: 0,
            control_edges: Vec::new(),
        }
    }

    /// The name's hash, cut to the 32 bits a [`NameIndex`] slot keeps.
    fn hash(&self, name: &str) -> u32 {
        self.hasher.hash_one(name) as u32
    }

    /// Registers (or looks up) a file by name. Registration is idempotent.
    ///
    /// # Panics
    /// Panics if the name was already registered with a *different* size —
    /// that is always a bug in the calling generator.
    pub fn file(&mut self, name: impl AsRef<str>, bytes: u64) -> FileId {
        let name = name.as_ref();
        let hash = self.hash(name);
        let t = &mut self.tables;
        if let Some(id) = self.file_index.find(hash, name, &t.file_names, &t.names) {
            assert_eq!(
                t.bytes[id as usize], bytes,
                "file '{name}' re-registered with a different size"
            );
            return FileId(id);
        }
        let id = u32::try_from(t.file_names.len())
            .ok()
            .filter(|&id| id != VACANT)
            .expect("more files than u32 ids");
        t.file_names.push(push_name(&mut t.names, name));
        t.bytes.push(bytes);
        t.deliverable.push(false);
        t.producer.push(None);
        self.stamp.push(0);
        self.file_index.insert(hash, id);
        FileId(id)
    }

    /// Looks up a previously registered file by name.
    pub fn find_file(&self, name: &str) -> Option<FileId> {
        let t = &self.tables;
        self.file_index
            .find(self.hash(name), name, &t.file_names, &t.names)
            .map(FileId)
    }

    /// Size of a registered file, for callers that must turn a size
    /// conflict into an error rather than the panic in [`file`](Self::file).
    pub(crate) fn file_bytes(&self, file: FileId) -> u64 {
        self.tables.bytes[file.index()]
    }

    /// Marks a file for stage-out to the user even if tasks consume it.
    pub fn mark_deliverable(&mut self, file: FileId) {
        self.tables.deliverable[file.index()] = true;
    }

    /// Adds a task. Input/output file lists are deduplicated preserving
    /// order. Fails on duplicate task names, invalid runtimes, a file that
    /// is both input and output, or a second producer for a file; a failed
    /// call leaves the builder unchanged.
    pub fn add_task(
        &mut self,
        name: impl AsRef<str>,
        module: impl AsRef<str>,
        runtime_s: f64,
        inputs: &[FileId],
        outputs: &[FileId],
    ) -> Result<TaskId, DagError> {
        let name = name.as_ref();
        let hash = self.hash(name);
        let t = &mut self.tables;
        if self
            .task_index
            .find(hash, name, &t.task_names, &t.names)
            .is_some()
        {
            return Err(DagError::DuplicateTaskName(name.to_string()));
        }
        if !runtime_s.is_finite() || runtime_s < 0.0 {
            return Err(DagError::InvalidRuntime {
                task: name.to_string(),
                runtime: runtime_s,
            });
        }
        self.epoch = self
            .epoch
            .checked_add(2)
            .expect("more add_task calls than file stamps can tell apart");
        let (as_input, as_output) = (self.epoch - 1, self.epoch);
        for &f in inputs {
            let stamp = &mut self.stamp[f.index()];
            if *stamp != as_input {
                *stamp = as_input;
                t.inputs.ids.push(f);
            }
        }
        // Outputs are checked against the input stamp before being stamped
        // themselves, so the self-loop reported is the first output (in
        // list order) that is also an input.
        let mut error = None;
        for &f in outputs {
            let stamp = &mut self.stamp[f.index()];
            if *stamp == as_input {
                error = Some(DagError::SelfLoop {
                    task: name.to_string(),
                    file: t.file_name(f).to_string(),
                });
                break;
            }
            if *stamp != as_output {
                *stamp = as_output;
                t.outputs.ids.push(f);
            }
        }
        let error = error.or_else(|| {
            t.outputs.open_row().iter().find_map(|&f| {
                t.producer[f.index()].map(|first| DagError::DuplicateProducer {
                    file: t.file_name(f).to_string(),
                    first: t.task_name(first).to_string(),
                    second: name.to_string(),
                })
            })
        });
        if let Some(error) = error {
            t.inputs.discard_open_row();
            t.outputs.discard_open_row();
            return Err(error);
        }
        let id = u32::try_from(t.task_names.len())
            .ok()
            .filter(|&id| id != VACANT)
            .map(TaskId)
            .expect("more tasks than u32 ids");
        for &f in t.outputs.open_row() {
            t.producer[f.index()] = Some(id);
        }
        t.inputs.push_row();
        t.outputs.push_row();
        t.task_names.push(push_name(&mut t.names, name));
        t.runtime_s.push(runtime_s);
        self.task_index.insert(hash, id.0);
        let module = self.intern_module(module.as_ref());
        self.tables.task_module.push(module);
        Ok(id)
    }

    /// The index of `module` in the module table, adding it if new.
    fn intern_module(&mut self, module: &str) -> u32 {
        let hash = self.hash(module);
        let t = &mut self.tables;
        if let Some(m) = self.module_index.find(hash, module, &t.modules, &t.names) {
            return m;
        }
        let m = t.modules.len() as u32;
        t.modules.push(push_name(&mut t.names, module));
        self.module_index.insert(hash, m);
        m
    }

    /// Adds an explicit control dependency: `child` cannot start before
    /// `parent` finishes, even with no file between them (Pegasus DAX
    /// `<child ref=..><parent ref=..>` edges). Self-edges are rejected at
    /// build time via cycle detection.
    ///
    /// # Panics
    /// Panics if either id has not been created by this builder.
    pub fn add_control_edge(&mut self, parent: TaskId, child: TaskId) {
        let n = self.tables.task_names.len();
        assert!(
            parent.index() < n && child.index() < n,
            "control edge references unknown task(s) {parent} -> {child}"
        );
        self.control_edges.push((parent, child));
    }

    /// Looks up a previously added task by name.
    pub fn find_task(&self, name: &str) -> Option<TaskId> {
        let t = &self.tables;
        self.task_index
            .find(self.hash(name), name, &t.task_names, &t.names)
            .map(TaskId)
    }

    /// Validates the accumulated graph and freezes it into a [`Workflow`].
    ///
    /// Linear in tasks + files + edges, up to sorting each task's parents:
    /// every adjacency is built straight into CSR form, and the name arena
    /// and columns move into the workflow as they are.
    pub fn build(self) -> Result<Workflow, DagError> {
        let t = &self.tables;
        let n = t.task_names.len();
        if n == 0 {
            return Err(DagError::Empty);
        }
        let n_files = t.file_names.len();
        let (inputs, producer) = (&t.inputs, &t.producer);
        // Consumers, visiting tasks in id order so each row comes out sorted
        // (inputs are already deduplicated).
        let consumers = Csr::group(n_files, TaskId(0), || {
            (0..n).flat_map(|c| {
                inputs
                    .row(c)
                    .iter()
                    .map(move |f| (f.index(), TaskId(c as u32)))
            })
        });
        // Parents, row by row: the producers of a task's inputs plus its
        // control-edge parents, deduplicated by stamping each parent with
        // the child that last listed it, then sorted.
        let control_parents = Csr::group(n, TaskId(0), || {
            self.control_edges.iter().map(|&(p, c)| (c.index(), p))
        });
        let mut parents = Csr::with_rows(n);
        let mut listed_by = vec![u32::MAX; n];
        for c in 0..n {
            let file_parents = inputs.row(c).iter().filter_map(|f| producer[f.index()]);
            for p in file_parents.chain(control_parents.row(c).iter().copied()) {
                if listed_by[p.index()] != c as u32 {
                    listed_by[p.index()] = c as u32;
                    parents.ids.push(p);
                }
            }
            let row_start = parents.open_start();
            parents.ids[row_start..].sort_unstable();
            parents.push_row();
        }
        // Children: the transpose of parents. Visiting children in id order
        // leaves every row sorted and unique.
        let children = Csr::group(n, TaskId(0), || {
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
        let mut indeg: Vec<u32> = (0..n).map(|c| parents.row(c).len() as u32).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&c| indeg[c] == 0).collect();
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
                task: t.task_name(TaskId(on_cycle as u32)).to_string(),
            });
        }
        let external_inputs: Vec<FileId> = (0..n_files as u32)
            .map(FileId)
            .filter(|f| producer[f.index()].is_none())
            .collect();
        let staged_out: Vec<FileId> = (0..n_files as u32)
            .map(FileId)
            .filter(|f| {
                producer[f.index()].is_some()
                    && (t.deliverable[f.index()] || consumers.row(f.index()).is_empty())
            })
            .collect();
        Ok(Workflow {
            name: self.name,
            tables: self.tables,
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
            ids.iter().map(|f| wf.file(*f).name.to_string()).collect()
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
        let before: u64 = wf.files().map(|f| f.bytes).sum();
        wf.scale_file_sizes(2.5);
        let after: u64 = wf.files().map(|f| f.bytes).sum();
        assert_eq!(after, (before as f64 * 2.5).round() as u64);
        // Tiny factors never produce zero-size files.
        wf.scale_file_sizes(1e-9);
        assert!(wf.files().all(|f| f.bytes >= 1));
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
