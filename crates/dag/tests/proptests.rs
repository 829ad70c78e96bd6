//! Randomized-property tests over randomly generated layered DAGs.
//!
//! Each case builds a random layered workflow from a deterministic
//! xorshift64* stream (seeded by the case index), so failures reproduce.

use std::collections::HashMap;

use mcloud_dag::{from_dax, to_dax, FileId, TaskId, Workflow, WorkflowBuilder};

const CASES: u64 = 48;

/// A random layered workflow. Each task in layer `l > 0` consumes 1-3
/// outputs of earlier layers; every task produces one file; some files are
/// external inputs.
fn layered_workflow(seed: u64) -> Workflow {
    let mut rng = seed | 1; // xorshift state must be nonzero
    let mut next = move || {
        // xorshift64* - deterministic, dependency-free
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let n_layers = 1 + (next() as usize) % 4;
    let widths: Vec<usize> = (0..n_layers).map(|_| 1 + (next() as usize) % 5).collect();
    let mut b = WorkflowBuilder::new("prop");
    let mut produced: Vec<FileId> = Vec::new();
    let mut task_no = 0usize;
    for (layer, &width) in widths.iter().enumerate() {
        let mut new_files = Vec::new();
        for w in 0..width {
            let out = b.file(format!("out_{layer}_{w}"), 1 + next() % 10_000);
            let inputs: Vec<FileId> = if produced.is_empty() {
                let ext = b.file(format!("ext_{layer}_{w}"), 1 + next() % 10_000);
                vec![ext]
            } else {
                let k = 1 + (next() as usize) % 3.min(produced.len());
                (0..k)
                    .map(|_| produced[(next() as usize) % produced.len()])
                    .collect()
            };
            let runtime = 1.0 + (next() % 1000) as f64 / 10.0;
            b.add_task(format!("t{task_no}"), "m", runtime, &inputs, &[out])
                .unwrap();
            task_no += 1;
            new_files.push(out);
        }
        produced.extend(new_files);
    }
    b.build().unwrap()
}

/// Topological order contains every task once and respects all edges.
#[test]
fn topo_order_is_a_valid_permutation() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0001 ^ case);
        let order = wf.topo_order();
        assert_eq!(order.len(), wf.num_tasks(), "case {case}");
        let mut pos = vec![usize::MAX; wf.num_tasks()];
        for (i, t) in order.iter().enumerate() {
            assert_eq!(pos[t.index()], usize::MAX, "case {case}: task repeated");
            pos[t.index()] = i;
        }
        for t in wf.task_ids() {
            for p in wf.parents(t) {
                assert!(
                    pos[p.index()] < pos[t.index()],
                    "case {case}: edge violated"
                );
            }
        }
    }
}

/// The paper's level definition holds everywhere: level 1 iff no parents,
/// otherwise 1 + max parent level.
#[test]
fn levels_satisfy_recurrence() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0002 ^ case);
        let levels = wf.levels();
        for t in wf.task_ids() {
            let parents = wf.parents(t);
            if parents.is_empty() {
                assert_eq!(levels[t.index()], 1, "case {case}");
            } else {
                let max_parent = parents.iter().map(|p| levels[p.index()]).max().unwrap();
                assert_eq!(levels[t.index()], max_parent + 1, "case {case}");
            }
        }
    }
}

/// Critical path bounds: at least the longest single task, at most the
/// total runtime; and parallelism is within [1, tasks].
#[test]
fn path_and_parallelism_bounds() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0003 ^ case);
        let cp = wf.critical_path_s();
        let longest = wf.tasks().map(|t| t.runtime_s).fold(0.0, f64::max);
        assert!(cp >= longest - 1e-9, "case {case}");
        assert!(cp <= wf.total_runtime_s() + 1e-9, "case {case}");
        let mp = wf.max_parallelism();
        assert!(mp >= 1 && mp <= wf.num_tasks(), "case {case}");
        // A chain has depth == tasks; in general depth <= tasks.
        assert!(wf.depth() as usize <= wf.num_tasks(), "case {case}");
    }
}

/// Parent/child relations are mutually consistent and deduplicated.
#[test]
fn adjacency_is_symmetric() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0004 ^ case);
        for t in wf.task_ids() {
            for p in wf.parents(t) {
                assert!(wf.children(*p).contains(&t), "case {case}");
            }
            for c in wf.children(t) {
                assert!(wf.parents(*c).contains(&t), "case {case}");
            }
            let mut ps = wf.parents(t).to_vec();
            ps.dedup();
            assert_eq!(ps.len(), wf.parents(t).len(), "case {case}: duplicate edge");
        }
    }
}

/// DAX serialization round-trips every analysis-relevant quantity.
#[test]
fn dax_roundtrip_is_lossless() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0005 ^ case);
        let back = from_dax(&to_dax(&wf)).unwrap();
        assert_eq!(back.num_tasks(), wf.num_tasks(), "case {case}");
        assert_eq!(back.num_files(), wf.num_files(), "case {case}");
        assert_eq!(back.total_bytes(), wf.total_bytes(), "case {case}");
        assert_eq!(back.levels(), wf.levels(), "case {case}");
        assert!(
            (back.total_runtime_s() - wf.total_runtime_s()).abs() < 1e-6,
            "case {case}"
        );
        // File ids are assigned in registration order, which differs between
        // the builder and the DAX reader; compare by name.
        let names = |w: &Workflow, ids: &[FileId]| -> Vec<String> {
            let mut v: Vec<String> = ids.iter().map(|f| w.file(*f).name.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(
            names(&back, back.external_inputs()),
            names(&wf, wf.external_inputs()),
            "case {case}"
        );
        assert_eq!(
            names(&back, back.staged_out_files()),
            names(&wf, wf.staged_out_files()),
            "case {case}"
        );
    }
}

/// CCR is linear in a file-size scale factor.
#[test]
fn ccr_is_linear_in_scale() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0006 ^ case);
        let factor = 0.1 + 9.9 * (case as f64 / CASES as f64);
        let base = wf.ccr(1_250_000.0);
        let mut scaled = wf.clone();
        scaled.scale_file_sizes(factor);
        let got = scaled.ccr(1_250_000.0);
        // Rounding to whole bytes perturbs tiny files; allow 1% slack.
        assert!(
            (got - base * factor).abs() <= 0.01 * base * factor + 1e-9,
            "case {case}: {got} vs {}",
            base * factor
        );
    }
}

/// The CSR adjacency and the construction-time file-set caches agree with
/// a from-scratch recomputation that scans task inputs/outputs, i.e. the
/// flattened layout is exactly the old `Vec<Vec<_>>` scan semantics.
#[test]
fn csr_and_cached_sets_match_scan_recomputation() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0008 ^ case);
        let file_ids = || (0..wf.num_files() as u32).map(FileId);

        // Consumers of a file: every task listing it among its inputs, in
        // task order (inputs are deduplicated by the builder).
        for f in file_ids() {
            let scan: Vec<TaskId> = wf
                .task_ids()
                .filter(|&t| wf.task(t).inputs.contains(&f))
                .collect();
            assert_eq!(wf.consumers(f), &scan[..], "case {case}: consumers");
        }

        // Parents/children: set-compare against the producer map; ordering
        // within a row is checked structurally by `adjacency_is_symmetric`.
        for t in wf.task_ids() {
            let mut parents: Vec<TaskId> = wf
                .task(t)
                .inputs
                .iter()
                .filter_map(|&f| wf.producer(f))
                .collect();
            parents.sort();
            parents.dedup();
            let mut got = wf.parents(t).to_vec();
            got.sort();
            assert_eq!(got, parents, "case {case}: parents");

            let mut children: Vec<TaskId> = wf
                .task(t)
                .outputs
                .iter()
                .flat_map(|&f| wf.consumers(f).iter().copied())
                .collect();
            children.sort();
            children.dedup();
            let mut got = wf.children(t).to_vec();
            got.sort();
            assert_eq!(got, children, "case {case}: children");
        }

        // External inputs: files nothing produces, in file order.
        let ext: Vec<FileId> = file_ids().filter(|&f| wf.producer(f).is_none()).collect();
        assert_eq!(wf.external_inputs(), &ext[..], "case {case}: external");

        // Staged-out: produced files that are deliverable or dead-end.
        let staged: Vec<FileId> = file_ids()
            .filter(|&f| {
                wf.producer(f).is_some() && (wf.file(f).deliverable || wf.consumers(f).is_empty())
            })
            .collect();
        assert_eq!(wf.staged_out_files(), &staged[..], "case {case}: staged");
    }
}

/// Level widths sum to the task count.
#[test]
fn level_widths_partition_tasks() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0007 ^ case);
        let widths = wf.level_widths();
        assert_eq!(widths.iter().sum::<usize>(), wf.num_tasks(), "case {case}");
        assert!(widths.iter().all(|&w| w > 0), "case {case}");
    }
}

// --- builder equivalence against a naive reference --------------------------

/// xorshift64* stream, as in `layered_workflow`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The raw lists handed to the builder: file `i` is named `f{i}`, task `i`
/// is named `t{i}`, and every list may repeat ids.
struct Spec {
    sizes: Vec<u64>,
    deliverable: Vec<usize>,
    /// `(inputs, outputs)` per task, as file indices.
    tasks: Vec<(Vec<u32>, Vec<u32>)>,
    /// `(parent, child)` task indices.
    control: Vec<(u32, u32)>,
}

#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    SelfLoop,
    DuplicateProducer,
    Cycle,
}

/// A random workflow whose task ids disagree with a hidden topological
/// order, so tasks often read files that later tasks produce. With
/// `big_inputs`, one task reads that many list entries, a third of them
/// repeats. `fault` plants one defect of that kind.
fn random_spec(seed: u64, big_inputs: usize, fault: Fault) -> Spec {
    let mut rng = Rng(seed | 1);
    let n_tasks = 2 + rng.below(18);
    let n_files = 1 + rng.below(40);
    let mut rank: Vec<usize> = (0..n_tasks).collect();
    rng.shuffle(&mut rank);
    let mut producer: Vec<Option<usize>> = (0..n_files)
        .map(|_| (rng.below(3) != 0).then(|| rng.below(n_tasks)))
        .collect();
    let big_task = rng.below(n_tasks);
    let distinct_big = big_inputs - big_inputs / 3;
    for _ in 0..distinct_big {
        let earlier: Vec<usize> = (0..n_tasks).filter(|&t| rank[t] < rank[big_task]).collect();
        producer.push(
            (!earlier.is_empty() && rng.below(2) == 0).then(|| earlier[rng.below(earlier.len())]),
        );
    }
    let mut tasks: Vec<(Vec<u32>, Vec<u32>)> = vec![(Vec::new(), Vec::new()); n_tasks];
    for (f, p) in producer.iter().enumerate() {
        if let Some(p) = *p {
            tasks[p].1.push(f as u32);
        }
    }
    for (t, (inputs, outputs)) in tasks.iter_mut().enumerate() {
        // Readable: external files and files of tasks earlier in `rank`.
        let readable: Vec<u32> = (0..n_files as u32)
            .filter(|&f| producer[f as usize].is_none_or(|p| rank[p] < rank[t]))
            .collect();
        if !readable.is_empty() {
            for _ in 0..rng.below(7) {
                inputs.push(readable[rng.below(readable.len())]);
            }
        }
        if !outputs.is_empty() && rng.below(3) == 0 {
            outputs.push(outputs[rng.below(outputs.len())]);
        }
        rng.shuffle(outputs);
    }
    let big = &mut tasks[big_task].0;
    let first_big = n_files as u32;
    big.extend(first_big..first_big + distinct_big as u32);
    for _ in distinct_big..big_inputs {
        big.push(first_big + rng.below(distinct_big) as u32);
    }
    rng.shuffle(big);

    let mut control = Vec::new();
    for _ in 0..rng.below(6) {
        let (a, b) = (rng.below(n_tasks), rng.below(n_tasks));
        if rank[a] < rank[b] {
            control.push((a as u32, b as u32));
        }
    }
    // Redundant edges: repeats of control edges and of file-implied edges.
    if let Some(&edge) = control.first() {
        control.push(edge);
    }
    for (c, (inputs, _)) in tasks.iter().enumerate() {
        if let Some(p) = inputs.first().and_then(|&f| producer[f as usize]) {
            if rng.below(2) == 0 {
                control.push((p as u32, c as u32));
            }
        }
    }

    let t = rng.below(n_tasks);
    match fault {
        Fault::None => {}
        Fault::SelfLoop => {
            let f = match tasks[t].0.first() {
                Some(&f) => f,
                None => {
                    tasks[t].0.push(0);
                    0
                }
            };
            let at = rng.below(tasks[t].1.len() + 1);
            tasks[t].1.insert(at, f);
        }
        Fault::DuplicateProducer => {
            let taken: Vec<u32> = (0..n_files as u32)
                .filter(|&f| producer[f as usize].is_some_and(|p| p != t))
                .collect();
            // Two contested outputs, so the error must name the first.
            for _ in 0..2 {
                let f = if taken.is_empty() {
                    0
                } else {
                    taken[rng.below(taken.len())]
                };
                tasks[t].1.push(f);
                tasks[(t + 1) % n_tasks].1.push(f);
            }
        }
        Fault::Cycle => {
            // Reverse a file-implied edge, or add a self-edge.
            let reversed = tasks[t]
                .0
                .iter()
                .find_map(|&f| producer[f as usize].map(|p| (t as u32, p as u32)));
            control.push(reversed.unwrap_or((t as u32, t as u32)));
        }
    }
    let deliverable = (0..producer.len()).filter(|_| rng.below(8) == 0).collect();
    let sizes = (0..producer.len()).map(|_| 1 + rng.next() % 1000).collect();
    Spec {
        sizes,
        deliverable,
        tasks,
        control,
    }
}

/// Builds `spec`, interleaving name lookups with the registrations and
/// checking each against a `HashMap` of what was registered so far:
/// `find_file`/`find_task` on present and absent names, idempotent
/// re-registration of a file at its size, the panic on a different size,
/// and a rejected duplicate task name. Tasks use three module names.
fn build_spec(spec: &Spec, rng: &mut Rng) -> Result<Workflow, mcloud_dag::DagError> {
    let mut b = WorkflowBuilder::new("equiv");
    let mut files: HashMap<String, FileId> = HashMap::new();
    let mut tasks: HashMap<String, TaskId> = HashMap::new();
    let n_files = spec.sizes.len();
    let n_tasks = spec.tasks.len();
    for (i, &size) in spec.sizes.iter().enumerate() {
        let name = format!("f{i}");
        let id = b.file(&name, size);
        assert_eq!(id, FileId(i as u32), "file ids follow registration order");
        files.insert(name, id);
        let j = rng.below(i + 1);
        assert_eq!(
            b.file(format!("f{j}"), spec.sizes[j]),
            files[&format!("f{j}")],
            "re-registering f{j} at its size"
        );
        let probe = format!("f{}", rng.below(2 * n_files));
        assert_eq!(
            b.find_file(&probe),
            files.get(&probe).copied(),
            "find_file({probe})"
        );
    }
    let j = rng.below(n_files);
    let conflict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        b.file(format!("f{j}"), spec.sizes[j] + 1)
    }));
    assert!(conflict.is_err(), "f{j} re-registered at a different size");
    let ids = |list: &[u32]| list.iter().map(|&f| FileId(f)).collect::<Vec<_>>();
    for (i, (inputs, outputs)) in spec.tasks.iter().enumerate() {
        if i > 0 && rng.below(3) == 0 {
            let dup = format!("t{}", rng.below(i));
            if tasks.contains_key(&dup) {
                assert_eq!(
                    b.add_task(&dup, "m0", 1.0, &[], &[]),
                    Err(mcloud_dag::DagError::DuplicateTaskName(dup.clone())),
                );
            }
        }
        let name = format!("t{i}");
        let added = b.add_task(
            &name,
            format!("m{}", i % 3),
            1.0,
            &ids(inputs),
            &ids(outputs),
        );
        let probe = format!("t{}", rng.below(2 * n_tasks));
        match added {
            Ok(id) => {
                assert_eq!(
                    id,
                    TaskId(tasks.len() as u32),
                    "task ids follow insertion order"
                );
                tasks.insert(name, id);
            }
            Err(_) => assert_eq!(b.find_task(&name), None, "failed {name} was registered"),
        }
        assert_eq!(
            b.find_task(&probe),
            tasks.get(&probe).copied(),
            "find_task({probe})"
        );
        added?;
    }
    for &(p, c) in &spec.control {
        b.add_control_edge(TaskId(p), TaskId(c));
    }
    for &f in &spec.deliverable {
        b.mark_deliverable(FileId(f as u32));
    }
    b.build()
}

/// What the builder must produce, computed the slow, obvious way.
struct Expected {
    inputs: Vec<Vec<FileId>>,
    outputs: Vec<Vec<FileId>>,
    consumers: Vec<Vec<TaskId>>,
    parents: Vec<Vec<TaskId>>,
    children: Vec<Vec<TaskId>>,
    external: Vec<FileId>,
    staged: Vec<FileId>,
}

fn naive_dedup(list: &[u32]) -> Vec<FileId> {
    let mut out: Vec<FileId> = Vec::new();
    for &f in list {
        if !out.contains(&FileId(f)) {
            out.push(FileId(f));
        }
    }
    out
}

fn reference(spec: &Spec) -> Result<Expected, mcloud_dag::DagError> {
    use mcloud_dag::DagError;
    let name = |f: FileId| format!("f{}", f.0);
    let n_files = spec.sizes.len();
    let mut producer: Vec<Option<usize>> = vec![None; n_files];
    let (mut inputs, mut outputs) = (Vec::new(), Vec::new());
    for (t, (raw_in, raw_out)) in spec.tasks.iter().enumerate() {
        let ins = naive_dedup(raw_in);
        let outs = naive_dedup(raw_out);
        if let Some(&f) = outs.iter().find(|f| ins.contains(f)) {
            return Err(DagError::SelfLoop {
                task: format!("t{t}"),
                file: name(f),
            });
        }
        for &f in &outs {
            if let Some(first) = producer[f.index()] {
                return Err(DagError::DuplicateProducer {
                    file: name(f),
                    first: format!("t{first}"),
                    second: format!("t{t}"),
                });
            }
            producer[f.index()] = Some(t);
        }
        inputs.push(ins);
        outputs.push(outs);
    }
    let n = spec.tasks.len();
    let mut consumers = vec![Vec::new(); n_files];
    let mut parents = vec![Vec::new(); n];
    for (t, ins) in inputs.iter().enumerate() {
        for f in ins {
            consumers[f.index()].push(TaskId(t as u32));
            if let Some(p) = producer[f.index()] {
                parents[t].push(TaskId(p as u32));
            }
        }
    }
    for &(p, c) in &spec.control {
        parents[c as usize].push(TaskId(p));
    }
    let mut children = vec![Vec::new(); n];
    for row in &mut parents {
        row.sort();
        row.dedup();
    }
    for (c, row) in parents.iter().enumerate() {
        for p in row {
            children[p.index()].push(TaskId(c as u32));
        }
    }
    // Peel tasks whose parents are all gone until nothing moves; the first
    // task left over is the one a cycle error names.
    let mut done = vec![false; n];
    while let Some(t) = (0..n).find(|&t| !done[t] && parents[t].iter().all(|p| done[p.index()])) {
        done[t] = true;
    }
    if let Some(t) = done.iter().position(|d| !d) {
        return Err(DagError::Cycle {
            task: format!("t{t}"),
        });
    }
    let files = (0..n_files as u32).map(FileId);
    let external = files
        .clone()
        .filter(|f| producer[f.index()].is_none())
        .collect();
    let staged = files
        .filter(|f| {
            producer[f.index()].is_some()
                && (spec.deliverable.contains(&f.index()) || consumers[f.index()].is_empty())
        })
        .collect();
    Ok(Expected {
        inputs,
        outputs,
        consumers,
        parents,
        children,
        external,
        staged,
    })
}

/// Builds `spec` and checks every adjacency, file set and deduplicated
/// task list (or the error) against the reference. Returns the error
/// kind, if any, and whether any task read a file a later task produced.
fn check_against_reference(
    case: &str,
    spec: &Spec,
    rng: &mut Rng,
) -> (Option<mcloud_dag::DagError>, bool) {
    let got = build_spec(spec, rng);
    let want = reference(spec);
    let (wf, want) = match (got, want) {
        (Ok(wf), Ok(want)) => (wf, want),
        (Err(got), Err(want)) => {
            assert_eq!(got, want, "{case}: error differs");
            return (Some(got), false);
        }
        (got, want) => panic!(
            "{case}: builder gave {:?}, reference {:?}",
            got.err(),
            want.err()
        ),
    };
    let mut forward = false;
    for t in wf.task_ids() {
        let task = wf.task(t);
        assert_eq!(task.name, format!("t{}", t.0), "{case}: name of {t}");
        assert_eq!(
            task.module,
            format!("m{}", t.0 % 3),
            "{case}: module of {t}"
        );
        assert_eq!(task.inputs, want.inputs[t.index()], "{case}: inputs of {t}");
        assert_eq!(
            task.outputs,
            want.outputs[t.index()],
            "{case}: outputs of {t}"
        );
        assert_eq!(
            wf.parents(t),
            &want.parents[t.index()][..],
            "{case}: parents of {t}"
        );
        assert_eq!(
            wf.children(t),
            &want.children[t.index()][..],
            "{case}: children of {t}"
        );
        forward |= wf.parents(t).iter().any(|p| *p > t);
    }
    for f in wf.file_ids() {
        let meta = wf.file(f);
        assert_eq!(meta.name, format!("f{}", f.0), "{case}: name of {f}");
        assert_eq!(meta.bytes, spec.sizes[f.index()], "{case}: size of {f}");
        assert_eq!(
            meta.deliverable,
            spec.deliverable.contains(&f.index()),
            "{case}: deliverable flag of {f}"
        );
        assert_eq!(
            wf.consumers(f),
            &want.consumers[f.index()][..],
            "{case}: consumers of {f}"
        );
    }
    assert_eq!(
        wf.external_inputs(),
        &want.external[..],
        "{case}: external inputs"
    );
    assert_eq!(
        wf.staged_out_files(),
        &want.staged[..],
        "{case}: staged-out files"
    );
    (None, forward)
}

/// The builder's stamp dedup and counting-sort CSR give exactly what
/// list-scanning dedup and per-row sort give, on valid workflows and on
/// each kind of defect (the same file or task is named in the error), and
/// its name index answers every lookup as a `HashMap` would.
#[test]
fn builder_matches_naive_reference() {
    let (mut forward_refs, mut self_loops, mut dup_producers, mut cycles) = (0, 0, 0, 0);
    for case in 0..4 * CASES {
        let fault = [
            Fault::None,
            Fault::SelfLoop,
            Fault::DuplicateProducer,
            Fault::Cycle,
        ][case as usize % 4];
        let spec = random_spec(0xDA6_0009 ^ case, 0, fault);
        let mut probes = Rng(0xDA6_0019 ^ case);
        let (err, forward) = check_against_reference(&format!("case {case}"), &spec, &mut probes);
        forward_refs += forward as usize;
        match err {
            None => assert!(
                fault != Fault::SelfLoop,
                "case {case}: planted self-loop missed"
            ),
            Some(mcloud_dag::DagError::SelfLoop { .. }) => self_loops += 1,
            Some(mcloud_dag::DagError::DuplicateProducer { .. }) => dup_producers += 1,
            Some(mcloud_dag::DagError::Cycle { .. }) => cycles += 1,
            Some(other) => panic!("case {case}: unexpected error {other}"),
        }
    }
    // Every branch was exercised, not just reachable.
    for (what, count) in [
        ("forward file references", forward_refs),
        ("self-loops", self_loops),
        ("duplicate producers", dup_producers),
        ("cycles", cycles),
    ] {
        assert!(
            count >= CASES as usize / 4,
            "only {count} cases with {what}"
        );
    }
}

/// One task with over 10k input entries, a third of them repeats: the
/// shape of Montage's mConcatFit and mAdd at large mosaic sizes.
#[test]
fn builder_matches_naive_reference_with_a_huge_fan_in() {
    for case in 0..2 {
        let spec = random_spec(0xDA6_000A ^ case, 10_050, Fault::None);
        let big = spec
            .tasks
            .iter()
            .map(|(inputs, _)| inputs.len())
            .max()
            .unwrap();
        assert!(big >= 10_000, "case {case}: widest task reads {big}");
        let mut probes = Rng(0xDA6_001A ^ case);
        let (err, _) = check_against_reference(&format!("huge case {case}"), &spec, &mut probes);
        assert_eq!(err, None, "huge case {case}");
    }
}
