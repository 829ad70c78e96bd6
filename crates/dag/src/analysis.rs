//! Graph analysis: topological order, levels, critical path, maximum
//! parallelism, and the paper's communication-to-computation ratio (CCR).

use crate::ids::TaskId;
use crate::workflow::Workflow;

/// Aggregate statistics for one transformation/module (e.g. all
/// `mProject` invocations), as produced by [`Workflow::module_summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleSummary {
    /// Module (transformation) name.
    pub module: String,
    /// Number of task invocations.
    pub tasks: usize,
    /// Sum of runtimes, seconds.
    pub total_runtime_s: f64,
    /// Mean runtime, seconds.
    pub mean_runtime_s: f64,
    /// Total bytes written by this module's tasks.
    pub output_bytes: u64,
}

/// Summary statistics of a workflow, as reported in the paper's Sections 5
/// and 6 (task counts, data volumes, CCR).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowStats {
    /// Number of tasks.
    pub tasks: usize,
    /// Number of distinct files.
    pub files: usize,
    /// Sum of task runtimes in seconds (the paper's `Σ r(v)`).
    pub total_runtime_s: f64,
    /// Sum of all file sizes in bytes (the paper's `Σ s(f)`).
    pub total_bytes: u64,
    /// Bytes of external inputs (staged in from the archive).
    pub external_input_bytes: u64,
    /// Bytes staged out to the user at the end of the run.
    pub staged_out_bytes: u64,
    /// Number of workflow levels (depth).
    pub depth: u32,
    /// Longest runtime-weighted path, in seconds.
    pub critical_path_s: f64,
    /// Maximum number of simultaneously running tasks with unlimited
    /// processors and free data movement.
    pub max_parallelism: usize,
}

impl Workflow {
    /// A deterministic topological order of the tasks (Kahn's algorithm;
    /// ties broken by ascending task id).
    pub fn topo_order(&self) -> Vec<TaskId> {
        let n = self.num_tasks();
        let mut indeg: Vec<usize> = self.task_ids().map(|t| self.parents(t).len()).collect();
        // Min-heap on task id for deterministic, id-ordered output.
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<TaskId>> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| std::cmp::Reverse(TaskId(i as u32)))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(t)) = ready.pop() {
            order.push(t);
            for &c in self.children(t) {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    ready.push(std::cmp::Reverse(c));
                }
            }
        }
        debug_assert_eq!(order.len(), n, "validated workflows are acyclic");
        order
    }

    /// The paper's level assignment: tasks with no parents are level 1; any
    /// other task is one plus the maximum level of its parents.
    pub fn levels(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.num_tasks()];
        for &t in &self.topo_order() {
            level[t.index()] = 1 + self
                .parents(t)
                .iter()
                .map(|p| level[p.index()])
                .max()
                .unwrap_or(0);
        }
        level
    }

    /// Number of levels (workflow depth).
    pub fn depth(&self) -> u32 {
        self.levels().into_iter().max().unwrap_or(0)
    }

    /// Histogram of tasks per level, indexed `[level - 1]`.
    pub fn level_widths(&self) -> Vec<usize> {
        let levels = self.levels();
        let depth = levels.iter().copied().max().unwrap_or(0) as usize;
        let mut widths = vec![0usize; depth];
        for l in levels {
            widths[(l - 1) as usize] += 1;
        }
        widths
    }

    /// Sum of task runtimes, in seconds — the denominator of the CCR and the
    /// CPU time billed under utilization-based (on-demand) charging.
    pub fn total_runtime_s(&self) -> f64 {
        self.task_ids().map(|t| self.runtime_s(t)).sum()
    }

    /// Sum of the sizes of every file used or produced, in bytes — the
    /// numerator (before dividing by bandwidth) of the CCR.
    pub fn total_bytes(&self) -> u64 {
        self.file_ids().map(|f| self.bytes(f)).sum()
    }

    /// Bytes of files with no producer (staged in from the archive).
    pub fn external_input_bytes(&self) -> u64 {
        self.external_inputs().iter().map(|f| self.bytes(*f)).sum()
    }

    /// Bytes of files staged out to the user at the end of the workflow.
    pub fn staged_out_bytes(&self) -> u64 {
        self.staged_out_files().iter().map(|f| self.bytes(*f)).sum()
    }

    /// The paper's communication-to-computation ratio:
    /// `CCR = (Σ s(f) / B) / Σ r(v)` with `B` in **bytes per second**.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec` is not positive/finite or the workflow has
    /// zero total runtime.
    pub fn ccr(&self, bytes_per_sec: f64) -> f64 {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "reference bandwidth must be positive, got {bytes_per_sec}"
        );
        let runtime = self.total_runtime_s();
        assert!(runtime > 0.0, "CCR undefined for zero total runtime");
        (self.total_bytes() as f64 / bytes_per_sec) / runtime
    }

    /// CCR with the reference bandwidth given in bits per second (the paper
    /// quotes its 10 Mbps link; GridSim's `B` is bytes/s, so divide by 8).
    pub fn ccr_at_link(&self, bits_per_sec: f64) -> f64 {
        self.ccr(bits_per_sec / 8.0)
    }

    /// Bottom level of every task: the runtime-weighted longest path from
    /// the task (inclusive) to any exit. The classic list-scheduling
    /// priority — tasks with large bottom levels sit on the critical path.
    pub fn bottom_levels(&self) -> Vec<f64> {
        let mut bl = vec![0f64; self.num_tasks()];
        for &t in self.topo_order().iter().rev() {
            let tail = self
                .children(t)
                .iter()
                .map(|c| bl[c.index()])
                .fold(0f64, f64::max);
            bl[t.index()] = self.runtime_s(t) + tail;
        }
        bl
    }

    /// Runtime-weighted longest path in seconds: a lower bound on the
    /// makespan of any schedule (with free data movement).
    pub fn critical_path_s(&self) -> f64 {
        let mut finish = vec![0f64; self.num_tasks()];
        for &t in &self.topo_order() {
            let ready = self
                .parents(t)
                .iter()
                .map(|p| finish[p.index()])
                .fold(0f64, f64::max);
            finish[t.index()] = ready + self.runtime_s(t);
        }
        finish.into_iter().fold(0f64, f64::max)
    }

    /// The tasks of a runtime-weighted longest path, root to exit, under
    /// the same ASAP schedule as [`Workflow::critical_path_s`].
    ///
    /// Ties are broken deterministically: the exit is the latest-finishing
    /// task with the lowest id, and each step walks back to the parent with
    /// the latest finish (lowest id on ties) — exactly the parent whose
    /// completion gated the child's start. This matches how a trace
    /// profiler reconstructs the *observed* critical path from an
    /// uncontended run, which is what makes the two comparable.
    pub fn critical_path_tasks(&self) -> Vec<TaskId> {
        if self.num_tasks() == 0 {
            return Vec::new();
        }
        let mut finish = vec![0f64; self.num_tasks()];
        for &t in &self.topo_order() {
            let ready = self
                .parents(t)
                .iter()
                .map(|p| finish[p.index()])
                .fold(0f64, f64::max);
            finish[t.index()] = ready + self.runtime_s(t);
        }
        let mut cur = TaskId(0);
        for t in self.task_ids() {
            if finish[t.index()] > finish[cur.index()] {
                cur = t;
            }
        }
        let mut path = vec![cur];
        loop {
            let parents = self.parents(cur);
            let Some(&first) = parents.first() else { break };
            let mut binding = first;
            for &p in &parents[1..] {
                if finish[p.index()] > finish[binding.index()] {
                    binding = p;
                }
            }
            path.push(binding);
            cur = binding;
        }
        path.reverse();
        path
    }

    /// Maximum number of tasks running simultaneously under an unlimited
    /// processor pool with instantaneous data movement (an ASAP schedule).
    ///
    /// This is the quantity the paper calls "the maximum parallelism of the
    /// workflow" (610 for the 4-degree mosaic): provisioning more
    /// processors than this can never help.
    pub fn max_parallelism(&self) -> usize {
        let mut start = vec![0f64; self.num_tasks()];
        let mut finish = vec![0f64; self.num_tasks()];
        for &t in &self.topo_order() {
            let ready = self
                .parents(t)
                .iter()
                .map(|p| finish[p.index()])
                .fold(0f64, f64::max);
            start[t.index()] = ready;
            finish[t.index()] = ready + self.runtime_s(t);
        }
        // Sweep start/finish events; at equal instants process finishes
        // first so that back-to-back tasks do not count as concurrent.
        let mut events: Vec<(f64, i32)> = Vec::with_capacity(self.num_tasks() * 2);
        for i in 0..self.num_tasks() {
            events.push((start[i], 1));
            events.push((finish[i], -1));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut cur = 0i64;
        let mut peak = 0i64;
        for (_, d) in events {
            cur += d as i64;
            peak = peak.max(cur);
        }
        peak as usize
    }

    /// Number of task-level dependency edges (deduplicated).
    pub fn edge_count(&self) -> usize {
        self.task_ids().map(|t| self.parents(t).len()).sum()
    }

    /// Mean number of consumers per produced-or-external file that has any
    /// consumer — the data-reuse factor. Montage's shared header and the
    /// doubly-consumed projections push this above 1; remote I/O pays for
    /// every unit of it with repeated transfers.
    pub fn data_reuse_factor(&self) -> f64 {
        let consumed: Vec<usize> = self
            .file_ids()
            .map(|f| self.consumers(f).len())
            .filter(|&c| c > 0)
            .collect();
        if consumed.is_empty() {
            return 0.0;
        }
        consumed.iter().sum::<usize>() as f64 / consumed.len() as f64
    }

    /// Largest fan-in (inputs feeding one task) and fan-out (tasks reading
    /// one file), as `(max_fan_in, max_fan_out)`.
    pub fn max_fan(&self) -> (usize, usize) {
        let fan_in = self
            .task_ids()
            .map(|t| self.inputs(t).len())
            .max()
            .unwrap_or(0);
        let fan_out = self
            .file_ids()
            .map(|f| self.consumers(f).len())
            .max()
            .unwrap_or(0);
        (fan_in, fan_out)
    }

    /// Per-module aggregates, in order of first appearance — for Montage
    /// this reads as the pipeline: mProject, mDiffFit, mConcatFit, ...
    pub fn module_summary(&self) -> Vec<ModuleSummary> {
        let mut order: Vec<String> = Vec::new();
        let mut agg: std::collections::HashMap<&str, (usize, f64, u64)> =
            std::collections::HashMap::new();
        for task in self.tasks() {
            let entry = agg.entry(task.module).or_insert_with(|| {
                order.push(task.module.to_string());
                (0, 0.0, 0)
            });
            entry.0 += 1;
            entry.1 += task.runtime_s;
            entry.2 += task.outputs.iter().map(|f| self.bytes(*f)).sum::<u64>();
        }
        order
            .into_iter()
            .map(|module| {
                let (tasks, total, bytes) = agg[module.as_str()];
                ModuleSummary {
                    tasks,
                    total_runtime_s: total,
                    mean_runtime_s: total / tasks as f64,
                    output_bytes: bytes,
                    module,
                }
            })
            .collect()
    }

    /// Gathers the whole summary in one pass-friendly struct.
    pub fn stats(&self) -> WorkflowStats {
        WorkflowStats {
            tasks: self.num_tasks(),
            files: self.num_files(),
            total_runtime_s: self.total_runtime_s(),
            total_bytes: self.total_bytes(),
            external_input_bytes: self.external_input_bytes(),
            staged_out_bytes: self.staged_out_bytes(),
            depth: self.depth(),
            critical_path_s: self.critical_path_s(),
            max_parallelism: self.max_parallelism(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::fixtures;
    use crate::ids::TaskId;

    #[test]
    fn topo_order_respects_edges() {
        let wf = fixtures::figure3();
        let order = wf.topo_order();
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, t)| (*t, i)).collect();
        for t in wf.task_ids() {
            for p in wf.parents(t) {
                assert!(pos[p] < pos[&t], "{p} must precede {t}");
            }
        }
    }

    #[test]
    fn levels_match_paper_definition() {
        let wf = fixtures::figure3();
        // Figure 3: t0 level 1; t1,t2 level 2; t3,t4,t5 level 3; t6 level 4.
        assert_eq!(wf.levels(), vec![1, 2, 2, 3, 3, 3, 4]);
        assert_eq!(wf.depth(), 4);
        assert_eq!(wf.level_widths(), vec![1, 2, 3, 1]);
    }

    #[test]
    fn critical_path_of_figure3() {
        let wf = fixtures::figure3();
        // Four levels of 10 s tasks.
        assert!((wf.critical_path_s() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_tasks_sum_to_critical_path() {
        let wf = fixtures::figure3();
        let path = wf.critical_path_tasks();
        // A real root-to-exit chain...
        assert!(wf.parents(path[0]).is_empty());
        for w in path.windows(2) {
            assert!(wf.parents(w[1]).contains(&w[0]));
        }
        // ...whose runtimes sum to the critical path length.
        let sum: f64 = path.iter().map(|&t| wf.task(t).runtime_s).sum();
        assert!((sum - wf.critical_path_s()).abs() < 1e-9);
        // Equal 10 s tasks everywhere: lowest-id tie-breaks pick t0-t1-t3-t6.
        assert_eq!(path, vec![TaskId(0), TaskId(1), TaskId(3), TaskId(6)]);
    }

    #[test]
    fn critical_path_tasks_of_chain_is_the_chain() {
        let wf = fixtures::chain(5, 2.0, 10);
        let path = wf.critical_path_tasks();
        assert_eq!(path.len(), 5);
        assert_eq!(path[0], TaskId(0));
        assert_eq!(path[4], TaskId(4));
    }

    #[test]
    fn max_parallelism_of_figure3() {
        let wf = fixtures::figure3();
        // Level 3 holds three equal-length tasks that all start together.
        assert_eq!(wf.max_parallelism(), 3);
    }

    #[test]
    fn max_parallelism_of_chain_is_one() {
        let wf = fixtures::chain(10, 5.0, 100);
        assert_eq!(wf.max_parallelism(), 1);
        assert!((wf.critical_path_s() - 50.0).abs() < 1e-9);
        assert_eq!(wf.depth(), 10);
    }

    #[test]
    fn back_to_back_tasks_are_not_concurrent() {
        // In a pure chain, a child starting exactly when its parent finishes
        // must not be double-counted.
        let wf = fixtures::chain(2, 1.0, 10);
        assert_eq!(wf.max_parallelism(), 1);
    }

    #[test]
    fn ccr_formula() {
        let wf = fixtures::figure3();
        // 9 files x 1000 bytes, 7 tasks x 10 s, B = 1000 bytes/s:
        // CCR = (9000/1000) / 70 = 9/70.
        let ccr = wf.ccr(1000.0);
        assert!((ccr - 9.0 / 70.0).abs() < 1e-12);
        // Link form: 8000 bits/s == 1000 bytes/s.
        assert!((wf.ccr_at_link(8000.0) - ccr).abs() < 1e-15);
    }

    #[test]
    fn ccr_scales_with_file_sizes() {
        let mut wf = fixtures::figure3();
        let before = wf.ccr(1000.0);
        wf.scale_file_sizes(2.0);
        let after = wf.ccr(1000.0);
        assert!((after - 2.0 * before).abs() < 1e-9);
    }

    #[test]
    fn stats_aggregates_consistently() {
        let wf = fixtures::figure3();
        let s = wf.stats();
        assert_eq!(s.tasks, 7);
        assert_eq!(s.files, 9);
        assert_eq!(s.total_bytes, 9000);
        assert!((s.total_runtime_s - 70.0).abs() < 1e-9);
        assert_eq!(s.external_input_bytes, 1000); // file a
        assert_eq!(s.staged_out_bytes, 2000); // g and h
        assert_eq!(s.depth, 4);
        assert_eq!(s.max_parallelism, 3);
    }

    #[test]
    fn graph_metrics_of_figure3() {
        let wf = fixtures::figure3();
        // Edges: t0->{t1,t2}, t1->{t3,t4}, t2->t5, {t3,t4,t5}->t6 = 8.
        assert_eq!(wf.edge_count(), 8);
        // Consumed files: a(1), b(2), c1(2), c2(1), d(1), e(1), f(1) ->
        // mean 9/7.
        assert!((wf.data_reuse_factor() - 9.0 / 7.0).abs() < 1e-12);
        // t6 reads three files; b and c1 each feed two tasks.
        assert_eq!(wf.max_fan(), (3, 2));
    }

    #[test]
    fn montage_reuse_exceeds_one() {
        let wf = crate::fixtures::mini_montage();
        assert!(wf.data_reuse_factor() >= 1.0);
        let (fan_in, _) = wf.max_fan();
        assert_eq!(fan_in, 2); // mAdd reads both projections
    }

    #[test]
    fn module_summary_aggregates_in_first_appearance_order() {
        let wf = fixtures::mini_montage();
        let summary = wf.module_summary();
        let modules: Vec<&str> = summary.iter().map(|m| m.module.as_str()).collect();
        assert_eq!(modules, vec!["mProject", "mAdd", "mShrink"]);
        let proj = &summary[0];
        assert_eq!(proj.tasks, 2);
        assert!((proj.total_runtime_s - 200.0).abs() < 1e-9);
        assert!((proj.mean_runtime_s - 100.0).abs() < 1e-9);
        assert_eq!(proj.output_bytes, 16_000_000);
        let total: usize = summary.iter().map(|m| m.tasks).sum();
        assert_eq!(total, wf.num_tasks());
    }

    #[test]
    fn bottom_levels_of_figure3() {
        let wf = fixtures::figure3();
        let bl = wf.bottom_levels();
        // t6 is an exit: bl = 10; t3/t4/t5 feed it: 20; t1/t2: 30; t0: 40.
        assert_eq!(bl, vec![40.0, 30.0, 30.0, 20.0, 20.0, 20.0, 10.0]);
        // The maximum bottom level IS the critical path.
        let max = bl.iter().fold(0f64, |a, &b| a.max(b));
        assert!((max - wf.critical_path_s()).abs() < 1e-9);
    }

    #[test]
    fn bottom_levels_decrease_along_edges() {
        let wf = fixtures::figure3();
        let bl = wf.bottom_levels();
        for t in wf.task_ids() {
            for c in wf.children(t) {
                assert!(bl[t.index()] > bl[c.index()]);
            }
        }
    }

    #[test]
    fn level_one_tasks_have_no_parents() {
        let wf = fixtures::figure3();
        let levels = wf.levels();
        for t in wf.task_ids() {
            if levels[t.index()] == 1 {
                assert!(wf.parents(t).is_empty());
            }
        }
        assert_eq!(levels[TaskId(0).index()], 1);
    }
}
