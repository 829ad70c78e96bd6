//! Struct-of-arrays engine state: the per-task, per-file, and per-processor
//! bookkeeping the simulation loop touches on every event, laid out as
//! parallel flat arrays indexed by [`TaskId`] / [`FileId`] / processor slot.
//!
//! At 16 degrees a Montage mosaic is ~49k tasks; the hot loops (readiness
//! propagation on task completion, the dispatch scan, transfer arrival
//! fan-out) each touch a handful of fields of many tasks in quick
//! succession. One array per field keeps those accesses on dense, separately
//! prefetchable cache lines, where a `Vec<TaskState>` of multi-field structs
//! (or worse, per-task heap nodes) drags every unused neighbor field through
//! the cache with each touch. That layout — not algorithmic complexity — is
//! what flattens the events/sec-vs-size curve the benchmark baseline gates.
//!
//! Everything here is plain data with `reset` methods that keep capacity, so
//! the warm-scratch batch path stays allocation-free.

use mcloud_dag::{FileId, TaskId, Workflow};
use mcloud_simkit::{EventId, SimTime};

use crate::config::SchedulePolicy;

/// Task flag: the task has entered the ready queue at least once (readiness
/// must fire exactly once per task per run).
pub(crate) const TASK_STARTED: u8 = 1 << 0;

/// File flag: the file is a final deliverable (staged out at the end of a
/// shared-storage run, so cleanup must not delete it early).
pub(crate) const FILE_STAGED_OUT: u8 = 1 << 0;

/// File flag: the file's bytes are currently counted in storage occupancy.
pub(crate) const FILE_IN_STORAGE: u8 = 1 << 1;

/// Per-task state as parallel arrays indexed by `TaskId::index()`.
///
/// `Clone`/`clone_from` exist for checkpointing: every column is a plain
/// `Vec` of `Copy` data, so a snapshot is a handful of memcpys and a
/// restore into a warm table reuses its buffers.
#[derive(Debug, Default)]
pub(crate) struct TaskTable {
    /// Parents not yet finished (readiness counter).
    pub pending_parents: Vec<u32>,
    /// Input transfers not yet landed (readiness counter).
    pub missing_inputs: Vec<u32>,
    /// [`TASK_STARTED`] and future state tags.
    pub flags: Vec<u8>,
    /// Failed attempts so far (retry budgeting and backoff growth).
    pub failures: Vec<u32>,
    /// When the task last became runnable (queue-wait statistics).
    pub ready_time: Vec<SimTime>,
    /// Scheduling priority: a unique permutation of `0..n` (lower runs
    /// first), which is what lets [`ReadySet`] replace a binary heap.
    pub priority: Vec<u64>,
    /// Total output bytes, precomputed so the dispatch storage-cap check
    /// is O(1).
    pub output_bytes: Vec<u64>,
    /// Bytes staged in for the current attempt (remote-I/O working set).
    pub staged_in_bytes: Vec<u64>,
    /// Private output transfers still in flight (remote I/O).
    pub outputs_remaining: Vec<u32>,
}

impl TaskTable {
    /// Rebuilds every column for a run of `wf` under `policy`, keeping
    /// capacity. Priorities are always a permutation of `0..n`:
    /// FIFO-by-id uses the identity, critical-path-first uses the rank of
    /// each task in descending bottom-level order (ties by id).
    pub fn reset(&mut self, wf: &Workflow, policy: SchedulePolicy) {
        let n = wf.num_tasks();
        self.pending_parents.clear();
        self.pending_parents
            .extend(wf.task_ids().map(|t| wf.parents(t).len() as u32));
        self.missing_inputs.clear();
        self.missing_inputs.resize(n, 0);
        self.flags.clear();
        self.flags.resize(n, 0);
        self.failures.clear();
        self.failures.resize(n, 0);
        self.ready_time.clear();
        self.ready_time.resize(n, SimTime::ZERO);
        self.priority.clear();
        match policy {
            SchedulePolicy::FifoById => self.priority.extend(0..n as u64),
            SchedulePolicy::CriticalPathFirst => {
                let bl = wf.bottom_levels();
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| bl[b].total_cmp(&bl[a]).then(a.cmp(&b)));
                self.priority.resize(n, 0);
                for (rank, &t) in order.iter().enumerate() {
                    self.priority[t] = rank as u64;
                }
            }
        }
        self.output_bytes.clear();
        self.output_bytes.extend(
            wf.task_ids()
                .map(|t| wf.outputs(t).iter().map(|f| wf.bytes(*f)).sum::<u64>()),
        );
        self.staged_in_bytes.clear();
        self.staged_in_bytes.resize(n, 0);
        self.outputs_remaining.clear();
        self.outputs_remaining.resize(n, 0);
    }

    #[inline]
    pub fn started(&self, t: TaskId) -> bool {
        self.flags[t.index()] & TASK_STARTED != 0
    }

    #[inline]
    pub fn mark_started(&mut self, t: TaskId) {
        self.flags[t.index()] |= TASK_STARTED;
    }
}

/// Per-file state as parallel arrays indexed by `FileId::index()`.
#[derive(Debug, Default)]
pub(crate) struct FileTable {
    /// Consumers that have not yet finished (dynamic-cleanup deletion).
    pub remaining_consumers: Vec<u32>,
    /// [`FILE_STAGED_OUT`] | [`FILE_IN_STORAGE`].
    pub flags: Vec<u8>,
}

impl FileTable {
    pub fn reset(&mut self, wf: &Workflow) {
        let nf = wf.num_files();
        self.remaining_consumers.clear();
        self.remaining_consumers
            .extend(wf.file_ids().map(|f| wf.consumers(f).len() as u32));
        self.flags.clear();
        self.flags.resize(nf, 0);
        for f in wf.staged_out_files() {
            self.flags[f.index()] |= FILE_STAGED_OUT;
        }
    }

    #[inline]
    pub fn is_staged_out(&self, f: FileId) -> bool {
        self.flags[f.index()] & FILE_STAGED_OUT != 0
    }

    #[inline]
    pub fn mark_in_storage(&mut self, f: FileId) {
        self.flags[f.index()] |= FILE_IN_STORAGE;
    }

    /// Clears the in-storage flag; returns whether it was set (i.e. whether
    /// the caller owes a storage free).
    #[inline]
    pub fn take_in_storage(&mut self, f: FileId) -> bool {
        let was = self.flags[f.index()] & FILE_IN_STORAGE != 0;
        self.flags[f.index()] &= !FILE_IN_STORAGE;
        was
    }
}

/// The ready queue as a two-level bitmap over priority ranks.
///
/// Priorities are a unique permutation of `0..n` (see
/// [`TaskTable::reset`]), so the binary-heap order `(priority, TaskId)` is
/// decided by priority alone: the minimum set bit *is* the task the heap
/// would pop. Replacing the heap changes no scheduling decision — it only
/// replaces log(n) pointer-hopping sift steps per push/pop with one or two
/// word writes, and the "find minimum" scan reads at most `n/4096 + 2`
/// consecutive words.
#[derive(Debug, Default)]
pub(crate) struct ReadySet {
    /// Bit per priority rank: set = that rank's task is ready.
    bits: Vec<u64>,
    /// Bit per `bits` word: set = that word is nonzero.
    summary: Vec<u64>,
    /// Rank -> task id (inverse of the priority permutation).
    task_of: Vec<u32>,
    /// Scan-start hint: every summary word before this index is zero
    /// (inserts lower it, `peek_min` advances it), so the min scan is
    /// O(1) amortized instead of restarting at word 0 per call.
    cursor: usize,
    len: usize,
}

impl ReadySet {
    /// Sizes the bitmap for `priority` (a permutation of `0..n`) and
    /// rebuilds the rank -> task map, keeping capacity.
    pub fn reset(&mut self, priority: &[u64]) {
        let n = priority.len();
        let words = n.div_ceil(64);
        self.bits.clear();
        self.bits.resize(words, 0);
        self.summary.clear();
        self.summary.resize(words.div_ceil(64), 0);
        self.task_of.clear();
        self.task_of.resize(n, 0);
        for (t, &p) in priority.iter().enumerate() {
            self.task_of[p as usize] = t as u32;
        }
        self.cursor = 0;
        self.len = 0;
    }

    /// Marks `rank` ready. Each task enters at most once between pops (the
    /// engine's `started` flag and retry protocol guarantee it), so a
    /// double insert is an engine bug.
    #[inline]
    pub fn insert(&mut self, rank: u64) {
        let (w, b) = (rank as usize / 64, rank % 64);
        debug_assert!(self.bits[w] & (1 << b) == 0, "task inserted twice");
        self.bits[w] |= 1 << b;
        self.summary[w / 64] |= 1 << (w % 64);
        self.cursor = self.cursor.min(w / 64);
        self.len += 1;
    }

    /// Unmarks `rank` (which must be set).
    #[inline]
    pub fn remove(&mut self, rank: u64) {
        let (w, b) = (rank as usize / 64, rank % 64);
        debug_assert!(self.bits[w] & (1 << b) != 0, "removed a non-ready task");
        self.bits[w] &= !(1 << b);
        if self.bits[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        self.len -= 1;
    }

    /// Number of ready tasks currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The highest-priority (lowest-rank) ready task, without removing it.
    #[inline]
    pub fn peek_min(&mut self) -> Option<(u64, TaskId)> {
        if self.len == 0 {
            return None;
        }
        for si in self.cursor..self.summary.len() {
            let s = self.summary[si];
            if s != 0 {
                self.cursor = si;
                let w = si * 64 + s.trailing_zeros() as usize;
                let rank = (w * 64) as u64 + self.bits[w].trailing_zeros() as u64;
                return Some((rank, TaskId(self.task_of[rank as usize])));
            }
        }
        unreachable!("positive len with an empty summary");
    }
}

/// What each processor slot is running, as parallel arrays indexed by
/// `ProcId` — the preemption path's victim lookup is one lane read instead
/// of an `Option<struct>` unwrap.
#[derive(Debug, Default)]
pub(crate) struct InFlightTable {
    /// Task occupying the slot (`u32::MAX` = idle).
    task: Vec<u32>,
    /// When the current attempt started.
    started: Vec<SimTime>,
    /// The attempt's pending finish event ([`EventId::NONE`] when idle).
    finish: Vec<EventId>,
}

/// Idle-slot sentinel for [`InFlightTable::task`].
const IDLE: u32 = u32::MAX;

impl InFlightTable {
    pub fn reset(&mut self, capacity: usize) {
        self.task.clear();
        self.task.resize(capacity, IDLE);
        self.started.clear();
        self.started.resize(capacity, SimTime::ZERO);
        self.finish.clear();
        self.finish.resize(capacity, EventId::NONE);
    }

    #[inline]
    pub fn occupy(&mut self, proc: usize, task: TaskId, started: SimTime, finish: EventId) {
        self.task[proc] = task.0;
        self.started[proc] = started;
        self.finish[proc] = finish;
    }

    #[inline]
    pub fn clear(&mut self, proc: usize) {
        self.task[proc] = IDLE;
        self.finish[proc] = EventId::NONE;
    }

    /// Vacates the slot, returning what was running (if anything).
    #[inline]
    pub fn take(&mut self, proc: usize) -> Option<(TaskId, SimTime, EventId)> {
        if self.task[proc] == IDLE {
            return None;
        }
        let out = (
            TaskId(self.task[proc]),
            self.started[proc],
            self.finish[proc],
        );
        self.clear(proc);
        Some(out)
    }
}

/// Expands to `Clone` with a buffer-reusing `clone_from` for a struct whose
/// fields are plain `Vec`s and scalars — the shape every table here has.
/// Derived `Clone` would work, but its default `clone_from` reallocates
/// every column; checkpoint recording recycles one snapshot buffer many
/// times per run, so the field-wise form keeps that path allocation-free.
macro_rules! impl_table_clone {
    ($ty:ident { vecs: [$($v:ident),* $(,)?], scalars: [$($s:ident),* $(,)?] }) => {
        impl Clone for $ty {
            fn clone(&self) -> Self {
                $ty {
                    $($v: self.$v.clone(),)*
                    $($s: self.$s,)*
                }
            }

            fn clone_from(&mut self, src: &Self) {
                $(self.$v.clone_from(&src.$v);)*
                $(self.$s = src.$s;)*
            }
        }
    };
}

impl_table_clone!(TaskTable {
    vecs: [
        pending_parents,
        missing_inputs,
        flags,
        failures,
        ready_time,
        priority,
        output_bytes,
        staged_in_bytes,
        outputs_remaining,
    ],
    scalars: []
});

impl_table_clone!(FileTable {
    vecs: [remaining_consumers, flags],
    scalars: []
});

impl_table_clone!(ReadySet {
    vecs: [bits, summary, task_of],
    scalars: [cursor, len]
});

impl_table_clone!(InFlightTable {
    vecs: [task, started, finish],
    scalars: []
});

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The bitmap pops exactly what a `BinaryHeap<Reverse<(priority, id)>>`
    /// would, over a randomized interleave of inserts and pops with a
    /// shuffled priority permutation.
    #[test]
    fn ready_set_matches_binary_heap() {
        let n = 500usize;
        // A fixed "random" permutation (multiplicative shuffle; 7 and 500
        // are coprime so this is a bijection).
        let priority: Vec<u64> = (0..n as u64).map(|t| (t * 7 + 3) % n as u64).collect();
        let mut set = ReadySet::default();
        set.reset(&priority);
        let mut heap: BinaryHeap<Reverse<(u64, TaskId)>> = BinaryHeap::new();
        let mut state = 0x9E37_79B9_u64;
        let mut next_task = 0usize;
        for _ in 0..4 * n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let push = state >> 33 & 1 == 0;
            if push && next_task < n {
                let t = TaskId(next_task as u32);
                heap.push(Reverse((priority[next_task], t)));
                set.insert(priority[next_task]);
                next_task += 1;
            } else {
                let want = heap.pop().map(|Reverse(x)| x);
                let got = set.peek_min();
                assert_eq!(got, want);
                if let Some((rank, _)) = got {
                    set.remove(rank);
                }
            }
        }
        while let Some(Reverse(want)) = heap.pop() {
            let got = set.peek_min().unwrap();
            assert_eq!(got, want);
            set.remove(got.0);
        }
        assert_eq!(set.peek_min(), None);
    }

    #[test]
    fn ready_set_reset_keeps_no_state() {
        let mut set = ReadySet::default();
        set.reset(&[0, 1, 2, 3]);
        set.insert(2);
        set.insert(0);
        set.reset(&[1, 0]);
        assert_eq!(set.peek_min(), None);
        set.insert(0);
        // Under the new permutation rank 0 belongs to task 1.
        assert_eq!(set.peek_min(), Some((0, TaskId(1))));
    }

    #[test]
    fn in_flight_slots_roundtrip() {
        let mut fl = InFlightTable::default();
        fl.reset(3);
        assert_eq!(fl.take(1), None);
        fl.occupy(1, TaskId(7), SimTime::from_micros(42), EventId::NONE);
        assert_eq!(
            fl.take(1),
            Some((TaskId(7), SimTime::from_micros(42), EventId::NONE))
        );
        assert_eq!(fl.take(1), None);
    }

    #[test]
    fn file_flags_take_semantics() {
        let mut files = FileTable {
            remaining_consumers: vec![0; 2],
            flags: vec![0; 2],
        };
        let f = FileId(1);
        assert!(!files.take_in_storage(f));
        files.mark_in_storage(f);
        assert!(files.take_in_storage(f));
        assert!(!files.take_in_storage(f));
        assert!(!files.is_staged_out(f));
    }
}
