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
//! Everything here is per-run mutable state: plain data whose `reset`
//! methods are memsets that keep capacity, so the warm-scratch batch path
//! stays allocation-free. What depends only on the workflow (priorities,
//! parent counts, output sizes, cleanup thresholds) is in
//! [`PreparedWorkflow`](crate::PreparedWorkflow), and the readiness
//! counters count up toward its totals.

use mcloud_dag::{FileId, TaskId};
use mcloud_simkit::{EventId, SimTime};

use crate::config::DataMode;

/// Per-task state as parallel arrays indexed by `TaskId::index()`.
///
/// `Clone`/`clone_from` exist for checkpointing: every column is a plain
/// `Vec` of `Copy` data, so a snapshot is a handful of memcpys and a
/// restore into a warm table reuses its buffers.
#[derive(Debug, Default)]
pub(crate) struct TaskTable {
    /// Parents finished so far; the task may run once this reaches its
    /// parent count.
    pub parents_done: Vec<u32>,
    /// Input transfers not yet landed (readiness counter).
    pub missing_inputs: Vec<u32>,
    /// Whether the task has entered the ready queue (readiness must fire
    /// exactly once per task per run).
    pub started: Vec<bool>,
    /// Failed attempts so far (retry budgeting and backoff growth).
    pub failures: Vec<u32>,
    /// When the task last became runnable (queue-wait statistics).
    pub ready_time: Vec<SimTime>,
    /// Bytes staged in for the current attempt (remote-I/O working set;
    /// empty in the other modes).
    pub staged_in_bytes: Vec<u64>,
    /// Private output transfers still in flight (remote I/O; empty in the
    /// other modes).
    pub outputs_remaining: Vec<u32>,
}

impl TaskTable {
    /// Zeroes every column a run of `n` tasks in `mode` uses, keeping
    /// capacity; the remote-I/O columns stay empty in the other modes.
    pub fn reset(&mut self, n: usize, mode: DataMode) {
        let remote = if mode == DataMode::RemoteIo { n } else { 0 };
        zero(&mut self.parents_done, n);
        zero(&mut self.missing_inputs, n);
        zero(&mut self.started, n);
        zero(&mut self.failures, n);
        zero(&mut self.ready_time, n);
        zero(&mut self.staged_in_bytes, remote);
        zero(&mut self.outputs_remaining, remote);
    }
}

/// Per-file state as parallel arrays indexed by `FileId::index()`.
#[derive(Debug, Default)]
pub(crate) struct FileTable {
    /// Consumers finished so far (dynamic-cleanup deletion fires when
    /// this reaches the file's consumer count; empty in the other modes).
    pub consumers_done: Vec<u32>,
    /// Whether the file's bytes are currently counted in storage
    /// occupancy (shared-storage modes; remote I/O charges storage per
    /// task, so it stays empty there).
    in_storage: Vec<bool>,
}

impl FileTable {
    /// Zeroes every column a run of `n` files in `mode` uses, keeping
    /// capacity.
    pub fn reset(&mut self, n: usize, mode: DataMode) {
        let cleanup = if mode == DataMode::DynamicCleanup {
            n
        } else {
            0
        };
        let shared = if mode == DataMode::RemoteIo { 0 } else { n };
        zero(&mut self.consumers_done, cleanup);
        zero(&mut self.in_storage, shared);
    }

    #[inline]
    pub fn mark_in_storage(&mut self, f: FileId) {
        self.in_storage[f.index()] = true;
    }

    /// Clears the in-storage flag; returns whether it was set (i.e. whether
    /// the caller owes a storage free).
    #[inline]
    pub fn take_in_storage(&mut self, f: FileId) -> bool {
        std::mem::take(&mut self.in_storage[f.index()])
    }
}

/// Sets `column` to `n` default values (zeroes, `false`s, `SimTime::ZERO`)
/// in place: a memset that keeps the column's capacity.
fn zero<T: Copy + Default>(column: &mut Vec<T>, n: usize) {
    column.clear();
    column.resize(n, T::default());
}

/// The ready queue as a two-level bitmap over priority ranks.
///
/// Ranks are a unique permutation of `0..n` (see
/// [`PreparedWorkflow`](crate::PreparedWorkflow)), so the binary-heap order
/// `(rank, TaskId)` is decided by rank alone: the minimum set bit *is* the
/// task the heap would pop. Replacing the heap changes no scheduling
/// decision — it only replaces log(n) pointer-hopping sift steps per
/// push/pop with one or two word writes, and the "find minimum" scan reads
/// at most `n/4096 + 2` consecutive words. The rank -> task map is the
/// prepared workflow's; the set holds ranks only.
#[derive(Debug, Default)]
pub(crate) struct ReadySet {
    /// Bit per priority rank: set = that rank's task is ready.
    bits: Vec<u64>,
    /// Bit per `bits` word: set = that word is nonzero.
    summary: Vec<u64>,
    /// Scan-start hint: every summary word before this index is zero
    /// (inserts lower it, `peek_min` advances it), so the min scan is
    /// O(1) amortized instead of restarting at word 0 per call.
    cursor: usize,
    len: usize,
}

impl ReadySet {
    /// Empties the set and sizes it for ranks `0..n`, keeping capacity.
    pub fn reset(&mut self, n: usize) {
        let words = n.div_ceil(64);
        zero(&mut self.bits, words);
        zero(&mut self.summary, words.div_ceil(64));
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

    /// The lowest ready rank, without removing it.
    #[inline]
    pub fn peek_min(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        for si in self.cursor..self.summary.len() {
            let s = self.summary[si];
            if s != 0 {
                self.cursor = si;
                let w = si * 64 + s.trailing_zeros() as usize;
                return Some((w * 64) as u64 + self.bits[w].trailing_zeros() as u64);
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
        zero(&mut self.started, capacity);
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
        parents_done,
        missing_inputs,
        started,
        failures,
        ready_time,
        staged_in_bytes,
        outputs_remaining,
    ],
    scalars: []
});

impl_table_clone!(FileTable {
    vecs: [consumers_done, in_storage],
    scalars: []
});

impl_table_clone!(ReadySet {
    vecs: [bits, summary],
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

    /// The bitmap pops exactly what a `BinaryHeap<Reverse<rank>>` would,
    /// over a randomized interleave of inserts and pops of a shuffled rank
    /// permutation.
    #[test]
    fn ready_set_matches_binary_heap() {
        let n = 500usize;
        // A fixed "random" permutation (multiplicative shuffle; 7 and 500
        // are coprime so this is a bijection).
        let rank: Vec<u64> = (0..n as u64).map(|t| (t * 7 + 3) % n as u64).collect();
        let mut set = ReadySet::default();
        set.reset(n);
        let mut heap: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        let mut state = 0x9E37_79B9_u64;
        let mut next_task = 0usize;
        for _ in 0..4 * n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let push = state >> 33 & 1 == 0;
            if push && next_task < n {
                heap.push(Reverse(rank[next_task]));
                set.insert(rank[next_task]);
                next_task += 1;
            } else {
                let want = heap.pop().map(|Reverse(x)| x);
                let got = set.peek_min();
                assert_eq!(got, want);
                if let Some(r) = got {
                    set.remove(r);
                }
            }
        }
        while let Some(Reverse(want)) = heap.pop() {
            let got = set.peek_min().unwrap();
            assert_eq!(got, want);
            set.remove(got);
        }
        assert_eq!(set.peek_min(), None);
    }

    #[test]
    fn ready_set_reset_keeps_no_state() {
        let mut set = ReadySet::default();
        set.reset(4);
        set.insert(2);
        set.insert(0);
        set.reset(2);
        assert_eq!(set.peek_min(), None);
        assert_eq!(set.len(), 0);
        set.insert(1);
        assert_eq!(set.peek_min(), Some(1));
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
        let mut files = FileTable::default();
        files.reset(2, DataMode::Regular);
        let f = FileId(1);
        assert!(!files.take_in_storage(f));
        files.mark_in_storage(f);
        assert!(files.take_in_storage(f));
        assert!(!files.take_in_storage(f));
        files.mark_in_storage(f);
        files.reset(2, DataMode::Regular);
        assert!(!files.take_in_storage(f), "reset left a file in storage");
    }
}
