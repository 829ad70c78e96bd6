//! A persistent chunk-stealing worker pool for deterministic fan-out.
//!
//! Sweeps and batch simulations fan independent, pure computations out
//! across cores. The pool here is created once — lazily, on the first
//! parallel call — and reused for every subsequent fan-out in the
//! process, so a fan-out pays a condvar broadcast, not a thread spawn.
//!
//! That is measured to matter at the smallest fan-outs, `mcloud serve`
//! batch frames. Against a safe `std::thread::scope` fan-out with the same
//! atomic chunk dispenser (both in one `rustc -O` binary, 2 lanes, 8 items
//! per call, medians of 10 alternating rounds on a 2-vCPU host), the fixed
//! cost per fan-out was 16 µs against 49 µs with no work per item, and
//! 46 µs against 99 µs with 1 ms idle between calls. Eight 25 µs items
//! (a 1° batch frame) took 120 µs against 157 µs; eight 130 µs items (a
//! 2° frame) with idle gaps still took 12% longer on scoped threads. See
//! EXPERIMENTS.md §Worker-count scaling for the recipe.
//!
//! Results are slotted by input index, so the output vector is
//! byte-identical to a sequential run regardless of how many lanes exist
//! or how the OS schedules them. Work is handed out through an atomic
//! chunk dispenser (dynamic load balancing; sweep points vary widely in
//! cost), which affects only *which lane* computes an item, never the
//! result or its position.
//!
//! Lane count comes from the `MCLOUD_WORKERS` environment variable when
//! set (read once per process), else from [`std::thread::available_parallelism`].
//! With one lane — or one item — calls run inline on the caller thread
//! and the pool is never created: degenerate inputs cost zero spawns.
//!
//! ## Why `unsafe` is confined here
//!
//! A persistent pool must hand borrowed closures (`&dyn Fn`) to threads
//! that outlive the borrow, which requires erasing the closure's lifetime
//! (the same technique rayon uses). Soundness is restored by a strict
//! completion barrier: `run` does not return until every lane has
//! finished the job, so the erased reference never outlives the frame
//! that owns the closure. This is the one module in the kernel allowed to
//! use `unsafe`; everything else remains `#[deny(unsafe_code)]`-clean.

#![allow(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Locks ignoring poison: a panicking job unwinds through `run` after the
/// barrier has already restored every invariant (`job` cleared, `active`
/// zero), so a poisoned pool mutex carries no broken state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Indices handed to a lane per `fetch_add` in the default configuration.
/// Small enough that tail imbalance is at most `CHUNK - 1` cheap points
/// per lane, large enough to divide dispenser contention by `CHUNK`.
const CHUNK: usize = 4;

/// Process-wide lane count, resolved once: `MCLOUD_WORKERS` when set to a
/// positive integer, else the machine's available parallelism. Reading it
/// never creates the pool.
pub fn configured_lanes() -> usize {
    static LANES: OnceLock<usize> = OnceLock::new();
    *LANES.get_or_init(|| {
        match std::env::var("MCLOUD_WORKERS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => n,
                // An unparsable override falls back to the hardware.
                _ => default_lanes(),
            },
            Err(_) => default_lanes(),
        }
    })
}

fn default_lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

thread_local! {
    /// True on pool worker threads (and on a caller thread while it is
    /// acting as lane 0). Nested parallel calls run inline instead of
    /// deadlocking on the submit lock.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// A type-erased job: lane index in, unit out. Stored as a raw pointer so
/// it can sit in shared state; the completion barrier keeps it valid.
#[derive(Clone, Copy)]
struct JobRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-callable from any thread) and the
// submit barrier guarantees it outlives every use.
unsafe impl Send for JobRef {}

struct PoolState {
    /// Incremented per submitted job; workers run one job per epoch.
    epoch: u64,
    job: Option<JobRef>,
    /// Lanes still working on the current epoch (workers only; the caller
    /// tracks itself).
    active: usize,
    /// First panic payload raised by a worker lane this epoch.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signals workers that a new epoch (or shutdown) is available.
    work: Condvar,
    /// Signals the caller that `active` reached zero.
    done: Condvar,
    /// Per-lane self-telemetry counters (index = lane number).
    stats: Vec<LaneCounters>,
}

/// Per-lane atomic counters behind [`LaneStats`]. Relaxed ordering: these
/// are totals read at quiescent points, never synchronization.
#[derive(Default)]
struct LaneCounters {
    items: AtomicU64,
    chunks: AtomicU64,
    busy_ns: AtomicU64,
}

/// A snapshot of one lane's lifetime work counters.
///
/// `items` and `chunks` describe how the atomic dispenser actually split
/// the work; `busy_ns` is host wall-clock time spent inside jobs. All
/// three are **scheduling-dependent** — which lane computes an item is a
/// race by design — so they belong to the wall-clock metric class
/// ([`crate::MetricClass::WallClock`]) and must never enter a golden.
/// Only their invariants are stable: items sum to the submitted total,
/// and results are identical however the counts land.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneStats {
    /// Lane number (0 = the caller's lane).
    pub lane: usize,
    /// Items this lane computed across all jobs.
    pub items: u64,
    /// Dispenser chunks this lane claimed.
    pub chunks: u64,
    /// Wall-clock nanoseconds spent executing jobs.
    pub busy_ns: u64,
}

/// A persistent pool of `lanes` worker lanes (the caller participates as
/// lane 0, so `lanes - 1` OS threads are spawned). See the module docs
/// for the determinism and lifetime story.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Serializes independent caller threads: one job in flight at a time.
    submit: Mutex<()>,
    lanes: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// When the pool was created; [`WorkerPool::uptime_ns`] measures from
    /// here so idle time can be derived as uptime minus busy.
    created: Instant,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("lanes", &self.lanes)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool with `lanes` total lanes (`lanes - 1` spawned
    /// threads; the submitting thread is always lane 0). A one-lane pool
    /// spawns nothing and runs every job inline.
    ///
    /// # Panics
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes >= 1, "a worker pool needs at least one lane");
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            stats: (0..lanes).map(|_| LaneCounters::default()).collect(),
        });
        let handles = (1..lanes)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mcloud-worker-{lane}"))
                    .spawn(move || worker_loop(&shared, lane))
                    .expect("failed to spawn a pool worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            submit: Mutex::new(()),
            lanes,
            handles,
            created: Instant::now(),
        }
    }

    /// The process-wide pool, created on first use with
    /// [`configured_lanes`] lanes. Degenerate calls (one lane, one item)
    /// never reach this, so single-threaded processes never spawn.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            GLOBAL_INIT.store(true, Ordering::Release);
            WorkerPool::new(configured_lanes())
        })
    }

    /// True when [`WorkerPool::global`] has been created — i.e. some call
    /// actually fanned out. Degenerate-path tests assert this stays
    /// `false`.
    pub fn global_initialized() -> bool {
        GLOBAL_INIT.load(Ordering::Acquire)
    }

    /// Total lanes, including the caller's lane 0.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Applies `f` to every item, in parallel across the pool's lanes,
    /// returning results in input order. Panics from `f` propagate to the
    /// caller. Runs inline (no broadcast) when the pool has one lane, the
    /// input has at most one item, or the call is nested inside another
    /// pool job.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_chunk(items, chunk_for(items.len(), self.lanes), f)
    }

    /// [`WorkerPool::map`] with an explicit dispenser chunk size. The
    /// chunk size affects only which lane computes an item — results are
    /// identical for every `chunk >= 1` (asserted in tests).
    ///
    /// # Panics
    /// Panics if `chunk == 0`.
    fn map_chunk<T, R, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let mut states = vec![(); self.lanes];
        self.map_with_state_chunk(&mut states, items, chunk, |(), item| f(item))
    }

    /// Like [`WorkerPool::map`], but each lane additionally borrows one
    /// long-lived state value: lane `l` passes `&mut states[l]` to every
    /// call it makes, and no other lane touches that element. This is the
    /// scratch-reuse primitive batch simulation builds on: the state
    /// holds a lane's reusable buffers across all the items it computes.
    ///
    /// Results must not depend on the incoming state (beyond capacity
    /// reuse), because which lane computes which item is scheduling-
    /// dependent; determinism of the output is the caller's contract.
    ///
    /// # Panics
    /// Panics if `states.len() < self.lanes()` (the inline path still
    /// requires at least one state).
    pub fn map_with_state<S, T, R, F>(&self, states: &mut [S], items: &[T], f: F) -> Vec<R>
    where
        S: Send,
        T: Sync,
        R: Send,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        self.map_with_state_chunk(states, items, chunk_for(items.len(), self.lanes), f)
    }

    /// [`WorkerPool::map_with_state`] with an explicit dispenser chunk
    /// size (results are chunk-independent; see `map_chunk`).
    ///
    /// # Panics
    /// Panics if `chunk == 0` or `states` is shorter than the lane count.
    fn map_with_state_chunk<S, T, R, F>(
        &self,
        states: &mut [S],
        items: &[T],
        chunk: usize,
        f: F,
    ) -> Vec<R>
    where
        S: Send,
        T: Sync,
        R: Send,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        assert!(chunk >= 1, "chunk size must be at least 1");
        let n = items.len();
        if self.run_inline(n) {
            let state = states.first_mut().expect("need at least one lane state");
            let t0 = Instant::now();
            let out = items.iter().map(|item| f(state, item)).collect();
            self.count_inline(n, t0);
            return out;
        }
        assert!(
            states.len() >= self.lanes,
            "need one state per lane: {} states for {} lanes",
            states.len(),
            self.lanes
        );
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let slots = SlotPtr(out.as_mut_ptr());
        let lane_states = SlotPtr(states.as_mut_ptr());
        let next = AtomicUsize::new(0);
        self.run(&|lane| {
            // SAFETY: lane indices are unique per job (lane 0 is the
            // caller, 1.. are workers), so each lane holds the only
            // reference to its element for the whole job.
            let state = unsafe { &mut *lane_states.slot(lane) };
            let counters = &self.shared.stats[lane];
            loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                counters.chunks.fetch_add(1, Ordering::Relaxed);
                counters
                    .items
                    .fetch_add((end - start) as u64, Ordering::Relaxed);
                for (off, item) in items[start..end].iter().enumerate() {
                    let r = f(state, item);
                    // SAFETY: the dispenser hands out each index exactly
                    // once, so writes to slots are disjoint; the barrier
                    // in `run` orders them before the reads below.
                    unsafe { *slots.slot(start + off) = Some(r) };
                }
            }
        });
        out.into_iter()
            .map(|r| r.expect("pool lane dropped an item"))
            .collect()
    }

    /// True when this call should run inline on the caller thread: one
    /// lane, at most one item, or already inside a pool job.
    fn run_inline(&self, n: usize) -> bool {
        self.lanes == 1 || n <= 1 || IN_POOL.with(Cell::get)
    }

    /// Books an inline (non-broadcast) call against lane 0's counters.
    fn count_inline(&self, n: usize, started: Instant) {
        let counters = &self.shared.stats[0];
        if n > 0 {
            counters.chunks.fetch_add(1, Ordering::Relaxed);
            counters.items.fetch_add(n as u64, Ordering::Relaxed);
        }
        counters
            .busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Snapshots every lane's lifetime counters (index = lane number).
    /// Exact when the pool is quiescent; during a job the counts are a
    /// consistent-enough progress read (relaxed atomics, totals only).
    pub fn lane_stats(&self) -> Vec<LaneStats> {
        self.shared
            .stats
            .iter()
            .enumerate()
            .map(|(lane, c)| LaneStats {
                lane,
                items: c.items.load(Ordering::Relaxed),
                chunks: c.chunks.load(Ordering::Relaxed),
                busy_ns: c.busy_ns.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Wall-clock nanoseconds since the pool was created. Idle time of a
    /// lane is this minus its [`LaneStats::busy_ns`].
    pub fn uptime_ns(&self) -> u64 {
        self.created.elapsed().as_nanos() as u64
    }

    /// The pool's self-telemetry as a metrics [`Registry`] — every series
    /// [`MetricClass::WallClock`], because which lane computed what is a
    /// scheduling race by design. [`Registry::prometheus_text`] therefore
    /// renders none of it; use [`Registry::prometheus_text_all`] for
    /// operator-facing dumps and keep these out of goldens.
    ///
    /// [`Registry`]: crate::Registry
    /// [`Registry::prometheus_text`]: crate::Registry::prometheus_text
    /// [`Registry::prometheus_text_all`]: crate::Registry::prometheus_text_all
    /// [`MetricClass::WallClock`]: crate::MetricClass::WallClock
    pub fn registry(&self) -> crate::Registry {
        const W: crate::MetricClass = crate::MetricClass::WallClock;
        let mut r = crate::Registry::new();
        r.set_gauge(
            "mcloud_pool_lanes",
            "Total worker lanes, the caller's lane 0 included.",
            W,
            &[],
            self.lanes as f64,
        );
        r.set_gauge(
            "mcloud_pool_uptime_seconds",
            "Wall-clock seconds since the pool was created.",
            W,
            &[],
            self.uptime_ns() as f64 / 1e9,
        );
        for s in self.lane_stats() {
            let lane = s.lane.to_string();
            let labels: &[(&str, &str)] = &[("lane", &lane)];
            r.set_counter(
                "mcloud_pool_lane_items_total",
                "Items this lane computed across all jobs.",
                W,
                labels,
                s.items,
            );
            r.set_counter(
                "mcloud_pool_lane_chunks_total",
                "Dispenser chunks this lane claimed.",
                W,
                labels,
                s.chunks,
            );
            r.set_gauge(
                "mcloud_pool_lane_busy_seconds",
                "Wall-clock seconds this lane spent executing jobs.",
                W,
                labels,
                s.busy_ns as f64 / 1e9,
            );
        }
        r
    }

    /// Broadcasts `job` to every lane, runs lane 0 on the caller thread,
    /// and blocks until all lanes finished. Panics from any lane are
    /// re-raised here, after the barrier (so the erased borrow never
    /// escapes).
    fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        let _turn = lock(&self.submit);
        // SAFETY: lifetime erasure (transmute to the `'static` trait-object
        // pointer `JobRef` stores). The raw pointer is only dereferenced by
        // lanes between the epoch broadcast below and the `active == 0`
        // barrier, and this frame — which owns the borrow — does not
        // return until that barrier passes.
        let erased = JobRef(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync + 'static)>(
                job,
            )
        });
        {
            let mut st = lock(&self.shared.state);
            st.job = Some(erased);
            st.active = self.lanes - 1;
            st.epoch += 1;
            self.shared.work.notify_all();
        }
        let mine = IN_POOL.with(|flag| {
            flag.set(true);
            let t0 = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| job(0)));
            self.shared.stats[0]
                .busy_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            flag.set(false);
            r
        });
        let worker_panic = {
            let mut st = lock(&self.shared.state);
            while st.active != 0 {
                st = self
                    .shared
                    .done
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.job = None;
            st.panic.take()
        };
        if let Err(payload) = mine {
            // The caller's own panic wins, matching sequential behaviour.
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Tracks whether the global pool exists (set just before `get_or_init`
/// constructs it). An atomic flag rather than `OnceLock::get` so the
/// probe can live outside the `global()` function.
static GLOBAL_INIT: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Applies `f` to every item in input order using the process-wide pool.
/// The degenerate cases — at most one item, or a configured lane count of
/// one — run inline on the caller thread with **zero thread spawns** and
/// without ever creating the pool.
pub fn pool_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.len() <= 1 || configured_lanes() == 1 || IN_POOL.with(Cell::get) {
        return items.iter().map(f).collect();
    }
    WorkerPool::global().map(items, f)
}

/// Dispenser chunk size for `n` items over `lanes` lanes: the default
/// [`CHUNK`], shrunk so short inputs still occupy every lane (a 5-point
/// sweep over 4 lanes must not serialize onto 2 of them).
fn chunk_for(n: usize, lanes: usize) -> usize {
    if lanes <= 1 {
        return CHUNK;
    }
    n.div_ceil(lanes).clamp(1, CHUNK)
}

/// A raw pointer that may cross thread boundaries: lanes index it
/// disjointly (by claimed item index or by lane number).
struct SlotPtr<T>(*mut T);

impl<T> SlotPtr<T> {
    /// Pointer to element `i`. Going through a method (rather than field
    /// access) makes closures capture the whole `SlotPtr` — whose `Sync`
    /// impl below is the point — instead of the raw field.
    fn slot(&self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
    }
}

// SAFETY: disjoint-index access only, established at each use site.
unsafe impl<T: Send> Sync for SlotPtr<T> {}

fn worker_loop(shared: &Shared, lane: usize) {
    IN_POOL.with(|flag| flag.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    break;
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            seen = st.epoch;
            st.job.expect("epoch advanced without a job")
        };
        // SAFETY: the submitter keeps the pointee alive until every lane
        // reports done (the barrier in `run`).
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(lane) }));
        shared.stats[lane]
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let mut st = lock(&shared.state);
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order_across_lane_counts() {
        let items: Vec<u64> = (0..200).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for lanes in [1, 2, 3, 4, 7] {
            let pool = WorkerPool::new(lanes);
            assert_eq!(pool.map(&items, |&x| x * 3), want, "lanes = {lanes}");
        }
    }

    #[test]
    fn results_are_chunk_size_independent() {
        let items: Vec<u64> = (0..57).collect();
        let want: Vec<u64> = items.iter().map(|x| x + 9).collect();
        let pool = WorkerPool::new(3);
        for chunk in [1, 2, 3, 4, 8, 64] {
            assert_eq!(pool.map_chunk(&items, chunk, |&x| x + 9), want, "{chunk}");
        }
    }

    #[test]
    fn empty_and_single_inputs_run_inline() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(pool.map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn one_lane_pool_spawns_no_threads() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.handles.len(), 0);
        assert_eq!(pool.map(&[1, 2, 3], |&x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn pool_is_reusable_across_many_calls() {
        let pool = WorkerPool::new(4);
        for round in 0..50u64 {
            let items: Vec<u64> = (0..23).collect();
            let got = pool.map(&items, |&x| x + round);
            assert_eq!(got, items.iter().map(|x| x + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_with_state_gives_each_lane_its_own_state() {
        let pool = WorkerPool::new(3);
        // Each lane counts the items it computed into its own counter; the
        // counters must sum to the item count and nothing may be lost.
        let mut counters = vec![0u64; pool.lanes()];
        let items: Vec<u32> = (0..100).collect();
        let out = pool.map_with_state(&mut counters, &items, |c, &x| {
            *c += 1;
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(counters.iter().sum::<u64>(), items.len() as u64);
    }

    #[test]
    fn map_with_state_results_are_lane_and_chunk_independent() {
        let items: Vec<u64> = (0..41).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        for lanes in [1, 2, 4] {
            let pool = WorkerPool::new(lanes);
            for chunk in [1, 3, 4, 16] {
                let mut states = vec![(); pool.lanes()];
                let got = pool.map_with_state_chunk(&mut states, &items, chunk, |(), &x| x * x);
                assert_eq!(got, want, "lanes {lanes} chunk {chunk}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate_to_the_caller() {
        let pool = WorkerPool::new(4);
        // Enough items that worker lanes (not just lane 0) take chunks.
        let items: Vec<u32> = (0..64).collect();
        pool.map_chunk(&items, 1, |&x| {
            assert!(x != 33, "boom");
            x
        });
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = WorkerPool::new(3);
        let items: Vec<u32> = (0..32).collect();
        let poisoned = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_chunk(&items, 1, |&x| {
                assert!(x != 20, "kaboom");
                x
            })
        }));
        assert!(poisoned.is_err());
        // The next job on the same pool is unaffected.
        assert_eq!(
            pool.map(&items, |&x| x + 1),
            items.iter().map(|x| x + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nested_calls_run_inline_instead_of_deadlocking() {
        let pool = WorkerPool::new(2);
        let outer: Vec<u32> = (0..8).collect();
        let got = pool.map(&outer, |&x| {
            // A nested fan-out from inside a lane must not re-enter the
            // pool (the submit lock is held); it runs inline.
            let inner: Vec<u32> = (0..4).collect();
            pool.map(&inner, |&y| y).iter().sum::<u32>() + x
        });
        assert_eq!(got, outer.iter().map(|x| x + 6).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_for_fills_all_lanes_on_short_inputs() {
        assert_eq!(chunk_for(8, 8), 1);
        assert_eq!(chunk_for(9, 8), 2);
        assert_eq!(chunk_for(1000, 8), CHUNK);
        assert_eq!(chunk_for(0, 4), 1);
        assert_eq!(chunk_for(100, 1), CHUNK);
    }

    #[test]
    fn lane_stats_account_for_every_item() {
        let pool = WorkerPool::new(3);
        let items: Vec<u64> = (0..100).collect();
        let _ = pool.map(&items, |&x| x * 2);
        let _ = pool.map_chunk(&items, 2, |&x| x + 1);
        let stats = pool.lane_stats();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats.iter().map(|s| s.lane).collect::<Vec<_>>(), [0, 1, 2]);
        // Scheduling decides *which* lane got what, but never the totals.
        assert_eq!(stats.iter().map(|s| s.items).sum::<u64>(), 200);
        assert!(stats.iter().map(|s| s.chunks).sum::<u64>() >= 2);
        assert!(pool.uptime_ns() > 0);
    }

    #[test]
    fn pool_registry_is_wall_clock_only() {
        let pool = WorkerPool::new(2);
        let _ = pool.map(&[1u32, 2, 3], |&x| x);
        let r = pool.registry();
        // Deterministic render: empty — nothing here may enter a golden.
        assert_eq!(r.prometheus_text(), "");
        let all = r.prometheus_text_all();
        assert!(all.contains("mcloud_pool_lanes 2\n"), "{all}");
        assert!(
            all.contains("mcloud_pool_lane_items_total{lane=\"0\"}"),
            "{all}"
        );
        assert!(all.contains("mcloud_pool_uptime_seconds"), "{all}");
    }

    #[test]
    fn inline_calls_are_booked_against_lane_zero() {
        let pool = WorkerPool::new(4);
        let _ = pool.map(&[7u32], |&x| x); // single item: inline path
        let stats = pool.lane_stats();
        assert_eq!(stats[0].items, 1);
        assert_eq!(stats[0].chunks, 1);
        assert_eq!(stats[1].items + stats[2].items + stats[3].items, 0);
    }

    #[test]
    fn pool_map_matches_sequential() {
        let items: Vec<u64> = (0..64).collect();
        let work = |&x: &u64| (0..100).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i));
        assert_eq!(
            pool_map(&items, work),
            items.iter().map(work).collect::<Vec<_>>()
        );
    }
}
