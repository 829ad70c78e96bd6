//! A counting global allocator for allocation-budget benchmarks.
//!
//! Every binary in this crate (the `repro` tool and its tests) routes its
//! heap traffic through [`CountingAlloc`], which forwards to the
//! system allocator while counting each thread's own traffic. The
//! baseline runner ([`crate::baseline`]) snapshots the counters around a
//! single-threaded simulation to obtain *exact, deterministic* per-run
//! allocation counts — the quantity the CI perf gate pins, because unlike
//! wall-clock throughput it is identical on every machine.
//!
//! The counters are per-thread, so a measurement sees only the measuring
//! thread's allocations: concurrent tests or worker lanes allocating at
//! the same time cannot leak into it. They are const-initialised
//! `Cell`s with no destructor, which the allocator may touch at any
//! point of a thread's life, teardown included.

#![allow(unsafe_code)] // GlobalAlloc is an unsafe trait; this is the one spot.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    // Signed: a thread may free blocks another thread allocated.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn bump<T: Copy>(cell: &'static std::thread::LocalKey<Cell<T>>, f: impl FnOnce(T) -> T) {
    cell.with(|c| c.set(f(c.get())));
}

/// System-allocator wrapper that counts every allocation.
pub struct CountingAlloc;

impl CountingAlloc {
    fn on_alloc(size: usize) {
        bump(&ALLOCS, |n| n + 1);
        bump(&ALLOC_BYTES, |n| n + size as u64);
        bump(&LIVE_BYTES, |n| n + size as i64);
        let live = LIVE_BYTES.with(Cell::get);
        bump(&PEAK_LIVE_BYTES, |p| p.max(live));
    }

    fn on_free(size: usize) {
        bump(&LIVE_BYTES, |n| n - size as i64);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::on_free(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Count a realloc as one allocation event plus the byte delta,
            // so growth strategies show up in the totals.
            Self::on_free(layout.size());
            Self::on_alloc(new_size);
        }
        p
    }
}

/// A point-in-time copy of the allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation events since the thread started (reallocs count once).
    pub allocs: u64,
    /// Bytes requested by those events.
    pub alloc_bytes: u64,
    /// Bytes this thread allocated minus bytes it freed; negative when
    /// it freed more than it allocated.
    pub live_bytes: i64,
    /// High-water mark of live bytes since the last [`reset_peak`].
    pub peak_live_bytes: i64,
}

/// Reads the calling thread's counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.with(Cell::get),
        alloc_bytes: ALLOC_BYTES.with(Cell::get),
        live_bytes: LIVE_BYTES.with(Cell::get),
        peak_live_bytes: PEAK_LIVE_BYTES.with(Cell::get),
    }
}

/// Restarts peak-live tracking from the current live level, so a
/// subsequent [`snapshot`] reports the high-water mark of the measured
/// region alone.
pub fn reset_peak() {
    PEAK_LIVE_BYTES.with(|p| p.set(LIVE_BYTES.with(Cell::get)));
}

/// What one region of code allocated: the difference between two
/// snapshots bracketing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocation events inside the region.
    pub allocs: u64,
    /// Bytes requested inside the region.
    pub alloc_bytes: u64,
    /// Peak live bytes above the region's starting level.
    pub peak_above_start: u64,
}

/// Runs `f` and returns its result together with exact allocation counts
/// for the call. Counts only the calling thread: work `f` hands to other
/// threads is not seen (the baseline runner measures inline code).
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocDelta) {
    reset_peak();
    let before = snapshot();
    let out = f();
    let after = snapshot();
    (
        out,
        AllocDelta {
            allocs: after.allocs - before.allocs,
            alloc_bytes: after.alloc_bytes - before.alloc_bytes,
            peak_above_start: (after.peak_live_bytes - before.live_bytes).max(0) as u64,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_a_vec_allocation() {
        let (v, delta) = measure(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(delta.allocs >= 1, "vec must have allocated: {delta:?}");
        assert!(delta.alloc_bytes >= 4096, "{delta:?}");
        assert!(delta.peak_above_start >= 4096, "{delta:?}");
    }

    #[test]
    fn measure_sees_no_allocations_in_pure_code() {
        let (sum, delta) = measure(|| (0u64..100).sum::<u64>());
        assert_eq!(sum, 4950);
        assert_eq!(delta.allocs, 0, "{delta:?}");
    }

    #[test]
    fn counters_monotonically_increase() {
        let a = snapshot();
        let _v = std::hint::black_box(vec![1u32; 100]);
        let b = snapshot();
        assert!(b.allocs >= a.allocs);
        assert!(b.alloc_bytes >= a.alloc_bytes);
    }
}
