//! A fixed-size processor pool with deterministic allocation and busy-time
//! accounting.
//!
//! The paper's compute resource is a single site with `P` processors. The
//! pool always grants the lowest-numbered free slot so that a given workload
//! produces an identical schedule on every run.

use crate::time::{SimDuration, SimTime};

/// Index of a processor slot within a [`ProcessorPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

/// A pool of identical processors.
///
/// Free slots live in a bitmap (bit set = free) rather than a heap: the
/// lowest free index is a find-first-set scan from a cursor that only moves
/// forward between releases, so acquire and release are O(1) amortized and
/// touch one or two words. With on-demand provisioning the pool has one
/// slot per task (tens of thousands at 16 degrees), where a free-list
/// heap's log(n) sift walked scattered cache lines on every grant.
#[derive(Debug, Clone)]
pub struct ProcessorPool {
    /// For each slot: `None` if free, else the time it became busy.
    busy_since: Vec<Option<SimTime>>,
    /// Bit per slot: set = free.
    free_bits: Vec<u64>,
    /// Scan-start hint: every `free_bits` word before this index is zero
    /// (releases lower it, acquires advance it).
    free_cursor: usize,
    available: u32,
    busy_time: SimDuration,
    grants: u64,
    max_in_use: u32,
}

impl ProcessorPool {
    /// Creates a pool with `n` processors, all idle.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: u32) -> Self {
        let mut pool = ProcessorPool {
            busy_since: Vec::new(),
            free_bits: Vec::new(),
            free_cursor: 0,
            available: 0,
            busy_time: SimDuration::ZERO,
            grants: 0,
            max_in_use: 0,
        };
        pool.reset(n);
        pool
    }

    /// Re-initializes the pool to `n` idle processors, reusing the slot and
    /// free-bitmap storage (no allocation when `n` does not exceed a
    /// previous capacity).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn reset(&mut self, n: u32) {
        assert!(n > 0, "a processor pool needs at least one processor");
        self.busy_since.clear();
        self.busy_since.resize(n as usize, None);
        self.free_bits.clear();
        self.free_bits.resize((n as usize).div_ceil(64), !0);
        // Mask off the bits past `n` in the last word so scans never
        // grant a slot that does not exist.
        let tail = n as usize % 64;
        if tail != 0 {
            *self.free_bits.last_mut().unwrap() = (1u64 << tail) - 1;
        }
        self.free_cursor = 0;
        self.available = n;
        self.busy_time = SimDuration::ZERO;
        self.grants = 0;
        self.max_in_use = 0;
    }

    /// Total number of slots.
    pub fn capacity(&self) -> u32 {
        self.busy_since.len() as u32
    }

    /// Number of currently idle slots.
    pub fn available(&self) -> u32 {
        self.available
    }

    /// Number of currently busy slots.
    pub fn in_use(&self) -> u32 {
        self.capacity() - self.available()
    }

    /// Highest number of slots ever simultaneously busy.
    pub fn peak_in_use(&self) -> u32 {
        self.max_in_use
    }

    /// Number of acquisitions granted so far.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Acquires the lowest-numbered free processor, if any.
    pub fn try_acquire(&mut self, now: SimTime) -> Option<ProcId> {
        if self.available == 0 {
            return None;
        }
        let mut w = self.free_cursor;
        while self.free_bits[w] == 0 {
            w += 1;
        }
        self.free_cursor = w;
        let bit = self.free_bits[w].trailing_zeros();
        self.free_bits[w] &= !(1 << bit);
        let slot = (w * 64) as u32 + bit;
        self.busy_since[slot as usize] = Some(now);
        self.available -= 1;
        self.grants += 1;
        self.max_in_use = self.max_in_use.max(self.in_use());
        Some(ProcId(slot))
    }

    /// Releases a processor acquired earlier.
    ///
    /// # Panics
    /// Panics if the slot is out of range, already free, or released before
    /// it was acquired.
    pub fn release(&mut self, now: SimTime, proc: ProcId) {
        let since = self.busy_since[proc.0 as usize]
            .take()
            .expect("released a processor that was not busy");
        self.busy_time += now.since(since);
        let w = proc.0 as usize / 64;
        self.free_bits[w] |= 1 << (proc.0 % 64);
        self.free_cursor = self.free_cursor.min(w);
        self.available += 1;
    }

    /// Cumulative busy time over all processors (completed occupations only).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Mean utilization over `[0, horizon]` across all slots. Any still-busy
    /// slots are counted up to `horizon`.
    ///
    /// # Panics
    /// Panics if `horizon` is zero.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        assert!(
            horizon > SimTime::ZERO,
            "utilization needs a positive horizon"
        );
        let mut busy = self.busy_time.as_secs_f64();
        for since in self.busy_since.iter().flatten() {
            busy += horizon.since(*since).as_secs_f64();
        }
        busy / (horizon.as_secs_f64() * self.capacity() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn grants_lowest_index_first() {
        let mut pool = ProcessorPool::new(3);
        assert_eq!(pool.try_acquire(t(0.0)), Some(ProcId(0)));
        assert_eq!(pool.try_acquire(t(0.0)), Some(ProcId(1)));
        assert_eq!(pool.try_acquire(t(0.0)), Some(ProcId(2)));
        assert_eq!(pool.try_acquire(t(0.0)), None);
    }

    #[test]
    fn released_slot_is_reused_lowest_first() {
        let mut pool = ProcessorPool::new(3);
        let a = pool.try_acquire(t(0.0)).unwrap();
        let b = pool.try_acquire(t(0.0)).unwrap();
        let _c = pool.try_acquire(t(0.0)).unwrap();
        pool.release(t(1.0), b);
        pool.release(t(2.0), a);
        // Both 0 and 1 free; the lowest index comes back first.
        assert_eq!(pool.try_acquire(t(3.0)), Some(ProcId(0)));
        assert_eq!(pool.try_acquire(t(3.0)), Some(ProcId(1)));
    }

    #[test]
    fn tracks_busy_time_and_peak() {
        let mut pool = ProcessorPool::new(2);
        let a = pool.try_acquire(t(0.0)).unwrap();
        let b = pool.try_acquire(t(0.0)).unwrap();
        pool.release(t(2.0), a);
        pool.release(t(3.0), b);
        assert_eq!(pool.busy_time(), SimDuration::from_secs(5));
        assert_eq!(pool.peak_in_use(), 2);
        assert_eq!(pool.grants(), 2);
        // 5 busy-seconds over a 5 s horizon on 2 procs = 50%.
        assert!((pool.utilization(t(5.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_counts_inflight_work() {
        let mut pool = ProcessorPool::new(1);
        pool.try_acquire(t(0.0)).unwrap();
        assert!((pool.utilization(t(4.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not busy")]
    fn double_release_panics() {
        let mut pool = ProcessorPool::new(1);
        let a = pool.try_acquire(t(0.0)).unwrap();
        pool.release(t(1.0), a);
        pool.release(t(2.0), a);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_capacity_rejected() {
        ProcessorPool::new(0);
    }

    #[test]
    fn counts_track_state() {
        let mut pool = ProcessorPool::new(4);
        assert_eq!(pool.capacity(), 4);
        assert_eq!(pool.available(), 4);
        let a = pool.try_acquire(t(0.0)).unwrap();
        assert_eq!(pool.in_use(), 1);
        pool.release(t(1.0), a);
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.available(), 4);
    }
}
