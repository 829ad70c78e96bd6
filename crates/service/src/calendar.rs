//! The service simulators' event calendar.
//!
//! A service simulation keeps only a few dozen events pending at once
//! (one per busy or booting slot), minutes to hours apart, and never
//! cancels one. A binary heap holding the payloads inline pops those in
//! O(log n) of a tiny n. `mcloud_simkit::EventQueue`'s heap does the same
//! through a payload slab and per-slot cancellation bookkeeping, and cold
//! capacity plans ran 4–10% slower on it (EXPERIMENTS.md, "Transfers on
//! FIFO lanes").

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mcloud_simkit::SimTime;

/// Pending events, popped in exactly ascending `(time, seq)` order: ties
/// at one instant pop in push order, the same contract as
/// `EventQueue`, so swapping one for the other leaves every schedule
/// unchanged. `E` must be `Ord` only to sit in the heap; distinct
/// sequence numbers mean two payloads are never compared.
#[derive(Debug)]
pub(crate) struct Calendar<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
    next_seq: u64,
    /// Time of the last popped event; nothing may be scheduled earlier.
    now: SimTime,
}

// By hand, so that `clone_from` reuses the heap's buffer.
impl<E: Clone> Clone for Calendar<E> {
    fn clone(&self) -> Self {
        Calendar {
            heap: self.heap.clone(),
            next_seq: self.next_seq,
            now: self.now,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.heap.clone_from(&src.heap);
        self.next_seq = src.next_seq;
        self.now = src.now;
    }
}

impl<E: Ord> Calendar<E> {
    pub(crate) fn new() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last popped event: scheduling
    /// into the past is always a model bug.
    pub(crate) fn push(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "event scheduled into the past: {} < {}",
            time,
            self.now
        );
        self.heap.push(Reverse((time, self.next_seq, event)));
        self.next_seq += 1;
    }

    /// The time of the next event, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, _, _))| *time)
    }

    /// Whether no event is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((time, _, event)) = self.heap.pop()?;
        self.now = time;
        Some((time, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn pops_by_time_then_push_order() {
        let mut c = Calendar::new();
        c.push(t(2.0), 9);
        c.push(t(1.0), 5);
        c.push(t(2.0), 1);
        c.push(t(1.0), 7);
        assert_eq!(c.peek_time(), Some(t(1.0)));
        let order: Vec<i32> = std::iter::from_fn(|| c.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![5, 7, 9, 1]);
        assert_eq!(c.peek_time(), None);
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn rejects_past_events() {
        let mut c = Calendar::new();
        c.push(t(5.0), ());
        c.pop();
        c.push(t(4.0), ());
    }
}
