//! The event calendar: a time-ordered queue with deterministic FIFO
//! tie-breaking and lazy cancellation.
//!
//! Determinism matters here: the paper's experiments are comparisons between
//! execution plans, so two runs of the same configuration must produce
//! byte-identical schedules. Events scheduled for the same instant pop in
//! the order they were pushed (a strictly increasing sequence number breaks
//! ties), independent of the queue's internal layout.
//!
//! # Layout
//!
//! The queue has two parts that share one payload slab (with an intrusive
//! free list, so slots recycle) and one sequence counter:
//!
//! * **FIFO lanes** for event streams whose times never decrease in push
//!   order. A serial FCFS link is one: it finishes transfers in the order
//!   they were submitted, so its completions can be appended with
//!   [`push_fifo`](EventQueue::push_fifo) and popped off the lane's front.
//!   Both are O(1), however far ahead the completions lie. A lane also
//!   takes *markers* ([`push_fifo_marker`](EventQueue::push_fifo_marker)):
//!   keys with no payload that stand for a completion nobody needs to
//!   handle. A marker is counted like any event (it takes a sequence
//!   number, is pending until its turn, and counts in
//!   [`popped`](EventQueue::popped) and the peak) but is never delivered:
//!   [`pop`](EventQueue::pop) consumes it and moves on to the next event.
//!   A run of markers at a lane's head is consumed in one pass, up to the
//!   lane's first payload or the smallest key among the heap top and the
//!   other lanes' heads, rather than one search of every head per marker.
//! * **A binary heap** of compact `(time, seq, slot)` keys for every other
//!   event. In a workflow simulation these are the compute completions,
//!   retries and preemptions — at most about one per processor — so the
//!   heap stays small even when the lanes hold tens of thousands of queued
//!   transfers. Cancellation is lazy and covers heap events only: a
//!   cancelled event's slot is marked at once and its key is dropped when
//!   it reaches the top.
//!
//! [`pop`](EventQueue::pop) takes the smallest `(time, seq)` among the heap
//! top and the lane heads. A lane's keys are ascending by construction (its
//! times never decrease and its sequence numbers grow), so the pop order is
//! *always* exactly ascending `(time, seq)` over all pending events.
//!
//! A fresh queue performs a few amortized-doubling allocations and a
//! [`reset`](EventQueue::reset) queue performs none.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Handle to a scheduled event, usable for cancellation: the event's
/// sequence number and slab slot, packed as in a queue key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    /// A handle that never names a live event: cancelling it is a no-op
    /// that returns `false`. Useful as the empty value of a dense slot
    /// array tracking pending events.
    pub const NONE: EventId = EventId(u64::MAX);
}

/// Empty free list, and the slot of a marker's key: the slab never hands
/// out this index.
const NIL: u32 = u32::MAX;

/// One slab entry.
#[derive(Debug, Clone)]
enum Slot<E> {
    /// A pending event's payload.
    Live(E),
    /// A cancelled heap event whose key is still in the heap.
    Cancelled,
    /// A link in the free list.
    Free { next: u32 },
}

/// A pending event's place in pop order plus where its payload lives,
/// packed into one `u128` so a comparison is one integer compare and four
/// keys share a cache line: the time in microseconds in the high 64 bits,
/// then the sequence number (32 bits), then the slab slot (32 bits). The
/// order is ascending `(time, seq)`: sequence numbers are unique, so the
/// slot bits never decide a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

impl Key {
    fn new(time: SimTime, seq: u32, slot: u32) -> Self {
        Key(u128::from(time.as_micros()) << 64 | u128::from(seq) << 32 | u128::from(slot))
    }

    fn time(self) -> SimTime {
        SimTime::from_micros((self.0 >> 64) as u64)
    }

    fn seq(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The sequence number and slot, packed as in an [`EventId`].
    fn tag(self) -> u64 {
        self.0 as u64
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }
}

/// A time-ordered event queue over an arbitrary payload type.
///
/// ```
/// use mcloud_simkit::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs_f64(2.0), "later");
/// q.push(SimTime::from_secs_f64(1.0), "sooner");
/// // A FIFO lane: completions of a serial link, in submission order.
/// q.push_fifo(0, SimTime::from_secs_f64(1.5), "link");
/// assert_eq!(q.pop().unwrap().1, "sooner");
/// assert_eq!(q.pop().unwrap().1, "link");
/// assert_eq!(q.pop().unwrap().1, "later");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Payloads of pending events, plus cancelled heap events whose keys
    /// are not yet dropped, indexed by slot. The slab's length is the peak
    /// number of simultaneously stored events.
    slots: Vec<Slot<E>>,
    /// Low 32 bits of the sequence number of each slot's latest occupant,
    /// so a handle to an event that has since left its slot cancels
    /// nothing.
    slot_seq: Vec<u32>,
    /// First free slot ([`NIL`] = none); free slots chain through
    /// `Slot::Free::next`.
    free_head: u32,
    /// Keys of the events pushed with [`push`](Self::push).
    heap: BinaryHeap<Reverse<Key>>,
    /// Keys of the events pushed with [`push_fifo`](Self::push_fifo), one
    /// ring buffer per lane, each ascending front to back.
    lanes: Vec<VecDeque<Key>>,
    next_seq: u64,
    /// Pending (non-cancelled) events, heap and lanes together.
    live: usize,
    last_popped: SimTime,
    popped: u64,
    /// Cancellations that hit a still-pending event.
    cancelled: u64,
    /// High-water mark of `live`.
    peak_pending: usize,
}

/// A point-in-time snapshot of the queue's self-telemetry: how much work
/// it has done and how full it got.
///
/// Every field is derived purely from the push/pop/cancel sequence, so the
/// snapshot is deterministic: two runs of the same simulation produce
/// identical stats on any machine and at any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Events taken off the queue by [`EventQueue::pop`], markers
    /// included.
    pub popped: u64,
    /// Cancellations that removed a still-pending event.
    pub cancelled: u64,
    /// Always 0: the queue has no ring to rebuild. Kept only because the
    /// benchmark harness under `perfbench/` reads it; ROADMAP item 6 lists
    /// its removal for the next change to that harness.
    pub resizes: u64,
    /// Always 0, for the same reason as [`resizes`](Self::resizes).
    pub cursor_jumps: u64,
    /// High-water mark of simultaneously pending events, lanes and heap
    /// together.
    pub peak_pending: u64,
}

/// Where the earliest pending event sits (see [`EventQueue::earliest`]).
#[derive(Clone, Copy)]
enum Head {
    Heap,
    Lane(usize),
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Clone> Clone for EventQueue<E> {
    fn clone(&self) -> Self {
        EventQueue {
            slots: self.slots.clone(),
            slot_seq: self.slot_seq.clone(),
            free_head: self.free_head,
            heap: self.heap.clone(),
            lanes: self.lanes.clone(),
            next_seq: self.next_seq,
            live: self.live,
            last_popped: self.last_popped,
            popped: self.popped,
            cancelled: self.cancelled,
            peak_pending: self.peak_pending,
        }
    }

    /// Field-wise `clone_from` so checkpoint restore reuses the slab, heap
    /// and lane buffers of the destination queue instead of reallocating
    /// them on every sweep point.
    fn clone_from(&mut self, src: &Self) {
        self.slots.clone_from(&src.slots);
        self.slot_seq.clone_from(&src.slot_seq);
        self.free_head = src.free_head;
        self.heap.clone_from(&src.heap);
        self.lanes.clone_from(&src.lanes);
        self.next_seq = src.next_seq;
        self.live = src.live;
        self.last_popped = src.last_popped;
        self.popped = src.popped;
        self.cancelled = src.cancelled;
        self.peak_pending = src.peak_pending;
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            slot_seq: Vec::new(),
            free_head: NIL,
            heap: BinaryHeap::new(),
            lanes: Vec::new(),
            next_seq: 0,
            live: 0,
            last_popped: SimTime::ZERO,
            popped: 0,
            cancelled: 0,
            peak_pending: 0,
        }
    }

    /// Checks the no-past rule and counts a new pending event, returning
    /// its sequence number.
    ///
    /// # Panics
    /// Panics past 2^32 pushes since the last reset.
    fn admit(&mut self, time: SimTime) -> u32 {
        assert!(
            time >= self.last_popped,
            "event scheduled into the past: {} < {}",
            time,
            self.last_popped
        );
        let seq = u32::try_from(self.next_seq).expect("event sequence overflow");
        self.next_seq += 1;
        self.live += 1;
        self.peak_pending = self.peak_pending.max(self.live);
        seq
    }

    /// Admits an event at `time` and stores `payload` in a slab slot.
    fn store(&mut self, time: SimTime, payload: E) -> Key {
        let seq = self.admit(time);
        Key::new(time, seq, self.fill_slot(seq, payload))
    }

    /// Puts `payload`, the event numbered `seq`, in a free slab slot and
    /// returns the slot.
    fn fill_slot(&mut self, seq: u32, payload: E) -> u32 {
        let slot = self.free_head;
        if slot == NIL {
            let s = u32::try_from(self.slots.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("event slab overflow");
            self.slots.push(Slot::Live(payload));
            self.slot_seq.push(seq);
            s
        } else {
            match std::mem::replace(&mut self.slots[slot as usize], Slot::Live(payload)) {
                Slot::Free { next } => self.free_head = next,
                _ => unreachable!("free list reached an occupied slot"),
            }
            self.slot_seq[slot as usize] = seq;
            slot
        }
    }

    /// Returns `slot` to the free list and hands back what it held.
    fn release(&mut self, slot: u32) -> Slot<E> {
        let next = self.free_head;
        self.free_head = slot;
        std::mem::replace(&mut self.slots[slot as usize], Slot::Free { next })
    }

    /// Schedules `payload` at `time` and returns a cancellation handle.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last popped event time:
    /// scheduling into the past is always a model bug.
    pub fn push(&mut self, time: SimTime, payload: E) -> EventId {
        let key = self.store(time, payload);
        self.heap.push(Reverse(key));
        EventId(key.tag())
    }

    /// Schedules `payload` at `time` on FIFO lane `lane`: the lane's events
    /// pop in push order, interleaved with every other event by
    /// `(time, seq)` exactly as [`push`](Self::push) would place them.
    /// Lane events cannot be cancelled. Lanes are numbered from 0 and
    /// created on first use.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last popped event time, or
    /// earlier than the time of the lane's last pushed event that is still
    /// pending: a lane's times must never decrease.
    pub fn push_fifo(&mut self, lane: usize, time: SimTime, payload: E) {
        self.push_lane(lane, time, Some(payload));
    }

    /// Schedules a marker at `time` on FIFO lane `lane`: a payload-free
    /// event that stands for a completion nobody handles. It takes a
    /// sequence number and counts as pending (in [`len`](Self::len),
    /// [`peek_time`](Self::peek_time) and the peak) exactly like a
    /// [`push_fifo`](Self::push_fifo) event, and its turn counts in
    /// [`popped`](Self::popped) and advances the clock, but
    /// [`pop`](Self::pop) never returns it. It takes no slab slot.
    ///
    /// # Panics
    /// As [`push_fifo`](Self::push_fifo).
    pub fn push_fifo_marker(&mut self, lane: usize, time: SimTime) {
        self.push_lane(lane, time, None);
    }

    /// Schedules a run of events on FIFO lane `lane`, one per time `times`
    /// yields (they must not decrease): a marker at every time but the
    /// last, and `payload` at the last. Exactly the marker
    /// ([`push_fifo_marker`](Self::push_fifo_marker)) pushes followed by
    /// one [`push_fifo`](Self::push_fifo) — the same sequence numbers, pop
    /// order, [`len`](Self::len), [`popped`](Self::popped) and peak — for
    /// one lane lookup, one no-past and lane-tail check, one reservation of
    /// the sequence range and one peak update. The times are read as they
    /// are pushed, so a caller can compute them on the fly.
    ///
    /// # Panics
    /// Panics if `times` yields nothing or decreases anywhere, and as
    /// [`push_fifo`](Self::push_fifo) if its first time is earlier than
    /// the last popped time or than the lane's tail.
    pub fn push_fifo_batch(
        &mut self,
        lane: usize,
        times: impl IntoIterator<Item = SimTime>,
        payload: E,
    ) {
        let mut times = times.into_iter();
        let first = times.next().expect("a FIFO batch needs at least one event");
        self.check_lane_tail(lane, first);
        // `admit` checks the no-past rule and numbers the first event;
        // every later one follows it in time and in sequence.
        let first_seq = self.admit(first);
        let queue = &mut self.lanes[lane];
        let mut last = Key::new(first, first_seq, NIL);
        for time in times {
            assert!(
                time >= last.time(),
                "FIFO lane {lane} batch pushed out of order: {} < {}",
                time,
                last.time()
            );
            queue.push_back(last);
            let seq = last.seq().checked_add(1).expect("event sequence overflow");
            last = Key::new(time, seq, NIL);
        }
        let last_seq = last.seq();
        // One step for the rest of the range: `live` only grows over the
        // run, so one peak update sees the high-water mark one per event
        // would.
        let rest = last_seq - first_seq;
        self.next_seq += u64::from(rest);
        self.live += rest as usize;
        self.peak_pending = self.peak_pending.max(self.live);
        let slot = self.fill_slot(last_seq, payload);
        self.lanes[lane].push_back(Key::new(last.time(), last_seq, slot));
    }

    /// Appends an event (or, for `None`, a marker) to lane `lane`.
    fn push_lane(&mut self, lane: usize, time: SimTime, payload: Option<E>) {
        self.check_lane_tail(lane, time);
        let key = match payload {
            Some(payload) => self.store(time, payload),
            None => Key::new(time, self.admit(time), NIL),
        };
        self.lanes[lane].push_back(key);
    }

    /// Creates lane `lane` if needed and checks that an event at `time`
    /// may follow its tail.
    fn check_lane_tail(&mut self, lane: usize, time: SimTime) {
        if let Some(tail) = self.lane_mut(lane).back() {
            assert!(
                time >= tail.time(),
                "FIFO lane {lane} pushed out of order: {} < {}",
                time,
                tail.time()
            );
        }
    }

    /// Makes room for `additional` more events on lane `lane` (creating
    /// it if needed) and in the payload slab, so a run that knows its
    /// transfer count up front allocates both once instead of doubling
    /// its way there.
    pub fn reserve_fifo(&mut self, lane: usize, additional: usize) {
        self.lane_mut(lane).reserve(additional);
        self.slots.reserve(additional);
        self.slot_seq.reserve(additional);
    }

    /// Lane `lane`, created (with any lower-numbered lanes) on first use.
    fn lane_mut(&mut self, lane: usize) -> &mut VecDeque<Key> {
        if lane >= self.lanes.len() {
            self.lanes.reserve_exact(lane + 1 - self.lanes.len());
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        &mut self.lanes[lane]
    }

    /// Empties the queue and rewinds the clock to [`SimTime::ZERO`] while
    /// keeping every buffer's storage allocated, so a reused queue replays
    /// an identical schedule without touching the heap allocator.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.slot_seq.clear();
        self.free_head = NIL;
        self.heap.clear();
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.next_seq = 0;
        self.live = 0;
        self.last_popped = SimTime::ZERO;
        self.popped = 0;
        self.cancelled = 0;
        self.peak_pending = 0;
    }

    /// Cancels an event scheduled with [`push`](Self::push). Returns `true`
    /// if the event was still pending; its payload is dropped at once and
    /// its key when it reaches the top of the heap.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let (seq, slot) = ((id.0 >> 32) as u32, id.0 as u32);
        let hit = self.slot_seq.get(slot as usize) == Some(&seq)
            && matches!(self.slots[slot as usize], Slot::Live(_));
        if hit {
            self.slots[slot as usize] = Slot::Cancelled;
            self.live -= 1;
            self.cancelled += 1;
        }
        hit
    }

    /// The key of the earliest pending event and where it sits, after
    /// dropping any cancelled keys off the heap top.
    fn earliest(&mut self) -> Option<(Key, Head)> {
        while let Some(&Reverse(top)) = self.heap.peek() {
            if !matches!(self.slots[top.slot() as usize], Slot::Cancelled) {
                break;
            }
            self.heap.pop();
            self.release(top.slot());
        }
        let mut best = self.heap.peek().map(|&Reverse(k)| (k, Head::Heap));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(&k) = lane.front() {
                if best.is_none_or(|(b, _)| k < b) {
                    best = Some((k, Head::Lane(i)));
                }
            }
        }
        best
    }

    /// Removes and returns the earliest pending event, advancing the clock.
    /// Markers reached on the way are consumed (each counts as popped and
    /// advances the clock) and skipped; `None` once nothing but consumed
    /// markers was left.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let (mut key, head) = self.earliest()?;
            match head {
                Head::Heap => {
                    self.heap.pop();
                }
                Head::Lane(i) => {
                    if key.slot() == NIL {
                        // Markers: counted, not delivered. The payload
                        // that ends their run may be the next event.
                        match self.consume_markers(i) {
                            Some(next) => key = next,
                            None => continue,
                        }
                    }
                    self.lanes[i].pop_front();
                }
            }
            self.live -= 1;
            self.last_popped = key.time();
            self.popped += 1;
            match self.release(key.slot()) {
                Slot::Live(payload) => return Some((key.time(), payload)),
                _ => unreachable!("pending key without a payload"),
            }
        }
    }

    /// Consumes, in one pass, the run of markers at the head of lane
    /// `lane` that come before every other pending event: the run ends at
    /// the lane's first payload or at the smallest key among the heap top
    /// and the other lanes' heads, whichever is first. Each marker counts
    /// as popped and the clock moves to the last one, exactly as one pop
    /// per marker would leave them. Returns the key of the payload that
    /// ended the run when it precedes the bound: then it is the earliest
    /// pending event, still at the head of `lane`. The caller has just
    /// found a marker at the head of `lane` to be the earliest pending
    /// event (so cancelled keys are off the heap top), and at least that
    /// one is consumed.
    fn consume_markers(&mut self, lane: usize) -> Option<Key> {
        let mut bound = self.heap.peek().map(|&Reverse(k)| k);
        for (i, other) in self.lanes.iter().enumerate() {
            if let Some(&k) = other.front() {
                if i != lane && bound.is_none_or(|b| k < b) {
                    bound = Some(k);
                }
            }
        }
        let queue = &mut self.lanes[lane];
        let mut consumed = 0;
        let mut last = self.last_popped;
        let mut next = None;
        while let Some(&k) = queue.front() {
            if bound.is_some_and(|b| k > b) {
                break;
            }
            if k.slot() != NIL {
                next = Some(k);
                break;
            }
            queue.pop_front();
            consumed += 1;
            last = k.time();
        }
        debug_assert!(consumed > 0, "no marker led lane {lane}");
        self.live -= consumed;
        self.popped += consumed as u64;
        self.last_popped = last;
        next
    }

    /// The timestamp of the next pending event (a marker included), if
    /// any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.earliest().map(|(k, _)| k.time())
    }

    /// The time of the most recently popped event (the simulation "now").
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Total events taken off the queue by [`pop`](Self::pop) over the
    /// queue's lifetime: every delivered event plus every marker consumed
    /// (counted, though never delivered); cancelled entries are not
    /// counted. This is the denominator-free "work done" metric the
    /// benchmark baseline reports as events/sec.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Number of pending (non-cancelled) events, markers included.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots the queue's deterministic self-telemetry counters.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            popped: self.popped,
            cancelled: self.cancelled,
            resizes: 0,
            cursor_jumps: 0,
            peak_pending: self.peak_pending as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), 3);
        q.push(t(1.0), 1);
        q.push(t(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_tracks_pops() {
        let mut q = EventQueue::new();
        q.push(t(4.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(4.0));
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(t(10.0), ());
        q.pop();
        q.push(t(5.0), ());
    }

    #[test]
    #[should_panic(expected = "FIFO lane 1 pushed out of order")]
    fn rejects_a_lane_push_earlier_than_the_lane_tail() {
        let mut q = EventQueue::new();
        q.push_fifo(1, t(3.0), ());
        q.push_fifo(1, t(2.0), ());
    }

    #[test]
    fn lanes_interleave_with_the_heap_by_time_then_push_order() {
        let mut q = EventQueue::new();
        q.push_fifo(0, t(1.0), "lane0 a");
        q.push(t(1.0), "heap a");
        q.push_fifo(1, t(0.5), "lane1 a");
        q.push_fifo(0, t(1.0), "lane0 b");
        q.push(t(0.5), "heap b");
        q.push_fifo(1, t(2.0), "lane1 b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            ["lane1 a", "heap b", "lane0 a", "heap a", "lane0 b", "lane1 b"]
        );
    }

    #[test]
    fn clone_replays_the_identical_pop_sequence() {
        // Build a queue mid-run (some pops, cancels, same-time ties, lane
        // events), then clone it: original and clone must pop the exact
        // same sequence, and mutating one must not disturb the other.
        let mut q = EventQueue::new();
        let mut cancel_me = Vec::new();
        for i in 0..200u32 {
            let id = q.push(t((i % 7) as f64 + 1.0), i);
            if i % 13 == 0 {
                cancel_me.push(id);
            }
            q.push_fifo(0, t(f64::from(i) / 20.0), 1000 + i);
        }
        for id in cancel_me {
            q.cancel(id);
        }
        for _ in 0..50 {
            q.pop();
        }
        let mut fork = q.clone();
        assert_eq!(fork.len(), q.len());
        assert_eq!(fork.stats(), q.stats());
        fork.push(t(100.0), 9999); // diverge the fork only
        let mut restored = EventQueue::new();
        restored.clone_from(&q);
        let a: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
        let b: Vec<(SimTime, u32)> = std::iter::from_fn(|| restored.pop()).collect();
        assert_eq!(a, b);
        let f: Vec<(SimTime, u32)> = std::iter::from_fn(|| fork.pop()).collect();
        assert_eq!(f.last(), Some(&(t(100.0), 9999)));
        assert_eq!(f.len(), a.len() + 1);
    }

    #[test]
    fn cancel_removes_pending_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), "a");
        let b = q.push(t(2.0), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
        // Cancelling again (or after pop) reports false.
        assert!(!q.cancel(a));
        assert!(!q.cancel(b));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
        q.push(t(1.0), ());
        q.pop();
        // The popped event's slot now holds a lane event: the stale handle
        // must not cancel it.
        let stale = EventId(0);
        q.push_fifo(0, t(2.0), ());
        assert!(!q.cancel(stale));
        assert_eq!(q.len(), 1);
        assert!(!q.cancel(EventId::NONE));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.push(t(1.0), i)).collect();
        for id in &ids[..4] {
            q.cancel(*id);
        }
        q.push_fifo(0, t(2.0), 10);
        assert_eq!(q.len(), 7);
        assert!(!q.is_empty());
    }

    #[test]
    fn popped_counts_deliveries_not_cancellations() {
        let mut q = EventQueue::new();
        assert_eq!(q.popped(), 0);
        let a = q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        q.push(t(3.0), "c");
        q.cancel(a);
        while q.pop().is_some() {}
        assert_eq!(q.popped(), 2);
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.push(t(1.0), 0);
        q.pop();
        q.push(t(1.0), 1); // same instant as "now": fine
        assert_eq!(q.pop().unwrap(), (t(1.0), 1));
    }

    #[test]
    fn reset_reuses_the_slab_without_leaking_state() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(SimTime::from_micros(i * 977), i);
            q.push_fifo(0, SimTime::from_micros(i * 1_001), i);
        }
        for _ in 0..500 {
            q.pop();
        }
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.popped(), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.stats(), QueueStats::default());
        // A fresh schedule replays exactly as on a brand-new queue.
        q.push(t(2.0), 20);
        q.push(t(1.0), 10);
        q.push_fifo(0, t(1.0), 11);
        assert_eq!(q.pop().unwrap(), (t(1.0), 10));
        assert_eq!(q.pop().unwrap(), (t(1.0), 11));
        assert_eq!(q.pop().unwrap(), (t(2.0), 20));
    }

    #[test]
    fn peak_pending_counts_lane_and_heap_events_together() {
        let mut q = EventQueue::new();
        let a = q.push(t(1.0), 0);
        q.push_fifo(0, t(2.0), 1);
        q.push_fifo(1, t(3.0), 2);
        q.cancel(a);
        q.push(t(4.0), 3); // back to three pending, not four
        while q.pop().is_some() {}
        let s = q.stats();
        assert_eq!((s.popped, s.cancelled, s.peak_pending), (3, 1, 3));
        assert_eq!((s.resizes, s.cursor_jumps), (0, 0));
    }

    #[test]
    fn a_pending_marker_counts_as_an_event_until_its_turn() {
        let mut q = EventQueue::new();
        q.push_fifo_marker(0, t(1.0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(t(1.0)));
        q.push(t(2.0), "heap");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(1.0)));
        // The marker is consumed on the way to the heap event.
        assert_eq!(q.pop(), Some((t(2.0), "heap")));
        assert_eq!(q.popped(), 2);
        assert!(q.is_empty());
        // A marker takes no slab slot.
        assert_eq!(q.slots.len(), 1);
    }

    #[test]
    #[should_panic(expected = "FIFO lane 0 pushed out of order")]
    fn a_marker_obeys_the_lane_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push_fifo(0, t(3.0), ());
        q.push_fifo_marker(0, t(2.0));
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn a_marker_obeys_the_no_past_rule() {
        let mut q = EventQueue::new();
        q.push(t(10.0), ());
        q.pop();
        q.push_fifo_marker(0, t(5.0));
    }

    #[test]
    fn pop_consumes_trailing_markers_then_reports_none() {
        let mut q = EventQueue::new();
        q.push(t(1.0), 7);
        q.push_fifo_marker(0, t(2.0));
        q.push_fifo_marker(1, t(4.0));
        q.push_fifo_marker(0, t(3.0));
        assert_eq!(q.pop(), Some((t(1.0), 7)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.popped(), 4);
        assert_eq!(q.now(), t(4.0));
        assert_eq!(q.peek_time(), None);
    }

    /// A batch push is the single pushes it stands for: two queues fed
    /// the same seeded stream of heap pushes, pops and lane runs, one
    /// pushing each run with `push_fifo_batch` and the other as markers
    /// plus one `push_fifo`, agree on every pop (same-instant ties with
    /// heap events included), on `len` after every step and on the final
    /// `popped` and `peak_pending`.
    #[test]
    fn a_batch_push_matches_the_equivalent_single_pushes() {
        let mut rng = crate::SimRng::new(0x0BA7_C4ED);
        for case in 0..32 {
            let mut batched = EventQueue::new();
            let mut single = EventQueue::new();
            let mut lane_tail = [SimTime::ZERO; 2];
            let mut next = 0u64;
            for _ in 0..200 {
                let now = batched.now();
                match rng.below(3) {
                    0 => {
                        // Coarse times, so ties with lane events are common.
                        let time = now + SimDuration::from_micros(rng.below(4) * 10);
                        batched.push(time, next);
                        single.push(time, next);
                        next += 1;
                    }
                    1 => {
                        let lane = rng.below(2) as usize;
                        let mut time = lane_tail[lane].max(now);
                        let times: Vec<SimTime> = (0..1 + rng.below(6))
                            .map(|_| {
                                time += SimDuration::from_micros(rng.below(3) * 10);
                                time
                            })
                            .collect();
                        lane_tail[lane] = time;
                        batched.push_fifo_batch(lane, times.iter().copied(), next);
                        let (last, markers) = times.split_last().unwrap();
                        for &t in markers {
                            single.push_fifo_marker(lane, t);
                        }
                        single.push_fifo(lane, *last, next);
                        next += 1;
                    }
                    _ => assert_eq!(batched.pop(), single.pop(), "case {case}"),
                }
                assert_eq!(batched.len(), single.len(), "case {case}");
            }
            let drained: Vec<_> = std::iter::from_fn(|| batched.pop()).collect();
            let want: Vec<_> = std::iter::from_fn(|| single.pop()).collect();
            assert_eq!(drained, want, "case {case}");
            assert_eq!(batched.stats(), single.stats(), "case {case}");
            assert_eq!(batched.now(), single.now(), "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "FIFO lane 0 batch pushed out of order")]
    fn a_batch_must_not_decrease() {
        let mut q = EventQueue::new();
        q.push_fifo_batch(0, [t(1.0), t(3.0), t(2.0)], ());
    }

    #[test]
    #[should_panic(expected = "FIFO lane 0 pushed out of order")]
    fn a_batch_obeys_the_lane_tail() {
        let mut q = EventQueue::new();
        q.push_fifo(0, t(3.0), ());
        q.push_fifo_batch(0, [t(2.0), t(4.0)], ());
    }

    #[test]
    fn slots_are_recycled_through_the_free_list() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..4u64 {
                q.push(SimTime::from_micros(round * 1000 + i), (round, i));
                q.push_fifo(
                    0,
                    SimTime::from_micros(round * 1000 + 4 + i),
                    (round, 4 + i),
                );
            }
            for i in 0..8u64 {
                assert_eq!(q.pop().unwrap().1, (round, i));
            }
        }
        // 400 events total, but never more than 8 live at once: the slab
        // must have stayed at its high-water mark.
        assert!(q.slots.len() <= 8, "slab grew to {}", q.slots.len());
    }
}
