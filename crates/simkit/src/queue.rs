//! The event calendar: a time-ordered queue with deterministic FIFO
//! tie-breaking and O(1) cancellation.
//!
//! Determinism matters here: the paper's experiments are comparisons between
//! execution plans, so two runs of the same configuration must produce
//! byte-identical schedules. Events scheduled for the same instant pop in
//! the order they were pushed (a strictly increasing sequence number breaks
//! ties), independent of the queue's internal layout.
//!
//! # Calendar layout
//!
//! The queue is a *calendar queue* (Brown 1988): a ring of buckets ("days"),
//! each covering a power-of-two-microsecond slice of simulated time. An
//! event at time `t` belongs to bucket `(t >> width_bits) & (buckets - 1)`.
//! Insertion links the event into one bucket; popping serves the bucket of
//! the current day and only ever compares entries within it. For the
//! inter-event gaps a discrete-event simulation produces (many events, gaps
//! clustered around a typical value) both operations are O(1), and — unlike
//! a binary heap, whose siftdown touches log(n) scattered cache lines — a
//! pop reads one small contiguous run, so the queue stays fast when a
//! 49k-task workflow puts tens of thousands of events in flight.
//!
//! All storage lives in a handful of flat arrays — a slab of event slots
//! (with an intrusive free list), per-bucket chain heads, and one sorted
//! "run" for the bucket being served — so a fresh queue performs a few
//! amortized-doubling allocations total and a [`reset`](Self::reset) queue
//! performs none.
//!
//! Three policies keep the calendar adaptive without ever changing the pop
//! order, which is *always* exactly ascending `(time, seq)`:
//!
//! * **Bucket width** is re-derived on every resize from the observed
//!   inter-event gaps of the live events (mean gap, rounded up to a power
//!   of two), so one bucket holds ~one event at steady state.
//! * **Lazy resize**: the ring doubles when occupancy exceeds two events
//!   per bucket and halves (toward a floor) when it drops below one event
//!   per eight buckets. Both thresholds depend only on the push/pop/cancel
//!   sequence, so resizes are deterministic.
//! * **Lazy ordering**: bucket chains are unsorted; the day's entries are
//!   sorted (descending, so the minimum pops off the tail in O(1)) only
//!   when the serve cursor reaches their bucket.
//!
//! A far-future outlier costs one empty ring revolution: when a whole
//! revolution finds no event, the queue jumps the cursor straight to the
//! earliest pending day instead of stepping through every empty day in
//! between. A sparse stream (a few events pending, each more than a
//! revolution away) pays that revolution plus the jump's walk on nearly
//! every pop, so such streams belong in a binary heap; this queue is
//! built for the dense event streams of workflow simulations.

use crate::time::SimTime;

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    /// A handle that never names a live event: cancelling it is a no-op
    /// that returns `false`. Useful as the empty value of a dense slot
    /// array tracking pending events.
    pub const NONE: EventId = EventId(u64::MAX);
}

/// Buckets the ring starts with (and never shrinks below).
const MIN_BUCKETS: usize = 16;

/// Bucket width before the first resize derives one from observed gaps:
/// 2^20 us (~1 s), a typical task-scale event spacing.
const DEFAULT_WIDTH_BITS: u32 = 20;

/// Widest bucket the sizing policy may pick (2^44 us, ~200 days): beyond
/// this the ring degenerates into one bucket anyway and the width math
/// must not overflow on adversarial far-future outliers.
const MAX_WIDTH_BITS: u32 = 44;

/// Empty chain link / empty bucket marker.
const NIL: u32 = u32::MAX;

/// "No bucket is currently being served."
const NO_RUN: usize = usize::MAX;

/// One slab entry: an event plus its intrusive chain link. `payload` is
/// taken on delivery and dropped on lazy cancellation cleanup; a `None`
/// payload marks a slot sitting on the free list.
#[derive(Debug, Clone)]
struct Slot<E> {
    time: SimTime,
    seq: u64,
    next: u32,
    payload: Option<E>,
}

/// A time-ordered event queue over an arbitrary payload type.
///
/// ```
/// use mcloud_simkit::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs_f64(2.0), "later");
/// q.push(SimTime::from_secs_f64(1.0), "sooner");
/// assert_eq!(q.pop().unwrap().1, "sooner");
/// assert_eq!(q.pop().unwrap().1, "later");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The event slab. Slots are recycled through `free`, so the slab's
    /// high-water mark is the peak number of simultaneously live events.
    slots: Vec<Slot<E>>,
    /// Recycled slot indices.
    free: Vec<u32>,
    /// Per-bucket chain heads ([`NIL`] = empty). Only the first `mask + 1`
    /// are active; the array never shrinks, so a shrink-then-grow cycle
    /// (and a warm [`reset`](Self::reset) reuse) costs no allocation.
    heads: Vec<u32>,
    /// `active_buckets - 1`; the active count is a power of two.
    mask: usize,
    /// log2 of the bucket width in microseconds.
    width_bits: u32,
    /// The day (`time_us >> width_bits`) the serve cursor is at. No
    /// *pending* event is ever earlier than this day.
    cur_day: u64,
    /// The serving bucket's entries, detached from its chain and sorted
    /// descending by (time, seq): the next event to pop is the tail.
    run: Vec<u32>,
    /// Which bucket `run` belongs to ([`NO_RUN`] = none).
    run_bucket: usize,
    /// Staging buffer for resizes (capacity persists across runs).
    spill: Vec<u32>,
    next_seq: u64,
    /// Pending-event bitset indexed by sequence number: bit set = the event
    /// is scheduled and not yet delivered or cancelled. Cancellation is
    /// lazy: a slot whose bit is clear is freed when the serve cursor or a
    /// resize next touches it. Sequence numbers are dense (0, 1, 2, ...),
    /// so a bitset costs one bit per event ever pushed and — unlike a hash
    /// set — no hashing on the push/pop hot path.
    pending: PendingBits,
    last_popped: SimTime,
    popped: u64,
    /// Cancellations that hit a still-pending event.
    cancelled: u64,
    /// Ring rebuilds (grows and shrinks) over the queue's lifetime.
    resizes: u64,
    /// Times a full empty ring revolution made the serve cursor jump
    /// straight to the earliest pending day.
    cursor_jumps: u64,
    /// High-water mark of pending (non-cancelled) events.
    peak_pending: usize,
}

/// A point-in-time snapshot of the calendar queue's self-telemetry: how
/// much work it has done and how its adaptive policies (resizing, width
/// re-derivation, cursor jumps) actually behaved on this event stream.
///
/// Every field is derived purely from the push/pop/cancel sequence, so the
/// snapshot is deterministic: two runs of the same simulation produce
/// identical stats on any machine and at any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Events delivered by [`EventQueue::pop`].
    pub popped: u64,
    /// Cancellations that removed a still-pending event.
    pub cancelled: u64,
    /// Ring rebuilds (grows and shrinks).
    pub resizes: u64,
    /// Empty-revolution cursor jumps to the earliest pending day.
    pub cursor_jumps: u64,
    /// High-water mark of simultaneously pending events.
    pub peak_pending: u64,
    /// Current log2 bucket width in microseconds.
    pub width_bits: u32,
    /// Current number of active buckets in the ring.
    pub buckets: u64,
}

/// A grow-only bitset over dense sequence numbers.
#[derive(Debug, Default, Clone)]
struct PendingBits {
    words: Vec<u64>,
    /// Number of set bits, so `len()` is O(1).
    count: usize,
}

impl PendingBits {
    fn insert(&mut self, seq: u64) {
        let (word, bit) = (seq as usize / 64, seq % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << bit;
        self.count += 1;
    }

    /// Clears the bit; returns whether it was set.
    fn remove(&mut self, seq: u64) -> bool {
        let (word, bit) = (seq as usize / 64, seq % 64);
        match self.words.get_mut(word) {
            Some(w) if *w & (1 << bit) != 0 => {
                *w &= !(1 << bit);
                self.count -= 1;
                true
            }
            _ => false,
        }
    }

    fn contains(&self, seq: u64) -> bool {
        let (word, bit) = (seq as usize / 64, seq % 64);
        self.words.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }
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
            free: self.free.clone(),
            heads: self.heads.clone(),
            mask: self.mask,
            width_bits: self.width_bits,
            cur_day: self.cur_day,
            run: self.run.clone(),
            run_bucket: self.run_bucket,
            spill: self.spill.clone(),
            next_seq: self.next_seq,
            pending: self.pending.clone(),
            last_popped: self.last_popped,
            popped: self.popped,
            cancelled: self.cancelled,
            resizes: self.resizes,
            cursor_jumps: self.cursor_jumps,
            peak_pending: self.peak_pending,
        }
    }

    /// Field-wise `clone_from` so checkpoint restore reuses the arena,
    /// ring, and bitset buffers of the destination queue instead of
    /// reallocating them on every sweep point.
    fn clone_from(&mut self, src: &Self) {
        self.slots.clone_from(&src.slots);
        self.free.clone_from(&src.free);
        self.heads.clone_from(&src.heads);
        self.mask = src.mask;
        self.width_bits = src.width_bits;
        self.cur_day = src.cur_day;
        self.run.clone_from(&src.run);
        self.run_bucket = src.run_bucket;
        self.spill.clone_from(&src.spill);
        self.next_seq = src.next_seq;
        self.pending.words.clone_from(&src.pending.words);
        self.pending.count = src.pending.count;
        self.last_popped = src.last_popped;
        self.popped = src.popped;
        self.cancelled = src.cancelled;
        self.resizes = src.resizes;
        self.cursor_jumps = src.cursor_jumps;
        self.peak_pending = src.peak_pending;
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            heads: vec![NIL; MIN_BUCKETS],
            mask: MIN_BUCKETS - 1,
            width_bits: DEFAULT_WIDTH_BITS,
            cur_day: 0,
            run: Vec::new(),
            run_bucket: NO_RUN,
            spill: Vec::new(),
            next_seq: 0,
            pending: PendingBits::default(),
            last_popped: SimTime::ZERO,
            popped: 0,
            cancelled: 0,
            resizes: 0,
            cursor_jumps: 0,
            peak_pending: 0,
        }
    }

    #[inline]
    fn active(&self) -> usize {
        self.mask + 1
    }

    #[inline]
    fn day_of(&self, time: SimTime) -> u64 {
        time.as_micros() >> self.width_bits
    }

    /// Returns a slot to the free list, dropping its payload.
    #[inline]
    fn release(&mut self, slot: u32) {
        self.slots[slot as usize].payload = None;
        self.free.push(slot);
    }

    /// Schedules `payload` at `time` and returns a cancellation handle.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last popped event time:
    /// scheduling into the past is always a model bug.
    pub fn push(&mut self, time: SimTime, payload: E) -> EventId {
        assert!(
            time >= self.last_popped,
            "event scheduled into the past: {} < {}",
            time,
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq);
        self.peak_pending = self.peak_pending.max(self.pending.count);
        if self.pending.count > 2 * self.active() {
            self.rebuild(self.active() * 2);
        }
        let day = self.day_of(time);
        // The serve cursor may have coasted past this day over empty
        // buckets (only *pending* events pin it); pull it back so the new
        // event is found before anything later.
        if day < self.cur_day {
            self.cur_day = day;
        }
        let b = (day as usize) & self.mask;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Slot {
                    time,
                    seq,
                    next: self.heads[b],
                    payload: Some(payload),
                };
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("event slab overflow");
                self.slots.push(Slot {
                    time,
                    seq,
                    next: self.heads[b],
                    payload: Some(payload),
                });
                s
            }
        };
        self.heads[b] = slot;
        EventId(seq)
    }

    /// Empties the queue and rewinds the clock to [`SimTime::ZERO`] while
    /// keeping every buffer's storage allocated, so a reused queue replays
    /// an identical schedule without touching the heap allocator.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.free.clear();
        for h in &mut self.heads {
            *h = NIL;
        }
        self.mask = MIN_BUCKETS - 1;
        self.width_bits = DEFAULT_WIDTH_BITS;
        self.cur_day = 0;
        self.run.clear();
        self.run_bucket = NO_RUN;
        self.spill.clear();
        self.pending.words.clear();
        self.pending.count = 0;
        self.next_seq = 0;
        self.last_popped = SimTime::ZERO;
        self.popped = 0;
        self.cancelled = 0;
        self.resizes = 0;
        self.cursor_jumps = 0;
        self.peak_pending = 0;
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending (lazy deletion: the slot is recycled when the serve
    /// cursor or a resize next touches it).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let hit = self.pending.remove(id.0);
        self.cancelled += u64::from(hit);
        hit
    }

    /// Removes and returns the earliest pending event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.pending.count == 0 {
            return None;
        }
        self.seek();
        let slot = self.run.pop().expect("seek left an empty run");
        let s = &mut self.slots[slot as usize];
        let removed = self.pending.remove(s.seq);
        debug_assert!(removed, "seek left a cancelled entry at the run tail");
        self.last_popped = s.time;
        self.popped += 1;
        let time = s.time;
        let payload = s.payload.take().expect("live slot without a payload");
        self.free.push(slot);
        self.maybe_shrink();
        Some((time, payload))
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.pending.count == 0 {
            return None;
        }
        self.seek();
        self.run.last().map(|&s| self.slots[s as usize].time)
    }

    /// Advances `cur_day` to the day of the earliest pending event and
    /// leaves that event at the tail of `run`. Requires at least one
    /// pending event.
    ///
    /// Correctness of the (time, seq) pop order: every pending event has
    /// day >= `cur_day` (pushes pull the cursor back, resizes re-derive
    /// it), a day maps to exactly one bucket, and all events of a later
    /// day are strictly later in time than all events of an earlier one —
    /// so the first served day's bucket minimum is the global minimum.
    fn seek(&mut self) {
        let mut steps = 0usize;
        loop {
            let b = (self.cur_day as usize) & self.mask;
            if self.serve_ready(b) {
                return;
            }
            self.cur_day += 1;
            steps += 1;
            if steps > self.mask {
                // A full ring revolution of empty days: jump the cursor
                // straight to the earliest pending event (far-future
                // outliers would otherwise cost a step per empty day).
                self.cursor_jumps += 1;
                self.cur_day = self.min_pending_day();
                let b = (self.cur_day as usize) & self.mask;
                let found = self.serve_ready(b);
                debug_assert!(found, "min_pending_day pointed at an empty day");
                return;
            }
        }
    }

    /// Makes bucket `b` the serving bucket — detaching its chain into the
    /// sorted run, recycling cancelled slots along the way — and reports
    /// whether the run tail is a pending entry belonging to `cur_day`.
    fn serve_ready(&mut self, b: usize) -> bool {
        if self.run_bucket != b {
            self.flush_run();
            self.run_bucket = b;
        }
        if self.heads[b] != NIL {
            // Pull freshly chained entries into the run and re-sort. The
            // common case is an empty run plus a ~one-event chain.
            let mut s = self.heads[b];
            self.heads[b] = NIL;
            while s != NIL {
                let nx = self.slots[s as usize].next;
                if self.pending.contains(self.slots[s as usize].seq) {
                    self.run.push(s);
                } else {
                    self.release(s);
                }
                s = nx;
            }
            let (run, slots, pending, free) = (
                &mut self.run,
                &mut self.slots,
                &self.pending,
                &mut self.free,
            );
            run.retain(|&s| {
                let live = pending.contains(slots[s as usize].seq);
                if !live {
                    slots[s as usize].payload = None;
                    free.push(s);
                }
                live
            });
            // Descending, so the minimum (next to pop) sits at the tail.
            let slots = &self.slots;
            self.run.sort_unstable_by(|&x, &y| {
                let kx = (slots[x as usize].time, slots[x as usize].seq);
                let ky = (slots[y as usize].time, slots[y as usize].seq);
                ky.cmp(&kx)
            });
        }
        // Purge entries cancelled since the run was sorted.
        while let Some(&s) = self.run.last() {
            if self.pending.contains(self.slots[s as usize].seq) {
                break;
            }
            self.run.pop();
            self.release(s);
        }
        match self.run.last() {
            None => false,
            Some(&s) => self.day_of(self.slots[s as usize].time) == self.cur_day,
        }
    }

    /// Re-attaches the run's remaining entries to their bucket's chain
    /// (they may belong to a later ring revolution of the same bucket).
    fn flush_run(&mut self) {
        let rb = self.run_bucket;
        if rb == NO_RUN {
            return;
        }
        while let Some(s) = self.run.pop() {
            if self.pending.contains(self.slots[s as usize].seq) {
                self.slots[s as usize].next = self.heads[rb];
                self.heads[rb] = s;
            } else {
                self.release(s);
            }
        }
        self.run_bucket = NO_RUN;
    }

    /// The day of the earliest pending event. Reached only after a whole
    /// empty ring revolution. Every pending event sits in the run or in an
    /// active bucket's chain, so walking those finds it without visiting
    /// the slab's free slots: the slab keeps its peak size, which in a
    /// large simulation is many times the pending count.
    fn min_pending_day(&self) -> u64 {
        let mut best: Option<(SimTime, u64)> = None;
        let mut consider = |s: u32| {
            let slot = &self.slots[s as usize];
            if self.pending.contains(slot.seq) && best.is_none_or(|k| (slot.time, slot.seq) < k) {
                best = Some((slot.time, slot.seq));
            }
        };
        self.run.iter().for_each(|&s| consider(s));
        for &head in &self.heads[..self.active()] {
            let mut s = head;
            while s != NIL {
                consider(s);
                s = self.slots[s as usize].next;
            }
        }
        let (time, _) = best.expect("no pending entry despite a positive count");
        self.day_of(time)
    }

    /// Halves the ring (toward [`MIN_BUCKETS`]) when occupancy falls below
    /// one event per eight buckets, so a draining queue never pays long
    /// empty-day scans.
    fn maybe_shrink(&mut self) {
        let active = self.active();
        if active > MIN_BUCKETS && self.pending.count * 8 < active {
            let target = (self.pending.count.max(1) * 2)
                .next_power_of_two()
                .max(MIN_BUCKETS);
            if target < active {
                self.rebuild(target);
            }
        }
    }

    /// Re-shapes the ring to `target` buckets (a power of two), re-deriving
    /// the bucket width from the live events' observed gaps and recycling
    /// cancelled slots. Pop order is unaffected: membership and the
    /// (time, seq) keys never change, only the layout. No payload moves:
    /// only the intrusive links are rewritten.
    fn rebuild(&mut self, target: usize) {
        debug_assert!(target.is_power_of_two() && target >= MIN_BUCKETS);
        self.resizes += 1;
        self.flush_run();
        self.spill.clear();
        for b in 0..self.active() {
            let mut s = self.heads[b];
            self.heads[b] = NIL;
            while s != NIL {
                let nx = self.slots[s as usize].next;
                if self.pending.contains(self.slots[s as usize].seq) {
                    self.spill.push(s);
                } else {
                    self.release(s);
                }
                s = nx;
            }
        }
        if target > self.heads.len() {
            self.heads.resize(target, NIL);
        }
        self.mask = target - 1;
        self.width_bits = self.pick_width_bits();
        // All pending events are at or after the last delivery, so this
        // floor keeps the no-pending-day-before-cursor invariant.
        self.cur_day = self.day_of(self.last_popped);
        for i in 0..self.spill.len() {
            let s = self.spill[i];
            let b = (self.day_of(self.slots[s as usize].time) as usize) & self.mask;
            self.slots[s as usize].next = self.heads[b];
            self.heads[b] = s;
        }
    }

    /// Picks the bucket width (log2 microseconds) for the events staged in
    /// `spill`: the mean observed inter-event gap rounded up to a power of
    /// two, so one bucket covers about one event. Degenerate inputs (fewer
    /// than two events, or all at one instant) keep a safe constant.
    fn pick_width_bits(&self) -> u32 {
        if self.spill.len() < 2 {
            return DEFAULT_WIDTH_BITS;
        }
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for &s in &self.spill {
            let us = self.slots[s as usize].time.as_micros();
            lo = lo.min(us);
            hi = hi.max(us);
        }
        let span = hi - lo;
        if span == 0 {
            // All at one instant: any width works; one sorted bucket
            // serves them FIFO.
            return 0;
        }
        let gap = (span / (self.spill.len() as u64 - 1)).max(1);
        // ceil(log2(gap)): gap == 1 -> 0 bits, gap == 3 -> 2 bits.
        let bits = 64 - (gap - 1).leading_zeros();
        bits.min(MAX_WIDTH_BITS)
    }

    /// The time of the most recently popped event (the simulation "now").
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Total events delivered by [`pop`](Self::pop) over the queue's
    /// lifetime (cancelled entries are not counted). This is the
    /// denominator-free "work done" metric the benchmark baseline reports
    /// as events/sec.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.count
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
            resizes: self.resizes,
            cursor_jumps: self.cursor_jumps,
            peak_pending: self.peak_pending as u64,
            width_bits: self.width_bits,
            buckets: self.active() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn clone_replays_the_identical_pop_sequence() {
        // Build a queue mid-run (some pops, cancels, same-time ties), then
        // clone it: original and clone must pop the exact same sequence,
        // and mutating one must not disturb the other.
        let mut q = EventQueue::new();
        let mut cancel_me = Vec::new();
        for i in 0..200u32 {
            let id = q.push(t((i % 7) as f64 + 1.0), i);
            if i % 13 == 0 {
                cancel_me.push(id);
            }
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
        assert_eq!(q.len(), 6);
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
    fn growth_past_the_initial_ring_keeps_order() {
        // Far more events than MIN_BUCKETS * 2 forces at least one grow
        // rebuild mid-stream; order must stay exactly (time, seq).
        let mut q = EventQueue::new();
        let n = 10 * MIN_BUCKETS as u64;
        for i in 0..n {
            // A decimated time pattern so several events share a day.
            q.push(SimTime::from_micros((i % 17) * 1_000_003), i);
        }
        let mut got = Vec::new();
        while let Some((time, i)) = q.pop() {
            got.push((time, i));
        }
        let mut want = got.clone();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(got.len(), n as usize);
    }

    #[test]
    fn far_future_outlier_is_reached_via_cursor_jump() {
        let mut q = EventQueue::new();
        q.push(t(1.0), "near");
        // ~3 years of simulated microseconds past the near cluster.
        q.push(SimTime::from_micros(100_000_000_000_000), "far");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_behind_the_cursor_still_pops_first() {
        let mut q = EventQueue::new();
        q.push(t(100.0), "late");
        // peek advances the serve cursor to the "late" day...
        assert_eq!(q.peek_time(), Some(t(100.0)));
        // ...but an earlier (still >= now) push must pop before it.
        q.push(t(1.0), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn reset_reuses_the_slab_without_leaking_state() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(SimTime::from_micros(i * 977), i);
        }
        for _ in 0..500 {
            q.pop();
        }
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.popped(), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        // A fresh schedule replays exactly as on a brand-new queue.
        q.push(t(2.0), 20);
        q.push(t(1.0), 10);
        q.push(t(1.0), 11);
        assert_eq!(q.pop().unwrap(), (t(1.0), 10));
        assert_eq!(q.pop().unwrap(), (t(1.0), 11));
        assert_eq!(q.pop().unwrap(), (t(2.0), 20));
    }

    #[test]
    fn shrink_after_mass_cancellation_keeps_survivors() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..512u64)
            .map(|i| q.push(SimTime::from_micros(i * 1_000), i))
            .collect();
        // Cancel everything but three stragglers, then pop: the ring
        // shrinks while the survivors must still arrive in order.
        for (i, id) in ids.iter().enumerate() {
            if ![5usize, 250, 511].contains(&i) {
                q.cancel(*id);
            }
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 250);
        assert_eq!(q.pop().unwrap().1, 511);
        assert!(q.pop().is_none());
    }

    #[test]
    fn width_sizing_handles_degenerate_gaps() {
        // All-equal timestamps: one bucket, FIFO within it.
        let mut q = EventQueue::new();
        for i in 0..200u64 {
            q.push(t(7.0), i);
        }
        for i in 0..200u64 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        // Giant span: the width clamp keeps day math finite.
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.push(SimTime::from_micros(i * (u64::MAX / 128)), i);
        }
        for i in 0..64u64 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn cursor_jump_sees_an_event_left_in_the_served_run() {
        // After an empty revolution the run holds the last bucket served.
        // Placing the only pending event in each bucket in turn puts it
        // there once; with a slab larger than the ring the jump walks the
        // chains, and must include the run.
        let mut jumps = 0;
        for offset in 0..64 {
            let mut q = EventQueue::new();
            for i in 0..64 {
                q.push(SimTime::from_micros(i), i);
            }
            while q.pop().is_some() {}
            assert!(q.slots.len() > q.active(), "the jump must walk the chains");
            let far_day = q.cur_day + 64 * q.active() as u64 + offset;
            let far = SimTime::from_micros(far_day << q.width_bits);
            q.push(far, 0);
            assert_eq!(q.pop(), Some((far, 0)), "offset {offset}");
            jumps += q.stats().cursor_jumps;
        }
        assert!(jumps >= 64, "every case must jump, saw {jumps}");
    }

    #[test]
    fn stats_track_the_adaptive_machinery() {
        let mut q = EventQueue::new();
        let fresh = q.stats();
        assert_eq!((fresh.popped, fresh.cancelled, fresh.resizes), (0, 0, 0));
        assert_eq!((fresh.cursor_jumps, fresh.peak_pending), (0, 0));
        assert_eq!(fresh.buckets, MIN_BUCKETS as u64);
        assert_eq!(fresh.width_bits, DEFAULT_WIDTH_BITS);

        // Enough events to force at least one grow rebuild.
        let ids: Vec<_> = (0..10 * MIN_BUCKETS as u64)
            .map(|i| q.push(SimTime::from_micros((i % 17) * 1_000_003), i))
            .collect();
        let peak = q.len() as u64;
        q.cancel(ids[3]);
        q.cancel(ids[3]); // double-cancel counts once
        while q.pop().is_some() {}

        let s = q.stats();
        assert_eq!(s.popped, ids.len() as u64 - 1);
        assert_eq!(s.cancelled, 1);
        assert!(s.resizes >= 1, "grow must have rebuilt the ring: {s:?}");
        assert_eq!(s.peak_pending, peak);
        assert_eq!(s.buckets, q.active() as u64);

        // A far-future outlier forces an empty-revolution cursor jump.
        let mut q = EventQueue::new();
        q.push(t(1.0), "near");
        q.push(SimTime::from_micros(100_000_000_000_000), "far");
        while q.pop().is_some() {}
        assert!(q.stats().cursor_jumps >= 1, "{:?}", q.stats());

        // reset() zeroes the lifetime counters.
        q.reset();
        let s = q.stats();
        assert_eq!((s.popped, s.cancelled, s.resizes), (0, 0, 0));
        assert_eq!((s.cursor_jumps, s.peak_pending), (0, 0));
    }

    #[test]
    fn slots_are_recycled_through_the_free_list() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..8u64 {
                q.push(SimTime::from_micros(round * 1000 + i), (round, i));
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
