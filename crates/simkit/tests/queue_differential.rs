//! Differential tests for the calendar [`EventQueue`]: every case feeds an
//! identical (time, seq) operation stream to the calendar queue and to a
//! reference binary heap, and asserts the two agree on every pop, peek,
//! and cancel along the way.
//!
//! The adversarial distributions target the calendar structure's failure
//! modes specifically: all-equal timestamps pile every event into one
//! bucket (FIFO order must come from seq alone), exponential gaps stress
//! the width-sizing policy, far-future outliers force ring growth and the
//! empty-revolution cursor jump, and heavy cancellation interleaves the
//! lazy-deletion bitset with bucket rebuilds. Each case is seeded from its
//! index, so a failure message identifies a reproducible stream.
//!
//! Pop order alone does not pin the adaptive policies, so every stream's
//! final [`QueueStats`] (resizes, cursor jumps, width, ring size, peak
//! occupancy) is also compared against a committed golden file per test
//! under `tests/golden/`. Those counters reach the metrics exposition, the
//! cache codec and `mcloud sweep`; a layout change that alters them must
//! be deliberate. Regenerate with `MCLOUD_UPDATE_GOLDEN=1` and review the
//! diff.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::path::PathBuf;

use mcloud_simkit::{EventId, EventQueue, QueueStats, SimRng, SimTime};

const CASES: u64 = 64;

/// The kernel's documented order, implemented the obvious way: a binary
/// heap of ascending `(time, insertion seq)` with lazy cancellation.
#[derive(Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// Indexed by seq; set when an event is cancelled *or* consumed, so
    /// `cancel` on a popped event reports `false` like the real queue.
    dead: Vec<bool>,
}

impl ReferenceQueue {
    fn push(&mut self, time: SimTime, payload: usize) -> u64 {
        let seq = self.dead.len() as u64;
        self.dead.push(false);
        self.heap.push(Reverse((time, seq, payload)));
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        let slot = &mut self.dead[seq as usize];
        !std::mem::replace(slot, true)
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        while let Some(Reverse((time, seq, payload))) = self.heap.pop() {
            if !std::mem::replace(&mut self.dead[seq as usize], true) {
                return Some((time, payload));
            }
        }
        None
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((time, seq, _))) = self.heap.peek() {
            if self.dead[seq as usize] {
                self.heap.pop();
            } else {
                return Some(time);
            }
        }
        None
    }
}

/// Drives one operation stream through both queues and returns the
/// calendar queue's stats after the drain. `gap` draws the inter-event
/// spacing in microseconds; `cancel_pct` is the share of operations (out
/// of 100) that cancel a random earlier event.
fn drive_round(
    rng: &mut SimRng,
    q: &mut EventQueue<usize>,
    gap: &dyn Fn(&mut SimRng) -> u64,
    cancel_pct: u64,
    case: u64,
) -> QueueStats {
    let mut reference = ReferenceQueue::default();
    let mut ids: Vec<(EventId, u64)> = Vec::new();
    let mut cursor = 0u64; // push-time cursor (micros)
    let mut now = 0u64; // last popped time: pushes must not go behind it
    let ops = 300 + rng.below(700);
    for _ in 0..ops {
        let roll = rng.below(100);
        if roll < 50 {
            cursor = cursor.max(now).saturating_add(gap(rng));
            let time = SimTime::from_micros(cursor);
            let payload = ids.len();
            let id = q.push(time, payload);
            let seq = reference.push(time, payload);
            ids.push((id, seq));
        } else if roll < 50 + cancel_pct {
            if let Some(&(id, seq)) = ids.get(rng.below(ids.len().max(1) as u64) as usize) {
                assert_eq!(
                    q.cancel(id),
                    reference.cancel(seq),
                    "case {case}: cancel outcome diverged for seq {seq}"
                );
            }
        } else if roll < 90 {
            let real = q.pop();
            let model = reference.pop();
            assert_eq!(real, model, "case {case}: pop diverged");
            if let Some((time, _)) = real {
                now = time.as_micros();
            }
        } else {
            assert_eq!(
                q.peek_time(),
                reference.peek_time(),
                "case {case}: peek diverged"
            );
        }
    }
    // Drain both to the end: tails are where rebuild bookkeeping errors
    // would surface as lost or duplicated events.
    loop {
        let real = q.pop();
        assert_eq!(real, reference.pop(), "case {case}: drain diverged");
        if real.is_none() {
            break;
        }
    }
    assert!(q.is_empty(), "case {case}: queue not empty after drain");
    q.stats()
}

/// Appends one golden line for `stats`.
fn stats_line(out: &mut String, case: u64, s: QueueStats) {
    writeln!(
        out,
        "case {case}: popped={} cancelled={} resizes={} cursor_jumps={} peak_pending={} width_bits={} buckets={}",
        s.popped, s.cancelled, s.resizes, s.cursor_jumps, s.peak_pending, s.width_bits, s.buckets
    )
    .unwrap();
}

/// Compares `actual` with `tests/golden/queue_stats_<name>.txt`, or
/// rewrites that file under `MCLOUD_UPDATE_GOLDEN=1`.
fn check_stats_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("queue_stats_{name}.txt"));
    if std::env::var_os("MCLOUD_UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with MCLOUD_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    for (e, a) in expected.lines().zip(actual.lines()) {
        assert_eq!(e, a, "{name}: queue stats diverge");
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "{name}: stream count changed"
    );
}

fn run_cases(name: &str, seed: u64, gap: impl Fn(&mut SimRng) -> u64, cancel_pct: u64) {
    let mut golden = String::new();
    for case in 0..CASES {
        let mut rng = SimRng::new(seed ^ case);
        let mut q = EventQueue::new();
        let stats = drive_round(&mut rng, &mut q, &gap, cancel_pct, case);
        stats_line(&mut golden, case, stats);
    }
    check_stats_golden(name, &golden);
}

#[test]
fn all_equal_timestamps_match_the_reference() {
    // Every event lands in the same bucket; order must come from seq.
    run_cases("all_equal", 0xD1F_0001, |_| 0, 20);
}

#[test]
fn uniform_gaps_match_the_reference() {
    run_cases("uniform", 0xD1F_0002, |rng| rng.below(1_000), 20);
}

#[test]
fn exponential_gaps_match_the_reference() {
    // Heavy-tailed spacing: most events cluster, a few land whole bucket
    // widths out, exercising the width-sizing policy on rebuilds.
    run_cases("exponential", 0xD1F_0003, |rng| 1u64 << rng.below(16), 20);
}

#[test]
fn far_future_outliers_match_the_reference() {
    // ~2% of pushes jump ~2^40 us (= days) ahead, forcing ring growth and
    // the empty-revolution cursor jump on the way back down.
    run_cases(
        "far_future",
        0xD1F_0004,
        |rng| {
            if rng.chance(0.02) {
                1u64 << 40
            } else {
                rng.below(500)
            }
        },
        15,
    );
}

#[test]
fn heavy_cancellation_matches_the_reference() {
    // Cancellation dominates: most buckets hold mostly-dead chains, so
    // pops and rebuilds spend their time purging the lazy-deletion bitset.
    run_cases("heavy_cancellation", 0xD1F_0005, |rng| rng.below(200), 40);
}

#[test]
fn reset_reuses_the_queue_equivalently() {
    // The same calendar queue instance, reset between rounds of different
    // distributions, must behave like a fresh queue against a fresh
    // reference every round (the warm-scratch path batches rely on).
    let gaps: [&dyn Fn(&mut SimRng) -> u64; 3] = [&|_| 0, &|rng| 1u64 << rng.below(14), &|rng| {
        if rng.chance(0.05) {
            1u64 << 38
        } else {
            rng.below(300)
        }
    }];
    let mut golden = String::new();
    for case in 0..CASES {
        let mut rng = SimRng::new(0xD1F_0006 ^ case);
        let mut q = EventQueue::new();
        for (round, gap) in gaps.iter().enumerate() {
            let label = case * 10 + round as u64;
            let stats = drive_round(&mut rng, &mut q, gap, 20, label);
            stats_line(&mut golden, label, stats);
            q.reset();
        }
    }
    check_stats_golden("reset_rounds", &golden);
}
