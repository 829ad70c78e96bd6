//! Differential tests for [`EventQueue`]: every case feeds an identical
//! (time, seq) operation stream to the queue and to a reference binary
//! heap, and asserts the two agree on every pop, peek, and cancel along
//! the way, and on the final pop, cancel and peak-occupancy counts.
//!
//! The heap-only distributions are adversarial for any time-ordered
//! queue: all-equal timestamps (FIFO order must come from seq alone),
//! exponential gaps, far-future outliers, and heavy cancellation that
//! leaves dead keys at the heap top. The lane streams mix heap pushes
//! with one or two FIFO lanes: equal-time ties across lanes and the heap
//! must still pop in push order, and heap cancellations land between lane
//! pops. Each case is seeded from its index, so a failure message
//! identifies a reproducible stream.
//!
//! Every heap-only stream's final [`QueueStats`] is also compared against
//! a committed golden file per test under `tests/golden/`. Those counters
//! reach the metrics exposition, the cache codec and `mcloud sweep`; a
//! change that alters them must be deliberate. Regenerate with
//! `MCLOUD_UPDATE_GOLDEN=1` and review the diff.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::path::PathBuf;

use mcloud_simkit::{EventId, EventQueue, QueueStats, SimRng, SimTime};

const CASES: u64 = 64;

/// The kernel's documented order, implemented the obvious way: one binary
/// heap of ascending `(time, insertion seq)` for every event, lane or not,
/// with lazy cancellation.
#[derive(Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// Indexed by seq; set when an event is cancelled *or* consumed, so
    /// `cancel` on a popped event reports `false` like the real queue.
    dead: Vec<bool>,
    popped: u64,
    cancelled: u64,
    live: u64,
    peak_pending: u64,
}

impl ReferenceQueue {
    fn push(&mut self, time: SimTime, payload: usize) -> u64 {
        let seq = self.dead.len() as u64;
        self.dead.push(false);
        self.heap.push(Reverse((time, seq, payload)));
        self.live += 1;
        self.peak_pending = self.peak_pending.max(self.live);
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        let slot = &mut self.dead[seq as usize];
        let hit = !std::mem::replace(slot, true);
        if hit {
            self.live -= 1;
            self.cancelled += 1;
        }
        hit
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        while let Some(Reverse((time, seq, payload))) = self.heap.pop() {
            if !std::mem::replace(&mut self.dead[seq as usize], true) {
                self.live -= 1;
                self.popped += 1;
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
/// queue's stats after the drain. `gap` draws the inter-event spacing in
/// microseconds; `cancel_pct` is the share of operations (out of 100) that
/// cancel a random earlier heap event. With `lanes > 0` each push goes to
/// the heap or to one of `lanes` FIFO lanes, drawn uniformly; a lane's
/// times never decrease. With `lanes == 0` no lane choice is drawn, so a
/// heap-only stream's draws, and its golden line, do not depend on the
/// lane code.
fn drive_round(
    rng: &mut SimRng,
    q: &mut EventQueue<usize>,
    gap: &dyn Fn(&mut SimRng) -> u64,
    cancel_pct: u64,
    lanes: usize,
    case: u64,
) -> QueueStats {
    let mut reference = ReferenceQueue::default();
    let mut ids: Vec<(EventId, u64)> = Vec::new();
    let mut cursor = 0u64; // heap push-time cursor (micros)
    let mut lane_tail = vec![0u64; lanes]; // last push time per lane
    let mut now = 0u64; // last popped time: pushes must not go behind it
    let mut payload = 0usize;
    let ops = 300 + rng.below(700);
    for _ in 0..ops {
        let roll = rng.below(100);
        if roll < 50 {
            let target = if lanes == 0 {
                None
            } else {
                (rng.below(lanes as u64 + 1) as usize).checked_sub(1)
            };
            match target {
                None => {
                    cursor = cursor.max(now).saturating_add(gap(rng));
                    let time = SimTime::from_micros(cursor);
                    let id = q.push(time, payload);
                    let seq = reference.push(time, payload);
                    ids.push((id, seq));
                }
                Some(lane) => {
                    let tail = &mut lane_tail[lane];
                    *tail = (*tail).max(now).saturating_add(gap(rng));
                    let time = SimTime::from_micros(*tail);
                    q.push_fifo(lane, time, payload);
                    reference.push(time, payload);
                }
            }
            payload += 1;
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
        assert_eq!(q.len() as u64, reference.live, "case {case}: len diverged");
    }
    // Drain both to the end: tails are where bookkeeping errors would
    // surface as lost or duplicated events.
    loop {
        let real = q.pop();
        assert_eq!(real, reference.pop(), "case {case}: drain diverged");
        if real.is_none() {
            break;
        }
    }
    assert!(q.is_empty(), "case {case}: queue not empty after drain");
    let s = q.stats();
    assert_eq!(
        (s.popped, s.cancelled, s.peak_pending),
        (
            reference.popped,
            reference.cancelled,
            reference.peak_pending
        ),
        "case {case}: stats diverged"
    );
    s
}

/// Appends one golden line for `stats`.
fn stats_line(out: &mut String, case: u64, s: QueueStats) {
    writeln!(
        out,
        "case {case}: popped={} cancelled={} peak_pending={}",
        s.popped, s.cancelled, s.peak_pending
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
        let stats = drive_round(&mut rng, &mut q, &gap, cancel_pct, 0, case);
        stats_line(&mut golden, case, stats);
    }
    check_stats_golden(name, &golden);
}

#[test]
fn all_equal_timestamps_match_the_reference() {
    // Every event ties with every other; order must come from seq.
    run_cases("all_equal", 0xD1F_0001, |_| 0, 20);
}

#[test]
fn uniform_gaps_match_the_reference() {
    run_cases("uniform", 0xD1F_0002, |rng| rng.below(1_000), 20);
}

#[test]
fn exponential_gaps_match_the_reference() {
    // Heavy-tailed spacing: most events cluster, a few land far out.
    run_cases("exponential", 0xD1F_0003, |rng| 1u64 << rng.below(16), 20);
}

#[test]
fn far_future_outliers_match_the_reference() {
    // ~2% of pushes jump ~2^40 us (= days) ahead of the cluster.
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
    // Cancellation dominates: pops spend their time dropping dead keys
    // off the heap top.
    run_cases("heavy_cancellation", 0xD1F_0005, |rng| rng.below(200), 40);
}

#[test]
fn reset_reuses_the_queue_equivalently() {
    // The same queue instance, reset between rounds of different
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
            let stats = drive_round(&mut rng, &mut q, gap, 20, 0, label);
            stats_line(&mut golden, label, stats);
            q.reset();
        }
    }
    check_stats_golden("reset_rounds", &golden);
}

/// Runs `CASES` lane streams against the reference (no golden: the
/// reference itself checks the stats).
fn run_lane_cases(seed: u64, gap: impl Fn(&mut SimRng) -> u64, cancel_pct: u64, lanes: usize) {
    for case in 0..CASES {
        let mut rng = SimRng::new(seed ^ case);
        let mut q = EventQueue::new();
        drive_round(&mut rng, &mut q, &gap, cancel_pct, lanes, case);
    }
}

#[test]
fn one_lane_mixed_with_the_heap_matches_the_reference() {
    run_lane_cases(0xD1F_0101, |rng| rng.below(1_000), 20, 1);
}

#[test]
fn two_lanes_tied_with_the_heap_match_the_reference() {
    // Every push at one instant: lanes and heap interleave by seq alone.
    run_lane_cases(0xD1F_0102, |_| 0, 20, 2);
    // Gaps of 0-2 us: frequent ties among lane heads and the heap top.
    run_lane_cases(0xD1F_0103, |rng| rng.below(3), 20, 2);
}

#[test]
fn lanes_running_far_ahead_of_the_heap_match_the_reference() {
    // Heavy-tailed gaps let lane tails run far ahead of the heap's
    // cluster, as link completions queued hours ahead do in a workflow.
    run_lane_cases(0xD1F_0104, |rng| 1u64 << rng.below(24), 20, 2);
}

#[test]
fn cancellations_between_lane_pops_match_the_reference() {
    run_lane_cases(0xD1F_0105, |rng| rng.below(200), 40, 2);
}

#[test]
fn reset_between_lane_rounds_matches_a_fresh_queue() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0xD1F_0106 ^ case);
        let mut q = EventQueue::new();
        for lanes in [2, 1, 0, 2] {
            drive_round(&mut rng, &mut q, &|rng| rng.below(300), 20, lanes, case);
            q.reset();
        }
    }
}
