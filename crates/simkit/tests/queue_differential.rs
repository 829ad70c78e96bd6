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
//! pops. The marker streams also push payload-free lane markers, which
//! the reference keeps as heap entries without a payload: they take their
//! `(time, seq)` place among all other events and count as pending and
//! as popped, but a pop never returns one. The batch streams add runs of
//! 1-8 entries pushed with one `push_fifo_batch` (markers, then one
//! payload), on times coarse enough to tie with the heap and the other
//! lane, and compare the popped item, `len`, `popped`, the clock,
//! `peek_time` and the stats after every operation: the queue consumes a
//! lane's run of markers in one pass, bounded by the other heads, and
//! each of those steps can go wrong on its own. Each case is seeded from
//! its index, so a failure message identifies a reproducible stream.
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
/// with lazy cancellation. A marker is an entry with no payload.
#[derive(Default, Clone)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, Option<usize>)>>,
    /// Indexed by seq; set when an event is cancelled *or* consumed, so
    /// `cancel` on a popped event reports `false` like the real queue.
    dead: Vec<bool>,
    popped: u64,
    cancelled: u64,
    live: u64,
    peak_pending: u64,
    /// Time of the last entry popped, marker or not.
    now: SimTime,
}

impl ReferenceQueue {
    fn push(&mut self, time: SimTime, payload: Option<usize>) -> u64 {
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

    /// Pops entries in order until one with a payload comes off; the
    /// markers on the way count as popped.
    fn pop(&mut self) -> Option<(SimTime, usize)> {
        while let Some(Reverse((time, seq, payload))) = self.heap.pop() {
            if !std::mem::replace(&mut self.dead[seq as usize], true) {
                self.live -= 1;
                self.popped += 1;
                self.now = time;
                if let Some(payload) = payload {
                    return Some((time, payload));
                }
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

/// What a stream pushes onto its lanes.
#[derive(Clone, Copy, PartialEq)]
enum LanePushes {
    /// Events with payloads only.
    Plain,
    /// Half the lane pushes are markers.
    Markers,
    /// As `Markers`, and half the lane operations instead push a run of
    /// 1-8 entries with one `push_fifo_batch`.
    Batches,
}

/// Drives one operation stream through both queues and returns the
/// queue's stats after the drain. `gap` draws the inter-event spacing in
/// microseconds; `cancel_pct` is the share of operations (out of 100) that
/// cancel a random earlier heap event. With `lanes > 0` each push goes to
/// the heap or to one of `lanes` FIFO lanes, drawn uniformly; a lane's
/// times never decrease. With `lanes == 0` no lane choice is drawn, so a
/// heap-only stream's draws, and its golden line, do not depend on the
/// lane code. `pushes` says what goes onto the lanes; with
/// [`LanePushes::Batches`] `peek_time` is also compared after every
/// operation, on clones so the comparison does not drop cancelled keys
/// early.
fn drive_round(
    rng: &mut SimRng,
    q: &mut EventQueue<usize>,
    gap: &dyn Fn(&mut SimRng) -> u64,
    cancel_pct: u64,
    lanes: usize,
    pushes: LanePushes,
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
                    let seq = reference.push(time, Some(payload));
                    ids.push((id, seq));
                }
                Some(lane) if pushes == LanePushes::Batches && rng.chance(0.5) => {
                    let mut tail = lane_tail[lane].max(now);
                    let times: Vec<SimTime> = (0..1 + rng.below(8))
                        .map(|_| {
                            tail = tail.saturating_add(gap(rng));
                            SimTime::from_micros(tail)
                        })
                        .collect();
                    lane_tail[lane] = tail;
                    q.push_fifo_batch(lane, times.iter().copied(), payload);
                    let (last, markers) = times.split_last().unwrap();
                    for &time in markers {
                        reference.push(time, None);
                    }
                    reference.push(*last, Some(payload));
                }
                Some(lane) => {
                    let tail = &mut lane_tail[lane];
                    *tail = (*tail).max(now).saturating_add(gap(rng));
                    let time = SimTime::from_micros(*tail);
                    if pushes != LanePushes::Plain && rng.chance(0.5) {
                        q.push_fifo_marker(lane, time);
                        reference.push(time, None);
                    } else {
                        q.push_fifo(lane, time, payload);
                        reference.push(time, Some(payload));
                    }
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
            // Consumed markers advance the clock too, even when nothing
            // is returned (`check_state` compares it below).
            now = q.now().as_micros();
        } else {
            assert_eq!(
                q.peek_time(),
                reference.peek_time(),
                "case {case}: peek diverged"
            );
        }
        check_state(q, &reference, pushes == LanePushes::Batches, case);
    }
    // Drain both to the end: tails are where bookkeeping errors would
    // surface as lost or duplicated events.
    loop {
        let real = q.pop();
        assert_eq!(real, reference.pop(), "case {case}: drain diverged");
        check_state(q, &reference, pushes == LanePushes::Batches, case);
        if real.is_none() {
            break;
        }
    }
    assert!(q.is_empty(), "case {case}: queue not empty after drain");
    q.stats()
}

/// Asserts that the queue's observable state matches the reference's:
/// `len`, `popped`, the clock and the stats, plus, with `peek`,
/// `peek_time` (taken on clones, so neither side drops dead keys it
/// would otherwise have kept).
fn check_state(q: &EventQueue<usize>, reference: &ReferenceQueue, peek: bool, case: u64) {
    assert_eq!(q.len() as u64, reference.live, "case {case}: len diverged");
    assert_eq!(q.popped(), reference.popped, "case {case}: popped diverged");
    assert_eq!(q.now(), reference.now, "case {case}: clock diverged");
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
    if peek {
        assert_eq!(
            q.clone().peek_time(),
            reference.clone().peek_time(),
            "case {case}: peek diverged"
        );
    }
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
        let stats = drive_round(
            &mut rng,
            &mut q,
            &gap,
            cancel_pct,
            0,
            LanePushes::Plain,
            case,
        );
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
            let stats = drive_round(&mut rng, &mut q, gap, 20, 0, LanePushes::Plain, label);
            stats_line(&mut golden, label, stats);
            q.reset();
        }
    }
    check_stats_golden("reset_rounds", &golden);
}

/// Runs `CASES` lane streams against the reference (no golden: the
/// reference itself checks the stats); `pushes` says what goes onto the
/// lanes.
fn run_lane_cases(
    seed: u64,
    gap: impl Fn(&mut SimRng) -> u64,
    cancel_pct: u64,
    lanes: usize,
    pushes: LanePushes,
) {
    for case in 0..CASES {
        let mut rng = SimRng::new(seed ^ case);
        let mut q = EventQueue::new();
        drive_round(&mut rng, &mut q, &gap, cancel_pct, lanes, pushes, case);
    }
}

#[test]
fn one_lane_mixed_with_the_heap_matches_the_reference() {
    run_lane_cases(0xD1F_0101, |rng| rng.below(1_000), 20, 1, LanePushes::Plain);
}

#[test]
fn two_lanes_tied_with_the_heap_match_the_reference() {
    // Every push at one instant: lanes and heap interleave by seq alone.
    run_lane_cases(0xD1F_0102, |_| 0, 20, 2, LanePushes::Plain);
    // Gaps of 0-2 us: frequent ties among lane heads and the heap top.
    run_lane_cases(0xD1F_0103, |rng| rng.below(3), 20, 2, LanePushes::Plain);
}

#[test]
fn lanes_running_far_ahead_of_the_heap_match_the_reference() {
    // Heavy-tailed gaps let lane tails run far ahead of the heap's
    // cluster, as link completions queued hours ahead do in a workflow.
    run_lane_cases(
        0xD1F_0104,
        |rng| 1u64 << rng.below(24),
        20,
        2,
        LanePushes::Plain,
    );
}

#[test]
fn cancellations_between_lane_pops_match_the_reference() {
    run_lane_cases(0xD1F_0105, |rng| rng.below(200), 40, 2, LanePushes::Plain);
}

#[test]
fn reset_between_lane_rounds_matches_a_fresh_queue() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0xD1F_0106 ^ case);
        let mut q = EventQueue::new();
        for lanes in [2, 1, 0, 2] {
            drive_round(
                &mut rng,
                &mut q,
                &|rng| rng.below(300),
                20,
                lanes,
                LanePushes::Plain,
                case,
            );
            q.reset();
        }
    }
}

#[test]
fn markers_on_one_lane_match_the_reference() {
    run_lane_cases(
        0xD1F_0201,
        |rng| rng.below(1_000),
        20,
        1,
        LanePushes::Markers,
    );
}

#[test]
fn markers_tied_with_the_heap_and_other_lanes_match_the_reference() {
    // Every push at one instant: markers keep their place by seq alone.
    run_lane_cases(0xD1F_0202, |_| 0, 20, 2, LanePushes::Markers);
    run_lane_cases(0xD1F_0203, |rng| rng.below(3), 20, 2, LanePushes::Markers);
}

#[test]
fn markers_running_far_ahead_with_cancellations_match_the_reference() {
    run_lane_cases(
        0xD1F_0204,
        |rng| 1u64 << rng.below(24),
        40,
        2,
        LanePushes::Markers,
    );
}

#[test]
fn reset_between_marker_rounds_matches_a_fresh_queue() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0xD1F_0205 ^ case);
        let mut q = EventQueue::new();
        let rounds = [
            (2, LanePushes::Batches),
            (1, LanePushes::Markers),
            (0, LanePushes::Plain),
            (2, LanePushes::Batches),
        ];
        for (lanes, pushes) in rounds {
            drive_round(
                &mut rng,
                &mut q,
                &|rng| rng.below(300),
                20,
                lanes,
                pushes,
                case,
            );
            q.reset();
        }
    }
}

#[test]
fn batches_on_one_lane_match_the_reference() {
    run_lane_cases(
        0xD1F_0301,
        |rng| rng.below(3) * 10,
        20,
        1,
        LanePushes::Batches,
    );
}

#[test]
fn batches_tied_with_the_heap_and_the_other_lane_match_the_reference() {
    // Every push at one instant: a run of markers ends at the other
    // heads by seq alone.
    run_lane_cases(0xD1F_0302, |_| 0, 20, 2, LanePushes::Batches);
    // Coarse times: runs tie with the heap top and the other lane's head.
    run_lane_cases(
        0xD1F_0303,
        |rng| rng.below(3) * 10,
        20,
        2,
        LanePushes::Batches,
    );
}

#[test]
fn batches_running_far_ahead_with_cancellations_match_the_reference() {
    run_lane_cases(
        0xD1F_0304,
        |rng| 1u64 << rng.below(24),
        40,
        2,
        LanePushes::Batches,
    );
}
