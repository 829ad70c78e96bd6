//! Randomized-property tests for the simulation kernel's core invariants.
//!
//! Each test runs many independently seeded cases through [`SimRng`], so
//! failures are reproducible: the case index is part of the seed and is
//! reported in the assertion message.

use mcloud_simkit::{
    EventQueue, FcfsChannel, ProcessorPool, SimDuration, SimRng, SimTime, TimeWeighted,
};

const CASES: u64 = 64;

/// Events always pop in non-decreasing time order, and same-time events
/// pop in insertion order.
#[test]
fn queue_order_is_total_and_stable() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x51_0001 ^ case);
        let n = 1 + rng.below(200) as usize;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_micros(rng.below(1_000)), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t >= lt, "case {case}: time went backwards");
                if t == lt {
                    assert!(i > li, "case {case}: FIFO violated for same-time events");
                }
            }
            last = Some((t, i));
        }
    }
}

/// Cancelled events never surface; everything else does, exactly once.
#[test]
fn cancellation_is_exact() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x51_0002 ^ case);
        let n = 1 + rng.below(100) as usize;
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..n)
            .map(|i| (i, q.push(SimTime::from_micros(rng.below(1_000)), i)))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in &ids {
            if rng.chance(0.5) {
                assert!(q.cancel(*id), "case {case}: live event must cancel");
            } else {
                expect.push(*i);
            }
        }
        let mut seen: Vec<usize> = Vec::new();
        while let Some((_, i)) = q.pop() {
            seen.push(i);
        }
        seen.sort_unstable();
        expect.sort_unstable();
        assert_eq!(seen, expect, "case {case}");
    }
}

/// FCFS channel: transfers never overlap, never start before submission,
/// and total busy time equals the sum of service times.
#[test]
fn channel_is_serial_and_work_conserving() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x51_0003 ^ case);
        let n = 1 + rng.below(100) as usize;
        let mut submissions: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.below(10_000), rng.below(5_000_000)))
            .collect();
        submissions.sort_by_key(|&(t, _)| t);
        let mut link = FcfsChannel::new(10_000_000.0);
        let mut prev_finish = SimTime::ZERO;
        let mut expect_bytes = 0u64;
        for &(t_us, bytes) in &submissions {
            let now = SimTime::from_micros(t_us);
            let g = link.submit(now, bytes);
            assert!(g.start >= now, "case {case}: started before submission");
            assert!(g.start >= prev_finish, "case {case}: transfers overlap");
            assert_eq!(
                g.finish,
                g.start + SimDuration::transfer_time(bytes, 10_000_000.0),
                "case {case}"
            );
            prev_finish = g.finish;
            expect_bytes += bytes;
        }
        assert_eq!(link.total_bytes(), expect_bytes, "case {case}");
        assert_eq!(link.busy_until(), prev_finish, "case {case}");
    }
}

/// FCFS channel: grants finish in submission order, whatever the
/// submission instants (here drawn unsorted), however many transfers carry
/// zero bytes, and however the blackout windows stretch them. The engine
/// relies on this to queue each link's completions on one FIFO lane of
/// the event queue.
#[test]
fn channel_finishes_in_submission_order() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x51_0007 ^ case);
        let mut link = FcfsChannel::new(1_000_000.0 * (1 + rng.below(100)) as f64);
        let mut window_end = 0u64;
        for _ in 0..rng.below(6) {
            let start = window_end + 1 + rng.below(2_000_000);
            window_end = start + 1 + rng.below(1_000_000);
            link.add_blackout(
                SimTime::from_micros(start),
                SimTime::from_micros(window_end),
            );
        }
        let mut prev_finish = SimTime::ZERO;
        for i in 0..1 + rng.below(200) {
            let now = SimTime::from_micros(rng.below(window_end + 1_000_000));
            let bytes = if rng.chance(0.3) {
                0
            } else {
                rng.below(500_000)
            };
            let g = link.submit(now, bytes);
            assert!(
                g.finish >= prev_finish,
                "case {case}: transfer {i} finished at {} before its predecessor at {}",
                g.finish,
                prev_finish
            );
            prev_finish = g.finish;
        }
    }
}

/// Booking a run of transfers submitted at one instant is `k` consecutive
/// `submit_for` calls: the run starts at `run_start`, each transfer
/// finishes at that start plus the link times so far, and the channel's
/// counters end where the single calls leave them. Runs are submitted
/// both before and after the link frees up and carry zero-byte files; a
/// channel with blackout windows offers no run start, and its runs take
/// the per-transfer fallback.
#[test]
fn run_booking_matches_consecutive_submits() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x51_0008 ^ case);
        let bandwidth = 1_000_000.0 * (1 + rng.below(100)) as f64;
        let mut booked = FcfsChannel::new(bandwidth);
        let mut window_end = 0u64;
        if rng.chance(0.3) {
            for _ in 0..1 + rng.below(4) {
                let start = window_end + 1 + rng.below(2_000_000);
                window_end = start + 1 + rng.below(1_000_000);
                let (start, end) = (
                    SimTime::from_micros(start),
                    SimTime::from_micros(window_end),
                );
                booked.add_blackout(start, end);
            }
        }
        let blackouts = window_end > 0;
        let mut single = booked.clone();
        let mut now = SimTime::ZERO;
        for run in 0..1 + rng.below(40) {
            // Half the runs arrive while the link is still busy.
            now = if rng.chance(0.5) {
                let back = rng.below(500_000);
                now.max(SimTime::from_micros(
                    single.busy_until().as_micros().saturating_sub(back),
                ))
            } else {
                single.busy_until() + SimDuration::from_micros(rng.below(500_000))
            };
            let files: Vec<(u64, SimDuration)> = (0..1 + rng.below(8))
                .map(|_| {
                    let bytes = if rng.chance(0.3) {
                        0
                    } else {
                        rng.below(500_000)
                    };
                    (bytes, SimDuration::transfer_time(bytes, bandwidth))
                })
                .collect();
            let want: Vec<SimTime> = files
                .iter()
                .map(|&(bytes, service)| single.submit_for(now, bytes, service).finish)
                .collect();
            let got: Vec<SimTime> = match booked.run_start(now) {
                Some(start) => {
                    assert!(!blackouts, "case {case}: a run start despite blackouts");
                    let mut finish = start;
                    let finishes = files
                        .iter()
                        .map(|&(_, service)| {
                            finish += service;
                            finish
                        })
                        .collect();
                    let bytes = files.iter().map(|&(b, _)| b).sum();
                    booked.book_run(now, files.len() as u64, bytes, finish.since(start));
                    finishes
                }
                None => {
                    assert!(blackouts, "case {case}: no run start without blackouts");
                    files
                        .iter()
                        .map(|&(bytes, service)| booked.submit_for(now, bytes, service).finish)
                        .collect()
                }
            };
            assert_eq!(got, want, "case {case}, run {run}: finishes differ");
            assert_eq!(booked.busy_until(), single.busy_until(), "case {case}");
            assert_eq!(booked.total_bytes(), single.total_bytes(), "case {case}");
            assert_eq!(booked.busy_time(), single.busy_time(), "case {case}");
            assert_eq!(booked.transfers(), single.transfers(), "case {case}");
        }
    }
}

/// Step-function integral matches a brute-force Riemann sum over the
/// same updates.
#[test]
fn integral_matches_bruteforce() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x51_0004 ^ case);
        let n = 1 + rng.below(100) as usize;
        let mut curve = TimeWeighted::new();
        let mut t = 0u64;
        let mut value = 0f64;
        let mut brute = 0f64;
        for _ in 0..n {
            let dt = 1 + rng.below(999);
            let dv = rng.below(200) as i64 - 100;
            t += dt;
            // area accumulated while `value` held over [t-dt, t]
            brute += value * dt as f64 / 1e6;
            value += dv as f64;
            curve.add(SimTime::from_micros(t), dv as f64);
        }
        let integral = curve.integral(SimTime::from_micros(t));
        assert!(
            (integral - brute).abs() <= 1e-6 * brute.abs().max(1.0),
            "case {case}: integral {integral} vs brute {brute}"
        );
        assert!((curve.value() - value).abs() < 1e-9, "case {case}");
    }
}

/// Pool: never over-allocates, and busy time equals the sum of held
/// intervals when everything is released.
#[test]
fn pool_conserves_slots() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x51_0005 ^ case);
        let capacity = 1 + rng.below(15) as u32;
        let n = 1 + rng.below(200) as usize;
        let mut pool = ProcessorPool::new(capacity);
        let mut held: Vec<_> = Vec::new();
        let mut now_us = 0u64;
        let mut expected_busy = 0u64;
        let mut acquired_at: Vec<u64> = Vec::new();
        for _ in 0..n {
            now_us += 1_000;
            let now = SimTime::from_micros(now_us);
            if rng.chance(0.5) {
                if let Some(p) = pool.try_acquire(now) {
                    held.push(p);
                    acquired_at.push(now_us);
                    assert!(pool.in_use() <= capacity, "case {case}: over-allocated");
                }
            } else if let Some(p) = held.pop() {
                let since = acquired_at.pop().unwrap();
                expected_busy += now_us - since;
                pool.release(now, p);
            }
        }
        // Release the rest.
        now_us += 1_000;
        for p in held.drain(..).rev() {
            let since = acquired_at.pop().unwrap();
            expected_busy += now_us - since;
            pool.release(SimTime::from_micros(now_us), p);
        }
        assert_eq!(pool.busy_time().as_micros(), expected_busy, "case {case}");
        assert_eq!(pool.in_use(), 0, "case {case}");
    }
}

/// Transfer time scales linearly in bytes (up to rounding) and is
/// monotone in bandwidth.
#[test]
fn transfer_time_is_sane() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x51_0006 ^ case);
        let bytes = 1 + rng.below(1_000_000_000);
        let bw = (1 + rng.below(999)) as f64 * 1e6;
        let d1 = SimDuration::transfer_time(bytes, bw);
        let d2 = SimDuration::transfer_time(bytes, bw * 2.0);
        assert!(d2 <= d1, "case {case}: more bandwidth must not be slower");
        let exact = bytes as f64 * 8.0 / bw;
        assert!(
            (d1.as_secs_f64() - exact).abs() <= 1e-6 + exact * 1e-9,
            "case {case}: {} vs {exact}",
            d1.as_secs_f64()
        );
    }
}
