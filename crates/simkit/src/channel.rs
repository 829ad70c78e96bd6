//! FCFS serial-channel model for the user <-> cloud-storage link.
//!
//! The paper fixes the bandwidth between the user and the storage resource
//! at 10 Mbps and moves files over it one at a time (GridSim's default link
//! is a serial FCFS resource). `FcfsChannel` reproduces that analytically:
//! a transfer submitted at `now` starts when the link frees up and holds it
//! for `bytes * 8 / bandwidth` seconds.

use crate::time::{SimDuration, SimTime};

/// Completed-transfer record returned by [`FcfsChannel::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferGrant {
    /// When the transfer begins occupying the channel.
    pub start: SimTime,
    /// When the last byte arrives; the channel is free from this instant.
    pub finish: SimTime,
    /// Payload size in bytes.
    pub bytes: u64,
}

impl TransferGrant {
    /// Queueing delay experienced before the transfer started.
    pub fn wait(&self, submitted: SimTime) -> SimDuration {
        self.start.since(submitted)
    }

    /// Time spent actually moving bytes.
    pub fn service(&self) -> SimDuration {
        self.finish.since(self.start)
    }
}

/// A serial first-come-first-served channel of fixed bandwidth.
///
/// ```
/// use mcloud_simkit::{FcfsChannel, SimTime};
///
/// // The paper's 10 Mbps user<->storage link.
/// let mut link = FcfsChannel::new(10_000_000.0);
/// let a = link.submit(SimTime::ZERO, 1_250_000); // 1.25 MB = 1 s
/// let b = link.submit(SimTime::ZERO, 1_250_000); // queues behind `a`
/// assert_eq!(a.finish, SimTime::from_secs_f64(1.0));
/// assert_eq!(b.start, a.finish);
/// assert_eq!(b.finish, SimTime::from_secs_f64(2.0));
/// ```
#[derive(Debug, Clone)]
pub struct FcfsChannel {
    bits_per_sec: f64,
    busy_until: SimTime,
    total_bytes: u64,
    busy_time: SimDuration,
    transfers: u64,
    /// Sorted, non-overlapping windows during which the channel makes no
    /// progress (e.g. a storage-service outage).
    blackouts: Vec<(SimTime, SimTime)>,
}

impl FcfsChannel {
    /// Creates an idle channel of the given bandwidth (bits per second).
    ///
    /// # Panics
    /// Panics if the bandwidth is not strictly positive and finite.
    pub fn new(bits_per_sec: f64) -> Self {
        assert!(
            bits_per_sec.is_finite() && bits_per_sec > 0.0,
            "bandwidth must be positive and finite, got {bits_per_sec}"
        );
        FcfsChannel {
            bits_per_sec,
            busy_until: SimTime::ZERO,
            total_bytes: 0,
            busy_time: SimDuration::ZERO,
            transfers: 0,
            blackouts: Vec::new(),
        }
    }

    /// Declares a window during which the channel makes no progress — the
    /// paper notes S3 "went down twice in the first 7 months of 2008" and
    /// asks what such outages do to applications. Windows must be added in
    /// increasing order, must not overlap, and must lie in the future of
    /// any already-submitted transfer.
    ///
    /// # Panics
    /// Panics if the window is empty, overlaps an existing one, or starts
    /// before channel activity that has already been committed.
    pub fn add_blackout(&mut self, start: SimTime, end: SimTime) {
        assert!(start < end, "blackout window must be non-empty");
        assert!(
            start >= self.busy_until,
            "blackout at {start} overlaps already-committed transfers"
        );
        if let Some(&(_, prev_end)) = self.blackouts.last() {
            assert!(
                start >= prev_end,
                "blackout windows must be ordered and disjoint"
            );
        }
        self.blackouts.push((start, end));
    }

    /// Channel bandwidth in bits per second.
    pub fn bandwidth(&self) -> f64 {
        self.bits_per_sec
    }

    /// Enqueues a transfer submitted at `now`, returning its start/finish
    /// instants. Zero-byte transfers complete immediately (but still queue
    /// behind in-flight work, matching a zero-payload control message).
    pub fn submit(&mut self, now: SimTime, bytes: u64) -> TransferGrant {
        self.submit_for(
            now,
            bytes,
            SimDuration::transfer_time(bytes, self.bits_per_sec),
        )
    }

    /// [`submit`](Self::submit) with the transfer's link time already
    /// known: `service` must equal
    /// `SimDuration::transfer_time(bytes, self.bandwidth())`, so a caller
    /// that moves the same file many times can compute it once.
    pub fn submit_for(&mut self, now: SimTime, bytes: u64, service: SimDuration) -> TransferGrant {
        debug_assert_eq!(
            service,
            SimDuration::transfer_time(bytes, self.bits_per_sec),
            "link time does not match the bandwidth"
        );
        let start = self.busy_until.max(now);
        // Walk the blackout windows: the transfer makes progress only
        // outside them, so its span stretches by every overlapped window.
        let mut t = start;
        let mut remaining = service;
        for &(b_start, b_end) in &self.blackouts {
            if b_start >= t + remaining {
                break; // transfer done before this outage begins
            }
            if b_end <= t {
                continue; // outage already over
            }
            // Progress until the outage starts (if any), then stall.
            if b_start > t {
                remaining -= b_start.since(t);
            }
            t = b_end;
        }
        let finish = t + remaining;
        self.busy_until = finish;
        self.total_bytes += bytes;
        self.busy_time += service;
        self.transfers += 1;
        TransferGrant {
            start,
            finish,
            bytes,
        }
    }

    /// Where a run of transfers submitted back to back at `now` would
    /// start, if [`book_run`](Self::book_run) can book it: the later of
    /// `now` and [`busy_until`](Self::busy_until). `None` when the channel
    /// has blackout windows, which stretch each transfer separately:
    /// such a run goes through [`submit_for`](Self::submit_for) one
    /// transfer at a time.
    pub fn run_start(&self, now: SimTime) -> Option<SimTime> {
        self.blackouts.is_empty().then(|| self.busy_until.max(now))
    }

    /// Books a run of `count` transfers submitted back to back at `now`,
    /// moving `bytes` in `service` of link time all told, in O(1). With
    /// no blackout windows this is exactly `count` consecutive
    /// [`submit_for`](Self::submit_for) calls: each transfer starts when
    /// its predecessor finishes, so the `i`-th finishes at
    /// [`run_start`](Self::run_start)`(now)` plus the link times of the
    /// first `i`, and the counters grow by the run's sums: the channel is
    /// busy until the start plus `service`.
    ///
    /// # Panics
    /// Panics if the channel has blackout windows (see
    /// [`run_start`](Self::run_start)).
    pub fn book_run(&mut self, now: SimTime, count: u64, bytes: u64, service: SimDuration) {
        let start = self
            .run_start(now)
            .expect("a channel with blackout windows books transfers one at a time");
        self.busy_until = start + service;
        self.total_bytes += bytes;
        self.busy_time += service;
        self.transfers += count;
    }

    /// The instant from which the channel is idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total bytes ever moved.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Number of transfers served.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Cumulative time the channel spent moving bytes.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Fraction of `[0, horizon]` the channel was busy.
    ///
    /// # Panics
    /// Panics if `horizon` is zero.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        assert!(
            horizon > SimTime::ZERO,
            "utilization needs a positive horizon"
        );
        self.busy_time.as_secs_f64() / horizon.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MBPS10: f64 = 10_000_000.0;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn idle_channel_starts_immediately() {
        let mut link = FcfsChannel::new(MBPS10);
        let g = link.submit(t(5.0), 2_500_000); // 2.5 MB = 2 s
        assert_eq!(g.start, t(5.0));
        assert_eq!(g.finish, t(7.0));
        assert_eq!(g.wait(t(5.0)), SimDuration::ZERO);
        assert_eq!(g.service(), SimDuration::from_secs(2));
    }

    #[test]
    fn busy_channel_queues_fcfs() {
        let mut link = FcfsChannel::new(MBPS10);
        let a = link.submit(t(0.0), 12_500_000); // 10 s
        let b = link.submit(t(1.0), 1_250_000); // submitted while busy
        assert_eq!(a.finish, t(10.0));
        assert_eq!(b.start, t(10.0));
        assert_eq!(b.finish, t(11.0));
        assert_eq!(b.wait(t(1.0)), SimDuration::from_secs(9));
    }

    #[test]
    fn channel_goes_idle_between_bursts() {
        let mut link = FcfsChannel::new(MBPS10);
        link.submit(t(0.0), 1_250_000); // busy until 1 s
        let g = link.submit(t(100.0), 1_250_000);
        assert_eq!(g.start, t(100.0));
        assert_eq!(g.finish, t(101.0));
    }

    #[test]
    fn accounting_accumulates() {
        let mut link = FcfsChannel::new(MBPS10);
        link.submit(t(0.0), 1_250_000);
        link.submit(t(0.0), 1_250_000);
        assert_eq!(link.total_bytes(), 2_500_000);
        assert_eq!(link.transfers(), 2);
        assert_eq!(link.busy_time(), SimDuration::from_secs(2));
        assert!((link.utilization(t(4.0)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_transfer_is_instant() {
        let mut link = FcfsChannel::new(MBPS10);
        let g = link.submit(t(3.0), 0);
        assert_eq!(g.start, g.finish);
        assert_eq!(g.finish, t(3.0));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_nonpositive_bandwidth() {
        FcfsChannel::new(-1.0);
    }

    #[test]
    fn blackout_stalls_a_transfer_mid_flight() {
        let mut link = FcfsChannel::new(MBPS10);
        // Outage from t=5 to t=8; a 10 s transfer starting at t=0 loses
        // 3 s of progress and finishes at 13.
        link.add_blackout(t(5.0), t(8.0));
        let g = link.submit(t(0.0), 12_500_000);
        assert_eq!(g.start, t(0.0));
        assert_eq!(g.finish, t(13.0));
        // Pure service time is still 10 s.
        assert_eq!(link.busy_time(), SimDuration::from_secs(10));
    }

    #[test]
    fn blackout_delays_a_transfer_submitted_during_it() {
        let mut link = FcfsChannel::new(MBPS10);
        link.add_blackout(t(10.0), t(20.0));
        let g = link.submit(t(12.0), 1_250_000);
        // No progress until the outage lifts at 20.
        assert_eq!(g.finish, t(21.0));
    }

    #[test]
    fn transfer_before_blackout_is_untouched() {
        let mut link = FcfsChannel::new(MBPS10);
        link.add_blackout(t(100.0), t(200.0));
        let g = link.submit(t(0.0), 1_250_000);
        assert_eq!(g.finish, t(1.0));
    }

    #[test]
    fn transfer_spanning_two_blackouts() {
        let mut link = FcfsChannel::new(MBPS10);
        link.add_blackout(t(1.0), t(2.0));
        link.add_blackout(t(3.0), t(5.0));
        // 4 s of service starting at 0: 1 s, stall 1, 1 s, stall 2, 2 s.
        let g = link.submit(t(0.0), 5_000_000);
        assert_eq!(g.finish, t(7.0));
    }

    #[test]
    fn queueing_behind_a_stalled_transfer() {
        let mut link = FcfsChannel::new(MBPS10);
        link.add_blackout(t(5.0), t(8.0));
        let a = link.submit(t(0.0), 12_500_000); // finishes 13 (see above)
        let b = link.submit(t(0.0), 1_250_000);
        assert_eq!(b.start, a.finish);
        assert_eq!(b.finish, t(14.0));
    }

    #[test]
    fn a_booked_run_is_its_transfers_back_to_back() {
        let mut link = FcfsChannel::new(MBPS10);
        link.submit(t(0.0), 12_500_000); // busy until 10
        assert_eq!(link.run_start(t(4.0)), Some(t(10.0)));
        // 1 s, then a zero-byte file, then 2 s.
        link.book_run(t(4.0), 3, 3_750_000, SimDuration::from_secs(3));
        assert_eq!(link.busy_until(), t(13.0));
        assert_eq!(link.transfers(), 4);
        assert_eq!(link.total_bytes(), 16_250_000);
        assert_eq!(link.busy_time(), SimDuration::from_secs(13));
    }

    #[test]
    #[should_panic(expected = "books transfers one at a time")]
    fn a_channel_with_blackouts_books_no_runs() {
        let mut link = FcfsChannel::new(MBPS10);
        link.add_blackout(t(5.0), t(8.0));
        assert_eq!(link.run_start(t(0.0)), None);
        link.book_run(t(0.0), 1, 1_250_000, SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "ordered and disjoint")]
    fn overlapping_blackouts_rejected() {
        let mut link = FcfsChannel::new(MBPS10);
        link.add_blackout(t(5.0), t(8.0));
        link.add_blackout(t(7.0), t(9.0));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_blackout_rejected() {
        let mut link = FcfsChannel::new(MBPS10);
        link.add_blackout(t(5.0), t(5.0));
    }

    #[test]
    #[should_panic(expected = "already-committed")]
    fn blackout_in_the_past_rejected() {
        let mut link = FcfsChannel::new(MBPS10);
        link.submit(t(0.0), 12_500_000); // busy until 10
        link.add_blackout(t(4.0), t(6.0));
    }
}
