//! Simulation statistics: time-weighted step-function integration and
//! running scalar statistics.
//!
//! The paper's storage metric is "the area under the curve" of storage
//! occupancy over time (GB-hours). [`TimeWeighted`] integrates exactly that
//! step function, and additionally tracks the peak and the time-weighted
//! mean. [`RunningStats`] is a Welford accumulator used for task-duration
//! and queueing summaries.

use crate::time::{SimDuration, SimTime};

/// Integrates a right-continuous step function of simulation time.
///
/// Typical use: occupancy of a storage resource in bytes.
///
/// ```
/// use mcloud_simkit::{SimTime, TimeWeighted};
///
/// let mut storage = TimeWeighted::new();
/// storage.add(SimTime::ZERO, 100.0);            // 100 bytes at t=0
/// storage.add(SimTime::from_secs_f64(10.0), -100.0); // freed at t=10
/// // 100 bytes held for 10 s = 1000 byte-seconds.
/// assert_eq!(storage.integral(SimTime::from_secs_f64(10.0)), 1000.0);
/// ```
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: SimTime,
    value: f64,
    integral: f64,
    peak: f64,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// A zero-valued curve starting at `t = 0`.
    pub fn new() -> Self {
        TimeWeighted {
            last_time: SimTime::ZERO,
            value: 0.0,
            integral: 0.0,
            peak: 0.0,
        }
    }

    /// Advances the curve to `now` without changing the value.
    ///
    /// # Panics
    /// Panics if `now` precedes a previously observed instant (updates must
    /// arrive in time order, as they do from an event loop).
    pub fn advance(&mut self, now: SimTime) {
        if now == self.last_time {
            // Exact to skip: the update would add a zero-length span.
            return;
        }
        let dt = now.since(self.last_time); // panics if time runs backwards
        self.integral += self.value * dt.as_secs_f64();
        self.last_time = now;
    }

    /// Sets the value at `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        self.advance(now);
        self.value = value;
        self.peak = self.peak.max(value);
    }

    /// Adds `delta` (possibly negative) to the value at `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// The current value of the curve.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The largest value the curve ever reached.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// The integral of the curve over `[0, until]` in value-seconds.
    ///
    /// `until` must be at or after the last update.
    pub fn integral(&self, until: SimTime) -> f64 {
        let dt = until.since(self.last_time);
        self.integral + self.value * dt.as_secs_f64()
    }

    /// Time-weighted mean over `[0, until]`; zero for an empty horizon.
    pub fn mean(&self, until: SimTime) -> f64 {
        if until == SimTime::ZERO {
            return 0.0;
        }
        self.integral(until) / until.as_secs_f64()
    }
}

/// Welford running statistics over scalar observations.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        if self.n == 1 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Records a duration, in seconds.
    pub fn push_duration(&mut self, d: SimDuration) {
        self.push(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (zero when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (zero when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (zero when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn integrates_a_box() {
        let mut c = TimeWeighted::new();
        c.set(t(2.0), 5.0);
        c.set(t(4.0), 0.0);
        assert_eq!(c.integral(t(10.0)), 10.0); // 5 for 2 s
        assert_eq!(c.peak(), 5.0);
        assert!((c.mean(t(10.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn integrates_a_staircase() {
        let mut c = TimeWeighted::new();
        c.add(t(0.0), 1.0);
        c.add(t(1.0), 1.0);
        c.add(t(2.0), 1.0);
        c.add(t(3.0), -3.0);
        // 1*1 + 2*1 + 3*1 = 6 value-seconds.
        assert_eq!(c.integral(t(3.0)), 6.0);
        assert_eq!(c.value(), 0.0);
        assert_eq!(c.peak(), 3.0);
    }

    #[test]
    fn integral_extends_flat_tail() {
        let mut c = TimeWeighted::new();
        c.set(t(0.0), 2.0);
        assert_eq!(c.integral(t(5.0)), 10.0);
        assert_eq!(c.integral(t(7.0)), 14.0); // pure query, no mutation
        assert_eq!(c.integral(t(5.0)), 10.0);
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn rejects_time_travel() {
        let mut c = TimeWeighted::new();
        c.set(t(5.0), 1.0);
        c.set(t(4.0), 2.0);
    }

    #[test]
    fn mean_of_empty_horizon_is_zero() {
        let c = TimeWeighted::new();
        assert_eq!(c.mean(SimTime::ZERO), 0.0);
    }

    #[test]
    fn set_before_any_advance_starts_the_curve_cleanly() {
        // First update arrives mid-simulation: the curve was implicitly zero
        // over [0, 3), so only the tail contributes.
        let mut c = TimeWeighted::new();
        c.set(t(3.0), 4.0);
        assert_eq!(c.integral(t(5.0)), 8.0);
        assert_eq!(c.peak(), 4.0);
        // And a set at exactly t = 0 contributes over the whole horizon.
        let mut d = TimeWeighted::new();
        d.set(SimTime::ZERO, 4.0);
        assert_eq!(d.integral(t(5.0)), 20.0);
    }

    #[test]
    fn repeated_same_timestamp_updates_contribute_zero_width() {
        let mut c = TimeWeighted::new();
        c.set(t(1.0), 100.0);
        c.set(t(1.0), 7.0); // overwrites before any time passes
        c.add(t(1.0), 3.0);
        assert_eq!(c.value(), 10.0);
        // The transient 100 held for zero time: only 10 * 4 s accrues...
        assert_eq!(c.integral(t(5.0)), 40.0);
        // ...but the peak still saw it.
        assert_eq!(c.peak(), 100.0);
    }

    #[test]
    fn zero_span_integral_and_mean_are_zero() {
        let mut c = TimeWeighted::new();
        c.set(SimTime::ZERO, 9.0);
        // Queried at the same instant the value was set: zero width.
        assert_eq!(c.integral(SimTime::ZERO), 0.0);
        assert_eq!(c.mean(SimTime::ZERO), 0.0);
        assert_eq!(c.value(), 9.0);
    }

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn running_stats_empty_and_single() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn push_duration_converts_seconds() {
        let mut s = RunningStats::new();
        s.push_duration(SimDuration::from_secs(90));
        assert_eq!(s.mean(), 90.0);
    }
}
