//! Simulation time: integer-microsecond instants and durations.
//!
//! The kernel keeps time as an integer number of microseconds so that the
//! event queue has a total, platform-independent order (no float-comparison
//! hazards, no accumulation drift when many small intervals are summed).
//! Microsecond resolution is far below anything the model resolves (task
//! runtimes are seconds to minutes; the paper's link moves ~1.25 bytes/µs).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Microseconds per second.
const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant on the simulation clock, in microseconds since the start of
/// the run. The clock always starts at [`SimTime::ZERO`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A non-negative span of simulation time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (useful as an "unscheduled" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from a (non-negative, finite) number of seconds,
    /// rounding to the nearest microsecond.
    ///
    /// # Panics
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_micros(secs))
    }

    /// The instant as whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The instant as (possibly lossy) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The instant as hours.
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// The span since an earlier instant.
    ///
    /// # Panics
    /// Panics if `earlier` is after `self` (simulation logic error).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since called with a later instant"),
        )
    }

    /// Saturating add used by schedulers that may push events "at infinity".
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Builds a span from a (non-negative, finite) number of seconds,
    /// rounding to the nearest microsecond.
    ///
    /// # Panics
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_micros(secs))
    }

    /// Builds a span from hours.
    pub fn from_hours_f64(hours: f64) -> Self {
        SimDuration::from_secs_f64(hours * 3600.0)
    }

    /// The time a `bytes`-long message occupies a link of `bits_per_sec`,
    /// rounded up to the next microsecond (so zero-cost transfers only occur
    /// for zero bytes).
    ///
    /// # Panics
    /// Panics if `bits_per_sec` is not strictly positive and finite.
    pub fn transfer_time(bytes: u64, bits_per_sec: f64) -> Self {
        assert!(
            bits_per_sec.is_finite() && bits_per_sec > 0.0,
            "bandwidth must be positive and finite, got {bits_per_sec}"
        );
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let secs = (bytes as f64 * 8.0) / bits_per_sec;
        let us = secs * MICROS_PER_SEC as f64;
        assert!(
            us.is_finite() && us < u64::MAX as f64,
            "transfer time overflow"
        );
        SimDuration(ceil_u64(us))
    }

    /// The span as whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span as seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The span as hours.
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// True when the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

fn secs_to_micros(secs: f64) -> u64 {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "simulation time must be finite and non-negative, got {secs}"
    );
    let us = secs * MICROS_PER_SEC as f64;
    assert!(us < u64::MAX as f64, "simulation time overflow: {secs} s");
    round_u64(us)
}

// `f64::ceil` and `f64::round` are libm calls on the baseline x86-64
// target (no SSE4.1 `roundsd`). For a finite `x` in `[0, 2^64)` the
// truncating cast plus one comparison is exact: `x - trunc(x)` is always
// representable, and from 2^52 up every float is already an integer. The
// callers' asserts keep `x` in that range (`ceil(x) < 2^64` and
// `round(x) < 2^64` both hold exactly when `x < 2^64`).

/// `x.ceil() as u64` for finite `x` in `[0, 2^64)`.
fn ceil_u64(x: f64) -> u64 {
    let t = x as u64;
    t + u64::from((t as f64) < x)
}

/// `x.round() as u64` (half away from zero) for finite `x` in `[0, 2^64)`.
fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    t + u64::from(x - t as f64 >= 0.5)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 3600.0 {
            write!(f, "{:.2}h", s / 3600.0)
        } else if s >= 60.0 {
            write!(f, "{:.2}m", s / 60.0)
        } else {
            write!(f, "{s:.3}s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_seconds() {
        let t = SimTime::from_secs_f64(12.5);
        assert_eq!(t.as_micros(), 12_500_000);
        assert!((t.as_secs_f64() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn instant_plus_duration() {
        let t = SimTime::from_secs_f64(1.0) + SimDuration::from_secs(2);
        assert_eq!(t, SimTime::from_secs_f64(3.0));
        assert_eq!(
            t.since(SimTime::from_secs_f64(1.0)),
            SimDuration::from_secs(2)
        );
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn since_panics_on_negative_span() {
        SimTime::ZERO.since(SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn transfer_time_matches_paper_link() {
        // 10 Mbps moves 1.25 MB/s: a 12.5 MB file takes 10 s.
        let d = SimDuration::transfer_time(12_500_000, 10_000_000.0);
        assert_eq!(d, SimDuration::from_secs(10));
    }

    #[test]
    fn transfer_time_zero_bytes_is_zero() {
        assert_eq!(SimDuration::transfer_time(0, 10e6), SimDuration::ZERO);
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 1 byte over 10 Mbps = 0.8 µs -> rounds to 1 µs, never zero.
        let d = SimDuration::transfer_time(1, 10_000_000.0);
        assert_eq!(d.as_micros(), 1);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn transfer_time_rejects_zero_bandwidth() {
        SimDuration::transfer_time(1, 0.0);
    }

    #[test]
    fn integer_rounding_matches_libm_exactly() {
        let check = |x: f64| {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "ceil {x:e}");
            assert_eq!(round_u64(x), x.round() as u64, "round {x:e}");
        };
        let two52 = (1u64 << 52) as f64;
        let limit = u64::MAX as f64; // 2^64, the asserts' exclusive bound
        let mut rng = crate::SimRng::new(0x7e57_c011);
        for x in [0.0, -0.0, 0.5, 1.0, 1.5, 0.49999999999999994, 1e-300] {
            check(x);
        }
        for _ in 0..20_000 {
            let k = rng.below(1 << 40) as f64;
            check(k);
            check(k + 0.5);
            check(f64::from_bits((k + 0.5).to_bits() - 1)); // just under k + 0.5
            check(f64::from_bits((k + 0.5).to_bits() + 1)); // just over
            check(rng.f64() * 1e6);
            check(rng.f64_in(two52, 2.0 * two52)); // 2^52..2^53: all integers
            check(two52 - rng.f64()); // the last fractional binade
        }
        // The largest values both asserts admit, and a few just below.
        let mut x = f64::from_bits(limit.to_bits() - 1);
        for _ in 0..64 {
            assert!(x < limit);
            check(x);
            x = f64::from_bits(x.to_bits() - 1);
        }
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_secs(90);
        assert_eq!(d * 2, SimDuration::from_secs(180));
        assert_eq!(d / 3, SimDuration::from_secs(30));
        assert!((d.as_hours_f64() - 0.025).abs() < 1e-12);
        let total: SimDuration = vec![d, d, d].into_iter().sum();
        assert_eq!(total, SimDuration::from_secs(270));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_secs(120).to_string(), "2.00m");
        assert_eq!(SimDuration::from_secs(7200).to_string(), "2.00h");
    }

    #[test]
    fn saturating_add_caps_at_max() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }
}
