//! A small dollars newtype so cost arithmetic is explicit and displayable.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// An amount of money in US dollars.
///
/// Backed by `f64`; simulation costs are estimates, not ledger entries, so
/// floating point is appropriate — but the newtype keeps dollars from being
/// confused with bytes, seconds, or ratios.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Money(f64);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0.0);

    /// Constructs from a dollar amount.
    ///
    /// # Panics
    /// Panics on NaN or infinite input.
    pub fn from_dollars(d: f64) -> Self {
        assert!(d.is_finite(), "money must be finite, got {d}");
        Money(d)
    }

    /// The amount in dollars.
    pub fn dollars(self) -> f64 {
        self.0
    }

    /// The amount in cents.
    pub fn cents(self) -> f64 {
        self.0 * 100.0
    }

    /// True when within `tol` dollars of `other` (for tests and reports).
    pub fn approx_eq(self, other: Money, tol: f64) -> bool {
        (self.0 - other.0).abs() <= tol
    }

    /// The larger of two amounts.
    pub fn max(self, other: Money) -> Money {
        Money(self.0.max(other.0))
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        Money(self.0 + rhs.0)
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        self.0 += rhs.0;
    }
}

impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        Money(self.0 - rhs.0)
    }
}

impl Neg for Money {
    type Output = Money;
    fn neg(self) -> Money {
        Money(-self.0)
    }
}

/// Scaling by a factor.
///
/// # Panics
/// Panics on a NaN or infinite result, as [`Money::from_dollars`] does.
impl Mul<f64> for Money {
    type Output = Money;
    fn mul(self, rhs: f64) -> Money {
        Money::from_dollars(self.0 * rhs)
    }
}

/// Dividing by a count or factor.
///
/// # Panics
/// Panics on a NaN or infinite result (a division by zero among them), as
/// [`Money::from_dollars`] does.
impl Div<f64> for Money {
    type Output = Money;
    fn div(self, rhs: f64) -> Money {
        Money::from_dollars(self.0 / rhs)
    }
}

/// Ratio of two amounts (e.g. "how many months of storage does one compute
/// run buy").
impl Div<Money> for Money {
    type Output = f64;
    fn div(self, rhs: Money) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, Add::add)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 0.0 {
            write!(f, "-${:.2}", -self.0)
        } else {
            write!(f, "${:.2}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Money::from_dollars(2.50);
        let b = Money::from_dollars(1.25);
        assert_eq!(a + b, Money::from_dollars(3.75));
        assert_eq!(a - b, Money::from_dollars(1.25));
        assert_eq!(a * 2.0, Money::from_dollars(5.0));
        assert_eq!(a / 2.0, Money::from_dollars(1.25));
        assert!((a / b - 2.0).abs() < 1e-12);
        assert_eq!(-b, Money::from_dollars(-1.25));
    }

    #[test]
    fn display_formats_dollars_and_sign() {
        assert_eq!(Money::from_dollars(4.5).to_string(), "$4.50");
        assert_eq!(Money::from_dollars(-0.6).to_string(), "-$0.60");
        assert_eq!(Money::ZERO.to_string(), "$0.00");
    }

    #[test]
    fn sum_and_cents() {
        let total: Money = vec![Money::from_dollars(0.1); 5].into_iter().sum();
        assert!(total.approx_eq(Money::from_dollars(0.5), 1e-12));
        assert!((Money::from_dollars(0.56).cents() - 56.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        Money::from_dollars(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn scaling_to_infinity_panics() {
        let _ = Money::from_dollars(1.0) * f64::INFINITY;
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn scaling_by_nan_panics() {
        let _ = Money::ZERO * f64::NAN;
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn dividing_by_zero_panics() {
        let _ = Money::from_dollars(1.0) / 0.0;
    }

    #[test]
    fn max_picks_larger() {
        let a = Money::from_dollars(1.0);
        let b = Money::from_dollars(2.0);
        assert_eq!(a.max(b), b);
    }
}
