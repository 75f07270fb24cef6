//! Exact fixed-point money.
//!
//! The paper expresses costs in abstract "units" (private VM cost 2, cloud
//! VM cost 4, per VM-second) and divides penalties by an integer factor N.
//! To keep every bid comparison exact and totally ordered, [`Money`] is an
//! `i64` count of **micro-units** (10⁻⁶ of a unit). The full paper workload
//! costs ~3×10⁵ units ≈ 3×10¹¹ micro-units, ten thousand times below the
//! overflow boundary, and arithmetic saturates rather than wrapping if an
//! experiment ever gets there.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use meryn_sim::stats::exact_mean;
use meryn_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Micro-units per unit.
pub const MICROS_PER_UNIT: i64 = 1_000_000;

/// An exact amount of money in micro-units. May be negative (a loss).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Money(i64);

impl Money {
    /// Zero money.
    pub const ZERO: Money = Money(0);
    /// Largest representable amount; used as an "infinite bid" sentinel.
    pub const MAX: Money = Money(i64::MAX);

    /// Creates an amount from whole units.
    pub const fn from_units(units: i64) -> Money {
        Money(units.saturating_mul(MICROS_PER_UNIT))
    }

    /// Creates an amount from micro-units.
    pub const fn from_micro(micro: i64) -> Money {
        Money(micro)
    }

    /// Creates an amount from a float number of units (rounds to the
    /// nearest micro-unit). Panics on non-finite input.
    pub fn from_units_f64(units: f64) -> Money {
        assert!(units.is_finite(), "money must be finite, got {units}");
        Money((units * MICROS_PER_UNIT as f64).round() as i64)
    }

    /// Amount in micro-units.
    pub const fn as_micro(self) -> i64 {
        self.0
    }

    /// Amount in units as a float, for reporting only.
    pub fn as_units_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_UNIT as f64
    }

    /// The mean per item of `n` items totalling this amount, in units,
    /// for reporting only: the one quotient of
    /// [`meryn_sim::stats::exact_mean`] over the exact micro-unit total
    /// (zero when `n` is zero).
    pub fn mean_units_f64(self, n: u64) -> f64 {
        exact_mean(i128::from(self.0), n, MICROS_PER_UNIT as u64)
    }

    /// True when exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// True when strictly negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Money) -> Money {
        Money(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Money) -> Money {
        Money(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by an integer count (e.g. number of VMs).
    pub fn times(self, n: u64) -> Money {
        Money(self.0.saturating_mul(n.min(i64::MAX as u64) as i64))
    }

    /// Divides by a positive integer (e.g. the penalty factor N),
    /// truncating toward zero. Panics if `n == 0`.
    pub fn div_int(self, n: u64) -> Money {
        assert!(n > 0, "division of money by zero");
        Money(self.0 / n.min(i64::MAX as u64) as i64)
    }

    /// Clamps to the non-negative range.
    pub fn max_zero(self) -> Money {
        Money(self.0.max(0))
    }

    /// The smaller of two amounts.
    pub fn min_of(self, other: Money) -> Money {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two amounts.
    pub fn max_of(self, other: Money) -> Money {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        *self = *self + rhs;
    }
}

impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        *self = *self - rhs;
    }
}

impl Neg for Money {
    type Output = Money;
    fn neg(self) -> Money {
        Money(self.0.saturating_neg())
    }
}

impl Mul<u64> for Money {
    type Output = Money;
    fn mul(self, rhs: u64) -> Money {
        self.times(rhs)
    }
}

impl Div<u64> for Money {
    type Output = Money;
    fn div(self, rhs: u64) -> Money {
        self.div_int(rhs)
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, Add::add)
    }
}

impl fmt::Debug for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        let units = abs / MICROS_PER_UNIT as u64;
        let micro = abs % MICROS_PER_UNIT as u64;
        if micro == 0 {
            write!(f, "{sign}{units}u")
        } else {
            // Trim trailing zeros of the fractional part for readability.
            let frac = format!("{micro:06}");
            write!(f, "{sign}{units}.{}u", frac.trim_end_matches('0'))
        }
    }
}

/// A price rate: money per VM-second.
///
/// The paper's eq. 2 multiplies an execution time by a VM count and a "VM
/// price"; [`VmRate`] is that price. Multiplying a rate by a
/// [`SimDuration`] is exact: micro-units × milliseconds / 1000.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug, Serialize, Deserialize,
)]
pub struct VmRate(i64);

impl VmRate {
    /// Zero rate.
    pub const ZERO: VmRate = VmRate(0);

    /// Rate of `units` money units per VM-second (the paper's "VM price").
    pub const fn per_vm_second(units: i64) -> VmRate {
        VmRate(units.saturating_mul(MICROS_PER_UNIT))
    }

    /// Rate from micro-units per VM-second.
    pub const fn from_micro(micro: i64) -> VmRate {
        VmRate(micro)
    }

    /// Rate in micro-units per VM-second.
    pub const fn as_micro_per_sec(self) -> i64 {
        self.0
    }

    /// Cost of running **one** VM at this rate for `d`.
    ///
    /// Exact to the micro-unit·millisecond: `micro/s × ms / 1000`,
    /// computed in `i128` to avoid intermediate overflow.
    pub fn cost_for(self, d: SimDuration) -> Money {
        let micro = (self.0 as i128 * d.as_millis() as i128) / 1000;
        Money::from_micro(micro.clamp(i64::MIN as i128, i64::MAX as i128) as i64)
    }

    /// Cost of running `n` VMs at this rate for `d` — the paper's
    /// `duration × nb_vms × vm_price` product.
    pub fn cost_for_vms(self, n: u64, d: SimDuration) -> Money {
        self.cost_for(d).times(n)
    }

    /// Scales the rate by a float factor (e.g. a price multiplier in an
    /// ablation sweep), rounding to the nearest micro-unit.
    pub fn scale(self, factor: f64) -> VmRate {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "rate scale factor must be finite and non-negative"
        );
        VmRate((self.0 as f64 * factor).round() as i64)
    }
}

impl fmt::Display for VmRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/VM·s", Money::from_micro(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_units_is_the_exact_quotient() {
        // One division of the exact micro-unit total.
        let total = Money::from_units(3100) + Money::from_units(6680);
        assert_eq!(total.mean_units_f64(2), 4890.0);
        assert_eq!(Money::from_micro(1).mean_units_f64(4), 0.25e-6);
        assert_eq!(total.mean_units_f64(0), 0.0);
    }

    #[test]
    fn unit_round_trip() {
        assert_eq!(Money::from_units(5).as_micro(), 5_000_000);
        assert_eq!(Money::from_micro(2_500_000).as_units_f64(), 2.5);
        assert_eq!(Money::from_units_f64(1.25).as_micro(), 1_250_000);
    }

    #[test]
    fn arithmetic() {
        let a = Money::from_units(10);
        let b = Money::from_units(4);
        assert_eq!(a + b, Money::from_units(14));
        assert_eq!(a - b, Money::from_units(6));
        assert_eq!(b - a, Money::from_units(-6));
        assert_eq!(-a, Money::from_units(-10));
        assert_eq!(a * 3, Money::from_units(30));
        assert_eq!(a / 4, Money::from_micro(2_500_000));
    }

    #[test]
    fn saturation_not_wrapping() {
        let max = Money::MAX;
        assert_eq!(max + Money::from_units(1), Money::MAX);
        assert_eq!(
            Money::from_micro(i64::MIN) - Money::from_units(1).max_zero(),
            {
                // saturates at MIN, does not wrap
                Money::from_micro(i64::MIN)
            }
        );
    }

    #[test]
    fn saturation_near_micro_unit_boundary() {
        // Hyperscale volumes shrink the ~10⁴× headroom the paper workload
        // enjoys. Pin down behaviour right at the i64 micro-unit edge: every
        // operation must clamp to MAX/MIN, never wrap to the other sign.
        let near_max = Money::from_micro(i64::MAX - 1);
        assert_eq!(near_max + Money::from_micro(1), Money::MAX);
        assert_eq!(near_max + Money::from_micro(2), Money::MAX);
        assert_eq!(near_max + near_max, Money::MAX);
        assert!((near_max + Money::from_units(1)).as_micro() > 0);

        let near_min = Money::from_micro(i64::MIN + 1);
        assert_eq!(near_min - Money::from_micro(2), Money::from_micro(i64::MIN));
        assert!((near_min - Money::from_units(1)).as_micro() < 0);
        assert_eq!(-Money::from_micro(i64::MIN), Money::MAX);

        // Multiplying by a VM count saturates instead of wrapping.
        assert_eq!(near_max * 2, Money::MAX);
        assert_eq!(near_max.times(u64::MAX), Money::MAX);
        assert_eq!(Money::from_units(i64::MAX), Money::MAX);

        // A rate × duration product that overflows the i64 micro-unit range
        // clamps in the i128 intermediate rather than wrapping: one VM at
        // the private rate for ~4.6e12 simulated years.
        let rate = VmRate::per_vm_second(2);
        let cost = rate.cost_for(SimDuration::from_millis(u64::MAX));
        assert_eq!(cost, Money::MAX);
        assert_eq!(
            rate.cost_for_vms(u64::MAX, SimDuration::from_millis(u64::MAX)),
            Money::MAX
        );

        // Summation over an iterator saturates via Add, preserving order.
        let total: Money = [near_max, near_max, Money::from_units(-1)]
            .into_iter()
            .sum();
        assert_eq!(total, Money::MAX - Money::from_units(1));
    }

    #[test]
    fn ordering_and_min() {
        let a = Money::from_units(2);
        let b = Money::from_units(3);
        assert!(a < b);
        assert_eq!(a.min_of(b), a);
        assert_eq!(a.max_of(b), b);
        assert_eq!(Money::from_units(-1).max_zero(), Money::ZERO);
    }

    #[test]
    fn sum_iterator() {
        let total: Money = (1..=4).map(Money::from_units).sum();
        assert_eq!(total, Money::from_units(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Money::from_units(3100).to_string(), "3100u");
        assert_eq!(Money::from_units_f64(2.5).to_string(), "2.5u");
        assert_eq!(Money::from_units(-7).to_string(), "-7u");
        assert_eq!(Money::ZERO.to_string(), "0u");
    }

    #[test]
    #[should_panic(expected = "division of money by zero")]
    fn div_by_zero_panics() {
        let _ = Money::from_units(1) / 0;
    }

    #[test]
    fn rate_cost_matches_paper_eq2() {
        // Paper: exec 1550 s, 1 VM, private price 2 units/VM·s → 3100 units.
        let rate = VmRate::per_vm_second(2);
        let cost = rate.cost_for_vms(1, SimDuration::from_secs(1550));
        assert_eq!(cost, Money::from_units(3100));
        // Cloud: 1670 s at 4 units/VM·s → 6680 units.
        let cloud = VmRate::per_vm_second(4);
        assert_eq!(
            cloud.cost_for_vms(1, SimDuration::from_secs(1670)),
            Money::from_units(6680)
        );
    }

    #[test]
    fn rate_cost_is_exact_at_ms_resolution() {
        let rate = VmRate::per_vm_second(2);
        // 1.5 s at 2 u/s = 3 u exactly.
        assert_eq!(
            rate.cost_for(SimDuration::from_millis(1500)),
            Money::from_units(3)
        );
    }

    #[test]
    fn rate_scales() {
        let rate = VmRate::per_vm_second(2);
        assert_eq!(rate.scale(2.0), VmRate::per_vm_second(4));
        assert_eq!(rate.scale(0.0), VmRate::ZERO);
    }

    #[test]
    fn rate_multi_vm() {
        let rate = VmRate::per_vm_second(3);
        assert_eq!(
            rate.cost_for_vms(5, SimDuration::from_secs(10)),
            Money::from_units(150)
        );
    }

    #[test]
    fn serde_round_trip() {
        let m = Money::from_units_f64(12.345678);
        let s = serde_json::to_string(&m).unwrap();
        assert_eq!(serde_json::from_str::<Money>(&s).unwrap(), m);
    }
}
