//! Simulated time.
//!
//! Time is kept as an integer number of microseconds since the start of the
//! simulation. Integer ticks (rather than `f64` seconds) keep event ordering
//! exact and the simulation bit-for-bit reproducible across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Number of microseconds in one second.
const MICROS_PER_SEC: u64 = 1_000_000;
/// Number of microseconds in one minute.
const MICROS_PER_MIN: u64 = 60 * MICROS_PER_SEC;

/// An instant of simulated time, measured in microseconds since simulation
/// start.
///
/// # Example
///
/// ```
/// use acp_simcore::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_secs(90);
/// assert_eq!(t.as_minutes_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Builds an instant `secs` seconds after simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Builds an instant `mins` minutes after simulation start.
    pub const fn from_minutes(mins: u64) -> Self {
        SimTime(mins * MICROS_PER_MIN)
    }

    /// Raw microsecond tick count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time since start, in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Time since start, in (possibly fractional) minutes.
    pub fn as_minutes_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_MIN as f64
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// Builds a duration from whole minutes.
    pub const fn from_minutes(mins: u64) -> Self {
        SimDuration(mins * MICROS_PER_MIN)
    }

    /// Builds a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "duration must be finite and non-negative");
        SimDuration((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Raw microsecond tick count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Duration in (possibly fractional) minutes.
    pub fn as_minutes_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_MIN as f64
    }

    /// True when this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the duration by a non-negative factor, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor.is_finite() && factor >= 0.0, "scale factor must be finite and non-negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2 * MICROS_PER_SEC);
        assert_eq!(SimTime::from_minutes(3).as_micros(), 3 * MICROS_PER_MIN);
        assert_eq!(SimDuration::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_micros(), 250_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(t - d, SimTime::from_secs(6));
        assert_eq!(SimTime::from_secs(14) - t, d);
        assert_eq!(d + d, SimDuration::from_secs(8));
        assert_eq!(d - SimDuration::from_secs(1), SimDuration::from_secs(3));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_micros(3);
        assert_eq!(d.mul_f64(0.5).as_micros(), 2); // 1.5 rounds to 2
        assert_eq!(d.mul_f64(2.0).as_micros(), 6);
    }

    #[test]
    fn ordering_is_by_tick() {
        assert!(SimTime::ZERO < SimTime::from_micros(1));
        assert!(SimTime::from_secs(59) < SimTime::from_minutes(1));
    }

    #[test]
    #[should_panic]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(1).to_string(), "t=1.000s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250s");
    }
}
