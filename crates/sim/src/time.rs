//! Virtual time for the discrete-event simulator.
//!
//! The simulator runs on a microsecond-resolution virtual clock. Experiments
//! from the paper that take hours of wall time (keep-alive probes every
//! 7200 seconds, 112-hour probe runs, two-day "unplugged ethernet" tests)
//! complete in milliseconds under virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulator's virtual clock, measured in microseconds
/// since the start of the simulation.
///
/// # Examples
///
/// ```
/// use pfi_sim::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(2);
/// assert_eq!(t.as_micros(), 2_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, measured in microseconds.
///
/// # Examples
///
/// ```
/// use pfi_sim::SimDuration;
///
/// let d = SimDuration::from_millis(1500);
/// assert_eq!(d.as_secs_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw microseconds since simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is later than `self`
    /// (saturating, like [`std::time::Instant::saturating_duration_since`]).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((s * 1_000_000.0).round() as u64)
    }

    /// Microseconds in this duration.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds in this duration (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating duration subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Doubles the duration, clamping to `cap`. This is the exponential
    /// backoff step used throughout the TCP substrate.
    pub fn backoff(self, cap: SimDuration) -> SimDuration {
        SimDuration((self.0.saturating_mul(2)).min(cap.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
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
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
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
        debug_assert!(self >= rhs, "SimDuration subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
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
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{}ms", self.as_millis())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_micros(500);
        let t2 = t + SimDuration::from_millis(2);
        assert_eq!(t2.as_micros(), 2_500);
        assert_eq!(t2 - t, SimDuration::from_millis(2));
    }

    #[test]
    fn saturating_since_is_zero_when_earlier_is_later() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(20);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_micros(10));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let d = SimDuration::from_secs(48);
        let cap = SimDuration::from_secs(64);
        assert_eq!(d.backoff(cap), cap);
        let d = SimDuration::from_secs(16);
        assert_eq!(d.backoff(cap), SimDuration::from_secs(32));
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_secs_f64(0.33).as_micros(), 330_000);
        assert!((SimDuration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(5).to_string(), "5us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_float_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn mul_div() {
        let d = SimDuration::from_millis(75);
        assert_eq!(d * 8, SimDuration::from_millis(600));
        assert_eq!(d / 3, SimDuration::from_millis(25));
    }
}
