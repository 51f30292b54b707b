//! Simulated time.
//!
//! The whole reproduction runs on a virtual clock with millisecond
//! resolution: [`SimTime`] is an instant since simulation start and
//! [`SimDuration`] a span between instants. Millisecond resolution matches
//! the paper's finest measurement granularity (power sampled every 100 ms,
//! lease operations timed in fractions of a millisecond are modelled as IPC
//! cost constants).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in milliseconds since simulation
/// start.
///
/// ```
/// use leaseos_simkit::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(5);
/// assert_eq!(t.as_millis(), 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in milliseconds.
///
/// ```
/// use leaseos_simkit::SimDuration;
///
/// assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// A sentinel later than any reachable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `millis` milliseconds after simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis)
    }

    /// Creates an instant `secs` seconds after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if the instant overflows `u64` milliseconds.
    pub const fn from_secs(secs: u64) -> Self {
        match secs.checked_mul(1_000) {
            Some(ms) => SimTime(ms),
            None => panic!("SimTime::from_secs overflows u64 milliseconds"),
        }
    }

    /// Creates an instant `mins` minutes after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if the instant overflows `u64` milliseconds.
    pub const fn from_mins(mins: u64) -> Self {
        match mins.checked_mul(60_000) {
            Some(ms) => SimTime(ms),
            None => panic!("SimTime::from_mins overflows u64 milliseconds"),
        }
    }

    /// Milliseconds since simulation start.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since simulation start (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Minutes since simulation start as a float.
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// Saturates to [`SimDuration::ZERO`] when `earlier` is after `self`, so
    /// accounting code never panics on out-of-order observations.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating add that never overflows past [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A span longer than any simulated experiment; used to express "never".
    pub const FOREVER: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis)
    }

    /// Creates a span of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the span overflows `u64` milliseconds.
    pub const fn from_secs(secs: u64) -> Self {
        match secs.checked_mul(1_000) {
            Some(ms) => SimDuration(ms),
            None => panic!("SimDuration::from_secs overflows u64 milliseconds"),
        }
    }

    /// Creates a span of `mins` minutes.
    ///
    /// # Panics
    ///
    /// Panics if the span overflows `u64` milliseconds.
    pub const fn from_mins(mins: u64) -> Self {
        match mins.checked_mul(60_000) {
            Some(ms) => SimDuration(ms),
            None => panic!("SimDuration::from_mins overflows u64 milliseconds"),
        }
    }

    /// Creates a span of `hours` hours.
    ///
    /// # Panics
    ///
    /// Panics if the span overflows `u64` milliseconds.
    pub const fn from_hours(hours: u64) -> Self {
        match hours.checked_mul(3_600_000) {
            Some(ms) => SimDuration(ms),
            None => panic!("SimDuration::from_hours overflows u64 milliseconds"),
        }
    }

    /// The span in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The span in whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span in minutes as a float.
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// The span in hours as a float.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Multiplies the span by a non-negative float, rounding to the nearest
    /// millisecond. Products beyond the representable range saturate to
    /// [`SimDuration::FOREVER`] instead of wrapping through an unchecked
    /// f64→u64 cast.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "duration factor must be finite and non-negative, got {factor}"
        );
        let ms = (self.0 as f64 * factor).round();
        if ms >= u64::MAX as f64 {
            return SimDuration::FOREVER;
        }
        SimDuration(ms as u64)
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
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
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
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        let (h, rem) = (ms / 3_600_000, ms % 3_600_000);
        let (m, rem) = (rem / 60_000, rem % 60_000);
        let (s, ms) = (rem / 1_000, rem % 1_000);
        if ms == 0 {
            write!(f, "{h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            return write!(f, "forever");
        }
        if self.0.is_multiple_of(60_000) && self.0 > 0 {
            write!(f, "{}min", self.0 / 60_000)
        } else if self.0.is_multiple_of(1_000) {
            write!(f, "{}s", self.0 / 1_000)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimTime::from_mins(3).as_secs(), 180);
        assert_eq!(SimDuration::from_hours(1).as_secs(), 3_600);
        assert_eq!(SimDuration::from_mins(5).as_millis(), 300_000);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_millis(), 10_500);
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_millis(500));
        assert_eq!(t - SimDuration::from_millis(500), SimTime::from_secs(10));
    }

    #[test]
    fn since_saturates_instead_of_panicking() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(late.since(early), SimDuration::from_secs(1));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 2, SimDuration::from_secs(5));
        assert!((d / SimDuration::from_secs(4) - 2.5).abs() < 1e-12);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn mul_f64_rejects_negative() {
        let _ = SimDuration::from_secs(1).mul_f64(-1.0);
    }

    #[test]
    fn mul_f64_saturates_to_forever() {
        // Regression: the raw f64→u64 cast on an overflowing product is
        // unspecified-looking saturation; make it an explicit FOREVER.
        assert_eq!(
            SimDuration::from_hours(1).mul_f64(f64::MAX),
            SimDuration::FOREVER
        );
        assert_eq!(SimDuration::FOREVER.mul_f64(2.0), SimDuration::FOREVER);
    }

    #[test]
    fn saturating_behaviour_at_extremes() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimTime::ZERO - SimDuration::from_secs(1),
            SimTime::ZERO,
            "subtraction below zero saturates"
        );
        assert_eq!(
            SimDuration::FOREVER + SimDuration::from_secs(1),
            SimDuration::FOREVER
        );
    }

    #[test]
    fn unit_constructors_reach_the_largest_representable_value() {
        assert_eq!(
            SimTime::from_secs(u64::MAX / 1_000).as_secs(),
            u64::MAX / 1_000
        );
        assert_eq!(
            SimTime::from_mins(u64::MAX / 60_000).as_millis() / 60_000,
            u64::MAX / 60_000
        );
        assert_eq!(
            SimDuration::from_secs(u64::MAX / 1_000).as_secs(),
            u64::MAX / 1_000
        );
        assert_eq!(
            SimDuration::from_mins(u64::MAX / 60_000).as_millis() / 60_000,
            u64::MAX / 60_000
        );
        assert_eq!(
            SimDuration::from_hours(u64::MAX / 3_600_000).as_millis() / 3_600_000,
            u64::MAX / 3_600_000
        );
    }

    #[test]
    #[should_panic(expected = "SimTime::from_secs overflows")]
    fn sim_time_from_secs_panics_on_overflow() {
        let _ = SimTime::from_secs(u64::MAX / 1_000 + 1);
    }

    #[test]
    #[should_panic(expected = "SimTime::from_mins overflows")]
    fn sim_time_from_mins_panics_on_overflow() {
        let _ = SimTime::from_mins(u64::MAX / 60_000 + 1);
    }

    #[test]
    #[should_panic(expected = "SimDuration::from_secs overflows")]
    fn sim_duration_from_secs_panics_on_overflow() {
        let _ = SimDuration::from_secs(u64::MAX / 1_000 + 1);
    }

    #[test]
    #[should_panic(expected = "SimDuration::from_mins overflows")]
    fn sim_duration_from_mins_panics_on_overflow() {
        let _ = SimDuration::from_mins(u64::MAX / 60_000 + 1);
    }

    #[test]
    #[should_panic(expected = "SimDuration::from_hours overflows")]
    fn sim_duration_from_hours_panics_on_overflow() {
        let _ = SimDuration::from_hours(u64::MAX / 3_600_000 + 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(3_725).to_string(), "01:02:05");
        assert_eq!(
            (SimTime::from_secs(1) + SimDuration::from_millis(42)).to_string(),
            "00:00:01.042"
        );
        assert_eq!(SimDuration::from_mins(5).to_string(), "5min");
        assert_eq!(SimDuration::from_millis(1_500).to_string(), "1500ms");
        assert_eq!(SimDuration::from_secs(25).to_string(), "25s");
        assert_eq!(SimDuration::FOREVER.to_string(), "forever");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
    }
}
