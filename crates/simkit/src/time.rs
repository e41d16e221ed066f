//! Simulation time: a millisecond-resolution monotone clock.
//!
//! The paper's SDchecker works at the precision of log4j timestamps (1 ms),
//! so the whole simulation is quantized to milliseconds. [`Millis`] is used
//! both for absolute simulation times and for durations; the arithmetic
//! provided keeps both uses ergonomic without a second newtype, which in
//! practice the cluster/application models never needed to distinguish.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A millisecond count — either an absolute simulation time (milliseconds
/// since simulation start) or a duration.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Millis(pub u64);

impl Millis {
    /// Time zero / zero duration.
    pub const ZERO: Millis = Millis(0);
    /// The largest representable time; used as an "infinite" horizon.
    pub const MAX: Millis = Millis(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Millis {
        Millis(s * 1000)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Millis {
        Millis(m * 60_000)
    }

    /// The raw millisecond count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// This time as fractional seconds (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// This time as fractional milliseconds (for processor-sharing math).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Round a fractional millisecond value *up* to the next whole
    /// millisecond. Completions computed in `f64` inside shared resources
    /// are re-quantized with this so a completion event never fires before
    /// the work is actually done.
    pub(crate) fn from_f64_ceil(ms: f64) -> Millis {
        debug_assert!(ms >= 0.0, "negative time {ms}");
        if ms >= u64::MAX as f64 {
            Millis::MAX
        } else {
            Millis(ms.ceil() as u64)
        }
    }

    /// Saturating subtraction; useful for "delay since" computations where
    /// clock-skew-free simulation still produces equal timestamps.
    pub fn saturating_sub(self, rhs: Millis) -> Millis {
        Millis(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Millis) -> Option<Millis> {
        self.0.checked_sub(rhs.0).map(Millis)
    }

    /// The larger of two times.
    pub fn max(self, rhs: Millis) -> Millis {
        Millis(self.0.max(rhs.0))
    }

    /// The smaller of two times.
    pub fn min(self, rhs: Millis) -> Millis {
        Millis(self.0.min(rhs.0))
    }
}

impl Add for Millis {
    type Output = Millis;
    fn add(self, rhs: Millis) -> Millis {
        Millis(self.0 + rhs.0)
    }
}

impl Add<u64> for Millis {
    type Output = Millis;
    fn add(self, rhs: u64) -> Millis {
        Millis(self.0 + rhs)
    }
}

impl AddAssign for Millis {
    fn add_assign(&mut self, rhs: Millis) {
        self.0 += rhs.0;
    }
}

impl Sub for Millis {
    type Output = Millis;
    fn sub(self, rhs: Millis) -> Millis {
        debug_assert!(self.0 >= rhs.0, "Millis underflow: {} - {}", self.0, rhs.0);
        Millis(self.0 - rhs.0)
    }
}

impl fmt::Debug for Millis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

impl fmt::Display for Millis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

impl From<u64> for Millis {
    fn from(v: u64) -> Millis {
        Millis(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Millis::from_secs(3), Millis(3000));
        assert_eq!(Millis::from_mins(2), Millis(120_000));
        assert_eq!(Millis::from(7u64), Millis(7));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Millis(5) + Millis(7), Millis(12));
        assert_eq!(Millis(5) + 7, Millis(12));
        assert_eq!(Millis(12) - Millis(7), Millis(5));
        let mut t = Millis(1);
        t += Millis(2);
        assert_eq!(t, Millis(3));
    }

    #[test]
    fn saturating_and_checked() {
        assert_eq!(Millis(3).saturating_sub(Millis(5)), Millis::ZERO);
        assert_eq!(Millis(5).checked_sub(Millis(3)), Some(Millis(2)));
        assert_eq!(Millis(3).checked_sub(Millis(5)), None);
    }

    #[test]
    fn float_roundtrips() {
        assert_eq!(Millis::from_f64_ceil(0.0), Millis(0));
        assert_eq!(Millis::from_f64_ceil(1.00001), Millis(2));
        assert_eq!(Millis::from_f64_ceil(41.0), Millis(41));
        assert_eq!(Millis(1500).as_secs_f64(), 1.5);
        assert_eq!(Millis::from_f64_ceil(f64::MAX), Millis::MAX);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Millis(900).to_string(), "900ms");
        assert_eq!(Millis(17_200).to_string(), "17.200s");
        assert_eq!(format!("{:?}", Millis(42)), "42ms");
    }

    #[test]
    fn min_max() {
        assert_eq!(Millis(2).max(Millis(9)), Millis(9));
        assert_eq!(Millis(2).min(Millis(9)), Millis(2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics_in_debug() {
        let _ = Millis(1) - Millis(2);
    }
}
