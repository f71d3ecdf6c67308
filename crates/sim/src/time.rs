//! Simulated time, durations, and bandwidth arithmetic.
//!
//! Time is kept in integer nanoseconds. Durations are plain `u64`
//! nanosecond counts built with the [`ns`]/[`us`]/[`ms`]/[`secs`] helpers;
//! [`SimTime`] is an absolute instant on the simulation clock. Keeping
//! durations as bare integers (rather than a second newtype) keeps the
//! arithmetic in cost models readable while `SimTime` still prevents mixing
//! instants with durations.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Builds a duration of `n` nanoseconds.
#[inline]
pub const fn ns(n: u64) -> u64 {
    n
}

/// Builds a duration of `n` microseconds.
#[inline]
pub const fn us(n: u64) -> u64 {
    n * 1_000
}

/// Builds a duration of `n` milliseconds.
#[inline]
pub const fn ms(n: u64) -> u64 {
    n * 1_000_000
}

/// Builds a duration of `n` seconds.
#[inline]
pub const fn secs(n: u64) -> u64 {
    n * 1_000_000_000
}

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the simulation.
///
/// ```
/// use dcs_sim::time::{self, SimTime};
/// let t = SimTime::ZERO + time::us(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// assert_eq!(t - SimTime::ZERO, 3_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from a raw nanosecond count.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `n` microseconds after time zero.
    #[inline]
    pub const fn from_us(n: u64) -> Self {
        SimTime(n * 1_000)
    }

    /// Creates an instant `n` milliseconds after time zero.
    #[inline]
    #[cfg(test)]
    pub(crate) const fn from_ms(n: u64) -> Self {
        SimTime(n * 1_000_000)
    }

    /// Creates an instant `n` seconds after time zero.
    #[inline]
    #[cfg(test)]
    pub(crate) const fn from_secs(n: u64) -> Self {
        SimTime(n * 1_000_000_000)
    }

    /// Raw nanosecond count since time zero.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) microseconds.
    #[inline]
    pub(crate) fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`; simulated time never runs
    /// backwards, so that indicates a logic error in the caller.
    #[inline]
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0
            .checked_sub(earlier.0)
            .expect("SimTime::since: `earlier` is after `self`")
    }

    /// Saturating duration since another instant (zero if `other` is later).
    #[inline]
    pub fn saturating_since(self, other: SimTime) -> u64 {
        self.0.saturating_sub(other.0)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, dur: u64) -> SimTime {
        SimTime(self.0 + dur)
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, dur: u64) {
        self.0 += dur;
    }
}

/// The time `dur` before this one, saturating at zero (a phase known to
/// have ended `dur` ago).
impl Sub<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, dur: u64) -> SimTime {
        SimTime(self.0.saturating_sub(dur))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        self.since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000_000.0)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A data rate, used to convert byte counts into transfer durations.
///
/// Rates are stored in bits per second to match how the paper quotes device
/// speeds (e.g. the Intel 750's 17.2 Gbps read bandwidth, the 10 Gbps NIC).
///
/// ```
/// use dcs_sim::Bandwidth;
/// let wire = Bandwidth::gbps(10.0);
/// // 1250 bytes = 10_000 bits at 10 Gbps -> 1 us.
/// assert_eq!(wire.transfer_time(1250), 1_000);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Bandwidth {
    bits_per_sec: f64,
}

impl Bandwidth {
    /// A rate in gigabits per second (decimal: 1 Gbps = 1e9 bits/s).
    #[inline]
    pub const fn gbps(g: f64) -> Self {
        assert!(g > 0.0, "bandwidth must be positive");
        Bandwidth {
            bits_per_sec: g * 1e9,
        }
    }

    /// A rate in megabits per second.
    #[inline]
    pub const fn mbps(m: f64) -> Self {
        assert!(m > 0.0, "bandwidth must be positive");
        Bandwidth {
            bits_per_sec: m * 1e6,
        }
    }

    /// The rate in gigabits per second.
    #[inline]
    pub fn as_gbps(self) -> f64 {
        self.bits_per_sec / 1e9
    }

    /// The rate in bytes per second.
    #[inline]
    #[cfg(test)]
    pub(crate) fn as_bytes_per_sec(self) -> f64 {
        self.bits_per_sec / 8.0
    }

    /// Time, in nanoseconds, to move `bytes` at this rate (rounded up, with
    /// a minimum of 1 ns for any non-empty transfer so events always make
    /// progress).
    #[inline]
    pub fn transfer_time(self, bytes: usize) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let nanos = (bytes as f64 * 8.0) / self.bits_per_sec * 1e9;
        (nanos.ceil() as u64).max(1)
    }

    /// Scales the rate by a factor (e.g. protocol efficiency < 1.0).
    #[inline]
    pub fn scaled(self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        Bandwidth {
            bits_per_sec: self.bits_per_sec * factor,
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}Gbps", self.as_gbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_helpers_compose() {
        assert_eq!(ns(7), 7);
        assert_eq!(us(7), 7_000);
        assert_eq!(ms(7), 7_000_000);
        assert_eq!(secs(7), 7_000_000_000);
    }

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_us(10);
        assert_eq!((t + us(5)).as_nanos(), 15_000);
        assert_eq!(t.since(SimTime::from_us(4)), 6_000);
        assert_eq!(t - SimTime::from_us(4), 6_000);
        assert_eq!(SimTime::from_us(4).saturating_since(t), 0);
        assert_eq!(t.max(SimTime::from_us(11)), SimTime::from_us(11));
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn simtime_since_panics_on_reversal() {
        let _ = SimTime::from_us(1).since(SimTime::from_us(2));
    }

    #[test]
    fn simtime_display_scales_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_us(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_ms(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn bandwidth_transfer_times() {
        let bw = Bandwidth::gbps(8.0); // 1 GB/s
        assert_eq!(bw.transfer_time(1_000_000), 1_000_000); // 1 MB -> 1 ms
        assert_eq!(bw.transfer_time(0), 0);
        assert_eq!(bw.transfer_time(1), 1); // rounds up to >= 1 ns
        assert!((bw.as_bytes_per_sec() - 1e9).abs() < 1.0);
    }

    #[test]
    fn bandwidth_scaling() {
        let wire = Bandwidth::gbps(10.0).scaled(0.9);
        assert!((wire.as_gbps() - 9.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bandwidth_rejects_zero() {
        let _ = Bandwidth::gbps(0.0);
    }
}
