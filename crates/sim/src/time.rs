//! Virtual time. All simulation time is kept in integer nanoseconds so the
//! discrete-event engine is exactly reproducible (no floating-point drift
//! between runs or platforms).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) on the virtual timeline, in nanoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic provided covers the handful of operations the simulator needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Value in seconds (for reporting only — never fed back into the sim).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Value in milliseconds (for reporting only).
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Later of two timestamps.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// `self - other`, clamped at zero (spans cannot be negative).
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Time to move `bytes` over a link of `gbps` **GB/s** (decimal gigabytes).
///
/// Returns at least 1 ns for any non-zero transfer so that event ordering
/// stays strict.
pub fn transfer_time(bytes: u64, gbps: f64) -> SimTime {
    if bytes == 0 {
        return SimTime::ZERO;
    }
    debug_assert!(gbps > 0.0);
    let ns = (bytes as f64) / (gbps * 1e9) * 1e9;
    // `(ns + 0.5) as u64` == `ns.round() as u64` for every non-negative ns
    // this can produce (the one sub-ulp edge below 1.0 is absorbed by the
    // `.max(1)`), without the libc `round` call this hot path showed up for
    // in profiles.
    SimTime(((ns + 0.5) as u64).max(1))
}

/// Time to execute `flops` floating-point operations at `gflops` *effective*
/// GFLOP/s throughput.
pub fn compute_time(flops: u64, gflops: f64) -> SimTime {
    if flops == 0 {
        return SimTime::ZERO;
    }
    debug_assert!(gflops > 0.0);
    let ns = flops as f64 / gflops;
    // See `transfer_time` for why this equals `round()` here.
    SimTime(((ns + 0.5) as u64).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimTime::from_ms(2).as_ns(), 2_000_000);
        assert_eq!(SimTime::from_ms(1_500).as_ns(), 1_500_000_000);
        assert!((SimTime::from_ns(250).as_secs_f64() - 2.5e-7).abs() < 1e-18);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!((a + b).as_ns(), 14);
        assert_eq!((a - b).as_ns(), 6);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        let mut c = a;
        c += b;
        assert_eq!(c.as_ns(), 14);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 8 GB at 8 GB/s = 1 s.
        let t = transfer_time(8_000_000_000, 8.0);
        assert_eq!(t.as_ns(), 1_000_000_000);
        // Tiny transfers still take at least a nanosecond.
        assert!(transfer_time(1, 1000.0).as_ns() >= 1);
        assert_eq!(transfer_time(0, 8.0), SimTime::ZERO);
    }

    #[test]
    fn compute_time_matches_throughput() {
        // 4.29 TFLOPs at 4290 effective GFLOP/s = 1 s.
        let t = compute_time(4_290_000_000_000, 4290.0);
        assert_eq!(t.as_ns(), 1_000_000_000);
        assert_eq!(compute_time(0, 100.0), SimTime::ZERO);
    }

    #[test]
    fn display_uses_sensible_units() {
        assert_eq!(format!("{}", SimTime::from_ns(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_us(12)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_ms(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_ms(1_250)), "1.250s");
    }
}
