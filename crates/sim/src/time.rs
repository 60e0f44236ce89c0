//! Simulated time and the per-category time ledger.

/// Simulated time in nanoseconds since the start of the run.
///
/// A `u64` nanosecond clock wraps after ~584 years of simulated time,
/// which is far beyond any run this simulator performs.
pub type Ns = u64;

/// One nanosecond expressed in [`Ns`] units.
pub const NANOSECOND: Ns = 1;
/// One microsecond expressed in [`Ns`] units.
pub const MICROSECOND: Ns = 1_000;
/// One millisecond expressed in [`Ns`] units.
pub const MILLISECOND: Ns = 1_000_000;
/// One second expressed in [`Ns`] units.
pub const SECOND: Ns = 1_000_000_000;

/// Render a nanosecond duration as a compact human-readable string.
///
/// Used by the reproduction binaries when printing table rows; the unit is
/// chosen so the mantissa stays in `[1, 1000)`.
pub fn fmt_ns(ns: Ns) -> String {
    if ns >= SECOND {
        format!("{:.3}s", ns as f64 / SECOND as f64)
    } else if ns >= MILLISECOND {
        format!("{:.3}ms", ns as f64 / MILLISECOND as f64)
    } else if ns >= MICROSECOND {
        format!("{:.3}us", ns as f64 / MICROSECOND as f64)
    } else {
        format!("{ns}ns")
    }
}

/// The cost category a span of simulated time is attributed to.
///
/// These mirror the stacked-bar sections in Figure 3(a) of the paper:
/// user-mode execution (including the run-time layer's filter checks),
/// system time spent servicing page faults, system time spent performing
/// prefetch operations, and processor-idle time (I/O stall).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimeCategory {
    /// User-mode computation, including run-time-layer overhead.
    User,
    /// Kernel time handling page faults.
    SystemFault,
    /// Kernel time performing prefetch and release operations.
    SystemPrefetch,
    /// Processor idle, stalled waiting for I/O.
    Idle,
}

/// Ledger attributing every simulated nanosecond to a [`TimeCategory`].
///
/// The invariant `user + sys_fault + sys_prefetch + idle == total()` holds
/// by construction; integration tests assert it against the machine clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Nanoseconds of user-mode execution.
    pub user: Ns,
    /// Nanoseconds of kernel fault handling.
    pub sys_fault: Ns,
    /// Nanoseconds of kernel prefetch/release processing.
    pub sys_prefetch: Ns,
    /// Nanoseconds of I/O stall.
    pub idle: Ns,
}

impl TimeBreakdown {
    /// Create an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `ns` nanoseconds to category `cat`.
    #[inline]
    pub fn charge(&mut self, cat: TimeCategory, ns: Ns) {
        match cat {
            TimeCategory::User => self.user += ns,
            TimeCategory::SystemFault => self.sys_fault += ns,
            TimeCategory::SystemPrefetch => self.sys_prefetch += ns,
            TimeCategory::Idle => self.idle += ns,
        }
    }

    /// Total time across all categories.
    pub fn total(&self) -> Ns {
        self.user + self.sys_fault + self.sys_prefetch + self.idle
    }

    /// Combined kernel time (fault handling plus prefetch processing).
    pub fn system(&self) -> Ns {
        self.sys_fault + self.sys_prefetch
    }

    /// Fraction of total time in `cat`, or 0.0 for an empty ledger.
    pub fn fraction(&self, cat: TimeCategory) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let part = match cat {
            TimeCategory::User => self.user,
            TimeCategory::SystemFault => self.sys_fault,
            TimeCategory::SystemPrefetch => self.sys_prefetch,
            TimeCategory::Idle => self.idle,
        };
        part as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_per_category() {
        let mut t = TimeBreakdown::new();
        t.charge(TimeCategory::User, 5);
        t.charge(TimeCategory::User, 7);
        t.charge(TimeCategory::SystemFault, 11);
        t.charge(TimeCategory::SystemPrefetch, 13);
        t.charge(TimeCategory::Idle, 17);
        assert_eq!(t.user, 12);
        assert_eq!(t.sys_fault, 11);
        assert_eq!(t.sys_prefetch, 13);
        assert_eq!(t.idle, 17);
        assert_eq!(t.total(), 53);
        assert_eq!(t.system(), 24);
    }

    #[test]
    fn fraction_of_empty_ledger_is_zero() {
        let t = TimeBreakdown::new();
        assert_eq!(t.fraction(TimeCategory::User), 0.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut t = TimeBreakdown::new();
        t.charge(TimeCategory::User, 1);
        t.charge(TimeCategory::Idle, 3);
        let sum = t.fraction(TimeCategory::User)
            + t.fraction(TimeCategory::SystemFault)
            + t.fraction(TimeCategory::SystemPrefetch)
            + t.fraction(TimeCategory::Idle);
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.500us");
        assert_eq!(fmt_ns(2_000_000), "2.000ms");
        assert_eq!(fmt_ns(3_500_000_000), "3.500s");
    }
}
