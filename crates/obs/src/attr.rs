//! Figure-5 time attribution: every simulated nanosecond of a run
//! binned into compute / stall / overhead buckets.
//!
//! The machine's [`oocp_sim::time::TimeBreakdown`] partitions elapsed
//! time into user / system-fault / system-prefetch / idle by
//! construction. This module refines the opaque *idle* bucket using the
//! OS's exact stall accumulators, yielding the decomposition the
//! paper's Figure 5 (and every "did the hot path get faster?" question)
//! needs:
//!
//! * **compute** — user-mode execution, including run-time-layer
//!   filter checks;
//! * **fault / hint overhead** — kernel time servicing faults and hint
//!   system calls;
//! * **demand stall** — disk waits on pages no prefetch covered;
//! * **late-prefetch stall** — residual waits on pages whose prefetch
//!   was issued too late (the tunable the lifecycle ledger explains);
//! * **backpressure stall** — waits for disk-queue slots and error
//!   retry backoff;
//! * **drain idle** — the end-of-run stall for outstanding write-backs
//!   plus any idle not attributable to a specific fault.
//!
//! The buckets sum to end-to-end elapsed time *exactly* (the residual
//! bucket is computed by subtraction and asserted non-negative in debug
//! builds); [`TimeAttribution::sums_to`] is the checked invariant.

use oocp_sim::time::Ns;

use crate::baseline::{pairs, row, Block};
use crate::json::Json;

/// A complete attribution of a run's elapsed simulated time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeAttribution {
    /// User-mode computation.
    pub compute_ns: Ns,
    /// Kernel time handling page faults.
    pub fault_overhead_ns: Ns,
    /// Kernel time processing prefetch/release hints.
    pub hint_overhead_ns: Ns,
    /// Disk stall on demand faults never covered by a prefetch (plus
    /// the full-latency stalls of prefetched-but-lost pages).
    pub demand_stall_ns: Ns,
    /// Residual stall on pages whose prefetch was still in flight.
    pub late_prefetch_stall_ns: Ns,
    /// Waits for disk-queue slots and error-retry backoff.
    pub backpressure_stall_ns: Ns,
    /// End-of-run drain plus idle not tied to a specific fault.
    pub drain_idle_ns: Ns,
}

impl TimeAttribution {
    /// Build the attribution from ledger totals.
    ///
    /// * `user`, `sys_fault`, `sys_prefetch`, `idle` — the four
    ///   [`oocp_sim::time::TimeBreakdown`] categories.
    /// * `fault_wait_total` — exact sum of all fault disk waits (hard
    ///   faults and in-flight residuals).
    /// * `late_stall` — the in-flight-residual subset of that sum.
    /// * `backpressure` — queue-full waits plus retry backoff waits.
    ///
    /// All three stall inputs are subsets of `idle`; the remainder is
    /// the drain/idle bucket. Inconsistent inputs (a "subset" larger
    /// than what it refines) are a logic error upstream: debug builds
    /// assert, release builds saturate rather than wrap.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        user: Ns,
        sys_fault: Ns,
        sys_prefetch: Ns,
        idle: Ns,
        fault_wait_total: Ns,
        late_stall: Ns,
        backpressure: Ns,
    ) -> Self {
        debug_assert!(late_stall <= fault_wait_total, "late stall is a subset");
        debug_assert!(
            fault_wait_total.saturating_add(backpressure) <= idle,
            "stalls must refine idle: {fault_wait_total} + {backpressure} > {idle}"
        );
        let demand = fault_wait_total.saturating_sub(late_stall);
        let drain = idle
            .saturating_sub(fault_wait_total)
            .saturating_sub(backpressure);
        Self {
            compute_ns: user,
            fault_overhead_ns: sys_fault,
            hint_overhead_ns: sys_prefetch,
            demand_stall_ns: demand,
            late_prefetch_stall_ns: late_stall,
            backpressure_stall_ns: backpressure,
            drain_idle_ns: drain,
        }
    }

    /// Sum of every bucket.
    pub fn total(&self) -> Ns {
        self.compute_ns
            + self.fault_overhead_ns
            + self.hint_overhead_ns
            + self.demand_stall_ns
            + self.late_prefetch_stall_ns
            + self.backpressure_stall_ns
            + self.drain_idle_ns
    }

    /// The invariant: buckets partition `elapsed` within `eps_frac`
    /// (relative; e.g. `0.001` = 0.1%). With consistent inputs the
    /// partition is exact and any `eps_frac >= 0` passes.
    pub fn sums_to(&self, elapsed: Ns, eps_frac: f64) -> bool {
        let total = self.total();
        let eps = (elapsed as f64 * eps_frac).abs();
        (total as f64 - elapsed as f64).abs() <= eps
    }

    /// Bucket value as a fraction of `elapsed` (for table rendering).
    pub fn frac(part: Ns, elapsed: Ns) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            part as f64 / elapsed as f64
        }
    }

    /// The seven buckets, then their `total_ns`, as a JSON object: a
    /// baseline run's `attr` block and a run report's `attribution`.
    pub fn to_json(&self) -> Json {
        let total = (TOTAL_NS, Json::U64(self.total()));
        Json::obj(pairs(self, ATTR.fields).chain([total]))
    }

    /// Parse a [`TimeAttribution::to_json`] object; its `total_ns`
    /// must be the buckets' sum.
    pub fn parse(v: &Json) -> Result<Self, String> {
        let a = ATTR.parse(v)?;
        match v.get(TOTAL_NS).and_then(Json::as_u64) {
            Some(total) if total == a.total() => Ok(a),
            Some(total) => Err(format!(
                "attribution buckets sum to {} but {TOTAL_NS} is {total}",
                a.total()
            )),
            None => Err(format!("{} missing {TOTAL_NS}", ATTR.key)),
        }
    }
}

/// The buckets as rows of the baseline schema (`oocp_obs::baseline`).
#[rustfmt::skip]
pub(crate) const ATTR: Block<TimeAttribution> = Block { key: "attr", fields: &[
    row!("compute_ns", "attr.compute_ns", Neutral, compute_ns),
    row!("fault_overhead_ns", "attr.fault_overhead_ns", HigherWorse, fault_overhead_ns),
    row!("hint_overhead_ns", "attr.hint_overhead_ns", HigherWorse, hint_overhead_ns),
    row!("demand_stall_ns", "attr.demand_stall_ns", HigherWorse, demand_stall_ns),
    row!("late_prefetch_stall_ns", "attr.late_prefetch_stall_ns", HigherWorse, late_prefetch_stall_ns),
    row!("backpressure_stall_ns", "attr.backpressure_stall_ns", HigherWorse, backpressure_stall_ns),
    row!("drain_idle_ns", "attr.drain_idle_ns", HigherWorse, drain_idle_ns),
]};

/// The buckets' derived sum, written after them and checked on read.
const TOTAL_NS: &str = "total_ns";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_elapsed_exactly() {
        // user 100, fault 10, prefetch 5, idle 885 of which: fault
        // waits 600 (late 200), backpressure 85, drain 200.
        let a = TimeAttribution::new(100, 10, 5, 885, 600, 200, 85);
        assert_eq!(a.compute_ns, 100);
        assert_eq!(a.demand_stall_ns, 400);
        assert_eq!(a.late_prefetch_stall_ns, 200);
        assert_eq!(a.backpressure_stall_ns, 85);
        assert_eq!(a.drain_idle_ns, 200);
        assert_eq!(a.total(), 1000);
        assert!(a.sums_to(1000, 0.0));
        assert!(!a.sums_to(1001, 0.0));
        assert!(a.sums_to(1001, 0.01));
    }

    #[test]
    fn zero_run_is_zero() {
        let a = TimeAttribution::new(0, 0, 0, 0, 0, 0, 0);
        assert_eq!(a.total(), 0);
        assert!(a.sums_to(0, 0.0));
        assert_eq!(TimeAttribution::frac(5, 0), 0.0);
    }

    #[test]
    fn overhead_and_stall_roll_ups() {
        let a = TimeAttribution::new(1, 2, 3, 60, 40, 15, 10);
        assert_eq!((a.fault_overhead_ns, a.hint_overhead_ns), (2, 3));
        let stalls = (
            a.demand_stall_ns,
            a.late_prefetch_stall_ns,
            a.backpressure_stall_ns,
        );
        assert_eq!(stalls, (25, 15, 10));
        assert_eq!(a.drain_idle_ns, 10);
    }
}
