//! The "why-late" causal attribution summary.
//!
//! PR 3's ledger answers *how many* prefetches were late, dropped, or
//! wasted; this module answers *why*. The OS joins the ledger with the
//! completion detail the disk exposes ([`oocp_disk`]'s per-request wait
//! and service times) and assigns every late stall a single dominant
//! cause via the decision tree on [`crate::LateCause`]; drops and
//! wasted entries map 1:1 onto their ledger outcomes. The fourteen
//! counts therefore exactly partition the ledger's
//! `late + dropped + wasted` total — a checked invariant, like the
//! ledger partition itself.

use crate::baseline::{pairs, row, Block, Field};
use crate::json::Json;
use crate::ledger::{LateCause, LedgerCounts};

/// Number of whylate causes (7 late + 5 drop + 2 wasted).
pub const WHYLATE_CAUSES: usize = 14;

/// The fourteen causes: JSON key, gated baseline metric (every cause
/// reads worse as it grows) and field.
#[rustfmt::skip]
const CAUSES: [Field<WhylateSummary>; WHYLATE_CAUSES] = [
    row!("late_issue_lag", "whylate.late_issue_lag", HigherWorse, late_issue_lag),
    row!("late_queue_wait", "whylate.late_queue_wait", HigherWorse, late_queue_wait),
    row!("late_service_time", "whylate.late_service_time", HigherWorse, late_service_time),
    row!("late_journal_stall", "whylate.late_journal_stall", HigherWorse, late_journal_stall),
    row!("late_degraded_pause", "whylate.late_degraded_pause", HigherWorse, late_degraded_pause),
    row!("late_degraded_read", "whylate.late_degraded_read", HigherWorse, late_degraded_read),
    row!("late_rebuild_contention", "whylate.late_rebuild_contention", HigherWorse, late_rebuild_contention),
    row!("drop_no_memory", "whylate.drop_no_memory", HigherWorse, drop_no_memory),
    row!("drop_queue_full", "whylate.drop_queue_full", HigherWorse, drop_queue_full),
    row!("drop_io_error", "whylate.drop_io_error", HigherWorse, drop_io_error),
    row!("drop_quota", "whylate.drop_quota", HigherWorse, drop_quota),
    row!("drop_pressure", "whylate.drop_pressure", HigherWorse, drop_pressure),
    row!("wasted_evicted_unused", "whylate.wasted_evicted_unused", HigherWorse, wasted_evicted_unused),
    row!("wasted_unused_at_end", "whylate.wasted_unused_at_end", HigherWorse, wasted_unused_at_end),
];

/// The `whylate` block of a baseline run and of a run report.
pub(crate) const WHYLATE: Block<WhylateSummary> = Block {
    key: "whylate",
    fields: &CAUSES,
};

/// Stable snake_case names for the fourteen causes, in
/// [`WhylateSummary::as_array`] order.
pub const WHYLATE_NAMES: [&str; WHYLATE_CAUSES] = {
    let mut names = [""; WHYLATE_CAUSES];
    let mut i = 0;
    while i < WHYLATE_CAUSES {
        names[i] = CAUSES[i].key;
        i += 1;
    }
    names
};

/// Per-run (or aggregated per-baseline) whylate cause vector.
///
/// # Examples
///
/// ```
/// use oocp_obs::{PrefetchLedger, LateCause, WhylateSummary};
///
/// let mut l = PrefetchLedger::new();
/// l.issued(1, 0);
/// l.consumed_late_caused(1, 100, LateCause::QueueWait);
/// l.dropped_no_memory();
/// l.finalize();
/// let w = WhylateSummary::from_ledger(&l);
/// assert_eq!(w.late_queue_wait, 1);
/// assert_eq!(w.drop_no_memory, 1);
/// assert!(w.partitions(l.counts()));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WhylateSummary {
    /// Late: prefetch issued too close to the touch.
    pub late_issue_lag: u64,
    /// Late: dominated by disk-queue wait.
    pub late_queue_wait: u64,
    /// Late: dominated by the read's own media time.
    pub late_service_time: u64,
    /// Late: a journal ring-full stall backed up the disk mid-flight.
    pub late_journal_stall: u64,
    /// Late: a degraded-mode transition paused hints mid-flight.
    pub late_degraded_pause: u64,
    /// Late: the read was a degraded survivor fan-out for a dead disk.
    pub late_degraded_read: u64,
    /// Late: queue wait dominated while the rebuild scrubber ran.
    pub late_rebuild_contention: u64,
    /// Dropped: no free frame at hint time.
    pub drop_no_memory: u64,
    /// Dropped: bounded disk queue was full.
    pub drop_queue_full: u64,
    /// Dropped: the prefetch read failed.
    pub drop_io_error: u64,
    /// Dropped: tenant quota exhausted.
    pub drop_quota: u64,
    /// Dropped: shed by the pressure arbiter.
    pub drop_pressure: u64,
    /// Wasted: arrived but evicted before first use.
    pub wasted_evicted_unused: u64,
    /// Wasted: never touched by the end of the run.
    pub wasted_unused_at_end: u64,
}

impl WhylateSummary {
    /// Build the summary from a finalized ledger: late causes from the
    /// ledger's per-cause counts, drops and wasted from the outcome
    /// partition.
    pub fn from_ledger(l: &crate::PrefetchLedger) -> Self {
        let lc = l.late_causes();
        let c = l.counts();
        Self {
            late_issue_lag: lc[LateCause::IssueLag as usize],
            late_queue_wait: lc[LateCause::QueueWait as usize],
            late_service_time: lc[LateCause::ServiceTime as usize],
            late_journal_stall: lc[LateCause::JournalStall as usize],
            late_degraded_pause: lc[LateCause::DegradedPause as usize],
            late_degraded_read: lc[LateCause::DegradedRead as usize],
            late_rebuild_contention: lc[LateCause::RebuildContention as usize],
            drop_no_memory: c.dropped_no_memory,
            drop_queue_full: c.dropped_queue_full,
            drop_io_error: c.dropped_io_error,
            drop_quota: c.dropped_quota,
            drop_pressure: c.dropped_pressure,
            wasted_evicted_unused: c.evicted_unused,
            wasted_unused_at_end: c.unused_at_end,
        }
    }

    /// The fourteen counts in [`WHYLATE_NAMES`] order.
    pub fn as_array(&self) -> [u64; WHYLATE_CAUSES] {
        CAUSES.map(|f| (f.get)(self))
    }

    /// Inverse of [`WhylateSummary::as_array`].
    pub fn from_array(a: [u64; WHYLATE_CAUSES]) -> Self {
        let mut w = Self::default();
        for (f, v) in CAUSES.iter().zip(a) {
            (f.set)(&mut w, v);
        }
        w
    }

    /// Sum of the seven late causes.
    pub fn late_total(&self) -> u64 {
        self.late_issue_lag
            + self.late_queue_wait
            + self.late_service_time
            + self.late_journal_stall
            + self.late_degraded_pause
            + self.late_degraded_read
            + self.late_rebuild_contention
    }

    /// Sum of the five drop causes.
    pub fn drop_total(&self) -> u64 {
        self.drop_no_memory
            + self.drop_queue_full
            + self.drop_io_error
            + self.drop_quota
            + self.drop_pressure
    }

    /// Sum of the two wasted causes.
    pub fn wasted_total(&self) -> u64 {
        self.wasted_evicted_unused + self.wasted_unused_at_end
    }

    /// The partition invariant against a closed ledger: late causes sum
    /// to `late_inflight`, drop causes match each drop outcome, wasted
    /// causes match each wasted outcome. Every late/dropped/wasted
    /// prefetch has exactly one cause.
    pub fn partitions(&self, c: &LedgerCounts) -> bool {
        self.late_total() == c.late_inflight
            && self.drop_no_memory == c.dropped_no_memory
            && self.drop_queue_full == c.dropped_queue_full
            && self.drop_io_error == c.dropped_io_error
            && self.drop_quota == c.dropped_quota
            && self.drop_pressure == c.dropped_pressure
            && self.wasted_evicted_unused == c.evicted_unused
            && self.wasted_unused_at_end == c.unused_at_end
    }

    /// Fold another summary into this one (baseline-level aggregation
    /// across cells).
    pub fn merge(&mut self, o: &WhylateSummary) {
        let mut a = self.as_array();
        for (x, y) in a.iter_mut().zip(o.as_array()) {
            *x += y;
        }
        *self = Self::from_array(a);
    }

    /// JSON object with one field per cause, in stable order.
    pub fn to_json(&self) -> Json {
        Json::obj(pairs(self, &CAUSES))
    }

    /// Parse a JSON object produced by [`WhylateSummary::to_json`].
    /// Every cause must be present; an error names the missing one.
    pub fn parse(doc: &Json) -> Result<Self, String> {
        WHYLATE.parse(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrefetchLedger;

    fn busy_ledger() -> PrefetchLedger {
        let mut l = PrefetchLedger::new();
        l.issued(1, 0);
        l.consumed_late_caused(1, 10, LateCause::IssueLag);
        l.issued(2, 0);
        l.consumed_late_caused(2, 20, LateCause::QueueWait);
        l.issued(3, 0);
        l.consumed_late_caused(3, 30, LateCause::ServiceTime);
        l.dropped_no_memory();
        l.dropped_quota();
        l.dropped_pressure();
        l.issued(4, 0);
        l.dropped_queue_full(4);
        l.issued(5, 0);
        l.dropped_io_error(5);
        l.issued(6, 0);
        l.evicted(6);
        l.issued(7, 0);
        l.finalize();
        l
    }

    #[test]
    fn summary_partitions_every_outcome() {
        let l = busy_ledger();
        let w = WhylateSummary::from_ledger(&l);
        assert!(w.partitions(l.counts()));
        assert_eq!(w.late_total(), 3);
        assert_eq!(w.drop_total(), 5);
        assert_eq!(w.wasted_total(), 2);
        assert_eq!(
            w.late_total() + w.drop_total() + w.wasted_total(),
            l.counts().late_inflight + 5 + l.counts().wasted(),
        );
    }

    #[test]
    fn partition_check_catches_misattribution() {
        let l = busy_ledger();
        let mut w = WhylateSummary::from_ledger(&l);
        w.late_queue_wait += 1; // double-counted cause
        assert!(!w.partitions(l.counts()));
    }

    #[test]
    fn json_roundtrip_preserves_every_cause() {
        let mut w = WhylateSummary::from_ledger(&busy_ledger());
        w.late_journal_stall = 7;
        w.late_degraded_pause = 9;
        let back = WhylateSummary::parse(&w.to_json()).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn parse_rejects_missing_redundancy_causes() {
        // Only v4 documents load, and every v4 whylate block carries
        // the two redundancy causes: a block without one is corrupt.
        let w = WhylateSummary::from_ledger(&busy_ledger());
        for cause in ["late_degraded_read", "late_rebuild_contention"] {
            let Json::Obj(mut fields) = w.to_json() else {
                panic!("to_json must emit an object");
            };
            fields.retain(|(k, _)| k != cause);
            let err = WhylateSummary::parse(&Json::Obj(fields)).unwrap_err();
            assert!(err.contains(cause), "{err}");
        }
    }

    #[test]
    fn names_follow_the_array_order() {
        let w = WhylateSummary {
            late_degraded_read: 6,
            wasted_unused_at_end: 14,
            ..WhylateSummary::default()
        };
        let a = w.as_array();
        assert_eq!(WHYLATE_NAMES[5], "late_degraded_read");
        assert_eq!((a[5], a[13]), (6, 14));
        assert_eq!(WhylateSummary::from_array(a), w);
    }

    #[test]
    fn parse_rejects_partial_blocks() {
        let w = WhylateSummary::default();
        let Json::Obj(mut fields) = w.to_json() else {
            panic!("to_json must emit an object");
        };
        fields.pop();
        assert!(WhylateSummary::parse(&Json::Obj(fields)).is_err());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = WhylateSummary::from_ledger(&busy_ledger());
        let b = a;
        a.merge(&b);
        assert_eq!(a.as_array(), b.as_array().map(|v| 2 * v));
    }
}
