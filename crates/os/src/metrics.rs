//! Optional observability state carried by the machine: the metrics
//! fold over its event stream.
//!
//! Everything in this module is *passive*: the machine emits each event
//! once (`Machine::emit`), this layer folds it into histograms and the
//! prefetch ledger, and nothing the core decides ever reads it back — it
//! never advances the simulated clock or changes a paging decision.
//! Enabling metrics must be timing-neutral — a run with metrics on
//! produces byte-identical results and timestamps to the same run with
//! metrics off (the bench crate proptests this).

use oocp_disk::Completion;
use oocp_obs::{
    IssueCtx, LateCause, LatencyHist, LedgerCounts, PrefetchLedger, WhylateSummary, ISSUE_DEGRADED,
    ISSUE_REBUILD_ACTIVE,
};
use oocp_sim::time::Ns;

use crate::trace::{Event, RevertCause, TraceEvent};

/// Live observability state (a histogram plus the prefetch ledger).
///
/// Created by [`crate::Machine::enable_metrics`]; snapshotted as a
/// [`MetricsReport`] by [`crate::Machine::metrics_report`].
#[derive(Clone, Debug, Default)]
pub(crate) struct ObsMetrics {
    /// Waits for disk-queue slots (scheduler backpressure on demand
    /// reads and write-backs).
    queue_wait: LatencyHist,
    /// The prefetch-lifecycle ledger (Figure 6/7 partition).
    pub(crate) ledger: PrefetchLedger,
    /// Degraded-mode entries folded so far: a prefetch in flight across
    /// one was paused on, not raced.
    degrade_epoch: u64,
}

impl ObsMetrics {
    /// Snapshot the current state as a flat, `Copy` report, beside the
    /// machine's own demand-fault distribution.
    pub(crate) fn report(&self, fault_wait: LatencyHist) -> MetricsReport {
        MetricsReport {
            fault_wait,
            queue_wait: self.queue_wait,
            ledger: *self.ledger.counts(),
            ledger_entries: self.ledger.entries(),
            ledger_open: self.ledger.open_entries(),
            lead_time: *self.ledger.lead_time(),
            arrival_to_use: *self.ledger.arrival_to_use(),
            whylate: WhylateSummary::from_ledger(&self.ledger),
        }
    }

    /// The metrics fold: record `event`, which happened at `at`.
    pub(crate) fn fold(&mut self, at: Ns, event: Event) {
        let ledger = &mut self.ledger;
        match event {
            Event::Trace(TraceEvent::QueueFullWait { wait, .. }) => self.queue_wait.record(wait),
            Event::Trace(TraceEvent::DegradedEnter) => self.degrade_epoch += 1,
            Event::Trace(TraceEvent::PrefetchArrive { page, arrival, .. }) => {
                ledger.arrived(page, arrival)
            }
            Event::Trace(TraceEvent::PrefetchConsume { page, .. }) => ledger.consumed(page, at),
            Event::Trace(TraceEvent::PrefetchDrop { .. }) => ledger.dropped_no_memory(),
            Event::Trace(TraceEvent::HintDropQuota { .. }) => ledger.dropped_quota(),
            Event::Trace(TraceEvent::HintDropPressure { .. }) => ledger.dropped_pressure(),
            Event::ConsumedLate {
                page,
                touch,
                read,
                journal_stalls,
                ..
            } => {
                let cause = self.classify_late(page, touch, read, journal_stalls);
                self.ledger.consumed_late_caused(page, read.at, cause);
            }
            Event::Issued {
                page,
                journal_stalls,
                flags,
            } => {
                let ctx = IssueCtx {
                    issued_at: at,
                    journal_stalls,
                    degrade_epoch: self.degrade_epoch,
                    flags,
                };
                ledger.issued_with(page, ctx);
            }
            Event::Reclaimed { page } => ledger.evicted(page),
            Event::Reverted { page, cause } => match cause {
                RevertCause::QueueFull => ledger.dropped_queue_full(page),
                RevertCause::IoError => ledger.dropped_io_error(page),
                RevertCause::Crashed => {}
            },
            Event::Finished => ledger.finalize(),
            Event::Trace(_) => {}
        }
    }

    /// Assign the single dominant cause of a late prefetch (whylate,
    /// DESIGN.md §12.2): `page` was touched at `touch`, before any
    /// stall, while its read — completing as `read` — was in flight, and
    /// the machine had counted `journal_stalls` by then. The decision
    /// tree (documented on [`LateCause`]) checks environmental
    /// interference first, then asks whether even an uncontended disk
    /// could have made the deadline, then splits the remainder by where
    /// the flight time actually went.
    fn classify_late(
        &self,
        page: u64,
        touch: Ns,
        read: Completion,
        journal_stalls: u64,
    ) -> LateCause {
        let Some(at_issue) = self.ledger.issue_ctx(page) else {
            return LateCause::IssueLag;
        };
        let queued = read.wait >= read.service;
        if at_issue.flags & ISSUE_DEGRADED != 0 {
            // The read itself was a survivor fan-out for a page on the
            // dead disk — reconstruction latency, not scheduling.
            LateCause::DegradedRead
        } else if self.degrade_epoch != at_issue.degrade_epoch {
            LateCause::DegradedPause
        } else if journal_stalls > at_issue.journal_stalls && queued {
            LateCause::JournalStall
        } else if at_issue.flags & ISSUE_REBUILD_ACTIVE != 0 && queued {
            // Queue wait dominated while the rebuild scrubber was
            // pushing reconstruction I/O through the survivors.
            LateCause::RebuildContention
        } else if touch.saturating_sub(at_issue.issued_at) < read.service {
            LateCause::IssueLag
        } else if queued {
            LateCause::QueueWait
        } else {
            LateCause::ServiceTime
        }
    }
}

/// A point-in-time snapshot of the metrics layer, flattened for export.
///
/// `Copy` so bench results can carry it around freely; the partition
/// invariant `ledger.sum() + ledger_open == ledger_entries` holds for
/// every snapshot, and `ledger_open == 0` after
/// [`crate::Machine::finish`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsReport {
    /// Demand-fault stall distribution: every hard-fault disk wait,
    /// including the residual waits on in-flight prefetched pages.
    pub fault_wait: LatencyHist,
    /// Disk-queue-slot wait distribution.
    pub queue_wait: LatencyHist,
    /// Closed lifecycle outcomes.
    pub ledger: LedgerCounts,
    /// Lifecycle entries ever opened (partition denominator).
    pub ledger_entries: u64,
    /// Entries still open at snapshot time.
    pub ledger_open: u64,
    /// Prefetch issue-to-arrival distribution.
    pub lead_time: LatencyHist,
    /// Arrival-to-first-use distribution for timely hits.
    pub arrival_to_use: LatencyHist,
    /// Whylate causal attribution of the late/dropped/wasted entries;
    /// partitions the corresponding `ledger` outcomes exactly
    /// ([`oocp_obs::WhylateSummary::partitions`]).
    pub whylate: WhylateSummary,
}

impl MetricsReport {
    /// The checked partition invariant.
    pub fn partition_ok(&self) -> bool {
        self.ledger.sum() + self.ledger_open == self.ledger_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_snapshots_ledger_partition() {
        let mut m = ObsMetrics::default();
        let mut fault_wait = LatencyHist::default();
        fault_wait.record(1_000);
        m.ledger.issued(3, 10);
        m.ledger.arrived(3, 500);
        m.ledger.consumed(3, 900);
        m.ledger.issued(4, 20);
        let r = m.report(fault_wait);
        assert_eq!(r.ledger_entries, 2);
        assert_eq!(r.ledger_open, 1);
        assert_eq!(r.ledger.timely_hits, 1);
        assert!(r.partition_ok());
        assert_eq!(r.fault_wait.count(), 1);
        assert_eq!(r.lead_time.sum_ns(), 490);
        assert!(r.whylate.partitions(&r.ledger));
    }

    #[test]
    fn the_fold_classifies_a_late_consume_by_what_happened_in_flight() {
        // Queued four times as long as it was served, touched well after
        // an idle disk would have finished: queue wait, unless the
        // runtime entered degraded mode while the read was in flight.
        let read = Completion {
            at: 900,
            wait: 400,
            service: 100,
        };
        let late = |page| Event::ConsumedLate {
            page,
            span: page,
            touch: 600,
            read,
            journal_stalls: 0,
        };
        let mut m = ObsMetrics::default();
        for page in [1, 2] {
            let issued = Event::Issued {
                page,
                journal_stalls: 0,
                flags: 0,
            };
            m.fold(0, issued);
        }
        m.fold(900, late(1));
        m.fold(900, TraceEvent::DegradedEnter.into());
        m.fold(900, late(2));
        let w = m.report(LatencyHist::default()).whylate;
        assert_eq!((w.late_queue_wait, w.late_degraded_pause), (1, 1));
    }
}
