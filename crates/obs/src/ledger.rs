//! The prefetch-lifecycle ledger: Figure 6/7's effectiveness partition
//! as a first-class, checked invariant.
//!
//! Every prefetch page that reaches the OS's issue decision opens a
//! ledger entry. The entry closes with exactly one outcome:
//!
//! * **timely hit** — the read completed before the first demand touch;
//!   the original fault was fully eliminated.
//! * **late (in-flight)** — the application touched the page while the
//!   read was still in progress and stalled for the residual latency.
//! * **dropped (no memory)** — the OS dropped the hint because no frame
//!   was free (the paper: "the OS simply drops prefetches when all
//!   memory is in use").
//! * **dropped (queue full)** — scheduler backpressure rejected the
//!   disk request and the non-binding hint was discarded.
//! * **dropped (I/O error)** — the prefetch read failed and the hint
//!   was silently dropped.
//! * **evicted unused** — the read completed but the page was evicted
//!   before its first use; the I/O was wasted.
//! * **unused at end** — the read completed (or was still in flight)
//!   but the run finished before any touch; also wasted work.
//!
//! The outcome counts always sum to the entries opened — a partition,
//! not a set of independent counters — and the ledger carries the two
//! lead-time histograms 3PO-style timeliness tuning needs: issue to
//! arrival, and arrival to first use.

use oocp_sim::time::Ns;

use crate::baseline::{pairs, row, Block};
use crate::hist::LatencyHist;
use crate::json::Json;

/// Closed-outcome counts. The partition invariant is
/// [`LedgerCounts::sum`] `==` [`PrefetchLedger::entries`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerCounts {
    /// Arrived before first touch; touch was a free hit.
    pub timely_hits: u64,
    /// Touched while the read was still in flight (residual stall).
    pub late_inflight: u64,
    /// Dropped at hint time: no free frame.
    pub dropped_no_memory: u64,
    /// Dropped at submit time: bounded disk queue was full.
    pub dropped_queue_full: u64,
    /// Dropped at submit time: the disk read failed.
    pub dropped_io_error: u64,
    /// Dropped at hint time: the issuing tenant's prefetch-slot or
    /// memory quota was exhausted.
    pub dropped_quota: u64,
    /// Dropped at hint time: shed by the pressure arbiter (elevation
    /// clamp or brownout).
    pub dropped_pressure: u64,
    /// Arrived but evicted before first use (wasted I/O).
    pub evicted_unused: u64,
    /// Never touched by the end of the run (wasted I/O).
    pub unused_at_end: u64,
}

impl LedgerCounts {
    /// Total closed entries across every outcome.
    pub fn sum(&self) -> u64 {
        self.timely_hits
            + self.late_inflight
            + self.dropped_no_memory
            + self.dropped_queue_full
            + self.dropped_io_error
            + self.dropped_quota
            + self.dropped_pressure
            + self.evicted_unused
            + self.unused_at_end
    }

    /// Entries whose disk read actually started (everything except the
    /// pre-issue drops).
    pub fn issued(&self) -> u64 {
        self.sum()
            - self.dropped_no_memory
            - self.dropped_queue_full
            - self.dropped_io_error
            - self.dropped_quota
            - self.dropped_pressure
    }

    /// Entries whose I/O completed but bought nothing.
    pub fn wasted(&self) -> u64 {
        self.evicted_unused + self.unused_at_end
    }

    /// Entries actually consumed by a demand touch, timely or late.
    pub fn consumed(&self) -> u64 {
        self.timely_hits + self.late_inflight
    }

    /// Fraction of consumed prefetches that arrived late — the signal a
    /// distance controller (3PO-style) tunes against. Zero when nothing
    /// was consumed.
    pub fn late_arrival_rate(&self) -> f64 {
        let consumed = self.consumed();
        if consumed == 0 {
            0.0
        } else {
            self.late_inflight as f64 / consumed as f64
        }
    }

    /// The nine outcomes as `(key, value)` pairs, in document order.
    pub fn json_fields(&self) -> impl Iterator<Item = (&'static str, Json)> + '_ {
        pairs(self, OUTCOMES.fields)
    }

    /// Read the nine outcomes from a `ledger` object.
    pub fn parse(v: &Json) -> Result<Self, String> {
        OUTCOMES.parse(v)
    }
}

/// The outcomes as rows of the baseline schema (`oocp_obs::baseline`):
/// its `ledger` block, after `entries`.
#[rustfmt::skip]
pub(crate) const OUTCOMES: Block<LedgerCounts> = Block { key: "ledger", fields: &[
    row!("timely_hits", "ledger.timely_hits", LowerWorse, timely_hits),
    row!("late_inflight", "ledger.late_inflight", HigherWorse, late_inflight),
    row!("dropped_no_memory", "ledger.dropped_no_memory", HigherWorse, dropped_no_memory),
    row!("dropped_queue_full", "ledger.dropped_queue_full", HigherWorse, dropped_queue_full),
    row!("dropped_io_error", "ledger.dropped_io_error", HigherWorse, dropped_io_error),
    row!("dropped_quota", "ledger.dropped_quota", HigherWorse, dropped_quota),
    row!("dropped_pressure", "ledger.dropped_pressure", HigherWorse, dropped_pressure),
    row!("evicted_unused", "ledger.evicted_unused", HigherWorse, evicted_unused),
    row!("unused_at_end", "ledger.unused_at_end", HigherWorse, unused_at_end),
]};

/// The single dominant cause the whylate attribution engine assigns to
/// a late (in-flight) consumption. Exactly one cause per late entry, so
/// the per-cause counts partition [`LedgerCounts::late_inflight`].
///
/// The decision tree (applied by the OS's metrics layer at the stalling
/// touch, in order):
///
/// 1. **DegradedPause** — the runtime entered or left degraded mode
///    while the prefetch was in flight; the pause, not the I/O path,
///    dominated.
/// 2. **JournalStall** — a writeback-journal ring-full stall occurred
///    during the flight and the read's queue wait dominated its media
///    time (the journal's synchronous retirement backed up the disk).
/// 3. **IssueLag** — the touch came sooner after issue than the read's
///    own media time: even an idle disk could not have finished, so the
///    prefetch was simply issued too late.
/// 4. **QueueWait** — the read waited in the disk queue at least as
///    long as it spent on the media.
/// 5. **ServiceTime** — none of the above: the media time itself
///    dominated (seek/rotation/transfer, possibly straggler-inflated).
///
/// With parity redundancy two further causes precede the tree: a
/// **DegradedRead** was issued as a survivor fan-out for a dead disk
/// (the reconstruction itself is the cost), and **RebuildContention**
/// marks a queue-wait-dominated stall while the online rebuild
/// scrubber was sharing the survivors' queues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LateCause {
    /// Prefetch issued too close to the touch (compiler/policy lag).
    IssueLag = 0,
    /// Dominated by time queued behind other disk traffic.
    QueueWait = 1,
    /// Dominated by the media time of the read itself.
    ServiceTime = 2,
    /// A journal ring-full stall backed up the disk during the flight.
    JournalStall = 3,
    /// Degraded-mode transition paused hint traffic mid-flight.
    DegradedPause = 4,
    /// Issued as a degraded survivor fan-out (dead-disk reconstruction).
    DegradedRead = 5,
    /// Queue wait dominated while the rebuild scrubber shared the disks.
    RebuildContention = 6,
}

impl LateCause {
    /// All causes, in index order.
    pub const ALL: [LateCause; 7] = [
        LateCause::IssueLag,
        LateCause::QueueWait,
        LateCause::ServiceTime,
        LateCause::JournalStall,
        LateCause::DegradedPause,
        LateCause::DegradedRead,
        LateCause::RebuildContention,
    ];

    /// Stable snake_case name (report/JSON key).
    pub fn name(self) -> &'static str {
        match self {
            LateCause::IssueLag => "issue_lag",
            LateCause::QueueWait => "queue_wait",
            LateCause::ServiceTime => "service_time",
            LateCause::JournalStall => "journal_stall",
            LateCause::DegradedPause => "degraded_pause",
            LateCause::DegradedRead => "degraded_read",
            LateCause::RebuildContention => "rebuild_contention",
        }
    }
}

/// Issue-context flag: the page was issued as a degraded survivor
/// fan-out (its home disk was dead). See [`IssueCtx::flags`].
pub const ISSUE_DEGRADED: u64 = 1 << 0;
/// Issue-context flag: the online rebuild scrubber was active when the
/// page was issued.
pub const ISSUE_REBUILD_ACTIVE: u64 = 1 << 1;

/// When a prefetch page was issued and the environment then (whylate
/// context), read back through [`PrefetchLedger::issue_ctx`] when its
/// entry closes late, so the cause can be classified.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IssueCtx {
    /// When the read was issued.
    pub issued_at: Ns,
    /// Machine-wide journal-stall count at issue.
    pub journal_stalls: u64,
    /// Degraded-mode epoch at issue.
    pub degrade_epoch: u64,
    /// Redundancy issue flags ([`ISSUE_DEGRADED`] | [`ISSUE_REBUILD_ACTIVE`]).
    pub flags: u64,
}

/// An open entry: issued, not yet consumed, dropped, or evicted.
#[derive(Clone, Copy, Debug)]
struct Open {
    ctx: IssueCtx,
    /// Completion time of the disk read, once known.
    arrived_at: Option<Ns>,
}

/// Tracks every prefetch page from issue to its terminal outcome.
///
/// Indexed by virtual page, in a table that grows to the highest page
/// issued: at most one entry per page can be open at a time (a page
/// cannot be re-prefetched while it is in flight or resident-untouched
/// — the OS classifies those hints as in-flight or unnecessary and
/// never re-issues).
///
/// # Examples
///
/// ```
/// use oocp_obs::PrefetchLedger;
///
/// let mut l = PrefetchLedger::new();
/// l.issued(7, 1_000);
/// l.arrived(7, 5_000);
/// l.consumed(7, 9_000);
/// l.finalize();
/// assert_eq!(l.counts().timely_hits, 1);
/// assert_eq!(l.counts().sum(), l.entries());
/// assert_eq!(l.lead_time().sum_ns(), 4_000);
/// assert_eq!(l.arrival_to_use().sum_ns(), 4_000);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PrefetchLedger {
    /// The open entry of each page, if it has one.
    open: Vec<Option<Open>>,
    /// How many of `open` are `Some`.
    open_len: u64,
    counts: LedgerCounts,
    entries: u64,
    lead_time: LatencyHist,
    arrival_to_use: LatencyHist,
    /// Per-cause counts for the late entries, indexed by `LateCause as
    /// usize`. Invariant: the counts sum to `counts.late_inflight`.
    late_causes: [u64; 7],
}

impl PrefetchLedger {
    /// Create an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries ever opened (the partition denominator).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Entries still open (in flight or resident-unused).
    pub fn open_entries(&self) -> u64 {
        self.open_len
    }

    /// Closed-outcome counts.
    pub fn counts(&self) -> &LedgerCounts {
        &self.counts
    }

    /// Issue-to-arrival latency distribution (how far ahead of the disk
    /// the prefetcher ran).
    pub fn lead_time(&self) -> &LatencyHist {
        &self.lead_time
    }

    /// Arrival-to-first-use distribution for timely hits (how much
    /// slack the prefetch distance had; large values suggest prefetches
    /// are issued earlier than necessary and hold memory longer than
    /// they need to).
    pub fn arrival_to_use(&self) -> &LatencyHist {
        &self.arrival_to_use
    }

    /// Fraction of consumed prefetches that arrived late. Delegates to
    /// [`LedgerCounts::late_arrival_rate`], which returns 0.0 (not NaN)
    /// when nothing was consumed — e.g. a policy-off run with no
    /// prefetch traffic at all.
    pub fn late_arrival_rate(&self) -> f64 {
        self.counts.late_arrival_rate()
    }

    /// Per-cause counts for the late entries, indexed by
    /// [`LateCause`] discriminant. Sums to `counts().late_inflight`.
    pub fn late_causes(&self) -> [u64; 7] {
        self.late_causes
    }

    /// The partition invariant: every opened entry is closed with
    /// exactly one outcome (true only after [`PrefetchLedger::finalize`]
    /// or while no entries are open).
    pub fn partition_ok(&self) -> bool {
        self.counts.sum() + self.open_len == self.entries
    }

    /// A prefetch page's disk read was issued at `now`.
    pub fn issued(&mut self, page: u64, now: Ns) {
        let ctx = IssueCtx {
            issued_at: now,
            ..IssueCtx::default()
        };
        self.issued_with(page, ctx);
    }

    /// Like [`PrefetchLedger::issued`], with the whylate issue context
    /// the entry is classified against if it closes late.
    pub fn issued_with(&mut self, page: u64, ctx: IssueCtx) {
        self.entries += 1;
        let i = page as usize;
        if i >= self.open.len() {
            self.open.resize(i + 1, None);
        }
        let prev = self.open[i].replace(Open {
            ctx,
            arrived_at: None,
        });
        debug_assert!(prev.is_none(), "page {page} already has an open entry");
        self.open_len += u64::from(prev.is_none());
    }

    /// Issue context of an open entry.
    pub fn issue_ctx(&self, page: u64) -> Option<IssueCtx> {
        Some(self.open.get(page as usize)?.as_ref()?.ctx)
    }

    /// Close the open entry of `page`, if it has one.
    fn close(&mut self, page: u64) -> Option<Open> {
        let e = self.open.get_mut(page as usize)?.take()?;
        self.open_len -= 1;
        Some(e)
    }

    /// A prefetch page was dropped before issue for lack of memory.
    pub fn dropped_no_memory(&mut self) {
        self.entries += 1;
        self.counts.dropped_no_memory += 1;
    }

    /// A prefetch page was dropped before issue: the issuing tenant's
    /// quota was exhausted.
    pub fn dropped_quota(&mut self) {
        self.entries += 1;
        self.counts.dropped_quota += 1;
    }

    /// A prefetch page was dropped before issue by the pressure arbiter.
    pub fn dropped_pressure(&mut self) {
        self.entries += 1;
        self.counts.dropped_pressure += 1;
    }

    /// An issued page was reverted: the bounded disk queue was full.
    pub fn dropped_queue_full(&mut self, page: u64) {
        if self.close(page).is_some() {
            self.counts.dropped_queue_full += 1;
        }
    }

    /// An issued page was reverted: its disk read failed.
    pub fn dropped_io_error(&mut self, page: u64) {
        if self.close(page).is_some() {
            self.counts.dropped_io_error += 1;
        }
    }

    /// The page's disk read completed at `arrival` (recorded lazily,
    /// whenever the OS first observes the completion; the timestamp is
    /// the exact simulated completion time, so lead time is exact even
    /// when observation is late). Idempotent.
    pub fn arrived(&mut self, page: u64, arrival: Ns) {
        if let Some(Some(e)) = self.open.get_mut(page as usize) {
            if e.arrived_at.is_none() {
                e.arrived_at = Some(arrival);
                let lead = arrival.saturating_sub(e.ctx.issued_at);
                self.lead_time.record(lead);
            }
        }
    }

    /// First demand touch found the page resident: a timely hit.
    /// No-ops when no entry is open for the page (e.g. the hit came
    /// from a free-list reclaim that never did I/O).
    pub fn consumed(&mut self, page: u64, now: Ns) {
        if let Some(e) = self.close(page) {
            self.counts.timely_hits += 1;
            if let Some(at) = e.arrived_at {
                self.arrival_to_use.record(now.saturating_sub(at));
            }
        }
    }

    /// First demand touch found the page still in flight and stalled
    /// until `arrival`; `cause` is the dominant cause the whylate engine
    /// assigned to the stall. Records the lead time if the arrival had
    /// not been observed yet; arrival-to-use is zero by definition (the
    /// touch consumes the page the moment it lands).
    pub fn consumed_late_caused(&mut self, page: u64, arrival: Ns, cause: LateCause) {
        if let Some(e) = self.close(page) {
            self.counts.late_inflight += 1;
            self.late_causes[cause as usize] += 1;
            if e.arrived_at.is_none() {
                let lead = arrival.saturating_sub(e.ctx.issued_at);
                self.lead_time.record(lead);
            }
            self.arrival_to_use.record(0);
        }
    }

    /// The page was unmapped before its first use: wasted I/O.
    /// No-ops when no entry is open for the page.
    pub fn evicted(&mut self, page: u64) {
        if self.close(page).is_some() {
            self.counts.evicted_unused += 1;
        }
    }

    /// Close every still-open entry as unused-at-end. Call once when
    /// the run finishes; afterwards the partition is total.
    pub fn finalize(&mut self) {
        self.counts.unused_at_end += self.open_len;
        self.open.clear();
        self.open_len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_outcome_closes_exactly_one_entry() {
        let mut l = PrefetchLedger::new();
        l.issued(1, 10);
        l.arrived(1, 20);
        l.consumed(1, 30); // timely

        l.issued(2, 10);
        l.consumed_late_caused(2, 50, LateCause::IssueLag); // late

        l.dropped_no_memory();

        l.issued(3, 10);
        l.dropped_queue_full(3);

        l.issued(4, 10);
        l.dropped_io_error(4);

        l.issued(5, 10);
        l.arrived(5, 15);
        l.evicted(5);

        l.dropped_quota();
        l.dropped_pressure();

        l.issued(6, 10);
        l.finalize(); // unused at end

        let c = *l.counts();
        assert_eq!(c.timely_hits, 1);
        assert_eq!(c.late_inflight, 1);
        assert_eq!(c.dropped_no_memory, 1);
        assert_eq!(c.dropped_queue_full, 1);
        assert_eq!(c.dropped_io_error, 1);
        assert_eq!(c.dropped_quota, 1);
        assert_eq!(c.dropped_pressure, 1);
        assert_eq!(c.evicted_unused, 1);
        assert_eq!(c.unused_at_end, 1);
        assert_eq!(l.entries(), 9);
        assert!(l.partition_ok());
        assert_eq!(c.issued(), 4);
        assert_eq!(c.wasted(), 2);
        assert_eq!(c.consumed(), 2);
        assert!((c.late_arrival_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn late_arrival_rate_guards_empty() {
        assert_eq!(LedgerCounts::default().late_arrival_rate(), 0.0);
    }

    #[test]
    fn ledger_late_arrival_rate_is_zero_not_nan_without_arrivals() {
        // A policy-off run issues nothing: the delegate must report 0.0
        // (a finite number for --json), never NaN.
        let l = PrefetchLedger::new();
        let rate = l.late_arrival_rate();
        assert!(rate.is_finite());
        assert_eq!(rate, 0.0);
        // Drops alone still leave consumed() == 0.
        let mut l = PrefetchLedger::new();
        l.dropped_no_memory();
        l.dropped_quota();
        assert_eq!(l.late_arrival_rate(), 0.0);
    }

    #[test]
    fn late_causes_partition_the_late_count() {
        let ctx = |journal_stalls, degrade_epoch, flags| IssueCtx {
            issued_at: 10,
            journal_stalls,
            degrade_epoch,
            flags,
        };
        let mut l = PrefetchLedger::new();
        l.issued_with(1, ctx(0, 0, 0));
        l.consumed_late_caused(1, 50, LateCause::QueueWait);
        l.issued(2, 10);
        l.consumed_late_caused(2, 60, LateCause::IssueLag);
        l.issued_with(3, ctx(2, 1, 0));
        assert_eq!(l.issue_ctx(3), Some(ctx(2, 1, 0)));
        l.consumed_late_caused(3, 70, LateCause::JournalStall);
        assert_eq!(l.issue_ctx(3), None, "a closed entry has no context");
        l.issued_with(4, ctx(0, 0, ISSUE_DEGRADED | ISSUE_REBUILD_ACTIVE));
        assert_eq!(
            l.issue_ctx(4).map(|c| c.flags),
            Some(ISSUE_DEGRADED | ISSUE_REBUILD_ACTIVE)
        );
        l.consumed_late_caused(4, 80, LateCause::DegradedRead);
        l.issued_with(5, ctx(0, 0, ISSUE_REBUILD_ACTIVE));
        l.consumed_late_caused(5, 90, LateCause::RebuildContention);
        let causes = l.late_causes();
        assert_eq!(causes[LateCause::IssueLag as usize], 1);
        assert_eq!(causes[LateCause::QueueWait as usize], 1);
        assert_eq!(causes[LateCause::JournalStall as usize], 1);
        assert_eq!(causes[LateCause::DegradedRead as usize], 1);
        assert_eq!(causes[LateCause::RebuildContention as usize], 1);
        assert_eq!(
            causes.iter().sum::<u64>(),
            l.counts().late_inflight,
            "cause counts partition the late total"
        );
    }

    #[test]
    fn lead_time_is_exact_and_recorded_once() {
        let mut l = PrefetchLedger::new();
        l.issued(9, 100);
        l.arrived(9, 350);
        l.arrived(9, 999); // idempotent: second observation ignored
        l.consumed(9, 400);
        assert_eq!(l.lead_time().count(), 1);
        assert_eq!(l.lead_time().sum_ns(), 250);
        assert_eq!(l.arrival_to_use().sum_ns(), 50);
    }

    #[test]
    fn late_consume_records_lead_from_stall_arrival() {
        let mut l = PrefetchLedger::new();
        l.issued(3, 1000);
        l.consumed_late_caused(3, 1700, LateCause::IssueLag);
        assert_eq!(l.lead_time().sum_ns(), 700);
        assert_eq!(l.arrival_to_use().max(), 0);
    }

    #[test]
    fn closing_unknown_pages_is_harmless() {
        let mut l = PrefetchLedger::new();
        l.consumed(42, 10);
        l.evicted(42);
        l.dropped_queue_full(42);
        l.dropped_io_error(42);
        l.arrived(42, 10);
        assert_eq!(l.issue_ctx(42), None);
        assert_eq!(l.entries(), 0);
        assert_eq!(l.counts().sum(), 0);
        assert!(l.partition_ok());
    }

    #[test]
    fn reissue_after_eviction_reopens() {
        let mut l = PrefetchLedger::new();
        l.issued(7, 10);
        l.evicted(7);
        l.issued(7, 100);
        l.arrived(7, 150);
        l.consumed(7, 160);
        l.finalize();
        assert_eq!(l.entries(), 2);
        assert_eq!(l.counts().evicted_unused, 1);
        assert_eq!(l.counts().timely_hits, 1);
        assert!(l.partition_ok());
        // A page below the table's end, after `finalize` emptied it.
        l.issued(3, 200);
        assert_eq!(l.open_entries(), 1);
        assert_eq!(l.issue_ctx(3).map(|c| c.issued_at), Some(200));
    }
}
