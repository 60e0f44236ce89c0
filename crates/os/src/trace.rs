//! Event tracing: a bounded log of paging activity.
//!
//! The paper's authors "added extensive instrumentation to enable us to
//! produce the detailed statistics shown in subsequent sections"; this
//! module is the analogous facility. When enabled, the machine records
//! every paging-relevant event with its simulated timestamp into a
//! bounded ring buffer, which experiments and the `oocpc --trace` flag
//! can dump as a timeline.

use oocp_disk::Completion;
use oocp_sim::time::Ns;

/// One traced event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Demand fault that went to disk (page, waited nanoseconds).
    HardFault {
        /// Faulting page.
        page: u64,
        /// Nanoseconds stalled waiting for the read.
        waited: Ns,
    },
    /// Reclaim from the free list (no disk I/O).
    SoftFault {
        /// Faulting page.
        page: u64,
    },
    /// Prefetch pages issued to disk.
    PrefetchIssue {
        /// First page of the issued span.
        page: u64,
        /// Pages in the span.
        count: u64,
        /// Span id of the first page. The remaining pages of the span
        /// hold consecutive ids `span + 1 .. span + count` (ids are
        /// allocated in page order at the issue decision), so one issue
        /// record names every lifecycle span it opens.
        span: u64,
    },
    /// A prefetch read completed and the page became resident.
    PrefetchArrive {
        /// The arrived page.
        page: u64,
        /// Lifecycle span id assigned at issue.
        span: u64,
        /// Exact simulated completion time of the disk read. The record
        /// itself is stamped when the OS first *observes* the completion
        /// (completions settle lazily), which keeps the ring
        /// chronological; this field carries the true arrival.
        arrival: Ns,
    },
    /// First demand touch of a prefetched page (the span's terminal
    /// consume).
    PrefetchConsume {
        /// The consumed page.
        page: u64,
        /// Lifecycle span id assigned at issue.
        span: u64,
        /// The touch found the read still in flight and stalled for the
        /// residual latency (a late prefetch).
        late: bool,
    },
    /// Prefetch page dropped for lack of memory.
    PrefetchDrop {
        /// The dropped page.
        page: u64,
    },
    /// Pages released to the free list.
    Release {
        /// First page.
        page: u64,
        /// Pages released.
        count: u64,
    },
    /// Page evicted by the pageout daemon's clock scan.
    Eviction {
        /// The evicted page.
        page: u64,
    },
    /// Dirty page scheduled for write-back.
    Writeback {
        /// The written page.
        page: u64,
    },
    /// A disk request failed (injected fault observed by the OS).
    IoError {
        /// Page whose I/O failed, or `None` for requests not tied to a
        /// single page.
        page: Option<u64>,
        /// The failing disk.
        disk: usize,
    },
    /// A failed demand read or write-back is being retried after a
    /// backoff wait.
    IoRetry {
        /// Page being retried.
        page: u64,
        /// Nanoseconds waited before this attempt.
        wait: Ns,
    },
    /// A prefetch read failed and the hint was dropped silently.
    HintDropOnError {
        /// First page of the failed run.
        page: u64,
        /// Pages in the failed run.
        count: u64,
    },
    /// A prefetch hint was dropped because the disk queue was full
    /// (scheduler backpressure; not counted as an I/O error).
    HintDropQueueFull {
        /// First page of the rejected run.
        page: u64,
        /// Pages in the rejected run.
        count: u64,
    },
    /// A demand read or write-back blocked until a disk-queue slot
    /// freed (scheduler backpressure; no retry budget consumed).
    QueueFullWait {
        /// Page whose request was blocked.
        page: u64,
        /// The saturated disk.
        disk: usize,
        /// Nanoseconds waited for the slot.
        wait: Ns,
    },
    /// A prefetch hint page was dropped because the issuing tenant's
    /// prefetch-slot or memory quota was exhausted.
    HintDropQuota {
        /// The page whose hint was dropped.
        page: u64,
        /// The tenant whose quota bound.
        tenant: u32,
    },
    /// A prefetch hint page was shed by the pressure arbiter (elevation
    /// clamp or brownout, in QoS order).
    HintDropPressure {
        /// The page whose hint was dropped.
        page: u64,
        /// The tenant whose hint was shed.
        tenant: u32,
    },
    /// The shared residency bit vector was rebuilt from page states.
    BitvecResync {
        /// Stale bits cleared by the rebuild.
        fixed: u64,
    },
    /// The runtime entered degraded (demand-paging-only) mode.
    DegradedEnter,
    /// The runtime left degraded mode and resumed hinting.
    DegradedExit,
    /// The installed prefetch policy injected a prefetch run (over and
    /// above the compiler's hints; charged no syscall time).
    PolicyInject {
        /// First page of the injected run.
        page: u64,
        /// Pages in the run.
        count: u64,
        /// Injection span id, allocated from the same counter as
        /// prefetch lifecycle spans so the two families never collide.
        /// The Chrome-trace exporter emits the injection as a
        /// first-class span under this id, which lets `tracediff`
        /// align injections across runs instead of skipping instants.
        span: u64,
    },
}

impl TraceEvent {
    /// Short tag for timeline rendering.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::HardFault { .. } => "FAULT",
            TraceEvent::SoftFault { .. } => "SOFT",
            TraceEvent::PrefetchIssue { .. } => "PF",
            TraceEvent::PrefetchArrive { .. } => "PFARR",
            TraceEvent::PrefetchConsume { .. } => "PFUSE",
            TraceEvent::PrefetchDrop { .. } => "DROP",
            TraceEvent::Release { .. } => "REL",
            TraceEvent::Eviction { .. } => "EVICT",
            TraceEvent::Writeback { .. } => "WB",
            TraceEvent::IoError { .. } => "IOERR",
            TraceEvent::IoRetry { .. } => "RETRY",
            TraceEvent::HintDropOnError { .. } => "HDROP",
            TraceEvent::HintDropQueueFull { .. } => "QDROP",
            TraceEvent::HintDropQuota { .. } => "QUOTA",
            TraceEvent::HintDropPressure { .. } => "SHED",
            TraceEvent::QueueFullWait { .. } => "QFULL",
            TraceEvent::BitvecResync { .. } => "RESYNC",
            TraceEvent::DegradedEnter => "DEGR+",
            TraceEvent::DegradedExit => "DEGR-",
            TraceEvent::PolicyInject { .. } => "PINJ",
        }
    }
}

/// Why an admitted prefetch page is being reverted.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RevertCause {
    QueueFull,
    IoError,
    Crashed,
}

/// One observable machine event, as `Machine::emit` reports it: the one
/// stream the trace ring and the metrics layer fold over (DESIGN.md
/// §3.5). Most events are trace records as they stand; the others carry
/// what only the metrics layer needs, and the ring keeps a record of a
/// late consume and of nothing else among them.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    /// A record of the paging timeline.
    Trace(TraceEvent),
    /// The first touch of `page`, whose prefetch `read` was still in
    /// flight: at `touch`, before the stall, when the machine had
    /// counted `journal_stalls`. Traced as a late `PrefetchConsume`.
    ConsumedLate {
        page: u64,
        span: u64,
        touch: Ns,
        read: Completion,
        journal_stalls: u64,
    },
    /// The read of one prefetch page was issued, with the journal-stall
    /// count and the redundancy issue flags at the time (the run it
    /// belongs to is traced as one `PrefetchIssue`).
    Issued {
        page: u64,
        journal_stalls: u64,
        flags: u64,
    },
    /// A free-list page was unmapped.
    Reclaimed { page: u64 },
    /// An issued prefetch page was taken back: its read was refused.
    Reverted { page: u64, cause: RevertCause },
    /// The run ended, cleanly or not.
    Finished,
}

impl From<TraceEvent> for Event {
    fn from(event: TraceEvent) -> Self {
        Event::Trace(event)
    }
}

/// A timestamped trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub at: Ns,
    /// The event.
    pub event: TraceEvent,
}

/// Bounded ring buffer of trace records.
///
/// When full, the oldest records are overwritten (the usual flight-
/// recorder behavior); [`Trace::dropped`] reports how many were lost.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    buf: Vec<TraceRecord>,
    capacity: usize,
    start: usize,
    dropped: u64,
}

impl Trace {
    /// Create a trace holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity.min(1 << 20)),
            capacity: capacity.max(1),
            start: 0,
            dropped: 0,
        }
    }

    /// Append a record, evicting the oldest when full.
    pub fn push(&mut self, at: Ns, event: TraceEvent) {
        let rec = TraceRecord { at, event };
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.start] = rec;
            self.start = (self.start + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records lost to ring overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The trace fold: record what the ring keeps of `event`, which
    /// happened at `at` — the paging timeline, without the events only
    /// the metrics layer reads.
    pub(crate) fn fold(&mut self, at: Ns, event: Event) {
        let rec = match event {
            Event::Trace(rec) => rec,
            Event::ConsumedLate { page, span, .. } => TraceEvent::PrefetchConsume {
                page,
                span,
                late: true,
            },
            _ => return,
        };
        self.push(at, rec);
    }

    /// Iterate the records in chronological order without copying the
    /// buffer — the ring's two slices are chained in place.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let (tail, head) = self.buf.split_at(self.start);
        head.iter().chain(tail.iter())
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter =
        std::iter::Chain<std::slice::Iter<'a, TraceRecord>, std::slice::Iter<'a, TraceRecord>>;

    fn into_iter(self) -> Self::IntoIter {
        let (tail, head) = self.buf.split_at(self.start);
        head.iter().chain(tail.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(p: u64) -> TraceEvent {
        TraceEvent::SoftFault { page: p }
    }

    /// The stamps of the records, oldest first.
    fn ats(t: &Trace) -> Vec<Ns> {
        t.iter().map(|r| r.at).collect()
    }

    #[test]
    fn records_in_order_until_capacity() {
        let mut t = Trace::new(4);
        for i in 0..3 {
            t.push(i * 10, ev(i));
        }
        assert_eq!(ats(&t), [0, 10, 20]);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut t = Trace::new(3);
        for i in 0..5 {
            t.push(i, ev(i));
        }
        assert_eq!(ats(&t), [2, 3, 4], "oldest surviving record first");
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn tags_are_distinct() {
        use std::collections::HashSet;
        let tags: HashSet<_> = [
            TraceEvent::HardFault { page: 0, waited: 0 }.tag(),
            TraceEvent::SoftFault { page: 0 }.tag(),
            TraceEvent::PrefetchIssue {
                page: 0,
                count: 1,
                span: 1,
            }
            .tag(),
            TraceEvent::PrefetchArrive {
                page: 0,
                span: 1,
                arrival: 0,
            }
            .tag(),
            TraceEvent::PrefetchConsume {
                page: 0,
                span: 1,
                late: false,
            }
            .tag(),
            TraceEvent::PrefetchDrop { page: 0 }.tag(),
            TraceEvent::Release { page: 0, count: 1 }.tag(),
            TraceEvent::Eviction { page: 0 }.tag(),
            TraceEvent::Writeback { page: 0 }.tag(),
            TraceEvent::IoError {
                page: Some(0),
                disk: 0,
            }
            .tag(),
            TraceEvent::IoRetry { page: 0, wait: 0 }.tag(),
            TraceEvent::HintDropOnError { page: 0, count: 1 }.tag(),
            TraceEvent::HintDropQueueFull { page: 0, count: 1 }.tag(),
            TraceEvent::HintDropQuota { page: 0, tenant: 0 }.tag(),
            TraceEvent::HintDropPressure { page: 0, tenant: 0 }.tag(),
            TraceEvent::QueueFullWait {
                page: 0,
                disk: 0,
                wait: 0,
            }
            .tag(),
            TraceEvent::BitvecResync { fixed: 0 }.tag(),
            TraceEvent::DegradedEnter.tag(),
            TraceEvent::DegradedExit.tag(),
        ]
        .into_iter()
        .collect();
        assert_eq!(tags.len(), 19);
    }

    #[test]
    fn iter_matches_records_across_wraparound() {
        let mut t = Trace::new(4);
        for i in 0..11 {
            t.push(i * 7, ev(i));
        }
        let from_iter: Vec<TraceRecord> = t.iter().copied().collect();
        assert_eq!(ats(&t), [49, 56, 63, 70]);
        assert!(from_iter.iter().zip(7..).all(|(r, i)| r.event == ev(i)));
        assert_eq!(t.dropped(), 7);
        // The borrowing IntoIterator sees the same sequence.
        let from_ref: Vec<TraceRecord> = (&t).into_iter().copied().collect();
        assert_eq!(from_ref, from_iter);
    }

    #[test]
    fn the_fold_keeps_the_timeline_and_skips_what_only_metrics_read() {
        let mut t = Trace::new(16);
        let read = Completion {
            at: 9,
            wait: 0,
            service: 9,
        };
        t.fold(1, ev(3).into());
        t.fold(
            2,
            Event::Issued {
                page: 4,
                journal_stalls: 0,
                flags: 0,
            },
        );
        t.fold(3, Event::Reclaimed { page: 3 });
        t.fold(
            4,
            Event::Reverted {
                page: 4,
                cause: RevertCause::IoError,
            },
        );
        t.fold(
            9,
            Event::ConsumedLate {
                page: 5,
                span: 2,
                touch: 6,
                read,
                journal_stalls: 0,
            },
        );
        t.fold(10, Event::Finished);
        let late = TraceEvent::PrefetchConsume {
            page: 5,
            span: 2,
            late: true,
        };
        let got: Vec<(Ns, TraceEvent)> = t.iter().map(|r| (r.at, r.event)).collect();
        assert_eq!(got, [(1, ev(3)), (9, late)]);
    }

    #[test]
    fn dropped_counts_every_overwrite_exactly() {
        let mut t = Trace::new(2);
        assert_eq!(t.dropped(), 0);
        t.push(0, ev(0));
        t.push(1, ev(1));
        assert_eq!(t.dropped(), 0, "filling to capacity drops nothing");
        for i in 2..100 {
            t.push(i, ev(i));
        }
        assert_eq!(t.dropped(), 98);
        assert_eq!(t.len(), 2);
        assert_eq!(ats(&t), [98, 99]);
    }
}
