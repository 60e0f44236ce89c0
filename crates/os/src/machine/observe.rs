//! Observers (DESIGN.md §3.5, §12, §13): the event trace, the
//! metrics/ledger layer, the sim-time sampler, and the host-time
//! profiler. All four are detached by default and purely passive when
//! attached: they record what the core already did and never advance
//! the clock or change a paging decision. The first two are folds over
//! one event stream, [`Machine::emit`]; the core reads neither back.

use oocp_obs::{
    LedgerCounts, MachineBucket, MachineProf, SeriesDef, SeriesKind, Telemetry, TimeAttribution,
    TimeSeriesRing,
};
use oocp_sim::time::Ns;

use super::Machine;
use crate::bitvec::ResidencyBits;
use crate::metrics::{MetricsReport, ObsMetrics};
use crate::trace::{Event, Trace, TraceEvent};

/// The observers' state.
#[derive(Default)]
pub(super) struct Observers {
    /// Optional event trace (flight recorder).
    pub(super) trace: Option<Trace>,
    /// Optional observability layer: latency histograms and the
    /// prefetch-lifecycle ledger.
    pub(super) metrics: Option<ObsMetrics>,
    /// Continuous-telemetry sampler. The only cost an unattached run
    /// pays is one `is_some` branch per clock advance (the sampler
    /// itself is pull-only).
    pub(super) sampler: Option<SamplerState>,
    /// Host-time profiler buckets for the machine's charge paths
    /// (residency / ledger / journal / sampler). Detached runs pay one
    /// `is_some` branch per probed boundary and read no clocks.
    pub(super) host_prof: Option<MachineProf>,
}

/// The attached sampler: a table of series read from live machine
/// state into a bounded time-series ring every `interval` of
/// *simulated* time.
pub(super) struct SamplerState {
    /// What a row holds, in row order.
    series: Vec<Series>,
    pub(super) ring: TimeSeriesRing,
    /// Next sim time a row is due.
    pub(super) next_due: Ns,
}

/// Reads one sampled scalar off the machine. The index is the disk or
/// tenant of a per-instance series (machine-wide ones ignore it).
type Read = fn(&Machine, usize) -> u64;

/// One row of the series table: exported name (per-instance rows get a
/// `disk3.`-style prefix), help text, kind, and where the value lives.
type SeriesRow = (&'static str, &'static str, SeriesKind, Read);

/// One sampled scalar series of an attached sampler: what it exports
/// and where its value lives.
struct Series {
    def: SeriesDef,
    read: Read,
    index: usize,
}

impl Series {
    fn value(&self, m: &Machine) -> u64 {
        (self.read)(m, self.index)
    }
}

const fn counter(name: &'static str, help: &'static str, read: Read) -> SeriesRow {
    (name, help, SeriesKind::Counter, read)
}

const fn gauge(name: &'static str, help: &'static str, read: Read) -> SeriesRow {
    (name, help, SeriesKind::Gauge, read)
}

fn ledger_counts(m: &Machine) -> LedgerCounts {
    let metrics = m.observe.metrics.as_ref();
    metrics.map(|x| *x.ledger.counts()).unwrap_or_default()
}

/// Every scalar series the sampler exports, in row order, for a machine
/// with `ndisks` disks and `ntenants` registered tenants. The one place
/// a series' name and its source are written: the sampler's rows and
/// [`Machine::sampler_output`] read through it.
fn series_table(ndisks: usize, ntenants: usize) -> Vec<Series> {
    const MACHINE: &[SeriesRow] = &[
        counter("os.user_ops", "interpreter operations retired", |m, _| {
            m.stats.user_ops
        }),
        counter(
            "os.hard_faults",
            "demand faults that went to disk",
            |m, _| m.stats.hard_faults,
        ),
        counter("os.soft_faults", "reclaims from the free list", |m, _| {
            m.stats.soft_faults
        }),
        counter(
            "os.prefetch_pages_issued",
            "prefetch pages put in flight",
            |m, _| m.stats.prefetch_pages_issued,
        ),
        counter("os.prefetch_pages_dropped", "hint pages dropped", |m, _| {
            m.stats.prefetch_pages_dropped
        }),
        counter(
            "os.late_prefetch_stall_ns",
            "time stalled on in-flight prefetches",
            |m, _| m.stats.late_prefetch_stall_ns,
        ),
        gauge("os.resident_pages", "pages resident in memory", |m, _| {
            m.resident
        }),
        gauge(
            "os.free_frames",
            "unallocated plus reclaimable frames",
            |m, _| m.truly_free() + m.free_list_len(),
        ),
        gauge(
            "os.inflight_prefetch",
            "prefetch pages in flight",
            |m, _| m.inflight,
        ),
        counter(
            "ledger.timely_hits",
            "prefetches that arrived before use",
            |m, _| ledger_counts(m).timely_hits,
        ),
        counter(
            "ledger.late_inflight",
            "prefetches consumed while in flight",
            |m, _| ledger_counts(m).late_inflight,
        ),
        counter(
            "journal.appends",
            "write-ahead journal intents appended",
            |m, _| m.stats.journal_appends,
        ),
        counter(
            "journal.stalls",
            "writebacks that waited for a ring slot",
            |m, _| m.stats.journal_stalls,
        ),
        gauge(
            "journal.ring_in_use",
            "live journal slots across all rings",
            |m, _| m.durability.journal_in_use(m.params.ndisks),
        ),
        counter(
            "policy.injected_prefetch_pages",
            "prefetch pages injected by the policy",
            |m, _| m.stats.policy_injected_prefetch_pages,
        ),
        counter(
            "policy.injected_release_pages",
            "release pages injected by the policy",
            |m, _| m.stats.policy_injected_release_pages,
        ),
        counter(
            "disk.demand_wait_ns",
            "demand-read queue wait, all disks",
            |m, _| m.disks.total_stats().demand_wait_ns,
        ),
        counter(
            "disk.prefetch_wait_ns",
            "prefetch-read queue wait, all disks",
            |m, _| m.disks.total_stats().prefetch_wait_ns,
        ),
        counter(
            "disk.write_wait_ns",
            "write queue wait, all disks",
            |m, _| m.disks.total_stats().write_wait_ns,
        ),
    ];
    const PER_DISK: &[SeriesRow] = &[gauge(
        "queue_len",
        "undispatched requests queued",
        |m, d| m.disks.queue_len(d) as u64,
    )];
    const PER_TENANT: &[SeriesRow] = &[
        gauge(
            "resident_pages",
            "pages resident in the tenant's segment",
            |m, t| m.tenancy.bits.get(t).map_or(0, ResidencyBits::set_bits),
        ),
        gauge(
            "inflight_prefetch",
            "tenant prefetch pages in flight",
            |m, t| m.tenancy.tenants[t].stats.inflight_prefetch,
        ),
    ];
    const REDUNDANCY: &[SeriesRow] = &[
        gauge(
            "redundancy.rebuild_rows_done",
            "stripe rows reconstructed onto the hot spare",
            |m, _| m.redundancy.rebuilt_rows,
        ),
        counter(
            "redundancy.degraded_reads",
            "demand reads served by survivor reconstruction",
            |m, _| m.stats.degraded_reads,
        ),
        counter(
            "redundancy.hedged_reads",
            "degraded-mode demand reads that hedged the tail",
            |m, _| m.stats.hedged_reads,
        ),
    ];
    fn rows(
        rows: &'static [SeriesRow],
        prefix: String,
        index: usize,
    ) -> impl Iterator<Item = Series> {
        rows.iter().map(move |&(name, help, kind, read)| Series {
            def: SeriesDef {
                name: format!("{prefix}{name}"),
                kind,
                help,
            },
            read,
            index,
        })
    }
    rows(MACHINE, String::new(), 0)
        .chain((0..ndisks).flat_map(|d| rows(PER_DISK, format!("disk{d}."), d)))
        .chain((0..ntenants).flat_map(|t| rows(PER_TENANT, format!("tenant{t}."), t)))
        .chain(rows(REDUNDANCY, String::new(), 0))
        .collect()
}

impl Machine {
    /// Enable event tracing with a bounded ring of `capacity` records.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.observe.trace = Some(Trace::new(capacity));
    }

    /// Take the trace collected so far (tracing continues with a fresh
    /// buffer of the same capacity).
    pub fn take_trace(&mut self) -> Option<Trace> {
        let cap = self.observe.trace.as_ref().map(|t| t.capacity())?;
        self.observe.trace.replace(Trace::new(cap))
    }

    /// Report one machine event: the one call every observable
    /// occurrence goes through, once. The trace ring and the metrics
    /// layer are its two folds; a detached machine pays two `is_some`
    /// tests.
    #[inline]
    pub(super) fn emit(&mut self, event: impl Into<Event>) {
        let event = event.into();
        if let Some(t) = &mut self.observe.trace {
            t.fold(self.now, event);
        }
        if let Some(m) = &mut self.observe.metrics {
            m.fold(self.now, event);
        }
    }

    /// Enable the observability layer: the backpressure-wait histogram
    /// and the prefetch-lifecycle ledger. Idempotent
    /// (re-enabling keeps accumulated state). Timing-neutral: the layer
    /// only records what already happened and never influences paging.
    pub fn enable_metrics(&mut self) {
        if self.observe.metrics.is_none() {
            self.observe.metrics = Some(ObsMetrics::default());
        }
    }

    /// Flat snapshot of the observability state, if enabled, with the
    /// machine's own demand-fault distribution.
    pub fn metrics_report(&self) -> Option<MetricsReport> {
        let metrics = self.observe.metrics.as_ref()?;
        Some(metrics.report(*self.fault_hist))
    }

    /// Attach the continuous-telemetry sampler: every `interval_ns` of
    /// simulated time, every series of the sampler's table (disk queue
    /// depths and per-class waits, residency and free-frame levels,
    /// journal occupancy, ledger and policy counters, ops retired) is
    /// read into a ring holding up to `capacity` rows. Implies
    /// [`Machine::enable_metrics`]. Pull-based and passive: sampling
    /// reads state the machine already keeps and never advances the
    /// clock, so a sampled run's simulated timeline is identical to an
    /// unsampled one.
    ///
    /// Per-tenant series cover the tenants registered at attach time;
    /// later registrations are not sampled (attach after
    /// `register_tenant` calls to see them all).
    ///
    /// # Panics
    ///
    /// Panics on a zero interval or capacity.
    pub fn attach_sampler(&mut self, interval_ns: Ns, capacity: usize) {
        self.enable_metrics();
        let series = series_table(self.params.ndisks, self.tenancy.tenants.len());
        self.observe.sampler = Some(SamplerState {
            ring: TimeSeriesRing::new(interval_ns, series.len(), capacity),
            next_due: self.now + interval_ns,
            series,
        });
    }

    /// The sampled telemetry, if a sampler is attached: its series,
    /// their values now, the demand-fault distribution and the ring.
    pub fn sampler_output(&self) -> Option<Telemetry> {
        let s = self.observe.sampler.as_ref()?;
        Some(Telemetry {
            series: s.series.iter().map(|x| x.def.clone()).collect(),
            values: s.series.iter().map(|x| x.value(self)).collect(),
            fault_wait: *self.fault_hist,
            ring: s.ring.clone(),
        })
    }

    /// Emit any sample rows that came due as the clock advanced. Rows
    /// are stamped at their scheduled tick (the state is read at the
    /// first instant the machine observes the tick has passed — the
    /// sim-time analogue of a scrape).
    #[inline]
    pub(super) fn maybe_sample(&mut self) {
        if self.observe.sampler.is_none() {
            return;
        }
        self.do_sample();
    }

    #[inline(never)]
    fn do_sample(&mut self) {
        let t0 = self.prof_start();
        let Some(mut s) = self.observe.sampler.take() else {
            return;
        };
        while s.next_due <= self.now {
            let due = s.next_due;
            s.ring.push(due, s.series.iter().map(|x| x.value(self)));
            s.next_due = due + s.ring.interval();
        }
        self.observe.sampler = Some(s);
        self.prof_end(t0, MachineBucket::Sampler);
    }

    /// Attach the host-time profiler: from now on the machine's charge
    /// paths accrue wall-clock nanoseconds into four flat buckets
    /// (residency / ledger / journal / sampler). Probes read only the
    /// host clock, so simulated time, stats, and data stay
    /// bit-identical to a detached run.
    pub fn attach_host_prof(&mut self) {
        self.observe.host_prof = Some(MachineProf::default());
    }

    /// Detach the host-time profiler and return its buckets, if one
    /// was attached.
    pub fn take_host_prof(&mut self) -> Option<MachineProf> {
        self.observe.host_prof.take()
    }

    #[inline]
    pub(super) fn prof_start(&self) -> Option<std::time::Instant> {
        if self.observe.host_prof.is_some() {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    #[inline]
    pub(super) fn prof_end(&mut self, t0: Option<std::time::Instant>, bucket: MachineBucket) {
        if let (Some(t0), Some(p)) = (t0, &mut self.observe.host_prof) {
            p.record(bucket, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Figure-5 time attribution of every nanosecond elapsed so far.
    ///
    /// Works with or without [`Machine::enable_metrics`] — it is built
    /// from the always-on [`OsStats`](crate::OsStats) accumulators —
    /// and partitions [`Machine::now`] exactly:
    /// `attribution().total() == breakdown().total() == now()`.
    pub fn attribution(&self) -> TimeAttribution {
        let b = self.breakdown;
        let mut backpressure = self.stats.queue_full_wait_ns + self.stats.io_retry_wait_ns;
        let mut fault_wait = self.stats.fault_wait.sum() as Ns;
        let mut late = self.stats.late_prefetch_stall_ns;
        if self.tenancy.tenants.len() > 1 {
            // Co-scheduled tenants overlap their disk waits with each
            // other's execution, so the per-fault wait sum can exceed
            // the machine's idle time. The attribution partitions the
            // *machine's* elapsed time, so the stall buckets are
            // clamped to the idle they refine; the overlap is visible
            // per tenant in `TenantStats::fault_wait_ns` instead.
            backpressure = backpressure.min(b.idle);
            fault_wait = fault_wait.min(b.idle - backpressure);
            late = late.min(fault_wait);
        }
        TimeAttribution::new(
            b.user,
            b.sys_fault,
            b.sys_prefetch,
            b.idle,
            fault_wait,
            late,
            backpressure,
        )
    }

    /// Record a runtime degradation transition (the state machine
    /// itself lives in the run-time layer, which has no trace of its
    /// own). A prefetch in flight across an entry was paused on, not
    /// raced, and the metrics layer classifies it so.
    pub fn note_degraded(&mut self, entered: bool) {
        self.emit(if entered {
            TraceEvent::DegradedEnter
        } else {
            TraceEvent::DegradedExit
        });
    }
}
