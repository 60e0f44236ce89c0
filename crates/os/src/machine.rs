//! The simulated machine: CPU clock, paged VM, prefetch/release hints,
//! disks, and the backing data of the whole virtual address space.

use std::collections::VecDeque;

use oocp_disk::{Completion, DiskArray, FaultPlan, IoError, ReqKind, Request, Ticket};
use oocp_fs::{FileId, FileSystem, WriteJournal};
use oocp_obs::{
    LateCause, MachineBucket, MachineProf, MetricsRegistry, TimeAttribution, TimeSeriesRing,
    ISSUE_DEGRADED, ISSUE_REBUILD_ACTIVE,
};
use oocp_policy::{PolicyActions, PrefetchPolicy, TouchKind};
use oocp_sim::rng::SimRng;
use oocp_sim::stats::TimeWeighted;
use oocp_sim::time::{Ns, TimeBreakdown, TimeCategory, MILLISECOND};

use crate::bitvec::ResidencyBits;
use crate::error::{FlushError, OsError};
use crate::image::Image;
use crate::metrics::{MetricsReport, ObsMetrics};
use crate::params::{MachineParams, Redundancy};
use crate::parity::ParityStore;
use crate::stats::OsStats;
use crate::store::{page_checksum, DurableStore, SECTOR_BYTES};
use crate::tenant::{
    PressureLevel, QosClass, TenantId, TenantSpec, TenantStats, ELEVATED_BEST_EFFORT_SLOTS,
};
use crate::trace::{Trace, TraceEvent};

/// A page-aligned region of the virtual address space backing one array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// First byte address of the segment.
    pub base: u64,
    /// Length in bytes (rounded up to whole pages at allocation).
    pub bytes: u64,
}

/// One registered tenant: its policy, the page range it owns, its
/// residency view, and its counters.
struct TenantInfo {
    spec: TenantSpec,
    /// First page of the tenant's segment.
    first_page: u64,
    /// Pages in the tenant's segment.
    pages: u64,
    /// Tenant-local clock hand for quota self-eviction.
    hand: u64,
    stats: TenantStats,
}

/// Outcome of a non-blocking demand access ([`Machine::touch_nb`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Touch {
    /// Every page is resident; the access is complete.
    Done {
        /// Pages that hard-faulted during this access.
        faults: u64,
    },
    /// A page's disk read completes at `until`. All fault bookkeeping
    /// (overhead charge, counters, stall samples, state transition) has
    /// already happened; only the wait itself is left to the caller.
    /// The caller must not run this tenant again until the clock
    /// reaches `until`, then simply retry the access (the now-resident
    /// pages take the free fast path).
    Blocked {
        /// Absolute completion time of the blocking read.
        until: Ns,
    },
}

/// Residency state of one virtual page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PageState {
    /// Not in memory; a touch is a hard fault.
    Unmapped,
    /// Prefetch read in progress; `ticket` redeems one completion unit
    /// per page against the disk array. Demand reads never appear here:
    /// a single-threaded application stalls inline on its own fault, so
    /// the page is resident by the time it runs again.
    InFlight { ticket: Ticket },
    /// In memory. `on_free_list` pages are reclaimable but still mapped,
    /// so touching one is only a soft fault.
    Resident {
        dirty: bool,
        referenced: bool,
        on_free_list: bool,
    },
}

/// Who waits out a hard fault's disk latency.
#[derive(Clone, Copy)]
enum FaultWait {
    /// The faulting access stalls inline (the single-program machine).
    Inline,
    /// The access returns the completion time and its caller waits (a
    /// co-scheduling hub runs other tenants meanwhile).
    Caller,
}

/// Why an admitted prefetch page is being reverted.
#[derive(Clone, Copy, Debug)]
enum RevertCause {
    QueueFull,
    IoError,
    Crashed,
}

/// Per-page metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Page {
    state: PageState,
    /// A prefetch named this page and it has not been demand-touched
    /// since; drives the Figure 4(a) fault classification.
    prefetch_tag: bool,
    /// The page has been demand-touched since its last load from disk.
    touched: bool,
    /// The page is currently counted as "in memory" in the shared bit
    /// vector (idempotence guard for the per-bit reference counts).
    bit_noted: bool,
    /// Lifecycle span id of the outstanding prefetch (0 = none).
    /// Assigned when a prefetch read is issued for the page and cleared
    /// when the span terminates (consume, drop, revert, or reclaim);
    /// correlates the issue/arrive/consume trace events.
    span: u64,
}

impl Page {
    const fn new() -> Self {
        Self {
            state: PageState::Unmapped,
            prefetch_tag: false,
            touched: false,
            bit_noted: false,
            span: 0,
        }
    }

    /// Whether a demand access (a store, when `write`) would leave this
    /// entry exactly as it found it: the state in which `touch_page`'s
    /// resident arm stores back what it read, charges nothing and
    /// notifies no one. Derived from the fields that arm maintains, so
    /// there is nothing to invalidate.
    #[inline]
    fn hot(&self, write: bool) -> bool {
        matches!(
            self.state,
            PageState::Resident { dirty, referenced: true, on_free_list: false } if dirty || !write
        ) && self.touched
            && !self.prefetch_tag
            && self.span == 0
    }
}

/// One journaled writeback whose commit protocol is in flight: the
/// journal slot it reserved, a snapshot of the page image being
/// written, and the tickets of the protocol's four writes (descriptor,
/// payload, in-place data, commit mark). A ticket is `None` when the
/// submission itself was refused (crash or exhausted retries) — the
/// write never reached the media, so its effective completion time is
/// "never".
struct WalRecord {
    seq: u64,
    disk: usize,
    vpage: u64,
    payload: Vec<u8>,
    desc: Option<Ticket>,
    pay: Option<Ticket>,
    data: Option<Ticket>,
    commit: Option<Ticket>,
}

/// An unjournaled durable write in flight (durability mode with the
/// journal disabled — the configuration the negative CI gate uses to
/// prove torn writes lose data without WAL protection).
struct PlainWrite {
    vpage: u64,
    payload: Vec<u8>,
    data: Ticket,
}

/// A journal record whose journal blocks were durable when the power
/// died — exactly what a recovery scan of the rings can see.
#[derive(Clone, Debug)]
pub struct DurableRecord {
    /// Record sequence number (per-disk monotone).
    pub seq: u64,
    /// Disk whose ring holds the record.
    pub disk: usize,
    /// The page the record describes.
    pub vpage: u64,
    /// The full page image from the journal's payload block.
    pub payload: Vec<u8>,
    /// Whether the commit mark was durable too (the in-place data
    /// write is then guaranteed durable by the write barrier).
    pub committed: bool,
}

/// What [`Machine::recover`] found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Simulated time of the power loss (0 if the machine never
    /// crashed and recovery was a no-op).
    pub crashed_at: Ns,
    /// Sealed journal records the ring scan found.
    pub scanned_records: u64,
    /// Pages replayed from journal payloads onto their home blocks
    /// (uncommitted records, plus any page whose image failed its
    /// checksum).
    pub pages_replayed: u64,
    /// In-flight updates discarded because their intent record was not
    /// durably sealed — the home block kept its last durable version.
    pub pages_discarded: u64,
    /// Home blocks whose stored checksum failed: torn writes caught
    /// mid-air by the crash.
    pub torn_detected: u64,
    /// Torn/lost pages with no journal payload to repair from. Always
    /// zero with the journal enabled; the negative gate proves it goes
    /// positive without one.
    pub unrecoverable: u64,
    /// The unrecoverable pages themselves.
    pub unrecoverable_pages: Vec<u64>,
    /// Simulated time the recovery pass took (scan + replay + verify).
    pub recovery_ns: Ns,
}

/// The simulated machine.
///
/// Drives a single application (the paper evaluates one application at a
/// time): the interpreter calls [`Machine::tick_user`] for computation,
/// [`Machine::touch`] before each memory access, and the hint entry
/// points ([`Machine::sys_prefetch`], [`Machine::sys_release`],
/// [`Machine::sys_prefetch_release`]) for compiler-inserted operations.
/// Array *data* lives in the machine's backing store so programs execute
/// for real; residency metadata drives the timing model.
///
/// # Examples
///
/// ```
/// use oocp_os::{Machine, MachineParams};
///
/// let mut m = Machine::new(MachineParams::small(), 64 * 4096);
/// m.store_f64(0, 1.5);                 // hard fault + write
/// assert_eq!(m.load_f64(0), 1.5);      // now resident: free
/// assert_eq!(m.stats().hard_faults, 1);
/// m.sys_prefetch(1, 4);                // non-binding hint
/// m.finish();                          // flush dirty pages
/// assert_eq!(m.breakdown().total(), m.now());
/// ```
pub struct Machine {
    params: MachineParams,
    /// `log2(params.page_bytes)`: the page size is a validated power of
    /// two, so [`Machine::page_of`] shifts instead of dividing.
    page_shift: u32,
    now: Ns,
    breakdown: TimeBreakdown,
    stats: OsStats,
    pages: Vec<Page>,
    /// Lazily-pruned queue of free-list candidates (front = next reclaim).
    free_list: VecDeque<u64>,
    /// Exact number of live (reclaimable) free-list pages; the deque may
    /// additionally hold stale entries awaiting lazy pruning.
    reclaimable: u64,
    /// Pages in `Resident` state (including the free list).
    resident: u64,
    /// Pages in `InFlight` state.
    inflight: u64,
    clock_hand: u64,
    disks: DiskArray,
    fs: FileSystem,
    swap: FileId,
    bits: ResidencyBits,
    data: Image,
    next_segment_page: u64,
    free_level: TimeWeighted,
    finished: bool,
    /// Future changes to the resident limit, sorted by time (the
    /// multiprogramming model: other applications taking and returning
    /// memory). Applied lazily as the clock passes each entry.
    pressure: Vec<(Ns, u64)>,
    /// Optional event trace (flight recorder).
    trace: Option<Trace>,
    /// Optional observability layer: latency histograms and the
    /// prefetch-lifecycle ledger. Purely passive — never advances the
    /// clock or changes a paging decision.
    metrics: Option<ObsMetrics>,
    /// Next prefetch-lifecycle span id (always allocated, metrics or
    /// not, so span ids in traces are stable across instrumentation
    /// choices; 0 means "no span").
    next_span: u64,
    /// Bit-vector desync injection (from the fault plan): probability a
    /// residency-bit clear is "lost", and the stream deciding when.
    chaos_bits: Option<(f64, SimRng)>,
    /// The installed fault plan (kept whole so layers above can read
    /// OS-level knobs like bit-vector staleness, which the disk array's
    /// injector does not carry).
    fault_plan: Option<FaultPlan>,
    /// Durable (on-media) page images + checksums. Present only in
    /// durability mode (a crash is scheduled, or this machine came out
    /// of a recovery), so default runs pay nothing.
    durable: Option<DurableStore>,
    /// Per-disk write-ahead journal rings (durability mode with
    /// `params.journal`).
    journal: Option<WriteJournal>,
    /// Journaled writebacks whose commit protocol is in flight.
    wal_pending: Vec<WalRecord>,
    /// Unjournaled durable writes in flight (journal disabled).
    plain_pending: Vec<PlainWrite>,
    /// Journal records durable at crash time, as a recovery scan would
    /// find them.
    wal_durable: Vec<DurableRecord>,
    /// Simulated time of the power loss, once it happened. From then on
    /// the machine is a "zombie": accesses are served from the
    /// in-memory image with no disk and no time, so the interpreter can
    /// run to completion and the harness can recover.
    crashed: Option<Ns>,
    /// Whether crash resolution (freezing the in-flight writes into
    /// durable state) has run.
    crash_resolved: bool,
    /// Whether in-flight writes may tear at the crash.
    torn_writes: bool,
    /// Seeded stream deciding how many sectors of each in-flight write
    /// land (the torn-write model).
    crash_rng: Option<SimRng>,
    /// Updates lost at the crash: writebacks whose intent record was
    /// never sealed (journaled) or whose write never landed (plain).
    crash_discarded: Vec<u64>,
    /// Dirty pages whose final contents never became durable:
    /// abandoned writebacks plus everything cut off by a crash.
    flush_failures: Vec<u64>,
    /// Registered tenants in registration order (each owns one
    /// segment). Empty for the classic single-program machine, which
    /// behaves as one implicit guaranteed tenant with no quotas.
    tenants: Vec<TenantInfo>,
    /// The tenant whose accesses and hints are currently executing
    /// (set by the co-scheduling hub before each slice; 0 otherwise).
    cur_tenant: TenantId,
    /// Per-tenant residency bit vectors (same geometry as the shared
    /// one; each tracks only its owner's pages). Present only when
    /// tenants are registered.
    tenant_bits: Vec<ResidencyBits>,
    /// Installed prefetch policy. `None` under the default
    /// `PolicyKind::CompilerOnly`, which keeps every paging path
    /// bit-identical to a build without the policy subsystem.
    policy: Option<Box<dyn PrefetchPolicy>>,
    /// Set while policy-requested actions are applied, so `do_prefetch`
    /// and `do_release` attribute the pages to the policy and tag the
    /// disk requests as policy-injected.
    policy_issue: bool,
    /// Policy hooks suspended (the runtime pauses reactive policies
    /// while it is degraded to demand-only paging).
    policy_paused: bool,
    /// Degraded-mode generation counter: bumped every time the runtime
    /// enters degraded (demand-only) paging. A prefetch that was in
    /// flight across a bump was paused on, not raced — the whylate
    /// engine attributes its lateness to the mode switch.
    degrade_epoch: u64,
    /// Continuous-telemetry sampler. `None` by default: the only cost
    /// an unattached run pays is one `is_some` branch per clock
    /// advance, so default runs stay bit-identical (the sampler itself
    /// is pull-only and never advances the clock).
    sampler: Option<SamplerState>,
    /// Host-time profiler buckets for the machine's charge paths
    /// (residency / ledger / journal / sampler). `None` by default,
    /// following the trace/sampler precedent: detached runs pay one
    /// `is_some` branch per probed boundary and read no clocks.
    host_prof: Option<MachineProf>,
    /// Parity content model of the swap file (RAID-5 rotating parity;
    /// present only under [`Redundancy::Parity`], so plain machines
    /// stay bit-identical to pre-redundancy builds).
    parity: Option<ParityStore>,
    /// The dead disk slot and its death time, while the array is
    /// holed: from detection until the rebuild completes (parity mode)
    /// or forever (no redundancy — every later demand access surfaces
    /// [`OsError::DiskLost`]).
    dead_disk: Option<(usize, Ns)>,
    /// Sim time the death was detected (`rebuild_ns` measures from
    /// here to rebuild completion).
    death_detected_at: Ns,
    /// Rebuild watermark: stripe rows already reconstructed onto the
    /// hot spare. Rows below the watermark read normally from the
    /// spare; rows at or above it still go through degraded survivor
    /// fan-out.
    rebuilt_rows: u64,
    /// Sim-time pacing of the scrubber: the watermark may not advance
    /// before this instant (the spare serializes one row write per
    /// average disk access).
    rebuild_next_at: Ns,
}

/// The attached sampler: a metrics registry whose scalar vector is
/// refilled from live machine state and snapshotted into a bounded
/// time-series ring every `interval` of *simulated* time.
struct SamplerState {
    reg: MetricsRegistry,
    ring: TimeSeriesRing,
    /// Next sim time a row is due.
    next_due: Ns,
    /// Disk count captured at attach (fixed for the machine's life).
    ndisks: usize,
    /// Tenants registered when the sampler attached; later
    /// registrations are not sampled (attach after setup to see them).
    ntenants: usize,
}

impl Machine {
    /// Create a machine whose virtual address space holds `space_bytes`.
    ///
    /// The space is rounded up to whole pages and backed by a single
    /// striped file (the mapped-data file of the paper's modified NAS
    /// programs).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (see
    /// [`MachineParams::validate`]) or the disks cannot hold the space.
    pub fn new(params: MachineParams, space_bytes: u64) -> Self {
        Self::try_new(params, space_bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Machine::new`], but reports an undersized disk array as a
    /// typed error instead of panicking.
    ///
    /// # Panics
    ///
    /// Still panics on inconsistent parameters — those are programming
    /// errors in experiment setup, not runtime conditions.
    pub fn try_new(params: MachineParams, space_bytes: u64) -> Result<Self, OsError> {
        params.validate();
        let total_pages = space_bytes.div_ceil(params.page_bytes).max(1);
        let mut fs = FileSystem::new(params.ndisks, params.disk.blocks);
        let swap = match params.redundancy {
            Redundancy::None => fs.create_file(total_pages),
            Redundancy::Parity => fs.create_parity_file(total_pages),
        }
        .map_err(|_| OsError::BackingExhausted {
            pages: total_pages,
            capacity_blocks: params.disk.blocks,
        })?;
        // Parity mode keeps the durable content model from day one:
        // parity is defined over *durable* page images, so the store
        // must exist even when no crash is scheduled.
        let parity = (params.redundancy == Redundancy::Parity).then(|| {
            ParityStore::new(
                total_pages.div_ceil(params.ndisks as u64 - 1),
                params.page_bytes,
            )
        });
        let durable = (params.redundancy == Redundancy::Parity)
            .then(|| DurableStore::new(total_pages, params.page_bytes));
        let bits = ResidencyBits::new(total_pages, params.page_bytes);
        let limit = params.resident_limit;
        let mut disks = DiskArray::new(params.ndisks, params.disk);
        disks.set_sched(params.sched);
        Ok(Self {
            params,
            page_shift: params.page_bytes.trailing_zeros(),
            now: 0,
            breakdown: TimeBreakdown::new(),
            stats: OsStats::default(),
            pages: vec![Page::new(); total_pages as usize],
            free_list: VecDeque::new(),
            reclaimable: 0,
            resident: 0,
            inflight: 0,
            clock_hand: 0,
            disks,
            fs,
            swap,
            bits,
            data: Image::zeroed((total_pages * params.page_bytes) as usize),
            next_segment_page: 0,
            free_level: TimeWeighted::start(0, limit as f64),
            finished: false,
            pressure: Vec::new(),
            trace: None,
            metrics: None,
            next_span: 1,
            chaos_bits: None,
            fault_plan: None,
            durable,
            journal: None,
            wal_pending: Vec::new(),
            plain_pending: Vec::new(),
            wal_durable: Vec::new(),
            crashed: None,
            crash_resolved: false,
            torn_writes: false,
            crash_rng: None,
            crash_discarded: Vec::new(),
            flush_failures: Vec::new(),
            tenants: Vec::new(),
            cur_tenant: 0,
            tenant_bits: Vec::new(),
            policy: oocp_policy::build(params.policy),
            policy_issue: false,
            policy_paused: false,
            degrade_epoch: 0,
            sampler: None,
            host_prof: None,
            parity,
            dead_disk: None,
            death_detected_at: 0,
            rebuilt_rows: 0,
            rebuild_next_at: 0,
        })
    }

    /// Install a fault plan: disk-level faults go to the disk array's
    /// injector, bit-vector staleness stays here, and pressure storms
    /// are converted into a pressure schedule. Replaces any previously
    /// installed plan.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.chaos_bits = (plan.bitvec_stale_prob > 0.0).then(|| {
            (
                plan.bitvec_stale_prob,
                SimRng::new(plan.seed ^ 0xB17_5EED_0DD5),
            )
        });
        if !plan.pressure_storms.is_empty() {
            let restore = self.params.resident_limit;
            let mut schedule: Vec<(Ns, u64)> = plan
                .pressure_storms
                .iter()
                .flat_map(|s| [(s.from, s.limit_frames), (s.until, restore)])
                .collect();
            schedule.sort_by_key(|&(at, _)| at);
            self.set_pressure_schedule(schedule);
        }
        self.disks.set_fault_plan(plan.clone());
        if let Some(spec) = plan.crash {
            // Durability mode: from here on the simulator distinguishes
            // the in-memory image from what has durably landed.
            self.torn_writes = spec.torn_writes;
            self.crash_rng = Some(SimRng::new(plan.seed ^ 0x70B5_C4A5_11ED));
            if self.durable.is_none() {
                self.durable = Some(DurableStore::new(
                    self.total_pages(),
                    self.params.page_bytes,
                ));
            }
            if self.params.journal && self.journal.is_none() {
                self.journal = Some(
                    WriteJournal::create(&mut self.fs, self.params.journal_blocks_per_disk)
                        .expect("disks must have room for the writeback journal"),
                );
            }
        }
        let has_effect =
            plan.is_active() || plan.bitvec_stale_prob > 0.0 || !plan.pressure_storms.is_empty();
        self.fault_plan = has_effect.then(|| plan.clone());
    }

    /// Simulated time of the power loss, if one has happened.
    pub fn crashed_at(&self) -> Option<Ns> {
        self.crashed
    }

    /// Whether this machine keeps a durable page store (a crash is
    /// scheduled, or it came out of a recovery).
    pub fn durability_enabled(&self) -> bool {
        self.durable.is_some()
    }

    /// Take the lazy durable-baseline snapshot if durability mode is on
    /// and it has not been taken yet (first timed access).
    fn ensure_durable_snapshot(&mut self) {
        if let Some(d) = &mut self.durable {
            d.ensure_snapshot(&self.data);
            // Parity is defined over the durable images; derive it
            // once, then keep it incrementally consistent at every
            // durable landing ([`Machine::land_durable`]).
            if let Some(ps) = &mut self.parity {
                if !ps.is_synced() {
                    let k = self.fs.ndisks() as u64 - 1;
                    ps.resync(k, d.images(), self.pages.len() as u64);
                }
            }
        }
    }

    /// The installed fault plan, if it injects anything at all.
    #[inline]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Enable event tracing with a bounded ring of `capacity` records.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// Take the trace collected so far (tracing continues with a fresh
    /// buffer of the same capacity).
    pub fn take_trace(&mut self) -> Option<Trace> {
        let cap = self.trace.as_ref().map(|t| t.capacity())?;
        self.trace.replace(Trace::new(cap))
    }

    #[inline]
    fn trace_event(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(self.now, event);
        }
    }

    /// Enable the observability layer: latency histograms for fault and
    /// backpressure waits plus the prefetch-lifecycle ledger. Idempotent
    /// (re-enabling keeps accumulated state). Timing-neutral: the layer
    /// only records what already happened and never influences paging.
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(ObsMetrics::default());
        }
    }

    /// The live observability state, if enabled.
    pub fn metrics(&self) -> Option<&ObsMetrics> {
        self.metrics.as_ref()
    }

    /// Flat snapshot of the observability state, if enabled.
    pub fn metrics_report(&self) -> Option<MetricsReport> {
        self.metrics.as_ref().map(|m| m.report())
    }

    /// Attach the continuous-telemetry sampler: every `interval_ns` of
    /// simulated time, the full registry of counters and gauges (disk
    /// queue depths and per-class waits, residency and free-frame
    /// levels, journal occupancy, ledger and policy counters, ops
    /// retired) is snapshotted into a ring holding up to `capacity`
    /// rows. Implies [`Machine::enable_metrics`]. Pull-based and
    /// passive: sampling reads state the machine already keeps and
    /// never advances the clock, so a sampled run's simulated timeline
    /// is identical to an unsampled one.
    ///
    /// Per-tenant series cover the tenants registered at attach time;
    /// attach after `register_tenant` calls to see them all.
    ///
    /// # Panics
    ///
    /// Panics on a zero interval or capacity.
    pub fn attach_sampler(&mut self, interval_ns: Ns, capacity: usize) {
        self.enable_metrics();
        let ndisks = self.params.ndisks;
        let ntenants = self.tenants.len();
        let mut reg = MetricsRegistry::new();
        reg.counter("os.user_ops", "interpreter operations retired");
        reg.counter("os.hard_faults", "demand faults that went to disk");
        reg.counter("os.soft_faults", "reclaims from the free list");
        reg.counter("os.prefetch_pages_issued", "prefetch pages put in flight");
        reg.counter("os.prefetch_pages_dropped", "hint pages dropped");
        reg.counter(
            "os.late_prefetch_stall_ns",
            "time stalled on in-flight prefetches",
        );
        reg.gauge("os.resident_pages", "pages resident in memory");
        reg.gauge("os.free_frames", "unallocated plus reclaimable frames");
        reg.gauge("os.inflight_prefetch", "prefetch pages in flight");
        reg.counter("ledger.timely_hits", "prefetches that arrived before use");
        reg.counter(
            "ledger.late_inflight",
            "prefetches consumed while in flight",
        );
        reg.counter("journal.appends", "write-ahead journal intents appended");
        reg.counter("journal.stalls", "writebacks that waited for a ring slot");
        reg.gauge("journal.ring_in_use", "live journal slots across all rings");
        reg.counter(
            "policy.injected_prefetch_pages",
            "prefetch pages injected by the policy",
        );
        reg.counter(
            "policy.injected_release_pages",
            "release pages injected by the policy",
        );
        reg.counter("disk.demand_wait_ns", "demand-read queue wait, all disks");
        reg.counter(
            "disk.prefetch_wait_ns",
            "prefetch-read queue wait, all disks",
        );
        reg.counter("disk.write_wait_ns", "write queue wait, all disks");
        for d in 0..ndisks {
            reg.gauge(
                &format!("disk{d}.queue_len"),
                "undispatched requests queued",
            );
        }
        for t in 0..ntenants {
            reg.gauge(
                &format!("tenant{t}.resident_pages"),
                "pages resident in the tenant's segment",
            );
            reg.gauge(
                &format!("tenant{t}.inflight_prefetch"),
                "tenant prefetch pages in flight",
            );
        }
        reg.gauge(
            "redundancy.rebuild_rows_done",
            "stripe rows reconstructed onto the hot spare",
        );
        reg.counter(
            "redundancy.degraded_reads",
            "demand reads served by survivor reconstruction",
        );
        reg.counter(
            "redundancy.hedged_reads",
            "degraded-mode demand reads that hedged the tail",
        );
        reg.hist("os.fault_wait_ns", "demand-fault stall distribution");
        self.sampler = Some(SamplerState {
            reg,
            ring: TimeSeriesRing::new(interval_ns, capacity),
            next_due: self.now + interval_ns,
            ndisks,
            ntenants,
        });
    }

    /// The sampled telemetry (registry in its end-of-run state plus the
    /// time-series ring), if a sampler is attached. Refreshes the
    /// registry first so exports reflect the final counters.
    pub fn sampler_output(&mut self) -> Option<(&MetricsRegistry, &TimeSeriesRing)> {
        let mut s = self.sampler.take()?;
        self.fill_registry(&mut s);
        self.sampler = Some(s);
        self.sampler.as_ref().map(|s| (&s.reg, &s.ring))
    }

    /// Refill the registry's scalar vector from live machine state, in
    /// exactly the order [`Machine::attach_sampler`] registered it.
    fn fill_registry(&self, s: &mut SamplerState) {
        let st = &self.stats;
        let ledger = self.metrics.as_ref().map(|m| *m.ledger.counts());
        let lc = ledger.unwrap_or_default();
        let journal_in_use: u64 = match &self.journal {
            Some(j) => (0..s.ndisks).map(|d| j.in_use(d)).sum(),
            None => 0,
        };
        let disk = self.disks.total_stats();
        let mut v = vec![
            st.user_ops,
            st.hard_faults,
            st.soft_faults,
            st.prefetch_pages_issued,
            st.prefetch_pages_dropped,
            st.late_prefetch_stall_ns,
            self.resident,
            self.truly_free() + self.free_list_len(),
            self.inflight,
            lc.timely_hits,
            lc.late_inflight,
            st.journal_appends,
            st.journal_stalls,
            journal_in_use,
            st.policy_injected_prefetch_pages,
            st.policy_injected_release_pages,
            disk.demand_wait_ns,
            disk.prefetch_wait_ns,
            disk.write_wait_ns,
        ];
        for d in 0..s.ndisks {
            v.push(self.disks.queue_len(d) as u64);
        }
        for t in 0..s.ntenants {
            let info = &self.tenants[t];
            let resident = self.tenant_bits.get(t).map_or(0, ResidencyBits::set_bits);
            v.push(resident);
            v.push(info.stats.inflight_prefetch);
        }
        v.push(self.rebuilt_rows);
        v.push(st.degraded_reads);
        v.push(st.hedged_reads);
        debug_assert_eq!(v.len(), s.reg.values().len());
        for (i, val) in v.into_iter().enumerate() {
            s.reg.set(i, val);
        }
        if let Some(m) = &self.metrics {
            s.reg.set_hist(0, m.fault_wait);
        }
    }

    /// Emit any sample rows that came due as the clock advanced. Rows
    /// are stamped at their scheduled tick (the state is read at the
    /// first instant the machine observes the tick has passed — the
    /// sim-time analogue of a scrape).
    #[inline]
    fn maybe_sample(&mut self) {
        if self.sampler.is_none() {
            return;
        }
        self.do_sample();
    }

    #[inline(never)]
    fn do_sample(&mut self) {
        let t0 = self.prof_start();
        let Some(mut s) = self.sampler.take() else {
            return;
        };
        while s.next_due <= self.now {
            self.fill_registry(&mut s);
            let row = s.reg.snapshot_row();
            let due = s.next_due;
            s.ring.push(due, row);
            s.next_due = due + s.ring.interval();
        }
        self.sampler = Some(s);
        self.prof_end(t0, MachineBucket::Sampler);
    }

    /// Attach the host-time profiler: from now on the machine's charge
    /// paths accrue wall-clock nanoseconds into four flat buckets
    /// (residency / ledger / journal / sampler). Probes read only the
    /// host clock, so simulated time, stats, and data stay
    /// bit-identical to a detached run.
    pub fn attach_host_prof(&mut self) {
        self.host_prof = Some(MachineProf::default());
    }

    /// Detach the host-time profiler and return its buckets, if one
    /// was attached.
    pub fn take_host_prof(&mut self) -> Option<MachineProf> {
        self.host_prof.take()
    }

    #[inline]
    fn prof_start(&self) -> Option<std::time::Instant> {
        if self.host_prof.is_some() {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    #[inline]
    fn prof_end(&mut self, t0: Option<std::time::Instant>, bucket: MachineBucket) {
        if let (Some(t0), Some(p)) = (t0, &mut self.host_prof) {
            p.record(bucket, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Figure-5 time attribution of every nanosecond elapsed so far.
    ///
    /// Works with or without [`Machine::enable_metrics`] — it is built
    /// from the always-on [`OsStats`] accumulators — and partitions
    /// [`Machine::now`] exactly:
    /// `attribution().total() == breakdown().total() == now()`.
    pub fn attribution(&self) -> TimeAttribution {
        let b = self.breakdown;
        let mut backpressure = self.stats.queue_full_wait_ns + self.stats.io_retry_wait_ns;
        let mut fault_wait = self.stats.fault_wait.sum() as Ns;
        let mut late = self.stats.late_prefetch_stall_ns;
        if self.tenants.len() > 1 {
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

    /// Record a runtime degradation transition in the trace (the state
    /// machine itself lives in the run-time layer, which has no trace
    /// of its own).
    pub fn note_degraded(&mut self, entered: bool) {
        if entered {
            self.degrade_epoch += 1;
        }
        self.trace_event(if entered {
            TraceEvent::DegradedEnter
        } else {
            TraceEvent::DegradedExit
        });
    }

    /// Machine parameters.
    #[inline]
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// Total pages of virtual address space.
    pub fn total_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Time ledger so far.
    pub fn breakdown(&self) -> TimeBreakdown {
        self.breakdown
    }

    /// OS counters so far.
    #[inline]
    pub fn stats(&self) -> &OsStats {
        &self.stats
    }

    /// Aggregate disk counters.
    pub fn disk_stats(&self) -> oocp_disk::DiskStats {
        self.disks.total_stats()
    }

    /// Average per-disk utilization up to the current time (Figure 5(b)).
    pub fn disk_utilization(&self) -> f64 {
        self.disks.avg_utilization(self.now.max(1))
    }

    /// Time-weighted average number of free frames (Table 3).
    pub fn avg_free_frames(&self) -> f64 {
        self.free_level.mean_until(self.now.max(1))
    }

    /// The shared residency bit vector (read by the run-time layer).
    pub fn bits(&self) -> &ResidencyBits {
        &self.bits
    }

    /// Page number containing byte address `addr`.
    #[inline]
    pub fn page_of(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Allocate a page-aligned segment of `bytes` from the address space.
    ///
    /// # Panics
    ///
    /// Panics when the address space given to [`Machine::new`] is
    /// exhausted — segment sizing is part of experiment setup.
    pub fn alloc_segment(&mut self, bytes: u64) -> Segment {
        let pages = bytes.div_ceil(self.params.page_bytes).max(1);
        let base_page = self.next_segment_page;
        assert!(
            base_page + pages <= self.total_pages(),
            "address space exhausted: need {} pages past {}, have {}",
            pages,
            base_page,
            self.total_pages()
        );
        self.next_segment_page += pages;
        Segment {
            base: base_page * self.params.page_bytes,
            bytes: pages * self.params.page_bytes,
        }
    }

    // ------------------------------------------------------------------
    // Tenants
    // ------------------------------------------------------------------

    /// Register a tenant owning a fresh segment of `bytes`. Returns the
    /// tenant id (dense, registration order) and its segment.
    ///
    /// Declares the new tenant count to the disk scheduler so its
    /// round-robin shares adjust. A machine with no registered tenants
    /// is the classic single-program machine: one implicit guaranteed
    /// tenant with no quotas and unchanged behaviour.
    ///
    /// # Panics
    ///
    /// Panics if the address space is exhausted (see
    /// [`Machine::alloc_segment`]).
    pub fn register_tenant(&mut self, spec: TenantSpec, bytes: u64) -> (TenantId, Segment) {
        let seg = self.alloc_segment(bytes);
        let id = self.tenants.len() as TenantId;
        self.tenants.push(TenantInfo {
            spec,
            first_page: seg.base / self.params.page_bytes,
            pages: seg.bytes / self.params.page_bytes,
            hand: 0,
            stats: TenantStats::default(),
        });
        self.tenant_bits.push(ResidencyBits::new(
            self.total_pages(),
            self.params.page_bytes,
        ));
        self.disks.set_tenant_count(self.tenants.len());
        (id, seg)
    }

    /// Select the tenant whose accesses and hints execute next (the
    /// co-scheduling hub calls this before each slice).
    pub fn set_tenant(&mut self, t: TenantId) {
        debug_assert!(
            (t as usize) < self.tenants.len().max(1),
            "unknown tenant {t}"
        );
        self.cur_tenant = t;
    }

    /// The currently selected tenant (0 without registrations).
    pub fn cur_tenant(&self) -> TenantId {
        self.cur_tenant
    }

    /// Number of tenants sharing the machine (1 without registrations).
    pub fn tenant_count(&self) -> usize {
        self.tenants.len().max(1)
    }

    /// A tenant's policy (the implicit solo tenant is unlimited).
    pub fn tenant_spec(&self, t: TenantId) -> TenantSpec {
        self.tenants
            .get(t as usize)
            .map_or_else(TenantSpec::unlimited, |i| i.spec)
    }

    /// A tenant's counters (zeros for the implicit solo tenant — its
    /// events live in the shared [`OsStats`]).
    pub fn tenant_stats(&self, t: TenantId) -> TenantStats {
        self.tenants
            .get(t as usize)
            .map(|i| i.stats)
            .unwrap_or_default()
    }

    /// A tenant's private residency bit vector (its own pages only).
    /// Falls back to the shared vector without registrations.
    #[inline]
    pub fn tenant_bits_of(&self, t: TenantId) -> &ResidencyBits {
        self.tenant_bits.get(t as usize).unwrap_or(&self.bits)
    }

    /// Frames currently charged to a tenant: active resident pages plus
    /// in-flight prefetches inside its segment (free-list pages are
    /// reclaimable by anyone and charged to no one). For the implicit
    /// solo tenant this is the machine-wide occupancy.
    pub fn tenant_usage(&self, t: TenantId) -> u64 {
        let Some(info) = self.tenants.get(t as usize) else {
            return self.resident + self.inflight;
        };
        let mut used = 0;
        for v in info.first_page..info.first_page + info.pages {
            match self.pages[v as usize].state {
                PageState::Resident {
                    on_free_list: false,
                    ..
                }
                | PageState::InFlight { .. } => used += 1,
                _ => {}
            }
        }
        used
    }

    /// Classify global memory pressure from the free pool against the
    /// pageout watermarks. The arbiter sheds hint load in QoS order as
    /// this rises; the hub additionally pushes low-QoS tenants into
    /// demand-only degraded mode under [`PressureLevel::Brownout`].
    #[inline]
    pub fn pressure_level(&self) -> PressureLevel {
        let pool = self.truly_free() + self.free_list_len();
        if pool >= self.params.high_water {
            PressureLevel::Nominal
        } else if pool >= self.params.low_water {
            PressureLevel::Elevated
        } else {
            PressureLevel::Brownout
        }
    }

    /// Advance the clock to `until`, charging the gap as idle — the
    /// hub's "every tenant is blocked on disk" stall. A no-op if the
    /// clock is already past `until`.
    pub fn advance_idle_to(&mut self, until: Ns) {
        self.stall_until(until);
    }

    /// The tenant owning `vpage`, if any segment covers it.
    fn owner_of(&self, vpage: u64) -> Option<TenantId> {
        if self.tenants.is_empty() {
            return None;
        }
        // Segments are allocated in ascending page order.
        let idx = self
            .tenants
            .partition_point(|i| i.first_page <= vpage)
            .checked_sub(1)?;
        let info = &self.tenants[idx];
        (vpage < info.first_page + info.pages).then_some(idx as TenantId)
    }

    /// Adjust the owner's in-flight prefetch gauge when a page enters
    /// or leaves `InFlight` (no-op without registered tenants).
    #[inline]
    fn note_tenant_inflight(&mut self, vpage: u64, delta: i64) {
        if self.tenants.is_empty() {
            return;
        }
        if let Some(t) = self.owner_of(vpage) {
            let g = &mut self.tenants[t as usize].stats.inflight_prefetch;
            *g = (*g as i64 + delta) as u64;
        }
    }

    /// Attribute a demand fault and its stall to the current tenant.
    #[inline]
    fn note_tenant_fault(&mut self, waited: Ns) {
        if let Some(info) = self.tenants.get_mut(self.cur_tenant as usize) {
            info.stats.demand_faults += 1;
            info.stats.fault_wait_ns += waited;
        }
    }

    /// Memory-quota enforcement on the demand path: while the current
    /// tenant is at or over its frame quota, evict one of its *own*
    /// pages, so over-quota tenants recycle their own frames instead of
    /// taking anyone else's — and a quota-starved tenant still makes
    /// progress.
    fn enforce_memory_quota(&mut self) {
        let Some(info) = self.tenants.get(self.cur_tenant as usize) else {
            return;
        };
        let Some(q) = info.spec.memory_frames else {
            return;
        };
        let q = q.max(1);
        while self.tenant_usage(self.cur_tenant) >= q {
            if !self.evict_own_page(self.cur_tenant) {
                break; // everything left is in flight; let it land
            }
        }
    }

    /// Clock-scan the tenant's segment and evict one of its active
    /// resident pages (second chance on the first pass). Returns
    /// `false` if nothing was evictable.
    fn evict_own_page(&mut self, t: TenantId) -> bool {
        let (first, pages) = {
            let i = &self.tenants[t as usize];
            (i.first_page, i.pages)
        };
        let mut scanned = 0;
        while scanned < 2 * pages {
            let hand = self.tenants[t as usize].hand;
            let v = first + hand;
            self.tenants[t as usize].hand = (hand + 1) % pages;
            scanned += 1;
            self.settle(v);
            if let PageState::Resident {
                dirty,
                referenced,
                on_free_list: false,
            } = self.pages[v as usize].state
            {
                if referenced && scanned <= pages {
                    self.pages[v as usize].state = PageState::Resident {
                        dirty,
                        referenced: false,
                        on_free_list: false,
                    };
                } else {
                    // Through the free list so dirty pages get their
                    // writeback, then straight back off it: the frame
                    // goes to the global pool, not to a neighbour's
                    // reclaim.
                    self.queue_on_free_list(v, true);
                    if let Some(p) = self.pop_free_list() {
                        debug_assert_eq!(p, v);
                        self.reclaim(p);
                    }
                    self.tenants[t as usize].stats.quota_evictions += 1;
                    self.trace_event(TraceEvent::Eviction { page: v });
                    return true;
                }
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Time accounting
    // ------------------------------------------------------------------

    /// Charge `ns` of user-mode computation.
    #[inline]
    pub fn tick_user(&mut self, ns: Ns) {
        self.now += ns;
        self.breakdown.charge(TimeCategory::User, ns);
        self.stats.user_ops += 1;
        self.maybe_sample();
    }

    fn charge(&mut self, cat: TimeCategory, ns: Ns) {
        self.now += ns;
        self.breakdown.charge(cat, ns);
        self.maybe_sample();
    }

    /// Stall until absolute time `until`, attributing the wait to idle.
    fn stall_until(&mut self, until: Ns) -> Ns {
        if until > self.now {
            let wait = until - self.now;
            self.charge(TimeCategory::Idle, wait);
            wait
        } else {
            0
        }
    }

    /// The wait a hard fault's read still has ahead of it: stalled out
    /// here, or only measured when the caller does the waiting.
    fn fault_wait(&mut self, until: Ns, wait: FaultWait) -> Ns {
        match wait {
            FaultWait::Inline => self.stall_until(until),
            FaultWait::Caller => until.saturating_sub(self.now),
        }
    }

    fn note_free_level(&mut self) {
        let free = self.truly_free() + self.free_list_len();
        self.free_level.set(self.now, free as f64);
    }

    /// Mark `vpage` as in-memory in the shared bit vector (idempotent).
    fn bit_in(&mut self, vpage: u64) {
        let p = &mut self.pages[vpage as usize];
        if !p.bit_noted {
            p.bit_noted = true;
            self.bits.note_resident(vpage);
            if !self.tenant_bits.is_empty() {
                if let Some(t) = self.owner_of(vpage) {
                    self.tenant_bits[t as usize].note_resident(vpage);
                }
            }
        }
    }

    /// Mark `vpage` as out-of-memory in the shared bit vector
    /// (idempotent).
    ///
    /// Under an installed fault plan the clear is probabilistically
    /// "lost": the page-level bookkeeping updates but the shared bit
    /// vector keeps the bit set (and its reference count elevated) —
    /// the user/kernel desync the runtime's periodic resync exists to
    /// repair. A stale set bit is the dangerous direction: the filter
    /// will suppress prefetches for a page that is actually gone.
    fn bit_out(&mut self, vpage: u64) {
        let p = &mut self.pages[vpage as usize];
        if p.bit_noted {
            p.bit_noted = false;
            if let Some((prob, rng)) = &mut self.chaos_bits {
                if rng.next_f64() < *prob {
                    self.stats.bitvec_stale_injected += 1;
                    return;
                }
            }
            self.bits.note_gone(vpage);
            if !self.tenant_bits.is_empty() {
                if let Some(t) = self.owner_of(vpage) {
                    self.tenant_bits[t as usize].note_gone(vpage);
                }
            }
        }
    }

    /// Rebuild the shared bit vector from page-level residency state,
    /// clearing any bits left stale by injected desync. Returns the
    /// number of stale bits fixed. Cheap enough (one pass over page
    /// metadata) for the runtime to call periodically.
    pub fn resync_bits(&mut self) -> u64 {
        let before = self.bits.set_bits();
        let mut fresh = ResidencyBits::new(self.total_pages(), self.params.page_bytes);
        for (i, p) in self.pages.iter().enumerate() {
            if p.bit_noted {
                fresh.note_resident(i as u64);
            }
        }
        let fixed = before.saturating_sub(fresh.set_bits());
        self.bits = fresh;
        for t in 0..self.tenant_bits.len() {
            let mut tv = ResidencyBits::new(self.total_pages(), self.params.page_bytes);
            let info = &self.tenants[t];
            for v in info.first_page..info.first_page + info.pages {
                if self.pages[v as usize].bit_noted {
                    tv.note_resident(v);
                }
            }
            self.tenant_bits[t] = tv;
        }
        self.stats.bitvec_resyncs += 1;
        self.stats.bitvec_stale_fixed += fixed;
        self.trace_event(TraceEvent::BitvecResync { fixed });
        fixed
    }

    // ------------------------------------------------------------------
    // Frame accounting
    // ------------------------------------------------------------------

    fn truly_free(&self) -> u64 {
        self.params
            .resident_limit
            .saturating_sub(self.resident + self.inflight)
    }

    /// Live entries on the free list (the deque is lazily pruned; this
    /// counter is maintained exactly).
    fn free_list_len(&self) -> u64 {
        self.reclaimable
    }

    /// Materialize an in-flight page whose I/O has already completed,
    /// redeeming one of its ticket's completion units.
    fn settle(&mut self, vpage: u64) {
        if let PageState::InFlight { ticket } = self.pages[vpage as usize].state {
            if let Some(done) = self.disks.poll(ticket, self.now) {
                self.pages[vpage as usize].state = PageState::Resident {
                    dirty: false,
                    referenced: false,
                    on_free_list: false,
                };
                self.pages[vpage as usize].touched = false;
                self.inflight -= 1;
                self.note_tenant_inflight(vpage, -1);
                self.resident += 1;
                // `done` is the read's exact completion time even when
                // this observation is late (completions settle lazily).
                if let Some(mx) = &mut self.metrics {
                    mx.ledger.arrived(vpage, done);
                }
                let span = self.pages[vpage as usize].span;
                self.trace_event(TraceEvent::PrefetchArrive {
                    page: vpage,
                    span,
                    arrival: done,
                });
                if self.policy_ready() {
                    if let Some(pol) = self.policy.as_mut() {
                        pol.on_prefetch_arrived(vpage, done);
                    }
                }
            }
        }
    }

    /// Unmap a free-list page, returning its frame to the free pool.
    fn reclaim(&mut self, vpage: u64) {
        let wasted = self.pages[vpage as usize].prefetch_tag && !self.pages[vpage as usize].touched;
        let page = &mut self.pages[vpage as usize];
        debug_assert!(matches!(
            page.state,
            PageState::Resident {
                on_free_list: true,
                ..
            }
        ));
        if let PageState::Resident { dirty: true, .. } = page.state {
            // Free-list pages are cleaned when queued, but settle order
            // can leave a dirty one; write it back now.
            page.state = PageState::Resident {
                dirty: false,
                referenced: false,
                on_free_list: true,
            };
            self.writeback(vpage);
        }
        self.pages[vpage as usize].state = PageState::Unmapped;
        self.resident -= 1;
        self.bit_out(vpage);
        // If a prefetch loaded this page and it was never touched, its
        // I/O is now provably wasted (no-op for demand-loaded pages).
        if let Some(mx) = &mut self.metrics {
            mx.ledger.evicted(vpage);
        }
        self.pages[vpage as usize].span = 0;
        if wasted && self.policy_ready() {
            if let Some(pol) = self.policy.as_mut() {
                pol.on_prefetch_evicted_unused(vpage);
            }
        }
    }

    /// Pop the next live free-list page, skipping stale entries.
    fn pop_free_list(&mut self) -> Option<u64> {
        while let Some(p) = self.free_list.pop_front() {
            if matches!(
                self.pages[p as usize].state,
                PageState::Resident {
                    on_free_list: true,
                    ..
                }
            ) {
                self.reclaimable -= 1;
                return Some(p);
            }
        }
        None
    }

    /// The one bounded-retry ladder every request the application
    /// *needs* goes through (demand reads and write-backs; prefetch
    /// reads are hints and never come here). `submit` is the submission
    /// shape — blocking, posted or tracked — and is the only thing the
    /// callers differ in. A transient error waits the current backoff
    /// (which doubles per retry); a brownout waits out the reported
    /// window. A full queue is backpressure, not a fault: the OS waits
    /// until the scheduler promises a free slot without consuming any
    /// retry budget. Waits are charged as idle time. The error surfaces
    /// once the retry count or the wait budget is exhausted.
    fn retry_ladder<T>(
        &mut self,
        disk: usize,
        req: Request,
        vpage: u64,
        submit: impl Fn(&mut DiskArray, usize, Ns, Request) -> Result<T, IoError>,
    ) -> Result<T, OsError> {
        let mut attempts: u32 = 1;
        let mut waited: Ns = 0;
        let mut backoff = self.params.io_backoff_base_ns.max(1);
        loop {
            match submit(&mut self.disks, disk, self.now, req) {
                Ok(done) => return Ok(done),
                Err(e @ (IoError::EmptyRequest | IoError::OutOfRange { .. })) => {
                    // Logic errors: retrying cannot help.
                    return Err(OsError::Io(e));
                }
                Err(IoError::Crashed { at }) => {
                    // Power loss: latch it. Not retryable, not counted
                    // against the retry budget — the disks are gone.
                    self.crashed = Some(at);
                    return Err(OsError::Crashed { at });
                }
                Err(IoError::DiskDead { disk: d, at }) => {
                    // Whole-disk death: retrying the same disk is
                    // futile. In parity mode the hot spare takes the
                    // slot immediately; a *write* simply lands there
                    // (and rebuilds its block for free), while a read
                    // must be reconstructed — surfaced to the caller
                    // as `DiskLost` and mapped to the degraded path.
                    if self.note_disk_death(d, at) && req.kind == ReqKind::Write {
                        continue;
                    }
                    return Err(OsError::DiskLost { disk: d, at });
                }
                Err(IoError::QueueFull { retry_at, disk: d }) => {
                    // Each wait ends with at least one slot free, so a
                    // blocked demand access always makes progress.
                    let wait = retry_at.saturating_sub(self.now).max(1);
                    self.charge(TimeCategory::Idle, wait);
                    self.stats.queue_full_waits += 1;
                    self.stats.queue_full_wait_ns += wait;
                    if let Some(mx) = &mut self.metrics {
                        mx.queue_wait.record(wait);
                    }
                    self.trace_event(TraceEvent::QueueFullWait {
                        page: vpage,
                        disk: d,
                        wait,
                    });
                }
                Err(e) => {
                    self.stats.io_errors_observed += 1;
                    self.trace_event(TraceEvent::IoError {
                        page: Some(vpage),
                        disk,
                    });
                    let wait = match e {
                        IoError::Brownout { until, .. } => {
                            until.saturating_sub(self.now).max(backoff)
                        }
                        _ => backoff,
                    };
                    if attempts > self.params.io_max_retries
                        || waited.saturating_add(wait) > self.params.io_retry_budget_ns
                    {
                        return Err(OsError::RetriesExhausted {
                            last: e,
                            attempts,
                            waited_ns: waited,
                            page: vpage,
                        });
                    }
                    self.charge(TimeCategory::Idle, wait);
                    self.stats.io_retries += 1;
                    self.stats.io_retry_wait_ns += wait;
                    self.trace_event(TraceEvent::IoRetry { page: vpage, wait });
                    waited += wait;
                    backoff = backoff.saturating_mul(2);
                    attempts += 1;
                }
            }
        }
    }

    /// Submit through the retry ladder and learn the completion time:
    /// demand reads block (the faulting thread stalls inline on the
    /// returned time); writes are posted fire-and-forget and return 0.
    fn submit_with_retry(&mut self, disk: usize, req: Request, vpage: u64) -> Result<Ns, OsError> {
        if req.kind == ReqKind::Write {
            let post = |d: &mut DiskArray, id, now, r| d.try_post(id, now, r).map(|()| 0);
            self.retry_ladder(disk, req, vpage, post)
        } else {
            self.retry_ladder(disk, req, vpage, DiskArray::try_submit)
        }
    }

    /// Submit through the retry ladder as a tracked [`Ticket`] — the
    /// shape the durable writeback protocol needs, since it must learn
    /// each write's exact completion time at crash resolution.
    fn submit_tracked_with_retry(
        &mut self,
        disk: usize,
        req: Request,
        vpage: u64,
    ) -> Result<Ticket, OsError> {
        self.retry_ladder(disk, req, vpage, DiskArray::try_track)
    }

    /// Record a whole-disk death the first time any submission path
    /// observes it. Returns whether the machine can tolerate the loss:
    /// `true` only in parity mode for a first (or already-known) death,
    /// in which case the hot spare is installed into the dead slot at
    /// once and the rebuild watermark starts at zero — the injector
    /// stops failing the slot, and from here on the *machine* gates
    /// reads by `rebuilt_rows`. A second concurrent death (or any death
    /// without redundancy) is data loss.
    fn note_disk_death(&mut self, disk: usize, at: Ns) -> bool {
        match self.dead_disk {
            Some((d, _)) if d == disk => self.parity.is_some(),
            Some(_) => false,
            None => {
                self.dead_disk = Some((disk, at));
                self.death_detected_at = self.now;
                if self.parity.is_some() {
                    self.disks.install_spare(disk);
                    self.rebuilt_rows = 0;
                    self.rebuild_next_at = self.now;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Whether the array is currently holed: a disk died and (in parity
    /// mode) the rebuild has not yet completed.
    pub fn degraded_active(&self) -> bool {
        self.dead_disk.is_some()
    }

    /// The dead disk slot and its death time, while the array is holed.
    pub fn dead_disk(&self) -> Option<(usize, Ns)> {
        self.dead_disk
    }

    /// Rebuild progress as `(rows_rebuilt, total_rows)`. Total is zero
    /// for machines without a parity layout.
    pub fn rebuild_progress(&self) -> (u64, u64) {
        (self.rebuilt_rows, self.fs.rows(self.swap).unwrap_or(0))
    }

    /// Whether a read of `vpage` (whose home block is on `disk`) must
    /// go through degraded survivor reconstruction: the home disk is
    /// the dead slot, parity exists, and the page's stripe row has not
    /// yet been rebuilt onto the spare.
    fn read_goes_degraded(&self, disk: usize, vpage: u64) -> bool {
        let Some((dead, _)) = self.dead_disk else {
            return false;
        };
        if disk != dead || self.parity.is_none() {
            return false;
        }
        self.fs
            .row_of(self.swap, vpage)
            .is_ok_and(|r| r >= self.rebuilt_rows)
    }

    /// Snapshot the current in-memory image of `vpage` (the bytes a
    /// writeback would persist).
    fn page_image(&self, vpage: u64) -> Vec<u8> {
        let start = (vpage * self.params.page_bytes) as usize;
        self.data[start..start + self.params.page_bytes as usize].to_vec()
    }

    /// Schedule a write-back of `vpage`'s current contents.
    ///
    /// Failures are retried with backoff; if retries exhaust, the
    /// write-back is abandoned, counted, and the page recorded for
    /// [`Machine::try_finish`]'s [`FlushError`] — the simulator's
    /// backing store is authoritative, so abandonment affects the
    /// durability ledger, never the computed results. In durability
    /// mode the write goes through the write-ahead journal (or, with
    /// the journal disabled, as a bare tracked write), so crash
    /// resolution can decide exactly what landed.
    fn writeback(&mut self, vpage: u64) {
        if self.crashed.is_some() {
            // Power is out: the write can never happen.
            self.stats.writebacks_abandoned += 1;
            self.flush_failures.push(vpage);
            return;
        }
        let (disk, block) = self
            .fs
            .place(self.swap, vpage)
            .expect("resident page must have backing blocks");
        if self.parity.is_some() {
            // RAID-5 read-modify-write: every data writeback carries a
            // parity-block write on the row's parity disk. The content
            // change lands when the data write settles
            // ([`Machine::land_durable`]); this models the traffic.
            self.post_parity_write(vpage);
        }
        if self.durable.is_some() {
            self.ensure_durable_snapshot();
            let payload = self.page_image(vpage);
            if self.journal.is_some() {
                self.writeback_journaled(vpage, disk, block, payload);
            } else {
                self.writeback_plain(vpage, disk, block, payload);
            }
            return;
        }
        let owner = self.owner_of(vpage).unwrap_or(0);
        match self.submit_with_retry(
            disk,
            Request::new(ReqKind::Write, block, 1).with_tenant(owner),
            vpage,
        ) {
            Ok(_) => {
                self.stats.writebacks += 1;
                self.trace_event(TraceEvent::Writeback { page: vpage });
            }
            Err(_) => {
                self.stats.writebacks_abandoned += 1;
                self.flush_failures.push(vpage);
            }
        }
    }

    /// The WAL commit protocol for one writeback. All four writes are
    /// issued up front on the page's disk; ordering is enforced
    /// *logically* by effective completion times (each stage's
    /// effective time is the max of its own completion and the prior
    /// stage's), which models a per-disk write barrier without
    /// serializing the physical queue:
    ///
    /// 1. descriptor + payload into the journal slot  (seal),
    /// 2. the in-place data write to the home block   (apply),
    /// 3. the descriptor rewritten with its commit mark (commit).
    fn writeback_journaled(&mut self, vpage: u64, disk: usize, block: u64, payload: Vec<u8>) {
        let t0 = self.prof_start();
        self.writeback_journaled_inner(vpage, disk, block, payload);
        self.prof_end(t0, MachineBucket::Journal);
    }

    fn writeback_journaled_inner(&mut self, vpage: u64, disk: usize, block: u64, payload: Vec<u8>) {
        let slot = loop {
            let j = self.journal.as_mut().expect("journaled writeback");
            match j.reserve(disk) {
                Some(slot) => break slot,
                None => {
                    if !self.force_retire_oldest(disk) {
                        self.stats.writebacks_abandoned += 1;
                        self.flush_failures.push(vpage);
                        return;
                    }
                }
            }
        };
        self.stats.journal_appends += 1;
        let issue = |m: &mut Self, b: u64| {
            m.submit_tracked_with_retry(disk, Request::new(ReqKind::Write, b, 1), vpage)
                .ok()
        };
        let desc = issue(self, slot.desc_block);
        let pay = issue(self, slot.payload_block);
        let data = issue(self, block);
        let commit = issue(self, slot.desc_block);
        let complete = desc.is_some() && pay.is_some() && data.is_some() && commit.is_some();
        self.wal_pending.push(WalRecord {
            seq: slot.seq,
            disk,
            vpage,
            payload,
            desc,
            pay,
            data,
            commit,
        });
        if complete {
            self.stats.writebacks += 1;
            self.trace_event(TraceEvent::Writeback { page: vpage });
        } else if self.crashed.is_none() {
            // Retries exhausted mid-protocol with the power still on:
            // the update may never land, so report it as unflushed.
            self.stats.writebacks_abandoned += 1;
            self.flush_failures.push(vpage);
        }
    }

    /// Durable writeback without WAL protection: one bare tracked
    /// write. A crash catching it mid-air can tear the home block with
    /// no payload to repair from — the unrecoverable case.
    fn writeback_plain(&mut self, vpage: u64, disk: usize, block: u64, payload: Vec<u8>) {
        match self.submit_tracked_with_retry(disk, Request::new(ReqKind::Write, block, 1), vpage) {
            Ok(data) => {
                self.stats.writebacks += 1;
                self.trace_event(TraceEvent::Writeback { page: vpage });
                self.plain_pending.push(PlainWrite {
                    vpage,
                    payload,
                    data,
                });
            }
            Err(OsError::Crashed { .. }) => {
                // Never accepted: the home block keeps the old image;
                // the update is simply lost.
                self.crash_discarded.push(vpage);
                self.flush_failures.push(vpage);
            }
            Err(_) => {
                self.stats.writebacks_abandoned += 1;
                self.flush_failures.push(vpage);
            }
        }
    }

    /// Post the parity-block write that accompanies a data writeback
    /// in parity mode. Skipped when the row's parity block sits on the
    /// un-rebuilt part of the dead disk (there is nowhere to write it
    /// until the rebuild reaches that row). Queue-full refusals are
    /// dropped — the traffic is timing-only; the content model is
    /// updated at the durable landing regardless.
    fn post_parity_write(&mut self, vpage: u64) {
        let Ok(row) = self.fs.row_of(self.swap, vpage) else {
            return;
        };
        let Ok((pd, pb)) = self.fs.parity_place(self.swap, row) else {
            return;
        };
        if let Some((dead, _)) = self.dead_disk {
            if pd == dead && row >= self.rebuilt_rows {
                return;
            }
        }
        let owner = self.owner_of(vpage).unwrap_or(0);
        match self.disks.try_post(
            pd,
            self.now,
            Request::new(ReqKind::Write, pb, 1).with_tenant(owner),
        ) {
            Ok(()) => self.stats.parity_writes += 1,
            Err(IoError::Crashed { at }) => self.crashed = Some(at),
            Err(IoError::DiskDead { disk, at }) => {
                self.note_disk_death(disk, at);
            }
            Err(_) => {}
        }
    }

    /// Land a page image in the durable store, first folding the
    /// change into its stripe row's parity content (the XOR identity
    /// `parity ^= old ^ new` needs the *old* durable image, so the
    /// order matters).
    fn land_durable(&mut self, vpage: u64, payload: &[u8]) {
        if self.parity.is_some() {
            if let Ok(row) = self.fs.row_of(self.swap, vpage) {
                if let (Some(ps), Some(d)) = (&mut self.parity, &self.durable) {
                    if ps.is_synced() {
                        ps.update(row, d.page(vpage), payload);
                    }
                }
            }
        }
        if let Some(d) = &mut self.durable {
            d.write_page(vpage, payload);
        }
    }

    /// Synchronously make the oldest journal record on `disk` durable
    /// and reclaim its slot (the ring is full). Returns `false` if
    /// there is nothing to retire.
    fn force_retire_oldest(&mut self, disk: usize) -> bool {
        let Some(seq) = self.journal.as_ref().and_then(|j| j.oldest_live(disk)) else {
            return false;
        };
        let Some(idx) = self
            .wal_pending
            .iter()
            .position(|r| r.disk == disk && r.seq == seq)
        else {
            // Already resolved elsewhere; just reclaim the slot.
            self.journal.as_mut().expect("journal").retire(disk, seq);
            return true;
        };
        let rec = self.wal_pending.remove(idx);
        let done = [rec.desc, rec.pay, rec.data, rec.commit]
            .into_iter()
            .flatten()
            .map(|t| self.disks.wait_for(t))
            .max()
            .unwrap_or(self.now);
        self.stall_until(done);
        self.stats.journal_stalls += 1;
        if rec.data.is_some() {
            self.land_durable(rec.vpage, &rec.payload);
        }
        self.journal.as_mut().expect("journal").retire(disk, seq);
        self.wal_durable.push(DurableRecord {
            seq: rec.seq,
            disk: rec.disk,
            vpage: rec.vpage,
            payload: rec.payload,
            committed: true,
        });
        true
    }

    /// Move a resident page to the free list (daemon eviction path).
    fn queue_on_free_list(&mut self, vpage: u64, front: bool) {
        let page = &mut self.pages[vpage as usize];
        let dirty = matches!(page.state, PageState::Resident { dirty: true, .. });
        page.state = PageState::Resident {
            dirty: false,
            referenced: false,
            on_free_list: true,
        };
        if dirty {
            self.writeback(vpage);
        }
        if front {
            self.free_list.push_front(vpage);
        } else {
            self.free_list.push_back(vpage);
        }
        self.reclaimable += 1;
    }

    /// Pageout daemon: clock-scan resident pages onto the free list until
    /// the pool reaches the high watermark.
    ///
    /// The daemon's CPU time is not charged to the application (it ran on
    /// spare cycles in Hurricane); its disk traffic is fully modeled.
    fn run_daemon(&mut self) {
        let pool = self.truly_free() + self.free_list_len();
        if pool >= self.params.low_water {
            return;
        }
        let total = self.total_pages();
        let mut scanned = 0u64;
        let mut pool = pool;
        while pool < self.params.high_water && scanned < 2 * total {
            let v = self.clock_hand;
            self.clock_hand = (self.clock_hand + 1) % total;
            scanned += 1;
            self.settle(v);
            if let PageState::Resident {
                dirty,
                referenced,
                on_free_list: false,
            } = self.pages[v as usize].state
            {
                if referenced {
                    self.pages[v as usize].state = PageState::Resident {
                        dirty,
                        referenced: false,
                        on_free_list: false,
                    };
                } else {
                    self.queue_on_free_list(v, false);
                    self.stats.daemon_evictions += 1;
                    self.trace_event(TraceEvent::Eviction { page: v });
                    pool += 1;
                }
            }
        }
    }

    /// Allocate a frame for a demand fault.
    ///
    /// Fails (with full occupancy context) only when every frame is
    /// pinned by in-flight I/O and nothing is reclaimable even after
    /// forcing the pageout daemon.
    fn alloc_frame_demand(&mut self) -> Result<(), OsError> {
        if self.truly_free() > 0 {
            return Ok(());
        }
        if let Some(p) = self.pop_free_list() {
            self.reclaim(p);
            return Ok(());
        }
        // Nothing free and nothing reclaimable: force the daemon to build
        // a pool, then reclaim.
        self.run_daemon();
        if let Some(p) = self.pop_free_list() {
            self.reclaim(p);
            return Ok(());
        }
        Err(OsError::OutOfFrames {
            resident: self.resident,
            inflight: self.inflight,
            limit: self.params.resident_limit,
        })
    }

    /// Allocate a frame for a prefetch; `false` means the hint is dropped
    /// (the paper: "the OS simply drops prefetches when all memory is in
    /// use"). Prefetches never force evictions and always leave
    /// `demand_reserve` frames untouched.
    fn alloc_frame_prefetch(&mut self) -> bool {
        if self.truly_free() > self.params.demand_reserve {
            return true;
        }
        if let Some(p) = self.pop_free_list() {
            self.reclaim(p);
            return true;
        }
        false
    }

    // ------------------------------------------------------------------
    // Demand accesses
    // ------------------------------------------------------------------

    /// Touch the bytes `[addr, addr + len)` as a demand access,
    /// faulting as needed. `write` marks the pages dirty.
    ///
    /// Returns the number of pages that hard-faulted (test hook).
    ///
    /// # Panics
    ///
    /// Panics if a demand read fails even after the OS's bounded
    /// retries (possible only under an installed fault plan whose
    /// error rate or brownout length defeats the retry budget). Fault-
    /// aware callers use [`Machine::try_touch`].
    pub fn touch(&mut self, addr: u64, len: u64, write: bool) -> u64 {
        self.try_touch(addr, len, write)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Machine::touch`], but surfaces exhausted-retry demand-read
    /// failures as typed errors. Pages before the failing one remain
    /// touched; the failing page is left unmapped, so the access can be
    /// retried later.
    ///
    /// Inlined into its caller as far as the resident-hit test; the
    /// miss is one out-of-line call.
    #[inline]
    pub fn try_touch(&mut self, addr: u64, len: u64, write: bool) -> Result<u64, OsError> {
        if self.touch_is_hit(addr, len, write) {
            return Ok(0);
        }
        self.try_touch_miss(addr, len, write)
    }

    /// The resident-hit fast path: whether the demand access
    /// `[addr, addr + len)` changes nothing at all, so its caller may
    /// skip [`Machine::try_touch`] altogether. True when the access
    /// lies in one page, that page is [`Page::hot`], and nothing the
    /// touch preamble consults is armed:
    ///
    /// * `host_prof` counts every touch into its residency bucket;
    /// * `durable` takes its lazy baseline snapshot on the first timed
    ///   access;
    /// * `crashed` serves accesses zombie-style;
    /// * a non-empty `pressure` schedule is applied as the clock passes
    ///   each entry, and a touch is where that is noticed;
    /// * `dead_disk` pumps the rebuild on every touch.
    ///
    /// Sampler, metrics, trace, policy and tenants are not on the list:
    /// the resident arm of `touch_page` consults them only on the first
    /// touch after a load or for a page with an open prefetch span, and
    /// a hot page is neither; the sampler fires from `charge`, and a
    /// hit charges nothing.
    #[inline]
    fn touch_is_hit(&self, addr: u64, len: u64, write: bool) -> bool {
        debug_assert!(!self.finished, "touch after finish()");
        // An access that wraps the address space is the slow path's to
        // report (or to wrap), as is a page past the last one.
        let Some(end) = addr.checked_add(len.max(1) - 1) else {
            return false;
        };
        let vpage = self.page_of(addr);
        vpage == self.page_of(end)
            && self.pages.get(vpage as usize).is_some_and(|p| p.hot(write))
            && self.host_prof.is_none()
            && self.durable.is_none()
            && self.crashed.is_none()
            && self.pressure.is_empty()
            && self.dead_disk.is_none()
    }

    /// What every demand access does before its first page, blocking
    /// or not. Returns the first and last page left to touch; `None`
    /// when a crashed machine has already served the whole access.
    #[inline(always)]
    fn touch_preamble(&mut self, addr: u64, len: u64, write: bool) -> Option<(u64, u64)> {
        debug_assert!(!self.finished, "touch after finish()");
        if self.durable.is_some() {
            self.ensure_durable_snapshot();
        }
        let first = self.page_of(addr);
        let last = self.page_of(addr + len.max(1) - 1);
        if self.crashed.is_some() {
            // Zombie mode: the power is out, so there is no disk and no
            // time — serve from the in-memory image so the interpreter
            // can run to completion and the harness can recover.
            for vpage in first..=last {
                self.touch_page_crashed(vpage, write);
            }
            return None;
        }
        if !self.pressure.is_empty() {
            self.apply_pressure();
        }
        if self.dead_disk.is_some() {
            self.pump_rebuild();
        }
        Some((first, last))
    }

    /// [`Machine::try_touch`] past the fast path: every access that is
    /// not a resident hit, and for the differential test all of them.
    fn try_touch_miss(&mut self, addr: u64, len: u64, write: bool) -> Result<u64, OsError> {
        let t0 = self.prof_start();
        let r = self.try_touch_inner(addr, len, write);
        self.prof_end(t0, MachineBucket::Residency);
        r
    }

    fn try_touch_inner(&mut self, addr: u64, len: u64, write: bool) -> Result<u64, OsError> {
        let Some((first, last)) = self.touch_preamble(addr, len, write) else {
            return Ok(0);
        };
        let mut faults = 0;
        for vpage in first..=last {
            if self.touch_page(vpage, write, FaultWait::Inline)?.is_some() {
                faults += 1;
            }
        }
        Ok(faults)
    }

    /// Non-blocking variant of [`Machine::try_touch`] for co-scheduling
    /// hubs: all fault bookkeeping (kernel overhead, counters, stall
    /// samples, residency transitions) happens exactly as in the
    /// blocking path, but instead of charging the disk wait as idle the
    /// call returns [`Touch::Blocked`] with the read's completion time.
    /// The hub runs other tenants during the gap (or
    /// [`Machine::advance_idle_to`] if everyone is blocked), then
    /// simply retries the access: completed pages take the free
    /// resident fast path, so no event is double-counted.
    ///
    /// Queue-full and retry backoff waits inside the submission path
    /// still block globally (they are idle waits of the shared kernel,
    /// not of one tenant) — rare by construction, since demand reads
    /// bypass the per-tenant queue shares.
    pub fn touch_nb(&mut self, addr: u64, len: u64, write: bool) -> Result<Touch, OsError> {
        if self.touch_is_hit(addr, len, write) {
            return Ok(Touch::Done { faults: 0 });
        }
        self.touch_nb_miss(addr, len, write)
    }

    /// [`Machine::touch_nb`] past the fast path.
    fn touch_nb_miss(&mut self, addr: u64, len: u64, write: bool) -> Result<Touch, OsError> {
        let t0 = self.prof_start();
        let r = self.touch_nb_inner(addr, len, write);
        self.prof_end(t0, MachineBucket::Residency);
        r
    }

    fn touch_nb_inner(&mut self, addr: u64, len: u64, write: bool) -> Result<Touch, OsError> {
        let Some((first, last)) = self.touch_preamble(addr, len, write) else {
            return Ok(Touch::Done { faults: 0 });
        };
        let mut faults = 0;
        for vpage in first..=last {
            match self.touch_page(vpage, write, FaultWait::Caller)? {
                None => {}
                Some(until) if until > self.now => {
                    // Counted faults on earlier pages stay counted in
                    // the stats; the retry re-reports only the rest.
                    return Ok(Touch::Blocked { until });
                }
                Some(_) => faults += 1,
            }
        }
        Ok(Touch::Done { faults })
    }

    /// Assign the single dominant cause of a late prefetch: the page
    /// was touched at `touch` (before any stall) while its read, whose
    /// completion detail is `c`, was still in flight. The decision tree
    /// (documented on [`LateCause`]) checks environmental interference
    /// first, then asks whether even an uncontended disk could have made
    /// the deadline, then splits the remainder by where the flight time
    /// actually went.
    fn classify_late(&self, vpage: u64, touch: Ns, c: Completion) -> LateCause {
        let Some((issued_at, js0, de0)) = self
            .metrics
            .as_ref()
            .and_then(|m| m.ledger.issue_ctx(vpage))
        else {
            return LateCause::IssueLag;
        };
        let flags = self
            .metrics
            .as_ref()
            .and_then(|m| m.ledger.issue_flags(vpage))
            .unwrap_or(0);
        if flags & ISSUE_DEGRADED != 0 {
            // The read itself was a survivor fan-out for a page on the
            // dead disk — reconstruction latency, not scheduling.
            return LateCause::DegradedRead;
        }
        if self.degrade_epoch != de0 {
            return LateCause::DegradedPause;
        }
        if self.stats.journal_stalls > js0 && c.wait >= c.service {
            return LateCause::JournalStall;
        }
        if flags & ISSUE_REBUILD_ACTIVE != 0 && c.wait >= c.service {
            // Queue wait dominated while the rebuild scrubber was
            // pushing reconstruction I/O through the survivors.
            return LateCause::RebuildContention;
        }
        if touch.saturating_sub(issued_at) < c.service {
            return LateCause::IssueLag;
        }
        if c.wait >= c.service {
            return LateCause::QueueWait;
        }
        LateCause::ServiceTime
    }

    /// Fan one read per *other* block of `vpage`'s stripe row — its
    /// data siblings plus the parity block — on the real queues, and
    /// return the slowest completion: the cost of reconstructing
    /// `vpage` by XOR. Used both for degraded reads of the dead slot
    /// and for speculative reconstruction when hedging.
    fn row_fanout_read(&mut self, vpage: u64, row: u64) -> Result<Ns, OsError> {
        let pages = self.fs.row_pages(self.swap, row).map_err(OsError::Fs)?;
        let mut done = self.now;
        for p in pages {
            if p == vpage {
                continue;
            }
            let (d, b) = self.fs.place(self.swap, p).map_err(OsError::Fs)?;
            done = done.max(self.submit_with_retry(
                d,
                Request::new(ReqKind::DemandRead, b, 1).with_tenant(self.cur_tenant),
                vpage,
            )?);
        }
        let (pd, pb) = self.fs.parity_place(self.swap, row).map_err(OsError::Fs)?;
        done = done.max(self.submit_with_retry(
            pd,
            Request::new(ReqKind::DemandRead, pb, 1).with_tenant(self.cur_tenant),
            vpage,
        )?);
        Ok(done)
    }

    /// Serve a demand read whose home block is on the un-rebuilt part
    /// of the dead disk: reconstruct it from the row's survivors.
    fn degraded_demand_read(&mut self, vpage: u64) -> Result<Ns, OsError> {
        let row = self.fs.row_of(self.swap, vpage).map_err(OsError::Fs)?;
        let done = self.row_fanout_read(vpage, row)?;
        self.stats.degraded_reads += 1;
        Ok(done)
    }

    /// Deadline after which a degraded-mode demand read hedges: the
    /// p99 of observed fault waits (the tail the hedge is cutting),
    /// falling back to a generous constant when metrics are detached
    /// or still empty.
    fn hedge_deadline(&self) -> Ns {
        let p99 = self.metrics.as_ref().map_or(0, |m| m.fault_wait.p99());
        if p99 > 0 {
            p99
        } else {
            25 * MILLISECOND
        }
    }

    /// Hedged tail read: in degraded mode the survivors carry fan-out
    /// and rebuild traffic, so a read predicted to blow the p99
    /// deadline races a speculative alternative and takes the earlier
    /// completion. If the page's stripe row is already whole again
    /// (rebuilt onto the spare) the alternative is a full XOR
    /// reconstruction from the row's other blocks; otherwise the row
    /// is still holed — reconstruction is impossible — and the hedge
    /// is a duplicate read of the same block.
    fn maybe_hedge(
        &mut self,
        vpage: u64,
        disk: usize,
        block: u64,
        done: Ns,
    ) -> Result<Ns, OsError> {
        let deadline = self.now.saturating_add(self.hedge_deadline());
        if done <= deadline {
            return Ok(done);
        }
        self.stats.hedged_reads += 1;
        let row = self.fs.row_of(self.swap, vpage).map_err(OsError::Fs)?;
        let alt = if row < self.rebuilt_rows {
            self.row_fanout_read(vpage, row)?
        } else {
            self.submit_with_retry(
                disk,
                Request::new(ReqKind::DemandRead, block, 1).with_tenant(self.cur_tenant),
                vpage,
            )?
        };
        if alt < done {
            self.stats.hedged_wins += 1;
            Ok(alt)
        } else {
            Ok(done)
        }
    }

    /// Submit the demand read for `vpage` (home block `(disk, block)`),
    /// going through survivor reconstruction when the home is on the
    /// un-rebuilt part of a dead disk and hedging tail reads while the
    /// array is degraded. Returns the completion time and whether the
    /// read was served degraded.
    fn demand_read_submit(
        &mut self,
        vpage: u64,
        disk: usize,
        block: u64,
    ) -> Result<(Ns, bool), OsError> {
        if self.read_goes_degraded(disk, vpage) {
            return self.degraded_demand_read(vpage).map(|d| (d, true));
        }
        match self.submit_with_retry(
            disk,
            Request::new(ReqKind::DemandRead, block, 1).with_tenant(self.cur_tenant),
            vpage,
        ) {
            Ok(done) => {
                let done = if self.dead_disk.is_some() && self.parity.is_some() {
                    self.maybe_hedge(vpage, disk, block, done)?
                } else {
                    done
                };
                Ok((done, false))
            }
            Err(OsError::DiskLost { .. })
                if self.parity.is_some() && self.dead_disk.is_some_and(|(d, _)| d == disk) =>
            {
                // First contact with the freshly dead disk: the death
                // was latched inside the retry loop; reconstruct.
                self.degraded_demand_read(vpage).map(|d| (d, true))
            }
            Err(e) => Err(e),
        }
    }

    /// Post-crash page touch: pure metadata bookkeeping, no disk, no
    /// time, no fault statistics. Keeps frame counters consistent so a
    /// later [`Machine::recover`] starts from sane accounting.
    fn touch_page_crashed(&mut self, vpage: u64, write: bool) {
        let page = self.pages[vpage as usize];
        match page.state {
            PageState::Resident {
                on_free_list: true, ..
            } => self.reclaimable -= 1,
            PageState::Resident { .. } => {}
            PageState::InFlight { .. } => {
                self.inflight -= 1;
                self.note_tenant_inflight(vpage, -1);
                self.resident += 1;
            }
            PageState::Unmapped => self.resident += 1,
        }
        let dirty = matches!(page.state, PageState::Resident { dirty: true, .. });
        let p = &mut self.pages[vpage as usize];
        p.state = PageState::Resident {
            dirty: dirty || write,
            referenced: true,
            on_free_list: false,
        };
        p.touched = true;
        p.prefetch_tag = false;
        p.span = 0;
    }

    /// Touch one page. `Ok(None)` means no hard fault; `Ok(Some(done))`
    /// means the page hard-faulted and its read completes at `done`.
    /// `wait` is the only difference between the blocking and the
    /// non-blocking access: [`FaultWait::Inline`] stalls here, so `done`
    /// is never in the future, [`FaultWait::Caller`] leaves the clock
    /// alone and the caller waits (a `done` already in the past costs
    /// nothing but overhead, exactly like a zero-wait stall).
    fn touch_page(
        &mut self,
        vpage: u64,
        write: bool,
        wait: FaultWait,
    ) -> Result<Option<Ns>, OsError> {
        self.settle(vpage);
        let page = self.pages[vpage as usize];
        match page.state {
            PageState::Resident {
                dirty,
                on_free_list: false,
                ..
            } => {
                // In memory and active: classify the first touch after a
                // load, update reference/dirty bits, no fault.
                if !page.touched {
                    if page.prefetch_tag {
                        self.stats.prefetched_hits += 1;
                        let lt0 = self.prof_start();
                        if let Some(mx) = &mut self.metrics {
                            mx.ledger.consumed(vpage, self.now);
                        }
                        self.prof_end(lt0, MachineBucket::Ledger);
                        if page.span != 0 {
                            self.trace_event(TraceEvent::PrefetchConsume {
                                page: vpage,
                                span: page.span,
                                late: false,
                            });
                        }
                    } else {
                        // Loaded by a demand fault; already classified
                        // at fault time.
                    }
                }
                let first_touch = !page.touched;
                let p = &mut self.pages[vpage as usize];
                p.touched = true;
                p.prefetch_tag = false;
                p.span = 0;
                p.state = PageState::Resident {
                    dirty: dirty || write,
                    referenced: true,
                    on_free_list: false,
                };
                if first_touch && page.prefetch_tag {
                    self.policy_touch(vpage, TouchKind::PrefetchedTimely);
                }
                Ok(None)
            }
            PageState::Resident {
                dirty,
                on_free_list: true,
                ..
            } => {
                // Soft fault: reclaim from the free list, no disk I/O.
                self.charge(
                    TimeCategory::SystemFault,
                    self.params.soft_fault_overhead_ns,
                );
                self.stats.soft_faults += 1;
                self.reclaimable -= 1;
                self.trace_event(TraceEvent::SoftFault { page: vpage });
                let first_touch = !page.touched;
                if first_touch && page.prefetch_tag {
                    // Loaded from disk by a prefetch, released/evicted
                    // before first use, but still mapped: the original
                    // fault was eliminated.
                    self.stats.prefetched_hits += 1;
                    if let Some(mx) = &mut self.metrics {
                        mx.ledger.consumed(vpage, self.now);
                    }
                    if page.span != 0 {
                        self.trace_event(TraceEvent::PrefetchConsume {
                            page: vpage,
                            span: page.span,
                            late: false,
                        });
                    }
                }
                let p = &mut self.pages[vpage as usize];
                p.touched = true;
                p.prefetch_tag = false;
                p.span = 0;
                p.state = PageState::Resident {
                    dirty: dirty || write,
                    referenced: true,
                    on_free_list: false,
                };
                // Back in active use: restore its bit (a release had
                // cleared it). The stale deque entry is pruned lazily.
                self.bit_in(vpage);
                self.note_free_level();
                self.policy_touch(vpage, TouchKind::SoftFault);
                Ok(None)
            }
            PageState::InFlight { ticket } => Ok(Some(
                self.fault_in_flight(vpage, page.span, ticket, write, wait),
            )),
            PageState::Unmapped => self
                .fault_unmapped(vpage, page.prefetch_tag, write, wait)
                .map(Some),
        }
    }

    // The two hard-fault arms of `touch_page` are functions of their
    // own and never inlined: inlined they make one 7.7 KB body, every
    // resident touch pays for the fault paths' stack frame, and the
    // host time of a fault-bound run moves ~20% with where the linker
    // places it. Each returns the completion time of the page's read.

    /// Fault on a page whose prefetch is still in progress: only the
    /// residual latency is left to wait. `wait_for` redeems this page's
    /// completion unit, so the page transitions directly (a settle
    /// would redeem twice). On a multi-tenant machine the queued read
    /// is first promoted to demand class — somebody is blocked on it
    /// now, and it must not wait out the hint shares.
    #[inline(never)]
    fn fault_in_flight(
        &mut self,
        vpage: u64,
        span: u64,
        ticket: Ticket,
        write: bool,
        wait: FaultWait,
    ) -> Ns {
        self.charge(TimeCategory::SystemFault, self.params.fault_overhead_ns);
        self.stats.hard_faults += 1;
        self.stats.prefetched_faults_inflight += 1;
        if !self.tenants.is_empty() {
            self.disks.promote(ticket, self.now);
        }
        let completion = self.disks.wait_for_detail(ticket);
        let arrival = completion.at;
        let lt0 = self.prof_start();
        let cause = self.classify_late(vpage, self.now, completion);
        let waited = self.fault_wait(arrival, wait);
        self.stats.fault_wait.push(waited as f64);
        self.stats.late_prefetch_stall_ns += waited;
        if let Some(mx) = &mut self.metrics {
            mx.fault_wait.record(waited);
            mx.ledger.consumed_late_caused(vpage, arrival, cause);
        }
        self.prof_end(lt0, MachineBucket::Ledger);
        if span != 0 {
            self.trace_event(TraceEvent::PrefetchConsume {
                page: vpage,
                span,
                late: true,
            });
        }
        self.inflight -= 1;
        self.note_tenant_inflight(vpage, -1);
        self.note_tenant_fault(waited);
        self.resident += 1;
        let p = &mut self.pages[vpage as usize];
        p.touched = true;
        p.prefetch_tag = false;
        p.span = 0;
        p.state = PageState::Resident {
            dirty: write,
            referenced: true,
            on_free_list: false,
        };
        self.policy_touch(vpage, TouchKind::PrefetchedLate);
        arrival
    }

    /// Hard fault on a page that is not in memory: full kernel overhead
    /// plus the whole disk latency.
    #[inline(never)]
    fn fault_unmapped(
        &mut self,
        vpage: u64,
        prefetch_tag: bool,
        write: bool,
        wait: FaultWait,
    ) -> Result<Ns, OsError> {
        self.charge(TimeCategory::SystemFault, self.params.fault_overhead_ns);
        self.stats.hard_faults += 1;
        if prefetch_tag {
            // Prefetched at some point, but the page was dropped or
            // flushed before use.
            self.stats.prefetched_faults_lost += 1;
        } else {
            self.stats.non_prefetched_faults += 1;
        }
        self.enforce_memory_quota();
        self.alloc_frame_demand()?;
        let (disk, block) = self.fs.place(self.swap, vpage).map_err(OsError::Fs)?;
        let (done, degraded) = match self.demand_read_submit(vpage, disk, block) {
            Ok(v) => v,
            Err(OsError::Crashed { .. }) => {
                // The power died under this very fault. Serve it
                // zombie-style (the in-memory image is still
                // authoritative for the interpreter) so `touch` callers
                // do not panic mid-kernel.
                let p = &mut self.pages[vpage as usize];
                p.state = PageState::Resident {
                    dirty: write,
                    referenced: true,
                    on_free_list: false,
                };
                p.touched = true;
                p.prefetch_tag = false;
                p.span = 0;
                self.resident += 1;
                return Ok(self.now);
            }
            Err(e) => return Err(e),
        };
        let waited = self.fault_wait(done, wait);
        if degraded {
            self.stats.degraded_read_ns += waited;
        }
        self.stats.fault_wait.push(waited as f64);
        self.note_tenant_fault(waited);
        if let Some(mx) = &mut self.metrics {
            mx.fault_wait.record(waited);
        }
        self.trace_event(TraceEvent::HardFault {
            page: vpage,
            waited,
        });
        let p = &mut self.pages[vpage as usize];
        p.state = PageState::Resident {
            dirty: write,
            referenced: true,
            on_free_list: false,
        };
        p.touched = true;
        p.prefetch_tag = false;
        p.span = 0;
        self.resident += 1;
        self.bit_in(vpage);
        self.run_daemon();
        self.note_free_level();
        self.policy_touch(vpage, TouchKind::HardFault);
        Ok(done)
    }

    // ------------------------------------------------------------------
    // Prefetch policy (the pluggable rival of the compiler's hints)
    // ------------------------------------------------------------------

    /// Replace the installed prefetch policy. The bench harness uses
    /// this to install a replaying [`oocp_policy::HistoryReplay`] for
    /// the second pass of a record/replay run.
    pub fn set_policy(&mut self, pol: Box<dyn PrefetchPolicy>) {
        self.policy = Some(pol);
    }

    /// Name of the installed policy, if any.
    pub fn policy_name(&self) -> Option<&'static str> {
        self.policy.as_ref().map(|p| p.name())
    }

    /// The miss trace recorded by the installed policy, if it is a
    /// recorder (see [`oocp_policy::PrefetchPolicy::miss_trace`]).
    pub fn policy_miss_trace(&self) -> Option<Vec<u64>> {
        self.policy.as_ref()?.miss_trace().map(<[u64]>::to_vec)
    }

    /// Suspend or resume the policy hooks. The runtime pauses reactive
    /// policies while it is degraded to demand-only paging (injected
    /// hint traffic is exactly what degraded mode exists to stop) and
    /// resumes them on recovery. The policy object keeps its state.
    ///
    /// The pause is machine-wide, so it only applies to the
    /// single-program machine: with registered tenants one tenant's
    /// degraded episode must not silence the policy for its neighbours,
    /// and the call is ignored.
    pub fn set_policy_enabled(&mut self, enabled: bool) {
        if self.tenants.is_empty() {
            self.policy_paused = !enabled;
        }
    }

    /// Whether the observation hooks should fire at all.
    #[inline]
    fn policy_ready(&self) -> bool {
        self.policy.is_some() && !self.policy_paused && self.crashed.is_none()
    }

    /// Mirror the policy's own counters into [`OsStats`] so reports and
    /// baselines see them without reaching into the trait object.
    fn sync_policy_counters(&mut self) {
        if let Some(pol) = &self.policy {
            let c = pol.counters();
            self.stats.policy_window_peak = c.window_peak;
            self.stats.policy_distance_retunes = c.distance_retunes;
            self.stats.policy_late_rate_samples = c.late_rate_samples;
        }
    }

    /// Observation hook: a first demand touch (or fault) resolved.
    fn policy_touch(&mut self, vpage: u64, kind: TouchKind) {
        if !self.policy_ready() {
            return;
        }
        let now = self.now;
        let mut act = PolicyActions::default();
        if let Some(pol) = self.policy.as_mut() {
            pol.on_touch(vpage, kind, now, &mut act);
        }
        self.sync_policy_counters();
        if !act.is_empty() {
            self.apply_policy_actions(act);
        }
    }

    /// Observation hook: the program issued a hint call.
    fn policy_hint(&mut self, prefetch: Option<(u64, u64)>, release: Option<(u64, u64)>) {
        if !self.policy_ready() {
            return;
        }
        let now = self.now;
        let mut act = PolicyActions::default();
        if let Some(pol) = self.policy.as_mut() {
            pol.on_hint(prefetch, release, now, &mut act);
        }
        self.sync_policy_counters();
        if !act.is_empty() {
            self.apply_policy_actions(act);
        }
    }

    /// Apply the actions a hook requested. Injected prefetches and
    /// releases flow through the ordinary hint machinery (`do_prefetch`
    /// / `do_release`) but charge no hint-syscall time — the policy
    /// lives inside the kernel, like Linux readahead, rather than
    /// calling into it. The `policy_issue` flag makes those paths
    /// attribute the pages to the policy and tag the disk requests.
    fn apply_policy_actions(&mut self, act: PolicyActions) {
        self.policy_issue = true;
        // Releases first: a streaming policy frees the pages behind its
        // window in the same action batch that extends it ahead, and the
        // freed frames must be visible to the prefetch admission check.
        for (start, count) in act.release {
            self.do_release(start, count);
        }
        for (start, count) in act.prefetch {
            // Injections get first-class spans from the same counter as
            // prefetch lifecycle spans, so the two families can never
            // collide in the Chrome-trace export and tracediff aligns
            // injections across runs instead of skipping instants.
            let span = self.next_span;
            self.next_span += 1;
            self.trace_event(TraceEvent::PolicyInject {
                page: start,
                count,
                span,
            });
            self.do_prefetch(start, count);
        }
        self.policy_issue = false;
        // The deliberate rule-breaker: only `BrokenPolicy` ever asks for
        // this, and only so the timing-only oracle can prove it notices.
        for vpage in act.corrupt {
            if vpage < self.total_pages() {
                let off = (vpage * self.params.page_bytes) as usize;
                self.data[off] ^= 0xFF;
            }
        }
        self.note_free_level();
    }

    // ------------------------------------------------------------------
    // Hints (system calls issued by the run-time layer)
    // ------------------------------------------------------------------

    /// Prefetch `npages` pages starting at `start_page` (system call).
    pub fn sys_prefetch(&mut self, start_page: u64, npages: u64) {
        self.hint_call(Some((start_page, npages)), None);
    }

    /// Release `npages` pages starting at `start_page` (system call).
    pub fn sys_release(&mut self, start_page: u64, npages: u64) {
        self.hint_call(None, Some((start_page, npages)));
    }

    /// Bundled prefetch + release in one system call (the compiler's
    /// `prefetch_release_block`).
    pub fn sys_prefetch_release(&mut self, pf_page: u64, pf_n: u64, rel_page: u64, rel_n: u64) {
        self.hint_call(Some((pf_page, pf_n)), Some((rel_page, rel_n)));
    }

    fn hint_call(&mut self, prefetch: Option<(u64, u64)>, release: Option<(u64, u64)>) {
        debug_assert!(!self.finished, "hint after finish()");
        if self.durable.is_some() {
            self.ensure_durable_snapshot();
        }
        if self.crashed.is_some() {
            // Hints are advice; a dead machine takes none.
            return;
        }
        if !self.pressure.is_empty() {
            self.apply_pressure();
        }
        if self.dead_disk.is_some() {
            self.pump_rebuild();
        }
        self.stats.hint_syscalls += 1;
        let pages_named = prefetch.map_or(0, |(_, n)| n) + release.map_or(0, |(_, n)| n);
        self.charge(
            TimeCategory::SystemPrefetch,
            self.params.hint_syscall_ns + self.params.hint_per_page_ns * pages_named,
        );
        // Release first: it can hand frames to the prefetch half of a
        // bundled call.
        if let Some((start, n)) = release {
            self.do_release(start, n);
        }
        if let Some((start, n)) = prefetch {
            self.do_prefetch(start, n);
        }
        self.policy_hint(prefetch, release);
        self.note_free_level();
    }

    fn do_release(&mut self, start: u64, n: u64) {
        let end = (start + n).min(self.total_pages());
        for vpage in start.min(self.total_pages())..end {
            // On a multi-tenant machine a release is advice about the
            // caller's own pages only: a hint that runs past the
            // segment boundary must not evict a neighbour.
            if !self.tenants.is_empty() && self.owner_of(vpage) != Some(self.cur_tenant) {
                continue;
            }
            self.stats.release_pages += 1;
            if self.policy_issue {
                self.stats.policy_injected_release_pages += 1;
            }
            self.settle(vpage);
            if let PageState::Resident {
                on_free_list: false,
                ..
            } = self.pages[vpage as usize].state
            {
                self.queue_on_free_list(vpage, true);
                self.stats.release_pages_effective += 1;
                self.trace_event(TraceEvent::Release {
                    page: vpage,
                    count: 1,
                });
                // A released page is still mapped, but it must not
                // filter future prefetches (reclaiming it from the free
                // list is useful work), so its bit is cleared until it
                // is re-loaded, reclaimed by a prefetch, or soft-faulted
                // back into active use.
                self.bit_out(vpage);
            }
            // In-flight and unmapped pages: release is a no-op hint.
        }
    }

    /// Drop one prefetch hint page at the arbitration gate, attributed
    /// to the current tenant's `quota` (true) or to pressure shedding
    /// (false).
    fn drop_hint(&mut self, vpage: u64, quota: bool) {
        self.stats.prefetch_pages_dropped += 1;
        let t = self.cur_tenant;
        if quota {
            self.stats.hints_dropped_quota += 1;
            self.tenants[t as usize].stats.hints_dropped_quota += 1;
            if let Some(mx) = &mut self.metrics {
                mx.ledger.dropped_quota();
            }
            self.trace_event(TraceEvent::HintDropQuota {
                page: vpage,
                tenant: t,
            });
        } else {
            self.stats.hints_dropped_pressure += 1;
            self.tenants[t as usize].stats.hints_dropped_pressure += 1;
            if let Some(mx) = &mut self.metrics {
                mx.ledger.dropped_pressure();
            }
            self.trace_event(TraceEvent::HintDropPressure {
                page: vpage,
                tenant: t,
            });
        }
        // Like a memory-pressure drop: keep the tag so a later fault on
        // the page classifies as "prefetched but lost" (Figure 4(a)).
        self.pages[vpage as usize].prefetch_tag = true;
    }

    fn do_prefetch(&mut self, start: u64, n: u64) {
        let end = (start + n).min(self.total_pages());
        let start = start.min(self.total_pages());
        // Arbitration state for this hint: the pressure level at entry,
        // the issuing tenant's policy, and (if it has a frame quota) a
        // running count of its charged frames, maintained incrementally
        // so the per-page gate stays O(1).
        let multi = !self.tenants.is_empty();
        let level = self.pressure_level();
        let spec = self.tenant_spec(self.cur_tenant);
        let mut mem_used =
            (multi && spec.memory_frames.is_some()).then(|| self.tenant_usage(self.cur_tenant));
        // Pages that need disk reads, grouped into contiguous spans.
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for vpage in start..end {
            self.stats.prefetch_pages_requested += 1;
            if self.policy_issue {
                self.stats.policy_injected_prefetch_pages += 1;
            }
            self.settle(vpage);
            match self.pages[vpage as usize].state {
                PageState::Resident {
                    on_free_list: false,
                    ..
                } => {
                    self.stats.prefetch_pages_unnecessary += 1;
                }
                PageState::Resident {
                    dirty,
                    on_free_list: true,
                    ..
                } => {
                    // Reclaim from the free list: useful work, no I/O.
                    self.reclaimable -= 1;
                    let p = &mut self.pages[vpage as usize];
                    p.state = PageState::Resident {
                        dirty,
                        referenced: true,
                        on_free_list: false,
                    };
                    p.prefetch_tag = true;
                    self.stats.prefetch_pages_reclaimed += 1;
                    self.bit_in(vpage);
                    if let Some(u) = &mut mem_used {
                        *u += 1; // free-list page back on the books
                    }
                }
                PageState::InFlight { .. } => {
                    self.stats.prefetch_pages_inflight += 1;
                }
                PageState::Unmapped => {
                    if multi {
                        let t = self.cur_tenant;
                        let inflight = self.tenants[t as usize].stats.inflight_prefetch;
                        // Pressure shedding, strictly QoS-ordered:
                        // brownout drops every non-guaranteed hint;
                        // elevation clamps best-effort pipelining.
                        let shed = match (spec.qos, level) {
                            (QosClass::Guaranteed, _) => false,
                            (_, PressureLevel::Brownout) => true,
                            (QosClass::BestEffort, PressureLevel::Elevated) => {
                                inflight >= ELEVATED_BEST_EFFORT_SLOTS
                            }
                            _ => false,
                        };
                        if shed {
                            self.drop_hint(vpage, false);
                            continue;
                        }
                        let over_slots = spec.prefetch_slots.is_some_and(|q| inflight >= q);
                        let over_mem = match (mem_used, spec.memory_frames) {
                            (Some(u), Some(q)) => u >= q.max(1),
                            _ => false,
                        };
                        if over_slots || over_mem {
                            self.drop_hint(vpage, true);
                            continue;
                        }
                    }
                    if !self.alloc_frame_prefetch() {
                        self.stats.prefetch_pages_dropped += 1;
                        if let Some(mx) = &mut self.metrics {
                            mx.ledger.dropped_no_memory();
                        }
                        self.trace_event(TraceEvent::PrefetchDrop { page: vpage });
                        // Leave any prior prefetch_tag: a dropped hint
                        // still marks the fault as "prefetched" for
                        // Figure 4(a).
                        self.pages[vpage as usize].prefetch_tag = true;
                        continue;
                    }
                    self.inflight += 1;
                    self.note_tenant_inflight(vpage, 1);
                    if let Some(info) = self.tenants.get_mut(self.cur_tenant as usize) {
                        info.stats.prefetch_pages_issued += 1;
                    }
                    if let Some(u) = &mut mem_used {
                        *u += 1;
                    }
                    self.stats.prefetch_pages_issued += 1;
                    // Span ids are allocated in page order, so a
                    // contiguous issue span holds consecutive ids (the
                    // PrefetchIssue trace event relies on this).
                    let sid = self.next_span;
                    self.next_span += 1;
                    let p = &mut self.pages[vpage as usize];
                    p.prefetch_tag = true;
                    p.span = sid;
                    // Record the issue-time environment (journal-stall
                    // count, degraded-mode epoch, redundancy flags) so
                    // a late consumption can tell interference during
                    // the flight from a plain short lead.
                    let (now, js, de) = (self.now, self.stats.journal_stalls, self.degrade_epoch);
                    let flags = if self.dead_disk.is_some() && self.parity.is_some() {
                        let mut f = ISSUE_REBUILD_ACTIVE;
                        let home = self.fs.place(self.swap, vpage).map(|(d, _)| d);
                        if home.is_ok_and(|d| self.read_goes_degraded(d, vpage)) {
                            f |= ISSUE_DEGRADED;
                        }
                        f
                    } else {
                        0
                    };
                    if let Some(mx) = &mut self.metrics {
                        mx.ledger.issued_ctx_flags(vpage, now, js, de, flags);
                    }
                    self.bit_in(vpage);
                    match spans.last_mut() {
                        Some((s, c)) if *s + *c == vpage => *c += 1,
                        _ => spans.push((vpage, 1)),
                    }
                }
            }
        }
        // Issue the disk reads: each contiguous span becomes one run per
        // disk (the striping turns k consecutive pages into <= k
        // single-positioning requests on distinct disks).
        for (span_start, count) in spans {
            let first_span = self.pages[span_start as usize].span;
            self.trace_event(TraceEvent::PrefetchIssue {
                page: span_start,
                count,
                span: first_span,
            });
            let runs = self
                .fs
                .place_run(self.swap, span_start, count)
                .expect("prefetch span inside the address space");
            for run in runs {
                // The data pages this run covers, in block order. The
                // inverse placement works in both layouts (parity
                // blocks never appear in `place_run` output); for the
                // plain layout it reproduces the historical
                // `first + i * ndisks` stride exactly.
                let pages: Vec<u64> = (0..run.nblocks)
                    .map(|i| {
                        self.fs
                            .page_at(self.swap, run.disk, run.start_block + i)
                            .expect("run inside the file")
                            .expect("placed runs cover data blocks only")
                    })
                    .collect();
                if self.parity.is_some() && self.dead_disk.is_some_and(|(d, _)| d == run.disk) {
                    // The run targets the dead slot: handle it page by
                    // page — rebuilt rows read normally from the
                    // spare, un-rebuilt rows reroute into survivor
                    // fan-outs instead of being dropped.
                    for (i, &vpage) in pages.iter().enumerate() {
                        self.prefetch_degraded_page(vpage, run.disk, run.start_block + i as u64);
                    }
                    continue;
                }
                match self.disks.try_track(
                    run.disk,
                    self.now,
                    Request::new(ReqKind::PrefetchRead, run.start_block, run.nblocks)
                        .with_tenant(self.cur_tenant)
                        .with_policy_injected(self.policy_issue),
                ) {
                    Ok(ticket) => {
                        // Every page of the run redeems one unit of the
                        // run's ticket when the request completes.
                        for &vpage in &pages {
                            self.pages[vpage as usize].state = PageState::InFlight { ticket };
                        }
                    }
                    Err(e @ IoError::DiskDead { disk: d, at }) => {
                        if self.note_disk_death(d, at) {
                            // First contact with the freshly dead disk:
                            // the spare is installed; reroute the run.
                            for (i, &vpage) in pages.iter().enumerate() {
                                self.prefetch_degraded_page(
                                    vpage,
                                    run.disk,
                                    run.start_block + i as u64,
                                );
                            }
                        } else {
                            self.drop_prefetch_run(&pages, run.disk, e);
                        }
                    }
                    Err(e) => self.drop_prefetch_run(&pages, run.disk, e),
                }
            }
        }
    }

    /// A prefetch submission covering `pages` was refused. Prefetches
    /// are hints: no retry, no surfaced error. A full queue is
    /// backpressure, dropped silently with no error counted; a power
    /// loss is latched (zombie mode takes over from here); anything
    /// else — a disk death without redundancy included — is an I/O
    /// error the run-time layer's health window will see.
    fn drop_prefetch_run(&mut self, pages: &[u64], disk: usize, e: IoError) {
        let (page, count) = (pages[0], pages.len() as u64);
        let cause = match e {
            IoError::QueueFull { .. } => {
                self.trace_event(TraceEvent::HintDropQueueFull { page, count });
                RevertCause::QueueFull
            }
            IoError::Crashed { at } => {
                self.crashed = Some(at);
                RevertCause::Crashed
            }
            _ => {
                self.stats.io_errors_observed += 1;
                self.trace_event(TraceEvent::IoError {
                    page: Some(page),
                    disk,
                });
                self.trace_event(TraceEvent::HintDropOnError { page, count });
                RevertCause::IoError
            }
        };
        for &vpage in pages {
            self.revert_prefetch_page(vpage, cause);
        }
    }

    /// Submit one prefetch page whose home block sits on the dead
    /// slot. Rebuilt rows read normally (the spare holds the block);
    /// un-rebuilt rows reroute into a survivor fan-out — the hint is
    /// still useful, it just costs `ndisks - 1` reads: the parity-
    /// block read carries the page's ticket, the sibling data reads
    /// are posted untracked to model the fan-out's queue occupancy.
    fn prefetch_degraded_page(&mut self, vpage: u64, disk: usize, block: u64) {
        let Ok(row) = self.fs.row_of(self.swap, vpage) else {
            self.revert_prefetch_page(vpage, RevertCause::IoError);
            return;
        };
        let outcome = if row < self.rebuilt_rows {
            self.disks.try_track(
                disk,
                self.now,
                Request::new(ReqKind::PrefetchRead, block, 1)
                    .with_tenant(self.cur_tenant)
                    .with_policy_injected(self.policy_issue),
            )
        } else {
            let fanout = self
                .fs
                .row_pages(self.swap, row)
                .ok()
                .zip(self.fs.parity_place(self.swap, row).ok());
            match fanout {
                Some((pages, (pd, pb))) => {
                    for p in pages {
                        if p == vpage {
                            continue;
                        }
                        if let Ok((d, b)) = self.fs.place(self.swap, p) {
                            self.post_background(d, ReqKind::PrefetchRead, b);
                        }
                    }
                    let r = self.disks.try_track(
                        pd,
                        self.now,
                        Request::new(ReqKind::PrefetchRead, pb, 1)
                            .with_tenant(self.cur_tenant)
                            .with_policy_injected(self.policy_issue),
                    );
                    if r.is_ok() {
                        self.stats.hints_rerouted_degraded += 1;
                    }
                    r
                }
                None => Err(IoError::EmptyRequest),
            }
        };
        match outcome {
            Ok(ticket) => {
                self.pages[vpage as usize].state = PageState::InFlight { ticket };
            }
            Err(e) => self.drop_prefetch_run(&[vpage], disk, e),
        }
    }

    /// Revert one admitted prefetch page whose submission was refused:
    /// it keeps its prefetch tag, so a later fault classifies as
    /// "prefetched but lost", exactly like a memory-pressure drop.
    fn revert_prefetch_page(&mut self, vpage: u64, cause: RevertCause) {
        debug_assert!(matches!(
            self.pages[vpage as usize].state,
            PageState::Unmapped
        ));
        self.inflight -= 1;
        self.note_tenant_inflight(vpage, -1);
        self.bit_out(vpage);
        self.pages[vpage as usize].span = 0;
        self.stats.prefetch_pages_issued -= 1;
        self.stats.prefetch_pages_dropped += 1;
        match cause {
            RevertCause::QueueFull => {
                self.stats.hints_dropped_queue_full += 1;
                if let Some(mx) = &mut self.metrics {
                    mx.ledger.dropped_queue_full(vpage);
                }
            }
            RevertCause::IoError => {
                self.stats.hints_dropped_on_error += 1;
                if let Some(mx) = &mut self.metrics {
                    mx.ledger.dropped_io_error(vpage);
                }
            }
            RevertCause::Crashed => {}
        }
    }

    // ------------------------------------------------------------------
    // Run control
    // ------------------------------------------------------------------

    /// Warm-start helper: make pages resident without charging any time
    /// (Figure 6's warm-started runs preload the data before timing).
    ///
    /// # Panics
    ///
    /// Panics if the preloaded range exceeds the resident limit — warm
    /// starting is only meaningful for in-core data sets.
    pub fn preload(&mut self, start_page: u64, npages: u64) {
        assert!(
            self.resident + self.inflight + npages <= self.params.resident_limit,
            "preload exceeds resident limit"
        );
        for vpage in start_page..start_page + npages {
            if matches!(self.pages[vpage as usize].state, PageState::Unmapped) {
                self.pages[vpage as usize] = Page {
                    state: PageState::Resident {
                        dirty: false,
                        referenced: true,
                        on_free_list: false,
                    },
                    prefetch_tag: false,
                    touched: true,
                    bit_noted: false,
                    span: 0,
                };
                self.resident += 1;
                self.bit_in(vpage);
            }
        }
        self.note_free_level();
    }

    /// Change the number of frames available to the application.
    ///
    /// Models a multiprogrammed environment (the paper's future work):
    /// when another application claims memory, the limit shrinks and the
    /// pageout daemon evicts down to it; when memory is returned, the
    /// limit grows again. Shrinking below the pages currently in flight
    /// takes effect as their I/O completes.
    pub fn set_resident_limit(&mut self, frames: u64) {
        let min = self.params.high_water + self.params.demand_reserve + 2;
        self.params.resident_limit = frames.max(min);
        // Evict until we fit (in-flight pages cannot be unmapped).
        let mut guard = 0;
        while self.resident + self.inflight > self.params.resident_limit
            && self.resident > 0
            && guard < 2 * self.total_pages()
        {
            if let Some(p) = self.pop_free_list() {
                self.reclaim(p);
            } else {
                self.force_evict_one();
            }
            guard += 1;
        }
        self.note_free_level();
    }

    /// Schedule future resident-limit changes, applied lazily as the
    /// simulated clock passes each `(time, frames)` entry.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is not sorted by time.
    pub fn set_pressure_schedule(&mut self, mut schedule: Vec<(Ns, u64)>) {
        assert!(
            schedule.windows(2).all(|w| w[0].0 <= w[1].0),
            "pressure schedule must be sorted by time"
        );
        schedule.reverse(); // pop from the back as time advances
        self.pressure = schedule;
        self.apply_pressure();
    }

    /// Apply any pressure-schedule entries whose time has passed.
    fn apply_pressure(&mut self) {
        while let Some(&(at, frames)) = self.pressure.last() {
            if at > self.now {
                break;
            }
            self.pressure.pop();
            self.set_resident_limit(frames);
        }
    }

    /// Clock-scan resident pages until one lands on the free list.
    fn force_evict_one(&mut self) {
        let total = self.total_pages();
        for _ in 0..2 * total {
            let v = self.clock_hand;
            self.clock_hand = (self.clock_hand + 1) % total;
            self.settle(v);
            if let PageState::Resident {
                dirty,
                referenced,
                on_free_list: false,
            } = self.pages[v as usize].state
            {
                if referenced {
                    self.pages[v as usize].state = PageState::Resident {
                        dirty,
                        referenced: false,
                        on_free_list: false,
                    };
                } else {
                    self.queue_on_free_list(v, false);
                    self.stats.daemon_evictions += 1;
                    if let Some(p) = self.pop_free_list() {
                        self.reclaim(p);
                    }
                    return;
                }
            }
        }
    }

    /// End the run: flush dirty pages and (by default) stall until the
    /// disks drain, mirroring the paper's applications writing their
    /// results back to disk. Flush failures are swallowed; callers who
    /// care about durability use [`Machine::try_finish`].
    pub fn finish(&mut self) {
        let _ = self.try_finish();
    }

    /// Like [`Machine::finish`], but reports every dirty page whose
    /// final contents did not durably reach the disks — write-backs
    /// abandoned after exhausted retries, and everything cut off by a
    /// simulated power loss — as a typed [`FlushError`] instead of
    /// dropping the information. Idempotent: a second call returns the
    /// same verdict without redoing any work.
    pub fn try_finish(&mut self) -> Result<(), FlushError> {
        if !self.finished {
            self.finished = true;
            if self.crashed.is_some() {
                self.finish_crashed();
            } else {
                self.finish_clean();
            }
            self.flush_failures.sort_unstable();
            self.flush_failures.dedup();
        }
        if self.flush_failures.is_empty() {
            Ok(())
        } else {
            Err(FlushError {
                vpages: self.flush_failures.clone(),
            })
        }
    }

    fn finish_clean(&mut self) {
        for vpage in 0..self.total_pages() {
            self.settle(vpage);
            if let PageState::Resident { dirty: true, .. } = self.pages[vpage as usize].state {
                self.writeback(vpage);
                if let PageState::Resident {
                    referenced,
                    on_free_list,
                    ..
                } = self.pages[vpage as usize].state
                {
                    self.pages[vpage as usize].state = PageState::Resident {
                        dirty: false,
                        referenced,
                        on_free_list,
                    };
                }
            }
        }
        // The final flush itself can be the submission that trips the
        // crash point: hand over to the crashed path if it did.
        if self.crashed.is_some() {
            self.finish_crashed();
            return;
        }
        // Dispatch everything still queued regardless of the stall
        // policy, so busy-time/utilization stats cover all accepted
        // work; only the *stall* is optional.
        let drain = self.disks.drain_all();
        self.settle_pending_durable(drain);
        if self.params.drain_at_exit {
            self.stall_until(drain);
            // Everything has completed: settle stragglers so frame
            // accounting ends clean.
            for vpage in 0..self.total_pages() {
                self.settle(vpage);
            }
        }
        // Close the lifecycle ledger: prefetched pages never touched by
        // now are wasted I/O, and the partition becomes total.
        if let Some(mx) = &mut self.metrics {
            mx.ledger.finalize();
        }
        self.note_free_level();
    }

    fn finish_crashed(&mut self) {
        self.resolve_crash();
        // Every page still dirty in memory never made it to disk.
        for vpage in 0..self.total_pages() {
            if let PageState::Resident { dirty: true, .. } = self.pages[vpage as usize].state {
                self.flush_failures.push(vpage);
            }
        }
        if let Some(mx) = &mut self.metrics {
            mx.ledger.finalize();
        }
        self.note_free_level();
    }

    /// Power stayed on to the end: every accepted durable write lands
    /// in full. Apply them to the durable store in issue order and
    /// retire their journal slots.
    fn settle_pending_durable(&mut self, drain: Ns) {
        if self.durable.is_none() {
            return;
        }
        for rec in std::mem::take(&mut self.wal_pending) {
            for t in [rec.desc, rec.pay, rec.data, rec.commit]
                .into_iter()
                .flatten()
            {
                let _ = self.disks.poll(t, drain);
            }
            if rec.data.is_some() {
                self.land_durable(rec.vpage, &rec.payload);
            }
            if let Some(j) = &mut self.journal {
                j.retire(rec.disk, rec.seq);
            }
            // Keep the committed record as scrubber repair state (the
            // simulator's stand-in for the journal's retired history).
            self.wal_durable.push(DurableRecord {
                seq: rec.seq,
                disk: rec.disk,
                vpage: rec.vpage,
                payload: rec.payload,
                committed: true,
            });
        }
        for w in std::mem::take(&mut self.plain_pending) {
            let _ = self.disks.poll(w.data, drain);
            self.land_durable(w.vpage, &w.payload);
        }
    }

    /// Freeze the in-flight writes into durable on-media state as of
    /// the power loss. Deferred (and idempotent) so submission paths
    /// only have to latch the crash; the heavy classification runs once,
    /// from [`Machine::try_finish`] or [`Machine::recover`].
    ///
    /// The per-disk write barrier makes each protocol stage's
    /// *effective* completion the max of its own completion and the
    /// prior stage's, so classification reduces to comparing effective
    /// times against the crash instant `T`:
    ///
    /// * seal after `T` — the intent never became durable; the home
    ///   block kept its old image (barrier): the update is discarded.
    /// * seal at/before `T`, data write still in flight — the home
    ///   block may be torn; the sealed journal payload can repair it.
    /// * data write done by `T` — the new image is durable.
    fn resolve_crash(&mut self) {
        let Some(t_crash) = self.crashed else {
            return;
        };
        if self.crash_resolved {
            return;
        }
        self.crash_resolved = true;
        let drain = self.disks.drain_all();
        let per_page = self.params.page_bytes / SECTOR_BYTES;
        let poll = |disks: &mut DiskArray, t: Option<Ticket>| -> Ns {
            t.and_then(|t| disks.poll(t, drain)).unwrap_or(Ns::MAX)
        };
        for rec in std::mem::take(&mut self.wal_pending) {
            let desc_done = poll(&mut self.disks, rec.desc);
            let pay_done = poll(&mut self.disks, rec.pay);
            let data_done = poll(&mut self.disks, rec.data);
            let commit_done = poll(&mut self.disks, rec.commit);
            let sealed_eff = desc_done.max(pay_done);
            let applied_eff = data_done.max(sealed_eff);
            let committed_eff = commit_done.max(applied_eff);
            if sealed_eff > t_crash {
                // Intent never sealed: the barrier kept the home block's
                // old image intact. The update is simply lost.
                self.crash_discarded.push(rec.vpage);
                self.flush_failures.push(rec.vpage);
                continue;
            }
            if applied_eff <= t_crash {
                // Data durably landed before the lights went out.
                if let Some(d) = &mut self.durable {
                    d.write_page(rec.vpage, &rec.payload);
                }
            } else if self.torn_writes {
                // The data write was caught mid-air: an arbitrary
                // sector prefix landed (possibly none, possibly all).
                let k = self
                    .crash_rng
                    .as_mut()
                    .expect("torn writes need the crash rng")
                    .next_below(per_page + 1);
                if let Some(d) = &mut self.durable {
                    d.tear_page(rec.vpage, &rec.payload, k);
                }
            }
            // Either way the sealed record is what a recovery scan of
            // the rings will find.
            self.wal_durable.push(DurableRecord {
                seq: rec.seq,
                disk: rec.disk,
                vpage: rec.vpage,
                payload: rec.payload,
                committed: committed_eff <= t_crash,
            });
        }
        for w in std::mem::take(&mut self.plain_pending) {
            let done = self.disks.poll(w.data, drain).unwrap_or(Ns::MAX);
            if done <= t_crash {
                if let Some(d) = &mut self.durable {
                    d.write_page(w.vpage, &w.payload);
                }
                continue;
            }
            let mut landed_fully = false;
            if self.torn_writes {
                let k = self
                    .crash_rng
                    .as_mut()
                    .expect("torn writes need the crash rng")
                    .next_below(per_page + 1);
                landed_fully = k >= per_page;
                if let Some(d) = &mut self.durable {
                    d.tear_page(w.vpage, &w.payload, k);
                }
            }
            if !landed_fully {
                self.crash_discarded.push(w.vpage);
                self.flush_failures.push(w.vpage);
            }
        }
    }

    /// Recover from a simulated power loss: scan the journal rings,
    /// replay committed-but-unapplied intents, discard torn and
    /// uncommitted updates (falling back to the last durable version),
    /// verify every page's stored checksum, resync the residency bit
    /// vector, and hand back a clean machine whose memory image is
    /// exactly the durable state. Consumes the crashed machine.
    ///
    /// On a machine that never crashed this is a no-op returning `self`
    /// and a default report.
    pub fn recover(mut self) -> (Machine, RecoveryReport) {
        let Some(t_crash) = self.crashed else {
            return (self, RecoveryReport::default());
        };
        self.resolve_crash();
        let mut durable = self.durable.take().expect("crash implies durability mode");
        let wal_durable = std::mem::take(&mut self.wal_durable);
        let discarded = std::mem::take(&mut self.crash_discarded);
        let total = self.total_pages();
        let mut report = RecoveryReport {
            crashed_at: t_crash,
            scanned_records: wal_durable.len() as u64,
            pages_discarded: discarded.len() as u64,
            ..RecoveryReport::default()
        };

        // A fresh machine: same geometry, same (deterministic) swap
        // layout, clock restarted at zero — the reboot.
        let mut m = Machine::try_new(self.params, total * self.params.page_bytes)
            .expect("the crashed machine's geometry was valid");
        if self.params.journal {
            m.journal = Some(
                WriteJournal::create(&mut m.fs, self.params.journal_blocks_per_disk)
                    .expect("journal fit before the crash, so it fits now"),
            );
        }

        // Phase 1: sequential scan of every journal ring (one read per
        // disk covering the whole ring extent).
        if let Some(j) = &m.journal {
            let mut done = 0;
            for d in 0..m.fs.ndisks() {
                let ext = j.extent(d);
                if let Ok(t) = m.disks.try_submit(
                    d,
                    m.now,
                    Request::new(ReqKind::DemandRead, ext.start, ext.len),
                ) {
                    done = done.max(t);
                }
            }
            m.stall_until(done);
        }

        // Phase 2: replay. Uncommitted sealed records must be replayed
        // (their data write may or may not have landed — the journal
        // payload is authoritative either way); committed records are
        // guaranteed applied and only need replay if verification says
        // otherwise (it never does — this is an invariant, not a
        // branch we expect to take).
        let mut replay_done = m.now;
        for rec in &wal_durable {
            if !durable.verify(rec.vpage) {
                report.torn_detected += 1;
            }
            if !rec.committed || !durable.verify(rec.vpage) {
                durable.write_page(rec.vpage, &rec.payload);
                report.pages_replayed += 1;
                if let Ok((disk, block)) = m.fs.place(m.swap, rec.vpage) {
                    if let Ok(t) =
                        m.disks
                            .try_submit(disk, m.now, Request::new(ReqKind::Write, block, 1))
                    {
                        replay_done = replay_done.max(t);
                    }
                }
            }
        }
        m.stall_until(replay_done);

        // Phase 3: full-surface verification sweep (one sequential read
        // per disk over the swap area), catching torn home blocks that
        // had no journal record — with the journal disabled, or plain
        // writes torn mid-air. No payload to repair from makes the page
        // unrecoverable: it reverts to whatever the torn image holds.
        let mut scan_done = m.now;
        let ndisks = m.fs.ndisks() as u64;
        let parity_rows = m.fs.rows(m.swap).unwrap_or(0);
        for d in 0..m.fs.ndisks() {
            // One sequential read per disk covering its swap extent:
            // plain striping puts every `ndisks`-th page on disk `d`;
            // the rotating-parity layout gives every disk exactly one
            // block (data or parity) per stripe row.
            let (disk, block, nblocks) = if parity_rows > 0 {
                // Row 0 places data page `o` on disk `o` and parity on
                // disk `ndisks - 1`, so each disk's extent start is
                // recoverable from the row-0 placements.
                let start = if d as u64 == ndisks - 1 {
                    m.fs.parity_place(m.swap, 0).map(|(_, b)| b)
                } else if (d as u64) < total {
                    m.fs.place(m.swap, d as u64).map(|(_, b)| b)
                } else {
                    continue;
                };
                match start {
                    Ok(b) => (d, b, parity_rows),
                    Err(_) => continue,
                }
            } else {
                let pages_on_disk = (total.saturating_sub(d as u64)).div_ceil(ndisks);
                if pages_on_disk == 0 {
                    continue;
                }
                match m.fs.place(m.swap, d as u64) {
                    Ok((disk, block)) => (disk, block, pages_on_disk),
                    Err(_) => continue,
                }
            };
            if let Ok(t) = m.disks.try_submit(
                disk,
                m.now,
                Request::new(ReqKind::DemandRead, block, nblocks),
            ) {
                scan_done = scan_done.max(t);
            }
        }
        m.stall_until(scan_done);
        for vpage in 0..total {
            if durable.verify(vpage) {
                continue;
            }
            report.torn_detected += 1;
            // Last committed journal payload for this page, if any.
            if let Some(rec) = wal_durable.iter().rev().find(|r| r.vpage == vpage) {
                durable.write_page(vpage, &rec.payload);
                report.pages_replayed += 1;
            } else {
                report.unrecoverable += 1;
                report.unrecoverable_pages.push(vpage);
            }
        }

        // Adopt the durable image as the reborn machine's memory state.
        m.data.copy_from_slice(durable.images());
        m.resync_bits();
        report.recovery_ns = m.now();
        m.stats.recovery_pages_replayed = report.pages_replayed;
        m.stats.recovery_pages_discarded = report.pages_discarded;
        m.stats.recovery_torn_detected = report.torn_detected;
        m.stats.recovery_unrecoverable = report.unrecoverable;
        m.stats.recovery_ns = report.recovery_ns;
        // The recovered machine keeps durability tracking (it has a
        // durable store with a settled baseline) but no scheduled
        // crash: the re-run is an ordinary one.
        m.durable = Some(durable);
        m.wal_durable = wal_durable;
        // Parity is re-derived wholesale from the recovered durable
        // image (replay may have changed any subset of rows, and a
        // crash mid-rebuild leaves no trustworthy incremental state).
        // The reboot replaced the hardware, so the array is whole.
        if let Some(ps) = &mut m.parity {
            let k = m.fs.ndisks() as u64 - 1;
            ps.resync(k, m.durable.as_ref().expect("just set").images(), total);
        }
        (m, report)
    }

    /// Background scrubber: verify the stored checksums of up to
    /// `max_pages` cold (unmapped) pages against the durable store and
    /// repair any corruption from committed journal state. Returns
    /// `(verified, repaired)`. A no-op outside durability mode or after
    /// a crash.
    pub fn scrub(&mut self, max_pages: u64) -> (u64, u64) {
        if self.crashed.is_some() || self.durable.is_none() {
            return (0, 0);
        }
        self.ensure_durable_snapshot();
        let (mut verified, mut repaired) = (0, 0);
        for vpage in 0..self.total_pages() {
            if verified >= max_pages {
                break;
            }
            if !matches!(self.pages[vpage as usize].state, PageState::Unmapped) {
                continue;
            }
            // Model the verification read; the scrubber runs in the
            // background, so nothing stalls on it.
            if let Ok((disk, block)) = self.fs.place(self.swap, vpage) {
                let _ = self.disks.try_post(
                    disk,
                    self.now,
                    Request::new(ReqKind::DemandRead, block, 1),
                );
            }
            verified += 1;
            let ok = self
                .durable
                .as_ref()
                .map(|d| d.verify(vpage))
                .unwrap_or(true);
            if ok {
                continue;
            }
            if let Some(rec) = self
                .wal_durable
                .iter()
                .rev()
                .find(|r| r.vpage == vpage && r.committed)
            {
                let payload = rec.payload.clone();
                // Plain `write_page`, not `land_durable`: the current
                // image is corrupt, so it cannot serve as the parity
                // XOR's "old" term. Restoring the committed content
                // restores the parity invariant as a side effect.
                if let Some(d) = &mut self.durable {
                    d.write_page(vpage, &payload);
                }
                if let Ok((disk, block)) = self.fs.place(self.swap, vpage) {
                    let _ =
                        self.disks
                            .try_post(disk, self.now, Request::new(ReqKind::Write, block, 1));
                }
                repaired += 1;
            }
        }
        self.stats.scrub_pages_verified += verified;
        self.stats.scrub_pages_repaired += repaired;
        (verified, repaired)
    }

    /// Test hook: flip bits in a durable page image without updating
    /// its stored checksum (latent media corruption for scrubber
    /// tests). Returns `false` outside durability mode.
    pub fn corrupt_durable_page(&mut self, vpage: u64) -> bool {
        self.ensure_durable_snapshot();
        match &mut self.durable {
            Some(d) => {
                d.corrupt(vpage);
                true
            }
            None => false,
        }
    }

    /// Test hook: flip bits in one stripe row's parity content without
    /// updating anything else — latent parity corruption that the
    /// rebuild verify sweep must catch. Returns `false` without a
    /// parity layout.
    pub fn corrupt_parity_row(&mut self, row: u64) -> bool {
        self.ensure_durable_snapshot();
        match &mut self.parity {
            Some(ps) if row < ps.rows() => {
                ps.corrupt_row(row);
                true
            }
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Online rebuild (reconstructing the dead disk onto the hot spare)
    // ------------------------------------------------------------------

    /// Advance the online rebuild, paced in simulated time. Called
    /// opportunistically from the machine's entry points (demand
    /// touches and hint calls), so rebuild traffic contends with
    /// foreground I/O on the survivors. Two bounds throttle the
    /// scrubber:
    ///
    /// * the hot spare physically serializes one row write per average
    ///   access, so the watermark never advances faster than one row
    ///   per `avg_access_ns` of simulated time (stretched 4x under
    ///   elevated pressure — the scrubber yields the spindles);
    /// * the same pressure levels that shed prefetch hints cap the
    ///   per-entry catch-up batch, and brownouts pause it entirely.
    fn pump_rebuild(&mut self) {
        let Some((dead, _)) = self.dead_disk else {
            return;
        };
        if self.parity.is_none() || self.crashed.is_some() {
            return;
        }
        self.ensure_durable_snapshot();
        let (batch, cost_mul) = match self.pressure_level() {
            PressureLevel::Nominal => (8, 1),
            PressureLevel::Elevated => (2, 4),
            PressureLevel::Brownout => (0, 0),
        };
        let row_cost = self.params.disk.avg_access_ns() * cost_mul;
        let rows = self.fs.rows(self.swap).unwrap_or(0);
        let mut done = 0;
        while done < batch
            && self.rebuilt_rows < rows
            && self.crashed.is_none()
            && self.now >= self.rebuild_next_at
        {
            let row = self.rebuilt_rows;
            self.rebuild_row(row, dead);
            self.rebuilt_rows += 1;
            self.rebuild_next_at = self.rebuild_next_at.saturating_add(row_cost);
            done += 1;
        }
        if self.rebuilt_rows >= rows {
            self.finish_rebuild_bookkeeping();
        }
    }

    /// Drive the rebuild to completion regardless of pressure (harness
    /// hook: the workload is done and the scrubber gets the array to
    /// itself). No-op when the array is healthy or power is out.
    pub fn finish_rebuild(&mut self) {
        let Some((dead, _)) = self.dead_disk else {
            return;
        };
        if self.parity.is_none() || self.crashed.is_some() {
            return;
        }
        self.ensure_durable_snapshot();
        let rows = self.fs.rows(self.swap).unwrap_or(0);
        while self.rebuilt_rows < rows && self.crashed.is_none() {
            let row = self.rebuilt_rows;
            self.rebuild_row(row, dead);
            self.rebuilt_rows += 1;
        }
        if self.rebuilt_rows >= rows {
            self.finish_rebuild_bookkeeping();
        }
    }

    fn finish_rebuild_bookkeeping(&mut self) {
        self.stats.rebuild_ns = self.now.saturating_sub(self.death_detected_at);
        self.dead_disk = None;
    }

    /// Reconstruct one stripe row's lost block onto the hot spare:
    /// post one background read per survivor block, verify the
    /// reconstruction against the durable content model's checksums,
    /// and post the write to the spare. A mismatch (latent parity
    /// corruption) is counted and the row's parity re-derived from the
    /// durable data pages, whose per-page checksums are authoritative.
    fn rebuild_row(&mut self, row: u64, dead: usize) {
        let Ok(pages) = self.fs.row_pages(self.swap, row) else {
            return;
        };
        let Ok((pd, pb)) = self.fs.parity_place(self.swap, row) else {
            return;
        };
        // Survivor reads, prefetch class: the foreground's demand
        // reads keep priority over reconstruction traffic.
        let mut lost: Option<u64> = None;
        for p in pages.clone() {
            let Ok((d, b)) = self.fs.place(self.swap, p) else {
                continue;
            };
            if d == dead {
                lost = Some(p);
                continue;
            }
            self.post_background(d, ReqKind::PrefetchRead, b);
        }
        if pd != dead {
            self.post_background(pd, ReqKind::PrefetchRead, pb);
        }
        let page_bytes = self.params.page_bytes as usize;
        if self.parity.is_none() || self.durable.is_none() {
            return;
        }
        // The authoritative parity image of this row: XOR of its
        // durable data pages (each protected by its own checksum).
        let xor = {
            let d = self.durable.as_ref().expect("checked above");
            let mut xor = vec![0u8; page_bytes];
            for p in pages.clone() {
                for (dst, src) in xor.iter_mut().zip(d.page(p)) {
                    *dst ^= src;
                }
            }
            xor
        };
        let mismatch = {
            let ps = self.parity.as_ref().expect("checked above");
            let d = self.durable.as_ref().expect("checked above");
            if pd == dead {
                // The row lost its parity block: verify the content
                // model's row checksum against the recomputation.
                page_checksum(&xor) != ps.row_checksum(row)
            } else if let Some(lp) = lost {
                // The row lost a data page: reconstruct it from the
                // survivors + parity and check it against the page's
                // stored checksum.
                let rec = ps.reconstruct(row, pages.clone(), lp, d.images());
                page_checksum(&rec) != d.stored_checksum(lp)
            } else {
                // Short final row whose dead-slot block holds neither
                // data nor parity: nothing to reconstruct.
                false
            }
        };
        if mismatch {
            self.stats.rebuild_verify_mismatches += 1;
        }
        if mismatch || pd == dead {
            // Adopt the authoritative recomputation as the row's parity
            // content: heals latent corruption, and is the freshly
            // rebuilt parity block when the parity home was the dead
            // slot (a byte-identical no-op when already clean).
            if let Some(ps) = &mut self.parity {
                let cur = ps.row(row).to_vec();
                ps.update(row, &cur, &xor);
            }
        }
        // The write that lands the reconstructed block on the spare.
        let wb = if pd == dead {
            self.stats.parity_writes += 1;
            Some(pb)
        } else {
            lost.and_then(|lp| self.fs.place(self.swap, lp).ok().map(|(_, b)| b))
        };
        if let Some(b) = wb {
            self.post_background(dead, ReqKind::Write, b);
        }
        self.stats.rebuild_rows += 1;
    }

    /// Post one background (non-stalling) request, latching crash or
    /// death signals; queue-full refusals are dropped — background
    /// traffic is timing-only.
    fn post_background(&mut self, disk: usize, kind: ReqKind, block: u64) {
        match self
            .disks
            .try_post(disk, self.now, Request::new(kind, block, 1))
        {
            Ok(()) | Err(IoError::QueueFull { .. }) => {}
            Err(IoError::Crashed { at }) => self.crashed = Some(at),
            Err(IoError::DiskDead { disk: d, at }) => {
                self.note_disk_death(d, at);
            }
            Err(_) => {}
        }
    }

    // ------------------------------------------------------------------
    // Backing data (the actual bytes of the address space)
    // ------------------------------------------------------------------

    /// Read an `f64` at `addr` without touching residency (init/verify).
    #[inline]
    pub fn peek_f64(&self, addr: u64) -> f64 {
        f64::from_le_bytes(
            self.data[addr as usize..addr as usize + 8]
                .try_into()
                .unwrap(),
        )
    }

    /// Write an `f64` at `addr` without touching residency (init only).
    #[inline]
    pub fn poke_f64(&mut self, addr: u64, v: f64) {
        self.data[addr as usize..addr as usize + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Read an `i64` at `addr` without touching residency (init/verify).
    #[inline]
    pub fn peek_i64(&self, addr: u64) -> i64 {
        i64::from_le_bytes(
            self.data[addr as usize..addr as usize + 8]
                .try_into()
                .unwrap(),
        )
    }

    /// Write an `i64` at `addr` without touching residency (init only).
    #[inline]
    pub fn poke_i64(&mut self, addr: u64, v: i64) {
        self.data[addr as usize..addr as usize + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// The touch of a timed 8-byte access: the hit test inlined into
    /// the caller, a miss the ordinary out-of-line [`Machine::touch`]
    /// (whose `Result` plumbing would otherwise be copied to every
    /// load and store of the dispatch loop, which then stops inlining
    /// them).
    #[inline]
    fn touch_word(&mut self, addr: u64, write: bool) {
        if !self.touch_is_hit(addr, 8, write) {
            self.touch(addr, 8, write);
        }
    }

    /// Timed load of an `f64`: touches the page, then reads.
    #[inline]
    pub fn load_f64(&mut self, addr: u64) -> f64 {
        self.touch_word(addr, false);
        self.peek_f64(addr)
    }

    /// Timed store of an `f64`: touches the page for write, then writes.
    #[inline]
    pub fn store_f64(&mut self, addr: u64, v: f64) {
        self.touch_word(addr, true);
        self.poke_f64(addr, v);
    }

    /// Timed load of an `i64`.
    #[inline]
    pub fn load_i64(&mut self, addr: u64) -> i64 {
        self.touch_word(addr, false);
        self.peek_i64(addr)
    }

    /// Timed store of an `i64`.
    #[inline]
    pub fn store_i64(&mut self, addr: u64, v: i64) {
        self.touch_word(addr, true);
        self.poke_i64(addr, v);
    }

    /// Copy of the raw bytes of a segment (result verification).
    pub fn snapshot(&self, seg: Segment) -> Vec<u8> {
        self.data[seg.base as usize..(seg.base + seg.bytes) as usize].to_vec()
    }

    /// Number of frames currently free (unallocated) — test hook.
    pub fn free_frames(&self) -> u64 {
        self.truly_free()
    }

    /// Number of resident pages including the free list — test hook.
    pub fn resident_pages(&self) -> u64 {
        self.resident
    }

    /// Number of pages with disk reads in flight — test hook.
    pub fn inflight_pages(&self) -> u64 {
        self.inflight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Machine {
        let mut p = MachineParams::small();
        p.resident_limit = 32;
        p.demand_reserve = 2;
        p.low_water = 4;
        p.high_water = 8;
        // 64 pages of address space.
        Machine::new(p, 64 * 4096)
    }

    #[test]
    fn page_of_shifts_by_the_validated_page_size() {
        for page_bytes in [512u64, 4096, 65536] {
            let mut p = MachineParams::small();
            p.page_bytes = page_bytes;
            p.disk.block_bytes = page_bytes;
            let m = Machine::new(p, 64 * page_bytes);
            for addr in [0, 1, page_bytes - 1, page_bytes, 63 * page_bytes + 7] {
                assert_eq!(m.page_of(addr), addr / page_bytes, "{addr} at {page_bytes}");
            }
        }
    }

    #[test]
    fn demand_read_retries_through_transient_errors() {
        let mut m = tiny();
        // Every demand read fails 50% of the time: with 6 retries the
        // probability all 64 pages give up is negligible, and retry
        // counters must show the recovery work.
        m.set_fault_plan(&FaultPlan::none(11).with_errors(0.5, 0.0, 0.0));
        for p in 0..64u64 {
            m.store_f64(p * 4096, p as f64);
        }
        let s = m.stats();
        assert!(s.io_errors_observed > 0, "errors were injected");
        assert!(s.io_retries > 0, "retries happened");
        assert!(s.io_retry_wait_ns > 0, "backoff waits charged");
        assert_eq!(m.breakdown().total(), m.now(), "ledger covers retries");
        for p in 0..64u64 {
            assert_eq!(m.peek_f64(p * 4096), p as f64, "data intact");
        }
    }

    #[test]
    fn exhausted_retries_surface_typed_error() {
        let mut p = MachineParams::small();
        p.resident_limit = 32;
        p.demand_reserve = 2;
        p.low_water = 4;
        p.high_water = 8;
        p.io_max_retries = 2;
        let mut m = Machine::new(p, 64 * 4096);
        // Permanent brownout on the whole array: the budget cannot
        // cover it, so the error must surface with context.
        m.set_fault_plan(&FaultPlan::none(3).with_brownout(oocp_disk::Brownout {
            disk: None,
            from: 0,
            until: Ns::MAX,
        }));
        match m.try_touch(0, 8, false) {
            Err(OsError::RetriesExhausted { page, attempts, .. }) => {
                assert_eq!(page, 0);
                assert!(attempts >= 1);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        // The failing page is left unmapped; frame accounting intact.
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.breakdown().total(), m.now());
    }

    #[test]
    fn brownout_window_is_waited_out() {
        let mut m = tiny();
        let until = 50 * 1_000_000; // 50 ms, well inside the 2 s budget
        m.set_fault_plan(&FaultPlan::none(5).with_brownout(oocp_disk::Brownout {
            disk: None,
            from: 0,
            until,
        }));
        m.touch(0, 8, false);
        assert!(m.now() >= until, "demand read waited out the brownout");
        assert_eq!(m.stats().hard_faults, 1);
        assert!(m.stats().io_retries >= 1);
    }

    #[test]
    fn every_submission_shape_climbs_the_same_retry_ladder() {
        type Shape = fn(&mut Machine, usize, u64) -> Result<(), OsError>;
        const PAGE: u64 = 7;
        let shapes: [(&str, Shape); 3] = [
            ("demand read", |m, d, b| {
                let req = Request::new(ReqKind::DemandRead, b, 1);
                m.submit_with_retry(d, req, PAGE).map(drop)
            }),
            ("posted write-back", |m, d, b| {
                let req = Request::new(ReqKind::Write, b, 1);
                m.submit_with_retry(d, req, PAGE).map(drop)
            }),
            ("tracked durable write", |m, d, b| {
                let req = Request::new(ReqKind::Write, b, 1);
                m.submit_tracked_with_retry(d, req, PAGE).map(drop)
            }),
        ];
        // One plan for all three: the target disk's two-slot queue is
        // full at time zero (backpressure), a brownout covers the
        // moment a slot frees (waited out), and after it every other
        // needed request fails transiently (backoff). The seed is one
        // whose first draw lets the request through to the full queue.
        let survivable =
            FaultPlan::none(5)
                .with_errors(0.5, 0.0, 0.5)
                .with_brownout(oocp_disk::Brownout {
                    disk: None,
                    from: 1,
                    until: 40 * MILLISECOND,
                });
        // Every needed request fails, so the retry count runs out.
        let hopeless = FaultPlan::none(41).with_errors(1.0, 0.0, 1.0);
        for (plan, survives) in [(survivable, true), (hopeless, false)] {
            let outcomes: Vec<_> = shapes
                .iter()
                .map(|&(name, shape)| {
                    let mut p = MachineParams::small();
                    p.sched = p.sched.with_queue_depth(2);
                    p.io_max_retries = 3;
                    let mut m = Machine::new(p, 64 * 4096);
                    m.set_fault_plan(&plan);
                    let (disk, block) = m.fs.place(m.swap, PAGE).unwrap();
                    if survives {
                        // One request on the media, two in the queue.
                        let same_disk = (PAGE + 1..64)
                            .filter_map(|v| m.fs.place(m.swap, v).ok())
                            .filter(|&(d, _)| d == disk);
                        for (d, b) in same_disk.take(3) {
                            let fill = Request::new(ReqKind::PrefetchRead, b, 1);
                            m.disks.try_track(d, 0, fill).unwrap();
                        }
                    }
                    let res = shape(&mut m, disk, block);
                    assert_eq!(res.is_ok(), survives, "{name}: {res:?}");
                    assert_eq!(m.breakdown().total(), m.now(), "{name}: waits charged");
                    let s = m.stats();
                    (
                        res.err(),
                        s.queue_full_waits,
                        s.queue_full_wait_ns,
                        s.io_errors_observed,
                        s.io_retries,
                        s.io_retry_wait_ns,
                        m.now(),
                    )
                })
                .collect();
            assert_eq!(outcomes[0], outcomes[1], "posted write vs demand read");
            assert_eq!(outcomes[0], outcomes[2], "tracked write vs demand read");
            let (err, queue_full_waits, _, _, io_retries, ..) = &outcomes[0];
            if survives {
                assert_eq!(*queue_full_waits, 1);
                assert!(*io_retries >= 2, "the brownout, then a transient error");
            } else {
                let base = MachineParams::small().io_backoff_base_ns;
                assert_eq!(
                    *err,
                    Some(OsError::RetriesExhausted {
                        last: IoError::Transient { disk: 0 },
                        attempts: 4,
                        waited_ns: 7 * base,
                        page: PAGE,
                    })
                );
            }
        }
    }

    #[test]
    fn failed_prefetch_drops_hint_silently() {
        let mut m = tiny();
        // All prefetch reads fail; demand traffic is untouched.
        m.set_fault_plan(&FaultPlan::none(17).with_errors(0.0, 1.0, 0.0));
        m.sys_prefetch(0, 8);
        let s = m.stats();
        assert_eq!(s.hints_dropped_on_error, 8);
        assert_eq!(s.prefetch_pages_issued, 0, "issues reverted to drops");
        assert_eq!(s.prefetch_pages_dropped, 8);
        assert_eq!(m.inflight_pages(), 0, "no phantom in-flight pages");
        assert_eq!(s.io_retries, 0, "hints are never retried");
        // The data is still reachable by demand faulting.
        m.store_f64(0, 2.5);
        assert_eq!(m.load_f64(0), 2.5);
        // Partition invariant survives the reverts.
        let s = m.stats();
        assert_eq!(
            s.prefetch_pages_requested,
            s.prefetch_pages_issued
                + s.prefetch_pages_unnecessary
                + s.prefetch_pages_reclaimed
                + s.prefetch_pages_inflight
                + s.prefetch_pages_dropped
        );
    }

    #[test]
    fn stale_bits_accumulate_and_resync_fixes_them() {
        let mut m = tiny();
        m.set_fault_plan(&FaultPlan::none(23).with_bitvec_staleness(1.0));
        // Touch then release pages: every release "loses" its bit clear.
        for p in 0..16u64 {
            m.touch(p * 4096, 8, false);
        }
        m.sys_release(0, 16);
        let s = m.stats();
        assert!(s.bitvec_stale_injected > 0, "desync was injected");
        // The vector still claims residency for released pages.
        assert!(m.bits().test(0), "stale bit visible before resync");
        let fixed = m.resync_bits();
        assert!(fixed > 0, "resync found stale bits");
        assert!(!m.bits().test(0), "resync cleared the stale bit");
        assert_eq!(m.stats().bitvec_resyncs, 1);
        // A second resync finds nothing.
        assert_eq!(m.resync_bits(), 0);
    }

    #[test]
    fn same_seed_fault_runs_are_identical() {
        let run = || {
            let mut m = tiny();
            m.set_fault_plan(
                &FaultPlan::none(99)
                    .with_errors(0.2, 0.2, 0.2)
                    .with_stragglers(0.2, 4.0, 1_000_000),
            );
            for p in 0..64u64 {
                m.store_f64(p * 4096, p as f64);
            }
            m.sys_prefetch(0, 32);
            m.finish();
            (
                m.now(),
                m.stats().io_errors_observed,
                m.stats().io_retries,
                m.stats().hints_dropped_on_error,
                m.disk_stats().faults_injected,
                m.disk_stats().stragglers_injected,
            )
        };
        let a = run();
        assert!(a.1 > 0 || a.4 > 0, "plan actually injected something");
        assert_eq!(a, run(), "same seed, same everything");
    }

    #[test]
    fn fresh_touch_hard_faults_and_stalls() {
        let mut m = tiny();
        assert_eq!(m.touch(0, 8, false), 1);
        let b = m.breakdown();
        assert_eq!(m.stats().hard_faults, 1);
        assert_eq!(m.stats().non_prefetched_faults, 1);
        assert!(b.sys_fault > 0, "fault overhead charged");
        assert!(b.idle > 0, "disk wait charged as idle");
        // Second touch of the same page is free.
        let before = m.now();
        assert_eq!(m.touch(0, 8, false), 0);
        assert_eq!(m.now(), before);
    }

    #[test]
    fn touch_spanning_pages_faults_each() {
        let mut m = tiny();
        let faults = m.touch(4096 - 4, 8, false);
        assert_eq!(faults, 2);
        assert_eq!(m.stats().hard_faults, 2);
    }

    #[test]
    fn prefetch_then_touch_is_a_hit() {
        let mut m = tiny();
        m.sys_prefetch(0, 1);
        assert_eq!(m.stats().prefetch_pages_issued, 1);
        assert_eq!(m.inflight_pages(), 1);
        // Give the disk time to complete by doing unrelated computation.
        m.tick_user(10 * oocp_sim::time::SECOND);
        assert_eq!(m.touch(0, 8, false), 0, "no fault after prefetch lands");
        assert_eq!(m.stats().prefetched_hits, 1);
        assert_eq!(m.stats().hard_faults, 0);
        assert_eq!(m.stats().original_faults(), 1);
    }

    #[test]
    fn late_prefetch_stalls_for_residual_only() {
        let mut m = tiny();
        // Demand-fault a reference page to measure the full latency.
        let t0 = m.now();
        m.touch(4096 * 10, 8, false);
        let full_fault = m.now() - t0;

        m.sys_prefetch(0, 1);
        // Touch immediately: the page is in flight, so we stall for the
        // residual, which must be less than a full demand fault's stall.
        let t1 = m.now();
        m.touch(0, 8, false);
        let partial = m.now() - t1;
        assert_eq!(m.stats().prefetched_faults_inflight, 1);
        assert!(m.stats().late_prefetch_stall_ns > 0);
        assert!(
            partial < full_fault,
            "residual stall {partial} should undercut full fault {full_fault}"
        );
    }

    #[test]
    fn unnecessary_prefetch_detected() {
        let mut m = tiny();
        m.touch(0, 8, false);
        m.sys_prefetch(0, 1);
        assert_eq!(m.stats().prefetch_pages_unnecessary, 1);
        assert_eq!(m.stats().prefetch_pages_issued, 0);
    }

    #[test]
    fn prefetch_of_inflight_page_not_reissued() {
        let mut m = tiny();
        m.sys_prefetch(0, 1);
        m.sys_prefetch(0, 1);
        assert_eq!(m.stats().prefetch_pages_issued, 1);
        assert_eq!(m.stats().prefetch_pages_inflight, 1);
    }

    #[test]
    fn release_moves_page_to_free_list_and_prefetch_reclaims() {
        let mut m = tiny();
        m.touch(0, 8, false);
        m.sys_release(0, 1);
        assert_eq!(m.stats().release_pages_effective, 1);
        assert!(!m.bits().test(0), "released page cleared in bit vector");
        // Prefetching it back reclaims without disk I/O.
        m.sys_prefetch(0, 1);
        assert_eq!(m.stats().prefetch_pages_reclaimed, 1);
        assert_eq!(m.stats().prefetch_pages_issued, 0);
        assert!(m.bits().test(0));
    }

    #[test]
    fn touch_of_released_page_is_soft_fault() {
        let mut m = tiny();
        m.touch(0, 8, false);
        let hard_before = m.stats().hard_faults;
        m.sys_release(0, 1);
        m.touch(0, 8, false);
        assert_eq!(m.stats().soft_faults, 1);
        assert_eq!(m.stats().hard_faults, hard_before, "no new hard fault");
    }

    #[test]
    fn release_of_dirty_page_writes_back() {
        let mut m = tiny();
        m.store_f64(0, 1.25);
        m.sys_release(0, 1);
        assert_eq!(m.stats().writebacks, 1);
        assert_eq!(m.disk_stats().writes, 1);
        // Data survives release + re-touch (non-binding semantics).
        assert_eq!(m.load_f64(0), 1.25);
    }

    #[test]
    fn prefetch_dropped_when_memory_full() {
        let mut m = tiny(); // 32 frames, reserve 2
                            // Fill memory with demand touches (they may push some pages to
                            // the free list via the daemon; consume the free list too).
        for p in 0..32 {
            m.touch(p * 4096, 8, true);
        }
        // Re-touch everything to set referenced bits, making eviction
        // reluctant, then prefetch far ahead until drops occur.
        for p in 0..32 {
            m.touch(p * 4096, 8, false);
        }
        m.sys_prefetch(40, 20);
        assert!(
            m.stats().prefetch_pages_dropped > 0,
            "prefetch into full memory must drop: {:?}",
            m.stats()
        );
    }

    #[test]
    fn dropped_prefetch_still_counts_as_prefetched_fault() {
        let mut m = tiny();
        for p in 0..32 {
            m.touch(p * 4096, 8, false);
        }
        for p in 0..32 {
            m.touch(p * 4096, 8, false);
        }
        m.sys_prefetch(40, 20);
        let dropped = m.stats().prefetch_pages_dropped;
        assert!(dropped > 0);
        // Touch the dropped pages: at least one must classify as a
        // prefetched fault (prefetched but dropped before use).
        let mut found = false;
        for vp in 40..60 {
            let lost_before = m.stats().prefetched_faults_lost;
            m.touch(vp * 4096, 8, false);
            if m.stats().prefetched_faults_lost > lost_before {
                found = true;
                break;
            }
        }
        assert!(
            found,
            "a dropped-then-touched page must classify as prefetched fault"
        );
    }

    #[test]
    fn block_prefetch_engages_multiple_disks() {
        let mut m = tiny(); // 7 disks
        m.sys_prefetch(0, 4);
        let s = m.disk_stats();
        assert_eq!(s.prefetch_reads, 4, "4 consecutive pages on 4 disks");
        assert_eq!(s.prefetch_blocks, 4);
        // All four arrive roughly in parallel: wait and touch all with
        // no hard faults.
        m.tick_user(10 * oocp_sim::time::SECOND);
        for p in 0..4 {
            assert_eq!(m.touch(p * 4096, 8, false), 0);
        }
        assert_eq!(m.stats().prefetched_hits, 4);
    }

    #[test]
    fn eviction_cycle_with_small_memory() {
        let mut m = tiny(); // 32 frames, 64 pages
                            // Stream through all 64 pages twice; must not panic and must
                            // evict.
        for round in 0..2 {
            for p in 0..64 {
                m.touch(p * 4096, 8, true);
            }
            let _ = round;
        }
        assert!(m.stats().daemon_evictions > 0);
        assert!(m.resident_pages() <= 32);
        // Second round re-faults pages evicted in the first.
        assert!(m.stats().hard_faults > 64);
    }

    #[test]
    fn time_breakdown_partitions_makespan() {
        let mut m = tiny();
        for p in 0..64 {
            m.touch(p * 4096, 8, true);
            m.tick_user(5_000);
        }
        m.sys_prefetch(0, 4);
        m.finish();
        assert_eq!(m.breakdown().total(), m.now());
    }

    #[test]
    fn finish_flushes_dirty_pages() {
        let mut m = tiny();
        m.store_f64(0, 3.0);
        m.store_f64(4096, 4.0);
        m.finish();
        assert!(m.disk_stats().writes >= 2);
        assert_eq!(m.peek_f64(0), 3.0);
    }

    #[test]
    fn preload_makes_pages_resident_for_free() {
        let mut m = tiny();
        m.preload(0, 8);
        assert_eq!(m.now(), 0);
        for p in 0..8 {
            assert_eq!(m.touch(p * 4096, 8, false), 0);
        }
        assert_eq!(m.stats().hard_faults, 0);
    }

    #[test]
    #[should_panic(expected = "preload exceeds resident limit")]
    fn preload_beyond_memory_rejected() {
        let mut m = tiny();
        m.preload(0, 64);
    }

    #[test]
    fn segments_are_page_aligned_and_disjoint() {
        let mut m = tiny();
        let a = m.alloc_segment(100);
        let b = m.alloc_segment(5000);
        assert_eq!(a.base % 4096, 0);
        assert_eq!(b.base % 4096, 0);
        assert_eq!(a.bytes, 4096);
        assert_eq!(b.bytes, 8192);
        assert!(a.base + a.bytes <= b.base);
    }

    #[test]
    fn data_roundtrip_through_paging() {
        let mut m = tiny();
        // Write all 64 pages (forcing evictions), then read back.
        for i in 0..64u64 {
            m.store_f64(i * 4096 + 16, i as f64 * 1.5);
        }
        for i in 0..64u64 {
            assert_eq!(m.load_f64(i * 4096 + 16), i as f64 * 1.5);
        }
    }

    #[test]
    fn bundled_prefetch_release_is_one_syscall() {
        let mut m = tiny();
        m.touch(0, 8, false);
        m.sys_prefetch_release(1, 2, 0, 1);
        assert_eq!(m.stats().hint_syscalls, 1);
        assert_eq!(m.stats().release_pages_effective, 1);
        assert_eq!(m.stats().prefetch_pages_issued, 2);
    }

    #[test]
    fn out_of_range_hints_are_clamped_not_fatal() {
        let mut m = tiny(); // 64 pages
        m.sys_prefetch(60, 100);
        m.sys_release(200, 5);
        assert!(m.stats().prefetch_pages_requested <= 64);
    }

    #[test]
    fn shrinking_limit_evicts_down_to_it() {
        let mut m = tiny(); // 32 frames
        for p in 0..30 {
            m.touch(p * 4096, 8, false);
        }
        assert!(m.resident_pages() >= 24);
        m.set_resident_limit(16);
        assert!(
            m.resident_pages() + m.inflight_pages() <= 16,
            "resident {} after shrink",
            m.resident_pages()
        );
        // Growing back allows refilling.
        m.set_resident_limit(32);
        for p in 0..30 {
            m.touch(p * 4096, 8, false);
        }
        assert!(m.resident_pages() <= 32);
    }

    #[test]
    fn shrink_floor_respects_watermarks() {
        let mut m = tiny(); // high_water 8, reserve 2
        m.set_resident_limit(1);
        // Clamped to high_water + reserve + 2 = 12.
        assert_eq!(m.params().resident_limit, 12);
    }

    #[test]
    fn pressure_schedule_applies_with_time() {
        let mut m = tiny();
        for p in 0..30 {
            m.touch(p * 4096, 8, false);
        }
        let t = m.now();
        m.set_pressure_schedule(vec![(t + 1_000_000, 16), (t + 2_000_000, 32)]);
        assert_eq!(m.params().resident_limit, 32, "future entries inert");
        m.tick_user(1_500_000);
        m.touch(0, 8, false); // ops apply due entries
        assert_eq!(m.params().resident_limit, 16);
        m.tick_user(1_000_000);
        m.touch(0, 8, false);
        assert_eq!(m.params().resident_limit, 32);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_pressure_schedule_rejected() {
        let mut m = tiny();
        m.set_pressure_schedule(vec![(100, 16), (50, 32)]);
    }

    #[test]
    fn data_survives_pressure_oscillation() {
        let mut m = tiny();
        for i in 0..64u64 {
            m.store_f64(i * 4096, i as f64);
        }
        m.set_resident_limit(12);
        m.set_resident_limit(32);
        for i in 0..64u64 {
            assert_eq!(m.load_f64(i * 4096), i as f64);
        }
    }

    #[test]
    fn trace_records_paging_activity_in_order() {
        let mut m = tiny();
        m.enable_trace(1024);
        m.touch(0, 8, true); // hard fault
        m.sys_prefetch(1, 2); // prefetch issue
        m.sys_release(0, 1); // release (+ writeback: page 0 is dirty)
        m.tick_user(oocp_sim::time::SECOND);
        m.touch(4096, 8, false); // arrival -> hit, no event
        let trace = m.take_trace().expect("tracing enabled");
        let recs = trace.records();
        let tags: Vec<&str> = recs.iter().map(|r| r.event.tag()).collect();
        assert!(tags.contains(&"FAULT"));
        assert!(tags.contains(&"PF"));
        assert!(tags.contains(&"REL"));
        assert!(tags.contains(&"WB"));
        // Chronological order.
        assert!(recs.windows(2).all(|w| w[0].at <= w[1].at));
        // take_trace resets but keeps tracing (page 10 was never
        // prefetched, so this is a fresh hard fault).
        m.touch(10 * 4096, 8, false);
        let t2 = m.take_trace().expect("still tracing");
        assert!(t2.records().iter().any(|r| r.event.tag() == "FAULT"));
    }

    #[test]
    fn ledger_partitions_every_prefetch_outcome() {
        let mut m = tiny();
        m.enable_metrics();
        // Timely hit: prefetch, wait, touch.
        m.sys_prefetch(0, 1);
        m.tick_user(10 * oocp_sim::time::SECOND);
        m.touch(0, 8, false);
        // Late in-flight: prefetch and touch immediately.
        m.sys_prefetch(1, 1);
        m.touch(4096, 8, false);
        let r = m.metrics_report().expect("metrics enabled");
        assert_eq!(r.ledger.timely_hits, 1);
        assert_eq!(r.ledger.late_inflight, 1);
        assert!(r.partition_ok());
        assert_eq!(r.lead_time.count(), 2, "both reads have lead times");
        assert_eq!(r.arrival_to_use.count(), 2);
        assert_eq!(r.fault_wait.count(), 1, "only the late touch stalled");
        m.finish();
        let r = m.metrics_report().unwrap();
        assert_eq!(r.ledger_open, 0, "finish closes every entry");
        assert!(r.partition_ok());
    }

    #[test]
    fn ledger_counts_drops_and_finalizes_unused() {
        let mut m = tiny();
        m.enable_metrics();
        for p in 0..32 {
            m.touch(p * 4096, 8, false);
        }
        for p in 0..32 {
            m.touch(p * 4096, 8, false);
        }
        m.sys_prefetch(40, 20); // memory full: some drop
        let r = m.metrics_report().unwrap();
        assert!(r.ledger.dropped_no_memory > 0);
        assert_eq!(
            r.ledger.dropped_no_memory,
            m.stats().prefetch_pages_dropped,
            "ledger and OsStats agree on drops"
        );
        m.finish();
        let r = m.metrics_report().unwrap();
        assert!(r.partition_ok());
        assert_eq!(
            r.ledger_entries,
            m.stats().prefetch_pages_issued + m.stats().prefetch_pages_dropped,
            "every issue decision opened exactly one entry"
        );
    }

    #[test]
    fn ledger_closes_error_dropped_hints() {
        let mut m = tiny();
        m.enable_metrics();
        m.set_fault_plan(&FaultPlan::none(17).with_errors(0.0, 1.0, 0.0));
        m.sys_prefetch(0, 8);
        m.finish();
        let r = m.metrics_report().unwrap();
        assert_eq!(r.ledger.dropped_io_error, 8);
        assert!(r.partition_ok());
    }

    #[test]
    fn attribution_partitions_elapsed_exactly() {
        let mut m = tiny();
        for p in 0..64 {
            m.touch(p * 4096, 8, true);
            m.tick_user(5_000);
        }
        m.sys_prefetch(0, 4);
        m.touch(0, 8, false); // may stall on the in-flight prefetch
        m.finish();
        let a = m.attribution();
        assert_eq!(a.total(), m.now(), "buckets sum to elapsed exactly");
        assert!(a.sums_to(m.breakdown().total(), 0.0));
        assert!(a.compute_ns > 0 && a.demand_stall_ns > 0);
    }

    #[test]
    fn metrics_are_timing_neutral() {
        let run = |metrics: bool| {
            let mut m = tiny();
            if metrics {
                m.enable_metrics();
            }
            m.set_fault_plan(&FaultPlan::none(7).with_errors(0.1, 0.1, 0.0));
            for p in 0..64u64 {
                m.store_f64(p * 4096, p as f64);
            }
            m.sys_prefetch(0, 16);
            m.sys_release(0, 8);
            m.touch(0, 8, false);
            m.finish();
            let d = m.disk_stats();
            (
                m.now(),
                m.stats().hard_faults,
                d.demand_reads + d.prefetch_reads + d.writes,
            )
        };
        assert_eq!(run(false), run(true), "metrics never perturb timing");
    }

    #[test]
    fn prefetch_trace_spans_correlate_issue_arrive_consume() {
        let mut m = tiny();
        m.enable_trace(1024);
        m.sys_prefetch(0, 2);
        m.tick_user(10 * oocp_sim::time::SECOND);
        m.touch(0, 8, false);
        m.touch(4096, 8, false);
        let trace = m.take_trace().unwrap();
        let mut issued = Vec::new();
        let mut arrived = Vec::new();
        let mut consumed = Vec::new();
        for r in trace.iter() {
            match r.event {
                TraceEvent::PrefetchIssue { span, count, .. } => issued.extend(span..span + count),
                TraceEvent::PrefetchArrive { span, arrival, .. } => {
                    assert!(arrival <= r.at, "arrival observed at or after completion");
                    arrived.push(span)
                }
                TraceEvent::PrefetchConsume { span, late, .. } => {
                    assert!(!late);
                    consumed.push(span)
                }
                _ => {}
            }
        }
        issued.sort_unstable();
        arrived.sort_unstable();
        consumed.sort_unstable();
        assert_eq!(issued, vec![1, 2]);
        assert_eq!(arrived, issued, "every span arrives");
        assert_eq!(consumed, issued, "every span is consumed");
    }

    #[test]
    fn avg_free_frames_decreases_as_memory_fills() {
        let mut m = tiny();
        let initial = m.avg_free_frames();
        for p in 0..32 {
            m.touch(p * 4096, 8, false);
        }
        m.tick_user(oocp_sim::time::SECOND);
        m.note_free_level();
        assert!(m.avg_free_frames() < initial.max(32.0));
    }

    // ------------------------------------------------------------------
    // Crash consistency
    // ------------------------------------------------------------------

    use oocp_disk::{CrashPoint, CrashSpec};

    fn crash_plan(seed: u64, point: CrashPoint, torn: bool) -> FaultPlan {
        FaultPlan::none(seed).with_crash(CrashSpec {
            point,
            torn_writes: torn,
        })
    }

    #[test]
    fn crash_latches_and_the_zombie_run_completes() {
        let mut m = tiny();
        m.set_fault_plan(&crash_plan(5, CrashPoint::AtOp(10), false));
        for p in 0..64u64 {
            m.store_f64(p * 4096, p as f64);
        }
        assert!(m.crashed_at().is_some(), "the 10th disk op tripped it");
        for p in 0..64u64 {
            assert_eq!(m.peek_f64(p * 4096), p as f64, "zombie served store {p}");
        }
        let err = m.try_finish().unwrap_err();
        assert!(!err.vpages.is_empty(), "dirty pages were cut off");
        assert!(
            err.vpages.windows(2).all(|w| w[0] < w[1]),
            "sorted and deduplicated"
        );
        // Idempotent: a second call reports the same verdict.
        assert_eq!(m.try_finish().unwrap_err(), err);
    }

    #[test]
    fn crash_during_prefetch_submission_drops_the_hint_and_latches() {
        let mut m = tiny();
        m.set_fault_plan(&crash_plan(6, CrashPoint::AtOp(2), false));
        m.touch(0, 8, false); // op 1
        m.sys_prefetch(8, 4); // one of these submissions trips the crash
        assert!(m.crashed_at().is_some());
        // Zombie mode: everything still "works", data intact.
        for p in 0..16u64 {
            m.store_f64(p * 4096, 3.0 * p as f64);
        }
        for p in 0..16u64 {
            assert_eq!(m.peek_f64(p * 4096), 3.0 * p as f64);
        }
    }

    #[test]
    fn recovery_after_torn_crash_is_exact_with_the_journal() {
        let mut m = tiny();
        // Op 100 lands among the eviction writebacks, so WAL records
        // are genuinely in flight when the power dies.
        m.set_fault_plan(&crash_plan(7, CrashPoint::AtOp(100), true));
        for p in 0..64u64 {
            m.store_f64(p * 4096, 100.0 + p as f64);
        }
        m.finish();
        let (m2, report) = m.recover();
        assert!(report.crashed_at > 0);
        assert_eq!(
            report.unrecoverable, 0,
            "the journal makes every page recoverable: {report:?}"
        );
        for p in 0..64u64 {
            let v = m2.peek_f64(p * 4096);
            assert!(
                v == 0.0 || v == 100.0 + p as f64,
                "page {p} must hold its old or new image, got {v}"
            );
        }
        assert_eq!(m2.stats().recovery_pages_replayed, report.pages_replayed);
        assert_eq!(m2.stats().recovery_pages_discarded, report.pages_discarded);
        assert_eq!(m2.stats().recovery_ns, report.recovery_ns);
        assert!(m2.now() > 0, "recovery consumed simulated time");
        assert!(m2.crashed_at().is_none(), "the recovered machine is clean");
        assert!(m2.durability_enabled());
    }

    #[test]
    fn recovery_of_an_uncrashed_machine_is_a_no_op() {
        let mut m = tiny();
        m.store_f64(0, 4.5);
        let (m2, report) = m.recover();
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(m2.peek_f64(0), 4.5);
    }

    #[test]
    fn torn_writes_without_a_journal_lose_data() {
        let mut p = MachineParams::small();
        p.resident_limit = 32;
        p.demand_reserve = 2;
        p.low_water = 4;
        p.high_water = 8;
        p.journal = false;
        let mut m = Machine::new(p, 64 * 4096);
        m.set_fault_plan(&crash_plan(21, CrashPoint::AtOp(100), true));
        for page in 0..64u64 {
            m.store_f64(page * 4096, 7.0 + page as f64);
        }
        m.finish();
        let (_, report) = m.recover();
        assert!(report.torn_detected > 0, "a torn home block was found");
        assert!(
            report.unrecoverable > 0,
            "without WAL there is no payload to repair from: {report:?}"
        );
        assert_eq!(
            report.unrecoverable_pages.len() as u64,
            report.unrecoverable
        );
    }

    #[test]
    fn full_journal_ring_stalls_and_retires_in_order() {
        let mut p = MachineParams::small();
        p.resident_limit = 32;
        p.demand_reserve = 2;
        p.low_water = 4;
        p.high_water = 8;
        p.journal_blocks_per_disk = 2; // one record slot per disk
        let mut m = Machine::new(p, 64 * 4096);
        // Durability mode with a crash point that never trips.
        m.set_fault_plan(&crash_plan(3, CrashPoint::AtOp(u64::MAX), false));
        for page in 0..64u64 {
            m.store_f64(page * 4096, page as f64);
        }
        m.try_finish().expect("no crash fires, everything flushes");
        let s = *m.stats();
        assert!(s.journal_appends > 0);
        assert!(s.journal_stalls > 0, "1-slot rings must force retirement");
    }

    #[test]
    fn crash_at_time_zero_discards_everything_but_recovers_the_baseline() {
        let mut m = tiny();
        m.set_fault_plan(&crash_plan(13, CrashPoint::AtTime(0), false));
        for p in 0..8u64 {
            m.store_f64(p * 4096, 9.0);
        }
        assert_eq!(m.crashed_at(), Some(0));
        m.finish();
        let (m2, report) = m.recover();
        assert_eq!(report.unrecoverable, 0);
        for p in 0..8u64 {
            assert_eq!(m2.peek_f64(p * 4096), 0.0, "baseline image restored");
        }
    }

    #[test]
    fn scrubber_detects_and_repairs_latent_corruption() {
        let mut m = tiny();
        m.set_fault_plan(&crash_plan(9, CrashPoint::AtOp(u64::MAX), false));
        for page in 0..64u64 {
            m.store_f64(page * 4096, page as f64);
        }
        m.try_finish().expect("clean durable run");
        for page in 0..64u64 {
            assert!(m.corrupt_durable_page(page));
        }
        let (verified, repaired) = m.scrub(u64::MAX);
        assert!(verified > 0, "cold pages were verified");
        assert!(repaired > 0, "journal state repaired corrupt pages");
        assert_eq!(m.stats().scrub_pages_verified, verified);
        assert_eq!(m.stats().scrub_pages_repaired, repaired);
    }

    #[test]
    fn pressure_storm_from_edge_is_inclusive_and_zero_length_nets_out() {
        // A storm whose window is [from, until): the limit lands at
        // `from` itself (inclusive) ...
        let mut m = tiny();
        m.set_fault_plan(
            &FaultPlan::none(1).with_pressure_storm(oocp_disk::PressureStorm {
                from: 0,
                until: Ns::MAX,
                limit_frames: 16,
            }),
        );
        assert_eq!(m.params().resident_limit, 16, "limit applies at t == from");
        // ... and a zero-length storm nets out to the restore (the
        // restore entry is sorted stably after the limit entry).
        let mut m2 = tiny();
        m2.set_fault_plan(
            &FaultPlan::none(1).with_pressure_storm(oocp_disk::PressureStorm {
                from: 0,
                until: 0,
                limit_frames: 16,
            }),
        );
        assert_eq!(
            m2.params().resident_limit,
            32,
            "zero-length storm has no lasting effect"
        );
    }

    #[test]
    fn pressure_storm_restores_at_until() {
        let mut m = tiny();
        m.set_fault_plan(
            &FaultPlan::none(1).with_pressure_storm(oocp_disk::PressureStorm {
                from: 500,
                until: 1000,
                limit_frames: 16,
            }),
        );
        assert_eq!(m.params().resident_limit, 32, "before the storm");
        m.tick_user(500); // now == from: inclusive edge
        m.touch(0, 8, false);
        assert_eq!(m.params().resident_limit, 16, "inside the window");
        // The fault above pushed `now` far past `until`; the next
        // hint/touch applies the restore entry.
        m.touch(4096, 8, false);
        assert_eq!(m.params().resident_limit, 32, "restored at t >= until");
    }

    // --------------------------------------------------------------
    // Multi-tenant machine
    // --------------------------------------------------------------

    /// A tiny machine with one 16-page tenant per spec.
    fn multi(specs: &[TenantSpec]) -> (Machine, Vec<Segment>) {
        let mut m = tiny();
        let segs = specs
            .iter()
            .map(|s| m.register_tenant(*s, 16 * 4096).1)
            .collect();
        (m, segs)
    }

    #[test]
    fn tenant_registration_partitions_the_address_space() {
        let (m, segs) = multi(&[
            TenantSpec::unlimited(),
            TenantSpec::unlimited().with_qos(QosClass::BestEffort),
        ]);
        assert_eq!(m.tenant_count(), 2);
        assert_eq!(segs[0].base, 0);
        assert_eq!(segs[1].base, segs[0].bytes, "segments are disjoint");
        assert_eq!(m.cur_tenant(), 0);
        assert_eq!(m.tenant_spec(0).qos, QosClass::Guaranteed);
        assert_eq!(m.tenant_spec(1).qos, QosClass::BestEffort);
        // Out-of-range lookups read as the implicit unlimited tenant.
        assert_eq!(m.tenant_spec(9).memory_frames, None);
    }

    #[test]
    fn tenant_residency_bits_are_private() {
        let (mut m, segs) = multi(&[TenantSpec::unlimited(), TenantSpec::unlimited()]);
        m.set_tenant(0);
        m.touch(segs[0].base, 8, true);
        m.set_tenant(1);
        m.touch(segs[1].base, 8, true);
        let p0 = segs[0].base / 4096;
        let p1 = segs[1].base / 4096;
        assert!(m.tenant_bits_of(0).test(p0));
        assert!(!m.tenant_bits_of(0).test(p1), "t0 never sees t1's pages");
        assert!(m.tenant_bits_of(1).test(p1));
        assert!(!m.tenant_bits_of(1).test(p0), "t1 never sees t0's pages");
        // The shared vector still sees both.
        assert!(m.bits().test(p0) && m.bits().test(p1));
    }

    #[test]
    fn policy_pause_applies_to_the_solo_machine_only() {
        // Sequential cold faults are what the readahead policy reacts to.
        let walk = |m: &mut Machine, from: u64| {
            for p in from..from + 12 {
                m.touch(p * 4096, 8, false);
            }
            m.stats().policy_injected_prefetch_pages
        };
        let readahead = || {
            let p = MachineParams::small().with_prefetch_policy(oocp_policy::PolicyKind::Readahead);
            Machine::new(p, 64 * 4096)
        };

        let mut solo = readahead();
        solo.set_policy_enabled(false);
        assert_eq!(walk(&mut solo, 0), 0, "paused: the policy sees nothing");
        solo.set_policy_enabled(true);
        assert!(walk(&mut solo, 16) > 0, "resumed");

        // With a tenant registered the pause would silence the policy
        // for every neighbour, so the call is a no-op.
        let mut shared = readahead();
        shared.register_tenant(TenantSpec::unlimited(), 16 * 4096);
        shared.set_policy_enabled(false);
        assert!(walk(&mut shared, 0) > 0, "ignored with tenants registered");
    }

    #[test]
    fn prefetch_slot_quota_drops_excess_hints() {
        let (mut m, segs) = multi(&[
            TenantSpec::unlimited().with_prefetch_slots(2),
            TenantSpec::unlimited(),
        ]);
        m.set_tenant(0);
        m.sys_prefetch(segs[0].base / 4096, 8);
        let s = m.stats();
        assert_eq!(s.prefetch_pages_issued, 2, "quota admits two in flight");
        assert_eq!(s.hints_dropped_quota, 6, "the rest drop with reason quota");
        assert_eq!(s.hints_dropped_pressure, 0);
        let ts = m.tenant_stats(0);
        assert_eq!(ts.hints_dropped_quota, 6);
        assert_eq!(ts.inflight_prefetch, 2);
        assert_eq!(m.tenant_stats(1).hints_dropped_quota, 0);
        // Partition invariant survives the quota path.
        assert_eq!(
            s.prefetch_pages_requested,
            s.prefetch_pages_issued
                + s.prefetch_pages_unnecessary
                + s.prefetch_pages_reclaimed
                + s.prefetch_pages_inflight
                + s.prefetch_pages_dropped
        );
    }

    #[test]
    fn brownout_sheds_non_guaranteed_hints_only() {
        let (mut m, segs) = multi(&[
            TenantSpec::unlimited(),
            TenantSpec::unlimited().with_qos(QosClass::BestEffort),
        ]);
        // The guaranteed tenant saturates memory with in-flight
        // prefetches: the pool drains to the demand reserve (2), under
        // the low watermark (4) -- a brownout.
        m.set_tenant(0);
        m.sys_prefetch(segs[0].base / 4096, 16);
        m.sys_prefetch(32, 14); // overflow into unowned address space
        assert_eq!(m.pressure_level(), PressureLevel::Brownout);
        // A best-effort hint is shed before touching memory at all.
        m.set_tenant(1);
        let before = *m.stats();
        m.sys_prefetch(segs[1].base / 4096, 4);
        let s = m.stats();
        assert_eq!(s.hints_dropped_pressure - before.hints_dropped_pressure, 4);
        assert_eq!(m.tenant_stats(1).hints_dropped_pressure, 4);
        assert_eq!(m.tenant_stats(1).inflight_prefetch, 0, "nothing issued");
        // A guaranteed hint is never shed: it falls through to the
        // ordinary no-memory drop instead.
        m.set_tenant(0);
        let before = *m.stats();
        m.sys_prefetch(segs[0].base / 4096, 16);
        let s = m.stats();
        assert_eq!(
            s.hints_dropped_pressure, before.hints_dropped_pressure,
            "guaranteed hints are not shed"
        );
        assert_eq!(s.hints_dropped_quota, before.hints_dropped_quota);
    }

    #[test]
    fn memory_quota_tenant_recycles_its_own_frames() {
        let (mut m, segs) = multi(&[
            TenantSpec::unlimited().with_memory_frames(4),
            TenantSpec::unlimited(),
        ]);
        // The unlimited tenant fills its working set first.
        m.set_tenant(1);
        for p in 0..16u64 {
            m.store_f64(segs[1].base + p * 4096, p as f64);
        }
        assert_eq!(m.tenant_usage(1), 16);
        // The quota'd tenant walks its whole segment: every fault past
        // the quota recycles one of its *own* frames.
        m.set_tenant(0);
        for p in 0..16u64 {
            m.store_f64(segs[0].base + p * 4096, p as f64);
            assert!(m.tenant_usage(0) <= 4, "usage capped at the quota");
        }
        assert!(m.tenant_stats(0).quota_evictions >= 12);
        assert_eq!(m.tenant_usage(1), 16, "the neighbour lost nothing");
        for p in 0..16u64 {
            assert_eq!(m.peek_f64(segs[1].base + p * 4096), p as f64);
            assert_eq!(m.peek_f64(segs[0].base + p * 4096), p as f64);
        }
    }

    #[test]
    fn quota_of_one_frame_still_terminates() {
        let (mut m, segs) = multi(&[TenantSpec::unlimited().with_memory_frames(0)]);
        // Even a zero quota is clamped to one frame: progress, not
        // livelock, one fault per touch.
        m.set_tenant(0);
        for p in 0..16u64 {
            m.store_f64(segs[0].base + p * 4096, p as f64);
        }
        for p in 0..16u64 {
            assert_eq!(m.peek_f64(segs[0].base + p * 4096), p as f64);
        }
        assert!(m.tenant_stats(0).quota_evictions >= 15);
    }

    #[test]
    fn touch_nb_blocked_then_idle_matches_blocking_touch() {
        // The hub's non-blocking demand path must account identically
        // to the classic blocking path when driven solo.
        let mut a = tiny();
        let mut b = tiny();
        let drive = |m: &mut Machine, addr: u64, write: bool| loop {
            match m.touch_nb(addr, 8, write).unwrap() {
                Touch::Done { .. } => break,
                Touch::Blocked { until } => m.advance_idle_to(until),
            }
        };
        a.enable_metrics();
        b.enable_metrics();
        // Pages 0..8 are touched while their prefetch is still in
        // flight (the late case), 8..24 fault cold.
        a.sys_prefetch(0, 8);
        b.sys_prefetch(0, 8);
        for p in 0..24u64 {
            a.touch(p * 4096, 8, p % 2 == 0);
            drive(&mut b, p * 4096, p % 2 == 0);
        }
        assert_eq!(a.now(), b.now(), "clocks agree");
        assert!(a.stats().prefetched_faults_inflight > 0, "late case ran");
        assert!(a.stats().non_prefetched_faults > 0, "cold case ran");
        assert_eq!(a.stats(), b.stats(), "every counter identical");
        assert_eq!(a.breakdown(), b.breakdown(), "attribution identical");
        // The ledger names the same late cause for every late page.
        let (ra, rb) = (a.metrics_report().unwrap(), b.metrics_report().unwrap());
        assert_eq!(ra.whylate, rb.whylate);
        assert_eq!(ra.ledger, rb.ledger);
    }

    // ------------------------------------------------------------------
    // Redundancy: rotating parity, degraded reads, online rebuild
    // ------------------------------------------------------------------

    fn tiny_parity() -> Machine {
        let mut p = MachineParams::small();
        p.resident_limit = 32;
        p.demand_reserve = 2;
        p.low_water = 4;
        p.high_water = 8;
        p.redundancy = Redundancy::Parity;
        Machine::new(p, 64 * 4096)
    }

    /// Write then fully re-read the address space through the paging
    /// paths, round-tripping every byte.
    fn exercise(m: &mut Machine) {
        for p in 0..64u64 {
            m.store_f64(p * 4096, p as f64 + 0.25);
        }
        m.sys_prefetch(0, 16);
        for p in 0..64u64 {
            assert_eq!(m.load_f64(p * 4096), p as f64 + 0.25, "page {p} intact");
        }
    }

    #[test]
    fn parity_mode_without_faults_roundtrips() {
        let mut m = tiny_parity();
        exercise(&mut m);
        assert!(m.try_finish().is_ok());
        assert_eq!(m.stats().degraded_reads, 0);
        assert_eq!(m.breakdown().total(), m.now());
    }

    #[test]
    fn disk_death_with_parity_serves_degraded_and_rebuilds() {
        let mut m = tiny_parity();
        m.set_fault_plan(
            &FaultPlan::none(7).with_disk_death(oocp_disk::DiskDeath { disk: 1, at: 1 }),
        );
        exercise(&mut m);
        let s = m.stats();
        assert!(s.degraded_reads > 0, "dead-disk pages were reconstructed");
        assert!(s.degraded_read_ns > 0, "reconstruction cost real time");
        assert!(s.rebuild_rows > 0, "the online rebuild made progress");
        m.finish_rebuild();
        assert!(!m.degraded_active(), "rebuild completed");
        let (done, total) = m.rebuild_progress();
        assert_eq!(done, total);
        assert_eq!(m.stats().rebuild_verify_mismatches, 0, "clean verify");
        // Data still bit-exact after losing a whole disk.
        for p in 0..64u64 {
            assert_eq!(m.peek_f64(p * 4096), p as f64 + 0.25);
        }
        assert!(m.try_finish().is_ok());
        assert_eq!(m.breakdown().total(), m.now());
    }

    #[test]
    fn disk_death_without_redundancy_surfaces_typed_loss() {
        let mut m = tiny();
        m.set_fault_plan(
            &FaultPlan::none(7).with_disk_death(oocp_disk::DiskDeath { disk: 1, at: 1 }),
        );
        for p in 0..64u64 {
            m.poke_f64(p * 4096, 1.0);
        }
        let mut lost = None;
        for p in 0..64u64 {
            if let Err(e) = m.try_touch(p * 4096, 8, false) {
                lost = Some(e);
                break;
            }
        }
        match lost {
            Some(OsError::DiskLost { disk, .. }) => assert_eq!(disk, 1),
            other => panic!("expected DiskLost, got {other:?}"),
        }
        assert!(format!("{}", lost.unwrap()).contains("no redundancy: data lost"));
    }

    #[test]
    fn prefetch_hints_reroute_around_the_dead_disk() {
        let mut m = tiny_parity();
        m.set_fault_plan(
            &FaultPlan::none(9).with_disk_death(oocp_disk::DiskDeath { disk: 0, at: 1 }),
        );
        // First contact with the dead disk happens *inside* the hint
        // path, before any rebuild progress: the runs aimed at the dead
        // slot must reroute into survivor fan-outs, not drop.
        m.sys_prefetch(0, 28);
        assert!(m.degraded_active(), "hint path latched the death");
        let s = m.stats();
        assert!(
            s.hints_rerouted_degraded > 0,
            "hints to the dead disk rerouted, not dropped"
        );
        assert_eq!(s.hints_dropped_on_error, 0, "reroute is not a drop");
        for p in 0..28u64 {
            m.touch(p * 4096, 8, false);
        }
    }

    #[test]
    fn corrupt_parity_is_caught_and_healed_by_rebuild_verify() {
        let mut m = tiny_parity();
        for p in 0..64u64 {
            m.store_f64(p * 4096, p as f64);
        }
        // Latent corruption planted while the array is healthy...
        assert!(m.corrupt_parity_row(0), "hook needs a parity layout");
        assert!(m.corrupt_parity_row(3));
        // ...then a disk dies and the rebuild's verify sweep runs over
        // every stripe row on its way to the spare.
        m.set_fault_plan(
            &FaultPlan::none(13).with_disk_death(oocp_disk::DiskDeath { disk: 2, at: 1 }),
        );
        m.touch(2 * 4096, 8, false); // page 2 lives on disk 2: trips detection
        m.finish_rebuild();
        assert!(!m.degraded_active());
        assert_eq!(
            m.stats().rebuild_verify_mismatches,
            2,
            "both corrupted rows detected"
        );
        // Healed: the rebuild re-derived parity from the durable pages,
        // and the data itself is untouched by the corruption.
        for p in 0..64u64 {
            assert_eq!(m.peek_f64(p * 4096), p as f64);
        }
    }

    #[test]
    fn hedged_reads_fire_under_tail_latency() {
        // The hedge deadline is the p99 of observed fault waits, so the
        // run first builds that history on a healthy array, then loses
        // a disk: demand reads contending with rebuild fan-out blow the
        // healthy-era p99 and race a speculative alternative.
        let mut p = MachineParams::small();
        p.resident_limit = 64;
        p.demand_reserve = 2;
        p.low_water = 4;
        p.high_water = 8;
        p.redundancy = Redundancy::Parity;
        let mut m = Machine::new(p, 512 * 4096);
        m.enable_metrics();
        for p in 0..512u64 {
            m.store_f64(p * 4096, p as f64);
        }
        let death = oocp_disk::DiskDeath {
            disk: 1,
            at: m.now() + 1,
        };
        m.set_fault_plan(&FaultPlan::none(21).with_disk_death(death));
        for p in 0..512u64 {
            assert_eq!(m.load_f64(p * 4096), p as f64);
        }
        assert!(m.stats().hedged_reads > 0, "deadline misses hedged");
        assert!(
            m.stats().hedged_wins <= m.stats().hedged_reads,
            "wins bounded by attempts"
        );
    }

    #[test]
    fn plain_machine_is_bitwise_unaffected_by_redundancy_code() {
        // A plain-mode machine must be bit-identical whether or not
        // the parity subsystem exists: same clock, same stats, same
        // breakdown for the same access pattern.
        let mut a = tiny();
        let mut b = tiny();
        for m in [&mut a, &mut b] {
            for p in 0..64u64 {
                m.store_f64(p * 4096, p as f64);
            }
            m.sys_prefetch(0, 32);
            for p in 0..64u64 {
                m.load_f64(p * 4096);
            }
            m.finish();
        }
        assert_eq!(a.now(), b.now());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.breakdown(), b.breakdown());
    }

    // ------------------------------------------------------------------
    // Resident-hit fast path
    // ------------------------------------------------------------------

    /// One step of the differential driver.
    #[derive(Clone, Copy, Debug)]
    enum DiffOp {
        Load {
            addr: u64,
            int: bool,
        },
        Store {
            addr: u64,
            int: bool,
            bits: u64,
        },
        Touch {
            addr: u64,
            len: u64,
            write: bool,
        },
        TouchNb {
            addr: u64,
            len: u64,
            write: bool,
        },
        Prefetch {
            page: u64,
            n: u64,
        },
        Release {
            page: u64,
            n: u64,
        },
        PrefetchRelease {
            pf: u64,
            pf_n: u64,
            rel: u64,
            rel_n: u64,
        },
        Tick {
            ns: Ns,
        },
        Tenant {
            t: TenantId,
        },
    }

    impl DiffOp {
        /// The demand access this op makes, if it makes one.
        fn access(self) -> Option<(u64, u64, bool)> {
            match self {
                DiffOp::Load { addr, .. } => Some((addr, 8, false)),
                DiffOp::Store { addr, .. } => Some((addr, 8, true)),
                DiffOp::Touch { addr, len, write } | DiffOp::TouchNb { addr, len, write } => {
                    Some((addr, len, write))
                }
                _ => None,
            }
        }

        /// A seeded op over `pages` pages of `page_bytes`: a small
        /// working set that stays hot, a uniform tail that cycles the
        /// clock hand and the pageout daemon, and aligned, unaligned
        /// and page-straddling offsets.
        fn random(rng: &mut SimRng, pages: u64, page_bytes: u64, tenants: u64) -> Self {
            let page = if rng.next_below(10) < 6 {
                rng.next_below(6)
            } else {
                rng.next_below(pages - 1)
            };
            let addr = page * page_bytes
                + match rng.next_below(4) {
                    0 | 1 => 8 * rng.next_below(page_bytes / 8),
                    2 => rng.next_below(page_bytes - 8),
                    _ => page_bytes - 1 - rng.next_below(7),
                };
            let write = rng.next_below(3) == 0;
            let int = rng.next_below(2) == 0;
            match rng.next_below(20) {
                0..=4 => DiffOp::Load { addr, int },
                5..=7 => DiffOp::Store {
                    addr,
                    int,
                    bits: rng.next_below(1 << 40),
                },
                8..=9 => DiffOp::Touch {
                    addr,
                    len: rng
                        .next_below(2 * page_bytes)
                        .min((pages - page - 1) * page_bytes),
                    write,
                },
                10 => DiffOp::TouchNb {
                    addr,
                    len: 8,
                    write,
                },
                11..=12 => DiffOp::Prefetch {
                    page: rng.next_below(pages),
                    n: 1 + rng.next_below(6),
                },
                13 => DiffOp::Release {
                    page: rng.next_below(pages),
                    n: 1 + rng.next_below(4),
                },
                14 => DiffOp::PrefetchRelease {
                    pf: rng.next_below(pages),
                    pf_n: 1 + rng.next_below(4),
                    rel: rng.next_below(pages),
                    rel_n: 1 + rng.next_below(4),
                },
                15..=18 => DiffOp::Tick {
                    ns: [100, 5_000, 200_000, 5_000_000, 60_000_000][rng.next_below(5) as usize],
                },
                _ => DiffOp::Tenant {
                    t: rng.next_below(tenants) as TenantId,
                },
            }
        }

        /// Run the op; `slow` sends its demand access around the fast
        /// path. The value is whatever the op reports (loaded bits,
        /// fault count).
        fn apply(self, m: &mut Machine, slow: bool) -> Result<u64, OsError> {
            match self {
                DiffOp::Load { addr, int } if slow => {
                    m.try_touch_miss(addr, 8, false)?;
                    return Ok(if int {
                        m.peek_i64(addr) as u64
                    } else {
                        m.peek_f64(addr).to_bits()
                    });
                }
                DiffOp::Load { addr, int: true } => return Ok(m.load_i64(addr) as u64),
                DiffOp::Load { addr, int: false } => return Ok(m.load_f64(addr).to_bits()),
                DiffOp::Store { addr, int, bits } if slow => {
                    m.try_touch_miss(addr, 8, true)?;
                    if int {
                        m.poke_i64(addr, bits as i64);
                    } else {
                        m.poke_f64(addr, f64::from_bits(bits));
                    }
                }
                DiffOp::Store {
                    addr,
                    int: true,
                    bits,
                } => m.store_i64(addr, bits as i64),
                DiffOp::Store {
                    addr,
                    int: false,
                    bits,
                } => m.store_f64(addr, f64::from_bits(bits)),
                DiffOp::Touch { addr, len, write } if slow => {
                    return m.try_touch_miss(addr, len, write)
                }
                DiffOp::Touch { addr, len, write } => return m.try_touch(addr, len, write),
                DiffOp::TouchNb { addr, len, write } => loop {
                    let r = if slow {
                        m.touch_nb_miss(addr, len, write)
                    } else {
                        m.touch_nb(addr, len, write)
                    };
                    match r? {
                        Touch::Done { faults } => return Ok(faults),
                        Touch::Blocked { until } => m.advance_idle_to(until),
                    }
                },
                DiffOp::Prefetch { page, n } => m.sys_prefetch(page, n),
                DiffOp::Release { page, n } => m.sys_release(page, n),
                DiffOp::PrefetchRelease {
                    pf,
                    pf_n,
                    rel,
                    rel_n,
                } => m.sys_prefetch_release(pf, pf_n, rel, rel_n),
                DiffOp::Tick { ns } => m.tick_user(ns),
                DiffOp::Tenant { t } => m.set_tenant(t),
            }
            Ok(0)
        }
    }

    /// Everything two machines fed the same ops must agree on. `deep`
    /// adds what is too long to walk after every op: the whole trace,
    /// the histograms, the sampler's ring.
    fn assert_same_machine(a: &mut Machine, b: &mut Machine, deep: bool, ctx: &str) {
        macro_rules! same {
            ($what:literal, $of:expr) => {{
                let of = $of;
                assert_eq!(of(&*a), of(&*b), "{}: {} differ", ctx, $what);
            }};
        }
        same!("now()", |m: &Machine| m.now);
        same!("breakdown()", |m: &Machine| m.breakdown);
        same!("stats()", |m: &Machine| m.stats);
        same!("frame counts", |m: &Machine| (
            m.resident,
            m.inflight,
            m.reclaimable,
            m.clock_hand,
            m.params.resident_limit
        ));
        assert!(a.pages == b.pages, "{ctx}: page tables differ");
        assert!(a.free_list == b.free_list, "{ctx}: free lists differ");
        assert!(a.bits == b.bits, "{ctx}: residency bits differ");
        assert!(a.tenant_bits == b.tenant_bits, "{ctx}: tenant bits differ");
        assert!(*a.data == *b.data, "{ctx}: data images differ");
        same!("tenant stats", |m: &Machine| m
            .tenants
            .iter()
            .map(|t| (t.stats, t.hand))
            .collect::<Vec<_>>());
        same!("pressure schedule", |m: &Machine| m.pressure.clone());
        same!("crash state", |m: &Machine| (m.crashed, m.crash_resolved));
        same!("dead disk and rebuild", |m: &Machine| (
            m.dead_disk,
            m.rebuilt_rows,
            m.rebuild_next_at
        ));
        assert!(
            a.durable.as_ref().map(DurableStore::images)
                == b.durable.as_ref().map(DurableStore::images),
            "{ctx}: durable stores differ"
        );
        same!("MachineProf call counts", |m: &Machine| m
            .host_prof
            .map(|p| p.rows().map(|(_, _, n)| n).collect::<Vec<_>>()));
        same!("trace length", |m: &Machine| m.trace.as_ref().map(|t| (
            t.len(),
            t.dropped(),
            t.iter().last().copied()
        )));
        same!("ledger", |m: &Machine| m.metrics.as_ref().map(|x| (
            *x.ledger.counts(),
            x.ledger.entries(),
            x.ledger.open_entries(),
            x.fault_wait.count()
        )));
        same!("sampler rows", |m: &Machine| m
            .sampler
            .as_ref()
            .map(|s| (s.ring.len(), s.next_due)));
        if deep {
            same!("trace", |m: &Machine| m.trace.as_ref().map(Trace::records));
            same!("metrics report", |m: &Machine| format!(
                "{:?}",
                m.metrics_report()
            ));
            same!("disk stats", |m: &Machine| format!("{:?}", m.disk_stats()));
            let ring = |m: &mut Machine| {
                m.sampler_output()
                    .map(|(reg, ring)| format!("{reg:?} {ring:?}"))
            };
            assert_eq!(ring(a), ring(b), "{ctx}: sampler output differs");
        }
    }

    /// What one arm of the differential test left behind.
    struct DiffRun {
        /// Accesses the fast path answered on the machine that has one.
        hits: u64,
        fast: Machine,
    }

    /// Drive two machines built by `make` with the same seeded ops, one
    /// through the public entries and one around the fast path, and
    /// compare them after every op and once more after `try_finish`.
    fn fast_path_matches_slow_path(arm: &str, make: fn() -> Machine) -> DiffRun {
        const OPS: u64 = 4_000;
        let (mut a, mut b) = (make(), make());
        let (pages, page_bytes) = (a.total_pages(), a.params.page_bytes);
        let tenants = a.tenant_count() as u64;
        let mut rng = SimRng::new(0xD1FF ^ arm.len() as u64);
        for m in [&mut a, &mut b] {
            // Untimed input data, so a durable baseline taken late is
            // not the one taken on time; a warm start, so the very
            // first access can already be hot.
            for w in 0..pages * page_bytes / 8 {
                m.poke_i64(w * 8, (w * 31) as i64);
            }
            m.preload(0, 4);
        }
        let mut hits = 0;
        for i in 0..OPS {
            let op = DiffOp::random(&mut rng, pages, page_bytes, tenants);
            let hit = op
                .access()
                .is_some_and(|(addr, len, write)| a.touch_is_hit(addr, len, write));
            hits += u64::from(hit);
            let ctx = format!("{arm}: op {i} {op:?} (hit: {hit})");
            assert_eq!(op.apply(&mut a, false), op.apply(&mut b, true), "{ctx}");
            assert_same_machine(&mut a, &mut b, i % 256 == 0, &ctx);
        }
        assert_eq!(a.try_finish(), b.try_finish(), "{arm}: try_finish");
        assert_same_machine(&mut a, &mut b, true, &format!("{arm}: after try_finish"));
        DiffRun { hits, fast: a }
    }

    impl DiffRun {
        /// Whether the run was long enough to cycle the clock hand and
        /// the pageout daemon several times over.
        fn went_round(&self) -> bool {
            let s = self.fast.stats();
            s.hard_faults > 4 * self.fast.total_pages()
                && s.writebacks > 0
                && s.daemon_evictions > 0
        }
    }

    #[test]
    fn fast_path_matches_slow_path_detached() {
        let run = fast_path_matches_slow_path("detached", tiny);
        assert!(run.went_round() && run.hits > 300, "only {} hits", run.hits);
    }

    #[test]
    fn fast_path_matches_slow_path_with_each_gate_entry_armed() {
        let run = fast_path_matches_slow_path("pressure schedule", || {
            let mut m = tiny();
            m.set_pressure_schedule(
                (1..=40)
                    .map(|k| (k * 150 * MILLISECOND, [12, 32, 20, 32][k as usize % 4]))
                    .collect(),
            );
            m
        });
        assert!(run.went_round() && run.fast.pressure.is_empty());

        let run = fast_path_matches_slow_path("durable store", tiny_parity);
        assert!(run.went_round() && run.fast.durable.is_some());
        assert_eq!(run.hits, 0, "a durable store keeps every touch slow");

        let run = fast_path_matches_slow_path("crash point", || {
            let mut m = tiny();
            m.set_fault_plan(&crash_plan(3, CrashPoint::AtOp(1_500), true));
            m
        });
        assert!(run.fast.crashed.is_some(), "the crash point was reached");
        assert_eq!(run.hits, 0);

        let run = fast_path_matches_slow_path("dead disk under parity", || {
            let mut m = tiny_parity();
            m.set_fault_plan(&FaultPlan::none(7).with_disk_death(oocp_disk::DiskDeath {
                disk: 1,
                at: 300 * MILLISECOND,
            }));
            m
        });
        let s = run.fast.stats();
        assert!(run.went_round() && s.degraded_reads > 0 && s.rebuild_rows > 0);

        let run = fast_path_matches_slow_path("host profiler", || {
            let mut m = tiny();
            m.attach_host_prof();
            m
        });
        assert_eq!(run.hits, 0, "the profiler counts every touch");
        let calls = run.fast.host_prof.unwrap().rows().next().unwrap().2;
        assert!(run.went_round() && calls > 1_000, "{calls} touches counted");
    }

    #[test]
    fn fast_path_matches_slow_path_with_each_observer_attached() {
        let run = fast_path_matches_slow_path("sampler", || {
            let mut m = tiny();
            m.attach_sampler(20 * MILLISECOND, 1 << 12);
            m
        });
        assert!(run.went_round() && run.hits > 300);
        assert!(run.fast.sampler.unwrap().ring.len() > 100);

        let run = fast_path_matches_slow_path("metrics and ledger", || {
            let mut m = tiny();
            m.enable_metrics();
            m
        });
        let r = run.fast.metrics_report().unwrap();
        assert!(run.went_round() && run.hits > 300);
        assert!(r.ledger.timely_hits > 0 && r.ledger.late_inflight > 0);

        let run = fast_path_matches_slow_path("trace", || {
            let mut m = tiny();
            m.enable_trace(1 << 16);
            m
        });
        assert!(run.went_round() && run.hits > 300);
        assert!(run.fast.trace.unwrap().len() > 1_000);

        let run = fast_path_matches_slow_path("readahead policy", || {
            let mut p = *tiny().params();
            p.policy = oocp_policy::PolicyKind::Readahead;
            Machine::new(p, 64 * 4096)
        });
        assert_eq!(run.fast.policy_name(), Some("readahead"));
        assert!(run.went_round() && run.hits > 300);
        assert!(run.fast.stats().policy_injected_prefetch_pages > 0);

        let run = fast_path_matches_slow_path("two tenants", || {
            multi(&[
                TenantSpec::unlimited().with_memory_frames(10),
                TenantSpec::unlimited(),
            ])
            .0
        });
        assert!(run.went_round() && run.hits > 300);
        assert!(run.fast.tenant_stats(0).quota_evictions > 0);
        assert!(run.fast.tenant_stats(1).demand_faults > 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "touch after finish()")]
    fn touch_of_a_hot_page_after_finish_still_asserts() {
        let mut m = tiny();
        m.touch(0, 8, false);
        m.finish();
        m.touch(0, 8, false);
    }

    #[test]
    fn address_past_the_last_page_panics_in_the_slow_path() {
        let m = tiny();
        let past = 64 * 4096;
        // Declined, not indexed: the predicate looks the page up with
        // `get`, and an access that would wrap is not one page.
        assert!(!m.touch_is_hit(past, 8, false));
        assert!(!m.touch_is_hit(u64::MAX - 3, 8, false));
        assert!(!m.touch_is_hit(u64::MAX, 0, false));
        let message = |access: fn(&mut Machine, u64)| {
            let mut m = tiny();
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                access(&mut m, past);
            }))
            .expect_err("an access past the address space panics");
            panic.downcast_ref::<String>().cloned()
        };
        let from_touch = message(|m, a| {
            m.touch(a, 8, false);
        });
        assert!(from_touch.as_ref().is_some_and(|s| s.contains("index")));
        assert_eq!(
            message(|m, a| {
                m.load_f64(a);
            }),
            from_touch
        );
        assert_eq!(message(|m, a| m.store_i64(a, 1)), from_touch);
    }

    #[test]
    fn store_to_a_clean_hot_page_goes_slow_once() {
        let mut m = tiny();
        m.load_f64(0);
        assert!(m.touch_is_hit(0, 8, false), "hot for a load");
        assert!(!m.touch_is_hit(0, 8, true), "clean, so not for a store");
        m.store_f64(0, 1.0);
        assert!(m.touch_is_hit(0, 8, true), "dirty now: hot either way");
        assert!(m.touch_is_hit(4088, 8, true) && !m.touch_is_hit(4089, 8, true));
        assert_eq!(m.stats().hard_faults, 1);
    }

    /// A policy that only reports the touches it is shown.
    struct TouchLog(std::sync::mpsc::Sender<(u64, TouchKind)>);

    impl PrefetchPolicy for TouchLog {
        fn name(&self) -> &'static str {
            "touch-log"
        }
        fn on_touch(&mut self, vpage: u64, kind: TouchKind, _: Ns, _: &mut PolicyActions) {
            self.0.send((vpage, kind)).expect("the test is listening");
        }
        fn on_hint(
            &mut self,
            _: Option<(u64, u64)>,
            _: Option<(u64, u64)>,
            _: Ns,
            _: &mut PolicyActions,
        ) {
        }
        fn counters(&self) -> oocp_policy::PolicyCounters {
            Default::default()
        }
    }

    #[test]
    fn first_touch_of_a_prefetched_page_is_never_hot() {
        let mut m = tiny();
        let (tx, touches) = std::sync::mpsc::channel();
        m.set_policy(Box::new(TouchLog(tx)));
        m.enable_metrics();
        m.enable_trace(64);
        m.sys_prefetch(3, 1);
        assert!(!m.touch_is_hit(3 * 4096, 8, false), "in flight");
        m.tick_user(oocp_sim::time::SECOND);
        assert!(!m.touch_is_hit(3 * 4096, 8, false), "arrived, unsettled");
        assert_eq!(m.load_f64(3 * 4096), 0.0);
        assert!(m.touch_is_hit(3 * 4096, 8, false), "hot from the second on");
        assert_eq!(m.load_f64(3 * 4096 + 8), 0.0);
        assert_eq!(m.stats().prefetched_hits, 1);
        assert_eq!(m.metrics_report().unwrap().ledger.timely_hits, 1);
        assert_eq!(
            touches.try_iter().collect::<Vec<_>>(),
            [(3, TouchKind::PrefetchedTimely)],
            "policy_touch fired once, on the first touch"
        );
        let trace = m.take_trace().unwrap();
        assert!(trace.iter().any(|r| matches!(
            r.event,
            TraceEvent::PrefetchConsume {
                page: 3,
                late: false,
                ..
            }
        )));
        // A released page is mapped but not hot: the touch is a soft
        // fault, and hot again after it.
        m.sys_release(3, 1);
        assert!(!m.touch_is_hit(3 * 4096, 8, false), "on the free list");
        m.touch(3 * 4096, 8, false);
        assert_eq!(m.stats().soft_faults, 1);
        assert!(m.touch_is_hit(3 * 4096, 8, false));
    }
}
