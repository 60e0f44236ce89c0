//! The simulated machine: CPU clock, paged VM, prefetch/release hints,
//! disks, and the backing data of the whole virtual address space.
//!
//! This file is the paging core (DESIGN.md §3.2): page table, clock and
//! free-list pageout daemon, shared bit vector, the demand-access path
//! and the two non-binding hints. Everything else the machine can do is
//! one of five extensions, each a child module owning one state struct
//! — a single field of [`Machine`] — and the methods only it needs:
//! `durability` (§9), `redundancy` (§14), `tenancy` (§10), `policy`
//! (§11) and `observe` (§3.5, §12, §13). The core calls
//! into them through `#[inline]` is-armed tests, and the ones that can
//! intercept a demand access or a hint are listed once, in
//! `Machine::extensions_quiet` and `Machine::wake_extensions`.
//! (`freelist` is the core's own: the free list as a data structure.)

mod durability;
mod freelist;
mod observe;
mod policy;
mod redundancy;
mod tenancy;

use oocp_disk::{DiskArray, FaultPlan, IoError, ReqKind, Request, Ticket};
use oocp_fs::{FileId, FileSystem, PlacedRun};
use oocp_obs::{LatencyHist, MachineBucket};
use oocp_policy::TouchKind;
use oocp_sim::rng::SimRng;
use oocp_sim::stats::TimeWeighted;
use oocp_sim::time::{Ns, TimeBreakdown, TimeCategory};

use self::durability::Durability;
pub use self::durability::RecoveryReport;
use self::freelist::FreeList;
use self::observe::Observers;
use self::policy::PolicyState;
use self::redundancy::RedundancyState;
use self::tenancy::Tenancy;
use crate::bitvec::ResidencyBits;
use crate::error::{FlushError, OsError};
use crate::image::Image;
use crate::params::{MachineParams, Redundancy};
use crate::stats::OsStats;
use crate::tenant::PressureLevel;
use crate::trace::{Event, RevertCause, TraceEvent};

/// A page-aligned region of the virtual address space backing one array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// First byte address of the segment.
    pub base: u64,
    /// Length in bytes (rounded up to whole pages at allocation).
    pub bytes: u64,
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

/// Where one virtual page is ([`Page::residency`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Residency {
    /// Not in memory; a touch is a hard fault.
    Unmapped,
    /// Prefetch read in progress; the ticket redeems one completion
    /// unit per page. Demand reads never appear here: the application
    /// stalls inline on its own fault and finds the page resident.
    InFlight(Ticket),
    /// In memory and in use.
    Active,
    /// Reclaimable but still mapped: touching it is only a soft fault.
    OnFreeList,
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

/// Per-page metadata: one byte of flags, so that the hit test is one
/// masked compare, and what an outstanding prefetch needs beside them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Page {
    flags: u8,
    /// The prefetch read loading the page: `Some` exactly while it is
    /// in flight (and the page therefore not yet `RESIDENT`).
    ticket: Option<Ticket>,
    /// Lifecycle span id of the outstanding prefetch (0 = none).
    /// Assigned, with `PREFETCH_TAG`, when a prefetch read is issued
    /// for the page and cleared when the span terminates (consume,
    /// drop, revert, or reclaim); correlates the issue/arrive/consume
    /// trace events.
    span: u64,
}

impl Page {
    /// In memory. The next three flags mean something only with it.
    const RESIDENT: u8 = 1;
    const DIRTY: u8 = 1 << 1;
    const REFERENCED: u8 = 1 << 2;
    /// Reclaimable but still mapped ([`Residency::OnFreeList`]).
    const ON_FREE_LIST: u8 = 1 << 3;
    /// A prefetch named this page and it has not been demand-touched
    /// since; drives the Figure 4(a) fault classification.
    const PREFETCH_TAG: u8 = 1 << 4;
    /// The page has been demand-touched since its last load from disk.
    const TOUCHED: u8 = 1 << 5;
    /// The page is currently counted as "in memory" in the shared bit
    /// vector (idempotence guard for the per-bit reference counts).
    const BIT_NOTED: u8 = 1 << 6;
    /// A durable write in flight carries the page's live image as its
    /// payload (`durability::DurableWrite`): `Machine::unshare` must
    /// copy the page before anything changes its bytes.
    const SHARED: u8 = 1 << 7;
    /// What outlives a change of residency.
    const HISTORY: u8 = Self::PREFETCH_TAG | Self::TOUCHED | Self::BIT_NOTED | Self::SHARED;

    fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    #[inline]
    fn residency(&self) -> Residency {
        match (self.has(Self::RESIDENT), self.ticket) {
            (true, _) if self.has(Self::ON_FREE_LIST) => Residency::OnFreeList,
            (true, _) => Residency::Active,
            (false, Some(ticket)) => Residency::InFlight(ticket),
            (false, None) => Residency::Unmapped,
        }
    }

    /// Whether a demand access (a store, when `write`) would leave this
    /// entry exactly as it found it: the state in which `touch_page`'s
    /// resident arm stores back what it read, charges nothing and
    /// notifies no one — active, referenced, touched, dirty if it is to
    /// be written, and with no prefetch outstanding (no tag, hence no
    /// span). Derived from the flags that arm maintains, so there is
    /// nothing to invalidate. A shared page is never hot, so neither the
    /// fast path nor a strip stores to it past the hook.
    #[inline]
    fn hot(&self, write: bool) -> bool {
        let want = Self::RESIDENT | Self::REFERENCED | Self::TOUCHED | (write as u8 * Self::DIRTY);
        debug_assert!(self.span == 0 || self.has(Self::PREFETCH_TAG));
        self.flags & (want | Self::ON_FREE_LIST | Self::PREFETCH_TAG | Self::SHARED) == want
    }

    /// A demand access takes the page: mapped and active, referenced,
    /// touched, and done with whatever prefetch brought it in.
    fn activate(&mut self, dirty: bool) {
        self.flags = (self.flags & (Self::BIT_NOTED | Self::SHARED))
            | (Self::RESIDENT | Self::REFERENCED | Self::TOUCHED)
            | (dirty as u8 * Self::DIRTY);
        self.ticket = None;
        self.span = 0;
    }

    /// Resident with exactly `state` of the three residency flags.
    fn map(&mut self, state: u8) {
        self.flags = (self.flags & Self::HISTORY) | Self::RESIDENT | state;
        self.ticket = None;
    }
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
    /// Every demand fault's wait, as a distribution: what a degraded
    /// array's hedge deadline is read from (§14.5). Boxed, so the
    /// fields the resident-hit test reads keep their places.
    fault_hist: Box<LatencyHist>,
    pages: Vec<Page>,
    /// Exactly the [`Residency::OnFreeList`] pages, front = next reclaim:
    /// a release queues at the front, the daemon at the back.
    free_list: FreeList,
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
    /// `do_prefetch`'s page spans and placed runs: empty between calls,
    /// kept for their capacity so a hint allocates nothing.
    hint_spans: Vec<(u64, u64)>,
    hint_runs: Vec<PlacedRun>,
    /// Future changes to the resident limit, sorted by time (the
    /// multiprogramming model: other applications taking and returning
    /// memory). Applied lazily as the clock passes each entry.
    pressure: Vec<(Ns, u64)>,
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
    /// What has durably landed, the journal, the crash latch (§9).
    durability: Durability,
    /// Parity, the dead disk and its rebuild (§14).
    redundancy: RedundancyState,
    /// Registered tenants, their quotas and residency views (§10).
    tenancy: Tenancy,
    /// The installed prefetch policy (§11).
    policy: PolicyState,
    /// Trace, metrics, sampler and host profiler (§3.5, §12, §13).
    observe: Observers,
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
            fault_hist: Box::default(),
            pages: vec![Page::default(); total_pages as usize],
            free_list: FreeList::new(total_pages),
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
            hint_spans: Vec::new(),
            hint_runs: Vec::new(),
            pressure: Vec::new(),
            next_span: 1,
            chaos_bits: None,
            fault_plan: None,
            durability: Durability::new(&params, total_pages),
            redundancy: RedundancyState::new(&params, total_pages),
            tenancy: Tenancy::default(),
            policy: PolicyState::new(params.policy),
            observe: Observers::default(),
        })
    }

    /// Install a fault plan: disk-level faults go to the disk array's
    /// injector, bit-vector staleness stays here, pressure storms are
    /// converted into a pressure schedule, and a crash point arms the
    /// durability extension. Replaces any previously installed plan.
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
            self.arm_crash(spec, plan.seed);
        }
        let has_effect =
            plan.is_active() || plan.bitvec_stale_prob > 0.0 || !plan.pressure_storms.is_empty();
        self.fault_plan = has_effect.then(|| plan.clone());
    }

    /// The installed fault plan, if it injects anything at all.
    #[inline]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
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

    // ------------------------------------------------------------------
    // Time accounting
    // ------------------------------------------------------------------

    /// Charge `ns` of user-mode computation.
    #[inline]
    pub fn tick_user(&mut self, ns: Ns) {
        self.strip_charge(ns, 1);
        self.maybe_sample();
    }

    /// `ticks` calls of [`Machine::tick_user`], `ns` between them, in
    /// one step: the user time of a run of iterations [`Machine::strip`]
    /// granted, which by that grant ends before the next sample is due.
    #[inline]
    pub fn strip_charge(&mut self, ns: Ns, ticks: u64) {
        self.now += ns;
        self.breakdown.charge(TimeCategory::User, ns);
        self.stats.user_ops += ticks;
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
        if !p.has(Page::BIT_NOTED) {
            p.flags |= Page::BIT_NOTED;
            self.bits.note_resident(vpage);
            self.note_tenant_bit(vpage, true);
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
        if p.has(Page::BIT_NOTED) {
            p.flags &= !Page::BIT_NOTED;
            if let Some((prob, rng)) = &mut self.chaos_bits {
                if rng.next_f64() < *prob {
                    self.stats.bitvec_stale_injected += 1;
                    return;
                }
            }
            self.bits.note_gone(vpage);
            self.note_tenant_bit(vpage, false);
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
            if p.has(Page::BIT_NOTED) {
                fresh.note_resident(i as u64);
            }
        }
        let fixed = before.saturating_sub(fresh.set_bits());
        self.bits = fresh;
        self.resync_tenant_bits();
        self.stats.bitvec_resyncs += 1;
        self.stats.bitvec_stale_fixed += fixed;
        self.emit(TraceEvent::BitvecResync { fixed });
        fixed
    }
}

// ----------------------------------------------------------------------
// Frames: the free list, the pageout daemon, and the disk requests the
// application needs
// ----------------------------------------------------------------------

impl Machine {
    fn truly_free(&self) -> u64 {
        self.params
            .resident_limit
            .saturating_sub(self.resident + self.inflight)
    }

    fn free_list_len(&self) -> u64 {
        self.free_list.len()
    }

    /// Materialize an in-flight page whose I/O has already completed,
    /// redeeming one of its ticket's completion units.
    fn settle(&mut self, vpage: u64) {
        if let Residency::InFlight(ticket) = self.pages[vpage as usize].residency() {
            if let Some(done) = self.disks.poll(ticket, self.now).map(|c| c.at) {
                let page = &mut self.pages[vpage as usize];
                page.map(0);
                page.flags &= !Page::TOUCHED;
                self.inflight -= 1;
                self.note_tenant_inflight(vpage, -1);
                self.resident += 1;
                // `done` is the read's exact completion time even when
                // this observation is late (completions settle lazily).
                let span = self.pages[vpage as usize].span;
                self.emit(TraceEvent::PrefetchArrive {
                    page: vpage,
                    span,
                    arrival: done,
                });
            }
        }
    }

    /// Unmap a free-list page, returning its frame to the free pool.
    fn reclaim(&mut self, vpage: u64) {
        let page = &mut self.pages[vpage as usize];
        let wasted = page.has(Page::PREFETCH_TAG) && !page.has(Page::TOUCHED);
        debug_assert_eq!(page.residency(), Residency::OnFreeList);
        if page.has(Page::DIRTY) {
            // Free-list pages are cleaned when queued, but settle order
            // can leave a dirty one; write it back now.
            page.map(Page::ON_FREE_LIST);
            self.writeback(vpage);
        }
        self.pages[vpage as usize].flags &= Page::HISTORY;
        self.resident -= 1;
        self.bit_out(vpage);
        // If a prefetch loaded this page and it was never touched, its
        // I/O is now provably wasted (no-op for demand-loaded pages).
        self.emit(Event::Reclaimed { page: vpage });
        self.pages[vpage as usize].span = 0;
        if wasted {
            self.policy_evicted_unused(vpage);
        }
    }

    /// The one bounded-retry ladder every request the application
    /// *needs* goes through (demand reads and write-backs; prefetch
    /// reads are hints and never come here). `units` is the submission
    /// shape, the completions the request owes (see
    /// [`DiskArray::admit`]), and is the only thing the callers differ
    /// in: a demand read owes one and waits for it on the returned
    /// ticket, a write-back owes none, a durable write owes one that
    /// crash resolution redeems. A transient error waits the current
    /// backoff (which doubles per retry); a brownout waits out the
    /// reported window. A full queue is backpressure, not a fault: the OS waits
    /// until the scheduler promises a free slot without consuming any
    /// retry budget. Waits are charged as idle time. The error surfaces
    /// once the retry count or the wait budget is exhausted.
    fn retry_ladder(
        &mut self,
        disk: usize,
        req: Request,
        units: u64,
        vpage: u64,
    ) -> Result<Ticket, OsError> {
        let mut attempts: u32 = 1;
        let mut waited: Ns = 0;
        let mut backoff = self.params.io_backoff_base_ns.max(1);
        loop {
            match self.disks.admit(disk, self.now, req, units) {
                Ok(ticket) => return Ok(ticket),
                Err(e @ (IoError::EmptyRequest | IoError::OutOfRange { .. })) => {
                    // Logic errors: retrying cannot help.
                    return Err(OsError::Io(e));
                }
                Err(IoError::Crashed { at }) => {
                    // Power loss: latch it. Not retryable, not counted
                    // against the retry budget — the disks are gone.
                    self.latch_crash(at);
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
                    self.emit(TraceEvent::QueueFullWait {
                        page: vpage,
                        disk: d,
                        wait,
                    });
                }
                Err(e) => {
                    self.stats.io_errors_observed += 1;
                    self.emit(TraceEvent::IoError {
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
                    self.emit(TraceEvent::IoRetry { page: vpage, wait });
                    waited += wait;
                    backoff = backoff.saturating_mul(2);
                    attempts += 1;
                }
            }
        }
    }

    /// Schedule a write-back of `vpage`'s current contents.
    ///
    /// Failures are retried with backoff; if retries exhaust, the
    /// write-back is abandoned, counted, and the page recorded for
    /// [`Machine::try_finish`]'s [`FlushError`] — the simulator's
    /// backing store is authoritative, so abandonment affects the
    /// durability ledger, never the computed results.
    fn writeback(&mut self, vpage: u64) {
        if self.durability.crashed.is_some() {
            // Power is out: the write can never happen.
            self.abandon_writeback(vpage);
            return;
        }
        let (disk, block) = self
            .fs
            .place(self.swap, vpage)
            .expect("resident page must have backing blocks");
        if self.redundancy.parity.is_some() {
            self.post_parity_write(vpage);
        }
        if self.durability.store.is_some() {
            self.writeback_durable(vpage, disk, block);
            return;
        }
        let owner = self.owner_of(vpage).unwrap_or(0);
        let req = Request::new(ReqKind::Write, block, 1).with_tenant(owner);
        match self.retry_ladder(disk, req, 0, vpage) {
            Ok(_) => self.note_writeback(vpage),
            Err(_) => self.abandon_writeback(vpage),
        }
    }

    /// A write-back was accepted by the disks.
    fn note_writeback(&mut self, vpage: u64) {
        self.stats.writebacks += 1;
        self.emit(TraceEvent::Writeback { page: vpage });
    }

    /// Move a resident page to the free list (daemon eviction path).
    fn queue_on_free_list(&mut self, vpage: u64, front: bool) {
        let page = &mut self.pages[vpage as usize];
        let dirty = page.has(Page::DIRTY);
        page.map(Page::ON_FREE_LIST);
        if dirty {
            self.writeback(vpage);
        }
        self.free_list.push(vpage, front);
    }

    /// The clock-with-second-chance sweep, for the global hand and the
    /// tenants' own: advance `hand` over the `len` pages from `first`,
    /// settling each, until it has passed an active page whose
    /// referenced bit is clear — the victim. A referenced page loses the
    /// bit instead; nothing sets one during a sweep, so only the first
    /// revolution has any to clear. `scanned` counts steps across the
    /// calls of one eviction round, which gives up after two revolutions.
    fn clock_sweep(
        &mut self,
        first: u64,
        len: u64,
        hand: &mut u64,
        scanned: &mut u64,
    ) -> Option<u64> {
        while *scanned < 2 * len {
            let v = first + *hand;
            *hand = (*hand + 1) % len;
            *scanned += 1;
            self.settle(v);
            let page = &mut self.pages[v as usize];
            if page.residency() == Residency::Active {
                if page.has(Page::REFERENCED) && *scanned <= len {
                    page.flags &= !Page::REFERENCED;
                } else {
                    return Some(v);
                }
            }
        }
        None
    }

    /// One eviction by the global clock hand, onto the back of the free
    /// list. `None` once two revolutions have found no victim.
    fn daemon_evict(&mut self, scanned: &mut u64) -> Option<u64> {
        let mut hand = self.clock_hand;
        let victim = self.clock_sweep(0, self.total_pages(), &mut hand, scanned);
        self.clock_hand = hand;
        let v = victim?;
        self.queue_on_free_list(v, false);
        self.stats.daemon_evictions += 1;
        Some(v)
    }

    /// Pageout daemon: clock-scan resident pages onto the free list until
    /// the pool reaches the high watermark.
    ///
    /// The daemon's CPU time is not charged to the application (it ran on
    /// spare cycles in Hurricane); its disk traffic is fully modeled.
    fn run_daemon(&mut self) {
        let mut pool = self.truly_free() + self.free_list_len();
        if pool >= self.params.low_water {
            return;
        }
        let mut scanned = 0;
        while pool < self.params.high_water {
            let Some(page) = self.daemon_evict(&mut scanned) else {
                break;
            };
            self.emit(TraceEvent::Eviction { page });
            pool += 1;
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
        if let Some(p) = self.free_list.pop_front() {
            self.reclaim(p);
            return Ok(());
        }
        // Nothing free and nothing reclaimable: force the daemon to build
        // a pool, then reclaim.
        self.run_daemon();
        if let Some(p) = self.free_list.pop_front() {
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
        if let Some(p) = self.free_list.pop_front() {
            self.reclaim(p);
            return true;
        }
        false
    }
}

// ----------------------------------------------------------------------
// Demand accesses
// ----------------------------------------------------------------------

impl Machine {
    /// Touch the bytes `[addr, addr + len)` as a demand access,
    /// faulting as needed. `write` marks the pages dirty.
    ///
    /// Returns the number of pages that hard-faulted (test hook). An
    /// access during which the power dies returns quietly, the bytes
    /// served from memory: the run ends at it ([`Machine::crashed_at`]).
    ///
    /// # Panics
    ///
    /// Panics if a demand read fails even after the OS's bounded
    /// retries (possible only under an installed fault plan whose
    /// error rate or brownout length defeats the retry budget). Fault-
    /// aware callers use [`Machine::try_touch`].
    pub fn touch(&mut self, addr: u64, len: u64, write: bool) -> u64 {
        let touched = if write && self.durability.store.is_some() {
            self.touch_then_unshare(addr, len)
        } else {
            self.try_touch(addr, len, write)
        };
        match touched {
            Ok(faults) => faults,
            Err(OsError::Crashed { .. }) => 0,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`Machine::touch`], but surfaces exhausted-retry demand-read
    /// failures and the power loss as typed errors. Pages before the
    /// failing one remain touched; the failing page is left unmapped, so
    /// the access can be retried later.
    ///
    /// Inlined into its caller as far as the resident-hit test; the
    /// miss is one out-of-line call.
    #[inline]
    pub fn try_touch(&mut self, addr: u64, len: u64, write: bool) -> Result<u64, OsError> {
        if self.touch_is_hit(addr, len, write) {
            return Ok(0);
        }
        match self.touch_miss(addr, len, write, FaultWait::Inline)? {
            Touch::Done { faults } => Ok(faults),
            Touch::Blocked { .. } => unreachable!("an inline wait stalls; it never blocks"),
        }
    }

    /// The resident-hit fast path: whether the demand access
    /// `[addr, addr + len)` changes nothing at all, so its caller may
    /// skip [`Machine::try_touch`] altogether. True when the access
    /// lies in one page, that page is [`Page::hot`], and no extension
    /// that intercepts an access is armed.
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
            && self.extensions_quiet()
    }

    /// [`Machine::touch_is_hit`] for a run of loop iterations at once:
    /// iteration `t` makes an 8-byte access (a store, when `write`) at
    /// `addr + t·delta` of every `(addr, delta, write)` in `refs`, and
    /// `n` of them charge at most `lead_ns + n·iter_ns` of user time.
    /// Returns the image's bytes and for how many iterations, `want` at
    /// most, every access is such a hit (each reference is walked page
    /// by page, up to the first not hot) and the clock stays short of the
    /// sampler's next row, the one observer driven by time alone.
    pub fn strip(
        &mut self,
        refs: &[(u64, i64, bool)],
        want: u64,
        lead_ns: Ns,
        iter_ns: Ns,
    ) -> (u64, &mut [u8]) {
        let mut n = if self.extensions_quiet() { want } else { 0 };
        if let Some(s) = &self.observe.sampler {
            let room = s.next_due.checked_sub(self.now + lead_ns + 1);
            n = n.min(room.map_or(0, |ns| ns.checked_div(iter_ns).unwrap_or(n)));
        }
        for &(addr, delta, write) in refs {
            debug_assert!(n == 0 || !write || self.durability.store.is_none());
            // Aligned words never straddle a page.
            n *= u64::from((addr | delta as u64) & 7 == 0);
            let hot = |v: u64| self.pages.get(v as usize).is_some_and(|p| p.hot(write));
            n = self.walk_pages(addr, delta, n, hot);
        }
        (n, &mut self.data)
    }

    /// For how many iterations, `n` at most, a reference at `addr +
    /// t·delta` on iteration `t` finds `ok` of the page it reaches true,
    /// asked once a page: up to the first page it refuses.
    #[inline]
    pub fn walk_pages(&self, addr: u64, delta: i64, n: u64, ok: impl Fn(u64) -> bool) -> u64 {
        let (page_bytes, mut at, mut t) = (self.params.page_bytes, addr, 0);
        while t < n && ok(self.page_of(at)) {
            // Iterations until `at` leaves the page, if it moves at all.
            let within = at & (page_bytes - 1);
            let ahead = match delta {
                // A stride of a page or more leaves the page every iteration.
                _ if delta.unsigned_abs() >= page_bytes => 1,
                1.. => (page_bytes - within).div_ceil(delta as u64),
                0 => n,
                _ => within / delta.unsigned_abs() + 1,
            };
            t += ahead;
            at = at.wrapping_add(ahead.wrapping_mul(delta as u64));
        }
        t.min(n)
    }

    /// The extensions that intercept a demand access or a hint call
    /// before the core sees it, each with what it does there. This and
    /// [`Machine::wake_extensions`] are the one place the list is
    /// written: the fast path asks whether all of them are disarmed, the
    /// slow path and the hints give each armed one its turn.
    ///
    /// Tenancy, policy, and the trace, metrics and sampler observers are
    /// not on it: the resident arm of `touch_page` consults them only on
    /// the first touch after a load or for a page with an open prefetch
    /// span, and a hot page is neither; the sampler fires from `charge`,
    /// and a hit charges nothing.
    #[inline]
    fn extensions_quiet(&self) -> bool {
        // The host profiler counts every touch into its residency bucket.
        self.observe.host_prof.is_none()
            // The durable store takes its lazy baseline snapshot on the
            // first timed access. A crash point always creates it.
            && self.durability.store.is_none()
            // Pressure-schedule entries are applied as the clock passes
            // them, and an access or a hint is where that is noticed.
            && self.pressure.is_empty()
            // A dead disk's rebuild is pumped from every entry point.
            && self.redundancy.dead_disk.is_none()
    }

    /// Give every armed extension of [`Machine::extensions_quiet`] its
    /// turn, in the same order, at the head of a demand access or a hint
    /// call.
    #[inline(always)]
    fn wake_extensions(&mut self) {
        // The host profiler has no turn here: its probe brackets the
        // whole access in `touch_miss`, and hints are not probed.
        if self.durability.store.is_some() {
            self.ensure_durable_snapshot();
        }
        if !self.pressure.is_empty() {
            self.apply_pressure();
        }
        if self.redundancy.dead_disk.is_some() {
            self.pump_rebuild();
        }
    }

    /// What every demand access does before its first page, blocking
    /// or not. Returns the first and last page to touch.
    #[inline(always)]
    fn touch_preamble(&mut self, addr: u64, len: u64) -> (u64, u64) {
        debug_assert!(!self.finished, "touch after finish()");
        debug_assert!(self.crashed_at().is_none(), "access after the power loss");
        self.wake_extensions();
        (self.page_of(addr), self.page_of(addr + len.max(1) - 1))
    }

    /// A demand access past the fast path: every access that is not a
    /// resident hit, and for the differential test all of them. Under
    /// [`FaultWait::Inline`] each fault has been stalled out by the time
    /// it is counted, so the result is never [`Touch::Blocked`].
    fn touch_miss(
        &mut self,
        addr: u64,
        len: u64,
        write: bool,
        wait: FaultWait,
    ) -> Result<Touch, OsError> {
        let t0 = self.prof_start();
        let touched = (|| {
            let (first, last) = self.touch_preamble(addr, len);
            let mut faults = 0;
            for vpage in first..=last {
                match self.touch_page(vpage, write, wait)? {
                    None => {}
                    Some(until) if until > self.now => {
                        // Counted faults on earlier pages stay counted
                        // in the stats; the retry re-reports only the
                        // rest.
                        return Ok(Touch::Blocked { until });
                    }
                    Some(_) => faults += 1,
                }
            }
            Ok(Touch::Done { faults })
        })();
        self.prof_end(t0, MachineBucket::Residency);
        touched
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
        self.touch_miss(addr, len, write, FaultWait::Caller)
    }

    /// The demand read of one block on behalf of the current tenant,
    /// through the retry ladder: it owes one completion, and the caller
    /// waits for it at once. Returns the completion time.
    fn demand_read(&mut self, disk: usize, block: u64, vpage: u64) -> Result<Ns, OsError> {
        let req = Request::new(ReqKind::DemandRead, block, 1).with_tenant(self.tenancy.cur);
        let ticket = self.retry_ladder(disk, req, 1, vpage)?;
        Ok(self.disks.wait_for(ticket).at)
    }

    /// Submit the demand read for `vpage` (home block `(disk, block)`).
    /// On a healthy array that is one request through the retry ladder;
    /// the redundancy extension takes over when the home is on the
    /// un-rebuilt part of a dead disk (survivor reconstruction) and
    /// hedges tail reads while the array is degraded. Returns the
    /// completion time and whether the read was served degraded.
    fn demand_read_submit(
        &mut self,
        vpage: u64,
        disk: usize,
        block: u64,
    ) -> Result<(Ns, bool), OsError> {
        if self.read_goes_degraded(disk, vpage) {
            return self.degraded_demand_read(vpage).map(|d| (d, true));
        }
        match self.demand_read(disk, block, vpage) {
            Ok(done) if self.redundancy.degraded() => self
                .maybe_hedge(vpage, disk, block, done)
                .map(|d| (d, false)),
            Ok(done) => Ok((done, false)),
            Err(OsError::DiskLost { .. }) if self.redundancy.reconstructs(disk) => {
                // First contact with the freshly dead disk: the death
                // was latched inside the retry loop; reconstruct.
                self.degraded_demand_read(vpage).map(|d| (d, true))
            }
            Err(e) => Err(e),
        }
    }

    /// First touch of a page a prefetch loaded and nothing has used
    /// since: the fault it eliminated.
    fn note_prefetched_hit(&mut self, vpage: u64, span: u64) {
        self.stats.prefetched_hits += 1;
        if span != 0 {
            self.emit(TraceEvent::PrefetchConsume {
                page: vpage,
                span,
                late: false,
            });
        }
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
        // A prefetch loaded the page and this is its first use (a page
        // loaded by a demand fault was classified at fault time).
        let prefetched_hit = page.has(Page::PREFETCH_TAG) && !page.has(Page::TOUCHED);
        let dirty = page.has(Page::DIRTY);
        match page.residency() {
            Residency::Active => {
                // In memory and active: classify the first touch after a
                // load, update reference/dirty bits, no fault.
                if prefetched_hit {
                    let lt0 = self.prof_start();
                    self.note_prefetched_hit(vpage, page.span);
                    self.prof_end(lt0, MachineBucket::Ledger);
                }
                self.pages[vpage as usize].activate(dirty || write);
                if prefetched_hit {
                    self.policy_touch(vpage, TouchKind::PrefetchedTimely);
                }
                Ok(None)
            }
            Residency::OnFreeList => {
                // Soft fault: reclaim from the free list, no disk I/O.
                self.charge(
                    TimeCategory::SystemFault,
                    self.params.soft_fault_overhead_ns,
                );
                self.stats.soft_faults += 1;
                self.free_list.remove(vpage);
                self.emit(TraceEvent::SoftFault { page: vpage });
                if prefetched_hit {
                    // Loaded from disk by a prefetch, released/evicted
                    // before first use, but still mapped: the original
                    // fault was eliminated.
                    self.note_prefetched_hit(vpage, page.span);
                }
                self.pages[vpage as usize].activate(dirty || write);
                // Back in active use: restore its bit (a release had
                // cleared it).
                self.bit_in(vpage);
                self.note_free_level();
                self.policy_touch(vpage, TouchKind::SoftFault);
                Ok(None)
            }
            Residency::InFlight(ticket) => Ok(Some(
                self.fault_in_flight(vpage, page.span, ticket, write, wait),
            )),
            Residency::Unmapped => self
                .fault_unmapped(vpage, page.has(Page::PREFETCH_TAG), write, wait)
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
        if !self.tenancy.tenants.is_empty() {
            self.disks.promote(ticket, self.now);
        }
        let read = self.disks.wait_for(ticket);
        let touch = self.now;
        let waited = self.fault_wait(read.at, wait);
        self.stats.fault_wait.push(waited as f64);
        self.fault_hist.record(waited);
        self.stats.late_prefetch_stall_ns += waited;
        let lt0 = self.prof_start();
        self.emit(Event::ConsumedLate {
            page: vpage,
            span,
            touch,
            read,
            journal_stalls: self.stats.journal_stalls,
        });
        self.prof_end(lt0, MachineBucket::Ledger);
        self.inflight -= 1;
        self.note_tenant_inflight(vpage, -1);
        self.note_tenant_fault(waited);
        self.resident += 1;
        self.pages[vpage as usize].activate(write);
        self.policy_touch(vpage, TouchKind::PrefetchedLate);
        read.at
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
        let (done, degraded) = self.demand_read_submit(vpage, disk, block)?;
        let waited = self.fault_wait(done, wait);
        if degraded {
            self.stats.degraded_read_ns += waited;
        }
        self.stats.fault_wait.push(waited as f64);
        self.fault_hist.record(waited);
        self.note_tenant_fault(waited);
        self.emit(TraceEvent::HardFault {
            page: vpage,
            waited,
        });
        self.pages[vpage as usize].activate(write);
        self.resident += 1;
        self.bit_in(vpage);
        self.run_daemon();
        self.note_free_level();
        self.policy_touch(vpage, TouchKind::HardFault);
        Ok(done)
    }
}

// ----------------------------------------------------------------------
// Hints (system calls issued by the run-time layer)
// ----------------------------------------------------------------------

impl Machine {
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
        debug_assert!(self.crashed_at().is_none(), "hint after the power loss");
        self.wake_extensions();
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
            let shared = !self.tenancy.tenants.is_empty();
            if shared && self.owner_of(vpage) != Some(self.tenancy.cur) {
                continue;
            }
            self.stats.release_pages += 1;
            if self.policy.issuing {
                self.stats.policy_injected_release_pages += 1;
            }
            self.settle(vpage);
            if self.pages[vpage as usize].residency() == Residency::Active {
                self.queue_on_free_list(vpage, true);
                self.stats.release_pages_effective += 1;
                self.emit(TraceEvent::Release {
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

    /// The prefetch read of `nblocks` blocks on behalf of the current
    /// tenant, tagged when a policy rather than the program asked.
    fn prefetch_request(&self, block: u64, nblocks: u64) -> Request {
        Request::new(ReqKind::PrefetchRead, block, nblocks)
            .with_tenant(self.tenancy.cur)
            .with_policy_injected(self.policy.issuing)
    }

    fn do_prefetch(&mut self, start: u64, n: u64) {
        let end = (start + n).min(self.total_pages());
        let start = start.min(self.total_pages());
        let mut arbiter = self.hint_arbiter();
        // Pages that need disk reads, grouped into contiguous spans.
        let mut spans = std::mem::take(&mut self.hint_spans);
        for vpage in start..end {
            self.stats.prefetch_pages_requested += 1;
            if self.policy.issuing {
                self.stats.policy_injected_prefetch_pages += 1;
            }
            self.settle(vpage);
            match self.pages[vpage as usize].residency() {
                Residency::Active => {
                    self.stats.prefetch_pages_unnecessary += 1;
                }
                Residency::OnFreeList => {
                    // Reclaim from the free list: useful work, no I/O.
                    self.free_list.remove(vpage);
                    let p = &mut self.pages[vpage as usize];
                    p.map((p.flags & Page::DIRTY) | Page::REFERENCED);
                    p.flags |= Page::PREFETCH_TAG;
                    self.stats.prefetch_pages_reclaimed += 1;
                    self.bit_in(vpage);
                    arbiter.charge_frame(); // free-list page back on the books
                }
                Residency::InFlight(_) => {
                    self.stats.prefetch_pages_inflight += 1;
                }
                Residency::Unmapped => {
                    if arbiter.multi && self.arbiter_drops(&arbiter, vpage) {
                        continue;
                    }
                    if !self.alloc_frame_prefetch() {
                        self.stats.prefetch_pages_dropped += 1;
                        self.emit(TraceEvent::PrefetchDrop { page: vpage });
                        // Leave any prior prefetch_tag: a dropped hint
                        // still marks the fault as "prefetched" for
                        // Figure 4(a).
                        self.pages[vpage as usize].flags |= Page::PREFETCH_TAG;
                        continue;
                    }
                    self.inflight += 1;
                    self.note_tenant_inflight(vpage, 1);
                    let cur = self.tenancy.cur as usize;
                    if let Some(info) = self.tenancy.tenants.get_mut(cur) {
                        info.stats.prefetch_pages_issued += 1;
                    }
                    arbiter.charge_frame();
                    self.stats.prefetch_pages_issued += 1;
                    // Span ids are allocated in page order, so a
                    // contiguous issue span holds consecutive ids (the
                    // PrefetchIssue trace event relies on this).
                    let sid = self.next_span;
                    self.next_span += 1;
                    let p = &mut self.pages[vpage as usize];
                    p.flags |= Page::PREFETCH_TAG;
                    p.span = sid;
                    // The issue-time environment (journal-stall count,
                    // redundancy flags) lets a late consumption tell
                    // interference during the flight from a short lead.
                    self.emit(Event::Issued {
                        page: vpage,
                        journal_stalls: self.stats.journal_stalls,
                        flags: self.issue_flags(vpage),
                    });
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
        let mut runs = std::mem::take(&mut self.hint_runs);
        for &(span_start, count) in &spans {
            let first_span = self.pages[span_start as usize].span;
            self.emit(TraceEvent::PrefetchIssue {
                page: span_start,
                count,
                span: first_span,
            });
            self.fs
                .place_run_into(self.swap, span_start, count, &mut runs)
                .expect("prefetch span inside the address space");
            for &run in &runs {
                self.issue_prefetch_run(run);
            }
        }
        spans.clear();
        (self.hint_spans, self.hint_runs) = (spans, runs);
    }

    /// The data page in block `i` of a placed run. The inverse placement
    /// works in both layouts (parity blocks never appear in placed
    /// runs); for the plain layout it is the `first + i * ndisks` stride.
    fn run_page(&self, run: PlacedRun, i: u64) -> u64 {
        self.fs
            .page_at(self.swap, run.disk, run.start_block + i)
            .expect("run inside the file")
            .expect("placed runs cover data blocks only")
    }

    /// One multi-block prefetch read; every page of the run redeems one
    /// unit of its ticket when the request completes.
    fn issue_prefetch_run(&mut self, run: PlacedRun) {
        if self.redundancy.reconstructs(run.disk) {
            self.prefetch_degraded_run(run);
            return;
        }
        let req = self.prefetch_request(run.start_block, run.nblocks);
        match self.disks.admit(run.disk, self.now, req, run.nblocks) {
            Ok(ticket) => {
                for i in 0..run.nblocks {
                    let vpage = self.run_page(run, i);
                    self.pages[vpage as usize].ticket = Some(ticket);
                }
            }
            // First contact with the freshly dead disk: the spare is
            // installed; reroute the run.
            Err(IoError::DiskDead { disk, at }) if self.note_disk_death(disk, at) => {
                self.prefetch_degraded_run(run);
            }
            Err(e) => self.drop_prefetch_run(run, e),
        }
    }

    /// The prefetch submission of `run` was refused. Prefetches
    /// are hints: no retry, no surfaced error. A full queue is
    /// backpressure, dropped silently with no error counted; a power
    /// loss is latched (the run ends with this call); anything
    /// else — a disk death without redundancy included — is an I/O
    /// error the run-time layer's health window will see.
    fn drop_prefetch_run(&mut self, run: PlacedRun, e: IoError) {
        let (page, count, disk) = (self.run_page(run, 0), run.nblocks, run.disk);
        let cause = match e {
            IoError::QueueFull { .. } => {
                self.emit(TraceEvent::HintDropQueueFull { page, count });
                RevertCause::QueueFull
            }
            IoError::Crashed { at } => {
                self.latch_crash(at);
                RevertCause::Crashed
            }
            _ => {
                self.stats.io_errors_observed += 1;
                self.emit(TraceEvent::IoError {
                    page: Some(page),
                    disk,
                });
                self.emit(TraceEvent::HintDropOnError { page, count });
                RevertCause::IoError
            }
        };
        for i in 0..run.nblocks {
            self.revert_prefetch_page(self.run_page(run, i), cause);
        }
    }

    /// Revert one admitted prefetch page whose submission was refused:
    /// it keeps its prefetch tag, so a later fault classifies as
    /// "prefetched but lost", exactly like a memory-pressure drop.
    fn revert_prefetch_page(&mut self, vpage: u64, cause: RevertCause) {
        debug_assert_eq!(self.pages[vpage as usize].residency(), Residency::Unmapped);
        self.inflight -= 1;
        self.note_tenant_inflight(vpage, -1);
        self.bit_out(vpage);
        self.pages[vpage as usize].span = 0;
        self.stats.prefetch_pages_issued -= 1;
        self.stats.prefetch_pages_dropped += 1;
        match cause {
            RevertCause::QueueFull => self.stats.hints_dropped_queue_full += 1,
            RevertCause::IoError => self.stats.hints_dropped_on_error += 1,
            RevertCause::Crashed => {}
        }
        self.emit(Event::Reverted { page: vpage, cause });
    }
}

// ----------------------------------------------------------------------
// Run control
// ----------------------------------------------------------------------

impl Machine {
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
            if self.pages[vpage as usize].residency() == Residency::Unmapped {
                self.pages[vpage as usize].activate(false);
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
            if let Some(p) = self.free_list.pop_front() {
                self.reclaim(p);
            } else if self.daemon_evict(&mut 0).is_some() {
                // Forced onto the free list and straight back off it.
                if let Some(p) = self.free_list.pop_front() {
                    self.reclaim(p);
                }
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

    /// End the run: flush dirty pages and stall until the disks drain,
    /// mirroring the paper's applications writing their results back to
    /// disk. Flush failures are swallowed; callers who care about
    /// durability use [`Machine::try_finish`].
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
            if self.durability.crashed.is_some() {
                self.finish_crashed();
            } else {
                self.finish_clean();
            }
        }
        if self.durability.flush_failures.is_empty() {
            Ok(())
        } else {
            Err(FlushError {
                vpages: self.durability.flush_failures.iter().copied().collect(),
            })
        }
    }

    fn finish_clean(&mut self) {
        for vpage in 0..self.total_pages() {
            self.settle(vpage);
            if self.pages[vpage as usize].has(Page::DIRTY) {
                self.writeback(vpage);
                self.pages[vpage as usize].flags &= !Page::DIRTY;
            }
        }
        // The final flush itself can be the submission that trips the
        // crash point: hand over to the crashed path if it did.
        if self.durability.crashed.is_some() {
            self.finish_crashed();
            return;
        }
        // Dispatch everything still queued and wait for it, so
        // busy-time/utilization stats cover all accepted work.
        let drain = self.disks.drain_all();
        self.settle_pending_durable(drain);
        self.stall_until(drain);
        // Everything has completed: settle stragglers so frame
        // accounting ends clean.
        for vpage in 0..self.total_pages() {
            self.settle(vpage);
        }
        // Report the end: the ledger closes every lifecycle still open,
        // prefetched pages never touched by now being wasted I/O.
        self.emit(Event::Finished);
        self.note_free_level();
    }
}

// ----------------------------------------------------------------------
// Backing data (the actual bytes of the address space)
// ----------------------------------------------------------------------

impl Machine {
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
        self.poke(addr, v.to_le_bytes());
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
        self.poke(addr, v.to_le_bytes());
    }

    /// The bytes of a store, after its touch (which unshared the page).
    #[inline]
    fn write_word(&mut self, addr: u64, bytes: [u8; 8]) {
        self.data[addr as usize..addr as usize + 8].copy_from_slice(&bytes);
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
        self.write_word(addr, v.to_le_bytes());
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
        self.write_word(addr, v.to_le_bytes());
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
    use oocp_policy::{PolicyActions, PrefetchPolicy};
    use oocp_sim::time::MILLISECOND;

    use super::*;
    use crate::parity::ParityStore;
    use crate::store::SECTOR_BYTES;
    use crate::tenant::{QosClass, TenantId, TenantSpec};

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
        const PAGE: u64 = 7;
        // A shape is the request's kind and the completions it owes.
        let shapes = [
            ("demand read", ReqKind::DemandRead, 1),
            ("posted write-back", ReqKind::Write, 0),
            ("tracked durable write", ReqKind::Write, 1),
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
                .map(|&(name, kind, units)| {
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
                            m.disks.admit(d, 0, fill, 1).unwrap();
                        }
                    }
                    let req = Request::new(kind, block, 1);
                    let res = m.retry_ladder(disk, req, units, PAGE).map(drop);
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
    fn a_page_is_reclaimed_from_where_it_was_last_queued() {
        let mut m = tiny();
        for p in 0..3 {
            m.touch(p * 4096, 8, false);
        }
        // Releases queue at the front: page 1 ends up in the middle.
        for p in [0, 1, 2] {
            m.sys_release(p, 1);
        }
        assert_eq!(m.free_list.iter().collect::<Vec<_>>(), [2, 1, 0]);
        // A prefetch takes it back out of the middle and a touch uses it.
        m.sys_prefetch(1, 1);
        assert_eq!(m.stats().prefetch_pages_reclaimed, 1);
        m.touch(4096, 8, false);
        assert_eq!((m.free_list_len(), m.stats().soft_faults), (2, 0));
        // The only active page is the daemon's victim, which queues at
        // the back: behind both pages it once sat between. (A list that
        // had kept its old middle entry would find it live again here and
        // reclaim page 1 second.)
        assert_eq!(m.daemon_evict(&mut 0), Some(1));
        let mut order = Vec::new();
        while let Some(p) = m.free_list.pop_front() {
            m.reclaim(p);
            order.push(p);
        }
        assert_eq!(order, [2, 0, 1]);
        assert_eq!((m.free_list_len(), m.resident_pages()), (0, 0));
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
        let recs: Vec<_> = trace.iter().collect();
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
        assert!(t2.iter().any(|r| r.event.tag() == "FAULT"));
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

    /// Store `value(p)` to the first word of page `p` = 0, 1, … up to
    /// the store the power dies under, or the last of `pages`. Returns
    /// how many stores were made.
    fn store_until_the_crash(m: &mut Machine, pages: u64, value: impl Fn(u64) -> f64) -> u64 {
        let mut p = 0;
        while p < pages && m.crashed_at().is_none() {
            m.store_f64(p * 4096, value(p));
            p += 1;
        }
        p
    }

    #[test]
    fn crash_latches_and_the_run_stops_at_it() {
        let mut m = tiny();
        m.set_fault_plan(&crash_plan(5, CrashPoint::AtOp(10), false));
        let stored = store_until_the_crash(&mut m, 64, |p| p as f64);
        assert!(m.crashed_at().is_some(), "the 10th disk op tripped it");
        assert!(stored < 64, "the run ended at the crash");
        for p in 0..stored {
            assert_eq!(
                m.peek_f64(p * 4096),
                p as f64,
                "store {p} was made in memory"
            );
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
        // The refused pages went back to unmapped, nothing in flight.
        assert!(m.stats().prefetch_pages_dropped > 0);
        assert_eq!(m.inflight + m.stats().prefetch_pages_dropped, 4);
        assert!(m.try_finish().is_ok(), "nothing was dirty");
    }

    #[test]
    fn recovery_after_torn_crash_is_exact_with_the_journal() {
        let mut m = tiny();
        // Op 100 lands among the eviction writebacks, so WAL records
        // are genuinely in flight when the power dies.
        m.set_fault_plan(&crash_plan(7, CrashPoint::AtOp(100), true));
        store_until_the_crash(&mut m, 64, |p| 100.0 + p as f64);
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
        assert!(m2.durability.store.is_some());
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
        store_until_the_crash(&mut m, 64, |p| 7.0 + p as f64);
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
        assert_eq!(
            store_until_the_crash(&mut m, 8, |_| 9.0),
            1,
            "the first fault"
        );
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
    fn a_write_completing_after_the_crash_instant_is_not_landed_early() {
        // `AtTime(t)` latches at the first submission *after* `t`, so a
        // write-back can find the clock past `t` with the power still
        // nominally on. A write that completed in that gap was in
        // flight when the power died: crash resolution must get to tear
        // or discard it, draw and all. Three machines run the same
        // operations; only the horizon the retire loop polls against
        // differs.
        type Outcome = (RecoveryReport, Vec<u64>, Option<u64>, Vec<u8>);
        fn run(horizon: impl Fn(Ns) -> Option<Ns>) -> Outcome {
            let mut p = MachineParams::small();
            p.journal = false;
            // Releasing a dirty page writes it back without stalling:
            // three batches of five writes, the clock run on between.
            let ops = |m: &mut Machine, upto: u64| {
                for page in 0..20u64 {
                    m.store_f64(page * 4096, 1.0 + page as f64);
                }
                m.sys_release(0, 5);
                m.tick_user(1_000 * MILLISECOND);
                m.sys_release(5, 5);
                if upto == 2 {
                    return;
                }
                m.tick_user(10_000 * MILLISECOND);
                m.sys_release(10, 5);
            };
            // The instant: just after the second batch is issued, long
            // before it completes.
            let t = {
                let mut dry = Machine::new(p, 64 * 4096);
                dry.set_fault_plan(&crash_plan(31, CrashPoint::AtOp(u64::MAX), true));
                ops(&mut dry, 2);
                assert_eq!(dry.stats().writebacks, 10);
                dry.now() + 1
            };
            let mut m = Machine::new(p, 64 * 4096);
            m.set_fault_plan(&crash_plan(31, CrashPoint::AtTime(t), true));
            m.durability.crash_at_time = horizon(t);
            ops(&mut m, 3);
            // The third batch's first write-back found the clock ten
            // seconds past `t` and the power on, and tripped the latch.
            assert_eq!(m.crashed_at(), Some(t));
            assert_eq!(m.stats().writebacks, 10);
            assert!(m.try_finish().is_err());
            let (discarded, next_draw) = m.durability.crash_verdict();
            let (m2, report) = m.recover();
            (report, discarded, next_draw, m2.data.to_vec())
        }
        // The machine as built; one where nothing is retired before
        // `finish` (no write completes by time 0); and the trap — a
        // retire loop that asks `done <= now` alone.
        let built = run(Some);
        let deferred = run(|_| Some(0));
        let naive = run(|_| None);
        assert!(built == deferred, "{:?} vs {:?}", built.0, deferred.0);
        // Batch one had landed by `t`; batch two was in flight (each
        // write torn, or discarded whole); batch three never started.
        assert!(built.1.iter().all(|&page| page >= 5) && built.1.contains(&10));
        assert_eq!(naive.1, [10], "landed early, batch two spent no draws");
        assert_ne!(built.2, naive.2, "the torn-write stream moved");
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
        assert_eq!(m.tenancy.cur, 0);
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

    /// The durable store holds the memory image, page for page, and
    /// parity is what a from-scratch resync of it gives — an oracle
    /// that does not care *when* each write landed.
    fn assert_durable_is_memory_and_parity_its_xor(m: &Machine) {
        let store = m.durability.store.as_ref().expect("parity keeps a store");
        for page in 0..m.total_pages() {
            let r = (page * 4096) as usize..(page * 4096 + 4096) as usize;
            assert!(
                store.page(page, &m.data) == &m.data[r],
                "durable page {page}"
            );
            assert!(store.verify(page, &m.data), "checksum of page {page}");
        }
        let ps = m.redundancy.parity.as_ref().expect("parity mode");
        let mut fresh = ParityStore::new(ps.rows(), 4096);
        fresh.resync(m.params.ndisks as u64 - 1, m.total_pages(), |p| {
            store.page(p, &m.data)
        });
        for row in 0..ps.rows() {
            assert!(ps.row(row) == fresh.row(row), "parity row {row}");
        }
    }

    #[test]
    fn durable_payloads_are_bounded_by_the_io_in_flight() {
        // A plain write-back carries the live page; the only copies are
        // those the hook takes for a store to a page whose write is in
        // flight. Every eighth round releases each page after its store
        // and stores it again, meeting the write-back the release issued.
        let mut m = tiny_parity();
        let (mut restored, mut round) = (0, 0u64);
        while m.stats().writebacks < 10_000 {
            round += 1;
            for p in 0..64u64 {
                let mut store = |m: &mut Machine, v: u64| {
                    restored += m.pages[p as usize].has(Page::SHARED) as usize;
                    m.store_f64(p * 4096, v as f64);
                };
                store(&mut m, round * 64 + p);
                if round % 8 == 0 {
                    m.sys_release(p, 1);
                    store(&mut m, round * 64 + p + 1);
                }
                m.tick_user(300 * oocp_sim::time::MICROSECOND);
                let held = m.durability.payload_buffers();
                assert!(
                    held <= restored,
                    "{held} page copies held at write-back {}, for {restored} stores to a page \
                     with a write in flight",
                    m.stats().writebacks
                );
            }
        }
        assert!(restored > 0, "stores met write-backs in flight");
        assert!(m.try_finish().is_ok());
        assert_durable_is_memory_and_parity_its_xor(&m);
    }

    /// The most copies the durable store of a parity page walk making
    /// `sweeps` sweeps holds at a landing, each landing checked against
    /// the resident dirty pages plus the plain writes in flight
    /// (`Machine::note_landing`), and what it holds after `try_finish`.
    fn durable_copies_of_a_page_walk(sweeps: u64) -> (usize, usize) {
        let p = MachineParams::small().with_memory_bytes(64 * 4096);
        let mut m = Machine::new(p.with_redundancy(Redundancy::Parity), 256 * 4096);
        durability::COPIES_PEAK.set(Some(0));
        for sweep in 0..sweeps {
            for page in 0..256 {
                m.store_f64(page * 4096 + sweep % 512 * 8, (sweep * 256 + page) as f64);
                m.tick_user(300 * oocp_sim::time::MICROSECOND);
            }
        }
        assert!(m.try_finish().is_ok());
        assert_durable_is_memory_and_parity_its_xor(&m);
        let peak = durability::COPIES_PEAK.take().expect("watched");
        (peak, m.durability.store.as_ref().expect("parity").copies())
    }

    #[test]
    fn durable_copies_are_bounded_by_memory_not_by_the_data_or_the_run() {
        let (short, after) = durable_copies_of_a_page_walk(4);
        assert_eq!(after, 0, "every page landed from memory: no copy is left");
        assert!(
            short > 0 && short <= 64,
            "{short} copies, for 64 frames of 256 pages"
        );
        assert_eq!(
            durable_copies_of_a_page_walk(16),
            (short, 0),
            "4 and 16 sweeps"
        );
    }

    /// The most page buffers a journaled page walk making `sweeps`
    /// sweeps holds at a landing, ring records included, each landing
    /// checked against the rings' slots plus the writes in flight
    /// (`Machine::note_landing`), and the ring slots.
    fn journaled_buffers_of_a_page_walk(sweeps: u64) -> (usize, u64) {
        let p = MachineParams::small().with_memory_bytes(64 * 4096);
        let mut m = Machine::new(p, 256 * 4096);
        m.set_fault_plan(&crash_plan(3, CrashPoint::AtOp(u64::MAX), false));
        durability::JOURNALED_PEAK.set(Some(0));
        for sweep in 0..sweeps {
            for page in 0..256 {
                m.store_f64(page * 4096 + sweep % 512 * 8, (sweep * 256 + page) as f64);
                m.tick_user(300 * oocp_sim::time::MICROSECOND);
            }
        }
        assert!(m.try_finish().is_ok());
        let slots = p.ndisks as u64 * p.journal_blocks_per_disk / oocp_fs::RECORD_BLOCKS;
        assert!(
            m.stats().journal_appends > 4 * slots,
            "the walk wrote back more records than the rings hold"
        );
        let peak = durability::JOURNALED_PEAK.take().expect("watched");
        (peak, slots)
    }

    #[test]
    fn journaled_write_backs_are_bounded_by_the_rings_not_by_the_run() {
        let (short, slots) = journaled_buffers_of_a_page_walk(4);
        // A record per slot, and a copy per write in flight, which holds
        // a slot too.
        assert!(
            short > 0 && short as u64 <= 2 * slots,
            "{short} page buffers, for {slots} ring slots"
        );
        assert_eq!(
            journaled_buffers_of_a_page_walk(16),
            (short, slots),
            "4 and 16 sweeps"
        );
    }

    #[test]
    fn the_scrubber_repairs_only_from_what_the_rings_hold() {
        // Page 0's one record, then more records on its disk than its
        // ring has slots: a later record has taken page 0's slot, so
        // nothing is left to repair it from.
        let mut m = tiny();
        m.set_fault_plan(&crash_plan(9, CrashPoint::AtOp(u64::MAX), false));
        let (home, _) = m.fs.place(m.swap, 0).unwrap();
        let disk_pages: Vec<u64> = (1..64)
            .filter(|&p| m.fs.place(m.swap, p).unwrap().0 == home)
            .collect();
        m.store_f64(0, 1.0);
        m.sys_release(0, 1);
        let slots = m.params.journal_blocks_per_disk / oocp_fs::RECORD_BLOCKS;
        let mut later = 0;
        while later <= slots {
            for &p in &disk_pages {
                m.store_f64(p * 4096, later as f64);
                m.sys_release(p, 1);
                later += 1;
            }
        }
        // Page 0 goes cold.
        for p in 1..64 {
            m.touch(p * 4096, 8, false);
        }
        m.try_finish().expect("clean durable run");
        assert_eq!(m.pages[0].residency(), Residency::Unmapped);
        for page in 0..64u64 {
            assert!(m.corrupt_durable_page(page));
        }
        let (verified, repaired) = m.scrub(u64::MAX);
        assert!(
            verified > 0 && repaired > 0,
            "pages the rings hold were repaired"
        );
        let store = m.durability.store.as_ref().expect("crash mode");
        assert!(!store.verify(0, &m.data), "page 0's record was overwritten");
    }

    /// The first word of `page`'s durable image.
    fn durable_word(m: &Machine, page: u64) -> f64 {
        let store = m.durability.store.as_ref().expect("a durable store");
        f64::from_le_bytes(store.page(page, &m.data)[..8].try_into().unwrap())
    }

    /// Store `v` to page 0 and release it: its write-back is in flight,
    /// carrying the page itself.
    fn write_back_page_zero(m: &mut Machine, v: f64) {
        m.store_f64(0, v);
        m.sys_release(0, 1);
        assert!(m.pages[0].has(Page::SHARED), "the write shares the page");
        // A load takes it back, active and clean and still shared: the
        // fast path and the strips must pass it by.
        assert_eq!(m.load_f64(0), v);
        assert!(!m.pages[0].hot(false), "a shared page is never hot");
    }

    /// Land every write-back issued so far: the next one retires them.
    fn land_in_flight_writes(m: &mut Machine) {
        m.tick_user(1_000 * MILLISECOND);
        m.store_f64(63 * 4096, 63.0);
        m.sys_release(63, 1);
    }

    #[test]
    fn an_untimed_write_after_the_snapshot_leaves_the_durable_image() {
        // Page 0 has no write in flight: only the durable store shares
        // it, and a `poke` must give the store its copy first.
        let mut m = tiny_parity();
        m.touch(4096, 8, false);
        m.poke_f64(0, 5.0);
        assert_eq!((m.peek_f64(0), durable_word(&m, 0)), (5.0, 0.0));
        assert!(m
            .durability
            .store
            .as_ref()
            .expect("parity")
            .verify(0, &m.data));
    }

    #[test]
    fn a_store_behind_a_write_back_lands_the_bytes_the_write_had() {
        // A timed store, and an untimed `poke`, which dirties nothing;
        // behind a plain write, and behind a journaled one whose ring
        // has one slot a disk, so that the next write-back on page 0's
        // disk retires its record.
        for (journal, poke) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut m = tiny_parity();
            if journal {
                m = tiny();
                m.params.journal_blocks_per_disk = oocp_fs::RECORD_BLOCKS;
                m.set_fault_plan(&crash_plan(3, CrashPoint::AtOp(u64::MAX), false));
            }
            write_back_page_zero(&mut m, 1.0);
            assert_eq!(m.durability.payload_buffers(), 0, "nothing copied yet");
            if poke {
                m.poke_f64(0, 2.0);
            } else {
                m.store_f64(0, 2.0);
            }
            assert_eq!(m.durability.payload_buffers(), 1, "poke {poke}: copied");
            assert!(!m.pages[0].has(Page::SHARED));
            land_in_flight_writes(&mut m);
            assert_eq!(m.stats().journal_stalls, journal as u64);
            assert_eq!(durable_word(&m, 0), 1.0, "poke {poke}: the write's bytes");
            assert_eq!(m.peek_f64(0), 2.0, "poke {poke}: memory keeps the store");
            assert!(m.try_finish().is_ok());
            if !poke && !journal {
                assert_durable_is_memory_and_parity_its_xor(&m);
            }
        }
    }

    #[test]
    fn a_page_restored_behind_two_writes_in_flight_ends_with_the_later_image() {
        let mut m = tiny_parity();
        write_back_page_zero(&mut m, 1.0);
        // The second store copies the first write's bytes; the second
        // write shares the page until the third store copies its own.
        write_back_page_zero(&mut m, 2.0);
        m.store_f64(0, 3.0);
        assert_eq!(m.durability.payload_buffers(), 2);
        land_in_flight_writes(&mut m);
        assert_eq!(durable_word(&m, 0), 2.0, "the later write lands last");
        assert_eq!(m.peek_f64(0), 3.0);
        assert!(m.try_finish().is_ok());
        assert_durable_is_memory_and_parity_its_xor(&m);
    }

    #[test]
    fn a_page_written_back_twice_before_its_store_shares_one_write() {
        // `try_touch` dirties the page without the store (its caller
        // stores next), and a release writes it back again meanwhile:
        // the older write takes its copy, the newer one shares.
        let mut m = tiny_parity();
        write_back_page_zero(&mut m, 1.0);
        m.try_touch(0, 8, true).unwrap();
        m.sys_release(0, 1);
        assert_eq!(m.durability.payload_buffers(), 1, "the older write copied");
        m.poke_f64(0, 2.0);
        assert_eq!(m.durability.payload_buffers(), 2, "the newer one too");
        land_in_flight_writes(&mut m);
        assert_eq!(durable_word(&m, 0), 1.0);
    }

    #[test]
    fn a_torn_write_tears_with_the_bytes_it_had_also_at_a_crashing_store() {
        // Page 0 carries 1.0 in the first word of every sector when its
        // write-back is issued, and 2.0 once stored again: before the
        // power dies, or by the store the power dies under. The crash
        // catches the write mid-air — a bare write, or the journal's
        // with its seal durable — and lands a sector prefix of it, which
        // must be the write's own bytes, never the later store's.
        let sector = SECTOR_BYTES;
        let store_sectors = |m: &mut Machine, v: f64| {
            for s in 0..4096 / sector {
                m.store_f64(s * sector, v);
            }
        };
        for journal in [false, true] {
            let (mut landed, mut short) = (0, 0);
            for (seed, at_store) in (0..8).flat_map(|seed| [(seed, false), (seed, true)]) {
                let mut p = MachineParams::small();
                p.journal = journal;
                // A prefetch takes a free frame only while it leaves the
                // demand reserve: with all frames but one reserved, it
                // takes page 0's from the free list.
                if at_store {
                    p.demand_reserve = p.resident_limit - 1;
                }
                let mut m = Machine::new(p, 64 * 4096);
                // Op 0 is page 0's fault, then its write-back (one write,
                // or the journal's four), then the fault on page 1 that
                // finds the power gone — or the prefetch of page 2 and
                // then the store that faults page 0 back in.
                let op = (if journal { 5 } else { 2 }) + u64::from(at_store);
                m.set_fault_plan(&crash_plan(seed, CrashPoint::AtOp(op), true));
                store_sectors(&mut m, 1.0);
                m.sys_release(0, 1);
                if !at_store {
                    store_sectors(&mut m, 2.0);
                }
                // 10 ms on, the journal's descriptor and payload blocks
                // have landed and its data write has not.
                m.tick_user(journal as u64 * 10 * MILLISECOND);
                if at_store {
                    m.sys_prefetch(2, 1);
                    assert_eq!(m.pages[0].residency(), Residency::Unmapped);
                    m.store_f64(0, 2.0);
                } else {
                    m.touch(4096, 8, false);
                }
                assert!(m.crashed_at().is_some());
                assert!(
                    m.try_finish().is_err() || at_store,
                    "the second store never reached the disks"
                );
                let (discarded, _) = m.durability.crash_verdict();
                assert!(!journal || discarded.is_empty(), "seed {seed}: sealed");
                let store = m.durability.store.as_ref().expect("crash mode");
                let mut ones = 0;
                for s in 0..4096 / sector {
                    let at = (s * sector) as usize;
                    let word = store.page(0, &m.data)[at..at + 8].try_into().unwrap();
                    let word = f64::from_le_bytes(word);
                    assert!(
                        word == 0.0 || word == 1.0,
                        "journal {journal}, seed {seed}: sector {s} holds {word}"
                    );
                    ones += (word == 1.0) as u64;
                }
                landed += ones;
                short += (ones < 4096 / sector) as u64;
                assert_eq!(m.peek_f64(0), 2.0);
            }
            assert!(
                landed > 0,
                "journal {journal}: some draws landed part of the write"
            );
            assert!(short > 0, "journal {journal}: some caught it mid-air");
        }
    }

    #[test]
    fn early_landing_survives_a_disk_death_and_online_rebuild() {
        let mut m = tiny_parity();
        for round in 0..6u64 {
            if round == 2 {
                let at = m.now() + 1;
                m.set_fault_plan(
                    &FaultPlan::none(7).with_disk_death(oocp_disk::DiskDeath { disk: 1, at }),
                );
            }
            for p in 0..64u64 {
                m.store_f64(p * 4096, (round * 64 + p) as f64 + 0.5);
                m.tick_user(300 * oocp_sim::time::MICROSECOND);
            }
        }
        assert!(
            m.stats().rebuild_rows > 0,
            "the rebuild ran beside the write-backs"
        );
        m.finish_rebuild();
        assert!(m.dead_disk().is_none());
        assert_eq!(m.stats().rebuild_verify_mismatches, 0);
        assert!(m.try_finish().is_ok());
        assert_durable_is_memory_and_parity_its_xor(&m);
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
        assert!(m.dead_disk().is_none(), "rebuild completed");
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

    /// FNV-1a, a byte at a time, continuing from `h`.
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        let step = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        bytes.iter().fold(h, step)
    }

    const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

    /// The durable image of `page`, as the store presents it.
    fn durable_page(m: &Machine, page: u64) -> &[u8] {
        m.durability
            .store
            .as_ref()
            .expect("a durable store")
            .page(page, &m.data)
    }

    /// FNV-1a of every page's durable bytes, of every parity row (0
    /// without parity) and of the live image.
    fn durable_state(m: &Machine) -> [u64; 3] {
        let pages = (0..m.total_pages()).fold(FNV_BASIS, |h, p| fnv1a(h, durable_page(m, p)));
        let rows = m.redundancy.parity.as_ref().map_or(0, |ps| {
            (0..ps.rows()).fold(FNV_BASIS, |h, r| fnv1a(h, ps.row(r)))
        });
        [pages, rows, fnv1a(FNV_BASIS, &m.data)]
    }

    /// A page walk: `rounds` sweeps storing one word into every sector
    /// of every page, a different word and value each round, up to the
    /// store the power dies under.
    fn sector_walk(m: &mut Machine, rounds: u64) {
        for round in 0..rounds {
            for p in 0..m.total_pages() {
                for s in 0..4096 / SECTOR_BYTES {
                    if m.crashed_at().is_some() {
                        return;
                    }
                    let at = p * 4096 + s * SECTOR_BYTES + round % 64 * 8;
                    m.store_f64(at, (round * 4096 + p * 8 + s) as f64 + 0.5);
                }
                m.tick_user(300 * oocp_sim::time::MICROSECOND);
            }
        }
    }

    /// The durable state after a crash (before and after recovery) and
    /// the recovery report, as FNV-1a values.
    fn crash_and_recover(mut m: Machine) -> Vec<u64> {
        sector_walk(&mut m, 3);
        assert!(m.crashed_at().is_some(), "the crash point was reached");
        assert!(m.try_finish().is_err(), "the crash cut writes off");
        let before = durable_state(&m);
        let (m2, report) = m.recover();
        let report = fnv1a(FNV_BASIS, format!("{report:?}").as_bytes());
        [&before[..], &durable_state(&m2), &[report]].concat()
    }

    #[test]
    fn durable_state_is_pinned() {
        // A parity page walk with no journal, torn at a fixed op.
        let mut p = tiny_parity().params;
        p.journal = false;
        let mut m = Machine::new(p, 64 * 4096);
        m.set_fault_plan(&crash_plan(11, CrashPoint::AtOp(200), true));
        let torn = crash_and_recover(m);
        // A journaled crash.
        let mut m = tiny();
        m.set_fault_plan(&crash_plan(12, CrashPoint::AtTime(114 * MILLISECOND), true));
        let journaled = crash_and_recover(m);
        // A disk death, served degraded and rebuilt online.
        let mut m = tiny_parity();
        let at = 40 * MILLISECOND;
        m.set_fault_plan(&FaultPlan::none(9).with_disk_death(oocp_disk::DiskDeath { disk: 2, at }));
        sector_walk(&mut m, 3);
        assert!(m.stats().rebuild_rows > 0 && m.stats().degraded_reads > 0);
        m.finish_rebuild();
        assert!(m.try_finish().is_ok());
        let rebuilt = durable_state(&m).to_vec();
        let got = [torn, journaled, rebuilt];
        let pinned: [Vec<u64>; 3] = [
            vec![
                5544744435551815786,
                15869693685917720337,
                17973719420062695557,
                5544744435551815786,
                419363527514095630,
                5544744435551815786,
                2560859128793834463,
            ],
            vec![
                2042960235837294262,
                0,
                8449251010358822324,
                13038829310517773605,
                0,
                13038829310517773605,
                8665268595897088783,
            ],
            vec![
                4516336494337901329,
                17484062783718394105,
                4516336494337901329,
            ],
        ];
        assert_eq!(got, pinned);
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
        assert!(m.dead_disk().is_some(), "hint path latched the death");
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
        assert!(m.dead_disk().is_none());
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

    /// The blocking demand access, around the fast path.
    fn touch_slow(m: &mut Machine, addr: u64, len: u64, write: bool) -> Result<u64, OsError> {
        match m.touch_miss(addr, len, write, FaultWait::Inline)? {
            Touch::Done { faults } => Ok(faults),
            Touch::Blocked { until } => panic!("an inline wait blocked until {until}"),
        }
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
                    touch_slow(m, addr, 8, false)?;
                    return Ok(if int {
                        m.peek_i64(addr) as u64
                    } else {
                        m.peek_f64(addr).to_bits()
                    });
                }
                DiffOp::Load { addr, int: true } => return Ok(m.load_i64(addr) as u64),
                DiffOp::Load { addr, int: false } => return Ok(m.load_f64(addr).to_bits()),
                DiffOp::Store { addr, int, bits } if slow => {
                    touch_slow(m, addr, 8, true)?;
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
                    return touch_slow(m, addr, len, write)
                }
                DiffOp::Touch { addr, len, write } => return m.try_touch(addr, len, write),
                DiffOp::TouchNb { addr, len, write } => loop {
                    let r = if slow {
                        m.touch_miss(addr, len, write, FaultWait::Caller)
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
    fn assert_same_machine(a: &Machine, b: &Machine, deep: bool, ctx: &str) {
        macro_rules! same {
            ($what:literal, $of:expr) => {{
                let of = $of;
                assert_eq!(of(a), of(b), "{}: {} differ", ctx, $what);
            }};
        }
        same!("now()", |m: &Machine| m.now);
        same!("breakdown()", |m: &Machine| m.breakdown);
        same!("stats()", |m: &Machine| m.stats);
        same!("frame counts", |m: &Machine| (
            m.resident,
            m.inflight,
            m.free_list.len(),
            m.clock_hand,
            m.params.resident_limit
        ));
        assert!(a.pages == b.pages, "{ctx}: page tables differ");
        assert!(a.free_list == b.free_list, "{ctx}: free lists differ");
        // Membership is exact: walked front to back the list is as long
        // as it says and holds the `OnFreeList` pages, each of them once.
        let mut listed: Vec<u64> = a.free_list.iter().collect();
        assert_eq!(listed.len() as u64, a.free_list_len(), "{ctx}: length");
        listed.sort_unstable();
        let on_list =
            |(v, p): (usize, &Page)| (p.residency() == Residency::OnFreeList).then_some(v as u64);
        let flagged: Vec<u64> = a.pages.iter().enumerate().filter_map(on_list).collect();
        assert_eq!(listed, flagged, "{ctx}: free list and page flags differ");
        assert!(a.bits == b.bits, "{ctx}: residency bits differ");
        assert!(
            a.tenancy.bits == b.tenancy.bits,
            "{ctx}: tenant bits differ"
        );
        assert!(*a.data == *b.data, "{ctx}: data images differ");
        same!("tenant stats", |m: &Machine| m
            .tenancy
            .tenants
            .iter()
            .map(|t| (t.stats, t.hand))
            .collect::<Vec<_>>());
        same!("pressure schedule", |m: &Machine| m.pressure.clone());
        same!("crash state", |m: &Machine| (
            m.durability.crashed,
            m.durability.crash_resolved
        ));
        same!("dead disk and rebuild", |m: &Machine| (
            m.redundancy.dead_disk,
            m.redundancy.rebuilt_rows,
            m.redundancy.rebuild_next_at
        ));
        let durable = |m: &Machine| {
            let d = m.durability.store.as_ref()?;
            Some(
                (0..m.total_pages())
                    .map(|p| d.page(p, &m.data).to_vec())
                    .collect::<Vec<_>>(),
            )
        };
        assert!(durable(a) == durable(b), "{ctx}: durable stores differ");
        same!("MachineProf call counts", |m: &Machine| m
            .observe
            .host_prof
            .map(|p| p.rows().map(|(_, _, n)| n).collect::<Vec<_>>()));
        same!("trace length", |m: &Machine| m
            .observe
            .trace
            .as_ref()
            .map(|t| (t.len(), t.dropped(), t.iter().last().copied())));
        same!("ledger", |m: &Machine| m.observe.metrics.as_ref().map(
            |x| (
                *x.ledger.counts(),
                x.ledger.entries(),
                x.ledger.open_entries(),
            )
        ));
        same!("fault waits", |m: &Machine| *m.fault_hist);
        same!("sampler rows", |m: &Machine| m
            .observe
            .sampler
            .as_ref()
            .map(|s| (s.ring.len(), s.next_due)));
        if deep {
            same!("trace", |m: &Machine| m
                .observe
                .trace
                .as_ref()
                .map(|t| t.iter().copied().collect::<Vec<_>>()));
            same!("metrics report", |m: &Machine| format!(
                "{:?}",
                m.metrics_report()
            ));
            same!("disk stats", |m: &Machine| format!("{:?}", m.disk_stats()));
            same!("sampler output", |m: &Machine| format!(
                "{:?}",
                m.sampler_output()
            ));
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
            if a.crashed_at().is_some() {
                break; // a power loss ends the run
            }
            let op = DiffOp::random(&mut rng, pages, page_bytes, tenants);
            let hit = op
                .access()
                .is_some_and(|(addr, len, write)| a.touch_is_hit(addr, len, write));
            hits += u64::from(hit);
            let ctx = format!("{arm}: op {i} {op:?} (hit: {hit})");
            assert_eq!(op.apply(&mut a, false), op.apply(&mut b, true), "{ctx}");
            assert_same_machine(&a, &b, i % 256 == 0, &ctx);
        }
        assert_eq!(a.try_finish(), b.try_finish(), "{arm}: try_finish");
        assert_same_machine(&a, &b, true, &format!("{arm}: after try_finish"));
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
        assert!(run.went_round() && run.fast.durability.store.is_some());
        assert_eq!(run.hits, 0, "a durable store keeps every touch slow");

        let run = fast_path_matches_slow_path("crash point", || {
            let mut m = tiny();
            m.set_fault_plan(&crash_plan(3, CrashPoint::AtOp(1_500), true));
            m
        });
        assert!(
            run.fast.durability.crashed.is_some(),
            "the crash point was reached"
        );
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
        let calls = run.fast.observe.host_prof.unwrap().rows().next().unwrap().2;
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
        assert!(run.fast.observe.sampler.unwrap().ring.len() > 100);

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
        assert!(run.fast.observe.trace.unwrap().len() > 1_000);

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

    /// What the strip test asks of one machine: the references of a
    /// loop body, made for `want` iterations at most.
    #[derive(Debug)]
    struct StripAsk {
        refs: Vec<(u64, i64, bool)>,
        /// Charged before each reference's access, in order.
        ns: Vec<Ns>,
        want: u64,
        lead: Ns,
    }

    impl StripAsk {
        fn random(rng: &mut SimRng, pages: u64, page_bytes: u64) -> Self {
            let nrefs = 1 + rng.next_below(3) as usize;
            let refs = (0..nrefs)
                .map(|_| {
                    // Mostly in the working set the churn keeps hot.
                    let page = if rng.next_below(4) < 3 {
                        rng.next_below(8)
                    } else {
                        rng.next_below(pages)
                    };
                    let unaligned = u64::from(rng.next_below(40) == 0);
                    let addr = page * page_bytes + 8 * rng.next_below(page_bytes / 8) + unaligned;
                    let page = page_bytes as i64;
                    let deltas = [8, 8, 8, -8, 16, 0, 1024, -2048, page, -page, page + 8, 12];
                    let delta = deltas[rng.next_below(deltas.len() as u64) as usize];
                    (addr, delta, rng.next_below(3) == 0)
                })
                .collect();
            let ns = [0, 400, 1_300];
            StripAsk {
                refs,
                ns: (0..nrefs).map(|_| ns[rng.next_below(3) as usize]).collect(),
                want: 1 + rng.next_below(300),
                lead: [0, 0, 250, 90_000][rng.next_below(4) as usize],
            }
        }

        fn iter_ns(&self) -> Ns {
            self.ns.iter().sum()
        }

        /// Where reference `r` is on iteration `t`.
        fn at(&self, r: usize, t: u64) -> u64 {
            let (addr, delta, _) = self.refs[r];
            addr.wrapping_add(t.wrapping_mul(delta as u64))
        }

        fn value(t: u64, r: usize) -> i64 {
            (t * 7 + r as u64 * 1_000_003) as i64
        }

        /// As a strip: one query, the accesses made on the bytes it
        /// hands out, one bulk charge. Returns the length granted and a
        /// digest of what the loads read.
        fn stripped(&self, m: &mut Machine) -> (u64, u64) {
            let (n, mem) = m.strip(&self.refs, self.want, self.lead, self.iter_ns());
            let (mut read, mut ticks, mut pending) = (0u64, 0, self.lead);
            for t in 0..n {
                for (r, &(_, _, write)) in self.refs.iter().enumerate() {
                    pending += self.ns[r];
                    ticks += u64::from(pending > 0);
                    pending = 0;
                    let word = &mut mem[self.at(r, t) as usize..][..8];
                    if write {
                        word.copy_from_slice(&Self::value(t, r).to_le_bytes());
                    } else {
                        let v = i64::from_le_bytes((&*word).try_into().unwrap());
                        read = read.wrapping_mul(31).wrapping_add(v as u64);
                    }
                }
            }
            if n > 0 {
                m.strip_charge(self.lead + n * self.iter_ns(), ticks);
            }
            (n, read)
        }

        /// Iterations `from..to` one reference at a time, the first of
        /// them behind `lead` pending.
        fn one_by_one(&self, m: &mut Machine, from: u64, to: u64, lead: Ns) -> u64 {
            let (mut read, mut pending) = (0u64, lead);
            for t in from..to {
                for (r, &(_, _, write)) in self.refs.iter().enumerate() {
                    pending += self.ns[r];
                    if pending > 0 {
                        m.tick_user(pending);
                        pending = 0;
                    }
                    if write {
                        m.store_i64(self.at(r, t), Self::value(t, r));
                    } else {
                        let v = m.load_i64(self.at(r, t));
                        read = read.wrapping_mul(31).wrapping_add(v as u64);
                    }
                }
            }
            read
        }

        /// Whether iteration `t` is all plain hits on `m` as it stands.
        fn all_hits(&self, m: &Machine, t: u64) -> bool {
            (0..self.refs.len()).all(|r| {
                let (_, delta, write) = self.refs[r];
                (self.at(r, t) | delta as u64) & 7 == 0 && m.touch_is_hit(self.at(r, t), 8, write)
            })
        }
    }

    /// What [`strips_match_per_reference_accesses`] saw.
    #[derive(Debug, Default)]
    struct StripRun {
        granted: u64,
        refused: u64,
        /// Strips the sampler's next row cut short of hot pages.
        cut_by_time: u64,
        /// Strips that went from one page into another.
        crossed: u64,
        iterations: u64,
        rows: usize,
    }

    /// Two machines from `make`, fed the same seeded mix: a loop body's
    /// references as a strip on one (query, raw accesses, bulk charge)
    /// and one by one through `tick_user`/`load`/`store` on the other;
    /// then, on both, the iteration the strip stopped in front of and
    /// some churn of the resident set. Whole-machine state is compared
    /// after each.
    fn strips_match_per_reference_accesses(
        arm: &str,
        rounds: u64,
        make: fn() -> Machine,
    ) -> StripRun {
        let (mut a, mut b) = (make(), make());
        let (pages, page_bytes) = (a.total_pages(), a.params.page_bytes);
        let mut rng = SimRng::new(0x57A1 ^ arm.len() as u64);
        for m in [&mut a, &mut b] {
            for w in 0..pages * page_bytes / 8 {
                m.poke_i64(w * 8, (w * 31) as i64);
            }
            m.preload(0, 4);
        }
        let mut run = StripRun::default();
        for round in 0..rounds {
            let ask = StripAsk::random(&mut rng, pages, page_bytes);
            let ctx = format!("{arm}: round {round} {ask:?}");
            let (n, read) = ask.stripped(&mut a);
            let ctx = format!("{ctx}: {n} granted");
            assert_eq!(ask.one_by_one(&mut b, 0, n, ask.lead), read, "{ctx}: loads");
            assert_same_machine(&a, &b, round % 256 == 0, &ctx);
            run.iterations += n;
            *(if n > 0 {
                &mut run.granted
            } else {
                &mut run.refused
            }) += 1;
            let last = ask.at(0, n.saturating_sub(1));
            run.crossed += u64::from(ask.refs[0].0 / page_bytes != last / page_bytes);
            // The strip is as long as it may be: the iteration it
            // stopped in front of misses somewhere — it is then made the
            // ordinary way, on both, if it is in the address space at
            // all — or would run the clock into the sampler's next row.
            let lead = if n == 0 { ask.lead } else { 0 };
            if n < ask.want && !ask.all_hits(&b, n) {
                let inside = |r| ask.at(r, n) <= pages * page_bytes - 8;
                if (0..ask.refs.len()).all(inside) {
                    let made = ask.one_by_one(&mut a, n, n + 1, lead);
                    assert_eq!(made, ask.one_by_one(&mut b, n, n + 1, lead), "{ctx}");
                }
            } else if n < ask.want {
                let due = b.observe.sampler.as_ref().map(|s| s.next_due);
                let end = b.now + lead + ask.iter_ns();
                assert!(
                    due.is_some_and(|due| end >= due),
                    "{ctx}: stopped for nothing"
                );
                run.cut_by_time += 1;
            }
            for _ in 0..rng.next_below(4) {
                let op = DiffOp::random(&mut rng, pages, page_bytes, 1);
                let done = op.apply(&mut a, false);
                assert_eq!(done, op.apply(&mut b, false), "{ctx}: {op:?}");
            }
            assert_same_machine(&a, &b, false, &format!("{ctx}: after churn"));
            // A hot page's residency bit is set: a hot range is one the
            // filter drops every hint into.
            let bit_kept = |v: u64| !b.pages[v as usize].hot(false) || b.bits().test(v);
            assert!(
                (0..pages).all(bit_kept),
                "{ctx}: a hot page without its bit"
            );
        }
        assert_eq!(a.try_finish(), b.try_finish(), "{arm}: try_finish");
        assert_same_machine(&a, &b, true, &format!("{arm}: after try_finish"));
        run.rows = a.observe.sampler.as_ref().map_or(0, |s| s.ring.len());
        run
    }

    #[test]
    fn strips_match_per_reference_accesses_detached() {
        let run = strips_match_per_reference_accesses("detached", 3_000, tiny);
        assert!(
            run.granted > 500 && run.refused > 500 && run.crossed > 50 && run.iterations > 20_000,
            "{run:?}"
        );
        assert_eq!(run.cut_by_time, 0, "nothing tells the time here");
    }

    #[test]
    fn a_whole_range_is_granted_only_while_every_page_of_it_is_hot() {
        // An array reached anywhere is asked about as a stream one page
        // apart, an iteration per page of it.
        let mut m = tiny();
        let hot = |m: &mut Machine, pages: u64, write| {
            m.strip(&[(0, 4096, write)], pages, 0, 0).0 == pages
        };
        for v in 0..4 {
            m.load_f64(v * 4096);
        }
        assert!(hot(&mut m, 4, false), "loaded: hot for loads");
        assert!(!hot(&mut m, 4, true), "clean: not for stores");
        assert!(!hot(&mut m, 5, false), "page 4 never touched");
        for v in 0..4 {
            m.store_f64(v * 4096, 1.0);
        }
        assert!(hot(&mut m, 4, true), "dirty-hot once each page is stored");
        // A prefetch's arrival, not yet touched.
        m.sys_prefetch(4, 1);
        m.tick_user(oocp_sim::time::SECOND);
        assert!(!hot(&mut m, 5, false), "arrived, untouched");
        m.load_f64(4 * 4096);
        assert!(hot(&mut m, 5, false), "touched");
        // One page released.
        m.sys_release(2, 1);
        assert!(!hot(&mut m, 5, false), "a page on the free list");
        m.load_f64(2 * 4096);
        assert!(hot(&mut m, 5, false), "touched again");
        // The clock sweeps over the range as the daemon makes room.
        for v in 5..40 {
            m.load_f64(v * 4096);
        }
        assert!(m.stats().daemon_evictions > 0);
        assert!(!hot(&mut m, 5, false), "swept");
        // A hot page's residency bit is set, so a hot range is one the
        // run-time filter drops every hint into.
        let hot_pages = (0..m.total_pages()).filter(|&v| m.pages[v as usize].hot(false));
        assert!(hot_pages.clone().count() > 8);
        assert!(hot_pages.clone().all(|v| m.bits().test(v)));
    }

    #[test]
    fn strips_stop_short_of_the_samplers_next_row() {
        // Rows a few hundred references apart: many strips are cut by
        // the clock, and the series must be the per-reference run's.
        let run = strips_match_per_reference_accesses("sampler", 1_000, || {
            let mut m = tiny();
            m.attach_sampler(400_000, 1 << 12);
            m
        });
        assert!(
            run.granted > 200 && run.cut_by_time > 50 && run.rows > 1_000,
            "{run:?}"
        );
    }

    #[test]
    fn every_armed_extension_declines_the_fast_path() {
        type Step = fn(&mut Machine);
        // One arm per line of `extensions_quiet`, each arming only that
        // line. Where the machine offers no way back (a durable store
        // stays, a plain array never rebuilds) the disarm step resets
        // the extension's one field.
        let gate: [(&str, Step, Step); 4] = [
            (
                "host profiler",
                |m| m.attach_host_prof(),
                |m| {
                    m.take_host_prof().expect("attached");
                },
            ),
            (
                "durable store",
                |m| m.set_fault_plan(&crash_plan(1, CrashPoint::AtOp(u64::MAX), false)),
                |m| m.durability = Durability::default(),
            ),
            (
                "pending pressure entry",
                |m| m.set_pressure_schedule(vec![(1_000, 32)]),
                |m| {
                    m.tick_user(1_000);
                    m.touch(0, 8, false); // the slow path consumes the entry
                },
            ),
            (
                "dead disk",
                |m| {
                    let death = oocp_disk::DiskDeath { disk: 1, at: 1 };
                    m.set_fault_plan(&FaultPlan::none(7).with_disk_death(death));
                    let lost = m.try_touch(4096, 8, false); // page 1 lives on disk 1
                    assert!(matches!(lost, Err(OsError::DiskLost { disk: 1, .. })));
                },
                |m| m.redundancy = RedundancyState::default(),
            ),
        ];
        let observers: [(&str, Step); 5] = [
            ("sampler", |m| m.attach_sampler(MILLISECOND, 16)),
            ("metrics", |m| m.enable_metrics()),
            ("trace", |m| m.enable_trace(16)),
            ("policy", |m| {
                let readahead = oocp_policy::build(oocp_policy::PolicyKind::Readahead);
                m.set_policy(readahead.expect("readahead is a policy"));
            }),
            ("tenants", |m| {
                m.register_tenant(TenantSpec::unlimited(), 16 * 4096);
            }),
        ];
        let warm = || {
            let mut m = tiny();
            m.preload(0, 1);
            assert!(m.touch_is_hit(0, 8, false), "a preloaded page is hot");
            m
        };
        for (line, arm, disarm) in gate {
            let mut m = warm();
            arm(&mut m);
            let armed = [
                m.observe.host_prof.is_some(),
                m.durability.store.is_some(),
                !m.pressure.is_empty(),
                m.redundancy.dead_disk.is_some(),
            ];
            assert_eq!(armed.iter().filter(|&&a| a).count(), 1, "{line}: {armed:?}");
            assert!(!m.touch_is_hit(0, 8, false), "{line} armed");
            assert_eq!(m.strip(&[(0, 8, false)], 9, 0, 400).0, 0, "{line} armed");
            disarm(&mut m);
            assert!(m.touch_is_hit(0, 8, false), "{line} disarmed");
            assert_eq!(m.strip(&[(0, 8, false)], 9, 0, 400).0, 9, "{line} disarmed");
        }
        // The rebuild is the dead disk's own way back, but parity brings
        // the durable store with it, so it is shown on the field alone.
        let mut m = tiny_parity();
        m.note_disk_death(1, 0);
        assert!(m.redundancy.dead_disk.is_some());
        m.finish_rebuild();
        assert!(m.redundancy.dead_disk.is_none(), "rebuild finished");
        for (what, attach) in observers {
            let mut m = warm();
            attach(&mut m);
            assert!(m.touch_is_hit(0, 8, false), "{what} is not on the gate");
            assert_eq!(m.strip(&[(0, 8, false)], 9, 0, 400).0, 9, "{what}");
        }
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "access after the power loss")]
    fn access_after_the_power_loss_asserts() {
        let mut m = tiny();
        m.set_fault_plan(&crash_plan(4, CrashPoint::AtOp(0), false));
        m.load_f64(0);
        assert!(m.crashed_at().is_some(), "the first fault tripped it");
        m.load_f64(0);
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
