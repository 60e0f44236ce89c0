//! The user-level hint filter and its degraded-mode state machine —
//! the one implementation both front ends ([`crate::Runtime`] and the
//! tenant hub's per-tenant VM) delegate to.
//!
//! A filter is scoped by *data*: the tenant it filters for, that
//! tenant's [`TenantSpec`] and the segment its hints are clamped to. A
//! solo run is the implicit tenant 0, unlimited, over the whole address
//! space — for which every tenant-only rule below (segment clamp,
//! brownout entry, pressure sheds counted as probe errors) is a no-op
//! and [`Machine::tenant_bits_of`] is the shared bit vector.

use oocp_os::{Machine, PressureLevel, QosClass, Segment, TenantId, TenantSpec};
use oocp_sim::time::Ns;

use crate::{FilterMode, RtStats};

/// What the filter did with a prefetch-bearing hint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Never scanned: dropped while degraded, or clamped to nothing.
    Dropped,
    /// Every page was believed resident; no prefetch reached the OS.
    Filtered,
    /// The unfiltered suffix went to the OS in one system call.
    Issued,
}

pub(crate) struct HintFilter {
    pub(crate) stats: RtStats,
    mode: FilterMode,
    /// User-level cost of one bit-vector check (~1% of a hint syscall).
    pub(crate) check_ns: Ns,
    tenant: TenantId,
    spec: TenantSpec,
    /// One past the last page of the segment hints are clamped to.
    seg_end: u64,
    /// Degraded (demand-paging-only) mode engaged: the hint path was
    /// erroring, so hints are dropped at user level until probes show
    /// the path has recovered. Hints are non-binding, so this only
    /// costs time, never correctness.
    degraded: bool,
    /// Simulated time the current degraded episode began.
    degraded_since: Ns,
    /// Sliding window of recent hint-syscall outcomes, newest in bit 0
    /// (1 = the syscall observed a dropped hint).
    win_err: u32,
    /// Valid samples in `win_err` (saturates at [`Self::DEGRADE_WINDOW`]).
    win_len: u32,
    /// Consecutive clean probes observed while degraded.
    clean_probes: u32,
    /// Prefetch-bearing ops since the last probe while degraded.
    since_probe: u32,
    /// Hint operations seen (drives the periodic resync cadence).
    hint_seq: u64,
}

impl HintFilter {
    /// Cost of a hint dropped on a flag test (suppressed or degraded).
    pub(crate) const SUPPRESS_NS: Ns = 100;

    /// Sliding-window size for hint-path error observation.
    const DEGRADE_WINDOW: u32 = 32;

    /// Samples required before the error rate is trusted.
    pub(crate) const DEGRADE_MIN_SAMPLES: u32 = 8;

    /// Window error rate that triggers degraded mode: 1/2.
    /// (Entered when `2 * errors >= samples`.)
    const DEGRADE_NUM: u32 = 2;

    /// Prefetch-bearing ops between recovery probes while degraded.
    const PROBE_INTERVAL: u32 = 16;

    /// Consecutive clean probes required to leave degraded mode.
    pub(crate) const EXIT_CLEAN_PROBES: u32 = 4;

    /// Hint ops between periodic bit-vector resyncs (only performed
    /// when the installed fault plan can desync the vector).
    pub(crate) const RESYNC_INTERVAL: u64 = 256;

    /// A filter for `tenant`'s hints, clamped to `seg`.
    ///
    /// The per-check cost is derived from the machine: the paper reports
    /// that "the overhead of dropping an unnecessary prefetch in the
    /// run-time layer is roughly 1% as expensive as issuing it to the
    /// OS", and that *ratio* is what carries across platforms (a bit
    /// test is a couple of instructions on any machine).
    pub(crate) fn new(machine: &Machine, mode: FilterMode, tenant: TenantId, seg: Segment) -> Self {
        let params = machine.params();
        Self {
            stats: RtStats::default(),
            mode,
            check_ns: (params.hint_syscall_ns / 100).max(1),
            tenant,
            spec: machine.tenant_spec(tenant),
            seg_end: (seg.base + seg.bytes) / params.page_bytes,
            degraded: false,
            degraded_since: 0,
            win_err: 0,
            win_len: 0,
            clean_probes: 0,
            since_probe: 0,
            hint_seq: 0,
        }
    }

    /// Whether the filter is currently in degraded mode.
    pub(crate) fn degraded(&self) -> bool {
        self.degraded
    }

    /// A prefetch of `pages` pages at `addr`, bundled with a release
    /// when `rel` names one. Pages are checked until one is not
    /// believed resident; the remainder goes to the OS in one call, and
    /// a bundled release rides that call (or costs its own when the
    /// prefetch half was filtered away).
    #[inline(always)]
    pub(crate) fn hint(
        &mut self,
        m: &mut Machine,
        addr: u64,
        pages: u64,
        rel: Option<(u64, u64)>,
    ) -> Verdict {
        self.stats.prefetch_ops += 1;
        self.stats.release_ops += u64::from(rel.is_some());
        if self.begin_hint_op(m, true) {
            return Verdict::Dropped;
        }
        let start = m.page_of(addr);
        let pages = self.clamp_hint(m, start, pages);
        self.stats.prefetch_pages += pages;
        let mut k = 0;
        if self.mode == FilterMode::Enabled {
            // Pages are checked up to the first not believed resident.
            let bits = m.tenant_bits_of(self.tenant);
            while k < pages && bits.test(start + k) {
                k += 1;
            }
            self.stats.pages_filtered += k;
            self.check(m, (k + 1).min(pages));
        }
        self.stats.release_syscalls += u64::from(rel.is_some());
        let rel = rel.map(|(addr, n)| (m.page_of(addr), n));
        if k == pages {
            if let Some((rel_start, n)) = rel {
                m.sys_release(rel_start, n);
            }
            if pages == 0 {
                return Verdict::Dropped;
            }
            self.stats.ops_fully_filtered += 1;
            return Verdict::Filtered;
        }
        self.stats.prefetch_syscalls += 1;
        let errs = self.hint_errors(m);
        match rel {
            Some((rel_start, n)) => m.sys_prefetch_release(start + k, pages - k, rel_start, n),
            None => m.sys_prefetch(start + k, pages - k),
        }
        if self.mode == FilterMode::Enabled {
            let err = self.hint_errors(m) > errs;
            self.note_hint_outcome(m, err);
        }
        Verdict::Issued
    }

    /// A release of `pages` pages at `addr`. The raw page count goes to
    /// the OS: the hint charge is a function of the pages *named*, and
    /// the OS itself refuses to release pages the tenant does not own.
    pub(crate) fn release(&mut self, m: &mut Machine, addr: u64, pages: u64) {
        self.stats.release_ops += 1;
        // Releases cannot observe prefetch-read health, so they never
        // serve as recovery probes.
        if self.begin_hint_op(m, false) {
            return;
        }
        self.stats.release_syscalls += 1;
        m.sys_release(m.page_of(addr), pages);
    }

    /// Book `k` residency-bit checks, each a `tick_user` of its cost: in
    /// one step when the machine grants them as a strip with no
    /// references (no sampler row falls due inside), else one by one.
    #[inline]
    fn check(&mut self, m: &mut Machine, k: u64) {
        self.stats.bit_checks += k;
        if m.strip(&[], k, 0, self.check_ns).0 == k {
            m.strip_charge(k * self.check_ns, k);
        } else {
            (0..k).for_each(|_| m.tick_user(self.check_ns));
        }
    }

    /// Whether a prefetch would take the passive path — counted, its
    /// pages checked, dropped when every bit is set, nothing else
    /// changed or consulted: the filter on and healthy, no stale-bit
    /// fault plan whose resync cadence it would advance, and the shared
    /// bits its own.
    pub(crate) fn passive(&self, m: &Machine) -> bool {
        let shedding = match m.pressure_level() {
            PressureLevel::Nominal => false,
            PressureLevel::Elevated => self.spec.qos == QosClass::BestEffort,
            PressureLevel::Brownout => self.spec.qos != QosClass::Guaranteed,
        };
        self.mode == FilterMode::Enabled
            && !self.degraded
            && !shedding
            && !m.fault_plan().is_some_and(|p| p.bitvec_stale_prob > 0.0)
            && std::ptr::eq(m.tenant_bits_of(self.tenant), m.bits())
    }

    /// For how many iterations, `n` at most, a hint of `pages` pages at
    /// `addr + t·delta` on iteration `t` finds every bit it would test
    /// set and no page clamped off: walked by [`Machine::walk_pages`],
    /// as [`Machine::strip`] walks a reference over `Page::hot`.
    pub(crate) fn believed_resident(
        &self,
        m: &Machine,
        addr: u64,
        delta: i64,
        pages: u64,
        n: u64,
    ) -> u64 {
        let bits = m.tenant_bits_of(self.tenant);
        m.walk_pages(addr, delta, n, |first| {
            first.saturating_add(pages) <= self.seg_end
                && (first..first + pages).all(|p| bits.test(p))
        })
    }

    /// `ops` prefetches of `pages` pages in all that took the passive
    /// path and found every bit set, booked as [`HintFilter::hint`]
    /// books each.
    pub(crate) fn filtered(&mut self, m: &mut Machine, ops: u64, pages: u64) {
        self.stats.prefetch_ops += ops;
        self.stats.prefetch_pages += pages;
        self.stats.pages_filtered += pages;
        self.stats.ops_fully_filtered += ops;
        self.hint_seq += ops;
        self.check(m, pages);
    }

    /// Clamp a hint to the segment (hints near the end of an array may
    /// name pages past it; they are non-binding) and, for a best-effort
    /// tenant under elevated pressure, to
    /// [`oocp_os::ELEVATED_BEST_EFFORT_SLOTS`]: the arbiter's second
    /// lever.
    fn clamp_hint(&self, m: &Machine, start: u64, pages: u64) -> u64 {
        let mut pages = pages.min(self.seg_end.saturating_sub(start));
        if self.spec.qos == QosClass::BestEffort && m.pressure_level() == PressureLevel::Elevated {
            pages = pages.min(oocp_os::ELEVATED_BEST_EFFORT_SLOTS);
        }
        pages
    }

    /// The drops a hint syscall's health is judged by: pages the OS
    /// dropped on an I/O error — and, for non-guaranteed tenants, pages
    /// it shed under pressure.
    fn hint_errors(&self, m: &Machine) -> u64 {
        let os = m.stats();
        if self.spec.qos == QosClass::Guaranteed {
            os.hints_dropped_on_error
        } else {
            os.hints_dropped_on_error + os.hints_dropped_pressure
        }
    }

    /// Per-hint-op bookkeeping shared by all hint entry points.
    /// Returns `true` when the op must be dropped cheaply because the
    /// filter is degraded; `false` means "process the hint normally"
    /// (including the every-Nth probe issued while degraded).
    /// `probe_eligible` is set for prefetch-bearing ops — only those can
    /// observe hint-path health, so only those serve as probes.
    #[inline]
    fn begin_hint_op(&mut self, m: &mut Machine, probe_eligible: bool) -> bool {
        if self.mode != FilterMode::Enabled {
            return false;
        }
        self.hint_seq += 1;
        if self.hint_seq.is_multiple_of(Self::RESYNC_INTERVAL)
            && m.fault_plan().is_some_and(|p| p.bitvec_stale_prob > 0.0)
        {
            self.stats.periodic_resyncs += 1;
            m.resync_bits();
        }
        // The pressure arbiter's strongest lever: a brownout pushes
        // non-guaranteed tenants straight into demand-only mode; the
        // probing recovery below notices when pressure has passed.
        if !self.degraded
            && self.spec.qos != QosClass::Guaranteed
            && m.pressure_level() == PressureLevel::Brownout
        {
            self.enter_degraded(m);
        }
        if !self.degraded {
            return false;
        }
        if probe_eligible {
            self.since_probe += 1;
            if self.since_probe >= Self::PROBE_INTERVAL {
                self.since_probe = 0;
                return false; // issue this one for real, as a probe
            }
        }
        self.stats.hints_dropped_degraded += 1;
        m.tick_user(Self::SUPPRESS_NS);
        true
    }

    /// Record the outcome of a prefetch syscall (see
    /// [`Self::hint_errors`]). Drives both the entry window and the
    /// probe-based exit path.
    fn note_hint_outcome(&mut self, m: &mut Machine, err: bool) {
        if self.degraded {
            self.stats.degraded_probes += 1;
            if err {
                self.clean_probes = 0;
            } else {
                self.clean_probes += 1;
                if self.clean_probes >= Self::EXIT_CLEAN_PROBES {
                    self.exit_degraded(m);
                }
            }
        } else {
            // Shifting past the window width drops the oldest sample.
            self.win_err = (self.win_err << 1) | err as u32;
            self.win_len = (self.win_len + 1).min(Self::DEGRADE_WINDOW);
            if self.win_len >= Self::DEGRADE_MIN_SAMPLES
                && Self::DEGRADE_NUM * self.win_err.count_ones() >= self.win_len
            {
                self.enter_degraded(m);
            }
        }
    }

    /// Fall back to demand-paging-only mode.
    fn enter_degraded(&mut self, m: &mut Machine) {
        self.degraded = true;
        self.degraded_since = m.now();
        self.clean_probes = 0;
        self.since_probe = 0;
        self.stats.degraded_entries += 1;
        m.note_degraded(true);
        // A reactive policy injecting readahead would defeat the whole
        // point of demand-only mode; pause it for the episode (the
        // machine ignores this when tenants share it).
        m.set_policy_enabled(false);
    }

    /// Resume hinting: the probe streak showed the path is healthy.
    /// The bit vector may have drifted while hints were erroring, so it
    /// is resynced before the filter trusts it again.
    fn exit_degraded(&mut self, m: &mut Machine) {
        self.degraded = false;
        self.stats.degraded_exits += 1;
        self.stats.degraded_ns += m.now().saturating_sub(self.degraded_since);
        self.win_err = 0;
        self.win_len = 0;
        m.resync_bits();
        m.note_degraded(false);
        m.set_policy_enabled(true);
    }
}
