//! The run-time layer: user-level filtering of compiler-inserted hints.
//!
//! The paper found that the compiler must conservatively insert far more
//! prefetches than are necessary (its loop-level analysis underestimates
//! how much data main memory retains), and that issuing each of those as
//! a system call erases the benefit — half of the applications ran
//! *slower* than the original without this layer (Figure 4(c)). The fix
//! is a user-level filter: the OS shares one page of residency bits with
//! the application, and the run-time layer drops prefetches whose pages
//! are believed resident for ~1% of the cost of a system call.
//!
//! For block prefetches the layer checks each page until the first one
//! not in memory, then passes all remaining pages to the OS in a single
//! call — "at most one system call is required for a block prefetch".
//!
//! [`Runtime`] wraps the simulated machine and implements
//! [`oocp_ir::PagedVm`], so the interpreter's loads, stores, and hints
//! flow through here exactly as compiled application code would.

use oocp_ir::vm::StripRef;
use oocp_ir::{ArrayBinding, ArrayData, PagedVm, Program};
use oocp_os::{Machine, MachineParams, Segment};
use oocp_sim::time::{Ns, MICROSECOND};

mod filter;
pub mod tenants;

use filter::{HintFilter, Verdict};

pub use tenants::{segment_checksum, HubData, HubResult, TenantHub, TenantOutcome, TenantProgram};

/// Whether the user-level filter is active.
///
/// `Disabled` reproduces Figure 4(c)'s "no run-time layer" configuration:
/// every compiler-inserted hint becomes a system call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterMode {
    /// Filter hints through the shared bit vector (normal operation).
    Enabled,
    /// Pass every hint to the OS (ablation).
    Disabled,
}

/// Counters kept by the run-time layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RtStats {
    /// Prefetch operations executed by the application (compiler-
    /// inserted dynamic prefetches, before any filtering).
    pub prefetch_ops: u64,
    /// Pages named by those operations.
    pub prefetch_pages: u64,
    /// Pages dropped at user level because their bit said "in memory"
    /// (Figure 4(b), right column).
    pub pages_filtered: u64,
    /// Prefetch operations fully satisfied by the filter (no syscall).
    pub ops_fully_filtered: u64,
    /// Prefetch system calls actually issued.
    pub prefetch_syscalls: u64,
    /// Release operations executed by the application.
    pub release_ops: u64,
    /// Release system calls issued (bundled calls count once).
    pub release_syscalls: u64,
    /// Bit-vector page checks performed.
    pub bit_checks: u64,
    /// Hint operations suppressed by the in-core adaptive mode.
    pub suppressed_ops: u64,
    /// Times the runtime fell back to demand-paging-only mode because
    /// the hint path was erroring.
    pub degraded_entries: u64,
    /// Times the runtime recovered from degraded mode.
    pub degraded_exits: u64,
    /// Simulated time spent in completed degraded episodes.
    pub degraded_ns: Ns,
    /// Hint operations dropped at user level while degraded (a flag
    /// test, cheaper than even a bit-vector check).
    pub hints_dropped_degraded: u64,
    /// Probe hints issued while degraded to test whether the hint path
    /// has recovered.
    pub degraded_probes: u64,
    /// Bit-vector resyncs triggered by the periodic hint-op cadence
    /// (recovery resyncs on degraded-mode exit are counted by the OS).
    pub periodic_resyncs: u64,
}

impl RtStats {
    /// Fraction of compiler-inserted prefetched pages that the filter
    /// dropped (Figure 4(b), right column).
    pub fn filtered_fraction(&self) -> f64 {
        if self.prefetch_pages == 0 {
            0.0
        } else {
            self.pages_filtered as f64 / self.prefetch_pages as f64
        }
    }

    /// Fraction of hint operations dropped because the runtime was in
    /// degraded mode. Zero when no hints ran.
    pub fn degraded_drop_fraction(&self) -> f64 {
        let ops = self.prefetch_ops + self.release_ops;
        if ops == 0 {
            0.0
        } else {
            self.hints_dropped_degraded as f64 / ops as f64
        }
    }

    /// Mean simulated length of a completed degraded episode. Zero when
    /// the runtime never recovered from one.
    pub fn mean_degraded_episode_ns(&self) -> f64 {
        if self.degraded_exits == 0 {
            0.0
        } else {
            self.degraded_ns as f64 / self.degraded_exits as f64
        }
    }
}

/// The run-time layer bound to a machine: the hint filter scoped to
/// the whole address space, plus in-core adaptive suppression.
pub struct Runtime {
    machine: Machine,
    filter: HintFilter,
    /// In-core adaptive mode (the paper's section 4.3.1 future work):
    /// when the data set fits in memory and the cold faults are done,
    /// suppress hint processing entirely.
    adaptive: bool,
    /// Consecutive fully-filtered prefetch operations observed.
    filtered_streak: u32,
    /// Suppression engaged (terminal for the run).
    suppressing: bool,
}

impl Runtime {
    /// Default per-check cost on the paper platform: 2.5 us, ~1% of the
    /// default hint syscall. On other platforms the cost scales with
    /// the machine's hint-syscall cost.
    pub const DEFAULT_CHECK_NS: Ns = 2_500;

    /// Wrap a machine, registering the shared bit vector.
    pub fn new(machine: Machine, mode: FilterMode) -> Self {
        // Registration itself is a one-time syscall; its cost is noise
        // and is folded into program startup (not modeled).
        let whole = Segment {
            base: 0,
            bytes: machine.total_pages() * machine.params().page_bytes,
        };
        Self {
            filter: HintFilter::new(&machine, mode, 0, whole),
            machine,
            adaptive: false,
            filtered_streak: 0,
            suppressing: false,
        }
    }

    /// Build a machine sized for `prog`'s data set and wrap it.
    ///
    /// Returns the runtime together with the array bindings laid out by
    /// [`ArrayBinding::sequential`] (the layout the machine's backing
    /// store uses).
    pub fn for_program(
        params: MachineParams,
        prog: &Program,
        mode: FilterMode,
    ) -> (Self, Vec<ArrayBinding>) {
        let (binds, bytes) = ArrayBinding::sequential(prog, params.page_bytes);
        let machine = Machine::new(params, bytes);
        (Self::new(machine, mode), binds)
    }

    /// Override the per-check cost.
    pub fn with_check_ns(mut self, ns: Ns) -> Self {
        self.filter.check_ns = ns;
        self
    }

    /// Enable in-core adaptive suppression (paper section 4.3.1): if the
    /// data set fits in memory, once a run of prefetches has been fully
    /// filtered (the cold faults are in), stop processing hints at all.
    /// The suppression test itself costs two instructions (~100 ns).
    pub fn with_adaptive(mut self, on: bool) -> Self {
        self.adaptive = on;
        self
    }

    /// Enable the machine's observability layer (latency histograms and
    /// the prefetch-lifecycle ledger). Timing-neutral; see
    /// [`Machine::enable_metrics`].
    pub fn with_metrics(mut self) -> Self {
        self.machine.enable_metrics();
        self
    }

    /// Snapshot of the machine's observability state, if enabled.
    pub fn metrics_report(&self) -> Option<oocp_os::MetricsReport> {
        self.machine.metrics_report()
    }

    /// Figure-5 attribution of the machine's elapsed time (available
    /// with or without metrics enabled).
    pub fn attribution(&self) -> oocp_os::TimeAttribution {
        self.machine.attribution()
    }

    /// Consecutive fully-filtered operations before suppression engages.
    const SUPPRESS_STREAK: u32 = 32;

    /// Whether adaptive suppression may ever engage for this run.
    fn in_core(&self) -> bool {
        self.machine.total_pages() + self.machine.params().high_water
            <= self.machine.params().resident_limit
    }

    /// Record a fully-filtered op; engage suppression after a streak.
    fn note_fully_filtered(&mut self) {
        if self.adaptive && self.in_core() {
            self.filtered_streak += 1;
            if self.filtered_streak >= Self::SUPPRESS_STREAK {
                self.suppressing = true;
            }
        }
    }

    /// Fast path for a suppressed hint carrying the given operation
    /// counts; `false` when suppression is not engaged.
    fn suppress(&mut self, prefetch_ops: u64, release_ops: u64) -> bool {
        if self.suppressing {
            let stats = &mut self.filter.stats;
            stats.prefetch_ops += prefetch_ops;
            stats.release_ops += release_ops;
            stats.suppressed_ops += 1;
            self.machine.tick_user(HintFilter::SUPPRESS_NS);
        }
        self.suppressing
    }

    /// Whether the runtime is currently in degraded mode.
    pub fn degraded(&self) -> bool {
        self.filter.degraded()
    }

    /// Run-time-layer counters.
    pub fn stats(&self) -> &RtStats {
        &self.filter.stats
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the wrapped machine (warm-starting, finishing).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Consume the runtime, returning the machine.
    pub fn into_machine(self) -> Machine {
        self.machine
    }
}

impl PagedVm for Runtime {
    fn page_bytes(&self) -> u64 {
        self.machine.params().page_bytes
    }

    #[inline]
    fn tick_user(&mut self, ns: u64) {
        self.machine.tick_user(ns);
    }

    #[inline]
    fn load_f64(&mut self, addr: u64) -> f64 {
        self.machine.load_f64(addr)
    }

    #[inline]
    fn store_f64(&mut self, addr: u64, v: f64) {
        self.machine.store_f64(addr, v);
    }

    #[inline]
    fn load_i64(&mut self, addr: u64) -> i64 {
        self.machine.load_i64(addr)
    }

    #[inline]
    fn store_i64(&mut self, addr: u64, v: i64) {
        self.machine.store_i64(addr, v);
    }

    #[inline]
    fn strip(&mut self, refs: &[StripRef], want: u64, lead: u64, iter: u64) -> (u64, &mut [u8]) {
        self.machine.strip(refs, want, lead, iter)
    }

    #[inline]
    fn strip_charge(&mut self, ns: u64, ticks: u64, _accesses: u64) {
        self.machine.strip_charge(ns, ticks);
    }

    fn prefetch(&mut self, addr: u64, pages: u64) {
        if self.suppress(1, 0) {
            return;
        }
        match self.filter.hint(&mut self.machine, addr, pages, None) {
            Verdict::Filtered => self.note_fully_filtered(),
            Verdict::Issued => self.filtered_streak = 0,
            Verdict::Dropped => {}
        }
    }

    fn release(&mut self, addr: u64, pages: u64) {
        if self.suppress(0, 1) {
            return;
        }
        self.filter.release(&mut self.machine, addr, pages);
    }

    fn prefetch_release(&mut self, pf_addr: u64, pf_pages: u64, rel_addr: u64, rel_pages: u64) {
        if self.suppress(1, 1) {
            return;
        }
        let rel = Some((rel_addr, rel_pages));
        self.filter.hint(&mut self.machine, pf_addr, pf_pages, rel);
    }
}

impl ArrayData for Runtime {
    fn peek_f64(&self, addr: u64) -> f64 {
        self.machine.peek_f64(addr)
    }

    fn poke_f64(&mut self, addr: u64, v: f64) {
        self.machine.poke_f64(addr, v);
    }

    fn peek_i64(&self, addr: u64) -> i64 {
        self.machine.peek_i64(addr)
    }

    fn poke_i64(&mut self, addr: u64, v: i64) {
        self.machine.poke_i64(addr, v);
    }
}

/// One microsecond, re-exported for check-cost sweeps in benches.
pub const US: Ns = MICROSECOND;

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(mode: FilterMode) -> Runtime {
        let mut p = MachineParams::small();
        p.resident_limit = 64;
        p.demand_reserve = 4;
        p.low_water = 8;
        p.high_water = 16;
        Runtime::new(Machine::new(p, 256 * 4096), mode)
    }

    #[test]
    fn filter_drops_resident_prefetch_without_syscall() {
        let mut r = rt(FilterMode::Enabled);
        r.load_f64(0); // page 0 resident
        let sys_before = r.machine().stats().hint_syscalls;
        r.prefetch(0, 1);
        assert_eq!(r.stats().pages_filtered, 1);
        assert_eq!(r.stats().ops_fully_filtered, 1);
        assert_eq!(r.machine().stats().hint_syscalls, sys_before);
    }

    #[test]
    fn filter_passes_nonresident_prefetch() {
        let mut r = rt(FilterMode::Enabled);
        r.prefetch(0, 1);
        assert_eq!(r.stats().pages_filtered, 0);
        assert_eq!(r.stats().prefetch_syscalls, 1);
        assert_eq!(r.machine().stats().prefetch_pages_issued, 1);
    }

    #[test]
    fn block_prefetch_truncates_to_nonresident_suffix() {
        let mut r = rt(FilterMode::Enabled);
        // Make pages 0 and 1 resident; 2 and 3 absent.
        r.load_f64(0);
        r.load_f64(4096);
        r.prefetch(0, 4);
        assert_eq!(r.stats().pages_filtered, 2);
        assert_eq!(r.stats().prefetch_syscalls, 1);
        // The OS saw a 2-page request starting at page 2.
        assert_eq!(r.machine().stats().prefetch_pages_requested, 2);
        assert_eq!(r.machine().stats().prefetch_pages_issued, 2);
    }

    #[test]
    fn one_syscall_max_per_block_even_with_interior_holes() {
        let mut r = rt(FilterMode::Enabled);
        // Page 0 absent, page 1 resident, page 2 absent: scan stops at
        // page 0 and passes all 3 pages to the OS; the OS then counts
        // the resident one as unnecessary.
        r.load_f64(4096);
        r.prefetch(0, 3);
        assert_eq!(r.stats().prefetch_syscalls, 1);
        assert_eq!(r.machine().stats().prefetch_pages_requested, 3);
        assert_eq!(r.machine().stats().prefetch_pages_unnecessary, 1);
        assert_eq!(r.machine().stats().prefetch_pages_issued, 2);
    }

    #[test]
    fn disabled_mode_always_syscalls() {
        let mut r = rt(FilterMode::Disabled);
        r.load_f64(0);
        r.prefetch(0, 1);
        assert_eq!(r.stats().pages_filtered, 0);
        assert_eq!(r.stats().prefetch_syscalls, 1);
        assert_eq!(r.machine().stats().prefetch_pages_unnecessary, 1);
    }

    #[test]
    fn filter_cost_is_charged_as_user_time() {
        let mut r = rt(FilterMode::Enabled);
        r.load_f64(0);
        let user_before = r.machine().breakdown().user;
        r.prefetch(0, 1);
        let user_after = r.machine().breakdown().user;
        assert_eq!(user_after - user_before, Runtime::DEFAULT_CHECK_NS);
    }

    #[test]
    fn filter_check_is_two_orders_cheaper_than_syscall() {
        let r = rt(FilterMode::Enabled);
        let syscall = r.machine().params().hint_syscall_ns;
        assert!(r.filter.check_ns * 50 <= syscall + r.machine().params().hint_per_page_ns);
    }

    #[test]
    fn bundled_call_with_filtered_prefetch_still_releases() {
        let mut r = rt(FilterMode::Enabled);
        r.load_f64(0); // page 0 resident (prefetch target)
        r.load_f64(4096); // page 1 resident (release target)
        r.prefetch_release(0, 1, 4096, 1);
        assert_eq!(r.stats().ops_fully_filtered, 1);
        assert_eq!(r.machine().stats().release_pages_effective, 1);
    }

    #[test]
    fn filtered_fraction_math() {
        let mut r = rt(FilterMode::Enabled);
        r.load_f64(0);
        r.prefetch(0, 1); // filtered
        r.prefetch(8192, 1); // issued
        assert!((r.stats().filtered_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn adaptive_mode_suppresses_after_streak_when_in_core() {
        // 64-frame machine, 16-page space: in-core.
        let mut p = MachineParams::small();
        p.resident_limit = 64;
        p.demand_reserve = 4;
        p.low_water = 8;
        p.high_water = 16;
        let mut r =
            Runtime::new(Machine::new(p, 16 * 4096), FilterMode::Enabled).with_adaptive(true);
        // Fault everything in (the cold phase).
        for pg in 0..16u64 {
            r.load_f64(pg * 4096);
        }
        // Fully-filtered prefetches build the streak...
        for _ in 0..Runtime::SUPPRESS_STREAK {
            r.prefetch(0, 1);
        }
        let checks_before = r.stats().bit_checks;
        // ...after which hints are suppressed without even a bit check.
        for _ in 0..100 {
            r.prefetch(0, 1);
        }
        assert_eq!(r.stats().suppressed_ops, 100);
        assert_eq!(r.stats().bit_checks, checks_before);
    }

    #[test]
    fn adaptive_mode_never_engages_out_of_core() {
        let mut r = rt(FilterMode::Enabled); // 64 frames, 256 pages: out of core
        r = r.with_adaptive(true);
        r.load_f64(0);
        for _ in 0..(Runtime::SUPPRESS_STREAK * 2) {
            r.prefetch(0, 1); // fully filtered every time
        }
        assert_eq!(r.stats().suppressed_ops, 0, "must not suppress out of core");
    }

    #[test]
    fn degrades_under_hint_errors_and_recovers_after_brownout() {
        use oocp_os::{Brownout, FaultPlan};
        let mut p = MachineParams::small();
        p.resident_limit = 64;
        p.demand_reserve = 4;
        p.low_water = 8;
        p.high_water = 16;
        let brownout_end: Ns = 20_000_000; // 20 ms
        let mut m = Machine::new(p, 256 * 4096);
        m.set_fault_plan(&FaultPlan::none(7).with_brownout(Brownout {
            disk: None,
            from: 0,
            until: brownout_end,
        }));
        let mut r = Runtime::new(m, FilterMode::Enabled);
        // Every prefetch syscall fails during the brownout; the error
        // window fills and the runtime falls back to demand paging.
        for pg in 0..HintFilter::DEGRADE_MIN_SAMPLES as u64 {
            r.prefetch(pg * 4096, 1);
        }
        assert!(r.degraded(), "window full of errors must degrade");
        assert_eq!(r.stats().degraded_entries, 1);
        // A demand read retries through the brownout, carrying the
        // clock past its end.
        r.load_f64(0);
        assert!(r.machine().now() >= brownout_end);
        // Hints keep flowing; most are dropped at user level, but every
        // PROBE_INTERVAL-th is issued for real. Four clean probes in a
        // row end the episode.
        let mut i = 1u64;
        while r.degraded() && i < 512 {
            r.prefetch((i % 200) * 4096, 1);
            i += 1;
        }
        assert!(!r.degraded(), "probes past the brownout must recover");
        assert_eq!(r.stats().degraded_exits, 1);
        assert!(r.stats().degraded_ns > 0);
        assert!(r.stats().hints_dropped_degraded > 0);
        assert!(r.stats().degraded_probes >= HintFilter::EXIT_CLEAN_PROBES as u64);
        // Recovery resynced the shared bit vector.
        assert!(r.machine().stats().bitvec_resyncs >= 1);
        assert!(r.stats().mean_degraded_episode_ns() > 0.0);
        assert!(r.stats().degraded_drop_fraction() > 0.0);
    }

    #[test]
    fn degraded_mode_drops_releases_without_syscalls() {
        use oocp_os::{Brownout, FaultPlan};
        let mut p = MachineParams::small();
        p.resident_limit = 64;
        p.demand_reserve = 4;
        p.low_water = 8;
        p.high_water = 16;
        let mut m = Machine::new(p, 256 * 4096);
        m.set_fault_plan(&FaultPlan::none(11).with_brownout(Brownout {
            disk: None,
            from: 0,
            until: Ns::MAX,
        }));
        let mut r = Runtime::new(m, FilterMode::Enabled);
        for pg in 0..HintFilter::DEGRADE_MIN_SAMPLES as u64 {
            r.prefetch(pg * 4096, 1);
        }
        assert!(r.degraded());
        let sys_before = r.stats().release_syscalls;
        for pg in 0..10u64 {
            r.release(pg * 4096, 1);
        }
        assert_eq!(r.stats().release_ops, 10);
        assert_eq!(
            r.stats().release_syscalls,
            sys_before,
            "no syscalls while degraded"
        );
        assert_eq!(r.stats().hints_dropped_degraded, 10);
    }

    #[test]
    fn periodic_resync_runs_on_hint_cadence_under_staleness() {
        use oocp_os::FaultPlan;
        let mut p = MachineParams::small();
        p.resident_limit = 64;
        p.demand_reserve = 4;
        p.low_water = 8;
        p.high_water = 16;
        let mut m = Machine::new(p, 256 * 4096);
        m.set_fault_plan(&FaultPlan::none(13).with_bitvec_staleness(1.0));
        let mut r = Runtime::new(m, FilterMode::Enabled);
        for i in 0..HintFilter::RESYNC_INTERVAL {
            r.prefetch((i % 200) * 4096, 1);
        }
        assert_eq!(r.stats().periodic_resyncs, 1);
        assert!(r.machine().stats().bitvec_resyncs >= 1);
        // Without staleness in the plan the cadence stays quiet.
        let m2 = Machine::new(p, 256 * 4096);
        let mut r2 = Runtime::new(m2, FilterMode::Enabled);
        for i in 0..HintFilter::RESYNC_INTERVAL {
            r2.prefetch((i % 200) * 4096, 1);
        }
        assert_eq!(r2.stats().periodic_resyncs, 0);
    }

    #[test]
    fn fault_free_runs_never_degrade() {
        let mut r = rt(FilterMode::Enabled);
        for i in 0..500u64 {
            r.prefetch((i % 250) * 4096, 1);
            if i % 3 == 0 {
                r.release((i % 250) * 4096, 1);
            }
        }
        assert!(!r.degraded());
        assert_eq!(r.stats().degraded_entries, 0);
        assert_eq!(r.stats().hints_dropped_degraded, 0);
        assert_eq!(r.stats().degraded_drop_fraction(), 0.0);
        assert_eq!(r.stats().mean_degraded_episode_ns(), 0.0);
    }

    #[test]
    fn for_program_lays_out_and_sizes_machine() {
        let mut prog = Program::new("p");
        prog.array("x", oocp_ir::ElemType::F64, vec![1000]);
        prog.array("y", oocp_ir::ElemType::F64, vec![1000]);
        let (rt, binds) = Runtime::for_program(MachineParams::small(), &prog, FilterMode::Enabled);
        assert_eq!(binds.len(), 2);
        assert_eq!(binds[1].base % 4096, 0);
        assert!(rt.machine().total_pages() >= 4);
    }
}
