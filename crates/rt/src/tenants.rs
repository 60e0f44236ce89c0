//! Multi-tenant co-scheduling hub: N IR programs interleaved on one
//! shared machine.
//!
//! The paper models one out-of-core application owning the whole
//! machine. This module turns the same substrate into a *multi-tenant*
//! machine: each tenant is an IR program with its own address-space
//! segment, residency bit vector, QoS class, and quotas
//! ([`TenantSpec`]), all sharing one free list, one pageout daemon, and
//! one disk array on a single simulated clock.
//!
//! # Interleaving model
//!
//! One loop on the calling thread: pick a tenant round-robin, step its
//! resumable interpreter ([`oocp_ir::Vm::step`]) until the tenant's VM
//! parks it, pick again. A VM parks in two cases, both functions of
//! simulated state alone — the tenant's slice of [`PagedVm`] calls ran
//! out, or a demand fault blocked — so co-scheduled runs are exactly
//! reproducible, and a tenant's panic is the hub's.
//!
//! A tenant that hard-faults uses the machine's non-blocking touch
//! ([`Machine::touch_nb`]): all fault bookkeeping happens at block
//! time, the tenant parks with the access still to make, and the clock
//! only advances idle when *every* tenant is blocked on disk
//! ([`Machine::advance_idle_to`]). Driven with a single tenant this
//! degenerates to exactly the classic blocking path, so solo-via-hub
//! runs are bit- and cycle-identical to [`crate::Runtime`] runs.
//!
//! # Graceful degradation
//!
//! Each tenant carries its own instance of the crate's one hint filter
//! and degraded-mode state machine — the very code [`crate::Runtime`]
//! runs, scoped to the tenant's id, [`TenantSpec`] and segment. That
//! scope is what switches on the tenant-only rules: hints are clamped
//! to the segment and the pipelining-depth quota, the pressure arbiter
//! pushes non-guaranteed tenants into demand-only degraded mode
//! whenever global pressure reaches brownout, and their probes count
//! pressure sheds as errors, so a clean streak means the pressure has
//! passed as well as the faults.
//!
//! # Crash (kill) modeling
//!
//! A tenant may be killed after a fixed number of VM operations: from
//! that point its VM methods are no-ops (loads return zero) and its
//! interpreter finishes at native speed with zero simulated cost. Its
//! resident pages linger until the pageout daemon reclaims them —
//! exactly what happens to a SIGKILLed process's page cache.

use oocp_ir::{ArrayBinding, ArrayData, CostModel, PagedVm, Park, Program, Vm};
use oocp_os::{
    ConfigError, Machine, MachineParams, MetricsReport, OsStats, Segment, TenantSpec, TenantStats,
    TimeAttribution, Touch,
};
use oocp_sim::time::{Ns, TimeBreakdown};

use crate::filter::HintFilter;
use crate::{FilterMode, RtStats};

/// One tenant's program and policy, as submitted to the hub.
pub struct TenantProgram {
    /// The (already compiled, if desired) program to execute.
    pub prog: Program,
    /// Runtime parameter values, one per program parameter.
    pub params: Vec<i64>,
    /// QoS class and quotas.
    pub spec: TenantSpec,
    /// Whether the user-level hint filter is active for this tenant.
    pub mode: FilterMode,
    /// Kill the tenant after this many VM operations (crash modeling).
    pub kill_at_op: Option<u64>,
}

impl TenantProgram {
    /// A guaranteed, unlimited, filtered tenant — the default citizen.
    pub fn new(prog: Program, params: Vec<i64>) -> Self {
        Self {
            prog,
            params,
            spec: TenantSpec::unlimited(),
            mode: FilterMode::Enabled,
            kill_at_op: None,
        }
    }

    /// Same tenant with a different policy.
    pub fn with_spec(mut self, spec: TenantSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Same tenant, killed after `n` VM operations.
    pub fn with_kill_at(mut self, n: u64) -> Self {
        self.kill_at_op = Some(n);
        self
    }
}

/// Per-tenant outcome of a co-scheduled run.
#[derive(Clone, Debug)]
pub struct TenantOutcome {
    /// FNV-1a checksum of the tenant's final segment contents,
    /// bit-comparable to a solo run of the same program (segments are
    /// page-aligned and programs address arrays relative to their
    /// bindings, so the byte images coincide).
    pub checksum: u64,
    /// Whether the tenant was killed mid-run.
    pub killed: bool,
    /// Simulated time the tenant's interpreter finished.
    pub finished_at: Ns,
    /// Exact 95th-percentile demand stall the tenant experienced:
    /// the page-in service time from blocking to arrival. CPU queueing
    /// behind other tenants after the page lands is scheduler wait,
    /// not demand stall (solo runs resume at arrival, so the two
    /// definitions coincide there).
    pub demand_stall_p95_ns: Ns,
    /// Demand-stall episodes sampled.
    pub demand_stalls: u64,
    /// Frames the tenant still holds (active resident + in-flight)
    /// after the run finished — the quota-enforcement witness.
    pub resident_frames: u64,
    /// The machine's per-tenant counters (faults, drops, evictions).
    pub os: TenantStats,
    /// The tenant's user-level filter counters.
    pub rt: RtStats,
}

/// Whole-machine outcome of a co-scheduled run.
#[derive(Clone, Debug)]
pub struct HubResult {
    /// End-to-end simulated time.
    pub elapsed_ns: Ns,
    /// Machine time ledger (user / fault / prefetch / idle).
    pub time: TimeBreakdown,
    /// Shared OS counters.
    pub os: OsStats,
    /// Figure-5 attribution of the elapsed time.
    pub attr: TimeAttribution,
    /// Observability snapshot, if metrics were enabled.
    pub obs: Option<MetricsReport>,
    /// Per-tenant outcomes, in registration order.
    pub tenants: Vec<TenantOutcome>,
}

/// Scheduler state of one tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Run {
    /// Runnable (or currently being stepped).
    Ready,
    /// Blocked on a demand read completing at the given time.
    Blocked(Ns),
    /// Program halted.
    Done,
}

/// Pick the next tenant to step (`None` once all are done), `rr` being
/// the round-robin cursor: the last tenant picked. Every call site is a
/// deterministic point in simulated time, so the schedule is a pure
/// function of program behaviour.
fn schedule(machine: &mut Machine, tenants: &mut [Tenant], rr: &mut usize) -> Option<usize> {
    let n = tenants.len();
    loop {
        let now = machine.now();
        let runnable = |t: &usize| match tenants[*t].run {
            Run::Ready => true,
            Run::Blocked(u) => u <= now,
            Run::Done => false,
        };
        if let Some(t) = (1..=n).map(|k| (*rr + k) % n).find(runnable) {
            tenants[t].run = Run::Ready;
            *rr = t;
            machine.set_tenant(t as u32);
            return Some(t);
        }
        // No tenant is runnable. If any are blocked, the whole machine
        // is waiting on disk: advance the clock (charged as idle) to
        // the earliest completion and try again. Otherwise all are
        // done.
        let next = tenants
            .iter()
            .filter_map(|t| match t.run {
                Run::Blocked(u) => Some(u),
                _ => None,
            })
            .min();
        machine.advance_idle_to(next?);
    }
}

/// VM calls between cooperative yields. Small enough that a
/// compute-bound tenant cannot starve its neighbours, large enough
/// that scheduling is noise.
const OPS_PER_SLICE: u32 = 256;

/// What one tenant carries from slice to slice: its scheduler state and
/// hint filter, plus kill and timeslice counters.
struct Tenant {
    run: Run,
    filter: HintFilter,
    kill_at_op: Option<u64>,
    ops: u64,
    ops_since_yield: u32,
    killed: bool,
    /// Page-in service time of the demand access in progress, summed
    /// over its blocked attempts (`Some` from the first block until
    /// the access goes through).
    io_wait: Option<Ns>,
    /// Demand-stall samples (exact, for honest p95s).
    stalls: Vec<Ns>,
    /// The interpreter's next answer from [`PagedVm::parked`].
    park: Option<Park>,
    /// Simulated time the program halted.
    finished_at: Ns,
}

/// One tenant's virtual machine for one slice: the tenant bound to the
/// shared machine.
struct TenantVm<'a> {
    machine: &'a mut Machine,
    t: &'a mut Tenant,
}

impl TenantVm<'_> {
    /// Count one VM operation; returns `true` when the op must be
    /// swallowed because the tenant is (now) dead.
    fn note_op(&mut self) -> bool {
        let t = &mut *self.t;
        if t.killed {
            return true;
        }
        // An access made again after blocking was counted the first time.
        if t.io_wait.is_some() {
            return false;
        }
        t.ops += 1;
        if t.kill_at_op.is_some_and(|k| t.ops > k) {
            t.killed = true;
            return true;
        }
        false
    }

    /// End-of-op bookkeeping: park after a full slice.
    fn maybe_yield(&mut self) {
        self.t.ops_since_yield += 1;
        if self.t.ops_since_yield >= OPS_PER_SLICE {
            self.t.ops_since_yield = 0;
            self.t.park = Some(Park::After);
        }
    }

    /// Demand-touch; `false` when the fault blocked, the tenant is
    /// parked on it and the access has to be made again.
    fn touch(&mut self, addr: u64, len: u64, write: bool) -> bool {
        let t = &mut *self.t;
        match self.machine.touch_nb(addr, len, write) {
            Ok(Touch::Done { .. }) => {
                // The stall sample is the page-in *service* time: from
                // blocking to the page's arrival. Alone on the machine
                // the tenant also resumes at exactly that moment, so the
                // sample equals the wall-clock wait; co-scheduled, any
                // further delay before the interpreter runs again is CPU
                // queueing behind other tenants — scheduler wait, not
                // demand stall, and not what the disk scheduler and
                // quotas are answerable for.
                t.stalls.extend(t.io_wait.take());
                true
            }
            Ok(Touch::Blocked { until }) => {
                *t.io_wait.get_or_insert(0) += until.saturating_sub(self.machine.now());
                t.run = Run::Blocked(until);
                t.park = Some(Park::Redo);
                false
            }
            Err(e) => panic!("page-in failed: {e}"),
        }
    }
}

// A demand access moves its data with its touch, inside the same slice:
// whatever snapshots the image between two slices (a durable or parity
// write-back) sees every store the clock has been charged for.
impl PagedVm for TenantVm<'_> {
    const PARKS: bool = true;

    fn parked(&mut self) -> Option<Park> {
        self.t.park.take()
    }

    fn page_bytes(&self) -> u64 {
        self.machine.params().page_bytes
    }

    fn tick_user(&mut self, ns: u64) {
        if self.note_op() {
            return;
        }
        self.machine.tick_user(ns);
        self.maybe_yield();
    }

    fn load_f64(&mut self, addr: u64) -> f64 {
        if self.note_op() || !self.touch(addr, 8, false) {
            return 0.0;
        }
        let v = self.machine.peek_f64(addr);
        self.maybe_yield();
        v
    }

    fn store_f64(&mut self, addr: u64, v: f64) {
        if self.note_op() || !self.touch(addr, 8, true) {
            return;
        }
        self.machine.poke_f64(addr, v);
        self.maybe_yield();
    }

    fn load_i64(&mut self, addr: u64) -> i64 {
        if self.note_op() || !self.touch(addr, 8, false) {
            return 0;
        }
        let v = self.machine.peek_i64(addr);
        self.maybe_yield();
        v
    }

    fn store_i64(&mut self, addr: u64, v: i64) {
        if self.note_op() || !self.touch(addr, 8, true) {
            return;
        }
        self.machine.poke_i64(addr, v);
        self.maybe_yield();
    }

    fn prefetch(&mut self, addr: u64, pages: u64) {
        if self.note_op() {
            return;
        }
        self.t.filter.hint(self.machine, addr, pages, None);
        self.maybe_yield();
    }

    fn release(&mut self, addr: u64, pages: u64) {
        if self.note_op() {
            return;
        }
        self.t.filter.release(self.machine, addr, pages);
        self.maybe_yield();
    }

    fn prefetch_release(&mut self, pf_addr: u64, pf_pages: u64, rel_addr: u64, rel_pages: u64) {
        if self.note_op() {
            return;
        }
        let rel = Some((rel_addr, rel_pages));
        self.t.filter.hint(self.machine, pf_addr, pf_pages, rel);
        self.maybe_yield();
    }
}

/// One registered tenant inside the hub: the program as submitted,
/// and where registration put it.
struct Entry {
    t: TenantProgram,
    binds: Vec<ArrayBinding>,
    seg: Segment,
}

/// The hub: a machine with N registered tenants, ready to run.
pub struct TenantHub {
    machine: Machine,
    entries: Vec<Entry>,
    cost: CostModel,
}

/// Init/verify view of a machine's backing store (zero-cost
/// peek/poke), bridging [`Machine`] to [`oocp_ir::ArrayData`] for
/// workload initializers and verifiers.
pub struct HubData<'a>(pub &'a mut Machine);

impl ArrayData for HubData<'_> {
    fn peek_f64(&self, addr: u64) -> f64 {
        self.0.peek_f64(addr)
    }

    fn poke_f64(&mut self, addr: u64, v: f64) {
        self.0.poke_f64(addr, v);
    }

    fn peek_i64(&self, addr: u64) -> i64 {
        self.0.peek_i64(addr)
    }

    fn poke_i64(&mut self, addr: u64, v: i64) {
        self.0.poke_i64(addr, v);
    }
}

impl TenantHub {
    /// Build a machine hosting `programs` as tenants.
    ///
    /// Each program's arrays are laid out by
    /// [`ArrayBinding::sequential`] inside a private page-aligned
    /// segment; the returned bindings (one `Vec` per tenant, in order)
    /// are segment-offset and ready for initialization through
    /// [`TenantHub::data`]. Machine parameters are validated up front —
    /// a misconfigured machine is a typed [`ConfigError`], not a panic.
    pub fn new(params: MachineParams, programs: Vec<TenantProgram>) -> Result<Self, ConfigError> {
        params.check()?;
        assert!(!programs.is_empty(), "a hub needs at least one tenant");
        let layouts: Vec<(Vec<ArrayBinding>, u64)> = programs
            .iter()
            .map(|t| ArrayBinding::sequential(&t.prog, params.page_bytes))
            .collect();
        let total: u64 = layouts.iter().map(|(_, b)| b).sum();
        let mut machine = Machine::new(params, total);
        let entries = programs
            .into_iter()
            .zip(layouts)
            .map(|(t, (mut binds, bytes))| {
                let (_, seg) = machine.register_tenant(t.spec, bytes);
                for b in &mut binds {
                    b.base += seg.base;
                }
                Entry { t, binds, seg }
            })
            .collect();
        Ok(Self {
            machine,
            entries,
            cost: CostModel::default(),
        })
    }

    /// Same hub with a different interpreter cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// The shared machine (fault plans, metrics, preloading).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// A tenant's segment-offset array bindings.
    pub fn binds(&self, t: usize) -> &[ArrayBinding] {
        &self.entries[t].binds
    }

    /// A tenant's segment.
    pub fn segment(&self, t: usize) -> Segment {
        self.entries[t].seg
    }

    /// Zero-cost data view for workload initialization.
    pub fn data(&mut self) -> HubData<'_> {
        HubData(&mut self.machine)
    }

    /// Run every tenant to completion, interleaved on the shared
    /// machine, and collect the per-tenant and machine-wide outcomes.
    pub fn run(self) -> HubResult {
        self.run_full().0
    }

    /// [`TenantHub::run`], additionally handing back the finished
    /// machine (for workload verifiers and post-mortems).
    pub fn run_full(self) -> (HubResult, Machine) {
        let mut machine = self.machine;
        let mut tenants: Vec<Tenant> = self
            .entries
            .iter()
            .enumerate()
            .map(|(id, e)| Tenant {
                run: Run::Ready,
                filter: HintFilter::new(&machine, e.t.mode, id as u32, e.seg),
                kill_at_op: e.t.kill_at_op,
                ops: 0,
                ops_since_yield: 0,
                killed: false,
                io_wait: None,
                stalls: Vec::new(),
                park: None,
                finished_at: 0,
            })
            .collect();
        let mut runs: Vec<Vm> = self
            .entries
            .iter()
            .map(|e| Vm::new(&e.t.prog, &e.binds, &e.t.params, self.cost))
            .collect();
        let mut rr = tenants.len() - 1;
        while let Some(t) = schedule(&mut machine, &mut tenants, &mut rr) {
            let mut vm = TenantVm {
                machine: &mut machine,
                t: &mut tenants[t],
            };
            if runs[t].step(&mut vm).is_some() {
                tenants[t].run = Run::Done;
                tenants[t].finished_at = machine.now();
            }
        }
        // Flush leftover dirty pages exactly like a solo run's finish.
        let _ = machine.try_finish();
        let tenants = self
            .entries
            .iter()
            .zip(tenants)
            .enumerate()
            .map(|(id, (e, t))| {
                let mut sorted = t.stalls;
                sorted.sort_unstable();
                let p95 = if sorted.is_empty() {
                    0
                } else {
                    sorted[(sorted.len() - 1) * 95 / 100]
                };
                TenantOutcome {
                    checksum: segment_checksum(&machine, e.seg),
                    killed: t.killed,
                    finished_at: t.finished_at,
                    demand_stall_p95_ns: p95,
                    demand_stalls: sorted.len() as u64,
                    resident_frames: machine.tenant_usage(id as u32),
                    os: machine.tenant_stats(id as u32),
                    rt: t.filter.stats,
                }
            })
            .collect();
        let res = HubResult {
            elapsed_ns: machine.now(),
            time: machine.breakdown(),
            os: *machine.stats(),
            attr: machine.attribution(),
            obs: machine.metrics_report(),
            tenants,
        };
        (res, machine)
    }
}

/// FNV-1a over one segment's final bytes, word by word, through the
/// zero-cost peek path. The bench harness's whole-space checksum of a
/// solo run is this function over `[0, bytes)`.
pub fn segment_checksum(machine: &Machine, seg: Segment) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut off = 0;
    while off + 8 <= seg.bytes {
        for b in (machine.peek_i64(seg.base + off) as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        off += 8;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use oocp_ir::{lin, run_program, var, ArrayRef, ElemType, Expr, HintTarget, Stmt};
    use oocp_os::{Brownout, FaultPlan};

    const PAGE: u64 = 4096;
    const WORDS: i64 = (PAGE / 8) as i64;

    /// A paged streaming kernel with compiler-style hints: for each of
    /// `pages` pages, prefetch a 4-page block ahead, bump the page's
    /// first word, and release the page behind.
    fn stream(pages: i64) -> Program {
        let mut p = Program::new("stream");
        let a = p.array("a", ElemType::F64, vec![pages * WORDS]);
        let at = |idx: oocp_ir::LinExpr| ArrayRef::affine(a, vec![idx]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(pages),
            1,
            vec![
                Stmt::Prefetch {
                    target: HintTarget {
                        target: at(var(i).scale(WORDS)),
                    },
                    pages: 4,
                },
                Stmt::Store {
                    dst: at(var(i).scale(WORDS)),
                    value: Expr::add(Expr::LoadF(at(var(i).scale(WORDS))), Expr::ConstF(1.0)),
                },
                Stmt::Release {
                    target: HintTarget {
                        target: at(var(i).scale(WORDS)),
                    },
                    pages: 1,
                },
            ],
        )];
        p
    }

    /// [`stream`] behind a burst of `burst` single-page prefetches with
    /// no demand access between them: enough back-to-back hint syscalls
    /// to fill the filter's error window before the first fault.
    fn burst_then_stream(burst: i64, pages: i64) -> Program {
        let mut p = stream(pages);
        let j = p.fresh_var();
        let target = ArrayRef::affine(0, vec![var(j).scale(WORDS)]);
        p.body.insert(
            0,
            Stmt::for_(
                j,
                lin(0),
                lin(burst),
                1,
                vec![Stmt::Prefetch {
                    target: HintTarget { target },
                    pages: 1,
                }],
            ),
        );
        p
    }

    /// The same data transformation as [`stream`] with no hints at
    /// all: every page is a blocking demand fault, and used pages
    /// accumulate until the daemon (or a memory quota) evicts them.
    fn demand(pages: i64) -> Program {
        let mut p = Program::new("demand");
        let a = p.array("a", ElemType::F64, vec![pages * WORDS]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(pages),
            1,
            vec![Stmt::Store {
                dst: ArrayRef::affine(a, vec![var(i).scale(WORDS)]),
                value: Expr::add(
                    Expr::LoadF(ArrayRef::affine(a, vec![var(i).scale(WORDS)])),
                    Expr::ConstF(1.0),
                ),
            }],
        )];
        p
    }

    /// An out-of-core machine: 64 frames against 256-page tenants.
    fn params() -> MachineParams {
        let mut p = MachineParams::small();
        p.resident_limit = 64;
        p.demand_reserve = 4;
        p.low_water = 8;
        p.high_water = 16;
        p
    }

    /// Deterministic per-tenant fill pattern.
    fn fill(data: &mut dyn ArrayData, base: u64, bytes: u64, salt: u64) {
        let mut off = 0;
        while off < bytes {
            data.poke_f64(base + off, (off / 8 + salt) as f64);
            off += 8;
        }
    }

    /// Run `prog` alone through the classic blocking [`Runtime`].
    fn solo_runtime(
        prog: &Program,
        salt: u64,
        plan: Option<&FaultPlan>,
    ) -> (u64, Ns, OsStats, RtStats) {
        let (bytes, _) = layout_bytes(prog);
        let (mut rt, binds) = Runtime::for_program(params(), prog, FilterMode::Enabled);
        if let Some(plan) = plan {
            rt.machine_mut().set_fault_plan(plan);
        }
        fill(&mut rt, 0, bytes, salt);
        run_program(prog, &binds, &[], CostModel::default(), &mut rt);
        let rt_stats = *rt.stats();
        let mut machine = rt.into_machine();
        machine.try_finish().unwrap();
        let sum = segment_checksum(&machine, Segment { base: 0, bytes });
        (sum, machine.now(), *machine.stats(), rt_stats)
    }

    fn layout_bytes(prog: &Program) -> (u64, Vec<ArrayBinding>) {
        let (binds, bytes) = ArrayBinding::sequential(prog, PAGE);
        (bytes, binds)
    }

    /// Run `prog` alone through the hub (one registered tenant).
    fn solo_hub(prog: &Program, salt: u64, plan: Option<&FaultPlan>) -> HubResult {
        let mut hub =
            TenantHub::new(params(), vec![TenantProgram::new(prog.clone(), vec![])]).unwrap();
        if let Some(plan) = plan {
            hub.machine_mut().set_fault_plan(plan);
        }
        let seg = hub.segment(0);
        fill(&mut hub.data(), seg.base, seg.bytes, salt);
        hub.run()
    }

    #[test]
    fn solo_via_hub_is_cycle_identical_to_runtime() {
        // Fault-free, then with the hint path erroring through a
        // brownout and the shared bit vector going stale: the second
        // input walks both front ends through degraded entry, probing,
        // exit and the periodic resync.
        let faulty = FaultPlan::none(21)
            .with_brownout(Brownout {
                disk: None,
                from: 0,
                until: 20_000_000,
            })
            .with_bitvec_staleness(0.5);
        let inputs = [
            (stream(256), None),
            (burst_then_stream(16, 256), Some(&faulty)),
        ];
        for (prog, plan) in inputs {
            let (sum, elapsed, os, rt) = solo_runtime(&prog, 3, plan);
            let hub = solo_hub(&prog, 3, plan);
            assert_eq!(hub.tenants[0].checksum, sum, "data image must match");
            assert_eq!(hub.elapsed_ns, elapsed, "sim clock must match");
            assert_eq!(hub.os, os, "every OS counter must match");
            assert_eq!(
                hub.tenants[0].rt, rt,
                "every run-time-layer counter must match"
            );
            assert!(!hub.tenants[0].killed);
            if plan.is_some() {
                assert!(rt.degraded_entries >= 1 && rt.degraded_exits >= 1);
                assert!(rt.degraded_probes >= 4 && rt.periodic_resyncs >= 1);
                assert!(os.hints_dropped_on_error > 0 && os.io_retries > 0);
                assert!(os.bitvec_stale_fixed > 0);
            }
        }
    }

    #[test]
    fn co_scheduled_tenants_keep_their_solo_checksums_and_beat_serial() {
        // A demand-bound workload: one outstanding disk read per solo
        // tenant, so a lone run leaves the array idle and co-scheduling
        // has stalls to overlap.
        let prog = demand(256);
        let solo: Vec<HubResult> = (0..3).map(|t| solo_hub(&prog, t, None)).collect();
        let mut hub = TenantHub::new(
            params(),
            (0..3)
                .map(|_| TenantProgram::new(prog.clone(), vec![]))
                .collect(),
        )
        .unwrap();
        for t in 0..3 {
            let seg = hub.segment(t);
            fill(&mut hub.data(), seg.base, seg.bytes, t as u64);
        }
        let res = hub.run();
        for (t, s) in solo.iter().enumerate() {
            assert_eq!(
                res.tenants[t].checksum, s.tenants[0].checksum,
                "tenant {t} must be bit-identical to its solo run"
            );
            assert!(res.tenants[t].demand_stalls > 0, "tenant {t} paged");
        }
        // The run truly interleaved: the clock beats the serial sum of
        // the solo runs because their demand stalls overlap.
        let serial: Ns = solo.iter().map(|r| r.elapsed_ns).sum();
        assert!(
            res.elapsed_ns < serial,
            "co-scheduling ({}) must beat serial ({serial})",
            res.elapsed_ns
        );
    }

    #[test]
    fn killed_tenant_leaves_the_survivor_bit_exact() {
        let prog = stream(256);
        let survivor_solo = solo_hub(&prog, 0, None).tenants[0].checksum;
        let mut hub = TenantHub::new(
            params(),
            vec![
                TenantProgram::new(prog.clone(), vec![]),
                TenantProgram::new(prog.clone(), vec![]).with_kill_at(500),
            ],
        )
        .unwrap();
        for t in 0..2 {
            let seg = hub.segment(t);
            fill(&mut hub.data(), seg.base, seg.bytes, t as u64);
        }
        let res = hub.run();
        assert!(res.tenants[1].killed, "tenant 1 must have been killed");
        assert!(!res.tenants[0].killed);
        assert_eq!(
            res.tenants[0].checksum, survivor_solo,
            "the survivor's data must be untouched by the crash"
        );
    }

    #[test]
    fn quota_starved_tenant_still_terminates_with_correct_data() {
        // No releases: used pages pile up, so the 2-frame quota forces
        // the starved tenant to recycle its own frames on every fault.
        let prog = demand(128);
        let solo = solo_hub(&prog, 9, None).tenants[0].checksum;
        let starved = TenantSpec::unlimited().with_memory_frames(2);
        let mut hub = TenantHub::new(
            params(),
            vec![
                TenantProgram::new(prog.clone(), vec![]),
                TenantProgram::new(prog.clone(), vec![]).with_spec(starved),
            ],
        )
        .unwrap();
        for t in 0..2 {
            let seg = hub.segment(t);
            fill(&mut hub.data(), seg.base, seg.bytes, 9);
        }
        let res = hub.run();
        for t in 0..2 {
            assert_eq!(res.tenants[t].checksum, solo, "tenant {t} data");
        }
        assert!(
            res.tenants[1].os.quota_evictions > 0,
            "the starved tenant must have recycled its own frames"
        );
    }

    #[test]
    #[should_panic(expected = "subscript 512 out of range [0,512) in dim 0 of array a (demand)")]
    fn a_tenants_panic_is_the_hubs_panic() {
        // Two pages' worth of stores into a one-page array, next to a
        // healthy neighbour: the interpreter's own message must come out
        // of `run`.
        let mut overrun = demand(2);
        overrun.arrays[0].dims = vec![WORDS];
        let tenants = vec![
            TenantProgram::new(stream(8), vec![]),
            TenantProgram::new(overrun, vec![]),
        ];
        TenantHub::new(params(), tenants).unwrap().run();
    }

    #[test]
    fn rerun_is_identical_down_to_finish_times() {
        // Unpriced user code makes a `stream` iteration exactly four VM
        // calls, so 64 pages end on the last call of a slice and every
        // tenant is parked when its `Halt` retires. `finished_at` is the
        // sim time of that retirement, not of whoever ran in between.
        let run = || {
            let tenants = (0..3)
                .map(|_| TenantProgram::new(stream(64), vec![]))
                .collect();
            let mut hub = TenantHub::new(params(), tenants)
                .unwrap()
                .with_cost(CostModel::free());
            for t in 0..3 {
                let seg = hub.segment(t);
                fill(&mut hub.data(), seg.base, seg.bytes, t as u64);
            }
            hub.run()
        };
        assert_eq!(format!("{:?}", run()), format!("{:?}", run()));
    }

    #[test]
    fn bad_machine_params_surface_as_config_error() {
        let mut p = params();
        p.low_water = p.high_water + 1;
        let err = TenantHub::new(p, vec![TenantProgram::new(stream(8), vec![])])
            .err()
            .expect("inverted watermarks must be rejected");
        assert!(err.to_string().contains("low watermark"));
    }
}
