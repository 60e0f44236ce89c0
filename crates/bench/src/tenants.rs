//! Multi-tenant co-scheduling harness.
//!
//! Shared by the `repro tenants` and `quota-gate` rows (the
//! fairness/throughput sweep and the isolation gate), the perfgate
//! tenant matrix cells (`tenants/co<n>` in the `BENCH_<n>.json`
//! trajectory), and the repo-level proptest oracle.
//!
//! The canonical multi-tenant cell co-schedules `n` copies of the
//! EMBAR kernel — the compiler's cleanest streaming case — on one
//! shared machine, each tenant with its own init seed, a fixed memory
//! reservation (1/16th of physical memory, the SLO story: a tenant's
//! "solo" baseline is what it gets alone on the machine *within its
//! reservation*), a bounded prefetch pipeline, and a QoS class from a
//! repeating Guaranteed/Burstable/Guaranteed/BestEffort pattern so
//! every cell exercises the pressure arbiter's shedding order.
//!
//! Fairness is judged per tenant against a memoized solo run with the
//! *same* compiled program, spec, and seed: final segment checksums
//! must be bit-identical, and the co-scheduled p95 demand stall must
//! stay within a small factor of the solo p95 (floored at one disk
//! access, so an in-core solo baseline does not demand the
//! impossible).

use std::collections::HashMap;

use oocp_core::{compile, CompilerParams};
use oocp_ir::{ArrayBinding, Program};
use oocp_nas::{build, App, Workload};
use oocp_obs::baseline::{BaselineRun, HistSummary, TenantSummary};
use oocp_os::{ConfigError, FaultPlan, QosClass, TenantSpec};
use oocp_rt::{HubData, HubResult, TenantHub, TenantProgram};
use oocp_sim::time::Ns;

use crate::Config;

/// The pseudo-kernel name multi-tenant cells carry in `BaselineRun`
/// records and `--only` filters.
pub const KERNEL: &str = "tenants";

/// Data-set size per tenant: 256 pages at the default 4 KiB page, 2x a
/// tenant's memory reservation — each tenant is individually
/// out-of-core, and sixteen of them overcommit the default platform's
/// memory 2x.
pub const TENANT_BYTES: u64 = 1 << 20;

/// A tenant's memory reservation is 1/16th of physical memory: the
/// machine is "sold" as 16 slots, and the sweep's gate cell fills it.
const QUOTA_DIV: u64 = 16;

/// Prefetch-slot quota per tenant. Deliberately shallower than what
/// would saturate the machine solo: a tenant's reservation buys it a
/// bounded pipeline, and the idle disk a single bounded pipeline
/// leaves is exactly what co-scheduling converts into aggregate
/// throughput (a fully-saturating solo pipeline would leave nothing
/// to share, and co-scheduling could never beat the serial schedule).
const PREFETCH_SLOTS: u64 = 8;

/// Tenant seeds repeat after this many tenants, so a 128-tenant cell
/// needs only 16 memoized solo baselines.
const SEED_CYCLE: u64 = 16;

/// Seed for the chaos cell's fault plan (disk errors + stragglers).
const FAULT_SEED: u64 = 0x7e7a;

/// The multi-tenant sweep platform: the default machine under
/// DemandPriority (demand reads overtake queued prefetch, and a
/// blocked-on prefetch is promoted to demand class), with a finite
/// per-disk queue so the per-tenant queue shares actually bind — an
/// unbounded queue makes every share infinite.
pub fn platform() -> Config {
    let mut cfg = Config::default_platform();
    cfg.machine.sched = cfg
        .machine
        .sched
        .with_policy(oocp_os::SchedPolicy::DemandPriority)
        .with_queue_depth(64)
        .with_prefetch_age_ns(1_000_000_000);
    cfg
}

/// QoS mix: every fourth tenant is Burstable, every fourth BestEffort,
/// the rest Guaranteed — each cell of 4+ exercises the arbiter's full
/// shedding order.
pub fn qos_for(t: usize) -> QosClass {
    match t % 4 {
        1 => QosClass::Burstable,
        3 => QosClass::BestEffort,
        _ => QosClass::Guaranteed,
    }
}

/// A tenant's reserved memory, in frames, on this machine.
pub fn quota_frames(cfg: &Config) -> u64 {
    (cfg.machine.resident_limit / QUOTA_DIV).max(8)
}

/// The canonical spec of tenant `t`: fixed memory reservation, bounded
/// prefetch pipeline, QoS from the repeating mix.
pub fn tenant_spec(cfg: &Config, t: usize) -> TenantSpec {
    TenantSpec::unlimited()
        .with_qos(qos_for(t))
        .with_memory_frames(quota_frames(cfg))
        .with_prefetch_slots(PREFETCH_SLOTS)
}

/// Init seed of tenant `t` (repeats every [`SEED_CYCLE`] tenants).
pub fn seed_of(cfg: &Config, t: usize) -> u64 {
    cfg.seed + (t as u64 % SEED_CYCLE)
}

/// The canonical tenant workload: EMBAR compiled for the *reservation*
/// (not the whole machine), so the prefetch window the compiler plans
/// fits inside the quota the OS enforces.
pub fn tenant_workload(cfg: &Config) -> (Workload, Program) {
    let w = build(App::Embar, TENANT_BYTES);
    let cp = CompilerParams::new(
        cfg.machine.page_bytes,
        quota_frames(cfg) * cfg.machine.page_bytes,
        cfg.machine.disk.avg_access_ns() + cfg.machine.fault_overhead_ns,
    )
    .with_cost(cfg.cost);
    let (prog, _) = compile(&w.prog, &cp);
    (w, prog)
}

/// One tenant's solo baseline: same compiled program, spec, and seed,
/// alone on the machine.
#[derive(Clone, Copy, Debug)]
pub struct Solo {
    /// Final segment checksum — the correctness reference.
    pub checksum: u64,
    /// End-to-end simulated time.
    pub elapsed_ns: Ns,
    /// p95 demand stall.
    pub p95_ns: Ns,
    /// Demand-stall episodes sampled.
    pub stalls: u64,
}

/// Run one tenant alone (under its reservation) and distill the
/// baseline the fairness gates compare against.
pub fn solo_run(cfg: &Config, seed: u64) -> Result<Solo, ConfigError> {
    let (w, prog) = tenant_workload(cfg);
    let spec = tenant_spec(cfg, 0); // Guaranteed; QoS is moot alone.
    let mut hub = TenantHub::new(
        cfg.machine,
        vec![TenantProgram::new(prog, w.param_values.clone()).with_spec(spec)],
    )?
    .with_cost(cfg.cost);
    let binds = hub.binds(0).to_vec();
    w.init(&binds, &mut hub.data(), seed);
    let r = hub.run();
    let t = &r.tenants[0];
    Ok(Solo {
        checksum: t.checksum,
        elapsed_ns: r.elapsed_ns,
        p95_ns: t.demand_stall_p95_ns,
        stalls: t.demand_stalls,
    })
}

/// Options for a co-scheduled cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoOptions {
    /// Install the chaos fault plan (disk errors + stragglers) —
    /// faults may only cost time, never change data.
    pub faults: bool,
    /// Kill tenant `.0` after `.1` VM operations (crash modeling).
    pub kill: Option<(usize, u64)>,
    /// Enable the machine's observability layer.
    pub metrics: bool,
}

/// One co-scheduled cell: the hub outcome plus the per-tenant solo
/// baselines (index-aligned with `hub.tenants`).
pub struct CoCell {
    /// Tenants co-scheduled.
    pub n: usize,
    /// The machine-wide and per-tenant outcomes.
    pub hub: HubResult,
    /// Per-tenant solo baselines.
    pub solo: Vec<Solo>,
    /// Sum of the participating solo elapsed times — the serial
    /// schedule the co-scheduled makespan must beat.
    pub serial_ns: Ns,
    /// Workload verification over every surviving tenant's final data.
    pub verified: Result<(), String>,
}

/// Co-schedule `n` canonical tenants on one machine. Solo baselines
/// are memoized in `solos` by seed across calls (a 128-tenant sweep
/// pays for at most [`SEED_CYCLE`] solo runs).
pub fn co_run(
    cfg: &Config,
    n: usize,
    opts: &CoOptions,
    solos: &mut HashMap<u64, Solo>,
) -> Result<CoCell, ConfigError> {
    let (w, prog) = tenant_workload(cfg);
    let programs = (0..n)
        .map(|t| {
            let mut p = TenantProgram::new(prog.clone(), w.param_values.clone())
                .with_spec(tenant_spec(cfg, t));
            if let Some((victim, at)) = opts.kill {
                if victim == t {
                    p = p.with_kill_at(at);
                }
            }
            p
        })
        .collect();
    let mut hub = TenantHub::new(cfg.machine, programs)?.with_cost(cfg.cost);
    let binds: Vec<Vec<ArrayBinding>> = (0..n).map(|t| hub.binds(t).to_vec()).collect();
    for (t, b) in binds.iter().enumerate() {
        w.init(b, &mut hub.data(), seed_of(cfg, t));
    }
    if opts.faults {
        hub.machine_mut()
            .set_fault_plan(&FaultPlan::none(FAULT_SEED).with_errors(0.02, 0.05, 0.02));
    }
    if opts.metrics {
        hub.machine_mut().enable_metrics();
    }
    let (hub_result, mut machine) = hub.run_full();

    // Verify every surviving tenant's final data through the
    // workload's own oracle (a killed tenant's data is legitimately
    // truncated).
    let mut verified = Ok(());
    {
        let view = HubData(&mut machine);
        for (t, b) in binds.iter().enumerate() {
            if hub_result.tenants[t].killed {
                continue;
            }
            if let Err(e) = w.verify(b, &view) {
                verified = Err(format!("tenant {t}: {e}"));
                break;
            }
        }
    }

    let mut solo = Vec::with_capacity(n);
    for t in 0..n {
        let seed = seed_of(cfg, t);
        let s = match solos.get(&seed) {
            Some(s) => *s,
            None => {
                let s = solo_run(cfg, seed)?;
                solos.insert(seed, s);
                s
            }
        };
        solo.push(s);
    }
    let serial_ns = solo.iter().map(|s| s.elapsed_ns).sum();
    Ok(CoCell {
        n,
        hub: hub_result,
        solo,
        serial_ns,
        verified,
    })
}

/// Per-tenant fairness checks of one cell: every surviving tenant's
/// checksum must be bit-identical to its solo run, its data must
/// verify, and its p95 demand stall must stay within `factor`x the
/// solo p95 (floored at `stall_floor_ns`, one disk access, so an
/// in-core solo baseline does not demand the impossible). Returns the
/// violations; an empty vector is a pass.
pub fn fairness_failures(cell: &CoCell, factor: u64, stall_floor_ns: Ns) -> Vec<String> {
    let mut fails = Vec::new();
    if let Err(e) = &cell.verified {
        fails.push(format!("verify failed: {e}"));
    }
    for (t, (out, solo)) in cell.hub.tenants.iter().zip(&cell.solo).enumerate() {
        if out.killed {
            continue;
        }
        if out.checksum != solo.checksum {
            fails.push(format!(
                "tenant {t}: co-scheduled checksum {:016x} != solo {:016x}",
                out.checksum, solo.checksum
            ));
        }
        // Saturating: `u64::MAX` is the idiom for "checksums only".
        let bound = factor.saturating_mul(solo.p95_ns.max(stall_floor_ns));
        if out.demand_stall_p95_ns > bound {
            fails.push(format!(
                "tenant {t} ({:?}): p95 demand stall {} ns exceeds {factor}x solo bound {} ns \
                 (solo p95 {} ns)",
                qos_for(t),
                out.demand_stall_p95_ns,
                bound,
                solo.p95_ns
            ));
        }
    }
    fails
}

/// Distill a co-scheduled cell into a `tenants/<config>` baseline run
/// for the perfgate trajectory. The cell checksum chains the
/// per-tenant segment checksums through FNV-1a, so any tenant's data
/// diverging flips it; the tenant block carries the fairness summary
/// the `tenant.*` metrics gate.
pub fn tenant_baseline_run(config: &str, cell: &CoCell) -> BaselineRun {
    let r = &cell.hub;
    let (ledger, ledger_entries, fault_wait, lead_time, arrival_to_use) = match &r.obs {
        Some(obs) => (
            obs.ledger,
            obs.ledger_entries,
            HistSummary::of(&obs.fault_wait),
            HistSummary::of(&obs.lead_time),
            HistSummary::of(&obs.arrival_to_use),
        ),
        None => Default::default(),
    };
    let mut checksum: u64 = 0xcbf2_9ce4_8422_2325;
    for t in &r.tenants {
        for b in t.checksum.to_le_bytes() {
            checksum ^= b as u64;
            checksum = checksum.wrapping_mul(0x100_0000_01b3);
        }
    }
    let tenant = TenantSummary {
        count: cell.n as u64,
        p95_stall_max_ns: r
            .tenants
            .iter()
            .map(|t| t.demand_stall_p95_ns)
            .max()
            .unwrap_or(0),
        hints_dropped_quota: r.tenants.iter().map(|t| t.os.hints_dropped_quota).sum(),
        hints_dropped_pressure: r.tenants.iter().map(|t| t.os.hints_dropped_pressure).sum(),
        quota_evictions: r.tenants.iter().map(|t| t.os.quota_evictions).sum(),
    };
    BaselineRun {
        kernel: KERNEL.to_string(),
        config: config.to_string(),
        elapsed_ns: r.elapsed_ns,
        checksum,
        attr: r.attr,
        hard_faults: r.os.hard_faults,
        soft_faults: r.os.soft_faults,
        prefetched_hits: r.os.prefetched_hits,
        ledger,
        ledger_entries,
        fault_wait,
        lead_time,
        arrival_to_use,
        journal_appends: r.os.journal_appends,
        journal_stalls: r.os.journal_stalls,
        recovery_replayed: r.os.recovery_pages_replayed,
        recovery_discarded: r.os.recovery_pages_discarded,
        recovery_torn: r.os.recovery_torn_detected,
        recovery_unrecoverable: r.os.recovery_unrecoverable,
        recovery_ns: r.os.recovery_ns,
        tenant: Some(tenant),
        // The co-scheduled cell runs the compiler's hints only.
        policy: None,
        whylate: r.obs.as_ref().map(|o| o.whylate),
        // Co-scheduled cells run plain striping; the redundancy block
        // belongs to the dedicated `redundancy/*` cells.
        redundancy: None,
        sim_throughput: None,
        // Tenant cells run a whole hub, not one interpreter; the
        // single-kernel host-time profiler does not apply to them.
        profile: None,
    }
}
