//! The sweeps and gates `repro` runs beside the paper's experiments
//! (the `SWEEPS` table of [`crate::experiments`]). Each restates the
//! paper's one interface law — prefetch and release are hints, so no
//! policy, schedule, fault, crash, disk death or neighbour may change a
//! result, only its time — as checks over many runs. A cell whose data
//! differ from its reference, or a mechanism that never fired, is a
//! [`Runner::gate`] that fails: one line on stderr, and `repro` exits 1.

use std::collections::HashMap;

use oocp_core::ReleaseMode;
use oocp_nas::{build, App};
use oocp_obs::baseline::{self, Baseline};
use oocp_os::{
    CrashPoint, CrashSpec, DiskDeath, FaultPlan, PolicyKind, Redundancy, SchedConfig, SchedPolicy,
    TenantSpec, TenantStats,
};
use oocp_rt::{TenantHub, TenantProgram};
use oocp_sim::time::{Ns, MILLISECOND};

use crate::experiments::{speedup, Runner};
use crate::tenants::{
    co_run, fairness_failures, qos_for, quota_frames, seed_of, tenant_baseline_run, CoCell,
    CoOptions, Solo,
};
use crate::{
    exit_on, exit_on_bad_config, pct, report, secs, write_csv, Config, Kernel, Mode, RunResult,
    RunSpec,
};

/// The default platform with `mb` MiB of memory: small memory keeps a
/// sweep quick, and the data-set ratios are what matter.
fn with_mb(mb: u64) -> Config {
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(mb * 1024 * 1024);
    cfg
}

/// The platform of `schedsweep`, `chaos` and `crash`.
pub(crate) fn two_mb() -> Config {
    with_mb(2)
}

/// The platform of `quota-gate`.
pub(crate) fn one_mb() -> Config {
    with_mb(1)
}

/// [`two_mb`] under rotating parity, which is what `disk-death` and
/// `corrupt-parity` are about; `--redundancy none` makes `disk-death`
/// its own negative control.
pub(crate) fn parity() -> Config {
    let mut cfg = two_mb();
    cfg.machine.redundancy = Redundancy::Parity;
    cfg
}

/// The five NAS kernels the sweeps run; `--smoke` keeps EMBAR alone.
fn kernels(smoke: bool) -> &'static [App] {
    static FIVE: [App; 5] = [App::Embar, App::Buk, App::Cgm, App::Fft, App::Mgrid];
    if smoke {
        &FIVE[..1]
    } else {
        &FIVE
    }
}

/// Fault seed, independent of the workload seed so `--seed` sweeps the
/// data while the fault schedule stays fixed.
const FAULT_SEED: u64 = 0xC4A05;

// ---------------------------------------------------------------- ablations

/// Ablation studies of the design choices DESIGN.md calls out. Six
/// sweeps, each isolating one mechanism the paper motivates:
///
/// 1. **Block-prefetch size** (the paper picks 4 pages "arbitrarily"):
///    how does B affect the streaming apps?
/// 2. **Two-version loops** (the paper's proposed fix for APPBT's
///    symbolic-bound coverage loss): coverage and speedup with the fix.
/// 3. **Release policy**: performance and memory footprint across
///    Off / Conservative / Aggressive.
/// 4. **Disk count** (the "buy more disks for bandwidth" argument of
///    section 2.1): speedup as the stripe widens.
/// 5. **Prefetch-distance sensitivity**: how wrong can the compiler's
///    latency estimate be before speedup erodes?
/// 6. **Prefetch policy x kernel**: the pluggable policies of
///    `oocp-policy` raced against the compiler over all 13 kernels
///    (8 NAS + 5 `.ook`). Every cell's final checksum must match the
///    no-prefetch run — policies are timing-only by contract.
///
/// `--smoke` runs the policy matrix alone, on two kernels.
pub(crate) fn ablations(x: &Runner) {
    let (args, cfg) = (x.args, x.args.cfg);
    if args.smoke {
        return policy_matrix(x);
    }

    println!("=== ablation 1: block-prefetch size (EMBAR + MGRID, speedup vs original) ===");
    println!(
        "{:<8} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "app", "B=1", "B=2", "B=4", "B=8", "B=16"
    );
    for app in [App::Embar, App::Mgrid] {
        let w = build(app, cfg.bytes_for_ratio(args.ratio));
        let o = x.run(app.name(), &w, &cfg, Mode::Original);
        print!("{:<8}", app.name());
        for b in [1u64, 2, 4, 8, 16] {
            let spec = RunSpec::new(&cfg, Mode::Prefetch)
                .compiler(cfg.compiler_params().with_block_pages(b));
            let p = x.run_spec(&format!("{} B={b}", app.name()), &spec, &w);
            print!(" {:>6}", format!("{:.2}x", speedup(&o, &p)));
        }
        println!();
    }

    println!("\n=== ablation 2: two-version loops on APPBT (the paper's proposed fix) ===");
    let w = build(App::Appbt, cfg.bytes_for_ratio(args.ratio));
    let o = x.run("APPBT", &w, &cfg, Mode::Original);
    println!(
        "{:<12} {:>9} {:>10} {:>10}",
        "version", "coverage", "speedup", "user time"
    );
    let user = |r: &RunResult| r.time.user as f64 / 1e9;
    println!(
        "{:<12} {:>9} {:>9.2}x {:>9.1}s",
        "original",
        "-",
        1.0,
        user(&o)
    );
    for (name, mode) in [
        ("prefetch", Mode::Prefetch),
        ("two-version", Mode::PrefetchTwoVersion),
    ] {
        let r = x.run("APPBT", &w, &cfg, mode);
        println!(
            "{:<12} {:>9} {:>9.2}x {:>9.1}s",
            name,
            pct(r.os.coverage()),
            speedup(&o, &r),
            user(&r),
        );
    }

    println!("\n=== ablation 3: release policy (BUK) ===");
    let w = build(App::Buk, cfg.bytes_for_ratio(args.ratio));
    let o = x.run("BUK", &w, &cfg, Mode::Original);
    println!(
        "{:<14} {:>9} {:>12} {:>12}",
        "policy", "speedup", "avg free", "writebacks"
    );
    for (name, mode) in [
        ("off", ReleaseMode::Off),
        ("conservative", ReleaseMode::Conservative),
        ("aggressive", ReleaseMode::Aggressive),
    ] {
        let spec = RunSpec::new(&cfg, Mode::Prefetch)
            .compiler(cfg.compiler_params().with_release_mode(mode));
        let p = x.run_spec(&format!("BUK {name}"), &spec, &w);
        println!(
            "{:<14} {:>8.2}x {:>9.0} fr {:>12}",
            name,
            speedup(&o, &p),
            p.avg_free_frames,
            p.os.writebacks,
        );
    }

    println!("\n=== ablation 4: disk count (EMBAR, bandwidth scaling) ===");
    println!(
        "{:<7} {:>10} {:>10} {:>9} {:>10}",
        "disks", "O (s)", "P (s)", "speedup", "P util"
    );
    for disks in [1usize, 2, 4, 7, 14] {
        let mut c = cfg;
        c.machine = c.machine.with_ndisks(disks);
        let w = build(App::Embar, c.bytes_for_ratio(args.ratio));
        let (o, p) = x.pair(&format!("EMBAR on {disks} disks"), &w, &c);
        println!(
            "{:<7} {:>10.3} {:>10.3} {:>8.2}x {:>10}",
            disks,
            o.total() as f64 / 1e9,
            p.total() as f64 / 1e9,
            speedup(&o, &p),
            pct(p.disk_util),
        );
    }

    println!("\n=== ablation 5: prefetch-distance sensitivity (CGM, latency estimate scaling) ===");
    let w = build(App::Cgm, cfg.bytes_for_ratio(args.ratio));
    let o = x.run("CGM", &w, &cfg, Mode::Original);
    println!("{:<10} {:>9} {:>10}", "scale", "speedup", "coverage");
    for scale in [0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let mut cp = cfg.compiler_params();
        cp.fault_latency_ns = (cp.fault_latency_ns as f64 * scale) as u64;
        let p = x.run_spec(
            &format!("CGM at {scale}x latency"),
            &RunSpec::new(&cfg, Mode::Prefetch).compiler(cp),
            &w,
        );
        println!(
            "{:<10} {:>8.2}x {:>10}",
            format!("{scale}x"),
            speedup(&o, &p),
            pct(p.os.coverage()),
        );
    }

    policy_matrix(x);
}

/// The execution mode each policy naturally runs under. The reactive
/// policies (readahead, replay) compete with the compiler from a plain
/// `Original` build — no hints, the policy is the only prefetcher. The
/// hint-extending policies ride on the compiler's `Prefetch` build.
fn policy_mode(kind: PolicyKind) -> Mode {
    match kind {
        PolicyKind::CompilerOnly | PolicyKind::AdaptiveDistance => Mode::Prefetch,
        PolicyKind::Readahead | PolicyKind::HistoryReplay | PolicyKind::Broken => Mode::Original,
    }
}

/// One policy-matrix cell, held to the timing-only contract: the run
/// verifies and its checksum matches the no-prefetch run. `None` when
/// it does not, which stops the matrix.
fn policy_cell(
    x: &Runner,
    k: &Kernel,
    cfg: &Config,
    mode: Mode,
    oracle: Option<u64>,
) -> Option<RunResult> {
    let r = k.run(&RunSpec::new(cfg, mode)).result;
    let what = format!("{}/{}", k.name(), r.policy.unwrap_or("compiler"));
    let held = x.check(&what, mode, &r.verified)
        && oracle.is_none_or(|want| {
            x.gate(
                r.checksum == want,
                format_args!(
                    "{what} checksum {:#018x} != no-prefetch {want:#018x}: \
                     a policy changed the computed data",
                    r.checksum
                ),
            )
        });
    held.then_some(r)
}

/// Late-arrival rate of a run as a percentage string ("-" when the run
/// issued no prefetches at all).
fn late(r: &RunResult) -> String {
    match &r.obs {
        Some(o) if o.ledger.consumed() > 0 => pct(o.ledger.late_arrival_rate()),
        _ => "-".to_string(),
    }
}

/// Ablation 6: the policy x kernel matrix. Prints speedup over the
/// no-prefetch run and the late-arrival rate for every shippable
/// policy; the first cell that breaks the timing-only contract fails
/// the row and ends the matrix.
fn policy_matrix(x: &Runner) {
    let args = x.args;
    println!(
        "{} ablation 6: prefetch policy x kernel (speedup vs no-prefetch | late arrivals) ===",
        if args.smoke { "===" } else { "\n===" }
    );
    print!("{:<14} {:>9}", "kernel", "orig(s)");
    for kind in PolicyKind::MATRIX {
        print!(" {:>17}", kind.name());
    }
    println!();
    // One streaming NAS kernel plus one .ook kernel keeps the CI gate
    // representative of both substrates but quick.
    let in_smoke = |k: &Kernel| matches!(k.name().as_str(), "EMBAR" | "ook:sumreduce");
    for k in Kernel::all()
        .into_iter()
        .filter(|k| !args.smoke || in_smoke(k))
    {
        let mut cfg = args.cfg;
        cfg.metrics = true;
        if let Kernel::Ook { mem_mb, .. } = k {
            cfg.machine = cfg.machine.with_memory_bytes(mem_mb * 1024 * 1024);
        }
        let Some(orig) = policy_cell(x, &k, &cfg, Mode::Original, None) else {
            return;
        };
        print!("{:<14} {:>9.3}", k.name(), orig.total() as f64 / 1e9);
        for kind in PolicyKind::MATRIX {
            let mut c = cfg;
            c.machine = c.machine.with_prefetch_policy(kind);
            let Some(r) = policy_cell(x, &k, &c, policy_mode(kind), Some(orig.checksum)) else {
                return;
            };
            print!(
                " {:>10} {:>6}",
                format!("{:.2}x", speedup(&orig, &r)),
                late(&r)
            );
        }
        println!();
    }
    println!("ablation 6: all cells verified; checksums bit-identical to no-prefetch");
}

// --------------------------------------------------------------- schedsweep

/// The scheduler configurations raced: FCFS (the paper baseline), then
/// SSTF, SCAN and DemandPriority with adjacent-request coalescing, and
/// outside `--smoke` a bounded-queue DemandPriority that exercises
/// backpressure (blocking waits for demand traffic, silent drops for
/// prefetch hints).
fn sched_configs(smoke: bool) -> Vec<(&'static str, SchedConfig)> {
    let base = SchedConfig::default();
    let prio = base
        .with_policy(SchedPolicy::DemandPriority)
        .with_coalesce(true);
    let mut v = vec![
        ("fcfs", base),
        (
            "sstf",
            base.with_policy(SchedPolicy::Sstf).with_coalesce(true),
        ),
        (
            "scan",
            base.with_policy(SchedPolicy::Scan).with_coalesce(true),
        ),
        ("demand-prio", prio),
    ];
    if !smoke {
        v.push(("demand-q8", prio.with_queue_depth(8)));
    }
    v
}

/// Policy sweep: the five NAS kernels under each I/O scheduling policy.
///
/// The paper's Hurricane scheduler "treats prefetches the same as
/// normal disk read requests" and leaves demand-over-prefetch
/// prioritization as future work. This sweep explores that axis (see
/// [`sched_configs`]) and checks, per kernel:
///
/// 1. **Correctness**: every policy verifies and produces the same
///    final address-space checksum as the FCFS run — scheduling is
///    timing-only.
/// 2. **Effectiveness**: DemandPriority achieves a lower mean
///    demand-read wait than FCFS on at least one kernel.
/// 3. **Observability**: the wait/service/coalesce/preemption counters
///    are nonzero under load.
///
/// `--smoke` runs EMBAR alone.
pub(crate) fn schedsweep(x: &Runner) {
    let (args, cfg) = (x.args, x.args.cfg);
    let apps = kernels(args.smoke);

    let mut mismatches = 0u32;
    let mut prio_wait_wins = 0u32;
    let mut total_wait_ns = 0u64;
    let mut total_service_ns = 0u64;
    let mut total_coalesced = 0u64;
    let mut total_preemptions = 0u64;
    let mut total_aged = 0u64;
    let mut total_queue_full = 0u64;
    let mut rows = Vec::new();
    let mut results: Vec<(String, RunResult)> = Vec::new();

    for &app in apps {
        let w = build(app, cfg.bytes_for_ratio(args.ratio));
        let mut fcfs_checksum = 0u64;
        let mut fcfs_wait = 0.0f64;
        for (name, sched) in sched_configs(args.smoke) {
            let mut c = cfg;
            c.machine = c.machine.with_sched(sched);
            let r = x.run(&format!("{app:?}/{name}"), &w, &c, Mode::Prefetch);
            // Demand-stall time the application actually saw (the sum
            // of all hard-fault waits, tracked exactly — reconstructing
            // it as mean * count rounds each sample's contribution).
            let stall = r.os.fault_wait.sum() as u64;
            let mean_wait = r.disk.mean_demand_wait_ns();
            if name == "fcfs" {
                fcfs_checksum = r.checksum;
                fcfs_wait = mean_wait;
            } else {
                if r.checksum != fcfs_checksum {
                    mismatches += 1;
                }
                if name == "demand-prio" && mean_wait < fcfs_wait {
                    prio_wait_wins += 1;
                }
            }
            let data_ok = name == "fcfs" || r.checksum == fcfs_checksum;
            total_wait_ns += r.disk.wait_ns();
            total_service_ns += r.disk.service_ns();
            total_coalesced += r.disk.coalesced_requests;
            total_preemptions += r.disk.preemptions;
            total_aged += r.disk.prefetch_aged;
            total_queue_full += r.disk.queue_full_rejections
                + r.os.queue_full_waits
                + r.os.hints_dropped_queue_full;
            println!(
                "{:<8} {:<12} time {:>8}s | stall {:>8}s | dwait {:>9.0}ns | hwm {:>3} | coal {:>5} | preempt {:>5} | aged {:>3} | qfull {:>3} | {}",
                format!("{app:?}"),
                name,
                secs(r.total()),
                secs(stall),
                mean_wait,
                r.disk.queue_depth_hwm,
                r.disk.coalesced_requests,
                r.disk.preemptions,
                r.disk.prefetch_aged,
                r.disk.queue_full_rejections,
                if data_ok { "data OK" } else { "DATA MISMATCH" },
            );
            rows.push(format!(
                "{app:?},{name},{},{},{},{},{},{},{},{},{}",
                r.total(),
                stall,
                mean_wait,
                r.disk.queue_depth_hwm,
                r.disk.coalesced_requests,
                r.disk.preemptions,
                r.disk.prefetch_aged,
                r.disk.queue_full_rejections,
                data_ok as u8,
            ));
            if args.json.is_some() {
                results.push((format!("{app:?}/{name}"), r));
            }
        }
    }

    println!("---");
    println!(
        "totals: wait {}s, service {}s, coalesced {total_coalesced}, preemptions \
         {total_preemptions}, aged {total_aged}, queue-full events {total_queue_full}, \
         checksum mismatches {mismatches}, demand-prio wait wins {prio_wait_wins}/{}",
        secs(total_wait_ns),
        secs(total_service_ns),
        apps.len(),
    );

    if let Some(csv) = &args.csv {
        write_csv(
            csv,
            "app,policy,total_ns,demand_stall_ns,mean_demand_wait_ns,queue_hwm,coalesced,preemptions,aged,queue_full,data_ok",
            &rows,
        )
        .unwrap_or_else(|e| exit_on(e));
    }

    if let Some(path) = &args.json {
        let pairs: Vec<(String, &RunResult)> =
            results.iter().map(|(n, r)| (n.clone(), r)).collect();
        let doc = report::report_json(&pairs);
        if let Err(e) = report::validate_report(&doc) {
            x.fail(format_args!(
                "emitted report failed its own validation: {e}"
            ));
        }
        report::write_report(path, &doc).unwrap_or_else(|e| exit_on(e));
    }

    x.gate(mismatches == 0, "scheduling policy must be timing-only");
    x.gate(total_wait_ns > 0, "requests must queue under load");
    x.gate(total_service_ns > 0, "requests must reach the media");
    x.gate(total_coalesced > 0, "adjacent reads must coalesce");
    if !args.smoke {
        // Embar alone (the smoke kernel) is too well covered to queue
        // demand reads behind prefetches; the preemption and wait-win
        // checks need the full kernel set.
        x.gate(
            total_preemptions > 0,
            "demand reads must preempt queued prefetches",
        );
        x.gate(
            prio_wait_wins >= 1,
            "DemandPriority must cut the mean demand wait on at least one kernel",
        );
        x.gate(
            total_queue_full > 0,
            "the bounded-queue variant must exercise backpressure",
        );
    }
    if x.ok() {
        println!("policy sweep passed: scheduling changes time, never results");
    }
}

// ------------------------------------------------ chaos, crash, disk death

fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "errors",
            FaultPlan::none(FAULT_SEED).with_errors(0.02, 0.05, 0.02),
        ),
        (
            "stragglers",
            FaultPlan::none(FAULT_SEED).with_stragglers(0.10, 8.0, 20 * MILLISECOND),
        ),
        (
            "chaos",
            // Brownout (and matching pressure storm) from 0.2 s to
            // 1.0 s of simulated time: long enough that the hint path
            // degrades, bounded so the run recovers and exits.
            FaultPlan::chaos(FAULT_SEED, 200 * MILLISECOND, 800 * MILLISECOND, 64),
        ),
    ]
}

/// The counters that must reproduce exactly between same-seed runs.
fn fingerprint(r: &RunResult) -> String {
    format!(
        "{}|{:?}|{:?}|{:?}|{}",
        r.total(),
        r.os,
        r.rt,
        r.disk,
        r.checksum
    )
}

/// Chaos harness: the five NAS kernels under deterministic fault
/// injection — transient I/O errors, tail-latency stragglers, a
/// whole-array brownout, residency bit-vector desync, and a
/// memory-pressure storm. For every kernel and plan:
///
/// 1. **Correctness**: the run verifies and its final address-space
///    checksum is bit-identical to the fault-free run.
/// 2. **Robustness mechanisms engaged**: faults were actually injected,
///    demand reads retried, erroring hints were dropped silently, and
///    (under the full chaos plan) the runtime entered and later exited
///    degraded demand-paging-only mode.
/// 3. **Determinism**: re-running the same plan with the same seed
///    reproduces every counter exactly.
pub(crate) fn chaos(x: &Runner) {
    let (args, cfg) = (x.args, x.args.cfg);
    println!(
        "sched policy: {} (queue depth {}, coalesce {})",
        cfg.machine.sched.policy.label(),
        cfg.machine.sched.queue_depth,
        cfg.machine.sched.coalesce,
    );

    let mut total_faults = 0u64;
    let mut total_retries = 0u64;
    let mut total_hdrops = 0u64;
    let mut degraded_entries = 0u64;
    let mut degraded_exits = 0u64;
    let mut mismatches = 0u32;
    let mut rows = Vec::new();

    for &app in kernels(false) {
        let w = build(app, cfg.bytes_for_ratio(args.ratio));
        let base = x.run(&format!("{app:?}"), &w, &cfg, Mode::Prefetch);
        println!(
            "{:<8} {:<10} time {:>8}s (x1.00) | fault-free baseline",
            format!("{app:?}"),
            "none",
            secs(base.total()),
        );
        for (name, plan) in plans() {
            let spec = RunSpec::new(&cfg, Mode::Prefetch).faults(&plan);
            let r = x.run_spec(&format!("{app:?}/{name}"), &spec, &w);
            let data_ok = r.checksum == base.checksum;
            if !data_ok {
                mismatches += 1;
            }
            total_faults += r.disk.faults_injected;
            total_retries += r.os.io_retries;
            total_hdrops += r.os.hints_dropped_on_error;
            degraded_entries += r.rt.degraded_entries;
            degraded_exits += r.rt.degraded_exits;
            println!(
                "{:<8} {:<10} time {:>8}s (x{:.2}) | faults {:>5} | retries {:>4} | hdrop {:>4} | degr {}/{} | stale fixed {:>3} | {}",
                format!("{app:?}"),
                name,
                secs(r.total()),
                r.total() as f64 / base.total().max(1) as f64,
                r.disk.faults_injected,
                r.os.io_retries,
                r.os.hints_dropped_on_error,
                r.rt.degraded_entries,
                r.rt.degraded_exits,
                r.os.bitvec_stale_fixed,
                if data_ok { "data OK" } else { "DATA MISMATCH" },
            );
            rows.push(format!(
                "{app:?},{name},{},{},{},{},{},{},{}",
                r.total(),
                r.disk.faults_injected,
                r.os.io_retries,
                r.os.hints_dropped_on_error,
                r.rt.degraded_entries,
                r.rt.degraded_exits,
                data_ok as u8
            ));
        }
    }

    // Determinism: the same plan and seed must reproduce every counter.
    let w = build(App::Buk, cfg.bytes_for_ratio(args.ratio));
    let plan = plans().pop().expect("plans is non-empty").1;
    let spec = RunSpec::new(&cfg, Mode::Prefetch).faults(&plan);
    let run = || fingerprint(&x.run_spec("Buk/chaos again", &spec, &w));
    let deterministic = run() == run();

    println!("---");
    println!(
        "totals: faults {total_faults}, retries {total_retries}, hints dropped {total_hdrops}, \
         degraded {degraded_entries} in / {degraded_exits} out, \
         checksum mismatches {mismatches}, deterministic {deterministic}"
    );

    if let Some(csv) = &args.csv {
        write_csv(
            csv,
            "app,plan,total_ns,faults_injected,io_retries,hints_dropped,degraded_entries,degraded_exits,data_ok",
            &rows,
        )
        .unwrap_or_else(|e| exit_on(e));
    }

    x.gate(mismatches == 0, "faults must never change results");
    x.gate(total_faults > 0, "the sweep must actually inject faults");
    x.gate(total_retries > 0, "demand reads must retry under errors");
    x.gate(total_hdrops > 0, "erroring hints must be dropped silently");
    x.gate(
        degraded_entries > 0 && degraded_exits > 0,
        format_args!(
            "the chaos brownout must push the runtime into degraded mode and back out \
             (entries {degraded_entries}, exits {degraded_exits})"
        ),
    );
    x.gate(deterministic, "same-seed chaos runs must be identical");
    if x.ok() {
        println!("chaos sweep passed: faults only cost time, never correctness");
    }
}

/// The crash sweep: simulated *power loss* at several points of each
/// kernel's run (optionally tearing the writes caught mid-air),
/// recovery through the writeback journal, and an application restart
/// that must match the never-crashed reference bit for bit.
///
/// `--no-journal` (`cfg.machine.journal == false`) is the negative
/// control: the sweep must then lose pages, and the row fails saying
/// so, which proves the oracle has teeth. CI runs both directions.
pub(crate) fn crash(x: &Runner) {
    let (args, cfg) = (x.args, &x.args.cfg);
    let journal = cfg.machine.journal;
    let mut lost = 0u64;
    let mut violations = 0u32;
    for &app in kernels(args.smoke) {
        let w = build(app, cfg.bytes_for_ratio(args.ratio));
        let base = x.run(&format!("{app:?}"), &w, cfg, Mode::Prefetch);
        let total_ops = base.disk.demand_reads + base.disk.prefetch_reads + base.disk.writes;
        let (points, torns): (Vec<CrashPoint>, &[bool]) = if journal {
            (
                vec![
                    CrashPoint::AtOp((total_ops / 2).max(1)),
                    CrashPoint::AtOp((total_ops * 9 / 10).max(1)),
                    CrashPoint::AtTime(base.total() / 2),
                ],
                &[false, true],
            )
        } else {
            // A write is only vulnerable while it is actually in the
            // air, so the negative sweep fans out over the write-heavy
            // span of the run until a torn crash catches one mid-air.
            (
                (4..=18)
                    .map(|i| CrashPoint::AtOp((total_ops * i / 20).max(1)))
                    .collect(),
                &[true],
            )
        };
        for (i, &point) in points.iter().enumerate() {
            for &torn in torns {
                let plan = FaultPlan::none(FAULT_SEED + i as u64).with_crash(CrashSpec {
                    point,
                    torn_writes: torn,
                });
                let run = RunSpec::new(cfg, Mode::Prefetch)
                    .faults(&plan)
                    .crash_recover(&w);
                let rec = &run.recovery;
                let cut_off = run.crashed.result.flush.map_or(0, |f| f.vpages.len());
                let ok = run.rerun.result.verified.is_ok()
                    && run.rerun.result.checksum == base.checksum
                    && run.rerun.result.flush.is_none();
                println!(
                    "{:<8} {:<18} torn {:<5} | died {:>8}s, {:>4} dirty cut off | \
                     replayed {:>4} discarded {:>4} torn-found {:>3} lost {:>3} | \
                     recovery {:>8}s | restart {}",
                    format!("{app:?}"),
                    format!("{point:?}"),
                    torn,
                    secs(rec.crashed_at),
                    cut_off,
                    rec.pages_replayed,
                    rec.pages_discarded,
                    rec.torn_detected,
                    rec.unrecoverable,
                    secs(rec.recovery_ns),
                    if ok { "matches reference" } else { "DIVERGED" },
                );
                lost += rec.unrecoverable;
                if journal && (!ok || rec.unrecoverable > 0) {
                    violations += 1;
                }
                if rec.crashed_at == 0 {
                    violations += 1;
                    println!("  ^ crash never tripped");
                }
            }
        }
    }
    let held = x.gate(
        violations == 0,
        "crash oracle violated: with the journal, recovery + restart must \
         always reproduce the reference",
    );
    println!("---");
    if journal {
        if held {
            println!("crash sweep passed: power loss costs time, never data");
        }
    } else if lost > 0 {
        // The negative control *wants* this failure: a disabled journal
        // must lose data, or the oracle isn't testing anything.
        println!("journal disabled: {lost} pages unrecoverable (expected) — exiting non-zero");
        x.fail(format_args!(
            "{lost} pages unrecoverable without the journal"
        ));
    } else {
        println!("journal disabled but nothing was lost: the negative gate has no teeth");
    }
}

/// The disk-death sweep: permanent whole-disk death (death time x
/// kernel x prefetch policy) under rotating parity. Every cell must
/// serve the dead disk's pages by survivor reconstruction, rebuild onto
/// the hot spare, and finish bit-identical to its fault-free reference.
///
/// Under `--redundancy none` it is the negative control instead: the
/// first read of the dead disk must abort the run with the typed
/// "no redundancy: data lost" error (a panic out of the machine).
pub(crate) fn disk_death(x: &Runner) {
    let (args, cfg) = (x.args, &x.args.cfg);
    if cfg.machine.redundancy == Redundancy::None {
        let w = build(App::Embar, cfg.bytes_for_ratio(args.ratio));
        let base = x.run("Embar", &w, cfg, Mode::Prefetch);
        let plan = FaultPlan::none(FAULT_SEED).with_disk_death(DiskDeath {
            disk: 1,
            at: (base.total() / 4).max(1),
        });
        let _ = RunSpec::new(cfg, Mode::Prefetch).faults(&plan).run(&w);
        x.fail("a disk death with no redundancy did not lose data: the gate has no teeth");
        return;
    }
    let policies: &[PolicyKind] = if args.smoke {
        &[PolicyKind::CompilerOnly]
    } else {
        &[PolicyKind::CompilerOnly, PolicyKind::Readahead]
    };
    let mut degraded = 0u64;
    let mut rerouted = 0u64;
    let mut hedged = 0u64;
    let mut completed_rebuilds = 0u32;
    let mut mismatches = 0u32;
    for &app in kernels(args.smoke) {
        // Mode x policy: the demand-paged original (every read a fault,
        // so dead-disk pages reconstruct on demand) and the prefetching
        // build under each policy (dead-disk hints reroute instead).
        let mut cells = vec![(Mode::Original, PolicyKind::CompilerOnly)];
        cells.extend(policies.iter().map(|&p| (Mode::Prefetch, p)));
        for (mode, policy) in cells {
            let mut cell = *cfg;
            cell.machine = cell.machine.with_prefetch_policy(policy);
            let what = format!("{app:?}/{}", policy.name());
            let w = build(app, cell.bytes_for_ratio(args.ratio));
            let base = x.run(&what, &w, &cell, mode);
            // Kill a different disk early and late in the run.
            for (num, den, disk) in [(1u64, 4u64, 1usize), (3, 5, 2)] {
                let at = (base.total() * num / den).max(1);
                let plan = FaultPlan::none(FAULT_SEED).with_disk_death(DiskDeath { disk, at });
                let spec = RunSpec::new(&cell, mode).faults(&plan);
                let r = x.run_spec(&format!("{what} disk {disk} dead"), &spec, &w);
                let data_ok = r.checksum == base.checksum;
                if !data_ok {
                    mismatches += 1;
                }
                degraded += r.os.degraded_reads;
                rerouted += r.os.hints_rerouted_degraded;
                hedged += r.os.hedged_reads;
                if r.os.rebuild_ns > 0 {
                    completed_rebuilds += 1;
                }
                println!(
                    "{:<8} {:<12} disk {disk} dies {:>7}s | time {:>8}s (x{:.2}) | \
                     degraded {:>5} | rerouted {:>4} | hedged {:>4}/{:<4} | \
                     rebuilt {:>4} rows in {:>7}s | {}",
                    format!("{app:?}"),
                    format!("{}/{}", mode.label(), policy.name()),
                    secs(at),
                    secs(r.total()),
                    r.total() as f64 / base.total().max(1) as f64,
                    r.os.degraded_reads,
                    r.os.hints_rerouted_degraded,
                    r.os.hedged_wins,
                    r.os.hedged_reads,
                    r.os.rebuild_rows,
                    secs(r.os.rebuild_ns),
                    if data_ok { "data OK" } else { "DATA MISMATCH" },
                );
            }
        }
    }
    println!("---");
    println!(
        "totals: degraded reads {degraded}, hints rerouted {rerouted}, hedged {hedged}, \
         rebuilds completed {completed_rebuilds}, checksum mismatches {mismatches}"
    );
    x.gate(mismatches == 0, "a disk death must never change results");
    x.gate(degraded > 0, "the sweep must serve degraded reads");
    x.gate(
        completed_rebuilds > 0,
        "at least one run must finish its online rebuild",
    );
    if x.ok() {
        println!("disk-death sweep passed: losing a whole disk costs time, never data");
    }
}

/// The latent-corruption gate: parity flipped via the debug hook while
/// the array is healthy must be detected (and healed) by the rebuild's
/// verify sweep after a disk death, and every data page must survive.
pub(crate) fn corrupt_parity(x: &Runner) {
    let cfg = &x.args.cfg;
    let params = cfg.machine.with_memory_bytes(64 * cfg.machine.page_bytes);
    let pages = 256u64;
    let mut m = oocp_os::Machine::new(params, pages * params.page_bytes);
    for p in 0..pages {
        m.store_f64(p * params.page_bytes, p as f64);
    }
    let planted = m.corrupt_parity_row(1) && m.corrupt_parity_row(5);
    if !x.gate(planted, "the corruption hook needs a parity layout") {
        return;
    }
    let death = DiskDeath {
        disk: 2,
        at: m.now() + 1,
    };
    m.set_fault_plan(&FaultPlan::none(FAULT_SEED).with_disk_death(death));
    // Trip detection (page 2 of stripe row 0 lives on disk 2), then
    // drive the rebuild across every row.
    m.touch(2 * params.page_bytes, 8, false);
    m.finish_rebuild();
    let caught = m.stats().rebuild_verify_mismatches;
    let intact = (0..pages).all(|p| m.peek_f64(p * params.page_bytes) == p as f64);
    println!("corrupt-parity gate: {caught} corrupted rows detected by rebuild verify");
    x.gate(intact, "data must survive parity corruption");
    x.gate(
        caught == 2,
        "the verify sweep must catch both corrupted rows",
    );
}

// ------------------------------------------------------------------ tenants

/// Fairness bound: co-scheduled p95 demand stall vs. solo.
const P95_FACTOR: u64 = 3;

/// Kill point for the chaos cell's crashing tenant, in VM operations —
/// early enough that the victim still holds pages and in-flight
/// prefetches when it dies.
const KILL_AT_OP: u64 = 2_000;

fn ratio(num: Ns, den: Ns) -> f64 {
    num as f64 / den.max(1) as f64
}

fn print_cell(label: &str, cell: &CoCell) {
    let worst = cell
        .hub
        .tenants
        .iter()
        .zip(&cell.solo)
        .filter(|(t, _)| !t.killed)
        .map(|(t, s)| ratio(t.demand_stall_p95_ns, s.p95_ns.max(1)))
        .fold(0.0f64, f64::max);
    let sum =
        |f: fn(&TenantStats) -> u64| -> u64 { cell.hub.tenants.iter().map(|t| f(&t.os)).sum() };
    println!(
        "{label:>8}  elapsed {:>8}s  serial {:>8}s  speedup {:>5.2}x  worst-p95 {:>7.2}x  \
         drops q/p {}/{}  evict {}",
        secs(cell.hub.elapsed_ns),
        secs(cell.serial_ns),
        ratio(cell.serial_ns, cell.hub.elapsed_ns),
        worst,
        sum(|os| os.hints_dropped_quota),
        sum(|os| os.hints_dropped_pressure),
        sum(|os| os.quota_evictions),
    );
}

fn print_tenants(cell: &CoCell) {
    println!("  per-tenant breakdown ({} tenants):", cell.n);
    for (t, (out, solo)) in cell.hub.tenants.iter().zip(&cell.solo).enumerate() {
        let fate = if out.killed { "killed" } else { "ok" };
        println!(
            "    t{t:<3} {:<10} {fate:<6} p95 {:>9} ns (solo {:>9} ns)  stalls {:>5}  \
             drops q/p {}/{}  evict {}  resident {} frames",
            format!("{:?}", qos_for(t)),
            out.demand_stall_p95_ns,
            solo.p95_ns,
            out.demand_stalls,
            out.os.hints_dropped_quota,
            out.os.hints_dropped_pressure,
            out.os.quota_evictions,
            out.resident_frames,
        );
    }
}

fn csv_rows(cells: &[(String, CoCell)]) -> Vec<String> {
    let mut rows = Vec::new();
    for (label, cell) in cells {
        for (t, (out, solo)) in cell.hub.tenants.iter().zip(&cell.solo).enumerate() {
            rows.push(format!(
                "{label},{n},{t},{qos:?},{killed},{p95},{solo_p95},{stalls},{dq},{dp},{ev},{res},{elapsed},{serial}",
                n = cell.n,
                qos = qos_for(t),
                killed = out.killed,
                p95 = out.demand_stall_p95_ns,
                solo_p95 = solo.p95_ns,
                stalls = out.demand_stalls,
                dq = out.os.hints_dropped_quota,
                dp = out.os.hints_dropped_pressure,
                ev = out.os.quota_evictions,
                res = out.resident_frames,
                elapsed = cell.hub.elapsed_ns,
                serial = cell.serial_ns,
            ));
        }
    }
    rows
}

/// The multi-tenant fairness and throughput sweep: co-schedule 1 → N
/// copies of the EMBAR kernel on one shared machine (see
/// [`crate::tenants`] for the canonical cell: fixed per-tenant memory
/// reservations, bounded prefetch pipelines, a
/// Guaranteed/Burstable/BestEffort QoS mix) and report, per cell, the
/// makespan against the serial schedule of solo runs and the worst
/// per-tenant p95 demand stall against its solo baseline.
///
/// The gate cell (16 tenants, 4 under `--smoke`) enforces the
/// multi-tenant contract:
///
/// * every tenant's final segment checksum is bit-identical to its
///   solo run (co-scheduling is invisible to correctness);
/// * no tenant's p95 demand stall exceeds 3x its solo baseline
///   (floored at one disk access) under DemandPriority + quotas;
/// * the co-scheduled makespan beats the serial schedule (sharing the
///   machine must actually buy throughput);
/// * a chaos re-run of the gate cell (disk errors + stragglers, one
///   tenant killed mid-run) leaves every survivor bit-exact.
pub(crate) fn tenants(x: &Runner) {
    tenant_sweep(x, false);
}

/// [`tenants`] out to 128 tenants, gated at 16.
pub(crate) fn tenants_full(x: &Runner) {
    tenant_sweep(x, true);
}

fn tenant_sweep(x: &Runner, full: bool) {
    let (args, cfg) = (x.args, x.args.cfg);
    let (counts, gate_n): (&[usize], usize) = if full {
        (&[1, 2, 4, 8, 16, 32, 64, 128], 16)
    } else if args.smoke {
        (&[1, 2, 4], 4)
    } else {
        (&[1, 2, 4, 8, 16], 16)
    };
    let stall_floor = cfg.machine.disk.avg_access_ns() + cfg.machine.fault_overhead_ns;
    println!(
        "tenants: co-scheduling EMBAR x{:?} on {} MiB / {} disks (DemandPriority, \
         quota {} frames + {}-deep pipeline per tenant, gate at {gate_n})",
        counts,
        cfg.machine.memory_bytes() >> 20,
        cfg.machine.ndisks,
        quota_frames(&cfg),
        8,
    );

    let mut solos: HashMap<u64, Solo> = HashMap::new();
    let mut cells: Vec<(String, CoCell)> = Vec::new();
    let mut cell_of =
        |n, opts| co_run(&cfg, n, &opts, &mut solos).unwrap_or_else(|e| exit_on_bad_config(e));

    for &n in counts {
        let cell = cell_of(n, CoOptions::default());
        print_cell(&format!("co{n}"), &cell);
        // Correctness is not negotiable at any width; the p95 and
        // throughput SLOs are gated at the canonical cell.
        for f in fairness_failures(&cell, u64::MAX, 0) {
            x.fail(format_args!("co{n}: {f}"));
        }
        if n == gate_n {
            for f in fairness_failures(&cell, P95_FACTOR, stall_floor) {
                x.fail(format_args!("co{n}: {f}"));
            }
            x.gate(
                cell.hub.elapsed_ns < cell.serial_ns,
                format_args!(
                    "co{n}: makespan {} ns did not beat the serial schedule {} ns",
                    cell.hub.elapsed_ns, cell.serial_ns
                ),
            );
            print_tenants(&cell);
        }
        cells.push((format!("co{n}"), cell));
    }

    // Chaos: the gate cell again under disk errors and stragglers,
    // with the last tenant (a BestEffort one) crashing early. Faults
    // cost time and a crash truncates the victim — every survivor
    // must still match its solo checksum bit for bit.
    let cell = cell_of(
        gate_n,
        CoOptions {
            faults: true,
            kill: Some((gate_n - 1, KILL_AT_OP)),
            ..Default::default()
        },
    );
    print_cell(&format!("chaos{gate_n}"), &cell);
    x.gate(
        cell.hub.tenants[gate_n - 1].killed,
        format_args!(
            "chaos{gate_n}: tenant {} was not killed at op {KILL_AT_OP}",
            gate_n - 1
        ),
    );
    for f in fairness_failures(&cell, u64::MAX, 0) {
        x.fail(format_args!("chaos{gate_n}: {f}"));
    }
    cells.push((format!("chaos{gate_n}"), cell));

    if let Some(path) = &args.csv {
        let header = "cell,n,tenant,qos,killed,p95_ns,solo_p95_ns,stalls,dropped_quota,\
                      dropped_pressure,quota_evictions,resident_frames,elapsed_ns,serial_ns";
        write_csv(path, header, &csv_rows(&cells)).unwrap_or_else(|e| exit_on(e));
    }
    if let Some(path) = &args.json {
        // The cells carry the tenant summary whether or not metrics
        // were on; distill what the sweep already ran.
        let runs = cells
            .iter()
            .map(|(label, cell)| tenant_baseline_run(label, cell))
            .collect();
        let b = Baseline {
            index: 0,
            seed: cfg.seed,
            runs,
            whylate: None,
        };
        let doc = baseline::baseline_json(&b);
        if let Err(e) = baseline::parse_baseline(&doc) {
            x.fail(format_args!(
                "emitted report failed its own validation: {e}"
            ));
        }
        report::write_report(path, &doc).unwrap_or_else(|e| exit_on(e));
    }
    if x.ok() {
        println!("tenants: PASS");
    }
}

/// One leg of the quota gate: a small, well-behaved victim (working set
/// inside its fair share) shares the machine with a hint-free hog whose
/// working set alone is all of physical memory. The original
/// (uncompiled) programs issue no release hints, so a tenant's working
/// set only grows — exactly the anti-social neighbour quotas exist for.
/// Prints each tenant's residency; returns the fair share, the tenants
/// resident beyond it (with their frames), and the quota evictions.
fn quota_leg(cfg: &Config, quotas: bool) -> (u64, Vec<(usize, u64)>, u64) {
    let share = cfg.machine.resident_limit / 2;
    let victim_bytes = (share / 2) * cfg.machine.page_bytes;
    let hog_bytes = cfg.machine.resident_limit * cfg.machine.page_bytes;
    let tenants = [
        build(App::Embar, victim_bytes),
        build(App::Embar, hog_bytes),
    ];
    println!(
        "tenants --quota-gate: hint-free EMBAR victim ({} pages) vs hog ({} pages) \
         on {} frames (fair share {share} frames, quotas {})",
        victim_bytes / cfg.machine.page_bytes,
        hog_bytes / cfg.machine.page_bytes,
        cfg.machine.resident_limit,
        if quotas { "ON" } else { "OFF" },
    );
    let spec = if quotas {
        TenantSpec::unlimited().with_memory_frames(share)
    } else {
        TenantSpec::unlimited()
    };
    let programs = tenants
        .iter()
        .map(|w| TenantProgram::new(w.prog.clone(), w.param_values.clone()).with_spec(spec))
        .collect();
    let mut hub = TenantHub::new(cfg.machine, programs)
        .unwrap_or_else(|e| exit_on_bad_config(e))
        .with_cost(cfg.cost);
    for (t, w) in tenants.iter().enumerate() {
        let binds = hub.binds(t).to_vec();
        w.init(&binds, &mut hub.data(), seed_of(cfg, t));
    }
    let r = hub.run();
    let mut over = Vec::new();
    for (t, out) in r.tenants.iter().enumerate() {
        println!(
            "  tenant {t}: resident {} frames (share {share}), quota evictions {}",
            out.resident_frames, out.os.quota_evictions
        );
        if out.resident_frames > share {
            over.push((t, out.resident_frames));
        }
    }
    let evictions = r.tenants.iter().map(|t| t.os.quota_evictions).sum();
    (share, over, evictions)
}

/// The memory-isolation gate, both legs. With quotas the hog is capped
/// at its fair share (its own pages are the eviction victims) and
/// enforcement must actually fire. Unlimited, the hog must overrun its
/// share at the victim's expense — otherwise the quota machinery is
/// decorative.
pub(crate) fn quota_gate(x: &Runner) {
    let cfg = &x.args.cfg;
    let (share, over, evictions) = quota_leg(cfg, true);
    for (t, frames) in over {
        x.fail(format_args!(
            "tenant {t} resident {frames} frames exceeds fair share {share} under quotas"
        ));
    }
    x.gate(
        evictions > 0,
        "quotas never fired (no quota evictions on a 2x overcommit)",
    );
    if x.ok() {
        println!("tenants: PASS");
    }
    let (share, over, _) = quota_leg(cfg, false);
    for (t, frames) in &over {
        println!(
            "quota-gate: tenant {t} resident {frames} frames exceeds fair share {share}, \
             as it must without quotas"
        );
    }
    x.gate(
        !over.is_empty(),
        "without quotas no tenant overran its fair share: the gate has no teeth",
    );
}
