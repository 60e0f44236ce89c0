//! Chaos harness: the five NAS kernels under deterministic fault
//! injection.
//!
//! The paper's central contract is that prefetch and release are
//! *hints*: the OS may drop them at any time and the application must
//! still compute the right answer, only slower. This binary stresses
//! that contract with the fault-injection stack — transient I/O
//! errors, tail-latency stragglers, a whole-array brownout, residency
//! bit-vector desync, and a memory-pressure storm — and checks three
//! things for every kernel and plan:
//!
//! 1. **Correctness**: the run verifies and its final address-space
//!    checksum is bit-identical to the fault-free run.
//! 2. **Robustness mechanisms engaged**: faults were actually injected,
//!    demand reads retried, erroring hints were dropped silently, and
//!    (under the full chaos plan) the runtime entered and later exited
//!    degraded demand-paging-only mode.
//! 3. **Determinism**: re-running the same plan with the same seed
//!    reproduces every counter exactly.
//!
//! With `--crash` the binary instead sweeps simulated *power loss*:
//! each kernel is killed at several points of its run (optionally
//! tearing the writes caught mid-air), recovered through the writeback
//! journal, and re-run from an application restart — which must match
//! the never-crashed reference bit for bit. `--no-journal` disables
//! the journal and inverts the expectation: the sweep must then lose
//! pages (exit non-zero), proving the oracle has teeth. CI runs both
//! directions.
//!
//! With `--disk-death` the binary sweeps permanent *whole-disk death*
//! (death time x kernel x prefetch policy) under `--redundancy parity`
//! (the default in this mode): every run must serve the lost disk's
//! pages by survivor reconstruction, rebuild onto the hot spare, and
//! finish bit-identical to the fault-free reference. Passing
//! `--redundancy none` inverts it into the negative gate: the first
//! read of the dead disk must abort the run with the typed
//! "no redundancy: data lost" error. `--corrupt-parity` adds the
//! latent-corruption gate: parity flipped via the debug hook before a
//! death must be detected by the rebuild's verify sweep.
//!
//! Run: `cargo run --release -p oocp-bench --bin chaos`

use oocp_bench::{run_workload, secs, Args, Config, Mode, RunResult, RunSpec};
use oocp_nas::{build, App};
use oocp_os::{CrashPoint, CrashSpec, DiskDeath, FaultPlan, PolicyKind, Redundancy};
use oocp_sim::time::MILLISECOND;

/// Fault seed, independent of the workload seed so `--seed` sweeps the
/// data while the fault schedule stays fixed.
const FAULT_SEED: u64 = 0xC4A05;

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

fn row(app: App, name: &str, r: &RunResult, base: &RunResult) {
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
        if r.checksum == base.checksum { "data OK" } else { "DATA MISMATCH" },
    );
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

/// The `--crash` sweep: power loss x recovery x restart for every
/// kernel, against the fault-free reference. Returns the number of
/// *lost* pages (unrecoverable after recovery), which must be zero
/// with the journal and non-zero without it.
fn crash_sweep(cfg: &Config, ratio: f64, smoke: bool, journal: bool) -> u64 {
    let apps = if smoke {
        vec![App::Embar]
    } else {
        vec![App::Embar, App::Buk, App::Cgm, App::Fft, App::Mgrid]
    };
    let mut lost = 0u64;
    let mut violations = 0u32;
    for app in apps {
        let w = build(app, cfg.bytes_for_ratio(ratio));
        let base = run_workload(&w, cfg, Mode::Prefetch);
        base.verified
            .as_ref()
            .unwrap_or_else(|e| panic!("{app:?} crash-free run failed to verify: {e}"));
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
                let cut_off = run
                    .crashed
                    .result
                    .flush
                    .as_ref()
                    .map_or(0, |f| f.vpages.len());
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
    assert_eq!(
        violations, 0,
        "crash oracle violated: with the journal, recovery + restart must \
         always reproduce the reference"
    );
    lost
}

/// The `--disk-death` sweep: permanent whole-disk death at several
/// points of each kernel's run, across prefetch policies, under parity
/// redundancy. Every cell must serve the dead disk's pages by survivor
/// reconstruction, rebuild onto the hot spare, and finish bit-identical
/// to its fault-free reference.
fn disk_death_sweep(cfg: &Config, ratio: f64, smoke: bool) {
    let apps = if smoke {
        vec![App::Embar]
    } else {
        vec![App::Embar, App::Buk, App::Cgm, App::Fft, App::Mgrid]
    };
    let policies = if smoke {
        vec![PolicyKind::CompilerOnly]
    } else {
        vec![PolicyKind::CompilerOnly, PolicyKind::Readahead]
    };
    let mut degraded = 0u64;
    let mut rerouted = 0u64;
    let mut hedged = 0u64;
    let mut completed_rebuilds = 0u32;
    let mut mismatches = 0u32;
    for &app in &apps {
        // Mode x policy: the demand-paged original (every read a fault,
        // so dead-disk pages reconstruct on demand) and the prefetching
        // build under each policy (dead-disk hints reroute instead).
        let mut cells = vec![(Mode::Original, PolicyKind::CompilerOnly)];
        cells.extend(policies.iter().map(|&p| (Mode::Prefetch, p)));
        for (mode, policy) in cells {
            let mut cell = *cfg;
            cell.machine = cell.machine.with_prefetch_policy(policy);
            let w = build(app, cell.bytes_for_ratio(ratio));
            let base = run_workload(&w, &cell, mode);
            base.verified
                .as_ref()
                .unwrap_or_else(|e| panic!("{app:?} fault-free parity run failed to verify: {e}"));
            // Kill a different disk early and late in the run.
            for (num, den, disk) in [(1u64, 4u64, 1usize), (3, 5, 2)] {
                let at = (base.total() * num / den).max(1);
                let plan = FaultPlan::none(FAULT_SEED).with_disk_death(DiskDeath { disk, at });
                let r = RunSpec::new(&cell, mode).faults(&plan).run(&w).result;
                r.verified.as_ref().unwrap_or_else(|e| {
                    panic!("{app:?}/{} death run failed to verify: {e}", policy.name())
                });
                if r.checksum != base.checksum {
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
                    if r.checksum == base.checksum {
                        "data OK"
                    } else {
                        "DATA MISMATCH"
                    },
                );
            }
        }
    }
    println!("---");
    println!(
        "totals: degraded reads {degraded}, hints rerouted {rerouted}, hedged {hedged}, \
         rebuilds completed {completed_rebuilds}, checksum mismatches {mismatches}"
    );
    assert_eq!(mismatches, 0, "a disk death must never change results");
    assert!(degraded > 0, "the sweep must serve degraded reads");
    assert!(
        completed_rebuilds > 0,
        "at least one run must finish its online rebuild"
    );
    println!("disk-death sweep passed: losing a whole disk costs time, never data");
}

/// The `--corrupt-parity` gate: latent parity corruption planted via
/// the debug hook while the array is healthy must be detected (and
/// healed) by the rebuild's verify sweep after a disk death.
fn corrupt_parity_gate(cfg: &Config) {
    let params = cfg
        .machine
        .with_memory_bytes(64 * cfg.machine.page_bytes)
        .with_redundancy(Redundancy::Parity);
    let pages = 256u64;
    let mut m = oocp_os::Machine::new(params, pages * params.page_bytes);
    for p in 0..pages {
        m.store_f64(p * params.page_bytes, p as f64);
    }
    assert!(m.corrupt_parity_row(1), "hook needs a parity layout");
    assert!(m.corrupt_parity_row(5));
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
    for p in 0..pages {
        assert_eq!(
            m.peek_f64(p * params.page_bytes),
            p as f64,
            "data survives parity corruption"
        );
    }
    println!("corrupt-parity gate: {caught} corrupted rows detected by rebuild verify");
    assert_eq!(caught, 2, "the verify sweep must catch both corrupted rows");
}

fn main() {
    // Small memory keeps the sweep quick; ratios are what matter.
    let mut platform = Config::default_platform();
    platform.machine = platform.machine.with_memory_bytes(2 * 1024 * 1024);
    let args = Args::parse_on(platform);
    if args.corrupt_parity {
        corrupt_parity_gate(&args.cfg);
        return;
    }
    if args.disk_death {
        // Parity is the point of this sweep, so it is the default here;
        // an explicit `--redundancy none` inverts the sweep into the
        // negative data-loss gate.
        platform.machine.redundancy = Redundancy::Parity;
        let args = Args::parse_on(platform);
        let cfg = args.cfg;
        if cfg.machine.redundancy == Redundancy::None {
            // Negative gate: the first read of the dead disk must abort
            // the run with the typed data-loss error (a panic carrying
            // "no redundancy: data lost").
            let w = build(App::Embar, cfg.bytes_for_ratio(args.ratio));
            let base = run_workload(&w, &cfg, Mode::Prefetch);
            let plan = FaultPlan::none(FAULT_SEED).with_disk_death(DiskDeath {
                disk: 1,
                at: (base.total() / 4).max(1),
            });
            let _ = RunSpec::new(&cfg, Mode::Prefetch).faults(&plan).run(&w);
            println!("disk death with no redundancy did not lose data: the gate has no teeth");
            return;
        }
        disk_death_sweep(&cfg, args.ratio, args.smoke);
        return;
    }
    let cfg = args.cfg;
    if args.crash {
        let journal = !args.no_journal;
        let lost = crash_sweep(&cfg, args.ratio, args.smoke, journal);
        println!("---");
        if journal {
            println!("crash sweep passed: power loss costs time, never data");
        } else if lost > 0 {
            // The negative gate *wants* this exit: a disabled journal
            // must lose data, or the oracle isn't testing anything.
            println!("journal disabled: {lost} pages unrecoverable (expected) — exiting non-zero");
            std::process::exit(1);
        } else {
            println!("journal disabled but nothing was lost: the negative gate has no teeth");
        }
        return;
    }
    println!(
        "sched policy: {} (queue depth {}, coalesce {})",
        cfg.machine.sched.policy.label(),
        cfg.machine.sched.queue_depth,
        cfg.machine.sched.coalesce,
    );
    let apps = [App::Embar, App::Buk, App::Cgm, App::Fft, App::Mgrid];

    let mut total_faults = 0u64;
    let mut total_retries = 0u64;
    let mut total_hdrops = 0u64;
    let mut degraded_entries = 0u64;
    let mut degraded_exits = 0u64;
    let mut mismatches = 0u32;
    let mut rows = Vec::new();

    for app in apps {
        let w = build(app, cfg.bytes_for_ratio(args.ratio));
        let base = run_workload(&w, &cfg, Mode::Prefetch);
        base.verified
            .as_ref()
            .unwrap_or_else(|e| panic!("{app:?} fault-free run failed to verify: {e}"));
        println!(
            "{:<8} {:<10} time {:>8}s (x1.00) | fault-free baseline",
            format!("{app:?}"),
            "none",
            secs(base.total()),
        );
        for (name, plan) in plans() {
            let r = RunSpec::new(&cfg, Mode::Prefetch)
                .faults(&plan)
                .run(&w)
                .result;
            r.verified
                .as_ref()
                .unwrap_or_else(|e| panic!("{app:?}/{name} failed to verify: {e}"));
            if r.checksum != base.checksum {
                mismatches += 1;
            }
            total_faults += r.disk.faults_injected;
            total_retries += r.os.io_retries;
            total_hdrops += r.os.hints_dropped_on_error;
            degraded_entries += r.rt.degraded_entries;
            degraded_exits += r.rt.degraded_exits;
            row(app, name, &r, &base);
            if let Some(csv) = &args.csv {
                rows.push(format!(
                    "{app:?},{name},{},{},{},{},{},{},{}",
                    r.total(),
                    r.disk.faults_injected,
                    r.os.io_retries,
                    r.os.hints_dropped_on_error,
                    r.rt.degraded_entries,
                    r.rt.degraded_exits,
                    (r.checksum == base.checksum) as u8
                ));
                let _ = csv; // written once below
            }
        }
    }

    // Determinism: the same plan and seed must reproduce every counter.
    let w = build(App::Buk, cfg.bytes_for_ratio(args.ratio));
    let plan = plans().pop().expect("plans is non-empty").1;
    let run = || {
        fingerprint(
            &RunSpec::new(&cfg, Mode::Prefetch)
                .faults(&plan)
                .run(&w)
                .result,
        )
    };
    let deterministic = run() == run();

    println!("---");
    println!(
        "totals: faults {total_faults}, retries {total_retries}, hints dropped {total_hdrops}, \
         degraded {degraded_entries} in / {degraded_exits} out, \
         checksum mismatches {mismatches}, deterministic {deterministic}"
    );

    if let Some(csv) = &args.csv {
        oocp_bench::write_csv(
            csv,
            "app,plan,total_ns,faults_injected,io_retries,hints_dropped,degraded_entries,degraded_exits,data_ok",
            &rows,
        )
        .unwrap_or_else(|e| oocp_bench::exit_on(e));
    }

    assert_eq!(mismatches, 0, "faults must never change results");
    assert!(total_faults > 0, "the sweep must actually inject faults");
    assert!(total_retries > 0, "demand reads must retry under errors");
    assert!(total_hdrops > 0, "erroring hints must be dropped silently");
    assert!(
        degraded_entries > 0 && degraded_exits > 0,
        "the chaos brownout must push the runtime into degraded mode and back out \
         (entries {degraded_entries}, exits {degraded_exits})"
    );
    assert!(deterministic, "same-seed chaos runs must be identical");
    println!("chaos sweep passed: faults only cost time, never correctness");
}
