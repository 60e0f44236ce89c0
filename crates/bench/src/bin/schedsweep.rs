//! Policy sweep: the five NAS kernels under each I/O scheduling policy.
//!
//! The paper's Hurricane scheduler "treats prefetches the same as
//! normal disk read requests" and leaves demand-over-prefetch
//! prioritization as future work. This binary explores that axis: every
//! kernel runs under FCFS (the paper baseline), SSTF and SCAN elevator
//! ordering, and DemandPriority (demand reads preempt queued
//! prefetches, bounded by an aging limit), each with adjacent-request
//! coalescing where it differs from the baseline, plus a bounded-queue
//! DemandPriority variant that exercises backpressure.
//!
//! Checks, per kernel:
//!
//! 1. **Correctness**: every policy verifies and produces the same
//!    final address-space checksum as the FCFS run — scheduling is
//!    timing-only.
//! 2. **Effectiveness**: DemandPriority achieves a lower mean
//!    demand-read wait than FCFS on at least one kernel.
//! 3. **Observability**: the new wait/service/coalesce/preemption
//!    counters are nonzero under load.
//!
//! Run: `cargo run --release -p oocp-bench --bin schedsweep`
//! CI:  `... --bin schedsweep -- --smoke` (one small kernel).

use oocp_bench::{report, run_workload, secs, Args, Config, Mode, RunResult};
use oocp_nas::{build, App};
use oocp_os::{SchedConfig, SchedPolicy};

fn configs(full: bool) -> Vec<(&'static str, SchedConfig)> {
    let base = SchedConfig::default();
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
        (
            "demand-prio",
            base.with_policy(SchedPolicy::DemandPriority)
                .with_coalesce(true),
        ),
    ];
    if full {
        // Bounded queue: exercises QueueFull backpressure (blocking
        // waits for demand traffic, silent drops for prefetch hints).
        v.push((
            "demand-q8",
            base.with_policy(SchedPolicy::DemandPriority)
                .with_coalesce(true)
                .with_queue_depth(8),
        ));
    }
    v
}

fn main() {
    // Small memory keeps the sweep quick; the smoke gate goes smaller
    // still so CI stays fast. Which default applies is itself on the
    // command line, so `--smoke` parses again from the smaller one.
    let platform = |mb: u64| {
        let mut cfg = Config::default_platform();
        cfg.machine = cfg.machine.with_memory_bytes(mb * 1024 * 1024);
        cfg
    };
    let mut args = Args::parse_on(platform(2));
    if args.smoke {
        args = Args::parse_on(platform(1));
    }
    let cfg = args.cfg;
    let apps: &[App] = if args.smoke {
        &[App::Embar]
    } else {
        &[App::Embar, App::Buk, App::Cgm, App::Fft, App::Mgrid]
    };

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
        for (name, sched) in configs(!args.smoke) {
            let mut c = cfg;
            c.machine = c.machine.with_sched(sched);
            let r = run_workload(&w, &c, Mode::Prefetch);
            r.verified
                .as_ref()
                .unwrap_or_else(|e| panic!("{app:?}/{name} failed to verify: {e}"));
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
                if name == "fcfs" || r.checksum == fcfs_checksum {
                    "data OK"
                } else {
                    "DATA MISMATCH"
                },
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
                (name == "fcfs" || r.checksum == fcfs_checksum) as u8,
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
        oocp_bench::write_csv(
            csv,
            "app,policy,total_ns,demand_stall_ns,mean_demand_wait_ns,queue_hwm,coalesced,preemptions,aged,queue_full,data_ok",
            &rows,
        )
        .unwrap_or_else(|e| oocp_bench::exit_on(e));
    }

    if let Some(path) = &args.json {
        let pairs: Vec<(String, &RunResult)> =
            results.iter().map(|(n, r)| (n.clone(), r)).collect();
        let doc = report::report_json(&pairs);
        report::validate_report(&doc).expect("schedsweep report must satisfy its invariants");
        report::write_report(path, &doc).unwrap_or_else(|e| oocp_bench::exit_on(e));
    }

    assert_eq!(mismatches, 0, "scheduling policy must be timing-only");
    assert!(total_wait_ns > 0, "requests must queue under load");
    assert!(total_service_ns > 0, "requests must reach the media");
    assert!(total_coalesced > 0, "adjacent reads must coalesce");
    if !args.smoke {
        // Embar alone (the smoke kernel) is too well covered to queue
        // demand reads behind prefetches; the preemption and wait-win
        // checks need the full kernel set.
        assert!(
            total_preemptions > 0,
            "demand reads must preempt queued prefetches"
        );
        assert!(
            prio_wait_wins >= 1,
            "DemandPriority must cut the mean demand wait on at least one kernel"
        );
        assert!(
            total_queue_full > 0,
            "the bounded-queue variant must exercise backpressure"
        );
    }
    println!("policy sweep passed: scheduling changes time, never results");
}
