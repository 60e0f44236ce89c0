//! Property-based testing of the I/O scheduler subsystem.
//!
//! The contract under test: scheduling policy is *timing-only*. However
//! a disk reorders, merges, or delays its queued requests, the data a
//! program computes — and the classification of its page faults — must
//! be bit-identical to the FCFS baseline. Policies may only move time
//! around.
//!
//! Plans are generated with the simulator's deterministic `SimRng` so
//! the suite builds offline; every failure names a replayable case.

use std::collections::HashMap;

use oocp::os::{FaultPlan, Machine, MachineParams, SchedConfig, SchedPolicy};
use oocp::sim::time::MILLISECOND;
use oocp::sim::SimRng;
use oocp_bench::{run_workload, Config, Mode, RunResult, RunSpec};
use oocp_nas::{build, App};

/// The scheduler configurations the properties sweep: every policy,
/// with and without coalescing, plus a bounded queue that exercises
/// backpressure (demand reads block, prefetch hints drop).
fn sweep() -> Vec<SchedConfig> {
    let base = SchedConfig::default();
    vec![
        base.with_policy(SchedPolicy::Sstf),
        base.with_policy(SchedPolicy::Scan),
        base.with_policy(SchedPolicy::DemandPriority),
        base.with_policy(SchedPolicy::Sstf).with_coalesce(true),
        base.with_policy(SchedPolicy::Scan).with_coalesce(true),
        base.with_policy(SchedPolicy::DemandPriority)
            .with_coalesce(true),
        base.with_policy(SchedPolicy::DemandPriority)
            .with_coalesce(true)
            .with_queue_depth(8),
    ]
}

/// The coverage partition of first touches: how many were covered by a
/// prefetch hint at all, and how many were not. The finer hit /
/// in-flight split inside the covered class is *itself a timing
/// measurement* (did the I/O complete before the touch?), so a policy
/// that reorders dispatch legitimately moves touches between those two
/// buckets — but it can never change whether a hint was issued.
fn coverage_partition(r: &RunResult) -> [u64; 2] {
    [
        r.os.prefetched_hits + r.os.prefetched_faults_inflight + r.os.prefetched_faults_lost,
        r.os.non_prefetched_faults,
    ]
}

/// For real kernels, every policy produces the same final data as the
/// FCFS baseline.
#[test]
fn every_policy_matches_fcfs_results_bit_for_bit() {
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(1024 * 1024);
    for app in [App::Embar, App::Buk] {
        let w = build(app, cfg.bytes_for_ratio(2.0));
        let base = run_workload(&w, &cfg, Mode::Prefetch);
        base.verified.as_ref().expect("FCFS baseline verifies");
        for (case, sched) in sweep().into_iter().enumerate() {
            let mut c = cfg;
            c.machine = c.machine.with_sched(sched);
            let r = run_workload(&w, &c, Mode::Prefetch);
            r.verified
                .as_ref()
                .unwrap_or_else(|e| panic!("{app:?} case {case} {sched:?}: failed to verify: {e}"));
            assert_eq!(
                r.checksum, base.checksum,
                "{app:?} case {case}: scheduling changed the results; {sched:?}"
            );
        }
    }
}

/// Unbounded policies only reorder dispatch — they never change which
/// requests are submitted, so the hint-coverage partition of first
/// touches matches FCFS exactly. (A *bounded* queue genuinely perturbs
/// the request stream — rejected hints are dropped — so it is excluded
/// here and covered by the checksum property above.)
#[test]
fn unbounded_policies_preserve_the_fault_partition() {
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(1024 * 1024);
    for app in [App::Embar, App::Buk] {
        let w = build(app, cfg.bytes_for_ratio(2.0));
        let base = run_workload(&w, &cfg, Mode::Prefetch);
        for (case, sched) in sweep()
            .into_iter()
            .filter(|s| s.queue_depth == usize::MAX)
            .enumerate()
        {
            let mut c = cfg;
            c.machine = c.machine.with_sched(sched);
            let r = run_workload(&w, &c, Mode::Prefetch);
            assert_eq!(
                coverage_partition(&r),
                coverage_partition(&base),
                "{app:?} case {case}: hint coverage diverged from FCFS; {sched:?}"
            );
        }
    }
}

/// Scheduling composes with fault injection: under any policy and a
/// random fault plan, the results still match the fault-free FCFS run.
#[test]
fn faulted_policies_still_compute_correct_results() {
    let mut g = SimRng::new(0x5C_ED01);
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(1024 * 1024);
    let w = build(App::Buk, cfg.bytes_for_ratio(2.0));
    let base = run_workload(&w, &cfg, Mode::Prefetch);
    for (case, sched) in sweep().into_iter().enumerate() {
        let plan = FaultPlan::none(g.next_u64())
            .with_errors(
                g.next_f64() * 0.05,
                g.next_f64() * 0.10,
                g.next_f64() * 0.05,
            )
            .with_stragglers(
                g.next_f64() * 0.10,
                2.0 + g.next_f64() * 8.0,
                g.next_below(20) * MILLISECOND,
            );
        let mut c = cfg;
        c.machine = c.machine.with_sched(sched);
        let r = RunSpec::new(&c, Mode::Prefetch)
            .faults(&plan)
            .run(&w)
            .result;
        r.verified
            .as_ref()
            .unwrap_or_else(|e| panic!("case {case} {sched:?}: failed to verify: {e}"));
        assert_eq!(
            r.checksum, base.checksum,
            "case {case}: faults + scheduling changed the results; {sched:?}"
        );
    }
}

const PAGES: u64 = 96;
const FRAMES: u64 = 24;

/// Random programs under any policy: loads always see the last store,
/// simulated time is monotone, and the time ledger covers the clock —
/// including under a bounded queue, where backpressure blocks demand
/// traffic and silently drops hints.
#[test]
fn random_programs_survive_any_policy() {
    let mut g = SimRng::new(0x5C_ED02);
    for (case, sched) in sweep()
        .into_iter()
        .chain([SchedConfig::default()])
        .enumerate()
    {
        for round in 0..6 {
            let mut p = MachineParams::small();
            p.resident_limit = FRAMES;
            p.demand_reserve = 2;
            p.low_water = 3;
            p.high_water = 6;
            p.sched = sched;
            let mut m = Machine::new(p, PAGES * 4096);
            let mut shadow: HashMap<u64, i64> = HashMap::new();
            let mut last = m.now();
            let len = 50 + g.next_below(200);
            for step in 0..len {
                match g.next_below(5) {
                    0 => {
                        let addr = g.next_below(PAGES * 4096 / 8) * 8;
                        let got = m.load_i64(addr);
                        let want = shadow.get(&addr).copied().unwrap_or(0);
                        assert_eq!(
                            got, want,
                            "case {case} round {round} step {step}: load corrupted ({sched:?})"
                        );
                    }
                    1 => {
                        let addr = g.next_below(PAGES * 4096 / 8) * 8;
                        let v = g.next_u64() as i64;
                        m.store_i64(addr, v);
                        shadow.insert(addr, v);
                    }
                    2 => m.sys_prefetch(g.next_below(PAGES), 1 + g.next_below(7)),
                    3 => m.sys_release(g.next_below(PAGES), 1 + g.next_below(7)),
                    _ => m.tick_user(1 + g.next_below(999_999)),
                }
                assert!(
                    m.now() >= last,
                    "case {case} round {round} step {step}: time ran backwards ({sched:?})"
                );
                last = m.now();
                assert_eq!(
                    m.breakdown().total(),
                    m.now(),
                    "case {case} round {round} step {step}: ledger lost time ({sched:?})"
                );
            }
            m.finish();
            assert_eq!(
                m.breakdown().total(),
                m.now(),
                "case {case} round {round}: final ledger ({sched:?})"
            );
            for (&addr, &v) in &shadow {
                assert_eq!(
                    m.peek_i64(addr),
                    v,
                    "case {case} round {round}: addr {addr} corrupted ({sched:?})"
                );
            }
        }
    }
}
