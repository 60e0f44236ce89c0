//! Property-based testing of the fault-injection stack.
//!
//! The contract under test is the paper's central one: prefetch and
//! release are *hints*, so no injected fault — transient I/O errors,
//! stragglers, brownouts, stale residency bits — may ever change what a
//! program computes. Faults may only cost time.
//!
//! Plans are generated with the simulator's deterministic `SimRng` so
//! the suite builds offline; every failure names a replayable seed.

use std::collections::HashMap;

use oocp::os::{FaultPlan, Machine, MachineParams};
use oocp::sim::SimRng;
use oocp_bench::{run_workload, Config, Mode, RunSpec};
use oocp_nas::{build, App};

/// The shared bounded-plan generator (also used by the baseline
/// round-trip test, so both suites cover the same fault space). The
/// machines here run the plain `--redundancy none` layout, where losing
/// a whole disk is *designed* to be fatal — so the survivable plans
/// strip sampled deaths; `tests/proptest_diskfail.rs` owns the
/// parity-mode death coverage.
fn random_plan(g: &mut SimRng) -> FaultPlan {
    FaultPlan::sample(g).without_disk_deaths()
}

/// Any seeded fault plan leaves every kernel's final data bit-identical
/// to the fault-free run, and the run still verifies.
#[test]
fn faulted_kernels_match_fault_free_results() {
    let mut g = SimRng::new(0xFA_0001);
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(1024 * 1024);
    for app in [App::Embar, App::Buk] {
        let w = build(app, cfg.bytes_for_ratio(2.0));
        let base = run_workload(&w, &cfg, Mode::Prefetch);
        base.verified.as_ref().expect("fault-free run verifies");
        for case in 0..4 {
            let plan = random_plan(&mut g);
            let r = RunSpec::new(&cfg, Mode::Prefetch)
                .faults(&plan)
                .run(&w)
                .result;
            r.verified.as_ref().unwrap_or_else(|e| {
                panic!("{app:?} case {case} plan {plan:?}: failed to verify: {e}")
            });
            assert_eq!(
                r.checksum, base.checksum,
                "{app:?} case {case}: faults changed the results; plan {plan:?}"
            );
        }
    }
}

/// A bare IR program takes the same run path as a workload: a fault
/// plan costs it retries but never changes its data, and a warm start
/// preloads its data set.
#[test]
fn faulted_and_warm_ir_runs_match_the_plain_result() {
    let src = "program t {\n    long a[65536];\n    for i = 0 to 65536 { a[i] = i; }\n    \
               for i = 0 to 65536 { a[i] = a[i] + 1; }\n}\n";
    let prog = oocp::ir::parse_program(src).unwrap();
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(64 * 4096);
    let base = RunSpec::new(&cfg, Mode::Prefetch).run_ir(&prog, &[]).result;
    assert_eq!(base.os.io_retries, 0);

    let plan = FaultPlan::none(0xFA_0004).with_errors(0.05, 0.10, 0.05);
    let faulted = RunSpec::new(&cfg, Mode::Prefetch)
        .faults(&plan)
        .run_ir(&prog, &[])
        .result;
    assert_eq!(faulted.checksum, base.checksum, "faults changed the data");
    assert!(faulted.disk.faults_injected > 0, "the plan was installed");
    assert!(faulted.os.io_retries > 0, "injected errors were retried");

    cfg.warm = true;
    let warm = RunSpec::new(&cfg, Mode::Prefetch)
        .faults(&plan)
        .run_ir(&prog, &[])
        .result;
    assert_eq!(warm.checksum, base.checksum, "warm start changed the data");
    assert!(
        warm.os.hard_faults < faulted.os.hard_faults,
        "preloaded pages fault less: {} vs {}",
        warm.os.hard_faults,
        faulted.os.hard_faults
    );
}

/// [`FaultPlan::sample`] only ever produces well-formed plans: every
/// per-class error probability stays in [0, 1], straggler parameters
/// are physical (multiplier >= 1, probability in [0, 1]), brownout
/// windows are ordered, no crash is scheduled (crash coverage has its
/// own dedicated oracle suite), at most one disk death lands on a disk
/// a minimum redundant array can lose, and `is_active()` agrees with
/// its definition — true exactly when some disk-level fault class is
/// on. This test samples *raw* plans (deaths included) on purpose.
#[test]
fn sampled_plans_are_always_well_formed() {
    use oocp::disk::ReqKind;
    let mut g = SimRng::new(0xFA_0003);
    for case in 0..512 {
        let plan = FaultPlan::sample(&mut g);
        for kind in [ReqKind::DemandRead, ReqKind::PrefetchRead, ReqKind::Write] {
            let p = plan.error_prob(kind);
            assert!(
                (0.0..=1.0).contains(&p),
                "case {case}: error_prob({kind:?}) = {p} out of range"
            );
        }
        assert!(
            (0.0..=1.0).contains(&plan.straggler_prob),
            "case {case}: straggler_prob out of range"
        );
        assert!(
            plan.straggler_mult >= 1.0,
            "case {case}: straggler_mult {} would shrink service times",
            plan.straggler_mult
        );
        assert!(
            (0.0..=1.0).contains(&plan.bitvec_stale_prob),
            "case {case}: bitvec_stale_prob out of range"
        );
        for b in &plan.brownouts {
            assert!(b.from <= b.until, "case {case}: inverted brownout window");
        }
        assert!(
            plan.crash.is_none(),
            "case {case}: sample() must not schedule crashes"
        );
        assert!(
            plan.disk_deaths.len() <= 1,
            "case {case}: more deaths than single parity can tolerate"
        );
        for d in &plan.disk_deaths {
            assert!(
                d.disk < 2,
                "case {case}: death on disk {} misses a two-disk array",
                d.disk
            );
        }
        assert!(
            plan.clone().without_disk_deaths().disk_deaths.is_empty(),
            "case {case}: without_disk_deaths() left a death behind"
        );
        let expect_active = plan.error_prob(ReqKind::DemandRead) > 0.0
            || plan.error_prob(ReqKind::PrefetchRead) > 0.0
            || plan.error_prob(ReqKind::Write) > 0.0
            || plan.straggler_prob > 0.0
            || !plan.brownouts.is_empty()
            || plan.crash.is_some()
            || !plan.disk_deaths.is_empty();
        assert_eq!(
            plan.is_active(),
            expect_active,
            "case {case}: is_active() disagrees with its definition"
        );
    }
}

const PAGES: u64 = 96;
const FRAMES: u64 = 24;

/// Faulted machines never let simulated time run backwards and keep
/// the time ledger covering the clock exactly; data survives.
#[test]
fn simulated_time_is_monotone_under_faults() {
    let mut g = SimRng::new(0xFA_0002);
    for case in 0..64 {
        let plan = random_plan(&mut g);
        let mut p = MachineParams::small();
        p.resident_limit = FRAMES;
        p.demand_reserve = 2;
        p.low_water = 3;
        p.high_water = 6;
        let mut m = Machine::new(p, PAGES * 4096);
        m.set_fault_plan(&plan);
        let mut shadow: HashMap<u64, i64> = HashMap::new();
        let mut last = m.now();
        let len = 50 + g.next_below(200);
        for step in 0..len {
            match g.next_below(5) {
                0 => {
                    let addr = g.next_below(PAGES * 4096 / 8) * 8;
                    let got = m.load_i64(addr);
                    let want = shadow.get(&addr).copied().unwrap_or(0);
                    assert_eq!(got, want, "case {case} step {step}: load corrupted");
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
                "case {case} step {step}: time ran backwards ({} < {last})",
                m.now()
            );
            last = m.now();
            assert_eq!(
                m.breakdown().total(),
                m.now(),
                "case {case} step {step}: ledger lost time"
            );
        }
        m.finish();
        assert!(m.now() >= last, "case {case}: finish ran time backwards");
        assert_eq!(m.breakdown().total(), m.now(), "case {case}: final ledger");
        for (&addr, &v) in &shadow {
            assert_eq!(m.peek_i64(addr), v, "case {case}: addr {addr} corrupted");
        }
    }
}
