//! Property-based testing of the prefetch-policy subsystem.
//!
//! The contract under test is the policy crate's central one: policies
//! are **timing-only**. A policy may move pages through memory earlier
//! or later — injecting prefetches and releases the compiler never
//! asked for — but it can never change what a program computes. The
//! oracle is the FNV-1a checksum of the final address space: every
//! kernel x policy x fault-plan combination must produce data
//! bit-identical to the `CompilerOnly` run, and the prefetch ledger's
//! partition invariant must keep holding with injected traffic in
//! flight.
//!
//! The deliberately rule-breaking `BrokenPolicy` proves the oracle has
//! teeth: its run must be *caught* (diverging checksum or failed
//! verification), not silently absorbed.

use oocp::os::FaultPlan;
use oocp::sim::SimRng;
use oocp_bench::{run_workload, Config, Mode, RunResult, RunSpec};
use oocp_nas::{build, App, Workload};
use oocp_policy::PolicyKind;

fn platform() -> Config {
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(1024 * 1024);
    cfg.metrics = true;
    cfg
}

/// The mode each policy naturally runs under: reactive policies
/// compete with the compiler from an unhinted `Original` build, the
/// distance controller rides on the compiler's hints.
fn natural_mode(kind: PolicyKind) -> Mode {
    match kind {
        PolicyKind::CompilerOnly | PolicyKind::AdaptiveDistance => Mode::Prefetch,
        _ => Mode::Original,
    }
}

/// Check the invariants every policy run must uphold against the
/// compiler-only checksum.
fn check_run(r: &RunResult, baseline: u64, what: &str) {
    r.verified
        .as_ref()
        .unwrap_or_else(|e| panic!("{what}: failed to verify: {e}"));
    assert_eq!(
        r.checksum, baseline,
        "{what}: policy changed the computed data"
    );
    let o = r.obs.as_ref().expect("metrics were enabled");
    assert_eq!(
        o.ledger.sum() + o.ledger_open,
        o.ledger_entries,
        "{what}: ledger outcomes no longer partition the issue decisions"
    );
    // The whylate causal attribution must partition the very same
    // outcomes: every late, dropped, and wasted prefetch carries
    // exactly one dominant cause, with nothing double-counted.
    assert!(
        o.whylate.partitions(&o.ledger),
        "{what}: whylate causes do not partition the ledger \
         (late {} vs {}, dropped {} vs {}, wasted {} vs {})",
        o.whylate.late_total(),
        o.ledger.late_inflight,
        o.whylate.drop_total(),
        o.ledger.dropped_no_memory
            + o.ledger.dropped_queue_full
            + o.ledger.dropped_io_error
            + o.ledger.dropped_quota
            + o.ledger.dropped_pressure,
        o.whylate.wasted_total(),
        o.ledger.evicted_unused + o.ledger.unused_at_end,
    );
}

fn policy_run(w: &Workload, cfg: &Config, kind: PolicyKind, mode: Mode) -> RunResult {
    let mut c = *cfg;
    c.machine = c.machine.with_prefetch_policy(kind);
    run_workload(w, &c, mode)
}

/// Fault-free: every shippable policy, in both its natural mode and
/// the opposite one, computes data bit-identical to compiler-only.
#[test]
fn policies_are_timing_only() {
    let cfg = platform();
    for app in [App::Embar, App::Buk] {
        let w = build(app, cfg.bytes_for_ratio(2.0));
        let base = policy_run(&w, &cfg, PolicyKind::CompilerOnly, Mode::Prefetch);
        base.verified.as_ref().expect("compiler-only run verifies");
        // The unhinted run computes the same data, so one checksum
        // serves as the oracle for every mode below.
        let orig = policy_run(&w, &cfg, PolicyKind::CompilerOnly, Mode::Original);
        assert_eq!(orig.checksum, base.checksum, "{app:?}: modes disagree");
        for kind in PolicyKind::MATRIX {
            for mode in [Mode::Original, Mode::Prefetch] {
                let r = policy_run(&w, &cfg, kind, mode);
                check_run(
                    &r,
                    base.checksum,
                    &format!("{app:?}/{}/{}", kind.name(), mode.label()),
                );
            }
        }
    }
}

/// Seeded fault plans (transient I/O errors, stragglers, brownouts,
/// stale residency bits) never let a policy's injected traffic change
/// the results either — faults may only cost time, policies included.
#[test]
fn policies_survive_fault_plans_bit_identically() {
    let mut g = SimRng::new(0x50_0001);
    let cfg = platform();
    let w = build(App::Embar, cfg.bytes_for_ratio(2.0));
    let base = policy_run(&w, &cfg, PolicyKind::CompilerOnly, Mode::Prefetch);
    base.verified.as_ref().expect("fault-free run verifies");
    for kind in PolicyKind::MATRIX {
        for case in 0..2 {
            // Plain striping: a sampled whole-disk death would be
            // (correctly) fatal here, so survivable plans strip them.
            let plan = FaultPlan::sample(&mut g).without_disk_deaths();
            let mut c = cfg;
            c.machine = c.machine.with_prefetch_policy(kind);
            let r = RunSpec::new(&c, natural_mode(kind))
                .faults(&plan)
                .run(&w)
                .result;
            check_run(
                &r,
                base.checksum,
                &format!("EMBAR/{}/case {case} plan {plan:?}", kind.name()),
            );
        }
    }
}

/// The negative control: a policy that corrupts data must be caught by
/// the oracle (checksum divergence or failed verification) — proving
/// the two tests above would notice a real contract violation.
#[test]
fn broken_policy_is_caught() {
    let cfg = platform();
    let w = build(App::Embar, cfg.bytes_for_ratio(2.0));
    let base = policy_run(&w, &cfg, PolicyKind::CompilerOnly, Mode::Prefetch);
    base.verified.as_ref().expect("compiler-only run verifies");
    let r = policy_run(&w, &cfg, PolicyKind::Broken, Mode::Original);
    assert!(
        r.checksum != base.checksum || r.verified.is_err(),
        "the broken policy went unnoticed — the timing-only oracle has no teeth"
    );
}
