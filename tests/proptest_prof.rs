//! Property-based testing of the host-time profiler.
//!
//! The contract under test: **attachment is host-time-only**. The
//! profiler's probes read the host clock and nothing else, so a
//! profiled run must leave every piece of sim-visible state —
//! checksum, elapsed simulated time, the Figure-5 attribution, the OS
//! counters, the interpreter's dynamic counts, and the prefetch
//! ledger's partition — bit-identical to a detached run of the same
//! cell, across kernels, prefetch policies, and seeded fault plans.
//! (The detached configuration is stronger still: `NoProf` probes
//! monomorphize to nothing, so there is no "probe off" branch to even
//! mispredict. That zero-cost side is re-gated by perfgate.)
//!
//! On top of bit-identity, the captured site tree must satisfy its own
//! structural invariants, and the capture-merge operation must behave
//! like the algebra `proptest_obs` proves for the metrics registry:
//! commutative and associative up to child order (witnessed by the
//! canonical collapsed form) with self-time conserved.
//!
//! Sequences are generated with the simulator's deterministic `SimRng`
//! so the suite builds offline; every failure names a replayable seed.

use oocp::obs::prof::{ProfNode, Profile};
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

/// `spec` with the profiler attached: the run and its capture.
fn profiled(spec: RunSpec, w: &Workload) -> (RunResult, Profile) {
    let out = spec.profile(true).run(w);
    (
        out.result,
        out.profile.expect("a profiled run carries its profile"),
    )
}

/// Every sim-visible observable of `b` must equal `a`'s. `checksum`
/// first — a divergence there is a correctness bug, not a perf one.
fn assert_sim_identical(a: &RunResult, b: &RunResult, what: &str) {
    b.verified
        .as_ref()
        .unwrap_or_else(|e| panic!("{what}: profiled run failed to verify: {e}"));
    assert_eq!(b.checksum, a.checksum, "{what}: profiler changed the data");
    assert_eq!(b.total(), a.total(), "{what}: elapsed sim time moved");
    assert_eq!(b.attr, a.attr, "{what}: Figure-5 attribution moved");
    assert_eq!(b.os, a.os, "{what}: OS counters moved");
    assert_eq!(b.exec, a.exec, "{what}: interpreter counts moved");
    let (oa, ob) = (
        a.obs.as_ref().expect("metrics enabled"),
        b.obs.as_ref().expect("metrics enabled"),
    );
    assert_eq!(ob.ledger, oa.ledger, "{what}: ledger partition moved");
    assert_eq!(
        ob.ledger_entries, oa.ledger_entries,
        "{what}: ledger entries moved"
    );
    assert_eq!(
        ob.fault_wait, oa.fault_wait,
        "{what}: fault-wait histogram moved"
    );
    assert_eq!(
        ob.lead_time, oa.lead_time,
        "{what}: lead-time histogram moved"
    );
    assert_eq!(
        ob.arrival_to_use, oa.arrival_to_use,
        "{what}: arrival-to-use histogram moved"
    );
    assert_eq!(ob.whylate, oa.whylate, "{what}: whylate causes moved");
}

/// Structural invariants of a captured site tree.
fn check_profile(p: &Profile, kernel: &str, what: &str) {
    assert_eq!(p.root.name, "all", "{what}: root must be the `all` frame");
    assert_eq!(
        p.root.total_ns,
        p.root.children.iter().map(|c| c.total_ns).sum::<u64>(),
        "{what}: root total must be the sum of its children (self 0)"
    );
    assert!(
        p.root.children.iter().any(|c| c.name == kernel),
        "{what}: kernel frame `{kernel}` missing from the capture"
    );
    fn walk(n: &ProfNode, what: &str) {
        // The synthetic root is never "entered"; every real site is.
        assert!(
            n.count > 0 || n.name == "all",
            "{what}: site {} recorded with zero entries",
            n.name
        );
        let kids: u64 = n.children.iter().map(|c| c.total_ns).sum();
        assert!(
            n.self_ns() <= n.total_ns,
            "{what}: site {} self time exceeds its total",
            n.name
        );
        // Saturation in self_ns() forgives per-child clock rounding,
        // but a child sum wildly past the parent is a bookkeeping bug.
        assert!(
            kids <= n.total_ns || kids - n.total_ns < 1_000_000,
            "{what}: site {} children sum {} far past parent total {}",
            n.name,
            kids,
            n.total_ns
        );
        for c in &n.children {
            walk(c, what);
        }
    }
    walk(&p.root, what);
    // The collapsed export of a real capture always passes its own
    // structural validator (the CI smoke gate relies on this).
    oocp::obs::check_collapsed(&p.collapsed())
        .unwrap_or_else(|e| panic!("{what}: collapsed export invalid: {e}"));
}

/// Fault-free: across kernels x modes x policies, a profiled run is
/// sim-identical to the detached run it shadows.
#[test]
fn profiled_runs_are_sim_identical_fault_free() {
    let cfg = platform();
    for app in [App::Embar, App::Buk] {
        let w = build(app, cfg.bytes_for_ratio(2.0));
        for mode in [Mode::Original, Mode::Prefetch] {
            let detached = run_workload(&w, &cfg, mode);
            let (profiled, prof) = profiled(RunSpec::new(&cfg, mode), &w);
            let what = format!("{app:?}/{}", mode.label());
            assert_sim_identical(&detached, &profiled, &what);
            check_profile(&prof, w.prog.name.as_str(), &what);
        }
    }
    // Policies inject their own prefetch/release traffic through the
    // same machine paths the profiler brackets; attachment must stay
    // invisible with a policy driving.
    let w = build(App::Embar, cfg.bytes_for_ratio(2.0));
    for kind in [
        PolicyKind::Readahead,
        PolicyKind::AdaptiveDistance,
        PolicyKind::HistoryReplay,
    ] {
        let mode = match kind {
            PolicyKind::Readahead => Mode::Original,
            _ => Mode::Prefetch,
        };
        let mut c = cfg;
        c.machine = c.machine.with_prefetch_policy(kind);
        let detached = run_workload(&w, &c, mode);
        let (profiled, prof) = profiled(RunSpec::new(&c, mode), &w);
        let what = format!("EMBAR/{}", kind.name());
        assert_sim_identical(&detached, &profiled, &what);
        check_profile(&prof, w.prog.name.as_str(), &what);
    }
}

/// Seeded fault plans (transient I/O errors, stragglers, brownouts,
/// stale residency bits) do not open a gap either: the profiled
/// faulted run equals the detached faulted run bit for bit.
#[test]
fn profiled_runs_are_sim_identical_under_fault_plans() {
    let mut g = SimRng::new(0x9F_0001);
    let cfg = platform();
    let w = build(App::Embar, cfg.bytes_for_ratio(2.0));
    for case in 0..3 {
        // Plain striping: a sampled whole-disk death would be
        // (correctly) fatal here, so survivable plans strip them.
        let plan = FaultPlan::sample(&mut g).without_disk_deaths();
        let faulted = || RunSpec::new(&cfg, Mode::Prefetch).faults(&plan);
        let detached = faulted().run(&w).result;
        let (profiled, prof) = profiled(faulted(), &w);
        let what = format!("EMBAR/P/case {case} plan {plan:?}");
        assert_sim_identical(&detached, &profiled, &what);
        check_profile(&prof, w.prog.name.as_str(), &what);
    }
}

/// Build a random site tree the way the live collector would: root
/// `all` whose total is the sum of its children, sibling names unique
/// (the collector keys children by name), small shared alphabet so
/// merges collide on real paths.
fn random_profile(g: &mut SimRng) -> Profile {
    const NAMES: [&str; 6] = [
        "EMBAR",
        "for#0",
        "stmt:store",
        "op:load",
        "op:addr",
        "op:hint",
    ];
    fn children(g: &mut SimRng, depth: u64) -> Vec<ProfNode> {
        if depth == 0 {
            return Vec::new();
        }
        let mut picks: Vec<&str> = NAMES.to_vec();
        let n = g.next_below(4) as usize;
        let mut out = Vec::new();
        for _ in 0..n {
            let i = g.next_below(picks.len() as u64) as usize;
            let name = picks.swap_remove(i);
            let kids = children(g, depth - 1);
            let kid_total: u64 = kids.iter().map(|c| c.total_ns).sum();
            out.push(ProfNode {
                name: name.to_string(),
                total_ns: kid_total + g.next_below(10_000),
                count: 1 + g.next_below(9),
                children: kids,
            });
        }
        out
    }
    let kids = children(g, 3);
    let total: u64 = kids.iter().map(|c| c.total_ns).sum();
    Profile {
        root: ProfNode {
            name: "all".to_string(),
            total_ns: total,
            count: 1,
            children: kids,
        },
    }
}

/// Total self time across the whole tree — the quantity a merge must
/// conserve exactly (it adds leaf-by-leaf, never rebalances).
fn self_sum(p: &Profile) -> u64 {
    p.rows().iter().map(|r| r.self_ns).sum()
}

/// The capture-merge algebra, mirroring `proptest_obs`'s registry
/// algebra: commutative and associative up to child insertion order —
/// witnessed by the canonical (sorted) collapsed form — with totals
/// and self times conserved additively.
#[test]
fn profile_merge_algebra() {
    let mut g = SimRng::new(0x9F_0002);
    for case in 0..32 {
        let a = random_profile(&mut g);
        let b = random_profile(&mut g);
        let c = random_profile(&mut g);

        // Commutativity: a+b == b+a (canonical form).
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            ab.collapsed_canonical(),
            ba.collapsed_canonical(),
            "case {case}: merge is not commutative"
        );

        // Associativity: (a+b)+c == a+(b+c).
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(
            ab_c.collapsed_canonical(),
            a_bc.collapsed_canonical(),
            "case {case}: merge is not associative"
        );

        // Conservation: totals and self times add, nothing leaks.
        assert_eq!(
            ab.total_ns(),
            a.total_ns() + b.total_ns(),
            "case {case}: merged total is not the sum"
        );
        assert_eq!(
            self_sum(&ab),
            self_sum(&a) + self_sum(&b),
            "case {case}: merged self time is not the sum"
        );

        // Identity: merging an empty `all` capture changes nothing.
        let empty = Profile {
            root: ProfNode {
                name: "all".to_string(),
                total_ns: 0,
                count: 0,
                children: Vec::new(),
            },
        };
        let mut a_e = a.clone();
        a_e.merge(&empty);
        assert_eq!(
            a_e.collapsed_canonical(),
            a.collapsed_canonical(),
            "case {case}: empty capture is not the identity"
        );
    }
}
