//! Round-trip property of the performance-baseline format.
//!
//! The `perfgate` trajectory gate only works if capture → serialize →
//! parse → compare is lossless: a baseline compared against the very
//! run that produced it must report **zero** drift, or every CI run
//! would trip over serialization noise rather than real regressions.
//! This suite pins that down for fault-free runs and — because the
//! format must also be able to baseline chaos experiments — for runs
//! under random fault plans drawn from the same shared generator the
//! fault property tests use ([`FaultPlan::sample`]).

use oocp::obs::baseline::{baseline_json, compare, metrics, parse_baseline, Baseline};
use oocp::os::FaultPlan;
use oocp::sim::SimRng;
use oocp_bench::{report, run_workload, Config, Mode, RunSpec};
use oocp_nas::{build, App};

fn small_config() -> Config {
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(1024 * 1024);
    cfg.metrics = true;
    cfg
}

/// Capture a small matrix, push it through the full JSON round trip,
/// and self-compare: the report must be exactly clean.
#[test]
fn baseline_roundtrip_self_compares_clean() {
    let cfg = small_config();
    let mut runs = Vec::new();
    for app in [App::Embar, App::Buk] {
        let w = build(app, cfg.bytes_for_ratio(2.0));
        for (label, mode) in [("orig", Mode::Original), ("pf", Mode::Prefetch)] {
            let r = run_workload(&w, &cfg, mode);
            r.verified.as_ref().expect("run verifies");
            runs.push(report::baseline_run(app.name(), label, &r));
        }
    }
    let b = Baseline {
        index: 7,
        seed: cfg.seed,
        whylate: None,
        runs,
    };

    let text = baseline_json(&b).to_string();
    let parsed =
        parse_baseline(&oocp::obs::json::parse(&text).expect("serialized baseline parses"))
            .expect("parsed baseline validates");
    assert_eq!(parsed.index, b.index);
    assert_eq!(parsed.seed, b.seed);
    assert_eq!(parsed.runs.len(), b.runs.len());

    // Every metric of every run survived the round trip exactly.
    for (orig, back) in b.runs.iter().zip(&parsed.runs) {
        assert_eq!(orig.key(), back.key());
        assert_eq!(orig.checksum, back.checksum, "{}", orig.key());
        for ((name, a, _), (_, bv, _)) in metrics(orig).iter().zip(metrics(back).iter()) {
            assert_eq!(a, bv, "{}: metric {name} changed in round trip", orig.key());
        }
    }

    // Self-compare: zero findings, zero gate failures, all cells seen.
    let rep = compare(&parsed, &b.runs, &[]);
    assert!(
        rep.findings.is_empty(),
        "drift against self: {:?}",
        rep.findings
    );
    assert!(rep.checksum_divergence.is_empty());
    assert!(rep.missing.is_empty() && rep.extra.is_empty());
    assert_eq!(rep.runs_compared, b.runs.len());
    assert!(rep.passed());
}

/// The same round-trip contract holds for baselines captured under
/// fault injection — the ledger's error outcomes and the fatter
/// latency tails must serialize just as exactly. Also pins determinism
/// end to end: re-running the same plan reproduces the baseline.
#[test]
fn faulted_baseline_roundtrips_and_reproduces() {
    let cfg = small_config();
    let mut g = SimRng::new(0xBA5E_0001);
    let w = build(App::Buk, cfg.bytes_for_ratio(2.0));
    for case in 0..3 {
        // Plain striping: a sampled whole-disk death would be
        // (correctly) fatal here, so survivable plans strip them.
        let plan = FaultPlan::sample(&mut g).without_disk_deaths();
        let capture = |()| {
            let r = RunSpec::new(&cfg, Mode::Prefetch)
                .faults(&plan)
                .run(&w)
                .result;
            r.verified
                .as_ref()
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            report::baseline_run("BUK", "pf+faults", &r)
        };
        let b = Baseline {
            index: 1,
            seed: cfg.seed,
            whylate: None,
            runs: vec![capture(())],
        };

        let text = baseline_json(&b).to_string();
        let parsed =
            parse_baseline(&oocp::obs::json::parse(&text).expect("faulted baseline parses"))
                .expect("faulted baseline validates");

        // Self-compare across the serialization boundary: clean.
        let rep = compare(&parsed, &b.runs, &[]);
        assert!(
            rep.passed() && rep.findings.is_empty(),
            "case {case}: faulted round trip drifted: {:?}",
            rep.findings
        );

        // Determinism: a fresh run of the same plan matches the stored
        // baseline metric-for-metric — the property perfgate relies on.
        let rerun = vec![capture(())];
        let rep2 = compare(&parsed, &rerun, &[]);
        assert!(
            rep2.passed() && rep2.findings.is_empty(),
            "case {case}: same-plan re-run drifted from its own baseline: {:?}",
            rep2.findings
        );
    }
}
