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

use oocp::obs::baseline::{
    baseline_json, compare, metrics, parse_baseline, Baseline, BaselineRun, Direction,
    PolicySummary, ProfileSummary, RedundancySummary, TenantSummary,
};
use oocp::obs::WhylateSummary;
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

fn bench7_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_7.json");
    std::fs::read_to_string(path).expect("BENCH_7.json is checked in")
}

/// The gate file is what the writer emits for what the reader loads:
/// parse → serialize reproduces `BENCH_7.json` byte for byte.
#[test]
fn bench7_reserializes_byte_identical() {
    let text = bench7_text();
    let b = parse_baseline(&oocp::obs::json::parse(&text).unwrap()).expect("BENCH_7 loads");
    assert_eq!(b.runs.len(), 59);
    let back = format!("{}\n", baseline_json(&b));
    assert_eq!(back.len(), text.len(), "re-serialized length differs");
    let first = back.bytes().zip(text.bytes()).position(|(x, y)| x != y);
    assert_eq!(
        first, None,
        "re-serialized BENCH_7.json differs at byte {first:?}"
    );
}

/// The gated metrics of a run that carries every optional block: the
/// set of names and the direction each reads in. Order is not pinned.
#[test]
fn gated_metric_names_and_directions() {
    use Direction::*;
    let run = BaselineRun {
        tenant: Some(TenantSummary::default()),
        policy: Some(PolicySummary::default()),
        whylate: Some(WhylateSummary::default()),
        sim_throughput: Some(0),
        profile: Some(ProfileSummary::default()),
        redundancy: Some(RedundancySummary::default()),
        ..BaselineRun::default()
    };
    let mut want = vec![
        ("elapsed_ns", HigherWorse),
        ("attr.compute_ns", Neutral),
        ("attr.fault_overhead_ns", HigherWorse),
        ("attr.hint_overhead_ns", HigherWorse),
        ("attr.demand_stall_ns", HigherWorse),
        ("attr.late_prefetch_stall_ns", HigherWorse),
        ("attr.backpressure_stall_ns", HigherWorse),
        ("attr.drain_idle_ns", HigherWorse),
        ("faults.hard", HigherWorse),
        ("faults.soft", Neutral),
        ("faults.prefetched_hits", LowerWorse),
        ("ledger.entries", Neutral),
        ("ledger.timely_hits", LowerWorse),
        ("ledger.late_inflight", HigherWorse),
        ("ledger.dropped_no_memory", HigherWorse),
        ("ledger.dropped_queue_full", HigherWorse),
        ("ledger.dropped_io_error", HigherWorse),
        ("ledger.dropped_quota", HigherWorse),
        ("ledger.dropped_pressure", HigherWorse),
        ("ledger.evicted_unused", HigherWorse),
        ("ledger.unused_at_end", HigherWorse),
        ("hist.fault_wait.count", Neutral),
        ("hist.fault_wait.p50", HigherWorse),
        ("hist.fault_wait.p95", HigherWorse),
        ("hist.fault_wait.p99", HigherWorse),
        ("hist.lead_time.count", Neutral),
        ("hist.lead_time.p50", Neutral),
        ("hist.lead_time.p95", Neutral),
        ("hist.lead_time.p99", Neutral),
        ("hist.arrival_to_use.count", Neutral),
        ("hist.arrival_to_use.p50", Neutral),
        ("hist.arrival_to_use.p95", Neutral),
        ("hist.arrival_to_use.p99", Neutral),
        ("journal.appends", HigherWorse),
        ("journal.stalls", HigherWorse),
        ("recovery.pages_replayed", Neutral),
        ("recovery.pages_discarded", Neutral),
        ("recovery.torn_detected", Neutral),
        ("recovery.unrecoverable", HigherWorse),
        ("recovery.recovery_ns", HigherWorse),
        ("tenant.count", Neutral),
        ("tenant.p95_stall_max_ns", HigherWorse),
        ("tenant.dropped_quota", HigherWorse),
        ("tenant.dropped_pressure", HigherWorse),
        ("tenant.quota_evictions", HigherWorse),
        ("policy.injected_prefetch_pages", Neutral),
        ("policy.injected_release_pages", Neutral),
        ("policy.window_peak", Neutral),
        ("policy.distance_retunes", Neutral),
        ("policy.late_rate_samples", Neutral),
        ("policy.late_arrival_bp", HigherWorse),
        ("whylate.late_issue_lag", HigherWorse),
        ("whylate.late_queue_wait", HigherWorse),
        ("whylate.late_service_time", HigherWorse),
        ("whylate.late_journal_stall", HigherWorse),
        ("whylate.late_degraded_pause", HigherWorse),
        ("whylate.late_degraded_read", HigherWorse),
        ("whylate.late_rebuild_contention", HigherWorse),
        ("whylate.drop_no_memory", HigherWorse),
        ("whylate.drop_queue_full", HigherWorse),
        ("whylate.drop_io_error", HigherWorse),
        ("whylate.drop_quota", HigherWorse),
        ("whylate.drop_pressure", HigherWorse),
        ("whylate.wasted_evicted_unused", HigherWorse),
        ("whylate.wasted_unused_at_end", HigherWorse),
        ("simthroughput.sim_ns_per_host_s", LowerWorse),
        ("redundancy.degraded_reads", Neutral),
        ("redundancy.degraded_read_ns", HigherWorse),
        ("redundancy.hints_rerouted", Neutral),
        ("redundancy.hedged_reads", Neutral),
        ("redundancy.hedged_wins", Neutral),
        ("redundancy.rebuild_rows", Neutral),
        ("redundancy.rebuild_ns", HigherWorse),
        ("redundancy.verify_mismatches", HigherWorse),
        ("redundancy.parity_writes", HigherWorse),
    ];
    assert_eq!(want.len(), 75);
    let mut got: Vec<(&str, Direction)> =
        metrics(&run).into_iter().map(|(n, _, d)| (n, d)).collect();
    got.sort_by_key(|(n, _)| *n);
    want.sort_by_key(|(n, _)| *n);
    assert_eq!(got, want);
}

/// A cell whose optional block vanished between baseline and capture
/// reports exactly that block's metrics, and no allowance covers them:
/// `ablations/readahead` of `BENCH_7.json` against itself minus its
/// `policy` block.
#[test]
fn a_vanished_block_is_reported_by_name() {
    let base = parse_baseline(&oocp::obs::json::parse(&bench7_text()).unwrap()).unwrap();
    let mut cell = base
        .runs
        .iter()
        .find(|r| r.key() == "ablations/readahead")
        .expect("BENCH_7 has the readahead policy cell")
        .clone();
    cell.policy = None;
    let all = oocp::obs::baseline::parse_allowance_arg("all=100").unwrap();
    let scoped = Baseline {
        runs: vec![base
            .runs
            .iter()
            .find(|r| r.key() == cell.key())
            .unwrap()
            .clone()],
        ..base
    };
    let rep = compare(&scoped, &[cell], &[all]);
    let got: Vec<&str> = rep.findings.iter().map(|f| f.metric.as_str()).collect();
    assert_eq!(
        got,
        [
            "policy.injected_prefetch_pages",
            "policy.injected_release_pages",
            "policy.window_peak",
            "policy.distance_retunes",
            "policy.late_rate_samples",
            "policy.late_arrival_bp",
        ]
    );
    assert!(
        rep.findings.iter().all(|f| !f.allowed),
        "{:?}",
        rep.findings
    );
    assert!(!rep.passed());
}
