//! Property-based testing of the observability layer.
//!
//! The contract under test: **observation never perturbs**. Enabling
//! the metrics layer and the event trace must change no timestamp, no
//! time-ledger entry, and no data — the instrumented machine is
//! bit-identical to the bare one, under fault injection too. On top of
//! that, the collected telemetry must satisfy its own invariants: the
//! prefetch lifecycle ledger partitions the issue decisions exactly,
//! the Figure-5 attribution covers every elapsed nanosecond, and the
//! Chrome-trace exporter emits parseable JSON.
//!
//! Sequences are generated with the simulator's deterministic `SimRng`
//! so the suite builds offline; every failure names a replayable seed.

use std::collections::HashMap;

use oocp::obs::Json;
use oocp::os::{chrome_trace_json, FaultPlan, Machine, MachineParams};
use oocp::sim::time::MILLISECOND;
use oocp::sim::SimRng;
use oocp_bench::{run_workload, Config, Mode, RunSpec};
use oocp_nas::{build, App};

#[derive(Clone, Debug)]
enum Op {
    Load(u64),
    Store(u64, i64),
    Prefetch(u64, u64),
    Release(u64, u64),
    Tick(u64),
}

const PAGES: u64 = 96;
const FRAMES: u64 = 24;

fn random_ops(g: &mut SimRng, max_len: u64) -> Vec<Op> {
    let len = 20 + g.next_below(max_len) as usize;
    (0..len)
        .map(|_| {
            let elem = |g: &mut SimRng| g.next_below(PAGES * 4096 / 8) * 8;
            match g.next_below(5) {
                0 => Op::Load(elem(g)),
                1 => Op::Store(elem(g), g.next_u64() as i64),
                2 => Op::Prefetch(g.next_below(PAGES), 1 + g.next_below(7)),
                3 => Op::Release(g.next_below(PAGES), 1 + g.next_below(7)),
                _ => Op::Tick(1 + g.next_below(999_999)),
            }
        })
        .collect()
}

fn machine() -> Machine {
    let mut p = MachineParams::small();
    p.resident_limit = FRAMES;
    p.demand_reserve = 2;
    p.low_water = 3;
    p.high_water = 6;
    Machine::new(p, PAGES * 4096)
}

fn apply(m: &mut Machine, op: &Op) {
    match *op {
        Op::Load(a) => {
            m.load_i64(a);
        }
        Op::Store(a, v) => m.store_i64(a, v),
        Op::Prefetch(p, n) => m.sys_prefetch(p, n),
        Op::Release(p, n) => m.sys_release(p, n),
        Op::Tick(ns) => m.tick_user(ns),
    }
}

fn random_plan(g: &mut SimRng) -> FaultPlan {
    let mut plan = FaultPlan::none(g.next_u64()).with_errors(
        g.next_f64() * 0.05,
        g.next_f64() * 0.10,
        g.next_f64() * 0.05,
    );
    if g.next_f64() < 0.5 {
        plan = plan.with_stragglers(
            g.next_f64() * 0.10,
            2.0 + g.next_f64() * 8.0,
            g.next_below(20) * MILLISECOND,
        );
    }
    plan
}

/// The instrumented machine (metrics + trace) tracks the bare one
/// step-for-step: same clock, same time ledger, same fault counters,
/// same data — with and without an active fault plan.
#[test]
fn observation_is_invisible_to_the_run() {
    let mut g = SimRng::new(0x0B_0001);
    for case in 0..96 {
        let plan = (case % 3 == 0).then(|| random_plan(&mut g));
        let ops = random_ops(&mut g, 230);
        let mut bare = machine();
        let mut inst = machine();
        inst.enable_metrics();
        inst.enable_trace(64);
        if let Some(plan) = &plan {
            bare.set_fault_plan(plan);
            inst.set_fault_plan(plan);
        }
        let mut shadow: HashMap<u64, i64> = HashMap::new();
        for (step, op) in ops.iter().enumerate() {
            apply(&mut bare, op);
            apply(&mut inst, op);
            if let Op::Store(a, v) = *op {
                shadow.insert(a, v);
            }
            assert_eq!(
                bare.now(),
                inst.now(),
                "case {case} step {step}: observation moved the clock"
            );
        }
        bare.finish();
        inst.finish();
        assert_eq!(bare.now(), inst.now(), "case {case}: finish diverged");
        assert_eq!(
            bare.breakdown(),
            inst.breakdown(),
            "case {case}: time ledger diverged"
        );
        assert_eq!(
            bare.stats().hard_faults,
            inst.stats().hard_faults,
            "case {case}"
        );
        assert_eq!(
            bare.stats().prefetched_hits,
            inst.stats().prefetched_hits,
            "case {case}"
        );
        for (&addr, &v) in &shadow {
            assert_eq!(
                inst.peek_i64(addr),
                v,
                "case {case}: data diverged at {addr}"
            );
        }
        // The telemetry the instrumented run collected is coherent.
        let report = inst.metrics_report().expect("metrics were enabled");
        assert!(
            report.partition_ok(),
            "case {case}: ledger outcomes {} + open {} != entries {}",
            report.ledger.sum(),
            report.ledger_open,
            report.ledger_entries
        );
        assert_eq!(
            report.ledger_open, 0,
            "case {case}: finish() closes entries"
        );
        let attr = inst.attribution();
        assert_eq!(
            attr.total(),
            inst.now(),
            "case {case}: attribution must cover the clock exactly"
        );
    }
}

/// Full-kernel property: with metrics enabled, the ledger partitions
/// every prefetch issue decision and the attribution covers the clock —
/// fault-free and under random fault plans, where drops and retries
/// exercise the error-path ledger closings.
#[test]
fn kernel_ledger_partitions_fault_free_and_faulted() {
    let mut g = SimRng::new(0x0B_0002);
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(1024 * 1024);
    cfg.metrics = true;
    for app in [App::Embar, App::Buk] {
        let w = build(app, cfg.bytes_for_ratio(2.0));
        let base = run_workload(&w, &cfg, Mode::Prefetch);
        base.verified.as_ref().expect("fault-free run verifies");
        let mut runs = vec![("fault-free".to_string(), base)];
        for case in 0..3 {
            let plan = random_plan(&mut g);
            let r = RunSpec::new(&cfg, Mode::Prefetch)
                .faults(&plan)
                .run(&w)
                .result;
            r.verified
                .as_ref()
                .unwrap_or_else(|e| panic!("{app:?} case {case}: {e}"));
            runs.push((format!("case {case} ({plan:?})"), r));
        }
        for (name, r) in &runs {
            let obs = r.obs.as_ref().expect("metrics were enabled");
            assert!(
                obs.partition_ok(),
                "{app:?} {name}: ledger outcomes {} + open {} != entries {}",
                obs.ledger.sum(),
                obs.ledger_open,
                obs.ledger_entries
            );
            assert_eq!(obs.ledger_open, 0, "{app:?} {name}: entries left open");
            assert!(obs.ledger_entries > 0, "{app:?} {name}: nothing was issued");
            assert_eq!(
                r.attr.total(),
                r.total(),
                "{app:?} {name}: attribution must cover the clock"
            );
        }
    }
}

/// Enabling metrics must not change the kernel's final checksum or a
/// single nanosecond of its timeline (the bench-level restatement of
/// timing neutrality, including the run-time layer in the loop).
#[test]
fn kernel_metrics_are_timing_neutral() {
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(1024 * 1024);
    let w = build(App::Embar, cfg.bytes_for_ratio(2.0));
    for mode in [Mode::Original, Mode::Prefetch, Mode::PrefetchAdaptive] {
        let bare = run_workload(&w, &cfg, mode);
        let mut icfg = cfg;
        icfg.metrics = true;
        let inst = run_workload(&w, &icfg, mode);
        assert_eq!(bare.time, inst.time, "{mode:?}: time ledger diverged");
        assert_eq!(bare.checksum, inst.checksum, "{mode:?}: data diverged");
        assert!(bare.obs.is_none() && inst.obs.is_some());
    }
}

/// `LatencyHist::merge` is the histogram's monoid operation — `perfgate`
/// and the report aggregators lean on it, so pin down its algebra on
/// random sample sets: commutativity, associativity, exact count/sum/
/// min/max aggregation, and quantile sanity (a merged p95/p99 can land
/// in no bucket above the highest bucket any part used).
#[test]
fn latency_hist_merge_algebra() {
    use oocp::obs::LatencyHist;

    let random_hist = |g: &mut SimRng| {
        let mut h = LatencyHist::default();
        let n = g.next_below(200);
        for _ in 0..n {
            // Spread samples across the full log2 range, not just the
            // low buckets: pick a scale, then a value at that scale.
            let bits = g.next_below(40);
            h.record(g.next_below((1u64 << bits).max(1)));
        }
        h
    };
    let mut g = SimRng::new(0x0B_0004);
    for case in 0..128 {
        let (a, b, c) = (
            random_hist(&mut g),
            random_hist(&mut g),
            random_hist(&mut g),
        );

        // Commutativity: a ⊕ b == b ⊕ a, bit-for-bit.
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "case {case}: merge must commute");

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "case {case}: merge must associate");

        // Exact aggregates: count and sum add; min/max combine.
        assert_eq!(
            ab_c.count(),
            a.count() + b.count() + c.count(),
            "case {case}"
        );
        assert_eq!(
            ab_c.sum_ns(),
            a.sum_ns() + b.sum_ns() + c.sum_ns(),
            "case {case}"
        );
        if ab_c.count() > 0 {
            assert_eq!(
                ab_c.min(),
                [&a, &b, &c]
                    .iter()
                    .filter(|h| h.count() > 0)
                    .map(|h| h.min())
                    .min()
                    .expect("some part is non-empty"),
                "case {case}: min must be the min of the parts"
            );
            assert_eq!(
                ab_c.max(),
                [&a, &b, &c]
                    .iter()
                    .map(|h| h.max())
                    .max()
                    .expect("non-empty"),
                "case {case}: max must be the max of the parts"
            );
        }

        // Quantile bound: a quantile of the merge is a bucket upper
        // edge (clamped to the true max), so it can never exceed the
        // largest bucket edge any part's own samples reached.
        let part_ceiling = [&a, &b, &c]
            .iter()
            .filter(|h| h.count() > 0)
            .map(|h| LatencyHist::bucket_bound(LatencyHist::bucket_of(h.max())))
            .max()
            .unwrap_or(0);
        for q in [ab_c.p50(), ab_c.p95(), ab_c.p99()] {
            assert!(
                q <= part_ceiling,
                "case {case}: merged quantile {q} above every part's bucket \
                 ceiling {part_ceiling}"
            );
        }
        // And each merged quantile is at least the smallest part's p50
        // floor: monotone in rank, never below the global min.
        if ab_c.count() > 0 {
            assert!(ab_c.p50() >= ab_c.min(), "case {case}");
            assert!(ab_c.p95() >= ab_c.p50(), "case {case}: quantiles monotone");
            assert!(ab_c.p99() >= ab_c.p95(), "case {case}: quantiles monotone");
        }
    }
}

/// The sim-time sampler is deterministic and timing-neutral: the same
/// seed produces a bit-identical time-series ring (row for row), and
/// attaching the sampler changes no timestamp and no data relative to
/// an unsampled run. Rows land on contiguous interval boundaries.
#[test]
fn sampled_time_series_is_deterministic_and_timing_neutral() {
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(1024 * 1024);
    cfg.metrics = true;
    let w = build(App::Embar, cfg.bytes_for_ratio(2.0));
    let bare = run_workload(&w, &cfg, Mode::Prefetch);
    let mut scfg = cfg;
    scfg.sampler = Some((oocp_bench::SAMPLE_INTERVAL_NS, oocp_bench::SAMPLE_RING_CAP));
    let a = run_workload(&w, &scfg, Mode::Prefetch);
    let b = run_workload(&w, &scfg, Mode::Prefetch);

    // Timing neutrality: the sampler is an observer, not a participant.
    assert_eq!(bare.time, a.time, "sampler moved the time ledger");
    assert_eq!(bare.checksum, a.checksum, "sampler changed the data");
    assert!(bare.telemetry.is_none() && a.telemetry.is_some());

    // Determinism: two runs with the same seed agree bit-for-bit.
    let (reg_a, ring_a) = a.telemetry.as_ref().expect("sampler attached");
    let (reg_b, ring_b) = b.telemetry.as_ref().expect("sampler attached");
    assert_eq!(reg_a.values(), reg_b.values(), "registries diverged");
    assert_eq!(ring_a.rows(), ring_b.rows(), "time-series rings diverged");
    assert_eq!(ring_a.dropped(), ring_b.dropped());
    assert!(!ring_a.is_empty(), "a multi-second run must sample rows");

    // Rows are stamped at contiguous sampling-interval boundaries, and
    // every row is as wide as the registry's scalar schema.
    for w2 in ring_a.rows().windows(2) {
        assert_eq!(
            w2[1].0 - w2[0].0,
            oocp_bench::SAMPLE_INTERVAL_NS,
            "sample stamps must advance by exactly one interval"
        );
    }
    for (_, row) in ring_a.rows() {
        assert_eq!(row.len(), reg_a.defs().len(), "row width != schema");
    }
}

/// `MetricsRegistry::merge` follows the same algebra the per-disk stats
/// and `perfgate` aggregation rely on: counters add, gauges take the
/// max, histograms fold via `LatencyHist::merge` — and the whole merge
/// commutes, so aggregation order never matters.
#[test]
fn registry_merge_matches_latency_hist_algebra() {
    use oocp::obs::MetricsRegistry;

    let random_reg = |g: &mut SimRng| {
        let mut r = MetricsRegistry::new();
        let c0 = r.counter("c0", "test counter 0");
        let c1 = r.counter("c1", "test counter 1");
        let g0 = r.gauge("g0", "test gauge");
        let h0 = r.hist("h0", "test histogram");
        r.set(c0, g.next_below(1_000_000));
        r.add(c1, g.next_below(1_000));
        r.set(g0, g.next_below(500));
        for _ in 0..g.next_below(100) {
            let bits = g.next_below(40);
            r.record(h0, g.next_below((1u64 << bits).max(1)));
        }
        r
    };
    let mut g = SimRng::new(0x0B_0005);
    for case in 0..64 {
        let (a, b) = (random_reg(&mut g), random_reg(&mut g));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.values(), ba.values(), "case {case}: merge must commute");
        assert_eq!(
            ab.hists(),
            ba.hists(),
            "case {case}: hist merge must commute"
        );

        // Counters add, gauges max.
        assert_eq!(ab.get(0), a.get(0) + b.get(0), "case {case}: counter");
        assert_eq!(ab.get(1), a.get(1) + b.get(1), "case {case}: counter");
        assert_eq!(ab.get(2), a.get(2).max(b.get(2)), "case {case}: gauge");

        // The merged histogram is exactly LatencyHist::merge of the parts.
        let mut expect = a.hists()[0].2;
        expect.merge(&b.hists()[0].2);
        assert_eq!(
            ab.hists()[0].2,
            expect,
            "case {case}: registry hist merge must match LatencyHist::merge"
        );
        assert_eq!(
            ab.hists()[0].2.count(),
            a.hists()[0].2.count() + b.hists()[0].2.count(),
            "case {case}"
        );
    }

    // Schema mismatch is a programming error and must panic loudly.
    let mismatch = std::panic::catch_unwind(|| {
        let mut x = MetricsRegistry::new();
        x.counter("a", "");
        let mut y = MetricsRegistry::new();
        y.gauge("a", "");
        x.merge(&y);
    });
    assert!(mismatch.is_err(), "mismatched schemas must not merge");
}

/// The Chrome-trace exporter emits valid JSON for arbitrary traces:
/// parseable by the zero-dependency parser, `traceEvents` an array, and
/// the ring's drop count surfaced verbatim.
#[test]
fn chrome_trace_export_is_valid_json_for_random_traces() {
    let mut g = SimRng::new(0x0B_0003);
    for case in 0..32 {
        let ops = random_ops(&mut g, 200);
        let mut m = machine();
        // Small ring so wraparound (dropped records) is exercised.
        m.enable_trace(16 + g.next_below(48) as usize);
        if case % 4 == 0 {
            m.set_fault_plan(&random_plan(&mut g));
        }
        for op in &ops {
            apply(&mut m, op);
        }
        m.finish();
        let trace = m.take_trace().expect("trace was enabled");
        let dropped = trace.dropped();
        let text = chrome_trace_json(&trace);
        let doc = oocp::obs::json::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: exporter emitted invalid JSON: {e}"));
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("case {case}: no traceEvents array"));
        assert!(!events.is_empty(), "case {case}: empty trace");
        assert_eq!(
            doc.get("dropped_records").and_then(Json::as_u64),
            Some(dropped),
            "case {case}: drop count must be surfaced"
        );
    }
}
