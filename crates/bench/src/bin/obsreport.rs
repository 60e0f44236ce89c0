//! `obsreport` — the observability layer's own figure: a Figure-5-style
//! time-attribution table, the prefetch lifecycle ledger, and latency
//! percentiles for the five NAS kernels, each run in the original and
//! prefetching configurations with metrics enabled.
//!
//! Beyond printing, this binary *checks* the two invariants the
//! observability tentpole promises:
//!
//! 1. every elapsed nanosecond lands in exactly one attribution bucket
//!    (compute / fault overhead / hint overhead / demand stall /
//!    late-prefetch stall / backpressure / drain), summing to the
//!    elapsed time within 0.1%;
//! 2. the ledger's terminal outcomes partition the prefetch issue
//!    decisions exactly — Figure 6/7's "where did every prefetch go"
//!    accounting with no leakage.
//!
//! With `--json <path>` it also writes the machine-readable run report,
//! re-reads the file, re-parses it with the zero-dependency JSON
//! parser, and re-validates the invariants on the parsed document —
//! the end-to-end exporter check CI runs via `--smoke`. With
//! `--metrics-out <prefix>` it attaches the sim-time telemetry sampler
//! and exports the first prefetch run's registry and time series as
//! `<prefix>.prom` + `<prefix>.jsonl`.
//!
//! Standalone validator modes (no benchmark run; for CI gates):
//!
//! * `obsreport --check-report FILE` — parse a run report and re-check
//!   every invariant, including the whylate partition.
//! * `obsreport --check-metrics FILE` — structurally check an exported
//!   `.prom` or `.jsonl` telemetry document (jsonl rows must sit on
//!   contiguous `interval_ns` multiples).
//! * `obsreport --check-collapsed FILE` — structurally check a
//!   collapsed-stack profile dump written by the `profile` bin.
//!
//! Run: `cargo run --release -p oocp-bench --bin obsreport`
//! CI:  `... --bin obsreport -- --smoke --json /tmp/report.json`

use oocp_bench::{report, run_workload, secs, write_metrics, Args, Config, Mode, RunResult};
use oocp_nas::{build, App};
use oocp_obs::TimeAttribution;

fn pct(part: u64, total: u64) -> String {
    format!("{:>5.1}", TimeAttribution::frac(part, total) * 100.0)
}

fn read_or_exit(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(1);
    })
}

fn check_ok<T, E: std::fmt::Display>(what: &str, path: &str, res: Result<T, E>) -> ! {
    match res {
        Ok(_) => {
            println!("{path}: valid {what}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{path}: INVALID {what}: {e}");
            std::process::exit(1);
        }
    }
}

/// The validator modes run before [`Args::parse`] (which rejects flags
/// it does not know) and never start a benchmark.
fn validator_modes() {
    let argv: Vec<String> = std::env::args().collect();
    match argv.get(1).map(String::as_str) {
        Some("--check-report") => {
            let path = argv.get(2).unwrap_or_else(|| {
                eprintln!("usage: obsreport --check-report FILE");
                std::process::exit(2);
            });
            let text = read_or_exit(path);
            let res = oocp_obs::json::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|doc| report::validate_report(&doc));
            check_ok("run report", path, res);
        }
        Some("--check-metrics") => {
            let path = argv.get(2).unwrap_or_else(|| {
                eprintln!("usage: obsreport --check-metrics FILE(.prom|.jsonl)");
                std::process::exit(2);
            });
            let text = read_or_exit(path);
            if path.ends_with(".prom") {
                check_ok(
                    "prometheus text",
                    path,
                    oocp_obs::check_prometheus_text(&text),
                );
            } else {
                check_ok("metrics jsonl", path, oocp_obs::check_jsonl(&text));
            }
        }
        Some("--check-collapsed") => {
            let path = argv.get(2).unwrap_or_else(|| {
                eprintln!("usage: obsreport --check-collapsed FILE");
                std::process::exit(2);
            });
            let text = read_or_exit(path);
            check_ok("collapsed stacks", path, oocp_obs::check_collapsed(&text));
        }
        _ => {}
    }
}

fn main() {
    validator_modes();
    let mut platform = Config::default_platform();
    platform.machine = platform.machine.with_memory_bytes(2 * 1024 * 1024);
    // The whole point is the observability snapshot; it is on even
    // without `--json`.
    platform.metrics = true;
    let args = Args::parse_on(platform);
    let cfg = args.cfg;
    let apps: &[App] = if args.smoke {
        &[App::Embar]
    } else {
        &[App::Embar, App::Buk, App::Cgm, App::Fft, App::Mgrid]
    };

    println!("time attribution, percent of elapsed (Figure 5 form):\n");
    println!(
        "{:<8} {:<4} {:>9} | {:>5} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
        "app", "mode", "total(s)", "cmp%", "flt%", "hnt%", "dem%", "late%", "bkp%", "drn%"
    );
    let mut results: Vec<(String, RunResult)> = Vec::new();
    for &app in apps {
        let w = build(app, cfg.bytes_for_ratio(args.ratio));
        for mode in [Mode::Original, Mode::Prefetch] {
            let r = run_workload(&w, &cfg, mode);
            r.verified
                .as_ref()
                .unwrap_or_else(|e| panic!("{app:?}/{} failed to verify: {e}", mode.label()));
            let a = r.attr;
            assert!(
                a.sums_to(r.total(), 0.001),
                "{app:?}/{}: attribution {} != elapsed {}",
                mode.label(),
                a.total(),
                r.total()
            );
            let t = r.total();
            println!(
                "{:<8} {:<4} {:>9} | {} {} {} {} {} {} {}",
                app.name(),
                mode.label(),
                secs(t),
                pct(a.compute_ns, t),
                pct(a.fault_overhead_ns, t),
                pct(a.hint_overhead_ns, t),
                pct(a.demand_stall_ns, t),
                pct(a.late_prefetch_stall_ns, t),
                pct(a.backpressure_stall_ns, t),
                pct(a.drain_idle_ns, t),
            );
            results.push((format!("{}/{}", app.name(), mode.label()), r));
        }
    }

    println!("\nprefetch lifecycle ledger (every issue decision accounted for):\n");
    println!(
        "{:<8} {:>8} | {:>8} {:>6} {:>7} {:>6} {:>6} {:>7} {:>6} {:>5}",
        "app",
        "entries",
        "timely",
        "late",
        "no-mem",
        "q-full",
        "io-err",
        "evicted",
        "unused",
        "open"
    );
    for (name, r) in &results {
        if r.mode != Mode::Prefetch {
            continue;
        }
        let obs = r.obs.as_ref().expect("metrics were enabled");
        assert!(
            obs.partition_ok(),
            "{name}: ledger outcomes {} + open {} != entries {}",
            obs.ledger.sum(),
            obs.ledger_open,
            obs.ledger_entries
        );
        let l = &obs.ledger;
        println!(
            "{:<8} {:>8} | {:>8} {:>6} {:>7} {:>6} {:>6} {:>7} {:>6} {:>5}",
            name.split('/').next().unwrap(),
            obs.ledger_entries,
            l.timely_hits,
            l.late_inflight,
            l.dropped_no_memory,
            l.dropped_queue_full,
            l.dropped_io_error,
            l.evicted_unused,
            l.unused_at_end,
            obs.ledger_open,
        );
    }

    println!("\nlatency percentiles, prefetch runs (ns):\n");
    println!(
        "{:<8} {:>22} {:>22} {:>22}",
        "app", "fault-wait p50/p99", "lead-time p50/p99", "arrival-to-use p50/p99"
    );
    for (name, r) in &results {
        if r.mode != Mode::Prefetch {
            continue;
        }
        let obs = r.obs.as_ref().expect("metrics were enabled");
        let pair = |h: &oocp_obs::LatencyHist| format!("{:>10}/{:<10}", h.p50(), h.p99());
        println!(
            "{:<8} {:>22} {:>22} {:>22}",
            name.split('/').next().unwrap(),
            pair(&obs.fault_wait),
            pair(&obs.lead_time),
            pair(&obs.arrival_to_use),
        );
    }

    println!("\nwhy late (dominant cause per late prefetch, whylate engine):\n");
    println!(
        "{:<8} {:>6} | {:>7} {:>7} {:>7} {:>7} {:>7}",
        "app", "late", "issue", "queue", "svc", "jrnl", "degrade"
    );
    for (name, r) in &results {
        if r.mode != Mode::Prefetch {
            continue;
        }
        let obs = r.obs.as_ref().expect("metrics were enabled");
        let w = &obs.whylate;
        assert!(
            w.partitions(&obs.ledger),
            "{name}: whylate causes do not partition the ledger outcomes"
        );
        println!(
            "{:<8} {:>6} | {:>7} {:>7} {:>7} {:>7} {:>7}",
            name.split('/').next().unwrap(),
            w.late_total(),
            w.late_issue_lag,
            w.late_queue_wait,
            w.late_service_time,
            w.late_journal_stall,
            w.late_degraded_pause,
        );
    }

    if let Some(prefix) = &args.metrics_out {
        let (name, r) = results
            .iter()
            .find(|(_, r)| r.mode == Mode::Prefetch && r.telemetry.is_some())
            .expect("--metrics-out attaches a sampler to every run");
        let telemetry = r.telemetry.as_ref().unwrap();
        write_metrics(prefix, telemetry).unwrap_or_else(|e| oocp_bench::exit_on(e));
        println!(
            "\nmetrics exported for {name}: {prefix}.prom + {prefix}.jsonl ({} samples)",
            telemetry.ring.len()
        );
    }

    if let Some(path) = &args.json {
        let pairs: Vec<(String, &RunResult)> =
            results.iter().map(|(n, r)| (n.clone(), r)).collect();
        let doc = report::report_json(&pairs);
        report::write_report(path, &doc).unwrap_or_else(|e| oocp_bench::exit_on(e));
        // End-to-end exporter check: what landed on disk must parse
        // with our own parser and still satisfy every invariant. These
        // are exporter bugs if they fail, so they stay loud — but the
        // re-read itself is an I/O path and exits with a message.
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot re-read {path}: {e}");
            std::process::exit(1);
        });
        let parsed = oocp_obs::json::parse(&text).expect("emitted report must be valid JSON");
        report::validate_report(&parsed).expect("parsed report must satisfy invariants");
        println!("\nJSON report round-trip OK: {path} parses and validates");
    }

    println!(
        "\nobservability report OK: {} runs, every ns attributed, every prefetch accounted for",
        results.len()
    );
}
