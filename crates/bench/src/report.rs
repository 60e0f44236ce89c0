//! JSON run reports: a machine-readable export of everything a run
//! measured, shared by the bench binaries' `--json <path>` flag.
//!
//! The format is a stable, self-describing document (`schema` names the
//! version) holding, per run: the time breakdown, the Figure-5
//! attribution, fault counters, per-class disk histograms, and — when
//! the observability layer was enabled — the latency histograms and the
//! prefetch-lifecycle ledger. [`validate_report`] re-checks the two
//! cross-layer invariants (attribution sums to elapsed, ledger outcomes
//! partition the entries) on the *serialized* document, so a CI gate
//! can parse an emitted file and prove the exporter did not lose or
//! double-count anything.

use oocp_obs::baseline::{BaselineRun, HistSummary, PolicySummary, RedundancySummary};
use oocp_obs::{Json, LatencyHist, TimeAttribution, WhylateSummary};

use crate::{RunResult, WriteError};

/// Schema identifier written into every report.
pub const SCHEMA: &str = "oocp-run-report-v1";

/// Serialize a latency histogram: summary statistics plus the sparse
/// nonzero log2 buckets as `[index, count]` pairs.
pub fn hist_json(h: &LatencyHist) -> Json {
    let buckets: Vec<Json> = h
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| Json::Arr(vec![Json::U64(i as u64), Json::U64(c)]))
        .collect();
    Json::obj([
        ("count", Json::U64(h.count())),
        ("sum_ns", Json::U64(h.sum_ns())),
        ("min_ns", Json::U64(h.min())),
        ("max_ns", Json::U64(h.max())),
        ("mean_ns", Json::F64(h.mean())),
        ("p50_ns", Json::U64(h.p50())),
        ("p95_ns", Json::U64(h.p95())),
        ("p99_ns", Json::U64(h.p99())),
        ("buckets", Json::Arr(buckets)),
    ])
}

fn attr_json(a: &TimeAttribution) -> Json {
    Json::obj([
        ("compute_ns", Json::U64(a.compute_ns)),
        ("fault_overhead_ns", Json::U64(a.fault_overhead_ns)),
        ("hint_overhead_ns", Json::U64(a.hint_overhead_ns)),
        ("demand_stall_ns", Json::U64(a.demand_stall_ns)),
        (
            "late_prefetch_stall_ns",
            Json::U64(a.late_prefetch_stall_ns),
        ),
        ("backpressure_stall_ns", Json::U64(a.backpressure_stall_ns)),
        ("drain_idle_ns", Json::U64(a.drain_idle_ns)),
        ("total_ns", Json::U64(a.total())),
    ])
}

/// Serialize one run.
pub fn run_json(name: &str, r: &RunResult) -> Json {
    let mut fields = vec![
        ("name", Json::Str(name.to_string())),
        ("mode", Json::Str(r.mode.label().to_string())),
        ("elapsed_ns", Json::U64(r.time.total())),
        ("verified", Json::Bool(r.verified.is_ok())),
        ("checksum", Json::U64(r.checksum)),
        (
            "time",
            Json::obj([
                ("user_ns", Json::U64(r.time.user)),
                ("sys_fault_ns", Json::U64(r.time.sys_fault)),
                ("sys_prefetch_ns", Json::U64(r.time.sys_prefetch)),
                ("idle_ns", Json::U64(r.time.idle)),
            ]),
        ),
        ("attribution", attr_json(&r.attr)),
        (
            "faults",
            Json::obj([
                ("hard", Json::U64(r.os.hard_faults)),
                ("soft", Json::U64(r.os.soft_faults)),
                ("prefetched_hits", Json::U64(r.os.prefetched_hits)),
                ("coverage", Json::F64(r.os.coverage())),
            ]),
        ),
        (
            "disk",
            Json::obj([
                ("demand_reads", Json::U64(r.disk.demand_reads)),
                ("prefetch_reads", Json::U64(r.disk.prefetch_reads)),
                ("writes", Json::U64(r.disk.writes)),
                ("utilization", Json::F64(r.disk_util)),
                ("queue_wait", hist_json(&r.disk.queue_wait_hist)),
                ("demand_service", hist_json(&r.disk.demand_service_hist)),
                ("prefetch_service", hist_json(&r.disk.prefetch_service_hist)),
                ("write_service", hist_json(&r.disk.write_service_hist)),
            ]),
        ),
        (
            // Per-reason dropped-hint counts: `no_memory` is the
            // remainder of the machine's total after the four
            // attributed reasons, so the five always sum to `total`.
            "dropped_hints",
            Json::obj([
                ("total", Json::U64(r.os.prefetch_pages_dropped)),
                (
                    "no_memory",
                    Json::U64(
                        r.os.prefetch_pages_dropped
                            - r.os.hints_dropped_on_error
                            - r.os.hints_dropped_queue_full
                            - r.os.hints_dropped_quota
                            - r.os.hints_dropped_pressure,
                    ),
                ),
                ("io_error", Json::U64(r.os.hints_dropped_on_error)),
                ("queue_full", Json::U64(r.os.hints_dropped_queue_full)),
                ("quota", Json::U64(r.os.hints_dropped_quota)),
                ("pressure", Json::U64(r.os.hints_dropped_pressure)),
            ]),
        ),
        (
            "recovery",
            Json::obj([
                ("journal_appends", Json::U64(r.os.journal_appends)),
                ("journal_stalls", Json::U64(r.os.journal_stalls)),
                ("pages_replayed", Json::U64(r.os.recovery_pages_replayed)),
                ("pages_discarded", Json::U64(r.os.recovery_pages_discarded)),
                ("torn_detected", Json::U64(r.os.recovery_torn_detected)),
                ("unrecoverable", Json::U64(r.os.recovery_unrecoverable)),
                ("recovery_ns", Json::U64(r.os.recovery_ns)),
                (
                    "flush_failed_vpages",
                    Json::U64(r.flush.as_ref().map_or(0, |f| f.vpages.len() as u64)),
                ),
            ]),
        ),
    ];
    if let Some(obs) = &r.obs {
        fields.push((
            "obs",
            Json::obj([
                ("fault_wait", hist_json(&obs.fault_wait)),
                ("queue_wait", hist_json(&obs.queue_wait)),
                ("lead_time", hist_json(&obs.lead_time)),
                ("arrival_to_use", hist_json(&obs.arrival_to_use)),
                (
                    "ledger",
                    Json::obj([
                        ("entries", Json::U64(obs.ledger_entries)),
                        ("open", Json::U64(obs.ledger_open)),
                        ("timely_hits", Json::U64(obs.ledger.timely_hits)),
                        ("late_inflight", Json::U64(obs.ledger.late_inflight)),
                        ("dropped_no_memory", Json::U64(obs.ledger.dropped_no_memory)),
                        (
                            "dropped_queue_full",
                            Json::U64(obs.ledger.dropped_queue_full),
                        ),
                        ("dropped_io_error", Json::U64(obs.ledger.dropped_io_error)),
                        ("dropped_quota", Json::U64(obs.ledger.dropped_quota)),
                        ("dropped_pressure", Json::U64(obs.ledger.dropped_pressure)),
                        ("evicted_unused", Json::U64(obs.ledger.evicted_unused)),
                        ("unused_at_end", Json::U64(obs.ledger.unused_at_end)),
                        (
                            "late_arrival_rate",
                            Json::F64(obs.ledger.late_arrival_rate()),
                        ),
                    ]),
                ),
                // Whylate causal attribution: one dominant cause per
                // late/dropped/wasted entry; partitions the ledger
                // outcomes above (validate_report re-checks this on the
                // serialized document).
                ("whylate", obs.whylate.to_json()),
            ]),
        ));
    }
    if let Some(name) = r.policy {
        fields.push((
            "policy",
            Json::obj([
                ("name", Json::Str(name.to_string())),
                (
                    "injected_prefetch_pages",
                    Json::U64(r.os.policy_injected_prefetch_pages),
                ),
                (
                    "injected_release_pages",
                    Json::U64(r.os.policy_injected_release_pages),
                ),
                ("window_peak", Json::U64(r.os.policy_window_peak)),
                ("distance_retunes", Json::U64(r.os.policy_distance_retunes)),
                (
                    "late_rate_samples",
                    Json::U64(r.os.policy_late_rate_samples),
                ),
                ("injected_disk_reqs", Json::U64(r.disk.policy_injected_reqs)),
            ]),
        ));
    }
    Json::obj(fields)
}

/// Assemble the full report document.
pub fn report_json(runs: &[(String, &RunResult)]) -> Json {
    Json::obj([
        ("schema", Json::Str(SCHEMA.to_string())),
        (
            "runs",
            Json::Arr(runs.iter().map(|(n, r)| run_json(n, r)).collect()),
        ),
    ])
}

/// Write the document to `path`. An unwritable path comes back as a
/// typed [`WriteError`] (path + cause) so callers exit with a message
/// instead of panicking, as with [`crate::write_csv`].
pub fn write_report(path: &str, doc: &Json) -> Result<(), WriteError> {
    std::fs::write(path, format!("{doc}\n")).map_err(|source| WriteError {
        path: path.to_string(),
        source,
    })?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Distill one run into a trajectory entry for the `oocp-bench-v4`
/// baseline schema (see `oocp_obs::baseline`): the perfgate-gated
/// subset of [`run_json`], keyed by kernel and configuration label.
/// Runs without the observability layer contribute zeroed ledger and
/// histogram summaries, which compare exactly like any other value.
pub fn baseline_run(kernel: &str, config: &str, r: &RunResult) -> BaselineRun {
    let (ledger, ledger_entries, fault_wait, lead_time, arrival_to_use) = match &r.obs {
        Some(obs) => (
            obs.ledger,
            obs.ledger_entries,
            HistSummary::of(&obs.fault_wait),
            HistSummary::of(&obs.lead_time),
            HistSummary::of(&obs.arrival_to_use),
        ),
        None => Default::default(),
    };
    BaselineRun {
        kernel: kernel.to_string(),
        config: config.to_string(),
        elapsed_ns: r.time.total(),
        checksum: r.checksum,
        attr: r.attr,
        hard_faults: r.os.hard_faults,
        soft_faults: r.os.soft_faults,
        prefetched_hits: r.os.prefetched_hits,
        ledger,
        ledger_entries,
        fault_wait,
        lead_time,
        arrival_to_use,
        journal_appends: r.os.journal_appends,
        journal_stalls: r.os.journal_stalls,
        recovery_replayed: r.os.recovery_pages_replayed,
        recovery_discarded: r.os.recovery_pages_discarded,
        recovery_torn: r.os.recovery_torn_detected,
        recovery_unrecoverable: r.os.recovery_unrecoverable,
        recovery_ns: r.os.recovery_ns,
        // Solo cells carry no tenant block; the `tenants` bench fills
        // it in for co-scheduled cells.
        tenant: None,
        policy: r.policy.map(|name| PolicySummary {
            name: name.to_string(),
            injected_prefetch_pages: r.os.policy_injected_prefetch_pages,
            injected_release_pages: r.os.policy_injected_release_pages,
            window_peak: r.os.policy_window_peak,
            distance_retunes: r.os.policy_distance_retunes,
            late_rate_samples: r.os.policy_late_rate_samples,
            late_arrival_bp: r.obs.as_ref().map_or(0, |o| {
                (o.ledger.late_arrival_rate() * 10_000.0).round() as u64
            }),
        }),
        whylate: r.obs.as_ref().map(|o| o.whylate),
        redundancy: redundancy_summary(r),
        // Wall-clock throughput is a matrix-capture concern: perfgate
        // stamps it per cell; single-run reports leave it absent. The
        // host-time profile likewise comes from a separate profiled
        // run, stamped only by `perfgate --capture --profile`.
        sim_throughput: None,
        profile: None,
    }
}

/// The baseline's redundancy block: present only when the run exercised
/// the parity subsystem at all (parity writes, degraded service, or a
/// rebuild), so plain-striping cells serialize exactly as they did
/// before redundancy existed.
pub fn redundancy_summary(r: &RunResult) -> Option<RedundancySummary> {
    let o = &r.os;
    let active = o.parity_writes
        + o.degraded_reads
        + o.hints_rerouted_degraded
        + o.hedged_reads
        + o.rebuild_rows
        > 0;
    active.then_some(RedundancySummary {
        degraded_reads: o.degraded_reads,
        degraded_read_ns: o.degraded_read_ns,
        hints_rerouted: o.hints_rerouted_degraded,
        hedged_reads: o.hedged_reads,
        hedged_wins: o.hedged_wins,
        rebuild_rows: o.rebuild_rows,
        rebuild_ns: o.rebuild_ns,
        verify_mismatches: o.rebuild_verify_mismatches,
        parity_writes: o.parity_writes,
    })
}

fn field_u64(run: &Json, obj: &str, key: &str) -> Result<u64, String> {
    run.get(obj)
        .and_then(|o| o.get(key))
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing {obj}.{key}"))
}

/// Re-check the cross-layer invariants on a serialized report.
///
/// * every run's seven attribution buckets sum to its `total_ns`
///   exactly, and that total matches `elapsed_ns` within 0.1%;
/// * when observability data is present, the nine ledger outcomes plus
///   the open count sum to the entries *exactly* (a partition, not an
///   approximation), and the histogram bucket counts sum to `count`.
///
/// Intended for CI: parse the file a binary just wrote and prove the
/// exporter preserved the invariants end to end.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("schema is not {SCHEMA}"));
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing runs array")?;
    for run in runs {
        let name = run
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("<unnamed>");
        let elapsed = run
            .get("elapsed_ns")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{name}: missing elapsed_ns"))?;
        let mut sum = 0u64;
        for key in [
            "compute_ns",
            "fault_overhead_ns",
            "hint_overhead_ns",
            "demand_stall_ns",
            "late_prefetch_stall_ns",
            "backpressure_stall_ns",
            "drain_idle_ns",
        ] {
            sum += field_u64(run, "attribution", key)?;
        }
        if sum != field_u64(run, "attribution", "total_ns")? {
            return Err(format!("{name}: attribution buckets do not sum to total"));
        }
        let eps = (elapsed as f64 * 0.001).max(1.0);
        if (sum as f64 - elapsed as f64).abs() > eps {
            return Err(format!(
                "{name}: attribution total {sum} vs elapsed {elapsed} exceeds 0.1%"
            ));
        }
        if let Some(obs) = run.get("obs") {
            let ledger = obs
                .get("ledger")
                .ok_or_else(|| format!("{name}: no ledger"))?;
            let get = |k: &str| {
                ledger
                    .get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{name}: missing ledger.{k}"))
            };
            let closed = get("timely_hits")?
                + get("late_inflight")?
                + get("dropped_no_memory")?
                + get("dropped_queue_full")?
                + get("dropped_io_error")?
                + get("dropped_quota")?
                + get("dropped_pressure")?
                + get("evicted_unused")?
                + get("unused_at_end")?;
            if closed + get("open")? != get("entries")? {
                return Err(format!("{name}: ledger outcomes do not partition entries"));
            }
            // Whylate block (present in every report this version
            // emits alongside obs): each cause vector must partition
            // its ledger outcome exactly — a mis-attributed or
            // double-counted cause is corruption, not drift.
            let wv = obs
                .get("whylate")
                .ok_or_else(|| format!("{name}: obs block has no whylate"))?;
            let w = WhylateSummary::parse(wv).map_err(|e| format!("{name}: {e}"))?;
            if w.late_total() != get("late_inflight")? {
                return Err(format!(
                    "{name}: whylate late causes sum {} != ledger late_inflight {}",
                    w.late_total(),
                    get("late_inflight")?
                ));
            }
            for (cause, outcome) in [
                (w.drop_no_memory, "dropped_no_memory"),
                (w.drop_queue_full, "dropped_queue_full"),
                (w.drop_io_error, "dropped_io_error"),
                (w.drop_quota, "dropped_quota"),
                (w.drop_pressure, "dropped_pressure"),
                (w.wasted_evicted_unused, "evicted_unused"),
                (w.wasted_unused_at_end, "unused_at_end"),
            ] {
                if cause != get(outcome)? {
                    return Err(format!(
                        "{name}: whylate cause {cause} != ledger {outcome} {}",
                        get(outcome)?
                    ));
                }
            }
            for h in ["fault_wait", "queue_wait", "lead_time", "arrival_to_use"] {
                let hist = obs.get(h).ok_or_else(|| format!("{name}: missing {h}"))?;
                let count = hist
                    .get("count")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{name}: {h} has no count"))?;
                let bucket_sum: u64 = hist
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("{name}: {h} has no buckets"))?
                    .iter()
                    .filter_map(|pair| pair.as_arr()?.get(1)?.as_u64())
                    .sum();
                if bucket_sum != count {
                    return Err(format!("{name}: {h} buckets sum {bucket_sum} != {count}"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_workload, Config, Mode};
    use oocp_nas::{build, App};

    fn sample() -> (Config, RunResult) {
        let mut cfg = Config::default_platform();
        cfg.machine = cfg.machine.with_memory_bytes(1024 * 1024);
        cfg.metrics = true;
        let w = build(App::Embar, cfg.bytes_for_ratio(2.0));
        let r = run_workload(&w, &cfg, Mode::Prefetch);
        (cfg, r)
    }

    #[test]
    fn emitted_report_parses_and_validates() {
        let (_, r) = sample();
        let doc = report_json(&[("embar".to_string(), &r)]);
        let text = doc.to_string();
        let back = oocp_obs::json::parse(&text).expect("report must be valid JSON");
        validate_report(&back).expect("invariants must survive serialization");
    }

    #[test]
    fn validation_rejects_corrupted_attribution() {
        let (_, r) = sample();
        let mut doc = report_json(&[("embar".to_string(), &r)]);
        // Corrupt a bucket in place.
        if let Json::Obj(fields) = &mut doc {
            if let Json::Arr(runs) = &mut fields[1].1 {
                if let Json::Obj(run) = &mut runs[0] {
                    for (k, v) in run.iter_mut() {
                        if k == "attribution" {
                            if let Json::Obj(attr) = v {
                                attr[0].1 = Json::U64(12345);
                            }
                        }
                    }
                }
            }
        }
        assert!(validate_report(&doc).is_err());
    }

    #[test]
    fn baseline_entry_roundtrips_and_self_compares_clean() {
        use oocp_obs::baseline;
        let (_, r) = sample();
        let entry = baseline_run("EMBAR", "pf+fcfs", &r);
        assert_eq!(entry.attr.total(), entry.elapsed_ns, "attribution exact");
        let b = baseline::Baseline {
            index: 1,
            seed: 1,
            whylate: None,
            runs: vec![entry],
        };
        let text = baseline::baseline_json(&b).to_string();
        let back = baseline::parse_baseline(&oocp_obs::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, b);
        let report = baseline::compare(&back, &b.runs, &[]);
        assert!(report.passed(), "a capture matches itself exactly");
    }

    #[test]
    fn report_without_metrics_still_validates() {
        let mut cfg = Config::default_platform();
        cfg.machine = cfg.machine.with_memory_bytes(1024 * 1024);
        let w = build(App::Embar, cfg.bytes_for_ratio(1.0));
        let r = run_workload(&w, &cfg, Mode::Original);
        assert!(r.obs.is_none());
        let doc = report_json(&[("embar".to_string(), &r)]);
        validate_report(&doc).expect("attribution-only report validates");
    }
}
