//! One run of one workload: the passes over its cells, the checks, and
//! the metrics computed from them.

use std::path::Path;

use oocp_obs::Json;

use crate::cell::{run_cell, run_memvm, CellRun, Setup, SimCounts};
use crate::metrics::Metric;
use crate::spans::Spans;
use crate::stats::{geomean, median};
use crate::tracevm::BOUNDARY;
use crate::workload::{CellSpec, Mode};

/// Set-ups timed per cell in the first pass, so set-up time is a median
/// of at least this many samples however few passes fit.
const SETUP_SAMPLES: usize = 3;

pub struct Options<'a> {
    pub workload: &'a str,
    pub seed: u64,
    /// Untraced: keep running whole passes until the measured regions
    /// add up to this many host seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes `trace-<workload>.json`.
    pub out_dir: &'a Path,
}

/// What a run found, in the shape of the result line.
pub struct Outcome {
    pub correct: bool,
    /// Cell executions, and how many of them failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// The declared table of this kind of run: end-to-end metrics from
    /// an untraced run, per-layer metrics from a traced one.
    pub metrics: Vec<Metric>,
    /// Rows printed and stored but not part of that table.
    pub report_only: Vec<Metric>,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", crate::metrics::metrics_json(&self.metrics)),
        ])
    }
}

/// One cell over all passes: medians of its host times, and the
/// simulated numbers, which are the same in every pass.
struct CellSummary {
    setup: Setup,
    exec_s: f64,
    finish_s: f64,
    verify_s: f64,
    sim: SimCounts,
}

fn med(runs: &[&CellRun], f: impl Fn(&CellRun) -> f64) -> f64 {
    median(&runs.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn summarize(runs: &[&CellRun]) -> CellSummary {
    let setups: Vec<Setup> = runs.iter().flat_map(|r| r.setups.iter().copied()).collect();
    let phase = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    CellSummary {
        setup: Setup {
            build_s: phase(|s| s.build_s),
            compile_s: phase(|s| s.compile_s),
            machine_new_s: phase(|s| s.machine_new_s),
            init_s: phase(|s| s.init_s),
        },
        exec_s: med(runs, |r| r.exec_s),
        finish_s: med(runs, |r| r.finish_s),
        verify_s: med(runs, |r| r.verify_s),
        sim: runs[0].sim.clone(),
    }
}

/// Sum of one simulated count over cells.
fn total(sums: &[CellSummary], key: &str) -> f64 {
    sums.iter().map(|s| s.sim[key] as f64).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn end_to_end(cells: &[CellSpec], sums: &[CellSummary]) -> Vec<Metric> {
    let host_exec_s: f64 = sums.iter().map(|s| s.exec_s + s.finish_s).sum();
    let setup_s: f64 = sums.iter().map(|s| s.setup.total_s()).sum();
    let refs = total(sums, "ir.loads") + total(sums, "ir.stores");
    // Each prefetching cell against the original cell of its kernel.
    let (orig, pref): (Vec<&SimCounts>, Vec<&SimCounts>) = cells
        .iter()
        .zip(sums)
        .filter(|(c, _)| c.mode == Mode::Prefetch)
        .map(|(c, s)| (&sums[c.reference].sim, &s.sim))
        .unzip();
    let sum = |side: &[&SimCounts], key: &str| side.iter().map(|s| s[key] as f64).sum::<f64>();
    let speedups: Vec<f64> = orig
        .iter()
        .zip(&pref)
        .map(|(o, p)| o["os.sim_total_ns"] as f64 / p["os.sim_total_ns"] as f64)
        .collect();
    vec![
        Metric::new("host_exec_s", host_exec_s, "s"),
        Metric::new("mrefs_per_s", refs / host_exec_s / 1e6, "Mref/s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", crate::host::peak_rss_mb(), "MB"),
        Metric::new("sim_total_s", sum(&pref, "os.sim_total_ns") / 1e9, "sim-s"),
        Metric::new("sim_speedup", geomean(&speedups), "x"),
        Metric::new(
            "sim_stall_elim",
            1.0 - ratio(sum(&pref, "os.sim_idle_ns"), sum(&orig, "os.sim_idle_ns")),
            "share",
        ),
        Metric::new(
            "sim_fault_coverage",
            1.0 - ratio(sum(&pref, "os.hard_faults"), sum(&orig, "os.hard_faults")),
            "share",
        ),
    ]
}

/// Phase spans and exact counters, summed over cells.
fn phases_and_counters(sums: &[CellSummary]) -> Vec<Metric> {
    let phase = |f: fn(&CellSummary) -> f64| sums.iter().map(f).sum::<f64>();
    let mut out = vec![
        Metric::new("nas.build_s", phase(|s| s.setup.build_s), "s"),
        Metric::new("core.compile_s", phase(|s| s.setup.compile_s), "s"),
        Metric::new("os.machine_new_s", phase(|s| s.setup.machine_new_s), "s"),
        Metric::new("nas.init_s", phase(|s| s.setup.init_s), "s"),
        Metric::new("ir.exec_s", phase(|s| s.exec_s), "s"),
        Metric::new("os.finish_s", phase(|s| s.finish_s), "s"),
        Metric::new("nas.verify_s", phase(|s| s.verify_s), "s"),
        Metric::new(
            "bench.sim_throughput",
            total(sums, "os.sim_total_ns") / 1e9 / phase(|s| s.exec_s + s.finish_s),
            "sim-s/s",
        ),
    ];
    let t = |key: &str| total(sums, key);
    for key in [
        "ir.loads",
        "ir.stores",
        "ir.iters",
        "ir.prefetch_stmts",
        "ir.release_stmts",
        "rt.prefetch_ops",
        "rt.bit_checks",
        "rt.pages_filtered",
        "rt.prefetch_syscalls",
        "rt.release_syscalls",
    ] {
        out.push(Metric::new(key, t(key), "count"));
    }
    out.push(Metric::new(
        "rt.filtered_fraction",
        ratio(t("rt.pages_filtered"), t("rt.prefetch_pages")),
        "share",
    ));
    for key in [
        "os.hard_faults",
        "os.prefetched_hits",
        "os.prefetched_faults_inflight",
        "os.prefetch_pages_issued",
        "os.prefetch_pages_dropped",
    ] {
        out.push(Metric::new(key, t(key), "count"));
    }
    // Useful outcomes over attempts: prefetched pages (read from disk
    // or reclaimed from the free list) that were resident at first use.
    out.push(Metric::new(
        "os.prefetch_useful_share",
        ratio(
            t("os.prefetched_hits"),
            t("os.prefetch_pages_issued") + t("os.prefetch_pages_reclaimed"),
        ),
        "share",
    ));
    for key in [
        "os.release_pages_effective",
        "os.writebacks",
        "os.daemon_evictions",
        "os.parity_writes",
    ] {
        out.push(Metric::new(key, t(key), "count"));
    }
    for (name, key) in [
        ("os.sim_user_s", "os.sim_user_ns"),
        ("os.sim_sys_fault_s", "os.sim_sys_fault_ns"),
        ("os.sim_sys_prefetch_s", "os.sim_sys_prefetch_ns"),
        ("os.sim_idle_s", "os.sim_idle_ns"),
    ] {
        out.push(Metric::new(name, t(key) / 1e9, "sim-s"));
    }
    out.push(Metric::new(
        "os.sim_fault_wait_mean_ms",
        ratio(t("os.fault_wait_ns"), t("os.fault_wait_count")) / 1e6,
        "sim-ms",
    ));
    for key in ["disk.demand_reads", "disk.prefetch_reads", "disk.writes"] {
        out.push(Metric::new(key, t(key), "count"));
    }
    out.push(Metric::new(
        "disk.busy_share",
        ratio(t("disk.busy_ns"), t("disk.capacity_ns")),
        "share",
    ));
    out.push(Metric::new(
        "disk.demand_wait_ms_mean",
        ratio(t("disk.demand_wait_ns"), t("disk.demand_reads")) / 1e6,
        "sim-ms",
    ));
    let hwm = sums.iter().map(|s| s.sim["disk.queue_depth_hwm"]).max();
    out.push(Metric::new(
        "disk.queue_depth_hwm",
        hwm.unwrap_or(0) as f64,
        "count",
    ));
    out.push(Metric::new(
        "disk.coalesced_requests",
        t("disk.coalesced_requests"),
        "count",
    ));
    out
}

/// The checks every cell execution has to pass. Returns the number of
/// failed executions and appends one line per failure.
fn check_pass(cells: &[CellSpec], pass: &[CellRun], problems: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (spec, run) in cells.iter().zip(pass) {
        let reference = &pass[spec.reference];
        let problem = match &run.error {
            Some(e) => Some(e.clone()),
            None if reference.error.is_none() && run.checksum != reference.checksum => {
                Some(format!(
                    "final data {:016x} differs from {} ({:016x})",
                    run.checksum, cells[spec.reference].name, reference.checksum
                ))
            }
            None => None,
        };
        if let Some(p) = problem {
            failed += 1;
            problems.push(format!("{}: {p}", spec.name));
        }
    }
    failed
}

/// A later execution of a cell must reproduce the first one's simulated
/// numbers and final data exactly.
fn check_repeats(name: &str, first: &CellRun, again: &CellRun, problems: &mut Vec<String>) -> bool {
    if first.error.is_some() || again.error.is_some() {
        return true; // already counted as failed
    }
    if first.checksum != again.checksum {
        problems.push(format!("{name}: final data does not repeat"));
        return false;
    }
    for (key, v) in &first.sim {
        if again.sim[key] != *v {
            problems.push(format!(
                "{name}: simulated {key} does not repeat ({v} then {})",
                again.sim[key]
            ));
            return false;
        }
    }
    true
}

fn per_cell_rows(cells: &[CellSpec], sums: &[CellSummary]) -> Vec<Metric> {
    let mut rows = Vec::new();
    for (c, s) in cells.iter().zip(sums) {
        rows.push(Metric::new(
            format!("ir.cell_exec_s.{}", c.name),
            s.exec_s,
            "s",
        ));
        rows.push(Metric::new(
            format!("os.cell_finish_s.{}", c.name),
            s.finish_s,
            "s",
        ));
        let sim_s = s.sim["os.sim_total_ns"] as f64 / 1e9;
        rows.push(Metric::new(
            format!("os.cell_sim_total_s.{}", c.name),
            sim_s,
            "sim-s",
        ));
        let faults = s.sim["os.hard_faults"] as f64;
        rows.push(Metric::new(
            format!("os.cell_hard_faults.{}", c.name),
            faults,
            "count",
        ));
    }
    rows
}

pub fn run(cells: &[CellSpec], opts: &Options) -> Outcome {
    // One untimed cell first, so the allocator and caches are warm.
    run_cell(&cells[0], opts.seed, 1, false, &mut Spans::new());
    if opts.trace {
        run_traced(cells, opts)
    } else {
        run_untraced(cells, opts)
    }
}

fn run_untraced(cells: &[CellSpec], opts: &Options) -> Outcome {
    let mut spans = Spans::new();
    let mut passes: Vec<Vec<CellRun>> = Vec::new();
    let mut measured = 0.0;
    let mut problems = Vec::new();
    let (mut failed, mut repeats) = (0, true);
    while passes.is_empty() || measured < opts.seconds {
        let samples = if passes.is_empty() { SETUP_SAMPLES } else { 1 };
        let pass: Vec<CellRun> = cells
            .iter()
            .map(|c| run_cell(c, opts.seed, samples, false, &mut spans))
            .collect();
        measured += pass.iter().map(|r| r.exec_s + r.finish_s).sum::<f64>();
        failed += check_pass(cells, &pass, &mut problems);
        if let Some(first) = passes.first() {
            for ((c, a), b) in cells.iter().zip(first).zip(&pass) {
                repeats &= check_repeats(&c.name, a, b, &mut problems);
            }
        }
        passes.push(pass);
        if failed > 0 {
            break;
        }
    }
    let attempted = (passes.len() * cells.len()) as u64;
    if failed > 0 {
        return failure(attempted, failed, problems);
    }
    let sums: Vec<CellSummary> = (0..cells.len())
        .map(|i| summarize(&passes.iter().map(|p| &p[i]).collect::<Vec<_>>()))
        .collect();
    let mut report_only = phases_and_counters(&sums);
    report_only.extend(per_cell_rows(cells, &sums));
    report_only.push(Metric::new("bench.passes", passes.len() as f64, "passes"));
    Outcome {
        correct: repeats,
        attempted,
        failed,
        metrics: end_to_end(cells, &sums),
        report_only,
        problems,
    }
}

fn failure(attempted: u64, failed: u64, problems: Vec<String>) -> Outcome {
    Outcome {
        correct: false,
        attempted,
        failed,
        metrics: Vec::new(),
        report_only: Vec::new(),
        problems,
    }
}

/// A traced run executes every cell three ways: against the tracing
/// wrapper (boundary calls and busy time), plainly (phase spans,
/// counters, and the denominator of the tracing overhead), and on
/// `MemVm` (the independent estimate of interpreter time).
fn run_traced(cells: &[CellSpec], opts: &Options) -> Outcome {
    let mut spans = Spans::new();
    let mut problems = Vec::new();
    let (mut failed, mut repeats) = (0, true);
    let traced: Vec<CellRun> = cells
        .iter()
        .map(|c| run_cell(c, opts.seed, 1, true, &mut spans))
        .collect();
    failed += check_pass(cells, &traced, &mut problems);
    // The plain pass and MemVm are off the record: the trace file holds
    // the traced pass only, so span arithmetic there is self-contained.
    let mut off_record = Spans::new();
    let plain: Vec<CellRun> = cells
        .iter()
        .map(|c| run_cell(c, opts.seed, 1, false, &mut off_record))
        .collect();
    failed += check_pass(cells, &plain, &mut problems);
    let mut memvm_s = 0.0;
    for ((c, t), p) in cells.iter().zip(&traced).zip(&plain) {
        // Tracing reads only the host clock: same simulated run.
        repeats &= check_repeats(&c.name, p, t, &mut problems);
        let (secs, checksum) = run_memvm(c, opts.seed, &mut off_record);
        memvm_s += secs;
        if p.error.is_none() && checksum != p.checksum {
            failed += 1;
            problems.push(format!(
                "{}: MemVm final data {checksum:016x} differs from the machine's {:016x}",
                c.name, p.checksum
            ));
        }
    }
    let attempted = 3 * cells.len() as u64;
    if failed > 0 {
        return failure(attempted, failed, problems);
    }

    let sums: Vec<CellSummary> = plain.iter().map(|r| summarize(&[r])).collect();
    let mut per_layer = phases_and_counters(&sums);
    let mut busy_total = 0.0;
    for (i, name) in BOUNDARY.into_iter().enumerate() {
        let rows = traced.iter().map(|r| r.boundary.expect("traced").rows[i]);
        let (calls, busy_ns) = rows.fold((0, 0), |(c, b), r| (c + r.calls, b + r.busy_ns));
        let busy_s = busy_ns as f64 / 1e9;
        busy_total += busy_s;
        per_layer.push(Metric::new(format!("{name}.calls"), calls as f64, "count"));
        per_layer.push(Metric::new(format!("{name}.busy_s"), busy_s, "s"));
    }
    // Self time of the traced `ir.exec` spans: duration minus the
    // aggregated boundary work and the clock reads.
    let self_s = spans
        .spans()
        .iter()
        .filter(|s| s.name == "ir.exec")
        .map(|s| spans.self_ns(s.id) as f64 / 1e9)
        .sum::<f64>();
    let exec = |runs: &[CellRun]| runs.iter().map(|r| r.exec_s).sum::<f64>();
    let gaps: Vec<f64> = traced
        .iter()
        .map(|r| r.boundary.expect("traced").timer_gap_ns)
        .collect();
    let timer_gap_ns = median(&gaps);
    per_layer.extend([
        Metric::new("ir.self_s", self_s, "s"),
        Metric::new("ir.self_share", self_s / (self_s + busy_total), "share"),
        Metric::new("ir.memvm_exec_s", memvm_s, "s"),
        Metric::new("bench.trace_overhead", exec(&traced) / exec(&plain), "x"),
        Metric::new("bench.timer_gap_ns", timer_gap_ns, "ns"),
    ]);

    let mut doc = vec![
        ("workload".to_string(), Json::Str(opts.workload.to_string())),
        ("seed".to_string(), Json::U64(opts.seed)),
        ("timer_gap_ns".to_string(), Json::F64(timer_gap_ns)),
    ];
    if let Json::Obj(fields) = spans.to_json() {
        doc.extend(fields);
    }
    let path = opts.out_dir.join(format!("trace-{}.json", opts.workload));
    let written = std::fs::create_dir_all(opts.out_dir)
        .and_then(|()| std::fs::write(&path, Json::Obj(doc).to_string()));
    if let Err(e) = written {
        problems.push(format!("cannot write {}: {e}", path.display()));
    }

    Outcome {
        correct: repeats && problems.is_empty(),
        attempted,
        failed,
        metrics: per_layer,
        report_only: per_cell_rows(cells, &sums),
        problems,
    }
}
