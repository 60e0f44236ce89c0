//! `perfgate` — the performance-trajectory gate.
//!
//! The paper's claims are longitudinal: speedups, stall breakdowns, and
//! prefetch coverage across the out-of-core suite. This binary makes
//! that trajectory machine-checkable across commits:
//!
//! * `--capture` runs the canonical benchmark matrix, one table of 59
//!   cells (`matrix`): the 8 NAS kernels plus the 5 `kernels/*.ook`
//!   sample kernels, each under the canonical configurations (original,
//!   prefetch without the run-time filter, prefetch+rt on FCFS,
//!   prefetch+rt on demand-priority scheduling), then two multi-tenant
//!   hubs, two prefetch-policy cells and three disk-redundancy cells —
//!   and writes a versioned `oocp-bench-v4` baseline (`BENCH_<n>.json`,
//!   see `scripts/bench.sh`).
//! * `--compare FILE` re-runs the same matrix and diffs every metric
//!   against the stored baseline. The simulator is deterministic, so
//!   the contract is identical-by-default; intentional changes are
//!   declared with `--allow metric=pct` or a `perf-allowances.toml`.
//! * On failure it attributes the regression: which Figure-5 bucket and
//!   which ledger outcome moved, and — via a traced re-run pair — the
//!   first prefetch span at which the canonical and current executions
//!   diverge (`oocp_obs::tracediff`).
//! * `--validate FILE` schema-checks a baseline; `tracediff A B`
//!   aligns two exported Chrome traces by span id.
//!
//! Exit status: 0 clean, 1 gate failure, 2 usage or I/O error.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use oocp_bench::tenants as mt;
use oocp_bench::{report, secs, Config, Kernel, Mode, RunOutput, RunSpec};
use oocp_nas::App;
use oocp_obs::baseline::{
    self, Allowance, Baseline, BaselineRun, CompareReport, DriftKind, Finding, ProfileSummary,
};
use oocp_obs::{tracediff, Json, WhylateSummary};
use oocp_os::{chrome_trace_json, DiskDeath, FaultPlan, PolicyKind, Redundancy, SchedPolicy};

/// Ring capacity for tracediff re-runs: deep enough to hold every event
/// of a matrix cell, so span alignment sees the whole timeline.
const TRACE_CAP: usize = 1 << 18;

/// The canonical configurations: name, mode, disk scheduler. `orig`
/// runs only make sense on FCFS (no prefetch traffic to schedule); the
/// prefetching modes run with and without the run-time layer and under
/// both interesting policies.
const CONFIGS: [(&str, Mode, SchedPolicy); 4] = [
    ("orig+fcfs", Mode::Original, SchedPolicy::Fcfs),
    ("pfnf+fcfs", Mode::PrefetchNoFilter, SchedPolicy::Fcfs),
    ("pf+fcfs", Mode::Prefetch, SchedPolicy::Fcfs),
    ("pf+dprio", Mode::Prefetch, SchedPolicy::DemandPriority),
];

/// Scheduler overrides a compare run may apply on top of the canonical
/// configuration (the controlled way to regress a run on purpose).
#[derive(Clone, Copy, Default)]
struct Overrides {
    queue_depth: Option<usize>,
    coalesce: bool,
    sched: Option<SchedPolicy>,
}

impl Overrides {
    fn any(&self) -> bool {
        self.queue_depth.is_some() || self.coalesce || self.sched.is_some()
    }

    fn apply(&self, cfg: &mut Config) {
        if let Some(d) = self.queue_depth {
            cfg.machine.sched = cfg.machine.sched.with_queue_depth(d);
        }
        if self.coalesce {
            cfg.machine.sched = cfg.machine.sched.with_coalesce(true);
        }
        if let Some(p) = self.sched {
            cfg.machine.sched = cfg.machine.sched.with_policy(p);
        }
    }
}

struct Options {
    capture: bool,
    compare: Option<String>,
    validate: Option<String>,
    tracediff: Option<(String, String)>,
    out: String,
    index: u64,
    only: Option<String>,
    allow: Vec<Allowance>,
    allowances_file: Option<String>,
    overrides: Overrides,
    no_tracediff: bool,
    profile: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfgate --capture [--out FILE] [--index N] [--profile]\n\
         \x20      perfgate --compare FILE [--allow metric=pct]... [--allowances FILE]\n\
         \x20                             [--only KERNEL] [--sched POLICY] [--queue-depth N]\n\
         \x20                             [--coalesce] [--no-tracediff]\n\
         \x20      perfgate --validate FILE\n\
         \x20      perfgate tracediff A.json B.json"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut o = Options {
        capture: false,
        compare: None,
        validate: None,
        tracediff: None,
        out: "BENCH_1.json".to_string(),
        index: 1,
        only: None,
        allow: Vec::new(),
        allowances_file: None,
        overrides: Overrides::default(),
        no_tracediff: false,
        profile: false,
    };
    let mut argv = std::env::args().skip(1);
    let mut positional: Vec<String> = Vec::new();
    while let Some(a) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--capture" => o.capture = true,
            "--compare" => o.compare = Some(value()),
            "--validate" => o.validate = Some(value()),
            "--out" => o.out = value(),
            "--index" => o.index = value().parse().unwrap_or_else(|_| usage()),
            "--only" => o.only = Some(value()),
            "--allow" => match baseline::parse_allowance_arg(&value()) {
                Ok(al) => o.allow.push(al),
                Err(e) => {
                    eprintln!("perfgate: {e}");
                    std::process::exit(2);
                }
            },
            "--allowances" => o.allowances_file = Some(value()),
            "--queue-depth" => {
                o.overrides.queue_depth = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--coalesce" => o.overrides.coalesce = true,
            "--sched" => {
                o.overrides.sched = Some(SchedPolicy::parse(&value()).unwrap_or_else(|| usage()))
            }
            "--no-tracediff" => o.no_tracediff = true,
            "--profile" => o.profile = true,
            "--help" | "-h" => usage(),
            p if !p.starts_with('-') => positional.push(p.to_string()),
            _ => usage(),
        }
    }
    if positional.first().map(String::as_str) == Some("tracediff") {
        if positional.len() != 3 {
            usage();
        }
        o.tracediff = Some((positional[1].clone(), positional[2].clone()));
    } else if !positional.is_empty() {
        usage();
    }
    let modes = [
        o.capture,
        o.compare.is_some(),
        o.validate.is_some(),
        o.tracediff.is_some(),
    ];
    if modes.iter().filter(|m| **m).count() != 1 {
        usage();
    }
    o
}

/// The platform of a kernel cell: the kernel's memory size and the
/// config's scheduler (before compare overrides).
fn cell_config(kernel: &Kernel, policy: SchedPolicy) -> Config {
    let mut cfg = Config::default_platform();
    cfg.metrics = true;
    let mem_mb = match kernel {
        Kernel::Nas(_) => 2,
        Kernel::Ook { mem_mb, .. } => *mem_mb,
    };
    cfg.machine = cfg.machine.with_memory_bytes(mem_mb * 1024 * 1024);
    cfg.machine.sched = cfg.machine.sched.with_policy(policy);
    cfg
}

/// One interpreter run of a cell.
struct Single {
    kernel: Kernel,
    mode: Mode,
    cfg: Config,
    /// Disk 1 dies at this fraction of the cell's own fault-free
    /// elapsed time (the simulator is deterministic, so the point is
    /// the same on every run of the cell).
    death: Option<(u64, u64)>,
}

impl Single {
    /// Run once under `overrides`; a nonzero `trace` also captures the
    /// event timeline for span alignment, `profile` the host-time
    /// attribution. The host time returned is the measured run's alone,
    /// without the fault-free run a death is anchored on.
    fn run(&self, overrides: &Overrides, trace: usize, profile: bool) -> (RunOutput, Duration) {
        let mut cfg = self.cfg;
        overrides.apply(&mut cfg);
        let plan = self.death.map(|(num, den)| {
            let fault_free = self.kernel.run(&RunSpec::new(&cfg, self.mode)).result;
            let at = (fault_free.total() * num / den).max(1);
            // The death is scheduled, so the seed only feeds the plan's
            // unused probabilistic knobs.
            FaultPlan::none(0x0d15_0dea).with_disk_death(DiskDeath { disk: 1, at })
        });
        let mut spec = RunSpec::new(&cfg, self.mode).trace(trace).profile(profile);
        if let Some(p) = &plan {
            spec = spec.faults(p);
        }
        let started = Instant::now();
        let out = self.kernel.run(&spec);
        (out, started.elapsed())
    }
}

/// How a cell runs.
enum Cell {
    /// One interpreter run.
    One(Box<Single>),
    /// This many canonical tenants co-scheduled on one hub
    /// (`tenants::platform`). A hub runs one interpreter per tenant,
    /// so it has no trace and no profile.
    Hub(usize),
}

/// One cell of the matrix.
struct Row {
    /// The baseline key is `kernel/config`.
    kernel: String,
    config: String,
    /// Whether the cell runs under the compare overrides (`--sched`,
    /// `--queue-depth`, `--coalesce`). Only the kernel x config cells
    /// do; the others run their own canonical platform and are skipped
    /// while the overrides retune the scheduler.
    retunable: bool,
    cell: Cell,
}

impl Row {
    fn key(&self) -> String {
        format!("{}/{}", self.kernel, self.config)
    }

    /// The one selection rule, for the cells a run measures and for the
    /// baseline cells a compare holds it to: the lowercased kernel
    /// contains the lowercased `--only` text, and the cell runs under
    /// the overrides if any are given.
    fn selected(&self, only: &Option<String>, overrides: &Overrides) -> bool {
        (self.retunable || !overrides.any())
            && only
                .as_ref()
                .is_none_or(|f| self.kernel.to_lowercase().contains(&f.to_lowercase()))
    }
}

/// The matrix, in baseline order: every kernel under every canonical
/// configuration; two hubs of co-scheduled tenants, which pin the
/// fairness surface; EMBAR under the readahead policy alone and under
/// hints plus the distance controller, which pin the policy counters;
/// and EMBAR under rotating parity, fault-free, with a disk death a
/// third of the way into a demand-paged run (degraded reads, hedging)
/// and with an early death while prefetching (hint rerouting, online
/// rebuild). A kernel cell runs with no policy object and no
/// redundancy, the machine's defaults.
fn matrix() -> Vec<Row> {
    const EMBAR: Kernel = Kernel::Nas(App::Embar);
    let row = |kernel: &str, config: &str, retunable, cell| Row {
        kernel: kernel.to_string(),
        config: config.to_string(),
        retunable,
        cell,
    };
    let one = |kernel, mode, cfg, death| {
        Cell::One(Box::new(Single {
            kernel,
            mode,
            cfg,
            death,
        }))
    };
    let mut rows: Vec<Row> = Kernel::all()
        .into_iter()
        .flat_map(|k| {
            CONFIGS.iter().map(move |&(config, mode, sched)| {
                let cell = one(k, mode, cell_config(&k, sched), None);
                row(&k.name(), config, true, cell)
            })
        })
        .collect();
    rows.extend([4, 16].map(|n| row(mt::KERNEL, &format!("co{n}"), false, Cell::Hub(n))));
    let base = cell_config(&EMBAR, SchedPolicy::Fcfs);
    let ablation = |config, mode, kind| {
        let mut cfg = base;
        cfg.machine = cfg.machine.with_prefetch_policy(kind);
        row("ablations", config, false, one(EMBAR, mode, cfg, None))
    };
    let mut cfg = base;
    cfg.machine = cfg.machine.with_redundancy(Redundancy::Parity);
    let parity =
        |config, mode, death| row("redundancy", config, false, one(EMBAR, mode, cfg, death));
    rows.extend([
        ablation("readahead", Mode::Original, PolicyKind::Readahead),
        ablation("adaptive", Mode::Prefetch, PolicyKind::AdaptiveDistance),
        parity("parity", Mode::Prefetch, None),
        parity("degraded", Mode::Original, Some((1, 3))),
        parity("rebuild", Mode::Prefetch, Some((1, 4))),
    ]);
    rows
}

/// The cells this run measures, in baseline order.
fn selection(only: &Option<String>, overrides: &Overrides) -> Result<Vec<Row>, String> {
    let rows: Vec<Row> = matrix()
        .into_iter()
        .filter(|r| r.selected(only, overrides))
        .collect();
    match only {
        Some(f) if rows.is_empty() => Err(format!("--only {f} matches no kernel")),
        _ => Ok(rows),
    }
}

/// Number of top self-time sites stamped into a profiled capture.
const PROFILE_TOP_SITES: usize = 5;

/// Re-run one cell under the host-time profiler and distill the compact
/// summary stamped into the baseline; `None` for a hub. This is a
/// *second* run, separate from the timed one, so probe overhead never
/// leaks into the (gated, if widely allowed) `sim_throughput`; the
/// profiled run's sim-visible state is bit-identical to the detached
/// run by construction, so the profile annotates exactly the cell it
/// rode on.
fn profile_cell(row: &Row) -> Option<ProfileSummary> {
    let Cell::One(single) = &row.cell else {
        return None;
    };
    let prof = single
        .run(&Overrides::default(), 0, true)
        .0
        .profile
        .expect("a profiled run carries its profile");
    Some(ProfileSummary {
        total_host_ns: prof.total_ns(),
        sites: prof
            .top_self(PROFILE_TOP_SITES)
            .into_iter()
            .map(|r| (r.path, r.self_ns))
            .collect(),
    })
}

/// Measure each cell of `rows` and distill its baseline run. With
/// `profile`, each cell gets a second, profiled run whose summary is
/// stamped as the report-only `profile` block.
fn run_matrix(
    rows: &[Row],
    overrides: &Overrides,
    profile: bool,
) -> Result<Vec<BaselineRun>, String> {
    // Solo runs of the tenants, shared by the hub widths.
    let mut solos = HashMap::new();
    let mut runs = Vec::new();
    for row in rows {
        let key = row.key();
        let (mut run, sim_ns, host, verified, flush) = match &row.cell {
            Cell::One(single) => {
                let (out, host) = single.run(overrides, 0, false);
                let r = out.result;
                let run = report::baseline_run(&row.kernel, &row.config, &r);
                (run, r.total(), host, r.verified, r.flush)
            }
            Cell::Hub(n) => {
                let opts = mt::CoOptions {
                    metrics: true,
                    ..Default::default()
                };
                let started = Instant::now();
                let cell = mt::co_run(&mt::platform(), *n, &opts, &mut solos)
                    .map_err(|e| format!("{key}: {e}"))?;
                let host = started.elapsed();
                let run = mt::tenant_baseline_run(&row.config, &cell);
                (run, cell.hub.elapsed_ns, host, cell.verified, None)
            }
        };
        if let Err(e) = verified {
            return Err(format!("{key} failed to verify: {e}"));
        }
        // A cell must also flush its dirty pages cleanly — a typed
        // FlushError here means the final writeback lost data, which is
        // a correctness failure, not a perf number.
        if let Some(f) = flush {
            return Err(format!("{key}: {f}"));
        }
        eprintln!(
            "  ran {:<14} {:<10} elapsed {}s",
            row.kernel,
            row.config,
            secs(sim_ns)
        );
        // Simulated ns per host second: noisy by nature, so the
        // `simthroughput.*` allowance band is deliberately wide.
        run.sim_throughput = Some((sim_ns as f64 / host.as_secs_f64().max(1e-9)) as u64);
        if profile {
            run.profile = profile_cell(row);
        }
        runs.push(run);
    }
    Ok(runs)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    oocp_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The shape of a selection, for the capture banner: "59 cells: 13
/// kernels x 4 configs + 2 tenants + 2 ablations + 3 redundancy".
fn shape(rows: &[Row]) -> String {
    let (cells, configs) = (rows.len(), CONFIGS.len());
    let kernels = rows.iter().filter(|r| r.retunable).count() / configs;
    let mut text = format!("{cells} cells: {kernels} kernels x {configs} configs");
    let families = rows.chunk_by(|a, b| a.kernel == b.kernel);
    for f in families.filter(|f| !f[0].retunable) {
        text += &format!(" + {} {}", f.len(), f[0].kernel);
    }
    text
}

fn capture(o: &Options) -> Result<(), String> {
    let rows = selection(&o.only, &Overrides::default())?;
    eprintln!("perfgate: capturing baseline ({})", shape(&rows));
    let runs = run_matrix(&rows, &Overrides::default(), o.profile)?;
    // Baseline-level whylate: the sum of the per-cell cause vectors, so
    // the trajectory answers "why are prefetches late overall" at a
    // glance without re-summing every cell.
    let mut agg = WhylateSummary::default();
    let mut any = false;
    for r in &runs {
        if let Some(w) = &r.whylate {
            agg.merge(w);
            any = true;
        }
    }
    let b = Baseline {
        index: o.index,
        seed: Config::default_platform().seed,
        runs,
        whylate: any.then_some(agg),
    };
    let doc = baseline::baseline_json(&b);
    // Prove what we wrote is what a compare will read.
    baseline::parse_baseline(&doc).map_err(|e| format!("capture self-check failed: {e}"))?;
    report::write_report(&o.out, &doc).map_err(|e| e.to_string())?;
    println!(
        "captured baseline index {} with {} runs to {}",
        b.index,
        b.runs.len(),
        o.out
    );
    Ok(())
}

fn validate(path: &str) -> Result<(), String> {
    let doc = read_json(path)?;
    // Report the document's own schema tag (only v4 parses).
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .unwrap_or("<missing schema>")
        .to_string();
    let b = baseline::parse_baseline(&doc)?;
    let mut kernels: Vec<&str> = b.runs.iter().map(|r| r.kernel.as_str()).collect();
    kernels.sort_unstable();
    kernels.dedup();
    let mut configs: Vec<&str> = b.runs.iter().map(|r| r.config.as_str()).collect();
    configs.sort_unstable();
    configs.dedup();
    println!(
        "{path}: valid {schema} (index {}, {} runs, {} kernels x {} configs)",
        b.index,
        b.runs.len(),
        kernels.len(),
        configs.len()
    );
    if let Some(w) = &b.whylate {
        println!(
            "  whylate: {} late / {} dropped / {} wasted across the matrix",
            w.late_total(),
            w.drop_total(),
            w.wasted_total()
        );
    }
    Ok(())
}

/// All findings of one matrix cell, for the drill-down printout.
fn cell_findings<'a>(report: &'a CompareReport, key: &str) -> Vec<&'a Finding> {
    report.findings.iter().filter(|f| f.key == key).collect()
}

fn fmt_value(metric: &str, v: Option<u64>) -> String {
    match v {
        None => "absent".to_string(),
        Some(v) if metric.ends_with("_ns") || metric.contains(".p") => format!("{}s", secs(v)),
        Some(v) => v.to_string(),
    }
}

fn print_finding(f: &Finding) {
    let tag = match f.kind {
        DriftKind::Regression => "regressed",
        DriftKind::Improvement => "improved",
        DriftKind::Shift => "shifted",
        DriftKind::Unpaired => "unpaired",
    };
    let allowed = if f.allowed { " [allowed]" } else { "" };
    // A relative percentage over a zero base is noise; say "from zero".
    let delta = match (f.old, f.new) {
        (None, _) => "appeared".to_string(),
        (_, None) => "vanished".to_string(),
        (Some(0), _) => "from 0".to_string(),
        (_, Some(0)) => "to 0".to_string(),
        _ => format!("{:+.1}%", f.pct()),
    };
    println!(
        "    {:<28} {tag:>9} {delta:>8}  ({} -> {}){allowed}",
        f.metric,
        fmt_value(&f.metric, f.old),
        fmt_value(&f.metric, f.new),
    );
}

/// Print the regression attribution for every cell with drift: the
/// elapsed move first, then the attribution buckets and ledger
/// outcomes that explain it, largest relative move first.
fn print_drilldown(report: &CompareReport) {
    let mut keys: Vec<&str> = report.findings.iter().map(|f| f.key.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let mut fs = cell_findings(report, key);
        let gate = if fs.iter().any(|f| !f.allowed) {
            "GATE"
        } else {
            "allowed"
        };
        println!("  [{gate}] {key}: {} metrics moved", fs.len());
        fs.sort_by(|a, b| {
            (a.metric != "elapsed_ns")
                .cmp(&(b.metric != "elapsed_ns"))
                .then(b.pct().abs().total_cmp(&a.pct().abs()))
        });
        for f in fs.iter().take(8) {
            print_finding(f);
        }
        if fs.len() > 8 {
            println!("    ... and {} more", fs.len() - 8);
        }
    }
}

/// Align the canonical and the overridden execution of one failing cell
/// by prefetch span id and print the first divergent lifecycle event.
fn print_tracediff(o: &Options, key: &str) -> Result<(), String> {
    let row = matrix()
        .into_iter()
        .find(|r| r.key() == key)
        .ok_or_else(|| format!("no cell {key} in the matrix"))?;
    let Cell::One(single) = &row.cell else {
        return Err("a hub run has no trace".to_string());
    };
    let traced = |overrides| single.run(overrides, TRACE_CAP, false).0.trace;
    let (base_trace, cur_trace) = (traced(&Overrides::default()), traced(&o.overrides));
    let (a, b) = (
        chrome_trace_json(&base_trace.ok_or("canonical run produced no trace")?),
        chrome_trace_json(&cur_trace.ok_or("current run produced no trace")?),
    );
    let (div, sa, sb) = tracediff::diff_documents(&a, &b)?;
    match div {
        Some(d) => println!(
            "tracediff {key} (canonical vs current, {} vs {} spans): first divergence at {d}",
            sa.spans, sb.spans
        ),
        None if sa != sb => println!(
            "tracediff {key}: span timelines identical; event counts differ \
             ({} vs {} events outside prefetch spans)",
            sa.events, sb.events
        ),
        None if o.overrides.any() => println!(
            "tracediff {key}: timelines identical under overrides — the drift is \
             outside the traced window"
        ),
        None => println!(
            "tracediff {key}: no compare overrides were given, so both re-runs used \
             the canonical config and agree; the regression is a code-level change \
             relative to the committed baseline (re-capture once intended)"
        ),
    }
    Ok(())
}

fn compare(o: &Options, path: &str) -> Result<bool, String> {
    let base = baseline::parse_baseline(&read_json(path)?)?;
    let mut allow = o.allow.clone();
    if let Some(f) = &o.allowances_file {
        let text = std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?;
        allow.extend(baseline::parse_allowances_toml(&text).map_err(|e| format!("{f}: {e}"))?);
    }
    let seed = Config::default_platform().seed;
    if base.seed != seed {
        return Err(format!(
            "baseline was captured with seed {} but this build runs seed {seed}; \
             re-capture with scripts/bench.sh",
            base.seed
        ));
    }
    let base_index = base.index;
    eprintln!("perfgate: comparing against {path} (index {base_index})");
    // Compare runs never profile: the profile block is report-only and
    // feeds no gated metric, so re-deriving it here would only slow the
    // gate down.
    let rows = selection(&o.only, &o.overrides)?;
    let current = run_matrix(&rows, &o.overrides, false)?;
    // The baseline holds the run to the kernels the selection measured:
    // cells the selection left out are out of scope, not missing.
    let scoped = Baseline {
        runs: base
            .runs
            .iter()
            .filter(|r| rows.iter().any(|row| row.kernel == r.kernel))
            .cloned()
            .collect(),
        ..base
    };
    let report = baseline::compare(&scoped, &current, &allow);

    for key in &report.missing {
        println!("  MISSING {key}: baseline cell not produced by this run");
    }
    for key in &report.extra {
        println!("  extra {key}: not in baseline (will be captured next bench.sh)");
    }
    for key in &report.checksum_divergence {
        println!("  CHECKSUM {key}: final data diverged from baseline — correctness, not perf");
    }
    print_drilldown(&report);

    if report.passed() {
        println!(
            "perfgate: PASS — {} cells identical to baseline {base_index} ({} allowed drifts)",
            report.runs_compared,
            report.findings.len()
        );
        return Ok(true);
    }
    let failures = report.gate_failures();
    println!(
        "perfgate: FAIL — {failures} gate failure(s) across {} compared cells",
        report.runs_compared
    );
    if !o.no_tracediff {
        // Attribute one failing cell down to the timeline. Prefer a
        // prefetching configuration — original runs have no spans to
        // align, so their diff is vacuously "identical".
        let failing: Vec<String> = report
            .unallowed()
            .map(|f| f.key.clone())
            .chain(report.checksum_divergence.iter().cloned())
            .collect();
        let pick = failing
            .iter()
            .find(|k| k.contains("/pf"))
            .or_else(|| failing.first());
        if let Some(first) = pick {
            if let Err(e) = print_tracediff(o, first) {
                eprintln!("perfgate: tracediff unavailable for {first}: {e}");
            }
        }
    }
    Ok(false)
}

fn tracediff_files(a: &str, b: &str) -> Result<bool, String> {
    let ta = std::fs::read_to_string(a).map_err(|e| format!("cannot read {a}: {e}"))?;
    let tb = std::fs::read_to_string(b).map_err(|e| format!("cannot read {b}: {e}"))?;
    let (div, sa, sb) = tracediff::diff_documents(&ta, &tb)?;
    println!(
        "{a}: {} events, {} prefetch spans\n{b}: {} events, {} prefetch spans",
        sa.events, sa.spans, sb.events, sb.spans
    );
    match div {
        Some(d) => {
            println!("first divergence at {d}");
            Ok(false)
        }
        None if sa != sb => {
            println!("spans identical, but event counts differ outside the prefetch lifecycle");
            Ok(false)
        }
        None => {
            println!("traces are span-identical");
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let o = parse_args();
    let outcome = if o.capture {
        capture(&o).map(|()| true)
    } else if let Some(path) = &o.validate {
        validate(path).map(|()| true)
    } else if let Some((a, b)) = &o.tracediff {
        tracediff_files(a, b)
    } else if let Some(path) = &o.compare {
        compare(&o, path)
    } else {
        usage();
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfgate: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keys of the matrix cells that `only` and `overrides` select.
    fn keys(only: Option<&str>, overrides: &Overrides) -> Vec<String> {
        let only = only.map(str::to_string);
        matrix()
            .iter()
            .filter(|r| r.selected(&only, overrides))
            .map(Row::key)
            .collect()
    }

    /// The newest baseline, chosen as `scripts/ci.sh` chooses it: the
    /// highest `<n>` of the repository's `BENCH_<n>.json` files.
    fn newest_baseline() -> Baseline {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let newest = std::fs::read_dir(root)
            .expect("repository root")
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                let n = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
                n.parse::<u64>().ok()
            })
            .max()
            .expect("a BENCH_<n>.json baseline");
        let path = format!("{root}/BENCH_{newest}.json");
        baseline::parse_baseline(&read_json(&path).unwrap()).unwrap()
    }

    #[test]
    fn the_matrix_is_the_newest_baseline_in_order() {
        let want: Vec<String> = newest_baseline()
            .runs
            .iter()
            .map(|r| format!("{}/{}", r.kernel, r.config))
            .collect();
        assert_eq!(want.len(), 59);
        assert_eq!(keys(None, &Overrides::default()), want);
    }

    #[test]
    fn one_predicate_selects_the_cells() {
        let all = keys(None, &Overrides::default());
        let cases = [
            ("EMBAR", 4, "EMBAR/"),
            ("embar", 4, "EMBAR/"),
            ("ook", 20, "ook:"),
            ("tenants", 2, "tenants/"),
            ("ablations", 2, "ablations/"),
            ("redundancy", 3, "redundancy/"),
        ];
        for (only, n, prefix) in cases {
            let want: Vec<&String> = all.iter().filter(|k| k.starts_with(prefix)).collect();
            let got = keys(Some(only), &Overrides::default());
            assert_eq!(want.len(), n, "--only {only}");
            assert_eq!(got.iter().collect::<Vec<_>>(), want, "--only {only}");
        }
        // Under scheduler overrides only the kernel x config cells run:
        // the first 52, and with `--only` the kernel's own four.
        let retuned = Overrides {
            queue_depth: Some(1),
            ..Overrides::default()
        };
        assert_eq!(keys(None, &retuned), all[..52]);
        assert_eq!(keys(Some("EMBAR"), &retuned).len(), 4);
        assert!(keys(Some("tenants"), &retuned).is_empty());
        assert!(selection(&Some("nosuch".into()), &Overrides::default()).is_err());
    }

    #[test]
    fn the_capture_banner_is_the_table_shape() {
        let rows = matrix();
        assert_eq!(
            shape(&rows),
            "59 cells: 13 kernels x 4 configs + 2 tenants + 2 ablations + 3 redundancy"
        );
    }
}
