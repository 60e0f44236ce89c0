//! `perfgate` — the performance-trajectory gate.
//!
//! The paper's claims are longitudinal: speedups, stall breakdowns, and
//! prefetch coverage across the out-of-core suite. This binary makes
//! that trajectory machine-checkable across commits:
//!
//! * `--capture` runs the canonical benchmark matrix — the 8 NAS
//!   kernels plus the 5 `kernels/*.ook` sample kernels, each under the
//!   canonical configurations (original, prefetch without the run-time
//!   filter, prefetch+rt on FCFS, prefetch+rt on demand-priority
//!   scheduling) — and writes a versioned `oocp-bench-v4` baseline
//!   (`BENCH_<n>.json`, see `scripts/bench.sh`).
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

use oocp_bench::tenants as mt;
use oocp_bench::{report, run_workload, secs, Config, Kernel, Mode, RunOutput, RunSpec};
use oocp_nas::{build, App};
use oocp_obs::baseline::{
    self, Allowance, Baseline, BaselineRun, CompareReport, DriftKind, Finding, ProfileSummary,
};
use oocp_obs::{tracediff, Json, WhylateSummary};
use oocp_os::{chrome_trace_json, DiskDeath, FaultPlan, PolicyKind, Redundancy, SchedPolicy};

/// Ring capacity for tracediff re-runs: deep enough to hold every event
/// of a matrix cell, so span alignment sees the whole timeline.
const TRACE_CAP: usize = 1 << 18;

/// One canonical configuration of the capture matrix.
#[derive(Clone, Copy)]
struct ConfigSpec {
    name: &'static str,
    mode: Mode,
    policy: SchedPolicy,
}

/// The canonical configurations. `orig` runs only make sense on FCFS
/// (no prefetch traffic to schedule); the prefetching modes run with
/// and without the run-time layer and under both interesting policies.
const CONFIGS: [ConfigSpec; 4] = [
    ConfigSpec {
        name: "orig+fcfs",
        mode: Mode::Original,
        policy: SchedPolicy::Fcfs,
    },
    ConfigSpec {
        name: "pfnf+fcfs",
        mode: Mode::PrefetchNoFilter,
        policy: SchedPolicy::Fcfs,
    },
    ConfigSpec {
        name: "pf+fcfs",
        mode: Mode::Prefetch,
        policy: SchedPolicy::Fcfs,
    },
    ConfigSpec {
        name: "pf+dprio",
        mode: Mode::Prefetch,
        policy: SchedPolicy::DemandPriority,
    },
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

/// Canonical per-cell configuration (before compare overrides).
fn cell_config(kernel: &Kernel, spec: &ConfigSpec) -> Config {
    let mut cfg = Config::default_platform();
    cfg.metrics = true;
    let mem_mb = match kernel {
        Kernel::Nas(_) => 2,
        Kernel::Ook { mem_mb, .. } => *mem_mb,
    };
    cfg.machine = cfg.machine.with_memory_bytes(mem_mb * 1024 * 1024);
    cfg.machine.sched = cfg.machine.sched.with_policy(spec.policy);
    cfg
}

/// Execute one matrix cell; a nonzero `trace_cap` additionally
/// captures the event timeline for span alignment, `profile` the
/// host-time attribution.
fn run_cell(
    kernel: &Kernel,
    spec: &ConfigSpec,
    overrides: &Overrides,
    trace_cap: usize,
    profile: bool,
) -> Result<RunOutput, String> {
    let mut cfg = cell_config(kernel, spec);
    overrides.apply(&mut cfg);
    let run = RunSpec::new(&cfg, spec.mode)
        .trace(trace_cap)
        .profile(profile);
    let out = kernel.run(&run);
    if let Err(e) = &out.result.verified {
        return Err(format!(
            "{}/{} failed to verify: {e}",
            kernel.name(),
            spec.name
        ));
    }
    // A matrix cell must also flush its dirty pages cleanly — a typed
    // FlushError here means the final writeback lost data, which is a
    // correctness failure, not a perf number.
    if let Some(f) = &out.result.flush {
        return Err(format!("{}/{}: {f}", kernel.name(), spec.name));
    }
    Ok(out)
}

/// Stamp the wall-clock-derived simulation throughput (simulated ns per
/// host second) on a freshly distilled cell. Noisy by nature — the
/// `simthroughput.*` allowance band is deliberately wide.
fn stamp_throughput(run: &mut BaselineRun, sim_ns: u64, host: std::time::Duration) {
    let secs = host.as_secs_f64().max(1e-9);
    run.sim_throughput = Some((sim_ns as f64 / secs) as u64);
}

/// Number of top self-time sites stamped into a profiled capture.
const PROFILE_TOP_SITES: usize = 5;

/// Re-run one matrix cell under the host-time profiler and distill the
/// compact summary stamped into a v3 baseline. This is a *second* run,
/// separate from the timed one, so probe overhead never leaks into the
/// (gated, if widely allowed) `sim_throughput`; the profiled run's
/// sim-visible state is bit-identical to the detached run by
/// construction, so the profile annotates exactly the cell it rode on.
fn profile_cell(kernel: &Kernel, spec: &ConfigSpec) -> Result<ProfileSummary, String> {
    let prof = run_cell(kernel, spec, &Overrides::default(), 0, true)?
        .profile
        .expect("a profiled run carries its profile");
    Ok(ProfileSummary {
        total_host_ns: prof.total_ns(),
        sites: prof
            .top_self(PROFILE_TOP_SITES)
            .into_iter()
            .map(|r| (r.path, r.self_ns))
            .collect(),
    })
}

/// Run the whole (possibly filtered) matrix and distill baseline runs.
/// With `profile`, each single-kernel cell gets a second, profiled run
/// whose summary is stamped as the report-only v3 `profile` block.
fn run_matrix(
    only: &Option<String>,
    overrides: &Overrides,
    profile: bool,
) -> Result<Vec<BaselineRun>, String> {
    let mut runs = Vec::new();
    for kernel in Kernel::all().iter().filter(|k| selected(k, only)) {
        for spec in &CONFIGS {
            let started = std::time::Instant::now();
            let r = run_cell(kernel, spec, overrides, 0, false)?.result;
            let host = started.elapsed();
            eprintln!(
                "  ran {:<14} {:<10} elapsed {}s",
                kernel.name(),
                spec.name,
                secs(r.total())
            );
            let mut run = report::baseline_run(&kernel.name(), spec.name, &r);
            stamp_throughput(&mut run, r.total(), host);
            if profile {
                run.profile = Some(profile_cell(kernel, spec)?);
            }
            runs.push(run);
        }
    }
    // The multi-tenant cells ride on their own canonical platform, so
    // they are skipped whenever compare overrides retune the scheduler.
    if !overrides.any() {
        runs.extend(tenant_runs(only)?);
        runs.extend(policy_runs(only)?);
        runs.extend(redundancy_runs(only)?);
    }
    if runs.is_empty() {
        return Err(match only {
            Some(f) => format!("--only {f} matches no kernel"),
            None => "matrix produced no runs".to_string(),
        });
    }
    Ok(runs)
}

fn selected(kernel: &Kernel, only: &Option<String>) -> bool {
    match only {
        None => true,
        Some(f) => kernel.name().to_lowercase().contains(&f.to_lowercase()),
    }
}

/// Co-scheduling widths of the multi-tenant trajectory cells.
const TENANT_WIDTHS: [usize; 2] = [4, 16];

/// Whether the multi-tenant pseudo-kernel passes the `--only` filter.
fn tenants_selected(only: &Option<String>) -> bool {
    match only {
        None => true,
        Some(f) => mt::KERNEL.contains(&f.to_lowercase()),
    }
}

/// The multi-tenant trajectory cells: `tenants/co4` and `tenants/co16`
/// on the canonical co-scheduling platform. These pin down the fairness
/// surface (worst per-tenant p95 demand stall, per-reason hint drops,
/// quota evictions) next to the single-tenant matrix, so a scheduler or
/// arbiter change that shifts multi-tenant behaviour trips the same
/// gate as a single-tenant regression. Scheduler overrides (`--sched`,
/// `--queue-depth`) deliberately do not apply: the tenant platform is
/// its own canonical configuration.
fn tenant_runs(only: &Option<String>) -> Result<Vec<BaselineRun>, String> {
    if !tenants_selected(only) {
        return Ok(Vec::new());
    }
    let cfg = mt::platform();
    let mut solos = HashMap::new();
    let mut runs = Vec::new();
    for &n in &TENANT_WIDTHS {
        let opts = mt::CoOptions {
            metrics: true,
            ..Default::default()
        };
        let started = std::time::Instant::now();
        let cell =
            mt::co_run(&cfg, n, &opts, &mut solos).map_err(|e| format!("tenants/co{n}: {e}"))?;
        let host = started.elapsed();
        if let Err(e) = &cell.verified {
            return Err(format!("tenants/co{n} failed to verify: {e}"));
        }
        eprintln!(
            "  ran {:<14} {:<10} elapsed {}s",
            mt::KERNEL,
            format!("co{n}"),
            secs(cell.hub.elapsed_ns)
        );
        let mut run = mt::tenant_baseline_run(&format!("co{n}"), &cell);
        stamp_throughput(&mut run, cell.hub.elapsed_ns, host);
        runs.push(run);
    }
    Ok(runs)
}

/// Pseudo-kernel name of the prefetch-policy trajectory cells.
const POLICY_KERNEL: &str = "ablations";

/// Whether the policy pseudo-kernel passes the `--only` filter.
fn policy_selected(only: &Option<String>) -> bool {
    match only {
        None => true,
        Some(f) => POLICY_KERNEL.contains(&f.to_lowercase()),
    }
}

/// The prefetch-policy trajectory cells: `ablations/readahead` (EMBAR
/// with no compiler hints, the reactive readahead policy alone) and
/// `ablations/adaptive` (EMBAR with compiler hints plus the online
/// distance controller). These pin down the policy subsystem's
/// surface — injected page counts, window peak, retunes, and the
/// late-arrival rate — so a policy change trips the gate like any
/// other regression, while the `CompilerOnly` default leaves every
/// pre-existing cell bit-identical. Like the tenant cells, they skip
/// compare runs with scheduler overrides.
fn policy_runs(only: &Option<String>) -> Result<Vec<BaselineRun>, String> {
    if !policy_selected(only) {
        return Ok(Vec::new());
    }
    let cells = [
        ("readahead", Mode::Original, PolicyKind::Readahead),
        ("adaptive", Mode::Prefetch, PolicyKind::AdaptiveDistance),
    ];
    let mut runs = Vec::new();
    for (name, mode, kind) in cells {
        let mut cfg = cell_config(&Kernel::Nas(App::Embar), &CONFIGS[0]);
        cfg.machine = cfg.machine.with_prefetch_policy(kind);
        let w = build(App::Embar, cfg.bytes_for_ratio(2.0));
        let started = std::time::Instant::now();
        let r = run_workload(&w, &cfg, mode);
        let host = started.elapsed();
        if let Err(e) = &r.verified {
            return Err(format!("{POLICY_KERNEL}/{name} failed to verify: {e}"));
        }
        if let Some(f) = &r.flush {
            return Err(format!("{POLICY_KERNEL}/{name}: {f}"));
        }
        eprintln!(
            "  ran {POLICY_KERNEL:<14} {name:<10} elapsed {}s",
            secs(r.total())
        );
        let mut run = report::baseline_run(POLICY_KERNEL, name, &r);
        stamp_throughput(&mut run, r.total(), host);
        runs.push(run);
    }
    Ok(runs)
}

/// Pseudo-kernel name of the disk-redundancy trajectory cells.
const REDUNDANCY_KERNEL: &str = "redundancy";

/// Seed of the redundancy cells' fault plans. Deaths are scheduled
/// deterministically (fractions of the fault-free elapsed time), so the
/// seed only feeds the plan's unused probabilistic knobs.
const REDUNDANCY_FAULT_SEED: u64 = 0x0d15_0dea;

/// Whether the redundancy pseudo-kernel passes the `--only` filter.
fn redundancy_selected(only: &Option<String>) -> bool {
    match only {
        None => true,
        Some(f) => REDUNDANCY_KERNEL.contains(&f.to_lowercase()),
    }
}

/// The disk-redundancy trajectory cells, all EMBAR under rotating
/// parity: `redundancy/parity` (fault-free, pinning the write-path
/// parity overhead), `redundancy/degraded` (demand-paged with a disk
/// death a third of the way in — degraded demand reads and hedging),
/// and `redundancy/rebuild` (prefetching with an early death — hint
/// rerouting and the online rebuild racing the app). The simulator is
/// deterministic, so each death point is anchored to the cell's own
/// fault-free elapsed time. The `--redundancy none` default leaves
/// every pre-existing cell bit-identical; like the tenant and policy
/// cells, these skip compare runs with scheduler overrides.
fn redundancy_runs(only: &Option<String>) -> Result<Vec<BaselineRun>, String> {
    if !redundancy_selected(only) {
        return Ok(Vec::new());
    }
    // (cell, mode, death point as a fraction of the fault-free total).
    let cells = [
        ("parity", Mode::Prefetch, None),
        ("degraded", Mode::Original, Some((1u64, 3u64))),
        ("rebuild", Mode::Prefetch, Some((1, 4))),
    ];
    let mut runs = Vec::new();
    for (name, mode, death) in cells {
        let mut cfg = cell_config(&Kernel::Nas(App::Embar), &CONFIGS[0]);
        cfg.machine = cfg.machine.with_redundancy(Redundancy::Parity);
        let w = build(App::Embar, cfg.bytes_for_ratio(2.0));
        let plan = death.map(|(num, den)| {
            let base = run_workload(&w, &cfg, mode);
            let at = (base.total() * num / den).max(1);
            FaultPlan::none(REDUNDANCY_FAULT_SEED).with_disk_death(DiskDeath { disk: 1, at })
        });
        let started = std::time::Instant::now();
        let mut run = RunSpec::new(&cfg, mode);
        if let Some(p) = &plan {
            run = run.faults(p);
        }
        let r = run.run(&w).result;
        let host = started.elapsed();
        if let Err(e) = &r.verified {
            return Err(format!("{REDUNDANCY_KERNEL}/{name} failed to verify: {e}"));
        }
        if let Some(f) = &r.flush {
            return Err(format!("{REDUNDANCY_KERNEL}/{name}: {f}"));
        }
        eprintln!(
            "  ran {REDUNDANCY_KERNEL:<14} {name:<10} elapsed {}s",
            secs(r.total())
        );
        let mut run = report::baseline_run(REDUNDANCY_KERNEL, name, &r);
        stamp_throughput(&mut run, r.total(), host);
        runs.push(run);
    }
    Ok(runs)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    oocp_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn capture(o: &Options) -> Result<(), String> {
    eprintln!(
        "perfgate: capturing baseline (matrix of 13 kernels x 4 configs \
         + {} multi-tenant cells + 2 prefetch-policy cells + 3 redundancy cells)",
        TENANT_WIDTHS.len()
    );
    let runs = run_matrix(&o.only, &Overrides::default(), o.profile)?;
    // Baseline-level whylate: the sum of the per-cell cause vectors, so
    // the trajectory answers "why are prefetches late overall" at a
    // glance without re-summing 58 cells.
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
    // Report the document's own schema tag (v1 and v2 both parse).
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

fn fmt_value(metric: &str, v: u64) -> String {
    if metric.ends_with("_ns") || metric.contains(".p") {
        format!("{}s", secs(v))
    } else {
        v.to_string()
    }
}

fn print_finding(f: &Finding) {
    let tag = match f.kind {
        DriftKind::Regression => "regressed",
        DriftKind::Improvement => "improved",
        DriftKind::Shift => "shifted",
    };
    let allowed = if f.allowed { " [allowed]" } else { "" };
    // A relative percentage over a zero base is noise; say "from zero".
    let delta = if f.old == 0 {
        "from 0".to_string()
    } else if f.new == 0 {
        "to 0".to_string()
    } else {
        format!("{:+.1}%", f.pct())
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
    let (kname, cname) = key.split_once('/').ok_or("malformed cell key")?;
    let kernel = *Kernel::all()
        .iter()
        .find(|k| k.name() == kname)
        .ok_or_else(|| format!("unknown kernel {kname}"))?;
    let spec = *CONFIGS
        .iter()
        .find(|c| c.name == cname)
        .ok_or_else(|| format!("unknown config {cname}"))?;
    let traced =
        |overrides| run_cell(&kernel, &spec, overrides, TRACE_CAP, false).map(|out| out.trace);
    let (base_trace, cur_trace) = (traced(&Overrides::default())?, traced(&o.overrides)?);
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
    // positionally invisible to the metric zip, so re-deriving it here
    // would only slow the gate down.
    let current = run_matrix(&o.only, &o.overrides, false)?;
    // Cells excluded by --only are out of scope, not missing; likewise
    // the multi-tenant cells whenever overrides retune the scheduler
    // (they run their own canonical platform and are not re-run then).
    let scoped = Baseline {
        runs: base
            .runs
            .iter()
            .filter(|r| {
                if r.kernel == mt::KERNEL {
                    return tenants_selected(&o.only) && !o.overrides.any();
                }
                if r.kernel == POLICY_KERNEL {
                    return policy_selected(&o.only) && !o.overrides.any();
                }
                if r.kernel == REDUNDANCY_KERNEL {
                    return redundancy_selected(&o.only) && !o.overrides.any();
                }
                Kernel::all()
                    .iter()
                    .any(|k| k.name() == r.kernel && selected(k, &o.only))
            })
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
