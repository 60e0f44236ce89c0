//! `profile` — run one kernel/config cell under the host-time profiler.
//!
//! Where the simulator's own attribution answers "where did *simulated*
//! time go" (Figure 5), this binary answers the complementary systems
//! question: where does the *host* spend wall-clock time while running
//! a cell — which interpreter site (kernel → loop nest → statement →
//! opcode class) and which machine-side path (residency check, ledger,
//! journal, sampler) burns the cycles. That attribution is what decides
//! whether a bytecode-compilation push is worth building and, later,
//! whether it paid off.
//!
//! Modes:
//!
//! * `profile KERNEL` — run a NAS kernel (by name) or a `.ook` file
//!   under the profiler; print the top self-time sites and write
//!   `<out>.prof` (JSON site tree) plus `<out>.collapsed`
//!   (inferno-compatible collapsed stacks, one `path;frames self_ns`
//!   line per site).
//! * `profile --diff A.prof B.prof` — align two captures by full site
//!   path and print per-site self-time deltas, largest mover first:
//!   the before/after view of an interpreter optimization.
//!
//! The profiled run's sim-visible state is bit-identical to a detached
//! run (tests/proptest_prof.rs holds that line), so the profile always
//! describes the run it rode on.
//!
//! Exit status: 0 ok, 2 usage or I/O error.

use std::process::ExitCode;

use oocp_bench::{secs, Config, Mode, RunSpec};
use oocp_ir::parse_program;
use oocp_nas::{build, App};
use oocp_obs::prof::{diff, Profile};
use oocp_os::SchedPolicy;

struct Options {
    kernel: Option<String>,
    diff: Option<(String, String)>,
    mode: Mode,
    sched: SchedPolicy,
    mem_mb: u64,
    out: Option<String>,
    top: usize,
    params: Vec<i64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: profile KERNEL [--mode orig|pfnf|pf] [--sched fcfs|...] [--mem-mb N]\n\
         \x20               [--param N]... [--out PREFIX] [--top N]\n\
         \x20      profile --diff A.prof B.prof [--top N]\n\
         KERNEL is a NAS kernel name (EMBAR, BUK, ...) or a path to a .ook file"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut o = Options {
        kernel: None,
        diff: None,
        mode: Mode::Prefetch,
        sched: SchedPolicy::Fcfs,
        mem_mb: 2,
        out: None,
        top: 10,
        params: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    let mut diff_files: Vec<String> = Vec::new();
    let mut in_diff = false;
    while let Some(a) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--diff" => in_diff = true,
            "--mode" => {
                o.mode = match value().as_str() {
                    "orig" => Mode::Original,
                    "pfnf" => Mode::PrefetchNoFilter,
                    "pf" => Mode::Prefetch,
                    _ => usage(),
                }
            }
            "--sched" => o.sched = SchedPolicy::parse(&value()).unwrap_or_else(|| usage()),
            "--mem-mb" => o.mem_mb = value().parse().unwrap_or_else(|_| usage()),
            "--param" => o.params.push(value().parse().unwrap_or_else(|_| usage())),
            "--out" => o.out = Some(value()),
            "--top" => o.top = value().parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            p if !p.starts_with('-') => {
                if in_diff {
                    diff_files.push(p.to_string());
                } else if o.kernel.is_none() {
                    o.kernel = Some(p.to_string());
                } else {
                    usage();
                }
            }
            _ => usage(),
        }
    }
    if in_diff {
        if diff_files.len() != 2 {
            usage();
        }
        o.diff = Some((diff_files[0].clone(), diff_files[1].clone()));
    }
    if o.kernel.is_some() == o.diff.is_some() {
        usage();
    }
    o
}

/// Run the named cell under the profiler; returns the capture.
fn run_profiled(o: &Options) -> Result<Profile, String> {
    let name = o.kernel.as_deref().unwrap();
    let mut cfg = Config::default_platform();
    cfg.metrics = true;
    cfg.machine = cfg.machine.with_memory_bytes(o.mem_mb * 1024 * 1024);
    cfg.machine.sched = cfg.machine.sched.with_policy(o.sched);
    let run = RunSpec::new(&cfg, o.mode).profile(true);
    let out = match App::ALL
        .iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
    {
        Some(app) => run.run(&build(*app, cfg.bytes_for_ratio(2.0))),
        None => {
            let src =
                std::fs::read_to_string(name).map_err(|e| format!("cannot read {name}: {e}"))?;
            let prog = parse_program(&src).map_err(|e| format!("{name}: {e}"))?;
            run.run_ir(&prog, &o.params)
        }
    };
    if let Err(e) = &out.result.verified {
        return Err(format!("{name} failed to verify: {e}"));
    }
    eprintln!(
        "profiled {name} ({}): sim {}s",
        o.mode.label(),
        secs(out.result.total())
    );
    Ok(out.profile.expect("a profiled run carries its profile"))
}

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64 * 100.0
    }
}

fn print_top(p: &Profile, n: usize) {
    let total = p.total_ns();
    println!("host total: {} ns", total);
    println!(
        "{:<52} {:>14} {:>7} {:>12}",
        "site (self time)", "self ns", "%", "calls"
    );
    for r in p.top_self(n) {
        println!(
            "{:<52} {:>14} {:>6.1}% {:>12}",
            r.path,
            r.self_ns,
            pct(r.self_ns, total),
            r.count
        );
    }
}

fn capture(o: &Options) -> Result<(), String> {
    let prof = run_profiled(o)?;
    print_top(&prof, o.top);
    if let Some(prefix) = &o.out {
        let json_path = format!("{prefix}.prof");
        let coll_path = format!("{prefix}.collapsed");
        std::fs::write(&json_path, prof.to_json().to_string())
            .map_err(|e| format!("cannot write {json_path}: {e}"))?;
        let collapsed = prof.collapsed();
        // Never emit a dump the validator would reject.
        oocp_obs::check_collapsed(&collapsed)
            .map_err(|e| format!("collapsed self-check failed: {e}"))?;
        std::fs::write(&coll_path, collapsed)
            .map_err(|e| format!("cannot write {coll_path}: {e}"))?;
        println!("wrote {json_path} and {coll_path}");
    }
    Ok(())
}

fn diff_mode(a_path: &str, b_path: &str, top: usize) -> Result<(), String> {
    let read = |p: &str| -> Result<Profile, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        Profile::parse_text(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    println!(
        "diff {a_path} ({} ns) -> {b_path} ({} ns): total {:+} ns",
        a.total_ns(),
        b.total_ns(),
        b.total_ns() as i64 - a.total_ns() as i64
    );
    let rows = diff(&a, &b);
    println!(
        "{:<52} {:>14} {:>14} {:>14}",
        "site", "a self ns", "b self ns", "delta"
    );
    for r in rows.iter().take(top) {
        println!(
            "{:<52} {:>14} {:>14} {:>+14}",
            r.path,
            r.a_self_ns,
            r.b_self_ns,
            r.delta()
        );
    }
    if rows.len() > top {
        println!("... and {} more sites", rows.len() - top);
    }
    Ok(())
}

fn main() -> ExitCode {
    let o = parse_args();
    let outcome = match &o.diff {
        Some((a, b)) => diff_mode(a, b, o.top),
        None => capture(&o),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("profile: {e}");
            ExitCode::from(2)
        }
    }
}
