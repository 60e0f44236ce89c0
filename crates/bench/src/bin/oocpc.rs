//! `oocpc` — the out-of-core prefetching compiler driver.
//!
//! Parses a kernel source file (see `oocp_ir::parse` for the language),
//! runs the prefetching pass, prints the transformed program and the
//! compile report, and optionally executes both versions on the
//! simulated machine to compare them.
//!
//! ```console
//! $ oocpc kernels/stencil.ook --run --mem-mb 4
//! $ oocpc mykernel.ook --param n=100000 --block 8 --two-version
//! ```

use std::process::ExitCode;

use oocp_bench::{Config, Mode, RunSpec};
use oocp_core::compile;
use oocp_ir::{parse_program, Program};
use oocp_os::{chrome_trace_json, MachineParams, PolicyKind};
use oocp_sim::time::fmt_ns;

struct Options {
    file: String,
    run: bool,
    quiet: bool,
    trace: usize,
    trace_out: Option<String>,
    mem_mb: u64,
    block: u64,
    two_version: bool,
    policy: PolicyKind,
    params: Vec<(String, i64)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: oocpc <file> [--run] [--quiet] [--trace N] [--trace-out FILE] \
         [--mem-mb N] [--block N] [--two-version] [--policy <name>] \
         [--param name=value]..."
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        file: String::new(),
        run: false,
        quiet: false,
        trace: 0,
        trace_out: None,
        mem_mb: 8,
        block: 4,
        two_version: false,
        policy: PolicyKind::CompilerOnly,
        params: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--run" => opts.run = true,
            "--quiet" => opts.quiet = true,
            "--two-version" => opts.two_version = true,
            "--mem-mb" => {
                opts.mem_mb = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                opts.trace = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--trace-out" => opts.trace_out = Some(argv.next().unwrap_or_else(|| usage())),
            "--policy" => {
                let v = argv.next().unwrap_or_else(|| usage());
                opts.policy = PolicyKind::parse(&v).unwrap_or_else(|| {
                    eprintln!("oocpc: unknown prefetch policy {v}");
                    usage()
                });
            }
            "--block" => {
                opts.block = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--param" => {
                let kv = argv.next().unwrap_or_else(|| usage());
                let (k, v) = kv.split_once('=').unwrap_or_else(|| usage());
                let v: i64 = v.parse().unwrap_or_else(|_| usage());
                opts.params.push((k.to_string(), v));
            }
            "--help" | "-h" => usage(),
            f if opts.file.is_empty() && !f.starts_with('-') => opts.file = f.to_string(),
            _ => usage(),
        }
    }
    if opts.file.is_empty() {
        usage();
    }
    opts
}

fn bind_params(prog: &Program, given: &[(String, i64)]) -> Result<Vec<i64>, String> {
    let mut values = vec![None; prog.params.len()];
    for (k, v) in given {
        match prog.params.iter().position(|p| p == k) {
            Some(i) => values[i] = Some(*v),
            None => return Err(format!("program has no parameter {k}")),
        }
    }
    values
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.ok_or_else(|| format!("missing --param {}=<value>", prog.params[i])))
        .collect()
}

fn main() -> ExitCode {
    let opts = parse_args();
    let src = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("oocpc: cannot read {}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };
    let prog = match parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("oocpc: {}:{e}", opts.file);
            return ExitCode::FAILURE;
        }
    };
    let Some(mem_bytes) = opts.mem_mb.checked_mul(1024 * 1024) else {
        usage()
    };
    let mut cfg = Config::default_platform();
    cfg.machine = MachineParams::paper_platform()
        .with_memory_bytes(mem_bytes)
        .with_prefetch_policy(opts.policy);
    let cparams = cfg
        .compiler_params()
        .with_block_pages(opts.block)
        .with_two_version(opts.two_version);
    let (xformed, report) = compile(&prog, &cparams);

    if !opts.quiet {
        println!("=== source ===\n{prog}");
        println!("=== transformed ===\n{xformed}");
    }
    println!("{report}");

    if !opts.run {
        return ExitCode::SUCCESS;
    }
    let pvals = match bind_params(&prog, &opts.params) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("oocpc: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "running on {} MB memory, {} disks, data set {:.1} MB",
        cfg.machine.memory_bytes() / (1 << 20),
        cfg.machine.ndisks,
        prog.data_bytes() as f64 / (1 << 20) as f64
    );
    // `--trace-out` needs a ring deep enough to hold the whole run, not
    // just the tail the `--trace N` printout shows.
    let trace_cap = if opts.trace_out.is_some() {
        opts.trace.max(1 << 16)
    } else {
        opts.trace
    };
    let mut totals = Vec::new();
    for (label, mode) in [("original", Mode::Original), ("prefetch", Mode::Prefetch)] {
        let out = RunSpec::new(&cfg, mode)
            .compiler(cparams)
            .trace(trace_cap)
            .run_ir(&prog, &pvals);
        let r = out.result;
        if let Some(f) = &r.flush {
            eprintln!("oocpc: {label} run: {f}");
            return ExitCode::FAILURE;
        }
        if let Some(trace) = out.trace {
            if opts.trace > 0 {
                println!(
                    "--- {label} timeline (last {} events, {} older dropped) ---",
                    trace.len(),
                    trace.dropped()
                );
                for r in &trace {
                    println!("  {:>12} {:<6} {:?}", fmt_ns(r.at), r.event.tag(), r.event);
                }
            }
            // The prefetch run is the timeline worth inspecting in
            // Perfetto: its spans correlate issue/arrive/consume.
            if label == "prefetch" {
                if let Some(path) = &opts.trace_out {
                    if let Err(e) = std::fs::write(path, chrome_trace_json(&trace)) {
                        eprintln!("oocpc: cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!(
                        "wrote Chrome trace ({} events, {} dropped) to {path}",
                        trace.len(),
                        trace.dropped()
                    );
                }
            }
        }
        println!(
            "  {label:<9}: total {} (user {}, system {}, idle {}) | {} hard faults, coverage {:.1}%",
            fmt_ns(r.total()),
            fmt_ns(r.time.user),
            fmt_ns(r.time.system()),
            fmt_ns(r.time.idle),
            r.os.hard_faults,
            r.os.coverage() * 100.0,
        );
        totals.push(r.total());
    }
    println!("  speedup  : {:.2}x", totals[0] as f64 / totals[1] as f64);
    ExitCode::SUCCESS
}
