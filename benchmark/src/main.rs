//! `oocp-benchmark`: the repository's benchmark. See `README.md`.

mod cell;
mod host;
mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod suite;
mod tracevm;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// The seed behind the numbers in EXPERIMENTS.md.
const DEFAULT_SEED: u64 = 20260706;

enum Command {
    /// `--workload W`: one run of one workload, one result line.
    Run(String),
    /// No mode flag: all workloads untraced, traced, then the probes.
    Suite,
    /// `--aa`: two sets of runs of the same build, compared.
    Aa,
    /// `--probes`: the layer probes alone.
    Probes,
    /// `--smoke`: every workload at 1/64 scale, all checks on.
    Smoke,
}

struct Args {
    command: Command,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
}

fn usage() -> ! {
    let w = workload::WORKLOADS.join("|");
    eprintln!(
        "usage: oocp-benchmark --workload <{w}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      oocp-benchmark [--seed N] [--seconds S]      all workloads, traces, probes\n\
         \x20      oocp-benchmark --aa [--runs N] [--seed N] [--seconds S]\n\
         \x20      oocp-benchmark --probes | --smoke"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        command: Command::Suite,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        runs: 10,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage()).as_str();
        match flag.as_str() {
            "--workload" => args.command = Command::Run(value().to_string()),
            "--aa" => args.command = Command::Aa,
            "--probes" => args.command = Command::Probes,
            "--smoke" => args.command = Command::Smoke,
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--runs" => args.runs = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if args.runs == 0 || !args.seconds.is_finite() || args.seconds < 0.0 {
        usage();
    }
    args
}

/// One run of one workload: every metric as `name value unit`, then the
/// result line.
fn run_one(name: &str, args: &Args, out_dir: &std::path::Path) -> ExitCode {
    let Some(cells) = workload::cells(name, 1) else {
        usage()
    };
    let opts = run::Options {
        workload: name,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir,
    };
    let outcome = run::run(&cells, &opts);
    for p in &outcome.problems {
        eprintln!("FAILED {p}");
    }
    for m in outcome.metrics.iter().chain(&outcome.report_only) {
        println!("{m}");
    }
    println!("{}", outcome.result_line());
    exit_code(outcome.correct)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    // `benchmark/out`, next to the package, wherever the build went.
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    match &args.command {
        Command::Run(name) => run_one(name, &args, &out_dir),
        Command::Suite => suite::suite(args.seed, args.seconds, &out_dir),
        Command::Aa => suite::aa(args.seed, args.seconds, args.runs),
        Command::Probes => suite::probes_only(),
        Command::Smoke => suite::smoke(&out_dir.join("smoke")),
    }
}
