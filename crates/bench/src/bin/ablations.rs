//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! Six sweeps, each isolating one mechanism the paper motivates:
//!
//! 1. **Block-prefetch size** (the paper picks 4 pages "arbitrarily"):
//!    how does B affect the streaming apps?
//! 2. **Two-version loops** (the paper's proposed fix for APPBT's
//!    symbolic-bound coverage loss): coverage and speedup with the fix.
//! 3. **Release policy**: performance and memory footprint across
//!    Off / Conservative / Aggressive.
//! 4. **Disk count** (the "buy more disks for bandwidth" argument of
//!    section 2.1): speedup as the stripe widens.
//! 5. **Prefetch-distance sensitivity**: how wrong can the compiler's
//!    latency estimate be before speedup erodes?
//! 6. **Prefetch policy x kernel**: the pluggable policies of
//!    `oocp-policy` raced against the compiler over all 13 kernels
//!    (8 NAS + 5 `.ook`). Every cell's final checksum must match the
//!    no-prefetch run — policies are timing-only by contract.
//!
//! Run: `cargo run --release -p oocp-bench --bin ablations`
//! CI:  `... --bin ablations -- --smoke` (policy matrix only, 2 kernels).

use oocp_bench::{pct, run_workload, Args, Config, Kernel, Mode, RunResult, RunSpec};
use oocp_core::ReleaseMode;
use oocp_nas::{build, App};
use oocp_os::PolicyKind;

/// The execution mode each policy naturally runs under. The reactive
/// policies (readahead, replay) compete with the compiler from a plain
/// `Original` build — no hints, the policy is the only prefetcher. The
/// hint-extending policies ride on the compiler's `Prefetch` build.
fn policy_mode(kind: PolicyKind) -> Mode {
    match kind {
        PolicyKind::CompilerOnly | PolicyKind::AdaptiveDistance => Mode::Prefetch,
        PolicyKind::Readahead | PolicyKind::HistoryReplay | PolicyKind::Broken => Mode::Original,
    }
}

/// Run one policy-matrix cell and enforce the timing-only contract:
/// the run verifies and its checksum matches the no-prefetch run.
fn policy_cell(k: &Kernel, cfg: &Config, mode: Mode, oracle: Option<u64>) -> RunResult {
    let r = k.run(&RunSpec::new(cfg, mode)).result;
    let policy = r.policy.unwrap_or("compiler");
    if let Err(e) = &r.verified {
        eprintln!("ablation 6: {}/{policy} failed to verify: {e}", k.name());
        std::process::exit(1);
    }
    if let Some(want) = oracle {
        if r.checksum != want {
            eprintln!(
                "ablation 6: {}/{policy} checksum {:#018x} != no-prefetch {want:#018x} — \
                 a policy changed the computed data",
                k.name(),
                r.checksum
            );
            std::process::exit(1);
        }
    }
    r
}

/// Late-arrival rate of a run as a percentage string ("-" when the run
/// issued no prefetches at all).
fn late(r: &RunResult) -> String {
    match &r.obs {
        Some(o) if o.ledger.consumed() > 0 => pct(o.ledger.late_arrival_rate()),
        _ => "-".to_string(),
    }
}

/// Ablation 6: the policy x kernel matrix. Prints speedup over the
/// no-prefetch run and the late-arrival rate for every shippable
/// policy, and dies if any policy breaks the timing-only contract.
fn policy_matrix(args: &Args) {
    println!(
        "{} ablation 6: prefetch policy x kernel (speedup vs no-prefetch | late arrivals) ===",
        if args.smoke { "===" } else { "\n===" }
    );
    print!("{:<14} {:>9}", "kernel", "orig(s)");
    for kind in PolicyKind::MATRIX {
        print!(" {:>17}", kind.name());
    }
    println!();
    // One streaming NAS kernel plus one .ook kernel keeps the CI gate
    // representative of both substrates but quick.
    let in_smoke = |k: &Kernel| matches!(k.name().as_str(), "EMBAR" | "ook:sumreduce");
    for k in Kernel::all()
        .into_iter()
        .filter(|k| !args.smoke || in_smoke(k))
    {
        let mut cfg = args.cfg;
        cfg.metrics = true;
        if let Kernel::Ook { mem_mb, .. } = k {
            cfg.machine = cfg.machine.with_memory_bytes(mem_mb * 1024 * 1024);
        }
        let orig = policy_cell(&k, &cfg, Mode::Original, None);
        print!("{:<14} {:>9.3}", k.name(), orig.total() as f64 / 1e9);
        for kind in PolicyKind::MATRIX {
            let mut c = cfg;
            c.machine = c.machine.with_prefetch_policy(kind);
            let r = policy_cell(&k, &c, policy_mode(kind), Some(orig.checksum));
            print!(
                " {:>10} {:>6}",
                format!("{:.2}x", orig.total() as f64 / r.total() as f64),
                late(&r)
            );
        }
        println!();
    }
    println!("ablation 6: all cells verified; checksums bit-identical to no-prefetch");
}

fn main() {
    let args = Args::parse();
    let cfg = args.cfg;

    // The CI smoke gate runs only the policy matrix (the sweep with a
    // built-in correctness oracle) on a reduced kernel set.
    if args.smoke {
        policy_matrix(&args);
        return;
    }

    println!("=== ablation 1: block-prefetch size (EMBAR + MGRID, speedup vs original) ===");
    println!(
        "{:<8} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "app", "B=1", "B=2", "B=4", "B=8", "B=16"
    );
    for app in [App::Embar, App::Mgrid] {
        let w = build(app, cfg.bytes_for_ratio(args.ratio));
        let o = run_workload(&w, &cfg, Mode::Original);
        let mut cells = Vec::new();
        for b in [1u64, 2, 4, 8, 16] {
            let p = RunSpec::new(&cfg, Mode::Prefetch)
                .compiler(cfg.compiler_params().with_block_pages(b))
                .run(&w)
                .result;
            cells.push(format!("{:.2}x", o.total() as f64 / p.total() as f64));
        }
        println!(
            "{:<8} {:>6} {:>6} {:>6} {:>6} {:>6}",
            app.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4]
        );
    }

    println!("\n=== ablation 2: two-version loops on APPBT (the paper's proposed fix) ===");
    {
        let w = build(App::Appbt, cfg.bytes_for_ratio(args.ratio));
        let o = run_workload(&w, &cfg, Mode::Original);
        let p = run_workload(&w, &cfg, Mode::Prefetch);
        let p2 = run_workload(&w, &cfg, Mode::PrefetchTwoVersion);
        println!(
            "{:<12} {:>9} {:>10} {:>10}",
            "version", "coverage", "speedup", "user time"
        );
        println!(
            "{:<12} {:>9} {:>9.2}x {:>9.1}s",
            "original",
            "-",
            1.0,
            o.time.user as f64 / 1e9
        );
        for (name, r) in [("prefetch", &p), ("two-version", &p2)] {
            println!(
                "{:<12} {:>9} {:>9.2}x {:>9.1}s",
                name,
                pct(r.os.coverage()),
                o.total() as f64 / r.total() as f64,
                r.time.user as f64 / 1e9,
            );
        }
    }

    println!("\n=== ablation 3: release policy (BUK) ===");
    {
        let w = build(App::Buk, cfg.bytes_for_ratio(args.ratio));
        let o = run_workload(&w, &cfg, Mode::Original);
        println!(
            "{:<14} {:>9} {:>12} {:>12}",
            "policy", "speedup", "avg free", "writebacks"
        );
        for (name, mode) in [
            ("off", ReleaseMode::Off),
            ("conservative", ReleaseMode::Conservative),
            ("aggressive", ReleaseMode::Aggressive),
        ] {
            let p = RunSpec::new(&cfg, Mode::Prefetch)
                .compiler(cfg.compiler_params().with_release_mode(mode))
                .run(&w)
                .result;
            println!(
                "{:<14} {:>8.2}x {:>9.0} fr {:>12}",
                name,
                o.total() as f64 / p.total() as f64,
                p.avg_free_frames,
                p.os.writebacks,
            );
        }
    }

    println!("\n=== ablation 4: disk count (EMBAR, bandwidth scaling) ===");
    {
        println!(
            "{:<7} {:>10} {:>10} {:>9} {:>10}",
            "disks", "O (s)", "P (s)", "speedup", "P util"
        );
        for disks in [1usize, 2, 4, 7, 14] {
            let mut c = cfg;
            c.machine = c.machine.with_ndisks(disks);
            let w = build(App::Embar, c.bytes_for_ratio(args.ratio));
            let o = run_workload(&w, &c, Mode::Original);
            let p = run_workload(&w, &c, Mode::Prefetch);
            println!(
                "{:<7} {:>10.3} {:>10.3} {:>8.2}x {:>10}",
                disks,
                o.total() as f64 / 1e9,
                p.total() as f64 / 1e9,
                o.total() as f64 / p.total() as f64,
                pct(p.disk_util),
            );
        }
    }

    println!("\n=== ablation 5: prefetch-distance sensitivity (CGM, latency estimate scaling) ===");
    {
        let w = build(App::Cgm, cfg.bytes_for_ratio(args.ratio));
        let o = run_workload(&w, &cfg, Mode::Original);
        println!("{:<10} {:>9} {:>10}", "scale", "speedup", "coverage");
        for scale in [0.25f64, 0.5, 1.0, 2.0, 4.0] {
            let mut cp = cfg.compiler_params();
            cp.fault_latency_ns = (cp.fault_latency_ns as f64 * scale) as u64;
            let p = RunSpec::new(&cfg, Mode::Prefetch)
                .compiler(cp)
                .run(&w)
                .result;
            println!(
                "{:<10} {:>8.2}x {:>10}",
                format!("{scale}x"),
                o.total() as f64 / p.total() as f64,
                pct(p.os.coverage()),
            );
        }
    }

    policy_matrix(&args);
}
