//! Explorations of the paper's section-6 future work.
//!
//! **A. In-core adaptivity** (section 4.3.1): "we can generate code that
//! dynamically adapts its behavior by comparing its problem size with
//! the available memory at run-time, and suppressing prefetches (after
//! the cold faults have been prefetched in) if the data fits within
//! memory." Implemented in the run-time layer
//! (`Runtime::with_adaptive`); measured here on warm-started in-core
//! data, where plain prefetching can only add overhead.
//!
//! **B. Multiprogrammed memory pressure**: "applications can adapt
//! their behavior to dynamically fluctuating resource availability, and
//! we will make more extensive use of release operations to minimize
//! memory consumption." Modeled with a pressure schedule that halves
//! the application's frames mid-run and later returns them; we compare
//! paging, prefetching, and prefetching with aggressive releases.
//!
//! Run: `cargo run --release -p oocp-bench --bin futurework`

use oocp_bench::{pct, run_workload, secs, Args, Mode, RunSpec};
use oocp_core::ReleaseMode;
use oocp_nas::{build, App};
use oocp_sim::time::SECOND;

fn main() {
    let args = Args::parse();
    let mut cfg = args.cfg;

    println!("=== A. in-core adaptivity (warm-started, data ~25% of memory) ===");
    println!("run-time suppression (P-adapt) vs compiler-generated memory test (P-acode)\n");
    println!(
        "{:<8} {:>9} {:>9} {:>10} {:>10} | {:>8} {:>9} {:>9}",
        "app", "O (s)", "P (s)", "P-adapt", "P-acode", "P ovhd", "adapt", "acode"
    );
    cfg.warm = true;
    for app in [App::Buk, App::Cgm, App::Appsp] {
        let w = build(app, cfg.bytes_for_ratio(0.25));
        let o = run_workload(&w, &cfg, Mode::Original);
        let p = run_workload(&w, &cfg, Mode::Prefetch);
        let a = run_workload(&w, &cfg, Mode::PrefetchAdaptive);
        let c = run_workload(&w, &cfg, Mode::PrefetchAdaptiveCode);
        println!(
            "{:<8} {:>9} {:>9} {:>10} {:>10} | {:>8} {:>9} {:>9}",
            app.name(),
            secs(o.total()),
            secs(p.total()),
            secs(a.total()),
            secs(c.total()),
            pct(p.total() as f64 / o.total() as f64 - 1.0),
            pct(a.total() as f64 / o.total() as f64 - 1.0),
            pct(c.total() as f64 / o.total() as f64 - 1.0),
        );
    }
    cfg.warm = false;

    println!("\n=== B. multiprogrammed memory pressure (data ~1.5x memory) ===");
    let frames = cfg.machine.resident_limit;
    println!(
        "memory drops to 40% of {frames} frames during [1s, 6s) and [10s, 15s) of simulated time\n"
    );
    println!(
        "{:<22} {:>10} {:>10} {:>11} {:>12}",
        "configuration", "time (s)", "vs calm", "pf dropped", "avg free"
    );
    for app in [App::Embar, App::Mgrid] {
        println!("{}:", app.name());
        let w = build(app, cfg.bytes_for_ratio(1.5));
        let schedule = || {
            vec![
                (SECOND, frames * 2 / 5),
                (6 * SECOND, frames),
                (10 * SECOND, frames * 2 / 5),
                (15 * SECOND, frames),
            ]
        };
        let calm_o = run_workload(&w, &cfg, Mode::Original);
        let calm_p = run_workload(&w, &cfg, Mode::Prefetch);
        let rows = [
            (
                "  paged VM",
                Mode::Original,
                ReleaseMode::Conservative,
                calm_o.total(),
            ),
            (
                "  prefetch",
                Mode::Prefetch,
                ReleaseMode::Conservative,
                calm_p.total(),
            ),
            (
                "  prefetch+aggr.rel",
                Mode::Prefetch,
                ReleaseMode::Aggressive,
                calm_p.total(),
            ),
        ];
        for (name, mode, rel, calm) in rows {
            let r = RunSpec::new(&cfg, mode)
                .compiler(cfg.compiler_params().with_release_mode(rel))
                .pressure(schedule())
                .run(&w)
                .result;
            if let Err(e) = &r.verified {
                eprintln!("WARNING: {name} failed verification: {e}");
            }
            println!(
                "{:<22} {:>10} {:>9.2}x {:>11} {:>9.0} fr",
                name,
                secs(r.total()),
                r.total() as f64 / calm as f64,
                r.os.prefetch_pages_dropped,
                r.avg_free_frames,
            );
        }
    }
    println!(
        "\n(vs calm = slowdown relative to the same configuration with stable memory;\n\
         releases keep frames free, softening the pressure and helping the neighbor)"
    );
}
