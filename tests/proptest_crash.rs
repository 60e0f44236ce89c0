//! The crash-recovery oracle.
//!
//! The contract under test: a simulated power loss at *any* point of a
//! run — including one that tears the writes it catches mid-air — may
//! cost durability of the pages the crash cut off, but never
//! correctness of what recovery hands back. Concretely, for every
//! kernel x crash point x torn-write combination:
//!
//! 1. the crashed run stops at the call the power dies under, short of
//!    the program's end (a power loss ends the run),
//! 2. `recover()` completes without panicking and, with the journal
//!    enabled, reports zero unrecoverable pages,
//! 3. an application restart on the recovered machine produces results
//!    bit-identical to a run that never crashed (the write-ahead
//!    journal gives per-page atomicity, not cross-page snapshot
//!    consistency — so restart semantics are the honest oracle).
//!
//! Set `CRASH_ORACLE_QUICK=1` to run a single-kernel smoke profile
//! (used by the CI crash gate's quick pass).

use oocp::os::{CrashPoint, CrashSpec, FaultPlan};
use oocp_bench::{run_workload, Config, Mode, RunSpec};
use oocp_nas::{build, App};

fn apps() -> Vec<App> {
    if std::env::var("CRASH_ORACLE_QUICK").is_ok() {
        vec![App::Embar]
    } else {
        vec![App::Embar, App::Buk, App::Cgm, App::Fft, App::Mgrid]
    }
}

#[test]
fn crash_recover_restart_matches_uncrashed_reference() {
    let mut pinned = Vec::new();
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(1024 * 1024);
    for app in apps() {
        let w = build(app, cfg.bytes_for_ratio(2.0));
        let reference = run_workload(&w, &cfg, Mode::Prefetch);
        reference.verified.as_ref().expect("reference verifies");
        assert!(
            reference.flush.is_none(),
            "{app:?}: the fault-free reference must flush clean"
        );
        let total_ops =
            reference.disk.demand_reads + reference.disk.prefetch_reads + reference.disk.writes;
        assert!(total_ops > 10, "{app:?}: too little I/O to crash into");

        let mut points: Vec<CrashPoint> = [0.5, 0.7, 0.9]
            .iter()
            .map(|f| CrashPoint::AtOp(((total_ops as f64 * f) as u64).max(1)))
            .collect();
        points.push(CrashPoint::AtTime(reference.total() / 2));

        for (i, &point) in points.iter().enumerate() {
            for torn in [false, true] {
                let plan = FaultPlan::none(0xC4A5_0000 + i as u64).with_crash(CrashSpec {
                    point,
                    torn_writes: torn,
                });
                let run = RunSpec::new(&cfg, Mode::Prefetch)
                    .faults(&plan)
                    .crash_recover(&w);
                let tag = format!("{app:?} point {point:?} torn={torn}");

                // The crash engaged: the machine died mid-run.
                assert!(run.recovery.crashed_at > 0, "{tag}: crash never tripped");
                // The power loss ended the run: the crashed leg made
                // fewer accesses than the whole program.
                let accesses = |x: &oocp::ir::ExecStats| x.loads + x.stores;
                assert!(
                    accesses(&run.crashed.result.exec) < accesses(&reference.exec),
                    "{tag}: the crashed leg ran on past the crash"
                );
                // With the journal, every page is recoverable, torn
                // writes included.
                assert_eq!(
                    run.recovery.unrecoverable, 0,
                    "{tag}: unrecoverable pages with the journal on: {:?}",
                    run.recovery
                );
                if torn {
                    // Torn pages may or may not occur (the crash may
                    // catch no write mid-air), but discards + replays
                    // must account for whatever the report claims.
                    assert_eq!(
                        run.recovery.unrecoverable_pages.len(),
                        0,
                        "{tag}: unrecoverable page list disagrees with count"
                    );
                }
                // Recovery work is visible to the perf harness.
                assert_eq!(
                    run.rerun.result.os.recovery_ns, run.recovery.recovery_ns,
                    "{tag}: recovery time not carried into the rerun's counters"
                );
                assert!(run.recovery.recovery_ns > 0, "{tag}: recovery took no time");

                // THE oracle: restart on the recovered machine equals
                // the never-crashed run, bit for bit.
                run.rerun
                    .result
                    .verified
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{tag}: recovered rerun failed to verify: {e}"));
                assert_eq!(
                    run.rerun.result.checksum, reference.checksum,
                    "{tag}: recovered rerun diverged from the uncrashed reference"
                );
                assert!(
                    run.rerun.result.flush.is_none(),
                    "{tag}: the rerun must flush clean"
                );
                if app == App::Embar {
                    let case = format!(
                        "{:?} {} {}",
                        run.recovery, run.recovery.crashed_at, run.rerun.result.checksum
                    );
                    pinned.push(fnv1a(case.as_bytes()));
                }
            }
        }
    }
    // What recovery found, when the power died and what the restart
    // computed, for each of EMBAR's cases in order: where and how a
    // crashed leg ends must not move any of them.
    assert_eq!(pinned, EMBAR_CASES);
}

const EMBAR_CASES: [u64; 8] = [
    3900278629149145978,
    3900278629149145978,
    5810888939782113503,
    5810888939782113503,
    10991920665446891064,
    4094049889588856350,
    3163000105930651803,
    3163000105930651803,
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Crashing at the very first submission recovers to the pristine
/// post-init state and still replays to the reference result. Both
/// legs go through the one run path, so the telemetry sampler rides
/// along: timing-neutral, and filled on the recovered machine too.
#[test]
fn crash_at_first_op_recovers_to_baseline_and_reruns_clean() {
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(1024 * 1024);
    let w = build(App::Embar, cfg.bytes_for_ratio(2.0));
    let reference = run_workload(&w, &cfg, Mode::Prefetch);
    cfg.sampler = Some((1_000_000, 8192));
    let plan = FaultPlan::none(0x00C4_A5FF).with_crash(CrashSpec {
        point: CrashPoint::AtOp(0),
        torn_writes: true,
    });
    let run = RunSpec::new(&cfg, Mode::Prefetch)
        .faults(&plan)
        .crash_recover(&w);
    assert_eq!(run.recovery.unrecoverable, 0);
    assert_eq!(run.recovery.pages_replayed, 0, "nothing was ever written");
    assert_eq!(run.rerun.result.checksum, reference.checksum);
    let telemetry = run
        .rerun
        .result
        .telemetry
        .as_ref()
        .expect("the rerun leg attaches the sampler");
    assert!(
        !telemetry.ring.is_empty(),
        "the rerun leg sampled its time series"
    );
}
