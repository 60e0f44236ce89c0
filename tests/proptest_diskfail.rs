//! The whole-disk-death oracle.
//!
//! The contract under test: on a rotating-parity array, losing an
//! entire disk at *any* point of a run may cost time — degraded
//! survivor fan-outs, rebuild contention, hedged tails — but never
//! correctness. Concretely, for every kernel x death-time x
//! mode/policy combination:
//!
//! 1. the run completes, verifies, and flushes clean,
//! 2. its final data is bit-identical to the fault-free reference,
//! 3. the degraded machinery actually engaged (the death was not
//!    silently ignored) and the rebuild verify sweep saw no latent
//!    parity corruption.
//!
//! Two deliberate edges ride along: a crash *during* the online
//! rebuild (recovery re-derives parity wholesale and the restart still
//! matches the never-crashed reference) and a second death while the
//! array is already holed (typed data loss, never silent corruption).
//!
//! Set `DISKFAIL_ORACLE_QUICK=1` to run a single-kernel smoke profile
//! (used by the CI disk-death gate's quick pass).

use oocp::os::{
    CrashPoint, CrashSpec, DiskDeath, FaultPlan, Machine, MachineParams, OsError, PolicyKind,
    Redundancy,
};
use oocp_bench::{run_workload, Config, Mode, RunResult, RunSpec};
use oocp_nas::{build, App};

fn quick() -> bool {
    std::env::var("DISKFAIL_ORACLE_QUICK").is_ok()
}

fn apps() -> Vec<App> {
    if quick() {
        vec![App::Embar]
    } else {
        vec![App::Embar, App::Buk, App::Cgm, App::Fft, App::Mgrid]
    }
}

/// The canonical parity platform of this suite: the default seven-disk
/// array, 1 MiB of memory, rotating parity on.
fn parity_config() -> Config {
    let mut cfg = Config::default_platform();
    cfg.machine = cfg
        .machine
        .with_memory_bytes(1024 * 1024)
        .with_redundancy(Redundancy::Parity);
    cfg
}

/// Death points as fractions of the fault-free elapsed time, with the
/// disk each one takes out. The early point makes the rebuild overlap
/// most of the run (death *during* rebuild is the common case, not the
/// edge); the late one kills the array after the working set has
/// mostly gone through — possibly after the kernel's *last* access to
/// that disk, so it only pins bit-identity, not engagement.
fn death_points(total: u64) -> Vec<(u64, usize, bool)> {
    let fracs: &[(u64, u64, usize, bool)] = if quick() {
        &[(1, 20, 1, true), (1, 2, 2, true)]
    } else {
        &[(1, 20, 1, true), (1, 2, 2, true), (9, 10, 4, false)]
    };
    fracs
        .iter()
        .map(|&(num, den, disk, engage)| ((total * num / den).max(1), disk, engage))
        .collect()
}

fn check_survival(r: &RunResult, reference: &RunResult, expect_engaged: bool, tag: &str) {
    r.verified
        .as_ref()
        .unwrap_or_else(|e| panic!("{tag}: failed to verify: {e}"));
    assert!(r.flush.is_none(), "{tag}: dirty pages lost at flush");
    assert_eq!(
        r.checksum, reference.checksum,
        "{tag}: a disk death changed the results"
    );
    // The death must have been *survived*, not missed: some degraded
    // machinery engaged (which paths depend on mode and timing).
    if expect_engaged {
        let engaged = r.os.degraded_reads + r.os.hints_rerouted_degraded + r.os.rebuild_rows;
        assert!(engaged > 0, "{tag}: the death never engaged the array");
    }
    assert_eq!(
        r.os.rebuild_verify_mismatches, 0,
        "{tag}: rebuild verify saw parity corruption in a corruption-free run"
    );
}

/// THE oracle: every kernel, death point, and execution mode/policy
/// produces results bit-identical to the fault-free reference.
#[test]
fn disk_death_is_bit_identical_to_fault_free_reference() {
    let cfg = parity_config();
    // Demand-paged exercises degraded *demand* reads and hedging;
    // prefetching exercises hint rerouting; the adaptive-distance
    // policy stacks injected traffic on top of the compiler's.
    let cells: &[(Mode, PolicyKind)] = if quick() {
        &[
            (Mode::Original, PolicyKind::CompilerOnly),
            (Mode::Prefetch, PolicyKind::CompilerOnly),
        ]
    } else {
        &[
            (Mode::Original, PolicyKind::CompilerOnly),
            (Mode::Prefetch, PolicyKind::CompilerOnly),
            (Mode::Prefetch, PolicyKind::AdaptiveDistance),
        ]
    };
    for app in apps() {
        let w = build(app, cfg.bytes_for_ratio(2.0));
        let reference = run_workload(&w, &cfg, Mode::Prefetch);
        reference.verified.as_ref().expect("reference verifies");
        assert!(
            reference.flush.is_none(),
            "{app:?}: the fault-free parity reference must flush clean"
        );
        for &(mode, kind) in cells {
            let mut c = cfg;
            c.machine = c.machine.with_prefetch_policy(kind);
            for (i, &(at, disk, engage)) in death_points(reference.total()).iter().enumerate() {
                let plan =
                    FaultPlan::none(0xD15F_0000 + i as u64).with_disk_death(DiskDeath { disk, at });
                let r = RunSpec::new(&c, mode).faults(&plan).run(&w).result;
                let tag = format!(
                    "{app:?}/{}/{} death disk {disk} at {at} ns",
                    mode.label(),
                    kind.name()
                );
                check_survival(&r, &reference, engage, &tag);
            }
        }
    }
}

/// Attaching metrics never moves a disk-death run: a degraded array's
/// hedge deadline comes from the machine's own fault-wait distribution,
/// so the demand-paged EMBAR cell with disk 1 dying at 1/20 of the
/// reference run hedges the same reads, at the same times, detached or
/// attached.
#[test]
fn attaching_metrics_never_moves_a_disk_death_run() {
    let cfg = parity_config();
    let w = build(App::Embar, cfg.bytes_for_ratio(2.0));
    let reference = run_workload(&w, &cfg, Mode::Prefetch);
    let at = (reference.total() / 20).max(1);
    let plan = FaultPlan::none(0xD15F_0000).with_disk_death(DiskDeath { disk: 1, at });
    let mut attached = cfg;
    attached.metrics = true;
    let [bare, inst] = [cfg, attached].map(|c| {
        RunSpec::new(&c, Mode::Original)
            .faults(&plan)
            .run(&w)
            .result
    });
    assert!(inst.os.hedged_reads > 0, "the death must arm the hedge");
    assert_eq!(bare.time, inst.time, "metrics moved the time ledger");
    assert_eq!(bare.os, inst.os, "metrics moved the OS counters");
    assert_eq!(bare.checksum, inst.checksum);
}

/// A power loss while the online rebuild is still scrubbing: recovery
/// re-derives parity wholesale from the durable image (a crash
/// mid-rebuild leaves no trustworthy incremental state), and the
/// application restart matches the never-crashed reference bit for
/// bit.
#[test]
fn crash_during_rebuild_recovers_and_reruns_clean() {
    let cfg = parity_config();
    let w = build(App::Embar, cfg.bytes_for_ratio(2.0));
    let reference = run_workload(&w, &cfg, Mode::Prefetch);
    reference.verified.as_ref().expect("reference verifies");
    // Death at a quarter of the run; the paced rebuild takes seconds
    // of simulated time, so a crash at half the run lands inside it.
    let death_at = (reference.total() / 4).max(1);
    let crash_at = reference.total() / 2;
    for torn in [false, true] {
        let plan = FaultPlan::none(0xD15F_C4A5)
            .with_disk_death(DiskDeath {
                disk: 1,
                at: death_at,
            })
            .with_crash(CrashSpec {
                point: CrashPoint::AtTime(crash_at),
                torn_writes: torn,
            });
        let run = RunSpec::new(&cfg, Mode::Prefetch)
            .faults(&plan)
            .crash_recover(&w);
        let tag = format!("EMBAR death@{death_at} crash@{crash_at} torn={torn}");
        assert!(run.recovery.crashed_at > 0, "{tag}: crash never tripped");
        assert_eq!(
            run.recovery.unrecoverable, 0,
            "{tag}: unrecoverable pages with the journal on: {:?}",
            run.recovery
        );
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
    }
}

/// A second death on a *different* disk while the array is still holed
/// exceeds what single parity can reconstruct: the machine surfaces
/// the typed loss instead of fabricating data.
#[test]
fn second_death_during_rebuild_is_typed_data_loss() {
    const PAGES: u64 = 96;
    let mut p = MachineParams::small();
    p.redundancy = Redundancy::Parity;
    let mut m = Machine::new(p, PAGES * p.page_bytes);
    m.set_fault_plan(
        &FaultPlan::none(0xD15F_0002)
            .with_disk_death(DiskDeath { disk: 1, at: 1 })
            .with_disk_death(DiskDeath { disk: 3, at: 2 }),
    );
    for page in 0..PAGES {
        m.poke_f64(page * p.page_bytes, page as f64 + 0.5);
    }
    let mut lost = None;
    for page in 0..PAGES {
        match m.try_touch(page * p.page_bytes, 8, false) {
            Ok(_) => {}
            Err(e) => {
                lost = Some(e);
                break;
            }
        }
    }
    match lost {
        Some(OsError::DiskLost { disk, .. }) => {
            assert!(
                disk == 1 || disk == 3,
                "loss attributed to a disk that never died"
            );
        }
        other => panic!("double death must surface DiskLost, got {other:?}"),
    }
    // Rows the first rebuild completed before the second death are on
    // the spare and still readable; nothing was silently corrupted.
    let (done, total) = m.rebuild_progress();
    assert!(done <= total, "watermark overran the array");
}
