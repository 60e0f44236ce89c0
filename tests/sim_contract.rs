//! The simulated-number contract of the interpreter's fast paths: one
//! FNV per NAS cell over everything a run books — the interpreter's
//! `ExecStats`, every run-time-layer counter, the machine's `user_ops`,
//! the time ledger and the final data — pinned for every application,
//! original and prefetching, on an in-core and an out-of-core machine,
//! plus a cell with the sampler attached and one whose fault plan lets
//! residency bits go stale (where the run-time layer must refuse to
//! stand in for its hints). A change to how references or hints are
//! executed may make the host faster; it may not move one of these.

use oocp_bench::{Config, Mode, RunResult, RunSpec};
use oocp_nas::{build, App};
use oocp_os::FaultPlan;

fn fnv(digest: &mut u64, text: &str) {
    for b in text.bytes() {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fingerprint(r: &RunResult) -> u64 {
    assert!(r.verified.is_ok(), "{:?}", r.verified);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    fnv(&mut digest, &format!("{:?}", r.exec));
    fnv(&mut digest, &format!("{:?}", r.rt));
    fnv(&mut digest, &format!("{} {:?}", r.os.user_ops, r.time));
    fnv(&mut digest, &format!("{:x}", r.checksum));
    if let Some(t) = &r.telemetry {
        fnv(&mut digest, &format!("{:?}", t.ring));
    }
    digest
}

/// The paper's platform with `memory` bytes of memory.
fn config(memory: u64) -> Config {
    let mut cfg = Config::default_platform();
    cfg.machine = cfg.machine.with_memory_bytes(memory);
    cfg
}

const KB: u64 = 1024;

#[test]
fn every_nas_cell_is_pinned() {
    let machines = [
        ("incore", config(512 * KB), 0.5),
        ("ooc", config(128 * KB), 2.0),
    ];
    let mut got = Vec::new();
    for (name, cfg, ratio) in &machines {
        for app in App::ALL {
            let w = build(app, cfg.bytes_for_ratio(*ratio));
            for mode in [Mode::Original, Mode::Prefetch] {
                let r = RunSpec::new(cfg, mode).run(&w).result;
                got.push((format!("{name}/{app:?}.{}", mode.label()), fingerprint(&r)));
            }
        }
    }
    let mut sampled = config(512 * KB);
    sampled.sampler = Some((2_000_000, 4096));
    let w = build(App::Cgm, sampled.bytes_for_ratio(0.5));
    let r = RunSpec::new(&sampled, Mode::Prefetch).run(&w).result;
    assert!(r.telemetry.as_ref().is_some_and(|t| t.ring.len() > 100));
    got.push(("sampled/Cgm.P".to_string(), fingerprint(&r)));
    let stale = FaultPlan::none(7).with_bitvec_staleness(0.5);
    let cfg = config(128 * KB);
    let w = build(App::Buk, cfg.bytes_for_ratio(2.0));
    let r = RunSpec::new(&cfg, Mode::Prefetch)
        .faults(&stale)
        .run(&w)
        .result;
    assert!(r.rt.periodic_resyncs > 0);
    got.push(("stale/Buk.P".to_string(), fingerprint(&r)));

    let table: Vec<String> = got
        .iter()
        .map(|(cell, digest)| format!("(\"{cell}\", {digest:#018x}),"))
        .collect();
    let want: Vec<String> = PINNED
        .iter()
        .map(|(cell, digest)| format!("(\"{cell}\", {digest:#018x}),"))
        .collect();
    assert!(
        table == want,
        "a simulated number moved; the cells now read:\n{}",
        table.join("\n")
    );
}

const PINNED: &[(&str, u64)] = &[
    ("incore/Buk.O", 0x51a8054e161a8c2f),
    ("incore/Buk.P", 0x415f910695058e43),
    ("incore/Cgm.O", 0xdbfe983ddc237a2b),
    ("incore/Cgm.P", 0x4832bedcbb196367),
    ("incore/Embar.O", 0xdd8ad51dc072a8e2),
    ("incore/Embar.P", 0xa40172e15fd108b7),
    ("incore/Fft.O", 0x3bd0228f538c7656),
    ("incore/Fft.P", 0x7a75e16383528bf1),
    ("incore/Mgrid.O", 0x6c35d19954714e94),
    ("incore/Mgrid.P", 0x67cc4da466861b4e),
    ("incore/Applu.O", 0x30d28197f17eb70c),
    ("incore/Applu.P", 0xfbb1c501f1e15105),
    ("incore/Appsp.O", 0x656c2f8ad7d41bf6),
    ("incore/Appsp.P", 0xf3584fe508777155),
    ("incore/Appbt.O", 0x35446a177e24453c),
    ("incore/Appbt.P", 0x38a729ecc29c84c4),
    ("ooc/Buk.O", 0x997ff26232890ba9),
    ("ooc/Buk.P", 0x2e01472af5bb91fb),
    ("ooc/Cgm.O", 0xbd0552966e522bf8),
    ("ooc/Cgm.P", 0xa879b89d4c60af54),
    ("ooc/Embar.O", 0x3c2e461162d515b1),
    ("ooc/Embar.P", 0x9dde8e7720f4f9d1),
    ("ooc/Fft.O", 0xf353c869039e7530),
    ("ooc/Fft.P", 0x80af1220106f87b2),
    ("ooc/Mgrid.O", 0xbc042c39952a8752),
    ("ooc/Mgrid.P", 0x0df44f48289653f0),
    ("ooc/Applu.O", 0xcc8cf42ad6d846bb),
    ("ooc/Applu.P", 0x52eb8810ea7d1127),
    ("ooc/Appsp.O", 0x5844e696e870c290),
    ("ooc/Appsp.P", 0x70c7bf5656a4536e),
    ("ooc/Appbt.O", 0x969f01d0c5285171),
    ("ooc/Appbt.P", 0x1ce3bc3c90d30259),
    ("sampled/Cgm.P", 0x1b5a4e2bf4822ea4),
    ("stale/Buk.P", 0xc1ee62528bb56bd2),
];
