//! Layer probes: host time per operation of one public entry point of
//! one crate, with everything around it held fixed. They answer "which
//! layer got slower" once a workload has said "something did".
//!
//! Every probe runs a fixed number of operations per sample (sized so a
//! sample lasts at least 50 ms on the reference box), takes
//! [`SAMPLES`] samples after one warm-up, and reports their median and
//! MAD. Each median is also given relative to [`calibration`], a fixed
//! integer loop, so captures from different hosts compare.

use std::hint::black_box;
use std::time::Instant;

use oocp_core::{compile, CompilerParams};
use oocp_disk::{Disk, DiskParams, ReqKind, Request, SchedConfig, SchedPolicy};
use oocp_fs::{ExtentAllocator, FileSystem};
use oocp_ir::{
    lin, parse_program, run_program, var, ArrayBinding, ArrayRef, CostModel, ElemType, Expr,
    HintTarget, Index, MemVm, PagedVm, Program, Stmt,
};
use oocp_nas::App;
use oocp_obs::{LatencyHist, PrefetchLedger};
use oocp_os::{Machine, MachineParams, QosClass, Redundancy, TenantSpec};
use oocp_policy::{PolicyActions, PrefetchPolicy, Readahead, TouchKind};
use oocp_rt::{FilterMode, Runtime, TenantHub, TenantProgram};

use crate::stats::{mad, median};

const SAMPLES: usize = 7;

pub struct ProbeResult {
    pub name: String,
    pub unit: &'static str,
    pub median: f64,
    pub mad: f64,
    /// Median over the calibration loop's ns per step; `None` for the
    /// calibration itself and for probes not in nanoseconds.
    pub relative: Option<f64>,
    /// Too noisy by construction to gate anything on.
    pub report_only: bool,
}

/// Time `body`, which performs `ops` operations; nanoseconds per one.
fn per_op(ops: u64, body: impl FnOnce()) -> f64 {
    let t = Instant::now();
    body();
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// A dependent xorshift chain: nothing to cache, nothing to predict
/// and no closed form for the optimiser to find, so its speed tracks
/// the core's clock and little else.
fn calibration() -> f64 {
    const STEPS: u64 = 40_000_000;
    per_op(STEPS, || {
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
    })
}

fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
    *x >> 33
}

// ---------------------------------------------------------------- ir

/// One counted loop of `n` iterations whose body is dominated by one
/// opcode class.
fn dispatch_program(class: &str, n: i64) -> Program {
    let mut p = Program::new(class);
    let i = p.fresh_var();
    let body = match class {
        // s = s + x[i]
        "load" => {
            let x = p.array("x", ElemType::F64, vec![n]);
            let s = p.fresh_fscalar();
            Stmt::LetF {
                dst: s,
                value: Expr::add(
                    Expr::ScalarF(s),
                    Expr::LoadF(ArrayRef::affine(x, vec![var(i)])),
                ),
            }
        }
        // x[i] = 1.0
        "store" => {
            let x = p.array("x", ElemType::F64, vec![n]);
            Stmt::Store {
                dst: ArrayRef::affine(x, vec![var(i)]),
                value: Expr::ConstF(1.0),
            }
        }
        // a[b[i]] = a[b[i]] + 1: four address computations, two nested
        "addr" => {
            let a = p.array("a", ElemType::I64, vec![n]);
            let b = p.array("b", ElemType::I64, vec![n]);
            let aref = ArrayRef {
                array: a,
                idx: vec![Index::Ind {
                    array: b,
                    idx: vec![var(i)],
                }],
            };
            Stmt::Store {
                dst: aref.clone(),
                value: Expr::add(Expr::LoadI(aref), Expr::Lin(lin(1))),
            }
        }
        // prefetch x[i]
        "hint" => {
            let x = p.array("x", ElemType::F64, vec![n]);
            Stmt::Prefetch {
                target: HintTarget {
                    target: ArrayRef::affine(x, vec![var(i)]),
                },
                pages: 1,
            }
        }
        other => unreachable!("no opcode class {other}"),
    };
    p.body = vec![Stmt::for_(i, lin(0), lin(n), 1, vec![body])];
    p
}

/// The loop runs on one `MemVm` for all samples, so only the warm-up
/// pays the host's first-touch page faults.
fn ir_dispatch(class: &'static str, n: i64) -> impl FnMut() -> f64 {
    let prog = dispatch_program(class, n);
    let (binds, bytes) = ArrayBinding::sequential(&prog, 4096);
    let mut vm = MemVm::new(bytes, 4096);
    move || {
        per_op(n as u64, || {
            black_box(run_program(&prog, &binds, &[], CostModel::free(), &mut vm));
        })
    }
}

fn ir_parse() -> f64 {
    const N: u64 = 10_000;
    let src = include_str!("../kernels/pagewalk_read.ook");
    per_op(N, || {
        for _ in 0..N {
            black_box(parse_program(black_box(src)).expect("kernel parses"));
        }
    }) / 1e3
}

// -------------------------------------------------------------- core

fn core_compile(two_version: bool) -> impl FnMut() -> f64 {
    let apps: &[App] = if two_version {
        &[App::Appbt]
    } else {
        &App::ALL
    };
    let progs: Vec<Program> = apps
        .iter()
        .map(|&a| oocp_nas::build(a, 16 << 20).prog)
        .collect();
    let params = CompilerParams::default().with_two_version(two_version);
    let reps = if two_version { 1500 } else { 60 };
    move || {
        per_op(reps * progs.len() as u64, || {
            for _ in 0..reps {
                for p in &progs {
                    black_box(compile(p, &params));
                }
            }
        }) / 1e3
    }
}

// ---------------------------------------------------------- rt and os

/// 1024 frames of memory over `pages` pages of address space.
fn machine(pages: u64, redundancy: Redundancy) -> Machine {
    let mut p = MachineParams::small().with_redundancy(redundancy);
    p.resident_limit = 1024;
    Machine::new(p, pages * 4096)
}

fn rt_filter_hit() -> f64 {
    const N: u64 = 10_000_000;
    let mut rt = Runtime::new(machine(512, Redundancy::None), FilterMode::Enabled);
    rt.load_f64(0);
    per_op(N, || {
        for _ in 0..N {
            rt.prefetch(black_box(0), 1);
        }
    })
}

/// A streaming hint that passes the filter: the bit says "not in
/// memory", so the bundled call goes through the OS to the disks. The
/// clock is advanced between hints so the disks keep up.
fn rt_filter_miss() -> f64 {
    const N: u64 = 500_000;
    const PAGES: u64 = 1 << 16;
    let mut rt = Runtime::new(machine(PAGES, Redundancy::None), FilterMode::Enabled);
    per_op(N, || {
        for i in 0..N {
            rt.tick_user(5_000_000);
            let p = i % (PAGES - 64) + 64;
            rt.prefetch_release(p * 4096, 1, (p - 64) * 4096, 1);
        }
    })
}

fn os_touch_hit(metrics: bool) -> impl FnMut() -> f64 {
    move || {
        const N: u64 = 10_000_000;
        let mut m = machine(512, Redundancy::None);
        if metrics {
            m.enable_metrics();
        }
        m.touch(0, 8, false);
        per_op(N, || {
            for _ in 0..N {
                black_box(m.touch(black_box(16), 8, false));
            }
        })
    }
}

/// Round-robin over twice the memory: every touch is a hard fault that
/// evicts a page; with `write` the evicted page is dirty and is written
/// back (through the parity read-modify-write under `Parity`).
fn os_fault_cycle(write: bool, redundancy: Redundancy, n: u64) -> impl FnMut() -> f64 {
    move || {
        let mut m = machine(2048, redundancy);
        per_op(n, || {
            for i in 0..n {
                m.touch(i % 2048 * 4096, 8, write);
            }
            black_box(m.stats().hard_faults);
        })
    }
}

/// The compiler's streaming hint as the OS sees it: a 4-page block
/// prefetch bundled with the release of the block 16 blocks behind.
fn os_sys_prefetch() -> f64 {
    const N: u64 = 100_000;
    const PAGES: u64 = 1 << 16;
    let mut m = machine(PAGES, Redundancy::None);
    per_op(N, || {
        for i in 0..N {
            m.tick_user(20_000_000);
            let p = i * 4 % (PAGES - 64) + 64;
            m.sys_prefetch_release(p, 4, p - 64, 4);
        }
    })
}

/// Release 256 resident pages to the free list, then prefetch them
/// back: every page is reclaimed without I/O. Per page moved.
fn os_release_reclaim() -> f64 {
    const ROUNDS: u64 = 15_000;
    let mut m = machine(512, Redundancy::None);
    for p in 0..256u64 {
        m.touch(p * 4096, 8, false);
    }
    per_op(ROUNDS * 512, || {
        for _ in 0..ROUNDS {
            m.sys_release(0, 256);
            m.sys_prefetch(0, 256);
        }
        black_box(m.stats().prefetch_pages_reclaimed);
    })
}

// ------------------------------------------------------- fs and disk

fn fs_place_run() -> f64 {
    const N: u64 = 1_500_000;
    let mut fs = FileSystem::new(7, 1 << 20);
    let f = fs.create_file(100_000).expect("space for the file");
    per_op(N, || {
        for i in 0..N {
            black_box(
                fs.place_run(f, black_box(i % 90_000), 14)
                    .expect("in range"),
            );
        }
    })
}

fn fs_parity_place() -> f64 {
    const N: u64 = 10_000_000;
    let mut fs = FileSystem::new(7, 1 << 20);
    let f = fs.create_parity_file(100_000).expect("space for the file");
    let rows = fs.rows(f).expect("file exists");
    per_op(N, || {
        for i in 0..N {
            let page = black_box(i % 90_000);
            black_box(fs.place(f, page).expect("in range"));
            black_box(fs.parity_place(f, page % rows).expect("in range"));
        }
    })
}

/// Allocate and free extents of mixed sizes; per alloc-or-free.
fn fs_extent_churn() -> f64 {
    const ROUNDS: u64 = 8000;
    let mut ops = 0;
    let ns = per_op(1, || {
        for _ in 0..ROUNDS {
            let mut a = ExtentAllocator::new(1 << 20);
            let mut held = Vec::new();
            for i in 0..200u64 {
                if let Some(e) = a.alloc(64 + i % 128) {
                    held.push(e);
                    ops += 1;
                }
                if i % 3 == 0 {
                    if let Some(e) = held.pop() {
                        a.free(e);
                        ops += 1;
                    }
                }
            }
            ops += held.len() as u64;
            for e in held {
                a.free(e);
            }
            black_box(a.free_blocks());
        }
    });
    ns / ops as f64
}

fn disk_submit(random: bool) -> impl FnMut() -> f64 {
    move || {
        const N: u64 = 1_000_000;
        let mut d = Disk::new(DiskParams::default());
        let blocks = d.params().blocks;
        let mut x = 1u64;
        per_op(N, || {
            for i in 0..N {
                let block = if random {
                    lcg(&mut x) % blocks
                } else {
                    i % blocks
                };
                d.submit(0, Request::new(ReqKind::PrefetchRead, block, 1));
            }
            black_box(d.stats().busy_ns);
        })
    }
}

/// One enqueue plus one policy pick with `depth` requests queued: each
/// new request arrives the moment the media goes idle, so exactly one
/// queued request is dispatched per arrival and the depth holds.
fn disk_sched(policy: SchedPolicy, depth: usize, n: u64) -> impl FnMut() -> f64 {
    move || {
        let sched = SchedConfig::default().with_policy(policy);
        let mut d = Disk::with_sched(DiskParams::default(), sched);
        let blocks = d.params().blocks;
        let mut x = 1u64;
        let mut post = |d: &mut Disk, now| {
            let kind = match lcg(&mut x) % 3 {
                0 => ReqKind::DemandRead,
                1 => ReqKind::PrefetchRead,
                _ => ReqKind::Write,
            };
            let req = Request::new(kind, lcg(&mut x) % blocks, 1);
            d.try_post(now, req).expect("unbounded queue");
        };
        for _ in 0..=depth {
            post(&mut d, 0);
        }
        per_op(n, || {
            for _ in 0..n {
                let now = d.busy_until();
                post(&mut d, now);
            }
            assert_eq!(d.queue_len(), depth, "depth holds");
        })
    }
}

// ------------------------------------------------------ obs and policy

/// One prefetch lifecycle: issued, arrived, consumed.
fn obs_ledger() -> f64 {
    const N: u64 = 2_000_000;
    let mut l = PrefetchLedger::new();
    per_op(N, || {
        for i in 0..N {
            let page = i % 4096;
            l.issued(page, i * 10);
            l.arrived(page, i * 10 + 5);
            l.consumed(page, i * 10 + 8);
        }
        black_box(l.entries());
    })
}

fn obs_hist_record() -> f64 {
    const N: u64 = 50_000_000;
    let mut h = LatencyHist::default();
    let mut x = 1u64;
    per_op(N, || {
        for _ in 0..N {
            h.record(lcg(&mut x));
        }
        black_box(h.count());
    })
}

/// The readahead policy's hook on a sequential stream of first touches.
fn policy_readahead_touch() -> f64 {
    const N: u64 = 1_000_000;
    let mut pol = Readahead::new();
    let mut act = PolicyActions::default();
    per_op(N, || {
        for i in 0..N {
            act.prefetch.clear();
            act.release.clear();
            pol.on_touch(i, TouchKind::PrefetchedTimely, i * 1000, &mut act);
            black_box(&act);
        }
    })
}

// ----------------------------------------------------------- rt hub

/// Sixteen EMBAR tenants co-scheduled on the thread-per-tenant hub
/// (the `tenants/co16` cell of the BENCH trajectory). Whole-run host
/// seconds: the baton hand-offs measure the host scheduler as much as
/// the code, so this row is reported, never gated.
fn rt_hub_co16() -> f64 {
    const TENANTS: usize = 16;
    let machine = MachineParams::paper_platform()
        .with_memory_bytes(8 << 20)
        .with_sched(
            SchedConfig::default()
                .with_policy(SchedPolicy::DemandPriority)
                .with_queue_depth(64)
                .with_prefetch_age_ns(1_000_000_000),
        );
    let quota = (machine.resident_limit / 16).max(8);
    let w = oocp_nas::build(App::Embar, 1 << 20);
    let cp = CompilerParams::new(
        machine.page_bytes,
        quota * machine.page_bytes,
        machine.disk.avg_access_ns() + machine.fault_overhead_ns,
    );
    let (prog, _) = compile(&w.prog, &cp);
    let programs = (0..TENANTS)
        .map(|t| {
            let qos = match t % 4 {
                1 => QosClass::Burstable,
                3 => QosClass::BestEffort,
                _ => QosClass::Guaranteed,
            };
            let spec = TenantSpec::unlimited()
                .with_qos(qos)
                .with_memory_frames(quota)
                .with_prefetch_slots(8);
            TenantProgram::new(prog.clone(), w.param_values.clone()).with_spec(spec)
        })
        .collect();
    let mut hub = TenantHub::new(machine, programs).expect("valid tenant configuration");
    for t in 0..TENANTS {
        let binds = hub.binds(t).to_vec();
        w.init(&binds, &mut hub.data(), crate::DEFAULT_SEED + t as u64);
    }
    per_op(1, || {
        black_box(hub.run());
    }) / 1e9
}

// ------------------------------------------------------------ driver

type Probe = (String, &'static str, Box<dyn FnMut() -> f64>);

fn probe(name: impl Into<String>, unit: &'static str, f: impl FnMut() -> f64 + 'static) -> Probe {
    (name.into(), unit, Box::new(f))
}

/// The gated probes in reporting order; the unit is that of one
/// operation.
fn gated_probes() -> Vec<Probe> {
    let none = Redundancy::None;
    let mut probes = Vec::new();
    for (class, n) in [
        ("load", 3_000_000),
        ("store", 4_000_000),
        ("addr", 1_000_000),
        ("hint", 5_000_000),
    ] {
        let name = format!("ir.dispatch_ns.{class}");
        probes.push(probe(name, "ns", ir_dispatch(class, n)));
    }
    probes.extend([
        probe("ir.parse_us", "us", ir_parse),
        probe("core.compile_us", "us", core_compile(false)),
        probe("core.compile_two_version_us", "us", core_compile(true)),
        probe("rt.filter_hit_ns", "ns", rt_filter_hit),
        probe("rt.filter_miss_ns", "ns", rt_filter_miss),
        probe("os.touch_hit_ns", "ns", os_touch_hit(false)),
        probe("os.touch_hit_metrics_ns", "ns", os_touch_hit(true)),
        probe(
            "os.fault_evict_ns",
            "ns",
            os_fault_cycle(false, none, 400_000),
        ),
        probe("os.sys_prefetch_ns", "ns", os_sys_prefetch),
        probe("os.release_reclaim_ns", "ns", os_release_reclaim),
        probe("os.writeback_ns", "ns", os_fault_cycle(true, none, 300_000)),
        probe(
            "os.parity_writeback_ns",
            "ns",
            os_fault_cycle(true, Redundancy::Parity, 60_000),
        ),
        probe("fs.place_run_ns", "ns", fs_place_run),
        probe("fs.parity_place_ns", "ns", fs_parity_place),
        probe("fs.extent_churn_ns", "ns", fs_extent_churn),
        probe("disk.submit_seq_ns", "ns", disk_submit(false)),
        probe("disk.submit_rand_ns", "ns", disk_submit(true)),
    ]);
    for (label, policy) in [
        ("sstf", SchedPolicy::Sstf),
        ("dprio", SchedPolicy::DemandPriority),
    ] {
        for (depth, n) in [(1, 1_000_000), (16, 500_000), (256, 100_000)] {
            let name = format!("disk.sched_ns.{label}.d{depth}");
            probes.push(probe(name, "ns", disk_sched(policy, depth, n)));
        }
    }
    probes.extend([
        probe("obs.ledger_ns", "ns", obs_ledger),
        probe("obs.hist_record_ns", "ns", obs_hist_record),
        probe("policy.readahead_touch_ns", "ns", policy_readahead_touch),
    ]);
    probes
}

/// One warm-up, then `samples` samples of `f`.
fn sample(
    name: String,
    unit: &'static str,
    samples: usize,
    calib: Option<f64>,
    mut f: impl FnMut() -> f64,
) -> ProbeResult {
    f();
    let v: Vec<f64> = (0..samples).map(|_| f()).collect();
    let median = median(&v);
    ProbeResult {
        name,
        unit,
        median,
        mad: mad(&v),
        relative: calib.filter(|_| unit == "ns").map(|c| median / c),
        report_only: false,
    }
}

/// Run every probe, handing each row to `emit` as it completes. Each
/// probe's state is dropped before the next one starts.
pub fn run_all(mut emit: impl FnMut(&ProbeResult)) -> Vec<ProbeResult> {
    let calib = sample("bench.calib_ns".into(), "ns", SAMPLES, None, calibration);
    let c = Some(calib.median);
    let mut out = vec![calib];
    emit(&out[0]);
    for (name, unit, f) in gated_probes() {
        let r = sample(name, unit, SAMPLES, c, f);
        emit(&r);
        out.push(r);
    }
    let mut hub = sample("rt.hub_co16_s".into(), "s", 3, c, rt_hub_co16);
    hub.report_only = true;
    emit(&hub);
    out.push(hub);
    out
}
