//! The hint path allocates nothing per call and keeps nothing per call:
//! the heap allocations a run makes below the interpreter, and the heap
//! bytes it still holds at the end, are the same for a short run and a
//! run eight times as long.
//!
//! The instrument is a counting `#[global_allocator]`, in this test
//! binary only. It counts per thread, so the tests here may run side by
//! side; its `unsafe impl` is the trait's own requirement and only
//! forwards to `System`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oocp::compiler::compile;
use oocp::ir::{parse_program, run_program, ArrayBinding, CostModel, MemVm, Program};
use oocp::nas::{build, App};
use oocp::os::{Machine, MachineParams, Redundancy, SchedConfig, SchedPolicy};
use oocp::rt::{FilterMode, Runtime};
use oocp_bench::Config;

thread_local! {
    /// Allocations made (a `realloc` counts as one) and bytes currently
    /// held, by this thread.
    static HEAP: Cell<(u64, i64)> = const { Cell::new((0, 0)) };
}

fn note(allocs: u64, bytes: i64) {
    // A thread that is being torn down has no cell left; it is not one
    // of the measuring threads.
    let _ = HEAP.try_with(|h| {
        let (n, live) = h.get();
        h.set((n + allocs, live + bytes));
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations made and live bytes gained by this thread during `f`.
fn heap_delta<T>(f: impl FnOnce() -> T) -> (T, (u64, i64)) {
    let (n0, live0) = HEAP.with(Cell::get);
    let out = f();
    let (n1, live1) = HEAP.with(Cell::get);
    (out, (n1 - n0, live1 - live0))
}

const MIB: u64 = 1024 * 1024;

/// The page-walk cells' machine (`benchmark/src/workload.rs`): the
/// paper's platform at 8 MiB under a 16 MiB array, one reference
/// standing for a page's worth of compute.
fn page_machine() -> MachineParams {
    Config::default_platform().machine
}

fn dprio(m: MachineParams) -> MachineParams {
    m.with_sched(
        SchedConfig::default()
            .with_policy(SchedPolicy::DemandPriority)
            .with_queue_depth(64)
            .with_coalesce(true),
    )
}

fn page_cost() -> CostModel {
    CostModel {
        ns_per_access: 500_000,
        ..CostModel::default()
    }
}

fn compiled(prog: &Program, machine: MachineParams, cost: CostModel) -> Program {
    let cfg = Config {
        machine,
        cost,
        ..Config::default_platform()
    };
    compile(prog, &cfg.compiler_params()).0
}

/// What the measured region of a benchmark cell — `run_program` plus
/// `try_finish` — allocates and keeps *below the interpreter*, over
/// `passes` runs of the program on one machine: the same runs on the
/// flat `MemVm` make the interpreter's own allocations (lowering, the
/// register file) and nothing else, and are taken off.
fn machine_heap(
    prog: &Program,
    params: &[i64],
    passes: usize,
    machine: MachineParams,
    cost: CostModel,
    init: impl Fn(&[ArrayBinding], &mut Runtime),
) -> (u64, i64) {
    let (binds, bytes) = ArrayBinding::sequential(prog, machine.page_bytes);
    let mut flat = MemVm::new(bytes, machine.page_bytes);
    let ((), (interp_allocs, interp_live)) = heap_delta(|| {
        for _ in 0..passes {
            run_program(prog, &binds, params, cost, &mut flat);
        }
    });
    let mut rt = Runtime::new(Machine::new(machine, bytes), FilterMode::Enabled);
    init(&binds, &mut rt);
    let ((), (allocs, live)) = heap_delta(|| {
        for _ in 0..passes {
            run_program(prog, &binds, params, cost, &mut rt);
        }
        rt.machine_mut().try_finish().expect("a clean flush");
    });
    (allocs - interp_allocs, live - interp_live)
}

const PAGEWALK_READ: &str = include_str!("../benchmark/kernels/pagewalk_read.ook");
const PAGEWALK_WRITE: &str = include_str!("../benchmark/kernels/pagewalk_write.ook");

/// [`machine_heap`] of one page-walk cell making `cols` column sweeps
/// (4096 page visits each), compiled when `prefetch`.
fn page_walk_heap(src: &str, prefetch: bool, machine: MachineParams, cols: i64) -> (u64, i64) {
    let mut prog = parse_program(src).expect("benchmark kernel parses");
    if prefetch {
        prog = compiled(&prog, machine, page_cost());
    }
    machine_heap(&prog, &[1, cols], 1, machine, page_cost(), |_, _| {})
}

/// Allocations below the interpreter a fault- or hint-bound cell may
/// make: the growth steps of the structures that hold what is in flight
/// (disk queues, the completion slab, the hint buffers, the recycled
/// coalescing lists). Measured 20 to 69; before the hint path kept its
/// buffers, `pagewalk_read.P.fcfs` made three per hint call.
const BUDGET: u64 = 128;

#[test]
fn page_walk_allocations_do_not_grow_with_the_run() {
    let (fcfs, dprio) = (page_machine(), dprio(page_machine()));
    for (name, src) in [
        ("pagewalk_read", PAGEWALK_READ),
        ("pagewalk_write", PAGEWALK_WRITE),
    ] {
        for (label, prefetch, machine) in [
            ("O.fcfs", false, fcfs),
            ("P.fcfs", true, fcfs),
            ("P.dprio", true, dprio),
        ] {
            let short = page_walk_heap(src, prefetch, machine, 8);
            let long = page_walk_heap(src, prefetch, machine, 64);
            assert_eq!(
                short, long,
                "{name}.{label}: (allocations, live bytes) at 8 and at 64 sweeps"
            );
            assert!(short.0 <= BUDGET, "{name}.{label}: {} allocations", short.0);
        }
    }
}

/// Under parity every write-back is a durable write whose payload is the
/// page itself until it lands: only a store to a page whose write is
/// still in flight makes a copy, and none of the page walk's does. So a
/// parity cell allocates no buffer per write-back, and what it still
/// holds at the end does not depend on its length. The first run warms
/// this thread's image pool, as a benchmark process's first cell does,
/// so the parity image is taken from it, not allocated, in the measured
/// runs. The durable store keeps copies only of the pages whose durable
/// image differs from memory, in 64-page chunks it reuses: as many
/// chunks as the most pages ever dirty or in flight at once, the same at
/// any length.
///
/// `O.parity` still makes more than [`BUDGET`] (232; `P.parity` 60): its
/// unbounded FCFS queues take a burst of about 2,100 write-backs, which
/// doubles each of seven disks' request queue, completion slab and free
/// slot list up to 1,024 / 512 / 512 entries, and gives the durable
/// store about as many pages in flight to hold copies of. Those are
/// growth steps of what is in flight, fixed by the burst; none of them
/// is a buffer per write-back.
#[test]
fn parity_write_backs_keep_only_their_buffers() {
    let parity = page_machine().with_redundancy(Redundancy::Parity);
    for (label, prefetch) in [("O.parity", false), ("P.parity", true)] {
        page_walk_heap(PAGEWALK_WRITE, prefetch, parity, 1);
        let short = page_walk_heap(PAGEWALK_WRITE, prefetch, parity, 4);
        let long = page_walk_heap(PAGEWALK_WRITE, prefetch, parity, 16);
        assert_eq!(
            short, long,
            "{label}: (allocations, live bytes) at 4 and at 16 sweeps"
        );
        assert!(long.0 <= 2 * BUDGET, "{label}: {} allocations", long.0);
    }
}

/// The same for a NAS program with its hints compiled in — BUK, the
/// paper's case study, at twice its memory: four passes over the
/// program allocate what one pass does.
#[test]
fn a_nas_cell_allocates_the_same_for_one_pass_and_for_four() {
    let w = build(App::Buk, 2 * MIB);
    let machine = MachineParams::paper_platform().with_memory_bytes(MIB);
    let cost = CostModel::default();
    let prog = compiled(&w.prog, machine, cost);
    let heap = |passes| {
        machine_heap(
            &prog,
            &w.param_values,
            passes,
            machine,
            cost,
            |binds, rt| w.init(binds, rt, 20260706),
        )
    };
    let (one, four) = (heap(1), heap(4));
    assert_eq!(
        one, four,
        "BUK.P: (allocations, live bytes) at 1 and at 4 passes"
    );
    assert!(one.0 <= BUDGET, "BUK.P: {} allocations", one.0);
}
