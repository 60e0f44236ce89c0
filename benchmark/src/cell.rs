//! Running one cell: set-up (build, compile, machine, initial data),
//! the measured region (`run_program` + `Machine::try_finish`), and the
//! output checks. Every call into a crate is a span.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use oocp_core::{compile, CompilerParams};
use oocp_ir::{run_program, ArrayBinding, ArrayData, ExecStats, MemVm, Program};
use oocp_os::Machine;
use oocp_rt::{FilterMode, Runtime};

use crate::spans::Spans;
use crate::tracevm::{Boundary, TracedVm, BOUNDARY};
use crate::workload::{CellSpec, Kernel, Mode};

/// Host seconds of one set-up of one cell, by phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    pub build_s: f64,
    pub compile_s: f64,
    pub machine_new_s: f64,
    pub init_s: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.compile_s + self.machine_new_s + self.init_s
    }
}

/// Every simulated number a cell produced, as integers (nanoseconds
/// and counts) so two runs compare exactly.
pub type SimCounts = BTreeMap<&'static str, u64>;

pub struct CellRun {
    /// One entry per set-up performed; the last one fed the run.
    pub setups: Vec<Setup>,
    pub exec_s: f64,
    pub finish_s: f64,
    pub verify_s: f64,
    pub sim: SimCounts,
    /// FNV-1a of the final address space.
    pub checksum: u64,
    /// Why the cell failed, if it did.
    pub error: Option<String>,
    /// Boundary totals, when the run was traced.
    pub boundary: Option<Boundary>,
}

/// FNV-1a over the address space, read through the untimed peek path.
pub fn data_checksum(data: &dyn ArrayData, bytes: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for addr in (0..bytes).step_by(8) {
        for b in data.peek_i64(addr).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn sim_counts(exec: &ExecStats, rt: &Runtime) -> SimCounts {
    let m = rt.machine();
    let (r, o, d, t) = (rt.stats(), m.stats(), m.disk_stats(), m.breakdown());
    BTreeMap::from([
        ("ir.loads", exec.loads),
        ("ir.stores", exec.stores),
        ("ir.iters", exec.iters),
        ("ir.prefetch_stmts", exec.prefetch_stmts),
        ("ir.release_stmts", exec.release_stmts),
        ("rt.prefetch_ops", r.prefetch_ops),
        ("rt.prefetch_pages", r.prefetch_pages),
        ("rt.bit_checks", r.bit_checks),
        ("rt.pages_filtered", r.pages_filtered),
        ("rt.prefetch_syscalls", r.prefetch_syscalls),
        ("rt.release_syscalls", r.release_syscalls),
        ("os.hard_faults", o.hard_faults),
        ("os.prefetched_hits", o.prefetched_hits),
        (
            "os.prefetched_faults_inflight",
            o.prefetched_faults_inflight,
        ),
        ("os.prefetch_pages_issued", o.prefetch_pages_issued),
        ("os.prefetch_pages_reclaimed", o.prefetch_pages_reclaimed),
        ("os.prefetch_pages_dropped", o.prefetch_pages_dropped),
        ("os.release_pages_effective", o.release_pages_effective),
        ("os.writebacks", o.writebacks),
        ("os.daemon_evictions", o.daemon_evictions),
        ("os.parity_writes", o.parity_writes),
        ("os.fault_wait_count", o.fault_wait.count()),
        ("os.fault_wait_ns", o.fault_wait.sum() as u64),
        ("os.sim_user_ns", t.user),
        ("os.sim_sys_fault_ns", t.sys_fault),
        ("os.sim_sys_prefetch_ns", t.sys_prefetch),
        ("os.sim_idle_ns", t.idle),
        ("os.sim_total_ns", t.total()),
        ("disk.demand_reads", d.demand_reads),
        ("disk.prefetch_reads", d.prefetch_reads),
        ("disk.writes", d.writes),
        ("disk.busy_ns", d.busy_ns),
        ("disk.capacity_ns", t.total() * m.params().ndisks as u64),
        ("disk.demand_wait_ns", d.demand_wait_ns),
        ("disk.queue_depth_hwm", d.queue_depth_hwm),
        ("disk.coalesced_requests", d.coalesced_requests),
    ])
}

fn compiler_params(spec: &CellSpec) -> CompilerParams {
    let m = &spec.machine;
    CompilerParams::new(
        m.page_bytes,
        m.memory_bytes(),
        m.disk.avg_access_ns() + m.fault_overhead_ns,
    )
    .with_cost(spec.cost)
}

/// The program the cell executes, when it is not the kernel as written.
fn compile_for(spec: &CellSpec, kernel: &Kernel) -> Option<Program> {
    match spec.mode {
        Mode::Original => None,
        Mode::Prefetch => Some(compile(kernel.prog(), &compiler_params(spec)).0),
    }
}

/// Run `spec` once. The set-up is performed `setup_samples` times (each
/// one timed, the last one used) so that set-up time has a median even
/// when the measured region runs once. With `traced` the measured
/// region runs against the tracing wrapper.
pub fn run_cell(
    spec: &CellSpec,
    seed: u64,
    setup_samples: usize,
    traced: bool,
    spans: &mut Spans,
) -> CellRun {
    let depth = spans.depth();
    let cell = spans.enter("cell", &spec.name);
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_cell_inner(spec, seed, setup_samples, traced, spans)
    }));
    let run = run.unwrap_or_else(|panic| {
        spans.unwind_to(depth + 1);
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("panic");
        CellRun {
            setups: Vec::new(),
            exec_s: 0.0,
            finish_s: 0.0,
            verify_s: 0.0,
            sim: SimCounts::new(),
            checksum: 0,
            error: Some(format!("panicked: {msg}")),
            boundary: None,
        }
    });
    spans.exit(cell);
    run
}

fn run_cell_inner(
    spec: &CellSpec,
    seed: u64,
    setup_samples: usize,
    traced: bool,
    spans: &mut Spans,
) -> CellRun {
    let name = spec.name.as_str();
    let mut setups = Vec::with_capacity(setup_samples);
    let mut ready = None;
    for _ in 0..setup_samples.max(1) {
        // Free the previous sample's machine outside any span.
        drop(ready.take());
        let (kernel, build_s) = spans.time("nas.build", name, || Kernel::build(spec.kernel));
        let (compiled, compile_s) = spans.time("core.compile", name, || compile_for(spec, &kernel));
        // The machine is sized by the original program's layout, so
        // both versions see the same address space.
        let ((binds, bytes, mut rt), machine_new_s) = spans.time("os.machine_new", name, || {
            let (binds, bytes) = ArrayBinding::sequential(kernel.prog(), spec.machine.page_bytes);
            let rt = Runtime::new(Machine::new(spec.machine, bytes), FilterMode::Enabled);
            (binds, bytes, rt)
        });
        let ((), init_s) = spans.time("nas.init", name, || kernel.init(&binds, &mut rt, seed));
        setups.push(Setup {
            build_s,
            compile_s,
            machine_new_s,
            init_s,
        });
        ready = Some((kernel, compiled, binds, bytes, rt));
    }
    let (kernel, compiled, binds, bytes, mut rt) = ready.expect("at least one set-up");
    let prog = compiled.as_ref().unwrap_or(kernel.prog());

    // The measured region.
    let exec_span = spans.enter("ir.exec", name);
    let (exec, boundary) = if traced {
        let mut vm = TracedVm::new(&mut rt);
        let exec = run_program(prog, &binds, kernel.params(), spec.cost, &mut vm);
        (exec, Some(vm.finish()))
    } else {
        let exec = run_program(prog, &binds, kernel.params(), spec.cost, &mut rt);
        (exec, None)
    };
    let exec_s = spans.exit(exec_span);
    let (flushed, finish_s) = spans.time("os.finish", name, || rt.machine_mut().try_finish());
    if let Some(b) = &boundary {
        for (row_name, row) in BOUNDARY.into_iter().zip(b.rows) {
            spans.aggregate(exec_span, row_name, row.calls, row.busy_ns);
        }
        spans.aggregate(exec_span, "bench.timer", 0, b.timer_ns);
    }

    let ((verified, checksum), verify_s) = spans.time("nas.verify", name, || {
        (kernel.verify(&binds, &rt, seed), data_checksum(&rt, bytes))
    });
    let error = match (flushed, verified) {
        (Err(e), _) => Some(format!("try_finish: {e}")),
        (_, Err(e)) => Some(format!("verify: {e}")),
        _ => None,
    };
    CellRun {
        setups,
        exec_s,
        finish_s,
        verify_s,
        sim: sim_counts(&exec, &rt),
        checksum,
        error,
        boundary,
    }
}

/// The independent estimate of interpreter time: the cell's program on
/// the flat [`MemVm`], where nothing below the interpreter costs
/// anything. Returns the host seconds and the final-data checksum,
/// which must equal the machine's.
pub fn run_memvm(spec: &CellSpec, seed: u64, spans: &mut Spans) -> (f64, u64) {
    let kernel = Kernel::build(spec.kernel);
    let compiled = compile_for(spec, &kernel);
    let prog = compiled.as_ref().unwrap_or(kernel.prog());
    let (binds, bytes) = ArrayBinding::sequential(kernel.prog(), spec.machine.page_bytes);
    let mut vm = MemVm::new(bytes, spec.machine.page_bytes);
    kernel.init(&binds, &mut vm, seed);
    let (_, secs) = spans.time("ir.memvm_exec", &spec.name, || {
        run_program(prog, &binds, kernel.params(), spec.cost, &mut vm)
    });
    (secs, data_checksum(&vm, bytes))
}
