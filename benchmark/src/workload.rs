//! The four workloads: which cells each one runs, and the kernels
//! (with their seeded inputs and exact output checks) behind them.
//!
//! A *cell* is one (kernel, mode, machine configuration) run. Every
//! prefetching cell names the original-program cell of the same kernel
//! instance as its reference: same inputs, so the final data must be
//! bit-identical, and the pair gives the simulated speed-up.

use oocp_ir::{parse_program, ArrayBinding, ArrayData, CostModel, Program};
use oocp_nas::{App, Workload};
use oocp_os::{MachineParams, Redundancy, SchedConfig, SchedPolicy};
use oocp_sim::SimRng;

pub const WORKLOADS: [&str; 4] = ["nas_ooc", "nas_incore", "page_read", "page_write"];

const MIB: u64 = 1024 * 1024;

/// NAS data-set size: twice the out-of-core memory, half the in-core.
const NAS_DATA: u64 = 16 * MIB;
const NAS_OOC_MEMORY: u64 = 8 * MIB;
const NAS_INCORE_MEMORY: u64 = 32 * MIB;

/// The page-walk array is 4096 pages (16 MiB) on 8 MiB of memory.
const PAGE_MEMORY: u64 = 8 * MIB;
const PAGE_ROWS: u64 = 4096;
const PAGE_ROW_ELEMS: u64 = 512;
/// Column sweeps per page-walk cell as (repetitions, columns); one
/// sweep is 4096 page visits. Sized so a pass over the workload's
/// cells takes between one and two host seconds: the host's speed
/// wanders from second to second, and the median over many short
/// passes is steadier than over a few long ones.
const READ_SWEEPS: (i64, i64) = (3, 192);
const WRITE_SWEEPS: (i64, i64) = (2, 176);
/// The parity cells are short: every write-back there is a parity
/// read-modify-write whose payload the machine holds until `finish`.
const PARITY_SWEEPS: (i64, i64) = (1, 8);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The program as written, on plain paged virtual memory.
    Original,
    /// Compiled with the prefetching pass; run-time filter on.
    Prefetch,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::Original => "O",
            Mode::Prefetch => "P",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub enum KernelSpec {
    Nas { app: App, bytes: u64 },
    PageWalk { write: bool, reps: i64, cols: i64 },
}

pub struct CellSpec {
    pub name: String,
    pub kernel: KernelSpec,
    pub mode: Mode,
    pub machine: MachineParams,
    pub cost: CostModel,
    /// Index (in the workload's cell list) of the original-program
    /// cell of the same kernel instance; an original cell names itself.
    pub reference: usize,
}

fn nas_cells(memory: u64, scale_down: u64) -> Vec<CellSpec> {
    let machine = MachineParams::paper_platform().with_memory_bytes(memory / scale_down);
    let mut cells = Vec::new();
    for app in App::ALL {
        let reference = cells.len();
        for mode in [Mode::Original, Mode::Prefetch] {
            cells.push(CellSpec {
                name: format!("{}.{}", app.name(), mode.label()),
                kernel: KernelSpec::Nas {
                    app,
                    bytes: NAS_DATA / scale_down,
                },
                mode,
                machine,
                cost: CostModel::default(),
                reference,
            });
        }
    }
    cells
}

fn page_cells(write: bool, scale_down: u64) -> Vec<CellSpec> {
    let fcfs = MachineParams::paper_platform().with_memory_bytes(PAGE_MEMORY);
    let dprio = fcfs.with_sched(
        SchedConfig::default()
            .with_policy(SchedPolicy::DemandPriority)
            .with_queue_depth(64)
            .with_coalesce(true),
    );
    // One reference stands for a page's worth of simulated compute.
    let cost = CostModel {
        ns_per_access: 500_000,
        ..CostModel::default()
    };
    let kernel = if write {
        "pagewalk_write"
    } else {
        "pagewalk_read"
    };
    let sweeps = if write { WRITE_SWEEPS } else { READ_SWEEPS };
    let mut groups = vec![(
        sweeps,
        vec![
            ("O.fcfs", Mode::Original, fcfs),
            ("P.fcfs", Mode::Prefetch, fcfs),
            ("P.dprio", Mode::Prefetch, dprio),
        ],
    )];
    if write {
        let parity = fcfs.with_redundancy(Redundancy::Parity);
        groups.push((
            PARITY_SWEEPS,
            vec![
                ("O.parity", Mode::Original, parity),
                ("P.parity", Mode::Prefetch, parity),
            ],
        ));
    }
    let mut cells = Vec::new();
    for ((reps, cols), group) in groups {
        let reference = cells.len();
        for (label, mode, machine) in group {
            cells.push(CellSpec {
                name: format!("{kernel}.{label}"),
                kernel: KernelSpec::PageWalk {
                    write,
                    reps,
                    cols: (cols / scale_down as i64).max(2),
                },
                mode,
                machine,
                cost,
                reference,
            });
        }
    }
    cells
}

/// The cell list of `workload`, or `None` for an unknown name.
/// `scale_down` divides data, memory and sweep counts (1 = full size).
pub fn cells(workload: &str, scale_down: u64) -> Option<Vec<CellSpec>> {
    match workload {
        "nas_ooc" => Some(nas_cells(NAS_OOC_MEMORY, scale_down)),
        "nas_incore" => Some(nas_cells(NAS_INCORE_MEMORY, scale_down)),
        "page_read" => Some(page_cells(false, scale_down)),
        "page_write" => Some(page_cells(true, scale_down)),
        _ => None,
    }
}

/// A built kernel: program, parameter values, seeded initial data and
/// an exact check of the results.
pub enum Kernel {
    Nas(Workload),
    PageWalk {
        prog: Program,
        params: Vec<i64>,
        write: bool,
    },
}

impl Kernel {
    pub fn build(spec: KernelSpec) -> Self {
        match spec {
            KernelSpec::Nas { app, bytes } => Kernel::Nas(oocp_nas::build(app, bytes)),
            KernelSpec::PageWalk { write, reps, cols } => {
                let src = if write {
                    include_str!("../kernels/pagewalk_write.ook")
                } else {
                    include_str!("../kernels/pagewalk_read.ook")
                };
                let prog = parse_program(src).expect("benchmark kernel parses");
                let a = &prog.arrays[0];
                assert_eq!(
                    a.dims,
                    [PAGE_ROWS as i64, PAGE_ROW_ELEMS as i64],
                    "page-walk geometry is one row per 4 KB page"
                );
                Kernel::PageWalk {
                    prog,
                    params: vec![reps, cols],
                    write,
                }
            }
        }
    }

    pub fn prog(&self) -> &Program {
        match self {
            Kernel::Nas(w) => &w.prog,
            Kernel::PageWalk { prog, .. } => prog,
        }
    }

    pub fn params(&self) -> &[i64] {
        match self {
            Kernel::Nas(w) => &w.param_values,
            Kernel::PageWalk { params, .. } => params,
        }
    }

    /// Fill the initial data set; `seed` reaches nothing else.
    pub fn init(&self, binds: &[ArrayBinding], data: &mut dyn ArrayData, seed: u64) {
        match self {
            Kernel::Nas(w) => w.init(binds, data, seed),
            Kernel::PageWalk { .. } => {
                let mut values = page_values(seed);
                for e in 0..PAGE_ROWS * PAGE_ROW_ELEMS {
                    data.poke_f64(binds[0].base + e * 8, values());
                }
            }
        }
    }

    /// Check the results against values derived independently of the
    /// machine: the NAS verifiers, or for the page walks the exact sum
    /// or per-element increment recomputed from the seed.
    pub fn verify(
        &self,
        binds: &[ArrayBinding],
        data: &dyn ArrayData,
        seed: u64,
    ) -> Result<(), String> {
        let (params, write) = match self {
            Kernel::Nas(w) => return w.verify(binds, data),
            Kernel::PageWalk { params, write, .. } => (params, *write),
        };
        let (reps, cols) = (params[0], params[1] as u64);
        let mut values = page_values(seed);
        let mut sum = 0.0;
        for e in 0..PAGE_ROWS * PAGE_ROW_ELEMS {
            let swept = e % PAGE_ROW_ELEMS < cols;
            let init = values();
            let want = if write && swept {
                init + reps as f64
            } else {
                init
            };
            let got = data.peek_f64(binds[0].base + e * 8);
            if got != want {
                return Err(format!("a[{e}] = {got}, expected {want}"));
            }
            if swept {
                sum += init * reps as f64;
            }
        }
        if !write {
            let got = data.peek_f64(binds[1].base);
            if got != sum {
                return Err(format!("out[0] = {got}, expected {sum}"));
            }
        }
        Ok(())
    }
}

/// The page-walk array's initial values in element order: small
/// integers, so sums and `+ 1.0` increments are exact in an `f64`
/// whatever order the program adds them in.
fn page_values(seed: u64) -> impl FnMut() -> f64 {
    let mut rng = SimRng::new(seed);
    move || rng.next_below(1 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocp_ir::MemVm;

    #[test]
    fn every_workload_has_cells_and_references_are_originals() {
        for w in WORKLOADS {
            let cells = cells(w, 1).unwrap();
            assert!(cells.len() >= 3, "{w}");
            for c in &cells {
                let r = &cells[c.reference];
                assert_eq!(r.mode, Mode::Original, "{}", c.name);
                c.machine.check().unwrap();
            }
            assert!(cells.iter().any(|c| c.mode == Mode::Prefetch));
        }
        assert!(cells("nope", 1).is_none());
    }

    #[test]
    fn page_walk_check_accepts_a_correct_run_and_rejects_a_wrong_one() {
        for write in [false, true] {
            let k = Kernel::build(KernelSpec::PageWalk {
                write,
                reps: 2,
                cols: 3,
            });
            let (binds, bytes) = ArrayBinding::sequential(k.prog(), 4096);
            let mut vm = MemVm::new(bytes, 4096);
            k.init(&binds, &mut vm, 7);
            oocp_ir::run_program(k.prog(), &binds, k.params(), CostModel::free(), &mut vm);
            k.verify(&binds, &vm, 7).unwrap();
            // Other inputs than the ones the run started from.
            assert!(k.verify(&binds, &vm, 8).is_err());
            let e = binds[0].base + 4096 * 5;
            vm.poke_f64(e, vm.peek_f64(e) + 1.0);
            assert!(k.verify(&binds, &vm, 7).is_err());
        }
    }
}
