//! The interpreter: executes a program against a [`PagedVm`].

use crate::dispatch::Vm;
use crate::lower::lower;
use crate::program::Program;
use crate::vm::{CostModel, PagedVm};
use oocp_obs::prof::{HostProf, NoProf, ProfSink};

/// Placement of one array in the virtual address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrayBinding {
    /// Byte address of element 0.
    pub base: u64,
}

impl ArrayBinding {
    /// Lay out a program's arrays sequentially, each page-aligned,
    /// returning the bindings and the total address-space size in bytes.
    ///
    /// The simulated machine and [`crate::vm::MemVm`] both use this
    /// layout, so results can be compared byte-for-byte.
    pub fn sequential(prog: &Program, page_bytes: u64) -> (Vec<ArrayBinding>, u64) {
        let mut base = 0u64;
        let mut binds = Vec::with_capacity(prog.arrays.len());
        for a in &prog.arrays {
            binds.push(ArrayBinding { base });
            let pages = a.bytes().div_ceil(page_bytes).max(1);
            base += pages * page_bytes;
        }
        (binds, base.max(page_bytes))
    }
}

/// Dynamic counts of the executed program (calibration and tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Timed array loads.
    pub loads: u64,
    /// Timed array stores.
    pub stores: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Integer ALU operations (including address arithmetic).
    pub iops: u64,
    /// Loop iterations executed.
    pub iters: u64,
    /// Prefetch statements executed (including bundled).
    pub prefetch_stmts: u64,
    /// Release statements executed (including bundled).
    pub release_stmts: u64,
    /// Total pages named by prefetch hints.
    pub prefetch_pages: u64,
}

/// Run `prog` to completion against `vm`, returning dynamic counts.
///
/// The program is lowered to register bytecode first (see
/// [`crate::lower`]) and the flat op stream is what executes: this is
/// [`Vm::step`] until it halts, so a `vm` that parks the run is simply
/// resumed at once.
///
/// # Panics
///
/// Panics if the binding or parameter counts do not match the program,
/// or if the program fails validation.
pub fn run_program<M: PagedVm>(
    prog: &Program,
    binds: &[ArrayBinding],
    params: &[i64],
    cost: CostModel,
    vm: &mut M,
) -> ExecStats {
    Vm::new(prog, binds, params, cost).run(vm, &mut NoProf)
}

/// Like [`run_program`], but with host-time attribution into `prof`:
/// the run lands as a `<prog.name>` subtree of sites (loop nests,
/// statement classes, opcode classes) under the collector's root. The
/// site brackets are ops of the lowered program, emitted only here;
/// they read the host clock, never the simulated one, so attachment
/// cannot change any simulated timestamp or computed result.
pub fn run_program_profiled<M: PagedVm>(
    prog: &Program,
    binds: &[ArrayBinding],
    params: &[i64],
    cost: CostModel,
    vm: &mut M,
    mut prof: &mut HostProf,
) -> ExecStats {
    let code = lower(prog, binds, params, cost, <&mut HostProf>::ACTIVE);
    prof.enter(&prog.name);
    let stats = Vm::start(code).run(vm, &mut prof);
    prof.exit();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{lin, var, Expr};
    use crate::oracle::programs::{self, axpy};
    use crate::program::{ArrayRef, ElemType, HintTarget, Index, Stmt};
    use crate::vm::{ArrayData, MemVm};

    fn setup(prog: &Program) -> (Vec<ArrayBinding>, MemVm) {
        let (binds, bytes) = ArrayBinding::sequential(prog, 4096);
        (binds, MemVm::new(bytes, 4096))
    }

    #[test]
    fn axpy_computes_correctly() {
        let p = axpy(100);
        let (binds, mut vm) = setup(&p);
        for i in 0..100u64 {
            vm.poke_f64(binds[0].base + i * 8, i as f64);
            vm.poke_f64(binds[1].base + i * 8, 1.0);
        }
        let stats = run_program(&p, &binds, &[], CostModel::default(), &mut vm);
        for i in 0..100u64 {
            assert_eq!(vm.peek_f64(binds[1].base + i * 8), 2.0 * i as f64 + 1.0);
        }
        assert_eq!(stats.iters, 100);
        assert_eq!(stats.loads, 200);
        assert_eq!(stats.stores, 100);
        assert!(vm.user_ns > 0);
    }

    #[test]
    fn sequential_layout_is_page_aligned_and_disjoint() {
        let p = axpy(1000); // 8000 bytes each: 2 pages
        let (binds, total) = ArrayBinding::sequential(&p, 4096);
        assert_eq!(binds[0].base, 0);
        assert_eq!(binds[1].base, 8192);
        assert_eq!(total, 16384);
    }

    #[test]
    fn indirect_reference_reads_index_array() {
        // a[b[i]] += 1 (histogram).
        let p = programs::histogram();
        let (a, b) = (0, 1);
        let (binds, mut vm) = setup(&p);
        let keys = [3i64, 7, 3, 0, 7];
        for (i, &k) in keys.iter().enumerate() {
            vm.poke_i64(binds[b].base + i as u64 * 8, k);
        }
        run_program(&p, &binds, &[], CostModel::free(), &mut vm);
        let counts: Vec<i64> = (0..10)
            .map(|i| vm.peek_i64(binds[a].base + i * 8))
            .collect();
        assert_eq!(counts, vec![1, 0, 0, 2, 0, 0, 0, 2, 0, 0]);
    }

    #[test]
    fn symbolic_bounds_come_from_params() {
        let p = programs::symbolic_bound();
        let (binds, mut vm) = setup(&p);
        let stats = run_program(&p, &binds, &[7], CostModel::free(), &mut vm);
        assert_eq!(stats.iters, 7);
        assert_eq!(vm.peek_f64(binds[0].base + 6 * 8), 1.0);
        assert_eq!(vm.peek_f64(binds[0].base + 7 * 8), 0.0);
    }

    #[test]
    fn negative_step_runs_backwards() {
        // for (i = 9; i > -1; i--) x[i] = i
        let p = programs::backwards();
        let (binds, mut vm) = setup(&p);
        let stats = run_program(&p, &binds, &[], CostModel::free(), &mut vm);
        assert_eq!(stats.iters, 10);
        assert_eq!(vm.peek_i64(binds[0].base + 9 * 8), 9);
        assert_eq!(vm.peek_i64(binds[0].base), 0);
    }

    #[test]
    fn hint_targets_are_clamped_not_fatal() {
        // x[i + 100] runs far past the array; must clamp.
        let p = programs::clamped_hint();
        let (binds, mut vm) = setup(&p);
        let stats = run_program(&p, &binds, &[], CostModel::free(), &mut vm);
        assert_eq!(stats.prefetch_stmts, 10);
        assert_eq!(vm.prefetches, 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn demand_out_of_bounds_panics() {
        let p = programs::out_of_bounds();
        let (binds, mut vm) = setup(&p);
        run_program(&p, &binds, &[], CostModel::free(), &mut vm);
    }

    #[test]
    fn scalars_and_conditionals_work() {
        // s = 0; for i { if x[i] > 0.5 { s = s + x[i] } }
        let p = programs::conditional_sum();
        let (x, sum) = (0, 1);
        let (binds, mut vm) = setup(&p);
        for (i, v) in [0.25, 0.75, 1.0, 0.1].iter().enumerate() {
            vm.poke_f64(binds[x].base + i as u64 * 8, *v);
        }
        run_program(&p, &binds, &[], CostModel::free(), &mut vm);
        assert_eq!(vm.peek_f64(binds[sum].base), 1.75);
    }

    #[test]
    fn multidim_row_major_addressing() {
        let p = programs::matrix();
        let (binds, mut vm) = setup(&p);
        run_program(&p, &binds, &[], CostModel::free(), &mut vm);
        // c[2][3] = 23 at flat index 2*4+3 = 11.
        assert_eq!(vm.peek_f64(binds[0].base + 11 * 8), 23.0);
        assert_eq!(vm.peek_f64(binds[0].base + 4 * 8), 10.0);
    }

    #[test]
    fn profiled_run_is_sim_identical_and_attributes_sites() {
        let p = axpy(100);
        let (binds, mut vm) = setup(&p);
        let (binds2, mut vm2) = setup(&p);
        for i in 0..100u64 {
            vm.poke_f64(binds[0].base + i * 8, i as f64);
            vm.poke_f64(binds[1].base + i * 8, 1.0);
            vm2.poke_f64(binds2[0].base + i * 8, i as f64);
            vm2.poke_f64(binds2[1].base + i * 8, 1.0);
        }
        let bare = run_program(&p, &binds, &[], CostModel::default(), &mut vm);
        let mut prof = oocp_obs::HostProf::new();
        let profiled =
            run_program_profiled(&p, &binds2, &[], CostModel::default(), &mut vm2, &mut prof);
        // Host-time-only: identical stats, simulated time, and data.
        assert_eq!(bare, profiled);
        assert_eq!(vm.user_ns, vm2.user_ns);
        for i in 0..100u64 {
            assert_eq!(
                vm.peek_f64(binds[1].base + i * 8),
                vm2.peek_f64(binds2[1].base + i * 8)
            );
        }
        // The capture has the expected shape and counts.
        let capture = prof.finish();
        let rows = capture.rows();
        let find = |path: &str| {
            rows.iter()
                .find(|r| r.path == path)
                .unwrap_or_else(|| panic!("no site {path}"))
        };
        assert_eq!(find("all;axpy").count, 1);
        assert_eq!(
            find("all;axpy;for#0").count,
            1,
            "entered once, not per iter"
        );
        assert_eq!(find("all;axpy;for#0;stmt:store").count, 100);
        assert_eq!(find("all;axpy;for#0;stmt:store;op:load").count, 200);
        assert_eq!(find("all;axpy;for#0;stmt:store;op:store").count, 100);
        assert_eq!(
            find("all;axpy;for#0;stmt:store;op:load;op:addr").count,
            200,
            "addresses resolve under their loads"
        );
        oocp_obs::check_collapsed(&capture.collapsed()).expect("collapsed output validates");
    }

    #[test]
    fn profiled_hints_and_indirection_land_in_their_sites() {
        let mut p = Program::new("hinted");
        let x = p.array("x", ElemType::F64, vec![10]);
        let b = p.array("b", ElemType::I64, vec![10]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(10),
            1,
            vec![
                Stmt::Prefetch {
                    target: HintTarget {
                        target: ArrayRef::affine(x, vec![var(i)]),
                    },
                    pages: 1,
                },
                Stmt::Store {
                    dst: ArrayRef {
                        array: x,
                        idx: vec![Index::Ind {
                            array: b,
                            idx: vec![var(i)],
                        }],
                    },
                    value: Expr::ConstF(1.0),
                },
            ],
        )];
        let (binds, mut vm) = setup(&p);
        for j in 0..10u64 {
            vm.poke_i64(binds[b].base + j * 8, j as i64);
        }
        let mut prof = oocp_obs::HostProf::new();
        run_program_profiled(&p, &binds, &[], CostModel::free(), &mut vm, &mut prof);
        let capture = prof.finish();
        let rows = capture.rows();
        let count = |path: &str| rows.iter().find(|r| r.path == path).map_or(0, |r| r.count);
        assert_eq!(count("all;hinted;for#0;stmt:prefetch;op:hint"), 10);
        // The indirect subscript resolves as a nested op:addr.
        assert_eq!(
            count("all;hinted;for#0;stmt:store;op:store;op:addr;op:addr"),
            10
        );
    }

    #[test]
    fn cost_model_charges_user_time() {
        let p = axpy(10);
        let (binds, mut vm) = setup(&p);
        let cost = CostModel {
            ns_per_access: 100,
            ns_per_flop: 10,
            ns_per_iop: 1,
            ns_per_iter: 1000,
            ns_per_hint_issue: 0,
        };
        run_program(&p, &binds, &[], cost, &mut vm);
        // 10 iterations: 10*1000 iter cost + 30 accesses * 100 + flops...
        assert!(vm.user_ns >= 10 * 1000 + 30 * 100);
    }
}
