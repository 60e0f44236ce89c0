//! Per-opcode-class interpreter dispatch microbenchmarks
//! ([`class_costs`]): one tiny loop program per opcode class, timed
//! detached and then re-run under the host-time profiler so the
//! wall-clock ranking can be cross-checked against the profiler's
//! self-time ranking (`profile --xcheck`). Every other layer probe
//! lives in `benchmark/` (`bash benchmark/run.sh --probes`).

use std::time::Instant;

use oocp_ir::{
    lin, run_program, run_program_profiled, var, ArrayBinding, ArrayRef, CostModel, ElemType, Expr,
    HintTarget, Index, MemVm, Program, Stmt,
};
use oocp_obs::{HostProf, Profile};

use std::hint::black_box;

/// Number of timed samples collected per opcode class.
const SAMPLES: usize = 11;

/// Iterations of each opcode-class dispatch loop: large enough that
/// per-iteration dispatch dominates program setup, small enough that
/// the whole class sweep stays well under a second.
const CLASS_ITERS: i64 = 50_000;

/// The interpreter opcode classes the dispatch microbenchmarks cover.
/// Each name doubles as the profiler leaf site that attributes it, so
/// the two rankings speak the same vocabulary.
pub const OPCODE_CLASSES: [&str; 4] = ["op:load", "op:store", "op:addr", "op:hint"];

/// Build the dispatch program for one opcode class: a single counted
/// loop whose body is dominated by that class.
///
/// * `op:load`  — `s = s + x[i]` (one load per iteration, no store)
/// * `op:store` — `x[i] = 1.0` (one store, no load)
/// * `op:addr`  — `a[b[i]] = a[b[i]] + 1` (four address computations
///   per iteration, two of them the nested indirect form)
/// * `op:hint`  — `prefetch x[i]` (one non-binding hint dispatch)
pub fn class_program(class: &str) -> Program {
    let n = CLASS_ITERS;
    let mut p = Program::new(&format!("ub_{}", class.trim_start_matches("op:")));
    let i = p.fresh_var();
    let body = match class {
        "op:load" => {
            let x = p.array("x", ElemType::F64, vec![n]);
            let s = p.fresh_fscalar();
            vec![Stmt::LetF {
                dst: s,
                value: Expr::add(
                    Expr::ScalarF(s),
                    Expr::LoadF(ArrayRef::affine(x, vec![var(i)])),
                ),
            }]
        }
        "op:store" => {
            let x = p.array("x", ElemType::F64, vec![n]);
            vec![Stmt::Store {
                dst: ArrayRef::affine(x, vec![var(i)]),
                value: Expr::ConstF(1.0),
            }]
        }
        "op:addr" => {
            let a = p.array("a", ElemType::I64, vec![n]);
            let b = p.array("b", ElemType::I64, vec![n]);
            let aref = ArrayRef {
                array: a,
                idx: vec![Index::Ind {
                    array: b,
                    idx: vec![var(i)],
                }],
            };
            vec![Stmt::Store {
                dst: aref.clone(),
                value: Expr::add(Expr::LoadI(aref), Expr::Lin(lin(1))),
            }]
        }
        "op:hint" => {
            let x = p.array("x", ElemType::F64, vec![n]);
            vec![Stmt::Prefetch {
                target: HintTarget {
                    target: ArrayRef::affine(x, vec![var(i)]),
                },
                pages: 1,
            }]
        }
        other => panic!("unknown opcode class {other}"),
    };
    p.body = vec![Stmt::for_(i, lin(0), lin(n), 1, body)];
    p
}

/// One row of the opcode-class dispatch sweep.
#[derive(Clone, Debug)]
pub struct ClassCost {
    /// Opcode class (also the profiler leaf site name).
    pub class: &'static str,
    /// Median detached wall time per loop iteration, in nanoseconds.
    pub wall_ns_per_iter: f64,
    /// Profiler self-time attributed to this class's leaves across one
    /// profiled run of the same program, in nanoseconds.
    pub prof_self_ns: u64,
}

/// Sum the profiler self-time over every site whose leaf frame is
/// `class` — for `op:addr` that includes both the outer and the nested
/// indirect address computations.
pub fn class_self_ns(p: &Profile, class: &str) -> u64 {
    p.rows()
        .iter()
        .filter(|r| r.path.rsplit(';').next() == Some(class))
        .map(|r| r.self_ns)
        .sum()
}

/// Measure every opcode class: a detached timed run (median over
/// [`SAMPLES`] runs) plus one profiled run whose self-time at the class
/// leaves is recorded. Both runs execute the *same* program on the
/// zero-latency [`MemVm`], so what remains is interpreter dispatch.
pub fn class_costs() -> Vec<ClassCost> {
    OPCODE_CLASSES
        .iter()
        .map(|&class| {
            let prog = class_program(class);
            let (binds, bytes) = ArrayBinding::sequential(&prog, 4096);
            let mut samples: Vec<f64> = Vec::with_capacity(SAMPLES);
            // Warm-up, then timed detached runs.
            let mut vm = MemVm::new(bytes, 4096);
            black_box(run_program(&prog, &binds, &[], CostModel::free(), &mut vm));
            for _ in 0..SAMPLES {
                let mut vm = MemVm::new(bytes, 4096);
                let t = Instant::now();
                black_box(run_program(&prog, &binds, &[], CostModel::free(), &mut vm));
                samples.push(t.elapsed().as_nanos() as f64 / CLASS_ITERS as f64);
            }
            samples.sort_by(|a, b| a.total_cmp(b));
            let wall_ns_per_iter = samples[samples.len() / 2];
            // One profiled run of the same program.
            let mut vm = MemVm::new(bytes, 4096);
            let mut prof = HostProf::default();
            run_program_profiled(&prog, &binds, &[], CostModel::free(), &mut vm, &mut prof);
            let prof_self_ns = class_self_ns(&prof.finish(), class);
            ClassCost {
                class,
                wall_ns_per_iter,
                prof_self_ns,
            }
        })
        .collect()
}
