//! EMBAR: embarrassingly parallel Gaussian deviates (NAS EP).
//!
//! Each iteration regenerates a large table of uniform deviates (the
//! paper kept this in-program because "a random initialization is
//! performed once for every iteration and separation would not be
//! appropriate"), then consumes it in pairs with the Marsaglia polar
//! acceptance test, accumulating sums of the accepted Gaussian pair
//! components. Pure streaming with a perfectly analyzable access
//! pattern — the one application where the paper's compiler inserted no
//! unnecessary prefetches, and one of the two that exercised release.

use oocp_ir::{lin, var, ArrayRef, CmpOp, Cond, ElemType, Expr, Program, Stmt, UnOp};

use crate::util::close;
use crate::{App, Workload};

/// LCG parameters (31-bit modulus keeps `a*x + c` inside `i64`).
const LCG_A: i64 = 1_103_515_245;
const LCG_C: i64 = 12_345;
const LCG_M: i64 = 1 << 31;

/// Build EMBAR at approximately `target_bytes` (the deviate table).
pub fn build(target_bytes: u64) -> Workload {
    let n = ((target_bytes / 8).max(4096) / 2 * 2) as i64; // even
    build_sized(n, 2)
}

/// Build EMBAR with an explicit table length and iteration count.
pub fn build_sized(n: i64, iters: i64) -> Workload {
    assert!(n % 2 == 0, "table length must be even (pairs)");
    let mut p = Program::new("EMBAR");
    let u = p.array("u", ElemType::F64, vec![n]);
    let result = p.array("result", ElemType::F64, vec![8]);
    let it = p.fresh_var();
    let i = p.fresh_var();
    let j = p.fresh_var();
    let x = p.fresh_iscalar();
    let sa = p.fresh_fscalar(); // Gaussian-x sum
    let sb = p.fresh_fscalar(); // Gaussian-y sum
    let nacc = p.fresh_fscalar(); // accepted count
    let ta = p.fresh_fscalar();
    let tb = p.fresh_fscalar();
    let tt = p.fresh_fscalar();
    let ts = p.fresh_fscalar();

    let uref =
        |v: usize, scale: i64, off: i64| ArrayRef::affine(u, vec![var(v).scale(scale).offset(off)]);

    p.body = vec![
        Stmt::LetF {
            dst: sa,
            value: Expr::ConstF(0.0),
        },
        Stmt::LetF {
            dst: sb,
            value: Expr::ConstF(0.0),
        },
        Stmt::LetF {
            dst: nacc,
            value: Expr::ConstF(0.0),
        },
        Stmt::for_(
            it,
            lin(0),
            lin(iters),
            1,
            vec![
                // Seed depends on the outer iteration.
                Stmt::LetI {
                    dst: x,
                    value: Expr::Lin(var(it).scale(7919).offset(271_828_183)),
                },
                // Generate the table: x = (a*x + c) mod m; u[i] = x/m.
                Stmt::for_(
                    i,
                    lin(0),
                    lin(n),
                    1,
                    vec![
                        Stmt::LetI {
                            dst: x,
                            value: Expr::bin(
                                oocp_ir::BinOp::Rem,
                                Expr::add(
                                    Expr::mul(Expr::Lin(lin(LCG_A)), Expr::ScalarI(x)),
                                    Expr::Lin(lin(LCG_C)),
                                ),
                                Expr::Lin(lin(LCG_M)),
                            ),
                        },
                        Stmt::Store {
                            dst: uref(i, 1, 0),
                            value: Expr::mul(
                                Expr::ToF(Box::new(Expr::ScalarI(x))),
                                Expr::ConstF(1.0 / LCG_M as f64),
                            ),
                        },
                    ],
                ),
                // Consume pairs with the polar acceptance test.
                Stmt::for_(
                    j,
                    lin(0),
                    lin(n / 2),
                    1,
                    vec![
                        Stmt::LetF {
                            dst: ta,
                            value: Expr::sub(
                                Expr::mul(Expr::ConstF(2.0), Expr::LoadF(uref(j, 2, 0))),
                                Expr::ConstF(1.0),
                            ),
                        },
                        Stmt::LetF {
                            dst: tb,
                            value: Expr::sub(
                                Expr::mul(Expr::ConstF(2.0), Expr::LoadF(uref(j, 2, 1))),
                                Expr::ConstF(1.0),
                            ),
                        },
                        Stmt::LetF {
                            dst: tt,
                            value: Expr::add(
                                Expr::mul(Expr::ScalarF(ta), Expr::ScalarF(ta)),
                                Expr::mul(Expr::ScalarF(tb), Expr::ScalarF(tb)),
                            ),
                        },
                        Stmt::If {
                            cond: Cond {
                                lhs: Expr::ScalarF(tt),
                                op: CmpOp::Le,
                                rhs: Expr::ConstF(1.0),
                            },
                            then_: vec![Stmt::If {
                                cond: Cond {
                                    lhs: Expr::ScalarF(tt),
                                    op: CmpOp::Gt,
                                    rhs: Expr::ConstF(0.0),
                                },
                                then_: vec![
                                    // s = sqrt(-2 ln t / t)
                                    Stmt::LetF {
                                        dst: ts,
                                        value: Expr::un(
                                            UnOp::Sqrt,
                                            Expr::div(
                                                Expr::mul(
                                                    Expr::ConstF(-2.0),
                                                    Expr::un(UnOp::Ln, Expr::ScalarF(tt)),
                                                ),
                                                Expr::ScalarF(tt),
                                            ),
                                        ),
                                    },
                                    Stmt::LetF {
                                        dst: sa,
                                        value: Expr::add(
                                            Expr::ScalarF(sa),
                                            Expr::mul(Expr::ScalarF(ta), Expr::ScalarF(ts)),
                                        ),
                                    },
                                    Stmt::LetF {
                                        dst: sb,
                                        value: Expr::add(
                                            Expr::ScalarF(sb),
                                            Expr::mul(Expr::ScalarF(tb), Expr::ScalarF(ts)),
                                        ),
                                    },
                                    Stmt::LetF {
                                        dst: nacc,
                                        value: Expr::add(Expr::ScalarF(nacc), Expr::ConstF(1.0)),
                                    },
                                ],
                                else_: vec![],
                            }],
                            else_: vec![],
                        },
                    ],
                ),
            ],
        ),
        Stmt::Store {
            dst: ArrayRef::affine(result, vec![lin(0)]),
            value: Expr::ScalarF(sa),
        },
        Stmt::Store {
            dst: ArrayRef::affine(result, vec![lin(1)]),
            value: Expr::ScalarF(sb),
        },
        Stmt::Store {
            dst: ArrayRef::affine(result, vec![lin(2)]),
            value: Expr::ScalarF(nacc),
        },
    ];

    Workload::new(
        App::Embar,
        p,
        vec![],
        Box::new(move |prog, binds, data, _seed| {
            // The table is generated in-program; just zero it and the
            // results (the paper's EMBAR likewise needs no input file).
            crate::util::fill_f64(prog, binds, data, u, |_| 0.0);
            crate::util::fill_f64(prog, binds, data, result, |_| 0.0);
        }),
        Box::new(move |_prog, binds, data| {
            // Replay the exact arithmetic in Rust and compare.
            let (mut sa, mut sb, mut na) = (0.0f64, 0.0f64, 0.0f64);
            for it in 0..iters {
                // The table is consumed in order, a pair at a time, so
                // the replay draws it as it goes instead of holding
                // `n` doubles beside the machine's own copy.
                let mut x = it * 7919 + 271_828_183;
                let mut draw = || {
                    x = (LCG_A * x + LCG_C) % LCG_M;
                    x as f64 * (1.0 / LCG_M as f64)
                };
                for _ in 0..n / 2 {
                    let a = 2.0 * draw() - 1.0;
                    let b = 2.0 * draw() - 1.0;
                    let t = a * a + b * b;
                    if t <= 1.0 && t > 0.0 {
                        let s = (-2.0 * t.ln() / t).sqrt();
                        sa += a * s;
                        sb += b * s;
                        na += 1.0;
                    }
                }
            }
            let got_sa = crate::util::peek_f(binds, data, result, 0);
            let got_sb = crate::util::peek_f(binds, data, result, 1);
            let got_n = crate::util::peek_f(binds, data, result, 2);
            if !close(got_sa, sa, 1e-9) || !close(got_sb, sb, 1e-9) {
                return Err(format!(
                    "gaussian sums mismatch: got ({got_sa}, {got_sb}), want ({sa}, {sb})"
                ));
            }
            if got_n != na {
                return Err(format!("acceptance count mismatch: {got_n} != {na}"));
            }
            // Sanity: the acceptance rate of the polar method is pi/4.
            let rate = na / (iters as f64 * (n / 2) as f64);
            if (rate - std::f64::consts::FRAC_PI_4).abs() > 0.05 {
                return Err(format!("implausible acceptance rate {rate}"));
            }
            Ok(())
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocp_ir::{run_program, ArrayBinding, CostModel, MemVm};

    #[test]
    fn embar_matches_rust_replay() {
        let w = build_sized(20_000, 2);
        let (binds, bytes) = ArrayBinding::sequential(&w.prog, 4096);
        let mut vm = MemVm::new(bytes, 4096);
        w.init(&binds, &mut vm, 7);
        run_program(&w.prog, &binds, &w.param_values, CostModel::free(), &mut vm);
        w.verify(&binds, &vm).expect("EMBAR verification");
    }

    #[test]
    fn build_target_is_table_dominated() {
        let w = build(2 << 20);
        assert!(w.data_bytes() >= 2 << 20);
        assert!(w.data_bytes() < (2 << 20) + 65536);
    }
}
