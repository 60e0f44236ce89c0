//! Interpreter operator-coverage tests: every IR operator and statement
//! form, exercised end to end with value checks.

use oocp::ir::{
    lin, param, run_program, var, ArrayBinding, ArrayData, ArrayRef, BinOp, CmpOp, Cond, CostModel,
    ElemType, Expr, LinExpr, MemVm, Program, Stmt, Sym, UnOp,
};

/// Build a program that stores `expr` into `out[slot]` and run it.
fn eval_expr(build: impl FnOnce(&mut Program) -> Expr) -> f64 {
    let mut p = Program::new("op");
    let out = p.array("out", ElemType::F64, vec![4]);
    let e = build(&mut p);
    // The builder may have pushed setup statements; append the store.
    p.body.push(Stmt::Store {
        dst: ArrayRef::affine(out, vec![lin(0)]),
        value: e,
    });
    let (binds, bytes) = ArrayBinding::sequential(&p, 4096);
    let mut vm = MemVm::new(bytes, 4096);
    run_program(&p, &binds, &[], CostModel::free(), &mut vm);
    vm.peek_f64(binds[out].base)
}

fn eval_int(build: impl FnOnce(&mut Program) -> Expr) -> i64 {
    let mut p = Program::new("op");
    let out = p.array("out", ElemType::I64, vec![4]);
    let e = build(&mut p);
    p.body.push(Stmt::Store {
        dst: ArrayRef::affine(out, vec![lin(0)]),
        value: e,
    });
    let (binds, bytes) = ArrayBinding::sequential(&p, 4096);
    let mut vm = MemVm::new(bytes, 4096);
    run_program(&p, &binds, &[], CostModel::free(), &mut vm);
    vm.peek_i64(binds[out].base)
}

#[test]
fn float_binops() {
    assert_eq!(
        eval_expr(|_| Expr::add(Expr::ConstF(2.0), Expr::ConstF(3.0))),
        5.0
    );
    assert_eq!(
        eval_expr(|_| Expr::sub(Expr::ConstF(2.0), Expr::ConstF(3.0))),
        -1.0
    );
    assert_eq!(
        eval_expr(|_| Expr::mul(Expr::ConstF(2.5), Expr::ConstF(4.0))),
        10.0
    );
    assert_eq!(
        eval_expr(|_| Expr::div(Expr::ConstF(1.0), Expr::ConstF(4.0))),
        0.25
    );
    assert_eq!(
        eval_expr(|_| Expr::bin(BinOp::Min, Expr::ConstF(2.0), Expr::ConstF(-3.0))),
        -3.0
    );
    assert_eq!(
        eval_expr(|_| Expr::bin(BinOp::Max, Expr::ConstF(2.0), Expr::ConstF(-3.0))),
        2.0
    );
    assert_eq!(
        eval_expr(|_| Expr::bin(BinOp::Rem, Expr::ConstF(7.5), Expr::ConstF(2.0))),
        1.5
    );
}

#[test]
fn int_binops() {
    let l = |n| Expr::Lin(lin(n));
    assert_eq!(eval_int(|_| Expr::bin(BinOp::Add, l(7), l(-3))), 4);
    assert_eq!(eval_int(|_| Expr::bin(BinOp::Sub, l(7), l(-3))), 10);
    assert_eq!(eval_int(|_| Expr::bin(BinOp::Mul, l(7), l(-3))), -21);
    assert_eq!(eval_int(|_| Expr::bin(BinOp::Div, l(7), l(2))), 3);
    assert_eq!(eval_int(|_| Expr::bin(BinOp::Rem, l(7), l(3))), 1);
    assert_eq!(eval_int(|_| Expr::bin(BinOp::Min, l(7), l(3))), 3);
    assert_eq!(eval_int(|_| Expr::bin(BinOp::Max, l(7), l(3))), 7);
}

/// Integer arithmetic wraps in every operator, in debug and release
/// alike: data in a program must not be able to abort the interpreter.
#[test]
fn integer_edge_cases_wrap() {
    let l = |n| Expr::Lin(lin(n));
    let (min, max) = (i64::MIN, i64::MAX);
    assert_eq!(eval_int(|_| Expr::bin(BinOp::Add, l(max), l(1))), min);
    assert_eq!(eval_int(|_| Expr::bin(BinOp::Sub, l(min), l(1))), max);
    assert_eq!(eval_int(|_| Expr::bin(BinOp::Mul, l(max), l(2))), -2);
    assert_eq!(eval_int(|_| Expr::bin(BinOp::Div, l(min), l(-1))), min);
    assert_eq!(eval_int(|_| Expr::bin(BinOp::Rem, l(min), l(-1))), 0);
    assert_eq!(eval_int(|_| Expr::un(UnOp::Neg, l(min))), min);
    assert_eq!(eval_int(|_| Expr::un(UnOp::Abs, l(min))), min);
}

/// A linear form's `+` and `*` wrap too, whether it is a value, a loop
/// bound or (clamped, in a hint) a subscript.
#[test]
fn linear_forms_wrap() {
    let mut p = Program::new("linwrap");
    let out = p.array("out", ElemType::I64, vec![4]);
    let one = p.param("one");
    let two = p.param("two");
    let i = p.fresh_var();
    let sum = LinExpr {
        c: i64::MAX,
        terms: vec![(1, Sym::Param(one))],
    };
    let product = LinExpr {
        c: 0,
        terms: vec![(i64::MAX, Sym::Param(two))],
    };
    p.body = vec![
        Stmt::Store {
            dst: ArrayRef::affine(out, vec![lin(0)]),
            value: Expr::Lin(sum.clone()),
        },
        Stmt::Store {
            dst: ArrayRef::affine(out, vec![lin(1)]),
            value: Expr::Lin(product.clone()),
        },
        // i64::MAX + 1 wraps below zero: the loop does not run.
        Stmt::for_(
            i,
            lin(0),
            sum.clone(),
            1,
            vec![Stmt::Store {
                dst: ArrayRef::affine(out, vec![lin(2)]),
                value: Expr::Lin(lin(1)),
            }],
        ),
        // A wrapped hint subscript clamps like any other.
        Stmt::Prefetch {
            target: oocp::ir::HintTarget {
                target: ArrayRef::affine(out, vec![product]),
            },
            pages: 1,
        },
    ];
    let (binds, bytes) = ArrayBinding::sequential(&p, 4096);
    let mut vm = MemVm::new(bytes, 4096);
    let stats = run_program(&p, &binds, &[1, 2], CostModel::free(), &mut vm);
    assert_eq!(vm.peek_i64(binds[out].base), i64::MIN);
    assert_eq!(vm.peek_i64(binds[out].base + 8), -2);
    assert_eq!(stats.iters, 0);
    assert_eq!(vm.peek_i64(binds[out].base + 16), 0);
    assert_eq!(vm.prefetches, 1);
}

#[test]
fn mixed_operands_promote_to_float() {
    assert_eq!(
        eval_expr(|_| Expr::add(Expr::Lin(lin(2)), Expr::ConstF(0.5))),
        2.5
    );
}

#[test]
fn unary_ops() {
    assert_eq!(eval_expr(|_| Expr::un(UnOp::Neg, Expr::ConstF(3.5))), -3.5);
    assert_eq!(eval_expr(|_| Expr::un(UnOp::Abs, Expr::ConstF(-3.5))), 3.5);
    assert_eq!(eval_expr(|_| Expr::un(UnOp::Sqrt, Expr::ConstF(16.0))), 4.0);
    let ln_e = eval_expr(|_| Expr::un(UnOp::Ln, Expr::ConstF(std::f64::consts::E)));
    assert!((ln_e - 1.0).abs() < 1e-12);
    assert_eq!(eval_int(|_| Expr::un(UnOp::Neg, Expr::Lin(lin(5)))), -5);
    assert_eq!(eval_int(|_| Expr::un(UnOp::Abs, Expr::Lin(lin(-5)))), 5);
}

#[test]
fn conversions_truncate_and_promote() {
    assert_eq!(eval_int(|_| Expr::ToI(Box::new(Expr::ConstF(3.9)))), 3);
    assert_eq!(eval_int(|_| Expr::ToI(Box::new(Expr::ConstF(-3.9)))), -3);
    assert_eq!(eval_expr(|_| Expr::ToF(Box::new(Expr::Lin(lin(9))))), 9.0);
}

#[test]
fn integer_scalars_roundtrip() {
    let got = eval_int(|p| {
        let s = p.fresh_iscalar();
        p.body.push(Stmt::LetI {
            dst: s,
            value: Expr::Lin(lin(41)),
        });
        p.body.push(Stmt::LetI {
            dst: s,
            value: Expr::bin(BinOp::Add, Expr::ScalarI(s), Expr::Lin(lin(1))),
        });
        Expr::ScalarI(s)
    });
    assert_eq!(got, 42);
}

#[test]
fn all_comparison_operators() {
    for (op, expect) in [
        (CmpOp::Lt, true),
        (CmpOp::Le, true),
        (CmpOp::Gt, false),
        (CmpOp::Ge, false),
        (CmpOp::Eq, false),
        (CmpOp::Ne, true),
    ] {
        let mut p = Program::new("cmp");
        let out = p.array("out", ElemType::I64, vec![1]);
        p.body = vec![Stmt::If {
            cond: Cond {
                lhs: Expr::Lin(lin(1)),
                op,
                rhs: Expr::Lin(lin(2)),
            },
            then_: vec![Stmt::Store {
                dst: ArrayRef::affine(out, vec![lin(0)]),
                value: Expr::Lin(lin(1)),
            }],
            else_: vec![Stmt::Store {
                dst: ArrayRef::affine(out, vec![lin(0)]),
                value: Expr::Lin(lin(-1)),
            }],
        }];
        let (binds, bytes) = ArrayBinding::sequential(&p, 4096);
        let mut vm = MemVm::new(bytes, 4096);
        run_program(&p, &binds, &[], CostModel::free(), &mut vm);
        assert_eq!(vm.peek_i64(binds[out].base) == 1, expect, "{op:?}");
    }
}

#[test]
fn float_comparison_in_conditionals() {
    let mut p = Program::new("fcmp");
    let out = p.array("out", ElemType::I64, vec![1]);
    p.body = vec![Stmt::If {
        cond: Cond {
            lhs: Expr::ConstF(1.5),
            op: CmpOp::Gt,
            rhs: Expr::Lin(lin(1)), // mixed: promotes to float
        },
        then_: vec![Stmt::Store {
            dst: ArrayRef::affine(out, vec![lin(0)]),
            value: Expr::Lin(lin(7)),
        }],
        else_: vec![],
    }];
    let (binds, bytes) = ArrayBinding::sequential(&p, 4096);
    let mut vm = MemVm::new(bytes, 4096);
    run_program(&p, &binds, &[], CostModel::free(), &mut vm);
    assert_eq!(vm.peek_i64(binds[out].base), 7);
}

#[test]
fn display_renders_every_statement_form() {
    let mut p = Program::new("display");
    let a = p.array("a", ElemType::F64, vec![10]);
    let b = p.array("b", ElemType::I64, vec![10]);
    let i = p.fresh_var();
    let fs = p.fresh_fscalar();
    let is = p.fresh_iscalar();
    let n = p.param("n");
    let aref = ArrayRef::affine(a, vec![var(i)]);
    let ind = ArrayRef {
        array: a,
        idx: vec![oocp::ir::Index::Ind {
            array: b,
            idx: vec![var(i)],
        }],
    };
    p.body = vec![
        Stmt::LetF {
            dst: fs,
            value: Expr::un(UnOp::Sqrt, Expr::ConstF(2.0)),
        },
        Stmt::LetI {
            dst: is,
            value: Expr::ToI(Box::new(Expr::ScalarF(fs))),
        },
        Stmt::for_min(
            i,
            lin(0),
            param(n),
            lin(10),
            1,
            vec![
                Stmt::Prefetch {
                    target: oocp::ir::HintTarget {
                        target: ind.clone(),
                    },
                    pages: 1,
                },
                Stmt::Release {
                    target: oocp::ir::HintTarget {
                        target: aref.clone(),
                    },
                    pages: 2,
                },
                Stmt::PrefetchRelease {
                    pf: oocp::ir::HintTarget {
                        target: aref.clone(),
                    },
                    pf_pages: 4,
                    rel: oocp::ir::HintTarget {
                        target: aref.clone(),
                    },
                    rel_pages: 4,
                },
                Stmt::If {
                    cond: Cond {
                        lhs: Expr::ScalarI(is),
                        op: CmpOp::Ne,
                        rhs: Expr::Lin(lin(0)),
                    },
                    then_: vec![Stmt::Store {
                        dst: aref.clone(),
                        value: Expr::bin(
                            BinOp::Min,
                            Expr::un(UnOp::Ln, Expr::ScalarF(fs)),
                            Expr::bin(BinOp::Max, Expr::ConstF(0.0), Expr::ConstF(1.0)),
                        ),
                    }],
                    else_: vec![Stmt::Store {
                        dst: aref.clone(),
                        value: Expr::bin(
                            BinOp::Rem,
                            Expr::ToF(Box::new(Expr::Lin(var(i)))),
                            Expr::ConstF(2.0),
                        ),
                    }],
                },
            ],
        ),
    ];
    let s = p.to_string();
    for needle in [
        "f0 = sqrt(2.0);",
        "n0 = (long)(f0);",
        "for (i0 = 0; i0 < min(P0, 10); i0++)",
        "prefetch(&a[b[i0]]);",
        "release_block(&a[i0], 2);",
        "prefetch_release_block(&a[i0], &a[i0], 4/*pf*/, 4/*rel*/);",
        "if (n0 != 0) {",
        "min(log(f0), max(0.0, 1.0))",
        "} else {",
        "(double)(i0) % 2.0",
    ] {
        assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
    }
}

#[test]
fn hi_min_bound_takes_effect_for_negative_steps() {
    // for (i = 9; i > max(-1, 4); i--) -> iterates 9..5
    let mut p = Program::new("negmin");
    let x = p.array("x", ElemType::I64, vec![10]);
    let i = p.fresh_var();
    p.body = vec![Stmt::for_min(
        i,
        lin(9),
        lin(-1),
        lin(4),
        -1,
        vec![Stmt::Store {
            dst: ArrayRef::affine(x, vec![var(i)]),
            value: Expr::Lin(lin(1)),
        }],
    )];
    let (binds, bytes) = ArrayBinding::sequential(&p, 4096);
    let mut vm = MemVm::new(bytes, 4096);
    let stats = run_program(&p, &binds, &[], CostModel::free(), &mut vm);
    assert_eq!(stats.iters, 5);
    assert_eq!(vm.peek_i64(binds[x].base + 5 * 8), 1);
    assert_eq!(vm.peek_i64(binds[x].base + 4 * 8), 0);
}
