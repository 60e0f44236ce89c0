//! Loop normalization: rewrite counted loops to start at zero.
//!
//! Tiled loop nests put the tile index in the *bounds* of the inner
//! loops rather than in the subscripts (`for j = j0 to j0+B { ...t[j]...
//! }`), which hides the tile variable from linear subscript analysis —
//! `coeff(j0)` is zero even though the reference clearly advances with
//! the tile. The standard fix (and what SUIF's front end did for the
//! paper's compiler) is normalization: substitute `j -> j' + j0` so the
//! loop runs `j' = 0..B` and the subscripts become `t[j' + j0]`, making
//! every induction variable visible to locality analysis.
//!
//! Only forward (positive-step) loops with a non-trivial lower bound are
//! rewritten; the variable id is reused (the substitution is pure), so
//! no fresh variables are needed. Loops with negative steps or an
//! existing `hi_min` are left untouched — the former would flip
//! direction semantics, and the latter only occur in compiler output.

use oocp_ir::{lin, var, Expr, LinExpr, Loop, Program, Stmt, Sym};

use crate::transform::subst_ref;

/// Normalize every eligible loop in the program (pure; returns a copy).
pub fn normalize_loops(prog: &Program) -> Program {
    let mut out = prog.clone();
    out.body = norm_block(&prog.body);
    out
}

fn norm_block(stmts: &[Stmt]) -> Vec<Stmt> {
    stmts.iter().map(norm_stmt).collect()
}

fn norm_stmt(s: &Stmt) -> Stmt {
    match s {
        Stmt::For(l) => {
            let body = norm_block(&l.body);
            let trivial = l.lo.as_const() == Some(0);
            if l.step <= 0 || l.hi_min.is_some() || trivial {
                return Stmt::For(Loop {
                    var: l.var,
                    lo: l.lo.clone(),
                    hi: l.hi.clone(),
                    hi_min: l.hi_min.clone(),
                    step: l.step,
                    body,
                });
            }
            // v runs lo..hi  =>  v' runs 0..(hi-lo), uses become v'+lo.
            let shifted = var(l.var).add(&l.lo);
            let body = subst_block(&body, l.var, &shifted);
            Stmt::For(Loop {
                var: l.var,
                lo: lin(0),
                hi: l.hi.sub(&l.lo),
                hi_min: None,
                step: l.step,
                body,
            })
        }
        Stmt::If { cond, then_, else_ } => Stmt::If {
            cond: cond.clone(),
            then_: norm_block(then_),
            else_: norm_block(else_),
        },
        other => other.clone(),
    }
}

fn subst_lin(e: &LinExpr, v: usize, with: &LinExpr) -> LinExpr {
    e.subst(Sym::Var(v), with)
}

fn subst_expr(e: &Expr, v: usize, with: &LinExpr) -> Expr {
    match e {
        Expr::LoadF(r) => Expr::LoadF(subst_ref(r, v, with)),
        Expr::LoadI(r) => Expr::LoadI(subst_ref(r, v, with)),
        Expr::Lin(l) => Expr::Lin(subst_lin(l, v, with)),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(subst_expr(a, v, with)),
            Box::new(subst_expr(b, v, with)),
        ),
        Expr::Un(op, a) => Expr::Un(*op, Box::new(subst_expr(a, v, with))),
        Expr::ToF(a) => Expr::ToF(Box::new(subst_expr(a, v, with))),
        Expr::ToI(a) => Expr::ToI(Box::new(subst_expr(a, v, with))),
        other => other.clone(),
    }
}

fn subst_block(stmts: &[Stmt], v: usize, with: &LinExpr) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::For(l) => {
                // Shadowing cannot occur (fresh ids per loop), so the
                // substitution flows through bounds and body alike.
                debug_assert_ne!(l.var, v, "loop variable ids must be unique");
                Stmt::For(Loop {
                    var: l.var,
                    lo: subst_lin(&l.lo, v, with),
                    hi: subst_lin(&l.hi, v, with),
                    hi_min: l.hi_min.as_ref().map(|m| subst_lin(m, v, with)),
                    step: l.step,
                    body: subst_block(&l.body, v, with),
                })
            }
            Stmt::Store { dst, value } => Stmt::Store {
                dst: subst_ref(dst, v, with),
                value: subst_expr(value, v, with),
            },
            Stmt::LetF { dst, value } => Stmt::LetF {
                dst: *dst,
                value: subst_expr(value, v, with),
            },
            Stmt::LetI { dst, value } => Stmt::LetI {
                dst: *dst,
                value: subst_expr(value, v, with),
            },
            Stmt::If { cond, then_, else_ } => Stmt::If {
                cond: oocp_ir::Cond {
                    lhs: subst_expr(&cond.lhs, v, with),
                    op: cond.op,
                    rhs: subst_expr(&cond.rhs, v, with),
                },
                then_: subst_block(then_, v, with),
                else_: subst_block(else_, v, with),
            },
            Stmt::Prefetch { target, pages } => Stmt::Prefetch {
                target: oocp_ir::HintTarget {
                    target: subst_ref(&target.target, v, with),
                },
                pages: *pages,
            },
            Stmt::Release { target, pages } => Stmt::Release {
                target: oocp_ir::HintTarget {
                    target: subst_ref(&target.target, v, with),
                },
                pages: *pages,
            },
            Stmt::PrefetchRelease {
                pf,
                pf_pages,
                rel,
                rel_pages,
            } => Stmt::PrefetchRelease {
                pf: oocp_ir::HintTarget {
                    target: subst_ref(&pf.target, v, with),
                },
                pf_pages: *pf_pages,
                rel: oocp_ir::HintTarget {
                    target: subst_ref(&rel.target, v, with),
                },
                rel_pages: *rel_pages,
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocp_ir::{
        param, run_program, ArrayBinding, ArrayData, ArrayRef, CostModel, ElemType, Index, MemVm,
    };

    /// A tiled copy: for i0 = 0..n step b { for i = i0..i0+b { y[i]=x[i] } }
    fn tiled(n: i64, b: i64) -> Program {
        let mut p = Program::new("tiled");
        let x = p.array("x", ElemType::F64, vec![n]);
        let y = p.array("y", ElemType::F64, vec![n]);
        let i0 = p.fresh_var();
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i0,
            lin(0),
            lin(n),
            b,
            vec![Stmt::for_(
                i,
                var(i0),
                var(i0).offset(b),
                1,
                vec![Stmt::Store {
                    dst: ArrayRef::affine(y, vec![var(i)]),
                    value: Expr::LoadF(ArrayRef::affine(x, vec![var(i)])),
                }],
            )],
        )];
        p
    }

    #[test]
    fn normalization_exposes_tile_variables() {
        let p = tiled(4096, 64);
        let n = normalize_loops(&p);
        // Inner loop now runs 0..64 and the subscript mentions i0.
        let Stmt::For(outer) = &n.body[0] else {
            panic!()
        };
        let Stmt::For(inner) = &outer.body[0] else {
            panic!()
        };
        assert_eq!(inner.lo.as_const(), Some(0));
        assert_eq!(inner.hi.as_const(), Some(64));
        let Stmt::Store { dst, .. } = &inner.body[0] else {
            panic!()
        };
        let Index::Lin(sub) = &dst.idx[0] else {
            panic!()
        };
        assert_eq!(sub.coeff(Sym::Var(outer.var)), 1, "tile var visible");
        assert_eq!(sub.coeff(Sym::Var(inner.var)), 1);
    }

    #[test]
    fn normalization_preserves_semantics() {
        let p = tiled(1 << 12, 32);
        let n = normalize_loops(&p);
        let (binds, bytes) = ArrayBinding::sequential(&p, 4096);
        let mut a = MemVm::new(bytes, 4096);
        let mut b = MemVm::new(bytes, 4096);
        for e in 0..(1u64 << 12) {
            a.poke_f64(binds[0].base + e * 8, e as f64);
            b.poke_f64(binds[0].base + e * 8, e as f64);
        }
        run_program(&p, &binds, &[], CostModel::free(), &mut a);
        run_program(&n, &binds, &[], CostModel::free(), &mut b);
        assert_eq!(a.bytes(), b.bytes());
    }

    #[test]
    fn symbolic_and_backward_loops_are_handled() {
        let mut p = Program::new("mix");
        let x = p.array("x", ElemType::F64, vec![256]);
        let np = p.param("n");
        let i = p.fresh_var();
        let j = p.fresh_var();
        // for i = n downto -1 (backward: untouched) containing
        // for j = 5 to 10 (normalized to 0..5 with +5 uses).
        p.body = vec![Stmt::for_(
            i,
            param(np),
            lin(-1),
            -1,
            vec![Stmt::for_(
                j,
                lin(5),
                lin(10),
                1,
                vec![Stmt::Store {
                    dst: ArrayRef::affine(x, vec![var(j).scale(2)]),
                    value: Expr::Lin(var(i)),
                }],
            )],
        )];
        let n = normalize_loops(&p);
        let Stmt::For(outer) = &n.body[0] else {
            panic!()
        };
        assert_eq!(outer.step, -1, "backward loop untouched");
        assert_eq!(outer.lo, param(np));
        let Stmt::For(inner) = &outer.body[0] else {
            panic!()
        };
        assert_eq!(inner.lo.as_const(), Some(0));
        assert_eq!(inner.hi.as_const(), Some(5));
        let Stmt::Store { dst, .. } = &inner.body[0] else {
            panic!()
        };
        let Index::Lin(sub) = &dst.idx[0] else {
            panic!()
        };
        // x[2j] with j -> j'+5 becomes x[2j' + 10].
        assert_eq!(sub.c, 10);
        // Semantics check with n = 7.
        let (binds, bytes) = ArrayBinding::sequential(&p, 4096);
        let mut a = MemVm::new(bytes, 4096);
        let mut b = MemVm::new(bytes, 4096);
        run_program(&p, &binds, &[7], CostModel::free(), &mut a);
        run_program(&n, &binds, &[7], CostModel::free(), &mut b);
        assert_eq!(a.bytes(), b.bytes());
    }

    #[test]
    fn loop_bounds_depending_on_outer_vars_normalize_transitively() {
        // Triangular: for i = 0..n { for j = i..n } — j normalizes to
        // 0..(n-i) with uses j+i.
        let mut p = Program::new("tri");
        let x = p.array("x", ElemType::F64, vec![64 * 64]);
        let i = p.fresh_var();
        let j = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(64),
            1,
            vec![Stmt::for_(
                j,
                var(i),
                lin(64),
                1,
                vec![Stmt::Store {
                    dst: ArrayRef::affine(x, vec![var(i).scale(64).add(&var(j))]),
                    value: Expr::ConstF(1.0),
                }],
            )],
        )];
        let n = normalize_loops(&p);
        let (binds, bytes) = ArrayBinding::sequential(&p, 4096);
        let mut a = MemVm::new(bytes, 4096);
        let mut b = MemVm::new(bytes, 4096);
        run_program(&p, &binds, &[], CostModel::free(), &mut a);
        run_program(&n, &binds, &[], CostModel::free(), &mut b);
        assert_eq!(a.bytes(), b.bytes());
    }
}
