//! Reference collection and locality analysis.

use oocp_ir::{ArrayRef, CostModel, Expr, Index, LinExpr, Loop, Program, Stmt, Sym};

/// Snapshot of one enclosing loop at a reference site.
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// Loop variable id.
    pub var: usize,
    /// Lower bound.
    pub lo: LinExpr,
    /// Upper bound (exclusive).
    pub hi: LinExpr,
    /// Step.
    pub step: i64,
    /// Trip count if statically known.
    pub trip: Option<i64>,
    /// Estimated nanoseconds per iteration (body + bookkeeping).
    pub est_iter_ns: u64,
}

/// An array reference with its analysis context.
#[derive(Clone, Debug)]
pub struct RefInfo {
    /// Referenced array.
    pub array: usize,
    /// Original subscripts.
    pub idx: Vec<Index>,
    /// Flattened element index as a linear form, when fully affine.
    pub flat: Option<LinExpr>,
    /// Whether the reference is a store destination.
    pub is_store: bool,
    /// Enclosing loops (within the nest), outermost first.
    pub path: Vec<usize>,
}

impl RefInfo {
    /// Elements advanced per iteration of the loop with variable `v`
    /// (only meaningful for affine references).
    pub fn stride_elems(&self, v: usize, step: i64) -> i64 {
        self.flat
            .as_ref()
            .map_or(0, |f| f.coeff(Sym::Var(v)) * step)
    }
}

/// A maximal loop nest (one top-level loop) and everything the planner
/// needs to know about it.
#[derive(Clone, Debug)]
pub struct NestInfo {
    /// Loops in the nest, indexed by loop variable id.
    pub loops: Vec<LoopInfo>,
    /// References collected from the nest.
    pub refs: Vec<RefInfo>,
}

impl NestInfo {
    /// Look up a loop's info by variable id.
    pub fn loop_by_var(&self, var: usize) -> Option<&LoopInfo> {
        self.loops.iter().find(|l| l.var == var)
    }
}

/// Compute the statically-known trip count of a loop.
pub fn trip_count(lo: &LinExpr, hi: &LinExpr, step: i64) -> Option<i64> {
    let span = hi.sub(lo).as_const()?;
    let trip = if step > 0 {
        (span + step - 1).div_euclid(step)
    } else {
        let span = -span;
        let s = -step;
        (span + s - 1).div_euclid(s)
    };
    Some(trip.max(0))
}

/// Flatten an all-affine subscript list into a single element-index
/// linear form (row-major). Returns `None` if any subscript is indirect.
pub fn flatten(prog: &Program, array: usize, idx: &[Index]) -> Option<LinExpr> {
    let decl = &prog.arrays[array];
    let mut flat = LinExpr::constant(0);
    for (d, ix) in idx.iter().enumerate() {
        match ix {
            Index::Lin(e) => flat = flat.add(&e.scale(decl.stride(d))),
            Index::Ind { .. } => return None,
        }
    }
    Some(flat)
}

/// Estimated cost in nanoseconds of evaluating an expression once.
fn est_expr_ns(e: &Expr, cost: &CostModel) -> f64 {
    let mut ns = 0.0;
    e.visit(&mut |n| match n {
        Expr::LoadF(r) | Expr::LoadI(r) => {
            ns += cost.ns_per_access as f64 + r.idx.len() as f64 * cost.ns_per_iop as f64;
            // Indirect subscripts add the inner load.
            for ix in &r.idx {
                if ix.is_indirect() {
                    ns += cost.ns_per_access as f64;
                }
            }
        }
        Expr::Bin(..) => ns += cost.ns_per_flop as f64,
        Expr::Un(..) => ns += cost.ns_per_flop as f64,
        Expr::ToF(_) | Expr::ToI(_) => ns += cost.ns_per_iop as f64,
        Expr::Lin(l) => ns += l.terms.len() as f64 * cost.ns_per_iop as f64,
        _ => {}
    });
    ns
}

/// Estimated cost of executing a statement block once.
pub fn est_block_ns(stmts: &[Stmt], cost: &CostModel, assumed_trip: i64) -> f64 {
    let mut ns = 0.0;
    for s in stmts {
        match s {
            Stmt::For(l) => {
                let trip = trip_count(&l.lo, &l.hi, l.step).unwrap_or(assumed_trip);
                ns += trip as f64
                    * (cost.ns_per_iter as f64 + est_block_ns(&l.body, cost, assumed_trip));
            }
            Stmt::Store { dst, value } => {
                ns += est_expr_ns(value, cost)
                    + cost.ns_per_access as f64
                    + dst.idx.len() as f64 * cost.ns_per_iop as f64;
            }
            Stmt::LetF { value, .. } | Stmt::LetI { value, .. } => {
                ns += est_expr_ns(value, cost);
            }
            Stmt::If { cond, then_, else_ } => {
                ns += est_expr_ns(&cond.lhs, cost) + est_expr_ns(&cond.rhs, cost);
                let t = est_block_ns(then_, cost, assumed_trip);
                let e = est_block_ns(else_, cost, assumed_trip);
                ns += t.max(e);
            }
            Stmt::Prefetch { .. } | Stmt::Release { .. } | Stmt::PrefetchRelease { .. } => {
                ns += cost.ns_per_hint_issue as f64;
            }
        }
    }
    ns
}

/// Collect every maximal loop nest in the program.
///
/// References inside indirect subscripts are collected as affine
/// references in their own right (the `b[i]` of `a[b[i]]` must itself be
/// prefetched).
pub fn collect_nests(prog: &Program, cost: &CostModel, assumed_trip: i64) -> Vec<NestInfo> {
    let mut nests = Vec::new();
    for s in &prog.body {
        if let Stmt::For(l) = s {
            let mut nest = NestInfo {
                loops: Vec::new(),
                refs: Vec::new(),
            };
            walk_loop(prog, l, cost, assumed_trip, &mut Vec::new(), &mut nest);
            nests.push(nest);
        }
    }
    nests
}

fn walk_loop(
    prog: &Program,
    l: &Loop,
    cost: &CostModel,
    assumed_trip: i64,
    path: &mut Vec<usize>,
    nest: &mut NestInfo,
) {
    let info = LoopInfo {
        var: l.var,
        lo: l.lo.clone(),
        hi: l.hi.clone(),
        step: l.step,
        trip: trip_count(&l.lo, &l.hi, l.step),
        est_iter_ns: (cost.ns_per_iter as f64 + est_block_ns(&l.body, cost, assumed_trip)).max(1.0)
            as u64,
    };
    nest.loops.push(info);
    path.push(l.var);
    walk_block(prog, &l.body, cost, assumed_trip, path, nest);
    path.pop();
}

fn walk_block(
    prog: &Program,
    stmts: &[Stmt],
    cost: &CostModel,
    assumed_trip: i64,
    path: &mut Vec<usize>,
    nest: &mut NestInfo,
) {
    for s in stmts {
        match s {
            Stmt::For(l) => walk_loop(prog, l, cost, assumed_trip, path, nest),
            Stmt::Store { dst, value } => {
                record_ref(prog, dst, true, path, nest);
                record_expr_refs(prog, value, path, nest);
            }
            Stmt::LetF { value, .. } | Stmt::LetI { value, .. } => {
                record_expr_refs(prog, value, path, nest);
            }
            Stmt::If { cond, then_, else_ } => {
                record_expr_refs(prog, &cond.lhs, path, nest);
                record_expr_refs(prog, &cond.rhs, path, nest);
                walk_block(prog, then_, cost, assumed_trip, path, nest);
                walk_block(prog, else_, cost, assumed_trip, path, nest);
            }
            // Pre-existing hints are not references.
            Stmt::Prefetch { .. } | Stmt::Release { .. } | Stmt::PrefetchRelease { .. } => {}
        }
    }
}

fn record_expr_refs(prog: &Program, e: &Expr, path: &[usize], nest: &mut NestInfo) {
    e.visit(&mut |n| {
        if let Expr::LoadF(r) | Expr::LoadI(r) = n {
            record_ref(prog, r, false, path, nest);
        }
    });
}

fn record_ref(prog: &Program, r: &ArrayRef, is_store: bool, path: &[usize], nest: &mut NestInfo) {
    // Indirect subscripts: the inner index expression is itself an
    // affine reference to the index array.
    for ix in &r.idx {
        if let Index::Ind { array, idx } = ix {
            let inner = RefInfo {
                array: *array,
                idx: idx.iter().cloned().map(Index::Lin).collect(),
                flat: flatten(
                    prog,
                    *array,
                    &idx.iter().cloned().map(Index::Lin).collect::<Vec<_>>(),
                ),
                is_store: false,
                path: path.to_vec(),
            };
            nest.refs.push(inner);
        }
    }
    nest.refs.push(RefInfo {
        array: r.array,
        idx: r.idx.clone(),
        flat: flatten(prog, r.array, &r.idx),
        is_store,
        path: path.to_vec(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocp_ir::{lin, param, var, ElemType};

    #[test]
    fn trip_count_constants() {
        assert_eq!(trip_count(&lin(0), &lin(10), 1), Some(10));
        assert_eq!(trip_count(&lin(0), &lin(10), 3), Some(4));
        assert_eq!(trip_count(&lin(9), &lin(-1), -1), Some(10));
        assert_eq!(trip_count(&lin(5), &lin(5), 1), Some(0));
        assert_eq!(trip_count(&lin(0), &param(0), 1), None);
    }

    #[test]
    fn trip_count_symbolic_span_that_cancels() {
        // [p, p+8) has constant span 8 even though bounds are symbolic.
        let lo = param(0);
        let hi = param(0).offset(8);
        assert_eq!(trip_count(&lo, &hi, 2), Some(4));
    }

    #[test]
    fn flatten_row_major() {
        let mut p = Program::new("t");
        let c = p.array("c", ElemType::F64, vec![10, 20]);
        let f = flatten(&p, c, &[Index::Lin(var(0)), Index::Lin(var(1).offset(3))]).unwrap();
        // i*20 + j + 3
        assert_eq!(f, var(0).scale(20).add(&var(1)).offset(3));
    }

    #[test]
    fn flatten_rejects_indirect() {
        let mut p = Program::new("t");
        let a = p.array("a", ElemType::F64, vec![10]);
        let b = p.array("b", ElemType::I64, vec![10]);
        let f = flatten(
            &p,
            a,
            &[Index::Ind {
                array: b,
                idx: vec![var(0)],
            }],
        );
        assert!(f.is_none());
    }

    fn nest_of(prog: &Program) -> NestInfo {
        collect_nests(prog, &CostModel::default(), 64)
            .into_iter()
            .next()
            .unwrap()
    }

    #[test]
    fn collects_refs_with_paths() {
        let mut p = Program::new("t");
        let x = p.array("x", ElemType::F64, vec![100]);
        let y = p.array("y", ElemType::F64, vec![100]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(100),
            1,
            vec![Stmt::Store {
                dst: ArrayRef::affine(y, vec![var(i)]),
                value: Expr::LoadF(ArrayRef::affine(x, vec![var(i)])),
            }],
        )];
        let nest = nest_of(&p);
        assert_eq!(nest.loops.len(), 1);
        assert_eq!(nest.refs.len(), 2);
        let store = nest.refs.iter().find(|r| r.is_store).unwrap();
        assert_eq!(store.array, y);
        assert_eq!(store.path, vec![i]);
    }

    #[test]
    fn indirect_ref_also_records_index_array() {
        let mut p = Program::new("t");
        let a = p.array("a", ElemType::F64, vec![100]);
        let b = p.array("b", ElemType::I64, vec![100]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(100),
            1,
            vec![Stmt::Store {
                dst: ArrayRef::affine(a, vec![var(i)]),
                value: Expr::LoadF(ArrayRef {
                    array: a,
                    idx: vec![Index::Ind {
                        array: b,
                        idx: vec![var(i)],
                    }],
                }),
            }],
        )];
        let nest = nest_of(&p);
        // Refs: store a[i], inner b[i], indirect a[b[i]].
        assert_eq!(nest.refs.len(), 3);
        assert!(nest.refs.iter().any(|r| r.array == b && r.flat.is_some()));
        assert!(nest.refs.iter().any(|r| r.array == a && r.flat.is_none()));
    }

    #[test]
    fn est_iter_ns_grows_with_inner_trips() {
        let mut p = Program::new("t");
        let x = p.array("x", ElemType::F64, vec![10_000]);
        let i = p.fresh_var();
        let j = p.fresh_var();
        let body = |n: i64, i: usize, j: usize, x: usize| {
            vec![Stmt::for_(
                i,
                lin(0),
                lin(10),
                1,
                vec![Stmt::for_(
                    j,
                    lin(0),
                    lin(n),
                    1,
                    vec![Stmt::Store {
                        dst: ArrayRef::affine(x, vec![var(j)]),
                        value: Expr::ConstF(0.0),
                    }],
                )],
            )]
        };
        p.body = body(10, i, j, x);
        let small = nest_of(&p).loops[0].est_iter_ns;
        p.body = body(1000, i, j, x);
        let large = nest_of(&p).loops[0].est_iter_ns;
        assert!(large > 50 * small);
    }

    #[test]
    fn stride_elems_accounts_for_step() {
        let mut p = Program::new("t");
        let c = p.array("c", ElemType::F64, vec![100, 100]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(100),
            2,
            vec![Stmt::Store {
                dst: ArrayRef::affine(c, vec![var(i), lin(0)]),
                value: Expr::ConstF(0.0),
            }],
        )];
        let nest = nest_of(&p);
        let r = &nest.refs[0];
        assert_eq!(r.stride_elems(i, 2), 200);
    }
}
