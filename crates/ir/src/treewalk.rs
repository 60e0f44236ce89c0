//! The statement-tree interpreter the bytecode replaced, kept as the
//! reference the differential oracle (`crate::oracle`) runs the
//! dispatch loop against. Test builds only.

use crate::exec::{ArrayBinding, ExecStats};
use crate::expr::{BinOp, CmpOp, Cond, Expr, LinExpr, Sym, UnOp};
use crate::program::{ArrayRef, ElemType, Index, Loop, Program, Stmt};
use crate::vm::{CostModel, PagedVm};
use oocp_obs::prof::{NoProf, ProfSink};

/// Runtime value.
#[derive(Clone, Copy, Debug)]
enum V {
    F(f64),
    I(i64),
}

impl V {
    fn as_f(self) -> f64 {
        match self {
            V::F(v) => v,
            V::I(v) => v as f64,
        }
    }

    fn as_i(self) -> i64 {
        match self {
            V::F(v) => v as i64,
            V::I(v) => v,
        }
    }
}

/// Interpreter state for one run.
///
/// Generic over a host-time [`ProfSink`] so the oracle can also hold
/// the lowered program's site brackets to the names, nesting and counts
/// of the probe sites below.
pub struct Executor<'a, M: PagedVm, P: ProfSink = NoProf> {
    prog: &'a Program,
    binds: &'a [ArrayBinding],
    params: &'a [i64],
    cost: CostModel,
    vm: &'a mut M,
    vars: Vec<i64>,
    fscalars: Vec<f64>,
    iscalars: Vec<i64>,
    pending_ns: u64,
    stats: ExecStats,
    prof: P,
    /// `for#<var>` site labels, formatted once here so the per-entry
    /// probe in [`Executor::exec_loop`] never allocates. Empty when the
    /// sink is inactive.
    loop_labels: Vec<String>,
}

impl<'a, M: PagedVm> Executor<'a, M, NoProf> {
    /// Prepare an execution of `prog`.
    ///
    /// # Panics
    ///
    /// Panics if the binding or parameter counts do not match the
    /// program, or if the program fails validation.
    pub fn new(
        prog: &'a Program,
        binds: &'a [ArrayBinding],
        params: &'a [i64],
        cost: CostModel,
        vm: &'a mut M,
    ) -> Self {
        Self::with_prof(prog, binds, params, cost, vm, NoProf)
    }
}

impl<'a, M: PagedVm, P: ProfSink> Executor<'a, M, P> {
    /// Like [`Executor::new`], but host time is attributed into `prof`.
    ///
    /// # Panics
    ///
    /// Panics if the binding or parameter counts do not match the
    /// program, or if the program fails validation.
    pub fn with_prof(
        prog: &'a Program,
        binds: &'a [ArrayBinding],
        params: &'a [i64],
        cost: CostModel,
        vm: &'a mut M,
        prof: P,
    ) -> Self {
        assert_eq!(
            binds.len(),
            prog.arrays.len(),
            "one binding per array required"
        );
        assert_eq!(
            params.len(),
            prog.params.len(),
            "one value per program parameter required"
        );
        let problems = prog.validate();
        assert!(
            problems.is_empty(),
            "invalid program {}: {}",
            prog.name,
            problems.join("; ")
        );
        let loop_labels = if P::ACTIVE {
            (0..prog.num_vars).map(|v| format!("for#{v}")).collect()
        } else {
            Vec::new()
        };
        Self {
            prog,
            binds,
            params,
            cost,
            vm,
            vars: vec![0; prog.num_vars],
            fscalars: vec![0.0; prog.num_fscalars],
            iscalars: vec![0; prog.num_iscalars],
            pending_ns: 0,
            stats: ExecStats::default(),
            prof,
            loop_labels,
        }
    }

    /// Execute the program to completion, returning dynamic counts.
    pub fn run(mut self) -> ExecStats {
        if P::ACTIVE {
            let prog = self.prog;
            self.prof.enter(&prog.name);
        }
        let body = &self.prog.body;
        self.exec_block(body);
        self.flush();
        if P::ACTIVE {
            self.prof.exit();
        }
        self.stats
    }

    fn flush(&mut self) {
        if self.pending_ns > 0 {
            self.vm.tick_user(self.pending_ns);
            self.pending_ns = 0;
        }
    }

    fn charge_iops(&mut self, n: u64) {
        self.stats.iops += n;
        self.pending_ns += self.cost.ns_per_iop * n;
    }

    fn charge_flop(&mut self) {
        self.stats.flops += 1;
        self.pending_ns += self.cost.ns_per_flop;
    }

    fn eval_lin(&mut self, e: &LinExpr) -> i64 {
        self.charge_iops(e.terms.len() as u64);
        e.terms.iter().fold(e.c, |acc, &(k, s)| {
            acc.wrapping_add(k.wrapping_mul(match s {
                Sym::Var(v) => self.vars[v],
                Sym::Param(p) => self.params[p],
            }))
        })
    }

    /// Compute the byte address of a reference.
    ///
    /// With `clamp`, every subscript (including indirect inner ones) is
    /// clamped into its dimension — used for hint targets, whose
    /// addresses may legally run past the iteration space. Without it,
    /// out-of-bounds subscripts panic (a kernel bug).
    fn ref_addr(&mut self, r: &ArrayRef, clamp: bool) -> u64 {
        if P::ACTIVE {
            self.prof.enter("op:addr");
        }
        let addr = self.ref_addr_inner(r, clamp);
        if P::ACTIVE {
            self.prof.exit();
        }
        addr
    }

    fn ref_addr_inner(&mut self, r: &ArrayRef, clamp: bool) -> u64 {
        let decl = &self.prog.arrays[r.array];
        let rank = decl.dims.len();
        let mut flat: i64 = 0;
        for (d, ix) in r.idx.iter().enumerate() {
            let mut sub = match ix {
                Index::Lin(e) => self.eval_lin(e),
                Index::Ind { array, idx } => {
                    // One timed load of the index array element.
                    let inner = ArrayRef::affine(*array, idx.clone());
                    let addr = self.ref_addr(&inner, clamp);
                    self.flush();
                    self.stats.loads += 1;
                    self.pending_ns += self.cost.ns_per_access;
                    self.vm.load_i64(addr)
                }
            };
            let dim = decl.dims[d];
            if clamp {
                sub = sub.clamp(0, dim - 1);
            } else {
                assert!(
                    (0..dim).contains(&sub),
                    "subscript {sub} out of range [0,{dim}) in dim {d} of array {} ({})",
                    decl.name,
                    self.prog.name
                );
            }
            flat += sub * decl.stride(d);
            self.charge_iops(if d + 1 < rank { 2 } else { 1 });
        }
        self.binds[r.array].base + flat as u64 * decl.elem.bytes()
    }

    fn load_ref(&mut self, r: &ArrayRef) -> V {
        if P::ACTIVE {
            self.prof.enter("op:load");
        }
        let elem = self.prog.arrays[r.array].elem;
        let addr = self.ref_addr(r, false);
        self.pending_ns += self.cost.ns_per_access;
        self.flush();
        self.stats.loads += 1;
        let v = match elem {
            ElemType::F64 => V::F(self.vm.load_f64(addr)),
            ElemType::I64 => V::I(self.vm.load_i64(addr)),
        };
        if P::ACTIVE {
            self.prof.exit();
        }
        v
    }

    fn eval(&mut self, e: &Expr) -> V {
        match e {
            Expr::LoadF(r) | Expr::LoadI(r) => self.load_ref(r),
            Expr::ScalarF(i) => V::F(self.fscalars[*i]),
            Expr::ScalarI(i) => V::I(self.iscalars[*i]),
            Expr::Lin(l) => V::I(self.eval_lin(l)),
            Expr::ConstF(v) => V::F(*v),
            Expr::Bin(op, a, b) => {
                let va = self.eval(a);
                let vb = self.eval(b);
                match (va, vb) {
                    (V::I(x), V::I(y)) => {
                        self.charge_iops(1);
                        V::I(match op {
                            BinOp::Add => x.wrapping_add(y),
                            BinOp::Sub => x.wrapping_sub(y),
                            BinOp::Mul => x.wrapping_mul(y),
                            BinOp::Div => {
                                assert!(y != 0, "integer division by zero");
                                x.wrapping_div(y)
                            }
                            BinOp::Rem => {
                                assert!(y != 0, "integer remainder by zero");
                                x.wrapping_rem(y)
                            }
                            BinOp::Min => x.min(y),
                            BinOp::Max => x.max(y),
                        })
                    }
                    _ => {
                        let (x, y) = (va.as_f(), vb.as_f());
                        self.charge_flop();
                        V::F(match op {
                            BinOp::Add => x + y,
                            BinOp::Sub => x - y,
                            BinOp::Mul => x * y,
                            BinOp::Div => x / y,
                            BinOp::Rem => x % y,
                            BinOp::Min => x.min(y),
                            BinOp::Max => x.max(y),
                        })
                    }
                }
            }
            Expr::Un(op, a) => {
                let v = self.eval(a);
                match (op, v) {
                    (UnOp::Neg, V::I(x)) => {
                        self.charge_iops(1);
                        V::I(x.wrapping_neg())
                    }
                    (UnOp::Abs, V::I(x)) => {
                        self.charge_iops(1);
                        V::I(x.wrapping_abs())
                    }
                    (op, v) => {
                        self.charge_flop();
                        let x = v.as_f();
                        V::F(match op {
                            UnOp::Neg => -x,
                            UnOp::Sqrt => x.sqrt(),
                            UnOp::Ln => x.ln(),
                            UnOp::Abs => x.abs(),
                        })
                    }
                }
            }
            Expr::ToF(a) => {
                let v = self.eval(a);
                self.charge_flop();
                V::F(v.as_f())
            }
            Expr::ToI(a) => {
                let v = self.eval(a);
                self.charge_iops(1);
                V::I(v.as_i())
            }
        }
    }

    fn eval_cond(&mut self, c: &Cond) -> bool {
        let l = self.eval(&c.lhs);
        let r = self.eval(&c.rhs);
        self.charge_iops(1);
        match (l, r) {
            (V::I(a), V::I(b)) => match c.op {
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
            },
            (a, b) => {
                let (a, b) = (a.as_f(), b.as_f());
                match c.op {
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                }
            }
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.exec(s);
        }
    }

    fn exec(&mut self, s: &Stmt) {
        if P::ACTIVE {
            // Loops get their own `for#<var>` site in `exec_loop`; every
            // other statement class is a site whose *self* time is the
            // expression-evaluation / dispatch work not claimed by an
            // `op:*` leaf below it.
            let label = match s {
                Stmt::For(_) => None,
                Stmt::Store { .. } => Some("stmt:store"),
                Stmt::LetF { .. } | Stmt::LetI { .. } => Some("stmt:let"),
                Stmt::If { .. } => Some("stmt:if"),
                Stmt::Prefetch { .. } => Some("stmt:prefetch"),
                Stmt::Release { .. } => Some("stmt:release"),
                Stmt::PrefetchRelease { .. } => Some("stmt:prefetch_release"),
            };
            if let Some(label) = label {
                self.prof.enter(label);
                self.exec_inner(s);
                self.prof.exit();
                return;
            }
        }
        self.exec_inner(s);
    }

    fn exec_inner(&mut self, s: &Stmt) {
        match s {
            Stmt::For(l) => self.exec_loop(l),
            Stmt::Store { dst, value } => {
                let v = self.eval(value);
                if P::ACTIVE {
                    self.prof.enter("op:store");
                }
                let elem = self.prog.arrays[dst.array].elem;
                let addr = self.ref_addr(dst, false);
                self.pending_ns += self.cost.ns_per_access;
                self.flush();
                self.stats.stores += 1;
                match elem {
                    ElemType::F64 => self.vm.store_f64(addr, v.as_f()),
                    ElemType::I64 => self.vm.store_i64(addr, v.as_i()),
                }
                if P::ACTIVE {
                    self.prof.exit();
                }
            }
            Stmt::LetF { dst, value } => {
                let v = self.eval(value);
                self.fscalars[*dst] = v.as_f();
            }
            Stmt::LetI { dst, value } => {
                let v = self.eval(value);
                self.iscalars[*dst] = v.as_i();
            }
            Stmt::If { cond, then_, else_ } => {
                if self.eval_cond(cond) {
                    self.exec_block(then_);
                } else {
                    self.exec_block(else_);
                }
            }
            Stmt::Prefetch { target, pages } => {
                let addr = self.ref_addr(&target.target, true);
                if P::ACTIVE {
                    self.prof.enter("op:hint");
                }
                self.pending_ns += self.cost.ns_per_hint_issue;
                self.flush();
                self.stats.prefetch_stmts += 1;
                self.stats.prefetch_pages += pages;
                self.vm.prefetch(addr, *pages);
                if P::ACTIVE {
                    self.prof.exit();
                }
            }
            Stmt::Release { target, pages } => {
                let addr = self.ref_addr(&target.target, true);
                if P::ACTIVE {
                    self.prof.enter("op:hint");
                }
                self.pending_ns += self.cost.ns_per_hint_issue;
                self.flush();
                self.stats.release_stmts += 1;
                self.vm.release(addr, *pages);
                if P::ACTIVE {
                    self.prof.exit();
                }
            }
            Stmt::PrefetchRelease {
                pf,
                pf_pages,
                rel,
                rel_pages,
            } => {
                let pf_addr = self.ref_addr(&pf.target, true);
                let rel_addr = self.ref_addr(&rel.target, true);
                if P::ACTIVE {
                    self.prof.enter("op:hint");
                }
                self.pending_ns += self.cost.ns_per_hint_issue;
                self.flush();
                self.stats.prefetch_stmts += 1;
                self.stats.release_stmts += 1;
                self.stats.prefetch_pages += pf_pages;
                self.vm
                    .prefetch_release(pf_addr, *pf_pages, rel_addr, *rel_pages);
                if P::ACTIVE {
                    self.prof.exit();
                }
            }
        }
    }

    fn exec_loop(&mut self, l: &Loop) {
        // One site per loop *entry*, not per iteration: a probe pair
        // inside the iteration latch would dominate what it measures.
        if P::ACTIVE {
            self.prof.enter(&self.loop_labels[l.var]);
        }
        // Bounds are computed once at loop entry, Fortran-style.
        let lo = self.eval_lin(&l.lo);
        let mut hi = self.eval_lin(&l.hi);
        if let Some(m) = &l.hi_min {
            let m = self.eval_lin(m);
            hi = if l.step > 0 { hi.min(m) } else { hi.max(m) };
        }
        let mut i = lo;
        loop {
            let more = if l.step > 0 { i < hi } else { i > hi };
            if !more {
                break;
            }
            self.vars[l.var] = i;
            self.stats.iters += 1;
            self.pending_ns += self.cost.ns_per_iter;
            self.exec_block(&l.body);
            i = i.wrapping_add(l.step);
        }
        if P::ACTIVE {
            self.prof.exit();
        }
    }
}
