//! The dispatch loop: executes lowered [`Code`] against a [`PagedVm`].
//!
//! All run state — program counter, both register files (loop frames
//! and reference addresses live in the integer one), the pending user
//! time and the dynamic counts — is the [`Vm`] struct; the loop itself
//! never recurses on the host stack. That is what a resumable
//! `step(budget)` needs and all it needs: stop between two ops, keep
//! the struct.

use oocp_obs::prof::ProfSink;

use crate::exec::ExecStats;
use crate::expr::CmpOp;
use crate::lower::{At, Charge, Code, LinPlan, LoopPlan, Op, Sub};
use crate::vm::PagedVm;

/// One run of a lowered program.
pub(crate) struct Vm<'c> {
    code: &'c Code<'c>,
    pc: usize,
    iregs: Vec<i64>,
    fregs: Vec<f64>,
    /// User nanoseconds charged since the last `tick_user`.
    pending_ns: u64,
    stats: ExecStats,
}

#[cfg(test)]
thread_local! {
    /// Entries into loops that have a hoisted copy: how many took it
    /// and how many fell back to the checked one. The oracle reads this
    /// to know its programs reach both.
    pub(crate) static HOISTS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

fn compare<T: PartialOrd>(cmp: CmpOp, a: T, b: T) -> bool {
    match cmp {
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    }
}

impl Code<'_> {
    #[inline]
    fn lin(&self, LinPlan { c, terms }: LinPlan, ir: &[i64]) -> i64 {
        terms.of(&self.terms).iter().fold(c, |acc, &(k, r)| {
            acc.wrapping_add(k.wrapping_mul(ir[r as usize]))
        })
    }

    /// Byte address of `refs[r]`: each subscript clamped into its
    /// dimension for a hint target, checked against it otherwise.
    #[inline(always)]
    fn resolve(&self, r: u32, ir: &[i64]) -> u64 {
        let plan = &self.refs[r as usize];
        let mut offset = 0i64;
        for (d, dim) in plan.dims.of(&self.dims).iter().enumerate() {
            let mut sub = match dim.sub {
                Sub::Lin(l) => self.lin(l, ir),
                Sub::Reg(r) => ir[r as usize],
            };
            if plan.clamp {
                sub = sub.clamp(0, dim.dim - 1);
            } else if !(0..dim.dim).contains(&sub) {
                self.out_of_range(plan, d, sub);
            }
            offset = offset.wrapping_add(sub.wrapping_mul(dim.bstride));
        }
        plan.base.wrapping_add(offset as u64)
    }

    #[cold]
    #[inline(never)]
    fn out_of_range(&self, plan: &crate::lower::RefPlan, d: usize, sub: i64) -> ! {
        let decl = &self.prog.arrays[plan.array as usize];
        panic!(
            "subscript {sub} out of range [0,{}) in dim {d} of array {} ({})",
            decl.dims[d], decl.name, self.prog.name
        );
    }

    /// Try to start the hoisted copy of `lp`, whose variable already
    /// holds `lo`: prove every induction's subscripts in bounds on the
    /// first and the last iteration (they are affine in the variable,
    /// so everywhere between), and seed the address registers.
    /// `false` leaves the checked copy to run — and to panic, if a
    /// subscript really goes out of range when it is reached.
    fn seed(&self, lp: &LoopPlan, lo: i64, hi: i64, ir: &mut [i64]) -> bool {
        // (trips - 1) · step: how far the variable travels. The first
        // subscript is evaluated wrapping, as the checked op would; once
        // it is known to lie in `[0, dim)` the last one is exact unless
        // the checked steps below overflow.
        let Some(span) = hi.checked_sub(lo) else {
            return false;
        };
        let travel = (span - lp.step.signum()) / lp.step * lp.step;
        for ind in lp.inds.of(&self.inds) {
            let plan = &self.refs[ind.r as usize];
            let mut offset = 0i64;
            for dim in plan.dims.of(&self.dims) {
                let Sub::Lin(l) = dim.sub else {
                    unreachable!("inductions are affine")
                };
                let first = self.lin(l, ir);
                let last = dim
                    .kvar
                    .checked_mul(travel)
                    .and_then(|moved| first.checked_add(moved));
                let inside = |sub| (0..dim.dim).contains(&sub);
                if !inside(first) || !last.is_some_and(inside) {
                    return false;
                }
                offset = offset.wrapping_add(first.wrapping_mul(dim.bstride));
            }
            ir[ind.reg as usize] = plan.base.wrapping_add(offset as u64) as i64;
        }
        true
    }
}

impl<'c> Vm<'c> {
    pub fn new(code: &'c Code<'c>) -> Self {
        Self {
            code,
            pc: 0,
            iregs: code.iregs.clone(),
            fregs: code.fregs.clone(),
            pending_ns: 0,
            stats: ExecStats::default(),
        }
    }

    /// Execute to completion, returning the dynamic counts.
    pub fn run<M: PagedVm, P: ProfSink>(&mut self, vm: &mut M, prof: &mut P) -> ExecStats {
        let code = self.code;
        let ops = &code.ops[..];
        let ir = &mut self.iregs[..];
        let fr = &mut self.fregs[..];
        let mut pc = self.pc;
        let mut pending = self.pending_ns;
        let mut stats = self.stats;

        macro_rules! charge {
            ($c:expr) => {{
                let Charge { ns, iops, flops } = $c;
                pending += ns;
                stats.iops += iops as u64;
                stats.flops += flops as u64;
            }};
        }
        macro_rules! flush {
            ($ns:expr) => {{
                pending += $ns;
                if pending > 0 {
                    vm.tick_user(pending);
                    pending = 0;
                }
            }};
        }
        // The address is resolved (and may panic) before the flush, as
        // the statement tree computes a reference before it charges it.
        macro_rules! load_f {
            ($dst:ident, $addr:expr, $ns:ident) => {{
                let addr = $addr;
                flush!($ns);
                stats.loads += 1;
                f!($dst) = vm.load_f64(addr);
            }};
        }
        macro_rules! load_i {
            ($dst:ident, $addr:expr, $ns:ident) => {{
                let addr = $addr;
                flush!($ns);
                stats.loads += 1;
                i!($dst) = vm.load_i64(addr);
            }};
        }
        macro_rules! store_f {
            ($src:ident, $addr:expr, $ns:ident) => {{
                let addr = $addr;
                flush!($ns);
                stats.stores += 1;
                vm.store_f64(addr, f!($src));
            }};
        }
        macro_rules! store_i {
            ($src:ident, $addr:expr, $ns:ident) => {{
                let addr = $addr;
                flush!($ns);
                stats.stores += 1;
                vm.store_i64(addr, i!($src));
            }};
        }
        macro_rules! prefetch {
            ($addr:expr, $pages:ident, $ns:ident) => {{
                let addr = $addr;
                flush!($ns);
                stats.prefetch_stmts += 1;
                stats.prefetch_pages += $pages;
                vm.prefetch(addr, $pages);
            }};
        }
        macro_rules! release {
            ($addr:expr, $pages:ident, $ns:ident) => {{
                let addr = $addr;
                flush!($ns);
                stats.release_stmts += 1;
                vm.release(addr, $pages);
            }};
        }
        macro_rules! f {
            ($r:ident) => {
                fr[$r as usize]
            };
        }
        macro_rules! i {
            ($r:ident) => {
                ir[$r as usize]
            };
        }

        loop {
            let op = ops[pc];
            pc += 1;
            match op {
                Op::AddF { dst, a, b } => f!(dst) = f!(a) + f!(b),
                Op::SubF { dst, a, b } => f!(dst) = f!(a) - f!(b),
                Op::MulF { dst, a, b } => f!(dst) = f!(a) * f!(b),
                Op::DivF { dst, a, b } => f!(dst) = f!(a) / f!(b),
                Op::RemF { dst, a, b } => f!(dst) = f!(a) % f!(b),
                Op::MinF { dst, a, b } => f!(dst) = f!(a).min(f!(b)),
                Op::MaxF { dst, a, b } => f!(dst) = f!(a).max(f!(b)),
                Op::NegF { dst, a } => f!(dst) = -f!(a),
                Op::AbsF { dst, a } => f!(dst) = f!(a).abs(),
                Op::SqrtF { dst, a } => f!(dst) = f!(a).sqrt(),
                Op::LnF { dst, a } => f!(dst) = f!(a).ln(),
                Op::MovF { dst, a } => f!(dst) = f!(a),
                Op::IToF { dst, a } => f!(dst) = i!(a) as f64,

                Op::AddI { dst, a, b } => i!(dst) = i!(a).wrapping_add(i!(b)),
                Op::SubI { dst, a, b } => i!(dst) = i!(a).wrapping_sub(i!(b)),
                Op::MulI { dst, a, b } => i!(dst) = i!(a).wrapping_mul(i!(b)),
                Op::DivI { dst, a, b } => {
                    assert!(i!(b) != 0, "integer division by zero");
                    i!(dst) = i!(a).wrapping_div(i!(b));
                }
                Op::RemI { dst, a, b } => {
                    assert!(i!(b) != 0, "integer remainder by zero");
                    i!(dst) = i!(a).wrapping_rem(i!(b));
                }
                Op::MinI { dst, a, b } => i!(dst) = i!(a).min(i!(b)),
                Op::MaxI { dst, a, b } => i!(dst) = i!(a).max(i!(b)),
                Op::NegI { dst, a } => i!(dst) = i!(a).wrapping_neg(),
                Op::AbsI { dst, a } => i!(dst) = i!(a).wrapping_abs(),
                Op::MovI { dst, a } => i!(dst) = i!(a),
                Op::FToI { dst, a } => i!(dst) = f!(a) as i64,
                Op::Lin { dst, lin } => i!(dst) = code.lin(lin, ir),

                Op::Addr { dst, r } => i!(dst) = code.resolve(r, ir) as i64,
                Op::Check { r } => {
                    code.resolve(r, ir);
                }

                Op::LoadF { dst, at, ns } => load_f!(dst, i!(at) as u64, ns),
                Op::LoadFAt { dst, r, ns } => load_f!(dst, code.resolve(r, ir), ns),
                Op::LoadI { dst, at, ns } => load_i!(dst, i!(at) as u64, ns),
                Op::LoadIAt { dst, r, ns } => load_i!(dst, code.resolve(r, ir), ns),
                Op::StoreF { src, at, ns } => store_f!(src, i!(at) as u64, ns),
                Op::StoreFAt { src, r, ns } => store_f!(src, code.resolve(r, ir), ns),
                Op::StoreI { src, at, ns } => store_i!(src, i!(at) as u64, ns),
                Op::StoreIAt { src, r, ns } => store_i!(src, code.resolve(r, ir), ns),
                Op::Prefetch { at, pages, ns } => prefetch!(i!(at) as u64, pages, ns),
                Op::PrefetchAt { r, pages, ns } => prefetch!(code.resolve(r, ir), pages, ns),
                Op::Release { at, pages, ns } => release!(i!(at) as u64, pages, ns),
                Op::ReleaseAt { r, pages, ns } => release!(code.resolve(r, ir), pages, ns),
                Op::PrefetchRelease { h } => {
                    let b = code.bundles[h as usize];
                    let address = |at| match at {
                        At::Reg(r) => ir[r as usize] as u64,
                        At::Ref(r) => code.resolve(r, ir),
                    };
                    let (pf, rel) = (address(b.pf_at), address(b.rel_at));
                    flush!(b.ns);
                    stats.prefetch_stmts += 1;
                    stats.release_stmts += 1;
                    stats.prefetch_pages += b.pf_pages;
                    vm.prefetch_release(pf, b.pf_pages, rel, b.rel_pages);
                }

                Op::BrI {
                    a,
                    b,
                    cmp,
                    else_,
                    charge,
                } => {
                    charge!(charge);
                    if !compare(cmp, i!(a), i!(b)) {
                        pc = else_ as usize;
                    }
                }
                Op::BrF {
                    a,
                    b,
                    cmp,
                    else_,
                    charge,
                } => {
                    charge!(charge);
                    if !compare(cmp, f!(a), f!(b)) {
                        pc = else_ as usize;
                    }
                }
                Op::Jump { to, charge } => {
                    charge!(charge);
                    pc = to as usize;
                }
                Op::LoopEnter { l } => {
                    let lp = &code.loops[l as usize];
                    charge!(lp.entry);
                    let lo = code.lin(lp.lo, ir);
                    let mut hi = code.lin(lp.hi, ir);
                    if let Some(m) = lp.hi_min {
                        let m = code.lin(m, ir);
                        hi = if lp.step > 0 { hi.min(m) } else { hi.max(m) };
                    }
                    let more = if lp.step > 0 { lo < hi } else { lo > hi };
                    if more {
                        ir[lp.var as usize] = lo;
                        ir[lp.frame as usize] = lo;
                        ir[lp.frame as usize + 1] = hi;
                        stats.iters += 1;
                        let hoisted = !lp.inds.is_empty() && code.seed(lp, lo, hi, ir);
                        #[cfg(test)]
                        if !lp.inds.is_empty() {
                            let (took, fell_back) = HOISTS.get();
                            HOISTS.set((took + hoisted as u64, fell_back + !hoisted as u64));
                        }
                        pc = if hoisted { lp.fast_body } else { lp.body } as usize;
                    } else {
                        pc = lp.exit as usize;
                    }
                }
                Op::LoopNext { l, head, bumps } => {
                    let lp = &code.loops[l as usize];
                    charge!(lp.tail);
                    let i = ir[lp.frame as usize].wrapping_add(lp.step);
                    let hi = ir[lp.frame as usize + 1];
                    let more = if lp.step > 0 { i < hi } else { i > hi };
                    if more {
                        ir[lp.frame as usize] = i;
                        ir[lp.var as usize] = i;
                        stats.iters += 1;
                        for ind in bumps.of(&code.inds) {
                            let at = &mut ir[ind.reg as usize];
                            *at = at.wrapping_add(ind.delta);
                        }
                        pc = head as usize;
                    } else {
                        pc = lp.exit as usize;
                    }
                }
                Op::Halt => {
                    flush!(0);
                    // Stay parked on the `Halt`.
                    pc -= 1;
                    break;
                }

                Op::Enter { site } => prof.enter(&code.sites[site as usize]),
                Op::Exit => prof.exit(),
            }
        }
        (self.pc, self.pending_ns, self.stats) = (pc, pending, stats);
        stats
    }
}
