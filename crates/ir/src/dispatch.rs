//! The dispatch loop: executes lowered [`Code`] against a [`PagedVm`].
//!
//! All run state — program counter, both register files (loop frames
//! and reference addresses live in the integer one), the pending user
//! time and the dynamic counts — is the [`Vm`] struct; the loop itself
//! never recurses on the host stack. That is what makes a run
//! resumable: [`Vm::step`] stops between two `PagedVm` calls when the
//! machine under it asks ([`PagedVm::parked`]) and keeps the struct.
//!
//! There are two loops. The general one runs the [`Op`] stream and makes
//! every call the program implies. The strip executor
//! ([`Code::run_strip`]) runs whole iterations of a hoisted leaf body
//! for which the [`PagedVm`] has said every access is a plain hit and
//! every hint one it would drop unseen ([`PagedVm::strip`]): no call
//! inside, what they owe handed over once ([`PagedVm::strip_charge`]). It interprets the body's
//! [strip code](crate::strip), not its `Op`s.

use oocp_obs::prof::{NoProf, ProfSink};

use crate::exec::{ArrayBinding, ExecStats};
use crate::expr::CmpOp;
use crate::lower::{lower, At, Charge, Code, LinPlan, LoopPlan, Op, Pc, StripPlan, Sub};
use crate::program::Program;
use crate::strip::{fused_kinds, StripBranch, StripKind};
use crate::vm::{CostModel, PagedVm, Park, StripCharge, StripRefs};

/// One run of a lowered program, resumable between any two of its
/// [`PagedVm`] calls.
pub struct Vm<'p> {
    code: Code<'p>,
    pc: usize,
    iregs: Vec<i64>,
    fregs: Vec<f64>,
    /// User nanoseconds charged since the last `tick_user`.
    pending_ns: u64,
    stats: ExecStats,
    /// The run is parked inside the op at `pc`, which has paid — been
    /// charged, flushed and counted — but still owes its call.
    paid: bool,
    /// The demand and hint streams of the strip being asked for; reused.
    strip_refs: Vec<(u64, i64, bool)>,
    strip_hint_refs: Vec<(u64, i64, u64)>,
    /// The hints a strip made, for a VM that logs them (test builds).
    #[cfg(test)]
    strip_log: Vec<(u64, u64)>,
}

#[cfg(test)]
thread_local! {
    /// Entries into loops that have a hoisted copy: how many took it
    /// and how many fell back to the checked one. The oracle reads this
    /// to know its programs reach both.
    pub(crate) static HOISTS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
    /// Strips, by how they went: run to the length granted, refused by
    /// the VM, ended early by a zero divisor or a subscript out of
    /// range; the iterations run inside them, a part of one counting as
    /// one; the early ends in a body shorter as strip code than as ops,
    /// something in it fused; and those at a subscript.
    pub(crate) static STRIPS: std::cell::Cell<[u64; 6]> = const { std::cell::Cell::new([0; 6]) };
    /// Strip ops executed, by `StripKind as usize`.
    pub(crate) static KINDS: std::cell::RefCell<[u64; 256]> =
        const { std::cell::RefCell::new([0; 256]) };
}

/// What a strip came to, for its caller to hand to the VM and to carry
/// on from.
struct Strip {
    /// Where the general loop carries on: at the body's `LoopNext`,
    /// which the strip leaves to it after the last body granted, or at
    /// the op that found a zero divisor, to panic there.
    pc: usize,
    /// The user time pending there, as the per-op path would hold it.
    pending: u64,
    /// What the VM is handed for the iterations.
    charge: StripCharge,
}

#[cfg(test)]
fn note_strip(how: usize, iterations: u64) {
    let mut strips = STRIPS.get();
    strips[how] += 1;
    strips[3] += iterations;
    STRIPS.set(strips);
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
        self.locate(r, ir)
            .unwrap_or_else(|(d, sub)| self.out_of_range(r, d, sub))
    }

    /// [`Code::resolve`], or the dimension and value of the first
    /// subscript out of range.
    #[inline(always)]
    fn locate(&self, r: u32, ir: &[i64]) -> Result<u64, (usize, i64)> {
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
                return Err((d, sub));
            }
            offset = offset.wrapping_add(sub.wrapping_mul(dim.bstride));
        }
        Ok(plan.base.wrapping_add(offset as u64))
    }

    /// Seed the registers of `plan`'s late inductions where a strip of
    /// a loop stepping by `step` starts, and say for how many iterations,
    /// `want` at most, every subscript of theirs stays in its dimension
    /// (so the per-op path would not clamp it).
    fn seed_late(&self, plan: &StripPlan, step: i64, want: u64, ir: &mut [i64]) -> u64 {
        let mut n = want;
        for ind in plan.late.of(&self.strip_inds) {
            let target = &self.refs[ind.r as usize];
            let mut at = target.base;
            for dim in target.dims.of(&self.dims) {
                let Sub::Lin(l) = dim.sub else {
                    unreachable!("a late induction is affine")
                };
                let sub = self.lin(l, ir);
                let k = dim.kvar.wrapping_mul(step);
                let stays = match k {
                    _ if !(0..dim.dim).contains(&sub) => 0,
                    1.. => (dim.dim - 1 - sub) as u64 / k as u64 + 1,
                    0 => n,
                    _ => sub as u64 / k.unsigned_abs() + 1,
                };
                n = n.min(stays);
                at = at.wrapping_add(sub.wrapping_mul(dim.bstride) as u64);
            }
            ir[ind.reg as usize] = at as i64;
        }
        n
    }

    #[cold]
    #[inline(never)]
    fn out_of_range(&self, r: u32, d: usize, sub: i64) -> ! {
        let decl = &self.prog.arrays[self.refs[r as usize].array as usize];
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

    /// The strip executor: run `n` iterations of `lp`'s hoisted body as
    /// strip code from its first op, every access a bare 8-byte move in
    /// `mem`, every hint nothing but its count (and, with `LOG`, its
    /// address and pages pushed to `log`) and the `Next` between two of
    /// them done on the spot, and count them into `stats`. It makes no
    /// call and cannot panic: a zero divisor, or a subscript out of its
    /// dimension, ends the strip in front of the op that found it.
    /// `pending` is the user time not yet flushed. Inside, behind an
    /// access or a hint it is zero: their own `ns` and their flushes are
    /// a sum over the [`StripPlan`](crate::lower::StripPlan), made once
    /// at the end; branch charges are added as they are taken. Without
    /// `WIDE` there is no code for the ops that resolve a reference or
    /// stand for a hint, and the plan must have none (`StripPlan::wide`):
    /// in an instance of their own they cost the other bodies nothing —
    /// with them, LLVM shuffles registers at every op's dispatch.
    #[allow(clippy::too_many_arguments)]
    fn run_strip<const LOG: bool, const WIDE: bool>(
        &self,
        lp: &LoopPlan,
        n: u64,
        lead: u64,
        ir: &mut [i64],
        fr: &mut [f64],
        mem: &mut [u8],
        stats: &mut ExecStats,
        log: &mut Vec<(u64, u64)>,
    ) -> Strip {
        use StripKind as K;
        let plan = lp.strip.as_ref().expect("asked of a loop with a plan");
        let ops = plan.code.of(&self.strip.ops);
        let lins = plan.lins.of(&self.strip.lins);
        let branches = plan.branches.of(&self.strip.branches);
        let bumps = plan.bumps.of(&self.strip_inds);
        // The ops still ahead in this pass over the body.
        let mut rest = ops;
        let (mut left, mut pending) = (n, lead);
        // Branch charges taken: ns, integer and float operations.
        let mut taken = (0, 0, 0);
        #[cfg(test)]
        let mut kinds = [0u64; 256];
        let early = loop {
            let (op, behind) = rest.split_first().expect("a body ends in its `Next`");
            rest = behind;
            #[cfg(test)]
            {
                kinds[op.kind as usize] += 1;
            }
            macro_rules! f {
                ($r:ident) => {
                    fr[op.$r as usize]
                };
            }
            macro_rules! i {
                ($r:ident) => {
                    ir[op.$r as usize]
                };
            }
            macro_rules! word {
                ($r:ident) => {
                    mem[i!($r) as usize..][..8]
                };
            }
            // The eight bytes `refs[op.$r]` resolves to; a subscript out
            // of range ends the strip in front of the op.
            macro_rules! word_at {
                ($r:ident) => {
                    match self.locate(op.$r.into(), ir) {
                        Ok(at) => &mut mem[at as usize..][..8],
                        Err(_) => break true,
                    }
                };
            }
            // A float operand, in its register or in memory; a float
            // result, likewise.
            macro_rules! rd {
                (R $r:ident) => {
                    f!($r)
                };
                (M $r:ident) => {
                    f64::from_le_bytes(word!($r).try_into().unwrap())
                };
            }
            macro_rules! wr {
                (R $v:expr) => {
                    f!(d) = $v
                };
                (M $v:expr) => {{
                    let v: f64 = $v;
                    word!(d).copy_from_slice(&v.to_le_bytes());
                }};
            }
            // An op with anything in memory is an access: behind it
            // nothing is pending.
            macro_rules! accessed {
                (R R R) => {};
                ($D:tt $A:tt $B:tt) => {
                    pending = 0;
                };
            }
            macro_rules! fused {
                ($D:tt $A:tt $B:tt |$a:ident, $b:ident $(, $c:ident)?| $e:expr) => {{
                    let $a = rd!($A a);
                    let $b = rd!($B b);
                    $(let $c = f!(c);)?
                    wr!($D $e);
                    accessed!($D $A $B);
                }};
            }
            // Charge the branch; its comparison is the value.
            macro_rules! branch {
                () => {{
                    let StripBranch { cmp, charge } = branches[op.c as usize];
                    pending += charge.ns;
                    taken.0 += charge.ns;
                    taken.1 += charge.iops as u64;
                    taken.2 += charge.flops as u64;
                    cmp
                }};
            }
            // The plain arms, then eight per row of `fused_kinds!`: one
            // for each place its destination and operands can live.
            macro_rules! execute {
                ({ $($plain:tt)* }
                 $([$rrr:ident $rrm:ident $rmr:ident $rmm:ident
                    $mrr:ident $mrm:ident $mmr:ident $mmm:ident]
                   |$a:ident, $b:ident $(, $c:ident)?| $e:expr;)*) => {
                    match op.kind {
                        $($plain)*
                        $(
                            K::$rrr => fused!(R R R |$a, $b $(, $c)?| $e),
                            K::$rrm => fused!(R R M |$a, $b $(, $c)?| $e),
                            K::$rmr => fused!(R M R |$a, $b $(, $c)?| $e),
                            K::$rmm => fused!(R M M |$a, $b $(, $c)?| $e),
                            K::$mrr => fused!(M R R |$a, $b $(, $c)?| $e),
                            K::$mrm => fused!(M R M |$a, $b $(, $c)?| $e),
                            K::$mmr => fused!(M M R |$a, $b $(, $c)?| $e),
                            K::$mmm => fused!(M M M |$a, $b $(, $c)?| $e),
                        )*
                    }
                };
            }
            fused_kinds!(execute! {
                {
                    K::RemF => f!(d) = f!(a) % f!(b),
                    K::MinF => f!(d) = f!(a).min(f!(b)),
                    K::MaxF => f!(d) = f!(a).max(f!(b)),
                    K::NegF => f!(d) = -f!(a),
                    K::AbsF => f!(d) = f!(a).abs(),
                    K::SqrtF => f!(d) = f!(a).sqrt(),
                    K::LnF => f!(d) = f!(a).ln(),
                    K::MovF => f!(d) = f!(a),
                    K::IToF => f!(d) = i!(a) as f64,
                    K::AddI => i!(d) = i!(a).wrapping_add(i!(b)),
                    K::SubI => i!(d) = i!(a).wrapping_sub(i!(b)),
                    K::MulI => i!(d) = i!(a).wrapping_mul(i!(b)),
                    K::DivI => {
                        if i!(b) == 0 {
                            break true;
                        }
                        i!(d) = i!(a).wrapping_div(i!(b));
                    }
                    K::RemI => {
                        if i!(b) == 0 {
                            break true;
                        }
                        i!(d) = i!(a).wrapping_rem(i!(b));
                    }
                    K::MinI => i!(d) = i!(a).min(i!(b)),
                    K::MaxI => i!(d) = i!(a).max(i!(b)),
                    K::NegI => i!(d) = i!(a).wrapping_neg(),
                    K::AbsI => i!(d) = i!(a).wrapping_abs(),
                    K::MovI => i!(d) = i!(a),
                    K::FToI => i!(d) = f!(a) as i64,
                    K::Lin => i!(d) = self.lin(lins[op.a as usize], ir),
                    K::LoadF => {
                        f!(d) = f64::from_le_bytes(word!(a).try_into().unwrap());
                        pending = 0;
                    }
                    K::LoadI => {
                        i!(d) = i64::from_le_bytes(word!(a).try_into().unwrap());
                        pending = 0;
                    }
                    K::StoreF => {
                        word!(d).copy_from_slice(&f!(a).to_le_bytes());
                        pending = 0;
                    }
                    K::StoreI => {
                        word!(d).copy_from_slice(&i!(a).to_le_bytes());
                        pending = 0;
                    }
                    K::LoadFAt
                    | K::LoadIAt
                    | K::StoreFAt
                    | K::StoreIAt
                    | K::Check
                    | K::Prefetch
                    | K::PrefetchAt
                        if !WIDE =>
                    {
                        unreachable!("a plan with these ops says so")
                    }
                    K::LoadFAt => {
                        f!(d) = f64::from_le_bytes((*word_at!(a)).try_into().unwrap());
                        pending = 0;
                    }
                    K::LoadIAt => {
                        i!(d) = i64::from_le_bytes((*word_at!(a)).try_into().unwrap());
                        pending = 0;
                    }
                    K::StoreFAt => {
                        let v = f!(a);
                        word_at!(d).copy_from_slice(&v.to_le_bytes());
                        pending = 0;
                    }
                    K::StoreIAt => {
                        let v = i!(a);
                        word_at!(d).copy_from_slice(&v.to_le_bytes());
                        pending = 0;
                    }
                    K::Check => {
                        word_at!(a);
                    }
                    K::Prefetch => {
                        if LOG {
                            log.push((i!(a) as u64, op.b.into()));
                        }
                        pending = 0;
                    }
                    // An indirect hint is granted for its whole array,
                    // so where it lands is asked only by a VM that logs it.
                    K::PrefetchAt => {
                        if LOG {
                            log.push((self.resolve(op.a.into(), ir), op.b.into()));
                        }
                        pending = 0;
                    }
                    K::BrI => {
                        if !compare(branch!(), i!(a), i!(b)) {
                            rest = &ops[op.d as usize..];
                        }
                    }
                    K::BrF => {
                        if !compare(branch!(), f!(a), f!(b)) {
                            rest = &ops[op.d as usize..];
                        }
                    }
                    K::Jump => {
                        branch!();
                        rest = &ops[op.d as usize..];
                    }
                    K::Next => {
                        left -= 1;
                        if left == 0 {
                            break false;
                        }
                        pending += lp.tail.ns;
                        let i = ir[lp.frame as usize].wrapping_add(lp.step);
                        ir[lp.frame as usize] = i;
                        ir[lp.var as usize] = i;
                        for ind in bumps {
                            let at = &mut ir[ind.reg as usize];
                            *at = at.wrapping_add(ind.delta);
                        }
                        rest = ops;
                    }
                }
            });
        };
        // The strip stops on the op it fetched last; where the `Op`
        // stream stands for the same place.
        let origin = plan.code.of(&self.strip.origin);
        let pc = origin[ops.len() - rest.len() - 1] as usize;
        let whole = n - left;
        #[cfg(test)]
        {
            note_strip(if early { 2 } else { 0 }, whole + early as u64);
            let unfused = origin[ops.len() - 1] - lp.fast_body + 1;
            if early && ops.len() < unfused as usize {
                note_strip(4, 0);
            }
            if early && !matches!(ops[ops.len() - rest.len() - 1].kind, K::DivI | K::RemI) {
                note_strip(5, 0);
            }
            KINDS.with_borrow_mut(|all| all.iter_mut().zip(kinds).for_each(|(n, by)| *n += by));
        }

        // Each body but the last was followed by its `LoopNext`; one
        // cut short by none yet, and it got through part of a pass.
        let nexts = whole - !early as u64;
        let part = if early {
            self.accesses(lp.fast_body, pc as Pc, lp.tail.ns)
        } else {
            Default::default()
        };
        let body = plan.body;
        let made = |of: fn(&crate::lower::Accesses) -> u64| of(&body) * whole + of(&part);
        let (loads, stores, hints) = (made(|a| a.loads), made(|a| a.stores), made(|a| a.hints));
        let hint_pages = made(|a| a.hint_pages);
        let mut ticks = made(|a| a.ticks);
        if loads + stores + hints > 0 {
            // The strip's first access found `lead` pending, not the
            // loop's tail as the plan has it.
            ticks += u64::from(lead + plan.first_ns > 0);
            ticks -= u64::from(lp.tail.ns + plan.first_ns > 0);
        }
        stats.loads += loads;
        stats.stores += stores;
        stats.prefetch_stmts += hints;
        stats.prefetch_pages += hint_pages;
        stats.iters += nexts;
        stats.iops += lp.tail.iops as u64 * nexts + taken.1;
        stats.flops += lp.tail.flops as u64 * nexts + taken.2;
        let charged = lead + made(|a| a.ns) + lp.tail.ns * nexts + taken.0;
        Strip {
            pc,
            pending,
            charge: StripCharge {
                ns: charged - pending,
                ticks,
                accesses: loads + stores,
                hints,
                hint_pages,
            },
        }
    }
}

impl<'p> Vm<'p> {
    /// Lower `prog` (see [`crate::lower`]) and stand at its first op.
    ///
    /// # Panics
    ///
    /// Panics if the binding or parameter counts do not match the
    /// program, or if the program fails validation.
    pub fn new(prog: &'p Program, binds: &[ArrayBinding], params: &[i64], cost: CostModel) -> Self {
        Self::start(lower(prog, binds, params, cost, NoProf::ACTIVE))
    }

    pub(crate) fn start(mut code: Code<'p>) -> Self {
        Self {
            pc: 0,
            iregs: std::mem::take(&mut code.iregs),
            fregs: std::mem::take(&mut code.fregs),
            code,
            pending_ns: 0,
            stats: ExecStats::default(),
            paid: false,
            strip_refs: Vec::new(),
            strip_hint_refs: Vec::new(),
            #[cfg(test)]
            strip_log: Vec::new(),
        }
    }

    /// Execute until the program halts (`Some` of its dynamic counts,
    /// and again on every later call) or `vm` parks the run (`None`;
    /// the next call carries on from exactly there). A `vm` that never
    /// parks gets the whole program in one call.
    pub fn step<M: PagedVm>(&mut self, vm: &mut M) -> Option<ExecStats> {
        self.step_probed(vm, &mut NoProf)
    }

    /// The dynamic counts of what has run so far, halted or parked.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Step until the program halts, resuming at once whenever `vm`
    /// parks; `prof` is the sink the code was lowered for.
    pub(crate) fn run<M: PagedVm, P: ProfSink>(&mut self, vm: &mut M, prof: &mut P) -> ExecStats {
        loop {
            if let Some(stats) = self.step_probed(vm, prof) {
                return stats;
            }
        }
    }

    // One instance per VM, never a copy of it inside `run`: these ten
    // kilobytes sit among the benchmark crate's code, and moving what
    // lies behind them by a copy's worth cost the page walks, whose hot
    // path is spread over five crates, a quarter of their host time
    // (EXPERIMENTS.md, "Strip code").
    #[inline(never)]
    fn step_probed<M: PagedVm, P: ProfSink>(
        &mut self,
        vm: &mut M,
        prof: &mut P,
    ) -> Option<ExecStats> {
        let code = &self.code;
        let ops = &code.ops[..];
        let ir = &mut self.iregs[..];
        let fr = &mut self.fregs[..];
        let mut pc = self.pc;
        let mut pending = self.pending_ns;
        let mut stats = self.stats;
        let (refs, hint_refs) = (&mut self.strip_refs, &mut self.strip_hint_refs);
        #[cfg(test)]
        let log = &mut self.strip_log;
        // Never pushed to: only a test VM logs the hints strips make.
        #[cfg(not(test))]
        let log = &mut Vec::new();
        // Constant `false` for a `vm` that never parks, and every park
        // check below folds away with it.
        let mut paid = M::PARKS && std::mem::take(&mut self.paid);

        macro_rules! charge {
            ($c:expr) => {{
                let Charge { ns, iops, flops } = $c;
                pending += ns;
                stats.iops += iops as u64;
                stats.flops += flops as u64;
            }};
        }
        // Park inside the op just fetched, its call still owed: the op
        // is re-entered from its top and skips what it has paid.
        macro_rules! park_owing {
            () => {{
                self.paid = true;
                pc -= 1;
                break false;
            }};
        }
        // Everything an op does before its call: charge its own `$ns`,
        // flush the pending user time, count itself. The tick is a call
        // like any other, so the run may park behind it.
        macro_rules! pay {
            ($ns:expr $(, $stat:ident += $n:expr)*) => {{
                if !std::mem::take(&mut paid) {
                    $(stats.$stat += $n;)*
                    pending += $ns;
                    if pending > 0 {
                        vm.tick_user(pending);
                        pending = 0;
                        if M::PARKS && vm.parked().is_some() {
                            park_owing!();
                        }
                    }
                }
            }};
        }
        // The op's call. `$keep` consumes the result unless the VM wants
        // the call made again.
        macro_rules! call {
            ($call:expr) => {
                call!(() = $call => {})
            };
            ($v:pat = $call:expr => $keep:expr) => {{
                let $v = $call;
                let park = if M::PARKS { vm.parked() } else { None };
                if park == Some(Park::Redo) {
                    park_owing!();
                }
                $keep;
                if park.is_some() {
                    break false;
                }
            }};
        }
        // The address is resolved (and may panic) before the flush, as
        // the statement tree computes a reference before it charges it.
        macro_rules! load {
            ($file:ident[$dst:ident] = $load:ident($addr:expr), $ns:ident) => {{
                let addr = $addr;
                pay!($ns, loads += 1);
                call!(v = vm.$load(addr) => $file[$dst as usize] = v);
            }};
        }
        macro_rules! store {
            ($store:ident($addr:expr, $src:expr), $ns:ident) => {{
                let addr = $addr;
                pay!($ns, stores += 1);
                call!(vm.$store(addr, $src));
            }};
        }
        macro_rules! prefetch {
            ($addr:expr, $pages:ident, $ns:ident) => {{
                let addr = $addr;
                pay!($ns, prefetch_stmts += 1, prefetch_pages += $pages);
                call!(vm.prefetch(addr, $pages));
            }};
        }
        macro_rules! release {
            ($addr:expr, $pages:ident, $ns:ident) => {{
                let addr = $addr;
                pay!($ns, release_stmts += 1);
                call!(vm.release(addr, $pages));
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
        // Standing at the first op of an iteration of `$lp`'s hoisted
        // body: run as many of the iterations left as `vm` lets pass for
        // plain hits in the strip executor, and charge them in one
        // piece. The strip stops at a `LoopNext` (or, its divisor zero,
        // at the op that will panic) with `pending` and `stats` what
        // op-by-op execution would have made them; when none is granted
        // nothing has happened at all.
        macro_rules! strip {
            ($lp:ident) => {
                if let Some(plan) = &$lp.strip {
                    // The late inductions are seeded, and bound the strip,
                    // ahead of any question about them.
                    let bound = match plan.late.is_empty() {
                        true => u64::MAX,
                        false => code.seed_late(plan, $lp.step, u64::MAX, ir),
                    };
                    let list = plan.refs.of(&code.strip_refs);
                    let now = |&(reg, delta, store): &(u32, i64, bool)| {
                        (ir[reg as usize] as u64, delta, store)
                    };
                    // Where every reference faults a refusal is the
                    // common answer: get it for one page's test.
                    let mut n = match list.first() {
                        Some(first) if bound > 0 => {
                            let streams = &[now(first)];
                            let first = StripRefs {
                                streams,
                                ..StripRefs::default()
                            };
                            vm.strip(first, 1, pending, plan.max_ns).0
                        }
                        _ => bound.min(1),
                    };
                    if n > 0 {
                        let (i, hi) = (ir[$lp.frame as usize], ir[$lp.frame as usize + 1]);
                        let left = (hi.wrapping_sub(i) - $lp.step.signum()) / $lp.step + 1;
                        refs.clear();
                        refs.extend(list.iter().map(now));
                        let mut all = StripRefs {
                            streams: refs,
                            ..StripRefs::default()
                        };
                        if plan.wide {
                            hint_refs.clear();
                            let hinted = plan.hint_refs.of(&code.strip_hint_refs).iter();
                            hint_refs.extend(hinted.map(|&(reg, delta, pages)| {
                                (ir[reg as usize] as u64, delta, pages)
                            }));
                            all.arrays = plan.arrays.of(&code.strip_arrays);
                            all.hints = plan.hints.of(&code.strip_hints);
                            all.hint_streams = hint_refs;
                        }
                        let mem;
                        (n, mem) = vm.strip(all, bound.min(left as u64), pending, plan.max_ns);
                        if n > 0 {
                            let strip = match plan.wide {
                                #[cfg(test)]
                                _ if M::LOGS_STRIP_HINTS => code.run_strip::<true, true>(
                                    $lp, n, pending, ir, fr, mem, &mut stats, log,
                                ),
                                true => code.run_strip::<false, true>(
                                    $lp, n, pending, ir, fr, mem, &mut stats, log,
                                ),
                                false => code.run_strip::<false, false>(
                                    $lp, n, pending, ir, fr, mem, &mut stats, log,
                                ),
                            };
                            #[cfg(test)]
                            if M::LOGS_STRIP_HINTS {
                                vm.strip_hints(log);
                                log.clear();
                            }
                            vm.strip_charge(strip.charge);
                            (pc, pending) = (strip.pc, strip.pending);
                        }
                    }
                    #[cfg(test)]
                    if n == 0 {
                        note_strip(1, 0);
                    }
                }
            };
        }

        let halted = loop {
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
                    if i!(b) == 0 {
                        panic!("integer division by zero");
                    }
                    i!(dst) = i!(a).wrapping_div(i!(b));
                }
                Op::RemI { dst, a, b } => {
                    if i!(b) == 0 {
                        panic!("integer remainder by zero");
                    }
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

                Op::LoadF { dst, at, ns } => load!(fr[dst] = load_f64(i!(at) as u64), ns),
                Op::LoadFAt { dst, r, ns } => load!(fr[dst] = load_f64(code.resolve(r, ir)), ns),
                Op::LoadI { dst, at, ns } => load!(ir[dst] = load_i64(i!(at) as u64), ns),
                Op::LoadIAt { dst, r, ns } => load!(ir[dst] = load_i64(code.resolve(r, ir)), ns),
                Op::StoreF { src, at, ns } => store!(store_f64(i!(at) as u64, f!(src)), ns),
                Op::StoreFAt { src, r, ns } => store!(store_f64(code.resolve(r, ir), f!(src)), ns),
                Op::StoreI { src, at, ns } => store!(store_i64(i!(at) as u64, i!(src)), ns),
                Op::StoreIAt { src, r, ns } => store!(store_i64(code.resolve(r, ir), i!(src)), ns),
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
                    pay!(
                        b.ns,
                        prefetch_stmts += 1,
                        release_stmts += 1,
                        prefetch_pages += b.pf_pages
                    );
                    call!(vm.prefetch_release(pf, b.pf_pages, rel, b.rel_pages));
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
                        if hoisted {
                            strip!(lp);
                        }
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
                        // The hoisted copy's `LoopNext` is the one with
                        // inductions to bump.
                        if !bumps.is_empty() {
                            strip!(lp);
                        }
                    } else {
                        pc = lp.exit as usize;
                    }
                }
                Op::Halt => {
                    pay!(0);
                    // Stay on the `Halt`.
                    pc -= 1;
                    break true;
                }

                Op::Enter { site } => prof.enter(&code.sites[site as usize]),
                Op::Exit => prof.exit(),
            }
        };
        (self.pc, self.pending_ns, self.stats) = (pc, pending, stats);
        halted.then_some(stats)
    }
}
