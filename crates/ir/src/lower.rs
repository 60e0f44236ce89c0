//! Lowering: a [`Program`] with its bindings, parameter values and cost
//! model becomes flat register bytecode, once, before anything runs.
//!
//! Everything the statement tree leaves to run time is decided here:
//!
//! * **Registers.** Loop variables, parameters, integer scalars,
//!   integer constants, loop frames, reference addresses and integer
//!   temporaries share one `i64` file; float scalars, constants and
//!   temporaries share one `f64` file. Every expression node gets a
//!   register of its own (nothing is reused, so no op can clobber an
//!   operand that is still live), and leaves — scalars, constants, a
//!   bare loop variable — are named directly instead of being copied.
//! * **Types.** An expression is float or integer by construction: a
//!   load has its array's element type, a mixed operation converts its
//!   integer side with an explicit [`Op::IToF`]. The ops are typed;
//!   there is no run-time value tag.
//! * **Addresses.** A reference is `base + Σ sub·stride` in bytes with
//!   the `(dim, stride)` of each dimension kept beside it
//!   ([`RefPlan`]/[`DimPlan`]). [`Op::Addr`] evaluates it with the
//!   bounds check (or, for hint targets, the clamp) of every dimension.
//!   Inside a loop that contains no further loop, a demand reference
//!   that is affine in every dimension and not under an `if` becomes an
//!   [`Induction`]: [`Op::LoopEnter`] proves both ends of the iteration
//!   range in bounds, seeds an address register, and [`Op::LoopNext`]
//!   adds a constant to it per iteration. Such a loop body is emitted
//!   twice; when the proof fails the checked copy runs, so an
//!   out-of-range subscript still panics where and how it always did.
//! * **Charges.** The simulated cost of every straight-line segment is
//!   summed here ([`Charge`]). An op that reaches the [`PagedVm`]
//!   carries the nanoseconds accumulated since the previous such op (or
//!   the start of its block); the op that ends a block carries what is
//!   left, together with the block's integer- and float-operation
//!   counts. The dispatch loop adds the first to its pending time and
//!   flushes exactly where the statement tree is flushed, so the
//!   sequence of `tick_user` arguments is unchanged.
//! * **Strips.** A hoisted body made of nothing but arithmetic, accesses
//!   through its own inductions and forward branches also gets a
//!   [`StripPlan`]: what a run of its iterations costs, summed here, so
//!   the dispatch loop can run them without a `PagedVm` call apiece —
//!   and the body once more as [strip code](crate::strip), which is what
//!   those iterations execute.
//! * **Probes.** With a live profiler sink the site brackets are ops
//!   in the stream ([`Op::Enter`]/[`Op::Exit`]); with the detached sink
//!   none are emitted.
//!
//! [`PagedVm`]: crate::vm::PagedVm

use crate::exec::ArrayBinding;
use crate::expr::{BinOp, CmpOp, Cond, Expr, LinExpr, Sym, UnOp};
use crate::program::{ArrayRef, ElemType, Index, Loop, Program, Stmt};
use crate::strip::{fuse, narrow, StripBranch, StripCode, StripKind, StripOp};
use crate::vm::CostModel;

/// Index into one of the two register files.
pub(crate) type Reg = u32;
/// Index into [`Code::ops`].
pub(crate) type Pc = u32;

/// Simulated cost of a straight-line segment, summed at lowering time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Charge {
    /// User nanoseconds to add to the pending time.
    pub ns: u64,
    /// Integer operations (`ExecStats::iops`).
    pub iops: u32,
    /// Floating-point operations (`ExecStats::flops`).
    pub flops: u32,
}

/// A `(start, len)` window into one of [`Code`]'s side tables.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    pub fn of<T>(self, table: &[T]) -> &[T] {
        &table[self.start as usize..(self.start + self.len) as usize]
    }

    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// One instruction. `f[..]` is the float file, `i[..]` the integer one.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    // f[dst] = f[a] ∘ f[b]
    AddF {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    SubF {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    MulF {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    DivF {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    RemF {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    MinF {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    MaxF {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    // f[dst] = ∘ f[a]
    NegF {
        dst: Reg,
        a: Reg,
    },
    AbsF {
        dst: Reg,
        a: Reg,
    },
    SqrtF {
        dst: Reg,
        a: Reg,
    },
    LnF {
        dst: Reg,
        a: Reg,
    },
    MovF {
        dst: Reg,
        a: Reg,
    },
    /// `f[dst] = i[a] as f64`
    IToF {
        dst: Reg,
        a: Reg,
    },
    // i[dst] = i[a] ∘ i[b], wrapping; Div and Rem panic on a zero divisor
    AddI {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    SubI {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    MulI {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    DivI {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    RemI {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    MinI {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    MaxI {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    // i[dst] = ∘ i[a], wrapping
    NegI {
        dst: Reg,
        a: Reg,
    },
    AbsI {
        dst: Reg,
        a: Reg,
    },
    MovI {
        dst: Reg,
        a: Reg,
    },
    /// `i[dst] = f[a] as i64` (truncating, saturating)
    FToI {
        dst: Reg,
        a: Reg,
    },
    /// `i[dst] = lin` evaluated over the integer file.
    Lin {
        dst: Reg,
        lin: LinPlan,
    },

    /// `i[dst]` = byte address of `refs[r]`, every dimension checked
    /// (or clamped, for a hint target). Emitted only under the
    /// profiler, where the address step is a site of its own; detached,
    /// the `..At` ops below resolve their reference themselves.
    Addr {
        dst: Reg,
        r: u32,
    },
    /// Bounds-check every dimension of `refs[r]` — the leading
    /// dimensions of a reference, ahead of an indirect subscript's
    /// index load, so the panic keeps its place in the access stream.
    Check {
        r: u32,
    },

    // Flush `ns` plus the pending time, then one access: at the address
    // in i[at], or (`..At`) at the address `refs[r]` resolves to.
    LoadF {
        dst: Reg,
        at: Reg,
        ns: u64,
    },
    LoadI {
        dst: Reg,
        at: Reg,
        ns: u64,
    },
    StoreF {
        src: Reg,
        at: Reg,
        ns: u64,
    },
    StoreI {
        src: Reg,
        at: Reg,
        ns: u64,
    },
    Prefetch {
        at: Reg,
        pages: u64,
        ns: u64,
    },
    Release {
        at: Reg,
        pages: u64,
        ns: u64,
    },
    LoadFAt {
        dst: Reg,
        r: u32,
        ns: u64,
    },
    LoadIAt {
        dst: Reg,
        r: u32,
        ns: u64,
    },
    StoreFAt {
        src: Reg,
        r: u32,
        ns: u64,
    },
    StoreIAt {
        src: Reg,
        r: u32,
        ns: u64,
    },
    PrefetchAt {
        r: u32,
        pages: u64,
        ns: u64,
    },
    ReleaseAt {
        r: u32,
        pages: u64,
        ns: u64,
    },
    /// The bundled hint `bundles[h]`.
    PrefetchRelease {
        h: u32,
    },

    /// Fall through when `i[a] cmp i[b]`, else jump to `else_`.
    BrI {
        a: Reg,
        b: Reg,
        cmp: CmpOp,
        else_: Pc,
        charge: Charge,
    },
    /// Fall through when `f[a] cmp f[b]`, else jump to `else_`.
    BrF {
        a: Reg,
        b: Reg,
        cmp: CmpOp,
        else_: Pc,
        charge: Charge,
    },
    /// Close a block: apply its trailing charge and continue at `to`.
    Jump {
        to: Pc,
        charge: Charge,
    },
    /// Evaluate the bounds of `loops[l]` and start or skip it.
    LoopEnter {
        l: u32,
    },
    /// Advance `loops[l]`: next iteration at `head` (adding each of
    /// `bumps` to its address register), or leave the loop.
    LoopNext {
        l: u32,
        head: Pc,
        bumps: Span,
    },
    /// End of program: flush and stop.
    Halt,

    /// Open the profiler site `sites[site]`.
    Enter {
        site: u32,
    },
    /// Close the innermost open site.
    Exit,
}

/// `c + Σ k·i[reg]`, wrapping.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinPlan {
    pub c: i64,
    /// Window into [`Code::terms`].
    pub terms: Span,
}

/// Where one subscript's value comes from.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Sub {
    /// An affine form.
    Lin(LinPlan),
    /// An index-array element already loaded into `i[..]`.
    Reg(Reg),
}

/// One dimension of a reference.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DimPlan {
    pub sub: Sub,
    /// Extent: a demand subscript must lie in `[0, dim)`.
    pub dim: i64,
    /// Row-major stride in bytes.
    pub bstride: i64,
    /// Coefficient of the enclosing innermost loop's variable in `sub`
    /// (zero outside such a loop): what [`Induction`] seeding needs to
    /// find the subscript's value on the last iteration.
    pub kvar: i64,
}

/// A reference: `base + Σ sub·bstride` over `dims`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RefPlan {
    /// Array id, for the out-of-range panic's message.
    pub array: u32,
    /// Hint target: clamp each subscript instead of checking it.
    pub clamp: bool,
    /// Byte address of element 0.
    pub base: u64,
    /// Window into [`Code::dims`].
    pub dims: Span,
}

/// A reference whose address advances by a constant per iteration of
/// the innermost loop around it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Induction {
    /// The reference, for the entry check and the first address.
    pub r: u32,
    /// `i[reg]` holds the current byte address.
    pub reg: Reg,
    /// Bytes per iteration: `step · Σ kvar·bstride`.
    pub delta: i64,
}

/// What the accesses of a stretch of a strip body come to.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Accesses {
    pub loads: u64,
    pub stores: u64,
    /// Sum of the accesses' own `ns`.
    pub ns: u64,
    /// How many of them flush (call `tick_user`).
    pub ticks: u64,
}

/// A hoisted leaf body that can run as a strip: every op of it is
/// arithmetic, a load or store through one of its loop's inductions, or
/// a forward branch landing inside it. Iterations of such a body reach
/// the [`PagedVm`](crate::vm::PagedVm) in a fixed pattern, summed here.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StripPlan {
    /// The loop's inductions as the VM is asked about them: `(address
    /// register, bytes per iteration, stored through)`, widest stride
    /// first. Window into [`Code::strip_refs`].
    pub refs: Span,
    /// One whole pass over the body, begun with the loop's `tail.ns`
    /// pending as every iteration after a loop's first is.
    pub body: Accesses,
    /// The `ns` of the body's first access: with the time pending when
    /// an iteration starts, what decides whether that access flushes.
    pub first_ns: u64,
    /// The most one iteration can charge: its accesses, the loop's
    /// tail, and every branch charge whether taken or not.
    pub max_ns: u64,
    /// The body as strip code, its `LoopNext` included: windows into
    /// the tables of [`Code::strip`] (`ops` and `origin` share one).
    pub code: Span,
    pub lins: Span,
    pub branches: Span,
}

/// One counted loop.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LoopPlan {
    /// Register of the loop variable.
    pub var: Reg,
    pub step: i64,
    /// Bounds, evaluated once at entry.
    pub lo: LinPlan,
    pub hi: LinPlan,
    pub hi_min: Option<LinPlan>,
    /// The loop's frame: `i[frame]` is the induction value, `i[frame+1]`
    /// the effective bound. A loop cannot be active twice, so its frame
    /// is a fixed pair of slots rather than a pushed record.
    pub frame: Reg,
    /// What the block ended by the loop statement still owes, bounds
    /// evaluation included.
    pub entry: Charge,
    /// What one pass over the body leaves for its `LoopNext`.
    pub tail: Charge,
    /// First op of the body (the checked copy, when there are two).
    pub body: Pc,
    /// First op of the hoisted copy; meaningful when `inds` is not empty.
    pub fast_body: Pc,
    /// First op after the loop.
    pub exit: Pc,
    /// The hoisted copy's inductions, window into [`Code::inds`].
    pub inds: Span,
    /// How to run the hoisted copy in strips, when its shape allows.
    pub strip: Option<StripPlan>,
}

/// Where an access finds its address.
#[derive(Clone, Copy, Debug)]
pub(crate) enum At {
    /// In `i[..]`: an induction's register, or an [`Op::Addr`] result.
    Reg(Reg),
    /// By resolving `refs[..]`.
    Ref(u32),
}

impl At {
    // The access op of each kind for this operand: the register form
    // or its `..At` twin.
    fn load_f(self, dst: Reg, ns: u64) -> Op {
        match self {
            At::Reg(at) => Op::LoadF { dst, at, ns },
            At::Ref(r) => Op::LoadFAt { dst, r, ns },
        }
    }

    fn load_i(self, dst: Reg, ns: u64) -> Op {
        match self {
            At::Reg(at) => Op::LoadI { dst, at, ns },
            At::Ref(r) => Op::LoadIAt { dst, r, ns },
        }
    }

    fn store_f(self, src: Reg, ns: u64) -> Op {
        match self {
            At::Reg(at) => Op::StoreF { src, at, ns },
            At::Ref(r) => Op::StoreFAt { src, r, ns },
        }
    }

    fn store_i(self, src: Reg, ns: u64) -> Op {
        match self {
            At::Reg(at) => Op::StoreI { src, at, ns },
            At::Ref(r) => Op::StoreIAt { src, r, ns },
        }
    }
}

/// Operands of a bundled prefetch + release.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Bundle {
    pub pf_at: At,
    pub pf_pages: u64,
    pub rel_at: At,
    pub rel_pages: u64,
    pub ns: u64,
}

/// A lowered program: the op stream, its side tables, and the initial
/// contents of both register files.
pub(crate) struct Code<'a> {
    /// The source program, for names in panic messages.
    pub prog: &'a Program,
    pub ops: Vec<Op>,
    pub terms: Vec<(i64, Reg)>,
    pub refs: Vec<RefPlan>,
    pub dims: Vec<DimPlan>,
    pub inds: Vec<Induction>,
    pub strip_refs: Vec<(Reg, i64, bool)>,
    pub strip: StripCode,
    pub loops: Vec<LoopPlan>,
    pub bundles: Vec<Bundle>,
    pub sites: Vec<String>,
    pub iregs: Vec<i64>,
    pub fregs: Vec<f64>,
}

impl Code<'_> {
    /// What the accesses among `ops[from..to]` of a strip body come to
    /// when the first of them finds `carried` ns pending: a whole pass,
    /// or the part of one that a strip ending early got through. (An
    /// access is under no `if`, so all of them before `to` have run.)
    pub fn accesses(&self, from: Pc, to: Pc, carried: u64) -> Accesses {
        let mut sum = Accesses::default();
        let mut pending = carried;
        for op in &self.ops[from as usize..to as usize] {
            let ns = match *op {
                Op::LoadF { ns, .. } | Op::LoadI { ns, .. } => {
                    sum.loads += 1;
                    ns
                }
                Op::StoreF { ns, .. } | Op::StoreI { ns, .. } => {
                    sum.stores += 1;
                    ns
                }
                _ => continue,
            };
            sum.ns += ns;
            sum.ticks += u64::from(pending + ns > 0);
            pending = 0;
        }
        sum
    }
}

/// A typed register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Val {
    F(Reg),
    I(Reg),
}

/// The innermost loop whose hoisted body copy is being emitted.
struct Leaf {
    var: usize,
    step: i64,
    /// `if` nesting depth at the point being lowered.
    guards: u32,
    /// The references already turned into inductions of this loop, in
    /// the order of `Code::inds[first..]`.
    seen: Vec<(usize, Vec<Index>)>,
    first: usize,
}

struct Lowerer<'a> {
    code: Code<'a>,
    /// Byte address of element 0 of each array.
    bases: Vec<u64>,
    cost: CostModel,
    probes: bool,
    /// Charge accumulated since the last flushing op or block start.
    cur: Charge,
    iconsts: Vec<(i64, Reg)>,
    fconsts: Vec<(u64, Reg)>,
    leaf: Option<Leaf>,
    param_base: Reg,
    iscalar_base: Reg,
}

/// Lower `prog`. `probes` says whether profiler site brackets are
/// emitted.
///
/// # Panics
///
/// Panics if the binding or parameter counts do not match the program,
/// if the program fails validation, or if it names a loop variable,
/// parameter or scalar it does not declare.
pub(crate) fn lower<'a>(
    prog: &'a Program,
    binds: &[ArrayBinding],
    params: &[i64],
    cost: CostModel,
    probes: bool,
) -> Code<'a> {
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
    let mut iregs = vec![0i64; prog.num_vars];
    iregs.extend_from_slice(params);
    iregs.resize(iregs.len() + prog.num_iscalars, 0);
    let mut lw = Lowerer {
        code: Code {
            prog,
            ops: Vec::new(),
            terms: Vec::new(),
            refs: Vec::new(),
            dims: Vec::new(),
            inds: Vec::new(),
            strip_refs: Vec::new(),
            strip: StripCode::default(),
            loops: Vec::new(),
            bundles: Vec::new(),
            sites: Vec::new(),
            iregs,
            fregs: vec![0.0; prog.num_fscalars],
        },
        bases: binds.iter().map(|b| b.base).collect(),
        cost,
        probes,
        cur: Charge::default(),
        iconsts: Vec::new(),
        fconsts: Vec::new(),
        leaf: None,
        param_base: prog.num_vars as Reg,
        iscalar_base: (prog.num_vars + params.len()) as Reg,
    };
    lw.block(&prog.body);
    lw.fall_through();
    lw.emit(Op::Halt);
    lw.code
}

fn has_loop(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::For(_) => true,
        Stmt::If { then_, else_, .. } => has_loop(then_) || has_loop(else_),
        _ => false,
    })
}

fn span(start: usize, end: usize) -> Span {
    Span {
        start: start as u32,
        len: (end - start) as u32,
    }
}

impl<'a> Lowerer<'a> {
    fn pc(&self) -> Pc {
        self.code.ops.len() as Pc
    }

    fn emit(&mut self, op: Op) {
        self.code.ops.push(op);
    }

    // ------------------------------------------------------- registers

    fn fresh_i(&mut self) -> Reg {
        self.code.iregs.push(0);
        (self.code.iregs.len() - 1) as Reg
    }

    fn fresh_f(&mut self) -> Reg {
        self.code.fregs.push(0.0);
        (self.code.fregs.len() - 1) as Reg
    }

    fn const_i(&mut self, v: i64) -> Reg {
        if let Some(&(_, r)) = self.iconsts.iter().find(|&&(c, _)| c == v) {
            return r;
        }
        let r = self.fresh_i();
        self.code.iregs[r as usize] = v;
        self.iconsts.push((v, r));
        r
    }

    fn const_f(&mut self, v: f64) -> Reg {
        if let Some(&(_, r)) = self.fconsts.iter().find(|&&(c, _)| c == v.to_bits()) {
            return r;
        }
        let r = self.fresh_f();
        self.code.fregs[r as usize] = v;
        self.fconsts.push((v.to_bits(), r));
        r
    }

    /// Refuse an id the program does not declare; `what` names the
    /// kind and its printed prefix ("loop variable i").
    fn declared(&self, id: usize, count: usize, what: &str) {
        assert!(
            id < count,
            "invalid program {}: {what}{id} out of range",
            self.code.prog.name
        );
    }

    fn sym_reg(&self, s: Sym) -> Reg {
        let prog = self.code.prog;
        match s {
            Sym::Var(v) => {
                self.declared(v, prog.num_vars, "loop variable i");
                v as Reg
            }
            Sym::Param(p) => {
                self.declared(p, prog.params.len(), "parameter P");
                self.param_base + p as Reg
            }
        }
    }

    fn fscalar(&self, i: usize) -> Reg {
        self.declared(i, self.code.prog.num_fscalars, "float scalar f");
        i as Reg
    }

    fn iscalar(&self, i: usize) -> Reg {
        self.declared(i, self.code.prog.num_iscalars, "integer scalar n");
        self.iscalar_base + i as Reg
    }

    // --------------------------------------------------------- charges

    fn charge_iops(&mut self, n: usize) {
        self.cur.iops += n as u32;
        self.cur.ns += self.cost.ns_per_iop * n as u64;
    }

    fn charge_flop(&mut self) {
        self.cur.flops += 1;
        self.cur.ns += self.cost.ns_per_flop;
    }

    /// The nanoseconds a flushing op owes: everything since the last
    /// one, plus its own `extra`. The operation counts stay with the
    /// block.
    fn flush_ns(&mut self, extra: u64) -> u64 {
        std::mem::take(&mut self.cur.ns) + extra
    }

    /// Close the current block: hand its whole charge to the op ending it.
    fn take(&mut self) -> Charge {
        std::mem::take(&mut self.cur)
    }

    /// Close a block that simply runs on into the next op.
    fn fall_through(&mut self) {
        let charge = self.take();
        if charge != Charge::default() {
            let to = self.pc() + 1;
            self.emit(Op::Jump { to, charge });
        }
    }

    // ---------------------------------------------------------- probes

    fn enter(&mut self, name: &str) {
        if !self.probes {
            return;
        }
        let sites = &mut self.code.sites;
        let site = sites.iter().position(|s| s == name).unwrap_or_else(|| {
            sites.push(name.to_string());
            sites.len() - 1
        }) as u32;
        self.emit(Op::Enter { site });
    }

    fn exit(&mut self) {
        if self.probes {
            self.emit(Op::Exit);
        }
    }

    // ------------------------------------------------------ references

    fn lin_plan(&mut self, e: &LinExpr) -> LinPlan {
        let start = self.code.terms.len();
        for &(k, s) in &e.terms {
            let r = self.sym_reg(s);
            self.code.terms.push((k, r));
        }
        LinPlan {
            c: e.c,
            terms: span(start, self.code.terms.len()),
        }
    }

    fn ref_plan(&mut self, array: usize, subs: &[(Sub, i64)], clamp: bool) -> u32 {
        let decl = &self.code.prog.arrays[array];
        let start = self.code.dims.len();
        for (d, &(sub, kvar)) in subs.iter().enumerate() {
            self.code.dims.push(DimPlan {
                sub,
                dim: decl.dims[d],
                bstride: decl.stride(d) * decl.elem.bytes() as i64,
                kvar,
            });
        }
        self.code.refs.push(RefPlan {
            array: array as u32,
            clamp,
            base: self.bases[array],
            dims: span(start, self.code.dims.len()),
        });
        (self.code.refs.len() - 1) as u32
    }

    /// Emit whatever must precede an access to `r` and say where the
    /// access finds its address. Charges what the statement tree
    /// charges for the same reference: one integer op per affine term,
    /// two per dimension (one for the last), and for an indirect
    /// subscript the index element's address and its load.
    fn addr(&mut self, r: &ArrayRef, clamp: bool) -> At {
        self.enter("op:addr");
        let rank = r.idx.len();
        let leaf_var = self.leaf.as_ref().map(|l| Sym::Var(l.var));
        let mut subs: Vec<(Sub, i64)> = Vec::with_capacity(rank);
        for (d, ix) in r.idx.iter().enumerate() {
            match ix {
                Index::Lin(e) => {
                    self.charge_iops(e.terms.len());
                    let kvar = leaf_var.map_or(0, |v| e.coeff(v));
                    subs.push((Sub::Lin(self.lin_plan(e)), kvar));
                }
                Index::Ind { array, idx } => {
                    if !clamp && d > 0 {
                        let r = self.ref_plan(r.array, &subs, false);
                        self.emit(Op::Check { r });
                    }
                    let at = self.addr(&ArrayRef::affine(*array, idx.clone()), clamp);
                    let dst = self.fresh_i();
                    let ns = self.flush_ns(0);
                    self.emit(at.load_i(dst, ns));
                    self.cur.ns += self.cost.ns_per_access;
                    subs.push((Sub::Reg(dst), 0));
                }
            }
            self.charge_iops(if d + 1 < rank { 2 } else { 1 });
        }
        let hoist =
            !clamp && !r.is_indirect() && self.leaf.as_ref().is_some_and(|leaf| leaf.guards == 0);
        let at = if hoist {
            At::Reg(self.induction(r, &subs))
        } else {
            let plan = self.ref_plan(r.array, &subs, clamp);
            if self.probes {
                let dst = self.fresh_i();
                self.emit(Op::Addr { dst, r: plan });
                At::Reg(dst)
            } else {
                At::Ref(plan)
            }
        };
        self.exit();
        at
    }

    /// The address register of the affine demand reference `r` in the
    /// hoisted copy of the innermost loop being lowered; equal
    /// references share one.
    fn induction(&mut self, r: &ArrayRef, subs: &[(Sub, i64)]) -> Reg {
        let leaf = self.leaf.as_ref().expect("hoisting inside a leaf loop");
        let (first, step) = (leaf.first, leaf.step);
        let seen = leaf
            .seen
            .iter()
            .position(|(array, idx)| *array == r.array && *idx == r.idx);
        if let Some(n) = seen {
            return self.code.inds[first + n].reg;
        }
        let plan = self.ref_plan(r.array, subs, false);
        let per_iter = self.code.refs[plan as usize]
            .dims
            .of(&self.code.dims)
            .iter()
            .fold(0i64, |acc, dim| {
                acc.wrapping_add(dim.kvar.wrapping_mul(dim.bstride))
            });
        let reg = self.fresh_i();
        self.code.inds.push(Induction {
            r: plan,
            reg,
            delta: per_iter.wrapping_mul(step),
        });
        let leaf = self.leaf.as_mut().expect("checked above");
        leaf.seen.push((r.array, r.idx.clone()));
        reg
    }

    // ----------------------------------------------------- expressions

    fn as_f(&mut self, v: Val) -> Reg {
        match v {
            Val::F(r) => r,
            Val::I(a) => {
                let dst = self.fresh_f();
                self.emit(Op::IToF { dst, a });
                dst
            }
        }
    }

    fn as_i(&mut self, v: Val) -> Reg {
        match v {
            Val::I(r) => r,
            Val::F(a) => {
                let dst = self.fresh_i();
                self.emit(Op::FToI { dst, a });
                dst
            }
        }
    }

    fn dst_f(&mut self, into: Option<Val>) -> Reg {
        match into {
            Some(Val::F(r)) => r,
            _ => self.fresh_f(),
        }
    }

    fn dst_i(&mut self, into: Option<Val>) -> Reg {
        match into {
            Some(Val::I(r)) => r,
            _ => self.fresh_i(),
        }
    }

    /// Lower `e` and return the register holding its value. An op that
    /// produces the root value writes straight into `into` when the
    /// types agree; operands never do, so the root op still reads the
    /// old value of a scalar it is about to overwrite.
    fn expr(&mut self, e: &Expr, into: Option<Val>) -> Val {
        match e {
            Expr::LoadF(r) | Expr::LoadI(r) => {
                self.enter("op:load");
                let elem = self.code.prog.arrays[r.array].elem;
                let at = self.addr(r, false);
                let ns = self.flush_ns(self.cost.ns_per_access);
                let v = match elem {
                    ElemType::F64 => {
                        let dst = self.dst_f(into);
                        self.emit(at.load_f(dst, ns));
                        Val::F(dst)
                    }
                    ElemType::I64 => {
                        let dst = self.dst_i(into);
                        self.emit(at.load_i(dst, ns));
                        Val::I(dst)
                    }
                };
                self.exit();
                v
            }
            Expr::ScalarF(i) => Val::F(self.fscalar(*i)),
            Expr::ScalarI(i) => Val::I(self.iscalar(*i)),
            Expr::Lin(l) => {
                self.charge_iops(l.terms.len());
                Val::I(match l.terms[..] {
                    [] => self.const_i(l.c),
                    [(1, s)] if l.c == 0 => self.sym_reg(s),
                    _ => {
                        let lin = self.lin_plan(l);
                        let dst = self.dst_i(into);
                        self.emit(Op::Lin { dst, lin });
                        dst
                    }
                })
            }
            Expr::ConstF(v) => Val::F(self.const_f(*v)),
            Expr::Bin(op, a, b) => {
                let va = self.expr(a, None);
                let vb = self.expr(b, None);
                if let (Val::I(a), Val::I(b)) = (va, vb) {
                    self.charge_iops(1);
                    let dst = self.dst_i(into);
                    self.emit(match op {
                        BinOp::Add => Op::AddI { dst, a, b },
                        BinOp::Sub => Op::SubI { dst, a, b },
                        BinOp::Mul => Op::MulI { dst, a, b },
                        BinOp::Div => Op::DivI { dst, a, b },
                        BinOp::Rem => Op::RemI { dst, a, b },
                        BinOp::Min => Op::MinI { dst, a, b },
                        BinOp::Max => Op::MaxI { dst, a, b },
                    });
                    Val::I(dst)
                } else {
                    let (a, b) = (self.as_f(va), self.as_f(vb));
                    self.charge_flop();
                    let dst = self.dst_f(into);
                    self.emit(match op {
                        BinOp::Add => Op::AddF { dst, a, b },
                        BinOp::Sub => Op::SubF { dst, a, b },
                        BinOp::Mul => Op::MulF { dst, a, b },
                        BinOp::Div => Op::DivF { dst, a, b },
                        BinOp::Rem => Op::RemF { dst, a, b },
                        BinOp::Min => Op::MinF { dst, a, b },
                        BinOp::Max => Op::MaxF { dst, a, b },
                    });
                    Val::F(dst)
                }
            }
            Expr::Un(op, a) => match (op, self.expr(a, None)) {
                (UnOp::Neg | UnOp::Abs, Val::I(a)) => {
                    self.charge_iops(1);
                    let dst = self.dst_i(into);
                    self.emit(match op {
                        UnOp::Neg => Op::NegI { dst, a },
                        _ => Op::AbsI { dst, a },
                    });
                    Val::I(dst)
                }
                (op, v) => {
                    self.charge_flop();
                    let a = self.as_f(v);
                    let dst = self.dst_f(into);
                    self.emit(match op {
                        UnOp::Neg => Op::NegF { dst, a },
                        UnOp::Sqrt => Op::SqrtF { dst, a },
                        UnOp::Ln => Op::LnF { dst, a },
                        UnOp::Abs => Op::AbsF { dst, a },
                    });
                    Val::F(dst)
                }
            },
            Expr::ToF(a) => {
                let v = self.expr(a, None);
                self.charge_flop();
                Val::F(self.as_f(v))
            }
            Expr::ToI(a) => {
                let v = self.expr(a, None);
                self.charge_iops(1);
                Val::I(self.as_i(v))
            }
        }
    }

    // ------------------------------------------------------ statements

    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::For(l) => self.loop_(l),
            Stmt::Store { dst, value } => {
                self.enter("stmt:store");
                let v = self.expr(value, None);
                self.enter("op:store");
                let elem = self.code.prog.arrays[dst.array].elem;
                let at = self.addr(dst, false);
                let ns = self.flush_ns(self.cost.ns_per_access);
                match elem {
                    ElemType::F64 => {
                        let src = self.as_f(v);
                        self.emit(at.store_f(src, ns));
                    }
                    ElemType::I64 => {
                        let src = self.as_i(v);
                        self.emit(at.store_i(src, ns));
                    }
                }
                self.exit();
                self.exit();
            }
            Stmt::LetF { dst, value } => {
                self.enter("stmt:let");
                let dst = self.fscalar(*dst);
                match self.expr(value, Some(Val::F(dst))) {
                    Val::F(a) if a == dst => {}
                    Val::F(a) => self.emit(Op::MovF { dst, a }),
                    Val::I(a) => self.emit(Op::IToF { dst, a }),
                }
                self.exit();
            }
            Stmt::LetI { dst, value } => {
                self.enter("stmt:let");
                let dst = self.iscalar(*dst);
                match self.expr(value, Some(Val::I(dst))) {
                    Val::I(a) if a == dst => {}
                    Val::I(a) => self.emit(Op::MovI { dst, a }),
                    Val::F(a) => self.emit(Op::FToI { dst, a }),
                }
                self.exit();
            }
            Stmt::If { cond, then_, else_ } => {
                self.enter("stmt:if");
                let br = self.branch(cond);
                self.guard(1);
                self.block(then_);
                if else_.is_empty() {
                    self.fall_through();
                    self.patch(br);
                } else {
                    let skip = self.pc();
                    let charge = self.take();
                    self.emit(Op::Jump { to: 0, charge });
                    self.patch(br);
                    self.block(else_);
                    self.fall_through();
                    self.patch(skip);
                }
                self.guard(-1);
                self.exit();
            }
            Stmt::Prefetch { target, pages } | Stmt::Release { target, pages } => {
                let release = matches!(s, Stmt::Release { .. });
                self.enter(if release {
                    "stmt:release"
                } else {
                    "stmt:prefetch"
                });
                let at = self.addr(&target.target, true);
                self.enter("op:hint");
                let (pages, ns) = (*pages, self.flush_ns(self.cost.ns_per_hint_issue));
                self.emit(match (at, release) {
                    (At::Reg(at), false) => Op::Prefetch { at, pages, ns },
                    (At::Reg(at), true) => Op::Release { at, pages, ns },
                    (At::Ref(r), false) => Op::PrefetchAt { r, pages, ns },
                    (At::Ref(r), true) => Op::ReleaseAt { r, pages, ns },
                });
                self.exit();
                self.exit();
            }
            Stmt::PrefetchRelease {
                pf,
                pf_pages,
                rel,
                rel_pages,
            } => {
                self.enter("stmt:prefetch_release");
                let pf_at = self.addr(&pf.target, true);
                let rel_at = self.addr(&rel.target, true);
                self.enter("op:hint");
                let ns = self.flush_ns(self.cost.ns_per_hint_issue);
                self.code.bundles.push(Bundle {
                    pf_at,
                    pf_pages: *pf_pages,
                    rel_at,
                    rel_pages: *rel_pages,
                    ns,
                });
                let h = (self.code.bundles.len() - 1) as u32;
                self.emit(Op::PrefetchRelease { h });
                self.exit();
                self.exit();
            }
        }
    }

    /// Step the `if` depth of the hoisted copy being emitted, if any.
    fn guard(&mut self, by: i32) {
        if let Some(leaf) = &mut self.leaf {
            leaf.guards = leaf.guards.wrapping_add_signed(by);
        }
    }

    /// Point the forward jump at `at` to the next op emitted.
    fn patch(&mut self, at: Pc) {
        let here = self.pc();
        match &mut self.code.ops[at as usize] {
            Op::BrI { else_, .. } | Op::BrF { else_, .. } => *else_ = here,
            Op::Jump { to, .. } => *to = here,
            op => unreachable!("{op:?} has no target to patch"),
        }
    }

    /// Lower a condition to the branch that closes the current block;
    /// returns the branch's position, its `else_` still to be patched.
    fn branch(&mut self, c: &Cond) -> Pc {
        let va = self.expr(&c.lhs, None);
        let vb = self.expr(&c.rhs, None);
        self.charge_iops(1);
        let (cmp, else_) = (c.op, 0);
        let at = self.pc();
        if let (Val::I(a), Val::I(b)) = (va, vb) {
            let charge = self.take();
            self.emit(Op::BrI {
                a,
                b,
                cmp,
                else_,
                charge,
            });
            at
        } else {
            let (a, b) = (self.as_f(va), self.as_f(vb));
            let at = self.pc();
            let charge = self.take();
            self.emit(Op::BrF {
                a,
                b,
                cmp,
                else_,
                charge,
            });
            at
        }
    }

    fn loop_(&mut self, l: &Loop) {
        if self.probes {
            self.enter(&format!("for#{}", l.var));
        }
        // Bounds are evaluated once at entry, whether or not the loop
        // then runs: their cost belongs to the block the loop ends.
        let hi_min_terms = l.hi_min.as_ref().map_or(0, |m| m.terms.len());
        self.charge_iops(l.lo.terms.len() + l.hi.terms.len() + hi_min_terms);
        let (lo, hi) = (self.lin_plan(&l.lo), self.lin_plan(&l.hi));
        let hi_min = l.hi_min.as_ref().map(|m| self.lin_plan(m));
        let frame = self.fresh_i();
        self.fresh_i();
        let entry = self.take();
        let id = self.code.loops.len();
        self.code.loops.push(LoopPlan {
            var: self.sym_reg(Sym::Var(l.var)),
            step: l.step,
            lo,
            hi,
            hi_min,
            frame,
            entry,
            tail: Charge::default(),
            body: 0,
            fast_body: 0,
            exit: 0,
            inds: Span::default(),
            strip: None,
        });
        self.emit(Op::LoopEnter { l: id as u32 });

        // A loop with no loop inside is a leaf: its body is emitted
        // with hoisting on, and a second time without if anything was
        // hoisted. (A leaf never encloses this call, so `self.leaf` is
        // free.)
        debug_assert!(self.leaf.is_none());
        let first = self.code.inds.len();
        if !has_loop(&l.body) {
            self.leaf = Some(Leaf {
                var: l.var,
                step: l.step,
                guards: 0,
                seen: Vec::new(),
                first,
            });
        }
        let head = self.pc();
        let tail = self.body(l);
        let inds = match self.leaf.take() {
            Some(_) => span(first, self.code.inds.len()),
            None => Span::default(),
        };
        let strip = self.strip_plan(head, inds, tail);
        self.emit(Op::LoopNext {
            l: id as u32,
            head,
            bumps: inds,
        });
        let mut body = head;
        if !inds.is_empty() {
            body = self.pc();
            let checked_tail = self.body(l);
            debug_assert_eq!(tail, checked_tail, "both copies owe the same charge");
            self.emit(Op::LoopNext {
                l: id as u32,
                head: body,
                bumps: Span::default(),
            });
        }
        let exit = self.pc();
        let plan = &mut self.code.loops[id];
        (plan.tail, plan.body, plan.fast_body, plan.exit, plan.inds) =
            (tail, body, head, exit, inds);
        plan.strip = strip;
        self.exit();
    }

    /// The [`StripPlan`] of the hoisted body just emitted from `head`
    /// on, if it has the shape: references under an `if` are `..At`
    /// ops, so they refuse it as hints, checks and profiler brackets do.
    /// The match is also the body's translation into strip code, op for
    /// op ahead of [`fuse`]: a register, a table index or a branch
    /// target too wide for a [`StripOp`] field refuses the plan as a
    /// wrong shape does, and the loop runs op by op.
    fn strip_plan(&mut self, head: Pc, inds: Span, tail: Charge) -> Option<StripPlan> {
        use StripKind as K;
        let next = self.pc();
        let mut refs: Vec<_> = inds
            .of(&self.code.inds)
            .iter()
            .map(|ind| (ind.reg, ind.delta, false))
            .collect();
        let (mut branch_ns, mut first_ns, mut free_access) = (0, None, false);
        let mut access = |at: Reg, ns: u64, store: bool| {
            let through = refs.iter_mut().find(|(reg, ..)| *reg == at)?;
            through.2 |= store;
            first_ns.get_or_insert(ns);
            free_access |= ns == 0;
            Some(())
        };
        // A branch's target in the body and its entry in `branches`.
        let mut branches = Vec::new();
        let mut branch = |pc: Pc, to: Pc, cmp: CmpOp, charge: Charge| {
            if to <= pc || to > next {
                return None;
            }
            branch_ns += charge.ns;
            branches.push(StripBranch { cmp, charge });
            Some((to - head, branches.len() as u32 - 1))
        };
        let mut lins = Vec::new();
        let mut plain = Vec::with_capacity((next - head) as usize + 1);
        for (pc, op) in (head..next).zip(&self.code.ops[head as usize..]) {
            let (kind, d, a, b, c) = match *op {
                Op::LoadF { dst, at, ns } => {
                    access(at, ns, false)?;
                    (K::LoadF, dst, at, 0, 0)
                }
                Op::LoadI { dst, at, ns } => {
                    access(at, ns, false)?;
                    (K::LoadI, dst, at, 0, 0)
                }
                Op::StoreF { src, at, ns } => {
                    access(at, ns, true)?;
                    (K::StoreF, at, src, 0, 0)
                }
                Op::StoreI { src, at, ns } => {
                    access(at, ns, true)?;
                    (K::StoreI, at, src, 0, 0)
                }
                Op::BrI {
                    a,
                    b,
                    cmp,
                    else_,
                    charge,
                } => {
                    let (to, c) = branch(pc, else_, cmp, charge)?;
                    (K::BrI, to, a, b, c)
                }
                Op::BrF {
                    a,
                    b,
                    cmp,
                    else_,
                    charge,
                } => {
                    let (to, c) = branch(pc, else_, cmp, charge)?;
                    (K::BrF, to, a, b, c)
                }
                // An unconditional branch compares nothing.
                Op::Jump { to, charge } => {
                    let (to, c) = branch(pc, to, CmpOp::Eq, charge)?;
                    (K::Jump, to, 0, 0, c)
                }
                Op::AddF { dst, a, b } => (K::AddRRR, dst, a, b, 0),
                Op::SubF { dst, a, b } => (K::SubRRR, dst, a, b, 0),
                Op::MulF { dst, a, b } => (K::MulRRR, dst, a, b, 0),
                Op::DivF { dst, a, b } => (K::DivRRR, dst, a, b, 0),
                Op::RemF { dst, a, b } => (K::RemF, dst, a, b, 0),
                Op::MinF { dst, a, b } => (K::MinF, dst, a, b, 0),
                Op::MaxF { dst, a, b } => (K::MaxF, dst, a, b, 0),
                Op::NegF { dst, a } => (K::NegF, dst, a, 0, 0),
                Op::AbsF { dst, a } => (K::AbsF, dst, a, 0, 0),
                Op::SqrtF { dst, a } => (K::SqrtF, dst, a, 0, 0),
                Op::LnF { dst, a } => (K::LnF, dst, a, 0, 0),
                Op::MovF { dst, a } => (K::MovF, dst, a, 0, 0),
                Op::IToF { dst, a } => (K::IToF, dst, a, 0, 0),
                Op::AddI { dst, a, b } => (K::AddI, dst, a, b, 0),
                Op::SubI { dst, a, b } => (K::SubI, dst, a, b, 0),
                Op::MulI { dst, a, b } => (K::MulI, dst, a, b, 0),
                Op::DivI { dst, a, b } => (K::DivI, dst, a, b, 0),
                Op::RemI { dst, a, b } => (K::RemI, dst, a, b, 0),
                Op::MinI { dst, a, b } => (K::MinI, dst, a, b, 0),
                Op::MaxI { dst, a, b } => (K::MaxI, dst, a, b, 0),
                Op::NegI { dst, a } => (K::NegI, dst, a, 0, 0),
                Op::AbsI { dst, a } => (K::AbsI, dst, a, 0, 0),
                Op::MovI { dst, a } => (K::MovI, dst, a, 0, 0),
                Op::FToI { dst, a } => (K::FToI, dst, a, 0, 0),
                Op::Lin { dst, lin } => {
                    lins.push(lin);
                    (K::Lin, dst, lins.len() as u32 - 1, 0, 0)
                }
                Op::Addr { .. }
                | Op::Check { .. }
                | Op::Prefetch { .. }
                | Op::Release { .. }
                | Op::LoadFAt { .. }
                | Op::LoadIAt { .. }
                | Op::StoreFAt { .. }
                | Op::StoreIAt { .. }
                | Op::PrefetchAt { .. }
                | Op::ReleaseAt { .. }
                | Op::PrefetchRelease { .. }
                | Op::LoopEnter { .. }
                | Op::LoopNext { .. }
                | Op::Halt
                | Op::Enter { .. }
                | Op::Exit => return None,
            };
            plain.push(StripOp {
                kind,
                d: narrow(d)?,
                a: narrow(a)?,
                b: narrow(b)?,
                c: narrow(c)?,
            });
        }
        // The tick count below is a fact of the body only while the
        // time a branch leaves pending cannot decide whether the access
        // behind it flushes: an access that charges something always
        // does.
        if branch_ns > 0 && free_access {
            return None;
        }
        let first_ns = first_ns?;
        refs.sort_by_key(|&(_, delta, _)| std::cmp::Reverse(delta.unsigned_abs()));
        let start = self.code.strip_refs.len();
        self.code.strip_refs.extend(refs);
        // The `LoopNext` about to be emitted at `next`.
        plain.push(StripOp {
            kind: K::Next,
            d: 0,
            a: 0,
            b: 0,
            c: 0,
        });
        let strip = &mut self.code.strip;
        let at = (strip.ops.len(), strip.lins.len(), strip.branches.len());
        fuse(&plain, head, self.code.prog.num_fscalars, strip);
        strip.lins.extend(lins);
        strip.branches.extend(branches);
        let (code, lins, branches) = (
            span(at.0, strip.ops.len()),
            span(at.1, strip.lins.len()),
            span(at.2, strip.branches.len()),
        );
        let body = self.code.accesses(head, next, tail.ns);
        Some(StripPlan {
            refs: span(start, self.code.strip_refs.len()),
            body,
            first_ns,
            max_ns: body.ns + tail.ns + branch_ns,
            code,
            lins,
            branches,
        })
    }

    /// One copy of a loop body; returns the charge left for its
    /// `LoopNext`.
    fn body(&mut self, l: &Loop) -> Charge {
        debug_assert_eq!(self.cur, Charge::default());
        self.cur.ns = self.cost.ns_per_iter;
        self.block(&l.body);
        self.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::programs;

    fn lowered(prog: &Program, probes: bool) -> Code<'_> {
        let (binds, _) = ArrayBinding::sequential(prog, 4096);
        lower(prog, &binds, &[], CostModel::default(), probes)
    }

    #[test]
    fn an_op_fits_half_a_cache_line() {
        assert!(std::mem::size_of::<Op>() <= 32);
    }

    #[test]
    fn a_leaf_too_wide_for_strip_code_gets_no_plan() {
        let lowered = |prog: &Program| {
            let (binds, _) = ArrayBinding::sequential(prog, 4096);
            let lp = lower(prog, &binds, &[9], CostModel::default(), false).loops[0];
            (lp.inds.is_empty(), lp.strip.is_some())
        };
        // `s = x[i]`: hoisted, and a strip body.
        let mut prog = programs::load_last();
        assert_eq!(lowered(&prog), (false, true));
        // The same into the 70 000th float register, which no `u16`
        // names: still hoisted, run op by op.
        let Stmt::For(l) = &mut prog.body[0] else {
            unreachable!("one loop")
        };
        let Stmt::LetF { dst, .. } = &mut l.body[0] else {
            unreachable!("one assignment")
        };
        *dst = 69_999;
        prog.num_fscalars = 70_000;
        assert_eq!(lowered(&prog), (false, false));
        let (binds, bytes) = ArrayBinding::sequential(&prog, 4096);
        let mut vm = crate::vm::MemVm::new(bytes, 4096);
        let stats = crate::exec::run_program(&prog, &binds, &[9], CostModel::default(), &mut vm);
        assert_eq!((stats.loads, vm.accesses), (9, 9));
    }

    #[test]
    fn an_early_end_counts_the_accesses_in_front_of_it() {
        use StripKind::*;
        let prog = programs::divide_between();
        let code = lowered(&prog, false);
        let lp = code.loops[0];
        let plan = lp.strip.expect("arithmetic and inductions only");
        // A fused group on either side of the division, none across it.
        let strip = plan.code.of(&code.strip.ops);
        let kinds: Vec<_> = strip.iter().map(|op| op.kind).collect();
        assert_eq!(kinds, [MulAddMMM, Lin, DivI, AddMMR, Next]);
        // A zero divisor hands the general loop the `DivI` itself, and
        // the part of the pass in front of it made three accesses.
        let pc = plan.code.of(&code.strip.origin)[2];
        assert!(matches!(code.ops[pc as usize], Op::DivI { .. }));
        let part = code.accesses(lp.fast_body, pc, lp.tail.ns);
        assert_eq!((part.loads, part.stores), (2, 1));
        let whole = plan.body;
        assert_eq!((whole.loads, whole.stores), (3, 2));
    }

    #[test]
    fn leaf_loop_gets_a_hoisted_and_a_checked_copy() {
        let prog = programs::axpy(100);
        let code = lowered(&prog, false);
        let lp = code.loops[0];
        // x[i] once; y[i] loaded and stored through one register.
        let inds = lp.inds.of(&code.inds);
        assert_eq!(inds.len(), 2);
        assert!(inds.iter().all(|ind| ind.delta == 8));
        let hoisted = &code.ops[lp.fast_body as usize..lp.body as usize];
        let checked = &code.ops[lp.body as usize..lp.exit as usize];
        let accesses = |ops: &[Op]| {
            let by_register = ops
                .iter()
                .filter(|op| matches!(op, Op::LoadF { .. } | Op::StoreF { .. }))
                .count();
            let by_reference = ops
                .iter()
                .filter(|op| matches!(op, Op::LoadFAt { .. } | Op::StoreFAt { .. }))
                .count();
            (by_register, by_reference)
        };
        assert_eq!(accesses(hoisted), (3, 0));
        assert_eq!(accesses(checked), (0, 3));
        // Same arithmetic, same charges, in both copies.
        assert_eq!(hoisted.len(), checked.len());
    }

    #[test]
    fn a_reference_under_an_if_stays_checked() {
        let prog = programs::conditional_sum();
        let code = lowered(&prog, false);
        let lp = code.loops[0];
        // The condition's x[i] is hoisted; the guarded one is not.
        assert_eq!(lp.inds.of(&code.inds).len(), 1);
        let hoisted = &code.ops[lp.fast_body as usize..lp.body as usize];
        assert!(hoisted.iter().any(|op| matches!(op, Op::LoadF { .. })));
        assert!(hoisted.iter().any(|op| matches!(op, Op::LoadFAt { .. })));
    }

    #[test]
    fn hint_targets_and_loops_around_loops_do_not_hoist() {
        let prog = programs::clamped_hint();
        assert!(lowered(&prog, false).inds.is_empty());
        let prog = programs::matrix();
        let code = lowered(&prog, false);
        assert!(code.loops[0].inds.is_empty(), "outer loop is not a leaf");
        assert_eq!(code.loops[1].inds.of(&code.inds).len(), 1);
    }

    #[test]
    fn probes_are_ops_only_under_a_live_sink() {
        let prog = programs::hinted();
        let is_probe = |op: &Op| matches!(op, Op::Enter { .. } | Op::Exit);
        assert!(!lowered(&prog, false).ops.iter().any(is_probe));
        let code = lowered(&prog, true);
        let enters = code.ops.iter().filter(|op| matches!(op, Op::Enter { .. }));
        let exits = code.ops.iter().filter(|op| matches!(op, Op::Exit));
        assert_eq!(enters.count(), exits.count());
        for site in ["for#0", "stmt:prefetch", "op:hint", "op:addr", "op:store"] {
            assert!(code.sites.iter().any(|s| s == site), "no site {site}");
        }
        // Under the profiler the address step is an op of its own.
        assert!(code.ops.iter().any(|op| matches!(op, Op::Addr { .. })));
    }

    #[test]
    #[should_panic(expected = "loop variable i7 out of range")]
    fn undeclared_symbols_are_refused_at_lowering() {
        let mut prog = programs::axpy(4);
        prog.body.push(Stmt::LetI {
            dst: prog.num_iscalars,
            value: Expr::Lin(crate::expr::var(7)),
        });
        prog.num_iscalars += 1;
        lowered(&prog, false);
    }
}
