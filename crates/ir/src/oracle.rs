//! Differential oracle: the dispatch loop against the tree-walker.
//!
//! Both interpreters run the same program over the same initial memory
//! against a [`RecVm`] that logs every call they make. Everything that
//! can be observed from outside must agree: the call log (every
//! `tick_user` argument, every access with its address and value, every
//! hint with its address and page count), the [`ExecStats`], the final
//! memory — and, when a run panics, the panic message and the log up to
//! it. The dispatch loop runs a second time under a [`ParkingVm`], which
//! parks it at seeded calls and resumes it; that changes nothing either.
//! A third time the [`RecVm`] grants strips of seeded lengths: those
//! iterations make no calls, so what must agree there is what the calls
//! add up to ([`Sums`]) — tick time and count, accesses, the hint stream
//! — beside the stats, the memory and the panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use oocp_obs::prof::HostProf;

use crate::exec::{run_program, run_program_profiled, ArrayBinding, ExecStats};
use crate::expr::{lin, param, var, BinOp, CmpOp, Cond, Expr, LinExpr, UnOp};
use crate::parse::parse_program;
use crate::program::{ArrayRef, ElemType, HintTarget, Index, Program, Stmt};
use crate::treewalk::Executor;
use crate::vm::{ArrayData, CostModel, MemVm, PagedVm, Park, StripCharge, StripRefs};

/// One call across the [`PagedVm`] boundary. Float values are kept as
/// bits so a NaN compares equal to itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    Tick(u64),
    LoadF(u64, u64),
    LoadI(u64, i64),
    StoreF(u64, u64),
    StoreI(u64, i64),
    Prefetch(u64, u64),
    Release(u64, u64),
    PrefetchRelease(u64, u64, u64, u64),
}

/// The log keeps its first `HEAD` events verbatim and all of them in a
/// running digest, so a sixty-million-call kernel costs no more memory
/// than a ten-call unit program.
const HEAD: usize = 1 << 16;

/// What a run's calls add up to, however many of them a strip's bulk
/// charge stood in for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Sums {
    tick_ns: u64,
    ticks: u64,
    /// Digest of the hint calls alone, in order.
    hints: u64,
}

fn mix(digest: &mut u64, words: [u64; 5]) {
    for w in words {
        *digest = (*digest ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A recording [`PagedVm`] over a flat memory.
#[derive(Clone)]
struct RecVm {
    mem: MemVm,
    head: Vec<Ev>,
    calls: u64,
    digest: u64,
    sums: Sums,
    /// Grant strips, of lengths drawn from this.
    strips: Option<Rng>,
}

impl RecVm {
    fn new(mem: MemVm) -> Self {
        Self {
            mem,
            head: Vec::new(),
            calls: 0,
            digest: 0,
            sums: Sums::default(),
            strips: None,
        }
    }

    fn log(&mut self, ev: Ev) {
        let (tag, words) = match ev {
            Ev::Tick(ns) => (1, [ns, 0, 0, 0]),
            Ev::LoadF(a, v) => (2, [a, v, 0, 0]),
            Ev::LoadI(a, v) => (3, [a, v as u64, 0, 0]),
            Ev::StoreF(a, v) => (4, [a, v, 0, 0]),
            Ev::StoreI(a, v) => (5, [a, v as u64, 0, 0]),
            Ev::Prefetch(a, n) => (6, [a, n, 0, 0]),
            Ev::Release(a, n) => (7, [a, n, 0, 0]),
            Ev::PrefetchRelease(a, n, b, m) => (8, [a, n, b, m]),
        };
        let words = [tag, words[0], words[1], words[2], words[3]];
        mix(&mut self.digest, words);
        match ev {
            Ev::Tick(ns) => {
                self.sums.tick_ns += ns;
                self.sums.ticks += 1;
            }
            Ev::Prefetch(..) | Ev::Release(..) | Ev::PrefetchRelease(..) => {
                mix(&mut self.sums.hints, words)
            }
            _ => {}
        }
        self.calls += 1;
        if self.head.len() < HEAD {
            self.head.push(ev);
        }
    }
}

impl PagedVm for RecVm {
    fn page_bytes(&self) -> u64 {
        self.mem.page_bytes()
    }
    fn tick_user(&mut self, ns: u64) {
        self.log(Ev::Tick(ns));
    }
    fn load_f64(&mut self, addr: u64) -> f64 {
        let v = self.mem.load_f64(addr);
        self.log(Ev::LoadF(addr, v.to_bits()));
        v
    }
    fn store_f64(&mut self, addr: u64, v: f64) {
        self.log(Ev::StoreF(addr, v.to_bits()));
        self.mem.store_f64(addr, v);
    }
    fn load_i64(&mut self, addr: u64) -> i64 {
        let v = self.mem.load_i64(addr);
        self.log(Ev::LoadI(addr, v));
        v
    }
    fn store_i64(&mut self, addr: u64, v: i64) {
        self.log(Ev::StoreI(addr, v));
        self.mem.store_i64(addr, v);
    }
    fn prefetch(&mut self, addr: u64, pages: u64) {
        self.log(Ev::Prefetch(addr, pages));
    }
    fn release(&mut self, addr: u64, pages: u64) {
        self.log(Ev::Release(addr, pages));
    }
    fn prefetch_release(&mut self, pf: u64, pf_pages: u64, rel: u64, rel_pages: u64) {
        self.log(Ev::PrefetchRelease(pf, pf_pages, rel, rel_pages));
    }
    // A length anywhere in `[0, want]`, the two ends favoured: strips
    // are refused, stop short of the loop's exit, and run up to it.
    fn strip(&mut self, refs: StripRefs, want: u64, lead: u64, iter: u64) -> (u64, &mut [u8]) {
        let Some(rng) = &mut self.strips else {
            return (0, &mut []);
        };
        let n = match rng.range(0, 8) {
            0 => 0,
            1..=3 => want,
            _ => rng.range(0, want as i64 + 1) as u64,
        };
        (n, self.mem.strip(refs, n, lead, iter).1)
    }
    fn strip_charge(&mut self, charge: StripCharge) {
        self.sums.tick_ns += charge.ns;
        self.sums.ticks += charge.ticks;
        self.mem.strip_charge(charge);
    }
    // The hints a strip stood in for join the hint stream in order.
    const LOGS_STRIP_HINTS: bool = true;
    fn strip_hints(&mut self, hints: &[(u64, u64)]) {
        for &(addr, pages) in hints {
            self.log(Ev::Prefetch(addr, pages));
        }
    }
}

thread_local! {
    /// Parks taken by every [`ParkingVm`] so far: behind a call, and
    /// with the call refused.
    static PARKS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// A [`RecVm`] that parks the run about one call in six: behind the
/// call, or — not a `tick_user` — by refusing it unlogged and undone,
/// to be made again.
struct ParkingVm<'a> {
    rec: &'a mut RecVm,
    rng: Rng,
    park: Option<Park>,
}

impl ParkingVm<'_> {
    fn refuse(&mut self) -> bool {
        let refused = self.rng.chance(8);
        if refused {
            self.park = Some(Park::Redo);
            PARKS.set((PARKS.get().0, PARKS.get().1 + 1));
        }
        refused
    }

    fn carried_out(&mut self) {
        if self.rng.chance(8) {
            self.park = Some(Park::After);
            PARKS.set((PARKS.get().0 + 1, PARKS.get().1));
        }
    }
}

impl PagedVm for ParkingVm<'_> {
    const PARKS: bool = true;
    fn parked(&mut self) -> Option<Park> {
        self.park.take()
    }
    fn page_bytes(&self) -> u64 {
        self.rec.page_bytes()
    }
    fn tick_user(&mut self, ns: u64) {
        self.rec.tick_user(ns);
        self.carried_out();
    }
    fn load_f64(&mut self, addr: u64) -> f64 {
        if self.refuse() {
            return f64::NAN;
        }
        let v = self.rec.load_f64(addr);
        self.carried_out();
        v
    }
    fn store_f64(&mut self, addr: u64, v: f64) {
        if !self.refuse() {
            self.rec.store_f64(addr, v);
            self.carried_out();
        }
    }
    fn load_i64(&mut self, addr: u64) -> i64 {
        if self.refuse() {
            return i64::MIN;
        }
        let v = self.rec.load_i64(addr);
        self.carried_out();
        v
    }
    fn store_i64(&mut self, addr: u64, v: i64) {
        if !self.refuse() {
            self.rec.store_i64(addr, v);
            self.carried_out();
        }
    }
    fn prefetch(&mut self, addr: u64, pages: u64) {
        if !self.refuse() {
            self.rec.prefetch(addr, pages);
            self.carried_out();
        }
    }
    fn release(&mut self, addr: u64, pages: u64) {
        if !self.refuse() {
            self.rec.release(addr, pages);
            self.carried_out();
        }
    }
    fn prefetch_release(&mut self, pf: u64, pf_pages: u64, rel: u64, rel_pages: u64) {
        if !self.refuse() {
            self.rec.prefetch_release(pf, pf_pages, rel, rel_pages);
            self.carried_out();
        }
    }
}

/// A tiny deterministic generator (splitmix64).
#[derive(Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.range(0, from.len() as i64) as usize]
    }
}

/// Seeded initial memory: floats in `[-2, 2)` in the float arrays;
/// small subscript-like values in the integer ones, one in a hundred of
/// them out of any array's range.
fn initial_memory(prog: &Program, binds: &[ArrayBinding], bytes: u64, seed: u64) -> MemVm {
    let mut mem = MemVm::new(bytes, 4096);
    let mut rng = Rng(seed ^ 0x5eed);
    for (decl, bind) in prog.arrays.iter().zip(binds) {
        for e in 0..decl.len() as u64 {
            let addr = bind.base + e * 8;
            match decl.elem {
                ElemType::F64 => mem.poke_f64(addr, rng.range(-2000, 2000) as f64 / 1000.0),
                ElemType::I64 => {
                    let v = if rng.chance(1) {
                        rng.pick(&[-1, 9, 1 << 40])
                    } else {
                        rng.range(0, 3)
                    };
                    mem.poke_i64(addr, v);
                }
            }
        }
    }
    mem
}

/// What one interpreter did.
struct Outcome {
    vm: RecVm,
    /// `Err` carries the panic message.
    result: Result<ExecStats, String>,
}

fn observe(vm: &RecVm, run: impl FnOnce(&mut RecVm) -> ExecStats) -> Outcome {
    let mut vm = vm.clone();
    let result = catch_unwind(AssertUnwindSafe(|| run(&mut vm))).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string panic>".to_string())
    });
    Outcome { vm, result }
}

fn assert_same(what: &str, tree: &Outcome, lowered: &Outcome) {
    if let Some(at) = (0..tree.vm.head.len().max(lowered.vm.head.len()))
        .find(|&i| tree.vm.head.get(i) != lowered.vm.head.get(i))
    {
        panic!(
            "{what}: call {at} differs: tree-walker {:?}, bytecode {:?}",
            tree.vm.head.get(at),
            lowered.vm.head.get(at)
        );
    }
    assert_eq!(tree.vm.calls, lowered.vm.calls, "{what}: call count");
    assert_eq!(tree.vm.digest, lowered.vm.digest, "{what}: call digest");
    assert_eq!(tree.result, lowered.result, "{what}: stats or panic");
    assert!(
        tree.vm.mem.bytes() == lowered.vm.mem.bytes(),
        "{what}: final memory"
    );
}

/// The strip leg's comparison: the calls differ, what they add up to
/// must not.
fn assert_same_sums(what: &str, tree: &Outcome, stripped: &Outcome) {
    assert_eq!(tree.vm.sums, stripped.vm.sums, "{what}: ticks or hints");
    assert_eq!(
        tree.vm.mem.accesses, stripped.vm.mem.accesses,
        "{what}: accesses"
    );
    assert_eq!(tree.result, stripped.result, "{what}: stats or panic");
    assert!(
        tree.vm.mem.bytes() == stripped.vm.mem.bytes(),
        "{what}: final memory"
    );
}

/// Run `prog` through both interpreters, and through the dispatch loop
/// parked and resumed and in strips, and hold every observable equal; with
/// `profiled`, once more with a live profiler sink on both.
/// Returns the tree-walker's outcome.
fn check(
    what: &str,
    prog: &Program,
    params: &[i64],
    cost: CostModel,
    seed: u64,
    profiled: bool,
) -> Outcome {
    let (binds, bytes) = ArrayBinding::sequential(prog, 4096);
    let start = RecVm::new(initial_memory(prog, &binds, bytes, seed));

    let tree = observe(&start, |vm| {
        Executor::new(prog, &binds, params, cost, vm).run()
    });
    let lowered = observe(&start, |vm| run_program(prog, &binds, params, cost, vm));
    assert_same(what, &tree, &lowered);
    let stepped = observe(&start, |rec| {
        let mut vm = ParkingVm {
            rec,
            rng: Rng(seed ^ 0x9a7c),
            park: None,
        };
        run_program(prog, &binds, params, cost, &mut vm)
    });
    assert_same(&format!("{what} (stepped)"), &tree, &stepped);
    let mut granting = start.clone();
    granting.strips = Some(Rng(seed ^ 0x57a1));
    let stripped = observe(&granting, |vm| run_program(prog, &binds, params, cost, vm));
    assert_same_sums(&format!("{what} (strips)"), &tree, &stripped);
    if !profiled {
        return tree;
    }

    // The profiled lowering is a different op stream (site brackets in
    // it): same observables again, and the same sites entered the same
    // number of times in the same order as the tree-walker's probes.
    let (mut tree_prof, mut lowered_prof) = (HostProf::new(), HostProf::new());
    let tree_p = observe(&start, |vm| {
        Executor::with_prof(prog, &binds, params, cost, vm, &mut tree_prof).run()
    });
    let lowered_p = observe(&start, |vm| {
        run_program_profiled(prog, &binds, params, cost, vm, &mut lowered_prof)
    });
    assert_same(&format!("{what} (profiled)"), &tree, &tree_p);
    assert_same(&format!("{what} (profiled)"), &tree, &lowered_p);
    if tree.result.is_ok() {
        let sites = |prof: HostProf| -> Vec<(String, u64)> {
            let rows = prof.finish().rows();
            rows.into_iter().map(|r| (r.path, r.count)).collect()
        };
        assert_eq!(sites(tree_prof), sites(lowered_prof), "{what}: sites");
    }
    tree
}

// ------------------------------------------------ hand-written programs

/// The programs of the unit tests in `exec.rs`, which build them here.
pub(crate) mod programs {
    use super::*;

    /// `y[i] = 2*x[i] + y[i]` over `n` elements.
    pub fn axpy(n: i64) -> Program {
        let mut p = Program::new("axpy");
        let x = p.array("x", ElemType::F64, vec![n]);
        let y = p.array("y", ElemType::F64, vec![n]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(n),
            1,
            vec![Stmt::Store {
                dst: ArrayRef::affine(y, vec![var(i)]),
                value: Expr::add(
                    Expr::mul(
                        Expr::ConstF(2.0),
                        Expr::LoadF(ArrayRef::affine(x, vec![var(i)])),
                    ),
                    Expr::LoadF(ArrayRef::affine(y, vec![var(i)])),
                ),
            }],
        )];
        p
    }

    /// `a[b[i]] += 1` over five keys (arrays `a`, `b`).
    pub fn histogram() -> Program {
        let mut p = Program::new("hist");
        let a = p.array("a", ElemType::I64, vec![10]);
        let b = p.array("b", ElemType::I64, vec![5]);
        let i = p.fresh_var();
        let aref = ArrayRef {
            array: a,
            idx: vec![Index::Ind {
                array: b,
                idx: vec![var(i)],
            }],
        };
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(5),
            1,
            vec![Stmt::Store {
                dst: aref.clone(),
                value: Expr::add(Expr::LoadI(aref), Expr::Lin(lin(1))),
            }],
        )];
        p
    }

    /// `x[i] = 1.0` for `i` below the parameter `n`.
    pub fn symbolic_bound() -> Program {
        let mut p = Program::new("sym");
        let x = p.array("x", ElemType::F64, vec![100]);
        let n = p.param("n");
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            param(n),
            1,
            vec![Stmt::Store {
                dst: ArrayRef::affine(x, vec![var(i)]),
                value: Expr::ConstF(1.0),
            }],
        )];
        p
    }

    /// `for (i = 9; i > -1; i--) x[i] = i`.
    pub fn backwards() -> Program {
        let mut p = Program::new("back");
        let x = p.array("x", ElemType::I64, vec![10]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(9),
            lin(-1),
            -1,
            vec![Stmt::Store {
                dst: ArrayRef::affine(x, vec![var(i)]),
                value: Expr::Lin(var(i)),
            }],
        )];
        p
    }

    /// Ten prefetches of `x[i + 100]`, far past the ten-element array.
    pub fn clamped_hint() -> Program {
        let mut p = Program::new("clamp");
        let x = p.array("x", ElemType::F64, vec![10]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(10),
            1,
            vec![Stmt::Prefetch {
                target: HintTarget {
                    target: ArrayRef::affine(x, vec![var(i).offset(100)]),
                },
                pages: 1,
            }],
        )];
        p
    }

    /// Eleven stores into a ten-element array.
    pub fn out_of_bounds() -> Program {
        let mut p = Program::new("oob");
        let x = p.array("x", ElemType::F64, vec![10]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(11),
            1,
            vec![Stmt::Store {
                dst: ArrayRef::affine(x, vec![var(i)]),
                value: Expr::ConstF(0.0),
            }],
        )];
        p
    }

    /// `s = 0; for i { if x[i] > 0.5 { s = s + x[i] } }; sum[0] = s`
    /// (arrays `x`, `sum`).
    pub fn conditional_sum() -> Program {
        let mut p = Program::new("condsum");
        let x = p.array("x", ElemType::F64, vec![4]);
        let s = p.fresh_fscalar();
        let i = p.fresh_var();
        let sum = p.array("sum", ElemType::F64, vec![1]);
        p.body = vec![
            Stmt::LetF {
                dst: s,
                value: Expr::ConstF(0.0),
            },
            Stmt::for_(
                i,
                lin(0),
                lin(4),
                1,
                vec![Stmt::If {
                    cond: Cond {
                        lhs: Expr::LoadF(ArrayRef::affine(x, vec![var(i)])),
                        op: CmpOp::Gt,
                        rhs: Expr::ConstF(0.5),
                    },
                    then_: vec![Stmt::LetF {
                        dst: s,
                        value: Expr::add(
                            Expr::ScalarF(s),
                            Expr::LoadF(ArrayRef::affine(x, vec![var(i)])),
                        ),
                    }],
                    else_: vec![],
                }],
            ),
            Stmt::Store {
                dst: ArrayRef::affine(sum, vec![lin(0)]),
                value: Expr::ScalarF(s),
            },
        ];
        p
    }

    /// `c[i][j] = 10*i + j` over a 3×4 matrix.
    pub fn matrix() -> Program {
        let mut p = Program::new("mat");
        let c = p.array("c", ElemType::F64, vec![3, 4]);
        let i = p.fresh_var();
        let j = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(3),
            1,
            vec![Stmt::for_(
                j,
                lin(0),
                lin(4),
                1,
                vec![Stmt::Store {
                    dst: ArrayRef::affine(c, vec![var(i), var(j)]),
                    value: Expr::Lin(var(i).scale(10).add(&var(j))),
                }],
            )],
        )];
        p
    }

    /// A prefetch and an indirect store per iteration (arrays `x`, `b`).
    pub fn hinted() -> Program {
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
        p
    }

    /// `for i in 0..4 { x[i] = x[i] + 1; n = 7 / (2 - i) }`: two
    /// iterations complete, the third divides by zero.
    pub fn divide_by_zero() -> Program {
        divides(false)
    }

    /// The same with the division first: the third iteration stops
    /// before its first access, the loop's tail charge still pending.
    pub fn divide_first() -> Program {
        divides(true)
    }

    fn divides(first: bool) -> Program {
        let mut p = Program::new("divzero");
        let x = p.array("x", ElemType::F64, vec![4]);
        let n = p.fresh_iscalar();
        let i = p.fresh_var();
        let xi = ArrayRef::affine(x, vec![var(i)]);
        let mut body = vec![
            Stmt::Store {
                dst: xi.clone(),
                value: Expr::add(Expr::LoadF(xi), Expr::ConstF(1.0)),
            },
            Stmt::LetI {
                dst: n,
                value: Expr::div(Expr::Lin(lin(7)), Expr::Lin(var(i).scale(-1).offset(2))),
            },
        ];
        if first {
            // And something behind the store, for the loop's tail to owe.
            body.reverse();
            body.push(Stmt::LetI {
                dst: n,
                value: Expr::Lin(var(i).offset(3)),
            });
        }
        p.body = vec![Stmt::for_(i, lin(0), lin(4), 1, body)];
        p
    }

    /// The division between two statements strip code fuses:
    /// `y[i] = 2.5*y[i] + x[i]; n = 7 / (2 - i); x[i] = x[i] + 1`. The
    /// third iteration makes the first statement's three accesses and
    /// stops.
    pub fn divide_between() -> Program {
        let mut p = Program::new("divbetween");
        let x = p.array("x", ElemType::F64, vec![4]);
        let y = p.array("y", ElemType::F64, vec![4]);
        let n = p.fresh_iscalar();
        let i = p.fresh_var();
        let (xi, yi) = (
            ArrayRef::affine(x, vec![var(i)]),
            ArrayRef::affine(y, vec![var(i)]),
        );
        let body = vec![
            Stmt::Store {
                dst: yi.clone(),
                value: Expr::add(
                    Expr::mul(Expr::ConstF(2.5), Expr::LoadF(yi)),
                    Expr::LoadF(xi.clone()),
                ),
            },
            Stmt::LetI {
                dst: n,
                value: Expr::div(Expr::Lin(lin(7)), Expr::Lin(var(i).scale(-1).offset(2))),
            },
            Stmt::Store {
                dst: xi.clone(),
                value: Expr::add(Expr::LoadF(xi), Expr::ConstF(1.0)),
            },
        ];
        p.body = vec![Stmt::for_(i, lin(0), lin(4), 1, body)];
        p
    }

    /// The value one arm of the strip executor's fused kinds computes:
    /// `arm / 8` is the operation — the four binary ones, then `x ± p·q`
    /// and `p·q ± x` — and its low two bits say which of `x` and `q`
    /// come from memory (`a[i]`, `b[i]`) and not from a register (the
    /// scalar `s`, a constant). 0.7·q is inexact, so a product rounded
    /// once instead of twice shows. (No arm adds two NaNs: which
    /// payload survives that is up to the operand LLVM puts first, and
    /// the tree-walker and the dispatch loop, compiled apart, already
    /// differ on it.)
    fn fused_value(arm: i64, i: usize, a: usize, b: usize, s: usize) -> Expr {
        let ld = |array| Expr::LoadF(ArrayRef::affine(array, vec![var(i)]));
        let x = if arm & 2 != 0 {
            ld(a)
        } else {
            Expr::ScalarF(s)
        };
        let q = if arm & 1 != 0 {
            ld(b)
        } else {
            Expr::ConstF(0.3)
        };
        let pq = |q| Expr::mul(Expr::ConstF(0.7), q);
        match arm / 8 {
            0 => Expr::add(x, q),
            1 => Expr::sub(x, q),
            2 => Expr::mul(x, q),
            3 => Expr::div(x, q),
            4 => Expr::add(x, pq(q)),
            5 => Expr::add(pq(q), x),
            6 => Expr::sub(x, pq(q)),
            _ => Expr::sub(pq(q), x),
        }
    }

    /// One row of `o` per arm of the fused kinds, over `n` elements: bit
    /// 2 of the arm stores the value straight into the row, and without
    /// it the value goes into the scalar `u` and that is stored. `s` is
    /// loaded, not computed; both scalars are read behind the loop, so
    /// one left unwritten shows.
    pub fn fusions(n: i64) -> Program {
        let mut p = Program::new("fusions");
        let a = p.array("a", ElemType::F64, vec![n]);
        let b = p.array("b", ElemType::F64, vec![n]);
        let o = p.array("o", ElemType::F64, vec![64, n]);
        let fin = p.array("fin", ElemType::F64, vec![1]);
        let (s, u) = (p.fresh_fscalar(), p.fresh_fscalar());
        let i = p.fresh_var();
        let mut body = vec![Stmt::LetF {
            dst: s,
            value: Expr::LoadF(ArrayRef::affine(a, vec![var(i)])),
        }];
        for arm in 0..64 {
            let value = fused_value(arm, i, a, b, s);
            let dst = ArrayRef::affine(o, vec![lin(arm), var(i)]);
            if arm & 4 != 0 {
                body.push(Stmt::Store { dst, value });
            } else {
                body.push(Stmt::LetF { dst: u, value });
                body.push(Stmt::Store {
                    dst,
                    value: Expr::ScalarF(u),
                });
            }
        }
        p.body = vec![
            Stmt::for_(i, lin(0), lin(n), 1, body),
            Stmt::Store {
                dst: ArrayRef::affine(fin, vec![lin(0)]),
                value: Expr::sub(Expr::ScalarF(s), Expr::ScalarF(u)),
            },
        ];
        p
    }

    /// `s = 1.25; for i in 0..4 { u = <arm>; n = 7 / (2 - i) }` for an
    /// arm that reads memory into a register: the third iteration ends
    /// behind the arm, its one op that accesses anything, with nothing
    /// pending — or the time the panic loses is the wrong time.
    pub fn divide_behind(arm: i64) -> Program {
        assert!(arm & 4 == 0 && arm & 3 != 0, "a register from memory");
        let mut p = Program::new("divbehind");
        let a = p.array("a", ElemType::F64, vec![4]);
        let b = p.array("b", ElemType::F64, vec![4]);
        let (s, u) = (p.fresh_fscalar(), p.fresh_fscalar());
        let n = p.fresh_iscalar();
        let i = p.fresh_var();
        let body = vec![
            Stmt::LetF {
                dst: u,
                value: fused_value(arm, i, a, b, s),
            },
            Stmt::LetI {
                dst: n,
                value: Expr::div(Expr::Lin(lin(7)), Expr::Lin(var(i).scale(-1).offset(2))),
            },
        ];
        p.body = vec![
            Stmt::LetF {
                dst: s,
                value: Expr::ConstF(1.25),
            },
            Stmt::for_(i, lin(0), lin(4), 1, body),
        ];
        p
    }

    /// `idx[i] = i` over `n` elements, then `y[idx[i]] = y[idx[i]] +
    /// x[idx[i]]; s = s + y[idx[i]]` over them (arrays `idx`, `x`, `y`;
    /// `x` and `y` of `len` elements, the sum stored behind the loop):
    /// indirect loads and an indirect store in a leaf. With `len < n`
    /// the subscript `len` goes out of range on iteration `len`, in the
    /// middle of whatever strip is running.
    pub fn indirect(n: i64, len: i64) -> Program {
        let mut p = Program::new("indirect");
        let idx = p.array("idx", ElemType::I64, vec![n]);
        let x = p.array("x", ElemType::F64, vec![len]);
        let y = p.array("y", ElemType::F64, vec![len]);
        let fin = p.array("fin", ElemType::F64, vec![1]);
        let s = p.fresh_fscalar();
        let (i, j) = (p.fresh_var(), p.fresh_var());
        let through = |array| ArrayRef {
            array,
            idx: vec![Index::Ind {
                array: idx,
                idx: vec![var(j)],
            }],
        };
        p.body = vec![
            Stmt::for_(
                i,
                lin(0),
                lin(n),
                1,
                vec![Stmt::Store {
                    dst: ArrayRef::affine(idx, vec![var(i)]),
                    value: Expr::Lin(var(i)),
                }],
            ),
            Stmt::for_(
                j,
                lin(0),
                lin(n),
                1,
                vec![
                    Stmt::Store {
                        dst: through(y),
                        value: Expr::add(Expr::LoadF(through(y)), Expr::LoadF(through(x))),
                    },
                    Stmt::LetF {
                        dst: s,
                        value: Expr::add(Expr::ScalarF(s), Expr::LoadF(through(y))),
                    },
                ],
            ),
            Stmt::Store {
                dst: ArrayRef::affine(fin, vec![lin(0)]),
                value: Expr::ScalarF(s),
            },
        ];
        p
    }

    /// `for i below n { prefetch(&x[i + 1]); s = s + x[i] }` over an
    /// `n`-element `x`: the hint's subscript is clamped on the last
    /// iteration, so no strip may run into it.
    pub fn clamp_last(n: i64) -> Program {
        let mut p = Program::new("clamplast");
        let x = p.array("x", ElemType::F64, vec![n]);
        let s = p.fresh_fscalar();
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(n),
            1,
            vec![
                Stmt::Prefetch {
                    target: HintTarget {
                        target: ArrayRef::affine(x, vec![var(i).offset(1)]),
                    },
                    pages: 1,
                },
                Stmt::LetF {
                    dst: s,
                    value: Expr::add(
                        Expr::ScalarF(s),
                        Expr::LoadF(ArrayRef::affine(x, vec![var(i)])),
                    ),
                },
            ],
        )];
        p
    }

    /// `for i below n { prefetch(&a[idx[i + d]]); s = s + a[idx[i]] }`
    /// (arrays `idx` of `n`, `a` of 3): the compiler's indirect hint,
    /// its index load clamped on the last `d` iterations.
    pub fn indirect_hint(n: i64, d: i64) -> Program {
        let mut p = Program::new("indhint");
        let idx = p.array("idx", ElemType::I64, vec![n]);
        let a = p.array("a", ElemType::F64, vec![3]);
        let s = p.fresh_fscalar();
        let i = p.fresh_var();
        let at = |e: LinExpr| ArrayRef {
            array: a,
            idx: vec![Index::Ind {
                array: idx,
                idx: vec![e],
            }],
        };
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(n),
            1,
            vec![
                Stmt::Prefetch {
                    target: HintTarget {
                        target: at(var(i).offset(d)),
                    },
                    pages: 1,
                },
                Stmt::LetF {
                    dst: s,
                    value: Expr::add(Expr::ScalarF(s), Expr::LoadF(at(var(i)))),
                },
            ],
        )];
        p
    }

    /// `for i below n { s = x[i] }`: the body's last op is its access,
    /// so nothing is pending behind an iteration but what a strip must
    /// not leave there.
    pub fn load_last() -> Program {
        let mut p = Program::new("loadlast");
        let x = p.array("x", ElemType::F64, vec![100]);
        let n = p.param("n");
        let s = p.fresh_fscalar();
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            param(n),
            1,
            vec![Stmt::LetF {
                dst: s,
                value: Expr::LoadF(ArrayRef::affine(x, vec![var(i)])),
            }],
        )];
        p
    }
}

// ------------------------------------------------------ random programs

/// An inclusive interval of values a linear form can take.
type Range = (i64, i64);

struct Gen {
    rng: Rng,
    prog: Program,
    params: Vec<i64>,
    /// Loop variables in scope with the values they can take.
    scope: Vec<(usize, Range)>,
    fscalars: Vec<usize>,
    iscalars: Vec<usize>,
}

impl Gen {
    fn new(seed: u64) -> Self {
        let mut g = Gen {
            rng: Rng(seed),
            prog: Program::new(&format!("random#{seed}")),
            params: Vec::new(),
            scope: Vec::new(),
            fscalars: Vec::new(),
            iscalars: Vec::new(),
        };
        // One rank-1 integer array first, so indirection always has an
        // index array to go through.
        let idx_len = g.rng.range(3, 9);
        g.prog.array("idx", ElemType::I64, vec![idx_len]);
        for n in 0..g.rng.range(2, 5) {
            let rank = g.rng.range(1, 4);
            let dims = (0..rank).map(|_| g.rng.range(2, 9)).collect();
            let elem = g.rng.pick(&[ElemType::F64, ElemType::F64, ElemType::I64]);
            g.prog.array(&format!("a{n}"), elem, dims);
        }
        for n in 0..g.rng.range(1, 3) {
            g.prog.param(&format!("p{n}"));
            let value = g.rng.range(0, 6);
            g.params.push(value);
        }
        g.fscalars = (0..2).map(|_| g.prog.fresh_fscalar()).collect();
        g.iscalars = (0..2).map(|_| g.prog.fresh_iscalar()).collect();
        g
    }

    /// A linear form with its interval: a constant, a parameter or a
    /// loop variable in scope, scaled and shifted a little.
    fn small_lin(&mut self) -> (LinExpr, Range) {
        let (base, (lo, hi)) = match self.rng.range(0, 3) {
            0 if !self.scope.is_empty() => {
                let (v, r) = self.rng.pick(&self.scope);
                (var(v), r)
            }
            1 => {
                let p = self.rng.range(0, self.params.len() as i64) as usize;
                (param(p), (self.params[p], self.params[p]))
            }
            _ => (lin(0), (0, 0)),
        };
        let c = self.rng.range(-1, 4);
        (base.offset(c), (lo + c, hi + c))
    }

    /// A subscript for a dimension of extent `dim`. In range over the
    /// whole iteration space nine times in ten when `tight`; hint
    /// targets (`!tight`) wander far outside.
    fn subscript(&mut self, dim: i64, tight: bool) -> LinExpr {
        let mut e = lin(self.rng.range(0, dim));
        if !self.scope.is_empty() && self.rng.chance(80) {
            let (v, (lo, hi)) = self.rng.pick(&self.scope);
            let k = self.rng.pick(&[1, 1, 1, -1, 2]);
            let (a, b) = (k * lo.min(hi), k * lo.max(hi));
            let (a, b) = (a.min(b), a.max(b));
            // c + [a, b] must fit [0, dim).
            if b - a < dim {
                let c = self.rng.range(-a, dim - b);
                e = var(v).scale(k).offset(c);
                if self.rng.chance(30) && !self.params.is_empty() {
                    // Fold a parameter in without moving the value.
                    let p = self.rng.range(0, self.params.len() as i64) as usize;
                    e = e.add(&param(p)).offset(-self.params[p]);
                }
            }
        }
        if !tight {
            e = e.offset(self.rng.pick(&[0, 1, 7, 100, -3, -50]));
        } else if self.rng.chance(4) {
            e = e.offset(self.rng.pick(&[-2, -1, 1, 2]));
        }
        e
    }

    fn reference(&mut self, array: usize, tight: bool) -> ArrayRef {
        let dims = self.prog.arrays[array].dims.clone();
        let idx = dims
            .iter()
            .map(|&dim| {
                if self.rng.chance(15) {
                    // Index array 0 holds values in [0, 3): in range
                    // of every dimension but a two-element one.
                    let idx_len = self.prog.arrays[0].dims[0];
                    Index::Ind {
                        array: 0,
                        idx: vec![self.subscript(idx_len, tight)],
                    }
                } else {
                    Index::Lin(self.subscript(dim, tight))
                }
            })
            .collect();
        ArrayRef { array, idx }
    }

    fn any_array(&mut self) -> usize {
        self.rng.range(0, self.prog.arrays.len() as i64) as usize
    }

    /// A leaf: a load, a scalar, a linear form, or a constant — one in
    /// five of those a signed zero.
    fn leaf(&mut self) -> Expr {
        match self.rng.range(0, 6) {
            0 | 1 => {
                let a = self.any_array();
                Expr::LoadF(self.reference(a, true))
            }
            2 => Expr::ScalarF(self.rng.pick(&self.fscalars)),
            3 => Expr::ScalarI(self.rng.pick(&self.iscalars)),
            4 => Expr::Lin(self.small_lin().0),
            _ if self.rng.chance(20) => Expr::ConstF(self.rng.pick(&[0.0, -0.0])),
            _ => Expr::ConstF(self.rng.range(-8, 9) as f64 / 4.0),
        }
    }

    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 || self.rng.chance(25) {
            return self.leaf();
        }
        // The shapes strip code fuses, over leaves: `x ± p·q` and
        // `p·q ± x`, or one operation on two of them.
        if self.rng.chance(15) {
            let (x, p, q) = (self.leaf(), self.leaf(), self.leaf());
            let op = self
                .rng
                .pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]);
            return match self.rng.range(0, 3) {
                0 => Expr::bin(op, x, Expr::mul(p, q)),
                1 => Expr::bin(op, Expr::mul(p, q), x),
                _ => Expr::bin(op, p, q),
            };
        }
        let a = self.expr(depth - 1);
        match self.rng.range(0, 10) {
            0..=5 => {
                let op = self.rng.pick(&[
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Rem,
                    BinOp::Min,
                    BinOp::Max,
                ]);
                // Keep most integer divisors non-zero.
                let b = if matches!(op, BinOp::Div | BinOp::Rem) && self.rng.chance(80) {
                    Expr::Lin(lin(self.rng.pick(&[-3, -1, 2, 5])))
                } else {
                    self.expr(depth - 1)
                };
                Expr::bin(op, a, b)
            }
            6 | 7 => Expr::un(
                self.rng.pick(&[UnOp::Neg, UnOp::Abs, UnOp::Sqrt, UnOp::Ln]),
                a,
            ),
            8 => Expr::ToF(Box::new(a)),
            _ => Expr::ToI(Box::new(a)),
        }
    }

    fn hint_target(&mut self) -> HintTarget {
        let a = self.any_array();
        HintTarget {
            target: self.reference(a, false),
        }
    }

    fn block(&mut self, loops_left: u32) -> Vec<Stmt> {
        (0..self.rng.range(1, 4))
            .map(|_| self.stmt(loops_left))
            .collect()
    }

    fn stmt(&mut self, loops_left: u32) -> Stmt {
        match self.rng.range(0, 12) {
            0..=2 if loops_left > 0 => self.loop_(loops_left),
            0..=4 => {
                let a = self.any_array();
                Stmt::Store {
                    dst: self.reference(a, true),
                    value: self.expr(3),
                }
            }
            5 => Stmt::LetF {
                dst: self.rng.pick(&self.fscalars),
                value: self.expr(2),
            },
            6 => Stmt::LetI {
                dst: self.rng.pick(&self.iscalars),
                value: self.expr(2),
            },
            7 | 8 => Stmt::If {
                cond: Cond {
                    lhs: self.expr(1),
                    op: self.rng.pick(&[
                        CmpOp::Lt,
                        CmpOp::Le,
                        CmpOp::Gt,
                        CmpOp::Ge,
                        CmpOp::Eq,
                        CmpOp::Ne,
                    ]),
                    rhs: self.expr(1),
                },
                then_: self.block(loops_left.saturating_sub(1)),
                else_: if self.rng.chance(50) {
                    self.block(loops_left.saturating_sub(1))
                } else {
                    vec![]
                },
            },
            9 => Stmt::Prefetch {
                target: self.hint_target(),
                pages: self.rng.range(1, 5) as u64,
            },
            10 => Stmt::Release {
                target: self.hint_target(),
                pages: self.rng.range(1, 5) as u64,
            },
            _ => Stmt::PrefetchRelease {
                pf: self.hint_target(),
                pf_pages: self.rng.range(1, 5) as u64,
                rel: self.hint_target(),
                rel_pages: self.rng.range(1, 5) as u64,
            },
        }
    }

    fn loop_(&mut self, loops_left: u32) -> Stmt {
        let v = self.prog.fresh_var();
        let (lo, lo_range) = self.small_lin();
        let trips = self.rng.range(0, 7);
        let step = self.rng.pick(&[1, 1, 1, 2, 3, -1, -2]);
        // `hi` is `lo` moved `trips` steps on, give or take a parameter.
        let mut hi = lo.offset(trips * step);
        let mut slack = 0;
        if self.rng.chance(25) {
            let p = self.rng.range(0, self.params.len() as i64) as usize;
            hi = hi.add(&param(p)).offset(-3);
            slack = (self.params[p] - 3).abs();
        }
        let hi_min = self.rng.chance(30).then(|| {
            let cut = self.rng.range(0, trips + 2);
            lo.offset(cut * step)
        });
        let reach = trips * step.abs() + slack;
        let range = if step > 0 {
            (lo_range.0, lo_range.1 + reach)
        } else {
            (lo_range.0 - reach, lo_range.1)
        };
        self.scope.push((v, range));
        let body = self.block(loops_left - 1);
        self.scope.pop();
        match hi_min {
            Some(m) => Stmt::for_min(v, lo, hi, m, step, body),
            None => Stmt::for_(v, lo, hi, step, body),
        }
    }
}

fn random_program(seed: u64) -> (Program, Vec<i64>) {
    let mut g = Gen::new(seed);
    let depth = g.rng.range(1, 4) as u32;
    let mut body = vec![g.loop_(depth)];
    body.extend(g.block(depth));
    g.prog.body = body;
    (g.prog, g.params)
}

// ---------------------------------------------------------------- tests

fn odd_cost() -> CostModel {
    // Pairwise coprime, so a charge booked to the wrong class shows.
    CostModel {
        ns_per_access: 7,
        ns_per_flop: 11,
        ns_per_iop: 3,
        ns_per_iter: 5,
        ns_per_hint_issue: 13,
    }
}

#[test]
fn vm_matches_tree_walker() {
    use programs::*;
    crate::dispatch::STRIPS.set([0; 6]);
    crate::dispatch::KINDS.set([0; 256]);

    // The hand-written unit programs, under a free and a priced model.
    let units: [(Program, &[i64]); 14] = [
        (axpy(100), &[]),
        (fusions(12), &[]),
        (histogram(), &[]),
        (symbolic_bound(), &[7]),
        (backwards(), &[]),
        (clamped_hint(), &[]),
        (conditional_sum(), &[]),
        (matrix(), &[]),
        (hinted(), &[]),
        (symbolic_bound(), &[0]),
        (load_last(), &[9]),
        (indirect(12, 12), &[]),
        (clamp_last(10), &[]),
        (indirect_hint(40, 3), &[]),
    ];
    for (prog, params) in &units {
        for cost in [CostModel::free(), CostModel::default(), odd_cost()] {
            for seed in 0..4 {
                check(&prog.name, prog, params, cost, seed, true);
            }
        }
    }

    // Panic parity: same message, after the same calls.
    let oob = check("oob", &out_of_bounds(), &[], odd_cost(), 1, true);
    let message = oob.result.expect_err("eleventh store is out of range");
    assert_eq!(
        message,
        "subscript 10 out of range [0,10) in dim 0 of array x (oob)"
    );
    assert_eq!(
        oob.vm.calls, 20,
        "ten stores, each behind its tick, came first"
    );
    let div = check("divzero", &divide_by_zero(), &[], odd_cost(), 1, true);
    assert_eq!(
        div.result.expect_err("third iteration divides by zero"),
        "integer division by zero"
    );
    assert_eq!(div.vm.calls, 12, "three load/store pairs came first");
    // An indirect subscript out of range: the same message after the
    // same calls, however the strips around it fall.
    for seed in 1..10 {
        let oob = check(
            "indirect",
            &indirect(12, 7),
            &[],
            odd_cost(),
            seed,
            seed == 1,
        );
        assert_eq!(
            oob.result
                .expect_err("the eighth subscript is out of range"),
            "subscript 7 out of range [0,7) in dim 0 of array y (indirect)"
        );
        assert_eq!(
            oob.vm.calls,
            24 + 7 * 16 + 2,
            "the index stores, seven iterations, one load"
        );
    }
    // More strip lengths over it, and with the division ahead of the
    // accesses: some reach the third iteration and must stop in front
    // of the division.
    for seed in 2..10 {
        check("divzero", &divide_by_zero(), &[], odd_cost(), seed, false);
        let div = check("divfirst", &divide_first(), &[], odd_cost(), seed, true);
        assert_eq!(div.vm.calls, 8, "two load/store pairs came first");
        // And one strip from the loop's entry to its exit among these.
        check("loadlast", &load_last(), &[9], odd_cost(), seed, false);
        // A fused op on either side of the division: the strip ends
        // behind the first, all of its accesses made.
        let div = check("divbetween", &divide_between(), &[], odd_cost(), seed, true);
        assert_eq!(div.vm.calls, 26, "two iterations and three accesses more");
        // And every fused arm that leaves a register as the last access
        // in front of the division: nothing may be pending behind it.
        for arm in (0..64).filter(|arm| arm & 4 == 0 && arm & 3 != 0) {
            check(
                "divbehind",
                &divide_behind(arm),
                &[],
                odd_cost(),
                seed,
                false,
            );
        }
    }

    // Every kernel file, as written (detached only: a live profiler
    // over matmul's 33 M references is minutes of host clock reads).
    let kernels: [(&str, &str, &[i64]); 7] = [
        ("stencil", include_str!("../../../kernels/stencil.ook"), &[]),
        (
            "histogram",
            include_str!("../../../kernels/histogram.ook"),
            &[20_000],
        ),
        ("matmul", include_str!("../../../kernels/matmul.ook"), &[]),
        (
            "sumreduce",
            include_str!("../../../kernels/sumreduce.ook"),
            &[],
        ),
        (
            "transpose",
            include_str!("../../../kernels/transpose.ook"),
            &[],
        ),
        (
            "pagewalk_read",
            include_str!("../../../benchmark/kernels/pagewalk_read.ook"),
            &[1, 3],
        ),
        (
            "pagewalk_write",
            include_str!("../../../benchmark/kernels/pagewalk_write.ook"),
            &[1, 3],
        ),
    ];
    for (name, src, params) in kernels {
        let prog = parse_program(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let done = check(name, &prog, params, CostModel::default(), 0, false);
        assert!(done.result.is_ok(), "{name} runs to completion");
    }

    // Random programs: depth 1-3, negative steps, `hi_min`, `if` around
    // accesses, indirect subscripts, hints with out-of-range targets.
    let (mut completed, mut panicked) = (0, 0);
    crate::dispatch::HOISTS.set((0, 0));
    PARKS.set((0, 0));
    for seed in 0..600 {
        let (prog, params) = random_program(seed);
        let cost = [CostModel::free(), CostModel::default(), odd_cost()][seed as usize % 3];
        match check(&prog.name, &prog, &params, cost, seed, true).result {
            Ok(_) => completed += 1,
            Err(_) => panicked += 1,
        }
    }
    assert!(
        completed >= 300 && panicked >= 30,
        "the generator should exercise both endings ({completed} completed, {panicked} panicked)"
    );
    let (hoisted, fell_back) = crate::dispatch::HOISTS.get();
    assert!(
        hoisted >= 1000 && fell_back >= 30,
        "and both copies of a hoisted loop ({hoisted} entries hoisted, {fell_back} fell back)"
    );
    let (after, redone) = PARKS.get();
    assert!(
        after >= 1000 && redone >= 1000,
        "and both kinds of park ({after} behind a call, {redone} with the call to redo)"
    );
    let [taken, refused, early, inside, early_fused, out_of_range] = crate::dispatch::STRIPS.get();
    assert!(
        taken >= 1000 && refused >= 1000 && early >= 3 && out_of_range >= 3 && inside >= 10 * taken,
        "and every way a strip can go ({taken} taken with {inside} iterations inside, \
         {refused} refused, {early} ended early, {out_of_range} of them at a subscript)"
    );
    // Every arm of the fused kinds — `fusions` has a row for each — by
    // family, and a zero divisor in a body with a fused op in it.
    let kinds = crate::dispatch::KINDS.with_borrow(|kinds| *kinds);
    // And every op that reaches memory or hints through a reference.
    use crate::strip::StripKind as K;
    let resolving = [
        K::LoadFAt,
        K::LoadIAt,
        K::StoreFAt,
        K::StoreIAt,
        K::Check,
        K::Prefetch,
        K::PrefetchAt,
    ];
    let never: Vec<_> = resolving
        .iter()
        .filter(|&&k| kinds[k as usize] == 0)
        .collect();
    assert!(never.is_empty(), "strip ops never executed: {never:?}");
    let arms = &kinds[crate::strip::StripKind::AddRRR as usize..][..64];
    let never: Vec<_> = (0..64).filter(|&arm| arms[arm] == 0).collect();
    assert!(never.is_empty(), "fused arms never executed: {never:?}");
    let family = |of: fn(usize) -> bool| -> u64 {
        (0..64).filter(|&arm| of(arm)).map(|arm| arms[arm]).sum()
    };
    let (memory, through, multiply_add) = (
        family(|arm| arm & 3 != 0),
        family(|arm| arm & 4 != 0),
        family(|arm| arm >= 32),
    );
    assert!(
        memory >= 1_000_000 && through >= 1_000_000 && multiply_add >= 1_000 && early_fused >= 10,
        "and every fusion of strip code ({memory} ops with a memory operand, {through} stored \
         through, {multiply_add} multiply-adds, {early_fused} early ends in a fused body)"
    );
}

/// `MemVm` grants every strip and counts the hints strips stand in for
/// as it counts the others: the affine hint whose clamp engages on the
/// last iteration (the strip stops in front of it), the indirect one,
/// and one beside an indirect store.
#[test]
fn memvm_counts_the_hints_strips_make() {
    for (prog, strips) in [
        (programs::clamp_last(10), 9),
        (programs::indirect_hint(40, 3), 37),
        (programs::hinted(), 10),
    ] {
        crate::dispatch::STRIPS.set([0; 6]);
        let (binds, bytes) = ArrayBinding::sequential(&prog, 4096);
        let mut vm = MemVm::new(bytes, 4096);
        let stats = run_program(&prog, &binds, &[], CostModel::default(), &mut vm);
        assert_eq!(vm.prefetches, stats.prefetch_stmts, "{}", prog.name);
        assert_eq!(
            crate::dispatch::STRIPS.get()[3],
            strips,
            "{}: iterations in strips",
            prog.name
        );
    }
}

/// On a VM that grants whatever is asked, every iteration of the
/// stencil's leaf loop runs inside a strip — one strip per row — and
/// only the outer loop's iterations are dispatched op by op. The leaf
/// body, ten ops with its `LoopNext`, is five of strip code.
#[test]
fn stencil_strips_every_leaf_iteration() {
    use crate::strip::StripKind::*;
    let src = include_str!("../../../kernels/stencil.ook");
    let prog = parse_program(src).expect("stencil parses");
    let (binds, bytes) = ArrayBinding::sequential(&prog, 4096);
    let code = crate::lower::lower(&prog, &binds, &[], CostModel::default(), false);
    let leaf = code.loops[1];
    assert_eq!(leaf.body - leaf.fast_body, 10);
    let plan = leaf.strip.expect("the leaf is a strip body");
    let kinds: Vec<_> = plan
        .code
        .of(&code.strip.ops)
        .iter()
        .map(|op| op.kind)
        .collect();
    // Two neighbours added from memory, two more added on, the product
    // stored through.
    assert_eq!(kinds, [AddRMM, AddRRM, AddRRM, MulMRR, Next]);
    let run = || {
        crate::dispatch::STRIPS.set([0; 6]);
        let mut vm = MemVm::new(bytes, 4096);
        let stats = run_program(&prog, &binds, &[], CostModel::default(), &mut vm);
        (stats.iters, vm.accesses, crate::dispatch::STRIPS.get())
    };
    let (rows, cols) = (2046, 510);
    let first = run();
    assert_eq!(
        first,
        (
            rows + rows * cols,
            5 * rows * cols,
            [rows, 0, 0, rows * cols, 0, 0]
        )
    );
    assert_eq!(run(), first, "and again");
}
