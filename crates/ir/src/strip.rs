//! Strip code: what the strip executor interprets.
//!
//! A hoisted leaf body that [`lower`](crate::lower) accepts for strips
//! is translated once more, into a second, denser stream: a
//! [`StripOp`] is a kind byte and four `u16` operands, and the common
//! load–operate–store shapes of a loop body are one op each.
//! Translation is one-to-one first (the `plain` ops `strip_plan`
//! builds); [`fuse`] then joins, inside one basic block and only over
//! temporaries nothing else reads:
//!
//! * **memory operands** — the `LoadF`s right in front of the
//!   `Add/Sub/Mul/DivF` that is their one reader go into it: the
//!   operand is the address register, not a float one;
//! * **store-through** — a `StoreF` of what the arithmetic op right in
//!   front of it produced becomes that op's destination;
//! * **multiply-add** — `t = p·q` and the add or subtract behind it
//!   that reads `t` are one op, which still rounds twice (never
//!   `mul_add`) and keeps the source's operand order; `x` and `q` may
//!   be memory operands, a load between the two ops feeding `x`.
//!
//! A strip body makes no call, so within a block a load may sink to
//! its reader: nothing between them can see the difference. What can
//! end a strip early (`DivI`/`RemI`, a reference resolved with its
//! bounds check) or leave the block (a branch) is never part of a
//! group, and no group spans a branch target.
//! `origin` maps every strip op back to the `Op` it starts at — where
//! the general loop takes over when a strip stops.

use crate::expr::CmpOp;
use crate::lower::{Charge, LinPlan, Pc};

/// The fused kinds, one row per operation: its eight variants — where
/// `dst a b` live, in a register (`R`) or in memory behind an address
/// register (`M`), `b` varying fastest — and what it computes from `a`,
/// `b` and, for a multiply-add, the register operand `c`. The kind
/// enum and the executor's arms are both written from this table.
macro_rules! fused_kinds {
    ($with:ident! { $($head:tt)* }) => {
        $with! { $($head)*
            [AddRRR AddRRM AddRMR AddRMM AddMRR AddMRM AddMMR AddMMM] |a, b| a + b;
            [SubRRR SubRRM SubRMR SubRMM SubMRR SubMRM SubMMR SubMMM] |a, b| a - b;
            [MulRRR MulRRM MulRMR MulRMM MulMRR MulMRM MulMMR MulMMM] |a, b| a * b;
            [DivRRR DivRRM DivRMR DivRMM DivMRR DivMRM DivMMR DivMMM] |a, b| a / b;
            [AddMulRRR AddMulRRM AddMulRMR AddMulRMM AddMulMRR AddMulMRM AddMulMMR AddMulMMM]
                |x, q, p| x + p * q;
            [MulAddRRR MulAddRRM MulAddRMR MulAddRMM MulAddMRR MulAddMRM MulAddMMR MulAddMMM]
                |x, q, p| p * q + x;
            [SubMulRRR SubMulRRM SubMulRMR SubMulRMM SubMulMRR SubMulMRM SubMulMMR SubMulMMM]
                |x, q, p| x - p * q;
            [MulSubRRR MulSubRRM MulSubRMR MulSubRMM MulSubMRR MulSubMRM MulSubMMR MulSubMMM]
                |x, q, p| p * q - x;
        }
    };
}
pub(crate) use fused_kinds;

macro_rules! define_kinds {
    ({ $($(#[$doc:meta])* $plain:ident,)* }
     $([$($name:ident)*] |$($arg:ident),*| $e:expr;)*) => {
        /// What a [`StripOp`] does. `f[..]` is the float file, `i[..]`
        /// the integer one, `m[r]` the eight bytes at the address in
        /// `i[r]`; the fused rows are `fused_kinds!`'s.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub(crate) enum StripKind {
            $($(#[$doc])* $plain,)*
            $($($name,)*)*
        }

        /// The fused rows, in the table's order.
        const FUSED: [[StripKind; 8]; 8] = [$([$(StripKind::$name),*]),*];
    };
}

fused_kinds!(define_kinds! {
    {
        // f[d] = f[a] ∘ f[b]; f[d] = ∘ f[a]
        RemF, MinF, MaxF, NegF, AbsF, SqrtF, LnF, MovF,
        /// `f[d] = i[a] as f64`
        IToF,
        // i[d] = i[a] ∘ i[b], wrapping; a zero divisor ends the strip
        AddI, SubI, MulI, DivI, RemI, MinI, MaxI, NegI, AbsI, MovI,
        /// `i[d] = f[a] as i64`
        FToI,
        /// `i[d] = lins[a]` evaluated over the integer file.
        Lin,
        /// `f[d] = m[a]`
        LoadF,
        /// `i[d] = m[a]`
        LoadI,
        /// `m[d] = f[a]`
        StoreF,
        /// `m[d] = i[a]`
        StoreI,
        // The same through `refs[..]` resolved over the integer file
        // (`f[d] = m[refs[a]]`, `m[refs[d]] = f[a]`, …): an indirect
        // subscript, which ends the strip in front of the op when it is
        // out of its dimension.
        LoadFAt, LoadIAt, StoreFAt, StoreIAt,
        /// Every subscript of `refs[a]` in its dimension, or the strip ends.
        Check,
        /// A `prefetch` of `b` pages at `i[a]`.
        Prefetch,
        /// A `prefetch` of `b` pages at `refs[a]`, clamped.
        PrefetchAt,
        /// Charge `branches[c]`; go to strip op `d` unless
        /// `i[a] cmp i[b]`.
        BrI,
        /// The same over `f[a]`, `f[b]`.
        BrF,
        /// Charge `branches[c]` and go to strip op `d`.
        Jump,
        /// The body's `LoopNext`: the next iteration, or the strip's end.
        Next,
    }
});

/// One instruction of strip code. Register operands index the file
/// their kind implies; `lins` and `branches` operands index the owning
/// plan's windows of those tables, branch targets its window of `ops`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StripOp {
    pub kind: StripKind,
    pub d: u16,
    pub a: u16,
    pub b: u16,
    pub c: u16,
}

/// A field of a [`StripOp`], or nothing if `v` does not fit one.
pub(crate) fn narrow(v: impl TryInto<u16>) -> Option<u16> {
    v.try_into().ok()
}

/// The charge a strip branch applies and, for a conditional one, its
/// comparison.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StripBranch {
    pub cmp: CmpOp,
    pub charge: Charge,
}

/// Every strip loop's code, each plan holding windows into these.
#[derive(Default)]
pub(crate) struct StripCode {
    pub ops: Vec<StripOp>,
    /// `origin[k]`: the first of the `Op`s that `ops[k]` stands for.
    pub origin: Vec<Pc>,
    pub lins: Vec<LinPlan>,
    pub branches: Vec<StripBranch>,
}

fn is_branch(kind: StripKind) -> bool {
    matches!(kind, StripKind::BrI | StripKind::BrF | StripKind::Jump)
}

/// The float registers `op` reads.
fn float_reads(op: &StripOp) -> [Option<u16>; 2] {
    use StripKind::*;
    match op.kind {
        AddRRR | SubRRR | MulRRR | DivRRR | RemF | MinF | MaxF | BrF => [Some(op.a), Some(op.b)],
        NegF | AbsF | SqrtF | LnF | MovF | FToI | StoreF | StoreFAt => [Some(op.a), None],
        _ => [None, None],
    }
}

/// A fused op being put together from `plain[..end]`.
#[derive(Clone, Copy)]
struct Group {
    row: usize,
    /// Destination, then the two operands that may be memory ones.
    regs: [u16; 3],
    in_memory: [bool; 3],
    /// A multiply-add's register-only factor.
    c: u16,
    end: usize,
}

/// Fuse `plain` — a strip body translated op for op, `plain[k]` standing
/// for the `Op` at `head + k`, its `Next` last, branch targets as
/// indices into itself — appending the result and its origins to `code`.
/// A float register from `temps` up that an op writes is a temporary:
/// written by one expression node and read by that node's parent, so
/// one read only once here is read nowhere else and need not be written
/// at all. (Scalars sit below `temps`; constants are never written.)
///
/// # Panics
///
/// Panics if a branch lands inside a fused group: groups are cut at
/// every target, so that is a bug here.
pub(crate) fn fuse(plain: &[StripOp], head: Pc, temps: usize, code: &mut StripCode) {
    use StripKind::*;
    let mut leader = vec![false; plain.len()];
    let mut reads = Vec::new();
    for op in plain {
        if is_branch(op.kind) {
            leader[op.d as usize] = true;
        }
        for r in float_reads(op).into_iter().flatten() {
            if reads.len() <= r as usize {
                reads.resize(r as usize + 1, 0u8);
            }
            reads[r as usize] = reads[r as usize].saturating_add(1);
        }
    }
    let single = |r: u16| r as usize >= temps && reads.get(r as usize) == Some(&1);
    let row_of = |kind| FUSED[..4].iter().position(|row| row[0] == kind);

    // The group that starts at `plain[i]`, if there is one: every load
    // of the run there feeding the operation behind the run.
    let group_at = |i: usize| -> Option<Group> {
        let run = plain[i..].iter().take_while(|op| op.kind == LoadF).count();
        let (loads, rest) = plain[i..].split_at(run);
        let first = rest[0];
        let binary = Group {
            row: row_of(first.kind)?,
            regs: [first.d, first.a, first.b],
            in_memory: [false; 3],
            c: 0,
            end: i + run + 1,
        };
        // `x ± p·q` or `p·q ± x`, the product read by nothing else;
        // loads between the two feed the add.
        let between = rest[1..].iter().take_while(|op| op.kind == LoadF).count();
        let (late, second) = (&rest[1..1 + between], rest[1 + between]);
        let multiply_add = (first.kind == MulRRR
            && matches!(second.kind, AddRRR | SubRRR)
            && single(first.d)
            && (second.a == first.d) != (second.b == first.d))
            .then(|| {
                let product_first = second.a == first.d;
                Group {
                    row: 4 + 2 * usize::from(second.kind == SubRRR) + usize::from(product_first),
                    regs: [
                        second.d,
                        if product_first { second.b } else { second.a },
                        first.b,
                    ],
                    c: first.a,
                    end: binary.end + between + 1,
                    ..binary
                }
            });
        [(multiply_add, late), (Some(binary), &late[..0])]
            .into_iter()
            .find_map(|(g, late)| {
                let mut g = g?;
                let operands = g.regs;
                // A load ahead of the operation may feed either operand,
                // one behind the multiplication only `x`.
                let ahead = loads.iter().map(|load| (load, 3));
                for (load, slots) in ahead.chain(late.iter().map(|load| (load, 2))) {
                    let slot = (1..slots).find(|&s| !g.in_memory[s] && operands[s] == load.d)?;
                    if !single(load.d) {
                        return None;
                    }
                    (g.regs[slot], g.in_memory[slot]) = (load.a, true);
                }
                let store = plain[g.end];
                if store.kind == StoreF && store.a == g.regs[0] && single(store.a) {
                    (g.regs[0], g.in_memory[0]) = (store.d, true);
                    g.end += 1;
                }
                let cut = leader[i + 1..g.end].contains(&true);
                (!cut).then_some(g)
            })
    };

    let start = code.ops.len();
    let mut at = vec![None; plain.len()];
    let mut i = 0;
    while i < plain.len() {
        at[i] = narrow(code.ops.len() - start);
        code.origin.push(head + i as Pc);
        // `Next` is last and starts no group, so `rest[1 + between]`
        // and `plain[g.end]` above exist.
        match group_at(i) {
            Some(g) => {
                let [dst, a, b] = g.in_memory.map(usize::from);
                code.ops.push(StripOp {
                    kind: FUSED[g.row][dst << 2 | a << 1 | b],
                    d: g.regs[0],
                    a: g.regs[1],
                    b: g.regs[2],
                    c: g.c,
                });
                i = g.end;
            }
            None => {
                code.ops.push(plain[i]);
                i += 1;
            }
        }
    }
    for op in &mut code.ops[start..] {
        if is_branch(op.kind) {
            op.d = at[op.d as usize].expect("a branch lands inside a fused group");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use StripKind::*;

    fn op(kind: StripKind, d: u16, a: u16, b: u16, c: u16) -> StripOp {
        StripOp { kind, d, a, b, c }
    }

    /// Fuse a body whose float registers from 10 up are temporaries.
    fn fused(plain: &[StripOp]) -> StripCode {
        let mut code = StripCode::default();
        fuse(plain, 100, 10, &mut code);
        code
    }

    #[test]
    fn a_strip_op_fits_twelve_bytes() {
        assert!(std::mem::size_of::<StripOp>() <= 12);
        assert_eq!(std::mem::size_of::<StripKind>(), 1);
    }

    #[test]
    fn loads_an_operation_and_its_store_become_one_op() {
        // t11 = m[i40]; t12 = m[i41]; t13 = t11 - t12; m[i42] = t13
        let code = fused(&[
            op(LoadF, 11, 40, 0, 0),
            op(LoadF, 12, 41, 0, 0),
            op(SubRRR, 13, 11, 12, 0),
            op(StoreF, 42, 13, 0, 0),
            op(Next, 0, 0, 0, 0),
        ]);
        assert_eq!(
            code.ops,
            [op(SubMMM, 42, 40, 41, 0), op(Next, 0, 0, 0, 0)],
            "operand order kept: a is the first load's address"
        );
        assert_eq!(code.origin, [100, 104]);
    }

    #[test]
    fn multiply_add_keeps_the_operand_order() {
        // t11 = f1 * f2, then each of the four ways to add or subtract f3.
        for (second, a, b, kind) in [
            (AddRRR, 3, 11, AddMulRRR),
            (AddRRR, 11, 3, MulAddRRR),
            (SubRRR, 3, 11, SubMulRRR),
            (SubRRR, 11, 3, MulSubRRR),
        ] {
            let code = fused(&[
                op(MulRRR, 11, 1, 2, 0),
                op(second, 12, a, b, 0),
                op(Next, 0, 0, 0, 0),
            ]);
            // d, x, q, p
            assert_eq!(code.ops[0], op(kind, 12, 3, 2, 1));
        }
    }

    #[test]
    fn scalars_and_twice_read_temporaries_stay_in_registers() {
        // A load into the scalar f3 feeding both sides of the add, whose
        // result — the scalar f4 — is stored: nothing fuses.
        let scalars = [
            op(LoadF, 3, 40, 0, 0),
            op(AddRRR, 4, 3, 3, 0),
            op(StoreF, 41, 4, 0, 0),
            op(Next, 0, 0, 0, 0),
        ];
        assert_eq!(fused(&scalars).ops, scalars);
        // The temporary t11 read by the add and again behind it.
        let twice = [
            op(LoadF, 11, 40, 0, 0),
            op(AddRRR, 12, 11, 1, 0),
            op(MovF, 2, 11, 0, 0),
            op(Next, 0, 0, 0, 0),
        ];
        assert_eq!(fused(&twice).ops, twice);
        // A product read twice is no multiply-add; one feeding the
        // register-only factor fuses as the multiplication alone.
        let product = [
            op(MulRRR, 11, 1, 2, 0),
            op(AddRRR, 12, 11, 11, 0),
            op(Next, 0, 0, 0, 0),
        ];
        assert_eq!(fused(&product).ops, product);
        let code = fused(&[
            op(LoadF, 11, 40, 0, 0),
            op(MulRRR, 12, 11, 2, 0),
            op(AddRRR, 13, 3, 12, 0),
            op(Next, 0, 0, 0, 0),
        ]);
        assert_eq!(
            code.ops[..2],
            [op(MulRMR, 12, 40, 2, 0), op(AddRRR, 13, 3, 12, 0)]
        );
    }

    #[test]
    fn what_can_end_a_strip_is_never_inside_a_group() {
        // t11 = m[i40]; i5 = i6 / i7; t12 = t11 + f1: the load stays in
        // front of the division.
        let body = [
            op(LoadF, 11, 40, 0, 0),
            op(DivI, 5, 6, 7, 0),
            op(AddRRR, 12, 11, 1, 0),
            op(Next, 0, 0, 0, 0),
        ];
        assert_eq!(fused(&body).ops, body);
    }

    #[test]
    fn branch_targets_are_remapped_and_cut_groups() {
        // A branch over a fused group lands on the op behind it.
        let code = fused(&[
            op(BrI, 3, 1, 2, 0),
            op(LoadF, 11, 40, 0, 0),
            op(AddRRR, 0, 0, 11, 0),
            op(Next, 0, 0, 0, 0),
        ]);
        assert_eq!(
            code.ops,
            [
                op(BrI, 2, 1, 2, 0),
                op(AddRRM, 0, 0, 40, 0),
                op(Next, 0, 0, 0, 0)
            ]
        );
        assert_eq!(code.origin, [100, 101, 103]);
        // One that lands between the load and the add keeps them apart.
        let code = fused(&[
            op(BrI, 2, 1, 2, 0),
            op(LoadF, 11, 40, 0, 0),
            op(AddRRR, 0, 0, 11, 0),
            op(Next, 0, 0, 0, 0),
        ]);
        assert_eq!(
            code.ops[..3],
            [
                op(BrI, 2, 1, 2, 0),
                op(LoadF, 11, 40, 0, 0),
                op(AddRRR, 0, 0, 11, 0)
            ]
        );
    }
}
