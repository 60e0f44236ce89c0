//! BUK: bucket sort of integer keys (NAS IS).
//!
//! The paper's case study (Figure 8): a counting sort whose histogram
//! update `count[key[i]] += 1` is the canonical indirect
//! read-modify-write. Ranks are computed with the standard stable
//! counting-sort recipe: histogram, inclusive prefix sum, then a reverse
//! pass assigning each key its final position.

use oocp_ir::{lin, var, ArrayRef, ElemType, Expr, Index, Program, Stmt};

use crate::util::{fill_i64, peek_i, InitRng};
use crate::{App, Workload};

/// Build BUK at approximately `target_bytes` (keys + ranks + buckets).
pub fn build(target_bytes: u64) -> Workload {
    // Bytes: key 8N + rank 8N + count 8B with B = N/4 => 18N.
    let n = (target_bytes / 18).max(4096) as i64;
    let buckets = (n / 4).max(512);
    build_sized(n, buckets, 2)
}

/// Build BUK with explicit sizes (used by the Figure 8 size sweep).
pub fn build_sized(n: i64, buckets: i64, iters: i64) -> Workload {
    let mut p = Program::new("BUK");
    let key = p.array("key", ElemType::I64, vec![n]);
    let rank = p.array("rank", ElemType::I64, vec![n]);
    let count = p.array("count", ElemType::I64, vec![buckets]);
    let it = p.fresh_var();
    let i0 = p.fresh_var();
    let i1 = p.fresh_var();
    let i2 = p.fresh_var();
    let i3 = p.fresh_var();

    let cnt_at = |i: usize| ArrayRef::affine(count, vec![var(i)]);
    let cnt_key = |i: usize| ArrayRef {
        array: count,
        idx: vec![Index::Ind {
            array: key,
            idx: vec![var(i)],
        }],
    };

    p.body = vec![Stmt::for_(
        it,
        lin(0),
        lin(iters),
        1,
        vec![
            // Zero the buckets.
            Stmt::for_(
                i0,
                lin(0),
                lin(buckets),
                1,
                vec![Stmt::Store {
                    dst: cnt_at(i0),
                    value: Expr::Lin(lin(0)),
                }],
            ),
            // Histogram: count[key[i]] += 1.
            Stmt::for_(
                i1,
                lin(0),
                lin(n),
                1,
                vec![Stmt::Store {
                    dst: cnt_key(i1),
                    value: Expr::add(Expr::LoadI(cnt_key(i1)), Expr::Lin(lin(1))),
                }],
            ),
            // Inclusive prefix sum over the buckets.
            Stmt::for_(
                i2,
                lin(1),
                lin(buckets),
                1,
                vec![Stmt::Store {
                    dst: cnt_at(i2),
                    value: Expr::add(
                        Expr::LoadI(cnt_at(i2)),
                        Expr::LoadI(ArrayRef::affine(count, vec![var(i2).offset(-1)])),
                    ),
                }],
            ),
            // Reverse pass: stable final positions.
            Stmt::for_(
                i3,
                lin(n - 1),
                lin(-1),
                -1,
                vec![
                    Stmt::Store {
                        dst: cnt_key(i3),
                        value: Expr::sub(Expr::LoadI(cnt_key(i3)), Expr::Lin(lin(1))),
                    },
                    Stmt::Store {
                        dst: ArrayRef::affine(rank, vec![var(i3)]),
                        value: Expr::LoadI(cnt_key(i3)),
                    },
                ],
            ),
        ],
    )];

    let nb = buckets as u64;
    let nu = n as u64;
    Workload::new(
        App::Buk,
        p,
        vec![],
        Box::new(move |prog, binds, data, seed| {
            let mut rng = InitRng::new(seed ^ 0xB0C4);
            fill_i64(prog, binds, data, key, |_| rng.next_below(nb) as i64);
            fill_i64(prog, binds, data, rank, |_| 0);
            fill_i64(prog, binds, data, count, |_| 0);
        }),
        Box::new(move |_prog, binds, data| {
            // rank must place keys in non-decreasing order and be a
            // permutation of 0..n: in the sorted order, the keys equal
            // to `k` fill one block of positions, `start[k]..start[k+1]`,
            // counted here from `key` alone (not from the program's
            // `count`), so each rank must lie in its key's block and no
            // two ranks may be equal.
            let mut start = vec![0u32; nb as usize + 1];
            for i in 0..nu {
                let k = peek_i(binds, data, key, i);
                if !(0..nb as i64).contains(&k) {
                    return Err(format!("key[{i}] = {k} out of range"));
                }
                start[k as usize + 1] += 1;
            }
            for b in 1..start.len() {
                start[b] += start[b - 1];
            }
            let mut taken = vec![0u64; nu.div_ceil(64) as usize];
            for i in 0..nu {
                let r = peek_i(binds, data, rank, i);
                if !(0..nu as i64).contains(&r) {
                    return Err(format!("rank[{i}] = {r} out of range"));
                }
                let (word, bit) = (r as usize / 64, 1u64 << (r % 64));
                if taken[word] & bit != 0 {
                    return Err(format!("rank collision at position {r}"));
                }
                taken[word] |= bit;
                let k = peek_i(binds, data, key, i) as usize;
                let block = start[k] as i64..start[k + 1] as i64;
                if !block.contains(&r) {
                    return Err(format!(
                        "not sorted: key {k} at position {r}, outside {block:?}"
                    ));
                }
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
    fn buk_sorts_correctly() {
        let w = build_sized(4000, 500, 2);
        let (binds, bytes) = ArrayBinding::sequential(&w.prog, 4096);
        let mut vm = MemVm::new(bytes, 4096);
        w.init(&binds, &mut vm, 42);
        run_program(&w.prog, &binds, &w.param_values, CostModel::free(), &mut vm);
        w.verify(&binds, &vm).expect("BUK verification");
    }

    #[test]
    fn buk_verify_catches_corruption() {
        let w = build_sized(1000, 100, 1);
        let (binds, bytes) = ArrayBinding::sequential(&w.prog, 4096);
        let mut vm = MemVm::new(bytes, 4096);
        w.init(&binds, &mut vm, 42);
        run_program(&w.prog, &binds, &w.param_values, CostModel::free(), &mut vm);
        // Corrupt one rank.
        use oocp_ir::ArrayData;
        let rank_base = binds[1].base;
        let v = vm.peek_i64(rank_base);
        vm.poke_i64(rank_base + 8, v); // duplicate position
        assert!(w.verify(&binds, &vm).is_err());
    }

    #[test]
    fn buk_verify_catches_ranks_swapped_across_buckets() {
        let w = build_sized(1000, 100, 1);
        let (binds, bytes) = ArrayBinding::sequential(&w.prog, 4096);
        let mut vm = MemVm::new(bytes, 4096);
        w.init(&binds, &mut vm, 42);
        run_program(&w.prog, &binds, &w.param_values, CostModel::free(), &mut vm);
        // Still a permutation, but two keys of different buckets now
        // sit in each other's places.
        use oocp_ir::ArrayData;
        let (key, rank) = (
            |i: u64| binds[0].base + 8 * i,
            |i: u64| binds[1].base + 8 * i,
        );
        let j = (1..1000)
            .find(|&j| vm.peek_i64(key(j)) != vm.peek_i64(key(0)))
            .expect("more than one bucket is used");
        let (r0, rj) = (vm.peek_i64(rank(0)), vm.peek_i64(rank(j)));
        vm.poke_i64(rank(0), rj);
        vm.poke_i64(rank(j), r0);
        let err = w.verify(&binds, &vm).expect_err("a swap across buckets");
        assert!(err.starts_with("not sorted"), "{err}");
    }

    #[test]
    fn default_sizing_close_to_target() {
        let w = build(4 << 20);
        let b = w.data_bytes();
        assert!(b > 3 << 20 && b < 6 << 20, "{b}");
    }
}
