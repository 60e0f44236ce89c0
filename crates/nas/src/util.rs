//! Shared helpers for the benchmark builders.

use oocp_ir::{ArrayBinding, ArrayData, ElemType, Program};

/// Deterministic generator used by initializers (separate from the
/// simulator's RNG so data sets are stable across crate versions).
#[derive(Clone, Debug)]
pub struct InitRng(u64);

impl InitRng {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Next raw value (xorshift64).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Fill a float array with values from `f(element_index)`.
pub fn fill_f64(
    prog: &Program,
    binds: &[ArrayBinding],
    data: &mut dyn ArrayData,
    array: usize,
    mut f: impl FnMut(u64) -> f64,
) {
    debug_assert_eq!(prog.arrays[array].elem, ElemType::F64);
    let base = binds[array].base;
    for e in 0..prog.arrays[array].len() as u64 {
        data.poke_f64(base + e * 8, f(e));
    }
}

/// Fill an integer array with values from `f(element_index)`.
pub fn fill_i64(
    prog: &Program,
    binds: &[ArrayBinding],
    data: &mut dyn ArrayData,
    array: usize,
    mut f: impl FnMut(u64) -> i64,
) {
    debug_assert_eq!(prog.arrays[array].elem, ElemType::I64);
    let base = binds[array].base;
    for e in 0..prog.arrays[array].len() as u64 {
        data.poke_i64(base + e * 8, f(e));
    }
}

/// Read one float element.
pub fn peek_f(binds: &[ArrayBinding], data: &dyn ArrayData, array: usize, e: u64) -> f64 {
    data.peek_f64(binds[array].base + e * 8)
}

/// Read one integer element.
pub fn peek_i(binds: &[ArrayBinding], data: &dyn ArrayData, array: usize, e: u64) -> i64 {
    data.peek_i64(binds[array].base + e * 8)
}

/// Largest power of two `<= x` (and at least `min`).
pub fn pow2_at_most(x: u64, min: u64) -> u64 {
    let mut p = min.next_power_of_two();
    while p * 2 <= x {
        p *= 2;
    }
    p.max(min)
}

/// Check two floats agree to a relative tolerance.
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_at_most_bounds() {
        assert_eq!(pow2_at_most(1000, 8), 512);
        assert_eq!(pow2_at_most(1024, 8), 1024);
        assert_eq!(pow2_at_most(3, 8), 8);
    }

    #[test]
    fn init_rng_is_deterministic() {
        let mut a = InitRng::new(5);
        let mut b = InitRng::new(5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn close_uses_relative_tolerance() {
        assert!(close(1e12, 1e12 * (1.0 + 1e-10), 1e-9));
        assert!(!close(1.0, 2.0, 1e-9));
    }
}
