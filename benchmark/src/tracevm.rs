//! The boundary between the interpreter (`oocp-ir`) and everything
//! below it, timed from outside: a [`PagedVm`] that forwards to the
//! real [`Runtime`] and accumulates calls and busy host time per entry
//! point.
//!
//! A resident-hit load costs a few nanoseconds and a clock read about
//! twenty, so timing every call would triple the run. Calls are
//! therefore timed on a pseudo-random sample (mean gap [`MEAN_GAP`], so
//! the sample cannot lock onto a loop body's period) and each entry
//! point's sampled mean is scaled by its exact call count.
//!
//! The clock's own cost has to come out of every sample, and it is not
//! the cost a tight calibration loop would see: in the middle of the
//! interpreter the clock's code and data are cold. So every other
//! sampled call is a *null sample* - two clock reads around nothing, at
//! the same place - and an entry point's busy time is its timed mean
//! minus its null mean.

use std::time::Instant;

use oocp_ir::PagedVm;
use oocp_rt::Runtime;

/// Mean number of calls per sampled one; samples alternate between
/// timed and null.
const MEAN_GAP: u64 = 32;

/// Null samples an entry point needs before its own null mean is used
/// in place of the mean over all entry points.
const MIN_NULLS: u64 = 64;

/// The entry points of the `ir` -> `rt` boundary, in reporting order.
pub const BOUNDARY: [&str; 6] = [
    "rt.load",
    "rt.store",
    "rt.tick_user",
    "rt.prefetch",
    "rt.release",
    "rt.prefetch_release",
];

const LOAD: usize = 0;
const STORE: usize = 1;
const TICK: usize = 2;
const PREFETCH: usize = 3;
const RELEASE: usize = 4;
const PREFETCH_RELEASE: usize = 5;

#[derive(Clone, Copy, Debug, Default)]
struct Bucket {
    calls: u64,
    timed: u64,
    timed_ns: u64,
    nulls: u64,
    null_ns: u64,
}

/// Calls and estimated busy time of one entry point over one cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct BoundaryRow {
    pub calls: u64,
    pub busy_ns: u64,
}

/// The totals of one traced execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct Boundary {
    /// One row per [`BOUNDARY`] entry.
    pub rows: [BoundaryRow; 6],
    /// Host time the clock reads themselves added to the run.
    pub timer_ns: u64,
    /// Mean interval a null sample reported: the cost of the clock
    /// where the samples were taken.
    pub timer_gap_ns: f64,
}

pub struct TracedVm<'a> {
    rt: &'a mut Runtime,
    buckets: [Bucket; 6],
    countdown: u64,
    rng: u64,
    null_next: bool,
}

impl<'a> TracedVm<'a> {
    pub fn new(rt: &'a mut Runtime) -> Self {
        Self {
            rt,
            buckets: [Bucket::default(); 6],
            countdown: MEAN_GAP,
            rng: 0x9E37_79B9_7F4A_7C15,
            null_next: false,
        }
    }

    /// Whether this call is one of the sample; re-arms the
    /// countdown with a gap uniform in `1..2*MEAN_GAP` when it is.
    #[inline(always)]
    fn sampled(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown != 0 {
            return false;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.countdown = 1 + self.rng % (2 * MEAN_GAP - 1);
        true
    }

    #[inline(always)]
    fn call<T>(&mut self, bucket: usize, f: impl FnOnce(&mut Runtime) -> T) -> T {
        self.buckets[bucket].calls += 1;
        if !self.sampled() {
            return f(self.rt);
        }
        self.null_next = !self.null_next;
        let t = Instant::now();
        if self.null_next {
            let ns = t.elapsed().as_nanos() as u64;
            let b = &mut self.buckets[bucket];
            b.nulls += 1;
            b.null_ns += ns;
            return f(self.rt);
        }
        let out = f(self.rt);
        let ns = t.elapsed().as_nanos() as u64;
        let b = &mut self.buckets[bucket];
        b.timed += 1;
        b.timed_ns += ns;
        out
    }

    /// Scale each entry point's timed mean, net of its null mean, to
    /// its call count.
    pub fn finish(self) -> Boundary {
        let mut out = Boundary::default();
        let sum = |f: fn(&Bucket) -> u64| self.buckets.iter().map(f).sum::<u64>() as f64;
        let (nulls, samples) = (sum(|b| b.nulls), sum(|b| b.nulls + b.timed));
        let gap = if nulls > 0.0 {
            sum(|b| b.null_ns) / nulls
        } else {
            0.0
        };
        for (row, b) in out.rows.iter_mut().zip(self.buckets) {
            row.calls = b.calls;
            if b.timed > 0 {
                let own = b.nulls >= MIN_NULLS;
                let null_mean = if own {
                    b.null_ns as f64 / b.nulls as f64
                } else {
                    gap
                };
                let mean = (b.timed_ns as f64 / b.timed as f64 - null_mean).max(0.0);
                row.busy_ns = (mean * b.calls as f64) as u64;
            }
        }
        // A sample is two clock reads, each about one gap long.
        out.timer_ns = (samples * 2.0 * gap) as u64;
        out.timer_gap_ns = gap;
        out
    }
}

impl PagedVm for TracedVm<'_> {
    fn page_bytes(&self) -> u64 {
        self.rt.page_bytes()
    }

    #[inline]
    fn tick_user(&mut self, ns: u64) {
        self.call(TICK, |rt| rt.tick_user(ns));
    }

    #[inline]
    fn load_f64(&mut self, addr: u64) -> f64 {
        self.call(LOAD, |rt| rt.load_f64(addr))
    }

    #[inline]
    fn store_f64(&mut self, addr: u64, v: f64) {
        self.call(STORE, |rt| rt.store_f64(addr, v));
    }

    #[inline]
    fn load_i64(&mut self, addr: u64) -> i64 {
        self.call(LOAD, |rt| rt.load_i64(addr))
    }

    #[inline]
    fn store_i64(&mut self, addr: u64, v: i64) {
        self.call(STORE, |rt| rt.store_i64(addr, v));
    }

    fn prefetch(&mut self, addr: u64, pages: u64) {
        self.call(PREFETCH, |rt| rt.prefetch(addr, pages));
    }

    fn release(&mut self, addr: u64, pages: u64) {
        self.call(RELEASE, |rt| rt.release(addr, pages));
    }

    fn prefetch_release(&mut self, pf_addr: u64, pf_pages: u64, rel_addr: u64, rel_pages: u64) {
        self.call(PREFETCH_RELEASE, |rt| {
            rt.prefetch_release(pf_addr, pf_pages, rel_addr, rel_pages)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocp_os::{Machine, MachineParams};
    use oocp_rt::FilterMode;

    #[test]
    fn counts_are_exact_and_results_pass_through() {
        let machine = Machine::new(MachineParams::small(), 64 * 4096);
        let mut rt = Runtime::new(machine, FilterMode::Enabled);
        let mut vm = TracedVm::new(&mut rt);
        for i in 0..1000u64 {
            vm.store_i64(i * 8, i as i64);
        }
        let mut sum = 0;
        for i in 0..1000u64 {
            sum += vm.load_i64(i * 8);
        }
        for _ in 0..1000 {
            vm.tick_user(5);
            vm.prefetch(0, 2);
            vm.release(0, 1);
            vm.prefetch_release(4096, 1, 0, 1);
        }
        assert_eq!(sum, 999 * 1000 / 2);
        let b = vm.finish();
        assert!(b.rows.iter().all(|r| r.calls == 1000));
        // About 6000 / MEAN_GAP samples of two clock reads each.
        let samples = b.timer_ns as f64 / (2.0 * b.timer_gap_ns);
        assert!((100.0..400.0).contains(&samples), "{samples} samples");
        assert!(b.timer_gap_ns > 0.0);
    }

    #[test]
    fn sample_gaps_average_mean_gap() {
        let machine = Machine::new(MachineParams::small(), 4096);
        let mut rt = Runtime::new(machine, FilterMode::Enabled);
        let mut vm = TracedVm::new(&mut rt);
        let n = 200_000;
        let hits = (0..n).filter(|_| vm.sampled()).count() as f64;
        let gap = f64::from(n) / hits;
        assert!((gap - MEAN_GAP as f64).abs() < 2.0, "mean gap {gap}");
    }
}
