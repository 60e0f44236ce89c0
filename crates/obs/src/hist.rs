//! Fixed-bucket log2 latency histograms.
//!
//! The 3PO prefetcher paper's key observation is that prefetch
//! *lead-time distributions*, not averages, are what let you tune a
//! prefetch distance; a mean hides the late tail entirely. This
//! histogram keeps 64 power-of-two buckets (bucket `i` holds values in
//! `[2^(i-1), 2^i)`, bucket 0 holds exactly zero), an exact sum, and
//! exact min/max, so quantiles are answerable to within a factor of two
//! at any scale from 1 ns to centuries without allocation.

use oocp_sim::time::Ns;

/// Number of buckets (one per bit of a `u64`, plus the zero bucket
/// folded into index 0; the top bucket absorbs everything >= 2^62).
pub const BUCKETS: usize = 64;

/// A log2-bucketed histogram of nanosecond latencies.
///
/// `Copy` on purpose: it is embedded in per-disk stats structs that are
/// merged by value, and 64 fixed buckets keep it allocation-free.
///
/// # Examples
///
/// ```
/// use oocp_obs::LatencyHist;
///
/// let mut h = LatencyHist::new();
/// for v in [1, 2, 3, 100, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.sum_ns(), 1106);
/// assert_eq!(h.max(), 1000);
/// assert_eq!(h.p50(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LatencyHist {
    counts: [u64; BUCKETS],
    count: u64,
    sum_ns: Ns,
    min: Ns,
    max: Ns,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// Create an empty histogram.
    pub const fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min: Ns::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value: 0 for 0, otherwise `64 - clz(v)`
    /// capped at the top bucket.
    #[inline]
    pub fn bucket_of(v: Ns) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i` (used for quantile answers).
    pub fn bucket_bound(i: usize) -> Ns {
        if i == 0 {
            0
        } else if i >= BUCKETS - 1 {
            Ns::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one latency sample.
    #[inline]
    pub fn record(&mut self, v: Ns) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating; never lossy like
    /// `mean * count`).
    pub fn sum_ns(&self) -> Ns {
        self.sum_ns
    }

    /// Exact mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> Ns {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> Ns {
        self.max
    }

    /// Quantile estimate: the upper bound of the bucket containing the
    /// `q`-th sample, clamped to the observed maximum (so it is never a
    /// value larger than anything recorded). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> Ns {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> Ns {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> Ns {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Ns {
        self.quantile(0.99)
    }

    /// Raw bucket counts (index = log2 bucket).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, o: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(o.counts.iter()) {
            *a += b;
        }
        self.count += o.count;
        self.sum_ns = self.sum_ns.saturating_add(o.sum_ns);
        if o.count > 0 {
            self.min = self.min.min(o.min);
            self.max = self.max.max(o.max);
        }
    }
}

impl std::fmt::Debug for LatencyHist {
    /// Compact summary — the 64 raw buckets would drown every derived
    /// `Debug` of a struct embedding a histogram.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHist")
            .field("count", &self.count)
            .field("sum_ns", &self.sum_ns)
            .field("p50", &self.p50())
            .field("p95", &self.p95())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hist_is_all_zero() {
        let h = LatencyHist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_ns(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LatencyHist::bucket_of(0), 0);
        assert_eq!(LatencyHist::bucket_of(1), 1);
        assert_eq!(LatencyHist::bucket_of(2), 2);
        assert_eq!(LatencyHist::bucket_of(3), 2);
        assert_eq!(LatencyHist::bucket_of(4), 3);
        assert_eq!(LatencyHist::bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(LatencyHist::bucket_bound(0), 0);
        assert_eq!(LatencyHist::bucket_bound(1), 1);
        assert_eq!(LatencyHist::bucket_bound(2), 3);
        assert_eq!(LatencyHist::bucket_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn sum_is_exact_where_mean_times_count_is_not() {
        // 10^7 samples of 10^9 + 1 ns: mean*count loses the +1s in f64
        // rounding, the exact accumulator does not.
        let mut h = LatencyHist::new();
        for _ in 0..10_000 {
            h.record(1_000_000_007);
        }
        assert_eq!(h.sum_ns(), 10_000 * 1_000_000_007);
    }

    #[test]
    fn quantiles_bracket_the_distribution() {
        let mut h = LatencyHist::new();
        // 90 fast (8 ns), 10 slow (1_000_000 ns).
        for _ in 0..90 {
            h.record(8);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert!(h.p50() < 16, "p50 {} in the fast bucket", h.p50());
        assert!(h.p95() >= 524_288, "p95 {} in the slow bucket", h.p95());
        assert_eq!(h.max(), 1_000_000);
        // Quantile answers never exceed the observed max.
        assert!(h.p99() <= h.max());
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LatencyHist::new();
        a.record(5);
        let mut b = LatencyHist::new();
        b.record(500);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum_ns(), 512);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 500);
        // Merging an empty histogram changes nothing.
        let before = (a.count(), a.sum_ns(), a.min(), a.max());
        a.merge(&LatencyHist::new());
        assert_eq!(before, (a.count(), a.sum_ns(), a.min(), a.max()));
    }

    /// `DiskStats::merge` and `DiskArray::total_stats` fold per-disk
    /// histograms in whatever order the disks come: merging must commute
    /// and must equal recording both parts' samples into one histogram.
    #[test]
    fn merge_commutes_and_equals_recording_the_union() {
        let mut g = oocp_sim::SimRng::new(0x0B_0005);
        for case in 0..64 {
            let samples = |g: &mut oocp_sim::SimRng| -> Vec<Ns> {
                (0..g.next_below(100))
                    .map(|_| {
                        let bits = g.next_below(40);
                        g.next_below(1u64 << bits)
                    })
                    .collect()
            };
            let (xs, ys) = (samples(&mut g), samples(&mut g));
            let hist = |vs: &[Ns]| {
                let mut h = LatencyHist::new();
                vs.iter().for_each(|&v| h.record(v));
                h
            };
            let (a, b) = (hist(&xs), hist(&ys));
            let mut ab = a;
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            assert_eq!(ab, ba, "case {case}: merge must commute");
            let union: Vec<Ns> = xs.iter().chain(&ys).copied().collect();
            assert_eq!(ab, hist(&union), "case {case}: merge == one recording");
        }
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let mut h = LatencyHist::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.min(), 0);
    }
}
