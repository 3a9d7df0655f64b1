//! Fixed-bucket histograms with interpolated quantiles.
//!
//! Buckets use Prometheus-style **inclusive upper bounds** (`le`): a value
//! `v` lands in the first bucket whose bound is `>= v`; anything above the
//! last bound lands in the implicit `+inf` overflow bucket. Quantiles
//! interpolate linearly inside the containing bucket and clamp to the
//! observed `[min, max]`, so a histogram whose bounds enumerate every
//! possible value (e.g. [`Histogram::occupancy`]) reports quantiles
//! exactly.

use crate::counter::saturating_fetch_add;
use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-bucket histogram of `u64` samples.
///
/// Recording takes `&self` (relaxed atomics) so lookup paths can record
/// probe lengths without threading `&mut` through the table API, and so
/// tables that embed histograms stay `Sync` for lock-free concurrent
/// readers. The atomics are statistics, not synchronization — every
/// access is `Relaxed`, and a snapshot read while writers are recording
/// may be mid-sample (quantiles remain within the observed range).
///
/// A sample up to 128 (and the last bound) costs one atomic add on a
/// per-value counter; bucket counts, sum, min and max fold those
/// counters in when read. A larger sample adds to its bucket and the
/// sum, and writes `min`/`max` only when it moves them.
#[derive(Debug)]
pub struct Histogram {
    /// Strictly increasing inclusive upper bounds.
    uppers: Vec<u64>,
    /// One count per value `0..exact.len()`.
    exact: Vec<AtomicU64>,
    /// Samples above the exact range: one count per bound plus the
    /// trailing `+inf` overflow bucket.
    counts: Vec<AtomicU64>,
    /// Sum, min and max of the samples in `counts`.
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Largest sample value counted exactly, one counter per value: every
/// probe-length bucket, and the occupancy of groups up to 128 cells.
const EXACT_MAX: u64 = 128;

fn atomics(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

fn load_all(v: &[AtomicU64]) -> impl Iterator<Item = u64> + '_ {
    v.iter().map(|c| c.load(Ordering::Relaxed))
}

impl Clone for Histogram {
    fn clone(&self) -> Histogram {
        Histogram {
            uppers: self.uppers.clone(),
            exact: load_all(&self.exact).map(AtomicU64::new).collect(),
            counts: load_all(&self.counts).map(AtomicU64::new).collect(),
            sum: AtomicU64::new(self.sum.load(Ordering::Relaxed)),
            min: AtomicU64::new(self.min.load(Ordering::Relaxed)),
            max: AtomicU64::new(self.max.load(Ordering::Relaxed)),
        }
    }
}

impl Histogram {
    /// A histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    /// If `uppers` is empty or not strictly increasing.
    pub fn new(uppers: Vec<u64>) -> Histogram {
        assert!(!uppers.is_empty(), "histogram needs at least one bucket");
        assert!(
            uppers.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing: {uppers:?}"
        );
        let n = uppers.len() + 1; // + overflow
        let exact = uppers[n - 2].min(EXACT_MAX) as usize + 1;
        Histogram {
            uppers,
            exact: atomics(exact),
            counts: atomics(n),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// `n` buckets of equal `width` starting at `start` (first bound is
    /// `start`, i.e. `linear(0, 1, 9)` enumerates bounds 0..=8).
    pub fn linear(start: u64, width: u64, n: usize) -> Histogram {
        assert!(width > 0, "bucket width must be positive");
        Histogram::new((0..n as u64).map(|i| start + i * width).collect())
    }

    /// `n` geometric buckets: `start, start*factor, start*factor^2, …`.
    pub fn exponential(start: u64, factor: u64, n: usize) -> Histogram {
        assert!(start > 0 && factor > 1, "need start > 0 and factor > 1");
        let mut uppers = Vec::with_capacity(n);
        let mut b = start;
        for _ in 0..n {
            uppers.push(b);
            b = b.saturating_mul(factor);
        }
        uppers.dedup(); // saturation can repeat u64::MAX
        Histogram::new(uppers)
    }

    /// Preset for probe lengths (cells or buckets examined per
    /// operation): exact buckets 1..=16, then a coarse tail. Shared by
    /// group hashing and all baselines so distributions compare directly.
    pub fn probe_lengths() -> Histogram {
        let mut uppers: Vec<u64> = (1..=16).collect();
        uppers.extend([24, 32, 48, 64, 128]);
        Histogram::new(uppers)
    }

    /// Preset for group/bucket occupancy observed at insert: one exact
    /// bucket per possible occupancy `0..=group_size`.
    pub fn occupancy(group_size: usize) -> Histogram {
        Histogram::linear(0, 1, group_size + 1)
    }

    /// Preset for per-op simulated-time latency in nanoseconds: powers of
    /// two from 32 ns to ~2 s.
    pub fn latency_ns() -> Histogram {
        Histogram::exponential(32, 2, 27)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        match usize::try_from(v).ok().and_then(|i| self.exact.get(i)) {
            Some(c) => {
                c.fetch_add(1, Ordering::Relaxed);
            }
            None => self.record_above_exact(v),
        }
    }

    /// The out-of-line path for samples past the per-value counters.
    #[inline(never)]
    fn record_above_exact(&self, v: u64) {
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
        let idx = self.uppers.partition_point(|&u| u < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.sum, v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        load_all(&self.exact).chain(load_all(&self.counts)).sum()
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        load_all(&self.exact)
            .enumerate()
            .fold(self.sum.load(Ordering::Relaxed), |s, (v, n)| {
                s.saturating_add(n.saturating_mul(v as u64))
            })
    }

    /// Smallest sample, if any were recorded.
    pub fn min(&self) -> Option<u64> {
        match load_all(&self.exact).position(|n| n > 0) {
            Some(v) => Some(v as u64),
            None => self.any_above_exact().then(|| self.min.load(Ordering::Relaxed)),
        }
    }

    /// Largest sample, if any were recorded.
    pub fn max(&self) -> Option<u64> {
        if self.any_above_exact() {
            return Some(self.max.load(Ordering::Relaxed));
        }
        let last = self.exact.iter().rposition(|c| c.load(Ordering::Relaxed) > 0);
        last.map(|v| v as u64)
    }

    /// Whether any sample landed above the exact range.
    fn any_above_exact(&self) -> bool {
        load_all(&self.counts).any(|n| n > 0)
    }

    /// Per-bucket counts with the exact per-value counts folded in.
    fn bucket_counts(&self) -> Vec<u64> {
        let mut out: Vec<u64> = load_all(&self.counts).collect();
        for (v, n) in load_all(&self.exact).enumerate() {
            out[self.uppers.partition_point(|&u| u < v as u64)] += n;
        }
        out
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.sum() as f64 / self.count() as f64
        }
    }

    /// The bucket bounds (without the implicit `+inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.uppers
    }

    /// Count in bucket `i` (index `bounds().len()` is the overflow
    /// bucket).
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.bucket_counts()[i]
    }

    /// The `q`-quantile (`q` in `[0, 1]`), linearly interpolated inside
    /// the containing bucket and clamped to the observed range. Returns
    /// 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let (Some(min), Some(max)) = (self.min(), self.max()) else {
            return 0.0;
        };
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        let q = q.clamp(0.0, 1.0);
        let rank = q * total as f64;
        let mut cum = 0u64;
        for (i, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = cum;
            cum += n;
            if (cum as f64) >= rank {
                let lo = if i == 0 { 0.0 } else { self.uppers[i - 1] as f64 };
                let hi = if i < self.uppers.len() {
                    self.uppers[i] as f64
                } else {
                    // Overflow bucket tops out at the observed max.
                    max as f64
                };
                let frac = ((rank - before as f64) / n as f64).clamp(0.0, 1.0);
                let v = lo + frac * (hi - lo);
                return v.clamp(min as f64, max as f64);
            }
        }
        max as f64
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Clears all samples, keeping the bucket layout.
    pub fn reset(&self) {
        for c in self.exact.iter().chain(&self.counts) {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Folds `other` into `self` (shard aggregation).
    ///
    /// # Panics
    /// If the bucket layouts differ.
    pub fn merge(&self, other: &Histogram) {
        assert_eq!(
            self.uppers, other.uppers,
            "cannot merge histograms with different bucket layouts"
        );
        let pairs = self.exact.iter().zip(&other.exact);
        for (a, b) in pairs.chain(self.counts.iter().zip(&other.counts)) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        saturating_fetch_add(&self.sum, other.sum.load(Ordering::Relaxed));
        if other.any_above_exact() {
            self.min
                .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
            self.max
                .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Serializes to the registry's stable histogram schema:
    /// `{count, sum, mean, min, max, p50, p95, p99, buckets: [{le, count}]}`
    /// where the final bucket's `le` is the string `"+inf"`. Empty buckets
    /// are included so the schema is identical across schemes.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.insert("count", self.count());
        j.insert("sum", self.sum());
        j.insert("mean", self.mean());
        match (self.min(), self.max()) {
            (Some(mn), Some(mx)) => {
                j.insert("min", mn);
                j.insert("max", mx);
            }
            _ => {
                j.insert("min", Json::Null);
                j.insert("max", Json::Null);
            }
        }
        j.insert("p50", self.p50());
        j.insert("p95", self.p95());
        j.insert("p99", self.p99());
        let counts = self.bucket_counts();
        let mut buckets = Vec::with_capacity(counts.len());
        for (i, &c) in counts.iter().enumerate() {
            let mut b = Json::obj();
            match self.uppers.get(i) {
                Some(&le) => b.insert("le", le),
                None => b.insert("le", "+inf"),
            };
            b.insert("count", c);
            buckets.push(b);
        }
        j.insert("buckets", buckets);
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_inclusive_upper_bounds() {
        let h = Histogram::new(vec![1, 2, 4]);
        h.record(0); // le=1
        h.record(1); // le=1 (exactly on the edge stays in its bucket)
        h.record(2); // le=2
        h.record(3); // le=4
        h.record(4); // le=4
        h.record(5); // +inf overflow
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 2);
        assert_eq!(h.bucket_count(3), 1); // overflow
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 15);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(5));
    }

    #[test]
    fn quantiles_exact_with_unit_buckets() {
        // Bounds enumerate every value, so quantiles come out exact.
        let h = Histogram::linear(0, 1, 101);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.p50(), 50.0);
        assert_eq!(h.p95(), 95.0);
        assert_eq!(h.p99(), 99.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_clamp_to_observed_range() {
        let h = Histogram::new(vec![10, 100]);
        for _ in 0..8 {
            h.record(42); // all mass in the (10, 100] bucket
        }
        // Interpolation alone would say 10 + q*90; clamping pins every
        // quantile of a single-valued distribution to that value.
        assert_eq!(h.p50(), 42.0);
        assert_eq!(h.p99(), 42.0);
        assert_eq!(h.quantile(0.0), 42.0);
    }

    #[test]
    fn overflow_bucket_quantile_uses_observed_max() {
        let h = Histogram::new(vec![4]);
        h.record(1_000);
        h.record(2_000);
        assert_eq!(h.quantile(1.0), 2_000.0);
        assert!(h.p50() >= 4.0 && h.p50() <= 2_000.0);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::probe_lengths();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        let j = h.to_json();
        assert_eq!(j.get("min"), Some(&Json::Null));
    }

    #[test]
    fn merge_requires_same_layout_and_sums() {
        let a = Histogram::occupancy(4);
        let b = Histogram::occupancy(4);
        a.record(1);
        b.record(3);
        b.record(4);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(4));
        assert_eq!(a.sum(), 8);
    }

    #[test]
    fn exact_and_larger_samples_share_buckets_sum_and_range() {
        // Bounds straddle EXACT_MAX: 100 and 128 are counted per value,
        // 129 and 300 through their bucket; both meet in `(64, 256]`.
        let a = Histogram::new(vec![64, 256]);
        let b = Histogram::new(vec![64, 256]);
        a.record(100);
        a.record(EXACT_MAX);
        b.record(EXACT_MAX + 1);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.bucket_count(0), 0);
        assert_eq!(a.bucket_count(1), 3);
        assert_eq!(a.bucket_count(2), 1);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 100 + 128 + 129 + 300);
        assert_eq!(a.min(), Some(100));
        assert_eq!(a.max(), Some(300));
        assert_eq!(a.quantile(1.0), 300.0);
        let c = a.clone();
        a.reset();
        assert_eq!((a.count(), a.min(), a.max()), (0, None, None));
        assert_eq!(c.count(), 4);
    }

    #[test]
    #[should_panic(expected = "different bucket layouts")]
    fn merge_rejects_mismatched_layouts() {
        let a = Histogram::new(vec![1, 2]);
        let b = Histogram::new(vec![1, 3]);
        a.merge(&b);
    }

    #[test]
    fn reset_clears_but_keeps_layout() {
        let h = Histogram::new(vec![8]);
        h.record(3);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.bounds(), &[8]);
        h.record(9);
        assert_eq!(h.bucket_count(1), 1);
    }

    #[test]
    fn exponential_bounds_dedup_on_saturation() {
        let h = Histogram::exponential(1 << 62, 2, 4);
        // 2^62, 2^63, then u64::MAX once (saturated duplicates removed).
        assert_eq!(h.bounds().len(), 3);
        assert_eq!(h.bounds()[2], u64::MAX);
    }

    #[test]
    fn json_schema_has_all_keys() {
        let h = Histogram::new(vec![2, 4]);
        h.record(1);
        h.record(9);
        let j = h.to_json();
        for key in ["count", "sum", "mean", "min", "max", "p50", "p95", "p99", "buckets"] {
            assert!(j.get(key).is_some(), "missing key {key}");
        }
        match j.get("buckets") {
            Some(Json::Arr(b)) => {
                assert_eq!(b.len(), 3);
                assert_eq!(b[2].get("le"), Some(&Json::Str("+inf".into())));
                assert_eq!(b[2].get("count"), Some(&Json::U64(1)));
            }
            other => panic!("buckets not an array: {other:?}"),
        }
    }
}
