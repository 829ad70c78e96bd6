//! Deterministic log-bucketed histograms for latency-style metrics.
//!
//! The engines built on this kernel currently summarize distributions with
//! means and maxima ([`crate::RunningStats`]); a profiler needs the shape.
//! [`Histogram`] buckets samples on a logarithmic grid with 8 sub-buckets
//! per octave (≤ ~9% relative quantile error), while tracking exact
//! `count`/`sum`/`min`/`max` on the side so the boundary quantiles are
//! exact: `quantile(0.0)` returns the true minimum and `quantile(1.0)` the
//! true maximum, bit for bit.
//!
//! Determinism is a hard requirement here, as everywhere in the kernel:
//! bucket indices are computed from the IEEE-754 bit pattern of the sample
//! (exponent plus the top three mantissa bits), never from `log2`, so the
//! same sample stream produces the same histogram on every platform.
//! Buckets are stored as one dense window of counts over the occupied
//! index range, so [`Histogram::record`] is a direct index. The window
//! shifts only when a sample lands below its lowest bucket, and the f64
//! exponent range bounds it at 16,376 buckets. Both ends of the window
//! are nonzero, so two histograms over the same samples compare equal,
//! and [`Histogram::clear`] retains the storage for reuse. Walks over the
//! buckets ([`Histogram::quantile`], [`Histogram::raw_parts`],
//! [`Histogram::cumulative_buckets`]) skip the empty entries, so every
//! reader sees the same sparse, sorted `(index, count)` sequence.

/// Sub-buckets per power of two (8 → bucket width is 1/8 octave).
const SUB_BITS: u32 = 3;
/// `1 << SUB_BITS`.
const SUB: i64 = 1 << SUB_BITS;
/// Bucket index of the smallest positive `f64` (a subnormal).
const MIN_INDEX: i64 = -1023 * SUB;
/// Bucket index of the largest finite `f64`.
const MAX_INDEX: i64 = 1023 * SUB + SUB - 1;

/// A mergeable log-bucketed histogram of non-negative `f64` samples.
///
/// Zero is common in the simulator (a task that never waited), so zeros get
/// a dedicated counter instead of a log bucket. Samples must be finite and
/// non-negative; the simulator has no negative durations or sizes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Log-grid index of `counts[0]` (see [`bucket_index`]); 0 when the
    /// window is empty, so empty histograms compare equal.
    lo: i64,
    /// Dense bucket counts over `[lo, lo + counts.len())`. The first and
    /// last entries are nonzero; interior entries may be zero.
    counts: Vec<u64>,
    /// Samples equal to zero.
    zeros: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Log-grid index of a strictly positive finite sample: the unbiased IEEE
/// exponent scaled by [`SUB`], plus the top [`SUB_BITS`] mantissa bits.
/// Monotone in the sample value, computed entirely from its bit pattern.
fn bucket_index(v: f64) -> i64 {
    debug_assert!(v > 0.0 && v.is_finite());
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let sub = ((bits >> (52 - SUB_BITS)) & (SUB as u64 - 1)) as i64;
    exp * SUB + sub
}

/// Inclusive lower bound of bucket `idx`: `2^e * (1 + s/8)` where
/// `e = idx div 8`, `s = idx mod 8`. Both factors are exact in binary, so
/// the bound is exact for all indices in the simulator's range.
fn bucket_lower(idx: i64) -> f64 {
    let exp = idx.div_euclid(SUB);
    let sub = idx.rem_euclid(SUB);
    // 2^exp assembled directly from the IEEE bit layout: exact, no libm.
    let pow2 = f64::from_bits(((exp + 1023) as u64) << 52);
    pow2 * (1.0 + sub as f64 / SUB as f64)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    /// Panics if `v` is negative, NaN, or infinite.
    pub fn record(&mut self, v: f64) {
        assert!(
            v.is_finite() && v >= 0.0,
            "histogram sample must be finite and >= 0"
        );
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        if v == 0.0 {
            self.zeros += 1;
        } else {
            self.bump_bucket(bucket_index(v));
        }
    }

    /// Counts one sample in bucket `idx`.
    fn bump_bucket(&mut self, idx: i64) {
        if idx < self.lo || idx - self.lo >= self.counts.len() as i64 {
            self.cover(idx, idx);
        }
        self.counts[(idx - self.lo) as usize] += 1;
    }

    /// Widens the window to include buckets `first..=last`. The new end
    /// entries start at zero; the caller fills them.
    #[cold]
    fn cover(&mut self, first: i64, last: i64) {
        debug_assert!((MIN_INDEX..=last).contains(&first) && last <= MAX_INDEX);
        if self.counts.is_empty() {
            self.lo = first;
        } else if first < self.lo {
            let shift = (self.lo - first) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, shift));
            self.lo = first;
        }
        let len = (last - self.lo + 1) as usize;
        if len > self.counts.len() {
            self.counts.resize(len, 0);
        }
    }

    /// The occupied buckets as `(log-grid index, count)` pairs in
    /// ascending index order (empty entries of the window skipped).
    fn buckets(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        let lo = self.lo;
        self.counts
            .iter()
            .zip(lo..)
            .filter(|&(&n, _)| n > 0)
            .map(|(&n, idx)| (idx, n))
    }

    /// Empties the histogram while keeping the bucket storage allocated,
    /// so a reused histogram records at steady state without touching the
    /// heap.
    pub fn clear(&mut self) {
        self.lo = 0;
        self.counts.clear();
        self.zeros = 0;
        self.count = 0;
        self.sum = 0.0;
        self.min = 0.0;
        self.max = 0.0;
    }

    /// Serialization support: the complete internal state as
    /// `(buckets, zeros, count, sum, min, max)`. Together with
    /// [`Histogram::from_raw_parts`] this is an exact round-trip — the
    /// rebuilt histogram compares equal bit for bit, which is what the
    /// result cache's binary report codec relies on. `buckets` lists the
    /// occupied buckets only, as `(log-grid index, count)` pairs sorted by
    /// index.
    pub fn raw_parts(&self) -> (Vec<(i64, u64)>, u64, u64, f64, f64, f64) {
        (
            self.buckets().collect(),
            self.zeros,
            self.count,
            self.sum,
            self.min,
            self.max,
        )
    }

    /// Rebuilds a histogram from [`Histogram::raw_parts`] output.
    ///
    /// Returns `Err` instead of a structurally invalid histogram when the
    /// parts are inconsistent (unsorted or duplicate bucket indices, an
    /// index no finite sample maps to, empty buckets, a count that doesn't
    /// add up, non-finite aggregates) — the disk cache treats that as a
    /// corrupt entry and ignores it.
    pub fn from_raw_parts(
        buckets: Vec<(i64, u64)>,
        zeros: u64,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    ) -> Result<Histogram, String> {
        let mut bucketed: u64 = 0;
        let mut prev: Option<i64> = None;
        for &(idx, n) in &buckets {
            if n == 0 {
                return Err(format!("histogram bucket {idx} has zero count"));
            }
            if prev.is_some_and(|p| p >= idx) {
                return Err("histogram buckets not strictly sorted".to_string());
            }
            if !(MIN_INDEX..=MAX_INDEX).contains(&idx) {
                return Err(format!("histogram bucket {idx} is outside the f64 range"));
            }
            prev = Some(idx);
            bucketed = bucketed
                .checked_add(n)
                .ok_or_else(|| "histogram bucket counts overflow".to_string())?;
        }
        if zeros.checked_add(bucketed) != Some(count) {
            return Err(format!(
                "histogram count mismatch: {zeros} zeros + {bucketed} bucketed != {count}"
            ));
        }
        if !(sum.is_finite() && min.is_finite() && max.is_finite()) {
            return Err("histogram aggregates must be finite".to_string());
        }
        if count == 0 && (sum != 0.0 || min != 0.0 || max != 0.0 || !buckets.is_empty()) {
            return Err("empty histogram must have zero aggregates".to_string());
        }
        if count > 0 && (min > max || min < 0.0) {
            return Err(format!("histogram min/max inconsistent: {min}..{max}"));
        }
        let mut h = Histogram {
            zeros,
            count,
            sum,
            min,
            max,
            ..Histogram::default()
        };
        if let (Some(&(first, _)), Some(&(last, _))) = (buckets.first(), buckets.last()) {
            h.cover(first, last);
            for (idx, n) in buckets {
                h.counts[(idx - first) as usize] = n;
            }
        }
        Ok(h)
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact smallest sample, or `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact largest sample, or `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Empirical `q`-quantile for `0 <= q <= 1`, or `0.0` when empty.
    ///
    /// The rank convention matches the rest of the workspace: the quantile
    /// is the value at rank `ceil(q * count)` clamped to `[1, count]`, so
    /// `q = 0` is the minimum and `q = 1` the maximum. Boundary quantiles
    /// are exact; interior quantiles are bucket midpoints (≤ ~9% relative
    /// error), clamped into `[min, max]`.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile wants q in [0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return self.max;
        }
        if rank == 1 {
            return self.min;
        }
        let mut seen = self.zeros;
        if rank <= seen {
            return 0.0;
        }
        for (idx, n) in self.buckets() {
            seen += n;
            if rank <= seen {
                let lo = bucket_lower(idx);
                let hi = bucket_lower(idx + 1);
                return (0.5 * (lo + hi)).clamp(self.min, self.max);
            }
        }
        self.max // unreachable: ranks are exhausted by the loop
    }

    /// Merges another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.zeros += other.zeros;
        if !other.counts.is_empty() {
            self.cover(other.lo, other.lo + other.counts.len() as i64 - 1);
            let at = (other.lo - self.lo) as usize;
            for (dst, &n) in self.counts[at..].iter_mut().zip(&other.counts) {
                *dst += n;
            }
        }
    }

    /// Cumulative `(upper_bound, count_at_or_below)` pairs over the occupied
    /// buckets, in ascending bound order — the shape Prometheus-style
    /// `le`-bucket expositions need. The final implicit `+Inf` bucket is the
    /// total [`Self::count`]. A zero bucket, when present, reports bound
    /// `0.0`.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.buckets().count() + 1);
        let mut cum = 0u64;
        if self.zeros > 0 {
            cum += self.zeros;
            out.push((0.0, cum));
        }
        for (idx, n) in self.buckets() {
            cum += n;
            out.push((bucket_lower(idx + 1), cum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn boundary_quantiles_are_exact() {
        let mut h = Histogram::new();
        for v in [3.7, 0.0, 12.25, 0.004, 88.8] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(h.quantile(1.0).to_bits(), 88.8f64.to_bits());
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 88.8);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn interior_quantiles_are_within_bucket_error() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        for (q, exact) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.10,
                "q={q}: got {got}, want ~{exact}"
            );
        }
        assert_eq!(h.quantile(1.0), 1000.0);
        assert_eq!(h.mean(), 500.5);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(42.0);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42.0);
        }
    }

    #[test]
    fn zeros_get_their_own_bucket() {
        let mut h = Histogram::new();
        for _ in 0..9 {
            h.record(0.0);
        }
        h.record(5.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.9), 0.0);
        assert_eq!(h.quantile(1.0), 5.0);
        let cum = h.cumulative_buckets();
        assert_eq!(cum[0], (0.0, 9));
        assert_eq!(cum.last().unwrap().1, 10);
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..50 {
            let v = (i * i) as f64 * 0.37;
            a.record(v);
            all.record(v);
        }
        for i in 0..70 {
            let v = 1000.0 / (i + 1) as f64;
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.raw_parts().0, all.raw_parts().0);
        assert_eq!(a.zeros, all.zeros);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        // Summation order differs ((Σa)+(Σb) vs one-at-a-time), so the sums
        // agree only to rounding.
        assert!((a.sum() - all.sum()).abs() / all.sum() < 1e-12);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
        let before = a.clone();
        a.merge(&Histogram::new()); // merging empty is a no-op
        assert_eq!(a, before);
    }

    #[test]
    fn merging_into_an_empty_histogram_copies_the_other_exactly() {
        let mut src = Histogram::new();
        for v in [0.0, 0.0, 1.5, 300.25, 7e-4] {
            src.record(v);
        }
        let mut dst = Histogram::new();
        dst.merge(&src);
        assert_eq!(dst, src);
        // Exact extrema survive, bit for bit.
        assert_eq!(dst.min().to_bits(), src.min().to_bits());
        assert_eq!(dst.max().to_bits(), src.max().to_bits());
    }

    #[test]
    fn merging_two_empties_stays_empty() {
        let mut a = Histogram::new();
        a.merge(&Histogram::new());
        assert_eq!(a, Histogram::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.quantile(0.5), 0.0);
        assert!(a.cumulative_buckets().is_empty());
    }

    #[test]
    fn merging_disjoint_bucket_ranges_interleaves_nothing() {
        // a occupies only sub-unit buckets, b only large ones: no bucket
        // index is shared, so the merge is a pure sorted interleave.
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for i in 1..=16 {
            a.record(i as f64 / 1000.0);
            b.record(i as f64 * 1000.0);
        }
        let (a_buckets, b_buckets) = (a.buckets().count(), b.buckets().count());
        a.merge(&b);
        let merged = a.raw_parts().0;
        assert_eq!(merged.len(), a_buckets + b_buckets);
        assert_eq!(a.count(), 32);
        assert_eq!(a.min(), 0.001);
        assert_eq!(a.max(), 16_000.0);
        // The bucket list is still sorted with strictly increasing indices.
        for w in merged.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        // Low quantiles come from a's range, high ones from b's.
        assert!(a.quantile(0.25) < 1.0);
        assert!(a.quantile(0.75) > 1.0);
    }

    #[test]
    fn merge_then_quantile_matches_record_all_then_quantile() {
        // Split one sample stream across three shards in round-robin order,
        // merge, and compare every quantile against the unsharded histogram:
        // the sparse-bucket merge must be exactly count-preserving.
        let mut shards = [Histogram::new(), Histogram::new(), Histogram::new()];
        let mut whole = Histogram::new();
        for i in 0..999u64 {
            let v = match i % 4 {
                0 => 0.0,
                1 => (i as f64).sqrt(),
                2 => 1e-6 * i as f64,
                _ => 1e6 / (i + 1) as f64,
            };
            shards[(i % 3) as usize].record(v);
            whole.record(v);
        }
        let mut merged = Histogram::new();
        for shard in &shards {
            merged.merge(shard);
        }
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.raw_parts().0, whole.raw_parts().0);
        assert_eq!(merged.zeros, whole.zeros);
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(
                merged.quantile(q).to_bits(),
                whole.quantile(q).to_bits(),
                "q={q}"
            );
        }
        assert_eq!(merged.cumulative_buckets(), whole.cumulative_buckets());
    }

    #[test]
    fn bucket_index_is_monotone_and_bounds_bracket() {
        let mut prev = i64::MIN;
        for i in 1..4000 {
            let v = i as f64 * 0.013;
            let idx = bucket_index(v);
            assert!(idx >= prev);
            prev = idx;
            assert!(bucket_lower(idx) <= v && v < bucket_lower(idx + 1), "v={v}");
        }
    }

    #[test]
    fn cumulative_buckets_end_at_total_count() {
        let mut h = Histogram::new();
        for v in [0.1, 0.2, 0.4, 0.8, 1.6, 3.2] {
            h.record(v);
        }
        let cum = h.cumulative_buckets();
        assert_eq!(cum.last().unwrap().1, h.count());
        // Bounds strictly increase.
        for w in cum.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_samples_panic() {
        Histogram::new().record(-1.0);
    }

    #[test]
    #[should_panic(expected = "q in [0, 1]")]
    fn out_of_range_quantile_panics() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.quantile(1.5);
    }

    #[test]
    fn raw_parts_round_trip_is_exact() {
        let mut h = Histogram::new();
        for v in [0.0, 0.0, 1.0, 1.5, 3.25, 1e-9, 7.5e8] {
            h.record(v);
        }
        let (buckets, zeros, count, sum, min, max) = h.raw_parts();
        let back = Histogram::from_raw_parts(buckets, zeros, count, sum, min, max).unwrap();
        assert_eq!(h, back);

        let empty = Histogram::new();
        let (b, z, c, s, lo, hi) = empty.raw_parts();
        assert_eq!(
            Histogram::from_raw_parts(b, z, c, s, lo, hi).unwrap(),
            empty
        );
    }

    #[test]
    fn from_raw_parts_rejects_corrupt_state() {
        // Unsorted buckets.
        assert!(Histogram::from_raw_parts(vec![(5, 1), (3, 1)], 0, 2, 3.0, 1.0, 2.0).is_err());
        // Zero-count bucket.
        assert!(Histogram::from_raw_parts(vec![(3, 0)], 0, 0, 0.0, 0.0, 0.0).is_err());
        // Count mismatch.
        assert!(Histogram::from_raw_parts(vec![(3, 1)], 0, 5, 1.0, 1.0, 1.0).is_err());
        // Non-finite sum.
        assert!(Histogram::from_raw_parts(vec![(3, 1)], 0, 1, f64::NAN, 1.0, 1.0).is_err());
        // min > max.
        assert!(Histogram::from_raw_parts(vec![(3, 2)], 0, 2, 3.0, 2.0, 1.0).is_err());
        // Non-empty aggregates on an empty histogram.
        assert!(Histogram::from_raw_parts(Vec::new(), 0, 0, 1.0, 0.0, 0.0).is_err());
    }
}
