//! Differential tests for [`Histogram`]: every case feeds an identical
//! sample stream to the histogram and to a reference that stores its
//! buckets the obvious way — a sorted `(index, count)` pair list with a
//! binary-searched insert — and asserts the two agree on the occupied
//! buckets, every checked quantile, and the cumulative bucket list after
//! each step.
//!
//! The streams cover what a dense bucket window can get wrong: zeros
//! (their own counter, never a bucket), samples spread over 24 decades
//! (1e-12..1e12, so the window is wide and mostly empty), heavily
//! repeated values, and a new minimum bucket after the window has grown
//! (the window must shift). Merges, `clear` followed by reuse, and the
//! `raw_parts`/`from_raw_parts` round trip are checked on the same
//! streams, and equality is checked to be independent of sample order.
//! Each case is seeded from its index, so a failure message identifies a
//! reproducible stream.

use mcloud_simkit::{Histogram, SimRng};

const CASES: u64 = 48;
const QUANTILES: [f64; 5] = [0.0, 0.5, 0.9, 0.99, 1.0];

/// The log-grid index of a positive finite sample, as the histogram
/// defines it: 8 buckets per octave from the IEEE-754 bit pattern.
fn bucket_index(v: f64) -> i64 {
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let sub = ((bits >> 49) & 7) as i64;
    exp * 8 + sub
}

/// Inclusive lower bound of bucket `idx`.
fn bucket_lower(idx: i64) -> f64 {
    let pow2 = f64::from_bits(((idx.div_euclid(8) + 1023) as u64) << 52);
    pow2 * (1.0 + idx.rem_euclid(8) as f64 / 8.0)
}

/// The sorted-pair histogram the dense window replaced.
#[derive(Debug, Clone, Default, PartialEq)]
struct Reference {
    buckets: Vec<(i64, u64)>,
    zeros: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Reference {
    fn record(&mut self, v: f64) {
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
            self.bump(bucket_index(v), 1);
        }
    }

    fn bump(&mut self, idx: i64, n: u64) {
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(at) => self.buckets[at].1 += n,
            Err(at) => self.buckets.insert(at, (idx, n)),
        }
    }

    fn merge(&mut self, other: &Reference) {
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
        for &(idx, n) in &other.buckets {
            self.bump(idx, n);
        }
    }

    fn quantile(&self, q: f64) -> f64 {
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
        for &(idx, n) in &self.buckets {
            seen += n;
            if rank <= seen {
                let mid = 0.5 * (bucket_lower(idx) + bucket_lower(idx + 1));
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        if self.zeros > 0 {
            cum += self.zeros;
            out.push((0.0, cum));
        }
        for &(idx, n) in &self.buckets {
            cum += n;
            out.push((bucket_lower(idx + 1), cum));
        }
        out
    }
}

/// Asserts every observable of `h` matches the reference, bit for bit.
fn assert_agrees(h: &Histogram, r: &Reference, what: &str) {
    let (buckets, zeros, count, sum, min, max) = h.raw_parts();
    assert_eq!(buckets, r.buckets, "{what}: buckets");
    assert_eq!((zeros, count), (r.zeros, r.count), "{what}: zeros/count");
    assert_eq!(sum.to_bits(), r.sum.to_bits(), "{what}: sum");
    assert_eq!(min.to_bits(), r.min.to_bits(), "{what}: min");
    assert_eq!(max.to_bits(), r.max.to_bits(), "{what}: max");
    for q in QUANTILES {
        assert_eq!(
            h.quantile(q).to_bits(),
            r.quantile(q).to_bits(),
            "{what}: quantile {q}"
        );
    }
    assert_eq!(h.cumulative_buckets(), r.cumulative_buckets(), "{what}");
    let back = Histogram::from_raw_parts(buckets, zeros, count, sum, min, max)
        .unwrap_or_else(|e| panic!("{what}: raw parts rejected: {e}"));
    assert_eq!(&back, h, "{what}: raw-parts round trip");
}

/// One seeded sample stream of `n` values in the given shape.
fn stream(kind: u64, seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SimRng::new(seed);
    let palette: Vec<f64> = (0..5).map(|_| rng.f64_in(1e-3, 1e3)).collect();
    (0..n)
        .map(|i| match kind {
            // Zero-heavy: a task that never waited is the common case.
            0 => {
                if rng.chance(0.6) {
                    0.0
                } else {
                    rng.f64_in(0.0, 100.0)
                }
            }
            // Log-uniform over 24 decades.
            1 => 10f64.powf(rng.f64_in(-12.0, 12.0)),
            // A handful of values, repeated.
            2 => palette[rng.below(palette.len() as u64) as usize],
            // Growth upward first, then new minima below the window.
            _ => {
                let scale = if i < n / 2 { 1e3 } else { 1e-9 };
                scale * rng.f64_in(1.0, 1e3)
            }
        })
        .collect()
}

#[test]
fn recording_matches_the_sorted_pair_reference() {
    for case in 0..CASES {
        let samples = stream(case % 4, 0x4157_0000 + case, 400 + 37 * case as usize);
        let (mut h, mut r) = (Histogram::new(), Reference::default());
        assert_agrees(&h, &r, &format!("case {case} empty"));
        for (i, &v) in samples.iter().enumerate() {
            h.record(v);
            r.record(v);
            if i % 61 == 0 {
                assert_agrees(&h, &r, &format!("case {case} after {i} samples"));
            }
        }
        assert_agrees(&h, &r, &format!("case {case} final"));
    }
}

#[test]
fn merging_matches_the_reference() {
    for case in 0..CASES {
        // Shards of different shapes, merged in a seeded order into a
        // histogram that already holds samples of its own.
        let mut rng = SimRng::new(0x3e26_0000 + case);
        let mut h = Histogram::new();
        let mut r = Reference::default();
        for v in stream(case % 4, 0x3e26_1000 + case, 50) {
            h.record(v);
            r.record(v);
        }
        for shard in 0..6 {
            let kind = rng.below(4);
            let samples = stream(
                kind,
                0x3e26_2000 + case * 8 + shard,
                rng.below(200) as usize,
            );
            let (mut hs, mut rs) = (Histogram::new(), Reference::default());
            for v in samples {
                hs.record(v);
                rs.record(v);
            }
            assert_agrees(&hs, &rs, &format!("case {case} shard {shard}"));
            h.merge(&hs);
            r.merge(&rs);
            assert_agrees(&h, &r, &format!("case {case} after merging shard {shard}"));
        }
        // Merging into an empty histogram copies the other exactly.
        let mut empty = Histogram::new();
        empty.merge(&h);
        assert_eq!(empty, h, "case {case}: merge into empty");
    }
}

#[test]
fn a_cleared_histogram_is_reused_like_a_fresh_one() {
    for case in 0..CASES {
        let mut h = Histogram::new();
        for v in stream(1, 0xc1ea_0000 + case, 300) {
            h.record(v);
        }
        h.clear();
        assert_eq!(h, Histogram::new(), "case {case}: cleared");
        let (mut fresh, mut r) = (Histogram::new(), Reference::default());
        for v in stream(case % 4, 0xc1ea_1000 + case, 300) {
            h.record(v);
            fresh.record(v);
            r.record(v);
        }
        assert_eq!(h, fresh, "case {case}: reused vs fresh");
        assert_agrees(&h, &r, &format!("case {case} reused"));
    }
}

#[test]
fn equality_does_not_depend_on_sample_order() {
    for case in 0..CASES {
        // Dyadic samples (k * 2^e with k < 2^10, |e| <= 10) sum exactly
        // in any order, so the whole state must agree, not just buckets.
        let mut rng = SimRng::new(0x0dde_0000 + case);
        let mut samples: Vec<f64> = (0..500)
            .map(|_| {
                if rng.chance(0.1) {
                    0.0
                } else {
                    let k = rng.below(1 << 10) as f64;
                    k * f64::from_bits((1013 + rng.below(21)) << 52)
                }
            })
            .collect();
        let (mut a, mut ra) = (Histogram::new(), Reference::default());
        for &v in &samples {
            a.record(v);
            ra.record(v);
        }
        for i in (1..samples.len()).rev() {
            samples.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let (mut b, mut rb) = (Histogram::new(), Reference::default());
        for &v in &samples {
            b.record(v);
            rb.record(v);
        }
        assert_eq!(ra, rb, "case {case}: reference");
        assert_eq!(a, b, "case {case}: reordered samples");
        assert_agrees(&b, &rb, &format!("case {case} reordered"));
    }
}

#[test]
fn raw_parts_outside_the_f64_range_are_rejected() {
    // A corrupt cache entry must not make the window span the i64 range.
    assert!(Histogram::from_raw_parts(vec![(0, 1), (1 << 40, 1)], 0, 2, 3.0, 1.0, 2.0).is_err());
    assert!(Histogram::from_raw_parts(vec![(-9000, 1)], 0, 1, 1.0, 1.0, 1.0).is_err());
    // The extreme finite buckets are accepted.
    let mut h = Histogram::new();
    h.record(f64::MAX);
    h.record(f64::from_bits(1)); // the smallest subnormal
    let (buckets, zeros, count, sum, min, max) = h.raw_parts();
    assert_eq!(buckets.len(), 2);
    assert_eq!(
        Histogram::from_raw_parts(buckets, zeros, count, sum, min, max).unwrap(),
        h
    );
}
