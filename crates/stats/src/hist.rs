//! Log-bucketed latency histograms.
//!
//! The flight recorder's headline question — *where* does delay
//! accumulate — needs tail quantiles, and tail quantiles need a
//! histogram, not a mean. [`LogHistogram`] buckets `u64` values (the
//! simulator records microseconds) on an HDR-style log-linear grid:
//! values below 16 get exact buckets, and every octave above that is
//! split into 16 sub-buckets, so any recorded value is off by at most
//! ~3% from its bucket's midpoint while the whole `u64` range fits in a
//! few hundred possible buckets. Storage is a sparse `(bucket, count)`
//! vector kept sorted by bucket, which keeps memory proportional to the
//! *distinct* magnitudes seen and — crucially for the snapshot gate —
//! makes serialisation order deterministic. A record is a binary search
//! over the few dozen buckets a latency distribution occupies, plus an
//! insert the first time a bucket is seen.

/// Sub-buckets per octave (16 → ≤ ~3% relative quantile error).
const SUB: u64 = 16;
/// log2(SUB).
const SUB_BITS: u32 = 4;

/// A sparse log-linear histogram over `u64` values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// `(bucket, count)`, ascending by bucket, every count nonzero.
    counts: Vec<(u32, u64)>,
    total: u64,
}

/// The largest bucket index any `u64` value lands in. An index past it
/// names no value range (its bounds overflow `u64`), so input that
/// carries bucket indices — a snapshot's histograms — is checked against
/// it before [`LogHistogram::from_buckets`].
pub const MAX_BUCKET: u32 = bucket_of(u64::MAX);

/// Bucket index for `v`: exact below [`SUB`], log-linear above.
const fn bucket_of(v: u64) -> u32 {
    if v < SUB {
        return v as u32;
    }
    let e = 63 - v.leading_zeros(); // floor(log2 v) >= SUB_BITS
    let m = (v >> (e - SUB_BITS)) & (SUB - 1); // next SUB_BITS mantissa bits
    ((e - SUB_BITS + 1) as u64 * SUB + m) as u32
}

/// Inclusive lower bound of bucket `b`'s value range.
fn bucket_low(b: u32) -> u64 {
    let b = b as u64;
    if b < SUB {
        return b;
    }
    let e = b / SUB + SUB_BITS as u64 - 1;
    let m = b % SUB;
    (SUB + m) << (e - SUB_BITS as u64)
}

/// Width of bucket `b`'s value range.
fn bucket_width(b: u32) -> u64 {
    let b = b as u64;
    if b < SUB {
        return 1;
    }
    1 << (b / SUB + SUB_BITS as u64 - 1 - SUB_BITS as u64)
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.add(bucket_of(v), 1);
        self.total += 1;
    }

    /// Adds `c` to bucket `b`'s count, creating the bucket in order.
    fn add(&mut self, b: u32, c: u64) {
        match self.counts.binary_search_by_key(&b, |&(k, _)| k) {
            Ok(i) => self.counts[i].1 += c,
            Err(i) => self.counts.insert(i, (b, c)),
        }
    }

    /// Number of values recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The value at quantile `q` (in `[0, 1]`), estimated as the midpoint
    /// of the bucket containing the `ceil(q·total)`-th smallest sample.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for &(b, c) in &self.counts {
            seen += c;
            if seen >= rank {
                return bucket_low(b) + bucket_width(b) / 2;
            }
        }
        unreachable!("rank is clamped to the recorded total");
    }

    /// The conventional latency quartet: p50, p95, p99, p999.
    pub fn percentiles(&self) -> [u64; 4] {
        [
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
            self.quantile(0.999),
        ]
    }

    /// Sparse `(bucket, count)` pairs in ascending bucket order.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().copied()
    }

    /// Rebuilds a histogram from `(bucket, count)` pairs (the inverse of
    /// [`LogHistogram::buckets`], used by snapshot import).
    pub fn from_buckets(pairs: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let mut h = LogHistogram::new();
        for (b, c) in pairs {
            if c > 0 {
                h.add(b, c);
                h.total += c;
            }
        }
        h
    }

    /// Folds `other` into `self` (used to aggregate per-hop histograms
    /// into a network-wide one).
    pub fn merge(&mut self, other: &LogHistogram) {
        for &(b, c) in &other.counts {
            self.add(b, c);
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for v in 0..16u64 {
            assert_eq!(bucket_of(v), v as u32);
            assert_eq!(bucket_low(v as u32), v);
            assert_eq!(bucket_width(v as u32), 1);
        }
        assert_eq!(h.total(), 16);
    }

    #[test]
    fn buckets_partition_the_line() {
        // Each bucket's range must start exactly where the previous ends.
        let mut expected_low = 0u64;
        for b in 0..200u32 {
            assert_eq!(bucket_low(b), expected_low, "bucket {b}");
            expected_low += bucket_width(b);
        }
        // And bucket_of must be the inverse on both edges of each range.
        for b in 16..200u32 {
            let lo = bucket_low(b);
            let hi = lo + bucket_width(b) - 1;
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi), b);
        }
    }

    #[test]
    fn max_bucket_is_the_last_range_of_u64() {
        assert_eq!(MAX_BUCKET, 975);
        let low = bucket_low(MAX_BUCKET);
        assert_eq!(low + (bucket_width(MAX_BUCKET) - 1), u64::MAX);
        let h = LogHistogram::from_buckets([(MAX_BUCKET, 1)]);
        assert_eq!(h.quantile(1.0), low + bucket_width(MAX_BUCKET) / 2);
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let mut h = LogHistogram::new();
        // 1000 samples: 900 at ~100µs, 90 at ~10ms, 10 at ~1s.
        for _ in 0..900 {
            h.record(100);
        }
        for _ in 0..90 {
            h.record(10_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let [p50, p95, p99, p999] = h.percentiles();
        let close = |got: u64, want: u64| {
            let err = (got as f64 - want as f64).abs() / want as f64;
            assert!(err < 0.05, "got {got}, want ~{want}");
        };
        close(p50, 100);
        close(p95, 10_000);
        close(p99, 10_000);
        close(p999, 1_000_000);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [17u64, 1000, 123_456, 987_654_321, u64::MAX / 2] {
            let mut h = LogHistogram::new();
            h.record(v);
            let got = h.quantile(0.5) as f64;
            let err = (got - v as f64).abs() / v as f64;
            assert!(err < 0.04, "v={v} got={got} err={err}");
        }
    }

    #[test]
    fn round_trips_through_buckets() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 15, 16, 17, 100, 10_000, u64::MAX] {
            h.record(v);
        }
        let back = LogHistogram::from_buckets(h.buckets());
        assert_eq!(back, h);
    }

    proptest::proptest! {
        /// The sorted vector against the ordered map it replaced: values
        /// recorded and `(bucket, count)` pairs imported in any order,
        /// duplicated or zero, leave the same buckets, in the same order.
        #[test]
        fn buckets_match_an_ordered_map(
            values in proptest::collection::vec(0u64..u64::MAX, 0..200),
            pairs in proptest::collection::vec((0u32..=MAX_BUCKET, 0u64..1_000), 0..100),
        ) {
            let mut model = std::collections::BTreeMap::new();
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record(v >> (v % 64));
                *model.entry(bucket_of(v >> (v % 64))).or_insert(0u64) += 1;
            }
            let imported = LogHistogram::from_buckets(pairs.iter().copied());
            h.merge(&imported);
            for &(b, c) in pairs.iter().filter(|&&(_, c)| c > 0) {
                *model.entry(b).or_insert(0) += c;
            }
            let want: Vec<(u32, u64)> = model.into_iter().collect();
            proptest::prop_assert_eq!(h.buckets().collect::<Vec<_>>(), want.clone());
            proptest::prop_assert_eq!(h.total(), want.iter().map(|&(_, c)| c).sum::<u64>());
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LogHistogram::new();
        a.record(5);
        a.record(100);
        let mut b = LogHistogram::new();
        b.record(5);
        b.record(7_777);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        let back: Vec<(u32, u64)> = a.buckets().collect();
        assert_eq!(back.iter().map(|&(_, c)| c).sum::<u64>(), 4);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.percentiles(), [0, 0, 0, 0]);
    }
}
