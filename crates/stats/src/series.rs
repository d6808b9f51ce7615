//! Time-binned series.

use ezflow_sim::{Duration, Time};

use crate::summary::{mean_std, Summary};

/// Accumulates delivered bits into fixed-width time bins; reads back as a
/// throughput (kb/s) series — the paper's Figs. 6 and the throughput
/// columns of Tables 1–3.
#[derive(Clone, Debug)]
pub struct ThroughputSeries {
    bin: Duration,
    bits: Vec<f64>,
}

impl ThroughputSeries {
    /// Creates a series with `bin`-wide bins. The paper's figures use
    /// 10-second bins; the tables are computed from the same series.
    pub fn new(bin: Duration) -> Self {
        assert!(!bin.is_zero());
        ThroughputSeries {
            bin,
            bits: Vec::new(),
        }
    }

    /// Bin width.
    pub fn bin(&self) -> Duration {
        self.bin
    }

    /// Records `bits` delivered at instant `at`.
    pub fn record(&mut self, at: Time, bits: u64) {
        let idx = (at.as_micros() / self.bin.as_micros()) as usize;
        if self.bits.len() <= idx {
            self.bits.resize(idx + 1, 0.0);
        }
        self.bits[idx] += bits as f64;
    }

    /// Total bits recorded.
    pub fn total_bits(&self) -> f64 {
        self.bits.iter().sum()
    }

    /// The series as `(bin center seconds, kb/s)` points.
    pub fn points_kbps(&self) -> Vec<(f64, f64)> {
        let w = self.bin.as_secs_f64();
        self.bits
            .iter()
            .enumerate()
            .map(|(i, &b)| ((i as f64 + 0.5) * w, b / w / 1000.0))
            .collect()
    }

    /// Mean ± std of the per-bin throughput (kb/s) over `[from, to)`,
    /// counting only bins that lie entirely inside the window.
    pub fn window_kbps(&self, from: Time, to: Time) -> Summary {
        let w = self.bin.as_micros();
        let first = from.as_micros().div_ceil(w);
        let last = to.as_micros() / w; // exclusive
        let secs = self.bin.as_secs_f64();
        let vals: Vec<f64> = (first..last)
            .map(|i| self.bits.get(i as usize).copied().unwrap_or(0.0) / secs / 1000.0)
            .collect();
        mean_std(&vals)
    }

    /// Average throughput (kb/s) over `[from, to)` computed from total
    /// bits, not per-bin means (insensitive to bin alignment).
    pub fn average_kbps(&self, from: Time, to: Time) -> f64 {
        let w = self.bin.as_micros();
        let first = (from.as_micros() / w) as usize;
        let last = (to.as_micros().div_ceil(w)) as usize;
        let total: f64 = self
            .bits
            .iter()
            .skip(first)
            .take(last.saturating_sub(first))
            .sum();
        let span = to.saturating_since(from).as_secs_f64();
        if span == 0.0 || total == 0.0 {
            0.0 // normalize (avoids a cosmetic "-0.0" in reports)
        } else {
            total / span / 1000.0
        }
    }
}

/// A series of timestamped scalar samples taken at irregular instants
/// (per-packet delays, on delivery) that can be read back raw,
/// bin-averaged or over a window.
#[derive(Clone, Debug, Default)]
pub struct SampleSeries {
    samples: Vec<(Time, f64)>,
}

impl SampleSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample. Samples must be pushed in nondecreasing time
    /// order (the simulator guarantees this).
    pub fn push(&mut self, at: Time, value: f64) {
        debug_assert!(
            self.samples.last().is_none_or(|&(t, _)| t <= at),
            "samples must be time-ordered"
        );
        self.samples.push((at, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True iff no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples in push order.
    fn samples(&self) -> impl Iterator<Item = (Time, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// Raw samples as `(seconds, value)`.
    pub fn points(&self) -> Vec<(f64, f64)> {
        points(self.samples())
    }

    /// Per-bin means as `(bin center seconds, mean)`, skipping empty bins.
    pub fn binned_mean(&self, bin: Duration) -> Vec<(f64, f64)> {
        binned_mean(self.samples(), bin)
    }

    /// Mean ± std of the raw samples inside `[from, to)`.
    pub fn window(&self, from: Time, to: Time) -> Summary {
        mean_std(&values_in(self.samples(), from, to))
    }

    /// The `p`-quantile of the raw samples inside `[from, to)`.
    pub fn percentile_in(&self, from: Time, to: Time, p: f64) -> Option<f64> {
        crate::summary::percentile(&values_in(self.samples(), from, to), p)
    }
}

/// A series sampled on a fixed stride (per-node buffer occupancies and
/// contention windows, once every sampling period): the first instant,
/// the stride and one `u32` per sample. The `k`-th sample's instant is
/// implied, `first + k·stride`, so it is stored once, not beside every
/// value. Reads back exactly as a [`SampleSeries`] fed the same samples
/// would.
#[derive(Clone, Debug)]
pub struct PeriodicSeries {
    first: Time,
    stride: Duration,
    values: Vec<u32>,
}

impl PeriodicSeries {
    /// Creates an empty series of samples `stride` apart (`stride` must
    /// be nonzero). The first push fixes the first instant.
    pub fn new(stride: Duration) -> Self {
        assert!(!stride.is_zero(), "sampling stride must be nonzero");
        PeriodicSeries {
            first: Time::ZERO,
            stride,
            values: Vec::new(),
        }
    }

    /// Appends the sample taken at `at`.
    ///
    /// # Panics
    ///
    /// If `at` is not the next instant on the stride (`first +
    /// len·stride`).
    pub fn push(&mut self, at: Time, value: u32) {
        if self.values.is_empty() {
            self.first = at;
        } else {
            let next = self.instant(self.values.len());
            assert_eq!(at, next, "periodic sample off its stride");
        }
        self.values.push(value);
    }

    /// The instant of the `k`-th sample.
    fn instant(&self, k: usize) -> Time {
        self.first + self.stride * k as u64
    }

    /// The samples in push order, each at its implied instant.
    fn samples(&self) -> impl Iterator<Item = (Time, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(k, &v)| (self.instant(k), f64::from(v)))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw samples as `(seconds, value)`.
    pub fn points(&self) -> Vec<(f64, f64)> {
        points(self.samples())
    }

    /// Per-bin means as `(bin center seconds, mean)`, skipping empty bins.
    pub fn binned_mean(&self, bin: Duration) -> Vec<(f64, f64)> {
        binned_mean(self.samples(), bin)
    }

    /// Mean ± std of the raw samples inside `[from, to)`.
    pub fn window(&self, from: Time, to: Time) -> Summary {
        mean_std(&values_in(self.samples(), from, to))
    }

    /// Maximum sample value inside `[from, to)`, if any.
    pub fn max_in(&self, from: Time, to: Time) -> Option<f64> {
        max_in(self.samples(), from, to)
    }
}

/// `(seconds, value)` of every sample.
fn points(samples: impl Iterator<Item = (Time, f64)>) -> Vec<(f64, f64)> {
    samples.map(|(t, v)| (t.as_secs_f64(), v)).collect()
}

/// Per-bin means of time-ordered samples as `(bin center seconds, mean)`,
/// skipping empty bins.
fn binned_mean(samples: impl Iterator<Item = (Time, f64)>, bin: Duration) -> Vec<(f64, f64)> {
    assert!(!bin.is_zero());
    let mut out: Vec<(f64, f64)> = Vec::new();
    let mut idx = usize::MAX;
    let mut sum = 0.0;
    let mut n = 0u64;
    let w = bin.as_micros();
    let ws = bin.as_secs_f64();
    for (t, v) in samples {
        let i = (t.as_micros() / w) as usize;
        if i != idx {
            if n > 0 {
                out.push(((idx as f64 + 0.5) * ws, sum / n as f64));
            }
            idx = i;
            sum = 0.0;
            n = 0;
        }
        sum += v;
        n += 1;
    }
    if n > 0 && idx != usize::MAX {
        out.push(((idx as f64 + 0.5) * ws, sum / n as f64));
    }
    out
}

/// The values of the samples inside `[from, to)`.
fn values_in(samples: impl Iterator<Item = (Time, f64)>, from: Time, to: Time) -> Vec<f64> {
    samples
        .filter(|&(t, _)| t >= from && t < to)
        .map(|(_, v)| v)
        .collect()
}

/// The largest value of the samples inside `[from, to)`, if any.
fn max_in(samples: impl Iterator<Item = (Time, f64)>, from: Time, to: Time) -> Option<f64> {
    samples
        .filter(|&(t, _)| t >= from && t < to)
        .map(|(_, v)| v)
        .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(secs: u64) -> Time {
        Time::from_secs(secs)
    }

    #[test]
    fn throughput_bins_and_converts_to_kbps() {
        let mut ts = ThroughputSeries::new(Duration::from_secs(10));
        // 100 kbit in the first bin, 200 kbit in the second.
        ts.record(s(1), 50_000);
        ts.record(s(9), 50_000);
        ts.record(s(12), 200_000);
        let pts = ts.points_kbps();
        assert_eq!(pts.len(), 2);
        assert!((pts[0].0 - 5.0).abs() < 1e-9);
        assert!((pts[0].1 - 10.0).abs() < 1e-9, "100kbit/10s = 10 kb/s");
        assert!((pts[1].1 - 20.0).abs() < 1e-9);
        assert_eq!(ts.total_bits(), 300_000.0);
    }

    #[test]
    fn window_kbps_uses_interior_bins_only() {
        let mut ts = ThroughputSeries::new(Duration::from_secs(10));
        for sec in [5u64, 15, 25, 35] {
            ts.record(s(sec), 100_000); // 10 kb/s in each of 4 bins
        }
        let sm = ts.window_kbps(s(0), s(40));
        assert!((sm.mean - 10.0).abs() < 1e-9);
        assert!(sm.std.abs() < 1e-9);
        assert_eq!(sm.count, 4);
        // A window not aligned to bins keeps only full bins 1 and 2.
        let sm = ts.window_kbps(s(7), s(38));
        assert_eq!(sm.count, 2);
    }

    #[test]
    fn average_kbps_is_total_over_span() {
        let mut ts = ThroughputSeries::new(Duration::from_secs(10));
        ts.record(s(5), 1_000_000);
        // 1 Mbit over 100 s = 10 kb/s.
        assert!((ts.average_kbps(s(0), s(100)) - 10.0).abs() < 1e-9);
        assert_eq!(ts.average_kbps(s(0), s(0)), 0.0);
    }

    #[test]
    fn sample_series_binned_mean_skips_gaps() {
        let mut ss = SampleSeries::new();
        ss.push(s(1), 10.0);
        ss.push(s(2), 20.0);
        ss.push(s(25), 5.0);
        let pts = ss.binned_mean(Duration::from_secs(10));
        assert_eq!(pts.len(), 2);
        assert!((pts[0].1 - 15.0).abs() < 1e-9);
        assert!((pts[1].1 - 5.0).abs() < 1e-9);
        assert!((pts[1].0 - 25.0).abs() < 1e-9);
    }

    #[test]
    fn sample_series_window_and_max() {
        let mut ss = SampleSeries::new();
        for i in 0..10u64 {
            ss.push(s(i), i as f64);
        }
        let sm = ss.window(s(2), s(5));
        assert_eq!(sm.count, 3);
        assert!((sm.mean - 3.0).abs() < 1e-9);
        assert_eq!(max_in(ss.samples(), s(0), s(10)), Some(9.0));
        assert_eq!(max_in(ss.samples(), s(10), s(20)), None);
    }

    #[test]
    fn percentile_in_window() {
        let mut ss = SampleSeries::new();
        for i in 0..100u64 {
            ss.push(s(i), i as f64);
        }
        // Samples 10..=19 inside [10, 20).
        let p50 = ss.percentile_in(s(10), s(20), 0.5).unwrap();
        assert!((p50 - 14.5).abs() < 1e-12);
        assert_eq!(ss.percentile_in(s(200), s(300), 0.5), None);
    }

    #[test]
    fn empty_series_behave() {
        let ts = ThroughputSeries::new(Duration::from_secs(1));
        assert!(ts.points_kbps().is_empty());
        assert_eq!(ts.window_kbps(s(0), s(10)).count, 10); // zero bins count
        let ss = SampleSeries::new();
        assert!(ss.is_empty());
        assert_eq!(ss.window(s(0), s(1)).count, 0);
    }

    #[test]
    fn periodic_series_reads_its_implied_instants() {
        let mut ps = PeriodicSeries::new(Duration::from_secs(2));
        assert!(ps.is_empty());
        for k in 0..5 {
            ps.push(s(3 + 2 * k), k as u32 * 10);
        }
        assert_eq!(ps.len(), 5);
        assert_eq!(ps.points()[4], (11.0, 40.0));
        assert_eq!(ps.window(s(5), s(9)).count, 2, "samples at 5 s and 7 s");
        assert_eq!(ps.max_in(s(0), s(8)), Some(20.0));
        assert_eq!(ps.max_in(s(12), s(20)), None);
    }

    #[test]
    #[should_panic(expected = "off its stride")]
    fn a_periodic_push_off_the_stride_panics() {
        let mut ps = PeriodicSeries::new(Duration::from_secs(1));
        ps.push(s(1), 0);
        ps.push(s(3), 0);
    }

    /// Bit-level equality of two summaries, field by field.
    fn same_summary(a: Summary, b: Summary) -> bool {
        (
            a.mean.to_bits(),
            a.std.to_bits(),
            a.min.to_bits(),
            a.max.to_bits(),
            a.count,
        ) == (
            b.mean.to_bits(),
            b.std.to_bits(),
            b.min.to_bits(),
            b.max.to_bits(),
            b.count,
        )
    }

    /// Bit-level equality of two point lists.
    fn same_points(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
        let bits = |p: &[(f64, f64)]| -> Vec<(u64, u64)> {
            p.iter().map(|&(x, y)| (x.to_bits(), y.to_bits())).collect()
        };
        bits(a) == bits(b)
    }

    proptest! {
        /// A periodic series reads back exactly as a timestamped one fed
        /// the same `(k·stride, v)` samples, and refuses an off-stride
        /// push.
        #[test]
        fn periodic_and_timestamped_series_agree(
            stride_us in 1u64..3_000_000,
            first_k in 0u64..40,
            values in prop::collection::vec(any::<u32>(), 0..120),
            bin_us in 1u64..10_000_000,
            window in (0.0..1.2f64, 0.0..1.2f64),
            off_us in 1u64..3_000_000,
        ) {
            let stride = Duration::from_micros(stride_us);
            let mut periodic = PeriodicSeries::new(stride);
            let mut stamped = SampleSeries::new();
            for (k, &v) in (first_k..).zip(&values) {
                let at = Time::ZERO + stride * k;
                periodic.push(at, v);
                stamped.push(at, f64::from(v));
            }
            prop_assert_eq!(periodic.len(), stamped.len());
            prop_assert!(same_points(&periodic.points(), &stamped.points()));
            let bin = Duration::from_micros(bin_us);
            prop_assert!(same_points(&periodic.binned_mean(bin), &stamped.binned_mean(bin)));
            // A window over (and past) the samples' span, either way round.
            let span = ((first_k + values.len() as u64 + 1) * stride_us) as f64;
            let from = s(0) + Duration::from_micros((window.0 * span) as u64);
            let to = s(0) + Duration::from_micros((window.1 * span) as u64);
            prop_assert!(same_summary(periodic.window(from, to), stamped.window(from, to)));
            let (a, b) = (periodic.max_in(from, to), max_in(stamped.samples(), from, to));
            prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
            // The next instant on the stride is accepted; any other panics.
            let next = Time::ZERO + stride * (first_k + values.len() as u64);
            let pushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                periodic.clone().push(next + Duration::from_micros(off_us), 0);
            }));
            prop_assert!(values.is_empty() == pushed.is_ok(), "push {} us off the stride", off_us);
            periodic.push(next, 7);
        }
    }
}
