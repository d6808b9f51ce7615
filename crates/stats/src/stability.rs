//! Turbulence / stability analysis of a telemetry stream.
//!
//! The paper's central claim is qualitative — EZ-Flow "removes
//! turbulence", the large sustained queue-occupancy oscillations of
//! multihop 802.11 — and this module makes it measurable. A
//! [`StabilityTracker`] takes one queue depth per telemetry window and
//! chops the stream into consecutive analysis chunks of `window` values;
//! each chunk gets an **oscillation amplitude** (max − min) and a
//! **coefficient of variation** (std / mean), and maximal runs of
//! high-amplitude chunks become **episodes** with start/end timestamps.
//! Only the chunk scores are kept, so a run of any length costs one
//! score per `window` windows. The snapshot's stability section and
//! `trace telemetry` both score through it.
//!
//! Everything here is a pure function of its inputs — analysis of a
//! deterministic simulation run is itself deterministic.

use ezflow_sim::{Duration, Time};

use crate::summary::{mean_std, Summary};

/// Parameters of the episode detector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StabilityConfig {
    /// Samples per analysis window (only complete windows are scored).
    pub window: usize,
    /// Minimum amplitude (max − min within an analysis window) for the
    /// window to count as oscillating. The default of 3.0 is tuned to
    /// the paper's 50-packet interface queues: in steady state the
    /// turbulent 802.11 regime swings relay queues by 3–9 packets every
    /// couple of seconds where EZ-flow holds them within a packet or
    /// two, so three packets of within-window swing separates the two.
    pub amp_threshold: f64,
    /// Minimum run of consecutive oscillating windows that counts as a
    /// *sustained* episode.
    pub min_windows: usize,
}

impl Default for StabilityConfig {
    fn default() -> Self {
        StabilityConfig {
            window: 20,
            amp_threshold: 3.0,
            min_windows: 3,
        }
    }
}

/// One scored analysis window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowScore {
    /// Start of the analysis window.
    pub start: Time,
    /// End (exclusive) of the analysis window.
    pub end: Time,
    /// Oscillation amplitude: max − min of the samples inside.
    pub amplitude: f64,
    /// Coefficient of variation: std / mean (0 when the mean is 0).
    pub cv: f64,
}

/// A maximal run of consecutive high-amplitude analysis windows at least
/// [`StabilityConfig::min_windows`] long.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Episode {
    /// Start of the first window of the run.
    pub start: Time,
    /// End (exclusive) of the last window of the run.
    pub end: Time,
    /// Largest window amplitude inside the run.
    pub peak_amplitude: f64,
}

/// Stability verdict for one series.
#[derive(Clone, Debug, PartialEq)]
pub struct Stability {
    /// Mean ± std of the per-window amplitudes.
    pub amplitude: Summary,
    /// Mean ± std of the per-window coefficients of variation.
    pub cv: Summary,
    /// Sustained oscillation episodes, in time order.
    pub episodes: Vec<Episode>,
}

/// Finds the sustained oscillation episodes in a sequence of scored
/// windows: maximal runs of consecutive windows with `amplitude >=
/// cfg.amp_threshold` lasting at least `cfg.min_windows` windows.
pub fn detect_episodes(scores: &[WindowScore], cfg: &StabilityConfig) -> Vec<Episode> {
    let mut out = Vec::new();
    let mut run: Option<(usize, usize)> = None; // [first, last] hot windows
    let flush = |run: &mut Option<(usize, usize)>, out: &mut Vec<Episode>| {
        if let Some((first, last)) = run.take() {
            if last - first + 1 >= cfg.min_windows {
                let peak = scores[first..=last]
                    .iter()
                    .map(|w| w.amplitude)
                    .fold(f64::NEG_INFINITY, f64::max);
                out.push(Episode {
                    start: scores[first].start,
                    end: scores[last].end,
                    peak_amplitude: peak,
                });
            }
        }
    };
    for (i, w) in scores.iter().enumerate() {
        if w.amplitude >= cfg.amp_threshold {
            match &mut run {
                Some((_, last)) => *last = i,
                None => run = Some((i, i)),
            }
        } else {
            flush(&mut run, &mut out);
        }
    }
    flush(&mut run, &mut out);
    out
}

/// Streaming stability scoring of one fixed-interval series: value `i`
/// is window `[i·interval, (i+1)·interval)`'s reading.
///
/// Each complete chunk of [`StabilityConfig::window`] values is scored
/// as it closes; chunk `k` spans `[k·window·interval,
/// (k+1)·window·interval)`. Only the chunk scores and the open chunk's
/// values are kept; an incomplete trailing chunk is not scored.
#[derive(Clone, Debug)]
pub struct StabilityTracker {
    cfg: StabilityConfig,
    interval: Duration,
    /// The open chunk's values, in window order.
    chunk: Vec<f64>,
    /// Completed chunk scores.
    scores: Vec<WindowScore>,
}

impl StabilityTracker {
    /// Creates a tracker over `interval`-wide windows (both `interval`
    /// and `cfg.window` must be nonzero).
    pub fn new(interval: Duration, cfg: StabilityConfig) -> Self {
        assert!(!interval.is_zero(), "window width must be nonzero");
        assert!(cfg.window > 0, "analysis window must be nonzero");
        StabilityTracker {
            cfg,
            interval,
            chunk: Vec::with_capacity(cfg.window),
            scores: Vec::new(),
        }
    }

    /// Feeds the next window's value, scoring the chunk it completes.
    pub fn push(&mut self, value: f64) {
        self.chunk.push(value);
        if self.chunk.len() < self.cfg.window {
            return;
        }
        let sm = mean_std(&self.chunk);
        let span = self.interval.as_micros() * self.cfg.window as u64;
        let k = self.scores.len() as u64;
        self.scores.push(WindowScore {
            start: Time::from_micros(k * span),
            end: Time::from_micros((k + 1) * span),
            amplitude: sm.max - sm.min,
            cv: if sm.mean > 0.0 { sm.std / sm.mean } else { 0.0 },
        });
        self.chunk.clear();
    }

    /// The verdict over the chunks scored so far: chunk amplitudes and
    /// coefficients of variation summarised, plus the sustained episodes.
    pub fn summary(&self) -> Stability {
        let amps: Vec<f64> = self.scores.iter().map(|w| w.amplitude).collect();
        let cvs: Vec<f64> = self.scores.iter().map(|w| w.cv).collect();
        Stability {
            amplitude: mean_std(&amps),
            cv: mean_std(&cvs),
            episodes: detect_episodes(&self.scores, &self.cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tracker(vals: &[f64], cfg: StabilityConfig) -> StabilityTracker {
        let mut tr = StabilityTracker::new(Duration::from_millis(100), cfg);
        for &v in vals {
            tr.push(v);
        }
        tr
    }

    #[test]
    fn window_scores_measure_amplitude_and_cv() {
        // Two complete windows of 4 samples plus an ignored partial one.
        let cfg = StabilityConfig {
            window: 4,
            ..StabilityConfig::default()
        };
        let tr = tracker(&[0.0, 10.0, 0.0, 10.0, 5.0, 5.0, 5.0, 5.0, 99.0], cfg);
        let scores = &tr.scores;
        assert_eq!(scores.len(), 2);
        assert_eq!(scores[0].amplitude, 10.0);
        assert!(scores[0].cv > 0.9, "half-amplitude square wave, cv = 1");
        assert_eq!(scores[1].amplitude, 0.0);
        assert_eq!(scores[1].cv, 0.0);
        assert_eq!(scores[0].start, Time::ZERO);
        assert_eq!(scores[0].end, Time::from_millis(400));
        assert_eq!(scores[1].start, Time::from_millis(400));
    }

    #[test]
    fn episodes_require_sustained_oscillation() {
        let w = |amp: f64, i: u64| WindowScore {
            start: Time::from_millis(i * 100),
            end: Time::from_millis((i + 1) * 100),
            amplitude: amp,
            cv: 0.0,
        };
        let cfg = StabilityConfig {
            window: 1,
            amp_threshold: 10.0,
            min_windows: 3,
        };
        // hot, hot — too short; then hot×3 — an episode; trailing hot×4
        // closed by end-of-series — another.
        let scores = vec![
            w(15.0, 0),
            w(12.0, 1),
            w(1.0, 2),
            w(11.0, 3),
            w(30.0, 4),
            w(10.0, 5),
            w(0.0, 6),
            w(20.0, 7),
            w(21.0, 8),
            w(22.0, 9),
            w(23.0, 10),
        ];
        let eps = detect_episodes(&scores, &cfg);
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].start, Time::from_millis(300));
        assert_eq!(eps[0].end, Time::from_millis(600));
        assert_eq!(eps[0].peak_amplitude, 30.0);
        assert_eq!(eps[1].start, Time::from_millis(700));
        assert_eq!(eps[1].end, Time::from_millis(1100));
        assert_eq!(eps[1].peak_amplitude, 23.0);
    }

    #[test]
    fn tracker_separates_square_wave_from_flat() {
        let turbulent: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 2.0 } else { 48.0 })
            .collect();
        let flat: Vec<f64> = (0..200).map(|i| 5.0 + (i % 3) as f64).collect();
        let cfg = StabilityConfig::default();
        let t = tracker(&turbulent, cfg).summary();
        let f = tracker(&flat, cfg).summary();
        assert!(!t.episodes.is_empty(), "square wave must form an episode");
        assert!(f.episodes.is_empty(), "±1 jitter must not");
        assert!(t.amplitude.mean > f.amplitude.mean);
        assert!(t.cv.mean > f.cv.mean);
        // One maximal run covering the whole scored span.
        assert_eq!(t.episodes.len(), 1);
        assert_eq!(t.episodes[0].start, Time::ZERO);
        assert_eq!(t.episodes[0].end, Time::from_millis(100 * 200));
    }

    /// The batch form of the scoring: the series as one slice, cut into
    /// complete chunks of `cfg.window` values, chunk `k` starting at
    /// window `k·cfg.window`.
    fn batch(vals: &[f64], interval: Duration, cfg: &StabilityConfig) -> Stability {
        let at = |window: usize| Time::from_micros(window as u64 * interval.as_micros());
        let scores: Vec<WindowScore> = vals
            .chunks_exact(cfg.window)
            .enumerate()
            .map(|(k, chunk)| {
                let min = chunk.iter().copied().fold(f64::INFINITY, f64::min);
                let max = chunk.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let sm = mean_std(chunk);
                WindowScore {
                    start: at(k * cfg.window),
                    end: at((k + 1) * cfg.window),
                    amplitude: max - min,
                    cv: if sm.mean > 0.0 { sm.std / sm.mean } else { 0.0 },
                }
            })
            .collect();
        let amps: Vec<f64> = scores.iter().map(|w| w.amplitude).collect();
        let cvs: Vec<f64> = scores.iter().map(|w| w.cv).collect();
        Stability {
            amplitude: mean_std(&amps),
            cv: mean_std(&cvs),
            episodes: detect_episodes(&scores, cfg),
        }
    }

    proptest! {
        /// The streaming tracker scores bit for bit what the batch form
        /// scores over the whole series, for any length — a multiple of
        /// the chunk or not — and any chunk, threshold and run length.
        #[test]
        fn tracker_matches_the_batch_scoring(
            vals in prop::collection::vec(0u32..60, 0..300),
            halves in any::<bool>(),
            window in 1usize..25,
            amp_threshold in 0.0..12.0f64,
            min_windows in 1usize..5,
            interval_us in 1u64..1_000_000,
        ) {
            // Whole packets, as queue depths are, or halves of them.
            let scale = if halves { 0.5 } else { 1.0 };
            let vals: Vec<f64> = vals.iter().map(|&v| f64::from(v) * scale).collect();
            let cfg = StabilityConfig { window, amp_threshold, min_windows };
            let interval = Duration::from_micros(interval_us);
            let mut tr = StabilityTracker::new(interval, cfg);
            for &v in &vals {
                tr.push(v);
            }
            prop_assert_eq!(tr.scores.len(), vals.len() / window);
            // Debug text tells -0.0 from 0.0, so this is bit equality.
            prop_assert_eq!(
                format!("{:?}", tr.summary()),
                format!("{:?}", batch(&vals, interval, &cfg))
            );
        }
    }
}
