//! Estimation-accuracy tracking for the BOE ground-truth audit.
//!
//! The paper argues the Buffer Occupancy Estimator is *exact* on a clean
//! channel: FIFO queues make "checksums stored after the overheard one"
//! precisely the successor's occupancy. This module measures how far a
//! deployment strays from that ideal. An [`EstimationTracker`] consumes
//! `(time, estimate, truth)` triples for one (node → successor) link and
//! maintains streaming error statistics — signed bias, mean absolute
//! error, worst divergence — plus *sustained-divergence episodes*: the
//! sample stream is chopped into chunks of [`StabilityConfig::window`]
//! samples, each chunk scored by its largest absolute error, and the
//! chunk scores are fed through the same
//! [`crate::stability::detect_episodes`] run-length machinery that finds
//! queue-oscillation episodes in telemetry series. Chunk timestamps are
//! the real first/last sample times, so episodes line up with the rest
//! of a run's timeline.
//!
//! Everything is a pure function of the fed samples — deterministic for
//! deterministic runs.

use ezflow_sim::Time;

use crate::stability::{detect_episodes, Episode, StabilityConfig, WindowScore};

/// Streaming per-link estimation-error statistics.
///
/// Constant memory per sample: only the per-chunk scores are retained
/// (one entry per [`StabilityConfig::window`] samples).
#[derive(Clone, Debug)]
pub struct EstimationTracker {
    cfg: StabilityConfig,
    samples: u64,
    sum_err: f64,
    sum_abs: f64,
    max_abs: f64,
    /// Samples accumulated into the current chunk.
    chunk_len: usize,
    /// Timestamp of the current chunk's first sample.
    chunk_start: Time,
    /// Largest absolute error seen inside the current chunk.
    chunk_max_abs: f64,
    /// Completed chunk scores (amplitude = max |error| in the chunk).
    scores: Vec<WindowScore>,
}

/// Summary of one link's estimation accuracy.
#[derive(Clone, Debug, PartialEq)]
pub struct EstimationSummary {
    /// Samples observed.
    pub samples: u64,
    /// Mean signed error (estimate − truth): positive when the estimator
    /// over-counts the successor's queue.
    pub bias: f64,
    /// Mean absolute error.
    pub mae: f64,
    /// Largest absolute error ever observed.
    pub max_abs: f64,
    /// Sustained-divergence episodes (runs of high-error chunks), in
    /// time order.
    pub episodes: Vec<Episode>,
}

impl EstimationTracker {
    /// Creates a tracker; `cfg.window` samples form one divergence chunk
    /// and `cfg.amp_threshold` packets of absolute error make a chunk
    /// "divergent" (see [`StabilityConfig`]).
    pub fn new(cfg: StabilityConfig) -> Self {
        assert!(cfg.window > 0, "divergence chunk must be nonzero");
        EstimationTracker {
            cfg,
            samples: 0,
            sum_err: 0.0,
            sum_abs: 0.0,
            max_abs: 0.0,
            chunk_len: 0,
            chunk_start: Time::ZERO,
            chunk_max_abs: 0.0,
            scores: Vec::new(),
        }
    }

    /// Feeds one `(estimate, truth)` observation taken at `at`.
    pub fn on_sample(&mut self, at: Time, estimate: u32, truth: u32) {
        let err = estimate as f64 - truth as f64;
        self.samples += 1;
        self.sum_err += err;
        self.sum_abs += err.abs();
        self.max_abs = self.max_abs.max(err.abs());
        if self.chunk_len == 0 {
            self.chunk_start = at;
            self.chunk_max_abs = 0.0;
        }
        self.chunk_max_abs = self.chunk_max_abs.max(err.abs());
        self.chunk_len += 1;
        if self.chunk_len == self.cfg.window {
            self.scores.push(WindowScore {
                start: self.chunk_start,
                end: at,
                amplitude: self.chunk_max_abs,
                cv: 0.0,
            });
            self.chunk_len = 0;
        }
    }

    /// Samples observed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Completed divergence chunks scored so far.
    pub fn chunks(&self) -> usize {
        self.scores.len()
    }

    /// The summary over everything fed so far. The trailing incomplete
    /// chunk (fewer than `cfg.window` samples) contributes to the scalar
    /// statistics but not to episode detection, mirroring
    /// [`crate::stability::StabilityTracker`].
    pub fn summary(&self) -> EstimationSummary {
        let n = self.samples as f64;
        EstimationSummary {
            samples: self.samples,
            bias: if self.samples > 0 {
                self.sum_err / n
            } else {
                0.0
            },
            mae: if self.samples > 0 {
                self.sum_abs / n
            } else {
                0.0
            },
            max_abs: self.max_abs,
            episodes: detect_episodes(&self.scores, &self.cfg),
        }
    }
}

impl Default for EstimationTracker {
    fn default() -> Self {
        Self::new(StabilityConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn exact_estimates_report_zero_error_and_no_episodes() {
        let mut tr = EstimationTracker::default();
        for i in 0..500u64 {
            tr.on_sample(t(i * 10), (i % 7) as u32, (i % 7) as u32);
        }
        let s = tr.summary();
        assert_eq!(s.samples, 500);
        assert_eq!(s.bias, 0.0);
        assert_eq!(s.mae, 0.0);
        assert_eq!(s.max_abs, 0.0);
        assert!(s.episodes.is_empty());
    }

    #[test]
    fn sustained_divergence_forms_an_episode_with_real_timestamps() {
        let cfg = StabilityConfig {
            window: 10,
            amp_threshold: 3.0,
            min_windows: 3,
        };
        let mut tr = EstimationTracker::new(cfg);
        // 5 clean chunks, then 4 divergent ones, then clean again.
        for i in 0..50u64 {
            tr.on_sample(t(i * 100), 5, 5);
        }
        for i in 50..90u64 {
            tr.on_sample(t(i * 100), 10, 4); // error +6
        }
        for i in 90..120u64 {
            tr.on_sample(t(i * 100), 5, 5);
        }
        let s = tr.summary();
        assert_eq!(s.episodes.len(), 1);
        let ep = s.episodes[0];
        assert_eq!(ep.start, t(5000), "first divergent sample");
        assert_eq!(ep.end, t(8900), "last sample of the last hot chunk");
        assert_eq!(ep.peak_amplitude, 6.0);
        assert!((s.bias - 6.0 * 40.0 / 120.0).abs() < 1e-12);
        assert_eq!(s.max_abs, 6.0);
    }

    #[test]
    fn bias_is_signed_and_mae_is_not() {
        let mut tr = EstimationTracker::default();
        tr.on_sample(t(0), 10, 12); // -2
        tr.on_sample(t(1), 12, 10); // +2
        let s = tr.summary();
        assert_eq!(s.bias, 0.0);
        assert_eq!(s.mae, 2.0);
        assert_eq!(s.max_abs, 2.0);
    }

    #[test]
    fn short_runs_of_divergence_do_not_count() {
        let cfg = StabilityConfig {
            window: 5,
            amp_threshold: 3.0,
            min_windows: 3,
        };
        let mut tr = EstimationTracker::new(cfg);
        // One bad chunk between good ones: not sustained.
        for i in 0..5u64 {
            tr.on_sample(t(i), 0, 0);
        }
        for i in 5..10u64 {
            tr.on_sample(t(i), 9, 0);
        }
        for i in 10..30u64 {
            tr.on_sample(t(i), 0, 0);
        }
        let s = tr.summary();
        assert!(s.episodes.is_empty());
        assert_eq!(s.max_abs, 9.0);
    }
}
