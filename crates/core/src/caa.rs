//! The Channel Access Adaptation (§3.3, Algorithm 1).
//!
//! Every `SAMPLES` BOE estimates, the CAA compares their average `b̄`
//! against the thresholds:
//!
//! * `b̄ > b_max` — the successor is over-utilized. `countup` increments;
//!   when it reaches `log2(cw)`, `cw` doubles (bounded by `MAX_CW`).
//! * `b̄ < b_min` — the successor is under-utilized. `countdown`
//!   increments; when it reaches `15 − log2(cw)`, `cw` halves (bounded by
//!   `MIN_CW`). The 15 is `log2(MAX_CW)`.
//! * otherwise — the sweet spot; both counters reset.
//!
//! The counter thresholds are the paper's inter-flow fairness device: a
//! node already at a *high* window reacts quickly to under-utilization and
//! sluggishly to over-utilization, and vice versa, so competing nodes
//! converge instead of oscillating in lockstep.

use crate::config::{EzFlowConfig, MAX_CW, MIN_CW, SAMPLES};

/// Outcome of feeding one sample to [`Caa::on_sample`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaaDecision {
    /// Not enough samples yet, or thresholds not crossed persistently.
    Hold,
    /// The contention window was doubled to the contained value.
    Increase(u32),
    /// The contention window was halved to the contained value.
    Decrease(u32),
}

/// A completed averaging round: its decision with every input Algorithm 1
/// saw. [`Caa::on_sample`] returns one from the sample that completes the
/// round, so an audit layer can explain *why* the window moved (or held):
/// which threshold was armed, how charged the counters were, and what the
/// average actually was.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CaaRound {
    /// What the round did to the window.
    pub decision: CaaDecision,
    /// The averaged BOE estimate the round decided on.
    pub avg: f64,
    /// `CWmin` when the round began.
    pub cw_before: u32,
    /// `CWmin` after the round (equal to `cw_before` on a hold).
    pub cw_after: u32,
    /// Over-utilization charge *entering* the round. A fired increase
    /// means this round charged it to `up_threshold` (the counters reset
    /// on a decision, so the post-round value would always read zero).
    pub countup: u32,
    /// Under-utilization charge entering the round.
    pub countdown: u32,
    /// Rounds of sustained over-utilization needed to double:
    /// `log2(cw_before)`.
    pub up_threshold: u32,
    /// Rounds of sustained under-utilization needed to halve:
    /// `15 − log2(cw_before)`.
    pub down_threshold: u32,
}

/// Per-successor CAA state.
#[derive(Clone, Debug)]
pub struct Caa {
    cfg: EzFlowConfig,
    cw: u32,
    sum: f64,
    count: usize,
    countup: u32,
    countdown: u32,
    /// Diagnostics: averaging rounds completed.
    pub rounds: u64,
    /// Diagnostics: completed averages that doubled the window.
    pub increases: u64,
    /// Diagnostics: completed averages that halved the window.
    pub decreases: u64,
    /// Diagnostics: completed averages that left the window unchanged
    /// (counter still charging, comfortable zone, or clamped at a bound).
    pub holds: u64,
}

impl Caa {
    /// Creates a CAA starting at window `initial_cw`.
    pub fn new(cfg: EzFlowConfig, initial_cw: u32) -> Self {
        assert!(initial_cw.is_power_of_two(), "cw must be a power of two");
        Caa {
            cfg,
            cw: initial_cw.clamp(MIN_CW, cfg.effective_max_cw()),
            sum: 0.0,
            count: 0,
            countup: 0,
            countdown: 0,
            rounds: 0,
            increases: 0,
            decreases: 0,
            holds: 0,
        }
    }

    /// Current `CWmin`.
    pub fn cw(&self) -> u32 {
        self.cw
    }

    /// `log2(cw)` — the quantity the paper's counter thresholds use.
    fn log_cw(&self) -> u32 {
        self.cw.trailing_zeros()
    }

    /// Feeds one buffer-occupancy sample from the BOE; the sample that
    /// completes an averaging round returns the round, with Algorithm 1's
    /// decision on its average.
    pub fn on_sample(&mut self, b: usize) -> Option<CaaRound> {
        self.sum += b as f64;
        self.count += 1;
        if self.count < SAMPLES {
            return None;
        }
        let avg = self.sum / self.count as f64;
        self.sum = 0.0;
        self.count = 0;
        self.rounds += 1;
        let cw_before = self.cw;
        let up_threshold = self.log_cw();
        let down_threshold = MAX_CW.ilog2().saturating_sub(self.log_cw());
        let countup = self.countup;
        let countdown = self.countdown;
        let decision = self.decide(avg);
        match decision {
            CaaDecision::Increase(_) => self.increases += 1,
            CaaDecision::Decrease(_) => self.decreases += 1,
            CaaDecision::Hold => self.holds += 1,
        }
        Some(CaaRound {
            decision,
            avg,
            cw_before,
            cw_after: self.cw,
            countup,
            countdown,
            up_threshold,
            down_threshold,
        })
    }

    fn decide(&mut self, avg: f64) -> CaaDecision {
        if avg > self.cfg.b_max {
            self.countdown = 0;
            self.countup += 1;
            if self.countup >= self.log_cw() {
                self.countup = 0;
                let next = (self.cw * 2).min(self.cfg.effective_max_cw());
                if next != self.cw {
                    self.cw = next;
                    return CaaDecision::Increase(self.cw);
                }
            }
            CaaDecision::Hold
        } else if avg < self.cfg.b_min {
            self.countup = 0;
            self.countdown += 1;
            if self.countdown >= MAX_CW.ilog2().saturating_sub(self.log_cw()) {
                self.countdown = 0;
                let next = (self.cw / 2).max(MIN_CW);
                if next != self.cw {
                    self.cw = next;
                    return CaaDecision::Decrease(self.cw);
                }
            }
            CaaDecision::Hold
        } else {
            self.countup = 0;
            self.countdown = 0;
            CaaDecision::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caa(cw: u32) -> Caa {
        Caa::new(EzFlowConfig::default(), cw)
    }

    /// Feeds a full averaging round of identical samples.
    fn full_round(c: &mut Caa, b: usize) -> CaaRound {
        for _ in 0..49 {
            assert_eq!(c.on_sample(b), None, "round still averaging");
        }
        c.on_sample(b).expect("the 50th sample completes the round")
    }

    /// The decision of a full averaging round of identical samples.
    fn round(c: &mut Caa, b: usize) -> CaaDecision {
        full_round(c, b).decision
    }

    #[test]
    fn needs_a_full_round_before_deciding() {
        let mut c = caa(32);
        for _ in 0..49 {
            assert_eq!(c.on_sample(100), None);
        }
        assert_eq!(c.rounds, 0);
        assert!(c.on_sample(100).is_some());
        assert_eq!(c.rounds, 1);
    }

    #[test]
    fn overutilization_doubles_after_log_cw_rounds() {
        // cw = 32: log2 = 5, so 5 consecutive over-threshold averages.
        let mut c = caa(32);
        for i in 1..=4 {
            assert_eq!(round(&mut c, 30), CaaDecision::Hold, "round {i}");
        }
        assert_eq!(round(&mut c, 30), CaaDecision::Increase(64));
        // Higher cw -> slower to increase again: now needs 6 rounds.
        for i in 1..=5 {
            assert_eq!(round(&mut c, 30), CaaDecision::Hold, "round {i}");
        }
        assert_eq!(round(&mut c, 30), CaaDecision::Increase(128));
        assert_eq!(c.increases, 2);
        assert_eq!(c.decreases, 0);
        assert_eq!(c.holds, 9);
        assert_eq!(c.rounds, c.increases + c.decreases + c.holds);
    }

    #[test]
    fn underutilization_halves_after_15_minus_log_cw_rounds() {
        // cw = 1024: log2 = 10, so 5 consecutive empty averages halve it.
        let mut c = caa(1024);
        for i in 1..=4 {
            assert_eq!(round(&mut c, 0), CaaDecision::Hold, "round {i}");
        }
        assert_eq!(round(&mut c, 0), CaaDecision::Decrease(512));
        // Lower cw -> slower to decrease again: needs 6 rounds now.
        for i in 1..=5 {
            assert_eq!(round(&mut c, 0), CaaDecision::Hold, "round {i}");
        }
        assert_eq!(round(&mut c, 0), CaaDecision::Decrease(256));
    }

    #[test]
    fn high_cw_reacts_faster_to_underutilization_than_low_cw() {
        // The paper's fairness property, directly.
        let rounds_to_decrease = |start: u32| {
            let mut c = caa(start);
            let mut n = 0;
            loop {
                n += 1;
                if matches!(round(&mut c, 0), CaaDecision::Decrease(_)) {
                    return n;
                }
                assert!(n < 100);
            }
        };
        assert!(rounds_to_decrease(8192) < rounds_to_decrease(64));
    }

    #[test]
    fn comfortable_zone_resets_counters() {
        let mut c = caa(32);
        round(&mut c, 30);
        round(&mut c, 30); // countup = 2
        round(&mut c, 10); // in (b_min, b_max): reset
        for i in 1..=4 {
            assert_eq!(round(&mut c, 30), CaaDecision::Hold, "round {i}");
        }
        assert_eq!(round(&mut c, 30), CaaDecision::Increase(64));
    }

    #[test]
    fn mixed_signals_reset_the_opposite_counter() {
        let mut c = caa(32);
        round(&mut c, 30); // countup = 1
        round(&mut c, 0); // countdown = 1, countup reset
        for i in 1..=4 {
            assert_eq!(round(&mut c, 30), CaaDecision::Hold, "round {i}");
        }
        assert_eq!(round(&mut c, 30), CaaDecision::Increase(64));
    }

    #[test]
    fn clamps_at_bounds() {
        let mut c = caa(32768);
        for _ in 0..100 {
            assert_eq!(round(&mut c, 50), CaaDecision::Hold, "cannot exceed max");
        }
        assert_eq!(c.cw(), 32768);
        let mut c = caa(16);
        for _ in 0..100 {
            assert_eq!(round(&mut c, 0), CaaDecision::Hold, "cannot go below min");
        }
        assert_eq!(c.cw(), 16);
    }

    #[test]
    fn hardware_cap_limits_increase() {
        let mut c = Caa::new(EzFlowConfig::testbed(), 512);
        // 512 -> 1024 takes 9 rounds (log2(512) = 9).
        let mut grew = false;
        for _ in 0..9 {
            if matches!(round(&mut c, 40), CaaDecision::Increase(1024)) {
                grew = true;
            }
        }
        assert!(grew);
        for _ in 0..50 {
            assert_eq!(round(&mut c, 40), CaaDecision::Hold, "capped at 2^10");
        }
        assert_eq!(c.cw(), 1024);
    }

    #[test]
    fn completed_round_records_inputs_and_thresholds() {
        let mut c = caa(32);
        // First over-threshold round: entered uncharged, window holds.
        let r = full_round(&mut c, 30);
        assert_eq!(r.decision, CaaDecision::Hold);
        assert_eq!(r.avg, 30.0);
        assert_eq!((r.cw_before, r.cw_after), (32, 32));
        assert_eq!((r.countup, r.countdown), (0, 0), "charge entering");
        assert_eq!((r.up_threshold, r.down_threshold), (5, 10));
        // Three more holds, then the doubling round.
        for _ in 0..3 {
            round(&mut c, 30);
        }
        let r = full_round(&mut c, 30);
        assert_eq!(r.decision, CaaDecision::Increase(64));
        assert_eq!((r.cw_before, r.cw_after), (32, 64));
        assert_eq!(r.countup, 4, "entered charged 4/5; this round fired");
        assert_eq!(r.up_threshold, 5, "threshold from the window at entry");
    }

    #[test]
    fn fractional_b_min_requires_almost_all_zero_samples() {
        // b_min = 0.05 with 50 samples: even 3 samples of 1 packet push
        // the average to 0.06 > b_min.
        let mut c = caa(64);
        for _ in 0..20 {
            let mut last = None;
            for i in 0..50 {
                last = c.on_sample(if i < 3 { 1 } else { 0 });
            }
            assert_eq!(last.map(|r| r.decision), Some(CaaDecision::Hold));
        }
        assert_eq!(c.cw(), 64);
    }
}
