//! EZ-flow as a [`Controller`]: the glue between BOE, CAA and the MAC.

use ezflow_mac::CW_MIN_DEFAULT;
use ezflow_net::controller::{
    BoeReading, Controller, ControllerCounters, ControllerEvent, DecisionKind, DecisionRecord,
    Reaction,
};
use ezflow_sim::Time;

use crate::boe::Boe;
use crate::caa::{Caa, CaaDecision};
use crate::config::{EzFlowConfig, HISTORY};

/// The EZ-flow program running at one node.
///
/// One (BOE, CAA) pair is kept per successor, created lazily the first
/// time a frame is acknowledged by that successor — the controller
/// discovers its successors from traffic, it is never configured with
/// topology knowledge.
///
/// When several successors exist, two mechanisms cooperate, mirroring the
/// refinement the paper's §7 sketches on top of the four 802.11e hardware
/// queues: [`Controller::queue_window`] exposes one window per successor,
/// which the network layer programs for each frame right before it enters
/// the MAC (so the head-of-line frame always contends with its own
/// branch's window); and between frames the node-global `CWmin` falls back
/// to the **maximum** over the per-successor windows — the most congested
/// branch governs, erring on the side of stability. On the paper's line
/// topologies (one successor per node) both mechanisms coincide.
///
/// One special case deserves a note: when the successor *is* the flow's
/// final destination, the successor never forwards, so there is nothing to
/// overhear. But the node also knows — from the ACK alone, still without
/// any message passing — that a delivered packet leaves the buffer
/// immediately (the sink consumes it). The controller therefore feeds the
/// CAA a zero sample per acknowledged packet for sink successors, which is
/// exactly what the testbed's last relay observes.
pub struct EzFlowController {
    cfg: EzFlowConfig,
    /// `(successor, BOE, CAA)` in the order the successors were first
    /// seen. An assoc list, not a map: it is probed on every overheard
    /// frame, ACK and queue-window read, a node has a handful of
    /// successors (one on a line), and every read of it is order-free.
    per_succ: Vec<(usize, Boe, Caa)>,
}

impl EzFlowController {
    /// Creates the controller. Each CAA starts at the MAC's initial
    /// `CWmin` ([`CW_MIN_DEFAULT`]), so its bookkeeping starts aligned
    /// with the hardware.
    pub fn new(cfg: EzFlowConfig) -> Self {
        EzFlowController {
            cfg,
            per_succ: Vec::new(),
        }
    }

    /// Defaults: the paper's simulation parameters.
    pub fn with_defaults() -> Self {
        Self::new(EzFlowConfig::default())
    }

    /// Where the successor sits in `per_succ`, if it has been seen.
    fn slot(&self, successor: usize) -> Option<usize> {
        self.per_succ.iter().position(|(s, ..)| *s == successor)
    }

    /// Where the successor sits in `per_succ`; its estimator pair is
    /// created the first time it is seen.
    fn entry(&mut self, successor: usize) -> usize {
        self.slot(successor).unwrap_or_else(|| {
            let (boe, caa) = (Boe::new(HISTORY), Caa::new(self.cfg, CW_MIN_DEFAULT));
            self.per_succ.push((successor, boe, caa));
            self.per_succ.len() - 1
        })
    }

    /// The effective window: max over successors (see type docs).
    fn effective_cw(&self) -> Option<u32> {
        self.per_succ.iter().map(|(_, _, caa)| caa.cw()).max()
    }

    /// Current per-successor windows (diagnostics / experiments).
    pub fn windows(&self) -> Vec<(usize, u32)> {
        let mut v: Vec<(usize, u32)> = self
            .per_succ
            .iter()
            .map(|(s, _, caa)| (*s, caa.cw()))
            .collect();
        v.sort_unstable();
        v
    }

    /// Feeds one occupancy sample to the CAA at `per_succ[at]`. A round
    /// that moves the window yields the node's new effective window and
    /// the round's decision record.
    fn sample(&mut self, at: usize, b: usize) -> Reaction {
        let (successor, _, caa) = &mut self.per_succ[at];
        let Some(r) = caa.on_sample(b) else {
            return Reaction::default();
        };
        let kind = match r.decision {
            CaaDecision::Hold => return Reaction::default(),
            CaaDecision::Increase(_) => DecisionKind::Increase,
            CaaDecision::Decrease(_) => DecisionKind::Decrease,
        };
        let decision = DecisionRecord {
            kind,
            successor: Some(*successor),
            avg: r.avg,
            countup: r.countup,
            countdown: r.countdown,
            up_threshold: r.up_threshold,
            down_threshold: r.down_threshold,
            cw_before: r.cw_before,
            cw_after: r.cw_after,
        };
        Reaction {
            cw: self.effective_cw(),
            boe: None,
            decision: Some(decision),
        }
    }
}

impl Controller for EzFlowController {
    fn on_event(&mut self, _now: Time, event: ControllerEvent<'_>) -> Reaction {
        match event {
            ControllerEvent::SentToSuccessor { successor, frame } => {
                let at = self.entry(successor);
                if successor == frame.final_dst {
                    // The ACK certifies delivery; the sink's buffer is
                    // empty by definition.
                    self.sample(at, 0)
                } else {
                    self.per_succ[at].1.on_sent(frame.checksum);
                    Reaction::default()
                }
            }
            ControllerEvent::Overheard { frame } => {
                // Only forwards *by one of our successors* carry
                // information; everything else on the air is ignored.
                let Some(at) = self.slot(frame.src) else {
                    return Reaction::default();
                };
                let (verdict, b) = self.per_succ[at].1.on_overheard(frame.checksum);
                let mut reaction = match b {
                    Some(b) => self.sample(at, b),
                    None => Reaction::default(),
                };
                reaction.boe = Some(BoeReading {
                    successor: frame.src,
                    verdict,
                    estimate: b.map(|b| b as u32),
                });
                reaction
            }
        }
    }

    fn name(&self) -> &'static str {
        "ez-flow"
    }

    /// §7 extension: expose the per-successor window so nodes with
    /// several successors adapt each queue independently (802.11e-style)
    /// instead of max-combining into a single `CWmin`.
    fn queue_window(&self, successor: usize) -> Option<u32> {
        self.slot(successor).map(|at| self.per_succ[at].2.cw())
    }

    /// Sums the BOE/CAA diagnostics across all successors.
    fn counters(&self) -> ControllerCounters {
        let mut c = ControllerCounters::default();
        for (_, boe, caa) in &self.per_succ {
            c.boe_hits += boe.samples_produced;
            c.boe_misses += boe.misses;
            c.boe_ambiguous += boe.ambiguous;
            c.caa_increases += caa.increases;
            c.caa_decreases += caa.decreases;
            c.caa_holds += caa.holds;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezflow_net::lifecycle::BoeVerdict;
    use ezflow_phy::Frame;

    fn frame(seq: u64, src: usize, dst: usize, final_dst: usize) -> Frame {
        let mut f = Frame::data(seq, 0, 0, final_dst, 1000, Time::ZERO);
        f.src = src;
        f.dst = dst;
        f
    }

    /// Drives one node's controller as if it were node 1 of a chain
    /// 0->1->2->3->4, sending to successor 2 and overhearing 2's forwards.
    #[test]
    fn boe_caa_loop_raises_cw_under_congestion() {
        let mut c = EzFlowController::with_defaults();
        let mut seq = 0u64;
        let mut cw = 32;
        // Successor 2 always holds 30 packets: we send packet s, and by
        // the time we overhear it, 30 more of ours sit behind it.
        let mut outstanding: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        for _ in 0..30 {
            c.on_event(
                Time::ZERO,
                ControllerEvent::SentToSuccessor {
                    successor: 2,
                    frame: &frame(seq, 1, 2, 4),
                },
            );
            outstanding.push_back(seq);
            seq += 1;
        }
        for _ in 0..2000 {
            // Send one, overhear the oldest outstanding.
            c.on_event(
                Time::ZERO,
                ControllerEvent::SentToSuccessor {
                    successor: 2,
                    frame: &frame(seq, 1, 2, 4),
                },
            );
            outstanding.push_back(seq);
            seq += 1;
            let fwd = outstanding.pop_front().unwrap();
            if let Some(new_cw) = c
                .on_event(
                    Time::ZERO,
                    ControllerEvent::Overheard {
                        frame: &frame(fwd, 2, 3, 4),
                    },
                )
                .cw
            {
                assert!(new_cw > cw, "congestion must only raise cw");
                cw = new_cw;
            }
        }
        assert!(cw >= 128, "sustained b=30 > b_max must raise cw, got {cw}");
        let counters = c.counters();
        assert!(counters.boe_hits > 1000);
        assert!(counters.caa_increases >= 2, "cw rose at least 32->128");
        assert_eq!(counters.caa_decreases, 0);
        assert!(counters.caa_holds > 0);
    }

    #[test]
    fn empty_successor_drives_cw_to_minimum() {
        let mut c = EzFlowController::with_defaults();
        let mut cw = 32;
        // Successor forwards immediately: every overheard packet is the
        // one we just sent -> b = 0.
        for seq in 0..20_000u64 {
            c.on_event(
                Time::ZERO,
                ControllerEvent::SentToSuccessor {
                    successor: 2,
                    frame: &frame(seq, 1, 2, 4),
                },
            );
            if let Some(new_cw) = c
                .on_event(
                    Time::ZERO,
                    ControllerEvent::Overheard {
                        frame: &frame(seq, 2, 3, 4),
                    },
                )
                .cw
            {
                cw = new_cw;
            }
        }
        assert_eq!(cw, 16, "idle successor must drive cw to mincw");
    }

    #[test]
    fn sink_successor_uses_ack_as_zero_sample() {
        let mut c = EzFlowController::with_defaults();
        let mut cw = 32;
        for seq in 0..20_000u64 {
            // Successor 4 IS the final destination.
            if let Some(new_cw) = c
                .on_event(
                    Time::ZERO,
                    ControllerEvent::SentToSuccessor {
                        successor: 4,
                        frame: &frame(seq, 3, 4, 4),
                    },
                )
                .cw
            {
                cw = new_cw;
            }
        }
        assert_eq!(cw, 16);
    }

    #[test]
    fn audit_hooks_expose_estimates_and_decisions() {
        let mut c = EzFlowController::with_defaults();
        // Immediate forward: estimate b = 0 for successor 2.
        let sent = c.on_event(
            Time::ZERO,
            ControllerEvent::SentToSuccessor {
                successor: 2,
                frame: &frame(0, 1, 2, 4),
            },
        );
        assert_eq!(sent, Reaction::default(), "a send alone reads nothing");
        let r = c.on_event(
            Time::ZERO,
            ControllerEvent::Overheard {
                frame: &frame(0, 2, 3, 4),
            },
        );
        let hit = BoeReading {
            successor: 2,
            verdict: BoeVerdict::Hit,
            estimate: Some(0),
        };
        assert_eq!(r.boe, Some(hit));
        // Keep the successor idle until the first halving; the decision
        // record must carry Algorithm 1's state for that round.
        let mut r = Reaction::default();
        for seq in 1..20_000u64 {
            c.on_event(
                Time::ZERO,
                ControllerEvent::SentToSuccessor {
                    successor: 2,
                    frame: &frame(seq, 1, 2, 4),
                },
            );
            r = c.on_event(
                Time::ZERO,
                ControllerEvent::Overheard {
                    frame: &frame(seq, 2, 3, 4),
                },
            );
            assert_eq!(r.boe, Some(hit), "every immediate forward reads 0");
            if r.cw.is_some() {
                break;
            }
            assert_eq!(r.decision, None, "holds record no decision");
        }
        assert_eq!(r.cw, Some(16));
        let d = r.decision.expect("halving recorded");
        assert_eq!(d.kind, DecisionKind::Decrease);
        assert_eq!(d.successor, Some(2));
        assert_eq!((d.cw_before, d.cw_after), (32, 16));
        assert_eq!(d.avg, 0.0);
        assert_eq!(d.down_threshold, 10, "15 - log2(32)");
    }

    #[test]
    fn ambiguous_overhearing_reads_the_most_recent_match() {
        let mut c = EzFlowController::with_defaults();
        // Two sends whose checksums collide, then a third send after them.
        for (seq, ck) in [(0u64, 77u16), (1, 77), (2, 5)] {
            let mut f = frame(seq, 1, 2, 4);
            f.checksum = ck;
            c.on_event(
                Time::ZERO,
                ControllerEvent::SentToSuccessor {
                    successor: 2,
                    frame: &f,
                },
            );
        }
        let mut fwd = frame(0, 2, 3, 4);
        fwd.checksum = 77;
        let r = c.on_event(Time::ZERO, ControllerEvent::Overheard { frame: &fwd });
        // The most recent '77' has one send (checksum 5) behind it.
        let reading = BoeReading {
            successor: 2,
            verdict: BoeVerdict::Ambiguous,
            estimate: Some(1),
        };
        assert_eq!(r.boe, Some(reading));
        let n = c.counters();
        assert_eq!((n.boe_hits, n.boe_ambiguous, n.boe_misses), (1, 1, 0));
        // Both '77's are pruned: the same forward again is a miss, and the
        // estimator counts it.
        let r = c.on_event(Time::ZERO, ControllerEvent::Overheard { frame: &fwd });
        let miss = BoeReading {
            verdict: BoeVerdict::Miss,
            estimate: None,
            ..reading
        };
        assert_eq!(r.boe, Some(miss));
        assert_eq!(c.counters().boe_misses, 1);
    }

    #[test]
    fn frames_from_strangers_are_ignored() {
        let mut c = EzFlowController::with_defaults();
        c.on_event(
            Time::ZERO,
            ControllerEvent::SentToSuccessor {
                successor: 2,
                frame: &frame(1, 1, 2, 4),
            },
        );
        // Node 7 is not our successor; nothing should happen.
        assert_eq!(
            c.on_event(
                Time::ZERO,
                ControllerEvent::Overheard {
                    frame: &frame(1, 7, 8, 9),
                },
            ),
            Reaction::default()
        );
        assert_eq!(c.counters().boe_hits, 0);
        assert_eq!(c.windows(), vec![(2, 32)]);
    }

    #[test]
    fn multi_successor_takes_the_max_window() {
        let mut c = EzFlowController::with_defaults();
        // Successor 2 congested (sink-style shortcut: use successor 9 as a
        // sink to drive its window down, successor 2 up).
        let mut outstanding = std::collections::VecDeque::new();
        let mut seq = 0u64;
        for _ in 0..30 {
            c.on_event(
                Time::ZERO,
                ControllerEvent::SentToSuccessor {
                    successor: 2,
                    frame: &frame(seq, 1, 2, 4),
                },
            );
            outstanding.push_back(seq);
            seq += 1;
        }
        let mut last = None;
        for _ in 0..5000 {
            c.on_event(
                Time::ZERO,
                ControllerEvent::SentToSuccessor {
                    successor: 2,
                    frame: &frame(seq, 1, 2, 4),
                },
            );
            outstanding.push_back(seq);
            seq += 1;
            let fwd = outstanding.pop_front().unwrap();
            let heard = c.on_event(
                Time::ZERO,
                ControllerEvent::Overheard {
                    frame: &frame(fwd, 2, 3, 4),
                },
            );
            // Sink successor 9, empty.
            let acked = c.on_event(
                Time::ZERO,
                ControllerEvent::SentToSuccessor {
                    successor: 9,
                    frame: &frame(seq, 1, 9, 9),
                },
            );
            last = acked.cw.or(heard.cw).or(last);
            seq += 1;
        }
        let windows = c.windows();
        let w2 = windows.iter().find(|(s, _)| *s == 2).unwrap().1;
        let w9 = windows.iter().find(|(s, _)| *s == 9).unwrap().1;
        assert!(w2 > w9, "congested branch must have the larger window");
        assert_eq!(last, Some(w2.max(w9)), "MAC gets the max");
    }
}
