//! EZ-flow as a [`Controller`]: the glue between BOE, CAA and the MAC.

use ezflow_net::controller::{
    Controller, ControllerCounters, ControllerEvent, DecisionKind, DecisionRecord,
};
use ezflow_sim::Time;

use crate::boe::Boe;
use crate::caa::{Caa, CaaDecision, CaaRound};
use crate::config::EzFlowConfig;

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
    start_cw: u32,
    /// `(successor, BOE, CAA)` in the order the successors were first
    /// seen. An assoc list, not a map: it is probed on every overheard
    /// frame, ACK and queue-window read, a node has a handful of
    /// successors (one on a line), and every read of it is order-free.
    per_succ: Vec<(usize, Boe, Caa)>,
    /// Provenance of the last window-changing CAA round, held until the
    /// engine takes it ([`Controller::take_decision`]). A few Copy words,
    /// stored unconditionally — behaviour never depends on it.
    last_decision: Option<DecisionRecord>,
    /// `(successor, b̂)` of the last overheard-forward estimate, held
    /// until the engine takes it ([`Controller::take_estimate`]).
    last_estimate: Option<(usize, u32)>,
}

impl EzFlowController {
    /// Creates the controller; `start_cw` must equal the MAC's initial
    /// `CWmin` (the 802.11 default, 32) so the CAA's bookkeeping starts
    /// aligned with the hardware.
    pub fn new(cfg: EzFlowConfig, start_cw: u32) -> Self {
        EzFlowController {
            cfg,
            start_cw,
            per_succ: Vec::new(),
            last_decision: None,
            last_estimate: None,
        }
    }

    /// Defaults: paper parameters, 802.11 default window.
    pub fn with_defaults() -> Self {
        Self::new(EzFlowConfig::default(), 32)
    }

    /// Where the successor sits in `per_succ`, if it has been seen.
    fn slot(&self, successor: usize) -> Option<usize> {
        self.per_succ.iter().position(|(s, ..)| *s == successor)
    }

    /// The successor's estimator pair, created the first time it is seen.
    fn entry(&mut self, successor: usize) -> (&mut Boe, &mut Caa) {
        let at = match self.slot(successor) {
            Some(at) => at,
            None => {
                let (boe, caa) = (
                    Boe::new(self.cfg.history),
                    Caa::new(self.cfg, self.start_cw),
                );
                self.per_succ.push((successor, boe, caa));
                self.per_succ.len() - 1
            }
        };
        let (_, boe, caa) = &mut self.per_succ[at];
        (boe, caa)
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

    fn after_decision(&self, decision: CaaDecision) -> Option<u32> {
        match decision {
            CaaDecision::Hold => None,
            CaaDecision::Increase(_) | CaaDecision::Decrease(_) => self.effective_cw(),
        }
    }

    /// Promotes a window-changing CAA round into the pending audit record.
    fn note_round(&mut self, successor: usize, round: Option<CaaRound>, decision: CaaDecision) {
        let kind = match decision {
            CaaDecision::Hold => return,
            CaaDecision::Increase(_) => DecisionKind::Increase,
            CaaDecision::Decrease(_) => DecisionKind::Decrease,
        };
        if let Some(r) = round {
            self.last_decision = Some(DecisionRecord {
                kind,
                successor: Some(successor),
                avg: r.avg,
                countup: r.countup,
                countdown: r.countdown,
                up_threshold: r.up_threshold,
                down_threshold: r.down_threshold,
                cw_before: r.cw_before,
                cw_after: r.cw_after,
            });
        }
    }
}

impl Controller for EzFlowController {
    fn on_event(&mut self, _now: Time, event: ControllerEvent<'_>) -> Option<u32> {
        match event {
            ControllerEvent::SentToSuccessor { successor, frame } => {
                let sink = successor == frame.final_dst;
                let ck = frame.checksum;
                let (boe, caa) = self.entry(successor);
                if sink {
                    // The ACK certifies delivery; the sink's buffer is
                    // empty by definition.
                    let d = caa.on_sample(0);
                    let round = caa.last_round;
                    self.note_round(successor, round, d);
                    self.after_decision(d)
                } else {
                    boe.on_sent(ck);
                    None
                }
            }
            ControllerEvent::Overheard { frame } => {
                // Only forwards *by one of our successors* carry
                // information; everything else on the air is ignored.
                let ck = frame.checksum;
                let src = frame.src;
                let at = self.slot(src)?;
                let (_, boe, caa) = &mut self.per_succ[at];
                match boe.on_overheard(ck) {
                    Some(b) => {
                        let d = caa.on_sample(b);
                        let round = caa.last_round;
                        self.last_estimate = Some((src, b as u32));
                        self.note_round(src, round, d);
                        self.after_decision(d)
                    }
                    None => {
                        boe.on_miss();
                        None
                    }
                }
            }
            // EZ-flow never requests nor uses message passing.
            ControllerEvent::NeighborBacklog { .. } => None,
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

    fn take_decision(&mut self) -> Option<DecisionRecord> {
        self.last_decision.take()
    }

    fn take_estimate(&mut self) -> Option<(usize, u32)> {
        self.last_estimate.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            if let Some(new_cw) = c.on_event(
                Time::ZERO,
                ControllerEvent::Overheard {
                    frame: &frame(fwd, 2, 3, 4),
                },
            ) {
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
            if let Some(new_cw) = c.on_event(
                Time::ZERO,
                ControllerEvent::Overheard {
                    frame: &frame(seq, 2, 3, 4),
                },
            ) {
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
            if let Some(new_cw) = c.on_event(
                Time::ZERO,
                ControllerEvent::SentToSuccessor {
                    successor: 4,
                    frame: &frame(seq, 3, 4, 4),
                },
            ) {
                cw = new_cw;
            }
        }
        assert_eq!(cw, 16);
    }

    #[test]
    fn audit_hooks_expose_estimates_and_decisions() {
        let mut c = EzFlowController::with_defaults();
        assert_eq!(c.take_estimate(), None);
        assert_eq!(c.take_decision(), None);
        // Immediate forward: estimate b = 0 for successor 2.
        c.on_event(
            Time::ZERO,
            ControllerEvent::SentToSuccessor {
                successor: 2,
                frame: &frame(0, 1, 2, 4),
            },
        );
        c.on_event(
            Time::ZERO,
            ControllerEvent::Overheard {
                frame: &frame(0, 2, 3, 4),
            },
        );
        assert_eq!(c.take_estimate(), Some((2, 0)));
        assert_eq!(c.take_estimate(), None, "take clears the slot");
        // Keep the successor idle until the first halving; the decision
        // record must carry Algorithm 1's state for that round.
        let mut cw_cmd = None;
        for seq in 1..20_000u64 {
            c.on_event(
                Time::ZERO,
                ControllerEvent::SentToSuccessor {
                    successor: 2,
                    frame: &frame(seq, 1, 2, 4),
                },
            );
            cw_cmd = c.on_event(
                Time::ZERO,
                ControllerEvent::Overheard {
                    frame: &frame(seq, 2, 3, 4),
                },
            );
            if cw_cmd.is_some() {
                break;
            }
            assert_eq!(c.take_decision(), None, "holds record no decision");
            c.take_estimate();
        }
        assert_eq!(cw_cmd, Some(16));
        let d = c.take_decision().expect("halving recorded");
        assert_eq!(d.kind, DecisionKind::Decrease);
        assert_eq!(d.successor, Some(2));
        assert_eq!((d.cw_before, d.cw_after), (32, 16));
        assert_eq!(d.avg, 0.0);
        assert_eq!(d.down_threshold, 10, "15 - log2(32)");
        assert_eq!(c.take_decision(), None, "take clears the slot");
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
            None
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
            if let Some(cw) = c.on_event(
                Time::ZERO,
                ControllerEvent::Overheard {
                    frame: &frame(fwd, 2, 3, 4),
                },
            ) {
                last = Some(cw);
            }
            // Sink successor 9, empty.
            if let Some(cw) = c.on_event(
                Time::ZERO,
                ControllerEvent::SentToSuccessor {
                    successor: 9,
                    frame: &frame(seq, 1, 9, 9),
                },
            ) {
                last = Some(cw);
            }
            seq += 1;
        }
        let windows = c.windows();
        let w2 = windows.iter().find(|(s, _)| *s == 2).unwrap().1;
        let w9 = windows.iter().find(|(s, _)| *s == 9).unwrap().1;
        assert!(w2 > w9, "congested branch must have the larger window");
        assert_eq!(last, Some(w2.max(w9)), "MAC gets the max");
    }
}
