//! The flow-controller interface.
//!
//! A [`Controller`] is the per-node program that EZ-flow (and each baseline
//! we compare against) runs beside the MAC. Its only actuator is the MAC's
//! `CWmin`; its only sensors are the events the network layer feeds it:
//!
//! * [`ControllerEvent::SentToSuccessor`] — one of our data frames was
//!   acknowledged by the successor (it verifiably entered the successor's
//!   queue). This is the BOE's *"transmission of packet p to N_{k+1}"*
//!   hook: on the testbed the second radio sniffs the node's own frames;
//!   in the simulator the ACK plays that role, filtering out frames that
//!   were dropped before reaching the air exactly as the paper requires.
//! * [`ControllerEvent::Overheard`] — a clean data frame not addressed to
//!   us was decoded; the broadcast medium gives it to us for free. The BOE
//!   filters for frames *sent by our successor*.
//!
//! [`Controller::on_event`] answers every observation with one
//! [`Reaction`]: a `Some(cw)` in it reprograms the MAC's minimum
//! contention window — the moral equivalent of the testbed's
//! `iwconfig ath0 cwmin <v>` call — and the rest says what the BOE read
//! and why the window moved, for the flight recorder and the audit.

use ezflow_phy::Frame;
use ezflow_sim::Time;

use crate::lifecycle::BoeVerdict;

/// An observation delivered to a node's controller.
#[derive(Debug)]
pub enum ControllerEvent<'a> {
    /// A data frame of ours was acknowledged by `successor`.
    SentToSuccessor {
        /// The next-hop that just accepted the frame.
        successor: usize,
        /// The acknowledged frame.
        frame: &'a Frame,
    },
    /// A clean data frame addressed to another node was overheard.
    Overheard {
        /// The overheard frame (its `src` is the transmitter).
        frame: &'a Frame,
    },
}

/// A boxed per-node controller factory — what [`crate::Network::new`]
/// takes, aliased because the full type is a mouthful. `Send + Sync` so
/// one factory can be shared with sweep-runner worker threads.
pub type ControllerFactory = Box<dyn Fn(usize) -> Box<dyn Controller> + Send + Sync>;

/// What kind of window move a [`DecisionRecord`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionKind {
    /// The window was doubled (CAA over-utilization).
    Increase,
    /// The window was halved (CAA under-utilization).
    Decrease,
    /// The window was set outright (a static-penalty assignment at build
    /// time).
    Assign,
}

impl DecisionKind {
    /// Stable lowercase name for exports.
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::Increase => "increase",
            DecisionKind::Decrease => "decrease",
            DecisionKind::Assign => "assign",
        }
    }
}

/// One `CWmin` decision with the inputs that produced it — the payload of
/// the audit ledger (see [`crate::audit`]). Copy on purpose: a controller
/// returns one in the [`Reaction`] of the event that caused the decision,
/// and the ledger records it when armed.
///
/// For CAA decisions the fields mirror Algorithm 1's state: the averaged
/// estimate, the hysteresis charge *entering* the round (a fired decision
/// means the round charged it to its threshold), and the two charge
/// thresholds computed from the window at round entry. Baselines without
/// that structure leave the counters/thresholds at zero and use
/// [`DecisionKind::Assign`]; `avg` then carries the controller's own
/// driving quantity (static penalty: the assigned window).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecisionRecord {
    /// Kind of window move.
    pub kind: DecisionKind,
    /// Successor whose state drove the decision, when the controller keeps
    /// per-successor state (`None` for node-global assignments).
    pub successor: Option<usize>,
    /// The driving quantity: averaged BOE estimate for CAA, the assigned
    /// window for static penalties.
    pub avg: f64,
    /// Over-utilization charge entering the round (CAA only).
    pub countup: u32,
    /// Under-utilization charge entering the round (CAA only).
    pub countdown: u32,
    /// Rounds of charge needed to double, from the window at round entry
    /// (CAA: `log2(cw_before)`).
    pub up_threshold: u32,
    /// Rounds of charge needed to halve (CAA: `15 − log2(cw_before)`).
    pub down_threshold: u32,
    /// `CWmin` before the decision.
    pub cw_before: u32,
    /// `CWmin` after the decision.
    pub cw_after: u32,
}

/// The BOE's reading of one overheard forward by a successor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoeReading {
    /// The successor whose forward was overheard.
    pub successor: usize,
    /// How the overheard checksum matched the recorded sends.
    pub verdict: BoeVerdict,
    /// The estimated successor occupancy `b̂`, in packets; `None` on a
    /// miss.
    pub estimate: Option<u32>,
}

/// Everything one [`Controller::on_event`] call produced. The default is
/// "nothing": no window change, no BOE reading, no decision.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Reaction {
    /// A new `CWmin` for this node's MAC.
    pub cw: Option<u32>,
    /// The BOE's reading, when the event was an overheard forward by a
    /// successor the estimator tracks.
    pub boe: Option<BoeReading>,
    /// Provenance of the window decision the event caused, if any.
    pub decision: Option<DecisionRecord>,
}

/// Observability counters a controller can export for run snapshots.
/// The field names follow EZ-flow's two mechanisms; algorithms without a
/// BOE/CAA decomposition simply leave the counters at zero (the default).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerCounters {
    /// Buffer-estimator samples successfully matched to a sent frame.
    pub boe_hits: u64,
    /// Overheard forwards whose checksum matched nothing (sampling loss).
    pub boe_misses: u64,
    /// Checksum matches that were ambiguous (several candidates; the most
    /// recent was used).
    pub boe_ambiguous: u64,
    /// Adaptation rounds that raised the contention window.
    pub caa_increases: u64,
    /// Adaptation rounds that lowered the contention window.
    pub caa_decreases: u64,
    /// Adaptation rounds that left the contention window unchanged.
    pub caa_holds: u64,
}

/// A per-node flow-control algorithm.
///
/// `Send` is a supertrait: a controller is owned by its node and crosses
/// thread boundaries together with the whole [`crate::Network`] when a
/// sweep runner fans independent runs across workers. Controllers are
/// plain state machines, so the bound is free — it exists to keep
/// `Box<dyn Controller>` (and therefore `Network`) `Send`.
pub trait Controller: Send {
    /// Handles one observation: a new `CWmin` for this node's MAC, if
    /// any, with what the estimator read and the decision record behind
    /// the new window.
    fn on_event(&mut self, now: Time, event: ControllerEvent<'_>) -> Reaction;

    /// Algorithm name for logs and experiment tables.
    fn name(&self) -> &'static str;

    /// `CWmin` to program into the MAC when the network is built, if the
    /// algorithm wants something other than the 802.11 default.
    fn initial_cw_min(&self) -> Option<u32> {
        None
    }

    /// Per-successor window override (the §7 extension: one `CWmin` per
    /// successor, as the four 802.11e hardware queues would provide).
    /// When this returns `Some(cw)` for the successor of the frame about
    /// to be handed to the MAC, the network programs that window for the
    /// frame's contention instead of the node-global one. The default
    /// (`None`) keeps a single window per node, which is all the paper's
    /// line topologies need.
    fn queue_window(&self, _successor: usize) -> Option<u32> {
        None
    }

    /// Counters for run snapshots. The default (all zero) suits
    /// controllers with no estimator/adaptation machinery.
    fn counters(&self) -> ControllerCounters {
        ControllerCounters::default()
    }
}

/// Plain IEEE 802.11: a fixed `CWmin`, never adapted. With the default
/// window this is the paper's baseline; with a hand-picked per-node window
/// it expresses the static penalty strategy of \[Aziz09\] (`q` = relay
/// window / source window).
#[derive(Debug, Clone)]
pub struct FixedController {
    cw_min: Option<u32>,
}

impl FixedController {
    /// Standard 802.11: keep the MAC's default window.
    pub fn standard() -> Self {
        FixedController { cw_min: None }
    }

    /// Pin `CWmin` to `cw_min` (the static penalty baseline).
    pub fn pinned(cw_min: u32) -> Self {
        assert!(cw_min >= 1);
        FixedController {
            cw_min: Some(cw_min),
        }
    }
}

impl Controller for FixedController {
    fn on_event(&mut self, _now: Time, _event: ControllerEvent<'_>) -> Reaction {
        Reaction::default()
    }

    fn initial_cw_min(&self) -> Option<u32> {
        self.cw_min
    }

    fn name(&self) -> &'static str {
        "802.11"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Frame {
        Frame::data(1, 0, 0, 4, 1000, Time::ZERO)
    }

    #[test]
    fn standard_controller_never_adapts() {
        let mut c = FixedController::standard();
        let f = frame();
        for _ in 0..10 {
            assert_eq!(
                c.on_event(Time::ZERO, ControllerEvent::Overheard { frame: &f }),
                Reaction::default()
            );
        }
        assert_eq!(c.initial_cw_min(), None);
        assert_eq!(c.name(), "802.11");
    }

    #[test]
    fn pinned_controller_sets_initial_window() {
        let mut c = FixedController::pinned(2048);
        assert_eq!(c.initial_cw_min(), Some(2048));
        let f = frame();
        assert_eq!(
            c.on_event(
                Time::ZERO,
                ControllerEvent::SentToSuccessor {
                    successor: 1,
                    frame: &f
                }
            ),
            Reaction::default()
        );
    }
}
