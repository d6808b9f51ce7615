//! Struct-of-arrays engine state for the event-loop hot path.
//!
//! The engine's per-event work touches a few words of per-node state —
//! which MAC timer entry is pending, how full the node's interface
//! queues are — that used to live scattered inside [`crate::node::Node`]
//! (behind a `Box<dyn Controller>` and a queue `Vec`). Pulling those
//! words into parallel arrays keyed by node id keeps the mesh1k event
//! loop striding over dense, cache-resident memory instead of chasing
//! one cold `Node` per event.
//!
//! The timer slots are also the ledger for the scheduler's keyed
//! rescheduling ([`ezflow_sim::Scheduler::reschedule`]): each MAC keeps
//! at most one pending transmit-path entry and one pending ACK-job entry,
//! and the slot holds the live [`TimerHandle`] so a re-arm *moves* the
//! entry and a freeze *removes* it — nothing is ever abandoned in the
//! queue.
//!
//! One more per-node word mirrors MAC state but lives where it is read,
//! in the channel's listening column rather than here: the
//! *listening* bit ([`ezflow_phy::Channel::set_listening`]), equal to
//! `Mac::counting_phase()`. It and the transmit-path slot are brought
//! back in line with the MAC by the same engine step after every MAC
//! interaction (`Network::after_mac`), so the hot fan-out of a
//! transmission — which nodes to tell, whose timer to move — never
//! dereferences a `Node` that has nothing to do.

use ezflow_sim::TimerHandle;

/// State of one logical MAC timer (transmit path or ACK job).
///
/// The invariant the engine maintains: whenever control returns to the
/// pop loop, an `Armed` slot's `epoch` equals its MAC's current epoch —
/// a countdown the MAC invalidated without re-arming is parked (the
/// scheduler entry physically removed) before the next pop, so a stale
/// entry is never dispatched. The engine's dispatch arms assert that in
/// debug builds; in release the MAC's own epoch check ignores a stale
/// timer and counts it in `MacStats::stale_epochs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TimerSlot {
    /// No pending scheduler entry (the last one dispatched).
    Idle,
    /// One pending entry, keyed by `h`, armed under epoch token `epoch`.
    Armed {
        /// Handle of the pending entry (for reschedule/remove).
        h: TimerHandle,
        /// The MAC epoch the entry was armed with.
        epoch: u64,
    },
    /// The entry was physically removed while its owner is frozen (busy
    /// medium, NAV); the next arm revives it via `reschedule(None, ..)`
    /// so churn accounting still sees one consumed entry per park.
    Parked,
}

/// The struct-of-arrays block, one element per node in each array.
pub(crate) struct HotState {
    /// Pending transmit-path timer per MAC (see [`TimerSlot`]).
    pub(crate) tx_timer: Vec<TimerSlot>,
    /// Pending ACK-job timer per MAC.
    pub(crate) ack_timer: Vec<TimerSlot>,
    /// Total interface-queue occupancy per node, mirrored at the
    /// engine's enqueue/dequeue sites. The periodic samplers (metrics,
    /// backlog reports, telemetry) read this array instead of walking
    /// every node's queue `Vec`; `debug_assert`s in the sample path pin
    /// the mirror to the queues' ground truth.
    pub(crate) occupancy: Vec<u32>,
}

impl HotState {
    pub(crate) fn new(n: usize) -> Self {
        HotState {
            tx_timer: vec![TimerSlot::Idle; n],
            ack_timer: vec![TimerSlot::Idle; n],
            occupancy: vec![0; n],
        }
    }
}
