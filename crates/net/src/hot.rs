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

/// State of one logical MAC timer (transmit path or ACK job): the one
/// way a MAC timer is cancelled.
///
/// The invariant the engine maintains: whenever control returns to the
/// pop loop, a transmit-path slot is `Armed` exactly while its MAC owes
/// the timer (`Mac::tx_timer_pending`) — an entry the MAC stopped owing
/// without a re-arm is parked (the scheduler entry physically removed)
/// before the next pop — and an ACK-job slot is `Armed` exactly while its
/// MAC holds a response job, which only a firing or a replacement arm
/// ends. So a dispatched entry is always owed: debug builds assert that
/// at each transmit-path dispatch and, for both timers, at every
/// quiescence of `run_until`; in release the MAC ignores a firing it does
/// not owe and counts it in `MacStats::stale_timers`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TimerSlot {
    /// No pending scheduler entry (the last one dispatched).
    Idle,
    /// One pending entry, keyed by its handle (for reschedule/remove).
    Armed(TimerHandle),
    /// The entry was physically removed while its owner is frozen (busy
    /// medium, NAV); the next arm revives it via `reschedule(None, ..)`
    /// so churn accounting still sees one consumed entry per park.
    Parked,
}

// A tag and a handle: one slot per node and timer, read on every arm.
const _: () = assert!(std::mem::size_of::<TimerSlot>() <= 24);

/// The struct-of-arrays block, one element per node in each array.
pub(crate) struct HotState {
    /// Pending transmit-path timer per MAC (see [`TimerSlot`]).
    pub(crate) tx_timer: Vec<TimerSlot>,
    /// Pending ACK-job timer per MAC.
    pub(crate) ack_timer: Vec<TimerSlot>,
    /// Total interface-queue occupancy per node, mirrored at the
    /// engine's enqueue/dequeue sites. The periodic samplers (metrics,
    /// telemetry) read this array instead of walking every node's queue
    /// `Vec`; `debug_assert`s in the sample path pin the mirror to the
    /// queues' ground truth.
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
