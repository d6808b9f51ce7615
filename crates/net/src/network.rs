//! The network orchestrator — a thin façade over three focused layers.
//!
//! [`Network`] owns the scheduler, the shared channel, the nodes and the
//! metrics. The work is split across sibling modules with explicit
//! interfaces, and this module only defines the state and the public
//! read API:
//!
//! * [`crate::builder`] — spec → network construction
//!   ([`NetworkSpec::build`], the body of [`Network::new`]);
//! * [`crate::engine`] — the scheduler event loop ([`Network::run_until`],
//!   [`Network::snapshot`]) and MAC/channel/controller dispatch;
//! * [`crate::transport`] — one `transport::Flow` record per
//!   flow, whose pacing state (CBR, windowed or on-off) answers each
//!   tick, credit timeout and ACK with the packets to send.
//!
//! All randomness flows through per-node streams derived from one master
//! seed, so a run is a pure function of `(NetworkSpec, controllers,
//! seed)` — and, because `Network` is `Send` (asserted below), many runs
//! can proceed on independent threads without compromising that.
//!
//! ## Event flow for one data frame
//!
//! Each arrow is a direct call; one transmission's fan-out runs in the
//! order drawn, its receivers in the channel report's order.
//!
//! ```text
//! Traffic ─▶ enqueue(own queue) ─▶ try_feed ─▶ Mac::Enqueue
//!   Mac ─▶ SetTimerTxPath ─▶ [scheduler] ─▶ Mac::TimerTxPath
//!   Mac ─▶ StartTx ─▶ Channel::start_tx_into ─▶ [scheduler TxEnd]
//!        └─▶ medium_busy at listeners
//!   [scheduler TxEnd] ─▶ Channel::end_tx_into
//!        ├─▶ Overheard to everyone else in decode range ─▶ controllers
//!        ├─▶ eifs_mark (EIFS on), then medium_idle at listeners
//!        ├─▶ TxEnded to the transmitter (arms ACK timeout)
//!        └─▶ Rx to the addressee ─▶ Deliver ─▶ forward or sink
//! ```

use ezflow_mac::MacStats;
use ezflow_phy::{Channel, ChannelStats, FrameArena};
use ezflow_sim::{Duration, Scheduler, SimRng, Time};

pub use crate::builder::NetworkSpec;
pub use crate::transport::TRANSPORT_ACK_FLOW;

use crate::audit::AuditLedger;
use crate::controller::Controller;
use crate::engine::{Ev, TimerSlot, EV_KINDS, PROFILE_KINDS};
use crate::flight::FlightRecorder;
use crate::metrics::Metrics;
use crate::node::Node;
use crate::routing::StaticRouting;
use crate::telemetry::Telemetry;
use crate::topo::Topology;
use crate::transport::Flow;

/// A runnable simulated mesh network.
///
/// Construction lives in [`crate::builder`], the event loop in
/// [`crate::engine`]; this type is the shared state they operate on and
/// the stable public surface (`new`, `run_until`, `snapshot`, `metrics`).
/// Per-node state lives on the nodes — a queue depth is read from the
/// queues themselves — except the two MAC timer-slot columns, which are
/// the scheduler's ledger, and the channel's listening bits.
pub struct Network {
    pub(crate) now: Time,
    pub(crate) sched: Scheduler<Ev>,
    pub(crate) channel: Channel,
    /// The single store of every live frame: queues, MACs and the
    /// channel trade 8-byte [`ezflow_phy::FrameId`] handles into this
    /// slab instead of passing ~100-byte `Frame` values around (see
    /// [`ezflow_phy::FrameArena`]). Ownership protocol: an id is
    /// released exactly once, at the packet's terminal event.
    pub(crate) arena: FrameArena,
    pub(crate) chan_rng: SimRng,
    pub(crate) nodes: Vec<Node>,
    /// Pending transmit-path timer per MAC (see
    /// [`crate::engine::TimerSlot`]).
    pub(crate) tx_timer: Vec<TimerSlot>,
    /// Pending ACK-job timer per MAC.
    pub(crate) ack_timer: Vec<TimerSlot>,
    pub(crate) routing: StaticRouting,
    /// The flows in declaration order; `Ev::Traffic` and
    /// `Ev::WindowRefresh` carry an index into it.
    pub(crate) flows: Vec<Flow>,
    pub(crate) queue_cap: usize,
    pub(crate) eifs: bool,
    /// Instant of the next metrics sample.
    pub(crate) next_sample: Time,
    /// Instant of the next telemetry window end (`Time::MAX` while off).
    pub(crate) next_telemetry: Time,
    /// The earlier of the two, which the pop loop compares events with.
    pub(crate) samplers_due: Time,
    /// Recorded measurements.
    pub metrics: Metrics,
    /// Per-packet lifecycle recorder (disabled unless the spec sets
    /// `flight_cap > 0`).
    pub flight: FlightRecorder,
    /// Telemetry bus (disabled unless the spec sets `telemetry_every`);
    /// see [`crate::telemetry`].
    pub telemetry: Telemetry,
    /// Controller-provenance audit ledger (disabled unless the spec sets
    /// `audit_cap > 0`); see [`crate::audit`].
    pub audit: AuditLedger,
    /// Engine self-profiler switch (the spec's `profile`).
    pub(crate) profile: bool,
    /// Wall-clock nanoseconds per handler kind (self-profiler; all zero
    /// when `profile` is off).
    pub(crate) handler_ns: [u64; PROFILE_KINDS],
    pub(crate) next_seq: u64,
    /// Dispatch counts per event kind.
    pub(crate) dispatched: [u64; EV_KINDS],
    /// Scratch channel reports, refilled in place by `start_tx_into` /
    /// `end_tx_into` on every transmission — the steady state of the
    /// event loop allocates nothing for them.
    pub(crate) start_report: ezflow_phy::StartReport,
    /// Taken out (`std::mem::take`) for the whole fan-out of a
    /// transmission end — its controller, recorder and MAC calls borrow
    /// `self` — then put back.
    pub(crate) end_report: ezflow_phy::EndReport,
    /// Pool of drained MAC output buffers. A pool rather than a single
    /// buffer because output handling recurses (Deliver → enqueue →
    /// try_feed feeds the MAC again); depth bounds the pool size.
    pub(crate) mac_out_pool: Vec<Vec<ezflow_mac::MacOutput>>,
    /// Wall-clock time spent inside `run_until` (perf accounting only;
    /// never fed back into the simulation).
    pub(crate) wall: std::time::Duration,
}

/// `Network` must stay `Send`: the sweep runner in `ezflow-bench` moves
/// whole networks across `std::thread::scope` workers. The bound is
/// enforced here, at the root, so a non-`Send` field (an `Rc`, a raw
/// pointer, a non-`Send` controller) fails to compile with a message
/// pointing at this line rather than at a distant spawn site.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Network>();
    assert_send::<NetworkSpec>();
};

impl Network {
    /// Builds a network; `make_controller` is called once per node.
    pub fn new(spec: NetworkSpec, make_controller: &dyn Fn(usize) -> Box<dyn Controller>) -> Self {
        crate::builder::build(spec, make_controller)
    }

    /// Convenience: build straight from a topology.
    pub fn from_topology(
        topo: &Topology,
        seed: u64,
        make_controller: &dyn Fn(usize) -> Box<dyn Controller>,
    ) -> Self {
        Network::new(NetworkSpec::from_topology(topo, seed), make_controller)
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.dispatched.iter().sum()
    }

    /// Timer entries moved in place by keyed rescheduling — each one is a
    /// scheduler entry consumed without a dispatch (see
    /// [`ezflow_sim::Scheduler::reschedule`]).
    pub fn sched_rescheduled(&self) -> u64 {
        self.sched.rescheduled_total()
    }

    /// Frames currently live in the arena (queued + held by MACs + on
    /// the air).
    pub fn arena_live(&self) -> usize {
        self.arena.live()
    }

    /// Peak live-frame population — the arena's memory footprint in
    /// frames (its slab never shrinks).
    pub fn arena_high_water(&self) -> usize {
        self.arena.high_water()
    }

    /// Arena allocations served by recycling a released slot; in steady
    /// state this tracks [`ezflow_phy::FrameArena::allocated_total`]
    /// one-for-one.
    pub fn arena_slot_reuses(&self) -> u64 {
        self.arena.slot_reuses()
    }

    /// Total frame allocations ever made in the arena.
    pub fn arena_allocated_total(&self) -> u64 {
        self.arena.allocated_total()
    }

    /// Arena slab capacity in slots (live + free); growth stops once the
    /// run's peak frame population has been seen.
    pub fn arena_capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Interface-queue occupancy of `node`.
    pub fn occupancy(&self, node: usize) -> usize {
        self.nodes[node].occupancy()
    }

    /// Current `CWmin` of `node`'s MAC.
    pub fn cw_min(&self, node: usize) -> u32 {
        self.nodes[node].mac.cw_min()
    }

    /// MAC counters of `node`.
    pub fn mac_stats(&self, node: usize) -> MacStats {
        self.nodes[node].mac.stats()
    }

    /// Channel counters.
    pub fn channel_stats(&self) -> ChannelStats {
        self.channel.stats()
    }

    /// Cumulative transmit airtime of `node`.
    pub fn airtime(&self, node: usize) -> Duration {
        self.channel.airtime(node)
    }

    /// Fraction of `elapsed` that `node` spent transmitting.
    pub fn utilization(&self, node: usize, elapsed: Duration) -> f64 {
        self.channel.utilization(node, elapsed)
    }

    /// Read-only access to a node (tests and experiments).
    pub fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }

    /// Queue capacity the network was built with.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }
}
