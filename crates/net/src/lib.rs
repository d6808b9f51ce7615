//! # ezflow-net — the network layer and event loop
//!
//! This crate wires the substrates together into a runnable mesh network:
//!
//! * [`queue`] — drop-tail interface queues (the 50-packet MAC buffer of
//!   the paper's hardware), with the paper's queue discipline: a node that
//!   is both source and relay keeps **separate queues for its own and for
//!   forwarded traffic**, one per successor.
//! * [`routing`] — static next-hop routing (the NOAH agent of the paper's
//!   ns-2 setup: no route flapping, no routing overhead).
//! * [`transport`] — one record per flow and its pacing: constant bit
//!   rate (2 Mb/s CBR saturates every topology we study, as in §5.1),
//!   a closed-loop fixed window, or bursty on-off.
//! * [`controller`] — the trait through which a flow-control algorithm
//!   (EZ-flow, the static-q penalty, or plain 802.11) observes the
//!   network *passively* and adapts `CWmin`.
//! * [`node`] / [`network`] — one node = queues + DCF MAC + controller;
//!   the [`network::Network`] owns the scheduler, the channel, and the
//!   metrics and runs the whole thing deterministically. It is a thin
//!   façade over two focused layers: [`builder`] (spec → network
//!   construction) and [`engine`] (the scheduler event loop and
//!   MAC/channel/controller/flow dispatch). `Network` is `Send`, so
//!   independent runs parallelise across plain threads.
//! * [`topo`] — the paper's topologies: K-hop chains (Fig. 1), the 9-node
//!   campus testbed (Fig. 3, calibrated to Table 1), and scenario 1
//!   (Fig. 5) and scenario 2 (Fig. 9), loaded from their committed
//!   documents under `scenarios/`.
//! * [`scenario`] — declarative scenario specs: JSON documents describing
//!   a topology (explicit or generative), traffic mix, loss schedule and
//!   sweep axes, compiled one way to a [`topo::Topology`] /
//!   [`builder::NetworkSpec`].
//! * [`metrics`] — per-flow throughput/delay series, per-node buffer and
//!   `CWmin` traces: everything needed to regenerate the paper's figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod builder;
pub mod calibrate;
pub mod controller;
pub mod engine;
pub mod flight;
pub mod lifecycle;
pub mod metrics;
pub mod network;
pub mod node;
pub mod queue;
pub mod routing;
pub mod scenario;
pub mod snapshot;
pub mod telemetry;
pub mod topo;
pub mod transport;

pub use audit::{AuditEvent, AuditLedger, AuditRecord};
pub use builder::SpecError;
pub use controller::{
    BoeReading, Controller, ControllerCounters, ControllerEvent, ControllerFactory, DecisionKind,
    DecisionRecord, FixedController, Reaction,
};
pub use flight::{
    group_journeys, summarize_journey, FlightRecorder, FlightStats, JourneyMut, JourneySummary,
};
pub use metrics::Metrics;
pub use network::{Network, NetworkSpec};
pub use node::Node;
pub use queue::TxQueue;
pub use routing::{GatewayRoutes, StaticRouting};
pub use scenario::{CompiledScenario, ScenarioError, ScenarioSpec, SweepPoint};
pub use snapshot::{
    ControllerLinkSnapshot, ControllerNodeSnapshot, ControllerSnapshot, EpisodeSnapshot,
    LatencySnapshot, NodeSnapshot, NodeStabilitySnapshot, PerfSnapshot, QueueSnapshot, RunSnapshot,
    SchedulerSnapshot, StabilitySnapshot, SCHEMA_VERSION,
};
pub use telemetry::Telemetry;
pub use topo::{FlowSpec, Topology};
pub use transport::{Transport, TRANSPORT_ACK_FLOW};
