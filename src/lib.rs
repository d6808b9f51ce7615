//! # ezflow — EZ-Flow: removing turbulence in IEEE 802.11 wireless mesh
//! networks without message passing
//!
//! A from-scratch Rust reproduction of Aziz, Starobinski, Thiran and
//! El Fawal's CoNEXT 2009 paper, complete with every substrate the paper
//! relies on:
//!
//! | crate | what it is |
//! |---|---|
//! | [`sim`] | deterministic discrete-event kernel (scheduler, PCG32, JSON) |
//! | [`phy`] | radio model: ranges, capture, per-link loss, shared channel |
//! | [`mac`] | IEEE 802.11 DCF (CSMA/CA, backoff, ACK/retry, `CWmin`) |
//! | [`net`] | queues, static routing, CBR traffic, topologies, event loop |
//! | [`core`] | **EZ-flow** (BOE + CAA) and the baseline controllers |
//! | [`analysis`] | the §6 slotted Markov model and Lyapunov experiments |
//! | [`stats`] | throughput/delay/buffer series, Jain fairness, rendering |
//!
//! ## Quickstart
//!
//! Simulate the paper's headline phenomenon — a 4-hop chain is turbulent
//! under plain 802.11 and calm under EZ-flow:
//!
//! ```
//! use ezflow::prelude::*;
//!
//! let secs = 120;
//! let topo = chain(4, Time::ZERO, Time::from_secs(secs));
//!
//! let mut plain = Network::from_topology(&topo, 7, &|_| {
//!     Box::new(FixedController::standard()) as Box<dyn Controller>
//! });
//! plain.run_until(Time::from_secs(secs));
//!
//! let mut ez = Network::from_topology(&topo, 7, &|_| {
//!     Box::new(EzFlowController::with_defaults()) as Box<dyn Controller>
//! });
//! ez.run_until(Time::from_secs(secs));
//!
//! let half = Time::from_secs(secs / 2);
//! let end = Time::from_secs(secs);
//! let b1_plain = plain.metrics.buffer[1].window(half, end).mean;
//! let b1_ez = ez.metrics.buffer[1].window(half, end).mean;
//! assert!(b1_plain > 40.0, "802.11: first relay saturates");
//! assert!(b1_ez < 5.0, "EZ-flow: first relay stays empty");
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ezflow_analysis as analysis;
pub use ezflow_core as core;
pub use ezflow_mac as mac;
pub use ezflow_net as net;
pub use ezflow_phy as phy;
pub use ezflow_sim as sim;
pub use ezflow_stats as stats;

/// The one-line import for applications.
pub mod prelude {
    pub use ezflow_analysis::{ModelConfig, SlottedModel};
    pub use ezflow_core::{static_penalty_factory, Boe, Caa, EzFlowConfig, EzFlowController};
    pub use ezflow_mac::MacConfig;
    pub use ezflow_net::controller::{Controller, ControllerEvent, Reaction};
    pub use ezflow_net::topo::{chain, scenario1, scenario2, testbed, FlowSpec, Topology};
    pub use ezflow_net::{FixedController, Metrics, Network, NetworkSpec};
    pub use ezflow_phy::{ChannelConfig, Frame, LossModel, Position};
    pub use ezflow_sim::{Duration, SimRng, Time};
    pub use ezflow_stats::{jain_index, render_series};
}
