//! # ezflow-core — the EZ-Flow mechanism
//!
//! The paper's contribution, §3: a distributed, message-passing-free
//! hop-by-hop flow controller built from two modules running beside an
//! unmodified 802.11 MAC at every node:
//!
//! * [`Boe`] — the **Buffer Occupancy Estimator**. Remembers the 16-bit
//!   checksums of the last 1000 packets sent to the successor; every time
//!   the node overhears the successor forwarding a packet, the FIFO
//!   discipline makes "number of checksums stored after the overheard one"
//!   exactly the successor's buffer occupancy. No messages, ever.
//! * [`Caa`] — the **Channel Access Adaptation**. Averages 50 BOE samples,
//!   compares against `b_min = 0.05` / `b_max = 20`, and with the
//!   hysteresis counters of Algorithm 1 doubles or halves the MAC's
//!   `CWmin` between `2^4` and `2^15`.
//!
//! Those numbers are constants ([`B_MIN`], [`B_MAX`], [`SAMPLES`],
//! [`MIN_CW`], [`MAX_CW`] and the BOE's 1000-packet history); an
//! [`EzFlowConfig`] carries only what a run varies: the two thresholds
//! and the testbed's hardware cap.
//!
//! [`EzFlowController`] glues them into the [`ezflow_net::Controller`]
//! interface; [`baselines`] provides the comparison algorithm (the
//! topology-dependent static penalty of \[Aziz09\]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod boe;
pub mod caa;
pub mod config;
pub mod controller;

pub use baselines::static_penalty_factory;
pub use boe::Boe;
pub use caa::{Caa, CaaDecision, CaaRound};
pub use config::{EzFlowConfig, B_MAX, B_MIN, MAX_CW, MIN_CW, SAMPLES};
pub use controller::EzFlowController;
