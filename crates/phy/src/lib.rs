//! # ezflow-phy — the radio substrate
//!
//! Models the physical layer the way ns-2 (and therefore the paper's
//! simulation section) models it: deterministic decode and carrier-sense
//! radii derived from the two-ray-ground propagation defaults, plus an
//! optional stochastic per-link loss process used both for *fault
//! injection* and for calibrating the simulated testbed links to the
//! capacities measured in Table 1 of the paper.
//!
//! The key object is [`Channel`], a pure state machine over
//! `start_tx_into` / `end_tx_into` calls. It knows nothing about MAC timing or scheduling; it only
//! answers three questions:
//!
//! 1. *Who senses the medium busy?* — every node within the carrier-sense
//!    range (550 m by default) of an active transmitter.
//! 2. *Who receives a frame?* — every node within the transmission range
//!    (250 m) of the sender, **iff** no other transmission overlapped whose
//!    sender is within the interference (= carrier-sense) range of that
//!    receiver, the receiver itself never transmitted during the frame, and
//!    the Bernoulli link-loss draw succeeds.
//! 3. *Hidden terminals* — fall out of 1 + 2 with no special code: with
//!    200 m node spacing, nodes three hops apart (600 m) cannot sense each
//!    other yet corrupt each other's receptions at intermediate nodes
//!    (400 m < 550 m). This is exactly the asymmetry that makes ≥4-hop
//!    chains turbulent in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod frame;
pub mod geom;
pub mod loss;
pub mod medium;
pub mod timing;

pub use arena::{FrameArena, FrameId};
pub use frame::{Frame, FrameKind};
pub use geom::{Neighbors, Position};
pub use loss::{ChurnWindow, GilbertElliott, LossModel};
pub use medium::{
    Airtime, Channel, ChannelConfig, ChannelStats, DecodeOutcome, Delivery, EndReport, StartReport,
    TxId,
};
pub use timing::air_time;
