//! # ezflow-mac — IEEE 802.11 DCF
//!
//! A faithful, event-driven model of the 802.11 Distributed Coordination
//! Function at the level of detail the paper's phenomena require:
//!
//! * CSMA/CA with physical carrier sensing — DIFS deference, slotted
//!   backoff with freeze/resume, post-attempt contention.
//! * Binary exponential backoff driven by a **runtime-adjustable `CWmin`**
//!   — the one parameter EZ-flow manipulates. `CWmin` may be raised above
//!   the standard `CWmax`, in which case the window is pinned at `CWmin`
//!   (this is what setting `CWmin` through MadWifi's `iwconfig` does).
//! * Stop-and-wait ARQ: per-frame ACK after SIFS, ACK timeout, retry with
//!   window doubling, drop after the retry limit.
//! * Duplicate filtering at the receiver (retries are re-ACKed but not
//!   re-delivered), matching the standard's sequence-number mechanism.
//!
//! RTS/CTS (with NAV virtual carrier sensing) and EIFS are implemented but
//! **off by default**, as in the paper's setup — the `rts_cts` and `eifs`
//! ablations measure what enabling them changes. Deliberately not modeled:
//! rate adaptation (fixed 1 Mb/s) and beacons/management traffic.
//!
//! ## Design
//!
//! [`Mac`] is a *pure state machine*: the caller feeds [`MacInput`]s and
//! receives [`MacOutput`]s (carrier sense, which can arm at most one
//! timer, has three direct calls of its own). The MAC never touches the
//! scheduler or the channel; instead it asks the caller to arm timers
//! (`SetTimer*`, a re-arm moving the pending entry) and says whether it
//! still owes its transmit-path timer ([`Mac::tx_timer_pending`]): the
//! caller cancels one it no longer owes, and a timer that fires anyway is
//! ignored and counted. This keeps the
//! trickiest part of the simulator fully unit-testable without any
//! simulated radio at all (see the tests in [`dcf`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dcf;

pub use config::MacConfig;
pub use dcf::{Mac, MacInput, MacOutput, MacStats, TxAttempt};
