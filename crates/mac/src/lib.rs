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
//! ablations measure what enabling them changes. They are the two fields
//! of [`MacConfig`]. Deliberately not modeled: rate adaptation (fixed
//! 1 Mb/s) and beacons/management traffic.
//!
//! ## Constants
//!
//! Everything else is fixed: the paper runs one radio configuration,
//! IEEE 802.11b DSSS at 1 Mb/s with RTS/CTS off (§5.1), in its testbed
//! and in ns-2 alike.
//!
//! | value | 802.11b | where |
//! |---|---|---|
//! | slot | 20 µs | [`SLOT`] |
//! | SIFS | 10 µs | [`SIFS`] |
//! | DIFS = SIFS + 2·slot | 50 µs | [`DIFS`] |
//! | PLCP preamble + header | 192 µs (long, at 1 Mb/s) | [`ezflow_phy::air_time`] |
//! | payload rate | 1 Mb/s: 8 µs a byte | [`ezflow_phy::air_time`] |
//! | data overhead (header + FCS) | 24 + 4 bytes | `config::DATA_OVERHEAD_BYTES` |
//! | ACK / RTS / CTS | 14 / 20 / 14 bytes | [`ACK_AIR`], `RTS_AIR`, `CTS_AIR` |
//! | retry limit (attempts) | 7 | [`RETRY_LIMIT`] |
//! | CWmin default | 32 slots | [`CW_MIN_DEFAULT`] |
//! | CWmax | 1024 slots | `config::CW_MAX` |
//!
//! `CWmin` is the one value that moves at run time: EZ-flow doubles and
//! halves it between 2^4 and 2^15 (§3.3, §5.1; `ezflow_core`'s
//! `MIN_CW` / `MAX_CW`). A `CWmin` above CWmax pins the window there
//! ([`window`]).
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

pub use config::{
    ack_timeout, data_air, window, MacConfig, ACK_AIR, CW_MIN_DEFAULT, DIFS, RETRY_LIMIT, SIFS,
    SLOT,
};
pub use dcf::{Mac, MacInput, MacOutput, MacStats, TxAttempt};
