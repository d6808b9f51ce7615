//! # ezflow-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate every other crate of the EZ-Flow reproduction
//! is built on. It deliberately contains no networking knowledge: it provides
//! exactly four things and nothing else:
//!
//! * [`Time`] / [`Duration`] — simulated time with microsecond resolution,
//!   the natural granularity for IEEE 802.11b timing (slot = 20 µs,
//!   SIFS = 10 µs).
//! * [`Scheduler`] — a total-order event queue. Events scheduled for the
//!   same instant are popped in the order they were pushed, which makes every
//!   simulation bit-for-bit reproducible for a given seed.
//! * [`SimRng`] — a small, self-contained PCG32 pseudo-random generator.
//!   Using our own generator (rather than `rand`'s `SmallRng`, whose stream
//!   is not stable across crate versions) guarantees that recorded
//!   experiment outputs stay reproducible.
//! * [`JsonValue`] / [`JsonWriter`] — the in-tree JSON kernel every
//!   report, snapshot and JSONL export is read and written with.
//!
//! The kernel follows the "simplicity and robustness" design goals of the
//! Rust embedded-networking ecosystem: no `unsafe`, no clever type tricks,
//! no global state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod rng;
pub mod sched;
pub mod time;

pub use json::{JsonError, JsonScalar, JsonValue, JsonWriter};
pub use rng::SimRng;
pub use sched::{Scheduler, TimerHandle, WheelStats};
pub use time::{Duration, Time};
