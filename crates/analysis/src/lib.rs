//! # ezflow-analysis — the discrete-time model of §6
//!
//! The paper's stability proof works on a slotted abstraction of the
//! K-hop chain (inherited from \[Aziz09\]): per slot, exactly one
//! *transmission pattern* `z` occurs, drawn from a distribution that
//! depends on which relay buffers are nonempty (the *region* of the state
//! space, Fig. 12) and on the contention windows (Table 4). The buffers
//! then move by `b_i(n+1) = b_i(n) + z_{i-1}(n) − z_i(n)` (Eq. 3) and
//! EZ-flow updates the windows by the threshold map `f` (Eq. 2).
//!
//! Reverse-engineering Table 4 pins the generative process down exactly:
//!
//! 1. **Contenders** are the source (node 0, always backlogged) and every
//!    relay with a nonempty buffer.
//! 2. **Sequential elimination**: repeatedly pick one remaining contender
//!    with probability proportional to `1/cw_i` (smallest backoff wins);
//!    the winner transmits and silences its 1-hop neighbours (the model's
//!    carrier sensing is one hop); repeat until no contenders remain.
//!    Non-adjacent contenders therefore transmit *simultaneously*.
//! 3. **Success**: transmitter `i`'s frame to `i+1` survives iff node
//!    `i+2` is not also transmitting (1-hop interference at the receiver;
//!    transmitters two hops from the receiver are the model's hidden
//!    terminals).
//!
//! [`kernel::pattern_distribution`] computes the exact pattern
//! distribution by enumerating elimination orders; [`regions`] carries the
//! closed forms of Table 4 for K = 4, and the unit tests prove the two
//! agree symbolically across random window assignments — i.e. our kernel
//! *is* Table 4.
//!
//! [`model::SlottedModel`] runs the random walk with either fixed windows
//! (802.11) or the EZ-flow dynamics, and [`lyapunov`] estimates the drift
//! of `h(b) = Σ b_i` per region — the quantity Theorem 1 bounds below
//! zero — plus the boundedness statistics the theorem implies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod lyapunov;
pub mod model;
pub mod regions;

pub use kernel::pattern_distribution;
pub use lyapunov::{drift_by_region, exact_drift, walk_stats, DriftReport, WalkStats};
pub use model::{ModelConfig, SlottedModel, B_MAX, B_MIN, INITIAL_CW, MAX_CW, MIN_CW};
pub use regions::{region_of, table4_distribution, Region};
