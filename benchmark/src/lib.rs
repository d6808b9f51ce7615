//! # ezflow-benchmark — spec to report, measured so that it repeats
//!
//! Measures the whole user path of the simulator — *spec text → parse →
//! compile → build → run → snapshot → serialise → written report* — on
//! four workloads, from outside, through the crates' public functions
//! only. See `README.md` for the metric tables and how to run it.

#![forbid(unsafe_code)]

pub mod aa;
pub mod checks;
pub mod cli;
pub mod estimator;
pub mod measure;
pub mod metrics;
pub mod micro;
pub mod pipeline;
pub mod procfs;
pub mod trace;
pub mod workload;
