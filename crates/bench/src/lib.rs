//! # ezflow-bench — the paper's evaluation, regenerated
//!
//! One module per artifact of the paper's evaluation (see DESIGN.md §5 for
//! the experiment index). Every experiment is a plain function taking a
//! [`Scale`] and returning a [`report::Report`], so that the same code
//! backs both scales of one frontend:
//!
//! * `cargo run --release -p ezflow-bench --bin experiments -- all`
//!   — full-length reproductions, printed as paper-vs-measured tables and
//!   ASCII figures (the source of EXPERIMENTS.md);
//! * the same with `--quick` — scaled-down versions of every
//!   experiment, for CI-sized validation.
//!
//! Speed is measured by the standalone `benchmark/` harness
//! (`BENCHMARK.json`), which calls these crates' public items.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod export;
pub mod report;
pub mod runner;

pub use report::{Report, Row, Scale};
pub use runner::{Job, SweepRunner};
