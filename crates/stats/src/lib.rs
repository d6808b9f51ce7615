//! # ezflow-stats — the measurement toolkit
//!
//! Everything the paper reports is one of four things: a **time series**
//! binned over the experiment (Figs. 1, 4, 6, 7, 8, 10, 11), a **mean ±
//! standard deviation** over a period (Tables 1, 2, 3), **Jain's fairness
//! index** over per-flow throughputs (Eq. 1), or an **average buffer
//! occupancy** (Fig. 4's caption). This crate provides exactly those
//! primitives, plus CSV export and a terminal ASCII renderer so the
//! experiment harness can "draw" the figures in a log.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii;
pub mod csv;
pub mod estimation;
pub mod fairness;
pub mod hist;
pub mod series;
pub mod stability;
pub mod summary;

pub use ascii::render_series;
pub use csv::write_csv;
pub use estimation::{EstimationSummary, EstimationTracker};
pub use fairness::jain_index;
pub use hist::LogHistogram;
pub use series::{PeriodicSeries, SampleSeries, ThroughputSeries};
pub use stability::{Episode, Stability, StabilityConfig, StabilityTracker};
pub use summary::{mean_std, percentile, Summary};
