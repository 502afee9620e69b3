//! # dfly-stats
//!
//! Statistics and reporting utilities for the trade-off study. The paper
//! reports results as
//!
//! * **box plots** of per-rank communication time (min, quartiles, max) —
//!   [`BoxStats`];
//! * **CDFs over channels** ("percentage of local channels" vs traffic
//!   amount / saturated time, Figures 4–6, 8–10) — [`Cdf`];
//! * **relative series** (max communication time in percent of the
//!   `rand-adp` baseline, Figure 7) — [`relative_percent`];
//! * plain tables (Tables I and II).
//!
//! The crate also renders results as aligned ASCII tables, simple terminal
//! plots, and CSV files so each reproduction binary can both print the
//! paper's rows/series and leave machine-readable artifacts in `results/`.

#![warn(missing_docs)]

pub mod balance;
pub mod cdf;
pub mod csv;
pub mod plot;
pub mod streaming;
pub mod summary;
pub mod table;

pub use balance::{gini, Histogram};
pub use cdf::Cdf;
pub use csv::CsvWriter;
pub use plot::{render_boxplot_row, sparkline};
pub use streaming::{CoarseTimeline, StreamSummary};
pub use summary::{mean, percentile, relative_percent, stddev, BoxStats};
pub use table::AsciiTable;
