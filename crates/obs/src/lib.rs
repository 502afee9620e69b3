//! # dfly-obs
//!
//! Telemetry data model for the dragonfly simulator — the continuous
//! counter view that production congestion studies (Jha et al.'s
//! interconnect congestion study, Kang et al.'s Dragonfly+ interference
//! model) are built on, and that the paper's own figures *read*:
//! per-link-class utilization over time, credit-stall time, VC occupancy,
//! and adaptive-vs-minimal routing decisions.
//!
//! This crate holds the passive data structures and their sinks:
//!
//! * [`EventLoopProfile`] — exact per-event-type counts plus a
//!   stride-sampled timing subset (every Nth event per kind is measured,
//!   the rest only counted), event-queue depth high-water mark, and
//!   estimated wall shares / events per second extrapolated from the
//!   timed subset;
//! * [`ObsClock`] — the timestamp source for that sampling: a precise
//!   `Instant`-based monotonic clock, or Linux's `CLOCK_MONOTONIC_COARSE`
//!   when a few-ns read matters more than per-read resolution;
//! * [`SampleSeries`] / [`NetSample`] — the periodic in-simulation sample
//!   stream (per-class utilization, queued bytes, credit-stall time,
//!   UGAL decision deltas);
//! * [`OccupancyHistogram`] — VC buffer occupancy distribution across
//!   samples;
//! * [`RouteStats`] — UGAL decision counters (minimal vs non-minimal
//!   winners and the margin distribution between the two families);
//! * [`ObsReport`] — everything above bundled per run, with
//!   `results/obs_*.csv` sinks (via [`dfly_stats::CsvWriter`]) and an
//!   ASCII sparkline summary.
//!
//! The *hooks* that feed these structures live in `dfly-network` (the
//! collector walks channel state the same way the audit layer does) and
//! are opt-in via `NetworkParams::obs`: telemetry observes, it never
//! perturbs — obs-on and obs-off runs are bit-identical in every
//! simulation output at every stride, the obs-off hot path pays one
//! branch per hook (proved <2% by `bench/benches/obs_benches.rs`), and
//! the obs-on path does O(1/stride) timestamp reads (gated ≤1.25x by the
//! `event_rate` bench in CI).

#![warn(missing_docs)]

pub mod clock;
pub mod profile;
pub mod report;
pub mod sampler;

pub use clock::ObsClock;
pub use profile::{EventKind, EventLoopProfile};
pub use report::ObsReport;
pub use sampler::{NetSample, OccupancyHistogram, RouteStats, SampleSeries, OBS_CLASSES};

// Re-exported so `dfly-network` (which already depends on this crate)
// can build its traffic timeline without a new dependency edge.
pub use dfly_stats::streaming::CoarseTimeline;
