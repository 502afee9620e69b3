//! # dfly-core
//!
//! The experiment framework of the trade-off study: everything above the
//! raw network model and below the per-figure reproduction binaries.
//!
//! * [`config`] — experiment configuration: topology, app, placement,
//!   routing, message scale, background traffic, and the seed streams
//!   ([`config::SeedStreams`]) and engine choice
//!   ([`config::Parallelism::workers`]) every runner shares.
//! * [`mpi`] — the one rank execution engine: replays
//!   [`dfly_workloads::JobTrace`]s over the network with per-rank
//!   dependency-chained phases (the role DUMPI replay plays in CODES),
//!   and its t=0 front-end [`MultiDriver`] / [`MpiDriver`] with
//!   background traffic and load sampling.
//! * [`runner`] — runs one experiment end to end and collects the paper's
//!   metrics (per-rank communication time, average hops, channel traffic,
//!   link saturation).
//! * [`multijob`] and [`scheduler`] — co-runs from t=0 and FCFS batch
//!   schedules, over `MultiDriver` and `run_service` respectively.
//! * [`service`] — the continuous multi-tenant service loop: the second
//!   front-end over the same engine, an incremental [`ServiceSim`] driver
//!   with mid-run job injection, backfill/congestion-aware admission,
//!   recommend-fed placement and per-tenant SLO metrics.
//! * [`sweep`] — runs placement x routing grids and message-scale sweeps,
//!   parallelizing across simulations with scoped threads.
//! * [`report`] — config labels (`cont-min` ... `rand-adp`) and result
//!   summaries in the paper's terms.

#![warn(missing_docs)]

pub mod config;
pub mod mpi;
pub mod multijob;
pub mod recommend;
pub mod report;
pub mod runner;
pub mod scheduler;
pub mod service;
pub mod sweep;
pub mod validate;
pub mod variability;

pub use config::{AppSelection, BackgroundConfig, ExperimentConfig, RoutingPolicy};
pub use mpi::{JobResult, LoadSeries, MpiDriver, MultiDriver};
pub use multijob::{run_multijob, JobSpec, MultiJobConfig, MultiJobResult};
pub use recommend::{recommend, CommIntensity, Recommendation};
pub use report::ConfigLabel;
pub use runner::{execute_experiment, prepare_topology, run_experiment, ExperimentResult};
pub use scheduler::{run_schedule, ScheduleResult, SchedulerConfig, Submission};
pub use service::{
    run_service, tenant_slos, AdmissionPolicy, PlacementChoice, ServiceConfig, ServiceJob,
    ServiceResult, ServiceSim, ServiceSubmission, ServiceWorkload, TenantSlo,
};
pub use sweep::{run_config_grid, GridResult};
pub use variability::{measure_variability, VariabilityReport};
