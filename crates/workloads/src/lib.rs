//! # dfly-workloads
//!
//! Synthetic communication workloads reproducing the three DOE Design
//! Forward miniapps the paper traces (Section III-A), plus the synthetic
//! background traffic of the external-interference study (Section IV-C).
//!
//! The original study replays DUMPI traces; those traces are not
//! redistributable, so this crate generates traces with the *published*
//! structure instead (see `DESIGN.md`, substitution table):
//!
//! * **CR (Crystal Router, 1000 ranks)** — multistage many-to-many
//!   (hypercube-style stages) plus neighborhood exchanges; steady ~190 KB
//!   message load.
//! * **FB (Fill Boundary, 1000 ranks)** — 10x10x10 3-D domain decomposition
//!   with periodic boundary halo exchange plus scattered many-to-many;
//!   strongly fluctuating 100 KB–2560 KB loads.
//! * **AMG (1728 ranks)** — 12x12x12 regional communication with up to six
//!   neighbors over multigrid levels of geometrically decreasing message
//!   size; three short surges, peak 75 KB.
//!
//! Every generator takes a `msg_scale` factor — the knob of the paper's
//! sensitivity study (Figure 7) — and a seed. Figure 2's communication
//! matrices and load-over-time series are regenerated from these traces by
//! [`matrix::CommMatrix`] so the structural match with the paper is
//! directly inspectable.

#![warn(missing_docs)]

pub mod apps;
pub mod arrivals;
pub mod background;
pub mod matrix;
pub mod patterns;
pub mod trace;
pub mod traceio;

pub use apps::{check_msg_scale, generate, AppKind, WorkloadSpec};
pub use arrivals::{
    parse_arrivals, poisson_arrivals, runtime_estimate, tenant_label, Arrival, ArrivalKind,
    ArrivalPlan,
};
pub use background::{BackgroundKind, BackgroundSpec, BackgroundTraffic, BgMessage};
pub use matrix::{load_over_phases, CommMatrix};
pub use patterns::{generate_pattern, Pattern, PatternSpec};
pub use trace::{JobTrace, Phase, RankProgram, SendOp};
pub use traceio::{read_trace, trace_from_str, trace_to_string, write_trace};
