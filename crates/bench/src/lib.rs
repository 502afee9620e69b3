//! # dfly-bench
//!
//! The reproduction harness: one binary per table/figure of the paper
//! (see `DESIGN.md` section 6 for the full index) plus benchmarks over
//! every subsystem, run by the in-tree [`microbench`] harness (no
//! Criterion — the workspace builds with zero external dependencies).
//!
//! Every binary accepts:
//!
//! * `--quick` (default) — the 768-node machine with proportionally scaled
//!   apps; minutes of wall-clock, same qualitative shapes.
//! * `--full` — the paper's 3,456-node Theta machine and app sizes.
//! * `--out DIR` — where CSV artifacts go (default `results/`).
//! * `--obs` — collect telemetry (`dfly-obs`) and emit `obs_*.csv` sinks.
//! * `--scale X` — extra message-size multiplier (golden tests use it).
//!
//! The shared plumbing lives here; the binaries are thin.

pub mod harness;
pub mod microbench;
pub mod routing_comparison;
pub mod stress;

pub mod figures;
pub use harness::{
    emit_cdf_family, emit_obs_family, git_rev, label_of, parse_args, parse_arrangement,
    print_boxplot_table, print_run_summary, scaled_ranks, Mode, RunArgs, TopoSpec,
};
pub use microbench::{BatchSize, Bencher, BenchmarkGroup, Criterion};
