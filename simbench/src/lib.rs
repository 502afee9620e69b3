//! The simulator's benchmark: four workloads replayed through the public
//! API, timed end to end and per layer, their outputs checked on every
//! run. `BENCHMARK.json` at the repository root lists the workloads and
//! metrics; `simbench/NOTES.md` records why each workload was chosen and
//! which end-to-end metric each layer metric should move.

pub mod check;
pub mod host;
pub mod probe;
pub mod trace;
pub mod workload;

/// A reported metric: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// `layer.quantity`, matching `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Host-side metrics of one untraced run, reported as medians over the
/// runs of one benchmark invocation. The times are scaled to the
/// reference host speed measured by [`probe`]; the unscaled times are the
/// per-layer `host.*` metrics.
pub const END_TO_END: [Metric; 4] = [
    m("wall_s", "s"),
    m("setup_s", "s"),
    m("cpu_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced runs. Times are span self times; a
/// layer the workload never calls reads 0.
pub const PER_LAYER: [Metric; 37] = [
    m("core.config.validate_s", "s"),
    m("topology.build_s", "s"),
    m("placement.allocate_s", "s"),
    m("workloads.generate_s", "s"),
    m("workloads.messages", "count"),
    m("network.new_s", "s"),
    m("network.new_rss_mb", "MB"),
    m("network.bytes_per_channel", "B"),
    m("core.mpi.run_s", "s"),
    m("network.events", "count"),
    m("network.ns_per_event", "ns"),
    m("network.shard.finish_s", "s"),
    m("network.metrics_s", "s"),
    m("network.metrics_rss_mb", "MB"),
    m("obs.report_s", "s"),
    m("obs.sample_windows", "count"),
    m("obs.events.inject", "count"),
    m("obs.events.tx_done", "count"),
    m("obs.events.arrive", "count"),
    m("obs.events.wakeup", "count"),
    m("stats.cdf_s", "s"),
    m("core.service.step_ms.p50", "ms"),
    m("core.service.step_ms.p90", "ms"),
    m("core.service.steps", "count"),
    m("core.service.drain_s", "s"),
    m("core.service.jobs_completed", "count"),
    m("core.service.peak_active_jobs", "count"),
    m("core.service.job_slots", "count"),
    m("bench.check_s", "s"),
    m("trace.wall_s", "s"),
    m("trace.unattributed_s", "s"),
    m("trace.overhead_s", "s"),
    m("host.cores", "count"),
    m("host.wall_s", "s"),
    m("host.setup_s", "s"),
    m("host.cpu_s", "s"),
    m("host.probe_s", "s"),
];

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile of `values` at `q` in `[0, 1]`; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
