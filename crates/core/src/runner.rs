//! End-to-end experiment execution.
//!
//! Every run builds its network cold, through [`Network::new`] or
//! [`ShardedNetwork::new`] as [`Parallelism`](crate::config::Parallelism)
//! picks, configured by the experiment's
//! [`NetworkParams`](dfly_network::NetworkParams); no state outlives the
//! run but the shared topology.

use crate::config::{ExperimentConfig, SeedStreams};
use crate::mpi::{BackgroundRunner, MpiDriver};
use dfly_engine::Ns;
use dfly_network::{
    AuditReport, ChannelSnapshot, MetricsFilter, Network, NetworkMetrics, ShardedNetwork,
};
use dfly_obs::ObsReport;
use dfly_placement::NodePool;
use dfly_stats::{BoxStats, Cdf};
use dfly_topology::{ChannelClass, NodeId, RouterId, Topology};
use dfly_workloads::{generate, BackgroundTraffic};
use std::collections::HashSet;
use std::sync::Arc;

/// Everything one experiment produced.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The configuration that produced this result.
    pub config: ExperimentConfig,
    /// Node each rank ran on.
    pub placement: Vec<NodeId>,
    /// Per-rank communication time.
    pub rank_comm_times: Vec<Ns>,
    /// Per-rank average packet hops.
    pub rank_avg_hops: Vec<f64>,
    /// Channel traffic / saturation snapshot at job completion.
    pub metrics: NetworkMetrics,
    /// Routers serving the application's nodes (the Figures 8–10 filter).
    pub app_routers: HashSet<RouterId>,
    /// Job completion time.
    pub job_end: Ns,
    /// Simulator events processed (throughput metric).
    pub events: u64,
    /// Background messages injected (0 without background).
    pub background_messages: u64,
    /// Conservation-audit report, when the network ran with
    /// [`NetworkParams::audit`](dfly_network::NetworkParams) enabled
    /// (`None` with audits off). A non-clean report means the packet
    /// engine corrupted its own invariants — see [`dfly_network::audit`].
    pub audit: Option<AuditReport>,
    /// Telemetry report, when the network ran with
    /// [`NetworkParams::obs`](dfly_network::NetworkParams) enabled
    /// (`None` with telemetry off): event-loop profile, per-class
    /// utilization samples, VC occupancy, UGAL decision counters.
    pub obs: Option<ObsReport>,
}

impl ExperimentResult {
    /// Per-rank communication times in milliseconds.
    pub fn comm_times_ms(&self) -> Vec<f64> {
        self.rank_comm_times.iter().map(|t| t.as_ms_f64()).collect()
    }

    /// Box-plot statistics of communication time (ms) — one box of
    /// Figure 3 / 8(a) / 9(a–b) / 10(a–b).
    pub fn comm_time_stats(&self) -> BoxStats {
        BoxStats::from_samples(&self.comm_times_ms()).expect("at least one rank")
    }

    /// The slowest rank's communication time.
    pub fn max_comm_time(&self) -> Ns {
        self.rank_comm_times
            .iter()
            .copied()
            .max()
            .unwrap_or(Ns::ZERO)
    }

    /// CDF of per-rank average hops — Figure 4(a).
    pub fn hops_cdf(&self) -> Cdf {
        Cdf::from_samples(self.rank_avg_hops.iter().copied())
    }

    /// Mean of the per-rank average hops.
    pub fn mean_hops(&self) -> f64 {
        if self.rank_avg_hops.is_empty() {
            return 0.0;
        }
        self.rank_avg_hops.iter().sum::<f64>() / self.rank_avg_hops.len() as f64
    }

    /// The metrics filter restricted to the app's routers (Figures 8–10).
    /// Borrows the result's router set — constructing one is free.
    pub fn app_filter(&self) -> MetricsFilter<'_> {
        MetricsFilter::Routers(&self.app_routers)
    }

    /// CDF of local-channel traffic in MB. Idle channels enter as one
    /// zero run (see [`NetworkMetrics::split`]), so the cost follows the
    /// channels that carried traffic, not the machine.
    pub fn local_traffic_mb_cdf(&self, filter: &MetricsFilter) -> Cdf {
        self.channel_cdf(filter, ChannelClass::is_local, |c| {
            c.traffic_bytes as f64 / 1e6
        })
    }

    /// CDF of global-channel traffic in MB.
    pub fn global_traffic_mb_cdf(&self, filter: &MetricsFilter) -> Cdf {
        let global = |c| c == ChannelClass::Global;
        self.channel_cdf(filter, global, |c| c.traffic_bytes as f64 / 1e6)
    }

    /// CDF of local-link saturation time in ms.
    pub fn local_saturation_ms_cdf(&self, filter: &MetricsFilter) -> Cdf {
        self.channel_cdf(filter, ChannelClass::is_local, |c| {
            c.saturated_time.as_ms_f64()
        })
    }

    /// CDF of global-link saturation time in ms.
    pub fn global_saturation_ms_cdf(&self, filter: &MetricsFilter) -> Cdf {
        let global = |c| c == ChannelClass::Global;
        self.channel_cdf(filter, global, |c| c.saturated_time.as_ms_f64())
    }

    fn channel_cdf(
        &self,
        filter: &MetricsFilter,
        classes: fn(ChannelClass) -> bool,
        value: fn(&ChannelSnapshot) -> f64,
    ) -> Cdf {
        let (idle, values) = self.metrics.split(filter, classes, value);
        Cdf::with_zeros(idle, values)
    }
}

/// Validate a configuration and build its topology, ready for
/// [`execute_experiment`].
///
/// Building the Theta-scale topology (864 routers, thousands of channels)
/// dominates the setup cost of small experiments; sweeps call this once
/// per *distinct* [`TopologyConfig`](dfly_topology::TopologyConfig) and
/// share the `Arc` across every grid cell and worker thread.
pub fn prepare_topology(config: &ExperimentConfig) -> Arc<Topology> {
    config.validate().expect("invalid experiment config");
    Arc::new(Topology::build(config.topology.clone()))
}

/// Run one experiment end to end (see [`run_experiment`]).
///
/// `topo` must have been built from `config.topology` — sharing a
/// prebuilt topology across cells must not change any result, and the
/// equivalence test in `tests/refactor_equivalence.rs` holds this path to
/// bit-identical output against a fresh per-cell build.
pub fn execute_experiment(config: &ExperimentConfig, topo: Arc<Topology>) -> ExperimentResult {
    config.validate().expect("invalid experiment config");
    assert_eq!(
        topo.config(),
        &config.topology,
        "topology was built from a different TopologyConfig"
    );

    let seeds = SeedStreams::new(config.seed);
    let mut placement_rng = seeds.placement;

    // Placement, then the rank-to-node arrangement within it.
    let mut pool = NodePool::new(&topo);
    let allocation = config
        .placement
        .allocate(&topo, &mut pool, config.app.ranks(), &mut placement_rng)
        .expect("validated config cannot over-allocate");
    let placement = config.mapping.arrange(
        &allocation,
        config.topology.nodes_per_router,
        &mut placement_rng,
    );

    // Workload.
    let trace = generate(&config.app.spec(config.msg_scale, seeds.workload));

    // Background job on the complement nodes.
    let background = config.background.as_ref().map(|bg| {
        let mut spec = bg.spec;
        spec.seed = seeds.background;
        let bg_nodes = pool.free_nodes();
        BackgroundRunner::new(
            BackgroundTraffic::new(spec, bg_nodes.len() as u32),
            bg_nodes,
        )
    });

    let (result, metrics, audit, obs, events) = match config.parallelism.workers(&config.topology) {
        None => {
            // The legacy serial event loop — the golden-run reference
            // path, byte-identical to earlier single-thread releases.
            let mut net = Network::new(topo.clone(), config.network, config.routing, seeds.routing);
            let result = MpiDriver::new(&mut net, &trace, &placement, background).run();
            let metrics = net.metrics();
            let audit = net.audit_report();
            let obs = net.obs_report();
            let events = net.events_processed();
            (result, metrics, audit, obs, events)
        }
        Some(n) => {
            // Per-group PDES sharding.
            let mut net = ShardedNetwork::new(
                topo.clone(),
                config.network,
                config.routing,
                seeds.routing,
                n,
            );
            let result = MpiDriver::new(&mut net, &trace, &placement, background).run();
            let mut parts = net.finish();
            let metrics = parts.metrics();
            let audit = parts.audit_report();
            let obs = parts.obs_report();
            let events = parts.events();
            (result, metrics, audit, obs, events)
        }
    };
    let app_routers: HashSet<RouterId> = placement.iter().map(|&n| topo.node_router(n)).collect();

    ExperimentResult {
        config: config.clone(),
        placement,
        rank_comm_times: result.rank_comm_time,
        rank_avg_hops: result.rank_avg_hops,
        metrics,
        app_routers,
        job_end: result.job_end,
        events,
        background_messages: result.background_messages,
        audit,
        obs,
    }
}

/// Run one experiment end to end: [`prepare_topology`] +
/// [`execute_experiment`]. The convenience path for a single run; sweeps
/// prepare once and execute many times.
///
/// Seeding: every random stream derives from `config.seed` through
/// [`SeedStreams`].
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentResult {
    let topo = prepare_topology(config);
    execute_experiment(config, topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AppSelection, BackgroundConfig, Parallelism};
    use dfly_placement::PlacementPolicy;
    use dfly_workloads::BackgroundSpec;

    fn small(
        placement: PlacementPolicy,
        routing: crate::config::RoutingPolicy,
    ) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::small_test();
        cfg.placement = placement;
        cfg.routing = routing;
        cfg.msg_scale = 0.1;
        cfg
    }

    #[test]
    fn basic_run_produces_complete_result() {
        let cfg = small(
            PlacementPolicy::Contiguous,
            crate::config::RoutingPolicy::Minimal,
        );
        let r = run_experiment(&cfg);
        assert_eq!(r.rank_comm_times.len(), 16);
        assert_eq!(r.placement.len(), 16);
        assert!(r.job_end > Ns::ZERO);
        assert!(r.events > 0);
        assert!(r.max_comm_time() >= r.rank_comm_times[0]);
        assert!(!r.app_routers.is_empty());
        let stats = r.comm_time_stats();
        assert!(stats.max >= stats.median && stats.median >= stats.min);
        // Audits default on in debug builds (off in release); when they
        // ran, the engine must have kept every conservation invariant.
        assert_eq!(r.audit.is_some(), cfg!(debug_assertions));
        if let Some(rep) = &r.audit {
            assert!(rep.is_clean(), "audit violations:\n{rep}");
            assert!(rep.events_audited > 0);
        }
    }

    #[test]
    fn obs_report_surfaces_through_result() {
        let mut cfg = small(
            PlacementPolicy::Contiguous,
            crate::config::RoutingPolicy::Adaptive,
        );
        assert!(!cfg.network.obs, "telemetry must be opt-in");
        cfg.network.obs = true;
        let r = run_experiment(&cfg);
        let obs = r.obs.as_ref().expect("obs on");
        assert_eq!(obs.profile.total_events(), r.events);
        assert!(!obs.series.samples().is_empty());
        assert!(obs.route.total() > 0, "adaptive run records decisions");

        let off = run_experiment(&small(
            PlacementPolicy::Contiguous,
            crate::config::RoutingPolicy::Adaptive,
        ));
        assert!(off.obs.is_none(), "no report without opt-in");
    }

    #[test]
    fn contiguous_fewer_hops_than_random() {
        let cont = run_experiment(&small(
            PlacementPolicy::Contiguous,
            crate::config::RoutingPolicy::Minimal,
        ));
        let rand = run_experiment(&small(
            PlacementPolicy::RandomNode,
            crate::config::RoutingPolicy::Minimal,
        ));
        assert!(
            cont.mean_hops() < rand.mean_hops(),
            "cont {} vs rand {}",
            cont.mean_hops(),
            rand.mean_hops()
        );
    }

    #[test]
    fn adaptive_more_hops_than_minimal() {
        let min = run_experiment(&small(
            PlacementPolicy::Contiguous,
            crate::config::RoutingPolicy::Minimal,
        ));
        let adp = run_experiment(&small(
            PlacementPolicy::Contiguous,
            crate::config::RoutingPolicy::Adaptive,
        ));
        assert!(adp.mean_hops() >= min.mean_hops());
    }

    #[test]
    fn cdfs_cover_channel_population() {
        let r = run_experiment(&small(
            PlacementPolicy::RandomNode,
            crate::config::RoutingPolicy::Adaptive,
        ));
        let all = MetricsFilter::All;
        let local = r.local_traffic_mb_cdf(&all);
        let global = r.global_traffic_mb_cdf(&all);
        // Small machine: 8 routers/group x 4 groups; local channels =
        // 32*(3+1) = 128; global = 2*6 pairs*8 = 96.
        assert_eq!(local.len(), 128);
        assert_eq!(global.len(), 96);
        let app = r.app_filter();
        assert!(r.local_traffic_mb_cdf(&app).len() <= local.len());
    }

    /// The figure CDFs stream the sparse channel metrics into a zero run
    /// plus the active values: their storage follows the channels that
    /// carried load, yet each equals the CDF of every channel's value,
    /// and telemetry (obs) on changes neither them nor the simulation.
    #[test]
    fn streaming_mode_bounds_cdfs_without_perturbing_simulation() {
        let plain_cfg = small(
            PlacementPolicy::Contiguous,
            crate::config::RoutingPolicy::Minimal,
        );
        let mut obs_cfg = plain_cfg.clone();
        obs_cfg.network.obs = true;

        let p = run_experiment(&plain_cfg);
        let o = run_experiment(&obs_cfg);
        assert!(!o.obs.as_ref().expect("obs on").series.samples().is_empty());
        assert_eq!(p.rank_comm_times, o.rank_comm_times);
        assert_eq!(p.placement, o.placement);
        assert_eq!(p.job_end, o.job_end);

        let all = MetricsFilter::All;
        // Returns the idle channels of the classes `classes` accepts.
        let check = |classes: fn(ChannelClass) -> bool, cdf: Cdf, dense: Vec<f64>| {
            assert_eq!(cdf, Cdf::from_samples(dense.iter().map(|b| b / 1e6)));
            let (idle, active) = o.metrics.split(&all, classes, |c| c.traffic_bytes as f64);
            assert_eq!(idle + active.len(), dense.len());
            // Vec growth slack: capacity is at most max(4, 2 * len).
            let stored = (2 * active.len()).max(4);
            assert!(
                cdf.approx_bytes() <= std::mem::size_of::<Cdf>() + 8 * stored,
                "the CDF stores {} bytes for {} active channels",
                cdf.approx_bytes(),
                active.len()
            );
            idle
        };
        let idle_total = check(
            ChannelClass::is_local,
            o.local_traffic_mb_cdf(&all),
            o.metrics.local_traffic(&all),
        ) + check(
            |c| c == ChannelClass::Global,
            o.global_traffic_mb_cdf(&all),
            o.metrics.global_traffic(&all),
        );
        assert!(idle_total > 0, "no idle channel: the bound tests nothing");
        assert_eq!(o.local_traffic_mb_cdf(&all), p.local_traffic_mb_cdf(&all));
        assert_eq!(o.global_traffic_mb_cdf(&all), p.global_traffic_mb_cdf(&all));
    }

    #[test]
    fn results_deterministic_per_seed() {
        let cfg = small(
            PlacementPolicy::RandomChassis,
            crate::config::RoutingPolicy::Adaptive,
        );
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.rank_comm_times, b.rank_comm_times);
        assert_eq!(a.placement, b.placement);
        let mut cfg2 = cfg.clone();
        cfg2.seed ^= 1;
        let c = run_experiment(&cfg2);
        assert_ne!(a.placement, c.placement);
    }

    #[test]
    fn background_run_degrades_app() {
        let mut quiet = small(
            PlacementPolicy::RandomNode,
            crate::config::RoutingPolicy::Adaptive,
        );
        quiet.app = AppSelection::Amg { ranks: 8 };
        quiet.msg_scale = 1.0;
        let mut noisy = quiet.clone();
        noisy.background = Some(BackgroundConfig {
            spec: BackgroundSpec::uniform(64 * 1024, Ns::from_us(2), 0),
        });
        let q = run_experiment(&quiet);
        let n = run_experiment(&noisy);
        assert!(n.background_messages > 0);
        assert!(
            n.max_comm_time() > q.max_comm_time(),
            "noisy {} vs quiet {}",
            n.max_comm_time(),
            q.max_comm_time()
        );
    }

    #[test]
    fn intra_run_is_worker_count_invariant_and_audit_clean() {
        let mut base = small(
            PlacementPolicy::RandomNode,
            crate::config::RoutingPolicy::Adaptive,
        );
        base.network.audit = true;
        let mut runs = Vec::new();
        for n in [1u32, 2, 8] {
            let mut cfg = base.clone();
            cfg.parallelism = Parallelism::IntraRun(n);
            let r = run_experiment(&cfg);
            let audit = r.audit.as_ref().expect("audit on");
            assert!(audit.is_clean(), "workers={n}:\n{audit}");
            runs.push(r);
        }
        for r in &runs[1..] {
            assert_eq!(runs[0].rank_comm_times, r.rank_comm_times);
            assert_eq!(runs[0].rank_avg_hops, r.rank_avg_hops);
            assert_eq!(runs[0].job_end, r.job_end);
            assert_eq!(runs[0].events, r.events);
        }
        // Placement and hops structure match the serial path exactly
        // (same seed streams); only the packet schedule differs.
        let serial = run_experiment(&base);
        assert_eq!(serial.placement, runs[0].placement);
    }

    #[test]
    fn intra_run_obs_report_merges_across_shards() {
        let mut cfg = small(
            PlacementPolicy::RandomNode,
            crate::config::RoutingPolicy::Adaptive,
        );
        cfg.network.obs = true;
        cfg.parallelism = Parallelism::IntraRun(3);
        let r = run_experiment(&cfg);
        let obs = r.obs.as_ref().expect("obs on");
        assert_eq!(obs.profile.total_events(), r.events);
        assert!(!obs.series.samples().is_empty());
        assert!(obs.route.total() > 0);
    }

    #[test]
    fn intra_run_background_traffic_runs_clean() {
        let mut cfg = small(
            PlacementPolicy::RandomNode,
            crate::config::RoutingPolicy::Adaptive,
        );
        cfg.app = AppSelection::Amg { ranks: 8 };
        cfg.msg_scale = 1.0;
        cfg.network.audit = true;
        cfg.background = Some(BackgroundConfig {
            spec: BackgroundSpec::uniform(64 * 1024, Ns::from_us(2), 0),
        });
        cfg.parallelism = Parallelism::IntraRun(4);
        let r = run_experiment(&cfg);
        assert!(r.background_messages > 0);
        let audit = r.audit.as_ref().expect("audit on");
        assert!(audit.is_clean(), "{audit}");
    }

    #[test]
    fn routing_change_does_not_change_placement() {
        let a = run_experiment(&small(
            PlacementPolicy::RandomNode,
            crate::config::RoutingPolicy::Minimal,
        ));
        let b = run_experiment(&small(
            PlacementPolicy::RandomNode,
            crate::config::RoutingPolicy::Adaptive,
        ));
        assert_eq!(a.placement, b.placement);
    }
}
