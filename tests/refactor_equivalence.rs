//! The shared-topology sweep path must be a pure optimization: running a
//! grid through `run_config_grid` (one `Arc<Topology>` shared by every
//! cell and worker) must produce bit-identical results to building a
//! fresh topology per cell, the way the runner did before the refactor.

use dragonfly_tradeoff::core::config::ExperimentConfig;
use dragonfly_tradeoff::core::report::ConfigLabel;
use dragonfly_tradeoff::core::runner::{execute_experiment, prepare_topology, ExperimentResult};
use dragonfly_tradeoff::core::sweep::run_config_grid;
use dragonfly_tradeoff::topology::Topology;
use std::sync::Arc;

fn grid_base() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small_test();
    cfg.msg_scale = 0.1;
    cfg
}

/// The pre-refactor per-cell path: a fresh `Topology::build` for every
/// experiment, run strictly sequentially.
fn run_fresh_per_cell(base: &ExperimentConfig, labels: &[ConfigLabel]) -> Vec<ExperimentResult> {
    labels
        .iter()
        .map(|l| {
            let mut cfg = base.clone();
            cfg.placement = l.placement;
            cfg.routing = l.routing;
            let topo = Arc::new(Topology::build(cfg.topology.clone()));
            execute_experiment(&cfg, topo)
        })
        .collect()
}

#[test]
fn shared_topology_grid_matches_fresh_per_cell() {
    let base = grid_base();
    let labels = ConfigLabel::all_ten();

    let fresh = run_fresh_per_cell(&base, &labels);
    let shared = run_config_grid(&base, &labels);

    assert_eq!(fresh.len(), shared.len());
    for (f, g) in fresh.iter().zip(&shared) {
        assert_eq!(f.config.placement, g.label.placement);
        assert_eq!(f.config.routing, g.label.routing);
        let s = &g.result;
        assert_eq!(f.placement, s.placement, "{}", g.label);
        assert_eq!(f.rank_comm_times, s.rank_comm_times, "{}", g.label);
        assert_eq!(f.rank_avg_hops, s.rank_avg_hops, "{}", g.label);
        assert_eq!(f.job_end, s.job_end, "{}", g.label);
        assert_eq!(f.events, s.events, "{}", g.label);
        assert_eq!(f.app_routers, s.app_routers, "{}", g.label);
        // Full per-channel metrics snapshots, channel by channel.
        let fm: Vec<_> = f.metrics.channels().collect();
        let sm: Vec<_> = s.metrics.channels().collect();
        assert_eq!(fm, sm, "metrics diverge under {}", g.label);
    }
}

#[test]
fn one_shared_arc_serves_every_cell() {
    // All ten cells share the same machine, so run_many must build the
    // topology exactly once; preparing any one cell yields an equal (but
    // separately built) topology.
    let base = grid_base();
    let topo = prepare_topology(&base);
    let mut cfg = base.clone();
    cfg.placement = ConfigLabel::all_ten()[3].placement;
    cfg.routing = ConfigLabel::all_ten()[3].routing;
    // Sharing the base topology across a different placement/routing cell
    // is exactly what the sweep does.
    let via_shared = execute_experiment(&cfg, topo.clone());
    let via_fresh = execute_experiment(&cfg, prepare_topology(&cfg));
    assert_eq!(via_shared.placement, via_fresh.placement);
    assert_eq!(via_shared.rank_comm_times, via_fresh.rank_comm_times);
}

#[test]
fn full_grid_is_audit_clean() {
    // The conservation auditor across the whole 10-cell placement x
    // routing grid: force audits on (they default off in release) and
    // require every cell to come back violation-free.
    let mut base = grid_base();
    base.network.audit = true;
    let results = run_config_grid(&base, &ConfigLabel::all_ten());
    assert_eq!(results.len(), 10);
    for g in &results {
        let rep = g.result.audit.as_ref().expect("audit was enabled");
        assert!(rep.is_clean(), "audit violations under {}:\n{rep}", g.label);
        assert!(rep.events_audited > 0, "{} audited nothing", g.label);
        assert!(rep.full_sweeps > 0, "{} never swept", g.label);
    }
}

#[test]
#[should_panic(expected = "different TopologyConfig")]
fn execute_rejects_mismatched_topology() {
    let base = grid_base();
    let topo = prepare_topology(&base);
    let mut other = base.clone();
    other.topology.nodes_per_router += 1;
    let _ = execute_experiment(&other, topo);
}

/// The `PathPolicy`-trait rewrite of the route computer must be a pure
/// refactor for the three historical policies: a frozen copy of the
/// pre-trait `compute` / `compute_adaptive` / Valiant-loop algorithms,
/// fed the identical RNG stream, must agree route for route (same
/// channels, same order, same RNG consumption) under a congested
/// occupancy signal.
#[test]
fn routing_trait_matches_frozen_pre_refactor_algorithms() {
    use dragonfly_tradeoff::engine::Xoshiro256;
    use dragonfly_tradeoff::network::routing::{RouteComputer, Routing};
    use dragonfly_tradeoff::network::NetworkParams;
    use dragonfly_tradeoff::topology::{paths, ChannelId, NodeId, TopologyConfig};

    let topo = Topology::build(TopologyConfig::small_test());
    let params = NetworkParams::default();
    let occ = |c: ChannelId| (c.0 as u64 * 131) % 9000;

    for routing in [Routing::Minimal, Routing::Adaptive, Routing::Valiant] {
        for seed in [42u64, 0x5EED, 7] {
            let mut modern = RouteComputer::new(routing, Xoshiro256::seed_from(seed));
            let mut rng = Xoshiro256::seed_from(seed);
            let mut scratch: Vec<ChannelId> = Vec::new();
            let mut best: Vec<ChannelId> = Vec::new();
            for i in 0..200u32 {
                let s = NodeId(i % topo.config().total_nodes());
                let d = NodeId((i * 29 + 3) % topo.config().total_nodes());
                let src_r = topo.node_router(s);
                let dst_r = topo.node_router(d);

                // --- frozen pre-refactor algorithm ---
                let mut legacy: Vec<ChannelId> = Vec::new();
                match routing {
                    Routing::Minimal => {
                        paths::push_minimal(&topo, src_r, dst_r, &mut rng, &mut legacy);
                    }
                    Routing::Valiant => loop {
                        scratch.clear();
                        let inter = paths::random_intermediate(&topo, &mut rng);
                        paths::push_minimal(&topo, src_r, inter, &mut rng, &mut scratch);
                        paths::push_minimal(&topo, inter, dst_r, &mut rng, &mut scratch);
                        if scratch.len() <= paths::MAX_ROUTER_HOPS {
                            legacy.extend_from_slice(&scratch);
                            break;
                        }
                    },
                    Routing::Adaptive => {
                        let score = |cand: &[ChannelId], bias: u64| -> u64 {
                            let hops = cand.len() as u64;
                            let first = cand.first().map(|&c| occ(c)).unwrap_or(0);
                            first.saturating_mul(hops).saturating_add(bias)
                        };
                        let mut best_score = u64::MAX;
                        best.clear();
                        for _ in 0..2 {
                            scratch.clear();
                            paths::push_minimal(&topo, src_r, dst_r, &mut rng, &mut scratch);
                            let sc = score(&scratch, 0);
                            if sc < best_score {
                                best_score = sc;
                                std::mem::swap(&mut best, &mut scratch);
                            }
                        }
                        for _ in 0..2 {
                            let inter = paths::random_intermediate(&topo, &mut rng);
                            scratch.clear();
                            paths::push_minimal(&topo, src_r, inter, &mut rng, &mut scratch);
                            paths::push_minimal(&topo, inter, dst_r, &mut rng, &mut scratch);
                            if scratch.len() <= paths::MAX_ROUTER_HOPS {
                                let sc = score(&scratch, params.adaptive_bias_bytes);
                                if sc < best_score {
                                    best_score = sc;
                                    std::mem::swap(&mut best, &mut scratch);
                                }
                            }
                        }
                        legacy.extend_from_slice(&best);
                    }
                    _ => unreachable!(),
                }

                // --- trait-based computer ---
                let mut modern_route = Vec::new();
                modern.compute(&topo, &params, s, d, occ, &mut modern_route);

                assert_eq!(
                    legacy,
                    modern_route,
                    "{} diverged from the pre-refactor algorithm at packet {i} (seed {seed:#x})",
                    routing.label()
                );
            }
        }
    }
}
