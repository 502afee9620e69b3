//! Routing selection (paper Section III-C) and the route computer.
//!
//! All policies compute a packet's full route at injection time, as the
//! CODES dragonfly model does. The mechanics live in [`crate::policy`]
//! behind the [`PathPolicy`] trait; this module keeps the config-level
//! [`Routing`] selector (`Copy`/`Eq`/`Hash`, usable in sweep grids and
//! labels) and the [`RouteComputer`] that owns the per-run policy
//! instance, RNG stream, path buffers, and telemetry ledger.

use crate::params::NetworkParams;
use crate::policy::{
    ChannelView, MinimalPolicy, PathPolicy, Progressive, RouteCtx, UgalGlobal, UgalLocal,
    ValiantPolicy,
};
use dfly_engine::{Bytes, Xoshiro256};
use dfly_obs::RouteStats;
use dfly_topology::paths;
use dfly_topology::{ChannelId, NodeId, Topology};

/// Which routing mechanism packets use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Routing {
    /// Always take a minimal path.
    Minimal,
    /// UGAL-L: adaptive selection among minimal and non-minimal paths
    /// using the local (first-hop queue) congestion signal, as on Aries.
    Adaptive,
    /// Always route through a uniformly random intermediate router
    /// (Valiant load balancing) — the classic traffic-balancing extreme,
    /// used as an ablation baseline; the paper's configurations only use
    /// minimal and adaptive.
    Valiant,
    /// UGAL-G: the same candidates as `Adaptive`, scored with global
    /// queue knowledge (summed occupancy over the whole path).
    UgalG,
    /// PAR (progressive adaptive): a UGAL-L decision at the source,
    /// re-evaluated at the source group's gateway.
    Progressive,
}

impl Routing {
    /// Every selectable policy, for sweeps and fuzzers.
    pub const ALL: [Routing; 5] = [
        Routing::Minimal,
        Routing::Adaptive,
        Routing::Valiant,
        Routing::UgalG,
        Routing::Progressive,
    ];

    /// Short label used in config nomenclature and CSV/golden filenames.
    /// Reads the single-source constants on the policy types, so a label
    /// exists in exactly one place.
    pub fn label(self) -> &'static str {
        match self {
            Routing::Minimal => MinimalPolicy::LABEL,
            Routing::Adaptive => UgalLocal::LABEL,
            Routing::Valiant => ValiantPolicy::LABEL,
            Routing::UgalG => UgalGlobal::LABEL,
            Routing::Progressive => Progressive::LABEL,
        }
    }

    /// Parse a label back into a selector (inverse of [`Routing::label`]).
    pub fn from_label(label: &str) -> Option<Routing> {
        Routing::ALL.into_iter().find(|r| r.label() == label)
    }

    /// Instantiate the policy behind this selector. `Send` because
    /// sharded runs move the owning `Network` across worker threads.
    pub fn policy(self) -> Box<dyn PathPolicy + Send> {
        match self {
            Routing::Minimal => Box::new(MinimalPolicy),
            Routing::Adaptive => Box::new(UgalLocal),
            Routing::Valiant => Box::new(ValiantPolicy),
            Routing::UgalG => Box::new(UgalGlobal),
            Routing::Progressive => Box::new(Progressive),
        }
    }
}

/// Computes routes by delegating to a [`PathPolicy`]. Owns its RNG
/// stream so routing decisions don't perturb other randomized subsystems,
/// plus the persistent path buffers and the optional telemetry
/// ledger the policy borrows per decision.
pub struct RouteComputer {
    routing: Routing,
    policy: Box<dyn PathPolicy + Send>,
    rng: Xoshiro256,
    /// Persistent path buffers a policy borrows per decision (see
    /// [`RouteCtx`]), so the per-packet hot path allocates nothing.
    scratch: Vec<ChannelId>,
    best: Vec<ChannelId>,
    /// UGAL decision counters, recorded only when telemetry is on
    /// (`None` costs one branch per adaptive decision).
    stats: Option<RouteStats>,
}

impl RouteComputer {
    /// New route computer with its own RNG stream.
    pub fn new(routing: Routing, rng: Xoshiro256) -> RouteComputer {
        RouteComputer {
            routing,
            policy: routing.policy(),
            rng,
            scratch: Vec::with_capacity(paths::MAX_ROUTER_HOPS),
            best: Vec::with_capacity(paths::MAX_ROUTER_HOPS),
            stats: None,
        }
    }

    /// The policy selector in use.
    pub fn routing(&self) -> Routing {
        self.routing
    }

    /// Start recording UGAL decision counters (telemetry). Recording does
    /// not change which routes are chosen.
    pub fn enable_stats(&mut self) {
        self.stats = Some(RouteStats::new());
    }

    /// The recorded UGAL decision counters, if recording was enabled.
    pub fn stats(&self) -> Option<&RouteStats> {
        self.stats.as_ref()
    }

    /// Compute the router-to-router channel sequence for a packet from
    /// `src` to `dst` (terminal channels are added by the caller).
    ///
    /// `occupancy(channel)` must return the total queued bytes currently
    /// held at a channel; adaptive policies read it through a
    /// [`ChannelView`] as their congestion signal. Results are appended
    /// to `out`.
    pub fn compute(
        &mut self,
        topo: &Topology,
        params: &NetworkParams,
        src: NodeId,
        dst: NodeId,
        occupancy: impl Fn(ChannelId) -> Bytes,
        out: &mut Vec<ChannelId>,
    ) {
        let src_r = topo.node_router(src);
        let dst_r = topo.node_router(dst);
        let view = ChannelView::new(&occupancy);
        let mut ctx = RouteCtx {
            topo,
            params,
            rng: &mut self.rng,
            scratch: &mut self.scratch,
            best: &mut self.best,
            stats: self.stats.as_mut(),
        };
        self.policy.route(&mut ctx, src_r, dst_r, &view, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfly_topology::TopologyConfig;

    fn topo() -> Topology {
        Topology::build(TopologyConfig::small_test())
    }

    fn mk(routing: Routing) -> RouteComputer {
        RouteComputer::new(routing, Xoshiro256::seed_from(42))
    }

    #[test]
    fn labels() {
        assert_eq!(Routing::Minimal.label(), "min");
        assert_eq!(Routing::Adaptive.label(), "adp");
        assert_eq!(Routing::Valiant.label(), "val");
        assert_eq!(Routing::UgalG.label(), "ugalg");
        assert_eq!(Routing::Progressive.label(), "par");
    }

    #[test]
    fn labels_round_trip_and_stay_unique() {
        let mut seen = std::collections::HashSet::new();
        for r in Routing::ALL {
            assert!(seen.insert(r.label()), "duplicate label {}", r.label());
            assert_eq!(Routing::from_label(r.label()), Some(r));
            assert_eq!(r.policy().label(), r.label(), "enum/policy label drift");
        }
        assert_eq!(Routing::from_label("nope"), None);
    }

    #[test]
    fn minimal_routes_are_valid_and_short() {
        let t = topo();
        let params = NetworkParams::default();
        let mut rc = mk(Routing::Minimal);
        let n = t.config().total_nodes();
        for s in (0..n).step_by(7) {
            for d in (0..n).step_by(11) {
                let mut route = Vec::new();
                rc.compute(&t, &params, NodeId(s), NodeId(d), |_| 0, &mut route);
                let p = dfly_topology::Path {
                    channels: route.clone(),
                    kind: dfly_topology::RouteKind::Minimal,
                };
                assert!(paths::validate_path(
                    &t,
                    t.node_router(NodeId(s)),
                    t.node_router(NodeId(d)),
                    &p
                ));
                assert!(route.len() <= 5);
            }
        }
    }

    #[test]
    fn adaptive_idle_network_prefers_minimal() {
        // With zero occupancy everywhere the hop-cost term dominates, so
        // adaptive must stay near-minimal: at most one global hop for
        // cross-group pairs (rarely two, when a random intermediate
        // happens to lie on a genuinely shorter double-global path) and
        // never longer than the dragonfly minimal bound. Holds for every
        // adaptive-family policy.
        let t = topo();
        let params = NetworkParams::default();
        for routing in [Routing::Adaptive, Routing::UgalG, Routing::Progressive] {
            let mut rc = mk(routing);
            let mut rng = Xoshiro256::seed_from(7);
            let mut hops_total = 0usize;
            let n = 200;
            for _ in 0..n {
                let s = NodeId(rng.next_below(t.config().total_nodes() as u64) as u32);
                let d = NodeId(rng.next_below(t.config().total_nodes() as u64) as u32);
                let mut adaptive = Vec::new();
                rc.compute(&t, &params, s, d, |_| 0, &mut adaptive);
                assert!(
                    adaptive.len() <= 5,
                    "idle {} took {} hops",
                    routing.label(),
                    adaptive.len()
                );
                hops_total += adaptive.len();
            }
            // Average must be well inside the minimal regime (< 3 hops on
            // the small machine, where minimal averages ~2.5).
            assert!(
                (hops_total as f64 / n as f64) < 3.5,
                "idle {} average hops too high: {}",
                routing.label(),
                hops_total as f64 / n as f64
            );
        }
    }

    #[test]
    fn adaptive_detours_around_congested_first_hops() {
        // UGAL-L senses the source router's output queues. Congest every
        // minimal first hop (the channels adaptive uses when idle); the
        // chosen routes must then mostly start on other channels.
        let t = topo();
        let params = NetworkParams::default();
        // Intra-group pair sharing neither row nor column: the minimal
        // first hop is one of exactly two local channels, leaving the
        // source router's five other output channels as detour starts.
        let src = NodeId(0); // router (g0, row 0, col 0)
        let dst_router = t.router_at(dfly_topology::GroupId(0), 1, 3);
        let dst = t.router_nodes(dst_router).next().unwrap();

        // Observe the idle-network first hops (minimal candidates).
        let mut rc = mk(Routing::Adaptive);
        let mut minimal_first = std::collections::HashSet::new();
        for _ in 0..100 {
            let mut route = Vec::new();
            rc.compute(&t, &params, src, dst, |_| 0, &mut route);
            minimal_first.insert(route[0]);
        }
        assert!(minimal_first.len() <= 2);

        let mut rc = mk(Routing::Adaptive);
        let mut avoided = 0;
        let trials = 60;
        for _ in 0..trials {
            let mut route = Vec::new();
            rc.compute(
                &t,
                &params,
                src,
                dst,
                |c| {
                    if minimal_first.contains(&c) {
                        8 << 20
                    } else {
                        0
                    }
                },
                &mut route,
            );
            if !minimal_first.contains(&route[0]) {
                avoided += 1;
            }
        }
        // Detours require a non-minimal candidate whose first hop is
        // uncongested; with 2 random intermediates per packet that is the
        // common case but not guaranteed, hence a majority check.
        assert!(
            avoided > trials / 2,
            "adaptive avoided congested first hops only {avoided}/{trials}"
        );
    }

    #[test]
    fn every_policy_stays_within_bounds() {
        let t = topo();
        let params = NetworkParams::default();
        for routing in Routing::ALL {
            let mut rc = mk(routing);
            let mut rng = Xoshiro256::seed_from(3);
            for _ in 0..300 {
                let s = NodeId(rng.next_below(t.config().total_nodes() as u64) as u32);
                let d = NodeId(rng.next_below(t.config().total_nodes() as u64) as u32);
                let mut route = Vec::new();
                rc.compute(&t, &params, s, d, |c| (c.0 as u64 * 37) % 5000, &mut route);
                assert!(
                    route.len() <= paths::MAX_ROUTER_HOPS,
                    "{} exceeded hop budget",
                    routing.label()
                );
                let p = dfly_topology::Path {
                    channels: route,
                    kind: dfly_topology::RouteKind::NonMinimal,
                };
                assert!(
                    paths::validate_path(&t, t.node_router(s), t.node_router(d), &p),
                    "{} produced an invalid path",
                    routing.label()
                );
            }
        }
    }

    #[test]
    fn valiant_routes_valid_and_longer_on_average() {
        let t = topo();
        let params = NetworkParams::default();
        let mut val = mk(Routing::Valiant);
        let mut min = mk(Routing::Minimal);
        let mut rng = Xoshiro256::seed_from(15);
        let (mut v_hops, mut m_hops) = (0usize, 0usize);
        for _ in 0..200 {
            let s = NodeId(rng.next_below(t.config().total_nodes() as u64) as u32);
            let d = NodeId(rng.next_below(t.config().total_nodes() as u64) as u32);
            let mut rv = Vec::new();
            val.compute(&t, &params, s, d, |_| 0, &mut rv);
            let p = dfly_topology::Path {
                channels: rv.clone(),
                kind: dfly_topology::RouteKind::NonMinimal,
            };
            assert!(paths::validate_path(
                &t,
                t.node_router(s),
                t.node_router(d),
                &p
            ));
            v_hops += rv.len();
            let mut rm = Vec::new();
            min.compute(&t, &params, s, d, |_| 0, &mut rm);
            m_hops += rm.len();
        }
        assert!(v_hops > m_hops, "valiant {v_hops} !> minimal {m_hops}");
    }

    #[test]
    fn stats_recording_never_changes_routes() {
        let t = topo();
        let params = NetworkParams::default();
        let occ = |c: ChannelId| (c.0 as u64 * 131) % 9000;
        for routing in [Routing::Adaptive, Routing::UgalG, Routing::Progressive] {
            let mut plain = mk(routing);
            let mut recorded = mk(routing);
            recorded.enable_stats();
            for i in 0..200u32 {
                let s = NodeId(i % t.config().total_nodes());
                let d = NodeId((i * 29 + 3) % t.config().total_nodes());
                let mut ra = Vec::new();
                let mut rb = Vec::new();
                plain.compute(&t, &params, s, d, occ, &mut ra);
                recorded.compute(&t, &params, s, d, occ, &mut rb);
                assert_eq!(
                    ra,
                    rb,
                    "stats recording perturbed a {} route",
                    routing.label()
                );
            }
            let stats = recorded.stats().unwrap();
            assert_eq!(stats.total(), 200, "every adaptive decision recorded");
            assert!(plain.stats().is_none());
        }
    }

    #[test]
    fn stats_see_forced_detours_as_nonminimal() {
        // Congest everything 5-hops-cheap; with all first hops equally
        // loaded the bias keeps decisions minimal. Then congest only the
        // minimal first hops: recorded decisions must flip non-minimal.
        let t = topo();
        let params = NetworkParams::default();
        let src = NodeId(0);
        let dst_router = t.router_at(dfly_topology::GroupId(0), 1, 3);
        let dst = t.router_nodes(dst_router).next().unwrap();

        let mut rc = mk(Routing::Adaptive);
        let mut minimal_first = std::collections::HashSet::new();
        for _ in 0..100 {
            let mut route = Vec::new();
            rc.compute(&t, &params, src, dst, |_| 0, &mut route);
            minimal_first.insert(route[0]);
        }

        let mut rc = mk(Routing::Adaptive);
        rc.enable_stats();
        for _ in 0..60 {
            let mut route = Vec::new();
            rc.compute(
                &t,
                &params,
                src,
                dst,
                |c| {
                    if minimal_first.contains(&c) {
                        8 << 20
                    } else {
                        0
                    }
                },
                &mut route,
            );
        }
        let stats = rc.stats().unwrap();
        assert_eq!(stats.total(), 60);
        assert!(
            stats.nonminimal_taken > 30,
            "only {}/60 decisions non-minimal under forced congestion",
            stats.nonminimal_taken
        );
        assert!(stats.mean_margin() > 0.0);
    }

    #[test]
    fn ugal_g_senses_downstream_congestion_ugal_l_cannot_see() {
        // Congest only *global* channels. UGAL-L (first-hop signal, local
        // channels first) scores every candidate by its local first hop
        // and cannot tell them apart; UGAL-G sums the whole path, so its
        // chosen routes should accumulate less global-channel occupancy.
        let t = topo();
        let params = NetworkParams::default();
        let occ = |c: ChannelId| {
            if t.channel(c).class == dfly_topology::ChannelClass::Global {
                (c.0 as u64 * 7919) % 100_000
            } else {
                0
            }
        };
        let mut local = mk(Routing::Adaptive);
        let mut global = mk(Routing::UgalG);
        let (mut l_occ, mut g_occ) = (0u64, 0u64);
        let mut rng = Xoshiro256::seed_from(99);
        for _ in 0..400 {
            let s = NodeId(rng.next_below(t.config().total_nodes() as u64) as u32);
            let d = NodeId(rng.next_below(t.config().total_nodes() as u64) as u32);
            let mut rl = Vec::new();
            let mut rg = Vec::new();
            local.compute(&t, &params, s, d, occ, &mut rl);
            global.compute(&t, &params, s, d, occ, &mut rg);
            l_occ += rl.iter().map(|&c| occ(c)).sum::<u64>();
            g_occ += rg.iter().map(|&c| occ(c)).sum::<u64>();
        }
        assert!(
            g_occ < l_occ,
            "UGAL-G accumulated {g_occ} queued bytes vs UGAL-L {l_occ}"
        );
    }

    #[test]
    fn par_diverts_at_the_gateway_when_planned_global_is_congested() {
        // Cross-group pair on an idle network: PAR follows the minimal
        // winner. Congest the minimal global channels heavily: PAR must
        // start diverting through sibling gateways (its ledger records
        // those as non-minimal), while still producing valid paths.
        let t = topo();
        let params = NetworkParams::default();
        let src = NodeId(0);
        // A node in another group.
        let dst_router = t.router_at(dfly_topology::GroupId(1), 0, 0);
        let dst = t.router_nodes(dst_router).next().unwrap();

        // Collect the global channels idle PAR uses for this pair.
        let mut rc = mk(Routing::Progressive);
        let mut idle_globals = std::collections::HashSet::new();
        for _ in 0..100 {
            let mut route = Vec::new();
            rc.compute(&t, &params, src, dst, |_| 0, &mut route);
            for &c in &route {
                if t.channel(c).class == dfly_topology::ChannelClass::Global {
                    idle_globals.insert(c);
                }
            }
        }
        assert!(!idle_globals.is_empty());

        let mut rc = mk(Routing::Progressive);
        rc.enable_stats();
        let mut diverted = 0;
        let trials = 80;
        for _ in 0..trials {
            let mut route = Vec::new();
            rc.compute(
                &t,
                &params,
                src,
                dst,
                |c| {
                    if idle_globals.contains(&c) {
                        8 << 20
                    } else {
                        0
                    }
                },
                &mut route,
            );
            let p = dfly_topology::Path {
                channels: route.clone(),
                kind: dfly_topology::RouteKind::NonMinimal,
            };
            assert!(paths::validate_path(
                &t,
                t.node_router(src),
                t.node_router(dst),
                &p
            ));
            if route
                .iter()
                .any(|&c| t.channel(c).class == dfly_topology::ChannelClass::Global)
                && !route.iter().any(|&c| idle_globals.contains(&c))
            {
                diverted += 1;
            }
        }
        assert!(
            diverted > trials / 2,
            "PAR diverted only {diverted}/{trials} under forced gateway congestion"
        );
        let stats = rc.stats().unwrap();
        assert!(
            stats.nonminimal_taken > 0,
            "diversions must show on the ledger"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let t = topo();
        let params = NetworkParams::default();
        for routing in Routing::ALL {
            let mut a = mk(routing);
            let mut b = mk(routing);
            for i in 0..50u32 {
                let s = NodeId(i % t.config().total_nodes());
                let d = NodeId((i * 13) % t.config().total_nodes());
                let mut ra = Vec::new();
                let mut rb = Vec::new();
                a.compute(&t, &params, s, d, |_| 0, &mut ra);
                b.compute(&t, &params, s, d, |_| 0, &mut rb);
                assert_eq!(ra, rb, "{} not deterministic", routing.label());
            }
        }
    }

    #[test]
    fn trait_reimplementation_is_byte_identical_to_legacy_algorithms() {
        // Frozen reimplementation of the pre-trait `RouteComputer` match
        // (minimal / adaptive / valiant exactly as they were written),
        // plus UGAL-G and PAR as they ran while every candidate was built
        // in full, run against the trait-based computer with identical
        // seeds on two machines and two load patterns. This
        // is the in-crate half of the byte-identity contract; the
        // end-to-end half lives in tests/refactor_equivalence.rs.
        struct Legacy {
            rng: Xoshiro256,
            scratch: Vec<ChannelId>,
            best: Vec<ChannelId>,
        }
        impl Legacy {
            fn compute(
                &mut self,
                routing: Routing,
                topo: &Topology,
                params: &NetworkParams,
                src: NodeId,
                dst: NodeId,
                occupancy: impl Fn(ChannelId) -> Bytes,
                out: &mut Vec<ChannelId>,
            ) {
                let src_r = topo.node_router(src);
                let dst_r = topo.node_router(dst);
                let score = |candidate: &[ChannelId], bias: u64| -> u64 {
                    let hops = candidate.len() as u64;
                    let first = candidate.first().map(|&c| occupancy(c)).unwrap_or(0);
                    first.saturating_mul(hops).saturating_add(bias)
                };
                match routing {
                    Routing::Minimal => {
                        paths::push_minimal(topo, src_r, dst_r, &mut self.rng, out);
                    }
                    Routing::Valiant => loop {
                        self.scratch.clear();
                        let inter = paths::random_intermediate(topo, &mut self.rng);
                        paths::push_minimal(topo, src_r, inter, &mut self.rng, &mut self.scratch);
                        paths::push_minimal(topo, inter, dst_r, &mut self.rng, &mut self.scratch);
                        if self.scratch.len() <= paths::MAX_ROUTER_HOPS {
                            out.extend_from_slice(&self.scratch);
                            break;
                        }
                    },
                    Routing::Adaptive => {
                        let mut best_score = u64::MAX;
                        self.best.clear();
                        for _ in 0..2 {
                            self.scratch.clear();
                            paths::push_minimal(
                                topo,
                                src_r,
                                dst_r,
                                &mut self.rng,
                                &mut self.scratch,
                            );
                            let s = score(&self.scratch, 0);
                            if s < best_score {
                                best_score = s;
                                std::mem::swap(&mut self.best, &mut self.scratch);
                            }
                        }
                        for _ in 0..2 {
                            let inter = paths::random_intermediate(topo, &mut self.rng);
                            self.scratch.clear();
                            paths::push_minimal(
                                topo,
                                src_r,
                                inter,
                                &mut self.rng,
                                &mut self.scratch,
                            );
                            paths::push_minimal(
                                topo,
                                inter,
                                dst_r,
                                &mut self.rng,
                                &mut self.scratch,
                            );
                            if self.scratch.len() <= paths::MAX_ROUTER_HOPS {
                                let s = score(&self.scratch, params.adaptive_bias_bytes);
                                if s < best_score {
                                    best_score = s;
                                    std::mem::swap(&mut self.best, &mut self.scratch);
                                }
                            }
                        }
                        out.extend_from_slice(&self.best);
                    }
                    Routing::UgalG => {
                        self.ugal(true, topo, params, src_r, dst_r, &occupancy);
                        out.extend_from_slice(&self.best);
                    }
                    Routing::Progressive => {
                        let (best_min, best_non) =
                            self.ugal(false, topo, params, src_r, dst_r, &occupancy);
                        let sg = topo.router_group(src_r);
                        let dg = topo.router_group(dst_r);
                        if best_non < best_min || sg == dg {
                            out.extend_from_slice(&self.best);
                            return;
                        }
                        let global_at = self
                            .best
                            .iter()
                            .position(|&c| {
                                topo.channel_class(c) == dfly_topology::ChannelClass::Global
                            })
                            .unwrap();
                        let planned = self.best[global_at];
                        let gateway = topo.channel_owner(planned);
                        let mut alt: Option<(ChannelId, Bytes)> = None;
                        for &(ch, dst_group) in topo.router_global_channels(gateway) {
                            if ch == planned || dst_group == dg || dst_group == sg {
                                continue;
                            }
                            let occ = occupancy(ch);
                            if alt.is_none_or(|(_, best)| occ < best) {
                                alt = Some((ch, occ));
                            }
                        }
                        let Some((alt_ch, alt_occ)) = alt else {
                            out.extend_from_slice(&self.best);
                            return;
                        };
                        let planned_remaining = (self.best.len() - global_at) as u64;
                        let planned_cost = occupancy(planned).saturating_mul(planned_remaining);
                        self.scratch.clear();
                        self.scratch.extend_from_slice(&self.best[..global_at]);
                        self.scratch.push(alt_ch);
                        let entry = topo.channel(alt_ch).dst.router().unwrap();
                        paths::push_minimal(topo, entry, dst_r, &mut self.rng, &mut self.scratch);
                        let divert_remaining = (self.scratch.len() - global_at) as u64;
                        let divert_cost = alt_occ
                            .saturating_mul(divert_remaining)
                            .saturating_add(params.adaptive_bias_bytes);
                        if divert_cost < planned_cost
                            && self.scratch.len() <= paths::MAX_ROUTER_HOPS
                        {
                            out.extend_from_slice(&self.scratch);
                        } else {
                            out.extend_from_slice(&self.best);
                        }
                    }
                }
            }

            /// The UGAL candidate loop UGAL-G and PAR ran before their
            /// candidates were scored from plans: every candidate built
            /// in full, scored by its first hop x length (UGAL-L) or its
            /// summed occupancy (UGAL-G). Returns the best minimal and
            /// best non-minimal scores.
            fn ugal(
                &mut self,
                global: bool,
                topo: &Topology,
                params: &NetworkParams,
                src_r: dfly_topology::RouterId,
                dst_r: dfly_topology::RouterId,
                occupancy: &impl Fn(ChannelId) -> Bytes,
            ) -> (u64, u64) {
                let score = |candidate: &[ChannelId], bias: u64| -> u64 {
                    if global {
                        candidate
                            .iter()
                            .fold(0u64, |acc, &c| acc.saturating_add(occupancy(c)))
                            .saturating_add(bias)
                    } else {
                        let hops = candidate.len() as u64;
                        let first = candidate.first().map(|&c| occupancy(c)).unwrap_or(0);
                        first.saturating_mul(hops).saturating_add(bias)
                    }
                };
                let mut best_score = u64::MAX;
                let (mut best_min, mut best_non) = (u64::MAX, u64::MAX);
                self.best.clear();
                for _ in 0..2 {
                    self.scratch.clear();
                    paths::push_minimal(topo, src_r, dst_r, &mut self.rng, &mut self.scratch);
                    let s = score(&self.scratch, 0);
                    best_min = best_min.min(s);
                    if s < best_score {
                        best_score = s;
                        std::mem::swap(&mut self.best, &mut self.scratch);
                    }
                }
                for _ in 0..2 {
                    let inter = paths::random_intermediate(topo, &mut self.rng);
                    self.scratch.clear();
                    paths::push_minimal(topo, src_r, inter, &mut self.rng, &mut self.scratch);
                    paths::push_minimal(topo, inter, dst_r, &mut self.rng, &mut self.scratch);
                    if self.scratch.len() <= paths::MAX_ROUTER_HOPS {
                        let s = score(&self.scratch, params.adaptive_bias_bytes);
                        best_non = best_non.min(s);
                        if s < best_score {
                            best_score = s;
                            std::mem::swap(&mut self.best, &mut self.scratch);
                        }
                    }
                }
                (best_min, best_non)
            }
        }

        let params = NetworkParams::default();
        for t in [
            topo(),
            Topology::build(TopologyConfig::canonical(2, 8, 4, 17)),
        ] {
            // A scattered load, and one that congests only global
            // channels so PAR's gateway stage diverts.
            let scattered = |c: ChannelId| (c.0 as u64 * 97) % 12_345;
            let globals = |c: ChannelId| {
                if t.channel_class(c) == dfly_topology::ChannelClass::Global {
                    (c.0 as u64 * 7919) % 200_000
                } else {
                    (c.0 as u64 * 13) % 700
                }
            };
            let loads: [&dyn Fn(ChannelId) -> Bytes; 2] = [&scattered, &globals];
            for routing in Routing::ALL {
                for occ in loads {
                    let mut legacy = Legacy {
                        rng: Xoshiro256::seed_from(42),
                        scratch: Vec::new(),
                        best: Vec::new(),
                    };
                    let mut modern = mk(routing);
                    for i in 0..300u32 {
                        let s = NodeId(i % t.config().total_nodes());
                        let d = NodeId((i * 31 + 5) % t.config().total_nodes());
                        let mut ra = Vec::new();
                        let mut rb = Vec::new();
                        legacy.compute(routing, &t, &params, s, d, occ, &mut ra);
                        modern.compute(&t, &params, s, d, occ, &mut rb);
                        assert_eq!(ra, rb, "{} diverged from legacy", routing.label());
                    }
                }
            }
        }
    }
}
