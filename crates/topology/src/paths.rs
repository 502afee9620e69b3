//! Router-level path construction.
//!
//! A path is the ordered list of router-to-router channels a packet
//! traverses (terminal injection/ejection channels are added by the network
//! layer). Minimal paths follow the paper's Section III-C:
//!
//! * within a group: source router, at most one intermediate router when
//!   source and destination share neither row nor column, destination;
//! * across groups: local hops to a gateway holding a global link directly
//!   connected to the destination group, the global hop, then local hops.
//!
//! Non-minimal paths (used by adaptive routing) route minimally to a
//! randomly selected intermediate router anywhere in the machine, then
//! minimally to the destination (Valiant-style).

use crate::ids::{ChannelId, RouterId};
use crate::topology::Topology;
use dfly_engine::Xoshiro256;

/// Whether a path is minimal or detours through an intermediate router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    /// Shortest path.
    Minimal,
    /// Valiant-style detour through a random intermediate router.
    NonMinimal,
}

/// A router-level path: the channels crossed between the source router and
/// the destination router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Ordered router-to-router channels.
    pub channels: Vec<ChannelId>,
    /// Minimal or non-minimal.
    pub kind: RouteKind,
}

impl Path {
    /// Number of router-to-router hops (the paper's "average hops" metric
    /// counts intermediate router traversals; equivalently, channels here).
    pub fn hops(&self) -> usize {
        self.channels.len()
    }
}

/// The shape of an intra-group minimal leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Turn {
    /// Source and destination are the same router: no hop.
    Stay,
    /// Same row: one row hop.
    Row,
    /// Same column: one column hop.
    Col,
    /// Row hop to the destination's column, then column hop.
    RowFirst,
    /// Column hop to the destination's row, then row hop.
    ColFirst,
}

/// A drawn intra-group minimal leg: its endpoints' coordinates and the
/// turn it takes. Holds every random draw the leg needs, so it builds
/// without the RNG.
#[derive(Debug, Clone, Copy)]
struct Leg {
    src: RouterId,
    group: u32,
    src_row: u32,
    src_col: u32,
    dst_row: u32,
    dst_col: u32,
    turn: Turn,
}

impl Leg {
    /// Draw the leg from `src` to `dst` (same group), as
    /// [`push_intra_group`] describes.
    #[inline]
    fn draw(topo: &Topology, src: RouterId, dst: RouterId, rng: &mut Xoshiro256) -> Leg {
        debug_assert_eq!(topo.router_group(src), topo.router_group(dst));
        let (g, src_row, src_col) = topo.router_coords(src);
        let (_, dst_row, dst_col) = topo.router_coords(dst);
        let turn = if src == dst {
            Turn::Stay
        } else if src_row == dst_row {
            Turn::Row
        } else if src_col == dst_col {
            Turn::Col
        } else if rng.chance(0.5) {
            Turn::RowFirst
        } else {
            Turn::ColFirst
        };
        Leg {
            src,
            group: g.0,
            src_row,
            src_col,
            dst_row,
            dst_col,
            turn,
        }
    }

    /// Router-to-router hops.
    #[inline]
    fn hops(&self) -> usize {
        match self.turn {
            Turn::Stay => 0,
            Turn::Row | Turn::Col => 1,
            Turn::RowFirst | Turn::ColFirst => 2,
        }
    }

    /// The leg's first channel, if it has a hop.
    #[inline]
    fn first(&self, topo: &Topology) -> Option<ChannelId> {
        match self.turn {
            Turn::Stay => None,
            Turn::Row | Turn::RowFirst => Some(topo.row_link(self.src, self.src_col, self.dst_col)),
            Turn::Col | Turn::ColFirst => Some(topo.col_link(self.src, self.src_row, self.dst_row)),
        }
    }

    /// Append the leg's channels onto `out`.
    #[inline]
    fn push(&self, topo: &Topology, out: &mut Vec<ChannelId>) {
        out.extend(self.first(topo));
        let g = crate::GroupId(self.group);
        match self.turn {
            Turn::RowFirst => {
                // (src_row, src_col) -> (src_row, dst_col) -> dst.
                let mid = topo.router_at(g, self.src_row, self.dst_col);
                out.push(topo.col_link(mid, self.src_row, self.dst_row));
            }
            Turn::ColFirst => {
                // (src_row, src_col) -> (dst_row, src_col) -> dst.
                let mid = topo.router_at(g, self.dst_row, self.src_col);
                out.push(topo.row_link(mid, self.src_col, self.dst_col));
            }
            Turn::Stay | Turn::Row | Turn::Col => {}
        }
    }
}

/// Append the (0, 1 or 2 hop) intra-group minimal path from `src` to `dst`
/// onto `out`. When both a row-first and a column-first two-hop route
/// exist, one is chosen uniformly at random — this matches hardware
/// behaviour where the two intermediate candidates are load-spread.
pub fn push_intra_group(
    topo: &Topology,
    src: RouterId,
    dst: RouterId,
    rng: &mut Xoshiro256,
    out: &mut Vec<ChannelId>,
) {
    Leg::draw(topo, src, dst, rng).push(topo, out);
}

/// A minimal path's random draws, made in [`push_minimal`]'s order, with
/// what scoring it as an adaptive-routing candidate reads — its hop count
/// and first channel — available without building it. Building it later
/// ([`MinimalPlan::push`]) draws nothing, so a caller can plan several
/// candidates, build only the winner, and consume the RNG exactly as if
/// it had built them all.
#[derive(Debug, Clone, Copy)]
pub struct MinimalPlan {
    /// The whole path inside one group, or the leg to the gateway.
    head: Leg,
    /// Between groups: the drawn global channel and the leg from its far
    /// end to the destination.
    tail: Option<(ChannelId, Leg)>,
}

impl MinimalPlan {
    /// Draw a minimal path from `src` to `dst` (any groups).
    #[inline]
    pub fn draw(
        topo: &Topology,
        src: RouterId,
        dst: RouterId,
        rng: &mut Xoshiro256,
    ) -> MinimalPlan {
        let sg = topo.router_group(src);
        let dg = topo.router_group(dst);
        if sg == dg {
            return MinimalPlan {
                head: Leg::draw(topo, src, dst, rng),
                tail: None,
            };
        }
        // Choose a gateway uniformly at random among the parallel links of
        // the group pair; this is the static load-spreading minimal routing
        // the CODES dragonfly-custom model applies per packet.
        let gw = *rng.choose(topo.gateways(sg, dg));
        let head = Leg::draw(topo, src, gw.router, rng);
        let tail = Leg::draw(topo, gw.far, dst, rng);
        MinimalPlan {
            head,
            tail: Some((gw.channel, tail)),
        }
    }

    /// Router-to-router hops of the path.
    #[inline]
    pub fn hops(&self) -> usize {
        self.head.hops() + self.tail.map_or(0, |(_, leg)| 1 + leg.hops())
    }

    /// The path's first channel, or `None` for the empty path.
    #[inline]
    pub fn first(&self, topo: &Topology) -> Option<ChannelId> {
        self.head
            .first(topo)
            .or_else(|| self.tail.map(|(global, _)| global))
    }

    /// Append the path's channels onto `out`.
    #[inline]
    pub fn push(&self, topo: &Topology, out: &mut Vec<ChannelId>) {
        self.head.push(topo, out);
        if let Some((global, leg)) = self.tail {
            out.push(global);
            leg.push(topo, out);
        }
    }
}

/// Append a minimal path from `src` to `dst` (any groups) onto `out`.
pub fn push_minimal(
    topo: &Topology,
    src: RouterId,
    dst: RouterId,
    rng: &mut Xoshiro256,
    out: &mut Vec<ChannelId>,
) {
    MinimalPlan::draw(topo, src, dst, rng).push(topo, out);
}

/// A complete minimal path.
pub fn minimal_path(topo: &Topology, src: RouterId, dst: RouterId, rng: &mut Xoshiro256) -> Path {
    let mut channels = Vec::with_capacity(5);
    push_minimal(topo, src, dst, rng, &mut channels);
    Path {
        channels,
        kind: RouteKind::Minimal,
    }
}

/// A non-minimal path through the given intermediate router.
pub fn nonminimal_path(
    topo: &Topology,
    src: RouterId,
    intermediate: RouterId,
    dst: RouterId,
    rng: &mut Xoshiro256,
) -> Path {
    let mut channels = Vec::with_capacity(10);
    push_minimal(topo, src, intermediate, rng, &mut channels);
    push_minimal(topo, intermediate, dst, rng, &mut channels);
    Path {
        channels,
        kind: RouteKind::NonMinimal,
    }
}

/// Pick a uniformly random intermediate router (for non-minimal candidates).
pub fn random_intermediate(topo: &Topology, rng: &mut Xoshiro256) -> RouterId {
    RouterId(rng.next_below(topo.config().total_routers() as u64) as u32)
}

/// The maximum number of router-to-router hops any path produced by this
/// module can have: 2 local + 1 global + 2 local, twice (non-minimal).
/// The network layer sizes its virtual-channel count from this.
pub const MAX_ROUTER_HOPS: usize = 10;

/// Validate that a path is well-formed: consecutive channels chain
/// router-to-router from `src` to `dst`. Used by tests and debug assertions.
pub fn validate_path(topo: &Topology, src: RouterId, dst: RouterId, path: &Path) -> bool {
    let mut at = src;
    for &ch in &path.channels {
        let info = topo.channel(ch);
        if !info.class.is_router_to_router() {
            return false;
        }
        match info.src.router() {
            Some(r) if r == at => {}
            _ => return false,
        }
        at = info.dst.router().expect("router-to-router channel");
    }
    at == dst && path.channels.len() <= MAX_ROUTER_HOPS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologyConfig;
    use crate::ids::ChannelClass;

    fn small() -> Topology {
        Topology::build(TopologyConfig::small_test())
    }

    fn theta() -> Topology {
        Topology::build(TopologyConfig::theta())
    }

    #[test]
    fn same_router_path_is_empty() {
        let t = small();
        let mut rng = Xoshiro256::seed_from(1);
        let p = minimal_path(&t, RouterId(3), RouterId(3), &mut rng);
        assert_eq!(p.hops(), 0);
        assert!(validate_path(&t, RouterId(3), RouterId(3), &p));
    }

    #[test]
    fn same_row_is_one_hop() {
        let t = theta();
        let mut rng = Xoshiro256::seed_from(2);
        let src = t.router_at(crate::GroupId(0), 2, 3);
        let dst = t.router_at(crate::GroupId(0), 2, 9);
        let p = minimal_path(&t, src, dst, &mut rng);
        assert_eq!(p.hops(), 1);
        assert_eq!(t.channel(p.channels[0]).class, ChannelClass::LocalRow);
        assert!(validate_path(&t, src, dst, &p));
    }

    #[test]
    fn same_col_is_one_hop() {
        let t = theta();
        let mut rng = Xoshiro256::seed_from(3);
        let src = t.router_at(crate::GroupId(1), 0, 5);
        let dst = t.router_at(crate::GroupId(1), 4, 5);
        let p = minimal_path(&t, src, dst, &mut rng);
        assert_eq!(p.hops(), 1);
        assert_eq!(t.channel(p.channels[0]).class, ChannelClass::LocalCol);
    }

    #[test]
    fn diagonal_intra_group_is_two_hops_both_orders() {
        let t = theta();
        let src = t.router_at(crate::GroupId(0), 1, 2);
        let dst = t.router_at(crate::GroupId(0), 4, 10);
        let mut saw_row_first = false;
        let mut saw_col_first = false;
        let mut rng = Xoshiro256::seed_from(4);
        for _ in 0..64 {
            let p = minimal_path(&t, src, dst, &mut rng);
            assert_eq!(p.hops(), 2);
            assert!(validate_path(&t, src, dst, &p));
            match t.channel(p.channels[0]).class {
                ChannelClass::LocalRow => saw_row_first = true,
                ChannelClass::LocalCol => saw_col_first = true,
                other => panic!("unexpected class {other:?}"),
            }
        }
        assert!(saw_row_first && saw_col_first, "both orders should occur");
    }

    #[test]
    fn inter_group_minimal_has_exactly_one_global_hop() {
        let t = theta();
        let mut rng = Xoshiro256::seed_from(5);
        for i in 0..200u32 {
            let src = RouterId(rng.next_below(t.config().total_routers() as u64) as u32);
            let dst = RouterId(rng.next_below(t.config().total_routers() as u64) as u32);
            if t.router_group(src) == t.router_group(dst) {
                continue;
            }
            let p = minimal_path(&t, src, dst, &mut rng);
            let globals = p
                .channels
                .iter()
                .filter(|&&c| t.channel(c).class == ChannelClass::Global)
                .count();
            assert_eq!(globals, 1, "iteration {i}");
            assert!(p.hops() <= 5);
            assert!(validate_path(&t, src, dst, &p));
        }
    }

    #[test]
    fn nonminimal_paths_valid_and_bounded() {
        let t = theta();
        let mut rng = Xoshiro256::seed_from(6);
        for _ in 0..200 {
            let src = RouterId(rng.next_below(t.config().total_routers() as u64) as u32);
            let dst = RouterId(rng.next_below(t.config().total_routers() as u64) as u32);
            let inter = random_intermediate(&t, &mut rng);
            let p = nonminimal_path(&t, src, inter, dst, &mut rng);
            assert!(p.hops() <= MAX_ROUTER_HOPS);
            assert!(validate_path(&t, src, dst, &p));
            assert_eq!(p.kind, RouteKind::NonMinimal);
        }
    }

    #[test]
    fn nonminimal_at_least_as_long_as_minimal_on_average() {
        let t = theta();
        let mut rng = Xoshiro256::seed_from(7);
        let mut min_total = 0usize;
        let mut non_total = 0usize;
        for _ in 0..300 {
            let src = RouterId(rng.next_below(t.config().total_routers() as u64) as u32);
            let dst = RouterId(rng.next_below(t.config().total_routers() as u64) as u32);
            min_total += minimal_path(&t, src, dst, &mut rng).hops();
            let inter = random_intermediate(&t, &mut rng);
            non_total += nonminimal_path(&t, src, inter, dst, &mut rng).hops();
        }
        assert!(
            non_total > min_total,
            "nonminimal ({non_total}) should exceed minimal ({min_total})"
        );
    }

    #[test]
    fn minimal_gateway_choice_spreads_load() {
        // Repeated minimal routing between the same router pair should use
        // multiple distinct gateways.
        let t = theta();
        let mut rng = Xoshiro256::seed_from(8);
        let src = RouterId(0);
        let dst = RouterId(t.config().routers_per_group() * 3 + 17);
        let mut globals_used = std::collections::HashSet::new();
        for _ in 0..100 {
            let p = minimal_path(&t, src, dst, &mut rng);
            for &c in &p.channels {
                if t.channel(c).class == ChannelClass::Global {
                    globals_used.insert(c);
                }
            }
        }
        assert!(
            globals_used.len() > 10,
            "only {} gateways used",
            globals_used.len()
        );
    }

    #[test]
    fn small_topology_all_pairs_reachable_minimally() {
        let t = small();
        let mut rng = Xoshiro256::seed_from(9);
        let n = t.config().total_routers();
        for s in 0..n {
            for d in 0..n {
                let p = minimal_path(&t, RouterId(s), RouterId(d), &mut rng);
                assert!(validate_path(&t, RouterId(s), RouterId(d), &p));
                assert!(p.hops() <= 5);
            }
        }
    }

    #[test]
    fn random_intermediate_in_range() {
        let t = small();
        let mut rng = Xoshiro256::seed_from(10);
        for _ in 0..100 {
            let r = random_intermediate(&t, &mut rng);
            assert!(r.0 < t.config().total_routers());
        }
    }
}
