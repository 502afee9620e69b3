//! Machine construction: entity numbering, channel-id arithmetic, global
//! wiring, and gateway tables.
//!
//! Nothing here is sized by the channel count. Terminal and local
//! channels are pure id arithmetic; the global wiring is three flat
//! tables filled from [`GlobalArrangement::plan`](crate::GlobalArrangement::plan):
//! one endpoint pair per global link, one [`Gateway`] per directed link
//! grouped by ordered group pair, and `global_links_per_router` outgoing
//! channels per router. Their size follows the global links and router
//! ports ([`Topology::heap_bytes`]), so a 131,584-node machine costs a few
//! megabytes however few of its 649,696 channels a run touches.

use crate::config::TopologyConfig;
use crate::ids::{
    CabinetId, ChannelClass, ChannelEnd, ChannelId, ChassisId, GroupId, NodeId, RouterId,
};
use dfly_engine::{Bandwidth, Ns};

/// Static description of one directed channel, computed on demand by
/// [`Topology::channel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelInfo {
    /// The channel class (terminal / local row / local col / global).
    pub class: ChannelClass,
    /// Transmitting end.
    pub src: ChannelEnd,
    /// Receiving end.
    pub dst: ChannelEnd,
}

/// One undirected global link between two groups, with its two directed
/// channel ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalLink {
    /// Endpoint router in the lower-numbered group.
    pub a: RouterId,
    /// Endpoint router in the higher-numbered group.
    pub b: RouterId,
    /// Directed channel a -> b.
    pub ab: ChannelId,
    /// Directed channel b -> a.
    pub ba: ChannelId,
}

/// One parallel link of an ordered group pair, seen from the source
/// group: the gateway router holding it, the directed global channel
/// leaving that router, and the router it lands on in the destination
/// group. Carrying the far end lets minimal routing continue from the
/// entry router without looking the channel up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gateway {
    /// Gateway router in the source group.
    pub router: RouterId,
    /// Directed global channel from `router` into the destination group.
    pub channel: ChannelId,
    /// Entry router in the destination group (the channel's receiving end).
    pub far: RouterId,
}

/// A fully constructed dragonfly machine.
///
/// Construction is deterministic: the same [`TopologyConfig`] always yields
/// the same wiring, which the study requires for config comparisons.
/// Channel ids are numbered in contiguous per-class ranges: terminal-up
/// (id = node), terminal-down, local row (`cols - 1` per router), local
/// column (`rows - 1` per router), then global, two per link in link order.
/// Every query answers from that arithmetic and the global-wiring tables.
#[derive(Debug, Clone)]
pub struct Topology {
    cfg: TopologyConfig,
    /// `[link]` -> its endpoint routers (raw [`RouterId`]s) in the lower-
    /// and higher-numbered group. Links are numbered in canonical group
    /// pair order; link `i` owns global channels `base_global + 2i`
    /// (low -> high) and `base_global + 2i + 1` (high -> low).
    links: Vec<(u32, u32)>,
    /// `[pair_slot(src, dst) * links_per_pair + k]` -> the `k`th parallel
    /// link from `src` to `dst`, in link order.
    gateways: Vec<Gateway>,
    /// `[router * global_links_per_router + k]` -> the router's `k`th
    /// outgoing global channel and the group it lands in, in link order.
    router_globals: Vec<(ChannelId, GroupId)>,
    links_per_pair: u32,
    // Channel-id arithmetic bases.
    base_term_down: u32,
    base_row: u32,
    base_col: u32,
    base_global: u32,
}

impl Topology {
    /// Build a machine. Panics if the config fails [`TopologyConfig::validate`].
    pub fn build(cfg: TopologyConfig) -> Topology {
        if let Err(e) = cfg.validate() {
            panic!("invalid topology config: {e}");
        }
        let n_nodes = cfg.total_nodes();
        let n_routers = cfg.total_routers();
        let base_term_down = n_nodes;
        let base_row = 2 * n_nodes;
        let base_col = base_row + n_routers * (cfg.cols - 1);
        let base_global = base_col + n_routers * (cfg.rows - 1);

        // Global wiring: the configured arrangement plans which router in
        // each group terminates each link; iterating group pairs in
        // canonical order and links within a pair in order assigns each
        // router exactly `global_links_per_router` endpoints regardless
        // of the arrangement (see `GlobalArrangement::plan`). Channel ids
        // depend only on the iteration order, so every arrangement shares
        // the id arithmetic — and the default round-robin plan reproduces
        // the historical wiring byte for byte. The plan's local endpoint
        // indices are rewritten in place into the link table.
        let g = cfg.groups;
        let lpp = cfg.links_per_group_pair();
        let rpg = cfg.routers_per_group();
        let h = cfg.global_links_per_router;
        let mut links = cfg.arrangement.plan(&cfg);
        assert_eq!(
            links.len(),
            (g * (g - 1) / 2 * lpp) as usize,
            "arrangement plan length"
        );

        // Gateways: each link fills one entry of the (lo, hi) pair's run
        // and one of the (hi, lo) run. Walking the pair matrix in square
        // tiles keeps both the link reads and the transposed writes
        // within a few pages at a time (this halves the build's compute at
        // 257 groups).
        const TILE: u32 = 16;
        let unset = Gateway {
            router: RouterId(u32::MAX),
            channel: ChannelId(u32::MAX),
            far: RouterId(u32::MAX),
        };
        let mut gateways = vec![unset; (g * (g - 1) * lpp) as usize];
        for lo_tile in (0..g).step_by(TILE as usize) {
            for hi_tile in (lo_tile..g).step_by(TILE as usize) {
                for lo in lo_tile..(lo_tile + TILE).min(g) {
                    for hi in (lo + 1).max(hi_tile)..(hi_tile + TILE).min(g) {
                        let first = pair_index(lo, hi, g) * lpp;
                        let up = (pair_slot(lo, hi, g) * lpp) as usize;
                        let down = (pair_slot(hi, lo, g) * lpp) as usize;
                        for k in 0..lpp {
                            let link = first + k;
                            let (la, lb) = links[link as usize];
                            let (a, b) = (lo * rpg + la, hi * rpg + lb);
                            links[link as usize] = (a, b);
                            let ab = ChannelId(base_global + 2 * link);
                            gateways[up + k as usize] = Gateway {
                                router: RouterId(a),
                                channel: ab,
                                far: RouterId(b),
                            };
                            gateways[down + k as usize] = Gateway {
                                router: RouterId(b),
                                channel: ChannelId(ab.0 + 1),
                                far: RouterId(a),
                            };
                        }
                    }
                }
            }
        }

        // A group's links in link order are its peers in increasing
        // order, each pair's links in order (pairs with lower peers
        // precede every pair with higher ones): exactly its run of the
        // gateway table. Each router's outgoing globals are therefore its
        // entries of that run, in order.
        let mut router_globals = vec![(ChannelId(0), GroupId(0)); (g * rpg * h) as usize];
        let mut degree = vec![0u32; rpg as usize];
        let mut pairs = gateways.chunks_exact(lpp as usize);
        for src in 0..g {
            degree.fill(0);
            for (dst, gws) in (0..g).filter(|&d| d != src).zip(&mut pairs) {
                for gw in gws {
                    let d = &mut degree[(gw.router.0 - src * rpg) as usize];
                    assert!(
                        *d < h,
                        "arrangement gives {} more than {h} links",
                        gw.router
                    );
                    router_globals[(gw.router.0 * h + *d) as usize] = (gw.channel, GroupId(dst));
                    *d += 1;
                }
            }
        }

        Topology {
            cfg,
            links,
            gateways,
            router_globals,
            links_per_pair: lpp,
            base_term_down,
            base_row,
            base_col,
            base_global,
        }
    }

    /// The configuration this machine was built from.
    pub fn config(&self) -> &TopologyConfig {
        &self.cfg
    }

    /// Total number of directed channels.
    pub fn channel_count(&self) -> usize {
        self.base_global as usize + 2 * self.links.len()
    }

    /// Number of directed channels of `class` (O(1): channel ids are
    /// numbered in contiguous per-class ranges).
    pub fn class_channel_count(&self, class: ChannelClass) -> usize {
        let (lo, hi) = match class {
            ChannelClass::TerminalUp => (0, self.base_term_down),
            ChannelClass::TerminalDown => (self.base_term_down, self.base_row),
            ChannelClass::LocalRow => (self.base_row, self.base_col),
            ChannelClass::LocalCol => (self.base_col, self.base_global),
            ChannelClass::Global => return 2 * self.links.len(),
        };
        (hi - lo) as usize
    }

    /// Heap bytes this machine holds: the global-wiring tables, sized by
    /// global links and router ports (nothing grows with the channel
    /// count).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.links.capacity() * size_of::<(u32, u32)>()
            + self.gateways.capacity() * size_of::<Gateway>()
            + self.router_globals.capacity() * size_of::<(ChannelId, GroupId)>()
    }

    /// The class of a channel (a few comparisons against the class
    /// ranges; cheaper than [`Topology::channel`] when only the class is
    /// needed).
    #[inline]
    pub fn channel_class(&self, id: ChannelId) -> ChannelClass {
        let i = id.0;
        if i < self.base_term_down {
            ChannelClass::TerminalUp
        } else if i < self.base_row {
            ChannelClass::TerminalDown
        } else if i < self.base_col {
            ChannelClass::LocalRow
        } else if i < self.base_global {
            ChannelClass::LocalCol
        } else {
            debug_assert!((i as usize) < self.channel_count(), "{id} out of range");
            ChannelClass::Global
        }
    }

    /// Static info for a channel, computed from its id. Panics if `id` is
    /// out of range.
    #[inline]
    pub fn channel(&self, id: ChannelId) -> ChannelInfo {
        let i = id.0;
        if i < self.base_term_down {
            let node = NodeId(i);
            ChannelInfo {
                class: ChannelClass::TerminalUp,
                src: ChannelEnd::Node(node),
                dst: ChannelEnd::Router(self.node_router(node)),
            }
        } else if i < self.base_row {
            let node = NodeId(i - self.base_term_down);
            ChannelInfo {
                class: ChannelClass::TerminalDown,
                src: ChannelEnd::Router(self.node_router(node)),
                dst: ChannelEnd::Node(node),
            }
        } else if i < self.base_col {
            // id = base_row + router*(cols-1) + rank(dst_col).
            let per = self.cfg.cols - 1;
            let (src, rank) = ((i - self.base_row) / per, (i - self.base_row) % per);
            let (g, row, col) = decompose(&self.cfg, src);
            let dst = compose(&self.cfg, g, row, rank + (rank >= col) as u32);
            router_link(ChannelClass::LocalRow, src, dst)
        } else if i < self.base_global {
            // id = base_col + router*(rows-1) + rank(dst_row).
            let per = self.cfg.rows - 1;
            let (src, rank) = ((i - self.base_col) / per, (i - self.base_col) % per);
            let (g, row, col) = decompose(&self.cfg, src);
            let dst = compose(&self.cfg, g, rank + (rank >= row) as u32, col);
            router_link(ChannelClass::LocalCol, src, dst)
        } else {
            // Link (id - base_global) / 2; even ids run low -> high group.
            let off = i - self.base_global;
            let (a, b) = self.links[(off / 2) as usize];
            if off.is_multiple_of(2) {
                router_link(ChannelClass::Global, a, b)
            } else {
                router_link(ChannelClass::Global, b, a)
            }
        }
    }

    /// The router owning a channel: its transmitting router, or for a
    /// terminal-up channel the injecting node's router. This is the
    /// partition [`Topology::router_channels`] lists.
    #[inline]
    pub fn channel_owner(&self, id: ChannelId) -> RouterId {
        match self.channel(id).src {
            ChannelEnd::Router(r) => r,
            ChannelEnd::Node(n) => self.node_router(n),
        }
    }

    /// Iterate all channels with their (computed) info, in id order.
    pub fn channels(&self) -> impl Iterator<Item = (ChannelId, ChannelInfo)> + '_ {
        (0..self.channel_count() as u32).map(move |i| (ChannelId(i), self.channel(ChannelId(i))))
    }

    /// All undirected global links, in link (channel id) order.
    pub fn global_links(&self) -> impl ExactSizeIterator<Item = GlobalLink> + '_ {
        self.links.iter().enumerate().map(move |(i, &(a, b))| {
            let ab = ChannelId(self.base_global + 2 * i as u32);
            GlobalLink {
                a: RouterId(a),
                b: RouterId(b),
                ab,
                ba: ChannelId(ab.0 + 1),
            }
        })
    }

    // ----- entity relations ---------------------------------------------

    /// The router a node attaches to.
    #[inline]
    pub fn node_router(&self, node: NodeId) -> RouterId {
        RouterId(node.0 / self.cfg.nodes_per_router)
    }

    /// The nodes attached to a router.
    pub fn router_nodes(&self, router: RouterId) -> impl Iterator<Item = NodeId> {
        let n = self.cfg.nodes_per_router;
        (router.0 * n..(router.0 + 1) * n).map(NodeId)
    }

    /// The group containing a router.
    #[inline]
    pub fn router_group(&self, router: RouterId) -> GroupId {
        GroupId(router.0 / self.cfg.routers_per_group())
    }

    /// The group containing a node.
    #[inline]
    pub fn node_group(&self, node: NodeId) -> GroupId {
        self.router_group(self.node_router(node))
    }

    /// (group, row, col) coordinates of a router.
    #[inline]
    pub fn router_coords(&self, router: RouterId) -> (GroupId, u32, u32) {
        let (g, row, col) = decompose(&self.cfg, router.0);
        (GroupId(g), row, col)
    }

    /// Router from (group, row, col).
    #[inline]
    pub fn router_at(&self, group: GroupId, row: u32, col: u32) -> RouterId {
        RouterId(compose(&self.cfg, group.0, row, col))
    }

    /// The chassis (router row) containing a router.
    #[inline]
    pub fn router_chassis(&self, router: RouterId) -> ChassisId {
        let (g, row, _) = decompose(&self.cfg, router.0);
        ChassisId(g * self.cfg.rows + row)
    }

    /// The chassis containing a node.
    #[inline]
    pub fn node_chassis(&self, node: NodeId) -> ChassisId {
        self.router_chassis(self.node_router(node))
    }

    /// The cabinet containing a node.
    #[inline]
    pub fn node_cabinet(&self, node: NodeId) -> CabinetId {
        let ch = self.node_chassis(node);
        CabinetId(ch.0 / self.cfg.chassis_per_cabinet)
    }

    /// All nodes in a chassis, in index order.
    pub fn chassis_nodes(&self, chassis: ChassisId) -> Vec<NodeId> {
        let g = chassis.0 / self.cfg.rows;
        let row = chassis.0 % self.cfg.rows;
        let mut out = Vec::with_capacity(self.cfg.nodes_per_chassis() as usize);
        for col in 0..self.cfg.cols {
            let r = RouterId(compose(&self.cfg, g, row, col));
            out.extend(self.router_nodes(r));
        }
        out
    }

    /// All nodes in a cabinet, in index order.
    pub fn cabinet_nodes(&self, cabinet: CabinetId) -> Vec<NodeId> {
        let first_chassis = cabinet.0 * self.cfg.chassis_per_cabinet;
        let mut out = Vec::with_capacity(self.cfg.nodes_per_cabinet() as usize);
        for c in first_chassis..first_chassis + self.cfg.chassis_per_cabinet {
            out.extend(self.chassis_nodes(ChassisId(c)));
        }
        out
    }

    /// Total cabinets in the machine.
    pub fn total_cabinets(&self) -> u32 {
        self.cfg.total_chassis() / self.cfg.chassis_per_cabinet
    }

    // ----- channel id arithmetic ------------------------------------------

    /// Injection channel of a node.
    #[inline]
    pub fn terminal_up(&self, node: NodeId) -> ChannelId {
        ChannelId(node.0)
    }

    /// Ejection channel to a node.
    #[inline]
    pub fn terminal_down(&self, node: NodeId) -> ChannelId {
        ChannelId(self.base_term_down + node.0)
    }

    /// The row link between two routers in the same group and row.
    /// Panics in debug builds if they aren't row peers.
    #[inline]
    pub fn row_channel(&self, src: RouterId, dst: RouterId) -> ChannelId {
        let (_, _, src_col) = decompose(&self.cfg, src.0);
        let (_, _, dst_col) = decompose(&self.cfg, dst.0);
        debug_assert_ne!(src_col, dst_col);
        let rank = if dst_col < src_col {
            dst_col
        } else {
            dst_col - 1
        };
        ChannelId(self.base_row + src.0 * (self.cfg.cols - 1) + rank)
    }

    /// The column link between two routers in the same group and column.
    #[inline]
    pub fn col_channel(&self, src: RouterId, dst: RouterId) -> ChannelId {
        let (_, src_row, _) = decompose(&self.cfg, src.0);
        let (_, dst_row, _) = decompose(&self.cfg, dst.0);
        debug_assert_ne!(src_row, dst_row);
        let rank = if dst_row < src_row {
            dst_row
        } else {
            dst_row - 1
        };
        ChannelId(self.base_col + src.0 * (self.cfg.rows - 1) + rank)
    }

    /// Gateways from `src_group` to `dst_group`: the group pair's
    /// `links_per_group_pair` parallel links in link order, uniformly
    /// spread over the group's routers. Empty when the groups are equal.
    #[inline]
    pub fn gateways(&self, src_group: GroupId, dst_group: GroupId) -> &[Gateway] {
        if src_group == dst_group {
            return &[];
        }
        let lpp = self.links_per_pair as usize;
        let start = pair_slot(src_group.0, dst_group.0, self.cfg.groups) as usize * lpp;
        &self.gateways[start..start + lpp]
    }

    /// The first channel id of the global class (useful for metrics layout).
    pub fn first_global_channel(&self) -> ChannelId {
        ChannelId(self.base_global)
    }

    /// Every outgoing global channel of a router, with the group each one
    /// lands in. Exactly `global_links_per_router` entries for every
    /// router, in link-construction order. Progressive adaptive routing
    /// scans these to re-evaluate its decision at the gateway.
    #[inline]
    pub fn router_global_channels(&self, router: RouterId) -> &[(ChannelId, GroupId)] {
        let h = self.cfg.global_links_per_router as usize;
        &self.router_globals[router.index() * h..][..h]
    }

    /// The channels of `class` a router owns, in id order: the ones it
    /// transmits on, and for `TerminalUp` the injection channels of its
    /// nodes. Every router owns the same number of each class.
    pub fn router_channels(&self, router: RouterId, class: ChannelClass) -> Vec<ChannelId> {
        let r = router.0;
        let (rows, cols) = (self.cfg.rows, self.cfg.cols);
        match class {
            ChannelClass::TerminalUp => self
                .router_nodes(router)
                .map(|n| self.terminal_up(n))
                .collect(),
            ChannelClass::TerminalDown => self
                .router_nodes(router)
                .map(|n| self.terminal_down(n))
                .collect(),
            ChannelClass::LocalRow => {
                let base = self.base_row + r * (cols - 1);
                (base..base + cols - 1).map(ChannelId).collect()
            }
            ChannelClass::LocalCol => {
                let base = self.base_col + r * (rows - 1);
                (base..base + rows - 1).map(ChannelId).collect()
            }
            ChannelClass::Global => self
                .router_global_channels(router)
                .iter()
                .map(|&(ch, _)| ch)
                .collect(),
        }
    }

    // ----- per-class link parameters --------------------------------------

    /// Bandwidth of a channel class.
    pub fn class_bandwidth(&self, class: ChannelClass) -> Bandwidth {
        match class {
            ChannelClass::TerminalUp | ChannelClass::TerminalDown => self.cfg.terminal_bw,
            ChannelClass::LocalRow | ChannelClass::LocalCol => self.cfg.local_bw,
            ChannelClass::Global => self.cfg.global_bw,
        }
    }

    /// Propagation latency of a channel class (link flight time; the
    /// router traversal latency is separate).
    pub fn class_latency(&self, class: ChannelClass) -> Ns {
        match class {
            ChannelClass::TerminalUp | ChannelClass::TerminalDown => self.cfg.terminal_latency,
            ChannelClass::LocalRow | ChannelClass::LocalCol => self.cfg.local_latency,
            ChannelClass::Global => self.cfg.global_latency,
        }
    }
}

/// Index of the unordered group pair `lo < hi` in canonical pair order
/// (lexicographic over `(lo, hi)`), the order links are numbered in.
#[inline]
fn pair_index(lo: u32, hi: u32, groups: u32) -> u32 {
    debug_assert!(lo < hi);
    lo * (2 * groups - lo - 1) / 2 + (hi - lo - 1)
}

/// Index of the ordered group pair `(src, dst)`, `src != dst`, among the
/// `groups * (groups - 1)` ordered pairs: source-major, destinations in
/// increasing order skipping the source.
#[inline]
fn pair_slot(src: u32, dst: u32, groups: u32) -> u32 {
    debug_assert_ne!(src, dst);
    src * (groups - 1) + dst - (dst > src) as u32
}

/// A router-to-router channel between raw router ids.
#[inline]
fn router_link(class: ChannelClass, src: u32, dst: u32) -> ChannelInfo {
    ChannelInfo {
        class,
        src: ChannelEnd::Router(RouterId(src)),
        dst: ChannelEnd::Router(RouterId(dst)),
    }
}

#[inline]
fn decompose(cfg: &TopologyConfig, router: u32) -> (u32, u32, u32) {
    let rpg = cfg.routers_per_group();
    let g = router / rpg;
    let local = router % rpg;
    (g, local / cfg.cols, local % cfg.cols)
}

#[inline]
fn compose(cfg: &TopologyConfig, group: u32, row: u32, col: u32) -> u32 {
    group * cfg.routers_per_group() + row * cfg.cols + col
}

#[cfg(test)]
mod tests {
    use super::*;

    fn theta() -> Topology {
        Topology::build(TopologyConfig::theta())
    }

    fn small() -> Topology {
        Topology::build(TopologyConfig::small_test())
    }

    #[test]
    fn channel_counts_match_formula() {
        let t = theta();
        let cfg = t.config();
        let n = cfg.total_nodes();
        let r = cfg.total_routers();
        let expected = 2 * n                         // terminal up+down
            + r * (cfg.cols - 1)                     // rows
            + r * (cfg.rows - 1)                     // cols
            + cfg.groups * (cfg.groups - 1) / 2 * cfg.links_per_group_pair() * 2; // global
        assert_eq!(t.channel_count(), expected as usize);
    }

    #[test]
    fn class_channel_counts_match_a_channel_walk() {
        let canonic = Topology::build(TopologyConfig::canonical(2, 8, 4, 17));
        for t in [theta(), small(), canonic] {
            for class in [
                ChannelClass::TerminalUp,
                ChannelClass::TerminalDown,
                ChannelClass::LocalRow,
                ChannelClass::LocalCol,
                ChannelClass::Global,
            ] {
                let walked = t.channels().filter(|(_, c)| c.class == class).count();
                assert_eq!(t.class_channel_count(class), walked, "{class:?}");
            }
        }
    }

    #[test]
    fn every_router_has_exact_global_degree() {
        for t in [theta(), small()] {
            let mut degree = vec![0u32; t.config().total_routers() as usize];
            for link in t.global_links() {
                degree[link.a.index()] += 1;
                degree[link.b.index()] += 1;
            }
            for (i, &d) in degree.iter().enumerate() {
                assert_eq!(
                    d,
                    t.config().global_links_per_router,
                    "router {i} has degree {d}"
                );
            }
        }
    }

    #[test]
    fn gateways_cover_all_group_pairs() {
        let t = theta();
        let g = t.config().groups;
        for a in 0..g {
            for b in 0..g {
                let gws = t.gateways(GroupId(a), GroupId(b));
                if a == b {
                    assert!(gws.is_empty());
                } else {
                    assert_eq!(gws.len() as u32, t.config().links_per_group_pair());
                    for gw in gws {
                        assert_eq!(t.router_group(gw.router), GroupId(a));
                        let info = t.channel(gw.channel);
                        assert_eq!(info.class, ChannelClass::Global);
                        assert_eq!(info.src.router(), Some(gw.router));
                        assert_eq!(info.dst.router(), Some(gw.far));
                        assert_eq!(t.router_group(gw.far), GroupId(b));
                    }
                }
            }
        }
    }

    #[test]
    fn gateway_spread_is_uniform_over_routers() {
        // No single router should be gateway for a disproportionate share
        // of any one destination group.
        let t = theta();
        let gws = t.gateways(GroupId(0), GroupId(5));
        let mut per_router = std::collections::HashMap::new();
        for gw in gws {
            *per_router.entry(gw.router).or_insert(0u32) += 1;
        }
        // 48 links over 96 routers: no router should carry more than 2.
        assert!(per_router.values().all(|&c| c <= 2));
        assert!(per_router.len() >= 24, "gateways too concentrated");
    }

    #[test]
    fn row_channel_arithmetic_agrees_with_table() {
        for t in [small(), theta()] {
            let cfg = t.config().clone();
            for r in 0..cfg.total_routers() {
                let src = RouterId(r);
                let (g, row, col) = t.router_coords(src);
                for dst_col in 0..cfg.cols {
                    if dst_col == col {
                        continue;
                    }
                    let dst = t.router_at(g, row, dst_col);
                    let id = t.row_channel(src, dst);
                    let info = t.channel(id);
                    assert_eq!(info.class, ChannelClass::LocalRow);
                    assert_eq!(info.src.router(), Some(src));
                    assert_eq!(info.dst.router(), Some(dst));
                }
            }
        }
    }

    #[test]
    fn col_channel_arithmetic_agrees_with_table() {
        let t = small();
        let cfg = t.config().clone();
        for r in 0..cfg.total_routers() {
            let src = RouterId(r);
            let (g, row, col) = t.router_coords(src);
            for dst_row in 0..cfg.rows {
                if dst_row == row {
                    continue;
                }
                let dst = t.router_at(g, dst_row, col);
                let id = t.col_channel(src, dst);
                let info = t.channel(id);
                assert_eq!(info.class, ChannelClass::LocalCol);
                assert_eq!(info.src.router(), Some(src));
                assert_eq!(info.dst.router(), Some(dst));
            }
        }
    }

    #[test]
    fn terminal_channels_connect_node_and_home_router() {
        let t = small();
        for n in 0..t.config().total_nodes() {
            let node = NodeId(n);
            let up = t.channel(t.terminal_up(node));
            assert_eq!(up.class, ChannelClass::TerminalUp);
            assert_eq!(up.src.node(), Some(node));
            assert_eq!(up.dst.router(), Some(t.node_router(node)));
            let down = t.channel(t.terminal_down(node));
            assert_eq!(down.class, ChannelClass::TerminalDown);
            assert_eq!(down.src.router(), Some(t.node_router(node)));
            assert_eq!(down.dst.node(), Some(node));
        }
    }

    #[test]
    fn entity_relations_consistent() {
        let t = theta();
        let node = NodeId(1234);
        let router = t.node_router(node);
        assert!(t.router_nodes(router).any(|n| n == node));
        let (g, row, col) = t.router_coords(router);
        assert_eq!(t.router_at(g, row, col), router);
        assert_eq!(t.node_group(node), g);
        let chassis = t.node_chassis(node);
        assert!(t.chassis_nodes(chassis).contains(&node));
        let cab = t.node_cabinet(node);
        assert!(t.cabinet_nodes(cab).contains(&node));
    }

    #[test]
    fn chassis_and_cabinet_sizes() {
        let t = theta();
        assert_eq!(t.chassis_nodes(ChassisId(0)).len(), 64);
        assert_eq!(t.cabinet_nodes(CabinetId(0)).len(), 192);
        assert_eq!(t.total_cabinets(), 18);
        // A cabinet's nodes are the union of its chassis' nodes
        // (Theta: 3 chassis per cabinet, so cabinet 3 = chassis 9..12).
        let cab: std::collections::HashSet<_> = t.cabinet_nodes(CabinetId(3)).into_iter().collect();
        for c in 9..12 {
            for n in t.chassis_nodes(ChassisId(c)) {
                assert!(cab.contains(&n));
            }
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let a = theta();
        let b = theta();
        assert_eq!(a.channel_count(), b.channel_count());
        for (id, info) in a.channels() {
            assert_eq!(info, b.channel(id));
        }
    }

    #[test]
    fn class_parameters() {
        let t = theta();
        assert_eq!(
            t.class_bandwidth(ChannelClass::TerminalUp),
            Bandwidth::from_gib_per_sec(16)
        );
        assert_eq!(
            t.class_bandwidth(ChannelClass::LocalRow),
            Bandwidth::from_gib_per_sec_hundredths(525)
        );
        assert_eq!(
            t.class_bandwidth(ChannelClass::Global),
            Bandwidth::from_gib_per_sec_hundredths(469)
        );
        assert!(t.class_latency(ChannelClass::Global) > t.class_latency(ChannelClass::LocalRow));
    }

    #[test]
    fn router_global_channels_cover_every_link() {
        for t in [theta(), small()] {
            for r in 0..t.config().total_routers() {
                let globals = t.router_global_channels(RouterId(r));
                assert_eq!(globals.len() as u32, t.config().global_links_per_router);
                for &(ch, dst_group) in globals {
                    let info = t.channel(ch);
                    assert_eq!(info.class, ChannelClass::Global);
                    assert_eq!(info.src.router(), Some(RouterId(r)));
                    let dst = info.dst.router().unwrap();
                    assert_eq!(t.router_group(dst), dst_group);
                    assert_ne!(dst_group, t.router_group(RouterId(r)));
                }
            }
        }
    }

    #[test]
    fn arrangements_share_id_arithmetic_and_invariants() {
        use crate::arrangement::GlobalArrangement;
        let mut shapes = vec![TopologyConfig::small_test()];
        shapes.push(TopologyConfig::canonical(2, 4, 2, 5));
        for base in shapes {
            for arr in [
                GlobalArrangement::RoundRobin,
                GlobalArrangement::Consecutive,
                GlobalArrangement::PalmTree,
                GlobalArrangement::Random { seed: 99 },
            ] {
                let mut cfg = base.clone();
                cfg.arrangement = arr;
                let t = Topology::build(cfg);
                // Same channel count and class layout as the default.
                assert_eq!(
                    t.first_global_channel().0,
                    Topology::build(base.clone()).first_global_channel().0
                );
                // Every ordered group pair fully connected.
                for a in 0..t.config().groups {
                    for b in 0..t.config().groups {
                        let gws = t.gateways(GroupId(a), GroupId(b));
                        if a == b {
                            assert!(gws.is_empty());
                        } else {
                            assert_eq!(gws.len() as u32, t.config().links_per_group_pair());
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid topology config")]
    fn build_rejects_invalid() {
        let mut cfg = TopologyConfig::theta();
        cfg.groups = 1;
        let _ = Topology::build(cfg);
    }

    #[test]
    fn router_channels_partition_the_machine_by_owner() {
        for t in [small(), theta()] {
            let routers = t.config().total_routers();
            let mut owner: Vec<Option<u32>> = vec![None; t.channel_count()];
            for class in [
                ChannelClass::TerminalUp,
                ChannelClass::TerminalDown,
                ChannelClass::LocalRow,
                ChannelClass::LocalCol,
                ChannelClass::Global,
            ] {
                let per_router = t.router_channels(RouterId(0), class).len();
                for r in 0..routers {
                    let ids = t.router_channels(RouterId(r), class);
                    assert_eq!(ids.len(), per_router, "{class:?} router {r}");
                    assert!(ids.windows(2).all(|w| w[0] < w[1]), "id order");
                    for id in ids {
                        assert_eq!(t.channel(id).class, class);
                        assert_eq!(owner[id.index()].replace(r), None, "{id:?} listed twice");
                    }
                }
            }
            for (id, info) in t.channels() {
                let want = match info.src {
                    ChannelEnd::Router(r) => r,
                    ChannelEnd::Node(n) => t.node_router(n),
                };
                assert_eq!(owner[id.index()], Some(want.0), "{id:?} owner");
            }
        }
    }
}
