//! Topology configuration, with the paper's Theta parameters as default.

use crate::arrangement::GlobalArrangement;
use dfly_engine::kv::{kv, ToKv};
use dfly_engine::{Bandwidth, Ns};

/// Shape and link parameters of a dragonfly machine.
///
/// [`TopologyConfig::theta`] is the exact configuration in the paper's
/// Section II: 9 groups x (6 x 16) routers x 4 nodes; 16 GiB/s terminal,
/// 5.25 GiB/s local, 4.69 GiB/s global links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyConfig {
    /// Number of groups.
    pub groups: u32,
    /// Router rows per group (a row is a chassis on Theta).
    pub rows: u32,
    /// Router columns per group.
    pub cols: u32,
    /// Compute nodes attached to each router.
    pub nodes_per_router: u32,
    /// Global link endpoints per router. Total global links per group pair
    /// is `rows * cols * global_links_per_router / (groups - 1)`.
    pub global_links_per_router: u32,
    /// Chassis (rows) per cabinet; Theta: 3.
    pub chassis_per_cabinet: u32,
    /// Terminal (node<->router) link bandwidth.
    pub terminal_bw: Bandwidth,
    /// Local (intra-group) link bandwidth.
    pub local_bw: Bandwidth,
    /// Global (inter-group) link bandwidth.
    pub global_bw: Bandwidth,
    /// Fixed per-hop router traversal latency.
    pub router_latency: Ns,
    /// Propagation latency of local links.
    pub local_latency: Ns,
    /// Propagation latency of global (optical) links.
    pub global_latency: Ns,
    /// Propagation latency of terminal links.
    pub terminal_latency: Ns,
    /// How global-link endpoints are assigned to routers within groups.
    /// [`GlobalArrangement::RoundRobin`] (the default) reproduces the
    /// historical wiring byte for byte.
    pub arrangement: GlobalArrangement,
}

impl TopologyConfig {
    /// The paper's Theta configuration (Section II).
    pub fn theta() -> TopologyConfig {
        TopologyConfig {
            groups: 9,
            rows: 6,
            cols: 16,
            nodes_per_router: 4,
            global_links_per_router: 4,
            chassis_per_cabinet: 3,
            terminal_bw: Bandwidth::from_gib_per_sec(16),
            local_bw: Bandwidth::from_gib_per_sec_hundredths(525),
            global_bw: Bandwidth::from_gib_per_sec_hundredths(469),
            // Aries-like latencies: ~100ns per router traversal, short
            // electrical local links, longer optical global links.
            router_latency: Ns(100),
            local_latency: Ns(30),
            global_latency: Ns(1500),
            terminal_latency: Ns(30),
            arrangement: GlobalArrangement::RoundRobin,
        }
    }

    /// A canonic `(p, a, h, g)` dragonfly (the standard parameterization
    /// of the dragonfly literature and caminos-lib): `g` groups of `a`
    /// routers each, `p` compute nodes and `h` global-link endpoints per
    /// router, with the `a` routers of a group connected all-to-all.
    ///
    /// Mapped onto the row/column layout as a single row of `a` routers,
    /// so the row links *are* the complete intra-group graph and every
    /// existing channel class, id formula, and audit applies unchanged.
    /// Link speeds and latencies default to Theta's; override fields as
    /// needed. Requires `a * h` divisible by `g - 1` (see
    /// [`TopologyConfig::validate`], which suggests the nearest valid `h`).
    pub fn canonical(p: u32, a: u32, h: u32, g: u32) -> TopologyConfig {
        TopologyConfig {
            groups: g,
            rows: 1,
            cols: a,
            nodes_per_router: p,
            global_links_per_router: h,
            chassis_per_cabinet: 1,
            ..TopologyConfig::theta()
        }
    }

    /// A miniature dragonfly (4 groups of 2x4 routers, 2 nodes/router =
    /// 64 nodes) for fast tests and doctests. Same link speeds as Theta.
    pub fn small_test() -> TopologyConfig {
        TopologyConfig {
            groups: 4,
            rows: 2,
            cols: 4,
            nodes_per_router: 2,
            global_links_per_router: 3,
            chassis_per_cabinet: 2,
            ..TopologyConfig::theta()
        }
    }

    /// A mid-size machine (6 groups of 4x8 routers, 4 nodes/router =
    /// 768 nodes) used by the `--quick` reproduction mode: big enough to
    /// show the placement/routing contrasts, ~4.5x fewer nodes than Theta.
    pub fn quick() -> TopologyConfig {
        TopologyConfig {
            groups: 6,
            rows: 4,
            cols: 8,
            nodes_per_router: 4,
            global_links_per_router: 5,
            chassis_per_cabinet: 2,
            ..TopologyConfig::theta()
        }
    }

    /// Routers per group.
    pub fn routers_per_group(&self) -> u32 {
        self.rows * self.cols
    }

    /// Total routers in the machine.
    pub fn total_routers(&self) -> u32 {
        self.groups * self.routers_per_group()
    }

    /// Total compute nodes in the machine.
    pub fn total_nodes(&self) -> u32 {
        self.total_routers() * self.nodes_per_router
    }

    /// Nodes per chassis (one router row).
    pub fn nodes_per_chassis(&self) -> u32 {
        self.cols * self.nodes_per_router
    }

    /// Nodes per cabinet.
    pub fn nodes_per_cabinet(&self) -> u32 {
        self.nodes_per_chassis() * self.chassis_per_cabinet
    }

    /// Total chassis in the machine.
    pub fn total_chassis(&self) -> u32 {
        self.groups * self.rows
    }

    /// Global links connecting each (unordered) group pair.
    pub fn links_per_group_pair(&self) -> u32 {
        let endpoints = self.routers_per_group() * self.global_links_per_router;
        endpoints / (self.groups - 1)
    }

    /// The nearest `global_links_per_router` value (for this shape) that
    /// spreads global endpoints evenly over the `groups - 1` peer groups.
    /// Ties between an equally-near smaller and larger value go to the
    /// larger (more path diversity). Returns the current value when it is
    /// already valid.
    pub fn nearest_valid_global_links(&self) -> u32 {
        let peers = self.groups.saturating_sub(1).max(1);
        let rpg = u64::from(self.rows) * u64::from(self.cols);
        let ok = |h: u32| h > 0 && (rpg * u64::from(h)) % u64::from(peers) == 0;
        let h = self.global_links_per_router;
        if ok(h) {
            return h;
        }
        for d in 1..=peers {
            if ok(h + d) {
                return h + d;
            }
            if h > d && ok(h - d) {
                return h - d;
            }
        }
        peers // rpg * peers is always divisible by peers
    }

    /// Validate internal consistency. Returns a human-readable error
    /// naming the offending field and its value.
    pub fn validate(&self) -> Result<(), String> {
        if self.groups < 2 {
            return Err(format!(
                "groups ({}) must be at least 2 — a dragonfly needs peers to wire globally",
                self.groups
            ));
        }
        if self.rows == 0 || self.cols == 0 {
            return Err(format!(
                "rows ({}) and cols ({}) must both be positive",
                self.rows, self.cols
            ));
        }
        if self.nodes_per_router == 0 {
            return Err(format!(
                "nodes_per_router ({}) must be positive",
                self.nodes_per_router
            ));
        }
        if self.chassis_per_cabinet == 0 || self.rows % self.chassis_per_cabinet != 0 {
            return Err(format!(
                "rows ({}) must be a positive multiple of chassis_per_cabinet ({})",
                self.rows, self.chassis_per_cabinet
            ));
        }
        // Every id is a `u32` and the count accessors multiply in `u32`
        // (wrapping silently in release builds): reject shapes whose
        // routers, nodes or channels do not fit before anything counts
        // them.
        let limit = u128::from(u32::MAX);
        let routers = u128::from(self.groups) * u128::from(self.rows) * u128::from(self.cols);
        if routers > limit {
            return Err(format!(
                "total routers ({routers} = groups*rows*cols = {}*{}*{}) exceeds u32::MAX \
                 ({limit}): router ids are u32",
                self.groups, self.rows, self.cols
            ));
        }
        let nodes = routers * u128::from(self.nodes_per_router);
        if nodes > limit {
            return Err(format!(
                "total_nodes ({nodes} = {routers} routers * nodes_per_router {}) exceeds \
                 u32::MAX ({limit}): node ids are u32",
                self.nodes_per_router
            ));
        }
        let per_router = u128::from(self.cols - 1)
            + u128::from(self.rows - 1)
            + u128::from(self.global_links_per_router);
        let channels = 2 * nodes + routers * per_router;
        if channels > limit {
            return Err(format!(
                "channel count ({channels} for {nodes} nodes and {routers} routers with \
                 global_links_per_router {}) exceeds u32::MAX ({limit}): channel ids are u32",
                self.global_links_per_router
            ));
        }
        let endpoints = self.routers_per_group() * self.global_links_per_router;
        if endpoints % (self.groups - 1) != 0 {
            return Err(format!(
                "global endpoints per group (rows*cols*global_links_per_router = \
                 {}*{}*{} = {endpoints}) must divide evenly among the {} peer \
                 groups; nearest valid global_links_per_router is {}",
                self.rows,
                self.cols,
                self.global_links_per_router,
                self.groups - 1,
                self.nearest_valid_global_links()
            ));
        }
        if self.links_per_group_pair() == 0 {
            return Err(format!(
                "global_links_per_router ({}) gives every group pair zero global \
                 links ({endpoints} endpoints over {} peers); every pair needs at \
                 least one",
                self.global_links_per_router,
                self.groups - 1
            ));
        }
        Ok(())
    }
}

impl ToKv for TopologyConfig {
    fn to_kv(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        kv(&mut out, "groups", self.groups);
        kv(&mut out, "rows", self.rows);
        kv(&mut out, "cols", self.cols);
        kv(&mut out, "nodes_per_router", self.nodes_per_router);
        kv(
            &mut out,
            "global_links_per_router",
            self.global_links_per_router,
        );
        kv(&mut out, "chassis_per_cabinet", self.chassis_per_cabinet);
        kv(&mut out, "terminal_bw", self.terminal_bw);
        kv(&mut out, "local_bw", self.local_bw);
        kv(&mut out, "global_bw", self.global_bw);
        kv(&mut out, "router_latency", self.router_latency);
        kv(&mut out, "local_latency", self.local_latency);
        kv(&mut out, "global_latency", self.global_latency);
        kv(&mut out, "terminal_latency", self.terminal_latency);
        // Emitted only when non-default so existing echoes (and the golden
        // CSVs embedding them) keep their exact bytes — the same contract
        // as the experiment-level `parallelism` key.
        if self.arrangement != GlobalArrangement::RoundRobin {
            kv(&mut out, "arrangement", self.arrangement.label());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_shape_matches_paper() {
        let t = TopologyConfig::theta();
        t.validate().unwrap();
        assert_eq!(t.routers_per_group(), 96);
        assert_eq!(t.total_routers(), 864);
        assert_eq!(t.total_nodes(), 3456);
        assert_eq!(t.nodes_per_chassis(), 64);
        assert_eq!(t.nodes_per_cabinet(), 192);
        assert_eq!(t.total_chassis(), 54);
        // 96 routers * 4 links = 384 endpoints over 8 peers = 48 links/pair.
        assert_eq!(t.links_per_group_pair(), 48);
    }

    #[test]
    fn small_test_is_valid() {
        let t = TopologyConfig::small_test();
        t.validate().unwrap();
        assert_eq!(t.total_nodes(), 64);
        // 8 routers * 3 = 24 endpoints over 3 peers = 8 links/pair.
        assert_eq!(t.links_per_group_pair(), 8);
    }

    #[test]
    fn quick_is_valid() {
        let t = TopologyConfig::quick();
        t.validate().unwrap();
        assert_eq!(t.total_nodes(), 768);
        assert_eq!(t.links_per_group_pair(), 32);
    }

    #[test]
    fn validate_rejects_bad_shapes_naming_field_and_value() {
        let mut t = TopologyConfig::theta();
        t.groups = 1;
        assert!(t.validate().unwrap_err().contains("groups (1)"));

        let mut t = TopologyConfig::theta();
        t.rows = 0;
        assert!(t.validate().unwrap_err().contains("rows (0)"));

        let mut t = TopologyConfig::theta();
        t.nodes_per_router = 0;
        assert!(t.validate().unwrap_err().contains("nodes_per_router (0)"));

        let mut t = TopologyConfig::theta();
        t.chassis_per_cabinet = 4; // 6 rows not divisible by 4
        let e = t.validate().unwrap_err();
        assert!(e.contains("rows (6)") && e.contains("chassis_per_cabinet (4)"));

        let mut t = TopologyConfig::theta();
        t.groups = 8; // 384 endpoints not divisible by 7 peers
        let e = t.validate().unwrap_err();
        assert!(e.contains("6*16*4 = 384") && e.contains("7 peer"), "{e}");
    }

    #[test]
    fn validate_rejects_shapes_whose_ids_overflow_u32() {
        // 65,537 x 256 routers x 256 nodes = 4,295,032,832 nodes: the
        // u32 node count would wrap to 65,536.
        let e = TopologyConfig::canonical(256, 256, 256, 65537)
            .validate()
            .unwrap_err();
        assert!(e.contains("total_nodes (4295032832"), "{e}");
        // Routers past u32 are named before anything multiplies them.
        let e = TopologyConfig::canonical(1, 65536, 65536, 65537)
            .validate()
            .unwrap_err();
        assert!(e.contains("total routers (4295032832"), "{e}");
        // Nodes fit, channels do not: 2^31 nodes need 2^32 terminal
        // channels alone.
        let mut t = TopologyConfig::canonical(128, 128, 1, 131_073);
        t.global_links_per_router = t.nearest_valid_global_links();
        assert!(u128::from(t.groups) * 128 * 128 <= u128::from(u32::MAX));
        let e = t.validate().unwrap_err();
        assert!(e.contains("channel count ("), "{e}");
        assert!(e.contains(&format!(
            "global_links_per_router {}",
            t.global_links_per_router
        )));
        // The largest shapes in use stay valid.
        TopologyConfig::canonical(16, 32, 16, 257)
            .validate()
            .unwrap();
    }

    #[test]
    fn canonical_shape_and_divisibility_suggestion() {
        // (p=2, a=8, h=4, g=17): 8*4 = 32 endpoints over 16 peers = 2/pair.
        let t = TopologyConfig::canonical(2, 8, 4, 17);
        t.validate().unwrap();
        assert_eq!(t.routers_per_group(), 8);
        assert_eq!(t.total_nodes(), 272);
        assert_eq!(t.links_per_group_pair(), 2);
        assert_eq!(t.rows, 1, "canonic groups are a single all-to-all row");

        // a*h = 8*3 = 24 not divisible by g-1 = 16: rejected with the
        // nearest valid h named in the message.
        let bad = TopologyConfig::canonical(2, 8, 3, 17);
        let e = bad.validate().unwrap_err();
        assert_eq!(bad.nearest_valid_global_links(), 4);
        assert!(
            e.contains("global_links_per_router is 4"),
            "message must suggest the nearest valid h: {e}"
        );

        // Already-valid h is its own suggestion.
        assert_eq!(t.nearest_valid_global_links(), 4);
        // A case where the nearest fix is below the requested h:
        // a=3, g=10 needs 3h divisible by 9, i.e. h a multiple of 3.
        let low = TopologyConfig::canonical(2, 3, 4, 10);
        assert_eq!(low.nearest_valid_global_links(), 3);
    }

    #[test]
    fn config_echo_covers_every_field_once() {
        let t = TopologyConfig::theta();
        let kvs = t.to_kv();
        // 13 always-echoed fields, each exactly once, in declaration
        // order; `arrangement` appears only when non-default (14 fields
        // total) so historical echoes keep their bytes.
        assert_eq!(kvs.len(), 13);
        let keys: std::collections::HashSet<_> = kvs.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys.len(), kvs.len(), "duplicate keys in config echo");
        assert_eq!(kvs[0], ("groups".to_string(), "9".to_string()));
        // Equal configs echo byte-identically; different configs differ.
        assert_eq!(t.kv_echo(), TopologyConfig::theta().kv_echo());
        assert_ne!(t.kv_echo(), TopologyConfig::quick().kv_echo());
    }

    #[test]
    fn arrangement_key_only_echoed_when_non_default() {
        let mut t = TopologyConfig::theta();
        assert!(!t.kv_echo().contains("arrangement"));
        t.arrangement = GlobalArrangement::PalmTree;
        assert_eq!(t.to_kv().len(), 14);
        assert!(t.kv_echo().contains("arrangement = palm"));
        t.arrangement = GlobalArrangement::Random { seed: 3 };
        assert!(t.kv_echo().contains("arrangement = rand0x3"));
    }
}
