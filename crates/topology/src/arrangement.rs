//! Pluggable global-link arrangements.
//!
//! A dragonfly's inter-group wiring is a free parameter: for a fixed shape
//! every group pair receives `links_per_group_pair` parallel links, but
//! *which router* in each group terminates each link is an arrangement
//! choice (caminos-lib exposes the same knob). The arrangement changes
//! path diversity and gateway contention without touching the group
//! partition, so everything keyed off groups — the sharded PDES engine,
//! placement, audits — is unaffected.
//!
//! [`GlobalArrangement::plan`] materializes the choice as the flat list of
//! local endpoint indices consumed by [`Topology::build`]
//! (`crate::Topology::build`) in canonical pair order, so every
//! arrangement flows through the identical channel-id enumeration.

use crate::config::TopologyConfig;
use dfly_engine::Xoshiro256;

/// How global-link endpoints are assigned to routers within each group.
///
/// All variants keep the per-router global degree exactly
/// `global_links_per_router` and give every group pair its full share of
/// parallel links; they differ only in which routers pair up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlobalArrangement {
    /// The historical wiring (and the default): a rotating per-group
    /// cursor with a coprime stride assigns endpoints round-robin over
    /// the router grid. Byte-identical to the pre-arrangement builds.
    RoundRobin,
    /// Consecutive (caminos-lib's default-like layout): each group's
    /// endpoint slots are split into `groups - 1` consecutive chunks, and
    /// chunk `c` connects to the group's `c`-th peer in increasing group
    /// order. Parallel links of a pair land on consecutive routers.
    Consecutive,
    /// Palm-tree (Marina García's thesis; caminos-lib `Palmtree`): chunk
    /// `d` of group `i` connects to group `(i - 1 - d) mod g`, giving the
    /// rotation-symmetric cabling used in most dragonfly literature.
    PalmTree,
    /// Seeded-random: the consecutive chunk structure with each group's
    /// endpoint slots permuted by a seeded Fisher-Yates shuffle. The same
    /// seed always yields the same wiring (two builds are byte-identical).
    Random {
        /// Wiring seed; independent from the experiment master seed so a
        /// machine can be held fixed across a sweep.
        seed: u64,
    },
}

impl Default for GlobalArrangement {
    fn default() -> GlobalArrangement {
        GlobalArrangement::RoundRobin
    }
}

impl GlobalArrangement {
    /// Short label for config nomenclature and CSV headers.
    pub fn label(&self) -> String {
        match self {
            GlobalArrangement::RoundRobin => "rr".into(),
            GlobalArrangement::Consecutive => "consec".into(),
            GlobalArrangement::PalmTree => "palm".into(),
            GlobalArrangement::Random { seed } => format!("rand{seed:#x}"),
        }
    }

    /// The endpoint plan: for every canonical group pair `(ga, gb)` with
    /// `ga < gb`, iterated in lexicographic order, and every one of the
    /// pair's `links_per_group_pair` links in order, the local router
    /// indices `(la, lb)` terminating that link in `ga` and `gb`.
    ///
    /// The returned vector has exactly
    /// `groups * (groups - 1) / 2 * links_per_group_pair` entries, and
    /// every router index appears exactly `global_links_per_router` times
    /// across its group's entries (uniform global degree).
    pub fn plan(&self, cfg: &TopologyConfig) -> Vec<(u32, u32)> {
        let g = cfg.groups;
        let lpp = cfg.links_per_group_pair();
        let rpg = cfg.routers_per_group();
        let pairs = (g * (g - 1) / 2) as usize;
        let mut out = Vec::with_capacity(pairs * lpp as usize);
        match self {
            GlobalArrangement::RoundRobin => {
                // The exact historical loop: per-group cursors advanced by
                // a stride coprime with the router count.
                let stride = pick_stride(rpg);
                // `(c + stride) % rpg` without the division: c < rpg and
                // stride <= rpg, so one subtraction wraps.
                debug_assert!(stride <= rpg);
                let advance = |c: u32| c + stride - if c + stride >= rpg { rpg } else { 0 };
                let mut cursor: Vec<u32> = (0..g).map(|grp| (grp * 7) % rpg).collect();
                for ga in 0..g {
                    for gb in (ga + 1)..g {
                        for _ in 0..lpp {
                            let la = cursor[ga as usize];
                            cursor[ga as usize] = advance(la);
                            let lb = cursor[gb as usize];
                            cursor[gb as usize] = advance(lb);
                            out.push((la, lb));
                        }
                    }
                }
            }
            GlobalArrangement::Consecutive | GlobalArrangement::PalmTree => {
                for ga in 0..g {
                    for gb in (ga + 1)..g {
                        let ca = self.chunk_of(ga, gb, g);
                        let cb = self.chunk_of(gb, ga, g);
                        for k in 0..lpp {
                            out.push((ca * lpp + k, cb * lpp + k));
                        }
                    }
                }
            }
            GlobalArrangement::Random { seed } => {
                // Consecutive chunk structure over per-group permutations
                // of the endpoint slots. Each slot is used exactly once,
                // so the uniform-degree invariant survives the shuffle.
                let slots = (rpg * cfg.global_links_per_router) as usize;
                let perms: Vec<Vec<u32>> = (0..g)
                    .map(|grp| {
                        let mut p: Vec<u32> = (0..slots as u32).collect();
                        // Distinct deterministic stream per group.
                        let mut rng = Xoshiro256::seed_from(
                            seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(grp as u64 + 1)),
                        );
                        rng.shuffle(&mut p);
                        p
                    })
                    .collect();
                for ga in 0..g {
                    for gb in (ga + 1)..g {
                        let ca = self.chunk_of(ga, gb, g);
                        let cb = self.chunk_of(gb, ga, g);
                        for k in 0..lpp {
                            let sa = perms[ga as usize][(ca * lpp + k) as usize];
                            let sb = perms[gb as usize][(cb * lpp + k) as usize];
                            out.push((sa, sb));
                        }
                    }
                }
            }
        }

        // Endpoint slots are grouped h-per-router: slot s lives on router
        // s / h, so consecutive slots of a chunk spread over consecutive
        // routers while each router owns exactly h slots.
        if !matches!(self, GlobalArrangement::RoundRobin) {
            let h = cfg.global_links_per_router;
            for e in &mut out {
                e.0 /= h;
                e.1 /= h;
            }
        }
        out
    }

    /// The chunk index (0-based position among a group's `g - 1` peers)
    /// group `grp` dedicates to `peer`.
    fn chunk_of(&self, grp: u32, peer: u32, g: u32) -> u32 {
        debug_assert_ne!(grp, peer);
        match self {
            // Peers in increasing group order.
            GlobalArrangement::Consecutive | GlobalArrangement::Random { .. } => {
                if peer < grp {
                    peer
                } else {
                    peer - 1
                }
            }
            // Chunk d of group i targets (i - 1 - d) mod g, so
            // d = (i - 1 - peer) mod g; d ranges over 0..g-1 as peer
            // ranges over every other group.
            GlobalArrangement::PalmTree => (grp + g - 1 - peer) % g,
            GlobalArrangement::RoundRobin => unreachable!("round-robin has no chunk structure"),
        }
    }
}

/// Pick a cursor stride that cycles through all routers of a group
/// (coprime with `rpg`) while jumping between rows, so parallel links of
/// one group pair spread over the grid.
pub(crate) fn pick_stride(rpg: u32) -> u32 {
    let mut s = rpg / 3 + 1;
    while gcd(s, rpg) != 1 {
        s += 1;
    }
    s
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [GlobalArrangement; 4] = [
        GlobalArrangement::RoundRobin,
        GlobalArrangement::Consecutive,
        GlobalArrangement::PalmTree,
        GlobalArrangement::Random { seed: 0xA11CE },
    ];

    fn degree_check(cfg: &TopologyConfig, plan: &[(u32, u32)]) {
        let g = cfg.groups;
        let rpg = cfg.routers_per_group();
        let mut degree = vec![0u32; (g * rpg) as usize];
        let mut i = 0;
        for ga in 0..g {
            for gb in (ga + 1)..g {
                for _ in 0..cfg.links_per_group_pair() {
                    let (la, lb) = plan[i];
                    assert!(la < rpg && lb < rpg, "endpoint out of range");
                    degree[(ga * rpg + la) as usize] += 1;
                    degree[(gb * rpg + lb) as usize] += 1;
                    i += 1;
                }
            }
        }
        assert_eq!(i, plan.len());
        for (r, &d) in degree.iter().enumerate() {
            assert_eq!(d, cfg.global_links_per_router, "router {r} degree {d}");
        }
    }

    #[test]
    fn every_arrangement_is_degree_uniform() {
        for cfg in [
            TopologyConfig::theta(),
            TopologyConfig::small_test(),
            TopologyConfig::canonical(2, 4, 2, 5),
        ] {
            for arr in ALL {
                degree_check(&cfg, &arr.plan(&cfg));
            }
        }
    }

    #[test]
    fn round_robin_matches_historical_cursor() {
        // Independent reimplementation of the pre-arrangement loop.
        let cfg = TopologyConfig::small_test();
        let rpg = cfg.routers_per_group();
        let stride = pick_stride(rpg);
        let mut cursor: Vec<u32> = (0..cfg.groups).map(|g| (g * 7) % rpg).collect();
        let mut expected = Vec::new();
        for ga in 0..cfg.groups {
            for gb in (ga + 1)..cfg.groups {
                for _ in 0..cfg.links_per_group_pair() {
                    let la = cursor[ga as usize];
                    cursor[ga as usize] = (la + stride) % rpg;
                    let lb = cursor[gb as usize];
                    cursor[gb as usize] = (lb + stride) % rpg;
                    expected.push((la, lb));
                }
            }
        }
        assert_eq!(GlobalArrangement::RoundRobin.plan(&cfg), expected);
    }

    #[test]
    fn palm_tree_chunks_cover_every_peer_once() {
        let g = 9u32;
        let arr = GlobalArrangement::PalmTree;
        for grp in 0..g {
            let mut seen = std::collections::HashSet::new();
            for peer in (0..g).filter(|&p| p != grp) {
                let c = arr.chunk_of(grp, peer, g);
                assert!(c < g - 1, "chunk {c} out of range");
                assert!(seen.insert(c), "group {grp}: chunk {c} reused");
            }
        }
    }

    #[test]
    fn random_is_seed_deterministic_and_seed_sensitive() {
        let cfg = TopologyConfig::small_test();
        let a = GlobalArrangement::Random { seed: 7 }.plan(&cfg);
        let b = GlobalArrangement::Random { seed: 7 }.plan(&cfg);
        assert_eq!(a, b, "same seed must wire identically");
        let c = GlobalArrangement::Random { seed: 8 }.plan(&cfg);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<String> = ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), ALL.len());
        assert_eq!(GlobalArrangement::Random { seed: 255 }.label(), "rand0xff");
    }

    #[test]
    fn stride_is_coprime() {
        for rpg in [8u32, 32, 96, 100, 7] {
            let s = pick_stride(rpg);
            assert_eq!(gcd(s, rpg), 1);
        }
    }
}
