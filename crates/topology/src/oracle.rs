//! The materializing builder every [`Topology`] query used to read from:
//! one [`ChannelInfo`] record per channel, nested per-pair gateway lists
//! and per-router global lists. Kept as the reference the computed
//! topology must agree with, query for query, on every arrangement.

use crate::arrangement::GlobalArrangement;
use crate::config::TopologyConfig;
use crate::ids::{ChannelClass, ChannelEnd, ChannelId, GroupId, NodeId, RouterId};
use crate::paths::{push_intra_group, push_minimal};
use crate::topology::{ChannelInfo, GlobalLink, Topology};
use dfly_engine::Xoshiro256;

struct Materialized {
    channels: Vec<ChannelInfo>,
    global_links: Vec<GlobalLink>,
    /// `[src_group][dst_group]` -> (gateway router, directed channel).
    gateways: Vec<Vec<Vec<(RouterId, ChannelId)>>>,
    /// `[router]` -> (outgoing global channel, group it lands in).
    router_globals: Vec<Vec<(ChannelId, GroupId)>>,
}

fn decompose(cfg: &TopologyConfig, router: u32) -> (u32, u32, u32) {
    let rpg = cfg.routers_per_group();
    (
        router / rpg,
        router % rpg / cfg.cols,
        router % rpg % cfg.cols,
    )
}

fn compose(cfg: &TopologyConfig, group: u32, row: u32, col: u32) -> u32 {
    group * cfg.routers_per_group() + row * cfg.cols + col
}

fn materialize(cfg: &TopologyConfig) -> Materialized {
    let n_nodes = cfg.total_nodes();
    let n_routers = cfg.total_routers();
    let link = |class, src, dst| ChannelInfo {
        class,
        src: ChannelEnd::Router(RouterId(src)),
        dst: ChannelEnd::Router(RouterId(dst)),
    };
    let mut channels = Vec::new();
    for node in 0..n_nodes {
        channels.push(ChannelInfo {
            class: ChannelClass::TerminalUp,
            src: ChannelEnd::Node(NodeId(node)),
            dst: ChannelEnd::Router(RouterId(node / cfg.nodes_per_router)),
        });
    }
    for node in 0..n_nodes {
        channels.push(ChannelInfo {
            class: ChannelClass::TerminalDown,
            src: ChannelEnd::Router(RouterId(node / cfg.nodes_per_router)),
            dst: ChannelEnd::Node(NodeId(node)),
        });
    }
    for r in 0..n_routers {
        let (g, row, col) = decompose(cfg, r);
        for dst_col in (0..cfg.cols).filter(|&c| c != col) {
            channels.push(link(
                ChannelClass::LocalRow,
                r,
                compose(cfg, g, row, dst_col),
            ));
        }
    }
    for r in 0..n_routers {
        let (g, row, col) = decompose(cfg, r);
        for dst_row in (0..cfg.rows).filter(|&w| w != row) {
            channels.push(link(
                ChannelClass::LocalCol,
                r,
                compose(cfg, g, dst_row, col),
            ));
        }
    }
    let rpg = cfg.routers_per_group();
    let plan = cfg.arrangement.plan(cfg);
    let mut endpoints = plan.iter();
    let mut global_links = Vec::new();
    let mut gateways = vec![vec![Vec::new(); cfg.groups as usize]; cfg.groups as usize];
    let mut router_globals = vec![Vec::new(); n_routers as usize];
    for ga in 0..cfg.groups {
        for gb in (ga + 1)..cfg.groups {
            for _ in 0..cfg.links_per_group_pair() {
                let &(la, lb) = endpoints.next().expect("arrangement plan too short");
                let (ra, rb) = (RouterId(ga * rpg + la), RouterId(gb * rpg + lb));
                let ab = ChannelId(channels.len() as u32);
                let ba = ChannelId(ab.0 + 1);
                channels.push(link(ChannelClass::Global, ra.0, rb.0));
                channels.push(link(ChannelClass::Global, rb.0, ra.0));
                global_links.push(GlobalLink {
                    a: ra,
                    b: rb,
                    ab,
                    ba,
                });
                gateways[ga as usize][gb as usize].push((ra, ab));
                gateways[gb as usize][ga as usize].push((rb, ba));
                router_globals[ra.index()].push((ab, GroupId(gb)));
                router_globals[rb.index()].push((ba, GroupId(ga)));
            }
        }
    }
    assert!(endpoints.next().is_none(), "arrangement plan too long");
    Materialized {
        channels,
        global_links,
        gateways,
        router_globals,
    }
}

/// Minimal routing over the materialized tables, as it read them: the
/// gateway drawn from the pair's list, the entry router looked up from
/// the chosen channel's record.
fn push_minimal_materialized(
    topo: &Topology,
    m: &Materialized,
    src: RouterId,
    dst: RouterId,
    rng: &mut Xoshiro256,
    out: &mut Vec<ChannelId>,
) {
    let (sg, dg) = (topo.router_group(src), topo.router_group(dst));
    if sg == dg {
        push_intra_group(topo, src, dst, rng, out);
        return;
    }
    let &(gw_router, gw_channel) = rng.choose(&m.gateways[sg.index()][dg.index()]);
    push_intra_group(topo, src, gw_router, rng, out);
    out.push(gw_channel);
    let entry = m.channels[gw_channel.index()]
        .dst
        .router()
        .expect("global ends at a router");
    push_intra_group(topo, entry, dst, rng, out);
}

const CLASSES: [ChannelClass; 5] = [
    ChannelClass::TerminalUp,
    ChannelClass::TerminalDown,
    ChannelClass::LocalRow,
    ChannelClass::LocalCol,
    ChannelClass::Global,
];

fn check(cfg: TopologyConfig) {
    let what = format!("{cfg:?}");
    let m = materialize(&cfg);
    let t = Topology::build(cfg);
    let cfg = t.config();

    assert_eq!(t.channel_count(), m.channels.len(), "{what}");
    for (i, info) in m.channels.iter().enumerate() {
        let id = ChannelId(i as u32);
        assert_eq!(t.channel(id), *info, "{what}: channel {id}");
        assert_eq!(t.channel_class(id), info.class, "{what}: class of {id}");
    }
    assert!(
        t.channels().map(|(_, c)| c).eq(m.channels.iter().copied()),
        "{what}: channels()"
    );
    assert!(
        t.channels()
            .map(|(id, _)| id.index())
            .eq(0..m.channels.len()),
        "{what}: ids"
    );
    for class in CLASSES {
        let walked = m.channels.iter().filter(|c| c.class == class).count();
        assert_eq!(t.class_channel_count(class), walked, "{what}: {class:?}");
    }
    for a in 0..cfg.groups {
        for b in 0..cfg.groups {
            let got: Vec<_> = t
                .gateways(GroupId(a), GroupId(b))
                .iter()
                .map(|gw| {
                    let far = m.channels[gw.channel.index()].dst.router();
                    assert_eq!(Some(gw.far), far, "{what}: far end of {}", gw.channel);
                    (gw.router, gw.channel)
                })
                .collect();
            assert_eq!(
                got, m.gateways[a as usize][b as usize],
                "{what}: gateways g{a}->g{b}"
            );
        }
    }
    for (r, want) in m.router_globals.iter().enumerate() {
        let got = t.router_global_channels(RouterId(r as u32));
        assert_eq!(got, want.as_slice(), "{what}: router {r} globals");
    }
    assert!(
        t.global_links().eq(m.global_links.iter().copied()),
        "{what}: global links"
    );

    // Same routes and the same RNG draws over random router pairs.
    let routers = cfg.total_routers() as u64;
    let mut pick = Xoshiro256::seed_from(0x0AC1E);
    let (mut rng_new, mut rng_old) = (Xoshiro256::seed_from(7), Xoshiro256::seed_from(7));
    let (mut new, mut old) = (Vec::new(), Vec::new());
    for _ in 0..2_000 {
        let src = RouterId(pick.next_below(routers) as u32);
        let dst = RouterId(pick.next_below(routers) as u32);
        new.clear();
        old.clear();
        push_minimal(&t, src, dst, &mut rng_new, &mut new);
        push_minimal_materialized(&t, &m, src, dst, &mut rng_old, &mut old);
        assert_eq!(new, old, "{what}: route {src}->{dst}");
    }
    assert_eq!(rng_new.next_u64(), rng_old.next_u64(), "{what}: RNG draws");
}

fn arrangements() -> [GlobalArrangement; 4] {
    [
        GlobalArrangement::RoundRobin,
        GlobalArrangement::Consecutive,
        GlobalArrangement::PalmTree,
        GlobalArrangement::Random { seed: 0xD1CE },
    ]
}

#[test]
fn computed_topology_matches_the_materialized_builder() {
    let shapes = [
        TopologyConfig::theta(),
        TopologyConfig::small_test(),
        TopologyConfig::quick(),
        TopologyConfig::canonical(2, 8, 4, 17),
        TopologyConfig::canonical(4, 8, 8, 65),
        TopologyConfig::canonical(1, 1, 2, 3),
    ];
    for base in shapes {
        for arrangement in arrangements() {
            check(TopologyConfig {
                arrangement,
                ..base.clone()
            });
        }
    }
}

#[test]
fn computed_topology_matches_the_materialized_builder_at_131k_nodes() {
    for arrangement in arrangements() {
        check(TopologyConfig {
            arrangement,
            ..TopologyConfig::canonical(16, 32, 16, 257)
        });
    }
}
