//! Dense integer identifiers for every entity in the machine.
//!
//! All ids are `u32` newtypes: the largest machine in the study has
//! 131,584 nodes and 649,696 directed channels, so `u32` is roomy while
//! keeping the simulator's per-packet state small (see the type-size
//! guidance in the Rust Performance Book). [`TopologyConfig::validate`]
//! rejects shapes whose router, node or channel count exceeds `u32::MAX`.
//!
//! [`TopologyConfig::validate`]: crate::TopologyConfig::validate

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// A dragonfly group (Theta: 9 groups of 96 routers).
    GroupId,
    "g"
);
id_type!(
    /// A router, indexed globally: `group * routers_per_group + row * cols + col`.
    RouterId,
    "r"
);
id_type!(
    /// A compute node, indexed globally: `router * nodes_per_router + slot`.
    NodeId,
    "n"
);
id_type!(
    /// A chassis: one row of 16 routers (Theta). Indexed globally.
    ChassisId,
    "ch"
);
id_type!(
    /// A cabinet: 3 chassis (Theta). Indexed globally.
    CabinetId,
    "cab"
);
id_type!(
    /// A directed channel (link direction). Dense over the whole machine.
    ChannelId,
    "L"
);

/// The class of a directed channel. Classes determine bandwidth, latency,
/// and virtual-channel buffer capacity (the paper: node VC 8 KiB, local VC
/// 8 KiB, global VC 16 KiB), and the traffic/saturation metrics are reported
/// per class ("local channels" vs "global channels").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelClass {
    /// Node -> router injection link.
    TerminalUp,
    /// Router -> node ejection link.
    TerminalDown,
    /// All-to-all link within a router row (green links in Fig. 1).
    LocalRow,
    /// All-to-all link within a router column (black links in Fig. 1).
    LocalCol,
    /// Inter-group optical link (blue links in Fig. 1).
    Global,
}

impl ChannelClass {
    /// Is this one of the two intra-group local classes?
    #[inline]
    pub fn is_local(self) -> bool {
        matches!(self, ChannelClass::LocalRow | ChannelClass::LocalCol)
    }

    /// Is this a router-to-router class (i.e. counted as a "hop")?
    #[inline]
    pub fn is_router_to_router(self) -> bool {
        matches!(
            self,
            ChannelClass::LocalRow | ChannelClass::LocalCol | ChannelClass::Global
        )
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ChannelClass::TerminalUp => "term-up",
            ChannelClass::TerminalDown => "term-down",
            ChannelClass::LocalRow => "local-row",
            ChannelClass::LocalCol => "local-col",
            ChannelClass::Global => "global",
        }
    }
}

/// One endpoint of a directed channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelEnd {
    /// A compute node (terminal channels only).
    Node(NodeId),
    /// A router.
    Router(RouterId),
}

impl ChannelEnd {
    /// The router at this end, if it is a router.
    pub fn router(self) -> Option<RouterId> {
        match self {
            ChannelEnd::Router(r) => Some(r),
            ChannelEnd::Node(_) => None,
        }
    }

    /// The node at this end, if it is a node.
    pub fn node(self) -> Option<NodeId> {
        match self {
            ChannelEnd::Node(n) => Some(n),
            ChannelEnd::Router(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes() {
        assert_eq!(GroupId(3).to_string(), "g3");
        assert_eq!(RouterId(42).to_string(), "r42");
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(ChassisId(1).to_string(), "ch1");
        assert_eq!(CabinetId(0).to_string(), "cab0");
        assert_eq!(ChannelId(99).to_string(), "L99");
    }

    #[test]
    fn class_predicates() {
        assert!(ChannelClass::LocalRow.is_local());
        assert!(ChannelClass::LocalCol.is_local());
        assert!(!ChannelClass::Global.is_local());
        assert!(!ChannelClass::TerminalUp.is_local());
        assert!(ChannelClass::Global.is_router_to_router());
        assert!(!ChannelClass::TerminalDown.is_router_to_router());
    }

    #[test]
    fn endpoint_accessors() {
        let e = ChannelEnd::Node(NodeId(5));
        assert_eq!(e.node(), Some(NodeId(5)));
        assert_eq!(e.router(), None);
        let e = ChannelEnd::Router(RouterId(9));
        assert_eq!(e.router(), Some(RouterId(9)));
        assert_eq!(e.node(), None);
    }

    #[test]
    fn ids_order_and_index() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(RouterId(17).index(), 17usize);
        assert_eq!(NodeId::from(4u32), NodeId(4));
    }
}
