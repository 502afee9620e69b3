//! # dfly-topology
//!
//! The Cray XC ("Cascade") dragonfly topology used by the ALCF Theta system,
//! exactly as configured in the paper's Figure 1:
//!
//! * 9 groups, each with 96 Aries routers arranged in a 6 x 16 grid;
//! * every row of 16 routers is connected all-to-all by *local row* links,
//!   every column of 6 routers all-to-all by *local column* links;
//! * each row of 16 routers forms a **chassis**; 3 chassis form a **cabinet**;
//! * routers connect to other groups via **global** links;
//! * 4 compute nodes attach to each router via **terminal** links.
//!
//! The exact Theta global cabling is not public, so global links are wired
//! deterministically: every group pair gets an equal share of parallel
//! links, whose router endpoints are assigned round-robin so each router
//! carries exactly `global_links_per_router` links and gateways are spread
//! uniformly over the router grid (see `DESIGN.md`, substitution table).
//!
//! All channels (directed links) are enumerated with dense integer ids and
//! arithmetic index formulas so the simulator's hot path never hashes.
//! No channel is stored: [`Topology::channel`] computes a channel's
//! endpoints from its id, and only the global wiring (per-link endpoints,
//! per-pair [`Gateway`]s, per-router global ports) is tabulated, so the
//! topology's memory follows global links and router ports
//! ([`Topology::heap_bytes`]), not the channel count. Ids are `u32`;
//! [`TopologyConfig::validate`] rejects shapes whose counts do not fit.

#![warn(missing_docs)]

pub mod arrangement;
pub mod config;
pub mod ids;
#[cfg(test)]
mod oracle;
pub mod paths;
pub mod topology;

pub use arrangement::GlobalArrangement;
pub use config::TopologyConfig;
pub use ids::{
    CabinetId, ChannelClass, ChannelEnd, ChannelId, ChassisId, GroupId, NodeId, RouterId,
};
pub use paths::{Path, RouteKind};
pub use topology::{ChannelInfo, Gateway, GlobalLink, Topology};
