//! # dfly-network
//!
//! The packet-level dragonfly network model — this reproduction's stand-in
//! for the CODES dragonfly-custom model the paper uses.
//!
//! ## Model
//!
//! Messages are segmented into packets (default 4 KiB). Every packet is
//! routed at injection (as in the CODES model): **minimal** routes follow
//! the paper's Section III-C; **adaptive** routing picks among two minimal
//! and two non-minimal (Valiant) candidates, scored UGAL-style by the queue
//! occupancy of the first router-to-router channel times path length.
//!
//! Every directed link is a [`ChannelId`] with a set of virtual-channel
//! buffers (the paper's 8 KiB node/local and 16 KiB global VC buffers). A
//! channel serializes one packet at a time at the link bandwidth, and may
//! only start transmitting when the packet's *next* buffer has space —
//! credit-based back-pressure. The VC index strictly increases along every
//! route (VC = hop index), making the buffer dependency graph acyclic and
//! the network provably deadlock-free; a property test injects adversarial
//! random traffic and asserts the network always drains.
//!
//! Time a channel spends with a refused-full buffer is accumulated as
//! **link saturation time**, and transmitted bytes as **channel traffic** —
//! the two link-level metrics of the paper's evaluation.
//!
//! ## Construction
//!
//! A network is built one way: cold, by [`Network::new`] (serial) or
//! [`ShardedNetwork::new`] (one replica per group), and configured only by
//! [`NetworkParams`] — auditing, telemetry and its timing stride and clock
//! are fields read at construction. The one setter,
//! [`Network::set_obs_interval`], picks a non-default telemetry sampling
//! interval and, like the fields, is only valid before the first event.

#![warn(missing_docs)]

mod arbiter;
pub mod audit;
mod channel;
pub mod metrics;
pub mod net;
mod obs;
pub mod packet;
pub mod params;
pub mod policy;
pub mod routing;
pub mod shard;

pub use audit::{AuditKind, AuditReport, AuditViolation};
pub use channel::RUN_LEN as CHANNEL_RUN_LEN;
pub use dfly_obs::{CoarseTimeline, ObsReport};
pub use metrics::{
    class_index, local_series, ChannelFootprint, ChannelSnapshot, MetricsFilter, NetworkMetrics,
    CLASSES,
};
pub use net::{Delivery, Network, NetworkEvent};
pub use packet::{MessageId, PacketId};
pub use params::NetworkParams;
pub use policy::{ChannelView, PathPolicy, RouteCtx};
pub use routing::Routing;
pub use shard::{ShardParts, ShardedNetwork};
