//! Packet and message bookkeeping.

use dfly_engine::{Bytes, Ns};
use dfly_topology::{ChannelId, NodeId};

/// Longest possible route in channels: terminal-up + at most 10
/// router-to-router hops (non-minimal worst case) + terminal-down.
pub const MAX_ROUTE_LEN: usize = dfly_topology::paths::MAX_ROUTER_HOPS + 2;

/// Index of a message in the network's message table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MessageId(pub u64);

/// Index of a packet in the network's (recycled) packet arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(pub u32);

/// Sentinel for "no packet" in the intrusive queue links ([`Packet::next`]).
pub(crate) const NO_PACKET: u32 = u32::MAX;

/// A fixed-capacity route: avoids a heap allocation per packet, which at
/// millions of packets per run is the simulator's dominant cost otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    channels: [ChannelId; MAX_ROUTE_LEN],
    len: u8,
}

impl Route {
    /// Build from a channel list. Panics if longer than [`MAX_ROUTE_LEN`].
    pub fn from_slice(channels: &[ChannelId]) -> Route {
        assert!(
            channels.len() <= MAX_ROUTE_LEN,
            "route of {} exceeds MAX_ROUTE_LEN",
            channels.len()
        );
        let mut arr = [ChannelId(u32::MAX); MAX_ROUTE_LEN];
        arr[..channels.len()].copy_from_slice(channels);
        Route {
            channels: arr,
            len: channels.len() as u8,
        }
    }

    /// Number of channels on the route.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for a (degenerate) empty route.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Channel at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> ChannelId {
        debug_assert!(i < self.len());
        self.channels[i]
    }

    /// The channels as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[ChannelId] {
        &self.channels[..self.len()]
    }

    /// Router-to-router hops: total channels minus the two terminal links.
    #[inline]
    pub fn router_hops(&self) -> u32 {
        (self.len() as u32).saturating_sub(2)
    }
}

/// In-flight packet state: one 64-byte cache line, because the arena
/// holds hundreds of thousands of these and nearly every event reads one.
/// The route is stored inline with its length, position and routed flag
/// packed into the line's last bytes.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub struct Packet {
    /// The route's channels, terminal links included; entries from
    /// `route_len` on are unused.
    channels: [ChannelId; MAX_ROUTE_LEN],
    /// Owning message's slot in the message table (slots fit in a `u32`;
    /// the table checks at allocation).
    msg: u32,
    /// Payload bytes carried by this packet.
    pub size: u32,
    /// Intrusive link: arena index of the packet behind this one in
    /// whichever FIFO (NIC queue or VC buffer) currently holds it, or
    /// [`NO_PACKET`]. A packet sits in at most one queue at a time, so a
    /// single link suffices and the queues themselves are just
    /// head/tail pairs — no per-VC heap allocation.
    pub(crate) next: u32,
    /// Position in the route where the packet currently sits (or is
    /// heading).
    pub hop: u8,
    /// False until the source router has fixed the route. Until then the
    /// route is the placeholder `[terminal-up, terminal-down]`; the real
    /// route is computed when the packet first reaches the head of the
    /// injection buffer, using the congestion state of that moment —
    /// per-packet adaptive routing as on real Aries hardware.
    pub routed: bool,
    route_len: u8,
}

impl Packet {
    /// A packet of `size` bytes of message `msg` at hop 0 of `route`, not
    /// yet routed. Panics if the route is longer than [`MAX_ROUTE_LEN`].
    pub fn new(msg: MessageId, size: u32, route: &[ChannelId]) -> Packet {
        let mut packet = Packet {
            channels: [ChannelId(u32::MAX); MAX_ROUTE_LEN],
            msg: u32::try_from(msg.0).expect("message slots fit in u32"),
            size,
            next: NO_PACKET,
            hop: 0,
            routed: false,
            route_len: 0,
        };
        packet.set_route(route);
        packet
    }

    /// The owning message.
    #[inline]
    pub fn msg(&self) -> MessageId {
        MessageId(u64::from(self.msg))
    }

    /// The full route, terminal links included.
    #[inline]
    pub fn route(&self) -> &[ChannelId] {
        &self.channels[..self.route_len as usize]
    }

    /// Replace the route. Panics if longer than [`MAX_ROUTE_LEN`].
    pub fn set_route(&mut self, route: &[ChannelId]) {
        assert!(
            route.len() <= MAX_ROUTE_LEN,
            "route of {} exceeds MAX_ROUTE_LEN",
            route.len()
        );
        self.channels[..route.len()].copy_from_slice(route);
        self.route_len = route.len() as u8;
    }

    /// Router-to-router hops: route channels minus the two terminal links.
    #[inline]
    pub fn router_hops(&self) -> u32 {
        u32::from(self.route_len).saturating_sub(2)
    }

    /// Channel the packet currently occupies.
    #[inline]
    pub fn current_channel(&self) -> ChannelId {
        debug_assert!(self.hop < self.route_len);
        self.channels[self.hop as usize]
    }

    /// Channel after the current one, or `None` at the last hop.
    #[inline]
    pub fn next_channel(&self) -> Option<ChannelId> {
        let next = self.hop as usize + 1;
        if next < self.route_len as usize {
            Some(self.channels[next])
        } else {
            None
        }
    }

    /// Virtual-channel index used at hop `h` (equals `h`, the ascending-VC
    /// deadlock-avoidance discipline).
    #[inline]
    pub fn vc_at(hop: u8) -> usize {
        hop as usize
    }
}

/// What a message slot is accounting for. Serial runs use only
/// [`MessageKind::Delivering`]; the other two kinds exist for sharded
/// (PDES) runs, where a group-local network replica sees only the part
/// of a message's life that happens inside its own group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    /// The destination lives in this replica: `remaining_packets` counts
    /// deliveries and completion emits a `Delivery` record. Also the
    /// origin-side slot when source and destination share the group (a
    /// Valiant detour may still export packets; they return before
    /// delivering).
    Delivering,
    /// Origin-side slot for a remote destination: `remaining_packets`
    /// counts packets exported across a global link (each packet leaves
    /// the origin group exactly once). The slot frees silently at zero —
    /// the destination replica emits the `Delivery`.
    Forwarding,
    /// Per-packet shadow for traffic passing through this group en route
    /// to a third one; carries the message metadata for the onward
    /// [`crate::shard::WireRecord`] and frees at re-export.
    Transit,
}

/// Bookkeeping for one in-flight message.
#[derive(Debug, Clone)]
pub struct MessageState {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Total message payload.
    pub bytes: Bytes,
    /// Caller-supplied tag, passed through to the delivery record.
    pub tag: u64,
    /// Packets not yet delivered (exported, for [`MessageKind::Forwarding`]
    /// and [`MessageKind::Transit`]).
    pub remaining_packets: u64,
    /// Total packets.
    pub total_packets: u64,
    /// Sum of router hops over delivered packets (for the avg-hops metric).
    pub hops_accum: u64,
    /// Injection timestamp.
    pub injected_at: Ns,
    /// What this slot accounts for (always `Delivering` in serial runs).
    pub kind: MessageKind,
    /// Global message id, unique across all shards of one run so replicas
    /// can attribute imported packets to the same logical message. Zero in
    /// serial runs (no cross-replica attribution needed).
    pub gid: u64,
}

impl MessageState {
    /// Average router-to-router hops per delivered packet so far.
    pub fn avg_hops(&self) -> f64 {
        let delivered = self.total_packets - self.remaining_packets;
        if delivered == 0 {
            0.0
        } else {
            self.hops_accum as f64 / delivered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_roundtrip() {
        let chs = [ChannelId(5), ChannelId(9), ChannelId(2)];
        let r = Route::from_slice(&chs);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.as_slice(), &chs);
        assert_eq!(r.get(1), ChannelId(9));
        assert_eq!(r.router_hops(), 1);
    }

    #[test]
    fn route_minimum_terminal_only() {
        let r = Route::from_slice(&[ChannelId(0), ChannelId(1)]);
        assert_eq!(r.router_hops(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_ROUTE_LEN")]
    fn route_too_long_panics() {
        let chs = vec![ChannelId(0); MAX_ROUTE_LEN + 1];
        let _ = Route::from_slice(&chs);
    }

    #[test]
    fn packet_navigation() {
        let mut p = Packet::new(
            MessageId(9),
            4096,
            &[ChannelId(1), ChannelId(2), ChannelId(3)],
        );
        assert_eq!(p.msg(), MessageId(9));
        assert_eq!(p.route(), &[ChannelId(1), ChannelId(2), ChannelId(3)]);
        assert_eq!(p.router_hops(), 1);
        assert_eq!(p.current_channel(), ChannelId(1));
        assert_eq!(p.next_channel(), Some(ChannelId(2)));
        p.hop = 2;
        assert_eq!(p.current_channel(), ChannelId(3));
        assert_eq!(p.next_channel(), None);
    }

    #[test]
    fn vc_is_hop_index() {
        assert_eq!(Packet::vc_at(0), 0);
        assert_eq!(Packet::vc_at(7), 7);
    }

    #[test]
    fn message_avg_hops() {
        let mut m = MessageState {
            src: NodeId(0),
            dst: NodeId(1),
            bytes: 8192,
            tag: 0,
            remaining_packets: 2,
            total_packets: 2,
            hops_accum: 0,
            injected_at: Ns::ZERO,
            kind: MessageKind::Delivering,
            gid: 0,
        };
        assert_eq!(m.avg_hops(), 0.0);
        m.remaining_packets = 1;
        m.hops_accum = 3;
        assert_eq!(m.avg_hops(), 3.0);
        m.remaining_packets = 0;
        m.hops_accum = 8;
        assert_eq!(m.avg_hops(), 4.0);
    }

    #[test]
    fn packet_struct_stays_small() {
        // The hottest struct is exactly one aligned cache line: a 12-entry
        // route (48 B), message slot, size and queue link (12 B), and the
        // hop, routed flag and route length in the last bytes.
        assert_eq!(std::mem::size_of::<Packet>(), 64);
        assert_eq!(std::mem::align_of::<Packet>(), 64);
    }

    #[test]
    fn set_route_replaces_the_whole_route() {
        let mut p = Packet::new(MessageId(0), 1, &[ChannelId(4), ChannelId(5)]);
        assert_eq!(p.router_hops(), 0);
        let long = [ChannelId(7); MAX_ROUTE_LEN];
        p.set_route(&long);
        assert_eq!(p.route(), &long);
        p.set_route(&[ChannelId(1), ChannelId(2), ChannelId(3)]);
        assert_eq!(p.route(), &[ChannelId(1), ChannelId(2), ChannelId(3)]);
        assert_eq!(p.next_channel(), Some(ChannelId(2)));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_ROUTE_LEN")]
    fn packet_route_too_long_panics() {
        let _ = Packet::new(MessageId(0), 1, &[ChannelId(0); MAX_ROUTE_LEN + 1]);
    }
}
