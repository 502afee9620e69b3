//! Per-channel state: virtual-channel buffers, credit/occupancy
//! bookkeeping, and full-interval (saturation) accounting.
//!
//! A VC buffer is an intrusive FIFO over the network's packet arena: the
//! queue itself is just a head/tail pair of arena indices, and each
//! [`Packet`](crate::packet::Packet) carries the index of the packet
//! behind it. A packet sits in at most one queue at a time (its current
//! channel's VC, or the source NIC), so one link per packet suffices.
//! Compared to the previous `VecDeque<PacketId>` per VC, this removes
//! `MAX_ROUTE_LEN` heap allocations per channel (thousands of channels x
//! twelve VCs on the Theta machine) and the pointer chase per operation —
//! push, pop, and front are all O(1) on the arena the event loop already
//! has hot.

use crate::metrics::class_index;
use crate::packet::{Packet, PacketId, MAX_ROUTE_LEN, NO_PACKET};
use dfly_engine::{Bandwidth, Bytes, Ns};
use dfly_topology::{ChannelClass, ChannelId};
use std::collections::VecDeque;

/// One packet in flight on a channel's wire: it left the transmitter
/// earlier and lands in its next buffer (or delivers) at `at`, ordered
/// globally by the event sequence number reserved at transmission start.
///
/// A channel's in-flight packets arrive in strictly increasing `(at,
/// seq)` order — transmissions are serialized by the `busy` flag and
/// `arrival_extra` is a per-channel constant — so a plain FIFO holds
/// them and only the *head* needs a heap entry in the event queue (see
/// `Network::step`). This keeps the heap population proportional to
/// active channels rather than in-flight packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InFlight {
    pub(crate) pid: PacketId,
    pub(crate) at: Ns,
    pub(crate) seq: u64,
}

/// Intrusive FIFO of packets; links live in the packet arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PacketList {
    head: u32,
    tail: u32,
}

impl Default for PacketList {
    fn default() -> Self {
        PacketList {
            head: NO_PACKET,
            tail: NO_PACKET,
        }
    }
}

impl PacketList {
    /// The packet at the head, without removing it.
    #[inline]
    pub(crate) fn front(&self) -> Option<PacketId> {
        (self.head != NO_PACKET).then_some(PacketId(self.head))
    }

    /// Append `pid`, updating its intrusive link in `packets`.
    #[inline]
    pub(crate) fn push_back(&mut self, packets: &mut [Packet], pid: PacketId) {
        packets[pid.0 as usize].next = NO_PACKET;
        if self.tail == NO_PACKET {
            self.head = pid.0;
        } else {
            packets[self.tail as usize].next = pid.0;
        }
        self.tail = pid.0;
    }

    /// Detach and return the head packet.
    #[inline]
    pub(crate) fn pop_front(&mut self, packets: &[Packet]) -> Option<PacketId> {
        if self.head == NO_PACKET {
            return None;
        }
        let pid = self.head;
        self.head = packets[pid as usize].next;
        if self.head == NO_PACKET {
            self.tail = NO_PACKET;
        }
        Some(PacketId(pid))
    }

    /// Iterate front-to-back following the intrusive links. Used by the
    /// audit layer's structural sweep; callers must bound the walk
    /// themselves if the links may be corrupted (cycles never terminate).
    pub(crate) fn iter<'a>(&self, packets: &'a [Packet]) -> PacketListIter<'a> {
        PacketListIter {
            packets,
            cur: self.head,
        }
    }

    /// True if the stored tail matches the last packet reached by walking
    /// from the head (`None` for an empty walk). Audit-only.
    pub(crate) fn tail_agrees(&self, last: Option<PacketId>) -> bool {
        match last {
            None => self.head == NO_PACKET && self.tail == NO_PACKET,
            Some(pid) => self.tail == pid.0,
        }
    }
}

/// Iterator over a [`PacketList`]'s intrusive links (see
/// [`PacketList::iter`]).
pub(crate) struct PacketListIter<'a> {
    packets: &'a [Packet],
    cur: u32,
}

impl Iterator for PacketListIter<'_> {
    type Item = PacketId;

    fn next(&mut self) -> Option<PacketId> {
        if self.cur == NO_PACKET {
            return None;
        }
        let pid = self.cur;
        self.cur = self.packets[pid as usize].next;
        Some(PacketId(pid))
    }
}

/// One virtual-channel buffer: its queued packets, how many bytes they
/// (plus inbound reservations) occupy, and whether a reservation was
/// refused since space last freed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct VcState {
    pub(crate) queue: PacketList,
    pub(crate) occupancy: Bytes,
    /// True once a reservation was refused; cleared when space frees.
    pub(crate) full: bool,
}

/// Mutable per-channel simulation state. The immutable half (endpoints,
/// class wiring) stays in the shared [`Topology`](dfly_topology::Topology).
pub(crate) struct ChannelState {
    pub(crate) class: ChannelClass,
    pub(crate) bandwidth: Bandwidth,
    /// Link propagation latency plus downstream router traversal latency.
    pub(crate) arrival_extra: Ns,
    /// One buffer per VC level; VC index = hop index, so `MAX_ROUTE_LEN`
    /// covers every reachable level. Fixed-size: no per-channel heap.
    pub(crate) vcs: [VcState; MAX_ROUTE_LEN],
    pub(crate) total_occupancy: Bytes,
    pub(crate) busy: bool,
    pub(crate) tx_vc: u8,
    pub(crate) rr_next: u8,
    /// Packets transmitted but not yet landed, in arrival order. Only
    /// the front has an `Arrive` entry in the event heap.
    pub(crate) inflight: VecDeque<InFlight>,
    /// Channels whose head packet is waiting for space in our buffers.
    pub(crate) waiters: Vec<ChannelId>,
    /// True while this channel sits on some other channel's `waiters`
    /// list. A blocked channel registers on at most one blocker at a
    /// time — any wakeup rescans all VCs — so one bit replaces the
    /// O(waiters) `contains` scan the arbiter used to do per attempt.
    pub(crate) in_waitlist: bool,
    /// Which [`ChannelActivity`] lists hold this channel
    /// ([`ON_OCCUPIED`], [`ON_OPEN_FULL`] bits). Sits in the struct's
    /// padding after the other byte-sized fields.
    pub(crate) listed: u8,
    // --- metrics ---
    pub(crate) full_vcs: u16,
    pub(crate) full_start: Ns,
    pub(crate) saturated: Ns,
    pub(crate) traffic: Bytes,
    pub(crate) busy_time: Ns,
}

impl ChannelState {
    /// Fresh state for a channel of `class`.
    pub(crate) fn new(
        class: ChannelClass,
        bandwidth: Bandwidth,
        arrival_extra: Ns,
    ) -> ChannelState {
        ChannelState {
            class,
            bandwidth,
            arrival_extra,
            vcs: [VcState::default(); MAX_ROUTE_LEN],
            total_occupancy: 0,
            busy: false,
            tx_vc: 0,
            rr_next: 0,
            inflight: VecDeque::new(),
            waiters: Vec::new(),
            in_waitlist: false,
            listed: 0,
            full_vcs: 0,
            full_start: Ns::ZERO,
            saturated: Ns::ZERO,
            traffic: 0,
            busy_time: Ns::ZERO,
        }
    }

    /// Record that a reservation on VC `vc` was refused at `now`: opens
    /// the channel's saturated interval if it wasn't already open.
    /// Returns true when this call opened it.
    pub(crate) fn mark_full(&mut self, vc: usize, now: Ns) -> bool {
        if self.vcs[vc].full {
            return false;
        }
        self.vcs[vc].full = true;
        self.full_vcs += 1;
        if self.full_vcs == 1 {
            self.full_start = now;
            return true;
        }
        false
    }

    /// Record that VC `vc` freed space at `now`: closes the saturated
    /// interval once no VC is full, accumulating it exactly once.
    /// Returns the length of the interval this call closed, if any.
    pub(crate) fn clear_full(&mut self, vc: usize, now: Ns) -> Option<Ns> {
        if !self.vcs[vc].full {
            return None;
        }
        self.vcs[vc].full = false;
        self.full_vcs -= 1;
        if self.full_vcs > 0 {
            return None;
        }
        let closed = now - self.full_start;
        self.saturated += closed;
        Some(closed)
    }

    /// Saturated time including a still-open full interval at `now`.
    ///
    /// `now` may precede `full_start` when telemetry back-fills aligned
    /// sample windows: an interval opened by the current event has not
    /// started yet at an earlier window boundary and contributes nothing.
    pub(crate) fn saturated_until(&self, now: Ns) -> Ns {
        let mut s = self.saturated;
        if self.full_vcs > 0 {
            s += now.saturating_sub(self.full_start);
        }
        s
    }
}

/// [`ChannelState::listed`] bit: the channel is on
/// [`ChannelActivity::occupied`].
pub(crate) const ON_OCCUPIED: u8 = 1;
/// [`ChannelState::listed`] bit: the channel is on
/// [`ChannelActivity::open_full`].
pub(crate) const ON_OPEN_FULL: u8 = 2;

/// Running per-class totals of every channel's metric counters, plus
/// the channels that hold live state, kept current at each mutation
/// site. A telemetry window reads the totals and walks the two lists,
/// so its cost follows the occupied and saturated channels rather than
/// the machine size.
///
/// Both lists are lazily compacted: an entry whose state has emptied
/// stays (with its [`ChannelState::listed`] bit set) until the next
/// telemetry window drops it, so a channel is never listed twice and
/// leaving costs nothing on the simulation path. Without telemetry the
/// lists are never compacted and hold at most every channel once.
#[derive(Debug, Default)]
pub(crate) struct ChannelActivity {
    /// Σ `busy_time` per class (ns), indexed by [`class_index`].
    pub(crate) busy_ns: [u64; 5],
    /// Σ closed `saturated` intervals per class (ns).
    pub(crate) saturated_ns: [u64; 5],
    /// Σ `total_occupancy` per class (bytes).
    pub(crate) occupancy: [Bytes; 5],
    /// Every channel with `full_vcs > 0`, plus any closed since the last
    /// compaction.
    pub(crate) open_full: Vec<ChannelId>,
    /// Every channel with `total_occupancy > 0`, plus any emptied since
    /// the last compaction.
    pub(crate) occupied: Vec<ChannelId>,
}

impl ChannelActivity {
    /// Reserve or enqueue `size` bytes in VC `vc` of channel `id`.
    #[inline]
    pub(crate) fn fill(&mut self, id: ChannelId, ch: &mut ChannelState, vc: usize, size: Bytes) {
        if ch.listed & ON_OCCUPIED == 0 {
            ch.listed |= ON_OCCUPIED;
            self.occupied.push(id);
        }
        ch.vcs[vc].occupancy += size;
        ch.total_occupancy += size;
        self.occupancy[class_index(ch.class)] += size;
    }

    /// Release `size` bytes from VC `vc` (the packet's last byte left).
    #[inline]
    pub(crate) fn drain(&mut self, ch: &mut ChannelState, vc: usize, size: Bytes) {
        ch.vcs[vc].occupancy -= size;
        ch.total_occupancy -= size;
        self.occupancy[class_index(ch.class)] -= size;
    }

    /// Credit `ser` of transmission time to the channel.
    #[inline]
    pub(crate) fn add_busy(&mut self, ch: &mut ChannelState, ser: Ns) {
        ch.busy_time += ser;
        self.busy_ns[class_index(ch.class)] += ser.as_nanos();
    }

    /// [`ChannelState::mark_full`], listing the channel when its
    /// saturated interval opens.
    #[inline]
    pub(crate) fn mark_full(&mut self, id: ChannelId, ch: &mut ChannelState, vc: usize, now: Ns) {
        if ch.mark_full(vc, now) && ch.listed & ON_OPEN_FULL == 0 {
            ch.listed |= ON_OPEN_FULL;
            self.open_full.push(id);
        }
    }

    /// [`ChannelState::clear_full`], banking a closed interval into the
    /// class total.
    #[inline]
    pub(crate) fn clear_full(&mut self, ch: &mut ChannelState, vc: usize, now: Ns) {
        if let Some(closed) = ch.clear_full(vc, now) {
            self.saturated_ns[class_index(ch.class)] += closed.as_nanos();
        }
    }

    /// Bytes queued or reserved in every channel buffer.
    pub(crate) fn queued(&self) -> Bytes {
        self.occupancy.iter().sum()
    }

    /// Per-class Σ [`ChannelState::saturated_until`]`(at)`: the closed
    /// totals plus every open interval up to `at`. Drops channels whose
    /// interval has closed from `open_full`.
    pub(crate) fn saturated_until(&mut self, channels: &mut [ChannelState], at: Ns) -> [u64; 5] {
        let mut out = self.saturated_ns;
        self.open_full.retain(|&id| {
            let ch = &mut channels[id.index()];
            if ch.full_vcs == 0 {
                ch.listed &= !ON_OPEN_FULL;
                return false;
            }
            out[class_index(ch.class)] += at.saturating_sub(ch.full_start).as_nanos();
            true
        });
        out
    }

    /// Visit every channel with queued bytes, dropping emptied channels
    /// from `occupied`.
    pub(crate) fn for_each_occupied(
        &mut self,
        channels: &mut [ChannelState],
        mut visit: impl FnMut(ChannelId, &ChannelState),
    ) {
        self.occupied.retain(|&id| {
            let ch = &mut channels[id.index()];
            if ch.total_occupancy == 0 {
                ch.listed &= !ON_OCCUPIED;
                return false;
            }
            visit(id, ch);
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{MessageId, Route};

    fn arena(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|_| Packet {
                msg: MessageId(0),
                size: 1,
                hop: 0,
                routed: false,
                route: Route::from_slice(&[ChannelId(0), ChannelId(1)]),
                next: NO_PACKET,
            })
            .collect()
    }

    #[test]
    fn packet_list_fifo_order() {
        let mut packets = arena(4);
        let mut q = PacketList::default();
        assert_eq!(q.front(), None);
        for i in 0..4 {
            q.push_back(&mut packets, PacketId(i));
        }
        assert_eq!(q.front(), Some(PacketId(0)));
        for i in 0..4 {
            assert_eq!(q.pop_front(&packets), Some(PacketId(i)));
        }
        assert_eq!(q.pop_front(&packets), None);
        assert_eq!(q, PacketList::default());
    }

    #[test]
    fn packet_list_interleaved_push_pop() {
        let mut packets = arena(6);
        let mut q = PacketList::default();
        q.push_back(&mut packets, PacketId(0));
        q.push_back(&mut packets, PacketId(1));
        assert_eq!(q.pop_front(&packets), Some(PacketId(0)));
        q.push_back(&mut packets, PacketId(2));
        assert_eq!(q.pop_front(&packets), Some(PacketId(1)));
        assert_eq!(q.pop_front(&packets), Some(PacketId(2)));
        assert_eq!(q.pop_front(&packets), None);
        // Reusable after full drain.
        q.push_back(&mut packets, PacketId(5));
        assert_eq!(q.front(), Some(PacketId(5)));
    }

    #[test]
    fn full_interval_accounting_is_exactly_once() {
        let mut ch = ChannelState::new(
            ChannelClass::LocalRow,
            Bandwidth::from_gib_per_sec(1),
            Ns(0),
        );
        ch.mark_full(0, Ns(100));
        ch.mark_full(0, Ns(150)); // repeated refusal: no double-open
        ch.mark_full(2, Ns(200)); // second VC joins the open interval
        ch.clear_full(0, Ns(300));
        assert_eq!(ch.saturated, Ns::ZERO, "interval still open via VC 2");
        ch.clear_full(2, Ns(450));
        assert_eq!(ch.saturated, Ns(350));
        // Clearing an already-clear VC is a no-op.
        ch.clear_full(1, Ns(500));
        assert_eq!(ch.saturated, Ns(350));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn activity_bits_fit_in_existing_padding() {
        // 400 bytes of 8-byte fields plus 8 single bytes (class, busy,
        // tx_vc, rr_next, in_waitlist, listed, full_vcs): `listed`
        // took the last padding byte, so per-channel memory is unchanged.
        assert_eq!(std::mem::size_of::<ChannelState>(), 408);
    }

    #[test]
    fn saturated_until_closes_open_interval() {
        let mut ch = ChannelState::new(ChannelClass::Global, Bandwidth::from_gib_per_sec(1), Ns(0));
        assert_eq!(ch.saturated_until(Ns(50)), Ns::ZERO);
        ch.mark_full(1, Ns(10));
        assert_eq!(ch.saturated_until(Ns(50)), Ns(40));
        ch.clear_full(1, Ns(60));
        assert_eq!(ch.saturated_until(Ns(90)), Ns(50));
    }
}
