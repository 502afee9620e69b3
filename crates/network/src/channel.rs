//! Per-channel state: virtual-channel buffers, credit/occupancy
//! bookkeeping, full-interval (saturation) accounting, and the
//! [`ChannelStore`] that allocates it only where packets go.
//!
//! A VC buffer is an intrusive FIFO over the network's packet arena: the
//! queue itself is just a head/tail pair of arena indices, and each
//! [`Packet`](crate::packet::Packet) carries the index of the packet
//! behind it. A packet sits in at most one queue at a time (its current
//! channel's VC, or a channel's ingress queue: the source NIC or a
//! landing queue), so one link per packet suffices. Compared to a
//! `VecDeque<PacketId>` per VC, this removes `MAX_ROUTE_LEN` heap
//! allocations per channel and the pointer chase per operation — push,
//! pop, and front are all O(1) on the arena the event loop already has
//! hot.

use crate::metrics::{class_index, CLASSES};
use crate::packet::{Packet, PacketId, MAX_ROUTE_LEN, NO_PACKET};
use dfly_engine::{Bandwidth, Bytes, Ns};
use dfly_topology::{ChannelClass, ChannelId, Topology};

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

/// One virtual-channel buffer: its queued packets and how many bytes
/// they (plus inbound reservations) occupy. Whether a reservation was
/// refused since space last freed lives in the channel's
/// [`ChannelState::full_mask`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct VcState {
    pub(crate) queue: PacketList,
    pub(crate) occupancy: Bytes,
}

// One bit per VC level in the `u16` masks below.
const _: () = assert!(MAX_ROUTE_LEN <= 16);

/// Mutable per-channel simulation state. The immutable half (endpoints,
/// class wiring) stays in the shared [`Topology`]; the per-class link
/// constants live in the network's [`LinkTable`]. Records are allocated
/// lazily by [`ChannelStore`], so only channels near traffic pay for one.
pub(crate) struct ChannelState {
    pub(crate) class: ChannelClass,
    /// One buffer per VC level; VC index = hop index, so `MAX_ROUTE_LEN`
    /// covers every reachable level. Fixed-size: no per-channel heap.
    pub(crate) vcs: [VcState; MAX_ROUTE_LEN],
    pub(crate) total_occupancy: Bytes,
    pub(crate) busy: bool,
    pub(crate) tx_vc: u8,
    pub(crate) rr_next: u8,
    /// Bit `v` set exactly when `vcs[v].queue` is non-empty: arbitration
    /// scans only these VCs (see [`crate::arbiter::rr_queued`]).
    pub(crate) queued_mask: u16,
    /// Channels whose head packet is waiting for space in our buffers.
    pub(crate) waiters: Vec<ChannelId>,
    /// Packets waiting outside the buffers for VC space, a head-blocking
    /// FIFO drained as the channel frees space. On a terminal-up channel
    /// (id = node id) it is the source node's NIC queue; on any other
    /// channel it is shard mode's landing queue of imports refused at
    /// ingress (no cross-shard credit is reserved). Terminal-up channels
    /// never receive imports, so the two uses never share a list, and
    /// the NIC costs nothing for nodes that never send. Intrusive like
    /// the VC queues: a waiting packet sits in no other list.
    pub(crate) ingress: PacketList,
    /// True while this channel sits on some other channel's `waiters`
    /// list. A blocked channel registers on at most one blocker at a
    /// time — any wakeup rescans all VCs — so one bit replaces the
    /// O(waiters) `contains` scan the arbiter used to do per attempt.
    pub(crate) in_waitlist: bool,
    /// Which [`ChannelActivity`] lists hold this channel
    /// ([`ON_OCCUPIED`], [`ON_OPEN_FULL`] bits).
    pub(crate) listed: u8,
    // --- metrics ---
    /// Bit `v` set once a reservation on VC `v` was refused; cleared
    /// when that VC frees space.
    pub(crate) full_mask: u16,
    /// Number of set bits of `full_mask` (the audit recounts it).
    pub(crate) full_vcs: u16,
    pub(crate) full_start: Ns,
    pub(crate) saturated: Ns,
    pub(crate) traffic: Bytes,
    pub(crate) busy_time: Ns,
}

// The NIC queue rides in the terminal-up record's `ingress` list rather
// than a field of its own: a record stays within 280 bytes.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<ChannelState>() <= 280);

impl ChannelState {
    /// Fresh state for a channel of `class`.
    pub(crate) fn new(class: ChannelClass) -> ChannelState {
        ChannelState {
            class,
            vcs: [VcState::default(); MAX_ROUTE_LEN],
            total_occupancy: 0,
            busy: false,
            tx_vc: 0,
            rr_next: 0,
            queued_mask: 0,
            waiters: Vec::new(),
            ingress: PacketList::default(),
            in_waitlist: false,
            listed: 0,
            full_mask: 0,
            full_vcs: 0,
            full_start: Ns::ZERO,
            saturated: Ns::ZERO,
            traffic: 0,
            busy_time: Ns::ZERO,
        }
    }

    /// Append `pid` to VC `vc`'s queue.
    #[inline]
    pub(crate) fn push_vc(&mut self, packets: &mut [Packet], vc: usize, pid: PacketId) {
        self.vcs[vc].queue.push_back(packets, pid);
        self.queued_mask |= 1 << vc;
    }

    /// Detach VC `vc`'s head packet.
    #[inline]
    pub(crate) fn pop_vc(&mut self, packets: &[Packet], vc: usize) -> Option<PacketId> {
        let pid = self.vcs[vc].queue.pop_front(packets);
        if self.vcs[vc].queue.front().is_none() {
            self.queued_mask &= !(1 << vc);
        }
        pid
    }

    /// Record that a reservation on VC `vc` was refused at `now`: opens
    /// the channel's saturated interval if it wasn't already open.
    /// Returns true when this call opened it.
    pub(crate) fn mark_full(&mut self, vc: usize, now: Ns) -> bool {
        let bit = 1 << vc;
        if self.full_mask & bit != 0 {
            return false;
        }
        self.full_mask |= bit;
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
        let bit = 1 << vc;
        if self.full_mask & bit == 0 {
            return None;
        }
        self.full_mask &= !bit;
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

/// log2 of [`RUN_LEN`].
const RUN_SHIFT: u32 = 6;
/// Channel ids per allocation run of a [`ChannelStore`].
pub const RUN_LEN: usize = 1 << RUN_SHIFT;

/// The [`ChannelState`] records of one aligned run of channel ids.
type Run = Box<[ChannelState; RUN_LEN]>;

/// Per-channel state for a whole machine, allocated only where packets
/// go. Records come in aligned runs of [`RUN_LEN`] channel ids, each run
/// in its own fixed-size block, allocated the first time any of its
/// channels is mutated ([`ChannelStore::get_mut`]). A channel whose run
/// was never allocated reads as empty: no queued bytes, every counter
/// zero. Within each class, channel ids follow node and router order, so
/// a job placed on a few routers touches few runs, and a run keeps its
/// records in id order.
pub(crate) struct ChannelStore {
    /// End of each class's channel-id range, in [`CLASSES`] order.
    class_ends: [u32; 5],
    runs: Vec<Option<Run>>,
    allocated_runs: usize,
}

impl ChannelStore {
    /// An empty store for a machine with `class_counts[class_index(c)]`
    /// channels of class `c`, numbered in contiguous per-class ranges in
    /// [`class_index`] order (as [`Topology`] numbers them). No record is
    /// allocated yet.
    pub(crate) fn new(class_counts: [u64; 5]) -> ChannelStore {
        let mut class_ends = [0u32; 5];
        let mut end = 0u64;
        for (k, count) in class_counts.iter().enumerate() {
            end += count;
            class_ends[k] = u32::try_from(end).expect("channel ids fit in u32");
        }
        ChannelStore {
            class_ends,
            runs: (0..(end as usize).div_ceil(RUN_LEN))
                .map(|_| None)
                .collect(),
            allocated_runs: 0,
        }
    }

    /// The store for `topo`'s channels.
    pub(crate) fn for_topology(topo: &Topology) -> ChannelStore {
        ChannelStore::new(CLASSES.map(|c| topo.class_channel_count(c) as u64))
    }

    /// Channels in the machine.
    pub(crate) fn len(&self) -> usize {
        self.class_ends[4] as usize
    }

    /// The channel's record, or `None` if its run was never allocated
    /// (the channel is empty).
    #[inline]
    pub(crate) fn get(&self, id: ChannelId) -> Option<&ChannelState> {
        let i = id.index();
        self.runs[i >> RUN_SHIFT]
            .as_deref()
            .map(|run| &run[i & (RUN_LEN - 1)])
    }

    /// The channel's record, allocating its run on first use.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: ChannelId) -> &mut ChannelState {
        let i = id.index();
        let r = i >> RUN_SHIFT;
        if self.runs[r].is_none() {
            self.allocate(r);
        }
        match self.runs[r].as_deref_mut() {
            Some(run) => &mut run[i & (RUN_LEN - 1)],
            None => unreachable!("run {r} was just allocated"),
        }
    }

    #[cold]
    #[inline(never)]
    fn allocate(&mut self, r: usize) {
        let run: Vec<ChannelState> = (r * RUN_LEN..(r + 1) * RUN_LEN)
            // The machine's last run may be partial; its tail records
            // belong to no channel and are never reached.
            .map(|i| ChannelState::new(self.class_at(i).unwrap_or(ChannelClass::Global)))
            .collect();
        self.runs[r] = Some(match run.into_boxed_slice().try_into() {
            Ok(run) => run,
            Err(_) => unreachable!("a run holds RUN_LEN records"),
        });
        self.allocated_runs += 1;
    }

    /// The class of channel index `i`, or `None` past the machine.
    fn class_at(&self, i: usize) -> Option<ChannelClass> {
        let k = self.class_ends.iter().position(|&end| i < end as usize)?;
        Some(CLASSES[k])
    }

    /// Start loading the channel's record into the cache, if it has one.
    /// Reads through [`ChannelStore::get`], so it never allocates a run.
    #[inline]
    pub(crate) fn prefetch(&self, id: ChannelId) {
        if let Some(ch) = self.get(id) {
            prefetch(ch);
        }
    }

    /// Total queued bytes at a channel (0 if it has no record).
    #[inline]
    pub(crate) fn occupancy(&self, id: ChannelId) -> Bytes {
        self.get(id).map_or(0, |ch| ch.total_occupancy)
    }

    /// Allocated records, counting every record of every allocated run.
    pub(crate) fn records(&self) -> usize {
        self.allocated_runs * RUN_LEN
    }

    /// Every machine channel that has a record, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ChannelId, &ChannelState)> {
        let n = self.len();
        self.runs
            .iter()
            .enumerate()
            .filter_map(|(r, run)| Some((r * RUN_LEN, run.as_deref()?)))
            .flat_map(move |(base, run)| {
                run.iter()
                    .take(n - base)
                    .enumerate()
                    .map(move |(k, ch)| (ChannelId((base + k) as u32), ch))
            })
    }

    /// Every machine channel in id order with its class and record, if
    /// any. Full-machine test oracles read an absent record as an empty
    /// channel.
    #[cfg(test)]
    pub(crate) fn each_channel(
        &self,
    ) -> impl Iterator<Item = (ChannelId, ChannelClass, Option<&ChannelState>)> {
        CLASSES.into_iter().enumerate().flat_map(move |(k, class)| {
            let start = if k == 0 { 0 } else { self.class_ends[k - 1] };
            (start..self.class_ends[k]).map(move |i| {
                let id = ChannelId(i);
                (id, class, self.get(id))
            })
        })
    }

    /// Heap bytes the store holds: the run table, the allocated runs, and
    /// the wait lists of their records.
    pub(crate) fn heap_bytes(&self) -> usize {
        let table = self.runs.capacity() * std::mem::size_of::<Option<Run>>();
        let runs = self.allocated_runs * std::mem::size_of::<[ChannelState; RUN_LEN]>();
        let lists: usize = self
            .iter()
            .map(|(_, ch)| ch.waiters.capacity() * std::mem::size_of::<ChannelId>())
            .sum();
        table + runs + lists
    }
}

/// Ask the CPU to start loading every cache line of `value`, so that a
/// later access finds it warm. A hint only: it changes no state the
/// program can observe, and it does nothing off x86_64.
#[inline(always)]
pub(crate) fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let start = (value as *const T).cast::<i8>();
        // The lines spanned: from the one `value` starts in to the one
        // its last byte is in.
        let skew = start as usize % LINE;
        let mut offset = 0;
        while offset < skew + std::mem::size_of::<T>() {
            let line = start.wrapping_add(offset).wrapping_sub(skew);
            // SAFETY: a prefetch is a hint that never faults and never
            // writes, whatever the address; this one is in a line that
            // `value`, a live reference, occupies.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line) };
            offset += LINE;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

impl Drop for ChannelStore {
    /// Frees the runs and hands their pages back to the OS. Runs are
    /// 20 KB heap blocks allocated during the run, interleaved with
    /// smaller allocations that outlive the network (results, driver
    /// state); the allocator alone would keep a finished machine's
    /// channel state resident below them.
    fn drop(&mut self) {
        self.runs = Vec::new();
        heap::release_free_pages();
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod heap {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }

    /// Return every whole free page of the heap to the OS.
    pub(super) fn release_free_pages() {
        // SAFETY: `malloc_trim` only reads allocator state and releases
        // pages no live allocation uses; any `pad` is valid.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod heap {
    /// No portable way to release free heap pages: a no-op.
    pub(super) fn release_free_pages() {}
}

/// Per-class link constants, indexed by [`class_index`]: every channel
/// of a class shares its bandwidth and arrival latency, so records need
/// not carry them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkTable {
    /// Serialization bandwidth.
    pub(crate) bandwidth: [Bandwidth; 5],
    /// Transmission end to landing in the next buffer: the class's link
    /// latency, plus the downstream router's traversal latency for every
    /// class that ends at a router (all but terminal-down).
    pub(crate) arrival_extra: [Ns; 5],
}

impl LinkTable {
    /// The table for `topo`.
    pub(crate) fn new(topo: &Topology) -> LinkTable {
        let router_latency = topo.config().router_latency;
        LinkTable {
            bandwidth: CLASSES.map(|c| topo.class_bandwidth(c)),
            arrival_extra: CLASSES.map(|c| {
                topo.class_latency(c)
                    + if c == ChannelClass::TerminalDown {
                        Ns::ZERO
                    } else {
                        router_latency
                    }
            }),
        }
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
    pub(crate) fn saturated_until(&mut self, channels: &mut ChannelStore, at: Ns) -> [u64; 5] {
        let mut out = self.saturated_ns;
        self.open_full.retain(|&id| {
            let ch = channels.get_mut(id);
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
        channels: &mut ChannelStore,
        mut visit: impl FnMut(ChannelId, &ChannelState),
    ) {
        self.occupied.retain(|&id| {
            let ch = channels.get_mut(id);
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
        let mut ch = ChannelState::new(ChannelClass::LocalRow);
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
        assert_eq!((ch.full_mask, ch.full_vcs), (0, 0));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn channel_record_size_is_pinned() {
        // 12 VCs x 16 B (queue head/tail + occupancy; the full flags are
        // `full_mask`), the wait list (24), the ingress list (NIC or
        // landing queue, 8), five 8-byte counters (40), and 12 bytes of
        // flags and masks padded to 16. In-flight packets live in their
        // `Arrive` events, not here.
        assert_eq!(std::mem::size_of::<VcState>(), 16);
        assert_eq!(std::mem::size_of::<ChannelState>(), 280);
    }

    #[test]
    fn push_and_pop_keep_the_queued_mask() {
        let mut packets = arena(3);
        let mut ch = ChannelState::new(ChannelClass::LocalRow);
        ch.push_vc(&mut packets, 3, PacketId(0));
        ch.push_vc(&mut packets, 3, PacketId(1));
        ch.push_vc(&mut packets, 7, PacketId(2));
        assert_eq!(ch.queued_mask, (1 << 3) | (1 << 7));
        assert_eq!(ch.pop_vc(&packets, 3), Some(PacketId(0)));
        assert_eq!(ch.queued_mask, (1 << 3) | (1 << 7), "VC 3 still holds one");
        assert_eq!(ch.pop_vc(&packets, 3), Some(PacketId(1)));
        assert_eq!(ch.queued_mask, 1 << 7);
    }

    #[test]
    fn store_allocates_one_aligned_run_on_first_mutation() {
        let mut store = ChannelStore::new([100, 100, 50, 0, 20]);
        assert_eq!(store.records(), 0);
        let id = ChannelId(RUN_LEN as u32 + 5);
        assert!(store.get(id).is_none());
        assert_eq!(store.occupancy(id), 0, "an absent record reads as empty");
        assert_eq!(store.records(), 0, "reads never allocate");
        store.get_mut(id).total_occupancy = 7;
        assert_eq!(store.records(), RUN_LEN);
        assert_eq!(store.occupancy(id), 7);
        // The whole aligned run exists now, each record with its class.
        let run: Vec<ChannelId> = store.iter().map(|(c, _)| c).collect();
        let want: Vec<ChannelId> = (RUN_LEN..2 * RUN_LEN)
            .map(|i| ChannelId(i as u32))
            .collect();
        assert_eq!(run, want);
        for (c, ch) in store.iter() {
            let want = if c.0 < 100 {
                ChannelClass::TerminalUp
            } else {
                ChannelClass::TerminalDown
            };
            assert_eq!(ch.class, want);
        }
        assert!(store.get(ChannelId(0)).is_none());
    }

    #[test]
    fn prefetch_is_a_hint_that_allocates_nothing() {
        let mut store = ChannelStore::new([100, 100, 50, 0, 20]);
        for i in [0, 5, RUN_LEN as u32, 269] {
            store.prefetch(ChannelId(i));
        }
        assert_eq!(store.records(), 0, "a prefetch allocated a run");
        store.get_mut(ChannelId(3)).traffic = 11;
        store.prefetch(ChannelId(3));
        store.prefetch(ChannelId(RUN_LEN as u32 + 3));
        assert_eq!(store.records(), RUN_LEN);
        assert_eq!(store.get(ChannelId(3)).map(|ch| ch.traffic), Some(11));
    }

    #[test]
    fn store_iterates_a_partial_last_run_without_padding() {
        let mut store = ChannelStore::new([100, 100, 50, 0, 20]);
        let n = store.len();
        assert_eq!(n, 270);
        assert_ne!(n % RUN_LEN, 0, "test wants a partial last run");
        store.get_mut(ChannelId(n as u32 - 1)).traffic = 1;
        store.get_mut(ChannelId(0)).traffic = 1;
        let ids: Vec<usize> = store.iter().map(|(c, _)| c.index()).collect();
        assert_eq!(ids.len(), RUN_LEN + n % RUN_LEN);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "id order");
        assert_eq!(*ids.last().unwrap(), n - 1);
        assert_eq!(
            store.get(ChannelId(n as u32 - 1)).unwrap().class,
            ChannelClass::Global
        );
        let all: Vec<_> = store.each_channel().collect();
        assert_eq!(all.len(), n);
        assert!(all.iter().enumerate().all(|(i, (c, _, _))| c.index() == i));
        assert_eq!(
            all.iter().filter(|(_, _, ch)| ch.is_some()).count(),
            ids.len()
        );
    }

    #[test]
    fn store_classes_match_the_topology() {
        for cfg in [
            dfly_topology::TopologyConfig::small_test(),
            dfly_topology::TopologyConfig::quick(),
            dfly_topology::TopologyConfig::canonical(2, 8, 4, 17),
        ] {
            let topo = Topology::build(cfg);
            let store = ChannelStore::for_topology(&topo);
            assert_eq!(store.len(), topo.channel_count());
            for ((id, class, _), (tid, info)) in store.each_channel().zip(topo.channels()) {
                assert_eq!((id, class), (tid, info.class));
            }
        }
    }

    #[test]
    fn link_table_matches_per_channel_constants() {
        // The per-class table reproduces what every record used to carry:
        // the class latency, plus router latency when the far end is a
        // router.
        for cfg in [
            dfly_topology::TopologyConfig::small_test(),
            dfly_topology::TopologyConfig::canonical(2, 8, 4, 17),
        ] {
            let topo = Topology::build(cfg);
            let links = LinkTable::new(&topo);
            for (_, info) in topo.channels() {
                let ci = class_index(info.class);
                let extra = topo.class_latency(info.class)
                    + if info.dst.router().is_some() {
                        topo.config().router_latency
                    } else {
                        Ns::ZERO
                    };
                assert_eq!(links.arrival_extra[ci], extra, "{:?}", info.class);
                assert_eq!(links.bandwidth[ci], topo.class_bandwidth(info.class));
            }
        }
    }

    #[test]
    fn saturated_until_closes_open_interval() {
        let mut ch = ChannelState::new(ChannelClass::Global);
        assert_eq!(ch.saturated_until(Ns(50)), Ns::ZERO);
        ch.mark_full(1, Ns(10));
        assert_eq!(ch.saturated_until(Ns(50)), Ns(40));
        ch.clear_full(1, Ns(60));
        assert_eq!(ch.saturated_until(Ns(90)), Ns(50));
    }
}
