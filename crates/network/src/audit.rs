//! Shadow-accounting audit layer: proves the packet engine's counters.
//!
//! The engine's hot-path bookkeeping — intrusive packet lists, credit
//! occupancy, the `in_waitlist` bit, saturation intervals — fails
//! *silently*: a leaked packet or a mis-counted VC skews the saturation
//! CDFs without crashing anything. This module keeps an independent
//! shadow copy of every byte movement (CODES ships the same kind of
//! conserved-flit sanity checks) and cross-checks the engine against it:
//!
//! * **after every event** (O(touched state)): the occupancy of each
//!   channel the event touched, its `total_occupancy`, `full_vcs`,
//!   `traffic`, `in_waitlist` bit, and the global queued-bytes gauge all
//!   match the shadow ledger;
//! * **periodically and at drain** (O(whole network)): a full structural
//!   sweep — every intrusive list is walked (cycle-bounded), every live
//!   packet sits in exactly one queue, head/tail agree, per-VC occupancy
//!   equals queued bytes plus in-flight reservations, waitlist membership
//!   is consistent, a channel with no allocated record holds no shadow
//!   bytes and sits on no list, bytes are conserved per message, the per-class
//!   running totals and live-state channel lists that telemetry reads
//!   ([`ChannelActivity`]) agree with a recount, and at drain every
//!   buffer is empty and every saturation interval is closed.
//!
//! Violations never panic: they accumulate in an [`AuditReport`]
//! (structured [`AuditViolation`]s with channel/VC/expected/actual/event
//! context) surfaced through `execute_experiment`, so a broken invariant
//! is diagnosable from a test failure or a stress-fuzzer shrink.
//!
//! Auditing only observes — it must never perturb the simulation
//! (`tests/determinism.rs` proves audited runs bit-identical to
//! unaudited ones). It is on by default in debug builds via
//! [`NetworkParams::audit`](crate::params::NetworkParams::audit) and off
//! in release builds.

use crate::channel::{
    ChannelActivity, ChannelState, ChannelStore, PacketList, ON_OCCUPIED, ON_OPEN_FULL,
};
use crate::metrics::class_index;
use crate::packet::{MessageId, Packet, PacketId, MAX_ROUTE_LEN};
use dfly_engine::{Bytes, Ns};
use dfly_topology::{ChannelClass, ChannelId};
use std::collections::HashMap;
use std::fmt;

/// Run a full structural sweep every this many events (the per-event
/// incremental checks run always).
pub(crate) const FULL_SWEEP_EVERY: u64 = 4096;

/// At most this many violations are recorded verbatim; further ones only
/// bump [`AuditReport::suppressed`] (one broken counter tends to cascade).
pub const MAX_RECORDED_VIOLATIONS: usize = 64;

/// Which engine invariant an [`AuditViolation`] breaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditKind {
    /// Bytes injected != bytes delivered + bytes resident per message.
    ByteConservation,
    /// A VC's `occupancy` (or a channel's `total_occupancy`, or the
    /// global queued-bytes gauge) disagrees with the shadow ledger.
    VcOccupancy,
    /// Intrusive-list corruption: a `next`-link cycle, a packet in zero
    /// or two queues, head/tail disagreement, arena state mismatch, or a
    /// channel's `queued_mask` disagreeing with which VC queues hold
    /// packets.
    ListIntegrity,
    /// Waitlist discipline: `in_waitlist` bit vs actual membership on
    /// blockers' `waiters` lists (must be on at most one), or a channel
    /// with no record on a wait list.
    Waitlist,
    /// Saturation accounting: `full_vcs` vs the bits of `full_mask`, or
    /// an interval still open at drain.
    Saturation,
    /// A per-class running total of [`ChannelActivity`] (busy time,
    /// closed saturated time, queued bytes) disagrees with the sum over
    /// the class's channels.
    ClassTotals,
    /// A [`ChannelActivity`] list misses a channel with live state, lists
    /// one twice, lists a channel with no record, or disagrees with the
    /// channel's `listed` bit.
    ActivityList,
}

impl AuditKind {
    /// Short stable label (for logs and CSV).
    pub fn label(self) -> &'static str {
        match self {
            AuditKind::ByteConservation => "byte-conservation",
            AuditKind::VcOccupancy => "vc-occupancy",
            AuditKind::ListIntegrity => "list-integrity",
            AuditKind::Waitlist => "waitlist",
            AuditKind::Saturation => "saturation",
            AuditKind::ClassTotals => "class-totals",
            AuditKind::ActivityList => "activity-list",
        }
    }
}

/// One invariant violation, with enough context to debug it.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// Which invariant broke.
    pub kind: AuditKind,
    /// The channel involved, if the violation is channel-scoped.
    pub channel: Option<ChannelId>,
    /// The VC involved, if VC-scoped.
    pub vc: Option<usize>,
    /// What the shadow ledger says the value should be.
    pub expected: u64,
    /// What the engine actually holds.
    pub actual: u64,
    /// Simulated time of the check.
    pub at: Ns,
    /// The event context the check ran under (e.g. `tx_done`, `drain`).
    pub context: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: expected {}, actual {} [{}]",
            self.kind.label(),
            self.expected,
            self.actual,
            self.context
        )?;
        if let Some(ch) = self.channel {
            write!(f, " channel={}", ch.0)?;
        }
        if let Some(vc) = self.vc {
            write!(f, " vc={vc}")?;
        }
        write!(f, " at={}ns", self.at.as_nanos())
    }
}

/// The outcome of an audited run: all recorded violations plus coverage
/// counters. A clean report proves the engine's counters were consistent
/// at every checked point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Recorded violations, in detection order (capped at
    /// [`MAX_RECORDED_VIOLATIONS`]).
    pub violations: Vec<AuditViolation>,
    /// Violations detected beyond the recording cap.
    pub suppressed: u64,
    /// Events that ran with per-event checks enabled.
    pub events_audited: u64,
    /// Full structural sweeps performed (periodic + drain + on demand).
    pub full_sweeps: u64,
}

impl AuditReport {
    /// True if no violation was detected at all.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit: {} violation(s) ({} suppressed), {} events audited, {} full sweeps",
            self.violations.len(),
            self.suppressed,
            self.events_audited,
            self.full_sweeps
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Where the shadow ledger believes a live packet currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// Arena slot is free (packet delivered or never used).
    Free,
    /// In a source NIC injection queue (node index).
    Nic(u32),
    /// Queued in a channel's VC buffer.
    Queued(ChannelId, u8),
    /// Between `TxDone` and `Arrive`: on the wire, in no queue.
    InFlight,
    /// Shard mode: an imported packet refused at ingress, waiting in the
    /// channel's landing queue for buffer space.
    Landing(ChannelId),
}

/// Shadow state for one arena slot.
#[derive(Debug, Clone, Copy)]
struct PacketShadow {
    loc: Loc,
    /// Downstream space held on the packet's behalf (reserved at
    /// transmission start, converted to queued bytes at enqueue).
    reserved: Option<(ChannelId, u8)>,
    size: u32,
    msg: MessageId,
}

const FREE_SHADOW: PacketShadow = PacketShadow {
    loc: Loc::Free,
    reserved: None,
    size: 0,
    msg: MessageId(0),
};

/// Shadow state for one message slot.
#[derive(Debug, Clone, Copy, Default)]
struct MsgShadow {
    active: bool,
    expected: u64,
    injected: u64,
    delivered: u64,
    /// Bytes that entered this replica from another shard (shard mode).
    imported: u64,
    /// Bytes that left this replica over a global link (shard mode).
    exported: u64,
    live_packets: u32,
}

/// Per-channel shadow counters.
#[derive(Debug, Clone)]
struct ChannelShadow {
    occ: [Bytes; MAX_ROUTE_LEN],
    total: Bytes,
    traffic: Bytes,
    /// The blocker this channel is parked on, if any.
    parked_on: Option<ChannelId>,
}

/// The shadow ledger. Owned by [`Network`](crate::net::Network) when
/// auditing is on; every state transition in the event handlers is
/// mirrored here and cross-checked.
pub(crate) struct Auditor {
    packets: Vec<PacketShadow>,
    messages: Vec<MsgShadow>,
    channels: Vec<ChannelShadow>,
    total_queued: Bytes,
    injected_bytes: u64,
    delivered_bytes: u64,
    /// Shard mode: bytes entering / leaving this replica across shard
    /// boundaries. Zero in serial runs, degenerating the generalized
    /// balance `injected + imported == delivered + exported + resident`
    /// to the classic serial check.
    imported_bytes: u64,
    exported_bytes: u64,
    report: AuditReport,
    events_since_sweep: u64,
    last_drain_at: Option<u64>,
}

impl Auditor {
    /// Fresh ledger for a network with `channels` channels.
    pub(crate) fn new(channels: usize) -> Auditor {
        Auditor {
            packets: Vec::new(),
            messages: Vec::new(),
            channels: vec![
                ChannelShadow {
                    occ: [0; MAX_ROUTE_LEN],
                    total: 0,
                    traffic: 0,
                    parked_on: None,
                };
                channels
            ],
            total_queued: 0,
            injected_bytes: 0,
            delivered_bytes: 0,
            imported_bytes: 0,
            exported_bytes: 0,
            report: AuditReport::default(),
            events_since_sweep: 0,
            last_drain_at: None,
        }
    }

    /// The report accumulated so far.
    pub(crate) fn report(&self) -> &AuditReport {
        &self.report
    }

    /// Packets the ledger places on a wire (between `TxDone` and their
    /// landing).
    #[cfg(test)]
    pub(crate) fn packets_on_wire(&self) -> usize {
        self.packets.iter().filter(|p| p.loc == Loc::InFlight).count()
    }

    fn violate(
        &mut self,
        kind: AuditKind,
        channel: Option<ChannelId>,
        vc: Option<usize>,
        expected: u64,
        actual: u64,
        at: Ns,
        context: &str,
    ) {
        if self.report.violations.len() >= MAX_RECORDED_VIOLATIONS {
            self.report.suppressed += 1;
            return;
        }
        self.report.violations.push(AuditViolation {
            kind,
            channel,
            vc,
            expected,
            actual,
            at,
            context: context.to_string(),
        });
    }

    // ----- lifecycle mirror ------------------------------------------------

    fn packet_mut(&mut self, pid: PacketId) -> &mut PacketShadow {
        let i = pid.0 as usize;
        if i >= self.packets.len() {
            self.packets.resize(i + 1, FREE_SHADOW);
        }
        &mut self.packets[i]
    }

    /// A message's packets are about to enter the source NIC.
    pub(crate) fn on_message_injected(&mut self, msg: MessageId, bytes: Bytes, at: Ns) {
        let i = msg.0 as usize;
        if i >= self.messages.len() {
            self.messages.resize(i + 1, MsgShadow::default());
        }
        if self.messages[i].active {
            self.violate(
                AuditKind::ByteConservation,
                None,
                None,
                0,
                1,
                at,
                "message slot recycled while live",
            );
        }
        self.messages[i] = MsgShadow {
            active: true,
            expected: bytes.max(1), // zero-byte messages carry a header byte
            injected: 0,
            delivered: 0,
            imported: 0,
            exported: 0,
            live_packets: 0,
        };
    }

    /// Shard mode: a message slot materialized for remotely injected
    /// traffic (a destination-side delivery shadow, or a per-packet
    /// transit shadow). Its bytes arrive via imports, never injections.
    pub(crate) fn on_remote_message(&mut self, msg: MessageId, expected: u64, at: Ns) {
        let i = msg.0 as usize;
        if i >= self.messages.len() {
            self.messages.resize(i + 1, MsgShadow::default());
        }
        if self.messages[i].active {
            self.violate(
                AuditKind::ByteConservation,
                None,
                None,
                0,
                1,
                at,
                "message slot recycled while live",
            );
        }
        self.messages[i] = MsgShadow {
            active: true,
            expected,
            injected: 0,
            delivered: 0,
            imported: 0,
            exported: 0,
            live_packets: 0,
        };
    }

    /// One packet of `msg` entered node `node`'s NIC queue.
    pub(crate) fn on_packet_injected(
        &mut self,
        pid: PacketId,
        msg: MessageId,
        size: u32,
        node: u32,
        at: Ns,
    ) {
        let prior = self.packet_mut(pid).loc;
        if prior != Loc::Free {
            self.violate(
                AuditKind::ListIntegrity,
                None,
                None,
                0,
                1,
                at,
                "packet slot reused while live",
            );
        }
        *self.packet_mut(pid) = PacketShadow {
            loc: Loc::Nic(node),
            reserved: None,
            size,
            msg,
        };
        self.injected_bytes += size as u64;
        let m = &mut self.messages[msg.0 as usize];
        m.injected += size as u64;
        m.live_packets += 1;
    }

    /// A packet moved from the NIC into the terminal-up VC0 buffer.
    pub(crate) fn on_nic_to_vc(&mut self, pid: PacketId, node: u32, ch: ChannelId, at: Ns) {
        let p = self.packet_mut(pid);
        let size = p.size as u64;
        if p.loc != Loc::Nic(node) {
            let loc = p.loc;
            self.violate(
                AuditKind::ListIntegrity,
                Some(ch),
                Some(0),
                0,
                1,
                at,
                &format!("nic pop of packet not in NIC (shadow {loc:?})"),
            );
        }
        self.packet_mut(pid).loc = Loc::Queued(ch, 0);
        let cs = &mut self.channels[ch.index()];
        cs.occ[0] += size;
        cs.total += size;
        self.total_queued += size;
    }

    /// Downstream space was reserved at transmission start.
    pub(crate) fn on_reserve(&mut self, pid: PacketId, ch: ChannelId, vc: usize, at: Ns) {
        let p = self.packet_mut(pid);
        let size = p.size as u64;
        if p.reserved.is_some() {
            self.violate(
                AuditKind::VcOccupancy,
                Some(ch),
                Some(vc),
                0,
                1,
                at,
                "double reservation for one packet",
            );
        }
        self.packet_mut(pid).reserved = Some((ch, vc as u8));
        let cs = &mut self.channels[ch.index()];
        cs.occ[vc] += size;
        cs.total += size;
        self.total_queued += size;
    }

    /// A channel started serializing the head packet of VC `vc`.
    pub(crate) fn on_tx_start(&mut self, pid: PacketId, ch: ChannelId, vc: usize, at: Ns) {
        let p = self.packet_mut(pid);
        let size = p.size as u64;
        if p.loc != Loc::Queued(ch, vc as u8) {
            let loc = p.loc;
            self.violate(
                AuditKind::ListIntegrity,
                Some(ch),
                Some(vc),
                0,
                1,
                at,
                &format!("tx start of packet not queued here (shadow {loc:?})"),
            );
        }
        self.channels[ch.index()].traffic += size;
    }

    /// The packet's last byte left `ch`; it is now on the wire.
    pub(crate) fn on_tx_done(&mut self, pid: PacketId, ch: ChannelId, vc: usize, at: Ns) {
        let p = self.packet_mut(pid);
        let size = p.size as u64;
        if p.loc != Loc::Queued(ch, vc as u8) {
            let loc = p.loc;
            self.violate(
                AuditKind::ListIntegrity,
                Some(ch),
                Some(vc),
                0,
                1,
                at,
                &format!("tx done for packet not queued here (shadow {loc:?})"),
            );
        }
        self.packet_mut(pid).loc = Loc::InFlight;
        let (occ_v, total) = {
            let cs = &self.channels[ch.index()];
            (cs.occ[vc], cs.total)
        };
        if occ_v < size || total < size || self.total_queued < size {
            self.violate(
                AuditKind::VcOccupancy,
                Some(ch),
                Some(vc),
                size,
                occ_v.min(total),
                at,
                "occupancy release underflow",
            );
            return;
        }
        let cs = &mut self.channels[ch.index()];
        cs.occ[vc] -= size;
        cs.total -= size;
        self.total_queued -= size;
    }

    /// The packet landed in its (previously reserved) next buffer.
    pub(crate) fn on_enqueue(&mut self, pid: PacketId, ch: ChannelId, vc: usize, at: Ns) {
        let p = *self.packet_mut(pid);
        if p.loc != Loc::InFlight {
            let loc = p.loc;
            self.violate(
                AuditKind::ListIntegrity,
                Some(ch),
                Some(vc),
                0,
                1,
                at,
                &format!("enqueue of packet not in flight (shadow {loc:?})"),
            );
        }
        if p.reserved != Some((ch, vc as u8)) {
            let r = p.reserved;
            self.violate(
                AuditKind::VcOccupancy,
                Some(ch),
                Some(vc),
                0,
                1,
                at,
                &format!("enqueue without matching reservation (shadow {r:?})"),
            );
        }
        let p = self.packet_mut(pid);
        p.loc = Loc::Queued(ch, vc as u8);
        p.reserved = None;
        // Occupancy already counted at reservation time: no byte moves.
    }

    /// The packet reached its destination node.
    pub(crate) fn on_delivered(&mut self, pid: PacketId, msg: MessageId, at: Ns) {
        let p = *self.packet_mut(pid);
        let size = p.size as u64;
        if p.loc != Loc::InFlight {
            let loc = p.loc;
            self.violate(
                AuditKind::ListIntegrity,
                None,
                None,
                0,
                1,
                at,
                &format!("delivery of packet not in flight (shadow {loc:?})"),
            );
        }
        if p.reserved.is_some() {
            self.violate(
                AuditKind::VcOccupancy,
                None,
                None,
                0,
                1,
                at,
                "delivered packet still holds a reservation",
            );
        }
        if p.msg != msg {
            self.violate(
                AuditKind::ListIntegrity,
                None,
                None,
                p.msg.0,
                msg.0,
                at,
                "delivered packet's owning message diverged from shadow",
            );
        }
        *self.packet_mut(pid) = FREE_SHADOW;
        self.delivered_bytes += size;
        let m = &mut self.messages[msg.0 as usize];
        m.delivered += size;
        m.live_packets = m.live_packets.saturating_sub(1);
    }

    /// The message's last packet was delivered. The balance generalizes
    /// the serial `injected == delivered == expected` check to shard
    /// mode, where a slot's bytes may arrive as imports (destination
    /// shadow) and detour exports return as imports (same-group Valiant):
    /// every byte in equals every byte out.
    pub(crate) fn on_message_complete(&mut self, msg: MessageId, at: Ns) {
        let m = self.messages[msg.0 as usize];
        if m.delivered != m.expected || m.injected + m.imported != m.delivered + m.exported {
            self.violate(
                AuditKind::ByteConservation,
                None,
                None,
                m.expected,
                m.delivered,
                at,
                &format!(
                    "message {} bytes not conserved (injected {}, imported {}, exported {})",
                    msg.0, m.injected, m.imported, m.exported
                ),
            );
        }
        if m.live_packets != 0 {
            self.violate(
                AuditKind::ByteConservation,
                None,
                None,
                0,
                m.live_packets as u64,
                at,
                &format!("message {} completed with live packets", msg.0),
            );
        }
        self.messages[msg.0 as usize].active = false;
    }

    /// Shard mode: a `Forwarding` or `Transit` slot closed because its
    /// last packet left over a global link. Nothing may have delivered
    /// locally, and everything that entered must have left.
    pub(crate) fn on_message_closed(&mut self, msg: MessageId, at: Ns) {
        let m = self.messages[msg.0 as usize];
        if m.delivered != 0 || m.injected + m.imported != m.exported {
            self.violate(
                AuditKind::ByteConservation,
                None,
                None,
                m.injected + m.imported,
                m.exported + m.delivered,
                at,
                &format!("forwarded message {} bytes not conserved", msg.0),
            );
        }
        if m.live_packets != 0 {
            self.violate(
                AuditKind::ByteConservation,
                None,
                None,
                0,
                m.live_packets as u64,
                at,
                &format!("forwarded message {} closed with live packets", msg.0),
            );
        }
        self.messages[msg.0 as usize].active = false;
    }

    // ----- shard-boundary mirror -------------------------------------------

    /// Shard mode: a packet materialized from another replica's wire
    /// record. It is "on the wire" until its import event fires.
    pub(crate) fn on_packet_imported(&mut self, pid: PacketId, msg: MessageId, size: u32, at: Ns) {
        let prior = self.packet_mut(pid).loc;
        if prior != Loc::Free {
            self.violate(
                AuditKind::ListIntegrity,
                None,
                None,
                0,
                1,
                at,
                "packet slot reused while live",
            );
        }
        *self.packet_mut(pid) = PacketShadow {
            loc: Loc::InFlight,
            reserved: None,
            size,
            msg,
        };
        self.imported_bytes += size as u64;
        let m = &mut self.messages[msg.0 as usize];
        m.imported += size as u64;
        m.live_packets += 1;
    }

    /// Shard mode: a packet's last byte cleared a global channel and the
    /// packet left this replica as a wire record.
    pub(crate) fn on_exported(&mut self, pid: PacketId, msg: MessageId, at: Ns) {
        let p = *self.packet_mut(pid);
        let size = p.size as u64;
        if p.loc != Loc::InFlight {
            let loc = p.loc;
            self.violate(
                AuditKind::ListIntegrity,
                None,
                None,
                0,
                1,
                at,
                &format!("export of packet not in flight (shadow {loc:?})"),
            );
        }
        if p.reserved.is_some() {
            self.violate(
                AuditKind::VcOccupancy,
                None,
                None,
                0,
                1,
                at,
                "exported packet still holds a reservation",
            );
        }
        if p.msg != msg {
            self.violate(
                AuditKind::ListIntegrity,
                None,
                None,
                p.msg.0,
                msg.0,
                at,
                "exported packet's owning message diverged from shadow",
            );
        }
        *self.packet_mut(pid) = FREE_SHADOW;
        self.exported_bytes += size;
        let m = &mut self.messages[msg.0 as usize];
        m.exported += size;
        m.live_packets = m.live_packets.saturating_sub(1);
    }

    /// Shard mode: an imported packet entered a VC buffer directly — no
    /// reservation exists, the bytes appear in the books here.
    pub(crate) fn on_ingress_enqueue(&mut self, pid: PacketId, ch: ChannelId, vc: usize, at: Ns) {
        let p = *self.packet_mut(pid);
        let size = p.size as u64;
        if p.loc != Loc::InFlight {
            let loc = p.loc;
            self.violate(
                AuditKind::ListIntegrity,
                Some(ch),
                Some(vc),
                0,
                1,
                at,
                &format!("ingress enqueue of packet not in flight (shadow {loc:?})"),
            );
        }
        if p.reserved.is_some() {
            self.violate(
                AuditKind::VcOccupancy,
                Some(ch),
                Some(vc),
                0,
                1,
                at,
                "ingress enqueue with a reservation held",
            );
        }
        let ps = self.packet_mut(pid);
        ps.loc = Loc::Queued(ch, vc as u8);
        let cs = &mut self.channels[ch.index()];
        cs.occ[vc] += size;
        cs.total += size;
        self.total_queued += size;
    }

    /// Shard mode: an import was refused at ingress and parked in the
    /// channel's landing queue (holds no buffer occupancy).
    pub(crate) fn on_landing(&mut self, pid: PacketId, ch: ChannelId, at: Ns) {
        let p = self.packet_mut(pid);
        if p.loc != Loc::InFlight {
            let loc = p.loc;
            self.violate(
                AuditKind::ListIntegrity,
                Some(ch),
                None,
                0,
                1,
                at,
                &format!("landing of packet not in flight (shadow {loc:?})"),
            );
        }
        self.packet_mut(pid).loc = Loc::Landing(ch);
    }

    /// Shard mode: a landed import was admitted into a VC buffer.
    pub(crate) fn on_landing_to_vc(&mut self, pid: PacketId, ch: ChannelId, vc: usize, at: Ns) {
        let p = *self.packet_mut(pid);
        let size = p.size as u64;
        if p.loc != Loc::Landing(ch) {
            let loc = p.loc;
            self.violate(
                AuditKind::ListIntegrity,
                Some(ch),
                Some(vc),
                0,
                1,
                at,
                &format!("vc admission of packet not landed here (shadow {loc:?})"),
            );
        }
        self.packet_mut(pid).loc = Loc::Queued(ch, vc as u8);
        let cs = &mut self.channels[ch.index()];
        cs.occ[vc] += size;
        cs.total += size;
        self.total_queued += size;
    }

    /// A blocked channel tried to park on `blocker`'s wait list.
    pub(crate) fn on_park(
        &mut self,
        waiter: ChannelId,
        blocker: ChannelId,
        registered: bool,
        at: Ns,
    ) {
        let parked = self.channels[waiter.index()].parked_on;
        if registered {
            if parked.is_some() {
                self.violate(
                    AuditKind::Waitlist,
                    Some(waiter),
                    None,
                    0,
                    1,
                    at,
                    "registered on a second blocker while parked",
                );
            }
            self.channels[waiter.index()].parked_on = Some(blocker);
        } else if parked.is_none() {
            self.violate(
                AuditKind::Waitlist,
                Some(waiter),
                None,
                1,
                0,
                at,
                "park refused but shadow says not parked",
            );
        }
    }

    /// `blocker` freed space and woke every parked channel.
    pub(crate) fn on_wake(&mut self, blocker: ChannelId, waiters: &[ChannelId], at: Ns) {
        for &w in waiters {
            if self.channels[w.index()].parked_on != Some(blocker) {
                self.violate(
                    AuditKind::Waitlist,
                    Some(w),
                    None,
                    blocker.0 as u64,
                    self.channels[w.index()]
                        .parked_on
                        .map_or(u64::MAX, |c| c.0 as u64),
                    at,
                    "woken from a blocker the shadow never parked it on",
                );
            }
            self.channels[w.index()].parked_on = None;
        }
    }

    // ----- incremental checks ---------------------------------------------

    /// O(VCs) consistency check of one channel the last event touched.
    pub(crate) fn check_channel(
        &mut self,
        id: ChannelId,
        ch: &ChannelState,
        engine_total_queued: Bytes,
        at: Ns,
        context: &str,
    ) {
        let shadow = self.channels[id.index()].clone();
        for (vc, s) in ch.vcs.iter().enumerate() {
            if s.occupancy != shadow.occ[vc] {
                self.violate(
                    AuditKind::VcOccupancy,
                    Some(id),
                    Some(vc),
                    shadow.occ[vc],
                    s.occupancy,
                    at,
                    context,
                );
            }
        }
        if ch.total_occupancy != shadow.total {
            self.violate(
                AuditKind::VcOccupancy,
                Some(id),
                None,
                shadow.total,
                ch.total_occupancy,
                at,
                context,
            );
        }
        if ch.traffic != shadow.traffic {
            self.violate(
                AuditKind::VcOccupancy,
                Some(id),
                None,
                shadow.traffic,
                ch.traffic,
                at,
                &format!("{context} (traffic counter)"),
            );
        }
        let queued_mask = (0..MAX_ROUTE_LEN)
            .filter(|&vc| ch.vcs[vc].queue.front().is_some())
            .fold(0u16, |m, vc| m | 1 << vc);
        if ch.queued_mask != queued_mask {
            self.violate(
                AuditKind::ListIntegrity,
                Some(id),
                None,
                queued_mask as u64,
                ch.queued_mask as u64,
                at,
                &format!("{context} (queued mask vs non-empty VC queues)"),
            );
        }
        let full_count = ch.full_mask.count_ones() as u64;
        if ch.full_vcs as u64 != full_count {
            self.violate(
                AuditKind::Saturation,
                Some(id),
                None,
                full_count,
                ch.full_vcs as u64,
                at,
                context,
            );
        }
        if ch.in_waitlist != shadow.parked_on.is_some() {
            self.violate(
                AuditKind::Waitlist,
                Some(id),
                None,
                shadow.parked_on.is_some() as u64,
                ch.in_waitlist as u64,
                at,
                context,
            );
        }
        if engine_total_queued != self.total_queued {
            self.violate(
                AuditKind::VcOccupancy,
                None,
                None,
                self.total_queued,
                engine_total_queued,
                at,
                &format!("{context} (global queued-bytes gauge)"),
            );
        }
    }

    /// Count one audited event; true when a periodic full sweep is due.
    pub(crate) fn note_event(&mut self) -> bool {
        self.report.events_audited += 1;
        self.events_since_sweep += 1;
        self.events_since_sweep >= FULL_SWEEP_EVERY
    }

    /// A drain sweep is only worth repeating after new events; returns
    /// true at most once per `events_processed` value.
    pub(crate) fn drain_pending(&mut self, events_processed: u64) -> bool {
        if self.last_drain_at == Some(events_processed) {
            return false;
        }
        self.last_drain_at = Some(events_processed);
        true
    }

    // ----- full structural sweep ------------------------------------------

    /// Walk every structure in the network and cross-check it against the
    /// shadow ledger. With `drained` set, additionally require the
    /// fully-drained postconditions (empty buffers, conserved bytes,
    /// closed saturation intervals, empty wait lists).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn full_sweep(
        &mut self,
        channels: &ChannelStore,
        packets: &[Packet],
        free_packets: &[PacketId],
        activity: &ChannelActivity,
        at: Ns,
        drained: bool,
    ) {
        let engine_total_queued = activity.queued();
        self.report.full_sweeps += 1;
        self.events_since_sweep = 0;
        let n = packets.len();
        let mut visited = vec![false; n];
        // Aggregate in-flight reservations per (channel, VC): a VC's
        // engine occupancy must equal its queued bytes plus these.
        let mut reserved: HashMap<ChannelId, [u64; MAX_ROUTE_LEN]> = HashMap::new();
        for ps in self.packets.iter() {
            if ps.loc != Loc::Free {
                if let Some((c, v)) = ps.reserved {
                    reserved.entry(c).or_default()[v as usize] += ps.size as u64;
                }
            }
        }
        let ctx = if drained { "drain" } else { "full sweep" };

        // Every record: VC queues (walk, occupancy, head/tail,
        // membership) and the ingress queue — the NIC queue on a
        // terminal-up channel (id = node), the landing queue elsewhere.
        for (id, ch) in channels.iter() {
            let held = reserved.get(&id).copied().unwrap_or_default();
            for (vc, held) in held.into_iter().enumerate() {
                let queued = self.walk_list(
                    &ch.vcs[vc].queue,
                    packets,
                    &mut visited,
                    Loc::Queued(id, vc as u8),
                    Some(id),
                    Some(vc),
                    at,
                    ctx,
                );
                let expect = queued + held;
                if ch.vcs[vc].occupancy != expect {
                    self.violate(
                        AuditKind::VcOccupancy,
                        Some(id),
                        Some(vc),
                        expect,
                        ch.vcs[vc].occupancy,
                        at,
                        &format!("{ctx}: occupancy != queued + reserved"),
                    );
                }
            }
            let ingress_loc = if ch.class == ChannelClass::TerminalUp {
                Loc::Nic(id.0)
            } else {
                Loc::Landing(id)
            };
            let waiting = self.walk_list(
                &ch.ingress,
                packets,
                &mut visited,
                ingress_loc,
                Some(id),
                None,
                at,
                ctx,
            );
            self.check_channel(id, ch, engine_total_queued, at, ctx);
            if drained {
                if ch.ingress.front().is_some() {
                    self.violate(
                        AuditKind::ListIntegrity,
                        Some(id),
                        None,
                        0,
                        waiting,
                        at,
                        "drain: ingress queue not empty",
                    );
                }
                if ch.total_occupancy != 0 {
                    self.violate(
                        AuditKind::VcOccupancy,
                        Some(id),
                        None,
                        0,
                        ch.total_occupancy,
                        at,
                        "drain: buffer not empty",
                    );
                }
                if ch.full_vcs != 0 {
                    self.violate(
                        AuditKind::Saturation,
                        Some(id),
                        None,
                        0,
                        ch.full_vcs as u64,
                        at,
                        "drain: saturation interval still open",
                    );
                }
                if !ch.waiters.is_empty() || ch.in_waitlist || ch.busy {
                    self.violate(
                        AuditKind::Waitlist,
                        Some(id),
                        None,
                        0,
                        ch.waiters.len() as u64 + ch.in_waitlist as u64 + ch.busy as u64,
                        at,
                        "drain: waiters/in_waitlist/busy not cleared",
                    );
                }
            }
        }

        // A channel without a record is empty: the shadow must agree.
        for ci in 0..self.channels.len() {
            let id = ChannelId(ci as u32);
            if channels.get(id).is_some() {
                continue;
            }
            let shadow = &self.channels[ci];
            let held = reserved.get(&id).map_or(0, |r| r.iter().sum());
            let shadow_live = shadow.total + shadow.traffic + held;
            if shadow_live != 0 {
                self.violate(
                    AuditKind::VcOccupancy,
                    Some(id),
                    None,
                    shadow_live,
                    0,
                    at,
                    &format!("{ctx}: shadow bytes on a channel with no record"),
                );
            }
        }

        // Waitlist census: membership across all `waiters` lists must
        // match the `in_waitlist` bits and the shadow's parked state.
        let census = crate::arbiter::waitlist_census(channels);
        for (ci, &count) in census.iter().enumerate() {
            let id = ChannelId(ci as u32);
            let record = channels.get(id);
            if count > 0 && record.is_none() {
                self.violate(
                    AuditKind::Waitlist,
                    Some(id),
                    None,
                    0,
                    count as u64,
                    at,
                    &format!("{ctx}: channel with no record on a wait list"),
                );
            }
            let in_waitlist = record.is_some_and(|ch| ch.in_waitlist);
            let expected = in_waitlist as u64;
            if count as u64 != expected || count > 1 {
                self.violate(
                    AuditKind::Waitlist,
                    Some(id),
                    None,
                    expected,
                    count as u64,
                    at,
                    &format!("{ctx}: waiters membership vs in_waitlist bit"),
                );
            }
            if (self.channels[ci].parked_on.is_some()) != in_waitlist {
                self.violate(
                    AuditKind::Waitlist,
                    Some(id),
                    None,
                    self.channels[ci].parked_on.is_some() as u64,
                    in_waitlist as u64,
                    at,
                    &format!("{ctx}: shadow parked state vs in_waitlist bit"),
                );
            }
        }

        // Every live shadow packet is either in exactly the one queue we
        // walked it in, or in flight (in no queue). Free slots must not
        // appear in any queue.
        let mut live_bytes = 0u64;
        for i in 0..self.packets.len() {
            let ps = self.packets[i];
            match ps.loc {
                // A free slot appearing in a queue is recorded during the
                // walk itself as a membership mismatch.
                Loc::Free => {}
                Loc::InFlight => {
                    live_bytes += ps.size as u64;
                    if i < n && visited[i] {
                        self.report_list(at, ctx, "in-flight packet found in a queue");
                    }
                }
                Loc::Nic(_) | Loc::Queued(..) | Loc::Landing(_) => {
                    live_bytes += ps.size as u64;
                    if i >= n || !visited[i] {
                        self.report_list(at, ctx, "shadow-live packet in no queue (leak)");
                    }
                }
            }
        }

        // Free-list agreement: every free-list entry must be shadow-free.
        for &pid in free_packets {
            let i = pid.0 as usize;
            if i < self.packets.len() && self.packets[i].loc != Loc::Free {
                self.report_list(at, ctx, "free-list entry still live in shadow");
            }
        }

        // Byte conservation, network-wide. In serial runs imported and
        // exported are zero and this is the classic
        // `injected == delivered + resident`.
        let resident = live_bytes;
        if self.injected_bytes + self.imported_bytes
            != self.delivered_bytes + self.exported_bytes + resident
        {
            self.violate(
                AuditKind::ByteConservation,
                None,
                None,
                self.injected_bytes + self.imported_bytes,
                self.delivered_bytes + self.exported_bytes + resident,
                at,
                &format!("{ctx}: injected + imported != delivered + exported + resident"),
            );
        }
        self.check_activity(channels, activity, at, ctx);
        if drained {
            if resident != 0 {
                self.violate(
                    AuditKind::ByteConservation,
                    None,
                    None,
                    0,
                    resident,
                    at,
                    "drain: live packets remain",
                );
            }
            let stuck = self
                .messages
                .iter()
                .enumerate()
                .find(|(_, m)| m.active)
                .map(|(i, m)| (i, *m));
            if let Some((mi, m)) = stuck {
                // One is enough to flag; the rest cascade.
                self.violate(
                    AuditKind::ByteConservation,
                    None,
                    None,
                    m.expected,
                    m.delivered,
                    at,
                    &format!("drain: message {mi} never completed"),
                );
            }
            if engine_total_queued != 0 {
                self.violate(
                    AuditKind::VcOccupancy,
                    None,
                    None,
                    0,
                    engine_total_queued,
                    at,
                    "drain: queued-bytes gauge not zero",
                );
            }
        }
    }

    /// Recount the [`ChannelActivity`] totals and lists from the records.
    /// A channel without a record holds no state and must be on no list.
    fn check_activity(
        &mut self,
        channels: &ChannelStore,
        activity: &ChannelActivity,
        at: Ns,
        ctx: &str,
    ) {
        let mut busy = [0u64; 5];
        let mut saturated = [0u64; 5];
        let mut occupancy = [0u64; 5];
        for (_, ch) in channels.iter() {
            let ci = class_index(ch.class);
            busy[ci] += ch.busy_time.as_nanos();
            saturated[ci] += ch.saturated.as_nanos();
            occupancy[ci] += ch.total_occupancy;
        }
        let totals = [
            ("busy time", busy, activity.busy_ns),
            ("closed saturated time", saturated, activity.saturated_ns),
            ("queued bytes", occupancy, activity.occupancy),
        ];
        for (what, recount, kept) in totals {
            for ci in 0..5 {
                if recount[ci] != kept[ci] {
                    self.violate(
                        AuditKind::ClassTotals,
                        None,
                        None,
                        recount[ci],
                        kept[ci],
                        at,
                        &format!("{ctx}: class {ci} {what} total"),
                    );
                }
            }
        }
        type Live = fn(&ChannelState) -> bool;
        let lists: [(&str, u8, &[ChannelId], Live); 2] = [
            ("occupied", ON_OCCUPIED, &activity.occupied, |ch| {
                ch.total_occupancy > 0
            }),
            ("open-full", ON_OPEN_FULL, &activity.open_full, |ch| {
                ch.full_vcs > 0
            }),
        ];
        for (name, bit, list, is_live) in lists {
            let mut seen = vec![0u32; channels.len()];
            for &id in list {
                seen[id.index()] += 1;
                if channels.get(id).is_none() {
                    self.violate(
                        AuditKind::ActivityList,
                        Some(id),
                        None,
                        0,
                        1,
                        at,
                        &format!("{ctx}: {name} list: channel with no record"),
                    );
                }
            }
            for (id, ch) in channels.iter() {
                let i = id.index();
                let live = is_live(ch);
                let flagged = ch.listed & bit != 0;
                let problem = if seen[i] > 1 {
                    Some("listed more than once")
                } else if flagged != (seen[i] == 1) {
                    Some("listed bit disagrees with list membership")
                } else if live && seen[i] == 0 {
                    Some("live channel missing from list")
                } else {
                    None
                };
                if let Some(problem) = problem {
                    self.violate(
                        AuditKind::ActivityList,
                        Some(id),
                        None,
                        live as u64,
                        seen[i] as u64,
                        at,
                        &format!("{ctx}: {name} list: {problem}"),
                    );
                }
            }
        }
    }

    fn report_list(&mut self, at: Ns, ctx: &str, what: &str) {
        self.violate(
            AuditKind::ListIntegrity,
            None,
            None,
            0,
            1,
            at,
            &format!("{ctx}: {what}"),
        );
    }

    /// Walk one intrusive list, bounded against cycles; verifies shadow
    /// membership, exactly-once visitation, and head/tail agreement.
    /// Returns the sum of visited packet sizes.
    #[allow(clippy::too_many_arguments)]
    fn walk_list(
        &mut self,
        list: &PacketList,
        packets: &[Packet],
        visited: &mut [bool],
        want: Loc,
        channel: Option<ChannelId>,
        vc: Option<usize>,
        at: Ns,
        ctx: &str,
    ) -> u64 {
        let n = packets.len();
        let mut sum = 0u64;
        let mut count = 0usize;
        let mut last = None;
        for pid in list.iter(packets) {
            count += 1;
            if count > n {
                self.violate(
                    AuditKind::ListIntegrity,
                    channel,
                    vc,
                    n as u64,
                    count as u64,
                    at,
                    &format!("{ctx}: next-link cycle"),
                );
                return sum;
            }
            let i = pid.0 as usize;
            if visited[i] {
                self.violate(
                    AuditKind::ListIntegrity,
                    channel,
                    vc,
                    1,
                    2,
                    at,
                    &format!("{ctx}: packet {} in two queues", pid.0),
                );
            }
            visited[i] = true;
            let engine_size = packets[i].size as u64;
            sum += engine_size;
            let shadow = self.packets.get(i).copied().unwrap_or(FREE_SHADOW);
            if shadow.loc != want {
                self.violate(
                    AuditKind::ListIntegrity,
                    channel,
                    vc,
                    0,
                    1,
                    at,
                    &format!(
                        "{ctx}: queue membership mismatch (shadow {:?}, walked {want:?})",
                        shadow.loc
                    ),
                );
            } else if shadow.size as u64 != engine_size {
                self.violate(
                    AuditKind::ListIntegrity,
                    channel,
                    vc,
                    shadow.size as u64,
                    engine_size,
                    at,
                    &format!("{ctx}: packet size diverged from shadow"),
                );
            }
            last = Some(pid);
        }
        if !list.tail_agrees(last) {
            self.violate(
                AuditKind::ListIntegrity,
                channel,
                vc,
                last.map_or(u64::MAX, |p| p.0 as u64),
                u64::MAX,
                at,
                &format!("{ctx}: head/tail disagree"),
            );
        }
        sum
    }
}
