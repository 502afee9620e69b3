//! The packet engine: event loop and public API.
//!
//! The per-channel state lives in [`crate::channel`]; VC selection and
//! the blocked-channel wakeup protocol in [`crate::arbiter`]; this module
//! owns the event queue, the packet/message arenas, and the handlers that
//! tie them together. The central invariants:
//!
//! * a channel transmits one packet at a time (serialization at link
//!   bandwidth), and only starts when the packet's next buffer has space —
//!   the space is *reserved* at transmission start (credit semantics);
//! * a packet occupies its current buffer until its last byte has left
//!   (store-and-forward); occupancy is released at `TxDone`;
//! * the VC index equals the hop index, so buffer dependencies only point
//!   from lower to higher VC levels — the network cannot deadlock;
//! * per-channel traffic bytes and refused-full ("saturation") time are
//!   accumulated exactly once per packet / full interval.

use crate::arbiter;
use crate::audit::{AuditReport, Auditor};
use crate::channel::{prefetch, ChannelActivity, ChannelState, ChannelStore, LinkTable};
use crate::metrics::{class_index, ChannelFootprint, ChannelSnapshot, NetworkMetrics};
use crate::obs::{self, ObsCollector};
use crate::packet::{MessageId, MessageKind, MessageState, Packet, PacketId, Route, MAX_ROUTE_LEN};
use crate::params::NetworkParams;
use crate::routing::{RouteComputer, Routing};
use crate::shard::{ShardState, WireRecord};
use dfly_engine::{Bytes, EventQueue, Ns, ScheduledEvent, Xoshiro256};
use dfly_obs::{CoarseTimeline, EventKind, ObsReport};
use dfly_topology::{ChannelClass, ChannelEnd, ChannelId, NodeId, Topology};
use std::collections::VecDeque;
use std::sync::Arc;

/// A completed message delivery.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The message (ids are recycled after delivery; consume immediately).
    pub msg: MessageId,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Message payload bytes.
    pub bytes: Bytes,
    /// Caller tag from [`Network::send`].
    pub tag: u64,
    /// When the message was injected.
    pub injected_at: Ns,
    /// When the last packet arrived.
    pub completed_at: Ns,
    /// Mean router-to-router hops over the message's packets.
    pub avg_hops: f64,
}

impl Delivery {
    /// End-to-end message latency.
    pub fn latency(&self) -> Ns {
        self.completed_at - self.injected_at
    }
}

/// A queued event. Kept to 8 bytes (a `u32` payload and the tag) so a
/// queue entry is 24 bytes; the size is pinned below.
#[derive(Debug)]
enum NetEvent {
    /// A message's packets enter the source NIC queue. Carries the
    /// message's slot in `Network::messages`.
    Inject(u32),
    /// A channel finished serializing its in-flight packet.
    TxDone(ChannelId),
    /// A packet lands at the end of the channel it was transmitted on:
    /// in the buffer of `route[hop + 1]`, or at its destination node.
    /// Scheduled at transmission start, so the queue holds one entry per
    /// packet in flight.
    Arrive(PacketId),
    /// A caller-requested wakeup (see [`Network::schedule_wakeup`]).
    Wakeup,
    /// Shard mode only: a packet imported from another group-replica
    /// lands at its first channel inside this group (profiled as an
    /// arrival).
    Import(PacketId),
}

const _: () = assert!(std::mem::size_of::<NetEvent>() == 8);

/// What [`Network::poll`] hands back to the driving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkEvent {
    /// A message finished delivery.
    Delivery(Delivery),
    /// A wakeup requested via [`Network::schedule_wakeup`] fired; the
    /// current time is [`Network::now`]. Drivers use this to inject
    /// open-loop (background) traffic incrementally instead of
    /// materializing millions of future messages up front.
    Wakeup,
}

/// The packet-level dragonfly network.
pub struct Network {
    topo: Arc<Topology>,
    params: NetworkParams,
    router_latency: Ns,
    /// Per-class bandwidth and arrival latency.
    links: LinkTable,
    /// Per-channel state, allocated where packets go.
    channels: ChannelStore,
    packets: Vec<Packet>,
    free_packets: Vec<PacketId>,
    messages: Vec<MessageState>,
    free_messages: Vec<MessageId>,
    queue: EventQueue<NetEvent>,
    deliveries: VecDeque<Delivery>,
    router: RouteComputer,
    route_scratch: Vec<ChannelId>,
    /// Channels woken by the current `TxDone`; reused so a wake
    /// allocates nothing.
    woken: Vec<ChannelId>,
    events_processed: u64,
    packets_delivered: u64,
    wakeup_fired: bool,
    /// Per-class running totals and live-state channel lists (see
    /// [`ChannelActivity`]); also the source of the queued-bytes gauge.
    activity: ChannelActivity,
    /// Per-class traffic time series, when enabled.
    traffic_timeline: Option<CoarseTimeline>,
    /// Shadow-accounting audit ledger (see [`crate::audit`]); `None`
    /// when auditing is off — the hot path then pays one branch per hook.
    audit: Option<Box<Auditor>>,
    /// Telemetry collector (see [`crate::obs`]); `None` when telemetry is
    /// off — the event loop then pays one branch per event.
    obs: Option<Box<ObsCollector>>,
    /// PDES shard state (see [`crate::shard`]); `None` in serial runs —
    /// the serial event loop then pays one branch per hook and stays
    /// bit-identical to pre-shard releases.
    shard: Option<Box<ShardState>>,
}

impl Network {
    /// Build a network over `topo` with the given parameters, routing
    /// policy, and RNG seed (used only for routing decisions). Auditing
    /// and telemetry are configured by `params` (see [`NetworkParams`]).
    pub fn new(topo: Arc<Topology>, params: NetworkParams, routing: Routing, seed: u64) -> Network {
        params.validate().expect("invalid network params");
        let router_latency = topo.config().router_latency;
        let links = LinkTable::new(&topo);
        let channels = ChannelStore::for_topology(&topo);
        let audit = params
            .audit
            .then(|| Box::new(Auditor::new(topo.channel_count())));
        let mut router = RouteComputer::new(routing, Xoshiro256::seed_from(seed));
        let obs = params.obs.then(|| {
            Box::new(ObsCollector::new(
                ObsCollector::DEFAULT_INTERVAL,
                params.obs_stride,
                params.obs_coarse_clock,
                obs::class_counts(&topo),
            ))
        });
        if obs.is_some() {
            router.enable_stats();
        }
        Network {
            params,
            router_latency,
            links,
            channels,
            packets: Vec::new(),
            free_packets: Vec::new(),
            messages: Vec::new(),
            free_messages: Vec::new(),
            queue: EventQueue::with_capacity(1024),
            deliveries: VecDeque::new(),
            router,
            route_scratch: Vec::with_capacity(MAX_ROUTE_LEN),
            woken: Vec::new(),
            events_processed: 0,
            packets_delivered: 0,
            wakeup_fired: false,
            activity: ChannelActivity::default(),
            traffic_timeline: None,
            audit,
            obs,
            shard: None,
            topo,
        }
    }

    /// True if the shadow-accounting audit layer is active.
    pub fn audit_enabled(&self) -> bool {
        self.audit.is_some()
    }

    /// Run a full audit sweep at the current state and return the
    /// accumulated report, or `None` if auditing is off. If the network
    /// is idle the sweep also enforces the fully-drained postconditions.
    pub fn audit_report(&mut self) -> Option<AuditReport> {
        if self.audit.is_some() {
            let drained = self.queue.is_empty();
            self.audit_full_sweep(drained);
        }
        self.audit.as_ref().map(|a| a.report().clone())
    }

    /// Enable telemetry with a custom sampling interval (simulation
    /// time); [`NetworkParams::obs`] alone samples every 50 µs. Only
    /// valid on a fresh network — the sample windows and decision
    /// counters must cover the run from the first injection to mean
    /// anything.
    ///
    /// Telemetry never perturbs the simulation: obs-on and obs-off runs
    /// are bit-identical (enforced by `tests/determinism.rs`).
    pub fn set_obs_interval(&mut self, interval: Ns) {
        assert!(
            self.events_processed == 0 && self.messages.is_empty(),
            "telemetry can only be toggled on a fresh network"
        );
        self.params.obs = true;
        self.obs = Some(Box::new(ObsCollector::new(
            interval,
            self.params.obs_stride,
            self.params.obs_coarse_clock,
            obs::class_counts(&self.topo),
        )));
        self.router.enable_stats();
    }

    /// True if the telemetry layer is active.
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// Close the current sampling window with a final sweep and return
    /// everything telemetry collected, or `None` if telemetry is off.
    pub fn obs_report(&mut self) -> Option<ObsReport> {
        let now = self.queue.now();
        if let Some(obs) = self.obs.as_mut() {
            obs.close(
                now,
                &mut self.channels,
                &mut self.activity,
                &self.params,
                self.router.stats(),
            );
        }
        let high_water = self.queue.high_water();
        self.obs
            .as_ref()
            .map(|o| o.report(high_water, self.router.stats()))
    }

    /// [`Network::obs_report`]'s report with the windows the full-sweep
    /// oracle computed (see [`crate::obs::oracle`]). Call it after a
    /// report closed the series.
    #[cfg(test)]
    pub(crate) fn obs_oracle_report(&self) -> Option<ObsReport> {
        let high_water = self.queue.high_water();
        self.obs
            .as_ref()
            .map(|o| o.oracle_report(high_water, self.router.stats()))
    }

    /// Current simulated time.
    pub fn now(&self) -> Ns {
        self.queue.now()
    }

    /// Routing policy in use.
    pub fn routing(&self) -> Routing {
        self.router.routing()
    }

    /// Network parameters in use.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// The topology the network runs on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Total packets delivered so far.
    pub fn packets_delivered(&self) -> u64 {
        self.packets_delivered
    }

    /// Queue a message for injection at absolute time `at`. Injection
    /// times in the past are clamped to [`Network::now`] — a driver that
    /// computes injection times from stale state gets "inject now"
    /// semantics instead of a causality panic deep in the event queue.
    ///
    /// The message is segmented into packets at injection time; each
    /// packet's route is computed later, when it reaches the head of the
    /// source NIC's injection buffer, so adaptive routing sees the live
    /// congestion state (per-packet routing, as on Aries).
    pub fn send(&mut self, at: Ns, src: NodeId, dst: NodeId, bytes: Bytes, tag: u64) -> MessageId {
        self.send_inner(at, src, dst, bytes, tag, MessageKind::Delivering, 0)
    }

    /// Shard-mode injection: like [`Network::send`], but carrying the
    /// coordinator-assigned global message id, and accounting the message
    /// as `Forwarding` when the destination lives in another group (its
    /// packets leave this replica over a global link; the destination
    /// replica emits the `Delivery`).
    pub(crate) fn send_sharded(
        &mut self,
        gid: u64,
        at: Ns,
        src: NodeId,
        dst: NodeId,
        bytes: Bytes,
        tag: u64,
    ) -> MessageId {
        let shard = self
            .shard
            .as_ref()
            .expect("send_sharded outside shard mode");
        debug_assert!(gid != 0, "shard-mode sends carry a nonzero gid");
        debug_assert_eq!(
            self.topo.node_group(src).0,
            shard.group,
            "injection routed to the wrong group-replica"
        );
        let kind = if self.topo.node_group(dst).0 == shard.group {
            MessageKind::Delivering
        } else {
            MessageKind::Forwarding
        };
        self.send_inner(at, src, dst, bytes, tag, kind, gid)
    }

    fn send_inner(
        &mut self,
        at: Ns,
        src: NodeId,
        dst: NodeId,
        bytes: Bytes,
        tag: u64,
        kind: MessageKind,
        gid: u64,
    ) -> MessageId {
        assert!(
            src.0 < self.topo.config().total_nodes() && dst.0 < self.topo.config().total_nodes(),
            "send endpoints out of range"
        );
        let at = at.max(self.queue.now());
        let total_packets = self.params.packets_for(bytes);
        let state = MessageState {
            src,
            dst,
            bytes,
            tag,
            remaining_packets: total_packets,
            total_packets,
            hops_accum: 0,
            injected_at: at,
            kind,
            gid,
        };
        let id = self.alloc_message(state);
        // Slots fit in a u32 (checked at allocation).
        self.queue.schedule(at, NetEvent::Inject(id.0 as u32));
        id
    }

    fn alloc_message(&mut self, state: MessageState) -> MessageId {
        match self.free_messages.pop() {
            Some(id) => {
                self.messages[id.0 as usize] = state;
                id
            }
            None => {
                let slot =
                    u32::try_from(self.messages.len()).expect("message table exceeds u32 slots");
                self.messages.push(state);
                MessageId(u64::from(slot))
            }
        }
    }

    /// Pop a pending delivery, processing events as needed. Returns `None`
    /// once the network is fully drained with no deliveries left.
    /// Wakeups are skipped; use [`Network::poll`] when driving background
    /// traffic.
    pub fn poll_delivery(&mut self) -> Option<Delivery> {
        loop {
            match self.poll() {
                Some(NetworkEvent::Delivery(d)) => return Some(d),
                Some(NetworkEvent::Wakeup) => continue,
                None => return None,
            }
        }
    }

    /// Request a [`NetworkEvent::Wakeup`] from [`Network::poll`] at
    /// absolute time `at`.
    pub fn schedule_wakeup(&mut self, at: Ns) {
        self.queue.schedule(at, NetEvent::Wakeup);
    }

    /// Advance the simulation until the next delivery or wakeup. Returns
    /// `None` once fully drained.
    pub fn poll(&mut self) -> Option<NetworkEvent> {
        loop {
            if let Some(d) = self.deliveries.pop_front() {
                return Some(NetworkEvent::Delivery(d));
            }
            if self.wakeup_fired {
                self.wakeup_fired = false;
                return Some(NetworkEvent::Wakeup);
            }
            if !self.step() {
                return None;
            }
        }
    }

    /// Process all events with firing time `<= t`. Deliveries accumulate
    /// and can be drained with [`Network::drain_deliveries`].
    pub fn run_until(&mut self, t: Ns) {
        while let Some(ev) = self.queue.pop_until(t) {
            self.dispatch(ev);
        }
    }

    /// Run the network until no events remain.
    pub fn run_to_idle(&mut self) {
        while self.step() {}
    }

    /// True if no events are pending (all traffic drained).
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Take all accumulated deliveries.
    pub fn drain_deliveries(&mut self) -> Vec<Delivery> {
        Vec::from(std::mem::take(&mut self.deliveries))
    }

    /// Process a single event. Returns false if the queue was empty.
    fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            // Queue empty means fully drained: any queued packet implies
            // a pending TxDone. The audit drain sweep therefore doubles
            // as a leak/deadlock detector.
            self.audit_drain_sweep();
            return false;
        };
        self.dispatch(ev);
        true
    }

    /// Handle one popped event.
    #[inline]
    fn dispatch(&mut self, ev: ScheduledEvent<NetEvent>) {
        self.prefetch_ahead();
        match ev.event {
            NetEvent::Inject(slot) => {
                let started = self.event_begin(EventKind::Inject);
                self.handle_inject(MessageId(u64::from(slot)));
                self.event_end(EventKind::Inject, started);
            }
            NetEvent::TxDone(ch) => {
                let started = self.event_begin(EventKind::TxDone);
                self.handle_tx_done(ch);
                self.event_end(EventKind::TxDone, started);
            }
            NetEvent::Wakeup => {
                let started = self.event_begin(EventKind::Wakeup);
                self.wakeup_fired = true;
                self.event_end(EventKind::Wakeup, started);
            }
            NetEvent::Import(pid) => {
                let started = self.event_begin(EventKind::Arrive);
                self.handle_import(pid);
                self.event_end(EventKind::Arrive, started);
            }
            NetEvent::Arrive(pid) => {
                let started = self.event_begin(EventKind::Arrive);
                self.handle_arrive(pid);
                self.event_end(EventKind::Arrive, started);
            }
        }
    }

    /// Warm what the next two events will touch while this one runs, a
    /// two-stage software pipeline over [`EventQueue::lookahead`]. For
    /// the event after next, start loading what it names: the channel
    /// record of a `TxDone`, the packet of an `Arrive`. For the next
    /// event, read what was warmed one event ago to start loading the
    /// rest: a `TxDone`'s record names the head packet of its
    /// transmitting VC, and an `Arrive`'s packet names the channel record
    /// it lands in, `route[hop + 1]`. Only reads and cache hints: if the
    /// events handled first schedule something earlier, the hint is
    /// wasted, never wrong.
    #[inline]
    fn prefetch_ahead(&self) {
        let [next, after] = self.queue.lookahead();
        match after {
            Some(&NetEvent::TxDone(ch)) => self.channels.prefetch(ch),
            Some(&NetEvent::Arrive(pid)) => {
                if let Some(p) = self.packets.get(pid.0 as usize) {
                    prefetch(p);
                }
            }
            _ => {}
        }
        match next {
            Some(&NetEvent::TxDone(ch)) => {
                let head = self
                    .channels
                    .get(ch)
                    .and_then(|c| c.vcs[c.tx_vc as usize].queue.front());
                if let Some(p) = head.and_then(|pid| self.packets.get(pid.0 as usize)) {
                    prefetch(p);
                }
            }
            Some(&NetEvent::Arrive(pid)) => {
                if let Some(ch) = self.packets.get(pid.0 as usize).and_then(Packet::next_channel) {
                    self.channels.prefetch(ch);
                }
            }
            _ => {}
        }
    }

    /// Per-event prologue: count it, and decide via the per-kind stride
    /// whether this one's handler gets timed, taking the start timestamp
    /// if so. The obs-off path pays one branch.
    #[inline]
    fn event_begin(&mut self, kind: EventKind) -> Option<u64> {
        self.events_processed += 1;
        match self.obs.as_mut() {
            Some(obs) => obs.timing_due(kind).then(|| obs.clock_now()),
            None => None,
        }
    }

    /// Per-event epilogue: audit bookkeeping, then telemetry (profile
    /// the event, sweep a sample window when due). The obs-off path pays
    /// one branch.
    #[inline]
    fn event_end(&mut self, kind: EventKind, started: Option<u64>) {
        self.audit_after_event();
        if self.obs.is_some() {
            self.obs_after_event(kind, started);
        }
    }

    // ----- telemetry plumbing ----------------------------------------------

    /// Profile the event just handled and run a periodic sample sweep when
    /// one is due. Read-only with respect to the simulation: nothing here
    /// schedules events or touches engine counters.
    fn obs_after_event(&mut self, kind: EventKind, started: Option<u64>) {
        let depth = self.queue.len();
        let now = self.queue.now();
        let Some(obs) = self.obs.as_mut() else {
            return;
        };
        obs.note_event(kind, started, depth);
        if obs.sample_due(now) {
            obs.sample(
                now,
                &mut self.channels,
                &mut self.activity,
                &self.params,
                self.router.stats(),
            );
        }
    }

    // ----- audit plumbing --------------------------------------------------

    /// Incremental consistency check of one channel the last event
    /// touched (no-op with auditing off).
    #[inline]
    fn audit_check_channel(&mut self, ch: ChannelId, context: &'static str) {
        if let Some(a) = self.audit.as_mut() {
            a.check_channel(
                ch,
                self.channels
                    .get(ch)
                    .expect("checked channels were mutated"),
                self.activity.queued(),
                self.queue.now(),
                context,
            );
        }
    }

    /// Count the event against the periodic full-sweep schedule.
    #[inline]
    fn audit_after_event(&mut self) {
        let due = match self.audit.as_mut() {
            Some(a) => a.note_event(),
            None => return,
        };
        if due {
            self.audit_full_sweep(false);
        }
    }

    /// Full structural sweep of every list, counter, and wait list.
    fn audit_full_sweep(&mut self, drained: bool) {
        if let Some(a) = self.audit.as_mut() {
            a.full_sweep(
                &self.channels,
                &self.packets,
                &self.free_packets,
                &self.activity,
                self.queue.now(),
                drained,
            );
        }
    }

    /// Drain-time sweep, at most once per processed-event count (polling
    /// an idle network repeatedly must not re-sweep).
    fn audit_drain_sweep(&mut self) {
        let pending = match self.audit.as_mut() {
            Some(a) => a.drain_pending(self.events_processed),
            None => return,
        };
        if pending {
            self.audit_full_sweep(true);
        }
    }

    // ----- event handlers --------------------------------------------------

    fn handle_inject(&mut self, msg: MessageId) {
        let (src, dst, bytes, total_packets) = {
            let m = &self.messages[msg.0 as usize];
            (m.src, m.dst, m.bytes, m.total_packets)
        };
        if let Some(a) = self.audit.as_mut() {
            a.on_message_injected(msg, bytes, self.queue.now());
        }
        let pkt_size = self.params.packet_size as u64;
        let mut remaining = bytes.max(1); // zero-byte messages carry a header byte
                                          // Placeholder route until the source router fixes the real one at
                                          // the packet's first transmission attempt (per-packet routing with
                                          // a fresh congestion view).
        let placeholder =
            Route::from_slice(&[self.topo.terminal_up(src), self.topo.terminal_down(dst)]);
        for _ in 0..total_packets {
            let size = remaining.min(pkt_size) as u32;
            remaining = remaining.saturating_sub(pkt_size);
            let packet = Packet {
                msg,
                size,
                hop: 0,
                routed: false,
                route: placeholder,
                next: crate::packet::NO_PACKET,
            };
            let pid = match self.free_packets.pop() {
                Some(pid) => {
                    self.packets[pid.0 as usize] = packet;
                    pid
                }
                None => {
                    let pid = PacketId(self.packets.len() as u32);
                    self.packets.push(packet);
                    pid
                }
            };
            // The NIC queue is the terminal-up channel's ingress list.
            self.channels
                .get_mut(self.topo.terminal_up(src))
                .ingress
                .push_back(&mut self.packets, pid);
            if let Some(a) = self.audit.as_mut() {
                a.on_packet_injected(pid, msg, size, src.0, self.queue.now());
            }
        }
        self.nic_push(src);
    }

    /// Move packets from a node's NIC queue (its terminal-up channel's
    /// ingress list) into that channel's VC0 buffer while space allows.
    fn nic_push(&mut self, node: NodeId) {
        let ch_id = self.topo.terminal_up(node);
        loop {
            let ch = self.channels.get_mut(ch_id);
            let Some(pid) = ch.ingress.front() else {
                return;
            };
            let size = self.packets[pid.0 as usize].size as u64;
            let now = self.queue.now();
            let cap = self.params.vc_capacity(ch.class);
            if ch.vcs[0].occupancy + size > cap {
                // NIC blocked: the injection buffer is full.
                self.activity.mark_full(ch_id, ch, 0, now);
                self.audit_check_channel(ch_id, "nic blocked");
                return;
            }
            self.activity.fill(ch_id, ch, 0, size);
            ch.ingress.pop_front(&self.packets);
            ch.push_vc(&mut self.packets, 0, pid);
            if let Some(a) = self.audit.as_mut() {
                a.on_nic_to_vc(pid, node.0, ch_id, now);
            }
            self.audit_check_channel(ch_id, "nic push");
            self.try_start(ch_id);
        }
    }

    /// Compute a packet's real route (terminal-up, router hops,
    /// terminal-down) with the current congestion state.
    fn fix_route(&mut self, pid: PacketId) {
        let (src, dst) = {
            let m = &self.messages[self.packets[pid.0 as usize].msg.0 as usize];
            (m.src, m.dst)
        };
        self.route_scratch.clear();
        self.route_scratch.push(self.topo.terminal_up(src));
        {
            // Split borrows: the route computer needs occupancy lookups.
            let channels = &self.channels;
            let topo = &self.topo;
            let params = &self.params;
            let mut body = Vec::new();
            std::mem::swap(&mut body, &mut self.route_scratch);
            self.router
                .compute(topo, params, src, dst, |c| channels.occupancy(c), &mut body);
            std::mem::swap(&mut body, &mut self.route_scratch);
        }
        self.route_scratch.push(self.topo.terminal_down(dst));
        let p = &mut self.packets[pid.0 as usize];
        p.route = Route::from_slice(&self.route_scratch);
        p.routed = true;
    }

    /// Attempt to begin transmitting on `ch_id`: round-robin over VCs with
    /// queued packets whose next buffer can accept them.
    fn try_start(&mut self, ch_id: ChannelId) {
        let ch = self.channels.get_mut(ch_id);
        if ch.busy {
            return;
        }
        // A refused attempt touches no queue of this channel, so the
        // mask read up front stays exact for the whole scan.
        let (queued, class) = (ch.queued_mask, ch.class);
        for v in arbiter::rr_queued(queued, ch.rr_next) {
            let pid = self
                .channels
                .get(ch_id)
                .and_then(|ch| ch.vcs[v].queue.front())
                .expect("queued_mask bit set on an empty VC queue");
            // Route the packet at its source router, with the congestion
            // state at the moment it first reaches the head of the
            // injection buffer.
            if !self.packets[pid.0 as usize].routed {
                self.fix_route(pid);
            }
            let (size, next_ch, next_vc) = {
                let p = &self.packets[pid.0 as usize];
                debug_assert_eq!(p.current_channel(), ch_id);
                debug_assert_eq!(Packet::vc_at(p.hop), v);
                (p.size as u64, p.next_channel(), p.hop as usize + 1)
            };
            // Shard mode: a global channel's far end belongs to another
            // group-replica. No cross-shard credit is reserved (the
            // importer has a landing queue instead), and the arrival is
            // the importer's business — transmission completes locally at
            // TxDone, which exports the packet as a wire record.
            let exports = self.shard.is_some() && class == ChannelClass::Global;
            // Reserve space downstream (final hops sink into the node).
            if let Some(nc) = next_ch.filter(|_| !exports) {
                let now = self.queue.now();
                let ncs = self.channels.get_mut(nc);
                let cap = self.params.vc_capacity(ncs.class);
                if ncs.vcs[next_vc].occupancy + size > cap {
                    self.activity.mark_full(nc, ncs, next_vc, now);
                    let registered = arbiter::park_waiter(&mut self.channels, nc, ch_id);
                    if let Some(a) = self.audit.as_mut() {
                        a.on_park(ch_id, nc, registered, now);
                    }
                    self.audit_check_channel(nc, "reserve refused");
                    continue;
                }
                self.activity.fill(nc, ncs, next_vc, size);
                if let Some(a) = self.audit.as_mut() {
                    a.on_reserve(pid, nc, next_vc, now);
                }
                self.audit_check_channel(nc, "reserve");
            }
            // Start transmission.
            let ci = class_index(class);
            let ser = self.links.bandwidth[ci].serialization_time(size);
            let extra = self.links.arrival_extra[ci];
            let ch = self.channels.get_mut(ch_id);
            ch.busy = true;
            ch.tx_vc = v as u8;
            ch.rr_next = ((v + 1) % MAX_ROUTE_LEN) as u8;
            ch.traffic += size;
            self.activity.add_busy(ch, ser);
            if let Some(tl) = &mut self.traffic_timeline {
                tl.record(ci, self.queue.now(), size);
            }
            if let Some(a) = self.audit.as_mut() {
                a.on_tx_start(pid, ch_id, v, self.queue.now());
            }
            self.audit_check_channel(ch_id, "tx start");
            self.queue.schedule_after(ser, NetEvent::TxDone(ch_id));
            // In shard mode a global channel's packet leaves this replica
            // when its last byte clears the channel (at TxDone): no local
            // arrival.
            if !exports {
                self.queue
                    .schedule_after(ser + extra, NetEvent::Arrive(pid));
            }
            return;
        }
    }

    fn handle_tx_done(&mut self, ch_id: ChannelId) {
        let now = self.queue.now();
        let (pid, v, class) = {
            let ch = self.channels.get_mut(ch_id);
            debug_assert!(ch.busy);
            let v = ch.tx_vc as usize;
            let pid = ch
                .pop_vc(&self.packets, v)
                .expect("tx_vc queue cannot be empty at TxDone");
            let size = self.packets[pid.0 as usize].size as u64;
            self.activity.drain(ch, v, size);
            ch.busy = false;
            self.activity.clear_full(ch, v, now);
            (pid, v, ch.class)
        };
        if let Some(a) = self.audit.as_mut() {
            a.on_tx_done(pid, ch_id, v, now);
        }
        self.audit_check_channel(ch_id, "tx done");
        if class == ChannelClass::TerminalUp {
            // terminal-up channel id == node id by construction
            self.nic_push(NodeId(ch_id.0));
        } else if self.shard.is_some() {
            if class == ChannelClass::Global {
                self.export_packet(pid, ch_id, now);
            }
            // Freed space may admit imports parked in the landing queue.
            self.drain_landing(ch_id);
        }
        let mut woken = std::mem::take(&mut self.woken);
        arbiter::take_waiters(&mut self.channels, ch_id, &mut woken);
        if let Some(a) = self.audit.as_mut() {
            a.on_wake(ch_id, &woken, now);
        }
        for &w in &woken {
            self.try_start(w);
        }
        self.woken = woken;
        self.try_start(ch_id);
    }

    fn handle_arrive(&mut self, pid: PacketId) {
        let (at_last, msg) = {
            let p = &mut self.packets[pid.0 as usize];
            let next = p.hop as usize + 1;
            if next >= p.route.len() {
                (true, p.msg)
            } else {
                p.hop = next as u8;
                (false, p.msg)
            }
        };
        if !at_last {
            // Enqueue at the next channel (space was reserved at TxDone's
            // transmission start); then see if that channel can transmit.
            let (ch_id, v) = {
                let p = &self.packets[pid.0 as usize];
                (p.current_channel(), Packet::vc_at(p.hop))
            };
            self.channels
                .get_mut(ch_id)
                .push_vc(&mut self.packets, v, pid);
            if let Some(a) = self.audit.as_mut() {
                a.on_enqueue(pid, ch_id, v, self.queue.now());
            }
            self.audit_check_channel(ch_id, "arrive enqueue");
            self.try_start(ch_id);
            return;
        }
        // Final arrival at the destination node.
        self.packets_delivered += 1;
        let hops = self.packets[pid.0 as usize].route.router_hops() as u64;
        self.free_packets.push(pid);
        if let Some(a) = self.audit.as_mut() {
            a.on_delivered(pid, msg, self.queue.now());
        }
        let m = &mut self.messages[msg.0 as usize];
        m.hops_accum += hops;
        m.remaining_packets -= 1;
        if m.remaining_packets == 0 {
            let delivery = Delivery {
                msg,
                src: m.src,
                dst: m.dst,
                bytes: m.bytes,
                tag: m.tag,
                injected_at: m.injected_at,
                completed_at: self.queue.now(),
                avg_hops: m.avg_hops(),
            };
            self.deliveries.push_back(delivery);
            self.free_messages.push(msg);
            if let Some(a) = self.audit.as_mut() {
                a.on_message_complete(msg, self.queue.now());
            }
            let gid = self.messages[msg.0 as usize].gid;
            if gid != 0 {
                // Drop the cross-replica attribution entry (present when
                // this slot received imports, or registered itself as a
                // detour origin at export).
                if let Some(shard) = self.shard.as_mut() {
                    shard.remote.remove(&gid);
                }
            }
        }
    }

    // ----- shard (PDES) mode -----------------------------------------------

    /// Put a fresh network into shard mode as the replica owning `group`.
    /// The replica simulates only the channels whose transmitting end sits
    /// in its group; packets crossing a global link leave as
    /// [`WireRecord`]s and enter via [`Network::import_records`].
    pub(crate) fn enable_shard(&mut self, group: u32) {
        assert!(
            self.events_processed == 0 && self.messages.is_empty(),
            "shard mode can only be enabled on a fresh network"
        );
        let groups = self.topo.config().groups as usize;
        if let Some(obs) = self.obs.as_mut() {
            obs.set_owner(self.topo.clone(), group);
        }
        self.shard = Some(Box::new(ShardState::new(group, groups)));
    }

    /// The shard state, if this replica runs in shard mode.
    pub(crate) fn shard_state(&self) -> Option<&ShardState> {
        self.shard.as_deref()
    }

    /// Ingest one window's worth of cross-group records, pre-sorted by
    /// the caller on `(t_arr, src_group, emit_seq)` so event sequence
    /// numbers are assigned identically at any worker count.
    pub(crate) fn import_records(&mut self, recs: &[WireRecord]) {
        for rec in recs {
            self.import_record(rec);
        }
    }

    fn import_record(&mut self, rec: &WireRecord) {
        let now = self.queue.now();
        debug_assert!(
            rec.t_arr >= now,
            "import at {:?} arrived behind the replica clock {:?}",
            rec.t_arr,
            now
        );
        let hop = rec.hop + 1;
        // The packet terminates here unless its remaining route crosses
        // another global link (it may re-export immediately: the entry
        // router can own the next global channel).
        let terminates = !rec.route.as_slice()[hop as usize..]
            .iter()
            .any(|&c| self.topo.channel_class(c) == ChannelClass::Global);
        let msg = if terminates {
            let shard = self.shard.as_mut().expect("import outside shard mode");
            match shard.remote.get(&rec.gid) {
                // Either the destination-side slot from an earlier packet
                // of the same message, or — when source and destination
                // share this group — the detour-origin slot itself.
                Some(&m) => m,
                None => {
                    let state = MessageState {
                        src: rec.src,
                        dst: rec.dst,
                        bytes: rec.bytes,
                        tag: rec.tag,
                        remaining_packets: rec.total_packets,
                        total_packets: rec.total_packets,
                        hops_accum: 0,
                        injected_at: rec.injected_at,
                        kind: MessageKind::Delivering,
                        gid: rec.gid,
                    };
                    let m = self.alloc_message(state);
                    self.shard
                        .as_mut()
                        .expect("import outside shard mode")
                        .remote
                        .insert(rec.gid, m);
                    if let Some(a) = self.audit.as_mut() {
                        a.on_remote_message(m, rec.bytes.max(1), now);
                    }
                    m
                }
            }
        } else {
            // One transit shadow per passing packet: it carries the
            // message metadata for the onward wire record and frees at
            // re-export.
            let state = MessageState {
                src: rec.src,
                dst: rec.dst,
                bytes: rec.bytes,
                tag: rec.tag,
                remaining_packets: 1,
                total_packets: rec.total_packets,
                hops_accum: 0,
                injected_at: rec.injected_at,
                kind: MessageKind::Transit,
                gid: rec.gid,
            };
            let m = self.alloc_message(state);
            if let Some(a) = self.audit.as_mut() {
                a.on_remote_message(m, rec.size as u64, now);
            }
            m
        };
        {
            let shard = self.shard.as_mut().expect("import outside shard mode");
            let from = &mut shard.imported_from[rec.src_group as usize];
            from.0 += rec.size as u64;
            from.1 += 1;
        }
        let packet = Packet {
            msg,
            size: rec.size,
            hop,
            routed: true,
            route: rec.route,
            next: crate::packet::NO_PACKET,
        };
        let pid = match self.free_packets.pop() {
            Some(pid) => {
                self.packets[pid.0 as usize] = packet;
                pid
            }
            None => {
                let pid = PacketId(self.packets.len() as u32);
                self.packets.push(packet);
                pid
            }
        };
        if let Some(a) = self.audit.as_mut() {
            a.on_packet_imported(pid, msg, rec.size, now);
        }
        self.queue.schedule(rec.t_arr, NetEvent::Import(pid));
    }

    /// An imported packet lands at its first in-group channel. With
    /// buffer space it enqueues like any arrival; otherwise it parks in
    /// the channel's landing queue (no cross-shard credit was reserved —
    /// the conservative-window analogue of an input buffer, drained in
    /// FIFO order as the channel transmits).
    fn handle_import(&mut self, pid: PacketId) {
        let now = self.queue.now();
        let (ch_id, v, size) = {
            let p = &self.packets[pid.0 as usize];
            (p.current_channel(), Packet::vc_at(p.hop), p.size as u64)
        };
        debug_assert!(self.shard.is_some(), "import outside shard mode");
        let ch = self.channels.get_mut(ch_id);
        let cap = self.params.vc_capacity(ch.class);
        if ch.vcs[v].occupancy + size > cap {
            ch.ingress.push_back(&mut self.packets, pid);
            if let Some(a) = self.audit.as_mut() {
                a.on_landing(pid, ch_id, now);
            }
            return;
        }
        self.activity.fill(ch_id, ch, v, size);
        ch.push_vc(&mut self.packets, v, pid);
        if let Some(a) = self.audit.as_mut() {
            a.on_ingress_enqueue(pid, ch_id, v, now);
        }
        self.audit_check_channel(ch_id, "import enqueue");
        self.try_start(ch_id);
    }

    /// Admit landed imports into `ch_id`'s VCs while space allows (called
    /// after the channel's TxDone freed occupancy).
    fn drain_landing(&mut self, ch_id: ChannelId) {
        loop {
            let ch = self.channels.get_mut(ch_id);
            let Some(pid) = ch.ingress.front() else {
                return;
            };
            let now = self.queue.now();
            let (v, size) = {
                let p = &self.packets[pid.0 as usize];
                debug_assert_eq!(p.current_channel(), ch_id);
                (Packet::vc_at(p.hop), p.size as u64)
            };
            let cap = self.params.vc_capacity(ch.class);
            if ch.vcs[v].occupancy + size > cap {
                return;
            }
            self.activity.fill(ch_id, ch, v, size);
            ch.ingress.pop_front(&self.packets);
            ch.push_vc(&mut self.packets, v, pid);
            if let Some(a) = self.audit.as_mut() {
                a.on_landing_to_vc(pid, ch_id, v, now);
            }
            self.audit_check_channel(ch_id, "landing drain");
        }
    }

    /// A packet's last byte cleared a global channel: hand it to the
    /// destination group as a wire record and free the local slot.
    fn export_packet(&mut self, pid: PacketId, ch_id: ChannelId, now: Ns) {
        let (msg, size, hop, route) = {
            let p = &self.packets[pid.0 as usize];
            (p.msg, p.size, p.hop, p.route)
        };
        let extra = self.links.arrival_extra[class_index(ChannelClass::Global)];
        let (gid, kind, rec) = {
            let m = &self.messages[msg.0 as usize];
            (
                m.gid,
                m.kind,
                WireRecord {
                    t_arr: now + extra,
                    src_group: 0, // filled below
                    emit_seq: 0,  // filled below
                    gid: m.gid,
                    size,
                    hop,
                    route,
                    src: m.src,
                    dst: m.dst,
                    bytes: m.bytes,
                    tag: m.tag,
                    injected_at: m.injected_at,
                    total_packets: m.total_packets,
                },
            )
        };
        debug_assert!(gid != 0, "exported packet from a gid-less message");
        let ChannelEnd::Router(entry) = self.topo.channel(ch_id).dst else {
            unreachable!("global channel {ch_id} ends at a router")
        };
        let dst_group = self.topo.router_group(entry).0;
        {
            let shard = self.shard.as_mut().expect("export outside shard mode");
            debug_assert_ne!(dst_group, shard.group);
            let mut rec = rec;
            rec.src_group = shard.group;
            rec.emit_seq = shard.emit_seq[dst_group as usize];
            shard.emit_seq[dst_group as usize] += 1;
            let to = &mut shard.exported_to[dst_group as usize];
            to.0 += size as u64;
            to.1 += 1;
            shard.outboxes[dst_group as usize].push(rec);
        }
        if let Some(a) = self.audit.as_mut() {
            a.on_exported(pid, msg, now);
        }
        self.free_packets.push(pid);
        match kind {
            MessageKind::Delivering => {
                // A Valiant detour from a same-group source: remember the
                // slot so the returning import re-attaches to it.
                self.shard
                    .as_mut()
                    .unwrap()
                    .remote
                    .entry(gid)
                    .or_insert(msg);
            }
            MessageKind::Forwarding | MessageKind::Transit => {
                let m = &mut self.messages[msg.0 as usize];
                m.remaining_packets -= 1;
                if m.remaining_packets == 0 {
                    self.free_messages.push(msg);
                    if let Some(a) = self.audit.as_mut() {
                        a.on_message_closed(msg, now);
                    }
                }
            }
        }
    }

    /// This window's outbound records toward `dst_group` (the worker
    /// moves them into the shared edge mailbox).
    pub(crate) fn take_outbox(&mut self, dst_group: usize) -> &mut Vec<WireRecord> {
        &mut self
            .shard
            .as_mut()
            .expect("outbox outside shard mode")
            .outboxes[dst_group]
    }

    /// Move accumulated deliveries into `into` (the worker forwards them
    /// to the coordinator once per window).
    pub(crate) fn take_deliveries_into(&mut self, into: &mut Vec<Delivery>) {
        into.extend(self.deliveries.drain(..));
    }

    /// Firing time of the earliest pending event, if any.
    pub(crate) fn next_event_time(&self) -> Option<Ns> {
        self.queue.peek_time()
    }

    /// Like [`Network::obs_report`], but closing the sample series at a
    /// caller-supplied global end time, so every replica of a sharded run
    /// produces the same sample grid and the series merge index-aligned.
    pub(crate) fn obs_report_closed_at(&mut self, global_end: Ns) -> Option<ObsReport> {
        let end = self.queue.now().max(global_end);
        if let Some(obs) = self.obs.as_mut() {
            obs.close(
                end,
                &mut self.channels,
                &mut self.activity,
                &self.params,
                self.router.stats(),
            );
        }
        let high_water = self.queue.high_water();
        self.obs
            .as_ref()
            .map(|o| o.report(high_water, self.router.stats()))
    }

    /// Snapshot one channel; open saturation intervals close at `t_end`.
    fn snapshot(&self, id: ChannelId, ch: Option<&ChannelState>, t_end: Ns) -> ChannelSnapshot {
        ChannelSnapshot {
            id,
            class: self.topo.channel_class(id),
            src_router: Some(self.topo.channel_owner(id)),
            traffic_bytes: ch.map_or(0, |ch| ch.traffic),
            saturated_time: ch.map_or(Ns::ZERO, |ch| ch.saturated_until(t_end)),
            busy_time: ch.map_or(Ns::ZERO, |ch| ch.busy_time),
        }
    }

    /// Snapshots of the channels this network holds records for, keeping
    /// those `keep` accepts; open saturation intervals close at `t_end`.
    /// Channels without a record are idle and have no snapshot.
    pub(crate) fn recorded_snapshots<'a>(
        &'a self,
        t_end: Ns,
        keep: impl Fn(ChannelId) -> bool + 'a,
    ) -> impl Iterator<Item = ChannelSnapshot> + 'a {
        self.channels
            .iter()
            .filter(move |&(id, _)| keep(id))
            .map(move |(id, ch)| self.snapshot(id, Some(ch), t_end))
    }

    /// Every channel of the machine, walked one by one — the metrics
    /// snapshot before idle channels were skipped, kept as the reference
    /// the sparse [`Network::metrics`] must equal.
    #[cfg(test)]
    pub(crate) fn full_snapshot(
        &self,
        t_end: Ns,
        keep: impl Fn(ChannelId) -> bool,
    ) -> Vec<ChannelSnapshot> {
        self.topo
            .channels()
            .filter(|&(id, _)| keep(id))
            .map(|(id, _)| self.snapshot(id, self.channels.get(id), t_end))
            .collect()
    }

    // ----- metrics ---------------------------------------------------------

    /// Snapshot per-channel traffic and saturation. A channel still in a
    /// full state has its open interval closed at the current time. Costs
    /// the allocated channel records, not the machine.
    pub fn metrics(&self) -> NetworkMetrics {
        let snapshots = self.recorded_snapshots(self.queue.now(), |_| true);
        NetworkMetrics::new(self.topo.clone(), snapshots).with_footprint(self.channel_footprint())
    }

    /// How much per-channel state this network holds right now.
    pub(crate) fn channel_footprint(&self) -> ChannelFootprint {
        ChannelFootprint {
            channels: self.channels.len(),
            records: self.channels.records(),
            bytes: self.channels.heap_bytes(),
        }
    }

    /// Total queued bytes at a channel (all VCs). Exposed for tests and
    /// congestion-aware workloads.
    pub fn channel_occupancy(&self, ch: ChannelId) -> Bytes {
        self.channels.occupancy(ch)
    }

    /// The fixed per-router traversal latency.
    pub fn router_latency(&self) -> Ns {
        self.router_latency
    }

    /// Total bytes currently queued or reserved in every channel buffer —
    /// an O(1) instantaneous network-load gauge for time-series sampling.
    pub fn total_queued_bytes(&self) -> Bytes {
        self.activity.queued()
    }

    /// Packets currently alive (injected or in flight, not yet delivered).
    pub fn packets_in_flight(&self) -> usize {
        self.packets.len() - self.free_packets.len()
    }

    /// Start recording a per-class traffic time series with the given bin
    /// width (call before injecting traffic): each transmission start adds
    /// its bytes to its class's lane ([`class_index`]) of a
    /// [`CoarseTimeline`] capped at [`crate::metrics::TIMELINE_BINS`] bins.
    pub fn enable_traffic_timeline(&mut self, bin_width: Ns) {
        self.traffic_timeline = Some(crate::metrics::traffic_timeline(bin_width));
    }

    /// The recorded traffic timeline, if enabled.
    pub fn traffic_timeline(&self) -> Option<&CoarseTimeline> {
        self.traffic_timeline.as_ref()
    }

    /// Approximate heap bytes currently held by metric structures: the
    /// traffic timeline plus the telemetry collector's sample series.
    /// Simulation state (channels, packets, the event queue) is excluded.
    pub fn metric_bytes_approx(&self) -> usize {
        let tl = self
            .traffic_timeline
            .as_ref()
            .map_or(0, CoarseTimeline::approx_bytes);
        tl + self.obs.as_ref().map_or(0, |o| o.approx_metric_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RUN_LEN;
    use crate::metrics::CLASSES;
    use dfly_topology::TopologyConfig;

    fn net(routing: Routing) -> Network {
        net_with(routing, NetworkParams::default())
    }

    fn net_with(routing: Routing, params: NetworkParams) -> Network {
        let topo = Arc::new(Topology::build(TopologyConfig::small_test()));
        Network::new(topo, params, routing, 12345)
    }

    #[test]
    fn single_small_message_delivers() {
        let mut n = net(Routing::Minimal);
        let id = n.send(Ns::ZERO, NodeId(0), NodeId(1), 100, 7);
        let d = n.poll_delivery().expect("must deliver");
        assert_eq!(d.msg, id);
        assert_eq!(d.src, NodeId(0));
        assert_eq!(d.dst, NodeId(1));
        assert_eq!(d.bytes, 100);
        assert_eq!(d.tag, 7);
        assert!(d.completed_at > Ns::ZERO);
        // Nodes 0 and 1 share router 0: zero router hops.
        assert_eq!(d.avg_hops, 0.0);
        assert!(n.poll_delivery().is_none());
        assert!(n.is_idle());
    }

    #[test]
    fn same_router_latency_is_two_terminal_serializations() {
        let mut n = net(Routing::Minimal);
        n.send(Ns::ZERO, NodeId(0), NodeId(1), 4096, 0);
        let d = n.poll_delivery().unwrap();
        let topo = n.topology();
        let ser = topo
            .class_bandwidth(ChannelClass::TerminalUp)
            .serialization_time(4096);
        let term_lat = topo.class_latency(ChannelClass::TerminalUp);
        let expected = (ser + term_lat + topo.config().router_latency) + (ser + term_lat);
        assert_eq!(d.latency(), expected);
    }

    #[test]
    fn multi_packet_message_counts_packets() {
        let mut n = net(Routing::Minimal);
        n.send(Ns::ZERO, NodeId(0), NodeId(8), 10_000, 0); // 3 packets
        let d = n.poll_delivery().unwrap();
        assert_eq!(d.bytes, 10_000);
        assert_eq!(n.packets_delivered(), 3);
    }

    #[test]
    fn zero_byte_message_still_delivers() {
        let mut n = net(Routing::Minimal);
        n.send(Ns::ZERO, NodeId(0), NodeId(30), 0, 1);
        let d = n.poll_delivery().unwrap();
        assert_eq!(d.bytes, 0);
    }

    #[test]
    fn cross_group_message_has_hops() {
        let mut n = net(Routing::Minimal);
        let last = NodeId(n.topology().config().total_nodes() - 1);
        n.send(Ns::ZERO, NodeId(0), last, 4096, 0);
        let d = n.poll_delivery().unwrap();
        assert!(d.avg_hops >= 1.0, "hops {}", d.avg_hops);
        assert!(d.avg_hops <= 5.0);
    }

    #[test]
    fn deliveries_ordered_by_completion_time() {
        let mut n = net(Routing::Minimal);
        for i in 0..20 {
            let dst = NodeId((i * 3 + 1) % 64);
            n.send(Ns(i as u64 * 10), NodeId(0), dst, 2048, i as u64);
        }
        let mut prev = Ns::ZERO;
        while let Some(d) = n.poll_delivery() {
            assert!(d.completed_at >= prev);
            prev = d.completed_at;
        }
    }

    #[test]
    fn traffic_recorded_on_used_channels() {
        let mut n = net(Routing::Minimal);
        n.send(Ns::ZERO, NodeId(0), NodeId(63), 8192, 0);
        n.run_to_idle();
        let m = n.metrics();
        let total_traffic: u64 = m.channels().map(|c| c.traffic_bytes).sum();
        // Every hop counts the packet bytes once; at least up+down.
        assert!(total_traffic >= 2 * 8192, "traffic {total_traffic}");
    }

    #[test]
    fn backpressure_limits_injection_buffer() {
        // Flood one terminal link; the 8 KiB injection VC can hold at most
        // two 4 KiB packets, everything else waits in the NIC.
        let mut n = net(Routing::Minimal);
        for i in 0..50 {
            n.send(Ns::ZERO, NodeId(0), NodeId(32), 4096, i);
        }
        // After injection events fire, occupancy never exceeds capacity.
        n.run_until(Ns(1));
        let up = n.topology().terminal_up(NodeId(0));
        assert!(n.channel_occupancy(up) <= 8 * 1024);
        n.run_to_idle();
        assert_eq!(n.drain_deliveries().len(), 50);
    }

    #[test]
    fn saturation_accumulates_under_congestion() {
        let mut n = net(Routing::Minimal);
        // Many nodes hammer one destination: its terminal-down link and
        // the local links feeding it must saturate.
        for src in 1..32u32 {
            for k in 0..4 {
                n.send(
                    Ns::ZERO,
                    NodeId(src),
                    NodeId(0),
                    16 * 4096,
                    (src * 10 + k) as u64,
                );
            }
        }
        n.run_to_idle();
        let m = n.metrics();
        let saturated: u64 = m.channels().map(|c| c.saturated_time.as_nanos()).sum();
        assert!(saturated > 0, "expected some saturation");
    }

    #[test]
    fn no_saturation_on_idle_paths() {
        let mut n = net(Routing::Minimal);
        n.send(Ns::ZERO, NodeId(0), NodeId(2), 1024, 0);
        n.run_to_idle();
        let m = n.metrics();
        // A single small message cannot fill any 8 KiB buffer.
        let saturated: u64 = m.channels().map(|c| c.saturated_time.as_nanos()).sum();
        assert_eq!(saturated, 0);
    }

    #[test]
    fn conservation_all_messages_delivered() {
        for routing in [Routing::Minimal, Routing::Adaptive] {
            let mut n = net(routing);
            let mut rng = Xoshiro256::seed_from(55);
            let nodes = n.topology().config().total_nodes();
            let total = 300;
            for i in 0..total {
                let s = NodeId(rng.next_below(nodes as u64) as u32);
                let d = NodeId(rng.next_below(nodes as u64) as u32);
                let bytes = rng.range_inclusive(1, 50_000);
                n.send(Ns(i as u64 * 50), s, d, bytes, i as u64);
            }
            let mut count = 0;
            let mut tags = std::collections::HashSet::new();
            while let Some(d) = n.poll_delivery() {
                count += 1;
                tags.insert(d.tag);
            }
            assert_eq!(count, total);
            assert_eq!(tags.len(), total);
            assert!(n.is_idle());
        }
    }

    #[test]
    fn adaptive_relieves_local_congestion_under_locality() {
        // The paper's Section IV-A observation: when contiguous placement
        // confines skewed traffic to a few local links, minimal routing
        // saturates them; adaptive detours onto idle paths, reducing
        // local-link saturation at the cost of extra hops. All-to-all
        // within one chassis (router row) keeps the hot set small while
        // leaving column/global links free as detours.
        let run = |routing: Routing| -> (u64, f64) {
            let topo = Arc::new(Topology::build(TopologyConfig::small_test()));
            // Low detour bias: this test checks the *mechanism* (detours
            // relieve a skewed hotspot); the production default is tuned
            // for the paper's workloads, where minimal paths are longer
            // and the signal is proportionally stronger.
            let params = NetworkParams {
                adaptive_bias_bytes: 2048,
                ..NetworkParams::default()
            };
            let mut n = Network::new(topo.clone(), params, routing, 9);
            let row_nodes = topo.config().cols * topo.config().nodes_per_router;
            // All-to-all inside the first router row, heavy enough to back
            // queues up past the UGAL detour threshold.
            for i in 0..row_nodes {
                for j in 0..row_nodes {
                    if i != j {
                        n.send(
                            Ns::ZERO,
                            NodeId(i),
                            NodeId(j),
                            256 * 1024,
                            (i * 100 + j) as u64,
                        );
                    }
                }
            }
            n.run_to_idle();
            let m = n.metrics();
            let local_sat: u64 = m
                .channels()
                .filter(|c| c.class.is_local())
                .map(|c| c.saturated_time.as_nanos())
                .sum();
            let hops: f64 = {
                let ds = n.drain_deliveries();
                ds.iter().map(|d| d.avg_hops).sum::<f64>() / ds.len() as f64
            };
            (local_sat, hops)
        };
        let (sat_min, hops_min) = run(Routing::Minimal);
        let (sat_adp, hops_adp) = run(Routing::Adaptive);
        assert!(
            sat_adp < sat_min,
            "adaptive should reduce local saturation: {sat_adp} vs {sat_min}"
        );
        assert!(
            hops_adp > hops_min,
            "adaptive pays extra hops: {hops_adp} vs {hops_min}"
        );
    }

    #[test]
    fn run_until_respects_time_bound() {
        let mut n = net(Routing::Minimal);
        n.send(Ns(1_000_000), NodeId(0), NodeId(5), 1024, 0);
        n.run_until(Ns(500_000));
        assert!(n.drain_deliveries().is_empty());
        assert_eq!(n.now(), Ns::ZERO); // nothing fired yet
        n.run_until(Ns(10_000_000));
        assert_eq!(n.drain_deliveries().len(), 1);
    }

    #[test]
    fn message_and_packet_slots_recycle() {
        let mut n = net(Routing::Minimal);
        for round in 0..10u64 {
            n.send(Ns(round * 100_000), NodeId(0), NodeId(9), 4096, round);
        }
        n.run_to_idle();
        assert_eq!(n.drain_deliveries().len(), 10);
        // All packets freed: arena high-water mark stays small because
        // rounds are sequential in time.
        assert!(n.packets.len() <= 4, "arena grew to {}", n.packets.len());
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let run = || {
            let mut n = net(Routing::Adaptive);
            let mut rng = Xoshiro256::seed_from(777);
            for i in 0..100u64 {
                let s = NodeId(rng.next_below(64) as u32);
                let d = NodeId(rng.next_below(64) as u32);
                n.send(Ns(i * 200), s, d, 10_000, i);
            }
            let mut out = Vec::new();
            while let Some(d) = n.poll_delivery() {
                out.push((d.tag, d.completed_at));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_rejects_bad_node() {
        let mut n = net(Routing::Minimal);
        n.send(Ns::ZERO, NodeId(0), NodeId(10_000), 1, 0);
    }

    #[test]
    fn send_in_the_past_is_clamped_to_now() {
        // Regression: `send` used to forward a stale `at < now` straight
        // into the event queue, which panics on causality violations. The
        // documented contract is now "clamped to now".
        let mut n = net(Routing::Minimal);
        n.schedule_wakeup(Ns::from_ms(1));
        assert_eq!(n.poll(), Some(NetworkEvent::Wakeup));
        assert_eq!(n.now(), Ns::from_ms(1));
        n.send(Ns::ZERO, NodeId(0), NodeId(1), 100, 9);
        let d = n.poll_delivery().expect("clamped send must deliver");
        assert_eq!(d.tag, 9);
        assert_eq!(d.injected_at, Ns::from_ms(1), "injection clamped to now");
        assert!(d.completed_at > Ns::from_ms(1));
    }

    #[test]
    fn parked_channel_is_woken_and_drains() {
        // Saturate one destination hard enough that upstream channels must
        // park on the terminal-down link's wait list (exercising the
        // in_waitlist protocol end to end), then verify full drain.
        let mut n = net(Routing::Minimal);
        for src in 1..16u32 {
            n.send(Ns::ZERO, NodeId(src), NodeId(0), 64 * 1024, src as u64);
        }
        n.run_to_idle();
        assert_eq!(n.drain_deliveries().len(), 15);
        assert_eq!(n.total_queued_bytes(), 0);
        for (_, ch) in n.channels.iter() {
            assert!(!ch.in_waitlist, "waitlist bit must clear at drain");
            assert!(ch.waiters.is_empty(), "wait lists must empty at drain");
        }
    }

    #[test]
    fn traffic_timeline_partitions_total_traffic() {
        let mut n = net(Routing::Minimal);
        n.enable_traffic_timeline(Ns::from_us(1));
        for i in 0..20u64 {
            n.send(
                Ns(i * 500),
                NodeId((i % 8) as u32),
                NodeId(32 + (i % 8) as u32),
                20_000,
                i,
            );
        }
        n.run_to_idle();
        let m = n.metrics();
        let tl = n.traffic_timeline().expect("enabled");
        for class in CLASSES {
            let series_total: u64 = tl.series(class_index(class)).iter().sum();
            assert_eq!(series_total, m.total_traffic(class), "{class:?}");
        }
        let global = tl.series(class_index(ChannelClass::Global));
        assert!(global.len() > 1, "spans multiple bins");
        assert_eq!(tl.bin_width(), Ns::from_us(1), "the cap was never reached");
    }

    /// A run that outgrows the bin cap coarsens its timeline instead of
    /// growing it: the same traffic recorded at 1 ns bins (past the cap)
    /// and at 1 µs bins (far inside it) carries the same bytes per class,
    /// and the coarse side never holds more than the cap.
    #[test]
    fn streaming_timeline_matches_dense_mass_with_bounded_bins() {
        let drive = |bin_width: Ns| {
            let mut n = net(Routing::Minimal);
            n.enable_traffic_timeline(bin_width);
            for i in 0..20u64 {
                n.send(
                    Ns(i * 5_000),
                    NodeId((i % 8) as u32),
                    NodeId(32 + (i % 8) as u32),
                    20_000,
                    i,
                );
            }
            n.run_to_idle();
            n
        };
        let dense = drive(Ns::from_us(1));
        let coarse = drive(Ns(1));
        let (dt, ct) = (
            dense.traffic_timeline().expect("enabled"),
            coarse.traffic_timeline().expect("enabled"),
        );
        assert_eq!(dt.bin_width(), Ns::from_us(1), "dense side never coarsened");
        assert!(ct.bin_width() > Ns(1), "the 1 ns run never reached the cap");
        // Same bytes per class: coarsening redistributes, never loses.
        assert_eq!(ct.lane_count(), CLASSES.len());
        for class in CLASSES {
            let lane = class_index(class);
            assert_eq!(ct.total(lane), dt.total(lane), "{class:?}");
            assert!(ct.series(lane).len() <= crate::metrics::TIMELINE_BINS);
        }
        // The bin width is a pure observer of the simulation.
        assert_eq!(
            dense.metrics().total_traffic(ChannelClass::Global),
            coarse.metrics().total_traffic(ChannelClass::Global)
        );
        assert!(coarse.metric_bytes_approx() > 0);
    }

    #[test]
    fn queued_bytes_gauge_returns_to_zero() {
        let mut n = net(Routing::Minimal);
        for i in 0..20 {
            n.send(Ns(i * 100), NodeId(0), NodeId(40), 20_000, i);
        }
        n.run_until(Ns(5_000));
        // While traffic is in flight the gauge is positive...
        let mid = n.total_queued_bytes();
        assert!(mid > 0 || n.packets_in_flight() > 0);
        n.run_to_idle();
        // ...and it fully drains with the network.
        assert_eq!(n.total_queued_bytes(), 0);
        assert_eq!(n.packets_in_flight(), 0);
    }

    #[test]
    fn wakeups_interleave_with_deliveries_in_time_order() {
        let mut n = net(Routing::Minimal);
        n.send(Ns::ZERO, NodeId(0), NodeId(1), 100, 0);
        n.schedule_wakeup(Ns::from_ms(1));
        n.schedule_wakeup(Ns::from_ms(2));
        let mut seq = Vec::new();
        while let Some(ev) = n.poll() {
            match ev {
                NetworkEvent::Delivery(d) => seq.push(("d", d.completed_at)),
                NetworkEvent::Wakeup => seq.push(("w", n.now())),
            }
        }
        assert_eq!(seq.len(), 3);
        assert_eq!(seq[0].0, "d"); // sub-millisecond delivery first
        assert_eq!(seq[1], ("w", Ns::from_ms(1)));
        assert_eq!(seq[2], ("w", Ns::from_ms(2)));
    }

    // ----- audit layer -----------------------------------------------------

    use crate::audit::{AuditKind, AuditViolation};

    /// A network with audits forced on (not just debug-default), mid-run
    /// under enough load that queues, waitlists, and full flags are live.
    fn audited_congested_net() -> Network {
        let params = NetworkParams {
            audit: true,
            ..NetworkParams::default()
        };
        let mut n = net_with(Routing::Minimal, params);
        for src in 1..24u32 {
            n.send(Ns::ZERO, NodeId(src), NodeId(0), 64 * 1024, src as u64);
        }
        n.run_until(Ns(20_000));
        assert!(n.packets_in_flight() > 0, "want a mid-run state");
        n
    }

    /// Every event is dispatched behind `prefetch_ahead`, so this also
    /// holds the read-ahead pipeline to a clean audit under congestion.
    #[test]
    fn audited_run_is_clean_and_covers_events() {
        let mut n = audited_congested_net();
        assert!(n.audit_enabled());
        n.run_to_idle();
        let report = n.audit_report().expect("audit on");
        assert!(report.is_clean(), "{report}");
        assert!(report.events_audited > 100, "{report}");
        // At least the drain sweep plus the on-demand one ran.
        assert!(report.full_sweeps >= 2, "{report}");
    }

    #[test]
    fn audit_off_reports_none_and_skips_shadow() {
        let params = NetworkParams {
            audit: false,
            ..NetworkParams::default()
        };
        let mut n = net_with(Routing::Minimal, params);
        n.send(Ns::ZERO, NodeId(0), NodeId(9), 4096, 0);
        n.run_to_idle();
        assert!(!n.audit_enabled());
        assert!(n.audit_report().is_none());
    }

    #[test]
    fn audit_detects_occupancy_corruption() {
        let mut n = audited_congested_net();
        // Corrupt one channel's credit counter behind the auditor's back.
        let up = n.topology().terminal_up(NodeId(1));
        n.channels.get_mut(up).total_occupancy += 64;
        let report = n.audit_report().unwrap();
        assert!(!report.is_clean());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind == AuditKind::VcOccupancy && v.channel == Some(up)),
            "{report}"
        );
    }

    #[test]
    fn audit_detects_saturation_miscount() {
        let mut n = audited_congested_net();
        let up = n.topology().terminal_up(NodeId(2));
        n.channels.get_mut(up).full_vcs += 1;
        let report = n.audit_report().unwrap();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind == AuditKind::Saturation && v.channel == Some(up)),
            "{report}"
        );
    }

    #[test]
    fn audit_detects_waitlist_corruption() {
        let mut n = audited_congested_net();
        // Flip a waitlist bit with no matching waiters-list membership.
        let victim = n
            .channels
            .iter()
            .find(|(_, c)| !c.in_waitlist)
            .map(|(id, _)| id)
            .expect("some channel not parked");
        n.channels.get_mut(victim).in_waitlist = true;
        let report = n.audit_report().unwrap();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind == AuditKind::Waitlist && v.channel == Some(victim)),
            "{report}"
        );
    }

    #[test]
    fn audit_detects_leaked_packet() {
        let mut n = audited_congested_net();
        // Drop a queued packet on the floor: pop it from its list without
        // releasing occupancy or telling the auditor.
        let victim = n
            .channels
            .iter()
            .find(|(_, ch)| {
                // Skip the busy head (TxDone would then pop a packet the
                // engine no longer has) — take a queue with depth >= 2.
                ch.vcs[0].queue.iter(&n.packets).count() >= 2
            })
            .map(|(id, _)| id)
            .expect("some deep VC queue");
        n.channels.get_mut(victim).vcs[0]
            .queue
            .pop_front(&n.packets);
        let report = n.audit_report().unwrap();
        assert!(!report.is_clean());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind == AuditKind::ListIntegrity),
            "{report}"
        );
    }

    #[test]
    fn audit_detects_traffic_miscount() {
        let mut n = audited_congested_net();
        let up = n.topology().terminal_up(NodeId(3));
        n.channels.get_mut(up).traffic += 1;
        let report = n.audit_report().unwrap();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind == AuditKind::VcOccupancy && v.channel == Some(up)),
            "{report}"
        );
    }

    fn activity_violations(n: &mut Network, kind: AuditKind) -> Vec<AuditViolation> {
        let report = n.audit_report().expect("audit on");
        report
            .violations
            .into_iter()
            .filter(|v| v.kind == kind)
            .collect()
    }

    #[test]
    fn audit_detects_class_total_corruption() {
        let mut n = audited_congested_net();
        n.activity.busy_ns[class_index(ChannelClass::TerminalUp)] += 1;
        let found = activity_violations(&mut n, AuditKind::ClassTotals);
        assert!(
            found.iter().any(|v| v.context.contains("busy time")),
            "{found:?}"
        );
    }

    #[test]
    fn audit_detects_missing_open_full_entry() {
        let mut n = audited_congested_net();
        let at = n
            .activity
            .open_full
            .iter()
            .position(|&id| n.channels.get(id).is_some_and(|ch| ch.full_vcs > 0))
            .expect("the hotspot saturates a channel");
        let id = n.activity.open_full.swap_remove(at);
        n.channels.get_mut(id).listed &= !crate::channel::ON_OPEN_FULL;
        let found = activity_violations(&mut n, AuditKind::ActivityList);
        assert!(
            found
                .iter()
                .any(|v| v.channel == Some(id) && v.context.contains("missing")),
            "{found:?}"
        );
    }

    #[test]
    fn audit_detects_stale_occupied_flag() {
        // The bit stays set after the entry is gone: the channel could
        // never re-enter the list and telemetry would stop seeing it.
        let mut n = audited_congested_net();
        let id = n
            .activity
            .occupied
            .pop()
            .expect("mid-run buffers are occupied");
        assert_ne!(
            n.channels.get(id).unwrap().listed & crate::channel::ON_OCCUPIED,
            0
        );
        let found = activity_violations(&mut n, AuditKind::ActivityList);
        assert!(
            found
                .iter()
                .any(|v| v.channel == Some(id) && v.context.contains("occupied list")),
            "{found:?}"
        );
    }

    #[test]
    fn audit_detects_queued_mask_corruption() {
        // A mask bit without a queued packet would send arbitration to an
        // empty queue; a missing bit would strand the queue's packets.
        let mut n = audited_congested_net();
        let (id, vc) = n
            .channels
            .iter()
            .find_map(|(id, ch)| {
                (0..MAX_ROUTE_LEN)
                    .find(|&vc| ch.queued_mask & (1 << vc) != 0)
                    .map(|vc| (id, vc))
            })
            .expect("mid-run queues hold packets");
        n.channels.get_mut(id).queued_mask &= !(1 << vc);
        let found = activity_violations(&mut n, AuditKind::ListIntegrity);
        assert!(
            found
                .iter()
                .any(|v| v.channel == Some(id) && v.context.contains("queued mask")),
            "{found:?}"
        );
    }

    /// A channel of the congested net whose run was never allocated.
    fn unallocated_channel(n: &Network) -> ChannelId {
        (0..n.channels.len() as u32)
            .map(ChannelId)
            .rev()
            .find(|&id| n.channels.get(id).is_none())
            .expect("a hotspot run leaves most runs unallocated")
    }

    #[test]
    fn audit_detects_unallocated_channel_on_an_activity_list() {
        let mut n = audited_congested_net();
        let ghost = unallocated_channel(&n);
        n.activity.occupied.push(ghost);
        let found = activity_violations(&mut n, AuditKind::ActivityList);
        assert!(
            found
                .iter()
                .any(|v| v.channel == Some(ghost) && v.context.contains("no record")),
            "{found:?}"
        );
        assert!(
            n.channels.get(ghost).is_none(),
            "the sweep must not allocate"
        );
    }

    #[test]
    fn audit_detects_unallocated_channel_on_a_wait_list() {
        let mut n = audited_congested_net();
        let ghost = unallocated_channel(&n);
        let blocker = n.channels.iter().next().map(|(id, _)| id).unwrap();
        n.channels.get_mut(blocker).waiters.push(ghost);
        let found = activity_violations(&mut n, AuditKind::Waitlist);
        assert!(
            found
                .iter()
                .any(|v| v.channel == Some(ghost) && v.context.contains("no record")),
            "{found:?}"
        );
    }

    #[test]
    fn records_exist_only_for_runs_on_the_message_route() {
        // 65 groups x 8 routers x 4 nodes: 2,080 nodes, ~13k channels.
        let topo = Arc::new(Topology::build(TopologyConfig::canonical(4, 8, 8, 65)));
        let mut n = Network::new(topo, NetworkParams::default(), Routing::Minimal, 5);
        assert_eq!(
            n.channel_footprint().records,
            0,
            "construction allocates no record"
        );
        let last = NodeId(n.topology().config().total_nodes() - 1);
        n.send(Ns::ZERO, NodeId(0), last, 3 * 4096, 0);
        n.run_to_idle();
        assert_eq!(n.drain_deliveries().len(), 1);
        let m = n.metrics();
        let route: Vec<ChannelId> = m
            .channels()
            .filter(|c| c.traffic_bytes > 0)
            .map(|c| c.id)
            .collect();
        assert!(route
            .iter()
            .any(|&c| n.topology().channel(c).class == ChannelClass::Global));
        let mut route_runs: Vec<usize> = route.iter().map(|c| c.index() / RUN_LEN).collect();
        route_runs.dedup();
        route_runs.sort_unstable();
        route_runs.dedup();
        let mut allocated: Vec<usize> = n
            .channels
            .iter()
            .map(|(c, _)| c.index() / RUN_LEN)
            .collect();
        allocated.dedup();
        assert_eq!(allocated, route_runs, "records beyond the route's runs");
        let footprint = m.footprint();
        assert_eq!(footprint.records, RUN_LEN * route_runs.len());
        assert_eq!(footprint.channels, n.topology().channel_count());
        assert!(footprint.records * 20 < footprint.channels, "{footprint:?}");
    }

    #[test]
    fn audit_report_is_displayable() {
        let mut n = audited_congested_net();
        n.channels.get_mut(ChannelId(0)).total_occupancy += 1;
        let report = n.audit_report().unwrap();
        let text = report.to_string();
        assert!(text.contains("violation"), "{text}");
        assert!(text.contains("vc-occupancy"), "{text}");
    }

    /// A network with telemetry on (fine sampling interval so even short
    /// unit-test runs produce several sweeps), congested enough that
    /// utilization, occupancy, and stall counters are all live.
    fn observed_congested_net() -> Network {
        let mut n = net(Routing::Adaptive);
        n.set_obs_interval(Ns(1_000));
        for src in 1..24u32 {
            n.send(Ns::ZERO, NodeId(src), NodeId(0), 64 * 1024, src as u64);
        }
        n
    }

    #[test]
    fn obs_samplers_actually_record() {
        // Tamper-style positive check: a telemetry layer that silently
        // records nothing would pass every bit-identity test, so prove
        // the samplers see the run.
        let mut n = observed_congested_net();
        assert!(n.obs_enabled());
        n.run_to_idle();
        let report = n.obs_report().expect("obs on");

        // Every handled event is profiled.
        assert_eq!(report.profile.total_events(), n.events_processed());
        assert!(report.profile.total_wall_ns > 0);
        assert!(report.profile.queue_high_water > 0);

        // The sample series is non-empty with strictly monotone
        // timestamps and clamped utilizations.
        let samples = report.series.samples();
        assert!(samples.len() >= 3, "only {} samples", samples.len());
        for pair in samples.windows(2) {
            assert!(pair[0].at < pair[1].at, "non-monotone sample times");
        }
        assert!(samples
            .iter()
            .all(|s| s.util.iter().all(|&u| (0.0..=1.0).contains(&u))));
        // A 24-sender hotspot must actually show utilization and backlog.
        assert!(samples.iter().any(|s| s.util.iter().any(|&u| u > 0.0)));
        assert!(samples
            .iter()
            .any(|s| s.queued_bytes.iter().sum::<u64>() > 0));
        // The hotspot's terminal-down link saturates: stalls are seen.
        assert!(samples.iter().any(|s| s.stall_ns.iter().sum::<u64>() > 0));

        // VC occupancy readings cover every sweep.
        assert!(report.vc_occupancy.readings > 0);
        // Adaptive routing ran: every packet's decision is accounted.
        assert!(report.route.total() > 0);
    }

    #[test]
    fn obs_off_reports_none() {
        let params = NetworkParams {
            obs: false,
            ..NetworkParams::default()
        };
        let mut n = net_with(Routing::Adaptive, params);
        n.send(Ns::ZERO, NodeId(0), NodeId(9), 4096, 0);
        n.run_to_idle();
        assert!(!n.obs_enabled());
        assert!(n.obs_report().is_none());
    }

    #[test]
    fn obs_report_final_sweep_closes_tail_window() {
        // A run shorter than the sampling interval still yields one
        // sample: obs_report closes the open tail window.
        let params = NetworkParams {
            obs: true, // default 50 µs interval
            ..NetworkParams::default()
        };
        let mut n = net_with(Routing::Minimal, params);
        n.send(Ns::ZERO, NodeId(0), NodeId(1), 512, 0);
        n.run_to_idle();
        assert!(n.now() < ObsCollector::DEFAULT_INTERVAL);
        let report = n.obs_report().expect("obs on");
        assert_eq!(report.series.samples().len(), 1);
        // Repeated reports do not grow the series (zero-width window).
        let again = n.obs_report().unwrap();
        assert_eq!(again.series.samples().len(), 1);
    }

    #[test]
    #[should_panic(expected = "fresh network")]
    fn obs_toggle_mid_run_panics() {
        let mut n = net(Routing::Minimal);
        n.send(Ns::ZERO, NodeId(0), NodeId(1), 512, 0);
        n.poll_delivery();
        n.set_obs_interval(Ns(1_000));
    }

    #[test]
    fn sparse_traffic_emits_uniform_catchup_windows() {
        // Regression: a burst, a long quiet gap, another burst. The old
        // collector emitted one oversized window at the first event after
        // the gap; the aligned grid must keep every boundary window.
        let mut n = net(Routing::Minimal);
        n.set_obs_interval(Ns(1_000));
        n.send(Ns::ZERO, NodeId(0), NodeId(40), 4096, 0);
        n.send(Ns(40_000), NodeId(1), NodeId(41), 4096, 1);
        n.run_to_idle();
        let report = n.obs_report().expect("obs on");
        let samples = report.series.samples();
        assert!(
            samples.len() >= 40,
            "gap skipped: {} windows",
            samples.len()
        );
        // Every window but the close() tail sits on the aligned grid.
        for (i, s) in samples[..samples.len() - 1].iter().enumerate() {
            assert_eq!(s.at, Ns(1_000 * (i as u64 + 1)), "window off the grid");
        }
        let tail = samples.last().unwrap();
        assert_eq!(tail.at, n.now(), "tail window closes at the final event");
    }

    #[test]
    fn queue_holds_one_arrival_per_packet_in_flight() {
        // Cross-group messages of 64-byte packets, some injected later,
        // and a wakeup: the global hop takes 1.5 µs against a few ns of
        // serialization, so hundreds of packets are on a wire at once.
        // Every step, the queue holds exactly one TxDone per busy channel,
        // one Arrive per packet in flight (the one being transmitted on
        // each busy channel, and each one the audit puts on a wire), and
        // the Inject and Wakeup entries not yet fired.
        let topo = Arc::new(Topology::build(TopologyConfig::small_test()));
        let params = NetworkParams {
            packet_size: 64,
            audit: true,
            ..NetworkParams::default()
        };
        let mut n = Network::new(topo, params, Routing::Minimal, 12345);
        let last = n.topology().config().total_nodes() - 1;
        for (k, at) in [0, 0, 500, 2_000].into_iter().enumerate() {
            let k = k as u32;
            n.send(Ns(at), NodeId(k), NodeId(last - k), 32 * 1024, 0);
        }
        n.schedule_wakeup(Ns(1_000));
        let mut pending_inject_or_wakeup = 5;
        let mut peak_on_wire = 0;
        loop {
            if let Some(NetEvent::Inject(_) | NetEvent::Wakeup) = n.queue.lookahead()[0] {
                pending_inject_or_wakeup -= 1;
            }
            if !n.step() {
                break;
            }
            let busy = n.channels.iter().filter(|(_, ch)| ch.busy).count();
            let on_wire = n.audit.as_ref().expect("audit on").packets_on_wire();
            peak_on_wire = peak_on_wire.max(on_wire);
            assert_eq!(
                n.queue.len(),
                2 * busy + on_wire + pending_inject_or_wakeup,
                "at {:?}: {busy} busy channels, {on_wire} packets on a wire, \
                 {pending_inject_or_wakeup} injects or wakeups pending",
                n.now()
            );
        }
        assert_eq!(n.queue.len(), 0);
        assert_eq!(n.drain_deliveries().len(), 4);
        let report = n.audit_report().expect("audit on");
        assert!(report.is_clean(), "{report}");
        assert!(peak_on_wire > 100, "only {peak_on_wire} packets on a wire at once");
    }

    #[test]
    fn obs_stride_changes_timing_cost_not_results() {
        let run = |stride: u32| {
            let params = NetworkParams {
                obs_stride: stride,
                ..NetworkParams::default()
            };
            let mut n = net_with(Routing::Adaptive, params);
            n.set_obs_interval(Ns(1_000));
            for src in 1..24u32 {
                n.send(Ns::ZERO, NodeId(src), NodeId(0), 64 * 1024, src as u64);
            }
            n.run_to_idle();
            let deliveries: Vec<(u64, Ns)> = n
                .drain_deliveries()
                .iter()
                .map(|d| (d.tag, d.completed_at))
                .collect();
            let report = n.obs_report().expect("obs on");
            (deliveries, n.events_processed(), report.profile)
        };
        let (d1, e1, exhaustive) = run(1);
        let (d64, e64, sampled) = run(64);
        assert_eq!(d1, d64, "stride changed simulation results");
        assert_eq!(e1, e64);
        // Counts are exact regardless of stride; timing is the subset.
        assert_eq!(exhaustive.counts, sampled.counts);
        assert_eq!(exhaustive.timed_events(), exhaustive.total_events());
        assert!(sampled.timed_events() < sampled.total_events());
        assert!(sampled.timed_events() > 0);
    }

    #[test]
    fn wakeup_allows_injection_at_wakeup_time() {
        let mut n = net(Routing::Minimal);
        n.schedule_wakeup(Ns::from_ms(1));
        match n.poll() {
            Some(NetworkEvent::Wakeup) => {
                n.send(n.now(), NodeId(0), NodeId(9), 512, 5);
            }
            other => panic!("expected wakeup, got {other:?}"),
        }
        let d = n.poll_delivery().unwrap();
        assert_eq!(d.tag, 5);
        assert!(d.injected_at == Ns::from_ms(1));
    }
}
