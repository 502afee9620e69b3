//! Intra-run parallelism: one network replica per dragonfly group under
//! conservative time-window PDES.
//!
//! ## Partitioning
//!
//! The dragonfly's only inter-group links are global channels, whose
//! minimum latency (global flight time plus the receiving router's
//! traversal) is the *lookahead* `L`. Simulated time is cut into fixed
//! windows of `L`; an event inside window `w` can only affect another
//! group at or after window `w + 1`, so every group-replica processes a
//! whole window without synchronizing mid-window. Each replica is an
//! ordinary serial [`Network`] in shard mode: it owns the channels whose
//! transmitting end sits in its group, exports packets crossing a global
//! link as [`WireRecord`]s, and imports its neighbors' records at window
//! starts.
//!
//! ## Determinism
//!
//! The unit of partitioning is the *group*, never the worker: `n`
//! workers only distribute the per-group replicas round-robin
//! (`group % n`), every replica processes every window, and imports are
//! sorted on `(t_arr, src_group, emit_seq)` before event-sequence
//! numbers are assigned. Results are therefore byte-identical at any
//! worker count — enforced by `tests/determinism.rs`. (The sharded
//! schedule is *not* bit-identical to the legacy serial loop: cross-group
//! credit reservation becomes landing queues and driver injections
//! quantize to window starts, the same modeling deviation a conservative
//! ROSS/CODES run accepts. The A/B test bounds the statistical gap.)
//!
//! ## Window protocol
//!
//! The coordinator ([`ShardedNetwork`]) drives lockstep windows: it
//! distributes driver injections, sends every worker a `Window` command,
//! and waits for one acknowledgement per worker. Cross-group records
//! travel through per-directed-edge [`Mailbox`]es, double-buffered by
//! window parity: window `w` *exports into* parity `(w + 1) % 2` and
//! *imports from* parity `w % 2`, so a replica still ingesting window
//! `w` never sees a neighbor's freshly exported window-`w` records.
//! After each window every replica publishes its horizon — the earliest
//! time it still has work, including the records it just exported — on a
//! [`ShardClock`]; the coordinator skips straight to the window holding
//! the global minimum. Exports from window `w` arrive strictly inside
//! window `w + 1`, so a skip never strands a mailbox record.

use crate::audit::{AuditKind, AuditReport, AuditViolation};
use crate::metrics::{ChannelFootprint, NetworkMetrics};
use crate::net::{Delivery, Network, NetworkEvent};
use crate::packet::{MessageId, Route};
use crate::params::NetworkParams;
use crate::routing::Routing;
use dfly_engine::shard::{min_horizon, Mailbox, ShardClock, Windows, IDLE};
use dfly_engine::{Bytes, Ns};
use dfly_obs::ObsReport;
use dfly_topology::{ChannelClass, ChannelId, NodeId, Topology};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A packet crossing a group boundary, serialized as plain data: enough
/// to re-materialize the packet and (on first contact) its message's
/// shadow in the destination replica.
#[derive(Debug, Clone)]
pub(crate) struct WireRecord {
    /// Arrival time at the far end of the global channel (transmit-done
    /// time plus the channel's flight + router traversal latency).
    pub(crate) t_arr: Ns,
    /// Exporting group (sort key component; also the conservation ledger
    /// index).
    pub(crate) src_group: u32,
    /// Per (exporter, destination-group) emission counter: disambiguates
    /// same-instant arrivals deterministically.
    pub(crate) emit_seq: u64,
    /// Run-global message id (see [`crate::packet::MessageState::gid`]).
    pub(crate) gid: u64,
    /// Packet payload bytes.
    pub(crate) size: u32,
    /// Route position of the global channel just crossed.
    pub(crate) hop: u8,
    /// The packet's full fixed route.
    pub(crate) route: Route,
    /// Message metadata, carried so any replica can materialize the
    /// message shadow without a broadcast.
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) bytes: Bytes,
    pub(crate) tag: u64,
    pub(crate) injected_at: Ns,
    pub(crate) total_packets: u64,
}

/// Per-replica shard state, owned by a [`Network`] in shard mode.
#[derive(Debug)]
pub(crate) struct ShardState {
    /// The group this replica simulates: it owns the channels whose
    /// [`Topology::channel_owner`] router sits in this group.
    pub(crate) group: u32,
    /// Records exported this window, bucketed by destination group.
    pub(crate) outboxes: Vec<Vec<WireRecord>>,
    /// Per destination group: next emission sequence number.
    pub(crate) emit_seq: Vec<u64>,
    /// gid -> local message slot, for attributing further imports (and
    /// detour returns) of an already-seen message.
    pub(crate) remote: HashMap<u64, MessageId>,
    /// Conservation ledger: (bytes, packets) exported to each group.
    pub(crate) exported_to: Vec<(u64, u64)>,
    /// Conservation ledger: (bytes, packets) imported from each group.
    pub(crate) imported_from: Vec<(u64, u64)>,
}

impl ShardState {
    pub(crate) fn new(group: u32, groups: usize) -> ShardState {
        ShardState {
            group,
            outboxes: vec![Vec::new(); groups],
            emit_seq: vec![0; groups],
            remote: HashMap::new(),
            exported_to: vec![(0, 0); groups],
            imported_from: vec![(0, 0); groups],
        }
    }
}

/// The group whose replica simulates channel `id`: the group of the
/// channel's owning router (its transmitting end, or for terminal-up the
/// injecting node's router).
#[inline]
pub(crate) fn owner_group(topo: &Topology, id: ChannelId) -> usize {
    topo.router_group(topo.channel_owner(id)).index()
}

/// A driver injection buffered at the coordinator until the next window.
#[derive(Debug, Clone)]
struct InjectCmd {
    at: Ns,
    src: NodeId,
    dst: NodeId,
    bytes: Bytes,
    tag: u64,
    gid: u64,
}

/// State shared between the coordinator and the workers.
struct Shared {
    /// Per-group published horizons.
    clocks: Vec<ShardClock>,
    /// Parity-double-buffered edge mailboxes, indexed
    /// `parity * g * g + src * g + dst`.
    edges: Vec<Mailbox<WireRecord>>,
    /// Per-group driver injections for the upcoming window.
    inject: Vec<Mailbox<InjectCmd>>,
    /// Per-group deliveries of the window just run.
    delivered: Vec<Mailbox<Delivery>>,
    /// Per-group network-load gauges, published at window ends.
    queued_bytes: Vec<AtomicU64>,
    in_flight: Vec<AtomicU64>,
}

enum Cmd {
    Window { index: u64, end: Ns },
    Finish,
}

/// The worker thread: owns its replicas, processes one window per
/// command, returns the replicas at `Finish` (or when the coordinator
/// hangs up).
fn worker_loop(
    mut nets: Vec<(u32, Network)>,
    shared: Arc<Shared>,
    groups: usize,
    cmds: Receiver<Cmd>,
    done: Sender<()>,
) -> Vec<(u32, Network)> {
    let mut inj: Vec<InjectCmd> = Vec::new();
    let mut imports: Vec<WireRecord> = Vec::new();
    let mut dels: Vec<Delivery> = Vec::new();
    while let Ok(cmd) = cmds.recv() {
        let Cmd::Window { index, end } = cmd else {
            break;
        };
        let read_base = (index as usize & 1) * groups * groups;
        let write_base = ((index as usize + 1) & 1) * groups * groups;
        for (group, net) in nets.iter_mut() {
            let g = *group as usize;
            // 1. Driver injections buffered for this group.
            inj.clear();
            shared.inject[g].drain_into(&mut inj);
            for c in &inj {
                net.send_sharded(c.gid, c.at, c.src, c.dst, c.bytes, c.tag);
            }
            // 2. Cross-group arrivals exported by neighbors last window,
            //    in a worker-count-independent total order.
            imports.clear();
            for src in 0..groups {
                shared.edges[read_base + src * groups + g].drain_into(&mut imports);
            }
            imports.sort_by_key(|r| (r.t_arr, r.src_group, r.emit_seq));
            net.import_records(&imports);
            // 3. The window itself (end is exclusive).
            net.run_until(end - Ns(1));
            // 4. Publish exports into next window's parity.
            let mut min_export = IDLE;
            for dst in 0..groups {
                let outbox = net.take_outbox(dst);
                for r in outbox.iter() {
                    min_export = min_export.min(r.t_arr.as_nanos());
                }
                shared.edges[write_base + g * groups + dst].push_batch(outbox);
            }
            // 5. Hand deliveries to the coordinator.
            dels.clear();
            net.take_deliveries_into(&mut dels);
            shared.delivered[g].push_batch(&mut dels);
            // 6. Publish gauges and the horizon: the earliest instant
            //    this group still owes work, counting what it exported.
            shared.queued_bytes[g].store(net.total_queued_bytes(), Ordering::Release);
            shared.in_flight[g].store(net.packets_in_flight() as u64, Ordering::Release);
            let next = net
                .next_event_time()
                .map_or(IDLE, |t| t.as_nanos())
                .min(min_export);
            shared.clocks[g].publish(next);
        }
        if done.send(()).is_err() {
            break;
        }
    }
    nets
}

/// A parallel, sharded drop-in for [`Network`]'s driver-facing surface
/// (`send` / `poll` / `now` / `schedule_wakeup`): one replica per
/// dragonfly group on `workers` threads, lockstep conservative windows.
/// Consume with [`ShardedNetwork::finish`] to join the workers and merge
/// metrics, audit, and telemetry.
pub struct ShardedNetwork {
    topo: Arc<Topology>,
    params: NetworkParams,
    windows: Windows,
    groups: usize,
    shared: Arc<Shared>,
    workers: Vec<(Sender<Cmd>, JoinHandle<Vec<(u32, Network)>>)>,
    done_rx: Receiver<()>,
    /// Coordinator-visible simulated time: the timestamp of the last
    /// surfaced event (monotone; lags the replicas by up to one window).
    cursor: Ns,
    /// End of the last window run; nothing may be scheduled behind it.
    fence: Ns,
    next_window: u64,
    /// Minimum published horizon after the last window ([`IDLE`] before
    /// the first — injections drive the first window).
    horizon: u64,
    /// Events ready to hand to the driver, timestamped.
    surface: VecDeque<(Ns, NetworkEvent)>,
    /// Driver wakeups are coordinator-local: replicas never see them.
    wakeups: BinaryHeap<Reverse<u64>>,
    pending: Vec<InjectCmd>,
    next_gid: u64,
    inj_buckets: Vec<Vec<InjectCmd>>,
    del_scratch: Vec<Delivery>,
}

impl ShardedNetwork {
    /// Build a sharded network over `topo` on `workers` threads (clamped
    /// to the group count; the per-*group* partition makes results
    /// byte-identical for every value). `seed` derives each replica's
    /// routing-RNG stream as `seed + group`.
    pub fn new(
        topo: Arc<Topology>,
        params: NetworkParams,
        routing: Routing,
        seed: u64,
        workers: usize,
    ) -> ShardedNetwork {
        let groups = topo.config().groups as usize;
        assert!(groups >= 2, "sharding needs at least two groups");
        assert!(workers >= 1, "at least one worker thread required");
        let workers_n = workers.min(groups);
        let lookahead = topo.class_latency(ChannelClass::Global) + topo.config().router_latency;
        let windows = Windows::new(lookahead);
        let shared = Arc::new(Shared {
            clocks: (0..groups).map(|_| ShardClock::new()).collect(),
            edges: (0..2 * groups * groups).map(|_| Mailbox::new()).collect(),
            inject: (0..groups).map(|_| Mailbox::new()).collect(),
            delivered: (0..groups).map(|_| Mailbox::new()).collect(),
            queued_bytes: (0..groups).map(|_| AtomicU64::new(0)).collect(),
            in_flight: (0..groups).map(|_| AtomicU64::new(0)).collect(),
        });
        let mut per_worker: Vec<Vec<(u32, Network)>> = (0..workers_n).map(|_| Vec::new()).collect();
        for g in 0..groups {
            let mut net = Network::new(topo.clone(), params, routing, seed.wrapping_add(g as u64));
            net.enable_shard(g as u32);
            per_worker[g % workers_n].push((g as u32, net));
        }
        let (done_tx, done_rx) = channel();
        let workers = per_worker
            .into_iter()
            .map(|nets| {
                let (cmd_tx, cmd_rx) = channel();
                let shared = Arc::clone(&shared);
                let done = done_tx.clone();
                let handle =
                    std::thread::spawn(move || worker_loop(nets, shared, groups, cmd_rx, done));
                (cmd_tx, handle)
            })
            .collect();
        ShardedNetwork {
            params,
            windows,
            groups,
            shared,
            workers,
            done_rx,
            cursor: Ns::ZERO,
            fence: Ns::ZERO,
            next_window: 0,
            horizon: IDLE,
            surface: VecDeque::new(),
            wakeups: BinaryHeap::new(),
            pending: Vec::new(),
            next_gid: 1,
            inj_buckets: (0..groups).map(|_| Vec::new()).collect(),
            del_scratch: Vec::new(),
            topo,
        }
    }

    /// The topology the network runs on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Network parameters in use.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// The PDES window size (the global-link lookahead).
    pub fn lookahead(&self) -> Ns {
        self.windows.lookahead()
    }

    /// Coordinator-visible simulated time: the timestamp of the last
    /// event surfaced by [`ShardedNetwork::poll`].
    pub fn now(&self) -> Ns {
        self.cursor
    }

    /// Queue a message for injection. The returned id is synthetic (the
    /// run-global message id) — deliveries are matched by tag, as the
    /// driving layers already do.
    pub fn send(&mut self, at: Ns, src: NodeId, dst: NodeId, bytes: Bytes, tag: u64) -> MessageId {
        let total = self.topo.config().total_nodes();
        assert!(
            src.0 < total && dst.0 < total,
            "send endpoints out of range"
        );
        let gid = self.next_gid;
        self.next_gid += 1;
        self.pending.push(InjectCmd {
            at: at.max(self.cursor),
            src,
            dst,
            bytes,
            tag,
            gid,
        });
        MessageId(gid)
    }

    /// Request a [`NetworkEvent::Wakeup`] at absolute time `at`. Wakeups
    /// live at the coordinator and surface *before* the window containing
    /// them runs, so a driver reacting with an injection still lands it
    /// inside that window.
    pub fn schedule_wakeup(&mut self, at: Ns) {
        self.wakeups.push(Reverse(at.as_nanos()));
    }

    /// Advance the simulation until the next delivery or wakeup. Returns
    /// `None` once every replica is idle with nothing buffered anywhere.
    pub fn poll(&mut self) -> Option<NetworkEvent> {
        loop {
            if let Some((t, ev)) = self.surface.pop_front() {
                self.cursor = self.cursor.max(t);
                return Some(ev);
            }
            // The earliest pending work anywhere: buffered injections and
            // wakeups (both clamped to the fence — behind it, they run
            // "now"), and the replicas' published horizon.
            let fence = self.fence.as_nanos();
            let m_inject = self
                .pending
                .iter()
                .map(|c| c.at.as_nanos().max(fence))
                .min()
                .unwrap_or(IDLE);
            let m_wakeup = self.wakeups.peek().map_or(IDLE, |&Reverse(t)| t.max(fence));
            let m = m_inject.min(m_wakeup).min(self.horizon);
            if m == IDLE {
                return None;
            }
            let w = self.next_window.max(self.windows.index_of(Ns(m)));
            let end = self.windows.end(w);
            // Surface wakeups due before this window completes, so the
            // driver reacts before the window's events are committed.
            let mut surfaced = false;
            while let Some(&Reverse(t)) = self.wakeups.peek() {
                let t = t.max(fence);
                if t >= end.as_nanos() {
                    break;
                }
                self.wakeups.pop();
                self.surface.push_back((Ns(t), NetworkEvent::Wakeup));
                surfaced = true;
            }
            if surfaced {
                continue;
            }
            self.run_window(w, end);
        }
    }

    /// Run one lockstep window across all workers and collect its
    /// deliveries.
    fn run_window(&mut self, w: u64, end: Ns) {
        for mut c in self.pending.drain(..) {
            let g = self.topo.node_group(c.src).index();
            c.at = c.at.max(self.fence);
            self.inj_buckets[g].push(c);
        }
        for g in 0..self.groups {
            self.shared.inject[g].push_batch(&mut self.inj_buckets[g]);
        }
        for (cmd_tx, _) in &self.workers {
            cmd_tx
                .send(Cmd::Window { index: w, end })
                .expect("PDES worker disappeared");
        }
        for _ in 0..self.workers.len() {
            self.done_rx.recv().expect("PDES worker panicked");
        }
        self.fence = end;
        self.next_window = w + 1;
        self.horizon = min_horizon(&self.shared.clocks);
        // Merge deliveries: per-group streams are already time-ordered;
        // the stable sort breaks cross-group ties in group order —
        // deterministic at any worker count.
        self.del_scratch.clear();
        for g in 0..self.groups {
            self.shared.delivered[g].drain_into(&mut self.del_scratch);
        }
        self.del_scratch.sort_by_key(|d| d.completed_at);
        for d in self.del_scratch.drain(..) {
            let t = d.completed_at;
            self.surface.push_back((t, NetworkEvent::Delivery(d)));
        }
    }

    /// Sum of the replicas' queued-bytes gauges (window-granular: updated
    /// at window ends, deterministic at any worker count).
    pub fn total_queued_bytes(&self) -> Bytes {
        self.shared
            .queued_bytes
            .iter()
            .map(|g| g.load(Ordering::Acquire))
            .sum()
    }

    /// Sum of the replicas' live-packet gauges (window-granular).
    pub fn packets_in_flight(&self) -> usize {
        self.shared
            .in_flight
            .iter()
            .map(|g| g.load(Ordering::Acquire))
            .sum::<u64>() as usize
    }

    /// Join the workers and merge the run's results. Also settles the
    /// cross-shard conservation ledger: per directed group pair, bytes
    /// and packets exported must equal bytes and packets imported plus
    /// whatever is still buffered in the edge mailboxes (a run may stop
    /// with traffic in flight).
    pub fn finish(mut self) -> ShardParts {
        for (cmd_tx, _) in &self.workers {
            let _ = cmd_tx.send(Cmd::Finish);
        }
        let mut slots: Vec<Option<Network>> = (0..self.groups).map(|_| None).collect();
        for (cmd_tx, handle) in self.workers.drain(..) {
            drop(cmd_tx);
            for (g, net) in handle.join().expect("PDES worker panicked") {
                slots[g as usize] = Some(net);
            }
        }
        let nets: Vec<Network> = slots
            .into_iter()
            .enumerate()
            .map(|(g, n)| n.unwrap_or_else(|| panic!("group {g} has no replica")))
            .collect();
        // Undelivered traffic still in the mailboxes counts toward the
        // importer side of the ledger.
        let mut in_edges = vec![(0u64, 0u64); self.groups * self.groups];
        let mut leftover = Vec::new();
        for parity in 0..2 {
            for src in 0..self.groups {
                for dst in 0..self.groups {
                    leftover.clear();
                    self.shared.edges[parity * self.groups * self.groups + src * self.groups + dst]
                        .drain_into(&mut leftover);
                    let e = &mut in_edges[src * self.groups + dst];
                    for r in &leftover {
                        e.0 += r.size as u64;
                        e.1 += 1;
                    }
                }
            }
        }
        let final_time = nets.iter().map(|n| n.now()).max().unwrap_or(Ns::ZERO);
        let mut edge_violations = Vec::new();
        for src in 0..self.groups {
            for dst in 0..self.groups {
                let exported = nets[src].shard_state().expect("shard mode").exported_to[dst];
                let imported = nets[dst].shard_state().expect("shard mode").imported_from[src];
                let buffered = in_edges[src * self.groups + dst];
                let arrived = (imported.0 + buffered.0, imported.1 + buffered.1);
                if exported != arrived {
                    edge_violations.push(AuditViolation {
                        kind: AuditKind::ByteConservation,
                        channel: None,
                        vc: None,
                        expected: exported.0,
                        actual: arrived.0,
                        at: final_time,
                        context: format!(
                            "cross-shard edge {src}->{dst}: exported {:?} != imported {:?} + buffered {:?}",
                            exported, imported, buffered
                        ),
                    });
                }
            }
        }
        debug_assert!(
            edge_violations.is_empty(),
            "cross-shard conservation broken: {edge_violations:?}"
        );
        ShardParts {
            topo: self.topo.clone(),
            nets,
            edge_violations,
            final_time,
        }
    }
}

/// The joined replicas of a finished sharded run, with merge views over
/// their metrics, audit ledgers, and telemetry.
pub struct ShardParts {
    topo: Arc<Topology>,
    nets: Vec<Network>,
    edge_violations: Vec<AuditViolation>,
    final_time: Ns,
}

impl ShardParts {
    /// The run-wide end of simulated time (max over replicas).
    pub fn final_time(&self) -> Ns {
        self.final_time
    }

    /// Total events processed across all replicas.
    pub fn events(&self) -> u64 {
        self.nets.iter().map(|n| n.events_processed()).sum()
    }

    /// Total packets delivered across all replicas.
    pub fn packets_delivered(&self) -> u64 {
        self.nets.iter().map(|n| n.packets_delivered()).sum()
    }

    /// Merged per-channel metrics: each channel's truth lives in the one
    /// replica owning it (packets traverse a channel only in the replica
    /// of its transmitting end), so each replica contributes the records
    /// it holds for its own channels.
    pub fn metrics(&self) -> NetworkMetrics {
        let topo = &self.topo;
        let snapshots = self.nets.iter().enumerate().flat_map(|(g, net)| {
            net.recorded_snapshots(self.final_time, move |id| owner_group(topo, id) == g)
        });
        NetworkMetrics::new(self.topo.clone(), snapshots).with_footprint(self.channel_footprint())
    }

    /// [`Network::full_snapshot`] of every channel from its owning
    /// replica: the reference [`ShardParts::metrics`] must equal.
    #[cfg(test)]
    pub(crate) fn full_snapshot(&self) -> Vec<crate::metrics::ChannelSnapshot> {
        let topo = &self.topo;
        let mut all: Vec<_> = self
            .nets
            .iter()
            .enumerate()
            .flat_map(|(g, net)| {
                net.full_snapshot(self.final_time, |id| owner_group(topo, id) == g)
            })
            .collect();
        all.sort_by_key(|c| c.id);
        all
    }

    /// Per-channel state summed over every replica.
    fn channel_footprint(&self) -> ChannelFootprint {
        let mut total = ChannelFootprint {
            channels: self.topo.channel_count(),
            ..ChannelFootprint::default()
        };
        for net in &self.nets {
            let f = net.channel_footprint();
            total.records += f.records;
            total.bytes += f.bytes;
        }
        total
    }

    /// Merged audit report (None when auditing was off): per-replica
    /// sweeps plus the cross-shard edge-conservation findings.
    pub fn audit_report(&mut self) -> Option<AuditReport> {
        if !self.nets[0].audit_enabled() {
            return None;
        }
        let mut merged = AuditReport::default();
        for net in &mut self.nets {
            let r = net.audit_report().expect("audit enabled on every replica");
            merged.violations.extend(r.violations);
            merged.suppressed += r.suppressed;
            merged.events_audited += r.events_audited;
            merged.full_sweeps += r.full_sweeps;
        }
        merged
            .violations
            .extend(self.edge_violations.iter().cloned());
        Some(merged)
    }

    /// Merged telemetry report (None when telemetry was off). Every
    /// replica closes its sample series at the same run-wide end time, so
    /// the series merge index-aligned; profiles, histograms, and route
    /// counters are disjoint sums.
    pub fn obs_report(&mut self) -> Option<ObsReport> {
        let final_time = self.final_time;
        let mut merged: Option<ObsReport> = None;
        for net in &mut self.nets {
            let report = net.obs_report_closed_at(final_time)?;
            match merged.as_mut() {
                None => merged = Some(report),
                Some(m) => merge_obs(m, &report),
            }
        }
        merged
    }

    /// [`ShardParts::obs_report`] merged from the full-sweep oracle's
    /// windows (see [`crate::obs::oracle`]). Call it after the report.
    #[cfg(test)]
    pub(crate) fn obs_oracle_report(&self) -> Option<ObsReport> {
        let mut merged: Option<ObsReport> = None;
        for net in &self.nets {
            let report = net.obs_oracle_report()?;
            match merged.as_mut() {
                None => merged = Some(report),
                Some(m) => merge_obs(m, &report),
            }
        }
        merged
    }

    /// Approximate metric-structure bytes summed over every replica (see
    /// [`Network::metric_bytes_approx`]).
    pub fn metric_bytes_approx(&self) -> usize {
        self.nets.iter().map(Network::metric_bytes_approx).sum()
    }
}

/// Field-wise merge of one replica's telemetry into the accumulator.
fn merge_obs(into: &mut ObsReport, from: &ObsReport) {
    for i in 0..into.profile.counts.len() {
        into.profile.counts[i] += from.profile.counts[i];
        into.profile.timed[i] += from.profile.timed[i];
        into.profile.wall_ns[i] += from.profile.wall_ns[i];
    }
    into.profile.total_wall_ns += from.profile.total_wall_ns;
    into.profile.queue_high_water = into
        .profile
        .queue_high_water
        .max(from.profile.queue_high_water);
    into.series.merge_from(&from.series);
    for i in 0..into.vc_occupancy.buckets.len() {
        into.vc_occupancy.buckets[i] += from.vc_occupancy.buckets[i];
    }
    into.vc_occupancy.readings += from.vc_occupancy.readings;
    into.route.minimal_taken += from.route.minimal_taken;
    into.route.nonminimal_taken += from.route.nonminimal_taken;
    for i in 0..into.route.margin_hist.len() {
        into.route.margin_hist[i] += from.route.margin_hist[i];
    }
    into.route.margin_sum += from.route.margin_sum;
    into.coarse_unavailable |= from.coarse_unavailable;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RUN_LEN;
    use dfly_engine::Xoshiro256;
    use dfly_topology::TopologyConfig;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::build(TopologyConfig::small_test()))
    }

    fn sharded(workers: usize, audit: bool, obs: bool) -> ShardedNetwork {
        let mut params = NetworkParams::default();
        params.audit = audit;
        params.obs = obs;
        ShardedNetwork::new(topo(), params, Routing::Adaptive, 42, workers)
    }

    fn drain(net: &mut ShardedNetwork) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Some(ev) = net.poll() {
            if let NetworkEvent::Delivery(d) = ev {
                out.push(d);
            }
        }
        out
    }

    #[test]
    fn cross_group_message_delivers_and_audits_clean() {
        let mut net = sharded(2, true, false);
        let last = NodeId(net.topology().config().total_nodes() - 1);
        net.send(Ns::ZERO, NodeId(0), last, 10_000, 7);
        let dels = drain(&mut net);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].tag, 7);
        assert_eq!(dels[0].bytes, 10_000);
        assert!(dels[0].avg_hops >= 1.0, "crossed a group");
        let mut parts = net.finish();
        assert_eq!(parts.packets_delivered(), 3);
        let report = parts.audit_report().expect("audit on");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn random_traffic_identical_at_any_worker_count() {
        let mut runs: Vec<Vec<Delivery>> = Vec::new();
        for workers in [1usize, 2, 3, 8] {
            let mut net = sharded(workers, true, false);
            let nodes = net.topology().config().total_nodes() as u64;
            let mut rng = Xoshiro256::seed_from(99);
            for i in 0..200u64 {
                let s = NodeId(rng.next_below(nodes) as u32);
                let d = NodeId(rng.next_below(nodes) as u32);
                let bytes = rng.range_inclusive(1, 30_000);
                net.send(Ns(i * 37), s, d, bytes, i);
            }
            let dels = drain(&mut net);
            assert_eq!(dels.len(), 200);
            let mut parts = net.finish();
            assert!(parts.audit_report().expect("audit on").is_clean());
            runs.push(dels);
        }
        for r in &runs[1..] {
            assert_eq!(&runs[0], r, "worker count changed results");
        }
    }

    #[test]
    fn merged_metrics_conserve_traffic_and_obs_merges() {
        let mut net = sharded(3, false, true);
        let nodes = net.topology().config().total_nodes();
        let net_channels = net.topology().channel_count();
        for i in 0..nodes {
            net.send(
                Ns::ZERO,
                NodeId(i),
                NodeId((i + 17) % nodes),
                4096,
                i as u64,
            );
        }
        let dels = drain(&mut net);
        assert_eq!(dels.len(), nodes as usize);
        let mut parts = net.finish();
        let metrics = parts.metrics();
        let traffic: u64 = metrics.channels().map(|c| c.traffic_bytes).sum();
        assert!(traffic >= 2 * 4096 * nodes as u64, "traffic {traffic}");
        // A replica mutates only channels its group owns, so it holds
        // records just for the runs where its own channels moved traffic.
        let mut runs: Vec<(usize, usize)> = metrics
            .channels()
            .filter(|c| c.traffic_bytes > 0)
            .map(|c| (owner_group(&parts.topo, c.id), c.id.index() / RUN_LEN))
            .collect();
        runs.sort_unstable();
        runs.dedup();
        let footprint = metrics.footprint();
        assert_eq!(footprint.records, RUN_LEN * runs.len());
        assert_eq!(footprint.channels, net_channels);
        let events = parts.events();
        let obs = parts.obs_report().expect("obs on");
        assert_eq!(obs.profile.total_events(), events);
        assert!(obs.vc_occupancy.readings > 0);
    }

    #[test]
    fn wakeups_fire_in_order_with_deliveries_available() {
        let mut net = sharded(2, false, false);
        net.schedule_wakeup(Ns(100));
        net.schedule_wakeup(Ns(5_000));
        net.send(Ns::ZERO, NodeId(0), NodeId(1), 256, 1);
        let mut wakeups = 0;
        let mut deliveries = 0;
        let mut last = Ns::ZERO;
        while let Some(ev) = net.poll() {
            assert!(net.now() >= last, "cursor went backwards");
            last = net.now();
            match ev {
                NetworkEvent::Wakeup => wakeups += 1,
                NetworkEvent::Delivery(_) => deliveries += 1,
            }
        }
        assert_eq!((wakeups, deliveries), (2, 1));
        net.finish();
    }

    #[test]
    fn drained_network_polls_none_and_again() {
        let mut net = sharded(2, true, false);
        assert!(net.poll().is_none(), "fresh network is drained");
        net.send(Ns::ZERO, NodeId(3), NodeId(60), 1, 9);
        assert_eq!(drain(&mut net).len(), 1);
        assert!(net.poll().is_none());
        let mut parts = net.finish();
        assert!(parts.audit_report().expect("audit on").is_clean());
    }
}
