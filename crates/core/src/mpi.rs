//! The MPI-like rank execution engine.
//!
//! Replays [`JobTrace`]s over the network: each rank walks its phases in
//! order, entering phase `p+1` only when (a) every send it issued in phase
//! `p` has been delivered and (b) every message addressed to it in phase
//! `p` has arrived. This reproduces the dependency structure of DUMPI
//! trace replay with computation delays stripped (paper Section III-A).
//!
//! The per-rank **communication time** — the paper's headline metric — is
//! the time at which the rank's last phase completes, since every rank
//! starts at t=0 and compute time is ignored.
//!
//! One job engine holds that state machine, the node → (slot, rank) owner
//! table and the event-tag layout. [`MultiDriver`] (jobs pre-placed at
//! t=0, open-loop background traffic, load sampling) and
//! [`crate::service::ServiceSim`] (a queued, admitted, recycled job stream)
//! are front-ends over it.

use dfly_engine::{Bytes, Ns};
use dfly_network::{Delivery, MessageId, Network, NetworkEvent, ShardedNetwork};
use dfly_topology::NodeId;
use dfly_workloads::{BackgroundTraffic, JobTrace};
use std::borrow::Cow;
use std::ops::Range;

/// The network surface the rank engine drives. Implemented by the serial
/// [`Network`] and the sharded PDES [`ShardedNetwork`]; the drivers are
/// generic so a run switches execution modes without touching replay
/// logic.
pub trait DriverNet {
    /// Queue a message for injection at (or after) `at`.
    fn send(&mut self, at: Ns, src: NodeId, dst: NodeId, bytes: Bytes, tag: u64) -> MessageId;
    /// Advance to the next delivery or wakeup; `None` when drained.
    fn poll(&mut self) -> Option<NetworkEvent>;
    /// Current driver-visible simulated time.
    fn now(&self) -> Ns;
    /// Request a [`NetworkEvent::Wakeup`] at absolute time `at`.
    fn schedule_wakeup(&mut self, at: Ns);
    /// Packets a message of `bytes` segments into.
    fn packets_for(&self, bytes: Bytes) -> u64;
    /// Nodes in the machine.
    fn total_nodes(&self) -> u32;
    /// Bytes currently queued in channel buffers.
    fn total_queued_bytes(&self) -> Bytes;
    /// Packets injected but not yet delivered.
    fn packets_in_flight(&self) -> usize;
}

/// Both engines expose the surface under the same inherent names.
macro_rules! impl_driver_net {
    ($($net:ty),*) => {$(
        impl DriverNet for $net {
            fn send(
                &mut self,
                at: Ns,
                src: NodeId,
                dst: NodeId,
                bytes: Bytes,
                tag: u64,
            ) -> MessageId {
                <$net>::send(self, at, src, dst, bytes, tag)
            }
            fn poll(&mut self) -> Option<NetworkEvent> {
                <$net>::poll(self)
            }
            fn now(&self) -> Ns {
                <$net>::now(self)
            }
            fn schedule_wakeup(&mut self, at: Ns) {
                <$net>::schedule_wakeup(self, at)
            }
            fn packets_for(&self, bytes: Bytes) -> u64 {
                self.params().packets_for(bytes)
            }
            fn total_nodes(&self) -> u32 {
                self.topology().config().total_nodes()
            }
            fn total_queued_bytes(&self) -> Bytes {
                <$net>::total_queued_bytes(self)
            }
            fn packets_in_flight(&self) -> usize {
                <$net>::packets_in_flight(self)
            }
        }
    )*};
}

impl_driver_net!(Network, ShardedNetwork);

/// Rank field width of an app-message tag (bits `[23:0]`).
pub const RANK_BITS: u32 = 24;
/// Phase field shift (bits `[47:24]`).
pub const PHASE_SHIFT: u32 = RANK_BITS;
/// Job-slot field shift (bits `[63:48]`).
pub const JOB_SHIFT: u32 = 48;
/// Largest rank count a job may have (24-bit rank field).
pub const MAX_RANKS: u32 = (1 << RANK_BITS) - 1;
/// Largest phase count a trace may have (24-bit phase field).
pub const MAX_PHASES: usize = (1 << (JOB_SHIFT - PHASE_SHIFT)) - 1;
/// Concurrent job-slot budget (16-bit job field). Slots are recycled on
/// completion, so this bounds *simultaneously running* jobs — a stream may
/// be arbitrarily long.
pub const JOB_SLOTS: usize = 1 << (u64::BITS - JOB_SHIFT);

const RANK_MASK: u64 = (1 << RANK_BITS) - 1;
const PHASE_MASK: u64 = (1 << (JOB_SHIFT - PHASE_SHIFT)) - 1;
/// A `node_owner` entry no job holds. Entries pack `slot + 1` above the
/// rank, so "no owner" is all-zero bits and the table's untouched pages
/// are never made resident.
const NO_OWNER: u64 = 0;

/// Outcome of one job in a run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Per-rank communication time (completion of the rank's last phase).
    pub rank_comm_time: Vec<Ns>,
    /// Per-rank average packet hops (router-to-router traversals),
    /// averaged over all packets the rank sent.
    pub rank_avg_hops: Vec<f64>,
    /// Time the job finished.
    pub job_end: Ns,
    /// Background messages injected during the run (whole-run total,
    /// reported on every job of the run).
    pub background_messages: u64,
}

impl JobResult {
    /// The slowest rank's communication time (Figure 7's metric).
    pub fn max_comm_time(&self) -> Ns {
        self.rank_comm_time
            .iter()
            .copied()
            .max()
            .unwrap_or(Ns::ZERO)
    }

    /// Per-rank communication times in fractional milliseconds.
    pub fn comm_times_ms(&self) -> Vec<f64> {
        self.rank_comm_time.iter().map(|t| t.as_ms_f64()).collect()
    }
}

struct RankState {
    phase: usize,
    outstanding_sends: u32,
    /// Messages per phase still to arrive.
    recvs_left: Vec<u32>,
    finished_at: Option<Ns>,
    hops_weighted: f64,
    packets_sent: u64,
}

/// One job in a [`JobEngine`] slot, with the front-end's own record
/// `meta`. Trace and placement are borrowed or owned, never copied.
pub(crate) struct Job<'a, M> {
    pub(crate) trace: Cow<'a, JobTrace>,
    pub(crate) placement: Cow<'a, [NodeId]>,
    pub(crate) meta: M,
    ranks: Vec<RankState>,
    unfinished: usize,
}

/// The job engine: a slot table of running jobs plus the node → (slot,
/// rank) owner table that decodes deliveries.
///
/// An app message's tag is `[63:48]` slot, `[47:24]` phase, `[23:0]`
/// sending rank. A delivery to a node no job owns is background traffic:
/// nobody waits on it.
pub(crate) struct JobEngine<'a, M> {
    slots: Vec<Option<Job<'a, M>>>,
    free_slots: Vec<u32>,
    node_owner: Vec<u64>,
}

impl<'a, M> JobEngine<'a, M> {
    /// An empty engine for a machine of `total_nodes` nodes.
    pub(crate) fn new(total_nodes: u32) -> JobEngine<'a, M> {
        JobEngine {
            slots: Vec::new(),
            free_slots: Vec::new(),
            node_owner: vec![NO_OWNER; total_nodes as usize],
        }
    }

    /// Install a job in a free slot (the most recently freed one, else a
    /// new one) and claim its nodes. Its ranks stay idle until
    /// [`JobEngine::launch`].
    pub(crate) fn insert(
        &mut self,
        trace: Cow<'a, JobTrace>,
        placement: Cow<'a, [NodeId]>,
        meta: M,
    ) -> u32 {
        let ranks = trace.ranks();
        assert_eq!(
            ranks as usize,
            placement.len(),
            "placement size must equal rank count"
        );
        trace.validate().expect("invalid trace");
        assert!(
            ranks <= MAX_RANKS && trace.phase_count() <= MAX_PHASES,
            "job of {ranks} ranks and {} phases exceeds the tag fields",
            trace.phase_count()
        );
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                assert!(self.slots.len() < JOB_SLOTS, "job slots exhausted");
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        for (rank, &node) in placement.iter().enumerate() {
            let owner = &mut self.node_owner[node.index()];
            assert_eq!(*owner, NO_OWNER, "node {node} assigned twice");
            *owner = (u64::from(slot) + 1) << 32 | rank as u64;
        }
        let job = Job {
            ranks: trace
                .recv_counts()
                .into_iter()
                .map(|recvs_left| RankState {
                    phase: 0,
                    outstanding_sends: 0,
                    recvs_left,
                    finished_at: None,
                    hops_weighted: 0.0,
                    packets_sent: 0,
                })
                .collect(),
            unfinished: ranks as usize,
            trace,
            placement,
            meta,
        };
        self.slots[slot as usize] = Some(job);
        slot
    }

    /// Start the jobs in `slots`: every rank's phase-0 sends go out first,
    /// then every rank advances through whatever is already complete.
    pub(crate) fn launch<N: DriverNet>(&mut self, net: &mut N, slots: Range<u32>, now: Ns) {
        for slot in slots.clone() {
            for rank in 0..self.job(slot).trace.ranks() {
                self.issue_phase(net, slot, rank, now);
            }
        }
        for slot in slots {
            for rank in 0..self.job(slot).trace.ranks() {
                self.advance(net, slot, rank, now);
            }
        }
    }

    /// Account a delivery to its sender and receiver and advance both.
    /// Returns the job's slot, or `None` for background traffic.
    pub(crate) fn deliver<N: DriverNet>(&mut self, net: &mut N, d: &Delivery) -> Option<u32> {
        let owner = self.node_owner[d.dst.index()];
        if owner == NO_OWNER {
            return None;
        }
        let (slot, dst_rank) = ((owner >> 32) as u32 - 1, owner as u32);
        let now = net.now();
        let phase = ((d.tag >> PHASE_SHIFT) & PHASE_MASK) as usize;
        let src_rank = (d.tag & RANK_MASK) as u32;
        debug_assert_eq!((d.tag >> JOB_SHIFT) as u32, slot, "delivery crossed jobs");
        let packets = net.packets_for(d.bytes);
        let job = self.job_mut(slot);
        let s = &mut job.ranks[src_rank as usize];
        s.hops_weighted += d.avg_hops * packets as f64;
        s.packets_sent += packets;
        debug_assert_eq!(s.phase, phase, "send completed outside its phase");
        s.outstanding_sends -= 1;
        job.ranks[dst_rank as usize].recvs_left[phase] -= 1;
        self.advance(net, slot, src_rank, now);
        if dst_rank != src_rank {
            self.advance(net, slot, dst_rank, now);
        }
        Some(slot)
    }

    /// True once every rank of the job in `slot` has finished.
    pub(crate) fn is_done(&self, slot: u32) -> bool {
        self.job(slot).unfinished == 0
    }

    /// Jobs currently holding a slot.
    pub(crate) fn occupied(&self) -> usize {
        self.slots.len() - self.free_slots.len()
    }

    /// Slots ever materialized — the state high-water mark.
    pub(crate) fn slots_materialized(&self) -> usize {
        self.slots.len()
    }

    /// Whether [`JobEngine::insert`] can claim a slot.
    pub(crate) fn has_free_slot(&self) -> bool {
        !self.free_slots.is_empty() || self.slots.len() < JOB_SLOTS
    }

    /// Whether a job owns `node`.
    pub(crate) fn owns(&self, node: NodeId) -> bool {
        self.node_owner[node.index()] != NO_OWNER
    }

    /// Jobs holding a slot.
    pub(crate) fn jobs_mut(&mut self) -> impl Iterator<Item = &mut Job<'a, M>> {
        self.slots.iter_mut().flatten()
    }

    /// Free `slot` and its nodes, handing back the job.
    pub(crate) fn remove(&mut self, slot: u32) -> Job<'a, M> {
        let job = self.slots[slot as usize]
            .take()
            .expect("removing an empty slot");
        for &n in job.placement.iter() {
            self.node_owner[n.index()] = NO_OWNER;
        }
        self.free_slots.push(slot);
        job
    }

    /// Per-rank results of the (finished) job in `slot`.
    pub(crate) fn result(&self, slot: u32, background_messages: u64) -> JobResult {
        let ranks = &self.job(slot).ranks;
        let rank_comm_time: Vec<Ns> = ranks
            .iter()
            .map(|r| r.finished_at.expect("all ranks finished"))
            .collect();
        JobResult {
            // A rank that sent nothing has no hops: 0 / 1.
            rank_avg_hops: ranks
                .iter()
                .map(|r| r.hops_weighted / r.packets_sent.max(1) as f64)
                .collect(),
            job_end: rank_comm_time.iter().copied().max().unwrap_or(Ns::ZERO),
            rank_comm_time,
            background_messages,
        }
    }

    fn job(&self, slot: u32) -> &Job<'a, M> {
        self.slots[slot as usize].as_ref().expect("vacant job slot")
    }

    fn job_mut(&mut self, slot: u32) -> &mut Job<'a, M> {
        self.slots[slot as usize].as_mut().expect("vacant job slot")
    }

    fn issue_phase<N: DriverNet>(&mut self, net: &mut N, slot: u32, rank: u32, now: Ns) {
        let job = self.job_mut(slot);
        let phase = job.ranks[rank as usize].phase;
        let Some(ph) = job.trace.programs[rank as usize].phases.get(phase) else {
            return;
        };
        job.ranks[rank as usize].outstanding_sends = ph.sends.len() as u32;
        let src = job.placement[rank as usize];
        let tag = ((slot as u64) << JOB_SHIFT) | ((phase as u64) << PHASE_SHIFT) | rank as u64;
        for s in &ph.sends {
            net.send(now, src, job.placement[s.peer as usize], s.bytes, tag);
        }
    }

    /// Advance the rank through any phases that are already complete.
    fn advance<N: DriverNet>(&mut self, net: &mut N, slot: u32, rank: u32, now: Ns) {
        loop {
            let job = self.job_mut(slot);
            let total = job.trace.programs[rank as usize].phases.len();
            let state = &mut job.ranks[rank as usize];
            if state.finished_at.is_some() {
                return;
            }
            let phase = state.phase;
            if phase < total {
                if state.outstanding_sends > 0 || state.recvs_left[phase] > 0 {
                    return;
                }
                // Phase complete: move on.
                state.phase = phase + 1;
            }
            if state.phase >= total {
                state.finished_at = Some(now);
                job.unfinished -= 1;
                return;
            }
            self.issue_phase(net, slot, rank, now);
        }
    }
}

/// Background injection state: a synthetic job occupying a node set.
pub struct BackgroundRunner {
    traffic: BackgroundTraffic,
    nodes: Vec<NodeId>,
    injected_until: Ns,
    window: Ns,
    messages: u64,
}

impl BackgroundRunner {
    /// Background traffic over the given (non-empty) node set.
    pub fn new(traffic: BackgroundTraffic, nodes: Vec<NodeId>) -> BackgroundRunner {
        assert!(nodes.len() >= 2, "background job needs >= 2 nodes");
        let window = traffic.spec().interval.max(Ns::from_us(200));
        BackgroundRunner {
            traffic,
            nodes,
            injected_until: Ns::ZERO,
            window,
            messages: 0,
        }
    }

    /// Inject the next window of messages; returns the time of the next
    /// refill.
    fn refill<N: DriverNet>(
        &mut self,
        net: &mut N,
        scratch: &mut Vec<dfly_workloads::BgMessage>,
    ) -> Ns {
        let from = self.injected_until;
        let to = from + self.window;
        scratch.clear();
        self.traffic.batch(from, to, scratch);
        for m in scratch.iter() {
            net.send(
                m.at,
                self.nodes[m.src_index as usize],
                self.nodes[m.dst_index as usize],
                m.bytes,
                self.messages,
            );
            self.messages += 1;
        }
        self.injected_until = to;
        to
    }
}

/// A sampled time series of instantaneous network load, recorded through
/// periodic wakeups (see [`MultiDriver::with_sampler`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadSeries {
    /// Sample timestamps.
    pub times: Vec<Ns>,
    /// Bytes queued in channel buffers at each sample.
    pub queued_bytes: Vec<u64>,
    /// Packets alive (injected, not yet delivered) at each sample.
    pub packets_in_flight: Vec<u64>,
}

impl LoadSeries {
    /// Peak queued bytes over the run.
    pub fn peak_queued(&self) -> u64 {
        self.queued_bytes.iter().copied().max().unwrap_or(0)
    }

    /// The queued-bytes series as f64 (for sparklines/CSV).
    pub fn queued_f64(&self) -> Vec<f64> {
        self.queued_bytes.iter().map(|&b| b as f64).collect()
    }
}

struct Sampler {
    interval: Ns,
    next: Ns,
    series: LoadSeries,
}

/// Drives any number of traced jobs (plus optional open-loop background
/// traffic) to completion on one shared network.
pub struct MultiDriver<'a, N: DriverNet = Network> {
    net: &'a mut N,
    engine: JobEngine<'a, ()>,
    background: Option<BackgroundRunner>,
    bg_scratch: Vec<dfly_workloads::BgMessage>,
    sampler: Option<Sampler>,
}

impl<'a, N: DriverNet> MultiDriver<'a, N> {
    /// Set up a driver over `jobs`: each entry is a trace plus the node
    /// each of its ranks runs on. Node sets must be disjoint, from each
    /// other and from the background's.
    pub fn new(
        net: &'a mut N,
        jobs: &[(&'a JobTrace, &'a [NodeId])],
        background: Option<BackgroundRunner>,
    ) -> MultiDriver<'a, N> {
        assert!(!jobs.is_empty(), "need at least one job");
        let mut engine = JobEngine::new(net.total_nodes());
        for &(trace, placement) in jobs {
            engine.insert(Cow::Borrowed(trace), Cow::Borrowed(placement), ());
        }
        let shared = background
            .iter()
            .flat_map(|bg| &bg.nodes)
            .find(|&&n| engine.owns(n));
        assert!(
            shared.is_none(),
            "background node {shared:?} overlaps a job"
        );
        MultiDriver {
            net,
            engine,
            background,
            bg_scratch: Vec::new(),
            sampler: None,
        }
    }

    /// Record a [`LoadSeries`] sample of the network every `interval`
    /// while the run progresses. Retrieve it with
    /// [`MultiDriver::run_with_series`].
    pub fn with_sampler(mut self, interval: Ns) -> Self {
        assert!(interval > Ns::ZERO, "sampling interval must be positive");
        self.sampler = Some(Sampler {
            interval,
            next: Ns::ZERO,
            series: LoadSeries::default(),
        });
        self
    }

    /// Run all jobs to completion; results in job order.
    pub fn run(self) -> Vec<JobResult> {
        self.run_with_series().0
    }

    /// Run all jobs to completion, also returning the sampled load series
    /// (empty unless [`MultiDriver::with_sampler`] was used).
    pub fn run_with_series(mut self) -> (Vec<JobResult>, LoadSeries) {
        let jobs = self.engine.occupied() as u32;
        self.engine.launch(self.net, 0..jobs, Ns::ZERO);
        if self.background.is_some() {
            self.refill_background();
        }
        if let Some(s) = &self.sampler {
            self.net.schedule_wakeup(s.next);
        }

        while (0..jobs).any(|slot| !self.engine.is_done(slot)) {
            match self.net.poll() {
                Some(NetworkEvent::Delivery(d)) => {
                    self.engine.deliver(self.net, &d);
                }
                Some(NetworkEvent::Wakeup) => self.on_wakeup(),
                None => {
                    panic!("network drained with unfinished ranks — dependency deadlock in trace")
                }
            }
        }

        let bg_messages = self.background.as_ref().map_or(0, |b| b.messages);
        let results = (0..jobs)
            .map(|slot| self.engine.result(slot, bg_messages))
            .collect();
        let series = self.sampler.map(|s| s.series).unwrap_or_default();
        (results, series)
    }

    /// Background refills and load samples share the wakeup channel; each
    /// fires only when its own deadline has passed (wakeups meant for the
    /// other are harmless no-ops).
    fn on_wakeup(&mut self) {
        let now = self.net.now();
        if self
            .background
            .as_ref()
            .is_some_and(|bg| now >= bg.injected_until)
        {
            self.refill_background();
        }
        let due = self.sampler.as_ref().is_some_and(|s| now >= s.next);
        if due {
            let queued = self.net.total_queued_bytes();
            let in_flight = self.net.packets_in_flight() as u64;
            let s = self.sampler.as_mut().expect("sampler checked above");
            s.series.times.push(now);
            s.series.queued_bytes.push(queued);
            s.series.packets_in_flight.push(in_flight);
            s.next = now + s.interval;
            self.net.schedule_wakeup(s.next);
        }
    }

    fn refill_background(&mut self) {
        let Some(bg) = self.background.as_mut() else {
            return;
        };
        let next = bg.refill(self.net, &mut self.bg_scratch);
        self.net.schedule_wakeup(next);
    }
}

/// Drives a single job — thin wrapper over [`MultiDriver`] kept for the
/// common case.
pub struct MpiDriver<'a, N: DriverNet = Network> {
    inner: MultiDriver<'a, N>,
}

impl<'a, N: DriverNet> MpiDriver<'a, N> {
    /// Set up a driver. `placement[rank]` is the node rank runs on.
    pub fn new(
        net: &'a mut N,
        trace: &'a JobTrace,
        placement: &'a [NodeId],
        background: Option<BackgroundRunner>,
    ) -> MpiDriver<'a, N> {
        MpiDriver {
            inner: MultiDriver::new(net, &[(trace, placement)], background),
        }
    }

    /// Run the job to completion.
    pub fn run(self) -> JobResult {
        self.inner
            .run()
            .into_iter()
            .next()
            .expect("exactly one job")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfly_network::{NetworkParams, Routing};
    use dfly_topology::{Topology, TopologyConfig};
    use dfly_workloads::{
        generate, AppKind, BackgroundSpec, Phase, RankProgram, SendOp, WorkloadSpec,
    };
    use std::sync::Arc;

    fn network(routing: Routing) -> Network {
        let topo = Arc::new(Topology::build(TopologyConfig::small_test()));
        Network::new(topo, NetworkParams::default(), routing, 99)
    }

    fn contiguous(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn two_rank_pingpong() {
        let trace = JobTrace {
            programs: vec![
                RankProgram {
                    phases: vec![
                        Phase {
                            sends: vec![SendOp {
                                peer: 1,
                                bytes: 4096,
                            }],
                        },
                        Phase { sends: vec![] }, // waits for the reply
                    ],
                },
                RankProgram {
                    phases: vec![
                        Phase { sends: vec![] }, // waits for rank 0's message
                        Phase {
                            sends: vec![SendOp {
                                peer: 0,
                                bytes: 4096,
                            }],
                        },
                    ],
                },
            ],
        };
        let mut net = network(Routing::Minimal);
        let placement = contiguous(2);
        let result = MpiDriver::new(&mut net, &trace, &placement, None).run();
        assert_eq!(result.rank_comm_time.len(), 2);
        assert!(result.rank_comm_time[0] >= result.rank_comm_time[1]);
        assert!(result.job_end > Ns::ZERO);
        assert_eq!(result.background_messages, 0);
    }

    #[test]
    fn dependency_serializes_phases() {
        // One rank sends a chain through 3 peers; each phase must wait for
        // the previous, so total time ~3x one-hop time.
        let chain = JobTrace {
            programs: vec![
                RankProgram {
                    phases: vec![Phase {
                        sends: vec![SendOp {
                            peer: 1,
                            bytes: 100_000,
                        }],
                    }],
                },
                RankProgram {
                    phases: vec![
                        Phase { sends: vec![] },
                        Phase {
                            sends: vec![SendOp {
                                peer: 2,
                                bytes: 100_000,
                            }],
                        },
                    ],
                },
                RankProgram {
                    phases: vec![Phase { sends: vec![] }, Phase { sends: vec![] }],
                },
            ],
        };
        let single = JobTrace {
            programs: vec![
                RankProgram {
                    phases: vec![Phase {
                        sends: vec![SendOp {
                            peer: 1,
                            bytes: 100_000,
                        }],
                    }],
                },
                RankProgram {
                    phases: vec![Phase { sends: vec![] }],
                },
                RankProgram { phases: vec![] },
            ],
        };
        let mut net = network(Routing::Minimal);
        let p = contiguous(3);
        let chained = MpiDriver::new(&mut net, &chain, &p, None).run();
        let mut net2 = network(Routing::Minimal);
        let one = MpiDriver::new(&mut net2, &single, &p, None).run();
        assert!(
            chained.job_end.as_nanos() > (one.job_end.as_nanos() * 3) / 2,
            "chain {} vs single {}",
            chained.job_end,
            one.job_end
        );
    }

    #[test]
    fn empty_programs_finish_at_zero() {
        let trace = JobTrace {
            programs: vec![RankProgram::default(), RankProgram::default()],
        };
        let mut net = network(Routing::Minimal);
        let p = contiguous(2);
        let r = MpiDriver::new(&mut net, &trace, &p, None).run();
        assert_eq!(r.rank_comm_time, vec![Ns::ZERO, Ns::ZERO]);
        assert_eq!(r.job_end, Ns::ZERO);
    }

    #[test]
    fn full_cr_app_runs_on_small_machine() {
        let trace = generate(&WorkloadSpec {
            kind: AppKind::CrystalRouter,
            ranks: 32,
            msg_scale: 0.1,
            seed: 5,
        });
        let mut net = network(Routing::Adaptive);
        let p = contiguous(32);
        let r = MpiDriver::new(&mut net, &trace, &p, None).run();
        assert!(r.job_end > Ns::ZERO);
        assert_eq!(r.rank_comm_time.len(), 32);
        assert!(r.rank_comm_time.iter().all(|&t| t > Ns::ZERO));
        assert!(r.rank_avg_hops.iter().all(|&h| (0.0..=10.0).contains(&h)));
        assert!(r.rank_avg_hops.iter().any(|&h| h > 0.0));
    }

    #[test]
    fn all_three_apps_complete() {
        for kind in [AppKind::CrystalRouter, AppKind::FillBoundary, AppKind::Amg] {
            let trace = generate(&WorkloadSpec {
                kind,
                ranks: 27,
                msg_scale: 0.05,
                seed: 6,
            });
            let mut net = network(Routing::Minimal);
            let p = contiguous(27);
            let r = MpiDriver::new(&mut net, &trace, &p, None).run();
            assert!(r.job_end > Ns::ZERO, "{kind:?}");
        }
    }

    #[test]
    fn placement_affects_comm_time() {
        let trace = generate(&WorkloadSpec {
            kind: AppKind::Amg,
            ranks: 27,
            msg_scale: 1.0,
            seed: 8,
        });
        let run = |placement: Vec<NodeId>| {
            let mut net = network(Routing::Minimal);
            MpiDriver::new(&mut net, &trace, &placement, None).run()
        };
        let cont = run(contiguous(27));
        let spread: Vec<NodeId> = (0..27).map(|i| NodeId(i * 2)).collect();
        let scattered = run(spread);
        assert_ne!(cont.job_end, scattered.job_end);
    }

    #[test]
    fn background_traffic_slows_the_app() {
        let trace = generate(&WorkloadSpec {
            kind: AppKind::Amg,
            ranks: 8,
            msg_scale: 1.0,
            seed: 4,
        });
        let placement = contiguous(8);
        let mut quiet_net = network(Routing::Adaptive);
        let quiet = MpiDriver::new(&mut quiet_net, &trace, &placement, None).run();

        let mut noisy_net = network(Routing::Adaptive);
        let bg_nodes: Vec<NodeId> = (8..64).map(NodeId).collect();
        let bg = BackgroundRunner::new(
            BackgroundTraffic::new(
                BackgroundSpec::uniform(64 * 1024, Ns::from_us(2), 77),
                bg_nodes.len() as u32,
            ),
            bg_nodes,
        );
        let noisy = MpiDriver::new(&mut noisy_net, &trace, &placement, Some(bg)).run();
        assert!(noisy.background_messages > 0);
        assert!(
            noisy.job_end > quiet.job_end,
            "background should slow the app: {} vs {}",
            noisy.job_end,
            quiet.job_end
        );
    }

    #[test]
    fn deterministic_end_to_end() {
        let trace = generate(&WorkloadSpec {
            kind: AppKind::FillBoundary,
            ranks: 27,
            msg_scale: 0.2,
            seed: 12,
        });
        let run = || {
            let mut net = network(Routing::Adaptive);
            let p = contiguous(27);
            MpiDriver::new(&mut net, &trace, &p, None).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "placement size")]
    fn placement_arity_checked() {
        let trace = JobTrace {
            programs: vec![RankProgram::default(); 3],
        };
        let mut net = network(Routing::Minimal);
        let p = contiguous(2);
        let _ = MpiDriver::new(&mut net, &trace, &p, None);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn duplicate_node_rejected() {
        let trace = JobTrace {
            programs: vec![RankProgram::default(); 2],
        };
        let mut net = network(Routing::Minimal);
        let p = vec![NodeId(0), NodeId(0)];
        let _ = MpiDriver::new(&mut net, &trace, &p, None);
    }

    // ----- multi-job -------------------------------------------------------

    #[test]
    fn two_jobs_run_concurrently_and_interfere() {
        let cr = generate(&WorkloadSpec {
            kind: AppKind::CrystalRouter,
            ranks: 16,
            msg_scale: 0.5,
            seed: 31,
        });
        let amg = generate(&WorkloadSpec {
            kind: AppKind::Amg,
            ranks: 16,
            msg_scale: 1.0,
            seed: 32,
        });
        // Interleave the two jobs on even/odd nodes so they genuinely
        // share routers and links (contiguous separate groups would be
        // perfectly isolated and show no interference at all).
        let p_cr: Vec<NodeId> = (0..16).map(|i| NodeId(i * 2)).collect();
        let p_amg: Vec<NodeId> = (0..16).map(|i| NodeId(i * 2 + 1)).collect();

        // Isolated AMG baseline.
        let mut solo_net = network(Routing::Adaptive);
        let solo = MpiDriver::new(&mut solo_net, &amg, &p_amg, None).run();

        // Co-run with CR.
        let mut net = network(Routing::Adaptive);
        let results = MultiDriver::new(&mut net, &[(&cr, &p_cr), (&amg, &p_amg)], None).run();
        assert_eq!(results.len(), 2);
        assert!(results[0].job_end > Ns::ZERO);
        assert!(results[1].job_end > Ns::ZERO);
        // The communication-heavy CR bullies AMG: co-run AMG is slower
        // than isolated AMG.
        assert!(
            results[1].job_end > solo.job_end,
            "co-run AMG {} should exceed solo {}",
            results[1].job_end,
            solo.job_end
        );
    }

    #[test]
    fn multi_job_results_independent_of_listing_order_for_disjoint_apps() {
        // Two identical jobs on disjoint far-apart node sets still share
        // the network; results must be deterministic and per-job.
        let t1 = generate(&WorkloadSpec {
            kind: AppKind::Amg,
            ranks: 8,
            msg_scale: 0.5,
            seed: 41,
        });
        let p1 = contiguous(8);
        let p2: Vec<NodeId> = (32..40).map(NodeId).collect();
        let mut net = network(Routing::Minimal);
        let r = MultiDriver::new(&mut net, &[(&t1, &p1), (&t1, &p2)], None).run();
        assert_eq!(r[0].rank_comm_time.len(), 8);
        assert_eq!(r[1].rank_comm_time.len(), 8);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn multi_job_overlapping_placements_rejected() {
        let t = JobTrace {
            programs: vec![RankProgram::default(); 2],
        };
        let mut net = network(Routing::Minimal);
        let p1 = vec![NodeId(0), NodeId(1)];
        let p2 = vec![NodeId(1), NodeId(2)];
        let _ = MultiDriver::new(&mut net, &[(&t, &p1), (&t, &p2)], None);
    }

    #[test]
    fn sampler_records_load_series() {
        let trace = generate(&WorkloadSpec {
            kind: AppKind::FillBoundary,
            ranks: 16,
            msg_scale: 0.5,
            seed: 71,
        });
        let p = contiguous(16);
        let mut net = network(Routing::Minimal);
        let (results, series) = MultiDriver::new(&mut net, &[(&trace, &p)], None)
            .with_sampler(Ns::from_us(5))
            .run_with_series();
        assert_eq!(results.len(), 1);
        assert!(
            series.times.len() >= 2,
            "too few samples: {}",
            series.times.len()
        );
        // Timestamps are strictly increasing and spaced by >= interval.
        for w in series.times.windows(2) {
            assert!(w[1] >= w[0] + Ns::from_us(5));
        }
        // Load was actually observed.
        assert!(series.peak_queued() > 0);
        assert_eq!(series.times.len(), series.queued_bytes.len());
        assert_eq!(series.times.len(), series.packets_in_flight.len());
    }

    #[test]
    fn run_without_sampler_returns_empty_series() {
        let trace = JobTrace {
            programs: vec![RankProgram::default(); 2],
        };
        let p = contiguous(2);
        let mut net = network(Routing::Minimal);
        let (_, series) = MultiDriver::new(&mut net, &[(&trace, &p)], None).run_with_series();
        assert!(series.times.is_empty());
    }

    #[test]
    #[should_panic(expected = "overlaps a job")]
    fn background_overlapping_a_job_rejected() {
        // Deliveries to nodes no job owns are background traffic, so the
        // two node sets must be disjoint.
        let trace = JobTrace {
            programs: vec![RankProgram::default(); 2],
        };
        let p = contiguous(2);
        let bg_nodes: Vec<NodeId> = (1..8).map(NodeId).collect();
        let bg = BackgroundRunner::new(
            BackgroundTraffic::new(
                BackgroundSpec::uniform(1024, Ns::from_us(2), 1),
                bg_nodes.len() as u32,
            ),
            bg_nodes,
        );
        let mut net = network(Routing::Minimal);
        let _ = MpiDriver::new(&mut net, &trace, &p, Some(bg));
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn multi_job_needs_jobs() {
        let mut net = network(Routing::Minimal);
        let _ = MultiDriver::new(&mut net, &[], None);
    }
}
