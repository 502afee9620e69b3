//! Service mode: a continuous multi-tenant scheduler driven incrementally.
//!
//! Where [`crate::multijob`] runs a fixed set of jobs from t=0, this
//! module is the datacenter-operator loop the paper motivates: an open
//! stream of jobs arrives over hours of simulated time, an admission
//! policy decides *when* each starts, a placement policy — optionally
//! [`crate::recommend`] fed live congestion telemetry — decides *where*,
//! and per-tenant SLO statistics fall out the other end.
//!
//! [`ServiceSim`] is a front-end over the rank engine of [`crate::mpi`]
//! (the same one [`crate::mpi::MultiDriver`] uses), on any [`DriverNet`]
//! (serial [`Network`] or the sharded PDES engine). It owns the queue,
//! admission, the node pool, placement, outcome records and slot
//! recycling: finished jobs retire into compact [`ServiceOutcome`]
//! records, so memory is bounded by *concurrent* jobs, not stream length.
//! `step_until` advances simulated time in bounded increments and
//! `submit` injects jobs mid-run, so a driver can interleave simulation
//! with decision-making. The batch entry point [`run_service`] (and
//! [`crate::scheduler::run_schedule`] over it) is itself a client of that
//! incremental API: it steps to each arrival and injects.

use crate::config::{AppSelection, Parallelism, RoutingPolicy, SeedStreams};
use crate::mpi::{DriverNet, JobEngine, JOB_SHIFT, MAX_PHASES, MAX_RANKS, PHASE_SHIFT, RANK_BITS};
use crate::recommend::{recommend, CommIntensity};
use dfly_engine::{Bytes, Ns, Xoshiro256};
use dfly_network::{AuditReport, Network, NetworkEvent, NetworkParams, ObsReport, ShardedNetwork};
use dfly_placement::{NodePool, PlacementPolicy};
use dfly_stats::percentile;
use dfly_topology::{GroupId, Topology, TopologyConfig};
use dfly_workloads::{
    check_msg_scale, generate, generate_pattern, Arrival, ArrivalKind, JobTrace, Pattern,
    PatternSpec,
};
use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// What a service job runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceWorkload {
    /// A traced miniapp.
    App(AppSelection),
    /// A synthetic-pattern job (background tenants in the service mix).
    Pattern {
        /// The pattern.
        pattern: Pattern,
        /// Rank count (>= 2).
        ranks: u32,
        /// Bytes each rank sends per phase before `msg_scale`.
        bytes_per_phase: Bytes,
        /// Phase count.
        phases: u32,
    },
}

impl ServiceWorkload {
    /// Rank count.
    pub fn ranks(&self) -> u32 {
        match *self {
            ServiceWorkload::App(app) => app.ranks(),
            ServiceWorkload::Pattern { ranks, .. } => ranks,
        }
    }

    /// Stable label for CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            ServiceWorkload::App(app) => app.kind().label(),
            ServiceWorkload::Pattern { pattern, .. } => pattern.label(),
        }
    }

    /// Generate the trace.
    fn trace(&self, msg_scale: f64, seed: u64) -> JobTrace {
        match *self {
            ServiceWorkload::App(app) => generate(&app.spec(msg_scale, seed)),
            ServiceWorkload::Pattern {
                pattern,
                ranks,
                bytes_per_phase,
                phases,
            } => generate_pattern(&PatternSpec {
                pattern,
                ranks,
                bytes_per_phase: ((bytes_per_phase as f64 * msg_scale) as Bytes).max(1),
                phases,
                seed,
            }),
        }
    }
}

/// How a service job is placed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementChoice {
    /// Always this policy.
    Fixed(PlacementPolicy),
    /// Ask [`crate::recommend`] at admission time, feeding it the job's
    /// measured [`CommIntensity`] and the live machine state (co-running
    /// jobs and queued-byte congestion seen through the driver surface).
    Recommend,
}

/// One job of the service stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceJob {
    /// What to run.
    pub workload: ServiceWorkload,
    /// How to place it.
    pub placement: PlacementChoice,
    /// Message-size multiplier.
    pub msg_scale: f64,
    /// Tenant the job bills to (groups SLO statistics).
    pub tenant: u32,
    /// User-style runtime estimate (EASY-backfill reservations; jobs are
    /// never killed for exceeding it).
    pub estimate: Ns,
}

impl ServiceJob {
    /// Build a recommend-placed service job from a workload-stream
    /// [`Arrival`].
    pub fn from_arrival(a: &Arrival) -> ServiceJob {
        let workload = match a.kind {
            ArrivalKind::App(kind) => ServiceWorkload::App(AppSelection::new(kind, a.ranks)),
            ArrivalKind::Background(pattern) => ServiceWorkload::Pattern {
                pattern,
                ranks: a.ranks,
                bytes_per_phase: 32 * 1024,
                phases: 4,
            },
        };
        ServiceJob {
            workload,
            placement: PlacementChoice::Recommend,
            msg_scale: a.msg_scale,
            tenant: a.kind.tenant(),
            estimate: a.estimate,
        }
    }

    /// Check the job can run on a machine of `nodes` nodes and fits the
    /// event-tag fields, naming the offending field. [`ServiceSim::submit`]
    /// and both batch configs' `validate` run this one check, so a job
    /// that would fail at admission is rejected up front.
    pub fn validate(&self, nodes: u32) -> Result<(), String> {
        let ranks = self.workload.ranks();
        if ranks == 0 {
            return Err("job needs at least one rank".into());
        }
        if let ServiceWorkload::Pattern { ranks, phases, .. } = self.workload {
            if ranks < 2 {
                return Err("pattern jobs need at least 2 ranks".into());
            }
            if phases == 0 {
                return Err("phases: pattern jobs need at least one phase".into());
            }
            if phases as usize > MAX_PHASES {
                return Err(format!(
                    "phases: {phases} exceed the {}-bit phase tag field",
                    JOB_SHIFT - PHASE_SHIFT
                ));
            }
        }
        if ranks > MAX_RANKS {
            return Err(format!(
                "{ranks} ranks exceed the {RANK_BITS}-bit rank tag field"
            ));
        }
        if ranks > nodes {
            return Err(format!("{ranks} ranks exceed the {nodes}-node machine"));
        }
        check_msg_scale(self.msg_scale)
    }
}

/// A job plus its arrival time (the service analogue of
/// [`crate::scheduler::Submission`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSubmission {
    /// The job.
    pub job: ServiceJob,
    /// When it enters the queue.
    pub arrival: Ns,
}

/// When a queued job is allowed to start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// Strict first-come-first-served: a blocked head blocks everyone.
    Fcfs,
    /// EASY backfill: the head gets a reservation at its projected start
    /// (from runtime estimates); later arrivals may jump ahead if they fit
    /// now and don't push that reservation back.
    EasyBackfill,
    /// EASY backfill plus a congestion gate: no admission while the
    /// network holds more than `max_queued_bytes` in channel buffers (live
    /// telemetry via [`DriverNet::total_queued_bytes`]), so a saturated
    /// fabric drains before new tenants pile on.
    CongestionAware {
        /// Queued-byte threshold above which admission pauses.
        max_queued_bytes: Bytes,
    },
}

impl AdmissionPolicy {
    /// Stable label for CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::Fcfs => "fcfs",
            AdmissionPolicy::EasyBackfill => "easy",
            AdmissionPolicy::CongestionAware { .. } => "congestion",
        }
    }

    /// Parse a `--policy` argument (`fcfs`, `easy`, `congestion` or
    /// `congestion:BYTES`).
    pub fn parse(s: &str) -> Result<AdmissionPolicy, String> {
        match s {
            "fcfs" => Ok(AdmissionPolicy::Fcfs),
            "easy" => Ok(AdmissionPolicy::EasyBackfill),
            "congestion" => Ok(AdmissionPolicy::CongestionAware {
                max_queued_bytes: DEFAULT_CONGESTION_LIMIT,
            }),
            _ => {
                let bytes = s
                    .strip_prefix("congestion:")
                    .ok_or_else(|| {
                        format!("--policy wants fcfs|easy|congestion[:BYTES] (got {s:?})")
                    })?
                    .parse()
                    .map_err(|_| format!("--policy congestion: bad byte limit in {s:?}"))?;
                Ok(AdmissionPolicy::CongestionAware {
                    max_queued_bytes: bytes,
                })
            }
        }
    }
}

/// Default queued-byte gate for [`AdmissionPolicy::CongestionAware`]:
/// 2 MiB ~ a few hundred full channel buffers backed up.
pub const DEFAULT_CONGESTION_LIMIT: Bytes = 2 * 1024 * 1024;

/// Compact record of a finished job — all that outlives completion.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    /// Monotonic job id (submission order).
    pub uid: u64,
    /// Tenant it billed to.
    pub tenant: u32,
    /// Workload label.
    pub label: &'static str,
    /// Rank count.
    pub ranks: u32,
    /// Queue-entry time.
    pub arrival: Ns,
    /// Admission time.
    pub started_at: Ns,
    /// Completion time.
    pub finished_at: Ns,
    /// Queueing delay (`started_at - arrival`).
    pub wait: Ns,
    /// Communication runtime (`finished_at - started_at`).
    pub runtime: Ns,
    /// Placement policy actually used (resolved when
    /// [`PlacementChoice::Recommend`]).
    pub placement: PlacementPolicy,
    /// Distinct dragonfly groups the job's nodes spanned.
    pub groups: u32,
    /// Interference blast radius: distinct co-resident jobs that shared at
    /// least one dragonfly group with this job at any point of its run.
    pub blast_radius: u32,
}

impl ServiceOutcome {
    /// Bounded slowdown `(wait + runtime) / max(runtime, tau)` — the
    /// standard scheduling SLO metric; `tau` keeps very short jobs from
    /// dominating.
    pub fn bounded_slowdown(&self, tau: Ns) -> f64 {
        (self.wait + self.runtime).0 as f64 / self.runtime.max(tau).0.max(1) as f64
    }
}

/// Bounded-slowdown threshold used by [`tenant_slos`] (10 µs — the service
/// streams' runtimes are tens of µs to ms, mirroring the classic 10 s
/// threshold at second-scale runtimes).
pub const BOUNDED_SLOWDOWN_TAU: Ns = Ns(10_000);

/// What the service keeps per running job beside the engine's rank
/// state: identity, timing and interference bookkeeping.
struct JobRecord {
    uid: u64,
    tenant: u32,
    label: &'static str,
    arrival: Ns,
    started_at: Ns,
    estimate: Ns,
    policy: PlacementPolicy,
    groups: Vec<GroupId>,
    interferers: HashSet<u64>,
}

struct QueuedJob {
    uid: u64,
    job: ServiceJob,
    arrival: Ns,
}

/// The incremental service driver: a multi-tenant scheduler front-end over
/// any [`DriverNet`]. Borrow a network, [`submit`](ServiceSim::submit)
/// jobs (before or during the run), and alternate
/// [`step_until`](ServiceSim::step_until) with your own decision logic —
/// or call [`run_to_idle`](ServiceSim::run_to_idle) to drain everything.
pub struct ServiceSim<'a, N: DriverNet> {
    net: &'a mut N,
    topo: Arc<Topology>,
    pool: NodePool,
    admission: AdmissionPolicy,
    placement_rng: Xoshiro256,
    workload_seed: u64,
    queue: VecDeque<QueuedJob>,
    engine: JobEngine<'static, JobRecord>,
    completed: Vec<ServiceOutcome>,
    peak_active: usize,
    next_uid: u64,
    /// Re-attempt admission after an event once `now` reaches this: the
    /// earliest queued arrival that was not yet due at the last attempt,
    /// `ZERO` once a job retired since (or always, under
    /// [`AdmissionPolicy::CongestionAware`]), `MAX` when neither can
    /// come. Between such events the pool, the slots and the due set are
    /// fixed, and a backfill candidate's `now + estimate <= shadow` only
    /// gets harder as `now` grows, so an attempt would admit nothing.
    admit_at: Ns,
    /// Running jobs' `(estimated end, uid, nodes)`, the backfill's
    /// reservation walk; kept to reuse its buffer.
    ends: Vec<(Ns, u64, u32)>,
    /// Admission attempts made.
    #[cfg(test)]
    attempts: u64,
}

impl<'a, N: DriverNet> ServiceSim<'a, N> {
    /// A service driver over `net` (already built for `topo`, with
    /// `SeedStreams::new(seed).routing` to seed as the batch runners do).
    /// Placement and workload streams derive from `seed` the same way.
    pub fn new(
        net: &'a mut N,
        topo: Arc<Topology>,
        admission: AdmissionPolicy,
        seed: u64,
    ) -> ServiceSim<'a, N> {
        let seeds = SeedStreams::new(seed);
        let nodes = topo.config().total_nodes();
        assert_eq!(
            net.total_nodes(),
            nodes,
            "network was built for a different machine"
        );
        let pool = NodePool::new(&topo);
        ServiceSim {
            net,
            topo,
            pool,
            admission,
            placement_rng: seeds.placement,
            workload_seed: seeds.workload,
            queue: VecDeque::new(),
            engine: JobEngine::new(nodes),
            completed: Vec::new(),
            peak_active: 0,
            next_uid: 0,
            admit_at: Ns::ZERO,
            ends: Vec::new(),
            #[cfg(test)]
            attempts: 0,
        }
    }

    /// Queue a job to arrive at `arrival` (clamped to the current time, so
    /// mid-run injection "now" is always legal). Returns the job's uid.
    /// Rejects jobs [`ServiceJob::validate`] rejects: shapes that overflow
    /// the machine or the event-tag fields.
    pub fn submit(&mut self, job: ServiceJob, arrival: Ns) -> Result<u64, String> {
        job.validate(self.topo.config().total_nodes())?;
        let arrival = arrival.max(self.net.now());
        let uid = self.next_uid;
        self.next_uid += 1;
        // Keep the queue sorted by (arrival, uid); mid-run injections land
        // behind earlier arrivals, FCFS-style.
        let pos = self
            .queue
            .iter()
            .rposition(|q| q.arrival <= arrival)
            .map_or(0, |p| p + 1);
        self.queue.insert(pos, QueuedJob { uid, job, arrival });
        self.net.schedule_wakeup(arrival);
        Ok(uid)
    }

    /// Advance the simulation until `t` (or until every event drains,
    /// whichever comes first). Admission is attempted on entry, then after
    /// each delivery or wakeup that can change its outcome: one that
    /// retired a job or brought a queued arrival due (after every one
    /// under [`AdmissionPolicy::CongestionAware`]).
    pub fn step_until(&mut self, t: Ns) {
        if t > self.net.now() {
            self.net.schedule_wakeup(t);
        }
        self.try_admit();
        while self.net.now() < t {
            let Some(ev) = self.net.poll() else { break };
            self.handle(ev);
            self.admit_if_due();
        }
    }

    /// Drain the simulation: run until every submitted job has completed.
    /// Admission is attempted as in [`ServiceSim::step_until`], and again
    /// whenever the network drains. Panics if jobs remain queued on an
    /// idle machine (an admission dead-end, which validated submissions
    /// cannot reach).
    pub fn run_to_idle(&mut self) {
        self.try_admit();
        loop {
            let Some(ev) = self.net.poll() else {
                // Drained. A congestion gate may only now be open —
                // re-attempt, and keep going if it admitted anything.
                let queued = self.queue.len();
                self.try_admit();
                if self.queue.len() == queued {
                    break;
                }
                continue;
            };
            self.handle(ev);
            self.admit_if_due();
        }
        assert!(
            self.queue.is_empty() && self.active_jobs() == 0,
            "service stalled: {} queued, {} active jobs on an idle network",
            self.queue.len(),
            self.active_jobs()
        );
    }

    /// Current simulated time.
    pub fn now(&self) -> Ns {
        self.net.now()
    }

    /// Jobs currently running.
    pub fn active_jobs(&self) -> usize {
        self.engine.occupied()
    }

    /// Jobs waiting for admission.
    pub fn queued_jobs(&self) -> usize {
        self.queue.len()
    }

    /// Most jobs ever running at once.
    pub fn peak_active_jobs(&self) -> usize {
        self.peak_active
    }

    /// Job slots ever materialized — the state high-water mark. Bounded by
    /// peak concurrency (slots are recycled), not by stream length.
    pub fn job_slots(&self) -> usize {
        self.engine.slots_materialized()
    }

    /// Outcomes of finished jobs, in completion order.
    pub fn completed(&self) -> &[ServiceOutcome] {
        &self.completed
    }

    /// Tear down, keeping the outcome stream and state statistics.
    pub fn finish(self) -> (Vec<ServiceOutcome>, usize, usize) {
        let slots = self.job_slots();
        (self.completed, self.peak_active, slots)
    }

    fn handle(&mut self, ev: NetworkEvent) {
        let NetworkEvent::Delivery(d) = ev else {
            return;
        };
        let slot = self
            .engine
            .deliver(self.net, &d)
            .expect("delivery to a node no job owns");
        if self.engine.is_done(slot) {
            self.retire(slot);
        }
    }

    /// Attempt admission if the last event can have changed its outcome
    /// (see `admit_at`).
    #[inline]
    fn admit_if_due(&mut self) {
        if self.net.now() >= self.admit_at {
            self.try_admit();
        }
    }

    /// Admit queued jobs per the policy, then note when the next attempt
    /// is due.
    fn try_admit(&mut self) {
        #[cfg(test)]
        {
            self.attempts += 1;
        }
        let now = self.net.now();
        // A job retired during the attempt lowers this to ZERO.
        self.admit_at = Ns::MAX;
        self.admit(now);
        let next_arrival = match self.admission {
            AdmissionPolicy::CongestionAware { .. } => Ns::ZERO,
            _ => self
                .queue
                .iter()
                .map(|q| q.arrival)
                .find(|&a| a > now)
                .unwrap_or(Ns::MAX),
        };
        self.admit_at = self.admit_at.min(next_arrival);
    }

    fn admit(&mut self, now: Ns) {
        loop {
            let Some(head) = self.queue.front() else {
                return;
            };
            if head.arrival > now {
                return;
            }
            if let AdmissionPolicy::CongestionAware { max_queued_bytes } = self.admission {
                if self.net.total_queued_bytes() > max_queued_bytes {
                    // The gate re-opens as deliveries drain the buffers;
                    // under this policy every event re-attempts admission.
                    return;
                }
            }
            if head.job.workload.ranks() <= self.pool.free_count() && self.engine.has_free_slot() {
                let q = self.queue.pop_front().expect("checked front");
                self.start_job(q, now);
                continue;
            }
            // Head blocked: strict FCFS stops here; backfill policies
            // consider later arrivals under the head's reservation.
            match self.admission {
                AdmissionPolicy::Fcfs => return,
                AdmissionPolicy::EasyBackfill | AdmissionPolicy::CongestionAware { .. } => {
                    self.backfill(now);
                    return;
                }
            }
        }
    }

    /// EASY backfill: reserve the head's projected start (walk running
    /// jobs by estimated completion until enough nodes free up), then let
    /// later arrivals start now if they fit and either (a) are estimated
    /// to finish before the reservation or (b) use only nodes the head
    /// won't need (the surplus).
    fn backfill(&mut self, now: Ns) {
        if !self.engine.has_free_slot() {
            return;
        }
        let head_ranks = self
            .queue
            .front()
            .expect("backfill called with a queue head")
            .job
            .workload
            .ranks();
        self.ends.clear();
        self.ends.extend(self.engine.jobs_mut().map(|j| {
            (
                Ns(j.meta.started_at.0.saturating_add(j.meta.estimate.0)),
                j.meta.uid,
                j.placement.len() as u32,
            )
        }));
        self.ends.sort_unstable();
        let mut avail = self.pool.free_count();
        let mut shadow = Ns::MAX;
        let mut surplus = 0u32;
        for &(end, _, freed) in &self.ends {
            avail += freed;
            if avail >= head_ranks {
                shadow = end;
                surplus = avail - head_ranks;
                break;
            }
        }
        loop {
            let mut candidate = None;
            for i in 1..self.queue.len() {
                let q = &self.queue[i];
                if q.arrival > now {
                    break;
                }
                let r = q.job.workload.ranks();
                let fits = r <= self.pool.free_count() && self.engine.has_free_slot();
                let honors_reservation =
                    Ns(now.0.saturating_add(q.job.estimate.0)) <= shadow || r <= surplus;
                if fits && honors_reservation {
                    candidate = Some((i, r));
                    break;
                }
            }
            let Some((i, r)) = candidate else { return };
            let q = self.queue.remove(i).expect("candidate index in range");
            if Ns(now.0.saturating_add(q.job.estimate.0)) > shadow {
                surplus -= r; // admitted on the surplus budget
            }
            self.start_job(q, now);
        }
    }

    fn start_job(&mut self, q: QueuedJob, now: Ns) {
        let ranks = q.job.workload.ranks();
        let trace = q
            .job
            .workload
            .trace(q.job.msg_scale, self.workload_seed ^ (q.uid << 32));
        let policy = match q.job.placement {
            PlacementChoice::Fixed(p) => p,
            PlacementChoice::Recommend => {
                // Live machine state: any co-runner, or congestion still
                // queued in the fabric, makes the network "shared".
                let shared = self.active_jobs() > 0 || self.net.total_queued_bytes() > 0;
                recommend(CommIntensity::of(&trace), shared).placement
            }
        };
        let placement = policy
            .allocate(&self.topo, &mut self.pool, ranks, &mut self.placement_rng)
            .expect("admission checked the free count");
        let mut groups: Vec<GroupId> = placement.iter().map(|&n| self.topo.node_group(n)).collect();
        groups.sort_unstable();
        groups.dedup();
        let mut interferers = HashSet::new();
        for other in self.engine.jobs_mut().map(|j| &mut j.meta) {
            let overlaps = other.groups.iter().any(|g| groups.binary_search(g).is_ok());
            if overlaps {
                other.interferers.insert(q.uid);
                interferers.insert(other.uid);
            }
        }
        let record = JobRecord {
            uid: q.uid,
            tenant: q.job.tenant,
            label: q.job.workload.label(),
            arrival: q.arrival,
            started_at: now,
            estimate: q.job.estimate,
            policy,
            groups,
            interferers,
        };
        let slot = self
            .engine
            .insert(Cow::Owned(trace), Cow::Owned(placement), record);
        self.peak_active = self.peak_active.max(self.active_jobs());
        self.engine.launch(self.net, slot..slot + 1, now);
        if self.engine.is_done(slot) {
            // Degenerate all-empty trace: completes at admission.
            self.retire(slot);
        }
    }

    /// Retire a finished job: release its nodes, recycle its slot, and
    /// keep only the compact outcome record.
    fn retire(&mut self, slot: u32) {
        self.admit_at = Ns::ZERO;
        let now = self.net.now();
        let job = self.engine.remove(slot);
        self.pool.release(&job.placement);
        let m = job.meta;
        self.completed.push(ServiceOutcome {
            uid: m.uid,
            tenant: m.tenant,
            label: m.label,
            ranks: job.trace.ranks(),
            arrival: m.arrival,
            started_at: m.started_at,
            finished_at: now,
            wait: m.started_at - m.arrival,
            runtime: now - m.started_at,
            placement: m.policy,
            groups: m.groups.len() as u32,
            blast_radius: m.interferers.len() as u32,
        });
    }
}

/// A whole service run: machine, stream, and policies.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Machine shape.
    pub topology: TopologyConfig,
    /// Network parameters (set `audit`/`obs` here as for any run).
    pub network: NetworkParams,
    /// System-wide routing.
    pub routing: RoutingPolicy,
    /// Admission policy.
    pub admission: AdmissionPolicy,
    /// The submission stream (any order; sorted by arrival internally).
    pub submissions: Vec<ServiceSubmission>,
    /// Master seed; placement, workload and routing streams derive from
    /// it through [`SeedStreams`].
    pub seed: u64,
    /// Execution engine: serial loop or group-sharded PDES.
    pub parallelism: Parallelism,
}

impl ServiceConfig {
    /// Validate, naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        self.topology.validate()?;
        self.network.validate()?;
        if self.submissions.is_empty() {
            return Err("submissions: need at least one".into());
        }
        if self.parallelism == Parallelism::IntraRun(0) {
            return Err("parallelism: intra-run needs at least one worker".into());
        }
        let nodes = self.topology.total_nodes();
        for (i, s) in self.submissions.iter().enumerate() {
            s.job
                .validate(nodes)
                .map_err(|e| format!("submissions[{i}]: {e}"))?;
        }
        Ok(())
    }
}

/// Outcome of a whole service run.
#[derive(Debug, Clone)]
pub struct ServiceResult {
    /// Finished jobs in completion order.
    pub outcomes: Vec<ServiceOutcome>,
    /// Last completion time.
    pub makespan: Ns,
    /// Most jobs ever running at once.
    pub peak_active_jobs: usize,
    /// Job slots ever materialized (bounded state: peak concurrency, not
    /// stream length).
    pub job_slots: usize,
    /// Network events processed.
    pub events: u64,
    /// Conservation-audit report (when `network.audit`).
    pub audit: Option<AuditReport>,
    /// Telemetry report (when `network.obs`).
    pub obs: Option<ObsReport>,
}

/// Run a service stream to completion. A thin batch client of
/// [`ServiceSim`]'s incremental API: it steps to each arrival and injects
/// the job mid-run, exactly as a live driver would.
pub fn run_service(config: &ServiceConfig) -> ServiceResult {
    config.validate().expect("invalid service config");
    let topo = Arc::new(Topology::build(config.topology.clone()));
    let routing_seed = SeedStreams::new(config.seed).routing;
    let (params, routing) = (config.network, config.routing);
    match config.parallelism.workers(&config.topology) {
        None => serve(
            Network::new(topo.clone(), params, routing, routing_seed),
            topo,
            config,
            |mut net| (net.events_processed(), net.audit_report(), net.obs_report()),
        ),
        Some(n) => serve(
            ShardedNetwork::new(topo.clone(), params, routing, routing_seed, n),
            topo,
            config,
            |net| {
                let mut parts = net.finish();
                (parts.events(), parts.audit_report(), parts.obs_report())
            },
        ),
    }
}

/// [`run_service`] on one engine; `close` tears the network down into
/// its event count and reports.
fn serve<N: DriverNet>(
    mut net: N,
    topo: Arc<Topology>,
    config: &ServiceConfig,
    close: impl FnOnce(N) -> (u64, Option<AuditReport>, Option<ObsReport>),
) -> ServiceResult {
    let mut subs = config.submissions.clone();
    subs.sort_by_key(|s| s.arrival);
    let mut sim = ServiceSim::new(&mut net, topo, config.admission, config.seed);
    for s in &subs {
        sim.step_until(s.arrival);
        sim.submit(s.job, s.arrival).expect("validated submission");
    }
    sim.run_to_idle();
    let (outcomes, peak_active_jobs, job_slots) = sim.finish();
    let makespan = outcomes
        .iter()
        .map(|o| o.finished_at)
        .max()
        .unwrap_or(Ns::ZERO);
    let (events, audit, obs) = close(net);
    ServiceResult {
        outcomes,
        makespan,
        peak_active_jobs,
        job_slots,
        events,
        audit,
        obs,
    }
}

/// Per-tenant SLO summary over an outcome stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlo {
    /// Tenant id.
    pub tenant: u32,
    /// Jobs finished.
    pub jobs: u32,
    /// Mean queueing delay, µs.
    pub mean_wait_us: f64,
    /// Median queueing delay, µs.
    pub p50_wait_us: f64,
    /// 99th-percentile queueing delay, µs.
    pub p99_wait_us: f64,
    /// Median bounded slowdown (tau = [`BOUNDED_SLOWDOWN_TAU`]).
    pub p50_slowdown: f64,
    /// 99th-percentile bounded slowdown.
    pub p99_slowdown: f64,
    /// Mean communication runtime, µs.
    pub mean_runtime_us: f64,
    /// Mean interference blast radius.
    pub mean_blast_radius: f64,
    /// Largest blast radius any job saw.
    pub max_blast_radius: u32,
}

/// Aggregate per-tenant SLO metrics (p50/p99 via `dfly-stats`
/// percentiles), sorted by tenant id.
pub fn tenant_slos(outcomes: &[ServiceOutcome]) -> Vec<TenantSlo> {
    let mut tenants: Vec<u32> = outcomes.iter().map(|o| o.tenant).collect();
    tenants.sort_unstable();
    tenants.dedup();
    tenants
        .into_iter()
        .map(|tenant| {
            let of_tenant: Vec<&ServiceOutcome> =
                outcomes.iter().filter(|o| o.tenant == tenant).collect();
            let waits: Vec<f64> = of_tenant.iter().map(|o| o.wait.as_us_f64()).collect();
            let slowdowns: Vec<f64> = of_tenant
                .iter()
                .map(|o| o.bounded_slowdown(BOUNDED_SLOWDOWN_TAU))
                .collect();
            let runtimes: Vec<f64> = of_tenant.iter().map(|o| o.runtime.as_us_f64()).collect();
            let blasts: Vec<f64> = of_tenant.iter().map(|o| o.blast_radius as f64).collect();
            TenantSlo {
                tenant,
                jobs: of_tenant.len() as u32,
                mean_wait_us: dfly_stats::mean(&waits),
                p50_wait_us: percentile(&waits, 50.0),
                p99_wait_us: percentile(&waits, 99.0),
                p50_slowdown: percentile(&slowdowns, 50.0),
                p99_slowdown: percentile(&slowdowns, 99.0),
                mean_runtime_us: dfly_stats::mean(&runtimes),
                mean_blast_radius: dfly_stats::mean(&blasts),
                max_blast_radius: of_tenant.iter().map(|o| o.blast_radius).max().unwrap_or(0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfly_workloads::AppKind;

    fn app_job(ranks: u32, placement: PlacementPolicy) -> ServiceJob {
        ServiceJob {
            workload: ServiceWorkload::App(AppSelection::Amg { ranks }),
            placement: PlacementChoice::Fixed(placement),
            msg_scale: 0.3,
            tenant: 2,
            estimate: Ns::from_us(200),
        }
    }

    fn pattern_job(ranks: u32) -> ServiceJob {
        ServiceJob {
            workload: ServiceWorkload::Pattern {
                pattern: Pattern::Ring,
                ranks,
                bytes_per_phase: 8 * 1024,
                phases: 2,
            },
            placement: PlacementChoice::Fixed(PlacementPolicy::Contiguous),
            msg_scale: 1.0,
            tenant: 3,
            estimate: Ns::from_us(50),
        }
    }

    fn cfg(submissions: Vec<ServiceSubmission>) -> ServiceConfig {
        ServiceConfig {
            topology: TopologyConfig::small_test(),
            network: NetworkParams::default(),
            routing: RoutingPolicy::Adaptive,
            admission: AdmissionPolicy::Fcfs,
            submissions,
            seed: 0xF1F0,
            parallelism: Parallelism::Serial,
        }
    }

    fn sub(job: ServiceJob, arrival: Ns) -> ServiceSubmission {
        ServiceSubmission { job, arrival }
    }

    #[test]
    fn single_job_completes() {
        let r = run_service(&cfg(vec![sub(
            app_job(16, PlacementPolicy::Contiguous),
            Ns::ZERO,
        )]));
        assert_eq!(r.outcomes.len(), 1);
        assert_eq!(r.outcomes[0].wait, Ns::ZERO);
        assert!(r.outcomes[0].runtime > Ns::ZERO);
        assert_eq!(r.outcomes[0].blast_radius, 0);
        assert_eq!(r.peak_active_jobs, 1);
        assert_eq!(r.job_slots, 1);
    }

    #[test]
    fn mixed_stream_is_deterministic() {
        let subs = vec![
            sub(app_job(16, PlacementPolicy::RandomNode), Ns::ZERO),
            sub(pattern_job(8), Ns::from_us(20)),
            sub(app_job(27, PlacementPolicy::RandomChassis), Ns::from_us(40)),
        ];
        let a = run_service(&cfg(subs.clone()));
        let b = run_service(&cfg(subs));
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.peak_active_jobs, b.peak_active_jobs);
        assert_eq!(a.job_slots, b.job_slots);
        assert_eq!(a.events, b.events);
        assert_eq!(a.outcomes.len(), 3);
    }

    #[test]
    fn step_until_and_mid_run_injection() {
        let topo = Arc::new(Topology::build(TopologyConfig::small_test()));
        let routing_seed = Xoshiro256::seed_from(7).split(3).next_u64();
        let mut net = Network::new(
            topo.clone(),
            NetworkParams::default(),
            RoutingPolicy::Adaptive,
            routing_seed,
        );
        let mut sim = ServiceSim::new(&mut net, topo, AdmissionPolicy::Fcfs, 7);
        sim.submit(app_job(16, PlacementPolicy::Contiguous), Ns::ZERO)
            .unwrap();
        // Step partway: time advances to exactly the requested instant
        // while the first job is still in flight.
        sim.step_until(Ns::from_us(5));
        assert_eq!(sim.now(), Ns::from_us(5));
        assert_eq!(sim.active_jobs(), 1);
        // Inject mid-run with a past arrival: clamped to now.
        let uid = sim.submit(pattern_job(8), Ns::ZERO).unwrap();
        assert_eq!(uid, 1);
        sim.run_to_idle();
        assert_eq!(sim.completed().len(), 2);
        let second = sim.completed().iter().find(|o| o.uid == 1).unwrap();
        assert!(second.arrival >= Ns::from_us(5), "arrival clamped to now");
    }

    #[test]
    fn admission_is_attempted_only_when_an_event_can_change_it() {
        // A stream that blocks its head, backfills and completes jobs, run
        // under EASY and under a congestion gate that never closes: the
        // gate's policy is EASY that re-attempts after every event, so the
        // two must make the same decisions. EASY attempts on entry, after
        // events that retired a job or brought an arrival due, and once
        // more when the network drains.
        let arrivals = [0u64, 1, 2, 2, 3_000, 3_000, 40_000, 41_000];
        let jobs = [48, 48, 8, 4, 16, 8, 32, 4];
        let run = |admission| {
            let topo = Arc::new(Topology::build(TopologyConfig::small_test()));
            let mut net = Network::new(
                topo.clone(),
                NetworkParams::default(),
                RoutingPolicy::Adaptive,
                11,
            );
            let mut sim = ServiceSim::new(&mut net, topo, admission, 11);
            for (&at, &ranks) in arrivals.iter().zip(&jobs) {
                sim.submit(app_job(ranks, PlacementPolicy::Contiguous), Ns(at))
                    .unwrap();
            }
            sim.run_to_idle();
            (sim.attempts, sim.completed().to_vec())
        };
        let (easy_attempts, easy) = run(AdmissionPolicy::EasyBackfill);
        let (every_event, gated) = run(AdmissionPolicy::CongestionAware {
            max_queued_bytes: u64::MAX,
        });
        assert_eq!(easy, gated);
        assert_eq!(easy.len(), jobs.len());
        let started = |uid: u64| easy.iter().find(|o| o.uid == uid).unwrap().started_at;
        assert!(started(2) < started(1), "the stream backfills");
        let distinct_arrivals = 6;
        let bound = 1 + jobs.len() as u64 + distinct_arrivals + 1;
        assert!(
            easy_attempts <= bound,
            "{easy_attempts} attempts, at most {bound} can change anything"
        );
        assert!(
            every_event > 10 * easy_attempts,
            "{every_event} attempts after every event vs {easy_attempts}"
        );
    }

    #[test]
    fn slots_recycle_and_state_stays_bounded() {
        // 120 sequential-ish small jobs: far more jobs than can ever run
        // at once. Slot count must track peak concurrency (<= 64/4 = 16
        // by node budget), not stream length — the state-retirement
        // regression (the pre-fix scheduler kept all 120 forever).
        let subs: Vec<ServiceSubmission> = (0..120)
            .map(|i| sub(pattern_job(4), Ns(i * 1000)))
            .collect();
        let r = run_service(&cfg(subs));
        assert_eq!(r.outcomes.len(), 120);
        assert!(
            r.job_slots <= 16,
            "job slots {} should be bounded by peak concurrency, not 120 jobs",
            r.job_slots
        );
        assert!(r.peak_active_jobs >= 2, "stream should overlap");
        assert_eq!(r.job_slots, r.peak_active_jobs);
    }

    #[test]
    fn fcfs_head_blocks_but_completion_readmits() {
        // A 40-node head, then a blocked 40-node job, then an 8-node job:
        // under FCFS everyone waits for the head in order.
        let subs = vec![
            sub(app_job(40, PlacementPolicy::Contiguous), Ns::ZERO),
            sub(app_job(40, PlacementPolicy::Contiguous), Ns(1)),
            sub(app_job(8, PlacementPolicy::Contiguous), Ns(2)),
        ];
        let r = run_service(&cfg(subs));
        let by_uid = |uid: u64| r.outcomes.iter().find(|o| o.uid == uid).unwrap();
        assert_eq!(by_uid(1).started_at, by_uid(0).finished_at);
        assert!(by_uid(2).started_at >= by_uid(1).started_at);
    }

    #[test]
    fn easy_backfill_lets_small_job_jump_blocked_head() {
        let subs = vec![
            sub(app_job(48, PlacementPolicy::Contiguous), Ns::ZERO),
            sub(app_job(48, PlacementPolicy::Contiguous), Ns(1)),
            sub(app_job(8, PlacementPolicy::Contiguous), Ns(2)),
        ];
        let mut fcfs = cfg(subs.clone());
        fcfs.admission = AdmissionPolicy::Fcfs;
        let mut easy = cfg(subs);
        easy.admission = AdmissionPolicy::EasyBackfill;
        let rf = run_service(&fcfs);
        let re = run_service(&easy);
        let started = |r: &ServiceResult, uid: u64| {
            r.outcomes.iter().find(|o| o.uid == uid).unwrap().started_at
        };
        // FCFS: the 8-rank job queues behind the blocked 48-rank head.
        assert!(started(&rf, 2) >= started(&rf, 1));
        // EASY: it backfills into the 16 surplus nodes immediately.
        assert!(started(&re, 2) < started(&re, 1));
        assert_eq!(started(&re, 2), Ns(2));
    }

    #[test]
    fn congestion_gate_defers_admission_under_load() {
        let subs = vec![
            sub(app_job(32, PlacementPolicy::RandomNode), Ns::ZERO),
            sub(app_job(16, PlacementPolicy::RandomNode), Ns(10)),
        ];
        let mut tight = cfg(subs.clone());
        tight.admission = AdmissionPolicy::CongestionAware {
            max_queued_bytes: 1,
        };
        let mut loose = cfg(subs);
        loose.admission = AdmissionPolicy::CongestionAware {
            max_queued_bytes: u64::MAX,
        };
        let rt = run_service(&tight);
        let rl = run_service(&loose);
        let wait =
            |r: &ServiceResult, uid: u64| r.outcomes.iter().find(|o| o.uid == uid).unwrap().wait;
        assert!(
            wait(&rt, 1) > wait(&rl, 1),
            "a 1-byte congestion gate must delay the second job ({} vs {})",
            wait(&rt, 1),
            wait(&rl, 1)
        );
        assert_eq!(rt.outcomes.len(), 2, "gated stream still drains");
    }

    #[test]
    fn recommend_placement_resolves_per_job() {
        // Low-load AMG alone on the machine: recommend says Contiguous.
        let mut job = app_job(16, PlacementPolicy::RandomNode);
        job.placement = PlacementChoice::Recommend;
        let r = run_service(&cfg(vec![sub(job, Ns::ZERO)]));
        assert_eq!(r.outcomes[0].placement, PlacementPolicy::Contiguous);
    }

    #[test]
    fn blast_radius_counts_group_sharing_corunners() {
        // Two RandomNode jobs on a 4-group machine overlap in time and
        // groups; two serial Contiguous jobs never co-reside.
        let overlap = run_service(&cfg(vec![
            sub(app_job(24, PlacementPolicy::RandomNode), Ns::ZERO),
            sub(app_job(24, PlacementPolicy::RandomNode), Ns::ZERO),
        ]));
        assert!(overlap.outcomes.iter().all(|o| o.blast_radius == 1));
        let serial = run_service(&cfg(vec![
            sub(app_job(48, PlacementPolicy::Contiguous), Ns::ZERO),
            sub(app_job(48, PlacementPolicy::Contiguous), Ns(1)),
        ]));
        assert!(serial.outcomes.iter().all(|o| o.blast_radius == 0));
    }

    #[test]
    fn sharded_engine_runs_the_stream_deterministically() {
        let subs = vec![
            sub(app_job(16, PlacementPolicy::RandomNode), Ns::ZERO),
            sub(pattern_job(8), Ns::from_us(10)),
        ];
        let mut c = cfg(subs);
        c.parallelism = Parallelism::IntraRun(2);
        let a = run_service(&c);
        let b = run_service(&c);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
        assert_eq!(a.outcomes.len(), 2);
    }

    #[test]
    fn audit_stays_clean() {
        let mut c = cfg(vec![
            sub(app_job(16, PlacementPolicy::RandomNode), Ns::ZERO),
            sub(pattern_job(8), Ns::from_us(5)),
        ]);
        c.network.audit = true;
        let r = run_service(&c);
        let audit = r.audit.expect("audit enabled");
        assert!(audit.is_clean(), "{audit:?}");
    }

    #[test]
    fn validate_names_offending_fields() {
        let base = cfg(vec![sub(
            app_job(16, PlacementPolicy::Contiguous),
            Ns::ZERO,
        )]);
        assert!(cfg(vec![]).validate().unwrap_err().contains("submissions"));
        let mut c = base.clone();
        c.parallelism = Parallelism::IntraRun(0);
        assert!(c.validate().unwrap_err().contains("parallelism"));
        let mut c = base.clone();
        c.submissions[0].job.workload = ServiceWorkload::App(AppSelection::Amg { ranks: 100 });
        assert!(c.validate().unwrap_err().contains("64-node machine"));
        let mut c = base.clone();
        c.submissions[0].job.msg_scale = 0.0;
        assert!(c.validate().unwrap_err().contains("msg_scale"));
        for bad in [f64::INFINITY, f64::NAN] {
            let mut job = app_job(16, PlacementPolicy::Contiguous);
            job.msg_scale = bad;
            let err = job.validate(64).unwrap_err();
            assert!(err.contains("msg_scale"), "{bad}: {err}");
        }
        let mut c = base;
        c.submissions[0].job.workload = ServiceWorkload::Pattern {
            pattern: Pattern::Ring,
            ranks: 1,
            bytes_per_phase: 1024,
            phases: 1,
        };
        assert!(c.validate().unwrap_err().contains("at least 2 ranks"));
    }

    #[test]
    fn submit_rejects_tag_width_overflow() {
        let topo = Arc::new(Topology::build(TopologyConfig::small_test()));
        let mut net = Network::new(
            topo.clone(),
            NetworkParams::default(),
            RoutingPolicy::Minimal,
            1,
        );
        let mut sim = ServiceSim::new(&mut net, topo, AdmissionPolicy::Fcfs, 1);
        let mut job = app_job(16, PlacementPolicy::Contiguous);
        job.workload = ServiceWorkload::App(AppSelection::Amg {
            ranks: MAX_RANKS + 1,
        });
        let err = sim.submit(job, Ns::ZERO).unwrap_err();
        assert!(err.contains("rank tag field"), "{err}");
    }

    #[test]
    fn pattern_phase_count_rejected_up_front() {
        // Zero phases used to pass validation and panic inside the
        // pattern generator at admission, mid-run; a phase count past the
        // 24-bit tag field allocated ranks x phases before failing.
        let topo = Arc::new(Topology::build(TopologyConfig::small_test()));
        let mut net = Network::new(
            topo.clone(),
            NetworkParams::default(),
            RoutingPolicy::Minimal,
            1,
        );
        let mut sim = ServiceSim::new(&mut net, topo, AdmissionPolicy::Fcfs, 1);
        for phases in [0, MAX_PHASES as u32 + 1] {
            let mut job = pattern_job(8);
            job.workload = ServiceWorkload::Pattern {
                pattern: Pattern::Ring,
                ranks: 8,
                bytes_per_phase: 1024,
                phases,
            };
            let err = sim.submit(job, Ns::ZERO).unwrap_err();
            assert!(err.starts_with("phases:"), "{err}");
            let err = cfg(vec![sub(job, Ns::ZERO)]).validate().unwrap_err();
            assert!(err.starts_with("submissions[0]: phases:"), "{err}");
        }
        assert_eq!(sim.queued_jobs(), 0, "rejected jobs never queue");
    }

    #[test]
    fn admission_parse_and_labels() {
        assert_eq!(AdmissionPolicy::parse("fcfs"), Ok(AdmissionPolicy::Fcfs));
        assert_eq!(
            AdmissionPolicy::parse("easy"),
            Ok(AdmissionPolicy::EasyBackfill)
        );
        assert_eq!(
            AdmissionPolicy::parse("congestion:4096"),
            Ok(AdmissionPolicy::CongestionAware {
                max_queued_bytes: 4096
            })
        );
        assert!(AdmissionPolicy::parse("lifo").is_err());
        assert!(AdmissionPolicy::parse("congestion:zz").is_err());
        assert_eq!(
            AdmissionPolicy::parse("congestion").unwrap().label(),
            "congestion"
        );
    }

    #[test]
    fn tenant_slos_aggregate_per_tenant() {
        let mk = |tenant: u32, wait_us: u64, runtime_us: u64, blast: u32| ServiceOutcome {
            uid: 0,
            tenant,
            label: "amg",
            ranks: 8,
            arrival: Ns::ZERO,
            started_at: Ns::from_us(wait_us),
            finished_at: Ns::from_us(wait_us + runtime_us),
            wait: Ns::from_us(wait_us),
            runtime: Ns::from_us(runtime_us),
            placement: PlacementPolicy::Contiguous,
            groups: 1,
            blast_radius: blast,
        };
        let outcomes = vec![mk(0, 0, 100, 0), mk(0, 100, 100, 2), mk(1, 50, 200, 1)];
        let slos = tenant_slos(&outcomes);
        assert_eq!(slos.len(), 2);
        assert_eq!(slos[0].tenant, 0);
        assert_eq!(slos[0].jobs, 2);
        assert_eq!(slos[0].mean_wait_us, 50.0);
        assert_eq!(slos[0].max_blast_radius, 2);
        assert_eq!(slos[1].jobs, 1);
        // Bounded slowdown of the waiting job: (100+100)/100 = 2.
        assert!(slos[0].p99_slowdown >= 1.9);
    }

    #[test]
    fn service_job_from_arrival_maps_classes() {
        let a = Arrival {
            at: Ns::ZERO,
            kind: ArrivalKind::App(AppKind::CrystalRouter),
            ranks: 12,
            msg_scale: 0.5,
            estimate: Ns::from_us(90),
        };
        let j = ServiceJob::from_arrival(&a);
        assert_eq!(
            j.workload,
            ServiceWorkload::App(AppSelection::CrystalRouter { ranks: 12 })
        );
        assert_eq!(j.tenant, 0);
        assert_eq!(j.estimate, Ns::from_us(90));
        let b = Arrival {
            kind: ArrivalKind::Background(Pattern::Shift),
            ..a
        };
        let j = ServiceJob::from_arrival(&b);
        assert_eq!(j.tenant, 3);
        assert_eq!(j.workload.label(), "shift");
    }
}
