//! The four workloads and their outside-in replays.
//!
//! A replay calls the same public functions as `execute_experiment` /
//! `run_service`, in the same seed-split order, so the program under test
//! is unchanged; the benchmark only wraps each call in a span. The tests
//! hold each replay to the fingerprint of the library's own entry point.

use crate::check::{fnv, Fingerprint};
use crate::trace::Tracer;
use dfly_core::config::{AppSelection, ExperimentConfig, Parallelism, RoutingPolicy};
use dfly_core::mpi::MpiDriver;
use dfly_core::runner::ExperimentResult;
use dfly_core::service::{
    AdmissionPolicy, ServiceConfig, ServiceJob, ServiceResult, ServiceSim, ServiceSubmission,
};
use dfly_engine::{Ns, Xoshiro256};
use dfly_network::{MetricsFilter, Network, NetworkParams, ShardedNetwork};
use dfly_obs::profile::EventKind;
use dfly_placement::{NodePool, PlacementPolicy};
use dfly_topology::{RouterId, Topology, TopologyConfig};
use dfly_workloads::{generate, poisson_arrivals, AppKind, ArrivalPlan};
use std::collections::HashSet;
use std::sync::Arc;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "theta-cr-rand-adp",
    "theta-cr-rand-adp-pdes1",
    "scale-131k-obs",
    "service-easy",
];

/// Message scale of the two Theta workloads (1.0 = the paper's load).
const THETA_MSG_SCALE: f64 = 0.25;
/// Message scale of the 131k-node probe.
const SCALE_MSG_SCALE: f64 = 0.25;
/// Service stream: seed of the arrival stream. The stream's shape (job
/// kinds, sizes, arrival times) is fixed so every `--seed` simulates the
/// same amount of work; the run seed drives placement, workload jitter
/// and routing, as `ServiceConfig::seed` does in `run_service`.
const SERVICE_STREAM_SEED: u64 = 0x5E21;
/// Service stream: jobs in the stream.
const SERVICE_JOBS: u32 = 40;

/// Full size for measurement; shrunk for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured workload.
    Full,
    /// A small machine and light load with the same code path.
    Shrunk,
}

/// What one workload runs.
#[derive(Debug, Clone)]
pub enum Input {
    /// One experiment, through `execute_experiment`'s calls.
    Experiment(ExperimentConfig),
    /// A service stream, through `run_service`'s calls. The arrivals are
    /// generated inside the run, from `plan`.
    Service {
        /// Arrival-stream plan.
        plan: ArrivalPlan,
        /// Everything but the submissions.
        config: ServiceConfig,
    },
}

/// The input of workload `name` at `seed`.
pub fn input(name: &str, seed: u64, size: Size) -> Result<Input, String> {
    let shrunk = size == Size::Shrunk;
    let theta = |parallelism| {
        let mut cfg = ExperimentConfig::theta(AppKind::CrystalRouter);
        if shrunk {
            cfg.topology = TopologyConfig::quick();
            cfg.app = AppSelection::CrystalRouter { ranks: 64 };
        }
        cfg.placement = PlacementPolicy::RandomNode;
        cfg.routing = RoutingPolicy::Adaptive;
        cfg.msg_scale = if shrunk { 0.05 } else { THETA_MSG_SCALE };
        cfg.network.obs = false;
        cfg.network.audit = false;
        cfg.seed = seed;
        cfg.parallelism = parallelism;
        cfg
    };
    Ok(match name {
        "theta-cr-rand-adp" => Input::Experiment(theta(Parallelism::Serial)),
        // One worker: the shard engine's windows, mailboxes and landing
        // queues without lockstep waits on a second core, whose speed on a
        // shared host swings the wall time of a 2-worker run by more than
        // the benchmark's bound (NOTES.md, "Steadiness").
        "theta-cr-rand-adp-pdes1" => Input::Experiment(theta(Parallelism::IntraRun(1))),
        "scale-131k-obs" => {
            let mut cfg = ExperimentConfig::quick(AppKind::CrystalRouter);
            // 257 groups x 32 routers x 16 nodes = 131,584 nodes; the
            // 512-rank probe fills exactly one group.
            cfg.topology = if shrunk {
                TopologyConfig::canonical(4, 8, 8, 65)
            } else {
                TopologyConfig::canonical(16, 32, 16, 257)
            };
            cfg.app = AppSelection::CrystalRouter {
                ranks: if shrunk { 64 } else { 512 },
            };
            cfg.placement = PlacementPolicy::Contiguous;
            cfg.routing = RoutingPolicy::Adaptive;
            cfg.msg_scale = if shrunk { 0.05 } else { SCALE_MSG_SCALE };
            cfg.network.obs = true;
            cfg.network.audit = false;
            cfg.seed = seed;
            Input::Experiment(cfg)
        }
        "service-easy" => {
            let topology = TopologyConfig::quick();
            let nodes = topology.total_nodes();
            let plan = ArrivalPlan {
                rate_per_ms: 100.0,
                duration: Ns::ZERO,
                min_jobs: if shrunk { 6 } else { SERVICE_JOBS },
                background_share: 0.25,
                min_ranks: 4,
                max_ranks: (nodes / 3).clamp(4, 512),
                msg_scale: if shrunk { 0.05 } else { 0.25 },
                seed: SERVICE_STREAM_SEED,
            };
            let network = NetworkParams {
                audit: false,
                obs: false,
                ..NetworkParams::default()
            };
            let config = ServiceConfig {
                topology,
                network,
                routing: RoutingPolicy::Adaptive,
                admission: AdmissionPolicy::EasyBackfill,
                submissions: Vec::new(),
                seed,
                parallelism: Parallelism::Serial,
            };
            Input::Service { plan, config }
        }
        other => return Err(format!("unknown workload {other:?}; known: {NAMES:?}")),
    })
}

/// The service submissions for a plan: recommend-placed, as `service_sim`
/// builds them.
pub fn submissions(plan: &ArrivalPlan) -> Vec<ServiceSubmission> {
    poisson_arrivals(plan)
        .iter()
        .map(|a| ServiceSubmission {
            job: ServiceJob::from_arrival(a),
            arrival: a.at,
        })
        .collect()
}

/// What one replay produced besides its spans.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Exact outputs; equal on every run of one input.
    pub fingerprint: Fingerprint,
    /// Jobs the run submitted (ops attempted).
    pub jobs: u64,
    /// Jobs that completed with a consistent record.
    pub completed: u64,
    /// Host ns from the start of the run to the first simulated event.
    pub setup_ns: u64,
    /// Memory figures read between spans (traced runs only).
    pub memory: Vec<(&'static str, f64)>,
}

/// Replay one run of `input`.
pub fn replay(input: &Input, tracer: &mut Tracer) -> Replay {
    match input {
        Input::Experiment(cfg) => replay_experiment(cfg, tracer),
        Input::Service { plan, config } => replay_service(plan, config, tracer),
    }
}

/// `execute_experiment` (with a fresh arena, as `run_experiment` has),
/// call by call, plus the figure CDFs a figure binary takes from the
/// result.
fn replay_experiment(cfg: &ExperimentConfig, t: &mut Tracer) -> Replay {
    assert!(
        cfg.background.is_none(),
        "no workload runs background traffic"
    );
    t.span("core.config.validate", || cfg.validate())
        .expect("invalid experiment config");
    let topo = t.span("topology.build", || {
        Arc::new(Topology::build(cfg.topology.clone()))
    });

    let mut master = Xoshiro256::seed_from(cfg.seed);
    let mut placement_rng = master.split(1);
    let workload_seed = master.split(2).next_u64();
    let routing_seed = master.split(3).next_u64();

    let placement = t.span("placement.allocate", || {
        let mut pool = NodePool::new(&topo);
        let allocation = cfg
            .placement
            .allocate(&topo, &mut pool, cfg.app.ranks(), &mut placement_rng)
            .expect("validated config cannot over-allocate");
        cfg.mapping.arrange(
            &allocation,
            cfg.topology.nodes_per_router,
            &mut placement_rng,
        )
    });
    let trace = t.span("workloads.generate", || {
        generate(&cfg.app.spec(cfg.msg_scale, workload_seed))
    });

    let mut memory = Vec::new();
    let channels = topo.channel_count();
    let workers = match cfg.parallelism {
        Parallelism::IntraRun(n) if cfg.topology.groups >= 2 => Some(n as usize),
        _ => None,
    };
    let before = t.rss_mb();
    let (result, metrics, audit, obs, events, setup_ns) = match workers {
        None => {
            let mut net = t.span("network.new", || {
                Network::new(topo.clone(), cfg.network, cfg.routing, routing_seed)
            });
            note_network_new(&mut memory, growth(before, t.rss_mb()), channels);
            let setup_ns = t.elapsed_ns();
            let result = t.span("core.mpi.run", || {
                MpiDriver::new(&mut net, &trace, &placement, None).run()
            });
            let before = t.rss_mb();
            let metrics = t.span("network.metrics", || net.metrics());
            memory.extend(growth(before, t.rss_mb()).map(|mb| ("network.metrics_rss_mb", mb)));
            let audit = net.audit_report();
            let obs = t.span("obs.report", || net.obs_report());
            (
                result,
                metrics,
                audit,
                obs,
                net.events_processed(),
                setup_ns,
            )
        }
        Some(n) => {
            let mut net = t.span("network.new", || {
                ShardedNetwork::new(topo.clone(), cfg.network, cfg.routing, routing_seed, n)
            });
            note_network_new(&mut memory, growth(before, t.rss_mb()), channels);
            let setup_ns = t.elapsed_ns();
            let result = t.span("core.mpi.run", || {
                MpiDriver::new(&mut net, &trace, &placement, None).run()
            });
            let mut parts = t.span("network.shard.finish", || net.finish());
            let before = t.rss_mb();
            let metrics = t.span("network.metrics", || parts.metrics());
            memory.extend(growth(before, t.rss_mb()).map(|mb| ("network.metrics_rss_mb", mb)));
            let audit = parts.audit_report();
            let obs = t.span("obs.report", || parts.obs_report());
            (result, metrics, audit, obs, parts.events(), setup_ns)
        }
    };
    let app_routers: HashSet<RouterId> = placement.iter().map(|&n| topo.node_router(n)).collect();
    let result = ExperimentResult {
        config: cfg.clone(),
        placement,
        rank_comm_times: result.rank_comm_time,
        rank_avg_hops: result.rank_avg_hops,
        metrics,
        app_routers,
        job_end: result.job_end,
        events,
        background_messages: result.background_messages,
        audit,
        obs,
    };
    t.span("stats.cdf", || {
        let all = MetricsFilter::All;
        std::hint::black_box((
            result.hops_cdf(),
            result.local_traffic_mb_cdf(&all),
            result.global_traffic_mb_cdf(&all),
            result.local_saturation_ms_cdf(&all),
            result.global_saturation_ms_cdf(&all),
        ));
    });

    let (mut fingerprint, completed) = t.span("bench.check", || experiment_fingerprint(&result));
    fingerprint.push("messages", trace.total_sends() as u64);
    Replay {
        fingerprint,
        jobs: 1,
        completed,
        setup_ns,
        memory,
    }
}

/// `run_service` on the serial loop, call by call: one span per arrival
/// (`step_until` + `submit`) and one for the drain.
fn replay_service(plan: &ArrivalPlan, base: &ServiceConfig, t: &mut Tracer) -> Replay {
    assert_eq!(
        base.parallelism,
        Parallelism::Serial,
        "service-easy runs serial"
    );
    let submissions = t.span("workloads.generate", || submissions(plan));
    let config = ServiceConfig {
        submissions,
        ..base.clone()
    };
    t.span("core.config.validate", || config.validate())
        .expect("invalid service config");
    let topo = t.span("topology.build", || {
        Arc::new(Topology::build(config.topology.clone()))
    });
    let mut master = Xoshiro256::seed_from(config.seed);
    let _placement = master.split(1);
    let _workloads = master.split(2);
    let routing_seed = master.split(3).next_u64();
    let mut subs = config.submissions.clone();
    subs.sort_by_key(|s| s.arrival);

    let mut memory = Vec::new();
    let before = t.rss_mb();
    let mut net = t.span("network.new", || {
        Network::new(topo.clone(), config.network, config.routing, routing_seed)
    });
    note_network_new(
        &mut memory,
        growth(before, t.rss_mb()),
        topo.channel_count(),
    );
    let mut sim = ServiceSim::new(&mut net, topo, config.admission, config.seed);
    let setup_ns = t.elapsed_ns();
    for s in &subs {
        t.span("core.service.step", || {
            sim.step_until(s.arrival);
            sim.submit(s.job, s.arrival).expect("validated submission");
        });
    }
    t.span("core.service.drain", || sim.run_to_idle());
    let (outcomes, peak_active_jobs, job_slots) = sim.finish();
    let makespan = outcomes
        .iter()
        .map(|o| o.finished_at)
        .max()
        .unwrap_or(Ns::ZERO);
    let result = ServiceResult {
        outcomes,
        makespan,
        peak_active_jobs,
        job_slots,
        events: net.events_processed(),
        audit: net.audit_report(),
        obs: t.span("obs.report", || net.obs_report()),
    };
    let (fingerprint, completed) = t.span("bench.check", || service_fingerprint(&result, &subs));
    Replay {
        fingerprint,
        jobs: subs.len() as u64,
        completed,
        setup_ns,
        memory,
    }
}

/// Resident-set growth in MB across a call (traced runs only).
fn growth(before: Option<f64>, after: Option<f64>) -> Option<f64> {
    Some(after? - before?)
}

/// Record network construction's resident-set growth, in MB and in bytes
/// per channel of the machine.
fn note_network_new(memory: &mut Vec<(&'static str, f64)>, grown: Option<f64>, channels: usize) {
    if let Some(mb) = grown {
        memory.push(("network.new_rss_mb", mb));
        memory.push((
            "network.bytes_per_channel",
            mb * 1048576.0 / channels as f64,
        ));
    }
}

/// Exact outputs of an experiment, and whether its one job completed:
/// every rank finished, no later than the job end.
pub fn experiment_fingerprint(r: &ExperimentResult) -> (Fingerprint, u64) {
    let ranks = r.config.app.ranks() as usize;
    let finished = r
        .rank_comm_times
        .iter()
        .filter(|&&t| t > Ns::ZERO && t <= r.job_end)
        .count();
    let mut fp = Fingerprint::default();
    fp.push("events", r.events);
    fp.push("job_end_ns", r.job_end.0);
    fp.push("comm_digest", fnv(r.rank_comm_times.iter().map(|t| t.0)));
    fp.push(
        "placement_digest",
        fnv(r.placement.iter().map(|n| n.0 as u64)),
    );
    fp.push("ranks_completed", finished as u64);
    if let Some(obs) = &r.obs {
        fp.push("obs_windows", obs.series.samples().len() as u64);
        for kind in EventKind::ALL {
            fp.push(kind.label(), obs.profile.counts[kind.index()]);
        }
    }
    let obs_consistent = r
        .obs
        .as_ref()
        .is_none_or(|o| o.profile.total_events() == r.events);
    let completed = finished == ranks && r.events > 0 && obs_consistent;
    (fp, completed as u64)
}

/// Exact outputs of a service stream, and how many of `subs` completed
/// with a consistent record (admitted after arrival, finished after
/// admission, each job exactly once).
pub fn service_fingerprint(r: &ServiceResult, subs: &[ServiceSubmission]) -> (Fingerprint, u64) {
    let mut seen = vec![false; subs.len()];
    let mut completed = 0u64;
    for o in &r.outcomes {
        let Some(slot) = seen.get_mut(o.uid as usize) else {
            continue;
        };
        if !*slot && o.arrival <= o.started_at && o.started_at <= o.finished_at {
            *slot = true;
            completed += 1;
        }
    }
    let digest = fnv(r.outcomes.iter().flat_map(|o| {
        [
            o.uid,
            o.tenant as u64,
            fnv(o.label.bytes().map(u64::from)),
            o.ranks as u64,
            o.arrival.0,
            o.started_at.0,
            o.finished_at.0,
            fnv(format!("{:?}", o.placement).bytes().map(u64::from)),
            o.groups as u64,
            o.blast_radius as u64,
        ]
    }));
    let mut fp = Fingerprint::default();
    fp.push("events", r.events);
    fp.push("makespan_ns", r.makespan.0);
    fp.push("outcome_digest", digest);
    fp.push("jobs_completed", completed);
    fp.push("peak_active_jobs", r.peak_active_jobs as u64);
    fp.push("job_slots", r.job_slots as u64);
    (fp, completed)
}
