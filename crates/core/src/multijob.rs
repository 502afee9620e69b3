//! Multi-job co-run experiments.
//!
//! The paper simulates the multi-job production environment with
//! *synthetic* background traffic (Section IV-C); its predecessor study
//! (Yang et al., SC'16 — the "bully" paper) co-runs real applications.
//! This module supports both full co-runs of traced applications and the
//! paper's app-plus-synthetic setup, with per-job metrics, extending the
//! reproduction toward the "diversified workloads" future work the paper
//! announces.

use crate::config::{AppSelection, RoutingPolicy, SeedStreams};
use crate::mpi::{JobResult, MultiDriver};
use dfly_engine::Ns;
use dfly_network::{MetricsFilter, Network, NetworkMetrics, NetworkParams};
use dfly_placement::{NodePool, PlacementPolicy};
use dfly_stats::BoxStats;
use dfly_topology::{NodeId, RouterId, Topology, TopologyConfig};
use dfly_workloads::{check_msg_scale, generate};
use std::collections::HashSet;
use std::sync::Arc;

/// One job of a co-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// The application.
    pub app: AppSelection,
    /// Placement policy for this job.
    pub placement: PlacementPolicy,
    /// Message-size multiplier.
    pub msg_scale: f64,
}

impl JobSpec {
    /// A job at the paper's size with original loads.
    pub fn new(app: AppSelection, placement: PlacementPolicy) -> JobSpec {
        JobSpec {
            app,
            placement,
            msg_scale: 1.0,
        }
    }
}

/// A whole co-run configuration. Jobs are allocated in order from one
/// shared node pool, so earlier jobs get first pick — exactly how a batch
/// scheduler fills a machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiJobConfig {
    /// Machine shape.
    pub topology: TopologyConfig,
    /// Network parameters.
    pub network: NetworkParams,
    /// System-wide routing mechanism.
    pub routing: RoutingPolicy,
    /// The co-running jobs.
    pub jobs: Vec<JobSpec>,
    /// Master seed.
    pub seed: u64,
}

impl MultiJobConfig {
    /// Validate the whole configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.topology.validate()?;
        self.network.validate()?;
        if self.jobs.is_empty() {
            return Err("need at least one job".into());
        }
        let total: u64 = self.jobs.iter().map(|j| j.app.ranks() as u64).sum();
        if total > self.topology.total_nodes() as u64 {
            return Err(format!(
                "jobs need {total} nodes but the machine has {}",
                self.topology.total_nodes()
            ));
        }
        for (i, j) in self.jobs.iter().enumerate() {
            check_msg_scale(j.msg_scale).map_err(|e| format!("job {i}: {e}"))?;
        }
        Ok(())
    }
}

/// Per-job outcome of a co-run.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The spec this outcome belongs to.
    pub spec: JobSpec,
    /// Nodes the job ran on.
    pub placement: Vec<NodeId>,
    /// Raw per-rank results.
    pub result: JobResult,
    /// Routers serving this job.
    pub routers: HashSet<RouterId>,
}

impl JobOutcome {
    /// Box statistics of this job's per-rank communication time (ms).
    pub fn comm_time_stats(&self) -> BoxStats {
        BoxStats::from_samples(&self.result.comm_times_ms()).expect("at least one rank")
    }

    /// Metrics filter restricted to this job's routers (borrows the set).
    pub fn filter(&self) -> MetricsFilter<'_> {
        MetricsFilter::Routers(&self.routers)
    }
}

/// Outcome of a whole co-run.
#[derive(Debug, Clone)]
pub struct MultiJobResult {
    /// Per-job outcomes, in config order.
    pub jobs: Vec<JobOutcome>,
    /// Network metrics at the end of the run.
    pub metrics: NetworkMetrics,
    /// Completion time of the last job.
    pub makespan: Ns,
}

/// Run a co-run configuration.
pub fn run_multijob(config: &MultiJobConfig) -> MultiJobResult {
    config.validate().expect("invalid multi-job config");
    let topo = Arc::new(Topology::build(config.topology.clone()));

    let seeds = SeedStreams::new(config.seed);
    let mut placement_rng = seeds.placement;

    // Allocate all jobs from one pool, in order.
    let mut pool = NodePool::new(&topo);
    let mut placements = Vec::with_capacity(config.jobs.len());
    for job in &config.jobs {
        let nodes = job
            .placement
            .allocate(&topo, &mut pool, job.app.ranks(), &mut placement_rng)
            .expect("validated config cannot over-allocate");
        placements.push(nodes);
    }
    let traces: Vec<_> = config
        .jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            generate(
                &job.app
                    .spec(job.msg_scale, seeds.workload ^ (i as u64) << 32),
            )
        })
        .collect();

    let mut net = Network::new(topo.clone(), config.network, config.routing, seeds.routing);
    let job_refs: Vec<(&dfly_workloads::JobTrace, &[NodeId])> = traces
        .iter()
        .zip(&placements)
        .map(|(t, p)| (t, p.as_slice()))
        .collect();
    let results = MultiDriver::new(&mut net, &job_refs, None).run();
    let metrics = net.metrics();

    let jobs: Vec<JobOutcome> = config
        .jobs
        .iter()
        .zip(placements)
        .zip(results)
        .map(|((spec, placement), result)| {
            let routers = placement.iter().map(|&n| topo.node_router(n)).collect();
            JobOutcome {
                spec: *spec,
                placement,
                result,
                routers,
            }
        })
        .collect();
    let makespan = jobs
        .iter()
        .map(|j| j.result.job_end)
        .max()
        .unwrap_or(Ns::ZERO);
    MultiJobResult {
        jobs,
        metrics,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(jobs: Vec<JobSpec>) -> MultiJobConfig {
        MultiJobConfig {
            topology: TopologyConfig::small_test(),
            network: NetworkParams::default(),
            routing: RoutingPolicy::Adaptive,
            jobs,
            seed: 0xC0DE,
        }
    }

    #[test]
    fn single_job_co_run_matches_shape() {
        let r = run_multijob(&cfg(vec![JobSpec {
            app: AppSelection::Amg { ranks: 27 },
            placement: PlacementPolicy::Contiguous,
            msg_scale: 0.5,
        }]));
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.jobs[0].result.rank_comm_time.len(), 27);
        assert_eq!(r.makespan, r.jobs[0].result.job_end);
        assert!(!r.jobs[0].routers.is_empty());
    }

    #[test]
    fn corun_bully_effect() {
        // AMG alone vs AMG next to a heavy CR: the co-run must be slower.
        let amg = JobSpec {
            app: AppSelection::Amg { ranks: 16 },
            placement: PlacementPolicy::RandomNode,
            msg_scale: 1.0,
        };
        let cr = JobSpec {
            app: AppSelection::CrystalRouter { ranks: 32 },
            placement: PlacementPolicy::RandomNode,
            msg_scale: 1.0,
        };
        let solo = run_multijob(&cfg(vec![amg]));
        let corun = run_multijob(&cfg(vec![amg, cr]));
        let solo_med = solo.jobs[0].comm_time_stats().median;
        let corun_med = corun.jobs[0].comm_time_stats().median;
        assert!(
            corun_med > solo_med,
            "bully effect missing: solo {solo_med:.3} vs co-run {corun_med:.3}"
        );
    }

    #[test]
    fn jobs_allocated_disjoint_in_order() {
        let r = run_multijob(&cfg(vec![
            JobSpec {
                app: AppSelection::CrystalRouter { ranks: 16 },
                placement: PlacementPolicy::Contiguous,
                msg_scale: 0.1,
            },
            JobSpec {
                app: AppSelection::Amg { ranks: 16 },
                placement: PlacementPolicy::Contiguous,
                msg_scale: 0.1,
            },
        ]));
        let a: HashSet<_> = r.jobs[0].placement.iter().collect();
        assert!(r.jobs[1].placement.iter().all(|n| !a.contains(n)));
        // First contiguous job gets the lowest nodes.
        assert_eq!(r.jobs[0].placement[0], NodeId(0));
        assert_eq!(r.jobs[1].placement[0], NodeId(16));
    }

    #[test]
    fn validate_rejects_overcommit() {
        let c = cfg(vec![
            JobSpec {
                app: AppSelection::CrystalRouter { ranks: 40 },
                placement: PlacementPolicy::RandomNode,
                msg_scale: 1.0,
            },
            JobSpec {
                app: AppSelection::Amg { ranks: 40 },
                placement: PlacementPolicy::RandomNode,
                msg_scale: 1.0,
            },
        ]);
        assert!(c.validate().is_err());
        assert!(cfg(vec![]).validate().is_err());
    }

    #[test]
    fn validate_rejects_non_finite_scale() {
        for bad in [f64::INFINITY, f64::NAN] {
            let c = cfg(vec![JobSpec {
                app: AppSelection::CrystalRouter { ranks: 8 },
                placement: PlacementPolicy::RandomNode,
                msg_scale: bad,
            }]);
            let err = c.validate().unwrap_err();
            assert!(err.contains("job 0: msg_scale"), "{bad}: {err}");
        }
    }

    #[test]
    fn deterministic() {
        let c = cfg(vec![
            JobSpec {
                app: AppSelection::FillBoundary { ranks: 16 },
                placement: PlacementPolicy::RandomRouter,
                msg_scale: 0.2,
            },
            JobSpec {
                app: AppSelection::Amg { ranks: 16 },
                placement: PlacementPolicy::RandomNode,
                msg_scale: 0.5,
            },
        ]);
        let a = run_multijob(&c);
        let b = run_multijob(&c);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.result, y.result);
            assert_eq!(x.placement, y.placement);
        }
    }
}
