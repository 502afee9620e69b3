//! A batch-scheduler substrate: jobs arrive over time, wait in an FCFS
//! queue, get placed by a policy when enough nodes are free, run under
//! network interference from their co-runners, and release their nodes on
//! completion.
//!
//! The paper motivates its study with exactly this loop: interference
//! makes runtimes unpredictable, which makes batch scheduling decisions
//! poor (its refs [6], [7]). This module closes the loop — it measures
//! queueing delay *and* interference slowdown per job under each placement
//! policy, on the same packet-level network as every other experiment.
//!
//! `run_schedule` is the batch FCFS front-end over [`run_service`], so a
//! scheduled job runs through the same rank engine, slot recycling,
//! tag-width checks and engine selection as a service stream.

use crate::config::{Parallelism, RoutingPolicy};
use crate::mpi::JOB_SLOTS;
use crate::multijob::JobSpec;
use crate::service::{
    run_service, AdmissionPolicy, PlacementChoice, ServiceConfig, ServiceJob, ServiceSubmission,
    ServiceWorkload,
};
use dfly_engine::Ns;
use dfly_network::NetworkParams;
use dfly_topology::TopologyConfig;

/// A job submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Submission {
    /// What to run and how to place it.
    pub job: JobSpec,
    /// When the job enters the queue.
    pub arrival: Ns,
}

impl Submission {
    /// The service-mode job this submission runs as: fixed placement, one
    /// tenant, no runtime estimate (FCFS never reads it).
    fn service_job(&self) -> ServiceJob {
        ServiceJob {
            workload: ServiceWorkload::App(self.job.app),
            placement: PlacementChoice::Fixed(self.job.placement),
            msg_scale: self.job.msg_scale,
            tenant: 0,
            estimate: Ns::ZERO,
        }
    }
}

/// Scheduler experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Machine shape.
    pub topology: TopologyConfig,
    /// Network parameters.
    pub network: NetworkParams,
    /// System-wide routing.
    pub routing: RoutingPolicy,
    /// The submission stream (any order; sorted by arrival internally).
    pub submissions: Vec<Submission>,
    /// Master seed.
    pub seed: u64,
    /// Execution engine: serial loop or group-sharded PDES.
    pub parallelism: Parallelism,
}

impl SchedulerConfig {
    /// Validate, naming the offending field: the stream length against
    /// the 16-bit job-id tag field (longer open-ended streams belong to
    /// service mode, which recycles slots explicitly), then everything
    /// [`ServiceConfig::validate`] checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.submissions.len() > JOB_SLOTS {
            return Err(format!(
                "submissions: {} jobs exceed the {JOB_SLOTS} job-id tag slots; \
                 use run_service for longer streams",
                self.submissions.len()
            ));
        }
        self.service_config(&self.submissions).validate()
    }

    /// The FCFS service run of `submissions` on this machine.
    fn service_config(&self, submissions: &[Submission]) -> ServiceConfig {
        ServiceConfig {
            topology: self.topology.clone(),
            network: self.network,
            routing: self.routing,
            admission: AdmissionPolicy::Fcfs,
            submissions: submissions
                .iter()
                .map(|s| ServiceSubmission {
                    job: s.service_job(),
                    arrival: s.arrival,
                })
                .collect(),
            seed: self.seed,
            parallelism: self.parallelism,
        }
    }
}

/// Per-job outcome of a scheduler run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledJob {
    /// The submission this outcome belongs to.
    pub submission: Submission,
    /// When the job started (allocation succeeded).
    pub started_at: Ns,
    /// When the job's last rank finished.
    pub finished_at: Ns,
    /// Queueing delay (`started_at - arrival`).
    pub wait: Ns,
    /// Communication runtime (`finished_at - started_at`).
    pub runtime: Ns,
}

/// Outcome of a whole scheduler run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// Jobs in completion order.
    pub jobs: Vec<ScheduledJob>,
    /// Total makespan (last completion).
    pub makespan: Ns,
    /// Most jobs ever running at once.
    pub peak_active_jobs: usize,
    /// Job slots the run materialized — bounded by peak concurrency, not
    /// by `jobs.len()`, because finished jobs retire and recycle.
    pub job_slots: usize,
}

/// Run a scheduler experiment: the submission stream under strict FCFS
/// admission on the engine selected by `config.parallelism`.
pub fn run_schedule(config: &SchedulerConfig) -> ScheduleResult {
    config.validate().expect("invalid scheduler config");
    let mut sorted = config.submissions.clone();
    sorted.sort_by_key(|s| s.arrival);
    let result = run_service(&config.service_config(&sorted));
    // Outcome uids are submission indices in arrival order — exactly the
    // indices of `sorted`.
    let jobs = result
        .outcomes
        .iter()
        .map(|o| ScheduledJob {
            submission: sorted[o.uid as usize],
            started_at: o.started_at,
            finished_at: o.finished_at,
            wait: o.wait,
            runtime: o.runtime,
        })
        .collect();
    ScheduleResult {
        jobs,
        makespan: result.makespan,
        peak_active_jobs: result.peak_active_jobs,
        job_slots: result.job_slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AppSelection;
    use crate::mpi::MAX_RANKS;
    use dfly_placement::PlacementPolicy;

    fn job(app: AppSelection, placement: PlacementPolicy) -> JobSpec {
        JobSpec {
            app,
            placement,
            msg_scale: 0.3,
        }
    }

    fn cfg(submissions: Vec<Submission>) -> SchedulerConfig {
        SchedulerConfig {
            topology: TopologyConfig::small_test(),
            network: NetworkParams::default(),
            routing: RoutingPolicy::Adaptive,
            submissions,
            seed: 0xF1F0,
            parallelism: Parallelism::Serial,
        }
    }

    #[test]
    fn single_job_runs_immediately() {
        let r = run_schedule(&cfg(vec![Submission {
            job: job(AppSelection::Amg { ranks: 27 }, PlacementPolicy::Contiguous),
            arrival: Ns::ZERO,
        }]));
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.jobs[0].wait, Ns::ZERO);
        assert!(r.jobs[0].runtime > Ns::ZERO);
        assert_eq!(r.makespan, r.jobs[0].finished_at);
    }

    #[test]
    fn arrival_time_delays_start() {
        let arrival = Ns::from_us(500);
        let r = run_schedule(&cfg(vec![Submission {
            job: job(AppSelection::Amg { ranks: 16 }, PlacementPolicy::Contiguous),
            arrival,
        }]));
        assert_eq!(r.jobs[0].started_at, arrival);
        assert_eq!(r.jobs[0].wait, Ns::ZERO);
    }

    #[test]
    fn oversubscribed_machine_queues_fcfs() {
        // Two 40-node jobs on a 64-node machine: the second must wait for
        // the first to finish.
        let a = Submission {
            job: job(
                AppSelection::CrystalRouter { ranks: 40 },
                PlacementPolicy::Contiguous,
            ),
            arrival: Ns::ZERO,
        };
        let b = Submission {
            job: job(
                AppSelection::FillBoundary { ranks: 40 },
                PlacementPolicy::Contiguous,
            ),
            arrival: Ns(1),
        };
        let r = run_schedule(&cfg(vec![a, b]));
        assert_eq!(r.jobs.len(), 2);
        let first = &r.jobs[0];
        let second = &r.jobs[1];
        assert_eq!(first.submission.arrival, Ns::ZERO);
        assert_eq!(second.started_at, first.finished_at);
        assert!(second.wait > Ns::ZERO);
    }

    #[test]
    fn concurrent_jobs_share_and_interfere() {
        // Two 16-node jobs fit together; the second's runtime exceeds its
        // solo runtime because they share the network.
        let solo = run_schedule(&cfg(vec![Submission {
            job: job(AppSelection::Amg { ranks: 16 }, PlacementPolicy::RandomNode),
            arrival: Ns::ZERO,
        }]));
        let both = run_schedule(&cfg(vec![
            Submission {
                job: job(
                    AppSelection::CrystalRouter { ranks: 32 },
                    PlacementPolicy::RandomNode,
                ),
                arrival: Ns::ZERO,
            },
            Submission {
                job: job(AppSelection::Amg { ranks: 16 }, PlacementPolicy::RandomNode),
                arrival: Ns::ZERO,
            },
        ]));
        let amg_solo = solo.jobs[0].runtime;
        let amg_corun = both
            .jobs
            .iter()
            .find(|j| j.submission.job.app.ranks() == 16)
            .unwrap()
            .runtime;
        assert!(
            amg_corun > amg_solo,
            "co-scheduled AMG {amg_corun} should exceed solo {amg_solo}"
        );
    }

    #[test]
    fn nodes_are_reusable_across_jobs() {
        // Three sequential full-machine jobs: each reuses all 64 nodes.
        let subs: Vec<Submission> = (0..3)
            .map(|i| Submission {
                job: job(AppSelection::Amg { ranks: 64 }, PlacementPolicy::Contiguous),
                arrival: Ns(i),
            })
            .collect();
        let r = run_schedule(&cfg(subs));
        assert_eq!(r.jobs.len(), 3);
        for w in r.jobs.windows(2) {
            assert!(w[1].started_at >= w[0].finished_at);
        }
        // Strictly sequential jobs reuse one recycled slot.
        assert_eq!(r.peak_active_jobs, 1);
        assert_eq!(r.job_slots, 1);
    }

    #[test]
    fn deterministic() {
        let subs = vec![
            Submission {
                job: job(
                    AppSelection::CrystalRouter { ranks: 24 },
                    PlacementPolicy::RandomNode,
                ),
                arrival: Ns::ZERO,
            },
            Submission {
                job: job(
                    AppSelection::Amg { ranks: 27 },
                    PlacementPolicy::RandomChassis,
                ),
                arrival: Ns::from_us(50),
            },
        ];
        let a = run_schedule(&cfg(subs.clone()));
        let b = run_schedule(&cfg(subs));
        assert_eq!(a, b);
    }

    #[test]
    fn validate_rejects_bad_submissions() {
        assert!(cfg(vec![]).validate().is_err());
        let too_big = cfg(vec![Submission {
            job: job(
                AppSelection::CrystalRouter { ranks: 100 },
                PlacementPolicy::Contiguous,
            ),
            arrival: Ns::ZERO,
        }]);
        assert!(too_big.validate().is_err());
        let mut zero_workers = cfg(vec![Submission {
            job: job(AppSelection::Amg { ranks: 16 }, PlacementPolicy::Contiguous),
            arrival: Ns::ZERO,
        }]);
        zero_workers.parallelism = Parallelism::IntraRun(0);
        let err = zero_workers.validate().unwrap_err();
        assert!(err.contains("parallelism"), "{err}");
    }

    #[test]
    fn validate_rejects_job_id_tag_overflow_at_boundary() {
        // The job-id tag field is 16 bits: 65536 submissions are the most
        // a batch config may carry. The pre-fix scheduler accepted any
        // count and silently aliased job 65536 onto job 0's tag space.
        let one = Submission {
            job: job(AppSelection::Amg { ranks: 1 }, PlacementPolicy::Contiguous),
            arrival: Ns::ZERO,
        };
        let at_limit = cfg(vec![one; JOB_SLOTS]);
        assert!(at_limit.validate().is_ok());
        let over = cfg(vec![one; JOB_SLOTS + 1]);
        let err = over.validate().unwrap_err();
        assert!(err.contains("job-id tag slots"), "{err}");
    }

    #[test]
    fn validate_rejects_rank_tag_overflow() {
        // A machine bigger than the 24-bit rank field (1024*64*257 ≈ 16.8M
        // nodes) lets a fitting job still overflow the tag; the width
        // check must fire where the old machine-size check would pass.
        let mut c = cfg(vec![Submission {
            job: job(
                AppSelection::Amg {
                    ranks: MAX_RANKS + 1,
                },
                PlacementPolicy::Contiguous,
            ),
            arrival: Ns::ZERO,
        }]);
        c.topology = TopologyConfig::canonical(1024, 64, 4, 257);
        assert!(c.topology.total_nodes() > MAX_RANKS);
        let err = c.validate().unwrap_err();
        assert!(err.contains("rank tag field"), "{err}");
    }

    #[test]
    fn many_short_jobs_recycle_slots() {
        // 100 quick jobs, mostly sequential: the pre-fix scheduler kept
        // all 100 RunningJob traces alive; the service substrate retires
        // them, so the slot high-water mark tracks peak concurrency.
        let subs: Vec<Submission> = (0..100)
            .map(|i| Submission {
                job: job(AppSelection::Amg { ranks: 27 }, PlacementPolicy::Contiguous),
                arrival: Ns(i * 500),
            })
            .collect();
        let r = run_schedule(&cfg(subs));
        assert_eq!(r.jobs.len(), 100);
        assert!(
            r.job_slots <= 2,
            "at most two 27-rank jobs fit a 64-node machine, yet {} slots materialized",
            r.job_slots
        );
        assert_eq!(r.job_slots, r.peak_active_jobs);
    }

    #[test]
    fn intra_run_parallelism_is_honored_and_deterministic() {
        // The pre-fix scheduler silently ran serial regardless of the
        // config. Now the sharded engine drives the same stream; results
        // are deterministic and complete.
        let subs = vec![
            Submission {
                job: job(
                    AppSelection::CrystalRouter { ranks: 24 },
                    PlacementPolicy::RandomNode,
                ),
                arrival: Ns::ZERO,
            },
            Submission {
                job: job(AppSelection::Amg { ranks: 16 }, PlacementPolicy::Contiguous),
                arrival: Ns::from_us(20),
            },
        ];
        let mut c = cfg(subs);
        c.parallelism = Parallelism::IntraRun(2);
        let a = run_schedule(&c);
        let b = run_schedule(&c);
        assert_eq!(a, b);
        assert_eq!(a.jobs.len(), 2);
    }
}
