//! Integration tests for the continuous service mode and the scheduler
//! substrate it replaced: two-run byte-identity over a realistic Poisson
//! stream, conservation-audit cleanliness, and the admission
//! re-attempt-on-completion regression (a blocked head must start the
//! instant its blocker finishes, and must not wedge fitting followers).

use dragonfly_tradeoff::core::config::{AppSelection, Parallelism, RoutingPolicy};
use dragonfly_tradeoff::core::multijob::{run_multijob, JobSpec, MultiJobConfig};
use dragonfly_tradeoff::core::scheduler::{run_schedule, SchedulerConfig, Submission};
use dragonfly_tradeoff::core::service::{
    run_service, tenant_slos, AdmissionPolicy, PlacementChoice, ServiceConfig, ServiceJob,
    ServiceSubmission, ServiceWorkload,
};
use dragonfly_tradeoff::engine::Ns;
use dragonfly_tradeoff::network::NetworkParams;
use dragonfly_tradeoff::placement::PlacementPolicy;
use dragonfly_tradeoff::topology::TopologyConfig;
use dragonfly_tradeoff::workloads::{poisson_arrivals, ArrivalPlan};

fn poisson_service_cfg(admission: AdmissionPolicy, jobs: u32) -> ServiceConfig {
    // A mixed CR/FB/AMG + background stream sized for the 64-node test
    // machine; `min_jobs` extends the stream until the floor is met.
    let arrivals = poisson_arrivals(&ArrivalPlan {
        rate_per_ms: 4.0,
        duration: Ns::from_ms(2),
        min_jobs: jobs,
        background_share: 0.25,
        min_ranks: 4,
        max_ranks: 24,
        msg_scale: 0.25,
        seed: 0x5EAC,
    });
    ServiceConfig {
        topology: TopologyConfig::small_test(),
        network: NetworkParams::default(),
        routing: RoutingPolicy::Adaptive,
        admission,
        submissions: arrivals
            .iter()
            .map(|a| ServiceSubmission {
                job: ServiceJob::from_arrival(a),
                arrival: a.at,
            })
            .collect(),
        seed: 0xD06,
        parallelism: Parallelism::Serial,
    }
}

#[test]
fn service_poisson_stream_two_runs_byte_identical() {
    let cfg = poisson_service_cfg(AdmissionPolicy::EasyBackfill, 60);
    let a = run_service(&cfg);
    let b = run_service(&cfg);
    assert_eq!(
        a.outcomes, b.outcomes,
        "same config must reproduce the identical result"
    );
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events, b.events);
    assert_eq!(a.job_slots, b.job_slots);
    assert_eq!(a.outcomes.len(), cfg.submissions.len());
    assert_eq!(tenant_slos(&a.outcomes), tenant_slos(&b.outcomes));
}

#[test]
fn service_poisson_stream_audit_clean() {
    let mut cfg = poisson_service_cfg(AdmissionPolicy::EasyBackfill, 40);
    cfg.network.audit = true;
    let r = run_service(&cfg);
    let audit = r.audit.expect("audit enabled");
    assert!(audit.is_clean(), "conservation audit violated: {audit:?}");
}

#[test]
fn service_state_bounded_on_long_stream() {
    // Far more jobs than ever run concurrently: the slot high-water mark
    // must track peak concurrency, not stream length (the old scheduler
    // kept every finished job's trace and rank state alive forever).
    let cfg = poisson_service_cfg(AdmissionPolicy::EasyBackfill, 120);
    let r = run_service(&cfg);
    assert!(cfg.submissions.len() >= 120);
    assert_eq!(r.outcomes.len(), cfg.submissions.len());
    assert!(
        r.job_slots <= 16,
        "{} slots materialized for a 64-node machine (peak active {})",
        r.job_slots,
        r.peak_active_jobs
    );
    assert_eq!(r.job_slots, r.peak_active_jobs);
}

fn scheduler_cfg(submissions: Vec<Submission>) -> SchedulerConfig {
    SchedulerConfig {
        topology: TopologyConfig::small_test(),
        network: NetworkParams::default(),
        routing: RoutingPolicy::Adaptive,
        submissions,
        seed: 0xBEEF,
        parallelism: Parallelism::Serial,
    }
}

fn sub(app: AppSelection, arrival: Ns) -> Submission {
    Submission {
        job: JobSpec {
            app,
            placement: PlacementPolicy::Contiguous,
            msg_scale: 0.3,
        },
        arrival,
    }
}

#[test]
fn scheduler_two_runs_byte_identical() {
    let subs = vec![
        sub(AppSelection::CrystalRouter { ranks: 24 }, Ns::ZERO),
        sub(AppSelection::Amg { ranks: 27 }, Ns::from_us(30)),
        sub(AppSelection::FillBoundary { ranks: 16 }, Ns::from_us(60)),
    ];
    let a = run_schedule(&scheduler_cfg(subs.clone()));
    let b = run_schedule(&scheduler_cfg(subs));
    assert_eq!(a, b);
}

#[test]
fn admission_reattempts_on_completion() {
    // Regression: a head job too big to start must be admitted the
    // instant its blocker completes — admission re-runs on every network
    // event, not only on arrivals. A fitting follower behind it must also
    // start (under FCFS, after the head; never wedged).
    let subs = vec![
        sub(AppSelection::CrystalRouter { ranks: 48 }, Ns::ZERO),
        sub(AppSelection::FillBoundary { ranks: 48 }, Ns(1)),
        sub(AppSelection::Amg { ranks: 8 }, Ns(2)),
    ];
    let r = run_schedule(&scheduler_cfg(subs));
    assert_eq!(r.jobs.len(), 3, "every job must eventually run");
    let by_arrival = |at: Ns| {
        r.jobs
            .iter()
            .find(|j| j.submission.arrival == at)
            .expect("job completed")
    };
    let head = by_arrival(Ns::ZERO);
    let blocked = by_arrival(Ns(1));
    let follower = by_arrival(Ns(2));
    assert_eq!(
        blocked.started_at, head.finished_at,
        "blocked head must start exactly when its blocker finishes"
    );
    assert!(
        follower.started_at >= blocked.started_at,
        "FCFS order holds"
    );
    assert!(follower.finished_at > follower.started_at);
}

#[test]
fn easy_backfill_starts_fitting_follower_early() {
    // The same head-blocker shape under EASY backfill: the 8-rank
    // follower fits beside the running 48-rank job without delaying the
    // blocked head's reservation, so it starts immediately instead.
    let app = |ranks| ServiceJob {
        workload: ServiceWorkload::App(AppSelection::Amg { ranks }),
        placement: PlacementChoice::Fixed(PlacementPolicy::Contiguous),
        msg_scale: 0.3,
        tenant: 2,
        estimate: Ns::from_us(300),
    };
    let submissions = vec![
        ServiceSubmission {
            job: app(48),
            arrival: Ns::ZERO,
        },
        ServiceSubmission {
            job: app(48),
            arrival: Ns(1),
        },
        ServiceSubmission {
            job: app(8),
            arrival: Ns(2),
        },
    ];
    let cfg = ServiceConfig {
        topology: TopologyConfig::small_test(),
        network: NetworkParams::default(),
        routing: RoutingPolicy::Adaptive,
        admission: AdmissionPolicy::EasyBackfill,
        submissions,
        seed: 0xBEEF,
        parallelism: Parallelism::Serial,
    };
    let r = run_service(&cfg);
    let started = |uid: u64| r.outcomes.iter().find(|o| o.uid == uid).unwrap().started_at;
    assert_eq!(started(2), Ns(2), "follower backfills into the surplus now");
    assert!(
        started(1) > started(2),
        "blocked head keeps its later start"
    );
}

#[test]
fn sharded_service_run_completes_and_reproduces() {
    let mut cfg = poisson_service_cfg(AdmissionPolicy::EasyBackfill, 30);
    cfg.parallelism = Parallelism::IntraRun(2);
    let a = run_service(&cfg);
    let b = run_service(&cfg);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events, b.events);
    assert_eq!(a.outcomes.len(), cfg.submissions.len());
}

#[test]
fn all_at_zero_schedule_matches_multijob_corun() {
    // The two front-ends of the one rank engine agree: an FCFS schedule
    // whose jobs all arrive at t=0 and all fit is the same co-run as
    // run_multijob on the same jobs and seed — same placements drawn in
    // the same order, same workload seeds, same finish time per job.
    let jobs = [
        JobSpec {
            app: AppSelection::CrystalRouter { ranks: 24 },
            placement: PlacementPolicy::RandomNode,
            msg_scale: 0.3,
        },
        JobSpec {
            app: AppSelection::Amg { ranks: 27 },
            placement: PlacementPolicy::Contiguous,
            msg_scale: 0.3,
        },
        JobSpec {
            app: AppSelection::FillBoundary { ranks: 8 },
            placement: PlacementPolicy::RandomRouter,
            msg_scale: 0.3,
        },
    ];
    for seed in [1, 7, 0xC0DE] {
        let corun = run_multijob(&MultiJobConfig {
            topology: TopologyConfig::small_test(),
            network: NetworkParams::default(),
            routing: RoutingPolicy::Adaptive,
            jobs: jobs.to_vec(),
            seed,
        });
        let schedule = run_schedule(&SchedulerConfig {
            seed,
            ..scheduler_cfg(
                jobs.iter()
                    .map(|&job| Submission {
                        job,
                        arrival: Ns::ZERO,
                    })
                    .collect(),
            )
        });
        assert_eq!(schedule.jobs.len(), jobs.len());
        for (i, outcome) in corun.jobs.iter().enumerate() {
            let scheduled = schedule
                .jobs
                .iter()
                .find(|j| j.submission.job == jobs[i])
                .expect("every job scheduled");
            assert_eq!(scheduled.wait, Ns::ZERO, "seed {seed}: job {i} queued");
            assert_eq!(
                scheduled.finished_at, outcome.result.job_end,
                "seed {seed}: job {i} finishes differently in the two front-ends"
            );
        }
    }
}
