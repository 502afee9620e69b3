//! Whole-stack determinism: the study's config comparisons are only
//! meaningful if a config + seed pins every result bit.

use dragonfly_tradeoff::core::config::{
    AppSelection, BackgroundConfig, ExperimentConfig, Parallelism, RoutingPolicy,
};
use dragonfly_tradeoff::core::report::ConfigLabel;
use dragonfly_tradeoff::core::runner::run_experiment;
use dragonfly_tradeoff::core::sweep::run_config_grid;
use dragonfly_tradeoff::engine::{Ns, ToKv};
use dragonfly_tradeoff::network::MetricsFilter;
use dragonfly_tradeoff::placement::PlacementPolicy;
use dragonfly_tradeoff::stats::CsvWriter;
use dragonfly_tradeoff::workloads::BackgroundSpec;

fn cfg() -> ExperimentConfig {
    let mut c = ExperimentConfig::small_test();
    c.app = AppSelection::FillBoundary { ranks: 27 };
    c.placement = PlacementPolicy::RandomChassis;
    c.routing = RoutingPolicy::Adaptive;
    c.msg_scale = 0.3;
    c
}

#[test]
fn identical_runs_produce_identical_results() {
    let a = run_experiment(&cfg());
    let b = run_experiment(&cfg());
    assert_eq!(a.rank_comm_times, b.rank_comm_times);
    assert_eq!(a.rank_avg_hops, b.rank_avg_hops);
    assert_eq!(a.placement, b.placement);
    assert_eq!(a.events, b.events);
    let ta: Vec<_> = a.metrics.channels().map(|c| c.traffic_bytes).collect();
    let tb: Vec<_> = b.metrics.channels().map(|c| c.traffic_bytes).collect();
    assert_eq!(ta, tb);
}

#[test]
fn interference_runs_are_deterministic_too() {
    let mut c = cfg();
    c.app = AppSelection::Amg { ranks: 8 };
    c.background = Some(BackgroundConfig {
        spec: BackgroundSpec::uniform(32 * 1024, Ns::from_us(2), 0),
    });
    let a = run_experiment(&c);
    let b = run_experiment(&c);
    assert_eq!(a.rank_comm_times, b.rank_comm_times);
    assert_eq!(a.background_messages, b.background_messages);
    assert!(a.background_messages > 0);
}

#[test]
fn different_seed_different_random_placement_same_invariants() {
    let a = run_experiment(&cfg());
    let mut c2 = cfg();
    c2.seed = 0xDEAD_BEEF;
    let b = run_experiment(&c2);
    assert_ne!(a.placement, b.placement);
    // Invariants hold for both.
    for r in [&a, &b] {
        assert_eq!(r.rank_comm_times.len(), 27);
        assert!(r.job_end > Ns::ZERO);
    }
}

/// Render a full sweep's results the way the reproduction binaries do:
/// config echo, then one CSV row per grid cell with every per-rank value.
fn sweep_csv(cfg: &ExperimentConfig) -> Vec<u8> {
    let grid = run_config_grid(cfg, &ConfigLabel::all_ten());
    let mut w = CsvWriter::from_writer(
        Vec::new(),
        &[
            "config",
            "max_comm_ns",
            "total_traffic_bytes",
            "rank_comm_ns",
        ],
    )
    .unwrap();
    for cell in &grid {
        let ranks = cell
            .result
            .rank_comm_times
            .iter()
            .map(|t| t.0.to_string())
            .collect::<Vec<_>>()
            .join(";");
        let traffic: u64 = cell
            .result
            .metrics
            .channels()
            .map(|c| c.traffic_bytes)
            .sum();
        w.row(&[
            cell.label.to_string(),
            cell.result.max_comm_time().0.to_string(),
            traffic.to_string(),
            ranks,
        ])
        .unwrap();
    }
    let mut bytes = cfg.kv_echo().into_bytes();
    bytes.extend(w.finish().unwrap());
    bytes
}

/// The sweep runner fans simulations out over worker threads; a guard for
/// the `parking_lot` -> `std::sync::Mutex` rewrite that result order and
/// content stay independent of thread scheduling: two full sweeps with the
/// same seed must produce byte-identical CSV output.
#[test]
fn sweep_runs_produce_byte_identical_csv() {
    let mut c = cfg();
    c.msg_scale = 0.05; // keep the 10-cell grid fast
    let a = sweep_csv(&c);
    let b = sweep_csv(&c);
    assert!(!a.is_empty());
    assert_eq!(a, b, "two identically-seeded sweeps diverged");
}

#[test]
fn audited_runs_are_bit_identical_to_unaudited() {
    // The conservation auditor only *observes*: turning it on must not
    // perturb a single event, timestamp, or byte of the simulation.
    let mut audited = cfg();
    audited.network.audit = true;
    audited.background = Some(BackgroundConfig {
        spec: BackgroundSpec::bursty(128 * 1024, Ns::from_us(60), 4, 0),
    });
    let mut plain = audited.clone();
    plain.network.audit = false;

    let a = run_experiment(&audited);
    let p = run_experiment(&plain);
    assert!(a.audit.as_ref().expect("audit enabled").is_clean());
    assert!(p.audit.is_none());
    assert_eq!(a.rank_comm_times, p.rank_comm_times);
    assert_eq!(a.rank_avg_hops, p.rank_avg_hops);
    assert_eq!(a.placement, p.placement);
    assert_eq!(a.job_end, p.job_end);
    assert_eq!(a.events, p.events);
    assert_eq!(a.background_messages, p.background_messages);
    let ta: Vec<_> = a.metrics.channels().collect();
    let tp: Vec<_> = p.metrics.channels().collect();
    assert_eq!(ta, tp, "audited run perturbed channel metrics");
}

#[test]
fn observed_runs_are_bit_identical_to_unobserved() {
    // The telemetry layer (dfly-obs) must be a pure observer, exactly like
    // the auditor: profiling wall-clock, sweeping channel state, and
    // counting UGAL decisions may not perturb a single event, timestamp,
    // or byte of the simulation.
    let mut observed = cfg();
    observed.network.obs = true;
    observed.background = Some(BackgroundConfig {
        spec: BackgroundSpec::bursty(128 * 1024, Ns::from_us(60), 4, 0),
    });
    let mut plain = observed.clone();
    plain.network.obs = false;

    let o = run_experiment(&observed);
    let p = run_experiment(&plain);
    let report = o.obs.as_ref().expect("obs enabled");
    assert!(p.obs.is_none());
    // The samplers really ran (tamper check: an accidentally-disabled
    // collector would also pass the identity assertions below).
    assert_eq!(report.profile.total_events(), o.events);
    assert!(!report.series.samples().is_empty());
    assert!(report.vc_occupancy.readings > 0);
    for w in report.series.samples().windows(2) {
        assert!(w[1].at > w[0].at, "sample timestamps must be monotone");
    }
    assert!(report
        .series
        .samples()
        .iter()
        .all(|s| s.util.iter().all(|&u| (0.0..=1.0).contains(&u))));

    assert_eq!(o.rank_comm_times, p.rank_comm_times);
    assert_eq!(o.rank_avg_hops, p.rank_avg_hops);
    assert_eq!(o.placement, p.placement);
    assert_eq!(o.job_end, p.job_end);
    assert_eq!(o.events, p.events);
    assert_eq!(o.background_messages, p.background_messages);
    let to: Vec<_> = o.metrics.channels().collect();
    let tp: Vec<_> = p.metrics.channels().collect();
    assert_eq!(to, tp, "observed run perturbed channel metrics");
}

#[test]
fn observed_runs_are_bit_identical_at_every_stride() {
    // Stride-sampled profiling only changes *which* handler executions
    // get wall-clock timed — never the simulation. Every stride (and the
    // coarse clock) must reproduce the obs-off run bit for bit, while
    // still counting every event exactly.
    let plain = run_experiment(&cfg());
    for stride in [1u32, 7, 64, 1024] {
        let mut observed = cfg();
        observed.network.obs = true;
        observed.network.obs_stride = stride;
        observed.network.obs_coarse_clock = stride == 7; // one coarse run
        let o = run_experiment(&observed);
        let report = o.obs.as_ref().expect("obs enabled");
        assert_eq!(
            report.profile.total_events(),
            o.events,
            "stride {stride} must count every event"
        );
        assert!(
            report.profile.timed_events() > 0,
            "stride {stride} timed nothing"
        );
        if stride > 1 {
            assert!(
                report.profile.timed_events() < report.profile.total_events(),
                "stride {stride} should time a strict subset"
            );
        }
        assert_eq!(
            o.rank_comm_times, plain.rank_comm_times,
            "stride {stride} perturbed comm times"
        );
        assert_eq!(o.job_end, plain.job_end, "stride {stride} perturbed time");
        assert_eq!(o.events, plain.events, "stride {stride} perturbed events");
        let to: Vec<_> = o.metrics.channels().collect();
        let tp: Vec<_> = plain.metrics.channels().collect();
        assert_eq!(to, tp, "stride {stride} perturbed channel metrics");
    }
}

#[test]
fn observed_sweep_is_bit_identical_across_all_ten_configs() {
    // Whole-grid identity guard, obs-on vs obs-off: every placement x
    // routing cell must produce the identical simulation. (The config
    // *echo* legitimately differs — it records the obs flag — so this
    // compares the results, not `sweep_csv` bytes.)
    let mut with_obs = cfg();
    with_obs.msg_scale = 0.05;
    let mut without = with_obs.clone();
    with_obs.network.obs = true;
    without.network.obs = false;
    let go = run_config_grid(&with_obs, &ConfigLabel::all_ten());
    let gp = run_config_grid(&without, &ConfigLabel::all_ten());
    assert_eq!(go.len(), gp.len());
    for (o, p) in go.iter().zip(&gp) {
        assert_eq!(o.label, p.label);
        assert!(o.result.obs.is_some() && p.result.obs.is_none());
        assert_eq!(
            o.result.rank_comm_times, p.result.rank_comm_times,
            "telemetry perturbed cell {}",
            o.label
        );
        assert_eq!(o.result.events, p.result.events);
        assert_eq!(o.result.job_end, p.result.job_end);
        let to: Vec<_> = o.result.metrics.channels().collect();
        let tp: Vec<_> = p.result.metrics.channels().collect();
        assert_eq!(to, tp, "telemetry perturbed channels of {}", o.label);
    }
}

// ----- intra-run (PDES) worker-count matrix --------------------------------

/// Shard counts for the matrix tests; override with e.g.
/// `DFLY_DET_SHARDS=1,2,16`.
fn shard_matrix() -> Vec<u32> {
    std::env::var("DFLY_DET_SHARDS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect::<Vec<u32>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

/// Sweep worker counts for the matrix tests; override with e.g.
/// `DFLY_DET_SWEEP_WORKERS=1,4`.
fn sweep_worker_matrix() -> Vec<usize> {
    std::env::var("DFLY_DET_SWEEP_WORKERS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 8])
}

/// Everything a run pins, flattened for cross-worker-count comparison.
type RunFingerprint = (Vec<Ns>, Vec<u64>, u64, Vec<u64>);

fn fingerprint(r: &dragonfly_tradeoff::core::runner::ExperimentResult) -> RunFingerprint {
    (
        r.rank_comm_times.clone(),
        r.rank_avg_hops.iter().map(|h| h.to_bits()).collect(),
        r.events,
        r.metrics.channels().map(|c| c.traffic_bytes).collect(),
    )
}

/// The partition is per *group*, so the worker count only redistributes
/// replicas over threads: every shard count must produce the identical
/// bytes, with the auditor running and clean.
#[test]
fn all_ten_grid_identical_at_every_shard_count_audit_on() {
    let mut base = cfg();
    base.msg_scale = 0.05;
    base.network.audit = true;
    let mut reference: Option<Vec<RunFingerprint>> = None;
    for shards in shard_matrix() {
        let mut c = base.clone();
        c.parallelism = Parallelism::IntraRun(shards);
        let grid = run_config_grid(&c, &ConfigLabel::all_ten());
        for cell in &grid {
            let audit = cell.result.audit.as_ref().expect("audit on");
            assert!(audit.is_clean(), "shards={shards} {}:\n{audit}", cell.label);
        }
        let snap: Vec<RunFingerprint> = grid.iter().map(|c| fingerprint(&c.result)).collect();
        match &reference {
            None => reference = Some(snap),
            Some(r) => assert_eq!(r, &snap, "shards={shards} changed the grid"),
        }
    }
}

/// A Theta-machine run (the paper's scale) through the same matrix, with
/// telemetry on: the merged obs report must also be byte-stable.
#[test]
fn theta_run_identical_at_every_shard_count_obs_on() {
    let mut base = ExperimentConfig::theta(dragonfly_tradeoff::workloads::AppKind::CrystalRouter);
    base.app = AppSelection::CrystalRouter { ranks: 128 };
    base.msg_scale = 0.2;
    base.placement = PlacementPolicy::RandomNode;
    base.routing = RoutingPolicy::Adaptive;
    base.network.obs = true;
    let mut reference: Option<RunFingerprint> = None;
    for shards in shard_matrix() {
        let mut c = base.clone();
        c.parallelism = Parallelism::IntraRun(shards);
        let r = run_experiment(&c);
        let obs = r.obs.as_ref().expect("obs on");
        assert_eq!(obs.profile.total_events(), r.events, "shards={shards}");
        assert!(!obs.series.samples().is_empty());
        let snap = fingerprint(&r);
        match &reference {
            None => reference = Some(snap),
            Some(f) => assert_eq!(f, &snap, "shards={shards} changed the Theta run"),
        }
    }
}

/// A canonic (p,a,h,g) machine with non-default palm-tree wiring through
/// the PDES matrix (the ISSUE's shards-1-vs-4 entry): the group-sharded
/// engine must be arrangement- and shape-agnostic, byte-identical across
/// worker counts, with the auditor clean.
#[test]
fn canonic_palm_tree_run_identical_at_shards_1_and_4() {
    use dragonfly_tradeoff::topology::{GlobalArrangement, TopologyConfig};
    let mut base = ExperimentConfig::theta(dragonfly_tradeoff::workloads::AppKind::CrystalRouter);
    base.topology = TopologyConfig::canonical(2, 8, 4, 17);
    base.topology.arrangement = GlobalArrangement::PalmTree;
    base.app = AppSelection::CrystalRouter { ranks: 64 };
    base.placement = PlacementPolicy::RandomNode;
    base.routing = RoutingPolicy::Adaptive;
    base.msg_scale = 0.2;
    base.network.audit = true;
    let mut reference: Option<RunFingerprint> = None;
    for shards in [1u32, 4] {
        let mut c = base.clone();
        c.parallelism = Parallelism::IntraRun(shards);
        let r = run_experiment(&c);
        let audit = r.audit.as_ref().expect("audit on");
        assert!(audit.is_clean(), "shards={shards}:\n{audit}");
        let snap = fingerprint(&r);
        match &reference {
            None => reference = Some(snap),
            Some(f) => assert_eq!(f, &snap, "shards={shards} changed the canonic run"),
        }
    }
}

/// Sweep-level fan-out is the other worker axis: the grid's bytes must
/// not depend on `DFLY_SWEEP_WORKERS`. (Concurrent tests may observe the
/// variable mid-matrix; that is harmless — worker count never affects
/// results, which is exactly what this test pins.)
#[test]
fn sweep_grid_identical_at_every_worker_count() {
    let mut c = cfg();
    c.msg_scale = 0.05;
    let mut reference: Option<Vec<u8>> = None;
    for workers in sweep_worker_matrix() {
        std::env::set_var("DFLY_SWEEP_WORKERS", workers.to_string());
        let bytes = sweep_csv(&c);
        std::env::remove_var("DFLY_SWEEP_WORKERS");
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(r, &bytes, "workers={workers} changed sweep bytes"),
        }
    }
}

// ----- fixed-footprint metrics matrix ---------------------------------------

/// Byte-level fingerprint of what a run streams into its fixed-footprint
/// metric structures: every telemetry sample (as bits) and the steps of
/// the four machine-wide channel CDFs (a zero run plus the active
/// channels' values).
fn stream_fingerprint(r: &dragonfly_tradeoff::core::runner::ExperimentResult) -> Vec<Vec<u64>> {
    let obs = r.obs.as_ref().expect("obs on");
    let series: Vec<u64> = obs
        .series
        .samples()
        .iter()
        .flat_map(|s| {
            let mut v = vec![s.at.as_nanos(), s.minimal_taken, s.nonminimal_taken];
            v.extend(s.util.iter().map(|u| u.to_bits()));
            v.extend(s.queued_bytes);
            v.extend(s.stall_ns);
            v
        })
        .collect();
    let all = MetricsFilter::All;
    let mut out = vec![series];
    for cdf in [
        r.local_traffic_mb_cdf(&all),
        r.global_traffic_mb_cdf(&all),
        r.local_saturation_ms_cdf(&all),
        r.global_saturation_ms_cdf(&all),
    ] {
        out.push(
            cdf.steps()
                .flat_map(|(x, y)| [x.to_bits(), y.to_bits()])
                .collect(),
        );
    }
    out
}

/// With obs + audit on, runs must (a) leave every simulation output
/// bit-identical to an obs-off twin *at the same execution mode* (the
/// sharded schedule is a documented modeling deviation from the serial
/// loop, so each parallelism gets its own twin), (b) reproduce
/// byte-identically across two runs — sample series and channel CDFs
/// included — at serial, 1-worker, and 4-worker execution, and (c) be
/// worker-count-invariant among the sharded runs (per-group replicas fix
/// the partition; workers only redistribute threads).
#[test]
fn streaming_runs_byte_identical_at_shards_1_and_4_with_obs_and_audit() {
    let mut base = cfg();
    base.msg_scale = 0.2;
    base.network.obs = true;
    base.network.audit = true;

    let mut sharded_reference: Option<(RunFingerprint, Vec<Vec<u64>>)> = None;
    for shards in [None, Some(1u32), Some(4u32)] {
        let mut c = base.clone();
        if let Some(n) = shards {
            c.parallelism = Parallelism::IntraRun(n);
        }
        let mut plain = c.clone();
        plain.network.obs = false;
        let p = run_experiment(&plain);
        assert!(p.obs.is_none());

        let a = run_experiment(&c);
        let b = run_experiment(&c);
        assert!(a.audit.as_ref().expect("audit on").is_clean());

        // Two-run byte-identity, the streamed structures included.
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{shards:?} two-run identity"
        );
        let sa = stream_fingerprint(&a);
        assert_eq!(sa, stream_fingerprint(&b), "{shards:?} stream identity");
        assert!(!sa[0].is_empty(), "sample series never fed");

        // Telemetry never perturbs the simulation.
        assert_eq!(
            a.rank_comm_times, p.rank_comm_times,
            "{shards:?} vs obs off"
        );
        assert_eq!(a.job_end, p.job_end);
        assert_eq!(a.events, p.events);
        let ta: Vec<_> = a.metrics.channels().collect();
        let tp: Vec<_> = p.metrics.channels().collect();
        assert_eq!(ta, tp, "{shards:?} perturbed channel metrics");

        // Sharded runs also pin the streamed structures across worker
        // counts.
        if shards.is_some() {
            let snap = (fingerprint(&a), sa);
            match &sharded_reference {
                None => sharded_reference = Some(snap),
                Some(r) => assert_eq!(r, &snap, "{shards:?} changed the sharded run"),
            }
        }
    }
}

#[test]
fn seed_streams_are_independent() {
    // Changing only the routing policy must not change the placement
    // (each subsystem derives its own RNG stream from the master seed).
    let min = {
        let mut c = cfg();
        c.routing = RoutingPolicy::Minimal;
        run_experiment(&c)
    };
    let adp = run_experiment(&cfg());
    assert_eq!(min.placement, adp.placement);
}
