//! Memory/scale regression bench: do a large machine's exact link
//! metrics cost what its active channels cost?
//!
//! Runs one fixed fig3-style cell (CrystalRouter, contiguous placement,
//! adaptive routing, seed 0x5CA1E, telemetry on) on a ≥64-group canonic
//! dragonfly:
//!
//! * `--quick` (the CI smoke): 65 groups of 8 routers, 4 nodes/router =
//!   2,080 nodes — past the paper's 12-group Theta in group count.
//! * `--full`: 257 groups of 32 routers, 16 nodes/router = 131,584
//!   nodes — the 100k-node target, on the serial event loop.
//!
//! A 512-rank probe on such a machine leaves almost every channel idle.
//! The network's metrics snapshot keeps only the channels with a
//! non-zero traffic, saturation or busy value, and the machine-wide
//! figure CDFs (Figures 4–6) hold those values plus one run of zeros.
//! The bench asserts both halves of that:
//!
//! * per class, the idle and active channel counts `split` reports agree
//!   between the machine-wide filter (class counts) and a filter over
//!   every router (per-router channel lists), and the classes cover the
//!   machine's channels;
//! * the metric bytes — snapshots plus the four machine-wide CDFs — are
//!   at most [`BYTES_PER_ACTIVE_CHANNEL`] per active channel.
//!
//! The machine description itself is held to a budget linear in global
//! links and router ports ([`TOPOLOGY_BYTES_PER_LINK`],
//! [`TOPOLOGY_BYTES_PER_PORT`]): `Topology::heap_bytes` covers only the
//! global-wiring tables, so a per-channel or per-node table anywhere in
//! the topology breaks the bound by an order of magnitude at 131k nodes.
//! The build time is recorded next to it.
//!
//! It also asserts `records <= 64 x (runs holding a traffic channel)`:
//! channel records come in aligned runs of `CHANNEL_RUN_LEN` (64) ids,
//! allocated only where packets go. On the quick machine the probe's
//! traffic touches 5,718 of 11,960 channels, but 84 of the 187 runs carry
//! no traffic, so eager allocation would fail this.
//!
//! Artifacts: `scale_memory.csv` (one row) and `BENCH_scale_memory.json`,
//! both with the host's core count and the git revision. The traffic
//! quantiles are over the busy local links among the probe job's own
//! routers (the Figures 8–10 view): machine-wide, every quantile up to
//! p99 reads zero.
//!
//! `--gate BYTES` exits nonzero when metric bytes plus the telemetry
//! series exceed the budget — the CI smoke runs with `--gate 2000000`.

use dfly_bench::git_rev;
use dfly_bench::harness::scaled_ranks;
use dfly_core::config::{AppSelection, ExperimentConfig, RoutingPolicy};
use dfly_core::runner::execute_experiment;
use dfly_network::{ChannelSnapshot, MetricsFilter, CHANNEL_RUN_LEN, CLASSES};
use dfly_placement::PlacementPolicy;
use dfly_stats::Cdf;
use dfly_topology::{ChannelClass, RouterId, Topology, TopologyConfig};
use dfly_workloads::AppKind;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Fixed workload identity — deliberately not configurable so the JSON
/// is comparable across commits.
const SEED: u64 = 0x5CA1E;
/// Rank ceiling: the app is the probe, the machine is the subject, so
/// the workload stays fixed-size while the topology scales.
const MAX_RANKS: u32 = 512;
/// Metric bytes allowed per active channel: a 40 B snapshot and four
/// 8 B CDF samples, with room for `Vec` growth slack.
const BYTES_PER_ACTIVE_CHANNEL: usize = 160;
/// Topology bytes allowed per undirected global link: its endpoint pair
/// (8 B) and one 12 B gateway entry per direction.
const TOPOLOGY_BYTES_PER_LINK: usize = 32;
/// Topology bytes allowed per router global port: one (channel, group)
/// entry (8 B) in the router's outgoing-global list.
const TOPOLOGY_BYTES_PER_PORT: usize = 8;

struct Cli {
    full: bool,
    out_dir: PathBuf,
    gate: Option<usize>,
    scale: f64,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        full: false,
        out_dir: PathBuf::from("results"),
        gate: None,
        scale: 0.25,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => cli.full = false,
            "--full" => cli.full = true,
            "--out" => cli.out_dir = args.next().expect("--out needs a directory").into(),
            "--gate" => {
                let v = args.next().expect("--gate needs a byte budget");
                cli.gate = Some(v.parse().expect("--gate needs an integer"));
            }
            "--scale" => {
                let v = args.next().expect("--scale needs a factor");
                cli.scale = v.parse().expect("--scale needs a number");
                assert!(cli.scale > 0.0, "--scale must be positive");
            }
            "--help" | "-h" => {
                eprintln!("usage: [--quick|--full] [--out DIR] [--gate BYTES] [--scale X]");
                std::process::exit(0);
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    cli
}

/// Peak resident set (`VmHWM`) in KiB from `/proc/self/status`, or 0
/// where procfs is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The quantile fractions the CSV reports.
const FRACTIONS: [f64; 3] = [0.5, 0.9, 0.99];

/// p50/p90/p99 of `c` without its zero samples (idle links).
fn busy_quantiles(c: &Cdf) -> [f64; 3] {
    let busy = Cdf::from_samples(c.steps().map(|(x, _)| x).filter(|&x| x > 0.0));
    if busy.is_empty() {
        return [0.0; 3];
    }
    FRACTIONS.map(|f| busy.quantile(f))
}

fn main() {
    let cli = parse_cli();
    let topo_cfg = if cli.full {
        // 257 groups x 32 routers x 16 nodes = 131,584 nodes; a*h = 512
        // global ports per group comfortably wire 256 peers.
        TopologyConfig::canonical(16, 32, 16, 257)
    } else {
        // 65 groups x 8 routers x 4 nodes = 2,080 nodes; a*h = 64 ports
        // wire the other 64 groups exactly once (fully connected).
        TopologyConfig::canonical(4, 8, 8, 65)
    };
    topo_cfg.validate().expect("canonic machine invalid");
    let nodes = topo_cfg.total_nodes();
    let ranks = scaled_ranks(AppKind::CrystalRouter, nodes).min(MAX_RANKS);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = git_rev();

    let mut cfg = ExperimentConfig::quick(AppKind::CrystalRouter);
    cfg.topology = topo_cfg.clone();
    cfg.app = AppSelection::CrystalRouter { ranks };
    cfg.placement = PlacementPolicy::Contiguous;
    cfg.routing = RoutingPolicy::Adaptive;
    cfg.msg_scale *= cli.scale;
    cfg.seed = SEED;
    cfg.network.obs = true;
    cfg.network.audit = false;
    cfg.validate().expect("invalid scale config");
    let machine = format!(
        "canonic {}g x {}r x {}n = {nodes} nodes",
        topo_cfg.groups,
        topo_cfg.routers_per_group(),
        topo_cfg.nodes_per_router,
    );
    println!(
        "Scale/memory: CrystalRouter x{ranks}, {machine}, scale {}, seed {SEED:#x}, \
         {cores} cores, rev {rev}",
        cli.scale,
    );

    let t_build = Instant::now();
    let topo = Arc::new(Topology::build(cfg.topology.clone()));
    let topology_build_ms = t_build.elapsed().as_secs_f64() * 1e3;
    let topology_bytes = topo.heap_bytes();
    let links = topo.class_channel_count(ChannelClass::Global) / 2;
    let ports = (topo_cfg.total_routers() * topo_cfg.global_links_per_router) as usize;
    let topology_budget = TOPOLOGY_BYTES_PER_LINK * links + TOPOLOGY_BYTES_PER_PORT * ports;
    assert!(
        topology_bytes <= topology_budget,
        "topology holds {topology_bytes} B, over {TOPOLOGY_BYTES_PER_LINK} B x {links} global \
         links + {TOPOLOGY_BYTES_PER_PORT} B x {ports} router ports = {topology_budget} B: the \
         machine description no longer follows its global wiring"
    );
    let t0 = Instant::now();
    let r = execute_experiment(&cfg, topo);
    let wall_s = t0.elapsed().as_secs_f64();
    let obs = r.obs.as_ref().expect("obs on");
    let m = &r.metrics;
    let all = MetricsFilter::All;

    let cdfs = [
        r.local_traffic_mb_cdf(&all),
        r.global_traffic_mb_cdf(&all),
        r.local_saturation_ms_cdf(&all),
        r.global_saturation_ms_cdf(&all),
    ];
    let peak_rss_kb = peak_rss_kb();
    let footprint = m.footprint();
    let active = m.channels().count();
    let snapshot_bytes = m.approx_bytes();
    let cdf_bytes: usize = cdfs.iter().map(Cdf::approx_bytes).sum();
    let metric_bytes = snapshot_bytes + cdf_bytes;
    assert!(
        metric_bytes <= BYTES_PER_ACTIVE_CHANNEL * active,
        "metric bytes {metric_bytes} exceed {BYTES_PER_ACTIVE_CHANNEL} B x {active} active \
         channels: metrics no longer cost O(activity)"
    );

    // Idle channels are counted two ways: per class from the topology's
    // class ranges, and per router from its per-router channel lists.
    // Over every router the two must agree, and the classes must cover
    // the machine.
    let every: HashSet<RouterId> = (0..topo_cfg.total_routers()).map(RouterId).collect();
    let mut counted = 0;
    for class in CLASSES {
        let traffic = |c: &ChannelSnapshot| c.traffic_bytes as f64;
        let (idle, values) = m.split(&all, |c| c == class, traffic);
        let (idle_r, values_r) = m.split(&MetricsFilter::Routers(&every), |c| c == class, traffic);
        assert_eq!(
            (idle, values.len()),
            (idle_r, values_r.len()),
            "{class:?}: per-class and per-router channel counts disagree"
        );
        counted += idle + values.len();
    }
    assert_eq!(counted, footprint.channels, "class counts miss channels");

    let busy: Vec<usize> = m
        .channels()
        .filter(|c| c.traffic_bytes > 0)
        .map(|c| c.id.index())
        .collect();
    let traffic_channels = busy.len();
    // Snapshots come in id order, so equal runs are adjacent.
    let mut traffic_runs: Vec<usize> = busy.iter().map(|i| i / CHANNEL_RUN_LEN).collect();
    traffic_runs.dedup();
    assert!(
        footprint.records <= CHANNEL_RUN_LEN * traffic_runs.len(),
        "{} channel records, but only {} runs of {CHANNEL_RUN_LEN} ids hold the \
         {traffic_channels} channels that carried traffic: channel state is no longer \
         allocated where packets go",
        footprint.records,
        traffic_runs.len()
    );

    let obs_bytes = obs.approx_metric_bytes();
    let local = busy_quantiles(&r.local_traffic_mb_cdf(&r.app_filter()));
    assert!(local[0] > 0.0, "the probe job moved no local traffic");
    println!(
        "{} events in {wall_s:.2}s; {active} active of {} channels; metric bytes {metric_bytes} \
         (snapshots {snapshot_bytes}, CDFs {cdf_bytes}; bound {} B/active channel); \
         telemetry {obs_bytes} B; peak RSS {} MiB; {} channel records ({:.3} B/channel)",
        r.events,
        footprint.channels,
        BYTES_PER_ACTIVE_CHANNEL,
        peak_rss_kb / 1024,
        footprint.records,
        footprint.bytes_per_channel(),
    );
    println!(
        "probe-job busy local links MB p50/p90/p99: {:.3}/{:.3}/{:.3}",
        local[0], local[1], local[2]
    );
    println!(
        "topology: {topology_bytes} B (budget {topology_budget} B for {links} global links and \
         {ports} router ports), built in {topology_build_ms:.2} ms"
    );

    let fields: Vec<(&str, String)> = vec![
        ("machine", format!("\"{machine}\"")),
        ("ranks", ranks.to_string()),
        ("scale", cli.scale.to_string()),
        ("host_cores", cores.to_string()),
        ("git_rev", format!("\"{rev}\"")),
        ("events", r.events.to_string()),
        ("job_end_ms", format!("{:.3}", r.job_end.as_ms_f64())),
        ("wall_s", format!("{wall_s:.2}")),
        ("channels", footprint.channels.to_string()),
        ("active_channels", active.to_string()),
        ("traffic_channels", traffic_channels.to_string()),
        ("snapshot_bytes", snapshot_bytes.to_string()),
        ("cdf_bytes", cdf_bytes.to_string()),
        ("metric_bytes", metric_bytes.to_string()),
        ("obs_metric_bytes", obs_bytes.to_string()),
        ("obs_samples", obs.series.samples().len().to_string()),
        ("peak_rss_kb", peak_rss_kb.to_string()),
        ("topology_bytes", topology_bytes.to_string()),
        ("topology_budget_bytes", topology_budget.to_string()),
        ("topology_build_ms", format!("{topology_build_ms:.2}")),
        ("channel_records", footprint.records.to_string()),
        ("channel_state_bytes", footprint.bytes.to_string()),
        (
            "bytes_per_channel",
            format!("{:.3}", footprint.bytes_per_channel()),
        ),
        ("local_mb_p50", format!("{:.6}", local[0])),
        ("local_mb_p90", format!("{:.6}", local[1])),
        ("local_mb_p99", format!("{:.6}", local[2])),
    ];

    std::fs::create_dir_all(&cli.out_dir).expect("create out dir");
    let csv_path = cli.out_dir.join("scale_memory.csv");
    let header: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
    let mut csv = dfly_stats::CsvWriter::create(&csv_path, &header)
        .unwrap_or_else(|e| panic!("cannot create {csv_path:?}: {e}"));
    let row: Vec<String> = fields
        .iter()
        .map(|(_, v)| v.trim_matches('"').to_string())
        .collect();
    csv.row(&row).expect("csv write");
    csv.finish().expect("csv flush");

    // Hand-formatted JSON (no serde in the workspace).
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let gate = cli.gate.map_or("null".to_string(), |g| g.to_string());
    let json = format!("{{\n{},\n  \"gate_bytes\": {gate}\n}}\n", body.join(",\n"));
    let json_path = cli.out_dir.join("BENCH_scale_memory.json");
    std::fs::write(&json_path, json).unwrap_or_else(|e| panic!("cannot write {json_path:?}: {e}"));
    println!("Wrote {} and {}", csv_path.display(), json_path.display());

    if let Some(gate) = cli.gate {
        let got = metric_bytes + obs_bytes;
        if got > gate {
            eprintln!("FAIL: metric + telemetry bytes {got} exceed the {gate}-byte gate");
            std::process::exit(1);
        }
        println!("gate {gate} B: ok (metric + telemetry bytes {got})");
    }
}
