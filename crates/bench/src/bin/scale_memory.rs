//! Memory/scale regression bench: can a run past Theta's size keep its
//! metric structures bounded?
//!
//! Runs one fixed fig3-style cell (CrystalRouter, contiguous placement,
//! adaptive routing, seed 0x5CA1E) on a ≥64-group canonic dragonfly in
//! both metric modes, streaming first so its `VmHWM` reading is not
//! polluted by the dense side (the kernel high-water mark only grows):
//!
//! * `--quick` (the CI smoke): 65 groups of 8 routers, 4 nodes/router =
//!   2,080 nodes — past the paper's 12-group Theta in group count.
//! * `--full`: 257 groups of 32 routers, 16 nodes/router = 131,584
//!   nodes — the 100k-node target. Serial event loop: per-group PDES
//!   replicas would multiply channel state 257-fold.
//!
//! Artifacts:
//!
//! * `scale_memory.csv` — one row per mode with events, wall time,
//!   per-subsystem metric bytes (telemetry series + link digest, figure
//!   CDFs), peak RSS, the channel-state footprint (allocated channel
//!   records, channels that carried traffic, channel-state bytes and
//!   bytes per machine channel), and traffic-CDF quantiles for the
//!   dense-vs-streaming accuracy comparison.
//!
//! The network allocates channel records in aligned runs of
//! `CHANNEL_RUN_LEN` (64) ids, only where packets go: once a run drains,
//! every allocated run holds a channel that carried traffic. The bench
//! asserts `records <= 64 x (runs holding a traffic channel)`, which
//! implies `records <= 64 x traffic channels`. The tighter form is the
//! one that can fail on the quick machine: there the probe's traffic
//! touches 5,718 of 11,960 channels, so even a record per machine
//! channel stays under 64 x traffic channels, but 84 of the 187 runs
//! carry no traffic, and eager allocation would fill them.
//!
//! The accuracy quantiles are taken over the links that carried traffic
//! among the probe job's own routers (`ExperimentResult::app_filter`, the
//! Figures 8–10 view). Over the whole machine a 512-rank probe leaves
//! more than 99% of the channels idle, so every machine-wide quantile up
//! to p99 reads zero and compares nothing; even among the probe's routers
//! about four in five local links carry no CrystalRouter traffic on
//! `--full` (192 of 992 are busy), which zeroes the p50. The run asserts that the dense local
//! quantiles are non-zero and that each streaming quantile lies within
//! the reservoir's documented rank error, `1/sqrt(K)`, of the dense CDF.
//! The global columns are empty (reported as zero) on `--full`: the
//! contiguous probe fills exactly one group, its traffic is all
//! intra-group, and no packet takes a global link.
//! * `BENCH_scale_memory.json` — the same numbers machine-readable, the
//!   form CI archives per commit.
//!
//! `--gate BYTES` exits nonzero when the streaming side's metric bytes
//! (telemetry + CDFs) exceed the budget — the CI smoke runs with
//! `--gate 2000000`. The dense side is reported but never gated: its
//! growth with machine size is exactly what streaming mode is for.

use dfly_bench::harness::scaled_ranks;
use dfly_core::config::{AppSelection, ExperimentConfig, RoutingPolicy};
use dfly_core::runner::{execute_experiment, prepare_topology};
use dfly_network::{ChannelFootprint, MetricsFilter, MetricsMode, CHANNEL_RUN_LEN};
use dfly_placement::PlacementPolicy;
use dfly_stats::Cdf;
use dfly_topology::TopologyConfig;
use dfly_workloads::AppKind;
use std::path::PathBuf;
use std::time::Instant;

/// Fixed workload identity — deliberately not configurable so the JSON
/// is comparable across commits.
const SEED: u64 = 0x5CA1E;
/// Rank ceiling: the app is the probe, the machine is the subject, so
/// the workload stays fixed-size while the topology scales.
const MAX_RANKS: u32 = 512;

struct Cli {
    full: bool,
    out_dir: PathBuf,
    gate: Option<usize>,
    reservoir_k: u32,
    scale: f64,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        full: false,
        out_dir: PathBuf::from("results"),
        gate: None,
        reservoir_k: dfly_stats::DEFAULT_RESERVOIR_K,
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
            "--reservoir-k" => {
                let v = args.next().expect("--reservoir-k needs a size");
                cli.reservoir_k = v.parse().expect("--reservoir-k needs an integer");
                assert!(cli.reservoir_k >= 2, "--reservoir-k must be >= 2");
            }
            "--scale" => {
                let v = args.next().expect("--scale needs a factor");
                cli.scale = v.parse().expect("--scale needs a number");
                assert!(cli.scale > 0.0, "--scale must be positive");
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: [--quick|--full] [--out DIR] [--gate BYTES] [--reservoir-k K] [--scale X]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    cli
}

/// Peak resident set (`VmHWM`) in KiB from `/proc/self/status`, or 0
/// where procfs is unavailable. Monotone over the process lifetime —
/// callers must order measurements smallest-expected-first.
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

struct ModeOutcome {
    mode: MetricsMode,
    events: u64,
    job_end_ms: f64,
    wall_s: f64,
    /// Telemetry bytes: sample series + link digest.
    obs_bytes: usize,
    obs_samples: usize,
    /// Figure-pipeline bytes: retained samples of the four channel CDFs.
    cdf_bytes: usize,
    peak_rss_kb: u64,
    /// Channel state the network held at the end of the run.
    footprint: ChannelFootprint,
    /// Channels that carried at least one byte.
    traffic_channels: usize,
    /// Per-channel traffic CDFs over the probe job's routers' busy links.
    local_cdf: Cdf,
    global_cdf: Cdf,
}

/// `c` without its zero samples (idle links).
fn busy_links(c: Cdf) -> Cdf {
    Cdf::from_samples(c.steps().map(|(x, _)| x).filter(|&x| x > 0.0))
}

impl ModeOutcome {
    fn metric_bytes(&self) -> usize {
        self.obs_bytes + self.cdf_bytes
    }
}

fn run_mode(cfg: &ExperimentConfig) -> ModeOutcome {
    let topo = prepare_topology(cfg);
    let t0 = Instant::now();
    let r = execute_experiment(cfg, topo);
    let wall_s = t0.elapsed().as_secs_f64();
    let obs = r.obs.as_ref().expect("obs on");
    // Memory is measured on the machine-wide figure CDFs (Figures 4–6),
    // whose size is what streaming mode bounds.
    let all = MetricsFilter::All;
    let cdf_bytes = [
        r.local_traffic_mb_cdf(&all),
        r.global_traffic_mb_cdf(&all),
        r.local_saturation_ms_cdf(&all),
        r.global_saturation_ms_cdf(&all),
    ]
    .iter()
    .map(|c| c.len() * std::mem::size_of::<f64>())
    .sum();
    let app = r.app_filter();
    let footprint = r.metrics.footprint();
    let busy: Vec<usize> = r
        .metrics
        .channels()
        .filter(|c| c.traffic_bytes > 0)
        .map(|c| c.id.index())
        .collect();
    let traffic_channels = busy.len();
    // Snapshots come in id order, so equal runs are adjacent.
    let mut traffic_runs: Vec<usize> = busy.iter().map(|i| i / CHANNEL_RUN_LEN).collect();
    traffic_runs.dedup();
    assert_eq!(footprint.channels, r.metrics.channels().count());
    assert!(
        footprint.records <= CHANNEL_RUN_LEN * traffic_runs.len(),
        "{} channel records, but only {} runs of {CHANNEL_RUN_LEN} ids hold the \
         {traffic_channels} channels that carried traffic: channel state is no longer \
         allocated where packets go",
        footprint.records,
        traffic_runs.len()
    );
    ModeOutcome {
        mode: cfg.network.metrics,
        events: r.events,
        job_end_ms: r.job_end.as_ms_f64(),
        wall_s,
        obs_bytes: obs.approx_metric_bytes(),
        obs_samples: obs.series.samples().len(),
        cdf_bytes,
        peak_rss_kb: peak_rss_kb(),
        footprint,
        traffic_channels,
        local_cdf: busy_links(r.local_traffic_mb_cdf(&app)),
        global_cdf: busy_links(r.global_traffic_mb_cdf(&app)),
    }
}

/// The quantile fractions the accuracy columns report.
const FRACTIONS: [f64; 3] = [0.5, 0.9, 0.99];

fn quantiles(c: &Cdf) -> [f64; 3] {
    if c.is_empty() {
        return [0.0; 3];
    }
    FRACTIONS.map(|f| c.quantile(f))
}

/// Panic unless the dense local quantiles are non-zero and every
/// streaming quantile at fraction `f` lies between the dense quantiles at
/// `f ± 1/sqrt(K)` — the reservoir's rank error (see `DEFAULT_RESERVOIR_K`).
fn check_accuracy(dense: &ModeOutcome, streaming: &ModeOutcome, reservoir_k: u32) {
    assert!(
        !dense.local_cdf.is_empty(),
        "the probe job moved no local traffic"
    );
    let tol = 1.0 / (reservoir_k as f64).sqrt();
    for (name, d, s) in [
        ("local", &dense.local_cdf, &streaming.local_cdf),
        ("global", &dense.global_cdf, &streaming.global_cdf),
    ] {
        if d.is_empty() {
            continue;
        }
        for f in FRACTIONS {
            let got = s.quantile(f);
            let lo = d.quantile((f - tol).max(0.0));
            let hi = d.quantile((f + tol).min(1.0));
            assert!(
                (lo..=hi).contains(&got),
                "streaming {name} p{} = {got} outside dense [{lo}, {hi}]",
                f * 100.0
            );
        }
    }
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

    let mut base = ExperimentConfig::quick(AppKind::CrystalRouter);
    base.topology = topo_cfg.clone();
    base.app = AppSelection::CrystalRouter { ranks };
    base.placement = PlacementPolicy::Contiguous;
    base.routing = RoutingPolicy::Adaptive;
    base.msg_scale *= cli.scale;
    base.seed = SEED;
    base.network.obs = true;
    base.network.audit = false;
    base.validate().expect("invalid scale config");

    println!(
        "Scale/memory A/B: CrystalRouter x{ranks}, canonic {}g x {}r x {}n = {} nodes, \
         scale {}, seed {SEED:#x}, K={}",
        topo_cfg.groups,
        topo_cfg.routers_per_group(),
        topo_cfg.nodes_per_router,
        nodes,
        cli.scale,
        cli.reservoir_k,
    );

    // Streaming first: VmHWM only ever grows, so the bounded side must
    // be measured before dense inflates the high-water mark.
    let mut stream_cfg = base.clone();
    stream_cfg.network.metrics = MetricsMode::Streaming {
        reservoir_k: cli.reservoir_k,
    };
    let streaming = run_mode(&stream_cfg);
    let dense = run_mode(&base);
    assert_eq!(
        streaming.events, dense.events,
        "metrics mode changed the event count"
    );
    assert_eq!(
        streaming.job_end_ms, dense.job_end_ms,
        "metrics mode changed the simulation"
    );

    check_accuracy(&dense, &streaming, cli.reservoir_k);
    let outcomes = [&streaming, &dense];
    for o in outcomes {
        println!(
            "{:>14}: {} events in {:.1}s, telemetry {} B ({} samples), CDFs {} B, peak RSS {} MiB, \
             {} channel records for {} traffic channels of {} ({:.1} B/channel)",
            o.mode.label(),
            o.events,
            o.wall_s,
            o.obs_bytes,
            o.obs_samples,
            o.cdf_bytes,
            o.peak_rss_kb / 1024,
            o.footprint.records,
            o.traffic_channels,
            o.footprint.channels,
            o.footprint.bytes_per_channel(),
        );
    }
    let dl = quantiles(&dense.local_cdf);
    let sl = quantiles(&streaming.local_cdf);
    let dg = quantiles(&dense.global_cdf);
    let sg = quantiles(&streaming.global_cdf);
    println!(
        "probe-job busy local links ({} dense) MB p50/p90/p99: dense {:.3}/{:.3}/{:.3} vs streaming {:.3}/{:.3}/{:.3}",
        dense.local_cdf.len(),
        dl[0],
        dl[1],
        dl[2],
        sl[0],
        sl[1],
        sl[2]
    );
    println!(
        "probe-job busy global links ({} dense) MB p50/p90/p99: dense {:.3}/{:.3}/{:.3} vs streaming {:.3}/{:.3}/{:.3}",
        dense.global_cdf.len(),
        dg[0],
        dg[1],
        dg[2],
        sg[0],
        sg[1],
        sg[2]
    );

    std::fs::create_dir_all(&cli.out_dir).expect("create out dir");
    let csv_path = cli.out_dir.join("scale_memory.csv");
    let mut csv = dfly_stats::CsvWriter::create(
        &csv_path,
        &[
            "mode",
            "groups",
            "nodes",
            "ranks",
            "events",
            "job_end_ms",
            "wall_s",
            "obs_metric_bytes",
            "obs_samples",
            "cdf_bytes",
            "metric_bytes_total",
            "peak_rss_kb",
            "channels",
            "channel_records",
            "traffic_channels",
            "channel_state_bytes",
            "bytes_per_channel",
            "local_mb_p50",
            "local_mb_p90",
            "local_mb_p99",
            "global_mb_p50",
            "global_mb_p90",
            "global_mb_p99",
        ],
    )
    .unwrap_or_else(|e| panic!("cannot create {csv_path:?}: {e}"));
    for o in outcomes {
        let l = quantiles(&o.local_cdf);
        let g = quantiles(&o.global_cdf);
        csv.row(&[
            o.mode.label(),
            topo_cfg.groups.to_string(),
            nodes.to_string(),
            ranks.to_string(),
            o.events.to_string(),
            format!("{:.3}", o.job_end_ms),
            format!("{:.2}", o.wall_s),
            o.obs_bytes.to_string(),
            o.obs_samples.to_string(),
            o.cdf_bytes.to_string(),
            o.metric_bytes().to_string(),
            o.peak_rss_kb.to_string(),
            o.footprint.channels.to_string(),
            o.footprint.records.to_string(),
            o.traffic_channels.to_string(),
            o.footprint.bytes.to_string(),
            format!("{:.3}", o.footprint.bytes_per_channel()),
            format!("{:.6}", l[0]),
            format!("{:.6}", l[1]),
            format!("{:.6}", l[2]),
            format!("{:.6}", g[0]),
            format!("{:.6}", g[1]),
            format!("{:.6}", g[2]),
        ])
        .expect("csv write");
    }
    csv.finish().expect("csv flush");

    // Hand-formatted JSON (no serde in the workspace): flat fields per
    // mode plus the machine identity and the gate verdict.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"machine\": \"canonic {}g x {}r x {}n = {} nodes\",\n",
        topo_cfg.groups,
        topo_cfg.routers_per_group(),
        topo_cfg.nodes_per_router,
        nodes
    ));
    json.push_str(&format!(
        "  \"workload\": \"crystalrouter x{ranks} scale {} seed {SEED:#x}\",\n",
        cli.scale
    ));
    json.push_str(&format!("  \"reservoir_k\": {},\n", cli.reservoir_k));
    json.push_str("  \"modes\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        let l = quantiles(&o.local_cdf);
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"events\": {}, \"wall_s\": {:.2}, \
             \"obs_metric_bytes\": {}, \"obs_samples\": {}, \"cdf_bytes\": {}, \
             \"metric_bytes_total\": {}, \"peak_rss_kb\": {}, \
             \"channels\": {}, \"channel_records\": {}, \"traffic_channels\": {}, \
             \"channel_state_bytes\": {}, \"bytes_per_channel\": {:.3}, \
             \"local_mb_p50\": {:.6}, \"local_mb_p90\": {:.6}, \"local_mb_p99\": {:.6}}}{}\n",
            o.mode.label(),
            o.events,
            o.wall_s,
            o.obs_bytes,
            o.obs_samples,
            o.cdf_bytes,
            o.metric_bytes(),
            o.peak_rss_kb,
            o.footprint.channels,
            o.footprint.records,
            o.traffic_channels,
            o.footprint.bytes,
            o.footprint.bytes_per_channel(),
            l[0],
            l[1],
            l[2],
            if i + 1 < outcomes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"gate_bytes\": {},\n",
        cli.gate.map_or("null".to_string(), |g| g.to_string())
    ));
    json.push_str(&format!(
        "  \"streaming_metric_bytes\": {}\n}}\n",
        streaming.metric_bytes()
    ));
    let json_path = cli.out_dir.join("BENCH_scale_memory.json");
    std::fs::write(&json_path, json).unwrap_or_else(|e| panic!("cannot write {json_path:?}: {e}"));
    println!("Wrote {} and {}", csv_path.display(), json_path.display());

    if let Some(gate) = cli.gate {
        let got = streaming.metric_bytes();
        if got > gate {
            eprintln!("FAIL: streaming metric bytes {got} exceed the {gate}-byte gate");
            std::process::exit(1);
        }
        println!("gate {gate} B: ok (streaming metric bytes {got})");
    }
}
