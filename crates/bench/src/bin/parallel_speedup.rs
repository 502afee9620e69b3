//! Intra-run PDES speedup gate: serial loop vs group-sharded engine.
//!
//! Runs a fixed Theta-scale workload (CrystalRouter, 1000 ranks,
//! random-node placement, adaptive routing, scale 0.5, seed 0x5EED)
//! through the legacy serial loop and the sharded engine at each
//! requested worker count, interleaved A/B so machine drift hits every
//! side equally. Two artifacts:
//!
//! * `parallel_speedup.csv` — one row per execution mode with the median
//!   wall time and the speedup over serial.
//! * `BENCH_parallel_speedup.json` — the same numbers machine-readable,
//!   plus the gate verdict CI archives per commit.
//!
//! `--gate RATIO` exits nonzero when the highest shard count's speedup
//! falls short — but only when the host actually has enough cores to
//! host the workers (shards + 2, for the coordinator and slack);
//! otherwise the verdict is recorded as skipped. The ISSUE 7 acceptance
//! number is `--gate 1.8` at `--shards 1,4`.
//!
//! Sharded runs double as a determinism check: every shard count must
//! produce byte-identical rank communication times (the per-group
//! partition makes worker count irrelevant), and every mode must repeat
//! its own event count across trials.

use dfly_core::config::{Parallelism, RoutingPolicy};
use dfly_core::runner::{execute_experiment, prepare_topology, ExperimentResult};
use dfly_core::ExperimentConfig;
use dfly_placement::PlacementPolicy;
use dfly_stats::CsvWriter;
use dfly_workloads::AppKind;
use std::path::PathBuf;
use std::time::Instant;

const SEED: u64 = 0x5EED;
const SCALE: f64 = 0.5;

struct Cli {
    out_dir: PathBuf,
    trials: usize,
    shards: Vec<u32>,
    gate: Option<f64>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        out_dir: PathBuf::from("results"),
        trials: 3,
        shards: vec![1, 4],
        gate: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => cli.out_dir = args.next().expect("--out needs a directory").into(),
            "--trials" => {
                cli.trials = args
                    .next()
                    .expect("--trials needs a count")
                    .parse()
                    .expect("--trials needs an integer");
                assert!(cli.trials >= 1, "--trials must be >= 1");
            }
            "--shards" => {
                let v = args.next().expect("--shards needs a comma list");
                cli.shards = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("--shards needs integers"))
                    .collect();
                assert!(
                    !cli.shards.is_empty() && cli.shards.iter().all(|&n| n >= 1),
                    "--shards needs positive worker counts"
                );
            }
            "--gate" => {
                let g: f64 = args
                    .next()
                    .expect("--gate needs a ratio")
                    .parse()
                    .expect("--gate needs a number");
                assert!(g > 0.0, "--gate must be positive");
                cli.gate = Some(g);
            }
            "--help" | "-h" => {
                eprintln!("usage: [--out DIR] [--trials N] [--shards 1,4] [--gate RATIO]");
                std::process::exit(0);
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    cli
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

struct ModeOutcome {
    label: String,
    shards: u32, // 0 = serial
    events: u64,
    wall_s: f64,
}

fn main() {
    let cli = parse_cli();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut base = ExperimentConfig::theta(AppKind::CrystalRouter);
    base.placement = PlacementPolicy::RandomNode;
    base.routing = RoutingPolicy::Adaptive;
    base.msg_scale = SCALE;
    base.seed = SEED;
    let modes: Vec<(String, Parallelism)> =
        std::iter::once(("serial".to_string(), Parallelism::Serial))
            .chain(
                cli.shards
                    .iter()
                    .map(|&n| (format!("pdes{n}"), Parallelism::IntraRun(n))),
            )
            .collect();
    println!(
        "Parallel-speedup A/B: CrystalRouter Theta, scale {SCALE}, seed {SEED:#x}, \
         modes {:?}, {} trials/side, {cores} cores",
        modes.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>(),
        cli.trials
    );

    let topo = prepare_topology(&base);
    let run_mode = |p: Parallelism| -> (ExperimentResult, f64) {
        let mut cfg = base.clone();
        cfg.parallelism = p;
        let t0 = Instant::now();
        let r = execute_experiment(&cfg, topo.clone());
        (r, t0.elapsed().as_secs_f64())
    };

    // Warmup sweep: fault in code paths, pin reference runs.
    let refs: Vec<ExperimentResult> = modes.iter().map(|&(_, p)| run_mode(p).0).collect();
    for (i, r) in refs.iter().enumerate().skip(2) {
        assert_eq!(
            refs[1].rank_comm_times, r.rank_comm_times,
            "worker count changed the sharded schedule ({})",
            modes[i].0
        );
    }
    let serial_end = refs[0].job_end.as_nanos() as f64;
    let pdes_end = refs
        .get(1)
        .map_or(serial_end, |r| r.job_end.as_nanos() as f64);
    let schedule_delta = (pdes_end - serial_end).abs() / serial_end.max(1.0);
    println!(
        "serial job_end {} vs sharded {} ({:+.2}% schedule deviation)",
        refs[0].job_end,
        refs.get(1).map_or(refs[0].job_end, |r| r.job_end),
        100.0 * (pdes_end - serial_end) / serial_end.max(1.0),
    );
    assert!(
        schedule_delta < 0.25,
        "sharded schedule diverged {:.1}% from serial — modeling bug, not jitter",
        schedule_delta * 100.0
    );

    // Interleaved trials.
    let mut walls: Vec<Vec<f64>> = modes.iter().map(|_| Vec::new()).collect();
    for _ in 0..cli.trials {
        for (i, &(ref label, p)) in modes.iter().enumerate() {
            let (r, wall) = run_mode(p);
            assert_eq!(r.events, refs[i].events, "{label} run not deterministic");
            walls[i].push(wall);
        }
    }
    let outcomes: Vec<ModeOutcome> = modes
        .iter()
        .zip(&mut walls)
        .zip(&refs)
        .map(|(((label, p), w), r)| ModeOutcome {
            label: label.clone(),
            shards: match p {
                Parallelism::Serial => 0,
                Parallelism::IntraRun(n) => *n,
            },
            events: r.events,
            wall_s: median(w),
        })
        .collect();

    let serial_wall = outcomes[0].wall_s;
    for o in &outcomes {
        println!(
            "{:>8}: {:.1}M events, median {:.2}s, speedup {:.2}x",
            o.label,
            o.events as f64 / 1e6,
            o.wall_s,
            serial_wall / o.wall_s
        );
    }

    std::fs::create_dir_all(&cli.out_dir).expect("create out dir");
    let csv_path = cli.out_dir.join("parallel_speedup.csv");
    let mut csv = CsvWriter::create(
        &csv_path,
        &[
            "mode",
            "shards",
            "trials",
            "events",
            "median_wall_s",
            "speedup_vs_serial",
        ],
    )
    .expect("open csv");
    for o in &outcomes {
        csv.row(&[
            o.label.clone(),
            o.shards.to_string(),
            cli.trials.to_string(),
            o.events.to_string(),
            format!("{:.4}", o.wall_s),
            format!("{:.4}", serial_wall / o.wall_s),
        ])
        .expect("csv write");
    }
    csv.finish().expect("csv flush");

    // Gate verdict: measured against the highest shard count, but only
    // meaningful when the host can actually run the workers in parallel.
    let best = outcomes[1..]
        .iter()
        .max_by_key(|o| o.shards)
        .expect("at least one sharded mode");
    let speedup = serial_wall / best.wall_s;
    let runnable = cores >= best.shards as usize + 2;
    let verdict = match cli.gate {
        None => "unchecked".to_string(),
        Some(_) if !runnable => format!("skipped ({cores} cores < {} needed)", best.shards + 2),
        Some(g) if speedup >= g => "pass".to_string(),
        Some(_) => "fail".to_string(),
    };

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": \"crystalrouter theta scale {SCALE} seed {SEED:#x}\",\n"
    ));
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"git_rev\": \"{}\",\n", dfly_bench::git_rev()));
    json.push_str(&format!("  \"trials\": {},\n", cli.trials));
    json.push_str(&format!(
        "  \"schedule_deviation\": {:.4},\n",
        schedule_delta
    ));
    json.push_str("  \"scenarios\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"shards\": {}, \"events\": {}, \
             \"median_wall_s\": {:.4}, \"speedup_vs_serial\": {:.4}}}{}\n",
            o.label,
            o.shards,
            o.events,
            o.wall_s,
            serial_wall / o.wall_s,
            if i + 1 < outcomes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"gate\": {{\"threshold\": {}, \"mode\": \"{}\", \"speedup\": {:.4}, \
         \"status\": \"{verdict}\"}}\n",
        cli.gate.map_or("null".to_string(), |g| format!("{g:.2}")),
        best.label,
        speedup
    ));
    json.push_str("}\n");
    let json_path = cli.out_dir.join("BENCH_parallel_speedup.json");
    std::fs::write(&json_path, json).unwrap_or_else(|e| panic!("cannot write {json_path:?}: {e}"));
    println!("Wrote {} and {}", csv_path.display(), json_path.display());

    if let Some(g) = cli.gate {
        if verdict == "fail" {
            eprintln!(
                "FAIL: {} speedup {speedup:.2}x below the {g:.2}x gate",
                best.label
            );
            std::process::exit(1);
        }
        println!("gate {g:.2}x: {verdict} ({} at {speedup:.2}x)", best.label);
    }
}
