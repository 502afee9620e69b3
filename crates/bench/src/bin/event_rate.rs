//! Event-throughput gate: how much does `--obs` cost?
//!
//! Runs three fixed cells (CrystalRouter at scale 0.25, seed 0x5EED) with
//! telemetry off and on, interleaved A/B so machine drift hits both sides
//! equally, and reports the median events/sec of each side:
//!
//! * `cont-min` and `rand-adp`: quick fig3 cells on the 768-node machine;
//! * `canonic-131k`: the 131,584-node canonic (16,32,16,257) machine with
//!   a 512-rank probe placed contiguously (one group), adaptive routing —
//!   the scale where telemetry cost used to follow machine size. Its
//!   on/off ratio is reported against the 1.15x full-scale target.
//!
//! Events/sec covers the whole run, network construction included. Two
//! artifacts:
//!
//! * `obs_sampling_delta.csv` — one row per cell with the off/on medians
//!   and their ratio (on/off <= 1.15x at the default stride is the
//!   target).
//! * `BENCH_event_rate.json` — the same numbers in the machine-readable
//!   form CI archives per commit.
//!
//! `--gate RATIO` exits nonzero when any cell's obs-on slowdown exceeds
//! the ratio — the instrumented smoke job runs with `--gate 1.25`.
//!
//! Every obs-on run is also checked bit-identical to its obs-off twin
//! (same comm times), so the gate doubles as a determinism smoke test.

use dfly_bench::harness::{Mode, RunArgs};
use dfly_core::config::{AppSelection, ExperimentConfig, RoutingPolicy};
use dfly_core::report::ConfigLabel;
use dfly_core::runner::{execute_experiment, prepare_topology};
use dfly_placement::PlacementPolicy;
use dfly_topology::TopologyConfig;
use dfly_workloads::AppKind;
use std::time::Instant;

/// The fixed workload: deliberately NOT configurable (except stride and
/// clock, the knobs under test) so the JSON is comparable across commits.
const SEED: u64 = 0x5EED;
const SCALE: f64 = 0.25;
/// Label of the full-scale cell.
const FULL_SCALE: &str = "canonic-131k";
/// The obs-on/off ratio telemetry should stay within at full scale.
const FULL_SCALE_TARGET: f64 = 1.15;

struct Cli {
    args: RunArgs,
    trials: usize,
    gate: Option<f64>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        args: RunArgs::new(Mode::Quick, "results"),
        trials: 5,
        gate: None,
    };
    cli.args.scale = SCALE;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => {
                cli.args.out_dir = args.next().expect("--out needs a directory").into();
            }
            "--trials" => {
                let v = args.next().expect("--trials needs a count");
                cli.trials = v.parse().expect("--trials needs an integer");
                assert!(cli.trials >= 1, "--trials must be >= 1");
            }
            "--gate" => {
                let v = args.next().expect("--gate needs a ratio");
                let g: f64 = v.parse().expect("--gate needs a number");
                assert!(g > 0.0, "--gate must be positive");
                cli.gate = Some(g);
            }
            "--obs-stride" => {
                let v = args.next().expect("--obs-stride needs a count");
                cli.args.obs_stride = Some(v.parse().expect("--obs-stride needs an integer"));
                assert!(cli.args.obs_stride != Some(0), "--obs-stride must be >= 1");
            }
            "--obs-coarse" => cli.args.obs_coarse = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: [--out DIR] [--trials N] [--gate RATIO] [--obs-stride N] [--obs-coarse]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    cli
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

struct CellOutcome {
    label: String,
    nodes: u32,
    off_evps: f64,
    on_evps: f64,
    events: u64,
}

impl CellOutcome {
    fn ratio(&self) -> f64 {
        self.off_evps / self.on_evps
    }
}

/// The full-scale cell: `base`'s app, scale and seed on the 131,584-node
/// canonic machine, 512 ranks placed contiguously, adaptive routing.
fn full_scale_cell(base: &ExperimentConfig) -> ExperimentConfig {
    let mut cfg = base.clone();
    // 257 groups x 32 routers x 16 nodes; the probe fills one group.
    cfg.topology = TopologyConfig::canonical(16, 32, 16, 257);
    cfg.app = AppSelection::CrystalRouter { ranks: 512 };
    cfg.placement = PlacementPolicy::Contiguous;
    cfg.routing = RoutingPolicy::Adaptive;
    cfg.validate().expect("invalid full-scale cell");
    cfg
}

fn main() {
    let cli = parse_cli();
    let quick_cells = [
        ConfigLabel {
            placement: PlacementPolicy::Contiguous,
            routing: RoutingPolicy::Minimal,
        },
        ConfigLabel {
            placement: PlacementPolicy::RandomNode,
            routing: RoutingPolicy::Adaptive,
        },
    ];

    let mut base = cli.args.base_config(AppKind::CrystalRouter);
    base.seed = SEED;
    let stride = {
        let mut probe = cli.args.clone();
        probe.obs = true;
        probe.base_config(AppKind::CrystalRouter).network.obs_stride
    };
    println!(
        "Event-rate A/B: CrystalRouter quick + {FULL_SCALE}, scale {SCALE}, seed {SEED:#x}, \
         stride {stride}, coarse clock {}, {} trials/side",
        cli.args.obs_coarse, cli.trials
    );

    let mut cells: Vec<(String, ExperimentConfig)> = quick_cells
        .iter()
        .map(|cell| {
            let mut cfg = base.clone();
            cfg.placement = cell.placement;
            cfg.routing = cell.routing;
            (cell.to_string(), cfg)
        })
        .collect();
    cells.push((FULL_SCALE.to_string(), full_scale_cell(&base)));

    let mut outcomes = Vec::new();
    for (label, off_cfg) in cells {
        let topo = prepare_topology(&off_cfg);
        let mut on_cfg = off_cfg.clone();
        on_cfg.network.obs = true;
        if let Some(s) = cli.args.obs_stride {
            on_cfg.network.obs_stride = s;
        }
        on_cfg.network.obs_coarse_clock = cli.args.obs_coarse;

        // Warmup pair: fault in code and topology.
        let warm_off = execute_experiment(&off_cfg, topo.clone());
        let warm_on = execute_experiment(&on_cfg, topo.clone());
        assert_eq!(
            warm_off.rank_comm_times, warm_on.rank_comm_times,
            "obs-on run diverged from obs-off"
        );

        let mut off_rates = Vec::with_capacity(cli.trials);
        let mut on_rates = Vec::with_capacity(cli.trials);
        for _ in 0..cli.trials {
            let t0 = Instant::now();
            let off = execute_experiment(&off_cfg, topo.clone());
            off_rates.push(off.events as f64 / t0.elapsed().as_secs_f64());
            let t1 = Instant::now();
            let on = execute_experiment(&on_cfg, topo.clone());
            on_rates.push(on.events as f64 / t1.elapsed().as_secs_f64());
            assert_eq!(off.events, warm_off.events, "run not deterministic");
            assert_eq!(on.events, warm_off.events, "obs-on changed the event count");
        }
        let outcome = CellOutcome {
            label,
            nodes: off_cfg.topology.total_nodes(),
            off_evps: median(&mut off_rates),
            on_evps: median(&mut on_rates),
            events: warm_off.events,
        };
        println!(
            "{:>10}: obs-off {:.2} Mev/s, obs-on {:.2} Mev/s, on/off {:.3}x ({} events/run)",
            outcome.label,
            outcome.off_evps / 1e6,
            outcome.on_evps / 1e6,
            outcome.ratio(),
            outcome.events,
        );
        outcomes.push(outcome);
    }

    let mut csv = cli.args.csv(
        "obs_sampling_delta.csv",
        &[
            "scenario",
            "nodes",
            "trials",
            "obs_off_median_evps",
            "obs_on_median_evps",
            "obs_on_over_off",
            "stride",
        ],
    );
    for o in &outcomes {
        csv.row(&[
            o.label.clone(),
            o.nodes.to_string(),
            cli.trials.to_string(),
            format!("{:.0}", o.off_evps),
            format!("{:.0}", o.on_evps),
            format!("{:.4}", o.ratio()),
            stride.to_string(),
        ])
        .expect("csv write");
    }
    csv.finish().expect("csv flush");

    // Hand-formatted JSON: the workspace has no serde, and the schema is
    // three flat fields per scenario.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": \"crystalrouter scale {SCALE} seed {SEED:#x}; quick cells on the \
         768-node machine, {FULL_SCALE}: canonic (16,32,16,257), 512 contiguous ranks, adaptive\",\n"
    ));
    json.push_str(&format!("  \"stride\": {stride},\n"));
    json.push_str(&format!("  \"coarse_clock\": {},\n", cli.args.obs_coarse));
    json.push_str(&format!("  \"trials\": {},\n", cli.trials));
    json.push_str("  \"scenarios\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"nodes\": {}, \"events\": {}, \"obs_off_evps\": {:.0}, \
             \"obs_on_evps\": {:.0}, \"obs_on_over_off\": {:.4}}}{}\n",
            o.label,
            o.nodes,
            o.events,
            o.off_evps,
            o.on_evps,
            o.ratio(),
            if i + 1 < outcomes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let full = outcomes
        .iter()
        .find(|o| o.label == FULL_SCALE)
        .expect("full-scale cell ran");
    json.push_str(&format!(
        "  \"full_scale_target\": {FULL_SCALE_TARGET},\n  \"full_scale_within_target\": {}\n}}\n",
        full.ratio() <= FULL_SCALE_TARGET
    ));
    let json_path = cli.args.out_dir.join("BENCH_event_rate.json");
    std::fs::write(&json_path, json).unwrap_or_else(|e| panic!("cannot write {json_path:?}: {e}"));
    println!(
        "{FULL_SCALE} on/off {:.3}x against the {FULL_SCALE_TARGET}x full-scale target",
        full.ratio()
    );
    println!(
        "Wrote {} and {}",
        cli.args.out_dir.join("obs_sampling_delta.csv").display(),
        json_path.display()
    );

    if let Some(gate) = cli.gate {
        let worst = outcomes
            .iter()
            .max_by(|a, b| a.ratio().partial_cmp(&b.ratio()).expect("finite"))
            .expect("at least one cell");
        if worst.ratio() > gate {
            eprintln!(
                "FAIL: {} obs-on slowdown {:.3}x exceeds the {:.2}x gate",
                worst.label,
                worst.ratio(),
                gate
            );
            std::process::exit(1);
        }
        println!(
            "gate {:.2}x: ok (worst cell {} at {:.3}x)",
            gate,
            worst.label,
            worst.ratio()
        );
    }
}
