//! Shared plumbing for the reproduction binaries.

use dfly_core::config::{AppSelection, ExperimentConfig, Parallelism};
use dfly_core::report::ConfigLabel;
use dfly_core::runner::ExperimentResult;
use dfly_obs::{EventKind, ObsReport};
use dfly_stats::{render_boxplot_row, sparkline, AsciiTable, BoxStats, Cdf, CsvWriter};
use dfly_topology::{GlobalArrangement, TopologyConfig};
use dfly_workloads::{check_msg_scale, AppKind};
use std::path::PathBuf;

/// Reproduction fidelity mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// 768-node machine, proportionally scaled apps (default).
    Quick,
    /// The paper's 3,456-node Theta machine and app sizes.
    Full,
}

/// Machine override from `--topo` (named preset or canonic `p,a,h,g`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoSpec {
    /// The paper's Theta machine (`--topo theta`).
    Theta,
    /// The 768-node quick machine (`--topo quick`).
    Quick,
    /// The 64-node test machine (`--topo small`).
    Small,
    /// A canonic dragonfly (`--topo P,A,H,G`).
    Canonical {
        /// Nodes per router.
        p: u32,
        /// Routers per group.
        a: u32,
        /// Global links per router.
        h: u32,
        /// Groups.
        g: u32,
    },
}

impl TopoSpec {
    /// Parse a `--topo` argument.
    pub fn parse(s: &str) -> Result<TopoSpec, String> {
        match s {
            "theta" => Ok(TopoSpec::Theta),
            "quick" => Ok(TopoSpec::Quick),
            "small" => Ok(TopoSpec::Small),
            _ => {
                let parts: Vec<&str> = s.split(',').collect();
                if parts.len() != 4 {
                    return Err(format!(
                        "--topo wants theta|quick|small or P,A,H,G (got {s:?})"
                    ));
                }
                let mut v = [0u32; 4];
                for (i, part) in parts.iter().enumerate() {
                    v[i] = part
                        .trim()
                        .parse()
                        .map_err(|_| format!("--topo {s:?}: {part:?} is not an integer"))?;
                }
                Ok(TopoSpec::Canonical {
                    p: v[0],
                    a: v[1],
                    h: v[2],
                    g: v[3],
                })
            }
        }
    }

    /// The machine this spec names.
    pub fn config(&self) -> TopologyConfig {
        match *self {
            TopoSpec::Theta => TopologyConfig::theta(),
            TopoSpec::Quick => TopologyConfig::quick(),
            TopoSpec::Small => TopologyConfig::small_test(),
            TopoSpec::Canonical { p, a, h, g } => TopologyConfig::canonical(p, a, h, g),
        }
    }
}

/// Parse a `--arrangement` argument: `rr` (round-robin, the default),
/// `consec`/`consecutive`, `palm`/`palm-tree`, or `random:SEED` (decimal
/// or `0x` hex seed).
pub fn parse_arrangement(s: &str) -> Result<GlobalArrangement, String> {
    match s {
        "rr" | "round-robin" => Ok(GlobalArrangement::RoundRobin),
        "consec" | "consecutive" => Ok(GlobalArrangement::Consecutive),
        "palm" | "palm-tree" => Ok(GlobalArrangement::PalmTree),
        _ => {
            let seed_str = s
                .strip_prefix("random:")
                .or_else(|| s.strip_prefix("rand:"))
                .ok_or_else(|| {
                    format!("--arrangement wants rr|consec|palm|random:SEED (got {s:?})")
                })?;
            let seed = if let Some(hex) = seed_str.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                seed_str.parse()
            }
            .map_err(|_| format!("--arrangement random: bad seed {seed_str:?}"))?;
            Ok(GlobalArrangement::Random { seed })
        }
    }
}

/// Scale an app's rank count to a machine, preserving the paper's
/// app-size : machine-size ratio (ranks/3456) and the apps' cubic domain
/// decomposition: the largest `k^3` that fits the scaled budget.
pub fn scaled_ranks(app: AppKind, nodes: u32) -> u32 {
    let paper = AppSelection::paper(app).ranks() as u64;
    let paper_nodes = TopologyConfig::theta().total_nodes() as u64;
    let budget = nodes as u64 * paper / paper_nodes;
    let mut k = 1u64;
    while (k + 1) * (k + 1) * (k + 1) <= budget {
        k += 1;
    }
    (k * k * k) as u32
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Fidelity mode.
    pub mode: Mode,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
    /// Enable the telemetry layer (`--obs`): every run collects an
    /// [`ObsReport`] and the binary writes `obs_*.csv` sinks.
    pub obs: bool,
    /// Extra message-size multiplier on top of the mode's workload
    /// (`--scale X`). 1.0 reproduces the mode unchanged; the golden
    /// regression suite runs the figure pipelines at a small fraction.
    pub scale: f64,
    /// Profiling stride under `--obs` (`--obs-stride N`): every event is
    /// counted, every Nth per kind is wall-clock timed. `None` keeps the
    /// [`NetworkParams`](dfly_core::config::ExperimentConfig) default.
    pub obs_stride: Option<u32>,
    /// Use the coarse monotonic clock for handler timing
    /// (`--obs-coarse`): ~4x cheaper reads, millisecond granularity.
    pub obs_coarse: bool,
    /// Intra-run PDES worker threads (`--shards N`); 0 keeps the legacy
    /// serial event loop, the byte-stable default the goldens pin.
    pub shards: u32,
    /// Machine override (`--topo theta|quick|small|P,A,H,G`). App ranks
    /// are rescaled to the override via [`scaled_ranks`]. `None` keeps
    /// the mode's machine and app sizes — the golden-pinned default.
    pub topo: Option<TopoSpec>,
    /// Global-link arrangement override (`--arrangement ...`). `None`
    /// keeps the default round-robin wiring the goldens pin.
    pub arrangement: Option<GlobalArrangement>,
}

impl RunArgs {
    /// Arguments for a mode and output directory, telemetry off, scale 1.
    pub fn new(mode: Mode, out_dir: impl Into<PathBuf>) -> RunArgs {
        RunArgs {
            mode,
            out_dir: out_dir.into(),
            obs: false,
            scale: 1.0,
            obs_stride: None,
            obs_coarse: false,
            shards: 0,
            topo: None,
            arrangement: None,
        }
    }

    /// Base experiment config for an app under this mode, with the
    /// `--obs` and `--scale` overrides applied.
    pub fn base_config(&self, app: AppKind) -> ExperimentConfig {
        let mut cfg = match self.mode {
            Mode::Quick => ExperimentConfig::quick(app),
            Mode::Full => ExperimentConfig::theta(app),
        };
        cfg.network.obs = self.obs;
        if let Some(stride) = self.obs_stride {
            cfg.network.obs_stride = stride;
        }
        cfg.network.obs_coarse_clock = self.obs_coarse;
        cfg.msg_scale *= self.scale;
        cfg.parallelism = match self.shards {
            0 => Parallelism::Serial,
            n => Parallelism::IntraRun(n),
        };
        if let Some(topo) = self.topo {
            cfg.topology = topo.config();
            let ranks = scaled_ranks(app, cfg.topology.total_nodes());
            cfg.app = match app {
                AppKind::CrystalRouter => AppSelection::CrystalRouter { ranks },
                AppKind::FillBoundary => AppSelection::FillBoundary { ranks },
                AppKind::Amg => AppSelection::Amg { ranks },
            };
        }
        if let Some(arr) = self.arrangement {
            cfg.topology.arrangement = arr;
        }
        cfg
    }

    /// Mode label for report headers.
    pub fn mode_label(&self) -> &'static str {
        match self.mode {
            Mode::Quick => "quick (768-node machine, scaled apps)",
            Mode::Full => "full (Theta: 3456 nodes, paper app sizes)",
        }
    }

    /// Open a CSV in the output directory.
    pub fn csv(&self, name: &str, header: &[&str]) -> CsvWriter<std::io::BufWriter<std::fs::File>> {
        let path = self.out_dir.join(name);
        CsvWriter::create(&path, header).unwrap_or_else(|e| panic!("cannot create {path:?}: {e}"))
    }
}

/// Parse a `--scale` factor; it is a message-size multiplier, so it
/// passes the same check as every `msg_scale` field.
pub fn parse_scale(v: &str) -> Result<f64, String> {
    let scale: f64 = v
        .parse()
        .map_err(|_| format!("--scale: {v:?} is not a number"))?;
    check_msg_scale(scale).map_err(|e| format!("--scale: {e}"))?;
    Ok(scale)
}

/// Parse `--quick` / `--full` / `--out DIR` / `--obs` / `--scale X` /
/// `--obs-stride N` / `--obs-coarse` / `--shards N` / `--topo SPEC` /
/// `--arrangement SPEC` from `std::env::args`.
pub fn parse_args() -> RunArgs {
    let mut parsed = RunArgs::new(Mode::Quick, "results");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => parsed.mode = Mode::Quick,
            "--full" => parsed.mode = Mode::Full,
            "--out" => {
                parsed.out_dir = PathBuf::from(args.next().expect("--out needs a directory"));
            }
            "--obs" => parsed.obs = true,
            "--obs-stride" => {
                let v = args.next().expect("--obs-stride needs a count");
                parsed.obs_stride = Some(v.parse().expect("--obs-stride needs an integer"));
                assert!(parsed.obs_stride != Some(0), "--obs-stride must be >= 1");
            }
            "--obs-coarse" => parsed.obs_coarse = true,
            "--shards" => {
                let v = args.next().expect("--shards needs a worker count");
                parsed.shards = v.parse().expect("--shards needs an integer");
            }
            "--scale" => {
                let v = args.next().expect("--scale needs a factor");
                parsed.scale = parse_scale(&v).unwrap_or_else(|e| panic!("{e}"));
            }
            "--topo" => {
                let v = args.next().expect("--topo needs a machine spec");
                let spec = TopoSpec::parse(&v).unwrap_or_else(|e| panic!("{e}"));
                spec.config()
                    .validate()
                    .unwrap_or_else(|e| panic!("--topo {v}: {e}"));
                parsed.topo = Some(spec);
            }
            "--arrangement" => {
                let v = args.next().expect("--arrangement needs a wiring spec");
                parsed.arrangement = Some(parse_arrangement(&v).unwrap_or_else(|e| panic!("{e}")));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: [--quick|--full] [--out DIR] [--obs] [--obs-stride N] [--obs-coarse] [--scale X] [--shards N] [--topo theta|quick|small|P,A,H,G] [--arrangement rr|consec|palm|random:SEED]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    parsed
}

/// The git revision of the working tree (`git describe --always
/// --dirty`), or `unknown` outside a checkout — recorded in bench JSON so
/// a committed number names the code that produced it.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Print a box-plot table (one row per configuration) with an ASCII
/// rendering scaled over the common axis — the terminal form of the
/// paper's communication-time figures.
pub fn print_boxplot_table(title: &str, rows: &[(String, BoxStats)]) {
    println!("\n== {title} ==");
    let lo = rows
        .iter()
        .map(|(_, s)| s.min)
        .fold(f64::INFINITY, f64::min);
    let hi = rows.iter().map(|(_, s)| s.max).fold(0.0f64, f64::max);
    let axis_hi = if hi > lo { hi } else { lo + 1.0 };
    let mut table = AsciiTable::new(vec![
        "config", "min", "q1", "median", "q3", "max", "boxplot",
    ]);
    for (label, s) in rows {
        table.row(vec![
            label.clone(),
            format!("{:.3}", s.min),
            format!("{:.3}", s.q1),
            format!("{:.3}", s.median),
            format!("{:.3}", s.q3),
            format!("{:.3}", s.max),
            render_boxplot_row(s, lo, axis_hi, 44),
        ]);
    }
    print!("{}", table.render());
    println!("(communication time in ms; axis {lo:.3}..{axis_hi:.3})");
}

/// Print a CDF family as a table of sampled points and write the full
/// series to CSV: one `(config, x, percent)` row per step.
pub fn emit_cdf_family(
    args: &RunArgs,
    csv_name: &str,
    title: &str,
    x_label: &str,
    series: &[(String, Cdf)],
) {
    let mut csv = args.csv(csv_name, &["config", x_label, "percent_of_channels"]);
    for (label, cdf) in series {
        for (x, pct) in cdf.steps() {
            csv.row(&[label.clone(), format!("{x:.6}"), format!("{pct:.4}")])
                .expect("csv write");
        }
    }
    csv.finish().expect("csv flush");

    println!("\n== {title} ==");
    let mut table = AsciiTable::new(vec!["config", "p50", "p90", "p99", "max"]);
    for (label, cdf) in series {
        if cdf.is_empty() {
            table.row(vec![
                label.clone(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        table.row(vec![
            label.clone(),
            format!("{:.4}", cdf.quantile(0.50)),
            format!("{:.4}", cdf.quantile(0.90)),
            format!("{:.4}", cdf.quantile(0.99)),
            format!("{:.4}", cdf.max().unwrap()),
        ]);
    }
    print!("{}", table.render());
    println!("({x_label}; full series in {csv_name})");
}

/// Emit the aggregate telemetry sinks for a family of runs (one grid of
/// configurations under a common `tag`, e.g. `fig3_cr`): a UGAL routing
/// ledger CSV, an event-loop profile CSV, and a one-line-per-config
/// stdout summary with a sparkline of global-link utilization over time.
///
/// Does nothing when `reports` is empty, so callers can pass the
/// (filtered) grid results unconditionally and let `--obs` decide.
pub fn emit_obs_family(args: &RunArgs, tag: &str, reports: &[(String, &ObsReport)]) {
    if reports.is_empty() {
        return;
    }

    let mut ugal = args.csv(
        &format!("obs_ugal_{tag}.csv"),
        &[
            "config",
            "minimal_taken",
            "nonminimal_taken",
            "nonminimal_fraction",
            "mean_margin",
        ],
    );
    for (label, r) in reports {
        ugal.row(&[
            label.clone(),
            r.route.minimal_taken.to_string(),
            r.route.nonminimal_taken.to_string(),
            format!("{:.6}", r.route.nonminimal_fraction()),
            format!("{:.2}", r.route.mean_margin()),
        ])
        .expect("csv write");
    }
    ugal.finish().expect("csv flush");

    let mut prof = args.csv(
        &format!("obs_profile_{tag}.csv"),
        &[
            "config",
            "inject",
            "tx_done",
            "arrive",
            "wakeup",
            "events_per_sec",
            "queue_high_water",
        ],
    );
    for (label, r) in reports {
        let p = &r.profile;
        prof.row(&[
            label.clone(),
            p.counts[EventKind::Inject.index()].to_string(),
            p.counts[EventKind::TxDone.index()].to_string(),
            p.counts[EventKind::Arrive.index()].to_string(),
            p.counts[EventKind::Wakeup.index()].to_string(),
            format!("{:.0}", p.events_per_sec()),
            p.queue_high_water.to_string(),
        ])
        .expect("csv write");
    }
    prof.finish().expect("csv flush");

    println!("\n== telemetry: {tag} ==");
    let global = dfly_obs::OBS_CLASSES.len() - 1; // Global is the last class
    for (label, r) in reports {
        let util = r.series.util_series(global);
        println!(
            "{label:>10}: {:>5.1}% nonminimal, {:>4.1} Mev/s, queue peak {:>6}, global util {}",
            r.route.nonminimal_fraction() * 100.0,
            r.profile.events_per_sec() / 1e6,
            r.profile.queue_high_water,
            sparkline(&util),
        );
    }
    println!("(full per-config ledgers in obs_ugal_{tag}.csv / obs_profile_{tag}.csv)");
}

/// Format a grid result row label.
pub fn label_of(label: &ConfigLabel) -> String {
    label.to_string()
}

/// Summarize one experiment on stdout (used by several binaries).
pub fn print_run_summary(label: &str, r: &ExperimentResult) {
    let s = r.comm_time_stats();
    println!(
        "{label:>10}: comm time median {:.3} ms (min {:.3}, max {:.3}), mean hops {:.2}, events {:.1}M",
        s.median,
        s.min,
        s.max,
        r.mean_hops(),
        r.events as f64 / 1e6,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxplot_table_prints_all_configs() {
        let rows = vec![
            (
                "cont-min".to_string(),
                BoxStats::from_samples(&[1.0, 2.0, 3.0]).unwrap(),
            ),
            (
                "rand-adp".to_string(),
                BoxStats::from_samples(&[0.5, 1.0, 1.5]).unwrap(),
            ),
        ];
        // Smoke: must not panic on a normal and on a degenerate axis.
        print_boxplot_table("test", &rows);
        let flat = vec![(
            "x".to_string(),
            BoxStats::from_samples(&[2.0, 2.0]).unwrap(),
        )];
        print_boxplot_table("flat", &flat);
    }

    #[test]
    fn emit_cdf_family_writes_full_series() {
        let dir = std::env::temp_dir().join("dfly_bench_harness_test");
        let _ = std::fs::remove_dir_all(&dir);
        let args = RunArgs::new(Mode::Quick, dir.clone());
        let series = vec![
            ("a".to_string(), Cdf::from_samples([1.0, 2.0, 3.0])),
            ("b".to_string(), Cdf::from_samples([])),
        ];
        emit_cdf_family(&args, "t.csv", "title", "x", &series);
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines[0], "config,x,percent_of_channels");
        assert_eq!(lines.len(), 4); // header + 3 points of series a
        assert!(lines[3].starts_with("a,3.000000,100"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn base_config_applies_obs_and_scale() {
        let mut args = RunArgs::new(Mode::Quick, "unused");
        let base = args.base_config(AppKind::CrystalRouter);
        assert!(!base.network.obs);
        args.obs = true;
        args.scale = 0.25;
        let cfg = args.base_config(AppKind::CrystalRouter);
        assert!(cfg.network.obs);
        assert!((cfg.msg_scale - base.msg_scale * 0.25).abs() < 1e-12);
        // No override: the NetworkParams defaults stand.
        assert_eq!(cfg.network.obs_stride, base.network.obs_stride);
        assert!(!cfg.network.obs_coarse_clock);
        cfg.validate().unwrap();

        args.obs_stride = Some(16);
        args.obs_coarse = true;
        let cfg = args.base_config(AppKind::CrystalRouter);
        assert_eq!(cfg.network.obs_stride, 16);
        assert!(cfg.network.obs_coarse_clock);
        cfg.validate().unwrap();

        assert_eq!(cfg.parallelism, Parallelism::Serial);
        args.shards = 4;
        let cfg = args.base_config(AppKind::CrystalRouter);
        assert_eq!(cfg.parallelism, Parallelism::IntraRun(4));
        cfg.validate().unwrap();
    }

    #[test]
    fn scale_flag_rejects_non_finite_and_non_positive() {
        assert_eq!(parse_scale("0.25"), Ok(0.25));
        for bad in ["inf", "NaN", "0", "-1"] {
            let err = parse_scale(bad).unwrap_err();
            assert!(err.contains("--scale: msg_scale"), "{bad}: {err}");
        }
        assert!(parse_scale("x").unwrap_err().contains("not a number"));
    }

    #[test]
    fn emit_obs_family_writes_both_sinks() {
        let dir = std::env::temp_dir().join("dfly_bench_obs_family_test");
        let _ = std::fs::remove_dir_all(&dir);
        let args = RunArgs::new(Mode::Quick, dir.clone());

        // Empty family: no files at all.
        emit_obs_family(&args, "empty", &[]);
        assert!(!dir.exists());

        use dfly_obs::{EventLoopProfile, OccupancyHistogram, RouteStats, SampleSeries};
        let mut report = ObsReport {
            profile: EventLoopProfile::new(),
            series: SampleSeries::new(dfly_engine::Ns(1_000)),
            vc_occupancy: OccupancyHistogram::new(),
            route: RouteStats::new(),
            coarse_unavailable: false,
        };
        report.route.record(false, 0);
        report.route.record(true, 64);
        report.profile.counts[EventKind::Arrive.index()] = 2;
        emit_obs_family(&args, "t", &[("cont-min".to_string(), &report)]);

        let ugal = std::fs::read_to_string(dir.join("obs_ugal_t.csv")).unwrap();
        assert!(ugal.starts_with("config,minimal_taken,nonminimal_taken"));
        assert!(ugal.contains("cont-min,1,1,0.500000"));
        let prof = std::fs::read_to_string(dir.join("obs_profile_t.csv")).unwrap();
        assert!(prof.contains("cont-min,0,0,2,0,"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn topo_and_arrangement_specs_parse() {
        assert_eq!(TopoSpec::parse("theta"), Ok(TopoSpec::Theta));
        assert_eq!(TopoSpec::parse("quick"), Ok(TopoSpec::Quick));
        assert_eq!(TopoSpec::parse("small"), Ok(TopoSpec::Small));
        assert_eq!(
            TopoSpec::parse("2,8,4,17"),
            Ok(TopoSpec::Canonical {
                p: 2,
                a: 8,
                h: 4,
                g: 17
            })
        );
        assert!(TopoSpec::parse("2,8,4").is_err());
        assert!(TopoSpec::parse("2,8,x,17").is_err());

        assert_eq!(parse_arrangement("rr"), Ok(GlobalArrangement::RoundRobin));
        assert_eq!(
            parse_arrangement("consecutive"),
            Ok(GlobalArrangement::Consecutive)
        );
        assert_eq!(
            parse_arrangement("palm-tree"),
            Ok(GlobalArrangement::PalmTree)
        );
        assert_eq!(
            parse_arrangement("random:0xBEEF"),
            Ok(GlobalArrangement::Random { seed: 0xBEEF })
        );
        assert_eq!(
            parse_arrangement("rand:12"),
            Ok(GlobalArrangement::Random { seed: 12 })
        );
        assert!(parse_arrangement("spiral").is_err());
        assert!(parse_arrangement("random:zz").is_err());
    }

    #[test]
    fn topo_override_rescales_ranks_and_sets_arrangement() {
        // The canonic 272-node machine keeps the paper's app:machine
        // ratio: 272 * 1000/3456 = 78 -> 4^3 ranks for CR/FB, and
        // 272 * 1728/3456 = 136 -> 5^3 for AMG.
        assert_eq!(scaled_ranks(AppKind::CrystalRouter, 272), 64);
        assert_eq!(scaled_ranks(AppKind::Amg, 272), 125);
        // Identity on the paper machine.
        assert_eq!(scaled_ranks(AppKind::CrystalRouter, 3456), 1000);
        assert_eq!(scaled_ranks(AppKind::Amg, 3456), 1728);

        let mut args = RunArgs::new(Mode::Quick, "unused");
        args.topo = Some(TopoSpec::parse("2,8,4,17").unwrap());
        args.arrangement = Some(GlobalArrangement::PalmTree);
        let cfg = args.base_config(AppKind::CrystalRouter);
        assert_eq!(cfg.topology.total_nodes(), 272);
        assert_eq!(cfg.app.ranks(), 64);
        assert_eq!(cfg.topology.arrangement, GlobalArrangement::PalmTree);
        cfg.validate().unwrap();

        // Arrangement alone composes with the mode's machine.
        let mut args = RunArgs::new(Mode::Quick, "unused");
        args.arrangement = Some(GlobalArrangement::Random { seed: 3 });
        let cfg = args.base_config(AppKind::CrystalRouter);
        assert_eq!(
            cfg.topology.arrangement,
            GlobalArrangement::Random { seed: 3 }
        );
        assert_eq!(cfg.app.ranks(), 216); // quick-mode ranks untouched
        cfg.validate().unwrap();
    }

    #[test]
    fn run_args_csv_creates_nested_dirs() {
        let dir = std::env::temp_dir().join("dfly_bench_csv_test/nested");
        let _ = std::fs::remove_dir_all(&dir);
        let args = RunArgs::new(Mode::Full, dir.clone());
        let mut w = args.csv("file.csv", &["a"]);
        w.row(&["1"]).unwrap();
        w.finish().unwrap();
        assert!(dir.join("file.csv").exists());
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }
}
