//! Benchmark entry point.
//!
//! ```text
//! simbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs the workload in fresh worker processes (this binary with
//! `--worker`), one process per run, so each run's peak RSS is its own.
//! The first run warms the host and is checked but not timed; runs then
//! repeat until `S` seconds have passed (and at least three were timed).
//! Each worker times the host-speed probe (`probe.rs`) before and after
//! its run; the end-to-end times are scaled to the reference host speed
//! by the median probe time of the invocation. With `--trace 0` it
//! reports the end-to-end metrics as medians over the untraced runs; with
//! `--trace 1` it alternates traced and untraced runs and reports the
//! per-layer metrics as medians over the traced ones, writing every span
//! to `simbench/out/`. Every run's outputs are checked:
//! against the recorded fingerprint when the seed has one, for completion
//! always, and for equality across the runs of one invocation. The last
//! line of standard output is the JSON result.

use simbench::check::{self, Fingerprint};
use simbench::trace::{self_times_ns, Span, Tracer};
use simbench::workload::{self, Size};
use simbench::{host, median, probe, quantile, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Timed runs at least, however long they take.
const MIN_TIMED_RUNS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    worker: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut worker = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--worker" {
            worker = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(int(&value)?),
            "--seconds" => seconds = Some(int(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {:?}",
            workload::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: if worker {
            0
        } else {
            seconds.ok_or("--seconds is required")?
        },
        trace: trace.ok_or("--trace is required")?,
        worker,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.worker {
        worker(&args);
        return ExitCode::SUCCESS;
    }
    match drive(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One run, in this process; results go to stdout, one `key values...`
/// line each, for the parent process to parse.
fn worker(args: &Args) {
    let probe_before = probe::run();
    let cpu0 = host::cpu_ns();
    let mut t = Tracer::start(args.trace);
    let input = workload::input(&args.workload, args.seed, Size::Full)
        .expect("workload name checked by parse_args");
    let replay = workload::replay(&input, &mut t);
    let verdict = t.span("bench.check", || {
        check::verify(
            check::RECORDED,
            &args.workload,
            args.seed,
            &replay.fingerprint,
        )
    });
    let wall_ns = t.elapsed_ns();
    let cpu_ns = host::cpu_ns() - cpu0;
    let spans = t.finish();
    let probe_after = probe::run();

    let mut out = String::new();
    let completed = match verdict {
        Ok(()) => replay.completed,
        Err(e) => {
            out += &format!("error {e}\n");
            0
        }
    };
    out += &format!("jobs {} {completed}\n", replay.jobs);
    out += &format!(
        "wall_ns {wall_ns}\nsetup_ns {}\ncpu_ns {cpu_ns}\n",
        replay.setup_ns
    );
    out += &format!("probe_ns {probe_before} {probe_after}\n");
    out += &format!("peak_rss_mb {}\n", host::peak_rss_mb());
    for (field, value) in &replay.fingerprint.0 {
        out += &format!("fp {field} {value}\n");
    }
    for (name, value) in &replay.memory {
        out += &format!("mem {name} {value}\n");
    }
    for s in &spans {
        out += &format!(
            "span {} {} {} {} {}\n",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        );
    }
    std::io::stdout()
        .write_all(out.as_bytes())
        .expect("worker cannot write its results");
}

/// One worker run as the parent process saw it.
#[derive(Default)]
struct Run {
    traced: bool,
    jobs: u64,
    completed: u64,
    errors: Vec<String>,
    wall_s: f64,
    setup_s: f64,
    cpu_s: f64,
    /// Geometric mean of the probe times before and after the run.
    probe_s: f64,
    peak_rss_mb: f64,
    fingerprint: Fingerprint,
    memory: Vec<(String, f64)>,
    spans: Vec<Span>,
}

fn spawn_worker(args: &Args, traced: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--worker", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a worker: {e}"))?;
    let mut run = Run {
        traced,
        ..Run::default()
    };
    let text = String::from_utf8_lossy(&output.stdout);
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let f: Vec<&str> = rest.split(' ').collect();
        let num = |i: usize| -> f64 { f.get(i).and_then(|v| v.parse().ok()).unwrap_or(f64::NAN) };
        let int = |i: usize| -> u64 { f.get(i).and_then(|v| v.parse().ok()).unwrap_or(0) };
        match key {
            "error" => run.errors.push(rest.to_string()),
            "jobs" => (run.jobs, run.completed) = (int(0), int(1)),
            "wall_ns" => run.wall_s = num(0) / 1e9,
            "setup_ns" => run.setup_s = num(0) / 1e9,
            "cpu_ns" => run.cpu_s = num(0) / 1e9,
            "probe_ns" => run.probe_s = (num(0) * num(1)).sqrt() / 1e9,
            "peak_rss_mb" => run.peak_rss_mb = num(0),
            "fp" => run.fingerprint.push(f[0], int(1)),
            "mem" => run.memory.push((f[0].to_string(), num(1))),
            "span" => run.spans.push(Span {
                id: int(0) as u32,
                parent: int(1) as u32,
                name: f.get(2).unwrap_or(&"").to_string(),
                start_ns: int(3),
                end_ns: int(4),
            }),
            _ => run.errors.push(format!("unparsed worker line {line:?}")),
        }
    }
    if !output.status.success() {
        run.errors
            .push(format!("worker exited with {}", output.status));
        run.jobs = run.jobs.max(1);
        run.completed = 0;
    }
    Ok(run)
}

fn drive(args: &Args) -> Result<(), String> {
    let rev = host::git_revision(Path::new("."));
    let cores = host::cores();
    let budget = Duration::from_secs(args.seconds);
    let mut runs: Vec<Run> = Vec::new();
    // Warm-up: checked like every run, timed by none.
    runs.push(spawn_worker(args, false)?);
    let start = Instant::now();
    loop {
        // Trace mode alternates traced and untraced runs, for the overhead.
        let traced = args.trace && runs.len() % 2 == 1;
        runs.push(spawn_worker(args, traced)?);
        let timed = runs.len() - 1;
        let enough = timed >= MIN_TIMED_RUNS && (!args.trace || timed.is_multiple_of(2));
        if enough && start.elapsed() >= budget {
            break;
        }
    }

    // Every run of one input must reproduce the first run's outputs.
    let reference = runs[0].fingerprint.clone();
    for (i, run) in runs.iter_mut().enumerate().skip(1) {
        if let Some(why) = run.fingerprint.mismatch(&reference) {
            run.errors
                .push(format!("run {i} differs from run 0: {why}"));
            run.completed = 0;
        }
    }
    let attempted: u64 = runs.iter().map(|r| r.jobs).sum();
    let failed: u64 = runs.iter().map(|r| r.jobs - r.completed.min(r.jobs)).sum();
    let errors: Vec<&String> = runs.iter().flat_map(|r| &r.errors).collect();
    for e in &errors {
        eprintln!("simbench: {e}");
    }
    let correct = failed == 0 && errors.is_empty();

    let timed = &runs[1..];
    let untraced: Vec<&Run> = timed.iter().filter(|r| !r.traced).collect();
    let probes: Vec<f64> = untraced.iter().map(|r| r.probe_s).collect();
    let scale = probe::REFERENCE_S / median(&probes);
    let host = |name: &str| -> Vec<f64> {
        untraced
            .iter()
            .map(|r| host_metric(r, name, scale))
            .collect()
    };
    let mut metrics: Vec<(&str, &str, Vec<f64>)> = Vec::new();
    if args.trace {
        let traced: Vec<&Run> = timed.iter().filter(|r| r.traced).collect();
        let per_run: Vec<BTreeMap<&str, f64>> = traced.iter().map(|r| layer_metrics(r)).collect();
        let overhead = median(
            &per_run
                .iter()
                .map(|m| m["trace.wall_s"])
                .collect::<Vec<_>>(),
        ) - median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        for m in PER_LAYER {
            let values = match m.name {
                "trace.overhead_s" => vec![overhead],
                "host.cores" => vec![cores as f64],
                name if HOST_TIMES.contains(&name) => host(name),
                name => per_run
                    .iter()
                    .map(|r| r.get(name).copied().unwrap_or(0.0))
                    .collect(),
            };
            metrics.push((m.name, m.unit, values));
        }
        write_spans(args, &rev, cores, &traced)?;
    } else {
        for m in END_TO_END {
            metrics.push((m.name, m.unit, host(m.name)));
        }
    }

    println!(
        "# simbench {} seed {}: {} runs after warm-up, host cores {cores}, revision {rev}",
        args.workload,
        args.seed,
        timed.len()
    );
    if !args.trace {
        // The unscaled host times, for the reader; the result line has
        // only the end-to-end metrics.
        for name in HOST_TIMES {
            print_quartiles(name, "s", &host(name));
        }
    }
    let mut json = String::new();
    for (i, (name, unit, values)) in metrics.iter().enumerate() {
        let value = median(values);
        print_quartiles(name, unit, values);
        let sep = if i == 0 { "" } else { ", " };
        json += &format!("{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
    Ok(())
}

/// Unscaled host times, reported per layer.
const HOST_TIMES: [&str; 4] = ["host.wall_s", "host.setup_s", "host.cpu_s", "host.probe_s"];

/// Host-side value `name` of one run: an end-to-end metric (the times
/// multiplied by `scale`, the reference probe time over the invocation's
/// median probe time, and the peak RSS) or one of the unscaled
/// [`HOST_TIMES`].
fn host_metric(r: &Run, name: &str, scale: f64) -> f64 {
    match name {
        "wall_s" => r.wall_s * scale,
        "setup_s" => r.setup_s * scale,
        "cpu_s" => r.cpu_s * scale,
        "peak_rss_mb" => r.peak_rss_mb,
        "host.wall_s" => r.wall_s,
        "host.setup_s" => r.setup_s,
        "host.cpu_s" => r.cpu_s,
        "host.probe_s" => r.probe_s,
        _ => unreachable!("{name} is not a host-side metric"),
    }
}

/// One `#` line: a metric's median and quartiles over the runs.
fn print_quartiles(name: &str, unit: &str, values: &[f64]) {
    println!(
        "# {name} = {} {unit} (median of {}; quartiles {} .. {})",
        median(values),
        values.len(),
        quantile(values, 0.25),
        quantile(values, 0.75)
    );
}

/// Per-layer metrics of one traced run: span self times by layer, the
/// memory read around calls, and the run's exact counts.
fn layer_metrics(run: &Run) -> BTreeMap<&'static str, f64> {
    let selfs = self_times_ns(&run.spans);
    let self_ns = |name: &str| -> f64 {
        run.spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64)
            .sum()
    };
    let steps: Vec<f64> = run
        .spans
        .iter()
        .filter(|s| s.name == "core.service.step")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let count = |field: &str| run.fingerprint.get(field).unwrap_or(0) as f64;
    let events = count("events");
    let loop_ns =
        self_ns("core.mpi.run") + self_ns("core.service.step") + self_ns("core.service.drain");

    let mut out = BTreeMap::new();
    for (metric, span) in [
        ("core.config.validate_s", "core.config.validate"),
        ("topology.build_s", "topology.build"),
        ("placement.allocate_s", "placement.allocate"),
        ("workloads.generate_s", "workloads.generate"),
        ("network.new_s", "network.new"),
        ("core.mpi.run_s", "core.mpi.run"),
        ("network.shard.finish_s", "network.shard.finish"),
        ("network.metrics_s", "network.metrics"),
        ("obs.report_s", "obs.report"),
        ("stats.cdf_s", "stats.cdf"),
        ("core.service.drain_s", "core.service.drain"),
        ("bench.check_s", "bench.check"),
        ("trace.unattributed_s", "run"),
    ] {
        out.insert(metric, self_ns(span) / 1e9);
    }
    out.insert("trace.wall_s", run.wall_s);
    out.insert(
        "network.ns_per_event",
        if events > 0.0 { loop_ns / events } else { 0.0 },
    );
    out.insert("core.service.step_ms.p50", quantile(&steps, 0.5));
    out.insert("core.service.step_ms.p90", quantile(&steps, 0.9));
    out.insert("core.service.steps", steps.len() as f64);
    for (metric, field) in [
        ("workloads.messages", "messages"),
        ("network.events", "events"),
        ("obs.sample_windows", "obs_windows"),
        ("obs.events.inject", "inject"),
        ("obs.events.tx_done", "tx_done"),
        ("obs.events.arrive", "arrive"),
        ("obs.events.wakeup", "wakeup"),
        ("core.service.jobs_completed", "jobs_completed"),
        ("core.service.peak_active_jobs", "peak_active_jobs"),
        ("core.service.job_slots", "job_slots"),
    ] {
        out.insert(metric, count(field));
    }
    for (name, value) in &run.memory {
        if let Some(m) = PER_LAYER.iter().find(|m| m.name == name) {
            out.insert(m.name, *value);
        }
    }
    out
}

/// Write every traced run's spans to `simbench/out/`.
fn write_spans(args: &Args, rev: &str, cores: usize, traced: &[&Run]) -> Result<(), String> {
    let dir = Path::new("simbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    let mut text = format!(
        "# workload {} seed {} host_cores {cores} revision {rev}\nrun\tid\tparent\tname\tstart_ns\tend_ns\n",
        args.workload, args.seed
    );
    for (i, run) in traced.iter().enumerate() {
        for s in &run.spans {
            text += &format!(
                "{i}\t{}\t{}\t{}\t{}\t{}\n",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
