//! The benchmark's own checks: its replays reproduce the library's entry
//! points, its output check catches a wrong result, its counts are exact,
//! and its metric names are the ones `BENCHMARK.json` declares.

use simbench::check::{self, Fingerprint};
use simbench::trace::{self_times_ns, Tracer};
use simbench::workload::{self, Input, Size, NAMES};
use simbench::{END_TO_END, PER_LAYER};

const SEED: u64 = 7;

fn shrunk(name: &str) -> Input {
    workload::input(name, SEED, Size::Shrunk).expect("known workload")
}

fn replay(name: &str, traced: bool) -> (Fingerprint, Vec<simbench::trace::Span>) {
    let mut t = Tracer::start(traced);
    let r = workload::replay(&shrunk(name), &mut t);
    assert_eq!(r.completed, r.jobs, "{name}: every job completes");
    (r.fingerprint, t.finish())
}

/// The fingerprint `run_experiment` / `run_service` produce for the same
/// input.
fn reference(name: &str) -> Fingerprint {
    match shrunk(name) {
        Input::Experiment(cfg) => {
            workload::experiment_fingerprint(&dfly_core::run_experiment(&cfg)).0
        }
        Input::Service { plan, config } => {
            let subs = workload::submissions(&plan);
            let config = dfly_core::ServiceConfig {
                submissions: subs.clone(),
                ..config
            };
            workload::service_fingerprint(&dfly_core::run_service(&config), &subs).0
        }
    }
}

#[test]
fn replays_match_the_library_entry_points() {
    for name in NAMES {
        let (got, _) = replay(name, true);
        let want = reference(name);
        for (field, value) in &want.0 {
            assert_eq!(got.get(field), Some(*value), "{name}: field {field}");
        }
    }
}

#[test]
fn a_tampered_record_is_caught_and_named() {
    let (fp, _) = replay("theta-cr-rand-adp", false);
    let table = |fp: &Fingerprint| {
        fp.0.iter()
            .map(|(f, v)| format!("theta-cr-rand-adp\t{SEED}\t{f}\t{v}\n"))
            .collect::<String>()
    };
    check::verify(&table(&fp), "theta-cr-rand-adp", SEED, &fp).expect("true record passes");

    let mut tampered = fp.clone();
    let job_end = tampered
        .0
        .iter_mut()
        .find(|(f, _)| f == "job_end_ns")
        .unwrap();
    job_end.1 += 1;
    let err = check::verify(&table(&tampered), "theta-cr-rand-adp", SEED, &fp)
        .expect_err("tampered record is caught");
    assert!(err.contains("field job_end_ns"), "{err}");

    // Another seed has no record: only the completion checks apply.
    check::verify(&table(&tampered), "theta-cr-rand-adp", SEED + 1, &fp).expect("unrecorded");
}

#[test]
fn exact_counts_repeat_and_tracing_changes_no_output() {
    for name in NAMES {
        let (first, _) = replay(name, false);
        let (second, _) = replay(name, true);
        assert_eq!(first, second, "{name}");
        let counts: &[&str] = match name {
            "service-easy" => &["events", "jobs_completed", "peak_active_jobs", "job_slots"],
            "scale-131k-obs" => &["events", "messages", "obs_windows", "tx_done"],
            _ => &["events", "messages", "ranks_completed"],
        };
        for field in counts {
            assert!(first.get(field).is_some_and(|v| v > 0), "{name}: {field}");
        }
    }
}

#[test]
fn layer_spans_account_for_the_run() {
    for name in NAMES {
        let (_, spans) = replay(name, true);
        assert_eq!(spans[0].name, "run");
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].duration_ns(), "{name}");
        for layer in ["topology.build", "network.new", "workloads.generate"] {
            assert!(spans.iter().any(|s| s.name == layer), "{name}: {layer}");
        }
    }
}

#[test]
fn the_recorded_table_parses_and_names_known_workloads() {
    for line in check::RECORDED.lines().filter(|l| !l.starts_with('#')) {
        let workload = line.split('\t').next().unwrap();
        assert!(NAMES.contains(&workload), "{line}");
    }
    for name in NAMES {
        for seed in 0..16 {
            check::recorded(check::RECORDED, name, seed).expect("well-formed");
        }
    }
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn declared(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect(key);
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("name value").to_string())
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_declared() {
    let all: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    for name in &all {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "{name}"
        );
        assert_eq!(
            all.iter().filter(|n| n == &name).count(),
            1,
            "{name} is unique"
        );
    }
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names = |ms: &[simbench::Metric]| ms.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
    assert_eq!(declared(&json, "end_to_end"), names(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), names(&PER_LAYER));
    assert_eq!(declared(&json, "workloads"), NAMES.map(String::from));
}
