//! Golden-run regression suite: the figure pipelines, end to end, against
//! committed reference CSVs.
//!
//! Each test drives a real reproduction pipeline **in-process** (the same
//! `dfly_bench::figures` code the binaries call) at `--quick --scale 0.05`
//! with the default seed (0x5EED), then compares the produced CSV
//! **byte-for-byte** against the golden copy in `tests/golden/`. Any
//! behavioral drift anywhere in the stack — engine event ordering, routing
//! scores, placement draws, workload traces, stats formatting — shows up
//! as a byte diff here before it can silently reshape a figure.
//!
//! ## Updating the goldens
//!
//! When a change *intentionally* alters results (a model fix, a new
//! default), regenerate the references and commit the diff:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_figures
//! git diff tests/golden/   # review: every changed number is a changed result
//! ```
//!
//! The tests never write to `tests/golden/` unless `UPDATE_GOLDENS=1` is
//! set, and they fail (not update) on any mismatch otherwise.

use dfly_bench::figures;
use dfly_bench::{Mode, RunArgs};
use std::path::{Path, PathBuf};

/// The scale keeping a full ten-config grid per app affordable in a debug
/// test run while still exercising every pipeline stage.
const GOLDEN_SCALE: f64 = 0.05;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn run_args(out_tag: &str) -> RunArgs {
    let out = std::env::temp_dir().join(format!("dfly_golden_{out_tag}"));
    let _ = std::fs::remove_dir_all(&out);
    let mut args = RunArgs::new(Mode::Quick, out);
    args.scale = GOLDEN_SCALE;
    args
}

/// Byte-for-byte comparison of a produced CSV against its golden copy,
/// or regeneration under `UPDATE_GOLDENS=1`.
fn assert_matches_golden(produced: &Path, name: &str) {
    let produced_bytes =
        std::fs::read(produced).unwrap_or_else(|e| panic!("pipeline wrote no {produced:?}: {e}"));
    let golden_path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&golden_path, &produced_bytes).unwrap();
        eprintln!("updated golden {golden_path:?}");
        return;
    }
    let golden_bytes = std::fs::read(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {golden_path:?} ({e}); \
             run `UPDATE_GOLDENS=1 cargo test --test golden_figures` and commit it"
        )
    });
    if produced_bytes != golden_bytes {
        // Find the first differing line for a readable failure.
        let produced_text = String::from_utf8_lossy(&produced_bytes);
        let golden_text = String::from_utf8_lossy(&golden_bytes);
        let mut detail = String::from("(no line-level diff: lengths differ in trailing data)");
        for (i, (p, g)) in produced_text.lines().zip(golden_text.lines()).enumerate() {
            if p != g {
                detail = format!(
                    "first diff at line {}:\n  golden:   {g}\n  produced: {p}",
                    i + 1
                );
                break;
            }
        }
        panic!(
            "{name} drifted from the golden reference ({} vs {} bytes)\n{detail}\n\
             If this change is intentional, regenerate with \
             `UPDATE_GOLDENS=1 cargo test --test golden_figures` and commit the diff.",
            produced_bytes.len(),
            golden_bytes.len(),
        );
    }
}

#[test]
fn fig3_pipeline_matches_golden() {
    let args = run_args("fig3");
    figures::fig3(&args);
    assert_matches_golden(
        &args.out_dir.join("fig3_comm_time.csv"),
        "fig3_comm_time.csv",
    );
    let _ = std::fs::remove_dir_all(&args.out_dir);
}

/// The fig3 pipeline with telemetry on streams every run into the obs
/// sinks and the sparse channel metrics; it must stay perfectly
/// reproducible: two runs with the same seed produce byte-identical
/// copies of every CSV artifact, and the figure CSV still matches its
/// golden (telemetry is a pure observer).
#[test]
fn fig3_streaming_pipeline_is_byte_reproducible() {
    let run = |tag: &str| {
        let mut args = run_args(tag);
        args.obs = true;
        figures::fig3(&args);
        args.out_dir
    };
    let a = run("fig3_stream_a");
    let b = run("fig3_stream_b");
    let mut names: Vec<String> = std::fs::read_dir(&a)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        // The event-loop profile reports wall-clock throughput
        // (`events_per_sec`), which legitimately varies run to run;
        // every other sink is pure simulated-time data.
        .filter(|n| !n.starts_with("obs_profile"))
        .collect();
    names.sort();
    assert!(
        names.iter().any(|n| n.starts_with("obs_")),
        "telemetry sinks missing: {names:?}"
    );
    for name in &names {
        let ba = std::fs::read(a.join(name)).unwrap();
        let bb = std::fs::read(b.join(name))
            .unwrap_or_else(|e| panic!("second run did not write {name}: {e}"));
        assert_eq!(ba, bb, "{name} differs between identically-seeded runs");
    }
    assert_matches_golden(&a.join("fig3_comm_time.csv"), "fig3_comm_time.csv");
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

#[test]
fn table2_pipeline_matches_golden() {
    let args = run_args("table2");
    figures::table2(&args);
    assert_matches_golden(
        &args.out_dir.join("table2_background_load.csv"),
        "table2_background_load.csv",
    );
    let _ = std::fs::remove_dir_all(&args.out_dir);
}
