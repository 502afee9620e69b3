//! A minimal in-tree benchmark harness — the zero-dependency replacement
//! for Criterion, in the same spirit as `dfly_engine::rng` replacing
//! `rand` and `dfly_engine::proptest` replacing `proptest`.
//!
//! Deliberately tiny: per benchmark it runs a short warmup, calibrates an
//! iterations-per-sample count so one sample is long enough to time
//! reliably, then takes N timed samples and reports the median / p10 /
//! p90 per-iteration time to stdout plus one row in
//! `results/microbench_<target>.csv`. No statistics beyond percentiles,
//! no outlier analysis, no HTML — the reproduction only needs stable
//! relative numbers, offline.
//!
//! The public surface intentionally mirrors the subset of Criterion's API
//! the eight bench targets already used (`Criterion`, `benchmark_group`,
//! `sample_size`, `bench_function`, `iter`, `iter_batched`, `BatchSize`,
//! `criterion_group!`, `criterion_main!`), so a bench file only swaps its
//! `use criterion::...` line for `use dfly_bench::...`.

use std::io::Write as _;
use std::time::{Duration, Instant};

/// How `iter_batched` amortizes setup. Kept for API compatibility; this
/// harness times every routine invocation individually, so the variants
/// behave identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Setup output is small; batch freely.
    SmallInput,
    /// Setup output is large; keep batches small.
    LargeInput,
    /// One setup per timed invocation.
    PerIteration,
}

/// One finished benchmark's timings, in nanoseconds per iteration.
#[derive(Debug, Clone)]
struct Record {
    group: String,
    name: String,
    iters_per_sample: u64,
    samples: usize,
    median_ns: f64,
    p10_ns: f64,
    p90_ns: f64,
}

/// Top-level harness state: CLI filter and accumulated results.
pub struct Criterion {
    target: String,
    filter: Option<String>,
    records: Vec<Record>,
}

impl Criterion {
    /// Build from `cargo bench` CLI args: flags (`--bench`, `--quiet`,
    /// ...) are ignored, the first bare argument is a substring filter on
    /// `group/name`.
    pub fn from_args(target: &str) -> Criterion {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion {
            target: target.to_string(),
            filter,
            records: Vec::new(),
        }
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 30,
        }
    }

    /// Write the CSV artifact and a closing line. Called by
    /// [`criterion_main!`] after all groups ran.
    pub fn finalize(&self, results_dir: &str) {
        if self.records.is_empty() {
            println!("no benchmarks matched the filter");
            return;
        }
        let dir = std::path::Path::new(results_dir);
        let path = dir.join(format!("microbench_{}.csv", self.target));
        let mut csv = String::from("group,name,iters_per_sample,samples,median_ns,p10_ns,p90_ns\n");
        for r in &self.records {
            csv.push_str(&format!(
                "{},{},{},{},{:.1},{:.1},{:.1}\n",
                r.group, r.name, r.iters_per_sample, r.samples, r.median_ns, r.p10_ns, r.p90_ns
            ));
        }
        match std::fs::create_dir_all(dir).and_then(|()| {
            std::fs::File::create(&path).and_then(|mut f| f.write_all(csv.as_bytes()))
        }) {
            Ok(()) => println!("\n{} benchmarks -> {}", self.records.len(), path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

/// A group of benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark (default 30).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Run one benchmark. `f` receives a [`Bencher`] and must call
    /// [`Bencher::iter`] or [`Bencher::iter_batched`] exactly once.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        let full = format!("{}/{}", self.name, id);
        if let Some(filter) = &self.criterion.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }
        let mut b = Bencher {
            sample_size: self.sample_size,
            result: None,
        };
        f(&mut b);
        let (iters_per_sample, mut per_iter_ns) = b
            .result
            .unwrap_or_else(|| panic!("benchmark {full} never called iter()/iter_batched()"));
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| -> f64 {
            let idx = ((per_iter_ns.len() - 1) as f64 * p).round() as usize;
            per_iter_ns[idx]
        };
        let record = Record {
            group: self.name.clone(),
            name: id,
            iters_per_sample,
            samples: per_iter_ns.len(),
            median_ns: pct(0.50),
            p10_ns: pct(0.10),
            p90_ns: pct(0.90),
        };
        println!(
            "{full:<50} median {:>12} (p10 {}, p90 {}; {} samples x {} iters)",
            fmt_ns(record.median_ns),
            fmt_ns(record.p10_ns),
            fmt_ns(record.p90_ns),
            record.samples,
            record.iters_per_sample,
        );
        self.criterion.records.push(record);
        self
    }

    /// No-op (results are recorded as each benchmark finishes); kept so
    /// existing `g.finish()` calls compile.
    pub fn finish(&mut self) {}
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s/iter", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms/iter", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us/iter", ns / 1e3)
    } else {
        format!("{ns:.1} ns/iter")
    }
}

/// Warmup budget: keep running until this much time or this many calls.
const WARMUP_TIME: Duration = Duration::from_millis(30);
const WARMUP_MIN_CALLS: u32 = 3;
/// Target wall-clock duration of one timed sample.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(2);
/// Cap on iterations batched into one sample (bounds calibration error
/// for extremely fast routines).
const MAX_ITERS_PER_SAMPLE: u64 = 1 << 20;

/// Runs the measured closure: warmup, calibration, timed samples.
pub struct Bencher {
    sample_size: usize,
    /// `(iters_per_sample, per-iteration nanoseconds of each sample)`.
    result: Option<(u64, Vec<f64>)>,
}

impl Bencher {
    /// Benchmark `f` including everything it does (Criterion's `iter`).
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        // Warmup + per-call estimate.
        let warm_start = Instant::now();
        let mut calls = 0u32;
        while calls < WARMUP_MIN_CALLS || warm_start.elapsed() < WARMUP_TIME {
            std::hint::black_box(f());
            calls += 1;
        }
        let per_call = warm_start.elapsed().as_secs_f64() / calls as f64;
        let iters = iters_per_sample(per_call);
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.result = Some((iters, samples));
    }

    /// Benchmark `routine` on fresh `setup` output, excluding setup time
    /// (Criterion's `iter_batched`). Every invocation is timed
    /// individually, so `_size` only exists for API compatibility.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let warm_start = Instant::now();
        let mut calls = 0u32;
        while calls < WARMUP_MIN_CALLS || warm_start.elapsed() < WARMUP_TIME {
            let input = setup();
            std::hint::black_box(routine(input));
            calls += 1;
        }
        // A sample runs setup as often as the routine, so it is sized by
        // both: sized by the routine alone, a slow setup would run until
        // the routine's time filled the sample.
        let per_call = warm_start.elapsed().as_secs_f64() / calls as f64;
        let iters = iters_per_sample(per_call);
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut elapsed = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let t = Instant::now();
                std::hint::black_box(routine(input));
                elapsed += t.elapsed();
            }
            samples.push(elapsed.as_nanos() as f64 / iters as f64);
        }
        self.result = Some((iters, samples));
    }
}

/// Iterations per sample so one sample lasts ~[`TARGET_SAMPLE_TIME`].
fn iters_per_sample(per_call_secs: f64) -> u64 {
    if per_call_secs <= 0.0 {
        return MAX_ITERS_PER_SAMPLE;
    }
    ((TARGET_SAMPLE_TIME.as_secs_f64() / per_call_secs).ceil() as u64)
        .clamp(1, MAX_ITERS_PER_SAMPLE)
}

/// Bundle benchmark functions (each `fn(&mut Criterion)`) into one group
/// runner, mirroring Criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($fun:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $($fun(c);)+
        }
    };
}

/// Generate `main` for a bench target: run every group, then write the
/// CSV artifact into the workspace `results/` directory.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args(env!("CARGO_CRATE_NAME"));
            $($group(&mut c);)+
            c.finalize(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_targets_sample_time() {
        // 1 µs per call -> ~2000 iterations to fill a 2 ms sample.
        let iters = iters_per_sample(1e-6);
        assert!((1000..=4000).contains(&iters), "iters {iters}");
        // Very slow calls run once per sample.
        assert_eq!(iters_per_sample(1.0), 1);
        // Degenerate estimates clamp instead of dividing by zero.
        assert_eq!(iters_per_sample(0.0), MAX_ITERS_PER_SAMPLE);
    }

    #[test]
    fn bencher_collects_requested_samples() {
        let mut b = Bencher {
            sample_size: 7,
            result: None,
        };
        b.iter(|| std::hint::black_box(3u64.wrapping_mul(5)));
        let (iters, samples) = b.result.expect("iter ran");
        assert_eq!(samples.len(), 7);
        assert!(iters >= 1);
        assert!(samples.iter().all(|&ns| ns >= 0.0));
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut b = Bencher {
            sample_size: 5,
            result: None,
        };
        // Setup is much slower than the routine; per-iter time must stay
        // well under the setup cost if setup is excluded.
        b.iter_batched(
            || {
                std::thread::sleep(Duration::from_millis(1));
                42u64
            },
            |v| std::hint::black_box(v.wrapping_mul(3)),
            BatchSize::SmallInput,
        );
        let (_, samples) = b.result.expect("ran");
        let median = samples[samples.len() / 2];
        assert!(median < 500_000.0, "setup leaked into timing: {median} ns");
    }

    #[test]
    fn records_and_percentiles() {
        let mut c = Criterion {
            target: "test".into(),
            filter: None,
            records: Vec::new(),
        };
        let mut g = c.benchmark_group("grp");
        g.sample_size(5).bench_function("fast", |b| {
            b.iter(|| std::hint::black_box(1u32 + 1));
        });
        g.finish();
        assert_eq!(c.records.len(), 1);
        let r = &c.records[0];
        assert_eq!(r.group, "grp");
        assert_eq!(r.name, "fast");
        assert!(r.p10_ns <= r.median_ns && r.median_ns <= r.p90_ns);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut c = Criterion {
            target: "test".into(),
            filter: Some("nomatch".into()),
            records: Vec::new(),
        };
        let mut g = c.benchmark_group("grp");
        g.bench_function("fast", |b| b.iter(|| 1u32));
        assert!(c.records.is_empty());
    }
}
