//! Property tests for the fixed-footprint stream structures
//! ([`StreamSummary`], [`CoarseTimeline`]): merges are equivalent to
//! single-stream feeds, summary quantiles stay within their documented
//! tolerance, timeline coarsening preserves byte mass, and everything is
//! deterministic across runs and split points (the shard-count axis).

use dfly_engine::proptest::{check, check_with_shrink, gen, shrink, Config};
use dfly_engine::{Ns, Xoshiro256};
use dfly_stats::{Cdf, CoarseTimeline, StreamSummary};

/// Summary merge ≡ single feed: count/min/max/histogram exactly, sum to
/// floating-point reassociation error; quantile estimates agree exactly
/// (they read only exact fields).
#[test]
fn summary_merge_equals_single_stream_feed() {
    check(
        "summary_merge_equals_single_stream_feed",
        &Config::with_cases(48),
        |rng| {
            let data = gen::vec_f64(rng, 1, 600, 0.0, 1e12);
            let cut = rng.next_below(data.len() as u64 + 1) as usize;
            (data, cut)
        },
        |(data, cut)| {
            let mut single = StreamSummary::new();
            for &v in data.iter() {
                single.record(v);
            }
            let (mut a, mut b) = (StreamSummary::new(), StreamSummary::new());
            for &v in &data[..*cut] {
                a.record(v);
            }
            for &v in &data[*cut..] {
                b.record(v);
            }
            a.merge_from(&b);
            if a.count() != single.count() {
                return Err("count mismatch".into());
            }
            if a.min() != single.min() || a.max() != single.max() {
                return Err("extrema mismatch".into());
            }
            let tol = 1e-9 * single.sum().abs().max(1.0);
            if (a.sum() - single.sum()).abs() > tol {
                return Err(format!("sum {} vs {}", a.sum(), single.sum()));
            }
            for q in [0.1, 0.5, 0.9] {
                if a.quantile(q) != single.quantile(q) {
                    return Err(format!("quantile({q}) mismatch"));
                }
            }
            Ok(())
        },
    );
}

/// Summary quantiles stay within the documented quarter-octave bin
/// tolerance (~9% relative) of the dense quantile on positive streams.
#[test]
fn summary_quantiles_within_documented_tolerance() {
    check(
        "summary_quantiles_within_documented_tolerance",
        &Config::with_cases(24),
        |rng| gen::vec_f64(rng, 500, 3000, 1.0, 1e9),
        |data| {
            let dense = Cdf::from_samples(data.iter().copied());
            let mut s = StreamSummary::new();
            for &v in data.iter() {
                s.record(v);
            }
            for q in [0.25, 0.5, 0.75] {
                let d = dense.quantile(q);
                let est = s.quantile(q);
                // Bin width 2^(1/4): estimate within one half-bin
                // (2^(1/8) ≈ 1.0905) of the dense value, plus slack for
                // the rank falling at a bin edge — 12% covers both.
                if (est - d).abs() / d > 0.12 {
                    return Err(format!("q{q}: dense {d} vs summary {est}"));
                }
            }
            Ok(())
        },
    );
}

/// Coarsening preserves total byte mass exactly, never exceeds the bin
/// cap, and merging timelines of different widths preserves the combined
/// mass in both merge orders.
#[test]
fn timeline_coarsening_preserves_mass() {
    check_with_shrink(
        "timeline_coarsening_preserves_mass",
        &Config::with_cases(48),
        |rng| {
            let events: Vec<(u64, u64)> = gen::vec_with(rng, 1, 400, |r| {
                (r.next_below(1 << 40), r.next_below(1 << 20))
            });
            let cut = rng.next_below(events.len() as u64 + 1) as usize;
            let max_bins = 1usize << (1 + rng.next_below(8)) as usize;
            (events, cut, max_bins)
        },
        |(events, cut, max_bins)| {
            shrink::vec(events, |_| Vec::new())
                .into_iter()
                .map(|e| {
                    let c = (*cut).min(e.len());
                    (e, c, *max_bins)
                })
                .collect()
        },
        |(events, cut, max_bins)| {
            let mut whole = CoarseTimeline::new(Ns(64), 1, *max_bins);
            let mut mass = 0u64;
            for &(at, bytes) in events.iter() {
                whole.record(0, Ns(at), bytes);
                mass += bytes;
            }
            if whole.total(0) != mass {
                return Err(format!("mass {} != {}", whole.total(0), mass));
            }
            if whole.series(0).len() > *max_bins {
                return Err(format!(
                    "bins {} exceed cap {max_bins}",
                    whole.series(0).len()
                ));
            }
            // Split feed + merge preserves mass in both orders.
            let mut a = CoarseTimeline::new(Ns(64), 1, *max_bins);
            let mut b = CoarseTimeline::new(Ns(64), 1, *max_bins);
            for &(at, bytes) in &events[..*cut] {
                a.record(0, Ns(at), bytes);
            }
            for &(at, bytes) in &events[*cut..] {
                b.record(0, Ns(at), bytes);
            }
            let mut ab = a.clone();
            ab.merge_from(&b);
            let mut ba = b.clone();
            ba.merge_from(&a);
            if ab.total(0) != mass || ba.total(0) != mass {
                return Err("merge loses mass".into());
            }
            if ab != ba {
                return Err("merge is order-dependent".into());
            }
            Ok(())
        },
    );
}

/// Determinism across runs and across shard counts: feeding the same
/// stream through 1, 2, or 4 "shards" (split summaries and timelines)
/// and merging in a scrambled order yields byte-identical state.
#[test]
fn streaming_structures_deterministic_across_shard_counts() {
    check(
        "streaming_structures_deterministic_across_shard_counts",
        &Config::with_cases(24),
        |rng| gen::vec_f64(rng, 4, 500, 0.0, 1e9),
        |data| {
            let feed_sharded = |shards: usize| -> (Vec<u64>, CoarseTimeline) {
                let chunk = data.len().div_ceil(shards);
                let mut summaries: Vec<StreamSummary> = Vec::new();
                let mut timelines: Vec<CoarseTimeline> = Vec::new();
                for slice in data.chunks(chunk) {
                    let mut s = StreamSummary::new();
                    let mut t = CoarseTimeline::new(Ns(64), 2, 64);
                    for &v in slice {
                        s.record(v);
                        t.record(v as usize % 2, Ns(v as u64), v as u64 % 4096);
                    }
                    summaries.push(s);
                    timelines.push(t);
                }
                let mut sum = summaries.pop().unwrap();
                while let Some(s) = summaries.pop() {
                    sum.merge_from(&s);
                }
                let mut tl = timelines.remove(0);
                for t in &timelines {
                    tl.merge_from(t);
                }
                let quantiles: Vec<u64> = (0..=100)
                    .step_by(25)
                    .map(|p| sum.quantile(p as f64 / 100.0).to_bits())
                    .collect();
                (quantiles, tl)
            };
            let one = feed_sharded(1);
            for shards in [2usize, 4] {
                let s = feed_sharded(shards);
                if s.0 != one.0 {
                    return Err(format!("summary quantiles differ at {shards} shards"));
                }
                if s.1 != one.1 {
                    return Err(format!("timeline differs at {shards} shards"));
                }
            }
            // Two identical runs are byte-identical.
            if feed_sharded(3) != feed_sharded(3) {
                return Err("two runs differ".into());
            }
            Ok(())
        },
    );
}

/// The structures' footprints are bounded: feeding 100x more data does
/// not grow retained bytes.
#[test]
fn streaming_footprints_bounded() {
    let mut s = StreamSummary::new();
    let mut t = CoarseTimeline::new(Ns(1), 5, 512);
    let mut rng = Xoshiro256::seed_from(7);
    for i in 0..1000u64 {
        s.record(rng.next_f64() * 1e6);
        t.record((i % 5) as usize, Ns(i * 37), i % 1000);
    }
    let (sb, tb) = (s.approx_bytes(), t.approx_bytes());
    for i in 1000..100_000u64 {
        s.record(rng.next_f64() * 1e6);
        t.record((i % 5) as usize, Ns(i * i), i % 1000);
    }
    assert_eq!(s.approx_bytes(), sb, "summary grew");
    assert!(
        t.approx_bytes() <= tb.max(5 * 512 * 8 + 256),
        "timeline grew past cap"
    );
}
