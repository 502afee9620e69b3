//! Empirical cumulative distribution functions.
//!
//! Figures 4–6 and 8–10 of the paper plot "percentage of local/global
//! channels" (y) against traffic amount or saturated time (x): an empirical
//! CDF over the channel population. [`Cdf`] holds the sorted sample set and
//! produces exactly those series.

/// An empirical CDF over a set of samples.
///
/// A channel CDF over a large machine is mostly zeros (idle links), so
/// the samples are held as a run of `+0.0` samples plus the sorted rest.
/// The logical sorted sequence is `sorted[..z]`, then `zeros` copies of
/// `+0.0`, then `sorted[z..]`, where `z` counts the negative samples —
/// exactly the order a stable sort of every sample, zeros first, gives.
/// Every accessor reads that sequence, so a CDF built from a zero count
/// and the non-zero samples equals one built from all the samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    /// `+0.0` samples, sitting right after the negative ones.
    zeros: usize,
    /// Every other sample, ascending.
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from unsorted samples. NaN values are rejected with a panic
    /// (they would poison the ordering silently).
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Cdf {
        Cdf::with_zeros(0, samples)
    }

    /// Build from `zeros` samples of `+0.0` followed by `samples` — the
    /// idle channels of a population counted rather than listed.
    pub fn with_zeros(zeros: usize, samples: impl IntoIterator<Item = f64>) -> Cdf {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(
            sorted.iter().all(|v| !v.is_nan()),
            "NaN sample in CDF input"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        // Fold the `+0.0` samples that directly follow the zero run into
        // it, so equal sequences have equal representations.
        let z = sorted.partition_point(|&v| v < 0.0);
        let run = sorted[z..].iter().take_while(|v| v.to_bits() == 0).count();
        sorted.drain(z..z + run);
        Cdf {
            zeros: zeros + run,
            sorted,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.zeros + self.sorted.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes of the stored samples (the zero run costs none), plus
    /// the struct itself.
    pub fn approx_bytes(&self) -> usize {
        self.sorted.capacity() * std::mem::size_of::<f64>() + std::mem::size_of::<Cdf>()
    }

    /// Number of negative samples: where the zero run starts.
    fn negatives(&self) -> usize {
        self.sorted.partition_point(|&v| v < 0.0)
    }

    /// The `i`th smallest sample.
    fn at(&self, i: usize, negatives: usize) -> f64 {
        if i < negatives {
            self.sorted[i]
        } else if i < negatives + self.zeros {
            0.0
        } else {
            self.sorted[i - self.zeros]
        }
    }

    /// Fraction of samples `<= x`, in [0, 1].
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let zeros = if 0.0 <= x { self.zeros } else { 0 };
        let count = self.sorted.partition_point(|&v| v <= x) + zeros;
        count as f64 / self.len() as f64
    }

    /// Percentage of samples `<= x`, in [0, 100] (the paper's y-axis).
    pub fn percent_at_or_below(&self, x: f64) -> f64 {
        100.0 * self.fraction_at_or_below(x)
    }

    /// The value below which `fraction` of the samples fall (inverse CDF),
    /// interpolated linearly between ranks as
    /// [`percentile_sorted`](crate::summary::percentile_sorted) does.
    /// `fraction` is clamped to [0, 1].
    pub fn quantile(&self, fraction: f64) -> f64 {
        assert!(!self.is_empty(), "quantile of empty CDF");
        let neg = self.negatives();
        let n = self.len();
        if n == 1 {
            return self.at(0, neg);
        }
        let p = fraction.clamp(0.0, 1.0) * 100.0;
        let rank = p / 100.0 * (n - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        let (a, b) = (self.at(lo, neg), self.at(hi, neg));
        a + (b - a) * (rank - lo as f64)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.at(0, self.negatives()))
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.at(self.len() - 1, self.negatives()))
    }

    /// The full `(x, percent)` step series: one point per sample, suitable
    /// for plotting the paper's channel-CDF figures. Lazy — no per-call
    /// allocation; `.collect()` when a `Vec` is needed.
    pub fn steps(&self) -> impl ExactSizeIterator<Item = (f64, f64)> + '_ {
        let (n, neg) = (self.len(), self.negatives());
        (0..n).map(move |i| (self.at(i, neg), 100.0 * (i + 1) as f64 / n as f64))
    }

    /// A downsampled series of at most `k` points, evenly spaced in rank;
    /// always includes the final (max, 100%) point. Used to print readable
    /// tables for populations of tens of thousands of channels. Lazy — no
    /// per-call allocation.
    pub fn sampled_points(&self, k: usize) -> impl ExactSizeIterator<Item = (f64, f64)> + '_ {
        assert!(k >= 2, "need at least 2 points");
        let (n, neg) = (self.len(), self.negatives());
        (0..n.min(k)).map(move |j| {
            let i = if n <= k { j } else { j * (n - 1) / (k - 1) };
            (self.at(i, neg), 100.0 * (i + 1) as f64 / n as f64)
        })
    }

    /// Area-style mean of the samples: the same left-to-right sum over
    /// the sorted sequence as [`mean`](crate::summary::mean). Adding
    /// `+0.0` can only turn a `-0.0` sum positive, so the zero run
    /// contributes one addition, not one per sample.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let (neg, pos) = self.sorted.split_at(self.negatives());
        let mut sum: f64 = neg.iter().sum();
        if self.zeros > 0 {
            sum += 0.0;
        }
        pos.iter().fold(sum, |acc, &v| acc + v) / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_fractions() {
        let c = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.fraction_at_or_below(0.5), 0.0);
        assert_eq!(c.fraction_at_or_below(1.0), 0.25);
        assert_eq!(c.fraction_at_or_below(2.5), 0.5);
        assert_eq!(c.fraction_at_or_below(4.0), 1.0);
        assert_eq!(c.percent_at_or_below(3.0), 75.0);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let c = Cdf::from_samples([3.0, 1.0, 2.0]);
        assert_eq!(c.min(), Some(1.0));
        assert_eq!(c.max(), Some(3.0));
    }

    #[test]
    fn empty_cdf() {
        let c = Cdf::from_samples([]);
        assert!(c.is_empty());
        assert_eq!(c.fraction_at_or_below(10.0), 0.0);
        assert_eq!(c.min(), None);
        assert_eq!(c.steps().len(), 0);
    }

    #[test]
    fn quantile_inverse_relationship() {
        let c = Cdf::from_samples((1..=100).map(|i| i as f64));
        let q = c.quantile(0.5);
        assert!((q - 50.5).abs() < 1.0);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 100.0);
    }

    #[test]
    fn steps_end_at_100_percent() {
        let c = Cdf::from_samples([5.0, 7.0, 9.0]);
        let s: Vec<_> = c.steps().collect();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2], (9.0, 100.0));
        assert!((s[0].1 - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_points_downsamples() {
        let c = Cdf::from_samples((0..1000).map(|i| i as f64));
        let pts: Vec<_> = c.sampled_points(11).collect();
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[10].0, 999.0);
        assert_eq!(pts[10].1, 100.0);
        // x must be non-decreasing.
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn sampled_points_small_population_returns_all() {
        let c = Cdf::from_samples([1.0, 2.0]);
        assert_eq!(c.sampled_points(10).len(), 2);
    }

    /// Pin the lazy iterators against the frozen Vec-building reference
    /// they replaced (the pre-iterator implementations, inlined here).
    #[test]
    fn iterator_series_match_vec_reference() {
        fn steps_ref(sorted: &[f64]) -> Vec<(f64, f64)> {
            let n = sorted.len();
            sorted
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, 100.0 * (i + 1) as f64 / n as f64))
                .collect()
        }
        fn sampled_ref(sorted: &[f64], k: usize) -> Vec<(f64, f64)> {
            let n = sorted.len();
            if n == 0 {
                return Vec::new();
            }
            if n <= k {
                return steps_ref(sorted);
            }
            (0..k)
                .map(|j| {
                    let i = j * (n - 1) / (k - 1);
                    (sorted[i], 100.0 * (i + 1) as f64 / n as f64)
                })
                .collect()
        }
        for n in [0usize, 1, 2, 5, 99, 100, 101, 1000] {
            let data: Vec<f64> = (0..n).map(|i| (i * 7 % 113) as f64).collect();
            let c = Cdf::from_samples(data.iter().copied());
            let mut sorted = data.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(c.steps().collect::<Vec<_>>(), steps_ref(&sorted), "n={n}");
            for k in [2usize, 3, 11, 100] {
                assert_eq!(
                    c.sampled_points(k).collect::<Vec<_>>(),
                    sampled_ref(&sorted, k),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn duplicates_counted() {
        let c = Cdf::from_samples([2.0, 2.0, 2.0, 5.0]);
        assert_eq!(c.percent_at_or_below(2.0), 75.0);
        assert_eq!(c.percent_at_or_below(1.9), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Cdf::from_samples([1.0, f64::NAN]);
    }

    #[test]
    fn mean_matches_summary() {
        let c = Cdf::from_samples([1.0, 2.0, 3.0]);
        assert_eq!(c.mean(), 2.0);
    }

    /// The all-samples CDF this type replaced, kept as the reference:
    /// every accessor over one sorted `Vec` holding each sample.
    struct Dense(Vec<f64>);

    impl Dense {
        fn new(samples: &[f64]) -> Dense {
            let mut sorted = samples.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            Dense(sorted)
        }

        fn steps(&self) -> Vec<(f64, f64)> {
            let n = self.0.len();
            let pct = |i: usize| 100.0 * (i + 1) as f64 / n as f64;
            self.0
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, pct(i)))
                .collect()
        }

        fn sampled_points(&self, k: usize) -> Vec<(f64, f64)> {
            let n = self.0.len();
            (0..n.min(k))
                .map(|j| {
                    let i = if n <= k { j } else { j * (n - 1) / (k - 1) };
                    (self.0[i], 100.0 * (i + 1) as f64 / n as f64)
                })
                .collect()
        }

        fn fraction_at_or_below(&self, x: f64) -> f64 {
            if self.0.is_empty() {
                return 0.0;
            }
            self.0.partition_point(|&v| v <= x) as f64 / self.0.len() as f64
        }
    }

    fn bits(points: impl IntoIterator<Item = (f64, f64)>) -> Vec<(u64, u64)> {
        points
            .into_iter()
            .map(|(x, y)| (x.to_bits(), y.to_bits()))
            .collect()
    }

    /// `zeros` `+0.0` samples followed by `rest`, as a zero-run CDF and
    /// as an all-samples one: every accessor must agree bit for bit.
    fn assert_matches_dense(zeros: usize, rest: &[f64]) {
        let all: Vec<f64> = std::iter::repeat_n(0.0, zeros)
            .chain(rest.iter().copied())
            .collect();
        let dense = Dense::new(&all);
        let sparse = Cdf::with_zeros(zeros, rest.iter().copied());
        let ctx = format!("zeros={zeros} rest={rest:?}");
        assert_eq!(sparse, Cdf::from_samples(all.iter().copied()), "{ctx}");
        assert_eq!(sparse.len(), all.len(), "{ctx}");
        assert_eq!(sparse.is_empty(), all.is_empty(), "{ctx}");
        assert_eq!(bits(sparse.steps()), bits(dense.steps()), "{ctx}");
        for k in [2, 3, 5, 16] {
            let want = bits(dense.sampled_points(k));
            assert_eq!(bits(sparse.sampled_points(k)), want, "{ctx} k={k}");
        }
        let to_bits = |v: Option<f64>| v.map(f64::to_bits);
        assert_eq!(to_bits(sparse.min()), to_bits(dense.0.first().copied()));
        assert_eq!(to_bits(sparse.max()), to_bits(dense.0.last().copied()));
        let mean = crate::summary::mean(&dense.0);
        assert_eq!(sparse.mean().to_bits(), mean.to_bits(), "{ctx}");
        for x in [-1.0, -0.0, 0.0, 0.5, 1.0, 2.5, 1e9, f64::NAN] {
            let (got, want) = (
                sparse.fraction_at_or_below(x),
                dense.fraction_at_or_below(x),
            );
            assert_eq!(got.to_bits(), want.to_bits(), "{ctx} x={x}");
        }
        if !all.is_empty() {
            for f in [0.0, 0.1, 0.25, 0.5, 0.77, 0.9, 0.99, 1.0] {
                let want = crate::summary::percentile_sorted(&dense.0, f * 100.0);
                assert_eq!(sparse.quantile(f).to_bits(), want.to_bits(), "{ctx} f={f}");
            }
        }
    }

    #[test]
    fn zero_run_matches_dense_on_empty_input() {
        assert_matches_dense(0, &[]);
        assert!(Cdf::with_zeros(0, []).is_empty());
    }

    #[test]
    fn zero_run_matches_dense_on_all_zeros() {
        for zeros in [1, 2, 7, 100] {
            assert_matches_dense(zeros, &[]);
            assert_matches_dense(0, &vec![0.0; zeros]);
            assert_matches_dense(zeros, &vec![0.0; zeros]);
        }
    }

    #[test]
    fn zero_run_matches_dense_with_no_zeros() {
        assert_matches_dense(0, &[3.0, 1.0, 2.0]);
        assert_matches_dense(0, &[-4.0, 7.5, -0.25, 1e6]);
    }

    #[test]
    fn zero_run_matches_dense_around_negative_zero() {
        assert_matches_dense(3, &[-0.0]);
        assert_matches_dense(2, &[-0.0, 0.0, -0.0, 1.0]);
        assert_matches_dense(1, &[0.0, -0.0, -2.0]);
        assert_matches_dense(0, &[-0.0, -0.0]);
        // The zero run sits before any -0.0, as a stable sort of the
        // zeros-first input leaves it.
        let c = Cdf::with_zeros(1, [-0.0]);
        let xs: Vec<u64> = c.steps().map(|(x, _)| x.to_bits()).collect();
        assert_eq!(xs, vec![0.0f64.to_bits(), (-0.0f64).to_bits()]);
    }

    #[test]
    fn zero_run_matches_dense_in_sampled_points_below_and_above_k() {
        let rest: Vec<f64> = (1..=40).map(|i| (i * 7 % 13) as f64 - 3.0).collect();
        // n <= k for the larger k values, n > k for the smaller ones.
        for zeros in [0, 1, 5, 60] {
            for take in [1, 3, 10, 40] {
                assert_matches_dense(zeros, &rest[..take]);
            }
        }
    }
}
