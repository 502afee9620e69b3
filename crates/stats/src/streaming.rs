//! Fixed-footprint, mergeable summaries of value and byte streams.
//!
//! Both structures are deterministic and merge exactly (up to
//! floating-point reassociation of a sum) across PDES shards:
//!
//! * [`StreamSummary`] — count/sum/min/max moments plus a fixed-bin
//!   log-scale histogram for quantile estimates. Merging is field-wise;
//!   counts, extrema, and bins merge exactly, the sum to floating-point
//!   reassociation error.
//! * [`CoarseTimeline`] — a time-binned series that keeps a fixed bin
//!   *count* by geometrically doubling its bin *width* when the run
//!   outgrows it, instead of growing the bin vector. Folding preserves
//!   total byte mass exactly. Until the run outgrows the cap, its bins
//!   are exactly `bytes` summed per `at / bin_width`.

use dfly_engine::Ns;

/// Number of log-scale histogram bins in a [`StreamSummary`]:
/// `SUB_BINS` bins per factor of two over binary exponents
/// `MIN_EXP..MAX_EXP`, plus one underflow bin for values `<= 0` (or
/// below `2^MIN_EXP`).
const SUMMARY_BINS: usize = 1 + ((MAX_EXP - MIN_EXP) as usize) * SUB_BINS;
const MIN_EXP: i32 = -20; // ~1e-6: finer than any ms/MB metric here
const MAX_EXP: i32 = 60; // ~1e18: above any byte count a run produces
const SUB_BINS: usize = 4; // quarter-octave resolution

/// Mergeable moment/quantile summary of a value stream in O(1) memory.
///
/// Exact count, sum, min, and max, plus a fixed-bin quarter-octave
/// log2 histogram for quantile estimates. Quantiles carry the bin's
/// relative width as error: at 4 sub-bins per octave the estimate is
/// within `2^(1/8) - 1 ≈ 9%` of the dense value (plus interpolation
/// slack), clamped into `[min, max]`. Negative values clamp into the
/// underflow bin — the simulator's metrics (bytes, nanoseconds) are
/// non-negative.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    bins: Vec<u64>,
}

impl Default for StreamSummary {
    fn default() -> StreamSummary {
        StreamSummary::new()
    }
}

impl StreamSummary {
    /// Fresh, empty summary.
    pub fn new() -> StreamSummary {
        StreamSummary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            bins: vec![0; SUMMARY_BINS],
        }
    }

    fn bin_of(value: f64) -> usize {
        if value <= 0.0 {
            return 0;
        }
        let e = value.log2();
        if e < MIN_EXP as f64 {
            return 0;
        }
        let idx = ((e - MIN_EXP as f64) * SUB_BINS as f64) as usize;
        (1 + idx).min(SUMMARY_BINS - 1)
    }

    /// Lower edge of a histogram bin (the underflow bin's edge is 0).
    fn bin_lo(idx: usize) -> f64 {
        if idx == 0 {
            return 0.0;
        }
        2f64.powf(MIN_EXP as f64 + (idx - 1) as f64 / SUB_BINS as f64)
    }

    /// Record one value. NaN panics.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN sample in summary input");
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.bins[Self::bin_of(value)] += 1;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded value (None if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (None if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Estimated quantile via the log histogram: find the bin holding
    /// the target rank and interpolate geometrically inside it. Within
    /// ~9% relative of the dense quantile (see type docs); exact for
    /// the extremes (`fraction` 0 → min, 1 → max). Panics when empty.
    pub fn quantile(&self, fraction: f64) -> f64 {
        assert!(self.count > 0, "quantile of empty summary");
        let f = fraction.clamp(0.0, 1.0);
        if f <= 0.0 {
            return self.min;
        }
        if f >= 1.0 {
            return self.max;
        }
        let target = (f * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            cum += c;
            if cum >= target {
                let lo = Self::bin_lo(i);
                let hi = if i + 1 < SUMMARY_BINS {
                    Self::bin_lo(i + 1)
                } else {
                    self.max
                };
                // Geometric midpoint of the bin, clamped into the
                // observed range.
                let mid = if lo > 0.0 && hi > lo {
                    (lo * hi).sqrt()
                } else {
                    (lo + hi) / 2.0
                };
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another summary: counts, extrema, and bins merge exactly;
    /// the sum merges to floating-point reassociation error.
    pub fn merge_from(&mut self, other: &StreamSummary) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
    }

    /// Approximate heap footprint, in bytes. Constant by construction.
    pub fn approx_bytes(&self) -> usize {
        self.bins.capacity() * std::mem::size_of::<u64>() + std::mem::size_of::<StreamSummary>()
    }
}

/// A time-binned byte series with a *fixed* bin count: when an event
/// lands past the last bin, the bin width doubles and adjacent bins fold
/// pairwise (sums, so total mass is preserved exactly) until the event
/// fits. A run longer than the cap costs resolution, not memory.
///
/// Lanes are parallel series sharing one width (the per-class split in
/// the network layer); folding coarsens every lane together so they stay
/// aligned.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseTimeline {
    bin_width: Ns,
    max_bins: usize,
    lanes: Vec<Vec<u64>>,
}

impl CoarseTimeline {
    /// Empty timeline: `lanes` parallel series, starting at `bin_width`,
    /// never exceeding `max_bins` bins (a power of two ≥ 2) per lane.
    pub fn new(bin_width: Ns, lanes: usize, max_bins: usize) -> CoarseTimeline {
        assert!(bin_width > Ns::ZERO, "bin width must be positive");
        assert!(
            max_bins.is_power_of_two() && max_bins >= 2,
            "max_bins must be a power of two >= 2 (got {max_bins})"
        );
        assert!(lanes >= 1, "need at least one lane");
        CoarseTimeline {
            bin_width,
            max_bins,
            lanes: vec![Vec::new(); lanes],
        }
    }

    /// Current bin width (grows geometrically as the run outlives the
    /// initial resolution).
    pub fn bin_width(&self) -> Ns {
        self.bin_width
    }

    /// The fixed bin-count cap.
    pub fn max_bins(&self) -> usize {
        self.max_bins
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Record `bytes` on `lane` at time `at`, coarsening first if `at`
    /// falls past the last bin.
    pub fn record(&mut self, lane: usize, at: Ns, bytes: u64) {
        let mut idx = (at.as_nanos() / self.bin_width.as_nanos()) as usize;
        while idx >= self.max_bins {
            self.coarsen();
            idx = (at.as_nanos() / self.bin_width.as_nanos()) as usize;
        }
        let series = &mut self.lanes[lane];
        if series.len() <= idx {
            series.resize(idx + 1, 0);
        }
        series[idx] += bytes;
    }

    /// Double the bin width, folding adjacent bins pairwise in every
    /// lane. Total mass per lane is invariant.
    fn coarsen(&mut self) {
        for lane in &mut self.lanes {
            let folded = lane.len().div_ceil(2);
            for i in 0..folded {
                let a = lane[2 * i];
                let b = lane.get(2 * i + 1).copied().unwrap_or(0);
                lane[i] = a + b;
            }
            lane.truncate(folded);
        }
        self.bin_width = Ns(self.bin_width.as_nanos() * 2);
    }

    /// One lane's bins at the current width (missing tail bins are 0).
    pub fn series(&self, lane: usize) -> &[u64] {
        &self.lanes[lane]
    }

    /// Total mass recorded on a lane — invariant under coarsening.
    pub fn total(&self, lane: usize) -> u64 {
        self.lanes[lane].iter().sum()
    }

    /// Merge another timeline of the same shape: the finer side folds to
    /// the coarser width, then bins add. Mass-preserving, deterministic,
    /// order-independent.
    pub fn merge_from(&mut self, other: &CoarseTimeline) {
        assert_eq!(self.lanes.len(), other.lanes.len(), "lane count mismatch");
        assert_eq!(self.max_bins, other.max_bins, "max_bins mismatch");
        let (a, b) = (self.bin_width.as_nanos(), other.bin_width.as_nanos());
        let (big, small) = (a.max(b), a.min(b));
        assert!(
            big % small == 0 && (big / small).is_power_of_two(),
            "widths {a} and {b} do not share a base"
        );
        while self.bin_width.as_nanos() < other.bin_width.as_nanos() {
            self.coarsen();
        }
        let ratio = (self.bin_width.as_nanos() / other.bin_width.as_nanos()) as usize;
        for (mine, theirs) in self.lanes.iter_mut().zip(other.lanes.iter()) {
            let folded = theirs.len().div_ceil(ratio);
            if mine.len() < folded {
                mine.resize(folded, 0);
            }
            for (i, chunk) in theirs.chunks(ratio).enumerate() {
                mine[i] += chunk.iter().sum::<u64>();
            }
        }
    }

    /// Approximate heap footprint, in bytes. Bounded by
    /// `lanes * max_bins * 8` regardless of duration.
    pub fn approx_bytes(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.capacity() * std::mem::size_of::<u64>())
            .sum::<usize>()
            + std::mem::size_of::<CoarseTimeline>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdf::Cdf;

    #[test]
    fn summary_moments_exact() {
        let mut s = StreamSummary::new();
        for v in [4.0, 1.0, 9.0, 0.0, 16.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum(), 30.0);
        assert_eq!(s.min(), Some(0.0));
        assert_eq!(s.max(), Some(16.0));
        assert_eq!(s.mean(), 6.0);
    }

    #[test]
    fn summary_quantile_within_bin_tolerance() {
        let mut s = StreamSummary::new();
        let dense: Vec<f64> = (1..=10_000).map(|i| i as f64).collect();
        for &v in &dense {
            s.record(v);
        }
        let cdf = Cdf::from_samples(dense.iter().copied());
        for q in [0.25, 0.5, 0.75, 0.99] {
            let d = cdf.quantile(q);
            let est = s.quantile(q);
            // Quarter-octave bins: within 2^(1/8)-1 ≈ 9.05% relative,
            // plus a hair of interpolation slack.
            assert!(
                (est - d).abs() / d < 0.095,
                "q{q}: dense {d} vs summary {est}"
            );
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 10_000.0);
    }

    #[test]
    fn summary_merge_equals_single_feed() {
        let stream: Vec<f64> = (0..1000).map(|i| (i % 97) as f64 * 1.5).collect();
        let mut single = StreamSummary::new();
        for &v in &stream {
            single.record(v);
        }
        let mut a = StreamSummary::new();
        let mut b = StreamSummary::new();
        for &v in &stream[..400] {
            a.record(v);
        }
        for &v in &stream[400..] {
            b.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), single.count());
        assert_eq!(a.min(), single.min());
        assert_eq!(a.max(), single.max());
        assert_eq!(a.bins, single.bins, "histogram merge is exact");
        assert!((a.sum() - single.sum()).abs() <= 1e-9 * single.sum().abs().max(1.0));
    }

    #[test]
    fn summary_footprint_is_constant() {
        let mut s = StreamSummary::new();
        let before = s.approx_bytes();
        for i in 0..100_000 {
            s.record(i as f64);
        }
        assert_eq!(s.approx_bytes(), before);
    }

    #[test]
    #[should_panic(expected = "empty summary")]
    fn summary_quantile_empty_panics() {
        StreamSummary::new().quantile(0.5);
    }

    #[test]
    fn timeline_records_and_coarsens() {
        let mut t = CoarseTimeline::new(Ns(100), 2, 4);
        t.record(0, Ns(0), 10);
        t.record(0, Ns(150), 5);
        t.record(0, Ns(399), 1);
        assert_eq!(t.bin_width(), Ns(100));
        assert_eq!(t.series(0), &[10, 5, 0, 1]);
        // Bin index 4 forces one doubling: 100 -> 200 ns bins.
        t.record(0, Ns(420), 7);
        assert_eq!(t.bin_width(), Ns(200));
        assert_eq!(t.series(0), &[15, 1, 7]);
        assert_eq!(t.total(0), 23);
        // A far-future event coarsens repeatedly but never grows bins.
        t.record(1, Ns(1_000_000), 3);
        assert!(t.series(1).len() <= 4);
        assert!(t.series(0).len() <= 4);
        assert_eq!(t.total(0), 23, "mass preserved across coarsening");
        assert_eq!(t.total(1), 3);
    }

    #[test]
    fn timeline_mass_preserved_under_heavy_coarsening() {
        let mut t = CoarseTimeline::new(Ns(1), 1, 8);
        let mut mass = 0u64;
        for i in 0..10_000u64 {
            t.record(0, Ns(i * i), i % 7);
            mass += i % 7;
        }
        assert_eq!(t.total(0), mass);
        assert_eq!(t.series(0).len().max(1) <= 8, true);
        assert!(t.approx_bytes() < 1024);
    }

    #[test]
    fn timeline_extreme_timestamp_is_bounded() {
        let mut t = CoarseTimeline::new(Ns(1), 1, 4);
        t.record(0, Ns(5), 2);
        t.record(0, Ns(u64::MAX), 7);
        assert!(t.series(0).len() <= 4);
        assert_eq!(t.total(0), 9);
    }

    #[test]
    fn timeline_merge_aligns_widths_and_preserves_mass() {
        let mut fine = CoarseTimeline::new(Ns(10), 1, 8);
        for i in 0..8u64 {
            fine.record(0, Ns(i * 10), 1);
        }
        let mut coarse = CoarseTimeline::new(Ns(10), 1, 8);
        coarse.record(0, Ns(300), 5); // forces widths 10 -> 40
        assert_eq!(coarse.bin_width(), Ns(40));

        let mut merged = fine.clone();
        merged.merge_from(&coarse);
        assert_eq!(merged.bin_width(), Ns(40));
        assert_eq!(merged.total(0), 13);

        // Mirror order gives the same bins.
        let mut mirror = coarse.clone();
        mirror.merge_from(&fine);
        assert_eq!(mirror, merged);
    }

    #[test]
    #[should_panic(expected = "max_bins must be a power of two")]
    fn timeline_rejects_odd_cap() {
        let _ = CoarseTimeline::new(Ns(1), 1, 3);
    }
}
