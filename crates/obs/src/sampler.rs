//! Periodic in-simulation sample stream: the counter view of a run.
//!
//! Production congestion studies read switch counters on a fixed cadence;
//! this module is the simulator's equivalent. `dfly-network`'s collector
//! sweeps channel state every sampling interval and pushes one
//! [`NetSample`] per sweep into a [`SampleSeries`], plus per-VC occupancy
//! readings into an [`OccupancyHistogram`] and UGAL decisions into a
//! [`RouteStats`]. Everything here is passive arithmetic — no simulation
//! state is touched, which is what keeps telemetry bit-neutral.

use dfly_engine::Ns;
use dfly_topology::ChannelClass;

/// The five channel classes in sample order, with their stable labels.
///
/// The order matches `dfly-network`'s dense class index (terminal up/down,
/// local row/col, global) so collectors can index sample arrays directly.
pub const OBS_CLASSES: [(ChannelClass, &str); 5] = [
    (ChannelClass::TerminalUp, "terminal_up"),
    (ChannelClass::TerminalDown, "terminal_down"),
    (ChannelClass::LocalRow, "local_row"),
    (ChannelClass::LocalCol, "local_col"),
    (ChannelClass::Global, "global"),
];

/// One periodic sweep of the network, in simulation time.
///
/// Window quantities (`util`, `stall_ns`, and the routing deltas) cover
/// the interval since the previous sample; `queued_bytes` is the
/// instantaneous buffer occupancy at the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetSample {
    /// Simulation time of the sweep.
    pub at: Ns,
    /// Mean channel utilization per class over the window, clamped to
    /// `[0, 1]` (transmission time is credited at tx start, so a raw
    /// window quotient can transiently exceed 1).
    pub util: [f64; 5],
    /// Bytes sitting in VC buffers per class at the sweep.
    pub queued_bytes: [u64; 5],
    /// Credit-stall (saturated) nanoseconds accrued per class within the
    /// window, summed over the class's channels.
    pub stall_ns: [u64; 5],
    /// UGAL decisions within the window that kept the minimal route.
    pub minimal_taken: u64,
    /// UGAL decisions within the window that diverted non-minimally.
    pub nonminimal_taken: u64,
}

/// A bounded time series of [`NetSample`]s at a fixed interval.
///
/// Bounded because sampling is driven by simulation time: a pathological
/// interval on a long run must degrade rather than eat memory. The series
/// keeps every sweep up to [`SampleSeries::MAX_SAMPLES`], then drops the
/// tail and counts the drops.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSeries {
    interval: Ns,
    samples: Vec<NetSample>,
    dropped: u64,
}

impl SampleSeries {
    /// Hard cap on retained samples (64 Ki sweeps ≈ 9 MiB).
    pub const MAX_SAMPLES: usize = 1 << 16;

    /// Empty series sampling every `interval`.
    pub fn new(interval: Ns) -> SampleSeries {
        assert!(interval > Ns::ZERO, "sampling interval must be positive");
        SampleSeries {
            interval,
            samples: Vec::new(),
            dropped: 0,
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> Ns {
        self.interval
    }

    /// Append a sample; past [`SampleSeries::MAX_SAMPLES`] the sample is
    /// dropped and counted.
    pub fn push(&mut self, sample: NetSample) {
        if self.samples.len() >= Self::MAX_SAMPLES {
            self.dropped += 1;
        } else {
            self.samples.push(sample);
        }
    }

    /// The retained samples, in time order.
    pub fn samples(&self) -> &[NetSample] {
        &self.samples
    }

    /// Samples dropped after the cap was hit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Approximate heap footprint of the retained samples, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<NetSample>()
            + std::mem::size_of::<SampleSeries>()
    }

    /// Merge a partial series from another collector of the *same* run —
    /// the sharded-simulation path, where each group replica samples on
    /// the same interval grid and closes at the same run-wide end time.
    /// Window sums (stall, queued, routing deltas) add; mean utilization
    /// partials add too (each replica's class mean is computed over the
    /// whole machine's channel count) and re-clamp to `[0, 1]`.
    ///
    /// Panics if the grids disagree — that is a coordinator bug, not a
    /// data condition.
    pub fn merge_from(&mut self, other: &SampleSeries) {
        assert_eq!(
            self.interval, other.interval,
            "merging series with different sampling intervals"
        );
        assert_eq!(
            self.samples.len(),
            other.samples.len(),
            "merging series of different lengths"
        );
        for (a, b) in self.samples.iter_mut().zip(other.samples.iter()) {
            assert_eq!(a.at, b.at, "merging misaligned sample grids");
            for c in 0..a.util.len() {
                a.util[c] = (a.util[c] + b.util[c]).clamp(0.0, 1.0);
                a.queued_bytes[c] += b.queued_bytes[c];
                a.stall_ns[c] += b.stall_ns[c];
            }
            a.minimal_taken += b.minimal_taken;
            a.nonminimal_taken += b.nonminimal_taken;
        }
        self.dropped += other.dropped;
    }

    /// Utilization time series of one class (by [`OBS_CLASSES`] index).
    pub fn util_series(&self, class_idx: usize) -> Vec<f64> {
        self.samples.iter().map(|s| s.util[class_idx]).collect()
    }

    /// Total queued bytes (all classes) per sample — the backlog curve.
    pub fn backlog_series(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.queued_bytes.iter().sum::<u64>() as f64)
            .collect()
    }
}

/// Histogram of VC buffer fill fractions across all sample sweeps.
///
/// Eight equal-width buckets over `[0, 1]`; fraction 1.0 lands in the
/// last bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OccupancyHistogram {
    /// Bucket counts; bucket `i` covers `[i/8, (i+1)/8)`.
    pub buckets: [u64; 8],
    /// Total readings recorded.
    pub readings: u64,
}

impl OccupancyHistogram {
    /// Fresh, empty histogram.
    pub fn new() -> OccupancyHistogram {
        OccupancyHistogram::default()
    }

    /// Record one VC fill fraction (clamped to `[0, 1]`).
    #[inline]
    pub fn record(&mut self, fill: f64) {
        let fill = fill.clamp(0.0, 1.0);
        let idx = ((fill * 8.0) as usize).min(7);
        self.buckets[idx] += 1;
        self.readings += 1;
    }

    /// Record `n` readings of an empty VC at once (fill 0, bucket 0) —
    /// identical to `n` calls of `record(0.0)`.
    #[inline]
    pub fn record_empty(&mut self, n: u64) {
        self.buckets[0] += n;
        self.readings += n;
    }

    /// Fraction of readings in bucket `idx` (0 if nothing recorded).
    pub fn share(&self, idx: usize) -> f64 {
        if self.readings == 0 {
            return 0.0;
        }
        self.buckets[idx] as f64 / self.readings as f64
    }

    /// Fraction of readings at or above half-full — the congestion tell.
    pub fn high_fill_share(&self) -> f64 {
        (4..8).map(|i| self.share(i)).sum()
    }
}

/// UGAL decision counters: which family won, and by how much.
///
/// The *margin* of a decision is the score gap between the winning
/// candidate and the best candidate of the losing family (in the UGAL
/// score unit, queued bytes × hops). Margins are binned by log2 so the
/// distribution spans the 32 KiB bias region without a giant table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteStats {
    /// Adaptive decisions that kept the minimal route.
    pub minimal_taken: u64,
    /// Adaptive decisions that diverted to a non-minimal route.
    pub nonminimal_taken: u64,
    /// Margin histogram: bucket `i` counts margins in
    /// `[2^i, 2^(i+1))` score units (bucket 0 also holds margin 0);
    /// the last bucket saturates.
    pub margin_hist: [u64; 24],
    /// Sum of all margins, for the mean.
    pub margin_sum: u64,
}

impl RouteStats {
    /// Fresh, zeroed counters.
    pub fn new() -> RouteStats {
        RouteStats::default()
    }

    /// Record one adaptive decision and its winning margin.
    #[inline]
    pub fn record(&mut self, took_nonminimal: bool, margin: u64) {
        if took_nonminimal {
            self.nonminimal_taken += 1;
        } else {
            self.minimal_taken += 1;
        }
        let bucket = if margin <= 1 {
            0
        } else {
            (63 - margin.leading_zeros() as usize).min(self.margin_hist.len() - 1)
        };
        self.margin_hist[bucket] += 1;
        self.margin_sum += margin;
    }

    /// Total adaptive decisions recorded.
    pub fn total(&self) -> u64 {
        self.minimal_taken + self.nonminimal_taken
    }

    /// Fraction of decisions that diverted non-minimally (0 if none).
    pub fn nonminimal_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.nonminimal_taken as f64 / total as f64
    }

    /// Mean decision margin in score units (0 if none).
    pub fn mean_margin(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.margin_sum as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_order_matches_dense_index() {
        // The labels are the CSV contract; the order is the collector's
        // indexing contract. Both are load-bearing.
        let labels: Vec<&str> = OBS_CLASSES.iter().map(|&(_, l)| l).collect();
        assert_eq!(
            labels,
            [
                "terminal_up",
                "terminal_down",
                "local_row",
                "local_col",
                "global"
            ]
        );
    }

    #[test]
    fn series_caps_and_counts_drops() {
        let mut s = SampleSeries::new(Ns(10));
        for i in 0..(SampleSeries::MAX_SAMPLES + 3) {
            s.push(NetSample {
                at: Ns(i as u64 * 10),
                ..NetSample::default()
            });
        }
        assert_eq!(s.samples().len(), SampleSeries::MAX_SAMPLES);
        assert_eq!(s.dropped(), 3);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let _ = SampleSeries::new(Ns::ZERO);
    }

    #[test]
    fn series_extracts_util_and_backlog() {
        let mut s = SampleSeries::new(Ns(5));
        let mut a = NetSample::default();
        a.util[4] = 0.25;
        a.queued_bytes = [1, 2, 3, 4, 5];
        s.push(a);
        let mut b = NetSample::default();
        b.util[4] = 0.75;
        s.push(b);
        assert_eq!(s.util_series(4), vec![0.25, 0.75]);
        assert_eq!(s.backlog_series(), vec![15.0, 0.0]);
    }

    #[test]
    fn merge_sums_windows_and_clamps_util() {
        let mut a = SampleSeries::new(Ns(5));
        let mut b = SampleSeries::new(Ns(5));
        for t in 0..3u64 {
            let mut s = NetSample {
                at: Ns(t * 5),
                ..NetSample::default()
            };
            s.util[4] = 0.6;
            s.queued_bytes[2] = 10;
            s.stall_ns[4] = 7;
            s.minimal_taken = 2;
            a.push(s);
            s.nonminimal_taken = 1;
            b.push(s);
        }
        a.merge_from(&b);
        assert_eq!(a.samples().len(), 3);
        for s in a.samples() {
            assert_eq!(s.util[4], 1.0, "partial means clamp at 1");
            assert_eq!(s.queued_bytes[2], 20);
            assert_eq!(s.stall_ns[4], 14);
            assert_eq!(s.minimal_taken, 4);
            assert_eq!(s.nonminimal_taken, 1);
        }
        assert_eq!(a.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn merge_rejects_misaligned_series() {
        let mut a = SampleSeries::new(Ns(5));
        let mut b = SampleSeries::new(Ns(5));
        b.push(NetSample::default());
        a.merge_from(&b);
    }

    #[test]
    fn occupancy_buckets_and_clamping() {
        let mut h = OccupancyHistogram::new();
        h.record(0.0);
        h.record(0.124); // bucket 0
        h.record(0.5); // bucket 4
        h.record(1.0); // clamps into bucket 7
        h.record(7.5); // out-of-range clamps to 1.0
        assert_eq!(h.readings, 5);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.buckets[7], 2);
        assert!((h.high_fill_share() - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn bulk_empty_readings_equal_single_zero_records() {
        let mut one_by_one = OccupancyHistogram::new();
        let mut bulk = OccupancyHistogram::new();
        for _ in 0..5 {
            one_by_one.record(0.0);
        }
        one_by_one.record(0.6);
        bulk.record(0.6);
        bulk.record_empty(5);
        assert_eq!(one_by_one, bulk);
    }

    #[test]
    fn route_stats_counts_and_margins() {
        let mut r = RouteStats::new();
        r.record(false, 0); // bucket 0
        r.record(false, 1); // bucket 0
        r.record(true, 2); // bucket 1
        r.record(true, 40_000); // log2(40000) = 15 -> bucket 15
        assert_eq!(r.minimal_taken, 2);
        assert_eq!(r.nonminimal_taken, 2);
        assert_eq!(r.total(), 4);
        assert_eq!(r.margin_hist[0], 2);
        assert_eq!(r.margin_hist[1], 1);
        assert_eq!(r.margin_hist[15], 1);
        assert!((r.nonminimal_fraction() - 0.5).abs() < 1e-12);
        assert!((r.mean_margin() - 10_000.75).abs() < 1e-9);
    }

    #[test]
    fn route_stats_margin_saturates_last_bucket() {
        let mut r = RouteStats::new();
        r.record(true, u64::MAX);
        assert_eq!(r.margin_hist[23], 1);
    }

    #[test]
    fn empty_stats_are_zero_not_nan() {
        let r = RouteStats::new();
        assert_eq!(r.nonminimal_fraction(), 0.0);
        assert_eq!(r.mean_margin(), 0.0);
        let h = OccupancyHistogram::new();
        assert_eq!(h.share(3), 0.0);
        assert_eq!(h.high_fill_share(), 0.0);
    }
}
