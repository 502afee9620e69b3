//! Link-level metric snapshots and the filters the paper's figures apply.
//!
//! Figures 4–6 plot CDFs over *all* local/global channels of the machine;
//! Figures 8–10 restrict to "the routers that serve the nodes assigned to
//! the target application". [`MetricsFilter`] expresses both.

use dfly_engine::{Bytes, Ns};
use dfly_topology::{ChannelClass, ChannelId, RouterId};
use std::collections::HashSet;

/// Per-channel metric snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelSnapshot {
    /// The channel.
    pub id: ChannelId,
    /// Its class.
    pub class: ChannelClass,
    /// The router this channel belongs to (terminal channels are owned by
    /// the node's home router).
    pub src_router: Option<RouterId>,
    /// Total bytes transmitted.
    pub traffic_bytes: Bytes,
    /// Total time the channel had a refused-full buffer.
    pub saturated_time: Ns,
    /// Total time the channel spent serializing packets (utilization
    /// numerator; divide by the observation window for a utilization
    /// fraction — the "network health" view of Bhatele et al.).
    pub busy_time: Ns,
}

/// Which channels a report should include.
///
/// Borrows its router set rather than owning it: filters are transient
/// views constructed per report, and the app-router sets they reference
/// live in experiment results — cloning a `HashSet` per figure line was
/// pure waste.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFilter<'a> {
    /// Every channel in the machine (Figures 4–6).
    All,
    /// Only channels owned by the given routers (Figures 8–10: the routers
    /// serving the target application's nodes).
    Routers(&'a HashSet<RouterId>),
}

impl MetricsFilter<'_> {
    fn accepts(&self, snap: &ChannelSnapshot) -> bool {
        match self {
            MetricsFilter::All => true,
            MetricsFilter::Routers(set) => {
                snap.src_router.map(|r| set.contains(&r)).unwrap_or(false)
            }
        }
    }
}

/// How much per-channel simulation state a network held. Channel
/// records are allocated in aligned runs of 64 ids, only where packets
/// go, so on a large machine `records` is far below `channels`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelFootprint {
    /// Channels in the machine.
    pub channels: usize,
    /// Channel records allocated (summed over replicas in a sharded run).
    pub records: usize,
    /// Heap bytes of per-channel state: records, their run table, and
    /// their in-flight and wait lists.
    pub bytes: usize,
}

impl ChannelFootprint {
    /// Per-channel state bytes per machine channel.
    pub fn bytes_per_channel(&self) -> f64 {
        self.bytes as f64 / self.channels.max(1) as f64
    }
}

/// All channel snapshots of a network at one point in time.
#[derive(Debug, Clone)]
pub struct NetworkMetrics {
    snapshots: Vec<ChannelSnapshot>,
    footprint: ChannelFootprint,
}

impl NetworkMetrics {
    /// Wrap a snapshot list (produced by `Network::metrics`).
    pub fn new(snapshots: Vec<ChannelSnapshot>) -> NetworkMetrics {
        NetworkMetrics {
            snapshots,
            footprint: ChannelFootprint::default(),
        }
    }

    /// Attach the channel-state footprint of the network the snapshots
    /// came from.
    pub fn with_footprint(mut self, footprint: ChannelFootprint) -> NetworkMetrics {
        self.footprint = footprint;
        self
    }

    /// The channel-state footprint at snapshot time (all zero unless the
    /// producer attached one).
    pub fn footprint(&self) -> ChannelFootprint {
        self.footprint
    }

    /// All snapshots.
    pub fn channels(&self) -> impl Iterator<Item = &ChannelSnapshot> {
        self.snapshots.iter()
    }

    /// Traffic in bytes on each **local** channel passing `filter`
    /// (the x-series of the paper's "local channel traffic" CDFs).
    pub fn local_traffic(&self, filter: &MetricsFilter) -> Vec<f64> {
        self.select(filter, |c| c.class.is_local(), |c| c.traffic_bytes as f64)
    }

    /// Traffic in bytes on each **global** channel passing `filter`.
    pub fn global_traffic(&self, filter: &MetricsFilter) -> Vec<f64> {
        self.select(
            filter,
            |c| c.class == ChannelClass::Global,
            |c| c.traffic_bytes as f64,
        )
    }

    /// Saturated time (milliseconds) of each local channel passing `filter`.
    pub fn local_saturation_ms(&self, filter: &MetricsFilter) -> Vec<f64> {
        self.select(
            filter,
            |c| c.class.is_local(),
            |c| c.saturated_time.as_ms_f64(),
        )
    }

    /// Saturated time (milliseconds) of each global channel passing `filter`.
    pub fn global_saturation_ms(&self, filter: &MetricsFilter) -> Vec<f64> {
        self.select(
            filter,
            |c| c.class == ChannelClass::Global,
            |c| c.saturated_time.as_ms_f64(),
        )
    }

    fn select(
        &self,
        filter: &MetricsFilter,
        class_pred: impl Fn(&ChannelSnapshot) -> bool,
        value: impl Fn(&ChannelSnapshot) -> f64,
    ) -> Vec<f64> {
        self.snapshots
            .iter()
            .filter(|c| class_pred(c) && filter.accepts(c))
            .map(value)
            .collect()
    }

    /// Utilization fraction of each channel of a class over the
    /// observation window `[0, end]`.
    ///
    /// The window must cover every recorded transmission: a channel is
    /// busy at most 100% of real time, so `end < busy_time` means the
    /// caller passed a stale window (debug builds assert). The released
    /// value is clamped to 1.0 so a stale window can only flatten the
    /// figure, never fabricate >100% utilization.
    pub fn utilization(&self, class: ChannelClass, end: Ns) -> Vec<f64> {
        assert!(end > Ns::ZERO, "observation window must be positive");
        self.snapshots
            .iter()
            .filter(|c| c.class == class)
            .map(|c| {
                debug_assert!(
                    c.busy_time <= end,
                    "observation window end {end:?} predates channel {:?}'s \
                     busy_time {:?}",
                    c.id,
                    c.busy_time
                );
                (c.busy_time.as_nanos() as f64 / end.as_nanos() as f64).min(1.0)
            })
            .collect()
    }

    /// Sum of traffic over all channels of a class.
    pub fn total_traffic(&self, class: ChannelClass) -> Bytes {
        self.snapshots
            .iter()
            .filter(|c| c.class == class)
            .map(|c| c.traffic_bytes)
            .sum()
    }

    /// Router-level rollup: total router-to-router traffic owned by each
    /// router, for `total_routers` routers — the per-router heatmap view
    /// of "network health" dashboards (Bhatele et al.).
    pub fn router_traffic(&self, total_routers: u32) -> Vec<Bytes> {
        let mut out = vec![0u64; total_routers as usize];
        for c in &self.snapshots {
            if !c.class.is_router_to_router() {
                continue;
            }
            if let Some(r) = c.src_router {
                out[r.index()] += c.traffic_bytes;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(
        id: u32,
        class: ChannelClass,
        router: u32,
        traffic: u64,
        sat_ns: u64,
    ) -> ChannelSnapshot {
        ChannelSnapshot {
            id: ChannelId(id),
            class,
            src_router: Some(RouterId(router)),
            traffic_bytes: traffic,
            saturated_time: Ns(sat_ns),
            busy_time: Ns(traffic * 2),
        }
    }

    fn sample() -> NetworkMetrics {
        NetworkMetrics::new(vec![
            snap(0, ChannelClass::LocalRow, 0, 100, 1_000_000),
            snap(1, ChannelClass::LocalCol, 0, 200, 0),
            snap(2, ChannelClass::LocalRow, 1, 300, 2_000_000),
            snap(3, ChannelClass::Global, 0, 400, 500_000),
            snap(4, ChannelClass::Global, 1, 500, 0),
            snap(5, ChannelClass::TerminalUp, 0, 999, 0),
        ])
    }

    #[test]
    fn local_traffic_all() {
        let m = sample();
        let mut v = m.local_traffic(&MetricsFilter::All);
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(v, vec![100.0, 200.0, 300.0]);
    }

    #[test]
    fn global_traffic_all() {
        let m = sample();
        let mut v = m.global_traffic(&MetricsFilter::All);
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(v, vec![400.0, 500.0]);
    }

    #[test]
    fn terminal_channels_excluded_from_local() {
        let m = sample();
        assert!(!m.local_traffic(&MetricsFilter::All).contains(&999.0));
    }

    #[test]
    fn router_filter_restricts() {
        let m = sample();
        let routers: HashSet<RouterId> = [RouterId(0)].into_iter().collect();
        let filter = MetricsFilter::Routers(&routers);
        let mut v = m.local_traffic(&filter);
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(v, vec![100.0, 200.0]);
        assert_eq!(m.global_traffic(&filter), vec![400.0]);
    }

    #[test]
    fn saturation_in_ms() {
        let m = sample();
        let mut v = m.local_saturation_ms(&MetricsFilter::All);
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(v, vec![0.0, 1.0, 2.0]);
        let mut g = m.global_saturation_ms(&MetricsFilter::All);
        g.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(g, vec![0.0, 0.5]);
    }

    #[test]
    fn total_traffic_per_class() {
        let m = sample();
        assert_eq!(m.total_traffic(ChannelClass::Global), 900);
        assert_eq!(m.total_traffic(ChannelClass::LocalRow), 400);
        assert_eq!(m.total_traffic(ChannelClass::TerminalUp), 999);
    }

    #[test]
    fn router_traffic_rollup() {
        let m = sample();
        let t = m.router_traffic(3);
        // Router 0: local 100+200 + global 400; terminal excluded.
        assert_eq!(t, vec![700, 800, 0]);
    }

    #[test]
    fn utilization_fractions() {
        let m = sample();
        let u = m.utilization(ChannelClass::Global, Ns(2000));
        // busy = traffic*2 in the fixture: 800/2000 and 1000/2000.
        let mut u = u;
        u.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(u, vec![0.4, 0.5]);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn utilization_zero_window_panics() {
        sample().utilization(ChannelClass::Global, Ns::ZERO);
    }

    /// Regression: a window `end` that predates the last transmission
    /// used to return fractions > 1.0 silently. Debug builds now assert;
    /// release builds clamp to 1.0.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "predates channel"))]
    fn utilization_stale_window_is_loud_or_clamped() {
        // The fixture's global busy times are 800ns and 1000ns; a 900ns
        // window covers one channel but predates the other.
        let u = sample().utilization(ChannelClass::Global, Ns(900));
        // Only reached in release builds (debug asserts above).
        assert!(u.iter().all(|&f| f <= 1.0), "clamped: {u:?}");
        assert!(u.contains(&1.0), "stale channel pinned at 100%: {u:?}");
    }

    #[test]
    fn filter_without_router_info() {
        let mut s = snap(9, ChannelClass::LocalRow, 0, 50, 0);
        s.src_router = None;
        let m = NetworkMetrics::new(vec![s]);
        let routers: HashSet<RouterId> = [RouterId(0)].into_iter().collect();
        let filter = MetricsFilter::Routers(&routers);
        assert!(m.local_traffic(&filter).is_empty());
        assert_eq!(m.local_traffic(&MetricsFilter::All), vec![50.0]);
    }
}

/// Time-binned traffic by channel class: who moved bytes when. Enabled
/// with [`crate::Network::enable_traffic_timeline`]; each transmission
/// start adds the packet bytes to its class's bin.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficTimeline {
    bin_width: Ns,
    /// One series per class, indexed by [`class_index`].
    bins: [Vec<u64>; 5],
}

/// Number of channel classes a timeline tracks (one lane per
/// [`class_index`] value).
pub const TIMELINE_CLASSES: usize = 5;

/// Dense index of a channel class inside [`TrafficTimeline`].
pub fn class_index(class: ChannelClass) -> usize {
    match class {
        ChannelClass::TerminalUp => 0,
        ChannelClass::TerminalDown => 1,
        ChannelClass::LocalRow => 2,
        ChannelClass::LocalCol => 3,
        ChannelClass::Global => 4,
    }
}

impl TrafficTimeline {
    /// Hard cap on bins per class (2^20 bins = 8 MiB of `u64` per class).
    /// The bin vector grows to whatever index a timestamp implies, so
    /// without a cap one far-future event — or a tiny bin width on a long
    /// run — would allocate gigabytes. Events past the cap saturate into
    /// the last bin; pick `bin_width >= run_length / MAX_BINS` to avoid
    /// any saturation.
    pub const MAX_BINS: usize = 1 << 20;

    /// Empty timeline with the given bin width.
    pub fn new(bin_width: Ns) -> TrafficTimeline {
        assert!(bin_width > Ns::ZERO, "bin width must be positive");
        TrafficTimeline {
            bin_width,
            bins: Default::default(),
        }
    }

    /// Record `bytes` moved on `class` at time `at`. Timestamps past
    /// [`TrafficTimeline::MAX_BINS`] bins saturate into the last bin.
    #[inline]
    pub fn record(&mut self, class: ChannelClass, at: Ns, bytes: Bytes) {
        let idx = ((at.as_nanos() / self.bin_width.as_nanos()) as usize).min(Self::MAX_BINS - 1);
        let series = &mut self.bins[class_index(class)];
        if series.len() <= idx {
            series.resize(idx + 1, 0);
        }
        series[idx] += bytes;
    }

    /// The bin width.
    pub fn bin_width(&self) -> Ns {
        self.bin_width
    }

    /// The series for a class (may be shorter than others; missing bins
    /// are zero).
    pub fn series(&self, class: ChannelClass) -> &[u64] {
        &self.bins[class_index(class)]
    }

    /// Approximate heap bytes held by the bin vectors.
    pub fn approx_bytes(&self) -> usize {
        self.bins
            .iter()
            .map(|s| s.capacity() * std::mem::size_of::<u64>())
            .sum()
    }

    /// Combined local (row + col) series.
    pub fn local_series(&self) -> Vec<u64> {
        let row = self.series(ChannelClass::LocalRow);
        let col = self.series(ChannelClass::LocalCol);
        let n = row.len().max(col.len());
        (0..n)
            .map(|i| row.get(i).copied().unwrap_or(0) + col.get(i).copied().unwrap_or(0))
            .collect()
    }
}

#[cfg(test)]
mod timeline_tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut t = TrafficTimeline::new(Ns(100));
        t.record(ChannelClass::Global, Ns(0), 10);
        t.record(ChannelClass::Global, Ns(99), 5);
        t.record(ChannelClass::Global, Ns(100), 7);
        t.record(ChannelClass::LocalRow, Ns(250), 3);
        assert_eq!(t.series(ChannelClass::Global), &[15, 7]);
        assert_eq!(t.series(ChannelClass::LocalRow), &[0, 0, 3]);
        assert_eq!(t.series(ChannelClass::LocalCol), &[] as &[u64]);
    }

    #[test]
    fn local_series_merges_rows_and_cols() {
        let mut t = TrafficTimeline::new(Ns(10));
        t.record(ChannelClass::LocalRow, Ns(5), 2);
        t.record(ChannelClass::LocalCol, Ns(5), 3);
        t.record(ChannelClass::LocalCol, Ns(25), 4);
        assert_eq!(t.local_series(), vec![5, 0, 4]);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_rejected() {
        let _ = TrafficTimeline::new(Ns::ZERO);
    }

    /// Regression: `record` used to resize to whatever index the
    /// timestamp implied — one far-future event (or a tiny bin width on
    /// a long run) allocated gigabytes. The bin count is now capped and
    /// overflowing events saturate into the last bin.
    #[test]
    fn far_future_events_saturate_into_last_bin() {
        let mut t = TrafficTimeline::new(Ns(1));
        t.record(ChannelClass::Global, Ns(5), 2);
        // u64::MAX ns at 1ns bins implies ~2^64 bins; must stay capped.
        t.record(ChannelClass::Global, Ns(u64::MAX), 7);
        t.record(ChannelClass::Global, Ns(u64::MAX - 1), 3);
        let s = t.series(ChannelClass::Global);
        assert_eq!(s.len(), TrafficTimeline::MAX_BINS);
        assert_eq!(s[5], 2);
        assert_eq!(s[TrafficTimeline::MAX_BINS - 1], 10, "saturated bin");
        // Totals are preserved — saturation shifts time, never drops bytes.
        assert_eq!(s.iter().sum::<u64>(), 12);
    }

    #[test]
    fn last_in_range_bin_is_not_saturation() {
        let mut t = TrafficTimeline::new(Ns(100));
        let last_start = (TrafficTimeline::MAX_BINS as u64 - 1) * 100;
        t.record(ChannelClass::LocalRow, Ns(last_start), 4);
        t.record(ChannelClass::LocalRow, Ns(last_start + 99), 6);
        let s = t.series(ChannelClass::LocalRow);
        assert_eq!(s.len(), TrafficTimeline::MAX_BINS);
        assert_eq!(s[TrafficTimeline::MAX_BINS - 1], 10);
    }
}
