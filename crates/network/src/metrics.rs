//! Link-level metric snapshots and the filters the paper's figures apply.
//!
//! Figures 4–6 plot CDFs over *all* local/global channels of the machine;
//! Figures 8–10 restrict to "the routers that serve the nodes assigned to
//! the target application". [`MetricsFilter`] expresses both.

use dfly_engine::{Bytes, Ns};
use dfly_obs::CoarseTimeline;
use dfly_topology::{ChannelClass, ChannelId, RouterId, Topology};
use std::collections::HashSet;
use std::sync::Arc;

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
    /// their wait lists.
    pub bytes: usize,
}

impl ChannelFootprint {
    /// Per-channel state bytes per machine channel.
    pub fn bytes_per_channel(&self) -> f64 {
        self.bytes as f64 / self.channels.max(1) as f64
    }
}

/// The channel classes in [`class_index`] order — also the order of the
/// topology's contiguous per-class channel-id ranges.
pub const CLASSES: [ChannelClass; 5] = [
    ChannelClass::TerminalUp,
    ChannelClass::TerminalDown,
    ChannelClass::LocalRow,
    ChannelClass::LocalCol,
    ChannelClass::Global,
];

/// Dense index of a channel class (its position in [`CLASSES`]).
pub fn class_index(class: ChannelClass) -> usize {
    match class {
        ChannelClass::TerminalUp => 0,
        ChannelClass::TerminalDown => 1,
        ChannelClass::LocalRow => 2,
        ChannelClass::LocalCol => 3,
        ChannelClass::Global => 4,
    }
}

/// The channel metrics of a network at one point in time.
///
/// Holds a snapshot only for each channel with a non-zero traffic,
/// saturation or busy value; every other channel reads zero in every
/// metric. Which channels those are does not depend on which records an
/// engine happened to allocate, so serial and sharded runs agree. The
/// per-channel accessors fill the idle channels back in, in id order;
/// [`NetworkMetrics::split`] counts them instead, so a CDF over a
/// machine costs what its active channels cost.
#[derive(Clone)]
pub struct NetworkMetrics {
    topo: Arc<Topology>,
    /// Active channels, in id order.
    snapshots: Vec<ChannelSnapshot>,
    /// Channels of the machine per class, by [`class_index`].
    class_counts: [usize; 5],
    footprint: ChannelFootprint,
}

impl std::fmt::Debug for NetworkMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkMetrics")
            .field("snapshots", &self.snapshots)
            .field("class_counts", &self.class_counts)
            .field("footprint", &self.footprint)
            .finish_non_exhaustive()
    }
}

impl ChannelSnapshot {
    /// True if any metric of the channel is non-zero.
    fn is_active(&self) -> bool {
        self.traffic_bytes > 0 || self.saturated_time > Ns::ZERO || self.busy_time > Ns::ZERO
    }
}

impl NetworkMetrics {
    /// Metrics of `topo`'s channels from the snapshots of any set of
    /// them, in any order: idle snapshots are dropped and the rest kept
    /// in id order.
    pub fn new(
        topo: Arc<Topology>,
        snapshots: impl IntoIterator<Item = ChannelSnapshot>,
    ) -> NetworkMetrics {
        let mut snapshots: Vec<ChannelSnapshot> = snapshots
            .into_iter()
            .filter(ChannelSnapshot::is_active)
            .collect();
        snapshots.sort_unstable_by_key(|c| c.id);
        NetworkMetrics {
            class_counts: CLASSES.map(|c| topo.class_channel_count(c)),
            topo,
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

    /// The snapshots of the active channels (a non-zero traffic,
    /// saturation or busy value), in id order.
    pub fn channels(&self) -> impl Iterator<Item = &ChannelSnapshot> {
        self.snapshots.iter()
    }

    /// Channels of `class` in the machine, active or not.
    pub fn class_channels(&self, class: ChannelClass) -> usize {
        self.class_counts[class_index(class)]
    }

    /// Heap bytes of the snapshots, plus the struct itself.
    pub fn approx_bytes(&self) -> usize {
        self.snapshots.capacity() * std::mem::size_of::<ChannelSnapshot>()
            + std::mem::size_of::<NetworkMetrics>()
    }

    /// Traffic in bytes on each **local** channel passing `filter`
    /// (the x-series of the paper's "local channel traffic" CDFs).
    pub fn local_traffic(&self, filter: &MetricsFilter) -> Vec<f64> {
        self.select(filter, ChannelClass::is_local, |c| c.traffic_bytes as f64)
    }

    /// Traffic in bytes on each **global** channel passing `filter`.
    pub fn global_traffic(&self, filter: &MetricsFilter) -> Vec<f64> {
        self.select(filter, is_global, |c| c.traffic_bytes as f64)
    }

    /// Saturated time (milliseconds) of each local channel passing `filter`.
    pub fn local_saturation_ms(&self, filter: &MetricsFilter) -> Vec<f64> {
        self.select(filter, ChannelClass::is_local, |c| {
            c.saturated_time.as_ms_f64()
        })
    }

    /// Saturated time (milliseconds) of each global channel passing `filter`.
    pub fn global_saturation_ms(&self, filter: &MetricsFilter) -> Vec<f64> {
        self.select(filter, is_global, |c| c.saturated_time.as_ms_f64())
    }

    /// The channels of the classes `classes` accepts that pass `filter`,
    /// split for a zero-mass CDF: how many have no snapshot, and `value`
    /// of each that has one. Idle channels read zero in every metric, so
    /// `Cdf::with_zeros(idle, values)` is the CDF of the per-channel
    /// accessor's series.
    pub fn split(
        &self,
        filter: &MetricsFilter,
        classes: impl Fn(ChannelClass) -> bool,
        value: impl Fn(&ChannelSnapshot) -> f64,
    ) -> (usize, Vec<f64>) {
        let values: Vec<f64> = self
            .snapshots
            .iter()
            .filter(|c| classes(c.class) && filter.accepts(c))
            .map(value)
            .collect();
        let channels = match filter {
            MetricsFilter::All => CLASSES
                .into_iter()
                .filter(|&c| classes(c))
                .map(|c| self.class_channels(c))
                .sum(),
            MetricsFilter::Routers(_) => self.channel_ids(filter, classes).len(),
        };
        (channels - values.len(), values)
    }

    /// Ids of the channels of the accepted classes passing `filter`,
    /// ascending. Class id ranges are contiguous, in [`CLASSES`] order.
    fn channel_ids(
        &self,
        filter: &MetricsFilter,
        classes: impl Fn(ChannelClass) -> bool,
    ) -> Vec<u32> {
        let mut ids = Vec::new();
        let mut start = 0;
        for (class, &count) in CLASSES.into_iter().zip(&self.class_counts) {
            let end = start + count as u32;
            if classes(class) {
                match filter {
                    MetricsFilter::All => ids.extend(start..end),
                    MetricsFilter::Routers(set) => ids.extend(
                        set.iter()
                            .flat_map(|&r| self.topo.router_channels(r, class))
                            .map(|id| id.0),
                    ),
                }
            }
            start = end;
        }
        ids.sort_unstable();
        ids
    }

    /// `value` of every channel of the accepted classes passing `filter`,
    /// in id order, idle channels as zero.
    fn select(
        &self,
        filter: &MetricsFilter,
        classes: impl Fn(ChannelClass) -> bool,
        value: impl Fn(&ChannelSnapshot) -> f64,
    ) -> Vec<f64> {
        let mut active = self.snapshots.iter().peekable();
        self.channel_ids(filter, classes)
            .into_iter()
            .filter_map(|id| {
                while active.next_if(|c| c.id.0 < id).is_some() {}
                match active.next_if(|c| c.id.0 == id) {
                    Some(c) => filter.accepts(c).then(|| value(c)),
                    None => Some(0.0),
                }
            })
            .collect()
    }

    /// Utilization fraction of each channel of a class over the
    /// observation window `[0, end]`, in id order.
    ///
    /// The window must cover every recorded transmission: a channel is
    /// busy at most 100% of real time, so `end < busy_time` means the
    /// caller passed a stale window (debug builds assert). The released
    /// value is clamped to 1.0 so a stale window can only flatten the
    /// figure, never fabricate >100% utilization.
    pub fn utilization(&self, class: ChannelClass, end: Ns) -> Vec<f64> {
        assert!(end > Ns::ZERO, "observation window must be positive");
        self.select(
            &MetricsFilter::All,
            |c| c == class,
            |c| {
                debug_assert!(
                    c.busy_time <= end,
                    "observation window end {end:?} predates channel {:?}'s \
                     busy_time {:?}",
                    c.id,
                    c.busy_time
                );
                (c.busy_time.as_nanos() as f64 / end.as_nanos() as f64).min(1.0)
            },
        )
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

fn is_global(class: ChannelClass) -> bool {
    class == ChannelClass::Global
}

/// Bin cap of a network traffic timeline: 64 Ki bins per class, 2.5 MiB
/// for all five. At the 8 µs bins the `timeline` bench uses that is half
/// a second of simulated time, far past any Theta run, so the bins are
/// exactly the bytes started per `bin_width`; a longer run doubles the
/// width instead of growing.
pub const TIMELINE_BINS: usize = 1 << 16;

/// An empty per-class traffic timeline: one [`CoarseTimeline`] lane per
/// class ([`class_index`] order), capped at [`TIMELINE_BINS`] bins.
pub fn traffic_timeline(bin_width: Ns) -> CoarseTimeline {
    CoarseTimeline::new(bin_width, CLASSES.len(), TIMELINE_BINS)
}

/// The local (row + column) lanes of a traffic timeline, summed per bin.
pub fn local_series(timeline: &CoarseTimeline) -> Vec<u64> {
    let row = timeline.series(class_index(ChannelClass::LocalRow));
    let col = timeline.series(class_index(ChannelClass::LocalCol));
    (0..row.len().max(col.len()))
        .map(|i| row.get(i).unwrap_or(&0) + col.get(i).unwrap_or(&0))
        .collect()
}

#[cfg(test)]
mod timeline_tests {
    use super::*;

    fn series(t: &CoarseTimeline, class: ChannelClass) -> &[u64] {
        t.series(class_index(class))
    }

    fn record(t: &mut CoarseTimeline, class: ChannelClass, at: Ns, bytes: u64) {
        t.record(class_index(class), at, bytes);
    }

    #[test]
    fn records_into_correct_bins() {
        let mut t = traffic_timeline(Ns(100));
        record(&mut t, ChannelClass::Global, Ns(0), 10);
        record(&mut t, ChannelClass::Global, Ns(99), 5);
        record(&mut t, ChannelClass::Global, Ns(100), 7);
        record(&mut t, ChannelClass::LocalRow, Ns(250), 3);
        assert_eq!(series(&t, ChannelClass::Global), &[15, 7]);
        assert_eq!(series(&t, ChannelClass::LocalRow), &[0, 0, 3]);
        assert_eq!(series(&t, ChannelClass::LocalCol), &[] as &[u64]);
    }

    #[test]
    fn local_series_merges_rows_and_cols() {
        let mut t = traffic_timeline(Ns(10));
        record(&mut t, ChannelClass::LocalRow, Ns(5), 2);
        record(&mut t, ChannelClass::LocalCol, Ns(5), 3);
        record(&mut t, ChannelClass::LocalCol, Ns(25), 4);
        assert_eq!(local_series(&t), vec![5, 0, 4]);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_rejected() {
        let _ = traffic_timeline(Ns::ZERO);
    }

    /// One far-future event (or a tiny bin width on a long run) must not
    /// size the bins by its timestamp: the width doubles until the event
    /// lands in the last of the capped bins, and no byte is lost.
    #[test]
    fn far_future_events_saturate_into_last_bin() {
        let mut t = traffic_timeline(Ns(1));
        record(&mut t, ChannelClass::Global, Ns(5), 2);
        // u64::MAX ns at 1ns bins implies ~2^64 bins; must stay capped.
        record(&mut t, ChannelClass::Global, Ns(u64::MAX), 7);
        record(&mut t, ChannelClass::Global, Ns(u64::MAX - 1), 3);
        let s = series(&t, ChannelClass::Global);
        assert_eq!(s.len(), TIMELINE_BINS);
        assert_eq!(s[0], 2, "the early event folded into the first bin");
        assert_eq!(s[TIMELINE_BINS - 1], 10, "saturated bin");
        // Totals are preserved — coarsening shifts time, never drops bytes.
        assert_eq!(s.iter().sum::<u64>(), 12);
    }

    #[test]
    fn last_in_range_bin_is_not_saturation() {
        let mut t = traffic_timeline(Ns(100));
        let last_start = (TIMELINE_BINS as u64 - 1) * 100;
        record(&mut t, ChannelClass::LocalRow, Ns(last_start), 4);
        record(&mut t, ChannelClass::LocalRow, Ns(last_start + 99), 6);
        let s = series(&t, ChannelClass::LocalRow);
        assert_eq!(s.len(), TIMELINE_BINS);
        assert_eq!(s[TIMELINE_BINS - 1], 10);
        assert_eq!(t.bin_width(), Ns(100), "no coarsening inside the cap");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfly_topology::TopologyConfig;

    /// The 64-node test machine: 32 routers with 3 row, 1 column and 3
    /// global channels each.
    fn topo() -> Arc<Topology> {
        Arc::new(Topology::build(TopologyConfig::small_test()))
    }

    /// The `k`th channel of `class` owned by `router`.
    fn id(t: &Topology, router: u32, class: ChannelClass, k: usize) -> ChannelId {
        t.router_channels(RouterId(router), class)[k]
    }

    fn snap(t: &Topology, id: ChannelId, traffic: u64, sat_ns: u64) -> ChannelSnapshot {
        ChannelSnapshot {
            id,
            class: t.channel_class(id),
            src_router: Some(t.channel_owner(id)),
            traffic_bytes: traffic,
            saturated_time: Ns(sat_ns),
            busy_time: Ns(traffic * 2),
        }
    }

    fn sample() -> NetworkMetrics {
        let t = topo();
        let snaps = vec![
            snap(&t, id(&t, 0, ChannelClass::LocalRow, 0), 100, 1_000_000),
            snap(&t, id(&t, 0, ChannelClass::LocalCol, 0), 200, 0),
            snap(&t, id(&t, 1, ChannelClass::LocalRow, 0), 300, 2_000_000),
            snap(&t, id(&t, 0, ChannelClass::Global, 0), 400, 500_000),
            snap(&t, id(&t, 1, ChannelClass::Global, 0), 500, 0),
            snap(&t, id(&t, 0, ChannelClass::TerminalUp, 0), 999, 0),
            // Idle: dropped.
            snap(&t, id(&t, 2, ChannelClass::Global, 0), 0, 0),
        ];
        NetworkMetrics::new(t, snaps.into_iter().rev())
    }

    /// The non-zero values of `v`, sorted.
    fn nonzero(v: &[f64]) -> Vec<f64> {
        let mut out: Vec<f64> = v.iter().copied().filter(|&x| x != 0.0).collect();
        out.sort_by(|a, b| a.partial_cmp(b).unwrap());
        out
    }

    fn local_channels(m: &NetworkMetrics) -> usize {
        m.class_channels(ChannelClass::LocalRow) + m.class_channels(ChannelClass::LocalCol)
    }

    #[test]
    fn local_traffic_all() {
        let m = sample();
        let v = m.local_traffic(&MetricsFilter::All);
        assert_eq!(v.len(), local_channels(&m));
        assert_eq!(nonzero(&v), vec![100.0, 200.0, 300.0]);
    }

    #[test]
    fn global_traffic_all() {
        let m = sample();
        let v = m.global_traffic(&MetricsFilter::All);
        assert_eq!(v.len(), m.class_channels(ChannelClass::Global));
        assert_eq!(nonzero(&v), vec![400.0, 500.0]);
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
        let v = m.local_traffic(&filter);
        assert_eq!(v.len(), 4, "3 row + 1 column channels");
        assert_eq!(nonzero(&v), vec![100.0, 200.0]);
        assert_eq!(m.global_traffic(&filter), vec![400.0, 0.0, 0.0]);
    }

    #[test]
    fn saturation_in_ms() {
        let m = sample();
        let v = m.local_saturation_ms(&MetricsFilter::All);
        assert_eq!(v.len(), local_channels(&m));
        assert_eq!(nonzero(&v), vec![1.0, 2.0]);
        assert_eq!(
            nonzero(&m.global_saturation_ms(&MetricsFilter::All)),
            vec![0.5]
        );
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
        let t = m.router_traffic(32);
        // Router 0: local 100+200 + global 400; terminal excluded.
        assert_eq!(&t[..3], &[700, 800, 0]);
        assert_eq!(t.iter().sum::<u64>(), 1500);
    }

    #[test]
    fn utilization_fractions() {
        let m = sample();
        let u = m.utilization(ChannelClass::Global, Ns(2000));
        assert_eq!(u.len(), m.class_channels(ChannelClass::Global));
        // busy = traffic*2 in the fixture: 800/2000 and 1000/2000.
        assert_eq!(nonzero(&u), vec![0.4, 0.5]);
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
        let t = topo();
        let mut s = snap(&t, id(&t, 0, ChannelClass::LocalRow, 1), 50, 0);
        s.src_router = None;
        let m = NetworkMetrics::new(t, [s]);
        let routers: HashSet<RouterId> = [RouterId(0)].into_iter().collect();
        let filter = MetricsFilter::Routers(&routers);
        assert_eq!(m.local_traffic(&filter), vec![0.0; 3]);
        assert_eq!(
            m.split(&filter, ChannelClass::is_local, |c| c.traffic_bytes as f64)
                .1,
            vec![]
        );
        assert!(m.local_traffic(&MetricsFilter::All).contains(&50.0));
    }

    #[test]
    fn idle_snapshots_are_dropped_and_counted_by_split() {
        let m = sample();
        assert_eq!(m.channels().count(), 6);
        assert!(m.channels().map(|c| c.id).is_sorted());
        let (idle, values) = m.split(&MetricsFilter::All, is_global, |c| c.traffic_bytes as f64);
        assert_eq!(values, vec![400.0, 500.0]);
        assert_eq!(idle + 2, m.class_channels(ChannelClass::Global));
        let routers: HashSet<RouterId> = [RouterId(0), RouterId(1)].into_iter().collect();
        let filter = MetricsFilter::Routers(&routers);
        let (idle, values) = m.split(&filter, ChannelClass::is_local, |c| c.traffic_bytes as f64);
        assert_eq!((idle, values), (5, vec![100.0, 300.0, 200.0]), "id order");
    }
}

/// The metrics snapshot before idle channels were skipped: one snapshot
/// per machine channel, every accessor a filter over all of them. Kept
/// as the reference the sparse [`NetworkMetrics`] and its zero-run CDFs
/// must equal bit for bit, over whole serial and sharded runs.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::net::Network;
    use crate::params::NetworkParams;
    use crate::routing::Routing;
    use crate::shard::ShardedNetwork;
    use dfly_engine::Xoshiro256;
    use dfly_stats::Cdf;
    use dfly_topology::{GlobalArrangement, NodeId, TopologyConfig};

    struct FullSnapshot(Vec<ChannelSnapshot>);

    impl FullSnapshot {
        fn select(
            &self,
            filter: &MetricsFilter,
            classes: impl Fn(ChannelClass) -> bool,
            value: impl Fn(&ChannelSnapshot) -> f64,
        ) -> Vec<f64> {
            self.0
                .iter()
                .filter(|c| classes(c.class) && filter.accepts(c))
                .map(value)
                .collect()
        }

        fn utilization(&self, class: ChannelClass, end: Ns) -> Vec<f64> {
            self.0
                .iter()
                .filter(|c| c.class == class)
                .map(|c| (c.busy_time.as_nanos() as f64 / end.as_nanos() as f64).min(1.0))
                .collect()
        }

        fn total_traffic(&self, class: ChannelClass) -> Bytes {
            self.0
                .iter()
                .filter(|c| c.class == class)
                .map(|c| c.traffic_bytes)
                .sum()
        }

        fn router_traffic(&self, total_routers: u32) -> Vec<Bytes> {
            let mut out = vec![0u64; total_routers as usize];
            for c in self.0.iter().filter(|c| c.class.is_router_to_router()) {
                out[c.src_router.expect("router").index()] += c.traffic_bytes;
            }
            out
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn point_bits(points: impl Iterator<Item = (f64, f64)>) -> Vec<(u64, u64)> {
        points.map(|(x, y)| (x.to_bits(), y.to_bits())).collect()
    }

    /// Every `Cdf` method on the zero-run CDF equals the all-samples
    /// CDF's, computed here over the sorted full series.
    fn assert_cdf_matches(cdf: &Cdf, full: &[f64], what: &str) {
        let mut sorted = full.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len();
        assert_eq!(cdf.len(), n, "{what}: len");
        let steps: Vec<(f64, f64)> = sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 100.0 * (i + 1) as f64 / n as f64))
            .collect();
        assert_eq!(
            point_bits(cdf.steps()),
            point_bits(steps.iter().copied()),
            "{what}: steps"
        );
        for k in [2, 11, 1000] {
            let want = (0..n.min(k)).map(|j| {
                let i = if n <= k { j } else { j * (n - 1) / (k - 1) };
                (sorted[i], 100.0 * (i + 1) as f64 / n as f64)
            });
            assert_eq!(
                point_bits(cdf.sampled_points(k)),
                point_bits(want),
                "{what}: k={k}"
            );
        }
        let to_bits = |v: Option<f64>| v.map(f64::to_bits);
        assert_eq!(
            to_bits(cdf.min()),
            to_bits(sorted.first().copied()),
            "{what}: min"
        );
        assert_eq!(
            to_bits(cdf.max()),
            to_bits(sorted.last().copied()),
            "{what}: max"
        );
        let mean = dfly_stats::mean(&sorted);
        assert_eq!(cdf.mean().to_bits(), mean.to_bits(), "{what}: mean");
        if n == 0 {
            return;
        }
        for f in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = dfly_stats::summary::percentile_sorted(&sorted, f * 100.0);
            assert_eq!(cdf.quantile(f).to_bits(), want.to_bits(), "{what}: q{f}");
        }
        for x in [0.0, cdf.quantile(0.999), sorted[n - 1], -1.0] {
            let want = sorted.partition_point(|&v| v <= x) as f64 / n as f64;
            let got = cdf.fraction_at_or_below(x);
            assert_eq!(got.to_bits(), want.to_bits(), "{what}: F({x})");
        }
    }

    fn assert_matches(m: &NetworkMetrics, full: &FullSnapshot, end: Ns, what: &str) {
        let active: Vec<&ChannelSnapshot> = full.0.iter().filter(|c| c.is_active()).collect();
        assert_eq!(m.channels().collect::<Vec<_>>(), active, "{what}: channels");
        assert!(active.len() < full.0.len(), "{what}: no idle channel");
        let topo = &m.topo;
        let hotspot: HashSet<RouterId> = (0..=16).map(|n| topo.node_router(NodeId(n))).collect();
        let mut rng = Xoshiro256::seed_from(5);
        let routers = topo.config().total_routers();
        let spread: HashSet<RouterId> = (0..routers / 5)
            .map(|_| RouterId(rng.next_below(routers as u64) as u32))
            .collect();
        let filters = [
            ("all", MetricsFilter::All),
            ("hotspot", MetricsFilter::Routers(&hotspot)),
            ("spread", MetricsFilter::Routers(&spread)),
        ];
        type Value = fn(&ChannelSnapshot) -> f64;
        type Series<'a> = (&'a str, Vec<f64>, fn(ChannelClass) -> bool, Value);
        let traffic: Value = |c| c.traffic_bytes as f64;
        let saturation: Value = |c| c.saturated_time.as_ms_f64();
        for (fname, filter) in &filters {
            let series: [Series; 4] = [
                (
                    "local traffic",
                    m.local_traffic(filter),
                    ChannelClass::is_local,
                    traffic,
                ),
                (
                    "global traffic",
                    m.global_traffic(filter),
                    is_global,
                    traffic,
                ),
                (
                    "local saturation",
                    m.local_saturation_ms(filter),
                    ChannelClass::is_local,
                    saturation,
                ),
                (
                    "global saturation",
                    m.global_saturation_ms(filter),
                    is_global,
                    saturation,
                ),
            ];
            for (sname, got, classes, value) in series {
                let what = format!("{what} {fname} {sname}");
                let want = full.select(filter, classes, value);
                assert_eq!(bits(&got), bits(&want), "{what}");
                let (idle, values) = m.split(filter, classes, value);
                assert_cdf_matches(&Cdf::with_zeros(idle, values), &want, &what);
            }
        }
        for class in CLASSES {
            let what = format!("{what} {class:?}");
            let (got, want) = (m.utilization(class, end), full.utilization(class, end));
            assert_eq!(bits(&got), bits(&want), "{what}: utilization");
            assert_eq!(
                m.total_traffic(class),
                full.total_traffic(class),
                "{what}: total"
            );
        }
        assert_eq!(
            m.router_traffic(routers),
            full.router_traffic(routers),
            "{what}"
        );
        // Not vacuous: some local link saturated, some global link moved bytes.
        assert!(m.total_traffic(ChannelClass::Global) > 0, "{what}");
        assert!(m
            .local_saturation_ms(&MetricsFilter::All)
            .iter()
            .any(|&s| s > 0.0));
    }

    fn check(cfg: TopologyConfig, name: &str) {
        let topo = Arc::new(Topology::build(cfg.clone()));
        let traffic = crate::obs::tests::oracle_traffic(cfg.total_nodes());
        let params = NetworkParams::default();
        for shards in [None, Some(1), Some(4)] {
            let what = format!("{name} shards {shards:?}");
            let (metrics, full, end) = match shards {
                None => {
                    let mut n = Network::new(topo.clone(), params, Routing::Adaptive, 11);
                    for (i, &(at, s, d, b)) in traffic.iter().enumerate() {
                        n.send(at, s, d, b, i as u64);
                    }
                    n.run_to_idle();
                    (n.metrics(), n.full_snapshot(n.now(), |_| true), n.now())
                }
                Some(workers) => {
                    let mut n =
                        ShardedNetwork::new(topo.clone(), params, Routing::Adaptive, 11, workers);
                    for (i, &(at, s, d, b)) in traffic.iter().enumerate() {
                        n.send(at, s, d, b, i as u64);
                    }
                    while n.poll().is_some() {}
                    let parts = n.finish();
                    (parts.metrics(), parts.full_snapshot(), parts.final_time())
                }
            };
            assert_matches(&metrics, &FullSnapshot(full), end, &what);
        }
    }

    #[test]
    fn sparse_metrics_equal_the_full_snapshot_on_quick_theta() {
        check(TopologyConfig::quick(), "quick theta");
    }

    #[test]
    fn sparse_metrics_equal_the_full_snapshot_on_canonic_palm_tree() {
        let mut cfg = TopologyConfig::canonical(2, 8, 4, 17);
        cfg.arrangement = GlobalArrangement::PalmTree;
        check(cfg, "canonic 2,8,4,17 palm-tree");
    }
}
