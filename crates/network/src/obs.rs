//! The telemetry collector: the mutating half of the `dfly-obs` layer.
//!
//! `dfly-obs` holds the passive data structures (profiles, sample series,
//! histograms, reports); this module turns live network state into them.
//! Collection never perturbs the simulation: no event is scheduled and
//! no simulated counter is touched, so obs-on and obs-off runs are
//! bit-identical (`tests/determinism.rs` enforces it).
//!
//! **Cost model.** A sample window does not sweep the machine. The
//! network keeps per-class running totals of busy time, closed saturated
//! time and queued bytes, plus lists of the channels that are saturated
//! or hold queued bytes ([`ChannelActivity`]), all updated where the
//! simulation already mutates that state. A window reads the totals,
//! adds the open saturation intervals of the saturated channels, and
//! records the non-empty VCs of the occupied channels into the occupancy
//! histogram; every other VC is an exact bulk credit to the empty
//! bucket. Per-window work is therefore proportional to the occupied plus
//! saturated channels, not to the channel count.
//!
//! Event timing is stride-sampled (see [`ObsCollector::timing_due`]):
//! every event is counted, every Nth per kind is timed, so the obs-on
//! path pays O(1/N) clock reads. Sample windows land on the aligned grid
//! `interval, 2*interval, ...` of simulation time: when events are
//! sparse and time jumps over several boundaries at once, the collector
//! emits one catch-up window per crossed boundary instead of a single
//! oversized one, so `SampleSeries` spacing stays uniform.

use crate::channel::{ChannelActivity, ChannelStore};
use crate::packet::MAX_ROUTE_LEN;
use crate::params::NetworkParams;
use dfly_engine::Ns;
use dfly_obs::{
    EventKind, EventLoopProfile, NetSample, ObsClock, ObsReport, OccupancyHistogram, RouteStats,
    SampleSeries, OBS_CLASSES,
};
use dfly_topology::{ChannelId, Topology};
use std::sync::Arc;

/// Channels per [`class_index`] class of `topo`.
pub(crate) fn class_counts(topo: &Topology) -> [u64; 5] {
    OBS_CLASSES.map(|(class, _)| topo.class_channel_count(class) as u64)
}

/// Collects telemetry for one network over its lifetime.
pub(crate) struct ObsCollector {
    profile: EventLoopProfile,
    series: SampleSeries,
    vc_occupancy: OccupancyHistogram,
    /// The wall-clock source for handler timing.
    clock: ObsClock,
    /// Coarse timing was requested but the platform lacks a coarse source.
    coarse_unavailable: bool,
    /// Time every Nth event per kind (1 = exhaustive).
    stride: u32,
    /// Per-kind countdown until the next timed event.
    until_timed: [u32; 4],
    /// Next aligned simulation time at which a window is due.
    next_sample: Ns,
    /// Window delta bookkeeping.
    window: WindowDeltas,
    /// Channels per class (the utilization denominators).
    class_counts: [u64; 5],
    /// Shard mode: the machine (whose channel-owner arithmetic says which
    /// group owns a channel) and this replica's group. Occupancy
    /// histogram readings are restricted to owned channels so a sharded
    /// run's merged histogram matches a serial run (unowned channels are
    /// always empty here and would flood bucket zero). Busy/stall/queued
    /// totals need no mask — unowned channels contribute zeros.
    owner: Option<(Arc<Topology>, u32)>,
    /// Channels whose VCs the histogram reads each window (all channels,
    /// or the owned ones in shard mode).
    owned_channels: u64,
    /// The full-sweep reference the incremental windows are checked
    /// against (see [`oracle`]).
    #[cfg(test)]
    oracle: oracle::FullSweep,
}

/// Cumulative class totals at the previous window, turning the next
/// window's totals into per-window deltas.
#[derive(Debug, Clone, Copy, Default)]
struct WindowDeltas {
    /// Start of the current sampling window.
    last_sample_at: Ns,
    prev_busy_ns: [u64; 5],
    prev_stall_ns: [u64; 5],
    prev_minimal: u64,
    prev_nonminimal: u64,
}

impl WindowDeltas {
    /// The sample for the non-empty window `(last_sample_at, at]` from
    /// cumulative per-class `busy_ns`/`stall_ns` and instantaneous
    /// `queued` bytes.
    fn sample(
        &mut self,
        at: Ns,
        busy_ns: [u64; 5],
        stall_ns: [u64; 5],
        queued: [u64; 5],
        class_counts: &[u64; 5],
        route: Option<&RouteStats>,
    ) -> NetSample {
        let window = (at - self.last_sample_at).as_nanos() as f64;
        let mut sample = NetSample {
            at,
            ..NetSample::default()
        };
        for i in 0..OBS_CLASSES.len() {
            // Mean utilization across the class's channels. Transmission
            // time is credited in full at tx start, so the window quotient
            // can transiently exceed 1 — clamp.
            let denom = window * class_counts[i].max(1) as f64;
            let busy_delta = busy_ns[i].saturating_sub(self.prev_busy_ns[i]) as f64;
            sample.util[i] = (busy_delta / denom).min(1.0);
            sample.stall_ns[i] = stall_ns[i].saturating_sub(self.prev_stall_ns[i]);
            sample.queued_bytes[i] = queued[i];
            self.prev_busy_ns[i] = busy_ns[i];
            self.prev_stall_ns[i] = stall_ns[i];
        }
        if let Some(r) = route {
            sample.minimal_taken = r.minimal_taken - self.prev_minimal;
            sample.nonminimal_taken = r.nonminimal_taken - self.prev_nonminimal;
            self.prev_minimal = r.minimal_taken;
            self.prev_nonminimal = r.nonminimal_taken;
        }
        self.last_sample_at = at;
        sample
    }
}

impl ObsCollector {
    /// Default sampling interval: 50 µs of simulation time — fine enough
    /// to resolve the paper's millisecond-scale communication phases,
    /// coarse enough that a long run stays within the series cap.
    pub(crate) const DEFAULT_INTERVAL: Ns = Ns(50_000);

    /// Fresh collector sampling every `interval` of simulation time,
    /// timing every `stride`th event per kind with a precise or `coarse`
    /// clock. `class_counts` is the machine's channels per class (see
    /// [`class_counts`]).
    pub(crate) fn new(
        interval: Ns,
        stride: u32,
        coarse_clock: bool,
        class_counts: [u64; 5],
    ) -> ObsCollector {
        assert!(stride >= 1, "obs stride must be at least 1");
        let clock = ObsClock::new(coarse_clock);
        ObsCollector {
            profile: EventLoopProfile::new(),
            series: SampleSeries::new(interval),
            vc_occupancy: OccupancyHistogram::new(),
            coarse_unavailable: coarse_clock && !clock.is_coarse(),
            clock,
            stride,
            // Zero countdowns: the first event of each kind is timed, so
            // short runs still get a cost estimate for every kind.
            until_timed: [0; 4],
            next_sample: interval,
            window: WindowDeltas::default(),
            class_counts,
            owner: None,
            owned_channels: class_counts.iter().sum(),
            #[cfg(test)]
            oracle: oracle::FullSweep::new(interval),
        }
    }

    /// Restrict occupancy-histogram readings to the channels of `topo`
    /// that `group` owns (shard mode; see the `owner` field).
    pub(crate) fn set_owner(&mut self, topo: Arc<Topology>, group: u32) {
        // Every router owns the same number of channels of each class,
        // so every group owns an equal share of the machine.
        self.owned_channels = (topo.channel_count() / topo.config().groups as usize) as u64;
        self.owner = Some((topo, group));
    }

    /// Decide whether the upcoming event of `kind` gets its handler
    /// timed, advancing the per-kind stride countdown.
    #[inline]
    pub(crate) fn timing_due(&mut self, kind: EventKind) -> bool {
        let slot = &mut self.until_timed[kind.index()];
        if *slot == 0 {
            *slot = self.stride - 1;
            true
        } else {
            *slot -= 1;
            false
        }
    }

    /// Read the profiling clock (only meaningful around a timed event).
    #[inline]
    pub(crate) fn clock_now(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Record one handled event into the profile: timed when
    /// [`ObsCollector::timing_due`] picked it (then `started` carries the
    /// pre-handler clock read), counted otherwise.
    #[inline]
    pub(crate) fn note_event(&mut self, kind: EventKind, started: Option<u64>, queue_depth: usize) {
        match started {
            Some(t0) => {
                let elapsed = self.clock.now_ns().saturating_sub(t0);
                self.profile.record_timed(kind, elapsed, queue_depth);
            }
            None => self.profile.record_counted(kind, queue_depth),
        }
    }

    /// True once simulation time has reached the next window boundary.
    #[inline]
    pub(crate) fn sample_due(&self, now: Ns) -> bool {
        now >= self.next_sample
    }

    /// Emit one window per aligned boundary crossed by `now`. Sparse
    /// traffic that jumps several intervals between events gets uniform
    /// catch-up windows (saturation interpolates via its interval
    /// bookkeeping; busy/queued state cannot change without events).
    /// `channels` is mutable only for the activity lists' membership bits.
    pub(crate) fn sample(
        &mut self,
        now: Ns,
        channels: &mut ChannelStore,
        activity: &mut ChannelActivity,
        params: &NetworkParams,
        route: Option<&RouteStats>,
    ) {
        while self.next_sample <= now {
            let at = self.next_sample;
            self.push_window(at, channels, activity, params, route);
            self.next_sample = at + self.series.interval();
        }
    }

    /// Emit every due aligned window, then close the partial tail window
    /// at `now`. Called once when a report is taken; safe to repeat (a
    /// zero-width tail is skipped).
    pub(crate) fn close(
        &mut self,
        now: Ns,
        channels: &mut ChannelStore,
        activity: &mut ChannelActivity,
        params: &NetworkParams,
        route: Option<&RouteStats>,
    ) {
        self.sample(now, channels, activity, params, route);
        self.push_window(now, channels, activity, params, route);
    }

    /// Push one sample covering the window `(last_sample_at, at]` from
    /// the activity totals, and record the window's VC occupancy. A
    /// zero-width window is skipped — there is nothing to attribute to it.
    fn push_window(
        &mut self,
        at: Ns,
        channels: &mut ChannelStore,
        activity: &mut ChannelActivity,
        params: &NetworkParams,
        route: Option<&RouteStats>,
    ) {
        if at <= self.window.last_sample_at {
            return;
        }
        #[cfg(test)]
        self.oracle
            .push_window(at, channels, params, route, self.owner.as_ref());

        let stall_ns = activity.saturated_until(channels, at);
        // Every owned VC gives one reading per window: the non-empty ones
        // live on occupied channels, the rest are empty (bucket 0).
        let owner = self.owner.as_ref();
        let hist = &mut self.vc_occupancy;
        let mut recorded = 0u64;
        activity.for_each_occupied(channels, |id, ch| {
            if !owns(owner, id) {
                return;
            }
            let cap = params.vc_capacity(ch.class) as f64;
            for vc in ch.vcs.iter().filter(|vc| vc.occupancy > 0) {
                hist.record(vc.occupancy as f64 / cap);
                recorded += 1;
            }
        });
        hist.record_empty(self.owned_channels * MAX_ROUTE_LEN as u64 - recorded);

        let sample = self.window.sample(
            at,
            activity.busy_ns,
            stall_ns,
            activity.occupancy,
            &self.class_counts,
            route,
        );
        self.series.push(sample);
    }

    /// Approximate heap bytes of the collector's metric structures (the
    /// sample series).
    pub(crate) fn approx_metric_bytes(&self) -> usize {
        self.series.approx_bytes()
    }

    /// Bundle everything collected into a report. `queue_high_water` comes
    /// from the event queue (it sees peaks between profiled events);
    /// `route` is the cumulative UGAL ledger from the route computer.
    pub(crate) fn report(&self, queue_high_water: usize, route: Option<&RouteStats>) -> ObsReport {
        let mut profile = self.profile.clone();
        profile.queue_high_water = profile.queue_high_water.max(queue_high_water);
        ObsReport {
            profile,
            series: self.series.clone(),
            vc_occupancy: self.vc_occupancy,
            route: route.copied().unwrap_or_default(),
            coarse_unavailable: self.coarse_unavailable,
        }
    }

    /// [`ObsCollector::report`] with the sample series and occupancy
    /// histogram the full-sweep oracle computed over the same windows.
    #[cfg(test)]
    pub(crate) fn oracle_report(
        &self,
        queue_high_water: usize,
        route: Option<&RouteStats>,
    ) -> ObsReport {
        ObsReport {
            series: self.oracle.series.clone(),
            vc_occupancy: self.oracle.vc_occupancy,
            ..self.report(queue_high_water, route)
        }
    }
}

/// True unless `owner` (shard mode's machine and group) gives channel
/// `id` to another replica.
fn owns(owner: Option<&(Arc<Topology>, u32)>, id: ChannelId) -> bool {
    owner.is_none_or(|(topo, group)| crate::shard::owner_group(topo, id) == *group as usize)
}

/// The full-machine sweep that produced every telemetry window before
/// the activity totals existed, kept as the reference the incremental
/// windows must equal sample for sample and reading for reading. It
/// walks every channel and every VC each window, and counts channels per
/// class on its first window rather than asking the topology.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::channel::ChannelState;
    use crate::metrics::class_index;
    use dfly_topology::ChannelClass;

    pub(crate) struct FullSweep {
        pub(crate) series: SampleSeries,
        pub(crate) vc_occupancy: OccupancyHistogram,
        window: WindowDeltas,
        class_counts: [u64; 5],
    }

    impl FullSweep {
        pub(crate) fn new(interval: Ns) -> FullSweep {
            FullSweep {
                series: SampleSeries::new(interval),
                vc_occupancy: OccupancyHistogram::new(),
                window: WindowDeltas::default(),
                class_counts: [0; 5],
            }
        }

        pub(crate) fn push_window(
            &mut self,
            at: Ns,
            channels: &ChannelStore,
            params: &NetworkParams,
            route: Option<&RouteStats>,
            owner: Option<&(Arc<Topology>, u32)>,
        ) {
            if at <= self.window.last_sample_at {
                return;
            }
            if self.class_counts == [0; 5] {
                for (_, class, _) in channels.each_channel() {
                    self.class_counts[class_index(class)] += 1;
                }
            }
            let mut busy_ns = [0u64; 5];
            let mut stall_ns = [0u64; 5];
            let mut queued = [0u64; 5];
            // A channel without a record is empty: it adds nothing to the
            // totals and reads zero in every VC.
            let empty = ChannelState::new(ChannelClass::Global);
            for (id, class, ch) in channels.each_channel() {
                let ch = ch.unwrap_or(&empty);
                let ci = class_index(class);
                busy_ns[ci] += ch.busy_time.as_nanos();
                stall_ns[ci] += ch.saturated_until(at).as_nanos();
                queued[ci] += ch.total_occupancy;
                if !owns(owner, id) {
                    continue;
                }
                let cap = params.vc_capacity(class) as f64;
                for vc in &ch.vcs {
                    self.vc_occupancy.record(vc.occupancy as f64 / cap);
                }
            }
            let sample =
                self.window
                    .sample(at, busy_ns, stall_ns, queued, &self.class_counts, route);
            self.series.push(sample);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::channel::ChannelState;
    use crate::metrics::class_index;
    use dfly_topology::ChannelClass;

    /// One channel each of three classes, kept consistent with their
    /// activity totals by mutating through [`ChannelActivity`].
    struct Chans {
        chans: ChannelStore,
        act: ChannelActivity,
    }

    impl Chans {
        fn sample(&mut self, c: &mut ObsCollector, now: Ns, route: Option<&RouteStats>) {
            let params = NetworkParams::default();
            c.sample(now, &mut self.chans, &mut self.act, &params, route);
        }

        fn close(&mut self, c: &mut ObsCollector, now: Ns) {
            let params = NetworkParams::default();
            c.close(now, &mut self.chans, &mut self.act, &params, None);
        }

        fn ch(&mut self, i: usize) -> &mut ChannelState {
            self.chans.get_mut(ChannelId(i as u32))
        }

        fn busy(&mut self, i: usize, t: Ns) {
            let ch = self.chans.get_mut(ChannelId(i as u32));
            self.act.add_busy(ch, t);
        }

        fn mark_full(&mut self, i: usize, vc: usize, at: Ns) {
            let id = ChannelId(i as u32);
            self.act.mark_full(id, self.chans.get_mut(id), vc, at);
        }

        fn clear_full(&mut self, i: usize, vc: usize, at: Ns) {
            let ch = self.chans.get_mut(ChannelId(i as u32));
            self.act.clear_full(ch, vc, at);
        }
    }

    const CLASS_COUNTS: [u64; 5] = [1, 0, 1, 0, 1];

    fn collector(interval: Ns) -> ObsCollector {
        ObsCollector::new(interval, 1, false, CLASS_COUNTS)
    }

    /// Channels 0, 1, 2 are terminal-up, local-row and global, each
    /// 10 µs busy with 512 bytes queued.
    fn channels() -> Chans {
        let mut out = Chans {
            chans: ChannelStore::new(CLASS_COUNTS),
            act: ChannelActivity::default(),
        };
        for i in 0..3 {
            let id = ChannelId(i);
            let ch = out.chans.get_mut(id);
            out.act.add_busy(ch, Ns(10_000));
            out.act.fill(id, ch, 0, 512);
        }
        assert_eq!(
            out.chans.get(ChannelId(2)).unwrap().class,
            ChannelClass::Global
        );
        out
    }

    /// The incremental windows equal the full-sweep oracle's.
    fn assert_matches_oracle(c: &ObsCollector) {
        assert_eq!(c.series, c.oracle.series);
        assert_eq!(c.vc_occupancy, c.oracle.vc_occupancy);
    }

    #[test]
    fn sweep_produces_window_deltas() {
        let mut c = collector(Ns(50_000));
        assert!(!c.sample_due(Ns(49_999)));
        assert!(c.sample_due(Ns(50_000)));

        let mut chans = channels();
        chans.sample(&mut c, Ns(50_000), None);
        let report = c.report(0, None);
        let samples = report.series.samples();
        assert_eq!(samples.len(), 1);
        // One busy channel per swept class, 10µs busy over a 50µs window.
        let ci = class_index(ChannelClass::Global);
        assert!((samples[0].util[ci] - 0.2).abs() < 1e-9);
        assert_eq!(samples[0].queued_bytes[ci], 512);
        // Every VC of every channel contributes one occupancy reading.
        assert_eq!(report.vc_occupancy.readings as usize, MAX_ROUTE_LEN * 3);

        // Second sweep with unchanged busy time: utilization drops to 0.
        chans.sample(&mut c, Ns(100_000), None);
        let report = c.report(0, None);
        assert_eq!(report.series.samples()[1].util[ci], 0.0);
        assert_matches_oracle(&c);
    }

    #[test]
    fn zero_width_window_is_skipped() {
        let mut c = collector(Ns(1_000));
        let mut chans = channels();
        chans.sample(&mut c, Ns(1_000), None);
        chans.sample(&mut c, Ns(1_000), None);
        assert_eq!(c.report(0, None).series.samples().len(), 1);
    }

    #[test]
    fn time_jump_emits_aligned_catchup_windows() {
        // A jump over five boundaries yields five uniformly spaced
        // windows, not one oversized window at the jump's end.
        let mut c = collector(Ns(1_000));
        let mut chans = channels();
        chans.mark_full(2, 0, Ns(500)); // global channel saturates mid-gap
        chans.sample(&mut c, Ns(5_200), None);
        let report = c.report(0, None);
        let samples = report.series.samples();
        assert_eq!(samples.len(), 5, "one window per crossed boundary");
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.at, Ns(1_000 * (i as u64 + 1)), "windows off the grid");
        }
        // The open saturation interval interpolates across the catch-up
        // windows: 500 ns in the first (opened at 500), then full
        // 1000 ns windows — not everything lumped into the last.
        let ci = class_index(ChannelClass::Global);
        assert_eq!(samples[0].stall_ns[ci], 500);
        assert!(samples[1..].iter().all(|s| s.stall_ns[ci] == 1_000));
        // The 200 ns remainder stays open for the next window.
        assert!(!c.sample_due(Ns(5_900)));
        assert!(c.sample_due(Ns(6_000)));
        assert_matches_oracle(&c);
    }

    #[test]
    fn interval_opened_by_the_triggering_event_adds_nothing_to_backfilled_windows() {
        // The event at 3_400 both opens a saturation interval and
        // triggers windows at 1_000..3_000: those windows end before
        // the interval starts and must not see it. A second interval
        // opened and closed inside the gap is banked whole.
        let mut c = collector(Ns(1_000));
        let mut chans = channels();
        chans.mark_full(1, 2, Ns(3_400));
        chans.mark_full(0, 0, Ns(100));
        chans.clear_full(0, 0, Ns(300));
        chans.sample(&mut c, Ns(3_400), None);
        let report = c.report(0, None);
        let samples = report.series.samples();
        let local = class_index(ChannelClass::LocalRow);
        let up = class_index(ChannelClass::TerminalUp);
        assert!(samples.iter().all(|s| s.stall_ns[local] == 0));
        assert_eq!(samples[0].stall_ns[up], 200);
        chans.sample(&mut c, Ns(4_000), None);
        assert_eq!(c.report(0, None).series.samples()[3].stall_ns[local], 600);
        assert_matches_oracle(&c);
    }

    #[test]
    fn emptied_channels_leave_the_lists_at_the_next_window() {
        let mut c = collector(Ns(1_000));
        let mut chans = channels();
        chans.mark_full(2, 1, Ns(10));
        chans.clear_full(2, 1, Ns(20));
        let size = chans.ch(0).total_occupancy;
        chans.act.drain(chans.chans.get_mut(ChannelId(0)), 0, size);
        assert_eq!(chans.act.occupied.len(), 3);
        assert_eq!(chans.act.open_full.len(), 1);
        chans.sample(&mut c, Ns(1_000), None);
        assert_eq!(chans.act.occupied, [ChannelId(1), ChannelId(2)]);
        assert!(chans.act.open_full.is_empty());
        assert_eq!(chans.ch(0).listed, 0);
        assert_eq!(chans.ch(2).listed, crate::channel::ON_OCCUPIED);
        // Re-filling the emptied channel lists it again, once.
        chans
            .act
            .fill(ChannelId(0), chans.chans.get_mut(ChannelId(0)), 3, 64);
        chans
            .act
            .fill(ChannelId(0), chans.chans.get_mut(ChannelId(0)), 4, 64);
        assert_eq!(chans.act.occupied.len(), 3);
        chans.sample(&mut c, Ns(2_000), None);
        assert_matches_oracle(&c);
    }

    #[test]
    fn close_emits_partial_tail_window_once() {
        let mut c = collector(Ns(1_000));
        let mut chans = channels();
        chans.close(&mut c, Ns(2_500));
        let report = c.report(0, None);
        let at: Vec<Ns> = report.series.samples().iter().map(|s| s.at).collect();
        assert_eq!(at, vec![Ns(1_000), Ns(2_000), Ns(2_500)]);
        // Closing again at the same instant adds nothing.
        chans.close(&mut c, Ns(2_500));
        assert_eq!(c.report(0, None).series.samples().len(), 3);
        assert_matches_oracle(&c);
    }

    #[test]
    fn utilization_clamped_even_with_txstart_credit() {
        // busy_time credited at tx start can exceed the window.
        let mut c = collector(Ns(100));
        let mut chans = channels();
        chans.busy(0, Ns(1_000_000));
        chans.sample(&mut c, Ns(100), None);
        let s = c.report(0, None).series.samples()[0];
        assert!(s.util.iter().all(|&u| u <= 1.0), "unclamped: {:?}", s.util);
    }

    #[test]
    fn route_deltas_per_window() {
        let mut chans = channels();
        let mut c = collector(Ns(1_000));
        let mut route = RouteStats::new();
        route.record(false, 10);
        route.record(true, 20);
        chans.sample(&mut c, Ns(1_000), Some(&route));
        route.record(true, 30);
        chans.sample(&mut c, Ns(2_000), Some(&route));
        let report = c.report(7, Some(&route));
        let s = report.series.samples();
        assert_eq!((s[0].minimal_taken, s[0].nonminimal_taken), (1, 1));
        assert_eq!((s[1].minimal_taken, s[1].nonminimal_taken), (0, 1));
        // The report carries the cumulative ledger and the queue peak.
        assert_eq!(report.route.total(), 3);
        assert_eq!(report.profile.queue_high_water, 7);
    }

    #[test]
    fn stride_times_first_then_every_nth_per_kind() {
        let mut c = ObsCollector::new(Ns(1_000), 4, false, CLASS_COUNTS);
        let timed: Vec<bool> = (0..9).map(|_| c.timing_due(EventKind::Arrive)).collect();
        assert_eq!(
            timed,
            [true, false, false, false, true, false, false, false, true]
        );
        // Kinds count down independently.
        assert!(c.timing_due(EventKind::Inject));
        assert!(!c.timing_due(EventKind::Inject));
    }

    #[test]
    fn sampled_profile_counts_all_events_but_times_a_subset() {
        let mut c = ObsCollector::new(Ns(1_000), 8, false, CLASS_COUNTS);
        for _ in 0..100 {
            let started = c.timing_due(EventKind::TxDone).then(|| c.clock_now());
            c.note_event(EventKind::TxDone, started, 3);
        }
        let report = c.report(0, None);
        assert_eq!(report.profile.counts[EventKind::TxDone.index()], 100);
        assert_eq!(report.profile.timed[EventKind::TxDone.index()], 13);
    }

    // ----- oracle equivalence over whole runs ------------------------------

    use crate::net::Network;
    use crate::routing::Routing;
    use crate::shard::ShardedNetwork;
    use dfly_engine::Xoshiro256;
    use dfly_topology::{GlobalArrangement, NodeId, TopologyConfig};
    use std::sync::Arc;

    /// Uniform random traffic over 600 µs plus a 16-sender hotspot at
    /// t=0 (saturation), then two messages after a quiet gap of many
    /// windows (catch-up windows).
    pub(crate) fn oracle_traffic(nodes: u32) -> Vec<(Ns, NodeId, NodeId, u64)> {
        let mut rng = Xoshiro256::seed_from(0x0AC1E);
        let mut out: Vec<_> = (1..=16)
            .map(|s| (Ns::ZERO, NodeId(s), NodeId(0), 48 * 1024))
            .collect();
        for i in 0..300u64 {
            let s = NodeId(rng.next_below(nodes as u64) as u32);
            let d = NodeId(rng.next_below(nodes as u64) as u32);
            out.push((Ns(i * 2_000), s, d, rng.range_inclusive(1, 20_000)));
        }
        out.push((Ns(2_000_000), NodeId(3), NodeId(nodes - 1), 4_096));
        out.push((Ns(2_400_000), NodeId(nodes - 2), NodeId(5), 4_096));
        out
    }

    fn oracle_params() -> NetworkParams {
        NetworkParams {
            obs: true,
            ..NetworkParams::default()
        }
    }

    /// (incremental, oracle) reports of one run; `shards` = None is the
    /// serial loop, Some(n) group-sharded PDES on n workers.
    fn oracle_run(cfg: &TopologyConfig, shards: Option<usize>) -> (ObsReport, ObsReport) {
        let topo = Arc::new(Topology::build(cfg.clone()));
        let traffic = oracle_traffic(cfg.total_nodes());
        let params = oracle_params();
        match shards {
            None => {
                let mut n = Network::new(topo, params, Routing::Adaptive, 11);
                for (i, &(at, s, d, b)) in traffic.iter().enumerate() {
                    n.send(at, s, d, b, i as u64);
                }
                n.run_to_idle();
                let report = n.obs_report().expect("obs on");
                (report, n.obs_oracle_report().expect("obs on"))
            }
            Some(workers) => {
                let mut n = ShardedNetwork::new(topo, params, Routing::Adaptive, 11, workers);
                for (i, &(at, s, d, b)) in traffic.iter().enumerate() {
                    n.send(at, s, d, b, i as u64);
                }
                while n.poll().is_some() {}
                let mut parts = n.finish();
                let report = parts.obs_report().expect("obs on");
                (report, parts.obs_oracle_report().expect("obs on"))
            }
        }
    }

    /// Field-for-field equality of two reports, wall-clock profile fields
    /// excepted.
    fn assert_same_report(got: &ObsReport, want: &ObsReport, what: &str) {
        assert_eq!(got.series, want.series, "{what}: sample series");
        assert_eq!(got.vc_occupancy, want.vc_occupancy, "{what}: VC histogram");
        assert_eq!(got.route, want.route, "{what}: route ledger");
        assert_eq!(got.profile.counts, want.profile.counts, "{what}: counts");
        assert_eq!(got.profile.timed, want.profile.timed, "{what}: timed");
        assert_eq!(
            got.profile.queue_high_water, want.profile.queue_high_water,
            "{what}: queue high water"
        );
        assert_eq!(got.coarse_unavailable, want.coarse_unavailable);
    }

    fn check_oracle(cfg: TopologyConfig, name: &str) {
        for shards in [None, Some(1), Some(4)] {
            let what = format!("{name} shards {shards:?}");
            let (got, want) = oracle_run(&cfg, shards);
            assert_same_report(&got, &want, &what);
            // Not vacuous: the run saturated links, queued bytes and
            // put readings above the empty bucket.
            let samples = got.series.samples();
            assert!(samples.len() > 10, "{what}: {} windows", samples.len());
            assert!(samples.iter().any(|s| s.stall_ns.iter().sum::<u64>() > 0));
            assert!(samples
                .iter()
                .any(|s| s.queued_bytes.iter().sum::<u64>() > 0));
            assert!(got.vc_occupancy.buckets[1..].iter().sum::<u64>() > 0);
        }
    }

    #[test]
    fn incremental_windows_equal_the_full_sweep_on_quick_theta() {
        check_oracle(TopologyConfig::quick(), "quick theta");
    }

    #[test]
    fn incremental_windows_equal_the_full_sweep_on_canonic_palm_tree() {
        let mut cfg = TopologyConfig::canonical(2, 8, 4, 17);
        cfg.arrangement = GlobalArrangement::PalmTree;
        check_oracle(cfg, "canonic 2,8,4,17 palm-tree");
    }

    #[test]
    fn incremental_windows_equal_the_full_sweep_with_fine_catchup_windows() {
        // 1 µs windows: most windows are back-filled by the event that
        // crosses them, many by events that open a saturation interval.
        let topo = Arc::new(Topology::build(TopologyConfig::small_test()));
        let mut n = Network::new(topo, oracle_params(), Routing::Minimal, 3);
        n.set_obs_interval(Ns(1_000));
        for (i, &(at, s, d, b)) in oracle_traffic(64).iter().enumerate() {
            n.send(at, s, d, b, i as u64);
        }
        n.run_to_idle();
        let got = n.obs_report().expect("obs on");
        let want = n.obs_oracle_report().expect("obs on");
        assert_same_report(&got, &want, "small 1 µs windows");
        assert!(got.series.samples().len() > 2_000);
    }
}
