//! Event-loop profiling: what the simulator spends its wall-clock on.
//!
//! The event loop dispatches four kinds of events; knowing their counts,
//! their wall-clock shares, and how deep the event queue gets is the
//! first question of every performance investigation ("is this run
//! arbitration-bound or arrival-bound?"). The profile is fed by the
//! network's `step()` when telemetry is on.
//!
//! Timing is **stride-sampled**: every event is counted (so counts stay
//! exact and cross-check against the engine's event total), but only
//! every Nth event per kind has its handler wall-clock measured. Wall
//! totals and shares are therefore *estimates* — per-kind mean of the
//! timed subset extrapolated over the full count — which converge on the
//! exhaustive numbers while costing O(1/N) timestamp reads. At stride 1
//! the estimates reduce exactly to exhaustive timing.

/// The event types of the packet engine's loop, as a dense index.
///
/// Mirrors `dfly-network`'s internal `NetEvent` discriminants; kept here
/// so the profile can be rendered without depending on the network crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A message's packets entered the source NIC queue.
    Inject,
    /// A channel finished serializing a packet.
    TxDone,
    /// A packet landed at its next buffer (or its destination).
    Arrive,
    /// A caller-requested wakeup fired.
    Wakeup,
}

impl EventKind {
    /// All kinds, in dense-index order.
    pub const ALL: [EventKind; 4] = [
        EventKind::Inject,
        EventKind::TxDone,
        EventKind::Arrive,
        EventKind::Wakeup,
    ];

    /// Dense index of this kind.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            EventKind::Inject => 0,
            EventKind::TxDone => 1,
            EventKind::Arrive => 2,
            EventKind::Wakeup => 3,
        }
    }

    /// Stable label for CSV and reports.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Inject => "inject",
            EventKind::TxDone => "tx_done",
            EventKind::Arrive => "arrive",
            EventKind::Wakeup => "wakeup",
        }
    }
}

/// Wall-clock profile of an event loop: exact per-kind counts, a timed
/// subsample of handler costs, queue depth high-water mark, and derived
/// throughput estimates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLoopProfile {
    /// Events handled, by [`EventKind::index`] — exact, every event.
    pub counts: [u64; 4],
    /// How many of each kind had their handler wall-clock measured.
    pub timed: [u64; 4],
    /// Wall-clock nanoseconds accumulated over the *timed* subset only.
    pub wall_ns: [u64; 4],
    /// Deepest the event queue ever got (pending events). In a network
    /// run each packet on a wire holds its own `Arrive` entry, so this
    /// counts one entry per in-flight packet besides one `TxDone` per busy
    /// channel and the pending injections and wakeups.
    pub queue_high_water: usize,
    /// Wall-clock nanoseconds over all timed events, all kinds.
    pub total_wall_ns: u64,
}

impl EventLoopProfile {
    /// Fresh, empty profile.
    pub fn new() -> EventLoopProfile {
        EventLoopProfile::default()
    }

    /// Record one handled event whose handler wall-clock was measured.
    #[inline]
    pub fn record_timed(&mut self, kind: EventKind, elapsed_ns: u64, queue_depth: usize) {
        let i = kind.index();
        self.counts[i] += 1;
        self.timed[i] += 1;
        self.wall_ns[i] += elapsed_ns;
        self.total_wall_ns += elapsed_ns;
        if queue_depth > self.queue_high_water {
            self.queue_high_water = queue_depth;
        }
    }

    /// Record one handled event that was counted but not timed (the
    /// stride skipped it).
    #[inline]
    pub fn record_counted(&mut self, kind: EventKind, queue_depth: usize) {
        self.counts[kind.index()] += 1;
        if queue_depth > self.queue_high_water {
            self.queue_high_water = queue_depth;
        }
    }

    /// Total events handled (timed or not).
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total events whose handler cost was measured.
    pub fn timed_events(&self) -> u64 {
        self.timed.iter().sum()
    }

    /// Mean measured handler cost of one kind, in nanoseconds (0 if none
    /// of that kind were timed).
    pub fn mean_ns(&self, kind: EventKind) -> f64 {
        let i = kind.index();
        if self.timed[i] == 0 {
            return 0.0;
        }
        self.wall_ns[i] as f64 / self.timed[i] as f64
    }

    /// Estimated wall-clock spent in one kind's handlers over the whole
    /// run: timed mean extrapolated over the exact count. Equals the
    /// measured total exactly when every event was timed (stride 1).
    pub fn estimated_wall_ns(&self, kind: EventKind) -> u64 {
        (self.mean_ns(kind) * self.counts[kind.index()] as f64).round() as u64
    }

    /// Estimated wall-clock over all kinds (see
    /// [`EventLoopProfile::estimated_wall_ns`]).
    pub fn estimated_total_wall_ns(&self) -> u64 {
        EventKind::ALL
            .iter()
            .map(|&k| self.estimated_wall_ns(k))
            .sum()
    }

    /// Events handled per estimated wall-clock second (0 if nothing was
    /// timed).
    pub fn events_per_sec(&self) -> f64 {
        let est = self.estimated_total_wall_ns();
        if est == 0 {
            return 0.0;
        }
        self.total_events() as f64 / (est as f64 / 1e9)
    }

    /// Estimated wall-clock share of one event kind, as a fraction of the
    /// estimated total (0 if nothing was timed).
    pub fn wall_share(&self, kind: EventKind) -> f64 {
        let est = self.estimated_total_wall_ns();
        if est == 0 {
            return 0.0;
        }
        self.estimated_wall_ns(kind) as f64 / est as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_index_densely_and_label() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(!k.label().is_empty());
        }
    }

    #[test]
    fn record_accumulates_counts_and_high_water() {
        let mut p = EventLoopProfile::new();
        p.record_timed(EventKind::Inject, 5, 3);
        p.record_counted(EventKind::Arrive, 10);
        p.record_timed(EventKind::Arrive, 7, 7);
        assert_eq!(p.counts[EventKind::Inject.index()], 1);
        assert_eq!(p.counts[EventKind::Arrive.index()], 2);
        assert_eq!(p.timed[EventKind::Arrive.index()], 1);
        assert_eq!(p.total_events(), 3);
        assert_eq!(p.timed_events(), 2);
        assert_eq!(p.queue_high_water, 10);
    }

    #[test]
    fn empty_profile_rates_are_zero() {
        let p = EventLoopProfile::new();
        assert_eq!(p.events_per_sec(), 0.0);
        assert_eq!(p.wall_share(EventKind::TxDone), 0.0);
        assert_eq!(p.mean_ns(EventKind::Inject), 0.0);
    }

    #[test]
    fn counted_only_events_produce_no_wall_estimate() {
        // Counts without any timed events must not fabricate wall time.
        let mut p = EventLoopProfile::new();
        for _ in 0..100 {
            p.record_counted(EventKind::TxDone, 1);
        }
        assert_eq!(p.total_events(), 100);
        assert_eq!(p.estimated_total_wall_ns(), 0);
        assert_eq!(p.events_per_sec(), 0.0);
    }

    #[test]
    fn wall_shares_sum_to_one_when_nonzero() {
        let mut p = EventLoopProfile::new();
        p.counts = [1, 1, 1, 1];
        p.timed = [1, 1, 1, 1];
        p.wall_ns = [10, 20, 30, 40];
        p.total_wall_ns = 100;
        let sum: f64 = EventKind::ALL.iter().map(|&k| p.wall_share(k)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(p.events_per_sec() > 0.0);
    }

    #[test]
    fn stride_one_estimates_equal_exhaustive_totals() {
        let mut p = EventLoopProfile::new();
        for i in 0..50u64 {
            p.record_timed(EventKind::Arrive, 100 + i, 1);
        }
        assert_eq!(p.estimated_wall_ns(EventKind::Arrive), p.wall_ns[2]);
        assert_eq!(p.estimated_total_wall_ns(), p.total_wall_ns);
    }

    /// Satellite check: stride-sampled means must agree with exhaustive
    /// timing within tolerance on a deterministic synthetic cost model
    /// (handler costs drawn from a fixed LCG, timing every Nth event —
    /// exactly what `ObsCollector` does with real wall-clock reads).
    #[test]
    fn sampled_means_track_exhaustive_means_within_tolerance() {
        const STRIDE: u64 = 64;
        const EVENTS: u64 = 200_000;
        let mut exhaustive = EventLoopProfile::new();
        let mut sampled = EventLoopProfile::new();
        let mut lcg = 0x5EEDu64;
        for i in 0..EVENTS {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let kind = EventKind::ALL[(lcg >> 33) as usize % 4];
            // Per-kind base cost + bounded noise, like real handlers.
            let cost = 50 * (kind.index() as u64 + 1) + (lcg >> 40) % 32;
            exhaustive.record_timed(kind, cost, 1);
            if i % STRIDE == 0 {
                sampled.record_timed(kind, cost, 1);
            } else {
                sampled.record_counted(kind, 1);
            }
        }
        assert_eq!(sampled.total_events(), exhaustive.total_events());
        assert!(sampled.timed_events() <= EVENTS / STRIDE + 1);
        for kind in EventKind::ALL {
            let full = exhaustive.mean_ns(kind);
            let est = sampled.mean_ns(kind);
            let rel = (est - full).abs() / full;
            assert!(
                rel < 0.05,
                "{}: sampled mean {est:.1} vs exhaustive {full:.1} ({:.1}% off)",
                kind.label(),
                100.0 * rel
            );
            // Extrapolated totals agree to the same tolerance.
            let full_total = exhaustive.wall_ns[kind.index()] as f64;
            let est_total = sampled.estimated_wall_ns(kind) as f64;
            assert!((est_total - full_total).abs() / full_total < 0.05);
        }
    }
}
