//! Memory-bound regression: the metric structures must stop growing once
//! they hit their caps, no matter how long the run gets.
//!
//! Drives a `Network` directly on the 64-node test machine with
//! telemetry on (500 ns sample windows) and a traffic timeline at 256 ns
//! bins, long enough that both structures hit their caps: the sample
//! series its `SampleSeries::MAX_SAMPLES` limit (later windows are
//! counted as dropped) and the timeline its bin cap (the bin width then
//! doubles). A run ten times longer must leave the metric footprint
//! exactly where it was while the event count grows ~10x. The contrast
//! case runs below both caps, where every window and the finest bins are
//! kept, and the footprint must grow with the run.

use dragonfly_tradeoff::engine::Ns;
use dragonfly_tradeoff::network::{Network, NetworkParams, Routing};
use dragonfly_tradeoff::topology::{NodeId, Topology, TopologyConfig};
use std::sync::Arc;

/// Timeline bin width: the short run's 8,192 rounds at 5 µs span 41 ms,
/// ~160k bins, past the 64 Ki bin cap.
const BIN: Ns = Ns(256);

/// One 4 KiB message every 5 µs for `rounds` rounds; returns the events
/// processed, the metric bytes, the timeline's final bin width and the
/// sample windows dropped past the series cap.
fn run_rounds(rounds: u64) -> (u64, usize, Ns, u64) {
    let topo = Arc::new(Topology::build(TopologyConfig::small_test()));
    let params = NetworkParams {
        audit: false,
        ..NetworkParams::default()
    };
    let mut net = Network::new(topo, params, Routing::Adaptive, 7);
    net.set_obs_interval(Ns(500));
    net.enable_traffic_timeline(BIN);
    for i in 0..rounds {
        net.send(
            Ns(i * 5_000),
            NodeId((i % 8) as u32),
            NodeId(32 + (i % 8) as u32),
            4096,
            i,
        );
    }
    net.run_to_idle();
    let report = net.obs_report().expect("obs on");
    let width = net.traffic_timeline().expect("enabled").bin_width();
    (
        net.events_processed(),
        net.metric_bytes_approx(),
        width,
        report.series.dropped(),
    )
}

#[test]
fn streaming_footprint_constant_while_events_grow_10x() {
    let (events_1x, bytes_1x, width_1x, dropped_1x) = run_rounds(8_192);
    let (events_10x, bytes_10x, width_10x, _) = run_rounds(81_920);
    // Both structures are already at their caps on the short run.
    assert!(dropped_1x > 0, "the sample series never reached its cap");
    assert!(width_1x > BIN, "the timeline never reached its bin cap");
    assert!(width_10x > width_1x);
    assert!(
        events_10x >= 8 * events_1x,
        "long run only grew events {events_1x} -> {events_10x}"
    );
    assert_eq!(
        bytes_1x, bytes_10x,
        "metric footprint moved: {bytes_1x} -> {bytes_10x} bytes \
         over a ~10x event-count increase"
    );
}

#[test]
fn dense_footprint_grows_with_run_length() {
    // The contrast case: below their caps the structures are dense (a
    // sample per window, bins at the starting width) and scale with run
    // duration. 3,000 rounds span 15 ms: 30k sample windows and ~59k
    // timeline bins, both inside the 64 Ki caps. If this ever stops
    // holding, the constant-footprint test above is probably testing
    // nothing.
    let (_, bytes_1x, width_1x, dropped_1x) = run_rounds(300);
    let (_, bytes_10x, width_10x, dropped_10x) = run_rounds(3_000);
    assert_eq!((dropped_1x, dropped_10x), (0, 0), "a series hit its cap");
    assert_eq!((width_1x, width_10x), (BIN, BIN), "a timeline coarsened");
    assert!(
        bytes_10x > 4 * bytes_1x,
        "metrics below the caps no longer grow with the run \
         ({bytes_1x} -> {bytes_10x} bytes); update the memory-bound test"
    );
}
