//! The host-speed probe runs inside every worker, next to the measured
//! run, so it must hand back all the memory it used: the worker's peak
//! RSS belongs to the workload.

#[test]
fn the_probe_returns_its_memory() {
    let before = simbench::host::rss_mb();
    let ns = simbench::probe::run();
    let after = simbench::host::rss_mb();
    assert!(ns > 0, "the probe took {ns} ns");
    assert!(
        after - before < 1.0,
        "resident memory grew from {before} MB to {after} MB"
    );
}
