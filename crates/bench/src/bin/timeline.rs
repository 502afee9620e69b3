//! Extension experiment: instantaneous network load over time — the
//! queued-bytes gauge sampled through the run, showing how bursty
//! background traffic floods the buffers while uniform-random traffic
//! keeps a steady floor (the mechanism behind Figures 9–10).

use dfly_bench::parse_args;
use dfly_core::config::RoutingPolicy;
use dfly_core::mpi::{BackgroundRunner, MultiDriver};
use dfly_engine::{Ns, Xoshiro256};
use dfly_network::{class_index, local_series, Network};
use dfly_placement::{NodePool, PlacementPolicy};
use dfly_stats::sparkline;
use dfly_topology::{ChannelClass, Topology};
use dfly_workloads::{generate, AppKind, BackgroundSpec, BackgroundTraffic};
use std::sync::Arc;

fn main() {
    let args = parse_args();
    println!("Network-load timeline — mode: {}", args.mode_label());
    let base = args.base_config(AppKind::CrystalRouter);
    let topo = Arc::new(Topology::build(base.topology.clone()));
    let trace = generate(&base.app.spec(1.0, 0x71E));

    let mut csv = args.csv(
        "timeline_load.csv",
        &["scenario", "t_us", "queued_bytes", "packets_in_flight"],
    );
    for (scenario, bg_spec) in [
        ("solo", None),
        (
            "uniform-bg",
            Some(BackgroundSpec::uniform(16 * 1024, Ns::from_us(12), 3)),
        ),
        (
            "bursty-bg",
            Some(BackgroundSpec::bursty(96 * 1024, Ns::from_us(180), 8, 3)),
        ),
    ] {
        let mut pool = NodePool::new(&topo);
        let mut rng = Xoshiro256::seed_from(0x11E);
        let placement = PlacementPolicy::RandomNode
            .allocate(&topo, &mut pool, trace.ranks(), &mut rng)
            .expect("fits");
        let background = bg_spec.map(|spec| {
            let nodes = pool.free_nodes();
            BackgroundRunner::new(BackgroundTraffic::new(spec, nodes.len() as u32), nodes)
        });
        let mut net = Network::new(topo.clone(), base.network, RoutingPolicy::Adaptive, 0x3E);
        net.enable_traffic_timeline(Ns::from_us(8));
        let (results, series) = MultiDriver::new(&mut net, &[(&trace, &placement)], background)
            .with_sampler(Ns::from_us(4))
            .run_with_series();
        for ((t, q), p) in series
            .times
            .iter()
            .zip(&series.queued_bytes)
            .zip(&series.packets_in_flight)
        {
            csv.row(&[
                scenario.to_string(),
                format!("{:.2}", t.as_us_f64()),
                q.to_string(),
                p.to_string(),
            ])
            .expect("csv");
        }
        println!(
            "\n{scenario:<11} CR end {:>10}  peak queued {:>6.1} MB  load: {}",
            results[0].job_end.to_string(),
            series.peak_queued() as f64 / 1e6,
            sparkline(&series.queued_f64()),
        );
        if let Some(tl) = net.traffic_timeline() {
            let to_f = |v: &[u64]| v.iter().map(|&b| b as f64).collect::<Vec<_>>();
            println!(
                "            local  traffic/8us: {}",
                sparkline(&to_f(&local_series(tl)))
            );
            println!(
                "            global traffic/8us: {}",
                sparkline(&to_f(tl.series(class_index(ChannelClass::Global))))
            );
        }
    }
    csv.finish().expect("csv");
    println!(
        "\nWrote {}",
        args.out_dir.join("timeline_load.csv").display()
    );
}
