//! Config grids and parameter sweeps, parallelized across simulations.
//!
//! Individual simulations are strictly sequential (determinism); campaigns
//! — ten placement x routing combinations, message-scale sweeps — are
//! embarrassingly parallel, so the sweep runner fans simulations out over
//! scoped threads with a shared work queue.
//!
//! The immutable topology is built **once per distinct
//! [`TopologyConfig`]** and shared across every cell and worker thread as
//! an `Arc` — a grid over the Theta machine constructs its 864 routers
//! and thousands of channels one time, not once per cell. Nothing else
//! carries over between cells: each one runs [`execute_experiment`] on a
//! freshly built network.

use crate::config::ExperimentConfig;
use crate::report::ConfigLabel;
use crate::runner::{execute_experiment, prepare_topology, ExperimentResult};
use dfly_topology::Topology;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One grid cell's outcome.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// Which placement x routing combination.
    pub label: ConfigLabel,
    /// The experiment result.
    pub result: ExperimentResult,
}

/// Run `base` under every given placement x routing combination.
/// Results come back in the order of `labels`.
pub fn run_config_grid(base: &ExperimentConfig, labels: &[ConfigLabel]) -> Vec<GridResult> {
    let configs: Vec<ExperimentConfig> = labels
        .iter()
        .map(|l| {
            let mut cfg = base.clone();
            cfg.placement = l.placement;
            cfg.routing = l.routing;
            cfg
        })
        .collect();
    let results = run_many(&configs);
    labels
        .iter()
        .zip(results)
        .map(|(&label, result)| GridResult { label, result })
        .collect()
}

/// Run `base` at each message scale (same placement/routing), in order.
pub fn run_scale_sweep(base: &ExperimentConfig, scales: &[f64]) -> Vec<ExperimentResult> {
    let configs: Vec<ExperimentConfig> = scales
        .iter()
        .map(|&s| {
            let mut cfg = base.clone();
            cfg.msg_scale = s;
            cfg
        })
        .collect();
    run_many(&configs)
}

/// Run a batch of independent experiments, using up to
/// `available_parallelism` worker threads. Result order matches input.
///
/// Each distinct topology in the batch is built exactly once
/// ([`prepare_topology`]) and shared across all cells and workers; a
/// typical grid varies only placement/routing/scale, so the whole batch
/// shares a single `Arc<Topology>`.
pub fn run_many(configs: &[ExperimentConfig]) -> Vec<ExperimentResult> {
    // Dedupe topologies by config equality (TopologyConfig is not Hash;
    // batches hold a handful of distinct topologies at most).
    let mut unique: Vec<Arc<Topology>> = Vec::new();
    let topos: Vec<Arc<Topology>> = configs
        .iter()
        .map(
            |cfg| match unique.iter().find(|t| t.config() == &cfg.topology) {
                Some(t) => t.clone(),
                None => {
                    let t = prepare_topology(cfg);
                    unique.push(t.clone());
                    t
                }
            },
        )
        .collect();
    let workers = sweep_workers(configs.len());
    if workers <= 1 || configs.len() <= 1 {
        return configs
            .iter()
            .zip(&topos)
            .map(|(cfg, topo)| execute_experiment(cfg, topo.clone()))
            .collect();
    }
    // Lock-free work claiming: a panicking worker must not poison shared
    // state, or the caller sees a misleading "lock poisoned" panic instead
    // of the original failure.
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<ExperimentResult>>> =
        configs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= configs.len() {
                        break;
                    }
                    let r = execute_experiment(&configs[i], topos[i].clone());
                    *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
                })
            })
            .collect();
        // Join explicitly and re-throw the *first worker's own payload*:
        // scope's automatic join would replace it with a generic
        // "a scoped thread panicked" message.
        let mut first_panic = None;
        for h in handles {
            if let Err(payload) = h.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("worker filled every slot")
        })
        .collect()
}

/// Number of sweep worker threads: the `DFLY_SWEEP_WORKERS` environment
/// variable when set to a positive integer, otherwise the machine's
/// available parallelism; always capped by the batch size.
fn sweep_workers(batch: usize) -> usize {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    std::env::var("DFLY_SWEEP_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
        .min(batch.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoutingPolicy;
    use crate::runner::run_experiment;
    use dfly_placement::PlacementPolicy;

    fn base() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::small_test();
        cfg.msg_scale = 0.05;
        cfg
    }

    #[test]
    fn grid_runs_all_labels_in_order() {
        let labels = ConfigLabel::all_ten();
        let grid = run_config_grid(&base(), &labels);
        assert_eq!(grid.len(), 10);
        for (g, l) in grid.iter().zip(&labels) {
            assert_eq!(&g.label, l);
            assert_eq!(g.result.config.placement, l.placement);
            assert_eq!(g.result.config.routing, l.routing);
            assert!(g.result.job_end > dfly_engine::Ns::ZERO);
        }
    }

    #[test]
    fn scale_sweep_increases_work() {
        let results = run_scale_sweep(&base(), &[0.05, 1.0]);
        assert_eq!(results.len(), 2);
        assert!(
            results[1].max_comm_time() > results[0].max_comm_time(),
            "larger messages must take longer"
        );
    }

    #[test]
    fn run_many_matches_sequential() {
        let mut a = base();
        a.placement = PlacementPolicy::RandomNode;
        let mut b = base();
        b.routing = RoutingPolicy::Adaptive;
        let batch = run_many(&[a.clone(), b.clone()]);
        let seq = [run_experiment(&a), run_experiment(&b)];
        assert_eq!(batch[0].rank_comm_times, seq[0].rank_comm_times);
        assert_eq!(batch[1].rank_comm_times, seq[1].rank_comm_times);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(run_many(&[]).is_empty());
    }

    #[test]
    fn worker_panic_propagates_original_payload() {
        // A config that passes topology dedupe (same topology as a valid
        // sibling, so `prepare_topology` never validates it on the main
        // thread) but fails `validate()` inside the worker: background
        // fanout larger than the free-node budget.
        let good = base();
        let mut bad = base();
        bad.background = Some(crate::config::BackgroundConfig {
            spec: dfly_workloads::BackgroundSpec::bursty(
                32 * 1024,
                dfly_engine::Ns::from_us(60),
                10_000, // far beyond the 64-node machine's free budget
                0,
            ),
        });
        let configs = [good, bad];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_many(&configs)))
            .expect_err("invalid cell must fail the batch");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload must be a string");
        // The original failure, not a poisoned-mutex artifact.
        assert!(
            msg.contains("invalid experiment config"),
            "wrong payload: {msg}"
        );
        assert!(!msg.contains("poisoned"), "poison leaked through: {msg}");
    }
}
