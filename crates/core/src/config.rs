//! Experiment configuration.

use dfly_engine::kv::{kv, nest, ToKv};
use dfly_engine::Xoshiro256;
use dfly_network::NetworkParams;
use dfly_placement::{PlacementPolicy, TaskMapping};
use dfly_topology::TopologyConfig;
use dfly_workloads::{check_msg_scale, AppKind, BackgroundSpec, WorkloadSpec};

/// Routing mechanism — re-exported network type under the study's name.
pub type RoutingPolicy = dfly_network::Routing;

/// The independent random streams a run derives from its master seed, so
/// that e.g. changing the routing policy never perturbs the placement.
/// Every runner draws them here, in one order: `split(1)` placement,
/// `split(2)` workload jitter, `split(3)` routing, `split(4)` background
/// destinations (`split` advances the master, so the order is part of the
/// seeding contract).
#[derive(Debug, Clone)]
pub struct SeedStreams {
    /// Placement (and rank-arrangement) draws.
    pub placement: Xoshiro256,
    /// Workload-jitter seed; job `i` of a multi-job run uses
    /// `workload ^ (i << 32)`.
    pub workload: u64,
    /// Routing-decision seed of the network.
    pub routing: u64,
    /// Background-destination seed.
    pub background: u64,
}

impl SeedStreams {
    /// Derive the streams of master seed `seed`.
    pub fn new(seed: u64) -> SeedStreams {
        let mut master = Xoshiro256::seed_from(seed);
        SeedStreams {
            placement: master.split(1),
            workload: master.split(2).next_u64(),
            routing: master.split(3).next_u64(),
            background: master.split(4).next_u64(),
        }
    }
}

/// The application under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppSelection {
    /// Crystal Router miniapp.
    CrystalRouter {
        /// MPI ranks (paper: 1000).
        ranks: u32,
    },
    /// Fill Boundary miniapp.
    FillBoundary {
        /// MPI ranks (paper: 1000).
        ranks: u32,
    },
    /// Algebraic MultiGrid solver.
    Amg {
        /// MPI ranks (paper: 1728).
        ranks: u32,
    },
}

impl AppSelection {
    /// The app of `kind` at `ranks` ranks.
    pub fn new(kind: AppKind, ranks: u32) -> AppSelection {
        match kind {
            AppKind::CrystalRouter => AppSelection::CrystalRouter { ranks },
            AppKind::FillBoundary => AppSelection::FillBoundary { ranks },
            AppKind::Amg => AppSelection::Amg { ranks },
        }
    }

    /// The app at the paper's rank count.
    pub fn paper(kind: AppKind) -> AppSelection {
        let ranks = match kind {
            AppKind::CrystalRouter | AppKind::FillBoundary => 1000,
            AppKind::Amg => 1728,
        };
        AppSelection::new(kind, ranks)
    }

    /// The underlying workload kind.
    pub fn kind(&self) -> AppKind {
        match self {
            AppSelection::CrystalRouter { .. } => AppKind::CrystalRouter,
            AppSelection::FillBoundary { .. } => AppKind::FillBoundary,
            AppSelection::Amg { .. } => AppKind::Amg,
        }
    }

    /// Rank count.
    pub fn ranks(&self) -> u32 {
        match *self {
            AppSelection::CrystalRouter { ranks }
            | AppSelection::FillBoundary { ranks }
            | AppSelection::Amg { ranks } => ranks,
        }
    }

    /// Workload spec at a message scale.
    pub fn spec(&self, msg_scale: f64, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            kind: self.kind(),
            ranks: self.ranks(),
            msg_scale,
            seed,
        }
    }
}

/// How a single experiment executes.
///
/// [`Parallelism::Serial`] (the default) is the legacy single-thread event
/// loop and stays byte-identical run to run — the golden-figure contract.
/// [`Parallelism::IntraRun`] shards the network per dragonfly group under
/// conservative time-window PDES on the given number of worker threads;
/// its results are byte-identical *across worker counts* (the partition is
/// per group, not per worker) but are a distinct deterministic schedule
/// from the serial loop (cross-group credit becomes landing queues).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-thread event loop (the golden-run reference path).
    #[default]
    Serial,
    /// Per-group PDES sharding on `n >= 1` worker threads. `IntraRun(1)`
    /// exercises the sharded engine single-threaded — same bytes as any
    /// other count, useful for debugging.
    IntraRun(u32),
}

impl Parallelism {
    /// Stable label for CSV/report output.
    pub fn label(&self) -> String {
        match self {
            Parallelism::Serial => "serial".into(),
            Parallelism::IntraRun(n) => format!("intra-run:{n}"),
        }
    }

    /// Worker threads of the sharded engine on `topology`, or `None` for
    /// the serial loop. A single-group machine has no cross-group cut to
    /// shard on, so it runs serial whatever the setting.
    pub fn workers(&self, topology: &TopologyConfig) -> Option<usize> {
        match *self {
            Parallelism::IntraRun(n) if topology.groups >= 2 => Some(n as usize),
            _ => None,
        }
    }
}

/// Background (external interference) traffic configuration. The synthetic
/// job always occupies **all** nodes not assigned to the target app, as in
/// the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackgroundConfig {
    /// Traffic pattern and load.
    pub spec: BackgroundSpec,
}

/// A complete experiment: one application run (optionally with background
/// traffic) on one machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Machine shape and link parameters.
    pub topology: TopologyConfig,
    /// Packet / buffer / adaptive-bias parameters.
    pub network: NetworkParams,
    /// The application under test.
    pub app: AppSelection,
    /// Job placement policy.
    pub placement: PlacementPolicy,
    /// Rank-to-node arrangement within the allocation (the paper's
    /// future-work axis; `Linear` reproduces the paper).
    pub mapping: TaskMapping,
    /// Routing mechanism.
    pub routing: RoutingPolicy,
    /// Message-size multiplier (Figure 7's x-axis; 1.0 = original).
    pub msg_scale: f64,
    /// Optional background traffic (Figures 8–10).
    pub background: Option<BackgroundConfig>,
    /// Master seed; placement, routing, workload jitter, and background
    /// destinations each derive an independent stream from it.
    pub seed: u64,
    /// Execution mode of the single run (does not affect sweep-level
    /// worker fan-out, which is a separate axis).
    pub parallelism: Parallelism,
}

impl ExperimentConfig {
    /// The paper's configuration: Theta topology, paper-size app, original
    /// message loads.
    pub fn theta(app: AppKind) -> ExperimentConfig {
        ExperimentConfig {
            topology: TopologyConfig::theta(),
            network: NetworkParams::default(),
            app: AppSelection::paper(app),
            placement: PlacementPolicy::Contiguous,
            mapping: TaskMapping::Linear,
            routing: RoutingPolicy::Minimal,
            msg_scale: 1.0,
            background: None,
            seed: 0x5EED,
            parallelism: Parallelism::Serial,
        }
    }

    /// A miniature configuration for tests and doctests: the small 64-node
    /// machine with a 16-rank app.
    pub fn small_test() -> ExperimentConfig {
        ExperimentConfig {
            topology: TopologyConfig::small_test(),
            network: NetworkParams::default(),
            app: AppSelection::CrystalRouter { ranks: 16 },
            placement: PlacementPolicy::Contiguous,
            mapping: TaskMapping::Linear,
            routing: RoutingPolicy::Minimal,
            msg_scale: 1.0,
            background: None,
            seed: 0x5EED,
            parallelism: Parallelism::Serial,
        }
    }

    /// The `--quick` reproduction configuration: the 768-node machine with
    /// the app scaled to ~1/4.5 of its paper rank count, preserving the
    /// app-size : machine-size ratio of the paper.
    pub fn quick(app: AppKind) -> ExperimentConfig {
        let ranks = match app {
            AppKind::CrystalRouter | AppKind::FillBoundary => 216, // 6x6x6
            AppKind::Amg => 343,                                   // 7x7x7
        };
        ExperimentConfig {
            topology: TopologyConfig::quick(),
            app: AppSelection::new(app, ranks),
            ..ExperimentConfig::theta(AppKind::CrystalRouter)
        }
    }

    /// Validate the whole configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.topology.validate()?;
        self.network.validate()?;
        check_msg_scale(self.msg_scale)?;
        if self.parallelism == Parallelism::IntraRun(0) {
            return Err("intra-run parallelism needs at least one worker".into());
        }
        let nodes = self.topology.total_nodes();
        if self.app.ranks() > nodes {
            return Err(format!(
                "app needs {} ranks but the machine has {} nodes",
                self.app.ranks(),
                nodes
            ));
        }
        if let Some(bg) = &self.background {
            bg.spec.validate()?;
            let free = nodes - self.app.ranks();
            if free < 2 {
                return Err("background job needs at least 2 free nodes".into());
            }
            if bg.spec.fanout >= free {
                return Err(format!(
                    "background fanout {} needs that many distinct peers but only {} \
                     nodes are free for the background job",
                    bg.spec.fanout, free
                ));
            }
        }
        Ok(())
    }
}

impl ToKv for ExperimentConfig {
    fn to_kv(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        kv(&mut out, "app", self.app.kind().label());
        kv(&mut out, "ranks", self.app.ranks());
        kv(&mut out, "placement", self.placement.label());
        kv(&mut out, "mapping", self.mapping.label());
        kv(&mut out, "routing", self.routing.label());
        kv(&mut out, "msg_scale", self.msg_scale);
        kv(&mut out, "seed", format_args!("{:#x}", self.seed));
        // Emitted only when non-default so serial echoes (and the golden
        // CSVs embedding them) keep their exact bytes.
        if self.parallelism != Parallelism::Serial {
            kv(&mut out, "parallelism", self.parallelism.label());
        }
        match &self.background {
            None => kv(&mut out, "background", "none"),
            Some(bg) => {
                kv(&mut out, "background", bg.spec.kind.label());
                kv(&mut out, "background.message_bytes", bg.spec.message_bytes);
                kv(&mut out, "background.interval", bg.spec.interval);
                kv(&mut out, "background.fanout", bg.spec.fanout);
                kv(
                    &mut out,
                    "background.seed",
                    format_args!("{:#x}", bg.spec.seed),
                );
            }
        }
        nest(&mut out, "topology", &self.topology);
        nest(&mut out, "network", &self.network);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_app_sizes() {
        assert_eq!(AppSelection::paper(AppKind::CrystalRouter).ranks(), 1000);
        assert_eq!(AppSelection::paper(AppKind::FillBoundary).ranks(), 1000);
        assert_eq!(AppSelection::paper(AppKind::Amg).ranks(), 1728);
    }

    #[test]
    fn selection_kind_roundtrip() {
        for kind in [AppKind::CrystalRouter, AppKind::FillBoundary, AppKind::Amg] {
            assert_eq!(AppSelection::paper(kind).kind(), kind);
        }
    }

    #[test]
    fn spec_carries_scale_and_seed() {
        let s = AppSelection::Amg { ranks: 100 }.spec(2.5, 42);
        assert_eq!(s.kind, AppKind::Amg);
        assert_eq!(s.ranks, 100);
        assert_eq!(s.msg_scale, 2.5);
        assert_eq!(s.seed, 42);
    }

    #[test]
    fn theta_and_small_and_quick_validate() {
        for kind in [AppKind::CrystalRouter, AppKind::FillBoundary, AppKind::Amg] {
            ExperimentConfig::theta(kind).validate().unwrap();
            ExperimentConfig::quick(kind).validate().unwrap();
        }
        ExperimentConfig::small_test().validate().unwrap();
    }

    #[test]
    fn validate_catches_oversized_app() {
        let mut cfg = ExperimentConfig::small_test();
        cfg.app = AppSelection::CrystalRouter { ranks: 100 };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_intra_run_workers() {
        let mut cfg = ExperimentConfig::small_test();
        cfg.parallelism = Parallelism::IntraRun(0);
        assert!(cfg.validate().unwrap_err().contains("at least one worker"));
        cfg.parallelism = Parallelism::IntraRun(1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn parallelism_key_only_echoed_when_non_default() {
        let mut cfg = ExperimentConfig::small_test();
        assert!(!cfg.kv_echo().contains("parallelism"));
        cfg.parallelism = Parallelism::IntraRun(4);
        assert!(cfg.kv_echo().contains("parallelism = intra-run:4"));
    }

    #[test]
    fn validate_catches_bad_scale() {
        for bad in [0.0, f64::INFINITY, f64::NAN, f64::NEG_INFINITY] {
            let mut cfg = ExperimentConfig::small_test();
            cfg.msg_scale = bad;
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("msg_scale"), "{bad}: {err}");
        }
    }

    #[test]
    fn config_echo_is_deterministic_and_distinguishes_configs() {
        let a = ExperimentConfig::small_test();
        assert_eq!(a.kv_echo(), ExperimentConfig::small_test().kv_echo());
        let mut b = a.clone();
        b.placement = PlacementPolicy::RandomNode;
        assert_ne!(a.kv_echo(), b.kv_echo());
        // Nested topology/network keys are prefixed and present.
        let keys: Vec<String> = a.to_kv().into_iter().map(|(k, _)| k).collect();
        assert!(keys.contains(&"topology.groups".to_string()));
        assert!(keys.contains(&"network.packet_size".to_string()));
        assert!(keys.contains(&"placement".to_string()));
    }

    #[test]
    fn config_echo_includes_background_when_set() {
        use dfly_engine::Ns;
        let mut cfg = ExperimentConfig::small_test();
        cfg.app = AppSelection::CrystalRouter { ranks: 32 };
        cfg.background = Some(BackgroundConfig {
            spec: BackgroundSpec::uniform(1024, Ns::from_us(10), 1),
        });
        let echo = cfg.kv_echo();
        assert!(echo.contains("background = uniform-random"));
        assert!(echo.contains("background.message_bytes = 1024"));
    }

    #[test]
    fn validate_background_node_budget() {
        use dfly_engine::Ns;
        let mut cfg = ExperimentConfig::small_test();
        cfg.app = AppSelection::CrystalRouter { ranks: 63 };
        cfg.background = Some(BackgroundConfig {
            spec: BackgroundSpec::uniform(1024, Ns::from_us(10), 1),
        });
        assert!(cfg.validate().is_err());
        cfg.app = AppSelection::CrystalRouter { ranks: 32 };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_background_fanout_budget() {
        use dfly_engine::Ns;
        let mut cfg = ExperimentConfig::small_test();
        cfg.app = AppSelection::CrystalRouter { ranks: 60 };
        // 4 free nodes: a burst to 4 distinct peers is impossible.
        cfg.background = Some(BackgroundConfig {
            spec: BackgroundSpec::bursty(1024, Ns::from_us(10), 4, 0),
        });
        assert!(cfg.validate().unwrap_err().contains("fanout"));
        cfg.background = Some(BackgroundConfig {
            spec: BackgroundSpec::bursty(1024, Ns::from_us(10), 3, 0),
        });
        assert!(cfg.validate().is_ok());
    }
}
