//! Synthetic generators for the three representative applications.
//!
//! Each generator reproduces the communication *structure* the paper
//! documents (Figure 2 and Section III-A); message sizes carry a
//! `msg_scale` multiplier for the Figure 7 sensitivity study.

use crate::trace::{JobTrace, Phase, RankProgram, SendOp};
use dfly_engine::Xoshiro256;

/// Which miniapp to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Crystal Router (Nek5000 communication kernel).
    CrystalRouter,
    /// Fill Boundary (BoxLib ghost-cell exchange).
    FillBoundary,
    /// Algebraic MultiGrid solver (BoomerAMG-derived).
    Amg,
}

impl AppKind {
    /// Paper abbreviation.
    pub fn label(self) -> &'static str {
        match self {
            AppKind::CrystalRouter => "CR",
            AppKind::FillBoundary => "FB",
            AppKind::Amg => "AMG",
        }
    }

    /// The rank count the paper uses for this app.
    pub fn paper_ranks(self) -> u32 {
        match self {
            AppKind::CrystalRouter => 1000,
            AppKind::FillBoundary => 1000,
            AppKind::Amg => 1728,
        }
    }
}

/// Full workload specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// The application.
    pub kind: AppKind,
    /// Number of MPI ranks (one rank per node, as in the paper).
    pub ranks: u32,
    /// Message-size multiplier (1.0 = the paper's original loads).
    pub msg_scale: f64,
    /// Seed for size jitter and the scattered many-to-many components.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's configuration of an app at scale 1.0.
    pub fn paper(kind: AppKind) -> WorkloadSpec {
        WorkloadSpec {
            kind,
            ranks: kind.paper_ranks(),
            msg_scale: 1.0,
            seed: 0xD24A_60F1,
        }
    }
}

/// The one check every `msg_scale` field passes: finite and above zero.
/// (`inf` would turn every message into `u64::MAX` bytes; `NaN` compares
/// false against every bound.)
pub fn check_msg_scale(scale: f64) -> Result<(), String> {
    check_finite_positive("msg_scale", scale)
}

/// Finite and above zero, or an error naming `field`: the check behind
/// every scale and rate.
pub(crate) fn check_finite_positive(field: &str, value: f64) -> Result<(), String> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(format!("{field}: must be finite and > 0 (got {value})"))
    }
}

/// Generate the trace for a workload spec.
pub fn generate(spec: &WorkloadSpec) -> JobTrace {
    assert!(spec.ranks >= 2, "need at least 2 ranks");
    if let Err(e) = check_msg_scale(spec.msg_scale) {
        panic!("{e}");
    }
    let mut rng = Xoshiro256::seed_from(spec.seed);
    let trace = match spec.kind {
        AppKind::CrystalRouter => crystal_router(spec, &mut rng),
        AppKind::FillBoundary => fill_boundary(spec, &mut rng),
        AppKind::Amg => amg(spec, &mut rng),
    };
    debug_assert!(trace.validate().is_ok());
    trace
}

fn scaled(bytes: f64, scale: f64) -> u64 {
    (bytes * scale).max(1.0) as u64
}

/// Crystal Router: `ceil(log2(n))` stages of hypercube-style pairwise
/// many-to-many exchange at a near-constant ~190 KB per transfer, plus
/// neighborhood traffic (a substantial share of CR communication happens
/// between nearby ranks).
fn crystal_router(spec: &WorkloadSpec, rng: &mut Xoshiro256) -> JobTrace {
    let n = spec.ranks;
    let stages = (32 - (n - 1).leading_zeros()) as usize; // ceil(log2 n)
    let mut programs = vec![RankProgram::default(); n as usize];
    for r in 0..n {
        for d in 0..stages {
            let mut phase = Phase::default();
            // Hypercube partner where it exists; a shift-exchange partner
            // otherwise (non-power-of-two rank counts), so every stage
            // carries the same load — CR's load is "relatively constant".
            let xor_partner = r ^ (1 << d);
            let partner = if xor_partner < n {
                xor_partner
            } else {
                (r + (1 << d)) % n
            };
            if partner != r {
                // ~190 KB with +-5% jitter.
                let jitter = 1.0 + 0.05 * (rng.next_f64() * 2.0 - 1.0);
                let bytes = scaled(190.0 * 1024.0 * jitter, spec.msg_scale);
                phase.sends.push(SendOp {
                    peer: partner,
                    bytes,
                });
            }
            // Neighborhood component: smaller transfers to ranks +-1, +-2.
            for off in [1i64, -1, 2, -2] {
                let peer = (r as i64 + off).rem_euclid(n as i64) as u32;
                if peer != r {
                    let bytes = scaled(24.0 * 1024.0, spec.msg_scale);
                    phase.sends.push(SendOp { peer, bytes });
                }
            }
            programs[r as usize].phases.push(phase);
        }
    }
    JobTrace { programs }
}

/// Fill Boundary: 3-D block decomposition with periodic boundaries. Every
/// iteration each rank exchanges halos with its 6 grid neighbors at a
/// strongly fluctuating size (100 KB – 2560 KB), plus a scattered
/// many-to-many component across the rank set.
fn fill_boundary(spec: &WorkloadSpec, rng: &mut Xoshiro256) -> JobTrace {
    let n = spec.ranks;
    let dims = cube_dims(n);
    let iterations = 8;
    let mut programs = vec![RankProgram::default(); n as usize];
    for iter in 0..iterations {
        // The per-iteration base load fluctuates over a wide range; a
        // log-uniform draw spans the paper's 100 KB..2560 KB band. The
        // iteration's draw is shared by all ranks (the whole domain swaps
        // ghost cells of the same refinement level at once), with
        // per-message jitter on top.
        let ratio: f64 = 2560.0 / 100.0;
        let base = 100.0 * 1024.0 * ratio.powf(iter_fluct(iter, iterations, rng));
        for r in 0..n {
            let mut phase = Phase::default();
            // `base` is the rank's total halo load this iteration
            // (Figure 2(e)'s per-rank message load, 100 KB..2560 KB),
            // split across the six neighbors.
            for peer in neighbors_3d(r, dims) {
                let jitter = 0.8 + 0.4 * rng.next_f64();
                phase.sends.push(SendOp {
                    peer,
                    bytes: scaled(base / 6.0 * jitter, spec.msg_scale),
                });
            }
            // Scattered many-to-many: a few small messages to random ranks.
            for _ in 0..2 {
                let peer = rng.next_below(n as u64) as u32;
                if peer != r {
                    phase.sends.push(SendOp {
                        peer,
                        bytes: scaled(16.0 * 1024.0, spec.msg_scale),
                    });
                }
            }
            programs[r as usize].phases.push(phase);
        }
    }
    JobTrace { programs }
}

/// A deterministic but strongly fluctuating per-iteration level in [0, 1]:
/// alternates low/high with random modulation, giving the load swings in
/// the paper's Figure 2(e).
fn iter_fluct(iter: usize, total: usize, rng: &mut Xoshiro256) -> f64 {
    let saw = (iter % 3) as f64 / 2.0; // 0, .5, 1, 0, ...
    let noise = rng.next_f64() * 0.3;
    let _ = total;
    (0.7 * saw + noise).clamp(0.0, 1.0)
}

/// AMG: three solve cycles (the paper's three load surges), each a V-cycle
/// over multigrid levels. At level l every rank exchanges with up to six
/// 3-D grid neighbors (non-periodic: boundary ranks have fewer) at a size
/// that halves per level from the 75 KB peak.
fn amg(spec: &WorkloadSpec, rng: &mut Xoshiro256) -> JobTrace {
    let n = spec.ranks;
    let dims = cube_dims(n);
    let cycles = 3;
    let levels = 6;
    let mut programs = vec![RankProgram::default(); n as usize];
    for _cycle in 0..cycles {
        // Down-sweep then up-sweep: 75KB, 37.5KB, ..., then back up.
        let mut level_seq: Vec<u32> = (0..levels).collect();
        level_seq.extend((0..levels - 1).rev());
        for &level in &level_seq {
            for r in 0..n {
                let mut phase = Phase::default();
                // The 75 KB peak of Figure 2(f) is the rank's total load
                // at the finest level, split across the six neighbors and
                // halving per level.
                for peer in neighbors_3d_open(r, dims) {
                    let jitter = 0.9 + 0.2 * rng.next_f64();
                    let bytes = 75.0 * 1024.0 / 6.0 / (1u64 << level) as f64 * jitter;
                    phase.sends.push(SendOp {
                        peer,
                        bytes: scaled(bytes.max(256.0), spec.msg_scale),
                    });
                }
                programs[r as usize].phases.push(phase);
            }
        }
    }
    JobTrace { programs }
}

/// Factor `n` into the most cubic (x, y, z) grid with `x*y*z >= n`,
/// preferring exact factorizations (1000 -> 10x10x10, 1728 -> 12x12x12).
fn cube_dims(n: u32) -> (u32, u32, u32) {
    let c = (n as f64).cbrt().round() as u32;
    for x in (1..=c + 1).rev() {
        if n % x == 0 {
            let rest = n / x;
            let s = (rest as f64).sqrt().round() as u32;
            for y in (1..=s + 1).rev() {
                if rest % y == 0 {
                    let z = rest / y;
                    return (x, y.max(z), y.min(z));
                }
            }
        }
    }
    (n, 1, 1)
}

fn coords(r: u32, dims: (u32, u32, u32)) -> (u32, u32, u32) {
    let (x, y, _z) = dims;
    (r % x, (r / x) % y, r / (x * y))
}

fn index(c: (u32, u32, u32), dims: (u32, u32, u32)) -> u32 {
    c.0 + c.1 * dims.0 + c.2 * dims.0 * dims.1
}

/// The six 3-D neighbors with periodic (torus) boundaries — FB fills
/// *periodic* domain boundaries.
fn neighbors_3d(r: u32, dims: (u32, u32, u32)) -> Vec<u32> {
    let (x, y, z) = coords(r, dims);
    let (dx, dy, dz) = dims;
    let mut out = Vec::with_capacity(6);
    for (nx, ny, nz) in [
        ((x + 1) % dx, y, z),
        ((x + dx - 1) % dx, y, z),
        (x, (y + 1) % dy, z),
        (x, (y + dy - 1) % dy, z),
        (x, y, (z + 1) % dz),
        (x, y, (z + dz - 1) % dz),
    ] {
        let peer = index((nx, ny, nz), dims);
        if peer != r && !out.contains(&peer) {
            out.push(peer);
        }
    }
    out
}

/// The up-to-six 3-D neighbors *without* wraparound — AMG ranks on domain
/// boundaries have fewer neighbors ("up to six neighbors, depending on
/// rank boundaries").
fn neighbors_3d_open(r: u32, dims: (u32, u32, u32)) -> Vec<u32> {
    let (x, y, z) = coords(r, dims);
    let (dx, dy, dz) = dims;
    let mut out = Vec::with_capacity(6);
    let mut push = |c: (i64, i64, i64)| {
        if c.0 >= 0 && c.0 < dx as i64 && c.1 >= 0 && c.1 < dy as i64 && c.2 >= 0 && c.2 < dz as i64
        {
            out.push(index((c.0 as u32, c.1 as u32, c.2 as u32), dims));
        }
    };
    let (xi, yi, zi) = (x as i64, y as i64, z as i64);
    push((xi + 1, yi, zi));
    push((xi - 1, yi, zi));
    push((xi, yi + 1, zi));
    push((xi, yi - 1, zi));
    push((xi, yi, zi + 1));
    push((xi, yi, zi - 1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(kind: AppKind, ranks: u32) -> JobTrace {
        generate(&WorkloadSpec {
            kind,
            ranks,
            msg_scale: 1.0,
            seed: 7,
        })
    }

    #[test]
    fn labels_and_paper_sizes() {
        assert_eq!(AppKind::CrystalRouter.label(), "CR");
        assert_eq!(AppKind::FillBoundary.label(), "FB");
        assert_eq!(AppKind::Amg.label(), "AMG");
        assert_eq!(AppKind::CrystalRouter.paper_ranks(), 1000);
        assert_eq!(AppKind::FillBoundary.paper_ranks(), 1000);
        assert_eq!(AppKind::Amg.paper_ranks(), 1728);
    }

    #[test]
    fn cube_dims_exact_cubes() {
        assert_eq!(cube_dims(1000), (10, 10, 10));
        assert_eq!(cube_dims(1728), (12, 12, 12));
        assert_eq!(cube_dims(64), (4, 4, 4));
        assert_eq!(cube_dims(8), (2, 2, 2));
    }

    #[test]
    fn neighbors_periodic_always_six_for_big_grids() {
        let dims = (10, 10, 10);
        for r in [0u32, 5, 999, 500] {
            let nb = neighbors_3d(r, dims);
            assert_eq!(nb.len(), 6, "rank {r}");
            let set: std::collections::HashSet<_> = nb.iter().collect();
            assert_eq!(set.len(), 6);
        }
    }

    #[test]
    fn neighbors_open_boundary_has_fewer() {
        let dims = (12, 12, 12);
        // Corner rank 0 has exactly 3 neighbors.
        assert_eq!(neighbors_3d_open(0, dims).len(), 3);
        // An interior rank has 6.
        let interior = index((5, 5, 5), dims);
        assert_eq!(neighbors_3d_open(interior, dims).len(), 6);
    }

    #[test]
    fn all_apps_generate_valid_traces() {
        for kind in [AppKind::CrystalRouter, AppKind::FillBoundary, AppKind::Amg] {
            let t = gen(kind, kind.paper_ranks());
            t.validate().unwrap();
            assert_eq!(t.ranks(), kind.paper_ranks());
            assert!(t.phase_count() > 0);
            assert!(t.total_bytes() > 0);
        }
    }

    #[test]
    fn cr_has_constant_load_near_190kb() {
        let t = gen(AppKind::CrystalRouter, 1000);
        // The hypercube transfers dominate; their sizes must cluster at
        // ~190 KB (+-5%).
        let mut big = Vec::new();
        for p in &t.programs {
            for ph in &p.phases {
                for s in &ph.sends {
                    if s.bytes > 100 * 1024 {
                        big.push(s.bytes);
                    }
                }
            }
        }
        assert!(!big.is_empty());
        let lo = 190.0 * 1024.0 * 0.94;
        let hi = 190.0 * 1024.0 * 1.06;
        assert!(big.iter().all(|&b| (b as f64) > lo && (b as f64) < hi));
    }

    #[test]
    fn cr_stage_count_is_log2() {
        let t = gen(AppKind::CrystalRouter, 1000);
        assert_eq!(t.phase_count(), 10); // ceil(log2 1000)
        let t = gen(AppKind::CrystalRouter, 16);
        assert_eq!(t.phase_count(), 4);
    }

    #[test]
    fn fb_per_rank_load_fluctuates_in_paper_band() {
        let t = gen(AppKind::FillBoundary, 1000);
        // Per-rank per-iteration load (Figure 2(e)) must span the
        // 100 KB .. 2560 KB band, fluctuating strongly.
        let mut loads = Vec::new();
        for p in &t.programs {
            for ph in &p.phases {
                loads.push(ph.bytes() as f64);
            }
        }
        let min = loads.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = loads.iter().cloned().fold(0.0, f64::max);
        assert!(min >= 100.0 * 1024.0 * 0.6, "min {min}");
        assert!(max <= 2560.0 * 1024.0 * 1.4, "max {max}");
        assert!(max / min > 5.0, "range too narrow: {min}..{max}");
    }

    #[test]
    fn amg_sizes_decrease_with_level_and_stay_small() {
        let t = gen(AppKind::Amg, 1728);
        // Peak <= 75 KB * 1.1 jitter.
        let max = t
            .programs
            .iter()
            .flat_map(|p| p.phases.iter())
            .flat_map(|ph| ph.sends.iter())
            .map(|s| s.bytes)
            .max()
            .unwrap();
        assert!(max <= (75 * 1024 * 11) / 10, "max {max}");
        // Rank 0's first V-cycle: phase sizes halve going down.
        let p0 = &t.programs[0];
        let first = p0.phases[0].sends[0].bytes as f64;
        let second = p0.phases[1].sends[0].bytes as f64;
        assert!(second < first, "level sizes should shrink");
    }

    #[test]
    fn amg_average_load_well_below_cr() {
        let cr = gen(AppKind::CrystalRouter, 1000);
        let amg = gen(AppKind::Amg, 1728);
        assert!(
            amg.avg_load_per_rank() < cr.avg_load_per_rank() / 2.0,
            "AMG {} vs CR {}",
            amg.avg_load_per_rank(),
            cr.avg_load_per_rank()
        );
    }

    #[test]
    #[should_panic(expected = "msg_scale: must be finite")]
    fn infinite_msg_scale_is_rejected() {
        let spec = WorkloadSpec {
            msg_scale: f64::INFINITY,
            ..WorkloadSpec::paper(AppKind::CrystalRouter)
        };
        generate(&spec);
    }

    #[test]
    fn msg_scale_scales_total_bytes_linearly() {
        let base = generate(&WorkloadSpec {
            kind: AppKind::FillBoundary,
            ranks: 64,
            msg_scale: 1.0,
            seed: 3,
        });
        let double = generate(&WorkloadSpec {
            kind: AppKind::FillBoundary,
            ranks: 64,
            msg_scale: 2.0,
            seed: 3,
        });
        let ratio = double.total_bytes() as f64 / base.total_bytes() as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen(AppKind::FillBoundary, 216);
        let b = gen(AppKind::FillBoundary, 216);
        assert_eq!(a, b);
    }

    #[test]
    fn small_rank_counts_work() {
        for kind in [AppKind::CrystalRouter, AppKind::FillBoundary, AppKind::Amg] {
            let t = gen(kind, 8);
            t.validate().unwrap();
            assert_eq!(t.ranks(), 8);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 ranks")]
    fn one_rank_rejected() {
        let _ = gen(AppKind::CrystalRouter, 1);
    }
}
