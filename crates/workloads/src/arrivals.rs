//! Job arrival streams for the continuous service scenario.
//!
//! The paper's batch-scheduling motivation (and ROADMAP item 4) needs jobs
//! that *arrive over time*: a datacenter operator's workload is an open
//! stream, not a fixed batch. This module generates two kinds of stream —
//! a Poisson process with a configurable class mix (the standard open-loop
//! model in scheduling studies) and a trace-driven list parsed from a
//! simple CSV text format — both as plain [`Arrival`] records the service
//! simulator in `dfly-core` turns into placed, traced jobs.

use crate::apps::{check_finite_positive, check_msg_scale, AppKind};
use crate::patterns::Pattern;
use dfly_engine::{Ns, Xoshiro256};

/// What an arriving job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// One of the three traced miniapps.
    App(AppKind),
    /// A synthetic-pattern background job (the service-stream analogue of
    /// the paper's external-interference traffic).
    Background(Pattern),
}

impl ArrivalKind {
    /// Stable label (`cr` / `fb` / `amg` / pattern label).
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalKind::App(AppKind::CrystalRouter) => "cr",
            ArrivalKind::App(AppKind::FillBoundary) => "fb",
            ArrivalKind::App(AppKind::Amg) => "amg",
            ArrivalKind::Background(p) => p.label(),
        }
    }

    /// The tenant this kind bills to (see [`tenant_label`]).
    pub fn tenant(&self) -> u32 {
        match self {
            ArrivalKind::App(AppKind::CrystalRouter) => 0,
            ArrivalKind::App(AppKind::FillBoundary) => 1,
            ArrivalKind::App(AppKind::Amg) => 2,
            ArrivalKind::Background(_) => 3,
        }
    }
}

/// Label of a tenant id assigned by [`ArrivalKind::tenant`].
pub fn tenant_label(tenant: u32) -> &'static str {
    match tenant {
        0 => "cr",
        1 => "fb",
        2 => "amg",
        3 => "bg",
        _ => "other",
    }
}

/// One job arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the job enters the queue.
    pub at: Ns,
    /// What it runs.
    pub kind: ArrivalKind,
    /// Rank count.
    pub ranks: u32,
    /// Message-size multiplier.
    pub msg_scale: f64,
    /// User-style runtime estimate (drives EASY-backfill reservations;
    /// an estimate, not a promise — jobs are never killed for exceeding
    /// it).
    pub estimate: Ns,
}

/// A deterministic runtime estimate for an arriving job — the role user
/// estimates play in EASY backfill. Deliberately crude (linear in ranks
/// and message scale, with a per-class base cost): backfill quality, not
/// correctness, depends on its accuracy.
pub fn runtime_estimate(kind: ArrivalKind, ranks: u32, msg_scale: f64) -> Ns {
    let base_us = match kind {
        ArrivalKind::App(AppKind::CrystalRouter) => 220.0,
        ArrivalKind::App(AppKind::FillBoundary) => 420.0,
        ArrivalKind::App(AppKind::Amg) => 120.0,
        ArrivalKind::Background(_) => 60.0,
    };
    Ns((1_000.0 * (base_us + 1.5 * ranks as f64) * msg_scale) as u64)
}

/// Plan for a Poisson arrival stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalPlan {
    /// Mean arrival rate, jobs per millisecond of simulated time.
    pub rate_per_ms: f64,
    /// Stream length: no arrival is generated after this time *unless*
    /// `min_jobs` has not been reached yet (the stream then extends
    /// deterministically until it is).
    pub duration: Ns,
    /// Floor on the number of generated jobs (0 = none).
    pub min_jobs: u32,
    /// Fraction of arrivals that are background pattern jobs (the rest
    /// split uniformly over CR/FB/AMG).
    pub background_share: f64,
    /// Smallest job size in ranks.
    pub min_ranks: u32,
    /// Largest job size in ranks.
    pub max_ranks: u32,
    /// Message-size multiplier applied to every job.
    pub msg_scale: f64,
    /// Stream seed.
    pub seed: u64,
}

impl ArrivalPlan {
    /// Validate the plan.
    pub fn validate(&self) -> Result<(), String> {
        // An infinite rate draws every inter-arrival gap as 0 ns, and the
        // stream would never reach its duration.
        check_finite_positive("rate_per_ms", self.rate_per_ms)?;
        if self.duration == Ns::ZERO && self.min_jobs == 0 {
            return Err("duration: zero-length stream with no min_jobs floor".into());
        }
        if !(0.0..=1.0).contains(&self.background_share) {
            return Err("background_share: must be within [0, 1]".into());
        }
        if self.min_ranks < 2 || self.max_ranks < self.min_ranks {
            return Err(format!(
                "ranks: need 2 <= min_ranks <= max_ranks (got {}..{})",
                self.min_ranks, self.max_ranks
            ));
        }
        check_msg_scale(self.msg_scale)
    }
}

/// Background patterns the Poisson stream draws from (the unkeyed,
/// machine-size-independent ones).
const BG_PATTERNS: [Pattern; 3] = [Pattern::UniformRandom, Pattern::Shift, Pattern::Ring];

/// Generate a Poisson arrival stream: exponential inter-arrival times at
/// `rate_per_ms`, class and size drawn per arrival. Deterministic per
/// seed; arrivals come out sorted by time.
pub fn poisson_arrivals(plan: &ArrivalPlan) -> Vec<Arrival> {
    plan.validate().expect("invalid arrival plan");
    let mut rng = Xoshiro256::seed_from(plan.seed);
    let mut out = Vec::new();
    let mut t_ns = 0.0f64;
    loop {
        // Inverse-CDF exponential draw; 1-u keeps ln's argument nonzero.
        let u = rng.next_f64();
        t_ns += -(1.0 - u).ln() * 1.0e6 / plan.rate_per_ms;
        let at = Ns(t_ns as u64);
        if at > plan.duration && out.len() >= plan.min_jobs as usize {
            break;
        }
        let kind = if rng.next_f64() < plan.background_share {
            ArrivalKind::Background(BG_PATTERNS[rng.next_below(BG_PATTERNS.len() as u64) as usize])
        } else {
            match rng.next_below(3) {
                0 => ArrivalKind::App(AppKind::CrystalRouter),
                1 => ArrivalKind::App(AppKind::FillBoundary),
                _ => ArrivalKind::App(AppKind::Amg),
            }
        };
        let ranks =
            plan.min_ranks + rng.next_below((plan.max_ranks - plan.min_ranks + 1) as u64) as u32;
        out.push(Arrival {
            at,
            kind,
            ranks,
            msg_scale: plan.msg_scale,
            estimate: runtime_estimate(kind, ranks, plan.msg_scale),
        });
    }
    out
}

/// Parse a trace-driven arrival list. One arrival per line:
///
/// ```text
/// # at_us, kind, ranks, msg_scale[, estimate_us]
/// 0,    cr,  32, 0.5
/// 250,  amg, 27, 0.5, 180
/// 400,  uniform, 16, 1.0
/// ```
///
/// `kind` is `cr`/`fb`/`amg` or a pattern label (`uniform`, `shift`,
/// `transpose`, `bit-reversal`, `ring`, `all-to-all`). A missing estimate
/// falls back to [`runtime_estimate`]. Blank lines and `#` comments are
/// skipped. Arrivals are returned sorted by time (stable).
pub fn parse_arrivals(text: &str) -> Result<Vec<Arrival>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() < 4 || fields.len() > 5 {
            return Err(format!(
                "line {}: want `at_us, kind, ranks, msg_scale[, estimate_us]` (got {raw:?})",
                lineno + 1
            ));
        }
        let at_us: f64 = fields[0]
            .parse()
            .map_err(|_| format!("line {}: bad arrival time {:?}", lineno + 1, fields[0]))?;
        check_time_us(at_us, "at_us").map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = match fields[1] {
            "cr" => ArrivalKind::App(AppKind::CrystalRouter),
            "fb" => ArrivalKind::App(AppKind::FillBoundary),
            "amg" => ArrivalKind::App(AppKind::Amg),
            other => {
                let pattern = Pattern::ALL
                    .into_iter()
                    .find(|p| p.label() == other)
                    .ok_or_else(|| format!("line {}: unknown kind {other:?}", lineno + 1))?;
                ArrivalKind::Background(pattern)
            }
        };
        let ranks: u32 = fields[2]
            .parse()
            .map_err(|_| format!("line {}: bad rank count {:?}", lineno + 1, fields[2]))?;
        let msg_scale: f64 = fields[3]
            .parse()
            .map_err(|_| format!("line {}: bad msg_scale {:?}", lineno + 1, fields[3]))?;
        check_msg_scale(msg_scale).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let estimate = match fields.get(4) {
            Some(f) => {
                let estimate_us: f64 = f
                    .parse()
                    .map_err(|_| format!("line {}: bad estimate {f:?}", lineno + 1))?;
                check_time_us(estimate_us, "estimate_us")
                    .map_err(|e| format!("line {}: {e}", lineno + 1))?;
                Ns((1_000.0 * estimate_us) as u64)
            }
            None => runtime_estimate(kind, ranks, msg_scale),
        };
        out.push(Arrival {
            at: Ns((1_000.0 * at_us) as u64),
            kind,
            ranks,
            msg_scale,
            estimate,
        });
    }
    out.sort_by_key(|a| a.at);
    Ok(out)
}

/// A trace time in microseconds must be finite and not negative (the
/// cast to [`Ns`] would otherwise clamp it to 0 or `u64::MAX`).
fn check_time_us(us: f64, field: &str) -> Result<(), String> {
    if us.is_finite() && us >= 0.0 {
        Ok(())
    } else {
        Err(format!("{field}: must be finite and >= 0 (got {us})"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> ArrivalPlan {
        ArrivalPlan {
            rate_per_ms: 2.0,
            duration: Ns::from_ms(50),
            min_jobs: 0,
            background_share: 0.25,
            min_ranks: 4,
            max_ranks: 32,
            msg_scale: 0.5,
            seed: 0xA221,
        }
    }

    #[test]
    fn poisson_stream_is_deterministic_and_sorted() {
        let a = poisson_arrivals(&plan());
        let b = poisson_arrivals(&plan());
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        // ~2 jobs/ms * 50 ms: statistically comfortably within 2x.
        assert!(a.len() > 50 && a.len() < 200, "{} arrivals", a.len());
    }

    #[test]
    fn validate_rejects_a_rate_that_is_not_finite_and_positive() {
        for rate in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            let mut p = plan();
            p.rate_per_ms = rate;
            let err = p.validate().expect_err("rate accepted");
            assert!(err.starts_with("rate_per_ms: "), "{err}");
        }
        assert!(plan().validate().is_ok());
    }

    #[test]
    fn poisson_rate_roughly_holds() {
        let mut p = plan();
        p.duration = Ns::from_ms(200);
        let jobs = poisson_arrivals(&p);
        let rate = jobs.len() as f64 / 200.0;
        assert!((rate - 2.0).abs() < 0.4, "rate {rate}");
    }

    #[test]
    fn min_jobs_floor_extends_the_stream() {
        let mut p = plan();
        p.duration = Ns::from_ms(1);
        p.min_jobs = 40;
        let jobs = poisson_arrivals(&p);
        assert!(jobs.len() >= 40);
        assert!(jobs.last().unwrap().at > p.duration);
    }

    #[test]
    fn class_mix_and_sizes_respect_the_plan() {
        let mut p = plan();
        p.duration = Ns::from_ms(500);
        let jobs = poisson_arrivals(&p);
        let bg = jobs
            .iter()
            .filter(|j| matches!(j.kind, ArrivalKind::Background(_)))
            .count();
        let share = bg as f64 / jobs.len() as f64;
        assert!((share - 0.25).abs() < 0.1, "background share {share}");
        assert!(jobs.iter().all(|j| (4..=32).contains(&j.ranks)));
        assert!(jobs.iter().all(|j| j.estimate > Ns::ZERO));
        // All four tenants appear.
        let tenants: std::collections::HashSet<u32> =
            jobs.iter().map(|j| j.kind.tenant()).collect();
        assert_eq!(tenants.len(), 4);
    }

    #[test]
    fn seeds_vary_the_stream() {
        let a = poisson_arrivals(&plan());
        let mut p = plan();
        p.seed ^= 1;
        assert_ne!(a, poisson_arrivals(&p));
    }

    #[test]
    fn plan_validation_names_fields() {
        let mut p = plan();
        p.rate_per_ms = 0.0;
        assert!(p.validate().unwrap_err().contains("rate_per_ms"));
        let mut p = plan();
        p.background_share = 1.5;
        assert!(p.validate().unwrap_err().contains("background_share"));
        let mut p = plan();
        p.max_ranks = 2;
        assert!(p.validate().unwrap_err().contains("ranks"));
        let mut p = plan();
        p.duration = Ns::ZERO;
        assert!(p.validate().unwrap_err().contains("duration"));
        p.min_jobs = 10;
        assert!(p.validate().is_ok());
        for bad in [0.0, f64::INFINITY, f64::NAN] {
            let mut p = plan();
            p.msg_scale = bad;
            let err = p.validate().unwrap_err();
            assert!(err.contains("msg_scale"), "{bad}: {err}");
        }
    }

    #[test]
    fn parse_arrivals_roundtrips_the_documented_format() {
        let text = "\
            # demo stream\n\
            0,    cr,  32, 0.5\n\
            400,  uniform, 16, 1.0   # inline comment\n\
            250,  amg, 27, 0.5, 180\n\
            \n";
        let jobs = parse_arrivals(text).unwrap();
        assert_eq!(jobs.len(), 3);
        // Sorted by arrival despite file order.
        assert_eq!(jobs[0].at, Ns::ZERO);
        assert_eq!(jobs[1].at, Ns::from_us(250));
        assert_eq!(jobs[1].estimate, Ns::from_us(180));
        assert_eq!(jobs[1].kind, ArrivalKind::App(AppKind::Amg));
        assert_eq!(
            jobs[2].kind,
            ArrivalKind::Background(Pattern::UniformRandom)
        );
        assert_eq!(
            jobs[0].estimate,
            runtime_estimate(jobs[0].kind, 32, 0.5),
            "missing estimate falls back to the model"
        );
    }

    #[test]
    fn parse_arrivals_reports_bad_lines() {
        assert!(parse_arrivals("zz, cr, 4, 1.0")
            .unwrap_err()
            .contains("line 1"));
        assert!(parse_arrivals("0, warp, 4, 1.0")
            .unwrap_err()
            .contains("warp"));
        assert!(parse_arrivals("0, cr, 4").unwrap_err().contains("want"));
        let cases = [
            ("-5, cr, 32, 0.5", "at_us"),
            ("inf, cr, 32, 0.5", "at_us"),
            ("NaN, cr, 32, 0.5", "at_us"),
            ("0, cr, 32, inf", "msg_scale"),
            ("0, cr, 32, NaN", "msg_scale"),
            ("0, cr, 32, 0", "msg_scale"),
            ("0, cr, 32, 0.5, -1", "estimate_us"),
            ("0, cr, 32, 0.5, inf", "estimate_us"),
        ];
        for (text, field) in cases {
            let err = parse_arrivals(&format!("0, fb, 8, 1.0\n{text}")).unwrap_err();
            assert!(
                err.contains("line 2") && err.contains(field),
                "{text:?}: {err}"
            );
        }
    }

    #[test]
    fn tenant_labels_cover_the_classes() {
        assert_eq!(
            tenant_label(ArrivalKind::App(AppKind::CrystalRouter).tenant()),
            "cr"
        );
        assert_eq!(
            tenant_label(ArrivalKind::Background(Pattern::Ring).tenant()),
            "bg"
        );
        assert_eq!(tenant_label(9), "other");
    }
}
