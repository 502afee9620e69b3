//! The per-run telemetry bundle and its sinks.
//!
//! [`ObsReport`] is what a run hands back when telemetry was on: the
//! event-loop profile, the periodic sample series, the VC occupancy
//! histogram, and the UGAL decision counters. It knows how to write
//! itself as a family of `obs_*.csv` files and how to render a compact
//! ASCII summary (sparklines over the sample series) for terminal use.

use crate::profile::{EventKind, EventLoopProfile};
use crate::sampler::{OccupancyHistogram, RouteStats, SampleSeries, OBS_CLASSES};
use dfly_stats::{sparkline, CsvWriter};
use std::io;
use std::path::{Path, PathBuf};

/// Everything telemetry gathered over one run.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Event-loop counts, wall-clock shares, queue high-water.
    pub profile: EventLoopProfile,
    /// Periodic per-class samples.
    pub series: SampleSeries,
    /// VC fill-fraction distribution across all sweeps.
    pub vc_occupancy: OccupancyHistogram,
    /// UGAL decision counters and margin distribution.
    pub route: RouteStats,
    /// The coarse profiling clock was requested but this platform has no
    /// coarse source, so the precise clock was used instead.
    pub coarse_unavailable: bool,
}

impl ObsReport {
    /// Write the report as four CSV files under `dir`, each named
    /// `obs_<what>_<tag>.csv`. Returns the paths written.
    pub fn write_csvs(&self, dir: &Path, tag: &str) -> io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();

        let path = dir.join(format!("obs_profile_{tag}.csv"));
        let mut w = CsvWriter::create(
            &path,
            &[
                "event",
                "count",
                "timed",
                "mean_ns",
                "est_wall_ns",
                "wall_share",
            ],
        )?;
        for kind in EventKind::ALL {
            w.row(&[
                kind.label().to_string(),
                self.profile.counts[kind.index()].to_string(),
                self.profile.timed[kind.index()].to_string(),
                format!("{:.1}", self.profile.mean_ns(kind)),
                self.profile.estimated_wall_ns(kind).to_string(),
                format!("{:.4}", self.profile.wall_share(kind)),
            ])?;
        }
        w.row(&[
            "queue_high_water".to_string(),
            self.profile.queue_high_water.to_string(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ])?;
        w.row(&[
            "events_per_sec".to_string(),
            format!("{:.0}", self.profile.events_per_sec()),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ])?;
        w.finish()?;
        written.push(path);

        let path = dir.join(format!("obs_samples_{tag}.csv"));
        let mut header = vec!["t_ns".to_string()];
        for &(_, label) in &OBS_CLASSES {
            header.push(format!("util_{label}"));
        }
        for &(_, label) in &OBS_CLASSES {
            header.push(format!("queued_{label}"));
        }
        for &(_, label) in &OBS_CLASSES {
            header.push(format!("stall_ns_{label}"));
        }
        header.push("ugal_minimal".to_string());
        header.push("ugal_nonminimal".to_string());
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut w = CsvWriter::create(&path, &header_refs)?;
        for s in self.series.samples() {
            let mut row = vec![s.at.as_nanos().to_string()];
            row.extend(s.util.iter().map(|u| format!("{u:.4}")));
            row.extend(s.queued_bytes.iter().map(|q| q.to_string()));
            row.extend(s.stall_ns.iter().map(|n| n.to_string()));
            row.push(s.minimal_taken.to_string());
            row.push(s.nonminimal_taken.to_string());
            w.row(&row)?;
        }
        w.finish()?;
        written.push(path);

        let path = dir.join(format!("obs_vc_occupancy_{tag}.csv"));
        let mut w = CsvWriter::create(&path, &["fill_lo", "fill_hi", "count", "share"])?;
        for (i, &count) in self.vc_occupancy.buckets.iter().enumerate() {
            w.row(&[
                format!("{:.3}", i as f64 / 8.0),
                format!("{:.3}", (i + 1) as f64 / 8.0),
                count.to_string(),
                format!("{:.4}", self.vc_occupancy.share(i)),
            ])?;
        }
        w.finish()?;
        written.push(path);

        let path = dir.join(format!("obs_route_{tag}.csv"));
        let mut w = CsvWriter::create(&path, &["metric", "value"])?;
        w.row(&["minimal_taken", &self.route.minimal_taken.to_string()])?;
        w.row(&["nonminimal_taken", &self.route.nonminimal_taken.to_string()])?;
        w.row(&[
            "nonminimal_fraction".to_string(),
            format!("{:.4}", self.route.nonminimal_fraction()),
        ])?;
        w.row(&[
            "mean_margin".to_string(),
            format!("{:.1}", self.route.mean_margin()),
        ])?;
        for (i, &count) in self.route.margin_hist.iter().enumerate() {
            w.row(&[format!("margin_log2_{i}"), count.to_string()])?;
        }
        w.finish()?;
        written.push(path);

        Ok(written)
    }

    /// Compact terminal summary: sparklines over the sample series plus
    /// the headline counters.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        if self.coarse_unavailable {
            out.push_str(
                "warning: coarse profiling clock requested but unavailable on this platform; \
                 precise clock used\n",
            );
        }
        out.push_str(&format!(
            "event loop: {} events ({} timed), {:.0} events/s est, queue high-water {}\n",
            self.profile.total_events(),
            self.profile.timed_events(),
            self.profile.events_per_sec(),
            self.profile.queue_high_water,
        ));
        for kind in EventKind::ALL {
            out.push_str(&format!(
                "  {:8} {:>10}  {:>5.1}% wall est, {:.0} ns/event\n",
                kind.label(),
                self.profile.counts[kind.index()],
                100.0 * self.profile.wall_share(kind),
                self.profile.mean_ns(kind),
            ));
        }
        if !self.series.samples().is_empty() {
            out.push_str(&format!(
                "samples: {} at {} ns intervals{}\n",
                self.series.samples().len(),
                self.series.interval().as_nanos(),
                if self.series.dropped() > 0 {
                    format!(" ({} dropped past cap)", self.series.dropped())
                } else {
                    String::new()
                },
            ));
            for (i, &(_, label)) in OBS_CLASSES.iter().enumerate() {
                let series = self.series.util_series(i);
                let peak = series.iter().cloned().fold(0.0f64, f64::max);
                out.push_str(&format!(
                    "  util {:13} {} peak {:.2}\n",
                    label,
                    sparkline(&series),
                    peak,
                ));
            }
            out.push_str(&format!(
                "  backlog bytes     {}\n",
                sparkline(&self.series.backlog_series()),
            ));
        }
        out.push_str(&format!(
            "vc occupancy: {} readings, {:.1}% at >=half-full\n",
            self.vc_occupancy.readings,
            100.0 * self.vc_occupancy.high_fill_share(),
        ));
        if self.route.total() > 0 {
            out.push_str(&format!(
                "ugal: {} decisions, {:.1}% non-minimal, mean margin {:.0}\n",
                self.route.total(),
                100.0 * self.route.nonminimal_fraction(),
                self.route.mean_margin(),
            ));
        }
        out
    }

    /// Approximate heap bytes held by the report's metric structures —
    /// the number the scale/memory regression suite bounds. Counts the
    /// duration-sensitive part (the sample series); the fixed-size
    /// profile/histogram structs ride along as constants.
    pub fn approx_metric_bytes(&self) -> usize {
        self.series.approx_bytes() + std::mem::size_of::<ObsReport>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::NetSample;
    use dfly_engine::Ns;

    fn sample_report() -> ObsReport {
        let mut profile = EventLoopProfile::new();
        profile.counts = [10, 20, 30, 1];
        profile.timed = [10, 20, 30, 1];
        profile.wall_ns = [100, 200, 300, 10];
        profile.total_wall_ns = 610;
        profile.queue_high_water = 42;

        let mut series = SampleSeries::new(Ns(1000));
        for i in 0..4u64 {
            let mut s = NetSample {
                at: Ns(i * 1000),
                ..NetSample::default()
            };
            s.util[4] = i as f64 / 4.0;
            s.queued_bytes[2] = i * 10;
            series.push(s);
        }

        let mut vc = OccupancyHistogram::new();
        vc.record(0.1);
        vc.record(0.9);

        let mut route = RouteStats::new();
        route.record(false, 100);
        route.record(true, 5000);

        ObsReport {
            profile,
            series,
            vc_occupancy: vc,
            route,
            coarse_unavailable: false,
        }
    }

    #[test]
    fn writes_all_four_csvs() {
        let dir = std::env::temp_dir().join("dfly_obs_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let paths = sample_report().write_csvs(&dir, "unit").unwrap();
        assert_eq!(paths.len(), 4);
        for p in &paths {
            let text = std::fs::read_to_string(p).unwrap();
            assert!(text.lines().count() >= 2, "{p:?} has no data rows");
        }
        let samples = std::fs::read_to_string(dir.join("obs_samples_unit.csv")).unwrap();
        assert!(samples.starts_with("t_ns,util_terminal_up,"));
        assert_eq!(samples.lines().count(), 5, "header + 4 samples");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summary_mentions_all_sections() {
        let text = sample_report().render_summary();
        assert!(text.contains("event loop: 61 events"));
        assert!(text.contains("queue high-water 42"));
        assert!(text.contains("util global"));
        assert!(text.contains("vc occupancy: 2 readings"));
        assert!(text.contains("ugal: 2 decisions"));
        assert!(text.contains("50.0% non-minimal"));
    }

    #[test]
    fn empty_report_renders_without_panic() {
        let report = ObsReport {
            profile: EventLoopProfile::new(),
            series: SampleSeries::new(Ns(1)),
            vc_occupancy: OccupancyHistogram::new(),
            route: RouteStats::new(),
            coarse_unavailable: false,
        };
        let text = report.render_summary();
        assert!(text.contains("event loop: 0 events"));
        assert!(!text.contains("ugal:"), "no decisions, no ugal line");
        assert!(!text.contains("warning:"), "no fallback, no warning line");
    }

    #[test]
    fn summary_warns_when_coarse_clock_fell_back() {
        let mut report = sample_report();
        report.coarse_unavailable = true;
        let text = report.render_summary();
        assert!(
            text.starts_with("warning: coarse profiling clock requested but unavailable"),
            "missing fallback warning: {text}"
        );
    }
}
