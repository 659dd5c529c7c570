//! The figure-level experiments (§V of the paper).

use std::time::Duration;

use parblockchain::{run, ClusterSpec, LoadSpec, MovedGroup, RunReport, SystemKind};
use parblock_types::BlockCutConfig;

use crate::table::Table;

/// How long each measurement point runs. `quick` keeps the full suite in
/// CI-sized budgets; `full` tightens the noise for the record run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Short points (~1 s each).
    Quick,
    /// Longer points (~3 s each).
    Full,
}

impl ExperimentScale {
    fn load(self, rate_tps: f64) -> LoadSpec {
        match self {
            ExperimentScale::Quick => LoadSpec {
                rate_tps,
                duration: Duration::from_millis(900),
                drain: Duration::from_millis(600),
                ..LoadSpec::default()
            },
            ExperimentScale::Full => LoadSpec {
                rate_tps,
                duration: Duration::from_millis(2500),
                drain: Duration::from_millis(900),
                ..LoadSpec::default()
            },
        }
    }
}

/// One measured point of a latency-vs-throughput curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Offered load (tx/s).
    pub offered_tps: f64,
    /// Achieved committed throughput (tx/s).
    pub throughput_tps: f64,
    /// Mean end-to-end latency (ms).
    pub latency_ms: f64,
    /// Abort fraction.
    pub abort_rate: f64,
    /// This is the ladder's top rung and it kept up: the ladder, not the
    /// system, bounds the throughput, and the system's peak lies higher.
    pub capped: bool,
}

/// A rung keeps up when it commits at least this share of its offered
/// load.
const KEEPS_UP: f64 = 0.93;

/// A rung is fully saturated below this share of its offered load; the
/// rungs above it only grow the queues.
const SATURATED: f64 = 0.55;

impl Point {
    fn from_report(offered: f64, report: &RunReport) -> Self {
        Point {
            offered_tps: offered,
            throughput_tps: report.throughput_tps(),
            latency_ms: report.avg_latency().as_secs_f64() * 1e3,
            abort_rate: report.abort_rate(),
            capped: false,
        }
    }
}

/// Measures one (spec, rate) point.
#[must_use]
pub fn measure_point(spec: &ClusterSpec, rate_tps: f64, scale: ExperimentScale) -> Point {
    let report = run(spec, &scale.load(rate_tps));
    Point::from_report(rate_tps, &report)
}

/// Walks the ascending rate ladder `rates`, measuring each rung with
/// `measure`, and stops after the first fully saturated rung. The top
/// rung is marked [`Point::capped`] when it kept up.
fn walk_ladder(rates: &[f64], mut measure: impl FnMut(f64) -> Point) -> Vec<Point> {
    let mut points: Vec<Point> = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        let mut point = measure(rate);
        point.capped = i + 1 == rates.len() && point.throughput_tps >= KEEPS_UP * rate;
        let saturated = point.throughput_tps < SATURATED * rate;
        points.push(point);
        if saturated {
            break;
        }
    }
    points
}

/// The peak of a walked ladder, chosen as [`peak_search`] describes.
fn select_peak(points: &[Point]) -> Point {
    let max_tps = points
        .iter()
        .map(|p| p.throughput_tps)
        .fold(0.0f64, f64::max);
    points
        .iter()
        .filter(|p| p.throughput_tps >= 0.93 * max_tps)
        .min_by(|a, b| a.latency_ms.total_cmp(&b.latency_ms))
        .copied()
        .expect("at least one rate")
}

/// Finds the peak throughput of a configuration by walking a rate ladder.
///
/// The paper reports "the peak throughput and the corresponding average
/// end-to-end latency … just below saturation": accordingly, among the
/// points within 7 % of the maximum achieved throughput, the one with the
/// lowest latency is returned (the highest rate usually sits *past*
/// saturation with queueing-inflated latency). The returned point keeps
/// its [`Point::capped`] flag, so it says when the peak is only a lower
/// bound.
#[must_use]
pub fn peak_search(spec: &ClusterSpec, rates: &[f64], scale: ExperimentScale) -> Point {
    select_peak(&walk_ladder(rates, |rate| measure_point(spec, rate, scale)))
}

fn spec_for(system: SystemKind, contention: f64, cross_app: bool) -> ClusterSpec {
    let mut spec = ClusterSpec::new(system);
    spec.workload.contention = contention;
    spec.workload.cross_app = cross_app;
    spec
}

/// The rate ladders used by the sweeps, per system. OX saturates early
/// (sequential execution); OXII climbs furthest.
fn ladder(system: SystemKind) -> Vec<f64> {
    match system {
        SystemKind::Ox => vec![500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0],
        SystemKind::Xov => vec![500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0],
        SystemKind::Oxii => vec![1_000.0, 2_000.0, 4_000.0, 8_000.0, 12_000.0],
    }
}

/// **Fig 5**: peak throughput and latency vs block size (10 → 1000),
/// no contention, all three systems.
///
/// Every system runs its own pipeline; OXII orderers build each block's
/// reduced graph while its transactions stream in, so cutting a block
/// pays no O(n²) rebuild. The paper attributes its rolloff past
/// ~200 tx/block to that rebuild; EXPERIMENTS.md ("Streaming-construction
/// ablation", "Fig 5") records what it cost here before the rebuild was
/// deleted. `capped` marks a peak the rate ladder, not the system, set.
#[must_use]
pub fn fig5_block_size(scale: ExperimentScale) -> Table {
    let mut table = Table::new([
        "block_size",
        "system",
        "peak_tps",
        "latency_ms",
        "capped",
    ]);
    let sizes = [10usize, 50, 100, 200, 400, 700, 1000];
    for &size in &sizes {
        for system in [SystemKind::Ox, SystemKind::Xov, SystemKind::Oxii] {
            let mut spec = spec_for(system, 0.0, false);
            spec.block_cut = BlockCutConfig::with_max_txns(size);
            let point = peak_search(&spec, &ladder(system), scale);
            table.row([
                size.to_string(),
                system.to_string(),
                format!("{:.0}", point.throughput_tps),
                format!("{:.2}", point.latency_ms),
                point.capped.to_string(),
            ]);
        }
    }
    table
}

/// **Fig 6**: latency vs throughput for increasing contention.
/// `contention` is the workload dial (0.0, 0.2, 0.8, 1.0); the OXII*
/// dashed line (cross-application conflicts) is emitted as system
/// `OXII*`.
///
/// Every rung a line walks is a row; `capped` marks a top rung that
/// kept up, where the line's peak lies past the ladder.
#[must_use]
pub fn fig6_contention(contention: f64, scale: ExperimentScale) -> Table {
    let mut table = Table::new([
        "system",
        "offered_tps",
        "throughput_tps",
        "latency_ms",
        "abort_rate",
        "capped",
    ]);
    let mut lines: Vec<(String, ClusterSpec)> = vec![
        ("OX".into(), spec_for(SystemKind::Ox, contention, false)),
        ("XOV".into(), spec_for(SystemKind::Xov, contention, false)),
        ("OXII".into(), spec_for(SystemKind::Oxii, contention, false)),
    ];
    if contention > 0.0 {
        lines.push((
            "OXII*".into(),
            spec_for(SystemKind::Oxii, contention, true),
        ));
    }
    for (label, spec) in &lines {
        let points = walk_ladder(&ladder(spec.system), |rate| {
            measure_point(spec, rate, scale)
        });
        for point in points {
            table.row([
                label.clone(),
                format!("{:.0}", point.offered_tps),
                format!("{:.0}", point.throughput_tps),
                format!("{:.2}", point.latency_ms),
                format!("{:.3}", point.abort_rate),
                point.capped.to_string(),
            ]);
        }
    }
    table
}

/// **Fig 7**: latency vs throughput with one node group in a far
/// datacenter, no contention. Fig 7(a)=Clients, (b)=Orderers,
/// (c)=Executors, (d)=NonExecutors; OX is omitted for (c)/(d) exactly as
/// in the paper (it has no executor/non-executor distinction).
///
/// Rows and `capped` as in [`fig6_contention`].
#[must_use]
pub fn fig7_geo(moved: MovedGroup, scale: ExperimentScale) -> Table {
    let mut table = Table::new([
        "system",
        "offered_tps",
        "throughput_tps",
        "latency_ms",
        "capped",
    ]);
    let systems: Vec<SystemKind> = match moved {
        MovedGroup::Clients | MovedGroup::Orderers => {
            vec![SystemKind::Ox, SystemKind::Xov, SystemKind::Oxii]
        }
        MovedGroup::Executors | MovedGroup::NonExecutors => {
            vec![SystemKind::Xov, SystemKind::Oxii]
        }
    };
    for system in systems {
        let mut spec = spec_for(system, 0.0, false);
        spec.topology.moved = Some(moved);
        for point in walk_ladder(&ladder(system), |rate| measure_point(&spec, rate, scale)) {
            table.row([
                system.to_string(),
                format!("{:.0}", point.offered_tps),
                format!("{:.0}", point.throughput_tps),
                format!("{:.2}", point.latency_ms),
                point.capped.to_string(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_derives_from_report() {
        let report = RunReport {
            committed: 100,
            aborted: 100,
            blocks: 2,
            window: Duration::from_secs(1),
            latencies_us: vec![1000, 2000, 3000],
            messages: 42,
            ..RunReport::default()
        };
        let p = Point::from_report(500.0, &report);
        assert_eq!(p.offered_tps, 500.0);
        assert!((p.throughput_tps - 100.0).abs() < 1e-9);
        assert!((p.latency_ms - 2.0).abs() < 1e-9);
        assert!((p.abort_rate - 0.5).abs() < 1e-9);
        assert!(!p.capped);
    }

    /// A synthetic rung: `throughput` tx/s committed of `offered`, at
    /// `latency_ms`.
    fn rung(offered: f64, throughput: f64, latency_ms: f64) -> Point {
        Point {
            offered_tps: offered,
            throughput_tps: throughput,
            latency_ms,
            abort_rate: 0.0,
            capped: false,
        }
    }

    #[test]
    fn a_peak_the_top_rung_kept_up_with_is_capped() {
        // Every rung commits 94 % of its offered load, the top one too:
        // the ladder ran out before the system did.
        let ladder = ladder(SystemKind::Oxii);
        let points = walk_ladder(&ladder, |rate| rung(rate, 0.944 * rate, 5.0));
        assert_eq!(points.len(), ladder.len(), "no rung saturates");
        let peak = select_peak(&points);
        assert_eq!(peak.offered_tps, 12_000.0);
        assert!(peak.capped);
        assert!(points[..points.len() - 1].iter().all(|p| !p.capped));
    }

    #[test]
    fn a_peak_below_the_top_rung_is_not_capped() {
        // The system tops out at 5 000 tx/s: 8 000 and 12 000 both commit
        // about that, and the lower-latency one is the peak.
        let points = walk_ladder(&ladder(SystemKind::Oxii), |rate| {
            let latency = if rate > 10_000.0 { 300.0 } else { 40.0 };
            rung(rate, rate.min(5_000.0), latency)
        });
        let peak = select_peak(&points);
        assert_eq!(peak.offered_tps, 8_000.0);
        assert_eq!(peak.throughput_tps, 5_000.0);
        assert!(!peak.capped);
        assert!(
            points.iter().all(|p| !p.capped),
            "a saturated top rung is not capped"
        );
    }

    #[test]
    fn the_walk_stops_after_the_first_saturated_rung() {
        let points = walk_ladder(&ladder(SystemKind::Ox), |rate| {
            rung(rate, rate.min(1_000.0), 1.0)
        });
        // 2 000 commits 50 % (< 55 %): measured, and the last one.
        assert_eq!(points.len(), 3);
        assert_eq!(select_peak(&points).offered_tps, 1_000.0);
    }
}
