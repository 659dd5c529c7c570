//! The figure-level experiments (§V of the paper).

use std::time::Duration;

use parblockchain::{
    run, ClusterSpec, GraphConstruction, LoadSpec, MovedGroup, RunReport, SystemKind,
};
use parblock_depgraph::DependencyMode;
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
}

impl Point {
    fn from_report(offered: f64, report: &RunReport) -> Self {
        Point {
            offered_tps: offered,
            throughput_tps: report.throughput_tps(),
            latency_ms: report.avg_latency().as_secs_f64() * 1e3,
            abort_rate: report.abort_rate(),
        }
    }
}

/// Measures one (spec, rate) point.
#[must_use]
pub fn measure_point(spec: &ClusterSpec, rate_tps: f64, scale: ExperimentScale) -> Point {
    let report = run(spec, &scale.load(rate_tps));
    Point::from_report(rate_tps, &report)
}

/// Finds the peak throughput of a configuration by walking a rate ladder.
///
/// The paper reports "the peak throughput and the corresponding average
/// end-to-end latency … just below saturation": accordingly, among the
/// points within 7 % of the maximum achieved throughput, the one with the
/// lowest latency is returned (the highest rate usually sits *past*
/// saturation with queueing-inflated latency).
#[must_use]
pub fn peak_search(spec: &ClusterSpec, rates: &[f64], scale: ExperimentScale) -> Point {
    let mut points: Vec<Point> = Vec::new();
    for &rate in rates {
        let point = measure_point(spec, rate, scale);
        let saturated = point.throughput_tps < 0.55 * rate;
        points.push(point);
        if saturated {
            break; // further rates only grow the queues
        }
    }
    let max_tps = points
        .iter()
        .map(|p| p.throughput_tps)
        .fold(0.0f64, f64::max);
    points
        .into_iter()
        .filter(|p| p.throughput_tps >= 0.93 * max_tps)
        .min_by(|a, b| a.latency_ms.total_cmp(&b.latency_ms))
        .expect("at least one rate")
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
/// OXII uses the paper's literal pipeline here: O(n²) pairwise graph
/// construction ([`DependencyMode::Full`]) rebuilt at cut time
/// ([`GraphConstruction::Batch`]) — the quadratic generation cost is
/// exactly what produces the paper's throughput rolloff past
/// ~200 tx/block. (This reproduction's optimizations — the `Reduced`
/// builder and streaming construction — remove most of that rolloff;
/// EXPERIMENTS.md, "Streaming-construction ablation".)
#[must_use]
pub fn fig5_block_size(scale: ExperimentScale) -> Table {
    let mut table = Table::new([
        "block_size",
        "system",
        "peak_tps",
        "latency_ms",
    ]);
    let sizes = [10usize, 50, 100, 200, 400, 700, 1000];
    for &size in &sizes {
        for system in [SystemKind::Ox, SystemKind::Xov, SystemKind::Oxii] {
            let mut spec = spec_for(system, 0.0, false);
            spec.block_cut = BlockCutConfig::with_max_txns(size);
            spec.depgraph_mode = DependencyMode::Full;
            spec.graph_construction = GraphConstruction::Batch;
            let point = peak_search(&spec, &ladder(system), scale);
            table.row([
                size.to_string(),
                system.to_string(),
                format!("{:.0}", point.throughput_tps),
                format!("{:.2}", point.latency_ms),
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
/// OXII runs this reproduction's default pipeline (`Reduced` graphs,
/// streaming construction), not the paper's literal O(n²)
/// rebuild-at-cut — contention effects, not orderer graph cost, are the
/// subject here; [`fig5_block_size`] pins the paper pipeline.
#[must_use]
pub fn fig6_contention(contention: f64, scale: ExperimentScale) -> Table {
    let mut table = Table::new([
        "system",
        "offered_tps",
        "throughput_tps",
        "latency_ms",
        "abort_rate",
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
        let system = spec.system;
        for &rate in &ladder(system) {
            let point = measure_point(spec, rate, scale);
            table.row([
                label.clone(),
                format!("{:.0}", point.offered_tps),
                format!("{:.0}", point.throughput_tps),
                format!("{:.2}", point.latency_ms),
                format!("{:.3}", point.abort_rate),
            ]);
            // Stop a line once it is fully saturated (achieved < 55 % of
            // offered): further points only melt the mailboxes.
            if point.throughput_tps < 0.55 * rate {
                break;
            }
        }
    }
    table
}

/// **Fig 7**: latency vs throughput with one node group in a far
/// datacenter, no contention. Fig 7(a)=Clients, (b)=Orderers,
/// (c)=Executors, (d)=NonExecutors; OX is omitted for (c)/(d) exactly as
/// in the paper (it has no executor/non-executor distinction).
///
/// Like [`fig6_contention`], OXII runs the reproduction's default
/// pipeline (`Reduced` graphs, streaming construction): the subject is
/// wide-area placement, not orderer graph cost.
#[must_use]
pub fn fig7_geo(moved: MovedGroup, scale: ExperimentScale) -> Table {
    let mut table = Table::new([
        "system",
        "offered_tps",
        "throughput_tps",
        "latency_ms",
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
        for &rate in &ladder(system) {
            let point = measure_point(&spec, rate, scale);
            table.row([
                system.to_string(),
                format!("{:.0}", point.offered_tps),
                format!("{:.0}", point.throughput_tps),
                format!("{:.2}", point.latency_ms),
            ]);
            if point.throughput_tps < 0.55 * rate {
                break;
            }
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
    }
}
