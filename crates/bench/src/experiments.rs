//! The figure-level experiments (§V of the paper).

use std::time::Duration;

use parblockchain::{
    run, run_fixed, ClusterSpec, CommitFlush, GraphConstruction, LoadSpec,
    MovedGroup, RunReport, SystemKind,
};
use parblock_depgraph::{ConflictStats, DependencyGraph, DependencyMode};
use parblock_types::{Block, BlockCutConfig, BlockNumber, ExecutionCosts, Hash32};
use parblock_workload::{WorkloadConfig, WorkloadGen};

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
/// see [`ablation_streaming`] and the `depgraph` Criterion bench.)
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
/// subject here; [`fig5_block_size`] pins the paper pipeline and
/// [`ablation_streaming`] quantifies the difference.
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

/// **Ablation**: Algorithm 2's cut-based COMMIT multicast vs the naive
/// per-transaction multicast the paper rejects (§IV-C), measured as
/// network messages per committed transaction under cross-application
/// contention.
#[must_use]
pub fn ablation_commit_batching(scale: ExperimentScale) -> Table {
    let mut table = Table::new([
        "strategy",
        "committed",
        "messages",
        "msgs_per_tx",
        "throughput_tps",
    ]);
    for (label, flush) in [
        ("cut (Algorithm 2)", CommitFlush::Cut),
        ("per-transaction", CommitFlush::PerTransaction),
    ] {
        let mut spec = spec_for(SystemKind::Oxii, 0.5, true);
        spec.commit_flush = flush;
        let report = run(&spec, &scale.load(2_000.0));
        let per_tx = if report.committed == 0 {
            0.0
        } else {
            report.messages as f64 / report.committed as f64
        };
        table.row([
            label.to_string(),
            report.committed.to_string(),
            report.messages.to_string(),
            format!("{per_tx:.1}"),
            format!("{:.0}", report.throughput_tps()),
        ]);
    }
    table
}

/// **Ablation**: streaming vs batch dependency-graph construction at the
/// orderer, across Fig 5 block sizes under the paper's literal O(n²)
/// [`DependencyMode::Full`] pipeline.
///
/// `batch` rebuilds the graph between cutting a block and multicasting
/// `NEWBLOCK` — the orderer-side load behind the Fig 5 rolloff
/// ("generating the dependency graph … increases the load on the
/// orderers", §IV-B). `streaming` amortises the same work over the
/// delivered transaction stream, so cut-time emission is O(pending) and
/// the rolloff flattens as blocks grow.
#[must_use]
pub fn ablation_streaming(scale: ExperimentScale) -> Table {
    let mut table = Table::new([
        "block_size",
        "construction",
        "peak_tps",
        "latency_ms",
    ]);
    let sizes = [100usize, 400, 1000];
    for &size in &sizes {
        for (label, construction) in [
            ("batch", GraphConstruction::Batch),
            ("streaming", GraphConstruction::Streaming),
        ] {
            let mut spec = spec_for(SystemKind::Oxii, 0.0, false);
            spec.block_cut = BlockCutConfig::with_max_txns(size);
            spec.depgraph_mode = DependencyMode::Full;
            spec.graph_construction = construction;
            let point = peak_search(&spec, &ladder(SystemKind::Oxii), scale);
            table.row([
                size.to_string(),
                label.to_string(),
                format!("{:.0}", point.throughput_tps),
                format!("{:.2}", point.latency_ms),
            ]);
        }
    }
    table
}

/// **Ablation**: the executor's cross-block execution pipeline
/// (DESIGN.md §7) vs the paper's strict block-at-a-time barrier
/// (`exec_pipeline_depth = 1`), under the accounting workload.
///
/// The cluster is tuned so the executor — not the orderer — is the
/// bottleneck (heavier per-transaction cost, fatter links so the
/// end-of-block COMMIT exchange is a visible tail): at depth 1 every
/// block pays `execute + commit-tail` serially, while at depth ≥ 2 the
/// next block's independent transactions execute under the previous
/// block's commit tail. A fixed transaction count is pushed at a rate
/// above the depth-1 service capacity; committed throughput over the
/// submit→last-commit window is the measure, and the boundary-stall /
/// occupancy metrics show the mechanism. Rising contention shrinks the
/// win: cross-block conflicts chain blocks back together.
#[must_use]
pub fn ablation_pipeline(scale: ExperimentScale) -> Table {
    let mut table = Table::new([
        "contention",
        "depth",
        "throughput_tps",
        "latency_ms",
        "stall_ms",
        "max_occupancy",
    ]);
    let count = match scale {
        ExperimentScale::Quick => 3_000,
        ExperimentScale::Full => 9_000,
    };
    for contention in [0.0, 0.5, 0.9] {
        for depth in [1usize, 2, 4] {
            let mut spec = spec_for(SystemKind::Oxii, contention, false);
            spec.exec_pipeline_depth = depth;
            spec.block_cut = BlockCutConfig::with_max_txns(100);
            spec.costs = ExecutionCosts::per_tx(Duration::from_micros(500));
            spec.exec_pool = 8;
            spec.batch_max = 256;
            spec.topology.intra = Duration::from_millis(2);
            let report = run_fixed(&spec, count, 30_000.0, Duration::from_secs(120));
            let max_occupancy = report.max_occupancy();
            table.row([
                format!("{:.0}%", contention * 100.0),
                depth.to_string(),
                format!("{:.0}", report.throughput_tps()),
                format!("{:.2}", report.avg_latency().as_secs_f64() * 1e3),
                format!("{:.2}", report.boundary_stall.as_secs_f64() * 1e3),
                max_occupancy.to_string(),
            ]);
        }
    }
    table
}

/// **Ablation**: durability overhead — the executor-bound pipeline
/// cluster of [`ablation_pipeline`] run with durability off
/// (`InMemory`), with the default group-commit cadence, and with an
/// aggressive fsync-per-8-records cadence. Reports throughput, latency,
/// and the new durability counters (WAL volume, fsync barriers,
/// checkpoints), quantifying what persist-before-COMMIT costs on the
/// hot path.
#[must_use]
pub fn ablation_durability(scale: ExperimentScale) -> Table {
    let mut table = Table::new([
        "durability",
        "flush_interval",
        "throughput_tps",
        "latency_ms",
        "wal_mb",
        "fsyncs",
        "checkpoints",
    ]);
    let count = match scale {
        ExperimentScale::Quick => 3_000,
        ExperimentScale::Full => 9_000,
    };
    let base = std::env::temp_dir().join(format!("parblock-abl-dur-{}", std::process::id()));
    let variants: [(&str, Option<usize>); 3] =
        [("in-memory", None), ("on-disk", Some(64)), ("on-disk", Some(8))];
    for (i, (label, flush)) in variants.into_iter().enumerate() {
        let mut spec = spec_for(SystemKind::Oxii, 0.0, false);
        spec.exec_pipeline_depth = 2;
        spec.block_cut = BlockCutConfig::with_max_txns(100);
        spec.costs = ExecutionCosts::per_tx(Duration::from_micros(500));
        spec.exec_pool = 8;
        spec.batch_max = 256;
        spec.topology.intra = Duration::from_millis(2);
        spec.durability = match flush {
            None => parblockchain::DurabilityMode::InMemory,
            Some(flush_interval) => {
                spec.durability_config.flush_interval = flush_interval;
                parblockchain::DurabilityMode::OnDisk {
                    data_dir: base.join(format!("variant-{i}")),
                    fresh: true,
                }
            }
        };
        let report = run_fixed(&spec, count, 30_000.0, Duration::from_secs(120));
        table.row([
            label.to_string(),
            flush.map_or_else(|| "-".to_string(), |f| f.to_string()),
            format!("{:.0}", report.throughput_tps()),
            format!("{:.2}", report.avg_latency().as_secs_f64() * 1e3),
            format!("{:.2}", report.wal_bytes_written as f64 / 1e6),
            report.fsync_count.to_string(),
            report.checkpoint_count.to_string(),
        ]);
    }
    let _ = std::fs::remove_dir_all(&base);
    table
}

/// **Ablation**: single-version vs multi-version dependency rules
/// (§III-A's multi-version adaptation): edge count and critical path on
/// identical blocks. Pure graph analysis — no cluster needed.
///
/// The accounting workload's conflicts are all read-modify-write, where
/// every pair also has a W→R dependency and MV prunes nothing; the MV
/// advantage shows on blind writes and pure reads. This ablation
/// therefore measures two workloads: the paper's RMW transfers, and a
/// blind-write/reader mix (`KvOp::Put` / read-only `KvOp::Mix`) over the
/// same hot keys.
#[must_use]
pub fn ablation_mv_graph() -> Table {
    use parblock_contracts::{KvContract, KvOp};
    use parblock_types::{AppId, ClientId, Key};

    let mut table = Table::new([
        "workload",
        "contention",
        "mode",
        "edges",
        "critical_path",
    ]);
    let modes = [
        ("full", DependencyMode::Full),
        ("reduced", DependencyMode::Reduced),
        ("multi-version", DependencyMode::MultiVersion),
    ];

    // Paper workload: read-modify-write transfers.
    for contention in [0.2, 0.8, 1.0] {
        let mut gen = WorkloadGen::new(WorkloadConfig {
            contention,
            block_size: 200,
            ..WorkloadConfig::default()
        });
        let block = Block::new(BlockNumber(1), Hash32::ZERO, gen.window());
        for (label, mode) in modes {
            let graph = DependencyGraph::build(&block, mode);
            let stats = ConflictStats::compute(&graph);
            table.row([
                "rmw-transfer".to_string(),
                format!("{:.0}%", contention * 100.0),
                label.to_string(),
                stats.edges.to_string(),
                stats.critical_path.to_string(),
            ]);
        }
    }

    // Blind-write / reader mix: `contention`·n transactions alternate
    // between blind writes of a hot key and pure reads of it.
    for contention in [0.2, 0.8, 1.0] {
        let contract = KvContract::new(AppId(0));
        let n = 200usize;
        let hot_txs = (contention * n as f64).round() as usize;
        let mut txs = Vec::with_capacity(n);
        for i in 0..n {
            let op = if i < hot_txs {
                if i % 2 == 0 {
                    KvOp::Put { key: Key(1), value: i as i64 }
                } else {
                    KvOp::Mix { reads: vec![Key(1)], writes: vec![Key(1000 + i as u64)] }
                }
            } else {
                KvOp::Put { key: Key(10_000 + i as u64), value: 0 }
            };
            txs.push(contract.transaction(ClientId(1), i as u64, &op));
        }
        let block = Block::new(BlockNumber(1), Hash32::ZERO, txs);
        for (label, mode) in modes {
            let graph = DependencyGraph::build(&block, mode);
            let stats = ConflictStats::compute(&graph);
            table.row([
                "blind-write/read".to_string(),
                format!("{:.0}%", contention * 100.0),
                label.to_string(),
                stats.edges.to_string(),
                stats.critical_path.to_string(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mv_ablation_shapes() {
        let table = ablation_mv_graph();
        assert_eq!(table.len(), 18); // 2 workloads × 3 contentions × 3 modes
        let csv = table.to_csv();
        assert!(csv.contains("multi-version"));
        assert!(csv.contains("blind-write/read"));
    }

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
