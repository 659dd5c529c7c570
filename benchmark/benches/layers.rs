//! The traced run: the replay, the probes of single layers, and one
//! untraced and one traced steady segment plus a drain, from which every
//! per-layer metric is taken. End-to-end metrics never come from here.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use parblock_types::ArrivalProcess;
use parblockchain::{LoadSpec, TraceConfig};

use crate::catalog::{gap_name, GAPS};
use crate::e2e::STEADY_SHARE;
use crate::phases::{self, Ctx, Gate, SteadyShape};
use crate::procfs;
use crate::replay::{self, Multiplicity};
use crate::spans::{Spans, LANE_PHASE};

/// How a traced run of `seconds` is cut up.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub replay_blocks: usize,
    pub probe_rounds: usize,
    pub steady: SteadyShape,
    pub drain_txs: usize,
    pub idle: Duration,
}

impl Plan {
    pub fn full(ctx: &Ctx, seconds: f64) -> Self {
        Plan {
            replay_blocks: (seconds * 10.0) as usize,
            probe_rounds: 500,
            steady: SteadyShape::of(seconds * STEADY_SHARE),
            drain_txs: ctx.workload.drain_txs(seconds),
            idle: Duration::from_secs_f64(seconds * 0.1),
        }
    }

    pub fn smoke(ctx: &Ctx) -> Self {
        Plan {
            replay_blocks: 10,
            probe_rounds: 50,
            steady: SteadyShape::of(0.9),
            drain_txs: ctx.workload.drain_txs(1.0),
            idle: Duration::from_millis(300),
        }
    }
}

/// The outcome of a traced run: a value for some of the catalogued
/// per-layer metrics (the rest read zero) and where the spans went.
#[derive(Debug)]
pub struct Layers {
    pub values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub trace_file: PathBuf,
}

pub fn run(ctx: &Ctx, plan: &Plan, out_dir: &Path) -> Gate<Layers> {
    let w = ctx.workload;
    let spec = w.spec(ctx.seed, &ctx.data_dir, false);
    let mut spans = Spans::new();
    let mut values = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };

    // Single layers, single-threaded.
    let store_dir = ctx.data_dir.join("replay");
    let r = replay::replay(
        &spec,
        plan.replay_blocks,
        w.durable.then_some(&*store_dir),
        &mut spans,
    )?;
    let (send_recv_us, multicast_ns_per_dest) =
        replay::network_probe(&spec, plan.probe_rounds, &mut spans);
    set("trace.hist_record_ns", replay::hist_record_ns(1_000_000));
    if w.durable {
        set(
            "store.fsync_probe_us",
            replay::fsync_probe_us(&ctx.data_dir, 20)?,
        );
        set("store.log_effects_ns_per_tx", r.log_effects_ns_per_tx);
        set("store.seal_us_per_block", r.seal_us_per_block);
    }
    ctx.wipe_data_dir();

    // The cluster, untraced: the drain is the base of scheduler
    // efficiency; the steady segment is the base of the CPU budget and of
    // the traced segment's overhead.
    let started = Instant::now();
    let drain = phases::drain(ctx, plan.drain_txs)?;
    spans.close("drain", LANE_PHASE, started, None);
    if w.durable {
        phases::recovered_matches(ctx, &drain)?;
    }
    let started = Instant::now();
    let untraced = phases::steady(ctx, plan.steady, TraceConfig::default());
    spans.close("steady (untraced)", LANE_PHASE, started, None);
    let started = Instant::now();
    let traced = phases::steady(ctx, plan.steady, TraceConfig::on());
    spans.close("steady (traced)", LANE_PHASE, started, None);

    // An idle cluster: what the polling loops burn with nothing to do.
    let started = Instant::now();
    let cpu_before = procfs::process_cpu();
    let idle = parblockchain::run(
        &spec,
        &LoadSpec {
            rate_tps: 1.0,
            duration: plan.idle,
            drain: Duration::from_millis(300),
            arrival: ArrivalProcess::Uniform,
            warmup: Duration::ZERO,
            cooldown: Duration::ZERO,
            max_outstanding: None,
        },
    );
    let idle_cores =
        (procfs::process_cpu() - cpu_before).as_secs_f64() / started.elapsed().as_secs_f64();
    spans.close("idle", LANE_PHASE, started, None);
    ctx.wipe_data_dir();

    set("types.wire_encode_ns_per_tx", r.wire_encode_ns_per_tx);
    set("types.wire_decode_ns_per_tx", r.wire_decode_ns_per_tx);
    set("types.tx_bytes", r.tx_bytes);
    set("crypto.sign_ns_per_tx", r.sign_ns_per_tx);
    set("crypto.verify_ns_per_tx", r.verify_ns_per_tx);
    set("crypto.block_hash_ns_per_tx", r.block_hash_ns_per_tx);
    set("consensus.order_ns_per_tx", r.order_ns_per_tx);
    set("consensus.msgs_per_batch", r.msgs_per_batch);
    let msgs_per_tx = drain.report.messages as f64 / drain.txs as f64;
    set("network.send_recv_us", send_recv_us);
    set("network.multicast_ns_per_dest", multicast_ns_per_dest);
    set("network.msgs_per_tx", msgs_per_tx);
    set("depgraph.observe_ns_per_tx", r.observe_ns_per_tx);
    set("depgraph.finish_ns_per_block", r.finish_ns_per_block);
    set("depgraph.edges_per_tx", r.edges_per_tx);
    set(
        "depgraph.ready_release_ns_per_tx",
        r.ready_release_ns_per_tx,
    );
    set(
        "depgraph.crossblock_admit_ns_per_tx",
        r.crossblock_admit_ns_per_tx,
    );
    set(
        "depgraph.critical_path_per_block",
        r.critical_path_per_block,
    );
    set("depgraph.permitted_parallelism", r.permitted_parallelism);
    set("contracts.execute_ns_per_tx", r.execute_ns_per_tx);
    set("ledger.mvcc_put_ns_per_write", r.mvcc_put_ns_per_write);
    set("ledger.mvcc_get_ns_per_read", r.mvcc_get_ns_per_read);
    set("ledger.mvcc_prune_ns_per_block", r.mvcc_prune_ns_per_block);
    set("ledger.versions_per_hot_key", r.versions_per_hot_key);
    set("core.cutter_push_ns_per_tx", r.cutter_push_ns_per_tx);
    set("workload.gen_ns_per_tx", r.gen_ns_per_tx);

    let blocks = drain.report.blocks.max(1) as f64;
    if w.durable {
        set(
            "store.wal_bytes_per_tx",
            drain.report.wal_bytes_written as f64 / drain.txs as f64,
        );
        set(
            "store.fsyncs_per_block",
            drain.report.fsync_count as f64 / blocks,
        );
        set(
            "store.seal.p50_ms",
            traced.report.trace.seal.percentile(0.50) as f64 / 1e6,
        );
        set(
            "store.seal.p99_ms",
            traced.report.trace.seal.percentile(0.99) as f64 / 1e6,
        );
    }
    for pair in &traced.report.trace.pairs {
        if !GAPS.contains(&(pair.from, pair.to)) {
            eprintln!(
                "  stage gap {}->{} is not in the catalogue and is not reported",
                pair.from, pair.to
            );
            continue;
        }
        set(
            &gap_name(pair.from, pair.to, "p50"),
            pair.hist.percentile(0.50) as f64 / 1e6,
        );
        set(
            &gap_name(pair.from, pair.to, "p99"),
            pair.hist.percentile(0.99) as f64 / 1e6,
        );
    }

    set(
        "core.txs_per_block",
        untraced.report.committed as f64 / untraced.report.blocks.max(1) as f64,
    );
    set("core.fill_wait_ms", w.fill_wait_ms());
    let occupancy = &drain.report.pipeline_occupancy;
    let starts: u64 = occupancy.iter().sum();
    let weighted: u64 = occupancy
        .iter()
        .enumerate()
        .map(|(depth, &n)| depth as u64 * n)
        .sum();
    set(
        "core.pipeline_occupancy_mean",
        weighted as f64 / starts.max(1) as f64,
    );
    set(
        "core.boundary_stall_ms_per_block",
        drain.report.boundary_stall.as_secs_f64() * 1e3 / blocks,
    );
    if !w.cost.is_zero() {
        // What the dependency graph permits: with unbounded workers the
        // stream takes (longest chain) x (cost per transaction).
        let chain = replay::stream_critical_path(&spec, drain.txs);
        let permitted_tps = drain.txs as f64 / (chain as f64 * w.cost.as_secs_f64());
        set("core.sched_efficiency", drain.tps / permitted_tps);
    }
    set("core.idle_cpu_cores", idle_cores);
    set("core.steady_cpu_cores", untraced.cpu_cores);
    let replay_us =
        Multiplicity::replay_us_per_tx(&r, msgs_per_tx * multicast_ns_per_dest, w.durable);
    set("core.replay_us_per_tx", replay_us);
    set(
        "core.budget_residual_us_per_tx",
        untraced.cpu_us_per_tx - replay_us,
    );
    set("core.steady_cpu_us_per_tx", untraced.cpu_us_per_tx);
    set("core.drain_cpu_us_per_tx", drain.cpu_us_per_tx);
    set("core.drain_tps", drain.tps);

    set("workload.late_share", untraced.late_share);
    set(
        "workload.max_lag_ms",
        untraced.report.driver_max_lag.as_secs_f64() * 1e3,
    );
    let reports = [&drain.report, &untraced.report, &traced.report, &idle];
    let attempted: u64 = reports.iter().map(|r| r.submitted).sum();
    let committed: u64 = reports.iter().map(|r| r.committed).sum();
    set(
        "workload.failed_share",
        (attempted - committed) as f64 / attempted as f64,
    );
    set(
        "trace.overhead_share",
        traced.p50_ms / untraced.p50_ms - 1.0,
    );

    let trace_file = out_dir.join(format!("trace-{}.json", w.name));
    spans
        .write_chrome_trace(&trace_file)
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
    Ok(Layers {
        values,
        attempted,
        failed: attempted - committed,
        trace_file,
    })
}
