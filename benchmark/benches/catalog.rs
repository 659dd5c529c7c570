//! Every metric the benchmark reports, by name: the single table behind
//! the printed results, the JSON line, BENCHMARK.json (`--manifest`) and
//! the `--repeat` agreement check.

use parblockchain::Stage;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the cluster would see, with
/// the share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

#[rustfmt::skip] // one metric per line reads as the table it is
pub const END_TO_END: [EndToEndDef; 4] = [
    EndToEndDef { name: "commit_p50_ms", unit: "ms", better: Better::Lower, bound: 0.20 },
    EndToEndDef { name: "commit_p99_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "rss_peak_mib", unit: "MiB", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// A per-layer metric and what it is expected to move.
#[derive(Debug, Clone)]
pub struct LayerDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this should move, for the
    /// printed table and the README; BENCHMARK.json has no field for it.
    pub moves: &'static str,
}

/// Stage gaps a pessimistic OXII run records. Own-application
/// transactions cross every stage; the observer never dispatches another
/// application's transactions, so those go from graph-ready (or, when a
/// COMMIT arrives first, from cut) straight to committed. Only the entry
/// orderer stamps `cut`, and a NEWBLOCK from a faster orderer can make a
/// transaction graph-ready first, which records sequenced → graph-ready.
/// `validated` exists only under the optimistic engine, which no workload
/// uses.
pub const GAPS: [(Stage, Stage); 10] = [
    (Stage::Submitted, Stage::Sequenced),
    (Stage::Sequenced, Stage::Cut),
    (Stage::Sequenced, Stage::GraphReady),
    (Stage::Cut, Stage::GraphReady),
    (Stage::Cut, Stage::Committed),
    (Stage::GraphReady, Stage::Dispatched),
    (Stage::GraphReady, Stage::Committed),
    (Stage::Dispatched, Stage::Executed),
    (Stage::Executed, Stage::Committed),
    (Stage::Committed, Stage::Durable),
];

pub fn gap_name(from: Stage, to: Stage, percentile: &str) -> String {
    format!("core.gap.{from}_{to}.{percentile}_ms")
}

pub fn per_layer() -> Vec<LayerDef> {
    use Better::{Higher, Lower};
    const CPU_OVERHEAD: &str =
        "core.drain_tps, core.drain_cpu_us_per_tx on overhead; none on contended";
    const GRAPH: &str = "commit_p50_ms, core.drain_tps on contended, crossapp; ~0 on overhead";
    const STORE: &str = "commit_p99_ms, core.drain_tps on durable; zero elsewhere";
    const GAP: &str = "commit_p50_ms, commit_p99_ms where this gap is largest";
    const NONE: &str = "none: describes the generator or the tracer, not the system";
    #[rustfmt::skip] // one metric per line reads as the table it is
    let fixed: [(&str, &'static str, Better, &'static str); 49] = [
        ("types.wire_encode_ns_per_tx", "ns", Lower, CPU_OVERHEAD),
        ("types.wire_decode_ns_per_tx", "ns", Lower, CPU_OVERHEAD),
        ("types.tx_bytes", "B", Lower, CPU_OVERHEAD),
        ("crypto.sign_ns_per_tx", "ns", Lower, CPU_OVERHEAD),
        ("crypto.verify_ns_per_tx", "ns", Lower, CPU_OVERHEAD),
        ("crypto.block_hash_ns_per_tx", "ns", Lower, CPU_OVERHEAD),
        ("consensus.order_ns_per_tx", "ns", Lower, "core.drain_cpu_us_per_tx on overhead; commit_p50_ms everywhere"),
        ("consensus.msgs_per_batch", "count", Lower, "core.drain_cpu_us_per_tx on overhead; commit_p50_ms everywhere"),
        ("network.send_recv_us", "us", Lower, "commit_p50_ms everywhere (five hops per commit)"),
        ("network.multicast_ns_per_dest", "ns", Lower, "core.drain_tps, core.drain_cpu_us_per_tx on overhead, crossapp"),
        ("network.msgs_per_tx", "count", Lower, "core.drain_tps, core.drain_cpu_us_per_tx on overhead, crossapp"),
        ("depgraph.observe_ns_per_tx", "ns", Lower, GRAPH),
        ("depgraph.finish_ns_per_block", "ns", Lower, GRAPH),
        ("depgraph.edges_per_tx", "count", Lower, GRAPH),
        ("depgraph.ready_release_ns_per_tx", "ns", Lower, GRAPH),
        ("depgraph.crossblock_admit_ns_per_tx", "ns", Lower, GRAPH),
        ("depgraph.critical_path_per_block", "count", Lower, GRAPH),
        ("depgraph.permitted_parallelism", "count", Higher, GRAPH),
        ("contracts.execute_ns_per_tx", "ns", Lower, "core.drain_cpu_us_per_tx on overhead"),
        ("ledger.mvcc_put_ns_per_write", "ns", Lower, "core.drain_cpu_us_per_tx everywhere; core.drain_tps on contended"),
        ("ledger.mvcc_get_ns_per_read", "ns", Lower, "core.drain_cpu_us_per_tx everywhere; core.drain_tps on contended"),
        ("ledger.mvcc_prune_ns_per_block", "ns", Lower, "core.drain_cpu_us_per_tx everywhere"),
        ("ledger.versions_per_hot_key", "count", Lower, "core.drain_tps on contended (long hot-key chains)"),
        ("store.log_effects_ns_per_tx", "ns", Lower, STORE),
        ("store.seal_us_per_block", "us", Lower, STORE),
        ("store.wal_bytes_per_tx", "B", Lower, STORE),
        ("store.fsyncs_per_block", "count", Lower, STORE),
        ("store.seal.p50_ms", "ms", Lower, STORE),
        ("store.seal.p99_ms", "ms", Lower, STORE),
        ("store.fsync_probe_us", "us", Lower, "none: this sandbox's disk, the floor under store.seal"),
        ("core.cutter_push_ns_per_tx", "ns", Lower, CPU_OVERHEAD),
        ("core.txs_per_block", "count", Higher, "commit_p50_ms (fill wait) against core.drain_tps (per-block costs)"),
        ("core.fill_wait_ms", "ms", Lower, "configuration: time to fill or time-cut a block at the steady rate, part of every steady latency"),
        ("core.pipeline_occupancy_mean", "count", Higher, "core.drain_tps on contended, crossapp"),
        ("core.boundary_stall_ms_per_block", "ms", Lower, "core.drain_tps on contended, crossapp"),
        ("core.sched_efficiency", "ratio", Higher, "core.drain_tps on contended, crossapp; zero without a cost model"),
        ("core.idle_cpu_cores", "cores", Lower, "core.steady_cpu_cores only"),
        ("core.steady_cpu_cores", "cores", Lower, "none: process CPU over a steady segment, generator included"),
        ("core.replay_us_per_tx", "us", Lower, "core.steady_cpu_us_per_tx: the share the layers explain"),
        ("core.budget_residual_us_per_tx", "us", Lower, "core.steady_cpu_us_per_tx: wakeups, queues, polling, contention"),
        ("core.steady_cpu_us_per_tx", "us", Lower, "commit_p50_ms, commit_p99_ms on overhead as it nears cores x 1e6 / rate; base of the residual"),
        ("core.drain_cpu_us_per_tx", "us", Lower, "core.drain_tps on overhead: saturated, it is about cores / this"),
        ("core.drain_tps", "tx/s", Higher, "peak throughput: first submit to last commit of a drain; base of sched_efficiency"),
        ("workload.gen_ns_per_tx", "ns", Lower, NONE),
        ("workload.late_share", "ratio", Lower, NONE),
        ("workload.max_lag_ms", "ms", Lower, NONE),
        ("workload.failed_share", "ratio", Lower, "none: (submitted - committed) / submitted, expected 0"),
        ("trace.hist_record_ns", "ns", Lower, NONE),
        ("trace.overhead_share", "ratio", Lower, NONE),
    ];
    let mut defs: Vec<LayerDef> = fixed
        .into_iter()
        .map(|(name, unit, better, moves)| LayerDef {
            name: name.to_string(),
            unit,
            better,
            moves,
        })
        .collect();
    for (from, to) in GAPS {
        for percentile in ["p50", "p99"] {
            defs.push(LayerDef {
                name: gap_name(from, to, percentile),
                unit: "ms",
                better: Lower,
                moves: GAP,
            });
        }
    }
    defs
}
