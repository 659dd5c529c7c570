//! Virtual-time leg of the lifecycle tracer (DESIGN.md §14): with
//! tracing enabled, the entire trace — every stage-gap histogram
//! bucket, every sampled timeline, the digest-gated trace group of the
//! report digest — must be a pure function of the cluster seed, so two
//! same-seed simulations encode byte-identical traces (separate
//! processes are pinned by the CI trace-smoke job via `repro trace`).

use std::time::Duration;

use parblock_types::{BlockCutConfig, ExecutionCosts};
use parblockchain::sim::{run_sim, SimConfig};
use parblockchain::{ClusterSpec, RunReport, Stage, SystemKind, TraceConfig};

fn traced_spec(seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::new(SystemKind::Oxii);
    spec.seed = seed;
    spec.block_cut = BlockCutConfig {
        max_txns: 25,
        max_bytes: usize::MAX,
        max_wait: Duration::from_millis(10),
    };
    spec.costs = ExecutionCosts::per_tx(Duration::from_micros(500));
    spec.workload.contention = 1.0;
    spec.trace = TraceConfig::on();
    spec
}

fn traced_run(seed: u64) -> RunReport {
    let mut sim = SimConfig::new(traced_spec(seed), 400, 1_000.0);
    sim.virtual_deadline = Duration::from_secs(2);
    run_sim(&sim).report
}

fn trace_bytes(report: &RunReport) -> Vec<u8> {
    let mut bytes = Vec::new();
    report.trace.encode_into(&mut bytes);
    bytes
}

#[test]
fn same_seed_traces_encode_byte_identically() {
    let a = traced_run(11);
    let b = traced_run(11);
    assert!(a.trace.finished > 0, "trace must complete transactions");
    assert_eq!(
        trace_bytes(&a),
        trace_bytes(&b),
        "same seed must reproduce the trace byte-for-byte"
    );
    assert_eq!(a.digest(), b.digest(), "digests must agree too");
}

#[test]
fn different_seeds_change_the_trace_digest() {
    let a = traced_run(11);
    let b = traced_run(12);
    assert_ne!(
        trace_bytes(&a),
        trace_bytes(&b),
        "the seed steers the workload, so the trace must move"
    );
}

#[test]
fn virtual_trace_walks_the_full_stage_ladder() {
    let report = traced_run(11);
    // Every pipeline gap of the in-memory leg must be populated:
    // submitted→sequenced→cut→graph-ready→dispatched→executed→
    // committed→durable.
    for (from, to) in [
        (Stage::Submitted, Stage::Sequenced),
        (Stage::Sequenced, Stage::Cut),
        (Stage::Cut, Stage::GraphReady),
        (Stage::GraphReady, Stage::Dispatched),
        (Stage::Dispatched, Stage::Executed),
        (Stage::Executed, Stage::Committed),
        (Stage::Committed, Stage::Durable),
    ] {
        let hist = report
            .trace
            .pair(from, to)
            .unwrap_or_else(|| panic!("missing stage gap {from}->{to}"));
        assert!(hist.count() > 0, "{from}->{to} recorded no samples");
    }
    // Virtual-time sanity: the inline executor completes exactly at
    // dispatch + the configured 500 µs cost, and the histogram clamps
    // a single-valued population to its exact value — so the
    // dispatched→executed gap must read 500 µs on the nose.
    let exec = report
        .trace
        .pair(Stage::Dispatched, Stage::Executed)
        .expect("checked above");
    assert_eq!(
        exec.percentile(0.5),
        500_000,
        "virtual execution gap must equal the cost model exactly"
    );
}

#[test]
fn disabled_tracing_keeps_the_report_inactive() {
    let mut spec = traced_spec(11);
    spec.trace = TraceConfig::default();
    let mut sim = SimConfig::new(spec, 200, 1_000.0);
    sim.virtual_deadline = Duration::from_secs(2);
    let report = run_sim(&sim).report;
    assert!(
        !report.trace.is_active(),
        "default-off tracing must record nothing"
    );
}
