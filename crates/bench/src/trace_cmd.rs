//! The `repro trace` subcommand: per-transaction lifecycle breakdowns
//! (DESIGN.md §14) rendered as a stage-gap table, a machine-readable
//! `BENCH_trace.json` artifact, and a Chrome trace-event export of the
//! sampled timelines (loadable in Perfetto / `chrome://tracing`).
//!
//! The threaded leg profiles the real cluster on this host; the `--sim`
//! leg runs the identical load in virtual time, where the whole trace —
//! every histogram bucket, every sampled timeline — is a pure function
//! of the seed and two runs produce byte-identical artifacts (the CI
//! trace-smoke job pins exactly that).

// Experiment artifacts are measurement plumbing, not replicated
// durability, so they stay outside parblock_store (DESIGN.md §12).
#![expect(
    clippy::disallowed_methods,
    reason = "writes BENCH_trace*.json and wipes the on-disk trace run's scratch dir"
)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use parblock_types::{BlockCutConfig, ExecutionCosts};
use parblockchain::sim::{run_sim, SimConfig};
use parblockchain::{
    run, ClusterSpec, DurabilityMode, Histogram, LoadSpec, RunReport, Stage, SystemKind,
    TraceConfig,
};

use crate::experiments::ExperimentScale;
use crate::table::Table;

/// Where the JSON breakdown artifact lands (next to the CSVs).
pub const JSON_ARTIFACT: &str = "bench_results/BENCH_trace.json";
/// Where the Chrome trace-event export lands.
pub const EVENTS_ARTIFACT: &str = "bench_results/BENCH_trace_events.json";

/// CLI-shaped options for one traced run.
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Offered rate (tps) of the traced run.
    pub rate_tps: f64,
    /// Run the deterministic virtual-time leg instead of the threaded
    /// cluster.
    pub sim: bool,
    /// Persist every node through `parblock_store` into a scratch
    /// directory (wiped afterwards) instead of in-memory.
    pub on_disk: bool,
    /// Workload contention in `[0, 1]`.
    pub contention: f64,
    /// Cluster seed — the sim leg's artifacts are a pure function of it.
    pub seed: u64,
    /// Run length: `Quick` is a 1 s window, `Full` 2 s.
    pub scale: ExperimentScale,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            rate_tps: 2_000.0,
            sim: false,
            on_disk: false,
            contention: 0.2,
            seed: 42,
            scale: ExperimentScale::Quick,
        }
    }
}

impl TraceOptions {
    fn duration(&self) -> Duration {
        match self.scale {
            ExperimentScale::Quick => Duration::from_millis(1_000),
            ExperimentScale::Full => Duration::from_secs(2),
        }
    }

    fn spec(&self, data_dir: Option<&Path>) -> ClusterSpec {
        let mut spec = ClusterSpec::new(SystemKind::Oxii);
        spec.block_cut = BlockCutConfig::with_max_txns(100);
        spec.costs = ExecutionCosts::per_tx(Duration::from_micros(500));
        spec.workload.contention = self.contention;
        spec.seed = self.seed;
        spec.trace = TraceConfig::on();
        spec.durability = match data_dir {
            Some(dir) => DurabilityMode::OnDisk {
                data_dir: dir.to_path_buf(),
                fresh: true,
            },
            None => DurabilityMode::InMemory,
        };
        spec
    }
}

/// Runs the load the options describe, tracing enabled, and returns the
/// report (its `trace` field carries the lifecycle breakdown).
#[must_use]
pub fn run_trace(options: &TraceOptions) -> RunReport {
    let scratch: Option<PathBuf> = options
        .on_disk
        .then(|| std::env::temp_dir().join(format!("parblock-trace-{}", std::process::id())));
    let spec = options.spec(scratch.as_deref());
    let duration = options.duration();
    let load = LoadSpec {
        rate_tps: options.rate_tps,
        duration,
        drain: duration / 2,
        ..LoadSpec::default()
    };
    let report = if options.sim {
        run_sim(&SimConfig::open_loop(spec, &load)).report
    } else {
        run(&spec, &load)
    };
    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(dir);
    }
    report
}

fn us(ns: u64) -> u64 {
    ns / 1_000
}

/// Renders the lifecycle breakdown as the `repro` table/CSV shape: one
/// row per stage gap that any transaction crossed, percentiles in
/// microseconds, plus a `seal` row for the store's fsync barrier when
/// the run was durable.
#[must_use]
pub fn trace_table(report: &RunReport) -> Table {
    let mut table = Table::new(["stage_gap", "count", "p50_us", "p99_us", "p999_us", "mean_us"]);
    let mut row = |label: String, hist: &Histogram| {
        table.row([
            label,
            hist.count().to_string(),
            us(hist.percentile(0.50)).to_string(),
            us(hist.percentile(0.99)).to_string(),
            us(hist.percentile(0.999)).to_string(),
            us(hist.mean()).to_string(),
        ]);
    };
    for pair in &report.trace.pairs {
        row(format!("{}->{}", pair.from, pair.to), &pair.hist);
    }
    if !report.trace.seal.is_empty() {
        row("seal(block)".to_string(), &report.trace.seal);
    }
    table
}

fn hist_json(out: &mut String, hist: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\": {}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"mean_us\": {}}}",
        hist.count(),
        us(hist.percentile(0.50)),
        us(hist.percentile(0.99)),
        us(hist.percentile(0.999)),
        us(hist.mean()),
    );
}

/// Serializes the breakdown as the `BENCH_trace.json` artifact: run
/// metadata, the report digest (two same-seed sim runs must produce
/// byte-identical files), and per-stage-gap percentile summaries.
#[must_use]
pub fn trace_json(report: &RunReport, options: &TraceOptions) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"trace\",");
    let _ = writeln!(
        out,
        "  \"leg\": \"{}\",",
        if options.sim { "sim" } else { "threaded" }
    );
    let _ = writeln!(out, "  \"seed\": {},", options.seed);
    let _ = writeln!(out, "  \"rate_tps\": {:.1},", options.rate_tps);
    let _ = writeln!(out, "  \"contention\": {:.2},", options.contention);
    let _ = writeln!(
        out,
        "  \"durability\": \"{}\",",
        if options.on_disk { "on-disk" } else { "in-memory" }
    );
    let _ = writeln!(out, "  \"digest\": \"{}\",", report.digest());
    let _ = writeln!(out, "  \"committed\": {},", report.committed);
    let _ = writeln!(out, "  \"aborted\": {},", report.aborted);
    let _ = writeln!(out, "  \"trace_finished\": {},", report.trace.finished);
    let _ = writeln!(out, "  \"trace_incomplete\": {},", report.trace.incomplete);
    let _ = writeln!(
        out,
        "  \"timelines_sampled\": {},",
        report.trace.timelines.len()
    );
    let _ = writeln!(
        out,
        "  \"timelines_dropped\": {},",
        report.trace.dropped_timelines
    );
    out.push_str("  \"stages\": [\n");
    for (i, pair) in report.trace.pairs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"from\": \"{}\", \"to\": \"{}\", \"summary\": ",
            pair.from, pair.to
        );
        hist_json(&mut out, &pair.hist);
        out.push('}');
        out.push_str(if i + 1 < report.trace.pairs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"seal\": ");
    hist_json(&mut out, &report.trace.seal);
    out.push_str("\n}\n");
    out
}

/// Serializes the sampled timelines in the Chrome trace-event format
/// (the `traceEvents` array): one complete (`"ph": "X"`) event per
/// crossed stage gap, one `tid` lane per sampled transaction. Load the
/// file in Perfetto or `chrome://tracing` to see per-transaction
/// lifecycle waterfalls.
#[must_use]
pub fn trace_events_json(report: &RunReport) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    for (tid, timeline) in report.trace.timelines.iter().enumerate() {
        // Walk consecutive *present* stages: a stage a transaction never
        // crossed (e.g. `dispatched` for another application's
        // transaction) folds into the surrounding gap, exactly like the
        // histograms.
        let mut prev: Option<(Stage, u64)> = None;
        for (index, at) in timeline.stages.iter().enumerate() {
            let Some(at) = at else { continue };
            let stage = Stage::from_index(index).expect("slot index is a stage");
            if let Some((from, start)) = prev {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "  {{\"name\": \"{}->{}\", \"cat\": \"lifecycle\", \"ph\": \"X\", \
                     \"pid\": 1, \"tid\": {}, \"ts\": {}.{:03}, \"dur\": {}.{:03}, \
                     \"args\": {{\"client\": {}, \"client_ts\": {}}}}}",
                    from,
                    stage,
                    tid,
                    start / 1_000,
                    start % 1_000,
                    at.saturating_sub(start) / 1_000,
                    at.saturating_sub(start) % 1_000,
                    timeline.tx.client.0,
                    timeline.tx.client_ts,
                );
            }
            prev = Some((stage, *at));
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Writes both artifacts ([`JSON_ARTIFACT`] and [`EVENTS_ARTIFACT`]).
///
/// # Errors
///
/// Propagates I/O errors from creating `bench_results/` or the files.
pub fn write_trace_artifacts(
    report: &RunReport,
    options: &TraceOptions,
) -> std::io::Result<(PathBuf, PathBuf)> {
    let json = PathBuf::from(JSON_ARTIFACT);
    if let Some(parent) = json.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&json, trace_json(report, options))?;
    let events = PathBuf::from(EVENTS_ARTIFACT);
    std::fs::write(&events, trace_events_json(report))?;
    Ok((json, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> TraceOptions {
        TraceOptions {
            rate_tps: 1_000.0,
            sim: true,
            contention: 1.0,
            ..TraceOptions::default()
        }
    }

    #[test]
    fn sim_trace_renders_table_and_artifacts() {
        let options = tiny_options();
        let report = run_trace(&options);
        assert!(report.committed > 0, "traced run must commit work");
        assert!(report.trace.finished > 0, "trace must see durable txns");
        let table = trace_table(&report);
        assert!(!table.is_empty(), "at least one stage gap crossed");
        let json = trace_json(&report, &options);
        assert!(json.contains("\"bench\": \"trace\""));
        assert!(json.contains("\"from\": \"submitted\""));
        assert!(json.contains("\"digest\": \""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let events = trace_events_json(&report);
        assert!(events.contains("\"traceEvents\""));
        assert!(events.contains("\"ph\": \"X\""));
        assert_eq!(events.matches('{').count(), events.matches('}').count());
    }

    #[test]
    fn sim_leg_is_byte_reproducible_end_to_end() {
        let options = tiny_options();
        let a = run_trace(&options);
        let b = run_trace(&options);
        assert_eq!(
            trace_json(&a, &options),
            trace_json(&b, &options),
            "same-seed sim traces must serialize identically"
        );
        assert_eq!(
            trace_events_json(&a),
            trace_events_json(&b),
            "sampled timelines must be deterministic too"
        );
    }
}
