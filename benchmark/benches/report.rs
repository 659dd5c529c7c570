//! Output: the driver's one-line JSON result, the BENCHMARK.json
//! manifest, and the tables a person reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::catalog::{self, END_TO_END};
use crate::e2e::EndToEnd;
use crate::layers::Layers;
use crate::workloads::WORKLOADS;

/// Seconds one driver run measures (`run_seconds` in BENCHMARK.json and
/// the default of `--seconds`).
pub const RUN_SECONDS: u64 = 30;

impl EndToEnd {
    pub fn value(&self, name: &str) -> f64 {
        match name {
            "commit_p50_ms" => self.commit_p50_ms,
            "commit_p99_ms" => self.commit_p99_ms,
            "rss_peak_mib" => self.rss_peak_mib,
            "setup_s" => self.setup_s,
            other => unreachable!("{other} is not an end-to-end metric"),
        }
    }
}

fn result_line(
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, f64, &'static str)>,
) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // JSON has no NaN or infinity; a ratio over an empty base reads zero.
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// The `--trace 0` result: every end-to-end metric. Reaching this point
/// means every correctness gate passed.
pub fn end_to_end_line(r: &EndToEnd) -> String {
    result_line(
        r.attempted,
        r.failed,
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), r.value(m.name), m.unit)),
    )
}

/// The `--trace 1` result: every catalogued per-layer metric, zero where
/// the workload does no such work.
pub fn per_layer_line(r: &Layers) -> String {
    result_line(
        r.attempted,
        r.failed,
        catalog::per_layer()
            .into_iter()
            .map(|m| (r.values.get(&m.name).copied().unwrap_or(0.0), m))
            .map(|(value, m)| (m.name, value, m.unit)),
    )
}

/// BENCHMARK.json, generated from the same tables the results use.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let gated: Vec<_> = WORKLOADS.iter().filter(|w| w.gated).collect();
    for (i, w) in gated.iter().enumerate() {
        let comma = if i + 1 < gated.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = catalog::per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// A driver run's result as another process reads it back.
#[derive(Debug, Clone)]
pub struct Parsed {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Reads back a line written by [`end_to_end_line`] or [`per_layer_line`].
/// Not a JSON parser: it knows the one shape this program writes.
pub fn parse_result_line(line: &str) -> Option<Parsed> {
    let number_after = |text: &str, key: &str| -> Option<f64> {
        let rest = &text[text.find(key)? + key.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    };
    let (head, metrics_text) = line.split_once("\"metrics\": {")?;
    let mut metrics = BTreeMap::new();
    for entry in metrics_text
        .split("\"}")
        .filter(|e| e.contains("\"value\": "))
    {
        let name = entry.split('"').nth(1)?;
        metrics.insert(name.to_string(), number_after(entry, "\"value\": ")?);
    }
    Some(Parsed {
        attempted: number_after(head, "\"attempted\": ")? as u64,
        failed: number_after(head, "\"failed\": ")? as u64,
        metrics,
    })
}

/// One workload's end-to-end results, by name and with units.
pub fn print_end_to_end(workload: &str, r: &Parsed) {
    println!("\n== {workload}: end to end (untraced, median of rounds)");
    for m in &END_TO_END {
        println!(
            "  {:<16} {:>12.3} {:<5} ({} is better, may worsen by {:.0}%)",
            m.name,
            r.metrics[m.name],
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    println!(
        "  {:<16} {:>12.6} ratio ({} of {} submitted did not commit)",
        "failed_share",
        r.failed as f64 / r.attempted as f64,
        r.failed,
        r.attempted
    );
}

/// The per-layer table: one row per metric, one column per workload.
pub fn print_per_layer(results: &[(&str, BTreeMap<String, f64>)]) {
    println!("\n== per layer (replay, probes and the traced run)");
    print!("  {:<40} {:<6}", "metric", "unit");
    for (workload, _) in results {
        print!(" {workload:>12}");
    }
    println!("  should move");
    for m in catalog::per_layer() {
        print!("  {:<40} {:<6}", m.name, m.unit);
        for (_, values) in results {
            print!(" {:>12.3}", values.get(&m.name).copied().unwrap_or(0.0));
        }
        println!("  {}", m.moves);
    }
    println!(
        "\nReading the table:\n\
         - overhead is CPU-bound on this host, so core.drain_tps is about cores / core.drain_cpu_us_per_tx\n\
         \x20 and a per-transaction CPU saving should show in both.\n\
         - contended and crossapp are bound by critical path x 500 us, so CPU savings predict no\n\
         \x20 change in core.drain_tps; only core.sched_efficiency and the cut_graph-ready gap can move it.\n\
         - steady p50 includes core.fill_wait_ms, which is configuration, not system.\n\
         - core.budget_residual_us_per_tx = core.steady_cpu_us_per_tx - core.replay_us_per_tx: what\n\
         \x20 the layers' own code does not explain (wakeups, queues, polling, contention)."
    );
}
