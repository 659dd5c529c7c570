//! Experiment runners regenerating every figure of the ParBlockchain
//! evaluation (§V), plus the simulation tools (`explore`, `saturate`,
//! `trace`). The `repro` binary is a thin CLI over this library. What a
//! transaction costs, end to end and per layer, is measured by the repo
//! benchmark under `benchmark/`, not here.
//!
//! Absolute numbers differ from the paper's EC2 cluster (this is a
//! single-host simulation with timed-wait cost models — see DESIGN.md
//! §3); the *shapes* are the reproduction target and are recorded in
//! EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Unit tests may read the wall clock, spawn threads and touch files;
// product code answers to `clippy.toml` (DESIGN.md §12).
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod experiments;
pub mod explore_cmd;
pub mod saturate_cmd;
pub mod table;
pub mod trace_cmd;

pub use experiments::{
    fig5_block_size, fig6_contention, fig7_geo, measure_point, peak_search, ExperimentScale, Point,
};
pub use explore_cmd::{default_seed_file, explore_one, explore_sweep, load_seed_file};
pub use saturate_cmd::{
    check_knee_baseline, knee_summary, parse_knee_tps, parse_rates, run_saturate, saturate_json,
    saturate_table, write_saturate_json,
    SaturateOptions,
};
pub use table::Table;
pub use trace_cmd::{
    run_trace, trace_events_json, trace_json, trace_table, write_trace_artifacts, TraceOptions,
};
