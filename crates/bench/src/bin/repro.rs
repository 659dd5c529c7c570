//! `repro` — regenerates the tables/figures of the ParBlockchain
//! evaluation (§V).
//!
//! ```sh
//! repro fig5                 # Fig 5(a)+(b): block-size sweep
//! repro fig6 --contention 20 # Fig 6: one contention level (0|20|80|100)
//! repro fig6                 # Fig 6(a)-(d): all four levels
//! repro fig7 --move clients  # Fig 7: one moved group
//! repro fig7                 # Fig 7(a)-(d): all four groups
//! repro explore --seeds 200  # deterministic simulation: sweep 200 seeds with
//!                            # crash+partition fault schedules, check all four
//!                            # oracles (+ pinned regression seeds)
//! repro explore --seed 17    # replay one seed twice, assert bit-reproducibility
//! repro explore --no-faults  # pure schedule exploration, faults disabled
//! repro explore --seeds 200 --require-catch-ups
//!                            # also fail unless restarted orderers resumed
//!                            # from both kinds of sequencer catch-up
//! repro saturate             # open-loop saturation sweep: rate-vs-latency
//!                            # curve with honest percentiles + detected knee
//! repro saturate --sim       # same sweep in virtual time (bit-reproducible)
//! repro saturate --rates 500,2000,8000 --arrival poisson --json
//!                            # custom schedule; --json also writes
//!                            # bench_results/BENCH_saturate.json
//! repro trace                # per-transaction lifecycle breakdown:
//!                            # stage-gap percentile table + artifacts
//! repro trace --sim --seed 7 # virtual-time leg: byte-reproducible
//!                            # BENCH_trace.json + Perfetto-loadable
//!                            # BENCH_trace_events.json
//! repro all                  # the three figures, then the saturation sweep
//! repro all --full           # the same, longer measurement points
//! ```
//!
//! Results print to stdout and are written as CSV under `bench_results/`.
//! What a transaction costs (end to end and per layer) is the repo
//! benchmark's job: `bash benchmark/run.sh`.

use parblock_bench::{
    check_knee_baseline, default_seed_file, explore_one, explore_sweep, fig5_block_size,
    fig6_contention, fig7_geo, knee_summary, load_seed_file, parse_rates, run_saturate, run_trace,
    saturate_table, trace_table, write_saturate_json, write_trace_artifacts, ExperimentScale,
    SaturateOptions, Table, TraceOptions,
};
use parblock_types::ArrivalProcess;
use parblockchain::MovedGroup;

/// The parsed value after `flag`, or `None` when the flag is absent. A
/// flag whose value is missing or does not parse is an error, never a
/// request to fall back to the default sweep: says what it wants and
/// exits 2.
fn flag_or_exit<T>(
    args: &[String],
    command: &str,
    flag: &str,
    wants: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let at = args.iter().position(|a| a == flag)?;
    let raw = args.get(at + 1).map_or("", String::as_str);
    let parsed = parse(raw);
    if parsed.is_none() {
        eprintln!("{command}: {flag} wants {wants}, got {raw:?}");
        std::process::exit(2);
    }
    parsed
}

fn emit(name: &str, table: &Table) {
    println!("== {name} ==");
    println!("{}", table.render());
    let path = format!("bench_results/{name}.csv");
    match table.write_csv(&path) {
        Ok(()) => println!("(csv written to {path})\n"),
        Err(e) => eprintln!("(csv write failed: {e})\n"),
    }
}

fn run_fig5(scale: ExperimentScale) {
    emit("fig5_block_size", &fig5_block_size(scale));
}

fn run_fig6(level: Option<u32>, scale: ExperimentScale) {
    let levels: Vec<u32> = match level {
        Some(l) => vec![l],
        None => vec![0, 20, 80, 100],
    };
    for l in levels {
        let table = fig6_contention(f64::from(l) / 100.0, scale);
        emit(&format!("fig6_contention_{l}"), &table);
    }
}

fn run_fig7(moved: Option<MovedGroup>, scale: ExperimentScale) {
    let groups = match moved {
        Some(g) => vec![g],
        None => vec![
            MovedGroup::Clients,
            MovedGroup::Orderers,
            MovedGroup::Executors,
            MovedGroup::NonExecutors,
        ],
    };
    for group in groups {
        let name = match group {
            MovedGroup::Clients => "fig7a_clients",
            MovedGroup::Orderers => "fig7b_orderers",
            MovedGroup::Executors => "fig7c_executors",
            MovedGroup::NonExecutors => "fig7d_nonexecutors",
        };
        emit(name, &fig7_geo(group, scale));
    }
}

fn run_saturate_cmd(args: &[String], scale: ExperimentScale) {
    let arg_value = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let mut options = SaturateOptions {
        scale,
        ..SaturateOptions::default()
    };
    if let Some(rates) = flag_or_exit(
        args,
        "saturate",
        "--rates",
        "comma-separated positive tps",
        parse_rates,
    ) {
        options.rates = rates;
    }
    if let Some(arrival) = flag_or_exit(
        args,
        "saturate",
        "--arrival",
        "uniform|poisson|burst",
        ArrivalProcess::parse,
    ) {
        options.arrival = arrival;
    }
    options.sim = args.iter().any(|a| a == "--sim");
    options.on_disk = args.iter().any(|a| a == "--on-disk");
    if let Some(seed) = arg_value("--seed").and_then(|v| v.parse().ok()) {
        options.seed = seed;
    }
    if let Some(level) = arg_value("--contention").and_then(|v| v.parse::<u32>().ok()) {
        options.contention = f64::from(level.min(100)) / 100.0;
    }
    if let Some(cap) = arg_value("--cap").and_then(|v| v.parse().ok()) {
        options.max_outstanding = Some(cap);
    }
    let outcome = run_saturate(&options);
    emit("saturate", &saturate_table(&outcome));
    println!("{}", knee_summary(&outcome, &options));
    if args.iter().any(|a| a == "--json") {
        match write_saturate_json(&outcome, &options) {
            Ok(path) => println!("(json written to {})", path.display()),
            Err(e) => {
                eprintln!("saturate: json write failed: {e}");
                std::process::exit(1);
            }
        }
    }
    // Performance ratchet: diff the detected knee against a committed
    // baseline artifact; a >10% regression fails the run (CI gate).
    if let Some(baseline_path) = arg_value("--check-baseline") {
        #[expect(
            clippy::disallowed_methods,
            reason = "reads the committed knee-baseline artifact"
        )]
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("saturate: cannot read baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        };
        match check_knee_baseline(&outcome, &baseline) {
            Ok(msg) => println!("baseline check: {msg}"),
            Err(msg) => {
                eprintln!("saturate: baseline check FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
}

fn run_trace_cmd(args: &[String], scale: ExperimentScale) {
    let arg_value = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let mut options = TraceOptions {
        scale,
        ..TraceOptions::default()
    };
    options.sim = args.iter().any(|a| a == "--sim");
    options.on_disk = args.iter().any(|a| a == "--on-disk");
    if let Some(seed) = arg_value("--seed").and_then(|v| v.parse().ok()) {
        options.seed = seed;
    }
    if let Some(rate) = arg_value("--rate").and_then(|v| v.parse::<f64>().ok()) {
        if rate > 0.0 {
            options.rate_tps = rate;
        }
    }
    if let Some(level) = arg_value("--contention").and_then(|v| v.parse::<u32>().ok()) {
        options.contention = f64::from(level.min(100)) / 100.0;
    }
    let report = run_trace(&options);
    emit("trace", &trace_table(&report));
    println!(
        "digest: {} ({} leg, seed {}, {} committed, {} traced)",
        report.digest(),
        if options.sim { "virtual-time" } else { "threaded" },
        options.seed,
        report.committed,
        report.trace.finished,
    );
    match write_trace_artifacts(&report, &options) {
        Ok((json, events)) => {
            println!("(json written to {})", json.display());
            println!("(trace events written to {} — load in Perfetto)", events.display());
        }
        Err(e) => {
            eprintln!("trace: artifact write failed: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_move(s: &str) -> Option<MovedGroup> {
    match s {
        "clients" => Some(MovedGroup::Clients),
        "orderers" => Some(MovedGroup::Orderers),
        "executors" => Some(MovedGroup::Executors),
        "nonexecutors" | "non-executors" => Some(MovedGroup::NonExecutors),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--full") {
        ExperimentScale::Full
    } else {
        ExperimentScale::Quick
    };
    let arg_value = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let command = args.first().map(String::as_str).unwrap_or("all");
    match command {
        "fig5" => run_fig5(scale),
        "fig6" => {
            let level = flag_or_exit(
                &args,
                "fig6",
                "--contention",
                "a percentage 0..=100",
                |v| v.parse::<u32>().ok().filter(|l| *l <= 100),
            );
            run_fig6(level, scale);
        }
        "fig7" => {
            let moved = flag_or_exit(
                &args,
                "fig7",
                "--move",
                "clients|orderers|executors|nonexecutors",
                parse_move,
            );
            run_fig7(moved, scale);
        }
        "explore" => {
            let mut config = parblock_sim::ExploreConfig {
                faults: !args.iter().any(|a| a == "--no-faults"),
                ..parblock_sim::ExploreConfig::default()
            };
            if let Some(count) = arg_value("--count").and_then(|v| v.parse().ok()) {
                config.count = count;
            }
            let seed_file = arg_value("--seed-file")
                .map_or_else(default_seed_file, std::path::PathBuf::from);
            let (table, passed) = match arg_value("--seed").and_then(|v| v.parse().ok()) {
                Some(seed) => explore_one(seed, &config),
                None => {
                    let seeds = flag_or_exit(
                        &args,
                        "explore",
                        "--seeds",
                        "a seed count",
                        |v| v.parse().ok(),
                    )
                    .unwrap_or(200);
                    let pinned = load_seed_file(&seed_file);
                    if !pinned.is_empty() {
                        println!(
                            "(replaying {} pinned regression seed(s) from {})",
                            pinned.len(),
                            seed_file.display()
                        );
                    }
                    let (table, passed, catch_ups) = explore_sweep(seeds, &pinned, &config);
                    let required = args.iter().any(|a| a == "--require-catch-ups");
                    let both = catch_ups.state_installs > 0 && catch_ups.log_start_jumps > 0;
                    if required && !both {
                        eprintln!("explore: a kind of orderer catch-up never happened");
                    }
                    (table, passed && (both || !required))
                }
            };
            emit("explore", &table);
            if !passed {
                eprintln!("explore: the sweep failed (see above)");
                std::process::exit(1);
            }
        }
        "saturate" => run_saturate_cmd(&args, scale),
        "trace" => run_trace_cmd(&args, scale),
        "all" => {
            run_fig5(scale);
            run_fig6(None, scale);
            run_fig7(None, scale);
            run_saturate_cmd(&args, scale);
        }
        other => {
            eprintln!("unknown command: {other}");
            eprintln!("usage: repro [fig5|fig6|fig7|explore|saturate|trace|all] [--contention N] [--move GROUP] [--full] [--seeds N] [--seed K] [--seed-file PATH] [--count N] [--no-faults] [--require-catch-ups] [--rates R,R,...] [--rate R] [--arrival uniform|poisson|burst] [--sim] [--on-disk] [--cap N] [--json] [--check-baseline PATH]");
            std::process::exit(2);
        }
    }
}
