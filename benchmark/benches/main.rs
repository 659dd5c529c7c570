//! `parbench`: the repo benchmark. `../run.sh` builds and runs it; see
//! `../README.md` for the phases and `BENCHMARK.json` for the contract.
//!
//! With `--workload` it is one driver run: one workload, one JSON result
//! as the last line of standard output. Without, it makes those runs for
//! all four workloads, untraced then traced, each in a process of its own,
//! and prints every metric by name.

mod catalog;
mod e2e;
mod layers;
mod phases;
mod procfs;
mod replay;
mod report;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use catalog::END_TO_END;
use phases::{Ctx, Gate};
use report::Parsed;
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage: run.sh [--seed N] [--seconds S] [--repeat K] [--smoke]   all workloads, tables
       run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one run, JSON on the last line
       run.sh --manifest                                             print BENCHMARK.json";

#[derive(Debug)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    manifest: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: report::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        smoke: false,
        manifest: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        fn parse<T: std::str::FromStr>(flag: &str, raw: String) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("{flag} {raw}: not a valid value"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    workloads::by_name(&name).ok_or_else(|| format!("no workload named {name}"))?,
                );
            }
            "--seed" => args.seed = parse(&flag, value()?)?,
            "--seconds" => args.seconds = parse(&flag, value()?)?,
            "--trace" => args.trace = parse::<u8>(&flag, value()?)? != 0,
            "--repeat" => args.repeat = parse(&flag, value()?)?,
            "--out" => args.out = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !(1.0..=60.0).contains(&args.seconds) || args.repeat == 0 {
        return Err(format!(
            "--seconds must be 1..=60 and --repeat at least 1\n{USAGE}"
        ));
    }
    Ok(args)
}

/// One driver run: the last line of standard output is the result.
fn run_one(workload: &'static Workload, args: &Args) -> Gate<()> {
    let ctx = Ctx::new(workload, args.seed, &args.out);
    let line = if args.trace {
        let plan = if args.smoke {
            layers::Plan::smoke(&ctx)
        } else {
            layers::Plan::full(&ctx, args.seconds)
        };
        let result = layers::run(&ctx, &plan, &args.out)?;
        eprintln!("  spans written to {}", result.trace_file.display());
        report::per_layer_line(&result)
    } else {
        let plan = if args.smoke {
            e2e::Plan::smoke(&ctx)
        } else {
            e2e::Plan::full(&ctx, args.seconds)
        };
        report::end_to_end_line(&e2e::run(&ctx, &plan)?)
    };
    println!("{line}");
    Ok(())
}

/// Runs one driver run in a process of its own and reads its result
/// back. A fresh process per run is what the driver does, and it keeps
/// one workload's heap out of the next one's `rss_peak_mib`.
fn run_child(workload: &Workload, args: &Args, trace: bool) -> Gate<Parsed> {
    eprintln!(
        "{}: {}",
        workload.name,
        if trace { "traced" } else { "untraced" }
    );
    let exe = std::env::current_exe().map_err(|e| format!("locate parbench: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("start parbench: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last().and_then(report::parse_result_line) {
        Some(result) if output.status.success() => Ok(result),
        _ => Err(format!(
            "{}: the run failed ({})",
            workload.name, output.status
        )),
    }
}

/// One full set: every workload untraced, then traced.
fn run_set(args: &Args) -> Gate<Vec<Parsed>> {
    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    for workload in &WORKLOADS {
        let result = run_child(workload, args, false)?;
        report::print_end_to_end(workload.name, &result);
        end_to_end.push(result);
        per_layer.push((workload.name, run_child(workload, args, true)?.metrics));
    }
    report::print_per_layer(&per_layer);
    Ok(end_to_end)
}

/// Two sets of runs of the same code must agree within each metric's
/// bound; prints both values, their difference and the bound.
fn sets_agree(first: &[Parsed], second: &[Parsed]) -> bool {
    println!("\n== agreement of two sets (difference as a share of the first)");
    let mut agree = true;
    for (workload, (a, b)) in WORKLOADS.iter().zip(first.iter().zip(second)) {
        for m in &END_TO_END {
            let (a, b) = (a.metrics[m.name], b.metrics[m.name]);
            let difference = (b - a).abs() / a;
            let verdict = match (difference <= m.bound, workload.gated) {
                (true, _) => "ok",
                (false, true) => "DISAGREE",
                (false, false) => "disagree (not gated)",
            };
            agree &= difference <= m.bound || !workload.gated;
            println!(
                "  {:<10} {:<16} {a:>12.3} {b:>12.3} {:<5} {:>6.1}% of {:>3.0}%  {verdict}",
                workload.name,
                m.name,
                m.unit,
                difference * 100.0,
                m.bound * 100.0
            );
        }
    }
    agree
}

fn run(args: &Args) -> Gate<()> {
    if args.manifest {
        print!("{}", report::manifest());
        return Ok(());
    }
    if let Some(name) = workloads::FORBIDDEN_ENV
        .iter()
        .find(|name| std::env::var_os(name).is_some())
    {
        return Err(format!(
            "{name} is set: ClusterSpec::new would inherit it, and the benchmark pins its own configuration; unset it"
        ));
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    if let Some(workload) = args.workload {
        return run_one(workload, args);
    }
    let mut sets = Vec::new();
    for set in 1..=args.repeat {
        if args.repeat > 1 {
            println!("\n#### set {set} of {}", args.repeat);
        }
        sets.push(run_set(args)?);
    }
    let all_agree = sets.windows(2).all(|pair| sets_agree(&pair[0], &pair[1]));
    if all_agree {
        Ok(())
    } else {
        Err("two sets of runs of the same code disagree by more than a bound".into())
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("parbench: {message}");
            ExitCode::FAILURE
        }
    }
}
