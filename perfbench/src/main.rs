//! `perfbench`: the end-to-end and per-layer benchmark of the checker.
//!
//! ```text
//! perfbench --workload <check_repeat|check_unique|decide_heavy> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs a fixed, pre-generated request sequence of a fixed
//! size to completion in a closed loop.  `--seconds` sets how many rounds a
//! run makes (`workload::rounds`).  Every round runs in a fresh child
//! process (this binary with `--round <r>`), times one or more passes over
//! its sequence, verifies every answer, and reports to the parent, which
//! combines the rounds (see `run::aggregate`).
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the rounds are followed by a traced layer-by-layer
//! replay of round 0's sequence and the last line carries the per-layer
//! metrics.  Every metric, the workload's reason, the request mix and the
//! environment are printed above it.

mod run;
mod serve;
mod stats;
mod temporal;
mod trace;
mod verify;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use run::Round;
use stats::{result_line, Metrics};
use workload::Workload;

/// The environment variable that overrides every session's parallelism.
const PARALLEL_OVERRIDE: &str = "ILOGIC_TEST_PARALLEL";

/// Where the traced run writes its spans, relative to the working directory.
const SPAN_DIR: &str = ".bench_out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a round's child process: the round to run.
    round: Option<usize>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut round) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number {value:?}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::workload(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            "--round" => round = Some(number()? as usize),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        round,
    })
}

/// The commit the working directory is checked out at, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn print_metrics(kind: &str, metrics: &Metrics) {
    for metric in metrics.iter() {
        println!("{kind} {} {} {}", metric.name, metric.value, metric.unit);
    }
}

/// The child-process side: runs one round and prints it as its last line.
fn run_round(args: &Args, round: usize, connections: usize) -> ExitCode {
    let workload = args.workload;
    let sequence = workload::sequence(workload, args.seed, round);
    let warmup = workload::warmup(workload, args.seed, round);
    match run::round(workload, &sequence, warmup, connections) {
        Ok((measured, wrong)) => {
            for reason in wrong {
                println!("WRONG {reason}");
            }
            println!("{}", measured.to_json());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: round {round}: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Runs round `round` in a fresh process and parses its result; forwards
/// the child's other output lines.
fn spawn_round(args: &Args, round: usize) -> Result<Round, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .args(["--round", &round.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("round {round}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("round {round}: {line}");
    }
    if !output.status.success() {
        return Err(format!("round {round} exited with {}", output.status));
    }
    Round::from_json(last).ok_or_else(|| format!("round {round}: unreadable result {last:?}"))
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    // Every session reads this override at construction; scrub it before
    // the first one exists (round processes inherit the scrubbed
    // environment) so all workloads run at the default (`Off`).
    let scrubbed = std::env::var_os(PARALLEL_OVERRIDE).is_some();
    if scrubbed {
        std::env::remove_var(PARALLEL_OVERRIDE);
    }
    let hardware_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let workload = args.workload;
    let connections = run::connections(workload, hardware_threads);
    let rounds = workload::rounds(args.seconds);
    if let Some(round) = args.round {
        return run_round(&args, round, connections);
    }
    println!(
        "env workload={} seed={} seconds={} trace={} hardware_threads={hardware_threads} \
         connections={connections} rounds={} rev={} build=release {PARALLEL_OVERRIDE}={}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rounds,
        git_rev(),
        if scrubbed { "scrubbed" } else { "unset" },
    );
    println!("workload {}: {}", workload.name, workload.reason);
    println!("isolates {}", workload.isolates);
    let passes = workload::sequence(workload, args.seed, 0).passes();
    println!("sequence requests={} passes_per_round={passes}", workload.requests);

    let mut measured_rounds = Vec::with_capacity(rounds);
    for round in 0..rounds {
        match spawn_round(&args, round) {
            Ok(measured) => measured_rounds.push(measured),
            Err(message) => {
                eprintln!("perfbench: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    let rounds = measured_rounds;
    let (gated, extra, tally) = run::aggregate(&rounds, workload.requests);
    println!("mix {}", tally.mix());
    print_metrics("metric", &gated);
    print_metrics("metric", &extra);
    let mut correct = tally.failed == 0;
    let (attempted, failed) = (tally.attempted, tally.failed);

    if !args.trace {
        println!("{}", result_line(correct, attempted, failed, gated.iter()));
        return if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    // The traced replay re-runs round 0's sequence in this process.
    let sequence = workload::sequence(workload, args.seed, 0);
    let untraced_wall = Duration::from_secs_f64(rounds[0].wall_s);
    let traced = match run::traced(&sequence, untraced_wall) {
        Ok(traced) => traced,
        Err(error) => {
            eprintln!("perfbench: traced replay: {error}");
            return ExitCode::FAILURE;
        }
    };
    for mismatch in traced.mismatches.iter().take(5) {
        println!("MISMATCH {mismatch}");
    }
    println!("traced-mix {}", traced.tally.mix());
    print_metrics("layer", &traced.metrics);
    let self_sum = traced.metrics.get("trace.self_sum_ratio").map_or(0.0, |m| m.value);
    if (1.0 - self_sum).abs() > run::TRACE_SLACK {
        println!("TRACE per-request self times sum to {self_sum:.4} of the traced wall time");
        correct = false;
    }
    correct &= traced.mismatches.is_empty();
    let spans = format!("{SPAN_DIR}/spans-{}-{}.json", workload.name, args.seed);
    if let Err(error) = std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| std::fs::write(&spans, traced.tracer.to_json()))
    {
        eprintln!("perfbench: writing {spans}: {error}");
        return ExitCode::FAILURE;
    }
    println!("spans {spans}");
    let failed = failed + traced.mismatches.len() as u64;
    println!("{}", result_line(correct, attempted, failed, traced.metrics.iter()));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
