//! The command line.
//!
//! `e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>` is one
//! run in this process: it prints every metric of the mode by name and
//! ends with the result line. Any other selection (several workloads,
//! no `--trace`, `--check-repeat`) is a loop over such runs, each a
//! child process of its own so that `peak_rss_mb` is the peak of one
//! workload alone.

use crate::report::{Json, END_TO_END};
use crate::run::{run, workload_named, RunConfig};
use crate::workload::{Scale, WorkloadInfo, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str =
    "usage: e2e [--workload <name>]... [--seed <u64>] [--seconds <n>] [--trace <0|1>]
           [--scale full|tiny] [--trace-out <dir>] [--check-repeat]

  --workload     one of the names in BENCHMARK.json; repeatable; default: all
  --seed         seed of the generated inputs (default 2016)
  --seconds      how long each run measures (default 20)
  --trace        0: end-to-end metrics; 1: per-layer metrics; default: both
  --scale        tiny: sub-second sizes for tests (default full)
  --trace-out    directory a traced run writes trace-<workload>.json to
  --check-repeat run the end-to-end mode twice and compare against the bounds";

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Selected workloads, all when none was named.
    pub workloads: Vec<WorkloadInfo>,
    /// `--seed`
    pub seed: u64,
    /// `--seconds`
    pub seconds: u64,
    /// `--trace`, when given.
    pub trace: Option<bool>,
    /// `--scale`
    pub scale: Scale,
    /// `--trace-out`
    pub trace_out: Option<PathBuf>,
    /// `--check-repeat`
    pub check_repeat: bool,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns what is wrong with the first bad argument.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 2016,
        seconds: DEFAULT_SECONDS,
        trace: None,
        scale: Scale::Full,
        trace_out: None,
        check_repeat: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if flag == "--check-repeat" {
            parsed.check_repeat = true;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => parsed
                .workloads
                .push(workload_named(value).ok_or_else(|| format!("unknown workload {value:?}"))?),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--scale" => {
                parsed.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale takes full or tiny, not {value:?}")),
                }
            }
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = WORKLOADS.to_vec();
    }
    Ok(parsed)
}

/// Runs the command line; the exit code is 0 only when every output
/// check (and, under `--check-repeat`, every bound) held.
pub fn main(args: Vec<String>) -> ExitCode {
    let args = match parse(&args) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("e2e: {problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.workloads.as_slice(), args.trace, args.check_repeat) {
        ([workload], Some(trace), false) => single(&args, *workload, trace),
        _ => many(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run in this process.
fn single(args: &Args, workload: WorkloadInfo, trace: bool) -> bool {
    let outcome = run(&RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds as f64,
        trace,
        scale: args.scale,
        trace_out: args.trace_out.clone(),
    });
    print!(
        "# {} seed={} seconds={} scale={:?} trace={}",
        workload.name,
        args.seed,
        args.seconds,
        args.scale,
        u8::from(trace)
    );
    for (key, value) in &outcome.facts {
        print!(" {key}={value}");
    }
    println!();
    print!("{}", outcome.result.table());
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", outcome.result.json_line());
    outcome.result.correct
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |line| line.trim().to_string())
}

/// Runs one child run, echoing its output; returns its result line
/// when it exited with code 0.
fn child(args: &Args, workload: WorkloadInfo, trace: bool) -> Option<Json> {
    let exe = std::env::current_exe().expect("the running program has a path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args([
            "--scale",
            if args.scale == Scale::Tiny {
                "tiny"
            } else {
                "full"
            },
        ]);
    if let Some(dir) = &args.trace_out {
        command.arg("--trace-out").arg(dir);
    }
    // `output` waits for the child to end before it returns
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .expect("the benchmark can start itself");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let result = stdout
        .lines()
        .last()
        .and_then(|line| Json::parse(line).ok());
    result.filter(|_| output.status.success())
}

fn reading(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.num()
}

/// Several runs, each in a child process.
fn many(args: &Args) -> bool {
    println!(
        "# env nproc={} rustc={:?} git={} seed={} seconds={} scale={:?}",
        std::thread::available_parallelism().map_or(0, usize::from),
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "HEAD"]),
        args.seed,
        args.seconds,
        args.scale,
    );
    let modes: &[bool] = match (args.trace, args.check_repeat) {
        (_, true) => &[false, false],
        (Some(false), _) => &[false],
        (Some(true), _) => &[true],
        (None, _) => &[false, true],
    };
    let mut ok = true;
    let mut table = String::new();
    for &workload in &args.workloads {
        let results: Vec<Option<Json>> = modes
            .iter()
            .map(|&trace| child(args, workload, trace))
            .collect();
        ok &= results.iter().all(Option::is_some);
        if let (true, [Some(first), Some(second)]) = (args.check_repeat, results.as_slice()) {
            for def in &END_TO_END {
                let (Some(a), Some(b)) = (reading(first, def.name), reading(second, def.name))
                else {
                    ok = false;
                    continue;
                };
                let difference = (b - a).abs() / a.abs();
                let within = difference <= def.bound;
                ok &= within;
                table.push_str(&format!(
                    "{:<22} {:<14} {:>16.6} {:>16.6} {:>8.2}% {:>6.0}% {}\n",
                    workload.name,
                    def.name,
                    a,
                    b,
                    difference * 100.0,
                    def.bound * 100.0,
                    if within { "ok" } else { "OUTSIDE BOUND" },
                ));
            }
        }
    }
    if args.check_repeat {
        println!(
            "# check-repeat\n{:<22} {:<14} {:>16} {:>16} {:>9} {:>7}\n{table}",
            "workload", "metric", "first", "second", "diff", "bound"
        );
    }
    println!(
        "# {}",
        if ok {
            "every check passed"
        } else {
            "A CHECK FAILED"
        }
    );
    ok
}
