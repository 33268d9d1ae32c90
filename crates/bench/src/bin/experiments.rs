//! Regenerates every figure and quantitative claim of the paper, and
//! the `BENCH_*.json` gate files.
//!
//! Usage:
//!
//! ```text
//! cargo run -p antarex-bench --bin experiments            # all experiments
//! cargo run -p antarex-bench --bin experiments -- --only c3 u1
//! cargo run -p antarex-bench --bin experiments -- --jobs 4
//! cargo run -p antarex-bench --bin experiments -- --out   # also write a file
//! cargo run -p antarex-bench --bin experiments -- --list
//! cargo run --release -p antarex-bench --bin experiments -- --bench all
//! ```
//!
//! An id after `--only` or `--bench` that names nothing, either flag
//! with no id, an unknown flag or a stray positional is an error:
//! nothing runs and the exit status is 2.
//!
//! `--jobs N` runs experiments on N worker threads; each report renders
//! into its own buffer and the merged output is printed in registry
//! order, byte-identical to a serial run.
//!
//! `--out [PATH]` additionally writes the report to PATH — by default
//! `target/experiments_output.txt`, so the artifact lands in build
//! output rather than the working tree (it is generated, not tracked).
//!
//! `--bench <id>...|all` runs the selected full-scale campaigns serially
//! and writes each as `BENCH_<id>.json` in the working directory. When
//! every gate file ran, it also rewrites the gate table between
//! README.md's `bench-summary` markers. The files hold no host-derived
//! value, so a run whose gates pass reproduces the committed ones byte
//! for byte; the host-clock values the timing gates judged are printed
//! on stdout instead. A failed gate is named on stderr and the exit
//! status is 1, as is a file that cannot be written.

use antarex_bench::{
    all_experiments, gate_table, run_selected_jobs, select_benches, with_gate_table, BENCHES,
};
use std::path::PathBuf;

const USAGE: &str =
    "usage: experiments [--list] [--only ID...] [--jobs N] [--out [PATH]] | --bench ID...|all";

/// What the command line asked for.
#[derive(Debug, PartialEq)]
struct Cli {
    list: bool,
    /// Empty means every experiment: `--only` itself needs at least one id.
    only: Vec<String>,
    jobs: usize,
    out: Option<PathBuf>,
    /// Gate files to write; non-empty means nothing else runs.
    bench: Vec<&'static str>,
}

/// Parses the arguments after the program name; anything it does not
/// recognise is an error rather than a silent full run.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        list: false,
        only: Vec::new(),
        jobs: 1,
        out: None,
        bench: Vec::new(),
    };
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--list" => cli.list = true,
            "--only" => {
                while let Some(id) = rest.next_if(|a| !a.starts_with("--")) {
                    cli.only.push(id.clone());
                }
                if cli.only.is_empty() {
                    return Err("--only expects at least one experiment id".to_string());
                }
            }
            "--jobs" => match rest.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => cli.jobs = n,
                _ => return Err("--jobs expects a positive integer".to_string()),
            },
            "--out" => {
                let path = rest.next_if(|a| !a.starts_with("--"));
                cli.out = Some(path.map_or_else(
                    || PathBuf::from("target/experiments_output.txt"),
                    PathBuf::from,
                ));
            }
            "--bench" => {
                let mut ids = Vec::new();
                while let Some(id) = rest.next_if(|a| !a.starts_with("--")) {
                    ids.push(id.clone());
                }
                cli.bench = select_benches(&ids)?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            stray => return Err(format!("unexpected argument {stray}")),
        }
    }
    let reporting = cli.list || !cli.only.is_empty() || cli.jobs != 1 || cli.out.is_some();
    if !cli.bench.is_empty() && reporting {
        return Err("--bench takes no other flag".to_string());
    }
    Ok(cli)
}

/// Writes `BENCH_<id>.json` for each id, in registry order, and the
/// README table when every file ran; returns the exit status.
fn write_benches(ids: &[&str]) -> i32 {
    let mut files = Vec::new();
    for &(id, experiment, run) in BENCHES.iter().filter(|(id, ..)| ids.contains(id)) {
        let file = run();
        let path = format!("BENCH_{id}.json");
        if let Err(error) = std::fs::write(&path, file.render()) {
            eprintln!("{path}: {error}");
            return 1;
        }
        println!("{path} ({experiment}): {}", file.summary());
        files.push((id, file));
    }
    if files.len() == BENCHES.len() {
        let updated = std::fs::read_to_string("README.md")
            .map_err(|e| format!("README.md: {e}"))
            .and_then(|readme| with_gate_table(&readme, &gate_table(&files)))
            .and_then(|readme| {
                std::fs::write("README.md", readme).map_err(|e| format!("README.md: {e}"))
            });
        if let Err(error) = updated {
            eprintln!("{error}");
            return 1;
        }
    }
    let failed: Vec<String> = files
        .iter()
        .flat_map(|(id, file)| {
            file.failed_gates()
                .into_iter()
                .map(move |gate| format!("{id}.{gate}"))
        })
        .collect();
    if failed.is_empty() {
        0
    } else {
        eprintln!("FAILED gates: {}", failed.join(", "));
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|error| {
        eprintln!("{error}\n{USAGE}");
        std::process::exit(2);
    });
    if !cli.bench.is_empty() {
        std::process::exit(write_benches(&cli.bench));
    }
    if cli.list {
        for experiment in all_experiments() {
            println!("{:<4} {}", experiment.id, experiment.title);
        }
        return;
    }
    let report = run_selected_jobs(&cli.only, cli.jobs).unwrap_or_else(|unknown| {
        eprintln!("{unknown}");
        std::process::exit(2);
    });
    print!("{report}");
    if let Some(path) = cli.out {
        let parent = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        let written = parent
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, &report));
        if let Err(error) = written {
            eprintln!("{}: {error}", path.display());
            std::process::exit(1);
        }
        eprintln!("report written to {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn only_without_an_id_is_an_error_not_a_full_run() {
        assert!(parse("--only").unwrap_err().contains("--only"));
        assert!(parse("--only --jobs 2").unwrap_err().contains("--only"));
    }

    #[test]
    fn unknown_flags_and_stray_positionals_are_errors() {
        assert_eq!(parse("--job 4").unwrap_err(), "unknown flag --job");
        assert_eq!(parse("s1").unwrap_err(), "unexpected argument s1");
    }

    #[test]
    fn bench_without_an_id_or_with_an_unknown_one_names_the_valid_ids() {
        let valid =
            "valid ids: docking, energy_obs, admission, chaos, cluster, obs, serve, tuner, vm, all";
        let missing = parse("--bench").unwrap_err();
        assert_eq!(
            missing,
            format!("unknown or missing bench id(s) []; {valid}")
        );
        assert_eq!(parse("--bench --list").unwrap_err(), missing);
        let unknown = parse("--bench vm d1 all").unwrap_err();
        assert_eq!(
            unknown,
            format!("unknown or missing bench id(s) [d1]; {valid}")
        );
        assert_eq!(
            parse("--bench vm --only c4").unwrap_err(),
            "--bench takes no other flag"
        );
    }

    #[test]
    fn the_documented_forms_parse() {
        assert_eq!(
            parse("--only c4 c5 --jobs 2 --out"),
            Ok(Cli {
                list: false,
                only: vec!["c4".to_string(), "c5".to_string()],
                jobs: 2,
                out: Some(PathBuf::from("target/experiments_output.txt")),
                bench: Vec::new(),
            })
        );
        let every: Vec<&str> = BENCHES.iter().map(|(id, ..)| *id).collect();
        assert_eq!(parse("--bench all").map(|cli| cli.bench), Ok(every));
        assert_eq!(
            parse("--bench vm cluster").map(|cli| cli.bench),
            Ok(vec!["cluster", "vm"])
        );
    }
}
