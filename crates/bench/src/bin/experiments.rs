//! Regenerates every figure and quantitative claim of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run -p antarex-bench --bin experiments            # all experiments
//! cargo run -p antarex-bench --bin experiments -- --only c3 u1
//! cargo run -p antarex-bench --bin experiments -- --jobs 4
//! cargo run -p antarex-bench --bin experiments -- --out   # also write a file
//! cargo run -p antarex-bench --bin experiments -- --list
//! ```
//!
//! An id after `--only` that names no experiment is an error: nothing
//! runs and the exit status is 2.
//!
//! `--jobs N` runs experiments on N worker threads; each report renders
//! into its own buffer and the merged output is printed in registry
//! order, byte-identical to a serial run.
//!
//! `--out [PATH]` additionally writes the report to PATH — by default
//! `target/experiments_output.txt`, so the artifact lands in build
//! output rather than the working tree (it is generated, not tracked).

use antarex_bench::{all_experiments, run_selected_jobs};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for experiment in all_experiments() {
            println!("{:<4} {}", experiment.id, experiment.title);
        }
        return;
    }
    let only: Vec<String> = match args.iter().position(|a| a == "--only") {
        Some(pos) => args[pos + 1..]
            .iter()
            .take_while(|a| !a.starts_with("--"))
            .cloned()
            .collect(),
        None => Vec::new(),
    };
    let jobs = match args.iter().position(|a| a == "--jobs") {
        Some(pos) => match args.get(pos + 1).map(|a| a.parse::<usize>()) {
            Some(Ok(n)) if n > 0 => n,
            _ => {
                eprintln!("--jobs expects a positive integer");
                std::process::exit(2);
            }
        },
        None => 1,
    };
    let out = args.iter().position(|a| a == "--out").map(|pos| {
        match args.get(pos + 1).filter(|a| !a.starts_with("--")) {
            Some(path) => std::path::PathBuf::from(path),
            None => std::path::PathBuf::from("target/experiments_output.txt"),
        }
    });
    let report = run_selected_jobs(&only, jobs).unwrap_or_else(|unknown| {
        eprintln!("{unknown}");
        std::process::exit(2);
    });
    print!("{report}");
    if let Some(path) = out {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create report directory");
            }
        }
        std::fs::write(&path, &report)
            .unwrap_or_else(|e| panic!("write report to {}: {e}", path.display()));
        eprintln!("report written to {}", path.display());
    }
}
