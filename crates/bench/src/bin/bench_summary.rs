//! Aggregates every `BENCH_*.json` gate file into one markdown table.
//!
//! Each bench binary (`obs_bench`, `serve_bench`, `chaos_bench`,
//! `tuner_bench`, `energy_obs_bench`, ...) prints a flat-ish JSON
//! object of headline numbers; a gated one adds a `"gates"` object,
//! written by `antarex_bench::print_gates` one gate per line:
//! `"name": { "pass": true, "detail": "measured vs budget" }`. This
//! tool scans a directory (default: the current directory) for
//! `BENCH_*.json`, reads them with a tolerant line-based reader (no
//! JSON dependency — the files are machine-written, one scalar or one
//! gate per line), and renders:
//!
//! * a summary table — one row per bench, its gate tally, and a
//!   pass/FAIL verdict (a gate is an entry of the `"gates"` object and
//!   nothing else; pass means every gate passed);
//! * a per-bench detail list of every scalar and every gate, in file
//!   order.
//!
//! `--update-readme` instead rewrites the region between the
//! `<!-- bench-summary:start -->` / `<!-- bench-summary:end -->`
//! markers in `README.md` with the summary table, so the published
//! results always match the committed gate files.
//!
//! Exits nonzero when any bench fails its gates (and, with
//! `--update-readme`, when the markers are missing), so CI can chain
//! it after the bench runs.
//!
//! Usage: `cargo run --release -p antarex-bench --bin bench_summary -- [dir] [--update-readme]`

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One scalar extracted from a gate file, in file order.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Number(String),
    Bool(bool),
    Text(String),
}

impl Scalar {
    fn render(&self) -> String {
        match self {
            Scalar::Number(n) => n.clone(),
            Scalar::Bool(b) => b.to_string(),
            Scalar::Text(t) => t.clone(),
        }
    }
}

/// Parses `"key": value` lines; nested objects contribute their leaf
/// keys, arrays and object openers are skipped.
fn extract_scalars(json: &str) -> Vec<(String, Scalar)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((key, value)) = rest.split_once("\":") else {
            continue;
        };
        let value = value.trim();
        let scalar = if value == "true" || value == "false" {
            Scalar::Bool(value == "true")
        } else if value.starts_with('"') && value.ends_with('"') && value.len() >= 2 {
            Scalar::Text(value[1..value.len() - 1].to_string())
        } else if !value.is_empty()
            && value
                .chars()
                .all(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        {
            Scalar::Number(value.to_string())
        } else {
            continue; // `{`, `[`, or malformed — not a scalar
        };
        out.push((key.to_string(), scalar));
    }
    out
}

/// One entry of a gate file's `"gates"` object.
#[derive(Debug, Clone, PartialEq)]
struct Gate {
    name: String,
    pass: bool,
    detail: String,
}

/// Parses the one-line entries of the `"gates"` object.
fn extract_gates(json: &str) -> Vec<Gate> {
    let mut lines = json.lines().map(|line| line.trim().trim_end_matches(','));
    if !lines.any(|line| line == "\"gates\": {") {
        return Vec::new();
    }
    lines
        .take_while(|line| *line != "}")
        .filter_map(parse_gate)
        .collect()
}

/// Parses `"name": { "pass": true, "detail": "…" }`.
fn parse_gate(line: &str) -> Option<Gate> {
    let (name, body) = line.strip_prefix('"')?.split_once("\": {")?;
    let (_, pass) = body.split_once("\"pass\": ")?;
    let (_, detail) = body.split_once("\"detail\": \"")?;
    let (detail, _) = detail.rsplit_once('"')?;
    Some(Gate {
        name: name.to_string(),
        pass: pass.starts_with("true"),
        detail: detail.to_string(),
    })
}

/// One parsed gate file.
struct Bench {
    file: String,
    scalars: Vec<(String, Scalar)>,
    gates: Vec<Gate>,
}

impl Bench {
    fn parse(file: &str, json: &str) -> Self {
        Bench {
            file: file.to_string(),
            scalars: extract_scalars(json),
            gates: extract_gates(json),
        }
    }

    fn name(&self) -> &str {
        self.scalars
            .iter()
            .find_map(|(key, value)| match (key.as_str(), value) {
                ("benchmark", Scalar::Text(text)) => Some(text.as_str()),
                _ => None,
            })
            .unwrap_or(&self.file)
    }

    fn tally(&self) -> (usize, usize) {
        let passed = self.gates.iter().filter(|gate| gate.pass).count();
        (passed, self.gates.len())
    }

    fn passes(&self) -> bool {
        self.gates.iter().all(|gate| gate.pass)
    }
}

fn load_benches(dir: &Path) -> std::io::Result<Vec<Bench>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    let mut benches = Vec::new();
    for path in files {
        let json = std::fs::read_to_string(&path)?;
        let file = path.file_name().and_then(|n| n.to_str());
        benches.push(Bench::parse(file.unwrap_or_default(), &json));
    }
    Ok(benches)
}

fn summary_table(benches: &[Bench]) -> String {
    let mut out = String::from("| gate file | benchmark | gates | verdict |\n|---|---|---|---|\n");
    for bench in benches {
        let (passed, total) = bench.tally();
        let _ = writeln!(
            out,
            "| `{}` | {} | {passed}/{total} | {} |",
            bench.file,
            bench.name(),
            if bench.passes() { "pass" } else { "**FAIL**" },
        );
    }
    out
}

fn full_report(benches: &[Bench]) -> String {
    let mut out = String::from("# Bench summary\n\n");
    out.push_str(&summary_table(benches));
    for bench in benches {
        let _ = write!(out, "\n## {}\n\n", bench.file);
        for (key, value) in &bench.scalars {
            let _ = writeln!(out, "- `{key}`: {}", value.render());
        }
        for gate in &bench.gates {
            let verdict = if gate.pass { "pass" } else { "FAIL" };
            let _ = writeln!(out, "- gate `{}`: {verdict} ({})", gate.name, gate.detail);
        }
    }
    out
}

const START: &str = "<!-- bench-summary:start -->";
const END: &str = "<!-- bench-summary:end -->";

fn update_readme(readme: &Path, table: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(readme).map_err(|e| format!("{}: {e}", readme.display()))?;
    let start = text
        .find(START)
        .ok_or_else(|| format!("{START} marker missing from {}", readme.display()))?;
    let end = text
        .find(END)
        .ok_or_else(|| format!("{END} marker missing from {}", readme.display()))?;
    if end < start {
        return Err("bench-summary markers are out of order".to_string());
    }
    let mut updated = String::with_capacity(text.len() + table.len());
    updated.push_str(&text[..start + START.len()]);
    updated.push('\n');
    updated.push_str(table);
    updated.push_str(&text[end..]);
    std::fs::write(readme, updated).map_err(|e| format!("{}: {e}", readme.display()))
}

fn main() -> ExitCode {
    let mut dir = PathBuf::from(".");
    let mut do_update = false;
    for arg in std::env::args().skip(1) {
        if arg == "--update-readme" {
            do_update = true;
        } else {
            dir = PathBuf::from(arg);
        }
    }
    let benches = match load_benches(&dir) {
        Ok(benches) => benches,
        Err(error) => {
            eprintln!("bench_summary: {}: {error}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    if benches.is_empty() {
        eprintln!("bench_summary: no BENCH_*.json in {}", dir.display());
        return ExitCode::FAILURE;
    }
    print!("{}", full_report(&benches));
    if do_update {
        if let Err(error) = update_readme(&dir.join("README.md"), &summary_table(&benches)) {
            eprintln!("bench_summary: {error}");
            return ExitCode::FAILURE;
        }
    }
    if benches.iter().all(Bench::passes) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "benchmark": "sample bench",
  "physical_cores": 8,
  "per_event_ns": {
    "counter_inc": 6.6
  },
  "worker_invariance": {
    "identical": true
  },
  "digests": ["aa", "bb"],
  "gates": {
    "within_budget": { "pass": true, "detail": "6.6 ns <= 25.0 ns" },
    "worker_invariant": { "pass": false, "detail": "digests differ: aa / bb" }
  },
  "gates_passed": false,
  "note": "text value"
}"#;

    #[test]
    fn extracts_scalars_and_skips_structure() {
        let scalars = extract_scalars(SAMPLE);
        let keys: Vec<&str> = scalars.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "benchmark",
                "physical_cores",
                "counter_inc",
                "identical",
                "gates_passed",
                "note"
            ]
        );
        assert_eq!(scalars[3].1, Scalar::Bool(true));
        assert_eq!(scalars[1].1, Scalar::Number("8".to_string()));
    }

    #[test]
    fn parses_the_one_line_gate_shape() {
        let gates = extract_gates(SAMPLE);
        let parsed: Vec<_> = gates
            .iter()
            .map(|gate| (gate.name.as_str(), gate.pass, gate.detail.as_str()))
            .collect();
        assert_eq!(
            parsed,
            [
                ("within_budget", true, "6.6 ns <= 25.0 ns"),
                ("worker_invariant", false, "digests differ: aa / bb"),
            ]
        );
    }

    #[test]
    fn gate_tally_counts_gates_entries_only() {
        // `identical` and `gates_passed` are booleans, not gates
        let bench = Bench::parse("BENCH_sample.json", SAMPLE);
        assert_eq!(bench.tally(), (1, 2));
        assert!(!bench.passes());
        assert_eq!(bench.name(), "sample bench");
        let report = full_report(std::slice::from_ref(&bench));
        assert!(report.contains("gate `worker_invariant`: FAIL (digests differ"));
        let table = summary_table(&[bench]);
        assert!(table.contains("**FAIL**"));
        assert!(table.contains("1/2"));
    }

    #[test]
    fn a_file_without_gates_tallies_zero_and_passes() {
        let json = "{\n  \"benchmark\": \"plain\",\n  \"bit_identical\": true\n}";
        let bench = Bench::parse("BENCH_plain.json", json);
        assert_eq!(bench.tally(), (0, 0));
        assert!(bench.passes());
    }
}
