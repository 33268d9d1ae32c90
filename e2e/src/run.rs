//! One run: one workload in one mode.
//!
//! With tracing off a run reports the end-to-end metrics: a discarded
//! warm-up pass, then timed passes on fresh services at one pool worker
//! until `--seconds` have gone by. With tracing on it reports the
//! per-layer metrics and checks the 2-worker outcome (see
//! [`crate::layers`]).

use crate::layers;
use crate::measure::{cluster_pass, serve_pass, Pass};
use crate::report::{Readings, RunResult, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::workload::{
    cluster_scale, KernelCold, OverloadChaos, Scale, ServeSpec, SteadyMix, WorkloadInfo, WORKLOADS,
};
use std::path::PathBuf;
use std::time::Instant;

/// Timed passes a run makes at least, however short `--seconds` is:
/// the fewest a median is worth taking over.
pub const MIN_PASSES: usize = 3;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// The workload.
    pub workload: WorkloadInfo,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long the run measures, seconds.
    pub seconds: f64,
    /// Tracing on: report the per-layer metrics.
    pub trace: bool,
    /// Workload sizes.
    pub scale: Scale,
    /// Directory the traced run writes `trace-<workload>.json` to.
    pub trace_out: Option<PathBuf>,
}

/// A finished run: the result line plus what a person wants to see.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The checked readings.
    pub result: RunResult,
    /// `key=value` facts about the run (passes, samples, digest).
    pub facts: Vec<(&'static str, String)>,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

/// Looks a workload up by name.
pub fn workload_named(name: &str) -> Option<WorkloadInfo> {
    WORKLOADS.iter().copied().find(|info| info.name == name)
}

/// Runs `config`.
pub fn run(config: &RunConfig) -> Run {
    let RunConfig {
        seed, scale, trace, ..
    } = *config;
    match (config.workload.name, trace) {
        ("serve_steady_mix", false) => end_to_end(config, serve_runner(SteadyMix::at(scale), seed)),
        ("serve_kernel_cold", false) => {
            end_to_end(config, serve_runner(KernelCold::at(scale), seed))
        }
        ("serve_overload_chaos", false) => {
            end_to_end(config, serve_runner(OverloadChaos::at(scale), seed))
        }
        ("rtrm_cluster_storm", false) => {
            end_to_end(config, || cluster_pass(&cluster_scale(scale), seed, 1).0)
        }
        ("serve_steady_mix", true) => layers::serve_layers(config, &SteadyMix::at(scale)),
        ("serve_kernel_cold", true) => layers::serve_layers(config, &KernelCold::at(scale)),
        ("serve_overload_chaos", true) => layers::serve_layers(config, &OverloadChaos::at(scale)),
        ("rtrm_cluster_storm", true) => layers::cluster_layers(config, &cluster_scale(scale)),
        (other, _) => unreachable!("{other} is not in WORKLOADS"),
    }
}

fn serve_runner<S: ServeSpec>(spec: S, seed: u64) -> impl FnMut() -> Pass {
    move || serve_pass(&spec, seed, 1, None, |_, _, _| {}).pass
}

/// The quiet half of the passes: the `ceil(n / 2)` with the shortest
/// timed spans. The machine is shared, and interference from its other
/// tenants only ever slows a pass down — it was measured switching
/// between two levels 20% apart, seconds at a time — so the faster
/// half estimates the uncontended machine and is what repeats from run
/// to run. Every timing metric is taken over these passes only.
pub fn quiet_half(passes: &[Pass]) -> Vec<&Pass> {
    let mut by_wall: Vec<&Pass> = passes.iter().collect();
    by_wall.sort_by(|a, b| a.timed_s().total_cmp(&b.timed_s()));
    by_wall.truncate(passes.len().div_ceil(2));
    by_wall
}

/// The output checks every mode shares: each pass correct on its own,
/// no op lost, and one outcome digest across passes and worker counts.
pub fn check_passes<'a>(passes: impl IntoIterator<Item = (&'a str, &'a Pass)>) -> Vec<String> {
    let mut failures = Vec::new();
    let mut reference: Option<(&str, u64)> = None;
    for (label, pass) in passes {
        failures.extend(pass.failures.iter().map(|f| format!("{label}: {f}")));
        if pass.lost > 0 {
            failures.push(format!(
                "{label}: {} ops reached no terminal state",
                pass.lost
            ));
        }
        match reference {
            None => reference = Some((label, pass.digest)),
            Some((first, digest)) if digest != pass.digest => failures.push(format!(
                "{label}: outcome digest {:016x} differs from {first}'s {digest:016x}",
                pass.digest
            )),
            Some(_) => {}
        }
    }
    failures
}

/// Peak resident set of this process, MB (`VmHWM` of
/// `/proc/self/status`). A run is one process, so this is the peak of
/// its workload alone.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median throughput of the quiet half of `passes`, ops per second.
pub fn quiet_ops_per_s(passes: &[Pass]) -> f64 {
    let throughput: Vec<f64> = quiet_half(passes)
        .iter()
        .map(|pass| pass.ops as f64 / pass.timed_s())
        .collect();
    median(&throughput)
}

fn end_to_end(config: &RunConfig, mut pass: impl FnMut() -> Pass) -> Run {
    // the discarded warm-up is one whole pass — build, serve, drop — so
    // the peak it leaves is the workload's; later passes add allocator
    // drift
    let warm_up = pass();
    let peak_rss = peak_rss_mb();
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < config.seconds {
        passes.push(pass());
    }

    let mut failures = check_passes(
        [("warm-up", &warm_up)]
            .into_iter()
            .chain(passes.iter().map(|pass| ("timed pass", pass))),
    );
    if peak_rss.is_none() {
        failures.push("cannot read VmHWM from /proc/self/status".to_string());
    }

    let quiet = quiet_half(&passes);
    let calls_ms: Vec<f64> = quiet
        .iter()
        .flat_map(|pass| pass.call_s.iter().map(|s| s * 1e3))
        .collect();
    let ops: u64 = passes.iter().map(|pass| pass.ops).sum();
    let sum = |field: fn(&Pass) -> u64| passes.iter().map(field).sum::<u64>() as f64;
    let setups: Vec<f64> = passes.iter().map(|pass| pass.setup_s).collect();

    let mut readings = Readings::default();
    readings.set("setup_s", median(&setups));
    readings.set("ops_per_s", quiet_ops_per_s(&passes));
    readings.set("batch_ms_p50", percentile(&calls_ms, 50.0));
    readings.set("batch_ms_p95", percentile(&calls_ms, 95.0));
    readings.set("allocs_per_op", sum(|pass| pass.allocs) / ops as f64);
    readings.set("peak_rss_mb", peak_rss.unwrap_or(0.0));
    readings.set("ok_share", sum(|pass| pass.ok) / ops as f64);

    let metrics = readings.against(&END_TO_END);
    if let Some((def, value)) = metrics.iter().find(|(_, v)| !v.is_finite() || *v <= 0.0) {
        failures.push(format!("{} reads {value}, not a positive number", def.name));
    }
    Run {
        result: RunResult {
            correct: failures.is_empty(),
            attempted: ops,
            failed: sum(|pass| pass.lost) as u64,
            metrics,
        },
        facts: vec![
            ("passes", passes.len().to_string()),
            ("quiet_passes", quiet.len().to_string()),
            ("batch_samples", calls_ms.len().to_string()),
            ("ops_per_pass", passes[0].ops.to_string()),
            ("outcome_digest", format!("{:016x}", warm_up.digest)),
        ],
        failures,
    }
}

/// Packs per-layer readings into a [`Run`].
pub fn layer_run(
    readings: &Readings,
    attempted: u64,
    failed: u64,
    facts: Vec<(&'static str, String)>,
    mut failures: Vec<String>,
) -> Run {
    let metrics = readings.against(&PER_LAYER);
    if let Some((def, value)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        failures.push(format!("{} reads {value}, not a number", def.name));
    }
    Run {
        result: RunResult {
            correct: failures.is_empty(),
            attempted,
            failed,
            metrics,
        },
        facts,
        failures,
    }
}
