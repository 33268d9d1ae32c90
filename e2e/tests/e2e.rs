//! The benchmark at `--scale tiny`: every workload's checks, the names
//! it prints against `BENCHMARK.json`, and the helpers the metrics rest
//! on.

use antarex_e2e::alloc::CountingAlloc;
use antarex_e2e::cli::DEFAULT_SECONDS;
use antarex_e2e::measure::{cluster_pass, serve_pass};
use antarex_e2e::report::{Json, MetricDef, END_TO_END, PER_LAYER};
use antarex_e2e::span::{self_times_ns, Span};
use antarex_e2e::stats::{median, percentile};
use antarex_e2e::timed::{ProbeTap, Timed};
use antarex_e2e::workload::{
    cluster_scale, KernelCold, OverloadChaos, Scale, ServeSpec, SteadyMix, WORKLOADS,
};
use antarex_serve::kernel::KernelEvaluator;
use antarex_serve::Evaluator;
use antarex_tuner::{Configuration, KnobValue};
use std::process::Command;

// `allocs_per_op` must read above zero for a run to be correct
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// Asserts that `listed` (a `BENCHMARK.json` array) names exactly the
/// metrics of `table`, in order, with the same unit and direction.
fn assert_same_metrics(listed: &Json, table: &[MetricDef], bounded: bool) {
    let names: Vec<&str> = listed
        .items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::str)
                .expect("a metric has a name")
        })
        .collect();
    let expected: Vec<&str> = table.iter().map(|def| def.name).collect();
    assert_eq!(names, expected);
    for (metric, def) in listed.items().iter().zip(table) {
        assert_eq!(
            metric.get("unit").and_then(Json::str),
            Some(def.unit),
            "{}",
            def.name
        );
        assert_eq!(
            metric.get("better").and_then(Json::str),
            Some(def.better.label()),
            "{}",
            def.name
        );
        assert_eq!(
            metric.get("bound").and_then(Json::num),
            bounded.then_some(def.bound),
            "{}",
            def.name
        );
    }
}

#[test]
fn benchmark_json_lists_the_programs_own_tables() {
    let benchmark = benchmark_json();
    let workloads: Vec<(&str, &str)> = benchmark
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| {
            (
                w.get("name").and_then(Json::str).expect("name"),
                w.get("why").and_then(Json::str).expect("why"),
            )
        })
        .collect();
    let expected: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, expected);
    assert_same_metrics(
        benchmark.get("end_to_end").expect("end_to_end"),
        &END_TO_END,
        true,
    );
    assert_same_metrics(
        benchmark.get("per_layer").expect("per_layer"),
        &PER_LAYER,
        false,
    );
    assert_eq!(
        benchmark.get("run_seconds").and_then(Json::num),
        Some(DEFAULT_SECONDS as f64)
    );
    assert!(END_TO_END
        .iter()
        .any(|def| def.name == "setup_s" && def.unit == "s"));
}

/// Runs the built binary over every workload in both modes at tiny
/// scale: it must exit 0, and each result line must carry exactly the
/// keys of the contract and the metric names of its mode.
#[test]
fn every_workload_passes_its_checks_and_prints_the_listed_names() {
    let dir = std::env::temp_dir().join(format!("antarex-e2e-test-{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args([
            "--seed",
            "7",
            "--seconds",
            "0",
            "--scale",
            "tiny",
            "--trace-out",
        ])
        .arg(&dir)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(output.status.success(), "a check failed:\n{stdout}");

    let results: Vec<Json> = stdout
        .lines()
        .filter(|line| line.starts_with('{'))
        .map(|line| Json::parse(line).expect("a result line is JSON"))
        .collect();
    assert_eq!(results.len(), 2 * WORKLOADS.len(), "two modes per workload");
    for (index, result) in results.iter().enumerate() {
        let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert!(result.get("attempted").and_then(Json::num) >= Some(1.0));
        assert_eq!(result.get("failed").and_then(Json::num), Some(0.0));
        // children run end-to-end first, then traced
        let table: &[MetricDef] = if index % 2 == 0 {
            &END_TO_END
        } else {
            &PER_LAYER
        };
        let metrics = result.get("metrics").expect("metrics").members();
        let names: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, table.iter().map(|def| def.name).collect::<Vec<_>>());
        for ((_, reading), def) in metrics.iter().zip(table) {
            assert_eq!(reading.get("unit").and_then(Json::str), Some(def.unit));
            assert!(reading.get("value").and_then(Json::num).is_some());
        }
    }
    for workload in &WORKLOADS {
        let trace = dir.join(format!("trace-{}.json", workload.name));
        let text = std::fs::read_to_string(&trace).expect("the traced run wrote its spans");
        assert!(
            Json::parse(&text).is_ok(),
            "{} is not JSON",
            trace.display()
        );
    }
    std::fs::remove_dir_all(&dir).expect("the trace directory can be removed");
}

#[test]
fn unknown_arguments_exit_with_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark starts");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "no result line on a usage error");
}

#[test]
fn outcome_digests_match_at_one_and_two_workers() {
    fn digests<S: ServeSpec>(spec: &S) -> (u64, u64) {
        let digest = |workers| serve_pass(spec, 7, workers, None, |_, _, _| {}).pass.digest;
        (digest(1), digest(2))
    }
    let (one, two) = digests(&SteadyMix::at(Scale::Tiny));
    assert_eq!(one, two, "serve_steady_mix");
    let (one, two) = digests(&KernelCold::at(Scale::Tiny));
    assert_eq!(one, two, "serve_kernel_cold");
    let (one, two) = digests(&OverloadChaos::at(Scale::Tiny));
    assert_eq!(one, two, "serve_overload_chaos");
    let scale = cluster_scale(Scale::Tiny);
    assert_eq!(
        cluster_pass(&scale, 7, 1).0.digest,
        cluster_pass(&scale, 7, 2).0.digest,
        "rtrm_cluster_storm"
    );
}

#[test]
fn percentile_picks_the_nearest_rank() {
    let samples: Vec<f64> = (1..=20).rev().map(f64::from).collect();
    assert_eq!(
        percentile(&samples, 50.0),
        10.0,
        "rank ceil(0.50 x 20) = 10"
    );
    assert_eq!(
        percentile(&samples, 95.0),
        19.0,
        "rank ceil(0.95 x 20) = 19"
    );
    assert_eq!(percentile(&samples, 100.0), 20.0);
    assert_eq!(percentile(&[7.0], 95.0), 7.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5, "mean of the middle two");
}

#[test]
fn self_time_is_duration_minus_the_interval_children_cover() {
    let span = |start_ns, end_ns, parent| Span {
        name: "span",
        start_ns,
        end_ns,
        parent,
        batch_id: 0,
    };
    let spans = [
        span(0, 100, None),     // root
        span(10, 30, Some(0)),  // child
        span(20, 50, Some(0)),  // overlaps the first child: 10..50 covered once
        span(60, 70, Some(0)),  // disjoint child
        span(25, 28, Some(2)),  // grandchild, charged to its parent only
        span(90, 120, Some(0)), // runs past the root: clipped to 90..100
    ];
    assert_eq!(
        self_times_ns(&spans),
        [100 - 40 - 10 - 10, 20, 27, 10, 3, 30]
    );
}

#[test]
fn timed_evaluator_returns_what_it_wraps() {
    let mut config = Configuration::new();
    config.set("mantissa", KnobValue::Int(12));
    let features = [48.0];
    let plain = KernelEvaluator::fma();
    let tap = ProbeTap::capturing();
    let timed = Timed::new(KernelEvaluator::fma(), Some(tap.clone()));
    let untapped = Timed::new(KernelEvaluator::fma(), None);

    assert_eq!(
        timed.evaluate(&config, &features),
        plain.evaluate(&config, &features)
    );
    assert_eq!(
        timed.evaluate_segmented(&config, &features),
        plain.evaluate_segmented(&config, &features)
    );
    assert_eq!(
        untapped.evaluate(&config, &features),
        plain.evaluate(&config, &features)
    );
    assert_eq!(
        untapped.evaluate_segmented(&config, &features),
        plain.evaluate_segmented(&config, &features)
    );

    let spans = tap.sink.drain();
    assert_eq!(spans.len(), 2, "one span per tapped call");
    assert!(spans
        .iter()
        .all(|span| span.name == "evaluate" && span.parent.is_none()));
    let probes = tap.take_probes();
    assert_eq!(probes.len(), 2);
    assert_eq!(probes[0].evaluation, plain.evaluate(&config, &features));
    assert_eq!(probes[0].features, features);
}
