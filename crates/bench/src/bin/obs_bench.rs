//! Headline numbers for the observability plane.
//!
//! Prints a JSON object (for `BENCH_obs.json`) combining honest
//! *wall-clock* per-event overheads of the plane's instruments on this
//! machine — counter increment, gauge set, histogram record, span
//! record — with the determinism and accounting checks, which are
//! virtual-time and hardware-independent:
//!
//! * `worker_invariant` — invariant exposition + folded trace are
//!   byte-identical at every pool worker count of the sweep;
//! * `s1_figures_match` — the registry-derived scaling-grid counts are
//!   identical down a worker column, as the S1 experiment has always
//!   reported;
//! * `r2_figures_match` — batch-report sums (the pre-migration
//!   bookkeeping) equal the registry counters under the R2 fault
//!   campaign, metric by metric.
//!
//! Those three checks and the two wall-clock budgets are the file's
//! `"gates"`: a hot-path event must stay under `OBS_BUDGET_NS`
//! (default 25 ns) and a span record — a mutexed ring and an interning
//! probe — under `OBS_SPAN_BUDGET_NS` (default 250 ns). The binary
//! exits nonzero when any gate fails — CI publishes the JSON and gates
//! on the exit code.
//!
//! Usage: `cargo run --release -p antarex-bench --bin obs_bench`

use antarex_bench::obs_exp::{dual_accounting, invariance_holds, ObsScale};
use antarex_bench::serve_exp::{scaling_row, ServeScale};
use antarex_bench::{env_budget_ns, exit_on_failed_gates, ns_per_op, physical_cores, print_gates};
use antarex_obs::{MetricsRegistry, Scope, SpanId, Tracer};
use std::hint::black_box;

fn main() {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("bench_events_total", Scope::Invariant);
    let gauge = registry.gauge("bench_level", Scope::Invariant);
    let histogram = registry.histogram("bench_latency_seconds", Scope::Timing);

    let counter_inc_ns = ns_per_op(20_000_000, || counter.inc());
    let mut level = 0.0f64;
    let gauge_set_ns = ns_per_op(20_000_000, || {
        level += 1.0;
        gauge.set(black_box(level));
    });
    let values: Vec<f64> = (0..1024).map(|i| 1e-6 * (i + 1) as f64).collect();
    let mut i = 0usize;
    let histogram_record_ns = ns_per_op(20_000_000, || {
        i = (i + 1) & 1023;
        histogram.record(black_box(values[i]));
    });
    let tracer = Tracer::new(4096);
    let mut t = 0.0f64;
    let span_record_ns = ns_per_op(2_000_000, || {
        t += 1e-6;
        black_box(tracer.record("bench", Some(1), SpanId::NONE, t, t + 1e-7));
    });

    // determinism + accounting checks on the tiny scales: virtual-time,
    // so the booleans are hardware-independent
    let obs_scale = ObsScale::tiny();
    let worker_invariant = invariance_holds(42, &obs_scale);
    let accounting = dual_accounting(42, &obs_scale);
    let r2_agreeing = accounting
        .iter()
        .filter(|r| r.report_sum == r.registry)
        .count();
    let serve_scale = ServeScale::tiny();
    let one = scaling_row(42, &serve_scale, 6, 1);
    let four = scaling_row(42, &serve_scale, 6, 4);
    let s1_figures_match = one.requests == four.requests
        && one.served == four.served
        && one.shed == four.shed
        && one.evaluated == four.evaluated
        && one.cache_hit_rate() == four.cache_hit_rate();

    let budget_ns = env_budget_ns("OBS_BUDGET_NS", 25.0);
    let span_budget_ns = env_budget_ns("OBS_SPAN_BUDGET_NS", 250.0);
    let hot_path_event_ns = counter_inc_ns.max(gauge_set_ns).max(histogram_record_ns);
    let gates = [
        (
            "within_budget",
            format!("hot-path event {hot_path_event_ns:.1} ns <= {budget_ns:.1} ns"),
            hot_path_event_ns <= budget_ns,
        ),
        (
            "span_within_budget",
            format!("span record {span_record_ns:.1} ns <= {span_budget_ns:.1} ns"),
            span_record_ns <= span_budget_ns,
        ),
        (
            "worker_invariant",
            format!("exposition + folded trace identical across workers: {worker_invariant}"),
            worker_invariant,
        ),
        (
            "s1_figures_match",
            format!(
                "1 vs 4 workers: {} / {} served, {} / {} evaluated",
                one.served, four.served, one.evaluated, four.evaluated
            ),
            s1_figures_match,
        ),
        (
            "r2_figures_match",
            format!(
                "{r2_agreeing} of {} report sums equal the registry",
                accounting.len()
            ),
            r2_agreeing == accounting.len(),
        ),
    ];

    let cores = physical_cores();
    println!("{{");
    println!("  \"benchmark\": \"antarex-obs: tracing + metrics plane\",");
    println!("  \"physical_cores\": {cores},");
    println!("  \"hot_path_event_ns\": {hot_path_event_ns:.1},");
    println!("  \"budget_ns\": {budget_ns:.1},");
    println!("  \"span_budget_ns\": {span_budget_ns:.1},");
    print_gates(&gates);
    println!("  \"per_event_ns\": {{");
    println!("    \"counter_inc\": {counter_inc_ns:.1},");
    println!("    \"gauge_set\": {gauge_set_ns:.1},");
    println!("    \"histogram_record\": {histogram_record_ns:.1},");
    println!("    \"span_record\": {span_record_ns:.1}");
    println!("  }}");
    println!("}}");
    exit_on_failed_gates("obs_bench", &gates);
}
