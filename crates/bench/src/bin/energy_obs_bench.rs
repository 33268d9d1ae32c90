//! Headline numbers for causal tracing + energy attribution (E1).
//!
//! Prints a JSON object (for `BENCH_energy_obs.json`) combining the
//! honest *wall-clock* cost of deriving a [`TraceCtx`] on this machine
//! with the virtual-time gates of the full-scale mixed campaign:
//!
//! * `trace_ctx_within_budget` — `TraceCtx::derive` stays under
//!   `ENERGY_OBS_TRACE_BUDGET_NS` (default 25 ns), so the untraced hot
//!   path pays only a few SplitMix64 rounds per request;
//! * `requests_at_scale` — the campaign pushes ≥ 10⁵ requests through
//!   the full admission → tuning → pool → VM → RTRM stack;
//! * `conservation_exact` — Σ per-request attributed energy + idle
//!   remainder ≡ the facility meter, exact integer nanojoules, at
//!   every worker count of the sweep;
//! * `worker_invariant` — the campaign digest (reports + invariant
//!   exposition + energy ledger + Chrome trace export) is
//!   byte-identical at 1/2/4/8 physical workers.
//!
//! The four are the file's `"gates"`; the binary exits nonzero when any
//! fails — CI publishes the JSON and gates on the exit code.
//!
//! Usage: `cargo run --release -p antarex-bench --bin energy_obs_bench`

use antarex_bench::energy_obs::{campaign_invariance, EnergyScale};
use antarex_bench::{env_budget_ns, exit_on_failed_gates, ns_per_op, physical_cores, print_gates};
use antarex_obs::{Layer, SpanId, TraceCtx, TraceEvent, TraceId, TraceStore};
use std::hint::black_box;

fn main() {
    // wall-clock: the per-request cost tracing adds even when nothing
    // is sampled (derivation), and the sampled-path record cost
    let mut seq = 0u32;
    let derive_ns = ns_per_op(20_000_000, || {
        seq = seq.wrapping_add(1);
        black_box(TraceCtx::derive(
            black_box(7),
            black_box(0x9e37_79b9),
            black_box(11),
            seq,
            black_box(8),
        ));
    });
    let store = TraceStore::new(1 << 20, 1);
    let mut t = 0.0f64;
    let record_ns = ns_per_op(1_000_000, || {
        t += 1e-6;
        black_box(store.record(TraceEvent {
            trace: TraceId(42),
            tenant: 7,
            layer: Layer::Vm,
            name: "bench",
            start_s: t,
            end_s: t + 1e-7,
            value: 1.0,
            span: SpanId::NONE,
        }));
    });

    // virtual-time gates on the full-scale campaign: hardware-independent
    let scale = EnergyScale::full();
    let counts = [1usize, 2, 4, 8];
    let (runs, worker_invariant) = campaign_invariance(&scale, &counts);
    let reference = &runs[0];
    let conserved = runs.iter().filter(|run| run.conserved).count();

    let trace_budget_ns = env_budget_ns("ENERGY_OBS_TRACE_BUDGET_NS", 25.0);
    let gates = [
        (
            "trace_ctx_within_budget",
            format!("derive {derive_ns:.1} ns <= {trace_budget_ns:.1} ns"),
            derive_ns <= trace_budget_ns,
        ),
        (
            "requests_at_scale",
            format!("{} requests >= 100000", reference.requests),
            reference.requests >= 100_000,
        ),
        (
            "conservation_exact",
            format!(
                "{conserved} of {} worker counts conserve exactly",
                runs.len()
            ),
            conserved == runs.len(),
        ),
        (
            "worker_invariant",
            format!("campaign digests identical at {counts:?}: {worker_invariant}"),
            worker_invariant,
        ),
    ];

    let cores = physical_cores();
    println!("{{");
    println!("  \"benchmark\": \"antarex-obs: causal tracing + energy attribution\",");
    println!("  \"physical_cores\": {cores},");
    println!("  \"trace_ctx_derive_ns\": {derive_ns:.1},");
    println!("  \"trace_budget_ns\": {trace_budget_ns:.1},");
    println!("  \"trace_record_ns\": {record_ns:.1},");
    println!("  \"campaign_requests\": {},", reference.requests);
    println!("  \"campaign_served\": {},", reference.served);
    println!("  \"facility_joules\": {:.6},", reference.facility_j);
    println!("  \"attributed_joules\": {:.6},", reference.attributed_j);
    println!("  \"idle_joules\": {:.6},", reference.idle_j);
    println!(
        "  \"worker_digests\": [{}],",
        runs.iter()
            .map(|run| format!("\"{:016x}\"", run.digest))
            .collect::<Vec<_>>()
            .join(", ")
    );
    print_gates(&gates);
    println!("  \"trace_events_retained\": {},", reference.trace_retained);
    println!("  \"trace_events_dropped\": {}", reference.trace_dropped);
    println!("}}");
    exit_on_failed_gates("energy_obs_bench", &gates);
}
