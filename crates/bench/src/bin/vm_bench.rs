//! Headline numbers and gates for the metered bytecode VM.
//!
//! Prints a JSON object (for `BENCH_vm.json`) with honest *wall-clock*
//! probe-throughput numbers on this machine: the tree-walking reference
//! interpreter vs the bytecode VM over the canonical kernel suite, plus
//! the lowering cost the instrumented-code cache amortizes and the
//! serving-tier replay hit rate.
//!
//! The acceptance gates are evaluated after the report and the process
//! exits nonzero when any fails, so CI can run this binary directly:
//!
//! * `probe_speedup` — geometric-mean VM speedup over the interpreter
//!   across the suite is at least 10×;
//! * `replay_hit_rate` — the instrumented-code cache absorbs at least
//!   95% of serving-tier lowerings.
//!
//! Usage: `cargo run --release -p antarex-bench --bin vm_bench`

use antarex_bench::vm_exp::kernel_suite;
use antarex_bench::{exit_on_failed_gates, ns_per_op, physical_cores, print_gates};
use antarex_ir::cost::CostModel;
use antarex_ir::interp::{ExecEnv, Interp};
use antarex_ir::parse_program;
use antarex_serve::kernel::KernelEvaluator;
use antarex_serve::Evaluator;
use antarex_tuner::{Configuration, KnobValue};
use antarex_vm::{lower_program, Vm};
use std::hint::black_box;

/// Minimum ns/op across `windows` measurement windows: the minimum is the
/// standard estimator for "time absent interference" on a noisy machine —
/// scheduler preemption and frequency transitions only ever add time.
fn min_ns_per_op(windows: u32, iters: u64, mut op: impl FnMut()) -> f64 {
    (0..windows)
        .map(|_| ns_per_op(iters, &mut op))
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let model = CostModel::new();
    let mut rows = Vec::new();
    let mut log_speedup_sum = 0.0;
    for case in kernel_suite() {
        let program = parse_program(case.source).expect("suite kernel parses");

        let mut interp = Interp::new(program.clone());
        // warm up, then time probe replay on each engine: same budget
        // semantics, same statistics, same results (experiment v1)
        let mut env = ExecEnv::new();
        interp.call(case.function, &case.args, &mut env).unwrap();
        let interp_ns = min_ns_per_op(3, 300, || {
            let mut env = ExecEnv::new();
            black_box(interp.call(case.function, black_box(&case.args), &mut env)).unwrap();
        });

        let mut vm = Vm::new(program.clone());
        let mut env = ExecEnv::new();
        vm.call(case.function, &case.args, &mut env).unwrap();
        let vm_ns = min_ns_per_op(3, 3000, || {
            let mut env = ExecEnv::new();
            black_box(vm.call(case.function, black_box(&case.args), &mut env)).unwrap();
        });

        let lower_ns = min_ns_per_op(3, 2000, || {
            black_box(lower_program(black_box(&program), black_box(&model)));
        });

        let speedup = interp_ns / vm_ns;
        log_speedup_sum += speedup.ln();
        rows.push((case.name, interp_ns, vm_ns, speedup, lower_ns));
    }
    let geomean_speedup = (log_speedup_sum / rows.len() as f64).exp();

    // serving-tier replay: 100 probes over 4 precision rungs x 3 workloads
    let evaluator = KernelEvaluator::fma();
    let mut config = Configuration::new();
    let mut i = 0u64;
    let replay_ns = ns_per_op(100, || {
        let bits = [52i64, 23, 12, 8][(i % 4) as usize];
        let features = [16.0 + (i % 3) as f64 * 8.0];
        config.set("mantissa", KnobValue::Int(bits));
        black_box(evaluator.evaluate(black_box(&config), black_box(&features)));
        i += 1;
    });
    let hit_rate = evaluator.cache().hit_rate();

    let gates = [
        (
            "probe_speedup",
            format!("geomean {geomean_speedup:.1}x >= 10x"),
            geomean_speedup >= 10.0,
        ),
        (
            "replay_hit_rate",
            format!("{:.1}% >= 95%", hit_rate * 100.0),
            hit_rate >= 0.95,
        ),
    ];

    let cores = physical_cores();
    println!("{{");
    println!("  \"benchmark\": \"antarex-vm: metered bytecode probe throughput\",");
    println!("  \"physical_cores\": {cores},");
    println!("  \"kernels\": [");
    for (i, (name, interp_ns, vm_ns, speedup, lower_ns)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!(
            "    {{\"kernel\": \"{name}\", \"interp_ns_per_probe\": {interp_ns:.0}, \"vm_ns_per_probe\": {vm_ns:.0}, \"speedup\": {speedup:.1}, \"lowering_ns\": {lower_ns:.0}}}{comma}"
        );
    }
    println!("  ],");
    println!("  \"probe_speedup_geomean\": {geomean_speedup:.1},");
    print_gates(&gates);
    println!("  \"serving_replay\": {{");
    println!("    \"ns_per_probe\": {replay_ns:.0},");
    println!("    \"code_cache_hits\": {},", evaluator.cache().hits());
    println!("    \"code_cache_misses\": {},", evaluator.cache().misses());
    println!("    \"hit_rate\": {hit_rate:.3}");
    println!("  }}");
    println!("}}");
    exit_on_failed_gates("vm_bench", &gates);
}
