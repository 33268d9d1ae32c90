//! v1 — the metered bytecode VM against the reference interpreter.
//!
//! The serving stack's probe hot path executes mini-C kernels many
//! thousands of times per tuning session; `antarex-vm` lowers each
//! kernel once to metered bytecode and replays it from a weave-time
//! [`InstrumentedCodeCache`]. This experiment proves the two properties
//! the redesign rests on, with **no wall-clock numbers** (CI compares
//! the report with its committed golden byte for byte):
//!
//! 1. **bit-identity** — over the canonical kernel suite, its woven
//!    variants, and a precision sweep, the VM reproduces the reference
//!    interpreter's values, cost accounting, FP energy, memory traffic
//!    and error behaviour exactly;
//! 2. **sharing** — the instrumented-code cache turns serving-tier
//!    replay into cache hits: a `(program digest, metering params)`
//!    pair lowers once across tenants, rungs and rounds.
//!
//! `BENCH_vm.json` (`v1_bench`) gates the VM's probe-throughput
//! geomean over the interpreter on the host clock and prints the value
//! it judged; it writes only the code-cache counts. Per-kernel probe and
//! lowering times, and whole `KernelEvaluator` probes, are timed by
//! `cargo bench --bench vm_dispatch` (groups `probe`, `lower` and
//! `probe/kernel_evaluator`).

use crate::{fixed, ns_per_op, BenchFile};
use antarex_core::scenario::{
    DOT_KERNEL, DYNAMIC_KERNEL, MATVEC_KERNEL, STENCIL_KERNEL, SUMSQ_KERNEL,
};
use antarex_ir::cost::{CostModel, ExecStats};
use antarex_ir::interp::{ExecEnv, Interp};
use antarex_ir::value::Value;
use antarex_ir::{analysis, parse_program, IrError, Program};
use antarex_precision::vars::{float_vars, set_precision};
use antarex_serve::kernel::KernelEvaluator;
use antarex_serve::Evaluator;
use antarex_tuner::{Configuration, KnobValue};
use antarex_vm::{lower_function, InstrumentedCodeCache, Vm};
use antarex_weaver::transform::unroll::unroll_by_factor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;
use std::hint::black_box;

/// One kernel of the equivalence suite: source, entry point, arguments.
pub struct SuiteCase {
    /// Display name.
    pub name: &'static str,
    /// Mini-C source.
    pub source: &'static str,
    /// Entry function.
    pub function: &'static str,
    /// Deterministic arguments.
    pub args: Vec<Value>,
}

fn buf(seed: u64, n: usize) -> Value {
    let mut rng = StdRng::seed_from_u64(seed);
    Value::from(
        (0..n)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect::<Vec<f64>>(),
    )
}

/// The canonical kernel suite (scenario kernels with seeded inputs).
pub fn kernel_suite() -> Vec<SuiteCase> {
    vec![
        SuiteCase {
            name: "sumsq16",
            source: SUMSQ_KERNEL,
            function: "sumsq16",
            args: vec![buf(1, 16)],
        },
        SuiteCase {
            name: "dynamic-kernel",
            source: DYNAMIC_KERNEL,
            function: "run",
            args: vec![buf(2, 32), Value::Int(32)],
        },
        SuiteCase {
            name: "matvec8",
            source: MATVEC_KERNEL,
            function: "matvec8",
            args: vec![buf(3, 64), buf(4, 8), buf(5, 8)],
        },
        SuiteCase {
            name: "stencil32",
            source: STENCIL_KERNEL,
            function: "stencil32",
            args: vec![buf(6, 32), buf(7, 32)],
        },
        SuiteCase {
            name: "dot-64",
            source: DOT_KERNEL,
            function: "dot",
            args: vec![buf(8, 64), buf(9, 64), Value::Int(64)],
        },
    ]
}

/// Program variants of one case: base, unrolled, and a precision ladder.
fn variants(case: &SuiteCase) -> Vec<(String, Program)> {
    let base = parse_program(case.source).expect("suite kernel parses");
    let mut out = vec![("base".to_string(), base.clone())];
    let mut unrolled = base.clone();
    let paths: Vec<_> = {
        let function = base.function(case.function).expect("entry exists");
        analysis::loops(&function.body)
            .into_iter()
            .map(|(path, _)| path)
            .collect()
    };
    if let Some(path) = paths.first() {
        let mut applied = false;
        let _ = unrolled.edit_function(case.function, |f| {
            applied = unroll_by_factor(&mut f.body, path, 4).is_ok();
        });
        if applied {
            out.push(("unroll x4".to_string(), unrolled));
        }
    }
    for bits in [23u8, 12, 8] {
        let mut lowered = base.clone();
        let vars = lowered
            .function(case.function)
            .map(|f| float_vars(f))
            .unwrap_or_default();
        for var in &vars {
            let _ = set_precision(&mut lowered, case.function, var, bits);
        }
        out.push((format!("mantissa {bits}"), lowered));
    }
    out
}

/// Runs one engine call in a fresh environment, returning the outcome
/// and the metered statistics.
fn metered(
    call: impl FnOnce(&mut ExecEnv) -> Result<Value, IrError>,
) -> (Result<Value, IrError>, ExecStats) {
    let mut env = ExecEnv::new();
    let result = call(&mut env);
    (result, env.stats)
}

/// `true` when both engines produced bit-identical outcomes.
fn identical(
    a: &(Result<Value, IrError>, ExecStats),
    b: &(Result<Value, IrError>, ExecStats),
) -> bool {
    a.0 == b.0
        && a.1.cost == b.1.cost
        && a.1.flops == b.1.flops
        && a.1.flop_energy.to_bits() == b.1.flop_energy.to_bits()
        && a.1.mem_ops == b.1.mem_ops
        && a.1.loop_iters == b.1.loop_iters
        && a.1.calls == b.1.calls
}

/// The v1 report (deterministic; no wall clock).
pub(crate) fn v1_vm_equivalence() -> String {
    let mut out = String::new();
    let model = CostModel::new();

    writeln!(out, "engine equivalence (interp vs bytecode VM)").unwrap();
    writeln!(
        out,
        "  {:<16} {:<12} {:>10} {:>8} {:>12} {:>9}",
        "kernel", "variant", "cost", "flops", "fp-energy", "verdict"
    )
    .unwrap();
    let mut checked = 0usize;
    let mut agreed = 0usize;
    for case in kernel_suite() {
        for (label, program) in variants(&case) {
            let mut interp = Interp::new(program.clone());
            let mut vm = Vm::new(program);
            let a = metered(|env| interp.call(case.function, &case.args, env));
            let b = metered(|env| vm.call(case.function, &case.args, env));
            let ok = identical(&a, &b);
            checked += 1;
            agreed += usize::from(ok);
            writeln!(
                out,
                "  {:<16} {:<12} {:>10} {:>8} {:>12.2} {:>9}",
                case.name,
                label,
                b.1.cost,
                b.1.flops,
                b.1.flop_energy,
                if ok { "IDENTICAL" } else { "DIVERGED" }
            )
            .unwrap();
        }
    }
    writeln!(out, "  bit-identical: {agreed}/{checked}").unwrap();

    writeln!(out, "\nerror-path equivalence").unwrap();
    let runaway = "double spin(int n) {
        double s = 0.0;
        while (n > 0) { s += 1.0; }
        return s;
    }";
    let program = parse_program(runaway).unwrap();
    let mut interp = Interp::new(program.clone());
    interp.set_budget(Some(10_000));
    let mut vm = Vm::new(program);
    vm.set_budget(Some(10_000));
    let a = metered(|env| interp.call("spin", &[Value::Int(1)], env));
    let b = metered(|env| vm.call("spin", &[Value::Int(1)], env));
    writeln!(
        out,
        "  budget 10000 -> interp: {} | vm: {} | {}",
        describe(&a.0),
        describe(&b.0),
        if a.0 == b.0 && a.1.cost == b.1.cost {
            "IDENTICAL"
        } else {
            "DIVERGED"
        }
    )
    .unwrap();

    writeln!(out, "\nbytecode metering (block-granular fused meters)").unwrap();
    writeln!(
        out,
        "  {:<16} {:>8} {:>8} {:>14}",
        "kernel", "instrs", "meters", "instrs/meter"
    )
    .unwrap();
    for case in kernel_suite() {
        let program = parse_program(case.source).unwrap();
        let function = program.function(case.function).unwrap();
        let chunk = lower_function(function, &model).unwrap();
        writeln!(
            out,
            "  {:<16} {:>8} {:>8} {:>14.1}",
            case.name,
            chunk.len(),
            chunk.meter_count(),
            chunk.len() as f64 / chunk.meter_count().max(1) as f64
        )
        .unwrap();
    }

    writeln!(out, "\ninstrumented-code cache (serving-tier replay)").unwrap();
    let evaluator = KernelEvaluator::fma();
    replay_probes(&evaluator);
    let cache = evaluator.cache();
    writeln!(
        out,
        "  100 probes x 4 precision rungs x 3 workloads: {} lowerings, {} replays",
        cache.misses(),
        cache.hits()
    )
    .unwrap();
    writeln!(
        out,
        "  hit rate {:.1}% (gate >= 95%): {}",
        cache.hit_rate() * 100.0,
        if cache.hit_rate() >= 0.95 {
            "PASS"
        } else {
            "FAIL"
        }
    )
    .unwrap();

    let shared = std::sync::Arc::new(InstrumentedCodeCache::new());
    for _tenant in 0..8 {
        let program = parse_program(DOT_KERNEL).unwrap();
        let _vm = Vm::with_cache(program, model.clone(), &shared);
    }
    writeln!(
        out,
        "  8 tenants, one program digest: {} lowering, {} shared ({})",
        shared.misses(),
        shared.hits(),
        if shared.misses() == 1 {
            "SHARED"
        } else {
            "DIVERGED"
        }
    )
    .unwrap();

    writeln!(
        out,
        "\nverdict: {}",
        if agreed == checked {
            "VM is bit-identical to the reference interpreter on the full suite"
        } else {
            "DIVERGED — engines disagree"
        }
    )
    .unwrap();
    out
}

/// Minimum ns/op across `windows` measurement windows: the minimum is the
/// standard estimator for "time absent interference" on a noisy machine —
/// scheduler preemption and frequency transitions only ever add time.
fn min_ns_per_op(windows: u32, iters: u64, mut op: impl FnMut()) -> f64 {
    (0..windows)
        .map(|_| ns_per_op(iters, &mut op))
        .fold(f64::INFINITY, f64::min)
}

/// `BENCH_vm.json`: the serving-tier replay's code-cache counts and the
/// VM's gates; the probe-speedup geomean the first gate judged is
/// printed, not written.
pub(crate) fn v1_bench() -> BenchFile {
    let mut log_speedup_sum = 0.0;
    let suite = kernel_suite();
    for case in &suite {
        let program = parse_program(case.source).expect("suite kernel parses");

        // warm up, then time probe replay on each engine: same budget
        // semantics, same statistics, same results (experiment v1)
        let mut interp = Interp::new(program.clone());
        interp
            .call(case.function, &case.args, &mut ExecEnv::new())
            .unwrap();
        let interp_ns = min_ns_per_op(3, 300, || {
            let mut env = ExecEnv::new();
            black_box(interp.call(case.function, black_box(&case.args), &mut env)).unwrap();
        });

        let mut vm = Vm::new(program.clone());
        vm.call(case.function, &case.args, &mut ExecEnv::new())
            .unwrap();
        let vm_ns = min_ns_per_op(3, 3000, || {
            let mut env = ExecEnv::new();
            black_box(vm.call(case.function, black_box(&case.args), &mut env)).unwrap();
        });
        log_speedup_sum += (interp_ns / vm_ns).ln();
    }
    let geomean_speedup = (log_speedup_sum / suite.len() as f64).exp();

    let evaluator = KernelEvaluator::fma();
    replay_probes(&evaluator);
    let cache = evaluator.cache();
    let hit_rate = cache.hit_rate();

    BenchFile {
        title: "antarex-vm: metered bytecode probe throughput",
        fields: map! {
            "serving_replay": map! {
                "code_cache_hits": cache.hits(),
                "code_cache_misses": cache.misses(),
                "hit_rate": fixed(hit_rate, 3),
            },
        },
        gates: gates! {
            "probe_speedup": geomean_speedup >= 10.0, "geomean >= 10x";
            "replay_hit_rate": hit_rate >= 0.95, "{:.1}% >= 95%", hit_rate * 100.0;
        },
        host_clock: vec![("probe_speedup_geomean", geomean_speedup)],
    }
}

/// The serving-tier replay: 100 probes over 4 precision rungs x 3
/// workloads through one evaluator's instrumented-code cache.
fn replay_probes(evaluator: &KernelEvaluator) {
    let mut config = Configuration::new();
    for round in 0..25 {
        for bits in [52i64, 23, 12, 8] {
            config.set("mantissa", KnobValue::Int(bits));
            let features = [16.0 + (round % 3) as f64 * 8.0];
            evaluator.evaluate(&config, &features);
        }
    }
}

fn describe(result: &Result<Value, IrError>) -> String {
    match result {
        Ok(v) => format!("ok {v:?}"),
        Err(e) => format!("err `{e}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_reports_full_agreement() {
        let report = v1_vm_equivalence();
        assert!(!report.contains("DIVERGED"), "{report}");
        assert!(!report.contains("FAIL"), "{report}");
        let tally = report
            .lines()
            .find_map(|l| l.trim().strip_prefix("bit-identical: "))
            .expect("tally line");
        let (agreed, checked) = tally.split_once('/').expect("a/b");
        assert_eq!(agreed, checked, "{report}");
        assert!(checked.parse::<usize>().unwrap() >= 20, "{report}");
    }

    #[test]
    fn v1_is_deterministic() {
        assert_eq!(v1_vm_equivalence(), v1_vm_equivalence());
    }

    #[test]
    fn suite_kernels_all_run_on_the_vm() {
        for case in kernel_suite() {
            let program = parse_program(case.source).unwrap();
            let mut vm = Vm::new(program);
            let mut env = ExecEnv::new();
            vm.call(case.function, &case.args, &mut env)
                .unwrap_or_else(|e| panic!("{}: {e}", case.name));
            assert!(env.stats.cost > 0);
        }
    }
}
