//! Experiments F2–F4: the paper's aspect listings in action.

use antarex_core::flow::ToolFlow;
use antarex_core::scenario::DYNAMIC_KERNEL;
use antarex_dsl::figures::{
    FIG2_PROFILE_ARGUMENTS, FIG3_UNROLL_INNERMOST_LOOPS, FIG4_SPECIALIZE_KERNEL,
};
use antarex_dsl::interp::Weaver;
use antarex_dsl::{parse_aspects, DslValue};
use antarex_ir::interp::ExecEnv;
use antarex_ir::parse_program;
use antarex_ir::value::Value;
use antarex_vm::Vm;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// F2: weave Fig. 2 verbatim, run, and report the argument histogram the
/// aspect exists to collect — plus the instrumentation overhead.
pub(crate) fn f2_profile_arguments() -> String {
    let source = "double kernel(double a[], int size) {
        double s = 0.0;
        for (int i = 0; i < size; i++) { s += a[i]; }
        return s;
    }
    void sweep(double buf[]) {
        for (int r = 0; r < 6; r++) { kernel(buf, 64); }
        for (int r = 0; r < 3; r++) { kernel(buf, 256); }
        kernel(buf, 1024);
    }";
    let baseline_cost = {
        let mut env = ExecEnv::new();
        Vm::new(parse_program(source).unwrap())
            .call("sweep", &[Value::from(vec![1.0; 1024])], &mut env)
            .unwrap();
        env.stats.cost
    };

    let lib = parse_aspects(FIG2_PROFILE_ARGUMENTS).unwrap();
    let mut program = parse_program(source).unwrap();
    Weaver::new(lib)
        .weave(
            &mut program,
            "ProfileArguments",
            &[DslValue::from("kernel")],
        )
        .unwrap();
    let mut vm = Vm::new(program);
    let histogram: Rc<RefCell<BTreeMap<i64, u32>>> = Rc::new(RefCell::new(BTreeMap::new()));
    let sink = Rc::clone(&histogram);
    vm.register_host(
        "profile_args",
        Box::new(move |args| {
            if let Some(Value::Int(size)) = args.last() {
                *sink.borrow_mut().entry(*size).or_insert(0) += 1;
            }
            Ok(Value::Unit)
        }),
    );
    let mut env = ExecEnv::new();
    vm.call("sweep", &[Value::from(vec![1.0; 1024])], &mut env)
        .unwrap();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "argument-value histogram collected by the woven probe:"
    );
    let _ = writeln!(out, "{:>8} {:>8}", "size", "calls");
    for (size, count) in histogram.borrow().iter() {
        let _ = writeln!(out, "{size:>8} {count:>8}");
    }
    let overhead = 100.0 * (env.stats.cost as f64 - baseline_cost as f64) / baseline_cost as f64;
    let _ = writeln!(
        out,
        "instrumentation overhead: {overhead:.2}% of kernel cost ({} host calls)",
        env.stats.host_calls
    );
    out
}

/// F3: sweep the unroll threshold of Fig. 3 and report loops remaining,
/// cost, and speedup vs the unwoven program.
pub(crate) fn f3_unroll_threshold_sweep() -> String {
    let source = "double work(double a[]) {
        double s = 0.0;
        for (int i = 0; i < 4; i++) { s += a[i]; }
        for (int i = 0; i < 16; i++) { s += a[i] * 2.0; }
        for (int i = 0; i < 64; i++) { s += a[i] * 3.0; }
        return s;
    }";
    let args = [Value::from(vec![0.5; 64])];
    let base_cost = {
        let mut env = ExecEnv::new();
        Vm::new(parse_program(source).unwrap())
            .call("work", &args, &mut env)
            .unwrap();
        env.stats.cost
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10} {:>14} {:>10} {:>9}",
        "threshold", "loops kept", "cost", "speedup"
    );
    for threshold in [0i64, 4, 16, 64] {
        let lib = parse_aspects(FIG3_UNROLL_INNERMOST_LOOPS).unwrap();
        let mut program = parse_program(source).unwrap();
        Weaver::new(lib)
            .weave(
                &mut program,
                "UnrollInnermostLoops",
                &[DslValue::FuncRef("work".into()), DslValue::Int(threshold)],
            )
            .unwrap();
        let loops = antarex_ir::analysis::loops(&program.function("work").unwrap().body).len();
        let mut env = ExecEnv::new();
        Vm::new(program).call("work", &args, &mut env).unwrap();
        let _ = writeln!(
            out,
            "{threshold:>10} {loops:>14} {:>10} {:>8.2}x",
            env.stats.cost,
            base_cost as f64 / env.stats.cost as f64
        );
    }
    let _ = writeln!(
        out,
        "(threshold = max numIter eligible for `do LoopUnroll('full')`)"
    );
    out
}

/// F4: drive the deployed Fig. 4 runtime through a size sweep and report
/// specialization decisions, cache behaviour and per-call cost.
pub(crate) fn f4_dynamic_specialization() -> String {
    let aspects = format!("{FIG4_SPECIALIZE_KERNEL}\n{FIG3_UNROLL_INNERMOST_LOOPS}");
    let mut flow = ToolFlow::new(DYNAMIC_KERNEL, &aspects).unwrap();
    flow.weave("SpecializeKernel", &[DslValue::Int(4), DslValue::Int(64)])
        .unwrap();
    let mut runtime = flow.deploy();

    let mut out = String::new();
    let _ = writeln!(out, "lowT = 4, highT = 64");
    let _ = writeln!(
        out,
        "{:>6} {:>9} {:>10} {:>10} {:>9}",
        "size", "cost", "loopiters", "versions", "action"
    );
    for size in [2usize, 16, 16, 48, 48, 100] {
        let before = runtime.version_count("kernel");
        let buf = Value::from(vec![0.5; size]);
        let (_, stats) = runtime
            .call("run", &[buf, Value::Int(size as i64)])
            .unwrap();
        let after = runtime.version_count("kernel");
        let action = if after > before {
            "specialize"
        } else if stats.loop_iters == 0 && (4..=64).contains(&size) {
            "cache hit"
        } else {
            "generic"
        };
        let _ = writeln!(
            out,
            "{size:>6} {:>9} {:>10} {after:>10} {action:>9}",
            stats.cost, stats.loop_iters
        );
    }
    let (hits, misses) = runtime.dispatch_stats("kernel");
    let _ = writeln!(out, "version cache: {hits} hits / {misses} misses");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f2_reports_histogram_and_overhead() {
        let report = f2_profile_arguments();
        assert!(report.contains("64"), "{report}");
        assert!(report.contains("1024"));
        assert!(report.contains("overhead"));
    }

    #[test]
    fn f3_speedup_is_monotone_in_threshold() {
        let report = f3_unroll_threshold_sweep();
        let speedups: Vec<f64> = report
            .lines()
            .filter_map(|l| l.trim().strip_suffix('x'))
            .filter_map(|l| l.split_whitespace().last())
            .filter_map(|s| s.parse().ok())
            .collect();
        assert_eq!(speedups.len(), 4, "{report}");
        for pair in speedups.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-9, "{report}");
        }
    }

    #[test]
    fn f4_specializes_in_range_only() {
        let report = f4_dynamic_specialization();
        assert_eq!(report.matches("specialize").count(), 2, "{report}");
        assert!(report.contains("generic"), "{report}");
        assert!(report.contains("cache hit"), "{report}");
    }
}
