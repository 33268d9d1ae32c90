//! Criterion: bytecode VM dispatch vs the reference interpreter
//! (experiment V1 mechanisms).
//!
//! Times one metered probe per iteration on each engine for the
//! canonical kernel suite (`probe`), the lowering step the
//! instrumented-code cache amortizes (`lower`), and the serving tier's
//! precision probe on fresh data (`probe/kernel_evaluator`). These groups
//! are the only home of the per-kernel probe and lowering times:
//! `experiments --bench vm` judges the interpreter-vs-VM geomean against
//! its 10x bound and prints it, but writes no timing into
//! `BENCH_vm.json`.

use antarex_bench::vm_exp::kernel_suite;
use antarex_ir::cost::CostModel;
use antarex_ir::interp::{ExecEnv, Interp};
use antarex_ir::parse_program;
use antarex_serve::kernel::KernelEvaluator;
use antarex_serve::Evaluator;
use antarex_tuner::{Configuration, KnobValue};
use antarex_vm::{lower_program, Vm};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_probe_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe");
    for case in kernel_suite() {
        let program = parse_program(case.source).expect("suite kernel parses");
        let mut interp = Interp::new(program.clone());
        interp
            .call(case.function, &case.args, &mut ExecEnv::new())
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new("interp", case.name),
            &case.args,
            |b, args| {
                b.iter(|| {
                    let mut env = ExecEnv::new();
                    black_box(interp.call(case.function, black_box(args), &mut env)).unwrap()
                })
            },
        );
        let mut vm = Vm::new(program);
        vm.call(case.function, &case.args, &mut ExecEnv::new())
            .unwrap();
        group.bench_with_input(BenchmarkId::new("vm", case.name), &case.args, |b, args| {
            b.iter(|| {
                let mut env = ExecEnv::new();
                black_box(vm.call(case.function, black_box(args), &mut env)).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_lowering(c: &mut Criterion) {
    let model = CostModel::new();
    let mut group = c.benchmark_group("lower");
    for case in kernel_suite() {
        let program = parse_program(case.source).expect("suite kernel parses");
        group.bench_with_input(
            BenchmarkId::from_parameter(case.name),
            &program,
            |b, program| b.iter(|| black_box(lower_program(black_box(program), &model))),
        );
    }
    group.finish();
}

/// One `KernelEvaluator` probe per iteration at a narrow and the full
/// mantissa. The size feature rotates over 64 values past the 256-element
/// clamp: every probe runs 256 elements, but each draws fresh inputs from
/// its own seed, as `serve_kernel_cold`'s tenants do. Replaying one input
/// lets the branch predictor learn the data, which hides the cost of a
/// data-dependent branch in the rounding path.
fn bench_kernel_evaluator(c: &mut Criterion) {
    let evaluator = KernelEvaluator::fma();
    let mut group = c.benchmark_group("probe/kernel_evaluator");
    for bits in [12i64, 52] {
        let mut config = Configuration::new();
        config.set("mantissa", KnobValue::Int(bits));
        // warm up: builds the rung and lowers both programs it runs
        evaluator.evaluate_segmented(&config, &[256.0]);
        let mut size = 0u32;
        group.bench_with_input(BenchmarkId::new("mantissa", bits), &config, |b, config| {
            b.iter(|| {
                size = (size + 1) % 64;
                let features = [257.0 + f64::from(size)];
                black_box(evaluator.evaluate_segmented(config, black_box(&features)))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_probe_dispatch,
    bench_lowering,
    bench_kernel_evaluator
);
criterion_main!(benches);
