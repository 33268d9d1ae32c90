//! Criterion: bytecode VM dispatch vs the reference interpreter
//! (experiment V1 mechanisms).
//!
//! Times one metered probe per iteration on each engine for the
//! canonical kernel suite, plus the lowering step the instrumented-code
//! cache amortizes. The `BENCH_vm.json` gate numbers come from
//! `experiments --bench vm`; this bench exists for profiling dispatch-level
//! regressions with criterion's statistics.

use antarex_bench::vm_exp::kernel_suite;
use antarex_ir::cost::CostModel;
use antarex_ir::interp::{ExecEnv, Interp};
use antarex_ir::parse_program;
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

criterion_group!(benches, bench_probe_dispatch, bench_lowering);
criterion_main!(benches);
