//! Criterion: search-technique throughput on a synthetic surface
//! (experiment A1 mechanism costs) and precision-tuner evaluations
//! (experiment A2).

use antarex_ir::parse_program;
use antarex_ir::value::Value;
use antarex_precision::tuner::{PrecisionTuner, TunerOptions};
use antarex_tuner::dse::explore;
use antarex_tuner::goal::Objective;
use antarex_tuner::knob::Knob;
use antarex_tuner::search::annealing::Annealing;
use antarex_tuner::search::bandit::Bandit;
use antarex_tuner::search::genetic::Genetic;
use antarex_tuner::search::hillclimb::HillClimb;
use antarex_tuner::search::random::RandomSearch;
use antarex_tuner::search::SearchTechnique;
use antarex_tuner::space::DesignSpace;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn space() -> DesignSpace {
    DesignSpace::new(vec![
        Knob::int("x", 0, 31, 1),
        Knob::int("y", 0, 31, 1),
        Knob::choice("variant", ["a", "b", "c"]),
    ])
}

fn cost(config: &antarex_tuner::space::Configuration) -> f64 {
    let x = config.get_int("x").unwrap() as f64;
    let y = config.get_int("y").unwrap() as f64;
    let bias = match config.get_choice("variant").unwrap() {
        "a" => 0.0,
        "b" => 5.0,
        _ => 10.0,
    };
    (x - 20.0).powi(2) + (y - 11.0).powi(2) + bias
}

fn bench_techniques(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_100_evals");
    type MakeTechnique = fn() -> Box<dyn SearchTechnique>;
    let mk: Vec<(&str, MakeTechnique)> = vec![
        ("random", || Box::new(RandomSearch::new())),
        ("hillclimb", || Box::new(HillClimb::new())),
        ("annealing", || Box::new(Annealing::new())),
        ("genetic", || Box::new(Genetic::new())),
        ("bandit", || Box::new(Bandit::default_ensemble())),
    ];
    for (name, make) in mk {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(5);
                black_box(explore(
                    &space(),
                    make(),
                    &Objective::minimize("cost"),
                    100,
                    &mut rng,
                    |config| [("cost".to_string(), cost(config))].into(),
                ))
            })
        });
    }
    group.finish();
}

fn bench_precision(c: &mut Criterion) {
    let program = parse_program(antarex_core::scenario::DOT_KERNEL).unwrap();
    let inputs: Vec<Vec<Value>> = (1..=3)
        .map(|k| {
            vec![
                Value::from((0..16).map(|i| 0.1 * (i + k) as f64).collect::<Vec<f64>>()),
                Value::from(vec![0.5; 16]),
                Value::Int(16),
            ]
        })
        .collect();
    c.bench_function("precision_tune_dot_1e-3", |b| {
        let tuner = PrecisionTuner::new(program.clone(), "dot", inputs.clone());
        b.iter(|| {
            black_box(
                tuner
                    .tune(&TunerOptions {
                        error_budget: 1e-3,
                        max_sweeps: 4,
                    })
                    .unwrap(),
            )
        })
    });
}

criterion_group!(benches, bench_techniques, bench_precision);
criterion_main!(benches);
