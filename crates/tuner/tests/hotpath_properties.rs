//! Property suite for the indexed hot path.
//!
//! The knowledge base's indexed `best()` and the parallel explorer are
//! optimizations that promise *bit-identical* results to their retained
//! reference implementations (`best_linear()`, single-worker
//! exploration). These tests hammer that promise with randomized
//! workloads: metric values include NaN, `-0.0` and missing entries,
//! and mutation sequences interleave `push`, `upsert` and `learn` —
//! every code path the incremental indexes must keep in sync.

use antarex_tuner::dse::explore_parallel;
use antarex_tuner::goal::{Constraint, Objective};
use antarex_tuner::knob::{Knob, KnobValue};
use antarex_tuner::search::exhaustive::Exhaustive;
use antarex_tuner::search::genetic::GeneticBatch;
use antarex_tuner::search::random::RandomSearch;
use antarex_tuner::search::SearchTechnique;
use antarex_tuner::space::{Configuration, DesignSpace};
use antarex_tuner::{KnowledgeBase, OperatingPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const METRICS: [&str; 4] = ["time", "energy", "quality", "power"];

fn random_config(rng: &mut StdRng) -> Configuration {
    let mut config = Configuration::new();
    // a small grid so random points collide and exercise find/upsert
    config.set("x", KnobValue::Int(rng.gen_range(0..4)));
    config.set("y", KnobValue::Int(rng.gen_range(0..4)));
    config
}

fn random_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..20) {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => -rng.gen::<f64>() * 10.0,
        _ => rng.gen::<f64>() * 10.0,
    }
}

fn random_point(rng: &mut StdRng) -> OperatingPoint {
    let config = random_config(rng);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for name in METRICS {
        // metrics are present ~3 times out of 4, so some points lack
        // the objective metric entirely
        if rng.gen_range(0..4) < 3 {
            metrics.push((name.to_string(), random_value(rng)));
        }
    }
    OperatingPoint::new(config, metrics)
}

fn random_constraints(rng: &mut StdRng) -> Vec<Constraint> {
    (0..rng.gen_range(0..3))
        .map(|_| {
            let metric = METRICS[rng.gen_range(0..METRICS.len())];
            let bound = rng.gen::<f64>() * 8.0;
            if rng.gen_bool(0.5) {
                Constraint::at_most(metric, bound)
            } else {
                Constraint::at_least(metric, bound)
            }
        })
        .collect()
}

/// Debug output is the equivalence notion: it is total (NaN prints as
/// `NaN`, where `==` on a NaN-metric point is false even reflexively)
/// and covers config and every metric.
fn debug_of(point: Option<&OperatingPoint>) -> String {
    format!("{point:?}")
}

#[test]
fn indexed_best_equals_linear_reference_under_random_mutation() {
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kb = KnowledgeBase::new();
        for step in 0..120 {
            match rng.gen_range(0..3) {
                0 => kb.push(random_point(&mut rng)),
                1 => kb.upsert(random_point(&mut rng)),
                _ => {
                    let point = random_point(&mut rng);
                    let alpha = rng.gen::<f64>();
                    kb.learn(point, alpha);
                }
            }
            if step % 5 != 0 {
                continue;
            }
            for metric in METRICS {
                let objective = if rng.gen_bool(0.5) {
                    Objective::minimize(metric)
                } else {
                    Objective::maximize(metric)
                };
                let constraints = random_constraints(&mut rng);
                assert_eq!(
                    debug_of(kb.best(&objective, &constraints)),
                    debug_of(kb.best_linear(&objective, &constraints)),
                    "seed {seed} step {step}: indexed best diverged from the \
                     linear reference for {objective} under {constraints:?}"
                );
            }
        }
    }
}

#[test]
fn indexed_best_equals_linear_on_adversarial_ties() {
    // many points sharing exact metric values: the tie-break (earliest
    // insertion wins) must survive the index round-trip
    let mut kb = KnowledgeBase::new();
    for i in 0..30i64 {
        let mut config = Configuration::new();
        config.set("x", KnobValue::Int(i));
        kb.push(OperatingPoint::new(
            config,
            [("time".to_string(), (i % 3) as f64)],
        ));
    }
    for objective in [Objective::minimize("time"), Objective::maximize("time")] {
        assert_eq!(
            debug_of(kb.best(&objective, &[])),
            debug_of(kb.best_linear(&objective, &[])),
            "tie-break diverged for {objective}"
        );
    }
}

fn surface(config: &Configuration) -> BTreeMap<String, f64> {
    let x = config.get_int("x").unwrap_or(0) as f64;
    let y = config.get_int("y").unwrap_or(0) as f64;
    [
        ("time".to_string(), (x - 5.0).powi(2) + (y - 2.0).powi(2)),
        ("energy".to_string(), x + y),
    ]
    .into()
}

#[test]
fn parallel_exploration_is_worker_count_invariant() {
    let space = DesignSpace::new(vec![Knob::int("x", 0, 9, 1), Knob::int("y", 0, 9, 1)]);
    // every technique runs in the GA's rounds
    fn ga() -> GeneticBatch {
        GeneticBatch::with_params(6, 0.25)
    }
    type Make = fn() -> Box<dyn SearchTechnique>;
    let techniques: Vec<(&str, Make)> = vec![
        ("exhaustive", || Box::new(Exhaustive::new())),
        ("random", || Box::new(RandomSearch::new())),
        ("genetic", || Box::new(ga())),
    ];
    let objective = Objective::minimize("time");
    for (name, make) in techniques {
        for seed in 0..6 {
            let run = |workers| {
                let rounds = ga().rounds(seed, workers);
                let report = explore_parallel(&space, make(), &objective, 40, rounds, surface);
                format!("{report:?}")
            };
            let baseline = run(1);
            for workers in [2, 3, 4, 8] {
                assert_eq!(
                    run(workers),
                    baseline,
                    "{name} seed {seed}: {workers} workers diverged from 1 worker"
                );
            }
        }
    }
}
