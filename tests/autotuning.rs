//! Integration: autotuning over *woven code* — the knob space includes
//! code transformations (unroll factor) and precision, measured on the
//! interpreter's cost model (experiments A1/A2 end-to-end shapes).

use antarex::ir::interp::{ExecEnv, Interp};
use antarex::ir::value::Value;
use antarex::ir::{parse_program, NodePath};
use antarex::precision::tuner::{PrecisionTuner, TunerOptions};
use antarex::tuner::dse::{explore, explore_parallel};
use antarex::tuner::goal::Objective;
use antarex::tuner::knob::Knob;
use antarex::tuner::search::bandit::Bandit;
use antarex::tuner::search::exhaustive::Exhaustive;
use antarex::tuner::search::genetic::GeneticBatch;
use antarex::tuner::search::hillclimb::HillClimb;
use antarex::tuner::search::random::RandomSearch;
use antarex::tuner::search::SearchTechnique;
use antarex::tuner::space::{Configuration, DesignSpace};
use antarex::weaver::transform::unroll::unroll_by_factor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

const KERNEL: &str = "double saxpy(double a[], double b[], int n) {
    double s = 0.0;
    for (int i = 0; i < 96; i++) { s += a[i] * 1.5 + b[i]; }
    return s;
}";

/// Cost of the kernel with a given unroll factor applied by the weaver.
fn measured_cost(unroll: u64) -> f64 {
    let mut program = parse_program(KERNEL).unwrap();
    if unroll > 1 {
        program
            .edit_function("saxpy", |f| {
                unroll_by_factor(&mut f.body, &NodePath::root(1), unroll).unwrap();
            })
            .unwrap();
    }
    let mut env = ExecEnv::new();
    Interp::new(program)
        .call(
            "saxpy",
            &[
                Value::from(vec![1.0; 96]),
                Value::from(vec![2.0; 96]),
                Value::Int(96),
            ],
            &mut env,
        )
        .unwrap();
    env.stats.cost as f64
}

#[test]
fn a1_tuning_the_unroll_knob_finds_a_real_winner() {
    let space = DesignSpace::new(vec![Knob::int("unroll", 1, 32, 1)]);
    let mut rng = StdRng::seed_from_u64(1);
    let report = explore(
        &space,
        Box::new(Exhaustive::new()),
        &Objective::minimize("cost"),
        64,
        &mut rng,
        |config: &Configuration| -> BTreeMap<String, f64> {
            let unroll = config.get_int("unroll").unwrap() as u64;
            [("cost".to_string(), measured_cost(unroll))].into()
        },
    );
    let best = report.best.unwrap();
    let best_unroll = best.get_int("unroll").unwrap();
    assert!(best_unroll > 1, "unrolling must pay off, got {best_unroll}");
    // measured monotone gain up to the full factor region
    assert!(measured_cost(best_unroll as u64) < measured_cost(1) * 0.9);
}

#[test]
fn a1_grey_box_space_converges_faster_than_black_box() {
    // grey-box: annotations restrict the unroll knob to powers of two —
    // 6 candidates instead of 32
    let black = DesignSpace::new(vec![Knob::int("unroll", 1, 32, 1)]);
    let grey = black.restrict("unroll", |v| {
        v.as_int().is_some_and(|i| i > 0 && (i & (i - 1)) == 0)
    });
    assert!(grey.size() < black.size() / 4);

    let evaluate = |config: &Configuration| -> BTreeMap<String, f64> {
        let unroll = config.get_int("unroll").unwrap() as u64;
        [("cost".to_string(), measured_cost(unroll))].into()
    };

    let budget = 8;
    let best_of = |report: &antarex::tuner::dse::DseReport| {
        report
            .knowledge
            .points()
            .iter()
            .filter_map(|p| p.metric("cost"))
            .fold(f64::INFINITY, f64::min)
    };
    // grey-box is deterministic (exhaustive over the shrunk space)
    let mut rng = StdRng::seed_from_u64(7);
    let grey_best = best_of(&explore(
        &grey,
        Box::new(Exhaustive::new()),
        &Objective::minimize("cost"),
        budget,
        &mut rng,
        evaluate,
    ));
    // black-box is stochastic: average its best over several seeds
    let mut black_sum = 0.0;
    let seeds = 5u64;
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        black_sum += best_of(&explore(
            &black,
            Box::new(Bandit::default_ensemble()),
            &Objective::minimize("cost"),
            budget,
            &mut rng,
            evaluate,
        ));
    }
    let black_mean = black_sum / seeds as f64;
    assert!(
        grey_best <= black_mean * 1.02,
        "grey-box {grey_best} vs black-box mean {black_mean} at budget {budget}"
    );
}

#[test]
fn a2_precision_tuning_composes_with_the_pipeline() {
    let program = parse_program(KERNEL).unwrap();
    let inputs: Vec<Vec<Value>> = (0..4)
        .map(|k| {
            vec![
                Value::from((0..96).map(|i| 0.01 * (i + k) as f64).collect::<Vec<f64>>()),
                Value::from(vec![0.5; 96]),
                Value::Int(96),
            ]
        })
        .collect();
    let outcome = PrecisionTuner::new(program, "saxpy", inputs)
        .tune(&TunerOptions {
            error_budget: 1e-3,
            max_sweeps: 6,
        })
        .unwrap();
    assert!(outcome.max_rel_error <= 1e-3);
    assert!(outcome.energy_ratio < 0.9, "ratio {}", outcome.energy_ratio);
    // the tuned program still parses and prints
    let text = antarex::ir::printer::print_program(&outcome.program);
    assert!(antarex::ir::parse_program(&text).is_ok());
}

/// The paper's third knob kind: *code variants*. Three variants of the
/// same kernel are produced by weaver transforms, registered as a
/// categorical knob, and the tuner picks the cheapest by measurement.
#[test]
fn code_variant_knob_selects_the_best_transform() {
    use antarex::weaver::transform::tile::tile;
    use antarex::weaver::transform::unroll::unroll_by_factor;

    // build the variants
    let base = parse_program(KERNEL).unwrap();
    let mut unrolled = base.clone();
    unrolled
        .edit_function("saxpy", |f| {
            unroll_by_factor(&mut f.body, &NodePath::root(1), 8).unwrap();
        })
        .unwrap();
    let mut tiled = base.clone();
    tiled
        .edit_function("saxpy", |f| {
            tile(&mut f.body, &NodePath::root(1), 16).unwrap();
        })
        .unwrap();
    let variants: Vec<(&str, antarex::ir::Program)> =
        vec![("scalar", base), ("unroll8", unrolled), ("tile16", tiled)];

    let cost_of = |program: &antarex::ir::Program| -> f64 {
        let mut env = ExecEnv::new();
        Interp::new(program.clone())
            .call(
                "saxpy",
                &[
                    Value::from(vec![1.0; 96]),
                    Value::from(vec![2.0; 96]),
                    Value::Int(96),
                ],
                &mut env,
            )
            .unwrap();
        env.stats.cost as f64
    };

    let space = DesignSpace::new(vec![Knob::choice(
        "variant",
        variants.iter().map(|(n, _)| n.to_string()),
    )]);
    let mut rng = StdRng::seed_from_u64(3);
    let report = explore(
        &space,
        Box::new(Exhaustive::new()),
        &Objective::minimize("cost"),
        10,
        &mut rng,
        |config: &Configuration| -> BTreeMap<String, f64> {
            let name = config.get_choice("variant").unwrap();
            let program = &variants.iter().find(|(n, _)| *n == name).unwrap().1;
            [("cost".to_string(), cost_of(program))].into()
        },
    );
    let best = report.best.unwrap();
    assert_eq!(
        best.get_choice("variant"),
        Some("unroll8"),
        "unrolling sheds loop overhead; tiling alone adds a nest"
    );
    // and the variants all compute the same value (code-variant safety)
    let mut results = Vec::new();
    for (_, program) in &variants {
        let out = Interp::new(program.clone())
            .call(
                "saxpy",
                &[
                    Value::from(vec![1.0; 96]),
                    Value::from(vec![2.0; 96]),
                    Value::Int(96),
                ],
                &mut ExecEnv::new(),
            )
            .unwrap();
        results.push(out);
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]));
}

/// 64-bit FNV-1a over a report's `Debug` rendering.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Digests captured from the parent commit of the one-loop explorer
/// (PR 25), where parallel rounds ran through a since-deleted second
/// technique trait and `explore` had its own loop: the one loop
/// proposes, evaluates, stores and reports exactly what the loops it
/// replaced did.
const GOLDEN: [(&str, u64); 24] = [
    ("exhaustive/0/1", 0x802902b955c45376),
    ("exhaustive/0/4", 0x802902b955c45376),
    ("random/0/1", 0x71a2c2ac04054d5f),
    ("random/0/4", 0x71a2c2ac04054d5f),
    ("genetic/0/1", 0x16131ce0bc4de201),
    ("genetic/0/4", 0x16131ce0bc4de201),
    ("bandit/0", 0x6cce4463f9f14317),
    ("hill-climb/0", 0xec2ad23181f4f192),
    ("exhaustive/7/1", 0x802902b955c45376),
    ("exhaustive/7/4", 0x802902b955c45376),
    ("random/7/1", 0xecbe3a6cf3009110),
    ("random/7/4", 0xecbe3a6cf3009110),
    ("genetic/7/1", 0xf82da35ca687a6ea),
    ("genetic/7/4", 0xf82da35ca687a6ea),
    ("bandit/7", 0xac290c05d69fc255),
    ("hill-climb/7", 0x2b91021727e8e5e7),
    ("exhaustive/2016/1", 0x802902b955c45376),
    ("exhaustive/2016/4", 0x802902b955c45376),
    ("random/2016/1", 0x3bf59480f45395ba),
    ("random/2016/4", 0x3bf59480f45395ba),
    ("genetic/2016/1", 0x80e0c8297b6e357d),
    ("genetic/2016/4", 0x80e0c8297b6e357d),
    ("bandit/2016", 0xa065aa51962d10ed),
    ("hill-climb/2016", 0x392a7ee685342971),
];

/// Pins exploration bit for bit: every proposal, evaluation, stored
/// point and incumbent of seeded parallel rounds (1 and 4 workers) and
/// of sequential runs, digested from the reports' `Debug` rendering.
#[test]
fn exploration_is_pinned_bit_for_bit() {
    let space = DesignSpace::new(vec![
        Knob::int("unroll", 0, 15, 1),
        Knob::int("block", 0, 15, 1),
        Knob::choice("variant", ["scalar", "blocked"]),
    ]);
    let surface = |config: &Configuration| -> BTreeMap<String, f64> {
        let u = config.get_int("unroll").unwrap() as f64;
        let b = config.get_int("block").unwrap() as f64;
        let bias = if config.get_choice("variant") == Some("blocked") {
            0.5
        } else {
            0.0
        };
        let time = (u - 11.0).powi(2) + (b - 4.0).powi(2) + bias;
        [
            ("time".to_string(), time),
            ("energy".to_string(), u + 2.0 * b),
        ]
        .into()
    };
    let objective = Objective::minimize("time");
    let budget = 120;
    // every technique explores in the GA's rounds
    fn ga() -> GeneticBatch {
        GeneticBatch::with_params(16, 0.15)
    }
    type Make = fn() -> Box<dyn SearchTechnique>;
    let in_rounds: [(&str, Make); 3] = [
        ("exhaustive", || Box::new(Exhaustive::new())),
        ("random", || Box::new(RandomSearch::new())),
        ("genetic", || Box::new(ga())),
    ];
    let sequential: [(&str, Make); 2] = [
        ("bandit", || Box::new(Bandit::default_ensemble())),
        ("hill-climb", || Box::new(HillClimb::new())),
    ];
    let mut digests = Vec::new();
    for seed in [0u64, 7, 2016] {
        for (name, make) in in_rounds {
            for workers in [1, 4] {
                let rounds = ga().rounds(seed, workers);
                let report = explore_parallel(&space, make(), &objective, budget, rounds, surface);
                let label = format!("{name}/{seed}/{workers}");
                digests.push((label, fnv1a(&format!("{report:?}"))));
            }
        }
        for (name, make) in sequential {
            let mut rng = StdRng::seed_from_u64(seed);
            let report = explore(&space, make(), &objective, budget, &mut rng, surface);
            digests.push((format!("{name}/{seed}"), fnv1a(&format!("{report:?}"))));
        }
    }
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    assert_eq!(digests, expected);
}
