//! Experiment P1: the autotuning hot-path data plane.
//!
//! The tuner's per-request operations were rebuilt for speed — interned
//! symbols, an indexed knowledge base, structural cache keys, parallel
//! DSE — under one contract: *results are bit-identical to the retained
//! reference implementations*. This experiment makes the contract
//! observable and deterministic:
//!
//! 1. **Indexed select ≡ linear reference** — a seeded knowledge base
//!    (NaNs, negative zeros and missing metrics included) is queried
//!    under randomized objectives and constraints, before and after a
//!    mutation storm of `learn`/`upsert` operations; every answer is
//!    compared against `best_linear()`.
//! 2. **Structural cache key ≡ string reference** — randomized
//!    (configuration, features) pairs are keyed both ways; the
//!    equality relations must coincide, and `probe_seed` must equal
//!    the historical string-fold seed everywhere.
//! 3. **Parallel DSE invariance** — exhaustive, random and
//!    generational-genetic search explore the same space in rounds of
//!    16 at 1, 2, 4 and 8 workers; the reports must be byte-identical, and the virtual
//!    makespan of each run (greedy list scheduling, the same
//!    virtual-time determinism the serving pool uses) yields exact,
//!    hardware-independent speedups.
//!
//! Nothing in the report depends on wall clocks, thread interleaving,
//! or symbol-interning order, so two runs print identical bytes — CI
//! compares the report with its committed golden. The wall-clock cost of
//! select, learn and a cache probe is timed by `cargo bench --bench
//! hotpath` (groups `kb_select_2048`, `kb_learn_2048`, `cache_probe`).

use crate::{fixed, list, BenchFile, Map};
use antarex_serve::cache::{DesignKey, ReferenceKey};
use antarex_serve::probe_seed;
use antarex_sim::sched::list_schedule;
use antarex_tuner::dse::{explore_parallel, DseReport};
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
use std::fmt::Write as _;

/// Size of one P1 run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotPathScale {
    /// Operating points seeded into the knowledge base.
    pub points: usize,
    /// Select queries checked against the linear reference.
    pub queries: usize,
    /// `learn`/`upsert` mutations applied between query rounds.
    pub mutations: usize,
    /// (configuration, features) cases in the key-equivalence check.
    pub key_cases: usize,
    /// Evaluation budget per DSE technique.
    pub dse_budget: usize,
}

impl HotPathScale {
    /// The full scale printed by the `p1` experiment.
    pub(crate) fn full() -> Self {
        HotPathScale {
            points: 2048,
            queries: 256,
            mutations: 512,
            key_cases: 160,
            dse_budget: 240,
        }
    }
}

const METRICS: [&str; 3] = ["time", "energy", "quality"];

fn random_config(rng: &mut StdRng) -> Configuration {
    let mut config = Configuration::new();
    config.set("unroll", KnobValue::Int(rng.gen_range(0..16)));
    config.set("block", KnobValue::Int(rng.gen_range(0..16)));
    config.set("threads", KnobValue::Int(rng.gen_range(1..9)));
    config
}

fn random_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..24) {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        _ => rng.gen::<f64>() * 10.0,
    }
}

fn random_point(rng: &mut StdRng) -> OperatingPoint {
    let config = random_config(rng);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for name in METRICS {
        if rng.gen_range(0..5) < 4 {
            metrics.push((name.to_string(), random_value(rng)));
        }
    }
    OperatingPoint::new(config, metrics)
}

fn random_query(rng: &mut StdRng) -> (Objective, Vec<Constraint>) {
    let metric = METRICS[rng.gen_range(0..METRICS.len())];
    let objective = if rng.gen_bool(0.5) {
        Objective::minimize(metric)
    } else {
        Objective::maximize(metric)
    };
    let constraints = (0..rng.gen_range(0..3))
        .map(|_| {
            let metric = METRICS[rng.gen_range(0..METRICS.len())];
            let bound = rng.gen::<f64>() * 8.0;
            if rng.gen_bool(0.5) {
                Constraint::at_most(metric, bound)
            } else {
                Constraint::at_least(metric, bound)
            }
        })
        .collect();
    (objective, constraints)
}

/// Outcome of the indexed-vs-linear equivalence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SelectEquivalence {
    /// Points in the knowledge base after seeding.
    pub points: usize,
    /// Queries checked before mutation.
    pub queries: usize,
    /// Queries agreeing with `best_linear` before mutation.
    pub agreements: usize,
    /// Mutations applied.
    pub mutations: usize,
    /// Queries checked after the mutation storm.
    pub post_queries: usize,
    /// Agreements after the mutation storm.
    pub post_agreements: usize,
}

/// Builds a seeded knowledge base and checks indexed `best()` against
/// the linear reference around a mutation storm.
pub(crate) fn select_equivalence(seed: u64, scale: &HotPathScale) -> SelectEquivalence {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kb = KnowledgeBase::new();
    for _ in 0..scale.points {
        kb.push(random_point(&mut rng));
    }
    let points = kb.len();
    let check = |kb: &KnowledgeBase, rng: &mut StdRng, queries: usize| {
        let mut agreements = 0;
        for _ in 0..queries {
            let (objective, constraints) = random_query(rng);
            let indexed = format!("{:?}", kb.best(&objective, &constraints));
            let linear = format!("{:?}", kb.best_linear(&objective, &constraints));
            if indexed == linear {
                agreements += 1;
            }
        }
        agreements
    };
    let agreements = check(&kb, &mut rng, scale.queries);
    for _ in 0..scale.mutations {
        if rng.gen_bool(0.5) {
            kb.upsert(random_point(&mut rng));
        } else {
            let point = random_point(&mut rng);
            let alpha = rng.gen::<f64>();
            kb.learn(point, alpha);
        }
    }
    let post_agreements = check(&kb, &mut rng, scale.queries);
    SelectEquivalence {
        points,
        queries: scale.queries,
        agreements,
        mutations: scale.mutations,
        post_queries: scale.queries,
        post_agreements,
    }
}

/// Outcome of the structural-key equivalence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyEquivalence {
    /// Randomized (configuration, features) cases.
    pub cases: usize,
    /// Unordered case pairs compared.
    pub pairs: usize,
    /// Pairs where structural and string equality coincide.
    pub pair_agreements: usize,
    /// Cases where `probe_seed` equals the reference seed.
    pub seed_matches: usize,
}

/// Keys randomized cases both ways and compares the equality relations.
pub(crate) fn key_equivalence(seed: u64, scale: &HotPathScale) -> KeyEquivalence {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases: Vec<(Configuration, Vec<f64>)> = Vec::with_capacity(scale.key_cases);
    for _ in 0..scale.key_cases {
        let mut config = random_config(&mut rng);
        let alphas = [-0.0, 0.0, 0.25, f64::NAN];
        config.set(
            "alpha",
            KnobValue::Float(alphas[rng.gen_range(0..alphas.len())]),
        );
        let features: Vec<f64> = (0..rng.gen_range(0..3))
            .map(|_| rng.gen_range(0..3) as f64 + rng.gen::<f64>() * 1e-9)
            .collect();
        cases.push((config, features));
    }
    let hashed: Vec<DesignKey> = cases.iter().map(|(c, f)| DesignKey::new(c, f)).collect();
    let reference: Vec<ReferenceKey> = cases.iter().map(|(c, f)| ReferenceKey::new(c, f)).collect();
    let mut pairs = 0;
    let mut pair_agreements = 0;
    for i in 0..cases.len() {
        for j in i + 1..cases.len() {
            pairs += 1;
            if (hashed[i] == hashed[j]) == (reference[i] == reference[j]) {
                pair_agreements += 1;
            }
        }
    }
    let seed_matches = cases
        .iter()
        .zip(&reference)
        .filter(|((config, features), reference)| probe_seed(config, features) == reference.seed())
        .count();
    KeyEquivalence {
        cases: cases.len(),
        pairs,
        pair_agreements,
        seed_matches,
    }
}

/// One technique's row in the parallel-DSE grid.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DseRow {
    /// Technique name.
    pub technique: &'static str,
    /// Evaluations performed (identical at every worker count).
    pub evaluations: usize,
    /// Best configuration found, rendered.
    pub best: String,
    /// Whether every worker count produced a byte-identical report.
    pub invariant: bool,
    /// Virtual makespan (s) per worker count, in `WORKER_COUNTS` order.
    pub makespans: Vec<f64>,
}

/// Worker counts swept by the DSE grid.
pub(crate) const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn dse_space() -> DesignSpace {
    DesignSpace::new(vec![
        Knob::int("unroll", 0, 15, 1),
        Knob::int("block", 0, 15, 1),
    ])
}

fn dse_metrics(config: &Configuration) -> BTreeMap<String, f64> {
    let u = config.get_int("unroll").unwrap_or(0) as f64;
    let b = config.get_int("block").unwrap_or(0) as f64;
    [
        ("time".to_string(), (u - 11.0).powi(2) + (b - 4.0).powi(2)),
        ("energy".to_string(), u + 2.0 * b),
    ]
    .into()
}

/// The virtual cost (seconds) of evaluating one design point — a pure
/// function of the configuration, mirroring how the serving pool
/// charges virtual time per evaluation.
fn virtual_cost(config: &Configuration) -> f64 {
    let u = config.get_int("unroll").unwrap_or(0) as f64;
    let b = config.get_int("block").unwrap_or(0) as f64;
    0.8 + 0.05 * u + 0.025 * b
}

/// Runs one technique at every worker count and checks invariance.
pub(crate) fn dse_row(
    seed: u64,
    budget: usize,
    technique: &'static str,
    make: fn() -> Box<dyn SearchTechnique>,
) -> DseRow {
    let run = |workers: usize| -> DseReport {
        explore_parallel(
            &dse_space(),
            make(),
            &Objective::minimize("time"),
            budget,
            dse_ga().rounds(seed, workers),
            dse_metrics,
        )
    };
    let reports: Vec<DseReport> = WORKER_COUNTS.iter().map(|&w| run(w)).collect();
    let baseline = format!("{:?}", reports[0]);
    let invariant = reports.iter().all(|r| format!("{r:?}") == baseline);
    // the evaluation stream is identical at every worker count, so the
    // virtual makespan differs only through the worker pool
    let costs: Vec<f64> = reports[0]
        .knowledge
        .points()
        .iter()
        .map(|p| virtual_cost(&p.config))
        .collect();
    DseRow {
        technique,
        evaluations: reports[0].evaluations,
        best: reports[0]
            .best
            .as_ref()
            .map_or_else(|| "-".to_string(), |c| c.to_string()),
        invariant,
        makespans: WORKER_COUNTS
            .iter()
            .map(|&w| list_schedule(&costs, w).makespan_s)
            .collect(),
    }
}

/// The grid's generational GA; every technique explores in its rounds
/// of 16.
fn dse_ga() -> GeneticBatch {
    GeneticBatch::with_params(16, 0.15)
}

/// All three technique rows of the DSE grid.
pub(crate) fn dse_grid(seed: u64, budget: usize) -> Vec<DseRow> {
    vec![
        dse_row(seed, budget, "exhaustive", || Box::new(Exhaustive::new())),
        dse_row(seed, budget, "random", || Box::new(RandomSearch::new())),
        dse_row(seed, budget, "genetic", || Box::new(dse_ga())),
    ]
}

/// Renders the P1 report.
pub(crate) fn p1_hot_path(seed: u64, scale: &HotPathScale) -> String {
    let mut out = String::new();
    let select = select_equivalence(seed, scale);
    let _ = writeln!(out, "-- indexed select vs linear reference --");
    let _ = writeln!(
        out,
        "knowledge base: {} points (NaN, -0.0 and missing metrics included)",
        select.points
    );
    let _ = writeln!(
        out,
        "pre-mutation:  {}/{} randomized queries agree",
        select.agreements, select.queries
    );
    let _ = writeln!(
        out,
        "post-mutation: {}/{} agree after {} learn/upsert mutations",
        select.post_agreements, select.post_queries, select.mutations
    );

    let keys = key_equivalence(seed.wrapping_add(1), scale);
    let _ = writeln!(out, "\n-- structural cache key vs string reference --");
    let _ = writeln!(
        out,
        "{} randomized cases: {}/{} pair equalities coincide, {}/{} probe seeds match",
        keys.cases, keys.pair_agreements, keys.pairs, keys.seed_matches, keys.cases
    );

    let _ = writeln!(out, "\n-- parallel DSE: worker-count invariance --");
    let _ = writeln!(
        out,
        "{:<11} {:>6} {:>10} {:>26} {:>9}  best",
        "technique", "evals", "invariant", "virtual makespan (s) 1/2/4/8", "x4 speedup"
    );
    for row in dse_grid(seed.wrapping_add(2), scale.dse_budget) {
        let makespans = row
            .makespans
            .iter()
            .map(|m| format!("{m:.1}"))
            .collect::<Vec<_>>()
            .join("/");
        let speedup_4 = row.makespans[0] / row.makespans[2];
        let _ = writeln!(
            out,
            "{:<11} {:>6} {:>10} {:>26} {:>9.2}  {}",
            row.technique,
            row.evaluations,
            if row.invariant { "yes" } else { "NO" },
            makespans,
            speedup_4,
            row.best
        );
    }
    out
}

/// Entry point for the experiment registry.
pub(crate) fn p1_hot_path_report() -> String {
    p1_hot_path(424242, &HotPathScale::full())
}

/// `BENCH_tuner.json`: the DSE grid's virtual makespans and its
/// worker-invariance gate.
pub(crate) fn p1_bench() -> BenchFile {
    let scale = HotPathScale::full();
    let grid = dse_grid(424244, scale.dse_budget);
    let diverged: Vec<&str> = grid
        .iter()
        .filter(|row| !row.invariant)
        .map(|row| row.technique)
        .collect();
    let technique = |row: &DseRow| {
        let makespans = WORKER_COUNTS.iter().zip(&row.makespans);
        map! {
            "technique": row.technique,
            "evaluations": row.evaluations,
            "virtual_makespan_s": makespans.map(|(w, &m)| (w.to_string(), fixed(m, 2))).collect::<Map>(),
            "virtual_speedup_4_workers": fixed(row.makespans[0] / row.makespans[2], 2),
        }
    };
    let detail = if diverged.is_empty() {
        format!("reports identical at {WORKER_COUNTS:?} workers")
    } else {
        format!("diverged: {}", diverged.join(", "))
    };

    BenchFile {
        title: "antarex-tuner: hot-path data plane",
        fields: map! {
            "parallel_dse": map! {
                "budget_per_technique": scale.dse_budget,
                "techniques": list(grid.iter().map(technique)),
            },
        },
        gates: gates! {
            "dse_worker_invariance": diverged.is_empty(), "{detail}";
        },
        host_clock: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scale small enough for `cargo test`.
    const TINY: HotPathScale = HotPathScale {
        points: 96,
        queries: 24,
        mutations: 32,
        key_cases: 24,
        dse_budget: 40,
    };

    #[test]
    fn equivalence_is_total_at_tiny_scale() {
        let scale = TINY;
        let select = select_equivalence(1, &scale);
        assert_eq!(select.agreements, select.queries);
        assert_eq!(select.post_agreements, select.post_queries);
        let keys = key_equivalence(2, &scale);
        assert_eq!(keys.pair_agreements, keys.pairs);
        assert_eq!(keys.seed_matches, keys.cases);
    }

    #[test]
    fn dse_rows_are_invariant_and_speed_up() {
        for row in dse_grid(3, TINY.dse_budget) {
            assert!(row.invariant, "{} not worker-invariant", row.technique);
            assert!(row.evaluations > 0);
            let speedup_4 = row.makespans[0] / row.makespans[2];
            assert!(
                speedup_4 >= 1.8,
                "{}: virtual x4 speedup only {speedup_4:.2}",
                row.technique
            );
        }
    }

    #[test]
    fn report_is_deterministic() {
        let scale = TINY;
        assert_eq!(p1_hot_path(9, &scale), p1_hot_path(9, &scale));
    }
}
