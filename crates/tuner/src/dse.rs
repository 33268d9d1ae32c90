//! Design-space exploration: building the knowledge base at design time.
//!
//! DSE runs a search technique against an evaluator that returns *all*
//! metrics of a configuration (not just a scalar cost) and records every
//! evaluation as an operating point. The resulting
//! [`crate::point::KnowledgeBase`] is handed to the runtime
//! [`AppManager`](crate::manager::AppManager).

use crate::goal::Objective;
use crate::point::{KnowledgeBase, OperatingPoint};
use crate::search::batch::BatchTechnique;
use crate::search::SearchTechnique;
use crate::space::{Configuration, DesignSpace};
use rand::RngCore;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Result of a design-space exploration run.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// Every evaluated operating point.
    pub knowledge: KnowledgeBase,
    /// Evaluations performed.
    pub evaluations: usize,
    /// Best configuration under the DSE objective.
    pub best: Option<Configuration>,
}

/// Explores the design space, measuring all metrics per configuration.
///
/// `eval` returns named metrics; `objective` steers the search (its metric
/// is used as the scalar cost signal for the technique).
///
/// # Examples
///
/// ```
/// use antarex_tuner::dse::explore;
/// use antarex_tuner::goal::Objective;
/// use antarex_tuner::knob::Knob;
/// use antarex_tuner::search::exhaustive::Exhaustive;
/// use antarex_tuner::space::DesignSpace;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let space = DesignSpace::new(vec![Knob::int("n", 1, 4, 1)]);
/// let mut rng = StdRng::seed_from_u64(0);
/// let report = explore(
///     &space,
///     Box::new(Exhaustive::new()),
///     &Objective::minimize("time"),
///     100,
///     &mut rng,
///     |cfg| {
///         let n = cfg.get_int("n").unwrap() as f64;
///         [("time".to_string(), 10.0 / n), ("energy".to_string(), n)].into()
///     },
/// );
/// assert_eq!(report.evaluations, 4);
/// assert_eq!(report.best.unwrap().get_int("n"), Some(4));
/// ```
pub fn explore(
    space: &DesignSpace,
    mut technique: Box<dyn SearchTechnique>,
    objective: &Objective,
    budget: usize,
    rng: &mut dyn RngCore,
    mut eval: impl FnMut(&Configuration) -> BTreeMap<String, f64>,
) -> DseReport {
    let mut knowledge = KnowledgeBase::new();
    let mut best: Option<(Configuration, f64)> = None;
    let mut evaluations = 0;
    let mut proposals = 0;
    let cap = budget.saturating_mul(10).max(budget);
    while evaluations < budget && proposals < cap {
        let Some(config) = technique.propose(space, rng) else {
            break;
        };
        proposals += 1;
        if let Some(point) = knowledge.find(&config) {
            if let Some(value) = point.metric(objective.metric()) {
                technique.feedback(&config, -objective.score(value));
            }
            continue;
        }
        let metrics = eval(&config);
        evaluations += 1;
        let value = metrics.get(objective.metric()).copied();
        knowledge.push(OperatingPoint::new(config.clone(), metrics));
        if let Some(value) = value {
            let score = objective.score(value);
            if best.as_ref().is_none_or(|(_, b)| score > *b) {
                best = Some((config.clone(), score));
            }
            // techniques minimize: negate the score
            technique.feedback(&config, -score);
        }
    }
    DseReport {
        knowledge,
        evaluations,
        best: best.map(|(c, _)| c),
    }
}

/// SplitMix64 finalizer — the per-round seed splitter.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic seed for round `round` of an exploration started
/// with `base_seed`.
fn split_seed(base_seed: u64, round: u64) -> u64 {
    mix64(base_seed ^ mix64(round))
}

/// Evaluates `jobs` across `workers` scoped threads. Work is handed
/// out through an atomic cursor; each result lands in the slot of its
/// job index, so the returned vector is in job order no matter how the
/// threads interleaved.
fn evaluate_jobs<E>(jobs: &[Configuration], workers: usize, eval: &E) -> Vec<BTreeMap<String, f64>>
where
    E: Fn(&Configuration) -> BTreeMap<String, f64> + Sync,
{
    let slots: Vec<Mutex<Option<BTreeMap<String, f64>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(jobs.len()).max(1) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let metrics = eval(&jobs[i]);
                let mut slot = match slots[i].lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                *slot = Some(metrics);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            match slot.into_inner() {
                Ok(inner) => inner,
                Err(poisoned) => poisoned.into_inner(),
            }
            .expect("every job slot is filled before the scope ends")
        })
        .collect()
}

/// Explores the design space with a [`BatchTechnique`], evaluating each
/// round of proposals across `workers` threads.
///
/// The report is **byte-identical at any worker count**: proposals are
/// a pure function of `(base_seed, round index)` via deterministic seed
/// splitting, duplicate configurations are resolved against the
/// knowledge base before any thread starts, and results are merged —
/// knowledge-base insertion, incumbent updates, technique feedback — in
/// proposal order. Worker threads only ever run `eval`, which must
/// therefore be a pure function of the configuration.
///
/// # Examples
///
/// ```
/// use antarex_tuner::dse::explore_parallel;
/// use antarex_tuner::goal::Objective;
/// use antarex_tuner::knob::Knob;
/// use antarex_tuner::search::batch::ExhaustiveBatch;
/// use antarex_tuner::space::DesignSpace;
///
/// let space = DesignSpace::new(vec![Knob::int("n", 1, 4, 1)]);
/// let report = explore_parallel(
///     &space,
///     Box::new(ExhaustiveBatch::new()),
///     &Objective::minimize("time"),
///     100,
///     0,
///     4,
///     |cfg| {
///         let n = cfg.get_int("n").unwrap() as f64;
///         [("time".to_string(), 10.0 / n)].into()
///     },
/// );
/// assert_eq!(report.evaluations, 4);
/// assert_eq!(report.best.unwrap().get_int("n"), Some(4));
/// ```
pub fn explore_parallel<E>(
    space: &DesignSpace,
    mut technique: Box<dyn BatchTechnique>,
    objective: &Objective,
    budget: usize,
    base_seed: u64,
    workers: usize,
    eval: E,
) -> DseReport
where
    E: Fn(&Configuration) -> BTreeMap<String, f64> + Sync,
{
    let mut knowledge = KnowledgeBase::new();
    let mut best: Option<(Configuration, f64)> = None;
    let mut evaluations = 0;
    let mut proposals = 0;
    let cap = budget.saturating_mul(10).max(budget);
    let mut round: u64 = 0;
    while evaluations < budget && proposals < cap {
        let remaining = budget - evaluations;
        let batch = technique.propose_batch(space, split_seed(base_seed, round), remaining);
        round += 1;
        if batch.is_empty() {
            break;
        }
        proposals += batch.len();
        // resolve each proposal to cached metrics or a fresh job;
        // within-batch duplicates ride on the first occurrence
        enum Source {
            Known(usize),
            Job(usize),
        }
        let mut jobs: Vec<Configuration> = Vec::new();
        let mut sources: Vec<Source> = Vec::with_capacity(batch.len());
        for config in &batch {
            if let Some(index) = knowledge.find_index(config) {
                sources.push(Source::Known(index));
            } else if let Some(job) = jobs.iter().position(|j| j == config) {
                sources.push(Source::Job(job));
            } else {
                jobs.push(config.clone());
                sources.push(Source::Job(jobs.len() - 1));
            }
        }
        let results = evaluate_jobs(&jobs, workers, &eval);
        evaluations += jobs.len();
        // merge in proposal order: push fresh points, update the
        // incumbent, collect feedback — exactly as the sequential
        // explorer would have seen them
        let mut fresh = vec![true; jobs.len()];
        let mut feedback: Vec<(Configuration, f64)> = Vec::with_capacity(batch.len());
        for (config, source) in batch.iter().zip(&sources) {
            let value = match source {
                Source::Known(index) => knowledge.points()[*index].metric(objective.metric()),
                Source::Job(job) => {
                    if std::mem::take(&mut fresh[*job]) {
                        knowledge.push(OperatingPoint::new(config.clone(), results[*job].clone()));
                    }
                    results[*job].get(objective.metric()).copied()
                }
            };
            let Some(value) = value else { continue };
            let score = objective.score(value);
            if matches!(source, Source::Job(_)) && best.as_ref().is_none_or(|(_, b)| score > *b) {
                best = Some((config.clone(), score));
            }
            // techniques minimize: negate the score
            feedback.push((config.clone(), -score));
        }
        technique.feedback_batch(&feedback);
    }
    DseReport {
        knowledge,
        evaluations,
        best: best.map(|(c, _)| c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knob::Knob;
    use crate::search::batch::{ExhaustiveBatch, GeneticBatch, RandomBatch};
    use crate::search::exhaustive::Exhaustive;
    use crate::search::random::RandomSearch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> DesignSpace {
        DesignSpace::new(vec![Knob::int("unroll", 1, 8, 1)])
    }

    fn metrics(cfg: &Configuration) -> BTreeMap<String, f64> {
        let u = cfg.get_int("unroll").unwrap() as f64;
        [
            ("time".to_string(), 16.0 / u),
            ("energy".to_string(), u * u),
        ]
        .into()
    }

    #[test]
    fn exhaustive_dse_builds_full_knowledge_base() {
        let mut rng = StdRng::seed_from_u64(0);
        let report = explore(
            &space(),
            Box::new(Exhaustive::new()),
            &Objective::minimize("time"),
            100,
            &mut rng,
            metrics,
        );
        assert_eq!(report.knowledge.len(), 8);
        assert_eq!(report.best.unwrap().get_int("unroll"), Some(8));
        // both metrics recorded
        let p = &report.knowledge.points()[0];
        assert!(p.metric("time").is_some() && p.metric("energy").is_some());
    }

    #[test]
    fn maximize_objective_flips_best() {
        let mut rng = StdRng::seed_from_u64(0);
        let report = explore(
            &space(),
            Box::new(Exhaustive::new()),
            &Objective::maximize("time"),
            100,
            &mut rng,
            metrics,
        );
        assert_eq!(report.best.unwrap().get_int("unroll"), Some(1));
    }

    #[test]
    fn budget_limits_evaluations() {
        let mut rng = StdRng::seed_from_u64(1);
        let report = explore(
            &space(),
            Box::new(RandomSearch::new()),
            &Objective::minimize("time"),
            3,
            &mut rng,
            metrics,
        );
        assert_eq!(report.evaluations, 3);
        assert_eq!(report.knowledge.len(), 3);
    }

    #[test]
    fn parallel_report_is_identical_at_any_worker_count() {
        for technique in ["exhaustive", "random", "genetic"] {
            let make: fn() -> Box<dyn crate::search::batch::BatchTechnique> = match technique {
                "exhaustive" => || Box::new(ExhaustiveBatch::new()),
                "random" => || Box::new(RandomBatch::new(8)),
                _ => || Box::new(GeneticBatch::with_params(8, 0.2)),
            };
            let reports: Vec<DseReport> = [1, 2, 4, 7]
                .iter()
                .map(|&workers| {
                    explore_parallel(
                        &space(),
                        make(),
                        &Objective::minimize("time"),
                        30,
                        99,
                        workers,
                        metrics,
                    )
                })
                .collect();
            for report in &reports[1..] {
                assert_eq!(
                    format!("{:?}", report.knowledge),
                    format!("{:?}", reports[0].knowledge),
                    "{technique}: knowledge must not depend on worker count"
                );
                assert_eq!(report.evaluations, reports[0].evaluations, "{technique}");
                assert_eq!(report.best, reports[0].best, "{technique}");
            }
        }
    }

    #[test]
    fn parallel_exhaustive_matches_sequential_explore() {
        let mut rng = StdRng::seed_from_u64(0);
        let sequential = explore(
            &space(),
            Box::new(Exhaustive::new()),
            &Objective::minimize("time"),
            100,
            &mut rng,
            metrics,
        );
        let parallel = explore_parallel(
            &space(),
            Box::new(ExhaustiveBatch::new()),
            &Objective::minimize("time"),
            100,
            0,
            4,
            metrics,
        );
        assert_eq!(
            format!("{:?}", parallel.knowledge),
            format!("{:?}", sequential.knowledge)
        );
        assert_eq!(parallel.evaluations, sequential.evaluations);
        assert_eq!(parallel.best, sequential.best);
    }

    #[test]
    fn parallel_budget_is_respected() {
        let report = explore_parallel(
            &space(),
            Box::new(RandomBatch::new(8)),
            &Objective::minimize("time"),
            5,
            3,
            4,
            metrics,
        );
        assert!(report.evaluations <= 5);
        assert_eq!(report.knowledge.len(), report.evaluations);
    }

    #[test]
    fn parallel_genetic_converges() {
        let space = DesignSpace::new(vec![
            Knob::int("unroll", 1, 32, 1),
            Knob::int("block", 1, 32, 1),
        ]);
        let report = explore_parallel(
            &space,
            Box::new(GeneticBatch::with_params(16, 0.15)),
            &Objective::minimize("time"),
            400,
            11,
            4,
            |cfg| {
                let u = cfg.get_int("unroll").unwrap() as f64;
                let b = cfg.get_int("block").unwrap() as f64;
                [("time".to_string(), (u - 20.0).powi(2) + (b - 9.0).powi(2))].into()
            },
        );
        let best = report.best.expect("found something");
        let u = best.get_int("unroll").unwrap();
        let b = best.get_int("block").unwrap();
        assert!(
            (u - 20).abs() <= 3 && (b - 9).abs() <= 3,
            "GA should land near (20, 9), got ({u}, {b})"
        );
    }

    #[test]
    fn duplicate_proposals_reuse_cache() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut calls = 0;
        let report = explore(
            &space(),
            Box::new(RandomSearch::new()),
            &Objective::minimize("time"),
            50,
            &mut rng,
            |cfg| {
                calls += 1;
                metrics(cfg)
            },
        );
        assert!(calls <= 8, "only 8 distinct configurations exist");
        assert_eq!(report.evaluations, calls);
    }
}
