//! Design-space exploration: building the knowledge base at design time.
//!
//! DSE runs a search technique against an evaluator that returns *all*
//! metrics of a configuration (not just a scalar cost) and records every
//! evaluation as an operating point. The resulting
//! [`crate::point::KnowledgeBase`] is handed to the runtime
//! [`AppManager`](crate::manager::AppManager).
//!
//! One loop does the exploring, a round at a time: propose, resolve
//! each proposal against the knowledge base, evaluate the fresh ones,
//! then — in proposal order — record them, track the incumbent and feed
//! every cost back. [`explore`] runs it with rounds of one proposal
//! drawn from the caller's generator; [`explore_parallel`] with rounds
//! of [`Rounds::size`] proposals evaluated across worker threads.

use crate::goal::Objective;
use crate::point::{KnowledgeBase, OperatingPoint};
use crate::search::SearchTechnique;
use crate::space::{Configuration, DesignSpace};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

type Metrics = BTreeMap<String, f64>;

/// Result of a design-space exploration run.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// Every evaluated operating point, in evaluation order.
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
    technique: Box<dyn SearchTechnique>,
    objective: &Objective,
    budget: usize,
    rng: &mut dyn RngCore,
    mut eval: impl FnMut(&Configuration) -> Metrics,
) -> DseReport {
    explore_rounds(
        technique,
        objective,
        budget,
        |technique, _round, _limit| technique.propose(space, rng).into_iter().collect(),
        |jobs| jobs.iter().map(&mut eval).collect(),
    )
}

/// How [`explore_parallel`] rounds its proposals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rounds {
    /// Proposals per round. The generational
    /// [`GeneticBatch`](crate::search::genetic::GeneticBatch) needs it
    /// equal to its population size, so build its rounds with
    /// [`GeneticBatch::rounds`](crate::search::genetic::GeneticBatch::rounds).
    pub size: usize,
    /// Base seed: round `r` proposes from a generator seeded by a
    /// deterministic split of `(seed, r)`.
    pub seed: u64,
    /// Threads evaluating each round.
    pub workers: usize,
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

/// Maps `f` over `items` on up to `workers` scoped threads and returns
/// the results in item order, however the threads interleaved.
///
/// Threads pull items through a shared cursor, so a slow item never
/// holds up the rest. With one thread to use (one worker, or at most
/// one item) nothing is spawned. A panic in `f` propagates to the
/// caller.
///
/// # Examples
///
/// ```
/// use antarex_tuner::dse::par_map;
///
/// let squares = par_map(&[1u64, 2, 3, 4, 5], 3, |x| x * x);
/// assert_eq!(squares, [1, 4, 9, 16, 25]);
/// ```
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = workers.min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else {
                            return mine;
                        };
                        mine.push((index, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    results.sort_unstable_by_key(|&(index, _)| index);
    results.into_iter().map(|(_, result)| result).collect()
}

/// Explores the design space in [`Rounds`], evaluating each round of
/// proposals across `rounds.workers` threads.
///
/// The report is **byte-identical at any worker count**: proposals are
/// a pure function of `(rounds.seed, round index)` via deterministic
/// seed splitting, duplicate configurations are resolved against the
/// knowledge base before any thread starts, and results are merged —
/// knowledge-base insertion, incumbent updates, technique feedback — in
/// proposal order. Worker threads only ever run `eval`, which must
/// therefore be a pure function of the configuration.
///
/// A round makes all its proposals before the first cost comes back,
/// so only techniques that can propose without waiting are worth
/// driving here: [`Exhaustive`](crate::search::exhaustive::Exhaustive),
/// [`RandomSearch`](crate::search::random::RandomSearch) and
/// [`GeneticBatch`](crate::search::genetic::GeneticBatch). The
/// sequential ones — hill climbing, annealing, the bandit and the
/// steady-state GA — track one pending proposal, so within a round they
/// learn only from the last cost (hill climbing spends its whole first
/// round re-proposing its start point): drive them with [`explore`].
///
/// # Panics
///
/// Panics if `rounds.size` is zero.
///
/// # Examples
///
/// ```
/// use antarex_tuner::dse::{explore_parallel, Rounds};
/// use antarex_tuner::goal::Objective;
/// use antarex_tuner::knob::Knob;
/// use antarex_tuner::search::exhaustive::Exhaustive;
/// use antarex_tuner::space::DesignSpace;
///
/// let space = DesignSpace::new(vec![Knob::int("n", 1, 4, 1)]);
/// let report = explore_parallel(
///     &space,
///     Box::new(Exhaustive::new()),
///     &Objective::minimize("time"),
///     100,
///     Rounds { size: 16, seed: 0, workers: 4 },
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
    technique: Box<dyn SearchTechnique>,
    objective: &Objective,
    budget: usize,
    rounds: Rounds,
    eval: E,
) -> DseReport
where
    E: Fn(&Configuration) -> Metrics + Sync,
{
    assert!(rounds.size > 0, "a round needs at least one proposal");
    explore_rounds(
        technique,
        objective,
        budget,
        |technique, round, limit| {
            let mut rng = StdRng::seed_from_u64(split_seed(rounds.seed, round));
            (0..rounds.size.min(limit))
                .map_while(|_| technique.propose(space, &mut rng))
                .collect()
        },
        |jobs| par_map(jobs, rounds.workers, &eval),
    )
}

/// The exploration loop. `propose(technique, round, limit)` makes the
/// round's proposals — at most `limit`, none once the technique is
/// exhausted — and `evaluate` measures the round's fresh configurations
/// in order. Evaluations stop at `budget`, proposals at `10 × budget`
/// (cached proposals consume no budget, so a converged technique must
/// still terminate).
fn explore_rounds(
    mut technique: Box<dyn SearchTechnique>,
    objective: &Objective,
    budget: usize,
    mut propose: impl FnMut(&mut dyn SearchTechnique, u64, usize) -> Vec<Configuration>,
    mut evaluate: impl FnMut(&[Configuration]) -> Vec<Metrics>,
) -> DseReport {
    let mut knowledge = KnowledgeBase::new();
    let mut best: Option<(Configuration, f64)> = None;
    let mut evaluations = 0;
    let mut proposals = 0;
    let cap = budget.saturating_mul(10).max(budget);
    let mut round: u64 = 0;
    while evaluations < budget && proposals < cap {
        let batch = propose(technique.as_mut(), round, budget - evaluations);
        round += 1;
        if batch.is_empty() {
            break;
        }
        proposals += batch.len();
        // resolve each proposal to a knowledge-base index: a known
        // point's, or the one its fresh job will be recorded at — jobs
        // are numbered in first-occurrence order, so job `j` lands at
        // `base + j` and within-round duplicates ride on it
        let base = knowledge.len();
        let mut jobs: Vec<Configuration> = Vec::new();
        let mut indices = Vec::with_capacity(batch.len());
        for config in &batch {
            let index = knowledge.find_index(config).unwrap_or_else(|| {
                base + jobs.iter().position(|j| j == config).unwrap_or_else(|| {
                    jobs.push(config.clone());
                    jobs.len() - 1
                })
            });
            indices.push(index);
        }
        let mut results = evaluate(&jobs);
        evaluations += jobs.len();
        for (config, &index) in batch.iter().zip(&indices) {
            if index == knowledge.len() {
                let metrics = std::mem::take(&mut results[index - base]);
                knowledge.push(OperatingPoint::new(config.clone(), metrics));
            }
            let Some(value) = knowledge.points()[index].metric(objective.metric()) else {
                continue;
            };
            let score = objective.score(value);
            if index >= base && best.as_ref().is_none_or(|(_, b)| score > *b) {
                best = Some((config.clone(), score));
            }
            // techniques minimize: negate the score
            technique.feedback(config, -score);
        }
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
    use crate::search::exhaustive::Exhaustive;
    use crate::search::genetic::GeneticBatch;
    use crate::search::random::RandomSearch;

    fn space() -> DesignSpace {
        DesignSpace::new(vec![Knob::int("unroll", 1, 8, 1)])
    }

    fn metrics(cfg: &Configuration) -> Metrics {
        let u = cfg.get_int("unroll").unwrap() as f64;
        [
            ("time".to_string(), 16.0 / u),
            ("energy".to_string(), u * u),
        ]
        .into()
    }

    /// [`explore`]s [`space`] under `objective`, proposing from a
    /// generator seeded by `seed`.
    fn sequential(
        technique: Box<dyn SearchTechnique>,
        objective: Objective,
        budget: usize,
        seed: u64,
    ) -> DseReport {
        let mut rng = StdRng::seed_from_u64(seed);
        explore(&space(), technique, &objective, budget, &mut rng, metrics)
    }

    /// [`explore_parallel`]s [`space`], minimizing time.
    fn parallel(technique: Box<dyn SearchTechnique>, budget: usize, rounds: Rounds) -> DseReport {
        let objective = Objective::minimize("time");
        explore_parallel(&space(), technique, &objective, budget, rounds, metrics)
    }

    fn rounds(size: usize, seed: u64, workers: usize) -> Rounds {
        Rounds {
            size,
            seed,
            workers,
        }
    }

    #[test]
    fn exhaustive_dse_builds_full_knowledge_base() {
        let report = sequential(
            Box::new(Exhaustive::new()),
            Objective::minimize("time"),
            100,
            0,
        );
        assert_eq!(report.knowledge.len(), 8);
        assert_eq!(report.best.unwrap().get_int("unroll"), Some(8));
        // both metrics recorded
        let p = &report.knowledge.points()[0];
        assert!(p.metric("time").is_some() && p.metric("energy").is_some());
    }

    #[test]
    fn maximize_objective_flips_best() {
        let report = sequential(
            Box::new(Exhaustive::new()),
            Objective::maximize("time"),
            100,
            0,
        );
        assert_eq!(report.best.unwrap().get_int("unroll"), Some(1));
    }

    #[test]
    fn budget_limits_evaluations() {
        let report = sequential(
            Box::new(RandomSearch::new()),
            Objective::minimize("time"),
            3,
            1,
        );
        assert_eq!(report.evaluations, 3);
        assert_eq!(report.knowledge.len(), 3);
    }

    #[test]
    fn parallel_exhaustive_matches_sequential_explore() {
        let objective = Objective::minimize("time");
        let sequential = sequential(Box::new(Exhaustive::new()), objective, 100, 0);
        let parallel = parallel(Box::new(Exhaustive::new()), 100, rounds(3, 0, 4));
        assert_eq!(format!("{parallel:?}"), format!("{sequential:?}"));
    }

    #[test]
    fn parallel_report_is_identical_at_any_worker_count() {
        // 8 points, budget 30: once the space is covered every proposal
        // is answered from the knowledge base until the proposal cap.
        // Every technique runs in the GA's rounds.
        fn ga() -> GeneticBatch {
            GeneticBatch::with_params(8, 0.2)
        }
        type Make = fn() -> Box<dyn SearchTechnique>;
        let techniques: [(&str, Make); 3] = [
            ("exhaustive", || Box::new(Exhaustive::new())),
            ("random", || Box::new(RandomSearch::new())),
            ("genetic", || Box::new(ga())),
        ];
        for (name, make) in techniques {
            let run = |workers| format!("{:?}", parallel(make(), 30, ga().rounds(99, workers)));
            let baseline = run(1);
            for workers in [2, 4, 7] {
                assert_eq!(run(workers), baseline, "{name}: {workers} workers");
            }
        }
    }

    #[test]
    fn parallel_genetic_converges() {
        let space = DesignSpace::new(vec![
            Knob::int("unroll", 1, 32, 1),
            Knob::int("block", 1, 32, 1),
        ]);
        let ga = GeneticBatch::with_params(16, 0.15);
        let rounds = ga.rounds(11, 4);
        let objective = Objective::minimize("time");
        let report = explore_parallel(&space, Box::new(ga), &objective, 400, rounds, |cfg| {
            let u = cfg.get_int("unroll").unwrap() as f64;
            let b = cfg.get_int("block").unwrap() as f64;
            [("time".to_string(), (u - 20.0).powi(2) + (b - 9.0).powi(2))].into()
        });
        let best = report.best.expect("found something");
        let u = best.get_int("unroll").unwrap();
        let b = best.get_int("block").unwrap();
        assert!(
            (u - 20).abs() <= 3 && (b - 9).abs() <= 3,
            "GA should land near (20, 9), got ({u}, {b})"
        );
    }

    #[test]
    fn parallel_budget_is_respected() {
        let report = parallel(Box::new(RandomSearch::new()), 5, rounds(8, 3, 4));
        assert!(report.evaluations <= 5);
        assert_eq!(report.knowledge.len(), report.evaluations);
    }

    #[test]
    #[should_panic(expected = "at least one proposal")]
    fn empty_rounds_rejected() {
        let _ = parallel(Box::new(RandomSearch::new()), 5, rounds(0, 3, 4));
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

    #[test]
    fn repeated_proposals_do_not_burn_budget() {
        // a one-point space: random search proposes the same
        // configuration forever; only one evaluation may happen, and the
        // proposal cap must end the run
        let space = DesignSpace::new(vec![Knob::int("x", 3, 3, 1)]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut calls = 0;
        let report = explore(
            &space,
            Box::new(RandomSearch::new()),
            &Objective::minimize("time"),
            10,
            &mut rng,
            |_| {
                calls += 1;
                [("time".to_string(), 1.0)].into()
            },
        );
        assert_eq!((calls, report.evaluations), (1, 1));
    }

    #[test]
    fn par_map_keeps_item_order_at_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        for workers in [0, 1, 2, 4, 64] {
            let doubled = par_map(&items, workers, |x| x * 2);
            assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
        assert!(par_map(&[] as &[u64], 4, |x| *x).is_empty());
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn par_map_propagates_a_panicking_job() {
        let items: Vec<u64> = (0..8).collect();
        let _ = par_map(&items, 4, |&x| {
            assert!(x != 5, "job {x} failed");
            x
        });
    }
}
