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
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};

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

/// Maps `f` over `items` on up to `workers` threads and returns the
/// results in item order, however the threads interleaved: a
/// [`WorkerSet::map`] on a set built for this one call.
///
/// With one thread to use (one worker, or at most one item) nothing is
/// spawned. A panic in `f` propagates to the caller.
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
    WorkerSet::new(workers.min(items.len())).map(items, f)
}

/// Threads that outlive one parallel map: the workspace's one in-order
/// parallel map is [`WorkerSet::map`].
///
/// A set of `workers` has `workers − 1` helper threads, spawned by its
/// first parallel map and joined when it drops; the thread calling
/// [`map`](WorkerSet::map) is worker 0. A set of one worker spawns
/// nothing.
///
/// # Examples
///
/// ```
/// use antarex_tuner::dse::WorkerSet;
///
/// let workers = WorkerSet::new(2);
/// for round in 0..3u64 {
///     let shifted = workers.map(&[1u64, 2, 3], |x| x + round);
///     assert_eq!(shifted, [1 + round, 2 + round, 3 + round]);
/// }
/// ```
pub struct WorkerSet {
    workers: usize,
    shared: Arc<Shared>,
    helpers: OnceLock<Vec<JoinHandle<()>>>,
    /// Threads spawned over the set's life.
    spawned: AtomicUsize,
}

impl std::fmt::Debug for WorkerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerSet")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

/// What the caller of a map and the helpers share.
#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Wakes the helpers: a batch was posted, or the set is stopping.
    posted: Condvar,
    /// Wakes the caller: the last helper let go of the posted batch.
    released: Condvar,
}

#[derive(Default)]
struct State {
    /// The batch helpers may join, while its caller still works it.
    batch: Option<&'static dyn Work>,
    /// Bumped by every post, so a helper joins each batch at most once.
    epoch: u64,
    /// Helpers working the batch in flight.
    holding: usize,
    /// A batch is posted or still held: a second map works alone.
    in_flight: bool,
    stopping: bool,
}

/// One map's items, as every thread working them sees them.
trait Work: Sync {
    /// Works items until none is left. A panicking item is caught and
    /// kept for the caller, and stops the others being handed out.
    fn work(&self);
}

struct Batch<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    cursor: AtomicUsize,
    done: Mutex<Vec<(usize, R)>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T, R, F> Work for Batch<'_, T, R, F>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    fn work(&self) {
        let mut mine = Vec::new();
        let worked = panic::catch_unwind(AssertUnwindSafe(|| loop {
            // Relaxed: the cursor only hands out indices; the items and
            // the results travel under the set's locks
            let index = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = self.items.get(index) else {
                return;
            };
            mine.push((index, (self.f)(item)));
        }));
        if let Err(payload) = worked {
            self.cursor.store(self.items.len(), Ordering::Relaxed);
            lock(&self.panic).get_or_insert(payload);
        }
        lock(&self.done).append(&mut mine);
    }
}

/// Locks `mutex`. Nothing panics while holding one of the set's locks,
/// so a poisoned lock still guards consistent data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl WorkerSet {
    /// A set of `workers` threads, the caller's included (zero counts
    /// as one). No thread starts before the first parallel map.
    pub fn new(workers: usize) -> Self {
        WorkerSet {
            workers: workers.max(1),
            shared: Arc::default(),
            helpers: OnceLock::new(),
            spawned: AtomicUsize::new(0),
        }
    }

    /// Maps `f` over `items` and returns the results in item order,
    /// however the threads interleaved.
    ///
    /// Threads pull items through a shared cursor, so a slow item never
    /// holds up the rest. The calling thread works the items too and
    /// returns only once no helper holds any of them. It never waits to
    /// start: a map issued while the set is busy — from another thread,
    /// or from inside an item of this set's own map — works its items
    /// alone. A panic in `f` propagates to the caller after the other
    /// threads let go, and the set stays usable.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.workers == 1 || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let batch = Batch {
            items,
            f: &f,
            cursor: AtomicUsize::new(0),
            done: Mutex::new(Vec::with_capacity(items.len())),
            panic: Mutex::new(None),
        };
        self.work_with_helpers(&batch);
        if let Some(payload) = batch
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            panic::resume_unwind(payload);
        }
        let mut done = batch
            .done
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        done.sort_unstable_by_key(|&(index, _)| index);
        done.into_iter().map(|(_, result)| result).collect()
    }

    /// Works `batch` on this thread and, when the set is idle, on its
    /// helpers; returns once no helper holds it.
    fn work_with_helpers(&self, batch: &dyn Work) {
        self.helpers.get_or_init(|| {
            (1..self.workers)
                .map(|_| {
                    // Relaxed: a statistic that publishes no other data
                    self.spawned.fetch_add(1, Ordering::Relaxed);
                    let shared = Arc::clone(&self.shared);
                    thread::spawn(move || help(&shared))
                })
                .collect()
        });
        // SAFETY: only the lifetime is erased. The `'static` reference
        // is reachable through `State::batch` alone; helpers copy it out
        // only under the lock, count themselves in `holding` as they do,
        // and use their copy for the last time before they stop
        // counting. This function retracts it and waits for `holding` to
        // reach zero before it returns, whether or not an item panicked
        // (`work` catches that), so no thread uses it once `batch` is
        // gone.
        let erased: &'static dyn Work =
            unsafe { std::mem::transmute::<&dyn Work, &'static dyn Work>(batch) };
        let posted = {
            let mut state = lock(&self.shared.state);
            let idle = !state.in_flight;
            if idle {
                state.in_flight = true;
                state.batch = Some(erased);
                state.epoch += 1;
                self.shared.posted.notify_all();
            }
            idle
        };
        batch.work();
        if posted {
            let mut state = lock(&self.shared.state);
            state.batch = None;
            while state.holding > 0 {
                state = self
                    .shared
                    .released
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.in_flight = false;
        }
    }
}

/// A helper's life: join each posted batch once, until the set stops.
fn help(shared: &Shared) {
    let mut seen = 0;
    let mut state = lock(&shared.state);
    loop {
        if state.stopping {
            return;
        }
        match state.batch {
            Some(batch) if state.epoch != seen => {
                seen = state.epoch;
                state.holding += 1;
                drop(state);
                batch.work();
                state = lock(&shared.state);
                state.holding -= 1;
                if state.holding == 0 {
                    shared.released.notify_all();
                }
            }
            _ => {
                state = shared
                    .posted
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

impl Drop for WorkerSet {
    fn drop(&mut self) {
        lock(&self.shared.state).stopping = true;
        self.shared.posted.notify_all();
        for helper in self.helpers.take().into_iter().flatten() {
            // a helper catches every panicking item, so it ends cleanly
            let _ = helper.join();
        }
    }
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
    let workers = WorkerSet::new(rounds.workers);
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
        |jobs| workers.map(jobs, &eval),
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
    use std::sync::atomic::AtomicBool;

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

    #[test]
    fn worker_set_keeps_item_order_across_a_thousand_maps() {
        let items: Vec<u64> = (0..37).collect();
        for workers in [1, 2, 4, 8] {
            let set = WorkerSet::new(workers);
            for round in 0..1_000u64 {
                // a result left over from an earlier map would be off
                // by its round
                let shifted = set.map(&items, |x| x * 3 + round);
                assert!(
                    shifted.iter().zip(&items).all(|(s, x)| *s == x * 3 + round),
                    "{workers} workers, map {round}: {shifted:?}"
                );
            }
        }
    }

    #[test]
    fn worker_set_propagates_a_panicking_item_and_stays_usable() {
        let set = WorkerSet::new(2);
        let items: Vec<u64> = (0..64).collect();
        let caller = thread::current().id();
        for _ in 0..3 {
            let helper_failed = AtomicBool::new(false);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                set.map(&items, |&x| {
                    if thread::current().id() == caller {
                        // hold the caller until the helper has failed, so
                        // the panic has to cross threads
                        while !helper_failed.load(Ordering::Acquire) {
                            thread::yield_now();
                        }
                        return x;
                    }
                    helper_failed.store(true, Ordering::Release);
                    panic!("item {x} failed on a helper");
                })
            }));
            let payload = caught.expect_err("the panic reaches the caller");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.ends_with("failed on a helper"), "{message}");
            assert_eq!(set.map(&items, |x| x + 1), (1..65).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_set_completes_a_map_inside_a_map_item() {
        let set = WorkerSet::new(4);
        let outer: Vec<u64> = (0..16).collect();
        let inner: Vec<u64> = (0..8).collect();
        for _ in 0..50 {
            let sums = set.map(&outer, |&x| set.map(&inner, |&y| x * y).iter().sum::<u64>());
            assert_eq!(sums, outer.iter().map(|x| x * 28).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_set_serves_two_callers_at_once() {
        let set = WorkerSet::new(3);
        let items: Vec<u64> = (0..23).collect();
        thread::scope(|scope| {
            for caller in 0..2u64 {
                let (set, items) = (&set, &items);
                scope.spawn(move || {
                    for round in 0..200 {
                        let tagged = set.map(items, |x| x + caller * 1_000 + round);
                        let expected: Vec<u64> =
                            items.iter().map(|x| x + caller * 1_000 + round).collect();
                        assert_eq!(tagged, expected, "caller {caller}, map {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn worker_set_spawns_only_on_its_first_map() {
        let spawned = |set: &WorkerSet| set.spawned.load(Ordering::Relaxed);
        let items: Vec<u64> = (0..32).collect();
        let set = WorkerSet::new(4);
        assert_eq!(spawned(&set), 0, "no thread before the first map");
        set.map(&items, |x| x + 1);
        assert_eq!(spawned(&set), 3, "three helpers beside the caller");
        for _ in 0..100 {
            set.map(&items, |x| x + 1);
        }
        assert_eq!(spawned(&set), 3, "later maps reuse the helpers");
        let single = WorkerSet::new(1);
        single.map(&items, |x| x + 1);
        assert_eq!(spawned(&single), 0, "one worker is the caller alone");
    }

    #[test]
    fn worker_set_joins_its_threads_on_drop() {
        let set = WorkerSet::new(4);
        set.map(&(0..32).collect::<Vec<u64>>(), |x| x + 1);
        let shared = Arc::downgrade(&set.shared);
        assert_eq!(shared.strong_count(), 4, "the set and its three helpers");
        drop(set);
        assert_eq!(shared.strong_count(), 0, "every helper has exited");
    }
}
