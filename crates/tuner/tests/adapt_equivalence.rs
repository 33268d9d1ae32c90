//! Property suite for online learning into the overlay.
//!
//! `AppManager::adapt` blends each monitor's mean into the manager's
//! overlay over a shared, never-written base, `select` scans base ⊕
//! overlay, and the decision is read off the switch counter. They
//! promise the *bits* of the round they replaced, which owned its
//! knowledge base, cloned the current configuration, collected the
//! means into a vector, built a throw-away operating point from them,
//! handed that to the knowledge base, selected through the base's
//! index, and compared a second clone of the configuration against the
//! re-selected one. That round survives here as [`OracleManager`] —
//! with two deliberate differences that make it an independent check
//! rather than a second caller of the same code: its means are the
//! filter-collect-sum the monitors used to run, and its learning step
//! rebuilds the whole point and `upsert`s it, so it shares neither
//! `TimeSeries::mean_since`'s suffix walk nor the overlay's blend.

use antarex_monitor::series::{Sample, TimeSeries};
use antarex_tuner::goal::{Constraint, Objective};
use antarex_tuner::intern::{intern, SymbolId};
use antarex_tuner::knob::KnobValue;
use antarex_tuner::space::Configuration;
use antarex_tuner::{AppManager, KnowledgeBase, OperatingPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const METRICS: [&str; 4] = ["time", "energy", "quality", "power"];

/// Outcome of one adaptation round: stay, or switch to the rendered
/// configuration.
#[derive(Debug, PartialEq)]
enum Decision {
    Stay,
    Switch(String),
}

/// The adaptation round as it was before the overlay: a knowledge base
/// of its own, selected through the index.
#[derive(Clone)]
struct OracleManager {
    knowledge: KnowledgeBase,
    objective: Objective,
    constraints: Vec<Constraint>,
    current: Option<Configuration>,
    monitors: BTreeMap<SymbolId, TimeSeries>,
    learn_alpha: f64,
    switches: u64,
    last_adapt: f64,
}

/// `TimeSeries::mean_since` as it was: filter, collect, sum.
fn mean_since(series: &TimeSeries, since: f64) -> Option<f64> {
    let window: Vec<Sample> = series.iter().filter(|s| s.time >= since).copied().collect();
    if window.is_empty() {
        return None;
    }
    Some(window.iter().map(|s| s.value).sum::<f64>() / window.len() as f64)
}

/// `KnowledgeBase::learn` by clone-and-rebuild: copy the known point,
/// blend every measured metric into the copy, replace the original.
fn learn(knowledge: &mut KnowledgeBase, measured: OperatingPoint, alpha: f64) {
    let Some(known) = knowledge.find(&measured.config) else {
        knowledge.push(measured);
        return;
    };
    let mut rebuilt = known.clone();
    for (name, value) in measured.metrics() {
        let id = intern(name);
        let blended = match rebuilt.metric_id(id) {
            Some(old) => old + alpha * (value - old),
            None => value,
        };
        rebuilt.set_metric(id, blended);
    }
    knowledge.upsert(rebuilt);
}

impl OracleManager {
    fn select(&mut self) -> Option<&Configuration> {
        let best = &self
            .knowledge
            .best(&self.objective, &self.constraints)?
            .config;
        if self.current.as_ref() != Some(&**best) {
            let best = Configuration::clone(best);
            if self.current.is_some() {
                self.switches += 1;
            }
            self.current = Some(best);
        }
        self.current.as_ref()
    }

    fn observe(&mut self, time: f64, metric: &str, value: f64) {
        self.monitors
            .entry(intern(metric))
            .or_insert_with(|| TimeSeries::with_capacity(256))
            .push(time, value);
    }

    fn set_constraint_bound(&mut self, metric: &str, bound: f64) -> bool {
        match self.constraints.iter_mut().find(|c| c.metric() == metric) {
            Some(c) => {
                c.set_bound(bound);
                true
            }
            None => false,
        }
    }

    fn adapt(&mut self, now: f64) -> Decision {
        let since = self.last_adapt;
        self.last_adapt = now;
        if let Some(current) = self.current.clone() {
            let learned: Vec<(SymbolId, f64)> = self
                .monitors
                .iter()
                .filter_map(|(&metric, series)| Some((metric, mean_since(series, since)?)))
                .collect();
            if !learned.is_empty() {
                learn(
                    &mut self.knowledge,
                    OperatingPoint::with_metric_ids(current, learned),
                    self.learn_alpha,
                );
            }
        }
        let previous = self.current.clone();
        self.select();
        match (&previous, &self.current) {
            (Some(prev), Some(next)) if prev != next => Decision::Switch(next.to_string()),
            (None, Some(next)) => Decision::Switch(next.to_string()),
            _ => Decision::Stay,
        }
    }
}

/// A metric no base point starts with: the monitors observe it, so the
/// first round that learns it adds it to the deployed point.
const EXTRA: &str = "drift";

fn random_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..20) {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => -rng.gen::<f64>() * 10.0,
        _ => rng.gen::<f64>() * 10.0,
    }
}

fn random_metric(rng: &mut StdRng) -> &'static str {
    // one pick in nine is the metric the base lacks
    if rng.gen_range(0..9) == 0 {
        EXTRA
    } else {
        METRICS[rng.gen_range(0..METRICS.len())]
    }
}

fn config(x: i64, gain: f64) -> Configuration {
    let mut config = Configuration::new();
    config.set("x", KnobValue::Int(x));
    config.set("gain", KnobValue::Float(gain));
    config
}

/// Five ordinary points (some lacking a metric, one in three tied with
/// its predecessor on the objective) and one whose configuration holds
/// a NaN knob: it is not equal to itself, so once deployed the
/// knowledge base cannot find it again and learning takes the append
/// branch. `favour_nan` makes that point the objective's winner so the
/// branch is reached on purpose, not by luck.
fn random_knowledge(rng: &mut StdRng, objective: &Objective, favour_nan: bool) -> KnowledgeBase {
    let mut points: Vec<OperatingPoint> = Vec::new();
    for x in 0..5 {
        let mut metrics: Vec<(String, f64)> = Vec::new();
        for name in METRICS {
            if rng.gen_range(0..8) < 7 {
                metrics.push((name.to_string(), random_value(rng)));
            }
        }
        let mut point = OperatingPoint::new(config(x, 0.5), metrics);
        let tied = points
            .last()
            .and_then(|previous| previous.metric_id(objective.metric_id()));
        if let Some(value) = tied.filter(|_| rng.gen_range(0..3) == 0) {
            point.set_metric(objective.metric_id(), value);
        }
        points.push(point);
    }
    let mut odd = OperatingPoint::new(
        config(9, f64::NAN),
        METRICS.map(|name| (name.to_string(), random_value(rng))),
    );
    if favour_nan {
        let extreme = if objective.score(1.0) > objective.score(0.0) {
            1e9
        } else {
            -1e9
        };
        odd.set_metric(objective.metric_id(), extreme);
    }
    points.insert(rng.gen_range(0..points.len() + 1), odd);
    points.into_iter().collect()
}

fn debug_of<T: std::fmt::Debug>(value: T) -> String {
    format!("{value:?}")
}

/// What the storms reached, so a green run cannot be a run that never
/// left the easy path.
#[derive(Default)]
struct Coverage {
    switched: u32,
    stayed: u32,
    appended: u32,
    nan_means: u32,
    idle_rounds: u32,
    boundary_rounds: u32,
    tied_selects: u32,
    added_metrics: u32,
    twin_learns: u32,
}

/// A manager, its oracle, and the storm's clock for them.
#[derive(Clone)]
struct Pair {
    manager: AppManager,
    oracle: OracleManager,
    clock: f64,
    last_sample_s: f64,
    fresh: bool,
}

/// How many feasible points score exactly what the best one does.
fn winners(knowledge: &KnowledgeBase, objective: &Objective, constraints: &[Constraint]) -> usize {
    let Some(best) = knowledge
        .best(objective, constraints)
        .and_then(|point| point.metric_id(objective.metric_id()))
    else {
        return 0;
    };
    knowledge
        .points()
        .iter()
        .filter(|point| point.metric_id(objective.metric_id()) == Some(best))
        .filter(|point| {
            // feasible iff a base of this point alone has a best
            let alone: KnowledgeBase = [(*point).clone()].into_iter().collect();
            alone.best(objective, constraints).is_some()
        })
        .count()
}

/// One random operation on `pair`, checked against its oracle.
fn step(rng: &mut StdRng, pair: &mut Pair, twin: bool, coverage: &mut Coverage, context: &str) {
    let Pair {
        manager, oracle, ..
    } = pair;
    match rng.gen_range(0..20) {
        0..=9 => {
            pair.clock += [0.0, 0.0, 0.5, 1.0][rng.gen_range(0..4usize)];
            // one sample in sixteen arrives late, which drops its
            // series onto the filtering path for good
            let time = if rng.gen_range(0..16) == 0 {
                pair.clock - 2.0
            } else {
                pair.clock
            };
            let metric = random_metric(rng);
            let value = random_value(rng);
            manager.observe(time, metric, value);
            oracle.observe(time, metric, value);
            coverage.nan_means += u32::from(value.is_nan());
            pair.last_sample_s = time;
            pair.fresh = true;
        }
        10..=14 => {
            // mostly "now" is the newest sample's own timestamp, so
            // that sample is counted again by the next round
            let now = if rng.gen_bool(0.75) {
                pair.clock
            } else {
                pair.clock + 0.5
            };
            let before = manager.knowledge().len();
            let decision = manager
                .adapt(now)
                .map_or(Decision::Stay, |next| Decision::Switch(next.to_string()));
            assert_eq!(decision, oracle.adapt(now), "{context}: decision");
            match decision {
                Decision::Switch(_) => coverage.switched += 1,
                Decision::Stay => coverage.stayed += 1,
            }
            coverage.appended += u32::from(manager.knowledge().len() > before);
            coverage.idle_rounds += u32::from(!pair.fresh);
            coverage.boundary_rounds += u32::from(now == pair.last_sample_s);
            coverage.twin_learns += u32::from(twin && pair.fresh);
            pair.fresh = false;
            pair.clock = now;
        }
        15..=17 => {
            coverage.tied_selects +=
                u32::from(winners(&oracle.knowledge, &oracle.objective, &oracle.constraints) > 1);
            assert_eq!(
                debug_of(manager.select()),
                debug_of(oracle.select()),
                "{context}: select"
            );
        }
        _ => {
            let metric = random_metric(rng);
            // one renegotiation in four leaves nothing feasible
            let bound = if rng.gen_range(0..4) == 0 {
                -1e12
            } else {
                rng.gen::<f64>() * 10.0
            };
            assert_eq!(
                manager.set_constraint_bound(metric, bound),
                oracle.set_constraint_bound(metric, bound),
                "{context}: renegotiation"
            );
        }
    }
    let Pair {
        manager, oracle, ..
    } = pair;
    assert_eq!(
        debug_of(manager.knowledge()),
        debug_of(&oracle.knowledge),
        "{context}: knowledge"
    );
    assert_eq!(
        debug_of(manager.current()),
        debug_of(oracle.current.as_ref()),
        "{context}: deployed configuration"
    );
    assert_eq!(manager.switches(), oracle.switches, "{context}: switches");
    // the oracle's sorted columns are not part of the rendering above;
    // they are right iff its index probe still agrees with the scan
    let knowledge = &oracle.knowledge;
    for metric in METRICS.into_iter().chain([EXTRA]) {
        for objective in [Objective::minimize(metric), Objective::maximize(metric)] {
            assert_eq!(
                debug_of(knowledge.best(&objective, &[])),
                debug_of(knowledge.best_linear(&objective, &[])),
                "{context}: indexed best for {objective}"
            );
        }
    }
}

fn storm(seed: u64, coverage: &mut Coverage) {
    let mut rng = StdRng::seed_from_u64(seed);
    let metric = METRICS[rng.gen_range(0..METRICS.len())];
    let objective = if rng.gen_bool(0.5) {
        Objective::minimize(metric)
    } else {
        Objective::maximize(metric)
    };
    let constraints: Vec<Constraint> = (0..rng.gen_range(0..3))
        .map(|_| {
            let metric = random_metric(&mut rng);
            if rng.gen_bool(0.5) {
                Constraint::at_most(metric, 2.0 + rng.gen::<f64>() * 8.0)
            } else {
                Constraint::at_least(metric, rng.gen::<f64>() * 4.0)
            }
        })
        .collect();
    let knowledge = random_knowledge(&mut rng, &objective, seed.is_multiple_of(3));
    let alpha = if seed.is_multiple_of(5) {
        1.0
    } else {
        0.05 + 0.9 * rng.gen::<f64>()
    };

    let mut manager = AppManager::new(knowledge.clone(), objective.clone()).with_learn_alpha(alpha);
    for constraint in &constraints {
        manager.add_constraint(constraint.clone());
    }
    let mut pair = Pair {
        manager,
        oracle: OracleManager {
            knowledge,
            objective,
            constraints,
            current: None,
            monitors: BTreeMap::new(),
            learn_alpha: alpha,
            switches: 0,
            last_adapt: f64::NEG_INFINITY,
        },
        clock: 0.0,
        last_sample_s: f64::NAN,
        fresh: false,
    };

    // from a random step on, a clone and its own oracle take steps of
    // their own, interleaved: what either side learns must not reach
    // the other, whether or not the clone shares a learned row
    let fork_at = rng.gen_range(20..140);
    let mut twin: Option<Pair> = None;
    for step_at in 0..160 {
        if step_at == fork_at {
            twin = Some(pair.clone());
        }
        step(
            &mut rng,
            &mut pair,
            false,
            coverage,
            &format!("seed {seed} step {step_at}"),
        );
        if let Some(twin) = &mut twin {
            step(
                &mut rng,
                twin,
                true,
                coverage,
                &format!("seed {seed} step {step_at} (clone)"),
            );
        }
    }
    for side in [Some(&pair), twin.as_ref()].into_iter().flatten() {
        let knowledge = side.manager.knowledge();
        coverage.added_metrics += (0..5)
            .filter(|&x| knowledge.metric(&config(x, 0.5), EXTRA).is_some())
            .count() as u32;
        assert!(
            knowledge
                .base()
                .points()
                .iter()
                .all(|p| p.metric(EXTRA).is_none()),
            "seed {seed}: the base is never written"
        );
    }
}

#[test]
fn overlay_adapt_equals_the_clone_and_rebuild_round() {
    let mut coverage = Coverage::default();
    for seed in 0..60 {
        storm(seed, &mut coverage);
    }
    assert!(coverage.switched > 50, "switches: {}", coverage.switched);
    assert!(coverage.stayed > 500, "stays: {}", coverage.stayed);
    assert!(
        coverage.appended > 20,
        "rounds that appended a point for a configuration the base could not find: {}",
        coverage.appended
    );
    assert!(
        coverage.nan_means > 100,
        "NaN samples: {}",
        coverage.nan_means
    );
    assert!(
        coverage.idle_rounds > 100,
        "rounds with no sample since the previous one: {}",
        coverage.idle_rounds
    );
    assert!(
        coverage.boundary_rounds > 300,
        "rounds whose `now` was the newest sample's timestamp: {}",
        coverage.boundary_rounds
    );
    assert!(
        coverage.tied_selects > 50,
        "selects with more than one feasible point at the best score: {}",
        coverage.tied_selects
    );
    assert!(
        coverage.added_metrics > 40,
        "base points that learned the metric the base lacks: {}",
        coverage.added_metrics
    );
    assert!(
        coverage.twin_learns > 300,
        "learning rounds on a clone: {}",
        coverage.twin_learns
    );
}

#[test]
fn a_round_without_a_feasible_point_keeps_the_deployed_configuration() {
    // the deployed configuration holds a NaN knob and the renegotiated
    // SLA leaves nothing feasible: `select` changes nothing and counts
    // nothing, yet the round reports a switch, because the decision is
    // "previous != current" and this configuration is not equal to
    // itself. Odd, and unchanged by the overlay.
    let knowledge: KnowledgeBase = [OperatingPoint::new(
        config(1, f64::NAN),
        [("time".to_string(), 1.0)],
    )]
    .into_iter()
    .collect();
    let mut manager = AppManager::new(knowledge, Objective::minimize("time"));
    manager.add_constraint(Constraint::at_most("time", 5.0));
    assert!(manager.adapt(0.0).is_some());
    assert!(manager.set_constraint_bound("time", 0.5));
    assert!(manager.adapt(1.0).is_some());
    assert_eq!(manager.switches(), 0);
    assert_eq!(manager.knowledge().len(), 1, "no samples, nothing appended");
}
