//! The application self-tuning runtime manager (mARGOt-style ASRTM).
//!
//! The manager owns the knowledge base produced at design time, the
//! application's goals (one objective + SLA constraints), and the runtime
//! monitors. Each adaptation round it (1) folds fresh measurements back
//! into the knowledge base — online learning, (2) filters operating points
//! by the constraints, (3) ranks by the objective, and (4) switches the
//! application's configuration if a better feasible point emerged. This is
//! the per-application "autotuning control loop" of the paper's Fig. 1.
//!
//! The design-time knowledge base is shared, not owned: managers built
//! from one base (and clones of a manager) hold the same
//! `Arc<KnowledgeBase>` until online learning first writes to it, and
//! that first write copies it (`Arc::make_mut`). A tenant that never
//! learns never pays for a base of its own.

use crate::goal::{Constraint, Objective};
use crate::intern::{intern, SymbolId};
use crate::point::{KnowledgeBase, OperatingPoint};
use crate::space::Configuration;
use antarex_monitor::cada::Decision;
use antarex_monitor::series::TimeSeries;
use std::sync::Arc;

/// The per-application runtime autotuner.
///
/// # Examples
///
/// ```
/// use antarex_tuner::{AppManager, Configuration, KnobValue, KnowledgeBase, OperatingPoint};
/// use antarex_tuner::goal::{Constraint, Objective};
///
/// let mut quality = Configuration::new();
/// quality.set("alternatives", KnobValue::Int(8));
/// let mut fast = Configuration::new();
/// fast.set("alternatives", KnobValue::Int(1));
/// let kb: KnowledgeBase = [
///     OperatingPoint::new(quality, [("latency".into(), 0.9), ("quality".into(), 1.0)]),
///     OperatingPoint::new(fast, [("latency".into(), 0.1), ("quality".into(), 0.4)]),
/// ].into_iter().collect();
///
/// let mut manager = AppManager::new(kb, Objective::maximize("quality"));
/// manager.add_constraint(Constraint::at_most("latency", 0.5));
/// let chosen = manager.select().unwrap();
/// assert_eq!(chosen.get_int("alternatives"), Some(1), "0.9 s point violates the SLA");
/// ```
#[derive(Debug, Clone)]
pub struct AppManager {
    knowledge: Arc<KnowledgeBase>,
    objective: Objective,
    constraints: Vec<Constraint>,
    current: Option<Configuration>,
    monitors: Monitors,
    learn_alpha: f64,
    switches: u64,
    last_adapt: f64,
}

impl AppManager {
    /// Creates a manager over a design-time knowledge base: an owned
    /// base, or an `Arc` that other managers share until they learn.
    pub fn new(knowledge: impl Into<Arc<KnowledgeBase>>, objective: Objective) -> Self {
        AppManager {
            knowledge: knowledge.into(),
            objective,
            constraints: Vec::new(),
            current: None,
            monitors: Monitors::default(),
            learn_alpha: 0.4,
            switches: 0,
            last_adapt: f64::NEG_INFINITY,
        }
    }

    /// Sets the online-learning rate (default 0.4).
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` is in `(0, 1]`.
    pub fn with_learn_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        self.learn_alpha = alpha;
        self
    }

    /// Adds an SLA constraint.
    pub fn add_constraint(&mut self, constraint: Constraint) {
        self.constraints.push(constraint);
    }

    /// Renegotiates the bound of the named constraint; returns `false` if
    /// no such constraint exists.
    pub fn set_constraint_bound(&mut self, metric: &str, bound: f64) -> bool {
        match self.constraints.iter_mut().find(|c| c.metric() == metric) {
            Some(c) => {
                c.set_bound(bound);
                true
            }
            None => false,
        }
    }

    /// The active constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// The knowledge base (updated by online learning).
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.knowledge
    }

    /// The configuration currently deployed.
    pub fn current(&self) -> Option<&Configuration> {
        self.current.as_ref()
    }

    /// Number of configuration switches decided so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Selects the best feasible operating point and deploys it.
    /// Returns `None` when no point satisfies the constraints (SLA
    /// infeasible — the caller should escalate to the RTRM).
    ///
    /// When the winner is the configuration already deployed, nothing
    /// is cloned — the steady-state re-selection path only compares.
    pub fn select(&mut self) -> Option<&Configuration> {
        let best = &self
            .knowledge
            .best(&self.objective, &self.constraints)?
            .config;
        if self.current.as_ref() != Some(best) {
            let best = best.clone();
            if self.current.is_some() {
                self.switches += 1;
            }
            self.current = Some(best);
        }
        self.current.as_ref()
    }

    /// Records a runtime measurement of `metric` for the *current*
    /// configuration. Series are bounded at 256 samples; a series grows
    /// with its samples up to that bound and from then on evicts in
    /// place, so once every metric's series is full an observation
    /// allocates nothing. Only a metric's first observation interns its
    /// name.
    pub fn observe(&mut self, time: f64, metric: &str, value: f64) {
        self.monitors.series_mut(metric).push(time, value);
    }

    /// The monitor series for a metric, if any measurements arrived.
    pub fn monitor(&self, metric: &str) -> Option<&TimeSeries> {
        self.monitors.get(metric)
    }

    /// One adaptation round at time `now`: folds measurements since the
    /// previous round into the knowledge base (for the current
    /// configuration), re-selects, and reports the decision.
    ///
    /// The fold is in place: each monitor's mean over `[previous now,
    /// ..]` (inclusive — see [`TimeSeries::mean_since`]) is blended
    /// straight into the current configuration's operating point, one
    /// `KnowledgeBase::learn_metric` per metric that has fresh
    /// samples, and the decision is read off `switches()` rather than
    /// off a saved copy of the configuration. A round whose current
    /// configuration the knowledge base cannot find (only a
    /// configuration that is not equal to itself, i.e. one holding a
    /// NaN knob) appends a new point instead, which allocates.
    ///
    /// A round with no fresh samples writes nothing, so it leaves a
    /// shared knowledge base shared; the first round that learns or
    /// appends copies a base other managers still hold.
    pub fn adapt(&mut self, now: f64) -> Decision {
        let since = self.last_adapt;
        self.last_adapt = now;
        if let Some(current) = &self.current {
            let mut fresh = self
                .monitors
                .0
                .iter()
                .filter_map(|(metric, _, series)| Some((*metric, series.mean_since(since)?)))
                .peekable();
            if fresh.peek().is_some() {
                match self.knowledge.find_index(current) {
                    Some(index) => {
                        let knowledge = Arc::make_mut(&mut self.knowledge);
                        for (metric, mean) in fresh {
                            knowledge.learn_metric(index, metric, mean, self.learn_alpha);
                        }
                    }
                    None => {
                        let point = OperatingPoint::with_metric_ids(current.clone(), fresh);
                        Arc::make_mut(&mut self.knowledge).push(point);
                    }
                }
            }
        }
        let had_current = self.current.is_some();
        let switches = self.switches;
        let reselected = self.select().is_some();
        match &self.current {
            // `select` counts a switch exactly when it replaces a
            // deployed configuration with an unequal one. When it finds
            // no feasible point it leaves `current` alone, and the
            // decision has always been "previous != current" — true of
            // a configuration that is not equal to itself.
            #[allow(clippy::eq_op)]
            Some(next)
                if !had_current || self.switches != switches || (!reselected && next != next) =>
            {
                Decision::Switch(next.to_string())
            }
            _ => Decision::Stay,
        }
    }
}

/// A manager's runtime monitors: one series per observed metric, in
/// interned-id order, which is the order `adapt` learns in. A manager
/// watches a handful of metrics, so a series is found by comparing
/// names: no interning and no lock per observation, and no spare slots
/// for series the manager will never hold. `Debug` renders a map from
/// id to series, as the recovery check and the serving digests expect.
#[derive(Clone, Default)]
struct Monitors(Vec<(SymbolId, &'static str, TimeSeries)>);

impl Monitors {
    fn get(&self, metric: &str) -> Option<&TimeSeries> {
        self.0
            .iter()
            .find(|(_, name, _)| *name == metric)
            .map(|(_, _, series)| series)
    }

    /// The metric's series, created (and its name interned) on the
    /// metric's first observation.
    fn series_mut(&mut self, metric: &str) -> &mut TimeSeries {
        let at = match self.0.iter().position(|(_, name, _)| *name == metric) {
            Some(at) => at,
            None => {
                let id = intern(metric);
                let at = self.0.partition_point(|(other, _, _)| *other < id);
                self.0
                    .insert(at, (id, id.name(), TimeSeries::with_capacity(256)));
                at
            }
        };
        &mut self.0[at].2
    }
}

impl std::fmt::Debug for Monitors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|(id, _, series)| (id, series)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knob::KnobValue;
    use std::sync::OnceLock;

    fn config(level: i64) -> Configuration {
        let mut c = Configuration::new();
        c.set("level", KnobValue::Int(level));
        c
    }

    fn kb() -> KnowledgeBase {
        // higher level: better quality, higher latency
        (1..=4)
            .map(|l| {
                OperatingPoint::new(
                    config(l),
                    [
                        ("latency".to_string(), 0.1 * l as f64),
                        ("quality".to_string(), l as f64),
                    ],
                )
            })
            .collect()
    }

    /// A factory handing out managers over one process-wide base, as
    /// the serving tier's `nav_manager` does.
    fn shared_manager() -> AppManager {
        static BASE: OnceLock<Arc<KnowledgeBase>> = OnceLock::new();
        let base = Arc::clone(BASE.get_or_init(|| Arc::new(kb())));
        AppManager::new(base, Objective::maximize("quality")).with_learn_alpha(1.0)
    }

    #[test]
    fn managers_from_one_factory_share_their_base_until_one_learns() {
        let mut learner = shared_manager();
        let idle = shared_manager();
        assert!(Arc::ptr_eq(&learner.knowledge, &idle.knowledge));
        learner.select();
        learner.observe(0.0, "latency", 0.9);
        assert!(
            Arc::ptr_eq(&learner.knowledge, &idle.knowledge),
            "selecting and observing write no base"
        );
        learner.adapt(1.0);
        assert!(!Arc::ptr_eq(&learner.knowledge, &idle.knowledge));
        assert_eq!(*idle.knowledge, kb(), "the shared base is unchanged");
        assert_ne!(*learner.knowledge, kb());
    }

    #[test]
    fn adapt_without_fresh_samples_does_not_copy_the_base() {
        let mut manager = shared_manager();
        let shared = Arc::clone(&manager.knowledge);
        // first round: deploys a configuration, no monitor yet
        assert!(matches!(manager.adapt(0.0), Decision::Switch(_)));
        assert!(Arc::ptr_eq(&manager.knowledge, &shared));
        // a learning round takes a base of its own ...
        manager.observe(0.5, "latency", 0.2);
        manager.adapt(1.0);
        assert!(!Arc::ptr_eq(&manager.knowledge, &shared));
        // ... which a clone shares; the sample at 0.5 is older than the
        // next window, so the next round has nothing to learn
        let twin = manager.clone();
        assert_eq!(manager.adapt(2.0), Decision::Stay);
        assert!(Arc::ptr_eq(&manager.knowledge, &twin.knowledge));
    }

    #[test]
    fn learning_on_a_clone_leaves_the_original_unchanged() {
        let mut original = shared_manager();
        original.select();
        original.observe(0.0, "latency", 0.1);
        let mut clone = original.clone();
        clone.observe(0.5, "latency", 0.9);
        clone.adapt(1.0);
        let learned = |m: &AppManager| m.knowledge().find(&config(4))?.metric("latency");
        assert!(
            learned(&clone).is_some_and(|latency| (latency - 0.5).abs() < 1e-12),
            "mean of 0.1 and 0.9"
        );
        assert_eq!(learned(&original), Some(0.4), "the design-time estimate");
        assert_eq!(original.knowledge(), &kb());
        assert!(Arc::ptr_eq(
            &original.knowledge,
            &shared_manager().knowledge
        ));
        // the original's own monitors still learn into its own copy
        original.adapt(1.0);
        assert!(learned(&original).is_some_and(|latency| (latency - 0.1).abs() < 1e-12));
        assert_eq!(*shared_manager().knowledge, kb());
    }

    #[test]
    fn select_honours_constraints_and_objective() {
        let mut manager = AppManager::new(kb(), Objective::maximize("quality"));
        manager.add_constraint(Constraint::at_most("latency", 0.25));
        let chosen = manager.select().unwrap().clone();
        assert_eq!(chosen.get_int("level"), Some(2), "level 3+ violate the SLA");
        // loosening the SLA upgrades the configuration
        manager.set_constraint_bound("latency", 1.0);
        assert_eq!(manager.select().unwrap().get_int("level"), Some(4));
        assert_eq!(manager.switches(), 1);
    }

    #[test]
    fn infeasible_sla_returns_none() {
        let mut manager = AppManager::new(kb(), Objective::maximize("quality"));
        manager.add_constraint(Constraint::at_most("latency", 0.01));
        assert!(manager.select().is_none());
    }

    #[test]
    fn adapt_learns_from_monitors_and_downgrades() {
        let mut manager =
            AppManager::new(kb(), Objective::maximize("quality")).with_learn_alpha(1.0);
        manager.add_constraint(Constraint::at_most("latency", 0.45));
        assert_eq!(manager.select().unwrap().get_int("level"), Some(4));

        // load spike: level 4 now measures 0.9 s latency, violating the SLA
        for t in 0..5 {
            manager.observe(t as f64, "latency", 0.9);
        }
        let decision = manager.adapt(5.0);
        assert!(matches!(decision, Decision::Switch(_)), "must downgrade");
        assert_eq!(manager.current().unwrap().get_int("level"), Some(3));
        // the knowledge base reflects the measurement
        let learned = manager
            .knowledge()
            .find(&config(4))
            .unwrap()
            .metric("latency")
            .unwrap();
        assert!((learned - 0.9).abs() < 1e-9);
    }

    #[test]
    fn adapt_without_new_data_stays() {
        let mut manager = AppManager::new(kb(), Objective::maximize("quality"));
        manager.select();
        assert_eq!(manager.adapt(1.0), Decision::Stay);
        assert_eq!(manager.adapt(2.0), Decision::Stay);
        assert_eq!(manager.switches(), 0);
    }

    #[test]
    fn adapt_only_uses_measurements_since_last_round() {
        let mut manager =
            AppManager::new(kb(), Objective::maximize("quality")).with_learn_alpha(1.0);
        manager.select();
        manager.observe(0.0, "latency", 9.9);
        manager.adapt(1.0);
        // old sample must not be re-learned at the next round
        let decision = manager.adapt(2.0);
        assert_eq!(decision, Decision::Stay);
    }

    #[test]
    fn first_select_counts_as_switch_decision_in_adapt() {
        let mut manager = AppManager::new(kb(), Objective::maximize("quality"));
        let decision = manager.adapt(0.0);
        assert!(matches!(decision, Decision::Switch(_)));
    }

    #[test]
    fn empty_knowledge_base_selects_nothing() {
        let mut manager = AppManager::new(KnowledgeBase::default(), Objective::maximize("quality"));
        assert!(manager.knowledge().is_empty());
        assert!(manager.select().is_none());
        assert!(manager.current().is_none());
        assert_eq!(manager.switches(), 0);
    }

    #[test]
    fn empty_knowledge_base_adapts_without_panicking() {
        let mut manager = AppManager::new(KnowledgeBase::default(), Objective::maximize("quality"));
        // measurements with no deployed configuration must be ignored
        manager.observe(0.0, "latency", 0.5);
        assert_eq!(manager.adapt(1.0), Decision::Stay);
        assert_eq!(manager.adapt(2.0), Decision::Stay);
        assert!(manager.knowledge().is_empty(), "nothing to learn into");
    }

    #[test]
    fn all_points_infeasible_under_stacked_constraints() {
        // each constraint alone is satisfiable, their conjunction is not:
        // low levels violate the quality floor, high levels the latency cap
        let mut manager = AppManager::new(kb(), Objective::maximize("quality"));
        manager.add_constraint(Constraint::at_most("latency", 0.25));
        manager.add_constraint(Constraint::at_least("quality", 3.0));
        assert!(manager.select().is_none());
        assert!(manager.current().is_none());
        // adapt must survive the infeasible state and report no switch
        assert_eq!(manager.adapt(1.0), Decision::Stay);
        assert_eq!(manager.switches(), 0);
    }

    #[test]
    fn equal_scores_tie_break_to_the_earliest_point() {
        // two configurations with identical objective value: the first
        // point registered in the knowledge base must win, every time
        let kb: KnowledgeBase = [3, 1]
            .into_iter()
            .map(|l| OperatingPoint::new(config(l), [("quality".to_string(), 2.0)]))
            .collect();
        let mut manager = AppManager::new(kb, Objective::maximize("quality"));
        assert_eq!(manager.select().unwrap().get_int("level"), Some(3));
        // re-selecting under a tie must not flap between the two points
        for _ in 0..5 {
            assert_eq!(manager.select().unwrap().get_int("level"), Some(3));
        }
        assert_eq!(manager.switches(), 0, "ties must not cause switches");
    }

    /// The `Debug` rendering recovery byte-compares and the serving
    /// digests fold, captured from the `BTreeMap`-backed monitors before
    /// they became a `Vec`. Metric ids are interned z < a < m, observed
    /// out of that order, plus one metric the base does not name; the
    /// names are this test's own, so no other test can intern them
    /// first.
    #[test]
    fn debug_rendering_matches_the_map_backed_monitors() {
        for name in ["mgr-golden-z", "mgr-golden-a", "mgr-golden-m"] {
            intern(name);
        }
        let kb: KnowledgeBase = (1..=2)
            .map(|l| {
                let mut c = Configuration::new();
                c.set("mgr-golden-level", KnobValue::Int(l));
                OperatingPoint::new(
                    c,
                    [
                        ("mgr-golden-a".to_string(), 0.5 * l as f64),
                        ("mgr-golden-m".to_string(), l as f64),
                    ],
                )
            })
            .collect();
        let mut manager = AppManager::new(kb, Objective::maximize("mgr-golden-m"));
        manager.add_constraint(Constraint::at_most("mgr-golden-a", 0.75));
        manager.select();
        manager.observe(0.5, "mgr-golden-m", 1.5);
        manager.observe(0.5, "mgr-golden-z", -2.0);
        manager.observe(1.0, "mgr-golden-a", 0.25);
        manager.observe(1.5, "mgr-golden-m", 0.5);
        manager.observe(2.0, "mgr-golden-new", 7.0);
        manager.adapt(3.0);
        manager.observe(3.5, "mgr-golden-z", 4.0);
        assert_eq!(
            format!("{manager:?}"),
            concat!(
                r#"AppManager { knowledge: KnowledgeBase { points: [OperatingPoint { config: Configuration { values: [("mgr-golden-level", Int(1))] }, metrics: [("mgr-golden-a", 0.4), ("mgr-golden-m", 1.0), ("mgr-golden-new", 7.0), ("mgr-golden-z", -2.0)] }, OperatingPoint { config: Configuration { values: [("mgr-golden-level", Int(2))] }, metrics: [("mgr-golden-a", 1.0), ("mgr-golden-m", 2.0)] }] }, "#,
                r#"objective: Objective { metric: "mgr-golden-m", direction: Maximize }, constraints: [Constraint { metric: "mgr-golden-a", bound: 0.75, upper: true }], current: Some(Configuration { values: [("mgr-golden-level", Int(1))] }), "#,
                r#"monitors: {"mgr-golden-z": TimeSeries { samples: [Sample { time: 0.5, value: -2.0 }, Sample { time: 3.5, value: 4.0 }], capacity: 256, total_pushed: 2, ewma: Some(-0.7999999999999998), ewma_alpha: 0.2 }, "#,
                r#""mgr-golden-a": TimeSeries { samples: [Sample { time: 1.0, value: 0.25 }], capacity: 256, total_pushed: 1, ewma: Some(0.25), ewma_alpha: 0.2 }, "#,
                r#""mgr-golden-m": TimeSeries { samples: [Sample { time: 0.5, value: 1.5 }, Sample { time: 1.5, value: 0.5 }], capacity: 256, total_pushed: 2, ewma: Some(1.3), ewma_alpha: 0.2 }, "#,
                r#""mgr-golden-new": TimeSeries { samples: [Sample { time: 2.0, value: 7.0 }], capacity: 256, total_pushed: 1, ewma: Some(7.0), ewma_alpha: 0.2 }}, "#,
                r#"learn_alpha: 0.4, switches: 0, last_adapt: 3.0 }"#,
            )
        );
        let empty = AppManager::new(KnowledgeBase::new(), Objective::minimize("mgr-golden-a"));
        assert_eq!(
            format!("{empty:?}"),
            r#"AppManager { knowledge: KnowledgeBase { points: [] }, objective: Objective { metric: "mgr-golden-a", direction: Minimize }, constraints: [], current: None, monitors: {}, learn_alpha: 0.4, switches: 0, last_adapt: -inf }"#
        );
        assert_eq!(
            manager.monitor("mgr-golden-z").map(TimeSeries::len),
            Some(2)
        );
        assert!(manager.monitor("mgr-golden-unobserved").is_none());
    }
}
