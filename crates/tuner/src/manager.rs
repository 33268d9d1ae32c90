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
//! The design-time knowledge base is shared and never written: managers
//! built from one base (and clones of a manager) hold the same
//! `Arc<KnowledgeBase>` for life. What a manager learns goes to its own
//! overlay instead — one row with a slot for every metric of the base,
//! allocated by the first round that learns and shared by clones until
//! one of them learns again. The rarer writes, a metric a point lacks
//! and a point for a configuration the base cannot find, go to a second
//! shared part of the overlay. [`Knowledge`] reads base ⊕ overlay in
//! place, and [`AppManager::select`] is one scan over it with
//! [`KnowledgeBase::best_linear`]'s semantics, which the indexed
//! [`KnowledgeBase::best`] equals: a manager's base holds a handful of
//! points, so the scan is the cheap way to stay exact.
//!
//! A clone copies only what a write can change between two clones: the
//! monitors, every series of which sits in one `SeriesSet`, so the copy
//! is two allocations (its header table and its sample buffer) however
//! many metrics the manager watches. The constraints sit behind a
//! shared `Arc<[Constraint]>` that only [`AppManager::add_constraint`]
//! and [`AppManager::set_constraint_bound`] replace, and the deployed
//! configuration is held as the index of its point in the knowledge,
//! whose points are never removed or reordered. Each point holds its
//! configuration behind an `Arc`, which [`AppManager::select`] and
//! [`AppManager::current`] hand out, so a caller that keeps the
//! deployed configuration shares it rather than copying it.

use crate::goal::{Constraint, Objective};
use crate::intern::{intern, lookup, SymbolId};
use crate::point::{KnowledgeBase, OperatingPoint};
use crate::space::Configuration;
use antarex_monitor::series::{SeriesSet, SeriesView};
use std::fmt;
use std::sync::Arc;

/// The per-application runtime autotuner.
///
/// # Examples
///
/// ```
/// use antarex_tuner::{AppManager, Configuration, KnobValue, KnowledgeBase, OperatingPoint};
/// use antarex_tuner::goal::{Constraint, Objective};
/// use std::sync::Arc;
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
/// let chosen = Arc::clone(manager.select().unwrap());
/// assert_eq!(chosen.get_int("alternatives"), Some(1), "0.9 s point violates the SLA");
/// // the deployed configuration is the knowledge point's own, shared
/// let point = &manager.knowledge().base().points()[1];
/// assert!(Arc::ptr_eq(&chosen, &point.config));
/// assert!(Arc::ptr_eq(&chosen, manager.current().unwrap()));
/// ```
#[derive(Clone)]
pub struct AppManager {
    base: Arc<KnowledgeBase>,
    learned: Overlay,
    objective: Objective,
    constraints: Arc<[Constraint]>,
    /// The deployed point: its index in [`Knowledge`]'s points, base
    /// points first.
    current: Option<usize>,
    monitors: Monitors,
    learn_alpha: f64,
    switches: u64,
    last_adapt: f64,
}

impl AppManager {
    /// Creates a manager over a design-time knowledge base: an owned
    /// base, or an `Arc` that other managers share.
    pub fn new(knowledge: impl Into<Arc<KnowledgeBase>>, objective: Objective) -> Self {
        AppManager {
            base: knowledge.into(),
            learned: Overlay::default(),
            objective,
            constraints: Arc::default(),
            current: None,
            monitors: Monitors(SeriesSet::new(MONITOR_CAPACITY)),
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
        self.constraints = self
            .constraints
            .iter()
            .cloned()
            .chain(std::iter::once(constraint))
            .collect();
    }

    /// Renegotiates the bound of the named constraint; returns `false` if
    /// no such constraint exists.
    pub fn set_constraint_bound(&mut self, metric: &str, bound: f64) -> bool {
        let Some(at) = self.constraints.iter().position(|c| c.metric() == metric) else {
            return false;
        };
        Arc::make_mut(&mut self.constraints)[at].set_bound(bound);
        true
    }

    /// The active constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// The knowledge online learning keeps current: the shared base with
    /// what this manager learned laid over it, read in place.
    pub fn knowledge(&self) -> Knowledge<'_> {
        Knowledge {
            base: &self.base,
            learned: &self.learned,
        }
    }

    /// The configuration currently deployed: the knowledge point's own
    /// `Arc`, so a caller that keeps it shares it.
    pub fn current(&self) -> Option<&Arc<Configuration>> {
        Some(self.knowledge().config(self.current?))
    }

    /// Number of configuration switches decided so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Selects the best feasible operating point and deploys it.
    /// Returns `None` when no point satisfies the constraints (SLA
    /// infeasible — the caller should escalate to the RTRM).
    ///
    /// Nothing is cloned: the deployed point is an index, replaced
    /// when the winner's configuration is not equal to the deployed
    /// one (so always, for a configuration holding a NaN knob). The
    /// configuration comes back as the knowledge point's own `Arc`, so
    /// a caller that keeps it bumps a count instead of copying it.
    pub fn select(&mut self) -> Option<&Arc<Configuration>> {
        // borrows the two fields alone, so `current` stays writable
        let knowledge = Knowledge {
            base: &self.base,
            learned: &self.learned,
        };
        let (at, best) = knowledge.best(&self.objective, &self.constraints)?;
        let deployed = self.current.map(|current| knowledge.config(current));
        if deployed != Some(best) {
            if deployed.is_some() {
                self.switches += 1;
            }
            self.current = Some(at);
        }
        self.current()
    }

    /// Records a runtime measurement of `metric` for the *current*
    /// configuration. Series are bounded at 256 samples; a series'
    /// segment of the monitors' shared buffer doubles as its samples
    /// arrive, up to that bound, and from then on evicts in place, so
    /// once every metric's series is full an observation allocates
    /// nothing. Only a metric's first observation interns its name; the
    /// first observation of a manager allocates the header table and the
    /// buffer, with room for four metrics.
    pub fn observe(&mut self, time: f64, metric: &str, value: f64) {
        self.monitors.observe(time, metric, value);
    }

    /// The monitor series for a metric, if any measurements arrived.
    pub fn monitor(&self, metric: &str) -> Option<SeriesView<'_>> {
        self.monitors.get(metric)
    }

    /// One adaptation round at time `now`: folds measurements since the
    /// previous round into the knowledge (for the current
    /// configuration), re-selects, and returns the configuration the
    /// round switched to, or `None` when it stayed.
    ///
    /// Each monitor's mean over `[previous now, ..]` (inclusive — see
    /// [`SeriesView::mean_since`]) is blended into the current
    /// configuration's values in the overlay; the base is never
    /// written. The first round that learns allocates the overlay's
    /// row, and a round whose row a clone still shares copies it; every
    /// other round writes in place. A round whose current configuration
    /// the base cannot find (only a configuration that is not equal to
    /// itself, i.e. one holding a NaN knob) appends a point to the
    /// overlay instead, which allocates. The decision is read off
    /// `switches()` rather than off a saved copy of the configuration,
    /// and nothing is formatted.
    pub fn adapt(&mut self, now: f64) -> Option<&Arc<Configuration>> {
        let since = self.last_adapt;
        self.last_adapt = now;
        if let Some(current) = self.current {
            let mut fresh = self
                .monitors
                .0
                .iter()
                .filter_map(|(&(metric, _), series)| Some((metric, series.mean_since(since)?)))
                .peekable();
            if fresh.peek().is_some() {
                let knowledge = Knowledge {
                    base: &self.base,
                    learned: &self.learned,
                };
                let config = knowledge.config(current);
                match self.base.find_index(config) {
                    Some(index) => self
                        .learned
                        .learn(&self.base, index, fresh, self.learn_alpha),
                    None => {
                        let point = OperatingPoint::with_metric_ids(Arc::clone(config), fresh);
                        self.learned.append(point);
                    }
                }
            }
        }
        let had_current = self.current.is_some();
        let switches = self.switches;
        let reselected = self.select().is_some();
        let next = self.current()?;
        // `select` counts a switch exactly when it replaces a deployed
        // configuration with an unequal one. When it finds no feasible
        // point it leaves `current` alone, and the decision has always
        // been "previous != current" — true of a configuration that is
        // not equal to itself.
        #[allow(clippy::eq_op)]
        let switched = !had_current || self.switches != switches || (!reselected && next != next);
        switched.then_some(next)
    }
}

impl fmt::Debug for AppManager {
    /// Renders the knowledge as the `KnowledgeBase` a manager that
    /// learned into a copy of its base would hold: state reports and
    /// crash recovery byte-compare this.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppManager")
            .field("knowledge", &self.knowledge())
            .field("objective", &self.objective)
            .field("constraints", &self.constraints)
            .field("current", &self.current())
            .field("monitors", &self.monitors)
            .field("learn_alpha", &self.learn_alpha)
            .field("switches", &self.switches)
            .field("last_adapt", &self.last_adapt)
            .finish()
    }
}

/// Online learning's update, `old + alpha * (measured - old)`; a metric
/// with no old value takes the measurement.
fn blend(old: Option<f64>, measured: f64, alpha: f64) -> f64 {
    old.map_or(measured, |old| old + alpha * (measured - old))
}

/// What one manager learned, laid over its shared base. Both parts sit
/// behind an `Arc`, so cloning a manager bumps counts; a write copies
/// a part only while a clone still shares it.
#[derive(Clone, Default)]
struct Overlay {
    /// A slot for every metric of the base — point by point in base
    /// order, each point's metrics in name order — holding the learned
    /// value (the base's own until a round learns it); `None` until the
    /// first round that learns into a base point.
    row: Option<Arc<[f64]>>,
    /// The writes the row has no slot for; `None` while there are none.
    more: Option<Arc<Additions>>,
}

/// The overlay's writes beyond the row's slots.
#[derive(Clone, Default)]
struct Additions {
    /// `(point, metric, value)` for metrics learned on a base point that
    /// lacks them, sorted by point.
    metrics: Vec<(usize, SymbolId, f64)>,
    /// Points learned for configurations the base cannot find.
    points: Vec<OperatingPoint>,
}

impl Overlay {
    /// Blends each fresh `(metric, mean)` into base point `index` — its
    /// row slots, or its additions for a metric it lacks.
    fn learn(
        &mut self,
        base: &KnowledgeBase,
        index: usize,
        fresh: impl Iterator<Item = (SymbolId, f64)>,
        alpha: f64,
    ) {
        let points = base.points();
        let entries = points[index].metric_entries();
        let offset: usize = points[..index]
            .iter()
            .map(|point| point.metric_entries().len())
            .sum();
        let row = Arc::make_mut(self.row.get_or_insert_with(|| row_of(base)));
        let values = &mut row[offset..offset + entries.len()];
        for (id, measured) in fresh {
            match entries.iter().position(|&(other, _)| other == id) {
                Some(at) => values[at] = blend(Some(values[at]), measured, alpha),
                None => Arc::make_mut(self.more.get_or_insert_default())
                    .learn_metric(index, id, measured, alpha),
            }
        }
    }

    /// Appends a point learned for a configuration the base cannot
    /// find. Only a configuration that is not equal to itself (a NaN
    /// knob) is not found, so an appended point is never found again
    /// either: each such round appends, as it does in a `KnowledgeBase`.
    fn append(&mut self, point: OperatingPoint) {
        Arc::make_mut(self.more.get_or_insert_default())
            .points
            .push(point);
    }
}

impl Additions {
    /// Blends `measured` into the added metric `id` of base point
    /// `point`, adding it on its first measurement.
    fn learn_metric(&mut self, point: usize, id: SymbolId, measured: f64, alpha: f64) {
        let added = &mut self.metrics;
        match added
            .iter_mut()
            .find(|(p, other, _)| *p == point && *other == id)
        {
            Some((_, _, value)) => *value = blend(Some(*value), measured, alpha),
            None => {
                let at = added.partition_point(|&(other, ..)| other <= point);
                added.insert(at, (point, id, measured));
            }
        }
    }
}

/// The base's metric values as one row, allocated once: a `Range` map
/// has an exact length, so `collect` writes the shared slice in place
/// (a `flat_map` would collect into a `Vec` first). `values` yields
/// exactly `slots` values, so the fallback never runs.
fn row_of(base: &KnowledgeBase) -> Arc<[f64]> {
    let slots = base
        .points()
        .iter()
        .map(|point| point.metric_entries().len())
        .sum();
    let mut values = base
        .points()
        .iter()
        .flat_map(OperatingPoint::metric_entries)
        .map(|&(_, value)| value);
    (0..slots)
        .map(|_| values.next().unwrap_or(f64::NAN))
        .collect()
}

/// A manager's knowledge: the shared design-time base with what the
/// manager learned laid over it, read in place. Its `Debug` is the
/// `KnowledgeBase` learning into a copy of the base would have built.
#[derive(Clone, Copy)]
pub struct Knowledge<'a> {
    base: &'a KnowledgeBase,
    learned: &'a Overlay,
}

impl<'a> Knowledge<'a> {
    /// The shared design-time base, which learning never changes.
    pub fn base(self) -> &'a KnowledgeBase {
        self.base
    }

    /// Number of points: the base's and those learned for
    /// configurations it cannot find.
    pub fn len(self) -> usize {
        self.base.len() + self.additions().1.len()
    }

    /// Returns `true` if there is no point to select.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The current estimate of `metric` for `config`'s point (the first
    /// point whose configuration equals it), if that point has one.
    pub fn metric(self, config: &Configuration, metric: &str) -> Option<f64> {
        let id = lookup(metric)?;
        self.points()
            .find(|seen| *seen.point.config == *config)?
            .metric_id(id)
    }

    /// The configuration of point `at`, counted as [`points`] counts.
    ///
    /// [`points`]: Knowledge::points
    fn config(self, at: usize) -> &'a Arc<Configuration> {
        match at.checked_sub(self.base.len()) {
            None => &self.base.points()[at].config,
            Some(appended) => &self.additions().1[appended].config,
        }
    }

    /// The added metrics and appended points.
    fn additions(self) -> (&'a [(usize, SymbolId, f64)], &'a [OperatingPoint]) {
        match self.learned.more.as_deref() {
            Some(more) => (&more.metrics, &more.points),
            None => (&[], &[]),
        }
    }

    /// Every point as the manager sees it, base points first.
    fn points(self) -> impl Iterator<Item = Seen<'a>> {
        let (added, appended) = self.additions();
        let row = self.learned.row.as_deref();
        let mut offset = 0;
        let base = self
            .base
            .points()
            .iter()
            .enumerate()
            .map(move |(index, point)| {
                let slots = point.metric_entries().len();
                let values = row.map(|row| &row[offset..offset + slots]);
                offset += slots;
                let from = added.partition_point(|&(other, ..)| other < index);
                let to = added.partition_point(|&(other, ..)| other <= index);
                Seen {
                    point,
                    values,
                    added: &added[from..to],
                }
            });
        base.chain(appended.iter().map(|point| Seen {
            point,
            values: None,
            added: &[],
        }))
    }

    /// [`KnowledgeBase::best_linear`] over base ⊕ overlay: among the
    /// feasible points that have the objective's metric, the first with
    /// a strictly better score (ties go to the earliest point; a NaN
    /// score displaces and is displaced, as there), with its index.
    fn best(
        self,
        objective: &Objective,
        constraints: &[Constraint],
    ) -> Option<(usize, &'a Arc<Configuration>)> {
        let mut best: Option<(usize, &Arc<Configuration>, f64)> = None;
        let feasible = self
            .points()
            .enumerate()
            .filter(|(_, seen)| seen.satisfies(constraints));
        for (at, seen) in feasible {
            let Some(value) = seen.metric_id(objective.metric_id()) else {
                continue;
            };
            let score = objective.score(value);
            match best {
                Some((.., best_score)) if best_score >= score => {}
                _ => best = Some((at, &seen.point.config, score)),
            }
        }
        best.map(|(at, config, _)| (at, config))
    }
}

impl fmt::Debug for Knowledge<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Points<'a>(Knowledge<'a>);
        impl fmt::Debug for Points<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.points()).finish()
            }
        }
        f.debug_struct("KnowledgeBase")
            .field("points", &Points(*self))
            .finish()
    }
}

/// One point as a manager sees it: a base point with what the manager
/// learned for it, or a point the manager appended.
#[derive(Clone, Copy)]
struct Seen<'a> {
    point: &'a OperatingPoint,
    /// The learned values of the point's own metrics, in its order;
    /// `None` where the point's own values hold.
    values: Option<&'a [f64]>,
    /// Metrics learned for a base point that lacks them.
    added: &'a [(usize, SymbolId, f64)],
}

impl Seen<'_> {
    /// The value of the point's `at`-th own metric.
    fn value(self, at: usize) -> f64 {
        self.values
            .map_or(self.point.metric_entries()[at].1, |values| values[at])
    }

    fn metric_id(self, id: SymbolId) -> Option<f64> {
        match self
            .point
            .metric_entries()
            .iter()
            .position(|&(other, _)| other == id)
        {
            Some(at) => Some(self.value(at)),
            None => self
                .added
                .iter()
                .find(|&&(_, other, _)| other == id)
                .map(|&(_, _, value)| value),
        }
    }

    /// Returns `true` if every constraint is met (missing metrics fail).
    fn satisfies(self, constraints: &[Constraint]) -> bool {
        constraints.iter().all(|c| {
            self.metric_id(c.metric_id())
                .is_some_and(|v| c.satisfied_by(v))
        })
    }
}

impl fmt::Debug for Seen<'_> {
    /// Renders the `OperatingPoint` the view stands for, built for the
    /// purpose: reports and recovery checks are off the serving path.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut point = self.point.clone();
        for (at, &(id, _)) in self.point.metric_entries().iter().enumerate() {
            point.set_metric(id, self.value(at));
        }
        for &(_, id, value) in self.added {
            point.set_metric(id, value);
        }
        point.fmt(f)
    }
}

/// Samples a monitor series retains.
const MONITOR_CAPACITY: usize = 256;

/// A manager's runtime monitors: one series per observed metric, in
/// interned-id order, which is the order `adapt` learns in, all in one
/// [`SeriesSet`] — a header table and a sample buffer, whatever the
/// number of metrics. A manager watches a handful of metrics, so a
/// series is found by comparing names: no interning and no lock per
/// observation. `Debug` renders a map from id to series, as the
/// recovery check and the serving digests expect.
#[derive(Clone)]
struct Monitors(SeriesSet<(SymbolId, &'static str)>);

impl Monitors {
    fn position(&self, metric: &str) -> Option<usize> {
        self.0.keys().position(|&(_, name)| name == metric)
    }

    fn get(&self, metric: &str) -> Option<SeriesView<'_>> {
        Some(self.0.get(self.position(metric)?))
    }

    /// Records a sample of the metric's series, created (and its name
    /// interned) on the metric's first observation.
    fn observe(&mut self, time: f64, metric: &str, value: f64) {
        let at = match self.position(metric) {
            Some(at) => at,
            None => {
                let id = intern(metric);
                let at = self.0.keys().take_while(|&&(other, _)| other < id).count();
                self.0.insert(at, (id, id.name()));
                at
            }
        };
        self.0.push(at, time, value);
    }
}

impl fmt::Debug for Monitors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|(&(id, _), series)| (id, series)))
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

    /// The overlay row a manager learned into.
    fn row(manager: &AppManager) -> &Arc<[f64]> {
        manager.learned.row.as_ref().expect("the manager learned")
    }

    fn close_to(expected: f64) -> impl Fn(f64) -> bool {
        move |value| (value - expected).abs() < 1e-12
    }

    #[test]
    fn managers_from_one_factory_share_their_base_for_life() {
        let mut learner = shared_manager();
        let idle = shared_manager();
        assert!(Arc::ptr_eq(&learner.base, &idle.base));
        learner.select();
        for round in 1..=5 {
            learner.observe(f64::from(round) - 0.5, "latency", 0.9);
            learner.adapt(f64::from(round));
            assert!(Arc::ptr_eq(&learner.base, &idle.base), "round {round}");
        }
        assert_eq!(*idle.base, kb(), "the shared base is unchanged");
        let latency = |m: &AppManager| m.knowledge().metric(&config(4), "latency");
        assert!(latency(&learner).is_some_and(close_to(0.9)));
        assert_eq!(latency(&idle), Some(0.4), "the design-time estimate");
    }

    #[test]
    fn adapt_writes_the_overlay_never_the_base() {
        let mut manager = shared_manager();
        let shared = Arc::clone(&manager.base);
        // first round: deploys a configuration, no monitor yet
        assert!(manager.adapt(0.0).is_some());
        assert!(
            manager.learned.row.is_none(),
            "nothing learned, nothing held"
        );
        // a learning round writes a row of the manager's own ...
        manager.observe(0.5, "latency", 0.2);
        manager.adapt(1.0);
        assert_eq!(row(&manager).len(), 8, "a slot per metric of the base");
        // ... which a clone shares; the sample at 0.5 is older than the
        // next window, so the next round has nothing to learn
        let twin = manager.clone();
        assert_eq!(manager.adapt(2.0), None);
        assert!(Arc::ptr_eq(row(&manager), row(&twin)));
        // the next round that learns copies the row, never the base
        manager.observe(2.5, "latency", 0.3);
        manager.adapt(3.0);
        assert!(!Arc::ptr_eq(row(&manager), row(&twin)));
        for m in [&manager, &twin] {
            assert!(Arc::ptr_eq(&m.base, &shared));
        }
        assert_eq!(*shared, kb());
        assert!(manager.learned.more.is_none(), "no metric or point added");
    }

    #[test]
    fn learning_on_a_clone_leaves_the_original_unchanged() {
        let mut original = shared_manager();
        original.select();
        original.observe(0.0, "latency", 0.1);
        let mut clone = original.clone();
        clone.observe(0.5, "latency", 0.9);
        clone.adapt(1.0);
        let learned = |m: &AppManager| m.knowledge().metric(&config(4), "latency");
        assert!(
            learned(&clone).is_some_and(close_to(0.5)),
            "mean of 0.1 and 0.9"
        );
        assert_eq!(learned(&original), Some(0.4), "the design-time estimate");
        assert!(original.learned.row.is_none());
        // the original's own monitors still learn into its own overlay,
        // and the clone's estimate stays its own
        original.adapt(1.0);
        assert!(learned(&original).is_some_and(close_to(0.1)));
        assert!(learned(&clone).is_some_and(close_to(0.5)));
        let fresh = shared_manager();
        for m in [&original, &clone] {
            assert!(Arc::ptr_eq(&m.base, &fresh.base));
        }
        assert_eq!(*fresh.base, kb());
    }

    #[test]
    fn a_clone_shares_constraints_and_deployed_point_until_it_changes_them() {
        let mut manager = shared_manager();
        manager.add_constraint(Constraint::at_most("latency", 0.25));
        let deployed = manager.select().cloned();
        let mut twin = manager.clone();
        assert!(Arc::ptr_eq(&manager.constraints, &twin.constraints));
        assert_eq!(twin.current().cloned(), deployed);
        // renegotiating the clone's SLA copies the list, and its next
        // selection moves its deployed point alone
        assert!(twin.set_constraint_bound("latency", 1.0));
        assert!(!Arc::ptr_eq(&manager.constraints, &twin.constraints));
        assert_eq!(twin.select().unwrap().get_int("level"), Some(4));
        assert_eq!(manager.current().cloned(), deployed);
        assert_eq!(manager.select().cloned(), deployed);
        assert_eq!((manager.switches(), twin.switches()), (0, 1));
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
        assert!(manager.adapt(5.0).is_some(), "must downgrade");
        assert_eq!(manager.current().unwrap().get_int("level"), Some(3));
        // the knowledge base reflects the measurement
        let learned = manager.knowledge().metric(&config(4), "latency").unwrap();
        assert!((learned - 0.9).abs() < 1e-9);
    }

    #[test]
    fn adapt_without_new_data_stays() {
        let mut manager = AppManager::new(kb(), Objective::maximize("quality"));
        manager.select();
        assert_eq!(manager.adapt(1.0), None);
        assert_eq!(manager.adapt(2.0), None);
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
        assert_eq!(manager.adapt(2.0), None);
    }

    #[test]
    fn first_select_counts_as_switch_decision_in_adapt() {
        let mut manager = AppManager::new(kb(), Objective::maximize("quality"));
        assert!(manager.adapt(0.0).is_some());
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
        assert_eq!(manager.adapt(1.0), None);
        assert_eq!(manager.adapt(2.0), None);
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
        assert_eq!(manager.adapt(1.0), None);
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
            manager.monitor("mgr-golden-z").map(|series| series.len()),
            Some(2)
        );
        assert!(manager.monitor("mgr-golden-unobserved").is_none());
    }
}
