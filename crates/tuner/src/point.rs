//! Operating points and the design-time knowledge base.
//!
//! An operating point pairs a configuration with the metrics measured for
//! it (time, energy, quality, ...). The knowledge base is what design-time
//! exploration hands to the runtime manager — mARGOt's list of operating
//! points, filtered by constraints and ranked by the objective at runtime.
//!
//! Selection is the runtime hot path, so the knowledge base keeps two
//! auxiliary indexes maintained incrementally by [`KnowledgeBase::push`],
//! [`upsert`](KnowledgeBase::upsert), [`learn`](KnowledgeBase::learn) and
//! [`learn_metric`](KnowledgeBase::learn_metric):
//! a structural-hash map from configuration to point index (O(1)
//! [`find`](KnowledgeBase::find)), and one sorted column per metric so
//! [`best`](KnowledgeBase::best) is an ordered-index probe instead of a
//! full scan. The pre-index linear scan survives as
//! [`best_linear`](KnowledgeBase::best_linear) — the reference
//! implementation property tests compare against, and the fallback when
//! a NaN metric makes ordering undefined.

use crate::goal::{Constraint, Direction, Objective};
use crate::intern::{intern, lookup, SymbolId};
use crate::knob::KnobValue;
use crate::space::Configuration;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A configuration plus its measured metrics.
///
/// Metrics are stored as a dense `(SymbolId, f64)` column sorted by
/// metric *name*, so equality and iteration order match the string-keyed
/// map this replaced while lookups compare dense ids.
///
/// The configuration sits behind an `Arc`, so whoever deploys the point
/// (a manager's `select`, a serving session's selection) shares it
/// instead of copying it; `Debug` and equality are the configuration's.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// The knob settings.
    pub config: Arc<Configuration>,
    metrics: Vec<(SymbolId, f64)>,
}

impl OperatingPoint {
    /// Creates an operating point from an owned configuration or a
    /// shared one.
    pub fn new(
        config: impl Into<Arc<Configuration>>,
        metrics: impl IntoIterator<Item = (String, f64)>,
    ) -> Self {
        let mut point = OperatingPoint {
            config: config.into(),
            metrics: Vec::new(),
        };
        for (name, value) in metrics {
            point.set_metric(intern(&name), value);
        }
        point
    }

    /// Creates an operating point from pre-interned metric ids (no
    /// name is hashed or interned; the column is still name-sorted).
    pub fn with_metric_ids(
        config: impl Into<Arc<Configuration>>,
        metrics: impl IntoIterator<Item = (SymbolId, f64)>,
    ) -> Self {
        let mut point = OperatingPoint {
            config: config.into(),
            metrics: Vec::new(),
        };
        for (id, value) in metrics {
            point.set_metric(id, value);
        }
        point
    }

    /// Sets (or overwrites) one metric, keeping the column name-sorted.
    pub fn set_metric(&mut self, id: SymbolId, value: f64) {
        for entry in &mut self.metrics {
            if entry.0 == id {
                entry.1 = value;
                return;
            }
        }
        let name = id.name();
        let at = self
            .metrics
            .iter()
            .position(|(other, _)| other.name() > name)
            .unwrap_or(self.metrics.len());
        self.metrics.insert(at, (id, value));
    }

    /// A metric value.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metric_id(lookup(name)?)
    }

    /// A metric value by pre-interned id.
    pub fn metric_id(&self, id: SymbolId) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(other, _)| *other == id)
            .map(|(_, v)| *v)
    }

    /// Iterates over `(metric, value)` pairs in metric-name order.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.metrics.iter().map(|(id, v)| (id.name(), *v))
    }

    /// The metric column: `(metric, value)` in metric-name order.
    pub(crate) fn metric_entries(&self) -> &[(SymbolId, f64)] {
        &self.metrics
    }

    /// Returns `true` if every constraint is met (missing metrics fail).
    pub(crate) fn satisfies(&self, constraints: &[Constraint]) -> bool {
        constraints.iter().all(|c| {
            self.metric_id(c.metric_id())
                .is_some_and(|v| c.satisfied_by(v))
        })
    }
}

/// SplitMix64 finalizer — the avalanche stage used for structural
/// configuration hashing.
fn mix64(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Structural hash of a configuration: equal configurations (under
/// `PartialEq`, which treats `-0.0 == 0.0` for float knobs) hash equal.
/// Used only for in-process bucketing; collisions are verified by
/// configuration equality.
fn config_hash(config: &Configuration) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (id, value) in config.entries() {
        h = mix64(h ^ u64::from(id.index()));
        h = match value {
            KnobValue::Int(v) => mix64(h ^ 0xA1 ^ (*v as u64)),
            KnobValue::Float(v) => {
                // -0.0 == 0.0 under PartialEq, so both must hash alike
                let canonical = if *v == 0.0 { 0.0f64 } else { *v };
                mix64(h ^ 0xB2 ^ canonical.to_bits())
            }
            KnobValue::Choice(s) => {
                let mut hc = h ^ 0xC3;
                for byte in s.as_bytes() {
                    hc = mix64(hc ^ u64::from(*byte));
                }
                hc
            }
        };
    }
    h
}

/// Maps a finite metric value to a `u64` that sorts like the float
/// (`None` for NaN). `-0.0` normalizes to `+0.0` so equal-comparing
/// values share one key.
fn sort_key(value: f64) -> Option<u64> {
    if value.is_nan() {
        return None;
    }
    let bits = if value == 0.0 {
        0.0f64.to_bits()
    } else {
        value.to_bits()
    };
    Some(if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    })
}

/// One metric's sorted column: `(sort_key, point index)` pairs, plus a
/// count of NaN measurements (which have no place in a total order and
/// force selection back onto the linear reference).
#[derive(Debug, Clone, Default)]
struct MetricColumn {
    sorted: BTreeSet<(u64, u32)>,
    nans: u32,
}

/// The list of known operating points.
///
/// # Examples
///
/// ```
/// use antarex_tuner::{Configuration, KnowledgeBase, OperatingPoint};
/// use antarex_tuner::goal::{Constraint, Objective};
///
/// let mut kb = KnowledgeBase::new();
/// let mut slow = Configuration::new();
/// slow.set("unroll", antarex_tuner::KnobValue::Int(1));
/// kb.push(OperatingPoint::new(
///     slow,
///     [("time".to_string(), 2.0), ("energy".to_string(), 1.0)],
/// ));
/// let best = kb.best(&Objective::minimize("time"), &[]).unwrap();
/// assert_eq!(best.metric("time"), Some(2.0));
/// ```
#[derive(Clone, Default)]
pub struct KnowledgeBase {
    points: Vec<OperatingPoint>,
    by_config: HashMap<u64, Vec<u32>>,
    columns: HashMap<SymbolId, MetricColumn>,
}

impl std::fmt::Debug for KnowledgeBase {
    /// Shows only the points: the indexes are derived state whose
    /// `HashMap` iteration order is per-instance, and crash-recovery
    /// reports byte-compare this rendering.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnowledgeBase")
            .field("points", &self.points)
            .finish()
    }
}

impl PartialEq for KnowledgeBase {
    fn eq(&self, other: &Self) -> bool {
        // the indexes are derived state; bases are equal iff the points are
        self.points == other.points
    }
}

impl KnowledgeBase {
    /// Creates an empty knowledge base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a point, indexing its configuration and metric columns.
    pub fn push(&mut self, point: OperatingPoint) {
        let idx = u32::try_from(self.points.len()).expect("knowledge base overflow");
        self.by_config
            .entry(config_hash(&point.config))
            .or_default()
            .push(idx);
        for &(id, value) in &point.metrics {
            index_metric(&mut self.columns, id, value, idx);
        }
        self.points.push(point);
    }

    /// All points.
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the base is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The best feasible point under the objective: mARGOt's runtime
    /// selection. Ties resolve to the earliest point.
    ///
    /// Probes the objective metric's sorted column — cost is the number
    /// of *infeasible* better-scoring entries skipped, not the size of
    /// the base. Falls back to [`best_linear`](Self::best_linear) when
    /// the column contains NaN measurements.
    pub fn best(
        &self,
        objective: &Objective,
        constraints: &[Constraint],
    ) -> Option<&OperatingPoint> {
        let column = self.columns.get(&objective.metric_id())?;
        if column.nans > 0 {
            // NaN scores have no total order; defer to the reference
            // implementation's exact comparison quirks
            return self.best_linear(objective, constraints);
        }
        match objective.direction() {
            Direction::Minimize => column
                .sorted
                .iter()
                .find(|&&(_, idx)| self.points[idx as usize].satisfies(constraints))
                .map(|&(_, idx)| &self.points[idx as usize]),
            Direction::Maximize => {
                // descending order yields the highest value first, but
                // within one value the largest index first — keep
                // scanning the equal-value run for the earliest point
                let mut winner: Option<(u64, u32)> = None;
                for &(key, idx) in column.sorted.iter().rev() {
                    match winner {
                        Some((best_key, _)) if key != best_key => break,
                        _ => {}
                    }
                    if self.points[idx as usize].satisfies(constraints) {
                        match winner {
                            Some((_, best_idx)) if best_idx <= idx => {}
                            _ => winner = Some((key, idx)),
                        }
                    }
                }
                winner.map(|(_, idx)| &self.points[idx as usize])
            }
        }
    }

    /// The retained linear-scan reference for [`best`](Self::best):
    /// scans every point in insertion order. Property tests assert the
    /// indexed path returns exactly this; it also serves as the
    /// baseline in the `p1` performance experiment.
    pub fn best_linear(
        &self,
        objective: &Objective,
        constraints: &[Constraint],
    ) -> Option<&OperatingPoint> {
        let mut best: Option<(&OperatingPoint, f64)> = None;
        for point in self.points.iter().filter(|p| p.satisfies(constraints)) {
            let Some(value) = point.metric_id(objective.metric_id()) else {
                continue;
            };
            let score = objective.score(value);
            match &best {
                Some((_, best_score)) if *best_score >= score => {}
                _ => best = Some((point, score)),
            }
        }
        best.map(|(p, _)| p)
    }

    /// Looks up the point for a configuration, if measured before —
    /// a hash probe verified by configuration equality.
    pub fn find(&self, config: &Configuration) -> Option<&OperatingPoint> {
        self.find_index(config).map(|i| &self.points[i])
    }

    /// Index of the point for a configuration, if measured before.
    pub(crate) fn find_index(&self, config: &Configuration) -> Option<usize> {
        self.by_config
            .get(&config_hash(config))?
            .iter()
            .map(|&i| i as usize)
            .find(|&i| *self.points[i].config == *config)
    }

    /// Replaces the metrics of an existing configuration or appends a new
    /// point (online-learning update).
    pub fn upsert(&mut self, point: OperatingPoint) {
        match self.find_index(&point.config) {
            Some(i) => {
                let idx = i as u32;
                let old = std::mem::take(&mut self.points[i].metrics);
                for (id, value) in old {
                    unindex_metric(&mut self.columns, id, value, idx);
                }
                for &(id, value) in &point.metrics {
                    index_metric(&mut self.columns, id, value, idx);
                }
                self.points[i].metrics = point.metrics;
            }
            None => self.push(point),
        }
    }

    /// Blends new metrics into an existing point with learning rate
    /// `alpha` (`new = old + alpha * (measured - old)`); appends when the
    /// configuration is unknown. This is the paper's "continuous on-line
    /// learning ... to update the knowledge from the data collected by the
    /// monitors". One `learn_metric` per metric of
    /// a known configuration.
    pub fn learn(&mut self, point: OperatingPoint, alpha: f64) {
        match self.find_index(&point.config) {
            Some(i) => {
                for (id, measured) in point.metrics {
                    self.learn_metric(i, id, measured, alpha);
                }
            }
            None => self.push(point),
        }
    }

    /// Blends one measurement into the point at `index` (from
    /// [`find_index`](Self::find_index)) — the per-metric step of
    /// [`learn`](Self::learn), for callers that already hold the index
    /// and the interned metric id. The column entry is re-indexed only
    /// when the blended value sorts differently from the old one.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn learn_metric(&mut self, index: usize, id: SymbolId, measured: f64, alpha: f64) {
        let idx = index as u32;
        let point = &mut self.points[index];
        match point.metrics.iter_mut().find(|(other, _)| *other == id) {
            Some((_, value)) => {
                let old = *value;
                let new = old + alpha * (measured - old);
                *value = new;
                // removing and re-inserting the same `(key, idx)` entry
                // (or un- and re-counting a NaN) would change nothing
                if sort_key(old) != sort_key(new) {
                    unindex_metric(&mut self.columns, id, old, idx);
                    index_metric(&mut self.columns, id, new, idx);
                }
            }
            None => {
                point.set_metric(id, measured);
                index_metric(&mut self.columns, id, measured, idx);
            }
        }
    }

    /// The Pareto-optimal subset with respect to the given metrics (all
    /// minimized). A point is dominated if another is no worse on every
    /// metric and strictly better on one.
    pub fn pareto(&self, metrics: &[&str]) -> Vec<&OperatingPoint> {
        let ids: Vec<Option<SymbolId>> = metrics.iter().map(|m| lookup(m)).collect();
        self.points
            .iter()
            .filter(|p| {
                !self.points.iter().any(|q| {
                    if std::ptr::eq(*p, q) {
                        return false;
                    }
                    let mut strictly_better = false;
                    for id in &ids {
                        let (Some(pv), Some(qv)) = (
                            id.and_then(|id| p.metric_id(id)),
                            id.and_then(|id| q.metric_id(id)),
                        ) else {
                            return false;
                        };
                        if qv > pv {
                            return false;
                        }
                        if qv < pv {
                            strictly_better = true;
                        }
                    }
                    strictly_better
                })
            })
            .collect()
    }
}

fn index_metric(columns: &mut HashMap<SymbolId, MetricColumn>, id: SymbolId, value: f64, idx: u32) {
    let column = columns.entry(id).or_default();
    match sort_key(value) {
        Some(key) => {
            column.sorted.insert((key, idx));
        }
        None => column.nans += 1,
    }
}

fn unindex_metric(
    columns: &mut HashMap<SymbolId, MetricColumn>,
    id: SymbolId,
    value: f64,
    idx: u32,
) {
    if let Some(column) = columns.get_mut(&id) {
        match sort_key(value) {
            Some(key) => {
                column.sorted.remove(&(key, idx));
            }
            None => column.nans = column.nans.saturating_sub(1),
        }
    }
}

impl FromIterator<OperatingPoint> for KnowledgeBase {
    fn from_iter<I: IntoIterator<Item = OperatingPoint>>(iter: I) -> Self {
        let mut kb = KnowledgeBase::new();
        kb.extend(iter);
        kb
    }
}

impl Extend<OperatingPoint> for KnowledgeBase {
    fn extend<I: IntoIterator<Item = OperatingPoint>>(&mut self, iter: I) {
        for point in iter {
            self.push(point);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knob::KnobValue;

    fn point(unroll: i64, time: f64, energy: f64) -> OperatingPoint {
        let mut config = Configuration::new();
        config.set("unroll", KnobValue::Int(unroll));
        OperatingPoint::new(
            config,
            [("time".to_string(), time), ("energy".to_string(), energy)],
        )
    }

    fn kb() -> KnowledgeBase {
        [
            point(1, 4.0, 1.0),
            point(2, 2.0, 2.0),
            point(4, 1.0, 4.0),
            point(8, 0.9, 8.0),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn best_under_objective() {
        let kb = kb();
        let best = kb.best(&Objective::minimize("time"), &[]).unwrap();
        assert_eq!(best.config.get_int("unroll"), Some(8));
        let best = kb.best(&Objective::minimize("energy"), &[]).unwrap();
        assert_eq!(best.config.get_int("unroll"), Some(1));
        let best = kb.best(&Objective::maximize("time"), &[]).unwrap();
        assert_eq!(best.config.get_int("unroll"), Some(1));
    }

    #[test]
    fn constraints_filter_candidates() {
        let kb = kb();
        let constraints = [Constraint::at_most("energy", 4.0)];
        let best = kb.best(&Objective::minimize("time"), &constraints).unwrap();
        assert_eq!(
            best.config.get_int("unroll"),
            Some(4),
            "unroll=8 violates energy cap"
        );
        let impossible = [Constraint::at_most("energy", 0.5)];
        assert!(kb.best(&Objective::minimize("time"), &impossible).is_none());
    }

    #[test]
    fn missing_metric_fails_constraints() {
        let mut config = Configuration::new();
        config.set("unroll", KnobValue::Int(16));
        let p = OperatingPoint::new(config, [("time".to_string(), 0.1)]);
        assert!(!p.satisfies(&[Constraint::at_most("energy", 100.0)]));
    }

    #[test]
    fn upsert_replaces_in_place() {
        let mut kb = kb();
        kb.upsert(point(2, 99.0, 99.0));
        assert_eq!(kb.len(), 4);
        assert_eq!(
            kb.find(&point(2, 0.0, 0.0).config).unwrap().metric("time"),
            Some(99.0)
        );
    }

    #[test]
    fn learn_blends_with_alpha() {
        let mut kb = kb();
        kb.learn(point(2, 4.0, 4.0), 0.5);
        let p = kb.find(&point(2, 0.0, 0.0).config).unwrap();
        assert_eq!(p.metric("time"), Some(3.0), "2.0 + 0.5 * (4.0 - 2.0)");
        // unknown config appends
        kb.learn(point(32, 1.0, 1.0), 0.5);
        assert_eq!(kb.len(), 5);
    }

    #[test]
    fn pareto_front() {
        let kb = kb();
        let front = kb.pareto(&["time", "energy"]);
        // all four are non-dominated (time strictly decreasing, energy increasing)
        assert_eq!(front.len(), 4);
        let mut kb2 = kb.clone();
        kb2.push(point(16, 2.5, 3.0)); // dominated by unroll=2 (2.0, 2.0)
        assert_eq!(kb2.pareto(&["time", "energy"]).len(), 4);
    }

    #[test]
    fn indexed_best_tracks_learned_updates() {
        let mut kb = kb();
        // unroll=1 learns its way to the fastest point
        kb.learn(point(1, 0.1, 1.0), 1.0);
        let best = kb.best(&Objective::minimize("time"), &[]).unwrap();
        assert_eq!(best.config.get_int("unroll"), Some(1));
        assert_eq!(
            kb.best_linear(&Objective::minimize("time"), &[])
                .unwrap()
                .config
                .get_int("unroll"),
            Some(1)
        );
        // ...and upsert moves it back out of first place
        kb.upsert(point(1, 40.0, 1.0));
        let best = kb.best(&Objective::minimize("time"), &[]).unwrap();
        assert_eq!(best.config.get_int("unroll"), Some(8));
    }

    #[test]
    fn indexed_best_tie_breaks_to_earliest_point() {
        let kb: KnowledgeBase = [point(3, 5.0, 1.0), point(1, 5.0, 2.0), point(7, 5.0, 3.0)]
            .into_iter()
            .collect();
        for objective in [Objective::minimize("time"), Objective::maximize("time")] {
            let indexed = kb.best(&objective, &[]).unwrap();
            let linear = kb.best_linear(&objective, &[]).unwrap();
            assert_eq!(indexed.config.get_int("unroll"), Some(3));
            assert_eq!(indexed, linear);
        }
    }

    #[test]
    fn nan_metrics_fall_back_to_the_linear_reference() {
        let mut kb = kb();
        kb.push(point(16, f64::NAN, 1.0));
        let objective = Objective::minimize("time");
        // compare configs: a NaN-metric point is not `==` to itself
        assert_eq!(
            kb.best(&objective, &[]).map(|p| &p.config),
            kb.best_linear(&objective, &[]).map(|p| &p.config)
        );
        // replacing the NaN restores the indexed path
        kb.upsert(point(16, 0.5, 1.0));
        let best = kb.best(&objective, &[]).unwrap();
        assert_eq!(best.config.get_int("unroll"), Some(16));
    }

    #[test]
    fn negative_zero_metric_ties_with_positive_zero() {
        let kb: KnowledgeBase = [point(1, -0.0, 1.0), point(2, 0.0, 1.0)]
            .into_iter()
            .collect();
        let objective = Objective::minimize("time");
        assert_eq!(
            kb.best(&objective, &[]).unwrap().config.get_int("unroll"),
            kb.best_linear(&objective, &[])
                .unwrap()
                .config
                .get_int("unroll"),
        );
    }

    #[test]
    fn find_is_a_verified_hash_probe() {
        let kb = kb();
        assert!(kb.find(&point(2, 0.0, 0.0).config).is_some());
        assert!(kb.find(&point(3, 0.0, 0.0).config).is_none());
        // float knobs: -0.0 and 0.0 configurations are the same key
        let mut neg = Configuration::new();
        neg.set("alpha", KnobValue::Float(-0.0));
        let mut pos = Configuration::new();
        pos.set("alpha", KnobValue::Float(0.0));
        let mut kb2 = KnowledgeBase::new();
        kb2.push(OperatingPoint::new(neg, [("time".to_string(), 1.0)]));
        assert!(kb2.find(&pos).is_some());
    }

    #[test]
    fn metrics_iterate_in_name_order() {
        let p = point(1, 4.0, 1.0);
        let names: Vec<&str> = p.metrics().map(|(n, _)| n).collect();
        assert_eq!(names, ["energy", "time"]);
    }
}
