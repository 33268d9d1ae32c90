//! Input-feature-aware operating-point selection.
//!
//! The best configuration usually depends on the *input*: docking a
//! 12-atom fragment and a 120-atom macrocycle want different pose counts;
//! a cross-town route and a two-block hop want different search effort.
//! mARGOt (the autotuner ANTAREX built, §IV) handles this with *data
//! features*: the knowledge base is clustered by input features, and the
//! runtime selects within the cluster nearest to the current input.
//! [`FeatureManager`] implements that scheme on top of
//! [`crate::point::KnowledgeBase`].

use crate::goal::{Constraint, Objective};
use crate::point::KnowledgeBase;
use crate::space::Configuration;

/// A feature cluster: a centroid in feature space plus the operating
/// points measured for inputs like it.
#[derive(Debug, Clone)]
pub(crate) struct FeatureCluster {
    centroid: Vec<f64>,
    knowledge: KnowledgeBase,
}

/// Feature-aware runtime selection.
///
/// # Examples
///
/// ```
/// use antarex_tuner::features::FeatureManager;
/// use antarex_tuner::goal::Objective;
/// use antarex_tuner::{Configuration, KnobValue, KnowledgeBase, OperatingPoint};
///
/// let mut fast = Configuration::new();
/// fast.set("poses", KnobValue::Int(4));
/// let mut thorough = Configuration::new();
/// thorough.set("poses", KnobValue::Int(64));
///
/// let mut manager = FeatureManager::new(Objective::minimize("time"), 1);
/// // small inputs: few poses suffice
/// manager.add_cluster(
///     vec![15.0],
///     [OperatingPoint::new(fast.clone(), [("time".into(), 1.0)])].into_iter().collect(),
/// );
/// // large inputs: only many poses produce usable scores
/// manager.add_cluster(
///     vec![100.0],
///     [OperatingPoint::new(thorough.clone(), [("time".into(), 9.0)])].into_iter().collect(),
/// );
/// let (config, _) = manager.select(&[20.0]).unwrap();
/// assert_eq!(config.get_int("poses"), Some(4));
/// let (config, _) = manager.select(&[90.0]).unwrap();
/// assert_eq!(config.get_int("poses"), Some(64));
/// ```
#[derive(Debug)]
pub struct FeatureManager {
    objective: Objective,
    constraints: Vec<Constraint>,
    dimensions: usize,
    clusters: Vec<FeatureCluster>,
    scale: Vec<f64>,
}

impl FeatureManager {
    /// Creates a manager for feature vectors of `dimensions` entries.
    ///
    /// # Panics
    ///
    /// Panics if `dimensions` is zero.
    pub fn new(objective: Objective, dimensions: usize) -> Self {
        assert!(dimensions > 0, "need at least one feature dimension");
        FeatureManager {
            objective,
            constraints: Vec::new(),
            dimensions,
            clusters: Vec::new(),
            scale: vec![1.0; dimensions],
        }
    }

    /// Adds an SLA constraint (applies across clusters).
    pub fn add_constraint(&mut self, constraint: Constraint) {
        self.constraints.push(constraint);
    }

    /// Registers a feature cluster with its design-time knowledge.
    ///
    /// # Panics
    ///
    /// Panics if the centroid dimension does not match.
    pub fn add_cluster(&mut self, centroid: Vec<f64>, knowledge: KnowledgeBase) {
        assert_eq!(
            centroid.len(),
            self.dimensions,
            "centroid dimension mismatch"
        );
        self.clusters.push(FeatureCluster {
            centroid,
            knowledge,
        });
    }

    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .zip(&self.scale)
            .map(|((x, y), s)| ((x - y) * s).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    /// Index of the cluster nearest to the given feature vector.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub(crate) fn nearest_cluster(&self, features: &[f64]) -> Option<usize> {
        assert_eq!(
            features.len(),
            self.dimensions,
            "feature dimension mismatch"
        );
        self.clusters
            .iter()
            .enumerate()
            .min_by(|a, b| {
                self.distance(&a.1.centroid, features)
                    .total_cmp(&self.distance(&b.1.centroid, features))
            })
            .map(|(i, _)| i)
    }

    /// Selects the best feasible configuration for an input with the
    /// given features; returns the configuration and the cluster used.
    pub fn select(&self, features: &[f64]) -> Option<(&Configuration, usize)> {
        let cluster = self.nearest_cluster(features)?;
        self.clusters[cluster]
            .knowledge
            .best(&self.objective, &self.constraints)
            .map(|p| (&*p.config, cluster))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knob::KnobValue;
    use crate::point::OperatingPoint;

    fn config(poses: i64) -> Configuration {
        let mut c = Configuration::new();
        c.set("poses", KnobValue::Int(poses));
        c
    }

    fn point(poses: i64, time: f64, quality: f64) -> OperatingPoint {
        OperatingPoint::new(
            config(poses),
            [("time".to_string(), time), ("quality".to_string(), quality)],
        )
    }

    fn manager() -> FeatureManager {
        let mut manager = FeatureManager::new(Objective::minimize("time"), 1);
        manager.add_constraint(Constraint::at_least("quality", 0.8));
        // small molecules: 8 poses already reach quality 0.9
        manager.add_cluster(
            vec![15.0],
            [point(8, 1.0, 0.9), point(64, 8.0, 0.95)]
                .into_iter()
                .collect(),
        );
        // large molecules: 8 poses are junk; 64 needed
        manager.add_cluster(
            vec![100.0],
            [point(8, 4.0, 0.4), point(64, 30.0, 0.85)]
                .into_iter()
                .collect(),
        );
        manager
    }

    #[test]
    fn selection_depends_on_input_features() {
        let manager = manager();
        let (small, c0) = manager.select(&[12.0]).unwrap();
        assert_eq!(small.get_int("poses"), Some(8));
        assert_eq!(c0, 0);
        let (large, c1) = manager.select(&[120.0]).unwrap();
        assert_eq!(
            large.get_int("poses"),
            Some(64),
            "quality constraint forces 64"
        );
        assert_eq!(c1, 1);
    }

    #[test]
    fn infeasible_cluster_returns_none() {
        let mut manager = manager();
        manager.add_constraint(Constraint::at_least("quality", 0.99));
        assert!(manager.select(&[120.0]).is_none());
    }

    #[test]
    fn empty_manager_selects_nothing() {
        let manager = FeatureManager::new(Objective::minimize("time"), 1);
        assert!(manager.select(&[1.0]).is_none());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_rejected() {
        let manager = manager();
        let _ = manager.select(&[1.0, 2.0]);
    }
}
