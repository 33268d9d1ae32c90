//! Drug-discovery docking as a serving-tier tenant class.
//!
//! Wires the §VII-a use case through the service: a probe for a
//! (`poses` knob, workload features) pair docks a real synthetic ligand
//! against the evaluator's binding pocket and reports latency, binding
//! affinity, and a power proxy. The per-probe cost follows the real
//! `atoms × pocket_spheres × poses` work law of
//! [`antarex_apps::docking::scoring::dock_ligand`] — the heavy-tailed,
//! "unpredictable imbalance" workload the deterministic work-stealing
//! scheduler exists for. Like [`NavEvaluator`](crate::nav::NavEvaluator)
//! the probe derives its ligand geometry from [`probe_seed`], making
//! every evaluation a pure function of (configuration, features).
//!
//! [`TenantMux`] lets navigation and docking tenants coexist in one
//! campaign behind a single service: probes dispatch on the knob the
//! configuration carries (`poses` → docking, everything else → nav).

use crate::cache::probe_seed;
use crate::pool::Evaluation;
use crate::service::Evaluator;
use crate::store::{mix64, TenantClass, TenantId};
use crate::TuningService;
use antarex_apps::docking::molecule::{generate_ligand, generate_pocket, Pocket};
use antarex_apps::docking::scoring::dock_ligand;
use antarex_sim::workload::lognormal;
use antarex_tuner::goal::{Constraint, Objective};
use antarex_tuner::manager::AppManager;
use antarex_tuner::{Configuration, KnobValue, KnowledgeBase, OperatingPoint};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// Calibrated platform flops per scored atom–sphere interaction, the
/// same constant as [`antarex_apps::docking::scoring::estimated_flops`].
const FLOPS_PER_INTERACTION: f64 = 2000.0;

/// Median heavy-atom count of a screening library
/// ([`generate_library`](antarex_apps::docking::molecule::generate_library)'s
/// realistic default).
const MEDIAN_ATOMS: f64 = 24.0;

/// Evaluates docking design points against a fixed binding pocket.
///
/// Knob: `poses` (int, 1..=64) — rigid orientations sampled per probe,
/// the use case's autotuning knob. Workload features: `[atoms]` — the
/// tenant's ligand size (heavy atoms, defaults to the library median of
/// 24), which is what makes per-tenant probe costs heavy-tailed.
#[derive(Debug, Clone)]
pub struct DockingEvaluator {
    pocket: Pocket,
    /// Docking kernel throughput, flops per virtual second per core
    /// (a 2015 Xeon core).
    pub flops_per_s: f64,
    /// Power proxy: baseline watts plus per-pose intensity.
    pub watts_base: f64,
    /// Additional watts per sampled pose (deeper vectorized loops).
    pub watts_per_pose: f64,
}

impl DockingEvaluator {
    /// Creates an evaluator over an explicit pocket.
    pub(crate) fn new(pocket: Pocket) -> Self {
        DockingEvaluator {
            pocket,
            flops_per_s: 4.0e9,
            watts_base: 15.0,
            watts_per_pose: 0.15,
        }
    }

    /// A standard 30-sphere screening pocket, seeded.
    pub(crate) fn screening(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        DockingEvaluator::new(generate_pocket(30, &mut rng))
    }
}

impl Evaluator for DockingEvaluator {
    fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation {
        let poses = config.get_int("poses").unwrap_or(8).clamp(1, 64) as usize;
        let atoms = features
            .first()
            .copied()
            .unwrap_or(MEDIAN_ATOMS)
            .clamp(4.0, 250.0) as usize;
        // ligand geometry derives from the design key: identical
        // (config, features) pairs dock identical molecules forever
        let mut rng = StdRng::seed_from_u64(probe_seed(config, features));
        let ligand = generate_ligand(0, atoms, &mut rng);
        let score = dock_ligand(&ligand, &self.pocket, poses, &mut rng);
        // cost follows the real work law exactly: interactions is
        // atoms × pocket_spheres × poses by construction
        let latency_s = score.interactions as f64 * FLOPS_PER_INTERACTION / self.flops_per_s;
        let affinity = -score.best_score;
        let power_w = self.watts_base + self.watts_per_pose * poses as f64;
        Evaluation {
            metrics: [
                ("latency".to_string(), latency_s),
                ("affinity".to_string(), affinity),
                ("power".to_string(), power_w),
            ]
            .into_iter()
            .collect(),
            cost_s: latency_s,
            energy_j: power_w * latency_s,
        }
    }
}

/// The `poses` knob's design-time knowledge base: optimistic estimates
/// (median-ligand latency, log-growing affinity) the service corrects
/// through online learning. Built once per process; every docking
/// manager shares it for life and learns into an overlay of its own.
fn docking_knowledge() -> Arc<KnowledgeBase> {
    static BASE: OnceLock<Arc<KnowledgeBase>> = OnceLock::new();
    let base = BASE.get_or_init(|| {
        let points = [2i64, 4, 8, 16, 32, 64].into_iter().map(|poses| {
            let mut config = Configuration::new();
            config.set("poses", KnobValue::Int(poses));
            let median_flops = FLOPS_PER_INTERACTION * MEDIAN_ATOMS * 30.0 * poses as f64;
            OperatingPoint::new(
                config,
                [
                    ("latency".to_string(), median_flops / 4.0e9),
                    ("affinity".to_string(), 1.0 + (poses as f64).ln()),
                    ("power".to_string(), 15.0 + 0.15 * poses as f64),
                ],
            )
        });
        Arc::new(points.collect())
    });
    Arc::clone(base)
}

/// A per-tenant runtime manager over `docking_knowledge` with the
/// screening SLA: maximize binding affinity while probe latency stays
/// within `sla_s`.
pub fn docking_manager(sla_s: f64) -> AppManager {
    let mut manager = AppManager::new(docking_knowledge(), Objective::maximize("affinity"));
    manager.add_constraint(Constraint::at_most("latency", sla_s));
    manager
}

/// Workload features of docking tenant `index`: a ligand size drawn
/// from the screening library's lognormal distribution (median 24,
/// log-σ 0.5) — per-tenant heavy tails, deterministic in `seed`.
pub(crate) fn docking_features(index: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(mix64(
        seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    ));
    let atoms = (MEDIAN_ATOMS * lognormal(&mut rng, 0.0, 0.5))
        .round()
        .clamp(4.0, 250.0);
    vec![atoms]
}

/// Registers `count` docking tenants with ids starting at `first`, each
/// classed [`TenantClass::Docking`] with lognormal ligand-size features.
pub fn register_docking_tenants<E: Evaluator>(
    service: &TuningService<E>,
    first: TenantId,
    count: usize,
    seed: u64,
    sla_s: f64,
) {
    for index in 0..count {
        let tenant = first + index as TenantId;
        let _ = service.register_tenant_classed(
            tenant,
            TenantClass::Docking,
            docking_manager(sla_s),
            docking_features(index, seed),
        );
    }
}

/// Dispatches probes of a mixed nav + docking campaign to the evaluator
/// the configuration belongs to: a `poses` knob marks a docking design
/// point, everything else is navigation.
#[derive(Debug, Clone)]
pub struct TenantMux {
    /// The navigation evaluator (use case b).
    pub nav: crate::nav::NavEvaluator,
    /// The docking evaluator (use case a).
    pub docking: DockingEvaluator,
}

impl TenantMux {
    /// A standard mixed campaign: seeded city grid + screening pocket.
    pub fn city_and_screening(seed: u64) -> Self {
        TenantMux {
            nav: crate::nav::NavEvaluator::city(seed),
            docking: DockingEvaluator::screening(seed ^ 0xD0C4),
        }
    }
}

impl Evaluator for TenantMux {
    fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation {
        if config.get_int("poses").is_some() {
            self.docking.evaluate(config, features)
        } else {
            self.nav.evaluate(config, features)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::autoscale::AutoscaleConfig;
    use crate::driver::{Batching, Campaign, Cohort, DriverConfig};
    use crate::pool::SchedConfig;
    use crate::service::{FrontDoorConfig, TuningRequest};

    fn config(poses: i64) -> Configuration {
        let mut c = Configuration::new();
        c.set("poses", KnobValue::Int(poses));
        c
    }

    #[test]
    fn evaluation_is_pure() {
        let evaluator = DockingEvaluator::screening(40);
        let a = evaluator.evaluate(&config(8), &[24.0]);
        let b = evaluator.evaluate(&config(8), &[24.0]);
        assert_eq!(a, b, "identical design points must evaluate identically");
    }

    #[test]
    fn cost_follows_the_work_law() {
        let evaluator = DockingEvaluator::screening(41);
        let latency = |poses: i64, atoms: f64| {
            evaluator.evaluate(&config(poses), &[atoms]).metrics["latency"]
        };
        // exact atoms × spheres × poses proportionality
        assert!((latency(16, 24.0) - 2.0 * latency(8, 24.0)).abs() < 1e-12);
        assert!((latency(8, 100.0) - 2.0 * latency(8, 50.0)).abs() < 1e-12);
    }

    #[test]
    fn whale_ligands_are_heavy() {
        let evaluator = DockingEvaluator::screening(42);
        let small = evaluator.evaluate(&config(8), &[8.0]);
        let whale = evaluator.evaluate(&config(8), &[250.0]);
        assert!(
            whale.cost_s > 20.0 * small.cost_s,
            "whale {} vs small {}",
            whale.cost_s,
            small.cost_s
        );
    }

    #[test]
    fn missing_knob_defaults_to_eight_poses() {
        let evaluator = DockingEvaluator::screening(43);
        let e = evaluator.evaluate(&Configuration::new(), &[]);
        assert!(e.metrics["latency"] > 0.0);
        assert_eq!(e.cost_s, e.metrics["latency"]);
    }

    #[test]
    fn feature_distribution_is_heavy_tailed() {
        let sizes: Vec<f64> = (0..500).map(|i| docking_features(i, 7)[0]).collect();
        let mut sorted = sizes.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        assert!((18.0..=32.0).contains(&median), "median {median}");
        assert!(sorted.last().unwrap() > &(2.0 * median));
        assert_eq!(
            docking_features(3, 7),
            docking_features(3, 7),
            "features are a pure function of (index, seed)"
        );
    }

    #[test]
    fn mux_dispatches_on_the_knob() {
        let mux = TenantMux::city_and_screening(11);
        let docking = mux.evaluate(&config(8), &[24.0]);
        assert!(docking.metrics.contains_key("affinity"));
        let mut nav_config = Configuration::new();
        nav_config.set("alternatives", KnobValue::Int(4));
        let nav = mux.evaluate(&nav_config, &[8.0 * 3600.0, 1.0]);
        assert!(nav.metrics.contains_key("quality"));
    }

    /// `count` docking tenants from id `first`, registered only.
    fn docking_cohort(first: TenantId, count: usize) -> Cohort {
        Cohort {
            first,
            class: TenantClass::Docking,
            ..Cohort::new(count, 1, 0.0)
        }
    }

    #[test]
    fn mixed_campaign_serves_both_classes_end_to_end() {
        let mut campaign = DriverConfig::smoke(17).campaign();
        campaign.cohorts.push(docking_cohort(1000, 8));
        campaign.sched = SchedConfig::work_stealing();
        let service = campaign.build(TenantMux::city_and_screening(17));
        let mut requests: Vec<TuningRequest> = (0..4)
            .map(|tenant| TuningRequest {
                tenant,
                arrival_s: 0.01 * tenant as f64,
            })
            .collect();
        requests.extend((1000..1008).map(|tenant| TuningRequest {
            tenant,
            arrival_s: 0.05,
        }));
        let report = service.serve_batch(&requests);
        assert_eq!(report.responses.len(), 12);
        assert!(report.responses.iter().all(|r| r.is_ok()));
        // both classes flowed through one pool: makespans recorded per class
        let store = service.store();
        store
            .with(2, |s| assert_eq!(s.class, TenantClass::Generic))
            .unwrap();
        store
            .with(1003, |s| assert_eq!(s.class, TenantClass::Docking))
            .unwrap();
    }

    #[test]
    fn docking_outcomes_are_physical_worker_invariant() {
        let run = |physical: usize| {
            // the front door's pinned autoscaler (4..=4) fixes *virtual*
            // capacity, so `physical` varies thread parallelism alone
            let service = Campaign {
                cohorts: vec![docking_cohort(0, 32)],
                sched: SchedConfig::work_stealing(),
                front_door: Some(FrontDoorConfig {
                    admission: AdmissionConfig::hardened(),
                    autoscale: AutoscaleConfig {
                        min_workers: 4,
                        max_workers: 4,
                        ..AutoscaleConfig::hardened()
                    },
                }),
                ..Campaign::new(23, 1.0, Batching::Count(32))
            }
            .workers(physical)
            .build(DockingEvaluator::screening(23));
            let requests: Vec<TuningRequest> = (0..32)
                .map(|tenant| TuningRequest {
                    tenant,
                    arrival_s: 0.001 * tenant as f64,
                })
                .collect();
            let mut digest = String::new();
            for response in service.serve_batch(&requests).responses {
                digest.push_str(&format!("{response:?}\n"));
            }
            digest.push_str(&service.state_report());
            digest
        };
        let reference = run(1);
        for workers in [2usize, 4, 8] {
            assert_eq!(run(workers), reference, "physical workers leaked in");
        }
    }
}
