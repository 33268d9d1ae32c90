//! RAPL-style power capping.
//!
//! Node-level capping picks the fastest P-state whose estimated full-load
//! power stays under the cap; cluster-level capping splits a facility
//! budget across nodes weighted by demand — the
//! "maximum power budget that can be allocated to a specific computation"
//! from §IV.

use crate::error::{check_budget_w, RtrmError};
use crate::Fnv;
use antarex_obs::{Counter, Gauge, MetricsRegistry, Scope};
use antarex_sim::node::Node;

/// Observability handles for power-cap decisions, registered on the
/// shared metric plane. The capping policy is unchanged; these
/// wrappers only make its decisions visible — how often the budget is
/// split, how many splits were refused for lack of alive nodes, how
/// often enforcement actually clamped a node, and the current
/// budget/demand/granted levels.
#[derive(Debug, Clone)]
pub struct PowercapObs {
    splits: Counter,
    splits_refused: Counter,
    clamps: Counter,
    budget_w: Gauge,
    demand: Gauge,
    granted_w: Gauge,
}

impl PowercapObs {
    /// Registers the power-cap metrics on `registry` (idempotent: a
    /// second registration returns handles onto the same cells).
    /// Counters are [`Scope::Invariant`] — split and clamp decisions
    /// are pure functions of the workload, not of worker scheduling.
    pub fn register(registry: &MetricsRegistry) -> Self {
        PowercapObs {
            splits: registry.counter("rtrm_power_splits_total", Scope::Invariant),
            splits_refused: registry.counter("rtrm_power_splits_refused_total", Scope::Invariant),
            clamps: registry.counter("rtrm_pstate_clamps_total", Scope::Invariant),
            budget_w: registry.gauge("rtrm_power_budget_watts", Scope::Invariant),
            demand: registry.gauge("rtrm_power_demand_weight", Scope::Invariant),
            granted_w: registry.gauge("rtrm_power_granted_watts", Scope::Invariant),
        }
    }

    /// Enforcements that actually lowered a node's P-state.
    pub fn clamps(&self) -> u64 {
        self.clamps.get()
    }
}

/// `try_weighted_split` with its decision recorded on `obs`: the
/// attempted budget and summed finite demand land in gauges, a refusal
/// (empty alive set) bumps the refusal counter, and a successful split
/// records the granted total (= budget, conservation). The shares are
/// written into `shares`, as there.
pub fn try_weighted_split_observed<'s>(
    budget_w: f64,
    weights: &[f64],
    shares: &'s mut Vec<f64>,
    obs: &PowercapObs,
) -> Option<&'s [f64]> {
    obs.budget_w.set(budget_w);
    let demand: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    obs.demand.set(demand);
    match try_weighted_split(budget_w, weights, shares) {
        Some(split) => {
            obs.splits.inc();
            obs.granted_w.set(split.iter().sum());
            Some(split)
        }
        None => {
            obs.splits_refused.inc();
            obs.granted_w.set(0.0);
            None
        }
    }
}

/// Estimates the node's full-activity power at a P-state index (the
/// quantity a RAPL controller regulates) at an explicitly supplied
/// junction temperature. A controller behind degraded telemetry must regulate
/// against its *sensed* (held/EWMA/assume-worst) temperature rather
/// than reaching into ground truth — that is the difference between a
/// model of the plant and the plant itself. Non-finite temperatures
/// fall back to a pessimistic 95 °C so a lying sensor can only
/// over-estimate power and back off.
pub fn estimated_power_at_temp(node: &Node, pstate_index: usize, temp_c: f64) -> f64 {
    let spec = node.spec();
    let per_socket = spec.socket_power.total_w(
        spec.pstates.state(pstate_index),
        1.0,
        worst_if_unsensed(temp_c),
        node.variation().leakage_factor,
    );
    per_socket * spec.sockets as f64
}

/// The temperature a power estimate uses: a non-finite reading becomes
/// a pessimistic 95 °C.
fn worst_if_unsensed(temp_c: f64) -> f64 {
    if temp_c.is_finite() {
        temp_c
    } else {
        95.0
    }
}

/// A node power capper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PowerCapper {
    cap_w: f64,
}

impl PowerCapper {
    /// Creates a capper with the given node budget in watts.
    ///
    /// # Panics
    ///
    /// Panics if the cap is not positive.
    pub(crate) fn new(cap_w: f64) -> Self {
        Self::try_new(cap_w).expect("power cap must be positive")
    }

    /// Creates a capper, rejecting non-finite or non-positive caps with
    /// a typed error instead of panicking.
    pub(crate) fn try_new(cap_w: f64) -> Result<Self, RtrmError> {
        check_budget_w("power cap", cap_w).map(|cap_w| PowerCapper { cap_w })
    }

    /// The budget.
    pub(crate) fn cap_w(&self) -> f64 {
        self.cap_w
    }

    /// The fastest P-state whose estimated power at the sensed junction
    /// temperature `temp_c` respects the cap (index 0 if even the
    /// slowest exceeds it — the cap is then unenforceable and the caller
    /// should shed load instead). A controller behind a degraded sensor
    /// channel regulates against what it sensed, never ground truth (see
    /// [`estimated_power_at_temp`]).
    ///
    /// Leakage depends on the temperature, not on the P-state, so it is
    /// evaluated at most once per decision: a reading equal to the die's
    /// temperature bit for bit (every fresh one) takes the leakage the
    /// node keeps for it ([`Node::leakage_w`]) and costs no `powf`; any
    /// other reading evaluates it. The scan runs top-down and stops at
    /// the first state under the cap: the same index as keeping the last
    /// pass of a bottom-up scan, with no monotonicity assumed.
    pub(crate) fn admissible_pstate_at_temp(&self, node: &Node, temp_c: f64) -> usize {
        let spec = node.spec();
        let temp_c = worst_if_unsensed(temp_c);
        let leakage_w = if temp_c.to_bits() == node.temp_c().to_bits() {
            node.leakage_w()
        } else {
            spec.socket_power
                .leakage_w(temp_c, node.variation().leakage_factor)
        };
        (0..spec.pstates.len())
            .rev()
            .find(|&idx| {
                let per_socket =
                    spec.socket_power
                        .total_with_leakage_w(spec.pstates.state(idx), 1.0, leakage_w);
                per_socket * spec.sockets as f64 <= self.cap_w
            })
            .unwrap_or(0)
    }
}

/// Splits a cluster budget proportionally to per-node demand weights
/// (e.g. queued work); weights of zero receive an idle floor of 5% of the
/// uniform share. `None` on an empty weight list. Non-finite weights (a
/// NaN utilization from a dead sensor) are treated as zero demand rather
/// than poisoning every node's share. The shares replace the contents of
/// `shares`, the caller's buffer (left empty on `None`), so a controller
/// that keeps it splits without allocating; each weight is cleaned where
/// it is read.
pub(crate) fn try_weighted_split<'s>(
    budget_w: f64,
    weights: &[f64],
    shares: &'s mut Vec<f64>,
) -> Option<&'s [f64]> {
    shares.clear();
    if weights.is_empty() {
        return None;
    }
    let clean = |w: &f64| if w.is_finite() && *w > 0.0 { *w } else { 0.0 };
    let floor = 0.05 * budget_w / weights.len() as f64;
    let reserve = floor * weights.len() as f64;
    let remaining = (budget_w - reserve).max(0.0);
    let total: f64 = weights.iter().map(clean).sum();
    shares.extend(weights.iter().map(|w| {
        if total > 0.0 {
            floor + remaining * clean(w) / total
        } else {
            budget_w / weights.len() as f64
        }
    }));
    Some(shares)
}

/// A stable 64-bit digest of one cap decision — the budget and the
/// resulting per-node shares, folded bit-exactly (FNV-1a over the IEEE
/// bit patterns). The causal-tracing pipeline records this as the
/// payload of an `rtrm`-layer trace event, so a power split can be
/// linked to the requests it throttled and compared across runs
/// without serializing the whole share vector.
pub fn split_digest(budget_w: f64, shares: &[f64]) -> u64 {
    let mut hash = Fnv::OFFSET;
    hash.f64(budget_w);
    hash.u64(shares.len() as u64);
    for &share in shares {
        hash.f64(share);
    }
    hash.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_sim::node::NodeSpec;

    #[test]
    fn split_digest_is_stable_and_sensitive() {
        let mut shares = Vec::new();
        try_weighted_split(100.0, &[1.0, 2.0, 3.0], &mut shares).expect("nodes to budget");
        let a = split_digest(100.0, &shares);
        let b = split_digest(100.0, &shares);
        assert_eq!(a, b, "digest is a pure function of the decision");
        assert_eq!(a, 0xcab2_4cce_d24b_a325, "serve folds it into trace ids");
        assert_ne!(a, split_digest(101.0, &shares), "budget changes digest");
        let mut nudged = shares.clone();
        nudged[0] += 1e-9;
        assert_ne!(a, split_digest(100.0, &nudged), "bit-level sensitivity");
        assert_ne!(split_digest(0.0, &[]), split_digest(0.0, &[0.0]));
    }

    #[test]
    fn estimated_power_grows_with_pstate() {
        let node = Node::nominal(NodeSpec::cineca_xeon(), 0);
        let lo = estimated_power_at_temp(&node, 0, node.temp_c());
        let hi = estimated_power_at_temp(&node, node.spec().pstates.max_index(), node.temp_c());
        assert!(hi > lo * 1.5);
    }

    #[test]
    fn cap_selects_fastest_admissible_state() {
        let node = Node::nominal(NodeSpec::cineca_xeon(), 0);
        let hi_power =
            estimated_power_at_temp(&node, node.spec().pstates.max_index(), node.temp_c());
        // generous cap: fastest state allowed
        let capper = PowerCapper::new(hi_power + 10.0);
        assert_eq!(
            capper.admissible_pstate_at_temp(&node, node.temp_c()),
            node.spec().pstates.max_index()
        );
        // tight cap: must back off
        let capper = PowerCapper::new(hi_power * 0.6);
        let idx = capper.admissible_pstate_at_temp(&node, node.temp_c());
        assert!(idx < node.spec().pstates.max_index());
        assert!(estimated_power_at_temp(&node, idx, node.temp_c()) <= hi_power * 0.6);
    }

    #[test]
    fn weighted_split_conserves_budget() {
        let mut weighted = Vec::new();
        try_weighted_split(1000.0, &[3.0, 1.0, 0.0, 0.0], &mut weighted).expect("nodes to budget");
        let total: f64 = weighted.iter().sum();
        assert!((total - 1000.0).abs() < 1e-9);
        assert!(weighted[0] > weighted[1]);
        assert!(weighted[2] > 0.0, "idle floor present");
        assert_eq!(weighted[2], weighted[3]);
    }

    #[test]
    fn weighted_split_with_all_zero_weights_is_uniform() {
        let mut split = Vec::new();
        try_weighted_split(400.0, &[0.0, 0.0], &mut split).expect("nodes to budget");
        assert_eq!(split, vec![200.0, 200.0]);
    }

    #[test]
    fn weighted_split_survives_an_empty_cluster() {
        let mut split = vec![7.0];
        assert_eq!(try_weighted_split(1000.0, &[], &mut split), None);
        assert!(split.is_empty(), "a refused split leaves no stale shares");
    }

    #[test]
    fn a_kept_buffer_splits_like_a_fresh_one() {
        let mut kept = vec![f64::NAN; 9];
        for weights in [&[3.0, 1.0, f64::NAN][..], &[1.0; 5], &[0.0, 2.0]] {
            let mut fresh = Vec::new();
            try_weighted_split(750.0, weights, &mut fresh).expect("nodes to budget");
            let split = try_weighted_split(750.0, weights, &mut kept).expect("nodes to budget");
            assert_eq!(split, &fresh[..]);
            assert_eq!(kept, fresh);
        }
    }

    #[test]
    fn nan_weights_do_not_poison_the_split() {
        let mut split = Vec::new();
        try_weighted_split(1000.0, &[f64::NAN, 1.0], &mut split).expect("two nodes");
        assert!(split.iter().all(|w| w.is_finite()), "{split:?}");
        let total: f64 = split.iter().sum();
        assert!((total - 1000.0).abs() < 1e-9);
        assert!(split[1] > split[0], "the NaN node gets only the floor");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cap_rejected() {
        let _ = PowerCapper::new(0.0);
    }

    #[test]
    fn try_new_returns_typed_errors_instead_of_panicking() {
        assert!(PowerCapper::try_new(250.0).is_ok());
        for bad in [0.0, -10.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    PowerCapper::try_new(bad),
                    Err(RtrmError::InvalidBudget {
                        what: "power cap",
                        ..
                    })
                ),
                "cap {bad}"
            );
        }
    }

    #[test]
    fn explicit_temperature_estimation_degrades_safely() {
        let node = Node::nominal(NodeSpec::cineca_xeon(), 0);
        let idx = node.spec().pstates.max_index();
        // hotter silicon leaks more
        assert!(
            estimated_power_at_temp(&node, idx, 85.0) > estimated_power_at_temp(&node, idx, 45.0)
        );
        // a NaN-sensed temperature is assume-worst: at least as much
        // power as any plausible reading, so the capper backs off
        let worst = estimated_power_at_temp(&node, idx, f64::NAN);
        assert!(worst.is_finite());
        assert!(worst >= estimated_power_at_temp(&node, idx, 85.0));
        let cap = PowerCapper::new(estimated_power_at_temp(&node, idx, 45.0));
        assert!(
            cap.admissible_pstate_at_temp(&node, f64::NAN)
                <= cap.admissible_pstate_at_temp(&node, 45.0)
        );
    }

    #[test]
    fn observed_split_matches_unobserved_and_counts_decisions() {
        let registry = MetricsRegistry::new();
        let obs = PowercapObs::register(&registry);
        let weights = [3.0, 1.0, f64::NAN];
        let (mut observed, mut plain) = (Vec::new(), Vec::new());
        try_weighted_split_observed(1000.0, &weights, &mut observed, &obs).expect("three nodes");
        try_weighted_split(1000.0, &weights, &mut plain).expect("three nodes");
        assert_eq!(observed, plain, "observation must not change the policy");
        assert_eq!(obs.splits.get(), 1);
        assert_eq!(obs.splits_refused.get(), 0);
        // empty alive set: refused, not split
        assert_eq!(
            try_weighted_split_observed(1000.0, &[], &mut observed, &obs),
            None
        );
        assert_eq!(obs.splits.get(), 1);
        assert_eq!(obs.splits_refused.get(), 1);
    }

    #[test]
    fn observed_metrics_appear_on_the_registry() {
        let registry = MetricsRegistry::new();
        let obs = PowercapObs::register(&registry);
        try_weighted_split_observed(500.0, &[1.0, 1.0], &mut Vec::new(), &obs);
        let exposition = antarex_obs::exposition(&registry.snapshot(None));
        assert!(
            exposition.contains("rtrm_power_splits_total 1"),
            "{exposition}"
        );
        assert!(exposition.contains("rtrm_power_budget_watts 500"));
        assert!(exposition.contains("rtrm_power_granted_watts 500"));
    }
}
