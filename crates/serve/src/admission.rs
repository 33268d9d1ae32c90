//! SLO-driven admission control: the *decide → actuate* half of the
//! control loop whose *observe* half is [`antarex_obs::slo`].
//!
//! PR 5 gave every tenant an error-budget burn rate; this module makes
//! the serving tier act on it. Each tenant carries an EWMA-smoothed
//! burn signal, updated once per batch window from that window's
//! latency-SLO checks, and is classified into one of three tiers:
//!
//! * **Admit** — requests flow normally (select → cache → probe);
//! * **Degrade** — graceful degradation: requests are answered from the
//!   design-point cache only. A cache hit serves at lookup cost; a miss
//!   is rejected with
//!   [`ServeError::AdmissionRejected`](crate::ServeError::AdmissionRejected)
//!   instead of enqueueing a fresh probe. A degraded tenant that keeps
//!   *demanding* fresh probes keeps burning budget (each cache-miss
//!   rejection counts as a violation) and escalates to shed; one that
//!   coasts on cached answers recovers.
//! * **Shed** — hard backpressure: requests fail fast with a
//!   `retry_after` hint before touching breakers, sessions, or pool
//!   capacity.
//!
//! Transitions are **hysteretic** (enter thresholds sit well above exit
//! thresholds) and **dwell-gated** (a tenant must sit in a tier for
//! [`AdmissionConfig::min_dwell_s`] of virtual time before moving
//! down, or before a degrade escalates to a shed), so one bad window
//! cannot flap a well-behaved tenant in and out of degradation. All
//! state advances on virtual timestamps through deterministic f64
//! arithmetic in sorted-tenant order, so the controller is bit-exact
//! across runs, worker counts, and crash recovery (its updates are
//! journaled and its full state snapshots).

use crate::store::TenantId;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Which path a tenant's requests take through the front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AdmissionTier {
    /// Full service: select, cache, fresh probes.
    Admit,
    /// Cache-only answers; fresh-probe demand is rejected.
    Degrade,
    /// Fail fast with a retry-after hint.
    Shed,
}

impl AdmissionTier {
    /// Deterministic label for state reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            AdmissionTier::Admit => "admit",
            AdmissionTier::Degrade => "degrade",
            AdmissionTier::Shed => "shed",
        }
    }
}

/// Tuning of the admission controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Target good fraction of the admission burn signal. This is the
    /// *control* target, deliberately coarser than the alerting SLO
    /// target the obs plane exports: with a 0.95 target one violation
    /// in twenty checks burns at exactly 1×, so burn values stay in a
    /// range where tier thresholds separate bursty abusers from
    /// well-behaved tenants caught in one bad window.
    pub target: f64,
    /// EWMA weight of the newest window's burn (in `(0, 1]`).
    pub alpha: f64,
    /// Smoothed burn at or above which an admitted tenant degrades.
    pub degrade_enter: f64,
    /// Smoothed burn at or below which a degraded tenant re-admits
    /// (must sit below `degrade_enter` — that gap is the hysteresis).
    pub degrade_exit: f64,
    /// Smoothed burn at or above which a degraded tenant sheds.
    pub shed_enter: f64,
    /// Smoothed burn at or below which a shed tenant de-escalates to
    /// degrade.
    pub shed_exit: f64,
    /// Minimum virtual time in a tier before de-escalating, and before
    /// a degrade may escalate to a shed.
    pub min_dwell_s: f64,
    /// Base backpressure hint carried by hard sheds, virtual seconds;
    /// scaled up with the tenant's burn severity.
    pub retry_after_s: f64,
}

impl AdmissionConfig {
    /// The hardened profile: 95% control target, half-life-of-one-
    /// window smoothing, degrade at 8× / re-admit at 2×, shed at 14× /
    /// de-escalate at 6×, 4 s dwell, 5 s base retry hint.
    pub fn hardened() -> Self {
        AdmissionConfig {
            target: 0.95,
            alpha: 0.5,
            degrade_enter: 8.0,
            degrade_exit: 2.0,
            shed_enter: 14.0,
            shed_exit: 6.0,
            min_dwell_s: 4.0,
            retry_after_s: 5.0,
        }
    }

    fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha <= 1.0,
            "EWMA alpha must be in (0, 1]"
        );
        assert!(
            self.degrade_exit < self.degrade_enter,
            "degrade thresholds need hysteresis (exit < enter)"
        );
        assert!(
            self.shed_exit < self.shed_enter,
            "shed thresholds need hysteresis (exit < enter)"
        );
        assert!(
            self.degrade_enter <= self.shed_enter,
            "degrade must engage at or before shed"
        );
        assert!(self.min_dwell_s >= 0.0, "dwell must be non-negative");
        assert!(self.retry_after_s > 0.0, "retry hint must be positive");
    }

    /// One window's burn rate: `violation_rate / (1 − target)`, the
    /// same formula as [`antarex_obs::slo`] exports, against this
    /// controller's own target. Zero-sample windows burn nothing.
    fn window_burn(&self, checked: u64, violations: u64) -> f64 {
        if checked == 0 {
            return 0.0;
        }
        let budget = 1.0 - self.target.clamp(0.0, 1.0 - 1e-9);
        (violations as f64 / checked as f64) / budget
    }
}

/// One tenant's admission state — part of the crash-recovery snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantAdmission {
    /// EWMA-smoothed burn rate.
    pub burn: f64,
    /// Current tier.
    pub tier: AdmissionTier,
    /// Virtual time of the last tier transition (or first sighting).
    pub since_s: f64,
}

/// The per-tenant admission controller.
///
/// Interior-mutable like [`crate::breaker::BreakerBank`]: the serving
/// path reads tiers per request and applies one `update` per touched
/// tenant per batch, in sorted order, under one mutex.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    tenants: Mutex<BTreeMap<TenantId, TenantAdmission>>,
}

impl AdmissionController {
    /// A controller with no tenant state; tenants materialize as
    /// admitted on first update.
    ///
    /// # Panics
    ///
    /// Panics when the config is inconsistent (no hysteresis gap,
    /// alpha outside `(0, 1]`, non-positive retry hint).
    pub fn new(config: AdmissionConfig) -> Self {
        config.validate();
        AdmissionController {
            config,
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<TenantId, TenantAdmission>> {
        crate::lock_or_recover(&self.tenants)
    }

    /// The tenant's current tier (admitted when never seen).
    pub fn tier(&self, tenant: TenantId) -> AdmissionTier {
        self.lock()
            .get(&tenant)
            .map(|s| s.tier)
            .unwrap_or(AdmissionTier::Admit)
    }

    /// The tenant's smoothed burn (zero when never seen).
    pub(crate) fn burn(&self, tenant: TenantId) -> f64 {
        self.lock().get(&tenant).map(|s| s.burn).unwrap_or(0.0)
    }

    /// Backpressure hint for a hard shed, milliseconds: the base retry
    /// window scaled by how far past the shed threshold the tenant is
    /// burning (clamped at 8×), so heavier abusers are told to stay
    /// away longer. Integer milliseconds keep the hint `Eq`-comparable
    /// in [`crate::ServeError`].
    pub(crate) fn retry_after_ms(&self, tenant: TenantId) -> u64 {
        let burn = self.burn(tenant);
        let scale = if self.config.shed_enter > 0.0 {
            (burn / self.config.shed_enter).clamp(1.0, 8.0)
        } else {
            1.0
        };
        (self.config.retry_after_s * scale * 1000.0).round() as u64
    }

    /// Applies one batch window's feedback for a tenant: folds the
    /// window's burn into the EWMA and runs the hysteretic tier
    /// transition at virtual time `now_s`. Returns the new tier when
    /// the tenant transitioned. This exact method is replayed from the
    /// journal, so live execution and recovery are bit-identical.
    pub fn update(
        &self,
        tenant: TenantId,
        now_s: f64,
        checked: u64,
        violations: u64,
    ) -> Option<AdmissionTier> {
        let window = self.config.window_burn(checked, violations);
        let mut tenants = self.lock();
        let state = tenants.entry(tenant).or_insert(TenantAdmission {
            burn: 0.0,
            tier: AdmissionTier::Admit,
            since_s: now_s,
        });
        state.burn = self.config.alpha * window + (1.0 - self.config.alpha) * state.burn;
        let dwelled = now_s - state.since_s >= self.config.min_dwell_s;
        let next = match state.tier {
            // escalation into degrade is immediate: protecting the
            // neighborhood beats giving the abuser one more window
            AdmissionTier::Admit if state.burn >= self.config.degrade_enter => {
                Some(AdmissionTier::Degrade)
            }
            // escalation to shed and every de-escalation are
            // dwell-gated: that is the flap damper
            AdmissionTier::Degrade if state.burn >= self.config.shed_enter && dwelled => {
                Some(AdmissionTier::Shed)
            }
            AdmissionTier::Degrade if state.burn <= self.config.degrade_exit && dwelled => {
                Some(AdmissionTier::Admit)
            }
            AdmissionTier::Shed if state.burn <= self.config.shed_exit && dwelled => {
                Some(AdmissionTier::Degrade)
            }
            _ => None,
        };
        if let Some(tier) = next {
            state.tier = tier;
            state.since_s = now_s;
        }
        next
    }

    /// The highest smoothed burn among *admitted* tenants — the
    /// autoscaler's SLO-pain signal. Degraded and shed tenants are
    /// already being handled by admission; capacity reacts to the pain
    /// of tenants still receiving full service.
    pub(crate) fn max_admitted_burn(&self) -> f64 {
        self.lock()
            .values()
            .filter(|s| s.tier == AdmissionTier::Admit)
            .map(|s| s.burn)
            .fold(0.0, f64::max)
    }

    /// Every tenant's admission state, sorted by tenant id — the
    /// snapshot the journal persists.
    pub(crate) fn snapshot(&self) -> Vec<(TenantId, TenantAdmission)> {
        self.lock().iter().map(|(&t, &s)| (t, s)).collect()
    }

    /// Restores the controller to an exact prior state (crash
    /// recovery).
    pub fn restore(&self, states: &[(TenantId, TenantAdmission)]) {
        let mut tenants = self.lock();
        tenants.clear();
        for &(tenant, state) in states {
            tenants.insert(tenant, state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> AdmissionController {
        AdmissionController::new(AdmissionConfig::hardened())
    }

    /// Feeds `n` windows of all-violating traffic, 2 s apart.
    fn hammer(c: &AdmissionController, tenant: TenantId, from_s: f64, windows: usize) -> f64 {
        let mut t = from_s;
        for _ in 0..windows {
            c.update(tenant, t, 20, 20);
            t += 2.0;
        }
        t
    }

    #[test]
    fn unseen_tenant_is_admitted_with_zero_burn() {
        let c = controller();
        assert_eq!(c.tier(42), AdmissionTier::Admit);
        assert_eq!(c.burn(42), 0.0);
    }

    #[test]
    fn sustained_violations_degrade_then_shed() {
        let c = controller();
        // window burn = (20/20)/0.05 = 20; EWMA: 10 after one window
        assert_eq!(c.update(5, 0.0, 20, 20), Some(AdmissionTier::Degrade));
        // burn 15 ≥ shed_enter but dwell (0 s) not served yet
        assert_eq!(c.update(5, 2.0, 20, 20), None);
        assert_eq!(c.tier(5), AdmissionTier::Degrade);
        // dwell satisfied at 4 s in tier: escalate
        assert_eq!(c.update(5, 4.0, 20, 20), Some(AdmissionTier::Shed));
    }

    #[test]
    fn one_bad_window_never_sheds_a_tenant() {
        let c = controller();
        c.update(1, 0.0, 20, 20);
        assert_eq!(
            c.tier(1),
            AdmissionTier::Degrade,
            "degradation may be immediate"
        );
        // clean windows afterwards: decay back to admit after dwell
        for t in [2.0, 4.0, 6.0] {
            c.update(1, t, 20, 0);
        }
        assert_eq!(c.tier(1), AdmissionTier::Admit, "recovered: {}", c.burn(1));
    }

    #[test]
    fn shed_tenant_decays_back_through_degrade() {
        let c = controller();
        let t = hammer(&c, 9, 0.0, 4);
        assert_eq!(c.tier(9), AdmissionTier::Shed);
        // zero-sample windows (a fully shed tenant generates no
        // checks): burn halves each window
        let mut now = t;
        for _ in 0..3 {
            c.update(9, now, 0, 0);
            now += 2.0;
        }
        assert_eq!(c.tier(9), AdmissionTier::Degrade, "burn={}", c.burn(9));
        assert!(c.burn(9) <= AdmissionConfig::hardened().shed_exit);
    }

    #[test]
    fn hysteresis_holds_between_exit_and_enter() {
        let c = controller();
        c.update(3, 0.0, 20, 20); // burn 10 → degrade
        assert_eq!(c.tier(3), AdmissionTier::Degrade);
        // settle the burn between degrade_exit (2) and degrade_enter
        // (8): the tier must hold, in either direction, indefinitely
        for w in 0..10 {
            c.update(3, 2.0 + 2.0 * w as f64, 20, 5); // window burn 5
            assert_eq!(c.tier(3), AdmissionTier::Degrade);
        }
        let burn = c.burn(3);
        assert!(burn > 2.0 && burn < 8.0, "burn settled at {burn}");
    }

    #[test]
    fn retry_hint_scales_with_severity_and_is_deterministic() {
        let c = controller();
        assert_eq!(c.retry_after_ms(1), 5000, "base hint at zero burn");
        hammer(&c, 1, 0.0, 8);
        let hot = c.retry_after_ms(1);
        assert!(hot > 5000, "heavier burn, longer hint: {hot}");
        assert!(hot <= 40_000, "hint capped at 8×: {hot}");
        assert_eq!(hot, c.retry_after_ms(1));
    }

    #[test]
    fn zero_sample_window_decays_burn() {
        let c = controller();
        c.update(2, 0.0, 10, 10);
        let before = c.burn(2);
        c.update(2, 2.0, 0, 0);
        assert!((c.burn(2) - before / 2.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_restore_round_trips_bit_identically() {
        let c = controller();
        hammer(&c, 1, 0.0, 3);
        c.update(2, 0.0, 20, 1);
        let snap = c.snapshot();
        let restored = AdmissionController::new(AdmissionConfig::hardened());
        restored.restore(&snap);
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.tier(1), c.tier(1));
        assert_eq!(restored.burn(2).to_bits(), c.burn(2).to_bits());
    }

    #[test]
    fn updates_are_order_deterministic() {
        let run = || {
            let c = controller();
            for w in 0..6 {
                for tenant in 0..8u64 {
                    c.update(tenant, 2.0 * w as f64, 20, tenant);
                }
            }
            c.snapshot()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn max_admitted_burn_ignores_contained_tenants() {
        let c = controller();
        hammer(&c, 7, 0.0, 4); // shed
        c.update(8, 0.0, 20, 3); // admitted, modest burn
        let max = c.max_admitted_burn();
        assert!(max < 4.0, "shed tenant's burn must not leak: {max}");
        assert!(max > 0.0);
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_rejected() {
        let _ = AdmissionController::new(AdmissionConfig {
            degrade_exit: 9.0,
            ..AdmissionConfig::hardened()
        });
    }
}
