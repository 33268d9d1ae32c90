//! Per-tenant SLO burn-rate tracking.
//!
//! An SLO sets a *target* fraction of good events (e.g. `0.999`); the
//! complement is the error budget. The **burn rate** is how fast a
//! tenant is consuming that budget:
//!
//! ```text
//! burn = violation_rate / (1 − target)
//! ```
//!
//! `burn == 1` means the budget is being consumed exactly at the
//! sustainable pace; `burn > 1` means the tenant will exhaust its
//! budget early — the standard multi-window alerting signal.
//!
//! The bank keeps counts only: per `(tenant, objective)` pair, the
//! threshold fixed at registration and an [`SlaReport`] of checks and
//! violations — no name copy and no samples. Burn rates are the one
//! thing read from it, and they need nothing else. An objective whose
//! measurement history matters (the adaptive loop of experiment U2)
//! uses [`antarex_monitor::sla::Sla`], which records every sample.

use antarex_monitor::sla::SlaReport;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One tenant's burn-rate reading for one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRow {
    /// Tenant id.
    pub tenant: u64,
    /// Objective name.
    pub objective: String,
    /// Violation summary backing the rate.
    pub report: SlaReport,
    /// `violation_rate / (1 − target)`.
    pub burn: f64,
}

/// One `(tenant, objective)` pair's upper bound and record.
struct Slo {
    threshold: f64,
    report: SlaReport,
}

/// An upper-bound SLO check whose verdict the caller already took
/// (`ok` is `value <= threshold`), for the SLO bank to book in one
/// call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloVerdict {
    /// Tenant id.
    pub tenant: u64,
    /// Objective name.
    pub objective: &'static str,
    /// The bound the verdict was taken against; registers the pair on
    /// its first check, as an upper-bound check does.
    pub threshold: f64,
    /// Whether the objective was met.
    pub ok: bool,
}

type Slos = BTreeMap<String, BTreeMap<u64, Slo>>;

/// The objective's tenants, registering the objective on first use.
fn tenants_of<'a>(slos: &'a mut Slos, objective: &str) -> &'a mut BTreeMap<u64, Slo> {
    if !slos.contains_key(objective) {
        slos.insert(objective.to_string(), BTreeMap::new());
    }
    slos.get_mut(objective).expect("registered above")
}

/// The tenant's SLO, registered at `threshold` on first use.
fn slo_of(tenants: &mut BTreeMap<u64, Slo>, tenant: u64, threshold: f64) -> &mut Slo {
    tenants.entry(tenant).or_insert(Slo {
        threshold,
        report: SlaReport::default(),
    })
}

/// Per-tenant SLO bank: registers objectives lazily and accumulates
/// violation records deterministically (storage and
/// [`burn_rates`](SloBank::burn_rates) are ordered, so iteration and
/// exposition order never depend on insertion order).
pub struct SloBank {
    /// Target good fraction in `[0, 1)`, shared by all objectives.
    target: f64,
    /// Objective → tenant → SLO. Nested rather than keyed by
    /// `(u64, String)` so a check probes by `&str` and then by `u64`,
    /// allocating only the first time an objective name or a pair is
    /// seen; the objective is the outer key because there are a
    /// handful of objectives and thousands of tenants (one map node per
    /// tenant would be mostly empty slots).
    slos: Mutex<Slos>,
}

impl SloBank {
    /// A bank with the given target good fraction (clamped into
    /// `[0, 1 − 1e-9]` so the error budget can never be zero).
    pub(crate) fn new(target: f64) -> Self {
        SloBank {
            target: target.clamp(0.0, 1.0 - 1e-9),
            slos: Mutex::new(BTreeMap::new()),
        }
    }

    /// Checks `value` against the tenant's upper-bound objective,
    /// creating it at `threshold` on first use. Returns `true` when
    /// the objective is met. The threshold is fixed at registration;
    /// later calls ignore the argument (SLAs renegotiate explicitly,
    /// not implicitly per measurement).
    pub fn check_upper(&self, tenant: u64, objective: &str, threshold: f64, value: f64) -> bool {
        let mut slos = self.lock();
        let slo = slo_of(tenants_of(&mut slos, objective), tenant, threshold);
        let ok = value <= slo.threshold;
        slo.report.record(ok);
        ok
    }

    /// Books checks whose verdicts the caller took, in order, under one
    /// lock — what a batch of [`check_upper`](SloBank::check_upper)
    /// calls books when each pair's registered threshold is the one
    /// its verdict was taken against. A run of verdicts for one
    /// objective looks the objective up once.
    pub fn record(&self, verdicts: &[SloVerdict]) {
        if verdicts.is_empty() {
            return;
        }
        let mut slos = self.lock();
        for run in verdicts.chunk_by(|a, b| a.objective == b.objective) {
            let tenants = tenants_of(&mut slos, run[0].objective);
            for verdict in run {
                slo_of(tenants, verdict.tenant, verdict.threshold)
                    .report
                    .record(verdict.ok);
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Slos> {
        match self.slos.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Burn-rate rows for every registered `(tenant, objective)`,
    /// in `(tenant, objective)` order.
    pub fn burn_rates(&self) -> Vec<BurnRow> {
        let slos = self.lock();
        let mut rows: Vec<BurnRow> = slos
            .iter()
            .flat_map(|(objective, tenants)| {
                tenants.iter().map(|(tenant, slo)| BurnRow {
                    tenant: *tenant,
                    objective: objective.clone(),
                    report: slo.report,
                    burn: slo.report.burn_rate(self.target),
                })
            })
            .collect();
        // objectives were visited in name order and the sort is stable
        rows.sort_by_key(|row| row.tenant);
        rows
    }

    /// Number of registered `(tenant, objective)` pairs.
    pub(crate) fn len(&self) -> usize {
        self.lock().values().map(BTreeMap::len).sum()
    }
}

impl std::fmt::Debug for SloBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloBank")
            .field("target", &self.target)
            .field("objectives", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_of_one_consumes_budget_at_pace() {
        let bank = SloBank::new(0.99); // 1% budget
        for i in 0..100 {
            // exactly 1 violation in 100 checks
            let value = if i == 7 { 2.0 } else { 0.5 };
            bank.check_upper(1, "latency", 1.0, value);
        }
        let rows = bank.burn_rates();
        assert_eq!(rows.len(), 1);
        assert!((rows[0].burn - 1.0).abs() < 1e-12);
        assert_eq!(rows[0].report.violations, 1);
    }

    #[test]
    fn heavy_violations_burn_fast() {
        let bank = SloBank::new(0.999);
        for _ in 0..10 {
            bank.check_upper(2, "latency", 1.0, 5.0); // all violate
        }
        let burn = bank.burn_rates()[0].burn;
        assert!(
            (burn - 1000.0).abs() < 1e-9,
            "100% violations / 0.1% budget"
        );
    }

    #[test]
    fn rows_are_ordered_by_tenant_then_objective() {
        let bank = SloBank::new(0.99);
        bank.check_upper(9, "zz", 1.0, 0.5);
        bank.check_upper(1, "power", 1.0, 0.5);
        bank.check_upper(1, "latency", 1.0, 0.5);
        let rows = bank.burn_rates();
        let keys: Vec<(u64, &str)> = rows
            .iter()
            .map(|row| (row.tenant, row.objective.as_str()))
            .collect();
        assert_eq!(keys, vec![(1, "latency"), (1, "power"), (9, "zz")]);
        assert_eq!(bank.len(), 3, "pairs, not tenants");
        // a second check of a registered pair registers nothing
        bank.check_upper(1, "power", 99.0, 5.0);
        assert_eq!(bank.len(), 3);
        assert_eq!(
            bank.burn_rates()[1].report.violations,
            1,
            "threshold stays 1.0"
        );
    }

    #[test]
    fn recorded_verdicts_book_what_checks_would() {
        let checked = SloBank::new(0.99);
        let recorded = SloBank::new(0.99);
        let checks = [
            (3, "latency", 0.5, 0.25),
            (1, "energy", 10.0, 12.0),
            (3, "latency", 0.5, 0.75),
            (1, "latency", 0.5, 0.5),
        ];
        let mut verdicts = Vec::new();
        for (tenant, objective, threshold, value) in checks {
            let ok = checked.check_upper(tenant, objective, threshold, value);
            assert_eq!(ok, value <= threshold);
            verdicts.push(SloVerdict {
                tenant,
                objective,
                threshold,
                ok,
            });
        }
        recorded.record(&verdicts);
        recorded.record(&[]);
        assert_eq!(recorded.burn_rates(), checked.burn_rates());
        assert_eq!(recorded.len(), 3);
    }

    #[test]
    fn clean_tenant_has_zero_burn() {
        let bank = SloBank::new(0.999);
        bank.check_upper(4, "latency", 1.0, 0.2);
        assert_eq!(bank.burn_rates()[0].burn, 0.0);
    }
}
