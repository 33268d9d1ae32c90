//! Per-request energy attribution with an exact conservation invariant.
//!
//! The attribution model follows the cross-layer measurement chain of
//! the ANTAREX design: the VM meters dynamic energy per probe
//! (`ExecStats::flop_energy` rolled up into each evaluation's
//! `energy_j`), the serving layer knows which tenant request spent it,
//! and the cluster power model contributes the node static and cooling
//! overhead that no single request "caused". Per virtual window
//! (one serve batch):
//!
//! ```text
//! facility = Σ direct(evaluations + cache lookups)      # IT dynamic
//!          + static(node_static_w × busy seconds)       # IT static
//!          + cooling(overhead_fraction × IT energy)     # facility
//! request_i = direct_i + overhead_share_i
//! Σ_i request_i + idle_residual ≡ facility              # to the bit
//! ```
//!
//! The invariant is *exact*, not approximate, because all bookkeeping
//! happens in integer nanojoules: each physical quantity is rounded to
//! `u64` nanojoules exactly once at the meter boundary
//! ([`to_nj`]), overhead is split by a largest-remainder division
//! ([`largest_remainder_split`]) that distributes every unit, and
//! totals accumulate in `u128`. Floating-point summation could never
//! promise this — its Σ is order-dependent — so conservation checks
//! would rot into epsilon comparisons.
//!
//! The [`EnergyLedger`] retains bounded per-window summaries plus
//! exact running totals and per-tenant tallies, and is the source the
//! conservation gates of `BENCH_energy_obs.json` and the property tests
//! replay against.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Nanojoules per joule.
pub(crate) const NJ_PER_J: f64 = 1e9;

/// Rounds a joule quantity to integer nanojoules — the single rounding
/// step at the meter boundary. Negative and non-finite inputs clamp to
/// zero so corrupted readings cannot poison the conservation sums.
#[inline]
pub fn to_nj(joules: f64) -> u64 {
    if joules.is_finite() && joules > 0.0 {
        (joules * NJ_PER_J).round() as u64
    } else {
        0
    }
}

/// Integer nanojoules back to joules (display only — never fed back
/// into the conservation arithmetic).
#[inline]
pub fn nj_to_j(nj: u128) -> f64 {
    nj as f64 / NJ_PER_J
}

/// Node-level energy model parameters supplied by the serving layer.
///
/// `cooling_overhead` is the facility burden per unit of IT energy —
/// the load-independent `overhead_fraction` of the cluster cooling
/// model at the ambient the campaign runs at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Node static (uncore/idle) power charged over busy seconds, W.
    pub node_static_w: f64,
    /// Facility cooling overhead as a fraction of IT energy.
    pub cooling_overhead: f64,
    /// Power drawn by a knowledge-cache lookup, W.
    pub cache_lookup_w: f64,
}

impl Default for EnergyModel {
    /// A small always-on node share, a 10% cooling burden, and a 1 W
    /// cache path. Campaigns derive real values from the cluster
    /// cooling model instead (see `serve::obs::european_energy_model`).
    fn default() -> Self {
        EnergyModel {
            node_static_w: 2.0,
            cooling_overhead: 0.10,
            cache_lookup_w: 1.0,
        }
    }
}

/// Splits `total` into `weights.len()` integer shares proportional to
/// `weights`, distributing every unit: the shares always sum to
/// `total` exactly. The shares are written to `shares`, one per weight
/// in weight order; `remainders` is the ranking's working memory. Both
/// are cleared first, so a caller that keeps them from one split to the
/// next allocates only when a split outgrows every earlier one.
///
/// Quotients are floored and the leftover units go to the largest
/// fractional remainders (ties to the lowest index), the classic
/// largest-remainder apportionment. All-zero weights fall back to an
/// equal split. An empty slice leaves no shares — the caller keeps
/// `total` as an explicit residual.
pub fn largest_remainder_split(
    total: u64,
    weights: &[u64],
    shares: &mut Vec<u64>,
    remainders: &mut Vec<(u128, usize)>,
) {
    shares.clear();
    remainders.clear();
    let n = weights.len();
    if n == 0 {
        return;
    }
    let weight_sum: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    if weight_sum == 0 {
        let base = total / n as u64;
        let extra = (total % n as u64) as usize;
        shares.extend((0..n).map(|i| base + u64::from(i < extra)));
        return;
    }
    let mut assigned: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let product = u128::from(total) * u128::from(w);
        let quotient = (product / weight_sum) as u64;
        shares.push(quotient);
        assigned += quotient;
        remainders.push((product % weight_sum, i));
    }
    let leftover = total - assigned;
    if leftover > 0 {
        // Largest remainder first; ties broken by lowest index for
        // determinism. Indices are distinct, so the order is total and
        // an unstable sort (which needs no buffer) is exact.
        remainders.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, i) in remainders.iter().take(leftover as usize) {
            shares[i] += 1;
        }
    }
    debug_assert_eq!(shares.iter().sum::<u64>(), total);
}

/// Exact energy bookkeeping for one virtual window (one serve batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowSummary {
    /// Window ordinal (the batch counter).
    pub index: u64,
    /// Requests that received an attributed share.
    pub requests: u64,
    /// Direct IT dynamic energy metered this window, nJ.
    pub direct_nj: u64,
    /// Static + cooling overhead this window, nJ.
    pub overhead_nj: u64,
    /// The facility meter: direct + overhead, nJ.
    pub facility_nj: u64,
    /// Σ per-request attributed energy, nJ.
    pub attributed_nj: u64,
    /// Residual energy no served request caused (failed evaluations,
    /// overhead of an all-shed window), nJ.
    pub idle_nj: u64,
}

impl WindowSummary {
    /// The conservation invariant for this window, checked in integer
    /// arithmetic: attributed + idle ≡ facility.
    pub(crate) fn conserved(&self) -> bool {
        u128::from(self.attributed_nj) + u128::from(self.idle_nj) == u128::from(self.facility_nj)
    }
}

struct LedgerInner {
    windows: Vec<WindowSummary>,
    windows_dropped: u64,
    facility_nj: u128,
    attributed_nj: u128,
    idle_nj: u128,
    per_tenant_nj: BTreeMap<u64, u128>,
}

/// Running energy-attribution ledger: bounded window summaries plus
/// exact `u128` totals that never saturate over a campaign.
pub struct EnergyLedger {
    inner: Mutex<LedgerInner>,
    capacity: usize,
}

impl EnergyLedger {
    /// A ledger retaining the first `capacity` window summaries
    /// (min 1); totals keep accumulating exactly after that.
    pub fn new(capacity: usize) -> Self {
        EnergyLedger {
            inner: Mutex::new(LedgerInner {
                windows: Vec::new(),
                windows_dropped: 0,
                facility_nj: 0,
                attributed_nj: 0,
                idle_nj: 0,
                per_tenant_nj: BTreeMap::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Books one window and its per-tenant attributed shares.
    pub fn record_window(&self, summary: WindowSummary, per_tenant_nj: &[(u64, u64)]) {
        let mut inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.facility_nj += u128::from(summary.facility_nj);
        inner.attributed_nj += u128::from(summary.attributed_nj);
        inner.idle_nj += u128::from(summary.idle_nj);
        for &(tenant, nj) in per_tenant_nj {
            *inner.per_tenant_nj.entry(tenant).or_insert(0) += u128::from(nj);
        }
        if inner.windows.len() < self.capacity {
            inner.windows.push(summary);
        } else {
            inner.windows_dropped += 1;
        }
    }

    /// Retained window summaries (record order).
    pub(crate) fn windows(&self) -> Vec<WindowSummary> {
        match self.inner.lock() {
            Ok(guard) => guard.windows.clone(),
            Err(poisoned) => poisoned.into_inner().windows.clone(),
        }
    }

    /// Windows whose summary was not retained (totals still counted).
    pub(crate) fn windows_dropped(&self) -> u64 {
        match self.inner.lock() {
            Ok(guard) => guard.windows_dropped,
            Err(poisoned) => poisoned.into_inner().windows_dropped,
        }
    }

    /// Exact running totals `(facility, attributed, idle)` in nJ.
    pub fn totals_nj(&self) -> (u128, u128, u128) {
        let inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        (inner.facility_nj, inner.attributed_nj, inner.idle_nj)
    }

    /// Exact per-tenant attributed totals in nJ, sorted by tenant.
    pub fn per_tenant_nj(&self) -> Vec<(u64, u128)> {
        let inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner
            .per_tenant_nj
            .iter()
            .map(|(&t, &nj)| (t, nj))
            .collect()
    }

    /// The global conservation invariant: Σ attributed + Σ idle ≡
    /// Σ facility meter, *and* every retained window conserves
    /// individually. Exact integer comparison — to the last bit.
    pub fn conservation_holds(&self) -> bool {
        let inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.attributed_nj + inner.idle_nj == inner.facility_nj
            && inner.windows.iter().all(WindowSummary::conserved)
    }

    /// Deterministic text dump of the ledger (totals + per-tenant
    /// tallies), used in experiment reports and invariance digests.
    pub fn report(&self) -> String {
        let (facility, attributed, idle) = self.totals_nj();
        let mut out = format!(
            "energy facility={facility}nJ attributed={attributed}nJ idle={idle}nJ conserved={} windows_retained={} windows_dropped={}\n",
            self.conservation_holds(),
            self.windows().len(),
            self.windows_dropped(),
        );
        for (tenant, nj) in self.per_tenant_nj() {
            out.push_str(&format!("energy_tenant{{tenant=\"{tenant}\"}} {nj}nJ\n"));
        }
        out
    }
}

impl std::fmt::Debug for EnergyLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (facility, attributed, idle) = self.totals_nj();
        f.debug_struct("EnergyLedger")
            .field("facility_nj", &facility)
            .field("attributed_nj", &attributed)
            .field("idle_nj", &idle)
            .field("windows", &self.windows().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_nj_rounds_once_and_clamps_garbage() {
        assert_eq!(to_nj(1.0), 1_000_000_000);
        assert_eq!(to_nj(1.5e-9), 2, "round-half-up at the nJ boundary");
        assert_eq!(to_nj(-3.0), 0);
        assert_eq!(to_nj(f64::NAN), 0);
        assert_eq!(to_nj(f64::INFINITY), 0);
        assert!((nj_to_j(2_500_000_000) - 2.5).abs() < 1e-12);
    }

    /// One split on fresh buffers.
    fn split(total: u64, weights: &[u64]) -> Vec<u64> {
        let mut shares = Vec::new();
        largest_remainder_split(total, weights, &mut shares, &mut Vec::new());
        shares
    }

    #[test]
    fn split_is_exact_and_proportional() {
        let shares = split(100, &[1, 1, 2]);
        assert_eq!(shares.iter().sum::<u64>(), 100);
        assert_eq!(shares, vec![25, 25, 50]);
    }

    #[test]
    fn split_distributes_every_leftover_unit() {
        let shares = split(10, &[3, 3, 3]);
        assert_eq!(shares.iter().sum::<u64>(), 10);
        assert_eq!(shares, vec![4, 3, 3], "tie broken to lowest index");
    }

    #[test]
    fn split_handles_zero_weights_and_empty() {
        assert_eq!(split(7, &[0, 0, 0]), vec![3, 2, 2]);
        assert!(split(7, &[]).is_empty());
        assert_eq!(split(0, &[5, 9]), vec![0, 0]);
    }

    #[test]
    fn split_on_kept_dirty_buffers_equals_a_fresh_split() {
        let cases: [(u64, &[u64]); 7] = [
            (100, &[1, 1, 2]),
            (10, &[3, 3, 3]),
            (7, &[0, 0, 0]),
            (7, &[]),
            (0, &[5, 9]),
            (
                1_000_003,
                &[
                    7, 0, 13, 13, 2, 40, 1, 1, 9, 30, 11, 5, 5, 5, 8, 3, 2, 1, 6, 4, 19, 23,
                ],
            ),
            (u64::MAX, &[u64::MAX, 1, 2]),
        ];
        // one pair of buffers for every case, in both orders, so each
        // split starts on what a longer or shorter one left behind
        let mut shares = vec![99; 40];
        let mut remainders = vec![(u128::MAX, usize::MAX); 40];
        for &(total, weights) in cases.iter().chain(cases.iter().rev()) {
            largest_remainder_split(total, weights, &mut shares, &mut remainders);
            assert_eq!(shares, split(total, weights), "{total} over {weights:?}");
        }
    }

    #[test]
    fn window_conservation_is_exact() {
        let good = WindowSummary {
            facility_nj: 100,
            attributed_nj: 93,
            idle_nj: 7,
            ..WindowSummary::default()
        };
        assert!(good.conserved());
        let off_by_one = WindowSummary { idle_nj: 6, ..good };
        assert!(!off_by_one.conserved(), "one lost nanojoule fails the gate");
    }

    #[test]
    fn ledger_accumulates_exact_totals_and_tenants() {
        let ledger = EnergyLedger::new(2);
        for i in 0..4u64 {
            ledger.record_window(
                WindowSummary {
                    index: i,
                    requests: 2,
                    direct_nj: 80,
                    overhead_nj: 20,
                    facility_nj: 100,
                    attributed_nj: 90,
                    idle_nj: 10,
                },
                &[(1, 60), (2, 30)],
            );
        }
        assert_eq!(ledger.totals_nj(), (400, 360, 40));
        assert_eq!(ledger.per_tenant_nj(), vec![(1, 240), (2, 120)]);
        assert_eq!(ledger.windows().len(), 2);
        assert_eq!(ledger.windows_dropped(), 2);
        assert!(ledger.conservation_holds());
        assert!(ledger.report().contains("conserved=true"));
    }

    #[test]
    fn ledger_flags_broken_conservation() {
        let ledger = EnergyLedger::new(4);
        ledger.record_window(
            WindowSummary {
                facility_nj: 100,
                attributed_nj: 99,
                idle_nj: 0,
                ..WindowSummary::default()
            },
            &[],
        );
        assert!(!ledger.conservation_holds());
    }
}
