//! E1 — cross-layer causal tracing + energy-per-request attribution.
//!
//! The ANTAREX monitoring loop needs to answer "where did this joule
//! go?" per *request*, not per node: admission decides whether work
//! enters, the tuning service picks the design point, the pool places
//! the probe, the VM meters its flops, and the RTRM splits the power
//! budget — all for the same request. This experiment replays a mixed
//! navigation + drug-discovery campaign (the paper's two use cases)
//! through the full service with tracing and attribution on, and
//! proves the three properties that make the pipeline trustworthy:
//!
//! * **Conservation.** Σ per-request attributed energy + idle remainder
//!   ≡ the facility meter, exact to the last nanojoule, every window
//!   ([`antarex_obs::EnergyLedger::conservation_holds`]).
//! * **Invariance.** The whole observable surface — per-batch reports,
//!   the invariant metric exposition, the energy ledger, the Chrome
//!   trace export — is byte-identical at 1/2/4/8 *physical* workers,
//!   because every recorded quantity is virtual work content.
//! * **Bounded cost.** Deriving a [`TraceCtx`] is gated ≤ 25 ns by
//!   `BENCH_energy_obs.json`, so the untraced hot path stays hot.

use crate::docking_exp::{pinned_campaign, DOCKING_BASE};
use crate::{fixed, head, hex, list, ns_per_op, BenchFile, Digest};
use antarex_obs::{nj_to_j, TraceCtx};
use antarex_serve::docking::TenantMux;
use antarex_serve::driver::Cohort;
use antarex_serve::store::TenantClass;
use std::hint::black_box;

/// Campaign sizing.
#[derive(Debug, Clone)]
pub(crate) struct EnergyScale {
    /// Navigation tenants (ids `0..nav_tenants`).
    pub nav_tenants: usize,
    /// Docking tenants (ids `DOCKING_BASE..`).
    pub docking_tenants: usize,
    /// Distinct workload archetypes shared among nav tenants.
    pub archetypes: usize,
    /// Virtual campaign duration, seconds.
    pub duration_s: f64,
    /// Mean request rate per tenant, Hz.
    pub rate_per_tenant_hz: f64,
    /// Requests served per batch.
    pub batch: usize,
    /// Master seed.
    pub seed: u64,
}

impl EnergyScale {
    /// The experiment-report scale: fast under `cargo test`.
    pub(crate) fn tiny() -> Self {
        EnergyScale {
            nav_tenants: 6,
            docking_tenants: 2,
            archetypes: 3,
            duration_s: 40.0,
            rate_per_tenant_hz: 0.5,
            batch: 16,
            seed: 2016,
        }
    }

    /// The gated-bench scale: ≥ 10⁵ requests through the full stack.
    pub(crate) fn full() -> Self {
        EnergyScale {
            nav_tenants: 192,
            docking_tenants: 64,
            archetypes: 6,
            duration_s: 800.0,
            rate_per_tenant_hz: 0.5,
            batch: 64,
            seed: 2016,
        }
    }

    /// Expected request count (Poisson mean).
    pub(crate) fn expected_requests(&self) -> f64 {
        (self.nav_tenants + self.docking_tenants) as f64 * self.duration_s * self.rate_per_tenant_hz
    }
}

/// Everything one campaign run exposes, plus the invariance digest.
#[derive(Debug, Clone)]
pub(crate) struct CampaignRun {
    /// Requests submitted.
    pub requests: usize,
    /// Requests answered `Ok`.
    pub served: usize,
    /// Facility meter total, joules.
    pub facility_j: f64,
    /// Σ per-request attributed energy, joules.
    pub attributed_j: f64,
    /// Unattributed remainder, joules.
    pub idle_j: f64,
    /// Exact integer conservation verdict from the ledger.
    pub conserved: bool,
    /// Energy-SLO overruns observed (not acted on) by admission.
    pub slo_overruns: u64,
    /// Trace events retained in the bounded store.
    pub trace_retained: usize,
    /// Trace events dropped past capacity.
    pub trace_dropped: u64,
    /// Per-class energy-per-request `(label, p50, p95, p99)` rows.
    pub class_quantiles: Vec<(&'static str, f64, f64, f64)>,
    /// Ledger text dump (totals + per-tenant tallies).
    pub ledger_report: String,
    /// Chrome `trace_event` JSON of the retained events.
    pub chrome_json: String,
    /// Text waterfall of the first retained trace.
    pub waterfall: String,
    /// FNV-1a over reports + exposition + ledger + Chrome export.
    pub digest: u64,
}

/// Runs the mixed campaign at one *physical* worker count. Virtual
/// capacity is pinned by the front door (as in `d1`), so everything
/// observable may depend only on the workload.
pub(crate) fn run_campaign(scale: &EnergyScale, physical: usize) -> CampaignRun {
    // the explicit Nav class lets the per-class energy histograms
    // separate the use cases; docking arrivals come from a second
    // Poisson stream on the same clock
    let nav = Cohort {
        class: TenantClass::Nav,
        ..Cohort::new(
            scale.nav_tenants,
            scale.archetypes,
            scale.rate_per_tenant_hz,
        )
    };
    let docking = Cohort {
        first: DOCKING_BASE,
        count: scale.docking_tenants,
        class: TenantClass::Docking,
        stream: 1,
        ..nav
    };
    let campaign = pinned_campaign(
        scale.seed,
        scale.duration_s,
        vec![nav, docking],
        scale.batch,
        physical,
    );
    let service = campaign.build(TenantMux::city_and_screening(scale.seed));
    let requests = campaign.arrivals();

    let mut digest = Digest::new();
    let mut served = 0usize;
    campaign.drive(&service, &requests, |_, report| {
        served += report.responses.iter().filter(|r| r.is_ok()).count();
        digest.bytes(format!("{report:?}").as_bytes());
    });

    let obs = service.obs();
    let plane = obs.plane();
    let (facility_nj, attributed_nj, idle_nj) = plane.energy.totals_nj();
    let ledger_report = plane.energy.report();
    let chrome_json = plane.trace.chrome_trace_json();
    let waterfall = plane
        .trace
        .events()
        .first()
        .map(|event| plane.trace.waterfall(event.trace))
        .unwrap_or_else(|| "no traces retained\n".to_string());
    let class_quantiles = TenantClass::all()
        .iter()
        .map(|&class| {
            let snap = obs.class_energy_snapshot(class);
            let q = |i: usize| snap.quantiles[i].unwrap_or(0.0);
            (class.label(), q(0), q(1), q(2))
        })
        .collect();

    digest.bytes(obs.invariant_exposition().as_bytes());
    digest.bytes(ledger_report.as_bytes());
    digest.bytes(chrome_json.as_bytes());
    digest.bytes(service.state_report().as_bytes());

    CampaignRun {
        requests: requests.len(),
        served,
        facility_j: nj_to_j(facility_nj),
        attributed_j: nj_to_j(attributed_nj),
        idle_j: nj_to_j(idle_nj),
        conserved: plane.energy.conservation_holds(),
        slo_overruns: obs.energy_slo_overruns(),
        trace_retained: plane.trace.len(),
        trace_dropped: plane.trace.dropped(),
        class_quantiles,
        ledger_report,
        chrome_json,
        waterfall,
        digest: digest.0,
    }
}

/// Runs the campaign at each physical worker count; `true` when every
/// digest matches the first.
pub(crate) fn campaign_invariance(
    scale: &EnergyScale,
    counts: &[usize],
) -> (Vec<CampaignRun>, bool) {
    let runs: Vec<CampaignRun> = counts
        .iter()
        .map(|&physical| run_campaign(scale, physical))
        .collect();
    let identical = runs.windows(2).all(|pair| pair[0].digest == pair[1].digest);
    (runs, identical)
}

/// The registered `e1` experiment: the tiny-scale campaign across the
/// worker grid, deterministic text.
pub(crate) fn e1_energy_observability() -> String {
    let scale = EnergyScale::tiny();
    let counts = [1usize, 2, 4, 8];
    let (runs, identical) = campaign_invariance(&scale, &counts);
    let reference = &runs[0];

    let mut out = String::new();
    out.push_str(&format!(
        "energy observability campaign (seed {}, {} nav + {} docking tenants, {:.0} s, ~{:.0} requests expected)\n",
        scale.seed,
        scale.nav_tenants,
        scale.docking_tenants,
        scale.duration_s,
        scale.expected_requests(),
    ));
    out.push_str(&format!(
        "requests {}  served {}  energy-slo overruns {}\n",
        reference.requests, reference.served, reference.slo_overruns
    ));
    out.push_str(&format!(
        "energy: facility {:.6} J = attributed {:.6} J + idle {:.6} J -> conservation {}\n",
        reference.facility_j,
        reference.attributed_j,
        reference.idle_j,
        if reference.conserved {
            "exact"
        } else {
            "VIOLATED"
        },
    ));
    out.push_str("\nenergy per request by tenant class (J):\n");
    out.push_str("class     p50         p95         p99\n");
    for (label, p50, p95, p99) in &reference.class_quantiles {
        out.push_str(&format!(
            "{label:<8}  {p50:<10.6}  {p95:<10.6}  {p99:<10.6}\n"
        ));
    }
    out.push_str(&format!(
        "\ntrace store: {} events retained, {} dropped\n",
        reference.trace_retained, reference.trace_dropped
    ));
    out.push_str("energy ledger (head):\n");
    out.push_str(&head(&reference.ledger_report, 8));
    out.push_str("first trace waterfall:\n");
    out.push_str(&head(&reference.waterfall, 10));
    out.push_str(&format!(
        "chrome trace_event export: {} bytes (head):\n",
        reference.chrome_json.len()
    ));
    out.push_str(
        &head(&reference.chrome_json, 1)
            .chars()
            .take(240)
            .collect::<String>(),
    );
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str(&format!(
        "\nworker invariance ({counts:?} physical): digests {:?} -> {}\n",
        runs.iter()
            .map(|run| format!("{:016x}", run.digest))
            .collect::<Vec<_>>(),
        if identical { "identical" } else { "DIVERGED" },
    ));
    out.push_str(&format!(
        "verdict: conservation to the last nanojoule ({}), physical workers invisible ({}), traces bounded ({})\n",
        if runs.iter().all(|run| run.conserved) { "yes" } else { "NO" },
        if identical { "yes" } else { "NO" },
        if reference.trace_retained > 0 { "yes" } else { "NO" },
    ));
    out
}

/// Wall-clock budget of one [`TraceCtx::derive`]: the cost tracing adds
/// to every request, sampled or not.
const TRACE_CTX_BUDGET_NS: f64 = 25.0;

/// `BENCH_energy_obs.json`: the full campaign's energy totals and
/// digests, and the attribution gates; the derive cost the budget gate
/// judged is printed, not written. The sampled path's record cost is
/// `e2e`'s `obs.trace.record_ns` row.
pub(crate) fn e1_bench() -> BenchFile {
    // wall-clock: the per-request cost tracing adds even when nothing
    // is sampled
    let mut seq = 0u32;
    let derive_ns = ns_per_op(20_000_000, || {
        seq = seq.wrapping_add(1);
        black_box(TraceCtx::derive(
            black_box(7),
            black_box(0x9e37_79b9),
            black_box(11),
            seq,
            black_box(8),
        ));
    });

    let counts = [1usize, 2, 4, 8];
    let (runs, worker_invariant) = campaign_invariance(&EnergyScale::full(), &counts);
    let reference = &runs[0];
    let requests = reference.requests;
    let conserved = runs.iter().filter(|run| run.conserved).count();

    BenchFile {
        title: "antarex-obs: causal tracing + energy attribution",
        fields: map! {
            "trace_budget_ns": fixed(TRACE_CTX_BUDGET_NS, 1),
            "campaign_requests": requests,
            "campaign_served": reference.served,
            "facility_joules": fixed(reference.facility_j, 6),
            "attributed_joules": fixed(reference.attributed_j, 6),
            "idle_joules": fixed(reference.idle_j, 6),
            "worker_digests": list(runs.iter().map(|run| hex(run.digest))),
            "trace_events_retained": reference.trace_retained,
            "trace_events_dropped": reference.trace_dropped,
        },
        gates: gates! {
            "trace_ctx_within_budget": derive_ns <= TRACE_CTX_BUDGET_NS, "derive <= {TRACE_CTX_BUDGET_NS:.1} ns";
            "requests_at_scale": requests >= 100_000, "{requests} requests >= 100000";
            "conservation_exact": conserved == runs.len(),
                "{conserved} of {} worker counts conserve exactly", runs.len();
            "worker_invariant": worker_invariant,
                "campaign digests identical at {counts:?}: {worker_invariant}";
        },
        host_clock: vec![("trace_ctx_derive_ns", derive_ns)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_conserves_energy_exactly() {
        let run = run_campaign(&EnergyScale::tiny(), 2);
        assert!(run.conserved, "ledger:\n{}", run.ledger_report);
        assert!(run.served > 0);
        assert!(run.facility_j > 0.0);
        assert!(run.attributed_j > 0.0, "served work must be attributed");
    }

    #[test]
    fn campaign_is_physical_worker_invariant() {
        let (runs, identical) = campaign_invariance(&EnergyScale::tiny(), &[1, 2, 4]);
        let digests: Vec<String> = runs.iter().map(|r| format!("{:016x}", r.digest)).collect();
        assert!(identical, "digests diverged: {digests:?}");
    }

    #[test]
    fn e1_report_is_deterministic() {
        assert_eq!(e1_energy_observability(), e1_energy_observability());
    }

    #[test]
    fn e1_report_renders_with_green_verdicts() {
        let report = e1_energy_observability();
        assert!(report.contains("conservation exact"), "report:\n{report}");
        assert!(report.contains("identical"), "report:\n{report}");
        assert!(!report.contains("NO"), "report:\n{report}");
        assert!(!report.contains("DIVERGED"), "report:\n{report}");
        assert!(!report.contains("VIOLATED"), "report:\n{report}");
    }
}
