//! Experiment AD1: SLO-driven admission control and autoscaling.
//!
//! Drives the serving tier through a bursty multi-tenant overload and
//! measures what the SLO front door (admission tiers + virtual-capacity
//! autoscaler) buys:
//!
//! 1. **Overload protection** — a large population of well-behaved
//!    tenants shares the pool with a pack of aggressive tenants whose
//!    bursty (Markov-modulated Poisson) demand always fails probe
//!    integrity, so every request they land burns real pool time and
//!    quarantines instead of caching. The same workload is served three
//!    ways: well-behaved-only (the uncontended reference), mixed with
//!    the door open (hardened resilience, no front door), and mixed
//!    behind the front door. The headline claim: the controlled stack
//!    keeps ≥ 95% of the uncontended well-behaved goodput and holds its
//!    p99 while the open door collapses both.
//! 2. **Virtual-capacity invariance** — the autoscaler resizes the
//!    pool's *virtual* worker count only; the controlled campaign's
//!    final state and per-class outcomes are byte-identical at 1, 2, 4,
//!    and 8 physical worker threads.
//! 3. **Crash and recovery** — the controlled, journaled service is
//!    killed mid-campaign; recovery (snapshot + journal-suffix replay,
//!    including `AdmissionUpdate` and `Scale` entries) continues the
//!    remaining windows and the final state report is compared byte for
//!    byte against an uninterrupted run.
//!
//! Everything is virtual-time and seeded, so the whole report is
//! reproducible byte for byte — CI compares it with its committed golden.

use crate::{crash_recovery_map, fixed, list, BenchFile, Map};
use antarex_serve::chaos::ChaosConfig;
use antarex_serve::driver::{Batching, BurstProfile, Campaign, Cohort, CrashDrill};
use antarex_serve::nav::NavEvaluator;
use antarex_serve::service::ResilienceConfig;
use antarex_serve::store::TenantId;
use antarex_serve::{FrontDoorConfig, ServeError, TuningRequest};
use antarex_sim::faults::{FaultConfig, FaultSchedule};
use std::fmt::Write as _;

/// Size of one AD1 campaign.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdmissionScale {
    /// Well-behaved tenant sessions (ids `0..wb_tenants`).
    pub wb_tenants: usize,
    /// Aggressive tenant sessions (ids `wb_tenants..`), each with its
    /// own workload archetype so their poisoned probes never touch the
    /// well-behaved cache entries.
    pub aggressive_tenants: usize,
    /// Distinct archetypes shared among the well-behaved tenants.
    pub archetypes: usize,
    /// Every Nth well-behaved tenant is *fresh*: it carries unique
    /// workload features, so its first request is always a probe. This
    /// keeps a steady trickle of legitimate pool demand flowing for the
    /// whole campaign — the demand an overloaded queue visibly sheds —
    /// instead of the cache absorbing the entire well-behaved class
    /// after warmup. `0` disables the slice.
    pub fresh_every: usize,
    /// Virtual duration of the campaign, seconds.
    pub duration_s: f64,
    /// Mean request rate per well-behaved tenant, Hz.
    pub wb_rate_hz: f64,
    /// Calm-phase request rate per aggressive tenant, Hz (bursts run
    /// [`BurstProfile::aggressive`] times hotter).
    pub aggressive_rate_hz: f64,
    /// Physical pool workers.
    pub workers: usize,
    /// Evaluation-queue capacity (probes per batch before overflow).
    pub queue_capacity: usize,
}

impl AdmissionScale {
    /// The full campaign printed by the `ad1` experiment: ten thousand
    /// well-behaved tenants — most sharing archetypes (cache-friendly),
    /// a fresh slice carrying steady probe demand — against four
    /// hundred bursty aggressors.
    pub(crate) fn full() -> Self {
        AdmissionScale {
            wb_tenants: 10_000,
            aggressive_tenants: 400,
            archetypes: 100,
            fresh_every: 5,
            duration_s: 120.0,
            wb_rate_hz: 0.005,
            aggressive_rate_hz: 0.1,
            workers: 4,
            queue_capacity: 96,
        }
    }

    /// Batch window of the campaign, seconds.
    pub(crate) fn window_s(&self) -> f64 {
        5.0
    }

    /// First aggressive tenant id.
    fn aggressive_base(&self) -> TenantId {
        self.wb_tenants as TenantId
    }

    /// The campaign at `workers` physical pool workers, with or without
    /// the front door.
    ///
    /// Well-behaved tenants share archetypes (cache-friendly), except
    /// the fresh slice, which carries per-tenant features and therefore
    /// steady probe demand; aggressive tenants get per-tenant features
    /// past both ranges so their quarantines never evict anyone else's
    /// cached points. The chaos plane has no infrastructure faults (the
    /// overload is the adversary) but poisons every aggressive tenant's
    /// probes, so each of their requests burns pool time and
    /// quarantines; its node count is fixed — independent of the
    /// physical worker count — so the virtual-capacity invariance proof
    /// compares like with like.
    fn campaign(&self, seed: u64, workers: usize, front_door: Option<FrontDoorConfig>) -> Campaign {
        let schedule = FaultSchedule::generate(&FaultConfig::none(seed), 8, self.duration_s + 60.0);
        let base = self.aggressive_base();
        let chaos = (0..self.aggressive_tenants as TenantId)
            .fold(ChaosConfig::new(schedule), |chaos, t| {
                chaos.poison(base + t)
            });
        let mut campaign = Campaign {
            cohorts: vec![
                Cohort {
                    fresh_every: self.fresh_every,
                    ..Cohort::new(self.wb_tenants, self.archetypes, self.wb_rate_hz)
                },
                Cohort {
                    first: base,
                    fresh_every: 1,
                    burst: Some(BurstProfile::aggressive()),
                    ..Cohort::new(
                        self.aggressive_tenants,
                        self.archetypes,
                        self.aggressive_rate_hz,
                    )
                },
            ],
            resilience: ResilienceConfig::hardened(),
            chaos: Some(chaos),
            front_door,
            ..Campaign::new(seed, self.duration_s, Batching::Window(self.window_s()))
        };
        campaign.service.pool.queue_capacity = self.queue_capacity;
        campaign.workers(workers)
    }
}

/// The merged campaign workload: well-behaved Poisson arrivals plus the
/// aggressive tenants' bursty stream (ids offset past the well-behaved
/// population), sorted by (time, tenant).
pub(crate) fn mixed_arrivals(seed: u64, scale: &AdmissionScale) -> Vec<TuningRequest> {
    scale.campaign(seed, scale.workers, None).arrivals()
}

/// The campaign's probe evaluator: the city network with a planner
/// calibration eight times faster than the navigation default, putting
/// one probe at ~0.15 virtual seconds — the regime where the 0.5 s
/// latency SLO is meetable whenever capacity matches demand, so SLO
/// burn separates abusers from well-served tenants instead of flagging
/// every fresh probe.
fn campaign_evaluator(seed: u64) -> NavEvaluator {
    let mut evaluator = NavEvaluator::city(seed);
    evaluator.expansions_per_s *= 8.0;
    evaluator
}

/// Per-class outcome of one campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ClassStats {
    /// Requests the class generated.
    pub requests: usize,
    /// Requests answered with a configuration.
    pub served: usize,
    /// Requests shed: queue overflow or front-door rejection.
    pub shed: usize,
    /// Requests failed: worker faults, deadlines, open circuits.
    pub failed: usize,
    /// Requests rejected for contract reasons (infeasible SLA, ...).
    pub rejected: usize,
    /// 99th-percentile virtual service latency of served requests.
    pub p99_latency_s: f64,
}

impl ClassStats {
    /// Fraction of the class's requests answered with a configuration.
    pub(crate) fn goodput(&self) -> f64 {
        if self.requests > 0 {
            self.served as f64 / self.requests as f64
        } else {
            0.0
        }
    }
}

/// Outcome of one campaign run under one front-door profile.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RunOutcome {
    /// Profile label (`uncontended`, `open_door`, `controlled`).
    pub profile: &'static str,
    /// The well-behaved population's outcome.
    pub wb: ClassStats,
    /// The aggressive population's outcome.
    pub aggressive: ClassStats,
    /// Degraded (cache-only) answers the front door produced.
    pub degraded: u64,
    /// Requests hard-shed by the front door.
    pub admission_shed: u64,
    /// Admission tier transitions over the run.
    pub transitions: u64,
    /// Largest virtual capacity the autoscaler reached.
    pub peak_capacity: usize,
    /// Batch windows served.
    pub windows: usize,
}

fn p99(latencies: &mut [f64]) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_by(f64::total_cmp);
    let index = ((latencies.len() as f64 * 0.99).ceil() as usize).clamp(1, latencies.len()) - 1;
    latencies[index]
}

/// Serves one campaign workload under one profile, classifying every
/// outcome as well-behaved or aggressive.
pub(crate) fn overload_run(
    seed: u64,
    scale: &AdmissionScale,
    profile: &'static str,
    front_door: Option<FrontDoorConfig>,
    include_aggressive: bool,
) -> RunOutcome {
    let campaign = scale.campaign(seed, scale.workers, front_door);
    let mut events = campaign.arrivals();
    if !include_aggressive {
        events.retain(|e| e.tenant < scale.aggressive_base());
    }
    let service = campaign.build(campaign_evaluator(seed));
    // [well-behaved, aggressive]: each class's tallies and latencies
    let mut classes = [0, 1].map(|_| (ClassStats::default(), Vec::new()));
    let mut degraded = 0u64;
    let mut admission_shed = 0u64;
    let mut peak_capacity = scale.workers;
    let mut windows = 0;
    campaign.drive(&service, &events, |window, report| {
        windows += 1;
        for (request, response) in window.iter().zip(&report.responses) {
            let aggressive = request.tenant >= scale.aggressive_base();
            let (class, latencies) = &mut classes[usize::from(aggressive)];
            class.requests += 1;
            match response {
                Ok(answer) => {
                    class.served += 1;
                    latencies.push(answer.latency_s);
                }
                Err(ServeError::Shed { .. }) | Err(ServeError::AdmissionRejected { .. }) => {
                    class.shed += 1;
                }
                Err(ServeError::WorkerFailed { .. })
                | Err(ServeError::Deadline)
                | Err(ServeError::CircuitOpen { .. }) => class.failed += 1,
                Err(_) => class.rejected += 1,
            }
        }
        degraded += report.degraded as u64;
        admission_shed += report.admission_shed as u64;
        peak_capacity = peak_capacity.max(report.capacity);
    });
    let [wb, aggressive] = classes.map(|(mut class, mut latencies)| {
        class.p99_latency_s = p99(&mut latencies);
        class
    });
    RunOutcome {
        profile,
        wb,
        aggressive,
        degraded,
        admission_shed,
        transitions: service.obs().admission_transitions(),
        peak_capacity,
        windows,
    }
}

/// The three-way overload comparison: well-behaved-only reference, the
/// mixed workload with the door open, the mixed workload behind the
/// front door.
pub(crate) fn overload_campaign(seed: u64, scale: &AdmissionScale) -> Vec<RunOutcome> {
    vec![
        overload_run(seed, scale, "uncontended", None, false),
        overload_run(seed, scale, "open_door", None, true),
        overload_run(
            seed,
            scale,
            "controlled",
            Some(FrontDoorConfig::hardened()),
            true,
        ),
    ]
}

/// Outcome of the virtual-capacity invariance proof.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct InvarianceOutcome {
    /// Physical worker counts compared.
    pub worker_counts: Vec<usize>,
    /// Whether every run produced byte-identical per-class outcomes.
    pub outcomes_identical: bool,
    /// Whether every run's final state report was byte-identical.
    pub state_identical: bool,
}

/// Runs the controlled campaign at several physical worker counts and
/// checks that outcomes and final state are byte-identical: the
/// autoscaler only ever resizes *virtual* capacity.
pub(crate) fn worker_invariance(seed: u64, scale: &AdmissionScale) -> InvarianceOutcome {
    let worker_counts = vec![1, 2, 4, 8];
    let events = mixed_arrivals(seed, scale);
    let mut outcomes: Vec<(String, String)> = Vec::new();
    for &workers in &worker_counts {
        let campaign = scale.campaign(seed, workers, Some(FrontDoorConfig::hardened()));
        let service = campaign.build(campaign_evaluator(seed));
        let mut digest = String::new();
        campaign.drive(&service, &events, |_, report| {
            let _ = write!(
                digest,
                "[cap={} deg={} shed={} resp={:?}]",
                report.capacity, report.degraded, report.admission_shed, report.responses,
            );
        });
        outcomes.push((digest, service.state_report()));
    }
    let (first_digest, first_state) = &outcomes[0];
    InvarianceOutcome {
        outcomes_identical: outcomes.iter().all(|(d, _)| d == first_digest),
        state_identical: outcomes.iter().all(|(_, s)| s == first_state),
        worker_counts,
    }
}

/// Kills the controlled service mid-campaign, recovers from snapshot +
/// journal suffix (replaying `AdmissionUpdate` and `Scale` entries),
/// finishes the workload, and compares against an uninterrupted run —
/// admission tiers, EWMA burns, and autoscaler state included.
pub(crate) fn crash_recovery_drill(seed: u64, scale: &AdmissionScale) -> CrashDrill<NavEvaluator> {
    let campaign = scale.campaign(seed, scale.workers, Some(FrontDoorConfig::hardened()));
    let events = campaign.arrivals();
    let crash_at = campaign.batching.batches(&events).count() / 2;
    campaign.crash_drill(&campaign_evaluator(seed), &events, crash_at)
}

/// Renders the full AD1 report for one seed and scale.
pub(crate) fn ad1_report(seed: u64, scale: &AdmissionScale) -> String {
    let mut out = String::new();
    let fd = FrontDoorConfig::hardened();
    let _ = writeln!(
        out,
        "admission campaign (seed {seed}, {} well-behaved + {} aggressive tenants, {} workers, {:.0} s virtual)",
        scale.wb_tenants, scale.aggressive_tenants, scale.workers, scale.duration_s
    );
    let _ = writeln!(
        out,
        "front door: target {:.2}, degrade {:.0}x/{:.0}x, shed {:.0}x/{:.0}x, dwell {:.0} s; autoscale {}..{} virtual workers",
        fd.admission.target,
        fd.admission.degrade_enter,
        fd.admission.degrade_exit,
        fd.admission.shed_enter,
        fd.admission.shed_exit,
        fd.admission.min_dwell_s,
        fd.autoscale.min_workers,
        fd.autoscale.max_workers,
    );

    let rows = overload_campaign(seed, scale);
    let _ = writeln!(
        out,
        "\n{:>11} {:>5} {:>9} {:>7} {:>7} {:>7} {:>9} {:>9}",
        "profile", "class", "requests", "served", "shed", "failed", "goodput", "p99"
    );
    for row in &rows {
        for (class, stats) in [("wb", &row.wb), ("aggr", &row.aggressive)] {
            if stats.requests == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:>11} {:>5} {:>9} {:>7} {:>7} {:>7} {:>8.1}% {:>7.3} s",
                row.profile,
                class,
                stats.requests,
                stats.served,
                stats.shed,
                stats.failed,
                100.0 * stats.goodput(),
                stats.p99_latency_s,
            );
        }
    }
    let uncontended = &rows[0];
    let open_door = &rows[1];
    let controlled = &rows[2];
    let wb_reference = uncontended.wb.goodput();
    let _ = writeln!(
        out,
        "controlled keeps {:.1}% of uncontended well-behaved goodput; the open door keeps {:.1}%",
        100.0 * controlled.wb.goodput() / wb_reference,
        100.0 * open_door.wb.goodput() / wb_reference,
    );
    let _ = writeln!(
        out,
        "well-behaved p99: uncontended {:.3} s, open door {:.3} s, controlled {:.3} s (SLO 0.5 s)",
        uncontended.wb.p99_latency_s, open_door.wb.p99_latency_s, controlled.wb.p99_latency_s,
    );
    let _ = writeln!(
        out,
        "front door: {} degraded answers, {} hard sheds, {} tier transitions, peak virtual capacity {} (physical {})",
        controlled.degraded,
        controlled.admission_shed,
        controlled.transitions,
        controlled.peak_capacity,
        scale.workers,
    );

    let invariance = worker_invariance(seed, scale);
    let _ = writeln!(
        out,
        "\nvirtual-capacity invariance across {:?} physical workers: outcomes {}, state {}",
        invariance.worker_counts,
        if invariance.outcomes_identical {
            "IDENTICAL"
        } else {
            "DIVERGED"
        },
        if invariance.state_identical {
            "IDENTICAL"
        } else {
            "DIVERGED"
        },
    );

    out.push_str(&crate::crash_drill_line(
        &crash_recovery_drill(seed, scale),
        "front-door state",
    ));
    out
}

/// The registered `ad1` experiment.
pub(crate) fn ad1_admission_control() -> String {
    ad1_report(42, &AdmissionScale::full())
}

/// `BENCH_admission.json`: the full campaign's per-class outcomes, the
/// invariance and recovery verdicts, and the front door's gates.
pub(crate) fn ad1_bench() -> BenchFile {
    let seed = 42;
    let scale = AdmissionScale::full();
    let rows = overload_campaign(seed, &scale);
    let invariance = worker_invariance(seed, &scale);
    let recovery = crash_recovery_drill(seed, &scale);

    let (uncontended, open_door, controlled) = (&rows[0], &rows[1], &rows[2]);
    let reference = uncontended.wb.goodput();
    let controlled_rel = controlled.wb.goodput() / reference;
    let open_rel = open_door.wb.goodput() / reference;
    let (controlled_p99, open_p99) = (controlled.wb.p99_latency_s, open_door.wb.p99_latency_s);
    let class = |stats: &ClassStats| {
        map! {
            "requests": stats.requests,
            "served": stats.served,
            "shed": stats.shed,
            "failed": stats.failed,
            "goodput": fixed(stats.goodput(), 4),
            "p99_latency_s": fixed(stats.p99_latency_s, 4),
        }
    };
    let outcome = |row: &RunOutcome| {
        map! {
            "wb": class(&row.wb),
            "aggressive": class(&row.aggressive),
            "degraded": row.degraded,
            "admission_shed": row.admission_shed,
            "tier_transitions": row.transitions,
            "peak_virtual_capacity": row.peak_capacity,
        }
    };
    let (identical_outcomes, identical_state) =
        (invariance.outcomes_identical, invariance.state_identical);

    BenchFile {
        title: "antarex-serve: SLO front door under bursty overload",
        fields: map! {
            "workload": map! {
                "well_behaved_tenants": scale.wb_tenants,
                "aggressive_tenants": scale.aggressive_tenants,
                "workers": scale.workers,
                "queue_capacity": scale.queue_capacity,
                "virtual_duration_s": fixed(scale.duration_s, 0),
            },
            "overload_campaign": rows.iter().map(|row| (row.profile, outcome(row))).collect::<Map>(),
            "worker_invariance": map! {
                "worker_counts": list(invariance.worker_counts),
                "outcomes_identical": identical_outcomes,
                "state_identical": identical_state,
            },
            "crash_recovery": crash_recovery_map(&recovery),
        },
        gates: gates! {
            "controlled_keeps_wb_goodput": controlled_rel >= 0.95, "{controlled_rel:.4} >= 0.95";
            "open_door_collapses": open_rel <= 0.90, "{open_rel:.4} <= 0.90";
            "controlled_holds_p99": controlled_p99 < open_p99, "{controlled_p99:.3} s < {open_p99:.3} s";
            "autoscaler_grew_capacity": controlled.peak_capacity > scale.workers,
                "{} > {}", controlled.peak_capacity, scale.workers;
            "aggressive_tenants_shed": controlled.admission_shed > 0,
                "{} > 0", controlled.admission_shed;
            "physical_worker_invariance": identical_outcomes && identical_state,
                "outcomes {identical_outcomes} / state {identical_state}";
            "crash_recovery_bit_identical": recovery.bit_identical, "{}", recovery.bit_identical;
        },
        host_clock: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A campaign small enough for `cargo test`.
    const TINY: AdmissionScale = AdmissionScale {
        wb_tenants: 64,
        aggressive_tenants: 16,
        archetypes: 16,
        fresh_every: 4,
        duration_s: 30.0,
        wb_rate_hz: 0.05,
        aggressive_rate_hz: 0.2,
        workers: 2,
        queue_capacity: 24,
    };

    #[test]
    fn report_is_deterministic() {
        let a = ad1_report(3, &TINY);
        let b = ad1_report(3, &TINY);
        assert_eq!(a, b, "same seed must reproduce the report byte for byte");
    }

    /// The digest was captured from the parent commit's build (a0dfafe),
    /// where this stream was a hand merge of two generators.
    #[test]
    fn mixed_stream_matches_the_parent_commit() {
        let mut digest = crate::Digest::new();
        for request in mixed_arrivals(7, &TINY) {
            digest.u64(request.tenant);
            digest.f64(request.arrival_s);
        }
        assert_eq!(digest.0, 0xee6b_44b5_3dba_2f40);
    }

    #[test]
    fn front_door_protects_well_behaved_goodput() {
        let rows = overload_campaign(42, &AdmissionScale::full());
        let reference = rows[0].wb.goodput();
        assert!(
            reference > 0.9,
            "uncontended must mostly serve: {reference}"
        );
        let open = rows[1].wb.goodput() / reference;
        let controlled = rows[2].wb.goodput() / reference;
        assert!(
            open <= 0.90,
            "the overload must cost the open door >= 10% of well-behaved goodput: {open}"
        );
        assert!(
            controlled >= 0.95,
            "the front door must keep >= 95% of well-behaved goodput: {controlled}"
        );
        assert!(
            rows[2].wb.p99_latency_s < rows[1].wb.p99_latency_s,
            "the front door must hold p99: controlled {} vs open {}",
            rows[2].wb.p99_latency_s,
            rows[1].wb.p99_latency_s
        );
        assert!(
            rows[2].admission_shed > 0,
            "aggressive tenants must get hard-shed"
        );
        assert!(
            rows[2].peak_capacity > AdmissionScale::full().workers,
            "the autoscaler must have grown virtual capacity"
        );
    }

    #[test]
    fn controlled_outcomes_are_physical_worker_invariant() {
        let outcome = worker_invariance(7, &TINY);
        assert!(
            outcome.outcomes_identical,
            "responses must not depend on threads"
        );
        assert!(outcome.state_identical, "state must not depend on threads");
    }

    #[test]
    fn crash_recovery_is_bit_identical() {
        let outcome = crash_recovery_drill(7, &TINY);
        assert!(outcome.batches_before_crash > 0);
        assert!(!outcome.reports.is_empty());
        assert!(outcome.bit_identical, "recovery must replay exactly");
    }
}
