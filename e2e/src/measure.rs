//! The measuring loops: one pass of a workload with the clock running
//! only around the calls into the system.
//!
//! Closed loop, one client: the generator submits a batch, blocks in
//! `serve_batch`, submits the next, so a request's latency is its
//! batch's wall duration. Digesting responses, tallying outcomes and
//! building the next pass all happen outside the timed spans.

use crate::alloc;
use crate::stats::Digest;
use crate::timed::ProbeTap;
use crate::workload::{Campaign, ServeSpec};
use antarex_bench::cluster_exp::{
    run_profile, storm_config, ClusterProfile, ClusterScale, ProfileOutcome,
};
use antarex_obs::Scope;
use antarex_serve::{BatchReport, Evaluator, ServeError, TuningRequest, TuningService};
use antarex_sim::faults::FaultSchedule;
use antarex_sim::node::{Node, NodeSpec};
use antarex_sim::variability::ProcessVariation;
use antarex_tuner::KnobValue;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// What one pass measured and what its outputs were.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time from the start of the build to the first timed call.
    pub setup_s: f64,
    /// Wall duration of every timed call, in call order.
    pub call_s: Vec<f64>,
    /// Heap allocations inside the timed calls.
    pub allocs: u64,
    /// Ops the pass drove to a terminal state.
    pub ops: u64,
    /// Ops answered (`Ok` responses, completed jobs).
    pub ok: u64,
    /// Ops that reached no terminal state at all.
    pub lost: u64,
    /// FNV-1a over the functional outcome.
    pub digest: u64,
    /// Output checks that failed, empty when the pass is correct.
    pub failures: Vec<String>,
}

impl Pass {
    /// Σ of the timed spans, seconds.
    pub fn timed_s(&self) -> f64 {
        self.call_s.iter().sum()
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Times one call: wall duration and allocations go to `pass`.
fn timed<R>(pass: &mut Pass, call: impl FnOnce() -> R) -> R {
    let before = alloc::snapshot();
    let start = Instant::now();
    let result = call();
    let elapsed = start.elapsed();
    pass.allocs += alloc::snapshot().since(before).allocs;
    pass.call_s.push(elapsed.as_secs_f64());
    result
}

// ---------------------------------------------------------------------------
// serve workloads
// ---------------------------------------------------------------------------

/// Terminal states of a batch's requests, by the service's own classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests submitted.
    pub submitted: u64,
    /// Answered with a configuration.
    pub served: u64,
    /// Queue overflow or front-door rejection.
    pub shed: u64,
    /// Worker faults, deadlines, open circuits.
    pub failed: u64,
    /// Tenant contract errors.
    pub rejected: u64,
    /// Degraded (cache-only) answers, from `BatchReport`.
    pub degraded: u64,
    /// Front-door hard sheds, from `BatchReport`.
    pub admission_shed: u64,
    /// Pool queue overflows, from `BatchReport`.
    pub pool_shed: u64,
    /// Probes evaluated, from `BatchReport`.
    pub evaluated: u64,
    /// Retried probe attempts, from `BatchReport`.
    pub retries: u64,
    /// Hedge duplicates, from `BatchReport`.
    pub hedges: u64,
    /// Quarantined design points, from `BatchReport`.
    pub quarantined: u64,
}

/// Folds one batch's functional outcome — responses and `BatchReport`
/// counters, not the trace or exposition exports — into the digest and
/// the tally.
///
/// Virtual latencies and makespans follow the pool's virtual capacity.
/// A front door pins that capacity, so they are worker-invariant and
/// are folded; without one the capacity *is* the physical worker count
/// and they are left out, so the digest can be compared across counts.
fn fold_batch(
    requests: &[TuningRequest],
    report: &BatchReport,
    capacity_pinned: bool,
    tally: &mut Tally,
    digest: &mut Digest,
) {
    tally.submitted += requests.len() as u64;
    for response in &report.responses {
        match response {
            Ok(answer) => {
                tally.served += 1;
                digest.u64(answer.tenant);
                digest.f64(answer.arrival_s);
                for (knob, value) in answer.config.iter() {
                    digest.bytes(knob.as_bytes());
                    match value {
                        KnobValue::Int(v) => digest.u64(*v as u64),
                        KnobValue::Float(v) => digest.f64(*v),
                        KnobValue::Choice(v) => digest.bytes(v.as_bytes()),
                    }
                }
                for (metric, value) in &answer.metrics {
                    digest.bytes(metric.as_bytes());
                    digest.f64(*value);
                }
                if capacity_pinned {
                    digest.f64(answer.latency_s);
                }
                digest.u64(u64::from(answer.cache_hit));
                digest.f64(answer.energy_j);
            }
            Err(error) => {
                match error {
                    ServeError::Shed { .. } | ServeError::AdmissionRejected { .. } => {
                        tally.shed += 1
                    }
                    ServeError::WorkerFailed { .. }
                    | ServeError::Deadline
                    | ServeError::CircuitOpen { .. } => tally.failed += 1,
                    _ => tally.rejected += 1,
                }
                digest.bytes(format!("{error:?}").as_bytes());
            }
        }
    }
    if capacity_pinned {
        digest.f64(report.makespan_s);
        digest.u64(report.capacity as u64);
    }
    for count in [
        report.evaluated,
        report.shed,
        report.degraded,
        report.admission_shed,
    ] {
        digest.u64(count as u64);
    }
    for count in [report.retries, report.hedges, report.quarantined] {
        digest.u64(count);
    }
    tally.degraded += report.degraded as u64;
    tally.admission_shed += report.admission_shed as u64;
    tally.pool_shed += report.shed as u64;
    tally.evaluated += report.evaluated as u64;
    tally.retries += report.retries;
    tally.hedges += report.hedges;
    tally.quarantined += report.quarantined;
}

/// A served campaign: the pass, its tally and the service it ran on.
pub struct Served<E> {
    /// Timings, counts and checks.
    pub pass: Pass,
    /// Terminal states by class.
    pub tally: Tally,
    /// The campaign, its service holding the end-of-pass state.
    pub campaign: Campaign<E>,
}

/// Reads one of the service's own invariant counters.
fn service_counter<E: Evaluator>(service: &TuningService<E>, name: &str) -> u64 {
    service
        .obs()
        .plane()
        .registry
        .counter(name, Scope::Invariant)
        .get()
}

/// Builds a fresh campaign and serves every batch, timing each
/// `serve_batch` call. On a traced pass (`tap` present) each call is
/// also one root span. `after_batch` runs outside the timed span.
pub fn serve_pass<S: ServeSpec>(
    spec: &S,
    seed: u64,
    workers: usize,
    tap: Option<Arc<ProbeTap>>,
    mut after_batch: impl FnMut(&Campaign<S::Eval>, usize, &BatchReport),
) -> Served<S::Eval> {
    let mut pass = Pass::default();
    let built = Instant::now();
    let campaign = spec.build(seed, workers, tap.clone());
    pass.setup_s = built.elapsed().as_secs_f64();

    let mut tally = Tally::default();
    let mut digest = Digest::default();
    for index in 0..campaign.batches.len() {
        let requests = campaign.batch(index);
        let span = tap
            .as_ref()
            .map(|tap| tap.sink.open("serve_batch", index as u64));
        let report = timed(&mut pass, || {
            campaign.service.serve_batch(black_box(requests))
        });
        if let (Some(tap), Some(span)) = (&tap, span) {
            tap.sink.close(span);
        }
        pass.check(report.responses.len() == requests.len(), || {
            format!(
                "batch {index}: {} responses for {} requests",
                report.responses.len(),
                requests.len()
            )
        });
        fold_batch(
            requests,
            &report,
            campaign.front_door.is_some(),
            &mut tally,
            &mut digest,
        );
        after_batch(&campaign, index, &report);
    }

    // request conservation: every request in exactly one terminal
    // state, and the same counts on the service's own registry
    let service = &campaign.service;
    let terminal = tally.served + tally.shed + tally.failed + tally.rejected;
    pass.ops = tally.submitted;
    pass.ok = tally.served;
    pass.lost = tally.submitted.abs_diff(terminal);
    pass.digest = digest.0;
    for (name, counted) in [
        ("serve_requests_total", tally.submitted),
        ("serve_served_total", tally.served),
        ("serve_shed_total", tally.shed),
        ("serve_failed_total", tally.failed),
        ("serve_rejected_total", tally.rejected),
    ] {
        let own = service_counter(service, name);
        pass.check(own == counted, || {
            format!("{name}: service counted {own}, responses say {counted}")
        });
    }
    pass.check(service.obs().plane().energy.conservation_holds(), || {
        "energy ledger: attributed + idle != facility meter".to_string()
    });
    Served {
        pass,
        tally,
        campaign,
    }
}

// ---------------------------------------------------------------------------
// rtrm_cluster_storm
// ---------------------------------------------------------------------------

/// The fault storm `run_profile` generates for `seed`.
pub fn storm_schedule(scale: &ClusterScale, seed: u64) -> FaultSchedule {
    FaultSchedule::generate(
        &storm_config(seed, scale.crash_rate),
        scale.nodes,
        scale.horizon_s,
    )
}

/// The nodes `run_profile` builds for `seed`, process variation applied.
pub fn node_population(scale: &ClusterScale, seed: u64) -> Vec<Node> {
    ProcessVariation::population(seed ^ 0xA5A5_0F0F, scale.nodes)
        .into_iter()
        .enumerate()
        .map(|(index, variation)| Node::with_variation(NodeSpec::cineca_xeon(), index, variation))
        .collect()
}

/// One pass of the cluster campaign: a single `run_profile` call. An op
/// is one node-step; answered ops are the node-steps' worth of jobs
/// that completed (completed ÷ submitted jobs, scaled to ops).
///
/// `run_profile` builds its cluster inside the call, so `setup_s` is
/// the same public constructors timed standalone: the fault schedule,
/// the process-variation population and the nodes.
pub fn cluster_pass(scale: &ClusterScale, seed: u64, workers: usize) -> (Pass, ProfileOutcome) {
    let mut pass = Pass::default();
    let built = Instant::now();
    let cluster = black_box((storm_schedule(scale, seed), node_population(scale, seed)));
    pass.setup_s = built.elapsed().as_secs_f64();
    drop(cluster);

    let outcome = timed(&mut pass, || {
        run_profile(
            black_box(seed),
            scale,
            ClusterProfile::FaultTolerant,
            workers,
        )
    });
    let steps = (scale.horizon_s / scale.dt_s).round() as u64;
    pass.ops = scale.nodes as u64 * steps;
    pass.ok = pass.ops * outcome.completed_jobs / scale.jobs as u64;
    pass.digest = outcome.digest;
    pass.check(outcome.peak_overshoot_frac == 0.0, || {
        format!(
            "facility cap overshot by {:.4} of the cap",
            outcome.peak_overshoot_frac
        )
    });
    pass.check(outcome.completed_jobs > 0, || {
        "no job completed".to_string()
    });
    (pass, outcome)
}
