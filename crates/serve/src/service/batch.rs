//! The life of one request batch: [`TuningService::serve_batch`] and
//! the stages it runs, in order.
//!
//! Every stage is a plain function over the service and one borrowed
//! per-batch context ([`Batch`]); each decision is taken in exactly
//! one of them. A state mutation is the function replay calls for its
//! entry (see [`apply`]), followed by a lazy `journal_append`, so an
//! unjournaled service builds no entry.
//!
//! Record order is part of the output — spans get sequential ids and
//! the trace store keeps the first events it is offered — so the
//! stages run, and record, in one fixed order at any worker count.
//!
//! A batch's buffers are a [`BatchScratch`] the service keeps between
//! batches, so a warm batch allocates only the responses it returns
//! and what its probes and sessions create.

use super::{BatchReport, Evaluator, ProbeSegment, TuningRequest, TuningResponse, TuningService};
use crate::admission::AdmissionTier;
use crate::cache::{DesignKey, Metrics};
use crate::chaos::job_result;
use crate::error::{ErrorCounter, ServeError};
use crate::journal::{apply, refresh_snapshot, JournalEntry};
use crate::obs::{
    ADAPT_SPAN, ADAPT_SPAN_S, BATCH_SPAN, CACHE_PROBE_SPAN, CACHE_PROBE_SPAN_S, EVAL_SPAN,
    LEARN_SPAN, LEARN_SPAN_S, REQUEST_SPAN, SELECT_SPAN, SELECT_SPAN_S,
};
use crate::pool::{BatchOutcome, EvalJob};
use crate::store::{Selection, TenantClass, TenantId};
use antarex_obs::{
    largest_remainder_split, nj_to_j, to_nj, Layer, SloVerdict, SpanAt, SpanId, TraceCtx,
    TraceEvent, WindowSummary,
};
use antarex_sim::sched::list_place;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, PoisonError};

/// Virtual cost of answering from the cache, seconds.
const CACHE_LOOKUP_S: f64 = 1e-4;

/// The front door's verdict on one tenant, resolved once per request.
#[derive(Clone, Copy)]
struct Door {
    tier: AdmissionTier,
    /// Backpressure hint a rejection carries (zero while admitted).
    retry_after_ms: u64,
}

/// What a request waits for between admission and its answer.
enum Pending {
    Err(ServeError),
    Hit(Selection, Metrics),
    Job {
        config: Selection,
        job_id: usize,
        coalesced: bool,
    },
}

/// One request's identity row, aligned with the submitted batch.
#[derive(Clone, Copy)]
struct Meta {
    ctx: TraceCtx,
    class: TenantClass,
    /// The tenant sat in the degrade tier when admitted — the one
    /// contextual input of [`ServeError::row`].
    degraded: bool,
}

/// The working memory of one batch: every buffer a batch fills and
/// empties, kept on the service (`TuningService::batch_scratch`) from
/// one batch to the next.
///
/// A scratch carries capacity, never state: [`serve_batch`] takes one
/// from the free list (a concurrent caller takes its own), and
/// [`clear`](Self::clear)s it before giving it back, so no
/// `Selection`, `Metrics` or `DesignKey` outlives its batch. A warm
/// service's batch then allocates only the responses it returns, its
/// pool jobs, and what its probes and sessions create; a batch larger
/// than every earlier one grows the buffers once.
///
/// [`serve_batch`]: TuningService::serve_batch
#[derive(Default)]
pub(super) struct BatchScratch {
    /// One row per request; `pending` is consumed by the answer stage.
    meta: Vec<Meta>,
    pending: Vec<Pending>,
    /// The design key of each queued job, in job-id order: memoize and
    /// quarantine file the results under them.
    job_keys: Vec<DesignKey>,
    /// Coalescing index of this batch's queued design points. Only
    /// looked up, never iterated, so its order cannot reach an output.
    job_of_key: HashMap<DesignKey, usize>,
    /// The VM sub-segments of the sampled probes, `(job id, segments)`,
    /// sorted by job id once the pool is done.
    segments: Vec<(usize, Vec<ProbeSegment>)>,
    /// Per admitted job: virtual completion relative to batch start,
    /// or the typed error that ended it.
    fates: Vec<Result<f64, ServeError>>,
    /// The chaos replay's inputs: each admitted probe's cost, and
    /// whether its tenant is poisoned; and its cores' timeline.
    costs: Vec<f64>,
    poisoned: Vec<bool>,
    busy: Vec<f64>,
    /// One `(request index, direct nanojoules)` row per *served*
    /// response: probe energy for fresh evaluations, nominal lookup
    /// energy for cache answers.
    served: Vec<(usize, u64)>,
    /// The energy window's overhead split: the served rows' weights,
    /// their shares, and the split's remainder ranking.
    weights: Vec<u64>,
    shares: Vec<u64>,
    remainders: Vec<(u128, usize)>,
    /// One `(tenant, attributed nanojoules)` row per served response,
    /// merged per tenant in tenant order before the ledger books them.
    tenant_nj: Vec<(TenantId, u64)>,
    touched: Vec<TenantId>,
    /// The latency and energy SLO verdicts of this batch, in the order
    /// they were taken; booked in the SLO bank in one call.
    slo_verdicts: Vec<SloVerdict>,
    /// One `(tenant, checked, violations)` row per request while a
    /// front door is installed, merged per tenant at the batch end;
    /// every request's tenant gets a row so a quiet (fully shed) tenant
    /// still decays toward readmission.
    slo_tally: Vec<(TenantId, u64, u64)>,
}

impl BatchScratch {
    /// Empties every buffer and keeps its capacity. Destructured, so a
    /// buffer added to the scratch cannot be left out.
    fn clear(&mut self) {
        let BatchScratch {
            meta,
            pending,
            job_keys,
            job_of_key,
            segments,
            fates,
            costs,
            poisoned,
            busy,
            served,
            weights,
            shares,
            remainders,
            tenant_nj,
            touched,
            slo_verdicts,
            slo_tally,
        } = self;
        meta.clear();
        pending.clear();
        job_keys.clear();
        job_of_key.clear();
        segments.clear();
        fates.clear();
        costs.clear();
        poisoned.clear();
        busy.clear();
        served.clear();
        weights.clear();
        shares.clear();
        remainders.clear();
        tenant_nj.clear();
        touched.clear();
        slo_verdicts.clear();
        slo_tally.clear();
    }
}

/// Sorts `(tenant, nanojoules)` rows by tenant and merges each tenant's
/// rows into one that holds their sum, in place: the rows, in the order
/// and with the sums a `BTreeMap` keyed by tenant would yield.
fn merge_by_tenant(rows: &mut Vec<(TenantId, u64)>) {
    rows.sort_unstable_by_key(|&(tenant, _)| tenant);
    // `dedup_by` hands over the later row first, the kept row second
    rows.dedup_by(|row, kept| {
        let same = row.0 == kept.0;
        if same {
            kept.1 += row.1;
        }
        same
    });
}

/// The per-batch context the stages read and write.
#[derive(Default)]
struct Batch<'a> {
    requests: &'a [TuningRequest],
    ordinal: u64,
    /// Earliest arrival (zero for an empty batch).
    start_s: f64,
    /// Latest arrival (−∞ for an empty batch).
    end_s: f64,
    lookup_nj: u64,
    /// The pool consumes it, so each batch builds its own.
    jobs: Vec<EvalJob>,
    span: SpanId,
    cache_lookups: u64,
    scratch: BatchScratch,
    // the report's tallies
    makespan_s: f64,
    shed: usize,
    degraded: usize,
    admission_shed: usize,
    retries: u64,
    hedges: u64,
    quarantined: u64,
}

impl<E: Evaluator> TuningService<E> {
    /// Serves one batch of requests, in arrival order, through these
    /// stages: front door and breaker admit → select + key →
    /// cache-probe / coalesce (per request) → autoscale → evaluate →
    /// fault-schedule (chaos or pass-through) → sched/VM trace →
    /// memoize / quarantine → answer, learn or reject (per request) →
    /// energy window → adapt → admission feedback → Daly checkpoint.
    /// `DESIGN.md` §8 tabulates what each reads, mutates and journals.
    pub fn serve_batch(&self, requests: &[TuningRequest]) -> BatchReport {
        let mut batch = self.open(requests);
        for request in requests {
            let door = self.door(request.tenant);
            let (verdict, admitted) = self.admit(&mut batch, request, door);
            let selected = admitted.and_then(|()| self.select(request));
            self.probe(&mut batch, request, door, verdict, selected);
        }
        let capacity = self.autoscale(&batch);
        let outcome = self.evaluate(&mut batch, capacity);
        self.fault_schedule(&mut batch, &outcome, capacity);
        self.trace_probes(&mut batch, &outcome);
        self.memoize(&mut batch, &outcome);
        let mut responses = Vec::with_capacity(requests.len());
        let mut pending = std::mem::take(&mut batch.scratch.pending);
        for (index, pending) in pending.drain(..).enumerate() {
            responses.push(self.answer(&mut batch, index, pending, &outcome));
        }
        batch.scratch.pending = pending;
        self.close_energy_window(&mut batch, &outcome, &mut responses);
        self.adapt(&mut batch);
        self.admission_feedback(&mut batch);
        self.checkpoint(&batch);
        let report = BatchReport {
            responses,
            makespan_s: batch.makespan_s,
            evaluated: outcome.results.len(),
            shed: batch.shed,
            degraded: batch.degraded,
            admission_shed: batch.admission_shed,
            capacity,
            retries: batch.retries,
            hedges: batch.hedges,
            quarantined: batch.quarantined,
        };
        let mut scratch = batch.scratch;
        scratch.clear();
        self.batch_scratch.give_back(scratch);
        report
    }

    /// Opens a batch on a kept scratch, reserving one row per request
    /// in each per-request buffer.
    fn open<'a>(&self, requests: &'a [TuningRequest]) -> Batch<'a> {
        self.obs.requests.add(requests.len() as u64);
        let arrivals = || requests.iter().map(|r| r.arrival_s);
        let start_s = arrivals().fold(f64::INFINITY, f64::min);
        let n = requests.len();
        let mut scratch = self.batch_scratch.take();
        scratch.meta.reserve(n);
        scratch.pending.reserve(n);
        scratch.served.reserve(n);
        scratch.touched.reserve(n);
        scratch.slo_verdicts.reserve(2 * n);
        if self.front_door.is_some() {
            scratch.slo_tally.reserve(n);
        }
        Batch {
            requests,
            ordinal: self.batch_ordinal.fetch_add(1, Ordering::Relaxed),
            start_s: if start_s.is_finite() { start_s } else { 0.0 },
            end_s: arrivals().fold(f64::NEG_INFINITY, f64::max),
            lookup_nj: to_nj(self.energy.cache_lookup_w * CACHE_LOOKUP_S),
            scratch,
            ..Batch::default()
        }
    }

    /// The front door, consulted once per request.
    fn door(&self, tenant: TenantId) -> Door {
        let admitted = Door {
            tier: AdmissionTier::Admit,
            retry_after_ms: 0,
        };
        let Some(fd) = &self.front_door else {
            return admitted;
        };
        match fd.admission.tier(tenant) {
            AdmissionTier::Admit => admitted,
            tier => Door {
                tier,
                retry_after_ms: fd.admission.retry_after_ms(tenant),
            },
        }
    }

    /// Stage: front door, then breaker — exactly one fail-fast path
    /// per request. A shed-tier tenant is rejected before it costs a
    /// breaker check, a select, or pool capacity; a tenant whose
    /// circuit is open costs a breaker check, not pool capacity.
    /// Returns the verdict the admission trace event is named after.
    fn admit(
        &self,
        batch: &mut Batch,
        request: &TuningRequest,
        door: Door,
    ) -> (&'static str, Result<(), ServeError>) {
        let tenant = request.tenant;
        if door.tier == AdmissionTier::Shed {
            batch.admission_shed += 1;
            self.obs.admission_shed.inc();
            let rejected = ServeError::AdmissionRejected {
                tenant,
                retry_after_ms: door.retry_after_ms,
            };
            return (door.tier.label(), Err(rejected));
        }
        if self.breakers.enabled() {
            if !apply::breaker_allow(&self.breakers, tenant, request.arrival_s) {
                return ("circuit_open", Err(ServeError::CircuitOpen { tenant }));
            }
            self.journal_append(|| JournalEntry::BreakerAllow {
                tenant,
                time_s: request.arrival_s,
            });
        }
        (door.tier.label(), Ok(()))
    }

    /// Stage: select the tenant's operating point. The session hands
    /// out the selection it keeps — configuration, design key and probe
    /// seed — and derives a new one only when the manager switched or
    /// the features changed.
    fn select(&self, request: &TuningRequest) -> Result<(Selection, TenantClass), ServeError> {
        let tenant = request.tenant;
        let selected = apply::select(&self.store, tenant)?;
        // `select()` mutates the manager (deploy/switch): journal it
        // whenever it ran, even when it found the SLA infeasible
        self.obs.selects.inc();
        self.journal_append(|| JournalEntry::Select { tenant });
        selected.ok_or(ServeError::Infeasible(tenant))
    }

    /// Stage: derive the request's causal identity — from (tenant,
    /// probe seed, batch ordinal, position), no wall clock, so trace
    /// ids are byte-identical at any worker count — then answer from
    /// the cache, coalesce onto a probe this batch already queued, or
    /// queue one.
    fn probe(
        &self,
        batch: &mut Batch,
        request: &TuningRequest,
        door: Door,
        verdict: &'static str,
        selected: Result<(Selection, TenantClass), ServeError>,
    ) {
        let tenant = request.tenant;
        let seed = selected.as_ref().map_or(0, |(s, _)| s.seed());
        let seq = batch.scratch.meta.len() as u32;
        let ctx = self
            .obs
            .plane
            .trace
            .derive(tenant, seed, batch.ordinal, seq);
        let degraded = door.tier == AdmissionTier::Degrade;
        let (class, pending) = match selected {
            Err(e) => (TenantClass::Generic, Pending::Err(e)),
            Ok((s, class)) if degraded => {
                // degraded tier: cache-only service. A memoized design
                // point still answers (cheap, no pool), but the tenant
                // gets no fresh probe — cache-miss demand is rejected
                // and fed back as violation pressure so a probe-hungry
                // tenant escalates to shed while a coasting one
                // recovers
                batch.degraded += 1;
                self.obs.admission_degraded.inc();
                let pending = match self.cache.get(s.key()) {
                    Some(metrics) => Pending::Hit(s, metrics),
                    None => Pending::Err(ServeError::AdmissionRejected {
                        tenant,
                        retry_after_ms: door.retry_after_ms,
                    }),
                };
                (class, pending)
            }
            Ok((s, class)) => (class, self.hit_or_enqueue(batch, tenant, ctx, s, class)),
        };
        self.mark(ctx, Layer::Admission, verdict, request.arrival_s, 0.0);
        batch.scratch.pending.push(pending);
        batch.scratch.meta.push(Meta {
            ctx,
            class,
            degraded,
        });
    }

    /// Records a point event on a sampled request's causal trace.
    fn mark(&self, ctx: TraceCtx, layer: Layer, name: &'static str, at_s: f64, value: f64) {
        if ctx.sampled {
            self.obs.plane.trace.record(TraceEvent {
                trace: ctx.id,
                tenant: ctx.tenant,
                layer,
                name,
                start_s: at_s,
                end_s: at_s,
                value,
                span: SpanId::NONE,
            });
        }
    }

    /// An admitted request's design point: coalesced onto an earlier
    /// request's probe, answered from the cache, or queued as a new
    /// pool job — the only path that copies the tenant's features and
    /// the configuration.
    fn hit_or_enqueue(
        &self,
        batch: &mut Batch,
        tenant: TenantId,
        ctx: TraceCtx,
        config: Selection,
        class: TenantClass,
    ) -> Pending {
        if let Some(&job_id) = batch.scratch.job_of_key.get(config.key()) {
            return Pending::Job {
                config,
                job_id,
                coalesced: true,
            };
        }
        if let Some(metrics) = self.cache.get(config.key()) {
            return Pending::Hit(config, metrics);
        }
        let features = match self.store.read(tenant, |session| session.features.clone()) {
            Ok(features) => features,
            Err(e) => return Pending::Err(e),
        };
        let job_id = batch.jobs.len();
        // the job carries the first owner's trace: sched/VM events
        // link to it
        batch.jobs.push(EvalJob {
            id: job_id,
            tenant,
            class,
            config: (*config).clone(),
            features,
            trace: ctx,
        });
        batch
            .scratch
            .job_of_key
            .insert(config.key().clone(), job_id);
        batch.scratch.job_keys.push(config.key().clone());
        Pending::Job {
            config,
            job_id,
            coalesced: false,
        }
    }

    /// Stage: the autoscaling decision at the batch start. Queue depth
    /// is this window's deduplicated probe demand, burn is the worst
    /// EWMA among still-admitted tenants. The decision resizes
    /// *virtual* capacity only — physical parallelism stays at the
    /// pool's config — so outputs stay byte-identical at any thread
    /// count.
    fn autoscale(&self, batch: &Batch) -> usize {
        let Some(fd) = &self.front_door else {
            return self.pool.config().workers;
        };
        let capacity = fd.autoscaler.capacity();
        if batch.requests.is_empty() {
            return capacity;
        }
        let burn = fd.admission.max_admitted_burn();
        let Some(resized) = fd.autoscaler.decide(batch.start_s, batch.jobs.len(), burn) else {
            return capacity;
        };
        self.obs.scale_events.inc();
        self.obs.pool_capacity.set(resized as f64);
        self.journal_append(|| JournalEntry::Scale {
            time_s: batch.start_s,
            workers: resized,
        });
        resized
    }

    /// Stage: evaluate the deduplicated misses in parallel. The probes
    /// are pure and computed exactly once; sampled jobs additionally
    /// report VM sub-segments for the trace, sorted by job id afterwards
    /// so insertion order under physical parallelism cannot influence
    /// anything downstream.
    fn evaluate(&self, batch: &mut Batch, capacity: usize) -> BatchOutcome {
        let evaluator = &self.evaluator;
        let stash = Mutex::new(std::mem::take(&mut batch.scratch.segments));
        let outcome = self.pool.evaluate_batch_on(
            std::mem::take(&mut batch.jobs),
            capacity,
            &|job: &EvalJob| {
                if !job.trace.sampled {
                    return evaluator.evaluate(&job.config, &job.features);
                }
                let (evaluation, segments) =
                    evaluator.evaluate_segmented(&job.config, &job.features);
                if !segments.is_empty() {
                    crate::lock_or_recover(&stash).push((job.id, segments));
                }
                evaluation
            },
        );
        let mut segments = stash.into_inner().unwrap_or_else(PoisonError::into_inner);
        segments.sort_unstable_by_key(|&(job_id, _)| job_id);
        batch.scratch.segments = segments;
        outcome
    }

    /// Stage: what became of each admitted probe. Under an injected
    /// chaos config the probe costs are re-placed by the fault-aware
    /// list placement of [`antarex_sim::sched`] (only their virtual
    /// scheduling changes); otherwise the pool's own schedule passes
    /// through.
    fn fault_schedule(&self, batch: &mut Batch, outcome: &BatchOutcome, capacity: usize) {
        let results = &outcome.results;
        let scratch = &mut batch.scratch;
        if let Some(chaos) = &self.chaos {
            scratch
                .costs
                .extend(results.iter().map(|r| r.evaluation.cost_s));
            scratch.poisoned.extend(
                results
                    .iter()
                    .map(|r| chaos.poisoned_tenants.contains(&r.job.tenant)),
            );
            let start_s = batch.start_s;
            scratch.fates.reserve(results.len());
            batch.makespan_s = list_place(
                &scratch.costs,
                &scratch.poisoned,
                capacity,
                start_s,
                Some(&chaos.schedule),
                &self.resilience.hedge,
                &mut scratch.busy,
                |id, job| {
                    batch.retries += u64::from(job.retries);
                    batch.hedges += u64::from(job.hedges);
                    let fate = job_result(&job, &results[id].evaluation, start_s);
                    scratch.fates.push(fate);
                },
            );
        } else {
            scratch
                .fates
                .extend(results.iter().map(|r| Ok(r.completion_s)));
            batch.makespan_s = outcome.makespan_s;
        }
        self.obs.evaluated.add(results.len() as u64);
        self.obs.retries.add(batch.retries);
        self.obs.hedges.add(batch.hedges);
        self.obs.makespan.record(batch.makespan_s);
    }

    /// Stage: scheduler accounting, the batch and per-probe spans, and
    /// the sched/VM layers of the causal trace. Spans record *work
    /// content* on virtual time — a probe's compute cost, never queue
    /// placement — so the retained trace is byte-identical at any
    /// worker count.
    fn trace_probes(&self, batch: &mut Batch, outcome: &BatchOutcome) {
        let results = &outcome.results;
        // batch-level, so the per-request budget is untouched. Stolen
        // jobs attribute to their tenant class; per-class makespan is
        // the latest completion among that class's jobs in the pool's
        // (chaos-free) schedule.
        if !results.is_empty() {
            self.obs.sched_steals.add(outcome.stats.steals);
            self.obs.sched_steal_fails.add(outcome.stats.steal_fails);
            self.obs
                .sched_queue_depth
                .record(outcome.stats.max_queue_depth as f64);
            for &job_id in &outcome.stats.stolen_jobs {
                self.obs.class_steals[results[job_id].job.class.index()].inc();
            }
            let mut class_makespan = [f64::NEG_INFINITY; TenantClass::COUNT];
            for result in results {
                let slot = &mut class_makespan[result.job.class.index()];
                *slot = slot.max(result.completion_s);
            }
            for (index, &span) in class_makespan.iter().enumerate() {
                if span.is_finite() {
                    self.obs.class_makespan[index].record(span);
                }
            }
        }
        let start_s = batch.start_s;
        if !batch.requests.is_empty() {
            let total_cost_s: f64 = results.iter().map(|r| r.evaluation.cost_s).sum();
            let span = SpanAt {
                name: BATCH_SPAN.id(),
                start_s,
                end_s: batch.end_s.max(start_s) + total_cost_s,
            };
            batch.span = self.obs.plane.tracer.record_id(span, None, SpanId::NONE);
        }
        for result in results {
            let cost_s = result.evaluation.cost_s;
            let span = SpanAt {
                name: EVAL_SPAN.id(),
                start_s,
                end_s: start_s + cost_s,
            };
            let eval_span =
                self.obs
                    .plane
                    .tracer
                    .record_id(span, Some(result.job.tenant), batch.span);
            let ctx = result.job.trace;
            if !ctx.sampled {
                continue;
            }
            // sched layer: where the pool's virtual schedule placed the
            // probe (completion relative to batch start, chaos-free
            // view); value carries the probe's compute cost
            let event = TraceEvent {
                trace: ctx.id,
                tenant: ctx.tenant,
                layer: Layer::Sched,
                name: "place",
                start_s,
                end_s: start_s + result.completion_s,
                value: cost_s,
                span: eval_span,
            };
            self.obs.plane.trace.record(event);
            // VM layer: the probe's metered sub-segments laid out
            // sequentially on virtual time; value carries each
            // segment's metered joules
            let segments = &batch.scratch.segments;
            let found = segments.binary_search_by_key(&result.job.id, |&(job_id, _)| job_id);
            let mut seg_start_s = start_s;
            for segment in found.map_or(&[][..], |at| &segments[at].1) {
                self.obs.plane.trace.record(TraceEvent {
                    layer: Layer::Vm,
                    name: segment.name,
                    start_s: seg_start_s,
                    end_s: seg_start_s + segment.cost_s,
                    value: segment.energy_j,
                    ..event
                });
                seg_start_s += segment.cost_s;
            }
        }
    }

    /// Stage: verified results are memoized; failed design points are
    /// quarantined so coalesced waiters re-probe next time instead of
    /// being served a poisoned entry. Filed under the keys the batch
    /// kept for its jobs.
    fn memoize(&self, batch: &mut Batch, outcome: &BatchOutcome) {
        let scratch = &mut batch.scratch;
        scratch.job_of_key.clear();
        // results hold the admitted prefix of the jobs, in id order
        let keys = scratch.job_keys.drain(..);
        for ((result, fate), key) in outcome.results.iter().zip(&scratch.fates).zip(keys) {
            let metrics = &result.evaluation.metrics;
            if fate.is_ok() {
                self.journal_append(|| JournalEntry::CacheInsert {
                    key: key.clone(),
                    metrics: metrics.clone(),
                });
                self.cache.insert(key, metrics.clone());
            } else {
                self.cache.quarantine(&key);
                batch.quarantined += 1;
                self.journal_append(|| JournalEntry::Quarantine { key });
            }
        }
    }

    /// Stage: answer request `index` and feed the outcome back —
    /// `learn` for a served response, `reject` for an error — then
    /// tally the request for the front door.
    fn answer(
        &self,
        batch: &mut Batch,
        index: usize,
        pending: Pending,
        outcome: &BatchOutcome,
    ) -> Result<TuningResponse, ServeError> {
        let TuningRequest { tenant, arrival_s } = batch.requests[index];
        let served = |config, metrics, latency_s, cache_hit| TuningResponse {
            tenant,
            arrival_s,
            config,
            metrics,
            latency_s,
            cache_hit,
            energy_j: 0.0,
        };
        let lookup = (CACHE_LOOKUP_S, batch.lookup_nj);
        // `work_s` is the request's worker-invariant span width: the
        // probe's compute cost for a fresh evaluation, the nominal
        // lookup cost for cache answers, zero for errors
        let (response, (work_s, direct_nj)) = match pending {
            Pending::Err(e) => (Err(e), (0.0, 0)),
            Pending::Hit(config, metrics) => {
                (Ok(served(config, metrics, CACHE_LOOKUP_S, true)), lookup)
            }
            Pending::Job {
                config,
                job_id,
                coalesced,
            } => match batch.scratch.fates.get(job_id) {
                Some(Ok(completion_s)) => {
                    let evaluation = &outcome.results[job_id].evaluation;
                    let spent = if coalesced {
                        self.cache.note_coalesced_hit();
                        lookup
                    } else {
                        (evaluation.cost_s, to_nj(evaluation.energy_j))
                    };
                    let metrics = evaluation.metrics.clone();
                    (Ok(served(config, metrics, *completion_s, coalesced)), spent)
                }
                // coalesced waiters share their job's fate
                Some(Err(e)) => (Err(e.clone()), (0.0, 0)),
                // past the admitted prefix: the bounded queue overflowed
                None => {
                    batch.shed += 1;
                    let capacity = self.pool.config().queue_capacity;
                    (Err(ServeError::Shed { capacity }), (0.0, 0))
                }
            },
        };
        let request_span = SpanAt {
            name: REQUEST_SPAN.id(),
            start_s: arrival_s,
            end_s: arrival_s + work_s,
        };
        // (checked, violations) this request adds to its tenant's SLO
        // window
        let tally = match &response {
            Ok(answer) => {
                batch.scratch.served.push((index, direct_nj));
                let slo_met = self.learn(batch, answer, request_span);
                (1, u64::from(!slo_met))
            }
            Err(e) => {
                self.obs
                    .plane
                    .tracer
                    .record_id(request_span, Some(tenant), batch.span);
                let burns_slo = self.reject(batch, index, e);
                (u64::from(burns_slo), u64::from(burns_slo))
            }
        };
        if self.front_door.is_some() {
            batch.scratch.slo_tally.push((tenant, tally.0, tally.1));
        }
        response
    }

    /// A served response: counters, the latency SLO verdict, the
    /// request span with its three children, then online learning —
    /// the measurement flows into the tenant's session and monitors.
    /// Returns whether the latency SLO was met.
    fn learn(&self, batch: &mut Batch, answer: &TuningResponse, request_span: SpanAt) -> bool {
        let (tenant, arrival) = (answer.tenant, answer.arrival_s);
        self.obs.served.inc();
        if answer.cache_hit {
            self.obs.cache_hit_responses.inc();
            batch.cache_lookups += 1;
        }
        self.obs.learns.add(answer.metrics.len() as u64);
        self.obs.latency.record(answer.latency_s);
        let verdict = self.obs.latency_verdict(tenant, answer.latency_s);
        batch.scratch.slo_verdicts.push(verdict);
        let select_end_s = arrival + SELECT_SPAN_S;
        let learn_s = request_span.end_s;
        let children = [
            SpanAt {
                name: SELECT_SPAN.id(),
                start_s: arrival,
                end_s: select_end_s,
            },
            SpanAt {
                name: CACHE_PROBE_SPAN.id(),
                start_s: select_end_s,
                end_s: select_end_s + CACHE_PROBE_SPAN_S,
            },
            SpanAt {
                name: LEARN_SPAN.id(),
                start_s: learn_s,
                end_s: learn_s + LEARN_SPAN_S,
            },
        ];
        self.obs
            .plane
            .tracer
            .record_family(request_span, &children, Some(tenant), batch.span);
        let (config, metrics) = (&answer.config, &answer.metrics);
        apply::learn(
            &self.store,
            &self.breakers,
            tenant,
            arrival,
            config,
            metrics,
        );
        self.journal_append(|| JournalEntry::Learn {
            tenant,
            time_s: arrival,
            config: config.clone(),
            metrics: metrics.clone(),
        });
        batch.scratch.touched.push(tenant);
        verdict.ok
    }

    /// An errored request: what the error means is one row
    /// ([`ServeError::row`]); the counter, the breaker and the
    /// journaled flag all read it. Returns whether the error burns the
    /// tenant's SLO budget (only while a front door tallies it).
    fn reject(&self, batch: &Batch, index: usize, error: &ServeError) -> bool {
        let TuningRequest { tenant, arrival_s } = batch.requests[index];
        let row = error.row(batch.scratch.meta[index].degraded);
        match row.counter {
            ErrorCounter::Shed => self.obs.shed.inc(),
            ErrorCounter::Failed => self.obs.failed.inc(),
            ErrorCounter::Rejected => self.obs.rejected.inc(),
        }
        let breaker_feedback = row.feeds_breaker && self.breakers.enabled();
        if apply::reject(
            &self.store,
            &self.breakers,
            tenant,
            arrival_s,
            breaker_feedback,
        ) {
            self.journal_append(|| JournalEntry::Reject {
                tenant,
                time_s: arrival_s,
                breaker_feedback,
            });
        }
        row.burns_slo
    }

    /// Stage: close the batch's energy window. All bookkeeping is in
    /// integer nanojoules with exactly one rounding per meter reading,
    /// so Σ attributed + idle ≡ the facility meter to the last bit (the
    /// ledger re-checks the invariant per window).
    fn close_energy_window(
        &self,
        batch: &mut Batch,
        outcome: &BatchOutcome,
        responses: &mut [Result<TuningResponse, ServeError>],
    ) {
        if batch.requests.is_empty() {
            return;
        }
        let evaluations = || outcome.results.iter().map(|r| &r.evaluation);
        // direct metered energy: every probe the pool ran (served or
        // not) plus one nominal lookup per cache-hit answer
        let spent_eval_nj: u64 = evaluations().map(|e| to_nj(e.energy_j)).sum();
        let direct_nj = spent_eval_nj + batch.lookup_nj * batch.cache_lookups;
        // node static power burns over busy *work content* — never the
        // worker-dependent makespan — keeping the window byte-identical
        // at any physical or virtual worker count
        let busy_s: f64 = evaluations().map(|e| e.cost_s).sum::<f64>()
            + batch.cache_lookups as f64 * CACHE_LOOKUP_S;
        let static_nj = to_nj(self.energy.node_static_w * busy_s);
        let it_nj = direct_nj + static_nj;
        let cooling_nj = to_nj(self.energy.cooling_overhead * nj_to_j(it_nj as u128));
        let facility_nj = it_nj + cooling_nj;
        let overhead_nj = static_nj + cooling_nj;
        // overhead splits across served requests proportionally to
        // their direct demand (largest remainder, so shares sum
        // exactly); failed probes' direct energy stays unattributed
        let scratch = &mut batch.scratch;
        let served = &scratch.served;
        scratch.weights.extend(served.iter().map(|&(_, nj)| nj));
        largest_remainder_split(
            overhead_nj,
            &scratch.weights,
            &mut scratch.shares,
            &mut scratch.remainders,
        );
        let mut attributed_nj = 0u64;
        for (&(index, direct_nj), &share) in served.iter().zip(&scratch.shares) {
            let TuningRequest { tenant, arrival_s } = batch.requests[index];
            let Meta { ctx, class, .. } = scratch.meta[index];
            let request_nj = direct_nj + share;
            attributed_nj += request_nj;
            scratch.tenant_nj.push((tenant, request_nj));
            let energy_j = nj_to_j(request_nj as u128);
            if let Ok(answer) = &mut responses[index] {
                answer.energy_j = energy_j;
            }
            self.obs.class_energy[class.index()].record(energy_j);
            // observed-only SLO: burn accrues under the `energy`
            // objective but no admission tier acts on it yet
            let verdict = self.obs.energy_verdict(tenant, energy_j);
            scratch.slo_verdicts.push(verdict);
            self.mark(ctx, Layer::Serve, "energy", arrival_s, energy_j);
        }
        self.obs.plane.slo.record(&scratch.slo_verdicts);
        let idle_nj = facility_nj - attributed_nj;
        self.obs.energy_facility_nj.add(facility_nj);
        self.obs.energy_attributed_nj.add(attributed_nj);
        self.obs.energy_idle_nj.add(idle_nj);
        self.obs.energy_windows.inc();
        merge_by_tenant(&mut scratch.tenant_nj);
        self.obs.plane.energy.record_window(
            WindowSummary {
                index: batch.ordinal,
                requests: served.len() as u64,
                direct_nj,
                overhead_nj,
                facility_nj,
                attributed_nj,
                idle_nj,
            },
            &scratch.tenant_nj,
        );
    }

    /// Stage: one adaptation round per tenant served in this batch, in
    /// sorted order, at the batch's end time.
    fn adapt(&self, batch: &mut Batch) {
        let touched = &mut batch.scratch.touched;
        touched.sort_unstable();
        touched.dedup();
        let now_s = batch.end_s;
        for &tenant in touched.iter() {
            apply::adapt(&self.store, tenant, now_s);
            self.obs.adapts.inc();
            let span = SpanAt {
                name: ADAPT_SPAN.id(),
                start_s: now_s,
                end_s: now_s + ADAPT_SPAN_S,
            };
            self.obs
                .plane
                .tracer
                .record_id(span, Some(tenant), batch.span);
            self.journal_append(|| JournalEntry::Adapt { tenant, now_s });
        }
    }

    /// Stage: feed the batch's SLO outcomes to the admission
    /// controller — one EWMA window per tenant, in tenant order, at the
    /// batch end, journaled so replay reproduces every tier transition
    /// bit-identically.
    fn admission_feedback(&self, batch: &mut Batch) {
        let Some(fd) = &self.front_door else { return };
        if !batch.end_s.is_finite() {
            return;
        }
        let time_s = batch.end_s;
        // the rows' sums do not depend on their order within a tenant
        let slo_tally = &mut batch.scratch.slo_tally;
        slo_tally.sort_unstable_by_key(|&(tenant, ..)| tenant);
        for rows in slo_tally.chunk_by(|a, b| a.0 == b.0) {
            let tenant = rows[0].0;
            let (checked, violations) = rows
                .iter()
                .fold((0, 0), |(c, v), &(_, checked, violations)| {
                    (c + checked, v + violations)
                });
            if fd
                .admission
                .update(tenant, time_s, checked, violations)
                .is_some()
            {
                self.obs.admission_transitions.inc();
            }
            self.journal_append(|| JournalEntry::AdmissionUpdate {
                tenant,
                time_s,
                checked,
                violations,
            });
        }
    }

    /// Stage: the Daly-informed snapshot cadence — checkpoint the full
    /// state and compact the journal once the interval has elapsed.
    /// The retained snapshot is refreshed in place: only the sessions
    /// written since it was cut are swapped in, and each stays shared
    /// with the store until a later request writes to it.
    fn checkpoint(&self, batch: &Batch) {
        let Some(journal) = &self.journal else { return };
        if !batch.end_s.is_finite() {
            return;
        }
        let mut due = crate::lock_or_recover(&self.next_snapshot_s);
        if batch.end_s < *due {
            return;
        }
        let mut retained = crate::lock_or_recover(&self.snapshot);
        let snap = refresh_snapshot(
            retained.take(),
            batch.end_s,
            journal,
            &self.store,
            &self.cache,
            &self.breakers,
            self.front_door
                .as_ref()
                .map(|fd| (&fd.admission, &fd.autoscaler)),
        );
        journal.compact(snap.through_seq);
        *retained = Some(snap);
        let interval = self.resilience.snapshot_interval_s();
        while *due <= batch.end_s {
            *due += interval;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::pool::Evaluation;
    use crate::service::{FrontDoorConfig, ResilienceConfig, ServiceConfig};
    use antarex_sim::faults::{FaultConfig, FaultSchedule};
    use antarex_tuner::goal::{Constraint, Objective};
    use antarex_tuner::{AppManager, Configuration, KnobValue, KnowledgeBase, OperatingPoint};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn merging_rows_by_tenant_equals_a_map() {
        let mut rng = StdRng::seed_from_u64(48);
        // one buffer for every case, as the batch keeps it
        let mut rows = Vec::new();
        for case in 0..500 {
            let tenants = rng.gen_range(1..12u64);
            let input: Vec<(TenantId, u64)> = (0..rng.gen_range(0..64))
                .map(|_| (rng.gen_range(0..tenants), rng.gen_range(0..1u64 << 40)))
                .collect();
            let mut oracle: BTreeMap<TenantId, u64> = BTreeMap::new();
            for &(tenant, nj) in &input {
                *oracle.entry(tenant).or_default() += nj;
            }
            rows.clear();
            rows.extend_from_slice(&input);
            merge_by_tenant(&mut rows);
            let expected: Vec<(TenantId, u64)> = oracle.into_iter().collect();
            assert_eq!(rows, expected, "case {case}: {input:?}");
        }
    }

    fn config(level: i64) -> Configuration {
        let mut c = Configuration::new();
        c.set("level", KnobValue::Int(level));
        c
    }

    fn manager() -> AppManager {
        let kb: KnowledgeBase = (1..=4)
            .map(|l| {
                OperatingPoint::new(
                    config(l),
                    [
                        ("latency".to_string(), 0.1 * l as f64),
                        ("quality".to_string(), l as f64),
                    ],
                )
            })
            .collect();
        let mut m = AppManager::new(kb, Objective::maximize("quality"));
        m.add_constraint(Constraint::at_most("latency", 0.45));
        m
    }

    /// A probe that reports itself as two traced VM segments.
    struct Segmented;

    impl Evaluator for Segmented {
        fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation {
            let level = config.get_int("level").unwrap_or(1) as f64;
            let latency = 0.1 * level * features.first().copied().unwrap_or(1.0);
            Evaluation {
                metrics: [
                    ("latency".to_string(), latency),
                    ("quality".to_string(), level),
                ]
                .into_iter()
                .collect(),
                cost_s: latency,
                energy_j: level,
            }
        }

        fn evaluate_segmented(
            &self,
            config: &Configuration,
            features: &[f64],
        ) -> (Evaluation, Vec<ProbeSegment>) {
            let evaluation = self.evaluate(config, features);
            let segments = ["reference", "tuned"]
                .map(|name| ProbeSegment {
                    name,
                    cost_s: evaluation.cost_s / 2.0,
                    energy_j: evaluation.energy_j / 2.0,
                })
                .to_vec();
            (evaluation, segments)
        }
    }

    #[test]
    fn a_batch_gives_its_scratch_back_empty() {
        let schedule = FaultSchedule::generate(&FaultConfig::none(2016), 8, 100.0);
        // every buffer fills: probes and coalesced waiters, a poisoned
        // tenant's failed probe under chaos, traced segments, served
        // answers and the front door's tally
        let service = TuningService::with_resilience(
            ServiceConfig::default(),
            ResilienceConfig::hardened(),
            Segmented,
        )
        .with_chaos(ChaosConfig::new(schedule).poison(3))
        .with_front_door(FrontDoorConfig::hardened());
        for tenant in 0..4 {
            service
                .register_tenant(tenant, manager(), vec![1.0 + tenant as f64])
                .unwrap();
        }
        let requests: Vec<TuningRequest> = (0..8u64)
            .map(|slot| TuningRequest {
                tenant: slot % 4,
                arrival_s: slot as f64 * 0.1,
            })
            .collect();
        for round in 0..2 {
            let report = service.serve_batch(&requests);
            assert_eq!(report.responses.len(), requests.len());
            let kept = crate::lock_or_recover(&service.batch_scratch.0);
            assert_eq!(kept.len(), 1, "round {round}: one batch, one scratch");
            let BatchScratch {
                meta,
                pending,
                job_keys,
                job_of_key,
                segments,
                fates,
                costs,
                poisoned,
                busy,
                served,
                weights,
                shares,
                remainders,
                tenant_nj,
                touched,
                slo_verdicts,
                slo_tally,
            } = &kept[0];
            let buffers = [
                ("meta", meta.len(), meta.capacity()),
                ("pending", pending.len(), pending.capacity()),
                ("job_keys", job_keys.len(), job_keys.capacity()),
                ("job_of_key", job_of_key.len(), job_of_key.capacity()),
                ("segments", segments.len(), segments.capacity()),
                ("fates", fates.len(), fates.capacity()),
                ("costs", costs.len(), costs.capacity()),
                ("poisoned", poisoned.len(), poisoned.capacity()),
                ("busy", busy.len(), busy.capacity()),
                ("served", served.len(), served.capacity()),
                ("weights", weights.len(), weights.capacity()),
                ("shares", shares.len(), shares.capacity()),
                ("remainders", remainders.len(), remainders.capacity()),
                ("tenant_nj", tenant_nj.len(), tenant_nj.capacity()),
                ("touched", touched.len(), touched.capacity()),
                ("slo_verdicts", slo_verdicts.len(), slo_verdicts.capacity()),
                ("slo_tally", slo_tally.len(), slo_tally.capacity()),
            ];
            for (name, len, capacity) in buffers {
                assert_eq!(len, 0, "round {round}: {name} is given back empty");
                assert!(capacity > 0, "round {round}: {name} keeps its capacity");
            }
        }
    }
}
