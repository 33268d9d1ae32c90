//! The traced run: per-layer metrics, measured from outside.
//!
//! Two boundaries are reachable from this crate: the `serve_batch` (or
//! `run_profile`) call and, through [`Timed`], every probe. Traced passes record a span at each;
//! `serve.service.self_*` is the batch span minus its evaluator
//! children, and `trace_overhead_share` compares traced passes with the
//! untraced passes they alternate with.
//!
//! Every other layer is timed by **replay**: one more pass captures
//! each batch's op stream (requests, responses, probes) and drives it
//! through shadow instances of the layers' public types, one timed
//! group of calls per layer per batch. A standalone layer runs
//! cache-warmer than in situ, so replay numbers are outside estimates
//! of how the service's self time splits; their sum against the self
//! time is printed as `serve.service.unattributed_share`, ungated.

use crate::measure::{cluster_pass, node_population, serve_pass, storm_schedule, Pass, Served};
use crate::report::Readings;
use crate::run::{check_passes, layer_run, quiet_ops_per_s, Run, RunConfig, MIN_PASSES};
use crate::span::{chrome_trace_json, self_times_ns, Span, SpanSink};
use crate::stats::percentile;
use crate::timed::{CapturedProbe, ProbeTap, Timed};
use crate::workload::{Campaign, ServeSpec};
use antarex_bench::cluster_exp::ClusterScale;
use antarex_ir::cost::CostModel;
use antarex_ir::interp::ExecEnv;
use antarex_ir::parse_program;
use antarex_ir::value::Value;
use antarex_obs::{EnergyLedger, Histogram, Layer, SpanId, TraceCtx, TraceEvent, TraceStore};
use antarex_obs::{MetricsRegistry, WindowSummary};
use antarex_precision::vars::{float_vars, set_precision};
use antarex_rtrm::checkpoint::daly_interval_s;
use antarex_rtrm::cluster_ctrl::{FacilityController, NodeController, RegionKind, SensorChannel};
use antarex_rtrm::powercap::PowercapObs;
use antarex_serve::journal::{replay, take_snapshot};
use antarex_serve::kernel::DEFAULT_KERNEL;
use antarex_serve::pool::{EvalJob, Evaluation, PoolConfig};
use antarex_serve::store::TenantId;
use antarex_serve::{
    probe_seed, AdmissionController, Autoscaler, BatchReport, BreakerBank, DesignKey,
    DesignPointCache, EvalPool, Journal, ServeError, SessionStore, TuningRequest, TuningService,
};
use antarex_sim::cooling::CoolingPlant;
use antarex_sim::sched;
use antarex_tuner::manager::AppManager;
use antarex_vm::{InstrumentedCodeCache, Vm};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Share of `--seconds` a traced run spends alternating untraced and
/// traced passes; the replay and 2-worker passes take the rest.
const ALTERNATING_SHARE: f64 = 0.5;

/// Wall time and call count of one layer's timed groups.
#[derive(Debug, Clone, Copy, Default)]
struct Clock {
    ns: u64,
    calls: u64,
}

impl Clock {
    /// Times one group of `calls` calls into a layer.
    fn group<R>(&mut self, calls: usize, group: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = group();
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += calls as u64;
        result
    }

    fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Spans: the two boundaries reachable from outside
// ---------------------------------------------------------------------------

/// What the spans of `passes` traced passes, `ops` ops in all, say
/// about the service and its evaluator.
fn span_readings(spans: &[Span], passes: usize, ops: u64, readings: &mut Readings) {
    let self_ns = self_times_ns(spans);
    let (mut batch_ns, mut batch_self_ns) = (0u64, 0u64);
    let mut probe_us = Vec::new();
    for (span, own) in spans.iter().zip(&self_ns) {
        if span.parent.is_none() {
            batch_ns += span.duration_ns();
            batch_self_ns += own;
        } else {
            probe_us.push(span.duration_ns() as f64 / 1e3);
        }
    }
    let busy_ns = batch_ns - batch_self_ns;
    readings.set(
        "serve.service.self_ns_per_op",
        batch_self_ns as f64 / ops as f64,
    );
    readings.set(
        "serve.service.self_share",
        batch_self_ns as f64 / batch_ns as f64,
    );
    readings.set(
        "serve.evaluator.busy_share",
        busy_ns as f64 / batch_ns as f64,
    );
    readings.set("serve.evaluator.calls", (probe_us.len() / passes) as f64);
    if !probe_us.is_empty() {
        readings.set("serve.evaluator.call_us_p50", percentile(&probe_us, 50.0));
        readings.set("serve.evaluator.call_us_p95", percentile(&probe_us, 95.0));
    }
}

/// Writes the spans of one traced pass where `--trace-out` points.
fn write_trace(config: &RunConfig, spans: &[Span], failures: &mut Vec<String>) {
    let Some(dir) = &config.trace_out else {
        return;
    };
    let path = dir.join(format!("trace-{}.json", config.workload.name));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, chrome_trace_json(spans)));
    if let Err(error) = written {
        failures.push(format!("cannot write {}: {error}", path.display()));
    }
}

/// Untraced and traced passes in turn, so both see the same machine:
/// one discarded untraced warm-up, then traced/untraced pairs (two at
/// least, so each side has a quiet half) until the traced run's share
/// of `seconds` is up. `pass(true)` is a traced pass.
fn alternating(seconds: f64, mut pass: impl FnMut(bool) -> Pass) -> (Vec<Pass>, Vec<Pass>) {
    let _warm_up = pass(false);
    let started = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while traced.len() < 2 || started.elapsed().as_secs_f64() < seconds * ALTERNATING_SHARE {
        traced.push(pass(true));
        untraced.push(pass(false));
    }
    (untraced, traced)
}

/// Traced wall ÷ untraced wall − 1, each side by its quiet half.
fn trace_overhead(untraced: &[Pass], traced: &[Pass]) -> f64 {
    quiet_ops_per_s(untraced) / quiet_ops_per_s(traced) - 1.0
}

// ---------------------------------------------------------------------------
// Replay: shadow layers driven by the captured op stream
// ---------------------------------------------------------------------------

/// Shadow instances of the serving tier's layers and their clocks.
struct Shadow {
    index: HashMap<TenantId, usize>,
    managers: Vec<AppManager>,
    features: Vec<Vec<f64>>,
    store: SessionStore,
    cache: DesignPointCache,
    admission: Option<AdmissionController>,
    slo_latency_s: f64,
    pool: EvalPool,
    pool_2w: EvalPool,
    virtual_workers: usize,
    trace: TraceStore,
    ledger: EnergyLedger,
    hist: Histogram,
    clocks: Clocks,
}

/// One clock per replayed layer function.
#[derive(Debug, Clone, Copy, Default)]
struct Clocks {
    with: Clock,
    select: Clock,
    learn: Clock,
    key: Clock,
    get: Clock,
    insert: Clock,
    tier: Clock,
    update: Clock,
    sched: Clock,
    steal: Clock,
    dispatch_2w: Clock,
    derive: Clock,
    record: Clock,
    window: Clock,
    hist_record: Clock,
}

impl Shadow {
    /// Shadows of a freshly built campaign: the same sessions, empty
    /// cache, untouched admission state.
    fn of<E: antarex_serve::Evaluator>(campaign: &Campaign<E>) -> Shadow {
        let service = &campaign.service;
        let config = service.config();
        let sessions = service.store().dump();
        let pool = |workers| {
            EvalPool::new(PoolConfig {
                workers,
                ..config.pool
            })
            .with_sched(campaign.sched)
        };
        Shadow {
            index: sessions
                .iter()
                .enumerate()
                .map(|(at, (tenant, _))| (*tenant, at))
                .collect(),
            managers: sessions.iter().map(|(_, s)| s.manager.clone()).collect(),
            features: sessions.iter().map(|(_, s)| s.features.clone()).collect(),
            store: SessionStore::recover(config.store_shards, sessions),
            cache: DesignPointCache::new(config.cache_shards),
            admission: campaign
                .front_door
                .map(|front_door| AdmissionController::new(front_door.admission)),
            slo_latency_s: service.obs().slo_latency_s(),
            pool: pool(1),
            pool_2w: pool(2),
            virtual_workers: service
                .autoscaler()
                .map_or(config.pool.workers, |scaler| scaler.capacity()),
            trace: TraceStore::new(antarex_serve::obs::DEFAULT_SPAN_CAPACITY * 4, 1),
            ledger: EnergyLedger::new(antarex_serve::obs::DEFAULT_SPAN_CAPACITY),
            hist: Histogram::new(),
            clocks: Clocks::default(),
        }
    }

    /// Drives one batch's op stream through every shadow layer, in the
    /// order `serve_batch` visits them.
    fn replay_batch(
        &mut self,
        ordinal: u64,
        requests: &[TuningRequest],
        report: &BatchReport,
        probes: Vec<CapturedProbe>,
    ) {
        let tenants: Vec<usize> = requests.iter().map(|r| self.index[&r.tenant]).collect();
        let batch_end_s = requests.iter().map(|r| r.arrival_s).fold(0.0, f64::max);
        // requests the front door or a breaker turned away never reach
        // the store; everything else pays a lookup and a select
        let selected: Vec<usize> = (0..requests.len())
            .filter(|&at| {
                !matches!(
                    report.responses[at],
                    Err(ServeError::AdmissionRejected { .. } | ServeError::CircuitOpen { .. })
                )
            })
            .collect();
        let served: Vec<usize> = (0..requests.len())
            .filter(|&at| report.responses[at].is_ok())
            .collect();
        let answer = |at: usize| report.responses[at].as_ref().expect("filtered to Ok");

        if let Some(admission) = &self.admission {
            self.clocks.tier.group(requests.len(), || {
                for request in requests {
                    black_box(admission.tier(request.tenant));
                }
            });
        }
        // one lookup to select, one to book the answer
        self.clocks.with.group(selected.len() + served.len(), || {
            for &at in selected.iter().chain(&served) {
                let _ = black_box(self.store.with(requests[at].tenant, |s| s.requests += 1));
            }
        });
        self.clocks.select.group(selected.len(), || {
            for &at in &selected {
                black_box(self.managers[tenants[at]].select());
            }
        });
        // the probe seed exists for trace derivation alone, so its cost
        // is booked there
        let trace = &self.trace;
        let features = &self.features;
        self.clocks.derive.group(requests.len() + served.len(), || {
            for (seq, request) in requests.iter().enumerate() {
                black_box(trace.derive(request.tenant, 0, ordinal, seq as u32));
            }
            for &at in &served {
                let seed = probe_seed(&answer(at).config, &features[tenants[at]]);
                black_box(trace.derive(requests[at].tenant, seed, ordinal, at as u32));
            }
        });
        let keys: Vec<DesignKey> = self.clocks.key.group(served.len(), || {
            served
                .iter()
                .map(|&at| DesignKey::new(&answer(at).config, &features[tenants[at]]))
                .collect()
        });
        self.clocks.get.group(keys.len(), || {
            for key in &keys {
                black_box(self.cache.get(key));
            }
        });

        if !probes.is_empty() {
            let jobs: Vec<EvalJob> = probes
                .iter()
                .enumerate()
                .map(|(id, probe)| EvalJob {
                    id,
                    tenant: 0,
                    class: Default::default(),
                    config: probe.config.clone(),
                    features: probe.features.clone(),
                    trace: TraceCtx::NONE,
                })
                .collect();
            let answers: Vec<&Evaluation> = probes.iter().map(|p| &p.evaluation).collect();
            let canned = |job: &EvalJob| answers[job.id].clone();
            let jobs_2w = jobs.clone();
            self.clocks.sched.group(probes.len(), || {
                black_box(
                    self.pool
                        .evaluate_batch_on(jobs, self.virtual_workers, &canned),
                );
            });
            self.clocks.dispatch_2w.group(1, || {
                black_box(
                    self.pool_2w
                        .evaluate_batch_on(jobs_2w, self.virtual_workers, &canned),
                );
            });
            let costs: Vec<f64> = probes.iter().map(|p| p.evaluation.cost_s).collect();
            self.clocks.steal.group(probes.len(), || {
                black_box(sched::steal_schedule(&costs, &costs, self.virtual_workers));
            });
            let fills: Vec<DesignKey> = probes
                .iter()
                .map(|probe| DesignKey::new(&probe.config, &probe.features))
                .collect();
            self.clocks.insert.group(probes.len(), || {
                for (key, probe) in fills.into_iter().zip(&probes) {
                    self.cache.insert(key, probe.evaluation.metrics.clone());
                }
            });
        }

        let mut touched: Vec<usize> = served.iter().map(|&at| tenants[at]).collect();
        touched.sort_unstable();
        touched.dedup();
        self.clocks.learn.group(served.len(), || {
            for &at in &served {
                let answer = answer(at);
                for (metric, value) in &answer.metrics {
                    self.managers[tenants[at]].observe(answer.arrival_s, metric, *value);
                }
            }
            for &tenant in &touched {
                black_box(self.managers[tenant].adapt(batch_end_s));
            }
        });
        self.clocks.hist_record.group(served.len(), || {
            for &at in &served {
                self.hist.record(answer(at).latency_s);
            }
        });
        // one admission event per request, one energy event per answer
        self.clocks.record.group(requests.len() + served.len(), || {
            let event = |tenant, layer, name, at_s, value| TraceEvent {
                trace: antarex_obs::TraceId(u128::from(tenant) + 1),
                tenant,
                layer,
                name,
                start_s: at_s,
                end_s: at_s,
                value,
                span: SpanId::NONE,
            };
            for request in requests {
                trace.record(event(
                    request.tenant,
                    Layer::Admission,
                    "admit",
                    request.arrival_s,
                    0.0,
                ));
            }
            for &at in &served {
                let answer = answer(at);
                trace.record(event(
                    answer.tenant,
                    Layer::Serve,
                    "energy",
                    answer.arrival_s,
                    answer.energy_j,
                ));
            }
        });

        let mut per_tenant: BTreeMap<TenantId, u64> = BTreeMap::new();
        for &at in &served {
            *per_tenant.entry(requests[at].tenant).or_default() +=
                antarex_obs::to_nj(answer(at).energy_j);
        }
        let rows: Vec<(TenantId, u64)> = per_tenant.into_iter().collect();
        let attributed_nj = rows.iter().map(|(_, nj)| nj).sum();
        self.clocks.window.group(1, || {
            self.ledger.record_window(
                WindowSummary {
                    index: ordinal,
                    requests: served.len() as u64,
                    direct_nj: attributed_nj,
                    overhead_nj: 0,
                    facility_nj: attributed_nj,
                    attributed_nj,
                    idle_nj: 0,
                },
                &rows,
            );
        });

        if let Some(admission) = &self.admission {
            // per tenant: (checked, violations), as the service tallies
            let mut slo: BTreeMap<TenantId, (u64, u64)> = BTreeMap::new();
            for (request, response) in requests.iter().zip(&report.responses) {
                let tally = slo.entry(request.tenant).or_default();
                match response {
                    Ok(answer) => {
                        tally.0 += 1;
                        tally.1 += u64::from(answer.latency_s > self.slo_latency_s);
                    }
                    Err(ServeError::AdmissionRejected { .. }) => {}
                    Err(_) => {
                        tally.0 += 1;
                        tally.1 += 1;
                    }
                }
            }
            self.clocks.update.group(slo.len(), || {
                for (&tenant, &(checked, violations)) in &slo {
                    black_box(admission.update(tenant, batch_end_s, checked, violations));
                }
            });
        }
    }

    /// Σ replayed nanoseconds of the layers that run inside
    /// `serve_batch` on the service's own time.
    fn attributed_ns(&self) -> u64 {
        [
            self.clocks.with,
            self.clocks.select,
            self.clocks.learn,
            self.clocks.key,
            self.clocks.get,
            self.clocks.insert,
            self.clocks.tier,
            self.clocks.update,
            self.clocks.sched,
            self.clocks.derive,
            self.clocks.record,
            self.clocks.window,
            self.clocks.hist_record,
        ]
        .iter()
        .map(|clock| clock.ns)
        .sum()
    }

    fn readings(&self, readings: &mut Readings) {
        for (name, clock) in [
            ("serve.store.with_ns", self.clocks.with),
            ("tuner.manager.select_ns", self.clocks.select),
            ("tuner.manager.learn_ns", self.clocks.learn),
            ("serve.cache.key_ns", self.clocks.key),
            ("serve.cache.get_ns", self.clocks.get),
            ("serve.cache.insert_ns", self.clocks.insert),
            ("serve.admission.tier_ns", self.clocks.tier),
            ("serve.admission.update_ns", self.clocks.update),
            ("serve.pool.sched_ns_per_probe", self.clocks.sched),
            ("sim.sched.steal_ns_per_task", self.clocks.steal),
            ("obs.trace.derive_ns", self.clocks.derive),
            ("obs.trace.record_ns", self.clocks.record),
            ("obs.hist.record_ns", self.clocks.hist_record),
        ] {
            readings.set(name, clock.ns_per_call());
        }
        readings.set(
            "obs.energy.record_window_us",
            self.clocks.window.ns_per_call() / 1e3,
        );
        readings.set(
            "serve.pool.dispatch_us_per_batch_2w",
            self.clocks.dispatch_2w.ns_per_call() / 1e3,
        );
    }
}

/// The counters the service and `BatchReport` keep at the boundaries
/// where the work happens.
fn counter_readings<E: antarex_serve::Evaluator>(served: &Served<E>, readings: &mut Readings) {
    let tally = &served.tally;
    let submitted = tally.submitted;
    let service = &served.campaign.service;
    readings.set(
        "failed_share",
        (submitted - tally.served) as f64 / submitted as f64,
    );
    readings.set("serve.cache.hit_rate", service.cache().hit_rate());
    readings.set(
        "serve.cache.quarantined",
        service.cache().quarantined() as f64,
    );
    readings.set("serve.admission.shed", tally.admission_shed as f64);
    readings.set("serve.admission.degraded", tally.degraded as f64);
    readings.set(
        "serve.admission.tier_transitions",
        service.obs().admission_transitions() as f64,
    );
    readings.set("serve.pool.probes", tally.evaluated as f64);
    readings.set("serve.pool.shed", tally.pool_shed as f64);
    readings.set("serve.chaos.retries", tally.retries as f64);
    readings.set("serve.chaos.hedges", tally.hedges as f64);
    readings.set("serve.chaos.quarantined", tally.quarantined as f64);
    readings.set(
        "serve.breaker.trips",
        service.breakers().total_trips() as f64,
    );
    let trace = &service.obs().plane().trace;
    let events = trace.len() as u64 + trace.dropped();
    readings.set("obs.trace.events_per_op", events as f64 / submitted as f64);
    if events > 0 {
        readings.set(
            "obs.trace.dropped_share",
            trace.dropped() as f64 / events as f64,
        );
    }
}

/// Times `TuningService::power_split` over the served tenants' demands.
fn power_split_us<E: antarex_serve::Evaluator>(served: &Served<E>) -> f64 {
    let service = &served.campaign.service;
    let budget_w = service.aggregate_power_demand_w().max(1.0) * 0.8;
    let mut clock = Clock::default();
    for _ in 0..16 {
        clock.group(1, || black_box(service.power_split(black_box(budget_w))));
    }
    clock.ns_per_call() / 1e3
}

/// What one probe on the metered VM is made of, each step timed
/// standalone on the serving tier's own kernel: parse, the precision
/// variant, lowering on a code-cache miss, and the run itself.
fn vm_readings(readings: &mut Readings) {
    const ROUNDS: usize = 64;
    const ELEMENTS: usize = 1024;
    let model = CostModel::new();
    let (mut parse, mut variant, mut lower, mut call) = (
        Clock::default(),
        Clock::default(),
        Clock::default(),
        Clock::default(),
    );
    let data: Vec<f64> = (0..ELEMENTS)
        .map(|i| (i % 17) as f64 / 17.0 - 0.5)
        .collect();
    let args = [
        Value::from(data.clone()),
        Value::from(data),
        Value::Int(ELEMENTS as i64),
    ];
    for _ in 0..ROUNDS {
        let mut program = parse.group(1, || {
            parse_program(black_box(DEFAULT_KERNEL)).expect("the default kernel parses")
        });
        variant.group(1, || {
            let vars = program
                .function("kernel")
                .map(|f| float_vars(f))
                .unwrap_or_default();
            for var in &vars {
                set_precision(&mut program, "kernel", var, 12).expect("inventoried variable");
            }
        });
        let cache = InstrumentedCodeCache::new();
        lower.group(1, || black_box(cache.instrument(&program, &model)));
        let mut vm = Vm::with_cache(program, model.clone(), &cache);
        call.group(ELEMENTS, || {
            black_box(vm.call("kernel", &args, &mut ExecEnv::new())).expect("the kernel runs")
        });
    }
    readings.set("ir.parse_us", parse.ns_per_call() / 1e3);
    readings.set("precision.variant_us", variant.ns_per_call() / 1e3);
    readings.set("vm.lower_us", lower.ns_per_call() / 1e3);
    readings.set("vm.run_ns_per_elem", call.ns_per_call());
}

// ---------------------------------------------------------------------------
// Journal: written while serving, read at recovery
// ---------------------------------------------------------------------------

/// Times the journal's public functions on the state of a served,
/// journaled campaign: `take_snapshot` on the live service, then — after
/// `crash()` — `Journal::append` on the tail it left, the snapshot
/// restore, `journal::replay`, and the whole of `TuningService::recover`,
/// whose result must report the crashed service's state. Returns the
/// nanoseconds the journal cost the serving pass (appends plus Daly
/// snapshots).
fn journal_readings<S: ServeSpec>(
    spec: &S,
    seed: u64,
    campaign: Campaign<S::Eval>,
    readings: &mut Readings,
    failures: &mut Vec<String>,
) -> f64 {
    let service = campaign.service;
    let (config, resilience) = (service.config(), service.resilience());
    let horizon_s = campaign.requests.last().map_or(0.0, |r| r.arrival_s);
    let shards = config.store_shards;

    let mut snapshot = Clock::default();
    for _ in 0..MIN_PASSES {
        let journal = Journal::new(shards);
        snapshot.group(1, || {
            black_box(take_snapshot(
                horizon_s,
                &journal,
                service.store(),
                service.cache(),
                service.breakers(),
                service.admission().zip(service.autoscaler()),
            ))
        });
    }
    readings.set("serve.journal.snapshot_ms", snapshot.ns_per_call() / 1e6);

    let state = service.state_report();
    let (snap, entries) = service.crash();
    let Some(snap) = snap else {
        failures.push("the journaled service had taken no snapshot".to_string());
        return 0.0;
    };
    if entries.is_empty() {
        failures.push("the crashed service left no journal tail to replay".to_string());
    }
    // every entry ever appended: those the snapshot covers plus the tail
    let appended = snap.through_seq + entries.len() as u64;
    readings.set("serve.journal.entries", appended as f64);

    let (mut append, mut restore, mut replayed, mut recover) = (
        Clock::default(),
        Clock::default(),
        Clock::default(),
        Clock::default(),
    );
    for round in 0..MIN_PASSES {
        let journal = Journal::new(shards);
        let tail = entries.clone();
        append.group(tail.len(), || {
            for entry in tail {
                black_box(journal.append(entry));
            }
        });

        let cache = DesignPointCache::new(config.cache_shards);
        let breakers = BreakerBank::new(resilience.breaker);
        let front_door = campaign.front_door.map(|front_door| {
            (
                AdmissionController::new(front_door.admission),
                Autoscaler::new(front_door.autoscale),
            )
        });
        let store = restore.group(1, || {
            let store = SessionStore::recover(shards, snap.sessions.clone());
            for (key, metrics) in &snap.cache {
                cache.insert(key.clone(), metrics.clone());
            }
            breakers.restore(&snap.breakers);
            if let Some((admission, autoscaler)) = &front_door {
                admission.restore(&snap.admission);
                if let Some(state) = snap.autoscaler {
                    autoscaler.restore(state);
                }
            }
            store
        });
        replayed.group(entries.len(), || {
            replay(
                black_box(&entries),
                &store,
                &cache,
                &breakers,
                front_door
                    .as_ref()
                    .map(|(admission, scaler)| (admission, scaler)),
                &|tenant| spec.manager(tenant),
            );
        });

        let evaluator = Timed::new(spec.evaluator(seed), None);
        let from = Some(snap.clone());
        let recovered = recover.group(1, || {
            TuningService::recover(
                config,
                resilience,
                campaign.chaos.clone(),
                campaign.front_door,
                evaluator,
                from,
                black_box(&entries),
                &|tenant| spec.manager(tenant),
            )
        });
        // the report formats every manager: compare the first recovery only
        if round == 0 && recovered.state_report() != state {
            failures.push("the recovered service's state differs from the crashed one's".into());
        }
    }
    readings.set("serve.journal.append_ns", append.ns_per_call());
    readings.set("serve.journal.restore_ms", restore.ns_per_call() / 1e6);
    readings.set("serve.journal.replay_ns_per_entry", replayed.ns_per_call());
    readings.set("serve.journal.recover_ms", recover.ns_per_call() / 1e6);

    let interval_s = daly_interval_s(resilience.snapshot_mtbf_s, resilience.snapshot_cost_s);
    let snapshots = (horizon_s / interval_s).floor();
    appended as f64 * append.ns_per_call() + snapshots * snapshot.ns_per_call()
}

// ---------------------------------------------------------------------------
// The traced runs
// ---------------------------------------------------------------------------

/// The traced run of a serve workload.
pub fn serve_layers<S: ServeSpec>(config: &RunConfig, spec: &S) -> Run {
    let seed = config.seed;
    let mut spans: Vec<Vec<Span>> = Vec::new();
    let (untraced, traced) = alternating(config.seconds, |trace| {
        let tap = trace.then(ProbeTap::spans_only);
        let pass = serve_pass(spec, seed, 1, tap.clone(), |_, _, _| {}).pass;
        spans.extend(tap.map(|tap| tap.sink.drain()));
        pass
    });
    let two_workers = serve_pass(spec, seed, 2, None, |_, _, _| {}).pass;

    // the replay pass: its own timings are discarded
    let tap = ProbeTap::capturing();
    let mut shadow: Option<Shadow> = None;
    let replayed = serve_pass(
        spec,
        seed,
        1,
        Some(tap.clone()),
        |campaign, index, report| {
            shadow
                .get_or_insert_with(|| Shadow::of(campaign))
                .replay_batch(
                    index as u64,
                    campaign.batch(index),
                    report,
                    tap.take_probes(),
                );
        },
    );

    let mut failures = check_passes(
        untraced
            .iter()
            .map(|pass| ("untraced pass", pass))
            .chain(traced.iter().map(|pass| ("traced pass", pass)))
            .chain([
                ("replay pass", &replayed.pass),
                ("2-worker pass", &two_workers),
            ]),
    );

    let ops = replayed.pass.ops;
    let traced_ops: u64 = traced.iter().map(|pass| pass.ops).sum();
    let all_spans: Vec<Span> = rebase(&spans);
    let mut readings = Readings::default();
    span_readings(&all_spans, traced.len(), traced_ops, &mut readings);
    readings.set("trace_overhead_share", trace_overhead(&untraced, &traced));
    readings.set(
        "serve.pool.speedup_2w",
        quiet_ops_per_s(std::slice::from_ref(&two_workers)) / quiet_ops_per_s(&untraced),
    );
    counter_readings(&replayed, &mut readings);
    readings.set("rtrm.powercap.split_us", power_split_us(&replayed));
    if let Some(code_cache) = &replayed.campaign.code_cache {
        readings.set("vm.code_cache.hit_rate", code_cache.hit_rate());
        vm_readings(&mut readings);
    }

    let shadow = shadow.expect("a campaign has at least one batch");
    shadow.readings(&mut readings);
    let mut attributed_ns = shadow.attributed_ns() as f64;
    if replayed.campaign.service.resilience().journaled {
        attributed_ns +=
            journal_readings(spec, seed, replayed.campaign, &mut readings, &mut failures);
    }
    let self_ns = readings
        .get("serve.service.self_ns_per_op")
        .expect("set by span_readings")
        * ops as f64;
    readings.set(
        "serve.service.unattributed_share",
        1.0 - attributed_ns / self_ns,
    );

    write_trace(
        config,
        spans.last().expect("at least one traced pass"),
        &mut failures,
    );
    layer_run(
        &readings,
        traced_ops,
        traced.iter().map(|pass| pass.lost).sum(),
        vec![
            ("traced_passes", traced.len().to_string()),
            ("untraced_passes", untraced.len().to_string()),
            ("spans", all_spans.len().to_string()),
            ("outcome_digest", format!("{:016x}", two_workers.digest)),
        ],
        failures,
    )
}

/// Concatenates the spans of several passes, re-pointing parents.
fn rebase(passes: &[Vec<Span>]) -> Vec<Span> {
    let mut all = Vec::new();
    for spans in passes {
        let base = all.len();
        all.extend(spans.iter().cloned().map(|mut span| {
            span.parent = span.parent.map(|parent| parent + base);
            span
        }));
    }
    all
}

/// The traced run of the cluster workload: root spans around
/// `run_profile`, and the control plane's public functions replayed on
/// a cluster of the same size.
pub fn cluster_layers(config: &RunConfig, scale: &ClusterScale) -> Run {
    let seed = config.seed;
    let sink = SpanSink::default();
    let (untraced, traced) = alternating(config.seconds, |trace| {
        let start_ns = sink.now_ns();
        let pass = cluster_pass(scale, seed, 1).0;
        if trace {
            sink.child("run_profile", start_ns, sink.now_ns());
        }
        pass
    });
    let (two_workers, outcome) = cluster_pass(scale, seed, 2);
    let mut failures = check_passes(
        untraced
            .iter()
            .chain(&traced)
            .map(|pass| ("1-worker pass", pass))
            .chain([("2-worker pass", &two_workers)]),
    );

    let mut readings = Readings::default();
    readings.set("trace_overhead_share", trace_overhead(&untraced, &traced));
    readings.set(
        "rtrm.cluster_ctrl.speedup_2w",
        quiet_ops_per_s(std::slice::from_ref(&two_workers)) / quiet_ops_per_s(&untraced),
    );
    readings.set(
        "failed_share",
        1.0 - outcome.completed_jobs as f64 / scale.jobs as f64,
    );
    readings.set("rtrm.cluster_ctrl.crashes", outcome.crashes as f64);
    readings.set("rtrm.cluster_ctrl.requeues", outcome.requeues as f64);
    readings.set(
        "rtrm.cluster_ctrl.throttle_events",
        outcome.throttle_events as f64,
    );
    readings.set("rtrm.checkpoint.count", outcome.checkpoints as f64);

    // replay: the per-node and facility decisions on a same-sized cluster
    let mut generate = Clock::default();
    generate.group(1, || black_box(storm_schedule(scale, seed)));
    readings.set("sim.faults.generate_ms", generate.ns_per_call() / 1e6);
    let mut build = Clock::default();
    let mut nodes = build.group(scale.nodes, || node_population(scale, seed));
    readings.set("sim.node.build_ns", build.ns_per_call());

    let facility = FacilityController::try_new(
        scale.facility_cap_w,
        CoolingPlant::european_datacenter(),
        0.97,
    )
    .expect("the campaign's own facility configuration is valid");
    let powercap = PowercapObs::register(&MetricsRegistry::new());
    let weights: Vec<f64> = (0..scale.nodes)
        .map(|node| 1.0 + (node % 7) as f64)
        .collect();
    let mut split = Clock::default();
    let mut caps = Vec::new();
    for step in 0..8 {
        let ambient_c = scale.ambient_start_c + step as f64;
        caps = split
            .group(1, || {
                facility.split(ambient_c, black_box(&weights), &powercap)
            })
            .expect("every weight is positive");
    }
    readings.set("rtrm.cluster_ctrl.split_us", split.ns_per_call() / 1e3);

    let mut controllers = vec![NodeController::new(); scale.nodes];
    for (controller, cap) in controllers.iter_mut().zip(&caps) {
        controller.set_cap(*cap);
    }
    let mut plan = Clock::default();
    for step in 0..8 {
        let time_s = step as f64 * scale.dt_s;
        plan.group(scale.nodes, || {
            for (controller, node) in controllers.iter_mut().zip(&mut nodes) {
                let raw = Some(node.temp_c());
                black_box(controller.plan(node, RegionKind::Compute, 64.0, time_s, raw));
            }
        });
    }
    readings.set("rtrm.cluster_ctrl.plan_ns_per_node", plan.ns_per_call());

    let mut channels = vec![SensorChannel::thermal(); scale.nodes];
    let mut sense = Clock::default();
    for step in 0..8 {
        let time_s = step as f64 * scale.dt_s;
        sense.group(scale.nodes, || {
            for (at, channel) in channels.iter_mut().enumerate() {
                // every seventh reading drops out, as under the storm
                let raw = (at % 7 != step % 7).then_some(40.0 + (at % 30) as f64);
                black_box(channel.sense(time_s, raw));
            }
        });
    }
    readings.set("rtrm.cluster_ctrl.sense_ns", sense.ns_per_call());

    let spans = sink.drain();
    write_trace(config, &spans, &mut failures);
    layer_run(
        &readings,
        traced.iter().map(|pass| pass.ops).sum(),
        0,
        vec![
            ("traced_passes", traced.len().to_string()),
            ("spans", spans.len().to_string()),
            ("outcome_digest", format!("{:016x}", outcome.digest)),
        ],
        failures,
    )
}
