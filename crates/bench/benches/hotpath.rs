//! Criterion: tuner data-plane hot path (experiment P1 mechanisms).
//!
//! Times the four operations the serving layer performs per request —
//! knowledge-base `best()` (indexed vs the retained linear reference),
//! online `learn()`, the Pareto filter, and design-point cache probes
//! (structural key vs the retained string reference) — and then the
//! whole request: one warm navigation batch of 64 cache hits through
//! `serve_batch` (`serve/cache_hit`). `pool/dispatch` times what the
//! evaluation pool adds around its probes: a batch of 64 trivial probes
//! through `EvalPool::evaluate_batch_on` at 1, 2 and 4 workers.
//!
//! `kb_select_2048`, `kb_learn_2048` and `cache_probe` are the only home
//! of the select, learn and cache-probe timings: `BENCH_tuner.json`
//! holds virtual makespans only.

use antarex_obs::TraceCtx;
use antarex_serve::cache::{DesignKey, DesignPointCache, Metrics, ReferenceKey};
use antarex_serve::driver::DriverConfig;
use antarex_serve::kernel::kernel_manager;
use antarex_serve::nav::NavEvaluator;
use antarex_serve::pool::{EvalJob, Evaluation, PoolConfig};
use antarex_serve::store::TenantClass;
use antarex_serve::{BatchReport, EvalPool, TuningRequest};
use antarex_tuner::goal::{Constraint, Objective};
use antarex_tuner::knob::KnobValue;
use antarex_tuner::space::Configuration;
use antarex_tuner::{AppManager, KnowledgeBase, OperatingPoint};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn config(i: u64) -> Configuration {
    let mut c = Configuration::new();
    c.set("unroll", KnobValue::Int((i % 32) as i64));
    c.set("block", KnobValue::Int((i / 32 % 32) as i64));
    c.set("threads", KnobValue::Int((i / 1024 % 8) as i64));
    c
}

fn knowledge(points: u64) -> KnowledgeBase {
    let mut rng = StdRng::seed_from_u64(7);
    (0..points)
        .map(|i| {
            OperatingPoint::new(
                config(i),
                [
                    ("time".to_string(), rng.gen::<f64>() * 10.0),
                    ("energy".to_string(), rng.gen::<f64>() * 100.0),
                    ("quality".to_string(), rng.gen::<f64>()),
                ],
            )
        })
        .collect()
}

fn bench_select(c: &mut Criterion) {
    let kb = knowledge(2048);
    let objective = Objective::minimize("time");
    let constraints = [
        Constraint::at_most("energy", 60.0),
        Constraint::at_least("quality", 0.2),
    ];
    let mut group = c.benchmark_group("kb_select_2048");
    group.bench_function(BenchmarkId::from_parameter("indexed"), |b| {
        b.iter(|| black_box(kb.best(black_box(&objective), black_box(&constraints))))
    });
    group.bench_function(BenchmarkId::from_parameter("linear_reference"), |b| {
        b.iter(|| black_box(kb.best_linear(black_box(&objective), black_box(&constraints))))
    });
    group.finish();
}

fn bench_learn(c: &mut Criterion) {
    let kb = knowledge(2048);
    c.bench_function("kb_learn_2048", |b| {
        let mut kb = kb.clone();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(997);
            kb.learn(
                OperatingPoint::new(config(i % 2048), [("time".to_string(), 1.0)]),
                0.2,
            );
        })
    });
}

fn bench_pareto(c: &mut Criterion) {
    let kb = knowledge(512);
    c.bench_function("kb_pareto_512_2d", |b| {
        b.iter(|| black_box(kb.pareto(black_box(&["time", "energy"]))))
    });
}

fn bench_cache(c: &mut Criterion) {
    let cache = DesignPointCache::new(8);
    let metrics: Metrics = [("time".to_string(), 1.0)].into_iter().collect();
    for i in 0..256 {
        cache.insert(DesignKey::new(&config(i), &[1.0]), metrics.clone());
    }
    let mut reference: BTreeMap<ReferenceKey, Metrics> = BTreeMap::new();
    for i in 0..256 {
        reference.insert(ReferenceKey::new(&config(i), &[1.0]), metrics.clone());
    }
    let mut group = c.benchmark_group("cache_probe");
    group.bench_function(BenchmarkId::from_parameter("hit_structural"), |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(cache.get(&DesignKey::new(&config(i % 256), &[1.0])))
        })
    });
    group.bench_function(BenchmarkId::from_parameter("hit_string_reference"), |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(reference.get(&ReferenceKey::new(&config(i % 256), &[1.0])))
        })
    });
    group.bench_function(BenchmarkId::from_parameter("miss_structural"), |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(cache.get(&DesignKey::new(&config(i % 256), &[9.9])))
        })
    });
    group.finish();
}

/// One learning round of a precision tenant at `now`: a measurement
/// of each of the three metrics half a second earlier, then `adapt`.
/// The measurements stay close enough to the design-time estimates of
/// the deployed 12-bit mantissa that the round learns without
/// switching.
fn kernel_round(manager: &mut AppManager, now: f64) {
    for (metric, value) in [("latency", 0.012), ("error", 2.0e-4), ("power", 6.25)] {
        manager.observe(now - 0.5, metric, value);
    }
    black_box(manager.adapt(now));
}

/// A fresh kernel manager on the process-wide base: its first select
/// and learning round, and the round after it. Setup builds the
/// manager off the clock; dropping it is on the clock in both rows.
fn bench_first_learn(c: &mut Criterion) {
    let mut group = c.benchmark_group("tuner/first_learn");
    group.bench_function(BenchmarkId::from_parameter("select_observe_adapt"), |b| {
        b.iter_with_setup(
            || kernel_manager(1e-3),
            |mut manager| {
                black_box(manager.select());
                kernel_round(&mut manager, 1.0);
                manager
            },
        )
    });
    group.bench_function(BenchmarkId::from_parameter("second_round"), |b| {
        b.iter_with_setup(
            || {
                let mut manager = kernel_manager(1e-3);
                manager.select();
                kernel_round(&mut manager, 1.0);
                manager
            },
            |mut manager| {
                kernel_round(&mut manager, 2.0);
                manager
            },
        )
    });
    group.finish();
}

/// 32 navigation tenants over four archetypes, each asking twice per
/// batch: once the campaign has settled, every request is a cache hit.
fn bench_serve_cache_hit(c: &mut Criterion) {
    const TENANTS: u64 = 32;
    let service = DriverConfig {
        tenants: TENANTS as usize,
        archetypes: 4,
        ..DriverConfig::smoke(2016)
    }
    .campaign()
    .build(NavEvaluator::city(2016));
    let mut batch: Vec<TuningRequest> = (0..2 * TENANTS)
        .map(|slot| TuningRequest {
            tenant: slot % TENANTS,
            arrival_s: slot as f64 / (4 * TENANTS) as f64,
        })
        .collect();
    // each batch one virtual second after the last
    let next = |batch: &mut Vec<TuningRequest>| {
        for request in batch.iter_mut() {
            request.arrival_s += 1.0;
        }
    };
    let all_hits = |report: &BatchReport| {
        report.evaluated == 0
            && report
                .responses
                .iter()
                .all(|r| r.as_ref().is_ok_and(|answer| answer.cache_hit))
    };
    let mut quiet = 0;
    for _ in 0..256 {
        next(&mut batch);
        quiet = if all_hits(&service.serve_batch(&batch)) {
            quiet + 1
        } else {
            0
        };
        if quiet == 8 {
            break;
        }
    }
    assert_eq!(quiet, 8, "the campaign settles onto cached points");
    let mut group = c.benchmark_group("serve/cache_hit");
    group.bench_function(BenchmarkId::from_parameter("nav_batch_64"), |b| {
        b.iter(|| {
            next(&mut batch);
            black_box(service.serve_batch(black_box(&batch)))
        })
    });
    group.finish();
}

/// 64 jobs of a probe that returns a canned evaluation: the batch costs
/// what the pool adds, on as many workers as the group names.
fn bench_pool_dispatch(c: &mut Criterion) {
    let jobs: Vec<EvalJob> = (0..64u64)
        .map(|id| EvalJob {
            id: id as usize,
            tenant: id,
            class: TenantClass::Generic,
            config: config(id),
            features: vec![id as f64],
            trace: TraceCtx::NONE,
        })
        .collect();
    let probe = |job: &EvalJob| Evaluation {
        metrics: Metrics::default(),
        cost_s: 1.0 + job.id as f64,
        energy_j: 0.0,
    };
    let mut group = c.benchmark_group("pool/dispatch");
    for workers in [1, 2, 4] {
        let pool = EvalPool::new(PoolConfig {
            workers,
            queue_capacity: 256,
        });
        group.bench_function(BenchmarkId::new("jobs_64", workers), |b| {
            b.iter_with_setup(
                || jobs.clone(),
                |jobs| pool.evaluate_batch_on(jobs, workers, &probe),
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_select,
    bench_learn,
    bench_pareto,
    bench_cache,
    bench_first_learn,
    bench_serve_cache_hit,
    bench_pool_dispatch
);
criterion_main!(benches);
