//! Property suite for the deterministic work-stealing scheduler.
//!
//! The steal schedule replaced static list scheduling as the pool's
//! dynamic policy. Three properties must hold for the serving tier's
//! determinism contract to survive the change: the discrete-event
//! stealing simulation must agree with an independently written
//! sequential reference on arbitrary heavy-tailed cost vectors; batch
//! outcomes flowing through the full [`EvalPool`] must be invariant in
//! the *physical* worker count; and the steal order must stay total —
//! byte-stable — when estimated loads tie exactly.

use antarex_obs::TraceCtx;
use antarex_serve::pool::{EvalJob, EvalPool, Evaluation, PoolConfig, SchedConfig};
use antarex_serve::store::TenantClass;
use antarex_sim::sched::{steal_schedule, Schedule};
use antarex_sim::workload::lognormal;
use antarex_tuner::{Configuration, KnobValue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An independent sequential reference of the stealing model, written
/// against the documented protocol rather than the production code:
/// guided decreasing-chunk deal, (clock, index)-ordered core steps,
/// back-half steals from the estimated-heaviest victim, stolen chunks
/// re-sorted ascending.
fn reference_steal(costs: &[f64], estimates: &[f64], cores: usize) -> Schedule {
    let n = costs.len();
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); cores];
    let mut next = 0usize;
    let mut turn = 0usize;
    while next < n {
        let chunk = ((n - next) / (2 * cores)).max(1).min(n - next);
        queues[turn % cores].extend(next..next + chunk);
        next += chunk;
        turn += 1;
    }
    let mut clock = vec![0.0f64; cores];
    let mut completions = vec![0.0f64; n];
    let mut assignments = vec![0usize; n];
    let mut remaining = n;
    while remaining > 0 {
        let core = (0..cores)
            .min_by(|&a, &b| clock[a].total_cmp(&clock[b]).then(a.cmp(&b)))
            .unwrap();
        if queues[core].is_empty() {
            let mut victim: Option<usize> = None;
            for (v, queue) in queues.iter().enumerate() {
                if v == core || queue.is_empty() {
                    continue;
                }
                let load: f64 = queue.iter().map(|&j| estimates[j]).sum();
                let better = match victim {
                    None => true,
                    Some(current) => {
                        let current_load: f64 = queues[current].iter().map(|&j| estimates[j]).sum();
                        load > current_load || (load == current_load && v < current)
                    }
                };
                if better {
                    victim = Some(v);
                }
            }
            let victim = victim.expect("jobs remain, so a victim exists");
            let keep = queues[victim].len() - queues[victim].len().div_ceil(2);
            let mut stolen = queues[victim].split_off(keep);
            stolen.sort_unstable();
            queues[core] = stolen;
        }
        let job = queues[core].remove(0);
        clock[core] += costs[job].max(0.0);
        completions[job] = clock[core];
        assignments[job] = core;
        remaining -= 1;
    }
    let makespan_s = clock.iter().fold(0.0f64, |a, &b| a.max(b));
    Schedule {
        completions,
        assignments,
        makespan_s,
        stats: Default::default(),
    }
}

fn heavy_tailed_costs(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| lognormal(rng, 0.0, 1.2)).collect()
}

#[test]
fn stealing_agrees_with_the_reference_on_random_heavy_tails() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..200);
        let cores = rng.gen_range(1..9);
        let costs = heavy_tailed_costs(&mut rng, n);
        // estimates deliberately disagree with costs (stale model):
        // placement follows estimates, execution follows costs
        let estimates: Vec<f64> = costs
            .iter()
            .map(|c| c * lognormal(&mut rng, 0.0, 0.3))
            .collect();
        let got = steal_schedule(&costs, &estimates, cores);
        let want = reference_steal(&costs, &estimates, cores);
        assert_eq!(got.assignments, want.assignments, "seed {seed}");
        assert_eq!(got.completions, want.completions, "seed {seed}");
        assert_eq!(got.makespan_s, want.makespan_s, "seed {seed}");
    }
}

#[test]
fn steal_order_is_total_when_estimated_loads_tie() {
    // every estimate identical: victim choice must fall back to the
    // lowest index, making the schedule a pure function of n and cores
    let costs = vec![1.0; 64];
    let a = steal_schedule(&costs, &costs, 5);
    let b = steal_schedule(&costs, &costs, 5);
    assert_eq!(a.assignments, b.assignments);
    assert_eq!(a.completions, b.completions);
    // and perturbing costs below the estimate layer must not change
    // placement at all — ties break on structure, not noise
    let noisy: Vec<f64> = (0..64).map(|i| 1.0 + (i as f64) * 1e-9).collect();
    let c = steal_schedule(&noisy, &costs, 5);
    assert_eq!(a.assignments, c.assignments, "estimates drive placement");
}

fn pool_digest(physical: usize, virtual_workers: usize) -> String {
    let pool = EvalPool::new(PoolConfig {
        workers: physical,
        queue_capacity: 1024,
    })
    .with_sched(SchedConfig::work_stealing());
    let jobs: Vec<EvalJob> = (0..96u64)
        .map(|id| {
            let mut config = Configuration::new();
            config.set("poses", KnobValue::Int((id % 7) as i64 + 1));
            EvalJob {
                id: id as usize,
                tenant: id,
                config,
                features: vec![id as f64],
                class: TenantClass::Docking,
                trace: TraceCtx::NONE,
            }
        })
        .collect();
    // heavy-tailed pure evaluator: cost depends only on the job
    let outcome = pool.evaluate_batch_on(jobs, virtual_workers, &|job: &EvalJob| {
        let mut rng = StdRng::seed_from_u64(job.tenant);
        let cost = lognormal(&mut rng, 0.0, 1.5);
        Evaluation {
            metrics: [("latency".to_string(), cost)].into_iter().collect(),
            cost_s: cost,
            energy_j: 0.0,
        }
    });
    assert!(
        outcome.stats.steals > 0,
        "a heavy tail is rebalanced by stealing"
    );
    let mut digest = String::new();
    for result in &outcome.results {
        digest.push_str(&format!(
            "{} {:.12} {:.12}\n",
            result.job.tenant, result.completion_s, result.evaluation.cost_s
        ));
    }
    digest.push_str(&format!(
        "makespan {:.12} steals {} stolen {:?}\n",
        outcome.makespan_s, outcome.stats.steals, outcome.stats.stolen_jobs
    ));
    digest
}

#[test]
fn pool_outcomes_are_invariant_in_physical_workers() {
    for virtual_workers in [2usize, 4, 8] {
        let reference = pool_digest(1, virtual_workers);
        for physical in [2usize, 4, 8] {
            assert_eq!(
                pool_digest(physical, virtual_workers),
                reference,
                "physical {physical} leaked into the virtual schedule \
                 at {virtual_workers} virtual workers"
            );
        }
    }
}
