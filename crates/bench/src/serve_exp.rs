//! Experiment S1: autotuning-as-a-service scaling.
//!
//! Exercises the multi-tenant serving tier (`antarex_serve`) end to
//! end: sharded tenant sessions, the memoized design-point cache, and
//! the parallel evaluation pool —
//!
//! 1. **Service scaling grid** — the deterministic request driver sweeps
//!    tenant count × pool worker count, reporting served/shed counts,
//!    cache hit rate, virtual throughput and latency percentiles. Only
//!    pool timing depends on the worker count; every other column is
//!    byte-identical down a worker column, which is the determinism
//!    argument made observable.
//! 2. **Batched-evaluation benchmark** — one batch of all-distinct
//!    design points (every tenant its own workload archetype, so the
//!    cache cannot help), served at 1 worker and again at N workers:
//!    the virtual makespan ratio is the pool speedup.
//! 3. **Facility power split** — the aggregate power demand the tenants
//!    report is split across sessions by the RTRM's weighted capper.
//!
//! Everything is seeded: the same seed reproduces the identical report,
//! byte for byte (the determinism test relies on it).

use antarex_serve::driver::{Batching, Campaign, Cohort, DriveStats};
use antarex_serve::nav::NavEvaluator;
use antarex_serve::TuningRequest;
use std::fmt::Write as _;

/// Size of one S1 run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServeScale {
    /// Tenant counts swept by the scaling grid.
    pub tenant_counts: &'static [usize],
    /// Pool worker counts swept by the scaling grid.
    pub worker_counts: &'static [usize],
    /// Virtual duration of each driven run, seconds.
    pub duration_s: f64,
    /// Mean request rate per tenant, Hz.
    pub rate_per_tenant_hz: f64,
    /// Tenants (= distinct design points) in the batched-evaluation
    /// benchmark.
    pub batch_tenants: usize,
}

impl ServeScale {
    /// The full grid printed by the `s1` experiment.
    pub(crate) fn full() -> Self {
        ServeScale {
            tenant_counts: &[8, 32, 64],
            worker_counts: &[1, 2, 4, 8],
            duration_s: 120.0,
            rate_per_tenant_hz: 0.5,
            batch_tenants: 64,
        }
    }

    /// A tiny grid for smoke testing in `cargo test`.
    pub(crate) fn tiny() -> Self {
        ServeScale {
            tenant_counts: &[6],
            worker_counts: &[1, 4],
            duration_s: 30.0,
            rate_per_tenant_hz: 0.4,
            batch_tenants: 12,
        }
    }
}

/// The grid's driven campaign at one (tenants, workers) cell.
fn campaign(seed: u64, scale: &ServeScale, tenants: usize, workers: usize) -> Campaign {
    let archetypes = (tenants / 4).max(2);
    Campaign {
        cohorts: vec![Cohort::new(tenants, archetypes, scale.rate_per_tenant_hz)],
        ..Campaign::new(seed, scale.duration_s, Batching::Window(10.0))
    }
    .workers(workers)
}

/// Runs one driven workload: the stats of a grid row. Only pool timing
/// depends on `workers`.
pub(crate) fn scaling_row(
    seed: u64,
    scale: &ServeScale,
    tenants: usize,
    workers: usize,
) -> DriveStats {
    campaign(seed, scale, tenants, workers)
        .run(NavEvaluator::city(seed))
        .1
}

/// Result of the batched-evaluation benchmark.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BatchBench {
    /// Distinct design points evaluated per run.
    pub jobs: usize,
    /// Virtual makespan with a single worker, seconds.
    pub serial_makespan_s: f64,
    /// Virtual makespan with `workers` workers, seconds.
    pub parallel_makespan_s: f64,
    /// Workers in the parallel run.
    pub workers: usize,
}

impl BatchBench {
    /// Serial over parallel makespan.
    pub(crate) fn speedup(&self) -> f64 {
        if self.parallel_makespan_s > 0.0 {
            self.serial_makespan_s / self.parallel_makespan_s
        } else {
            0.0
        }
    }

    /// Evaluations per second of virtual makespan in the parallel run.
    pub(crate) fn parallel_throughput_rps(&self) -> f64 {
        if self.parallel_makespan_s > 0.0 {
            self.jobs as f64 / self.parallel_makespan_s
        } else {
            0.0
        }
    }
}

/// One batch where every tenant carries a distinct workload archetype,
/// so every request is a genuine cache miss: the purest view of the
/// evaluation pool. The batch is served once on one worker and once on
/// `workers`; both runs see identical jobs.
pub(crate) fn batched_evaluation(seed: u64, tenants: usize, workers: usize) -> BatchBench {
    let run = |pool_workers: usize| {
        // all-distinct features: the cache cannot help; the batch below
        // stands in for arrivals
        let service = Campaign {
            cohorts: vec![Cohort::new(tenants, tenants, 0.0)],
            ..Campaign::new(seed, 1.0, Batching::Count(tenants))
        }
        .workers(pool_workers)
        .build(NavEvaluator::city(seed));
        let requests: Vec<TuningRequest> = (0..tenants as u64)
            .map(|tenant| TuningRequest {
                tenant,
                arrival_s: 0.0,
            })
            .collect();
        service.serve_batch(&requests)
    };
    let serial = run(1);
    let parallel = run(workers);
    assert_eq!(serial.evaluated, parallel.evaluated, "same jobs either way");
    BatchBench {
        jobs: parallel.evaluated,
        serial_makespan_s: serial.makespan_s,
        parallel_makespan_s: parallel.makespan_s,
        workers,
    }
}

/// Renders the full S1 report for one seed and scale.
pub(crate) fn s1_report(seed: u64, scale: &ServeScale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "service scaling grid (seed {seed}, {:.0} s virtual, {:.2} Hz/tenant)",
        scale.duration_s, scale.rate_per_tenant_hz
    );
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>9} {:>7} {:>6} {:>6} {:>7} {:>11} {:>9}",
        "tenants", "workers", "requests", "served", "shed", "evald", "hit%", "thruput/s", "p95 ms"
    );
    for &tenants in scale.tenant_counts {
        for &workers in scale.worker_counts {
            let row = scaling_row(seed, scale, tenants, workers);
            let _ = writeln!(
                out,
                "{:>8} {:>8} {:>9} {:>7} {:>6} {:>6} {:>6.1}% {:>11.1} {:>9.1}",
                tenants,
                workers,
                row.requests,
                row.served,
                row.shed,
                row.evaluated,
                100.0 * row.cache_hit_rate(),
                row.throughput_rps(),
                1e3 * row.p95_latency_s,
            );
        }
    }

    let _ = writeln!(
        out,
        "\nbatched evaluation ({} distinct design points, no cache reuse)",
        scale.batch_tenants
    );
    for &workers in scale.worker_counts {
        let bench = batched_evaluation(seed, scale.batch_tenants, workers.max(1));
        let label = if workers == 1 { "worker " } else { "workers" };
        let _ = writeln!(
            out,
            "  {workers:>2} {label}: makespan {:>8.3} s  ({:>6.1} eval/s, {:.2}x vs 1 worker)",
            bench.parallel_makespan_s,
            bench.parallel_throughput_rps(),
            bench.speedup(),
        );
    }

    // facility power split over the sessions of the largest driven run
    let tenants = scale.tenant_counts.iter().copied().max().unwrap_or(8);
    let (service, _) = campaign(seed, scale, tenants, 4).run(NavEvaluator::city(seed));
    let demand_w = service.aggregate_power_demand_w();
    let budget_w = 0.6 * demand_w;
    let _ = writeln!(
        out,
        "\nfacility power split ({tenants} tenants): demand {demand_w:.1} W, budget {budget_w:.1} W"
    );
    match service.power_split(budget_w) {
        Some(split) => {
            let granted: f64 = split.iter().map(|(_, w)| w).sum();
            let min = split.iter().map(|(_, w)| *w).fold(f64::INFINITY, f64::min);
            let max = split.iter().map(|(_, w)| *w).fold(0.0, f64::max);
            let _ = writeln!(
                out,
                "  granted {granted:.1} W across {} sessions (min {min:.1} W, max {max:.1} W)",
                split.len()
            );
        }
        None => {
            let _ = writeln!(out, "  budget below the idle floor: split refused");
        }
    }
    out
}

/// The registered `s1` experiment.
pub(crate) fn s1_service_scaling() -> String {
    s1_report(42, &ServeScale::full())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_report_is_deterministic() {
        let a = s1_report(3, &ServeScale::tiny());
        let b = s1_report(3, &ServeScale::tiny());
        assert_eq!(a, b, "same seed must reproduce the report byte for byte");
        assert_ne!(a, s1_report(4, &ServeScale::tiny()));
    }

    #[test]
    fn batched_evaluation_speeds_up_with_workers() {
        let bench = batched_evaluation(5, 12, 4);
        assert_eq!(bench.jobs, 12, "all-distinct archetypes must all probe");
        assert!(
            bench.speedup() >= 2.0,
            "4 workers must halve the virtual makespan, got {:.2}x",
            bench.speedup()
        );
    }

    #[test]
    fn scaling_rows_share_counts_across_worker_counts() {
        let scale = ServeScale::tiny();
        let one = scaling_row(9, &scale, 6, 1);
        let four = scaling_row(9, &scale, 6, 4);
        // only pool timing may differ down a worker column
        assert_eq!(one.requests, four.requests);
        assert_eq!(one.served, four.served);
        assert_eq!(one.evaluated, four.evaluated);
        assert_eq!(one.cache_hit_rate(), four.cache_hit_rate());
        assert!(four.throughput_rps() >= one.throughput_rps());
    }
}
