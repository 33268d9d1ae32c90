//! Workload generators.
//!
//! The drug-discovery use case (paper §VII-a) is "massively parallel, but
//! demonstrates unpredictable imbalances in the computational time,
//! since the verification of each point in the solution space requires a
//! widely varying time" — a heavy-tailed per-task cost distribution. The
//! navigation use case (§VII-b) sees a time-varying request load with
//! rush-hour peaks.

use crate::job::{Job, Task, WorkUnit};
use rand::Rng;

/// Standard normal draw via Box–Muller.
pub(crate) fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Lognormal draw with the given log-scale parameters.
pub fn lognormal(rng: &mut impl Rng, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * gaussian(rng)).exp()
}

/// Exponential draw with the given rate (events per unit time).
///
/// # Panics
///
/// Panics if `rate` is not positive.
pub fn exponential(rng: &mut impl Rng, rate: f64) -> f64 {
    assert!(rate > 0.0, "rate must be positive");
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

/// Generates a heavy-tailed docking-like sweep: lognormal per-task flops
/// around `median_flops` with log-σ `sigma` (σ ≈ 1.0 gives the ~50×
/// head-to-tail spread typical of docking scoring).
pub fn docking_tasks(count: usize, median_flops: f64, sigma: f64, rng: &mut impl Rng) -> Vec<Task> {
    (0..count)
        .map(|i| Task {
            id: i as u64,
            work: WorkUnit::with_intensity(median_flops * lognormal(rng, 0.0, sigma), 8.0),
        })
        .collect()
}

/// Generates Poisson job arrivals over `[0, horizon_s]` at `rate_per_s`,
/// each requesting `nodes` nodes with the given per-node work.
pub fn poisson_jobs(
    rate_per_s: f64,
    horizon_s: f64,
    nodes: usize,
    work_per_node: WorkUnit,
    rng: &mut impl Rng,
) -> Vec<Job> {
    let mut jobs = Vec::new();
    let mut t = 0.0;
    let mut id = 0;
    loop {
        t += exponential(rng, rate_per_s);
        if t > horizon_s {
            break;
        }
        jobs.push(Job::new(id, t, nodes, work_per_node));
        id += 1;
    }
    jobs
}

/// Request intensity multiplier over a day with two rush hours
/// (07–09 and 16–19), between 1.0 (night) and `peak` at the rush peaks.
pub fn rush_hour_profile(time_of_day_s: f64, peak: f64) -> f64 {
    let hour = (time_of_day_s / 3600.0).rem_euclid(24.0);
    let bump = |center: f64, width: f64| -> f64 {
        let d = (hour - center) / width;
        (-d * d).exp()
    };
    1.0 + (peak - 1.0) * (bump(8.0, 1.2) + bump(17.5, 1.6)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn docking_tasks_are_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(99);
        let tasks = docking_tasks(2000, 1e9, 1.0, &mut rng);
        let mut flops: Vec<f64> = tasks.iter().map(|t| t.work.flops).collect();
        flops.sort_by(f64::total_cmp);
        let median = flops[flops.len() / 2];
        let p99 = flops[(flops.len() as f64 * 0.99) as usize];
        assert!((0.7e9..1.4e9).contains(&median), "median {median}");
        assert!(p99 / median > 5.0, "tail ratio {}", p99 / median);
        // mean exceeds median (right skew)
        let mean = flops.iter().sum::<f64>() / flops.len() as f64;
        assert!(mean > median);
    }

    #[test]
    fn poisson_arrivals_are_ordered_and_bounded() {
        let mut rng = StdRng::seed_from_u64(5);
        let jobs = poisson_jobs(0.1, 1000.0, 2, WorkUnit::compute_bound(1e12), &mut rng);
        assert!(!jobs.is_empty());
        assert!(jobs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(jobs.iter().all(|j| j.arrival_s <= 1000.0));
        // expected count ~100
        assert!((50..170).contains(&jobs.len()), "{} arrivals", jobs.len());
    }

    #[test]
    fn rush_hour_profile_peaks_at_rush() {
        let morning_rush = rush_hour_profile(8.0 * 3600.0, 5.0);
        let night = rush_hour_profile(3.0 * 3600.0, 5.0);
        let evening_rush = rush_hour_profile(17.5 * 3600.0, 5.0);
        assert!(morning_rush > 4.0);
        assert!(evening_rush > 4.0);
        assert!(night < 1.2);
        // wraps around midnight
        assert!((rush_hour_profile(0.0, 5.0) - rush_hour_profile(24.0 * 3600.0, 5.0)).abs() < 1e-9);
    }

    #[test]
    fn distributions_have_plausible_moments() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 20_000;
        let mean_exp: f64 = (0..n).map(|_| exponential(&mut rng, 2.0)).sum::<f64>() / n as f64;
        assert!((mean_exp - 0.5).abs() < 0.02, "exp mean {mean_exp}");
        let mean_gauss: f64 = (0..n).map(|_| gaussian(&mut rng)).sum::<f64>() / n as f64;
        assert!(mean_gauss.abs() < 0.03, "gauss mean {mean_gauss}");
    }
}
