//! Chaos injection for the evaluation pool.
//!
//! On an exascale machine the pool's workers crash, silently slow down
//! ("gray" stragglers), and occasionally hand back bit-flipped results.
//! A [`ChaosConfig`] maps a deterministic [`FaultSchedule`] onto the
//! pool's *virtual* workers, and the service re-places every batch with
//! [`antarex_sim::sched::list_place`] under its [`HedgePolicy`]. This
//! module keeps what belongs to serving: the probe's FNV digest that
//! catches a corrupted result (quarantined, never cached), and the
//! mapping of a placed job's fate to a typed [`ServeError`]. Timing is
//! virtual over evaluations computed once by the pure probe, so a
//! chaotic run is as deterministic as a healthy one.

use crate::error::ServeError;
use crate::pool::Evaluation;
use crate::store::TenantId;
use antarex_sim::faults::FaultSchedule;
use antarex_sim::sched::{Fate, PlacedJob};

pub use antarex_sim::sched::HedgePolicy;

/// Deterministic fault environment of one service instance.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Fault timeline; node *w* of the schedule is virtual worker *w*
    /// of the pool.
    pub schedule: FaultSchedule,
    /// Tenants whose probes always fail the integrity check — the
    /// "poisoned evaluator" scenario the per-tenant circuit breaker
    /// exists to contain.
    pub poisoned_tenants: Vec<TenantId>,
}

impl ChaosConfig {
    /// Chaos driven purely by a fault schedule, no poisoned tenants.
    pub fn new(schedule: FaultSchedule) -> Self {
        ChaosConfig {
            schedule,
            poisoned_tenants: Vec::new(),
        }
    }

    /// Marks a tenant's probes as permanently corrupt.
    pub fn poison(mut self, tenant: TenantId) -> Self {
        self.poisoned_tenants.push(tenant);
        self
    }
}

/// FNV-1a digest of an evaluation — the end-to-end checksum a worker
/// attaches to its result and the merge layer verifies.
pub(crate) fn evaluation_digest(evaluation: &Evaluation) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (metric, value) in &evaluation.metrics {
        eat(metric.as_bytes());
        eat(&value.to_bits().to_le_bytes());
    }
    eat(&evaluation.cost_s.to_bits().to_le_bytes());
    eat(&evaluation.energy_j.to_bits().to_le_bytes());
    hash
}

/// What a data-corruption window does to a result in flight: one bit
/// of the first metric's mantissa flips. Detectable only because the
/// digest was taken before the flip.
pub(crate) fn corrupt_evaluation(evaluation: &Evaluation) -> Evaluation {
    let mut corrupted = evaluation.clone();
    if let Some((_, value)) = corrupted.metrics.iter_mut().next() {
        *value = f64::from_bits(value.to_bits() ^ (1 << 51));
    } else {
        corrupted.cost_s = f64::from_bits(corrupted.cost_s.to_bits() ^ (1 << 51));
    }
    corrupted
}

/// Does the delivered evaluation still match the digest taken at
/// compute time?
pub(crate) fn integrity_ok(delivered: &Evaluation, expected_digest: u64) -> bool {
    evaluation_digest(delivered) == expected_digest
}

/// What a placed job answers: its completion relative to `start_s`,
/// or the typed error that ended it. A job that found no live worker
/// reads as a failure of worker 0.
pub(crate) fn job_result(
    job: &PlacedJob,
    evaluation: &Evaluation,
    start_s: f64,
) -> Result<f64, ServeError> {
    // the end-to-end checksum is what caught every corrupt attempt
    debug_assert!(
        job.corrupt_attempts == 0
            || !integrity_ok(
                &corrupt_evaluation(evaluation),
                evaluation_digest(evaluation)
            )
    );
    match job.fate {
        Fate::Done(t) => Ok(t - start_s),
        Fate::Deadline => Err(ServeError::Deadline),
        Fate::Failed { worker } => Err(ServeError::WorkerFailed { worker }),
        Fate::NoLiveWorker => Err(ServeError::WorkerFailed { worker: 0 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(cost: f64) -> Evaluation {
        Evaluation {
            metrics: [("latency".to_string(), cost)].into_iter().collect(),
            cost_s: cost,
            energy_j: 0.0,
        }
    }

    #[test]
    fn digest_catches_the_bit_flip() {
        let clean = eval(0.25);
        let digest = evaluation_digest(&clean);
        assert!(integrity_ok(&clean, digest));
        let flipped = corrupt_evaluation(&clean);
        assert_ne!(clean, flipped);
        assert!(!integrity_ok(&flipped, digest));
        // a metric-less evaluation corrupts through its cost
        let bare = Evaluation {
            metrics: Default::default(),
            cost_s: 1.0,
            energy_j: 0.0,
        };
        assert!(!integrity_ok(
            &corrupt_evaluation(&bare),
            evaluation_digest(&bare)
        ));
    }
}
