//! Typed errors of the request-serving path.
//!
//! Everything a caller can hit while a request is in flight is an error
//! value, not a panic: the service stays up when one tenant misbehaves.
//! Construction-time contract violations (zero shards, zero workers)
//! remain documented panics, matching the rest of the workspace.

use crate::store::TenantId;
use std::fmt;

/// Why the service could not answer a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The tenant was never registered (or was evicted).
    UnknownTenant(TenantId),
    /// A tenant with this id is already registered.
    TenantExists(TenantId),
    /// Admission control shed the request: the evaluation queue was
    /// full when its probe had to be scheduled.
    Shed {
        /// Queue capacity that was exhausted.
        capacity: usize,
    },
    /// No operating point satisfies the tenant's SLA constraints; the
    /// caller should renegotiate the SLA or escalate to the RTRM.
    Infeasible(TenantId),
    /// The tenant's knowledge base is empty — nothing to select from.
    EmptyKnowledge(TenantId),
    /// Every evaluation attempt of the probe died with its worker (or
    /// failed its result-integrity check and exhausted the retry
    /// budget). The id names the worker of the last failed attempt.
    WorkerFailed {
        /// Virtual worker that ran the last failed attempt.
        worker: usize,
    },
    /// The probe — including retries and hedges — could not produce a
    /// verified result within the request's deadline budget.
    Deadline,
    /// The tenant's circuit breaker is open: its recent probes failed
    /// consecutively, so the service fails fast instead of letting the
    /// poisoned evaluator consume pool capacity. Retry after the
    /// breaker's cooldown.
    CircuitOpen {
        /// Tenant whose breaker tripped.
        tenant: TenantId,
    },
    /// The admission controller rejected the request: the tenant is
    /// burning its SLO error budget too fast (hard shed), or is in the
    /// degraded tier and demanded a fresh probe the cache could not
    /// answer. Unlike [`ServeError::Shed`] this is *deliberate*
    /// backpressure against this tenant, not global queue overflow —
    /// blind retries would stampede a controller that is telling the
    /// tenant to back off, so it is **not retryable** until the
    /// carried hint elapses.
    AdmissionRejected {
        /// The over-budget tenant.
        tenant: TenantId,
        /// Backpressure hint: earliest sensible retry, milliseconds of
        /// virtual time from the rejection (integer so the error stays
        /// `Eq`).
        retry_after_ms: u64,
    },
    /// A caller-supplied configuration violates a construction
    /// contract (zero workers, zero capacity, zero virtual cores). The
    /// legacy constructors still panic; the `try_` paths surface this
    /// instead so embedding callers can keep the process up.
    InvalidConfig {
        /// The violated contract, stated as the legacy panic message.
        reason: &'static str,
    },
}

/// The terminal counter a request that ended in an error lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ErrorCounter {
    /// Load: queue overflow or deliberate backpressure.
    Shed,
    /// An infrastructure fault: the service answered badly.
    Failed,
    /// A tenant contract error.
    Rejected,
}

/// What an error means to the batch that answers with it — the one
/// row the counter bump, the SLO burn tally, the breaker call and the
/// journaled `breaker_feedback` flag all read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ErrorRow {
    /// Which of `served`'s three siblings counts the request.
    pub(crate) counter: ErrorCounter,
    /// Whether the error burns the tenant's SLO error budget at the
    /// front door.
    pub(crate) burns_slo: bool,
    /// Whether the error says the eval path is unhealthy for this
    /// tenant, i.e. counts against its circuit breaker.
    pub(crate) feeds_breaker: bool,
}

impl ServeError {
    /// This error's bookkeeping row. `degraded` is the one contextual
    /// input: whether the request's tenant sat in the degrade tier
    /// when it was admitted.
    ///
    /// An infrastructure failure burns the tenant's budget (the
    /// service answered badly), and unmet probe demand counts too — a
    /// queue overflow on an admitted tenant, or a degraded tenant's
    /// rejected cache miss. That is what escalates an abuser to the
    /// shed tier: a flooding tenant burns even while its probes only
    /// ever overflow the queue, while a tenant mostly served from
    /// cache dilutes the odd overflow below the degrade threshold. A
    /// hard shed burns nothing, so a backed-off tenant decays home.
    /// Only worker faults and missed deadlines feed the breaker; shed,
    /// open circuits, and contract errors do not.
    pub(crate) fn row(&self, degraded: bool) -> ErrorRow {
        use ErrorCounter::{Failed, Rejected, Shed};
        let (counter, burns_slo, feeds_breaker) = match self {
            ServeError::Shed { .. } => (Shed, true, false),
            ServeError::AdmissionRejected { .. } => (Shed, degraded, false),
            ServeError::WorkerFailed { .. } | ServeError::Deadline => (Failed, true, true),
            ServeError::CircuitOpen { .. } => (Failed, false, false),
            ServeError::UnknownTenant(_)
            | ServeError::TenantExists(_)
            | ServeError::Infeasible(_)
            | ServeError::EmptyKnowledge(_)
            | ServeError::InvalidConfig { .. } => (Rejected, false, false),
        };
        ErrorRow {
            counter,
            burns_slo,
            feeds_breaker,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            ServeError::TenantExists(t) => write!(f, "tenant {t} already registered"),
            ServeError::Shed { capacity } => {
                write!(
                    f,
                    "request shed: evaluation queue full (capacity {capacity})"
                )
            }
            ServeError::Infeasible(t) => {
                write!(f, "tenant {t}: no operating point satisfies the SLA")
            }
            ServeError::EmptyKnowledge(t) => {
                write!(f, "tenant {t}: empty knowledge base")
            }
            ServeError::WorkerFailed { worker } => {
                write!(
                    f,
                    "evaluation failed: worker {worker} crashed or corrupted the result"
                )
            }
            ServeError::Deadline => {
                write!(f, "evaluation missed its deadline budget")
            }
            ServeError::CircuitOpen { tenant } => {
                write!(f, "tenant {tenant}: circuit breaker open, failing fast")
            }
            ServeError::AdmissionRejected {
                tenant,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "tenant {tenant}: admission rejected (SLO budget exhausted), \
                     retry after {retry_after_ms} ms"
                )
            }
            ServeError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        assert_eq!(ServeError::UnknownTenant(7).to_string(), "unknown tenant 7");
        assert!(ServeError::Shed { capacity: 8 }
            .to_string()
            .contains("capacity 8"));
        assert!(ServeError::Infeasible(3).to_string().contains("SLA"));
        let boxed: Box<dyn std::error::Error> = Box::new(ServeError::TenantExists(1));
        assert!(boxed.to_string().contains("already registered"));
        assert!(ServeError::WorkerFailed { worker: 2 }
            .to_string()
            .contains("worker 2"));
        assert!(ServeError::Deadline.to_string().contains("deadline"));
        assert!(ServeError::CircuitOpen { tenant: 5 }
            .to_string()
            .contains("breaker open"));
        let rejected = ServeError::AdmissionRejected {
            tenant: 11,
            retry_after_ms: 5000,
        };
        assert!(rejected.to_string().contains("tenant 11"));
        assert!(rejected.to_string().contains("retry after 5000 ms"));
        assert_eq!(
            ServeError::InvalidConfig {
                reason: "pool needs at least one worker"
            }
            .to_string(),
            "invalid configuration: pool needs at least one worker"
        );
    }

    /// The policy as one table, a line per variant — a change of
    /// policy is a one-line diff here. An admission rejection is the
    /// row to watch: it burns only for a degraded tenant.
    #[test]
    fn every_variant_has_its_row() {
        use ErrorCounter::{Failed, Rejected, Shed};
        const T: bool = true;
        const F: bool = false;
        let rejected = ServeError::AdmissionRejected {
            tenant: 1,
            retry_after_ms: 1000,
        };
        let invalid = ServeError::InvalidConfig {
            reason: "queue capacity must be positive",
        };
        // error, counter, burns, burns if degraded, feeds breaker
        let table = [
            (ServeError::UnknownTenant(1), Rejected, F, F, F),
            (ServeError::TenantExists(1), Rejected, F, F, F),
            (ServeError::Shed { capacity: 4 }, Shed, T, T, F),
            (ServeError::Infeasible(1), Rejected, F, F, F),
            (ServeError::EmptyKnowledge(1), Rejected, F, F, F),
            (ServeError::WorkerFailed { worker: 0 }, Failed, T, T, T),
            (ServeError::Deadline, Failed, T, T, T),
            (ServeError::CircuitOpen { tenant: 1 }, Failed, F, F, F),
            (rejected, Shed, F, T, F),
            (invalid, Rejected, F, F, F),
        ];
        for (error, counter, burns, burns_degraded, feeds_breaker) in table {
            for (degraded, burns_slo) in [(false, burns), (true, burns_degraded)] {
                let row = ErrorRow {
                    counter,
                    burns_slo,
                    feeds_breaker,
                };
                assert_eq!(error.row(degraded), row, "{error:?}, degraded={degraded}");
            }
        }
    }
}
