//! Per-tenant circuit breakers for the serving tier.
//!
//! A tenant whose probes keep dying — a poisoned evaluator, a design
//! space that lands on a corrupted worker class, a deadline budget far
//! below its probe cost — would otherwise consume pool capacity on
//! every batch, retrying and hedging work that is doomed. The breaker
//! contains the blast radius: after
//! [`BreakerConfig::failure_threshold`] *consecutive* transient
//! failures the tenant's circuit opens and its requests fail fast with
//! [`ServeError::CircuitOpen`](crate::ServeError::CircuitOpen) —
//! costing a cache-lookup, not a probe. After
//! [`BreakerConfig::cooldown_s`] of virtual time the circuit goes
//! half-open: one trial request is admitted; its success (repeated
//! [`BreakerConfig::half_open_successes`] times) closes the circuit,
//! its failure re-opens it for another cooldown.
//!
//! The state machine is driven entirely by virtual timestamps, so
//! breaker trips are as reproducible as everything else in the stack.

use crate::store::TenantId;
use antarex_obs::Counter;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Tuning of one circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive transient failures that open the circuit; 0 disables
    /// the breaker entirely (requests always admitted).
    pub failure_threshold: u32,
    /// Virtual seconds an open circuit waits before going half-open.
    pub cooldown_s: f64,
    /// Successful trials required to close a half-open circuit.
    pub half_open_successes: u32,
}

impl BreakerConfig {
    /// The hardened default: open after 3 consecutive failures, retry
    /// one trial after 5 virtual seconds, close after 2 clean trials.
    pub(crate) fn hardened() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_s: 5.0,
            half_open_successes: 2,
        }
    }

    /// Breaker disabled: every request admitted, failures ignored.
    pub fn disabled() -> Self {
        BreakerConfig {
            failure_threshold: 0,
            cooldown_s: 0.0,
            half_open_successes: 1,
        }
    }
}

/// Breaker state; the classic three-state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum BreakerState {
    /// Requests flow; counting consecutive failures.
    Closed {
        /// Transient failures since the last success.
        consecutive_failures: u32,
    },
    /// Requests fail fast until the cooldown elapses.
    Open {
        /// Virtual time the circuit opened.
        since_s: f64,
    },
    /// Trial requests admitted; counting successes toward closing.
    HalfOpen {
        /// Clean trials so far.
        successes: u32,
    },
}

/// One tenant's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Total number of times the circuit opened (for reporting).
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub(crate) fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed {
                consecutive_failures: 0,
            },
            trips: 0,
        }
    }

    /// How many times the circuit has opened.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// May a request for this tenant proceed at virtual time `now_s`?
    /// Transitions open → half-open when the cooldown has elapsed.
    pub(crate) fn allow(&mut self, now_s: f64) -> bool {
        if self.config.failure_threshold == 0 {
            return true;
        }
        match self.state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen { .. } => true,
            BreakerState::Open { since_s } => {
                if now_s - since_s >= self.config.cooldown_s {
                    self.state = BreakerState::HalfOpen { successes: 0 };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successfully served request.
    pub(crate) fn on_success(&mut self, _now_s: f64) {
        if self.config.failure_threshold == 0 {
            return;
        }
        match self.state {
            BreakerState::Closed { .. } => {
                self.state = BreakerState::Closed {
                    consecutive_failures: 0,
                };
            }
            BreakerState::HalfOpen { successes } => {
                let successes = successes + 1;
                if successes >= self.config.half_open_successes {
                    self.state = BreakerState::Closed {
                        consecutive_failures: 0,
                    };
                } else {
                    self.state = BreakerState::HalfOpen { successes };
                }
            }
            BreakerState::Open { .. } => {} // stale feedback, ignore
        }
    }

    /// Records a transient (retryable) failure of a served request at
    /// virtual time `now_s`. Contract errors (unknown tenant,
    /// infeasible SLA) must not be fed here — they say nothing about
    /// the health of the evaluation path.
    pub(crate) fn on_failure(&mut self, now_s: f64) {
        if self.config.failure_threshold == 0 {
            return;
        }
        match self.state {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                let consecutive_failures = consecutive_failures + 1;
                if consecutive_failures >= self.config.failure_threshold {
                    self.state = BreakerState::Open { since_s: now_s };
                    self.trips += 1;
                } else {
                    self.state = BreakerState::Closed {
                        consecutive_failures,
                    };
                }
            }
            BreakerState::HalfOpen { .. } => {
                // the trial failed: straight back to open
                self.state = BreakerState::Open { since_s: now_s };
                self.trips += 1;
            }
            BreakerState::Open { .. } => {}
        }
    }

    /// Compact deterministic state label for reports: `closed(n)`,
    /// `open(t)`, or `half-open(n)`.
    pub(crate) fn state_label(&self) -> String {
        match self.state {
            BreakerState::Closed {
                consecutive_failures,
            } => format!("closed({consecutive_failures})"),
            BreakerState::Open { since_s } => format!("open({since_s:.3})"),
            BreakerState::HalfOpen { successes } => format!("half-open({successes})"),
        }
    }
}

/// The service's breaker bank: one breaker per tenant, created lazily,
/// behind a single mutex (breaker updates are tiny compared to probes).
///
/// The bank keeps the total trip count in a shareable [`Counter`]: per-
/// tenant trips live on each [`CircuitBreaker`] (they are part of the
/// crash-recovery snapshot), and every trip observed inside
/// `with` is mirrored onto the counter, so the
/// metric registry and [`total_trips`](BreakerBank::total_trips) read
/// the same cell instead of re-summing the map.
#[derive(Debug)]
pub struct BreakerBank {
    config: BreakerConfig,
    breakers: Mutex<BTreeMap<TenantId, CircuitBreaker>>,
    trips: Counter,
}

impl BreakerBank {
    /// An empty bank; breakers materialize on first touch. The trip
    /// counter is standalone (not yet visible on any registry).
    pub fn new(config: BreakerConfig) -> Self {
        Self::with_trip_counter(config, Counter::new())
    }

    /// An empty bank whose aggregate trip count lands in the given
    /// counter handle — typically one registered on a metric registry.
    pub(crate) fn with_trip_counter(config: BreakerConfig, trips: Counter) -> Self {
        BreakerBank {
            config,
            breakers: Mutex::new(BTreeMap::new()),
            trips,
        }
    }

    /// Whether breakers are live at all. A disabled bank is never fed:
    /// feedback would materialize breakers that can never trip.
    pub(crate) fn enabled(&self) -> bool {
        self.config.failure_threshold > 0
    }

    /// Runs `f` on the tenant's breaker (creating it closed if absent).
    /// Trips that happen inside `f` are mirrored onto the bank's trip
    /// counter.
    pub(crate) fn with<R>(&self, tenant: TenantId, f: impl FnOnce(&mut CircuitBreaker) -> R) -> R {
        let mut breakers = self.breakers.lock().expect("breaker bank poisoned");
        let breaker = breakers
            .entry(tenant)
            .or_insert_with(|| CircuitBreaker::new(self.config));
        let trips_before = breaker.trips();
        let result = f(breaker);
        let tripped = breaker.trips() - trips_before;
        if tripped > 0 {
            self.trips.add(tripped);
        }
        result
    }

    /// Snapshot of every tenant's breaker, sorted by tenant id.
    pub fn snapshot(&self) -> Vec<(TenantId, CircuitBreaker)> {
        let breakers = self.breakers.lock().expect("breaker bank poisoned");
        breakers.iter().map(|(&t, &b)| (t, b)).collect()
    }

    /// Restores the bank to an exact prior state (crash recovery),
    /// syncing the trip counter to the restored per-breaker totals.
    pub fn restore(&self, states: &[(TenantId, CircuitBreaker)]) {
        let mut breakers = self.breakers.lock().expect("breaker bank poisoned");
        breakers.clear();
        for &(tenant, breaker) in states {
            breakers.insert(tenant, breaker);
        }
        self.trips.store(breakers.values().map(|b| b.trips()).sum());
    }

    /// Total circuit trips across all tenants — a read of the shared
    /// trip counter, which `with` and
    /// [`restore`](BreakerBank::restore) keep equal to the sum of
    /// per-breaker trips.
    pub fn total_trips(&self) -> u64 {
        self.trips.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_opens_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(BreakerConfig::hardened());
        assert!(b.allow(0.0));
        b.on_failure(0.1);
        b.on_failure(0.2);
        assert!(b.allow(0.3), "below threshold stays closed");
        b.on_failure(0.3);
        assert_eq!(b.state, BreakerState::Open { since_s: 0.3 });
        assert!(!b.allow(0.4), "open fails fast");
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(BreakerConfig::hardened());
        b.on_failure(0.1);
        b.on_failure(0.2);
        b.on_success(0.3); // streak broken
        b.on_failure(0.4);
        b.on_failure(0.5);
        assert!(b.allow(0.6), "non-consecutive failures never open");
    }

    #[test]
    fn open_goes_half_open_after_cooldown_then_closes_on_trials() {
        let config = BreakerConfig {
            failure_threshold: 1,
            cooldown_s: 5.0,
            half_open_successes: 2,
        };
        let mut b = CircuitBreaker::new(config);
        b.on_failure(1.0);
        assert!(!b.allow(3.0), "cooldown not elapsed");
        assert!(b.allow(6.0), "half-open admits a trial");
        assert_eq!(b.state, BreakerState::HalfOpen { successes: 0 });
        b.on_success(6.1);
        assert_eq!(b.state, BreakerState::HalfOpen { successes: 1 });
        b.on_success(6.2);
        assert_eq!(
            b.state,
            BreakerState::Closed {
                consecutive_failures: 0
            }
        );
    }

    #[test]
    fn failed_trial_reopens_the_circuit() {
        let config = BreakerConfig {
            failure_threshold: 1,
            cooldown_s: 5.0,
            half_open_successes: 1,
        };
        let mut b = CircuitBreaker::new(config);
        b.on_failure(0.0);
        assert!(b.allow(5.0), "half-open at exactly the cooldown");
        b.on_failure(5.5);
        assert_eq!(b.state, BreakerState::Open { since_s: 5.5 });
        assert_eq!(b.trips(), 2);
        assert!(!b.allow(6.0));
    }

    #[test]
    fn disabled_breaker_never_opens() {
        let mut b = CircuitBreaker::new(BreakerConfig::disabled());
        for i in 0..100 {
            b.on_failure(i as f64);
        }
        assert!(b.allow(100.0));
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn bank_isolates_tenants_and_round_trips_snapshots() {
        let bank = BreakerBank::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_s: 10.0,
            half_open_successes: 1,
        });
        bank.with(7, |b| b.on_failure(1.0));
        assert!(!bank.with(7, |b| b.allow(2.0)), "tenant 7 tripped");
        assert!(bank.with(8, |b| b.allow(2.0)), "tenant 8 untouched");
        assert_eq!(bank.total_trips(), 1);

        let snapshot = bank.snapshot();
        let restored = BreakerBank::new(bank.config);
        restored.restore(&snapshot);
        assert!(!restored.with(7, |b| b.allow(2.0)));
        assert!(restored.with(8, |b| b.allow(2.0)));
        assert_eq!(restored.snapshot(), snapshot);
    }

    #[test]
    fn bank_trip_counter_mirrors_per_breaker_trips() {
        let config = BreakerConfig {
            failure_threshold: 1,
            cooldown_s: 10.0,
            half_open_successes: 1,
        };
        let registry = antarex_obs::MetricsRegistry::new();
        let counter = registry.counter("breaker-test_trips_total", antarex_obs::Scope::Invariant);
        let bank = BreakerBank::with_trip_counter(config, counter.clone());
        bank.with(1, |b| b.on_failure(0.0));
        bank.with(2, |b| b.on_failure(0.0));
        assert_eq!(counter.get(), 2, "registry sees every trip");
        assert_eq!(bank.total_trips(), 2);

        // restore syncs the counter to the snapshot's totals
        let snapshot = bank.snapshot();
        let other = BreakerBank::with_trip_counter(
            config,
            registry.counter(
                "breaker-test_trips_restored_total",
                antarex_obs::Scope::Invariant,
            ),
        );
        other.restore(&snapshot);
        assert_eq!(other.total_trips(), 2);
    }

    #[test]
    fn state_labels_are_deterministic() {
        let mut b = CircuitBreaker::new(BreakerConfig::hardened());
        assert_eq!(b.state_label(), "closed(0)");
        b.on_failure(0.25);
        assert_eq!(b.state_label(), "closed(1)");
        b.on_failure(0.5);
        b.on_failure(0.75);
        assert_eq!(b.state_label(), "open(0.750)");
        assert!(b.allow(10.0));
        assert_eq!(b.state_label(), "half-open(0)");
    }
}
