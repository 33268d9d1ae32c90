//! Virtual-time autoscaling of the evaluation pool's capacity.
//!
//! The autoscaler closes the resource half of the control loop: it
//! watches the two overload signals the batch path produces — probe
//! queue depth and the admission controller's worst admitted-tenant
//! burn — and resizes the pool's *virtual* worker capacity between
//! configured bounds. Growth is multiplicative (a burst doubles
//! capacity per decision) and shrink is additive (one worker at a
//! time), the classic asymmetry that absorbs spikes fast and releases
//! capacity cautiously; a cooldown window between decisions keeps the
//! loop from chasing its own transients.
//!
//! Determinism contract: decisions key off **work content** (how many
//! probes this window queued, how hot the SLO burn is) and **virtual
//! time** — never wall placement or physical thread count. The scaled
//! capacity feeds [`EvalPool::evaluate_batch_on`](crate::pool::EvalPool::evaluate_batch_on)
//! as the *virtual* core count while the physical thread count stays
//! fixed at the pool's configuration, so a scaled run's outputs are
//! byte-identical at 1, 2, 4, or 8 real threads — the same invariance
//! s1/r2/p1/o1 gate, now with a moving capacity. Every decision is
//! journaled and the full state snapshots, so crash recovery replays
//! scaling bit-identically.

use std::sync::Mutex;

/// Tuning of the autoscaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Floor on virtual capacity (also the starting capacity).
    pub min_workers: usize,
    /// Ceiling on virtual capacity.
    pub max_workers: usize,
    /// Queued probes per virtual worker above which capacity grows.
    pub queue_high: f64,
    /// Queued probes per virtual worker below which capacity may
    /// shrink (must sit below `queue_high` — the hysteresis band).
    pub queue_low: f64,
    /// Worst admitted-tenant burn above which capacity grows even
    /// with a modest queue (latency pain without queue growth).
    pub burn_high: f64,
    /// Minimum virtual time between scaling decisions.
    pub cooldown_s: f64,
}

impl AutoscaleConfig {
    /// The hardened profile: 4–32 virtual workers, grow past 4 queued
    /// probes per worker or 8× admitted burn, shrink below 1 per
    /// worker, 4 s cooldown.
    pub fn hardened() -> Self {
        AutoscaleConfig {
            min_workers: 4,
            max_workers: 32,
            queue_high: 4.0,
            queue_low: 1.0,
            burn_high: 8.0,
            cooldown_s: 4.0,
        }
    }

    fn validate(&self) {
        assert!(self.min_workers > 0, "need at least one virtual worker");
        assert!(
            self.max_workers >= self.min_workers,
            "max capacity below min"
        );
        assert!(
            self.queue_low < self.queue_high,
            "queue thresholds need hysteresis (low < high)"
        );
        assert!(self.cooldown_s >= 0.0, "cooldown must be non-negative");
    }
}

/// The autoscaler's full state — part of the crash-recovery snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerState {
    /// Current virtual worker capacity.
    pub capacity: usize,
    /// Virtual time of the last capacity change (−∞ before the first).
    pub last_change_s: f64,
    /// Scale-up decisions taken.
    pub scale_ups: u64,
    /// Scale-down decisions taken.
    pub scale_downs: u64,
}

/// The evaluation pool's capacity governor.
#[derive(Debug)]
pub struct Autoscaler {
    config: AutoscaleConfig,
    state: Mutex<AutoscalerState>,
}

impl Autoscaler {
    /// An autoscaler starting at `min_workers` capacity.
    ///
    /// # Panics
    ///
    /// Panics when the config is inconsistent (zero capacity, max
    /// below min, no hysteresis band).
    pub fn new(config: AutoscaleConfig) -> Self {
        config.validate();
        Autoscaler {
            config,
            state: Mutex::new(AutoscalerState {
                capacity: config.min_workers,
                last_change_s: f64::NEG_INFINITY,
                scale_ups: 0,
                scale_downs: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AutoscalerState> {
        crate::lock_or_recover(&self.state)
    }

    /// The current virtual worker capacity.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Takes one scaling decision at virtual time `now_s` given this
    /// window's queued probe count and the admission plane's worst
    /// admitted burn. Returns the new capacity when it changed.
    pub(crate) fn decide(&self, now_s: f64, queue_depth: usize, burn: f64) -> Option<usize> {
        let mut state = self.lock();
        if now_s - state.last_change_s < self.config.cooldown_s {
            return None;
        }
        let per_worker = queue_depth as f64 / state.capacity as f64;
        let next = if (per_worker > self.config.queue_high || burn > self.config.burn_high)
            && state.capacity < self.config.max_workers
        {
            (state.capacity * 2).min(self.config.max_workers)
        } else if per_worker < self.config.queue_low
            && burn <= self.config.burn_high
            && state.capacity > self.config.min_workers
        {
            state.capacity - 1
        } else {
            return None;
        };
        self.commit(&mut state, now_s, next);
        Some(next)
    }

    /// Applies a journaled scaling decision during replay — the same
    /// commit the live `decide` ended in.
    pub(crate) fn force(&self, now_s: f64, capacity: usize) {
        self.commit(&mut self.lock(), now_s, capacity);
    }

    /// The one body of a capacity change: the up/down tally follows
    /// the capacity delta, the capacity stays within the configured
    /// bounds, and the decision clock restarts.
    fn commit(&self, state: &mut AutoscalerState, now_s: f64, capacity: usize) {
        if capacity > state.capacity {
            state.scale_ups += 1;
        } else if capacity < state.capacity {
            state.scale_downs += 1;
        }
        state.capacity = capacity.clamp(self.config.min_workers, self.config.max_workers);
        state.last_change_s = now_s;
    }

    /// The full state — what the journal's snapshot persists.
    pub(crate) fn snapshot(&self) -> AutoscalerState {
        *self.lock()
    }

    /// Restores the autoscaler to an exact prior state (crash
    /// recovery).
    pub fn restore(&self, state: AutoscalerState) {
        *self.lock() = state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaler() -> Autoscaler {
        Autoscaler::new(AutoscaleConfig::hardened())
    }

    #[test]
    fn starts_at_the_floor() {
        assert_eq!(scaler().capacity(), 4);
    }

    #[test]
    fn deep_queue_doubles_capacity_up_to_the_ceiling() {
        let s = scaler();
        assert_eq!(s.decide(0.0, 100, 0.0), Some(8));
        assert_eq!(s.decide(10.0, 100, 0.0), Some(16));
        assert_eq!(s.decide(20.0, 200, 0.0), Some(32));
        assert_eq!(s.decide(30.0, 400, 0.0), None, "already at max");
        assert_eq!(s.snapshot().scale_ups, 3);
    }

    #[test]
    fn burn_pain_scales_up_without_queue_pressure() {
        let s = scaler();
        assert_eq!(s.decide(0.0, 8, 20.0), Some(8), "burn > burn_high");
    }

    #[test]
    fn cooldown_gates_consecutive_decisions() {
        let s = scaler();
        assert_eq!(s.decide(0.0, 100, 0.0), Some(8));
        assert_eq!(s.decide(1.0, 100, 0.0), None, "inside cooldown");
        assert_eq!(s.decide(4.0, 100, 0.0), Some(16), "cooldown elapsed");
    }

    #[test]
    fn idle_pool_shrinks_one_worker_at_a_time() {
        let s = scaler();
        s.decide(0.0, 100, 0.0); // 8
        assert_eq!(s.decide(10.0, 0, 0.0), Some(7));
        assert_eq!(s.decide(20.0, 0, 0.0), Some(6));
        assert_eq!(s.snapshot().scale_downs, 2);
    }

    #[test]
    fn never_shrinks_below_the_floor() {
        let s = scaler();
        for w in 0..20 {
            s.decide(10.0 * w as f64, 0, 0.0);
        }
        assert_eq!(s.capacity(), 4);
    }

    #[test]
    fn hysteresis_band_holds_capacity_steady() {
        let s = scaler();
        s.decide(0.0, 100, 0.0); // 8
                                 // 2 probes/worker: above queue_low (1), below queue_high (4)
        assert_eq!(s.decide(10.0, 16, 0.0), None);
        assert_eq!(s.capacity(), 8);
    }

    #[test]
    fn force_replays_a_decision_bit_identically() {
        let live = scaler();
        live.decide(6.0, 100, 0.0);
        let replayed = scaler();
        replayed.force(6.0, 8);
        assert_eq!(replayed.snapshot(), live.snapshot());
        // both respect the same cooldown afterwards
        assert_eq!(live.decide(8.0, 100, 0.0), replayed.decide(8.0, 100, 0.0));
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let s = scaler();
        s.decide(0.0, 100, 0.0);
        s.decide(10.0, 0, 0.0);
        let snap = s.snapshot();
        let restored = scaler();
        restored.restore(snap);
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_queue_thresholds_rejected() {
        let _ = Autoscaler::new(AutoscaleConfig {
            queue_low: 5.0,
            ..AutoscaleConfig::hardened()
        });
    }
}
