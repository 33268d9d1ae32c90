//! Regime-change (concept-drift) detection.
//!
//! Online learning "according to the most recent operating conditions"
//! (§IV) needs to know when conditions *changed*: a knowledge base tuned
//! for the winter cooling regime or the pre-rush traffic pattern is stale
//! afterwards. [`PageHinkley`] is the classical sequential change
//! detector: it accumulates deviations from the running mean and signals
//! when the cumulative drift exceeds a threshold.

/// Page–Hinkley test for upward or downward mean shifts.
#[derive(Debug, Clone)]
pub struct PageHinkley {
    /// Minimum magnitude of change to care about (per-sample slack).
    delta: f64,
    /// Detection threshold on the cumulative statistic.
    lambda: f64,
    count: u64,
    mean: f64,
    cum_up: f64,
    min_up: f64,
    cum_down: f64,
    max_down: f64,
    detections: u64,
}

impl PageHinkley {
    /// Creates a detector: `delta` is the per-sample slack (changes
    /// smaller than this drift rate are ignored), `lambda` the cumulative
    /// threshold that triggers a detection.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive.
    pub fn new(delta: f64, lambda: f64) -> Self {
        assert!(delta > 0.0, "delta must be positive");
        assert!(lambda > 0.0, "lambda must be positive");
        PageHinkley {
            delta,
            lambda,
            count: 0,
            mean: 0.0,
            cum_up: 0.0,
            min_up: 0.0,
            cum_down: 0.0,
            max_down: 0.0,
            detections: 0,
        }
    }

    /// Feeds one observation; returns `true` when a regime change is
    /// detected (the detector then resets to track the new regime).
    pub fn observe(&mut self, value: f64) -> bool {
        self.count += 1;
        self.mean += (value - self.mean) / self.count as f64;
        // upward shift statistic
        self.cum_up += value - self.mean - self.delta;
        self.min_up = self.min_up.min(self.cum_up);
        // downward shift statistic
        self.cum_down += value - self.mean + self.delta;
        self.max_down = self.max_down.max(self.cum_down);

        let up = self.cum_up - self.min_up > self.lambda;
        let down = self.max_down - self.cum_down > self.lambda;
        if up || down {
            self.detections += 1;
            self.reset_state();
            true
        } else {
            false
        }
    }

    fn reset_state(&mut self) {
        self.count = 0;
        self.mean = 0.0;
        self.cum_up = 0.0;
        self.min_up = 0.0;
        self.cum_down = 0.0;
        self.max_down = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(detector: &mut PageHinkley, values: impl IntoIterator<Item = f64>) -> Option<usize> {
        for (i, v) in values.into_iter().enumerate() {
            if detector.observe(v) {
                return Some(i);
            }
        }
        None
    }

    #[test]
    fn stable_stream_triggers_nothing() {
        let mut detector = PageHinkley::new(0.05, 5.0);
        let stable = (0..500).map(|i| 10.0 + 0.01 * ((i % 7) as f64 - 3.0));
        assert_eq!(feed(&mut detector, stable), None);
    }

    #[test]
    fn upward_shift_detected_promptly() {
        let mut detector = PageHinkley::new(0.05, 5.0);
        let before = std::iter::repeat_n(10.0f64, 100);
        assert_eq!(feed(&mut detector, before), None);
        let after = std::iter::repeat_n(13.0f64, 100);
        let hit = feed(&mut detector, after).expect("shift detected");
        assert!(hit < 20, "detected after {hit} samples");
    }

    #[test]
    fn downward_shift_detected_too() {
        let mut detector = PageHinkley::new(0.05, 5.0);
        feed(&mut detector, std::iter::repeat_n(20.0f64, 100));
        let hit = feed(&mut detector, std::iter::repeat_n(16.0f64, 100));
        assert!(hit.is_some());
    }

    #[test]
    fn detector_rearms_after_detection() {
        let mut detector = PageHinkley::new(0.05, 5.0);
        feed(&mut detector, std::iter::repeat_n(10.0f64, 50));
        assert!(feed(&mut detector, std::iter::repeat_n(14.0f64, 50)).is_some());
        // settles in the new regime, then detects the next change
        assert_eq!(feed(&mut detector, std::iter::repeat_n(14.0f64, 100)), None);
        assert!(feed(&mut detector, std::iter::repeat_n(10.0f64, 50)).is_some());
    }

    #[test]
    fn slack_suppresses_small_changes() {
        // delta larger than the shift: no detection
        let mut tolerant = PageHinkley::new(2.0, 5.0);
        feed(&mut tolerant, std::iter::repeat_n(10.0f64, 100));
        assert_eq!(feed(&mut tolerant, std::iter::repeat_n(10.5f64, 200)), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_params_rejected() {
        let _ = PageHinkley::new(0.0, 1.0);
    }
}
