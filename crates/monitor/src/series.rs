//! Bounded time series with streaming statistics.

use std::collections::VecDeque;

/// A timestamped sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulated time, in seconds.
    pub time: f64,
    /// Measured value.
    pub value: f64,
}

/// A bounded, append-only series of timestamped measurements.
///
/// When full, the oldest sample is evicted (sliding window by count). Use
/// [`TimeSeries::window_since`] for time-based windows.
///
/// A clone reserves the storage its source holds, not just its
/// samples, so the clone's next [`push`](TimeSeries::push) does not
/// grow it where the source's would not.
pub struct TimeSeries {
    samples: VecDeque<Sample>,
    capacity: usize,
    total_pushed: u64,
    ewma: Option<f64>,
    ewma_alpha: f64,
    /// `true` while every push arrived at a time `>=` its predecessor's
    /// (a NaN time on either side clears it), so the samples with
    /// `time >= since` are a suffix of `samples`. Derived state, left
    /// out of `Debug`.
    time_ordered: bool,
}

impl Clone for TimeSeries {
    fn clone(&self) -> Self {
        let mut samples = VecDeque::with_capacity(self.samples.capacity());
        samples.extend(self.samples.iter().copied());
        TimeSeries {
            samples,
            capacity: self.capacity,
            total_pushed: self.total_pushed,
            ewma: self.ewma,
            ewma_alpha: self.ewma_alpha,
            time_ordered: self.time_ordered,
        }
    }
}

impl std::fmt::Debug for TimeSeries {
    /// Shows the stored state only: crash-recovery reports byte-compare
    /// this rendering, and whether the series is still time-ordered
    /// follows from the samples ever pushed.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeSeries")
            .field("samples", &self.samples)
            .field("capacity", &self.capacity)
            .field("total_pushed", &self.total_pushed)
            .field("ewma", &self.ewma)
            .field("ewma_alpha", &self.ewma_alpha)
            .finish()
    }
}

impl TimeSeries {
    /// Creates a series retaining at most `capacity` samples. Nothing
    /// is allocated up front: storage grows with the samples pushed
    /// until it holds `capacity`, then eviction reuses it.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        TimeSeries {
            samples: VecDeque::new(),
            capacity,
            total_pushed: 0,
            ewma: None,
            ewma_alpha: 0.2,
            time_ordered: true,
        }
    }

    /// Appends a sample, evicting the oldest if at capacity.
    pub fn push(&mut self, time: f64, value: f64) {
        if let Some(last) = self.samples.back() {
            // false for a late sample and for a NaN time on either side
            self.time_ordered &= time >= last.time;
        }
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(Sample { time, value });
        self.total_pushed += 1;
        self.ewma = Some(match self.ewma {
            Some(prev) => prev + self.ewma_alpha * (value - prev),
            None => value,
        });
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Mean of retained values.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|s| s.value).sum::<f64>() / self.samples.len() as f64)
    }

    /// Values of samples with `time >= since`, oldest first.
    pub fn window_since(&self, since: f64) -> Vec<Sample> {
        self.samples
            .iter()
            .filter(|s| s.time >= since)
            .copied()
            .collect()
    }

    /// Mean over the time window `[since, ..]`: the values of the
    /// samples with `time >= since`, summed oldest first.
    ///
    /// Allocates nothing. While every sample was pushed in time order —
    /// the only way the autotuner's monitors are fed — the window is a
    /// suffix of the series, so this walks back from the newest sample
    /// and costs the samples *in the window*, not the samples retained.
    /// A series that ever took an out-of-order push (or a NaN time)
    /// filters all retained samples instead; both paths add the same
    /// values in the same order and return the same bits.
    ///
    /// The boundary is inclusive. A caller that averages consecutive
    /// windows `[t0, ..]`, `[t1, ..]` (as
    /// `AppManager::adapt` does, with `since` = the previous round's
    /// `now`) counts a sample stamped exactly `t1` in both: once as the
    /// last arrival of the first window and again as the first of the
    /// second. Every recorded outcome depends on that double count, so
    /// it is part of the contract.
    pub fn mean_since(&self, since: f64) -> Option<f64> {
        let in_window = |s: &&Sample| s.time >= since;
        // both arms feed `Sum for f64` the window oldest first, as the
        // collected window did: same initial value, same order, same bits
        let (sum, count) = if self.time_ordered {
            let count = self.samples.iter().rev().take_while(in_window).count();
            let suffix = self.samples.range(self.samples.len() - count..);
            (suffix.map(|s| s.value).sum::<f64>(), count)
        } else {
            let mut count = 0;
            let window = self.samples.iter().filter(in_window);
            (window.inspect(|_| count += 1).map(|s| s.value).sum(), count)
        };
        (count > 0).then(|| sum / count as f64)
    }

    /// Clears all retained samples and the EWMA state.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.ewma = None;
        self.time_ordered = true;
    }
}

impl Default for TimeSeries {
    fn default() -> Self {
        Self::with_capacity(256)
    }
}

impl Extend<(f64, f64)> for TimeSeries {
    fn extend<I: IntoIterator<Item = (f64, f64)>>(&mut self, iter: I) {
        for (time, value) in iter {
            self.push(time, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::with_capacity(1024);
        for (i, v) in values.iter().enumerate() {
            s.push(i as f64, *v);
        }
        s
    }

    #[test]
    fn basic_stats() {
        let s = series(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(s.iter().last().unwrap().value, 4.0);
    }

    #[test]
    fn empty_stats_are_none() {
        let s = TimeSeries::with_capacity(4);
        assert_eq!(s.mean(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut s = TimeSeries::with_capacity(3);
        s.extend((0..10).map(|i| (i as f64, i as f64)));
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().next().unwrap().value, 7.0);
        assert!(format!("{s:?}").contains("total_pushed: 10"));
    }

    #[test]
    fn ewma_tracks_recent_values() {
        // the average is observable through the rendering recovery
        // reports compare; the smoothing factor is 0.2
        let mut s = TimeSeries::with_capacity(8);
        s.push(0.0, 10.0);
        assert!(format!("{s:?}").contains("ewma: Some(10.0)"));
        s.push(1.0, 20.0);
        assert!(format!("{s:?}").contains("ewma: Some(12.0)"));
        s.push(2.0, 22.0);
        assert!(format!("{s:?}").contains("ewma: Some(14.0)"));
    }

    #[test]
    fn time_windows() {
        let s = series(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.window_since(3.0).len(), 2);
        assert_eq!(s.mean_since(3.0), Some(4.5));
        assert_eq!(s.mean_since(99.0), None);
    }

    #[test]
    fn clear_resets() {
        let mut s = series(&[1.0, 2.0]);
        s.clear();
        assert!(s.is_empty());
        let rendered = format!("{s:?}");
        assert!(rendered.contains("ewma: None"), "{rendered}");
        assert!(
            rendered.contains("total_pushed: 2"),
            "lifetime counter preserved: {rendered}"
        );
    }

    #[test]
    fn a_clone_keeps_the_storage_its_source_holds() {
        let source = series(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut copy = source.clone();
        assert_eq!(format!("{copy:?}"), format!("{source:?}"));
        assert_eq!(copy.samples.capacity(), source.samples.capacity());
        assert!(copy.samples.capacity() > copy.len(), "room to push");
        let held = copy.samples.capacity();
        copy.push(6.0, 6.0);
        assert_eq!(copy.samples.capacity(), held, "the push did not grow it");
        assert_eq!(copy.mean_since(0.0), Some(3.5));
        let empty = TimeSeries::with_capacity(4).clone();
        assert_eq!(empty.samples.capacity(), 0, "nothing reserved");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = TimeSeries::with_capacity(0);
    }
}
