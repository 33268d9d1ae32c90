//! Bounded time series with streaming statistics.
//!
//! There is one ring implementation and two kinds of owner. A
//! [`TimeSeries`] owns the storage of its one series. A [`SeriesSet`]
//! holds several series in one sample buffer, each series owning a
//! segment of it, so a set of any size is two allocations (its header
//! table and its buffer) and a clone copies two blocks. Both owners keep
//! a series' bookkeeping in the same ring header and hand it the slots
//! it indexes, and both are read through a [`SeriesView`], which renders
//! as a `TimeSeries` whichever owner holds it.

use std::fmt;

/// A timestamped sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulated time, in seconds.
    pub time: f64,
    /// Measured value.
    pub value: f64,
}

/// The filler of a slot no sample has reached yet; a ring never reads it.
const VACANT: Sample = Sample {
    time: 0.0,
    value: 0.0,
};

/// The smoothing factor of every series' exponentially weighted mean.
const EWMA_ALPHA: f64 = 0.2;

/// A slot count or position as a header stores it: 32 bits keep a
/// [`SeriesSet`] header at 64 bytes.
///
/// # Panics
///
/// Panics if `n` does not fit.
fn pos(n: usize) -> u32 {
    u32::try_from(n).expect("series positions fit in 32 bits")
}

/// The bookkeeping of one bounded series over a run of slots it does not
/// own.
///
/// Samples fill the slots from the first. The oldest sits at `head`,
/// which moves only once the ring holds its bound, so a ring short of its
/// bound is the prefix `slots[..len]` and its owner may add slots at the
/// end without moving a sample.
#[derive(Clone, Copy)]
struct Ring {
    total_pushed: u64,
    /// The exponentially weighted mean of the samples pushed since the
    /// ring was last empty; meaningless while it is.
    ewma: f64,
    head: u32,
    len: u32,
    /// `true` while every push arrived at a time `>=` its predecessor's
    /// (a NaN time on either side clears it), so the samples with
    /// `time >= since` are a suffix of the ring. Derived state, left
    /// out of `Debug`.
    time_ordered: bool,
}

impl Ring {
    const EMPTY: Ring = Ring {
        total_pushed: 0,
        ewma: 0.0,
        head: 0,
        len: 0,
        time_ordered: true,
    };

    fn len(&self) -> usize {
        self.len as usize
    }

    /// The smoothed mean, `None` exactly when no sample is retained: a
    /// push retains its sample, and only a clear empties the ring.
    fn ewma(&self) -> Option<f64> {
        (self.len > 0).then_some(self.ewma)
    }

    /// `true` when the next push needs more than `slots` slots: the ring
    /// fills them all and is short of `capacity`.
    fn is_cramped(&self, slots: usize, capacity: usize) -> bool {
        self.len() == slots && slots < capacity
    }

    /// Appends a sample to the ring over `slots`, evicting the oldest
    /// when the ring holds `capacity`. The owner grows `slots` first
    /// while the ring [is cramped](Ring::is_cramped), so a full ring's
    /// slots number exactly `capacity`.
    fn push(&mut self, slots: &mut [Sample], capacity: usize, time: f64, value: f64) {
        let (head, len) = (self.head as usize, self.len());
        self.ewma = match self.ewma() {
            Some(prev) => prev + EWMA_ALPHA * (value - prev),
            None => value,
        };
        if len > 0 {
            let newest = slots[(head + len - 1) % slots.len()];
            // false for a late sample and for a NaN time on either side
            self.time_ordered &= time >= newest.time;
        }
        let sample = Sample { time, value };
        if len == capacity {
            slots[head] = sample;
            self.head = pos((head + 1) % capacity);
        } else {
            slots[len] = sample;
            self.len += 1;
        }
        self.total_pushed += 1;
    }

    /// Forgets the samples and the EWMA state; the lifetime count stays.
    fn clear(&mut self) {
        *self = Ring {
            total_pushed: self.total_pushed,
            ..Ring::EMPTY
        };
    }
}

/// One series, borrowed from whichever owner holds it: a
/// [`TimeSeries`] or a member of a [`SeriesSet`].
///
/// `Debug` renders the stored state as a `TimeSeries` of the same
/// samples would, whoever owns the series: crash-recovery reports
/// byte-compare this rendering, and whether the series is still
/// time-ordered follows from the samples ever pushed.
#[derive(Clone, Copy)]
pub struct SeriesView<'a> {
    ring: &'a Ring,
    slots: &'a [Sample],
    capacity: usize,
}

impl<'a> SeriesView<'a> {
    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Returns `true` if no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.len == 0
    }

    /// Iterates over retained samples, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &'a Sample> + 'a {
        let (head, len) = (self.ring.head as usize, self.ring.len());
        let slots = self.slots;
        let (older, newer) = match (head + len).checked_sub(slots.len()) {
            Some(wrapped) if wrapped > 0 => (&slots[head..], &slots[..wrapped]),
            _ => (&slots[head..head + len], &slots[..0]),
        };
        older.iter().chain(newer)
    }

    /// Mean of retained values.
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        Some(self.iter().map(|s| s.value).sum::<f64>() / self.len() as f64)
    }

    /// Values of samples with `time >= since`, oldest first.
    pub fn window_since(&self, since: f64) -> Vec<Sample> {
        self.iter().filter(|s| s.time >= since).copied().collect()
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
        let (sum, count) = if self.ring.time_ordered {
            let count = self.iter().rev().take_while(in_window).count();
            let suffix = self.iter().skip(self.len() - count);
            (suffix.map(|s| s.value).sum::<f64>(), count)
        } else {
            let mut count = 0;
            let window = self.iter().filter(in_window);
            (window.inspect(|_| count += 1).map(|s| s.value).sum(), count)
        };
        (count > 0).then(|| sum / count as f64)
    }
}

impl fmt::Debug for SeriesView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// The samples as the list a `VecDeque` of them renders.
        struct Samples<'a>(SeriesView<'a>);

        impl fmt::Debug for Samples<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }

        f.debug_struct("TimeSeries")
            .field("samples", &Samples(*self))
            .field("capacity", &self.capacity)
            .field("total_pushed", &self.ring.total_pushed)
            .field("ewma", &self.ring.ewma())
            .field("ewma_alpha", &EWMA_ALPHA)
            .finish()
    }
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
    ring: Ring,
    /// The ring's slots: one per sample until the bound, then reused.
    slots: Vec<Sample>,
    capacity: usize,
}

impl Clone for TimeSeries {
    fn clone(&self) -> Self {
        let mut slots = Vec::with_capacity(self.slots.capacity());
        slots.extend_from_slice(&self.slots);
        TimeSeries {
            ring: self.ring,
            slots,
            capacity: self.capacity,
        }
    }
}

impl fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
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
        // a ring stores its positions, all below the bound, in 32 bits
        pos(capacity);
        TimeSeries {
            ring: Ring::EMPTY,
            slots: Vec::new(),
            capacity,
        }
    }

    /// Appends a sample, evicting the oldest if at capacity.
    pub fn push(&mut self, time: f64, value: f64) {
        if self.ring.is_cramped(self.slots.len(), self.capacity) {
            self.slots.push(VACANT);
        }
        self.ring.push(&mut self.slots, self.capacity, time, value);
    }

    fn view(&self) -> SeriesView<'_> {
        SeriesView {
            ring: &self.ring,
            slots: &self.slots,
            capacity: self.capacity,
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Returns `true` if no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.len == 0
    }

    /// Iterates over retained samples, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &Sample> {
        self.view().iter()
    }

    /// Mean of retained values.
    pub fn mean(&self) -> Option<f64> {
        self.view().mean()
    }

    /// Values of samples with `time >= since`, oldest first.
    pub fn window_since(&self, since: f64) -> Vec<Sample> {
        self.view().window_since(since)
    }

    /// Mean over the time window `[since, ..]`, with
    /// [`SeriesView::mean_since`]'s cost, bits and inclusive boundary.
    pub fn mean_since(&self, since: f64) -> Option<f64> {
        self.view().mean_since(since)
    }

    /// Clears all retained samples and the EWMA state.
    pub fn clear(&mut self) {
        self.ring.clear();
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

/// Slots a member of a [`SeriesSet`] starts with (or its bound, if
/// smaller); its segment doubles from there whenever it fills.
const FIRST_SEGMENT: usize = 4;

/// Series a [`SeriesSet`] makes room for on its first insert, header and
/// first segment alike, so a set of up to this many series grows only
/// when a segment fills.
const FIRST_ROOM: usize = 4;

/// Several bounded series, each under a key, in one sample buffer.
///
/// The header table holds, per series and in the caller's order, its
/// key, its ring and its segment of the buffer. A segment doubles (up to
/// the bound) when its ring fills it, which moves the segments after it
/// in the buffer; each doubling follows as many pushes as the segment
/// held, so over a handful of series the moves are amortised O(1) per
/// push. A new series' segment goes at
/// the end of the buffer, so the order of the segments is the order
/// the series arrived in, whatever the order of the headers.
///
/// Every series is bounded at the set's capacity and behaves as a
/// [`TimeSeries`] of that capacity fed the same pushes: same samples,
/// same means to the bit, same `Debug`. A clone is two allocations,
/// each exactly as long as the source's: the segments keep their free
/// slots, so the clone's next push into a series short of its segment
/// allocates nothing.
#[derive(Clone)]
pub struct SeriesSet<K> {
    series: Vec<Member<K>>,
    samples: Vec<Sample>,
    capacity: usize,
}

/// One header of a [`SeriesSet`].
#[derive(Clone)]
struct Member<K> {
    key: K,
    /// Where the series' segment starts in the buffer.
    start: u32,
    /// The segment's slots.
    slots: u32,
    ring: Ring,
}

impl<K> Member<K> {
    fn segment(&self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.slots as usize
    }
}

impl<K> SeriesSet<K> {
    /// Creates an empty set whose series retain at most `capacity`
    /// samples each. Nothing is allocated until the first
    /// [`insert`](SeriesSet::insert).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        // a ring stores its positions, all below the bound, in 32 bits
        pos(capacity);
        SeriesSet {
            series: Vec::new(),
            samples: Vec::new(),
            capacity,
        }
    }

    /// The keys, in header order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.series.iter().map(|member| &member.key)
    }

    /// The series at `index` in header order.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> SeriesView<'_> {
        self.view(&self.series[index])
    }

    /// Every series with its key, in header order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, SeriesView<'_>)> {
        self.series
            .iter()
            .map(|member| (&member.key, self.view(member)))
    }

    fn view<'a>(&'a self, member: &'a Member<K>) -> SeriesView<'a> {
        SeriesView {
            ring: &member.ring,
            slots: &self.samples[member.segment()],
            capacity: self.capacity,
        }
    }

    /// Adds an empty series under `key` at `index` in header order,
    /// shifting the headers after it; its first segment goes at the end
    /// of the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `index` is greater than the number of series.
    pub fn insert(&mut self, index: usize, key: K) {
        let slots = FIRST_SEGMENT.min(self.capacity);
        if self.series.capacity() == 0 {
            self.series.reserve_exact(FIRST_ROOM);
            self.samples.reserve_exact(FIRST_ROOM * slots);
        }
        let start = self.samples.len();
        self.samples.resize(start + slots, VACANT);
        self.series.insert(
            index,
            Member {
                key,
                start: pos(start),
                slots: pos(slots),
                ring: Ring::EMPTY,
            },
        );
    }

    /// Appends a sample to the series at `index`, evicting its oldest
    /// if it holds the bound.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn push(&mut self, index: usize, time: f64, value: f64) {
        let member = &self.series[index];
        if member.ring.is_cramped(member.slots as usize, self.capacity) {
            self.grow(index);
        }
        let member = &mut self.series[index];
        let segment = &mut self.samples[member.segment()];
        member.ring.push(segment, self.capacity, time, value);
    }

    /// Slots a segment of `slots` gains when it doubles (up to the bound).
    fn doubling(&self, slots: u32) -> usize {
        (2 * slots as usize).min(self.capacity) - slots as usize
    }

    /// Doubles the segment of the series at `index` (up to the bound),
    /// moving the segments after it.
    ///
    /// When the buffer has no room for it, the buffer grows once by what
    /// every segment no larger than this one gains on its own doubling:
    /// series fed together fill together, so they double at one
    /// allocation, and once they reach their bound the buffer holds
    /// exactly their bounds.
    fn grow(&mut self, index: usize) {
        let slots = self.series[index].slots;
        let end = self.series[index].segment().end;
        let extra = self.doubling(slots);
        if self.samples.capacity() - self.samples.len() < extra {
            let room = self
                .series
                .iter()
                .filter(|member| member.slots <= slots)
                .map(|member| self.doubling(member.slots))
                .sum();
            self.samples.reserve_exact(room);
        }
        let filled = self.samples.len();
        self.samples.resize(filled + extra, VACANT);
        self.samples.copy_within(end..filled, end + extra);
        self.series[index].slots += pos(extra);
        for member in &mut self.series {
            if member.start as usize >= end {
                member.start += pos(extra);
            }
        }
    }
}

impl<K: fmt::Debug> fmt::Debug for SeriesSet<K> {
    /// A map from each key to its series, in header order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
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
        assert_eq!(copy.slots.capacity(), source.slots.capacity());
        assert!(copy.slots.capacity() > copy.len(), "room to push");
        let held = copy.slots.capacity();
        copy.push(6.0, 6.0);
        assert_eq!(copy.slots.capacity(), held, "the push did not grow it");
        assert_eq!(copy.mean_since(0.0), Some(3.5));
        let empty = TimeSeries::with_capacity(4).clone();
        assert_eq!(empty.slots.capacity(), 0, "nothing reserved");
    }

    #[test]
    fn a_set_is_two_blocks_until_a_segment_outgrows_its_first_room() {
        let mut set = SeriesSet::new(256);
        for (at, key) in [(0, "b"), (0, "a"), (2, "c")] {
            set.insert(at, key);
        }
        assert_eq!(set.keys().copied().collect::<Vec<_>>(), ["a", "b", "c"]);
        let (headers, buffer) = (set.series.as_ptr(), set.samples.as_ptr());
        for t in 0..FIRST_SEGMENT {
            for at in 0..3 {
                set.push(at, t as f64, at as f64);
            }
        }
        assert_eq!(
            (set.series.as_ptr(), set.samples.as_ptr()),
            (headers, buffer)
        );
        // the fifth sample of "a" doubles its segment, the second in the
        // buffer: only "c"'s segment, after it, moves
        let starts = |set: &SeriesSet<&str>| set.series.iter().map(|m| m.start).collect::<Vec<_>>();
        assert_eq!(starts(&set), [4, 0, 8]);
        set.push(0, 9.0, 9.0);
        assert_eq!(starts(&set), [4, 0, 12]);
        assert_eq!(set.get(0).len(), FIRST_SEGMENT + 1);
        assert_eq!(set.get(2).iter().map(|s| s.value).sum::<f64>(), 8.0);
        let mut copy = set.clone();
        assert_eq!(format!("{copy:?}"), format!("{set:?}"));
        // "a" holds 5 of its 8 slots: the copy's next sample needs no room
        let buffer = copy.samples.as_ptr();
        copy.push(0, 10.0, 1.0);
        assert_eq!(copy.samples.as_ptr(), buffer);
        // the first room was 16 slots; "b" outgrows what is left, and
        // the buffer grows once for "b" and "c", the segments as small
        assert_eq!(set.samples.capacity(), 16);
        set.push(1, 9.0, 9.0);
        assert_eq!(set.samples.capacity(), 24);
        set.push(2, 9.0, 9.0);
        assert_eq!(set.samples.capacity(), 24);
        assert_eq!(set.samples.len(), 24);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = TimeSeries::with_capacity(0);
    }
}
