//! Deterministic discrete-event engine.
//!
//! A small, generic event queue: events are ordered by time, with a
//! monotonically increasing sequence number breaking ties so that events
//! scheduled earlier fire earlier (FIFO at equal timestamps) — the
//! property every scheduler in `antarex-rtrm` relies on.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Scheduled<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with a simulation clock.
///
/// # Examples
///
/// ```
/// use antarex_sim::des::EventQueue;
///
/// let mut queue = EventQueue::new();
/// queue.schedule(2.0, "later");
/// queue.schedule(1.0, "sooner");
/// assert_eq!(queue.pop(), Some((1.0, "sooner")));
/// assert_eq!(queue.now(), 1.0);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: f64,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: 0.0,
            seq: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules an event at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current clock (events
    /// cannot fire in the past).
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule at {time} before current time {}",
            self.now
        );
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let scheduled = self.heap.pop()?;
        self.now = scheduled.time;
        Some((scheduled.time, scheduled.event))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 'c');
        q.schedule(1.0, 'a');
        q.schedule(2.0, 'b');
        assert_eq!(q.pop(), Some((1.0, 'a')));
        assert_eq!(q.pop(), Some((2.0, 'b')));
        assert_eq!(q.pop(), Some((3.0, 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "first");
        q.schedule(1.0, "second");
        q.schedule(1.0, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn clock_is_monotone() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.schedule(1.0, ());
        let mut last = 0.0;
        while let Some((t, ())) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(2.0, ());
        q.pop();
        q.schedule(1.0, ());
    }
}
