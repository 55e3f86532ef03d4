//! The future-event list.

use std::collections::VecDeque;

use crate::calendar::{Calendar, Entry};
use crate::time::SimTime;

/// A handle to one scheduled event, returned by [`EventQueue::push_keyed`].
///
/// The key is the event's `(time, seq)` coordinate, which is unique for the
/// lifetime of the queue. Pass it to [`EventQueue::cancel`] to delete the
/// event before it pops. A key whose event has already popped (or been
/// cancelled) simply misses — cancellation is idempotent and never affects
/// any other event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey {
    time: SimTime,
    seq: u64,
}

impl EventKey {
    /// The timestamp this key's event was scheduled for.
    pub fn time(&self) -> SimTime {
        self.time
    }
}

/// A priority queue of timestamped events, backed by a calendar queue
/// (Brown 1988): O(1) amortized push and pop, and in-place cancellation by
/// [`EventKey`].
///
/// Events pop in non-decreasing time order; events scheduled for the same
/// instant pop in the order they were inserted (FIFO tie-break via a
/// monotonically increasing sequence number), which keeps simulations
/// deterministic regardless of queue internals.
///
/// # Example
///
/// ```
/// use tcpburst_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(2), "b");
/// q.push(SimTime::from_millis(1), "a");
/// q.push(SimTime::from_millis(2), "c");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    calendar: Calendar<E>,
    next_seq: u64,
    cancelled_in_place: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            calendar: Calendar::with_capacity(capacity),
            next_seq: 0,
            cancelled_in_place: 0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_keyed(time, event);
    }

    /// Schedules `event` at absolute time `time` and returns the
    /// [`EventKey`] that can later [`cancel`](EventQueue::cancel) it.
    pub fn push_keyed(&mut self, time: SimTime, event: E) -> EventKey {
        let seq = self.reserve_seq();
        self.push_reserved(time, seq, event)
    }

    /// Claims the next sequence number without scheduling anything.
    ///
    /// The number is spent exactly as if an event had been pushed: later
    /// pushes sequence after it. [`push_reserved`](EventQueue::push_reserved)
    /// can redeem it afterwards, and the event then pops in the place a push
    /// made at reservation time would have taken. A reservation that is
    /// never redeemed leaves no trace beyond the gap in the numbering.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at `time` under a sequence number previously
    /// claimed with [`reserve_seq`](EventQueue::reserve_seq).
    ///
    /// Redeeming a number twice, or one never reserved, breaks the
    /// uniqueness of `(time, seq)` that the FIFO tie-break and
    /// [`cancel`](EventQueue::cancel) rely on.
    pub fn push_reserved(&mut self, time: SimTime, seq: u64, event: E) -> EventKey {
        debug_assert!(seq < self.next_seq, "sequence number {seq} was never reserved");
        self.calendar.push(Entry { time, seq, event });
        EventKey { time, seq }
    }

    /// Deletes the event identified by `key` before it pops, returning it.
    ///
    /// Returns `None` when the event is no longer queued (already popped or
    /// already cancelled).
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        let event = self.calendar.cancel(key.time, key.seq)?;
        self.cancelled_in_place += 1;
        Some(event)
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(time, _, event)| (time, event))
    }

    /// [`pop`](EventQueue::pop), also returning the event's sequence number.
    pub(crate) fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        self.calendar.pop().map(|e| (e.time, e.seq, e.event))
    }

    /// Removes and returns the earliest event, with its sequence number,
    /// only if its timestamp is at most `horizon`; otherwise leaves the
    /// queue untouched and returns `None`.
    ///
    /// Equivalent to a [`peek_time`](EventQueue::peek_time) followed by a
    /// conditional [`pop`](EventQueue::pop), but pays for a single bucket
    /// scan instead of two.
    pub(crate) fn pop_due_entry(&mut self, horizon: SimTime) -> Option<(SimTime, u64, E)> {
        self.calendar.pop_due(horizon).map(|e| (e.time, e.seq, e.event))
    }

    /// Removes *every* event sharing the earliest pending timestamp — the
    /// same-timestamp *run* — provided that timestamp is at most `horizon`,
    /// appending `(seq, event)` pairs to `out` in FIFO (ascending `seq`)
    /// order.
    ///
    /// Returns the run's shared timestamp, or `None` (with `out` untouched)
    /// when nothing is due. One bucket scan and one occupancy update serve
    /// the whole run instead of one per event.
    pub fn pop_due_run(
        &mut self,
        horizon: SimTime,
        out: &mut VecDeque<(u64, E)>,
    ) -> Option<SimTime> {
        self.calendar.pop_due_run(horizon, out)
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.calendar.peek()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.calendar.len()
    }

    /// Number of events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.calendar.capacity()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Number of events deleted in place via [`EventQueue::cancel`].
    pub fn cancelled_in_place(&self) -> u64 {
        self.cancelled_in_place
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<u64> = EventQueue::new();
        for &ms in &[5u64, 1, 9, 3, 7] {
            q.push(SimTime::from_millis(ms), ms);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.push(SimTime::from_secs(1), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn counts_total_scheduled() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.push(SimTime::ZERO, 0);
        q.push(SimTime::ZERO, 1);
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn cancel_removes_exactly_one_event() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(SimTime::from_millis(1), "keep-1");
        let key = q.push_keyed(SimTime::from_millis(2), "drop");
        q.push(SimTime::from_millis(2), "keep-2");
        assert_eq!(q.cancel(key), Some("drop"));
        assert_eq!(q.cancelled_in_place(), 1);
        // Second cancel of the same key misses harmlessly.
        assert_eq!(q.cancel(key), None);
        assert_eq!(q.cancelled_in_place(), 1);
        let popped: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, ["keep-1", "keep-2"]);
    }

    #[test]
    fn cancel_after_pop_misses() {
        let mut q: EventQueue<()> = EventQueue::new();
        let key = q.push_keyed(SimTime::from_millis(1), ());
        q.pop();
        assert_eq!(q.cancel(key), None);
        assert_eq!(q.cancelled_in_place(), 0);
    }

    #[test]
    fn pop_due_run_drains_equal_timestamps_fifo() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let t = SimTime::from_millis(2);
        q.push(SimTime::from_millis(1), 0);
        q.push(t, 1);
        q.push(t, 2);
        q.push(t, 3);
        q.push(SimTime::from_millis(3), 4);
        let mut out = VecDeque::new();
        // First run: the lone earlier event.
        assert_eq!(q.pop_due_run(SimTime::from_millis(9), &mut out), Some(SimTime::from_millis(1)));
        assert_eq!(out, [(0, 0)]);
        // Second run: all three tied events, in insertion order.
        out.clear();
        assert_eq!(q.pop_due_run(SimTime::from_millis(9), &mut out), Some(t));
        assert_eq!(out, [(1, 1), (2, 2), (3, 3)]);
        // Horizon before the next event: nothing due, queue untouched.
        out.clear();
        assert_eq!(q.pop_due_run(t, &mut out), None);
        assert!(out.is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn reserved_seq_pops_where_a_push_would_have() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.push(t, 0);
        let seq = q.reserve_seq();
        q.push(t, 2);
        q.push(t, 3);
        // Redeemed after later pushes, it still pops in its reserved place.
        q.push_reserved(t, seq, 1);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [0, 1, 2, 3]);
        assert_eq!(q.scheduled_total(), 4);
    }

    #[test]
    fn unredeemed_reservation_leaves_only_a_gap() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.reserve_seq();
        q.push(SimTime::ZERO, 7);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_entry(), Some((SimTime::ZERO, 1, 7)));
    }

    #[test]
    fn push_before_advanced_peek_still_pops_first() {
        // Peeking far ahead advances the calendar's scan; a later push at an
        // earlier time must still pop first.
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(SimTime::from_secs(100), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(100)));
        q.push(SimTime::from_millis(1), "early");
        assert_eq!(q.pop().map(|(_, e)| e), Some("early"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("late"));
    }

    proptest! {
        /// Any batch of (time, payload) pairs pops sorted by time, with ties
        /// broken by insertion order.
        #[test]
        fn prop_pop_order_is_stable_sort(times in proptest::collection::vec(0u64..1_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
            expected.sort(); // stable on (time, index)
            let got: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop()).map(|(t, i)| (t.as_nanos(), i)).collect();
            prop_assert_eq!(got, expected);
        }
    }
}

