//! The future-event list.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::calendar::{Calendar, Entry};
use crate::time::SimTime;

/// Which data structure backs an [`EventQueue`].
///
/// Both backends expose the identical total order — ascending `(time, seq)`,
/// i.e. non-decreasing time with FIFO tie-break — so swapping backends never
/// changes a simulation's output, only its speed. That is property-tested in
/// `tests/prop_calendar.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// A calendar queue (Brown 1988): bucketed time wheel with adaptive
    /// bucket width. O(1) amortized push/pop and supports in-place
    /// cancellation by [`EventKey`]. The default.
    #[default]
    Calendar,
    /// A [`BinaryHeap`]: O(log n) push/pop, no in-place cancellation
    /// ([`EventQueue::cancel`] always reports a miss, so timer cancellation
    /// degrades to the lazy generation-counter path). Kept as the reference
    /// implementation and A/B baseline for benchmarks.
    BinaryHeap,
}

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

/// A priority queue of timestamped events.
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
    inner: Inner<E>,
    next_seq: u64,
    cancelled_in_place: u64,
}

#[derive(Debug)]
enum Inner<E> {
    Calendar(Calendar<E>),
    Heap(BinaryHeap<HeapEntry<E>>),
}

#[derive(Debug)]
struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq) wins.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the default backend.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` events, on the
    /// default backend.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue::with_capacity_and_backend(capacity, QueueBackend::default())
    }

    /// Creates an empty queue on an explicit [`QueueBackend`].
    pub fn with_capacity_and_backend(capacity: usize, backend: QueueBackend) -> Self {
        let inner = match backend {
            QueueBackend::Calendar => Inner::Calendar(Calendar::with_capacity(capacity)),
            QueueBackend::BinaryHeap => Inner::Heap(BinaryHeap::with_capacity(capacity)),
        };
        EventQueue {
            inner,
            next_seq: 0,
            cancelled_in_place: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.inner {
            Inner::Calendar(_) => QueueBackend::Calendar,
            Inner::Heap(_) => QueueBackend::BinaryHeap,
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
        match &mut self.inner {
            Inner::Calendar(cal) => cal.push(Entry { time, seq, event }),
            Inner::Heap(heap) => heap.push(HeapEntry { time, seq, event }),
        }
        EventKey { time, seq }
    }

    /// Deletes the event identified by `key` before it pops, returning it.
    ///
    /// Returns `None` when the event is no longer queued (already popped or
    /// already cancelled) — and always on the [`QueueBackend::BinaryHeap`]
    /// backend, which cannot delete interior entries; callers must then fall
    /// back to lazy invalidation (see [`TimerSlot`](crate::TimerSlot)).
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        match &mut self.inner {
            Inner::Calendar(cal) => {
                let event = cal.cancel(key.time, key.seq)?;
                self.cancelled_in_place += 1;
                Some(event)
            }
            Inner::Heap(_) => None,
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(time, _, event)| (time, event))
    }

    /// [`pop`](EventQueue::pop), also returning the event's sequence number.
    pub(crate) fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        match &mut self.inner {
            Inner::Calendar(cal) => cal.pop().map(|e| (e.time, e.seq, e.event)),
            Inner::Heap(heap) => heap.pop().map(|e| (e.time, e.seq, e.event)),
        }
    }

    /// Removes and returns the earliest event, with its sequence number,
    /// only if its timestamp is at most `horizon`; otherwise leaves the
    /// queue untouched and returns `None`.
    ///
    /// Equivalent to a [`peek_time`](EventQueue::peek_time) followed by a
    /// conditional [`pop`](EventQueue::pop), but the calendar backend pays
    /// for a single bucket scan instead of two.
    pub(crate) fn pop_due_entry(&mut self, horizon: SimTime) -> Option<(SimTime, u64, E)> {
        match &mut self.inner {
            Inner::Calendar(cal) => cal.pop_due(horizon).map(|e| (e.time, e.seq, e.event)),
            Inner::Heap(heap) => match heap.peek() {
                Some(e) if e.time <= horizon => heap.pop().map(|e| (e.time, e.seq, e.event)),
                _ => None,
            },
        }
    }

    /// Removes *every* event sharing the earliest pending timestamp — the
    /// same-timestamp *run* — provided that timestamp is at most `horizon`,
    /// appending `(seq, event)` pairs to `out` in FIFO (ascending `seq`)
    /// order.
    ///
    /// Returns the run's shared timestamp, or `None` (with `out` untouched)
    /// when nothing is due. The calendar backend pays one bucket scan and
    /// one occupancy update for the whole run instead of one per event.
    pub(crate) fn pop_due_run(
        &mut self,
        horizon: SimTime,
        out: &mut VecDeque<(u64, E)>,
    ) -> Option<SimTime> {
        match &mut self.inner {
            Inner::Calendar(cal) => cal.pop_due_run(horizon, out),
            Inner::Heap(heap) => {
                let run_time = match heap.peek() {
                    Some(e) if e.time <= horizon => e.time,
                    _ => return None,
                };
                // A max-heap keyed on reversed (time, seq) pops equal times
                // in ascending seq order, i.e. FIFO.
                while heap.peek().is_some_and(|e| e.time == run_time) {
                    let e = heap.pop().expect("peek just succeeded");
                    out.push_back((e.seq, e.event));
                }
                Some(run_time)
            }
        }
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.inner {
            Inner::Calendar(cal) => cal.peek(),
            Inner::Heap(heap) => heap.peek().map(|e| e.time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Calendar(cal) => cal.len(),
            Inner::Heap(heap) => heap.len(),
        }
    }

    /// Number of events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        match &self.inner {
            Inner::Calendar(cal) => cal.capacity(),
            Inner::Heap(heap) => heap.capacity(),
        }
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

    /// Both backends, so every test exercises calendar and heap alike.
    fn both() -> [EventQueue<u64>; 2] {
        [
            EventQueue::with_capacity_and_backend(0, QueueBackend::Calendar),
            EventQueue::with_capacity_and_backend(0, QueueBackend::BinaryHeap),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both() {
            for &ms in &[5u64, 1, 9, 3, 7] {
                q.push(SimTime::from_millis(ms), ms);
            }
            let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(popped, vec![1, 3, 5, 7, 9]);
        }
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        for mut q in both() {
            let t = SimTime::from_millis(1);
            for i in 0..100 {
                q.push(t, i);
            }
            let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(popped, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn peek_does_not_remove() {
        for mut q in both() {
            q.push(SimTime::from_secs(1), 0);
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            q.pop();
            assert_eq!(q.peek_time(), None);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn counts_total_scheduled() {
        for mut q in both() {
            q.push(SimTime::ZERO, 0);
            q.push(SimTime::ZERO, 1);
            q.pop();
            assert_eq!(q.scheduled_total(), 2);
        }
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
    fn heap_backend_reports_cancel_miss() {
        let mut q = EventQueue::with_capacity_and_backend(0, QueueBackend::BinaryHeap);
        let key = q.push_keyed(SimTime::from_millis(1), ());
        assert_eq!(q.backend(), QueueBackend::BinaryHeap);
        assert_eq!(q.cancel(key), None);
        assert_eq!(q.len(), 1, "heap backend leaves the event queued");
    }

    #[test]
    fn pop_due_run_drains_equal_timestamps_fifo() {
        for mut q in both() {
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
    }

    #[test]
    fn reserved_seq_pops_where_a_push_would_have() {
        for mut q in both() {
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
    }

    #[test]
    fn unredeemed_reservation_leaves_only_a_gap() {
        for mut q in both() {
            q.reserve_seq();
            q.push(SimTime::ZERO, 7);
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop_entry(), Some((SimTime::ZERO, 1, 7)));
        }
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
        /// broken by insertion order — on both backends.
        #[test]
        fn prop_pop_order_is_stable_sort(times in proptest::collection::vec(0u64..1_000, 0..200)) {
            for mut q in [
                EventQueue::with_capacity_and_backend(0, QueueBackend::Calendar),
                EventQueue::with_capacity_and_backend(0, QueueBackend::BinaryHeap),
            ] {
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
}

