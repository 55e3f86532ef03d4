//! The virtual clock and simulation loop driver.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::queue::{EventKey, EventQueue};
use crate::time::{SimDuration, SimTime};

/// A discrete-event scheduler: a virtual clock plus a future-event list.
///
/// The scheduler owns *when* things happen; *what* happens is up to the
/// caller, which pops events and dispatches them against its own state. This
/// inversion keeps the engine free of borrow-checker gymnastics: simulation
/// state lives in one place (the caller's world struct) and the scheduler is
/// passed down by `&mut` wherever new events need to be spawned.
///
/// # Monotonicity contract
///
/// All three scheduling entry points guarantee the event lands at or after
/// [`Scheduler::now`]:
///
/// * [`schedule_at`](Scheduler::schedule_at) panics on a past `time`;
/// * [`schedule_after`](Scheduler::schedule_after) adds a non-negative delay
///   with saturating arithmetic, so even a delay that overflows the clock
///   lands at [`SimTime::MAX`], never in the past;
/// * [`schedule_now`](Scheduler::schedule_now) targets `now` exactly.
///
/// Together with the queue's ascending `(time, seq)` pop order this makes
/// the clock monotone: no event ever observes a world state newer than its
/// own timestamp.
///
/// # Reserved slots
///
/// Every event has a `(time, seq)` key, and dispatch walks keys in
/// ascending order. [`reserve_seq`](Scheduler::reserve_seq) claims a
/// sequence number without scheduling anything, so a caller can decide
/// *later* whether an event belongs in that slot. While the slot is still
/// [ahead](Scheduler::is_ahead) of the event being dispatched,
/// [`schedule_at_reserved`](Scheduler::schedule_at_reserved) puts the
/// event exactly where an eager push would have, so skipping events that
/// would have done nothing never changes the dispatch order of the rest.
///
/// # Example
///
/// ```
/// use tcpburst_des::{Scheduler, SimDuration, SimTime};
///
/// let mut sched = Scheduler::new();
/// sched.schedule_after(SimDuration::from_secs(1), "tick");
/// let mut ticks = 0;
/// while let Some((_, ev)) = sched.pop() {
///     assert_eq!(ev, "tick");
///     ticks += 1;
///     if ticks < 3 {
///         sched.schedule_after(SimDuration::from_secs(1), "tick");
///     }
/// }
/// assert_eq!(ticks, 3);
/// assert_eq!(sched.now(), SimTime::from_secs(3));
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    /// Distinguishes this scheduler from every other one in the process.
    id: u64,
    queue: EventQueue<E>,
    /// The rest of the same-timestamp run being dispatched by
    /// [`pop_batched`](Scheduler::pop_batched): `(seq, event)` pairs, all at
    /// `now`, in ascending `seq` order.
    batch: VecDeque<(u64, E)>,
    /// Sequence numbers below this were allocated before the current run
    /// was drained, so a reserved slot among them belongs inside the run;
    /// zero outside batched dispatch.
    batch_floor: u64,
    now: SimTime,
    /// One past the sequence number of the event being dispatched (zero
    /// before the first): a slot `(now, seq)` is ahead iff `seq >= cursor`.
    cursor: u64,
    processed: u64,
    pending_peak: usize,
}

impl<E> Scheduler<E> {
    /// Creates a scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler::with_capacity(0)
    }

    /// Creates a scheduler whose future-event list has room for `capacity`
    /// events before reallocating.
    ///
    /// Pre-sizing matters on the simulation hot path: the event queue grows
    /// with the number of concurrently active flows and timers, and letting
    /// it double its way up from empty costs a series of reallocation +
    /// copy cycles at exactly the moment the run is busiest. Callers that
    /// know their scale (e.g. a scenario with `M` clients) should pass a
    /// proportional capacity hint.
    pub fn with_capacity(capacity: usize) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        /// Same-timestamp runs rarely exceed this; sizing the batch up front
        /// keeps its growth out of the steady-state loop.
        const BATCH_HINT: usize = 64;
        Scheduler {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            queue: EventQueue::with_capacity(capacity),
            batch: VecDeque::with_capacity(capacity.min(BATCH_HINT)),
            batch_floor: 0,
            now: SimTime::ZERO,
            cursor: 0,
            processed: 0,
            pending_peak: 0,
        }
    }

    /// A process-unique identity. Reserved sequence numbers mean something
    /// only to the scheduler that issued them, so state holding one across
    /// schedulers (a network driven by a fresh scheduler per run) checks
    /// this first.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of events the future-event list can hold without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn note_pushed(&mut self) {
        let len = self.pending();
        if len > self.pending_peak {
            self.pending_peak = len;
        }
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// Monotonicity: `time` must be at or after [`Scheduler::now`]; the
    /// simulated world cannot be causally rewritten.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (before [`Scheduler::now`]).
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        self.schedule_at_keyed(time, event);
    }

    /// Like [`Scheduler::schedule_at`], but returns the [`EventKey`] that
    /// can later [`cancel`](Scheduler::cancel) the event.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (before [`Scheduler::now`]).
    pub fn schedule_at_keyed(&mut self, time: SimTime, event: E) -> EventKey {
        assert!(
            time >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            time
        );
        let key = self.queue.push_keyed(time, event);
        self.note_pushed();
        key
    }

    /// Schedules `event` to fire `delay` after the current time.
    ///
    /// Monotonicity: the target is `now + delay` with saturating addition,
    /// so it is always at or after [`Scheduler::now`] — a delay large enough
    /// to overflow the clock lands at [`SimTime::MAX`] instead of wrapping
    /// into the past.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let time = self.now + delay;
        debug_assert!(time >= self.now, "saturating add went backwards");
        self.queue.push(time, event);
        self.note_pushed();
    }

    /// Schedules `event` at the current instant (after all events already
    /// queued for this instant).
    ///
    /// Monotonicity: the target is exactly [`Scheduler::now`], so the event
    /// can never land in the past; the FIFO tie-break orders it after
    /// everything already queued for this instant.
    pub fn schedule_now(&mut self, event: E) {
        self.queue.push(self.now, event);
        self.note_pushed();
    }

    /// Claims the next sequence number without scheduling anything (see
    /// [Reserved slots](Scheduler#reserved-slots)).
    pub fn reserve_seq(&mut self) -> u64 {
        self.queue.reserve_seq()
    }

    /// Schedules `event` in the reserved slot `(time, seq)`.
    ///
    /// The event dispatches exactly where one pushed at reservation time
    /// would have. A slot at the current instant whose number predates the
    /// run being dispatched lands in its place within that run.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past; debug builds also panic if the
    /// slot is no longer [ahead](Scheduler::is_ahead) of the dispatch
    /// position, since the event would then run out of order.
    pub fn schedule_at_reserved(&mut self, time: SimTime, seq: u64, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            time
        );
        debug_assert!(self.is_ahead(time, seq), "reserved slot ({time}, {seq}) already passed");
        if time == self.now && seq < self.batch_floor {
            let at = self.batch.partition_point(|&(s, _)| s < seq);
            self.batch.insert(at, (seq, event));
        } else {
            self.queue.push_reserved(time, seq, event);
        }
        self.note_pushed();
    }

    /// Sequence number of the event most recently dispatched, `None` before
    /// the first.
    pub fn current_seq(&self) -> Option<u64> {
        self.cursor.checked_sub(1)
    }

    /// True if the slot `(time, seq)` is still ahead of the dispatch
    /// position — an event scheduled there would not have run yet.
    ///
    /// When a pop parks the clock at its horizon, every number allocated so
    /// far counts as passed at the parked instant, as if their events had
    /// all dispatched.
    #[inline]
    pub fn is_ahead(&self, time: SimTime, seq: u64) -> bool {
        time > self.now || (time == self.now && seq >= self.cursor)
    }

    /// Deletes a previously scheduled event before it pops, returning it.
    ///
    /// Returns `None` when the event already popped or was already
    /// cancelled. An event in the run [`pop_batched`](Scheduler::pop_batched)
    /// is dispatching has already left the queue, so cancelling it misses
    /// too (callers then rely on lazy generation-counter invalidation; see
    /// [`TimerSlot`](crate::TimerSlot)).
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        self.queue.cancel(key)
    }

    /// Records that the event `(time, seq)` is being dispatched.
    #[inline]
    fn dispatch(&mut self, time: SimTime, seq: u64) {
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.cursor = seq + 1;
        self.processed += 1;
    }

    /// Takes the next event of the current run, if any is left.
    #[inline]
    fn next_in_batch(&mut self) -> Option<(SimTime, E)> {
        let (seq, event) = self.batch.pop_front()?;
        self.dispatch(self.now, seq);
        Some((self.now, event))
    }

    /// Advances the clock to `horizon` when nothing is due by then; every
    /// sequence number allocated so far now counts as passed.
    fn park(&mut self, horizon: SimTime) {
        if self.now < horizon {
            self.now = horizon;
        }
        self.cursor = self.queue.scheduled_total();
        self.batch_floor = 0;
    }

    /// Removes the earliest event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when no events remain; the clock stays where it was.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(next) = self.next_in_batch() {
            return Some(next);
        }
        let (time, seq, event) = self.queue.pop_entry()?;
        self.batch_floor = 0;
        self.dispatch(time, seq);
        Some((time, event))
    }

    /// Like [`Scheduler::pop`], but refuses to advance past `horizon`.
    ///
    /// An event with `time > horizon` is left in the queue and the clock is
    /// advanced to exactly `horizon`. Use this to end a run at a fixed
    /// duration without draining stragglers.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.now <= horizon {
            if let Some(next) = self.next_in_batch() {
                return Some(next);
            }
        }
        match self.queue.pop_due_entry(horizon) {
            Some((time, seq, event)) => {
                self.batch_floor = 0;
                self.dispatch(time, seq);
                Some((time, event))
            }
            None => {
                self.park(horizon);
                None
            }
        }
    }

    /// Like [`Scheduler::pop_until`], but takes each timestamp's whole run
    /// of events out of the queue in one search and hands it out one event
    /// per call — the dispatch loop's fast path.
    ///
    /// The dispatch order is event-for-event that of
    /// [`pop_until`](Scheduler::pop_until): same-instant events pushed
    /// while a run is dispatching get higher sequence numbers and form the
    /// next run, exactly where single-pop would place them, and a reserved
    /// slot inside the run is filled in place by
    /// [`schedule_at_reserved`](Scheduler::schedule_at_reserved). The only
    /// observable difference is that [`cancel`](Scheduler::cancel) misses
    /// events of the run being dispatched.
    pub fn pop_batched(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.batch.is_empty() {
            self.batch_floor = self.queue.scheduled_total();
            match self.queue.pop_due_run(horizon, &mut self.batch) {
                Some(time) => {
                    debug_assert!(time >= self.now, "event queue went backwards");
                    self.now = time;
                }
                None => {
                    self.park(horizon);
                    return None;
                }
            }
        }
        self.next_in_batch()
    }

    /// Number of events scheduled and not yet dispatched.
    pub fn pending(&self) -> usize {
        self.queue.len() + self.batch.len()
    }

    /// Highest number of simultaneously pending events seen so far.
    pub fn pending_peak(&self) -> usize {
        self.pending_peak
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of scheduled events deleted in place via
    /// [`Scheduler::cancel`] before they could fire.
    pub fn cancelled_in_place(&self) -> u64 {
        self.queue.cancelled_in_place()
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.batch.is_empty() {
            self.queue.peek_time()
        } else {
            Some(self.now)
        }
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_pops() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(10), 1);
        s.schedule_at(SimTime::from_millis(20), 2);
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_millis(10));
        s.pop();
        assert_eq!(s.now(), SimTime::from_millis(20));
        assert_eq!(s.processed(), 2);
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(5), "first");
        s.pop();
        s.schedule_after(SimDuration::from_millis(3), "second");
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(8));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(5), ());
        s.pop();
        s.schedule_at(SimTime::from_millis(1), ());
    }

    #[test]
    fn schedule_after_saturates_instead_of_wrapping() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), ());
        s.pop();
        // A delay that overflows the clock must land at MAX, not wrap
        // behind `now`.
        s.schedule_after(SimDuration::from_nanos(u64::MAX), ());
        assert_eq!(s.peek_time(), Some(SimTime::MAX));
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), "in");
        s.schedule_at(SimTime::from_secs(10), "out");
        let horizon = SimTime::from_secs(5);
        assert_eq!(s.pop_until(horizon).map(|(_, e)| e), Some("in"));
        assert_eq!(s.pop_until(horizon), None);
        // Clock parked exactly at the horizon; the late event stays queued.
        assert_eq!(s.now(), horizon);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn schedule_now_runs_after_current_instant_events() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(1), "a");
        s.schedule_at(SimTime::from_millis(1), "b");
        let (_, first) = s.pop().unwrap();
        assert_eq!(first, "a");
        s.schedule_now("c");
        assert_eq!(s.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(s.pop().map(|(_, e)| e), Some("c"));
    }

    #[test]
    fn cancel_skips_the_event_and_counts() {
        let mut s = Scheduler::new();
        let key = s.schedule_at_keyed(SimTime::from_millis(5), "timer");
        s.schedule_at(SimTime::from_millis(7), "data");
        assert_eq!(s.cancel(key), Some("timer"));
        assert_eq!(s.cancelled_in_place(), 1);
        assert_eq!(s.pop().map(|(_, e)| e), Some("data"));
        assert!(s.pop().is_none());
    }

    #[test]
    fn pop_batched_hands_out_the_run_and_parks_at_horizon() {
        let mut s = Scheduler::new();
        let t = SimTime::from_millis(3);
        s.schedule_at(t, "a");
        s.schedule_at(t, "b");
        s.schedule_at(SimTime::from_secs(10), "late");
        let horizon = SimTime::from_secs(5);
        assert_eq!(s.pop_batched(horizon), Some((t, "a")));
        // The rest of the run left the queue but still counts as pending.
        assert_eq!(s.pending(), 2);
        assert_eq!(s.peek_time(), Some(t));
        assert_eq!(s.pop_batched(horizon), Some((t, "b")));
        assert_eq!(s.processed(), 2);
        assert_eq!(s.pop_batched(horizon), None);
        assert_eq!(s.now(), horizon);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn same_instant_push_during_a_run_forms_the_next_run() {
        let mut s = Scheduler::new();
        let t = SimTime::from_millis(1);
        s.schedule_at(t, "first");
        s.schedule_at(t, "second");
        assert_eq!(s.pop_batched(SimTime::from_secs(1)), Some((t, "first")));
        s.schedule_now("third");
        assert_eq!(s.pop_batched(SimTime::from_secs(1)), Some((t, "second")));
        assert_eq!(s.pop_batched(SimTime::from_secs(1)), Some((t, "third")));
    }

    #[test]
    fn reserved_slot_fills_in_place_within_the_run() {
        let mut s = Scheduler::new();
        let t = SimTime::from_millis(2);
        s.schedule_at(t, "a");
        let slot = s.reserve_seq();
        s.schedule_at(t, "c");
        let horizon = SimTime::from_secs(1);
        assert_eq!(s.pop_batched(horizon), Some((t, "a")));
        assert!(s.is_ahead(t, slot));
        s.schedule_at_reserved(t, slot, "b");
        s.schedule_now("d");
        let rest: Vec<_> = std::iter::from_fn(|| s.pop_batched(horizon)).map(|(_, e)| e).collect();
        assert_eq!(rest, ["b", "c", "d"]);
    }

    #[test]
    fn passed_slots_and_parking() {
        let mut s = Scheduler::new();
        let slot = s.reserve_seq();
        assert_eq!(s.current_seq(), None);
        assert!(s.is_ahead(SimTime::ZERO, slot), "nothing has dispatched yet");
        s.schedule_at(SimTime::from_millis(1), "x");
        s.pop();
        assert_eq!(s.current_seq(), Some(1));
        assert!(!s.is_ahead(SimTime::from_millis(1), slot));
        assert!(s.is_ahead(SimTime::from_millis(2), slot));
        let late = s.reserve_seq();
        assert!(s.is_ahead(SimTime::from_millis(1), late));
        // Parking at the horizon passes every number allocated so far.
        assert_eq!(s.pop_until(SimTime::from_millis(5)), None);
        assert!(!s.is_ahead(SimTime::from_millis(5), late));
        let fresh = s.reserve_seq();
        assert!(s.is_ahead(SimTime::from_millis(5), fresh));
    }

    #[test]
    fn pending_peak_tracks_high_water_mark() {
        let mut s = Scheduler::new();
        for ms in 1..=5u64 {
            s.schedule_at(SimTime::from_millis(ms), ());
        }
        while s.pop().is_some() {}
        s.schedule_after(SimDuration::from_millis(1), ());
        assert_eq!(s.pending_peak(), 5);
        assert_eq!(s.pending(), 1);
    }
}
