//! Cancellable logical timers and repeating phase cycles.
//!
//! Two cancellation strategies, layered:
//!
//! * **Eager (in-place deletion).** [`TimerSlot::schedule`] remembers the
//!   [`EventKey`] of the queued firing; a re-arm or
//!   [`TimerSlot::cancel_scheduled`] deletes the stale entry from the queue
//!   on the spot, so dead timer events never travel through the hot loop at
//!   all.
//! * **Lazy (generation counter).** Every (re)arm bumps a generation, the
//!   generation is embedded in the scheduled event, and a firing whose
//!   generation no longer matches is ignored. It covers what the deletion
//!   cannot reach: firings already in flight — out of the queue but not yet
//!   dispatched, such as one popped into the scheduler's same-timestamp
//!   batch — and firings scheduled through the lazy-only [`TimerSlot::arm`]
//!   or left queued by [`TimerSlot::disarm`].

use crate::queue::EventKey;
use crate::scheduler::Scheduler;
use crate::time::{SimDuration, SimTime};

/// A deterministic repeating sequence of timed phases.
///
/// This is the driver behind impairment schedules (link up/down flaps,
/// periodic capacity or delay toggles): the cycle starts in phase 0, and
/// each transition event advances it to the next phase and re-schedules
/// itself after that phase's hold time. The cycle itself holds no clock —
/// it only answers "which phase am I in, and how long does it last", so the
/// schedule is driven entirely by ordinary scheduler events and stays
/// bit-identical from run to run.
///
/// # Example
///
/// ```
/// use tcpburst_des::{PhaseCycle, Scheduler, SimDuration, SimTime};
///
/// // A link that is up 10 s (phase 0), then down 3 s (phase 1), repeating.
/// let mut cycle = PhaseCycle::new([
///     SimDuration::from_secs(10),
///     SimDuration::from_secs(3),
/// ]);
/// let mut sched: Scheduler<&str> = Scheduler::new();
/// sched.schedule_after(cycle.hold(), "toggle");
///
/// let (t, _) = sched.pop().unwrap();
/// assert_eq!(t, SimTime::from_secs(10));
/// assert_eq!(cycle.advance(), 1); // entering the down phase
/// sched.schedule_after(cycle.hold(), "toggle");
/// let (t, _) = sched.pop().unwrap();
/// assert_eq!(t, SimTime::from_secs(13));
/// assert_eq!(cycle.advance(), 0); // back up
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseCycle {
    phases: Box<[SimDuration]>,
    index: usize,
}

impl PhaseCycle {
    /// Creates a cycle over `phases`, starting in phase 0.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase has zero length (a
    /// zero-length phase would schedule its transition at the current
    /// instant forever, wedging the event loop).
    pub fn new(phases: impl Into<Box<[SimDuration]>>) -> Self {
        let phases = phases.into();
        assert!(!phases.is_empty(), "a phase cycle needs at least one phase");
        assert!(
            phases.iter().all(|p| !p.is_zero()),
            "every phase must have a positive length"
        );
        PhaseCycle { phases, index: 0 }
    }

    /// The phase the cycle is currently in.
    pub fn index(&self) -> usize {
        self.index
    }

    /// How long the current phase lasts — the delay until the next
    /// transition event.
    pub fn hold(&self) -> SimDuration {
        self.phases[self.index]
    }

    /// Moves to the next phase (wrapping), returning its index.
    pub fn advance(&mut self) -> usize {
        self.index = (self.index + 1) % self.phases.len();
        self.index
    }

    /// Number of phases in one full cycle.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Always false: construction rejects empty cycles.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// An opaque token identifying one arming of a [`TimerSlot`].
///
/// Embed the token in the timer event you schedule; when the event pops, ask
/// the slot whether that token is still live via [`TimerSlot::fires`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerGeneration(u64);

/// One logical, re-armable, cancellable timer.
///
/// # Example
///
/// ```
/// use tcpburst_des::{Scheduler, SimDuration, TimerGeneration, TimerSlot};
///
/// enum Ev { Timeout(TimerGeneration) }
///
/// let mut sched = Scheduler::new();
/// let mut rto = TimerSlot::new();
///
/// // Schedule, then re-schedule before it fires: the first entry is
/// // deleted from the queue in place, so only one firing ever pops.
/// let first = sched.now() + SimDuration::from_millis(100);
/// rto.schedule(&mut sched, first, Ev::Timeout);
/// let second = sched.now() + SimDuration::from_millis(300);
/// rto.schedule(&mut sched, second, Ev::Timeout);
/// assert_eq!(sched.pending(), 1);
///
/// let mut fired = 0;
/// while let Some((_, Ev::Timeout(gen))) = sched.pop() {
///     if rto.fires(gen) {
///         rto.disarm();
///         fired += 1;
///     }
/// }
/// assert_eq!(fired, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimerSlot {
    generation: u64,
    deadline: Option<SimTime>,
    /// Queue entry of the current arming's firing, when scheduled eagerly.
    key: Option<EventKey>,
}

impl TimerSlot {
    /// Creates a disarmed timer.
    pub fn new() -> Self {
        TimerSlot::default()
    }

    /// Arms (or re-arms) the timer for `deadline`, invalidating any earlier
    /// arming. Returns the token to embed in the scheduled event.
    ///
    /// This is the lazy half only: the caller schedules the firing event
    /// itself, and a superseded firing is filtered at delivery by
    /// [`TimerSlot::fires`]. Prefer [`TimerSlot::schedule`], which also
    /// deletes the superseded firing from the queue.
    pub fn arm(&mut self, deadline: SimTime) -> TimerGeneration {
        self.generation += 1;
        self.deadline = Some(deadline);
        self.key = None;
        TimerGeneration(self.generation)
    }

    /// Arms (or re-arms) the timer for `deadline` and schedules the firing
    /// event, deleting any previously queued firing in place.
    ///
    /// `make` builds the event from the fresh [`TimerGeneration`]; embed the
    /// token so [`TimerSlot::fires`] can validate the firing when it pops
    /// (the lazy check still applies if the deletion missed, e.g. a firing
    /// already popped into the scheduler's batch).
    pub fn schedule<E>(
        &mut self,
        sched: &mut Scheduler<E>,
        deadline: SimTime,
        make: impl FnOnce(TimerGeneration) -> E,
    ) -> TimerGeneration {
        self.cancel_queued(sched);
        self.generation += 1;
        self.deadline = Some(deadline);
        let token = TimerGeneration(self.generation);
        self.key = Some(sched.schedule_at_keyed(deadline, make(token)));
        token
    }

    /// Arms (or re-arms) the timer for `deadline`, coalescing with an
    /// already-queued earlier firing instead of touching the queue.
    ///
    /// A deadline that only ever moves *forward* (the retransmission timer
    /// re-armed on every ACK) would pay one in-place deletion and one push
    /// per re-arm under [`TimerSlot::schedule`]. This variant leaves the
    /// queued firing where it is whenever it is due **no later** than the
    /// new deadline and merely records the new deadline: the queued event
    /// pops early, and the pop handler must then consult
    /// [`TimerSlot::deadline`] — a pop at `now` strictly before the
    /// deadline is a *deferred* firing, not an expiry, and the handler
    /// re-schedules it (after [`TimerSlot::note_popped`]) at the real
    /// deadline. On a busy connection this replaces two queue operations
    /// per ACK with a field store, at the cost of one extra (filtered) pop
    /// per RTO-length quiet period.
    pub fn schedule_coalesced<E>(
        &mut self,
        sched: &mut Scheduler<E>,
        deadline: SimTime,
        make: impl FnOnce(TimerGeneration) -> E,
    ) -> TimerGeneration {
        if self.deadline.is_some() {
            // While armed with a tracked queue entry, that entry carries the
            // current generation: defer by fiat and let its pop re-schedule.
            if let Some(key) = self.key {
                if key.time() <= deadline {
                    self.deadline = Some(deadline);
                    return TimerGeneration(self.generation);
                }
            }
        }
        self.schedule(sched, deadline, make)
    }

    /// Notes that the current arming's queued firing has left the queue.
    ///
    /// Call this when a live firing pops (after [`TimerSlot::fires`]
    /// returns true) and before re-scheduling: it stops a later
    /// [`TimerSlot::schedule_coalesced`] from coalescing onto a queue entry
    /// that no longer exists.
    pub fn note_popped(&mut self) {
        self.key = None;
    }

    /// Cancels the timer; any in-flight firing becomes stale.
    ///
    /// Lazy half only — a queued firing stays in the queue and is filtered
    /// at delivery. Use [`TimerSlot::cancel_scheduled`] to also delete it.
    pub fn disarm(&mut self) {
        self.generation += 1;
        self.deadline = None;
        // Keep `key`: a later `schedule` can still reap the dead entry.
    }

    /// Cancels the timer and deletes its queued firing in place (the lazy
    /// generation check covers a firing already in flight).
    pub fn cancel_scheduled<E>(&mut self, sched: &mut Scheduler<E>) {
        self.cancel_queued(sched);
        self.disarm();
    }

    /// Deletes the currently tracked queue entry, if any.
    fn cancel_queued<E>(&mut self, sched: &mut Scheduler<E>) {
        if let Some(key) = self.key.take() {
            sched.cancel(key);
        }
    }

    /// True if the timer is currently armed.
    pub fn is_armed(&self) -> bool {
        self.deadline.is_some()
    }

    /// The deadline of the current arming, if armed.
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// True if a firing carrying `token` corresponds to the current arming
    /// (i.e. the timer was not re-armed or cancelled since).
    pub fn fires(&self, token: TimerGeneration) -> bool {
        self.deadline.is_some() && token.0 == self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_cycle_wraps_deterministically() {
        let mut c = PhaseCycle::new([
            SimDuration::from_secs(10),
            SimDuration::from_secs(3),
        ]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.index(), 0);
        assert_eq!(c.hold(), SimDuration::from_secs(10));
        assert_eq!(c.advance(), 1);
        assert_eq!(c.hold(), SimDuration::from_secs(3));
        assert_eq!(c.advance(), 0);
        assert_eq!(c.hold(), SimDuration::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phase_cycle_panics() {
        PhaseCycle::new([] as [SimDuration; 0]);
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn zero_length_phase_panics() {
        PhaseCycle::new([SimDuration::from_secs(1), SimDuration::ZERO]);
    }

    #[test]
    fn fresh_slot_is_disarmed() {
        let t = TimerSlot::new();
        assert!(!t.is_armed());
        assert_eq!(t.deadline(), None);
    }

    #[test]
    fn arming_returns_live_token() {
        let mut t = TimerSlot::new();
        let g = t.arm(SimTime::from_secs(1));
        assert!(t.is_armed());
        assert_eq!(t.deadline(), Some(SimTime::from_secs(1)));
        assert!(t.fires(g));
    }

    #[test]
    fn rearm_invalidates_previous_token() {
        let mut t = TimerSlot::new();
        let g1 = t.arm(SimTime::from_secs(1));
        let g2 = t.arm(SimTime::from_secs(2));
        assert!(!t.fires(g1));
        assert!(t.fires(g2));
    }

    #[test]
    fn disarm_invalidates_token() {
        let mut t = TimerSlot::new();
        let g = t.arm(SimTime::from_secs(1));
        t.disarm();
        assert!(!t.fires(g));
        assert!(!t.is_armed());
    }

    #[test]
    fn stale_token_stays_stale_after_rearm() {
        let mut t = TimerSlot::new();
        let g1 = t.arm(SimTime::from_secs(1));
        t.disarm();
        let g2 = t.arm(SimTime::from_secs(3));
        assert!(!t.fires(g1));
        assert!(t.fires(g2));
    }

    #[test]
    fn reschedule_deletes_previous_firing_from_queue() {
        let mut sched: Scheduler<TimerGeneration> = Scheduler::new();
        let mut t = TimerSlot::new();
        t.schedule(&mut sched, SimTime::from_secs(1), |g| g);
        let g2 = t.schedule(&mut sched, SimTime::from_secs(2), |g| g);
        assert_eq!(sched.pending(), 1, "stale firing deleted in place");
        assert_eq!(sched.cancelled_in_place(), 1);
        let (when, popped) = sched.pop().unwrap();
        assert_eq!(when, SimTime::from_secs(2));
        assert!(t.fires(popped));
        assert_eq!(popped, g2);
    }

    #[test]
    fn cancel_scheduled_empties_queue_and_disarms() {
        let mut sched: Scheduler<TimerGeneration> = Scheduler::new();
        let mut t = TimerSlot::new();
        let g = t.schedule(&mut sched, SimTime::from_secs(1), |g| g);
        t.cancel_scheduled(&mut sched);
        assert!(!t.is_armed());
        assert!(!t.fires(g));
        assert!(sched.pop().is_none());
        assert_eq!(sched.cancelled_in_place(), 1);
    }

    #[test]
    fn coalesced_rearm_defers_without_queue_traffic() {
        let mut sched: Scheduler<TimerGeneration> = Scheduler::new();
        let mut t = TimerSlot::new();
        let g1 = t.schedule(&mut sched, SimTime::from_secs(1), |g| g);
        // Forward re-arm coalesces: same token, same queue entry, new
        // deadline in the slot only.
        let g2 = t.schedule_coalesced(&mut sched, SimTime::from_secs(3), |g| g);
        assert_eq!(g1, g2);
        assert_eq!(sched.pending(), 1);
        assert_eq!(sched.cancelled_in_place(), 0);
        assert_eq!(t.deadline(), Some(SimTime::from_secs(3)));

        // The early firing pops live; the handler re-schedules at the real
        // deadline.
        let (when, popped) = sched.pop().unwrap();
        assert_eq!(when, SimTime::from_secs(1));
        assert!(t.fires(popped));
        t.note_popped();
        let deadline = t.deadline().unwrap();
        assert!(deadline > when);
        let g3 = t.schedule(&mut sched, deadline, |g| g);
        let (when, popped) = sched.pop().unwrap();
        assert_eq!(when, SimTime::from_secs(3));
        assert_eq!(popped, g3);
        assert!(t.fires(popped));
    }

    #[test]
    fn coalesced_rearm_backward_reschedules_eagerly() {
        let mut sched: Scheduler<TimerGeneration> = Scheduler::new();
        let mut t = TimerSlot::new();
        let g1 = t.schedule(&mut sched, SimTime::from_secs(5), |g| g);
        // The new deadline precedes the queued firing: coalescing cannot
        // defer, so this falls back to delete + push.
        let g2 = t.schedule_coalesced(&mut sched, SimTime::from_secs(2), |g| g);
        assert!(!t.fires(g1));
        assert_eq!(sched.pending(), 1);
        let (when, popped) = sched.pop().unwrap();
        assert_eq!(when, SimTime::from_secs(2));
        assert_eq!(popped, g2);
    }

    #[test]
    fn coalesce_after_pop_pushes_fresh_entry() {
        let mut sched: Scheduler<TimerGeneration> = Scheduler::new();
        let mut t = TimerSlot::new();
        t.schedule(&mut sched, SimTime::from_secs(1), |g| g);
        let (_, popped) = sched.pop().unwrap();
        assert!(t.fires(popped));
        t.note_popped();
        // With the queued entry gone, a coalesced re-arm must schedule a
        // real firing, not defer onto the departed one.
        t.schedule_coalesced(&mut sched, SimTime::from_secs(4), |g| g);
        assert_eq!(sched.pending(), 1);
    }

    #[test]
    fn plain_disarm_keeps_entry_reapable_by_next_schedule() {
        let mut sched: Scheduler<TimerGeneration> = Scheduler::new();
        let mut t = TimerSlot::new();
        t.schedule(&mut sched, SimTime::from_secs(1), |g| g);
        t.disarm(); // lazy: entry stays queued
        assert_eq!(sched.pending(), 1);
        t.schedule(&mut sched, SimTime::from_secs(2), |g| g);
        // The re-schedule reaped the disarmed-but-queued entry.
        assert_eq!(sched.pending(), 1);
        assert_eq!(sched.cancelled_in_place(), 1);
    }
}
