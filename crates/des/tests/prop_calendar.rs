//! Property tests: the calendar-queue [`EventQueue`] must be observationally
//! identical to a plain binary-heap model under random interleavings of
//! every queue operation — same `(time, seq)` pop order, same lengths, no
//! events lost or duplicated across bucket resizes.
//!
//! The model is a `std::collections::BinaryHeap<Reverse<(time, seq)>>` that
//! mirrors the queue's sequence numbering, so each event's payload is its
//! own sequence number. Each random `u64` opcode drives both through the
//! same operation; divergence at any step is a failure. Times are drawn
//! from a range wide enough to force calendar-width recalibration and from
//! a narrow range that piles events into few buckets, so both resize
//! directions get exercised.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use proptest::prelude::*;
use tcpburst_des::{EventKey, EventQueue, Scheduler, SimTime};

/// The reference future-event list: ascending `(time, seq)` by
/// construction, with cancellation as a linear `retain`.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    live: BTreeSet<u64>,
    next_seq: u64,
}

impl Model {
    fn reserve(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn push(&mut self, time: u64, seq: u64) {
        self.heap.push(Reverse((time, seq)));
        self.live.insert(seq);
    }

    fn cancel(&mut self, seq: u64) -> Option<u64> {
        if !self.live.remove(&seq) {
            return None;
        }
        self.heap.retain(|&Reverse((_, s))| s != seq);
        Some(seq)
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let Reverse((time, seq)) = self.heap.pop()?;
        self.live.remove(&seq);
        Some((time, seq))
    }

    /// Every event at the earliest timestamp, if that is at most `horizon`.
    fn pop_due_run(&mut self, horizon: u64) -> Option<(u64, Vec<(u64, u64)>)> {
        let &Reverse((time, _)) = self.heap.peek().filter(|e| e.0 .0 <= horizon)?;
        let mut run = Vec::new();
        while self.heap.peek().is_some_and(|e| e.0 .0 == time) {
            let (_, seq) = self.pop().expect("peek just succeeded");
            run.push((seq, seq));
        }
        Some((time, run))
    }
}

/// Replays one opcode sequence on the calendar queue and the model.
fn run_interleaving(ops: &[u64], time_range: u64) -> Result<(), TestCaseError> {
    let mut cal: EventQueue<u64> = EventQueue::new();
    let mut model = Model::default();
    // Every key ever handed out, live or not: cancelling a popped or
    // already-cancelled key must miss on both sides.
    let mut keys: Vec<(EventKey, u64)> = Vec::new();
    let mut reserved: Vec<u64> = Vec::new();
    let mut run = VecDeque::new();

    for &op in ops {
        let arg = op / 16;
        let time = arg % time_range;
        match op % 10 {
            // Plain pushes dominate so the queues grow.
            0..=2 => {
                let seq = model.reserve();
                cal.push(SimTime::from_nanos(time), seq);
                model.push(time, seq);
            }
            3 => {
                let seq = model.reserve();
                keys.push((cal.push_keyed(SimTime::from_nanos(time), seq), seq));
                model.push(time, seq);
            }
            4 => {
                if !keys.is_empty() {
                    let (key, seq) = keys[arg as usize % keys.len()];
                    prop_assert_eq!(cal.cancel(key), model.cancel(seq), "cancel diverged");
                }
            }
            5 => {
                let seq = cal.reserve_seq();
                prop_assert_eq!(seq, model.reserve(), "reserved numbers diverged");
                reserved.push(seq);
            }
            6 => {
                if !reserved.is_empty() {
                    let seq = reserved.swap_remove(arg as usize % reserved.len());
                    keys.push((cal.push_reserved(SimTime::from_nanos(time), seq, seq), seq));
                    model.push(time, seq);
                }
            }
            7 => {
                let got = cal.pop().map(|(t, p)| (t.as_nanos(), p));
                prop_assert_eq!(got, model.pop(), "pop diverged");
            }
            _ => {
                let horizon = if arg & 1 == 0 { u64::MAX } else { time };
                run.clear();
                let got = cal
                    .pop_due_run(SimTime::from_nanos(horizon), &mut run)
                    .map(|t| (t.as_nanos(), run.iter().copied().collect::<Vec<_>>()));
                prop_assert_eq!(got, model.pop_due_run(horizon), "pop_due_run diverged");
            }
        }
        prop_assert_eq!(cal.len(), model.heap.len(), "lengths diverged");
        prop_assert_eq!(cal.scheduled_total(), model.next_seq, "numbering diverged");
        prop_assert_eq!(
            cal.peek_time().map(SimTime::as_nanos),
            model.heap.peek().map(|e| e.0 .0),
            "peek diverged"
        );
    }

    // Drain both run by run; the remaining order must agree exactly.
    loop {
        run.clear();
        let got = cal
            .pop_due_run(SimTime::MAX, &mut run)
            .map(|t| (t.as_nanos(), run.iter().copied().collect::<Vec<_>>()));
        let want = model.pop_due_run(u64::MAX);
        prop_assert_eq!(&got, &want, "drain diverged");
        if got.is_none() {
            break;
        }
    }
    prop_assert!(cal.is_empty() && model.heap.is_empty());
    Ok(())
}

proptest! {
    /// Wide time range: events spread across many calendar years, forcing
    /// width recalibration and the direct-search fallback path.
    #[test]
    fn prop_matches_heap_wide_times(ops in proptest::collection::vec(0u64..u64::MAX, 0..400)) {
        run_interleaving(&ops, u64::MAX / 8)?;
    }

    /// Narrow time range: heavy collisions pile events into few buckets and
    /// drive the FIFO tie-break plus grow/shrink resizes.
    #[test]
    fn prop_matches_heap_narrow_times(ops in proptest::collection::vec(0u64..u64::MAX, 0..400)) {
        run_interleaving(&ops, 1_000)?;
    }

    /// Degenerate range: many events at identical timestamps — pure
    /// sequence-number ordering.
    #[test]
    fn prop_matches_heap_identical_times(ops in proptest::collection::vec(0u64..u64::MAX, 0..200)) {
        run_interleaving(&ops, 4)?;
    }

    /// Batched dispatch is event-for-event equivalent to single-pop:
    /// `pop_batched` reproduces the exact `pop_until` sequence, parks at
    /// the same horizon and leaves the same events pending.
    #[test]
    fn prop_batch_drain_equals_single_pop(
        times in proptest::collection::vec(0u64..2_000, 0..400),
        horizon in 0u64..2_500,
    ) {
        let mut single: Scheduler<usize> = Scheduler::new();
        let mut batched: Scheduler<usize> = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            single.schedule_at(SimTime::from_nanos(t), i);
            batched.schedule_at(SimTime::from_nanos(t), i);
        }
        let horizon = SimTime::from_nanos(horizon);
        let popped: Vec<(SimTime, usize)> =
            std::iter::from_fn(|| single.pop_until(horizon)).collect();
        let drained: Vec<(SimTime, usize)> =
            std::iter::from_fn(|| batched.pop_batched(horizon)).collect();
        prop_assert_eq!(&popped, &drained, "batched dispatch diverged from single-pop");
        prop_assert_eq!(single.now(), batched.now());
        prop_assert_eq!(single.pending(), batched.pending());
    }

    /// Push-only growth then full drain: no event lost across the resize
    /// cascade, pop order globally sorted.
    #[test]
    fn prop_no_lost_events_across_resizes(times in proptest::collection::vec(0u64..10_000_000, 1..600)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        prop_assert_eq!(q.len(), times.len());
        let mut expected: Vec<(u64, usize)> =
            times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
        expected.sort();
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, i)| (t.as_nanos(), i)).collect();
        prop_assert_eq!(got, expected);
    }
}
