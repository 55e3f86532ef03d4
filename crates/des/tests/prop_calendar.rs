//! Property tests: the calendar-queue backend must be observationally
//! identical to the binary-heap reference under random push/pop/cancel
//! interleavings — same `(time, seq)` pop order, same lengths, no events
//! lost or duplicated across bucket resizes.
//!
//! Each random `u64` opcode drives both backends through the same operation;
//! divergence at any step is a failure. Times are drawn from a range wide
//! enough to force calendar-width recalibration and from a narrow range that
//! piles events into few buckets, so both resize directions get exercised.

use proptest::prelude::*;
use tcpburst_des::{EventKey, EventQueue, QueueBackend, Scheduler, SimTime};

/// A step decoded from one opcode: push (with a time), pop, or cancel one
/// of the still-live keys.
fn run_interleaving(ops: &[u64], time_range: u64) -> Result<(), TestCaseError> {
    let mut cal: EventQueue<u64> = EventQueue::with_capacity_and_backend(0, QueueBackend::Calendar);
    let mut heap: EventQueue<u64> = EventQueue::with_capacity_and_backend(0, QueueBackend::BinaryHeap);
    // Keys live per-backend, but index i always names the same logical event.
    let mut cal_keys: Vec<(EventKey, u64)> = Vec::new();
    let mut heap_live: Vec<u64> = Vec::new(); // payloads cancelled on cal, pending on heap
    let mut payload = 0u64;

    for &op in ops {
        match op % 4 {
            // Push twice as often as pop/cancel so the queues grow.
            0 | 1 => {
                let t = SimTime::from_nanos((op / 4) % time_range);
                let key = cal.push_keyed(t, payload);
                heap.push(t, payload);
                cal_keys.push((key, payload));
                payload += 1;
            }
            2 => {
                // The heap cannot cancel, so emulate: pop the heap and skip
                // payloads the calendar deleted in place.
                let got = cal.pop();
                let want = loop {
                    match heap.pop() {
                        Some((t, p)) if heap_live.contains(&p) => {
                            heap_live.retain(|&x| x != p);
                            let _ = t;
                        }
                        other => break other,
                    }
                };
                prop_assert_eq!(got, want, "pop diverged");
                if let Some((_, p)) = got {
                    cal_keys.retain(|&(_, kp)| kp != p);
                }
            }
            _ => {
                if !cal_keys.is_empty() {
                    let (key, p) = cal_keys.remove((op as usize / 4) % cal_keys.len());
                    let cancelled = cal.cancel(key);
                    prop_assert_eq!(cancelled, Some(p), "live key failed to cancel");
                    heap_live.push(p);
                }
            }
        }
        prop_assert_eq!(
            cal.len() + heap_live.len(),
            heap.len(),
            "lengths diverged (modulo emulated cancels)"
        );
    }

    // Drain both; remaining pop order must agree exactly.
    loop {
        let got = cal.pop();
        let want = loop {
            match heap.pop() {
                Some((_, p)) if heap_live.contains(&p) => heap_live.retain(|&x| x != p),
                other => break other,
            }
        };
        prop_assert_eq!(got, want, "drain diverged");
        if got.is_none() {
            break;
        }
    }
    prop_assert!(cal.is_empty() && heap.is_empty());
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

    /// Batched dispatch is event-for-event equivalent to single-pop on both
    /// backends: `pop_batched` reproduces the exact `pop_until` sequence,
    /// parks at the same horizon and leaves the same events pending.
    #[test]
    fn prop_batch_drain_equals_single_pop(
        times in proptest::collection::vec(0u64..2_000, 0..400),
        horizon in 0u64..2_500,
    ) {
        for backend in [QueueBackend::Calendar, QueueBackend::BinaryHeap] {
            let mut single: Scheduler<usize> = Scheduler::with_capacity_and_backend(0, backend);
            let mut batched: Scheduler<usize> = Scheduler::with_capacity_and_backend(0, backend);
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
    }

    /// Push-only growth then full drain: no event lost across the resize
    /// cascade, pop order globally sorted.
    #[test]
    fn prop_no_lost_events_across_resizes(times in proptest::collection::vec(0u64..10_000_000, 1..600)) {
        let mut q: EventQueue<usize> =
            EventQueue::with_capacity_and_backend(0, QueueBackend::Calendar);
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
