//! Property test: filling reserved slots lazily dispatches in exactly the
//! `(time, seq)` order of filling them eagerly.
//!
//! Two schedulers replay the same random schedule. Each dispatched event
//! may push fresh events (some at the current instant) and reserve a slot
//! a few ticks ahead. The *eager* run fills every slot the moment it is
//! reserved and dispatches single-pop; the *lazy* run leaves slots empty
//! and fills them later, from whichever event happens to be dispatching,
//! but only while [`Scheduler::is_ahead`] says the slot has not passed —
//! the rule a link uses for its `TxComplete`. Events in reserved slots do
//! nothing, so a slot the lazy run never fills is one the eager run
//! dispatched as a no-op. With times drawn from a handful of ticks, many
//! fills land at the current instant, both inside the same-timestamp run
//! being dispatched and after its last event.

use proptest::prelude::*;
use tcpburst_des::{QueueBackend, Scheduler, SimDuration, SimTime};

/// Events the generator may create per case.
const BUDGET: u64 = 300;

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// An ordinary event; its id seeds what it does when dispatched.
    Work(u64),
    /// The occupant of a reserved slot: does nothing.
    Slot(u64),
}

/// A reserved, not yet filled slot of the lazy run.
struct Pending {
    time: SimTime,
    seq: u64,
    id: u64,
}

/// How a run dispatches.
#[derive(Clone, Copy)]
enum Mode {
    EagerSinglePop,
    LazySinglePop,
    LazyBatched,
}

/// Replays the schedule and returns `(time, seq, event)` per dispatch
/// plus the ids of slots left unfilled.
fn replay(
    seed: u64,
    starts: &[u64],
    backend: QueueBackend,
    mode: Mode,
) -> (Vec<(SimTime, u64, Ev)>, Vec<u64>) {
    let tick = SimDuration::from_micros;
    let mut sched: Scheduler<Ev> = Scheduler::with_capacity_and_backend(0, backend);
    let mut next_id = 0u64;
    for &t in starts {
        sched.schedule_at(SimTime::ZERO + tick(t), Ev::Work(next_id));
        next_id += 1;
    }
    let mut pending: Vec<Pending> = Vec::new();
    let mut unfilled = Vec::new();
    let mut log = Vec::new();
    loop {
        let popped = match mode {
            Mode::LazyBatched => sched.pop_batched(SimTime::MAX),
            _ => sched.pop(),
        };
        let Some((now, ev)) = popped else { break };
        log.push((
            now,
            sched.current_seq().expect("an event is dispatching"),
            ev,
        ));
        let Ev::Work(id) = ev else { continue };
        let h = mix(seed ^ mix(id));
        if next_id < BUDGET {
            for i in 0..h % 3 {
                let delay = (h >> (8 + 2 * i)) % 3;
                sched.schedule_at(now + tick(delay), Ev::Work(next_id));
                next_id += 1;
            }
            if h & (1 << 20) == 0 {
                let time = now + tick((h >> 24) % 3);
                let seq = sched.reserve_seq();
                match mode {
                    Mode::EagerSinglePop => {
                        sched.schedule_at_reserved(time, seq, Ev::Slot(next_id))
                    }
                    _ => pending.push(Pending {
                        time,
                        seq,
                        id: next_id,
                    }),
                }
                next_id += 1;
            }
        }
        // Lazy fills: each pending slot is either filled now (if still
        // ahead), given up on (if passed), or left for a later event.
        pending.retain(|p| {
            if mix(h ^ p.id) & 1 == 0 {
                return true;
            }
            if sched.is_ahead(p.time, p.seq) {
                sched.schedule_at_reserved(p.time, p.seq, Ev::Slot(p.id));
            } else {
                unfilled.push(p.id);
            }
            false
        });
    }
    unfilled.extend(pending.iter().map(|p| p.id));
    (log, unfilled)
}

proptest! {
    #[test]
    fn prop_lazy_reserved_fills_dispatch_in_eager_order(
        seed in 0u64..u64::MAX,
        starts in proptest::collection::vec(0u64..4, 1..12),
    ) {
        for backend in [QueueBackend::Calendar, QueueBackend::BinaryHeap] {
            let (eager, _) = replay(seed, &starts, backend, Mode::EagerSinglePop);
            for mode in [Mode::LazySinglePop, Mode::LazyBatched] {
                let (lazy, unfilled) = replay(seed, &starts, backend, mode);
                let expected: Vec<_> = eager
                    .iter()
                    .filter(|(_, _, ev)| !matches!(ev, Ev::Slot(id) if unfilled.contains(id)))
                    .copied()
                    .collect();
                prop_assert_eq!(&lazy, &expected, "lazy fills changed the dispatch order");
            }
        }
    }
}
