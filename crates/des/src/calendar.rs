//! The calendar-queue backend of the future-event list.
//!
//! A calendar queue (Brown 1988) hashes events by time into an array of
//! buckets — "days" on a calendar whose "year" spans `nbuckets × width`
//! nanoseconds. Dequeueing walks the calendar from the current day forward;
//! because the days partition time, the first in-window event found is the
//! global minimum. With the bucket count resized to track the population and
//! the bucket width re-estimated from the observed inter-event gaps, both
//! enqueue and dequeue are O(1) amortized, versus the binary heap's
//! O(log n) sift per operation.
//!
//! Two representation choices keep the constant factor below the heap's:
//! the bucket width is always a power of two, so hashing a timestamp to a
//! day is a shift-and-mask instead of a 64-bit division, and an occupancy
//! bitmap (one bit per bucket) lets the dequeue scan jump over runs of
//! empty days with `trailing_zeros` instead of touching their `Vec`
//! headers.
//!
//! Population-triggered resizes alone cannot keep the width honest: a
//! workload whose *distribution* drifts at constant population — the classic
//! hold benchmark's event pack compresses from its initial span to a few
//! multiples of the mean increment — strands the width estimate and piles
//! the whole population into a handful of days. Following the SNOOPy
//! calendar queue (Tan & Thng 2000), every operation therefore adds its
//! structural work (entries displaced by an insert, buckets probed by a
//! scan) to a cost accumulator, and a sustained average above
//! [`COST_THRESHOLD`] triggers a recalibrating rebuild no matter what the
//! population did.
//!
//! Unlike a heap, buckets also support *deletion by key*: an event whose
//! `(time, seq)` is known can be removed in place, which is what makes the
//! scheduler's eager timer cancellation possible.
//!
//! Determinism: every structural decision (bucket index, resize trigger,
//! width estimate) is a pure function of the operation sequence, so the pop
//! order is exactly the ascending `(time, seq)` order regardless of resize
//! history — property-tested against a [`std::collections::BinaryHeap`]
//! reference in `tests/prop_calendar.rs`.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::VecDeque;

use crate::time::SimTime;

/// One scheduled event.
#[derive(Debug)]
pub(crate) struct Entry<E> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

/// Fewest buckets the calendar ever holds.
const MIN_BUCKETS: usize = 4;
/// Most buckets the calendar ever holds (bounds memory on hostile inputs).
const MAX_BUCKETS: usize = 1 << 20;
/// log2 of the bucket width before the first calibration (2^20 ns ≈ 1 ms —
/// the first resize replaces it with an estimate from the live population).
const DEFAULT_SHIFT: u32 = 20;
/// Narrowest bucket the estimator will pick (2 ns): keeping the shift ≥ 1
/// means a day number `nanos >> shift` can never be `u64::MAX`, so `day + 1`
/// in the scan arithmetic cannot overflow.
const MIN_SHIFT: u32 = 1;
/// Widest bucket the estimator will pick (2^40 ns ≈ 18 simulated minutes).
const MAX_SHIFT: u32 = 40;
/// Events per bucket the resizer aims for.
///
/// The classic calendar targets one event per day, but a table sized that
/// sparsely stops paying off below a few thousand pending events: the ring
/// outgrows cache while most days sit empty, and the hold benchmark showed
/// the heap winning at 1k–10k pending. Aiming for a couple of events per
/// day halves the ring's footprint and the bitmap scan distance; the
/// descending-sorted buckets keep the per-bucket walk at one or two
/// comparisons.
const TARGET_LOAD: usize = 2;
/// Average structural work per operation (entries displaced on insert,
/// buckets probed on scan) above which the table recalibrates. A healthy
/// table averages ≲ [`TARGET_LOAD`]; a stranded width averages hundreds.
const COST_THRESHOLD: u64 = 8;
/// Operations between cost checks when the table is healthy.
const BASE_CHECK_OPS: u32 = 1 << 10;
/// Ceiling for the exponential back-off when recalibration cannot help
/// (e.g. every pending event shares one timestamp): checks at this cadence
/// make the O(n) rebuild attempt amortized O(1) per operation.
const MAX_CHECK_OPS: u32 = 1 << 20;

#[derive(Debug)]
pub(crate) struct Calendar<E> {
    /// Each bucket is sorted *descending* by `(time, seq)` so the bucket
    /// minimum pops from the tail in O(1).
    buckets: Vec<Vec<Entry<E>>>,
    /// One bit per bucket: set iff the bucket is nonempty. The dequeue scan
    /// works word-at-a-time on this map, so a year of empty days costs
    /// `nbuckets / 64` word tests instead of `nbuckets` pointer chases.
    occupied: Vec<u64>,
    /// log2 of the bucket width ("day" length = `1 << shift` nanoseconds).
    shift: u32,
    len: usize,
    /// The dequeue scan's current day number (`nanos >> shift`, un-masked).
    ///
    /// `Cell` so [`Calendar::peek`] (`&self`) can persist scan progress:
    /// advancing past buckets that were verified empty-in-window is a pure
    /// accelerator and never changes what pops next.
    cur_day: Cell<u64>,
    /// Whether the width has been estimated from live data yet.
    calibrated: bool,
    /// Structural work accumulated since the last cost check. `Cell` because
    /// scans also run under `&self` (see `cur_day`); the cost only ever
    /// influences *when* the table rebuilds, never what pops next.
    cost: Cell<u64>,
    /// Operations since the last cost check.
    ops_since_check: u32,
    /// Current cost-check cadence (doubles while rebuilds cannot help).
    check_ops: u32,
}

impl<E> Calendar<E> {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let nbuckets = (capacity / TARGET_LOAD)
            .max(MIN_BUCKETS)
            .next_power_of_two()
            .min(MAX_BUCKETS);
        let per_bucket = capacity / nbuckets + 1;
        Calendar {
            buckets: (0..nbuckets)
                .map(|_| Vec::with_capacity(per_bucket))
                .collect(),
            occupied: vec![0; nbuckets.div_ceil(64)],
            shift: DEFAULT_SHIFT,
            len: 0,
            cur_day: Cell::new(0),
            calibrated: false,
            cost: Cell::new(0),
            ops_since_check: 0,
            check_ops: BASE_CHECK_OPS,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum()
    }

    #[inline]
    fn day_of(&self, nanos: u64) -> u64 {
        nanos >> self.shift
    }

    #[inline]
    fn bucket_of_day(&self, day: u64) -> usize {
        (day as usize) & (self.buckets.len() - 1)
    }

    #[inline]
    fn mark_occupied(&mut self, idx: usize) {
        self.occupied[idx >> 6] |= 1 << (idx & 63);
    }

    #[inline]
    fn mark_empty(&mut self, idx: usize) {
        self.occupied[idx >> 6] &= !(1 << (idx & 63));
    }

    #[inline]
    fn add_cost(&self, units: u64) {
        self.cost.set(self.cost.get() + units);
    }

    /// Counts one operation toward the cost check, recalibrating when the
    /// recent average says the day width no longer fits the distribution.
    #[inline]
    fn note_op(&mut self) {
        self.ops_since_check += 1;
        if self.ops_since_check >= self.check_ops {
            self.check_cost();
        }
    }

    fn check_cost(&mut self) {
        let ops = u64::from(self.ops_since_check);
        let cost = self.cost.get();
        self.ops_since_check = 0;
        self.cost.set(0);
        if cost <= COST_THRESHOLD * ops {
            self.check_ops = BASE_CHECK_OPS;
            return;
        }
        // Operations are running hot. Before paying the O(n) rebuild, probe
        // whether it could even help: re-estimate the geometry from a strided
        // sample of the live buckets (O(nbuckets)). Some workloads are
        // expensive at *any* width — e.g. a dense burst in front of a long
        // sparse tail — and rebuilding into identical geometry is pure loss;
        // ±1 shift of hysteresis absorbs sampling noise so such workloads
        // cannot buy a rebuild every check. When even probing cannot help,
        // back off exponentially so degenerate inputs (every event at one
        // timestamp) amortize the probe cost to O(1) per operation.
        let target_nbuckets = (self.len / TARGET_LOAD)
            .clamp(MIN_BUCKETS, MAX_BUCKETS)
            .next_power_of_two();
        let productive = target_nbuckets != self.buckets.len()
            || self
                .candidate_shift()
                .is_some_and(|s| s.abs_diff(self.shift) > 1);
        if productive {
            self.resize(self.len / TARGET_LOAD);
            self.check_ops = BASE_CHECK_OPS;
        } else {
            self.check_ops = (self.check_ops * 2).min(MAX_CHECK_OPS);
        }
    }

    /// The shift a rebuild would pick right now, estimated from a strided
    /// sample of the live buckets without draining them.
    fn candidate_shift(&self) -> Option<u32> {
        const SAMPLE: usize = 128;
        let step = (self.len / SAMPLE).max(1);
        let mut sample = Vec::with_capacity(SAMPLE);
        let mut next = 0usize;
        let mut seen = 0usize;
        'outer: for bucket in &self.buckets {
            while next < seen + bucket.len() {
                sample.push(bucket[next - seen].time.as_nanos());
                next += step;
                if sample.len() == SAMPLE {
                    break 'outer;
                }
            }
            seen += bucket.len();
        }
        estimate_shift_from(sample, self.len)
    }

    pub(crate) fn push(&mut self, entry: Entry<E>) {
        let day = self.day_of(entry.time.as_nanos());
        // An event landing before the current scan day would be skipped by
        // the forward walk; rewind the scan to it.
        if day < self.cur_day.get() {
            self.cur_day.set(day);
        }
        let idx = self.bucket_of_day(day);
        let bucket = &mut self.buckets[idx];
        let key = (entry.time, entry.seq);
        // Buckets are sorted descending, so the tail is the bucket minimum.
        // A well-calibrated ring keeps buckets near-empty, and seq numbers
        // grow monotonically, so most pushes append at the tail.
        match bucket.last() {
            Some(tail) if (tail.time, tail.seq) < key => {
                let pos = bucket.partition_point(|e| (e.time, e.seq) > key);
                let displaced = (bucket.len() - pos) as u64;
                bucket.insert(pos, entry);
                self.add_cost(displaced);
            }
            _ => bucket.push(entry),
        }
        self.mark_occupied(idx);
        self.len += 1;

        if self.len > 2 * TARGET_LOAD * self.buckets.len() {
            // Let the load drift up to 2x the target before rebuilding, so
            // the table doubles at most once per population doubling.
            self.resize(self.len / TARGET_LOAD);
        } else if !self.calibrated && self.len >= 32 {
            // First calibration: the default width is a guess; re-estimate
            // from the live population once it is big enough to sample.
            self.resize(self.len / TARGET_LOAD);
        } else {
            self.note_op();
        }
    }

    /// First occupied bucket at ring distance `>= skip` from the bucket of
    /// `from_day`, probing at most `limit` buckets; returns `(index, ring
    /// distance)`.
    fn next_occupied(&self, from_day: u64, skip: usize, limit: usize) -> Option<(usize, usize)> {
        let nbuckets = self.buckets.len();
        let mask = nbuckets - 1;
        let start = self.bucket_of_day(from_day);
        let mut dist = skip;
        while dist < limit {
            let idx = (start + dist) & mask;
            let in_word = idx & 63;
            // Bits of this word at or above the current position.
            let word = self.occupied[idx >> 6] >> in_word;
            if word != 0 {
                let hop = word.trailing_zeros() as usize;
                // The hit must stay inside this word *and* the probe limit;
                // past the word end, fall through to the next word.
                if in_word + hop <= 63 && dist + hop < limit {
                    return Some(((idx + hop) & mask, dist + hop));
                }
                if dist + (64 - in_word) >= limit {
                    return None;
                }
            }
            dist += 64 - in_word;
        }
        None
    }

    /// Locates the bucket holding the global minimum `(time, seq)` entry,
    /// advancing the scan state past verified-empty days on the way.
    ///
    /// Must not be called on an empty calendar.
    fn locate_min(&self) -> usize {
        debug_assert!(self.len > 0, "locate_min on empty calendar");
        let nbuckets = self.buckets.len();
        let day = self.cur_day.get();
        // Fast path: the scan is already parked on the minimum's day (the
        // common case right after a peek, or when a popped day holds more).
        let idx = self.bucket_of_day(day);
        if let Some(e) = self.buckets[idx].last() {
            if self.day_of(e.time.as_nanos()) <= day {
                return idx;
            }
        }
        // One calendar year: jump occupied bucket to occupied bucket. Days
        // partition time and are scanned in order, so the first entry found
        // belonging to its probe day is the global minimum. An occupied
        // bucket whose minimum lies in a *later* year is skipped over.
        let mut probes = 0u64;
        let mut skip = 1;
        while let Some((idx, dist)) = self.next_occupied(day, skip, nbuckets) {
            probes += 1;
            let e = self.buckets[idx].last().expect("occupied bucket is nonempty");
            let e_day = self.day_of(e.time.as_nanos());
            if e_day <= day + dist as u64 {
                self.cur_day.set(e_day);
                self.add_cost(probes + (dist as u64) / 64);
                return idx;
            }
            skip = dist + 1;
        }
        // Rare: every pending event lies beyond one full calendar year.
        // Fall back to a direct search across bucket minima.
        self.add_cost(probes + (nbuckets as u64) / 64 + self.len as u64);
        let (key, best) = self
            .iter_occupied()
            .map(|i| {
                let e = self.buckets[i].last().expect("occupied bucket is nonempty");
                ((e.time, e.seq), i)
            })
            .min_by_key(|&(key, _)| key)
            .expect("len > 0 but all buckets empty");
        self.cur_day.set(self.day_of(key.0.as_nanos()));
        best
    }

    /// Indices of the nonempty buckets, in bucket order.
    fn iter_occupied(&self) -> impl Iterator<Item = usize> + '_ {
        self.occupied.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + b)
            })
        })
    }

    /// Timestamp of the earliest pending event.
    pub(crate) fn peek(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        let idx = self.locate_min();
        self.buckets[idx].last().map(|e| e.time)
    }

    pub(crate) fn pop(&mut self) -> Option<Entry<E>> {
        if self.len == 0 {
            return None;
        }
        let idx = self.locate_min();
        Some(self.pop_from(idx))
    }

    /// Pops the minimum only if it is due by `horizon` — one bucket scan
    /// where a `peek` + `pop` pair would do two.
    pub(crate) fn pop_due(&mut self, horizon: SimTime) -> Option<Entry<E>> {
        if self.len == 0 {
            return None;
        }
        let idx = self.locate_min();
        let min = self.buckets[idx].last().expect("locate_min found an entry");
        if min.time > horizon {
            return None;
        }
        Some(self.pop_from(idx))
    }

    /// Pops *every* entry sharing the earliest pending timestamp, provided
    /// it is at most `horizon`, appending `(seq, event)` pairs to `out` in
    /// ascending `seq` (FIFO) order. Returns the shared timestamp, or `None`
    /// when nothing is due.
    ///
    /// Equal timestamps hash to the same day, so the whole run lives in one
    /// bucket; buckets are sorted descending by `(time, seq)`, so the run is
    /// exactly the bucket's tail and popping tail-first yields ascending
    /// `seq`. One bucket scan and one occupancy update amortize the queue
    /// overhead across the run — the win on the synchronized event bursts
    /// this simulator exists to produce.
    pub(crate) fn pop_due_run(
        &mut self,
        horizon: SimTime,
        out: &mut VecDeque<(u64, E)>,
    ) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        let idx = self.locate_min();
        let bucket = &mut self.buckets[idx];
        let run_time = bucket.last().expect("locate_min found an entry").time;
        if run_time > horizon {
            return None;
        }
        while bucket.last().is_some_and(|tail| tail.time == run_time) {
            let entry = bucket.pop().expect("tail just checked");
            out.push_back((entry.seq, entry.event));
            self.len -= 1;
        }
        if self.buckets[idx].is_empty() {
            self.mark_empty(idx);
        }
        self.note_op();
        Some(run_time)
    }

    fn pop_from(&mut self, idx: usize) -> Entry<E> {
        let entry = self.buckets[idx].pop().expect("locate_min found an entry");
        if self.buckets[idx].is_empty() {
            self.mark_empty(idx);
        }
        self.len -= 1;
        self.note_op();
        entry
    }

    /// Removes the event with exactly this `(time, seq)`, if still queued.
    pub(crate) fn cancel(&mut self, time: SimTime, seq: u64) -> Option<E> {
        let idx = self.bucket_of_day(self.day_of(time.as_nanos()));
        let bucket = &mut self.buckets[idx];
        let key = (time, seq);
        let pos = bucket.partition_point(|e| (e.time, e.seq) > key);
        if pos < bucket.len() && bucket[pos].time == time && bucket[pos].seq == seq {
            let entry = bucket.remove(pos);
            if self.buckets[idx].is_empty() {
                self.mark_empty(idx);
            }
            self.len -= 1;
            self.note_op();
            Some(entry.event)
        } else {
            None
        }
    }

    /// Rebuilds the calendar with `new_nbuckets` buckets and a bucket width
    /// re-estimated from the live population. O(n), amortized O(1) because
    /// it only triggers on the doubling threshold or a (backed-off)
    /// sustained cost overrun. Shrinking needs no dedicated trigger: an
    /// oversized table shows up as scan cost and recalibrates here.
    fn resize(&mut self, new_nbuckets: usize) {
        let new_nbuckets = new_nbuckets
            .clamp(MIN_BUCKETS, MAX_BUCKETS)
            .next_power_of_two();
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            entries.append(bucket);
        }
        if let Some(shift) = estimate_shift(&entries) {
            self.shift = shift;
        }
        self.calibrated = true;
        self.buckets = (0..new_nbuckets).map(|_| Vec::new()).collect();
        self.occupied = vec![0; new_nbuckets.div_ceil(64)];
        let mask = new_nbuckets - 1;
        let shift = self.shift;
        for entry in entries {
            let idx = ((entry.time.as_nanos() >> shift) as usize) & mask;
            self.buckets[idx].push(entry);
        }
        for (idx, bucket) in self.buckets.iter_mut().enumerate() {
            if !bucket.is_empty() {
                self.occupied[idx >> 6] |= 1 << (idx & 63);
                // (time, seq) is unique, so unstable sort is deterministic.
                bucket.sort_unstable_by_key(|e| Reverse((e.time, e.seq)));
            }
        }
        // Re-park the scan on the earliest pending event.
        let min_nanos = self
            .buckets
            .iter()
            .filter_map(|b| b.last().map(|e| e.time.as_nanos()))
            .min()
            .unwrap_or(0);
        self.cur_day.set(min_nanos >> self.shift);
    }
}

/// Estimates a bucket shift (log2 width) targeting [`TARGET_LOAD`] events
/// per day, from a deterministic sample of the live population. `None` when
/// there are too few distinct timestamps to tell.
///
/// A strided sample of `k` of the `n` timestamps, sorted, has consecutive
/// gaps averaging `span / k` over the densely-populated core. Both enqueue
/// and dequeue work concentrates where the *scan* lives — just ahead of the
/// pending minimum — and many workloads (the hold benchmark's stationary
/// pack is exponential) are markedly denser there than at the population
/// average, so the estimate uses the median of the *earliest quarter* of
/// the sampled gaps: the near-minimum region. That same trimming also
/// ignores the giant gaps contributed by far-future outliers
/// (retransmission timers parked hundreds of milliseconds out). Rescaling
/// the median by `k / n` recovers the near-minimum inter-event gap — and a
/// day spans [`TARGET_LOAD`] of those — without ever sorting the full
/// population. Events past the resulting year wrap around the ring and are
/// skipped over by the dequeue scan's year check.
fn estimate_shift<E>(entries: &[Entry<E>]) -> Option<u32> {
    const SAMPLE: usize = 128;
    let n = entries.len();
    let step = (n / SAMPLE).max(1);
    let sample: Vec<u64> = entries
        .iter()
        .step_by(step)
        .take(SAMPLE)
        .map(|e| e.time.as_nanos())
        .collect();
    estimate_shift_from(sample, n)
}

/// Core of the width estimate, shared by the rebuild path and the cheap
/// [`Calendar::candidate_shift`] probe: `sample` holds up to 128 timestamps
/// strided evenly across the `n` pending events.
fn estimate_shift_from(mut sample: Vec<u64>, n: usize) -> Option<u32> {
    if sample.len() < 2 {
        return None;
    }
    sample.sort_unstable();
    let mut gaps: Vec<u64> = sample
        .windows(2)
        .map(|w| w[1] - w[0])
        .filter(|&g| g > 0)
        .collect();
    if gaps.is_empty() {
        return None;
    }
    // Keep only the earliest quarter of the inter-sample gaps (at least 8):
    // the hot region near the pending minimum.
    let near = (gaps.len() / 4).max(8).min(gaps.len());
    gaps.truncate(near);
    gaps.sort_unstable();
    let median = gaps[gaps.len() / 2];
    // median ≈ near_span / covered_samples, so median * sample_len / n ≈
    // the near-minimum inter-event gap; a day spans TARGET_LOAD of those.
    // The u128 widening cannot overflow.
    let gap = u128::from(median) * sample.len() as u128 / n as u128;
    let width = ((gap * TARGET_LOAD as u128) as u64).max(2);
    let width = width.next_power_of_two();
    Some(width.trailing_zeros().clamp(MIN_SHIFT, MAX_SHIFT))
}

