//! Gateway queueing disciplines: drop-tail FIFO and RED.

use std::collections::VecDeque;

use tcpburst_des::{SimRng, SimTime};

use crate::adaptive::SelfConfiguringRed;
use crate::packet::{Packet, PacketId};

/// Why an arriving packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// The packet was queued.
    Accepted,
    /// The buffer was physically full (drop-tail, or RED overflow).
    DroppedFull,
    /// RED dropped the packet probabilistically (average queue between the
    /// thresholds).
    DroppedEarly,
    /// RED dropped the packet because the average queue exceeded `max_th`.
    DroppedForced,
}

impl EnqueueOutcome {
    /// True if the packet was not queued.
    pub fn is_drop(self) -> bool {
        !matches!(self, EnqueueOutcome::Accepted)
    }
}

/// Arrival/drop accounting for one queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Packets offered to the queue.
    pub arrivals: u64,
    /// Packets dropped because the physical buffer was full.
    pub drops_full: u64,
    /// Packets dropped early by RED (probabilistic region).
    pub drops_early: u64,
    /// Packets dropped by RED's forced region (average above `max_th`).
    pub drops_forced: u64,
    /// Packets handed to the link for transmission.
    pub departures: u64,
    /// Largest instantaneous backlog seen, in packets.
    pub peak_len: usize,
    /// Packets CE-marked instead of dropped (ECN-enabled RED only).
    pub ecn_marks: u64,
}

impl QueueStats {
    /// All drops combined.
    pub fn drops_total(&self) -> u64 {
        self.drops_full + self.drops_early + self.drops_forced
    }

    /// Fraction of offered packets that were dropped, in `[0, 1]`.
    /// Zero when nothing arrived.
    pub fn loss_fraction(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.drops_total() as f64 / self.arrivals as f64
        }
    }
}

/// Time-integral of queue occupancy, for time-weighted average backlog.
///
/// Call [`Occupancy::advance`] with the *pre-change* length every time the
/// queue's length is about to change; query the running average with
/// [`Occupancy::average`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Occupancy {
    last_update: SimTime,
    pkt_seconds: f64,
}

impl Occupancy {
    /// Accumulates `len` packets held since the last update.
    pub fn advance(&mut self, now: SimTime, len: usize) {
        // An empty queue adds exactly +0.0, so skipping the float work
        // leaves the integral bit-identical.
        if len != 0 {
            self.pkt_seconds += len as f64 * now.saturating_since(self.last_update).as_secs_f64();
        }
        self.last_update = now;
    }

    /// Time-weighted mean backlog over `[0, end]`, given the current length.
    pub fn average(&self, end: SimTime, current_len: usize) -> f64 {
        let total = end.as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        let tail = end.saturating_since(self.last_update).as_secs_f64();
        (self.pkt_seconds + current_len as f64 * tail) / total
    }
}

/// A packet buffer feeding a link.
///
/// Implementations decide *admission* (drop-tail vs RED); service order is
/// FIFO for both, matching the paper's gateway. A queue holds 8-byte
/// [`PacketId`] handles into the network's
/// [`PacketArena`](crate::PacketArena), never packets: the packet stays in
/// the arena from injection to delivery, and the caller frees the slot of a
/// packet the queue refuses.
pub trait Queue: std::fmt::Debug {
    /// Offers packet `id`, whose contents are `pkt`, at time `now`. A
    /// marking discipline sets ECN congestion-experienced through `pkt`.
    fn enqueue(&mut self, id: PacketId, pkt: &mut Packet, now: SimTime) -> EnqueueOutcome;

    /// Removes the head-of-line packet for transmission.
    fn dequeue(&mut self, now: SimTime) -> Option<PacketId>;

    /// Instantaneous backlog in packets.
    fn len(&self) -> usize;

    /// True if no packet is waiting.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arrival/drop counters.
    fn stats(&self) -> QueueStats;

    /// The occupancy integral (time-weighted backlog).
    fn occupancy(&self) -> Occupancy;
}

/// A bounded FIFO queue that drops arrivals when full (the paper's plain
/// gateway).
///
/// # Example
///
/// ```
/// use tcpburst_des::SimTime;
/// use tcpburst_net::{DropTailQueue, EnqueueOutcome, PacketArena, Queue};
/// # use tcpburst_net::{FlowId, NodeId, Packet, PacketKind};
/// # fn pkt() -> Packet {
/// #     Packet { flow: FlowId(0), kind: PacketKind::Datagram, size_bytes: 1000,
/// #              src: NodeId(0), dst: NodeId(1), created_at: SimTime::ZERO,
/// #              ecn: tcpburst_net::Ecn::NotCapable }
/// # }
///
/// let mut arena = PacketArena::new();
/// let mut q = DropTailQueue::new(2);
/// let mut offer = |q: &mut DropTailQueue| {
///     let id = arena.insert(pkt());
///     q.enqueue(id, arena.get_mut(id), SimTime::ZERO)
/// };
/// assert_eq!(offer(&mut q), EnqueueOutcome::Accepted);
/// assert_eq!(offer(&mut q), EnqueueOutcome::Accepted);
/// assert_eq!(offer(&mut q), EnqueueOutcome::DroppedFull);
/// assert_eq!(q.len(), 2);
/// ```
#[derive(Debug)]
pub struct DropTailQueue {
    buf: VecDeque<PacketId>,
    capacity: usize,
    stats: QueueStats,
    occupancy: Occupancy,
}

impl DropTailQueue {
    /// Creates a queue holding at most `capacity` packets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        DropTailQueue {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            stats: QueueStats::default(),
            occupancy: Occupancy::default(),
        }
    }

    /// The configured capacity in packets.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Queue for DropTailQueue {
    fn enqueue(&mut self, id: PacketId, _pkt: &mut Packet, now: SimTime) -> EnqueueOutcome {
        self.stats.arrivals += 1;
        if self.buf.len() >= self.capacity {
            self.stats.drops_full += 1;
            return EnqueueOutcome::DroppedFull;
        }
        self.occupancy.advance(now, self.buf.len());
        self.buf.push_back(id);
        self.stats.peak_len = self.stats.peak_len.max(self.buf.len());
        EnqueueOutcome::Accepted
    }

    fn dequeue(&mut self, now: SimTime) -> Option<PacketId> {
        self.occupancy.advance(now, self.buf.len());
        let id = self.buf.pop_front()?;
        self.stats.departures += 1;
        Some(id)
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn stats(&self) -> QueueStats {
        self.stats
    }

    fn occupancy(&self) -> Occupancy {
        self.occupancy
    }
}

/// Parameters of a RED gateway (Floyd & Jacobson 1993).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedParams {
    /// Minimum average-queue threshold (packets); below it nothing drops.
    pub min_th: f64,
    /// Maximum average-queue threshold (packets); above it everything drops.
    pub max_th: f64,
    /// Maximum early-drop probability, reached as the average approaches
    /// `max_th`.
    pub max_p: f64,
    /// EWMA weight for the average queue length.
    pub weight: f64,
    /// Physical buffer limit in packets (the gateway still has finite
    /// memory).
    pub capacity: usize,
    /// Typical packet transmission time on the outgoing link, used to decay
    /// the average across idle periods.
    pub mean_pkt_time_secs: f64,
    /// Mark ECN-capable packets with CE instead of early-dropping them
    /// (packets are still dropped in the forced region above `max_th` and at
    /// the physical buffer limit).
    pub ecn_marking: bool,
}

impl RedParams {
    /// The paper's RED configuration: thresholds (10, 40) on a 50-packet
    /// buffer, with the classic ns defaults for `w_q` and `max_p`, on the
    /// 50 Mbps bottleneck (1500-byte packets serialize in 240 µs).
    pub fn paper_defaults() -> Self {
        RedParams {
            min_th: 10.0,
            max_th: 40.0,
            max_p: 0.1,
            weight: 0.002,
            capacity: 50,
            mean_pkt_time_secs: 12_000.0 / 50_000_000.0,
            ecn_marking: false,
        }
    }

    fn validate(&self) {
        assert!(
            self.min_th >= 0.0 && self.min_th < self.max_th,
            "RED thresholds must satisfy 0 <= min_th < max_th"
        );
        assert!(
            (0.0..=1.0).contains(&self.max_p) && self.max_p > 0.0,
            "max_p must be in (0, 1]"
        );
        assert!(
            self.weight > 0.0 && self.weight <= 1.0,
            "EWMA weight must be in (0, 1]"
        );
        assert!(self.capacity > 0, "capacity must be positive");
        assert!(
            self.mean_pkt_time_secs > 0.0,
            "mean packet time must be positive"
        );
    }
}

/// A RED (random early detection) gateway queue.
///
/// Maintains an exponentially weighted moving average of the queue length;
/// between `min_th` and `max_th` arrivals are dropped with a probability that
/// grows with the average (and with the count of packets admitted since the
/// last drop, per the original paper's uniformization), and above `max_th`
/// every arrival is dropped — the behaviour the ICDCS paper describes.
#[derive(Debug)]
pub struct RedQueue {
    buf: VecDeque<PacketId>,
    params: RedParams,
    avg: f64,
    /// Packets admitted since the last early drop (−1 ⇔ below `min_th`).
    count: i64,
    /// When the queue last went idle, for average decay.
    idle_since: Option<SimTime>,
    rng: SimRng,
    stats: QueueStats,
    occupancy: Occupancy,
}

impl RedQueue {
    /// Creates a RED queue with the given parameters and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (see [`RedParams`] fields).
    pub fn new(params: RedParams, seed: u64) -> Self {
        params.validate();
        RedQueue {
            buf: VecDeque::with_capacity(params.capacity),
            params,
            avg: 0.0,
            count: -1,
            idle_since: Some(SimTime::ZERO),
            rng: SimRng::derive(seed, 0xD20E), // fixed stream tag for RED draws
            stats: QueueStats::default(),
            occupancy: Occupancy::default(),
        }
    }

    /// The current average queue estimate, in packets.
    pub fn average(&self) -> f64 {
        self.avg
    }

    /// The configured parameters.
    pub fn params(&self) -> &RedParams {
        &self.params
    }

    /// Overrides the maximum early-drop probability (used by the
    /// self-configuring RED wrapper).
    ///
    /// # Panics
    ///
    /// Panics if `max_p` is outside `(0, 1]`.
    pub fn set_max_p(&mut self, max_p: f64) {
        assert!(
            max_p > 0.0 && max_p <= 1.0,
            "max_p must be in (0, 1], got {max_p}"
        );
        self.params.max_p = max_p;
    }

    fn update_average(&mut self, now: SimTime) {
        if let Some(idle_since) = self.idle_since {
            // Queue has been empty: decay the average as if `m` small
            // packets had been transmitted during the idle period.
            let idle = now.saturating_since(idle_since).as_secs_f64();
            let m = idle / self.params.mean_pkt_time_secs;
            self.avg *= (1.0 - self.params.weight).powf(m);
        } else {
            self.avg += self.params.weight * (self.buf.len() as f64 - self.avg);
        }
    }
}

impl Queue for RedQueue {
    fn enqueue(&mut self, id: PacketId, pkt: &mut Packet, now: SimTime) -> EnqueueOutcome {
        self.stats.arrivals += 1;
        self.update_average(now);

        let p = &self.params;
        if self.avg >= p.max_th {
            self.count = 0;
            self.stats.drops_forced += 1;
            return EnqueueOutcome::DroppedForced;
        }
        if self.avg >= p.min_th {
            self.count += 1;
            let p_b = p.max_p * (self.avg - p.min_th) / (p.max_th - p.min_th);
            let denom = 1.0 - self.count as f64 * p_b;
            let p_a = if denom <= 0.0 { 1.0 } else { (p_b / denom).min(1.0) };
            if self.rng.chance(p_a) {
                self.count = 0;
                if p.ecn_marking && pkt.ecn.is_markable() {
                    // Signal congestion without losing the packet.
                    pkt.ecn = crate::packet::Ecn::CongestionExperienced;
                    self.stats.ecn_marks += 1;
                } else {
                    self.stats.drops_early += 1;
                    return EnqueueOutcome::DroppedEarly;
                }
            }
        } else {
            self.count = -1;
        }

        if self.buf.len() >= p.capacity {
            self.stats.drops_full += 1;
            return EnqueueOutcome::DroppedFull;
        }
        self.occupancy.advance(now, self.buf.len());
        self.buf.push_back(id);
        self.idle_since = None;
        self.stats.peak_len = self.stats.peak_len.max(self.buf.len());
        EnqueueOutcome::Accepted
    }

    fn dequeue(&mut self, now: SimTime) -> Option<PacketId> {
        self.occupancy.advance(now, self.buf.len());
        let id = self.buf.pop_front()?;
        self.stats.departures += 1;
        if self.buf.is_empty() {
            self.idle_since = Some(now);
        }
        Some(id)
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn stats(&self) -> QueueStats {
        self.stats
    }

    fn occupancy(&self) -> Occupancy {
        self.occupancy
    }
}

/// Any of the built-in queueing disciplines, dispatched statically.
///
/// Every packet crossing a link pays one `enqueue` and one `dequeue`, which
/// makes the admission path the hottest per-packet code in the simulator.
/// A `Box<dyn Queue>` per link costs a pointer chase and a vtable call on
/// each of those operations and defeats inlining of the (tiny) drop-tail
/// fast path; the discipline set is closed, so each [`Link`](crate::Link)
/// stores this enum instead and the dispatch compiles to one branch.
///
/// `AnyQueue` also implements [`Queue`], so code written against the trait
/// (stats readers, property tests) keeps working unchanged.
#[derive(Debug)]
pub enum AnyQueue {
    /// Bounded FIFO that drops arrivals when full.
    DropTail(DropTailQueue),
    /// Random early detection (Floyd & Jacobson).
    Red(RedQueue),
    /// RED that re-tunes its own `max_p` (Feng et al.).
    AdaptiveRed(SelfConfiguringRed),
}

impl AnyQueue {
    /// Offers packet `id` (contents `pkt`) to the queue at time `now`.
    #[inline]
    pub fn enqueue(&mut self, id: PacketId, pkt: &mut Packet, now: SimTime) -> EnqueueOutcome {
        match self {
            AnyQueue::DropTail(q) => Queue::enqueue(q, id, pkt, now),
            AnyQueue::Red(q) => Queue::enqueue(q, id, pkt, now),
            AnyQueue::AdaptiveRed(q) => Queue::enqueue(q, id, pkt, now),
        }
    }

    /// Removes the head-of-line packet for transmission.
    #[inline]
    pub fn dequeue(&mut self, now: SimTime) -> Option<PacketId> {
        match self {
            AnyQueue::DropTail(q) => Queue::dequeue(q, now),
            AnyQueue::Red(q) => Queue::dequeue(q, now),
            AnyQueue::AdaptiveRed(q) => Queue::dequeue(q, now),
        }
    }

    /// Instantaneous backlog in packets.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            AnyQueue::DropTail(q) => Queue::len(q),
            AnyQueue::Red(q) => Queue::len(q),
            AnyQueue::AdaptiveRed(q) => Queue::len(q),
        }
    }

    /// True if no packet is waiting.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arrival/drop counters.
    pub fn stats(&self) -> QueueStats {
        match self {
            AnyQueue::DropTail(q) => Queue::stats(q),
            AnyQueue::Red(q) => Queue::stats(q),
            AnyQueue::AdaptiveRed(q) => Queue::stats(q),
        }
    }

    /// The occupancy integral (time-weighted backlog).
    pub fn occupancy(&self) -> Occupancy {
        match self {
            AnyQueue::DropTail(q) => Queue::occupancy(q),
            AnyQueue::Red(q) => Queue::occupancy(q),
            AnyQueue::AdaptiveRed(q) => Queue::occupancy(q),
        }
    }
}

impl Queue for AnyQueue {
    #[inline]
    fn enqueue(&mut self, id: PacketId, pkt: &mut Packet, now: SimTime) -> EnqueueOutcome {
        AnyQueue::enqueue(self, id, pkt, now)
    }

    #[inline]
    fn dequeue(&mut self, now: SimTime) -> Option<PacketId> {
        AnyQueue::dequeue(self, now)
    }

    #[inline]
    fn len(&self) -> usize {
        AnyQueue::len(self)
    }

    fn stats(&self) -> QueueStats {
        AnyQueue::stats(self)
    }

    fn occupancy(&self) -> Occupancy {
        AnyQueue::occupancy(self)
    }
}

impl From<DropTailQueue> for AnyQueue {
    fn from(q: DropTailQueue) -> Self {
        AnyQueue::DropTail(q)
    }
}

impl From<RedQueue> for AnyQueue {
    fn from(q: RedQueue) -> Self {
        AnyQueue::Red(q)
    }
}

impl From<SelfConfiguringRed> for AnyQueue {
    fn from(q: SelfConfiguringRed) -> Self {
        AnyQueue::AdaptiveRed(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Ecn, FlowId, NodeId, PacketKind};
    use crate::queue::testbed::Bed;
    use tcpburst_des::SimDuration;

    fn pkt() -> Packet {
        Packet {
            flow: FlowId(0),
            kind: PacketKind::Datagram,
            size_bytes: 1000,
            src: NodeId(0),
            dst: NodeId(1),
            created_at: SimTime::ZERO,
            ecn: Ecn::default(),
        }
    }

    fn red(min: f64, max: f64) -> Bed<RedQueue> {
        Bed::new(RedQueue::new(
            RedParams {
                min_th: min,
                max_th: max,
                max_p: 0.1,
                weight: 0.5, // fast-tracking average for unit tests
                capacity: 100,
                mean_pkt_time_secs: 0.001,
                ecn_marking: false,
            },
            7,
        ))
    }

    #[test]
    fn droptail_is_fifo() {
        let mut q = Bed::new(DropTailQueue::new(10));
        for i in 0..3u32 {
            let mut p = pkt();
            p.size_bytes = i + 1;
            q.enqueue(p, SimTime::ZERO);
        }
        let sizes: Vec<u32> = std::iter::from_fn(|| q.dequeue(SimTime::ZERO))
            .map(|p| p.size_bytes)
            .collect();
        assert_eq!(sizes, vec![1, 2, 3]);
        assert_eq!(q.stats().departures, 3);
    }

    #[test]
    fn droptail_drops_when_full_and_counts() {
        let mut q = Bed::new(DropTailQueue::new(2));
        assert!(!q.enqueue(pkt(), SimTime::ZERO).is_drop());
        assert!(!q.enqueue(pkt(), SimTime::ZERO).is_drop());
        assert!(q.enqueue(pkt(), SimTime::ZERO).is_drop());
        let s = q.stats();
        assert_eq!(s.arrivals, 3);
        assert_eq!(s.drops_full, 1);
        assert_eq!(s.peak_len, 2);
        assert!((s.loss_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn droptail_recovers_capacity_after_dequeue() {
        let mut q = Bed::new(DropTailQueue::new(1));
        q.enqueue(pkt(), SimTime::ZERO);
        assert!(q.enqueue(pkt(), SimTime::ZERO).is_drop());
        q.dequeue(SimTime::ZERO);
        assert_eq!(q.enqueue(pkt(), SimTime::ZERO), EnqueueOutcome::Accepted);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        DropTailQueue::new(0);
    }

    #[test]
    fn red_below_min_threshold_never_drops() {
        let mut q = red(5.0, 15.0);
        // Keep instantaneous queue at 0-1 packets: average stays below min.
        for i in 0..100u64 {
            let now = SimTime::from_millis(i);
            assert_eq!(q.enqueue(pkt(), now), EnqueueOutcome::Accepted);
            q.dequeue(now);
        }
        assert_eq!(q.stats().drops_total(), 0);
    }

    #[test]
    fn red_forced_drops_above_max_threshold() {
        let mut q = red(1.0, 5.0);
        // Fill without draining: the (fast) average climbs past max_th and
        // arrivals become forced drops.
        let mut saw_forced = false;
        for _ in 0..100 {
            if q.enqueue(pkt(), SimTime::from_secs(1)) == EnqueueOutcome::DroppedForced {
                saw_forced = true;
                break;
            }
        }
        assert!(saw_forced, "average never crossed max_th");
        assert!(q.average() >= 5.0);
    }

    #[test]
    fn red_early_drops_between_thresholds() {
        let mut q = red(2.0, 50.0);
        let mut early = 0;
        // Hold the queue around 10 packets: average sits in the RED band.
        for i in 0..2000u64 {
            let now = SimTime::from_millis(i);
            if q.len() > 10 {
                q.dequeue(now);
            }
            if q.enqueue(pkt(), now) == EnqueueOutcome::DroppedEarly {
                early += 1;
            }
        }
        assert!(early > 0, "no early drops in the RED band");
        assert_eq!(q.stats().drops_early, early);
    }

    #[test]
    fn red_average_decays_while_idle() {
        let mut q = red(5.0, 15.0);
        for _ in 0..20 {
            q.enqueue(pkt(), SimTime::ZERO);
        }
        let before = q.average();
        while q.dequeue(SimTime::from_millis(1)).is_some() {}
        // A long idle period then one arrival: the average must have decayed.
        q.enqueue(pkt(), SimTime::from_secs(10));
        assert!(q.average() < before * 0.1, "avg {} -> {}", before, q.average());
    }

    #[test]
    fn red_respects_physical_capacity() {
        let mut q = Bed::new(RedQueue::new(
            RedParams {
                min_th: 90.0,
                max_th: 95.0,
                max_p: 0.1,
                weight: 1e-9, // average stays ~0 so RED never fires
                capacity: 3,
                mean_pkt_time_secs: 0.001,
                ecn_marking: false,
            },
            1,
        ));
        for _ in 0..3 {
            assert_eq!(q.enqueue(pkt(), SimTime::ZERO), EnqueueOutcome::Accepted);
        }
        assert_eq!(q.enqueue(pkt(), SimTime::ZERO), EnqueueOutcome::DroppedFull);
    }

    #[test]
    fn red_same_seed_is_deterministic() {
        let run = || {
            let mut q = red(2.0, 20.0);
            let mut outcomes = Vec::new();
            for i in 0..500u64 {
                let now = SimTime::ZERO + SimDuration::from_millis(i);
                if q.len() > 8 {
                    q.dequeue(now);
                }
                outcomes.push(q.enqueue(pkt(), now));
            }
            outcomes
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "min_th < max_th")]
    fn red_inverted_thresholds_panic() {
        RedQueue::new(
            RedParams {
                min_th: 40.0,
                max_th: 10.0,
                ..RedParams::paper_defaults()
            },
            0,
        );
    }

    #[test]
    fn paper_defaults_match_design_doc() {
        let p = RedParams::paper_defaults();
        assert_eq!(p.min_th, 10.0);
        assert_eq!(p.max_th, 40.0);
        assert_eq!(p.capacity, 50);
        assert!(!p.ecn_marking);
    }

    fn ecn_pkt() -> Packet {
        Packet {
            ecn: Ecn::Capable,
            ..pkt()
        }
    }

    #[test]
    fn red_marks_ecn_capable_packets_instead_of_dropping() {
        let mut q = Bed::new(RedQueue::new(
            RedParams {
                min_th: 2.0,
                max_th: 50.0,
                max_p: 0.1,
                weight: 0.5,
                capacity: 100,
                mean_pkt_time_secs: 0.001,
                ecn_marking: true,
            },
            7,
        ));
        for i in 0..2000u64 {
            let now = SimTime::from_millis(i);
            if q.len() > 10 {
                q.dequeue(now);
            }
            // ECN-capable packets are never early-dropped, only marked.
            assert_ne!(q.enqueue(ecn_pkt(), now), EnqueueOutcome::DroppedEarly);
        }
        let s = q.stats();
        assert!(s.ecn_marks > 0, "no CE marks in the RED band");
        assert_eq!(s.drops_early, 0);
        // Marked packets come out with the CE codepoint set.
        let mut saw_ce = false;
        while let Some(p) = q.dequeue(SimTime::from_secs(10)) {
            saw_ce |= p.ecn.is_ce();
        }
        assert!(saw_ce, "marked packets must carry CE");
    }

    #[test]
    fn red_marking_does_not_touch_non_capable_packets() {
        let mut q = Bed::new(RedQueue::new(
            RedParams {
                min_th: 2.0,
                max_th: 50.0,
                max_p: 0.1,
                weight: 0.5,
                capacity: 100,
                mean_pkt_time_secs: 0.001,
                ecn_marking: true,
            },
            7,
        ));
        let mut early = 0;
        for i in 0..2000u64 {
            let now = SimTime::from_millis(i);
            if q.len() > 10 {
                q.dequeue(now);
            }
            if q.enqueue(pkt(), now) == EnqueueOutcome::DroppedEarly {
                early += 1;
            }
        }
        assert!(early > 0, "non-capable packets must still early-drop");
        assert_eq!(q.stats().ecn_marks, 0);
    }

    #[test]
    fn occupancy_tracks_time_weighted_average() {
        let mut q = Bed::new(DropTailQueue::new(10));
        // 2 packets held from t=0 to t=10s, then 1 packet to t=20s.
        q.enqueue(pkt(), SimTime::ZERO);
        q.enqueue(pkt(), SimTime::ZERO);
        q.dequeue(SimTime::from_secs(10));
        let avg = q.occupancy().average(SimTime::from_secs(20), q.len());
        assert!((avg - 1.5).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn occupancy_of_empty_queue_is_zero() {
        let q = Bed::new(DropTailQueue::new(10));
        assert_eq!(q.occupancy().average(SimTime::from_secs(5), 0), 0.0);
        assert_eq!(q.occupancy().average(SimTime::ZERO, 0), 0.0);
    }

    #[test]
    fn red_set_max_p_applies() {
        let mut q = red(2.0, 20.0);
        q.set_max_p(0.5);
        assert_eq!(q.params().max_p, 0.5);
    }

    #[test]
    #[should_panic(expected = "max_p must be in")]
    fn red_set_max_p_rejects_zero() {
        red(2.0, 20.0).set_max_p(0.0);
    }
}

/// Test support: a queue plus the arena its handles point into, offering
/// and serving whole packets so unit tests read like the by-value API.
#[cfg(test)]
pub(crate) mod testbed {
    use super::*;
    use crate::packet::PacketArena;

    #[derive(Debug)]
    pub(crate) struct Bed<Q> {
        pub(crate) q: Q,
        arena: PacketArena,
    }

    impl<Q: Queue> Bed<Q> {
        pub(crate) fn new(q: Q) -> Self {
            Bed { q, arena: PacketArena::new() }
        }

        /// Offers `pkt`; a refused packet's slot is freed, as the network does.
        pub(crate) fn enqueue(&mut self, pkt: Packet, now: SimTime) -> EnqueueOutcome {
            let id = self.arena.insert(pkt);
            let outcome = self.q.enqueue(id, self.arena.get_mut(id), now);
            if outcome.is_drop() {
                self.arena.take(id);
            }
            outcome
        }

        pub(crate) fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
            let id = self.q.dequeue(now)?;
            Some(self.arena.take(id))
        }
    }

    impl<Q> std::ops::Deref for Bed<Q> {
        type Target = Q;

        fn deref(&self) -> &Q {
            &self.q
        }
    }

    impl<Q> std::ops::DerefMut for Bed<Q> {
        fn deref_mut(&mut self) -> &mut Q {
            &mut self.q
        }
    }
}
