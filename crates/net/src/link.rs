//! Simplex store-and-forward links.

use tcpburst_des::{SimDuration, SimTime};

use crate::packet::{NodeId, Packet};
use crate::queue::AnyQueue;

/// Transmission accounting for one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets fully serialized onto the wire.
    pub packets_tx: u64,
    /// Bytes fully serialized onto the wire.
    pub bytes_tx: u64,
    /// Packets lost because the link went down while they were in flight
    /// (being serialized or propagating).
    pub lost_in_flight: u64,
    /// Packets lost to random wire corruption.
    pub corrupted: u64,
    /// Packets that survived the wire and reached the far end.
    ///
    /// Together these counters close the wire's conservation identity —
    /// `packets_tx = arrived + lost_in_flight + corrupted + in_flight` —
    /// which the invariant auditor checks at end of run (the residual
    /// `in_flight` must be non-negative).
    pub arrived: u64,
}

/// The reserved completion slot of the serialization a transmitter is
/// running.
///
/// The link's `TxComplete` event owns the `(until, seq)` slot whether or not
/// it is in the event queue: it is scheduled only once a packet is waiting,
/// because a completion that finds the queue empty changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TxSlot {
    /// When the serialization ends.
    pub(crate) until: SimTime,
    /// The sequence number reserved for its `TxComplete`.
    pub(crate) seq: u64,
    /// [`id`](tcpburst_des::Scheduler::id) of the scheduler that issued
    /// `seq`.
    pub(crate) sched: u64,
    /// Whether the `TxComplete` is in the event queue.
    pub(crate) scheduled: bool,
}

/// A one-directional link: a queue, a serialization rate and a propagation
/// delay.
///
/// A packet leaving the queue occupies the transmitter for
/// `size_bits / bandwidth` and arrives at the far end one propagation delay
/// after serialization completes — the classic store-and-forward model. A
/// full-duplex cable (as in the paper's topology) is modelled as two
/// independent `Link`s, so ACKs never contend with data.
#[derive(Debug)]
pub struct Link {
    from: NodeId,
    to: NodeId,
    bandwidth_bps: u64,
    delay: SimDuration,
    /// Admission discipline, stored as the closed [`AnyQueue`] enum: the
    /// per-packet enqueue/dequeue pair is the hottest call in the simulator
    /// and must not go through a vtable.
    queue: AnyQueue,
    /// The serialization in progress, from its start until its
    /// `TxComplete` is handled (or, unscheduled, its slot passes); `None`
    /// while the transmitter is idle or down.
    pub(crate) tx: Option<TxSlot>,
    /// False while the link is administratively down (fault injection).
    up: bool,
    /// Incremented on every down transition; events stamped with an older
    /// epoch refer to transmissions the outage invalidated.
    epoch: u32,
    /// Per-hop wire corruption probability (0 = never).
    corrupt_prob: f64,
    stats: LinkStats,
    /// One-entry `(bits, rate, nanos)` memo for [`Link::tx_time`]. A link
    /// typically carries a single packet size (data one way, ACKs the
    /// other), so this replaces a 128-bit ceiling division per transmitted
    /// packet with two compares. Keying on the rate as well as the size
    /// keeps the memo correct when fault injection retunes the bandwidth
    /// mid-run. `(0, rate, 0)` is a correct seed: zero bits serialize in
    /// zero time at any rate.
    tx_memo: std::cell::Cell<(u64, u64, u64)>,
}

impl Link {
    /// Creates a link from `from` to `to` with the given rate, propagation
    /// delay and admission queue.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero.
    pub fn new(
        from: NodeId,
        to: NodeId,
        bandwidth_bps: u64,
        delay: SimDuration,
        queue: impl Into<AnyQueue>,
    ) -> Self {
        assert!(bandwidth_bps > 0, "link bandwidth must be positive");
        Link {
            from,
            to,
            bandwidth_bps,
            delay,
            queue: queue.into(),
            tx: None,
            up: true,
            epoch: 0,
            corrupt_prob: 0.0,
            stats: LinkStats::default(),
            tx_memo: std::cell::Cell::new((0, bandwidth_bps, 0)),
        }
    }

    /// The transmitting node.
    pub fn from(&self) -> NodeId {
        self.from
    }

    /// The receiving node.
    pub fn to(&self) -> NodeId {
        self.to
    }

    /// Serialization rate in bits per second.
    pub fn bandwidth_bps(&self) -> u64 {
        self.bandwidth_bps
    }

    /// Retunes the serialization rate (fault injection: time-varying
    /// capacity). Packets already being serialized keep the schedule they
    /// were given at the old rate — the bits on the wire cannot be
    /// re-clocked — but every subsequent transmission uses the new one.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero.
    pub fn set_bandwidth_bps(&mut self, bandwidth_bps: u64) {
        assert!(bandwidth_bps > 0, "link bandwidth must be positive");
        self.bandwidth_bps = bandwidth_bps;
    }

    /// One-way propagation delay.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// Retunes the propagation delay (fault injection: time-varying path
    /// length). Packets already propagating keep their old arrival times.
    pub fn set_delay(&mut self, delay: SimDuration) {
        self.delay = delay;
    }

    /// True while the link is administratively up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// The current up/down epoch (bumped on every down transition).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Per-hop wire corruption probability.
    pub fn corrupt_prob(&self) -> f64 {
        self.corrupt_prob
    }

    /// Sets the per-hop wire corruption probability.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not a probability.
    pub fn set_corrupt_prob(&mut self, prob: f64) {
        assert!(
            (0.0..=1.0).contains(&prob),
            "corruption probability must be in [0, 1], got {prob}"
        );
        self.corrupt_prob = prob;
    }

    /// Marks the link up or down (managed by [`Network`](crate::Network)).
    ///
    /// A down transition bumps the epoch, invalidating every in-flight
    /// transmission, and idles the transmitter.
    pub(crate) fn set_up(&mut self, up: bool) {
        if self.up && !up {
            self.epoch = self.epoch.wrapping_add(1);
            self.tx = None;
        }
        self.up = up;
    }

    pub(crate) fn note_lost_in_flight(&mut self) {
        self.stats.lost_in_flight += 1;
    }

    pub(crate) fn note_corrupted(&mut self) {
        self.stats.corrupted += 1;
    }

    pub(crate) fn note_arrived(&mut self) {
        self.stats.arrived += 1;
    }

    /// Time to clock `bits` onto the wire at this link's rate.
    pub fn tx_time(&self, bits: u64) -> SimDuration {
        let (memo_bits, memo_rate, memo_ns) = self.tx_memo.get();
        if bits == memo_bits && self.bandwidth_bps == memo_rate {
            return SimDuration::from_nanos(memo_ns);
        }
        // ceil(bits * 1e9 / bandwidth) nanoseconds, in u128 to avoid overflow.
        let ns = (u128::from(bits) * 1_000_000_000u128).div_ceil(u128::from(self.bandwidth_bps));
        let ns = ns.min(u128::from(u64::MAX)) as u64;
        self.tx_memo.set((bits, self.bandwidth_bps, ns));
        SimDuration::from_nanos(ns)
    }

    /// The admission queue.
    pub fn queue(&self) -> &AnyQueue {
        &self.queue
    }

    /// The admission queue, mutably.
    pub fn queue_mut(&mut self) -> &mut AnyQueue {
        &mut self.queue
    }

    pub(crate) fn note_tx(&mut self, pkt: &Packet) {
        self.stats.packets_tx += 1;
        self.stats.bytes_tx += u64::from(pkt.size_bytes);
    }

    /// Transmission counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Completion and delivery instants for a packet whose serialization
    /// starts at `now`: `(tx_complete, delivery)`.
    pub fn schedule_times(&self, pkt: &Packet, now: SimTime) -> (SimTime, SimTime) {
        let done = now + self.tx_time(pkt.size_bits());
        (done, done + self.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Ecn, FlowId, PacketKind};
    use crate::queue::DropTailQueue;

    fn link(bps: u64, delay_ms: u64) -> Link {
        Link::new(
            NodeId(0),
            NodeId(1),
            bps,
            SimDuration::from_millis(delay_ms),
            DropTailQueue::new(10),
        )
    }

    fn pkt(bytes: u32) -> Packet {
        Packet {
            flow: FlowId(0),
            kind: PacketKind::Datagram,
            size_bytes: bytes,
            src: NodeId(0),
            dst: NodeId(1),
            created_at: SimTime::ZERO,
            ecn: Ecn::default(),
        }
    }

    #[test]
    fn tx_time_matches_rate() {
        let l = link(1_000_000, 0); // 1 Mbps
        assert_eq!(l.tx_time(8_000), SimDuration::from_millis(8));
        // 3 Mbps, 1000-byte packet: 8000/3e6 s = 2.666… ms, rounded up.
        let bottleneck = link(3_000_000, 0);
        let t = bottleneck.tx_time(8_000);
        assert_eq!(t.as_nanos(), 2_666_667);
    }

    #[test]
    fn schedule_times_add_propagation() {
        let l = link(1_000_000, 20);
        let (done, arrive) = l.schedule_times(&pkt(1000), SimTime::from_millis(5));
        assert_eq!(done, SimTime::from_millis(13)); // 5 + 8 ms serialization
        assert_eq!(arrive, SimTime::from_millis(33)); // + 20 ms propagation
    }

    #[test]
    fn tx_time_handles_large_packets_without_overflow() {
        // 10^12 bits at 1 kbps = 10^9 seconds, exactly representable.
        let l = link(1_000, 0);
        assert_eq!(l.tx_time(1_000_000_000_000), SimDuration::from_secs(1_000_000_000));
        // Pathological sizes saturate instead of wrapping.
        let slow = link(1, 0);
        assert_eq!(slow.tx_time(u64::MAX), SimDuration::MAX);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        link(0, 1);
    }

    #[test]
    fn tx_time_memo_invalidates_on_rate_change() {
        let mut l = link(1_000_000, 0);
        assert_eq!(l.tx_time(8_000), SimDuration::from_millis(8));
        // Same size, half the rate: the memo must not serve the stale time.
        l.set_bandwidth_bps(500_000);
        assert_eq!(l.tx_time(8_000), SimDuration::from_millis(16));
        l.set_bandwidth_bps(1_000_000);
        assert_eq!(l.tx_time(8_000), SimDuration::from_millis(8));
    }

    #[test]
    fn set_delay_changes_schedule_times() {
        let mut l = link(1_000_000, 20);
        l.set_delay(SimDuration::from_millis(5));
        let (done, arrive) = l.schedule_times(&pkt(1000), SimTime::ZERO);
        assert_eq!(done, SimTime::from_millis(8));
        assert_eq!(arrive, SimTime::from_millis(13));
    }

    #[test]
    fn down_transition_bumps_epoch_and_idles() {
        let mut l = link(1_000_000, 0);
        assert!(l.is_up());
        assert_eq!(l.epoch(), 0);
        l.tx = Some(TxSlot {
            until: SimTime::from_millis(8),
            seq: 0,
            sched: 0,
            scheduled: false,
        });
        l.set_up(false);
        assert!(!l.is_up());
        assert_eq!(l.tx, None);
        assert_eq!(l.epoch(), 1);
        // Coming back up does not bump the epoch again.
        l.set_up(true);
        assert_eq!(l.epoch(), 1);
        // A redundant down-while-down is a no-op.
        l.set_up(false);
        l.set_up(false);
        assert_eq!(l.epoch(), 2);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn corruption_probability_is_validated() {
        link(1_000, 0).set_corrupt_prob(1.5);
    }

    #[test]
    fn stats_accumulate() {
        let mut l = link(1_000_000, 0);
        l.note_tx(&pkt(1000));
        l.note_tx(&pkt(40));
        assert_eq!(l.stats().packets_tx, 2);
        assert_eq!(l.stats().bytes_tx, 1040);
    }
}
