//! The TCP receiver: in-order reassembly, cumulative ACKs, delayed ACKs.

use tcpburst_des::{Scheduler, SimTime, TimerGeneration, TimerSlot};
use tcpburst_net::{Ecn, FlowId, NodeId, Packet, PacketKind, SackBlocks, SeqNo};
use tcpburst_stats::RunningStats;

use crate::config::TcpConfig;
use crate::counters::ReceiverCounters;
use crate::event::{TimerKind, TransportEvent};

/// The server-side endpoint of one TCP connection.
///
/// Reassembles the segment stream, emits cumulative ACKs and (optionally)
/// delays them: with delayed ACKs on, an ACK is sent for every second
/// in-order segment or when the delayed-ACK timer expires, and immediately
/// for out-of-order or duplicate segments (those immediate ACKs are the
/// duplicate ACKs that drive the sender's fast retransmit).
#[derive(Debug)]
pub struct TcpReceiver {
    cfg: TcpConfig,
    flow: FlowId,
    /// The receiver's own node (ACK source).
    local: NodeId,
    /// The sender's node (ACK destination).
    remote: NodeId,
    rcv_nxt: SeqNo,
    /// Segments above `rcv_nxt` received out of order, sorted ascending.
    /// A few entries at most, and the capacity is reused across reordering
    /// episodes, so steady state allocates nothing.
    out_of_order: Vec<SeqNo>,
    unacked_segments: u32,
    delack_timer: TimerSlot,
    /// A CE mark arrived and has not yet been echoed (simplified RFC 3168:
    /// the next ACK carries ECE, then the flag clears).
    pending_ece: bool,
    counters: ReceiverCounters,
    /// One-way delay of every non-duplicate data segment.
    delay: RunningStats,
}

impl TcpReceiver {
    /// Creates a receiver for `flow`, living on node `local`, talking back
    /// to `remote`.
    pub fn new(cfg: TcpConfig, flow: FlowId, local: NodeId, remote: NodeId) -> Self {
        cfg.validate();
        TcpReceiver {
            cfg,
            flow,
            local,
            remote,
            rcv_nxt: SeqNo::ZERO,
            out_of_order: Vec::new(),
            unacked_segments: 0,
            delack_timer: TimerSlot::new(),
            pending_ece: false,
            counters: ReceiverCounters::default(),
            delay: RunningStats::new(),
        }
    }

    /// Next expected sequence number (everything below is delivered).
    pub fn rcv_nxt(&self) -> SeqNo {
        self.rcv_nxt
    }

    /// Receiver counters (goodput lives in `delivered`).
    pub fn counters(&self) -> ReceiverCounters {
        self.counters
    }

    /// Number of segments currently buffered out of order.
    pub fn reorder_buffer_len(&self) -> usize {
        self.out_of_order.len()
    }

    /// One-way delay statistics of the non-duplicate data segments received.
    pub fn delay_stats(&self) -> RunningStats {
        self.delay
    }

    /// Handles an arriving data segment; any ACKs produced are pushed onto
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if `pkt` is not a [`PacketKind::TcpData`] segment.
    pub fn on_data<E: From<TransportEvent>>(
        &mut self,
        pkt: &Packet,
        sched: &mut Scheduler<E>,
        out: &mut Vec<Packet>,
    ) {
        let PacketKind::TcpData { seq, .. } = pkt.kind else {
            panic!("TcpReceiver::on_data fed a non-data packet: {:?}", pkt.kind)
        };
        let now = sched.now();
        if pkt.ecn.is_ce() {
            self.pending_ece = true;
        }
        let slot = self.out_of_order.binary_search(&seq);
        if seq < self.rcv_nxt || slot.is_ok() {
            // Duplicate of delivered or buffered data: ACK immediately so the
            // sender sees where we are.
            self.counters.duplicates += 1;
            self.ack_now(sched, now, out);
        } else if seq == self.rcv_nxt {
            self.delay.push(now.saturating_since(pkt.created_at).as_secs_f64());
            self.rcv_nxt = self.rcv_nxt.next();
            self.counters.delivered += 1;
            // Absorb any buffered continuation: the consecutive run at the
            // front of the sorted buffer.
            let run = self
                .out_of_order
                .iter()
                .zip(self.rcv_nxt.0..)
                .take_while(|(q, next)| q.0 == *next)
                .count();
            self.out_of_order.drain(..run);
            self.rcv_nxt.0 += run as u64;
            self.counters.delivered += run as u64;
            if self.cfg.delayed_ack {
                self.unacked_segments += 1;
                if self.unacked_segments >= 2 {
                    self.ack_now(sched, now, out);
                } else if !self.delack_timer.is_armed() {
                    let flow = self.flow;
                    self.delack_timer.schedule(
                        sched,
                        now + self.cfg.delack_delay,
                        |generation| {
                            TransportEvent {
                                flow,
                                kind: TimerKind::DelAck,
                                generation,
                            }
                            .into()
                        },
                    );
                }
            } else {
                self.ack_now(sched, now, out);
            }
        } else {
            // A hole: buffer and emit an immediate duplicate ACK.
            self.delay.push(now.saturating_since(pkt.created_at).as_secs_f64());
            if let Err(at) = slot {
                self.out_of_order.insert(at, seq);
            }
            self.counters.out_of_order += 1;
            self.ack_now(sched, now, out);
        }
    }

    /// Emits an ACK immediately, deleting any pending delayed-ACK firing
    /// from the queue in place (the ACK it would have sent is superseded).
    fn ack_now<E: From<TransportEvent>>(
        &mut self,
        sched: &mut Scheduler<E>,
        now: SimTime,
        out: &mut Vec<Packet>,
    ) {
        self.delack_timer.cancel_scheduled(sched);
        self.send_ack(now, out);
    }

    /// Handles a timer firing addressed to this receiver.
    ///
    /// Returns `true` if the firing was live (matched the current arming)
    /// and `false` if it was stale or misrouted — callers use this to count
    /// how much dead-timer traffic still reaches dispatch.
    pub fn on_timer(
        &mut self,
        kind: TimerKind,
        generation: TimerGeneration,
        now: SimTime,
        out: &mut Vec<Packet>,
    ) -> bool {
        if kind != TimerKind::DelAck || !self.delack_timer.fires(generation) {
            return false; // stale or misrouted firing
        }
        self.delack_timer.disarm();
        if self.unacked_segments > 0 {
            self.counters.delack_timer_acks += 1;
            self.send_ack(now, out);
        }
        true
    }

    /// Builds up to three SACK ranges from the reorder buffer, newest
    /// (highest) first.
    fn sack_blocks(&self) -> SackBlocks {
        if !self.cfg.variant.uses_sack() || self.out_of_order.is_empty() {
            return SackBlocks::EMPTY;
        }
        // Walk down from the highest buffered segment, merging runs, until
        // three ranges are complete.
        let mut ranges = [(SeqNo::ZERO, SeqNo::ZERO); 3];
        let mut n = 0;
        for &q in self.out_of_order.iter().rev() {
            if n > 0 && ranges[n - 1].0 == q.next() {
                ranges[n - 1].0 = q;
            } else if n == 3 {
                break;
            } else {
                ranges[n] = (q, q.next());
                n += 1;
            }
        }
        SackBlocks::from_ranges(&ranges[..n])
    }

    fn send_ack(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.unacked_segments = 0;
        self.delack_timer.disarm();
        self.counters.acks_sent += 1;
        let ece = self.pending_ece;
        self.pending_ece = false;
        out.push(Packet {
            flow: self.flow,
            kind: PacketKind::TcpAck {
                ack: self.rcv_nxt,
                ece,
                sack: self.sack_blocks(),
            },
            size_bytes: self.cfg.ack_bytes,
            src: self.local,
            dst: self.remote,
            created_at: now,
            ecn: Ecn::default(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TcpVariant;

    type Sched = Scheduler<TransportEvent>;

    fn rx(delayed_ack: bool) -> TcpReceiver {
        let mut cfg = TcpConfig::paper(TcpVariant::Reno);
        cfg.delayed_ack = delayed_ack;
        TcpReceiver::new(cfg, FlowId(0), NodeId(1), NodeId(0))
    }

    fn acks(out: &[Packet]) -> Vec<u64> {
        out.iter()
            .map(|p| match p.kind {
                PacketKind::TcpAck { ack, .. } => ack.0,
                other => panic!("receiver emitted non-ACK {other:?}"),
            })
            .collect()
    }

    /// A data segment for `seq`, optionally CE-marked.
    fn data(seq: u64) -> Packet {
        data_ecn(seq, Ecn::NotCapable)
    }

    fn data_ecn(seq: u64, ecn: Ecn) -> Packet {
        Packet {
            flow: FlowId(0),
            kind: PacketKind::TcpData {
                seq: SeqNo(seq),
                retransmit: false,
            },
            size_bytes: 1500,
            src: NodeId(0),
            dst: NodeId(1),
            created_at: SimTime::ZERO,
            ecn,
        }
    }

    #[test]
    fn in_order_segments_ack_cumulatively() {
        let mut r = rx(false);
        let mut sched = Sched::new();
        let mut out = Vec::new();
        for s in 0..3 {
            r.on_data(&data(s), &mut sched, &mut out);
        }
        assert_eq!(acks(&out), vec![1, 2, 3]);
        assert_eq!(r.counters().delivered, 3);
        assert_eq!(r.rcv_nxt(), SeqNo(3));
    }

    #[test]
    fn hole_generates_duplicate_acks() {
        let mut r = rx(false);
        let mut sched = Sched::new();
        let mut out = Vec::new();
        r.on_data(&data(0), &mut sched, &mut out); // ack 1
        r.on_data(&data(2), &mut sched, &mut out); // dup ack 1
        r.on_data(&data(3), &mut sched, &mut out); // dup ack 1
        r.on_data(&data(4), &mut sched, &mut out); // dup ack 1
        assert_eq!(acks(&out), vec![1, 1, 1, 1]);
        assert_eq!(r.counters().out_of_order, 3);
        assert_eq!(r.reorder_buffer_len(), 3);
        // The retransmission fills the hole: one ACK jumps to 5.
        r.on_data(&data(1), &mut sched, &mut out);
        assert_eq!(acks(&out), vec![1, 1, 1, 1, 5]);
        assert_eq!(r.counters().delivered, 5);
        assert_eq!(r.reorder_buffer_len(), 0);
    }

    #[test]
    fn stale_duplicate_segment_is_acked_immediately() {
        let mut r = rx(false);
        let mut sched = Sched::new();
        let mut out = Vec::new();
        r.on_data(&data(0), &mut sched, &mut out);
        r.on_data(&data(0), &mut sched, &mut out); // spurious retransmission
        assert_eq!(acks(&out), vec![1, 1]);
        assert_eq!(r.counters().duplicates, 1);
        assert_eq!(r.counters().delivered, 1);
    }

    #[test]
    fn delayed_ack_coalesces_pairs() {
        let mut r = rx(true);
        let mut sched = Sched::new();
        let mut out = Vec::new();
        r.on_data(&data(0), &mut sched, &mut out);
        assert!(out.is_empty(), "first segment should wait");
        r.on_data(&data(1), &mut sched, &mut out);
        assert_eq!(acks(&out), vec![2]);
        r.on_data(&data(2), &mut sched, &mut out);
        r.on_data(&data(3), &mut sched, &mut out);
        assert_eq!(acks(&out), vec![2, 4]);
    }

    #[test]
    fn delayed_ack_timer_flushes_odd_segment() {
        let mut r = rx(true);
        let mut sched = Sched::new();
        let mut out = Vec::new();
        r.on_data(&data(0), &mut sched, &mut out);
        assert!(out.is_empty());
        // The delack timer event is on the queue; fire it.
        let (t, ev) = sched.pop().expect("delack timer scheduled");
        assert_eq!(t, SimTime::from_millis(100));
        r.on_timer(ev.kind, ev.generation, t, &mut out);
        assert_eq!(acks(&out), vec![1]);
        assert_eq!(r.counters().delack_timer_acks, 1);
    }

    #[test]
    fn delayed_ack_timer_is_cancelled_by_second_segment() {
        let mut r = rx(true);
        let mut sched = Sched::new();
        let mut out = Vec::new();
        r.on_data(&data(0), &mut sched, &mut out);
        r.on_data(&data(1), &mut sched, &mut out); // flushes, cancels timer
        out.clear();
        // Eager cancellation deleted the queued firing in place.
        assert!(sched.pop().is_none(), "delack firing should be cancelled in place");
        assert_eq!(sched.cancelled_in_place(), 1);
    }

    #[test]
    fn out_of_order_flushes_delayed_ack_immediately() {
        let mut r = rx(true);
        let mut sched = Sched::new();
        let mut out = Vec::new();
        r.on_data(&data(0), &mut sched, &mut out); // held
        r.on_data(&data(2), &mut sched, &mut out); // hole: immediate dup ACK
        assert_eq!(acks(&out), vec![1]);
    }

    #[test]
    fn ce_mark_is_echoed_once_then_cleared() {
        let mut r = rx(false);
        let mut sched = Sched::new();
        let mut out = Vec::new();
        r.on_data(&data_ecn(0, Ecn::CongestionExperienced), &mut sched, &mut out);
        r.on_data(&data(1), &mut sched, &mut out);
        let eces: Vec<bool> = out
            .iter()
            .map(|p| match p.kind {
                PacketKind::TcpAck { ece, .. } => ece,
                other => panic!("non-ACK {other:?}"),
            })
            .collect();
        assert_eq!(eces, vec![true, false]);
    }

    #[test]
    fn delay_stats_track_one_way_latency() {
        let mut r = rx(false);
        let mut sched = Sched::new();
        let mut out = Vec::new();
        // Deliver at t = 44 ms a segment created at t = 0.
        sched.schedule_at(SimTime::from_millis(44), TransportEvent {
            flow: FlowId(0),
            kind: TimerKind::DelAck,
            generation: TimerSlot::new().arm(SimTime::ZERO),
        });
        sched.pop();
        r.on_data(&data(0), &mut sched, &mut out);
        let d = r.delay_stats();
        assert_eq!(d.count(), 1);
        assert!((d.mean() - 0.044).abs() < 1e-9);
    }

    #[test]
    fn sack_receiver_reports_reorder_ranges_newest_first() {
        let mut cfg = TcpConfig::paper(TcpVariant::Sack);
        cfg.delayed_ack = false;
        let mut r = TcpReceiver::new(cfg, FlowId(0), NodeId(1), NodeId(0));
        let mut sched = Sched::new();
        let mut out = Vec::new();
        r.on_data(&data(0), &mut sched, &mut out); // rcv_nxt = 1
        // Holes: receive 3-4 and 7, leaving 1-2 and 5-6 missing.
        for s in [3, 4, 7] {
            r.on_data(&data(s), &mut sched, &mut out);
        }
        let last = out.last().unwrap();
        let PacketKind::TcpAck { ack, sack, .. } = last.kind else {
            panic!("expected ACK");
        };
        assert_eq!(ack, SeqNo(1));
        let blocks: Vec<_> = sack.iter().collect();
        assert_eq!(blocks, vec![(SeqNo(7), SeqNo(8)), (SeqNo(3), SeqNo(5))]);
        assert!(sack.contains(SeqNo(4)));
        assert!(!sack.contains(SeqNo(5)));
    }

    #[test]
    fn non_sack_receiver_sends_empty_blocks() {
        let mut r = rx(false); // Reno config
        let mut sched = Sched::new();
        let mut out = Vec::new();
        r.on_data(&data(0), &mut sched, &mut out);
        r.on_data(&data(5), &mut sched, &mut out);
        for p in &out {
            let PacketKind::TcpAck { sack, .. } = p.kind else {
                panic!("expected ACK")
            };
            assert!(sack.is_empty());
        }
    }

    #[test]
    fn ack_packets_are_addressed_to_sender() {
        let mut r = rx(false);
        let mut sched = Sched::new();
        let mut out = Vec::new();
        r.on_data(&data(0), &mut sched, &mut out);
        let p = out[0];
        assert_eq!(p.src, NodeId(1));
        assert_eq!(p.dst, NodeId(0));
        assert_eq!(p.size_bytes, 40);
        assert_eq!(p.flow, FlowId(0));
    }
}
