//! The receiver's reorder buffer against a reference model: over random
//! arrival orders (with duplicates), every ACK's cumulative point and SACK
//! blocks must equal what a `BTreeSet` of buffered segments says.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tcpburst_des::Scheduler;
use tcpburst_net::{Ecn, FlowId, NodeId, Packet, PacketKind, SeqNo};
use tcpburst_transport::{TcpConfig, TcpReceiver, TcpVariant, TransportEvent};

/// The reference receiver: the cumulative point, the buffered segments
/// above it, and the SACK ranges a receiver reports (the three highest
/// runs, highest first).
#[derive(Default)]
struct Reference {
    rcv_nxt: u64,
    buffered: BTreeSet<u64>,
}

impl Reference {
    fn arrive(&mut self, seq: u64) {
        if seq >= self.rcv_nxt {
            self.buffered.insert(seq);
        }
        while self.buffered.remove(&self.rcv_nxt) {
            self.rcv_nxt += 1;
        }
    }

    fn sack(&self) -> Vec<(u64, u64)> {
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for &q in &self.buffered {
            match ranges.last_mut() {
                Some((_, end)) if *end == q => *end += 1,
                _ => ranges.push((q, q + 1)),
            }
        }
        ranges.reverse();
        ranges.truncate(3);
        ranges
    }
}

fn segment(seq: u64) -> Packet {
    Packet {
        flow: FlowId(0),
        kind: PacketKind::TcpData {
            seq: SeqNo(seq),
            retransmit: false,
        },
        size_bytes: 1500,
        src: NodeId(0),
        dst: NodeId(1),
        created_at: tcpburst_des::SimTime::ZERO,
        ecn: Ecn::NotCapable,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn acks_and_sack_blocks_match_a_btreeset_reference(
        keys in proptest::collection::vec(0u64..1_000, 1..120),
        duplicates in proptest::collection::vec(0u64..1_000, 0..40),
    ) {
        // A random permutation of 0..n (segments sorted by their random
        // key), with duplicate arrivals spliced in.
        let n = keys.len() as u64;
        let mut order: Vec<u64> = (0..n).collect();
        order.sort_by_key(|&q| (keys[q as usize], q));
        for (i, &d) in duplicates.iter().enumerate() {
            let at = (d as usize * 7 + i) % (order.len() + 1);
            order.insert(at, d % n);
        }

        let mut cfg = TcpConfig::paper(TcpVariant::Sack);
        cfg.delayed_ack = false;
        let mut rx = TcpReceiver::new(cfg, FlowId(0), NodeId(1), NodeId(0));
        let mut sched: Scheduler<TransportEvent> = Scheduler::new();
        let mut out = Vec::new();
        let mut reference = Reference::default();
        for &q in &order {
            rx.on_data(&segment(q), &mut sched, &mut out);
            reference.arrive(q);
            prop_assert_eq!(out.len(), 1, "one immediate ACK per segment");
            let PacketKind::TcpAck { ack, sack, .. } = out.remove(0).kind else {
                return Err(TestCaseError::fail("receiver emitted a non-ACK"));
            };
            prop_assert_eq!(ack.0, reference.rcv_nxt);
            let blocks: Vec<(u64, u64)> = sack.iter().map(|(s, e)| (s.0, e.0)).collect();
            prop_assert_eq!(blocks, reference.sack());
            prop_assert_eq!(rx.reorder_buffer_len(), reference.buffered.len());
        }
        prop_assert_eq!(rx.rcv_nxt().0, n);
    }
}
