//! Property tests of the network substrate: arbitrary dumbbells stay
//! routable, link timing is exact, and queues conserve packets.

use proptest::prelude::*;
use tcpburst_des::{Scheduler, SimDuration, SimTime};
use tcpburst_net::{
    Delivered, DropTailQueue, Dumbbell, DumbbellConfig, Ecn, EnqueueOutcome, FlowId, NetEvent,
    Packet, PacketArena, PacketKind, Queue, QueueSpec, RedParams, RedQueue,
};

fn pkt(src: tcpburst_net::NodeId, dst: tcpburst_net::NodeId, bytes: u32) -> Packet {
    Packet {
        flow: FlowId(0),
        kind: PacketKind::Datagram,
        size_bytes: bytes,
        src,
        dst,
        created_at: SimTime::ZERO,
        ecn: Ecn::NotCapable,
    }
}

/// Offers `p` to `q` through `arena`, freeing the slot of a refused packet
/// as the network does.
fn offer(q: &mut impl Queue, arena: &mut PacketArena, p: Packet, now: SimTime) -> EnqueueOutcome {
    let id = arena.insert(p);
    let outcome = q.enqueue(id, arena.get_mut(id), now);
    if outcome.is_drop() {
        arena.take(id);
    }
    outcome
}

/// Serves the head of `q`, handing the packet out of `arena`.
fn serve(q: &mut impl Queue, arena: &mut PacketArena, now: SimTime) -> Option<Packet> {
    q.dequeue(now).map(|id| arena.take(id))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any dumbbell: every client can reach the server and the packet's
    /// arrival time equals the analytic two-hop store-and-forward latency.
    #[test]
    fn dumbbell_latency_matches_analysis(
        clients in 1usize..20,
        client_mbps in 1u64..200,
        bottleneck_mbps in 1u64..200,
        client_delay_us in 100u64..10_000,
        bottleneck_delay_us in 100u64..50_000,
        bytes in 40u32..9_000,
    ) {
        let cfg = DumbbellConfig {
            num_clients: clients,
            client_bandwidth_bps: client_mbps * 1_000_000,
            client_delay: SimDuration::from_micros(client_delay_us),
            client_delay_spread: 0.0,
            bottleneck_bandwidth_bps: bottleneck_mbps * 1_000_000,
            bottleneck_delay: SimDuration::from_micros(bottleneck_delay_us),
            gateway_queue: QueueSpec::DropTail { capacity: 50 },
            access_queue_capacity: 100,
            seed: 0,
        };
        let db = Dumbbell::build(&cfg);
        let mut net = db.network;
        let mut sched: Scheduler<NetEvent> = Scheduler::new();
        let p = pkt(db.clients[0], db.server, bytes);
        net.inject(p, &mut sched);
        let mut arrival = None;
        while let Some((t, ev)) = sched.pop() {
            match ev {
                NetEvent::TxComplete { link, epoch } => net.on_tx_complete(link, epoch, &mut sched),
                NetEvent::Delivery { link, epoch, packet } => {
                    if let Delivered::ToHost { node, .. } =
                        net.on_delivery(link, epoch, packet, &mut sched)
                    {
                        prop_assert_eq!(node, db.server);
                        arrival = Some(t);
                    }
                }
            }
        }
        let arrival = arrival.expect("packet reached the server");
        let bits = u64::from(bytes) * 8;
        let tx1 = net.link(db.uplinks[0]).tx_time(bits);
        let tx2 = net.link(db.bottleneck).tx_time(bits);
        let expected = SimTime::ZERO + tx1 + cfg.client_delay + tx2 + cfg.bottleneck_delay;
        prop_assert_eq!(arrival, expected);
    }

    /// Drop-tail conservation: arrivals = departures + drops + residue, and
    /// the residue never exceeds capacity.
    #[test]
    fn droptail_conserves_packets(
        capacity in 1usize..64,
        ops in proptest::collection::vec(any::<bool>(), 1..500),
    ) {
        let mut q = DropTailQueue::new(capacity);
        let mut arena = PacketArena::new();
        let a = tcpburst_net::NodeId(0);
        let b = tcpburst_net::NodeId(1);
        for (i, &enq) in ops.iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            if enq {
                offer(&mut q, &mut arena, pkt(a, b, 1000), now);
            } else {
                serve(&mut q, &mut arena, now);
            }
            prop_assert!(q.len() <= capacity);
        }
        let s = q.stats();
        prop_assert_eq!(s.arrivals, s.departures + s.drops_total() + q.len() as u64);
        prop_assert!(s.peak_len <= capacity);
    }

    /// RED conservation under arbitrary interleavings, plus: the average
    /// queue estimate stays within [0, capacity].
    #[test]
    fn red_conserves_packets_and_bounds_average(
        ops in proptest::collection::vec(any::<bool>(), 1..500),
        seed in any::<u64>(),
    ) {
        let mut q = RedQueue::new(RedParams {
            min_th: 5.0,
            max_th: 15.0,
            max_p: 0.1,
            weight: 0.02,
            capacity: 30,
            mean_pkt_time_secs: 0.001,
            ecn_marking: false,
        }, seed);
        let mut arena = PacketArena::new();
        let a = tcpburst_net::NodeId(0);
        let b = tcpburst_net::NodeId(1);
        for (i, &enq) in ops.iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            if enq {
                offer(&mut q, &mut arena, pkt(a, b, 1000), now);
            } else {
                serve(&mut q, &mut arena, now);
            }
            prop_assert!(q.len() <= 30);
            prop_assert!(q.average() >= 0.0);
            prop_assert!(q.average() <= 30.0 + 1e-9, "avg {}", q.average());
        }
        let s = q.stats();
        prop_assert_eq!(s.arrivals, s.departures + s.drops_total() + q.len() as u64);
    }

    /// FIFO service order survives arbitrary enqueue/dequeue interleaving.
    #[test]
    fn droptail_is_fifo_under_interleaving(
        ops in proptest::collection::vec(any::<bool>(), 1..300),
    ) {
        let mut q = DropTailQueue::new(1000); // no drops: pure order check
        let mut arena = PacketArena::new();
        let a = tcpburst_net::NodeId(0);
        let b = tcpburst_net::NodeId(1);
        let mut next_in = 0u32;
        let mut next_out = 0u32;
        for (i, &enq) in ops.iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            if enq {
                let mut p = pkt(a, b, 1000);
                p.size_bytes = next_in + 1; // tag with insertion index
                offer(&mut q, &mut arena, p, now);
                next_in += 1;
            } else if let Some(p) = serve(&mut q, &mut arena, now) {
                prop_assert_eq!(p.size_bytes, next_out + 1, "service out of order");
                next_out += 1;
            }
        }
    }
}
