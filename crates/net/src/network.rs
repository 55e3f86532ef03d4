//! The node/link arena, static routing, and packet forwarding.

use tcpburst_des::{Scheduler, SimDuration, SimRng};

use crate::link::{Link, TxSlot};
use crate::packet::{LinkId, NodeId, Packet, PacketArena, PacketId};
use crate::queue::{AnyQueue, EnqueueOutcome};

/// Events the network schedules on the simulation loop.
///
/// The driving loop (in `tcpburst-core`) embeds these in its own event enum
/// via `From`; the network's methods are generic over that enum.
///
/// A link schedules its `TxComplete` only when a packet is waiting for the
/// transmitter; see [`Network`] for how the completion keeps its place in
/// the dispatch order anyway.
///
/// Both variants carry the link's up/down `epoch` at the instant
/// serialization started. A link going down bumps its epoch, so events
/// stamped before the outage arrive stale and the network discards them —
/// that is how "in-flight packets on a downed link are dropped" is
/// expressed without finding and deleting every in-flight event of the
/// link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetEvent {
    /// A link finished serializing its current packet and may start the next.
    TxComplete {
        /// The transmitting link.
        link: LinkId,
        /// The link's epoch when serialization started.
        epoch: u32,
    },
    /// A packet reached the far end of a link.
    Delivery {
        /// The link the packet travelled on.
        link: LinkId,
        /// The link's epoch when serialization started.
        epoch: u32,
        /// Ticket for the in-flight packet, parked in the network's
        /// [`PacketArena`]. An 8-byte handle instead of the ~100-byte
        /// packet keeps event-queue entries small — the single biggest
        /// lever on calendar insert/pop cost. [`Network::packet`] peeks at
        /// it; [`Network::on_delivery`] forwards it or hands the packet
        /// out.
        packet: PacketId,
    },
}

/// Why a packet died on the wire rather than in a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireLoss {
    /// The link went down while the packet was in flight.
    LinkDown,
    /// Random wire corruption (the receiver discards the frame).
    Corrupted,
}

/// What became of a delivered packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delivered {
    /// The packet reached its destination host; hand it to the transport
    /// layer.
    ToHost {
        /// The destination node.
        node: NodeId,
        /// The delivered packet.
        packet: Packet,
    },
    /// The packet hit a router and was offered to the next hop's queue
    /// (`outcome` says whether it was admitted or dropped there).
    Forwarded {
        /// The router that forwarded it.
        node: NodeId,
        /// The next-hop link it was offered to.
        via: LinkId,
        /// Queue admission result at the next hop.
        outcome: EnqueueOutcome,
    },
    /// The packet never made it across the link (fault injection).
    LostOnWire {
        /// The link it died on.
        link: LinkId,
        /// The lost packet.
        packet: Packet,
        /// What killed it.
        cause: WireLoss,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    Host,
    Router,
}

/// Marks "no route" in the flat routing tables.
const NO_ROUTE: u32 = u32::MAX;

/// A static network: nodes, simplex links and per-node routing tables.
///
/// The network is deliberately mechanical — it admits packets to queues,
/// serializes them onto links, propagates them, and forwards at routers.
/// Everything protocol- or measurement-shaped lives above it.
///
/// # Packet lifecycle
///
/// A packet is copied into the network's [`PacketArena`] once, by
/// [`inject`](Network::inject) or [`send_on`](Network::send_on). From then
/// on queues and events pass its 8-byte [`PacketId`]; it is copied out
/// once more when it reaches its destination host or dies on the wire, and
/// its slot is freed there or at the queue that drops it.
///
/// # Lazy transmit clock
///
/// Starting a serialization reserves the sequence number its `TxComplete`
/// would take, but schedules the event only if another packet is already
/// waiting. A packet that reaches a busy or just-finished transmitter
/// compares the reserved `(end, seq)` slot with the event being dispatched:
/// if the slot is still ahead, the `TxComplete` is scheduled into exactly
/// that slot; if it has passed, the completion would already have found
/// the queue empty, and the packet starts transmitting at once. Either way
/// the dispatch order, and so every result, is that of a transmitter that
/// scheduled every completion — minus the completions with nothing to do.
///
/// # Example
///
/// ```
/// use tcpburst_des::{Scheduler, SimDuration, SimTime};
/// use tcpburst_net::{
///     Delivered, DropTailQueue, FlowId, NetEvent, Network, Packet, PacketKind,
/// };
///
/// let mut net = Network::new();
/// let a = net.add_host();
/// let b = net.add_host();
/// let ab = net.add_link(a, b, 1_000_000, SimDuration::from_millis(10),
///                       DropTailQueue::new(10));
/// net.set_route(a, b, ab);
///
/// let mut sched: Scheduler<NetEvent> = Scheduler::new();
/// let pkt = Packet { flow: FlowId(0), kind: PacketKind::Datagram, size_bytes: 1000,
///                    src: a, dst: b, created_at: SimTime::ZERO,
///                    ecn: tcpburst_net::Ecn::NotCapable };
/// net.inject(pkt, &mut sched);
///
/// let mut delivered = None;
/// while let Some((_, ev)) = sched.pop() {
///     match ev {
///         NetEvent::TxComplete { link, epoch } => net.on_tx_complete(link, epoch, &mut sched),
///         NetEvent::Delivery { link, epoch, packet } => {
///             delivered = Some(net.on_delivery(link, epoch, packet, &mut sched));
///         }
///     }
/// }
/// assert!(matches!(delivered, Some(Delivered::ToHost { node, .. }) if node == b));
/// // 8 ms serialization + 10 ms propagation:
/// assert_eq!(sched.now(), SimTime::from_millis(18));
/// ```
#[derive(Debug)]
pub struct Network {
    nodes: Vec<NodeKind>,
    links: Vec<Link>,
    /// `routes[node][dst]` is the outgoing link id (or [`NO_ROUTE`]). A flat
    /// table instead of per-node hash maps: the lookup sits on the
    /// per-packet forwarding path, where array indexing beats hashing by an
    /// order of magnitude.
    routes: Vec<Vec<u32>>,
    /// Stream for wire-corruption draws, consumed in delivery order — the
    /// event queue's `(time, seq)` total order is identical on every
    /// backend, so the draws (and therefore the losses) are deterministic.
    wire_rng: SimRng,
    /// Every packet inside the network, queued or on a link (see
    /// [Packet lifecycle](Network#packet-lifecycle)).
    packets: PacketArena,
}

impl Default for Network {
    fn default() -> Self {
        Network {
            nodes: Vec::new(),
            links: Vec::new(),
            routes: Vec::new(),
            wire_rng: SimRng::seed_from_u64(0),
            packets: PacketArena::new(),
        }
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Reseeds the wire-corruption stream (call once at build time when any
    /// link has a nonzero corruption probability).
    pub fn set_wire_seed(&mut self, seed: u64) {
        self.wire_rng = SimRng::seed_from_u64(seed);
    }

    /// Takes `link` up or down.
    ///
    /// Going **down** bumps the link's epoch: the packet being serialized
    /// and every packet still propagating are lost (their events arrive
    /// stale and are discarded), while packets waiting in the admission
    /// queue survive the outage. Going **up** restarts the transmitter if
    /// anything is queued. Returns `true` if the state actually changed.
    pub fn set_link_up<E: From<NetEvent>>(
        &mut self,
        link: LinkId,
        up: bool,
        sched: &mut Scheduler<E>,
    ) -> bool {
        let l = &mut self.links[link.0 as usize];
        if l.is_up() == up {
            return false;
        }
        l.set_up(up);
        if up {
            self.start_tx(link, sched);
        }
        true
    }

    /// Adds an end host (packets addressed to it are delivered upward).
    pub fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host)
    }

    /// Adds a router (packets addressed elsewhere are forwarded).
    pub fn add_router(&mut self) -> NodeId {
        self.add_node(NodeKind::Router)
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(kind);
        self.routes.push(Vec::new());
        id
    }

    /// Adds a simplex link and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist or `bandwidth_bps` is zero.
    pub fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        bandwidth_bps: u64,
        delay: SimDuration,
        queue: impl Into<AnyQueue>,
    ) -> LinkId {
        assert!((from.0 as usize) < self.nodes.len(), "unknown node {from:?}");
        assert!((to.0 as usize) < self.nodes.len(), "unknown node {to:?}");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link::new(from, to, bandwidth_bps, delay, queue));
        id
    }

    /// Installs a route: at `node`, packets for `dst` leave via `via`.
    ///
    /// # Panics
    ///
    /// Panics if `via` does not originate at `node`.
    pub fn set_route(&mut self, node: NodeId, dst: NodeId, via: LinkId) {
        assert_eq!(
            self.link(via).from(),
            node,
            "route at {node:?} must use a link leaving it"
        );
        let table = &mut self.routes[node.0 as usize];
        if table.len() <= dst.0 as usize {
            table.resize(dst.0 as usize + 1, NO_ROUTE);
        }
        table[dst.0 as usize] = via.0;
    }

    /// Looks at a link.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Looks at a link mutably (e.g. to read queue statistics).
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0 as usize]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of simplex links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Looks at a packet inside the network without consuming its ticket —
    /// for probes that classify a delivery before [`Network::on_delivery`]
    /// handles it.
    ///
    /// # Panics
    ///
    /// Panics if the ticket is stale.
    #[inline]
    pub fn packet(&self, id: PacketId) -> &Packet {
        self.packets.get(id)
    }

    /// Number of packets on links: serialized or being serialized, and not
    /// yet delivered or lost. Queued packets do not count.
    pub fn in_flight_count(&self) -> usize {
        self.links
            .iter()
            .map(|l| {
                let s = l.stats();
                s.packets_tx
                    .saturating_sub(s.arrived + s.lost_in_flight + s.corrupted)
            })
            .sum::<u64>() as usize
    }


    /// The outgoing link `node` uses to reach `dst`, if routed.
    #[inline]
    pub fn route(&self, node: NodeId, dst: NodeId) -> Option<LinkId> {
        match self.routes[node.0 as usize].get(dst.0 as usize) {
            Some(&via) if via != NO_ROUTE => Some(LinkId(via)),
            _ => None,
        }
    }

    /// Injects a locally generated packet at its source node, offering it to
    /// the first-hop queue.
    ///
    /// # Panics
    ///
    /// Panics if the source has no route to the destination — a mis-built
    /// topology is a programming error, not a runtime condition.
    pub fn inject<E: From<NetEvent>>(
        &mut self,
        packet: Packet,
        sched: &mut Scheduler<E>,
    ) -> EnqueueOutcome {
        let via = self
            .route(packet.src, packet.dst)
            .unwrap_or_else(|| panic!("no route from {:?} to {:?}", packet.src, packet.dst));
        self.send_on(via, packet, sched)
    }

    /// Offers `packet` to `link`'s queue and starts the transmitter if idle.
    pub fn send_on<E: From<NetEvent>>(
        &mut self,
        link: LinkId,
        packet: Packet,
        sched: &mut Scheduler<E>,
    ) -> EnqueueOutcome {
        let id = self.packets.insert(packet);
        self.offer(link, id, sched)
    }

    /// Offers the arena packet `id` to `link`'s queue, freeing it if the
    /// queue refuses it, and makes sure the transmitter will serve it.
    fn offer<E: From<NetEvent>>(
        &mut self,
        link: LinkId,
        id: PacketId,
        sched: &mut Scheduler<E>,
    ) -> EnqueueOutcome {
        let l = &mut self.links[link.0 as usize];
        let outcome = l.queue_mut().enqueue(id, self.packets.get_mut(id), sched.now());
        if outcome.is_drop() {
            self.packets.take(id);
            return outcome;
        }
        let epoch = l.epoch();
        match &mut l.tx {
            Some(tx) if tx.sched == sched.id() && tx.scheduled => {}
            Some(tx) if tx.sched == sched.id() && sched.is_ahead(tx.until, tx.seq) => {
                let event = NetEvent::TxComplete { link, epoch }.into();
                sched.schedule_at_reserved(tx.until, tx.seq, event);
                tx.scheduled = true;
            }
            // Idle, or the unscheduled completion's slot has passed: it
            // would have found the queue empty and idled the transmitter.
            // A slot issued by another scheduler passed with its run.
            _ => self.start_tx(link, sched),
        }
        outcome
    }

    fn start_tx<E: From<NetEvent>>(&mut self, link: LinkId, sched: &mut Scheduler<E>) {
        let now = sched.now();
        let l = &mut self.links[link.0 as usize];
        if !l.is_up() {
            // A downed transmitter holds its queue; the link-up transition
            // restarts it.
            return;
        }
        let Some(id) = l.queue_mut().dequeue(now) else {
            l.tx = None;
            return;
        };
        let pkt = self.packets.get(id);
        l.note_tx(pkt);
        let epoch = l.epoch();
        let (done, arrive) = l.schedule_times(pkt, now);
        // Number the completion before the delivery, exactly as if it were
        // scheduled now: the slot it owns is the one an eager schedule
        // would take, whether or not the event is ever scheduled.
        let seq = sched.reserve_seq();
        sched.schedule_at(arrive, NetEvent::Delivery { link, epoch, packet: id }.into());
        let scheduled = !l.queue().is_empty();
        if scheduled {
            sched.schedule_at_reserved(done, seq, NetEvent::TxComplete { link, epoch }.into());
        }
        l.tx = Some(TxSlot {
            until: done,
            seq,
            sched: sched.id(),
            scheduled,
        });
    }

    /// Handles a [`NetEvent::TxComplete`]: the link pulls the next queued
    /// packet. A stale `epoch` (the link went down after this serialization
    /// started) is ignored — the outage already idled the transmitter, and
    /// the up transition restarts it.
    pub fn on_tx_complete<E: From<NetEvent>>(
        &mut self,
        link: LinkId,
        epoch: u32,
        sched: &mut Scheduler<E>,
    ) {
        let l = &mut self.links[link.0 as usize];
        if epoch != l.epoch() {
            return;
        }
        l.tx = None;
        self.start_tx(link, sched);
    }

    /// Handles a [`NetEvent::Delivery`]: delivers to a host or forwards at a
    /// router.
    ///
    /// A stale `epoch` means the link went down while the packet was in
    /// flight: it is reported [`Delivered::LostOnWire`] with
    /// [`WireLoss::LinkDown`]. A link with a nonzero corruption probability
    /// then rolls the wire die; a corrupted packet is reported with
    /// [`WireLoss::Corrupted`]. A packet leaving the network here — at a
    /// host or on the wire — frees its arena slot.
    ///
    /// # Panics
    ///
    /// Panics if a router has no route for the packet's destination, or if
    /// the ticket is stale.
    pub fn on_delivery<E: From<NetEvent>>(
        &mut self,
        link: LinkId,
        epoch: u32,
        packet: PacketId,
        sched: &mut Scheduler<E>,
    ) -> Delivered {
        let l = &mut self.links[link.0 as usize];
        if epoch != l.epoch() {
            l.note_lost_in_flight();
            return Delivered::LostOnWire {
                link,
                packet: self.packets.take(packet),
                cause: WireLoss::LinkDown,
            };
        }
        let corrupt_prob = l.corrupt_prob();
        if corrupt_prob > 0.0 && self.wire_rng.uniform() < corrupt_prob {
            self.links[link.0 as usize].note_corrupted();
            return Delivered::LostOnWire {
                link,
                packet: self.packets.take(packet),
                cause: WireLoss::Corrupted,
            };
        }
        let l = &mut self.links[link.0 as usize];
        l.note_arrived();
        let node = l.to();
        match self.nodes[node.0 as usize] {
            NodeKind::Host => Delivered::ToHost {
                node,
                packet: self.packets.take(packet),
            },
            NodeKind::Router => {
                let dst = self.packets.get(packet).dst;
                let via = self
                    .route(node, dst)
                    .unwrap_or_else(|| panic!("router {node:?} has no route to {dst:?}"));
                let outcome = self.offer(via, packet, sched);
                Delivered::Forwarded { node, via, outcome }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Ecn, FlowId, PacketKind};
    use crate::queue::DropTailQueue;
    use tcpburst_des::SimTime;

    fn pkt(src: NodeId, dst: NodeId) -> Packet {
        Packet {
            flow: FlowId(0),
            kind: PacketKind::Datagram,
            size_bytes: 1000,
            src,
            dst,
            created_at: SimTime::ZERO,
            ecn: Ecn::default(),
        }
    }

    fn dt(cap: usize) -> DropTailQueue {
        DropTailQueue::new(cap)
    }

    /// host A -> router R -> host B, both hops 1 Mbps / 1 ms.
    fn two_hop() -> (Network, NodeId, NodeId, LinkId, LinkId) {
        let mut net = Network::new();
        let a = net.add_host();
        let r = net.add_router();
        let b = net.add_host();
        let ar = net.add_link(a, r, 1_000_000, SimDuration::from_millis(1), dt(10));
        let rb = net.add_link(r, b, 1_000_000, SimDuration::from_millis(1), dt(10));
        net.set_route(a, b, ar);
        net.set_route(r, b, rb);
        (net, a, b, ar, rb)
    }

    fn drain(net: &mut Network, sched: &mut Scheduler<NetEvent>) -> Vec<(SimTime, Delivered)> {
        let mut out = Vec::new();
        while let Some((t, ev)) = sched.pop() {
            match ev {
                NetEvent::TxComplete { link, epoch } => net.on_tx_complete(link, epoch, sched),
                NetEvent::Delivery { link, epoch, packet } => {
                    let d = net.on_delivery(link, epoch, packet, sched);
                    if matches!(d, Delivered::ToHost { .. }) {
                        out.push((t, d));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn packet_crosses_two_hops_with_correct_latency() {
        let (mut net, a, b, _, _) = two_hop();
        let mut sched = Scheduler::new();
        net.inject(pkt(a, b), &mut sched);
        let deliveries = drain(&mut net, &mut sched);
        assert_eq!(deliveries.len(), 1);
        // Each hop: 8 ms serialization + 1 ms propagation = 9 ms; two hops.
        assert_eq!(deliveries[0].0, SimTime::from_millis(18));
        match deliveries[0].1 {
            Delivered::ToHost { node, packet } => {
                assert_eq!(node, b);
                assert_eq!(packet.dst, b);
            }
            _ => panic!("expected host delivery"),
        }
    }

    #[test]
    fn back_to_back_packets_serialize_not_parallelize() {
        let (mut net, a, b, _, _) = two_hop();
        let mut sched = Scheduler::new();
        for _ in 0..3 {
            net.inject(pkt(a, b), &mut sched);
        }
        let deliveries = drain(&mut net, &mut sched);
        let times: Vec<SimTime> = deliveries.iter().map(|&(t, _)| t).collect();
        // The pipe is rate-limited: arrivals are spaced by one serialization
        // time (8 ms), not delivered simultaneously.
        assert_eq!(
            times,
            vec![
                SimTime::from_millis(18),
                SimTime::from_millis(26),
                SimTime::from_millis(34)
            ]
        );
    }

    #[test]
    fn tx_complete_fires_only_when_a_packet_waits() {
        let mut net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let ab = net.add_link(a, b, 1_000_000, SimDuration::from_millis(1), dt(10));
        net.set_route(a, b, ab);
        let mut sched: Scheduler<NetEvent> = Scheduler::new();
        for _ in 0..3 {
            net.inject(pkt(a, b), &mut sched);
        }
        // One packet on the wire, two waiting in the queue.
        assert_eq!(net.in_flight_count(), 1);
        assert_eq!(net.packets.live(), 3);
        let mut completions = 0;
        let mut arrivals = Vec::new();
        while let Some((t, ev)) = sched.pop() {
            match ev {
                NetEvent::TxComplete { link, epoch } => {
                    completions += 1;
                    net.on_tx_complete(link, epoch, &mut sched);
                }
                NetEvent::Delivery { link, epoch, packet } => {
                    net.on_delivery(link, epoch, packet, &mut sched);
                    arrivals.push(t);
                }
            }
        }
        // The last serialization has nothing behind it, so it never
        // schedules a completion; the timing is unchanged.
        assert_eq!(completions, 2);
        assert_eq!(arrivals, [9, 17, 25].map(SimTime::from_millis).to_vec());
        // A packet arriving long after the last slot passed starts at once
        // (a stale-epoch placeholder event moves the clock to 100 ms).
        let placeholder = NetEvent::TxComplete { link: ab, epoch: 99 };
        sched.schedule_at(SimTime::from_millis(100), placeholder);
        sched.pop();
        net.inject(pkt(a, b), &mut sched);
        assert_eq!(net.in_flight_count(), 1);
        assert_eq!(sched.peek_time(), Some(SimTime::from_millis(109)));
    }

    #[test]
    fn router_queue_drops_surface_in_outcome() {
        let mut net = Network::new();
        let a = net.add_host();
        let r = net.add_router();
        let b = net.add_host();
        // Fast ingress (so the burst lands at R together), slow egress with a
        // 1-packet queue.
        let ar = net.add_link(a, r, 100_000_000, SimDuration::from_millis(1), dt(100));
        let rb = net.add_link(r, b, 1_000_000, SimDuration::from_millis(1), dt(1));
        net.set_route(a, b, ar);
        net.set_route(r, b, rb);

        let mut sched: Scheduler<NetEvent> = Scheduler::new();
        for _ in 0..5 {
            net.inject(pkt(a, b), &mut sched);
        }
        let mut drops = 0;
        let mut host_rx = 0;
        while let Some((_, ev)) = sched.pop() {
            match ev {
                NetEvent::TxComplete { link, epoch } => net.on_tx_complete(link, epoch, &mut sched),
                NetEvent::Delivery { link, epoch, packet } => {
                    match net.on_delivery(link, epoch, packet, &mut sched) {
                        Delivered::Forwarded { outcome, .. } if outcome.is_drop() => drops += 1,
                        Delivered::ToHost { .. } => host_rx += 1,
                        _ => {}
                    }
                }
            }
        }
        // 1 in service + 1 queued survive the burst; the rest drop.
        assert_eq!(host_rx, 2);
        assert_eq!(drops, 3);
        assert_eq!(net.link(rb).queue().stats().drops_full, 3);
    }

    #[test]
    fn full_duplex_directions_do_not_contend() {
        let mut net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let ab = net.add_link(a, b, 1_000_000, SimDuration::from_millis(1), dt(10));
        let ba = net.add_link(b, a, 1_000_000, SimDuration::from_millis(1), dt(10));
        net.set_route(a, b, ab);
        net.set_route(b, a, ba);
        let mut sched: Scheduler<NetEvent> = Scheduler::new();
        net.inject(pkt(a, b), &mut sched);
        net.inject(pkt(b, a), &mut sched);
        let deliveries = drain(&mut net, &mut sched);
        // Both arrive at 9 ms: opposite directions are independent pipes.
        assert_eq!(deliveries.len(), 2);
        assert!(deliveries.iter().all(|&(t, _)| t == SimTime::from_millis(9)));
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn missing_route_panics() {
        let mut net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let mut sched: Scheduler<NetEvent> = Scheduler::new();
        net.inject(pkt(a, b), &mut sched);
    }

    #[test]
    #[should_panic(expected = "must use a link leaving it")]
    fn route_via_foreign_link_panics() {
        let mut net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let c = net.add_host();
        let bc = net.add_link(b, c, 1_000_000, SimDuration::from_millis(1), dt(1));
        net.set_route(a, c, bc);
    }

    /// Flap driver: the up/down transitions ride the same event queue as
    /// the network events, exactly as `tcpburst-core` schedules them.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum FlapEv {
        Net(NetEvent),
        Down,
        Up,
    }

    impl From<NetEvent> for FlapEv {
        fn from(ev: NetEvent) -> Self {
            FlapEv::Net(ev)
        }
    }

    #[test]
    fn downed_link_drops_in_flight_but_keeps_queued() {
        let mut net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        // 1 Mbps: a 1000-byte packet serializes in 8 ms.
        let ab = net.add_link(a, b, 1_000_000, SimDuration::from_millis(1), dt(10));
        net.set_route(a, b, ab);
        let mut sched: Scheduler<FlapEv> = Scheduler::new();
        // Three packets: one in service, two queued.
        for _ in 0..3 {
            net.inject(pkt(a, b), &mut sched);
        }
        // Down at 4 ms (mid-serialization of the first), up at 20 ms.
        sched.schedule_at(SimTime::from_millis(4), FlapEv::Down);
        sched.schedule_at(SimTime::from_millis(20), FlapEv::Up);
        let mut lost = Vec::new();
        let mut arrived = Vec::new();
        while let Some((t, ev)) = sched.pop() {
            match ev {
                FlapEv::Down => {
                    assert!(net.set_link_up(ab, false, &mut sched));
                }
                FlapEv::Up => {
                    assert!(net.set_link_up(ab, true, &mut sched));
                }
                FlapEv::Net(NetEvent::TxComplete { link, epoch }) => {
                    net.on_tx_complete(link, epoch, &mut sched)
                }
                FlapEv::Net(NetEvent::Delivery { link, epoch, packet }) => {
                    match net.on_delivery(link, epoch, packet, &mut sched) {
                        Delivered::ToHost { .. } => arrived.push(t),
                        Delivered::LostOnWire { cause, .. } => lost.push(cause),
                        Delivered::Forwarded { .. } => unreachable!("no routers here"),
                    }
                }
            }
        }
        // The in-service packet is lost; the two queued ones survive the
        // outage and go out back-to-back after the link returns.
        assert_eq!(lost, vec![WireLoss::LinkDown]);
        assert_eq!(net.link(ab).stats().lost_in_flight, 1);
        // up at 20 ms + 8 ms serialization + 1 ms propagation = 29 ms.
        assert_eq!(
            arrived,
            vec![SimTime::from_millis(29), SimTime::from_millis(37)]
        );
    }

    #[test]
    fn downed_link_queues_new_arrivals_without_transmitting() {
        let mut net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let ab = net.add_link(a, b, 1_000_000, SimDuration::from_millis(1), dt(10));
        net.set_route(a, b, ab);
        let mut sched: Scheduler<NetEvent> = Scheduler::new();
        net.set_link_up(ab, false, &mut sched);
        net.inject(pkt(a, b), &mut sched);
        // Nothing scheduled: the transmitter is down, the packet waits.
        assert_eq!(sched.pending(), 0);
        assert_eq!(net.link(ab).queue().len(), 1);
        net.set_link_up(ab, true, &mut sched);
        let deliveries = drain(&mut net, &mut sched);
        assert_eq!(deliveries.len(), 1);
    }

    #[test]
    fn corruption_probability_one_kills_every_packet() {
        let mut net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let ab = net.add_link(a, b, 1_000_000, SimDuration::from_millis(1), dt(10));
        net.set_route(a, b, ab);
        net.link_mut(ab).set_corrupt_prob(1.0);
        net.set_wire_seed(7);
        let mut sched: Scheduler<NetEvent> = Scheduler::new();
        for _ in 0..5 {
            net.inject(pkt(a, b), &mut sched);
        }
        let mut corrupted = 0;
        while let Some((_, ev)) = sched.pop() {
            match ev {
                NetEvent::TxComplete { link, epoch } => net.on_tx_complete(link, epoch, &mut sched),
                NetEvent::Delivery { link, epoch, packet } => {
                    match net.on_delivery(link, epoch, packet, &mut sched) {
                        Delivered::LostOnWire { cause: WireLoss::Corrupted, .. } => corrupted += 1,
                        other => panic!("expected corruption, got {other:?}"),
                    }
                }
            }
        }
        assert_eq!(corrupted, 5);
        assert_eq!(net.link(ab).stats().corrupted, 5);
        // Corrupted frames never count as arrived; the wire identity
        // tx = arrived + corrupted + lost_in_flight still closes.
        assert_eq!(net.link(ab).stats().arrived, 0);
        assert_eq!(net.link(ab).stats().packets_tx, 5);
    }

    #[test]
    fn link_stats_count_transmissions() {
        let (mut net, a, b, ar, rb) = two_hop();
        let mut sched = Scheduler::new();
        net.inject(pkt(a, b), &mut sched);
        drain(&mut net, &mut sched);
        assert_eq!(net.link(ar).stats().packets_tx, 1);
        assert_eq!(net.link(rb).stats().packets_tx, 1);
        assert_eq!(net.link(rb).stats().bytes_tx, 1000);
        assert_eq!(net.link(ar).stats().arrived, 1);
        assert_eq!(net.link(rb).stats().arrived, 1);
    }

    #[test]
    fn arena_drains_even_through_outages_and_corruption() {
        // Every way out of the network — clean delivery, stale epoch,
        // corruption — must redeem its ticket, so a drained scheduler
        // leaves zero packets in flight and none parked.
        let mut net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        let ab = net.add_link(a, b, 1_000_000, SimDuration::from_millis(1), dt(10));
        net.set_route(a, b, ab);
        net.link_mut(ab).set_corrupt_prob(0.5);
        net.set_wire_seed(11);
        let mut sched: Scheduler<FlapEv> = Scheduler::new();
        for _ in 0..6 {
            net.inject(pkt(a, b), &mut sched);
        }
        sched.schedule_at(SimTime::from_millis(4), FlapEv::Down);
        sched.schedule_at(SimTime::from_millis(20), FlapEv::Up);
        while let Some((_, ev)) = sched.pop() {
            match ev {
                FlapEv::Down => {
                    net.set_link_up(ab, false, &mut sched);
                }
                FlapEv::Up => {
                    net.set_link_up(ab, true, &mut sched);
                }
                FlapEv::Net(NetEvent::TxComplete { link, epoch }) => {
                    net.on_tx_complete(link, epoch, &mut sched)
                }
                FlapEv::Net(NetEvent::Delivery { link, epoch, packet }) => {
                    net.on_delivery(link, epoch, packet, &mut sched);
                }
            }
        }
        assert_eq!(net.in_flight_count(), 0);
        assert_eq!(net.packets.live(), 0);
        // The slab peaks at the six packets injected together (five wait
        // in the queue) and never grows past them.
        assert_eq!(net.packets.capacity(), 6);
    }
}
