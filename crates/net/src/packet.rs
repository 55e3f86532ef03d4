//! Packets and the identifier newtypes used across the workspace.

use std::fmt;

use tcpburst_des::SimTime;

/// Identifies a node (host or router) within a [`Network`](crate::Network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifies a simplex link within a [`Network`](crate::Network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// Identifies one end-to-end flow (one client's connection to the server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

/// A packet-granularity sequence number.
///
/// The simulation works in whole segments (the paper's clients submit
/// fixed-size 1000-byte packets), so sequence numbers count packets rather
/// than bytes — the same simplification the *ns* TCP agents make.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNo(pub u64);

impl SeqNo {
    /// The first sequence number of a connection.
    pub const ZERO: SeqNo = SeqNo(0);

    /// The following sequence number.
    #[must_use]
    pub fn next(self) -> SeqNo {
        SeqNo(self.0 + 1)
    }

    /// Number of packets in `[self, later)`, saturating at zero.
    pub fn distance_to(self, later: SeqNo) -> u64 {
        later.0.saturating_sub(self.0)
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The ECN codepoint carried in a packet's (virtual) IP header.
///
/// Simplified RFC 3168 model: an ECN-capable packet traversing a marking
/// RED gateway is re-marked [`Ecn::CongestionExperienced`] instead of being
/// early-dropped; the receiver echoes the mark back to the sender, which
/// halves its window without any packet having been lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ecn {
    /// The flow did not negotiate ECN; congestion is signalled by drops.
    #[default]
    NotCapable,
    /// ECN-capable transport (ECT): may be marked instead of dropped.
    Capable,
    /// Congestion experienced (CE): a gateway marked this packet.
    CongestionExperienced,
}

impl Ecn {
    /// True if a marking gateway may set CE on this packet.
    pub fn is_markable(self) -> bool {
        matches!(self, Ecn::Capable)
    }

    /// True if a gateway marked this packet.
    pub fn is_ce(self) -> bool {
        matches!(self, Ecn::CongestionExperienced)
    }
}

/// Up to three selective-acknowledgment ranges `[start, end)`, newest
/// first — the RFC 2018 option, sized like the common three-block case.
///
/// # Example
///
/// ```
/// use tcpburst_net::{SackBlocks, SeqNo};
///
/// let sack = SackBlocks::from_ranges(&[(SeqNo(7), SeqNo(9)), (SeqNo(3), SeqNo(4))]);
/// assert!(sack.contains(SeqNo(8)));
/// assert!(!sack.contains(SeqNo(5)));
/// assert_eq!(sack.iter().count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SackBlocks {
    // Flat ranges plus a length instead of `[Option<(SeqNo, SeqNo)>; 3]`:
    // `u64` pairs have no niche, so the `Option` layout costs 24 bytes per
    // slot (72 total) against 56 here. The packet is copied several times
    // per hop on the hottest path, so every cacheline matters. Unused
    // slots stay zeroed so the derived `Eq`/`Hash` see a canonical form.
    blocks: [(SeqNo, SeqNo); 3],
    len: u8,
}

impl SackBlocks {
    /// No blocks.
    pub const EMPTY: SackBlocks = SackBlocks {
        blocks: [(SeqNo(0), SeqNo(0)); 3],
        len: 0,
    };

    /// Builds from up to the first three `[start, end)` ranges.
    ///
    /// # Panics
    ///
    /// Panics if any range is empty or inverted.
    pub fn from_ranges(ranges: &[(SeqNo, SeqNo)]) -> Self {
        let mut out = SackBlocks::EMPTY;
        for (slot, &(s, e)) in out.blocks.iter_mut().zip(ranges) {
            assert!(s < e, "SACK range [{s}, {e}) is empty or inverted");
            *slot = (s, e);
            out.len += 1;
        }
        out
    }

    /// The populated ranges.
    pub fn iter(&self) -> impl Iterator<Item = (SeqNo, SeqNo)> + '_ {
        self.blocks[..self.len as usize].iter().copied()
    }

    /// True if `seq` falls inside any block.
    pub fn contains(&self, seq: SeqNo) -> bool {
        self.iter().any(|(s, e)| s <= seq && seq < e)
    }

    /// True if no block is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A TCP data segment carrying the packet with sequence number `seq`.
    TcpData {
        /// Sequence number of the carried segment.
        seq: SeqNo,
        /// True if this is a retransmission (lets probes separate first
        /// transmissions from recovery traffic).
        retransmit: bool,
    },
    /// A cumulative TCP acknowledgment: the receiver has everything below
    /// `ack` and expects `ack` next.
    TcpAck {
        /// Next expected sequence number.
        ack: SeqNo,
        /// ECN echo: the receiver saw a congestion-experienced mark.
        ece: bool,
        /// Selective-acknowledgment ranges above the cumulative point.
        sack: SackBlocks,
    },
    /// A UDP datagram (no transport feedback at all).
    Datagram,
}

impl PacketKind {
    /// True for payload-bearing kinds (TCP data and datagrams).
    pub fn is_data(&self) -> bool {
        matches!(self, PacketKind::TcpData { .. } | PacketKind::Datagram)
    }

    /// True for acknowledgments.
    pub fn is_ack(&self) -> bool {
        matches!(self, PacketKind::TcpAck { .. })
    }
}

/// A packet in flight.
///
/// # Example
///
/// ```
/// use tcpburst_des::SimTime;
/// use tcpburst_net::{FlowId, NodeId, Packet, PacketKind, SeqNo};
///
/// let pkt = Packet {
///     flow: FlowId(3),
///     kind: PacketKind::TcpData { seq: SeqNo(7), retransmit: false },
///     size_bytes: 1000,
///     src: NodeId(3),
///     dst: NodeId(99),
///     created_at: SimTime::from_millis(12),
///     ecn: tcpburst_net::Ecn::NotCapable,
/// };
/// assert!(pkt.kind.is_data());
/// assert_eq!(pkt.size_bits(), 8000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// The end-to-end flow this packet belongs to.
    pub flow: FlowId,
    /// Payload classification and transport header fields.
    pub kind: PacketKind,
    /// Wire size in bytes (drives serialization delay).
    pub size_bytes: u32,
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// When the packet was handed to the network (for delay accounting).
    pub created_at: SimTime,
    /// ECN codepoint (gateways may rewrite it to CE).
    pub ecn: Ecn,
}

impl Packet {
    /// Wire size in bits.
    pub fn size_bits(&self) -> u64 {
        u64::from(self.size_bytes) * 8
    }
}

/// Handle to a packet parked in a [`PacketArena`] for as long as it is inside
/// the network.
///
/// A [`Packet`] is ~100 bytes (the SACK option dominates); copying it into
/// every queue slot and `Delivery` event would make both an order of
/// magnitude larger than they need to be. The arena keeps the payload in
/// one slab, and queues and events carry this 8-byte ticket instead.
///
/// The handle is generational: each slot remembers how many times it has
/// been reused, and redeeming a stale ticket (the slot was freed and
/// recycled since) panics instead of silently returning someone else's
/// packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId {
    idx: u32,
    gen: u32,
}

#[derive(Debug, Clone)]
struct ArenaSlot {
    gen: u32,
    pkt: Option<Packet>,
}

/// A generational slab holding every packet inside a
/// [`Network`](crate::Network): a packet enters once, when it is injected,
/// and leaves once — delivered to its destination host, dropped by a queue,
/// or lost on the wire. Queues and link events only pass its [`PacketId`]
/// around.
///
/// Slots are recycled LIFO, so steady-state traffic churns through a small,
/// cache-hot prefix of the slab regardless of how many packets have ever
/// existed.
///
/// # Example
///
/// ```
/// use tcpburst_des::SimTime;
/// use tcpburst_net::{FlowId, NodeId, Packet, PacketArena, PacketKind, SeqNo};
///
/// let pkt = Packet {
///     flow: FlowId(0),
///     kind: PacketKind::Datagram,
///     size_bytes: 1000,
///     src: NodeId(0),
///     dst: NodeId(1),
///     created_at: SimTime::ZERO,
///     ecn: tcpburst_net::Ecn::NotCapable,
/// };
/// let mut arena = PacketArena::new();
/// let id = arena.insert(pkt);
/// assert_eq!(arena.get(id).size_bytes, 1000);
/// assert_eq!(arena.take(id), pkt);
/// assert_eq!(arena.live(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PacketArena {
    slots: Vec<ArenaSlot>,
    free: Vec<u32>,
    live: usize,
}

impl PacketArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PacketArena::default()
    }

    /// Parks a packet and returns its ticket.
    pub fn insert(&mut self, pkt: Packet) -> PacketId {
        self.live += 1;
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.pkt.is_none());
                slot.pkt = Some(pkt);
                PacketId { idx, gen: slot.gen }
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("packet arena overflow");
                self.slots.push(ArenaSlot { gen: 0, pkt: Some(pkt) });
                PacketId { idx, gen: 0 }
            }
        }
    }

    /// Looks at a parked packet without redeeming the ticket.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale or was never issued.
    pub fn get(&self, id: PacketId) -> &Packet {
        let slot = &self.slots[id.idx as usize];
        assert_eq!(slot.gen, id.gen, "stale packet ticket {id:?}");
        slot.pkt.as_ref().expect("packet ticket redeemed twice")
    }

    /// Looks at a parked packet mutably (e.g. to set an ECN mark).
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale or was never issued.
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        let slot = &mut self.slots[id.idx as usize];
        assert_eq!(slot.gen, id.gen, "stale packet ticket {id:?}");
        slot.pkt.as_mut().expect("packet ticket redeemed twice")
    }

    /// Redeems a ticket, freeing the slot and returning the packet.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale or was already redeemed.
    pub fn take(&mut self, id: PacketId) -> Packet {
        let slot = &mut self.slots[id.idx as usize];
        assert_eq!(slot.gen, id.gen, "stale packet ticket {id:?}");
        let pkt = slot.pkt.take().expect("packet ticket redeemed twice");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id.idx);
        self.live -= 1;
        pkt
    }

    /// Number of packets currently parked.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of slots ever allocated (the slab's high-water mark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqno_ordering_and_distance() {
        assert!(SeqNo(1) < SeqNo(2));
        assert_eq!(SeqNo(5).next(), SeqNo(6));
        assert_eq!(SeqNo(3).distance_to(SeqNo(10)), 7);
        assert_eq!(SeqNo(10).distance_to(SeqNo(3)), 0);
        assert_eq!(SeqNo::ZERO.to_string(), "#0");
    }

    #[test]
    fn kind_classification() {
        let data = PacketKind::TcpData {
            seq: SeqNo(1),
            retransmit: false,
        };
        let ack = PacketKind::TcpAck { ack: SeqNo(2), ece: false, sack: SackBlocks::EMPTY };
        assert!(data.is_data() && !data.is_ack());
        assert!(ack.is_ack() && !ack.is_data());
        assert!(PacketKind::Datagram.is_data());
    }

    fn dg(size_bytes: u32) -> Packet {
        Packet {
            flow: FlowId(0),
            kind: PacketKind::Datagram,
            size_bytes,
            src: NodeId(0),
            dst: NodeId(1),
            created_at: SimTime::ZERO,
            ecn: Ecn::default(),
        }
    }

    #[test]
    fn arena_recycles_slots_lifo() {
        let mut arena = PacketArena::new();
        let a = arena.insert(dg(1));
        let b = arena.insert(dg(2));
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.take(b).size_bytes, 2);
        // The freed slot is reused immediately; the slab does not grow.
        let c = arena.insert(dg(3));
        assert_eq!(arena.capacity(), 2);
        assert_eq!(arena.get(c).size_bytes, 3);
        assert_eq!(arena.take(a).size_bytes, 1);
        assert_eq!(arena.take(c).size_bytes, 3);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    #[should_panic(expected = "stale packet ticket")]
    fn arena_rejects_stale_ticket() {
        let mut arena = PacketArena::new();
        let a = arena.insert(dg(1));
        arena.take(a);
        let _b = arena.insert(dg(2)); // reuses the slot, bumps generation
        arena.get(a);
    }

    #[test]
    #[should_panic(expected = "stale packet ticket")]
    fn arena_rejects_double_free() {
        // Freeing bumps the generation, so a double free reads as stale.
        let mut arena = PacketArena::new();
        let a = arena.insert(dg(1));
        arena.take(a);
        arena.take(a);
    }

    #[test]
    fn size_in_bits() {
        let pkt = Packet {
            flow: FlowId(0),
            kind: PacketKind::Datagram,
            size_bytes: 40,
            src: NodeId(0),
            dst: NodeId(1),
            created_at: SimTime::ZERO,
            ecn: Ecn::default(),
        };
        assert_eq!(pkt.size_bits(), 320);
    }
}
