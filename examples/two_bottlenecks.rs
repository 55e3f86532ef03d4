//! Beyond the dumbbell: a two-bottleneck "parking lot" built directly from
//! the substrate crates.
//!
//! The paper's topology has a single gateway; this example shows the
//! library's pieces (des + net + transport) compose into arbitrary
//! topologies without the `tcpburst-core` harness. Two groups of Reno
//! flows share a chain of two gateways:
//!
//! ```text
//!   group A (long):  clients --> G1 ==5Mbps==> G2 ==5Mbps==> server
//!   group B (short): clients ------------------^
//! ```
//!
//! Long flows cross both bottlenecks and suffer twice: the classic
//! parking-lot unfairness.
//!
//! ```text
//! cargo run --release --example two_bottlenecks [flows_per_group] [seconds]
//! ```

use std::env;

use tcpburst_des::{Scheduler, SimDuration, SimRng, SimTime};
use tcpburst_net::{
    Delivered, DropTailQueue, FlowId, NetEvent, Network, Packet, PacketKind,
};
use tcpburst_traffic::{ArrivalProcess, PoissonSource};
use tcpburst_transport::{
    TcpConfig, TcpReceiver, TcpSender, TcpVariant, TimerKind, TransportEvent,
};

#[derive(Debug, Clone, Copy)]
enum Event {
    Net(NetEvent),
    Transport(TransportEvent),
    Generate { flow: u32 },
}

impl From<NetEvent> for Event {
    fn from(e: NetEvent) -> Self {
        Event::Net(e)
    }
}
impl From<TransportEvent> for Event {
    fn from(e: TransportEvent) -> Self {
        Event::Transport(e)
    }
}

fn main() {
    let mut args = env::args().skip(1);
    let per_group: usize = args
        .next()
        .map(|a| a.parse().expect("flows_per_group must be an integer"))
        .unwrap_or(10);
    let seconds: u64 = args
        .next()
        .map(|a| a.parse().expect("seconds must be an integer"))
        .unwrap_or(30);

    // --- topology -------------------------------------------------------
    let mut net = Network::new();
    let g1 = net.add_router();
    let g2 = net.add_router();
    let server = net.add_host();
    let dt = |cap: usize| DropTailQueue::new(cap);

    // Two 5 Mbps bottlenecks in series, 10 ms each, 50-packet buffers.
    let g1g2 = net.add_link(g1, g2, 5_000_000, SimDuration::from_millis(10), dt(50));
    let g2sv = net.add_link(g2, server, 5_000_000, SimDuration::from_millis(10), dt(50));
    let svg2 = net.add_link(server, g2, 5_000_000, SimDuration::from_millis(10), dt(1000));
    let g2g1 = net.add_link(g2, g1, 5_000_000, SimDuration::from_millis(10), dt(1000));
    net.set_route(g1, server, g1g2);
    net.set_route(g2, server, g2sv);

    let total = per_group * 2;
    let mut clients = Vec::new();
    for i in 0..total {
        let c = net.add_host();
        let long_path = i < per_group; // group A enters at G1
        let entry = if long_path { g1 } else { g2 };
        let up = net.add_link(c, entry, 100_000_000, SimDuration::from_millis(2), dt(1000));
        let down = net.add_link(entry, c, 100_000_000, SimDuration::from_millis(2), dt(1000));
        net.set_route(c, server, up);
        net.set_route(entry, c, down);
        // Reverse path for ACKs: server -> G2 (-> G1) -> client.
        net.set_route(server, c, svg2);
        if long_path {
            net.set_route(g2, c, g2g1);
        }
        clients.push(c);
    }

    // --- endpoints and workload -----------------------------------------
    let cfg = TcpConfig::paper(TcpVariant::Reno);
    let mut senders: Vec<TcpSender> = Vec::new();
    let mut receivers: Vec<TcpReceiver> = Vec::new();
    let mut sources: Vec<PoissonSource> = Vec::new();
    for (i, &c) in clients.iter().enumerate() {
        let flow = FlowId(i as u32);
        senders.push(TcpSender::new(cfg, flow, c, server));
        receivers.push(TcpReceiver::new(cfg, flow, server, c));
        // 100 pkt/s per flow: each bottleneck is oversubscribed.
        sources.push(PoissonSource::new(100.0, SimRng::derive(7, i as u64)));
    }

    // --- event loop -------------------------------------------------------
    let mut sched: Scheduler<Event> = Scheduler::new();
    let mut out: Vec<Packet> = Vec::new();
    for (i, source) in sources.iter_mut().enumerate() {
        let gap = source.next_gap();
        sched.schedule_after(gap, Event::Generate { flow: i as u32 });
    }
    let horizon = SimTime::ZERO + SimDuration::from_secs(seconds);
    while let Some((_, ev)) = sched.pop_until(horizon) {
        match ev {
            Event::Generate { flow } => {
                let i = flow as usize;
                senders[i].on_app_packets(1, &mut sched, &mut out);
                let gap = sources[i].next_gap();
                sched.schedule_after(gap, Event::Generate { flow });
            }
            Event::Net(NetEvent::TxComplete { link, epoch }) => {
                net.on_tx_complete(link, epoch, &mut sched)
            }
            Event::Net(NetEvent::Delivery { link, epoch, packet }) => {
                if let Delivered::ToHost { node, packet } =
                    net.on_delivery(link, epoch, packet, &mut sched)
                {
                    let i = packet.flow.0 as usize;
                    match packet.kind {
                        PacketKind::TcpData { .. } if node == server => {
                            receivers[i].on_data(&packet, &mut sched, &mut out);
                        }
                        PacketKind::TcpAck { ack, ece, sack } => {
                            senders[i].on_ack(ack, ece, sack, &mut sched, &mut out);
                        }
                        other => panic!("unexpected delivery {other:?}"),
                    }
                }
            }
            Event::Transport(tev) => {
                let i = tev.flow.0 as usize;
                match tev.kind {
                    TimerKind::Rto | TimerKind::Pace => {
                        senders[i].on_timer(tev.kind, tev.generation, &mut sched, &mut out);
                    }
                    TimerKind::DelAck => {
                        let now = sched.now();
                        receivers[i].on_timer(tev.kind, tev.generation, now, &mut out);
                    }
                }
            }
        }
        for pkt in out.drain(..) {
            net.inject(pkt, &mut sched);
        }
    }

    // --- report -----------------------------------------------------------
    let goodput = |range: std::ops::Range<usize>| -> (u64, f64) {
        let total: u64 = range.clone().map(|i| receivers[i].counters().delivered).sum();
        (total, total as f64 / range.len() as f64 / seconds as f64)
    };
    let (long_total, long_rate) = goodput(0..per_group);
    let (short_total, short_rate) = goodput(per_group..total);
    println!("two-bottleneck parking lot: {per_group}+{per_group} Reno flows, {seconds}s");
    println!(
        "  long flows  (2 bottlenecks): {long_total:>8} pkts  ({long_rate:.1} pkt/s per flow)"
    );
    println!(
        "  short flows (1 bottleneck):  {short_total:>8} pkts  ({short_rate:.1} pkt/s per flow)"
    );
    println!(
        "  short/long per-flow ratio: {:.2}x  (parking-lot unfairness)",
        short_rate / long_rate
    );
    let q1 = net.link(g1g2).queue().stats();
    let q2 = net.link(g2sv).queue().stats();
    println!(
        "  G1 drops {} ({:.1}%)   G2 drops {} ({:.1}%)",
        q1.drops_total(),
        q1.loss_fraction() * 100.0,
        q2.drops_total(),
        q2.loss_fraction() * 100.0
    );
}
