//! Fault injection must not weaken the determinism contract.
//!
//! The impairment schedule (link flaps, wire corruption, cross-traffic) is
//! executed as ordinary scheduler events, so an impaired sweep has to stay
//! **bit-identical** for every `--jobs` value — exactly like a healthy
//! one. The property test at the bottom pins the semantics the counters
//! summarize: a downed link delivers nothing while it is dark.

use proptest::prelude::*;
use tcpburst_core::{Protocol, ScenarioBuilder, ScenarioConfig, SweepSupervisor};
use tcpburst_des::{Scheduler, SimDuration, SimTime};
use tcpburst_net::{
    Delivered, DropTailQueue, Ecn, FlowId, NetEvent, Network, Packet, PacketKind,
};

/// A schedule that exercises every impairment class at once.
const IMPAIR: &str = "flap:300ms/1500ms,corrupt:1e-4,cross:200";

fn impaired_base(secs: u64, seed: u64) -> ScenarioConfig {
    ScenarioBuilder::paper()
        .impairments(|i| i.spec(IMPAIR).expect("valid spec"))
        .instrumentation(|i| i.secs(secs).seed(seed))
        .finish()
}

#[test]
fn impaired_sweep_is_bit_identical_across_thread_counts() {
    let base = impaired_base(5, 7);
    let protocols = [Protocol::Reno, Protocol::Vegas];
    let clients = [5, 10];
    let sweep = |jobs| {
        SweepSupervisor::new(&base, &protocols, &clients)
            .jobs(jobs)
            .run()
            .sweep
    };
    let serial = sweep(1);
    // The schedule must actually fire, or this test proves nothing.
    assert!(serial
        .cells
        .iter()
        .all(|c| c.report.impairments.link_down_events > 0));
    for jobs in [4, 0] {
        let parallel = sweep(jobs);
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.protocol, b.protocol, "jobs={jobs}: cell order changed");
            assert_eq!(a.clients, b.clients, "jobs={jobs}: cell order changed");
            assert_eq!(
                a.report.cov.to_bits(),
                b.report.cov.to_bits(),
                "jobs={jobs}: c.o.v. diverged for {:?}/{}",
                a.protocol,
                a.clients
            );
            assert_eq!(a.report.delivered_packets, b.report.delivered_packets);
            assert_eq!(a.report.generated_packets, b.report.generated_packets);
            assert_eq!(a.report.events_processed, b.report.events_processed);
            assert_eq!(a.report.impairments, b.report.impairments);
        }
    }
}

#[derive(Debug)]
enum Ev {
    Inject,
    Down,
    Up,
    Net(NetEvent),
}

impl From<NetEvent> for Ev {
    fn from(ev: NetEvent) -> Self {
        Ev::Net(ev)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the injection pattern and outage window, a dark link hands
    /// the hosts nothing: every arrival lands at or before the down
    /// transition or after the up transition, and every packet is either
    /// delivered or accounted as lost in flight.
    #[test]
    fn downed_link_delivers_nothing_while_down(
        n in 1usize..20,
        down_ms in 1u64..50,
        outage_ms in 1u64..80,
        gap_us in (100u64..5_000),
    ) {
        let mut net = Network::new();
        let a = net.add_host();
        let b = net.add_host();
        // 1 Mbps, 1 ms propagation; capacity n so nothing is tail-dropped.
        let ab = net.add_link(
            a,
            b,
            1_000_000,
            SimDuration::from_millis(1),
            DropTailQueue::new(n),
        );
        net.set_route(a, b, ab);
        let mut sched: Scheduler<Ev> = Scheduler::new();
        for i in 0..n {
            sched.schedule_at(
                SimTime::from_nanos(i as u64 * gap_us * 1_000),
                Ev::Inject,
            );
        }
        let down = SimTime::from_millis(down_ms);
        let up = SimTime::from_millis(down_ms + outage_ms);
        sched.schedule_at(down, Ev::Down);
        sched.schedule_at(up, Ev::Up);
        let (mut arrived, mut lost) = (0usize, 0usize);
        while let Some((t, ev)) = sched.pop() {
            match ev {
                Ev::Inject => {
                    let p = Packet {
                        flow: FlowId(0),
                        kind: PacketKind::Datagram,
                        size_bytes: 1000,
                        src: a,
                        dst: b,
                        created_at: t,
                        ecn: Ecn::NotCapable,
                    };
                    net.inject(p, &mut sched);
                }
                Ev::Down => {
                    prop_assert!(net.set_link_up(ab, false, &mut sched));
                }
                Ev::Up => {
                    prop_assert!(net.set_link_up(ab, true, &mut sched));
                }
                Ev::Net(NetEvent::TxComplete { link, epoch }) => {
                    net.on_tx_complete(link, epoch, &mut sched);
                }
                Ev::Net(NetEvent::Delivery { link, epoch, packet }) => {
                    match net.on_delivery(link, epoch, packet, &mut sched) {
                        Delivered::ToHost { node, .. } => {
                            prop_assert_eq!(node, b);
                            // A delivery sharing the down transition's
                            // timestamp may dispatch first; past that
                            // instant the link hands over nothing until up.
                            prop_assert!(
                                t <= down || t > up,
                                "delivery at {:?} inside outage [{:?}, {:?}]",
                                t, down, up
                            );
                            arrived += 1;
                        }
                        Delivered::LostOnWire { .. } => lost += 1,
                        Delivered::Forwarded { .. } => {
                            prop_assert!(false, "no routers in this topology");
                        }
                    }
                }
            }
        }
        prop_assert_eq!(arrived + lost, n, "every packet must be accounted");
        prop_assert_eq!(net.link(ab).stats().lost_in_flight as usize, lost);
    }
}
