//! Property tests of whole scenarios: arbitrary small configurations must
//! run to completion with conserved accounting and physically sane metrics,
//! and any configuration survives the point-frame codec exactly.

use proptest::prelude::*;
use tcpburst_core::{
    codec, point_digest, GatewayKind, Protocol, Scenario, ScenarioBuilder, SourceKind, TopoKind,
};
use tcpburst_des::SimDuration;
use tcpburst_traffic::ParetoOnOffConfig;
use tcpburst_transport::{GaimdParams, TcpVariant, VegasParams};

fn protocols() -> impl Strategy<Value = Protocol> {
    prop_oneof![
        Just(Protocol::Udp),
        Just(Protocol::Reno),
        Just(Protocol::RenoRed),
        Just(Protocol::Vegas),
        Just(Protocol::VegasRed),
        Just(Protocol::RenoDelayAck),
        Just(Protocol::Tahoe),
        Just(Protocol::NewReno),
    ]
}

proptest! {
    // Each case simulates a few seconds; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_scenarios_run_and_conserve(
        protocol in protocols(),
        clients in 1usize..25,
        secs in 2u64..6,
        seed in any::<u64>(),
        buffer in 2usize..100,
        ecn in any::<bool>(),
        adaptive in any::<bool>(),
    ) {
        let mut cfg = ScenarioBuilder::paper()
            .topology(|t| t.clients(clients).buffer_pkts(buffer))
            .transport(|t| t.protocol(protocol).ecn(ecn))
            .instrumentation(|i| i.duration(SimDuration::from_secs(secs)).seed(seed))
            .finish();
        if adaptive && cfg.gateway == GatewayKind::Red {
            cfg.gateway = GatewayKind::AdaptiveRed;
        }
        let r = Scenario::run(&cfg);

        // Conservation at the bottleneck.
        let q = r.bottleneck_queue;
        prop_assert!(q.departures + q.drops_total() <= q.arrivals);

        // Goodput bounded by generation and by wire transmissions.
        prop_assert!(r.delivered_packets <= r.generated_packets);
        for f in &r.flows {
            prop_assert!(f.delivered <= f.packets_sent);
            prop_assert!(f.mean_delay_secs >= 0.0);
        }

        // Metrics are finite and physical.
        prop_assert!(r.cov.is_finite() && r.cov >= 0.0);
        prop_assert!(r.poisson_cov > 0.0);
        prop_assert!((0.0..=100.0).contains(&r.loss_percent));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r.fairness));
        prop_assert!(r.avg_queue_len >= 0.0);
        prop_assert!(r.avg_queue_len <= buffer as f64 + 1e-9);

        // Flow count matches the configuration.
        prop_assert_eq!(r.flows.len(), clients);
    }

    /// Determinism as a property: any configuration replays identically.
    #[test]
    fn any_configuration_is_deterministic(
        protocol in protocols(),
        clients in 1usize..15,
        seed in any::<u64>(),
    ) {
        let cfg = ScenarioBuilder::paper()
            .topology(|t| t.clients(clients))
            .transport(|t| t.protocol(protocol))
            .instrumentation(|i| i.secs(3).seed(seed))
            .finish();
        let a = Scenario::run(&cfg);
        let b = Scenario::run(&cfg);
        prop_assert_eq!(a.events_processed, b.events_processed);
        prop_assert_eq!(a.delivered_packets, b.delivered_packets);
        prop_assert_eq!(a.cov.to_bits(), b.cov.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A configuration in which every builder stage is randomised decodes
    /// from its point-frame payload with the same `Debug` form, and so the
    /// same store digest. The paper's protocols plus a variant and a
    /// gateway override reach every transport and queue; knobs no stage
    /// validates take arbitrary bit patterns (NaN, infinities, -0.0).
    #[test]
    fn configs_round_trip_through_the_frame_codec(
        shape in 0usize..4,
        size in 1usize..40,
        protocol in 0usize..Protocol::PAPER_SET.len(),
        variant in 0usize..TcpVariant::ALL.len() + 1,
        gateway in 0usize..4,
        source in 0usize..3,
        flags in proptest::collection::vec(any::<bool>(), 13..14),
        ints in proptest::collection::vec(any::<u64>(), 12..13),
        bits in proptest::collection::vec(any::<u64>(), 24..25),
    ) {
        let f = |i: usize| f64::from_bits(bits[i]);
        let unit = |i: usize| (ints[i] % 1000) as f64 / 1000.0;
        let span = |i: usize| SimDuration::from_nanos(ints[i] % 50_000_000_000 + 1);
        let topology = match shape {
            0 => TopoKind::Dumbbell,
            1 => TopoKind::ParkingLot { hops: size % 6 + 1, flows_per_hop: size % 5 + 1 },
            2 => TopoKind::Incast { fanin: size },
            _ => TopoKind::Waxman { nodes: size + 1, alpha: 0.05 + unit(0) * 0.9, beta: 0.05 + unit(1) },
        };
        let built = ScenarioBuilder::paper()
            .topology(|t| {
                let t = t
                    .clients(size)
                    .shape(topology)
                    .buffer_pkts(ints[2] as usize % 500 + 1)
                    .rtt_spread(unit(3) * 10.0)
                    .bottleneck_bandwidth_bps(ints[4] % 1_000_000_000 + 1)
                    .bottleneck_delay(span(5));
                let gateways = [GatewayKind::Fifo, GatewayKind::Red, GatewayKind::AdaptiveRed];
                match gateways.get(gateway) {
                    Some(&kind) => t.gateway(kind),
                    None => t,
                }
            })
            .workload(|w| {
                let w = w.packet_bytes(ints[6] as u32 % 9000 + 40);
                match source {
                    0 => w.poisson(f(0)),
                    1 => w.source(SourceKind::Cbr { rate: f(1) }),
                    _ => w.pareto(ParetoOnOffConfig {
                        peak_rate: f(2),
                        mean_on_secs: f(3),
                        mean_off_secs: f(4),
                        shape: f(5),
                    }),
                }
            })
            .transport(|t| {
                let t = t
                    .protocol(Protocol::PAPER_SET[protocol])
                    .advertised_window(ints[7] as u32)
                    .delayed_ack(flags[0])
                    .ecn(flags[1])
                    .vegas(VegasParams { alpha: f(6), beta: f(7), gamma: f(8) })
                    .gaimd(GaimdParams { alpha: f(9), beta: f(10) });
                match TcpVariant::ALL.get(variant) {
                    Some(&v) => t.variant(v),
                    None => t,
                }
            })
            .impairments(|i| {
                let i = i.corrupt(unit(8));
                let i = if flags[2] { i.flap(span(9), span(10)) } else { i };
                let i = if flags[3] { i.capacity(0.01 + unit(9), span(11)) } else { i };
                let i = if flags[4] { i.delay_variation(unit(10) * 4.0, span(0)) } else { i };
                if flags[5] { i.cross(1.0 + unit(11) * 1000.0, ints[8] as u32 % 9000 + 40) } else { i }
            })
            .instrumentation(|i| {
                i.duration(span(1))
                    .warmup(span(2))
                    .cov_bin(flags[6].then(|| span(3)))
                    .seed(ints[11])
                    .trace_cwnd(flags[7])
                    .trace_events(flags[8])
                    .trace_hops(flags[9])
                    .audit(flags[10])
            })
            .try_finish();
        prop_assume!(built.is_ok());
        let mut cfg = built.expect("validated above");
        // Knobs no builder stage sets.
        cfg.red_max_p = f(11);
        cfg.red_weight = f(12);
        cfg.adaptive_red.alpha = f(13);
        cfg.adaptive_red.beta = f(14);
        cfg.adaptive_red.min_max_p = f(15);
        cfg.adaptive_red.max_max_p = f(16);
        cfg.adaptive_red.interval = span(4);
        cfg.params.client_bandwidth_bps = ints[9];
        cfg.params.client_delay = span(6);
        cfg.params.mean_intergeneration_secs = f(17);
        cfg.params.total_test_secs = ints[10];
        cfg.params.red_min_th = f(18);
        cfg.params.red_max_th = f(19);
        if flags[11] {
            cfg.source = SourceKind::Poisson { rate: -0.0 };
        }
        if flags[12] {
            cfg.rtt_spread = f(20);
        }

        let payload = codec::encode_config(&cfg);
        let back = codec::decode_config(&payload);
        prop_assert!(back.is_some(), "payload does not decode:\n{}", payload);
        let back = back.expect("checked above");
        prop_assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
        prop_assert_eq!(point_digest(&back), point_digest(&cfg));
        prop_assert_eq!(codec::encode_config(&back), payload);
    }
}
