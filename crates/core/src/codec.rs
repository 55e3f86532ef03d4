//! Exact, dependency-free serialization of a [`ScenarioReport`] and of a
//! [`ScenarioConfig`].
//!
//! The report codec is the persistence format of the content-addressed
//! result store ([`crate::store`]) *and* the reply format of the
//! worker-process protocol ([`crate::workers`]): one serializer, so a report
//! loaded from cache and a report streamed back from a worker process are
//! reconstructed by the same code path and are **bit-identical** to the
//! freshly computed original. The config codec ([`encode_config`]) is what
//! a point frame carries to the worker: the whole configuration of that
//! point, which decodes to a config with the same `Debug` form, and so the
//! same [`point_digest`](crate::store::point_digest), as the one sent.
//!
//! Floating-point fields are written as the 16-hex-digit form of
//! [`f64::to_bits`] and parsed back with [`f64::from_bits`] — exact by
//! construction, with no dependence on shortest-round-trip formatting.
//! Everything else is decimal integers on labelled lines, so a truncated
//! or hand-mangled payload fails to parse instead of silently decoding to
//! a different value.
//!
//! ## What cannot be encoded
//!
//! Three report shapes are refused (`encode` returns `None`) rather than
//! lossily approximated, and the callers treat them as "not cacheable,
//! not worker-dispatchable":
//!
//! * a populated [`event_log`](ScenarioReport::event_log) or any per-flow
//!   [`cwnd_trace`](crate::FlowReport::cwnd_trace) — trace payloads are
//!   diagnostic firehoses, not figure inputs;
//! * a set [`budget_exceeded`](ScenarioReport::budget_exceeded) — partial
//!   diagnostic reports must never be served as completed results;
//! * a *failed* audit — [`InvariantViolation`](crate::InvariantViolation)
//!   carries `&'static str` invariant names that cannot round-trip
//!   through a file (and a violated run has no business in a cache).

use std::fmt::Write as _;
use std::str::SplitWhitespace;

use tcpburst_des::SimDuration;
use tcpburst_net::{
    AdaptiveRedParams, CapacityVariation, CrossTraffic, DelayVariation, Impairments, LinkFlap,
    QueueStats,
};
use tcpburst_stats::BinCounts;
use tcpburst_traffic::ParetoOnOffConfig;
use tcpburst_transport::{GaimdParams, TcpCounters, TcpVariant, VegasParams};

use crate::config::{
    GatewayKind, PaperParams, ScenarioConfig, SourceKind, TopoKind, TransportKind,
};
use crate::profile::{DispatchProfile, EventClassStats, TimerReport};
use crate::report::{FlowReport, ImpairmentReport, ScenarioReport};
use crate::supervise::AuditReport;

/// Format tag on the first payload line; bumped together with
/// [`ENGINE_SCHEMA_VERSION`](crate::store::ENGINE_SCHEMA_VERSION).
const MAGIC: &str = "tcpburst-report";

/// Header line of a config payload: format tag and version.
const CONFIG_HEADER: &str = "tcpburst-config 1\n";

fn f2s(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn s2f(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn push_tcp(out: &mut String, t: &TcpCounters) {
    let _ = write!(
        out,
        "{} {} {} {} {} {} {} {} {} {}",
        t.data_packets_sent,
        t.retransmits,
        t.timeouts,
        t.fast_retransmits,
        t.acks_received,
        t.dup_acks_received,
        t.rtt_samples,
        t.app_packets_submitted,
        t.peak_backlog,
        t.ecn_window_cuts,
    );
}

fn parse_tcp(tokens: &mut std::str::SplitWhitespace<'_>) -> Option<TcpCounters> {
    let mut next = || tokens.next()?.parse::<u64>().ok();
    Some(TcpCounters {
        data_packets_sent: next()?,
        retransmits: next()?,
        timeouts: next()?,
        fast_retransmits: next()?,
        acks_received: next()?,
        dup_acks_received: next()?,
        rtt_samples: next()?,
        app_packets_submitted: next()?,
        peak_backlog: next()?,
        ecn_window_cuts: next()?,
    })
}

/// True when `report` round-trips losslessly through this codec (see the
/// module docs for the three refused shapes).
pub fn encodable(report: &ScenarioReport) -> bool {
    report.event_log.is_none()
        && report.hop_series.is_none()
        && report.budget_exceeded.is_none()
        && report.flows.iter().all(|f| f.cwnd_trace.is_none())
        && report.audit.as_ref().is_none_or(|a| a.passed())
}

/// Serializes `report` to the line-based text payload, or `None` if the
/// report carries state the codec refuses to encode ([`encodable`]).
pub fn encode(report: &ScenarioReport) -> Option<String> {
    if !encodable(report) {
        return None;
    }
    let mut out = String::with_capacity(512 + report.bins.len() * 4 + report.flows.len() * 96);
    let _ = writeln!(out, "{MAGIC} 2");
    let _ = writeln!(out, "cov {} {}", f2s(report.cov), f2s(report.poisson_cov));
    let _ = write!(
        out,
        "bins {} {}",
        report.bins.bin_width().as_nanos(),
        report.bins.len()
    );
    for &c in report.bins.counts() {
        let _ = write!(out, " {c}");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "pkts {} {} {}",
        report.generated_packets,
        report.delivered_packets,
        f2s(report.loss_percent)
    );
    let q = &report.bottleneck_queue;
    let _ = writeln!(
        out,
        "queue {} {} {} {} {} {} {}",
        q.arrivals, q.drops_full, q.drops_early, q.drops_forced, q.departures, q.peak_len,
        q.ecn_marks
    );
    let _ = writeln!(
        out,
        "aggr {} {} {}",
        f2s(report.avg_queue_len),
        f2s(report.mean_delay_secs),
        f2s(report.fairness)
    );
    out.push_str("tcp ");
    push_tcp(&mut out, &report.tcp_totals);
    out.push('\n');
    let _ = writeln!(
        out,
        "run {} {} {}",
        f2s(report.duration_secs),
        report.events_processed,
        f2s(report.wall_clock_secs)
    );
    let t = &report.timers;
    let _ = writeln!(
        out,
        "timers {} {} {}",
        t.stale_fired, t.cancelled_in_place, t.pending_peak
    );
    let d = &report.dispatch;
    let _ = writeln!(
        out,
        "dispatch {} {} {} {} {} {} {} {} {} {}",
        d.generate.count,
        d.generate.nanos,
        d.net_tx.count,
        d.net_tx.nanos,
        d.net_delivery.count,
        d.net_delivery.nanos,
        d.transport.count,
        d.transport.nanos,
        d.impair.count,
        d.impair.nanos
    );
    let i = &report.impairments;
    let _ = writeln!(
        out,
        "impair {} {} {} {} {} {}",
        i.link_down_events,
        i.link_up_events,
        i.lost_in_flight,
        i.corrupted,
        i.cross_injected,
        i.cross_delivered
    );
    match &report.audit {
        None => {
            let _ = writeln!(out, "audit -");
        }
        // encodable() guaranteed the audit passed: no violations to carry.
        Some(a) => {
            let _ = writeln!(
                out,
                "audit {} {} {} {} {} {}",
                a.injected,
                a.host_delivered,
                a.queue_drops,
                a.wire_lost,
                a.queued_at_end,
                a.in_flight_at_end
            );
        }
    }
    let _ = writeln!(out, "flows {}", report.flows.len());
    for f in &report.flows {
        let _ = write!(
            out,
            "f {} {} {} ",
            f.packets_sent,
            f.delivered,
            f2s(f.mean_delay_secs)
        );
        match &f.tcp {
            None => out.push('-'),
            Some(t) => push_tcp(&mut out, t),
        }
        out.push('\n');
    }
    out.push_str("end\n");
    Some(out)
}

/// Parses a payload produced by [`encode`] back into the bit-identical
/// [`ScenarioReport`]; `None` for anything malformed, truncated, or from
/// a different codec version.
pub fn decode(payload: &str) -> Option<ScenarioReport> {
    // `str::lines` would accept a final line with its newline cut off, so
    // a payload truncated by exactly one byte could still parse; encode
    // always terminates with a newline, so its absence is truncation.
    if !payload.ends_with('\n') {
        return None;
    }
    let mut lines = payload.lines();
    // A tagged line: the parser names the line it expects, so a missing or
    // reordered line fails here instead of mis-assigning fields.
    let mut expect = |tag: &str| -> Option<std::str::SplitWhitespace<'_>> {
        let line = lines.next()?;
        let mut tokens = line.split_whitespace();
        if tokens.next()? != tag {
            return None;
        }
        Some(tokens)
    };

    let mut header = expect(MAGIC)?;
    if header.next()?.parse::<u32>().ok()? != 2 || header.next().is_some() {
        return None;
    }

    let mut cov = expect("cov")?;
    let (cov, poisson_cov) = (s2f(cov.next()?)?, s2f(cov.next()?)?);

    let mut bins = expect("bins")?;
    let bin_nanos: u64 = bins.next()?.parse().ok()?;
    let bin_count: usize = bins.next()?.parse().ok()?;
    let counts: Vec<u64> = bins.map(str::parse).collect::<Result<_, _>>().ok()?;
    if counts.len() != bin_count || bin_nanos == 0 {
        return None;
    }
    let bins = BinCounts::from_raw(counts, SimDuration::from_nanos(bin_nanos));

    let mut pkts = expect("pkts")?;
    let generated_packets: u64 = pkts.next()?.parse().ok()?;
    let delivered_packets: u64 = pkts.next()?.parse().ok()?;
    let loss_percent = s2f(pkts.next()?)?;

    let mut q = expect("queue")?;
    let mut qn = || q.next()?.parse::<u64>().ok();
    let bottleneck_queue = QueueStats {
        arrivals: qn()?,
        drops_full: qn()?,
        drops_early: qn()?,
        drops_forced: qn()?,
        departures: qn()?,
        peak_len: qn()? as usize,
        ecn_marks: qn()?,
    };

    let mut aggr = expect("aggr")?;
    let avg_queue_len = s2f(aggr.next()?)?;
    let mean_delay_secs = s2f(aggr.next()?)?;
    let fairness = s2f(aggr.next()?)?;

    let tcp_totals = parse_tcp(&mut expect("tcp")?)?;

    let mut run = expect("run")?;
    let duration_secs = s2f(run.next()?)?;
    let events_processed: u64 = run.next()?.parse().ok()?;
    let wall_clock_secs = s2f(run.next()?)?;

    let mut tl = expect("timers")?;
    let timers = TimerReport {
        stale_fired: tl.next()?.parse().ok()?,
        cancelled_in_place: tl.next()?.parse().ok()?,
        pending_peak: tl.next()?.parse().ok()?,
    };

    let mut dl = expect("dispatch")?;
    let mut class = || -> Option<EventClassStats> {
        Some(EventClassStats {
            count: dl.next()?.parse().ok()?,
            nanos: dl.next()?.parse().ok()?,
        })
    };
    let dispatch = DispatchProfile {
        generate: class()?,
        net_tx: class()?,
        net_delivery: class()?,
        transport: class()?,
        impair: class()?,
    };

    let mut il = expect("impair")?;
    let mut inext = || il.next()?.parse::<u64>().ok();
    let impairments = ImpairmentReport {
        link_down_events: inext()?,
        link_up_events: inext()?,
        lost_in_flight: inext()?,
        corrupted: inext()?,
        cross_injected: inext()?,
        cross_delivered: inext()?,
    };

    let mut al = expect("audit")?;
    let first = al.next()?;
    let audit = if first == "-" {
        None
    } else {
        let mut anext = || al.next()?.parse::<u64>().ok();
        Some(AuditReport {
            injected: first.parse().ok()?,
            host_delivered: anext()?,
            queue_drops: anext()?,
            wire_lost: anext()?,
            queued_at_end: anext()?,
            in_flight_at_end: anext()?,
            violations: Vec::new(),
        })
    };

    let mut fl = expect("flows")?;
    let flow_count: usize = fl.next()?.parse().ok()?;
    let mut flows = Vec::with_capacity(flow_count);
    for _ in 0..flow_count {
        let mut f = expect("f")?;
        let packets_sent: u64 = f.next()?.parse().ok()?;
        let delivered: u64 = f.next()?.parse().ok()?;
        let mean_delay_secs = s2f(f.next()?)?;
        let tcp = {
            let mut peek = f.clone();
            if peek.next()? == "-" {
                f = peek;
                None
            } else {
                Some(parse_tcp(&mut f)?)
            }
        };
        if f.next().is_some() {
            return None;
        }
        flows.push(FlowReport {
            packets_sent,
            delivered,
            mean_delay_secs,
            tcp,
            cwnd_trace: None,
        });
    }

    // The terminator proves the payload was not truncated mid-stream.
    if expect("end").is_none() || lines.next().is_some() {
        return None;
    }

    Some(ScenarioReport {
        cov,
        poisson_cov,
        bins,
        generated_packets,
        delivered_packets,
        loss_percent,
        bottleneck_queue,
        avg_queue_len,
        mean_delay_secs,
        fairness,
        tcp_totals,
        flows,
        duration_secs,
        events_processed,
        wall_clock_secs,
        timers,
        dispatch,
        event_log: None,
        hop_series: None,
        impairments,
        audit,
        budget_exceeded: None,
    })
}

// ---------------------------------------------------------------------------
// The config codec
// ---------------------------------------------------------------------------

/// A value the config codec writes as whitespace-separated tokens, in the
/// style of `push_tcp`/`parse_tcp`: `take` reads back exactly what `put`
/// wrote.
trait Wire: Sized {
    /// Appends the value's tokens, each preceded by a space.
    fn put(&self, out: &mut String);
    /// Reads the value's tokens; `None` for a missing or malformed token.
    fn take(tokens: &mut SplitWhitespace<'_>) -> Option<Self>;
}

/// Integers and flags: their decimal (`true`/`false`) form.
macro_rules! wire_display {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut String) {
                let _ = write!(out, " {self}");
            }
            fn take(tokens: &mut SplitWhitespace<'_>) -> Option<Self> {
                tokens.next()?.parse().ok()
            }
        }
    )*};
}

wire_display!(bool, u32, u64, usize);

/// The `f2s` form, written in place.
impl Wire for f64 {
    fn put(&self, out: &mut String) {
        let _ = write!(out, " {:016x}", self.to_bits());
    }
    fn take(tokens: &mut SplitWhitespace<'_>) -> Option<Self> {
        s2f(tokens.next()?)
    }
}

impl Wire for SimDuration {
    fn put(&self, out: &mut String) {
        self.as_nanos().put(out);
    }
    fn take(tokens: &mut SplitWhitespace<'_>) -> Option<Self> {
        u64::take(tokens).map(SimDuration::from_nanos)
    }
}

/// `-` for `None`; a `Some` is its value alone, whose first token is
/// never `-`.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            None => out.push_str(" -"),
            Some(v) => v.put(out),
        }
    }
    fn take(tokens: &mut SplitWhitespace<'_>) -> Option<Self> {
        let mut peek = tokens.clone();
        if peek.next()? == "-" {
            *tokens = peek;
            return Some(None);
        }
        T::take(tokens).map(Some)
    }
}

/// A struct as its fields in declaration order. The field list is written
/// once: `put` destructures it with no `..` rest pattern and `take` builds
/// it with a full struct literal, so a field added to the struct fails to
/// compile here until it is listed.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut String) {
                let $ty { $($field),* } = self;
                $($field.put(out);)*
            }
            fn take(tokens: &mut SplitWhitespace<'_>) -> Option<Self> {
                Some($ty { $($field: Wire::take(tokens)?),* })
            }
        }
    )*};
}

wire_struct! {
    ScenarioConfig {
        num_clients, topology, transport, gateway, delayed_ack, source, params, vegas, gaimd,
        red_max_p, red_weight, adaptive_red, ecn, duration, warmup, cov_bin, rtt_spread, seed,
        impair, trace_cwnd, trace_events, trace_hops, audit,
    }
    PaperParams {
        client_bandwidth_bps, client_delay, bottleneck_bandwidth_bps, bottleneck_delay,
        advertised_window, gateway_buffer_pkts, packet_bytes, mean_intergeneration_secs,
        total_test_secs, red_min_th, red_max_th,
    }
    VegasParams { alpha, beta, gamma }
    GaimdParams { alpha, beta }
    AdaptiveRedParams { alpha, beta, min_max_p, max_max_p, interval }
    Impairments { flap, capacity, delay, corrupt_prob, cross }
    LinkFlap { down, up }
    CapacityVariation { factor, period }
    DelayVariation { factor, period }
    CrossTraffic { rate_pps, packet_bytes }
    ParetoOnOffConfig { peak_rate, mean_on_secs, mean_off_secs, shape }
}

/// An enum as its variant's tag token, then the variant's fields in
/// order. As in `wire_struct!`, `put` matches with no wildcard arm, so a
/// variant added to the enum fails to compile here until it is listed.
macro_rules! wire_enum {
    ($($ty:ident {
        $($tag:literal => $variant:ident $({ $($field:ident),* })? $(($inner:ident))?),* $(,)?
    })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut String) {
                match self {
                    $($ty::$variant $({ $($field),* })? $(($inner))? => {
                        out.push_str(concat!(" ", $tag));
                        $($($field.put(out);)*)?
                        $($inner.put(out);)?
                    })*
                }
            }
            fn take(tokens: &mut SplitWhitespace<'_>) -> Option<Self> {
                Some(match tokens.next()? {
                    $($tag => $ty::$variant
                        $({ $($field: Wire::take(tokens)?),* })?
                        $(({ let $inner = Wire::take(tokens)?; $inner }))?,)*
                    _ => return None,
                })
            }
        }
    )*};
}

wire_enum! {
    TopoKind {
        "dumbbell" => Dumbbell,
        "parking-lot" => ParkingLot { hops, flows_per_hop },
        "incast" => Incast { fanin },
        "waxman" => Waxman { nodes, alpha, beta },
    }
    TransportKind { "udp" => Udp, "tcp" => Tcp(variant) }
    GatewayKind { "fifo" => Fifo, "red" => Red, "adaptive-red" => AdaptiveRed }
    SourceKind {
        "poisson" => Poisson { rate },
        "cbr" => Cbr { rate },
        "pareto" => ParetoOnOff(cfg),
    }
}

/// A TCP variant by its `Debug` name, looked up in [`TcpVariant::ALL`].
impl Wire for TcpVariant {
    fn put(&self, out: &mut String) {
        let _ = write!(out, " {self:?}");
    }
    fn take(tokens: &mut SplitWhitespace<'_>) -> Option<Self> {
        let name = tokens.next()?;
        TcpVariant::ALL
            .into_iter()
            .find(|v| format!("{v:?}") == name)
    }
}

/// Serializes `cfg` to the payload a point frame carries: a header line,
/// one line of every field's tokens in declaration order, and `end`.
pub fn encode_config(cfg: &ScenarioConfig) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(CONFIG_HEADER);
    cfg.put(&mut out);
    out.push_str("\nend\n");
    out
}

/// Parses a payload produced by [`encode_config`] back into a
/// configuration with the identical `Debug` form; `None` for anything
/// malformed, truncated (the `end` line is missing), or from a different
/// format version.
pub fn decode_config(payload: &str) -> Option<ScenarioConfig> {
    let body = payload
        .strip_prefix(CONFIG_HEADER)?
        .strip_suffix("\nend\n")?;
    let mut tokens = body.split_whitespace();
    let cfg = ScenarioConfig::take(&mut tokens)?;
    tokens.next().is_none().then_some(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::ExceededBudget;
    use tcpburst_stats::BinnedCounter;
    use tcpburst_des::SimTime;

    fn sample_report() -> ScenarioReport {
        let mut probe = BinnedCounter::new(SimDuration::from_millis(44));
        for ms in [10u64, 50, 60, 200] {
            probe.record(SimTime::from_millis(ms));
        }
        ScenarioReport {
            cov: 1.234_567_890_123_456_7,
            poisson_cov: 0.1 + 0.2,
            bins: probe.finish(SimTime::from_millis(264)),
            generated_packets: 123_456,
            delivered_packets: 120_000,
            loss_percent: 2.796_523e-3,
            bottleneck_queue: QueueStats {
                arrivals: 1000,
                drops_full: 3,
                drops_early: 2,
                drops_forced: 1,
                departures: 994,
                peak_len: 17,
                ecn_marks: 5,
            },
            avg_queue_len: 3.75,
            mean_delay_secs: 0.046_123,
            fairness: 0.987_654_321,
            tcp_totals: TcpCounters {
                data_packets_sent: 500,
                retransmits: 4,
                timeouts: 2,
                fast_retransmits: 2,
                acks_received: 480,
                dup_acks_received: 12,
                rtt_samples: 450,
                app_packets_submitted: 510,
                peak_backlog: 9,
                ecn_window_cuts: 1,
            },
            flows: vec![
                FlowReport {
                    packets_sent: 250,
                    delivered: 240,
                    mean_delay_secs: 0.044,
                    tcp: Some(TcpCounters {
                        data_packets_sent: 250,
                        ..TcpCounters::default()
                    }),
                    cwnd_trace: None,
                },
                FlowReport {
                    packets_sent: 250,
                    delivered: 245,
                    mean_delay_secs: f64::NAN,
                    tcp: None,
                    cwnd_trace: None,
                },
            ],
            duration_secs: 30.0,
            events_processed: 987_654,
            wall_clock_secs: 0.125,
            timers: TimerReport {
                stale_fired: 7,
                cancelled_in_place: 123,
                pending_peak: 456,
            },
            dispatch: DispatchProfile {
                generate: EventClassStats { count: 11, nanos: 0 },
                net_tx: EventClassStats { count: 22, nanos: 0 },
                net_delivery: EventClassStats { count: 33, nanos: 0 },
                transport: EventClassStats { count: 44, nanos: 0 },
                impair: EventClassStats { count: 0, nanos: 0 },
            },
            event_log: None,
            hop_series: None,
            impairments: ImpairmentReport {
                link_down_events: 1,
                link_up_events: 1,
                lost_in_flight: 6,
                corrupted: 2,
                cross_injected: 100,
                cross_delivered: 98,
            },
            audit: Some(AuditReport {
                injected: 1100,
                host_delivered: 1090,
                queue_drops: 6,
                wire_lost: 2,
                queued_at_end: 1,
                in_flight_at_end: 1,
                violations: Vec::new(),
            }),
            budget_exceeded: None,
        }
    }

    fn assert_bit_identical(a: &ScenarioReport, b: &ScenarioReport) {
        assert_eq!(a.cov.to_bits(), b.cov.to_bits());
        assert_eq!(a.poisson_cov.to_bits(), b.poisson_cov.to_bits());
        assert_eq!(a.bins, b.bins);
        assert_eq!(a.generated_packets, b.generated_packets);
        assert_eq!(a.delivered_packets, b.delivered_packets);
        assert_eq!(a.loss_percent.to_bits(), b.loss_percent.to_bits());
        assert_eq!(a.bottleneck_queue, b.bottleneck_queue);
        assert_eq!(a.avg_queue_len.to_bits(), b.avg_queue_len.to_bits());
        assert_eq!(a.mean_delay_secs.to_bits(), b.mean_delay_secs.to_bits());
        assert_eq!(a.fairness.to_bits(), b.fairness.to_bits());
        assert_eq!(a.tcp_totals, b.tcp_totals);
        assert_eq!(a.flows.len(), b.flows.len());
        for (fa, fb) in a.flows.iter().zip(&b.flows) {
            assert_eq!(fa.packets_sent, fb.packets_sent);
            assert_eq!(fa.delivered, fb.delivered);
            assert_eq!(fa.mean_delay_secs.to_bits(), fb.mean_delay_secs.to_bits());
            assert_eq!(fa.tcp, fb.tcp);
            assert!(fb.cwnd_trace.is_none());
        }
        assert_eq!(a.duration_secs.to_bits(), b.duration_secs.to_bits());
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.wall_clock_secs.to_bits(), b.wall_clock_secs.to_bits());
        assert_eq!(a.timers, b.timers);
        assert_eq!(a.dispatch, b.dispatch);
        assert_eq!(a.impairments, b.impairments);
        assert_eq!(a.audit, b.audit);
        assert!(b.event_log.is_none());
        assert!(b.budget_exceeded.is_none());
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let report = sample_report();
        let payload = encode(&report).expect("encodable");
        let decoded = decode(&payload).expect("decodes");
        assert_bit_identical(&report, &decoded);
        // Re-encoding the decoded report reproduces the payload bytes.
        assert_eq!(encode(&decoded).expect("encodable"), payload);
    }

    #[test]
    fn real_scenario_round_trips() {
        let cfg = crate::ScenarioBuilder::paper()
            .topology(|t| t.clients(4))
            .instrumentation(|i| i.secs(2).audit(true))
            .finish();
        let report = crate::Scenario::run(&cfg);
        let payload = encode(&report).expect("encodable");
        let decoded = decode(&payload).expect("decodes");
        assert_bit_identical(&report, &decoded);
    }

    #[test]
    fn every_truncation_fails_to_parse() {
        let payload = encode(&sample_report()).expect("encodable");
        for cut in 0..payload.len() {
            assert!(
                decode(&payload[..cut]).is_none(),
                "truncation at byte {cut} decoded"
            );
        }
        // Trailing garbage is rejected too.
        let mut extended = payload.clone();
        extended.push_str("trailing\n");
        assert!(decode(&extended).is_none());
    }

    /// A config with every optional part set: traces, a bin override and
    /// a full impairment schedule on a Waxman graph.
    fn sample_config() -> ScenarioConfig {
        crate::ScenarioBuilder::paper()
            .topology(|t| {
                t.shape(TopoKind::Waxman {
                    nodes: 6,
                    alpha: 0.6,
                    beta: 0.4,
                })
            })
            .workload(|w| w.pareto(ParetoOnOffConfig::default()))
            .transport(|t| t.protocol(crate::Protocol::VegasRed).ecn(true))
            .impairments(|i| {
                i.spec("flap:3s/10s,cap:0.5/5s,delay:2/5s,corrupt:1e-5,cross:500/1000")
                    .expect("a valid spec")
            })
            .instrumentation(|i| {
                i.cov_bin(Some(SimDuration::from_millis(11)))
                    .warmup(SimDuration::from_secs(1))
                    .trace_hops(true)
                    .audit(true)
            })
            .finish()
    }

    #[test]
    fn every_config_truncation_fails_to_parse() {
        let cfg = sample_config();
        let payload = encode_config(&cfg);
        let back = decode_config(&payload).expect("the whole payload decodes");
        assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
        for cut in 0..payload.len() {
            assert!(
                decode_config(&payload[..cut]).is_none(),
                "truncation at byte {cut} decoded"
            );
        }
        assert!(decode_config(&format!("{payload}trailing\n")).is_none());
        assert!(decode_config(&payload.replace(" tcp Vegas ", " tcp Nope ")).is_none());
    }

    #[test]
    fn unencodable_shapes_are_refused() {
        let mut r = sample_report();
        r.budget_exceeded = Some(ExceededBudget::Events);
        assert!(encode(&r).is_none());

        let mut r = sample_report();
        r.audit.as_mut().expect("has audit").violations.push(
            crate::supervise::InvariantViolation {
                invariant: "packet-conservation",
                detail: "off by one".into(),
            },
        );
        assert!(encode(&r).is_none());

        let mut r = sample_report();
        r.flows[0].cwnd_trace = Some(tcpburst_stats::TimeSeries::new());
        assert!(encode(&r).is_none());
    }
}
