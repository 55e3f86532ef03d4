//! Scenario configuration: the reconstructed Table 1 plus every knob the
//! ablation benches turn.

use std::fmt;
use std::str::FromStr;

use tcpburst_des::{QueueBackend, SimDuration};
use tcpburst_net::{
    AdaptiveRedParams, DumbbellConfig, Impairments, QueueSpec, RedParams, TopologyError,
    TopologySpec,
};
use tcpburst_traffic::ParetoOnOffConfig;
use tcpburst_transport::{GaimdParams, TcpConfig, TcpVariant, VegasParams};

/// A configuration or CLI-parsing problem, reported instead of panicking.
///
/// Every fallible path through [`ScenarioBuilder`](crate::ScenarioBuilder)
/// and [`Protocol::from_str`] surfaces one of these variants; the CLI
/// renders them via [`fmt::Display`]. True invariants (a mis-built
/// topology, a UDP scenario asking for a TCP config) stay panics — they
/// are programming errors, not user input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A flag the builder does not recognize.
    UnknownFlag(String),
    /// A flag that requires a value got none.
    MissingValue(&'static str),
    /// A flag's value failed to parse or is out of range.
    InvalidValue {
        /// The flag as typed, e.g. `--clients`.
        flag: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// A protocol name outside the CLI spellings.
    UnknownProtocol(String),
    /// The impairment schedule failed to parse or validate.
    Impairments(String),
    /// The topology spec failed to validate (see [`TopologyError`]).
    Topology(TopologyError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::UnknownFlag(flag) => write!(f, "unknown flag: {flag}"),
            ConfigError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            ConfigError::InvalidValue { flag, reason } => write!(f, "{flag}: {reason}"),
            ConfigError::UnknownProtocol(name) => write!(f, "unknown protocol: {name}"),
            ConfigError::Impairments(reason) => write!(f, "{reason}"),
            ConfigError::Topology(e) => write!(f, "topology: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for String {
    fn from(e: ConfigError) -> String {
        e.to_string()
    }
}

/// The paper's simulation parameters (Table 1), as reconstructed in
/// DESIGN.md. All digits lost to the source transcription were recovered
/// from arithmetic internal to the paper; see the design document for the
/// evidence trail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperParams {
    /// Client access-link bandwidth `μc` (100 Mbps).
    pub client_bandwidth_bps: u64,
    /// Client access-link delay `τc` (2 ms).
    pub client_delay: SimDuration,
    /// Bottleneck bandwidth `μs` (50 Mbps).
    pub bottleneck_bandwidth_bps: u64,
    /// Bottleneck delay `τs` (20 ms).
    pub bottleneck_delay: SimDuration,
    /// TCP max advertised window (20 packets).
    pub advertised_window: u32,
    /// Gateway buffer size `B` (50 packets).
    pub gateway_buffer_pkts: usize,
    /// Packet size (1500 bytes).
    pub packet_bytes: u32,
    /// Mean packet inter-generation time `1/λ` (0.01 s).
    pub mean_intergeneration_secs: f64,
    /// Total test time (200 s).
    pub total_test_secs: u64,
    /// RED minimum threshold (10 packets).
    pub red_min_th: f64,
    /// RED maximum threshold (40 packets).
    pub red_max_th: f64,
}

impl Default for PaperParams {
    fn default() -> Self {
        PaperParams {
            client_bandwidth_bps: 100_000_000,
            client_delay: SimDuration::from_millis(2),
            bottleneck_bandwidth_bps: 50_000_000,
            bottleneck_delay: SimDuration::from_millis(20),
            advertised_window: 20,
            gateway_buffer_pkts: 50,
            packet_bytes: 1500,
            mean_intergeneration_secs: 0.01,
            total_test_secs: 200,
            red_min_th: 10.0,
            red_max_th: 40.0,
        }
    }
}

impl PaperParams {
    /// Round-trip propagation delay `2(τc + τs)` — the c.o.v. bin width.
    pub fn rtprop(&self) -> SimDuration {
        (self.client_delay + self.bottleneck_delay) * 2
    }

    /// Per-client offered load in packets/second (`λ = 100`).
    pub fn lambda(&self) -> f64 {
        1.0 / self.mean_intergeneration_secs
    }

    /// The bottleneck's capacity in packets/second, ignoring header
    /// overhead: 4166.7 pkt/s, which puts the onset of persistent congestion
    /// around 41.7 offered-load clients — with TCP's retransmission and
    /// burst overhead this lands at the paper's crossover "between 38 and
    /// 39 clients".
    pub fn bottleneck_pkts_per_sec(&self) -> f64 {
        self.bottleneck_bandwidth_bps as f64 / (f64::from(self.packet_bytes) * 8.0)
    }
}

/// Which transport the clients run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// UDP: packets forwarded with no feedback.
    Udp,
    /// TCP with the given congestion-control variant.
    Tcp(TcpVariant),
}

/// Which queueing discipline the gateway runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatewayKind {
    /// Drop-tail FIFO.
    Fifo,
    /// Random early detection.
    Red,
    /// Self-configuring RED (adaptive `max_p`; the paper's reference \[5\]).
    AdaptiveRed,
}

/// What the client applications generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceKind {
    /// Poisson arrivals at `rate` packets/second (the paper's workload).
    Poisson {
        /// Packets per second.
        rate: f64,
    },
    /// Deterministic arrivals at `rate` packets/second.
    Cbr {
        /// Packets per second.
        rate: f64,
    },
    /// Heavy-tailed ON/OFF arrivals.
    ParetoOnOff(ParetoOnOffConfig),
}

impl SourceKind {
    /// Long-run packets/second.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            SourceKind::Poisson { rate } | SourceKind::Cbr { rate } => rate,
            SourceKind::ParetoOnOff(cfg) => cfg.mean_rate(),
        }
    }
}

/// Which network shape the scenario builds (expanded to a
/// [`TopologySpec`] by [`ScenarioConfig::topology_spec`]). All link
/// parameters — bandwidths, delays, the gateway queue — come from
/// [`PaperParams`] and the gateway/seed knobs; this enum only picks the
/// graph shape and its dimensions.
///
/// For every shape except the dumbbell the flow count is determined by the
/// shape itself ([`ScenarioConfig::num_flows`]), and `num_clients` is
/// ignored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopoKind {
    /// The paper's Figure-1 dumbbell with `num_clients` clients.
    Dumbbell,
    /// Chain of `hops` bottleneck links with `flows_per_hop` flows
    /// entering at each chain router (CLI: `parking-lot:HOPS,FLOWS`).
    ParkingLot {
        /// Number of chain (bottleneck) links.
        hops: usize,
        /// Flows entering at each chain router.
        flows_per_hop: usize,
    },
    /// Datacenter fan-in of `fanin` senders onto one receiver link
    /// (CLI: `incast:FANIN`).
    Incast {
        /// Number of simultaneous senders.
        fanin: usize,
    },
    /// Seeded Waxman random graph of `nodes` sites
    /// (CLI: `waxman:NODES,ALPHA,BETA`).
    Waxman {
        /// Number of router sites (each with one attached host and flow).
        nodes: usize,
        /// Edge-probability ceiling in `(0, 1]`.
        alpha: f64,
        /// Distance-decay scale; positive.
        beta: f64,
    },
}

impl TopoKind {
    /// The CLI spelling this value parses back from
    /// (`TopoKind::from_str`), e.g. `parking-lot:5,4`.
    pub fn cli_spec(&self) -> String {
        match *self {
            TopoKind::Dumbbell => "dumbbell".to_string(),
            TopoKind::ParkingLot {
                hops,
                flows_per_hop,
            } => format!("parking-lot:{hops},{flows_per_hop}"),
            TopoKind::Incast { fanin } => format!("incast:{fanin}"),
            TopoKind::Waxman { nodes, alpha, beta } => {
                format!("waxman:{nodes},{alpha},{beta}")
            }
        }
    }
}

impl FromStr for TopoKind {
    type Err = String;

    /// Parses the CLI spelling: `dumbbell`, `parking-lot:HOPS,FLOWS`,
    /// `incast:FANIN`, or `waxman:NODES,ALPHA,BETA`.
    fn from_str(s: &str) -> Result<Self, String> {
        let (name, args) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        fn split(args: Option<&str>, n: usize, shape: &str) -> Result<Vec<String>, String> {
            let args = args.ok_or_else(|| format!("{shape} needs {n} parameter(s)"))?;
            let parts: Vec<String> = args.split(',').map(str::to_string).collect();
            if parts.len() != n {
                return Err(format!(
                    "{shape} needs {n} parameter(s), got {}",
                    parts.len()
                ));
            }
            Ok(parts)
        }
        fn num<T: FromStr>(part: &str, what: &str) -> Result<T, String>
        where
            T::Err: fmt::Display,
        {
            part.trim()
                .parse()
                .map_err(|e| format!("{what} {part:?}: {e}"))
        }
        match name {
            "dumbbell" => {
                if args.is_some() {
                    return Err("dumbbell takes no parameters".into());
                }
                Ok(TopoKind::Dumbbell)
            }
            "parking-lot" => {
                let p = split(args, 2, "parking-lot")?;
                Ok(TopoKind::ParkingLot {
                    hops: num(&p[0], "hops")?,
                    flows_per_hop: num(&p[1], "flows per hop")?,
                })
            }
            "incast" => {
                let p = split(args, 1, "incast")?;
                Ok(TopoKind::Incast {
                    fanin: num(&p[0], "fan-in")?,
                })
            }
            "waxman" => {
                let p = split(args, 3, "waxman")?;
                Ok(TopoKind::Waxman {
                    nodes: num(&p[0], "nodes")?,
                    alpha: num(&p[1], "alpha")?,
                    beta: num(&p[2], "beta")?,
                })
            }
            other => Err(format!(
                "unknown topology {other:?} (expected dumbbell, parking-lot, incast or waxman)"
            )),
        }
    }
}

/// The paper's protocol configurations, exactly as labelled in Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// UDP through a FIFO gateway.
    Udp,
    /// TCP Reno through a FIFO gateway.
    Reno,
    /// TCP Reno through a RED gateway.
    RenoRed,
    /// TCP Vegas through a FIFO gateway.
    Vegas,
    /// TCP Vegas through a RED gateway.
    VegasRed,
    /// TCP Reno with delayed ACKs through a FIFO gateway.
    RenoDelayAck,
    /// TCP Tahoe through a FIFO gateway (baseline, not in the paper's set).
    Tahoe,
    /// TCP NewReno through a FIFO gateway (baseline, not in the paper's
    /// set).
    NewReno,
    /// TCP with selective acknowledgments through a FIFO gateway (baseline,
    /// not in the paper's set).
    Sack,
    /// Ott–Swanson generalized AIMD through a FIFO gateway (extension
    /// beyond the paper; the `(alpha, beta)` exponents live in
    /// [`ScenarioConfig::gaimd`]).
    Gaimd,
    /// TCP Cubic (RFC 8312) through a FIFO gateway (modern-stack
    /// extension beyond the paper).
    Cubic,
    /// HighSpeed TCP (RFC 3649, Westwood loss response) through a FIFO
    /// gateway (modern-stack extension beyond the paper).
    Hstcp,
    /// BBR-lite (paced, model-based) through a FIFO gateway
    /// (modern-stack extension beyond the paper).
    Bbr,
}

impl Protocol {
    /// The figure legends' protocol set, in the paper's order.
    pub const PAPER_SET: [Protocol; 6] = [
        Protocol::Udp,
        Protocol::Reno,
        Protocol::RenoRed,
        Protocol::Vegas,
        Protocol::VegasRed,
        Protocol::RenoDelayAck,
    ];

    /// The TCP-only set used by Figures 3, 4 and 13.
    pub const PAPER_TCP_SET: [Protocol; 5] = [
        Protocol::Reno,
        Protocol::RenoRed,
        Protocol::Vegas,
        Protocol::VegasRed,
        Protocol::RenoDelayAck,
    ];

    /// The label used in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Udp => "UDP",
            Protocol::Reno => "Reno",
            Protocol::RenoRed => "Reno/RED",
            Protocol::Vegas => "Vegas",
            Protocol::VegasRed => "Vegas/RED",
            Protocol::RenoDelayAck => "Reno/DelayAck",
            Protocol::Tahoe => "Tahoe",
            Protocol::NewReno => "NewReno",
            Protocol::Sack => "SACK",
            Protocol::Gaimd => "GAIMD",
            Protocol::Cubic => "Cubic",
            Protocol::Hstcp => "HSTCP",
            Protocol::Bbr => "BBR",
        }
    }

    /// The CLI spelling of this protocol — the exact string
    /// [`Protocol::from_str`] accepts, so it round-trips through run
    /// journals and scripts (unlike [`Protocol::label`], whose `Reno/RED`
    /// style does not parse back).
    pub fn cli_name(self) -> &'static str {
        match self {
            Protocol::Udp => "udp",
            Protocol::Reno => "reno",
            Protocol::RenoRed => "reno-red",
            Protocol::Vegas => "vegas",
            Protocol::VegasRed => "vegas-red",
            Protocol::RenoDelayAck => "reno-delayack",
            Protocol::Tahoe => "tahoe",
            Protocol::NewReno => "newreno",
            Protocol::Sack => "sack",
            Protocol::Gaimd => "gaimd",
            Protocol::Cubic => "cubic",
            Protocol::Hstcp => "hstcp",
            Protocol::Bbr => "bbr",
        }
    }

    /// The transport this protocol runs.
    pub fn transport(self) -> TransportKind {
        match self {
            Protocol::Udp => TransportKind::Udp,
            Protocol::Reno | Protocol::RenoRed | Protocol::RenoDelayAck => {
                TransportKind::Tcp(TcpVariant::Reno)
            }
            Protocol::Vegas | Protocol::VegasRed => TransportKind::Tcp(TcpVariant::Vegas),
            Protocol::Tahoe => TransportKind::Tcp(TcpVariant::Tahoe),
            Protocol::NewReno => TransportKind::Tcp(TcpVariant::NewReno),
            Protocol::Sack => TransportKind::Tcp(TcpVariant::Sack),
            Protocol::Gaimd => TransportKind::Tcp(TcpVariant::Gaimd),
            Protocol::Cubic => TransportKind::Tcp(TcpVariant::Cubic),
            Protocol::Hstcp => TransportKind::Tcp(TcpVariant::Hstcp),
            Protocol::Bbr => TransportKind::Tcp(TcpVariant::Bbr),
        }
    }

    /// The gateway discipline this protocol is paired with.
    pub fn gateway(self) -> GatewayKind {
        match self {
            Protocol::RenoRed | Protocol::VegasRed => GatewayKind::Red,
            _ => GatewayKind::Fifo,
        }
    }

    /// Whether the receivers delay ACKs.
    pub fn delayed_ack(self) -> bool {
        self == Protocol::RenoDelayAck
    }
}

impl FromStr for Protocol {
    type Err = ConfigError;

    /// Parses the CLI spelling: `udp`, `reno`, `reno-red`, `vegas`,
    /// `vegas-red`, `reno-delayack`, `tahoe`, `newreno`, `sack`, `gaimd`,
    /// `cubic`, `hstcp`, `bbr`.
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        Ok(match name {
            "udp" => Protocol::Udp,
            "reno" => Protocol::Reno,
            "reno-red" => Protocol::RenoRed,
            "vegas" => Protocol::Vegas,
            "vegas-red" => Protocol::VegasRed,
            "reno-delayack" => Protocol::RenoDelayAck,
            "tahoe" => Protocol::Tahoe,
            "newreno" => Protocol::NewReno,
            "sack" => Protocol::Sack,
            "gaimd" => Protocol::Gaimd,
            "cubic" => Protocol::Cubic,
            "hstcp" => Protocol::Hstcp,
            "bbr" => Protocol::Bbr,
            other => return Err(ConfigError::UnknownProtocol(other.to_string())),
        })
    }
}

/// Full configuration of one simulation run.
///
/// The `Debug` rendering of this struct is a stable serialization the
/// harness depends on: it feeds the content-addressed store digest
/// ([`crate::store::point_digest`]) and the sweep journal's identity
/// check. Renaming or reordering fields therefore (correctly) invalidates
/// every cached result — any field change can change simulation output —
/// but gratuitous churn here has a real cache-eviction cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Number of clients `M` (dumbbell only; other topologies fix their
    /// own flow count — see [`ScenarioConfig::num_flows`]).
    pub num_clients: usize,
    /// Which network shape to build.
    pub topology: TopoKind,
    /// Transport under test.
    pub transport: TransportKind,
    /// Gateway discipline.
    pub gateway: GatewayKind,
    /// Receivers delay ACKs.
    pub delayed_ack: bool,
    /// Application workload.
    pub source: SourceKind,
    /// Physical parameters (Table 1).
    pub params: PaperParams,
    /// Vegas thresholds.
    pub vegas: VegasParams,
    /// Generalized-AIMD exponents (used when the transport is
    /// [`TcpVariant::Gaimd`]; ignored otherwise).
    pub gaimd: GaimdParams,
    /// RED `max_p` (thresholds come from [`PaperParams`]).
    pub red_max_p: f64,
    /// RED EWMA weight.
    pub red_weight: f64,
    /// Adaptation knobs when [`GatewayKind::AdaptiveRed`] is selected.
    pub adaptive_red: AdaptiveRedParams,
    /// Negotiate ECN on every TCP connection and let RED gateways mark
    /// instead of early-drop (extension beyond the paper; off by default).
    pub ecn: bool,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Initial interval excluded from the c.o.v. probe (0 = measure
    /// everything, like the paper).
    pub warmup: SimDuration,
    /// c.o.v. bin width; `None` means one round-trip propagation delay.
    pub cov_bin: Option<SimDuration>,
    /// Heterogeneous-RTT factor (see
    /// [`DumbbellConfig::client_delay_spread`]); 0 in the paper.
    pub rtt_spread: f64,
    /// Master seed; per-client streams are derived from it.
    pub seed: u64,
    /// Deterministic fault-injection schedule; [`Impairments::NONE`] (the
    /// default) schedules nothing and keeps the healthy path zero-overhead.
    pub impair: Impairments,
    /// Which data structure backs the future-event list. Both backends
    /// produce bit-identical simulation output (same `(time, seq)` total
    /// order); [`QueueBackend::BinaryHeap`] exists for A/B benchmarking
    /// against the calendar queue.
    pub queue: QueueBackend,
    /// Record per-connection congestion-window traces (Figures 5–12).
    pub trace_cwnd: bool,
    /// Record a structured event timeline (drops, timeouts, fast
    /// retransmits, ECN cuts); capped at [`ScenarioConfig::EVENT_LOG_CAP`]
    /// entries.
    pub trace_events: bool,
    /// Record per-hop queue-occupancy and utilization time series for
    /// every instrumented bottleneck hop, sampled once per c.o.v. bin —
    /// the congestion-wave probe. Off by default; no sampling events are
    /// scheduled when disabled.
    pub trace_hops: bool,
    /// Run the end-of-run invariant auditor: packet conservation across
    /// every queue and wire, non-negative occupancy, monotone clock,
    /// cwnd ≥ 1 MSS. Violations land in
    /// [`ScenarioReport::audit`](crate::ScenarioReport) as structured
    /// counters. Off by default — the audited run loop tracks clock
    /// monotonicity, which the zero-overhead hot path skips.
    pub audit: bool,
}

impl ScenarioConfig {
    /// Maximum number of entries an event log keeps (further events are
    /// counted but not stored).
    pub const EVENT_LOG_CAP: usize = 200_000;

    /// The paper's full Table 1 baseline: 39 Reno clients, FIFO gateway,
    /// Poisson workload, 200 simulated seconds. The builder's starting
    /// point.
    pub(crate) fn paper_default() -> Self {
        let params = PaperParams::default();
        ScenarioConfig {
            num_clients: 39,
            topology: TopoKind::Dumbbell,
            transport: Protocol::Reno.transport(),
            gateway: Protocol::Reno.gateway(),
            delayed_ack: Protocol::Reno.delayed_ack(),
            source: SourceKind::Poisson {
                rate: params.lambda(),
            },
            params,
            vegas: VegasParams::default(),
            gaimd: GaimdParams::default(),
            red_max_p: 0.1,
            red_weight: 0.002,
            adaptive_red: AdaptiveRedParams::default(),
            ecn: false,
            duration: SimDuration::from_secs(params.total_test_secs),
            warmup: SimDuration::ZERO,
            cov_bin: None,
            rtt_spread: 0.0,
            seed: 0x1CDC_2000,
            impair: Impairments::NONE,
            queue: QueueBackend::Calendar,
            trace_cwnd: false,
            trace_events: false,
            trace_hops: false,
            audit: false,
        }
    }

    /// Sets the transport, gateway and delayed-ACK knobs from one of the
    /// paper's named protocol configurations.
    pub(crate) fn apply_protocol(&mut self, protocol: Protocol) {
        self.transport = protocol.transport();
        self.gateway = protocol.gateway();
        self.delayed_ack = protocol.delayed_ack();
    }

    /// The c.o.v. bin width in effect (explicit override or the round-trip
    /// propagation delay).
    pub fn cov_bin_width(&self) -> SimDuration {
        self.cov_bin.unwrap_or_else(|| self.params.rtprop())
    }

    /// Pre-sizing hint for the scheduler's future-event list.
    ///
    /// Concurrently pending events scale with the number of clients: per
    /// flow there is at most one generation event, one RTO and one
    /// delayed-ACK timer, plus a handful of in-flight link events bounded
    /// by the advertised window. A window's worth of slack per client
    /// plus a fixed floor covers the steady state without reallocation;
    /// being a hint, a miss only costs the heap doublings it costs today.
    pub fn event_list_capacity(&self) -> usize {
        64 + self.num_flows() * (self.params.advertised_window as usize + 4)
    }

    /// Number of traffic flows this scenario runs: `num_clients` on the
    /// dumbbell, the shape's own count everywhere else.
    pub fn num_flows(&self) -> usize {
        match self.topology {
            TopoKind::Dumbbell => self.num_clients,
            TopoKind::ParkingLot {
                hops,
                flows_per_hop,
            } => hops * flows_per_hop,
            TopoKind::Incast { fanin } => fanin,
            TopoKind::Waxman { nodes, .. } => nodes,
        }
    }

    /// The buildable topology spec for this scenario:
    /// [`ScenarioConfig::topology`] expanded with the dumbbell's link
    /// parameters as the shared base.
    pub fn topology_spec(&self) -> TopologySpec {
        let base = self.dumbbell_config();
        match self.topology {
            TopoKind::Dumbbell => TopologySpec::Dumbbell(base),
            TopoKind::ParkingLot {
                hops,
                flows_per_hop,
            } => TopologySpec::ParkingLot {
                base,
                hops,
                flows_per_hop,
            },
            TopoKind::Incast { fanin } => TopologySpec::Incast { base, fanin },
            TopoKind::Waxman { nodes, alpha, beta } => TopologySpec::Waxman {
                base,
                nodes,
                alpha,
                beta,
            },
        }
    }

    /// The RED parameters assembled from this configuration.
    pub fn red_params(&self) -> RedParams {
        RedParams {
            min_th: self.params.red_min_th,
            max_th: self.params.red_max_th,
            max_p: self.red_max_p,
            weight: self.red_weight,
            capacity: self.params.gateway_buffer_pkts,
            mean_pkt_time_secs: f64::from(self.params.packet_bytes) * 8.0
                / self.params.bottleneck_bandwidth_bps as f64,
            ecn_marking: self.ecn,
        }
    }

    /// The dumbbell link parameters every topology spec starts from.
    fn dumbbell_config(&self) -> DumbbellConfig {
        DumbbellConfig {
            num_clients: self.num_clients,
            client_bandwidth_bps: self.params.client_bandwidth_bps,
            client_delay: self.params.client_delay,
            client_delay_spread: self.rtt_spread,
            bottleneck_bandwidth_bps: self.params.bottleneck_bandwidth_bps,
            bottleneck_delay: self.params.bottleneck_delay,
            gateway_queue: match self.gateway {
                GatewayKind::Fifo => QueueSpec::DropTail {
                    capacity: self.params.gateway_buffer_pkts,
                },
                GatewayKind::Red => QueueSpec::Red(self.red_params()),
                GatewayKind::AdaptiveRed => {
                    QueueSpec::AdaptiveRed(self.red_params(), self.adaptive_red)
                }
            },
            access_queue_capacity: 1_000,
            seed: self.seed,
        }
    }

    /// The per-connection TCP configuration for this scenario.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's transport is UDP.
    pub fn tcp_config(&self) -> TcpConfig {
        let TransportKind::Tcp(variant) = self.transport else {
            panic!("scenario transport is UDP; no TCP config applies");
        };
        let mut cfg = TcpConfig::paper(variant);
        cfg.mss_bytes = self.params.packet_bytes;
        cfg.advertised_window = self.params.advertised_window;
        cfg.delayed_ack = self.delayed_ack;
        cfg.vegas = self.vegas;
        cfg.gaimd = self.gaimd;
        cfg.trace_cwnd = self.trace_cwnd;
        cfg.ecn = self.ecn;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_reconstruction_is_consistent() {
        let p = PaperParams::default();
        assert_eq!(p.rtprop(), SimDuration::from_millis(44));
        assert_eq!(p.lambda(), 100.0);
        assert!((p.bottleneck_pkts_per_sec() - 4166.7).abs() < 0.1);
        // Raw crossover: offered load equals raw capacity at ~41.7 clients;
        // TCP overhead brings the onset of persistent congestion to the
        // paper's "between 38 and 39 clients".
        let crossover = p.bottleneck_pkts_per_sec() / p.lambda();
        assert!((40.0..43.0).contains(&crossover));
    }

    #[test]
    fn protocol_table_matches_figure_legends() {
        assert_eq!(Protocol::PAPER_SET.len(), 6);
        assert_eq!(Protocol::Reno.label(), "Reno");
        assert_eq!(Protocol::VegasRed.gateway(), GatewayKind::Red);
        assert_eq!(Protocol::Vegas.gateway(), GatewayKind::Fifo);
        assert!(Protocol::RenoDelayAck.delayed_ack());
        assert!(!Protocol::Reno.delayed_ack());
        assert_eq!(Protocol::Udp.transport(), TransportKind::Udp);
        assert_eq!(
            Protocol::RenoRed.transport(),
            TransportKind::Tcp(TcpVariant::Reno)
        );
    }

    #[test]
    fn protocols_parse_from_cli_spellings() {
        assert_eq!("reno".parse::<Protocol>(), Ok(Protocol::Reno));
        assert_eq!("vegas-red".parse::<Protocol>(), Ok(Protocol::VegasRed));
        assert_eq!("reno-delayack".parse::<Protocol>(), Ok(Protocol::RenoDelayAck));
        assert_eq!("cubic".parse::<Protocol>(), Ok(Protocol::Cubic));
        assert_eq!("bbr".parse::<Protocol>(), Ok(Protocol::Bbr));
        assert_eq!(
            "mosh".parse::<Protocol>(),
            Err(ConfigError::UnknownProtocol("mosh".into()))
        );
    }

    #[test]
    fn cli_names_round_trip_through_from_str() {
        for p in [
            Protocol::Udp,
            Protocol::Reno,
            Protocol::RenoRed,
            Protocol::Vegas,
            Protocol::VegasRed,
            Protocol::RenoDelayAck,
            Protocol::Tahoe,
            Protocol::NewReno,
            Protocol::Sack,
            Protocol::Gaimd,
            Protocol::Cubic,
            Protocol::Hstcp,
            Protocol::Bbr,
        ] {
            assert_eq!(p.cli_name().parse::<Protocol>(), Ok(p));
        }
    }

    #[test]
    fn config_errors_render_the_offending_input() {
        let e = ConfigError::InvalidValue {
            flag: "--clients",
            reason: "invalid digit".into(),
        };
        assert!(e.to_string().contains("--clients"));
        assert!(ConfigError::MissingValue("--seed").to_string().contains("--seed"));
        let s: String = ConfigError::UnknownProtocol("mosh".into()).into();
        assert!(s.contains("mosh"));
    }

    #[test]
    fn scenario_config_derives_consistent_pieces() {
        let mut cfg = ScenarioConfig::paper_default();
        cfg.num_clients = 38;
        cfg.apply_protocol(Protocol::RenoRed);
        assert_eq!(cfg.cov_bin_width(), SimDuration::from_millis(44));
        let red = cfg.red_params();
        assert_eq!(red.min_th, 10.0);
        assert_eq!(red.max_th, 40.0);
        assert_eq!(red.capacity, 50);
        let db = cfg.dumbbell_config();
        assert_eq!(db.num_clients, 38);
        assert!(matches!(db.gateway_queue, QueueSpec::Red(_)));
        let tcp = cfg.tcp_config();
        assert_eq!(tcp.mss_bytes, 1500);
        assert_eq!(tcp.advertised_window, 20);
    }

    #[test]
    #[should_panic(expected = "transport is UDP")]
    fn udp_scenario_has_no_tcp_config() {
        let mut cfg = ScenarioConfig::paper_default();
        cfg.apply_protocol(Protocol::Udp);
        cfg.tcp_config();
    }

    #[test]
    fn topo_kinds_parse_and_round_trip() {
        for spec in ["dumbbell", "parking-lot:5,4", "incast:16", "waxman:8,0.6,0.4"] {
            let kind: TopoKind = spec.parse().expect("parses");
            assert_eq!(kind.cli_spec(), spec);
        }
        assert!("parking-lot".parse::<TopoKind>().is_err());
        assert!("parking-lot:5".parse::<TopoKind>().is_err());
        assert!("dumbbell:3".parse::<TopoKind>().is_err());
        assert!("ring:4".parse::<TopoKind>().is_err());
        assert!("incast:x".parse::<TopoKind>().is_err());
    }

    #[test]
    fn num_flows_follows_the_topology() {
        let mut cfg = ScenarioConfig::paper_default();
        assert_eq!(cfg.num_flows(), 39);
        cfg.topology = TopoKind::ParkingLot {
            hops: 5,
            flows_per_hop: 4,
        };
        assert_eq!(cfg.num_flows(), 20);
        cfg.topology = TopoKind::Incast { fanin: 7 };
        assert_eq!(cfg.num_flows(), 7);
        cfg.topology = TopoKind::Waxman {
            nodes: 6,
            alpha: 0.5,
            beta: 0.5,
        };
        assert_eq!(cfg.num_flows(), 6);
        assert!(cfg.topology_spec().validate().is_ok());
    }

    #[test]
    fn source_kinds_report_mean_rate() {
        assert_eq!(SourceKind::Poisson { rate: 10.0 }.mean_rate(), 10.0);
        assert_eq!(SourceKind::Cbr { rate: 5.0 }.mean_rate(), 5.0);
        let pareto = SourceKind::ParetoOnOff(ParetoOnOffConfig::default());
        assert!((pareto.mean_rate() - 10.0).abs() < 1e-9);
    }
}
