//! Staged construction of a [`ScenarioConfig`].
//!
//! The builder walks the same order a scenario is physically assembled:
//! **topology** (who is wired to whom) → **workload** (what the
//! applications offer) → **transport** (how the endpoints react) →
//! **impairments** (what goes wrong) → **instrumentation** (what gets
//! measured). Each stage is a short-lived view over the config, entered
//! with a closure:
//!
//! ```
//! use tcpburst_core::{Protocol, Scenario, ScenarioBuilder};
//!
//! let cfg = ScenarioBuilder::paper()
//!     .topology(|t| t.clients(12))
//!     .transport(|t| t.protocol(Protocol::Vegas))
//!     .impairments(|i| i.corrupt(1e-6))
//!     .instrumentation(|i| i.secs(5).seed(7))
//!     .finish();
//! let report = Scenario::run(&cfg);
//! assert!(report.delivered_packets > 0);
//! ```
//!
//! The same stages are the single source of truth for the `tcpburst` CLI:
//! every flag in [`ScenarioBuilder::CLI_FLAGS`] names the stage that owns
//! it, and [`ScenarioBuilder::apply_cli_flag`] dispatches with exactly one
//! match arm per stage. Adding a knob means adding one stage method and one
//! table row — the CLI, its usage text and the programmatic API cannot
//! drift apart.

use tcpburst_des::SimDuration;
use tcpburst_net::{CapacityVariation, CrossTraffic, DelayVariation, Impairments, LinkFlap};
use tcpburst_traffic::ParetoOnOffConfig;
use tcpburst_transport::{
    variant_by_name, variant_spellings, GaimdParams, TcpVariant, VegasParams, VARIANT_REGISTRY,
};

use crate::config::{
    ConfigError, GatewayKind, Protocol, ScenarioConfig, SourceKind, TopoKind, TransportKind,
};

/// Which builder stage owns a CLI flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuilderStage {
    /// Nodes, links and the gateway queue.
    Topology,
    /// The application traffic the clients offer.
    Workload,
    /// Endpoint protocol behaviour.
    Transport,
    /// Deterministic fault injection.
    Impairments,
    /// Run length, seeding and probes.
    Instrumentation,
}

impl BuilderStage {
    /// Human-readable heading used in generated usage text.
    pub fn heading(self) -> &'static str {
        match self {
            BuilderStage::Topology => "topology",
            BuilderStage::Workload => "workload",
            BuilderStage::Transport => "transport",
            BuilderStage::Impairments => "impairments",
            BuilderStage::Instrumentation => "instrumentation",
        }
    }
}

/// One scenario flag the CLI derives from the builder.
#[derive(Debug, Clone, Copy)]
pub struct CliFlag {
    /// The flag as typed, e.g. `--clients`.
    pub name: &'static str,
    /// Metavariable for the value, or `None` for boolean flags.
    pub metavar: Option<&'static str>,
    /// One-line description for the usage text.
    pub help: &'static str,
    /// The stage whose `apply_flag` handles it.
    pub stage: BuilderStage,
}

/// Staged [`ScenarioConfig`] constructor; see the module docs.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    cfg: ScenarioConfig,
}

impl ScenarioBuilder {
    /// Starts from the paper's Table 1 baseline (39 Reno clients through a
    /// FIFO gateway, Poisson workload, 200 simulated seconds).
    pub fn paper() -> Self {
        ScenarioBuilder {
            cfg: ScenarioConfig::paper_default(),
        }
    }

    /// Starts from an existing configuration (e.g. to vary one knob of a
    /// sweep's base scenario).
    pub fn from_config(cfg: ScenarioConfig) -> Self {
        ScenarioBuilder { cfg }
    }

    /// Enters the topology stage: clients, link geometry, gateway queue.
    pub fn topology(
        mut self,
        f: impl for<'a> FnOnce(TopologyStage<'a>) -> TopologyStage<'a>,
    ) -> Self {
        f(TopologyStage { cfg: &mut self.cfg });
        self
    }

    /// Enters the workload stage: what the client applications generate.
    pub fn workload(
        mut self,
        f: impl for<'a> FnOnce(WorkloadStage<'a>) -> WorkloadStage<'a>,
    ) -> Self {
        f(WorkloadStage { cfg: &mut self.cfg });
        self
    }

    /// Enters the transport stage: protocol, windows, ECN.
    pub fn transport(
        mut self,
        f: impl for<'a> FnOnce(TransportStage<'a>) -> TransportStage<'a>,
    ) -> Self {
        f(TransportStage { cfg: &mut self.cfg });
        self
    }

    /// Enters the impairment stage: flaps, corruption, cross-traffic.
    pub fn impairments(
        mut self,
        f: impl for<'a> FnOnce(ImpairmentStage<'a>) -> ImpairmentStage<'a>,
    ) -> Self {
        f(ImpairmentStage { cfg: &mut self.cfg });
        self
    }

    /// Enters the instrumentation stage: duration, seed, probes, backend.
    pub fn instrumentation(
        mut self,
        f: impl for<'a> FnOnce(InstrumentationStage<'a>) -> InstrumentationStage<'a>,
    ) -> Self {
        f(InstrumentationStage { cfg: &mut self.cfg });
        self
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency as a typed [`ConfigError`]
    /// (currently only an invalid impairment schedule can arise, since
    /// stage setters validate eagerly).
    pub fn try_finish(self) -> Result<ScenarioConfig, ConfigError> {
        self.cfg.impair.validate().map_err(ConfigError::Impairments)?;
        self.cfg
            .topology_spec()
            .validate()
            .map_err(ConfigError::Topology)?;
        Ok(self.cfg)
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; use
    /// [`ScenarioBuilder::try_finish`] to handle the error instead.
    pub fn finish(self) -> ScenarioConfig {
        match self.try_finish() {
            Ok(cfg) => cfg,
            Err(e) => panic!("invalid scenario: {e}"),
        }
    }

    /// Every scenario flag the CLI understands, each owned by one stage.
    /// Orchestration flags (`--jobs`, `--seeds`, comma-separated
    /// `--clients` lists) are not scenario configuration and stay in the
    /// CLI proper.
    #[rustfmt::skip]
    pub const CLI_FLAGS: [CliFlag; 17] = [
        CliFlag { name: "--clients", metavar: Some("N"), help: "number of clients M", stage: BuilderStage::Topology },
        CliFlag { name: "--topology", metavar: Some("SPEC"), help: "dumbbell, parking-lot:H,F, incast:N or waxman:N,a,b", stage: BuilderStage::Topology },
        CliFlag { name: "--spread", metavar: Some("F"), help: "heterogeneous-RTT spread factor (0 = paper)", stage: BuilderStage::Topology },
        CliFlag { name: "--buffer", metavar: Some("PKTS"), help: "gateway buffer size B", stage: BuilderStage::Topology },
        CliFlag { name: "--rate", metavar: Some("PPS"), help: "per-client offered load (packets/s)", stage: BuilderStage::Workload },
        CliFlag { name: "--source", metavar: Some("KIND"), help: "workload: poisson, cbr or pareto", stage: BuilderStage::Workload },
        CliFlag { name: "--protocol", metavar: Some("P"), help: "protocol configuration (see PROTOCOLS)", stage: BuilderStage::Transport },
        CliFlag { name: "--variant", metavar: Some("V"), help: "TCP policy only (see the variants list below)", stage: BuilderStage::Transport },
        CliFlag { name: "--window", metavar: Some("PKTS"), help: "TCP max advertised window", stage: BuilderStage::Transport },
        CliFlag { name: "--ecn", metavar: None, help: "negotiate ECN; RED gateways mark, not drop", stage: BuilderStage::Transport },
        CliFlag { name: "--impair", metavar: Some("SPEC"), help: "fault schedule, e.g. flap:3s/10s,corrupt:1e-5", stage: BuilderStage::Impairments },
        CliFlag { name: "--secs", metavar: Some("S"), help: "simulated run length in seconds", stage: BuilderStage::Instrumentation },
        CliFlag { name: "--warmup", metavar: Some("S"), help: "seconds excluded from the c.o.v. probe", stage: BuilderStage::Instrumentation },
        CliFlag { name: "--seed", metavar: Some("K"), help: "master RNG seed", stage: BuilderStage::Instrumentation },
        CliFlag { name: "--trace-events", metavar: None, help: "record the structured event timeline", stage: BuilderStage::Instrumentation },
        CliFlag { name: "--trace-hops", metavar: None, help: "record per-hop queue/utilization series", stage: BuilderStage::Instrumentation },
        CliFlag { name: "--audit", metavar: None, help: "end-of-run invariant audit (conservation, cwnd floor)", stage: BuilderStage::Instrumentation },
    ];

    /// Looks up a flag in [`ScenarioBuilder::CLI_FLAGS`]; the CLI uses this
    /// to decide whether the next argv token is the flag's value.
    pub fn flag_spec(name: &str) -> Option<&'static CliFlag> {
        Self::CLI_FLAGS.iter().find(|f| f.name == name)
    }

    /// Applies one CLI flag to the stage that owns it.
    ///
    /// Returns `Ok(false)` if the flag is not a scenario flag at all (the
    /// caller handles its own orchestration flags then).
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] when the flag is recognized but its
    /// value is missing or malformed.
    pub fn apply_cli_flag(&mut self, flag: &str, value: Option<&str>) -> Result<bool, ConfigError> {
        let Some(spec) = Self::flag_spec(flag) else {
            return Ok(false);
        };
        if spec.metavar.is_some() && value.is_none() {
            return Err(ConfigError::MissingValue(spec.name));
        }
        let v = value.unwrap_or_default();
        // The stages take the table's `&'static` spelling, not the caller's
        // transient `flag`, so errors can carry the flag name by reference.
        let name = spec.name;
        match spec.stage {
            BuilderStage::Topology => TopologyStage { cfg: &mut self.cfg }.apply_flag(name, v)?,
            BuilderStage::Workload => WorkloadStage { cfg: &mut self.cfg }.apply_flag(name, v)?,
            BuilderStage::Transport => TransportStage { cfg: &mut self.cfg }.apply_flag(name, v)?,
            BuilderStage::Impairments => {
                ImpairmentStage { cfg: &mut self.cfg }.apply_flag(name, v)?;
            }
            BuilderStage::Instrumentation => {
                InstrumentationStage { cfg: &mut self.cfg }.apply_flag(name, v)?;
            }
        }
        Ok(true)
    }

    /// Usage lines for every scenario flag, grouped by stage — the CLI
    /// embeds this so the help text can never go stale.
    pub fn cli_help() -> String {
        let mut out = String::new();
        for stage in [
            BuilderStage::Topology,
            BuilderStage::Workload,
            BuilderStage::Transport,
            BuilderStage::Impairments,
            BuilderStage::Instrumentation,
        ] {
            out.push_str("  ");
            out.push_str(stage.heading());
            out.push_str(":\n");
            for f in Self::CLI_FLAGS.iter().filter(|f| f.stage == stage) {
                let left = match f.metavar {
                    Some(m) => format!("{} {m}", f.name),
                    None => f.name.to_string(),
                };
                out.push_str(&format!("    {left:<22} {}\n", f.help));
            }
        }
        // The --variant vocabulary comes straight from the policy
        // registry, so a new congestion-control policy shows up here (and
        // in parse errors) without touching the CLI.
        out.push_str("  variants (--variant):\n");
        for info in &VARIANT_REGISTRY {
            let left = match info.value_syntax {
                Some(syntax) => format!("{}{syntax}", info.name),
                None => info.name.to_string(),
            };
            out.push_str(&format!("    {left:<22} {}\n", info.summary));
        }
        out
    }
}

fn parse_num<T: std::str::FromStr>(flag: &'static str, v: &str) -> Result<T, ConfigError>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| ConfigError::InvalidValue {
        flag,
        reason: format!("{e}"),
    })
}

/// Parses a `--variant` value: a bare policy name, or `gaimd:<alpha>,<beta>`
/// with the Ott–Swanson exponents spelled out.
fn parse_variant(v: &str) -> Result<(TcpVariant, Option<GaimdParams>), ConfigError> {
    const FLAG: &str = "--variant";
    let invalid = |reason: String| ConfigError::InvalidValue { flag: FLAG, reason };
    if let Some(spec) = v.strip_prefix("gaimd:") {
        let (a, b) = spec
            .split_once(',')
            .ok_or_else(|| invalid(format!("expected gaimd:<alpha>,<beta>, got `{v}`")))?;
        let alpha: f64 = a
            .trim()
            .parse()
            .map_err(|e| invalid(format!("alpha: {e}")))?;
        let beta: f64 = b.trim().parse().map_err(|e| invalid(format!("beta: {e}")))?;
        if !(0.0..1.0).contains(&alpha) {
            return Err(invalid(format!("alpha must lie in [0, 1), got {alpha}")));
        }
        if !(beta > 0.0 && beta <= 1.0) {
            return Err(invalid(format!("beta must lie in (0, 1], got {beta}")));
        }
        return Ok((TcpVariant::Gaimd, Some(GaimdParams { alpha, beta })));
    }
    // A bare registry name (for `gaimd` that means the default (0, 1)
    // exponents, i.e. Reno); the suggestion list in the error is generated
    // from the same registry.
    match variant_by_name(v) {
        Some(variant) => Ok((variant, None)),
        None => Err(invalid(format!(
            "unknown variant `{v}` (expected {})",
            variant_spellings()
        ))),
    }
}

/// Topology stage: how many clients, link geometry, the gateway queue.
#[derive(Debug)]
pub struct TopologyStage<'a> {
    cfg: &'a mut ScenarioConfig,
}

impl TopologyStage<'_> {
    /// Number of clients `M`.
    pub fn clients(self, n: usize) -> Self {
        self.cfg.num_clients = n;
        self
    }

    /// The graph shape flows run over (default: the paper's dumbbell).
    ///
    /// Non-dumbbell shapes derive their flow count from the shape itself
    /// ([`ScenarioConfig::num_flows`]), not from [`clients`](Self::clients).
    pub fn shape(self, kind: TopoKind) -> Self {
        self.cfg.topology = kind;
        self
    }

    /// Heterogeneous-RTT spread factor (0 = the paper's homogeneous RTTs).
    pub fn rtt_spread(self, f: f64) -> Self {
        self.cfg.rtt_spread = f;
        self
    }

    /// Gateway buffer size `B` in packets.
    pub fn buffer_pkts(self, pkts: usize) -> Self {
        self.cfg.params.gateway_buffer_pkts = pkts;
        self
    }

    /// Gateway queueing discipline (normally set via
    /// [`TransportStage::protocol`]).
    pub fn gateway(self, kind: GatewayKind) -> Self {
        self.cfg.gateway = kind;
        self
    }

    /// Bottleneck bandwidth `μs` in bits per second.
    pub fn bottleneck_bandwidth_bps(self, bps: u64) -> Self {
        self.cfg.params.bottleneck_bandwidth_bps = bps;
        self
    }

    /// Bottleneck propagation delay `τs`.
    pub fn bottleneck_delay(self, d: SimDuration) -> Self {
        self.cfg.params.bottleneck_delay = d;
        self
    }

    fn apply_flag(self, flag: &'static str, v: &str) -> Result<(), ConfigError> {
        match flag {
            "--clients" => {
                let n = parse_num(flag, v)?;
                self.clients(n);
            }
            "--topology" => {
                let kind: TopoKind = v.parse().map_err(|reason| ConfigError::InvalidValue {
                    flag,
                    reason,
                })?;
                self.shape(kind);
            }
            "--spread" => {
                let f = parse_num(flag, v)?;
                self.rtt_spread(f);
            }
            "--buffer" => {
                let b = parse_num(flag, v)?;
                self.buffer_pkts(b);
            }
            _ => unreachable!("flag table routed {flag} to the topology stage"),
        }
        Ok(())
    }
}

/// Workload stage: what the client applications offer the network.
#[derive(Debug)]
pub struct WorkloadStage<'a> {
    cfg: &'a mut ScenarioConfig,
}

impl WorkloadStage<'_> {
    /// Poisson arrivals at `rate` packets/second (the paper's workload).
    pub fn poisson(self, rate: f64) -> Self {
        self.cfg.source = SourceKind::Poisson { rate };
        self
    }

    /// Deterministic arrivals at `rate` packets/second.
    pub fn cbr(self, rate: f64) -> Self {
        self.cfg.source = SourceKind::Cbr { rate };
        self
    }

    /// Heavy-tailed ON/OFF arrivals.
    pub fn pareto(self, cfg: ParetoOnOffConfig) -> Self {
        self.cfg.source = SourceKind::ParetoOnOff(cfg);
        self
    }

    /// Any [`SourceKind`] directly.
    pub fn source(self, source: SourceKind) -> Self {
        self.cfg.source = source;
        self
    }

    /// Packet size in bytes (Table 1: 1500).
    pub fn packet_bytes(self, bytes: u32) -> Self {
        self.cfg.params.packet_bytes = bytes;
        self
    }

    fn apply_flag(self, flag: &'static str, v: &str) -> Result<(), ConfigError> {
        match flag {
            "--rate" => {
                let rate: f64 = parse_num(flag, v)?;
                self.cfg.source = match self.cfg.source {
                    SourceKind::Cbr { .. } => SourceKind::Cbr { rate },
                    _ => SourceKind::Poisson { rate },
                };
            }
            "--source" => {
                let rate = self.cfg.source.mean_rate();
                self.cfg.source = match v {
                    "poisson" => SourceKind::Poisson { rate },
                    "cbr" => SourceKind::Cbr { rate },
                    "pareto" => SourceKind::ParetoOnOff(ParetoOnOffConfig::default()),
                    other => {
                        return Err(ConfigError::InvalidValue {
                            flag,
                            reason: format!("unknown source: {other}"),
                        })
                    }
                };
            }
            _ => unreachable!("flag table routed {flag} to the workload stage"),
        }
        Ok(())
    }
}

/// Transport stage: how the endpoints react to the network.
#[derive(Debug)]
pub struct TransportStage<'a> {
    cfg: &'a mut ScenarioConfig,
}

impl TransportStage<'_> {
    /// One of the paper's named protocol configurations; sets the
    /// transport, the gateway discipline and delayed ACKs together.
    pub fn protocol(self, p: Protocol) -> Self {
        self.cfg.apply_protocol(p);
        self
    }

    /// TCP max advertised window in packets.
    pub fn advertised_window(self, pkts: u32) -> Self {
        self.cfg.params.advertised_window = pkts;
        self
    }

    /// Receivers delay ACKs.
    pub fn delayed_ack(self, on: bool) -> Self {
        self.cfg.delayed_ack = on;
        self
    }

    /// Vegas `alpha`/`beta`/`gamma` thresholds.
    pub fn vegas(self, params: VegasParams) -> Self {
        self.cfg.vegas = params;
        self
    }

    /// Swaps the TCP congestion-control policy without touching the
    /// gateway discipline or delayed ACKs (unlike
    /// [`protocol`](Self::protocol), which sets all three together).
    pub fn variant(self, v: TcpVariant) -> Self {
        self.cfg.transport = TransportKind::Tcp(v);
        self
    }

    /// Generalized-AIMD `(alpha, beta)` exponents; only consulted when
    /// the variant is [`TcpVariant::Gaimd`].
    pub fn gaimd(self, params: GaimdParams) -> Self {
        self.cfg.gaimd = params;
        self
    }

    /// Negotiate ECN; RED gateways mark instead of early-drop.
    pub fn ecn(self, on: bool) -> Self {
        self.cfg.ecn = on;
        self
    }

    fn apply_flag(self, flag: &'static str, v: &str) -> Result<(), ConfigError> {
        match flag {
            "--protocol" => {
                let p: Protocol = v.parse()?;
                self.protocol(p);
            }
            "--variant" => {
                let (variant, gaimd) = parse_variant(v)?;
                let this = self.variant(variant);
                if let Some(params) = gaimd {
                    this.gaimd(params);
                }
            }
            "--window" => {
                let w = parse_num(flag, v)?;
                self.advertised_window(w);
            }
            "--ecn" => {
                self.ecn(true);
            }
            _ => unreachable!("flag table routed {flag} to the transport stage"),
        }
        Ok(())
    }
}

/// Impairment stage: the deterministic fault schedule.
#[derive(Debug)]
pub struct ImpairmentStage<'a> {
    cfg: &'a mut ScenarioConfig,
}

impl ImpairmentStage<'_> {
    /// Replaces the whole schedule.
    pub fn set(self, impair: Impairments) -> Self {
        self.cfg.impair = impair;
        self
    }

    /// Repeating bottleneck outage: `down` dark, `up` lit.
    pub fn flap(self, down: SimDuration, up: SimDuration) -> Self {
        self.cfg.impair.flap = Some(LinkFlap { down, up });
        self
    }

    /// Bottleneck bandwidth toggles nominal ↔ `factor ×` every `period`.
    pub fn capacity(self, factor: f64, period: SimDuration) -> Self {
        self.cfg.impair.capacity = Some(CapacityVariation { factor, period });
        self
    }

    /// Bottleneck delay toggles nominal ↔ `factor ×` every `period`.
    pub fn delay_variation(self, factor: f64, period: SimDuration) -> Self {
        self.cfg.impair.delay = Some(DelayVariation { factor, period });
        self
    }

    /// Per-hop wire corruption probability on every link.
    pub fn corrupt(self, prob: f64) -> Self {
        self.cfg.impair.corrupt_prob = prob;
        self
    }

    /// Background Poisson cross-traffic at the bottleneck.
    pub fn cross(self, rate_pps: f64, packet_bytes: u32) -> Self {
        self.cfg.impair.cross = Some(CrossTraffic { rate_pps, packet_bytes });
        self
    }

    /// Parses a compact spec string (see [`Impairments::parse`]) and
    /// replaces the schedule with it.
    ///
    /// # Errors
    ///
    /// Returns the first malformed clause as
    /// [`ConfigError::Impairments`].
    pub fn spec(self, spec: &str) -> Result<Self, ConfigError> {
        self.cfg.impair = Impairments::parse(spec).map_err(ConfigError::Impairments)?;
        Ok(self)
    }

    fn apply_flag(self, flag: &'static str, v: &str) -> Result<(), ConfigError> {
        match flag {
            "--impair" => {
                self.spec(v)?;
            }
            _ => unreachable!("flag table routed {flag} to the impairment stage"),
        }
        Ok(())
    }
}

/// Instrumentation stage: run length, seeding, probes, engine backend.
#[derive(Debug)]
pub struct InstrumentationStage<'a> {
    cfg: &'a mut ScenarioConfig,
}

impl InstrumentationStage<'_> {
    /// Simulated run length.
    pub fn duration(self, d: SimDuration) -> Self {
        self.cfg.duration = d;
        self
    }

    /// Simulated run length in whole seconds.
    pub fn secs(self, secs: u64) -> Self {
        self.duration(SimDuration::from_secs(secs))
    }

    /// Initial interval excluded from the c.o.v. probe.
    pub fn warmup(self, d: SimDuration) -> Self {
        self.cfg.warmup = d;
        self
    }

    /// c.o.v. bin width override (`None` = one round-trip propagation
    /// delay, like the paper).
    pub fn cov_bin(self, bin: Option<SimDuration>) -> Self {
        self.cfg.cov_bin = bin;
        self
    }

    /// Master RNG seed.
    pub fn seed(self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Record per-connection congestion-window traces.
    pub fn trace_cwnd(self, on: bool) -> Self {
        self.cfg.trace_cwnd = on;
        self
    }

    /// Record the structured event timeline.
    pub fn trace_events(self, on: bool) -> Self {
        self.cfg.trace_events = on;
        self
    }

    /// Record per-hop queue-occupancy and utilization series along the
    /// topology's bottleneck path (the congestion-wave instrument).
    pub fn trace_hops(self, on: bool) -> Self {
        self.cfg.trace_hops = on;
        self
    }

    /// Run the end-of-run invariant auditor (see
    /// [`ScenarioConfig::audit`]).
    pub fn audit(self, on: bool) -> Self {
        self.cfg.audit = on;
        self
    }

    fn apply_flag(self, flag: &'static str, v: &str) -> Result<(), ConfigError> {
        match flag {
            "--secs" => {
                let s = parse_num(flag, v)?;
                self.secs(s);
            }
            "--warmup" => {
                let s: f64 = parse_num(flag, v)?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(ConfigError::InvalidValue {
                        flag,
                        reason: format!("{s} must be non-negative"),
                    });
                }
                self.warmup(SimDuration::from_nanos((s * 1e9).round() as u64));
            }
            "--seed" => {
                let k = parse_num(flag, v)?;
                self.seed(k);
            }
            "--trace-events" => {
                self.trace_events(true);
            }
            "--trace-hops" => {
                self.trace_hops(true);
            }
            "--audit" => {
                self.audit(true);
            }
            _ => unreachable!("flag table routed {flag} to the instrumentation stage"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_compose_into_one_config() {
        let cfg = ScenarioBuilder::paper()
            .topology(|t| t.clients(25).buffer_pkts(80))
            .workload(|w| w.cbr(50.0))
            .transport(|t| t.protocol(Protocol::VegasRed).ecn(true))
            .impairments(|i| i.flap(SimDuration::from_secs(3), SimDuration::from_secs(10)))
            .instrumentation(|i| i.secs(12).seed(99))
            .finish();
        assert_eq!(cfg.num_clients, 25);
        assert_eq!(cfg.params.gateway_buffer_pkts, 80);
        assert_eq!(cfg.source, SourceKind::Cbr { rate: 50.0 });
        assert_eq!(cfg.gateway, GatewayKind::Red);
        assert!(cfg.ecn);
        assert_eq!(
            cfg.impair.flap,
            Some(LinkFlap {
                down: SimDuration::from_secs(3),
                up: SimDuration::from_secs(10),
            })
        );
        assert_eq!(cfg.duration, SimDuration::from_secs(12));
        assert_eq!(cfg.seed, 99);
    }

    #[test]
    fn untouched_builder_is_the_paper_baseline() {
        let cfg = ScenarioBuilder::paper().finish();
        assert_eq!(cfg, ScenarioConfig::paper_default());
    }

    #[test]
    fn cli_flags_cover_every_stage_and_round_trip() {
        let mut b = ScenarioBuilder::paper();
        assert!(b.apply_cli_flag("--clients", Some("17")).unwrap());
        assert!(b.apply_cli_flag("--rate", Some("55.5")).unwrap());
        assert!(b.apply_cli_flag("--protocol", Some("vegas-red")).unwrap());
        assert!(b.apply_cli_flag("--impair", Some("corrupt:1e-4")).unwrap());
        assert!(b.apply_cli_flag("--secs", Some("7")).unwrap());
        assert!(b.apply_cli_flag("--ecn", None).unwrap());
        assert!(b.apply_cli_flag("--audit", None).unwrap());
        assert!(!b.apply_cli_flag("--jobs", Some("4")).unwrap());
        let cfg = b.finish();
        assert_eq!(cfg.num_clients, 17);
        assert_eq!(cfg.source, SourceKind::Poisson { rate: 55.5 });
        assert_eq!(cfg.gateway, GatewayKind::Red);
        assert_eq!(cfg.impair.corrupt_prob, 1e-4);
        assert_eq!(cfg.duration, SimDuration::from_secs(7));
        assert!(cfg.ecn);
        assert!(cfg.audit);
    }

    #[test]
    fn topology_flag_selects_a_shape_and_bad_specs_fail() {
        let mut b = ScenarioBuilder::paper();
        assert!(b.apply_cli_flag("--topology", Some("parking-lot:5,4")).unwrap());
        assert!(b.apply_cli_flag("--trace-hops", None).unwrap());
        let cfg = b.clone().finish();
        assert_eq!(cfg.topology, TopoKind::ParkingLot { hops: 5, flows_per_hop: 4 });
        assert!(cfg.trace_hops);
        assert_eq!(cfg.num_flows(), 20);
        for bad in ["ring:9", "parking-lot:x", "waxman:3", "incast:"] {
            let err = b.apply_cli_flag("--topology", Some(bad)).unwrap_err();
            assert!(err.to_string().contains("--topology"), "{bad}: {err}");
        }
        // A shape that parses but cannot be built fails at finish time.
        assert!(b.apply_cli_flag("--topology", Some("parking-lot:0,4")).unwrap());
        let err = b.try_finish().unwrap_err();
        assert!(err.to_string().contains("topology"), "{err}");
    }

    #[test]
    fn variant_flag_swaps_policy_without_touching_gateway() {
        let mut b = ScenarioBuilder::paper();
        assert!(b.apply_cli_flag("--protocol", Some("reno-red")).unwrap());
        assert!(b.apply_cli_flag("--variant", Some("gaimd:0.5,0.75")).unwrap());
        let cfg = b.finish();
        assert_eq!(cfg.transport, TransportKind::Tcp(TcpVariant::Gaimd));
        assert_eq!(cfg.gateway, GatewayKind::Red, "--variant must not reset the gateway");
        assert_eq!(cfg.gaimd, GaimdParams { alpha: 0.5, beta: 0.75 });
    }

    #[test]
    fn bare_variant_names_parse_and_bad_specs_fail() {
        let mut b = ScenarioBuilder::paper();
        assert!(b.apply_cli_flag("--variant", Some("vegas")).unwrap());
        assert_eq!(b.clone().finish().transport, TransportKind::Tcp(TcpVariant::Vegas));
        assert!(b.apply_cli_flag("--variant", Some("gaimd")).unwrap());
        let cfg = b.clone().finish();
        assert_eq!(cfg.transport, TransportKind::Tcp(TcpVariant::Gaimd));
        assert_eq!(cfg.gaimd, GaimdParams::default());
        for modern in [
            ("cubic", TcpVariant::Cubic),
            ("hstcp", TcpVariant::Hstcp),
            ("bbr", TcpVariant::Bbr),
        ] {
            assert!(b.apply_cli_flag("--variant", Some(modern.0)).unwrap());
            assert_eq!(b.clone().finish().transport, TransportKind::Tcp(modern.1));
        }
        for bad in ["mosh", "gaimd:0.5", "gaimd:1.5,1", "gaimd:0,0", "gaimd:x,y"] {
            let err = b.apply_cli_flag("--variant", Some(bad)).unwrap_err();
            assert!(err.to_string().contains("--variant"), "{bad}: {err}");
        }
        // The parse error's suggestion list is registry-generated.
        let err = b.apply_cli_flag("--variant", Some("mosh")).unwrap_err();
        let msg = err.to_string();
        for name in ["tahoe", "cubic", "hstcp", "bbr", "gaimd:<alpha>,<beta>"] {
            assert!(msg.contains(name), "suggestions miss {name}: {msg}");
        }
    }

    #[test]
    fn cli_flag_errors_name_the_flag() {
        let mut b = ScenarioBuilder::paper();
        assert!(b
            .apply_cli_flag("--clients", None)
            .unwrap_err()
            .to_string()
            .contains("--clients"));
        assert!(b
            .apply_cli_flag("--clients", Some("x"))
            .unwrap_err()
            .to_string()
            .contains("--clients"));
        assert!(b.apply_cli_flag("--impair", Some("warp:9")).is_err());
    }

    #[test]
    fn invalid_impairments_fail_at_finish() {
        let mut impair = Impairments::NONE;
        impair.corrupt_prob = 7.0;
        let err = ScenarioBuilder::paper()
            .impairments(|i| i.set(impair))
            .try_finish()
            .unwrap_err();
        assert!(err.to_string().contains("corrupt"));
    }

    #[test]
    fn cli_help_lists_every_flag_under_its_stage() {
        let help = ScenarioBuilder::cli_help();
        for f in ScenarioBuilder::CLI_FLAGS {
            assert!(help.contains(f.name), "{} missing from help", f.name);
        }
        for stage in [
            "topology",
            "workload",
            "transport",
            "impairments",
            "instrumentation",
        ] {
            assert!(help.contains(stage), "{stage} heading missing");
        }
    }
}
