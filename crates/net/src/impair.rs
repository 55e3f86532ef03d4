//! Deterministic fault-injection specifications.
//!
//! An [`Impairments`] value describes *what* to perturb — link flaps,
//! capacity and delay variation, wire corruption, background cross-traffic —
//! while the scenario layer above schedules the perturbations as ordinary
//! simulation events. Everything is seed-driven and executes in the event
//! queue's deterministic `(time, seq)` order, so impaired runs stay
//! bit-identical across worker counts.
//!
//! The compact spec grammar (used by the `--impair` CLI flag) is a
//! comma-separated list of clauses:
//!
//! ```text
//! flap:3s/10s          down 3 s, then up 10 s, repeating (first outage
//!                      after one up interval)
//! cap:0.5/5s           bottleneck bandwidth toggles nominal <-> 0.5x
//!                      every 5 s
//! delay:2/5s           bottleneck propagation delay toggles nominal <-> 2x
//!                      every 5 s
//! corrupt:1e-5         per-hop wire corruption probability
//! cross:500/1500       background datagrams into the bottleneck queue:
//!                      Poisson 500 pkt/s of 1500-byte packets (bytes
//!                      optional, default 1500)
//! ```

use std::fmt;

use tcpburst_des::SimDuration;

use crate::packet::FlowId;

/// Flow id reserved for injected background cross-traffic. Never collides
/// with client flows, which are numbered from zero.
pub const CROSS_TRAFFIC_FLOW: FlowId = FlowId(u32::MAX);

/// A repeating link outage: `down` seconds dark, `up` seconds lit.
///
/// The link starts up; the first outage begins after one `up` interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFlap {
    /// Length of each outage.
    pub down: SimDuration,
    /// Length of each lit interval between outages.
    pub up: SimDuration,
}

/// Periodic bottleneck-capacity variation: the rate toggles between nominal
/// and `nominal * factor` every `period`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityVariation {
    /// Multiplier applied during the degraded half-cycle (must be positive).
    pub factor: f64,
    /// Half-cycle length.
    pub period: SimDuration,
}

/// Periodic propagation-delay variation: the delay toggles between nominal
/// and `nominal * factor` every `period`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayVariation {
    /// Multiplier applied during the perturbed half-cycle (must be
    /// non-negative).
    pub factor: f64,
    /// Half-cycle length.
    pub period: SimDuration,
}

/// Background cross-traffic injected straight into the bottleneck queue:
/// Poisson datagram arrivals that compete with the measured flows for
/// buffer and bandwidth but carry no transport feedback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossTraffic {
    /// Mean arrival rate in packets per second (must be positive).
    pub rate_pps: f64,
    /// Size of each injected datagram.
    pub packet_bytes: u32,
}

/// A complete impairment schedule for one scenario.
///
/// The default ([`Impairments::NONE`]) disables everything; the scenario
/// layer schedules no impairment events at all for it, keeping the healthy
/// path zero-overhead.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Impairments {
    /// Repeating bottleneck outages.
    pub flap: Option<LinkFlap>,
    /// Periodic bottleneck-capacity variation.
    pub capacity: Option<CapacityVariation>,
    /// Periodic bottleneck-delay variation.
    pub delay: Option<DelayVariation>,
    /// Per-hop wire corruption probability on every link (0 = never).
    pub corrupt_prob: f64,
    /// Background cross-traffic at the bottleneck.
    pub cross: Option<CrossTraffic>,
}

impl Impairments {
    /// No impairments at all.
    pub const NONE: Impairments = Impairments {
        flap: None,
        capacity: None,
        delay: None,
        corrupt_prob: 0.0,
        cross: None,
    };

    /// True when nothing is impaired (the zero-overhead path).
    pub fn is_none(&self) -> bool {
        self.flap.is_none()
            && self.capacity.is_none()
            && self.delay.is_none()
            && self.corrupt_prob == 0.0
            && self.cross.is_none()
    }

    /// Parses the compact spec grammar (see the module docs), merging the
    /// clauses into a fresh schedule.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause.
    pub fn parse(spec: &str) -> Result<Impairments, String> {
        let mut out = Impairments::NONE;
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once(':')
                .ok_or_else(|| format!("impairment clause `{clause}` needs `key:value`"))?;
            match key {
                "flap" => {
                    let (down, up) = split_pair(value, "flap")?;
                    out.flap = Some(LinkFlap {
                        down: parse_duration(down)?,
                        up: parse_duration(up)?,
                    });
                }
                "cap" => {
                    let (factor, period) = split_pair(value, "cap")?;
                    out.capacity = Some(CapacityVariation {
                        factor: parse_factor(factor)?,
                        period: parse_duration(period)?,
                    });
                }
                "delay" => {
                    let (factor, period) = split_pair(value, "delay")?;
                    out.delay = Some(DelayVariation {
                        factor: parse_factor(factor)?,
                        period: parse_duration(period)?,
                    });
                }
                "corrupt" => {
                    let p: f64 = value
                        .parse()
                        .map_err(|_| format!("corrupt probability `{value}` is not a number"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("corrupt probability {p} must be in [0, 1]"));
                    }
                    out.corrupt_prob = p;
                }
                "cross" => {
                    let (rate, bytes) = match value.split_once('/') {
                        Some((r, b)) => (r, Some(b)),
                        None => (value, None),
                    };
                    let rate_pps: f64 = rate
                        .parse()
                        .map_err(|_| format!("cross rate `{rate}` is not a number"))?;
                    if !(rate_pps > 0.0 && rate_pps.is_finite()) {
                        return Err(format!("cross rate {rate_pps} must be positive"));
                    }
                    let packet_bytes = match bytes {
                        Some(b) => b
                            .parse()
                            .map_err(|_| format!("cross packet size `{b}` is not an integer"))?,
                        None => 1500,
                    };
                    if packet_bytes == 0 {
                        return Err("cross packet size must be positive".into());
                    }
                    out.cross = Some(CrossTraffic { rate_pps, packet_bytes });
                }
                other => {
                    return Err(format!(
                        "unknown impairment `{other}` (expected flap, cap, delay, corrupt, cross)"
                    ))
                }
            }
        }
        out.validate()?;
        Ok(out)
    }

    /// Checks the schedule for values the simulation cannot honor.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(f) = self.flap {
            if f.down.is_zero() || f.up.is_zero() {
                return Err("flap intervals must be positive".into());
            }
        }
        if let Some(c) = self.capacity {
            if !(c.factor > 0.0 && c.factor.is_finite()) {
                return Err(format!("capacity factor {} must be positive", c.factor));
            }
            if c.period.is_zero() {
                return Err("capacity period must be positive".into());
            }
        }
        if let Some(d) = self.delay {
            if !(d.factor >= 0.0 && d.factor.is_finite()) {
                return Err(format!("delay factor {} must be non-negative", d.factor));
            }
            if d.period.is_zero() {
                return Err("delay period must be positive".into());
            }
        }
        if !(0.0..=1.0).contains(&self.corrupt_prob) {
            return Err(format!(
                "corrupt probability {} must be in [0, 1]",
                self.corrupt_prob
            ));
        }
        if let Some(x) = self.cross {
            if !(x.rate_pps > 0.0 && x.rate_pps.is_finite()) {
                return Err(format!("cross rate {} must be positive", x.rate_pps));
            }
            if x.packet_bytes == 0 {
                return Err("cross packet size must be positive".into());
            }
        }
        Ok(())
    }
}

impl fmt::Display for Impairments {
    /// Round-trips through [`Impairments::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        if let Some(flap) = self.flap {
            write!(
                f,
                "flap:{}/{}",
                fmt_duration(flap.down),
                fmt_duration(flap.up)
            )?;
            sep = ",";
        }
        if let Some(c) = self.capacity {
            write!(f, "{sep}cap:{}/{}", c.factor, fmt_duration(c.period))?;
            sep = ",";
        }
        if let Some(d) = self.delay {
            write!(f, "{sep}delay:{}/{}", d.factor, fmt_duration(d.period))?;
            sep = ",";
        }
        if self.corrupt_prob > 0.0 {
            write!(f, "{sep}corrupt:{}", self.corrupt_prob)?;
            sep = ",";
        }
        if let Some(x) = self.cross {
            write!(f, "{sep}cross:{}/{}", x.rate_pps, x.packet_bytes)?;
        }
        Ok(())
    }
}

fn split_pair<'a>(value: &'a str, key: &str) -> Result<(&'a str, &'a str), String> {
    value
        .split_once('/')
        .ok_or_else(|| format!("{key} clause needs `a/b`, got `{value}`"))
}

fn parse_factor(s: &str) -> Result<f64, String> {
    s.parse()
        .map_err(|_| format!("factor `{s}` is not a number"))
}

/// Parses `3s`, `250ms`, `1.5s`, `800us`, `44ns`.
fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let (number, scale_ns) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e9)
    } else {
        return Err(format!("duration `{s}` needs a unit (ns, us, ms, s)"));
    };
    let v: f64 = number
        .parse()
        .map_err(|_| format!("duration `{s}` is not a number"))?;
    if !(v >= 0.0 && v.is_finite()) {
        return Err(format!("duration `{s}` must be non-negative and finite"));
    }
    Ok(SimDuration::from_nanos((v * scale_ns).round() as u64))
}

fn fmt_duration(d: SimDuration) -> String {
    let ns = d.as_nanos();
    if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_none() {
        let i = Impairments::parse("").unwrap();
        assert!(i.is_none());
        assert_eq!(i, Impairments::NONE);
        assert_eq!(Impairments::default(), Impairments::NONE);
    }

    #[test]
    fn full_spec_parses() {
        let i = Impairments::parse("flap:3s/10s,corrupt:1e-5,cap:0.5/5s,delay:2/250ms,cross:500")
            .unwrap();
        assert_eq!(
            i.flap,
            Some(LinkFlap {
                down: SimDuration::from_secs(3),
                up: SimDuration::from_secs(10),
            })
        );
        assert_eq!(i.corrupt_prob, 1e-5);
        let cap = i.capacity.unwrap();
        assert_eq!(cap.factor, 0.5);
        assert_eq!(cap.period, SimDuration::from_secs(5));
        let delay = i.delay.unwrap();
        assert_eq!(delay.factor, 2.0);
        assert_eq!(delay.period, SimDuration::from_millis(250));
        let cross = i.cross.unwrap();
        assert_eq!(cross.rate_pps, 500.0);
        assert_eq!(cross.packet_bytes, 1500);
        assert!(!i.is_none());
    }

    #[test]
    fn fractional_and_small_durations() {
        let i = Impairments::parse("flap:1.5s/500ms").unwrap();
        let f = i.flap.unwrap();
        assert_eq!(f.down, SimDuration::from_millis(1500));
        assert_eq!(f.up, SimDuration::from_millis(500));
    }

    #[test]
    fn cross_takes_optional_packet_size() {
        let i = Impairments::parse("cross:100/576").unwrap();
        assert_eq!(i.cross.unwrap().packet_bytes, 576);
    }

    #[test]
    fn display_round_trips() {
        let spec = "flap:3s/10s,cap:0.5/5s,delay:2/5s,corrupt:0.00001,cross:500/1500";
        let i = Impairments::parse(spec).unwrap();
        let again = Impairments::parse(&i.to_string()).unwrap();
        assert_eq!(i, again);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(Impairments::parse("flap:3s").is_err());
        assert!(Impairments::parse("flap:0s/1s").is_err());
        assert!(Impairments::parse("corrupt:2.0").is_err());
        assert!(Impairments::parse("corrupt:x").is_err());
        assert!(Impairments::parse("cap:-1/5s").is_err());
        assert!(Impairments::parse("cross:0").is_err());
        assert!(Impairments::parse("warp:9").is_err());
        assert!(Impairments::parse("flap:3m/1s").is_err()); // no minutes unit
        assert!(Impairments::parse("flap").is_err());
    }

    #[test]
    fn cross_flow_never_collides_with_clients() {
        assert_eq!(CROSS_TRAFFIC_FLOW, FlowId(u32::MAX));
    }
}
