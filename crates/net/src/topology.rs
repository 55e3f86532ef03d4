//! Topologies: a generic graph builder with computed routing, the paper's
//! dumbbell (Figure 1) expressed on top of it, and a family of
//! multi-bottleneck specs — parking-lot chains, incast fan-in, and seeded
//! Waxman random graphs.

use tcpburst_des::{SimDuration, SimRng};

use crate::adaptive::{AdaptiveRedParams, SelfConfiguringRed};
use crate::network::Network;
use crate::packet::{LinkId, NodeId};
use crate::queue::{AnyQueue, DropTailQueue, RedParams, RedQueue};

/// Which queueing discipline guards a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueSpec {
    /// Bounded FIFO with tail drop.
    DropTail {
        /// Buffer size in packets.
        capacity: usize,
    },
    /// Random early detection.
    Red(RedParams),
    /// Self-configuring RED (adaptive `max_p`).
    AdaptiveRed(RedParams, AdaptiveRedParams),
}

impl QueueSpec {
    /// Instantiates the queue (RED queues derive their marking RNG from
    /// `seed`).
    pub(crate) fn build(self, seed: u64) -> AnyQueue {
        match self {
            QueueSpec::DropTail { capacity } => DropTailQueue::new(capacity).into(),
            QueueSpec::Red(params) => RedQueue::new(params, seed).into(),
            QueueSpec::AdaptiveRed(red, adapt) => {
                SelfConfiguringRed::new(red, adapt, seed).into()
            }
        }
    }
}

/// Why a topology cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The spec declares no traffic flows (zero clients, zero fan-in, an
    /// empty chain, ...).
    NoFlows,
    /// The heterogeneous-RTT spread is negative or not finite.
    InvalidSpread,
    /// A numeric parameter is out of range.
    InvalidParam {
        /// Which parameter.
        what: &'static str,
        /// What is wrong with it.
        reason: String,
    },
    /// A declared flow's endpoints are not mutually reachable under the
    /// computed routes.
    Unreachable {
        /// Flow source.
        src: NodeId,
        /// Flow destination.
        dst: NodeId,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::NoFlows => write!(f, "topology declares no flows"),
            TopologyError::InvalidSpread => {
                write!(f, "delay spread must be non-negative and finite")
            }
            TopologyError::InvalidParam { what, reason } => {
                write!(f, "invalid {what}: {reason}")
            }
            TopologyError::Unreachable { src, dst } => {
                write!(f, "flow {src:?} -> {dst:?} is not mutually reachable")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Incremental graph builder over [`Network`].
///
/// Wraps the raw node/link arena with typed validation ([`TopologyError`]
/// instead of panics) and computed routing: build the graph with
/// [`Topology::add_host`] / [`Topology::add_router`] / [`Topology::add_link`],
/// then call [`Topology::compute_routes`] once and every node's flat
/// `routes[node][dst]` table holds a minimum-hop path. Queues are described
/// by [`QueueSpec`] and instantiated with the builder's seed, so randomized
/// disciplines (RED) stay reproducible.
///
/// # Example
///
/// ```
/// use tcpburst_des::SimDuration;
/// use tcpburst_net::{route_path_len, QueueSpec, Topology};
///
/// let mut t = Topology::new(0);
/// let a = t.add_host();
/// let r = t.add_router();
/// let b = t.add_host();
/// let q = QueueSpec::DropTail { capacity: 10 };
/// t.add_link(a, r, 1_000_000, SimDuration::from_millis(1), q).expect("a->r");
/// t.add_link(r, b, 1_000_000, SimDuration::from_millis(1), q).expect("r->b");
/// t.compute_routes();
/// let net = t.into_network();
/// assert_eq!(route_path_len(&net, a, b), Some(2));
/// assert_eq!(route_path_len(&net, b, a), None); // no return links
/// ```
#[derive(Debug)]
pub struct Topology {
    network: Network,
    seed: u64,
    /// `(from, to)` per link, mirrored so route computation does not have
    /// to re-ask the network on every relaxation round.
    ends: Vec<(NodeId, NodeId)>,
    /// Whether each node may forward packets (hosts terminate delivery).
    router: Vec<bool>,
}

impl Topology {
    /// Creates an empty builder; `seed` feeds every randomized queue.
    pub fn new(seed: u64) -> Self {
        Topology {
            network: Network::new(),
            seed,
            ends: Vec::new(),
            router: Vec::new(),
        }
    }

    /// Adds an end host (packets addressed to it are delivered upward;
    /// computed routes never forward through it).
    pub fn add_host(&mut self) -> NodeId {
        self.router.push(false);
        self.network.add_host()
    }

    /// Adds a router (packets addressed elsewhere are forwarded).
    pub fn add_router(&mut self) -> NodeId {
        self.router.push(true);
        self.network.add_router()
    }

    /// Adds a simplex link guarded by `queue`, validating the endpoints
    /// and the bandwidth.
    pub fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        bandwidth_bps: u64,
        delay: SimDuration,
        queue: QueueSpec,
    ) -> Result<LinkId, TopologyError> {
        let n = self.router.len();
        if (from.0 as usize) >= n || (to.0 as usize) >= n {
            return Err(TopologyError::InvalidParam {
                what: "link endpoint",
                reason: format!("{from:?} -> {to:?} names an unknown node"),
            });
        }
        if from == to {
            return Err(TopologyError::InvalidParam {
                what: "link endpoint",
                reason: format!("self-loop at {from:?}"),
            });
        }
        if bandwidth_bps == 0 {
            return Err(TopologyError::InvalidParam {
                what: "link bandwidth",
                reason: "must be positive".into(),
            });
        }
        let id = self
            .network
            .add_link(from, to, bandwidth_bps, delay, queue.build(self.seed));
        self.ends.push((from, to));
        Ok(id)
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.router.len()
    }

    /// Number of links added so far.
    pub fn link_count(&self) -> usize {
        self.ends.len()
    }

    /// Fills every node's route table with minimum-hop paths toward every
    /// reachable destination. Transit is router-only: hosts terminate
    /// delivery, so no computed path forwards through one. Ties are broken
    /// toward the lowest outgoing link id, making the tables a pure
    /// function of graph insertion order (and therefore deterministic).
    pub fn compute_routes(&mut self) {
        let n = self.router.len();
        let mut hops = vec![u32::MAX; n];
        let mut via = vec![u32::MAX; n];
        for d in 0..n as u32 {
            let dst = NodeId(d);
            hops.iter_mut().for_each(|h| *h = u32::MAX);
            via.iter_mut().for_each(|v| *v = u32::MAX);
            hops[d as usize] = 0;
            // Bellman-Ford relaxation to a fixpoint over (hop count,
            // first-link id) labels; each change strictly decreases a
            // node's label lexicographically, so this terminates.
            let mut changed = true;
            while changed {
                changed = false;
                for (id, &(from, to)) in self.ends.iter().enumerate() {
                    // Usable only if the far end terminates the path (it
                    // is the destination) or can forward (a router).
                    if to != dst && !self.router[to.0 as usize] {
                        continue;
                    }
                    let through = hops[to.0 as usize];
                    if through == u32::MAX {
                        continue;
                    }
                    let cand = through + 1;
                    let u = from.0 as usize;
                    let id = id as u32;
                    if cand < hops[u] || (cand == hops[u] && id < via[u]) {
                        hops[u] = cand;
                        via[u] = id;
                        changed = true;
                    }
                }
            }
            for (u, &link) in via.iter().enumerate() {
                if link != u32::MAX {
                    self.network.set_route(NodeId(u as u32), dst, LinkId(link));
                }
            }
        }
    }

    /// Finishes the build, yielding the routed network.
    pub fn into_network(self) -> Network {
        self.network
    }
}

/// Number of links a packet from `src` follows to reach `dst` under the
/// installed route tables, or `None` if some node en route has no entry or
/// the walk exceeds the node count (a routing loop).
pub fn route_path_len(network: &Network, src: NodeId, dst: NodeId) -> Option<usize> {
    let mut at = src;
    let mut hops = 0usize;
    while at != dst {
        let via = network.route(at, dst)?;
        at = network.link(via).to();
        hops += 1;
        if hops > network.node_count() {
            return None;
        }
    }
    Some(hops)
}

/// Configuration of the dumbbell topology.
///
/// Defaults (via [`DumbbellConfig::paper`]) reproduce the reconstructed
/// Table 1 of the paper; every field can be overridden for ablations. The
/// other [`TopologySpec`] shapes reuse this struct as their shared link
/// parameterization (client/bottleneck bandwidth, delays, queues).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DumbbellConfig {
    /// Number of client hosts `M`.
    pub num_clients: usize,
    /// Client access-link bandwidth `μc` in bits per second.
    pub client_bandwidth_bps: u64,
    /// Client access-link one-way propagation delay `τc` (client 0's; see
    /// [`DumbbellConfig::client_delay_spread`]).
    pub client_delay: SimDuration,
    /// Heterogeneous-RTT factor: client `i` of `M` gets access delay
    /// `τc · (1 + spread · i/(M−1))`. Zero (the paper's setup) gives every
    /// client the same delay; 1.0 doubles the last client's.
    pub client_delay_spread: f64,
    /// Bottleneck bandwidth `μs` in bits per second.
    pub bottleneck_bandwidth_bps: u64,
    /// Bottleneck one-way propagation delay `τs`.
    pub bottleneck_delay: SimDuration,
    /// Queue at the gateway's bottleneck output — the queue under test.
    pub gateway_queue: QueueSpec,
    /// Buffer size (packets) for access links and the reverse path; sized so
    /// congestion only ever forms at the gateway, as in the paper.
    pub access_queue_capacity: usize,
    /// Seed for any randomized queue discipline (RED).
    pub seed: u64,
}

impl DumbbellConfig {
    /// The paper's Table 1 configuration with `num_clients` clients and a
    /// plain FIFO gateway.
    pub fn paper(num_clients: usize) -> Self {
        DumbbellConfig {
            num_clients,
            client_bandwidth_bps: 100_000_000,
            client_delay: SimDuration::from_millis(2),
            client_delay_spread: 0.0,
            bottleneck_bandwidth_bps: 50_000_000,
            bottleneck_delay: SimDuration::from_millis(20),
            gateway_queue: QueueSpec::DropTail { capacity: 50 },
            access_queue_capacity: 1_000,
            seed: 0,
        }
    }

    /// Same, but with the paper's RED gateway.
    pub fn paper_red(num_clients: usize) -> Self {
        let mut cfg = Self::paper(num_clients);
        cfg.gateway_queue = QueueSpec::Red(RedParams::paper_defaults());
        cfg
    }

    /// Round-trip propagation delay `2(τc + τs)` for client 0 — the
    /// paper's c.o.v. bin width.
    pub fn rtprop(&self) -> SimDuration {
        (self.client_delay + self.bottleneck_delay) * 2
    }

    /// Checks the link parameters every topology shape shares (bandwidths
    /// and buffer sizes positive, spread sane).
    fn validate_links(&self) -> Result<(), TopologyError> {
        if !(self.client_delay_spread >= 0.0 && self.client_delay_spread.is_finite()) {
            return Err(TopologyError::InvalidSpread);
        }
        if self.client_bandwidth_bps == 0 {
            return Err(TopologyError::InvalidParam {
                what: "client bandwidth",
                reason: "must be positive".into(),
            });
        }
        if self.bottleneck_bandwidth_bps == 0 {
            return Err(TopologyError::InvalidParam {
                what: "bottleneck bandwidth",
                reason: "must be positive".into(),
            });
        }
        if self.access_queue_capacity == 0 {
            return Err(TopologyError::InvalidParam {
                what: "access queue capacity",
                reason: "must be positive".into(),
            });
        }
        Ok(())
    }

    /// Checks the full dumbbell configuration, returning the first
    /// violation as a typed error.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.num_clients == 0 {
            return Err(TopologyError::NoFlows);
        }
        self.validate_links()
    }

    /// Access delay of client `i` of `num_clients` under the spread rule.
    ///
    /// Invalid (negative or non-finite) spreads are rejected by
    /// [`DumbbellConfig::validate`] at build time; this accessor treats
    /// them as zero rather than panicking.
    pub fn client_delay_of(&self, i: usize) -> SimDuration {
        let spread = self.client_delay_spread;
        if self.num_clients <= 1 || !(spread.is_finite() && spread > 0.0) {
            return self.client_delay;
        }
        let frac = i as f64 / (self.num_clients - 1) as f64;
        SimDuration::from_secs_f64(self.client_delay.as_secs_f64() * (1.0 + spread * frac))
    }
}

/// The built dumbbell: the network plus the ids instrumentation needs.
#[derive(Debug)]
pub struct Dumbbell {
    /// The assembled network.
    pub network: Network,
    /// Client hosts, index-aligned with flows.
    pub clients: Vec<NodeId>,
    /// The shared gateway router.
    pub gateway: NodeId,
    /// The server host.
    pub server: NodeId,
    /// Client → gateway access links (one per client).
    pub uplinks: Vec<LinkId>,
    /// Gateway → client return links (one per client).
    pub downlinks: Vec<LinkId>,
    /// The gateway → server bottleneck (where the queue under test sits).
    pub bottleneck: LinkId,
    /// The server → gateway reverse link (carries ACKs).
    pub reverse: LinkId,
}

impl Dumbbell {
    /// Builds the topology of the paper's Figure 1 through the generic
    /// [`Topology`] path: same node/link insertion order as ever (gateway,
    /// server, bottleneck, reverse, then per-client host/up/down), with the
    /// routes computed rather than hand-installed — the computed minimum-hop
    /// paths coincide with the paper's manual tables.
    pub fn try_build(cfg: &DumbbellConfig) -> Result<Self, TopologyError> {
        cfg.validate()?;
        let access = QueueSpec::DropTail {
            capacity: cfg.access_queue_capacity,
        };
        let mut t = Topology::new(cfg.seed);
        let gateway = t.add_router();
        let server = t.add_host();
        let bottleneck = t.add_link(
            gateway,
            server,
            cfg.bottleneck_bandwidth_bps,
            cfg.bottleneck_delay,
            cfg.gateway_queue,
        )?;
        let reverse = t.add_link(
            server,
            gateway,
            cfg.bottleneck_bandwidth_bps,
            cfg.bottleneck_delay,
            access,
        )?;

        let mut clients = Vec::with_capacity(cfg.num_clients);
        let mut uplinks = Vec::with_capacity(cfg.num_clients);
        let mut downlinks = Vec::with_capacity(cfg.num_clients);
        for i in 0..cfg.num_clients {
            let c = t.add_host();
            let delay = cfg.client_delay_of(i);
            let up = t.add_link(c, gateway, cfg.client_bandwidth_bps, delay, access)?;
            let down = t.add_link(gateway, c, cfg.client_bandwidth_bps, delay, access)?;
            clients.push(c);
            uplinks.push(up);
            downlinks.push(down);
        }
        t.compute_routes();

        Ok(Dumbbell {
            network: t.into_network(),
            clients,
            gateway,
            server,
            uplinks,
            downlinks,
            bottleneck,
            reverse,
        })
    }

    /// Panicking convenience over [`Dumbbell::try_build`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero clients, zero
    /// bandwidth, bad spread).
    ///
    /// # Example
    ///
    /// ```
    /// use tcpburst_net::{Dumbbell, DumbbellConfig};
    ///
    /// let db = Dumbbell::build(&DumbbellConfig::paper(4));
    /// assert_eq!(db.clients.len(), 4);
    /// // 4 clients + gateway + server:
    /// assert_eq!(db.network.node_count(), 6);
    /// // per client up+down, plus bottleneck and reverse:
    /// assert_eq!(db.network.link_count(), 10);
    /// ```
    pub fn build(cfg: &DumbbellConfig) -> Self {
        match Self::try_build(cfg) {
            Ok(db) => db,
            Err(e) => panic!("invalid dumbbell config: {e}"),
        }
    }
}

/// One traffic flow's endpoints, index-aligned with `FlowId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEndpoints {
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
}

/// A built topology of any shape, with the handles the scenario layer
/// needs: flow endpoints, the instrumented bottleneck hops, and where
/// probes and impairments attach.
#[derive(Debug)]
pub struct BuiltTopology {
    /// The assembled, routed network.
    pub network: Network,
    /// Flow endpoints, index-aligned with `FlowId`.
    pub flows: Vec<FlowEndpoints>,
    /// The instrumented bottleneck hops, upstream to downstream. The
    /// dumbbell has exactly one; a parking lot has one per chain segment.
    pub hops: Vec<LinkId>,
    /// The headline bottleneck: the hop whose queue and loss statistics
    /// the report summarizes (the last, most-loaded element of `hops`).
    pub bottleneck: LinkId,
    /// Where impairments (flap, capacity/delay variation, cross traffic)
    /// attach — the bottleneck, except mid-chain on a parking lot.
    pub impair_link: LinkId,
    /// Upstream endpoint of the bottleneck; data packets arriving at this
    /// node form the paper's per-RTT-bin probe population.
    pub probe_node: NodeId,
    /// Source node for injected cross-traffic datagrams (the impair
    /// link's upstream router).
    pub cross_src: NodeId,
    /// Host that drains injected cross-traffic datagrams.
    pub cross_dst: NodeId,
}

/// Derived-stream tag for the Waxman graph generator so its draws never
/// collide with the traffic sources' per-flow streams.
const WAXMAN_STREAM: u64 = 0x5741_584d_4752_4150; // "WAXMGRAP"

/// A buildable topology family. All link parameters (bandwidths, delays,
/// queue disciplines, seed) come from the embedded [`DumbbellConfig`]
/// `base`; each variant only adds its shape parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySpec {
    /// The paper's Figure-1 dumbbell: `num_clients` hosts behind one
    /// gateway and one bottleneck.
    Dumbbell(DumbbellConfig),
    /// A chain of `hops` bottleneck links `R0 → R1 → … → R_hops` with a
    /// sink host past the last router; `flows_per_hop` flows enter at each
    /// chain router and all terminate at the sink, so flows entering at
    /// router `k` traverse hops `k..hops` and couple every segment.
    ParkingLot {
        /// Shared link parameters.
        base: DumbbellConfig,
        /// Number of chain (bottleneck) links; at least 1.
        hops: usize,
        /// Flows entering at each chain router; at least 1.
        flows_per_hop: usize,
    },
    /// Datacenter fan-in: `fanin` senders on fast access links converge
    /// through one switch onto a single receiver link — the fan-in itself
    /// overflows the switch queue.
    Incast {
        /// Shared link parameters.
        base: DumbbellConfig,
        /// Number of simultaneous senders; at least 1.
        fanin: usize,
    },
    /// Seeded Waxman random graph: `nodes` router sites placed uniformly
    /// in the unit square, pair `(i, j)` linked with probability
    /// `alpha · exp(−d(i,j) / (beta · √2))`, repaired deterministically to
    /// one connected component; each site gets one attached host and one
    /// flow toward a seeded random other site.
    Waxman {
        /// Shared link parameters.
        base: DumbbellConfig,
        /// Number of router sites; at least 2.
        nodes: usize,
        /// Edge-probability ceiling in `(0, 1]`.
        alpha: f64,
        /// Distance-decay scale; larger favors long links. Positive.
        beta: f64,
    },
}

impl TopologySpec {
    /// Number of traffic flows this spec declares; flow `i`'s endpoints
    /// are `flows[i]` of the built topology.
    pub fn num_flows(&self) -> usize {
        match *self {
            TopologySpec::Dumbbell(ref base) => base.num_clients,
            TopologySpec::ParkingLot {
                hops,
                flows_per_hop,
                ..
            } => hops * flows_per_hop,
            TopologySpec::Incast { fanin, .. } => fanin,
            TopologySpec::Waxman { nodes, .. } => nodes,
        }
    }

    /// Checks the spec without building it, returning the first violation.
    pub fn validate(&self) -> Result<(), TopologyError> {
        match *self {
            TopologySpec::Dumbbell(ref base) => base.validate(),
            TopologySpec::ParkingLot {
                ref base,
                hops,
                flows_per_hop,
            } => {
                if hops == 0 {
                    return Err(TopologyError::InvalidParam {
                        what: "parking-lot hops",
                        reason: "chain needs at least one link".into(),
                    });
                }
                if flows_per_hop == 0 {
                    return Err(TopologyError::NoFlows);
                }
                base.validate_links()
            }
            TopologySpec::Incast { ref base, fanin } => {
                if fanin == 0 {
                    return Err(TopologyError::NoFlows);
                }
                base.validate_links()
            }
            TopologySpec::Waxman {
                ref base,
                nodes,
                alpha,
                beta,
            } => {
                if nodes < 2 {
                    return Err(TopologyError::InvalidParam {
                        what: "waxman nodes",
                        reason: "graph needs at least two sites".into(),
                    });
                }
                if !(alpha > 0.0 && alpha <= 1.0) {
                    return Err(TopologyError::InvalidParam {
                        what: "waxman alpha",
                        reason: "must be in (0, 1]".into(),
                    });
                }
                if !(beta > 0.0 && beta.is_finite()) {
                    return Err(TopologyError::InvalidParam {
                        what: "waxman beta",
                        reason: "must be positive and finite".into(),
                    });
                }
                base.validate_links()
            }
        }
    }

    /// Builds the spec: graph, computed routes, flow endpoints and the
    /// instrumentation/impairment handles.
    pub fn build(&self) -> Result<BuiltTopology, TopologyError> {
        self.validate()?;
        let built = match *self {
            TopologySpec::Dumbbell(ref base) => {
                let db = Dumbbell::try_build(base)?;
                BuiltTopology {
                    flows: db
                        .clients
                        .iter()
                        .map(|&c| FlowEndpoints {
                            src: c,
                            dst: db.server,
                        })
                        .collect(),
                    hops: vec![db.bottleneck],
                    bottleneck: db.bottleneck,
                    impair_link: db.bottleneck,
                    probe_node: db.gateway,
                    cross_src: db.gateway,
                    cross_dst: db.server,
                    network: db.network,
                }
            }
            TopologySpec::ParkingLot {
                ref base,
                hops,
                flows_per_hop,
            } => build_parking_lot(base, hops, flows_per_hop)?,
            TopologySpec::Incast { ref base, fanin } => build_incast(base, fanin)?,
            TopologySpec::Waxman {
                ref base,
                nodes,
                alpha,
                beta,
            } => build_waxman(base, nodes, alpha, beta)?,
        };
        verify_flows(&built.network, &built.flows)?;
        Ok(built)
    }
}

/// Defensive post-build check: every declared flow must be mutually
/// reachable under the computed routes (a generated graph that was not
/// repaired correctly surfaces here as a typed error, not a router panic
/// mid-simulation).
fn verify_flows(network: &Network, flows: &[FlowEndpoints]) -> Result<(), TopologyError> {
    for f in flows {
        if route_path_len(network, f.src, f.dst).is_none()
            || route_path_len(network, f.dst, f.src).is_none()
        {
            return Err(TopologyError::Unreachable {
                src: f.src,
                dst: f.dst,
            });
        }
    }
    Ok(())
}

fn build_parking_lot(
    base: &DumbbellConfig,
    hops: usize,
    flows_per_hop: usize,
) -> Result<BuiltTopology, TopologyError> {
    let access = QueueSpec::DropTail {
        capacity: base.access_queue_capacity,
    };
    let mut t = Topology::new(base.seed);
    let routers: Vec<NodeId> = (0..=hops).map(|_| t.add_router()).collect();
    let sink = t.add_host();
    // Forward chain: the bottleneck segments, each guarded by the queue
    // under test.
    let mut chain = Vec::with_capacity(hops);
    for k in 0..hops {
        chain.push(t.add_link(
            routers[k],
            routers[k + 1],
            base.bottleneck_bandwidth_bps,
            base.bottleneck_delay,
            base.gateway_queue,
        )?);
    }
    // Reverse chain for ACKs, amply buffered like the dumbbell's reverse.
    for k in 0..hops {
        t.add_link(
            routers[k + 1],
            routers[k],
            base.bottleneck_bandwidth_bps,
            base.bottleneck_delay,
            access,
        )?;
    }
    // Sink attachment past the last router.
    t.add_link(
        routers[hops],
        sink,
        base.client_bandwidth_bps,
        base.client_delay,
        access,
    )?;
    t.add_link(
        sink,
        routers[hops],
        base.client_bandwidth_bps,
        base.client_delay,
        access,
    )?;
    // Cross-traffic drain just downstream of the mid-chain impair hop, so
    // injected overload stays local to that segment.
    let impair_idx = hops / 2;
    let drain = t.add_host();
    t.add_link(
        routers[impair_idx + 1],
        drain,
        base.client_bandwidth_bps,
        base.client_delay,
        access,
    )?;
    // Flow sources: group h = f / flows_per_hop enters at chain router h
    // and rides hops h..hops to the sink.
    let mut flows = Vec::with_capacity(hops * flows_per_hop);
    for f in 0..hops * flows_per_hop {
        let h = f / flows_per_hop;
        let src = t.add_host();
        t.add_link(
            src,
            routers[h],
            base.client_bandwidth_bps,
            base.client_delay,
            access,
        )?;
        t.add_link(
            routers[h],
            src,
            base.client_bandwidth_bps,
            base.client_delay,
            access,
        )?;
        flows.push(FlowEndpoints { src, dst: sink });
    }
    t.compute_routes();
    let network = t.into_network();
    Ok(BuiltTopology {
        flows,
        bottleneck: chain[hops - 1],
        impair_link: chain[impair_idx],
        probe_node: routers[hops - 1],
        cross_src: routers[impair_idx],
        cross_dst: drain,
        hops: chain,
        network,
    })
}

fn build_incast(base: &DumbbellConfig, fanin: usize) -> Result<BuiltTopology, TopologyError> {
    let access = QueueSpec::DropTail {
        capacity: base.access_queue_capacity,
    };
    let mut t = Topology::new(base.seed);
    let switch = t.add_router();
    let receiver = t.add_host();
    let bottleneck = t.add_link(
        switch,
        receiver,
        base.bottleneck_bandwidth_bps,
        base.bottleneck_delay,
        base.gateway_queue,
    )?;
    t.add_link(
        receiver,
        switch,
        base.bottleneck_bandwidth_bps,
        base.bottleneck_delay,
        access,
    )?;
    let mut flows = Vec::with_capacity(fanin);
    for _ in 0..fanin {
        let s = t.add_host();
        // Sender access links run at bottleneck speed: the fan-in itself
        // is what overflows the switch queue, not a slow edge.
        t.add_link(
            s,
            switch,
            base.bottleneck_bandwidth_bps,
            base.client_delay,
            access,
        )?;
        t.add_link(
            switch,
            s,
            base.bottleneck_bandwidth_bps,
            base.client_delay,
            access,
        )?;
        flows.push(FlowEndpoints {
            src: s,
            dst: receiver,
        });
    }
    t.compute_routes();
    Ok(BuiltTopology {
        network: t.into_network(),
        flows,
        hops: vec![bottleneck],
        bottleneck,
        impair_link: bottleneck,
        probe_node: switch,
        cross_src: switch,
        cross_dst: receiver,
    })
}

fn build_waxman(
    base: &DumbbellConfig,
    nodes: usize,
    alpha: f64,
    beta: f64,
) -> Result<BuiltTopology, TopologyError> {
    let access = QueueSpec::DropTail {
        capacity: base.access_queue_capacity,
    };
    let mut rng = SimRng::derive(base.seed, WAXMAN_STREAM);
    // Site placement in the unit square; √2 is the diameter.
    let xy: Vec<(f64, f64)> = (0..nodes).map(|_| (rng.uniform(), rng.uniform())).collect();
    let diameter = std::f64::consts::SQRT_2;
    let dist = |i: usize, j: usize| -> f64 {
        let (xi, yi) = xy[i];
        let (xj, yj) = xy[j];
        ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt()
    };

    let mut t = Topology::new(base.seed);
    let routers: Vec<NodeId> = (0..nodes).map(|_| t.add_router()).collect();
    let hosts: Vec<NodeId> = (0..nodes).map(|_| t.add_host()).collect();

    // Union-find over sites, for the connectivity repair below.
    let mut parent: Vec<usize> = (0..nodes).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut at = x;
        while parent[at] != root {
            let next = parent[at];
            parent[at] = root;
            at = next;
        }
        root
    }

    // A site pair's cable is two simplex links sharing the distance-scaled
    // delay (floored so co-located sites still take time to talk).
    let cable = |t: &mut Topology, i: usize, j: usize| -> Result<(), TopologyError> {
        let scale = (dist(i, j) / diameter).max(0.05);
        let delay = SimDuration::from_secs_f64(base.bottleneck_delay.as_secs_f64() * scale);
        t.add_link(
            routers[i],
            routers[j],
            base.bottleneck_bandwidth_bps,
            delay,
            base.gateway_queue,
        )?;
        t.add_link(
            routers[j],
            routers[i],
            base.bottleneck_bandwidth_bps,
            delay,
            base.gateway_queue,
        )?;
        Ok(())
    };

    for i in 0..nodes {
        for j in (i + 1)..nodes {
            let p = alpha * (-dist(i, j) / (beta * diameter)).exp();
            if rng.chance(p) {
                cable(&mut t, i, j)?;
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                parent[ri.max(rj)] = ri.min(rj);
            }
        }
    }
    // Deterministic connectivity repair: star any stray component onto
    // site 0, in ascending site order.
    for i in 1..nodes {
        if find(&mut parent, i) != find(&mut parent, 0) {
            cable(&mut t, 0, i)?;
            let (ri, r0) = (find(&mut parent, i), find(&mut parent, 0));
            parent[ri.max(r0)] = ri.min(r0);
        }
    }
    // Access links: one attached host per site.
    for i in 0..nodes {
        t.add_link(
            hosts[i],
            routers[i],
            base.client_bandwidth_bps,
            base.client_delay,
            access,
        )?;
        t.add_link(
            routers[i],
            hosts[i],
            base.client_bandwidth_bps,
            base.client_delay,
            access,
        )?;
    }
    // One flow per site toward a seeded random other site.
    let mut flows = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let off = 1 + rng.below(nodes as u64 - 1) as usize;
        flows.push(FlowEndpoints {
            src: hosts[i],
            dst: hosts[(i + off) % nodes],
        });
    }
    t.compute_routes();
    let network = t.into_network();

    // The bottleneck is the router-router link the flows' computed routes
    // traverse most often (lowest id on ties). Every flow crosses at least
    // one such link (its endpoints sit at distinct sites), so some
    // transit link always carries traffic.
    let mut load = vec![0u64; network.link_count()];
    for f in &flows {
        let mut at = f.src;
        let mut steps = 0usize;
        while at != f.dst {
            let via = match network.route(at, f.dst) {
                Some(via) => via,
                None => {
                    return Err(TopologyError::Unreachable {
                        src: f.src,
                        dst: f.dst,
                    })
                }
            };
            load[via.0 as usize] += 1;
            at = network.link(via).to();
            steps += 1;
            if steps > network.node_count() {
                return Err(TopologyError::Unreachable {
                    src: f.src,
                    dst: f.dst,
                });
            }
        }
    }
    let is_site = |n: NodeId| (n.0 as usize) < nodes;
    let mut best: Option<(u64, u32)> = None;
    for (id, &count) in load.iter().enumerate() {
        let link = network.link(LinkId(id as u32));
        if count == 0 || !is_site(link.from()) || !is_site(link.to()) {
            continue;
        }
        if best.is_none_or(|(c, _)| count > c) {
            best = Some((count, id as u32));
        }
    }
    let bottleneck = match best {
        Some((_, id)) => LinkId(id),
        // All flows one transit hop apart with zero shared links is
        // impossible once nodes >= 2, but fail typed rather than panic.
        None => {
            return Err(TopologyError::InvalidParam {
                what: "waxman graph",
                reason: "no transit link carries any flow".into(),
            })
        }
    };
    let bn = network.link(bottleneck);
    let (probe_node, exit_site) = (bn.from(), bn.to().0 as usize);
    Ok(BuiltTopology {
        flows,
        hops: vec![bottleneck],
        bottleneck,
        impair_link: bottleneck,
        probe_node,
        cross_src: probe_node,
        cross_dst: hosts[exit_site],
        network,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Delivered, NetEvent};
    use crate::packet::{Ecn, FlowId, Packet, PacketKind};
    use tcpburst_des::{Scheduler, SimTime};

    /// Injects `pkt` and pumps the scheduler until the network drains,
    /// returning the host that finally received it (if any). Shared by the
    /// dumbbell reachability test and the generic-topology tests below.
    fn drive_to_host(net: &mut Network, pkt: Packet) -> Option<NodeId> {
        let mut sched: Scheduler<NetEvent> = Scheduler::new();
        net.inject(pkt, &mut sched);
        let mut reached = None;
        while let Some((_, ev)) = sched.pop() {
            match ev {
                NetEvent::TxComplete { link, epoch } => net.on_tx_complete(link, epoch, &mut sched),
                NetEvent::Delivery { link, epoch, packet } => {
                    if let Delivered::ToHost { node, .. } =
                        net.on_delivery(link, epoch, packet, &mut sched)
                    {
                        reached = Some(node);
                    }
                }
            }
        }
        reached
    }

    fn datagram(flow: u32, src: NodeId, dst: NodeId) -> Packet {
        Packet {
            flow: FlowId(flow),
            kind: PacketKind::Datagram,
            size_bytes: 1000,
            src,
            dst,
            created_at: SimTime::ZERO,
            ecn: Ecn::default(),
        }
    }

    fn ack(flow: u32, src: NodeId, dst: NodeId) -> Packet {
        Packet {
            flow: FlowId(flow),
            kind: PacketKind::TcpAck {
                ack: crate::SeqNo(1),
                ece: false,
                sack: crate::SackBlocks::EMPTY,
            },
            size_bytes: 40,
            src,
            dst,
            created_at: SimTime::ZERO,
            ecn: Ecn::default(),
        }
    }

    #[test]
    fn paper_config_matches_reconstruction() {
        let cfg = DumbbellConfig::paper(10);
        assert_eq!(cfg.client_bandwidth_bps, 100_000_000);
        assert_eq!(cfg.bottleneck_bandwidth_bps, 50_000_000);
        assert_eq!(cfg.rtprop(), SimDuration::from_millis(44));
        assert_eq!(cfg.gateway_queue, QueueSpec::DropTail { capacity: 50 });
        match DumbbellConfig::paper_red(10).gateway_queue {
            QueueSpec::Red(p) => {
                assert_eq!(p.min_th, 10.0);
                assert_eq!(p.max_th, 40.0);
            }
            other => panic!("expected RED, got {other:?}"),
        }
    }

    #[test]
    fn every_client_reaches_server_and_back() {
        let db = Dumbbell::build(&DumbbellConfig::paper(5));
        let mut net = db.network;
        for (i, &c) in db.clients.iter().enumerate() {
            assert_eq!(
                drive_to_host(&mut net, datagram(i as u32, c, db.server)),
                Some(db.server),
                "client {i} cannot reach the server"
            );
            assert_eq!(
                drive_to_host(&mut net, ack(i as u32, db.server, c)),
                Some(c),
                "server cannot reach client {i}"
            );
        }
    }

    #[test]
    fn bottleneck_queue_is_the_configured_one() {
        let db = Dumbbell::build(&DumbbellConfig::paper(2));
        // DropTail with capacity 50: fill it and watch the 51st drop.
        let mut net = db.network;
        let mut sched: Scheduler<NetEvent> = Scheduler::new();
        let make = |i: u32| datagram(i, db.gateway, db.server);
        // First packet goes straight into service, then 50 fit in the buffer.
        for i in 0..51 {
            assert!(!net.send_on(db.bottleneck, make(i), &mut sched).is_drop());
        }
        assert!(net.send_on(db.bottleneck, make(51), &mut sched).is_drop());
    }

    #[test]
    fn zero_clients_is_a_typed_error() {
        assert_eq!(
            Dumbbell::try_build(&DumbbellConfig::paper(0)).err(),
            Some(TopologyError::NoFlows)
        );
    }

    #[test]
    fn negative_spread_is_a_typed_error() {
        let mut cfg = DumbbellConfig::paper(5);
        cfg.client_delay_spread = -0.5;
        assert_eq!(cfg.validate(), Err(TopologyError::InvalidSpread));
        assert_eq!(
            Dumbbell::try_build(&cfg).err(),
            Some(TopologyError::InvalidSpread)
        );
        // The accessor no longer panics; it falls back to the base delay.
        assert_eq!(cfg.client_delay_of(1), cfg.client_delay);
    }

    #[test]
    #[should_panic(expected = "invalid dumbbell config")]
    fn panicking_wrapper_still_panics() {
        Dumbbell::build(&DumbbellConfig::paper(0));
    }

    #[test]
    fn delay_spread_interpolates_linearly() {
        let mut cfg = DumbbellConfig::paper(5);
        assert_eq!(cfg.client_delay_of(0), cfg.client_delay);
        assert_eq!(cfg.client_delay_of(4), cfg.client_delay);
        cfg.client_delay_spread = 1.0;
        assert_eq!(cfg.client_delay_of(0), SimDuration::from_millis(2));
        assert_eq!(cfg.client_delay_of(4), SimDuration::from_millis(4));
        assert_eq!(cfg.client_delay_of(2), SimDuration::from_millis(3));
        // The built topology uses the per-client delays.
        let db = Dumbbell::build(&cfg);
        assert_eq!(
            db.network.link(db.uplinks[4]).delay(),
            SimDuration::from_millis(4)
        );
    }

    #[test]
    fn computed_routes_match_the_manual_dumbbell_tables() {
        let db = Dumbbell::build(&DumbbellConfig::paper(3));
        let net = &db.network;
        for (i, &c) in db.clients.iter().enumerate() {
            assert_eq!(net.route(c, db.server), Some(db.uplinks[i]));
            assert_eq!(net.route(db.gateway, c), Some(db.downlinks[i]));
            assert_eq!(net.route(db.server, c), Some(db.reverse));
        }
        assert_eq!(net.route(db.gateway, db.server), Some(db.bottleneck));
    }

    #[test]
    fn dumbbell_spec_exposes_paper_handles() {
        let spec = TopologySpec::Dumbbell(DumbbellConfig::paper(4));
        assert_eq!(spec.num_flows(), 4);
        let built = spec.build().expect("paper dumbbell builds");
        assert_eq!(built.flows.len(), 4);
        assert_eq!(built.hops, vec![built.bottleneck]);
        assert_eq!(built.impair_link, built.bottleneck);
        // Probe sits at the gateway (node 0), cross traffic drains at the
        // server (node 1), exactly as the hand-built dumbbell wired it.
        assert_eq!(built.probe_node, NodeId(0));
        assert_eq!(built.cross_dst, NodeId(1));
    }

    #[test]
    fn parking_lot_flows_reach_the_sink_over_the_chain() {
        let spec = TopologySpec::ParkingLot {
            base: DumbbellConfig::paper(1),
            hops: 3,
            flows_per_hop: 2,
        };
        assert_eq!(spec.num_flows(), 6);
        let built = spec.build().expect("parking lot builds");
        assert_eq!(built.hops.len(), 3);
        assert_eq!(built.bottleneck, built.hops[2]);
        assert_eq!(built.impair_link, built.hops[1]); // mid-chain
        let mut net = built.network;
        for (i, f) in built.flows.iter().enumerate() {
            assert_eq!(
                drive_to_host(&mut net, datagram(i as u32, f.src, f.dst)),
                Some(f.dst),
                "flow {i} cannot reach the sink"
            );
            assert_eq!(
                drive_to_host(&mut net, ack(i as u32, f.dst, f.src)),
                Some(f.src),
                "sink cannot ack flow {i}"
            );
        }
        // Group h enters at router h: flow 0 rides all 3 hops, flow 5
        // (group 2) only the last one.
        assert_eq!(route_path_len(&net, built.flows[0].src, built.flows[0].dst), Some(5));
        assert_eq!(route_path_len(&net, built.flows[5].src, built.flows[5].dst), Some(3));
    }

    #[test]
    fn incast_converges_on_one_receiver() {
        let spec = TopologySpec::Incast {
            base: DumbbellConfig::paper(1),
            fanin: 8,
        };
        let built = spec.build().expect("incast builds");
        assert_eq!(built.flows.len(), 8);
        let receiver = built.flows[0].dst;
        assert!(built.flows.iter().all(|f| f.dst == receiver));
        let mut net = built.network;
        for (i, f) in built.flows.iter().enumerate() {
            assert_eq!(
                drive_to_host(&mut net, datagram(i as u32, f.src, f.dst)),
                Some(receiver)
            );
        }
    }

    #[test]
    fn waxman_is_seed_deterministic_and_connected() {
        let spec = |seed| {
            let mut base = DumbbellConfig::paper(1);
            base.seed = seed;
            TopologySpec::Waxman {
                base,
                nodes: 8,
                alpha: 0.6,
                beta: 0.4,
            }
        };
        let a = spec(7).build().expect("waxman builds");
        let b = spec(7).build().expect("waxman builds");
        assert_eq!(a.network.link_count(), b.network.link_count());
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.bottleneck, b.bottleneck);
        // Repair guarantees all-pairs host reachability via the routes.
        for f in &a.flows {
            assert!(route_path_len(&a.network, f.src, f.dst).is_some());
            assert!(route_path_len(&a.network, f.dst, f.src).is_some());
        }
    }

    #[test]
    fn spec_validation_rejects_bad_shapes() {
        let base = DumbbellConfig::paper(1);
        assert!(TopologySpec::ParkingLot { base, hops: 0, flows_per_hop: 1 }
            .validate()
            .is_err());
        assert_eq!(
            TopologySpec::ParkingLot { base, hops: 2, flows_per_hop: 0 }.validate(),
            Err(TopologyError::NoFlows)
        );
        assert_eq!(
            TopologySpec::Incast { base, fanin: 0 }.validate(),
            Err(TopologyError::NoFlows)
        );
        assert!(TopologySpec::Waxman { base, nodes: 1, alpha: 0.5, beta: 0.5 }
            .validate()
            .is_err());
        assert!(TopologySpec::Waxman { base, nodes: 4, alpha: 1.5, beta: 0.5 }
            .validate()
            .is_err());
        assert!(TopologySpec::Waxman { base, nodes: 4, alpha: 0.5, beta: 0.0 }
            .validate()
            .is_err());
        let mut zero_bw = base;
        zero_bw.client_bandwidth_bps = 0;
        assert!(TopologySpec::Incast { base: zero_bw, fanin: 2 }.validate().is_err());
    }

    #[test]
    fn route_computation_prefers_fewest_hops_then_lowest_link_id() {
        let q = QueueSpec::DropTail { capacity: 10 };
        let bw = 1_000_000;
        let d = SimDuration::from_millis(1);
        let mut t = Topology::new(0);
        let a = t.add_router();
        let b = t.add_router();
        let c = t.add_router();
        let dst = t.add_host();
        // Two-hop detour a->b->dst (links 0, 1) vs the direct a->dst
        // added later (link 2), plus an equal-cost duplicate (link 3):
        t.add_link(a, b, bw, d, q).expect("a->b");
        t.add_link(b, dst, bw, d, q).expect("b->dst");
        let direct = t.add_link(a, dst, bw, d, q).expect("a->dst");
        t.add_link(a, dst, bw, d, q).expect("a->dst dup");
        // c is isolated on purpose: no route entry may be invented for it.
        t.compute_routes();
        let net = t.into_network();
        assert_eq!(net.route(a, dst), Some(direct));
        assert_eq!(net.route(c, dst), None);
        assert_eq!(route_path_len(&net, a, dst), Some(1));
    }
}
