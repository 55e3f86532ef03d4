//! One simulation run: build the topology, attach endpoints and sources,
//! drive the event loop, collect the report.

use tcpburst_des::{PhaseCycle, Scheduler, SimDuration, SimRng, SimTime};
use tcpburst_net::{
    BuiltTopology, Delivered, Ecn, FlowId, NetEvent, Packet, PacketKind, WireLoss,
    CROSS_TRAFFIC_FLOW,
};
use tcpburst_stats::{jain_fairness, poisson_cov, BinnedCounter, TimeSeries};
use tcpburst_traffic::{AnySource, ArrivalProcess, CbrSource, ParetoOnOffSource, PoissonSource};
use tcpburst_transport::{
    TcpReceiver, TcpSender, TimerKind, TransportEvent, UdpSender, UdpSink,
};

use crate::config::{ScenarioConfig, SourceKind, TransportKind};
use crate::event::{Event, ImpairEvent};
use crate::profile::{DispatchProfile, ProfClock, TimerReport};
use crate::report::{FlowReport, HopSeries, ImpairmentReport, ScenarioReport};
use crate::supervise::{AuditReport, ExceededBudget, InvariantViolation, RunBudget};
use crate::trace::{EventLog, TraceKind};

/// RNG stream index for cross-traffic inter-arrival gaps; client streams
/// are numbered from zero, so the top of the space can never collide.
const CROSS_STREAM: u64 = u64::MAX;
/// Seed perturbation for the network's wire-corruption RNG, keeping it
/// independent of every arrival stream.
const WIRE_SEED_XOR: u64 = 0x7769_7265_636f_7272; // "wirecorr"

/// The client-side transport endpoints, one arena per protocol family.
///
/// A run is homogeneous — every client speaks the same transport — so the
/// endpoints live in one contiguous `Vec` per kind rather than a vector of
/// individually boxed per-flow enums: dispatch branches once per event
/// instead of once per endpoint, and adjacent flows' state shares cache
/// lines instead of being scattered across the heap.
#[derive(Debug)]
enum Clients {
    Tcp(Vec<TcpSender>),
    Udp(Vec<UdpSender>),
}

/// The server-side transport endpoints (see [`Clients`]).
#[derive(Debug)]
enum Servers {
    Tcp(Vec<TcpReceiver>),
    Udp(Vec<UdpSink>),
}

/// A periodic two-state toggle between a nominal and a perturbed value.
#[derive(Debug)]
struct Toggle<T> {
    cycle: PhaseCycle,
    nominal: T,
    perturbed: T,
}

impl<T: Copy> Toggle<T> {
    /// Advances the cycle and returns the value now in effect.
    fn advance(&mut self) -> T {
        if self.cycle.advance() == 0 {
            self.nominal
        } else {
            self.perturbed
        }
    }
}

/// Background cross-traffic generator state.
#[derive(Debug)]
struct CrossRuntime {
    source: PoissonSource,
    packet_bytes: u32,
}

/// Live state of the impairment schedule. Boxed and absent on healthy runs
/// so the unimpaired hot loop pays nothing for the machinery.
#[derive(Debug)]
struct ImpairRuntime {
    /// Flap phases `[up, down]`; index 0 means the link is currently lit.
    flap: Option<PhaseCycle>,
    capacity: Option<Toggle<u64>>,
    delay: Option<Toggle<SimDuration>>,
    cross: Option<CrossRuntime>,
    counters: ImpairmentReport,
}

impl ImpairRuntime {
    /// Builds the runtime from a validated schedule; `None` when the
    /// configuration injects no faults.
    ///
    /// # Panics
    ///
    /// Panics if the impairment schedule is inconsistent.
    fn build(cfg: &ScenarioConfig) -> Option<Box<ImpairRuntime>> {
        (!cfg.impair.is_none()).then(|| {
            cfg.impair
                .validate()
                .unwrap_or_else(|e| panic!("invalid impairment schedule: {e}"));
            Box::new(ImpairRuntime {
                flap: cfg.impair.flap.map(|f| PhaseCycle::new([f.up, f.down])),
                capacity: cfg.impair.capacity.map(|c| {
                    let nominal = cfg.params.bottleneck_bandwidth_bps;
                    Toggle {
                        cycle: PhaseCycle::new([c.period, c.period]),
                        nominal,
                        perturbed: ((nominal as f64 * c.factor).round() as u64).max(1),
                    }
                }),
                delay: cfg.impair.delay.map(|d| {
                    let nominal = cfg.params.bottleneck_delay;
                    Toggle {
                        cycle: PhaseCycle::new([d.period, d.period]),
                        nominal,
                        perturbed: SimDuration::from_nanos(
                            (nominal.as_nanos() as f64 * d.factor).round() as u64,
                        ),
                    }
                }),
                cross: cfg.impair.cross.map(|x| CrossRuntime {
                    source: PoissonSource::new(
                        x.rate_pps,
                        SimRng::derive(cfg.seed, CROSS_STREAM),
                    ),
                    packet_bytes: x.packet_bytes,
                }),
                counters: ImpairmentReport::default(),
            })
        })
    }
}

/// A fully assembled simulation of one configured topology (the paper's
/// Figure-1 dumbbell by default; see
/// [`TopoKind`](crate::config::TopoKind) for the rest).
///
/// Most callers only need [`Scenario::run`]; the step-by-step API
/// ([`Scenario::new`] + [`Scenario::run_to_completion`]) exists for tests
/// and tools that want to inspect state mid-run.
#[derive(Debug)]
pub struct Scenario {
    cfg: ScenarioConfig,
    sched: Scheduler<Event>,
    topo: BuiltTopology,
    clients: Clients,
    servers: Servers,
    sources: Vec<AnySource>,
    /// Per-flow time of the next arrival of a window-full TCP sender, held
    /// here instead of as a queued `Generate` (see
    /// [`Scenario::absorb_due`]); `None` while that event is queued.
    parked: Vec<Option<SimTime>>,
    probe: BinnedCounter,
    /// Scratch buffer for packets produced by endpoint handlers.
    outbox: Vec<Packet>,
    generated: u64,
    event_log: Option<EventLog>,
    /// Per-event-class dispatch counts (and timing with `event-timing` on).
    profile: DispatchProfile,
    /// Timer firings that reached dispatch but were stale — superseded
    /// after the in-place queue deletion missed. Near zero.
    stale_fired: u64,
    /// Host time spent inside [`Scenario::run_to_completion`], feeding the
    /// report's events/sec throughput counter.
    wall_clock: std::time::Duration,
    /// Impairment-schedule state; `None` on healthy runs.
    impair_rt: Option<Box<ImpairRuntime>>,
    /// Packets handed to the network (endpoint segments, ACKs and
    /// cross-traffic) — the left side of the audit's conservation identity.
    injected: u64,
    /// Packets the network delivered to any host endpoint.
    host_delivered: u64,
    /// First non-monotone clock step seen (tracked only under `audit`).
    clock_violation: Option<(SimTime, SimTime)>,
    /// Which watchdog budget aborted the run, if any.
    budget_exceeded: Option<ExceededBudget>,
    /// Per-hop queue-occupancy series, index-aligned with
    /// `topo.hops`; empty unless `trace_hops` is on.
    hop_occ: Vec<TimeSeries>,
    /// Per-hop utilization series (fraction of the hop's instantaneous
    /// capacity transmitted in the sample period).
    hop_util: Vec<TimeSeries>,
    /// Per-hop `bytes_tx` at the previous sample, for the delta.
    hop_prev_bytes: Vec<u64>,
}

impl Scenario {
    /// Builds the scenario (topology, endpoints, sources) without running
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero clients, an
    /// invalid topology spec, invalid TCP or RED parameters). The staged
    /// [`ScenarioBuilder`](crate::ScenarioBuilder) validates the same
    /// conditions into typed errors before they can reach this point.
    pub fn new(cfg: &ScenarioConfig) -> Self {
        let topo = cfg
            .topology_spec()
            .build()
            .unwrap_or_else(|e| panic!("invalid topology: {e}"));
        let num_flows = cfg.num_flows();
        debug_assert_eq!(topo.flows.len(), num_flows);
        let (clients, servers) = match cfg.transport {
            TransportKind::Tcp(_) => {
                let tcp = cfg.tcp_config();
                let mut txs = Vec::with_capacity(num_flows);
                let mut rxs = Vec::with_capacity(num_flows);
                for (i, ep) in topo.flows.iter().enumerate() {
                    let flow = FlowId(i as u32);
                    txs.push(TcpSender::new(tcp, flow, ep.src, ep.dst));
                    rxs.push(TcpReceiver::new(tcp, flow, ep.dst, ep.src));
                }
                (Clients::Tcp(txs), Servers::Tcp(rxs))
            }
            TransportKind::Udp => {
                let mut txs = Vec::with_capacity(num_flows);
                let mut sinks = Vec::with_capacity(num_flows);
                for (i, ep) in topo.flows.iter().enumerate() {
                    let flow = FlowId(i as u32);
                    txs.push(UdpSender::new(
                        flow,
                        ep.src,
                        ep.dst,
                        cfg.params.packet_bytes,
                    ));
                    sinks.push(UdpSink::new());
                }
                (Clients::Udp(txs), Servers::Udp(sinks))
            }
        };
        let sources: Vec<AnySource> = (0..num_flows)
            .map(|i| {
                let stream = SimRng::derive(cfg.seed, i as u64);
                match cfg.source {
                    SourceKind::Poisson { rate } => PoissonSource::new(rate, stream).into(),
                    SourceKind::Cbr { rate } => CbrSource::from_rate(rate).into(),
                    SourceKind::ParetoOnOff(pcfg) => {
                        ParetoOnOffSource::new(pcfg, stream).into()
                    }
                }
            })
            .collect();

        let probe = BinnedCounter::starting_at(SimTime::ZERO + cfg.warmup, cfg.cov_bin_width());

        let impair_rt = ImpairRuntime::build(cfg);

        let num_hops = topo.hops.len();
        let mut scenario = Scenario {
            cfg: *cfg,
            sched: Scheduler::with_capacity(cfg.event_list_capacity()),
            topo,
            clients,
            servers,
            sources,
            parked: vec![None; num_flows],
            probe,
            outbox: Vec::with_capacity(64),
            generated: 0,
            event_log: cfg
                .trace_events
                .then(|| EventLog::with_capacity(ScenarioConfig::EVENT_LOG_CAP)),
            profile: DispatchProfile::default(),
            stale_fired: 0,
            wall_clock: std::time::Duration::ZERO,
            impair_rt,
            injected: 0,
            host_delivered: 0,
            clock_violation: None,
            budget_exceeded: None,
            hop_occ: if cfg.trace_hops {
                vec![TimeSeries::default(); num_hops]
            } else {
                Vec::new()
            },
            hop_util: if cfg.trace_hops {
                vec![TimeSeries::default(); num_hops]
            } else {
                Vec::new()
            },
            hop_prev_bytes: if cfg.trace_hops {
                vec![0; num_hops]
            } else {
                Vec::new()
            },
        };
        // Prime every flow's first generation event.
        for i in 0..num_flows {
            let gap = scenario.sources[i].next_gap();
            scenario
                .sched
                .schedule_after(gap, Event::Generate { client: i as u32 });
        }
        // Prime the per-hop congestion-wave sampler (one event per bin;
        // nothing is scheduled when the trace is off).
        if scenario.cfg.trace_hops {
            scenario
                .sched
                .schedule_after(scenario.cfg.cov_bin_width(), Event::HopSample);
        }
        // Arm the impairment schedule: per-hop corruption on every link,
        // plus the first firing of each periodic perturbation.
        if scenario.cfg.impair.corrupt_prob > 0.0 {
            let net = &mut scenario.topo.network;
            net.set_wire_seed(scenario.cfg.seed ^ WIRE_SEED_XOR);
            for id in 0..net.link_count() {
                net.link_mut(tcpburst_net::LinkId(id as u32))
                    .set_corrupt_prob(scenario.cfg.impair.corrupt_prob);
            }
        }
        if let Some(rt) = scenario.impair_rt.as_mut() {
            if let Some(cycle) = &rt.flap {
                scenario
                    .sched
                    .schedule_after(cycle.hold(), Event::Impair(ImpairEvent::FlapToggle));
            }
            if let Some(t) = &rt.capacity {
                scenario
                    .sched
                    .schedule_after(t.cycle.hold(), Event::Impair(ImpairEvent::CapacityToggle));
            }
            if let Some(t) = &rt.delay {
                scenario
                    .sched
                    .schedule_after(t.cycle.hold(), Event::Impair(ImpairEvent::DelayToggle));
            }
            if let Some(x) = rt.cross.as_mut() {
                let gap = x.source.next_gap();
                scenario
                    .sched
                    .schedule_after(gap, Event::Impair(ImpairEvent::CrossArrival));
            }
        }
        scenario
    }

    /// Builds and runs the scenario to its configured duration.
    pub fn run(cfg: &ScenarioConfig) -> ScenarioReport {
        let mut s = Scenario::new(cfg);
        s.run_to_completion();
        s.into_report()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// How many clients carry an allocated `(time, cwnd)` trace buffer.
    /// Zero unless the instrumentation stage enabled
    /// [`trace_cwnd`](ScenarioConfig::trace_cwnd) — the benches assert
    /// this so sweeps that never read traces never pay for them.
    pub fn cwnd_trace_allocations(&self) -> usize {
        match &self.clients {
            Clients::Tcp(txs) => txs.iter().filter(|t| t.cwnd_trace().is_some()).count(),
            Clients::Udp(_) => 0,
        }
    }

    /// Drives the event loop until the configured duration.
    pub fn run_to_completion(&mut self) {
        self.run_with_budget(&RunBudget::UNLIMITED);
    }

    /// Drives the event loop until the configured duration or until a
    /// watchdog limit fires, whichever comes first. Returns which budget
    /// aborted the run (`None` when the run completed); an aborted
    /// scenario still yields a full diagnostic report via
    /// [`Scenario::into_report`], with
    /// [`budget_exceeded`](ScenarioReport::budget_exceeded) set.
    ///
    /// One loop serves every run: the scheduler hands out each timestamp's
    /// run of events from one queue search ([`Scheduler::pop_batched`]),
    /// and the budget and audit checks are a few predictable branches per
    /// event, so sweeps that opt into nothing pay next to nothing.
    ///
    /// [`Scheduler::pop_batched`]: tcpburst_des::Scheduler::pop_batched
    pub fn run_with_budget(&mut self, budget: &RunBudget) -> Option<ExceededBudget> {
        let started = std::time::Instant::now();
        let horizon = SimTime::ZERO + self.cfg.duration;
        let sim_horizon = match budget.max_sim_time {
            Some(cap) => horizon.min(SimTime::ZERO + cap),
            None => horizon,
        };
        let audit = self.cfg.audit;
        let mut tripped = None;
        let mut last_t = self.sched.now();
        let mut since_wall_check = 0u32;
        // Batch dispatch keeps the dispatch order event-for-event that of a
        // single-pop loop, and `processed()` still counts each event, so the
        // event cap stops at exactly the same event.
        while let Some((t, event)) = self.sched.pop_batched(sim_horizon) {
            if audit && t < last_t && self.clock_violation.is_none() {
                self.clock_violation = Some((last_t, t));
            }
            last_t = t;
            self.dispatch(event);
            if let Some(max) = budget.max_events {
                if self.sched.processed() >= max {
                    tripped = Some(ExceededBudget::Events);
                    break;
                }
            }
            if let Some(max) = budget.max_wall {
                since_wall_check += 1;
                // Checking the host clock per event would dominate the
                // loop; every few thousand events bounds the overshoot at
                // microseconds while keeping the hot path branch-cheap.
                if since_wall_check >= 4096 || max.is_zero() {
                    since_wall_check = 0;
                    if started.elapsed() >= max {
                        tripped = Some(ExceededBudget::WallClock);
                        break;
                    }
                }
            }
        }
        self.absorb_all_due();
        self.wall_clock += started.elapsed();

        // A limit only counts as *exceeded* if the simulation still had
        // work left inside the configured horizon — a run that hits its
        // event cap on its very last event simply finished. A parked
        // arrival is work an eager `Generate` would have queued.
        let more_pending = self
            .sched
            .peek_time()
            .into_iter()
            .chain(self.parked.iter().flatten().copied())
            .any(|t| t <= horizon);
        self.budget_exceeded = match tripped {
            Some(e) if more_pending => Some(e),
            Some(_) => None,
            None if sim_horizon < horizon && more_pending => Some(ExceededBudget::SimTime),
            None => None,
        };
        self.budget_exceeded
    }

    fn dispatch(&mut self, event: Event) {
        let clock = ProfClock::start();
        match event {
            Event::Generate { client } => {
                self.on_generate(client);
                clock.charge(&mut self.profile.generate);
            }
            Event::Net(NetEvent::TxComplete { link, epoch }) => {
                self.topo.network.on_tx_complete(link, epoch, &mut self.sched);
                clock.charge(&mut self.profile.net_tx);
            }
            Event::Net(NetEvent::Delivery { link, epoch, packet }) => {
                // The paper's probe: data packets arriving at the probe
                // node (the bottleneck's upstream router — the gateway on
                // the dumbbell), counted per round-trip propagation delay.
                // Peek the parked packet before the delivery call (which
                // redeems its arena ticket), record after it — a packet
                // lost on the wire never arrives.
                let peek = self.topo.network.packet(packet);
                let probed = peek.kind.is_data()
                    && self.topo.network.link(link).to() == self.topo.probe_node;
                let flow = peek.flow;
                match self.topo.network.on_delivery(link, epoch, packet, &mut self.sched) {
                    Delivered::ToHost { node: _, packet } => {
                        if probed {
                            self.probe.record(self.sched.now());
                        }
                        self.on_host_delivery(packet);
                    }
                    Delivered::Forwarded { via, outcome, .. } => {
                        if probed {
                            self.probe.record(self.sched.now());
                        }
                        if outcome.is_drop() && via == self.topo.bottleneck {
                            if let Some(log) = self.event_log.as_mut() {
                                let early =
                                    outcome != tcpburst_net::EnqueueOutcome::DroppedFull;
                                log.record(
                                    self.sched.now(),
                                    TraceKind::GatewayDrop { flow, early },
                                );
                            }
                        }
                    }
                    Delivered::LostOnWire { cause, .. } => {
                        if let Some(rt) = self.impair_rt.as_mut() {
                            match cause {
                                WireLoss::LinkDown => rt.counters.lost_in_flight += 1,
                                WireLoss::Corrupted => rt.counters.corrupted += 1,
                            }
                        }
                        if cause == WireLoss::Corrupted {
                            if let Some(log) = self.event_log.as_mut() {
                                log.record(self.sched.now(), TraceKind::Corrupted { flow });
                            }
                        }
                    }
                }
                clock.charge(&mut self.profile.net_delivery);
            }
            Event::Transport(ev) => {
                self.on_transport_timer(ev);
                clock.charge(&mut self.profile.transport);
            }
            Event::Impair(ev) => {
                self.on_impair(ev);
                clock.charge(&mut self.profile.impair);
            }
            Event::HopSample => {
                self.on_hop_sample();
                clock.charge(&mut self.profile.impair);
            }
        }
    }

    /// Samples every instrumented hop's queue backlog and utilization and
    /// re-arms the next sample. Only ever scheduled under `trace_hops`.
    fn on_hop_sample(&mut self) {
        let now = self.sched.now();
        let bin = self.cfg.cov_bin_width();
        let net = &self.topo.network;
        for (i, &hop) in self.topo.hops.iter().enumerate() {
            let link = net.link(hop);
            self.hop_occ[i].record(now, link.queue().len() as f64);
            let bytes = link.stats().bytes_tx;
            let delta = bytes - self.hop_prev_bytes[i];
            self.hop_prev_bytes[i] = bytes;
            // Fraction of the hop's *instantaneous* capacity used this
            // bin; a capacity impairment mid-bin can push it past 1.
            let capacity_bits = link.bandwidth_bps() as f64 * bin.as_secs_f64();
            self.hop_util[i].record(now, delta as f64 * 8.0 / capacity_bits);
        }
        let horizon = SimTime::ZERO + self.cfg.duration;
        if now + bin <= horizon {
            self.sched.schedule_after(bin, Event::HopSample);
        }
    }

    /// Executes one impairment-schedule event and re-arms its successor.
    fn on_impair(&mut self, ev: ImpairEvent) {
        let now = self.sched.now();
        let Some(rt) = self.impair_rt.as_mut() else {
            unreachable!("impairment event without a schedule");
        };
        match ev {
            ImpairEvent::FlapToggle => {
                let cycle = rt.flap.as_mut().expect("flap toggle without a flap");
                let up = cycle.advance() == 0;
                self.topo
                    .network
                    .set_link_up(self.topo.impair_link, up, &mut self.sched);
                if up {
                    rt.counters.link_up_events += 1;
                } else {
                    rt.counters.link_down_events += 1;
                }
                if let Some(log) = self.event_log.as_mut() {
                    log.record(now, if up { TraceKind::LinkUp } else { TraceKind::LinkDown });
                }
                self.sched
                    .schedule_after(cycle.hold(), Event::Impair(ImpairEvent::FlapToggle));
            }
            ImpairEvent::CapacityToggle => {
                let t = rt.capacity.as_mut().expect("capacity toggle without one");
                let rate = t.advance();
                self.topo
                    .network
                    .link_mut(self.topo.impair_link)
                    .set_bandwidth_bps(rate);
                self.sched
                    .schedule_after(t.cycle.hold(), Event::Impair(ImpairEvent::CapacityToggle));
            }
            ImpairEvent::DelayToggle => {
                let t = rt.delay.as_mut().expect("delay toggle without one");
                let delay = t.advance();
                self.topo
                    .network
                    .link_mut(self.topo.impair_link)
                    .set_delay(delay);
                self.sched
                    .schedule_after(t.cycle.hold(), Event::Impair(ImpairEvent::DelayToggle));
            }
            ImpairEvent::CrossArrival => {
                let x = rt.cross.as_mut().expect("cross arrival without a source");
                let pkt = Packet {
                    flow: CROSS_TRAFFIC_FLOW,
                    kind: PacketKind::Datagram,
                    size_bytes: x.packet_bytes,
                    src: self.topo.cross_src,
                    dst: self.topo.cross_dst,
                    created_at: now,
                    ecn: Ecn::NotCapable,
                };
                rt.counters.cross_injected += 1;
                self.injected += 1;
                self.topo.network.inject(pkt, &mut self.sched);
                let gap = x.source.next_gap();
                self.sched
                    .schedule_after(gap, Event::Impair(ImpairEvent::CrossArrival));
            }
        }
    }

    fn on_generate(&mut self, client: u32) {
        let idx = client as usize;
        let now = self.sched.now();
        self.generated += 1;
        match &mut self.clients {
            Clients::Tcp(txs) => {
                txs[idx].on_app_packets(1, &mut self.sched, &mut self.outbox);
            }
            Clients::Udp(txs) => {
                let pkt = txs[idx].on_app_packet(now);
                self.outbox.push(pkt);
            }
        }
        self.flush_outbox();
        let gap = self.sources[idx].next_gap();
        match &self.clients {
            // A full window turns the next arrival into a backlog
            // increment, so it waits for the sender's next event instead
            // of the queue.
            Clients::Tcp(txs) if txs[idx].window_full() => {
                self.parked[idx] = Some(now + gap);
            }
            _ => self.sched.schedule_after(gap, Event::Generate { client }),
        }
    }

    /// Submits flow `idx`'s parked arrivals due by now, drawing each next
    /// gap from the flow's source in order. Called before each of the
    /// sender's own events: only those can open its window, so every
    /// arrival absorbed here found the window full, and submitting it
    /// then would have done nothing but grow the backlog.
    fn absorb_due(&mut self, idx: usize) {
        let Some(at) = self.parked[idx].as_mut() else {
            return;
        };
        let now = self.sched.now();
        if *at > now {
            return;
        }
        let mut due = 0;
        while *at <= now {
            due += 1;
            *at += self.sources[idx].next_gap();
        }
        self.generated += due;
        if let Clients::Tcp(txs) = &mut self.clients {
            txs[idx].absorb_app_packets(due);
        }
    }

    /// After one of flow `idx`'s sender events: if its window opened, the
    /// parked arrival goes back into the queue as a `Generate`.
    fn unpark_if_open(&mut self, idx: usize) {
        let Some(at) = self.parked[idx] else {
            return;
        };
        if let Clients::Tcp(txs) = &self.clients {
            if txs[idx].window_full() {
                return;
            }
        }
        self.parked[idx] = None;
        self.sched
            .schedule_at(at, Event::Generate { client: idx as u32 });
    }

    /// Absorbs every flow's parked arrivals due by now, so the run's
    /// arrival counts are complete wherever the loop stopped.
    fn absorb_all_due(&mut self) {
        for idx in 0..self.parked.len() {
            self.absorb_due(idx);
        }
    }

    fn on_host_delivery(&mut self, packet: Packet) {
        self.host_delivered += 1;
        if packet.flow == CROSS_TRAFFIC_FLOW {
            // Background datagrams carry no transport state; count and drop.
            if let Some(rt) = self.impair_rt.as_mut() {
                rt.counters.cross_delivered += 1;
            }
            return;
        }
        // Which agent handles the packet follows from its kind alone: data
        // flows toward the flow's receiver host, ACKs flow back to its
        // sender. On an arbitrary graph neither end is "the server".
        let idx = packet.flow.0 as usize;
        match packet.kind {
            PacketKind::TcpData { .. } => match &mut self.servers {
                Servers::Tcp(rxs) => {
                    rxs[idx].on_data(&packet, &mut self.sched, &mut self.outbox);
                }
                Servers::Udp(_) => unreachable!("UDP sink received TCP data"),
            },
            PacketKind::Datagram => match &mut self.servers {
                Servers::Udp(sinks) => {
                    let now = self.sched.now();
                    sinks[idx].on_packet(&packet, now);
                }
                Servers::Tcp(_) => unreachable!("TCP receiver got a datagram"),
            },
            PacketKind::TcpAck { ack, ece, sack } => {
                self.absorb_due(idx);
                let Clients::Tcp(txs) = &mut self.clients else {
                    unreachable!("UDP source received a TCP ACK");
                };
                let tx = &mut txs[idx];
                // Snapshot the counters only when a trace log wants the
                // before/after diff — the copy is pure overhead otherwise.
                let before = self.event_log.is_some().then(|| tx.counters());
                tx.on_ack(ack, ece, sack, &mut self.sched, &mut self.outbox);
                if let (Some(log), Some(before)) = (self.event_log.as_mut(), before) {
                    let after = tx.counters();
                    let now = self.sched.now();
                    if after.fast_retransmits > before.fast_retransmits {
                        log.record(now, TraceKind::FastRetransmit { flow: packet.flow });
                    }
                    if after.ecn_window_cuts > before.ecn_window_cuts {
                        log.record(now, TraceKind::EcnCut { flow: packet.flow });
                    }
                }
                self.unpark_if_open(idx);
            }
        }
        self.flush_outbox();
    }

    fn on_transport_timer(&mut self, ev: TransportEvent) {
        let idx = ev.flow.0 as usize;
        match ev.kind {
            TimerKind::Rto | TimerKind::Pace => {
                self.absorb_due(idx);
                if let Clients::Tcp(txs) = &mut self.clients {
                    let tx = &mut txs[idx];
                    let before = tx.counters().timeouts;
                    let live =
                        tx.on_timer(ev.kind, ev.generation, &mut self.sched, &mut self.outbox);
                    if !live {
                        self.stale_fired += 1;
                    }
                    if tx.counters().timeouts > before {
                        if let Some(log) = self.event_log.as_mut() {
                            log.record(self.sched.now(), TraceKind::Timeout { flow: ev.flow });
                        }
                    }
                }
                self.unpark_if_open(idx);
            }
            TimerKind::DelAck => {
                if let Servers::Tcp(rxs) = &mut self.servers {
                    let now = self.sched.now();
                    let live = rxs[idx].on_timer(ev.kind, ev.generation, now, &mut self.outbox);
                    if !live {
                        self.stale_fired += 1;
                    }
                }
            }
        }
        self.flush_outbox();
    }

    fn flush_outbox(&mut self) {
        // FIFO: a burst of segments must hit the wire in sequence order.
        let mut pkts = std::mem::take(&mut self.outbox);
        self.injected += pkts.len() as u64;
        for pkt in pkts.drain(..) {
            self.topo.network.inject(pkt, &mut self.sched);
        }
        self.outbox = pkts; // keep the allocation
    }

    /// End-of-run invariant audit: checks the per-link and global packet
    /// conservation identities, non-negative occupancy, the cwnd floor,
    /// app-layer accounting and clock monotonicity.
    fn run_audit(&self) -> AuditReport {
        let end = self.sched.now();
        let net = &self.topo.network;
        let mut violations = Vec::new();
        let mut queue_drops = 0u64;
        let mut wire_lost = 0u64;
        let mut queued_at_end = 0u64;
        let mut in_flight_at_end = 0u64;

        for id in 0..net.link_count() {
            let link = net.link(tcpburst_net::LinkId(id as u32));
            let q = link.queue().stats();
            let len = link.queue().len() as u64;
            if q.arrivals != q.departures + q.drops_total() + len {
                violations.push(InvariantViolation {
                    invariant: "queue-conservation",
                    detail: format!(
                        "link {id}: arrivals {} != departures {} + drops {} + backlog {len}",
                        q.arrivals,
                        q.departures,
                        q.drops_total()
                    ),
                });
            }
            let s = link.stats();
            if q.departures != s.packets_tx {
                violations.push(InvariantViolation {
                    invariant: "queue-wire-coupling",
                    detail: format!(
                        "link {id}: {} queue departures but {} wire transmissions",
                        q.departures, s.packets_tx
                    ),
                });
            }
            let flight = s.packets_tx as i128
                - s.arrived as i128
                - s.lost_in_flight as i128
                - s.corrupted as i128;
            if flight < 0 {
                violations.push(InvariantViolation {
                    invariant: "wire-conservation",
                    detail: format!(
                        "link {id}: tx {} < arrived {} + lost {} + corrupted {} \
                         (negative in-flight residual {flight})",
                        s.packets_tx, s.arrived, s.lost_in_flight, s.corrupted
                    ),
                });
            }
            let avg = link.queue().occupancy().average(end, link.queue().len());
            if avg.is_nan() || avg < 0.0 {
                violations.push(InvariantViolation {
                    invariant: "occupancy-non-negative",
                    detail: format!("link {id}: time-weighted average backlog {avg}"),
                });
            }
            queue_drops += q.drops_total();
            wire_lost += s.lost_in_flight + s.corrupted;
            queued_at_end += len;
            in_flight_at_end += flight.max(0) as u64;
        }

        let accounted =
            self.host_delivered + queue_drops + wire_lost + queued_at_end + in_flight_at_end;
        if self.injected != accounted {
            violations.push(InvariantViolation {
                invariant: "packet-conservation",
                detail: format!(
                    "injected {} != delivered {} + drops {queue_drops} + wire-lost \
                     {wire_lost} + queued {queued_at_end} + in-flight {in_flight_at_end} \
                     (= {accounted})",
                    self.injected, self.host_delivered
                ),
            });
        }

        let submitted: u64 = match &self.clients {
            Clients::Tcp(txs) => txs.iter().map(|t| t.counters().app_packets_submitted).sum(),
            Clients::Udp(txs) => txs.iter().map(UdpSender::packets_sent).sum(),
        };
        if self.generated != submitted {
            violations.push(InvariantViolation {
                invariant: "app-conservation",
                detail: format!(
                    "{} packets generated but {submitted} submitted to transports",
                    self.generated
                ),
            });
        }

        if let Clients::Tcp(txs) = &self.clients {
            for (i, tx) in txs.iter().enumerate() {
                let cwnd = tx.cwnd();
                if cwnd.is_nan() || cwnd < 1.0 {
                    violations.push(InvariantViolation {
                        invariant: "cwnd-floor",
                        detail: format!("client {i}: cwnd {cwnd} below 1 MSS"),
                    });
                }
                let ssthresh = tx.ssthresh();
                if ssthresh.is_nan() || ssthresh < 2.0 {
                    violations.push(InvariantViolation {
                        invariant: "ssthresh-floor",
                        detail: format!("client {i}: ssthresh {ssthresh} below 2 MSS"),
                    });
                }
            }
        }

        if let Some((prev, t)) = self.clock_violation {
            violations.push(InvariantViolation {
                invariant: "monotone-clock",
                detail: format!("clock stepped backwards from {prev:?} to {t:?}"),
            });
        }

        AuditReport {
            injected: self.injected,
            host_delivered: self.host_delivered,
            queue_drops,
            wire_lost,
            queued_at_end,
            in_flight_at_end,
            violations,
        }
    }

    /// Collects the final report (consumes the scenario).
    pub fn into_report(self) -> ScenarioReport {
        let audit = self.cfg.audit.then(|| self.run_audit());
        let cfg = self.cfg;
        let end = SimTime::ZERO + cfg.duration;
        let bins = self.probe.finish(end);
        let cov = bins.cov();
        let measured_window = cfg.duration - cfg.warmup;
        let pcov = poisson_cov(
            cfg.source.mean_rate(),
            cfg.cov_bin_width().as_secs_f64(),
            cfg.num_flows(),
        );

        let mut flows = Vec::with_capacity(cfg.num_flows());
        match (&self.clients, &self.servers) {
            (Clients::Tcp(txs), Servers::Tcp(rxs)) => {
                for (tx, rx) in txs.iter().zip(rxs) {
                    flows.push(FlowReport {
                        packets_sent: tx.counters().data_packets_sent,
                        delivered: rx.counters().delivered,
                        mean_delay_secs: rx.delay_stats().mean(),
                        tcp: Some(tx.counters()),
                        cwnd_trace: tx.cwnd_trace().cloned(),
                    });
                }
            }
            (Clients::Udp(txs), Servers::Udp(sinks)) => {
                for (tx, sink) in txs.iter().zip(sinks) {
                    flows.push(FlowReport {
                        packets_sent: tx.packets_sent(),
                        delivered: sink.delivered(),
                        mean_delay_secs: sink.mean_delay_secs(),
                        tcp: None,
                        cwnd_trace: None,
                    });
                }
            }
            _ => unreachable!("client and server arenas share one transport kind"),
        }

        let bottleneck_link = self.topo.network.link(self.topo.bottleneck);
        let bottleneck_queue = bottleneck_link.queue().stats();
        let avg_queue_len = bottleneck_link
            .queue()
            .occupancy()
            .average(end, bottleneck_link.queue().len());
        let delivered_packets: u64 = flows.iter().map(|f| f.delivered).sum();
        let goodputs: Vec<f64> = flows.iter().map(|f| f.delivered as f64).collect();

        let mut tcp_totals = tcpburst_transport::TcpCounters::default();
        for f in &flows {
            if let Some(c) = &f.tcp {
                tcp_totals.merge(c);
            }
        }

        let mean_delay_secs = if delivered_packets == 0 {
            0.0
        } else {
            flows
                .iter()
                .map(|f| f.mean_delay_secs * f.delivered as f64)
                .sum::<f64>()
                / delivered_packets as f64
        };
        ScenarioReport {
            cov,
            poisson_cov: pcov,
            bins,
            generated_packets: self.generated,
            delivered_packets,
            loss_percent: bottleneck_queue.loss_fraction() * 100.0,
            bottleneck_queue,
            avg_queue_len,
            mean_delay_secs,
            fairness: jain_fairness(&goodputs),
            tcp_totals,
            flows,
            duration_secs: measured_window.as_secs_f64(),
            events_processed: self.sched.processed(),
            wall_clock_secs: self.wall_clock.as_secs_f64(),
            timers: TimerReport {
                stale_fired: self.stale_fired,
                cancelled_in_place: self.sched.cancelled_in_place(),
                pending_peak: self.sched.pending_peak() as u64,
            },
            dispatch: self.profile,
            event_log: self.event_log,
            hop_series: (!self.hop_occ.is_empty()).then_some(HopSeries {
                occupancy: self.hop_occ,
                utilization: self.hop_util,
            }),
            impairments: self
                .impair_rt
                .map(|rt| rt.counters)
                .unwrap_or_default(),
            audit,
            budget_exceeded: self.budget_exceeded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScenarioBuilder;
    use crate::config::Protocol;

    /// Test scenarios run with the invariant auditor on: every test run
    /// doubles as a conservation check.
    fn quick_cfg(protocol: Protocol, clients: usize, secs: u64) -> ScenarioConfig {
        ScenarioBuilder::paper()
            .topology(|t| t.clients(clients))
            .transport(|t| t.protocol(protocol))
            .instrumentation(|i| i.secs(secs).audit(true))
            .finish()
    }

    fn quick(protocol: Protocol, clients: usize, secs: u64) -> ScenarioReport {
        Scenario::run(&quick_cfg(protocol, clients, secs))
    }

    #[test]
    fn udp_delivers_everything_when_uncongested() {
        let r = quick(Protocol::Udp, 5, 20);
        // 5 clients * 10 pkt/s * 20 s = ~1000 generated; all fit in 3 Mbps.
        assert!(r.generated_packets > 800);
        assert_eq!(r.bottleneck_queue.drops_total(), 0);
        assert_eq!(r.loss_percent, 0.0);
        // Everything generated early enough arrives (tail still in flight).
        assert!(r.delivered_packets as f64 >= 0.98 * r.generated_packets as f64);
    }

    #[test]
    fn udp_cov_tracks_poisson_reference() {
        let r = quick(Protocol::Udp, 20, 60);
        let rel = (r.cov - r.poisson_cov).abs() / r.poisson_cov;
        assert!(
            rel < 0.15,
            "UDP c.o.v. {} vs Poisson {} (rel {:.2})",
            r.cov,
            r.poisson_cov,
            rel
        );
    }

    #[test]
    fn reno_uncongested_delivers_cleanly() {
        let r = quick(Protocol::Reno, 5, 20);
        assert!(r.delivered_packets as f64 >= 0.95 * r.generated_packets as f64);
        assert_eq!(r.tcp_totals.timeouts, 0, "no congestion, no timeouts");
        assert!(r.fairness > 0.95);
    }

    #[test]
    fn reno_heavily_congested_saturates_and_drops() {
        let r = quick(Protocol::Reno, 50, 30);
        // Offered 5000 pkt/s >> capacity 4166.7 pkt/s.
        assert!(r.loss_percent > 0.5, "loss {}%", r.loss_percent);
        assert!(r.tcp_totals.timeouts + r.tcp_totals.fast_retransmits > 0);
        // Delivered bounded by the bottleneck capacity.
        let cap = 4166.7 * 30.0;
        assert!(r.delivered_packets as f64 <= cap * 1.05);
        assert!(
            r.delivered_packets as f64 >= cap * 0.5,
            "delivered {} should approach capacity {}",
            r.delivered_packets,
            cap
        );
    }

    #[test]
    fn reno_congested_is_burstier_than_poisson() {
        let r = quick(Protocol::Reno, 45, 40);
        assert!(
            r.cov > 1.5 * r.poisson_cov,
            "Reno c.o.v. {} should exceed Poisson {}",
            r.cov,
            r.poisson_cov
        );
    }

    #[test]
    fn vegas_smoother_than_reno_under_congestion() {
        let reno = quick(Protocol::Reno, 45, 40);
        let vegas = quick(Protocol::Vegas, 45, 40);
        assert!(
            vegas.cov < reno.cov,
            "Vegas c.o.v. {} should be below Reno {}",
            vegas.cov,
            reno.cov
        );
    }

    #[test]
    fn same_seed_reproduces_identically() {
        let a = quick(Protocol::Reno, 10, 10);
        let b = quick(Protocol::Reno, 10, 10);
        assert_eq!(a.cov, b.cov);
        assert_eq!(a.delivered_packets, b.delivered_packets);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = quick_cfg(Protocol::Reno, 10, 10);
        let a = Scenario::run(&cfg);
        cfg.seed = 99;
        let b = Scenario::run(&cfg);
        assert_ne!(a.generated_packets, b.generated_packets);
    }

    #[test]
    fn cwnd_traces_recorded_when_requested() {
        let mut cfg = quick_cfg(Protocol::Reno, 3, 5);
        cfg.trace_cwnd = true;
        let r = Scenario::run(&cfg);
        assert_eq!(r.flows.len(), 3);
        for f in &r.flows {
            let trace = f.cwnd_trace.as_ref().expect("trace requested");
            assert!(!trace.is_empty());
        }
    }

    #[test]
    fn red_gateway_drops_early() {
        let r = quick(Protocol::RenoRed, 50, 30);
        assert!(
            r.bottleneck_queue.drops_early + r.bottleneck_queue.drops_forced > 0,
            "RED should be dropping probabilistically under overload"
        );
    }

    #[test]
    fn report_accounting_is_internally_consistent() {
        let r = quick(Protocol::Reno, 20, 20);
        let per_flow_delivered: u64 = r.flows.iter().map(|f| f.delivered).sum();
        assert_eq!(per_flow_delivered, r.delivered_packets);
        assert!(r.tcp_totals.data_packets_sent >= r.delivered_packets);
        assert!(r.events_processed > 0);
        assert!(!r.impairments.any(), "healthy run fired no impairments");
    }

    #[test]
    fn flaps_cause_outages_and_recoveries() {
        let cfg = ScenarioBuilder::from_config(quick_cfg(Protocol::Reno, 5, 10))
            .impairments(|i| {
                i.flap(SimDuration::from_millis(500), SimDuration::from_secs(2))
            })
            .finish();
        let r = Scenario::run(&cfg);
        // Cycle 2.5 s over 10 s: downs at 2, 4.5, 7, 9.5; ups at 2.5, 5,
        // 7.5, and 10 (events at exactly the end time still dispatch).
        assert_eq!(r.impairments.link_down_events, 4);
        assert_eq!(r.impairments.link_up_events, 4);
        assert!(
            r.impairments.lost_in_flight > 0,
            "a loaded bottleneck going down catches packets mid-flight"
        );
        assert!(r.delivered_packets > 0, "flows recover between outages");
    }

    #[test]
    fn flap_trace_appears_in_the_event_log() {
        let mut cfg = ScenarioBuilder::from_config(quick_cfg(Protocol::Reno, 3, 10))
            .impairments(|i| {
                i.flap(SimDuration::from_secs(1), SimDuration::from_secs(3))
            })
            .finish();
        cfg.trace_events = true;
        let r = Scenario::run(&cfg);
        let log = r.event_log.expect("trace requested");
        let downs = log
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::LinkDown)
            .count();
        let ups = log
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::LinkUp)
            .count();
        assert_eq!(downs as u64, r.impairments.link_down_events);
        assert_eq!(ups as u64, r.impairments.link_up_events);
    }

    #[test]
    fn corruption_loses_packets_deterministically() {
        let clean = quick(Protocol::Reno, 5, 10);
        let cfg = ScenarioBuilder::from_config(quick_cfg(Protocol::Reno, 5, 10))
            .impairments(|i| i.corrupt(0.02))
            .finish();
        let a = Scenario::run(&cfg);
        let b = Scenario::run(&cfg);
        assert!(a.impairments.corrupted > 0);
        assert!(a.delivered_packets < clean.delivered_packets);
        assert_eq!(a.delivered_packets, b.delivered_packets);
        assert_eq!(a.impairments.corrupted, b.impairments.corrupted);
        assert_eq!(a.cov, b.cov);
    }

    #[test]
    fn cross_traffic_competes_and_is_counted_separately() {
        let cfg = ScenarioBuilder::from_config(quick_cfg(Protocol::Reno, 5, 10))
            .impairments(|i| i.cross(500.0, 1500))
            .finish();
        let r = Scenario::run(&cfg);
        // Poisson 500 pkt/s over 10 s: ~5000 injections.
        assert!(r.impairments.cross_injected > 4000);
        assert!(r.impairments.cross_delivered > 0);
        assert!(r.impairments.cross_delivered <= r.impairments.cross_injected);
        // Cross datagrams never appear in per-flow goodput.
        let per_flow: u64 = r.flows.iter().map(|f| f.delivered).sum();
        assert_eq!(per_flow, r.delivered_packets);
    }

    #[test]
    fn audit_passes_and_conservation_holds_exactly() {
        for protocol in [Protocol::Udp, Protocol::Reno, Protocol::VegasRed] {
            let r = quick(protocol, 20, 10);
            let audit = r.audit.as_ref().expect("audit enabled in tests");
            assert!(audit.passed(), "{protocol:?}: {audit}");
            assert_eq!(
                audit.injected,
                audit.host_delivered
                    + audit.queue_drops
                    + audit.wire_lost
                    + audit.queued_at_end
                    + audit.in_flight_at_end,
                "{protocol:?}"
            );
            assert!(audit.injected > 0);
        }
    }

    #[test]
    fn audit_passes_under_combined_impairments() {
        let cfg = ScenarioBuilder::from_config(quick_cfg(Protocol::Reno, 10, 10))
            .impairments(|i| {
                i.flap(SimDuration::from_millis(500), SimDuration::from_secs(2))
                    .corrupt(1e-3)
                    .cross(200.0, 1500)
            })
            .finish();
        let r = Scenario::run(&cfg);
        let audit = r.audit.as_ref().expect("audit enabled");
        assert!(audit.passed(), "{audit}");
        assert!(audit.wire_lost > 0, "flaps and corruption lose packets");
    }

    #[test]
    fn audit_does_not_change_the_simulation() {
        let mut cfg = quick_cfg(Protocol::Reno, 15, 10);
        cfg.audit = false;
        let plain = Scenario::run(&cfg);
        cfg.audit = true;
        let audited = Scenario::run(&cfg);
        assert!(plain.audit.is_none());
        assert_eq!(plain.cov, audited.cov);
        assert_eq!(plain.delivered_packets, audited.delivered_packets);
        assert_eq!(plain.events_processed, audited.events_processed);
    }

    #[test]
    fn event_budget_aborts_into_partial_report() {
        let cfg = quick_cfg(Protocol::Reno, 10, 30);
        let budget = RunBudget {
            max_events: Some(500),
            ..RunBudget::UNLIMITED
        };
        let mut s = Scenario::new(&cfg);
        let exceeded = s.run_with_budget(&budget);
        assert_eq!(exceeded, Some(ExceededBudget::Events));
        let r = s.into_report();
        assert_eq!(r.budget_exceeded, Some(ExceededBudget::Events));
        assert_eq!(r.events_processed, 500);
        assert!(r.to_string().contains("PARTIAL RUN"));
    }

    #[test]
    fn sim_time_budget_truncates_the_horizon() {
        let cfg = quick_cfg(Protocol::Reno, 5, 20);
        let budget = RunBudget {
            max_sim_time: Some(SimDuration::from_secs(2)),
            ..RunBudget::UNLIMITED
        };
        let mut s = Scenario::new(&cfg);
        let exceeded = s.run_with_budget(&budget);
        assert_eq!(exceeded, Some(ExceededBudget::SimTime));
        assert_eq!(s.now(), SimTime::ZERO + SimDuration::from_secs(2));
    }

    #[test]
    fn generous_budget_is_not_exceeded() {
        let cfg = quick_cfg(Protocol::Udp, 3, 2);
        let budget = RunBudget {
            max_events: Some(u64::MAX),
            max_sim_time: Some(SimDuration::from_secs(1000)),
            ..RunBudget::UNLIMITED
        };
        let mut s = Scenario::new(&cfg);
        assert_eq!(s.run_with_budget(&budget), None);
        let r = s.into_report();
        assert_eq!(r.budget_exceeded, None);
        assert!(r.delivered_packets > 0);
    }

    /// Arrivals at or before `horizon`, counted by redrawing every flow's
    /// Poisson stream independently of the event loop.
    fn oracle_arrivals(cfg: &ScenarioConfig, horizon: SimTime) -> u64 {
        let SourceKind::Poisson { rate } = cfg.source else {
            panic!("the oracle redraws Poisson sources only");
        };
        (0..cfg.num_flows())
            .map(|i| {
                let mut source = PoissonSource::new(rate, SimRng::derive(cfg.seed, i as u64));
                let mut count = 0;
                let mut at = SimTime::ZERO + source.next_gap();
                while at <= horizon {
                    count += 1;
                    at += source.next_gap();
                }
                count
            })
            .sum()
    }

    #[test]
    fn generated_packets_match_an_independent_arrival_oracle() {
        let parking_lot = ScenarioBuilder::from_config(quick_cfg(Protocol::Reno, 1, 10))
            .topology(|t| {
                t.shape(crate::config::TopoKind::ParkingLot {
                    hops: 5,
                    flows_per_hop: 4,
                })
            })
            .finish();
        for mut cfg in [
            quick_cfg(Protocol::Reno, 64, 10),
            quick_cfg(Protocol::Udp, 64, 10),
            parking_lot,
        ] {
            let expected = oracle_arrivals(&cfg, SimTime::ZERO + cfg.duration);
            // Both loops: auditing takes the budgeted one.
            for audit in [false, true] {
                cfg.audit = audit;
                let r = Scenario::run(&cfg);
                assert_eq!(
                    r.generated_packets, expected,
                    "{:?} audit={audit}",
                    cfg.topology
                );
                assert!(r.audit.as_ref().is_none_or(AuditReport::passed));
            }
        }
    }

    #[test]
    fn window_full_senders_dispatch_almost_no_generate_events() {
        let reno = quick(Protocol::Reno, 64, 30);
        assert!(
            reno.dispatch.generate.count * 20 <= reno.generated_packets,
            "{} Generate events for {} arrivals",
            reno.dispatch.generate.count,
            reno.generated_packets
        );
        let udp = quick(Protocol::Udp, 64, 30);
        assert_eq!(udp.dispatch.generate.count, udp.generated_packets);
    }

    #[test]
    fn event_budget_stop_keeps_arrival_accounting_exact() {
        let cfg = quick_cfg(Protocol::Reno, 64, 30);
        let budget = RunBudget {
            max_events: Some(200_000),
            ..RunBudget::UNLIMITED
        };
        let mut s = Scenario::new(&cfg);
        assert_eq!(s.run_with_budget(&budget), Some(ExceededBudget::Events));
        let stopped_at = s.now();
        let r = s.into_report();
        assert!(
            r.dispatch.generate.count < r.generated_packets,
            "the stop must land while arrivals are being absorbed"
        );
        assert_eq!(r.generated_packets, oracle_arrivals(&cfg, stopped_at));
        let audit = r.audit.as_ref().expect("audit enabled");
        assert!(audit.passed(), "{audit}");
    }

    #[test]
    fn capacity_and_delay_variation_stretch_delays() {
        let base = quick(Protocol::Reno, 5, 10);
        let cfg = ScenarioBuilder::from_config(quick_cfg(Protocol::Reno, 5, 10))
            .impairments(|i| {
                i.capacity(0.2, SimDuration::from_secs(1))
                    .delay_variation(4.0, SimDuration::from_secs(1))
            })
            .finish();
        let r = Scenario::run(&cfg);
        assert!(
            r.mean_delay_secs > base.mean_delay_secs,
            "degraded bottleneck ({} s) should beat nominal ({} s)",
            r.mean_delay_secs,
            base.mean_delay_secs
        );
        assert!(r.delivered_packets > 0);
    }
}

