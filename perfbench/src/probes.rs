//! Layer probes of the traced run: small, fixed loops through one layer's
//! public API each, for the layers a workload's own passes do not reach.

use std::path::Path;
use std::time::Instant;

use tcpburst_core::experiments::{Sweep, SweepCell};
use tcpburst_core::{codec, point_digest, ResultStore, RunJournal, ScenarioConfig};
use tcpburst_des::{EventQueue, Scheduler, SimDuration, SimRng, SimTime};
use tcpburst_net::{Ecn, FlowId, NetEvent, NodeId, Packet, PacketKind, SackBlocks};
use tcpburst_stats::BinnedCounter;
use tcpburst_traffic::{paper_source, ArrivalProcess};
use tcpburst_transport::{TcpConfig, TcpSender, TcpVariant, TransportEvent};

use crate::trace::Tracer;
use crate::workloads::{point_cfg, tables, Echo, Grid};

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Median of `reps` timings of `f`, each returning its own figure.
fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<_>>())
}

/// The `bench_des` hold model on the default queue backend: prefill `n`
/// events at exponential gaps, then `ops` holds (pop the earliest, push it
/// back one exponential increment later). Nanoseconds per queue operation,
/// counting a hold as one pop plus one push.
pub fn hold_ns_per_op(n: usize, ops: usize) -> f64 {
    median_of(3, || {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(n);
        let mut rng = SimRng::seed_from_u64(0xDE5_BE7C ^ n as u64);
        let gap = |rng: &mut SimRng| (rng.exponential(1.0) * 1e6) as u64 + 1;
        let mut t = 0u64;
        for i in 0..n {
            t += gap(&mut rng);
            q.push(SimTime::from_nanos(t), i as u64);
        }
        let start = Instant::now();
        for i in 0..ops {
            let (popped, _) = q.pop().expect("hold model never empties");
            let next = popped.as_nanos() + gap(&mut rng);
            q.push(SimTime::from_nanos(next), i as u64);
        }
        start.elapsed().as_nanos() as f64 / (ops * 2) as f64
    })
}

/// Nanoseconds per packet driven through `Network`: each round injects one
/// datagram per flow and pumps the link events until the network drains.
pub fn net_ns_per_packet(cfgs: &[ScenarioConfig], rounds: usize) -> Result<f64, String> {
    let mut built = Vec::new();
    for cfg in cfgs {
        built.push(cfg.topology_spec().build().map_err(|e| e.to_string())?);
    }
    Ok(median_of(3, || {
        let mut packets = 0u64;
        let mut nanos = 0u128;
        for b in built.iter_mut() {
            let mut sched: Scheduler<NetEvent> = Scheduler::new();
            let start = Instant::now();
            for _ in 0..rounds {
                for (i, f) in b.flows.iter().enumerate() {
                    let pkt = Packet {
                        flow: FlowId(i as u32),
                        kind: PacketKind::Datagram,
                        size_bytes: 1000,
                        src: f.src,
                        dst: f.dst,
                        created_at: sched.now(),
                        ecn: Ecn::NotCapable,
                    };
                    b.network.inject(pkt, &mut sched);
                    packets += 1;
                }
                while let Some((_, ev)) = sched.pop() {
                    match ev {
                        NetEvent::TxComplete { link, epoch } => {
                            b.network.on_tx_complete(link, epoch, &mut sched)
                        }
                        NetEvent::Delivery {
                            link,
                            epoch,
                            packet,
                        } => {
                            std::hint::black_box(
                                b.network.on_delivery(link, epoch, packet, &mut sched),
                            );
                        }
                    }
                }
            }
            nanos += start.elapsed().as_nanos();
        }
        nanos as f64 / packets as f64
    }))
}

/// Microseconds per topology build (graph, routes, flow check), averaged
/// over the given configurations.
pub fn net_build_us(cfgs: &[ScenarioConfig]) -> Result<f64, String> {
    for cfg in cfgs {
        cfg.topology_spec().build().map_err(|e| e.to_string())?;
    }
    Ok(median_of(21, || {
        let start = Instant::now();
        for cfg in cfgs {
            std::hint::black_box(cfg.topology_spec().build().ok());
        }
        start.elapsed().as_secs_f64() * 1e6 / cfgs.len() as f64
    }))
}

/// Nanoseconds per ACK through `TcpSender::on_ack` with an unbounded
/// backlog: the clock advances 0.5 ms between ACKs (firing any due timer
/// into `on_timer`), and each ACK acknowledges one more segment.
pub fn transport_ns_per_ack(variant: TcpVariant, acks: u64) -> f64 {
    median_of(5, || {
        let mut s = TcpSender::new(TcpConfig::paper(variant), FlowId(0), NodeId(0), NodeId(1));
        let mut sched: Scheduler<TransportEvent> = Scheduler::new();
        let mut out = Vec::new();
        s.on_app_packets(u64::from(u32::MAX), &mut sched, &mut out);
        let mut done = 0u64;
        let start = Instant::now();
        for _ in 0..acks * 100 {
            let target = sched.now() + SimDuration::from_micros(500);
            while let Some((_, ev)) = sched.pop_until(target) {
                s.on_timer(ev.kind, ev.generation, &mut sched, &mut out);
            }
            if s.in_flight() > 0 {
                let next = s.snd_una().next();
                s.on_ack(next, false, SackBlocks::EMPTY, &mut sched, &mut out);
                done += 1;
                if done == acks {
                    break;
                }
            }
            out.clear();
        }
        start.elapsed().as_nanos() as f64 / done.max(1) as f64
    })
}

/// Nanoseconds per packet gap drawn from the paper's Poisson source.
pub fn traffic_ns_per_packet(n: u64) -> f64 {
    median_of(3, || {
        let mut src = paper_source(0x007A_FF1C, 0);
        let mut sum = 0u64;
        let start = Instant::now();
        for _ in 0..n {
            sum = sum.wrapping_add(src.next_gap().as_nanos());
        }
        std::hint::black_box(sum);
        start.elapsed().as_nanos() as f64 / n as f64
    })
}

/// Nanoseconds per sample recorded into the c.o.v. probe's
/// `BinnedCounter` (44 ms bins, 100 packets/s Poisson arrivals from 64
/// clients), including the final c.o.v. computation.
pub fn stats_ns_per_sample(n: u64) -> f64 {
    median_of(3, || {
        let mut rng = SimRng::seed_from_u64(0x0005_7A75);
        let times: Vec<SimTime> = {
            let mut t = 0u64;
            (0..n)
                .map(|_| {
                    t += (rng.exponential(6400.0) * 1e9) as u64;
                    SimTime::from_nanos(t)
                })
                .collect()
        };
        let end = times.last().copied().unwrap_or(SimTime::ZERO);
        let start = Instant::now();
        let mut counter = BinnedCounter::new(SimDuration::from_millis(44));
        for &t in &times {
            counter.record(t);
        }
        std::hint::black_box(counter.finish(end).cov());
        start.elapsed().as_nanos() as f64 / n as f64
    })
}

/// Spans for codec, store, journal, render and frame calls over the
/// reports of `grid`, recorded into `tr`.
pub fn layer_io(tr: &Tracer, grid: &Grid, dir: &Path) -> Result<(), String> {
    let store = ResultStore::open(dir.join("probe-store")).map_err(|e| e.to_string())?;
    let journal_path = dir.join("probe-journal.jsonl");
    let sweep = point_digest(&grid.base);
    let journal = RunJournal::create(&journal_path, &sweep).map_err(|e| e.to_string())?;
    let mut pipe = Echo::pipe()?;
    let mut tcp = Echo::tcp()?;
    let mut entries = Vec::new();
    let mut cells = Vec::new();
    for (i, report) in grid.reports.iter().enumerate() {
        let (p, n) = grid.points[i];
        let cfg = point_cfg(&grid.base, p, n);
        let digest = tr.span("store.digest", 0, Some(i), |_| point_digest(&cfg));
        let payload = tr
            .span("codec.encode", 0, Some(i), |_| codec::encode(report))
            .ok_or("report refused by the codec")?;
        tr.span("codec.decode", 0, Some(i), |_| codec::decode(&payload))
            .ok_or("payload failed to decode")?;
        tr.span("frame.pipe", 0, Some(i), |_| {
            pipe.round_trip(payload.as_bytes())
        })?;
        tr.span("frame.tcp", 0, Some(i), |_| {
            tcp.round_trip(payload.as_bytes())
        })?;
        tr.span("store.put", 0, Some(i), |_| store.put(&digest, report))
            .map_err(|e| e.to_string())?;
        let back = tr
            .span("store.get", 0, Some(i), |_| store.get(&digest))
            .ok_or("stored report missing")?;
        let entry =
            tcpburst_core::JournalEntry::from_report(digest.hex(), p, n, grid.base.seed, &back);
        tr.span("journal.append", 0, Some(i), |_| journal.append(&entry))
            .map_err(|e| e.to_string())?;
        entries.push(entry);
        cells.push(SweepCell {
            protocol: p,
            clients: n,
            report: back,
        });
    }
    tr.span("journal.finalize", 0, None, |_| journal.finalize(&entries))
        .map_err(|e| e.to_string())?;
    let sweep = Sweep::from_cells(cells, grid.protocols.clone(), grid.clients.clone());
    let rendered = tr.span("experiments.render", 0, None, |_| tables(&sweep));
    if rendered != grid.ref_tables {
        return Err("probe tables differ from the reference".into());
    }
    Ok(())
}
