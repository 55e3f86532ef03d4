//! Ablation: source law.
//!
//! The self-similarity literature attributes aggregate burstiness to
//! heavy-tailed *inputs*; the paper attributes it to TCP's *modulation*.
//! This sweep crosses both factors: {CBR, Poisson, Pareto ON/OFF} inputs x
//! {UDP, Reno, Vegas} transports, reporting the gateway c.o.v. for each.
//! If the paper is right, the transport factor moves the c.o.v. more than
//! the input factor once the network is congested.

use tcpburst_bench::{bench_duration, bench_seed, cross, grid};
use tcpburst_core::{Protocol, ScenarioBuilder, SourceKind};
use tcpburst_traffic::ParetoOnOffConfig;

fn main() {
    let duration = bench_duration();
    let clients = 60;
    println!("# Ablation: source law x transport, {clients} clients, {duration} per cell");
    println!(
        "{:>14} {:>8} {:>10} {:>12} {:>8}",
        "source", "proto", "cov", "delivered", "loss%"
    );
    let sources: [(&str, SourceKind); 3] = [
        ("CBR", SourceKind::Cbr { rate: 100.0 }),
        ("Poisson", SourceKind::Poisson { rate: 100.0 }),
        (
            "ParetoOnOff",
            SourceKind::ParetoOnOff(ParetoOnOffConfig {
                peak_rate: 200.0,
                mean_on_secs: 0.5,
                mean_off_secs: 0.5,
                shape: 1.5,
            }),
        ),
    ];
    let rows = cross(&sources, &[Protocol::Udp, Protocol::Reno, Protocol::Vegas]);
    let runs = grid(rows, |&((_, source), p)| {
        ScenarioBuilder::paper()
            .topology(|t| t.clients(clients))
            .transport(|t| t.protocol(p))
            .workload(|w| w.source(source))
            .instrumentation(|i| i.duration(duration).seed(bench_seed()))
            .finish()
    });
    for (((name, _), p), r) in runs {
        println!(
            "{:>14} {:>8} {:>10.4} {:>12} {:>8.2}",
            name,
            p.label(),
            r.cov,
            r.delivered_packets,
            r.loss_percent
        );
    }
}
