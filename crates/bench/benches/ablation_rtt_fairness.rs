//! Ablation: heterogeneous round-trip times.
//!
//! The paper's topology gives every client the same RTT, which flatters
//! both protocols' fairness. Real distributed systems do not. This sweep
//! spreads the clients' access delays linearly (client M's delay up to
//! `1 + spread` times client 1's) and reports Jain's fairness index: Reno's
//! throughput bias against long-RTT flows (`1/RTT` scaling) versus Vegas's
//! queue-based sharing.

use tcpburst_bench::{bench_duration, bench_seed, cross, grid};
use tcpburst_core::{Protocol, ScenarioBuilder};
use tcpburst_stats::RunningStats;

fn main() {
    let duration = bench_duration();
    let clients = 50;
    println!(
        "# Ablation: RTT heterogeneity vs fairness, {clients} clients, {duration} per cell"
    );
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>14} {:>14}",
        "spread", "proto", "fairness", "delivered", "min flow", "max flow"
    );
    let rows = cross(&[0.0, 1.0, 3.0, 9.0], &[Protocol::Reno, Protocol::Vegas]);
    let runs = grid(rows, |&(spread, p)| {
        ScenarioBuilder::paper()
            .topology(|t| t.clients(clients).rtt_spread(spread))
            .transport(|t| t.protocol(p))
            .instrumentation(|i| i.duration(duration).seed(bench_seed()))
            .finish()
    });
    for ((spread, p), r) in runs {
        let flows: RunningStats = r.flows.iter().map(|f| f.delivered as f64).collect();
        println!(
            "{:>8} {:>8} {:>10.4} {:>12} {:>14.0} {:>14.0}",
            spread,
            p.label(),
            r.fairness,
            r.delivered_packets,
            flows.min(),
            flows.max()
        );
    }
    println!(
        "\n(spread s: client i's access delay = 2ms * (1 + s*i/(M-1)); at s = 9 the\n longest path has a 10x base RTT.)"
    );
}
