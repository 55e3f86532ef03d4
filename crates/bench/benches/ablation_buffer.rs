//! Ablation: gateway buffer size.
//!
//! The paper (citing Lakshman–Madhow) notes that Reno's performance "varies
//! significantly with respect to the gateway buffer size" while Vegas needs
//! only a few packets per connection. This sweep varies B around the
//! paper's 50 packets and reports burstiness, goodput and loss for both.

use tcpburst_bench::{bench_duration, bench_seed, cross, grid};
use tcpburst_core::{Protocol, ScenarioBuilder};

fn main() {
    let duration = bench_duration();
    let clients = 45;
    println!(
        "# Ablation: gateway buffer size (B), {clients} clients, {duration} per cell"
    );
    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>12} {:>8} {:>10}",
        "B", "proto", "cov", "cov/pois", "delivered", "loss%", "timeouts"
    );
    let rows = cross(
        &[10usize, 25, 50, 100, 200, 400],
        &[Protocol::Reno, Protocol::Vegas],
    );
    let runs = grid(rows, |&(buffer, p)| {
        ScenarioBuilder::paper()
            .topology(|t| t.clients(clients).buffer_pkts(buffer))
            .transport(|t| t.protocol(p))
            .instrumentation(|i| i.duration(duration).seed(bench_seed()))
            .finish()
    });
    for ((buffer, p), r) in runs {
        println!(
            "{:>6} {:>8} {:>10.4} {:>10.2} {:>12} {:>8.2} {:>10}",
            buffer,
            p.label(),
            r.cov,
            r.cov_ratio(),
            r.delivered_packets,
            r.loss_percent,
            r.tcp_totals.timeouts
        );
    }
}
