//! Ablation: Vegas (alpha, beta) thresholds.
//!
//! The paper's Section 3.5 explains Vegas/RED's pathology through the
//! aggregate queue Vegas tries to hold at the gateway (between alpha and
//! beta packets *per stream*). This sweep varies the band and reports the
//! burstiness/loss trade-off, on both FIFO and RED gateways.

use tcpburst_bench::{bench_duration, bench_seed, cross, grid};
use tcpburst_core::{Protocol, ScenarioBuilder};
use tcpburst_transport::VegasParams;

fn main() {
    let duration = bench_duration();
    let clients = 45;
    println!(
        "# Ablation: Vegas (alpha, beta), {clients} clients, {duration} per cell"
    );
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>12} {:>8} {:>10}",
        "(a, b)", "gateway", "cov", "cov/pois", "delivered", "loss%", "peak q"
    );
    let bands = [(0.5, 1.5), (1.0, 3.0), (2.0, 4.0), (4.0, 8.0)];
    let rows = cross(&bands, &[Protocol::Vegas, Protocol::VegasRed]);
    let runs = grid(rows, |&((alpha, beta), p)| {
        ScenarioBuilder::paper()
            .topology(|t| t.clients(clients))
            .transport(|t| {
                t.protocol(p).vegas(VegasParams {
                    alpha,
                    beta,
                    gamma: 1.0,
                })
            })
            .instrumentation(|i| i.duration(duration).seed(bench_seed()))
            .finish()
    });
    for (((alpha, beta), p), r) in runs {
        println!(
            "{:>12} {:>10} {:>10.4} {:>10.2} {:>12} {:>8.2} {:>10}",
            format!("({alpha}, {beta})"),
            if p == Protocol::Vegas { "FIFO" } else { "RED" },
            r.cov,
            r.cov_ratio(),
            r.delivered_packets,
            r.loss_percent,
            r.bottleneck_queue.peak_len
        );
    }
    println!(
        "\n(With ~45 streams, aggregate target queue = 45*[alpha, beta] packets; once\n 45*alpha exceeds RED's max_th = 40 the RED gateway drops every arrival —\n the paper's Vegas/RED failure mode.)"
    );
}
