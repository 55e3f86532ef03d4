//! Ablation: active queue management beyond the paper — ECN marking and
//! self-configuring RED.
//!
//! The paper concludes that (fixed-parameter, dropping) RED hurts both Reno
//! and Vegas. Two of its own citations point at remedies: explicit
//! congestion notification (mark, don't drop) and the self-configuring RED
//! gateway of reference [5] (adapt `max_p` to the load). This target
//! quantifies how much of the RED pathology each remedy recovers.

use tcpburst_bench::{bench_duration, bench_seed, cross, grid};
use tcpburst_core::{GatewayKind, Protocol, ScenarioBuilder};

fn main() {
    let duration = bench_duration();
    let clients = 60;
    println!("# Ablation: AQM variants, {clients} clients, {duration} per cell");
    println!(
        "{:>10} {:>16} {:>6} {:>10} {:>10} {:>12} {:>8} {:>8} {:>9}",
        "proto", "gateway", "ecn", "cov", "cov/pois", "delivered", "loss%", "marks", "ecn cuts"
    );
    let cells: [(GatewayKind, bool, &str); 4] = [
        (GatewayKind::Fifo, false, "FIFO"),
        (GatewayKind::Red, false, "RED"),
        (GatewayKind::Red, true, "RED"),
        (GatewayKind::AdaptiveRed, false, "AdaptiveRED"),
    ];
    let rows = cross(&[Protocol::Reno, Protocol::Vegas], &cells);
    let runs = grid(rows, |&(base, (gateway, ecn, _))| {
        ScenarioBuilder::paper()
            .transport(|t| t.protocol(base).ecn(ecn))
            .topology(|t| t.clients(clients).gateway(gateway))
            .instrumentation(|i| i.duration(duration).seed(bench_seed()))
            .finish()
    });
    for ((base, (_, ecn, gw_name)), r) in runs {
        println!(
            "{:>10} {:>16} {:>6} {:>10.4} {:>10.2} {:>12} {:>8.2} {:>8} {:>9}",
            base.label(),
            gw_name,
            if ecn { "on" } else { "off" },
            r.cov,
            r.cov_ratio(),
            r.delivered_packets,
            r.loss_percent,
            r.bottleneck_queue.ecn_marks,
            r.tcp_totals.ecn_window_cuts
        );
    }
    println!("\n(marks = packets CE-marked instead of dropped; ecn cuts = window\n reductions taken on echo rather than on loss)");
}
