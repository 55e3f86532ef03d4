//! Ablation: c.o.v. bin width.
//!
//! The paper measures burstiness in bins of one round-trip propagation
//! delay (44 ms), arguing that statistical multiplexing lives or dies at
//! millisecond granularity. This sweep recomputes the Reno-vs-Poisson
//! c.o.v. ratio across bin widths to show the conclusion is not an artifact
//! of the 44 ms choice.

use tcpburst_bench::{bench_duration, bench_seed, cross, grid};
use tcpburst_core::{Protocol, ScenarioBuilder};
use tcpburst_des::SimDuration;

fn main() {
    let duration = bench_duration();
    let clients = 60;
    println!("# Ablation: c.o.v. bin width, {clients} clients, {duration} per cell");
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>10}",
        "bin(ms)", "proto", "cov", "poisson", "ratio"
    );
    let rows = cross(
        &[11u64, 22, 44, 88, 176, 352, 1000],
        &[Protocol::Udp, Protocol::Reno, Protocol::Vegas],
    );
    let runs = grid(rows, |&(bin_ms, p)| {
        ScenarioBuilder::paper()
            .topology(|t| t.clients(clients))
            .transport(|t| t.protocol(p))
            .instrumentation(|i| {
                i.duration(duration)
                    .seed(bench_seed())
                    .cov_bin(Some(SimDuration::from_millis(bin_ms)))
            })
            .finish()
    });
    for ((bin_ms, p), r) in runs {
        println!(
            "{:>10} {:>10} {:>12.4} {:>12.4} {:>10.2}",
            bin_ms,
            p.label(),
            r.cov,
            r.poisson_cov,
            r.cov_ratio()
        );
    }
    println!(
        "\n(The Poisson reference falls as 1/sqrt(bin). TCP Reno's excess peaks at\n RTT-to-few-RTT bins and washes out at second-scale bins: the burstiness is\n an RTT-scale, oscillatory phenomenon — the scale where statistical\n multiplexing lives, and one coarse Hurst aggregation never sees.)"
    );
}
