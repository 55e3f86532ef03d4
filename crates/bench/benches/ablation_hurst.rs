//! Ablation: c.o.v. versus the Hurst parameter.
//!
//! The paper argues the c.o.v. "better reflects the burstiness of the
//! incoming traffic" than the Hurst parameter used throughout the
//! self-similarity literature. This target computes both on the *same*
//! gateway arrival series (variance-time and R/S Hurst estimates alongside
//! the c.o.v.) so the two views can be compared directly.

use tcpburst_bench::{bench_duration, bench_seed, cross, grid};
use tcpburst_core::{Protocol, ScenarioBuilder};
use tcpburst_des::SimDuration;
use tcpburst_stats::{autocorrelation, hurst, index_of_dispersion};

fn main() {
    let duration = bench_duration();
    println!("# Ablation: c.o.v. vs Hurst/IDC/autocorrelation on the same arrival series, {duration} per cell");
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "clients", "proto", "cov", "cov/pois", "H(var-t)", "H(R/S)", "IDC", "ac(1)"
    );
    let rows = cross(
        &[20usize, 39, 60],
        &[Protocol::Udp, Protocol::Reno, Protocol::Vegas],
    );
    let runs = grid(rows, |&(clients, p)| {
        ScenarioBuilder::paper()
            .topology(|t| t.clients(clients))
            .transport(|t| t.protocol(p))
            // Finer bins give the Hurst estimators more points to aggregate.
            .instrumentation(|i| {
                i.duration(duration)
                    .seed(bench_seed())
                    .cov_bin(Some(SimDuration::from_millis(11)))
            })
            .finish()
    });
    for ((clients, p), r) in runs {
        let series = r.bins.to_f64();
        let h_vt = hurst::variance_time(&series);
        let h_rs = hurst::rescaled_range(&series);
        let idc = index_of_dispersion(&series);
        let ac = autocorrelation(&series, 1);
        let lag1 = ac.get(1).copied();
        let fmt = |h: Option<f64>| h.map_or("-".to_string(), |v| format!("{v:.3}"));
        println!(
            "{:>8} {:>8} {:>10.4} {:>10.2} {:>10} {:>10} {:>8.2} {:>8}",
            clients,
            p.label(),
            r.cov,
            r.cov_ratio(),
            fmt(h_vt),
            fmt(h_rs),
            idc,
            fmt(lag1)
        );
    }
    println!(
        "\n(H near 0.5 = short-range dependent; the paper's point is that TCP's\n burstiness shows in the c.o.v. even where H stays unremarkable.)"
    );
}
