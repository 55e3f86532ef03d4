//! Burstiness of the generalized-AIMD family: the paper's c.o.v. probe
//! (Figure 2) swept across the Ott–Swanson additive-increase exponent
//! `alpha` at a fixed multiplicative-decrease exponent `beta`.
//!
//! `alpha = 0, beta = 1` is exactly Reno — bit-for-bit, which the example
//! asserts against a plain Reno run before printing anything — so the
//! first row anchors the sweep to the paper's workhorse and the remaining
//! rows show how softening the increase changes the aggregated traffic.
//!
//! ```text
//! cargo run --release --example gaimd_cov [seconds] [clients] [beta]
//! ```

use std::env;

use tcpburst_core::experiments::GaimdAlphaSweep;
use tcpburst_core::{Protocol, Scenario, ScenarioBuilder, SweepSupervisor};
use tcpburst_transport::GaimdParams;

fn main() {
    let mut args = env::args().skip(1);
    let seconds: u64 = args
        .next()
        .map(|a| a.parse().expect("seconds must be an integer"))
        .unwrap_or(20);
    let clients: usize = args
        .next()
        .map(|a| a.parse().expect("clients must be an integer"))
        .unwrap_or(39);
    let beta: f64 = args
        .next()
        .map(|a| a.parse().expect("beta must be a float"))
        .unwrap_or(1.0);
    let alphas = [0.0, 0.2, 0.4, 0.6, 0.8];

    let configs: Vec<_> = alphas
        .iter()
        .map(|&alpha| {
            ScenarioBuilder::paper()
                .topology(|t| t.clients(clients))
                .transport(|t| {
                    t.protocol(Protocol::Gaimd)
                        .gaimd(GaimdParams { alpha, beta })
                })
                .instrumentation(|i| i.secs(seconds))
                .finish()
        })
        .collect();

    println!(
        "Sweeping GAIMD alpha in {alphas:?} (beta = {beta}), {clients} clients, {seconds} s each...\n"
    );
    let reports = SweepSupervisor::from_configs(&configs)
        .run_grid()
        .reports()
        .expect("every alpha completes");
    let sweep = GaimdAlphaSweep {
        cells: alphas.into_iter().zip(reports).collect(),
        beta,
        clients,
    };

    // Regression anchor: with the default exponents GAIMD *is* Reno, so
    // the alpha = 0 row of a beta = 1 sweep must match a Reno run exactly.
    if beta == 1.0 {
        let reno_cfg = ScenarioBuilder::paper()
            .topology(|t| t.clients(clients))
            .transport(|t| t.protocol(Protocol::Reno))
            .instrumentation(|i| i.secs(seconds))
            .finish();
        let reno = Scenario::run(&reno_cfg);
        let gaimd = &sweep.cells[0].1;
        assert_eq!(
            (gaimd.cov, gaimd.delivered_packets, gaimd.tcp_totals.timeouts),
            (reno.cov, reno.delivered_packets, reno.tcp_totals.timeouts),
            "GAIMD(0, 1) diverged from Reno"
        );
        println!("anchor: GAIMD(alpha=0, beta=1) == Reno (cov {:.4})\n", reno.cov);
    }

    print!("{}", sweep.cov_table());
}
