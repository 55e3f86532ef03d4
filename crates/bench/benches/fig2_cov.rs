//! Figure 2: coefficient of variation of the aggregated traffic arriving at
//! the gateway, per round-trip propagation delay, for every protocol
//! configuration, versus the analytic Poisson reference.
//!
//! Expected shape (paper): UDP hugs the Poisson curve at every load; the
//! TCP variants separate past the congestion knee, with Reno and Reno/RED
//! far above the reference (>140% and >200% at heavy congestion) and Vegas
//! lowest among the TCPs.

use tcpburst_bench::{bench_duration, bench_seed, fig2_clients, sweep, write_figure_csv};
use tcpburst_core::Protocol;

fn main() {
    let duration = bench_duration();
    let clients = fig2_clients();
    eprintln!(
        "fig2: {} protocols x {} client counts, {} each",
        Protocol::PAPER_SET.len(),
        clients.len(),
        duration
    );
    let sweep = sweep(&Protocol::PAPER_SET, &clients, &[bench_seed()]);
    println!("{}", sweep.fig2_cov_table());
    write_figure_csv("fig2_cov.csv", &sweep.to_csv());
    write_figure_csv("fig2_cov.svg", &sweep.fig2_cov_svg());
}
