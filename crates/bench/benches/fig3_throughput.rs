//! Figure 3: total packets successfully transmitted (server-side goodput)
//! vs number of clients, for the five TCP configurations.
//!
//! Expected shape (paper): all configurations saturate near the bottleneck
//! capacity; plain Reno/Vegas beat their RED counterparts; Vegas at least
//! matches Reno.

use tcpburst_bench::{bench_duration, bench_seed, fig3_clients, sweep, write_figure_csv};
use tcpburst_core::Protocol;

fn main() {
    let duration = bench_duration();
    let clients = fig3_clients();
    eprintln!(
        "fig3: {} protocols x {} client counts, {} each",
        Protocol::PAPER_TCP_SET.len(),
        clients.len(),
        duration
    );
    let sweep = sweep(&Protocol::PAPER_TCP_SET, &clients, &[bench_seed()]);
    println!("{}", sweep.fig3_throughput_table());
    write_figure_csv("fig3_throughput.csv", &sweep.to_csv());
    write_figure_csv("fig3_throughput.svg", &sweep.fig3_throughput_svg());
}
