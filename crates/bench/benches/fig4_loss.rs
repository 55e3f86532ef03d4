//! Figure 4: packet-loss percentage at the gateway vs number of clients,
//! for the five TCP configurations.
//!
//! Expected shape (paper): loss grows past the 38/39-client crossover;
//! Vegas loses least; Vegas/RED loses *most* (duplicate ACKs push data into
//! an already-full RED gateway).

use tcpburst_bench::{bench_duration, bench_seed, fig3_clients, sweep, write_figure_csv};
use tcpburst_core::Protocol;

fn main() {
    let duration = bench_duration();
    let clients = fig3_clients();
    eprintln!(
        "fig4: {} protocols x {} client counts, {} each",
        Protocol::PAPER_TCP_SET.len(),
        clients.len(),
        duration
    );
    let sweep = sweep(&Protocol::PAPER_TCP_SET, &clients, &[bench_seed()]);
    println!("{}", sweep.fig4_loss_table());
    write_figure_csv("fig4_loss.csv", &sweep.to_csv());
    write_figure_csv("fig4_loss.svg", &sweep.fig4_loss_svg());
}
