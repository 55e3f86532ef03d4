//! Figure 13: ratio of timeouts to duplicate-ACK (fast) retransmissions vs
//! number of clients.
//!
//! Expected shape (paper): the Reno family resolves a large fraction of its
//! losses by (synchronizing) retransmission timeouts; Vegas's fine-grained
//! duplicate-ACK retransmission keeps its ratio far lower.

use tcpburst_bench::{bench_duration, bench_seed, fig3_clients, sweep, write_figure_csv};
use tcpburst_core::Protocol;

fn main() {
    let duration = bench_duration();
    let clients = fig3_clients();
    eprintln!(
        "fig13: {} protocols x {} client counts, {} each",
        Protocol::PAPER_TCP_SET.len(),
        clients.len(),
        duration
    );
    let sweep = sweep(&Protocol::PAPER_TCP_SET, &clients, &[bench_seed()]);
    println!("{}", sweep.fig13_timeout_ratio_table());
    write_figure_csv("fig13_timeout_ratio.csv", &sweep.to_csv());
    write_figure_csv("fig13_timeout_ratio.svg", &sweep.fig13_timeout_ratio_svg());
}
