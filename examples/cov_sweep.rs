//! A compact Figure 2/3/4/13 sweep: all of the paper's protocol
//! configurations across a range of client counts.
//!
//! ```text
//! cargo run --release --example cov_sweep [seconds]
//! ```
//!
//! Uses a reduced duration (default 20 s vs the paper's 200 s) so the sweep
//! finishes in well under a minute; the bench harness
//! (`cargo bench -p tcpburst-bench`) runs the full-scale version.

use std::env;

use tcpburst_core::{Protocol, ScenarioBuilder, SweepSupervisor};

fn main() {
    let seconds: u64 = env::args()
        .nth(1)
        .map(|a| a.parse().expect("seconds must be an integer"))
        .unwrap_or(20);
    let clients = [5, 15, 25, 35, 39, 45, 60];

    println!(
        "Sweeping {} protocols x {:?} clients, {} s each...\n",
        Protocol::PAPER_SET.len(),
        clients,
        seconds
    );
    let base = ScenarioBuilder::paper()
        .instrumentation(|i| i.secs(seconds).seed(42))
        .finish();
    let sweep = SweepSupervisor::new(&base, &Protocol::PAPER_SET, &clients)
        .run()
        .sweep;
    for table in sweep.tables() {
        println!("{table}");
    }
}
