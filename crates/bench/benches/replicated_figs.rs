//! Replicated figures: every Figure 2/3/4/13 metric as mean ± 95% CI over
//! independent seeds, quantifying how much of each curve is signal.
//!
//! Honours `TCPBURST_SECS` and `TCPBURST_SEED` like the single-run figure
//! targets (seeds run from `TCPBURST_SEED` up) and `TCPBURST_REPS` for the
//! number of seeds (default 5).

use std::env;

use tcpburst_bench::{bench_duration, bench_seed, sweep};
use tcpburst_core::{Protocol, ReplicatedSweep};

fn main() {
    let duration = bench_duration();
    let reps: u64 = env::var("TCPBURST_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let seeds: Vec<u64> = (0..reps).map(|i| bench_seed() + i).collect();
    // A coarser client grid than the single-run figures keeps the
    // replicated sweep affordable: 3 regimes x protocols x seeds.
    let clients = [20usize, 39, 60];
    eprintln!(
        "replicated figures: {} protocols x {:?} clients x {} seeds, {} each",
        Protocol::PAPER_SET.len(),
        clients,
        seeds.len(),
        duration
    );
    let replicated = ReplicatedSweep::from_sweep(&sweep(&Protocol::PAPER_SET, &clients, &seeds));
    for table in replicated.tables() {
        println!("{table}");
    }
}
