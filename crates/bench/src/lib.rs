//! Shared plumbing for the paper-reproduction bench targets.
//!
//! Every figure/table of the paper has its own bench target under
//! `benches/`; they all run at the paper's full 200-second scale by default
//! and honour two environment variables for quicker iterations:
//!
//! * `TCPBURST_SECS` — simulated seconds per scenario (default 200),
//! * `TCPBURST_SEED` — master seed (default the crate's fixed seed).
//!
//! Full-resolution figure data (CSV) is written to
//! `crates/bench/target/paper_figures/` (cargo runs bench targets from the
//! package root).

use std::env;
use std::fs;
use std::path::PathBuf;

use tcpburst_core::experiments::Sweep;
use tcpburst_core::{Protocol, ScenarioBuilder, ScenarioConfig, ScenarioReport, SweepSupervisor};
use tcpburst_des::SimDuration;

/// Simulated duration per scenario, from `TCPBURST_SECS` (default: the
/// paper's 200 s).
pub fn bench_duration() -> SimDuration {
    let secs = env::var("TCPBURST_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(200);
    SimDuration::from_secs(secs)
}

/// Master seed, from `TCPBURST_SEED` (default: fixed).
pub fn bench_seed() -> u64 {
    env::var("TCPBURST_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0x1CDC_2000)
}

/// The client-count grid of Figure 2 (the paper plots 2–60; Figures 3, 4
/// and 13 start at 30 because "the different TCP implementations exhibit
/// nearly identical behavior for less than 30 clients").
pub fn fig2_clients() -> Vec<usize> {
    vec![2, 5, 10, 15, 20, 25, 30, 34, 38, 39, 42, 45, 50, 55, 60]
}

/// The client-count grid of Figures 3, 4 and 13.
pub fn fig3_clients() -> Vec<usize> {
    vec![30, 34, 38, 39, 42, 45, 50, 55, 60]
}

/// Runs the paper grid `protocols × clients`, once per seed in `seeds`, for
/// [`bench_duration`] a point on every core, through the sweep supervisor
/// the CLI uses. A failed point is reported on stderr and left out, so its
/// cell renders as `-`.
pub fn sweep(protocols: &[Protocol], clients: &[usize], seeds: &[u64]) -> Sweep {
    let base = ScenarioBuilder::paper()
        .instrumentation(|i| i.duration(bench_duration()))
        .finish();
    let run = SweepSupervisor::new(&base, protocols, clients)
        .seeds(seeds)
        .run();
    for failure in &run.failures {
        eprintln!("FAILED  {failure}");
    }
    run.sweep
}

/// Every `(outer, inner)` pair, outer-major: an ablation's row order.
pub fn cross<A: Copy, B: Copy>(outer: &[A], inner: &[B]) -> Vec<(A, B)> {
    outer
        .iter()
        .flat_map(|&a| inner.iter().map(move |&b| (a, b)))
        .collect()
}

/// Runs one configuration per row as a grid on every core, through the
/// supervisor the CLI uses, and pairs each row with its report.
///
/// # Panics
///
/// Panics if a point fails: every row of an ablation table needs its
/// report.
pub fn grid<R>(rows: Vec<R>, config: impl Fn(&R) -> ScenarioConfig) -> Vec<(R, ScenarioReport)> {
    let configs: Vec<ScenarioConfig> = rows.iter().map(config).collect();
    let reports = SweepSupervisor::from_configs(&configs)
        .run_grid()
        .reports()
        .unwrap_or_else(|(i, e)| {
            let why = e.map_or("skipped".to_string(), |e| e.to_string());
            panic!("grid point {i} failed: {why}")
        });
    rows.into_iter().zip(reports).collect()
}

/// Directory where bench targets drop full-resolution CSVs, absolute:
/// `target/paper_figures` under the package root, where cargo runs them.
pub fn figures_dir() -> PathBuf {
    let dir = std::path::absolute("target/paper_figures").expect("resolve the figures directory");
    fs::create_dir_all(&dir).expect("create target/paper_figures");
    dir
}

/// Writes `contents` under [`figures_dir`] and reports the path it landed
/// at.
pub fn write_figure_csv(name: &str, contents: &str) {
    let path = figures_dir().join(name);
    fs::write(&path, contents).expect("write figure CSV");
    println!("[wrote {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_sorted_and_span_the_paper_range() {
        let f2 = fig2_clients();
        assert!(f2.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*f2.first().unwrap(), 2);
        assert_eq!(*f2.last().unwrap(), 60);
        let f3 = fig3_clients();
        assert_eq!(*f3.first().unwrap(), 30);
        assert!(f3.contains(&39), "the crossover point must be sampled");
    }

    #[test]
    fn duration_default_is_paper_scale() {
        if env::var("TCPBURST_SECS").is_err() {
            assert_eq!(bench_duration(), SimDuration::from_secs(200));
        }
    }
}
