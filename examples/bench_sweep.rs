//! Dependency-free throughput benchmark for the sweep execution stack.
//!
//! Runs a reduced-duration Figure-2 grid three ways — in-process threads,
//! worker processes, and through the content-addressed result cache — and
//! writes `BENCH_sweep.json` as one object:
//!
//! ```json
//! {
//!   "host_cores": 8,
//!   "threads": [{"threads": 1, "events_per_sec": ..., "wall_clock_s": ...,
//!                "serial_wall_clock_s": ..., "speedup": 1.00}, ...],
//!   "workers": [{"workers": 2, "wall_clock_s": ..., "speedup": ...}, ...],
//!   "cache":   {"points": 36, "cold_wall_s": ..., "warm_wall_s": ...,
//!               "speedup": ..., "warm_hits": 36}
//! }
//! ```
//!
//! Every variant is checked against the serial run bit-for-bit: threading,
//! forking, and caching must not change the answer. This example is what
//! `scripts/verify.sh` runs in CI.
//!
//! ```sh
//! cargo run --release --example bench_sweep
//! ```

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use tcpburst_core::experiments::Sweep;
use tcpburst_core::{
    available_jobs, worker_main, Protocol, ResultStore, ScenarioBuilder, ScenarioConfig,
    SweepSupervisor, WorkerCommand,
};
use tcpburst_des::SimDuration;

const CLIENTS: [usize; 6] = [5, 15, 25, 35, 39, 45];
const SEED: u64 = 0x1CDC_2000;

/// One timed in-process sweep over the Figure 2 grid.
fn timed_sweep(base: &ScenarioConfig, jobs: usize) -> (Sweep, f64) {
    let start = Instant::now();
    let swept = SweepSupervisor::new(base, &Protocol::PAPER_SET, &CLIENTS)
        .jobs(jobs)
        .run();
    (swept.sweep, start.elapsed().as_secs_f64())
}

/// Distinct counts to benchmark: {1, 2, 4, all cores} ∩ [1, all cores].
fn counts(max: usize) -> Vec<usize> {
    let mut counts: Vec<usize> = [1, 2, 4, max].into_iter().filter(|&j| j <= max).collect();
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn main() {
    // Re-executed by the worker series as `bench_sweep --bench-worker`:
    // serve grid points to the parent over stdin/stdout, exactly like the
    // hidden `tcpburst worker` subcommand.
    if std::env::args().nth(1).as_deref() == Some("--bench-worker") {
        std::process::exit(worker_main());
    }

    let base = ScenarioBuilder::paper()
        .instrumentation(|i| i.duration(SimDuration::from_secs(10)).seed(SEED))
        .finish();
    let max_jobs = available_jobs();
    let thread_counts = counts(max_jobs);
    println!("benchmarking Figure 2 grid at jobs ∈ {thread_counts:?}");

    let (serial, serial_s) = timed_sweep(&base, 1);
    let events: u64 = serial.cells.iter().map(|c| c.report.events_processed).sum();
    let points = serial.cells.len();
    let serial_table = serial.fig2_cov_table();
    println!("  jobs=1: {events} events in {serial_s:.2} s");

    let mut json = String::new();
    let _ = writeln!(json, "{{\n  \"host_cores\": {max_jobs},");

    // --- In-process thread scaling -------------------------------------
    json.push_str("  \"threads\": [\n");
    for (i, &jobs) in thread_counts.iter().enumerate() {
        let wall_s = if jobs == 1 {
            serial_s
        } else {
            let (sweep, wall_s) = timed_sweep(&base, jobs);
            println!("  jobs={jobs}: {events} events in {wall_s:.2} s");
            // The whole point of the engine: threading must not change
            // the answer.
            assert_eq!(
                serial_table,
                sweep.fig2_cov_table(),
                "jobs={jobs} sweep diverged from serial output"
            );
            wall_s
        };
        let events_per_sec = events as f64 / wall_s;
        let speedup = serial_s / wall_s;
        let _ = writeln!(
            json,
            "    {{\"threads\": {jobs}, \"events_per_sec\": {events_per_sec:.0}, \
             \"wall_clock_s\": {wall_s:.3}, \"serial_wall_clock_s\": {serial_s:.3}, \
             \"speedup\": {speedup:.2}}}{}",
            if i + 1 < thread_counts.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    // --- Worker-process scaling ----------------------------------------
    // Spawn cost, IPC framing, and the journal merge are all inside the
    // measured wall clock: this is what `tcpburst sweep --workers N` pays.
    let command = WorkerCommand::current_exe(vec!["--bench-worker".to_string()])
        .expect("bench example knows its own path");
    // Even a single-core host runs the 2-worker row: the point of the
    // series is proving the fork/IPC/merge path and measuring its cost,
    // not just the scaling.
    let mut worker_counts: Vec<usize> =
        counts(max_jobs).into_iter().filter(|&w| w > 1).collect();
    if worker_counts.is_empty() {
        worker_counts.push(2);
    }
    json.push_str("  \"workers\": [\n");
    for (i, &workers) in worker_counts.iter().enumerate() {
        let start = Instant::now();
        let swept = SweepSupervisor::new(&base, &Protocol::PAPER_SET, &CLIENTS)
            .workers(workers)
            .worker_command(command.clone())
            .run();
        let wall_s = start.elapsed().as_secs_f64();
        assert!(swept.all_complete(), "workers={workers} sweep lost points");
        assert_eq!(
            serial_table,
            swept.sweep.fig2_cov_table(),
            "workers={workers} sweep diverged from serial output"
        );
        println!("  workers={workers}: {events} events in {wall_s:.2} s");
        let _ = writeln!(
            json,
            "    {{\"workers\": {workers}, \"events_per_sec\": {:.0}, \
             \"wall_clock_s\": {wall_s:.3}, \"speedup\": {:.2}}}{}",
            events as f64 / wall_s,
            serial_s / wall_s,
            if i + 1 < worker_counts.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    // --- Cold vs. warm result cache ------------------------------------
    let root = std::env::temp_dir().join(format!("tcpburst-bench-store-{}", std::process::id()));
    let cached = || {
        let store = ResultStore::open(&root).expect("temp cache root is creatable");
        let start = Instant::now();
        let swept = SweepSupervisor::new(&base, &Protocol::PAPER_SET, &CLIENTS)
            .jobs(max_jobs)
            .store(Arc::new(store))
            .run();
        let wall_s = start.elapsed().as_secs_f64();
        assert!(swept.all_complete(), "cached sweep lost points");
        // Cold or warm, the cache must not change the answer.
        assert_eq!(serial_table, swept.sweep.fig2_cov_table());
        (swept.cache_hits, wall_s)
    };
    let (_, cold_s) = cached();
    let (warm_hits, warm_s) = cached();
    assert_eq!(warm_hits, points, "warm sweep must be 100% hits");
    let _ = std::fs::remove_dir_all(&root);
    println!(
        "  cache: cold {cold_s:.2} s, warm {warm_s:.4} s ({:.0}x)",
        cold_s / warm_s
    );
    let _ = writeln!(
        json,
        "  \"cache\": {{\"points\": {points}, \"cold_wall_s\": {cold_s:.3}, \
         \"warm_wall_s\": {warm_s:.4}, \"speedup\": {:.1}, \"warm_hits\": {warm_hits}}}\n}}",
        cold_s / warm_s
    );

    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    print!("BENCH_sweep.json:\n{json}");
}
