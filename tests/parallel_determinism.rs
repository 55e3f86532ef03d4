//! Parallel execution must be invisible in the results: any `--jobs` value
//! has to reproduce the serial sweep **bit for bit** — not merely "close",
//! since floating-point accumulation order changes would silently move
//! published figure values between machines with different core counts.

use tcpburst_core::experiments::Sweep;
use tcpburst_core::{Protocol, ReplicatedSweep, ScenarioBuilder, SweepSupervisor};

const PROTOCOLS: [Protocol; 3] = [Protocol::Udp, Protocol::Reno, Protocol::VegasRed];
const CLIENTS: [usize; 2] = [5, 12];

/// The paper grid over `protocols × clients × seeds`, `secs` simulated
/// seconds a point, on `jobs` threads.
fn sweep(
    protocols: &[Protocol],
    clients: &[usize],
    secs: u64,
    seeds: &[u64],
    jobs: usize,
) -> Sweep {
    let base = ScenarioBuilder::paper()
        .instrumentation(|i| i.secs(secs))
        .finish();
    let supervisor = SweepSupervisor::new(&base, protocols, clients).seeds(seeds);
    supervisor.jobs(jobs).run().sweep
}

#[test]
fn sweep_is_bit_identical_across_thread_counts() {
    let serial = sweep(&PROTOCOLS, &CLIENTS, 5, &[7], 1);
    for jobs in [2, 4, 7] {
        let parallel = sweep(&PROTOCOLS, &CLIENTS, 5, &[7], jobs);
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.protocol, b.protocol, "jobs={jobs}: cell order changed");
            assert_eq!(a.clients, b.clients, "jobs={jobs}: cell order changed");
            // Float fields compared via to_bits: equality must be exact.
            assert_eq!(
                a.report.cov.to_bits(),
                b.report.cov.to_bits(),
                "jobs={jobs}: c.o.v. diverged for {:?}/{}",
                a.protocol,
                a.clients
            );
            assert_eq!(a.report.loss_percent.to_bits(), b.report.loss_percent.to_bits());
            assert_eq!(a.report.delivered_packets, b.report.delivered_packets);
            assert_eq!(a.report.generated_packets, b.report.generated_packets);
            assert_eq!(a.report.events_processed, b.report.events_processed);
        }
    }
}

#[test]
fn sweep_default_jobs_matches_serial_tables() {
    // jobs = 0 means all cores; whatever this host has, the rendered
    // figure tables must be byte-identical to the serial run.
    let auto = sweep(&PROTOCOLS, &CLIENTS, 5, &[7], 0);
    let serial = sweep(&PROTOCOLS, &CLIENTS, 5, &[7], 1);
    assert_eq!(auto.tables(), serial.tables());
}

#[test]
fn replicated_sweep_is_bit_identical_across_thread_counts() {
    let replicated =
        |jobs| ReplicatedSweep::from_sweep(&sweep(&PROTOCOLS, &CLIENTS, 3, &[1, 2, 3], jobs));
    let serial = replicated(1);
    for jobs in [2, 4] {
        let parallel = replicated(jobs);
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.protocol, b.protocol);
            assert_eq!(a.clients, b.clients);
            // The CI fold is order-sensitive; the engine must feed samples
            // to RunningStats in canonical seed order regardless of which
            // worker finished first.
            assert_eq!(a.cov.mean().to_bits(), b.cov.mean().to_bits());
            assert_eq!(
                a.cov.ci95_half_width().to_bits(),
                b.cov.ci95_half_width().to_bits()
            );
            assert_eq!(a.delivered.mean().to_bits(), b.delivered.mean().to_bits());
            assert_eq!(
                a.loss_percent.mean().to_bits(),
                b.loss_percent.mean().to_bits()
            );
            assert_eq!(
                a.timeout_ratio.mean().to_bits(),
                b.timeout_ratio.mean().to_bits()
            );
        }
        assert_eq!(serial.tables(), parallel.tables());
    }
}

#[test]
fn oversubscribed_jobs_clamp_and_still_agree() {
    // More workers than grid points: the engine clamps instead of spawning
    // idle threads, and the answer still matches serial.
    let serial = sweep(&[Protocol::Reno], &[5], 2, &[3], 1);
    let wide = sweep(&[Protocol::Reno], &[5], 2, &[3], 64);
    assert_eq!(
        serial.cells[0].report.cov.to_bits(),
        wide.cells[0].report.cov.to_bits()
    );
    assert_eq!(
        serial.cells[0].report.events_processed,
        wide.cells[0].report.events_processed
    );
}
