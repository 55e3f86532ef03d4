//! Chaos-schedule integration tests through the real `tcpburst` binary:
//! deterministic fault injection (worker kills, stalls, frame corruption,
//! truncation, partitions) must leave the rendered tables and the
//! finalized journal byte-identical to an uninterrupted serial run — for
//! the pipe-worker pool and for the TCP sweep service alike.

use std::path::Path;
use std::process::{Child, Output};

use proptest::prelude::*;

mod common;
use common::{spawn_serve, spawn_worker, submit, tcpburst, temp_dir, wait_bounded, SWEEP};

/// Runs the baseline: serial in-process sweep with a finalized journal.
fn serial_baseline(dir: &Path) -> (Output, Vec<u8>) {
    let journal = dir.join("serial.jsonl");
    let mut args = SWEEP.to_vec();
    let journal_s = journal.to_str().expect("utf-8 path").to_string();
    args.extend_from_slice(&["--journal", &journal_s]);
    let out = tcpburst(dir, &args, &[]);
    assert!(out.status.success(), "serial sweep fails: {out:?}");
    let bytes = std::fs::read(&journal).expect("serial journal exists");
    (out, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Any single chaos event — kill, stall, corrupt, truncate or drop,
    /// at any early frame ordinal, on any worker — leaves the pipe-pool
    /// sweep successful with tables AND finalized journal byte-identical
    /// to the uninterrupted serial run.
    #[test]
    fn chaos_schedules_preserve_journal_bytes(
        kind in 0usize..=4,
        frame in 1u32..=9,
        scoped in any::<bool>(),
    ) {
        let dir = temp_dir("chaos");
        let (serial, serial_journal) = serial_baseline(&dir);

        let kinds = ["kill", "stall", "corrupt", "trunc", "drop"];
        let schedule = if scoped {
            // Scope to the second spawned worker so at least one healthy
            // worker keeps draining points while the victim misbehaves.
            format!("w2:{}@{frame}", kinds[kind])
        } else {
            format!("{}@{frame}", kinds[kind])
        };
        let journal = dir.join("chaos.jsonl");
        let journal_s = journal.to_str().expect("utf-8 path").to_string();
        let mut args = SWEEP.to_vec();
        args.extend_from_slice(&["--workers", "2", "--journal", &journal_s]);
        let chaos = tcpburst(&dir, &args, &[("TCPBURST_CHAOS", &schedule)]);
        let stderr = String::from_utf8_lossy(&chaos.stderr);
        prop_assert!(
            chaos.status.success(),
            "chaos '{}' must not fail the sweep: {}", schedule, stderr
        );
        prop_assert_eq!(
            String::from_utf8_lossy(&serial.stdout),
            String::from_utf8_lossy(&chaos.stdout),
            "tables diverge under chaos '{}'", schedule.clone()
        );
        let chaos_journal = std::fs::read(&journal).expect("chaos journal exists");
        prop_assert_eq!(
            &serial_journal, &chaos_journal,
            "finalized journal diverges under chaos '{}'", schedule
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Spawns `serve --once` on an ephemeral loopback port and reports the
/// bound address from its stderr banner.
fn spawn_daemon(dir: &Path, extra: &[&str]) -> (Child, String) {
    spawn_serve(dir, &[&["--once"], extra].concat())
}

/// Two remote TCP workers reproduce the serial tables byte-for-byte.
#[test]
fn loopback_tcp_workers_match_serial_output() {
    let dir = temp_dir("chaos");
    let (serial, _) = serial_baseline(&dir);

    let (daemon, addr) = spawn_daemon(&dir, &[]);
    let w1 = spawn_worker(&dir, &addr, &[], &[]);
    let w2 = spawn_worker(&dir, &addr, &[], &[]);
    let result = submit(&dir, &addr, SWEEP);

    let _ = wait_bounded(daemon, 120);
    for w in [w1, w2] {
        let _ = wait_bounded(w, 60);
    }
    assert!(result.status.success(), "remote sweep fails: {result:?}");
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&result.stdout),
        "TCP remote workers must reproduce the serial tables byte-for-byte"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Killing one of two remote workers mid-sweep requeues its in-flight
/// point; the surviving worker finishes and the output stays identical.
#[test]
fn killing_a_remote_worker_mid_sweep_loses_nothing() {
    let dir = temp_dir("chaos");
    let (serial, _) = serial_baseline(&dir);

    let (daemon, addr) = spawn_daemon(&dir, &[]);
    let victim = spawn_worker(
        &dir,
        &addr,
        &[("TCPBURST_CHAOS", "kill@5")],
        &["--max-reconnects", "0"],
    );
    let survivor = spawn_worker(&dir, &addr, &[], &[]);
    let result = submit(&dir, &addr, SWEEP);

    let _ = wait_bounded(daemon, 120);
    for w in [victim, survivor] {
        let _ = wait_bounded(w, 60);
    }
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(
        result.status.success(),
        "sweep must survive a worker kill: {stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&result.stdout),
        "kill-recovery must reproduce the serial tables byte-for-byte"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// When the only remote worker dies and never reconnects, the daemon
/// degrades gracefully: after the grace period it finishes the sweep
/// in-process with identical output.
#[test]
fn daemon_degrades_to_in_process_when_all_workers_vanish() {
    let dir = temp_dir("chaos");
    let (serial, _) = serial_baseline(&dir);

    let (daemon, addr) = spawn_daemon(&dir, &["--grace-ms", "300"]);
    let victim = spawn_worker(
        &dir,
        &addr,
        &[("TCPBURST_CHAOS", "kill@4")],
        &["--max-reconnects", "0"],
    );
    let result = submit(&dir, &addr, SWEEP);

    let _ = wait_bounded(daemon, 120);
    let _ = wait_bounded(victim, 60);
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(
        result.status.success(),
        "sweep must degrade to in-process execution: {stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&result.stdout),
        "degraded execution must reproduce the serial tables byte-for-byte"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The TCP-worker contract external tools rely on: a
/// `tcpburst worker --connect` leaves with exit code 0 within 10 s of its
/// job's `submit` returning, even though the daemon keeps serving.
#[test]
fn a_tcp_worker_exits_cleanly_after_its_job() {
    let dir = temp_dir("chaos");
    // No `--once`: the daemon outlives the job, so the worker's exit is
    // its own, not a side effect of the daemon closing the socket.
    let (mut daemon, addr) = spawn_serve(&dir, &[]);
    let worker = spawn_worker(&dir, &addr, &[], &[]);
    let result = submit(&dir, &addr, SWEEP);
    assert!(result.status.success(), "remote sweep fails: {result:?}");
    let exit = wait_bounded(worker, 10);
    let _ = daemon.kill();
    let _ = daemon.wait();
    assert_eq!(exit.status.code(), Some(0), "worker exit after its job");

    let _ = std::fs::remove_dir_all(&dir);
}
