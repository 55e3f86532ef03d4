//! End-to-end tests of multi-process sweep execution through the real
//! `tcpburst` binary: worker-process output is byte-identical to the
//! in-process path, and a crashing worker loses one grid point, not the
//! sweep.

use std::io::BufReader;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("tcpburst-workers-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    dir
}

/// Runs the release `tcpburst` binary with a throwaway cache root so the
/// test never reads or pollutes the developer's real cache.
fn tcpburst(cache_root: &PathBuf, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tcpburst"));
    cmd.args(args).env("TCPBURST_CACHE", cache_root);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("tcpburst binary runs")
}

const SWEEP: &[&str] = &[
    "sweep",
    "--protocols",
    "udp,reno",
    "--clients",
    "4,7",
    "--secs",
    "2",
    "--no-cache",
];

#[test]
fn worker_processes_match_in_process_output_byte_for_byte() {
    let dir = temp_dir();

    let serial = tcpburst(&dir, SWEEP, &[]);
    assert!(serial.status.success(), "in-process sweep fails: {serial:?}");

    let mut forked = SWEEP.to_vec();
    forked.extend_from_slice(&["--workers", "2"]);
    let workers = tcpburst(&dir, &forked, &[]);
    assert!(workers.status.success(), "worker sweep fails: {workers:?}");

    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&workers.stdout),
        "--workers 2 must reproduce --workers 1 byte-for-byte"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crashing_worker_loses_zero_points() {
    let dir = temp_dir();

    let serial = tcpburst(&dir, SWEEP, &[]);
    assert!(serial.status.success(), "in-process sweep fails: {serial:?}");

    // Every worker that claims grid point 2 aborts mid-handling. The pool
    // must requeue the point, respawn workers up to the crash-retry cap,
    // then finish the poisonous point in-process: the sweep succeeds with
    // ZERO lost points and byte-identical tables.
    let mut forked = SWEEP.to_vec();
    forked.extend_from_slice(&["--workers", "2"]);
    let crash = tcpburst(&dir, &forked, &[("TCPBURST_WORKER_CRASH_AT", "2")]);
    let stderr = String::from_utf8_lossy(&crash.stderr);
    assert!(
        crash.status.success(),
        "a crashing worker must not fail the sweep: {stderr}"
    );
    assert_eq!(
        stderr.matches("FAILED").count(),
        0,
        "zero lost points: {stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&crash.stdout),
        "recovery must reproduce the serial tables byte-for-byte"
    );
    // The robustness summary records the requeue and the respawns.
    assert!(
        stderr.contains("requeued_points=") && stderr.contains("worker_restarts="),
        "robustness counters are reported on stderr: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The pipe-worker contract external tools rely on: `tcpburst worker`
/// (no `--connect`) sends `ready <engine schema>` as its first stdout
/// frame, and exits 0 when its stdin closes.
#[test]
fn a_pipe_worker_says_ready_then_exits_cleanly_on_eof() {
    use tcpburst_core::{FrameTransport, PipeTransport, ENGINE_SCHEMA_VERSION};

    let dir = temp_dir();
    let mut child = Command::new(env!("CARGO_BIN_EXE_tcpburst"))
        .args(["worker", "--secs", "2"])
        .env("TCPBURST_CACHE", &dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("worker spawns");
    let stdin = child.stdin.take().expect("stdin piped");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut pipe = PipeTransport::new(BufReader::new(stdout), stdin, "worker");
    let first = pipe.recv_text().expect("a clean frame").expect("not EOF");
    assert_eq!(first, format!("ready {ENGINE_SCHEMA_VERSION}"));
    drop(pipe);
    let status = child.wait().expect("worker reaped");
    assert_eq!(status.code(), Some(0), "EOF on stdin is a clean shutdown");

    let _ = std::fs::remove_dir_all(&dir);
}
