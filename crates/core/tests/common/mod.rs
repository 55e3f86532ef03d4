//! Helpers shared by the integration tests; each test file uses a subset.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tcpburst_core::{codec, ScenarioReport, SupervisedSweep};

static CASE: AtomicU64 = AtomicU64::new(0);

/// A path under the system temp directory, unique to this process and
/// call and named after `tag`. Nothing is created.
pub fn temp_path(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("tcpburst-{tag}-{}-{n}", std::process::id()))
}

/// A created [`temp_path`] directory.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = temp_path(tag);
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    dir
}

/// A small CLI sweep (2 protocols x 2 client counts) that skips the result
/// store.
pub const SWEEP: &[&str] = &[
    "sweep",
    "--protocols",
    "udp,reno",
    "--clients",
    "4,7",
    "--secs",
    "2",
    "--no-cache",
];

/// Runs the test binary with a throwaway cache root, a hard wall-clock
/// bound, and the given extra environment.
pub fn tcpburst(dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tcpburst"));
    cmd.args(args)
        .env("TCPBURST_CACHE", dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let child = cmd.spawn().expect("tcpburst binary spawns");
    wait_bounded(child, 120)
}

/// Spawns `serve` with `args` on an ephemeral loopback port and reports
/// the bound address from its stderr banner.
pub fn spawn_serve(dir: &Path, args: &[&str]) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tcpburst"));
    cmd.args(["serve", "--listen", "127.0.0.1:0"])
        .args(args)
        .env("TCPBURST_CACHE", dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("daemon spawns");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let banner = lines
        .next()
        .expect("daemon prints a banner")
        .expect("banner is readable");
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    // Keep draining the daemon's stderr so it can never block on a full
    // pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// Spawns `worker --connect addr` with extra flags and environment.
pub fn spawn_worker(dir: &Path, addr: &str, envs: &[(&str, &str)], extra: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tcpburst"));
    cmd.args(["worker", "--connect", addr])
        .args(extra)
        .env("TCPBURST_CACHE", dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.spawn().expect("worker spawns")
}

/// Submits the job `args` to the daemon at `addr` and waits for it.
pub fn submit(dir: &Path, addr: &str, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tcpburst"));
    cmd.args(["submit", "--connect", addr])
        .args(args)
        .env("TCPBURST_CACHE", dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let child = cmd.spawn().expect("submit spawns");
    wait_bounded(child, 120)
}

/// Waits for a child with a wall-clock budget; a hung process is killed
/// and the test fails loudly instead of wedging the suite.
pub fn wait_bounded(mut child: Child, secs: u64) -> Output {
    let deadline = Instant::now() + Duration::from_secs(secs);
    // Drain the pipes on threads so a chatty child can't fill them and
    // block while we poll for exit. Children spawned with null stdio have
    // nothing to drain.
    let drain = |pipe: Option<Box<dyn Read + Send>>| {
        std::thread::spawn(move || {
            let mut buf = Vec::new();
            if let Some(mut pipe) = pipe {
                let _ = pipe.read_to_end(&mut buf);
            }
            buf
        })
    };
    let out_pipe = child
        .stdout
        .take()
        .map(|p| Box::new(p) as Box<dyn Read + Send>);
    let err_pipe = child
        .stderr
        .take()
        .map(|p| Box::new(p) as Box<dyn Read + Send>);
    let out_thread = drain(out_pipe);
    let err_thread = drain(err_pipe);
    let status = loop {
        if let Some(status) = child.try_wait().expect("child pollable") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("tcpburst run exceeded its {secs}s wall-clock bound");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let stdout = out_thread.join().expect("stdout drains");
    let stderr = err_thread.join().expect("stderr drains");
    Output {
        status,
        stdout,
        stderr,
    }
}

/// The four figure tables of a supervised sweep.
pub fn figure_tables(s: &SupervisedSweep) -> String {
    s.sweep.tables().concat()
}

/// A report's codec payload with the host wall clock zeroed: the one field
/// that legitimately differs between two runs of the same point.
pub fn canonical_bytes(report: &ScenarioReport) -> String {
    let timeless = ScenarioReport {
        wall_clock_secs: 0.0,
        ..report.clone()
    };
    codec::encode(&timeless).expect("report is encodable")
}
