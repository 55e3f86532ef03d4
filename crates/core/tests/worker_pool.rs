//! End-to-end tests of multi-process sweep execution through the real
//! `tcpburst` binary: worker-process output is byte-identical to the
//! in-process path, and a crashing worker loses one grid point, not the
//! sweep.

use std::io::BufReader;
use std::process::{Command, Stdio};

use tcpburst_core::{
    GatewayKind, Protocol, ScenarioBuilder, ScenarioConfig, SourceKind, SweepSupervisor,
    WorkerCommand,
};
use tcpburst_des::SimDuration;
use tcpburst_transport::VegasParams;

mod common;
use common::{
    canonical_bytes, spawn_serve, spawn_worker, submit, tcpburst, temp_dir, wait_bounded, SWEEP,
};

#[test]
fn worker_processes_match_in_process_output_byte_for_byte() {
    let dir = temp_dir("workers");

    let serial = tcpburst(&dir, SWEEP, &[]);
    assert!(serial.status.success(), "in-process sweep fails: {serial:?}");
    // No fleet, no control plane: a plain sweep reports no counters.
    let stderr = String::from_utf8_lossy(&serial.stderr);
    assert!(!stderr.contains("robustness:"), "{stderr}");

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
    let dir = temp_dir("workers");

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

/// Hop traces cannot cross the codec: a `--trace-hops` sweep stays
/// in-process under `--workers` instead of failing every point as
/// unencodable, and journals no points, so a resume from its truncated
/// journal re-runs them all. Every run prints the same tables.
#[test]
fn a_traced_sweep_runs_in_process_and_resumes_by_rerunning() {
    let dir = temp_dir("workers");
    let journal = dir.join("traced.jsonl");
    let journal = journal.to_str().expect("utf-8 path");
    let sweep = ["sweep", "--clients", "5", "--secs", "2", "--trace-hops", "--no-cache"];
    let run = |extra: &[&str]| {
        let out = tcpburst(&dir, &[&sweep[..], extra].concat(), &[]);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "traced sweep {extra:?} fails: {stderr}");
        (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
    };

    let (fresh, _) = run(&["--journal", journal]);
    let (workers, _) = run(&["--workers", "2"]);
    assert_eq!(fresh, workers, "a traced sweep prints the same tables with --workers 2");
    let header = std::fs::read_to_string(journal).expect("journal exists");
    assert_eq!(header.lines().count(), 1, "only the header: {header}");
    std::fs::write(journal, header.trim_end()).expect("journal is rewritable");
    let (resumed, stderr) = run(&["--resume", journal]);
    assert_eq!(fresh, resumed, "the resume re-runs every point");
    assert!(!stderr.contains("resumed"), "no point was restored: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A fleet whose every child dies before its `ready` frame cannot start a
/// worker at all. The sweep still completes, in-process, with the serial
/// tables, and the `robustness:` line says how many points it computed
/// that way instead of falling back in silence.
#[test]
fn a_fleet_that_cannot_start_reports_its_in_process_points() {
    let dir = temp_dir("workers");
    let sweep = ["sweep", "--clients", "5,15", "--secs", "3", "--no-cache"];

    let serial = tcpburst(&dir, &sweep, &[]);
    assert!(serial.status.success(), "in-process sweep fails: {serial:?}");

    let mut forked = sweep.to_vec();
    forked.extend_from_slice(&["--workers", "2"]);
    let fallback = tcpburst(&dir, &forked, &[("TCPBURST_CHAOS", "kill@1")]);
    let stderr = String::from_utf8_lossy(&fallback.stderr);
    assert!(fallback.status.success(), "the fallback must not fail the sweep: {stderr}");
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&fallback.stdout),
        "the in-process fallback must reproduce the serial tables byte-for-byte"
    );
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("robustness: "))
        .unwrap_or_else(|| panic!("no robustness line: {stderr}"));
    let last = line.split_whitespace().last().and_then(|kv| kv.split_once('='));
    let Some(("in_process_points", n)) = last else {
        panic!("in_process_points is not the last key: {line}");
    };
    assert!(n.parse::<u64>().expect("a count") > 0, "{line}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The pipe-worker contract external tools rely on: `tcpburst worker`
/// (no `--connect`) sends `ready <engine schema>` as its first stdout
/// frame, and exits 0 when its stdin closes.
#[test]
fn a_pipe_worker_says_ready_then_exits_cleanly_on_eof() {
    use tcpburst_core::{FrameTransport, PipeTransport, ENGINE_SCHEMA_VERSION};

    let dir = temp_dir("workers");
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

/// A grid over knobs that are not `(protocol, clients, seed)` — buffer,
/// Vegas (α, β), RED `max_p`, c.o.v. bin width, source law and an
/// impairment schedule — runs on two `tcpburst worker` processes, which
/// get each point's whole configuration in its frame, and returns reports
/// codec-identical to the in-process run's.
#[test]
fn a_config_grid_runs_identically_on_worker_processes() {
    let point = |protocol: Protocol| {
        ScenarioBuilder::paper()
            .topology(|t| t.clients(6))
            .transport(|t| t.protocol(protocol))
            .instrumentation(|i| i.secs(2).seed(11))
    };
    let mut red = point(Protocol::RenoRed).finish();
    red.red_max_p = 0.35;
    let configs: Vec<ScenarioConfig> = vec![
        point(Protocol::Reno)
            .topology(|t| t.buffer_pkts(7))
            .finish(),
        point(Protocol::Vegas)
            .transport(|t| {
                t.vegas(VegasParams {
                    alpha: 2.0,
                    beta: 5.0,
                    gamma: 1.0,
                })
            })
            .finish(),
        red,
        point(Protocol::Reno)
            .instrumentation(|i| i.cov_bin(Some(SimDuration::from_millis(11))))
            .finish(),
        point(Protocol::Udp)
            .workload(|w| w.source(SourceKind::Cbr { rate: 80.0 }))
            .finish(),
        point(Protocol::Reno)
            .impairments(|i| {
                i.spec("flap:200ms/700ms,corrupt:1e-4")
                    .expect("a valid spec")
            })
            .topology(|t| t.gateway(GatewayKind::AdaptiveRed))
            .finish(),
    ];
    let in_process = SweepSupervisor::from_configs(&configs).jobs(1).run_grid();
    let command = WorkerCommand {
        program: env!("CARGO_BIN_EXE_tcpburst").into(),
        args: vec!["worker".into()],
    };
    let forked = SweepSupervisor::from_configs(&configs)
        .workers(2)
        .worker_command(command)
        .run_grid();
    assert_eq!(
        forked.robustness.in_process_points, 0,
        "the workers ran every point"
    );
    let bytes = |grid: tcpburst_core::SupervisedGrid| -> Vec<String> {
        let reports = grid.reports().expect("every point completes");
        reports.iter().map(canonical_bytes).collect()
    };
    assert_eq!(bytes(in_process), bytes(forked));
}

/// `serve` runs `replicate` jobs too: one remote worker prints the local
/// `replicate` output byte-for-byte.
#[test]
fn served_replicate_matches_the_local_run() {
    let dir = temp_dir("workers");
    let job = [
        "replicate",
        "--clients",
        "5",
        "--secs",
        "1",
        "--seeds",
        "2",
        "--no-cache",
    ];
    let local = tcpburst(&dir, &job, &[]);
    assert!(local.status.success(), "local replicate fails: {local:?}");

    let (daemon, addr) = spawn_serve(&dir, &["--once"]);
    let worker = spawn_worker(&dir, &addr, &[], &[]);
    let served = submit(&dir, &addr, &job);
    let _ = wait_bounded(daemon, 120);
    let _ = wait_bounded(worker, 60);
    assert!(
        served.status.success(),
        "served replicate fails: {served:?}"
    );
    assert_eq!(
        String::from_utf8_lossy(&local.stdout),
        String::from_utf8_lossy(&served.stdout)
    );

    let _ = std::fs::remove_dir_all(&dir);
}
