//! Multi-process sweep execution: grid points spread across worker
//! *processes* with work-stealing and per-worker crash isolation.
//!
//! Thread-level fan-out ([`crate::parallel`]) shares one address space: a
//! segfault, allocator corruption or OOM kill in any grid point takes the
//! whole sweep down. This module moves the blast radius to a child
//! process: the supervisor spawns `N` copies of the harness binary running
//! the hidden `tcpburst worker` subcommand, feeds them grid points over the
//! checksummed frame protocol ([`crate::net_transport`]), and work-steals
//! from the shared queue exactly like the thread pool (each driver thread
//! claims the next unclaimed index and forwards it to its private child).
//!
//! A worker that dies loses *nothing*: its in-flight point is requeued
//! onto a fresh worker (up to a bounded respawn count), and if workers
//! keep dying on that point the driver degrades gracefully and computes
//! it in-process — zero lost grid points, counted in
//! [`RobustnessCounters`].
//!
//! ## Protocol
//!
//! Frames are the [`crate::net_transport`] wire format (length prefix +
//! SHA-256-derived checksum + UTF-8 payload). On startup the worker sends
//! `ready <schema-version>`; a schema mismatch (parent and worker built
//! from different engine versions) aborts the handshake. The parent then
//! sends one `point <index> <protocol> <clients> <seed> <sim|-> <events|->
//! <wall|->` frame per claimed grid point (the trailing triple is the
//! watchdog budget, `-` = unlimited); the worker replies
//! `done <index>\n<codec payload>` or `fail <index> <kind>\n<message>`.
//! EOF on the worker's stdin is the shutdown signal. The same frames ride
//! a TCP socket in daemon mode ([`crate::daemon`]), where `hb` heartbeat
//! frames are additionally interleaved.
//!
//! The scenario *base configuration* never crosses the pipe: the worker
//! process re-parses the parent's own CLI argument tail (captured
//! verbatim), so both sides build the identical base config by running the
//! identical parser, and only the per-point coordinates travel as data.
//!
//! ## Determinism
//!
//! Replies are decoded by the same exact codec the result store uses, and
//! results are re-slotted in canonical grid order by the same machinery as
//! the thread pool — so sweep output is byte-identical at every
//! `--workers × --jobs` combination, *including* under injected chaos
//! ([`crate::chaos`]): requeues and fallbacks change only who computes a
//! point, never its bytes.

use std::io::{self, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use tcpburst_des::SimDuration;

use crate::chaos::{ChaosSchedule, ChaosTransport, CHAOS_ENV, CHAOS_ID_ENV};
use crate::codec;
use crate::config::{Protocol, ScenarioConfig};
use crate::net_transport::{FrameTransport, PipeTransport};
use crate::parallel::{effective_jobs, run_indexed_partial_with};
use crate::report::ScenarioReport;
use crate::store::ENGINE_SCHEMA_VERSION;
use crate::supervise::{FailurePolicy, PointOutcome, RunBudget, RunError};

/// Environment variable naming a grid-point index at which a worker
/// process deliberately aborts — the crash-isolation test hook. Unset in
/// normal operation.
pub const CRASH_AT_ENV: &str = "TCPBURST_WORKER_CRASH_AT";

/// Fresh-worker respawns attempted for a point whose worker died mid-run
/// before the driver stops burning processes and computes the point
/// in-process instead.
const CRASH_RETRIES: u32 = 2;

/// Spawn sequence across the whole process, so each worker child gets a
/// distinct chaos id (`w1`, `w2`, ...) for targeted fault schedules.
static SPAWN_SEQ: AtomicU64 = AtomicU64::new(0);

// ---------------------------------------------------------------------------
// Point frames and replies (shared with the daemon control plane)
// ---------------------------------------------------------------------------

fn budget_field(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "-".to_string(),
    }
}

fn parse_budget_field(token: &str) -> Option<Option<u64>> {
    if token == "-" {
        Some(None)
    } else {
        token.parse().ok().map(Some)
    }
}

pub(crate) fn point_frame(index: usize, point: &PointSpec, budget: &RunBudget) -> String {
    format!(
        "point {index} {} {} {} {} {} {}",
        point.protocol.cli_name(),
        point.clients,
        point.seed,
        budget_field(budget.max_sim_time.map(|d| d.as_nanos())),
        budget_field(budget.max_events),
        budget_field(budget.max_wall.map(|w| w.as_nanos() as u64)),
    )
}

/// Parses a `point ...` frame into its coordinates and budget.
pub(crate) fn parse_point_frame(text: &str) -> Option<(usize, PointSpec, RunBudget)> {
    let rest = text.strip_prefix("point ")?;
    let mut tokens = rest.split_whitespace();
    let index: usize = tokens.next()?.parse().ok()?;
    let protocol: Protocol = tokens.next()?.parse().ok()?;
    let clients: usize = tokens.next()?.parse().ok()?;
    let seed: u64 = tokens.next()?.parse().ok()?;
    let budget = RunBudget {
        max_sim_time: parse_budget_field(tokens.next()?)?.map(SimDuration::from_nanos),
        max_events: parse_budget_field(tokens.next()?)?,
        max_wall: parse_budget_field(tokens.next()?)?.map(Duration::from_nanos),
    };
    if tokens.next().is_some() {
        return None;
    }
    Some((index, PointSpec { protocol, clients, seed }, budget))
}

/// What a worker sent back for one point.
pub(crate) enum Reply {
    /// The point completed; decoded report attached.
    Done(Box<ScenarioReport>),
    /// The point failed remotely with a typed kind and message.
    Fail {
        /// The remote [`RunError::kind`].
        kind: String,
        /// The remote error rendered as text.
        message: String,
    },
}

/// Parses a `done`/`fail` reply frame into its echoed index and payload.
pub(crate) fn parse_reply(text: &str) -> Option<(usize, Reply)> {
    let (head, body) = text.split_once('\n')?;
    let mut tokens = head.split_whitespace();
    let tag = tokens.next()?;
    let index: usize = tokens.next()?.parse().ok()?;
    match tag {
        "done" => {
            if tokens.next().is_some() {
                return None;
            }
            Some((index, Reply::Done(Box::new(codec::decode(body)?))))
        }
        "fail" => Some((
            index,
            Reply::Fail {
                kind: tokens.next()?.to_string(),
                message: body.to_string(),
            },
        )),
        _ => None,
    }
}

fn protocol_error(peer: &str, what: impl std::fmt::Display) -> RunError {
    RunError::Remote {
        kind: "protocol".to_string(),
        message: format!("{peer}: {what}"),
    }
}

// ---------------------------------------------------------------------------
// The worker process side
// ---------------------------------------------------------------------------

/// The body of the hidden `tcpburst worker` subcommand: reads point frames
/// from stdin, runs each under [`crate::supervise::run_point`], and writes
/// reply frames to stdout until EOF. Returns the process exit code (0 for
/// a clean shutdown, 1 on a protocol or pipe error). When `TCPBURST_CHAOS`
/// names a schedule for this worker, the transport is wrapped in the
/// fault-injection layer ([`crate::chaos`]).
///
/// `base` is the scenario configuration rebuilt from the parent's CLI
/// argument tail; each point frame overrides only its protocol, client
/// count and seed.
pub fn worker_main(base: &ScenarioConfig) -> i32 {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let transport = PipeTransport::new(stdin.lock(), stdout.lock(), "driver");
    match ChaosSchedule::from_env() {
        Some(events) => worker_loop(&mut ChaosTransport::new(transport, events), base),
        None => {
            let mut transport = transport;
            worker_loop(&mut transport, base)
        }
    }
}

/// The shared request/reply loop: serves `point` frames until EOF. Also
/// the body of a remote worker once the daemon handshake is done.
pub(crate) fn worker_loop<T: FrameTransport>(transport: &mut T, base: &ScenarioConfig) -> i32 {
    let crash_at: Option<usize> = std::env::var(CRASH_AT_ENV)
        .ok()
        .and_then(|v| v.parse().ok());
    if transport
        .send_text(&format!("ready {ENGINE_SCHEMA_VERSION}"))
        .is_err()
    {
        return 1;
    }
    loop {
        let text = match transport.recv_text() {
            Ok(Some(text)) => text,
            Ok(None) => return 0,
            Err(_) => return 1,
        };
        let Some(reply) = handle_point(base, &text, crash_at) else {
            return 1;
        };
        if transport.send_text(&reply).is_err() {
            return 1;
        }
    }
}

pub(crate) fn handle_point(
    base: &ScenarioConfig,
    text: &str,
    crash_at: Option<usize>,
) -> Option<String> {
    let (index, spec, budget) = parse_point_frame(text)?;
    if crash_at == Some(index) {
        // The crash-isolation hook: die like a segfault would, with no
        // unwinding and no reply frame.
        std::process::abort();
    }
    let mut cfg = *base;
    cfg.num_clients = spec.clients;
    cfg.apply_protocol(spec.protocol);
    cfg.seed = spec.seed;
    Some(match crate::supervise::run_point(&cfg, &budget) {
        Ok(report) => match codec::encode(&report) {
            Some(payload) => format!("done {index}\n{payload}"),
            None => format!(
                "fail {index} unencodable\nreport carries trace payloads \
                 the worker protocol cannot ship"
            ),
        },
        Err(error) => format!("fail {index} {}\n{error}", error.kind()),
    })
}

// ---------------------------------------------------------------------------
// Robustness accounting
// ---------------------------------------------------------------------------

/// Control-plane robustness counters, surfaced in the sweep summary next
/// to the cache statistics. All zeros on a fault-free run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RobustnessCounters {
    /// In-flight grid points put back for another attempt after their
    /// worker died, disconnected or went silent (one increment per
    /// requeue event; a point can be requeued more than once).
    pub requeued_points: u64,
    /// Worker processes or connections replaced after an abnormal end.
    pub worker_restarts: u64,
    /// Liveness deadlines that expired with no frame and no heartbeat
    /// from a worker.
    pub heartbeat_misses: u64,
    /// Remote-worker re-registrations after backoff (resume handshakes
    /// accepted for a worker that reconnected).
    pub backoff_retries: u64,
}

impl RobustnessCounters {
    /// True when any counter is non-zero (the summary line is printed
    /// only then, keeping fault-free output unchanged).
    pub fn any(&self) -> bool {
        *self != RobustnessCounters::default()
    }

    /// Adds `other` into `self` (merging pool and daemon accounting).
    pub fn merge(&mut self, other: &RobustnessCounters) {
        self.requeued_points += other.requeued_points;
        self.worker_restarts += other.worker_restarts;
        self.heartbeat_misses += other.heartbeat_misses;
        self.backoff_retries += other.backoff_retries;
    }
}

impl std::fmt::Display for RobustnessCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requeued_points={} worker_restarts={} heartbeat_misses={} backoff_retries={}",
            self.requeued_points, self.worker_restarts, self.heartbeat_misses, self.backoff_retries
        )
    }
}

/// Atomic counterpart shared across driver threads.
#[derive(Debug, Default)]
pub(crate) struct SharedCounters {
    pub(crate) requeued_points: AtomicU64,
    pub(crate) worker_restarts: AtomicU64,
    pub(crate) heartbeat_misses: AtomicU64,
    pub(crate) backoff_retries: AtomicU64,
}

impl SharedCounters {
    pub(crate) fn snapshot(&self) -> RobustnessCounters {
        RobustnessCounters {
            requeued_points: self.requeued_points.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            heartbeat_misses: self.heartbeat_misses.load(Ordering::Relaxed),
            backoff_retries: self.backoff_retries.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// The parent (pool) side
// ---------------------------------------------------------------------------

/// How to launch one worker process: a program plus its full argument
/// vector. The sweep CLI uses its own binary with
/// `["worker", <the parent's scenario flags...>]`; the bench example
/// self-spawns with a private flag its `main` recognises.
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// The executable to spawn.
    pub program: PathBuf,
    /// Its complete argument vector.
    pub args: Vec<String>,
}

impl WorkerCommand {
    /// A command that re-executes the current binary with `args`.
    pub fn current_exe(args: Vec<String>) -> io::Result<WorkerCommand> {
        Ok(WorkerCommand {
            program: std::env::current_exe()?,
            args,
        })
    }
}

/// One grid point's coordinates, as shipped to a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointSpec {
    /// Protocol of the point.
    pub protocol: Protocol,
    /// Client count of the point.
    pub clients: usize,
    /// Seed of the point.
    pub seed: u64,
}

/// One live child process with its framed pipe transport.
struct WorkerProc {
    child: Child,
    transport: PipeTransport<BufReader<ChildStdout>, ChildStdin>,
}

impl WorkerProc {
    fn spawn(command: &WorkerCommand) -> Result<WorkerProc, RunError> {
        let seq = SPAWN_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
        let mut cmd = Command::new(&command.program);
        cmd.args(&command.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if std::env::var_os(CHAOS_ENV).is_some() {
            // Give each spawned worker a distinct chaos id so schedules
            // can target "the Nth worker ever spawned".
            cmd.env(CHAOS_ID_ENV, format!("w{seq}"));
        }
        let spawn_err = |e: io::Error| RunError::Io {
            path: command.program.clone(),
            message: format!("spawning worker: {e}"),
        };
        let mut child = cmd.spawn().map_err(spawn_err)?;
        let stdin = child
            .stdin
            .take()
            .ok_or_else(|| spawn_err(io::Error::other("worker stdin not piped")))?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| spawn_err(io::Error::other("worker stdout not piped")))?;
        let mut this = WorkerProc {
            child,
            transport: PipeTransport::new(BufReader::new(stdout), stdin, format!("worker w{seq}")),
        };
        this.handshake()?;
        Ok(this)
    }

    fn handshake(&mut self) -> Result<(), RunError> {
        let peer = self.transport.peer().to_string();
        let text = self
            .transport
            .recv_text()
            .map_err(|e| e.to_run_error())?
            .ok_or_else(|| protocol_error(&peer, "worker exited before handshake"))?;
        let schema = text
            .strip_prefix("ready ")
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| protocol_error(&peer, "malformed worker handshake"))?;
        if schema != ENGINE_SCHEMA_VERSION {
            return Err(protocol_error(
                &peer,
                format!(
                    "worker speaks engine schema {schema}, parent expects \
                     {ENGINE_SCHEMA_VERSION} (mixed builds?)"
                ),
            ));
        }
        Ok(())
    }

    /// Ships one point and blocks for its reply.
    fn run_point(
        &mut self,
        index: usize,
        point: &PointSpec,
        budget: &RunBudget,
    ) -> Result<Reply, RunError> {
        let peer = self.transport.peer().to_string();
        self.transport
            .send_text(&point_frame(index, point, budget))
            .map_err(|e| e.to_run_error())?;
        let text = self
            .transport
            .recv_text()
            .map_err(|e| e.to_run_error())?
            .ok_or_else(|| RunError::Remote {
                kind: "worker-died".to_string(),
                message: format!("{peer}: worker exited mid-point"),
            })?;
        let (echoed, reply) =
            parse_reply(&text).ok_or_else(|| protocol_error(&peer, "malformed worker reply"))?;
        if echoed != index {
            return Err(protocol_error(
                &peer,
                format!("worker replied for point {echoed}, expected {index}"),
            ));
        }
        Ok(reply)
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        // Kill unconditionally, then reap: a healthy worker would exit on
        // the stdin EOF anyway, and a wedged one must not hang the sweep.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A pool of worker processes executing grid points with work-stealing,
/// per-worker crash isolation and the supervisor's budget-doubling retry
/// policy (retries are driven from the parent: the point is re-sent with
/// a doubled budget).
///
/// A crashed worker's in-flight point is *requeued*: re-sent to a fresh
/// worker, and — if workers keep dying on it — computed in-process via the
/// caller's fallback, so no grid point is ever lost to a worker death.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    /// How to launch each worker.
    pub command: WorkerCommand,
    /// Worker-process count (0 = all cores).
    pub workers: usize,
    /// Keep-going (default) or fail-fast.
    pub policy: FailurePolicy,
    /// Watchdog budget per point.
    pub budget: RunBudget,
    /// Budget-failure retries per point (doubling each time).
    pub retries: u32,
}

impl WorkerPool {
    /// A pool with default supervision knobs.
    pub fn new(command: WorkerCommand, workers: usize) -> WorkerPool {
        WorkerPool {
            command,
            workers,
            policy: FailurePolicy::KeepGoing,
            budget: RunBudget::UNLIMITED,
            retries: 1,
        }
    }

    /// Runs every point across the pool; outcomes come back in point
    /// order, together with the pool's robustness counters.
    ///
    /// `fallback` computes one point in-process (under the given budget);
    /// it runs when worker processes keep dying on a point, so the point
    /// is never lost. `on_done` runs on the driver thread the moment its
    /// point completes (this is where the supervisor appends the journal
    /// line and writes the result store) — an `Err` from it demotes the
    /// point to [`PointOutcome::Failed`].
    pub fn run_points<F, G>(
        &self,
        points: &[PointSpec],
        fallback: G,
        on_done: F,
    ) -> (Vec<PointOutcome<ScenarioReport>>, RobustnessCounters)
    where
        F: Fn(usize, &ScenarioReport) -> Result<(), RunError> + Sync,
        G: Fn(usize, &RunBudget) -> Result<ScenarioReport, RunError> + Sync,
    {
        let workers = effective_jobs(self.workers, points.len());
        let abort = AtomicBool::new(false);
        let counters = SharedCounters::default();
        let fail = |error: RunError| {
            if self.policy == FailurePolicy::FailFast {
                abort.store(true, Ordering::SeqCst);
            }
            PointOutcome::Failed(error)
        };
        let finish = |index: usize, report: ScenarioReport| match on_done(index, &report) {
            Ok(()) => PointOutcome::Done(report),
            Err(e) => fail(e),
        };
        let mut partial = run_indexed_partial_with(
            workers,
            points.len(),
            || None::<WorkerProc>,
            |proc, index| {
                if abort.load(Ordering::SeqCst) {
                    return PointOutcome::Skipped;
                }
                let point = &points[index];
                let mut budget = self.budget;
                let mut attempt = 0u32;
                let mut crashes = 0u32;
                loop {
                    if crashes > CRASH_RETRIES {
                        // Workers keep dying on this point (or cannot be
                        // spawned at all): graceful degradation — compute
                        // it in-process so the point is requeued, never
                        // lost.
                        loop {
                            match fallback(index, &budget) {
                                Ok(report) => return finish(index, report),
                                Err(e) => {
                                    if e.kind() == "budget-exceeded" && attempt < self.retries {
                                        attempt += 1;
                                        budget = budget.doubled();
                                        continue;
                                    }
                                    return fail(e);
                                }
                            }
                        }
                    }
                    if proc.is_none() {
                        match WorkerProc::spawn(&self.command) {
                            Ok(w) => *proc = Some(w),
                            Err(_) => {
                                crashes += 1;
                                counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                        }
                    }
                    let worker = proc.as_mut().expect("worker was just spawned");
                    match worker.run_point(index, point, &budget) {
                        Ok(Reply::Done(report)) => return finish(index, *report),
                        Ok(Reply::Fail { kind, message }) => {
                            if kind == "budget-exceeded" && attempt < self.retries {
                                attempt += 1;
                                budget = budget.doubled();
                                continue;
                            }
                            return fail(RunError::Remote { kind, message });
                        }
                        Err(_) => {
                            // The pipe broke: the child crashed (or wedged
                            // and wrote garbage). Requeue the in-flight
                            // point onto a fresh worker.
                            *proc = None;
                            crashes += 1;
                            counters.requeued_points.fetch_add(1, Ordering::Relaxed);
                            counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    }
                }
            },
        );
        let outcomes = partial
            .results
            .iter_mut()
            .map(|slot| match slot.take() {
                Some(outcome) => outcome,
                None => PointOutcome::Failed(RunError::Panicked {
                    message: "pool driver died before reporting".to_string(),
                }),
            })
            .collect();
        (outcomes, counters.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_frames_parse_back() {
        let base = crate::ScenarioBuilder::paper().finish();
        let spec = PointSpec {
            protocol: Protocol::VegasRed,
            clients: 25,
            seed: 0x1CDC_2000,
        };
        let budget = RunBudget {
            max_sim_time: Some(SimDuration::from_secs(3)),
            max_events: None,
            max_wall: Some(Duration::from_millis(250)),
        };
        let frame = point_frame(7, &spec, &budget);
        let (index, parsed, parsed_budget) = parse_point_frame(&frame).expect("parses");
        assert_eq!(index, 7);
        assert_eq!(parsed, spec);
        assert_eq!(parsed_budget.max_events, None);
        assert_eq!(parsed_budget.max_wall, Some(Duration::from_millis(250)));

        // handle_point runs the (tiny) scenario and replies `done 7`.
        let mut cfg = base;
        cfg.duration = SimDuration::from_millis(200);
        let reply = handle_point(&cfg, &frame, None).expect("parses");
        assert!(reply.starts_with("done 7\n") || reply.starts_with("fail 7 "));

        assert!(handle_point(&cfg, "point", None).is_none());
        assert!(handle_point(&cfg, "point 1 nosuch 5 0 - - -", None).is_none());
        assert!(handle_point(&cfg, &format!("{frame} extra"), None).is_none());
    }

    #[test]
    fn unlimited_budget_serializes_as_dashes() {
        let spec = PointSpec {
            protocol: Protocol::Udp,
            clients: 5,
            seed: 1,
        };
        let frame = point_frame(0, &spec, &RunBudget::UNLIMITED);
        assert!(frame.ends_with("- - -"), "{frame}");
    }

    #[test]
    fn replies_parse_back() {
        let (index, reply) = parse_reply("fail 3 budget-exceeded\nran out of budget")
            .expect("fail reply parses");
        assert_eq!(index, 3);
        match reply {
            Reply::Fail { kind, message } => {
                assert_eq!(kind, "budget-exceeded");
                assert_eq!(message, "ran out of budget");
            }
            Reply::Done(_) => panic!("wrong reply variant"),
        }
        assert!(parse_reply("done 3").is_none(), "no body");
        assert!(parse_reply("done x\npayload").is_none(), "bad index");
        assert!(parse_reply("what 3\npayload").is_none(), "bad tag");
        assert!(parse_reply("done 3\nnot a codec payload").is_none());
    }

    #[test]
    fn counters_merge_and_report() {
        let mut a = RobustnessCounters::default();
        assert!(!a.any());
        let b = RobustnessCounters {
            requeued_points: 1,
            worker_restarts: 2,
            heartbeat_misses: 0,
            backoff_retries: 3,
        };
        a.merge(&b);
        a.merge(&b);
        assert!(a.any());
        assert_eq!(a.requeued_points, 2);
        assert_eq!(a.backoff_retries, 6);
        assert_eq!(
            b.to_string(),
            "requeued_points=1 worker_restarts=2 heartbeat_misses=0 backoff_retries=3"
        );
    }
}
