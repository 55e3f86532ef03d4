//! The one scheduler of every supervised grid: in-process threads, worker
//! processes and remote workers all claim from one pool.
//!
//! A supervised sweep or replication hands its points to `run_points`,
//! which computes them on whatever a *fleet* provides:
//!
//! * no fleet at all (`InProcess`, the default): [`Supervisor::jobs`]
//!   threads of the sweep's own process, started at once, compute every
//!   point, and the sweep reports no robustness counters for them;
//! * `--workers N` spawns `N` copies of the harness binary running the
//!   hidden `tcpburst worker` subcommand and talks to each over its
//!   stdin/stdout pipes, so a segfault, allocator corruption or OOM kill
//!   in one grid point costs one worker process, not the sweep;
//! * the sweep daemon ([`crate::daemon`]) hands over the
//!   `tcpburst worker --connect` processes that registered with it over
//!   TCP.
//!
//! Each worker gets a thread of its own that claims the next unclaimed
//! point (requeued points first), ships it and waits for the reply; each
//! in-process helper thread claims and computes. Either way the pool
//! work-steals, and the failure policy, budget retries and panic isolation
//! are the same code. The sweep's own thread blocks on one channel that
//! carries worker arrivals, worker exits and point resolutions; nothing
//! polls.
//!
//! ## Robustness model
//!
//! Every failure has a bounded recovery, counted in
//! [`RobustnessCounters`]:
//!
//! * **Dead worker.** EOF, a frame error (truncation, checksum, injected
//!   chaos) or a malformed reply puts the in-flight point back in the pool
//!   (`requeued_points`) and ends the connection (`worker_restarts`). A
//!   dead local child is respawned while unclaimed points remain.
//! * **Poisonous point.** A point whose workers die more than
//!   `CRASH_RETRIES` (2) times is computed in-process instead
//!   (`in_process_points`), so it is never lost.
//! * **Silent worker.** TCP workers heartbeat (`hb` frames) while they
//!   compute. A read deadline that passes with neither a reply nor a
//!   heartbeat is a death (`heartbeat_misses`), and so is heartbeating
//!   past twice the point's wall-clock budget.
//! * **Budget overrun.** A `budget-exceeded` reply is retried with a
//!   doubled budget up to [`Supervisor::retries`] times. Worker deaths are
//!   counted separately and never double the budget.
//! * **No workers.** A local fleet that cannot spawn any child computes
//!   in-process at once. The daemon first waits its grace period
//!   ([`ExecTuning::grace`]). Either way the points are then computed on
//!   [`Supervisor::jobs`] threads of the sweep's own process, which claim
//!   from the same pool, so a late worker still shares what is left. Each
//!   such point counts in `in_process_points`.
//! * **Panicking point.** Every in-process attempt runs under
//!   `catch_unwind`: a panic fails only its own point, as
//!   [`RunError::Panicked`], and is never retried (the simulation is
//!   deterministic, so it would recur).
//!
//! A point is resolved exactly once: a late duplicate reply for a point
//! that is already resolved is discarded, so the journal never sees a
//! duplicate append.
//!
//! ## Protocol
//!
//! Frames are the [`crate::net_transport`] wire format (length prefix +
//! SHA-256-derived checksum + UTF-8 payload). A pipe worker's first frame
//! is `ready <schema-version>`; a schema mismatch (parent and worker built
//! from different engine versions) aborts the handshake. The sweep then
//! sends one `point <index> <protocol> <clients> <seed> <sim|-> <events|->
//! <wall|->` frame per claimed grid point (the trailing triple is the
//! watchdog budget, `-` = unlimited); the worker replies
//! `done <index>\n<codec payload>` or `fail <index> <kind>\n<message>`.
//! `shutdown` or EOF ends the session. TCP workers first run the daemon's
//! registration handshake and interleave `hb` frames.
//!
//! The scenario *base configuration* never crosses the pipe: the worker
//! process re-parses the parent's own CLI argument tail (captured
//! verbatim), so both sides build the identical base config by running the
//! identical parser, and only the per-point coordinates travel as data.
//!
//! ## Determinism
//!
//! Replies are decoded by the same exact codec the result store uses, and
//! results are re-slotted in canonical grid order, so sweep output is
//! byte-identical at every `--workers × --jobs` combination, *including*
//! under injected chaos ([`crate::chaos`]): requeues and fallbacks change
//! only who computes a point, never its bytes.

use std::io::{self, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use tcpburst_des::SimDuration;

use crate::chaos::{ChaosSchedule, ChaosTransport, CHAOS_ENV, CHAOS_ID_ENV, HEARTBEAT_PAYLOAD};
use crate::codec;
use crate::config::{Protocol, ScenarioConfig};
use crate::daemon::ExecTuning;
use crate::net_transport::{FrameError, FrameTransport, PipeTransport};
use crate::parallel::effective_jobs;
use crate::report::ScenarioReport;
use crate::store::ENGINE_SCHEMA_VERSION;
use crate::supervise::{
    panic_message, FailurePolicy, PointOutcome, RunBudget, RunError, Supervisor,
};

/// Environment variable naming a grid-point index at which a worker
/// process deliberately aborts — the crash-isolation test hook. Unset in
/// normal operation.
pub const CRASH_AT_ENV: &str = "TCPBURST_WORKER_CRASH_AT";

/// Worker deaths a point may cause before the scheduler stops handing it
/// to workers and computes it in-process instead.
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

// ---------------------------------------------------------------------------
// The worker process side
// ---------------------------------------------------------------------------

/// The body of the hidden `tcpburst worker` subcommand: sends
/// `ready <schema>`, then serves point frames from stdin, replying on
/// stdout, until EOF. Returns the process exit code (0 for a clean
/// shutdown, 1 on a protocol or pipe error). When `TCPBURST_CHAOS` names a
/// schedule for this worker, the transport is wrapped in the
/// fault-injection layer ([`crate::chaos`]).
///
/// `base` is the scenario configuration rebuilt from the parent's CLI
/// argument tail; each point frame overrides only its protocol, client
/// count and seed.
pub fn worker_main(base: &ScenarioConfig) -> i32 {
    let (stdin, stdout) = (io::stdin(), io::stdout());
    let pipe = PipeTransport::new(stdin.lock(), stdout.lock(), "sweep");
    let end = with_chaos(pipe, |t| {
        match t.send_text(&format!("ready {ENGINE_SCHEMA_VERSION}")) {
            Ok(()) => serve_points(t, base, None),
            Err(_) => SessionEnd::Lost,
        }
    });
    i32::from(!matches!(end, SessionEnd::Done))
}

/// Runs a worker `session` on `transport`, wrapped in the fault-injection
/// layer when `TCPBURST_CHAOS` names a schedule for this worker.
pub(crate) fn with_chaos<T: FrameTransport>(
    transport: T,
    session: impl FnOnce(&mut dyn FrameTransport) -> SessionEnd,
) -> SessionEnd {
    match ChaosSchedule::from_env() {
        Some(events) => session(&mut ChaosTransport::new(transport, events)),
        None => session(&mut { transport }),
    }
}

/// How a worker's session ended.
pub(crate) enum SessionEnd {
    /// Clean shutdown: the sweep sent `shutdown` or closed the stream.
    Done,
    /// The connection broke or carried a frame that made no sense.
    Lost,
    /// Registration was rejected; do not retry.
    Rejected(String),
}

/// The worker's request/reply loop, shared by pipe and TCP workers: serves
/// `point` frames until `shutdown` or EOF. With a `heartbeat` interval the
/// points compute on one helper thread, spawned once per session, while
/// this thread sends `hb` frames, so a long simulation never looks like a
/// dead worker. Without one (pipes, which have no read deadlines) they
/// compute inline.
pub(crate) fn serve_points(
    t: &mut dyn FrameTransport,
    cfg: &ScenarioConfig,
    heartbeat: Option<Duration>,
) -> SessionEnd {
    let crash_at: Option<usize> = std::env::var(CRASH_AT_ENV)
        .ok()
        .and_then(|v| v.parse().ok());
    let helper = heartbeat.map(|interval| {
        let (frames, inbox) = channel::<String>();
        let (replies_tx, replies) = channel();
        let cfg = *cfg;
        // Detached, so a session lost mid-point can reconnect at once; the
        // helper finishes that point and exits when `frames` drops.
        std::thread::spawn(move || {
            for frame in inbox {
                if replies_tx.send(handle_point(&cfg, &frame, crash_at)).is_err() {
                    return;
                }
            }
        });
        (interval, frames, replies)
    });
    loop {
        if let Some((interval, ..)) = helper {
            // Between points the daemon answers promptly; a long silence
            // here means it died. Generous: claim scheduling is fast.
            let idle = interval.max(Duration::from_millis(100)) * 100;
            if t.set_read_deadline(Some(idle)).is_err() {
                return SessionEnd::Lost;
            }
        }
        let text = match t.recv_text() {
            Ok(Some(text)) => text,
            Ok(None) => return SessionEnd::Done,
            Err(_) => return SessionEnd::Lost,
        };
        if text == "shutdown" {
            return SessionEnd::Done;
        }
        let reply = match &helper {
            None => handle_point(cfg, &text, crash_at),
            Some((interval, frames, replies)) => {
                if frames.send(text).is_err() {
                    return SessionEnd::Lost;
                }
                loop {
                    match replies.recv_timeout(*interval) {
                        Ok(reply) => break reply,
                        Err(RecvTimeoutError::Timeout) => {
                            if t.send(HEARTBEAT_PAYLOAD).is_err() {
                                return SessionEnd::Lost;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => return SessionEnd::Lost,
                    }
                }
            }
        };
        // A reply that cannot be sent means the daemon requeued this point
        // elsewhere (or died); its resolve-once slot discards duplicates.
        let Some(reply) = reply else {
            return SessionEnd::Lost;
        };
        if t.send_text(&reply).is_err() {
            return SessionEnd::Lost;
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
    /// Grid points computed in the sweep's own process instead of on a
    /// worker: every point when no worker could start, and each point
    /// whose workers kept dying.
    pub in_process_points: u64,
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
        self.in_process_points += other.in_process_points;
    }
}

impl std::fmt::Display for RobustnessCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requeued_points={} worker_restarts={} heartbeat_misses={} backoff_retries={} \
             in_process_points={}",
            self.requeued_points,
            self.worker_restarts,
            self.heartbeat_misses,
            self.backoff_retries,
            self.in_process_points
        )
    }
}

// ---------------------------------------------------------------------------
// Workers and fleets
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

/// One worker connection the scheduler can drive from its own thread.
pub(crate) struct Worker {
    pub(crate) link: Box<dyn FrameTransport + Send>,
    /// The job digest a reconnecting TCP worker already holds, if any.
    pub(crate) resume: Option<String>,
    /// A local child process, killed and reaped with the worker.
    child: Option<Child>,
}

impl Worker {
    pub(crate) fn new(link: impl FrameTransport + Send + 'static, resume: Option<String>) -> Self {
        Worker {
            link: Box::new(link),
            resume,
            child: None,
        }
    }

    /// Spawns a local child and waits for its `ready <schema>` handshake;
    /// `None` when it cannot start or speaks another engine schema (mixed
    /// builds).
    fn spawn(command: &WorkerCommand) -> Option<Worker> {
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
        // The child lives in `worker` from the start, so every early
        // return kills and reaps it.
        let mut worker = Worker::new(PipeTransport::new(io::empty(), io::sink(), ""), None);
        let child = worker.child.insert(cmd.spawn().ok()?);
        let (stdin, stdout) = (child.stdin.take()?, child.stdout.take()?);
        let peer = format!("worker w{seq}");
        worker.link = Box::new(PipeTransport::new(BufReader::new(stdout), stdin, peer));
        let ready = worker.link.recv_text().ok()??;
        (ready == format!("ready {ENGINE_SCHEMA_VERSION}")).then_some(worker)
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Kill unconditionally, then reap: a healthy child would exit on
        // the stdin EOF anyway, and a wedged one must not hang the sweep.
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// What the sweep's thread waits for: the one channel of a run.
pub(crate) enum Event {
    /// A worker arrived on its own (a TCP registration).
    Arrived(Worker),
    /// A worker's thread ended; true when its worker died, disconnected or
    /// failed its greeting (false when it drained the pool or could not
    /// start).
    Exited(bool),
    /// The last point was resolved, or a fail-fast abort began.
    Resolved,
    /// The no-worker grace period armed in this epoch ran out.
    GraceOver(u64),
}

/// A source of workers for [`run_points`]. The provided methods describe
/// local children, which the sweep starts itself instead of waiting for.
pub(crate) trait Fleet: Sync {
    /// Starts a run: workers that are or become available on their own are
    /// sent on `events`. Returns how many workers to [`spawn`](Self::spawn).
    fn open(&self, events: &Sender<Event>) -> usize;

    /// Starts one worker, for the run's start or to replace one that died,
    /// and waits until it is ready; `None` when it cannot start.
    fn spawn(&self) -> Option<Worker>;

    /// The liveness deadline and the no-worker grace period.
    fn tuning(&self) -> ExecTuning {
        ExecTuning {
            grace: Duration::ZERO,
            ..ExecTuning::default()
        }
    }

    /// Readies a fresh worker for the points of sweep `digest`: `None`
    /// when it cannot serve them, `Some(resumed)` otherwise.
    fn greet(&self, _worker: &mut Worker, _digest: &str) -> Option<bool> {
        Some(false)
    }

    /// Ends a run; `unused` are the workers that arrived but were never
    /// driven.
    fn close(&self, unused: &mut dyn Iterator<Item = Worker>) {
        unused.for_each(drop);
    }
}

/// No fleet: every point is computed on [`Supervisor::jobs`] threads of
/// the sweep's own process, started at once (its grace period is zero).
pub(crate) struct InProcess;

impl Fleet for InProcess {
    fn open(&self, _: &Sender<Event>) -> usize {
        0
    }

    fn spawn(&self) -> Option<Worker> {
        None
    }
}

/// The `--workers N` fleet: `workers` local children of `command`, each
/// replaced when it dies.
pub(crate) struct LocalFleet {
    pub(crate) command: WorkerCommand,
    pub(crate) workers: usize,
}

impl Fleet for LocalFleet {
    fn open(&self, _: &Sender<Event>) -> usize {
        self.workers
    }

    fn spawn(&self) -> Option<Worker> {
        Worker::spawn(&self.command)
    }
}

// ---------------------------------------------------------------------------
// The scheduler
// ---------------------------------------------------------------------------

/// Runs `specs` on the workers `fleet` provides, under `sup`'s failure
/// policy, budget and retry bound; outcomes come back in point order with
/// the run's robustness counters. `digest` names the sweep to workers that
/// register for it.
///
/// `fallback` computes one point in-process (under the given budget); it
/// runs when no worker is available and for a point whose workers keep
/// dying. `on_done` runs the moment a point completes (this is where the
/// supervisor appends the journal line and writes the result store); an
/// `Err` from it demotes the point to [`PointOutcome::Failed`].
pub(crate) fn run_points<F, G>(
    fleet: &dyn Fleet,
    sup: &Supervisor,
    digest: &str,
    specs: &[PointSpec],
    fallback: G,
    on_done: F,
) -> (Vec<PointOutcome<ScenarioReport>>, RobustnessCounters)
where
    F: Fn(usize, &ScenarioReport) -> Result<(), RunError> + Sync,
    G: Fn(usize, &RunBudget) -> Result<ScenarioReport, RunError> + Sync,
{
    let tuning = fleet.tuning();
    let (events, inbox) = channel();
    let ctx = RunCtx {
        digest,
        specs,
        sup,
        liveness: tuning.liveness,
        next: AtomicUsize::new(0),
        requeued: Mutex::new(Vec::new()),
        retried: specs.iter().map(|_| AtomicU32::new(0)).collect(),
        deaths: specs.iter().map(|_| AtomicU32::new(0)).collect(),
        slots: specs.iter().map(|_| OnceLock::new()).collect(),
        resolved: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
        counters: Mutex::default(),
        events,
        on_done: &on_done,
        fallback: &fallback,
    };
    std::thread::scope(|scope| {
        // One thread per worker; given none, it spawns its own
        // (which waits for the child's `ready`) and then drives it.
        let start = |worker: Option<Worker>| {
            let ctx = &ctx;
            scope.spawn(move || {
                // A worker that could not start did not die: no replacement.
                let died = match worker.or_else(|| fleet.spawn()) {
                    Some(mut worker) => ctx.drive(&mut worker, fleet),
                    None => false,
                };
                // The worker is dropped (a child killed and reaped) by now.
                let _ = ctx.events.send(Event::Exited(died));
            });
        };
        // An in-process helper: computes points from the same pool until
        // it drains.
        let help = || {
            let ctx = &ctx;
            scope.spawn(move || {
                while let Some(j) = ctx.claim() {
                    ctx.run_local(j);
                }
                let _ = ctx.events.send(Event::Exited(false));
            });
        };
        // Worker and helper threads running, and the no-worker state: a
        // grace timer armed in `epoch`, then helpers once it runs out (at
        // once for a zero grace period, with no timer).
        let mut live = fleet.open(&ctx.events);
        (0..live).for_each(|_| start(None));
        let mut epoch = 0u64;
        let mut armed = false;
        let mut degraded = false;
        while ctx.resolved.load(Ordering::SeqCst) < specs.len() {
            let event = match inbox.try_recv() {
                Ok(event) => event,
                Err(_) => {
                    if live == 0 {
                        if degraded || tuning.grace.is_zero() {
                            let unclaimed = ctx.unclaimed();
                            if unclaimed > 0 {
                                live = effective_jobs(sup.jobs, unclaimed);
                                (0..live).for_each(|_| help());
                            }
                        } else if !armed {
                            armed = true;
                            // Not joined: it would hold the run open for up
                            // to the grace period.
                            let events = ctx.events.clone();
                            std::thread::spawn(move || {
                                std::thread::sleep(tuning.grace);
                                let _ = events.send(Event::GraceOver(epoch));
                            });
                        }
                    }
                    // `ctx` holds a sender, so the channel never disconnects.
                    let Ok(event) = inbox.recv() else { break };
                    event
                }
            };
            match event {
                Event::Arrived(worker) => {
                    live += 1;
                    epoch += 1;
                    armed = false;
                    degraded = false;
                    start(Some(worker));
                }
                Event::Exited(died) => {
                    live -= 1;
                    if died && ctx.unclaimed() > 0 {
                        live += 1;
                        start(None);
                    }
                }
                Event::Resolved => {}
                Event::GraceOver(armed_in) => degraded |= armed_in == epoch && live == 0,
            }
            ctx.skip_unclaimed_on_abort();
        }
    });
    fleet.close(&mut inbox.try_iter().filter_map(|event| match event {
        Event::Arrived(worker) => Some(worker),
        _ => None,
    }));

    let counters = ctx.count(|_| {});
    let lost = || {
        PointOutcome::Failed(RunError::Panicked {
            message: "scheduler lost a point slot".to_string(),
        })
    };
    let outcomes = ctx.slots.into_iter().map(|s| s.into_inner().unwrap_or_else(lost));
    (outcomes.collect(), counters)
}

/// Shared state of one run: the claim pool, the resolve-once slots, the
/// two per-point counts and the robustness counters.
struct RunCtx<'a> {
    digest: &'a str,
    specs: &'a [PointSpec],
    sup: &'a Supervisor,
    liveness: Duration,
    next: AtomicUsize,
    requeued: Mutex<Vec<usize>>,
    /// Budget doublings spent per point.
    retried: Vec<AtomicU32>,
    /// Worker deaths per point.
    deaths: Vec<AtomicU32>,
    /// Each point's outcome, set once; points resolve concurrently.
    slots: Vec<OnceLock<PointOutcome<ScenarioReport>>>,
    resolved: AtomicUsize,
    abort: AtomicBool,
    counters: Mutex<RobustnessCounters>,
    events: Sender<Event>,
    on_done: &'a (dyn Fn(usize, &ScenarioReport) -> Result<(), RunError> + Sync),
    fallback: &'a (dyn Fn(usize, &RunBudget) -> Result<ScenarioReport, RunError> + Sync),
}

impl RunCtx<'_> {
    /// Applies `update` to the counters; returns them after it.
    fn count(&self, update: impl FnOnce(&mut RobustnessCounters)) -> RobustnessCounters {
        let mut counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        update(&mut counters);
        *counters
    }

    /// Claims the next unowned point: requeued points first, then the
    /// shared counter. `None` once the pool is drained (or aborted).
    fn claim(&self) -> Option<usize> {
        (!self.abort.load(Ordering::SeqCst)).then(|| self.pop_unclaimed())?
    }

    fn pop_unclaimed(&self) -> Option<usize> {
        if let Some(j) = self.requeued.lock().ok().and_then(|mut q| q.pop()) {
            return Some(j);
        }
        let j = self.next.fetch_add(1, Ordering::SeqCst);
        (j < self.specs.len()).then_some(j)
    }

    /// How many points claims could still take (none after an abort).
    fn unclaimed(&self) -> usize {
        if self.abort.load(Ordering::SeqCst) {
            return 0;
        }
        let requeued = self.requeued.lock().map_or(0, |q| q.len());
        self.specs.len().saturating_sub(self.next.load(Ordering::SeqCst)) + requeued
    }

    /// The point's budget: the supervisor's, doubled once per budget retry
    /// spent on it.
    fn budget_for(&self, j: usize) -> RunBudget {
        let mut budget = self.sup.budget;
        for _ in 0..self.retried[j].load(Ordering::SeqCst) {
            budget = budget.doubled();
        }
        budget
    }

    /// Spends one budget retry on point `j`; false when none are left.
    fn retry_budget(&self, j: usize) -> bool {
        self.retried[j]
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.sup.retries).then_some(n + 1)
            })
            .is_ok()
    }

    /// Puts a claimed point back in the pool (skipped after an abort).
    fn requeue(&self, j: usize) {
        if self.abort.load(Ordering::SeqCst) {
            self.resolve(j, PointOutcome::Skipped);
        } else if let Ok(mut q) = self.requeued.lock() {
            q.push(j);
        }
    }

    /// Handles a worker's death while it held point `j`: the point goes
    /// back in the pool, or in-process once its workers died more than
    /// [`CRASH_RETRIES`] times.
    fn worker_died(&self, j: usize, timed_out: bool) {
        self.count(|c| {
            c.requeued_points += 1;
            c.worker_restarts += 1;
            c.heartbeat_misses += u64::from(timed_out);
        });
        if self.deaths[j].fetch_add(1, Ordering::SeqCst) + 1 > CRASH_RETRIES {
            self.run_local(j);
        } else {
            self.requeue(j);
        }
    }

    fn is_resolved(&self, j: usize) -> bool {
        self.slots.get(j).is_some_and(|slot| slot.get().is_some())
    }

    /// Resolves a point exactly once; a late duplicate is discarded, which
    /// is what keeps the journal free of duplicate appends.
    fn resolve(&self, j: usize, outcome: PointOutcome<ScenarioReport>) {
        let mut first = false;
        self.slots[j].get_or_init(|| {
            first = true;
            match outcome {
                PointOutcome::Done(report) => match (self.on_done)(j, &report) {
                    Ok(()) => PointOutcome::Done(report),
                    Err(e) => PointOutcome::Failed(e),
                },
                other => other,
            }
        });
        if !first {
            return;
        }
        if matches!(self.slots[j].get(), Some(PointOutcome::Failed(_)))
            && self.sup.policy == FailurePolicy::FailFast
        {
            self.abort.store(true, Ordering::SeqCst);
        }
        // Only the last resolution and an abort change what the sweep's
        // thread does next, so only they wake it.
        let last = self.resolved.fetch_add(1, Ordering::SeqCst) + 1 == self.specs.len();
        if last || self.abort.load(Ordering::SeqCst) {
            let _ = self.events.send(Event::Resolved);
        }
    }

    /// Handles a worker's reply for point `j`.
    fn finish(&self, j: usize, reply: Reply) {
        match reply {
            Reply::Done(report) => self.resolve(j, PointOutcome::Done(*report)),
            Reply::Fail { kind, .. } if kind == "budget-exceeded" && self.retry_budget(j) => {
                self.requeue(j)
            }
            Reply::Fail { kind, message } => {
                self.resolve(j, PointOutcome::Failed(RunError::Remote { kind, message }))
            }
        }
    }

    /// Computes point `j` in-process, with the same budget retries; a
    /// panic fails only this point and is never retried.
    fn run_local(&self, j: usize) {
        self.count(|c| c.in_process_points += 1);
        loop {
            let budget = self.budget_for(j);
            let attempt = catch_unwind(AssertUnwindSafe(|| (self.fallback)(j, &budget)));
            let outcome = attempt.unwrap_or_else(|payload| {
                Err(RunError::Panicked {
                    message: panic_message(payload.as_ref()),
                })
            });
            match outcome {
                Ok(report) => return self.resolve(j, PointOutcome::Done(report)),
                Err(e) if e.kind() == "budget-exceeded" && self.retry_budget(j) => {}
                Err(e) => return self.resolve(j, PointOutcome::Failed(e)),
            }
        }
    }

    /// After a fail-fast abort, resolves everything still unclaimed as
    /// skipped (claims return `None` once aborted, so nothing else will
    /// ever pick these up).
    fn skip_unclaimed_on_abort(&self) {
        if !self.abort.load(Ordering::SeqCst) {
            return;
        }
        while let Some(j) = self.pop_unclaimed() {
            self.resolve(j, PointOutcome::Skipped);
        }
    }

    /// Drives one worker through the claim pool until the pool drains or the
    /// worker dies; returns true when it died. Every exit path resolves or
    /// requeues the in-flight point, so nothing is lost.
    fn drive(&self, worker: &mut Worker, fleet: &dyn Fleet) -> bool {
        let Some(resumed) = fleet.greet(worker, self.digest) else {
            // Nothing in flight, nothing to requeue.
            self.count(|c| c.worker_restarts += 1);
            return true;
        };
        self.count(|c| c.backoff_retries += u64::from(resumed));
        let link = &mut *worker.link;
        while let Some(j) = self.claim() {
            match self.exchange(link, j) {
                Ok(reply) => self.finish(j, reply),
                Err(e) => {
                    self.worker_died(j, e.is_timeout());
                    return true;
                }
            }
        }
        let _ = link.send_text("shutdown");
        false
    }

    /// Ships point `j` and waits for its reply, skipping heartbeats and late
    /// duplicates for points already resolved.
    fn exchange(&self, link: &mut dyn FrameTransport, j: usize) -> Result<Reply, FrameError> {
        let budget = self.budget_for(j);
        link.send_text(&point_frame(j, &self.specs[j], &budget))?;
        // The hung-simulation deadline: the budget's wall limit plus headroom
        // for shipping. A worker may heartbeat forever; it may not *compute*
        // forever.
        let started = Instant::now();
        let hang_deadline = budget.max_wall.map(|w| w * 2 + self.liveness);
        let lost = |link: &dyn FrameTransport, what: &str| FrameError::Io {
            context: link.peer().to_string(),
            message: what.to_string(),
        };
        loop {
            let Some(frame) = link.recv()? else {
                return Err(lost(link, "worker disconnected mid-point"));
            };
            if frame == HEARTBEAT_PAYLOAD {
                if hang_deadline.is_some_and(|d| started.elapsed() > d) {
                    return Err(lost(link, "hung past its wall-clock deadline"));
                }
                continue;
            }
            match String::from_utf8(frame).ok().as_deref().and_then(parse_reply) {
                Some((echoed, reply)) if echoed == j => return Ok(reply),
                Some((echoed, _)) if self.is_resolved(echoed) => {}
                _ => return Err(lost(link, "malformed reply")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net_transport::FRAME_HEADER;
    use std::collections::VecDeque;
    use std::sync::Arc;

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
            in_process_points: 4,
        };
        a.merge(&b);
        a.merge(&b);
        assert!(a.any());
        assert_eq!(a.requeued_points, 2);
        assert_eq!(a.backoff_retries, 6);
        assert_eq!(a.in_process_points, 8);
        assert_eq!(
            b.to_string(),
            "requeued_points=1 worker_restarts=2 heartbeat_misses=0 backoff_retries=3 \
             in_process_points=4"
        );
    }

    // -- The scheduler, driven by in-memory workers --------------------------

    /// How a fake worker answers point `j`, given its spawn number: the
    /// frames it sends back, `None` meaning it dies (EOF).
    type Script = dyn Fn(usize, usize) -> Vec<Option<String>> + Send + Sync;
    type Log = Arc<Mutex<Vec<(usize, RunBudget)>>>;

    struct FakeWorker(usize, Arc<Script>, VecDeque<Option<String>>, Log);

    impl FrameTransport for FakeWorker {
        fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), FrameError> {
            let text = String::from_utf8_lossy(&bytes[FRAME_HEADER..]);
            if let Some((j, _, budget)) = parse_point_frame(&text) {
                self.2.extend((self.1)(self.0, j));
                self.3.lock().expect("log").push((j, budget));
            }
            Ok(())
        }
        fn recv(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
            Ok(self.2.pop_front().flatten().map(String::into_bytes))
        }
        fn set_read_deadline(&mut self, _: Option<Duration>) -> Result<(), FrameError> {
            Ok(())
        }
        fn peer(&self) -> &str {
            "fake"
        }
    }

    /// A local-style fleet: one fake worker at the start and a fresh one
    /// per death, all logging the point frames they receive.
    struct FakeFleet(Arc<Script>, AtomicUsize, Log);

    impl Fleet for FakeFleet {
        fn open(&self, _: &Sender<Event>) -> usize {
            1
        }
        fn spawn(&self) -> Option<Worker> {
            let id = self.1.fetch_add(1, Ordering::SeqCst);
            let fake = FakeWorker(id, Arc::clone(&self.0), VecDeque::new(), Arc::clone(&self.2));
            Some(Worker::new(fake, None))
        }
    }

    /// A cheap report whose event count names its point: one short run,
    /// cloned.
    fn report(j: usize) -> ScenarioReport {
        static RUN: OnceLock<ScenarioReport> = OnceLock::new();
        let run = RUN.get_or_init(|| {
            let mut cfg = crate::ScenarioBuilder::paper().finish();
            cfg.num_clients = 1;
            cfg.duration = SimDuration::from_millis(100);
            crate::supervise::run_point(&cfg, &RunBudget::UNLIMITED).expect("runs")
        });
        ScenarioReport {
            events_processed: j as u64,
            ..run.clone()
        }
    }

    fn done(j: usize) -> Option<String> {
        Some(format!("done {j}\n{}", codec::encode(&report(j)).expect("encodes")))
    }

    struct Run {
        outcomes: Vec<PointOutcome<ScenarioReport>>,
        counters: RobustnessCounters,
        /// The point frames the workers received, as `(index, budget)`.
        sent: Vec<(usize, RunBudget)>,
        /// `on_done` and fallback calls per point.
        done_calls: Vec<u32>,
        local_calls: Vec<u32>,
    }

    /// Runs `n` points on a fake fleet answering with `script`.
    fn run(
        sup: &Supervisor,
        n: usize,
        script: impl Fn(usize, usize) -> Vec<Option<String>> + Send + Sync + 'static,
    ) -> Run {
        let fleet = FakeFleet(Arc::new(script), AtomicUsize::new(0), Arc::default());
        let calls = || (0..n).map(|_| AtomicU32::new(0)).collect::<Vec<_>>();
        let (done_calls, local_calls) = (calls(), calls());
        let spec = PointSpec {
            protocol: Protocol::Reno,
            clients: 3,
            seed: 1,
        };
        let (outcomes, counters) = run_points(
            &fleet,
            sup,
            "digest",
            &vec![spec; n],
            |j, _| {
                local_calls[j].fetch_add(1, Ordering::SeqCst);
                Ok(report(j))
            },
            |j, r| {
                assert_eq!(r.events_processed, j as u64, "a report lands in its own slot");
                done_calls[j].fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        );
        let counts = |v: Vec<AtomicU32>| v.into_iter().map(AtomicU32::into_inner).collect();
        let sent = fleet.2.lock().expect("log").clone();
        Run {
            outcomes,
            counters,
            sent,
            done_calls: counts(done_calls),
            local_calls: counts(local_calls),
        }
    }

    fn all_done(outcomes: &[PointOutcome<ScenarioReport>]) -> bool {
        outcomes.iter().all(|o| matches!(o, PointOutcome::Done(_)))
    }

    /// A supervisor with an event budget and `retries` budget retries.
    fn budgeted(retries: u32) -> Supervisor {
        Supervisor {
            budget: RunBudget {
                max_events: Some(1000),
                ..RunBudget::UNLIMITED
            },
            retries,
            ..Supervisor::default()
        }
    }

    #[test]
    fn a_zombies_late_duplicate_is_discarded() {
        // Every reply comes twice: the copy reaches the scheduler while it
        // waits for the next point, after the first copy resolved.
        let r = run(&Supervisor::default(), 5, |_, j| vec![done(j), done(j)]);
        assert!(all_done(&r.outcomes));
        assert_eq!(r.done_calls, vec![1; 5], "on_done runs exactly once per point");
        assert_eq!(r.local_calls, vec![0; 5]);
        assert!(!r.counters.any(), "a discarded duplicate is no fault: {}", r.counters);
    }

    #[test]
    fn a_point_whose_workers_keep_dying_finishes_in_process() {
        // Whoever is handed point 2 dies.
        let r = run(&Supervisor::default(), 5, |_, j| vec![if j == 2 { None } else { done(j) }]);
        assert!(all_done(&r.outcomes));
        assert_eq!(r.done_calls, vec![1; 5]);
        assert_eq!(r.local_calls, vec![0, 0, 1, 0, 0], "only the poisonous point");
        let deaths = u64::from(CRASH_RETRIES) + 1;
        assert_eq!(r.sent.iter().filter(|(j, _)| *j == 2).count() as u64, deaths);
        assert_eq!(r.counters.requeued_points, deaths);
        assert_eq!(r.counters.worker_restarts, deaths);
        assert_eq!(r.counters.in_process_points, 1);
    }

    #[test]
    fn fail_fast_marks_every_unclaimed_point_skipped() {
        let sup = Supervisor {
            policy: FailurePolicy::FailFast,
            ..Supervisor::default()
        };
        let r = run(&sup, 4, |_, j| vec![Some(format!("fail {j} panicked\nboom"))]);
        assert!(matches!(r.outcomes[0], PointOutcome::Failed(_)));
        assert!(r.outcomes[1..].iter().all(|o| matches!(o, PointOutcome::Skipped)));
        assert_eq!(r.sent.len(), 1, "nothing is claimed after the abort");
        assert_eq!(r.done_calls, vec![0; 4]);
    }

    #[test]
    fn budget_overruns_retry_with_doubled_budgets_exactly_retries_times() {
        let r = run(&budgeted(2), 1, |_, j| {
            vec![Some(format!("fail {j} budget-exceeded\nout of events"))]
        });
        match &r.outcomes[0] {
            PointOutcome::Failed(RunError::Remote { kind, .. }) => assert_eq!(kind, "budget-exceeded"),
            other => panic!("expected a budget failure, got {other:?}"),
        }
        let budgets: Vec<_> = r.sent.iter().map(|(_, b)| b.max_events).collect();
        assert_eq!(budgets, vec![Some(1000), Some(2000), Some(4000)]);
        assert!(!r.counters.any(), "a budget retry is no fault: {}", r.counters);
    }

    /// A fleet none of whose workers can start.
    struct DeadFleet;

    impl Fleet for DeadFleet {
        fn open(&self, _: &Sender<Event>) -> usize {
            1
        }
        fn spawn(&self) -> Option<Worker> {
            None
        }
    }

    #[test]
    fn a_fleet_without_workers_computes_on_jobs_threads() {
        // Each point waits, bounded, until both have started: only points
        // computed at once can meet.
        let (started, met) = (Mutex::new(0), std::sync::Condvar::new());
        let meet = |j, _: &RunBudget| {
            let mut n = started.lock().expect("count");
            *n += 1;
            met.notify_all();
            let ten = Duration::from_secs(10);
            let (n, wait) = met.wait_timeout_while(n, ten, |n| *n < 2).expect("count");
            drop(n);
            if wait.timed_out() {
                return Err(RunError::Panicked { message: format!("point {j} ran alone") });
            }
            Ok(report(j))
        };
        let sup = Supervisor { jobs: 2, ..Supervisor::default() };
        let spec = PointSpec { protocol: Protocol::Reno, clients: 3, seed: 1 };
        let (outcomes, counters) = run_points(&DeadFleet, &sup, "", &[spec; 2], meet, |_, _| Ok(()));
        assert!(all_done(&outcomes), "{outcomes:?}");
        assert_eq!(counters.in_process_points, 2);
    }

    #[test]
    fn keep_going_isolates_a_panicking_point() {
        // On its own thread, bounded: a panic that escaped its helper would
        // leave point 5 unresolved and the run waiting forever.
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let calls: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
            let fallback = |j: usize, _: &RunBudget| {
                calls[j].fetch_add(1, Ordering::SeqCst);
                if j == 5 {
                    panic!("deliberate point failure");
                }
                Ok(report(j))
            };
            let sup = Supervisor {
                jobs: 2,
                retries: 5,
                ..Supervisor::default()
            };
            let spec = PointSpec {
                protocol: Protocol::Reno,
                clients: 3,
                seed: 1,
            };
            let specs = [spec; 8];
            let (outcomes, _) = run_points(&InProcess, &sup, "", &specs, fallback, |_, _| Ok(()));
            let calls: Vec<u32> = calls.into_iter().map(AtomicU32::into_inner).collect();
            let _ = tx.send((outcomes, calls));
        });
        let (outcomes, calls) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the run ends despite the panic");
        for (j, outcome) in outcomes.iter().enumerate() {
            match outcome {
                PointOutcome::Done(r) => assert_eq!(r.events_processed, j as u64, "point {j}"),
                PointOutcome::Failed(RunError::Panicked { message }) if j == 5 => {
                    assert_eq!(message, "deliberate point failure");
                }
                other => panic!("unexpected outcome at {j}: {other:?}"),
            }
        }
        assert!(
            matches!(outcomes[5], PointOutcome::Failed(_)),
            "point 5 fails"
        );
        assert_eq!(
            calls,
            vec![1; 8],
            "a panic is never retried, even with retries left"
        );
    }

    #[test]
    fn a_worker_death_does_not_double_the_budget() {
        // The first worker dies on its first point; its replacement answers.
        let r = run(&budgeted(1), 1, |worker, j| vec![(worker > 0).then(|| done(j)).flatten()]);
        assert!(all_done(&r.outcomes));
        let budgets: Vec<_> = r.sent.iter().map(|(_, b)| b.max_events).collect();
        assert_eq!(budgets, vec![Some(1000), Some(1000)]);
        assert_eq!((r.counters.requeued_points, r.counters.worker_restarts), (1, 1));
    }
}
