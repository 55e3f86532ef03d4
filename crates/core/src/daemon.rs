//! The distributed sweep service: a long-running daemon that accepts
//! sweep jobs and worker registrations over TCP, and the remote worker
//! that dials in and steals grid points from the same claim-counter pool
//! the in-process engines use.
//!
//! ## Topology
//!
//! ```text
//!   tcpburst submit ----> tcpburst serve <---- tcpburst worker --connect
//!   (job: argv tail)      (gateway + claim pool)    (1..n machines)
//! ```
//!
//! The daemon ([`Gateway`]) listens on one socket and classifies each
//! connection by its first frame: `worker <token> <schema> <resume|->`
//! registers a worker, `sweep <token>\n<argv…>` submits a job. Workers
//! authenticate with the shared job token and are parked until a job is
//! running; the job's [`RemoteExec`] then drives every registered worker
//! from a shared claim pool — the same work-stealing discipline as the
//! thread pool and process pool, so output stays byte-identical.
//!
//! ## Robustness model
//!
//! Every failure mode has a bounded, counted recovery:
//!
//! * **Silent worker** — while a point is in flight the worker heartbeats
//!   (`hb` frames) between compute polls; the daemon reads under a
//!   liveness deadline, and a deadline expiry *requeues* the in-flight
//!   point and drops the connection (`heartbeat_misses`).
//! * **Dead or partitioned worker** — any frame error (EOF, truncation,
//!   checksum, injected chaos) requeues the in-flight point
//!   (`requeued_points`, `worker_restarts`).
//! * **Hung simulation** — the per-point wall-clock budget travels in the
//!   point frame; a worker that heartbeats past the budget-derived
//!   deadline is cut off, and the point retries under the supervisor's
//!   budget-doubling policy.
//! * **Worker comeback** — a disconnected worker reconnects with
//!   exponential backoff + jitter, offering the job digest it already
//!   holds; a matching digest short-circuits to a `resume` handshake
//!   (`backoff_retries`) instead of reshipping the config.
//! * **Total worker loss** — when no worker has been live for a grace
//!   period, the driver degrades gracefully and computes claims
//!   *in-process*; a late worker can still rejoin and steal what's left.
//!
//! A point is resolved exactly once: a zombie worker's late reply for an
//! already-requeued point is discarded, so the journal never sees a
//! duplicate append and the byte-identity contract holds under any chaos
//! schedule ([`crate::chaos`]).

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::chaos::{ChaosSchedule, ChaosTransport, HEARTBEAT_PAYLOAD};
use crate::config::ScenarioConfig;
use crate::net_transport::{FrameTransport, TcpTransport};
use crate::report::ScenarioReport;
use crate::store::ENGINE_SCHEMA_VERSION;
use crate::supervise::{FailurePolicy, PointOutcome, RunBudget, RunError};
use crate::workers::{
    parse_reply, point_frame, PointSpec, Reply, RobustnessCounters, SharedCounters,
};

/// How long a freshly accepted connection gets to identify itself.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(5);

/// Hard cap on how often one point may be requeued before it is failed —
/// a backstop against a point that kills every worker it touches forever.
const MAX_REQUEUES: u32 = 32;

/// Tuning for the daemon side of the control plane.
#[derive(Debug, Clone, Copy)]
pub struct ExecTuning {
    /// Read deadline while a point is in flight: a worker that sends
    /// neither a reply nor a heartbeat for this long is declared dead.
    pub liveness: Duration,
    /// How long the driver waits with zero live workers before degrading
    /// to in-process execution.
    pub grace: Duration,
}

impl Default for ExecTuning {
    fn default() -> Self {
        ExecTuning {
            liveness: Duration::from_millis(2000),
            grace: Duration::from_millis(1500),
        }
    }
}

// ---------------------------------------------------------------------------
// Gateway: the daemon's accept loop
// ---------------------------------------------------------------------------

/// A registered remote worker, parked until a job drives it.
pub(crate) struct WorkerConn {
    transport: TcpTransport,
    /// The job digest the worker already holds (a reconnecting worker's
    /// resume offer), if any.
    resume: Option<String>,
}

/// A submitted sweep job: the client's connection plus the argv tail it
/// wants run. The daemon streams output frames back on the same
/// connection.
pub struct JobConn {
    transport: TcpTransport,
    argv: Vec<String>,
}

impl JobConn {
    /// The submitted CLI argument tail.
    pub fn argv(&self) -> &[String] {
        &self.argv
    }

    /// Streams a chunk of stdout text back to the submitter.
    pub fn send_out(&mut self, text: &str) -> bool {
        self.transport.send_text(&format!("out\n{text}")).is_ok()
    }

    /// Streams a chunk of stderr text back to the submitter.
    pub fn send_err(&mut self, text: &str) -> bool {
        self.transport.send_text(&format!("err\n{text}")).is_ok()
    }

    /// Ends the job conversation: `ok` tells the submitter the sweep
    /// completed, the message carries a failure summary otherwise.
    pub fn finish(&mut self, ok: bool, message: &str) {
        let frame = if ok {
            "done ok".to_string()
        } else {
            format!("done fail\n{message}")
        };
        let _ = self.transport.send_text(&frame);
    }
}

/// The daemon's front door: binds the listen address, accepts and
/// classifies connections (worker registrations vs job submissions), and
/// parks workers until a [`RemoteExec`] drives them.
pub struct Gateway {
    addr: SocketAddr,
    workers_rx: Mutex<Receiver<WorkerConn>>,
    jobs_rx: Mutex<Receiver<JobConn>>,
}

impl fmt::Debug for Gateway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gateway").field("addr", &self.addr).finish()
    }
}

impl Gateway {
    /// Binds `listen` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// starts the accept thread. Connections must present `token` in
    /// their first frame or are rejected. The accept thread is detached
    /// and lives until the process exits.
    pub fn bind(listen: &str, token: &str) -> io::Result<Gateway> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let (workers_tx, workers_rx) = channel();
        let (jobs_tx, jobs_rx) = channel();
        let token = token.to_string();
        std::thread::spawn(move || accept_loop(listener, token, workers_tx, jobs_tx));
        Ok(Gateway {
            addr,
            workers_rx: Mutex::new(workers_rx),
            jobs_rx: Mutex::new(jobs_rx),
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks for the next submitted job; `None` when the accept loop has
    /// died (the listener socket failed).
    pub fn next_job(&self) -> Option<JobConn> {
        let rx = self.jobs_rx.lock().ok()?;
        rx.recv().ok()
    }

    fn next_worker(&self, timeout: Duration) -> Result<WorkerConn, RecvTimeoutError> {
        let rx = self
            .workers_rx
            .lock()
            .map_err(|_| RecvTimeoutError::Disconnected)?;
        rx.recv_timeout(timeout)
    }
}

fn accept_loop(
    listener: TcpListener,
    token: String,
    workers: Sender<WorkerConn>,
    jobs: Sender<JobConn>,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let token = token.clone();
        let workers = workers.clone();
        let jobs = jobs.clone();
        std::thread::spawn(move || classify(stream, &token, &workers, &jobs));
    }
}

/// Reads one identification frame and routes the connection; anything
/// malformed, mis-tokened or mis-versioned gets a `reject` frame and is
/// dropped.
fn classify(
    stream: TcpStream,
    token: &str,
    workers: &Sender<WorkerConn>,
    jobs: &Sender<JobConn>,
) {
    let mut t = TcpTransport::new(stream);
    if t.set_read_deadline(Some(HANDSHAKE_DEADLINE)).is_err() {
        return;
    }
    let Ok(Some(text)) = t.recv_text() else {
        return;
    };
    if let Some(rest) = text.strip_prefix("worker ") {
        let mut tokens = rest.split_whitespace();
        let (Some(offered), Some(schema), Some(resume)) =
            (tokens.next(), tokens.next(), tokens.next())
        else {
            let _ = t.send_text("reject malformed worker registration");
            return;
        };
        if offered != token {
            let _ = t.send_text("reject bad token");
            return;
        }
        if schema.parse::<u32>().ok() != Some(ENGINE_SCHEMA_VERSION) {
            let _ = t.send_text(&format!(
                "reject worker speaks engine schema {schema}, daemon expects \
                 {ENGINE_SCHEMA_VERSION} (mixed builds?)"
            ));
            return;
        }
        // Park until a job drives this worker; no deadline while idle.
        if t.set_read_deadline(None).is_err() {
            return;
        }
        let resume = (resume != "-").then(|| resume.to_string());
        let _ = workers.send(WorkerConn {
            transport: t,
            resume,
        });
    } else if let Some(body) = text.strip_prefix("sweep ") {
        let (offered, argv_text) = match body.split_once('\n') {
            Some((head, tail)) => (head.trim(), tail),
            None => (body.trim(), ""),
        };
        if offered != token {
            let _ = t.send_text("reject bad token");
            return;
        }
        let argv: Vec<String> = argv_text
            .lines()
            .map(str::to_string)
            .filter(|l| !l.is_empty())
            .collect();
        let _ = jobs.send(JobConn { transport: t, argv });
    } else {
        let _ = t.send_text("reject unrecognized peer");
    }
}

// ---------------------------------------------------------------------------
// RemoteExec: driving registered workers through one sweep
// ---------------------------------------------------------------------------

/// Executes one sweep's pending grid points across the gateway's
/// registered remote workers, with the robustness model described in the
/// module docs. Attach to a [`crate::SweepSupervisor`] via
/// [`remote`](crate::SweepSupervisor::remote).
pub struct RemoteExec {
    gateway: Arc<Gateway>,
    argv: Vec<String>,
    tuning: ExecTuning,
}

impl fmt::Debug for RemoteExec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteExec")
            .field("gateway", &self.gateway)
            .field("argv", &self.argv)
            .field("tuning", &self.tuning)
            .finish()
    }
}

impl RemoteExec {
    /// A remote executor shipping `argv` (the scenario argument tail both
    /// sides parse into the identical base config) to workers registered
    /// at `gateway`.
    pub fn new(gateway: Arc<Gateway>, argv: Vec<String>, tuning: ExecTuning) -> RemoteExec {
        RemoteExec {
            gateway,
            argv,
            tuning,
        }
    }

    /// Runs every point across the registered workers (and, under total
    /// worker loss, in-process); outcomes come back in point order with
    /// the control plane's robustness counters. Semantics mirror
    /// [`crate::workers::WorkerPool::run_points`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_points<F, G>(
        &self,
        digest: &str,
        specs: &[PointSpec],
        budget: RunBudget,
        policy: FailurePolicy,
        retries: u32,
        fallback: G,
        on_done: F,
    ) -> (Vec<PointOutcome<ScenarioReport>>, RobustnessCounters)
    where
        F: Fn(usize, &ScenarioReport) -> Result<(), RunError> + Sync,
        G: Fn(usize, &RunBudget) -> Result<ScenarioReport, RunError> + Sync,
    {
        let ctx = RunCtx {
            digest,
            argv: &self.argv,
            specs,
            budget,
            policy,
            retries,
            liveness: self.tuning.liveness,
            next: AtomicUsize::new(0),
            requeued: Mutex::new(Vec::new()),
            attempts: specs.iter().map(|_| AtomicU32::new(0)).collect(),
            slots: Mutex::new((0..specs.len()).map(|_| None).collect()),
            resolved: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            live_workers: AtomicUsize::new(0),
            counters: SharedCounters::default(),
            on_done,
            fallback,
        };

        std::thread::scope(|scope| {
            let mut zero_since = Some(Instant::now());
            while ctx.resolved.load(Ordering::SeqCst) < specs.len() {
                match self.gateway.next_worker(Duration::from_millis(50)) {
                    Ok(conn) => {
                        ctx.live_workers.fetch_add(1, Ordering::SeqCst);
                        zero_since = None;
                        let ctx = &ctx;
                        scope.spawn(move || {
                            drive_worker(conn, ctx);
                            ctx.live_workers.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        // The gateway accept loop died: no worker will
                        // ever arrive again. Finish in-process.
                        while let Some(j) = ctx.claim() {
                            ctx.run_local(j);
                        }
                        ctx.skip_unclaimed_on_abort();
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if ctx.live_workers.load(Ordering::SeqCst) == 0 {
                            let since = *zero_since.get_or_insert_with(Instant::now);
                            if since.elapsed() >= self.tuning.grace {
                                // Graceful degradation: no remote worker
                                // for a full grace period — compute one
                                // claim in-process, then re-check the
                                // door so a late worker can still rejoin.
                                if let Some(j) = ctx.claim() {
                                    ctx.run_local(j);
                                }
                            }
                        } else {
                            zero_since = None;
                        }
                        ctx.skip_unclaimed_on_abort();
                    }
                }
            }
        });

        let outcomes = ctx
            .slots
            .lock()
            .map(|mut slots| {
                slots
                    .iter_mut()
                    .map(|slot| match slot.take() {
                        Some(outcome) => outcome,
                        None => PointOutcome::Failed(RunError::Panicked {
                            message: "remote driver lost a point slot".to_string(),
                        }),
                    })
                    .collect()
            })
            .unwrap_or_default();
        (outcomes, ctx.counters.snapshot())
    }
}

/// Shared state of one remote run: the claim pool, resolve-once slots,
/// per-point attempt counts and robustness counters.
struct RunCtx<'a, F, G> {
    digest: &'a str,
    argv: &'a [String],
    specs: &'a [PointSpec],
    budget: RunBudget,
    policy: FailurePolicy,
    retries: u32,
    liveness: Duration,
    next: AtomicUsize,
    requeued: Mutex<Vec<usize>>,
    attempts: Vec<AtomicU32>,
    slots: Mutex<Vec<Option<PointOutcome<ScenarioReport>>>>,
    resolved: AtomicUsize,
    abort: AtomicBool,
    live_workers: AtomicUsize,
    counters: SharedCounters,
    on_done: F,
    fallback: G,
}

impl<F, G> RunCtx<'_, F, G>
where
    F: Fn(usize, &ScenarioReport) -> Result<(), RunError> + Sync,
    G: Fn(usize, &RunBudget) -> Result<ScenarioReport, RunError> + Sync,
{
    /// Claims the next unowned point: requeued points first, then the
    /// shared counter. `None` once the pool is drained (or aborted).
    fn claim(&self) -> Option<usize> {
        if self.abort.load(Ordering::SeqCst) {
            return None;
        }
        if let Ok(mut q) = self.requeued.lock() {
            if let Some(j) = q.pop() {
                return Some(j);
            }
        }
        let j = self.next.fetch_add(1, Ordering::SeqCst);
        (j < self.specs.len()).then_some(j)
    }

    /// The point's budget under the doubling retry policy: doubled once
    /// per recorded attempt, capped at the retry bound.
    fn budget_for(&self, j: usize) -> RunBudget {
        let attempts = self.attempts[j].load(Ordering::SeqCst).min(self.retries);
        let mut budget = self.budget;
        for _ in 0..attempts {
            budget = budget.doubled();
        }
        budget
    }

    /// Puts an in-flight point back into the pool (its worker died, went
    /// silent, or overran its deadline); after [`MAX_REQUEUES`] the point
    /// is failed instead so a poisonous point cannot spin forever.
    fn requeue(&self, j: usize, why: &str) {
        self.counters.requeued_points.fetch_add(1, Ordering::Relaxed);
        let n = self.attempts[j].fetch_add(1, Ordering::SeqCst) + 1;
        if n > MAX_REQUEUES {
            self.resolve(
                j,
                PointOutcome::Failed(RunError::Remote {
                    kind: "requeue-limit".to_string(),
                    message: format!(
                        "point requeued {MAX_REQUEUES} times without completing (last: {why})"
                    ),
                }),
            );
            return;
        }
        if let Ok(mut q) = self.requeued.lock() {
            q.push(j);
        }
    }

    /// Resolves a point exactly once; late duplicates (a zombie worker
    /// replying for an already-requeued point) are discarded, which is
    /// what keeps the journal free of duplicate appends.
    fn resolve(&self, j: usize, outcome: PointOutcome<ScenarioReport>) {
        let Ok(mut slots) = self.slots.lock() else {
            return;
        };
        if slots[j].is_some() {
            return;
        }
        let outcome = match outcome {
            PointOutcome::Done(report) => match (self.on_done)(j, &report) {
                Ok(()) => PointOutcome::Done(report),
                Err(e) => PointOutcome::Failed(e),
            },
            other => other,
        };
        if matches!(outcome, PointOutcome::Failed(_)) && self.policy == FailurePolicy::FailFast {
            self.abort.store(true, Ordering::SeqCst);
        }
        slots[j] = Some(outcome);
        self.resolved.fetch_add(1, Ordering::SeqCst);
    }

    /// Handles a worker's terminal reply for a point.
    fn finish_remote(&self, j: usize, reply: Reply) -> RemoteStep {
        match reply {
            Reply::Done(report) => {
                self.resolve(j, PointOutcome::Done(*report));
                RemoteStep::Continue
            }
            Reply::Fail { kind, message } => {
                if kind == "budget-exceeded"
                    && self.attempts[j].load(Ordering::SeqCst) < self.retries
                {
                    self.attempts[j].fetch_add(1, Ordering::SeqCst);
                    if let Ok(mut q) = self.requeued.lock() {
                        q.push(j);
                    }
                } else {
                    self.resolve(j, PointOutcome::Failed(RunError::Remote { kind, message }));
                }
                RemoteStep::Continue
            }
        }
    }

    /// Computes one claimed point in-process (graceful degradation),
    /// honoring the budget-doubling retry policy.
    fn run_local(&self, j: usize) {
        let budget = self.budget_for(j);
        match (self.fallback)(j, &budget) {
            Ok(report) => self.resolve(j, PointOutcome::Done(report)),
            Err(e) => {
                if e.kind() == "budget-exceeded"
                    && self.attempts[j].load(Ordering::SeqCst) < self.retries
                {
                    self.attempts[j].fetch_add(1, Ordering::SeqCst);
                    if let Ok(mut q) = self.requeued.lock() {
                        q.push(j);
                    }
                } else {
                    self.resolve(j, PointOutcome::Failed(e));
                }
            }
        }
    }

    /// After a fail-fast abort, resolve everything still unclaimed as
    /// skipped (claims return `None` once aborted, so nothing else will
    /// ever pick these up).
    fn skip_unclaimed_on_abort(&self) {
        if !self.abort.load(Ordering::SeqCst) {
            return;
        }
        loop {
            let j = {
                let Ok(mut q) = self.requeued.lock() else { return };
                match q.pop() {
                    Some(j) => j,
                    None => {
                        let j = self.next.fetch_add(1, Ordering::SeqCst);
                        if j >= self.specs.len() {
                            return;
                        }
                        j
                    }
                }
            };
            self.resolve(j, PointOutcome::Skipped);
        }
    }
}

enum RemoteStep {
    Continue,
}

/// Drives one registered worker through the claim pool until the pool is
/// drained, the worker dies, or it goes silent past the liveness
/// deadline. Every exit path either resolves or requeues the in-flight
/// point — nothing is lost.
fn drive_worker<F, G>(mut conn: WorkerConn, ctx: &RunCtx<'_, F, G>)
where
    F: Fn(usize, &ScenarioReport) -> Result<(), RunError> + Sync,
    G: Fn(usize, &RunBudget) -> Result<ScenarioReport, RunError> + Sync,
{
    let t = &mut conn.transport;
    // Registration reply: a reconnecting worker offering the right digest
    // resumes without reshipping the config.
    let resumed = conn.resume.as_deref() == Some(ctx.digest);
    let greeting = if resumed {
        ctx.counters.backoff_retries.fetch_add(1, Ordering::Relaxed);
        format!("resume {}", ctx.digest)
    } else {
        format!("job {}\n{}", ctx.digest, ctx.argv.join("\n"))
    };
    if t.send_text(&greeting).is_err() || t.set_read_deadline(Some(ctx.liveness)).is_err() {
        ctx.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
        return;
    }
    match t.recv_text() {
        Ok(Some(text)) if text == format!("ready {}", ctx.digest) => {}
        _ => {
            // Config parse failure, digest mismatch or death during
            // setup: nothing in flight, nothing to requeue.
            ctx.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    loop {
        let Some(j) = ctx.claim() else {
            let _ = t.send_text("shutdown");
            return;
        };
        let budget = ctx.budget_for(j);
        if t.send_text(&point_frame(j, &ctx.specs[j], &budget)).is_err() {
            ctx.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
            ctx.requeue(j, "send failed");
            return;
        }
        // The hung-simulation deadline: the budget's wall limit plus
        // headroom for retry doubling and shipping. A worker may
        // heartbeat forever; it may not *compute* forever.
        let started = Instant::now();
        let hang_deadline = budget.max_wall.map(|w| w * 2 + ctx.liveness);
        loop {
            match t.recv() {
                Ok(Some(frame)) if frame == HEARTBEAT_PAYLOAD => {
                    if hang_deadline.is_some_and(|d| started.elapsed() > d) {
                        ctx.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
                        ctx.requeue(j, "hung past its wall-clock deadline");
                        return;
                    }
                }
                Ok(Some(frame)) => {
                    let reply = String::from_utf8(frame).ok().and_then(|s| parse_reply(&s));
                    match reply {
                        Some((echoed, reply)) if echoed == j => {
                            let RemoteStep::Continue = ctx.finish_remote(j, reply);
                            break;
                        }
                        _ => {
                            ctx.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
                            ctx.requeue(j, "malformed reply");
                            return;
                        }
                    }
                }
                Ok(None) => {
                    ctx.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
                    ctx.requeue(j, "worker disconnected mid-point");
                    return;
                }
                Err(e) => {
                    if e.is_timeout() {
                        ctx.counters.heartbeat_misses.fetch_add(1, Ordering::Relaxed);
                    }
                    ctx.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
                    ctx.requeue(j, &e.to_string());
                    return;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The remote worker side
// ---------------------------------------------------------------------------

/// Tuning for `tcpburst worker --connect`.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Daemon address to dial.
    pub connect: String,
    /// Shared job token presented at registration.
    pub token: String,
    /// Heartbeat interval while a point is computing (must be well below
    /// the daemon's liveness deadline).
    pub heartbeat: Duration,
    /// Reconnect attempts after a lost connection before giving up.
    pub max_reconnects: u32,
    /// First backoff delay; doubles per consecutive failure (with
    /// jitter), capped at [`backoff_cap`](Self::backoff_cap).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            connect: String::new(),
            token: DEFAULT_TOKEN.to_string(),
            heartbeat: Duration::from_millis(400),
            max_reconnects: 8,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// The token both sides use when none is configured. Deployments sharing
/// a network should set their own with `--token`.
pub const DEFAULT_TOKEN: &str = "tcpburst";

/// Cheap decorrelation jitter for reconnect backoff, seeded from the
/// process id and clock so simultaneous orphans don't reconnect in
/// lockstep. Not the simulation RNG — determinism of *results* never
/// depends on it.
fn jitter_frac() -> f64 {
    let seed = std::process::id() as u64 ^ Instant::now().elapsed().as_nanos() as u64
        ^ std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
    let mut x = seed | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    (x % 1000) as f64 / 1000.0
}

fn backoff_delay(opts: &WorkerOptions, failures: u32) -> Duration {
    let exp = opts
        .backoff_base
        .saturating_mul(1u32 << failures.min(16))
        .min(opts.backoff_cap);
    exp.mul_f64(0.5 + jitter_frac() / 2.0)
}

enum SessionEnd {
    /// Clean shutdown: the daemon drained the pool (or closed down).
    Done,
    /// The connection broke; reconnect with backoff and a resume offer.
    Lost,
    /// Registration was rejected; do not retry.
    Rejected(String),
}

/// The body of `tcpburst worker --connect ADDR`: dials the daemon,
/// registers under the shared token, and serves grid points — computing
/// each in a helper thread while heartbeating the connection — until a
/// clean shutdown. A lost connection reconnects with exponential backoff
/// and jitter, offering the held job digest so the daemon can `resume` the
/// session without reshipping the config. Returns the process exit code.
///
/// `parse` rebuilds the scenario base config from a job's argv tail (the
/// CLI passes its own parser, so daemon and worker run the identical
/// flag handling).
pub fn remote_worker_main(
    opts: &WorkerOptions,
    parse: &dyn Fn(&[String]) -> Result<ScenarioConfig, String>,
) -> i32 {
    let mut held: Option<(String, ScenarioConfig)> = None;
    let mut failures = 0u32;
    loop {
        let end = match connect(opts) {
            Ok(transport) => {
                let end = run_session(transport, opts, parse, &mut held);
                if matches!(end, SessionEnd::Lost) {
                    // Only a *connected* session resets the failure count;
                    // a session that dies immediately keeps backing off.
                    failures = failures.saturating_sub(failures.min(1));
                }
                end
            }
            Err(e) => {
                eprintln!("worker: connect {}: {e}", opts.connect);
                SessionEnd::Lost
            }
        };
        match end {
            SessionEnd::Done => return 0,
            SessionEnd::Rejected(reason) => {
                eprintln!("worker: registration rejected: {reason}");
                return 1;
            }
            SessionEnd::Lost => {
                failures += 1;
                if failures > opts.max_reconnects {
                    eprintln!(
                        "worker: giving up after {} reconnect attempts",
                        opts.max_reconnects
                    );
                    return 1;
                }
                std::thread::sleep(backoff_delay(opts, failures - 1));
            }
        }
    }
}

fn connect(opts: &WorkerOptions) -> io::Result<TcpTransport> {
    let addr = opts
        .connect
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::other(format!("{} resolves to no address", opts.connect)))?;
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    Ok(TcpTransport::new(stream).with_peer(format!("daemon {}", opts.connect)))
}

fn run_session(
    transport: TcpTransport,
    opts: &WorkerOptions,
    parse: &dyn Fn(&[String]) -> Result<ScenarioConfig, String>,
    held: &mut Option<(String, ScenarioConfig)>,
) -> SessionEnd {
    match ChaosSchedule::from_env() {
        Some(events) => session_loop(&mut ChaosTransport::new(transport, events), opts, parse, held),
        None => {
            let mut transport = transport;
            session_loop(&mut transport, opts, parse, held)
        }
    }
}

fn session_loop<T: FrameTransport>(
    t: &mut T,
    opts: &WorkerOptions,
    parse: &dyn Fn(&[String]) -> Result<ScenarioConfig, String>,
    held: &mut Option<(String, ScenarioConfig)>,
) -> SessionEnd {
    let resume = match held {
        Some((digest, _)) => digest.clone(),
        None => "-".to_string(),
    };
    if t.send_text(&format!(
        "worker {} {ENGINE_SCHEMA_VERSION} {resume}",
        opts.token
    ))
    .is_err()
    {
        return SessionEnd::Lost;
    }
    // Wait as long as it takes for a job to arrive.
    if t.set_read_deadline(None).is_err() {
        return SessionEnd::Lost;
    }
    let greeting = match t.recv_text() {
        Ok(Some(text)) => text,
        Ok(None) => return SessionEnd::Done,
        Err(_) => return SessionEnd::Lost,
    };
    let (digest, cfg) = if let Some(reason) = greeting.strip_prefix("reject ") {
        return SessionEnd::Rejected(reason.to_string());
    } else if let Some(rest) = greeting.strip_prefix("resume ") {
        match held {
            Some((digest, cfg)) if digest == rest => (digest.clone(), *cfg),
            _ => return SessionEnd::Lost,
        }
    } else if let Some(rest) = greeting.strip_prefix("job ") {
        let (digest, argv_text) = match rest.split_once('\n') {
            Some((d, tail)) => (d.to_string(), tail),
            None => (rest.to_string(), ""),
        };
        let argv: Vec<String> = argv_text.lines().map(str::to_string).collect();
        match parse(&argv) {
            Ok(cfg) => {
                *held = Some((digest.clone(), cfg));
                (digest, cfg)
            }
            Err(e) => {
                eprintln!("worker: cannot parse job argv: {e}");
                return SessionEnd::Rejected(format!("argv parse failed: {e}"));
            }
        }
    } else {
        return SessionEnd::Lost;
    };
    if t.send_text(&format!("ready {digest}")).is_err() {
        return SessionEnd::Lost;
    }
    serve_points(t, &cfg, opts)
}

/// Serves point frames until `shutdown`/EOF: each point computes in a
/// helper thread while the session thread heartbeats the daemon, so a
/// long simulation never looks like a dead worker.
fn serve_points<T: FrameTransport>(
    t: &mut T,
    cfg: &ScenarioConfig,
    opts: &WorkerOptions,
) -> SessionEnd {
    let crash_at: Option<usize> = std::env::var(crate::workers::CRASH_AT_ENV)
        .ok()
        .and_then(|v| v.parse().ok());
    // Between points the daemon should answer promptly; a long silence
    // here means it died. Generous deadline — claim scheduling is fast.
    let idle_deadline = opts.heartbeat.max(Duration::from_millis(100)) * 100;
    loop {
        if t.set_read_deadline(Some(idle_deadline)).is_err() {
            return SessionEnd::Lost;
        }
        let text = match t.recv_text() {
            Ok(Some(text)) => text,
            Ok(None) => return SessionEnd::Done,
            Err(_) => return SessionEnd::Lost,
        };
        if text == "shutdown" {
            return SessionEnd::Done;
        }
        let (tx, rx) = channel();
        let cfg = *cfg;
        let frame = text.clone();
        std::thread::spawn(move || {
            let _ = tx.send(crate::workers::handle_point(&cfg, &frame, crash_at));
        });
        loop {
            match rx.recv_timeout(opts.heartbeat) {
                Ok(Some(reply)) => {
                    if t.send_text(&reply).is_err() {
                        // The daemon requeued this point elsewhere (or
                        // died); reconnect and let the resolve-once slot
                        // discard any duplicate.
                        return SessionEnd::Lost;
                    }
                    break;
                }
                Ok(None) => return SessionEnd::Lost,
                Err(RecvTimeoutError::Timeout) => {
                    if t.send(HEARTBEAT_PAYLOAD).is_err() {
                        return SessionEnd::Lost;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return SessionEnd::Lost,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The submit client
// ---------------------------------------------------------------------------

/// Submits a sweep job (`argv` is the CLI tail the daemon will run, e.g.
/// `["sweep", "--protocols", "reno", …]`) and streams the daemon's output
/// into `out`/`err`. Returns `Ok(true)` when the daemon reports success,
/// `Ok(false)` when the sweep ran but failed, `Err` on transport trouble.
pub fn submit_job(
    addr: &str,
    token: &str,
    argv: &[String],
    out: &mut dyn io::Write,
    err: &mut dyn io::Write,
) -> Result<bool, String> {
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolving {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolves to no address"))?;
    let stream = TcpStream::connect_timeout(&sock, Duration::from_secs(5))
        .map_err(|e| format!("connecting {addr}: {e}"))?;
    let mut t = TcpTransport::new(stream).with_peer(format!("daemon {addr}"));
    t.send_text(&format!("sweep {token}\n{}", argv.join("\n")))
        .map_err(|e| e.to_string())?;
    loop {
        let text = match t.recv_text() {
            Ok(Some(text)) => text,
            Ok(None) => return Err("daemon closed the connection mid-job".to_string()),
            Err(e) => return Err(e.to_string()),
        };
        if let Some(chunk) = text.strip_prefix("out\n") {
            let _ = out.write_all(chunk.as_bytes());
        } else if let Some(chunk) = text.strip_prefix("err\n") {
            let _ = err.write_all(chunk.as_bytes());
        } else if text == "done ok" {
            return Ok(true);
        } else if let Some(message) = text.strip_prefix("done fail") {
            let _ = err.write_all(message.trim_start().as_bytes());
            return Ok(false);
        } else if let Some(reason) = text.strip_prefix("reject ") {
            return Err(format!("daemon rejected the job: {reason}"));
        } else {
            return Err(format!("unexpected daemon frame: {text:?}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_and_grows() {
        let opts = WorkerOptions::default();
        for failures in 0..20 {
            let d = backoff_delay(&opts, failures);
            assert!(d <= opts.backoff_cap, "failure {failures}: {d:?}");
            assert!(d >= opts.backoff_base / 4, "failure {failures}: {d:?}");
        }
        // The deterministic (pre-jitter) exponential must grow to the cap.
        let early = opts.backoff_base.saturating_mul(1);
        let late = opts
            .backoff_base
            .saturating_mul(1 << 10)
            .min(opts.backoff_cap);
        assert!(late > early);
        assert_eq!(late, opts.backoff_cap);
    }

    #[test]
    fn gateway_rejects_bad_tokens_and_schemas() {
        let gateway = Gateway::bind("127.0.0.1:0", "secret").expect("bind");
        let addr = gateway.local_addr();

        let mut t = TcpTransport::new(TcpStream::connect(addr).expect("connect"));
        t.send_text(&format!("worker wrong {ENGINE_SCHEMA_VERSION} -"))
            .expect("send");
        let reply = t.recv_text().expect("reply").expect("frame");
        assert!(reply.starts_with("reject bad token"), "{reply}");

        let mut t = TcpTransport::new(TcpStream::connect(addr).expect("connect"));
        t.send_text("worker secret 99999 -").expect("send");
        let reply = t.recv_text().expect("reply").expect("frame");
        assert!(reply.contains("schema"), "{reply}");

        let mut t = TcpTransport::new(TcpStream::connect(addr).expect("connect"));
        t.send_text("who goes there").expect("send");
        let reply = t.recv_text().expect("reply").expect("frame");
        assert!(reply.starts_with("reject"), "{reply}");
    }

    #[test]
    fn gateway_routes_jobs_and_workers() {
        let gateway = Arc::new(Gateway::bind("127.0.0.1:0", "tok").expect("bind"));
        let addr = gateway.local_addr();

        let mut submit = TcpTransport::new(TcpStream::connect(addr).expect("connect"));
        submit
            .send_text("sweep tok\nsweep\n--protocols\nreno")
            .expect("send");
        let job = gateway.next_job().expect("job routed");
        assert_eq!(job.argv(), ["sweep", "--protocols", "reno"]);

        let mut worker = TcpTransport::new(TcpStream::connect(addr).expect("connect"));
        worker
            .send_text(&format!("worker tok {ENGINE_SCHEMA_VERSION} abc123"))
            .expect("send");
        let conn = gateway
            .next_worker(Duration::from_secs(5))
            .expect("worker routed");
        assert_eq!(conn.resume.as_deref(), Some("abc123"));
    }
}
