//! The distributed sweep service: a long-running daemon that accepts
//! sweep jobs and worker registrations over TCP, and the remote worker
//! that dials in and computes grid points for it.
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
//! running. The job's [`RemoteExec`] is then one more fleet for the
//! scheduler in [`crate::workers`]: the same claim pool, requeue and
//! resolve-once rules, retry policy and counters as `--workers N`, so
//! output stays byte-identical and the robustness model described there
//! holds here too.
//!
//! A disconnected worker reconnects with exponential backoff + jitter,
//! offering the job digest it already holds; a matching digest
//! short-circuits to a `resume` handshake (`backoff_retries`) instead of
//! reshipping the config. A worker that has served a job gets `shutdown`
//! and exits; one that registers after the job drained stays parked for
//! the next job.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::config::ScenarioConfig;
use crate::net_transport::{FrameTransport, TcpTransport};
use crate::store::ENGINE_SCHEMA_VERSION;
use crate::workers::{serve_points, with_chaos, Event, Fleet, SessionEnd, Worker};

/// How long a freshly accepted connection gets to identify itself.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(5);

/// Tuning for the scheduler's side of the control plane.
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

/// Where registered workers go: parked until a job runs, then straight to
/// the running job's scheduler.
#[derive(Default)]
struct Door {
    parked: Vec<Worker>,
    sink: Option<Sender<Event>>,
}

impl Door {
    fn admit(&mut self, worker: Worker) {
        match &self.sink {
            // The job's receiver outlives its sink: `close` detaches first.
            Some(sink) => {
                let _ = sink.send(Event::Arrived(worker));
            }
            None => self.parked.push(worker),
        }
    }
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
/// parks workers until a [`RemoteExec`] runs a job on them.
pub struct Gateway {
    addr: SocketAddr,
    door: Arc<Mutex<Door>>,
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
        let door = Arc::new(Mutex::new(Door::default()));
        let (jobs_tx, jobs_rx) = channel();
        let token = token.to_string();
        let workers = Arc::clone(&door);
        std::thread::spawn(move || accept_loop(listener, token, workers, jobs_tx));
        Ok(Gateway {
            addr,
            door,
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

    fn door(&self) -> MutexGuard<'_, Door> {
        self.door.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

fn accept_loop(
    listener: TcpListener,
    token: String,
    workers: Arc<Mutex<Door>>,
    jobs: Sender<JobConn>,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let token = token.clone();
        let workers = Arc::clone(&workers);
        let jobs = jobs.clone();
        std::thread::spawn(move || classify(stream, &token, &workers, &jobs));
    }
}

/// Reads one identification frame and routes the connection; anything
/// malformed, mis-tokened or mis-versioned gets a `reject` frame and is
/// dropped.
fn classify(stream: TcpStream, token: &str, workers: &Mutex<Door>, jobs: &Sender<JobConn>) {
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
        workers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .admit(Worker::new(t, resume));
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
// RemoteExec: the registered workers as one sweep's fleet
// ---------------------------------------------------------------------------

/// The fleet of one sweep job: the workers registered at the gateway,
/// driven by the shared scheduler ([`crate::workers`]), with in-process
/// execution after [`ExecTuning::grace`] without any. Attach to a
/// [`crate::SweepSupervisor`] via [`remote`](crate::SweepSupervisor::remote).
#[derive(Debug)]
pub struct RemoteExec {
    gateway: Arc<Gateway>,
    argv: Vec<String>,
    tuning: ExecTuning,
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
}

impl Fleet for RemoteExec {
    fn open(&self, events: &Sender<Event>) -> usize {
        let mut door = self.gateway.door();
        for worker in door.parked.drain(..) {
            let _ = events.send(Event::Arrived(worker));
        }
        door.sink = Some(events.clone());
        0
    }

    fn spawn(&self) -> Option<Worker> {
        // A lost remote worker reconnects on its own.
        None
    }

    fn tuning(&self) -> ExecTuning {
        self.tuning
    }

    /// Registration reply: a reconnecting worker offering the right digest
    /// resumes without reshipping the config.
    fn greet(&self, worker: &mut Worker, digest: &str) -> Option<bool> {
        let resumed = worker.resume.as_deref() == Some(digest);
        let greeting = if resumed {
            format!("resume {digest}")
        } else {
            format!("job {digest}\n{}", self.argv.join("\n"))
        };
        let t = &mut worker.link;
        // A config parse failure, digest mismatch or death during setup
        // leaves nothing in flight.
        let ready = t.send_text(&greeting).is_ok()
            && t.set_read_deadline(Some(self.tuning.liveness)).is_ok()
            && matches!(t.recv_text(), Ok(Some(text)) if text == format!("ready {digest}"));
        ready.then_some(resumed)
    }

    fn close(&self, unused: &mut dyn Iterator<Item = Worker>) {
        let mut door = self.gateway.door();
        door.sink = None;
        door.parked.extend(unused);
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

/// The body of `tcpburst worker --connect ADDR`: dials the daemon,
/// registers under the shared token, and serves grid points — computing
/// them on a helper thread while heartbeating the connection — until a
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
                let end = with_chaos(transport, |t| session_loop(t, opts, parse, &mut held));
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

fn session_loop(
    t: &mut dyn FrameTransport,
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
    serve_points(t, &cfg, Some(opts.heartbeat))
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
        // A running job's fleet receives the registration.
        let exec = RemoteExec::new(Arc::clone(&gateway), Vec::new(), ExecTuning::default());
        let (events, arrivals) = channel();
        assert_eq!(exec.open(&events), 0);
        match arrivals.recv_timeout(Duration::from_secs(5)) {
            Ok(Event::Arrived(worker)) => assert_eq!(worker.resume.as_deref(), Some("abc123")),
            _ => panic!("worker not routed"),
        }
    }
}
