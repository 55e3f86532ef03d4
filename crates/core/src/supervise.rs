//! Fault-tolerant sweep supervision: typed run errors, watchdog budgets,
//! invariant auditing and resumable run journals.
//!
//! The paper's figures are grids of hundreds of independent
//! `(protocol, clients, seed)` runs. A production-scale harness cannot let
//! one bad grid point destroy the batch, hang the pool, or silently corrupt
//! a figure, so this module wraps every point in three layers of defence:
//!
//! 1. **Typed failures** — each point runs under `catch_unwind`; panics,
//!    budget aborts, audit failures and journal I/O errors all surface as a
//!    [`RunError`] carried in the point's [`PointOutcome`] instead of
//!    unwinding the sweep.
//! 2. **Watchdog budgets** — a [`RunBudget`] caps simulated time, scheduler
//!    events and (optionally) wall-clock time per point. A tripped budget
//!    aborts the run into a *diagnostic partial report*
//!    ([`ScenarioReport::budget_exceeded`]) rather than hanging; budget
//!    failures are retried with a doubled budget up to
//!    [`Supervisor::retries`] times (retrying a deterministic simulation
//!    under the *same* budget would deterministically fail again).
//! 3. **Invariant auditing** — with [`ScenarioConfig::audit`] set, the end
//!    of every run is checked against the packet-conservation identity
//!    (see [`AuditReport`]), non-negative queue occupancy, a monotone
//!    clock, and the cwnd ≥ 1 MSS floor; a violated invariant becomes
//!    [`RunError::InvariantViolation`] with the offending counters.
//!
//! Completed points are journalled as one JSONL line each
//! ([`RunJournal`]), keyed by the content-addressed store digest of the
//! point's full configuration (see [`crate::store`]). Each line carries the
//! point's full report as the same [`codec`] payload the result store and
//! the worker frames use, with only the host wall clock left out, so
//! `tcpburst sweep --resume <journal>` restores finished points as full
//! reports, needing neither the store nor a re-run, and reproduces the
//! fresh run's figure tables byte-for-byte at any `--jobs`. Reports the
//! codec refuses (trace captures) get no line and re-run on resume.
//! A journal's header carries the engine schema it was written under, and
//! a journal from another schema, or in an older format (1 carried no
//! schema, 2 only the figure-table fields), is rejected, never resumed. A
//! journal whose every point completed is *finalized*:
//! atomically rewritten in canonical grid order, so an interrupted-then-
//! resumed sweep leaves the byte-identical journal an uninterrupted run
//! would have.
//!
//! [`SweepSupervisor`] is the one runner of every grid, and a grid is a
//! list of [`ScenarioConfig`]s. [`SweepSupervisor::new`] builds the
//! `protocol × clients × seed` list; its seed axis defaults to the base
//! configuration's one seed (the figure sweeps), `tcpburst replicate` sets
//! `seed .. seed + R`, and [`ReplicatedSweep`](crate::ReplicatedSweep)
//! folds the outcome into mean ± CI cells.
//! [`SweepSupervisor::from_configs`] takes any other list (ablation knobs,
//! the GAIMD α axis), whose reports come back in list order. Fresh points
//! run on the one claim pool of
//! [`crate::workers`]: on [`Supervisor::jobs`] threads of the sweep's own
//! process by default, or on a crash-isolated worker fleet, local or
//! remote, when one is attached. A content-addressed
//! [result store](crate::store), when attached, first resolves
//! already-computed points without simulating.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use tcpburst_des::SimDuration;

use crate::codec;
use crate::config::{Protocol, ScenarioConfig};
use crate::experiments::{Sweep, SweepCell};
use crate::report::ScenarioReport;
use crate::scenario::Scenario;
use crate::store::{self, Digest, ResultStore, ENGINE_SCHEMA_VERSION};
use crate::daemon::RemoteExec;
use crate::parallel::effective_jobs;
use crate::workers::{self, Fleet, InProcess, LocalFleet, RobustnessCounters, WorkerCommand};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Invariant auditing
// ---------------------------------------------------------------------------

/// One violated end-of-run invariant, with the counters that broke it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Stable identifier of the invariant (e.g. `"packet-conservation"`).
    pub invariant: &'static str,
    /// Human-readable account of the offending counters.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// The end-of-run invariant audit: the global packet-conservation ledger
/// plus every violation found.
///
/// The conservation identity is exact, not statistical: every packet handed
/// to the network (`injected`, counting client segments, ACKs and
/// cross-traffic) must be accounted for as delivered to a host, dropped at
/// a queue, lost on the wire, still queued, or still in flight —
///
/// ```text
/// injected = host_delivered + queue_drops + wire_lost
///          + queued_at_end + in_flight_at_end
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Packets injected into the network (data, ACKs, cross-traffic).
    pub injected: u64,
    /// Packets delivered to any host endpoint (server data, client ACKs,
    /// cross-traffic sinks).
    pub host_delivered: u64,
    /// Packets dropped at admission by any queue, summed over links.
    pub queue_drops: u64,
    /// Packets lost on the wire (link-down in flight + corruption).
    pub wire_lost: u64,
    /// Packets still sitting in link queues when the run ended.
    pub queued_at_end: u64,
    /// Packets serialized but not yet delivered when the run ended.
    pub in_flight_at_end: u64,
    /// Every invariant that did not hold; empty means the audit passed.
    pub violations: Vec<InvariantViolation>,
}

impl AuditReport {
    /// True when every audited invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit {}: injected {} = delivered {} + drops {} + wire-lost {} \
             + queued {} + in-flight {}",
            if self.passed() {
                "PASS".to_string()
            } else {
                format!("FAIL ({} violations)", self.violations.len())
            },
            self.injected,
            self.host_delivered,
            self.queue_drops,
            self.wire_lost,
            self.queued_at_end,
            self.in_flight_at_end,
        )?;
        for v in &self.violations {
            write!(f, "\n  violated {v}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Watchdog budgets
// ---------------------------------------------------------------------------

/// Which watchdog limit aborted a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExceededBudget {
    /// The simulated-time cap fired with events still pending.
    SimTime,
    /// The scheduler-event cap fired with events still pending.
    Events,
    /// The wall-clock cap fired with events still pending.
    WallClock,
}

impl fmt::Display for ExceededBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExceededBudget::SimTime => "simulated-time",
            ExceededBudget::Events => "event-count",
            ExceededBudget::WallClock => "wall-clock",
        })
    }
}

/// Per-run watchdog limits. Any combination may be set; [`RunBudget::UNLIMITED`]
/// disables the watchdog entirely (the scenario's one dispatch loop then
/// skips every budget check).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Cap on simulated time; the run is truncated at this horizon.
    pub max_sim_time: Option<SimDuration>,
    /// Cap on scheduler events processed.
    pub max_events: Option<u64>,
    /// Cap on host wall-clock time (checked every few thousand events).
    pub max_wall: Option<Duration>,
}

impl RunBudget {
    /// No limits at all.
    pub const UNLIMITED: RunBudget = RunBudget {
        max_sim_time: None,
        max_events: None,
        max_wall: None,
    };

    /// The budget with every set limit doubled — the deterministic-retry
    /// policy (the same budget on the same seed would fail identically).
    pub fn doubled(&self) -> RunBudget {
        RunBudget {
            max_sim_time: self
                .max_sim_time
                .map(|d| SimDuration::from_nanos(d.as_nanos().saturating_mul(2))),
            max_events: self.max_events.map(|e| e.saturating_mul(2)),
            max_wall: self.max_wall.map(|w| w.saturating_mul(2)),
        }
    }
}

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// Why one grid point failed. Budget and audit failures carry the partial
/// report so the diagnosis (which counters, how far the run got) survives.
#[derive(Debug)]
pub enum RunError {
    /// The scenario panicked; the payload is preserved as text.
    Panicked {
        /// The panic message.
        message: String,
    },
    /// The end-of-run audit found broken invariants.
    InvariantViolation {
        /// Every violated invariant.
        violations: Vec<InvariantViolation>,
        /// The full (corrupt) report, for diagnosis.
        report: Box<ScenarioReport>,
    },
    /// A watchdog budget aborted the run.
    BudgetExceeded {
        /// Which limit fired.
        exceeded: ExceededBudget,
        /// The diagnostic partial report (its
        /// [`budget_exceeded`](ScenarioReport::budget_exceeded) is set).
        report: Box<ScenarioReport>,
    },
    /// Journal I/O failed.
    Io {
        /// The journal path involved.
        path: PathBuf,
        /// The underlying error, as text.
        message: String,
    },
    /// A worker *process* reported a failure. The rich diagnostic payloads
    /// (partial reports, violation structures) stay in the worker; only the
    /// original error's kind tag and rendered message cross the wire. A
    /// worker that dies (segfault, OOM kill, abort) fails no point: its
    /// point is requeued, and computed in-process if workers keep dying.
    Remote {
        /// The original [`RunError::kind`] tag inside the worker.
        kind: String,
        /// The rendered error message.
        message: String,
    },
}

impl RunError {
    /// Stable lowercase tag for each variant (for logs and tests).
    pub fn kind(&self) -> &'static str {
        match self {
            RunError::Panicked { .. } => "panicked",
            RunError::InvariantViolation { .. } => "invariant-violation",
            RunError::BudgetExceeded { .. } => "budget-exceeded",
            RunError::Io { .. } => "io",
            RunError::Remote { .. } => "remote",
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Panicked { message } => write!(f, "panicked: {message}"),
            RunError::InvariantViolation { violations, .. } => {
                write!(f, "{} invariant violation(s)", violations.len())?;
                for v in violations {
                    write!(f, "; {v}")?;
                }
                Ok(())
            }
            RunError::BudgetExceeded { exceeded, report } => write!(
                f,
                "{exceeded} budget exceeded after {} events",
                report.events_processed
            ),
            RunError::Io { path, message } => {
                write!(f, "journal {}: {message}", path.display())
            }
            RunError::Remote { kind, message } => {
                write!(f, "worker {kind}: {message}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Renders a caught panic payload as text (the standard `String` /
/// `&'static str` payloads verbatim, anything else as a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Running one point
// ---------------------------------------------------------------------------

/// Builds and runs one scenario under a watchdog budget, converting panics,
/// budget aborts and audit failures into [`RunError`]s.
pub fn run_point(cfg: &ScenarioConfig, budget: &RunBudget) -> Result<ScenarioReport, RunError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut s = Scenario::new(cfg);
        let exceeded = s.run_with_budget(budget);
        (exceeded, s.into_report())
    }));
    let (exceeded, report) = match outcome {
        Ok(pair) => pair,
        Err(payload) => {
            return Err(RunError::Panicked {
                message: panic_message(payload.as_ref()),
            })
        }
    };
    if let Some(exceeded) = exceeded {
        return Err(RunError::BudgetExceeded {
            exceeded,
            report: Box::new(report),
        });
    }
    if let Some(audit) = &report.audit {
        if !audit.passed() {
            return Err(RunError::InvariantViolation {
                violations: audit.violations.clone(),
                report: Box::new(report),
            });
        }
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// The supervisor
// ---------------------------------------------------------------------------

/// What to do with the rest of the grid when one point fails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Run every point; report failures alongside the completed grid.
    /// Fully deterministic.
    #[default]
    KeepGoing,
    /// Stop claiming new points after the first failure. Which in-flight
    /// points still complete depends on worker timing, so the *set* of
    /// skipped points is not deterministic — only use this for quick
    /// smoke-out of a broken configuration.
    FailFast,
}

/// The outcome of one supervised grid point.
#[derive(Debug)]
pub enum PointOutcome<T> {
    /// The point completed (possibly after budget-doubling retries).
    Done(T),
    /// The point failed with a typed error.
    Failed(RunError),
    /// The point was never attempted (fail-fast abort).
    Skipped,
}

/// The settings every supervised grid runs under: job threads, failure
/// policy, watchdog budget and retry bound. The grid itself runs on the
/// one claim pool of [`crate::workers`].
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Worker threads (0 = all cores, 1 = fully serial).
    pub jobs: usize,
    /// Keep-going (default) or fail-fast.
    pub policy: FailurePolicy,
    /// Watchdog budget applied to every point.
    pub budget: RunBudget,
    /// How many times a budget-class failure is retried, doubling the
    /// budget each time. Panics and audit failures are never retried —
    /// the simulation is deterministic, so they would recur exactly.
    pub retries: u32,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            jobs: 0,
            policy: FailurePolicy::KeepGoing,
            budget: RunBudget::UNLIMITED,
            retries: 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Config hashing and the run journal
// ---------------------------------------------------------------------------

const JOURNAL_MAGIC: &str = "tcpburst-sweep";
const JOURNAL_VERSION: u32 = 3;

/// Splits a flat one-line JSON object into `(key, value)` pairs, string
/// values without their quotes. Only handles the journal's own output (no
/// nesting, no escaped quotes, no commas inside values), which is all the
/// resume path ever reads.
fn json_fields(line: &str) -> Option<Vec<(&str, &str)>> {
    let inner = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let (k, v) = part.split_once(':')?;
        let k = k.trim().strip_prefix('"')?.strip_suffix('"')?;
        let v = v.trim();
        out.push((k, v.strip_prefix('"').and_then(|v| v.strip_suffix('"')).unwrap_or(v)));
    }
    Some(out)
}

/// One journalled grid point: its coordinates and its full report, as the
/// exact [`codec`] payload the result store and the worker frames carry.
///
/// The report is encoded with `wall_clock_secs` zeroed. That host timing is
/// the payload's one run-dependent field; leaving it out keeps a finalized
/// journal a deterministic artifact. A resumed point's report is otherwise
/// bit-identical to the run that journalled it.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// The point's key: the hex of its configuration's
    /// [`store::point_digest`] (64 hex digits).
    key: String,
    protocol: Protocol,
    clients: usize,
    seed: u64,
    /// The codec payload; `None` for a report the codec refuses (trace
    /// payloads), which gets no journal line and re-runs on resume.
    payload: Option<String>,
}

impl JournalEntry {
    /// Captures one completed run's report.
    pub fn from_report(
        key: String,
        protocol: Protocol,
        clients: usize,
        seed: u64,
        report: &ScenarioReport,
    ) -> Self {
        let payload = codec::encode(&ScenarioReport {
            wall_clock_secs: 0.0,
            ..report.clone()
        });
        JournalEntry {
            key,
            protocol,
            clients,
            seed,
            payload,
        }
    }

    /// The entry's JSONL line, newline included, with the payload's
    /// newlines escaped (a payload holds no `"`, `,` or `\`); `None` when
    /// the report had no payload.
    fn to_line(&self) -> Option<String> {
        Some(format!(
            "{{\"key\":\"{}\",\"protocol\":\"{}\",\"clients\":{},\"seed\":{},\"report\":\"{}\"}}\n",
            self.key,
            self.protocol.cli_name(),
            self.clients,
            self.seed,
            self.payload.as_ref()?.replace('\n', "\\n"),
        ))
    }

    /// Parses one journal line into its key and decoded report; `None` for
    /// a malformed (e.g. truncated) line.
    fn parse(line: &str) -> Option<(String, ScenarioReport)> {
        let fields = json_fields(line)?;
        let get = |name: &str| fields.iter().find(|(k, _)| *k == name).map(|(_, v)| *v);
        let report = codec::decode(&get("report")?.replace("\\n", "\n"))?;
        Some((get("key")?.to_string(), report))
    }
}

/// An append-only JSONL journal of completed grid points. Thread-safe:
/// workers append entries as points finish, under a mutex, with a flush per
/// line so a killed sweep loses at most the line being written.
///
/// Appends happen in *completion* order (durability first: a line hits the
/// disk the moment its point finishes). Once every grid point has
/// completed, [`RunJournal::finalize`] atomically rewrites the file in
/// canonical grid order — so the finished journal's bytes are independent
/// of thread/worker scheduling *and* of whether the sweep was interrupted
/// and resumed along the way.
#[derive(Debug)]
pub struct RunJournal {
    file: Mutex<File>,
    path: PathBuf,
    header: String,
}

fn io_error(path: &Path, e: std::io::Error) -> RunError {
    RunError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

impl RunJournal {
    fn header_line(sweep: &Digest) -> String {
        format!(
            "{{\"journal\":\"{JOURNAL_MAGIC}\",\"version\":{JOURNAL_VERSION},\
             \"schema_version\":{ENGINE_SCHEMA_VERSION},\"sweep\":\"{}\"}}",
            sweep.hex()
        )
    }

    /// Creates (truncating) a journal for the given sweep digest and writes
    /// the header line.
    pub fn create(path: &Path, sweep: &Digest) -> Result<RunJournal, RunError> {
        let header = RunJournal::header_line(sweep);
        let mut file = File::create(path).map_err(|e| io_error(path, e))?;
        writeln!(file, "{header}").map_err(|e| io_error(path, e))?;
        file.flush().map_err(|e| io_error(path, e))?;
        Ok(RunJournal {
            file: Mutex::new(file),
            path: path.to_path_buf(),
            header,
        })
    }

    /// Opens an existing journal for resumption: validates the header's
    /// format, engine schema and sweep digest, decodes every well-formed
    /// entry into its full report, keyed by point digest (a truncated last
    /// line, the kill case, is skipped), and reopens the file in append
    /// mode for the remaining points. A rejected journal is left untouched.
    pub fn resume(
        path: &Path,
        sweep: &Digest,
    ) -> Result<(RunJournal, HashMap<String, ScenarioReport>), RunError> {
        let bad = |message: String| RunError::Io {
            path: path.to_path_buf(),
            message,
        };
        let file = File::open(path).map_err(|e| io_error(path, e))?;
        let mut lines = BufReader::new(file).lines();
        let header = match lines.next() {
            Some(line) => line.map_err(|e| io_error(path, e))?,
            None => return Err(bad("empty journal (missing header)".to_string())),
        };
        let fields = json_fields(&header).unwrap_or_default();
        let get = |name: &str| fields.iter().find(|(k, _)| *k == name).map(|(_, v)| *v);
        if get("journal") != Some(JOURNAL_MAGIC) {
            return Err(bad("not a tcpburst sweep journal".to_string()));
        }
        let version = get("version").and_then(|v| v.parse::<u32>().ok());
        let recorded = get("sweep").unwrap_or_default();
        match version {
            Some(JOURNAL_VERSION) => {}
            // Format 1 predates the engine-schema stamp; format 2 kept only
            // the figure-table fields, so it cannot restore full reports.
            Some(v) if v < JOURNAL_VERSION => {
                return Err(bad(format!(
                    "journal format {v} is no longer supported; start a fresh journal"
                )))
            }
            _ => {
                return Err(bad(format!(
                    "unsupported journal version {}",
                    version.map_or_else(|| "?".to_string(), |v| v.to_string())
                )))
            }
        }
        let schema = get("schema_version").and_then(|v| v.parse::<u32>().ok());
        if schema != Some(ENGINE_SCHEMA_VERSION) {
            return Err(bad(format!(
                "journal was written by engine schema {} but this build \
                 is schema {ENGINE_SCHEMA_VERSION}; its results are not \
                 comparable — start a fresh journal",
                schema.map_or_else(|| "?".to_string(), |s| s.to_string()),
            )));
        }
        if recorded != sweep.hex() {
            return Err(bad(format!(
                "journal was written for a different sweep configuration \
                 (recorded {recorded}, expected {})",
                sweep.hex()
            )));
        }
        let mut done = HashMap::new();
        for line in lines {
            let line = line.map_err(|e| io_error(path, e))?;
            // A malformed line is a half-written tail from a killed run;
            // that point simply re-runs.
            if let Some((key, report)) = JournalEntry::parse(&line) {
                done.insert(key, report);
            }
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_error(path, e))?;
        Ok((
            RunJournal {
                file: Mutex::new(file),
                path: path.to_path_buf(),
                header,
            },
            done,
        ))
    }

    /// Appends one completed point (one line, flushed); a report the codec
    /// refuses writes nothing.
    pub fn append(&self, entry: &JournalEntry) -> Result<(), RunError> {
        let Some(line) = entry.to_line() else {
            return Ok(());
        };
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| io_error(&self.path, e))
    }

    /// Atomically rewrites the journal as the header plus `entries` in the
    /// order given (the caller passes canonical grid order). Called only
    /// once every point has completed; after it, the journal's bytes no
    /// longer depend on completion order or on interruption history.
    pub fn finalize(&self, entries: &[JournalEntry]) -> Result<(), RunError> {
        self.rewrite(entries.iter().filter_map(JournalEntry::to_line))
    }

    /// [`finalize`](Self::finalize) over lines made one at a time, so the
    /// sweep never holds every point's payload at once.
    fn rewrite(&self, lines: impl Iterator<Item = String>) -> Result<(), RunError> {
        // Hold the append lock across the rename so no in-flight append can
        // interleave (none should exist by the time this is called).
        let _guard = self
            .file
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut tmp_name = self.path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        let write = |path: &Path| -> std::io::Result<()> {
            let mut out = BufWriter::new(File::create(path)?);
            writeln!(out, "{}", self.header)?;
            for line in lines {
                out.write_all(line.as_bytes())?;
            }
            out.into_inner()?.sync_all()
        };
        write(&tmp).map_err(|e| io_error(&tmp, e))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| io_error(&self.path, e))
    }
}

// ---------------------------------------------------------------------------
// Supervised grids
// ---------------------------------------------------------------------------

/// One point's coordinates on a `protocol × clients × seed` grid: its label
/// in `FAILED`/`SKIPPED` lines and in journal lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointSpec {
    /// Protocol of the point.
    pub protocol: Protocol,
    /// Client count of the point.
    pub clients: usize,
    /// Seed of the point.
    pub seed: u64,
}

impl PointSpec {
    /// The point's configuration: `base` with this protocol, client count
    /// and seed.
    fn config(&self, base: &ScenarioConfig) -> ScenarioConfig {
        let mut cfg = *base;
        cfg.num_clients = self.clients;
        cfg.apply_protocol(self.protocol);
        cfg.seed = self.seed;
        cfg
    }
}

impl fmt::Display for PointSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x {} clients (seed {})",
            self.protocol.label(),
            self.clients,
            self.seed
        )
    }
}

/// The canonical (protocol-major, then clients, then seed) flattening of a
/// grid: the order of a sweep's cells, its journal lines and the
/// replicated fold.
fn canonical_grid(protocols: &[Protocol], clients: &[usize], seeds: &[u64]) -> Vec<PointSpec> {
    protocols
        .iter()
        .flat_map(|&protocol| {
            clients.iter().flat_map(move |&clients| {
                seeds.iter().map(move |&seed| PointSpec {
                    protocol,
                    clients,
                    seed,
                })
            })
        })
        .collect()
}

/// The axes a [`SweepSupervisor::new`] grid was built from.
#[derive(Debug, Clone)]
struct Axes {
    base: ScenarioConfig,
    protocols: Vec<Protocol>,
    clients: Vec<usize>,
    seeds: Vec<u64>,
    /// Each point's coordinates, in grid order.
    labels: Vec<PointSpec>,
}

/// A failed grid point and why it failed.
#[derive(Debug)]
pub struct PointFailure {
    /// The point's coordinates.
    pub point: PointSpec,
    /// The typed failure.
    pub error: RunError,
}

impl fmt::Display for PointFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.point, self.error)
    }
}

/// The outcome of any supervised grid: every point's outcome in grid
/// order, and how the points were resolved.
#[derive(Debug)]
pub struct SupervisedGrid {
    /// Each point's outcome, in grid order.
    pub outcomes: Vec<PointOutcome<ScenarioReport>>,
    /// How many points were restored from a resumed journal.
    pub resumed_points: usize,
    /// How many points actually ran (freshly) to completion.
    pub completed_points: usize,
    /// How many points were resolved from the content-addressed result
    /// store without simulating (0 when no store is attached).
    pub cache_hits: usize,
    /// How many store lookups missed and fell through to a fresh run
    /// (0 when no store is attached).
    pub cache_misses: usize,
    /// Control-plane robustness accounting (requeues, worker restarts,
    /// heartbeat misses, backoff resumes). All zeros on a fault-free run
    /// and for purely in-process execution.
    pub robustness: RobustnessCounters,
}

impl SupervisedGrid {
    /// Every point's report in grid order, or the index of the first point
    /// that did not complete with its failure (`None` when a fail-fast
    /// abort skipped it).
    pub fn reports(self) -> Result<Vec<ScenarioReport>, (usize, Option<RunError>)> {
        let mut reports = Vec::with_capacity(self.outcomes.len());
        for (i, outcome) in self.outcomes.into_iter().enumerate() {
            match outcome {
                PointOutcome::Done(report) => reports.push(report),
                PointOutcome::Failed(error) => return Err((i, Some(error))),
                PointOutcome::Skipped => return Err((i, None)),
            }
        }
        Ok(reports)
    }
}

/// The outcome of a supervised sweep: the completed grid (failures leave
/// holes that render as `-`) plus structured per-point failures.
#[derive(Debug)]
pub struct SupervisedSweep {
    /// Completed cells, assembled in canonical grid order.
    pub sweep: Sweep,
    /// Every failed point, in canonical grid order.
    pub failures: Vec<PointFailure>,
    /// Points skipped by a fail-fast abort.
    pub skipped: Vec<PointSpec>,
    /// How many points were restored from a resumed journal.
    pub resumed_points: usize,
    /// How many points actually ran (freshly) to completion.
    pub completed_points: usize,
    /// How many points were resolved from the content-addressed result
    /// store without simulating (0 when no store is attached).
    pub cache_hits: usize,
    /// How many store lookups missed and fell through to a fresh run
    /// (0 when no store is attached).
    pub cache_misses: usize,
    /// Control-plane robustness accounting (requeues, worker restarts,
    /// heartbeat misses, backoff resumes). All zeros on a fault-free run
    /// and for purely in-process execution.
    pub robustness: RobustnessCounters,
    /// Set when the end-of-sweep journal finalization failed. The journal
    /// is still valid and resumable (appends all landed); only the
    /// canonical-order rewrite was lost.
    pub journal_error: Option<RunError>,
}

impl SupervisedSweep {
    /// True when every grid point completed (fresh, resumed, or cached).
    pub fn all_complete(&self) -> bool {
        self.failures.is_empty() && self.skipped.is_empty()
    }
}

/// The one runner of a supervised grid: a list of scenario configurations,
/// each run once under a [`Supervisor`], with an optional
/// content-addressed result store, optional worker-process or remote
/// execution and, for a `protocol × clients × seed` grid, optional
/// journalling and resumption.
///
/// [`new`](Self::new) builds the `protocol × clients × seed` grid the
/// figures and the CLI sweep, which [`run`](Self::run) folds into a
/// [`Sweep`]; [`from_configs`](Self::from_configs) takes any list of
/// configurations, whose outcomes [`run_grid`](Self::run_grid) returns in
/// list order.
#[derive(Debug, Clone)]
pub struct SweepSupervisor {
    /// The grid: one configuration per point, in outcome order.
    points: Vec<ScenarioConfig>,
    /// The axes the points were built from; `None` for a list of configs.
    axes: Option<Axes>,
    /// The supervision knobs (jobs, policy, budget, retries).
    pub supervisor: Supervisor,
    workers: usize,
    worker_command: Option<WorkerCommand>,
    store: Option<Arc<ResultStore>>,
    remote: Option<Arc<RemoteExec>>,
}

impl SweepSupervisor {
    /// A supervisor for the given grid; every non-axis knob (duration,
    /// workload, impairments, audit, …) comes from `base`, and so does the
    /// one seed of the default seed axis.
    ///
    /// # Panics
    ///
    /// Panics if either axis is empty.
    pub fn new(base: &ScenarioConfig, protocols: &[Protocol], clients: &[usize]) -> Self {
        assert!(!protocols.is_empty(), "need at least one protocol");
        assert!(!clients.is_empty(), "need at least one client count");
        let axes = Axes {
            base: *base,
            protocols: protocols.to_vec(),
            clients: clients.to_vec(),
            seeds: vec![base.seed],
            labels: Vec::new(),
        };
        SweepSupervisor::from_configs(&[]).with_axes(axes)
    }

    /// A supervisor for an arbitrary grid: one point per configuration, in
    /// the order given. Its outcomes come from [`run_grid`](Self::run_grid).
    pub fn from_configs(points: &[ScenarioConfig]) -> Self {
        SweepSupervisor {
            points: points.to_vec(),
            axes: None,
            supervisor: Supervisor::default(),
            workers: 1,
            worker_command: None,
            store: None,
            remote: None,
        }
    }

    /// Rebuilds the points from `axes`, in canonical order.
    fn with_axes(mut self, mut axes: Axes) -> Self {
        axes.labels = canonical_grid(&axes.protocols, &axes.clients, &axes.seeds);
        self.points = axes.labels.iter().map(|p| p.config(&axes.base)).collect();
        self.axes = Some(axes);
        self
    }

    /// The grid's axes.
    ///
    /// # Panics
    ///
    /// Panics on a grid from [`from_configs`](Self::from_configs).
    fn axes(&self) -> &Axes {
        self.axes
            .as_ref()
            .expect("a grid of configs has no protocol x clients axes; use run_grid")
    }

    /// Sets the seed axis: every (protocol, clients) point runs once per
    /// seed, in the order given. The default is the base seed alone.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty, or on a grid from
    /// [`from_configs`](Self::from_configs).
    pub fn seeds(self, seeds: &[u64]) -> Self {
        assert!(!seeds.is_empty(), "need at least one seed");
        let axes = Axes {
            seeds: seeds.to_vec(),
            ..self.axes().clone()
        };
        self.with_axes(axes)
    }

    /// Sets the worker-thread count (0 = all cores).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.supervisor.jobs = jobs;
        self
    }

    /// Sets the failure policy.
    pub fn policy(mut self, policy: FailurePolicy) -> Self {
        self.supervisor.policy = policy;
        self
    }

    /// Sets the per-point watchdog budget.
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.supervisor.budget = budget;
        self
    }

    /// Sets the budget-failure retry bound.
    pub fn retries(mut self, retries: u32) -> Self {
        self.supervisor.retries = retries;
        self
    }

    /// Spreads fresh grid points across worker *processes* instead of
    /// in-process threads: `0` = one per core, `1` (the default) = stay
    /// in-process, `n > 1` = that many children. Has no effect until a
    /// [`worker_command`](Self::worker_command) is also set. Output is
    /// byte-identical at every worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the command used to launch worker processes: the harness
    /// binary's hidden `worker` subcommand, which serves
    /// [`worker_main`](crate::worker_main). Each point frame carries its
    /// whole configuration, so the command needs no scenario flags.
    pub fn worker_command(mut self, command: WorkerCommand) -> Self {
        self.worker_command = Some(command);
        self
    }

    /// Attaches a content-addressed result store: points whose digest is
    /// already stored load instead of simulating, and fresh completions
    /// are written back. Ignored for a grid with a configuration
    /// [`store::cacheable`] refuses (trace capture).
    pub fn store(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Dispatches fresh grid points across the daemon's registered remote
    /// workers ([`crate::daemon`]) instead of local processes or threads,
    /// with in-process graceful degradation when no worker is available.
    /// Takes priority over [`workers`](Self::workers). Output stays
    /// byte-identical to the in-process run.
    pub fn remote(mut self, remote: Arc<RemoteExec>) -> Self {
        self.remote = Some(remote);
        self
    }

    /// The grid's content digest, a hash of its points' digests in grid
    /// order: the identity journals are written under.
    pub fn digest(&self) -> Digest {
        store::sweep_digest(&self.point_digests())
    }

    /// Each point's digest, in grid order.
    fn point_digests(&self) -> Vec<Digest> {
        self.points.iter().map(store::point_digest).collect()
    }

    /// Runs the whole grid; outcomes come back in grid order.
    pub fn run_grid(&self) -> SupervisedGrid {
        self.run_inner(None, None, HashMap::new()).0
    }

    /// Runs the whole grid with no journal and folds it into a [`Sweep`].
    ///
    /// # Panics
    ///
    /// Panics on a grid from [`from_configs`](Self::from_configs).
    pub fn run(&self) -> SupervisedSweep {
        self.fold(self.run_inner(None, None, HashMap::new()))
    }

    /// Runs the grid, journalling every completed point to `path`
    /// (truncating any existing file).
    ///
    /// # Panics
    ///
    /// Panics on a grid from [`from_configs`](Self::from_configs), whose
    /// points have no labels for journal lines.
    pub fn run_with_journal(&self, path: &Path) -> Result<SupervisedSweep, RunError> {
        // Journal lines carry axis labels: refuse a config list up front.
        self.axes();
        let digests = self.point_digests();
        let journal = RunJournal::create(path, &store::sweep_digest(&digests))?;
        Ok(self.fold(self.run_inner(Some(&digests), Some(&journal), HashMap::new())))
    }

    /// Resumes from an existing journal: completed points are restored from
    /// their journal entries as full reports (and *not* re-run or
    /// re-appended); the rest run normally and are appended as they finish.
    /// Every report equals an uninterrupted run's but for its zeroed
    /// `wall_clock_secs`, so the figure tables are byte-identical at any job
    /// count, and once every point completes the journal file itself is
    /// finalized to the uninterrupted run's exact bytes.
    ///
    /// # Panics
    ///
    /// Panics on a grid from [`from_configs`](Self::from_configs), whose
    /// points have no labels for journal lines.
    pub fn resume_from(&self, path: &Path) -> Result<SupervisedSweep, RunError> {
        // Journal lines carry axis labels: refuse a config list up front.
        self.axes();
        let digests = self.point_digests();
        let (journal, done) = RunJournal::resume(path, &store::sweep_digest(&digests))?;
        Ok(self.fold(self.run_inner(Some(&digests), Some(&journal), done)))
    }

    /// Folds grid outcomes into the sweep's cells, failures and skips.
    fn fold(&self, (grid, journal_error): (SupervisedGrid, Option<RunError>)) -> SupervisedSweep {
        let axes = self.axes();
        let mut cells = Vec::new();
        let mut failures = Vec::new();
        let mut skipped = Vec::new();
        for (outcome, &point) in grid.outcomes.into_iter().zip(&axes.labels) {
            match outcome {
                PointOutcome::Done(report) => cells.push(SweepCell {
                    protocol: point.protocol,
                    clients: point.clients,
                    report,
                }),
                PointOutcome::Failed(error) => failures.push(PointFailure { point, error }),
                PointOutcome::Skipped => skipped.push(point),
            }
        }
        let mut sweep = Sweep::from_cells(cells, axes.protocols.clone(), axes.clients.clone());
        sweep.replications = axes.seeds.len();
        SupervisedSweep {
            sweep,
            failures,
            skipped,
            resumed_points: grid.resumed_points,
            completed_points: grid.completed_points,
            cache_hits: grid.cache_hits,
            cache_misses: grid.cache_misses,
            robustness: grid.robustness,
            journal_error,
        }
    }

    /// Runs the grid, restoring the points `done` holds; also returns the
    /// journal finalization error, if any. `known` is each point's digest
    /// when the caller has already computed them for a journal header.
    fn run_inner(
        &self,
        known: Option<&[Digest]>,
        journal: Option<&RunJournal>,
        mut done: HashMap<String, ScenarioReport>,
    ) -> (SupervisedGrid, Option<RunError>) {
        let points = &self.points;

        // Reports cross the store, worker frames and the journal as codec
        // payloads, which cannot carry traces: a grid with a tracing point
        // uses none of the three, and its journal keeps only its header.
        let encodable = points.iter().all(store::cacheable);
        let store = self.store.as_deref().filter(|_| encodable);
        let journal = journal.filter(|_| encodable);

        // Phase 1, on the job threads: each point's digest, and a store
        // lookup unless the journal already holds the point. Without a
        // store, or with one that holds no records yet, this is only
        // hashing and certain misses, not worth a thread.
        let jobs = if store.is_some_and(ResultStore::has_records) {
            self.supervisor.jobs
        } else {
            1
        };
        let (digests, stored): (Vec<Digest>, Vec<Option<ScenarioReport>>) =
            crate::parallel::run_indexed(jobs, points.len(), |i| {
                let digest = known.map_or_else(|| store::point_digest(&points[i]), |d| d[i]);
                // Hex keys are built only when there is a journal to restore.
                let journalled = !done.is_empty() && done.contains_key(&digest.hex());
                let stored = store
                    .filter(|_| !journalled)
                    .and_then(|store| store.get(&digest));
                (digest, stored)
            })
            .into_iter()
            .unzip();
        // Only axis grids are journalled, and their points carry labels.
        let entry = |i: usize, report: &ScenarioReport| {
            let p = self.axes().labels[i];
            JournalEntry::from_report(digests[i].hex(), p.protocol, p.clients, p.seed, report)
        };

        // Then serially, in grid order, so the counts and the journal
        // bytes are the same at any job count: restore journalled points,
        // and journal and count the store's answers.
        let mut outcomes: Vec<Option<PointOutcome<ScenarioReport>>> =
            (0..points.len()).map(|_| None).collect();
        let mut resumed_points = 0usize;
        let mut cache_hits = 0usize;
        let mut cache_misses = 0usize;
        for (i, stored) in stored.into_iter().enumerate() {
            let restored = if done.is_empty() {
                None
            } else {
                done.remove(&digests[i].hex())
            };
            if let Some(report) = restored {
                outcomes[i] = Some(PointOutcome::Done(report));
                resumed_points += 1;
                continue;
            }
            if store.is_none() {
                continue;
            }
            let Some(report) = stored else {
                cache_misses += 1;
                continue;
            };
            // A cache hit still earns its journal line, so a later resume
            // needs neither the store nor a re-run.
            if let Some(Err(e)) = journal.map(|journal| journal.append(&entry(i, &report))) {
                outcomes[i] = Some(PointOutcome::Failed(e));
                continue;
            }
            cache_hits += 1;
            outcomes[i] = Some(PointOutcome::Done(report));
        }

        // Phase 2: dispatch what remains — to a worker fleet when one is
        // configured and worthwhile, to in-process threads otherwise.
        let pending: Vec<usize> = (0..points.len())
            .filter(|&i| outcomes[i].is_none())
            .collect();
        let fresh: Vec<ScenarioConfig> = pending.iter().map(|&i| points[i]).collect();
        let complete = |i: usize, report: &ScenarioReport| -> Result<(), RunError> {
            if let Some(store) = store {
                // A failed write-back must not fail a completed point; the
                // next run simply recomputes.
                let _ = store.put(&digests[i], report);
            }
            if let Some(journal) = journal {
                journal.append(&entry(i, report))?;
            }
            Ok(())
        };
        // The daemon's fleet takes priority over local worker processes.
        let local = self
            .worker_command
            .clone()
            .filter(|_| self.workers != 1 && pending.len() > 1)
            .map(|command| LocalFleet {
                command,
                workers: effective_jobs(self.workers, pending.len()),
            });
        let fleet = match &self.remote {
            Some(remote) => Some(&**remote as &dyn Fleet),
            None => local.as_ref().map(|local| local as &dyn Fleet),
        }
        .filter(|_| encodable && !pending.is_empty());
        let (fresh_outcomes, counters) = workers::run_points(
            fleet.unwrap_or(&InProcess),
            &self.supervisor,
            &store::sweep_digest(&digests).hex(),
            &fresh,
            |j, budget| run_point(&fresh[j], budget),
            |j, report| complete(pending[j], report),
        );
        // A purely in-process run has no control plane to account for.
        let robustness = if fleet.is_some() { counters } else { RobustnessCounters::default() };
        let completed_points = fresh_outcomes
            .iter()
            .filter(|o| matches!(o, PointOutcome::Done(_)))
            .count();
        for (i, outcome) in pending.into_iter().zip(fresh_outcomes) {
            outcomes[i] = Some(outcome);
        }
        let outcomes: Vec<PointOutcome<ScenarioReport>> = outcomes
            .into_iter()
            .map(|o| o.unwrap_or(PointOutcome::Skipped))
            .collect();

        // Every point landed: canonicalize the journal so its bytes match
        // an uninterrupted run's.
        let mut journal_error = None;
        if let Some(journal) = journal {
            if outcomes.iter().all(|o| matches!(o, PointOutcome::Done(_))) {
                let lines = outcomes.iter().enumerate().filter_map(|(i, o)| match o {
                    PointOutcome::Done(report) => entry(i, report).to_line(),
                    _ => None,
                });
                journal_error = journal.rewrite(lines).err();
            }
        }

        let grid = SupervisedGrid {
            outcomes,
            resumed_points,
            completed_points,
            cache_hits,
            cache_misses,
            robustness,
        };
        (grid, journal_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short run's report and its journal line under key `deadbeef`.
    fn tiny_entry() -> (ScenarioReport, Option<String>) {
        let mut cfg = crate::ScenarioBuilder::paper().finish();
        cfg.num_clients = 3;
        cfg.duration = SimDuration::from_millis(500);
        let report = run_point(&cfg, &RunBudget::UNLIMITED).expect("a tiny scenario runs");
        let entry = JournalEntry::from_report("deadbeef".into(), Protocol::VegasRed, 3, 7, &report);
        (report, entry.to_line())
    }

    #[test]
    fn journal_entry_round_trips_exactly() {
        let (report, line) = tiny_entry();
        let line = line.expect("a plain report encodes");
        assert_eq!(line.find('\n'), Some(line.len() - 1), "one line per entry");
        let (key, back) = JournalEntry::parse(&line).expect("parses");
        assert_eq!(key, "deadbeef");
        // Bit-identical but for the host timing, which is never journalled.
        let timeless = ScenarioReport { wall_clock_secs: 0.0, ..report.clone() };
        assert_eq!(codec::encode(&back), codec::encode(&timeless));
        // A report the codec refuses gets no line at all.
        let partial = ScenarioReport { budget_exceeded: Some(ExceededBudget::Events), ..report };
        let entry = JournalEntry::from_report("00".into(), Protocol::Udp, 3, 7, &partial);
        assert_eq!(entry.to_line(), None);
    }

    #[test]
    fn malformed_lines_are_rejected_not_crashed() {
        assert!(JournalEntry::parse("").is_none());
        assert!(JournalEntry::parse("{").is_none());
        assert!(JournalEntry::parse("{\"key\":\"zz\"}").is_none());
        assert!(JournalEntry::parse("{\"key\":\"zz\",\"report\":\"end\"}").is_none());
        // Every cut of a line (the kill case) is rejected; only dropping
        // the newline leaves it whole.
        let line = tiny_entry().1.expect("a plain report encodes");
        for cut in 0..line.len() - 1 {
            assert!(JournalEntry::parse(&line[..cut]).is_none(), "cut at {cut}");
        }
        assert!(JournalEntry::parse(&line[..line.len() - 1]).is_some());
    }

    #[test]
    fn panic_messages_cover_both_standard_payloads() {
        let p = catch_unwind(|| panic!("static message")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "static message");
        let p = catch_unwind(|| panic!("formatted {}", 42)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 42");
    }

    #[test]
    fn doubled_budget_doubles_every_set_limit() {
        let b = RunBudget {
            max_sim_time: Some(SimDuration::from_secs(3)),
            max_events: Some(1000),
            max_wall: Some(Duration::from_millis(10)),
        };
        let d = b.doubled();
        assert_eq!(d.max_sim_time, Some(SimDuration::from_secs(6)));
        assert_eq!(d.max_events, Some(2000));
        assert_eq!(d.max_wall, Some(Duration::from_millis(20)));
        assert_eq!(RunBudget::UNLIMITED.doubled(), RunBudget::UNLIMITED);
    }

    #[test]
    fn error_taxonomy_kinds_and_display() {
        let e = RunError::Panicked {
            message: "boom".into(),
        };
        assert_eq!(e.kind(), "panicked");
        assert!(e.to_string().contains("boom"));
        let e = RunError::Io {
            path: PathBuf::from("/tmp/x.jsonl"),
            message: "denied".into(),
        };
        assert_eq!(e.kind(), "io");
        assert!(e.to_string().contains("x.jsonl"));
    }
}
